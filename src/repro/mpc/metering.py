"""Per-round, per-rank communication metering.

The quantity the MPC model bounds is what a machine sends and receives
*per round*; :class:`CommMeter` records exactly that and nothing else.
Drivers bracket each synchronous round with :meth:`CommMeter.round`
(or ``begin_round``/``end_round``) and call :meth:`record_send` for
every cross-rank transfer; the meter keeps the full per-round series —
total volume, message count, and the **max rank load** (bytes sent +
received by the busiest machine, the value audited against the O(S)
budget) — and mirrors the aggregates into :mod:`repro.obs`:

* counter ``{prefix}.comm.{unit}`` — total volume across rounds,
* counter ``{prefix}.comm.messages`` — total message count,
* counter ``{prefix}.rounds`` — rounds metered,
* gauge ``{prefix}.round.max_rank_{unit}`` — per-round busiest-rank
  load (the peak-hold ``max`` is the series maximum).

The same class meters both sides of the unified accounting the ISSUE
asks for: :mod:`repro.mpc.driver` uses ``prefix="mpc", unit="bytes"``
and :func:`repro.local.congest.audit_congest` replays a LOCAL engine
run through ``prefix="congest", unit="bits"`` — one totals path, two
models.

Everything recorded is a pure function of the caller's arguments (no
clocks, no sampling), so metering tables are bit-reproducible across
repeat runs — a property the rank-determinism suite pins.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List

import repro.obs as _obs
from repro.util.validation import require


class CommMeter:
    """Accumulates one execution's per-round communication series."""

    __slots__ = ("ranks", "prefix", "unit", "_rounds", "_current")

    def __init__(self, ranks: int, prefix: str = "mpc", unit: str = "bytes") -> None:
        require(ranks >= 1, f"ranks must be >= 1, got {ranks}")
        self.ranks = ranks
        self.prefix = prefix
        self.unit = unit
        self._rounds: List[Dict[str, Any]] = []
        self._current: Dict[str, Any] = {}

    # -- recording -----------------------------------------------------
    def begin_round(self, label: str) -> None:
        require(not self._current, "previous round still open")
        self._current = {
            "label": label,
            "sent": [0] * self.ranks,
            "received": [0] * self.ranks,
            "messages": 0,
            "volume": 0,
        }

    def record_send(
        self, src: int, dst: int, amount: int, messages: int = 1
    ) -> None:
        """One transfer of ``amount`` units from rank ``src`` to ``dst``.

        Same-rank moves are local memory traffic, not network rounds —
        they are ignored, so callers can loop rank pairs uniformly.
        """
        cur = self._current
        require(bool(cur), "record_send outside begin_round/end_round")
        if src == dst:
            return
        cur["sent"][src] += amount
        cur["received"][dst] += amount
        cur["messages"] += messages
        cur["volume"] += amount

    def end_round(self) -> None:
        cur = self._current
        require(bool(cur), "end_round without begin_round")
        loads = [s + r for s, r in zip(cur["sent"], cur["received"])]
        max_load = max(loads) if loads else 0
        entry = {
            "round": len(self._rounds),
            "label": cur["label"],
            self.unit: cur["volume"],
            "messages": cur["messages"],
            f"max_rank_{self.unit}": max_load,
        }
        self._rounds.append(entry)
        _obs.count(f"{self.prefix}.comm.{self.unit}", cur["volume"])
        _obs.count(f"{self.prefix}.comm.messages", cur["messages"])
        _obs.count(f"{self.prefix}.rounds")
        _obs.gauge(f"{self.prefix}.round.max_rank_{self.unit}", max_load)
        self._current = {}

    @contextlib.contextmanager
    def round(self, label: str) -> Iterator["CommMeter"]:
        """Bracket one synchronous round (begin/end pair)."""
        self.begin_round(label)
        try:
            yield self
        finally:
            self.end_round()

    # -- views ---------------------------------------------------------
    def round_table(self) -> List[Dict[str, Any]]:
        """The per-round series, one dict per round (copy, JSON-ready)."""
        return [dict(entry) for entry in self._rounds]

    def max_rank_series(self) -> List[int]:
        """Per-round busiest-rank load — the O(S) audit series."""
        key = f"max_rank_{self.unit}"
        return [int(entry[key]) for entry in self._rounds]

    def totals(self) -> Dict[str, Any]:
        """Aggregates over the whole series (JSON-ready)."""
        key = f"max_rank_{self.unit}"
        return {
            self.unit: sum(int(e[self.unit]) for e in self._rounds),
            "messages": sum(int(e["messages"]) for e in self._rounds),
            "rounds": len(self._rounds),
            f"max_round_rank_{self.unit}": max(
                (int(e[key]) for e in self._rounds), default=0
            ),
        }
