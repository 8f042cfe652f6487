"""Theorem 1.1: the high-probability low-diameter decomposition.

Three phases (Section 3.1):

1. **Sparsification** (Algorithm 2) — ``t = ⌈log₂(20/ε)⌉`` iterations of
   ball-growing-and-carving with geometrically increasing center
   probabilities ``p_{v,i} = 2^i ln ñ / n_v``.  After iteration ``i``
   every surviving vertex's relevant ball holds ``O(n / 2^i)`` vertices
   w.h.p., and each iteration deletes at most ``ε|V|/4t`` vertices.
2. **Dense-pocket clearing** (Algorithm 3) — one iteration with the
   boosted probability ``2^{t+1} ln ñ ln(20/ε)/n_v``, ensuring that
   w.h.p. only ``O(log n)`` dense components survive (the *bad
   vertices* of Definition 3.1).
3. **Finish** — the Elkin–Neiman decomposition with ``λ = ε/10`` on the
   residual graph; the sparsified neighborhoods keep the deletion
   indicators ``O(ε n / log n)``-dependent, so a bounded-dependence
   Chernoff bound (Lemma A.3) makes the total deletion bound hold with
   probability ``1 − 1/poly(n)`` — the property (C1) that in-expectation
   decompositions lack (Appendix C).

The optional ``weights`` argument measures everything (ball sizes,
layer sizes, deletions) in vertex weight instead of count — the
weighted generalization used by the Section 4 "alternative approach".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

import repro.obs as _obs
from repro.core.carve import carve_round, grow_and_carve
from repro.core.params import LddParams, profile_params
from repro.decomp.elkin_neiman import elkin_neiman_ldd
from repro.decomp.types import Decomposition
from repro.graphs.graph import Graph
from repro.local.gather import RoundLedger
from repro.mpc import MpcConfig, MpcRun
from repro.util.rng import LazyRngStreams, SeedLike
from repro.util.validation import require


@dataclass
class LddTrace:
    """Diagnostics of one run (consumed by tests and the E12 ablations)."""

    centers_per_iteration: List[int] = field(default_factory=list)
    deleted_per_iteration: List[int] = field(default_factory=list)
    removed_per_iteration: List[int] = field(default_factory=list)
    phase3_deleted: int = 0
    residual_after_phase2: int = 0


def chang_li_ldd(
    graph: Graph,
    params: LddParams,
    seed: SeedLike = None,
    weights: Optional[Sequence[float]] = None,
    skip_phase2: bool = False,
    trace: Optional[LddTrace] = None,
    mpc=None,
) -> Decomposition:
    """Run the Theorem 1.1 decomposition with the given parameters.

    Returns a :class:`~repro.decomp.types.Decomposition` whose clusters
    are the connected components of the non-deleted vertices (mutually
    non-adjacent by construction; weak diameter ``O(t R)`` by Lemma
    3.2).  ``skip_phase2`` is an ablation hook (E12): it degrades the
    w.h.p. guarantee exactly as the analysis predicts.

    Every BFS-shaped step (the ``n_v`` estimation, ball growing and
    the final components) runs on the batched numpy kernels of
    :mod:`repro.graphs.csr`; the Elkin–Neiman flood of phase 3 is the
    heap flood of :mod:`repro.decomp.shifts`.

    An unweighted ``n_v`` estimation runs
    :meth:`~repro.graphs.csr.CsrGraph.ball_size_estimate`: a vertex
    whose ball provably covers its component takes the component size,
    the maximum depth charged to the ledger is certified with a few
    BFS rounds, and only the sources left open (unsaturated balls,
    or every source of an expander whose depth will not certify) go
    through the packed sweep — for their depths only when every one
    of them is certified saturated.  Sizes and depth are exactly the
    full sweep's.  Weighted estimates and partitioned runs sweep every
    source.  The kernels shard their source chunks over
    ``REPRO_KERNEL_WORKERS`` processes (default serial); the
    decomposition is bit-identical at any worker count.

    Each vertex ``v`` owns private streams ``v`` (phase 1) and
    ``n + v`` (phase 2) of ``LazyRngStreams(seed, 2n + 4)``; a
    sampling round draws the coins of all residual vertices in one
    :meth:`~repro.util.rng.LazyRngStreams.random` call, bit-identical
    to one ``Generator.random()`` per vertex, and compares them with
    the elementwise ``p_{v,i}`` of :class:`LddParams`.

    ``mpc`` switches to partitioned execution: the BFS-shaped steps
    (the ``n_v`` estimation and every carve gather) run over the ranks
    of :mod:`repro.mpc`, metering per-round communication — partitions
    are bit-identical to the single-box run at any rank count.  Pass
    an :class:`~repro.mpc.MpcConfig` (a run is started on
    ``graph.csr()``) or an already-started :class:`~repro.mpc.MpcRun`
    on the same graph (so the caller can read ``run.meter``
    afterwards); ``None`` (default) keeps the whole graph on one box.
    Phase 3 (Elkin–Neiman and the final components) stays
    coordinator-local — see ``src/repro/exp/README.md``.
    """
    n = graph.n
    require(
        weights is None or len(weights) == n, "need one weight per vertex"
    )
    require(
        mpc is None or isinstance(mpc, (MpcConfig, MpcRun)),
        "mpc must be an MpcConfig, an MpcRun or None",
    )
    mpc_run: Optional[MpcRun] = mpc
    if isinstance(mpc, MpcConfig):
        mpc_run = mpc.start(graph.csr()) if n else None
    ledger = RoundLedger()
    # Per-vertex private streams: stream v is bit-identical to the
    # eager ``spawn_rngs(seed, 2n+4)[v]``, but each sampling round draws
    # all its coins in one array call and phase 2 only derives the
    # residual streams it samples.
    rngs = LazyRngStreams(seed, 2 * n + 4)
    remaining: Set[int] = set(range(n))
    deleted: Set[int] = set()

    # -- Estimate n_v = |N^{4tR}(v)| (Algorithm 2, line 1). -------
    # The hot path.  Only unweighted local runs short-circuit saturated
    # balls: weighted sizes are float sums in sweep order, and the mpc
    # driver meters its sweep.
    estimates = np.zeros(n, dtype=np.float64)
    max_depth = 0
    with _obs.span("ldd.estimate_nv"):
        if mpc_run is not None:
            estimates, depths = mpc_run.all_ball_sizes(
                params.estimate_radius, weights=weights
            )
            max_depth = int(depths.max())
        elif n:
            if weights is None:
                estimates, max_depth = graph.csr().ball_size_estimate(
                    params.estimate_radius
                )
            else:
                estimates, depths = graph.csr().all_ball_sizes(
                    params.estimate_radius, weights=weights
                )
                max_depth = int(depths.max())
    # ``n_v`` as the integer part of the estimate, at least 1.
    n_v = np.maximum(1.0, np.trunc(estimates))
    ledger.charge("estimate-nv", params.estimate_radius, max_depth)

    # -- Phase 1: t sparsification iterations (Algorithm 2), then --
    # -- Phase 2: one boosted iteration (Algorithm 3). -------------
    # Phase 1 draws from stream v, phase 2 from stream n + v.
    rounds = [
        (
            f"phase1-iter{i}",
            params.interval(i),
            0,
            functools.partial(params.sampling_probability, i),
        )
        for i in range(1, params.t + 1)
    ]
    if not skip_phase2:
        rounds.append(
            ("phase2", params.phase2_interval(), n, params.phase2_probability)
        )

    def carve(seeds, interval, snapshot):
        return grow_and_carve(
            graph, seeds, interval, snapshot, weights=weights, mpc=mpc_run
        )

    for label, interval, stream, probability in rounds:
        with _obs.span("ldd.sample_centers"):
            # One coin per residual vertex, read in sorted id order:
            # iteration i takes the i-th draw of each surviving stream.
            residual = np.sort(
                np.fromiter(remaining, dtype=np.int64, count=len(remaining))
            )
            coins = rngs.random(stream + residual)
            hit = coins < probability(n_v[residual])
            centers = [{v} for v in residual[hit].tolist()]
        with _obs.span(f"ldd.carve.{label}"):
            outcome = carve_round(
                graph, centers, interval, remaining, deleted, ledger, label, carve
            )
        if trace is not None:
            trace.centers_per_iteration.append(outcome.executed)
            trace.deleted_per_iteration.append(len(outcome.deleted))
            trace.removed_per_iteration.append(len(outcome.removed))
        # The same totals flow into persisted rows whenever a collector
        # is installed, trace or not.
        _obs.count("ldd.carve.executed", outcome.executed)
        _obs.count("ldd.carve.deleted", len(outcome.deleted))
        _obs.count("ldd.carve.removed", len(outcome.removed))
    if trace is not None:
        trace.residual_after_phase2 = len(remaining)
    _obs.gauge("ldd.residual_after_phase2", len(remaining))

    # -- Phase 3: Elkin–Neiman on the residual graph. --------------
    # Coordinator-local under ``mpc`` too (the EN flood and the
    # components are not metered MPC rounds; see README).
    if remaining:
        with _obs.span("ldd.phase3_en"):
            en = elkin_neiman_ldd(
                graph,
                params.phase3_lambda,
                ntilde=params.ntilde,
                seed=rngs[2 * n],
                within=remaining,
            )
        deleted |= en.deleted
        ledger.merge(en.ledger, prefix="phase3-")
        if trace is not None:
            trace.phase3_deleted = len(en.deleted)
        _obs.count("ldd.phase3_deleted", len(en.deleted))

    with _obs.span("ldd.components"):
        clusters = [
            set(c)
            for c in graph.csr().connected_components(
                within=set(range(n)) - deleted
            )
        ]
    return Decomposition(
        clusters=clusters,
        deleted=deleted,
        centers=[None] * len(clusters),
        ledger=ledger,
    )


def low_diameter_decomposition(
    graph: Graph,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    profile: str = "practical",
    **profile_kwargs,
) -> Decomposition:
    """Convenience entry point: build params, run :func:`chang_li_ldd`.

    ``profile`` selects :meth:`LddParams.paper` or
    :meth:`LddParams.practical` (default; extra keyword arguments are
    forwarded to the profile constructor).
    """
    return chang_li_ldd(
        graph,
        profile_params(
            LddParams, profile, eps, ntilde, graph.n, **profile_kwargs
        ),
        seed=seed,
    )

