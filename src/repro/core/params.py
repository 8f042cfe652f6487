"""Parameter profiles for the Chang–Li algorithms.

The paper fixes generous constants for proof convenience
(``R = ⌈200 t ln ñ / ε⌉``, ``16 ln ñ`` preparation decompositions, …).
At laptop scale those radii exceed every test graph's diameter, so every
ball covers the whole graph and the algorithms degenerate to a single
global solve.  Each parameter set therefore has two constructors:

* ``paper(eps, ntilde)`` — the exact constants from the paper; used by
  unit tests of the formulas and available for completeness;
* ``practical(eps, ntilde, ...)`` — shrinks the leading constants while
  preserving every structural relation the proofs rely on: interval
  disjointness (``a_{i-1} >= b_i + 1``), geometric sampling growth
  (``2^i``), the ``log ñ / ε`` scaling of ``R``, and the extra
  ``log(1/ε)`` (packing Phase 2) and ``log log n`` (covering Phase 1)
  factors that differentiate the three algorithms.

All interval arithmetic (Sections 3.1, 4.1, 5.1) lives here so the
algorithms consume ready-made ``[a_i, b_i]`` windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.util.validation import check_fraction, require

Interval = Tuple[int, int]


def _phase1_iterations(eps: float) -> int:
    """``t = ⌈log2(20/ε)⌉`` (Sections 3.1 and 4.1)."""
    return max(1, math.ceil(math.log2(20.0 / eps)))


def _covering_iterations(eps: float, ntilde: int, slack: int) -> int:
    """``t = ⌈log2 ln n + log2(1/ε) + slack⌉`` (Section 5.1; paper slack 8)."""
    return max(
        1,
        math.ceil(
            math.log2(max(math.log(ntilde), 2.0))
            + math.log2(1.0 / eps)
            + slack
        ),
    )


def _ball_sizes(n_v: ArrayLike) -> np.ndarray:
    """``n_v`` as float64, checked: every ball counts its own vertex."""
    n_v = np.asarray(n_v, dtype=np.float64)
    low = np.min(n_v, initial=np.inf)
    require(low >= 1, f"n_v must be >= 1, got {low}")
    return n_v


def profile_params(
    cls, profile: str, eps: float, ntilde: Optional[int], n: int, **kw
):
    """``cls.paper(eps, ñ)`` or ``cls.practical(eps, ñ, **kw)`` by name.

    ``ntilde`` defaults to ``max(n, 2)``; ``kw`` only reaches the
    practical profile.  Any other ``profile`` raises ``ValueError``.
    """
    require(
        profile in ("paper", "practical"), f"unknown profile {profile!r}"
    )
    ntilde = ntilde if ntilde is not None else max(n, 2)
    if profile == "practical":
        return cls.practical(eps, ntilde, **kw)
    return cls.paper(eps, ntilde)


@dataclass(frozen=True)
class LddParams:
    """Parameters of the Theorem 1.1 decomposition (Section 3.1)."""

    eps: float
    ntilde: int
    t: int
    interval_length: int  # R
    phase2_boost: float  # extra ln(20/ε) factor in Phase 2 sampling
    phase3_lambda: float  # EN parameter for Phase 3 (paper: ε/10)
    estimate_radius: int  # radius for the n_v estimate (paper: 4tR)

    @classmethod
    def paper(cls, eps: float, ntilde: int) -> "LddParams":
        check_fraction("eps", eps)
        require(ntilde >= 2, f"ntilde must be >= 2, got {ntilde}")
        t = _phase1_iterations(eps)
        r = math.ceil(200.0 * t * math.log(ntilde) / eps)
        return cls(
            eps=eps,
            ntilde=ntilde,
            t=t,
            interval_length=r,
            phase2_boost=math.log(20.0 / eps),
            phase3_lambda=eps / 10.0,
            estimate_radius=4 * t * r,
        )

    @classmethod
    def practical(
        cls,
        eps: float,
        ntilde: int,
        r_scale: float = 1.0,
        t_cap: int = 4,
    ) -> "LddParams":
        """Scaled-down constants preserving all structural relations.

        ``R = max(2, ⌈r_scale · ln ñ / ε⌉)`` keeps the log n/ε scaling;
        ``t`` keeps its ``log(1/ε)`` form but is capped (each iteration
        costs a full interval of rounds and the geometric sparsification
        converges in very few iterations at these sizes).
        """
        check_fraction("eps", eps)
        require(ntilde >= 2, f"ntilde must be >= 2, got {ntilde}")
        t = min(t_cap, _phase1_iterations(eps))
        r = max(2, math.ceil(r_scale * math.log(ntilde) / eps))
        return cls(
            eps=eps,
            ntilde=ntilde,
            t=t,
            interval_length=r,
            phase2_boost=math.log(20.0 / eps),
            phase3_lambda=eps / 10.0,
            estimate_radius=4 * t * r,
        )

    # -- interval layout (Section 3.1): [R+1, (t+2)R] split into t+1
    #    length-R windows, consumed from the outside in so that
    #    a_{i-1} >= b_i (the disjointness Lemma 3.3 needs). -----------
    def interval(self, i: int) -> Interval:
        """``I_i = [(t-i+2)R + 1, (t-i+3)R]`` for ``1 <= i <= t``."""
        require(1 <= i <= self.t, f"iteration {i} outside [1, {self.t}]")
        r = self.interval_length
        return ((self.t - i + 2) * r + 1, (self.t - i + 3) * r)

    def phase2_interval(self) -> Interval:
        """``I_{t+1} = [R + 1, 2R]``."""
        r = self.interval_length
        return (r + 1, 2 * r)

    def intervals(self) -> List[Interval]:
        return [self.interval(i) for i in range(1, self.t + 1)]

    def sampling_probability(self, i: int, n_v: ArrayLike) -> np.ndarray:
        """``p_{v,i} = 2^i · ln ñ / n_v`` (capped at 1), elementwise."""
        p = (2.0 ** i) * math.log(self.ntilde) / _ball_sizes(n_v)
        return np.minimum(1.0, p)

    def phase2_probability(self, n_v: ArrayLike) -> np.ndarray:
        """``p_{v,t+1} = 2^{t+1} · ln ñ · ln(20/ε) / n_v`` (capped),
        elementwise."""
        p = (
            (2.0 ** (self.t + 1))
            * math.log(self.ntilde)
            * self.phase2_boost
            / _ball_sizes(n_v)
        )
        return np.minimum(1.0, p)

    def nominal_rounds(self) -> int:
        """Round-complexity formula ``O(t²R)`` term by term."""
        total = self.estimate_radius
        for i in range(1, self.t + 1):
            total += 2 * self.interval(i)[1]
        total += 2 * self.phase2_interval()[1]
        total += math.ceil(4.0 * math.log(self.ntilde) / self.phase3_lambda)
        return total


@dataclass(frozen=True)
class PackingParams:
    """Parameters of the Theorem 1.2 packing algorithm (Section 4.1)."""

    eps: float
    ntilde: int
    t: int
    base_length: int  # R
    prep_count: int  # number of preparation decompositions (16 ln ñ)
    prep_lambda: float  # EN parameter for the preparation (1/2)
    cluster_radius: int  # S_C = N^{8tR}(C)
    phase2_boost: float  # ln(20/ε)
    phase3_lambda: float  # ε/10

    @property
    def r_prime(self) -> int:
        """``R' = R + 1`` — the carving buffer (Section 4.1)."""
        return self.base_length + 1

    @classmethod
    def paper(cls, eps: float, ntilde: int) -> "PackingParams":
        check_fraction("eps", eps)
        t = _phase1_iterations(eps)
        r = math.ceil(200.0 * t * math.log(ntilde) / eps)
        return cls(
            eps=eps,
            ntilde=ntilde,
            t=t,
            base_length=r,
            prep_count=math.ceil(16.0 * math.log(ntilde)),
            prep_lambda=0.5,
            cluster_radius=8 * t * r,
            phase2_boost=math.log(20.0 / eps),
            phase3_lambda=eps / 10.0,
        )

    @classmethod
    def practical(
        cls,
        eps: float,
        ntilde: int,
        r_scale: float = 0.5,
        t_cap: int = 3,
        prep_factor: float = 4.0,
    ) -> "PackingParams":
        check_fraction("eps", eps)
        t = min(t_cap, _phase1_iterations(eps))
        r = max(1, math.ceil(r_scale * math.log(ntilde) / eps))
        return cls(
            eps=eps,
            ntilde=ntilde,
            t=t,
            base_length=r,
            prep_count=max(2, math.ceil(prep_factor * math.log(ntilde))),
            prep_lambda=0.5,
            cluster_radius=8 * t * r,
            phase2_boost=math.log(20.0 / eps),
            phase3_lambda=eps / 10.0,
        )

    # -- interval layout (Section 4.1): [3R'+1, 3(t+2)R'] split into
    #    t+1 length-3R' windows; every a_i ≡ 1 (mod 3). ---------------
    def interval(self, i: int) -> Interval:
        require(1 <= i <= self.t, f"iteration {i} outside [1, {self.t}]")
        rp = self.r_prime
        return ((self.t - i + 2) * 3 * rp + 1, (self.t - i + 3) * 3 * rp)

    def phase2_interval(self) -> Interval:
        rp = self.r_prime
        return (3 * rp + 1, 6 * rp)

    def sampling_probability(self, i: int, w_c: float, w_sc: float) -> float:
        """``p_{C,i} = 2^i · W(P^local_C, C) / W(P^local_{S_C}, S_C)``."""
        if w_sc <= 0:
            return 0.0
        return min(1.0, (2.0 ** i) * w_c / w_sc)

    def phase2_probability(self, w_c: float, w_sc: float) -> float:
        if w_sc <= 0:
            return 0.0
        return min(1.0, (2.0 ** (self.t + 1)) * self.phase2_boost * w_c / w_sc)


@dataclass(frozen=True)
class CoveringParams:
    """Parameters of the Theorem 1.3 covering algorithm (Section 5.1)."""

    eps: float
    ntilde: int
    t: int
    base_length: int  # R
    prep_count: int  # 16 ln ñ sparse covers
    prep_lambda: float  # ln(21/20): multiplicity E ≤ 1.05
    cluster_radius: int  # S_C = N^{8tR}(C)
    final_lambda: float  # ln(1 + ε/5): Phase-2 sparse cover

    @classmethod
    def paper(cls, eps: float, ntilde: int) -> "CoveringParams":
        check_fraction("eps", eps)
        t = _covering_iterations(eps, ntilde, slack=8)
        r = math.ceil(200.0 * t * math.log(ntilde) / eps)
        return cls(
            eps=eps,
            ntilde=ntilde,
            t=t,
            base_length=r,
            prep_count=math.ceil(16.0 * math.log(ntilde)),
            prep_lambda=math.log(21.0 / 20.0),
            cluster_radius=8 * t * r,
            final_lambda=math.log(1.0 + eps / 5.0),
        )

    @classmethod
    def practical(
        cls,
        eps: float,
        ntilde: int,
        r_scale: float = 0.5,
        t_cap: int = 3,
        prep_factor: float = 4.0,
    ) -> "CoveringParams":
        check_fraction("eps", eps)
        t = min(t_cap, _covering_iterations(eps, ntilde, slack=0))
        r = max(1, math.ceil(r_scale * math.log(ntilde) / eps))
        return cls(
            eps=eps,
            ntilde=ntilde,
            t=t,
            base_length=r,
            prep_count=max(2, math.ceil(prep_factor * math.log(ntilde))),
            prep_lambda=math.log(21.0 / 20.0),
            cluster_radius=8 * t * r,
            final_lambda=math.log(1.0 + eps / 5.0),
        )

    # -- interval layout (Section 5.1): [2R+1, 2(t+1)R] split into t
    #    length-2R windows. --------------------------------------------
    def interval(self, i: int) -> Interval:
        require(1 <= i <= self.t, f"iteration {i} outside [1, {self.t}]")
        r = self.base_length
        return ((self.t - i + 1) * 2 * r + 1, (self.t - i + 2) * 2 * r)

    def sampling_probability(self, i: int, w_c: float, w_sc: float) -> float:
        """``p_{C,i} = 2^i · W(Q^local_C, C) / W(Q^local_{S_C}, S_C)``."""
        if w_sc <= 0:
            return 0.0
        return min(1.0, (2.0 ** i) * w_c / w_sc)
