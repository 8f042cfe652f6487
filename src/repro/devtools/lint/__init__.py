"""repro-lint: AST-based invariant checks for this repository.

The runtime property suites verify the headline reproducibility
contract — bit-identical LDD/carve/GKM outputs at any worker count and
CSR kernels equal to their :class:`~repro.graphs.graph.Graph` reference
— but only for the code paths they happen to execute.  This linter checks the *source* for the idioms
that keep the contract true everywhere:

* **RPL0xx determinism** — no unseeded or global-state randomness in
  the algorithm packages; every generator derives from an explicit
  seed/:class:`~numpy.random.SeedSequence` parameter.
* **RPL1xx shared memory** — every ``SharedMemory`` creation sits on a
  ``with``/``try``-cleanup path so segments cannot leak.
* **RPL3xx ordered iteration** — unordered ``set``/``dict.keys()``
  iteration must not feed order-sensitive returned structures.
* **RPL4xx observability boundary** — no direct wall-clock reads in
  the algorithm packages; timing routes through :mod:`repro.obs`
  spans/counters (no-ops when tracing is off).

Run as ``python -m repro.devtools.lint [paths]``; see
``src/repro/devtools/README.md`` for the rule catalogue and the
``# repro-lint: disable=RPLxxx`` suppression syntax.
"""

from repro.devtools.lint.engine import (
    FileContext,
    Rule,
    Violation,
    all_rules,
    lint_paths,
    lint_sources,
    register,
)

__all__ = [
    "FileContext",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
    "lint_sources",
    "register",
]
