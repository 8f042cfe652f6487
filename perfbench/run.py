"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ldd-saturated --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (prefixed ``info:``) carries the machine facts and run context.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Serial kernels and single-threaded BLAS/OpenMP, set before numpy is
#: imported, so a 2-core box measures the program and not the scheduler.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "REPRO_KERNEL_WORKERS": "1",
}
#: Never inherited: tracing through ``repro.obs`` would time the
#: library's own spans, and a persistent artifact store would turn the
#: cold set-up build into a warm load on the next run.
CLEARED_ENV = ("REPRO_OBS", "REPRO_ARTIFACT_STORE")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    # Import from the checkout: the repository root (for ``perfbench``)
    # and ``src`` (for ``repro``) replace this script's own directory.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result, info = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
