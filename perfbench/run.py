"""threshlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the named workload (convergence, concavity,
regression or cli) runs passes over its fixed item list, each in a seeded
order of its own, for S seconds and reports the end-to-end metrics.  With ``--trace 1`` the one
traced run covers every workload: for each, untraced and traced passes
alternate, and the per-layer metrics plus each workload's tracing overhead
are reported.  Every item's output is checked; the exit code is 1 when any
item failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, with the
environment, go to ``.perfbench/results/``; the traced run's spans go to
``.perfbench/spans-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("convergence", "concavity", "regression", "cli")


def cap_blas_threads() -> None:
    """Let BLAS use at most one thread per available core (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        wanted = int(value) if value.isdigit() and int(value) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))


def load_program() -> None:
    """Put the checkout's ``src/`` and this directory first on the path."""
    src = ROOT / "src"
    if not (src / "threshlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no threshlab sources under {src}")
    cap_blas_threads()
    sys.path[:0] = [str(src), str(HERE)]
    import threshlab

    if Path(threshlab.__file__).resolve().parent != src / "threshlab":
        raise SystemExit(f"error: threshlab was imported from {threshlab.__file__}")


def probe(workload: str, seed: int) -> None:
    """One set-up from process start: imports, inputs and the warm-up item.
    Prints the system-wide monotonic time at which it finished."""
    load_program()
    import bench

    if not bench.warm_up(workload, seed):
        sys.exit(1)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    load_program()
    import bench

    if args.trace:
        return bench.traced_run(args.seed, args.seconds)
    return bench.untraced_run(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
