#!/usr/bin/env python3
"""ngfermi benchmark: `ngfermi run` end to end, and a traced per-layer run.

    python3 benchmarks/run.py --workload hubbard-hitgd --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --quick

Run from the root of a source checkout; the program is imported from its
``src/``.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics, with ``--trace 1`` the per-layer metrics.
``--quick`` runs every workload once with a tiny budget, traced and
untraced, with all output checks.  The exit code is 0 only when every start
passed its checks.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKLOAD_NAMES = ("hubbard-hitgd", "dense-hitgd", "hubbard-gaussian")
# One BLAS thread: the matrices are at most 20 x 20, and one caller runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ngfermi" / "__init__.py").is_file():
        print(f"no ngfermi sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness  # noqa: E402  (needs the thread settings and the path above)

    names = list(WORKLOAD_NAMES) if args.quick else [args.workload]
    return harness.execute(
        names, args.seed, args.seconds, trace=args.quick or bool(args.trace),
        quick=args.quick, work=WORK,
    )


if __name__ == "__main__":
    sys.exit(main())
