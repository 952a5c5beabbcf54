"""Run one glab benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload class-balls --seed 1 --seconds 15 --trace 0

A run repeats whole rounds until ``--seconds`` have passed, and at least
one round.  A round builds the workload's groups and inputs afresh (the
set-up, timed on its own) and then runs every job of the workload in a
fixed order (the timed phase).  Every round of one run gets the same inputs,
from ``--seed``.  The outputs of every round must equal the first round's,
and those of the last round go through the workload's checks.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced round and prints the per-layer metrics of the traced
round with the median duration, together with that round's duration and
its overhead over the median untraced round.  The per-span table goes to
standard error.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("class-balls", "thick-search", "perm-sweep", "cli-tasks")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "glab", "__init__.py")):
        print(f"glab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness  # imports glab and numpy
    import_s = time.perf_counter() - T_START
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
