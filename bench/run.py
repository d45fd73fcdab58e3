"""surfhodge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; surfhodge is imported from its
`src/`.  BLAS is pinned to one thread before numpy loads.  The last stdout
line is the result object (`correct`, `attempted`, `failed`, `metrics`):
the end-to-end metrics of BENCHMARK.json with `--trace 0`, the per-layer
metrics with `--trace 1`.  End-to-end times are scaled to a reference host
speed by probes that run between the program's operations (`speed.py`).  The line before it holds the details: machine
block, exact counts, invariant values and gate violations.  A traced run
also writes its spans to `.bench_out/trace-<workload>-<seed>.jsonl`.
"""

import argparse
import json
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "surfhodge", "__init__.py")):
        print(f"error: no surfhodge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{sorted(workloads.WORKLOADS)}")
    trace_path = None
    if args.trace:
        trace_path = os.path.join(ROOT, ".bench_out",
                                  f"trace-{args.workload}-{args.seed}.jsonl")
    result, details = workloads.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), trace_path=trace_path)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
