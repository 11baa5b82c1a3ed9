"""trackgraph benchmark: online tracking at two graph densities plus unrolled
training, timed end to end and, in a separate traced run, per layer.

Run from the root of a checkout (the sources are imported from ./src):

    python3 perfbench/run.py --workload track-sparse --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json lists them with the reason for each):
  track-sparse   many short crossing worlds, about 6 tracks x 6 detections
  track-crowded  a few long 20-object worlds at the 16-detection cap
  train          learn.train continuing from the checkpoint, batch 2, T=10

Every workload runs the same three phases, with the time split toward its
own: `track` (closed loop, one caller, frames fed to trackman.step one at a
time, covering JSONL load, step and tracks_to_json), `eval` (one
evalkit.evaluate per sequence of the first pass over the worlds, then one
pooled report for the association accuracy) and `train` (one-iteration
learn.train calls, each from the checkpoint).  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics, derived from spans recorded around the calls
into each layer.  Details, stamps and the span file go to .bench_out/.

--smoke runs a tiny configuration (schema and no-crash check, no timing
meaning); perfbench/test_smoke.py runs it.

BLAS and the trackgraph evaluation pool are pinned to one thread before numpy
is imported.  Exit codes: 0 run completed (the result says whether outputs
were correct), 1 set-up failed, 2 no sources or bad arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "TRACKGRAPH_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=_positive, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny schema-only configuration")
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "trackgraph" / "__init__.py").is_file():
        print(f"perfbench: no trackgraph sources under {src}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # imports numpy, so only after the thread pinning above

    return bench.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
