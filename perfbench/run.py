"""Benchmark of the imae command line: training and evaluation throughput.

Run from the repository root:

    python3 perfbench/run.py --workload train-shallow200 --seed 1 --seconds 25 --trace 0

Workloads: train-shallow200, train-deep10, eval-shallow200. The run builds
MNIST-shaped synthetic IDX files from ``--seed``, then drives
``imae.cli.main(["train" | "eval", ...])`` in this process, one cycle of the
workload's CLI calls after another, until ``--seconds`` have passed, and
checks every call's outputs. The last line of standard output is one JSON
object with ``correct``, ``attempted`` and ``failed`` (counting CLI calls)
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The lines before it print the
same metrics with their units, the per-kind rates, the failure share with its
base, the known-defect probes and the environment. A JSON record of the run,
with the spans of a traced run, is written to ``.perfbench_out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_THREADS = 2
WORKLOADS = ("train-shallow200", "train-deep10", "eval-shallow200")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_threads():
    """Pin the BLAS thread count before numpy loads. It is part of a result's
    identity: checkpoints differ between 1 and 2 threads."""
    n = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    os.environ["OPENBLAS_NUM_THREADS"] = n
    os.environ["OMP_NUM_THREADS"] = n


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "imae" / "__init__.py").is_file():
        print(f"error: no imae package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import harness  # numpy, scipy and imae load here, after the pin
    return harness.run(args, ROOT, import_s=time.perf_counter() - T_START)


if __name__ == "__main__":
    sys.exit(main())
