"""One benchmark run: set-up, the timed cycles, the probes and the report.

Imported by ``run.py`` after it has pinned the BLAS thread count, so that
numpy starts with the pinned value.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy
import scipy

import synth
import tracing
import workloads
from imae import cli, data, training

SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB"}
RATE_NAMES = {"train": ("train_samples_per_s", "samples/s"),
              "cluster": ("cluster_iters_per_s", "iters/s"),
              "robustness": ("robust_images_per_s", "images/s")}


def git_commit(root):
    """HEAD of the measured tree, read from .git without running git."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest(src):
    """sha256 over the package sources; it names the tree where git cannot."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root, seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(root),
        "src_sha256": src_digest(root / "src"),
    }


def call_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Bench:
    def __init__(self, args, work):
        self.args = args
        self.data_dir = work / "data"
        self.runs_dir = work / "runs"
        self.checkpoint_dir = work / "checkpoint"
        self.workload = workloads.build(args.workload, self.checkpoint_dir / "model.ckpt")
        self.tracer = tracing.Tracer() if args.trace else None
        self.mask0_reference = None
        self.records = []   # (traced, op, wall seconds, problem or None)
        self.cycles = []    # (traced, wall seconds of the cycle's calls)

    def set_up(self):
        """Data generation, IDX writing and, for eval, the checkpoint.
        Returns the test images."""
        n_train = workloads.TRAIN_IMAGES
        images, labels = synth.synthetic_digits(n_train + workloads.TEST_IMAGES, self.args.seed)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        for split, rows in (("train", slice(None, n_train)), ("test", slice(n_train, None))):
            data.write_idx_images(
                self.data_dir / data.CANONICAL_FILES[f"{split}_images"], images[rows])
            data.write_idx_labels(
                self.data_dir / data.CANONICAL_FILES[f"{split}_labels"], labels[rows])
        if self.workload.needs_checkpoint:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
            rc = call_cli(workloads.checkpoint_argv()
                          + ["--data-dir", str(self.data_dir), "--out", str(self.checkpoint_dir)])
            problem = f"exit code {rc}" if rc != 0 else workloads.check_train(self.checkpoint_dir)
            if problem:
                raise RuntimeError(f"set-up checkpoint: {problem}")
        return images[n_train:]

    def run_op(self, op, op_id=None, traced=False):
        """One CLI call and its checks: (wall seconds, problem or None)."""
        out = self.runs_dir / op.label.replace(" ", "_")
        shutil.rmtree(out, ignore_errors=True)
        argv = op.argv + ["--data-dir", str(self.data_dir), "--out", str(out)]
        t0 = time.perf_counter()
        try:
            if traced:
                rc = self.tracer.call_op(op_id, call_cli, argv)
            else:
                rc = call_cli(argv)
        except Exception:  # a crash is a failed call; the run goes on
            traceback.print_exc()
            rc = "an exception"
        wall = time.perf_counter() - t0
        if rc != 0:
            return wall, f"exit code {rc}"
        return wall, workloads.check(op, out, self.mask0_reference)

    def measure(self):
        """Whole cycles until the time is up. A traced run alternates untraced
        and traced cycles and runs at least one of each."""
        trace = self.tracer is not None
        t0 = time.perf_counter()
        while True:
            cycle = len(self.cycles)
            traced = trace and cycle % 2 == 1
            if traced:
                self.tracer.install()
            total = 0.0
            for op in self.workload.cycle:
                wall, problem = self.run_op(op, len(self.records), traced)
                total += wall
                self.records.append((traced, op, wall, problem))
                if problem:
                    print(f"FAILED {op.label} (cycle {cycle}): {problem}")
            if traced:
                self.tracer.uninstall()
            self.cycles.append((traced, total))
            if time.perf_counter() - t0 >= self.args.seconds and (not trace or cycle >= 1):
                return

    def run_probes(self):
        """Known defects: each runs once, untimed and untraced."""
        lines = []
        for op in self.workload.probes:
            _, problem = self.run_op(op)
            lines.append(f"{op.label}: " + (f"still failing ({problem})" if problem
                                            else "now passes; add it to the measured cycle"))
        return lines

    def rates(self):
        """Work per second by kind over the untraced calls that passed."""
        work, wall = {}, {}
        for traced, op, seconds, problem in self.records:
            if not (traced or problem):
                work[op.kind] = work.get(op.kind, 0) + op.work
                wall[op.kind] = wall.get(op.kind, 0.0) + seconds
        return {name: (work[kind] / wall[kind] if kind in work else None, unit)
                for kind, (name, unit) in RATE_NAMES.items()}


def run(args, root, import_s):
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(args, work)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            test_images = bench.set_up()
            setup_times.append(time.perf_counter() - t0)
        if bench.workload.needs_checkpoint:
            net, _ = training.load_checkpoint(bench.checkpoint_dir / "model.ckpt")
            bench.mask0_reference = workloads.reference_l2(net, test_images)
        del test_images
        bench.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = bench.run_probes()
        if bench.tracer is not None:
            bench.tracer.check_coverage(args.workload)
    except RuntimeError as e:  # a broken set-up, or a span that never fired
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = import_s + statistics.median(setup_times)
    attempted = len(bench.records)
    failed = sum(1 for record in bench.records if record[3])
    untraced = [wall for traced, wall in bench.cycles if not traced]
    cycle_s = statistics.median(untraced)
    rates = bench.rates()
    env = environment(root, args.seed)

    print(f"perfbench {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup_s      {setup_s:.4f} s  (imports {import_s:.3f} s + median of "
          f"{SETUP_REPEATS} set-ups: {', '.join(f'{t:.3f}' for t in setup_times)} s)")
    print(f"cycle_s      {cycle_s:.4f} s  (median of {len(untraced)} untraced cycles; one cycle: "
          f"{', '.join(op.label for op in bench.workload.cycle)})")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    for name, (value, unit) in rates.items():
        print(f"{name:20s} " + ("n/a on this workload" if value is None
                                 else f"{value:.2f} {unit}"))
    print(f"fail_share   {failed}/{attempted} CLI calls = {failed / attempted:.3f}")
    for line in probes:
        print(f"known-defect probe  {line}")

    if bench.tracer is not None:
        traced = [wall for is_traced, wall in bench.cycles if is_traced]
        warm = untraced[1:] or untraced  # the first cycle runs cold
        overhead_pct = 100.0 * (statistics.median(traced) / statistics.median(warm) - 1.0)
        layer = bench.tracer.layer_metrics(len(traced), overhead_pct)
        print(f"tracing overhead {overhead_pct:+.1f} %  (median traced cycle "
              f"{statistics.median(traced):.4f} s over {len(traced)}, untraced "
              f"{statistics.median(warm):.4f} s over {len(warm)} after the first; "
              f"{len(bench.tracer.spans)} spans)")
        for name, value in layer.items():
            print(f"  {name:38s} {value:14.6g} {tracing.LAYER_UNITS[name]}")
        metrics = {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
                   for name, value in layer.items()}
    else:
        values = {"setup_s": setup_s, "cycle_s": cycle_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"result": result, "env": env, "probes": probes,
              "rates": {name: value for name, (value, _) in rates.items()},
              "import_s": import_s, "setup_times": setup_times, "cycles": bench.cycles,
              "calls": [(op.label, traced, wall, problem)
                        for traced, op, wall, problem in bench.records]}
    if bench.tracer is not None:
        record["spans"] = bench.tracer.spans
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"wrote {path.relative_to(root)}")
    print(json.dumps(result))
    return 0
