"""Spans around the public functions of each imae module, recorded from outside.

A traced CLI call opens a root span ``cli.main``; every wrapped function
called inside it records ``[name, start, end, parent span, op id]``. Spans
stay in memory and are written out when the run ends. Each function is
wrapped at the attribute its caller resolves: modules that import a function
by name (``from .data import corrupt``) get their own wrapper, modules that
call ``nn.forward`` through the module get the module attribute wrapped.

Untraced cycles run with every wrapper removed, so they pay nothing.
"""

import collections
import functools
import importlib
import os
import statistics
import time
import tracemalloc

import numpy as np

# (module, attribute, span name); the attribute each caller resolves
WRAP_POINTS = (
    ("imae.cli", "load_idx", "data.load_idx"),
    ("imae.training", "train", "training.train"),
    ("imae.training", "save_checkpoint", "training.save_checkpoint"),
    ("imae.training", "load_checkpoint", "training.load_checkpoint"),
    ("imae.training", "corrupt", "data.corrupt"),
    ("imae.evaluation", "corrupt", "data.corrupt"),
    ("imae.evaluation", "sample_subset", "evaluation.sample_subset"),
    ("imae.evaluation", "kmeans", "evaluation.kmeans"),
    ("imae.evaluation", "rand_index", "evaluation.rand_index"),
    ("imae.evaluation", "sigma_prime", "evaluation.sigma_prime"),
    ("imae.evaluation", "cluster_eval", "evaluation.cluster_eval"),
    ("imae.evaluation", "robustness_sweep", "evaluation.robustness_sweep"),
    ("imae.data", "gaussian", "ndcore.gaussian"),
    ("imae.data", "bernoulli_mask", "ndcore.bernoulli_mask"),
    ("imae.nn", "forward", "nn.forward"),
    ("imae.nn", "backward", "nn.backward"),
    ("imae.nn", "encode", "nn.encode"),
    ("imae.objectives", "total_loss", "objectives.total_loss"),
    ("imae.objectives", "reconstruction_l2", "objectives.reconstruction_l2"),
)
# generator wrapped to count the batches it yields (one SGD step each)
BATCHES_POINT = ("imae.training", "batches")

TRAIN = frozenset({"train-shallow200", "train-deep10"})
EVAL = frozenset({"eval-shallow200"})
ALL = TRAIN | EVAL
# span or count -> workloads on which a traced run must see it fire
REQUIRED = {
    "cli.main": ALL,
    "data.load_idx": ALL,
    "nn.forward": ALL,
    "objectives.reconstruction_l2": ALL,
    "nn.backward": TRAIN,
    "objectives.total_loss": TRAIN,
    "training.train": TRAIN,
    "training.save_checkpoint": TRAIN,
    "training.steps": TRAIN,
    "data.corrupt": EVAL | {"train-shallow200"},
    "ndcore.gaussian": EVAL | {"train-shallow200"},
    "ndcore.bernoulli_mask": EVAL | {"train-shallow200"},
    "nn.encode": EVAL,
    "training.load_checkpoint": EVAL,
    "evaluation.cluster_eval": EVAL,
    "evaluation.kmeans": EVAL,
    "evaluation.rand_index": EVAL,
    "evaluation.sample_subset": EVAL,
    "evaluation.sigma_prime": EVAL,
    "evaluation.robustness_sweep": EVAL,
}

# per-layer metric -> unit, in report order
LAYER_UNITS = {
    "cli.self_s": "s/cycle",
    "data.load_idx_s": "s/cycle",
    "data.load_idx_calls": "calls/cycle",
    "data.corrupt_s": "s/cycle",
    "data.corrupt_calls": "calls/cycle",
    "ndcore.gaussian_s": "s/cycle",
    "ndcore.bernoulli_mask_s": "s/cycle",
    "nn.forward_s": "s/cycle",
    "nn.forward_calls": "calls/cycle",
    "nn.backward_s": "s/cycle",
    "nn.backward_calls": "calls/cycle",
    "nn.encode_s": "s/cycle",
    "nn.encode_calls": "calls/cycle",
    "nn.gemm_floor_s": "s/cycle",
    "nn.gemm_flops": "flop/cycle",
    "nn.floor_ratio": "ratio",
    "objectives.total_loss_s": "s/cycle",
    "objectives.reconstruction_l2_s": "s/cycle",
    "training.train_s": "s/cycle",
    "training.self_s": "s/cycle",
    "training.steps": "steps/cycle",
    "training.save_checkpoint_s": "s/cycle",
    "training.load_checkpoint_s": "s/cycle",
    "training.checkpoint_bytes": "B",
    "evaluation.kmeans_s": "s/cycle",
    "evaluation.kmeans_calls": "calls/cycle",
    "evaluation.kmeans_lloyd_iters": "iters/cycle",
    "evaluation.rand_index_s": "s/cycle",
    "evaluation.sample_subset_s": "s/cycle",
    "evaluation.sigma_prime_s": "s/cycle",
    "evaluation.robustness_sweep_s": "s/cycle",
    "evaluation.robustness_sweep.self_s": "s/cycle",
    "evaluation.robustness_sweep_peak_mb": "MB",
    "trace.overhead_pct": "%",
}


class CoverageError(RuntimeError):
    """A span that the workload must exercise never fired."""


def forward_gemms(net, rows):
    """(m, k, n) of each product in ``nn.forward``: every layer and head."""
    layers = list(net.layers) + list(net.vae_heads or ())
    return [(rows, w.weights.shape[1], w.weights.shape[0]) for w in layers]


def backward_gemms(net, rows):
    """(m, k, n) of the products one backward pass needs: each weight
    gradient, and the input gradient of every layer but the first."""
    shapes = []
    for k, layer in enumerate(net.layers):
        out_dim, in_dim = layer.weights.shape
        shapes.append((out_dim, rows, in_dim))
        if k > 0:
            shapes.append((rows, out_dim, in_dim))
    for head in net.vae_heads or ():
        out_dim, in_dim = head.weights.shape
        shapes += [(out_dim, rows, in_dim), (rows, out_dim, in_dim)]
    return shapes


def gemm_floor(shape_counts, reps=5):
    """Seconds and flops of bare ``a @ b`` products, one per recorded GEMM.

    Each distinct shape is timed on random contiguous operands (median of
    ``reps`` after one warm-up) in this process, at its BLAS thread count.
    """
    rng = np.random.default_rng(0)
    seconds = flops = 0.0
    for (m, k, n), count in shape_counts.items():
        a, b = rng.random((m, k)), rng.random((k, n))
        a @ b
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            a @ b
            times.append(time.perf_counter() - t0)
        seconds += statistics.median(times) * count
        flops += 2.0 * m * k * n * count
    return seconds, flops


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = collections.Counter()
        self.gemms = collections.Counter()
        self.sweep_peak_bytes = 0
        self._stack = []
        self._op = None
        self._saved = []

    # --- recording ---

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def call_op(self, op_id, fn, *args):
        """Run one CLI call under a root span ``cli.main``."""
        self._op = op_id
        record = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(record)
            self._op = None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            self._after(name, args, result)
            return result
        return wrapper

    def _after(self, name, args, result):
        if name == "nn.forward":
            self.gemms.update(forward_gemms(args[0], len(args[1])))
        elif name == "nn.backward":
            self.gemms.update(backward_gemms(args[0], len(args[3])))
        elif name == "evaluation.kmeans":
            self.counts["evaluation.kmeans_lloyd_iters"] += result.n_iter
        elif name == "training.save_checkpoint":
            self.counts["training.checkpoint_bytes"] += os.path.getsize(args[2])
            self.counts["training.checkpoints"] += 1

    def _wrap_sweep(self, fn):
        """Peak of numpy allocations during the sweep, outside its span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.sweep_peak_bytes = max(self.sweep_peak_bytes, peak)
        return wrapper

    def _wrap_batches(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for batch in fn(*args, **kwargs):
                if self._op is not None:
                    self.counts["training.steps"] += 1
                yield batch
        return wrapper

    # --- installing ---

    def install(self):
        """Replace every wrap point; a missing one raises CoverageError."""
        for module_name, attr, span in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = self._resolve(module, attr)
            wrapped = self._wrap(span, original)
            if span == "evaluation.robustness_sweep":
                wrapped = self._wrap_sweep(wrapped)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)
        module = importlib.import_module(BATCHES_POINT[0])
        original = self._resolve(module, BATCHES_POINT[1])
        self._saved.append((module, BATCHES_POINT[1], original))
        setattr(module, BATCHES_POINT[1], self._wrap_batches(original))

    @staticmethod
    def _resolve(module, attr):
        if not callable(getattr(module, attr, None)):
            raise CoverageError(f"{module.__name__}.{attr} is gone; was it renamed in src/?")
        return getattr(module, attr)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    # --- reading ---

    def totals(self):
        """Calls, total seconds and self seconds, each keyed by span name."""
        child = collections.defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = collections.Counter()
        total = collections.defaultdict(float)
        own = collections.defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own

    def check_coverage(self, workload):
        calls, _, _ = self.totals()
        fired = dict(calls)
        fired["training.steps"] = self.counts["training.steps"]
        missing = sorted(name for name, workloads in REQUIRED.items()
                         if workload in workloads and not fired.get(name))
        if missing:
            raise CoverageError(
                f"spans that never fired on {workload}: {', '.join(missing)}; "
                "was a wrapped function renamed or re-imported in src/?")

    def layer_metrics(self, cycles, overhead_pct):
        """Per-layer numbers per traced cycle; runs the GEMM-floor probe."""
        calls, total, own = self.totals()
        floor_s, flops = gemm_floor(self.gemms)
        saves = self.counts["training.checkpoints"]
        fwd_bwd = total["nn.forward"] + total["nn.backward"]
        m = {
            "cli.self_s": own["cli.main"],
            "data.load_idx_s": total["data.load_idx"],
            "data.load_idx_calls": calls["data.load_idx"],
            "data.corrupt_s": total["data.corrupt"],
            "data.corrupt_calls": calls["data.corrupt"],
            "ndcore.gaussian_s": total["ndcore.gaussian"],
            "ndcore.bernoulli_mask_s": total["ndcore.bernoulli_mask"],
            "nn.forward_s": total["nn.forward"],
            "nn.forward_calls": calls["nn.forward"],
            "nn.backward_s": total["nn.backward"],
            "nn.backward_calls": calls["nn.backward"],
            "nn.encode_s": total["nn.encode"],
            "nn.encode_calls": calls["nn.encode"],
            "nn.gemm_floor_s": floor_s,
            "nn.gemm_flops": flops,
            "objectives.total_loss_s": total["objectives.total_loss"],
            "objectives.reconstruction_l2_s": total["objectives.reconstruction_l2"],
            "training.train_s": total["training.train"],
            "training.self_s": own["training.train"],
            "training.steps": self.counts["training.steps"],
            "training.save_checkpoint_s": total["training.save_checkpoint"],
            "training.load_checkpoint_s": total["training.load_checkpoint"],
            "evaluation.kmeans_s": total["evaluation.kmeans"],
            "evaluation.kmeans_calls": calls["evaluation.kmeans"],
            "evaluation.kmeans_lloyd_iters": self.counts["evaluation.kmeans_lloyd_iters"],
            "evaluation.rand_index_s": total["evaluation.rand_index"],
            "evaluation.sample_subset_s": total["evaluation.sample_subset"],
            "evaluation.sigma_prime_s": total["evaluation.sigma_prime"],
            "evaluation.robustness_sweep_s": total["evaluation.robustness_sweep"],
            "evaluation.robustness_sweep.self_s": own["evaluation.robustness_sweep"],
        }
        m = {name: value / cycles for name, value in m.items()}
        m["nn.floor_ratio"] = fwd_bwd / floor_s if floor_s else 0.0
        m["training.checkpoint_bytes"] = (
            self.counts["training.checkpoint_bytes"] / saves if saves else 0)
        m["evaluation.robustness_sweep_peak_mb"] = self.sweep_peak_bytes / 2 ** 20
        m["trace.overhead_pct"] = overhead_pct
        return {name: m[name] for name in LAYER_UNITS}
