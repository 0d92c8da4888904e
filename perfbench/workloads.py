"""The benchmark's workloads: which CLI calls make one cycle, and the checks
that any correct program passes on their outputs.

Every call uses the preset defaults (batch 500, preset learning rate, 10 000
training images, 10 000 test images, 28x28, 10 classes). Checks never compare
against numbers of a particular commit, so a fix that changes the trained
values is not counted as a failure.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRAIN_IMAGES = 10_000
TEST_IMAGES = 10_000
EPOCHS = 2              # the fewest that let a check see the loss fall
CLUSTER_ITERATIONS = 10
ROBUSTNESS_SPECS = 8    # the CLI's default table-1 grid: 4 mask + 4 gaussian
CHECKPOINT_EPOCHS = 3   # the eval workload's shallow200 AE, trained in set-up


@dataclass
class Op:
    """One CLI call: its arguments (without --data-dir/--out), the kind of
    work it does and how much, for the per-kind rates."""
    label: str
    argv: list
    kind: str           # "train", "cluster" or "robustness"
    work: int           # samples (epochs x images), iterations, or images x specs


@dataclass
class Workload:
    cycle: list                     # the calls of one measured cycle
    probes: list = field(default_factory=list)  # known defects, run once, untimed
    needs_checkpoint: bool = False


def train_op(variant, preset="shallow200", noise_kind=None):
    argv = ["train", "--set", f"model.variant={variant}", "--set", f"model.preset={preset}",
            "--set", f"train.epochs={EPOCHS}"]
    tag = variant
    if preset == "deep":
        argv += ["--nh", "10"]
    if noise_kind is not None:
        argv += ["--set", f"model.noise_kind={noise_kind}", "--set", "model.noise_level=0.3"]
        tag = "DAE-b" if noise_kind == "mask" else "DAE-g"
    size = "deep10" if preset == "deep" else preset
    return Op(f"train {tag} {size}", argv, "train", EPOCHS * TRAIN_IMAGES)


def checkpoint_argv():
    return ["train", "--set", "model.variant=AE", "--set", "model.preset=shallow200",
            "--set", f"train.epochs={CHECKPOINT_EPOCHS}"]


def cluster_op(checkpoint):
    return Op("eval cluster", ["eval", "--checkpoint", str(checkpoint), "--protocol", "cluster",
                               "--iterations", str(CLUSTER_ITERATIONS), "--n", "1000",
                               "--k", "10", "--noise-kind", "gaussian", "--noise-level", "0.2"],
              "cluster", CLUSTER_ITERATIONS)


def robustness_op(checkpoint):
    return Op("eval robustness", ["eval", "--checkpoint", str(checkpoint),
                                  "--protocol", "robustness"],
              "robustness", TEST_IMAGES * ROBUSTNESS_SPECS)


def build(name, checkpoint):
    """The named workload; ``checkpoint`` is where set-up leaves the eval model."""
    if name == "train-shallow200":
        # shallow200 IMAE diverges silently: its loss grows ~30 orders of
        # magnitude in 2 epochs and the call still exits 0
        return Workload([train_op("AE"), train_op("CAE"), train_op("DAE", noise_kind="mask"),
                         train_op("DAE", noise_kind="gaussian")],
                        probes=[train_op("IMAE")])
    if name == "train-deep10":
        # deep VAE overflows exp(logvar) and exits 2 in epoch 0
        return Workload([train_op("IMAE", preset="deep")],
                        probes=[train_op("VAE", preset="deep")])
    if name == "eval-shallow200":
        return Workload([cluster_op(checkpoint), robustness_op(checkpoint)],
                        needs_checkpoint=True)
    raise KeyError(name)



# --- output checks: each returns None when the output is correct, else why not ---

def _missing(out, names):
    absent = [n for n in names if not (Path(out) / n).is_file()]
    return f"missing artifacts: {', '.join(absent)}" if absent else None


def check_train(out):
    problem = _missing(out, ("model.ckpt", "history.csv", "config.resolved.ini"))
    if problem:
        return problem
    with open(Path(out) / "history.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    values = [float(v) for row in rows for v in row.values()]
    if not rows or not all(math.isfinite(v) for v in values):
        return "history.csv is empty or holds a non-finite value"
    first, last = float(rows[0]["total"]), float(rows[-1]["total"])
    if not last < first:
        return f"total loss did not fall: first epoch {first:.4g}, last epoch {last:.4g}"
    return None


def check_cluster(out):
    problem = _missing(out, ("cluster.csv", "report.json"))
    if problem:
        return problem
    report = json.loads((Path(out) / "report.json").read_text())
    for key in ("rand_clean", "rand_noisy"):
        value = report.get(key)
        if value is None or not 0.0 <= value <= 1.0:
            return f"{key} = {value!r} lies outside [0, 1]"
    sp = report.get("sigma_prime")
    if sp is None or not 0.0 < sp <= 0.25:
        return f"sigma_prime = {sp!r} lies outside (0, 0.25]"
    return None


def check_robustness(out, mask0_reference):
    problem = _missing(out, ("robustness.csv", "report.json"))
    if problem:
        return problem
    rows = json.loads((Path(out) / "report.json").read_text())["robustness"]
    if len(rows) != ROBUSTNESS_SPECS:
        return f"{len(rows)} robustness rows, expected {ROBUSTNESS_SPECS}"
    if not all(math.isfinite(r["mean_l2"]) and r["mean_l2"] >= 0.0 for r in rows):
        return "a robustness row is negative or non-finite"
    clean = [r["mean_l2"] for r in rows if r["kind"] == "mask" and r["level"] == 0.0]
    if len(clean) != 1:
        return "no single mask 0 row"
    rel = abs(clean[0] - mask0_reference) / mask0_reference
    if rel > 1e-9:
        return (f"mask 0 row {clean[0]!r} differs from the reference "
                f"{mask0_reference!r} by {rel:.2e} relative")
    return None


def check(op, out, mask0_reference=None):
    if op.kind == "train":
        return check_train(out)
    if op.kind == "cluster":
        return check_cluster(out)
    return check_robustness(out, mask0_reference)


_ACTIVATIONS = {
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "softplus": lambda z: np.logaddexp(0.0, z),
    "identity": lambda z: z,
}


def reference_l2(net, images_u8):
    """Mean squared reconstruction distance of clean images, in plain numpy,
    from the parameters of a loaded (non-VAE) network."""
    if net.vae_heads is not None:
        raise ValueError("the reference reconstruction covers deterministic networks only")
    x = images_u8.reshape(len(images_u8), -1).astype(np.float64) / 255.0
    a = x
    with np.errstate(over="ignore"):  # exp(-z) -> inf gives sigmoid 0, as it should
        for layer in net.layers:
            a = _ACTIVATIONS[layer.activation](a @ layer.weights.T + layer.bias)
    return float(((x - a) ** 2).sum(axis=1).mean())
