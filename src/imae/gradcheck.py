"""Finite-difference verification of the analytic gradients.

The numeric side only ever calls the forward pass and the loss functions, so
it stays independent of the backpropagation code it checks.
"""

from dataclasses import dataclass

import numpy as np

from . import nn, objectives
from .data import NoiseSpec, corrupt
from .ndcore import derive_rng

DEFAULT_WIDTHS = (10, 7, 10)
DEFAULT_BATCH = 4
NOISE = NoiseSpec("mask", 0.3)  # the training corruption of the variants that take one


def loss_at(net, spec, x_in, x_clean, eps=None) -> float:
    trace = nn.forward(net, x_in, eps=eps)
    total, _, _ = objectives.total_loss(spec, trace, x_clean)
    return total


def finite_difference_grads(net, spec, x_in, x_clean, eps=None, h=1e-5) -> dict:
    """Central-difference gradient of the total loss for every parameter.

    Works on a clone of the network; for tied networks the shared encoder
    array is the single perturbed parameter, so the numeric gradient matches
    the accumulated analytic convention by construction. ``eps`` freezes the
    latent sample of Gaussian-latent networks across perturbations.
    """
    net = net.clone()
    grads = {}
    for name, arr in net.param_items().items():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_at(net, spec, x_in, x_clean, eps)
            flat[i] = orig - h
            down = loss_at(net, spec, x_in, x_clean, eps)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


@dataclass
class BlockStats:
    name: str
    max_abs_diff: float
    max_rel_err: float   # |a-f| / max(floor, |a|, |f|)
    passed: bool


@dataclass
class GradCheckResult:
    variant: str
    seed: int
    blocks: list

    @property
    def passed(self):
        return all(b.passed for b in self.blocks)

    @property
    def max_rel_err(self):
        return max(b.max_rel_err for b in self.blocks)


def compare_grads(analytic, numeric, rtol=1e-5, atol=1e-8) -> list:
    """Per-parameter-block agreement stats; pass = |a-f| <= atol + rtol*|f|."""
    if set(analytic) != set(numeric):
        raise ValueError(f"gradient keys differ: {sorted(analytic)} vs {sorted(numeric)}")
    blocks = []
    for name in analytic:
        a, f = analytic[name], numeric[name]
        diff = np.abs(a - f)
        denom = np.maximum(atol, np.maximum(np.abs(a), np.abs(f)))
        blocks.append(BlockStats(
            name=name,
            max_abs_diff=float(diff.max()),
            max_rel_err=float((diff / denom).max()),
            passed=bool(np.all(diff <= atol + rtol * np.abs(f))),
        ))
    return blocks


def check_variant(variant, seed, widths=DEFAULT_WIDTHS, batch=DEFAULT_BATCH,
                  h=1e-5, rtol=1e-5, atol=1e-8, tied=False) -> GradCheckResult:
    """Check one loss variant on a random small network and batch."""
    rng = derive_rng(seed, "gradcheck", variant)
    d, l, _ = widths
    arch = nn.shallow_arch(l, input_dim=d)
    noise = NOISE if objectives.VARIANTS[variant].noise else None
    spec = objectives.LossSpec(variant, noise=noise)
    net = nn.init_params(arch, rng, vae=spec.record.heads, tied=tied)
    # nonzero biases make the check point fully generic
    for name, arr in net.param_items().items():
        if name.endswith(".b"):
            arr += 0.1 * rng.standard_normal(arr.shape)
    x_clean = rng.random((batch, d))
    x_in = x_clean if spec.noise is None else corrupt(x_clean, spec.noise, rng)
    eps = rng.standard_normal((batch, l)) if net.vae_heads is not None else None
    trace = nn.forward(net, x_in, eps=eps)
    _, _, analytic = nn.backward(net, trace, spec, x_clean)
    numeric = finite_difference_grads(net, spec, x_in, x_clean, eps=eps, h=h)
    return GradCheckResult(variant, seed, compare_grads(analytic, numeric, rtol, atol))
