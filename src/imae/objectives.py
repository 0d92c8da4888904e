"""Loss terms for the five autoencoder variants: values, gradients, assembly.

All reductions follow one convention: sum over latent units / pixels,
mean over the samples of the batch. The variants share one dense network and
differ only in their latent term and a few structural needs, which
``VARIANTS`` declares once per variant. This module is the one place that
knows each term's formula and its gradient, so backpropagation in ``nn``
stays a generic dense chain. A new variant is one ``Variant`` record plus its
latent-term function.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ShapeError, check_range
from .ndcore import as_matrix


@dataclass(frozen=True)
class Variant:
    """What sets one variant apart from the plain autoencoder.

    ``lam`` is the default weight of the latent term; a variant whose default
    is 0 takes no weight. ``latent`` maps (weight, forward trace, batch size)
    to the latent term, signed as it enters the total, and its gradients
    w.r.t. the trace, keyed as in ``total_loss``; None for pure reconstruction.
    """
    lam: float = 0.0
    noise: bool = False                 # trains on corrupted input
    heads: bool = False                 # Gaussian-latent heads replace the latent layer
    sigmoid_code: bool = False          # the latent term reads a sigmoid code
    single_layer_encoder: bool = False  # the latent term assumes latent_index 0
    latent: Callable = None


@dataclass
class LossSpec:
    """Tagged choice of training objective.

    ``lam`` weights the latent term: by default the variant's own weight, and
    zero for a variant that takes none. ``noise`` is the training corruption,
    required exactly for the variants that train on corrupted input; a noise
    of kind "none" is no noise.
    """
    variant: str
    lam: float = None
    noise: object = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown loss variant {self.variant!r}")
        record = self.record
        if self.lam is None:
            self.lam = record.lam
        if not record.lam and self.lam != 0.0:
            raise ConfigurationError(f"{self.variant} takes no latent weight, got lam={self.lam}",
                                     field="lam")
        check_range("lam", self.lam, 0)
        if self.noise is not None and self.noise.kind == "none":
            self.noise = None
        if (self.noise is not None) != record.noise:
            noisy = "/".join(name for name, v in VARIANTS.items() if v.noise)
            raise ConfigurationError(
                f"training noise is required for {noisy} and only for {noisy}", field="noise")

    @property
    def record(self) -> Variant:
        return VARIANTS[self.variant]

    @property
    def tag(self) -> str:
        """The model's name in reports: the variant, suffixed -b (mask) or -g
        (Gaussian) by the kind of its training noise."""
        if self.noise is None:
            return self.variant
        return f"{self.variant}-{'b' if self.noise.kind == 'mask' else 'g'}"


def check_code_fits(spec: LossSpec, model) -> None:
    """Raise ConfigurationError unless the latent term of ``spec`` can read the
    code of ``model``, an ``nn.Arch`` or an ``nn.Network``."""
    record = spec.record
    if record.sigmoid_code and not model.sigmoid_code:
        raise ConfigurationError(f"{spec.variant} needs a sigmoid latent layer")
    if record.single_layer_encoder and model.latent_index != 0:
        raise ConfigurationError(
            "the contractive penalty is defined for a single-layer encoder "
            f"(latent_index 0), got latent_index={model.latent_index}")


def reconstruction_l2(r) -> np.ndarray:
    """Squared Euclidean norm of each residual row ``r = xhat - x``: the
    per-sample reconstruction distance. The loss is its mean."""
    r = as_matrix(r)
    return np.einsum("ij,ij->i", r, r)


class GramL2:
    """``reconstruction_l2`` of an identity output layer's residual
    h Wᵀ + b − x (weights W, d × p; bias b), read from its Gram matrix
    G = WᵀW (p × p) without forming h Wᵀ + b. With y = x − b,

        ||h Wᵀ + b − x||² = h·(h G) − h·(2 y W) + ||y||²,

    so once ``target(x)`` has formed 2 y W and ||y||² of a clean block, each
    h costs a p × p product, not a p × d one: less work when p < d. Rounding
    can push the sum of a near-perfect reconstruction below 0, so it is
    clamped at 0."""

    def __init__(self, weights, bias):
        self.weights, self.bias = weights, bias
        self.gram = weights.T @ weights

    def target(self, x):
        """(2 y W, ||y||² per row) of a clean block x; y is not kept."""
        y = np.subtract(x, self.bias)
        yw = y @ self.weights
        yw *= 2.0
        return yw, reconstruction_l2(y)

    def __call__(self, h, target):
        """The distance of each row of h, the output layer's input, from its
        row of the block whose ``target`` this is."""
        yw, yy = target
        d = h @ self.gram
        d -= yw
        d = np.einsum("ij,ij->i", d, h)
        d += yy
        return np.maximum(d, 0.0, out=d)


def sigmoid(z) -> np.ndarray:
    """1 / (1 + exp(-z)), formed in one new array; ``z`` itself is left
    unchanged (a forward trace keeps it as the latent pre-activation). Where
    exp(-z) overflows (z < -709.78) it is inf and the sigmoid exactly 0."""
    out = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def sigmoid_slope(y) -> np.ndarray:
    """y(1 - y), the sigmoid's derivative read from its output ``y``: the
    slope that IMAE's entropy proxy, CAE's Jacobian and sigma-prime use."""
    d = 1.0 - y
    d *= y
    return d


def log_cosh(x) -> np.ndarray:
    """log(cosh(x)) without overflow: |x| + log1p(exp(-2|x|)) - log 2."""
    ax = np.abs(np.asarray(x, dtype=np.float64))
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def imae_entropy_and_grad(y0):
    """Entropy proxy of the latent code from its pre-activations, and its
    entrywise derivative w.r.t. them.

    Per sample, sums sigma(y0)(1 - sigma(y0)) - log(cosh(y0))^2 over the
    latent units; the value is the batch mean, maximal (0.25 per unit) at
    y0 = 0. The derivative is that of each unit term, not divided by the batch.
    """
    y0 = as_matrix(y0)
    s = sigmoid(y0)
    d = sigmoid_slope(s)
    lc = log_cosh(y0)
    value = float((d - lc ** 2).sum(axis=1).mean())
    return value, d * (1.0 - 2.0 * s) - 2.0 * lc * np.tanh(y0)


def cae_penalty_and_grads(y, w0, lam):
    """Squared Frobenius norm of the encoder Jacobian (batch mean), and the
    gradients of ``lam`` times it.

    Exact for a linear-then-sigmoid encoder: sum_i (y_i(1-y_i))^2 * sum_j w_ij^2
    with y the latent activations and w0 the (latent x input) encoder weights.
    Returns (value, gradient w.r.t. the latent pre-activations, gradient
    w.r.t. w0 through its row norms).
    """
    y = as_matrix(y)
    w0 = as_matrix(w0)
    if y.shape[1] != w0.shape[0]:
        raise ShapeError(
            f"cae_penalty: latent width {y.shape[1]} does not match encoder rows {w0.shape[0]}")
    d = sigmoid_slope(y)
    dd = d * d
    row_sq = np.einsum("ij,ij->i", w0, w0)
    scale = 2.0 * lam / len(y)
    return (float((dd @ row_sq).mean()),
            scale * dd * (1.0 - 2.0 * y) * row_sq,
            scale * dd.sum(axis=0)[:, None] * w0)


def vae_kl_and_grad(mu, logvar):
    """Divergence of the diagonal-Gaussian code from the unit prior, and its
    gradients w.r.t. ``mu`` and ``logvar``.

    Per sample: sum_i mu_i^2 + exp(logvar_i) - logvar_i - 1, batch mean.
    (Twice the textbook KL; kept in this form to match the rest of the
    objective scaling.) Non-negative, zero only at mu=0, logvar=0. Returns
    (value, gradient w.r.t. mu, gradient w.r.t. logvar) of the batch mean.
    """
    mu = as_matrix(mu)
    logvar = as_matrix(logvar)
    if mu.shape != logvar.shape:
        raise ShapeError(f"vae_kl_and_grad: shapes differ, {mu.shape} vs {logvar.shape}")
    var = np.exp(logvar)
    per_unit = mu * mu + var - logvar - 1.0
    return float(per_unit.sum(axis=1).mean()), (2.0 / len(mu)) * mu, (var - 1.0) / len(mu)


def _imae_term(lam, trace, batch):
    entropy, grad = imae_entropy_and_grad(trace.latent_pre)
    return -lam * entropy, {"latent_pre": -(lam / batch) * grad}


def _cae_term(lam, trace, batch):
    penalty, pre, weights = cae_penalty_and_grads(
        trace.latent_act, trace.net.layers[trace.net.latent_index].weights, lam)
    return lam * penalty, {"latent_pre": pre, "latent_W": weights}


def _vae_term(lam, trace, batch):
    kl, mu, logvar = vae_kl_and_grad(trace.mu, trace.logvar)
    return kl, {"mu": mu, "logvar": logvar}


# in the paper's order; the default weights are those of all its experiments
VARIANTS = {
    "AE": Variant(),
    "CAE": Variant(lam=0.1, sigmoid_code=True, single_layer_encoder=True, latent=_cae_term),
    "DAE": Variant(noise=True),
    "IMAE": Variant(lam=1.0, sigmoid_code=True, latent=_imae_term),
    "VAE": Variant(heads=True, latent=_vae_term),
}


def total_loss(spec: LossSpec, trace, x_clean):
    """The objective of one forward trace, its terms and its gradients.

    Returns (total, terms, grads). ``terms`` is {"reconstruction": ...,
    "latent": ...}; the latent entry is signed as it enters the total, so the
    terms always sum to it. ``grads`` holds the gradient of the total w.r.t.
    the trace arrays it reads, keyed by where each enters backpropagation:
    ``"xhat"`` (output activations, always present), ``"latent_pre"`` (latent
    pre-activations; IMAE, CAE), ``"latent_W"`` (the latent layer's own
    weights; CAE) and ``"mu"``/``"logvar"`` (the Gaussian-latent heads; VAE).
    """
    has_heads = trace.net.vae_heads is not None
    if spec.record.heads != has_heads:
        raise ConfigurationError(f"{spec.variant} loss on a network "
                                 f"{'with' if has_heads else 'without'} Gaussian-latent heads")
    check_code_fits(spec, trace.net)
    x_clean = as_matrix(x_clean)
    if trace.xhat.shape != x_clean.shape:
        raise ShapeError(
            f"target shape {x_clean.shape} does not match output {trace.xhat.shape}")
    batch = x_clean.shape[0]
    r = trace.xhat - x_clean
    rec = float(reconstruction_l2(r).mean())
    r *= 2.0 / batch  # the residual becomes the gradient w.r.t. xhat
    grads = {"xhat": r}
    latent = 0.0
    if spec.record.latent is not None:
        latent, latent_grads = spec.record.latent(spec.lam, trace, batch)
        grads.update(latent_grads)
    return rec + latent, {"reconstruction": rec, "latent": latent}, grads
