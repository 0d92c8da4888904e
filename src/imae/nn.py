"""Feed-forward autoencoder networks: layers, forward pass, analytic gradients.

Layout conventions: weights are (out x in), batches are row-major (one sample
per row), so a layer computes ``act(x @ W.T + b)``. The layer whose output is
the hidden representation is marked by ``latent_index``. Gaussian-latent
networks replace that layer with a pair of linear heads (mean, log-variance)
and sample the code with the reparameterization trick.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import objectives
from .errors import ConfigurationError, ShapeError
from .ndcore import as_matrix

ACTIVATIONS = ("sigmoid", "softplus", "identity")


def softplus(x):
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)): it cannot overflow,
    and numpy's vectorized exp and log1p run several times faster than the
    scalar loop of ``np.logaddexp``."""
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def _activate(tag, z):
    if tag == "sigmoid":
        return expit(z)
    if tag == "softplus":
        return softplus(z)
    if tag == "identity":
        return z
    raise ConfigurationError(f"unknown activation {tag!r}")


def _activation_deriv(tag, act):
    """The activation's derivative, read from its output ``act``.

    Sigmoid: a(1 - a). Softplus: the sigmoid of its input, 1 - exp(-s) for
    s = softplus(z), computed as -expm1(-s) so that it keeps full precision
    where s is small (z very negative) instead of cancelling.
    """
    if tag == "sigmoid":
        d = 1.0 - act
        d *= act
        return d
    if tag == "softplus":
        d = np.negative(act)
        np.expm1(d, out=d)
        return np.negative(d, out=d)
    raise ConfigurationError(f"unknown activation {tag!r}")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str


@dataclass
class Arch:
    """Widths and activations of a network, independent of its parameters.

    ``layers`` lists (width, activation) pairs after the input;
    ``latent_index`` points at the layer producing the hidden code.
    """
    input_dim: int
    layers: tuple
    latent_index: int

    def widths(self):
        return (self.input_dim,) + tuple(w for w, _ in self.layers)


def shallow_arch(n_hidden, input_dim=784):
    """input -> n_hidden (sigmoid) -> input (linear decoder)."""
    return Arch(input_dim, ((n_hidden, "sigmoid"), (input_dim, "identity")), 0)


def deep_arch(n_h, input_dim=784, trunk=(1100, 700)):
    """Symmetric softplus trunk around a sigmoid code of n_h units."""
    enc = tuple((w, "softplus") for w in trunk)
    dec = tuple((w, "softplus") for w in reversed(trunk))
    layers = enc + ((n_h, "sigmoid"),) + dec + ((input_dim, "identity"),)
    return Arch(input_dim, layers, len(trunk))


@dataclass
class Network:
    layers: list
    latent_index: int
    tied: bool = False
    vae_heads: tuple = None  # (mean head, log-variance head) or None
    biases: bool = True

    @property
    def sigmoid_code(self):
        """Whether the code is a sigmoid layer's output, the code that
        sigma-prime and the IMAE and CAE latent terms read."""
        return self.vae_heads is None and self.layers[self.latent_index].activation == "sigmoid"

    def param_items(self):
        """Unique trainable parameters in a fixed order, name -> array.

        Tied decoder weights are transpose views of the encoder arrays and are
        not listed separately; their gradient is accumulated into the encoder
        entry.
        """
        half = len(self.layers) // 2
        items = {}
        for k, layer in enumerate(self.layers):
            if not (self.tied and k >= half):
                items[f"layers.{k}.W"] = layer.weights
            if self.biases:
                items[f"layers.{k}.b"] = layer.bias
        if self.vae_heads is not None:
            for tag, head in zip(("mu", "logvar"), self.vae_heads):
                items[f"heads.{tag}.W"] = head.weights
                if self.biases:
                    items[f"heads.{tag}.b"] = head.bias
        return items

    def clone(self):
        """Deep copy preserving weight tying."""
        half = len(self.layers) // 2
        layers = []
        for k, layer in enumerate(self.layers):
            if self.tied and k >= half:
                w = layers[len(self.layers) - 1 - k].weights.T
            else:
                w = layer.weights.copy()
            layers.append(DenseLayer(w, layer.bias.copy(), layer.activation))
        heads = None
        if self.vae_heads is not None:
            heads = tuple(DenseLayer(h.weights.copy(), h.bias.copy(), h.activation)
                          for h in self.vae_heads)
        return Network(layers, self.latent_index, self.tied, heads, self.biases)


@dataclass
class ForwardTrace:
    net: Network
    x: np.ndarray          # batch actually fed to the first layer
    act: list              # per-layer activations
    latent_pre: np.ndarray = None  # pre-activation of layer latent_index
    mu: np.ndarray = None
    logvar: np.ndarray = None
    eps: np.ndarray = None
    z: np.ndarray = None   # sampled latent (Gaussian-latent networks only)

    @property
    def xhat(self):
        return self.act[-1]

    @property
    def latent_act(self):
        return self.act[self.net.latent_index]

    def layer_input(self, k):
        if self.net.vae_heads is not None and k == self.net.latent_index:
            return self.z
        return self.x if k == 0 else self.act[k - 1]

    @property
    def trunk_out(self):
        i = self.net.latent_index
        return self.x if i == 0 else self.act[i - 1]


def _glorot(rng, out_dim, in_dim):
    s = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-s, s, size=(out_dim, in_dim))


def init_params(arch: Arch, rng, *, vae=False, tied=False, biases=True) -> Network:
    """Build a network with freshly initialized parameters.

    Weights are uniform in +-sqrt(6/(fan_in+fan_out)); biases start at zero.
    ``vae=True`` replaces the latent layer with linear mean/log-variance heads.
    ``tied=True`` stores encoder weights once and exposes decoder weights as
    transpose views of them.
    """
    if not arch.layers:
        raise ValueError("empty architecture")
    widths = arch.widths()
    if any(w < 1 for w in widths):
        raise ValueError(f"layer widths must be >= 1, got {widths}")
    acts = [a for _, a in arch.layers]
    if any(a not in ACTIVATIONS for a in acts):
        raise ConfigurationError(f"unknown activation in {acts}")
    if not 0 <= arch.latent_index < len(arch.layers):
        raise ConfigurationError(f"latent_index {arch.latent_index} out of range")
    if vae and tied:
        raise ConfigurationError("tied weights are not supported with Gaussian-latent heads")
    n_layers = len(arch.layers)
    if tied:
        if n_layers % 2 != 0:
            raise ConfigurationError("tied weights require an even layer count")
        if list(widths) != list(reversed(widths)):
            raise ConfigurationError(f"tied weights require palindromic widths, got {widths}")

    layers = []
    heads = None
    half = n_layers // 2
    for k, (out_dim, act) in enumerate(arch.layers):
        in_dim = widths[k]
        if vae and k == arch.latent_index:
            # the latent layer gives way to the mean/log-variance heads; the
            # next layer then consumes the sampled code (same width)
            heads = tuple(DenseLayer(_glorot(rng, out_dim, in_dim), np.zeros(out_dim), "identity")
                          for _ in range(2))
            continue
        if tied and k >= half:
            w = layers[n_layers - 1 - k].weights.T
        else:
            w = _glorot(rng, out_dim, in_dim)
        layers.append(DenseLayer(w, np.zeros(out_dim), act))
    return Network(layers, arch.latent_index, tied, heads, biases)


def _linear(layer, a):
    if a.shape[1] != layer.weights.shape[1]:
        raise ShapeError(
            f"layer expects {layer.weights.shape[1]} inputs, batch has {a.shape}")
    z = a @ layer.weights.T
    z += layer.bias
    return z


def forward(net: Network, batch, rng=None, eps=None) -> ForwardTrace:
    """Run the network on a batch, recording every activation and the latent
    layer's pre-activation (the only one the loss reads).

    Gaussian-latent networks need ``rng`` to sample the code (or ``eps`` to
    replay a fixed standard-normal draw, e.g. for finite differences).
    """
    a = as_matrix(batch)
    trace = ForwardTrace(net, a, [])
    for k, layer in enumerate(net.layers):
        if net.vae_heads is not None and k == net.latent_index:
            mu_head, lv_head = net.vae_heads
            trace.mu = _linear(mu_head, a)
            trace.logvar = _linear(lv_head, a)
            if eps is None:
                if rng is None:
                    raise ConfigurationError("Gaussian-latent forward pass needs rng or eps")
                eps = rng.standard_normal(trace.mu.shape)
            trace.eps = np.asarray(eps, dtype=np.float64)
            trace.z = trace.mu + np.exp(0.5 * trace.logvar) * trace.eps
            a = trace.z
        z = _linear(layer, a)
        a = _activate(layer.activation, z)
        if k == net.latent_index:
            trace.latent_pre = z
        trace.act.append(a)
    return trace


def encode(net: Network, batch) -> np.ndarray:
    """Hidden code for a batch: latent activations, or the mean head for
    Gaussian-latent networks (no sampling)."""
    a = as_matrix(batch)
    for layer in net.layers[:net.latent_index]:
        a = _activate(layer.activation, _linear(layer, a))
    if net.vae_heads is not None:
        return _linear(net.vae_heads[0], a)
    layer = net.layers[net.latent_index]
    return _activate(layer.activation, _linear(layer, a))


def backward(net: Network, trace: ForwardTrace, spec, batch_clean):
    """The total loss and its gradient w.r.t. every trainable parameter.

    ``batch_clean`` is the reconstruction target; for denoising training it
    differs from the (corrupted) forward input. The loss, its terms and its
    gradients w.r.t. the trace come from one ``objectives.total_loss`` pass;
    this function only chains the gradients through the layers and the
    reparameterized sample. Returns (total, terms, grads), with ``grads``
    keyed like ``Network.param_items``; gradients are means over the batch.
    For tied networks the decoder contribution is accumulated, transposed,
    into the shared encoder entry.
    """
    total, terms, loss = objectives.total_loss(spec, trace, batch_clean)
    n_layers = len(net.layers)
    half = n_layers // 2
    grads = {}

    def accumulate(key, value):
        if key in grads:
            grads[key] += value
        else:
            grads[key] = value

    g = loss.pop("xhat")  # d(loss)/d(output activations); freed once chained
    for k in range(n_layers - 1, -1, -1):
        layer = net.layers[k]
        heads_here = net.vae_heads is not None and k == net.latent_index
        dz = g  # fresh each layer, so the derivative is multiplied in place
        if layer.activation != "identity":
            dz *= _activation_deriv(layer.activation, trace.act[k])
        if k == net.latent_index:
            if "latent_pre" in loss:
                dz += loss["latent_pre"]
            if "latent_W" in loss:
                accumulate(f"layers.{k}.W", loss["latent_W"])
        a_prev = trace.layer_input(k)
        if net.tied and k >= half:
            accumulate(f"layers.{n_layers - 1 - k}.W", a_prev.T @ dz)
        else:
            accumulate(f"layers.{k}.W", dz.T @ a_prev)
        if net.biases:
            accumulate(f"layers.{k}.b", dz.sum(axis=0))
        if k == 0 and not heads_here:
            break  # d(loss)/d(input) is never used
        g = dz @ layer.weights
        if heads_here:
            # g is now d(loss)/d(sampled code); route through the heads
            mu_head, lv_head = net.vae_heads
            std = np.exp(0.5 * trace.logvar)
            dmu = g + loss["mu"]
            dlv = 0.5 * g * trace.eps * std + loss["logvar"]
            h = trace.trunk_out
            accumulate("heads.mu.W", dmu.T @ h)
            accumulate("heads.logvar.W", dlv.T @ h)
            if net.biases:
                accumulate("heads.mu.b", dmu.sum(axis=0))
                accumulate("heads.logvar.b", dlv.sum(axis=0))
            if k > 0:
                g = dmu @ mu_head.weights + dlv @ lv_head.weights
    return total, terms, grads
