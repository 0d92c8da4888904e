"""Feed-forward autoencoder networks: layers, forward pass, analytic gradients.

Layout conventions: weights are (out x in), batches are row-major (one sample
per row), so a layer computes ``act(x @ W.T + b)``. The layer whose output is
the hidden representation is marked by ``latent_index``. Gaussian-latent
networks replace that layer with a pair of linear heads (mean, log-variance)
and sample the code with the reparameterization trick.
"""

import copy
from dataclasses import dataclass

import numpy as np

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
        return objectives.sigmoid(z)
    if tag == "softplus":
        return softplus(z)
    return z  # identity, the one other activation an Arch admits


def _activation_deriv(tag, act):
    """The activation's derivative, read from its output ``act``.

    Sigmoid: a(1 - a). Softplus: the sigmoid of its input, 1 - exp(-s) for
    s = softplus(z), computed as -expm1(-s) so that it keeps full precision
    where s is small (z very negative) instead of cancelling.
    """
    if tag == "sigmoid":
        return objectives.sigmoid_slope(act)
    d = np.negative(act)  # softplus; identity layers skip this call
    np.expm1(d, out=d)
    return np.negative(d, out=d)


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str


@dataclass
class Arch:
    """Widths and activations of a network, independent of its parameters.

    ``layers`` lists (width, activation) pairs after the input; the last
    reconstructs the input, so it is as wide. ``latent_index`` points at the
    layer producing the hidden code.
    """
    layers: tuple
    latent_index: int

    def __post_init__(self):
        if not self.layers or min(self.widths()) < 1:
            raise ConfigurationError(
                f"layers must be non-empty with widths >= 1, got {self.widths()}", field="layers")
        if any(a not in ACTIVATIONS for _, a in self.layers):
            raise ConfigurationError(f"unknown activation in {self.layers}")
        if not 0 <= self.latent_index < len(self.layers):
            raise ConfigurationError(f"latent_index {self.latent_index} out of range")

    def widths(self):  # the input's (the last layer's), then each layer's
        return tuple(w for w, _ in self.layers[-1:] + self.layers)

    @property
    def sigmoid_code(self):
        """Whether the latent layer is a sigmoid (see ``Network.sigmoid_code``)."""
        return self.layers[self.latent_index][1] == "sigmoid"


def shallow_arch(n_hidden, input_dim=784):
    """input -> n_hidden (sigmoid) -> input (linear decoder)."""
    return Arch(((n_hidden, "sigmoid"), (input_dim, "identity")), 0)


def deep_arch(n_h, input_dim=784, trunk=(1100, 700)):
    """Symmetric softplus trunk around a sigmoid code of n_h units."""
    enc = tuple((w, "softplus") for w in trunk)
    dec = tuple((w, "softplus") for w in reversed(trunk))
    layers = enc + ((n_h, "sigmoid"),) + dec + ((input_dim, "identity"),)
    return Arch(layers, len(trunk))


def mirror(tied, n_layers, k):
    """The encoder layer whose weights, transposed, tied decoder layer ``k``
    of ``n_layers`` reads; None when layer ``k`` owns its weights."""
    return n_layers - 1 - k if tied and k >= n_layers // 2 else None


@dataclass
class Network:
    layers: list
    latent_index: int
    tied: bool = False
    vae_heads: tuple = None  # (mean head, log-variance head) or None

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
        items = {}
        for k, layer in enumerate(self.layers):
            if mirror(self.tied, len(self.layers), k) is None:
                items[f"layers.{k}.W"] = layer.weights
            items[f"layers.{k}.b"] = layer.bias
        if self.vae_heads is not None:
            for tag, head in zip(("mu", "logvar"), self.vae_heads):
                items[f"heads.{tag}.W"] = head.weights
                items[f"heads.{tag}.b"] = head.bias
        return items

    def clone(self):
        """Deep copy preserving weight tying."""
        net = copy.deepcopy(self)
        for k, layer in enumerate(net.layers):
            j = mirror(net.tied, len(net.layers), k)
            if j is not None:
                layer.weights = net.layers[j].weights.T
        return net


@dataclass
class ForwardTrace:
    net: Network
    x: np.ndarray          # batch actually fed to the first layer
    act: list              # per-layer activations
    latent_pre: np.ndarray = None  # pre-activation of a code that is a layer's output
    mu: np.ndarray = None  # the rest: Gaussian-latent networks only
    logvar: np.ndarray = None
    eps: np.ndarray = None
    std: np.ndarray = None  # exp(logvar / 2)
    z: np.ndarray = None   # sampled code, mu + std * eps

    @property
    def xhat(self):
        return self.act[-1]

    @property
    def latent_act(self):
        """The code: the latent layer's output, or the sample z."""
        return self.act[self.net.latent_index] if self.z is None else self.z

    def layer_input(self, k):
        """The input of layer ``k``: the sample z after the Gaussian heads,
        else the batch or the previous layer's output."""
        if self.z is not None and k == self.net.latent_index:
            return self.z
        return self.x if k == 0 else self.act[k - 1]


def _glorot(rng, out_dim, in_dim):
    s = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-s, s, size=(out_dim, in_dim))


def init_params(arch: Arch, rng, *, vae=False, tied=False) -> Network:
    """Build a network with freshly initialized parameters.

    Weights are uniform in +-sqrt(6/(fan_in+fan_out)); biases start at zero.
    ``vae=True`` replaces the latent layer with linear mean/log-variance heads.
    ``tied=True`` stores encoder weights once and exposes decoder weights as
    transpose views of them.
    """
    if vae and tied:
        raise ConfigurationError("tied weights are not supported with Gaussian-latent heads")
    widths = arch.widths()
    n_layers = len(arch.layers)
    if tied:
        if n_layers % 2 != 0:
            raise ConfigurationError("tied weights require an even layer count")
        if list(widths) != list(reversed(widths)):
            raise ConfigurationError(f"tied weights require palindromic widths, got {widths}")

    layers = []
    heads = None
    for k, (out_dim, act) in enumerate(arch.layers):
        in_dim = widths[k]
        if vae and k == arch.latent_index:
            # the latent layer gives way to the mean/log-variance heads; the
            # next layer then consumes the sampled code (same width)
            heads = tuple(DenseLayer(_glorot(rng, out_dim, in_dim), np.zeros(out_dim), "identity")
                          for _ in range(2))
            continue
        j = mirror(tied, n_layers, k)
        w = _glorot(rng, out_dim, in_dim) if j is None else layers[j].weights.T
        layers.append(DenseLayer(w, np.zeros(out_dim), act))
    return Network(layers, arch.latent_index, tied, heads)


def _linear(layer, a):
    if a.shape[1] != layer.weights.shape[1]:
        raise ShapeError(f"layer expects {layer.weights.shape[1]} inputs, batch has {a.shape}")
    z = a @ layer.weights.T
    z += layer.bias
    return z


def _input_maps(net: Network):
    """The linear maps that read the input: layer 0, or both Gaussian heads
    (mean first) when they do."""
    return net.vae_heads if net.vae_heads and net.latent_index == 0 else net.layers[:1]


def input_products(net: Network, batch, bias=True) -> list:
    """``batch`` times each linear map that reads the input (``_input_maps``),
    plus its bias if ``bias``."""
    a = as_matrix(batch)
    return [_linear(m, a) if bias else a @ m.weights.T for m in _input_maps(net)]


def forward(net: Network, batch, rng=None, eps=None, pre=None,
            output_layer=True) -> ForwardTrace:
    """Run the network on a batch, recording every activation and, when the
    code is a layer's output, its pre-activation (the only one the loss reads).

    Gaussian-latent networks need ``rng`` to sample the code (or ``eps`` to
    replay a fixed standard-normal draw, e.g. for finite differences).
    The pass starts from ``input_products(net, batch)``: ``pre``, if given,
    stands in for them, one product per map that reads the input, and any
    other count is a ShapeError. Given those very products, the trace is the
    same. With ``output_layer=False`` the pass stops before the output
    layer's product: the trace ends at that layer's input,
    ``layer_input(len(net.layers) - 1)``, and ``xhat`` is not the output.
    """
    a = as_matrix(batch)
    trace = ForwardTrace(net, a, [])
    maps = _input_maps(net)
    pre = input_products(net, a) if pre is None else list(pre)
    if len(pre) != len(maps):
        raise ShapeError(f"pre must hold one product per map that reads the input "
                         f"({len(maps)}), got {len(pre)}")
    heads_at = None if net.vae_heads is None else net.latent_index  # the layer after them
    stop = None if output_layer else len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        if k == heads_at:
            trace.mu, trace.logvar = pre if k == 0 else (_linear(h, a) for h in net.vae_heads)
            if eps is None:
                if rng is None:
                    raise ConfigurationError("Gaussian-latent forward pass needs rng or eps")
                eps = rng.standard_normal(trace.mu.shape)
            trace.eps = np.asarray(eps, dtype=np.float64)
            trace.std = np.exp(0.5 * trace.logvar)
            a = trace.z = trace.mu + trace.std * trace.eps
        if k == stop:
            break
        z = pre[0] if k == 0 and heads_at != 0 else _linear(layer, a)  # unless heads read x
        a = _activate(layer.activation, z)
        if k == net.latent_index and heads_at is None:
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


def backward(net: Network, trace: ForwardTrace, spec, batch_clean, consume=None):
    """The total loss and its gradient w.r.t. every trainable parameter.

    ``batch_clean`` is the reconstruction target; for denoising training it
    differs from the (corrupted) forward input. The loss, its terms and its
    gradients w.r.t. the trace come from one ``objectives.total_loss`` pass;
    this function only chains the gradients through the layers and the
    reparameterized sample. Returns (total, terms, grads), with ``grads``
    keyed like ``Network.param_items``; gradients are means over the batch.
    For tied networks the decoder contribution is accumulated, transposed,
    into the shared encoder entry. A non-finite total chains nothing.

    ``consume(name, grad)``, if given, takes each gradient in place of
    ``grads`` as soon as it is final, and after the gradient passed below
    has been formed with the old weights, so a training loop can step that
    block right there. Every gradient is formed in an array of its own.
    """
    total, terms, loss = objectives.total_loss(spec, trace, batch_clean)
    grads = {}
    if not np.isfinite(total):
        return total, terms, grads  # a diverged step moves no block
    n_layers = len(net.layers)
    consume = consume or grads.__setitem__
    partial = {}  # each gradient from its first contribution until consumed

    def add(key, form, *args, **kwargs):
        """Add ``form(*args, **kwargs)`` to ``key``'s gradient: a first
        contribution becomes its array, a later one is added in place."""
        if key in partial:
            partial[key] += form(*args, **kwargs)
        else:
            partial[key] = form(*args, **kwargs)

    g = loss.pop("xhat")  # d(loss)/d(output activations); freed once chained
    for k in range(n_layers - 1, -1, -1):
        layer = net.layers[k]
        heads_here = net.vae_heads is not None and k == net.latent_index
        dz = g  # fresh each layer, so the derivative is multiplied in place
        if layer.activation != "identity":
            dz *= _activation_deriv(layer.activation, trace.act[k])
        j = mirror(net.tied, n_layers, k)
        key = f"layers.{k if j is None else j}.W"
        if k == net.latent_index and "latent_pre" in loss:
            dz += loss["latent_pre"]
        a_prev = trace.layer_input(k)
        if j is None:
            add(key, np.matmul, dz.T, a_prev)
        else:  # tied: the decoder's contribution, transposed, to its encoder's entry
            add(key, np.matmul, a_prev.T, dz)
        if key == f"layers.{net.latent_index}.W" and "latent_W" in loss:
            partial[key] += loss.pop("latent_W")  # CAE's, added to the first contribution
        bias = f"layers.{k}.b"
        add(bias, np.sum, dz, axis=0)
        final = [key, bias] if j is None else [bias]  # a tied decoder's W waits for its encoder
        if k > 0 or heads_here:  # d(loss)/d(input) is never used
            g = dz @ layer.weights
        if heads_here:
            # g is now d(loss)/d(sampled code); route through the heads
            mu_head, lv_head = net.vae_heads
            a_in = trace.x if k == 0 else trace.act[k - 1]  # the heads' input
            dmu = g + loss["mu"]
            dlv = 0.5 * g * trace.eps * trace.std + loss["logvar"]
            add("heads.mu.W", np.matmul, dmu.T, a_in)
            add("heads.logvar.W", np.matmul, dlv.T, a_in)
            add("heads.mu.b", np.sum, dmu, axis=0)
            add("heads.logvar.b", np.sum, dlv, axis=0)
            final += [name for name in partial if name.startswith("heads.")]
            if k > 0:
                g = dmu @ mu_head.weights + dlv @ lv_head.weights
        for name in final:
            consume(name, partial.pop(name))
    return total, terms, grads
