import warnings

import numpy as np
import pytest
from scipy.special import expit

from imae import gradcheck, nn, objectives
from imae.data import corrupt
from imae.errors import ConfigurationError, ShapeError
from imae.ndcore import derive_rng


def zeroed(net):
    for arr in net.param_items().values():
        arr[:] = 0.0
    return net


def unit_sigmoid(x):
    """The sigmoid of each entry of a 1-D array, through a 1-1 sigmoid layer."""
    net = nn.init_params(nn.Arch(1, ((1, "sigmoid"),), 0), derive_rng(1))
    net.layers[0].weights[:] = 1.0
    return nn.forward(net, np.asarray(x, dtype=np.float64)[:, None]).act[0][:, 0]


class TestActivations:
    def test_sigmoid_bounded_monotone(self):
        x = np.linspace(-800, 800, 4001)
        y = unit_sigmoid(x)
        assert np.all((y > 0) & (y < 1) | np.isin(y, [0.0, 1.0]))
        assert np.all(np.diff(y) >= 0)
        assert np.all((unit_sigmoid(np.array([-700.0, 700.0])) >= 0))

    def test_softplus_overflow_safe(self):
        x = np.array([-700.0, -1.0, 0.0, 1.0, 700.0])
        y = nn.softplus(x)
        assert np.all(np.isfinite(y))
        assert np.all(y > 0)
        np.testing.assert_allclose(y[-1], 700.0, rtol=1e-12)
        np.testing.assert_allclose(y[2], np.log(2.0), rtol=1e-12)

    def test_sigmoid_derivative_peak_and_tails(self):
        def deriv(y):
            y = np.array(y)
            return nn._activation_deriv("sigmoid", y)

        assert deriv([[0.5]])[0, 0] == 0.25
        assert np.all(deriv([[1e-9, 1 - 1e-9]]) < 1e-8)

    def test_sigmoid_derivative_vs_finite_difference(self, rng):
        x = rng.uniform(-3.0, 3.0, size=24)
        h = 1e-6
        fd = (unit_sigmoid(x + h) - unit_sigmoid(x - h)) / (2 * h)
        analytic = nn._activation_deriv("sigmoid", unit_sigmoid(x))
        np.testing.assert_allclose(analytic, fd, rtol=1e-6)


def ulps(a, b):
    """Distance in units in the last place between non-negative floats."""
    assert np.all(a >= 0) and np.all(b >= 0)
    return np.abs(a.view(np.int64) - b.view(np.int64))


def kernel_inputs():
    """A dense grid over [-800, 800], where both tails of softplus underflow or
    pass x through, plus random draws at the scales trunk activations take."""
    rng = derive_rng(4, "kernel-inputs")
    return np.concatenate([np.linspace(-800.0, 800.0, 1_600_001),
                           rng.uniform(-800.0, 800.0, 200_000),
                           rng.normal(0.0, 5.0, 200_000),
                           rng.normal(0.0, 1e-3, 50_000)])


class TestActivationKernels:
    """The vectorized kernels against numpy's scalar reference loops."""

    def test_softplus_matches_logaddexp(self):
        x = kernel_inputs()
        got, ref = nn.softplus(x), np.logaddexp(0.0, x)
        normal = ref >= np.finfo(np.float64).tiny
        assert ulps(got[normal], ref[normal]).max() <= 4
        # subnormal tail: within one subnormal step
        assert np.abs(got[~normal] - ref[~normal]).max() <= np.nextafter(0.0, 1.0)

    def test_softplus_propagates_inf_and_nan(self):
        x = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(nn.softplus(x), np.logaddexp(0.0, x))

    def test_sigmoid_within_two_ulps_of_expit(self):
        # N(0, 5) draws, plus both sides of exp's overflow at |z| = 709.78,
        # of its underflow to 0 at 745, and the far ends of the float range
        tails = [709.8, 745.0, 800.0, 1e308]
        z = np.concatenate([derive_rng(6, "sigmoid-inputs").normal(0.0, 5.0, 1_000_000),
                            tails, np.negative(tails)])
        before = z.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = objectives.sigmoid(z)
        assert np.array_equal(z, before)
        assert not np.shares_memory(got, z)
        assert ulps(got, expit(z)).max() <= 2
        assert got[z == -800.0] == 0.0 and got[z == 800.0] == 1.0

    def test_softplus_derivative_matches_expit(self):
        x = kernel_inputs()
        got = nn._activation_deriv("softplus", nn.softplus(x))
        ref = expit(x)
        assert np.all((got >= 0.0) & (got <= 1.0))
        normal = ref >= np.finfo(np.float64).tiny
        assert ulps(got[normal], ref[normal]).max() <= 4

    def test_deep_forward_matches_logaddexp_reference(self):
        # the deep preset at its own shapes: 784-1100-700-10-700-1100-784, batch 500
        rng = derive_rng(9, "deep-forward-reference")
        net = nn.init_params(nn.deep_arch(10), rng)
        for name, arr in net.param_items().items():
            if name.endswith(".b"):
                arr += 0.1 * rng.standard_normal(arr.shape)
        x = rng.random((500, 784))
        trace = nn.forward(net, x)
        a = x
        for layer, act in zip(net.layers, trace.act):
            z = a @ layer.weights.T + layer.bias
            a = {"softplus": lambda z: np.logaddexp(0.0, z),
                 "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
                 "identity": lambda z: z}[layer.activation](z)
            # the linear output cancels to near zero in places, so rtol is
            # taken on the scale of the layer there rather than of the entry
            np.testing.assert_allclose(act, a, rtol=1e-13, atol=1e-13 * np.abs(a).max())


class TestInitParams:
    def test_seed_reproducible(self):
        a = nn.init_params(nn.shallow_arch(20, 30), derive_rng(5))
        b = nn.init_params(nn.shallow_arch(20, 30), derive_rng(5))
        for (ka, va), (kb, vb) in zip(a.param_items().items(), b.param_items().items()):
            assert ka == kb
            assert np.array_equal(va, vb)

    def test_glorot_bound(self):
        net = nn.init_params(nn.shallow_arch(200, 784), derive_rng(1))
        w = net.layers[0].weights
        assert w.shape == (200, 784)
        assert np.abs(w).max() <= np.sqrt(6.0 / 984.0)

    def test_weight_mean_near_zero(self):
        net = nn.init_params(nn.shallow_arch(200, 784), derive_rng(2))
        assert abs(net.layers[0].weights.mean()) < 0.005

    def test_biases_zero(self):
        net = nn.init_params(nn.shallow_arch(5, 8), derive_rng(1))
        for layer in net.layers:
            assert np.array_equal(layer.bias, np.zeros_like(layer.bias))

    def test_empty_arch_rejected(self):
        with pytest.raises(ValueError):
            nn.init_params(nn.Arch(4, (), 0), derive_rng(1))

    @pytest.mark.parametrize("layers, latent_index, error", [
        (((0, "sigmoid"), (4, "identity")), 0, ValueError),
        (((3, "relu"), (4, "identity")), 0, ConfigurationError),
        (((3, "sigmoid"), (4, "identity")), 2, ConfigurationError),
    ])
    def test_arch_checks_itself(self, layers, latent_index, error):
        with pytest.raises(error):
            nn.Arch(4, layers, latent_index)

    def test_tied_requires_palindrome(self):
        bad = nn.Arch(4, ((3, "sigmoid"), (5, "identity")), 0)
        with pytest.raises(ConfigurationError):
            nn.init_params(bad, derive_rng(1), tied=True)

    def test_tied_vae_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.init_params(nn.shallow_arch(3, 4), derive_rng(1), tied=True, vae=True)


CLONED = [("shallow200", True, False), ("deep10", True, False), ("deep10", False, True)]


@pytest.fixture(params=CLONED, ids=["shallow200-tied", "deep10-tied", "deep10-vae"])
def preset_net(request):
    preset, tied, vae = request.param
    arch = nn.shallow_arch(200) if preset == "shallow200" else nn.deep_arch(10)
    net = nn.init_params(arch, derive_rng(6, "clone", preset), tied=tied, vae=vae)
    for arr in net.param_items().values():
        arr += 0.01  # biases start at zero; equal values below must be copies
    return net


class TestClone:
    def test_copies_every_parameter(self, preset_net):
        original = preset_net.param_items()
        copied = preset_net.clone().param_items()
        assert list(copied) == list(original)
        for name, arr in copied.items():
            assert np.array_equal(arr, original[name])
            assert not any(np.shares_memory(arr, o) for o in original.values()), name

    def test_tied_decoders_view_the_clone_encoders(self, preset_net):
        clone = preset_net.clone()
        n = len(clone.layers)
        for k, layer in enumerate(clone.layers):
            if clone.tied and k >= n // 2:
                encoder = clone.layers[n - 1 - k].weights
                assert np.shares_memory(layer.weights, encoder)
                assert np.array_equal(layer.weights, encoder.T)
            elif not clone.tied:  # every layer owns its weights
                assert not any(np.shares_memory(layer.weights, other.weights)
                               for other in clone.layers if other is not layer)

    def test_moving_the_clone_leaves_the_original(self, preset_net):
        weights = [layer.weights.copy() for layer in preset_net.layers]
        params = {name: arr.copy() for name, arr in preset_net.param_items().items()}
        for arr in preset_net.clone().param_items().values():
            arr += 1.0
        for name, arr in preset_net.param_items().items():
            assert np.array_equal(arr, params[name]), name
        for layer, before in zip(preset_net.layers, weights):
            assert np.array_equal(layer.weights, before)


class TestForward:
    def test_zero_net_outputs(self):
        net = zeroed(nn.init_params(nn.shallow_arch(6, 10), derive_rng(1)))
        trace = nn.forward(net, np.ones((3, 10)))
        assert np.array_equal(trace.xhat, np.zeros((3, 10)))
        assert np.array_equal(trace.latent_act, np.full((3, 6), 0.5))

    def test_identity_net_reconstructs(self, rng):
        arch = nn.Arch(5, ((5, "identity"),), 0)
        net = nn.init_params(arch, derive_rng(1))
        net.layers[0].weights[:] = np.eye(5)
        net.layers[0].bias[:] = 0.0
        x = rng.standard_normal((4, 5))
        assert np.array_equal(nn.forward(net, x).xhat, x)

    def test_sigmoid_latent_in_unit_interval(self, rng):
        net = nn.init_params(nn.shallow_arch(200, 784), derive_rng(3))
        trace = nn.forward(net, rng.random((5, 784)))
        assert np.all((trace.latent_act > 0) & (trace.latent_act < 1))

    @pytest.mark.parametrize("arch", [nn.shallow_arch(20, 30), nn.deep_arch(4, 30, (12, 8))],
                             ids=["shallow", "deep"])
    def test_latent_pre_survives_the_sigmoid(self, rng, arch):
        net = nn.init_params(arch, derive_rng(3))
        trace = nn.forward(net, rng.random((5, 30)))
        k = net.latent_index
        a_in = trace.x if k == 0 else trace.act[k - 1]
        assert np.array_equal(trace.latent_pre, nn._linear(net.layers[k], a_in))
        assert np.array_equal(trace.latent_act, objectives.sigmoid(trace.latent_pre))

    def test_batch_width_mismatch(self):
        net = nn.init_params(nn.shallow_arch(4, 6), derive_rng(1))
        with pytest.raises(ShapeError):
            nn.forward(net, np.zeros((2, 7)))

    def test_vae_forward_needs_rng_or_eps(self):
        net = nn.init_params(nn.shallow_arch(4, 6), derive_rng(1), vae=True)
        with pytest.raises(ConfigurationError):
            nn.forward(net, np.zeros((2, 6)))
        trace = nn.forward(net, np.zeros((2, 6)), rng=derive_rng(2))
        assert trace.z.shape == (2, 4)
        trace2 = nn.forward(net, np.zeros((2, 6)), rng=derive_rng(2))
        assert np.array_equal(trace.z, trace2.z)

    def test_tied_forward_matches_materialized_untied(self, rng):
        arch = nn.shallow_arch(7, 12)
        tied = nn.init_params(arch, derive_rng(9), tied=True)
        untied = nn.init_params(arch, derive_rng(10))
        untied.layers[0].weights[:] = tied.layers[0].weights
        untied.layers[1].weights[:] = tied.layers[0].weights.T.copy()
        for k in range(2):
            untied.layers[k].bias[:] = tied.layers[k].bias
        x = rng.random((6, 12))
        np.testing.assert_allclose(nn.forward(tied, x).xhat,
                                   nn.forward(untied, x).xhat, rtol=0, atol=1e-12)


class TestBackward:
    def test_zero_learning_signal_for_perfect_reconstruction(self, rng):
        arch = nn.Arch(5, ((5, "identity"),), 0)
        net = nn.init_params(arch, derive_rng(1))
        net.layers[0].weights[:] = np.eye(5)
        x = rng.standard_normal((4, 5))
        trace = nn.forward(net, x)
        _, _, grads = nn.backward(net, trace, objectives.LossSpec("AE"), x)
        for g in grads.values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_tied_accumulates_both_appearances(self, rng):
        arch = nn.shallow_arch(6, 9)
        tied = nn.init_params(arch, derive_rng(4), tied=True)
        untied = nn.init_params(arch, derive_rng(5))
        untied.layers[0].weights[:] = tied.layers[0].weights
        untied.layers[1].weights[:] = tied.layers[0].weights.T.copy()
        x = rng.random((5, 9))
        spec = objectives.LossSpec("AE")
        _, _, g_tied = nn.backward(tied, nn.forward(tied, x), spec, x)
        _, _, g_untied = nn.backward(untied, nn.forward(untied, x), spec, x)
        np.testing.assert_allclose(
            g_tied["layers.0.W"],
            g_untied["layers.0.W"] + g_untied["layers.1.W"].T, rtol=1e-12)

    @pytest.mark.parametrize("variant, arch, tied", [
        ("CAE", nn.shallow_arch(6, 9), True),   # latent_W added after the tied decoder's GEMM
        ("CAE", nn.shallow_arch(6, 9), False),  # latent_W added after the layer's own GEMM
        ("IMAE", nn.deep_arch(3, 9, trunk=(8, 5)), True),
        ("VAE", nn.deep_arch(3, 9, trunk=(8, 5)), False),
    ])
    @pytest.mark.parametrize("biases", [True, False])
    def test_out_buffers_take_every_gradient(self, rng, spec_for, variant, arch, tied, biases):
        # stale values in the lent arrays must not leak: each is overwritten
        # before anything is added to it. An empty ``out`` is filled by the
        # first call, an untied network's layer weights with views of one
        # buffer, so each such gradient must be final when it is consumed.
        spec = spec_for(variant)
        net = nn.init_params(arch, derive_rng(2), vae=spec.record.heads, tied=tied,
                             biases=biases)
        x = rng.random((5, 9))
        trace = nn.forward(net, x, eps=rng.standard_normal((5, 3)))
        total, terms, fresh = nn.backward(net, trace, spec, x)
        out = {key: np.full_like(p, np.nan) for key, p in net.param_items().items()}
        total2, terms2, grads = nn.backward(net, trace, spec, x, out=out)
        assert (total2, terms2) == (total, terms)
        assert grads.keys() == fresh.keys() == out.keys()
        for key, g in grads.items():
            assert g is out[key]
            assert g.tobytes() == fresh[key].tobytes()
        filled = {}
        for _ in range(2):  # the first call fills ``filled``, the second reuses it
            consumed = {}  # key -> the bytes of each gradient handed over for it
            total3, terms3, rest = nn.backward(
                net, trace, spec, x,
                lambda key, g: consumed.setdefault(key, []).append(g.tobytes()), filled)
            assert (total3, terms3, rest) == (total, terms, {})
            assert consumed == {key: [g.tobytes()] for key, g in fresh.items()}
        assert filled.keys() == fresh.keys()
        weights = [filled[f"layers.{k}.W"] for k in range(len(net.layers)) if not tied]
        assert all(np.shares_memory(w, weights[0]) for w in weights)

    @pytest.mark.parametrize("variant, arch, tied", [
        ("AE", nn.shallow_arch(6, 12), True),
        ("AE", nn.deep_arch(3, 12, trunk=(10, 6)), False),
        ("VAE", nn.deep_arch(3, 12, trunk=(10, 6)), False),
    ], ids=["tied-shallow", "untied-deep", "deep-vae"])
    @pytest.mark.parametrize("lend", [False, True], ids=["no-out", "empty-out"])
    @pytest.mark.parametrize("with_consumer", [False, True], ids=["returned", "consumed"])
    def test_no_gradient_is_aliased(self, rng, spec_for, variant, arch, tied, lend,
                                    with_consumer):
        # lent buffers are shared only when a consumer spends each gradient
        # before the next is formed; gradients handed back keep their own arrays
        spec = spec_for(variant)
        net = nn.init_params(arch, derive_rng(3), vae=spec.record.heads, tied=tied)
        x = rng.random((5, 12))
        trace = nn.forward(net, x, eps=rng.standard_normal((5, 3)))
        _, _, fresh = nn.backward(net, trace, spec, x)
        consumed = {}
        consume = (lambda key, g: consumed.__setitem__(key, g.tobytes())) if with_consumer else None
        _, _, grads = nn.backward(net, trace, spec, x, consume, {} if lend else None)
        got = consumed if with_consumer else {key: g.tobytes() for key, g in grads.items()}
        assert got == {key: g.tobytes() for key, g in fresh.items()}

    def test_variant_net_mismatch_rejected(self):
        plain = nn.init_params(nn.shallow_arch(3, 4), derive_rng(1))
        gauss = nn.init_params(nn.shallow_arch(3, 4), derive_rng(1), vae=True)
        x = np.zeros((2, 4))
        with pytest.raises(ConfigurationError):
            nn.backward(plain, nn.forward(plain, x), objectives.LossSpec("VAE"), x)
        trace = nn.forward(gauss, x, rng=derive_rng(2))
        with pytest.raises(ConfigurationError):
            nn.backward(gauss, trace, objectives.LossSpec("AE"), x)

    def test_cae_needs_single_layer_encoder(self):
        net = nn.init_params(nn.deep_arch(4, 20, trunk=(8, 6)), derive_rng(1))
        x = np.zeros((2, 20))
        with pytest.raises(ConfigurationError):
            nn.backward(net, nn.forward(net, x), objectives.LossSpec("CAE"), x)


class TestGradientsAgainstFiniteDifferences:
    """Spot version of the acceptance property: random small nets, all losses."""

    @pytest.mark.parametrize("variant", objectives.VARIANTS)
    def test_small_random_nets(self, variant):
        for seed in range(3):
            result = gradcheck.check_variant(variant, seed, widths=(9, 5), batch=6)
            assert result.passed, (variant, seed, result.max_rel_err)

    @pytest.mark.parametrize("variant", ["AE", "CAE", "DAE", "IMAE"])
    def test_tied_nets(self, variant):
        result = gradcheck.check_variant(variant, 11, widths=(8, 6), batch=5, tied=True)
        assert result.passed, (variant, result.max_rel_err)

    def test_deep_imae_and_vae(self, spec_for):
        # multi-layer softplus trunks, as used by the deep preset
        for variant, vae in (("IMAE", False), ("VAE", True), ("AE", False), ("DAE", False)):
            rng = derive_rng(3, "deep-gradcheck", variant)
            arch = nn.deep_arch(3, input_dim=12, trunk=(10, 6))
            net = nn.init_params(arch, rng, vae=vae)
            for name, arr in net.param_items().items():
                if name.endswith(".b"):
                    arr += 0.05 * rng.standard_normal(arr.shape)
            x = rng.random((4, 12))
            spec = spec_for(variant)
            x_in = x if variant != "DAE" else x * (rng.random(x.shape) > 0.3)
            eps = rng.standard_normal((4, 3)) if vae else None
            trace = nn.forward(net, x_in, eps=eps)
            _, _, analytic = nn.backward(net, trace, spec, x)
            numeric = gradcheck.finite_difference_grads(net, spec, x_in, x, eps=eps)
            blocks = gradcheck.compare_grads(analytic, numeric)
            assert all(b.passed for b in blocks), [(b.name, b.max_rel_err) for b in blocks]

    def test_bias_free_nets(self, spec_for):
        # literal form with untrained biases: no bias entries, grads still match
        for variant in ("IMAE", "CAE", "VAE"):
            r = derive_rng(5, "biasfree", variant)
            net = nn.init_params(nn.shallow_arch(5, 8), r, biases=False,
                                 vae=(variant == "VAE"))
            assert not any(k.endswith(".b") for k in net.param_items())
            x = r.random((4, 8))
            spec = spec_for(variant)
            eps = r.standard_normal((4, 5)) if variant == "VAE" else None
            trace = nn.forward(net, x, eps=eps)
            _, _, analytic = nn.backward(net, trace, spec, x)
            numeric = gradcheck.finite_difference_grads(net, spec, x, x, eps=eps)
            assert all(b.passed for b in gradcheck.compare_grads(analytic, numeric))

    @pytest.mark.parametrize("variant,preset,tied", [
        ("AE", "shallow200", True), ("CAE", "shallow200", True),
        ("DAE", "shallow200", True), ("IMAE", "shallow200", True),
        ("VAE", "shallow200", False), ("IMAE", "deep10", False), ("VAE", "deep10", False)])
    def test_directional_derivative_at_preset_shapes(self, spec_for, variant, preset, tied):
        # full 784-pixel presets at batch 500: <grad, v> against the central
        # difference of the total loss along a random direction v
        rng = derive_rng(17, "preset-direction", variant, preset)
        arch = nn.shallow_arch(200) if preset == "shallow200" else nn.deep_arch(10)
        net = nn.init_params(arch, rng, vae=(variant == "VAE"), tied=tied)
        spec = spec_for(variant)
        x = rng.random((500, 784))
        x_in = corrupt(x, spec.noise, rng) if variant == "DAE" else x
        latent = arch.layers[arch.latent_index][0]
        eps = rng.standard_normal((500, latent)) if variant == "VAE" else None
        _, _, grads = nn.backward(net, nn.forward(net, x_in, eps=eps), spec, x)
        direction = {k: rng.standard_normal(a.shape) for k, a in net.param_items().items()}
        along = sum(float(np.vdot(grads[k], v)) for k, v in direction.items())

        def loss_moved(t):
            moved = net.clone()
            for k, arr in moved.param_items().items():
                arr += t * direction[k]
            return gradcheck.loss_at(moved, spec, x_in, x, eps)

        h = 1e-6
        central = (loss_moved(h) - loss_moved(-h)) / (2 * h)
        assert abs(along - central) <= 1e-7 * max(abs(along), abs(central)), (along, central)

    def test_broken_gradient_is_detected(self, rng):
        # negative control: a sign flip must fail the comparison
        net = nn.init_params(nn.shallow_arch(5, 8), derive_rng(2))
        x = rng.random((4, 8))
        spec = objectives.LossSpec("AE")
        _, _, analytic = nn.backward(net, nn.forward(net, x), spec, x)
        analytic["layers.0.W"] = -analytic["layers.0.W"]
        numeric = gradcheck.finite_difference_grads(net, spec, x, x)
        blocks = gradcheck.compare_grads(analytic, numeric)
        assert not all(b.passed for b in blocks)
