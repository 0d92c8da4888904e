import dataclasses

import numpy as np
import pytest

from imae import nn
from imae.errors import ConfigurationError, ShapeError
from imae.ndcore import ROW_BLOCK, derive_rng, row_blocks
from imae.objectives import (LossSpec, cae_penalty_and_grads, imae_entropy_and_grad,
                             log_cosh, reconstruction_l2, total_loss,
                             vae_kl_and_grad)

# single-unit entropy term at y0 = 1, frozen from a 40-digit mpmath evaluation
# of sigma(1)(1 - sigma(1)) - log(cosh(1))^2
ENTROPY_AT_ONE = 0.0084461243469370841023


def l2_oracle(x, xhat):
    """Independent double loop: mean over rows of sum of squared differences."""
    total = 0.0
    for i in range(x.shape[0]):
        row = 0.0
        for j in range(x.shape[1]):
            row += (x[i, j] - xhat[i, j]) ** 2
        total += row
    return total / x.shape[0]


def jacobian_frobenius_oracle(w0, b, x, h=1e-5):
    """Frobenius norm^2 of the encoder Jacobian by central differences.

    Differentiates the full encoder x -> sigmoid(w0 @ x + b) per input
    coordinate; independent of the closed-form penalty it checks.
    """
    def enc(v):
        return 1.0 / (1.0 + np.exp(-(w0 @ v + b)))

    total = 0.0
    for row in x:
        jac = np.empty((w0.shape[0], w0.shape[1]))
        for j in range(len(row)):
            up, down = row.copy(), row.copy()
            up[j] += h
            down[j] -= h
            jac[:, j] = (enc(up) - enc(down)) / (2 * h)
        total += (jac ** 2).sum()
    return total / x.shape[0]


def zeroed_vae(latent, d):
    """Gaussian-latent net whose heads output exactly their biases."""
    net = nn.init_params(nn.shallow_arch(latent, d), derive_rng(3), vae=True)
    for arr in net.param_items().values():
        arr[:] = 0.0
    return net


class TestLossSpec:
    def test_lambda_rejected_for_plain_variants(self):
        for variant in ("AE", "VAE"):
            with pytest.raises(ConfigurationError):
                LossSpec(variant, lam=0.5)

    def test_noise_iff_dae(self):
        from imae.data import NoiseSpec
        with pytest.raises(ConfigurationError):
            LossSpec("DAE")
        with pytest.raises(ConfigurationError):
            LossSpec("AE", noise=NoiseSpec("mask", 0.3))
        LossSpec("DAE", noise=NoiseSpec("mask", 0.3))

    def test_none_kind_is_no_noise(self):
        from imae.data import NoiseSpec
        with pytest.raises(ConfigurationError, match="training noise is required"):
            LossSpec("DAE", noise=NoiseSpec("none", 0.3))
        spec = LossSpec("AE", noise=NoiseSpec("none", 0.0))
        assert spec.noise is None and spec.tag == "AE"

    def test_defaults(self):
        assert LossSpec("CAE").lam == 0.1
        assert LossSpec("IMAE").lam == 1.0


class TestReconstructionL2:
    def test_identical_is_zero(self, rng):
        x = rng.random((3, 5))
        assert np.array_equal(reconstruction_l2(x - x), np.zeros(3))

    def test_single_row(self):
        assert reconstruction_l2([[-1.0, 0.0]]).tolist() == [1.0]

    def test_against_double_loop(self, rng):
        x = rng.random((6, 9))
        xhat = rng.random((6, 9))
        np.testing.assert_allclose(reconstruction_l2(xhat - x).mean(),
                                   l2_oracle(x, xhat), rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        # the target is checked against the output before the residual is formed
        net = nn.init_params(nn.shallow_arch(2, 3), derive_rng(1))
        trace = nn.forward(net, np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            total_loss(LossSpec("AE"), trace, np.zeros((3, 2)))

    def test_row_blocks_equal_one_full_reduction(self, rng):
        # the per-row distances of the whole array are those of its row
        # blocks, bit for bit, so a blockwise sweep has the same mean
        x = rng.random((2 * ROW_BLOCK + 500, 784))
        xhat = rng.random(x.shape)
        blocked = np.concatenate([reconstruction_l2(xhat[b] - x[b]) for b in row_blocks(len(x))])
        whole = reconstruction_l2(xhat - x)
        assert np.array_equal(whole, blocked)
        assert whole.mean() == blocked.mean()

    def test_row_permutation_invariant(self, rng):
        x = rng.random((8, 4))
        xhat = rng.random((8, 4))
        perm = rng.permutation(8)
        permuted = reconstruction_l2(xhat[perm] - x[perm])
        assert np.array_equal(permuted, reconstruction_l2(xhat - x)[perm])
        np.testing.assert_allclose(reconstruction_l2(xhat - x).mean(), permuted.mean(),
                                   rtol=1e-12)


class TestLatentEntropy:
    def test_zero_vector_maximum(self):
        for l in (1, 7, 32):
            assert imae_entropy_and_grad(np.zeros((1, l)))[0] == 0.25 * l

    def test_single_unit_at_one(self):
        value = imae_entropy_and_grad(np.array([[1.0]]))[0]
        np.testing.assert_allclose(value, ENTROPY_AT_ONE, rtol=0, atol=1e-15)

    def test_frozen_value_matches_live_high_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        s = 1 / (1 + mp.e ** -1)
        live = s * (1 - s) - mp.log(mp.cosh(1)) ** 2
        assert abs(float(live) - ENTROPY_AT_ONE) < 1e-17

    def test_never_exceeds_zero_point(self, rng):
        y0 = rng.standard_normal((10, 6)) * 3
        assert imae_entropy_and_grad(y0)[0] <= imae_entropy_and_grad(np.zeros((10, 6)))[0]

    def test_even_in_y0(self, rng):
        y0 = rng.standard_normal((5, 8)) * 2
        np.testing.assert_allclose(imae_entropy_and_grad(y0)[0],
                                   imae_entropy_and_grad(-y0)[0], rtol=0, atol=1e-12)

    def test_log_cosh_overflow_safe(self):
        big = np.array([[500.0, -500.0, 0.0]])
        out = log_cosh(big)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0, :2], 500.0 - np.log(2.0), rtol=1e-12)
        assert out[0, 2] == 0.0


class TestCaePenalty:
    def test_zero_weights(self):
        assert cae_penalty_and_grads(np.full((3, 4), 0.5), np.zeros((4, 6)), 1.0)[0] == 0.0

    def test_hand_checked_single_unit(self):
        # y=0.5, w=2: (0.25)^2 * 4
        assert cae_penalty_and_grads([[0.5]], [[2.0]], 1.0)[0] == 0.25

    def test_matches_numeric_jacobian(self, rng):
        w0 = rng.standard_normal((3, 5))
        b = rng.standard_normal(3) * 0.2
        x = rng.random((4, 5))
        y = 1.0 / (1.0 + np.exp(-(x @ w0.T + b)))
        oracle = jacobian_frobenius_oracle(w0, b, x)
        np.testing.assert_allclose(cae_penalty_and_grads(y, w0, 1.0)[0], oracle, rtol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cae_penalty_and_grads(np.full((2, 3), 0.5), np.zeros((4, 5)), 1.0)[0]

    def test_row_permutation_invariant(self, rng):
        y = rng.uniform(0.1, 0.9, (6, 4))
        w0 = rng.standard_normal((4, 7))
        perm = rng.permutation(6)
        np.testing.assert_allclose(cae_penalty_and_grads(y, w0, 1.0)[0],
                                   cae_penalty_and_grads(y[perm], w0, 1.0)[0],
                                   rtol=1e-12)


class TestVaeKl:
    def test_matched_prior_is_zero(self):
        assert vae_kl_and_grad(np.zeros((3, 4)), np.zeros((3, 4)))[0] == 0.0

    def test_unit_mean(self):
        assert vae_kl_and_grad([[1.0]], [[0.0]])[0] == 1.0

    def test_nonnegative(self, rng):
        mu = rng.standard_normal((10, 5))
        logvar = rng.standard_normal((10, 5))
        assert vae_kl_and_grad(mu, logvar)[0] >= 0.0
        assert vae_kl_and_grad(mu, logvar)[0] > 0.0  # generic inputs never hit the minimum


class TestReparameterize:
    """The sampled code of a Gaussian-latent forward pass, mu + exp(logvar/2) * eps."""

    def _sample(self, mu_bias, logvar_bias, draw_rng, batch=4):
        latent = len(mu_bias)
        net = zeroed_vae(latent, d=5)
        net.vae_heads[0].bias[:] = mu_bias
        net.vae_heads[1].bias[:] = logvar_bias
        return nn.forward(net, np.zeros((batch, 5)), rng=draw_rng)

    def test_tiny_variance_returns_mean(self, rng):
        mu = rng.standard_normal(6)
        trace = self._sample(mu, np.full(6, -60.0), derive_rng(1))
        np.testing.assert_allclose(trace.z, np.tile(mu, (4, 1)), rtol=0, atol=1e-12)

    def test_unit_variance_moments(self):
        trace = self._sample(np.zeros(100), np.zeros(100), derive_rng(2), batch=1000)
        assert abs(trace.z.std() - 1.0) < 0.01

    def test_same_seed_identical(self, rng):
        mu = rng.standard_normal(3)
        lv = rng.standard_normal(3)
        a = self._sample(mu, lv, derive_rng(7)).z
        b = self._sample(mu, lv, derive_rng(7)).z
        assert np.array_equal(a, b)


class TestTotalLoss:
    def _net_and_trace(self, rng, variant="AE", lam=0.0, latent=6, d=10, batch=4):
        vae = variant == "VAE"
        net = nn.init_params(nn.shallow_arch(latent, d), derive_rng(3), vae=vae)
        x = rng.random((batch, d))
        trace = nn.forward(net, x, rng=derive_rng(4) if vae else None)
        return net, trace, x

    def test_zero_lambda_degenerates_to_ae(self, rng):
        _, trace, x = self._net_and_trace(rng)
        base, _, _ = total_loss(LossSpec("AE"), trace, x)
        for spec in (LossSpec("CAE", lam=0.0), LossSpec("IMAE", lam=0.0)):
            value, _, _ = total_loss(spec, trace, x)
            assert value == base

    def test_imae_perfect_reconstruction_zero_code(self):
        l = 6
        net = nn.init_params(nn.shallow_arch(l, 10), derive_rng(1))
        for arr in net.param_items().values():
            arr[:] = 0.0
        x = np.zeros((3, 10))
        trace = nn.forward(net, x)
        value, terms, _ = total_loss(LossSpec("IMAE"), trace, x)
        assert value == -0.25 * l
        assert terms["reconstruction"] == 0.0

    @pytest.mark.parametrize("variant", ["AE", "CAE", "IMAE", "VAE"])
    def test_terms_sum_to_total(self, rng, variant):
        lam = {"CAE": 0.1, "IMAE": 1.0}.get(variant, 0.0)
        _, trace, x = self._net_and_trace(rng, variant)
        value, terms, _ = total_loss(LossSpec(variant, lam=lam), trace, x)
        np.testing.assert_allclose(value, terms["reconstruction"] + terms["latent"],
                                   rtol=0, atol=1e-12)

    def test_dae_scores_against_clean_target(self, rng):
        from imae.data import NoiseSpec, corrupt
        net = nn.init_params(nn.shallow_arch(6, 10), derive_rng(5))
        x = rng.random((4, 10))
        noisy = corrupt(x, NoiseSpec("mask", 0.5), derive_rng(6))
        trace = nn.forward(net, noisy)
        spec = LossSpec("DAE", noise=NoiseSpec("mask", 0.5))
        value, terms, _ = total_loss(spec, trace, x)
        assert value == reconstruction_l2(trace.xhat - x).mean()
        assert terms["latent"] == 0.0

    def test_mismatched_spec_rejected(self, rng):
        _, trace, x = self._net_and_trace(rng)
        with pytest.raises(ConfigurationError):
            total_loss(LossSpec("VAE"), trace, x)


def moved_trace(trace, key, step):
    """A copy of ``trace`` with the array that gradient key ``key`` names
    moved by ``step``; every other array is shared, so the latent activations
    stay fixed when the latent weights move."""
    if key == "xhat":
        return dataclasses.replace(trace, act=trace.act[:-1] + [trace.xhat + step])
    if key == "latent_W":
        net = trace.net.clone()
        net.layers[net.latent_index].weights += step
        return dataclasses.replace(trace, net=net)
    return dataclasses.replace(trace, **{key: getattr(trace, key) + step})


class TestTraceGradients:
    """Each gradient ``total_loss`` returns, against the central difference of
    its own value along a random direction, at the shallow200 preset shapes
    (784 inputs, 200 latent units, batch 500)."""

    @pytest.mark.parametrize("variant,key", [
        ("AE", "xhat"), ("CAE", "xhat"), ("DAE", "xhat"), ("IMAE", "xhat"), ("VAE", "xhat"),
        ("IMAE", "latent_pre"), ("CAE", "latent_W"), ("VAE", "mu"), ("VAE", "logvar")])
    def test_directional_derivative(self, spec_for, variant, key):
        rng = derive_rng(23, "trace-direction", variant, key)
        vae = variant == "VAE"
        net = nn.init_params(nn.shallow_arch(200), rng, vae=vae)
        x = rng.random((500, 784))
        trace = nn.forward(net, x, rng=rng if vae else None)
        spec = spec_for(variant)
        _, _, grads = total_loss(spec, trace, x)
        direction = rng.standard_normal(grads[key].shape)
        along = float(np.vdot(grads[key], direction))

        def value(t):
            return total_loss(spec, moved_trace(trace, key, t * direction), x)[0]

        h = 1e-6
        central = (value(h) - value(-h)) / (2 * h)
        assert abs(along - central) <= 1e-7 * max(abs(along), abs(central)), (along, central)
