"""End-to-end protocol checks on synthetic 10-class image data.

These always run (no dataset files needed) and pin the qualitative behaviors
the models must show at reduced scale: denoising training wins under its
noise, the plain autoencoder wins clean reconstruction, the entropy-maximizing
model keeps the latent derivative high while the contractive one shrinks it.
The full-scale orderings against published values live in test_acceptance.py
and run when the real dataset is present.
"""

import numpy as np
import pytest

from imae import nn
from imae.data import NoiseSpec
from imae.evaluation import cluster_eval, robustness_sweep
from imae.ndcore import derive_rng, derive_seed
from imae.objectives import LossSpec
from imae.training import TrainConfig, train

SEED = 404

SHALLOW_LOSSES = {
    "AE": LossSpec("AE"),
    "CAE": LossSpec("CAE"),
    "DAE-b": LossSpec("DAE", noise=NoiseSpec("mask", 0.3)),
    "DAE-g": LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
    "IMAE": LossSpec("IMAE"),
}


@pytest.fixture(scope="session")
def shallow_suite(digits_train, digits_test):
    """The five shallow models trained with the standard protocol, shrunk."""
    d = digits_train.images.shape[1]
    nets, finals = {}, {}
    for tag, loss in SHALLOW_LOSSES.items():
        cfg = TrainConfig(arch=nn.shallow_arch(64, d), loss=loss,
                          learning_rate=0.05, epochs=300, batch_size=250,
                          tied=True, seed=derive_seed(SEED, "train", tag))
        net, history = train(cfg, digits_train)
        nets[tag] = net
        finals[tag] = history[-1].total
    return nets, finals


@pytest.fixture(scope="session")
def shallow_reports(shallow_suite, digits_test):
    nets, _ = shallow_suite
    return {tag: cluster_eval(net, digits_test, iterations=6, n=800, k=10,
                              noise=NoiseSpec("gaussian", 0.2),
                              seed=derive_seed(SEED, "eval", tag), model_tag=tag)
            for tag, net in nets.items()}


@pytest.fixture(scope="session")
def shallow_robustness(shallow_suite, digits_test):
    nets, _ = shallow_suite
    specs = [NoiseSpec("mask", 0.0), NoiseSpec("mask", 0.3),
             NoiseSpec("gaussian", 0.3)]
    table = {}
    for tag, net in nets.items():
        rows = robustness_sweep(net, digits_test, specs,
                                derive_rng(derive_seed(SEED, "rob", tag)))
        table[tag] = {f"{row.kind} {row.level:g}": row.mean_l2 for row in rows}
    return table


class TestShallowProtocol:
    def test_plain_ae_wins_clean_reconstruction(self, shallow_robustness):
        clean = {tag: row["mask 0"] for tag, row in shallow_robustness.items()}
        assert min(clean, key=clean.get) == "AE", clean

    def test_mask_trained_dae_wins_under_mask_noise(self, shallow_robustness):
        noisy = {tag: row["mask 0.3"] for tag, row in shallow_robustness.items()}
        assert min(noisy, key=noisy.get) == "DAE-b", noisy

    def test_all_models_find_cluster_structure(self, shallow_reports):
        for tag, report in shallow_reports.items():
            assert report.rand_clean >= 0.5, (tag, report.rand_clean)
            assert report.rand_noisy >= 0.5, (tag, report.rand_noisy)

    def test_latent_derivative_ordering(self, shallow_reports):
        sp = {tag: r.sigma_prime for tag, r in shallow_reports.items()}
        assert sp["IMAE"] > sp["AE"] > sp["CAE"], sp
        assert sp["IMAE"] > 0.2  # entropy term holds the derivative near its 0.25 cap

    def test_entropy_term_dominates_imae_total(self, shallow_suite):
        _, finals = shallow_suite
        assert finals["IMAE"] < 0.0  # reconstruction minus latent entropy
        assert finals["AE"] > 0.0


@pytest.fixture(scope="session")
def deep_pair(digits_train, digits_test):
    d = digits_train.images.shape[1]
    arch = nn.deep_arch(8, input_dim=d, trunk=(160, 80))
    out = {}
    for tag, loss in (("VAE", LossSpec("VAE")), ("IMAE", LossSpec("IMAE"))):
        cfg = TrainConfig(arch=arch, loss=loss, learning_rate=0.005,
                          epochs=150, batch_size=250, tied=False,
                          seed=derive_seed(SEED, "deep", tag))
        net, history = train(cfg, digits_train)
        report = cluster_eval(net, digits_test, iterations=4, n=800, k=10,
                              noise=NoiseSpec("gaussian", 0.05),
                              seed=derive_seed(SEED, "deep-eval", tag),
                              model_tag=tag)
        out[tag] = (net, history, report)
    return out


class TestDeepProtocol:
    def test_both_codes_cluster(self, deep_pair):
        for tag, (_, _, report) in deep_pair.items():
            assert report.rand_clean >= 0.5, (tag, report.rand_clean)
            assert report.rand_noisy >= 0.5, (tag, report.rand_noisy)

    def test_training_is_stable(self, deep_pair):
        for tag, (_, history, _) in deep_pair.items():
            totals = [r.total for r in history]
            assert all(np.isfinite(t) for t in totals), tag
            assert totals[-1] < totals[0], tag

    def test_vae_report_lacks_sigma_prime(self, deep_pair):
        assert deep_pair["VAE"][2].sigma_prime is None
        assert deep_pair["IMAE"][2].sigma_prime is not None
