"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Criteria 1-4 are self-contained numerics and always run. Criteria 5-8 retrain
the models on real MNIST at desk scale and criterion 9a checks its ingestion;
they look for the IDX files under $IMAE_DATA_DIR (default ./data) and skip
with an explanatory message when the dataset is not present. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from imae import gradcheck, nn, objectives
from imae.data import CANONICAL_FILES, Dataset, NoiseSpec, load_idx, read_idx, write_idx
from imae.errors import IdxFormatError
from imae.evaluation import cluster_eval, rand_index, robustness_sweep, sigma_prime
from imae.ndcore import derive_rng, derive_seed
from imae.objectives import (LossSpec, cae_penalty_and_grads, imae_entropy_and_grad,
                             vae_kl_and_grad)
from imae.training import TrainConfig, train

from test_evaluation import brute_force_rand
from test_objectives import jacobian_frobenius_oracle

DATA_DIR = Path(os.environ.get("IMAE_DATA_DIR", "data"))
MASTER_SEED = 20260810

MNIST_PRESENT = all((DATA_DIR / name).is_file() for name in CANONICAL_FILES.values())
requires_mnist = pytest.mark.skipif(
    not MNIST_PRESENT,
    reason=f"MNIST IDX files not found under {DATA_DIR.resolve()} "
           f"(canonical names: {', '.join(CANONICAL_FILES.values())}); "
           "set IMAE_DATA_DIR to run the desk-scale criteria")


def announce(criterion, passed, detail=""):
    print(f"\nCRITERION {criterion}: {'PASS' if passed else 'FAIL'}  {detail}")
    return passed


# --- always-running criteria --------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    results = [gradcheck.check_variant(v, s)
               for v in objectives.VARIANTS for s in range(20)]
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    assert announce(1, ok, f"5 variants x 20 seeds, worst rel err {worst:.2e}, "
                           f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_contractive_penalty_oracle():
    rng = derive_rng(MASTER_SEED, "criterion-2")
    worst = 0.0
    for _ in range(10):
        l = int(rng.integers(2, 9))
        d = int(rng.integers(3, 12))
        batch = int(rng.integers(2, 7))
        w0 = rng.standard_normal((l, d))
        b = 0.3 * rng.standard_normal(l)
        x = rng.random((batch, d))
        y = 1.0 / (1.0 + np.exp(-(x @ w0.T + b)))
        closed = cae_penalty_and_grads(y, w0, 1.0)[0]
        numeric = jacobian_frobenius_oracle(w0, b, x)
        worst = max(worst, abs(closed - numeric) / abs(numeric))
    ok = worst <= 1e-4
    assert announce(2, ok, f"10 random encoders, worst rel err {worst:.2e}")
    assert ok


def test_criterion_3_rand_index_oracle():
    rng = derive_rng(MASTER_SEED, "criterion-3")
    exact = True
    for _ in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(5, 51))
        assignments = rng.integers(0, k, size=n)
        labels = rng.integers(0, k, size=n)
        exact = exact and rand_index(assignments, labels, k) == brute_force_rand(
            assignments, labels, k)
    assert announce(3, exact, "100 instances, k <= 6, N <= 50, exact equality")
    assert exact


def test_criterion_4_closed_form_spot_values():
    entropy_ok = all(imae_entropy_and_grad(np.zeros((1, l)))[0] == 0.25 * l
                     for l in (1, 3, 200))
    kl_ok = vae_kl_and_grad(np.zeros((2, 4)), np.zeros((2, 4)))[0] == 0.0
    zero_net = nn.init_params(nn.shallow_arch(7, 11), derive_rng(0))
    for arr in zero_net.param_items().values():
        arr[:] = 0.0
    sp_ok = sigma_prime(zero_net, np.ones((3, 11))) == 0.25
    ok = entropy_ok and kl_ok and sp_ok
    assert announce(4, ok, f"entropy(0)=0.25*l: {entropy_ok}, kl(0,0)=0: {kl_ok}, "
                           f"sigma'(zero net)=0.25: {sp_ok}")
    assert ok


def test_criterion_9b_corrupted_magic_rejected(tmp_path):
    images = np.zeros((3, 4, 4), dtype=np.uint8)
    path = tmp_path / "img.idx"
    write_idx(path, images)
    payload = bytearray(path.read_bytes())
    payload[:4] = struct.pack(">I", 0x12345678)
    path.write_bytes(bytes(payload))
    try:
        read_idx(path)
        ok = False
    except IdxFormatError:
        ok = True
    assert announce("9b", ok, "corrupted IDX magic raises a format error")
    assert ok


# --- desk-scale criteria on real MNIST -----------------------------------

SHALLOW_LOSSES = {
    "AE": LossSpec("AE"),
    "CAE": LossSpec("CAE"),
    "DAE-b": LossSpec("DAE", noise=NoiseSpec("mask", 0.3)),
    "DAE-g": LossSpec("DAE", noise=NoiseSpec("gaussian", 0.3)),
    "IMAE": LossSpec("IMAE"),
}


def load_mnist():
    train_ds = load_idx(DATA_DIR / CANONICAL_FILES["train_images"],
                        DATA_DIR / CANONICAL_FILES["train_labels"])
    test_ds = load_idx(DATA_DIR / CANONICAL_FILES["test_images"],
                       DATA_DIR / CANONICAL_FILES["test_labels"])
    return train_ds, test_ds


def train_desk_suite(train_ds, master_seed):
    """Criterion 5 protocol: shallow-200, 10k images, 300 epochs, lr 0.05."""
    subset = Dataset(train_ds.images[:10000], train_ds.labels[:10000])
    nets = {}
    for tag, loss in SHALLOW_LOSSES.items():
        cfg = TrainConfig(arch=nn.shallow_arch(200), loss=loss, learning_rate=0.05,
                          epochs=300, batch_size=500, tied=True,
                          seed=derive_seed(master_seed, "train", tag))
        nets[tag], _ = train(cfg, subset)
    return nets


def eval_desk_suite(nets, test_ds, master_seed):
    return {tag: cluster_eval(net, test_ds, iterations=50, n=1000, k=10,
                              noise=NoiseSpec("gaussian", 0.2),
                              seed=derive_seed(master_seed, "eval", tag),
                              model_tag=tag)
            for tag, net in nets.items()}


@pytest.fixture(scope="session")
def mnist():
    return load_mnist()


@pytest.fixture(scope="session")
def desk_nets(mnist):
    train_ds, _ = mnist
    return train_desk_suite(train_ds, MASTER_SEED)


@pytest.fixture(scope="session")
def desk_reports(desk_nets, mnist):
    _, test_ds = mnist
    return eval_desk_suite(desk_nets, test_ds, MASTER_SEED)


@requires_mnist
def test_criterion_5_clusterization_table(desk_reports):
    r = {tag: rep.rand_clean for tag, rep in desk_reports.items()}
    sp = {tag: rep.sigma_prime for tag, rep in desk_reports.items()}
    gap_ok = r["IMAE"] - r["CAE"] >= 0.20
    ratio_ok = sp["CAE"] <= sp["IMAE"] / 100.0
    best_rest = max(r["AE"], r["DAE-b"], r["DAE-g"])
    close_ok = r["IMAE"] >= best_rest - 0.05
    ok = gap_ok and ratio_ok and close_ok
    detail = (f"R(IMAE)={100 * r['IMAE']:.1f} R(CAE)={100 * r['CAE']:.1f} "
              f"gap>=20: {gap_ok}; sigma'(CAE)={sp['CAE']:.2e} <= "
              f"sigma'(IMAE)/100={sp['IMAE'] / 100:.2e}: {ratio_ok}; "
              f"IMAE within 5 of best({100 * best_rest:.1f}): {close_ok}")
    assert announce(5, ok, detail)
    assert ok


@requires_mnist
def test_criterion_6_robustness_orderings(desk_nets, mnist):
    _, test_ds = mnist
    specs = [NoiseSpec("mask", 0.0), NoiseSpec("mask", 0.3)]
    losses = {}
    for tag, net in desk_nets.items():
        rng = derive_rng(derive_seed(MASTER_SEED, "eval", tag), "robustness")
        rows = robustness_sweep(net, test_ds, specs, rng)
        losses[tag] = [row.mean_l2 for row in rows]
    clean = {tag: v[0] for tag, v in losses.items()}
    masked = {tag: v[1] for tag, v in losses.items()}
    ae_best_clean = min(clean, key=clean.get) == "AE"
    daeb_best_masked = min(masked, key=masked.get) == "DAE-b"
    ok = ae_best_clean and daeb_best_masked
    assert announce(6, ok, f"clean: {sorted(clean.items(), key=lambda x: x[1])}; "
                           f"mask 0.3: {sorted(masked.items(), key=lambda x: x[1])}")
    assert ok


@requires_mnist
def test_criterion_7_deep_clusterization(mnist):
    train_ds, test_ds = mnist
    subset = Dataset(train_ds.images[:10000], train_ds.labels[:10000])
    reports = {}
    for tag, loss in (("VAE", LossSpec("VAE")), ("IMAE", LossSpec("IMAE"))):
        cfg = TrainConfig(arch=nn.deep_arch(10), loss=loss, learning_rate=0.005,
                          epochs=150, batch_size=500, tied=False,
                          seed=derive_seed(MASTER_SEED, "deep-train", tag))
        net, _ = train(cfg, subset)
        reports[tag] = cluster_eval(net, test_ds, iterations=10, n=1000, k=10,
                                    noise=NoiseSpec("gaussian", 0.01),
                                    seed=derive_seed(MASTER_SEED, "deep-eval", tag),
                                    model_tag=tag)
    clean_ok = reports["IMAE"].rand_clean > reports["VAE"].rand_clean
    noisy_ok = reports["IMAE"].rand_noisy > reports["VAE"].rand_noisy
    ok = clean_ok and noisy_ok
    assert announce(
        7, ok,
        f"clean IMAE {100 * reports['IMAE'].rand_clean:.1f} vs "
        f"VAE {100 * reports['VAE'].rand_clean:.1f}; noisy "
        f"IMAE {100 * reports['IMAE'].rand_noisy:.1f} vs "
        f"VAE {100 * reports['VAE'].rand_noisy:.1f}")
    assert ok


@requires_mnist
def test_criterion_8_bitwise_determinism(desk_reports, mnist):
    train_ds, test_ds = mnist
    nets2 = train_desk_suite(train_ds, MASTER_SEED)
    reports2 = eval_desk_suite(nets2, test_ds, MASTER_SEED)
    identical = all(
        desk_reports[tag].rand_clean == reports2[tag].rand_clean
        and desk_reports[tag].rand_noisy == reports2[tag].rand_noisy
        and desk_reports[tag].sigma_prime == reports2[tag].sigma_prime
        for tag in desk_reports)
    assert announce(8, identical, "criterion-5 numbers reproduced bit-identically")
    assert identical


@requires_mnist
def test_criterion_9a_mnist_ingestion(mnist):
    train_ds, _ = mnist
    shape_ok = train_ds.images.shape == (60000, 784)
    labels_ok = train_ds.labels.min() >= 0 and train_ds.labels.max() <= 9
    ok = shape_ok and labels_ok
    assert announce("9a", ok, f"train shape {train_ds.images.shape}, "
                              f"labels in [{train_ds.labels.min()},{train_ds.labels.max()}]")
    assert ok
