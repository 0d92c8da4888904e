"""IDX splits stay uint8 pixels; float64 rows exist only per batch or row block.

Every test runs at the presets' 784 pixels. The reference for an IDX split is
the whole-split ``raw / 255.0`` that a float ``Dataset`` holds.
"""

import tracemalloc

import numpy as np
import pytest

from imae import nn
from imae.data import Dataset, NoiseSpec, batches, load_idx, make_synthetic_digits, write_idx
from imae.evaluation import cluster_eval, robustness_sweep
from imae.ndcore import derive_rng
from imae.objectives import LossSpec
from imae.training import TrainConfig, save_checkpoint, train

N = 10000  # the size of the MNIST test split: a float64 copy is 62.7 MB


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    """(IDX image path, IDX label path, raw uint8 pixels as (N, 784))."""
    ds = make_synthetic_digits(N, seed=41, side=28)
    raw = np.round(ds.images * 255.0).astype(np.uint8)
    root = tmp_path_factory.mktemp("idx")
    ip, lp = root / "images.idx", root / "labels.idx"
    write_idx(ip, raw.reshape(N, 28, 28))
    write_idx(lp, ds.labels)
    return ip, lp, raw


def float_twin(raw, labels):
    return Dataset(raw / 255.0, labels)


def shallow200(loss=None, **kw):
    settings = dict(arch=nn.shallow_arch(200), loss=loss or LossSpec("AE"),
                    learning_rate=0.015, epochs=1, batch_size=500, seed=9)
    settings.update(kw)
    return TrainConfig(**settings)


def test_no_float_copy_of_the_split(split):
    ip, lp, _ = split
    split_f64 = N * 784 * 8
    tracemalloc.start()
    try:
        ds = load_idx(ip, lp)
        net, _ = train(shallow200(), ds)
        train_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        robustness_sweep(net, ds, [NoiseSpec("none"), NoiseSpec("mask", 0.3),
                                   NoiseSpec("gaussian", 0.2)], derive_rng(3))
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train_peak < split_f64, f"load + train peak {train_peak / 2**20:.1f} MB"
    assert sweep_peak < split_f64, f"sweep peak {sweep_peak / 2**20:.1f} MB"
    assert ds.images.dtype == np.uint8


@pytest.mark.parametrize("shuffle", [False, True])
def test_batches_equal_whole_split_division(split, shuffle):
    ip, lp, raw = split
    ds = load_idx(ip, lp)
    order = np.concatenate(list(batches(ds, 500, derive_rng(4), shuffle)))
    expected = raw / 255.0
    if shuffle:
        expected = expected[derive_rng(4).permutation(N)]
    assert order.dtype == np.float64
    assert np.array_equal(order, expected)


@pytest.mark.parametrize("loss,shuffle", [
    (LossSpec("AE"), False),
    (LossSpec("DAE", noise=NoiseSpec("mask", 0.3)), True),
    (LossSpec("CAE"), False),
], ids=["AE", "DAE-b-shuffled", "CAE"])
def test_checkpoint_bytes_match_float_dataset(split, tmp_path, loss, shuffle):
    ip, lp, raw = split
    idx_ds = load_idx(ip, lp)
    cfg = shallow200(loss, shuffle=shuffle)
    paths = []
    for tag, ds in (("idx", Dataset(idx_ds.images[:2000], idx_ds.labels[:2000])),
                    ("float", float_twin(raw[:2000], idx_ds.labels[:2000]))):
        net, _ = train(cfg, ds)
        paths.append(tmp_path / f"{tag}.ckpt")
        save_checkpoint(net, cfg, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_eval_protocols_match_float_dataset(split):
    ip, lp, raw = split
    idx_ds = load_idx(ip, lp)
    twin = float_twin(raw, idx_ds.labels)
    net = nn.init_params(nn.shallow_arch(200), derive_rng(5))
    specs = [NoiseSpec("mask", 0.3), NoiseSpec("gaussian", 0.2)]
    rows = [[r.mean_l2 for r in robustness_sweep(net, ds, specs, derive_rng(6))]
            for ds in (idx_ds, twin)]
    assert rows[0] == rows[1]
    reports = [cluster_eval(net, ds, iterations=2, n=1500, noise=NoiseSpec("gaussian", 0.2),
                            seed=7).to_dict() for ds in (idx_ds, twin)]
    assert reports[0] == reports[1]
