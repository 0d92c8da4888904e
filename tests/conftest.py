import numpy as np
import pytest

from imae import gradcheck
from imae.data import CANONICAL_FILES, synthetic_splits, write_idx
from imae.ndcore import derive_rng
from imae.objectives import VARIANTS, LossSpec


@pytest.fixture(scope="session")
def digits_splits():
    """1500 train and 1200 test images of one draw: both share its classes."""
    return synthetic_splits(1500, 1200, seed=7)


@pytest.fixture(scope="session")
def digits_train(digits_splits):
    return digits_splits[0]


@pytest.fixture(scope="session")
def digits_test(digits_splits):
    return digits_splits[1]


@pytest.fixture
def rng():
    return derive_rng(0, "test")


@pytest.fixture(scope="session")
def spec_for():
    """Variant name -> its loss at the default latent weight, with gradcheck's
    training noise for a variant that takes one."""
    return lambda variant: LossSpec(
        variant, noise=gradcheck.NOISE if VARIANTS[variant].noise else None)


@pytest.fixture(scope="session")
def write_idx_dir():
    """Writes MNIST-shaped synthetic IDX files (28x28, 10 classes) for CLI
    runs: call it with a directory, the train and test image counts and a
    seed, and ``side`` for another image size. Both splits come from one
    draw, so they share its classes."""
    def write(root, n_train, n_test, seed, side=28):
        for split, ds in zip(("train", "test"), synthetic_splits(n_train, n_test, seed, side=side)):
            images = (ds.images * 255.0).round().astype(np.uint8).reshape(len(ds), side, side)
            write_idx(root / CANONICAL_FILES[f"{split}_images"], images)
            write_idx(root / CANONICAL_FILES[f"{split}_labels"], ds.labels)
        return root
    return write


@pytest.fixture(scope="session")
def idx_dir(tmp_path_factory, write_idx_dir):
    return write_idx_dir(tmp_path_factory.mktemp("idxdata"), 400, 300, seed=21)
