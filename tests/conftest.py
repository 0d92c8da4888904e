import numpy as np
import pytest

from imae import gradcheck
from imae.data import (CANONICAL_FILES, make_synthetic_digits, write_idx_images,
                       write_idx_labels)
from imae.ndcore import derive_rng
from imae.objectives import VARIANTS, LossSpec


@pytest.fixture(scope="session")
def digits_train():
    return make_synthetic_digits(1500, seed=7)


@pytest.fixture(scope="session")
def digits_test():
    return make_synthetic_digits(1200, seed=8)


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
    runs: call it with a directory and (split, image count, seed) triples."""
    def write(root, splits):
        for split, n, seed in splits:
            ds = make_synthetic_digits(n, seed=seed, side=28)
            images = (ds.images * 255.0).round().astype(np.uint8).reshape(n, 28, 28)
            write_idx_images(root / CANONICAL_FILES[f"{split}_images"], images)
            write_idx_labels(root / CANONICAL_FILES[f"{split}_labels"], ds.labels)
        return root
    return write


@pytest.fixture(scope="session")
def idx_dir(tmp_path_factory, write_idx_dir):
    return write_idx_dir(tmp_path_factory.mktemp("idxdata"),
                         (("train", 400, 21), ("test", 300, 22)))
