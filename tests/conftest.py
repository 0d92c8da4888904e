import pytest

from imae import gradcheck
from imae.data import make_synthetic_digits
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
