import pytest

from imae.data import make_synthetic_digits
from imae.ndcore import derive_rng


@pytest.fixture(scope="session")
def digits_train():
    return make_synthetic_digits(1500, seed=7)


@pytest.fixture(scope="session")
def digits_test():
    return make_synthetic_digits(1200, seed=8)


@pytest.fixture
def rng():
    return derive_rng(0, "test")
