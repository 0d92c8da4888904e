import numpy as np
import pytest

from imae.ndcore import (ROW_BLOCK, bernoulli_mask, derive_rng, derive_seed, gaussian,
                         row_blocks)


class TestGaussian:
    def test_zero_std_is_constant(self):
        out = gaussian(derive_rng(1), 4, 5, mean=2.5, std=0.0)
        assert np.array_equal(out, np.full((4, 5), 2.5))

    def test_moments(self):
        out = gaussian(derive_rng(2), 1000, 100, mean=0.0, std=0.3)
        assert abs(out.mean()) < 0.01
        assert abs(out.std() - 0.3) < 0.01

    def test_same_seed_identical(self):
        a = gaussian(derive_rng(3), 8, 8, 0.0, 1.0)
        b = gaussian(derive_rng(3), 8, 8, 0.0, 1.0)
        assert np.array_equal(a, b)

    def test_bytes_equal_rng_normal(self):
        # scaling standard draws in place gives numpy's own normal draws
        for seed in range(3):
            for mean in (0.0, 2.5, -1.0):
                for std in (0.0, 0.03, 0.15, 0.2, 0.3, 0.35, 0.45, 1.0):
                    ours = gaussian(derive_rng(seed), 500, 784, mean, std)
                    ref = derive_rng(seed).normal(mean, std, size=(500, 784))
                    assert ours.tobytes() == ref.tobytes(), (seed, mean, std)

    def test_negative_std_rejected(self):
        # and a non-finite one: a NaN std would draw NaN noise
        for std in (-0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                gaussian(derive_rng(1), 2, 2, 0.0, std)


class TestBernoulliMask:
    def test_keep_all(self):
        assert np.array_equal(bernoulli_mask(derive_rng(1), 3, 3, 1.0), np.ones((3, 3)))

    def test_keep_none(self):
        assert np.array_equal(bernoulli_mask(derive_rng(1), 3, 3, 0.0), np.zeros((3, 3)))

    def test_fraction(self):
        mask = bernoulli_mask(derive_rng(4), 1000, 100, 0.7)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert abs(mask.mean() - 0.7) < 0.01

    def test_equals_threshold_formula(self):
        mask = bernoulli_mask(derive_rng(6), 300, 784, 0.7)
        expected = (derive_rng(6).random(size=(300, 784)) < 0.7).astype(np.float64)
        assert mask.dtype == np.float64
        assert np.array_equal(mask, expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_mask(derive_rng(1), 2, 2, 1.5)

    def test_without_keep_prob_is_the_uniform_draw(self):
        rng, expected_rng = derive_rng(7), derive_rng(7)
        u = bernoulli_mask(rng, 300, 784)
        assert u.tobytes() == expected_rng.random(size=(300, 784)).tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 7, ROW_BLOCK, ROW_BLOCK + 1, 2345, 10 * ROW_BLOCK])
    def test_cover_rows_in_order(self, n):
        blocks = row_blocks(n)
        assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]), np.arange(n))
        assert all(b.stop - b.start <= ROW_BLOCK for b in blocks)

    def test_no_small_tail_block(self):
        # BLAS products on a handful of rows round differently from large ones
        sizes = [b.stop - b.start for b in row_blocks(ROW_BLOCK + 3)]
        assert min(sizes) >= ROW_BLOCK // 2
        assert [b.stop - b.start for b in row_blocks(10 * ROW_BLOCK)] == [ROW_BLOCK] * 10


class TestBlockwiseDraws:
    # the cluster protocol corrupts one row block at a time; its draws must be
    # those of one full-size draw
    @pytest.mark.parametrize("draw", [
        lambda rng, rows: gaussian(rng, rows, 784, 0.0, 0.3),
        lambda rng, rows: bernoulli_mask(rng, rows, 784, 0.7),
        lambda rng, rows: bernoulli_mask(rng, rows, 784),
    ], ids=["gaussian", "bernoulli_mask", "uniform"])
    def test_blocks_equal_one_full_draw(self, draw):
        n = 2 * ROW_BLOCK + 345
        blocked_rng, full_rng = derive_rng(31), derive_rng(31)
        blocked = np.concatenate([draw(blocked_rng, b.stop - b.start) for b in row_blocks(n)])
        assert np.array_equal(blocked, draw(full_rng, n))
        assert blocked_rng.bit_generator.state == full_rng.bit_generator.state


class TestRngPlumbing:
    def test_derive_rng_stable_and_distinct(self):
        a = derive_rng(42, "x").standard_normal(5)
        b = derive_rng(42, "x").standard_normal(5)
        c = derive_rng(42, "y").standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "train", "AE") == derive_seed(1, "train", "AE")
        assert derive_seed(1, "train", "AE") != derive_seed(1, "train", "CAE")
        assert derive_seed(1, "a") < 2 ** 63
