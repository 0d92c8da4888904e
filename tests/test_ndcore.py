import numpy as np
import pytest

from imae.ndcore import (ROW_BLOCK, bernoulli_mask, derive_rng, derive_seed, gaussian,
                         row_blocks)


class TestGaussian:
    def test_moments(self):
        out = gaussian(derive_rng(2), 1000, 100)
        assert abs(out.mean()) < 0.01
        assert abs(out.std() - 1.0) < 0.01

    def test_same_seed_identical(self):
        assert np.array_equal(gaussian(derive_rng(3), 8, 8), gaussian(derive_rng(3), 8, 8))

    def test_bytes_equal_rng_normal(self):
        # the one normal draw of the corruption levels (data.draw_noise)
        for seed in range(3):
            rng, expected_rng = derive_rng(seed), derive_rng(seed)
            z = gaussian(rng, 500, 784)
            assert z.tobytes() == expected_rng.standard_normal((500, 784)).tobytes()
            assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestBernoulliMask:
    # u, the uniform draw a mask level p thresholds as u < 1 - p (data.apply_noise)
    def test_keep_all(self):
        # keep probability 1 (mask level 0) keeps every pixel
        assert (bernoulli_mask(derive_rng(1), 300, 784) < 1.0).all()

    def test_keep_none(self):
        # keep probability 0 (mask level 1) keeps no pixel
        assert not (bernoulli_mask(derive_rng(1), 300, 784) < 0.0).any()

    def test_fraction(self):
        u = bernoulli_mask(derive_rng(4), 1000, 100)
        assert abs((u < 0.7).mean() - 0.7) < 0.01

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
    @pytest.mark.parametrize("draw", [gaussian, bernoulli_mask], ids=["gaussian", "bernoulli_mask"])
    def test_blocks_equal_one_full_draw(self, draw):
        n = 2 * ROW_BLOCK + 345
        blocked_rng, full_rng = derive_rng(31), derive_rng(31)
        blocked = np.concatenate([draw(blocked_rng, b.stop - b.start, 784) for b in row_blocks(n)])
        assert np.array_equal(blocked, draw(full_rng, n, 784))
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
