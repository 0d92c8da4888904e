"""Float64 matrix coercion, random draws and deterministic generator plumbing.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype float64, row-major,
one data sample per row. Randomness always flows through an explicit generator
created by :func:`derive_rng`, never through module-level numpy state.
"""

import hashlib

import numpy as np

from .errors import ShapeError, check_range

# Most rows one forward-only chunk (or one row-wise reduction block) holds.
ROW_BLOCK = 1000


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array (no copy when already one)."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def derive_rng(seed, *labels) -> np.random.Generator:
    """Independent generator derived from a master seed and a label path.

    Labels are hashed with sha256 so the derivation does not depend on
    Python's per-process string hashing.
    """
    keys = [int(seed)]
    for label in labels:
        digest = hashlib.sha256(str(label).encode("utf-8")).digest()
        keys.append(int.from_bytes(digest[:8], "big"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))


def derive_seed(seed, *labels) -> int:
    """Stable 63-bit sub-seed for a master seed and a label path."""
    text = "/".join([str(int(seed))] + [str(label) for label in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def row_blocks(n):
    """Consecutive slices covering rows 0..n-1 in order, each at most
    ROW_BLOCK rows and of near-equal size (never a tiny tail block: BLAS
    products on a handful of rows round differently from large ones)."""
    count = max(1, -(-n // ROW_BLOCK))
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def gaussian(rng, rows, cols, mean=0.0, std=1.0) -> np.ndarray:
    """rows x cols matrix of i.i.d. normal draws: standard ones scaled and
    shifted in place, byte for byte what ``rng.normal`` draws."""
    check_range("std", std, 0, rule="gaussian: std must be >= 0")
    out = rng.standard_normal((int(rows), int(cols)))
    if std != 1.0:  # a product with 1.0 changes no bit
        out *= std
    out += mean
    return out


def bernoulli_mask(rng, rows, cols, keep_prob=None) -> np.ndarray:
    """0/1 matrix where each entry is 1 with probability keep_prob: the
    uniform draws u in [0,1) of ``rng.random`` thresholded as u < keep_prob.
    Without keep_prob, u itself, so that one draw gives the mask of any keep
    probability q as u < q, and those masks nest."""
    if keep_prob is not None:
        check_range("keep_prob", keep_prob, 0.0, 1.0,
                    rule="bernoulli_mask: keep_prob must be in [0,1]")
    u = rng.random(size=(int(rows), int(cols)))
    return u if keep_prob is None else np.less(u, keep_prob, out=u)
