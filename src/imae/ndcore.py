"""Float64 matrix coercion, random draws and deterministic generator plumbing.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype float64, row-major,
one data sample per row. Randomness always flows through an explicit generator
created by :func:`derive_rng`, never through module-level numpy state.
"""

import hashlib

import numpy as np

from .errors import ShapeError

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


def gaussian(rng, rows, cols) -> np.ndarray:
    """rows x cols matrix of standard normal draws: ``rng.standard_normal``'s bytes."""
    return rng.standard_normal((int(rows), int(cols)))


def bernoulli_mask(rng, rows, cols) -> np.ndarray:
    """rows x cols uniform draws u in [0,1) of ``rng.random``; u < q keeps with probability q."""
    return rng.random(size=(int(rows), int(cols)))
