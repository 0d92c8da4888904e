"""MNIST-shaped synthetic digits, owned by the benchmark.

The recipe is the one of ``tests/conftest.py::make_synthetic_digits`` at
``side=28``: ten smooth prototype images (sums of Gaussian bumps at
class-specific spots), a per-image brightness and additive pixel noise. It is
copied here, together with the label-hashed seed derivation, so that an edit
to the tests or to ``imae.ndcore`` cannot shift the benchmark's inputs.

Train and test images come from one draw, so both splits share the same ten
prototypes. The noise is drawn in row chunks, which yields the same stream as
one large draw while keeping the generator's peak memory small.
"""

import hashlib

import numpy as np

SIDE = 28
N_CLASSES = 10
CHUNK = 1000


def derive_rng(seed, *labels):
    """Generator for a master seed and a label path (sha256 of each label)."""
    keys = [int(seed)]
    for label in labels:
        digest = hashlib.sha256(str(label).encode("utf-8")).digest()
        keys.append(int.from_bytes(digest[:8], "big"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))


def synthetic_digits(n, seed, side=SIDE, n_classes=N_CLASSES, noise=0.08):
    """(images as uint8 (n, side, side), labels as uint8 (n,))."""
    rng = derive_rng(seed, "synthetic-digits")
    yy, xx = np.mgrid[0:side, 0:side]
    protos = np.zeros((n_classes, side, side))
    for c in range(n_classes):
        for _ in range(3):
            cy, cx = rng.uniform(2, side - 2, size=2)
            width = rng.uniform(1.2, 2.6)
            protos[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
        protos[c] /= protos[c].max()
    labels = rng.integers(n_classes, size=n)
    brightness = rng.uniform(0.75, 1.0, size=n)[:, None, None]
    images = np.empty((n, side, side), dtype=np.uint8)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        chunk = (protos[labels[start:stop]] * brightness[start:stop]
                 + noise * rng.standard_normal((stop - start, side, side)))
        images[start:stop] = np.round(np.clip(chunk, 0.0, 1.0) * 255.0)
    return images, labels.astype(np.uint8)
