"""IDX dataset ingestion, batching, and the two corruption operators.

IDX containers, bit-exact: a u32 big-endian magic 0x0800 | ndim (two zero
bytes, the element type 0x08 for unsigned byte, then the number of
dimensions), ndim u32 big-endian dimension sizes, then their product of
unsigned bytes in row-major order. An MNIST image file is 3-D (count, rows,
cols), magic 0x00000803; a label file is 1-D (count), magic 0x00000801.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IdxFormatError, check_range
from .ndcore import as_matrix, bernoulli_mask, derive_rng, gaussian

IDX_UBYTE = 0x0800  # an unsigned-byte IDX magic, less its dimension count

# canonical filenames of the MNIST / Fashion-MNIST distributions
CANONICAL_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

N_CLASSES = 10
NOISE_KINDS = ("none", "mask", "gaussian")


def pixel_rows(pixels, index=slice(None)) -> np.ndarray:
    """Float64 rows ``pixels[index]`` in [0,1], a new array the caller owns.

    uint8 pixels are divided by 255.0 and float pixels by 1.0, so rows of an
    IDX split hold exactly the values of a whole-split ``astype(float64) / 255``.
    """
    pixels = np.asarray(pixels)
    return pixels[index] / (255.0 if pixels.dtype == np.uint8 else 1.0)


@dataclass
class Dataset:
    """Images as an (N x d) pixel matrix plus integer labels.

    Pixels are kept as given: uint8 in 0..255 (as read from IDX files) or
    float64 in [0,1]. Read them as float64 rows through ``pixel_rows``.
    """
    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.images)
        is_u8 = pixels.dtype == np.uint8 and pixels.ndim == 2
        self.images = pixels if is_u8 else as_matrix(pixels)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or len(self.labels) != len(self.images):
            raise IdxFormatError(
                f"{len(self.images)} images vs {self.labels.shape} labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= N_CLASSES):
            raise IdxFormatError(
                f"labels outside [0,{N_CLASSES - 1}]: "
                f"min={self.labels.min()}, max={self.labels.max()}")
        if not is_u8 and len(self.images) and (
                self.images.min() < 0.0 or self.images.max() > 1.0):
            raise IdxFormatError("pixels outside [0,1]")

    def __len__(self):
        return len(self.images)


@dataclass
class NoiseSpec:
    """Corruption model: pixel zeroing with probability ``level`` (mask) or
    additive zero-mean Gaussian noise with std ``level``."""
    kind: str
    level: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}", field="kind")
        if self.kind == "mask":
            check_range("level", self.level, 0.0, 1.0, rule="mask probability must be in [0,1]")
        elif self.kind == "gaussian":
            check_range("level", self.level, 0.0, rule="gaussian std must be >= 0")

    def describe(self):
        return "clean" if self.kind == "none" else f"{self.kind} {self.level:g}"


def read_exact(f, n, what):
    """Exactly n bytes from binary file f; IOError naming the file and ``what``,
    before any read, if fewer are left."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise IOError(f"truncated file {f.name}: expected {n} bytes for {what}, got {left}")
    return f.read(n)


def read_u32(f, what, order=">"):  # IDX is big-endian, checkpoints little-endian
    return struct.unpack(f"{order}I", read_exact(f, 4, what))[0]


def _read_payload(f, n, what):
    """The n payload bytes a header declares, which must end the file."""
    payload = read_exact(f, n, what)
    declared, actual = f.tell(), os.fstat(f.fileno()).st_size
    if actual != declared:
        raise IdxFormatError(f"{f.name}: header declares {declared} bytes, file has {actual}")
    return payload


def read_idx(path) -> np.ndarray:
    """The uint8 array of an unsigned-byte IDX file, shaped as its header says."""
    with open(path, "rb") as f:
        magic = read_u32(f, "magic")
        if (magic & ~0xFF) != IDX_UBYTE:
            raise IdxFormatError(f"bad IDX magic in {path}: got 0x{magic:08x}, "
                                 f"want 0x0000080N for an N-D unsigned-byte array")
        shape = tuple(read_u32(f, f"dimension {i}") for i in range(magic & 0xFF))
        payload = _read_payload(f, math.prod(shape), "data")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def write_idx(path, values) -> None:
    """Inverse of ``read_idx``: ``values``, integers in 0..255 of any shape,
    under the magic 0x0800 | ndim. Anything a uint8 cast would change is an
    IdxFormatError naming ``path``, raised before the file is opened."""
    values = np.asarray(values)
    if values.dtype != np.uint8:
        if values.dtype.kind not in "iu":
            raise IdxFormatError(f"{path}: values must be integers in 0..255, got {values.dtype}")
        if values.size and (values.min() < 0 or values.max() > 255):
            raise IdxFormatError(f"{path}: values outside 0..255: "
                                 f"min={values.min()}, max={values.max()}")
    values = np.ascontiguousarray(values, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + values.ndim}I", IDX_UBYTE | values.ndim, *values.shape))
        f.write(values)


# kept because perfbench's set-up writes its IDX files through these names
write_idx_images = write_idx_labels = write_idx


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair: images 3-D (count, rows, cols), labels
    1-D, equal counts, at least one image. The pixels stay uint8 (see
    ``pixel_rows``)."""
    raw, labels = read_idx(images_path), read_idx(labels_path)
    for path, array, ndim in ((images_path, raw, 3), (labels_path, labels, 1)):
        if array.ndim != ndim:
            raise IdxFormatError(f"{path} holds a {array.ndim}-D array, want {ndim}-D")
    if len(raw) != len(labels):
        raise IdxFormatError(
            f"count mismatch: {len(raw)} images in {images_path} "
            f"but {len(labels)} labels in {labels_path}")
    if len(raw) == 0:
        raise IdxFormatError(f"no images in {images_path}")
    return Dataset(raw.reshape(len(raw), -1), labels)


def make_synthetic_digits(n, seed=7, side=16) -> Dataset:
    """Offline stand-in for MNIST (``side=28`` gives its shape): each of ten
    class prototypes sums Gaussian bumps at class-specific spots, so classes
    cluster in pixel space; images add brightness jitter and pixel noise."""
    rng = derive_rng(seed, "synthetic-digits")
    yy, xx = np.mgrid[0:side, 0:side]
    protos = np.zeros((N_CLASSES, side, side))
    for c in range(N_CLASSES):
        for _ in range(3):
            cy, cx = rng.uniform(2, side - 2, size=2)
            width = rng.uniform(1.2, 2.6)
            protos[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
        protos[c] /= protos[c].max()
    labels = rng.integers(N_CLASSES, size=n)
    brightness = rng.uniform(0.75, 1.0, size=n)[:, None, None]
    images = protos[labels] * brightness + 0.08 * rng.standard_normal((n, side, side))
    images = np.clip(images, 0.0, 1.0).reshape(n, side * side)
    return Dataset(images, labels)


def synthetic_splits(n_train, n_test, seed=7, side=16) -> tuple:
    """(train, test): the first ``n_train`` rows and the next ``n_test`` rows
    of one ``make_synthetic_digits`` draw, so both splits share its ten class
    prototypes (each seed draws its own)."""
    ds = make_synthetic_digits(n_train + n_test, seed, side)
    return tuple(Dataset(ds.images[rows], ds.labels[rows])
                 for rows in (slice(None, n_train), slice(n_train, None)))


def draw_noise(specs, shape, rng) -> tuple:
    """(u, z): the draws that every corruption spec in ``specs`` reads on a
    block of ``shape``, each None when no spec reads it. u, uniform in [0,1)
    (``bernoulli_mask``), is drawn first, when a spec masks; then z, standard
    normal (``gaussian``), when a spec adds Gaussian noise."""
    kinds = {spec.kind for spec in specs}
    u = bernoulli_mask(rng, *shape) if "mask" in kinds else None
    z = gaussian(rng, *shape) if "gaussian" in kinds else None
    return u, z


def apply_noise(x, spec: NoiseSpec, draws, out) -> np.ndarray:
    """Rows ``x`` corrupted at the level of ``spec`` from ``draw_noise``'s
    draws (u, z), written into ``out``, which may be the draw itself. Mask p
    is ``x * (u < 1 - p)``, so on one u a higher p zeroes a superset of the
    pixels of a lower one; Gaussian s is ``z * s + x``. ``none`` and mask 0
    change no pixel, and return ``x`` itself."""
    u, z = draws
    if spec.kind == "none" or spec.kind == "mask" and spec.level == 0.0:
        return x
    if spec.kind == "mask":
        return np.multiply(x, np.less(u, 1.0 - spec.level, out=out), out=out)
    return np.add(x, np.multiply(z, spec.level, out=out), out=out)


def corrupt(batch, noise: NoiseSpec, rng) -> np.ndarray:
    """Apply a corruption model; always returns a new array, never clips.

    The one-level case of the robustness sweep's shared draws: ``draw_noise``
    for this one spec, then ``apply_noise`` written over its own draw. So mask
    p is ``batch * (rng.random(shape) < 1 - p)`` and Gaussian s is
    ``rng.standard_normal(shape) * s + batch``; mask 0 still draws its u."""
    batch = as_matrix(batch)
    u, z = draws = draw_noise([noise], batch.shape, rng)
    out = apply_noise(batch, noise, draws, u if z is None else z)
    return batch.copy() if out is batch else out


def check_batch_size(batch_size, n):
    """Raise ConfigurationError(field="batch_size") unless 1 <= batch_size <= n rows."""
    check_range("batch_size", batch_size, 1, n,
                rule=f"batch_size must be between 1 and the dataset's {n} rows")


def batch_indices(n, batch_size, rng=None, shuffle=False):
    """Partition 0..n-1 into consecutive chunks; the last may be short."""
    check_batch_size(batch_size, n)
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def batches(ds: Dataset, batch_size, rng=None, shuffle=False):
    """Float64 image batches (see ``pixel_rows``) covering the dataset exactly
    once, in file order unless shuffled (each call draws one fresh
    permutation from rng)."""
    for idx in batch_indices(len(ds), batch_size, rng, shuffle):
        yield pixel_rows(ds.images, idx if shuffle else slice(idx[0], idx[-1] + 1))


def sample_subset(ds: Dataset, n, rng) -> np.ndarray:
    """The row numbers of n rows of ``ds``, drawn without replacement; index
    its pixels, labels or codes with them."""
    if n > len(ds):
        raise ValueError(f"cannot sample {n} from {len(ds)} points")
    return rng.choice(len(ds), size=int(n), replace=False)
