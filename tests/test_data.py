import struct

import numpy as np
import pytest

from imae.data import (Dataset, NoiseSpec, batch_indices, batches, check_batch_size, corrupt,
                       load_idx, make_synthetic_digits, pixel_rows, read_idx, sample_subset,
                       synthetic_splits, write_idx)
from imae.errors import ConfigurationError, IdxFormatError
from imae.ndcore import derive_rng
from imae.reference import GAUSSIAN_GRID, MASK_GRID


def minimal_idx_reader(images_path, labels_path):
    """Independent reference parser: struct-by-struct, no shared code."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", f.read(16))
        assert magic == 0x803
        pixels = [struct.unpack("B", f.read(1))[0] for _ in range(count * rows * cols)]
    with open(labels_path, "rb") as f:
        magic, n = struct.unpack(">II", f.read(8))
        assert magic == 0x801
        labels = list(f.read(n))
    return pixels, labels


@pytest.fixture
def idx_pair(tmp_path):
    rng = derive_rng(11)
    images = rng.integers(0, 256, size=(32, 5, 5)).astype(np.uint8)
    labels = rng.integers(0, 10, size=32).astype(np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(ip, images)
    write_idx(lp, labels)
    return ip, lp, images, labels


class TestIdxIo:
    def test_load_normalizes_and_counts(self, idx_pair):
        ip, lp, images, labels = idx_pair
        ds = load_idx(ip, lp)
        assert ds.images.shape == (32, 25) and ds.images.dtype == np.uint8
        x = pixel_rows(ds.images)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert np.array_equal(ds.labels, labels)
        np.testing.assert_allclose(x[0], images[0].reshape(-1) / 255.0)

    def test_first_label_matches_independent_reader(self, idx_pair):
        ip, lp, images, labels = idx_pair
        pixels, ref_labels = minimal_idx_reader(ip, lp)
        ds = load_idx(ip, lp)
        assert ds.labels[0] == ref_labels[0]
        assert pixels[:25] == list((pixel_rows(ds.images, 0) * 255).round().astype(int))

    def test_round_trip_bytes_exact(self, idx_pair, tmp_path):
        ip, lp, images, _ = idx_pair
        ds = load_idx(ip, lp)
        back = (pixel_rows(ds.images) * 255.0).round().astype(np.uint8).reshape(32, 5, 5)
        out = tmp_path / "roundtrip.idx"
        write_idx(out, back)
        assert out.read_bytes() == ip.read_bytes()

    def test_integer_input_writes_the_uint8_bytes(self, idx_pair, tmp_path):
        ip, lp, images, labels = idx_pair
        wide_ip, wide_lp = tmp_path / "wide-images.idx", tmp_path / "wide-labels.idx"
        write_idx(wide_ip, images.astype(np.int64))
        write_idx(wide_lp, labels.astype(np.int64))
        assert wide_ip.read_bytes() == ip.read_bytes()
        assert wide_lp.read_bytes() == lp.read_bytes()

    @pytest.mark.parametrize("values, message", [
        (np.full((2, 3, 3), 0.5), "values must be integers in 0..255, got float64"),
        (np.full((2, 3, 3), 256), "values outside 0..255: min=256, max=256"),
        (np.full((2, 3, 3), -1), "values outside 0..255: min=-1, max=-1"),
    ])
    def test_images_a_uint8_cast_would_change_are_rejected(self, tmp_path, values, message):
        # float pixels in [0,1] would become zeros and ones, and 256 would wrap to 0
        path = tmp_path / "images.idx"
        with pytest.raises(IdxFormatError) as info:
            write_idx(path, values)
        assert str(info.value) == f"{path}: {message}"
        assert isinstance(info.value, ValueError)
        assert not path.exists()

    @pytest.mark.parametrize("labels", [np.array([1.0, 2.0]), np.array([3, 256])])
    def test_labels_a_uint8_cast_would_change_are_rejected(self, tmp_path, labels):
        path = tmp_path / "labels.idx"
        with pytest.raises(IdxFormatError, match=f"^{path}: values "):
            write_idx(path, labels)
        assert not path.exists()

    def test_bad_magic_rejected_naming_value(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        bad = tmp_path / "bad.idx"
        payload = bytearray(ip.read_bytes())
        payload[:4] = struct.pack(">I", 0xDEADBEEF)
        bad.write_bytes(bytes(payload))
        with pytest.raises(IdxFormatError, match="0xdeadbeef"):
            read_idx(bad)

    def test_magic_of_another_element_type_rejected_naming_file(self, idx_pair, tmp_path):
        # 0x0D is IDX's 32-bit float type: a well-formed IDX magic, but not unsigned bytes
        ip, _, _, _ = idx_pair
        floats = tmp_path / "floats.idx"
        floats.write_bytes(struct.pack(">I", 0x00000D03) + ip.read_bytes()[4:])
        with pytest.raises(IdxFormatError,
                           match=r"^bad IDX magic in .*floats\.idx: got 0x00000d03, "):
            read_idx(floats)

    @pytest.mark.parametrize("shape, header", [
        ((10000, 28, 28), (0x00000803, 10000, 28, 28)),
        ((10000,), (0x00000801, 10000)),
    ], ids=["images", "labels"])
    def test_round_trip_at_mnist_test_shape(self, tmp_path, shape, header):
        # the 10 000-image MNIST test split: t10k-images-idx3-ubyte and its labels
        values = derive_rng(12).integers(0, 256 if len(shape) > 1 else 10, size=shape,
                                         dtype=np.uint8)
        path = tmp_path / "split.idx"
        write_idx(path, values)
        raw = path.read_bytes()
        assert struct.unpack(f">{len(header)}I", raw[:4 * len(header)]) == header
        assert len(raw) == 4 * len(header) + values.size
        back = read_idx(path)
        assert back.dtype == np.uint8 and np.array_equal(back, values)

    def test_two_dimensional_labels_are_a_valid_file_but_no_label_file(self, idx_pair, tmp_path):
        ip, _, _, _ = idx_pair
        lp = tmp_path / "labels-2d.idx"
        labels = np.arange(32, dtype=np.uint8).reshape(16, 2) % 10
        write_idx(lp, labels)
        assert struct.unpack(">III", lp.read_bytes()[:12]) == (0x00000802, 16, 2)
        assert np.array_equal(read_idx(lp), labels)
        with pytest.raises(IdxFormatError, match=r"labels-2d\.idx holds a 2-D array, want 1-D$"):
            load_idx(ip, lp)

    def test_swapped_pair_rejected_naming_the_images_slot(self, idx_pair):
        ip, lp, _, _ = idx_pair
        with pytest.raises(IdxFormatError) as info:
            load_idx(lp, ip)
        assert str(info.value) == f"{lp} holds a 1-D array, want 3-D"

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        ip, _, _, _ = idx_pair
        lp2 = tmp_path / "short.idx"
        write_idx(lp2, np.zeros(10, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(ip, lp2)

    def test_empty_pair_rejected_naming_file(self, tmp_path):
        ip, lp = tmp_path / "empty-images.idx", tmp_path / "empty-labels.idx"
        write_idx(ip, np.zeros((0, 28, 28), dtype=np.uint8))
        write_idx(lp, np.zeros(0, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match=r"no images in .*empty-images\.idx"):
            load_idx(ip, lp)

    def test_truncated_file_is_io_error(self, idx_pair, tmp_path):
        ip, _, _, _ = idx_pair
        cut = tmp_path / "cut.idx"
        cut.write_bytes(ip.read_bytes()[:40])
        with pytest.raises(IOError, match=r"truncated file .*cut\.idx.*data"):
            read_idx(cut)

    def test_oversized_header_is_io_error(self, idx_pair, tmp_path):
        # count, rows and cols of 0xFFFFFFFF: refused before any read of that size
        ip, _, _, _ = idx_pair
        huge = tmp_path / "huge.idx"
        huge.write_bytes(ip.read_bytes()[:4] + b"\xff" * 12 + ip.read_bytes()[16:])
        with pytest.raises(IOError, match=r"truncated file .*huge\.idx: expected \d+ bytes "
                                          r"for data, got 800$"):
            read_idx(huge)

    @pytest.mark.parametrize("which,header", [(0, 16), (1, 8)], ids=["images", "labels"])
    def test_bytes_past_payload_rejected(self, idx_pair, tmp_path, which, header):
        # a header that declares fewer items than the file holds
        path = idx_pair[which]
        long = tmp_path / "long.idx"
        long.write_bytes(path.read_bytes() + b"\x00\x07")
        declared = header + (32 * 25 if which == 0 else 32)
        with pytest.raises(IdxFormatError,
                           match=rf"long\.idx: header declares {declared} bytes, "
                                 rf"file has {declared + 2}"):
            read_idx(long)

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(IdxFormatError):
            Dataset(np.zeros((2, 4)), [0, 11])


class TestCorrupt:
    def test_none_is_identity_copy(self, rng):
        x = rng.random((5, 8))
        out = corrupt(x, NoiseSpec("none"), derive_rng(1))
        assert np.array_equal(out, x)
        assert out is not x

    def test_mask_one_zeroes_everything(self, rng):
        x = rng.random((5, 8)) + 0.5
        out = corrupt(x, NoiseSpec("mask", 1.0), derive_rng(1))
        assert np.array_equal(out, np.zeros_like(x))

    def test_gaussian_moment(self):
        x = np.zeros((1000, 100))
        out = corrupt(x, NoiseSpec("gaussian", 0.3), derive_rng(2))
        assert abs((out - x).std() - 0.3) < 0.005

    def test_never_mutates_input(self, rng):
        x = rng.random((4, 6))
        snapshot = x.copy()
        for spec in (NoiseSpec("none"), NoiseSpec("mask", 0.5), NoiseSpec("gaussian", 0.3)):
            corrupt(x, spec, derive_rng(3))
        assert np.array_equal(x, snapshot)

    def test_mask_equals_product_formula(self, rng):
        x = rng.random((300, 784))
        snapshot = x.copy()
        out = corrupt(x, NoiseSpec("mask", 0.3), derive_rng(5))
        keep = (derive_rng(5).random(size=x.shape) < 0.7).astype(np.float64)
        assert np.array_equal(out, x * keep)
        assert np.array_equal(x, snapshot)

    def test_gaussian_equals_normal_formula(self, rng):
        x = rng.random((300, 784))
        snapshot = x.copy()
        out = corrupt(x, NoiseSpec("gaussian", 0.2), derive_rng(6))
        assert np.array_equal(out, x + derive_rng(6).normal(loc=0.0, scale=0.2, size=x.shape))
        assert np.array_equal(x, snapshot)

    @pytest.mark.parametrize("spec", [NoiseSpec("mask", p) for p in MASK_GRID]
                             + [NoiseSpec("gaussian", s) for s in GAUSSIAN_GRID],
                             ids=NoiseSpec.describe)
    def test_bytes_equal_the_level_formula(self, spec):
        # training corruption: a change here moves every denoising checkpoint
        raw = derive_rng(8).integers(0, 256, size=(500, 784)).astype(np.uint8)
        raw[raw < 96] = 0
        x = pixel_rows(raw)
        rng, expected_rng = derive_rng(9), derive_rng(9)
        out = corrupt(x, spec, rng)
        if spec.kind == "mask":
            expected = x * (expected_rng.random(x.shape) < 1.0 - spec.level)
        else:
            expected = expected_rng.standard_normal(x.shape) * spec.level + x
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_gaussian_leaves_unit_interval(self, digits_test):
        out = corrupt(digits_test.images, NoiseSpec("gaussian", 0.3), derive_rng(4))
        assert (out < 0).any()  # no clipping

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("mask", 1.5)
        with pytest.raises(ValueError):
            NoiseSpec("salt", 0.1)


@pytest.mark.parametrize("check, field", [
    (lambda: NoiseSpec("mask", 1.5), "level"),
    (lambda: NoiseSpec("gaussian", -1), "level"),
    (lambda: NoiseSpec("salt", 0.1), "kind"),
    (lambda: check_batch_size(0, 10), "batch_size"),
    (lambda: check_batch_size(11, 10), "batch_size"),
])
def test_setting_error_names_its_field(check, field):
    # the caller maps the field to its own name for the setting (cli: a config
    # key); the error stays a ValueError for library callers
    with pytest.raises(ConfigurationError) as info:
        check()
    assert info.value.field == field
    assert isinstance(info.value, ValueError)


class TestBatches:
    def test_paper_protocol_counts(self):
        chunks = list(batch_indices(60000, 500))
        assert len(chunks) == 120
        assert all(len(c) == 500 for c in chunks)

    def test_file_order_without_shuffle(self, digits_train):
        got = list(batches(digits_train, 400))
        assert len(got) == 4  # 1500 -> 400,400,400,300
        np.testing.assert_array_equal(got[0], digits_train.images[:400])
        assert len(got[-1]) == 300
        assert not any(np.shares_memory(b, digits_train.images) for b in got)  # owned rows

    def test_partition_property_with_shuffle(self):
        idx = np.concatenate(list(batch_indices(997, 100, derive_rng(5), shuffle=True)))
        assert sorted(idx) == list(range(997))

    def test_shuffle_deterministic_per_epoch(self):
        r1, r2 = derive_rng(6), derive_rng(6)
        e1 = [np.concatenate(list(batch_indices(50, 7, r, True))) for r in (r1,)]
        e2 = [np.concatenate(list(batch_indices(50, 7, r, True))) for r in (r2,)]
        assert np.array_equal(e1[0], e2[0])

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_indices(10, 0))
        with pytest.raises(ValueError):
            list(batch_indices(10, 11))


class TestSampleSubset:
    def test_full_draw_is_permutation(self, digits_test):
        rows = sample_subset(digits_test, len(digits_test), derive_rng(7))
        assert np.array_equal(np.sort(rows), np.arange(len(digits_test)))

    def test_fixed_seed_reproducible(self, digits_test):
        a = sample_subset(digits_test, 100, derive_rng(8))
        b = sample_subset(digits_test, 100, derive_rng(8))
        assert np.array_equal(a, b)

    def test_class_histogram_concentrates(self, digits_test):
        rows = sample_subset(digits_test, 1000, derive_rng(9))
        counts = np.bincount(digits_test.labels[rows], minlength=10)
        assert counts.min() >= 60 and counts.max() <= 140

    def test_oversample_rejected(self, digits_test):
        with pytest.raises(ValueError):
            sample_subset(digits_test, len(digits_test) + 1, derive_rng(1))


class TestSyntheticSplits:
    def test_rows_of_one_draw(self):
        whole = make_synthetic_digits(50, seed=3, side=8)
        train, test = synthetic_splits(30, 20, seed=3, side=8)
        assert np.array_equal(np.vstack([train.images, test.images]), whole.images)
        assert np.array_equal(np.concatenate([train.labels, test.labels]), whole.labels)

    def test_splits_share_class_prototypes(self):
        # two seeds draw two sets of classes; one draw's splits share its set
        train, test = synthetic_splits(600, 600, seed=7)
        other = make_synthetic_digits(600, seed=8)

        def class_means(ds):
            return np.array([ds.images[ds.labels == c].mean(axis=0) for c in range(10)])

        same = [np.corrcoef(a, b)[0, 1] for a, b in zip(class_means(train), class_means(test))]
        apart = [np.corrcoef(a, b)[0, 1] for a, b in zip(class_means(train), class_means(other))]
        assert min(same) > 0.95
        assert max(apart) < 0.95
