"""Dataset decoding, the synthetic stripe set, and train-time augmentation."""

import logging

import numpy as np
import pytest
from scipy import stats

from gaternet.data import (
    CIFAR_RECORD,
    PAD,
    DataError,
    DatasetDescriptor,
    augment,
    hflip,
    load_cifar10_binary,
    load_dataset,
    normalize,
    pad_crop,
    synthetic_dataset,
)
from gaternet.model import ConfigError


def make_record(label: int, r00=None, g00=None, b_last=None, fill=0) -> bytes:
    """One binary record: label byte, then R/G/B planes of 1024 bytes."""
    body = np.full(3072, fill, dtype=np.uint8)
    if r00 is not None:
        body[0] = r00            # R plane, pixel (0, 0)
    if g00 is not None:
        body[1024] = g00         # G plane, pixel (0, 0)
    if b_last is not None:
        body[2048 + 1023] = b_last  # B plane, pixel (31, 31)
    return bytes([label]) + body.tobytes()


class TestCifarDecoding:
    def test_record_length_constant(self):
        assert CIFAR_RECORD == 1 + 3 * 32 * 32

    def test_two_record_round_trip(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(make_record(3, r00=255, g00=128, b_last=64)
                         + make_record(9, fill=17))
        x, y = load_cifar10_binary([path], mean=(0.5, 0.5, 0.5),
                                   std=(0.25, 0.25, 0.25))
        assert x.shape == (2, 3, 32, 32) and x.dtype == np.float32
        assert y.tolist() == [3, 9]
        # byte 255 -> 1.0 -> (1.0 - 0.5) / 0.25 = 2.0, exactly
        assert x[0, 0, 0, 0] == 2.0
        # single-precision arithmetic: allow float32-scale rounding
        assert x[0, 1, 0, 0] == pytest.approx((128 / 255 - 0.5) / 0.25, abs=1e-6)
        assert x[0, 2, 31, 31] == pytest.approx((64 / 255 - 0.5) / 0.25, abs=1e-6)
        # untouched bytes are 0 -> (0 - 0.5) / 0.25 = -2.0
        assert x[0, 0, 5, 7] == -2.0
        assert np.all(x[1] == x[1, 0, 0, 0])
        assert x[1, 0, 0, 0] == pytest.approx((17 / 255 - 0.5) / 0.25, abs=1e-6)

    def test_multiple_files_concatenate_in_order(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(make_record(1))
        b.write_bytes(make_record(2) + make_record(0))
        _, y = load_cifar10_binary([a, b], (0, 0, 0), (1, 1, 1))
        assert y.tolist() == [1, 2, 0]

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(make_record(0) + make_record(1)[:-5])
        with pytest.raises(DataError, match=r"byte offset 3073"):
            load_cifar10_binary([path], (0, 0, 0), (1, 1, 1))

    def test_bad_label_reports_record_offset(self, tmp_path):
        path = tmp_path / "label.bin"
        path.write_bytes(make_record(0) + make_record(10))
        with pytest.raises(DataError, match=r"label byte 10.*offset 3073"):
            load_cifar10_binary([path], (0, 0, 0), (1, 1, 1))

    def test_empty_file_warns_and_is_skipped(self, tmp_path, caplog):
        empty, full = tmp_path / "empty.bin", tmp_path / "full.bin"
        empty.write_bytes(b"")
        full.write_bytes(make_record(7))
        x, y = load_cifar10_binary([empty, full], (0, 0, 0), (1, 1, 1))
        # a logged warning, not a Python warning (the suite turns those
        # into errors)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, f"empty dataset file: {empty}")]
        assert x.shape == (1, 3, 32, 32)
        assert y.tolist() == [7]

    def test_all_empty_gives_zero_records(self, tmp_path, caplog):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        x, y = load_cifar10_binary([empty], (0, 0, 0), (1, 1, 1))
        assert [r.getMessage() for r in caplog.records] == [
            f"empty dataset file: {empty}"]
        assert x.shape == (0, 3, 32, 32)
        assert y.shape == (0,)


class TestNormalize:
    def test_per_channel(self):
        x = np.ones((1, 2, 2, 2), dtype=np.float32)
        out = normalize(x, mean=(1.0, 0.5), std=(1.0, 0.25))
        assert np.all(out[0, 0] == 0.0)
        assert np.all(out[0, 1] == 2.0)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("mean,std", [
        ((1e300,), (1.0,)),   # mean overflows float32
        ((0.0,), (1e300,)),   # so does std, which would zero every image
        ((0.0,), (1e-40,)),   # a subnormal std: the quotient overflows
    ])
    def test_rejects_values_that_overflow_float32(self, mean, std):
        # refused with no numpy warning (the suite turns warnings into errors)
        with pytest.raises(DataError, match="not finite in float32"):
            normalize(np.ones((1, 1, 2, 2), np.float32), mean, std)


class TestSynthetic:
    def test_deterministic(self):
        a_x, a_y = synthetic_dataset(5, 20, 4, image_size=8, noise=0.3)
        b_x, b_y = synthetic_dataset(5, 20, 4, image_size=8, noise=0.3)
        c_x, _ = synthetic_dataset(6, 20, 4, image_size=8, noise=0.3)
        assert np.array_equal(a_x, b_x) and np.array_equal(a_y, b_y)
        assert not np.array_equal(a_x, c_x)

    def test_shapes_and_labels(self):
        x, y = synthetic_dataset(0, 10, 3, image_size=8, noise=0.25)
        assert x.shape == (10, 3, 8, 8) and x.dtype == np.float32
        assert y.dtype == np.int64
        assert y.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
        counts = np.bincount(y, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert np.all(np.isfinite(x))

    def test_validation(self):
        # synthetic_dataset takes its sizes from a DatasetDescriptor, which
        # refuses an empty split or fewer than two classes
        for kw in ({"train_size": 0}, {"eval_size": 0}, {"num_classes": 1}):
            with pytest.raises(DataError):
                DatasetDescriptor(kind="synthetic", **{
                    "num_classes": 3, "train_size": 5, "eval_size": 5, **kw})

    def test_classes_are_visibly_distinct_without_noise(self):
        x, y = synthetic_dataset(1, 8, 4, image_size=16, noise=0.0)
        # same class, different phase: highly correlated stripe layout is
        # not required, but different classes must not be identical images
        assert not np.array_equal(x[0], x[1])
        assert not np.array_equal(x[0], x[2])


class TestAugmentation:
    def test_hflip_is_involution(self):
        img = np.random.default_rng(0).standard_normal((3, 5, 7)).astype(np.float32)
        assert np.array_equal(hflip(hflip(img)), img)
        assert np.array_equal(hflip(img)[:, :, 0], img[:, :, -1])
        assert not np.array_equal(hflip(img), img)

    def test_pad_crop_center_is_identity(self):
        img = np.random.default_rng(1).standard_normal((3, 6, 6)).astype(np.float32)
        assert np.array_equal(pad_crop(img, 2, 2, 2), img)

    def test_pad_crop_shift(self):
        img = np.arange(2 * 4 * 4, dtype=np.float32).reshape(2, 4, 4)
        out = pad_crop(img, 2, 0, 0)
        # cropping at the top-left corner pushes content down and right
        assert np.all(out[:, :2, :] == 0.0)
        assert np.all(out[:, :, :2] == 0.0)
        assert np.array_equal(out[:, 2:, 2:], img[:, :2, :2])
        assert out.shape == img.shape

    def test_draw_order_is_replayable(self):
        img = np.random.default_rng(2).standard_normal((3, 9, 9)).astype(np.float32)
        got = augment(img, np.random.default_rng(3), random_crop=True,
                      mirror=True)
        rng = np.random.default_rng(3)
        oy = int(rng.integers(0, 2 * PAD + 1))
        ox = int(rng.integers(0, 2 * PAD + 1))
        expect = pad_crop(img, PAD, oy, ox)
        if rng.random() < 0.5:
            expect = hflip(expect)
        assert np.array_equal(got, expect)

    def test_no_augmentation_is_identity(self):
        img = np.random.default_rng(4).standard_normal((3, 5, 5)).astype(np.float32)
        out = augment(img, np.random.default_rng(5), random_crop=False,
                      mirror=False)
        assert np.array_equal(out, img)

    def test_mirror_rate_is_about_half(self):
        img = np.zeros((1, 2, 2), dtype=np.float32)
        img[0, 0, 0] = 1.0
        rng = np.random.default_rng(6)
        flips = sum(
            augment(img, rng, random_crop=False, mirror=True)[0, 0, 1] == 1.0
            for _ in range(4000)
        )
        assert flips / 4000 == pytest.approx(0.5, abs=0.03)

    def test_crop_offsets_cover_grid_uniformly(self):
        # a lone marker pixel makes the drawn offset recoverable from the
        # output, so the full 9x9 offset grid can be tested for uniformity
        size = 2 * PAD + 1
        img = np.zeros((1, size, size), dtype=np.float32)
        img[0, PAD, PAD] = 1.0
        rng = np.random.default_rng(7)
        counts = np.zeros((size, size), dtype=np.int64)
        for _ in range(10000):
            out = augment(img, rng, random_crop=True, mirror=False)
            flat = int(out[0].argmax())
            y, x = divmod(flat, size)
            counts[2 * PAD - y, 2 * PAD - x] += 1
        assert counts.sum() == 10000
        assert np.all(counts > 0)  # every offset, both bounds inclusive
        result = stats.chisquare(counts.ravel())
        assert result.pvalue > 1e-3


class TestLoadDataset:
    def test_synthetic_splits(self):
        desc = DatasetDescriptor(kind="synthetic", num_classes=3,
                                 train_size=30, eval_size=12, image_size=8,
                                 noise=0.5, mean=(0.1, 0.1, 0.1),
                                 std=(2.0, 2.0, 2.0))
        splits = load_dataset(desc, seed=9)
        assert splits.train_x.shape == (30, 3, 8, 8)
        assert splits.eval_x.shape == (12, 3, 8, 8)
        assert splits.descriptor is desc
        again = load_dataset(desc, seed=9)
        assert np.array_equal(splits.train_x, again.train_x)
        assert np.array_equal(splits.eval_y, again.eval_y)

    def test_synthetic_noise_that_overflows_float32_is_a_config_error(self):
        desc = DatasetDescriptor(kind="synthetic", num_classes=3, train_size=4,
                                 eval_size=2, image_size=4, noise=1e300)
        with pytest.raises(ConfigError, match="^dataset: noise 1e[+]300 gives "
                                              "images that are not finite"):
            load_dataset(desc, seed=0)

    def test_cifar_splits(self, tmp_path):
        train, evalf = tmp_path / "train.bin", tmp_path / "eval.bin"
        train.write_bytes(make_record(1) + make_record(4))
        evalf.write_bytes(make_record(2))
        desc = DatasetDescriptor(kind="cifar10", train_paths=(str(train),),
                                 eval_path=str(evalf))
        splits = load_dataset(desc, seed=0)
        assert splits.train_y.tolist() == [1, 4]
        assert splits.eval_y.tolist() == [2]

    @pytest.mark.parametrize("empty_split", ["train", "eval"])
    def test_cifar_empty_split_is_data_error(self, tmp_path, caplog, empty_split):
        full, empty = tmp_path / "full.bin", tmp_path / "empty.bin"
        full.write_bytes(make_record(3))
        empty.write_bytes(b"")
        train, evalf = (empty, full) if empty_split == "train" else (full, empty)
        desc = DatasetDescriptor(kind="cifar10", train_paths=(str(train),),
                                 eval_path=str(evalf))
        with pytest.raises(DataError, match=f"{empty_split} split has no records"):
            load_dataset(desc, seed=0)
        assert [r.getMessage() for r in caplog.records] == [
            f"empty dataset file: {empty}"]

    @pytest.mark.parametrize("std", [1e-300, -1e-300, 2.0 ** -150])
    def test_std_that_rounds_to_zero_in_float32_is_refused(self, std):
        # images are normalized in float32, so a float64 std that rounds to
        # 0 there would divide by zero
        with pytest.raises(DataError, match="positive in float32"):
            DatasetDescriptor(kind="synthetic", num_classes=3, train_size=5,
                              eval_size=5, std=(std, 1.0, 1.0))
        # the smallest float32 subnormal is still positive
        DatasetDescriptor(kind="synthetic", num_classes=3, train_size=5,
                          eval_size=5, std=(2.0 ** -149, 1.0, 1.0))

    def test_descriptor_validation(self):
        with pytest.raises(DataError):
            DatasetDescriptor(kind="imagenet")
        with pytest.raises(DataError):
            DatasetDescriptor(kind="synthetic", num_classes=3, train_size=0,
                              eval_size=5)
        with pytest.raises(DataError):
            DatasetDescriptor(kind="synthetic", num_classes=3, train_size=5,
                              eval_size=5, std=(1.0, 0.0, 1.0))
        with pytest.raises(DataError):
            DatasetDescriptor(kind="synthetic", num_classes=3, train_size=5,
                              eval_size=5, noise=-0.1)
