"""Data pipeline: rasterization, downsampling, crops, synthesis, file formats."""

import hashlib

import numpy as np
import pytest

from icc import data as D
from icc.errors import DataError, ShapeError


class TestRasterize:
    def test_no_points(self):
        dm = D.rasterize([], 4, 4)
        assert dm.count == 0.0
        assert np.all(dm.values == 0)

    def test_three_distinct_pixels(self):
        dm = D.rasterize([(0.2, 0.7), (3.9, 1.0), (2.5, 3.5)], 4, 4)
        assert dm.count == 3.0
        assert dm.values.max() == 1.0

    def test_collision_accumulates(self):
        dm = D.rasterize([(1.2, 1.3), (1.8, 1.9)], 4, 4)
        assert dm.values[1, 1] == 2.0
        assert dm.count == 2.0

    def test_out_of_bounds_rejected_with_index(self):
        with pytest.raises(DataError, match="point 1"):
            D.rasterize([(0.0, 0.0), (4.0, 0.0)], 4, 4)


class TestDownsample:
    def test_block_membership(self):
        values = np.zeros((16, 16), dtype=np.float32)
        for y, x in [(0, 0), (3, 5), (9, 9)]:
            values[y, x] = 1.0
        out = D.downsample_by_8(D.DensityMap(values))
        assert np.array_equal(out.values, [[2.0, 0.0], [0.0, 1.0]])

    def test_all_zero(self):
        out = D.downsample_by_8(np.zeros((24, 24)))
        assert np.all(out.values == 0)

    def test_ragged_edges_zero_padded(self):
        values = np.ones((9, 17))
        out = D.downsample_by_8(values)
        assert out.values.shape == (2, 3)
        assert out.values.sum() == values.sum()

    def test_count_preserved_on_random_binary_maps(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, w = rng.integers(1, 64, 2)
            values = (rng.random((h, w)) < 0.1).astype(np.float32)
            out = D.downsample_by_8(values)
            assert out.values.sum() == values.sum()


class TestRandomCrop:
    def _annotated(self, seed=0, h=64, w=64, n=12):
        rng = np.random.default_rng(seed)
        points = [(float(x), float(y)) for x, y in
                  zip(rng.uniform(0, w - 1e-3, n), rng.uniform(0, h - 1e-3, n))]
        image = rng.random((3, h, w)).astype(np.float32)
        return D.AnnotatedImage(image=image, points=points, id=f"img{seed}")

    def test_full_image_crop_preserves_count(self):
        ann = self._annotated()
        s = D.random_crop(ann, 64, 64, np.random.default_rng(1))
        assert s.target.count == len(ann.points)
        assert s.offset == (0, 0)

    def test_crop_excluding_all_points(self):
        image = np.zeros((3, 32, 64), dtype=np.float32)
        ann = D.AnnotatedImage(image=image, points=[(60.0, 5.0)], id="corner")
        # points live in the right half; crop the left half
        rng = np.random.default_rng(0)
        s = D.random_crop(D.AnnotatedImage(image[:, :, :32], [], "left"), 32, 32, rng)
        assert s.target.count == 0
        del ann

    def test_deterministic_given_rng_state(self):
        ann = self._annotated(seed=3, h=96, w=96)
        a = D.random_crop(ann, 32, 32, np.random.default_rng(7))
        b = D.random_crop(ann, 32, 32, np.random.default_rng(7))
        assert a.offset == b.offset
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.target.values, b.target.values)

    def test_oversized_crop_rejected(self):
        ann = self._annotated(h=32, w=32)
        with pytest.raises(DataError, match="larger than image"):
            D.random_crop(ann, 64, 64, np.random.default_rng(0))

    def test_partition_property(self):
        # tiling crops of a fixed grid partition the total count exactly
        ann = self._annotated(seed=5, h=64, w=64, n=30)
        total = 0.0
        for top in (0, 32):
            for left in (0, 32):
                inside = [(x - left, y - top) for x, y in ann.points
                          if left <= x < left + 32 and top <= y < top + 32]
                total += D.downsample_by_8(D.rasterize(inside, 32, 32)).count
        assert total == len(ann.points)


class TestNormalize:
    def test_mean_input_maps_to_zero(self):
        image = np.broadcast_to(D.NORM_MEAN.reshape(3, 1, 1), (3, 5, 5)).astype(np.float32).copy()
        out = D.normalize(image)
        assert np.abs(out).max() < 1e-6

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        image = rng.random((3, 6, 6)).astype(np.float32)
        back = D.normalize(image) * D.NORM_STD.reshape(3, 1, 1) + D.NORM_MEAN.reshape(3, 1, 1)
        assert np.abs(back - image).max() < 1e-6

    def test_finite_output(self):
        out = D.normalize(np.ones((3, 4, 4), dtype=np.float32))
        assert np.isfinite(out).all()

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            D.normalize(np.ones((1, 4, 4)))


class TestSynthetic:
    def test_empty_dataset(self):
        assert D.generate_synthetic((5, 10), 64, 64, 0, 0) == []

    def test_counts_match_rasterization(self):
        images = D.generate_synthetic((3, 9), 48, 48, 6, seed=11)
        assert len(images) == 6
        for ann in images:
            dm = D.rasterize(ann.points, 48, 48)
            assert dm.count == len(ann.points)
            assert 3 <= len(ann.points) <= 9
            assert ann.image.min() >= 0.0 and ann.image.max() <= 1.0

    def test_distinct_seeds_distinct_images(self):
        a = D.generate_synthetic((2, 4), 32, 32, 3, seed=1)
        b = D.generate_synthetic((2, 4), 32, 32, 3, seed=2)
        ha = {hashlib.sha256(x.image.tobytes()).hexdigest() for x in a}
        hb = {hashlib.sha256(x.image.tobytes()).hexdigest() for x in b}
        assert ha.isdisjoint(hb)

    def test_same_seed_bit_identical(self):
        a = D.generate_synthetic((2, 4), 32, 32, 3, seed=9)
        b = D.generate_synthetic((2, 4), 32, 32, 3, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.image, y.image)
            assert x.points == y.points


class TestFileFormats:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        image = (rng.integers(0, 256, (3, 7, 9)) / 255.0).astype(np.float32)
        path = tmp_path / "img.ppm"
        D.write_ppm(path, image)
        back = D.read_ppm(path)
        assert back.shape == (3, 7, 9)
        assert np.abs(back - image).max() < 1e-6

    def test_ppm_with_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        img = D.read_ppm(path)
        assert img.shape == (3, 1, 2)

    def test_ppm_rejects_other_formats(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(DataError, match="P6"):
            D.read_ppm(path)

    def test_points_round_trip(self, tmp_path):
        points = [(1.25, 3.5), (0.0, 127.125)]
        path = tmp_path / "a.pts"
        D.write_points(path, points)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("ICCPTS 1\n")
        assert D.read_points(path) == points

    def test_points_header_required(self, tmp_path):
        path = tmp_path / "bad.pts"
        path.write_text("1.0 2.0\n")
        with pytest.raises(DataError, match="ICCPTS"):
            D.read_points(path)

    def test_density_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.random((5, 8)).astype(np.float32)
        path = tmp_path / "d.iccd"
        D.write_density(path, values)
        back = D.read_density(path)
        assert back.values.dtype == np.float32
        assert back.values.tobytes() == values.tobytes()

    def test_density_header(self, tmp_path):
        path = tmp_path / "d.iccd"
        D.write_density(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"ICCD"
        assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [1, 2, 3]

    def test_density_truncation_detected(self, tmp_path):
        path = tmp_path / "d.iccd"
        D.write_density(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            D.read_density(path)

    def test_dataset_round_trip(self, tmp_path):
        images = D.generate_synthetic((2, 5), 40, 40, 4, seed=21)
        D.save_dataset(images, tmp_path / "ds")
        back = D.load_dataset(tmp_path / "ds")
        assert len(back) == 4
        for orig, re in zip(images, back):
            assert orig.id == re.id
            assert len(orig.points) == len(re.points)
            # quantized to 8-bit pixels, so close but not exact
            assert np.abs(orig.image - re.image).max() < 1 / 255.0 + 1e-6

    def test_missing_annotation_file(self, tmp_path):
        images = D.generate_synthetic((2, 3), 32, 32, 1, seed=5)
        D.save_dataset(images, tmp_path)
        (tmp_path / f"{images[0].id}.pts").unlink()
        with pytest.raises(DataError, match="missing annotation"):
            D.load_dataset(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataError, match="no .ppm images"):
            D.load_dataset(tmp_path)
