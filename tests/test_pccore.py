import numpy as np
import pytest

from gridifier.errors import ConfigError, DataError, ParseError
from gridifier.pccore import (
    GridSpec,
    PointCloud,
    make_grid_coords,
    read_cloud,
    write_cloud,
)


class TestGridCoords:
    def test_1d_inclusive_endpoints(self):
        spec = GridSpec(resolution=3, dim=1)
        got = make_grid_coords(spec)
        np.testing.assert_array_equal(got, [[-1.0], [0.0], [1.0]])

    def test_unit_square_corners_row_major(self):
        spec = GridSpec(resolution=2, dim=2)
        got = make_grid_coords(spec)
        np.testing.assert_array_equal(
            got, [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
        )

    def test_full_resolution_count(self):
        # 9 points per axis in 3-d -> 729 lattice points
        spec = GridSpec(resolution=9, dim=3)
        assert make_grid_coords(spec).shape == (729, 3)

    def test_single_point_axis_is_midpoint(self):
        spec = GridSpec(resolution=1, dim=2)
        np.testing.assert_array_equal(make_grid_coords(spec), [[0.0, 0.0]])
        assert spec.spacing == 2.0

    @pytest.mark.parametrize("r", [2, 3, 5, 8])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_count_and_exact_endpoints(self, r, dim):
        spec = GridSpec(resolution=r, dim=dim)
        coords = make_grid_coords(spec)
        assert coords.shape == (r**dim, dim)
        for axis in range(dim):
            assert coords[:, axis].min() == -1.0
            assert coords[:, axis].max() == 1.0

    def test_mixed_radix_flat_indexing(self):
        spec = GridSpec(resolution=4, dim=3)
        coords = make_grid_coords(spec)
        axis = np.linspace(-1.0, 1.0, 4)
        rng = np.random.default_rng(7)
        for i in rng.integers(0, 64, size=10):
            digits = (i // 16 % 4, i // 4 % 4, i % 4)
            np.testing.assert_array_equal(coords[i], axis[list(digits)])

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            GridSpec(resolution=0)
        with pytest.raises(ConfigError):
            GridSpec(resolution=3, dim=4)


class TestCloudValidation:
    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_empty_cloud_rejected(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((0, 3)), np.zeros((0, 1)))

    def test_arrays_frozen(self):
        cloud = PointCloud(np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            cloud.coords[0, 0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        # the cloud freezes copies it owns, not the arrays it was given
        coords, feats = np.zeros((3, 3)), np.ones((3, 1))
        cloud = PointCloud(coords, feats)
        assert cloud.coords is not coords and cloud.feats is not feats
        assert coords.flags.writeable and feats.flags.writeable
        coords[0, 0] = feats[0, 0] = 2.0
        np.testing.assert_array_equal(cloud.coords, np.zeros((3, 3)))
        np.testing.assert_array_equal(cloud.feats, np.ones((3, 1)))

    def test_nonfinite_coords_rejected(self):
        coords = np.array([[0.0, np.inf]])
        with pytest.raises(DataError):
            PointCloud(coords, np.zeros((1, 1)))

    def test_nonfinite_features_rejected(self):
        with pytest.raises(DataError, match="features"):
            PointCloud(np.zeros((2, 3)), np.array([[0.0], [np.nan]]))

    def test_grid_coords_match_spec(self):
        # adjacent lattice coordinates differ by the spec's spacing on every axis
        spec = GridSpec(resolution=3, dim=2)
        coords = make_grid_coords(spec).reshape(3, 3, 2)
        assert spec.spacing == 1.0
        np.testing.assert_array_equal(np.diff(coords[:, 0, 0]), [spec.spacing] * 2)
        np.testing.assert_array_equal(np.diff(coords[0, :, 1]), [spec.spacing] * 2)


class TestFileIO:
    def test_csv_three_points(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "D=3,F=1\n"
            "0.0,0.0,0.0,1.5\n"
            "1.0,0.0,0.0,-2.0\n"
            "0.0,1.0,0.0,0.25\n"
        )
        cloud = read_cloud(path)
        assert cloud.n_points == 3
        assert cloud.dim == 3
        np.testing.assert_array_equal(cloud.feats[:, 0], [1.5, -2.0, 0.25])

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.normal(size=(17, 3)), rng.normal(size=(17, 2)))
        path = tmp_path / "c.csv"
        write_cloud(cloud, path)
        back = read_cloud(path)
        np.testing.assert_allclose(back.coords, cloud.coords, rtol=1e-6)
        np.testing.assert_allclose(back.feats, cloud.feats, rtol=1e-6)

    def test_csv_row_length_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("D=3,F=0\n0.0,0.0,0.0\n0.0,1.0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_cloud(path)

    def test_csv_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("D=2,F=0\n0.0,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            read_cloud(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("N=3 D=3\n")
        with pytest.raises(ParseError, match="line 1"):
            read_cloud(path)

    @pytest.mark.parametrize("header", ["D=3,F=-1", "D=-1,F=3"])
    def test_csv_negative_header_count(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n0.5,0.25\n1.0,2.0\n")
        with pytest.raises(ParseError, match=f"line 1: negative count in header '{header}'"):
            read_cloud(path)

    def test_pcb_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        # float32-representable payload: the binary format stores f4
        coords = rng.normal(size=(33, 3)).astype(np.float32).astype(np.float64)
        feats = rng.normal(size=(33, 4)).astype(np.float32).astype(np.float64)
        cloud = PointCloud(coords, feats)
        path = tmp_path / "c.pcb"
        write_cloud(cloud, path)
        back = read_cloud(path)
        np.testing.assert_array_equal(back.coords, cloud.coords)
        np.testing.assert_array_equal(back.feats, cloud.feats)

    @pytest.mark.parametrize("seed", range(5))
    def test_pcb_round_trip_random_shapes(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        d = int(rng.choice([2, 3]))
        f = int(rng.integers(1, 6))
        coords = rng.uniform(-4, 4, (n, d)).astype(np.float32).astype(np.float64)
        feats = rng.uniform(-4, 4, (n, f)).astype(np.float32).astype(np.float64)
        path = tmp_path / "c.pcb"
        write_cloud(PointCloud(coords, feats), path)
        back = read_cloud(path)
        np.testing.assert_array_equal(back.coords, coords)
        np.testing.assert_array_equal(back.feats, feats)

    @pytest.mark.parametrize("name", ["coords", "feats"])
    def test_pcb_rejects_values_beyond_float32(self, tmp_path, name):
        # 1e39 is finite in float64 but would be stored as inf
        arrays = {"coords": np.zeros((2, 3)), "feats": np.zeros((2, 1))}
        arrays[name][1, 0] = 1e39
        path = tmp_path / "big.pcb"
        with pytest.raises(DataError, match=name):
            write_cloud(PointCloud(arrays["coords"], arrays["feats"]), path)
        assert not path.exists()

    def test_pcb_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcb"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ParseError, match="magic"):
            read_cloud(path)

    def test_pcb_truncated(self, tmp_path):
        path = tmp_path / "bad.pcb"
        path.write_bytes(b"PCB1" + np.array([5, 3, 1], "<u4").tobytes() + b"\x00" * 8)
        with pytest.raises(ParseError):
            read_cloud(path)

    def test_unknown_format(self, tmp_path):
        cloud = PointCloud(np.zeros((1, 2)), np.zeros((1, 1)))
        with pytest.raises(ConfigError):
            write_cloud(cloud, tmp_path / "c.xyz")
