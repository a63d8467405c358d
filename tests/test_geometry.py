import math
import tracemalloc

import numpy as np
import pytest

from nldrop import geometry
from nldrop.errors import ParameterError, PreconditionError, ShapeFormatError
from nldrop.geometry import (
    BallConfig,
    VoxelShape,
    ball_of_volume,
    balls_from_csv,
    balls_to_csv,
    empty_ball_config,
    indicator,
    is_empty,
    random_blob,
    random_disjoint_pair,
    scale,
    translate,
    unit_ball_volume,
    unit_sphere_area,
    volume,
    voxel_from_text,
    voxel_to_text,
)


class TestSphereConstants:
    def test_values(self):
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_ball_is_sphere_over_dimension(self):
        for N in (2, 3):
            assert unit_ball_volume(N) == pytest.approx(
                unit_sphere_area(N) / N, rel=1e-14
            )


def square_voxel(n=16, extent=1.0, dim=2):
    occ = np.ones((n,) * dim, dtype=bool)
    return VoxelShape(
        dimension=dim,
        origin=np.full(dim, -0.5 * extent),
        spacing=extent / n,
        occupancy=occ,
    )


class TestShapes:
    def test_ball_volume(self):
        b = BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([2.0]))
        assert volume(b) == pytest.approx(math.pi * 4.0, rel=1e-14)

    @pytest.mark.parametrize("N", [1, 4])
    def test_ball_dimension_outside_two_and_three_refused(self, N):
        # the radial reductions have a 2-D and a 3-D branch only
        with pytest.raises(ParameterError, match="dimension 2 or 3"):
            BallConfig(dimension=N, centers=np.zeros((1, N)), radii=np.array([1.0]))
        with pytest.raises(ParameterError, match="dimension 2 or 3"):
            ball_of_volume(N, 1.0)

    def test_ball_of_volume_round_trip(self):
        m = 7.3
        b = ball_of_volume(3, m)
        assert volume(b) == pytest.approx(m, rel=1e-13)

    def test_voxel_volume(self):
        v = square_voxel(8)
        assert volume(v) == pytest.approx(1.0, rel=1e-13)

    def test_indicator_ball(self):
        b = BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([1.0]))
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [0.9, 0.9]])
        assert list(indicator(b, pts)) == [True, True, False]

    def test_overlapping_balls_rejected_when_disjoint(self):
        with pytest.raises(PreconditionError, match="balls 0 and 1 are not disjoint"):
            BallConfig(
                dimension=2,
                centers=np.array([[0.0, 0.0], [0.5, 0.0]]),
                radii=np.array([1.0, 1.0]),
            )
        with pytest.raises(PreconditionError, match="balls 0 and 1 are not disjoint"):
            balls_from_csv("c0,c1,radius\n0,0,1\n0.5,0,1\n")

    def test_no_disjointness_opt_out(self):
        # every ball configuration is disjoint: there is no flag to waive it
        with pytest.raises(TypeError):
            BallConfig(
                dimension=2,
                centers=np.array([[0.0, 0.0], [0.5, 0.0]]),
                radii=np.array([1.0, 1.0]),
                disjoint=False,
            )

    def test_empty(self):
        assert is_empty(empty_ball_config(3))
        assert not is_empty(square_voxel())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_balls_refused(self, bad):
        with pytest.raises(ParameterError, match="centers must be finite"):
            BallConfig(dimension=2, centers=np.array([[bad, 0.0]]), radii=np.array([1.0]))
        with pytest.raises(ParameterError, match="radii must be finite"):
            BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([abs(bad)]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_voxels_refused(self, bad):
        occ = np.ones((2, 2), dtype=bool)
        with pytest.raises(ParameterError, match="origin must be finite"):
            VoxelShape(dimension=2, origin=np.array([0.0, bad]), spacing=1.0, occupancy=occ)
        with pytest.raises(ParameterError, match="spacing must be finite"):
            VoxelShape(dimension=2, origin=np.zeros(2), spacing=abs(bad), occupancy=occ)


class TestTransforms:
    def test_translate_preserves_volume(self):
        v = square_voxel(12)
        moved = translate(v, np.array([0.3, -0.7]))
        assert volume(moved) == pytest.approx(volume(v), rel=1e-14)

    def test_scale_volume_power(self):
        v = square_voxel(12)
        lam = 1.7
        assert volume(scale(v, lam)) == pytest.approx(lam ** 2 * volume(v), rel=1e-13)
        b = ball_of_volume(3, 2.0)
        assert volume(scale(b, lam)) == pytest.approx(lam ** 3 * 2.0, rel=1e-13)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            scale(square_voxel(), 0.0)
        with pytest.raises(ParameterError):
            scale(ball_of_volume(2, math.pi), -1.0)

    @pytest.mark.parametrize("lam", [-1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["voxel", "ball"])
    def test_scale_rejects_bad_factor(self, kind, lam):
        shape = square_voxel() if kind == "voxel" else ball_of_volume(2, math.pi)
        with pytest.raises(ParameterError, match="scale factor must be positive"):
            scale(shape, lam)

    def test_voxel_scale_is_exact_resampling_free(self):
        v = square_voxel(10)
        w = scale(v, 2.0)
        assert isinstance(w, VoxelShape)
        assert w.count == v.count
        assert w.spacing == pytest.approx(2.0 * v.spacing, rel=1e-15)


class TestRandomShapes:
    def test_blob_seeded_and_nonempty(self):
        a = random_blob(2, np.random.default_rng(4), grid_n=32)
        b = random_blob(2, np.random.default_rng(4), grid_n=32)
        assert np.array_equal(a.occupancy, b.occupancy)
        assert a.count > 0

    def test_blob_volume_cap(self):
        blob = random_blob(2, np.random.default_rng(1), grid_n=32, volume_cap=0.05)
        assert volume(blob) <= 0.05 * 0.9 + 1e-12

    def test_disjoint_pair(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            left, right = random_disjoint_pair(2, rng, grid_n=64)
            assert left.spacing == right.spacing
            assert np.array_equal(left.origin, right.origin)
            assert left.occupancy.shape == right.occupancy.shape
            assert not np.any(left.occupancy & right.occupancy)
            if left.count and right.count:
                lx = left.cell_centers()[:, 0].max()
                rx = right.cell_centers()[:, 0].min()
                assert rx - lx > 0.05  # slab gap


    @staticmethod
    def _cell_centers(N, grid_n):
        """Every cell centre of the grid over the unit box, (grid_n^N, N)."""
        c = -0.5 + (np.arange(grid_n) + 0.5) / grid_n
        return np.stack([g.ravel() for g in np.meshgrid(*[c] * N, indexing="ij")], axis=-1)

    @staticmethod
    def _in_balls_tensor(pts, centers, radii):
        """The union of the closed balls at ``pts`` through the whole
        (cells, k, N) offset tensor."""
        d2 = np.sum((pts[:, None, :] - centers) ** 2, axis=-1)
        return np.any(d2 <= radii ** 2, axis=-1)

    @pytest.mark.parametrize("N, grid_n", [(2, 64), (2, 97), (3, 32), (3, 41)])
    def test_blob_matches_the_offset_tensor(self, N, grid_n):
        pts = self._cell_centers(N, grid_n)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 6))
            centers = rng.uniform(-0.28, 0.28, size=(k, N))
            radii = rng.uniform(0.10, 0.22, size=k)
            old = self._in_balls_tensor(pts, centers, radii).reshape((grid_n,) * N)
            new = random_blob(N, np.random.default_rng(seed), grid_n=grid_n).occupancy
            assert np.array_equal(new, old), seed

    @pytest.mark.parametrize("N, grid_n", [(2, 64), (3, 32)])
    def test_disjoint_pair_matches_the_offset_tensor(self, N, grid_n):
        pts = self._cell_centers(N, grid_n)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            old = []
            for x_lo, x_hi in ((-0.5, -0.06), (0.06, 0.5)):
                k = int(rng.integers(1, 4))
                centers = rng.uniform(-0.30, 0.30, size=(k, N))
                centers[:, 0] = rng.uniform(x_lo + 0.12, x_hi - 0.12, size=k)
                radii = rng.uniform(0.06, 0.115, size=k)
                occ = self._in_balls_tensor(pts, centers, radii) & (pts[:, 0] >= x_lo) & (pts[:, 0] < x_hi)
                old.append(occ.reshape((grid_n,) * N))
            new = random_disjoint_pair(N, np.random.default_rng(seed), grid_n=grid_n)
            assert [np.array_equal(b.occupancy, o) for b, o in zip(new, old)] == [True, True], seed

    def test_blob_memory_is_bounded(self):
        # one ball at a time: the (64^3, 5, 3) offset tensor peaked at 40 MB
        assert int(np.random.default_rng(0).integers(1, 6)) == 5  # seed 0 draws 5 balls
        tracemalloc.start()
        try:
            random_blob(3, np.random.default_rng(0), grid_n=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    # five disjoint unit balls whose bounding box is the cube [-1, 3.5]^3
    FIVE_BALLS = np.array([[0, 0, 0], [2.5, 2.5, 0], [2.5, 0, 2.5], [0, 2.5, 2.5], [2.5, 2.5, 2.5]], float)

    @pytest.mark.parametrize("N", [2, 3])
    def test_indicator_matches_the_offset_tensor(self, N):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 6))
            balls = BallConfig(dimension=N, centers=3.0 * np.arange(k)[:, None] * np.eye(N)[0], radii=rng.uniform(0.5, 1.4, k))
            pts = rng.uniform(-1.5, 3.0 * k, size=(7, 300, N))
            old = self._in_balls_tensor(pts.reshape(-1, N), balls.centers, balls.radii).reshape(7, 300)
            assert np.array_equal(indicator(balls, pts), old), seed
        assert indicator(balls, np.zeros(N))[()]  # one point
        assert not np.any(indicator(empty_ball_config(N), np.zeros((4, N))))

    def test_voxelize_memory_is_bounded(self):
        # one ball at a time: the (64^3, 5, 3) offset tensor peaked at 54.5 MB
        from nldrop.quadrature import voxelize

        balls = BallConfig(dimension=3, centers=self.FIVE_BALLS, radii=np.ones(5))
        tracemalloc.start()
        try:
            vox = voxelize(balls, cells_per_axis=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vox.occupancy.shape == (64, 64, 64)
        assert peak < 25e6

    @pytest.mark.parametrize("grid_n", [0, -4])
    def test_empty_grids_refused(self, grid_n):
        for make in (random_blob, random_disjoint_pair):
            with pytest.raises(ParameterError, match="grid_n"):
                make(2, np.random.default_rng(0), grid_n=grid_n)


class TestFileFormats:
    def test_voxel_text_round_trip(self):
        blob = random_blob(2, np.random.default_rng(2), grid_n=24)
        text = voxel_to_text(blob)
        back = voxel_from_text(text)
        assert back.spacing == blob.spacing
        assert np.array_equal(back.origin, blob.origin)
        assert np.array_equal(back.occupancy, blob.occupancy)

    def test_voxel_text_round_trip_3d(self):
        blob = random_blob(3, np.random.default_rng(2), grid_n=12)
        back = voxel_from_text(voxel_to_text(blob))
        assert np.array_equal(back.occupancy, blob.occupancy)

    def test_voxel_bad_magic(self):
        with pytest.raises(ShapeFormatError):
            voxel_from_text("not-a-voxel-file\n")

    def test_balls_csv_round_trip(self):
        cfg = BallConfig(
            dimension=3,
            centers=np.array([[0.0, 0.0, 0.0], [3.0, 0.5, -1.0]]),
            radii=np.array([1.0, 0.5]),
        )
        back = balls_from_csv(balls_to_csv(cfg))
        assert back.dimension == 3
        np.testing.assert_allclose(back.centers, cfg.centers, rtol=1e-15)
        np.testing.assert_allclose(back.radii, cfg.radii, rtol=1e-15)

    def test_empty_balls_csv(self):
        back = balls_from_csv(balls_to_csv(empty_ball_config(2)))
        assert back.count == 0

    def test_file_round_trip(self, tmp_path):
        blob = random_blob(2, np.random.default_rng(3), grid_n=16)
        p = tmp_path / "blob.vox"
        geometry.save_voxel(blob, p)
        assert np.array_equal(geometry.load_voxel(p).occupancy, blob.occupancy)
        cfg = ball_of_volume(2, 1.5)
        q = tmp_path / "balls.csv"
        geometry.save_balls(cfg, q)
        assert geometry.load_balls(q).radii == pytest.approx(cfg.radii)
