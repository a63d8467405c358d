"""Tests for ``nldrop._pcg64.Stream``: the same draws as
``numpy.random.default_rng(seed)`` on the draw sequences of the random
blobs, so a seed names the same shape from the CLI and from numpy."""

import numpy as np
import pytest

from nldrop import geometry, isoperimetry
from nldrop._pcg64 import Stream
from nldrop.errors import ParameterError
from nldrop.kernels import KernelSpec
from nldrop.quadrature import QuadratureSpec

SEEDS = [*range(1000), 2 ** 64, 2 ** 64 + 1, 2 ** 70 + 3, 123456789012345678901234567890]


class Recorder:
    """Passes ``integers`` and ``uniform`` to ``rng`` and logs each call
    with what it returned."""

    def __init__(self, rng):
        self.rng, self.log = rng, []

    def integers(self, low, high):
        value = self.rng.integers(low, high)
        self.log.append(("integers", low, high, int(value)))
        return value

    def uniform(self, low, high, size):
        values = self.rng.uniform(low, high, size=size)
        self.log.append(("uniform", low, high, size, values.shape, values.tolist()))
        return values


def draw_shapes(rng):
    """The draws of a 2-D blob, a 2-D disjoint pair and three capped blobs
    in a row, as ``run_suite`` draws them, all from one ``rng``; with the
    occupancy arrays they give."""
    rec = Recorder(rng)
    shapes = [geometry.random_blob(2, rec, grid_n=8)]
    shapes += geometry.random_disjoint_pair(2, rec, grid_n=8)
    shapes += [geometry.random_blob(2, rec, grid_n=8, volume_cap=0.02) for _ in range(3)]
    return rec.log, [s.occupancy for s in shapes]


class TestSameDrawsAsNumpy:
    def test_blob_draw_sequences_and_shapes(self):
        for seed in SEEDS:
            want_log, want_occ = draw_shapes(np.random.default_rng(seed))
            got_log, got_occ = draw_shapes(Stream(seed))
            assert got_log == want_log, seed
            assert all(np.array_equal(a, b) for a, b in zip(got_occ, want_occ)), seed

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 64 + 1])
    def test_3d_blob_and_pair(self, seed):
        for make in (
            lambda rng: [geometry.random_blob(3, rng, grid_n=12)],
            lambda rng: list(geometry.random_disjoint_pair(3, rng, grid_n=12)),
        ):
            want, got = make(np.random.default_rng(seed)), make(Stream(seed))
            assert all(np.array_equal(a.occupancy, b.occupancy) for a, b in zip(got, want))

    def test_wide_ranges_and_rejections(self):
        # ranges whose Lemire draw rejects about half its candidates, the
        # full 32-bit range, and a range of one, between 64-bit draws that
        # must not consume the buffered high half
        for seed in range(50):
            ref, stream = np.random.default_rng(seed), Stream(seed)
            for high in (2 ** 31 + 3, 2 ** 32, 1, 3, 2 ** 32 - 1):
                assert stream.integers(0, high) == int(ref.integers(0, high))
                assert stream.uniform(0.0, 1.0, 1).tolist() == ref.uniform(0.0, 1.0, 1).tolist()

    def test_run_suite_matches_numpy_blobs(self, monkeypatch):
        kernel = KernelSpec(dimension=2, s=0.5, epsilon=0.75)
        got = isoperimetry.run_suite(kernel, QuadratureSpec(), count=3, seed=11, grid_n=8)
        monkeypatch.setattr(isoperimetry, "Stream", np.random.default_rng)
        want = isoperimetry.run_suite(kernel, QuadratureSpec(), count=3, seed=11, grid_n=8)
        assert got == want


class TestRefusals:
    @pytest.mark.parametrize("seed", [-1, -(2 ** 70)])
    def test_negative_seed(self, seed):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            Stream(seed)

    @pytest.mark.parametrize("low, high", [(3, 3), (5, 1), (0, 2 ** 32 + 1)])
    def test_empty_or_too_wide_range(self, low, high):
        with pytest.raises(ParameterError, match="integers"):
            Stream(0).integers(low, high)
