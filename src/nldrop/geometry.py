"""Shapes: disjoint ball configurations, voxel sets, file formats.

A shape is a ``BallConfig`` or a ``VoxelShape``.  Both expose the minimal
contract used by the quadrature engine: ``dimension``, ``count``,
``bounding_box()``, a vectorized membership test via ``indicator``, and
``volume``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import ParameterError, PreconditionError, ShapeFormatError


def unit_sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N (for N=3: 4*pi)."""
    if N < 1:
        raise ParameterError(f"dimension must be >= 1, got {N}")
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def unit_ball_volume(N: int) -> float:
    if N < 1:
        raise ParameterError(f"dimension must be >= 1, got {N}")
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def _first_meeting(balls, others=None):
    """The first ball i of ``balls`` and ball j of ``others``, each given as
    (centers (k, N), radii (k,)), that meet (center distance <= radius
    sum), as (i, j, distance, radius sum), or None.  Without ``others``
    the pairs i < j of ``balls`` are tested."""
    (c1, r1), (c2, r2) = balls, balls if others is None else others
    d = np.linalg.norm(c1[:, None, :] - c2[None, :, :], axis=-1)
    rs = r1[:, None] + r2[None, :]
    meet = np.triu(d <= rs, 1) if others is None else d <= rs
    if not np.any(meet):
        return None
    i, j = np.argwhere(meet)[0]
    return i, j, d[i, j], rs[i, j]


@dataclass(frozen=True, eq=False)
class BallConfig:
    """A finite union of pairwise disjoint balls.

    Construction checks that every center distance exceeds the radius
    sum, so the radial reductions may add the balls' terms.  N is 2 or 3,
    the dimensions those reductions cover.
    """

    dimension: int
    centers: np.ndarray  # (k, N)
    radii: np.ndarray  # (k,)

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ParameterError(f"ball shapes need dimension 2 or 3, got {self.dimension}")
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if c.size == 0:
            c = c.reshape(0, self.dimension)
        if c.shape[0] != r.shape[0] or (c.shape[0] and c.shape[1] != self.dimension):
            raise ParameterError("centers must be (k, N) and radii (k,)")
        if not np.all(np.isfinite(c)):
            raise ParameterError("ball centers must be finite")
        if not np.all((r > 0) & (r < math.inf)):
            raise ParameterError("ball radii must be finite and positive")
        meet = _first_meeting((c, r))
        if meet is not None:
            i, j, d, rs = meet
            raise PreconditionError(
                f"balls {i} and {j} are not disjoint (center distance "
                f"{d:.6g} <= radius sum {rs:.6g})"
            )
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    def bounding_box(self):
        if self.count == 0:
            z = np.zeros(self.dimension)
            return z, z
        lo = (self.centers - self.radii[:, None]).min(axis=0)
        hi = (self.centers + self.radii[:, None]).max(axis=0)
        return lo, hi


@dataclass(frozen=True, eq=False)
class VoxelShape:
    """A set of grid cells: cell (i_1..i_N) covers origin + [i, i+1)*spacing."""

    dimension: int
    origin: np.ndarray
    spacing: float
    occupancy: np.ndarray  # bool, N-dimensional

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ParameterError(f"voxel shapes support N in {{2, 3}}, got {self.dimension}")
        if not (0.0 < self.spacing < math.inf):
            raise ParameterError(f"spacing must be finite and positive, got {self.spacing!r}")
        occ = np.asarray(self.occupancy).astype(bool)
        if occ.ndim != self.dimension:
            raise ParameterError("occupancy array rank must equal the dimension")
        origin = np.asarray(self.origin, dtype=float)
        if origin.shape != (self.dimension,):
            raise ParameterError("origin must be an N-vector")
        if not np.all(np.isfinite(origin)):
            raise ParameterError(f"origin must be finite, got {origin.tolist()}")
        occ.setflags(write=False)
        origin.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.occupancy))

    def bounding_box(self):
        hi = self.origin + np.array(self.occupancy.shape) * self.spacing
        return self.origin.copy(), hi

    def cell_centers(self) -> np.ndarray:
        """Centers of occupied cells, shape (count, N), in grid scan order."""
        idx = np.argwhere(self.occupancy)
        return self.origin + (idx + 0.5) * self.spacing


Shape = Union[BallConfig, VoxelShape]


def _in_balls(axes, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Membership in the union of the closed balls (centers (k, N), radii
    (k,)), which may overlap, of the points whose i-th coordinates are
    ``axes[i]``, arrays that broadcast together (the coordinate planes of a
    point array, or per-axis cell centres as from ``_unit_box_axes``).  One
    ball at a time: its squared distance is the per-axis squares added in
    axis order, so no (points, k, N) array is built."""
    occ = np.zeros(np.broadcast_shapes(*(np.shape(a) for a in axes)), dtype=bool)
    for c, r in zip(centers, radii):
        occ |= sum((a - ci) ** 2 for a, ci in zip(axes, c)) <= r ** 2
    return occ


def indicator(shape: Shape, x) -> np.ndarray:
    """Vectorized membership test; x has shape (..., N)."""
    x = np.asarray(x, dtype=float)
    if isinstance(shape, BallConfig):
        return _in_balls(np.moveaxis(x, -1, 0), shape.centers, shape.radii)
    if isinstance(shape, VoxelShape):
        idx = np.floor((x - shape.origin) / shape.spacing).astype(int)
        dims = shape.occupancy.shape
        ok = np.all((idx >= 0) & (idx < np.array(dims)), axis=-1)
        flat = np.zeros(x.shape[:-1], dtype=bool)
        if np.any(ok):
            sel = tuple(idx[ok].T)
            flat[ok] = shape.occupancy[sel]
        return flat
    raise ParameterError(f"unknown shape type {type(shape).__name__}")


def volume(shape: Shape) -> float:
    """Lebesgue volume, exact for both shape kinds."""
    if isinstance(shape, BallConfig):
        return float(np.sum(unit_ball_volume(shape.dimension) * shape.radii ** shape.dimension))
    if isinstance(shape, VoxelShape):
        return shape.count * shape.spacing ** shape.dimension
    raise ParameterError(f"unknown shape type {type(shape).__name__}")


def translate(shape: Shape, v) -> Shape:
    v = np.asarray(v, dtype=float)
    if isinstance(shape, BallConfig):
        return replace(shape, centers=shape.centers + v)
    if isinstance(shape, VoxelShape):
        return replace(shape, origin=shape.origin + v)
    raise ParameterError(f"unknown shape type {type(shape).__name__}")


def scale(shape: Shape, lam: float) -> Shape:
    """The rescaled set lam*E.  Voxel grids scale with the shape (spacing
    lam*h), so voxel volumes transform exactly by lam^N with no resampling."""
    if not (lam > 0):
        raise ParameterError(f"scale factor must be positive, got {lam!r}")
    if isinstance(shape, BallConfig):
        return replace(shape, centers=shape.centers * lam, radii=shape.radii * lam)
    if isinstance(shape, VoxelShape):
        return replace(shape, origin=shape.origin * lam, spacing=shape.spacing * lam)
    raise ParameterError(f"unknown shape type {type(shape).__name__}")


def ball_of_volume(N: int, m: float) -> BallConfig:
    """Origin-centered ball with volume m."""
    if not (m > 0):
        raise ParameterError(f"volume must be positive, got {m!r}")
    r = (m / unit_ball_volume(N)) ** (1.0 / N)
    return BallConfig(dimension=N, centers=np.zeros((1, N)), radii=np.array([r]))


def is_empty(shape: Shape) -> bool:
    return shape.count == 0


def empty_ball_config(N: int) -> BallConfig:
    return BallConfig(dimension=N, centers=np.zeros((0, N)), radii=np.zeros(0))


# ---------------------------------------------------------------------------
# Random test shapes


def _unit_box_axes(N: int, grid_n: int):
    """(origin, spacing, axes) of the grid_n^N cells over the unit box
    [-1/2, 1/2]^N: axes[i] holds the cell centres along axis i, shaped to
    broadcast along that axis of the grid.  Bad arguments are refused
    before any array is built."""
    if N not in (2, 3):
        raise ParameterError(f"random shapes need dimension 2 or 3, got {N}")
    if grid_n < 1:
        raise ParameterError(f"grid_n must be >= 1, got {grid_n}")
    h = 1.0 / grid_n
    origin = np.full(N, -0.5)
    return origin, h, [
        (origin[i] + (np.arange(grid_n) + 0.5) * h).reshape([-1 if j == i else 1 for j in range(N)])
        for i in range(N)
    ]


def random_blob(
    N: int,
    rng,
    grid_n: int = 64,
    volume_cap: Optional[float] = None,
) -> VoxelShape:
    """Seeded random blob: the union of 1-5 random, possibly overlapping
    balls on a voxel grid over the unit box [-1/2, 1/2]^N.

    ``rng`` is any source with ``integers(low, high)`` (one int in
    [low, high)) and ``uniform(low, high, size)`` (an array of that shape):
    a ``numpy.random.Generator``, or the CLI's ``_pcg64.Stream``, which
    draws the same numbers for the same seed.

    When ``volume_cap`` is given the grid spacing is rescaled (exactly, see
    ``scale``) so the voxel volume lands at 90% of the cap or below.
    """
    origin, h, axes = _unit_box_axes(N, grid_n)
    k = int(rng.integers(1, 6))
    centers = rng.uniform(-0.28, 0.28, size=(k, N))
    radii = rng.uniform(0.10, 0.22, size=k)
    occ = _in_balls(axes, centers, radii)
    shape = VoxelShape(dimension=N, origin=origin, spacing=h, occupancy=occ)
    if volume_cap is not None and shape.count > 0:
        v = volume(shape)
        if v > 0.9 * volume_cap:
            shape = scale(shape, (0.9 * volume_cap / v) ** (1.0 / N))
    return shape


def random_disjoint_pair(N: int, rng, grid_n: int = 64):
    """Two disjoint random blobs on one shared grid over the unit box
    [-1/2, 1/2]^N, separated along axis 0.  ``rng`` is as for
    ``random_blob``; the left blob's draws come first.

    The left blob is clipped to x_0 < -0.06 and the right blob to
    x_0 >= 0.06, so a gap of at least 0.12 separates them.
    """
    origin, h, axes = _unit_box_axes(N, grid_n)

    def blob(x_lo, x_hi):
        k = int(rng.integers(1, 4))
        centers = rng.uniform(-0.30, 0.30, size=(k, N))
        centers[:, 0] = rng.uniform(x_lo + 0.12, x_hi - 0.12, size=k)
        radii = rng.uniform(0.06, 0.115, size=k)
        # clip to the allotted slab so the pair is disjoint with a gap
        occ = _in_balls(axes, centers, radii) & (axes[0] >= x_lo) & (axes[0] < x_hi)
        return VoxelShape(dimension=N, origin=origin, spacing=h, occupancy=occ)

    return blob(-0.5, -0.06), blob(0.06, 0.5)


# ---------------------------------------------------------------------------
# File formats

_VOXEL_MAGIC = "nldrop-voxel 1"


def voxel_to_text(shape: VoxelShape) -> str:
    out = io.StringIO()
    dims = shape.occupancy.shape
    out.write(_VOXEL_MAGIC + "\n")
    out.write(f"dimension {shape.dimension}\n")
    out.write("dims " + " ".join(str(d) for d in dims) + "\n")
    out.write("origin " + " ".join(repr(float(v)) for v in shape.origin) + "\n")
    out.write(f"spacing {float(shape.spacing)!r}\n")
    occ = shape.occupancy.astype(np.uint8)
    if shape.dimension == 2:
        for row in occ:
            out.write("".join("1" if c else "0" for c in row) + "\n")
    else:
        for i, slab in enumerate(occ):
            if i:
                out.write("\n")
            for row in slab:
                out.write("".join("1" if c else "0" for c in row) + "\n")
    return out.getvalue()


def voxel_from_text(text: str) -> VoxelShape:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _VOXEL_MAGIC:
        raise ShapeFormatError(f"expected header {_VOXEL_MAGIC!r}")

    def field_line(i, name, count, kind):
        parts = lines[i].split() if i < len(lines) else []
        if not parts or parts[0] != name:
            raise ShapeFormatError(f"line {i + 1}: expected {name!r}")
        vals = parts[1:]
        if len(vals) != count:
            raise ShapeFormatError(f"line {i + 1}: {name} needs {count} values")
        try:
            return [kind(v) for v in vals]
        except ValueError:
            raise ShapeFormatError(
                f"line {i + 1}: {name} values must be {kind.__name__}s, got {vals}"
            ) from None

    N = field_line(1, "dimension", 1, int)[0]
    if N not in (2, 3):
        raise ShapeFormatError(f"dimension must be 2 or 3, got {N}")
    dims = tuple(field_line(2, "dims", N, int))
    origin = np.array(field_line(3, "origin", N, float))
    spacing = field_line(4, "spacing", 1, float)[0]
    body = [ln for ln in lines[5:]]
    rows_needed = dims[0] if N == 2 else dims[0] * dims[1]
    rows = [ln for ln in body if ln.strip() != ""]
    if len(rows) != rows_needed:
        raise ShapeFormatError(f"expected {rows_needed} grid rows, found {len(rows)}")
    width = dims[-1]
    occ_rows = []
    for ln in rows:
        if len(ln) != width or any(c not in "01" for c in ln):
            raise ShapeFormatError(f"bad grid row {ln!r}")
        occ_rows.append([c == "1" for c in ln])
    occ = np.array(occ_rows, dtype=bool).reshape(dims)
    return VoxelShape(dimension=N, origin=origin, spacing=spacing, occupancy=occ)


def save_voxel(shape: VoxelShape, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(voxel_to_text(shape))


def load_voxel(path) -> VoxelShape:
    with open(path) as fh:
        return voxel_from_text(fh.read())


def balls_to_csv(cfg: BallConfig) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow([f"c{i}" for i in range(cfg.dimension)] + ["radius"])
    for c, r in zip(cfg.centers, cfg.radii):
        w.writerow([repr(float(v)) for v in c] + [repr(float(r))])
    return out.getvalue()


def balls_from_csv(text: str) -> BallConfig:
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ShapeFormatError("empty ball CSV")
    header = rows[0]
    if header[-1].strip().lower() != "radius":
        raise ShapeFormatError("ball CSV must end with a 'radius' column")
    N = len(header) - 1
    if N not in (2, 3):
        raise ShapeFormatError(f"ball CSV dimension must be 2 or 3, got {N}")
    centers, radii = [], []
    for i, r in enumerate(rows[1:], start=1):
        if len(r) != N + 1:
            raise ShapeFormatError(f"ball CSV row has {len(r)} fields, expected {N + 1}")
        try:
            vals = [float(v) for v in r]
        except ValueError:
            raise ShapeFormatError(f"ball CSV row {i}: non-numeric field in {r}") from None
        centers.append(vals[:N])
        radii.append(vals[N])
    if not centers:
        return empty_ball_config(N)
    return BallConfig(dimension=N, centers=np.array(centers), radii=np.array(radii))


def save_balls(cfg: BallConfig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(balls_to_csv(cfg))


def load_balls(path) -> BallConfig:
    with open(path) as fh:
        return balls_from_csv(fh.read())
