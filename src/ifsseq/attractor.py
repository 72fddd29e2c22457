"""Discretized hyperspace machinery: Hutchinson iteration, attractor renders,
Hausdorff distance, code-space addressing.

Compact sets are represented as finite point sets snapped to a grid of pitch
delta, which buys a provable 2*delta slack in every Hausdorff statement.  The
Hausdorff distance ships in two variants that must agree bit for bit: a plain
O(|A||B|) reference and an accelerated path (sorted scan in one dimension;
above, a KD-tree screen whose survivors the brute expression decides).  Both
reduce squared distances built from the same expressions, so the agreement is
exact, not approximate.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError, ResourceLimitError
from .maps import Box
from .sequences import IFSSequence
from .systems import IFS

POINT_CAP = 5_000_000

Address = Sequence[int]


def default_resolution(dim: int) -> float:
    return 1e-4 if dim == 1 else 1e-3


class PointSet:
    """Finite set of d-dimensional points at a stated resolution.

    Construction snaps every coordinate x to round(x/delta)*delta (the _snap
    rule), writes a zero as +0.0 whatever the sign it rounded to, sorts the
    rows lexicographically and keeps one row of each run of equal rows.  So
    equal sets have identical storage regardless of input order.  A point
    whose snapped coordinates overflow is rejected.
    """

    __slots__ = ("points", "resolution", "_tree")

    def __init__(self, points, resolution: float):
        if resolution <= 0.0 or not math.isfinite(resolution):
            raise InputError("resolution must be a positive real")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.size == 0:
            raise InputError("a point set needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise InputError("points must be finite")
        # A fresh C-ordered copy, so the caller's array is never written and
        # the complex view below sees each row as one contiguous pair.
        with np.errstate(over="ignore"):
            grid = np.divide(pts, resolution, order="C")
            np.round(grid, out=grid)
            grid *= resolution
        grid += 0.0
        # Sort and compare the snapped values themselves, so the rows are
        # np.unique(_snap(pts), axis=0) by construction, up to the sign of zero.
        if grid.shape[1] == 1:
            grid.sort(axis=0)
        elif grid.shape[1] == 2:
            grid.view(np.complex128).sort(axis=0)  # by (real, imag)
        else:
            grid = grid[np.lexsort(grid.T[::-1])]
        fresh = np.empty(grid.shape[0], dtype=bool)
        fresh[0] = True
        np.any(grid[1:] != grid[:-1], axis=1, out=fresh[1:])
        canonical = grid[fresh]
        if not np.all(np.isfinite(canonical)):
            raise InputError(f"points overflow when snapped to the grid of pitch {resolution!r}")
        canonical.flags.writeable = False
        self.points = canonical
        self.resolution = float(resolution)
        self._tree = None

    @property
    def tree(self) -> cKDTree | None:
        """KD-tree over the read-only points, built on first use; None on the line."""
        if self._tree is None and self.dim > 1:
            self._tree = cKDTree(self.points)
        return self._tree

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.resolution == other.resolution and np.array_equal(
            self.points, other.points
        )

    def __repr__(self):
        return f"PointSet({len(self)} points, dim={self.dim}, delta={self.resolution})"


def _snap(points: np.ndarray, resolution: float) -> np.ndarray:
    """Nearest points of the grid resolution*Z^d."""
    return np.round(points / resolution) * resolution


def box_seed(box: Box, resolution: float) -> PointSet:
    """Default seed for attractor iteration: the box vertices."""
    return PointSet(box.vertices(), resolution)


def _check_inside(S: IFS, B: PointSet):
    if B.dim != S.dim:
        raise InputError(f"point set has dimension {B.dim}, system has {S.dim}")
    # snapping may push boundary points half a pitch outside
    if not S.domain.contains(B.points, tol=B.resolution / 2.0 + 1e-9):
        raise InputError("point set leaves the system domain")


def _images(S: IFS, B: PointSet) -> np.ndarray:
    """Images of B under every map, stacked, before snapping."""
    _check_inside(S, B)
    if S.n * len(B) > POINT_CAP:
        raise ResourceLimitError(
            f"image would hold {S.n * len(B)} points before deduplication; "
            "raise the resolution delta"
        )
    return np.vstack([m.transform(B.points) for m in S.maps])


def hutchinson(S: IFS, B: PointSet) -> PointSet:
    """Union of the images of B under every map, snapped and deduplicated."""
    return PointSet(_images(S, B), B.resolution)


def attractor_points(
    S: IFS,
    depth: int,
    seed: PointSet | None = None,
    resolution: float | None = None,
) -> PointSet:
    """depth applications of the Hutchinson operator from the seed.

    The result sits within t^depth/(1-t) * h(seed, W(seed)) of the true
    attractor, plus snapping slack.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    if seed is None:
        seed = box_seed(S.domain, default_resolution(S.dim) if resolution is None else resolution)
    current = seed
    for _ in range(depth):
        current = hutchinson(S, current)
    return current


def chaos_game(
    S: IFS,
    count: int,
    burn_in: int = 100,
    seed: int = 0,
    resolution: float | None = None,
) -> PointSet:
    """Random-orbit render with uniform map choice; deterministic per seed."""
    if count <= 0:
        raise InputError("count must be positive")
    if burn_in < 0:
        raise InputError("burn_in must be nonnegative")
    resolution = default_resolution(S.dim) if resolution is None else resolution
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, S.n, size=burn_in + count)
    mats = [(m.A, m.b) for m in S.maps]
    x = S.domain.center
    orbit = np.empty((count, S.dim))
    for step, pick in enumerate(choices):
        A, b = mats[pick]
        x = A @ x + b
        if step >= burn_in:
            orbit[step - burn_in] = x
    return PointSet(orbit, resolution)


def _min_sq_brute(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    out = np.empty(queries.shape[0])
    chunk = max(1, 8_000_000 // max(points.shape[0], 1))
    for start in range(0, queries.shape[0], chunk):
        q = queries[start : start + chunk]
        sq = ((q[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = sq.min(axis=1)
    return out


def _min_sq_sorted_1d(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Nearest squared distance on the line; points must be sorted ascending."""
    flat = points[:, 0]
    idx = np.searchsorted(flat, queries[:, 0])
    left = np.clip(idx - 1, 0, flat.size - 1)
    right = np.clip(idx, 0, flat.size - 1)
    d_left = (queries[:, 0] - flat[left]) ** 2
    d_right = (queries[:, 0] - flat[right]) ** 2
    return np.minimum(d_left, d_right)


def _directed_sq(queries: np.ndarray, points: np.ndarray, tree: cKDTree | None) -> float:
    """max of the nearest squared distances from the queries into the points,
    bit for bit _min_sq_brute(queries, points).max().

    On the line the points must be sorted and the scan is exact.  Above, the
    tree over the points screens and the brute expression decides: tree
    distances are off by a few ulps, far inside the 1e-9 margins, so a query
    attaining the brute maximum survives the `top * (1 - 1e-9)` screen and
    its brute nearest point lies in its `dist * (1 + 1e-9)` ball.  Min-then-max
    over the ball pairs, scored by the brute expression, is the brute value,
    lattice ties included."""
    if points.shape[1] == 1:
        return float(_min_sq_sorted_1d(queries, points).max())
    dist, _ = tree.query(queries)
    top = dist.max()
    if top == 0.0:
        return 0.0
    keep = np.flatnonzero(dist >= top * (1.0 - 1e-9))
    balls = tree.query_ball_point(queries[keep], dist[keep] * (1.0 + 1e-9), return_sorted=False)
    owner = np.repeat(np.arange(keep.size), [len(ball) for ball in balls])
    near = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=owner.size)
    sq = ((queries[keep[owner]] - points[near]) ** 2).sum(axis=1)
    mins = np.full(keep.size, np.inf)
    np.minimum.at(mins, owner, sq)
    return float(mins.max())


def _hausdorff_sq(a: np.ndarray, a_tree, b: np.ndarray, b_tree) -> float:
    """Squared Hausdorff distance of two point arrays through _directed_sq."""
    return max(_directed_sq(a, b, b_tree), _directed_sq(b, a, a_tree))


def hausdorff(A: PointSet, B: PointSet) -> float:
    """Hausdorff distance between two nonempty point sets (accelerated path)."""
    _check_dims(A, B)
    return math.sqrt(_hausdorff_sq(A.points, A.tree, B.points, B.tree))


def hausdorff_brute(A: PointSet, B: PointSet) -> float:
    """Plain O(|A||B|) reference; agrees with hausdorff bit for bit."""
    _check_dims(A, B)
    ab = _min_sq_brute(A.points, B.points).max()
    ba = _min_sq_brute(B.points, A.points).max()
    return math.sqrt(max(ab, ba))


def _check_dims(A: PointSet, B: PointSet):
    if A.dim != B.dim:
        raise InputError(f"dimension mismatch: {A.dim} vs {B.dim}")


def directed_distance(A: PointSet, B: PointSet) -> float:
    """One-sided sup of nearest distances from A into B (not symmetric)."""
    _check_dims(A, B)
    return math.sqrt(_directed_sq(A.points, B.points, B.tree))


def code_point(S: IFS, address: Address, x) -> np.ndarray:
    """Apply the maps named by the address, first symbol first."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not S.domain.contains(x[None, :]):
        raise InputError("starting point lies outside the domain")
    for k, symbol in enumerate(address):
        if not 0 <= int(symbol) < S.n:
            raise InputError(f"address symbol {symbol} at position {k} outside 0..{S.n - 1}")
        x = S.maps[int(symbol)](x)
    return x


class ConvergenceReport(NamedTuple):
    distances: tuple[float, ...]
    error_bound: float


def attractor_convergence_report(
    seq: IFSSequence,
    S: IFS,
    depth: int,
    resolution: float,
) -> ConvergenceReport:
    """Hausdorff distances h(A_j, A) of rendered attractors against the
    rendered attractor of S, with the shared discretization error bound
    t^depth/(1-t) * h(seed, W(seed)) + 2*delta."""
    if S.domain != seq.domain:
        raise InputError("sequence and reference system must share the domain")
    seed = box_seed(S.domain, resolution)
    reference = attractor_points(S, depth, seed=seed)
    systems = list(seq.terms) + [S]
    bound = 0.0
    for system in systems:
        t = system.contractivity
        h0 = hausdorff(seed, hutchinson(system, seed))
        bound = max(bound, t**depth / (1.0 - t) * h0)
    bound += 2.0 * resolution
    distances = tuple(
        hausdorff(attractor_points(term, depth, seed=seed), reference)
        for term in seq.terms
    )
    return ConvergenceReport(distances, bound)
