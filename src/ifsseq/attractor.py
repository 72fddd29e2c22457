"""Discretized hyperspace machinery: Hutchinson iteration, attractor renders,
Hausdorff distance, code-space addressing.

Compact sets are represented as finite point sets snapped to a grid of pitch
delta, which buys a provable 2*delta slack in every Hausdorff statement.
PointSet deduplicates on one float64 lattice key per point, the mixed-radix
number of its ticks round(x/delta), and decodes the unique keys as int64.
It finds them in an occupancy table where the key has few cells per point,
and by a sort elsewhere.  Key and decode are exact while every |tick| < 2^51
and the column spans multiply to less than 2^53, and fl(tick*delta) then
lies within delta/4 of tick*delta, so the stored rows equal the sorted
unique snapped values bit for bit.
Beyond those limits PointSet takes np.unique of the snapped values themselves.

The Hausdorff distance ships in two variants that must agree bit for bit: a
plain O(|A||B|) reference and an accelerated path (sorted scan in one
dimension; above, a KD-tree screen whose survivors the brute expression
decides).  Both reduce squared distances built from the same expressions, so
the agreement is exact, not approximate.

scipy.spatial loads where the first tree is built, not at import: it is most
of a cold start, and a render never builds a tree.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError
from .maps import Box
from .sequences import IFSSequence
from .systems import IFS

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

POINT_CAP = 5_000_000
# PointSet's lattice-key limits: every |round(x/delta)| below _TICK_LIMIT and
# the product of the column spans below _KEY_LIMIT
_TICK_LIMIT = 2.0**51
_KEY_LIMIT = 2**53
# PointSet marks the keys in an occupancy table, in place of sorting them,
# when the key has at most this many cells per row
_DENSE_CELLS_PER_ROW = 4

Address = Sequence[int]


def default_resolution(dim: int) -> float:
    return 1e-4 if dim == 1 else 1e-3


class PointSet:
    """Finite set of d-dimensional points at a stated resolution.

    Construction snaps every coordinate x to round(x/delta)*delta (the _snap
    rule), writes a zero as +0.0 whatever the sign it rounded to, sorts the
    rows lexicographically and keeps one row of each run of equal rows: the
    rows are np.unique(_snap(points) + 0.0, axis=0) byte for byte, so equal
    sets have identical storage regardless of input order.  A point whose
    snapped coordinates overflow is rejected.

    The rows are found on the lattice, one float64 key per point: the
    mixed-radix number whose digits are the ticks k_j = round(x_j/delta)
    less their column's lowest tick.  When the key's cells, the product of
    the column spans (highest tick - lowest tick + 1), number at most
    _DENSE_CELLS_PER_ROW per point, each key marks its cell in a table of one
    byte per cell, and the marked cells are the distinct keys in order;
    otherwise the keys are sorted and one of each run of equal keys is kept.
    The distinct keys' digits are decoded in int64 and multiplied back by
    delta.  That is exact while every |k_j| < 2^51 and the product of
    the column spans (highest tick - lowest tick + 1) is below 2^53: each key
    is then an exact integer in float64 and int64, and fl(k*delta) lies
    within delta/4 of k*delta (a subnormal product is exact), so distinct
    ticks give distinct values in the same order.  Beyond those limits the
    rows are found by np.unique on the snapped values themselves.
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
        canonical = _lattice_rows(pts, resolution)
        if canonical is None:
            canonical = _value_rows(pts, resolution)
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
            from scipy.spatial import cKDTree

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


def _lattice_rows(pts: np.ndarray, resolution: float) -> np.ndarray | None:
    """PointSet's rows by the lattice key, or None when a tick or the key
    leaves the limits PointSet states, checked column by column on the
    extremes of its ticks.  Beside the input it holds one key column and one
    work column, never an (N, d) grid.  The dense path then swaps the key for
    its int64 copy and, beside that, the occupancy table of at most
    _DENSE_CELLS_PER_ROW bytes per row; the sort path sorts the key in
    place."""
    key = np.empty(pts.shape[0])
    work = np.empty_like(key)
    lo, spans = [], []
    for j, column in enumerate(pts.T):
        ticks = work if j else key
        with np.errstate(over="ignore"):
            np.divide(column, resolution, out=ticks)
        np.rint(ticks, out=ticks)
        # rounding is monotone, so these are the ticks of the column's extremes
        low, high = ticks.min(), ticks.max()
        if not max(-low, high) < _TICK_LIMIT:  # an overflow reads inf here
            return None
        spans.append(int(high - low) + 1)
        if math.prod(spans) >= _KEY_LIMIT:
            return None
        lo.append(low)
        ticks -= low
        if j:
            key *= spans[j]
            key += work
    del work, ticks
    cells = math.prod(spans)
    if cells <= _DENSE_CELLS_PER_ROW * key.size:
        index = key.astype(np.intp)  # exact: the keys are integers below 2^53
        del key  # freed before the table is made
        key = _occupied_cells(index, cells)
        del index
    else:
        key.sort()
        fresh = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]  # the full key is freed before the int64 copy is made
        key = key.astype(np.int64)  # exact, as above
    rows = np.empty((key.size, pts.shape[1]))
    for j in range(pts.shape[1] - 1, 0, -1):
        np.divmod(key, spans[j], out=(key, rows[:, j]))
        rows[:, j] += lo[j]  # a digit plus its lowest tick is never -0.0
    np.add(key, lo[0], out=rows[:, 0])
    with np.errstate(over="ignore"):
        rows *= resolution
    return rows


def _occupied_cells(index: np.ndarray, cells: int) -> np.ndarray:
    """The distinct values of index, ascending, marked in a table of `cells`
    flags: distribution counting (Knuth, TAOCP vol. 3, 5.2), no sort."""
    occupied = np.zeros(cells, dtype=bool)
    occupied[index] = True
    return np.flatnonzero(occupied)


def _value_rows(pts: np.ndarray, resolution: float) -> np.ndarray:
    """PointSet's rows by sorting the snapped values themselves."""
    with np.errstate(over="ignore"):
        return np.unique(_snap(pts, resolution) + 0.0, axis=0)


def box_seed(box: Box, resolution: float) -> PointSet:
    """Default seed for attractor iteration: the box vertices."""
    return PointSet(box.vertices(), resolution)


def _check_images(B: PointSet, domain: Box, n: int):
    """Reject a point set outside the domain, or one whose images under n
    maps would exceed the point cap."""
    if B.dim != domain.dim:
        raise InputError(f"point set has dimension {B.dim}, system has {domain.dim}")
    # snapping may push boundary points half a pitch outside
    if not domain.contains(B.points, tol=B.resolution / 2.0 + 1e-9):
        raise InputError("point set leaves the system domain")
    if n * len(B) > POINT_CAP:
        raise ResourceLimitError(
            f"image would hold {n * len(B)} points before deduplication; "
            "raise the resolution delta"
        )


def hutchinson(S: IFS, B: PointSet) -> PointSet:
    """Union of the images of B under every map, snapped and deduplicated."""
    _check_images(B, S.domain, S.n)
    images = np.empty((S.n, len(B), S.dim))
    for m, block in zip(S.maps, images):
        m.transform(B.points, out=block)
    return PointSet(images.reshape(-1, S.dim), B.resolution)


def attractor_points(
    S: IFS,
    depth: int,
    seed: PointSet | None = None,
    resolution: float | None = None,
) -> PointSet:
    """depth applications of the Hutchinson operator from the seed.

    The result sits within t^depth/(1-t) * h(seed, W(seed)) of the true
    attractor, plus snapping slack.  It lies on the seed's lattice, so a
    resolution given with a seed must be the seed's.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    if seed is not None and resolution is not None and resolution != seed.resolution:
        raise InputError(f"resolution {resolution} contradicts the seed's pitch {seed.resolution}")
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
    left = np.maximum(idx - 1, 0)  # np.clip's wrapper costs more than the clamp
    right = np.minimum(idx, flat.size - 1)
    d_left = (queries[:, 0] - flat[left]) ** 2
    d_right = (queries[:, 0] - flat[right]) ** 2
    return np.minimum(d_left, d_right)


def _directed_sq(queries: np.ndarray, points: np.ndarray, tree: cKDTree | None) -> float:
    """max of the nearest squared distances from the queries into the points,
    bit for bit _min_sq_brute(queries, points).max().

    On the line the points must be sorted and the scan is exact.  Above, the
    tree over the points screens and the brute expression decides
    (_screened_max_sq)."""
    if points.shape[1] == 1:
        return float(_min_sq_sorted_1d(queries, points).max())
    dist, _ = tree.query(queries)
    return _screened_max_sq(queries, dist, [(points, tree)])


def _screened_max_sq(queries: np.ndarray, dist: np.ndarray, parts) -> float:
    """max over the queries of the brute nearest squared distance into the
    union of the parts' points, given each query's tree distance `dist` to
    that union (the min over the parts' trees).

    Tree distances are off by a few ulps, far inside the 1e-9 margins, so a
    query attaining the brute maximum survives the `top * (1 - 1e-9)` screen
    and its brute nearest point lies in its `dist * (1 + 1e-9)` ball of some
    part's tree.  Min-then-max over the ball pairs, scored by the brute
    expression, is the brute value, lattice ties included."""
    top = dist.max()
    if top == 0.0:
        return 0.0
    keep = np.flatnonzero(dist >= top * (1.0 - 1e-9))
    survivors = queries[keep]
    radii = dist[keep] * (1.0 + 1e-9)
    mins = np.full(keep.size, np.inf)
    for points, tree in parts:
        balls = tree.query_ball_point(survivors, radii, return_sorted=False)
        owner = np.repeat(np.arange(keep.size), [len(ball) for ball in balls])
        near = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=owner.size)
        sq = ((survivors[owner] - points[near]) ** 2).sum(axis=1)
        np.minimum.at(mins, owner, sq)
    return float(mins.max())


def hausdorff(A: PointSet, B: PointSet) -> float:
    """Hausdorff distance between two nonempty point sets (accelerated path)."""
    _check_dims(A, B)
    return math.sqrt(
        max(_directed_sq(A.points, B.points, B.tree), _directed_sq(B.points, A.points, A.tree))
    )


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
