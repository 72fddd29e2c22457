"""Collage-theorem distances and bounds, collage fitting, and sequence
extrapolation.

Fitting minimizes the collage distance h(L, W(L)) by random-restart
coordinate descent over the flat coefficient vector, projecting every
candidate back to the feasible set (singular values clamped, flat axes
zeroed, translation pulled inside the domain).  The projection is bitwise
idempotent: a feasible map projects to itself, so the descent projects each
candidate once and keeps the projected coefficients.

The objective is scored per map.  A map's share is the directed max from
its snapped images into L and, per point of L, the distance to those
images.  h(L, W(L)) is the max of the directed maxima and the max over L of
the min over maps, and max and min are exact, so the combined shares give
the brute value bit for bit: on the line the per-point values are exact
squared distances; above they are tree distances that only screen, and the
brute expression decides over every map's ball (attractor._screened_max_sq).
On the line the images of the ascending target under x -> ax + b are
ascending (a >= 0) or descending (a < 0), so they need no sort.

On the line a fit also reads out_sq from a field.  The target and the box
are fixed for the fit, and every image is snapped to the target's lattice,
so an image's distance into L depends only on its tick k = rint(x/delta).
fit_ifs tabulates that distance once per tick of the box (_tick_field, the
exact distance transform of Maurer, Qi & Raghavan 2003 reduced to the line),
and the out_sq of any stack of line maps is one gather over their (maps,
points) array of ticks (_line_out_sq).  Each entry is the sorted scan's own
expression at the same query float k*delta, so the gather gives the scan's
value bit for bit.  The field is skipped past FIELD_TICKS_PER_POINT ticks
per target point, where it would cost more than the scans it saves; there,
and in collage_distance, a one-off, the same stack is one sorted scan.

The descent keeps the incumbent's shares and scores only the maps that a
candidate moves (see _descend).  Most candidates are rejected on the moved
maps' directed max alone, as h is at least every map's directed max, so the
per-point distances are taken only when that does not decide.  A sweep's
candidates are one array (_candidate_moves), and in every dimension the
descent projects all the maps they move at once (_project, one stacked
projection, which marks a map it cannot project with NaN).  On the line it
then takes all their out_sq in one gather, rejects each candidate whose
out_sq reaches the incumbent's value in one comparison, and walks the rest;
above, it walks every candidate.  The walk goes in order through _Share and
_score, the first candidate that scores below the incumbent wins, as in a
walk over every candidate, and a candidate with a NaN map raises where the
walk reaches it.

scipy.spatial loads at the first collage evaluation, not at import, so
commands that never fit start without it.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .attractor import (
    _TICK_LIMIT,
    PointSet,
    _check_images,
    _directed_sq,
    _min_sq_sorted_1d,
    _screened_max_sq,
    _snap,
)
from .errors import InputError, PreconditionError
from .maps import AffineMap, Box, spectral_norm
from .sequences import IFSSequence, align_chain
from .systems import IFS

INITIAL_STEP = 0.1  # first descent step, as a fraction of the domain diameter
STEP_DECAY = 0.7  # step shrink after a sweep with no improving move
FIELD_TICKS_PER_POINT = 8  # largest line field a fit builds, in ticks per target point
SWEEP_TICKS = 1 << 16  # image ticks a line sweep takes at once, in chunks of whole candidates


@dataclass(frozen=True)
class FitConfig:
    """Search budget and feasibility settings for collage fitting."""

    n: int
    restarts: int = 8
    max_iters: int = 200
    s_max: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be at least 1")
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        if self.max_iters < 1:
            raise InputError("max_iters must be at least 1")
        if not 0.0 < self.s_max < 1.0:
            raise InputError("s_max must lie in (0, 1)")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")


@dataclass(frozen=True)
class ExtrapolationModel:
    """How per-coefficient series are carried past the last observed term.

    Kinds: 'hold-last' repeats the final term; 'linear' continues the
    least-squares slope; 'geometric' decays the remaining change toward an
    estimated limit.  All curves are anchored at the final term, so horizon
    zero reproduces it exactly.
    """

    kind: str
    horizon: int
    s_max: float = 0.95

    KINDS = ("hold-last", "linear", "geometric")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InputError(f"kind must be one of {self.KINDS}")
        if self.horizon < 0:
            raise InputError("horizon must be nonnegative")
        if self.kind != "hold-last":  # hold-last never reads the horizon
            try:
                float(self.horizon)  # as linear and geometric take it
            except OverflowError:
                raise InputError(f"horizon must not exceed the largest float, {sys.float_info.max:g}") from None
        if not 0.0 < self.s_max < 1.0:
            raise InputError("s_max must lie in (0, 1)")


@dataclass(frozen=True)
class FitResult:
    ifs: IFS
    distance: float
    history: tuple[float, ...]
    baseline_fallback: bool = False


@dataclass(frozen=True)
class FitSequenceResult:
    sequence: IFSSequence
    distances: tuple[float, ...]


class _Share:
    """One map's part of the collage objective h(L, W(L)) on a target L.

    out_sq, the max squared distance from the map's snapped images into L,
    is taken at once: on the line by _line_out_sq, from the fit's tick field
    (_tick_field) when one is given, else by the sorted scan
    (collage_distance, and targets too sparse for the field's size rule);
    above, by the target's tree and the brute expression.  near, per point
    of L the distance to those images (the exact square on the line, the
    tree's distance above, with the tree kept in `tree`), is taken at first
    use: a candidate whose moved maps alone reach the incumbent's value is
    rejected without it.  A line sweep takes the out_sq of all its moved
    maps in one gather (_line_survivors) and builds shares only for the
    candidates that gather does not reject."""

    __slots__ = ("target", "images", "out_sq", "tree", "_near")

    def __init__(self, target: PointSet, A: np.ndarray, b: np.ndarray, field=None):
        # images as AffineMap.transform takes them, snapped, not deduplicated
        if target.dim == 1:
            ticks = _line_ticks(target, A[0], b)
            self.out_sq = float(_line_out_sq(target, ticks, field)[0])
            # ascending, as near's scan needs, or descending when a < 0
            images = ((ticks[0, ::-1] if A[0, 0] < 0.0 else ticks[0]) * target.resolution)[:, None]
        else:
            images = _snap(target.points @ A.T + b, target.resolution)
            self.out_sq = _directed_sq(images, target.points, target.tree)
        self.target, self.images, self.tree, self._near = target, images, None, None

    @property
    def near(self) -> np.ndarray:
        if self._near is None:
            if self.target.dim == 1:
                self._near = _min_sq_sorted_1d(self.target.points, self.images)
            else:
                from scipy.spatial import cKDTree

                self.tree = cKDTree(self.images)
                self._near, _ = self.tree.query(self.target.points)
        return self._near


def _line_ticks(target: PointSet, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lattice ticks rint((x*a + b)/delta) of the target's images, one row
    per line map x -> a*x + b.

    x * a + b equals transform's x @ A.T + b (a zero may differ in sign,
    which no squared distance sees) at a quarter of its cost.  rint is
    _snap's half-even rounding, so ticks * delta are _snap's images.  L is
    ascending and x -> ax + b and the rounding are monotone, so each row
    comes out ascending, or descending when a < 0."""
    ticks = np.multiply.outer(a, target.points[:, 0])  # in place from here: the rows can be long
    ticks += b[:, None]
    ticks /= target.resolution
    return np.rint(ticks, out=ticks)


def _line_out_sq(target: PointSet, ticks: np.ndarray, field) -> np.ndarray:
    """Per row of image ticks, the max squared distance from those images
    into the target: a gather from the fit's tick field, or the sorted scan
    when there is none.  Either way each image's value is the scan's
    expression at the same query float."""
    if field is None:
        queries = (ticks * target.resolution).reshape(-1, 1)
        return _min_sq_sorted_1d(queries, target.points).reshape(ticks.shape).max(axis=1)
    k0, sq = field
    ends = ticks[:, [0, -1]] - k0  # each row is monotone, so its extremes are its ends
    if not ((ends >= 0.0).all() and (ends < sq.size).all()):  # numpy would wrap a negative index
        raise IndexError("an image tick lies outside the collage field")
    index = ticks.astype(np.intp)
    index -= int(k0)
    return sq[index].max(axis=1)


def _tick_field(target: PointSet, box: Box):
    """On the line, (k0, sq) with sq[k - k0] = _min_sq_sorted_1d([[k*delta]], L)
    for every lattice tick k of the box grown by fit_ifs's containment slack
    delta/2 + 1e-9, and by one more tick on each side.  A map of the box into
    itself with |a| < 1 takes L's points into the grown box, and the extra
    tick covers the rounding of ax + b.  None above the line, past
    FIELD_TICKS_PER_POINT ticks per point of L, or at ticks as large as
    PointSet's lattice limit _TICK_LIMIT."""
    if target.dim != 1:
        return None
    delta = target.resolution
    tol = delta / 2.0 + 1e-9
    k0 = float(np.rint((box.lo[0] - tol) / delta)) - 1.0
    k1 = float(np.rint((box.hi[0] + tol) / delta)) + 1.0
    if k1 - k0 + 1.0 > FIELD_TICKS_PER_POINT * len(target) or max(-k0, k1) >= _TICK_LIMIT:
        return None
    return k0, _min_sq_sorted_1d((np.arange(k0, k1 + 1.0) * delta)[:, None], target.points)


def _score(target: PointSet, shares, bound: float = math.inf) -> float:
    """h(L, union of the shares' images), bit for bit the brute value: max
    and min over the maps combine the per-map values exactly.  When the
    images alone reach `bound`, their directed value, which lies in
    [bound, h], stands in for h."""
    out_sq = max(share.out_sq for share in shares)
    if math.sqrt(out_sq) >= bound:
        return math.sqrt(out_sq)
    near = reduce(np.minimum, [share.near for share in shares])
    if target.dim == 1:
        in_sq = float(near.max())
    else:
        in_sq = _screened_max_sq(target.points, near, [(s.images, s.tree) for s in shares])
    return math.sqrt(max(in_sq, out_sq))


def collage_distance(S: IFS, target: PointSet) -> float:
    """h(L, W(L)), bit for bit hausdorff(target, hutchinson(S, target))."""
    _check_images(target, S.domain, S.n)
    return _score(target, [_Share(target, m.A, m.b) for m in S.maps])


def collage_bound(eps: float, t: float) -> float:
    """eps/(1-t): Hausdorff distance to the attractor guaranteed by the
    collage inequality for a system with factor t and collage distance eps."""
    if eps < 0.0:
        raise InputError("eps must be nonnegative")
    if not 0.0 <= t < 1.0:
        raise InputError("contractivity factor must lie in [0, 1)")
    return eps / (1.0 - t)


def _project(A: np.ndarray, b: np.ndarray, box: Box, s_max: float):
    """project_map on a stack of maps x -> A[j] x + b[j], A (k, d, d) and
    b (k, d), each row as if projected alone.  A row the box cannot take
    after 63 shrinks of A, and a row with a coefficient that is not finite,
    comes back NaN in A and b, where project_map raises.

    LAPACK's SVD decides every clamp, on the rows that the Frobenius norm,
    an upper bound of the largest singular value, screens in; on the line
    that SVD is |a| with singular vectors of sign +-1, so the clamp is a
    clip to [-s_max, s_max].  The stacked SVD, products and vertex images
    give each row the bits of the same calls on that row alone.  The loop
    runs on every row still active: A shrinks by 0.8 while the image is
    wider than the box, else b shifts into it, until b repeats, bit for bit,
    a value taken since the row's last shrink."""
    A, b = np.array(A, dtype=float), np.array(b, dtype=float)
    k, d = b.shape
    extent = box.hi - box.lo
    every = (lambda x: x[:, 0]) if d == 1 else (lambda x: x.all(axis=1))  # per row, at a view's cost on the line

    def svd_above(rows):  # the rows whose LAPACK norm exceeds s_max, with their SVDs
        M = A[rows]
        rows = rows[np.sqrt((M * M).sum(axis=(1, 2))) > s_max * (1.0 - 1e-12)]
        u, s, vt = np.linalg.svd(A[rows])
        above = s[:, 0] > s_max
        return rows[above], (u[above], s[above], vt[above])

    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow fail, silently
        failed = ~(every(np.isfinite(b)) & every(np.isfinite(A.reshape(k, -1))))
        if d == 1:  # a clip, exactly s_max in norm where it clamps, so no nudge
            A = np.minimum(np.maximum(A, -s_max), s_max)
        else:
            rows, (u, s, vt) = svd_above(np.flatnonzero(~failed))
            D = np.zeros_like(u)
            D[:, range(d), range(d)] = np.minimum(s, s_max)
            A[rows] = u @ D @ vt
            if extent.any() and not extent.all():  # constant on flat axes, unless all are
                A[:, extent == 0.0] = 0.0
                rows = np.flatnonzero(~failed)
            while rows.size:  # clamping or zeroing can leave LAPACK's norm ulps over s_max
                rows, _ = svd_above(rows)
                A[rows] = np.nextafter(A[rows], 0.0)

        vertices, active, limit = box.vertices(), ~failed, extent + 1e-15
        shrinks, since, seen = np.zeros(k, int), np.zeros(k, int), [b.view(np.int64)]
        while active.any():
            img = vertices @ A.swapaxes(1, 2) + b[:, None, :]
            low = high = img[:, 0]
            for corner in img.swapaxes(0, 1)[1:]:  # a per-row reduction, in the order of img.min(axis=0)
                low, high = np.minimum(low, corner), np.maximum(high, corner)
            wide = active & ~every(high - low <= limit)  # image wider than the box
            if wide.any():
                failed |= wide & (shrinks == 63)
                wide &= ~failed
                A[wide] *= 0.8
                shrinks += wide
                since[wide] = len(seen) - 1  # the seen set restarts at the current b
                active &= ~(wide | failed)
            # b + shift can land an ulp outside the box, and an image that fits only
            # within the slack above can shift back and forth: a repeat ends it
            shift = np.maximum(box.lo - low, 0.0) + np.minimum(box.hi - high, 0.0)
            b = np.where(active[:, None], b + shift, b)
            bits = b.view(np.int64)
            active &= ~every(seen[-1] == bits)  # most rows repeat the last b
            if active.any():  # and the values taken since each row's last shrink
                for j, old in enumerate(seen[:-1]):
                    active &= ~(every(old == bits) & (since <= j))
            seen.append(bits)
            active |= wide
    A[failed], b[failed] = np.nan, np.nan
    return A, b


def _project_maps(A: np.ndarray, b: np.ndarray, box: Box, s_max: float):
    """project_map on a stack of maps, as a tuple of AffineMaps."""
    A, b = _project(A, b, box, s_max)
    if np.isnan(b).any():
        raise PreconditionError("cannot project the map into the domain")
    return tuple(map(AffineMap, A, b))


def project_map(A: np.ndarray, b: np.ndarray, box: Box, s_max: float) -> AffineMap:
    """Nearest feasible map: singular values clamped to s_max, rows of flat
    axes zeroed, translation shifted (and A shrunk when even that cannot fit)
    so the box maps into itself.  Idempotent bit for bit; LAPACK's largest
    singular value of the result is at most s_max.  Raises PreconditionError
    where 63 shrinks of A leave the image wider than the box."""
    A, b = np.atleast_2d(np.array(A, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return _project_maps(A[None], b[None], box, s_max)[0]


def _tiles(points: np.ndarray, n: int):
    """Split a point cloud into n roughly equal-count tiles, recursively
    cutting along the widest axis of each tile's bounding box.

    The cut lands on the largest coordinate gap near the count split, which
    separates the pieces of a disconnected self-affine target cleanly; for
    gap-free targets it degenerates to the plain count median.  A single
    point cannot be split, so with more maps than points its tile repeats."""
    if n == 1 or len(points) == 1:
        return [points] * n
    left_n = n // 2
    axis = int(np.argmax(points.max(axis=0) - points.min(axis=0)))
    order = np.argsort(points[:, axis], kind="stable")
    coords = points[order, axis]
    target_cut = len(points) * left_n / n
    lo = max(1, int(np.floor(len(points) * 0.25)))
    hi = min(len(points) - 1, max(lo + 1, int(np.ceil(len(points) * 0.75))))
    gaps = np.diff(coords)[lo - 1 : hi - 1]
    if gaps.size and gaps.max() > 2.0 * max(np.median(np.diff(coords)), 1e-30):
        candidates = np.flatnonzero(gaps == gaps.max()) + lo
        cut = int(candidates[np.argmin(np.abs(candidates - target_cut))])
    else:
        cut = max(1, min(len(points) - 1, round(target_cut)))
    return _tiles(points[order[:cut]], left_n) + _tiles(points[order[cut:]], n - left_n)


def _heuristic_maps(target: PointSet, box: Box, cfg: FitConfig):
    """One axis-aligned map per equal-count tile of the target, sending the
    target's bounding box onto the tile's bounding box.  For a self-affine
    target whose pieces carry equal point shares this starts at or near the
    optimum."""
    src_lo = target.points.min(axis=0)
    src_hi = target.points.max(axis=0)
    extent = np.where(src_hi - src_lo > 0, src_hi - src_lo, 1.0)
    A, b = [], []
    for tile in _tiles(target.points, cfg.n):
        lo = tile.min(axis=0)
        hi = tile.max(axis=0)
        A.append(np.diag((hi - lo) / extent))
        b.append(lo - A[-1] @ src_lo)
    return _project_maps(np.array(A), np.array(b), box, cfg.s_max)


def _random_maps(target: PointSet, box: Box, cfg: FitConfig, rng):
    d = target.dim
    A, b = np.empty((cfg.n, d, d)), np.empty((cfg.n, d))
    for i in range(cfg.n):
        A[i] = rng.standard_normal((d, d))
        norm = spectral_norm(A[i])
        if norm > 0:
            A[i] *= rng.uniform(0.1, 0.8) * cfg.s_max / norm
        anchor = target.points[rng.integers(0, len(target))]
        b[i] = anchor - A[i] @ anchor
    return _project_maps(A, b, box, cfg.s_max)


def _candidate_moves(params: np.ndarray, n: int, d: int, box: Box, step: float) -> np.ndarray:
    """Trial parameter vectors around the current point, one per row of a
    (C, n*(d*d + d)) array, for the descent to score in row order.

    Three families, each in both signs (all + rows first): single
    coordinates; per-map stretches of A[r, c] with b[r] compensated about
    the domain center (a raw A change drags the image piece, trapping plain
    coordinate descent in a diagonal valley); and a joint stretch of every
    map about its own image center, which escapes the plateaus of the
    max-objective when several pieces attain the worst distance
    simultaneously.  Each row is the trial that adding the step to a copy of
    params gives, bit for bit.
    """
    per, center = d * d + d, box.center
    blocks = params.reshape(n, per)
    own = np.array([blocks[i, : d * d].reshape(d, d) @ center + blocks[i, d * d :] for i in range(n)])
    # one stretch per map i and entry A[r, c]: it moves A[r, c] and b[r]
    k = np.arange(n * d * d)
    i, r, c = k // (d * d), k // d % d, k % d
    a_col, b_col = i * per + r * d + c, i * per + d * d + r
    size, joint = params.size, params.size + n * d * d + r * d + c
    rows = params.size + n * d * d + d * d  # per sign
    row = np.concatenate([np.arange(size), size + k, size + k, joint, joint])
    col = np.concatenate([np.arange(size), a_col, b_col, a_col, b_col])
    # x + -0.0 is x bit for bit, and x - y is x + -y, so each row is params
    # plus its increments, as adding them to a copy of params gives
    steps = np.full((2 * rows, size), -0.0)
    for half, sign in enumerate((1.0, -1.0)):
        delta = sign * step
        fill = np.full(size + n * d * d, delta)
        steps[half * rows + row, col] = np.concatenate(
            [fill, -(delta * center[c]), fill[: n * d * d], -(delta * own[i, c])]
        )
    return params + steps


def _line_survivors(target: PointSet, field, blocks: np.ndarray, moved: np.ndarray, shares, best: float):
    """The candidates of a projected line sweep that out_sq does not reject,
    in order.

    blocks is the sweep's (C, n, 2) array of projected slopes and offsets
    and moved its (C, n) mask of moved maps.  A candidate's out_sq is the max
    over its moved maps and the incumbent's shares of the rest, and
    sqrt(out_sq) >= best rejects it, as _score's early return does.  A
    candidate with a NaN block, one _project could not project, passes
    unscreened: the walk raises there.  The moved maps' ticks are taken and
    gathered at once, in chunks of about SWEEP_TICKS image ticks, and the
    next chunk only when the walk of this one found no improving
    candidate."""
    ci, bi = np.nonzero(moved)  # moved maps in candidate order
    sq = np.tile([share.out_sq for share in shares], (len(blocks), 1))
    chunk = max(1, SWEEP_TICKS // (moved.shape[1] * len(target)))  # candidates per gather
    for c0 in range(0, len(blocks), chunk):
        part = slice(*np.searchsorted(ci, [c0, c0 + chunk]))
        a, b = blocks[ci[part], bi[part]].T
        ok, out_sq = b == b, np.full(b.shape, np.nan)
        out_sq[ok] = _line_out_sq(target, _line_ticks(target, a[ok], b[ok]), field)
        sq[ci[part], bi[part]] = out_sq
        yield from c0 + np.flatnonzero(~(np.sqrt(sq[c0 : c0 + chunk].max(axis=1)) >= best))


def _descend(target, box, cfg, maps0, field):
    n, d = cfg.n, target.dim
    step0 = INITIAL_STEP * box.diameter
    if step0 <= 0.0:
        step0 = 0.1  # degenerate single-point domain
    stop_step = max(step0 * 1e-6, 1e-12)

    # The starts are project_map outputs and a feasible map projects to
    # itself, so the incumbent's blocks are their own projections.  A sweep
    # projects the blocks its candidates move, all at once, and a candidate
    # scores only those; the max/min combination of the shares is exact.  It
    # is scored against the incumbent's value, which rejects most candidates
    # on their out_sq: on the line for the whole sweep before the walk.
    params = np.concatenate([np.concatenate([m.A.ravel(), m.b]) for m in maps0])
    shares = [_Share(target, m.A, m.b, field) for m in maps0]
    best = _score(target, shares)
    history = [best]
    step = step0
    for _ in range(cfg.max_iters):
        if best == 0.0:
            break  # no candidate can score below an exact collage
        trials = _candidate_moves(params, n, d, box, step)
        blocks = trials.reshape(len(trials), n, -1)
        moved = (trials.view(np.int64) != params.view(np.int64)).reshape(blocks.shape).any(axis=2)
        ci, bi = np.nonzero(moved)
        A, b = _project(blocks[ci, bi, : d * d].reshape(-1, d, d), blocks[ci, bi, d * d :], box, cfg.s_max)
        blocks[ci, bi] = np.concatenate([A.reshape(len(A), -1), b], axis=1)  # keep the projected coefficients
        for c in _line_survivors(target, field, blocks, moved, shares, best) if d == 1 else range(len(trials)):
            if np.isnan(blocks[c]).any():
                raise PreconditionError("cannot project the map into the domain")
            trial_shares = list(shares)
            for i in np.flatnonzero(moved[c]):
                trial_shares[i] = _Share(target, blocks[c, i, : d * d].reshape(d, d), blocks[c, i, d * d :], field)
            value = _score(target, trial_shares, best)
            if value < best:
                best, params, shares = value, trials[c], trial_shares
                history.append(best)
                break
        else:
            step *= STEP_DECAY
            if step < stop_step:
                break
    return tuple(AffineMap(p[: d * d].reshape(d, d), p[d * d :]) for p in params.reshape(n, -1)), best, history


def _baseline_maps(target: PointSet, box: Box, cfg: FitConfig):
    """Constant maps pinned at evenly spaced target points, clipped into the
    box: a target point may lie up to half a pitch outside a declared one."""
    d = target.dim
    picks = np.linspace(0, len(target) - 1, cfg.n).round().astype(int)
    return tuple(
        AffineMap(np.zeros((d, d)), np.clip(target.points[p], box.lo, box.hi)) for p in picks
    )


def fit_ifs(
    target: PointSet,
    cfg: FitConfig,
    domain: Box | None = None,
    init_maps=None,
) -> FitResult:
    """Fit an n-map system to a target set by minimizing the collage distance.

    Restart 0 starts from `init_maps` when given (warm start), then a slab
    heuristic, then seeded random candidates; the best final objective wins,
    earlier restarts keeping ties.  Deterministic for a fixed cfg.seed.
    """
    box = domain if domain is not None else Box(target.points.min(axis=0), target.points.max(axis=0))
    if not box.contains(target.points, tol=target.resolution / 2.0 + 1e-9):
        raise InputError("target points must lie inside the declared domain")
    # checks the target, domain and point cap once for every candidate,
    # before any map is built
    _check_images(target, box, cfg.n)
    baseline = IFS(box, _baseline_maps(target, box, cfg))
    baseline_value = collage_distance(baseline, target)
    field = _tick_field(target, box)
    rng = np.random.default_rng(cfg.seed)

    def starts():  # each drawn just before its descent, in the seeded order
        if init_maps is not None:
            yield _project_maps(np.array([m.A for m in init_maps]), np.array([m.b for m in init_maps]), box, cfg.s_max)
        yield _heuristic_maps(target, box, cfg)
        while True:
            yield _random_maps(target, box, cfg, rng)

    best_maps, best_value, best_history = None, np.inf, []
    for maps0 in itertools.islice(starts(), cfg.restarts):
        maps, value, history = _descend(target, box, cfg, maps0, field)
        # numerically tied restarts (mirror-image optima) keep the earliest,
        # which preserves orientation across warm-started frame sequences
        if value < best_value - 1e-9:
            best_maps, best_value, best_history = maps, value, history
        if best_value == 0.0:
            break  # no later restart can win

    if best_maps is None or best_value > baseline_value:
        return FitResult(baseline, baseline_value, (baseline_value,), baseline_fallback=True)
    return FitResult(IFS(box, best_maps), best_value, tuple(best_history))


def fit_sequence(
    targets, cfg: FitConfig, domain: Box | None = None
) -> FitSequenceResult:
    """Fit every frame, warm-starting each from the previous fit, then align
    the fitted chain.  Frame failures carry the frame index."""
    targets = list(targets)
    if not targets:
        raise InputError("need at least one target frame")
    for k, target in enumerate(targets, start=1):
        if target.dim != targets[0].dim:
            raise InputError(f"frame {k}: dimension {target.dim} differs from frame 1's {targets[0].dim}")
    if domain is None:
        lo = np.min([t.points.min(axis=0) for t in targets], axis=0)
        hi = np.max([t.points.max(axis=0) for t in targets], axis=0)
        domain = Box(lo, hi)
    results = []
    previous = None
    for k, target in enumerate(targets, start=1):
        try:
            result = fit_ifs(target, cfg, domain=domain, init_maps=previous)
        except (InputError, PreconditionError) as exc:
            raise type(exc)(f"frame {k}: {exc}") from exc
        results.append(result)
        previous = result.ifs.maps
    sequence = align_chain(IFSSequence(tuple(r.ifs for r in results)))
    return FitSequenceResult(
        sequence=sequence,
        distances=tuple(r.distance for r in results),
    )


def _limit_and_ratio(y: np.ndarray):
    """Estimated limit and step ratio of a convergent coefficient series.

    Solves y_j = s + (alpha*j + gamma) * (y_j - y_{j-1}) in least squares,
    which is exact both for geometric tails c + beta*rho^j and for harmonic
    tails c + a/j.  Returns None when the series does not show a usable
    one-sided decay.
    """
    m = y.size
    diffs = np.diff(y)
    scale = max(np.abs(y).max(), 1.0)
    if np.abs(diffs[-3:]).max() <= 1e-12 * scale:
        return float(y[-1]), 0.0  # already converged
    recent = diffs[-3:] if diffs.size >= 3 else diffs
    if not (np.all(recent > 0) or np.all(recent < 0)):
        return float(y[-1]), 0.0  # oscillation, treat as settled noise
    rho = diffs[-1] / diffs[-2] if diffs.size >= 2 and diffs[-2] != 0.0 else None
    if rho is None or not np.isfinite(rho):
        return None
    if abs(rho) >= 1.0:
        return None
    if m >= 4:
        j = np.arange(2, m + 1, dtype=float)  # 1-based indices with a prior step
        w = diffs  # w_j = y_j - y_{j-1}
        design = np.column_stack([np.ones(m - 1), j * w, w])
        coeffs, *_ = np.linalg.lstsq(design, y[1:], rcond=None)
        limit = float(coeffs[0])
    else:
        # exactly three points: classic three-point geometric fit
        limit = float(y[-1] + diffs[-1] * rho / (1.0 - rho))
    if not np.isfinite(limit):
        return None
    # a limit far outside the observed range signals a blowup, not a trend
    spread = float(y.max() - y.min())
    lo, hi = y.min() - 10.0 * spread, y.max() + 10.0 * spread
    return float(np.clip(limit, lo, hi)), float(rho)


def _extrapolate_series(y: np.ndarray, horizon: int, kind: str) -> float:
    if kind == "hold-last" or horizon == 0:
        return float(y[-1])
    if kind == "linear":
        j = np.arange(1, y.size + 1, dtype=float)
        slope = float(np.polyfit(j, y, 1)[0]) if y.size > 1 else 0.0
        return float(y[-1] + slope * horizon)
    fitted = _limit_and_ratio(y)
    if fitted is None:
        warnings.warn(
            "geometric decay not identifiable (step ratio >= 1); falling back "
            "to the linear model",
            RuntimeWarning,
            stacklevel=3,
        )
        return _extrapolate_series(y, horizon, "linear")
    limit, rho = fitted
    return float(limit + (y[-1] - limit) * rho**horizon)


def extrapolate(seq: IFSSequence, model: ExtrapolationModel) -> IFS:
    """Carry each affine coefficient of the aligned chain `horizon` steps past
    the final term and rebuild a feasible system."""
    aligned = align_chain(seq)
    minimum = 3 if model.kind == "geometric" else 2
    if len(aligned) < minimum:
        raise PreconditionError(
            f"{model.kind} extrapolation needs at least {minimum} terms"
        )
    series = np.array([[np.concatenate([m.A.ravel(), m.b]) for m in term.maps] for term in aligned.terms])
    coeffs = np.array(
        [[_extrapolate_series(y, model.horizon, model.kind) for y in per_map.T] for per_map in series.transpose(1, 0, 2)]
    )
    d = aligned.domain.dim
    maps = _project_maps(coeffs[:, : d * d].reshape(-1, d, d), coeffs[:, d * d :], aligned.domain, model.s_max)
    return IFS(aligned.domain, maps)
