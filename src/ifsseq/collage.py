"""Collage-theorem distances and bounds, and collage fitting.

Fitting minimizes the collage distance h(L, W(L)) by random-restart
coordinate descent over the flat coefficient vector, projecting every
candidate back to the feasible set (maps._project: singular values clamped,
flat axes zeroed, translation pulled inside the domain).  The projection is
bitwise idempotent: a feasible map projects to itself, so the descent projects each
candidate once and keeps the projected coefficients.

The objective is scored per map.  A map's share holds its snapped images
and the directed max from them into L.  h(L, W(L)) is the max of those and
of the in side, the directed max from L into the union of the images, and
max and min are exact, so the shares combine to the brute value bit for
bit.  The in side is on the line the max over L of the min over the shares'
exact squares (_Share.near), and above hausdorff's directed kernel
(attractor._directed_sq) over the concatenated images, with one tree.
On the line the images of the ascending target under x -> ax + b are
ascending (a >= 0) or descending (a < 0), so they need no sort.

On the line a fit also reads out_sq from a field.  The target and the box
are fixed for the fit, and every image is snapped to the target's lattice,
so an image's distance into L depends only on its tick k = rint(x/delta).
fit_ifs tabulates that distance once per tick of the box (_tick_field, the
exact distance transform of Maurer, Qi & Raghavan 2003 reduced to the line),
and the squared distances of any stack of line maps' images are one gather
over their (maps, points) array of ticks (_line_sq).  Each entry is the
sorted scan's own expression at the same query float k*delta, so the gather
gives the scan's value bit for bit.  The field is skipped past
FIELD_TICKS_PER_POINT ticks per target point, where it would cost more than
the scans it saves; there the same stack is one sorted scan.  The shares
serve the descent alone: collage_distance is hausdorff(L, W(L)).

The descent keeps the incumbent's shares and scores only the maps that a
candidate moves (see _descend).  It is a compass search (Kolda, Lewis &
Torczon, SIAM Review 45, 2003): a sweep that improves nothing changes only
the step, so the sweeps an unchanged incumbent will run are known in
advance.  A ladder stacks them, at steps step, step*STEP_DECAY, ..., within
the budget, none below the stop step, and as many as fit in LADDER_PAIRS
candidate-map pairs (n*C for a sweep of C candidates): nine levels for two
maps on the line, where most sweeps improve nothing, and one for three in
the plane, where more levels are projections an improving sweep discards.
Its candidates are one array (_candidate_moves), and the descent projects
all the maps they move at once (_project, one stacked projection, row by
row, which marks a map it cannot project with NaN).  The walk takes the
levels in order, and the first candidate that scores below the incumbent
ends the ladder.  This is exact: each level's rows and projections are its
sweep's bit for bit, each level is screened with the masks below as the
walk left them, and a level the walk never reaches is only projected, so
its NaN raises nothing.  Two masks over L, which only grow in a descent,
hold points where a lower bound of h rejects a candidate before its shares
are complete:
- witness, on the line only, the point of L whose image lies farthest out
  in every share built: _survivors bounds each moved map's out_sq there for
  the whole sweep, and a candidate whose bound reaches the incumbent's
  value gets no share;
- reach, the point of L farthest from the images in every in side taken:
  _score bounds the in side there from each share's exact values, and
  such a candidate takes no full in side.
The walk goes in order through the survivors, _Share, which takes each of
their moved maps' one full set of images, and _score: the first candidate
that scores below the incumbent wins, as in a walk over every candidate, and
a candidate with a NaN map raises where the walk reaches it.

scipy.spatial loads at the first collage evaluation, not at import, so
commands that never fit start without it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .attractor import (
    _TICK_LIMIT,
    PointSet,
    _check_images,
    _directed_sq,
    _min_sq_brute,
    _min_sq_sorted_1d,
    _snap,
    hausdorff,
    hutchinson,
)
from .errors import InputError, PreconditionError
from .maps import S_MAX, AffineMap, Box, _check_s_max, _project, _project_maps, spectral_norm
from .sequences import IFSSequence
from .systems import IFS

INITIAL_STEP = 0.1  # first descent step, as a fraction of the domain diameter
STEP_DECAY = 0.7  # step shrink after a sweep with no improving move
FIELD_TICKS_PER_POINT = 8  # largest line field a fit builds, in ticks per target point
LADDER_PAIRS = 256  # candidate-map pairs a descent ladder holds: the sweeps it stacks


@dataclass(frozen=True)
class FitConfig:
    """Search budget and feasibility settings for collage fitting."""

    n: int
    restarts: int = 8
    max_iters: int = 200
    s_max: float = S_MAX
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be at least 1")
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        if self.restarts > sys.maxsize:  # as islice takes it
            raise InputError(f"restarts must not exceed {sys.maxsize}")
        if self.max_iters < 1:
            raise InputError("max_iters must be at least 1")
        _check_s_max(self.s_max)
        if self.seed < 0:
            raise InputError("seed must be nonnegative")


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
    is taken on the line at once, by _line_sq, from the fit's tick field
    (_tick_field), or by the sorted scan for a target too sparse for one,
    and the point of L whose image lies farthest out joins the descent's
    `witness` mask (_survivors reads it); above, at first read, by
    hausdorff's directed kernel, attractor._directed_sq.  near, on the line
    only, per point of L the exact squared distance to those images, is
    taken at first use, and reach_sq's exact squares at given points of L as
    asked: _score takes the in side only where out_sq and reach_sq do not
    reject."""

    __slots__ = ("target", "images", "_out_sq", "_near", "_reach")

    def __init__(self, target: PointSet, A: np.ndarray, b: np.ndarray, field, witness: np.ndarray):
        # images as AffineMap.transform takes them, snapped, not deduplicated
        self.target, self._out_sq, self._near, self._reach = target, None, None, None
        if target.dim == 1:
            ticks = _line_ticks(target, A[0], b)
            values = _line_sq(target, ticks, field)[0]
            top = int(values.argmax())
            self._out_sq, witness[top] = float(values[top]), True
            # ascending, as near's scan needs, or descending when a < 0
            self.images = ((ticks[0, ::-1] if A[0, 0] < 0.0 else ticks[0]) * target.resolution)[:, None]
        else:
            self.images = _snap(target.points @ A.T + b, target.resolution)

    @property
    def out_sq(self) -> float:
        if self._out_sq is None:
            self._out_sq = _directed_sq(self.images, self.target.points, self.target.tree)[0]
        return self._out_sq

    @property
    def near(self) -> np.ndarray:
        if self._near is None:
            self._near = _min_sq_sorted_1d(self.target.points, self.images)
        return self._near

    def reach_sq(self, at: np.ndarray) -> np.ndarray:
        """The brute squared distances from the target points `at` to the
        images (on the line by the sorted scan, bit for bit), each taken
        once: the descent's reach only grows."""
        if self._reach is None:  # per point of L, NaN until taken
            self._reach = np.full(len(self.target), np.nan)
        values = self._reach[at]
        if (new := np.isnan(values)).any():
            nearest = _min_sq_sorted_1d if self.target.dim == 1 else _min_sq_brute
            values[new] = self._reach[at[new]] = nearest(self.target.points[at[new]], self.images)
        return values


def _line_ticks(target: PointSet, a: np.ndarray, b: np.ndarray, at=slice(None)) -> np.ndarray:
    """Lattice ticks rint((x*a + b)/delta) of the images of the target's
    points `at` (all of them by default), one row per line map x -> a*x + b.

    x * a + b equals transform's x @ A.T + b (a zero may differ in sign,
    which no squared distance sees) at a quarter of its cost.  rint is
    _snap's half-even rounding, so ticks * delta are _snap's images.  L is
    ascending and x -> ax + b and the rounding are monotone, so each row
    comes out ascending, or descending when a < 0, for ascending `at`."""
    ticks = np.multiply.outer(a, target.points[at, 0])  # in place from here: the rows can be long
    ticks += b[:, None]
    ticks /= target.resolution
    return np.rint(ticks, out=ticks)


def _line_sq(target: PointSet, ticks: np.ndarray, field) -> np.ndarray:
    """Per image tick, the squared distance from that image into the target:
    a gather from the fit's tick field, or the sorted scan when there is
    none.  Either way each value is the scan's expression at the same query
    float, whatever the other ticks."""
    if field is None:
        queries = (ticks * target.resolution).reshape(-1, 1)
        return _min_sq_sorted_1d(queries, target.points).reshape(ticks.shape)
    k0, sq = field
    ends = ticks[:, [0, -1]] - k0  # each row is monotone, so its extremes are its ends
    if not ((ends >= 0.0).all() and (ends < sq.size).all()):  # numpy would wrap a negative index
        raise IndexError("an image tick lies outside the collage field")
    index = ticks.astype(np.intp)
    index -= int(k0)
    return sq[index]


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


def _score(target: PointSet, shares, bound: float, reach: np.ndarray) -> float:
    """h(L, union of the shares' images), bit for bit the brute value: max
    and min over the maps combine the per-map values exactly.  Lower bounds
    come first, the images' directed value and the in side at the points of
    the mask `reach` (_Share.reach_sq), the latter first above the line, where
    out_sq costs a kernel: one that reaches `bound` lies in [bound, h] and
    stands in for h.  Else the in side is taken in full, and its argmax
    point of L joins reach."""
    at = np.flatnonzero(reach)
    sides = (
        lambda: max(share.out_sq for share in shares),
        lambda: float(reduce(np.minimum, [share.reach_sq(at) for share in shares]).max()) if at.size else 0.0,
    )
    sq = 0.0
    for side in sides if target.dim == 1 else sides[::-1]:
        sq = max(sq, side())
        if math.sqrt(sq) >= bound:
            return math.sqrt(sq)
    if target.dim == 1:
        near = reduce(np.minimum, [share.near for share in shares])
        in_sq, far = float(near.max()), int(near.argmax())
    else:
        from scipy.spatial import cKDTree

        images = np.concatenate([share.images for share in shares])
        in_sq, far = _directed_sq(target.points, images, cKDTree(images))
    reach[far] = True
    return math.sqrt(max(in_sq, sq))


def collage_distance(S: IFS, target: PointSet) -> float:
    """h(L, W(L)), the collage distance of S on the target L."""
    return hausdorff(target, hutchinson(S, target))


def collage_bound(eps: float, t: float) -> float:
    """eps/(1-t): Hausdorff distance to the attractor guaranteed by the
    collage inequality for a system with factor t and collage distance eps."""
    if eps < 0.0:
        raise InputError("eps must be nonnegative")
    if not 0.0 <= t < 1.0:
        raise InputError("contractivity factor must lie in [0, 1)")
    return eps / (1.0 - t)


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


@cache
def _move_index(n: int, d: int):
    """Where _candidate_moves writes its increments for n maps in d
    dimensions: the (row, col) of every entry in one sign's half, and the map
    i and column c of each stretch.  Read-only, as every sweep shares them."""
    per = d * d + d
    size = n * per
    # one stretch per map i and entry A[r, c]: it moves A[r, c] and b[r]
    k = np.arange(n * d * d)
    i, r, c = k // (d * d), k // d % d, k % d
    a_col, b_col = i * per + r * d + c, i * per + d * d + r
    joint = size + n * d * d + r * d + c
    row = np.concatenate([np.arange(size), size + k, size + k, joint, joint])
    col = np.concatenate([np.arange(size), a_col, b_col, a_col, b_col])
    for index in (row, col, i, c):
        index.flags.writeable = False
    return row, col, i, c


def _candidate_moves(params: np.ndarray, n: int, d: int, box: Box, steps) -> np.ndarray:
    """Trial parameter vectors around the current point, one per row of a
    (len(steps)*C, n*(d*d + d)) array: a ladder of sweeps, the C candidates
    of each step stacked in the order of `steps`, for the descent to score in
    row order.

    Three families, each in both signs (all + rows first): single
    coordinates; per-map stretches of A[r, c] with b[r] compensated about
    the domain center (a raw A change drags the image piece, trapping plain
    coordinate descent in a diagonal valley); and a joint stretch of every
    map about its own image center, which escapes the plateaus of the
    max-objective when several pieces attain the worst distance
    simultaneously.  Each row is the trial that adding the step to a copy of
    params gives, bit for bit.
    """
    center, size, stretches = box.center, params.size, n * d * d
    blocks = params.reshape(n, -1)
    own = np.array([blocks[i, : d * d].reshape(d, d) @ center + blocks[i, d * d :] for i in range(n)])
    row, col, i, c = _move_index(n, d)
    rows = size + stretches + d * d  # per sign
    delta = np.multiply.outer(steps, [1.0, -1.0])[..., None]  # (level, sign, 1)
    fill = np.broadcast_to(delta, delta.shape[:2] + (size + stretches,))
    # x + -0.0 is x bit for bit, and x - y is x + -y, so each row is params
    # plus its increments, as adding them to a copy of params gives
    moves = np.full(delta.shape[:2] + (rows, size), -0.0)
    moves[:, :, row, col] = np.concatenate(
        [fill, -(delta * center[c]), fill[..., :stretches], -(delta * own[i, c])], axis=2
    )
    return (params + moves).reshape(-1, size)


def _survivors(
    target: PointSet, field, blocks: np.ndarray, moved: np.ndarray, shares, best: float, witness: np.ndarray
) -> np.ndarray:
    """The candidates of a projected sweep that a screen does not reject, as
    an ascending index array.

    blocks is the sweep's (C, n, d*d + d) array of projected coefficients
    and moved its (C, n) mask of moved maps.  A candidate whose incumbent
    shares of the maps it keeps reach best is rejected, as _score's out_sq
    would reject it; on the line so is one whose moved maps' exact field or
    scan values at the points of the mask `witness`, which the screen only
    reads, reach it.  Above the line a tree query there would reject only a
    few per cent more, at about the cost of the shares it saves.  A
    candidate with a NaN block, one _project could not project, passes
    unscreened: the walk raises there."""
    ci, bi = np.nonzero(moved)  # moved maps in candidate order
    rows = blocks[ci, bi]
    ok, at = rows[:, -1] == rows[:, -1], np.flatnonzero(witness)
    bound = np.where(ok, 0.0, np.nan)
    if target.dim == 1 and at.size:  # the field reads each tick row's ends, which an empty row lacks
        bound[ok] = _line_sq(target, _line_ticks(target, rows[ok, 0], rows[ok, 1], at), field).max(axis=1)
    sq = np.tile([share.out_sq for share in shares], (len(blocks), 1))
    sq[ci, bi] = bound
    return np.flatnonzero(~(np.sqrt(sq.max(axis=1)) >= best))


def _descend(target, box, cfg, maps0, field):
    n, d = cfg.n, target.dim
    step0 = INITIAL_STEP * box.diameter
    if step0 <= 0.0:
        step0 = 0.1  # degenerate single-point domain
    stop_step = max(step0 * 1e-6, 1e-12)
    per = d * d + d
    levels = max(1, LADDER_PAIRS // (n * 2 * (n * per + n * d * d + d * d)))  # sweeps a ladder holds

    # The starts are _project_maps outputs and a feasible map projects to
    # itself, so the incumbent's blocks are their own projections.  Each
    # incumbent takes a ladder of the sweeps it runs if none improves (see
    # the module docstring) and projects every block they move at once.  Its
    # levels are walked in order, each one sweep of the budget, and a
    # candidate scores only the maps it moves; the max/min combination of
    # the shares is exact.  It is scored against the incumbent's value,
    # which rejects most candidates on a lower bound: at the witness points
    # (on the line), on out_sq or at the reach points.
    params = np.concatenate([np.concatenate([m.A.ravel(), m.b]) for m in maps0])
    witness = np.zeros(len(target), bool)  # on the line, every share's farthest point: _survivors's points
    shares = [_Share(target, m.A, m.b, field, witness) for m in maps0]
    reach = np.zeros(len(target), bool)  # every full in side's farthest point: _score's points
    best = _score(target, shares, math.inf, reach)
    history = [best]
    step, sweeps = step0, 0
    while sweeps < cfg.max_iters and best != 0.0:  # no candidate can score below an exact collage
        steps = [step]
        while len(steps) < min(levels, cfg.max_iters - sweeps) and steps[-1] * STEP_DECAY >= stop_step:
            steps.append(steps[-1] * STEP_DECAY)
        trials = _candidate_moves(params, n, d, box, steps)
        blocks = trials.reshape(len(trials), n, per)
        moved = (trials.view(np.int64) != params.view(np.int64)).reshape(blocks.shape).any(axis=2)
        ci, bi = np.nonzero(moved)
        A, b = _project(blocks[ci, bi, : d * d].reshape(-1, d, d), blocks[ci, bi, d * d :], box, cfg.s_max)
        blocks[ci, bi] = np.concatenate([A.reshape(len(A), -1), b], axis=1)  # keep the projected coefficients
        for step, level, level_moved in zip(steps, np.split(blocks, len(steps)), np.split(moved, len(steps))):
            sweeps += 1
            for c in _survivors(target, field, level, level_moved, shares, best, witness):
                if np.isnan(level[c]).any():
                    raise PreconditionError("cannot project the map into the domain")
                trial_shares = list(shares)
                for i in np.flatnonzero(level_moved[c]):
                    block = level[c, i]
                    trial_shares[i] = _Share(target, block[: d * d].reshape(d, d), block[d * d :], field, witness)
                value = _score(target, trial_shares, best, reach)
                if value < best:
                    best, params, shares = value, level[c].ravel(), trial_shares
                    history.append(best)
                    break
            else:
                continue
            break  # a new incumbent takes a new ladder at the same step
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
    tol = target.resolution / 2.0 + 1e-9
    if not box.contains(target.points, tol=tol):
        inside = ((target.points >= box.lo - tol) & (target.points <= box.hi + tol)).all(axis=1)
        point = target.points[int(inside.argmin())].tolist()
        raise InputError(
            f"target point {point} lies outside the declared domain lo={box.lo.tolist()}, hi={box.hi.tolist()}"
        )
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
    """Fit every frame, warm-starting each from the previous fit; the fits
    stay in frame order.  Frame failures carry the frame index."""
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
    return FitSequenceResult(
        sequence=IFSSequence(tuple(r.ifs for r in results)),
        distances=tuple(r.distance for r in results),
    )
