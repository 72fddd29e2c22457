"""Collage-theorem distances and bounds, collage fitting, and sequence
extrapolation.

Fitting minimizes the collage distance h(L, W(L)) by random-restart
coordinate descent over the flat coefficient vector, projecting every
candidate back to the feasible set (singular values clamped, flat axes
zeroed, translation pulled inside the domain).  A projection that repeats
another is kept: it is not bitwise idempotent, and fits are golden-checked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .attractor import PointSet, _hausdorff_sq, _images, _snap
from .errors import InputError, PreconditionError
from .maps import AffineMap, Box, spectral_norm
from .sequences import IFSSequence, align_chain
from .systems import IFS

INITIAL_STEP = 0.1  # first descent step, as a fraction of the domain diameter
STEP_DECAY = 0.7  # step shrink after a sweep with no improving move


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
    results: tuple[FitResult, ...]


def _collage(images: np.ndarray, target: PointSet) -> float:
    """h(L, images): images snapped, not deduplicated, on the target's tree."""
    images = _snap(images, target.resolution)
    if target.dim == 1:
        images, tree = np.sort(images, axis=0), None
    else:
        tree = cKDTree(images)
    return math.sqrt(_hausdorff_sq(target.points, target.tree, images, tree))


def collage_distance(S: IFS, target: PointSet) -> float:
    """h(L, W(L)), bit for bit hausdorff(target, hutchinson(S, target))."""
    return _collage(_images(S, target), target)


def collage_bound(eps: float, t: float) -> float:
    """eps/(1-t): Hausdorff distance to the attractor guaranteed by the
    collage inequality for a system with factor t and collage distance eps."""
    if eps < 0.0:
        raise InputError("eps must be nonnegative")
    if not 0.0 <= t < 1.0:
        raise InputError("contractivity factor must lie in [0, 1)")
    return eps / (1.0 - t)


def _project(A: np.ndarray, b: np.ndarray, box: Box, V: np.ndarray, s_max: float):
    """project_map on arrays, given the box's vertices V."""
    u, s, vt = np.linalg.svd(A)
    if s.size and s[0] > s_max:
        A = u @ np.diag(np.minimum(s, s_max)) @ vt
    extent = box.hi - box.lo
    if extent.any():
        A = np.where((extent > 0)[:, None], A, 0.0)  # constant on flat axes
    for _ in range(64):
        img = V @ A.T + b
        if np.all(img.max(axis=0) - img.min(axis=0) <= extent + 1e-15):
            break
        A = A * 0.8  # image larger than the box along some axis
    else:
        raise PreconditionError("cannot project the map into the domain")
    shift = np.maximum(box.lo - img.min(axis=0), 0.0) + np.minimum(
        box.hi - img.max(axis=0), 0.0
    )
    return A, b + shift


def project_map(A: np.ndarray, b: np.ndarray, box: Box, s_max: float) -> AffineMap:
    """Nearest feasible map: singular values clamped to s_max, rows of flat
    axes zeroed, translation shifted (and A shrunk when even that cannot fit)
    so the box maps into itself."""
    A, b = np.atleast_2d(np.asarray(A, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return AffineMap(*_project(A, b, box, box.vertices(), s_max))


def _tiles(points: np.ndarray, n: int):
    """Split a point cloud into n roughly equal-count tiles, recursively
    cutting along the widest axis of each tile's bounding box.

    The cut lands on the largest coordinate gap near the count split, which
    separates the pieces of a disconnected self-affine target cleanly; for
    gap-free targets it degenerates to the plain count median."""
    if n == 1:
        return [points]
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
    maps = []
    for tile in _tiles(target.points, cfg.n):
        lo = tile.min(axis=0)
        hi = tile.max(axis=0)
        A = np.diag((hi - lo) / extent)
        b = lo - A @ src_lo
        maps.append(project_map(A, b, box, cfg.s_max))
    return tuple(maps)


def _random_maps(target: PointSet, box: Box, cfg: FitConfig, rng):
    d = target.dim
    maps = []
    for _ in range(cfg.n):
        A = rng.standard_normal((d, d))
        norm = spectral_norm(A)
        if norm > 0:
            A *= rng.uniform(0.1, 0.8) * cfg.s_max / norm
        anchor = target.points[rng.integers(0, len(target))]
        b = anchor - A @ anchor
        maps.append(project_map(A, b, box, cfg.s_max))
    return tuple(maps)


def _candidate_moves(params: np.ndarray, n: int, d: int, box: Box, step: float):
    """Trial parameter vectors around the current point.

    Three families, each in both signs: single coordinates; per-map stretches
    of A[r, c] with b[r] compensated about the domain center (a raw A change
    drags the image piece, trapping plain coordinate descent in a diagonal
    valley); and a joint stretch of every map about its own image center,
    which escapes the plateaus of the max-objective when several pieces
    attain the worst distance simultaneously.
    """
    per = d * d + d
    center = box.center
    for sign in (1.0, -1.0):
        delta = sign * step
        for idx in range(params.size):
            trial = params.copy()
            trial[idx] += delta
            yield trial
        for i in range(n):
            base = i * per
            for r in range(d):
                for c in range(d):
                    trial = params.copy()
                    trial[base + r * d + c] += delta
                    trial[base + d * d + r] -= delta * center[c]
                    yield trial
        for r in range(d):
            for c in range(d):
                trial = params.copy()
                for i in range(n):
                    base = i * per
                    A = params[base : base + d * d].reshape(d, d)
                    b = params[base + d * d : base + per]
                    own_center = A @ center + b
                    trial[base + r * d + c] += delta
                    trial[base + d * d + r] -= delta * own_center[c]
                yield trial


def _descend(target, box, cfg, maps0):
    n, d = cfg.n, target.dim
    V = box.vertices()
    step0 = INITIAL_STEP * box.diameter
    if step0 <= 0.0:
        step0 = 0.1  # degenerate single-point domain
    stop_step = max(step0 * 1e-6, 1e-12)

    def project(params):
        return [_project(p[:-d].reshape(d, d), p[-d:], box, V, cfg.s_max) for p in params.reshape(n, -1)]
    def pack(maps):
        return np.concatenate([np.concatenate([A.ravel(), b]) for A, b in maps])
    def collage(maps):
        return _collage(np.vstack([target.points @ A.T + b for A, b in maps]), target)

    # Each projection stays, as it is not bitwise idempotent and fits are
    # golden-checked: the start twice more, each candidate, the result.
    params = pack(project(pack([(m.A, m.b) for m in maps0])))
    best = collage(project(params))
    history = [best]
    step = step0
    for _ in range(cfg.max_iters):
        if best == 0.0:
            break  # no candidate can score below an exact collage
        improved = False
        for trial in _candidate_moves(params, n, d, box, step):
            trial_maps = project(trial)
            value = collage(trial_maps)
            if value < best:
                best = value
                params = pack(trial_maps)  # keep the projected coefficients
                history.append(best)
                improved = True
                break
        if not improved:
            step *= STEP_DECAY
            if step < stop_step:
                break
    return tuple(AffineMap(A, b) for A, b in project(params)), best, history


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
    # checks the target, domain and point cap once for every candidate
    baseline = IFS(box, _baseline_maps(target, box, cfg))
    baseline_value = collage_distance(baseline, target)
    rng = np.random.default_rng(cfg.seed)

    starts = []
    if init_maps is not None:
        starts.append(tuple(project_map(m.A, m.b, box, cfg.s_max) for m in init_maps))
    starts.append(_heuristic_maps(target, box, cfg))
    while len(starts) < cfg.restarts:
        starts.append(_random_maps(target, box, cfg, rng))
    starts = starts[: cfg.restarts]

    best_maps, best_value, best_history = None, np.inf, []
    for maps0 in starts:
        maps, value, history = _descend(target, box, cfg, maps0)
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
        results=tuple(results),
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
    d = aligned.domain.dim
    n = aligned.n
    maps = []
    for i in range(n):
        series = np.array(
            [np.concatenate([term.maps[i].A.ravel(), term.maps[i].b]) for term in aligned.terms]
        )
        coeffs = np.array(
            [
                _extrapolate_series(series[:, c], model.horizon, model.kind)
                for c in range(series.shape[1])
            ]
        )
        maps.append(
            project_map(coeffs[: d * d].reshape(d, d), coeffs[d * d :], aligned.domain, model.s_max)
        )
    return IFS(aligned.domain, tuple(maps))
