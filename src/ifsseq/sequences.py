"""Sequences of same-arity systems: alignment, monotonicity, Cauchy analysis,
limit extraction, and the tail fit that carries a chain past its last term.

All predicates act on finite prefixes.  "For every eps there is an N" becomes
"the smallest N witnessed inside the given prefix", and a witness must be
nonvacuous: it has to cover at least one consecutive pair (or, for Cauchy,
one pair of distinct indices).  Returned indices count terms from 1.

A sequence holds only its terms; the alignment is computed from them by one
path, _alignment, which matches each consecutive cost matrix against the
previous term as already reindexed.  The identity, the smallest permutation,
is then the tie-broken optimal matching of every aligned link, so the
decrease flags compare the aligned contraction-factor traces slot by slot.
align_chain takes the matrices from systems.cost_links; analyze_sequence
takes them from the one cost tensor it builds, whose D it reads as given
and from which it gathers only what depends on the alignment.  extrapolate
fits each coefficient's tail along align_chain's chain and projects the
result onto the feasible set (maps._project_maps).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from .maps import S_MAX, AffineMap, Box, _check_s_max, _project_maps, dbar_stacks
from .systems import (
    FACTOR_TOL,
    IFS,
    Permutation,
    _distances,
    _mo_transitive,
    big_d,
    cost_links,
    cost_tensor,
    optimal_matching,
)


@dataclass(frozen=True, eq=False)
class IFSSequence:
    """Ordered list of systems sharing arity and domain, in the order given;
    align_chain computes the minimally ordered chain."""

    terms: tuple[IFS, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise InputError("a sequence needs at least one term")
        first = terms[0]
        for k, term in enumerate(terms[1:], start=2):
            if term.n != first.n:
                raise InputError(f"term {k} has arity {term.n}, expected {first.n}")
            if term.domain != first.domain:
                raise InputError(f"term {k} lives on a different domain")
        object.__setattr__(self, "terms", terms)

    def __len__(self):
        return len(self.terms)

    @property
    def n(self) -> int:
        return self.terms[0].n

    @property
    def domain(self) -> Box:
        return self.terms[0].domain


@dataclass(frozen=True, eq=False)
class SequenceReport:
    """Aggregate of the sequence diagnostics produced by analyze_sequence.

    `pairwise` and `cauchy_at` are pairwise_distances's and cauchy_index's;
    the rest follows the aligned chain.  When limit extraction fails, `limit`
    is None, `residual` is NaN and `failure` holds the error, naming the
    offending slot.  `mo_set` says whether minimal ordering is transitive
    over the terms; it is True for a single term.
    """

    pairwise: np.ndarray
    factor_traces: tuple[tuple[float, ...], ...]
    decreasing: bool
    eventually_decreasing_at: int | None
    cauchy_at: int | None
    alignment: tuple[Permutation, ...]
    limit: IFS | None
    residual: float
    mo_set: bool
    failure: InputError | PreconditionError | None = None


def _alignment(links: np.ndarray) -> tuple[Permutation, ...]:
    """One permutation per term from the (m - 1, n, n) consecutive cost
    matrices, the identity for term 1."""
    perms = [Permutation.identity(links.shape[-1])]
    for C in links:
        perms.append(optimal_matching(C[list(perms[-1].image)])[0])
    return tuple(perms)


def align_chain(seq: IFSSequence) -> IFSSequence:
    """Reindex each term so it is minimally ordered with respect to the
    previous (already reindexed) term.  An aligned chain comes back equal,
    term for term (above ENUMERATE_MAX_N maps, up to the MATCH_TOL band)."""
    perms = _alignment(cost_links(seq.terms))
    return IFSSequence(tuple(t.reordered(p) for t, p in zip(seq.terms, perms)))


def _traces(seq: IFSSequence, alignment: tuple[Permutation, ...]) -> np.ndarray:
    """(n, m) contraction factors of each slot along the aligned chain."""
    factors = np.array([[f.contractivity for f in t.maps] for t in seq.terms])
    return np.take_along_axis(factors, np.array([p.image for p in alignment]), axis=1).T


def _decreases(factors: np.ndarray) -> np.ndarray:
    """factors[..., j + 1] <= factors[..., j] for each consecutive pair."""
    return factors[..., 1:] <= factors[..., :-1] + FACTOR_TOL


def _link_flags(seq: IFSSequence) -> np.ndarray:
    """leq(term_{j+1}, term_j) for each consecutive pair of the aligned chain:
    the identity matches every aligned link, so leq compares slot by slot."""
    return np.all(_decreases(_traces(seq, _alignment(cost_links(seq.terms)))), axis=0)


def pairwise_distances(seq: IFSSequence) -> np.ndarray:
    """Symmetric matrix of D between all pairs of terms, as given: the
    `pairwise` of analyze_sequence."""
    return _distances(cost_tensor(seq.terms))


def is_decreasing(seq: IFSSequence) -> bool:
    return all(_link_flags(seq))


def _eventually_from_flags(flags) -> int | None:
    if all(flags):
        return 1
    last_bad = max(j for j, ok in enumerate(flags) if not ok)  # 0-based pair index
    start = last_bad + 2  # first term of the decreasing tail, 1-based
    return start if start <= len(flags) else None


def eventually_decreasing_at(seq: IFSSequence) -> int | None:
    """Smallest k such that the chain decreases from term k on; None when the
    prefix holds no nonvacuous witness."""
    return _eventually_from_flags(_link_flags(seq))


def _check_eps(eps: float):
    if not eps > 0.0:
        raise InputError("eps must be positive")


def _cauchy_from_matrix(dist: np.ndarray, eps: float) -> int | None:
    """cauchy_index on a matrix of D, for an eps its caller checked."""
    m = dist.shape[0]
    if m == 1:
        return 1
    for start in range(m - 1):  # need at least one distinct pair in the tail
        tail = dist[start:, start:]
        if float(tail.max(initial=0.0)) < eps:
            return start + 1
    return None


def cauchy_index(seq: IFSSequence, eps: float) -> int | None:
    """Smallest N with D(term_j, term_k) < eps for all j, k >= N."""
    _check_eps(eps)
    return _cauchy_from_matrix(pairwise_distances(seq), eps)


def converges_to(seq: IFSSequence, target: IFS, eps: float) -> int | None:
    """Smallest N with D(term_j, target) < eps for every j >= N."""
    _check_eps(eps)
    dists = [big_d(term, target) for term in seq.terms]
    if dists[-1] >= eps:
        return None
    bad = [j for j, d in enumerate(dists) if d >= eps]
    return (max(bad) + 2) if bad else 1


def _slot_problem(start: int | None, dbar: np.ndarray, eps: float) -> str | None:
    """Why a slot has no limit candidate, or None; start is the first term of
    the slot's decreasing factor tail and dbar its matrix of dbar between
    terms."""
    if start is None:
        return "contractivity factors are not eventually decreasing"
    if _cauchy_from_matrix(dbar, eps) is None:
        return f"sequence is not Cauchy at eps={eps}"
    return None


def limit_of_contractions(
    maps, domain: Box, eps: float
) -> tuple[AffineMap, float]:
    """Limit candidate of a finite contraction sequence under dbar.

    Requires the contractivity factors to be eventually decreasing and the
    sequence to be empirically Cauchy at eps; the candidate is the final map
    (coefficient-wise limit of an affine Cauchy sequence) and the certified
    factor bound is the minimum over the decreasing tail.
    """
    maps = list(maps)
    if not maps:
        raise InputError("need at least one map")
    _check_eps(eps)
    if any(f.dim != domain.dim for f in maps):
        raise InputError(f"dimension mismatch: maps on a {domain.dim}-box")
    factors = np.array([f.contractivity for f in maps])
    A = np.array([f.A for f in maps])
    b = np.array([f.b for f in maps])
    dbar = dbar_stacks(A, b, A, b, domain)
    start = _eventually_from_flags(_decreases(factors))
    problem = _slot_problem(start, dbar, eps)
    if problem is not None:
        raise PreconditionError(problem)
    return maps[-1], float(min(factors[start - 1 :]))


def analyze_sequence(seq: IFSSequence, eps: float) -> SequenceReport:
    """Every diagnostic of the aligned chain from one cost tensor.

    The cost tensor T of the terms as given gives their matrix of D
    (_distances), pairwise_distances's array, so cauchy_at is cauchy_index
    at every eps.  The alignment P comes from the blocks T[j, j + 1], and
    one (m, m, n) gather takes slot i's dbar between aligned terms j and k,
    T[j, k][P[j][i], P[k][i]]: each slot's dbar matrix and, summed over the
    slots, the aligned traces that with D decide minimal-ordering
    transitivity.  The decrease flags and each slot's decreasing tail come
    from the aligned factor traces.  The limit candidate is the final aligned
    term (no extrapolation), so a successful extraction has residual 0.  A
    failed limit extraction is returned in `failure`, not raised, so the
    report still carries everything computed before it.
    """
    T = cost_tensor(seq.terms)
    dist = _distances(T)
    alignment = _alignment(np.diagonal(T, 1).transpose(2, 0, 1))
    P = np.array([p.image for p in alignment])
    J = np.arange(len(P))
    dbar = T[J[:, None, None], J[None, :, None], P[:, None, :], P[None, :, :]]
    del T  # the largest array, freed before the traces and the transitivity test
    traces = _traces(seq, alignment)
    decreases = _decreases(traces)
    flags = np.all(decreases, axis=0)
    limit, residual, cauchy_at, failure = None, math.nan, None, None
    try:
        _check_eps(eps)
    except InputError as exc:
        failure = exc
    else:
        cauchy_at = _cauchy_from_matrix(dist, eps)
        for i, slot in enumerate(decreases):
            problem = _slot_problem(_eventually_from_flags(slot), dbar[:, :, i], eps)
            if problem is not None:
                failure = PreconditionError(f"slot {i + 1}: {problem}")
                break
        else:
            limit = seq.terms[-1].reordered(alignment[-1])
            residual = float(dist[-1, -1])
    return SequenceReport(
        pairwise=dist,
        factor_traces=tuple(map(tuple, traces.tolist())),
        decreasing=all(flags),
        eventually_decreasing_at=_eventually_from_flags(flags),
        cauchy_at=cauchy_at,
        alignment=alignment,
        limit=limit,
        residual=residual,
        mo_set=_mo_transitive(dbar.sum(axis=2), dist),
        failure=failure,
    )


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
    s_max: float = S_MAX

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
        _check_s_max(self.s_max)


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
    """Carry each affine coefficient of the chain, aligned by align_chain,
    `horizon` steps past the final term and rebuild a feasible system."""
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
