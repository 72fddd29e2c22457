"""Sequences of same-arity systems: alignment, monotonicity, Cauchy analysis,
and limit extraction.

All predicates act on finite prefixes.  "For every eps there is an N" becomes
"the smallest N witnessed inside the given prefix", and a witness must be
nonvacuous: it has to cover at least one consecutive pair (or, for Cauchy,
one pair of distinct indices).  Returned indices count terms from 1.

align_chain is the one alignment path: it matches each consecutive cost
matrix (systems.cost_links) against the previous term as already reindexed.
The identity, the smallest permutation, is then the tie-broken optimal
matching of every aligned link, so the decrease flags compare the aligned
contraction-factor traces slot by slot.  analyze_sequence builds the cost
tensor of the aligned terms once and reads everything else from it and its
matrix of D (systems._distances, which matches a row of pairs at a time);
limit_candidate is a view of it, and pairwise_distances and cauchy_index read
the tensor of the raw terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from .maps import AffineMap, Box, dbar_stacks
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
    """Ordered list of systems sharing arity and domain.

    `aligned` records that consecutive minimal ordering has been applied;
    `alignment` then holds the permutation applied to each term.
    """

    terms: tuple[IFS, ...]
    aligned: bool = False
    alignment: tuple[Permutation, ...] | None = None

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

    When limit extraction fails, `limit` is None, `residual` is NaN and
    `failure` holds the error that limit_candidate raises.  `mo_set` says
    whether minimal ordering is transitive over the terms; it is True for a
    single term.
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


def align_chain(seq: IFSSequence) -> IFSSequence:
    """Reindex each term so it is minimally ordered with respect to the
    previous (already reindexed) term.  Idempotent; term 1 is unchanged."""
    if seq.aligned:
        return seq
    perms = [Permutation.identity(seq.n)]
    for C in cost_links(seq.terms):
        perms.append(optimal_matching(C[list(perms[-1].image)])[0])
    terms = seq.terms
    aligned = terms[:1] + tuple(t.reordered(p) for t, p in zip(terms[1:], perms[1:]))
    return IFSSequence(aligned, aligned=True, alignment=tuple(perms))


def _traces(aligned: IFSSequence) -> np.ndarray:
    """(n, m) contraction factors of each slot along an aligned chain."""
    return np.array([[t.maps[i].contractivity for t in aligned.terms] for i in range(aligned.n)])


def _decreases(factors: np.ndarray) -> np.ndarray:
    """factors[..., j + 1] <= factors[..., j] for each consecutive pair."""
    return factors[..., 1:] <= factors[..., :-1] + FACTOR_TOL


def _link_flags(seq: IFSSequence) -> np.ndarray:
    """leq(term_{j+1}, term_j) for each consecutive pair of the aligned chain:
    the identity matches every aligned link, so leq compares slot by slot."""
    return np.all(_decreases(_traces(align_chain(seq))), axis=0)


def pairwise_distances(seq: IFSSequence) -> np.ndarray:
    """Symmetric matrix of D between all pairs of terms."""
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


def _cauchy_from_matrix(dist: np.ndarray, eps: float) -> int | None:
    if eps <= 0.0:
        raise InputError("eps must be positive")
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
    return _cauchy_from_matrix(pairwise_distances(seq), eps)


def converges_to(seq: IFSSequence, target: IFS, eps: float) -> int | None:
    """Smallest N with D(term_j, target) < eps for every j >= N."""
    if eps <= 0.0:
        raise InputError("eps must be positive")
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
    if eps <= 0.0:
        raise InputError("eps must be positive")
    if any(f.dim != domain.dim for f in maps):
        raise InputError(f"dimension mismatch: maps on a {domain.dim}-box")
    factors = np.array([f.contractivity for f in maps])
    A = np.array([f.A for f in maps])
    b = np.array([f.b for f in maps])
    dbar = dbar_stacks(A, b, A, b, domain.vertices())
    start = _eventually_from_flags(_decreases(factors))
    problem = _slot_problem(start, dbar, eps)
    if problem is not None:
        raise PreconditionError(problem)
    return maps[-1], float(min(factors[start - 1 :]))


def analyze_sequence(seq: IFSSequence, eps: float) -> SequenceReport:
    """Every diagnostic of the aligned chain from one cost tensor.

    The chain is aligned by align_chain.  Its cost tensor gives D between the
    aligned terms, one matching per pair j < k; minimal-ordering
    transitivity, the Cauchy index at eps, each slot's dbar matrix and the
    residual D(last term, limit) are read from D and the tensor.  The
    decrease flags and each slot's decreasing tail come from the aligned
    factor traces.  A failed limit extraction is returned in `failure`, not
    raised, so the report still carries everything computed before it.
    """
    aligned = align_chain(seq)
    T = cost_tensor(aligned.terms)
    dist = _distances(T)
    traces = _traces(aligned)
    decreases = _decreases(traces)
    flags = np.all(decreases, axis=0)
    limit, residual, cauchy_at, failure = None, math.nan, None, None
    if eps <= 0.0:
        failure = InputError("eps must be positive")
    else:
        cauchy_at = _cauchy_from_matrix(dist, eps)
        for i, slot in enumerate(decreases):
            problem = _slot_problem(_eventually_from_flags(slot), T[:, :, i, i], eps)
            if problem is not None:
                failure = PreconditionError(f"slot {i + 1}: {problem}")
                break
        else:
            limit = aligned.terms[-1]
            residual = float(dist[-1, -1])
    return SequenceReport(
        pairwise=dist,
        factor_traces=tuple(map(tuple, traces.tolist())),
        decreasing=all(flags),
        eventually_decreasing_at=_eventually_from_flags(flags),
        cauchy_at=cauchy_at,
        alignment=aligned.alignment,
        limit=limit,
        residual=residual,
        mo_set=_mo_transitive(T, dist),
        failure=failure,
    )


def limit_candidate(seq: IFSSequence, eps: float) -> SequenceReport:
    """Per-slot limit extraction over the aligned chain.

    The limit candidate is the final aligned term (no extrapolation), so the
    residual D(last term, limit) is the zero diagonal entry of the D matrix
    whenever extraction succeeds.  Slot-level precondition failures are raised
    with the offending slot; the report is analyze_sequence's.
    """
    report = analyze_sequence(seq, eps)
    if report.failure is not None:
        raise report.failure
    return report
