"""Sequences of same-arity systems: alignment, monotonicity, Cauchy analysis,
and limit extraction.

All predicates act on finite prefixes.  "For every eps there is an N" becomes
"the smallest N witnessed inside the given prefix", and a witness must be
nonvacuous: it has to cover at least one consecutive pair (or, for Cauchy,
one pair of distinct indices).  Returned indices count terms from 1.

align_chain is the one alignment path: it matches each consecutive cost
matrix (systems.cost_links) against the previous term as already reindexed.
is_decreasing and eventually_decreasing_at then match only the consecutive
links of the aligned chain.  analyze_sequence builds the cost tensor of the
aligned terms (systems.cost_tensor) once and reads D, monotonicity,
minimal-ordering transitivity, the Cauchy index and the limit from it, solving
each matching at most once; limit_candidate is a view of it, and
pairwise_distances and cauchy_index read the tensor of the raw terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from .maps import AffineMap, Box, dbar_stacks
from .systems import (
    FACTOR_TOL,
    IFS,
    Permutation,
    _mo_transitive,
    big_d,
    cost_links,
    cost_tensor,
    optimal_matching,
)

# is_mo_set solves a matching per ordered pair of terms, so analyze runs it
# only on short sequences.
MO_CHECK_MAX_TERMS = 12


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
    `failure` holds the error that limit_candidate raises.  `mo_set` is None
    when the transitivity check was not run.
    """

    pairwise: np.ndarray
    factor_traces: tuple[tuple[float, ...], ...]
    decreasing: bool
    eventually_decreasing_at: int | None
    cauchy_at: int | None
    alignment: tuple[Permutation, ...]
    limit: IFS | None
    residual: float
    mo_set: bool | None = None
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


def _decrease_flags(aligned: IFSSequence, sigmas) -> list[bool]:
    """leq(term_{j+1}, term_j) for each consecutive pair of an aligned chain,
    where sigmas[j] is the optimal matching of term j+1 (rows) against term j."""
    factors = [[f.contractivity for f in term.maps] for term in aligned.terms]
    return [
        all(factors[j + 1][i] <= factors[j][s] + FACTOR_TOL for i, s in enumerate(sigma.image))
        for j, sigma in enumerate(sigmas)
    ]


def _link_flags(seq: IFSSequence) -> list[bool]:
    """Decrease flags of the aligned chain from its consecutive links alone.
    dbar is symmetric bit for bit, so the transpose of link j is the cost
    matrix of term j+1 against term j."""
    aligned = align_chain(seq)
    sigmas = [optimal_matching(C.T)[0] for C in cost_links(aligned.terms)]
    return _decrease_flags(aligned, sigmas)


def _distances(m: int, matching) -> np.ndarray:
    """Symmetric matrix of D from matching(j, k) for each pair j < k."""
    out = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1, m):
            out[j, k] = out[k, j] = matching(j, k)[1]
    return out


def pairwise_distances(seq: IFSSequence) -> np.ndarray:
    """Symmetric matrix of D between all pairs of terms."""
    T = cost_tensor(seq.terms)
    return _distances(len(seq), lambda j, k: optimal_matching(T[j, k]))


def is_decreasing(seq: IFSSequence) -> bool:
    return all(_link_flags(seq))


def _eventually_from_flags(flags: list[bool]) -> int | None:
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


def _decreasing_start(factors) -> int | None:
    """First term of the decreasing tail of one slot's factor trace."""
    return _eventually_from_flags(
        [factors[j + 1] <= factors[j] + FACTOR_TOL for j in range(len(factors) - 1)]
    )


def _slot_problem(factors, dbar: np.ndarray, eps: float) -> str | None:
    """Why a slot has no limit candidate, or None; dbar is the slot's
    matrix of dbar between terms."""
    if _decreasing_start(factors) is None:
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
    factors = [f.contractivity for f in maps]
    A = np.array([f.A for f in maps])
    b = np.array([f.b for f in maps])
    dbar = dbar_stacks(A, b, A, b, domain.vertices())
    problem = _slot_problem(factors, dbar, eps)
    if problem is not None:
        raise PreconditionError(problem)
    return maps[-1], float(min(factors[_decreasing_start(factors) - 1 :]))


def analyze_sequence(
    seq: IFSSequence, eps: float, mo_max_terms: int = MO_CHECK_MAX_TERMS
) -> SequenceReport:
    """Every diagnostic of the aligned chain from one cost tensor.

    The chain is aligned by align_chain; D between the aligned terms, the
    decrease flags, minimal-ordering transitivity (run for 2 to mo_max_terms
    terms), the Cauchy index at eps, each slot's limit preconditions and the
    residual are then read from the aligned tensor, and each matching is
    solved once.  A failed limit extraction is returned in `failure`, not
    raised, so the report still carries everything computed before it.
    """
    aligned = align_chain(seq)
    T = cost_tensor(aligned.terms)
    matching = functools.cache(lambda j, k: optimal_matching(T[j, k]))
    m, n = len(seq), seq.n
    dist = _distances(m, matching)
    flags = _decrease_flags(aligned, [matching(j + 1, j)[0] for j in range(m - 1)])
    mo_set = None
    if 2 <= m <= mo_max_terms:
        mo_set = _mo_transitive(T, lambda i, j: matching(i, j)[1])
    traces = tuple(tuple(t.maps[i].contractivity for t in aligned.terms) for i in range(n))
    limit, residual, cauchy_at, failure = None, math.nan, None, None
    if eps <= 0.0:
        failure = InputError("eps must be positive")
    else:
        cauchy_at = _cauchy_from_matrix(dist, eps)
        for i in range(n):
            problem = _slot_problem(traces[i], T[:, :, i, i], eps)
            if problem is not None:
                failure = PreconditionError(f"slot {i + 1}: {problem}")
                break
        else:
            limit = aligned.terms[-1]
            residual = matching(m - 1, m - 1)[1]
    return SequenceReport(
        pairwise=dist,
        factor_traces=traces,
        decreasing=all(flags),
        eventually_decreasing_at=_eventually_from_flags(flags),
        cauchy_at=cauchy_at,
        alignment=aligned.alignment,
        limit=limit,
        residual=residual,
        mo_set=mo_set,
        failure=failure,
    )


def limit_candidate(seq: IFSSequence, eps: float) -> SequenceReport:
    """Per-slot limit extraction over the aligned chain.

    The limit candidate is the final aligned term (no extrapolation), so the
    residual D(last term, limit) is zero whenever extraction succeeds.
    Slot-level precondition failures are raised with the offending slot.
    """
    report = analyze_sequence(seq, eps, mo_max_terms=0)
    if report.failure is not None:
        raise report.failure
    return report
