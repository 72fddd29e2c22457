"""Iterated function systems with a fixed arity and the assignment metric D.

D(S, T) is the minimum over permutations sigma of sum_i dbar(f_i, g_sigma(i)).
optimal_matching returns the lexicographically smallest permutation within
MATCH_TOL of that minimum, which makes reordering operations deterministic.
Up to ENUMERATE_MAX_N maps it enumerates the n! costs, for a stack of
matrices at once (_lex_optimal); larger systems pin one row at a time with
scipy's linear_sum_assignment.

Every cost matrix comes from maps.dbar_stacks on the shared domain: cost_matrix
for one pair of systems, cost_links for the consecutive pairs of a list and
cost_tensor for all of its pairs.  _distances reads the matrix of D from a
cost tensor; _mo_transitive decides minimal ordering from that matrix and
the traces, the tensor's or (in analyze_sequence) the aligned terms'.

scipy.optimize loads at the first solve, so only at the first matching of
more than ENUMERATE_MAX_N maps: it is most of a cold start, and commands that
match a few maps (analyze, dist, predict) or none (attractor, collage-fit)
skip it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .maps import AffineMap, Box, _require_contraction, dbar_stacks

MATCH_TOL = 1e-12
FACTOR_TOL = 1e-12
BRUTE_FORCE_MAX_N = 8
# Matrices up to this size are matched by enumerating all n! costs.  Per
# matrix that is 1.4-4x faster than pinning rows with the solver at n = 4..6
# on every kind of input measured; at n = 7 it is 2x slower on near-identity
# optima, which aligned sequence terms have, and at n = 8 7x slower on all.
ENUMERATE_MAX_N = 6
# Sums held per _lex_optimal call on upper-triangle pairs in _distances (256 KiB).
ENUMERATE_CHUNK = 1 << 15
# Entries m^2 n^2 of a cost tensor, as attractor.POINT_CAP: 40 MB.  At the cap
# analyze peaks 165 MB above its start with n = 1, on four m x m arrays in
# _mo_transitive, and 53 MB with n = 4, on the tensor and its aligned gather.
COST_TENSOR_CAP = 5_000_000
# Row p of _PERMUTATIONS[n] is the p-th permutation of 0..n-1 in
# itertools.permutations (lexicographic) order, built at import (~0.3 ms).
_PERMUTATIONS = tuple(
    np.array(list(itertools.permutations(range(n))), dtype=np.intp) for n in range(ENUMERATE_MAX_N + 1)
)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}, stored as the image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(int(i) for i in self.image)
        n = len(image)
        if n == 0 or sorted(image) != list(range(n)):
            raise InputError(f"{image} is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __len__(self):
        return len(self.image)

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.image))

    def apply(self, items):
        """Reorder a sequence: result[i] = items[image[i]]."""
        items = list(items)
        if len(items) != len(self.image):
            raise InputError("sequence length does not match permutation size")
        return [items[j] for j in self.image]

    def describe(self) -> str:
        """Human-readable 1-based form, e.g. 'identity' or '(2 1)'."""
        if self.is_identity:
            return "identity"
        return "(" + " ".join(str(i + 1) for i in self.image) + ")"


@dataclass(frozen=True)
class IFS:
    """A box domain plus an ordered list of contractions mapping it into itself."""

    domain: Box
    maps: tuple[AffineMap, ...]

    def __post_init__(self):
        maps, box = tuple(self.maps), self.domain
        if not maps:
            raise InputError("an IFS needs at least one map")
        for k, m in enumerate(maps):
            if m.dim != box.dim:
                raise InputError(f"map {k} has dimension {m.dim}, domain has {box.dim}")
        _require_contraction(max(m.contractivity for m in maps))
        _require_inside(np.array([m.A for m in maps]), np.array([m.b for m in maps]), box)
        object.__setattr__(self, "maps", maps)

    @classmethod
    def _checked(cls, domain: Box, maps: tuple[AffineMap, ...]) -> "IFS":
        """The system of contractions that have passed _require_inside."""
        S = object.__new__(cls)
        S.__dict__.update(domain=domain, maps=maps)
        return S

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def contractivity(self) -> float:
        """Largest factor among the maps."""
        return max(m.contractivity for m in self.maps)

    def reordered(self, sigma: Permutation) -> "IFS":
        """Same system with maps[i] replaced by maps[sigma(i)]."""
        return IFS(self.domain, tuple(sigma.apply(self.maps)))

    def __repr__(self):
        return f"IFS(domain={self.domain!r}, n={self.n})"


def _require_inside(A: np.ndarray, b: np.ndarray, box: Box):
    """The containment check of maps A (..., n, d, d), b (..., n, d) in box, at
    its vertices as maps_into decides; the first map outside is named by its
    index among its n."""
    V, n = box.vertices(), b.shape[-2]
    img = (V @ A.reshape(-1, box.dim).T).reshape(len(V), *b.shape) + b
    inside = ((img >= box.lo - 1e-9) & (img <= box.hi + 1e-9)).all(axis=(0, -1))
    if not inside.all():
        raise InputError(f"map {int(np.argmin(inside)) % n} does not send the domain into itself")


def _stacks(terms) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients A (m, n, d, d) and b (m, n, d) of systems that share
    their arity and domain."""
    S = terms[0]
    for T in terms[1:]:
        if S.n != T.n:
            raise InputError(f"arity mismatch: {S.n} vs {T.n} maps")
        if S.domain != T.domain:
            raise InputError("systems live on different domains")
    A = np.array([[f.A for f in term.maps] for term in terms])
    b = np.array([[f.b for f in term.maps] for term in terms])
    return A, b


def cost_matrix(S: IFS, T: IFS) -> np.ndarray:
    """Entry (i, j) = dbar(f_i, g_j) over the shared domain; all in [0, 1)."""
    return cost_links([S, T])[0]


def cost_links(terms) -> np.ndarray:
    """The consecutive cost matrices of a list of same-arity systems: entry
    [j] of the (m - 1, n, n) result is cost_matrix(terms[j], terms[j + 1])."""
    terms = list(terms)
    A, b = _stacks(terms)
    return dbar_stacks(A[:-1], b[:-1], A[1:], b[1:], terms[0].domain)


def cost_tensor(terms) -> np.ndarray:
    """Every pairwise cost matrix of a list of same-arity systems: entry
    [j, k] of the (m, m, n, n) result is cost_matrix(terms[j], terms[k]).
    Filled row by row, so the kernel's temporaries hold one row at a time;
    [k, j] is [j, k] transposed, as dbar is symmetric bit for bit."""
    terms = list(terms)
    A, b = _stacks(terms)
    m, n = b.shape[:2]
    if m * m * n * n > COST_TENSOR_CAP:
        raise ResourceLimitError(f"the cost tensor of {m} terms of arity {n} exceeds the {COST_TENSOR_CAP}-entry cap")
    out = np.empty((m, m, n, n))
    for j in range(m):
        out[j, j:] = dbar_stacks(A[j], b[j], A[j:], b[j:], terms[0].domain)
        out[j + 1 :, j] = out[j, j + 1 :].swapaxes(-1, -2)
    return out


_solve = None


def linear_sum_assignment(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.optimize.linear_sum_assignment, imported on the first call.

    Every solve goes through this name, so wrapping it sees them all; it
    binds scipy's solver to _solve and never rebinds itself."""
    global _solve
    if _solve is None:
        from scipy.optimize import linear_sum_assignment as _solve
    return _solve(C)


def _solver_cost(C: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].sum())


def _lex_optimal(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enumerated assignment over a stack of square matrices (..., n, n).

    Sums C[..., i, sigma(i)] over every permutation sigma, left to right from
    0.0 as Python's sum does, and returns the row of _PERMUTATIONS[n] of the
    first sum within MATCH_TOL of the least, with that sum.  Each temporary
    holds n! sums per matrix, so callers chunk large stacks.
    """
    P = _PERMUTATIONS[C.shape[-1]]
    total = C[..., 0, P[:, 0]] + 0.0
    for i in range(1, P.shape[1]):
        total += C[..., i, P[:, i]]
    within = total <= total.min(axis=-1, keepdims=True) + MATCH_TOL
    first = np.argmax(within, axis=-1)
    return first, np.take_along_axis(total, first[..., None], axis=-1)[..., 0]


def _pinned_matching(C: np.ndarray) -> tuple[Permutation, float]:
    """Row-pinning assignment: each row in turn takes the smallest column
    whose optimal completion (a solve) still reaches the overall minimum, or,
    when rounding leaves no such column, the one of least total."""
    n = C.shape[0]
    best = _solver_cost(C)
    image: list[int] = []
    free = list(range(n))
    prefix = 0.0
    for i in range(n):
        totals = []
        for j in free:
            rest = [c for c in free if c != j]
            if len(rest) > 1:
                completion = _solver_cost(C[i + 1 :, rest])
            else:  # a 1x1 completion is its entry: the solver's one-term sum, bit for bit
                completion = float(C[i + 1, rest[0]]) if rest else 0.0
            total = prefix + C[i, j] + completion
            if total <= best + MATCH_TOL:
                break
            totals.append((total, j))
        else:  # only when a cost lies in the rounding band at optimum + MATCH_TOL
            _, j = min(totals)
        image.append(j)
        free.remove(j)
        prefix += C[i, j]
    sigma = Permutation(tuple(image))
    cost = float(sum(C[i, sigma.image[i]] for i in range(n)))
    return sigma, cost


def optimal_matching(C: np.ndarray) -> tuple[Permutation, float]:
    """Minimum-cost assignment on a square matrix.

    Returns the lexicographically smallest permutation sigma whose cost is
    within MATCH_TOL of the minimum, and its cost: sum_i C[i, sigma(i)] added
    left to right.  Up to ENUMERATE_MAX_N rows every permutation's cost is
    enumerated (_lex_optimal); above it each row is pinned in turn with the
    solver (_pinned_matching).  The two round the tolerance test differently:
    pinning compares prefix + C[i, j] + the solver's completion with the
    solver's optimum + MATCH_TOL, enumeration one left-to-right sum with the
    least sum + MATCH_TOL.  For entries in [0, 1) these differ by about
    n^2 * 2^-53, so the paths can disagree only when some permutation's exact
    cost lies within that band of the optimum + MATCH_TOL.  In that band
    pinning can also find no column within the bound for a row; it then pins
    the column of least total.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.size == 0:
        raise InputError("cost matrix must be square and nonempty")
    if not np.all(np.isfinite(C)):
        raise InputError("cost matrix entries must be finite")
    n = C.shape[0]
    if n > ENUMERATE_MAX_N:
        return _pinned_matching(C)
    first, cost = _lex_optimal(C)
    return Permutation(tuple(_PERMUTATIONS[n][first])), float(cost)


def matching_brute_force(C: np.ndarray) -> tuple[Permutation, float]:
    """Exhaustive n! oracle: the first permutation in lexicographic order of
    least cost (strict <), each cost summed left to right.  It agrees with
    optimal_matching's tie-break only on exact ties, as that one takes the
    first cost within MATCH_TOL of the least."""
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise ResourceLimitError(f"brute-force enumeration capped at n={BRUTE_FORCE_MAX_N}")
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(n)):
        cost = float(sum(C[i, perm[i]] for i in range(n)))
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return Permutation(best_perm), best_cost


def big_d(S: IFS, T: IFS) -> float:
    """The assignment metric D between two same-arity systems."""
    return optimal_matching(cost_matrix(S, T))[1]


def minimal_order(S: IFS, T: IFS) -> tuple[IFS, Permutation]:
    """Reindex T so it is minimally ordered with respect to S.

    Returns the reordered system and the permutation applied, so that the
    identity matching attains D(S, result).
    """
    sigma, _ = optimal_matching(cost_matrix(S, T))
    return T.reordered(sigma), sigma


def is_minimally_ordered(candidate: IFS, reference: IFS) -> bool:
    """True iff the identity matching of candidate against reference is optimal."""
    C = cost_matrix(reference, candidate)
    _, best = optimal_matching(C)
    return float(np.trace(C)) <= best + MATCH_TOL


def leq(S: IFS, T: IFS) -> bool:
    """Slotwise factor comparison S <= T after aligning T to S."""
    aligned, _ = minimal_order(S, T)
    return all(
        f.contractivity <= g.contractivity + FACTOR_TOL
        for f, g in zip(S.maps, aligned.maps)
    )


def _distances(T: np.ndarray) -> np.ndarray:
    """Symmetric matrix of D over the systems behind a cost tensor.  Up to
    ENUMERATE_MAX_N maps the pairs j < k of the upper triangle, in row order,
    are gathered from T and matched by _lex_optimal, ENUMERATE_CHUNK sums at
    a time; above it, one optimal_matching per pair."""
    m, n = T.shape[0], T.shape[-1]
    out = np.zeros((m, m))
    if n > ENUMERATE_MAX_N:
        for j in range(m):
            for k in range(j + 1, m):
                out[j, k] = out[k, j] = optimal_matching(T[j, k])[1]
        return out
    step = ENUMERATE_CHUNK // len(_PERMUTATIONS[n])
    J, K = np.triu_indices(m, 1)
    for at in range(0, J.size, step):
        j, k = J[at : at + step], K[at : at + step]
        out[j, k] = out[k, j] = _lex_optimal(T[j, k])[1]
    return out


def is_mo_set(systems) -> bool:
    """Whether minimal ordering restricted to the collection is transitive.

    Reflexivity and symmetry hold for any collection, so the relation is an
    equivalence on the set exactly when every ordered triple is transitive.
    Symmetry also means one matching per unordered pair decides it.
    """
    T = cost_tensor(systems)
    return _mo_transitive(np.trace(T, axis1=2, axis2=3), _distances(T))


def _mo_transitive(traces: np.ndarray, D: np.ndarray) -> bool:
    """Transitivity of minimal ordering over m systems, from traces[i, j],
    the trace of cost_matrix(system i, system j), and their matrix of D
    (_distances).  System j is minimally ordered with respect to system i
    when the identity matching attains D[i, j]; the diagonal always holds,
    as its traces are zero."""
    rel = traces <= D + MATCH_TOL
    # (rel @ rel)[i, k] holds when rel[i, j] and rel[j, k] for some j
    return not np.any(rel @ rel & ~rel)
