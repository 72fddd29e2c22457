"""Iterated function systems with a fixed arity and the assignment metric D.

D(S, T) is the minimum over permutations sigma of sum_i dbar(f_i, g_sigma(i)).
The minimum is found with a Hungarian-style solver; ties between co-optimal
permutations are broken toward the lexicographically smallest image, which
makes reordering operations deterministic.

Every cost matrix comes from the one dbar kernel, maps.dbar_stacks: cost_matrix
for one pair of systems, cost_links for the consecutive pairs of a list and
cost_tensor for all of its pairs.  _distances reads the matrix of D from a
cost tensor, and is_mo_set and the sequence diagnostics read everything else
from that matrix and the tensor's traces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError, ResourceLimitError
from .maps import AffineMap, Box, dbar_stacks

MATCH_TOL = 1e-12
FACTOR_TOL = 1e-12
BRUTE_FORCE_MAX_N = 8


@dataclass(frozen=True, eq=False)
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

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if len(self) != len(other):
            raise InputError("permutation sizes differ")
        return Permutation(tuple(self.image[j] for j in other.image))

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

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Permutation({self.image})"


@dataclass(frozen=True, eq=False)
class IFS:
    """A box domain plus an ordered list of contractions mapping it into itself."""

    domain: Box
    maps: tuple[AffineMap, ...]

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise InputError("an IFS needs at least one map")
        for k, m in enumerate(maps):
            if m.dim != self.domain.dim:
                raise InputError(f"map {k} has dimension {m.dim}, domain has {self.domain.dim}")
            if not m.contractivity < 1.0:
                raise InputError(f"map {k} is not a contraction (factor {m.contractivity})")
            if not m.maps_into(self.domain):
                raise InputError(f"map {k} does not send the domain into itself")
        object.__setattr__(self, "maps", maps)

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
        # permuted checked maps pass every check, so __post_init__ is skipped
        out = object.__new__(IFS)
        object.__setattr__(out, "domain", self.domain)
        object.__setattr__(out, "maps", tuple(sigma.apply(self.maps)))
        return out

    def __eq__(self, other):
        if not isinstance(other, IFS):
            return NotImplemented
        return self.domain == other.domain and self.maps == other.maps

    def __hash__(self):
        return hash((self.domain, self.maps))

    def __repr__(self):
        return f"IFS(domain={self.domain!r}, n={self.n})"


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
    return dbar_stacks(A[:-1], b[:-1], A[1:], b[1:], terms[0].domain.vertices())


def cost_tensor(terms) -> np.ndarray:
    """Every pairwise cost matrix of a list of same-arity systems: entry
    [j, k] of the (m, m, n, n) result is cost_matrix(terms[j], terms[k]).
    Filled row by row, so the kernel's temporaries hold one row at a time;
    [k, j] is [j, k] transposed, as dbar is symmetric bit for bit."""
    terms = list(terms)
    A, b = _stacks(terms)
    m, n = b.shape[:2]
    V = terms[0].domain.vertices()
    out = np.empty((m, m, n, n))
    for j in range(m):
        out[j, j:] = dbar_stacks(A[j], b[j], A[j:], b[j:], V)
        out[j + 1 :, j] = out[j, j + 1 :].swapaxes(-1, -2)
    return out


def _solver_cost(C: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].sum())


def optimal_matching(C: np.ndarray) -> tuple[Permutation, float]:
    """Minimum-cost assignment on a square matrix.

    Among co-optimal permutations (up to MATCH_TOL) the lexicographically
    smallest image wins, fixed by greedily pinning each row to the smallest
    column whose optimal completion still reaches the overall minimum.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.size == 0:
        raise InputError("cost matrix must be square and nonempty")
    if not np.all(np.isfinite(C)):
        raise InputError("cost matrix entries must be finite")
    n = C.shape[0]
    best = _solver_cost(C)
    image: list[int] = []
    free = list(range(n))
    prefix = 0.0
    for i in range(n):
        for j in free:
            rest = [c for c in free if c != j]
            completion = _solver_cost(C[i + 1 :, rest]) if rest else 0.0
            if prefix + C[i, j] + completion <= best + MATCH_TOL:
                image.append(j)
                free.remove(j)
                prefix += C[i, j]
                break
        else:  # numerically impossible, every row must pin somewhere
            raise AssertionError("assignment refinement failed to pin a column")
    sigma = Permutation(tuple(image))
    cost = float(sum(C[i, sigma.image[i]] for i in range(n)))
    return sigma, cost


def matching_brute_force(C: np.ndarray) -> tuple[Permutation, float]:
    """Exhaustive n! oracle with the same lexicographic tie-break."""
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
    """Symmetric matrix of D over the systems behind a cost tensor, from one
    optimal matching per pair j < k."""
    m = T.shape[0]
    out = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1, m):
            out[j, k] = out[k, j] = optimal_matching(T[j, k])[1]
    return out


def is_mo_set(systems) -> bool:
    """Whether minimal ordering restricted to the collection is transitive.

    Reflexivity and symmetry hold for any collection, so the relation is an
    equivalence on the set exactly when every ordered triple is transitive.
    Symmetry also means one matching per unordered pair decides it.
    """
    T = cost_tensor(systems)
    return _mo_transitive(T, _distances(T))


def _mo_transitive(T: np.ndarray, D: np.ndarray) -> bool:
    """Transitivity of minimal ordering over the systems behind a cost tensor.

    D is their matrix of the metric D (_distances).  Term j is minimally
    ordered with respect to term i when the identity matching of T[i, j]
    attains D[i, j]; the diagonal always holds, as T[i, i] has a zero trace.
    """
    rel = np.trace(T, axis1=2, axis2=3) <= D + MATCH_TOL
    # (rel @ rel)[i, k] holds when rel[i, j] and rel[j, k] for some j
    return not np.any(rel @ rel & ~rel)
