"""Affine maps on box domains and the bounded sup-metric between them.

The ambient metric is Euclidean.  For affine maps the pointwise distance
x -> ||(A_f - A_g) x + (b_f - b_g)|| is convex, so its supremum over a box
is attained at a vertex; `sup_distance` is therefore exact.  A grid-sampled
estimator is kept alongside as an independent cross-check.

`dbar_stacks` is the one vectorised dbar kernel: every cost matrix, cost
tensor and consecutive link in `systems` and `sequences` comes from it.
`sup_distance` and `dbar_inf` are the scalar reference it equals bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ContractionError, InputError, ResourceLimitError

MAX_VERTEX_DIM = 20
GRID_POINTS_PER_DIM = 10_000
GRID_POINTS_CAP = 1_000_000
COEFF_TOL = 1e-12


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value; closed form for d <= 2 where finite, else LAPACK."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if d == 1:
        return abs(float(A[0, 0]))
    if d == 2:
        # eigenvalues of the 2x2 symmetric matrix A^T A, which overflow
        # (to inf or nan) once entries pass ~1e76
        with np.errstate(over="ignore", invalid="ignore"):
            g = A.T @ A
            p, q, r = g[0, 0], g[0, 1], g[1, 1]
            disc = math.sqrt(((p - r) / 2.0) ** 2 + q * q)
            lam = (p + r) / 2.0 + disc
        if math.isfinite(lam):
            return math.sqrt(max(lam, 0.0))
    return float(np.linalg.norm(A, 2))


@dataclass(frozen=True, eq=False)
class Box:
    """Nonempty compact axis-aligned box [lo_1,hi_1] x ... x [lo_d,hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise InputError("box bounds must be nonempty vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InputError("box bounds must be finite")
        if np.any(lo > hi):
            raise InputError("box requires lo <= hi in every coordinate")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    def vertices(self) -> np.ndarray:
        """All 2^d corners, one per row."""
        d = self.dim
        if d > MAX_VERTEX_DIM:
            raise ResourceLimitError(
                f"vertex enumeration needs 2^{d} corners; dimensions above "
                f"{MAX_VERTEX_DIM} are not supported"
            )
        bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
        return self.lo + bits * (self.hi - self.lo)

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise InputError(f"points have dimension {pts.shape[1]}, box has {self.dim}")
        return bool(np.all(pts >= self.lo - tol) and np.all(pts <= self.hi + tol))

    def grid(self, per_dim: int | None = None) -> np.ndarray:
        """Uniform grid including the boundary, capped in total size."""
        d = self.dim
        if per_dim is None:
            per_dim = min(GRID_POINTS_PER_DIM, max(2, int(GRID_POINTS_CAP ** (1.0 / d))))
        axes = [np.linspace(self.lo[i], self.hi[i], per_dim) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        # list equality is np.array_equal on 1-D arrays, at a tenth of the cost
        return self.lo.tolist() == other.lo.tolist() and self.hi.tolist() == other.hi.tolist()

    def __hash__(self):
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


@dataclass(frozen=True, eq=False)
class AffineMap:
    """The map x -> A x + b.

    By default the constructor insists on a strict contraction (largest
    singular value of A below one).  Pass check=False to represent maps that
    are merely measured against contractions, such as the identity.
    """

    A: np.ndarray
    b: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError("A must be a square matrix")
        if b.ndim != 1 or b.size != A.shape[0]:
            raise InputError("b must be a vector matching A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise InputError("map coefficients must be finite")
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_norm", spectral_norm(A))
        if check and not self._norm < 1.0:
            raise ContractionError(
                f"spectral norm {self._norm} is not below 1; not a contraction"
            )

    @property
    def dim(self) -> int:
        return self.b.size

    @property
    def contractivity(self) -> float:
        """Exact Lipschitz constant under the Euclidean metric."""
        return self._norm

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise InputError(f"point has shape {x.shape}, map expects ({self.dim},)")
        return self.A @ x + self.b

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to many points at once (rows are points)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise InputError(f"points have dimension {pts.shape[1]}, map expects {self.dim}")
        return pts @ self.A.T + self.b

    def maps_into(self, box: Box, tol: float = 1e-9) -> bool:
        """Image containment in a box, decided at the box vertices."""
        return box.contains(self.transform(box.vertices()), tol=tol)

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        return np.array_equal(self.A, other.A) and np.array_equal(self.b, other.b)

    def __hash__(self):
        return hash((self.A.tobytes(), self.b.tobytes()))

    def __repr__(self):
        return f"AffineMap(A={self.A.tolist()}, b={self.b.tolist()})"


def compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """f after g as a single affine map."""
    if f.dim != g.dim:
        raise InputError("composed maps must share a dimension")
    return AffineMap(f.A @ g.A, f.A @ g.b + f.b, check=False)


def maps_close(f: AffineMap, g: AffineMap, tol: float = COEFF_TOL) -> bool:
    """Coefficient-wise identity up to tol (use == for exact comparison)."""
    return bool(
        np.all(np.abs(f.A - g.A) <= tol) and np.all(np.abs(f.b - g.b) <= tol)
    )


def _difference(f: AffineMap, g: AffineMap, domain: Box):
    if not (f.dim == g.dim == domain.dim):
        raise InputError(
            f"dimension mismatch: maps {f.dim}/{g.dim} on a {domain.dim}-box"
        )
    return f.A - g.A, f.b - g.b


def sup_distance(f: AffineMap, g: AffineMap, domain: Box) -> float:
    """Exact sup over the box of ||f(x) - g(x)||, from the 2^d vertices."""
    dA, db = _difference(f, g, domain)
    vals = ((domain.vertices() @ dA.T + db) ** 2).sum(axis=1)
    return float(np.sqrt(vals.max()))


def sup_distance_sampled(
    f: AffineMap, g: AffineMap, domain: Box, per_dim: int | None = None
) -> float:
    """Grid-sampled estimate of sup ||f - g||; never exceeds the exact value."""
    dA, db = _difference(f, g, domain)
    pts = domain.grid(per_dim)
    best = 0.0
    for start in range(0, pts.shape[0], 262_144):
        chunk = pts[start : start + 262_144]
        vals = ((chunk @ dA.T + db) ** 2).sum(axis=1)
        best = max(best, float(vals.max()))
    return math.sqrt(best)


def dbar_inf(f: AffineMap, g: AffineMap, domain: Box) -> float:
    """Bounded sup-metric s/(1+s) with s = sup_distance; always in [0, 1).

    t -> t/(1+t) is strictly increasing, so the transform commutes with
    taking the supremum.
    """
    s = sup_distance(f, g, domain)
    return s / (1.0 + s)


def dbar_stacks(Af, bf, Ag, bg, V: np.ndarray) -> np.ndarray:
    """dbar between every map of one stack and every map of another.

    Af (..., p, d, d) and bf (..., p, d) hold maps f_i; Ag (..., q, d, d) and
    bg (..., q, d) hold maps g_j; the leading axes broadcast.  V is
    domain.vertices().  Entry [..., i, j] of the (..., p, q) result is
    dbar_inf(f_i, g_j, domain) bit for bit, as it is the same vertex
    expression as sup_distance.
    """
    Af, bf, Ag, bg = (np.asarray(x, dtype=float) for x in (Af, bf, Ag, bg))
    d = V.shape[1]
    if not (Af.shape[-2:] == Ag.shape[-2:] == (d, d) and bf.shape[-1] == bg.shape[-1] == d):
        raise InputError(
            f"dimension mismatch: map stacks {Af.shape}/{Ag.shape} on a {d}-box"
        )
    dA = Af[..., :, None, :, :] - Ag[..., None, :, :, :]
    db = bf[..., :, None, :] - bg[..., None, :, :]
    vals = ((V @ dA.swapaxes(-1, -2) + db[..., None, :]) ** 2).sum(axis=-1)
    s = np.sqrt(vals.max(axis=-1))
    return s / (1.0 + s)
