"""Affine maps on box domains and the bounded sup-metric between them.

The ambient metric is Euclidean.  For affine maps the pointwise distance
x -> ||(A_f - A_g) x + (b_f - b_g)|| is convex, so its supremum over a box
is attained at a vertex; `sup_distance` is therefore exact.

`dbar_stacks(..., domain)` is the one vectorised dbar kernel: every cost matrix,
cost tensor and consecutive link in `systems` and `sequences` comes from it.
`sup_distance` and `dbar_inf` are the scalar reference it equals bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ContractionError, InputError, ResourceLimitError

MAX_VERTEX_DIM = 20


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
    return float(np.linalg.svd(A, compute_uv=False)[0])


@dataclass(frozen=True, eq=False)
class Box:
    """Nonempty compact axis-aligned box [lo_1,hi_1] x ... x [lo_d,hi_d] of finite
    diameter.  The bounds are read-only copies; the diameter is taken once, and
    vertices() is built once and kept: 168 MB at MAX_VERTEX_DIM."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lo, dtype=float))
        hi = np.atleast_1d(np.array(self.hi, dtype=float))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise InputError("box bounds must be nonempty vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InputError("box bounds must be finite")
        if np.any(lo > hi):
            raise InputError("box requires lo <= hi in every coordinate")
        with np.errstate(over="ignore"):
            diameter = float(np.linalg.norm(hi - lo))
        if not math.isfinite(diameter):
            raise InputError("box diameter must be finite")
        object.__setattr__(self, "_diameter", diameter)
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def diameter(self) -> float:
        return self._diameter

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    def vertices(self) -> np.ndarray:
        """All 2^d corners, one per row: the same read-only array on every call."""
        if "_vertices" not in self.__dict__:
            d = self.dim
            if d > MAX_VERTEX_DIM:
                raise ResourceLimitError(
                    f"vertex enumeration needs 2^{d} corners; dimensions above "
                    f"{MAX_VERTEX_DIM} are not supported"
                )
            bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
            object.__setattr__(self, "_vertices", self.lo + bits * (self.hi - self.lo))
            self._vertices.flags.writeable = False
        return self._vertices

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise InputError(f"points have dimension {pts.shape[1]}, box has {self.dim}")
        return bool(np.all(pts >= self.lo - tol) and np.all(pts <= self.hi + tol))

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        if other is self:  # the terms of a sequence file share one box
            return True
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
        A = np.atleast_2d(np.array(self.A, dtype=float))
        b = np.atleast_1d(np.array(self.b, dtype=float))
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


def sup_distance(f: AffineMap, g: AffineMap, domain: Box) -> float:
    """Exact sup over the box of ||f(x) - g(x)||, from the 2^d vertices."""
    if not (f.dim == g.dim == domain.dim):
        raise InputError(f"dimension mismatch: maps {f.dim}/{g.dim} on a {domain.dim}-box")
    vals = ((domain.vertices() @ (f.A - g.A).T + (f.b - g.b)) ** 2).sum(axis=1)
    return float(np.sqrt(vals.max()))


def dbar_inf(f: AffineMap, g: AffineMap, domain: Box) -> float:
    """Bounded sup-metric s/(1+s) with s = sup_distance; always in [0, 1).

    t -> t/(1+t) is strictly increasing, so the transform commutes with
    taking the supremum.
    """
    s = sup_distance(f, g, domain)
    return s / (1.0 + s)


def dbar_stacks(Af, bf, Ag, bg, domain: Box) -> np.ndarray:
    """dbar between every map of one stack and every map of another.

    Af (..., p, d, d) and bf (..., p, d) hold maps f_i; Ag (..., q, d, d) and
    bg (..., q, d) hold maps g_j; the leading axes broadcast.  Entry [..., i, j]
    of the (..., p, q) result is dbar_inf(f_i, g_j, domain) bit for bit, as it
    is the same vertex expression as sup_distance.
    """
    Af, bf, Ag, bg = (np.asarray(x, dtype=float) for x in (Af, bf, Ag, bg))
    d = domain.dim
    if not (Af.shape[-2:] == Ag.shape[-2:] == (d, d) and bf.shape[-1] == bg.shape[-1] == d):
        raise InputError(
            f"dimension mismatch: map stacks {Af.shape}/{Ag.shape} on a {d}-box"
        )
    dA = Af[..., :, None, :, :] - Ag[..., None, :, :, :]
    db = bf[..., :, None, :] - bg[..., None, :, :]
    vals = ((domain.vertices() @ dA.swapaxes(-1, -2) + db[..., None, :]) ** 2).sum(axis=-1)
    s = np.sqrt(vals.max(axis=-1))
    return s / (1.0 + s)
