"""Affine maps on box domains, the bounded sup-metric between them, and the
feasible set: the maps that send a box into itself with largest singular
value at most s_max, S_MAX by default, onto which `_project` takes a stack.

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

from .errors import ContractionError, InputError, PreconditionError, ResourceLimitError

MAX_VERTEX_DIM = 20
S_MAX = 0.95  # the default bound of the feasible set: a projected map's largest singular value


def _check_s_max(s_max: float):
    if not 0.0 < s_max < 1.0:
        raise InputError("s_max must lie in (0, 1)")


def _require_finite(A: np.ndarray, b: np.ndarray):
    """The finite check of one map's coefficients or a stack's."""
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise InputError("map coefficients must be finite")


def _require_contraction(norm: float):
    """The contraction check of one spectral norm, or a stack's largest."""
    if not norm < 1.0:
        raise ContractionError(f"spectral norm {norm} is not below 1; not a contraction")


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
        """Every row within tol of the box (False on a NaN, True on no rows), by
        column extremes: (N, d) >= (d,) runs a d-long inner loop per point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise InputError(f"points have dimension {pts.shape[1]}, box has {self.dim}")
        bounds = zip(pts.T, self.lo - tol, self.hi + tol)
        return pts.shape[0] == 0 or all(c.min() >= lo and c.max() <= hi for c, lo, hi in bounds)

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        if other is self:  # the terms of a sequence file share one box
            return True
        # list equality is np.array_equal on 1-D arrays, at a tenth of the cost
        return self.lo.tolist() == other.lo.tolist() and self.hi.tolist() == other.hi.tolist()

    def __hash__(self):
        return hash(((self.lo + 0.0).tobytes(), (self.hi + 0.0).tobytes()))  # -0.0 + 0.0 is 0.0, as == has it

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
        _require_finite(A, b)
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_norm", spectral_norm(A))
        if check:
            _require_contraction(self._norm)

    @classmethod
    def _checked(cls, A: np.ndarray, b: np.ndarray, norm: float) -> "AffineMap":
        """The map on read-only A and b that have passed both checks, whose
        spectral norm is `norm`, built without running them again."""
        f = object.__new__(cls)
        f.__dict__.update(A=A, b=b, _norm=norm)
        return f

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

    def transform(self, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply to many points at once (rows are points), into `out` if given.
        b is added one column at a time: numpy broadcasts a length-d row with
        a d-long inner loop per point, about 4x slower on (N, 2) points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise InputError(f"points have dimension {pts.shape[1]}, map expects {self.dim}")
        out = np.matmul(pts, self.A.T, out=out)
        for j in range(self.dim):
            out[:, j] += self.b[j]
        return out

    def maps_into(self, box: Box, tol: float = 1e-9) -> bool:
        """Image containment in a box, decided at the box vertices."""
        return box.contains(self.transform(box.vertices()), tol=tol)

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        return np.array_equal(self.A, other.A) and np.array_equal(self.b, other.b)

    def __hash__(self):
        return hash(((self.A + 0.0).tobytes(), (self.b + 0.0).tobytes()))  # -0.0 + 0.0 is 0.0, as == has it

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
    is the same vertex expression as sup_distance: the vertex images are one
    2-D product laid out (2^d, ..., p, q, d), where a stacked matmul would
    make one BLAS call per pair, but each coordinate is the same dot product
    and its squares are summed over the same last axis.
    """
    Af, bf, Ag, bg = (np.asarray(x, dtype=float) for x in (Af, bf, Ag, bg))
    d = domain.dim
    if not (Af.shape[-2:] == Ag.shape[-2:] == (d, d) and bf.shape[-1] == bg.shape[-1] == d):
        raise InputError(
            f"dimension mismatch: map stacks {Af.shape}/{Ag.shape} on a {d}-box"
        )
    dA = Af[..., :, None, :, :] - Ag[..., None, :, :, :]
    db = bf[..., :, None, :] - bg[..., None, :, :]
    V = domain.vertices()
    img = (V @ dA.reshape(-1, d).T).reshape(len(V), *dA.shape[:-1])
    s = np.sqrt(((img + db) ** 2).sum(axis=-1).max(axis=0))
    return s / (1.0 + s)


def _project(A: np.ndarray, b: np.ndarray, box: Box, s_max: float):
    """The nearest feasible map of each row of a stack x -> A[j] x + b[j],
    A (k, d, d) and b (k, d), each row as if projected alone: singular values
    clamped to s_max, rows of flat axes zeroed, translation shifted (and A
    shrunk when even that cannot fit) so the box maps into itself.  Bitwise
    idempotent; LAPACK's largest singular value of a result is at most s_max.
    A row the box cannot take after 63 shrinks of A, and a row with a
    coefficient that is not finite, comes back NaN in A and b.

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
    """_project as a tuple of AffineMaps; raises PreconditionError where a
    row cannot be projected."""
    A, b = _project(A, b, box, s_max)
    if np.isnan(b).any():
        raise PreconditionError("cannot project the map into the domain")
    return tuple(map(AffineMap, A, b))
