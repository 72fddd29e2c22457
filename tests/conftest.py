import math

import numpy as np
import pytest

from ifsseq import IFS, AffineMap, Box
from ifsseq.maps import _project


@pytest.fixture
def unit_box():
    return Box([0.0], [1.0])


@pytest.fixture
def ifs_s(unit_box):
    """{[0,1]; x/2, 1/2 + x/2}, the just-touching pair."""
    return IFS(
        unit_box,
        (AffineMap([[0.5]], [0.0]), AffineMap([[0.5]], [0.5])),
    )


@pytest.fixture
def ifs_t(unit_box):
    """{[0,1]; x/3, 2/3 + x/3}, the middle-thirds pair."""
    return IFS(
        unit_box,
        (AffineMap([[1.0 / 3.0]], [0.0]), AffineMap([[1.0 / 3.0]], [2.0 / 3.0])),
    )


@pytest.fixture
def ifs_u(unit_box):
    """{[0,1]; 1/2 + x/2, 3x/4}, optimally matched to ifs_s under the swap."""
    return IFS(
        unit_box,
        (AffineMap([[0.5]], [0.5]), AffineMap([[0.75]], [0.0])),
    )


def constant_map(point):
    d = len(point)
    return AffineMap(np.zeros((d, d)), np.asarray(point, dtype=float))


@pytest.fixture
def plane_box():
    return Box([-1.0, -1.0], [1.0, 1.0])


@pytest.fixture
def plane_s(plane_box):
    return IFS(plane_box, (constant_map([0.0, 1.0]), constant_map([1.0, -1.0])))


@pytest.fixture
def plane_t(plane_box):
    return IFS(plane_box, (constant_map([0.0, 0.0]), constant_map([1.0, 0.0])))


@pytest.fixture
def plane_u(plane_box):
    return IFS(plane_box, (constant_map([0.0, -1.0]), constant_map([1.0, 1.0])))


def cantor_ifs(unit=None):
    """{[0,1]; x/3, 2/3 + x/3}, the middle-thirds Cantor system."""
    box = unit if unit is not None else Box([0.0], [1.0])
    return IFS(
        box,
        (AffineMap([[1.0 / 3.0]], [0.0]), AffineMap([[1.0 / 3.0]], [2.0 / 3.0])),
    )


def cantor_term(j, unit=None):
    """{[0,1]; x/3 + 1/(3j), 2/3 + x/3}, the j-th term converging to Cantor."""
    box = unit if unit is not None else Box([0.0], [1.0])
    return IFS(
        box,
        (
            AffineMap([[1.0 / 3.0]], [1.0 / (3.0 * j)]),
            AffineMap([[1.0 / 3.0]], [2.0 / 3.0]),
        ),
    )


def random_contraction(rng, box, smax=0.7):
    """Random contraction that provably sends the box into itself."""
    d = box.dim
    A = rng.standard_normal((d, d))
    from ifsseq import spectral_norm

    norm = spectral_norm(A)
    scale = rng.uniform(0.1, smax) / norm if norm > 0 else 0.0
    A = A * scale
    p = rng.uniform(box.lo, box.hi)
    b = p - A @ p
    m = AffineMap(A, b)
    if m.maps_into(box, tol=1e-12):
        return m
    # shrink until the vertex images fit; terminates since A -> 0 is feasible
    while not m.maps_into(box, tol=1e-12):
        A = A * 0.8
        m = AffineMap(A, p - A @ p)
    return m


def random_ifs(rng, box, n, smax=0.7):
    return IFS(box, tuple(random_contraction(rng, box, smax) for _ in range(n)))


def project_one(A, b, box, s_max):
    """The stacked projection of one map, as (A, b), NaN where it fails."""
    A, b = _project(np.asarray(A, dtype=float)[None], np.asarray(b, dtype=float)[None], box, s_max)
    return A[0], b[0]


def exact_hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    """h between two small arrays of points, unsnapped."""
    sq = ((P[:, None, :] - Q[None, :, :]) ** 2).sum(axis=-1)
    return math.sqrt(max(sq.min(axis=1).max(), sq.min(axis=0).max()))
