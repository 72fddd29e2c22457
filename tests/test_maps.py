import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsseq import (
    IFS,
    AffineMap,
    Box,
    ContractionError,
    InputError,
    ResourceLimitError,
    compose,
    dbar_inf,
    spectral_norm,
    sup_distance,
)
from ifsseq.maps import _project_maps

from conftest import project_one

EXACT = 1e-12


def sup_distance_sampled(f, g, box, per_dim):
    """Cross-check for sup_distance: the max of ||f(x) - g(x)|| over a uniform
    grid of per_dim points per axis, boundary included; never above the exact
    value."""
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in zip(box.lo, box.hi)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return math.sqrt(float(((pts @ (f.A - g.A).T + (f.b - g.b)) ** 2).sum(axis=1).max()))


def char_poly_spectral_norm(A):
    """Oracle: largest singular value via roots of det(A^T A - lam I)."""
    A = np.asarray(A, dtype=float)
    lam = np.roots(np.poly(A.T @ A))
    return math.sqrt(max(abs(lam)))


class TestBox:
    def test_rejects_bad_bounds(self):
        with pytest.raises(InputError):
            Box([1.0], [0.0])
        with pytest.raises(InputError):
            Box([0.0, 0.0], [1.0])
        with pytest.raises(InputError):
            Box([], [])

    def test_vertices_unit_square(self):
        v = Box([0.0, 0.0], [1.0, 1.0]).vertices()
        assert sorted(map(tuple, v)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_vertex_enumeration_cap(self):
        big = Box(np.zeros(21), np.ones(21))
        with pytest.raises(ResourceLimitError):
            big.vertices()

    def test_vertices_are_built_once_and_read_only(self):
        box = Box([0.0, -1.0, 2.0], [1.0, 1.0, 2.5])
        V = box.vertices()
        assert box.vertices() is V and box.vertices() is V
        assert not V.flags.writeable
        with pytest.raises(ValueError):
            V[0, 0] = 5.0
        bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
        assert V.tobytes() == (box.lo + bits * (box.hi - box.lo)).tobytes()

    def test_vertex_cap_raises_on_every_call(self):
        big = Box(np.zeros(21), np.ones(21))
        for _ in range(3):  # nothing is cached by a refused enumeration
            with pytest.raises(ResourceLimitError):
                big.vertices()

    def test_bounds_are_copies(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        box = Box(lo, hi)
        lo[0], hi[1] = -1.0, 3.0  # the caller's arrays stay writeable
        assert box.lo.tolist() == [0.0, 0.0] and box.hi.tolist() == [1.0, 2.0]
        assert not box.lo.flags.writeable and not box.hi.flags.writeable

    def test_degenerate_box_allowed(self):
        b = Box([0.5], [0.5])
        assert b.diameter == 0.0
        assert b.contains([[0.5]])

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 3),
        tol=st.sampled_from([0.0, 1e-12, 1e-9, 0.25]),
        rows=st.integers(0, 5),
        data=st.data(),
    )
    def test_contains_agrees_with_the_row_comparison(self, dim, tol, rows, data):
        # the oracle compares the (N, d) points with the widened bounds as
        # rows; entries sit on the widened faces, one ulp outside them,
        # inside, or at NaN.  A (0, d) array is inside, where a bare column
        # min() raises ValueError.
        lo = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
        box = Box(lo, lo + np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=dim, max_size=dim))))
        low, high = box.lo - tol, box.hi + tol
        picks = {
            "low": low,
            "high": high,
            "below": np.nextafter(low, -np.inf),
            "above": np.nextafter(high, np.inf),
            "center": box.center,
            "nan": np.full(dim, np.nan),
        }
        names = st.lists(st.sampled_from(sorted(picks)), min_size=dim, max_size=dim)
        chosen = data.draw(st.lists(names, min_size=rows, max_size=rows))
        pts = np.array([[picks[name][j] for j, name in enumerate(row)] for row in chosen]).reshape(rows, dim)
        oracle = bool(np.all(pts >= box.lo - tol) and np.all(pts <= box.hi + tol))
        assert box.contains(pts, tol=tol) is oracle
        assert box.contains(np.empty((0, dim)), tol=tol) is True


class TestAffineMap:
    def test_eval_direct(self):
        f = AffineMap([[1.0 / 3.0]], [0.0])
        assert f([0.9]) == pytest.approx([0.3], abs=EXACT)

    def test_eval_fixed_point_of_half_shift(self):
        f = AffineMap([[0.5]], [0.5])
        assert f([1.0]) == pytest.approx([1.0], abs=0)

    def test_eval_constant_map(self):
        f = AffineMap(np.zeros((2, 2)), [0.0, 1.0])
        assert np.array_equal(f([5.0, 5.0]), [0.0, 1.0])

    def test_eval_dimension_mismatch(self):
        f = AffineMap([[0.5]], [0.0])
        with pytest.raises(InputError):
            f([1.0, 2.0])

    def test_rejects_non_contraction(self):
        with pytest.raises(ContractionError):
            AffineMap([[1.0]], [0.0])
        with pytest.raises(ContractionError):
            AffineMap([[0.8, 0.8], [0.0, 0.8]], [0.0, 0.0])

    def test_coefficients_are_copies(self):
        A, b = np.eye(2) * 0.5, np.zeros(2)
        f = AffineMap(A, b)
        A[0, 0], b[1] = 0.1, 0.25  # the caller's arrays stay writeable
        assert f.A.tolist() == [[0.5, 0.0], [0.0, 0.5]] and f.b.tolist() == [0.0, 0.0]
        assert not f.A.flags.writeable and not f.b.flags.writeable

    def test_check_flag_admits_identity(self):
        ident = AffineMap([[1.0]], [0.0], check=False)
        assert ident.contractivity == 1.0

    def test_equality_is_exact(self):
        f = AffineMap([[0.5]], [0.25])
        g = AffineMap([[0.5]], [0.25])
        h = AffineMap([[0.5]], [0.25 + 1e-15])
        assert f == g
        assert f != h


class TestContractivity:
    def test_scalar_third(self):
        assert AffineMap([[1.0 / 3.0]], [0.0]).contractivity == pytest.approx(1.0 / 3.0, abs=EXACT)

    def test_constant_map_is_zero(self):
        assert AffineMap(np.zeros((2, 2)), [0.5, 0.5]).contractivity == 0.0

    def test_2x2_against_char_poly_oracle(self):
        A = [[0.6, 0.1], [0.0, 0.5]]
        got = AffineMap(A, [0.0, 0.0]).contractivity
        assert got == pytest.approx(char_poly_spectral_norm(A), abs=EXACT)
        # frozen from the oracle above
        assert got == pytest.approx(0.6229787289780178, abs=EXACT)

    def test_higher_dim_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.standard_normal((4, 4)) * 0.2
            assert spectral_norm(A) == pytest.approx(char_poly_spectral_norm(A), abs=1e-10)

    def test_lapack_path_equals_matrix_2_norm(self):
        rng = np.random.default_rng(5)
        for d in (3, 4, 5, 6):
            for _ in range(50):
                A = rng.standard_normal((d, d)) * rng.uniform(0.01, 10.0)
                assert spectral_norm(A) == float(np.linalg.norm(A, 2))

    @pytest.mark.parametrize("scale", [1e77, 1e160, 1e200, 1e300])
    def test_2x2_closed_form_overflow_falls_back_to_lapack(self, scale):
        A = scale * np.array([[1.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_norm(A) == float(np.linalg.norm(A, 2))
            with pytest.raises(ContractionError, match="not a contraction"):
                AffineMap(A, [0.0, 0.0])

    def test_composition_submultiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = AffineMap(rng.standard_normal((2, 2)) * 0.3, rng.standard_normal(2), check=False)
            g = AffineMap(rng.standard_normal((2, 2)) * 0.3, rng.standard_normal(2), check=False)
            fg = compose(f, g)
            assert fg.contractivity <= f.contractivity * g.contractivity + EXACT


class TestSupDistance:
    def test_halves_vs_thirds(self, unit_box):
        f = AffineMap([[0.5]], [0.0])
        g = AffineMap([[1.0 / 3.0]], [0.0])
        assert sup_distance(f, g, unit_box) == pytest.approx(1.0 / 6.0, abs=EXACT)

    def test_identical_maps(self, unit_box):
        f = AffineMap([[0.5]], [0.5])
        assert sup_distance(f, f, unit_box) == 0.0

    def test_sup_attained_at_left_endpoint(self, unit_box):
        f = AffineMap([[0.5]], [0.0])
        g = AffineMap([[1.0 / 3.0]], [2.0 / 3.0])
        assert sup_distance(f, g, unit_box) == pytest.approx(2.0 / 3.0, abs=EXACT)

    def test_dimension_mismatch(self, unit_box):
        f = AffineMap([[0.5]], [0.0])
        g = AffineMap(np.zeros((2, 2)), [0.0, 0.0])
        with pytest.raises(InputError):
            sup_distance(f, g, unit_box)

    def test_sampled_estimator_agrees(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2):
            box = Box(np.zeros(dim), np.ones(dim))
            for _ in range(20):
                f = AffineMap(rng.standard_normal((dim, dim)) * 0.3, rng.standard_normal(dim) * 0.2)
                g = AffineMap(rng.standard_normal((dim, dim)) * 0.3, rng.standard_normal(dim) * 0.2)
                exact = sup_distance(f, g, box)
                sampled = sup_distance_sampled(f, g, box, per_dim=101)
                lipschitz = spectral_norm(f.A - g.A)
                grid_pitch = box.diameter / 100
                assert sampled <= exact + EXACT
                assert exact - sampled <= lipschitz * grid_pitch + EXACT


class TestDbarInf:
    def test_paper_value_one_seventh(self, unit_box):
        f = AffineMap([[0.5]], [0.0])
        g = AffineMap([[1.0 / 3.0]], [0.0])
        assert dbar_inf(f, g, unit_box) == pytest.approx(1.0 / 7.0, abs=EXACT)

    def test_identical_maps_distance_zero(self, unit_box):
        f = AffineMap([[0.5]], [0.5])
        h = AffineMap([[0.5]], [0.5])
        assert dbar_inf(f, h, unit_box) == 0.0

    def test_near_identity_family(self, unit_box):
        ident = AffineMap([[1.0]], [0.0], check=False)
        for n in (1, 2, 3, 10, 50):
            f = AffineMap([[1.0 - 1.0 / n]], [0.0])
            assert dbar_inf(f, ident, unit_box) == pytest.approx(1.0 / (n + 1), abs=EXACT)

    def test_always_below_one(self, unit_box):
        f = AffineMap([[0.0]], [0.0])
        g = AffineMap([[0.0]], [1.0])
        v = dbar_inf(f, g, unit_box)
        assert 0.0 <= v < 1.0


class TestMetricAxioms:
    def random_map(self, rng, dim):
        # the bounded sup-metric applies to arbitrary maps, not just contractions
        return AffineMap(
            rng.standard_normal((dim, dim)) * 0.3, rng.standard_normal(dim) * 0.5, check=False
        )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_axioms_on_random_triples(self, dim):
        rng = np.random.default_rng(100 + dim)
        box = Box(np.zeros(dim), np.ones(dim))
        for _ in range(200):
            f, g, h = (self.random_map(rng, dim) for _ in range(3))
            dfg = dbar_inf(f, g, box)
            dgf = dbar_inf(g, f, box)
            assert dfg >= 0.0
            assert dfg == dgf  # exact symmetry
            assert dbar_inf(f, h, box) <= dfg + dbar_inf(g, h, box) + EXACT

    def test_zero_iff_identical_coefficients(self, unit_box):
        f = AffineMap([[0.4]], [0.1])
        g = AffineMap([[0.4]], [0.1 + 1e-9])
        assert dbar_inf(f, f, unit_box) == 0.0
        assert dbar_inf(f, g, unit_box) > 0.0


class TestIncompletenessWitness:
    """f_n = (1 - 1/n) x is Cauchy in dbar but its factors creep up to 1."""

    def test_cauchy_but_factors_approach_one(self, unit_box):
        count = 120
        maps = [AffineMap([[1.0 - 1.0 / n]], [0.0]) for n in range(1, count + 1)]
        # Cauchy: tail distances shrink below any eps along the prefix
        for eps in (0.1, 0.01):
            start = next(
                n
                for n in range(1, count + 1)
                if all(
                    dbar_inf(maps[j], maps[k], unit_box) < eps
                    for j in range(n - 1, count)
                    for k in range(j + 1, count)
                )
            )
            assert start < count
        # no fixed bound c < 1 dominates the tail of the factors
        factors = [m.contractivity for m in maps]
        for c in (0.9, 0.99):
            assert any(f > c for f in factors)
        assert factors == sorted(factors)


class TestProjectMap:
    def test_clamps_singular_values(self, unit_box):
        (m,) = _project_maps(np.array([[[1.7]]]), np.array([[0.0]]), unit_box, 0.9)
        assert m.contractivity <= 0.9 + 1e-12

    def test_pulls_translation_inside(self, unit_box):
        (m,) = _project_maps(np.array([[[0.5]]]), np.array([[5.0]]), unit_box, 0.9)
        assert m.maps_into(unit_box)

    def test_feasible_map_unchanged(self, unit_box):
        (m,) = _project_maps(np.array([[[0.5]]]), np.array([[0.25]]), unit_box, 0.9)
        assert m.A.tolist() == [[0.5]] and m.b.tolist() == [0.25]

    @settings(max_examples=1000, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 3]),
        axes=st.lists(st.sampled_from(["wide", "flat", "thin"]), min_size=3, max_size=3),
        kind=st.sampled_from(["orthogonal", "random", "tight"]),
        ulps=st.integers(-1, 1),
    )
    def test_projection_is_idempotent(self, seed, dim, axes, kind, ulps):
        # the descent keeps a projected candidate as it is, so projecting it
        # again must give the same bits
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, 2.0, dim) * 10.0 ** rng.integers(-2, 3)
        widths = {"wide": rng.uniform(0.1, 3.0), "flat": 0.0, "thin": 10.0 ** rng.uniform(-8.0, -2.0)}
        box = Box(lo, lo + np.array([widths[axis] for axis in axes[:dim]]))
        extent = box.hi - box.lo
        s_max = rng.uniform(0.05, 0.99)
        if kind == "orthogonal":  # LAPACK's norm lands ulps either side of s_max
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            A = q * (np.nextafter(s_max, 0.0), s_max, np.nextafter(s_max, 1.0))[ulps + 1]
        elif kind == "random":
            A = rng.standard_normal((dim, dim)) * rng.uniform(0.0, 3.0)
        else:  # the image spans the thinnest axis exactly, up to an ulp
            A = np.diag(rng.uniform(-0.5, 0.5, dim))
            r, c = int(np.argmin(np.where(extent > 0, extent, np.inf))), int(np.argmax(extent))
            if r != c:
                A[r, r] = 0.0
                A[r, c] = rng.choice([-1.0, 1.0]) * extent[r] / extent[c] * (1.0 + ulps * 2.0**-52)
        reach = 3.0 * max(extent.max(), 1.0)  # translations outside the box
        b = rng.uniform(lo - reach, box.hi + reach)
        A1, b1 = project_one(A, b, box, s_max)
        assume(not np.isnan(b1).any())  # A too large to shrink onto a thin axis
        assert np.linalg.svd(A1)[1][0] <= s_max
        A2, b2 = project_one(A1, b1, box, s_max)
        assert A2.tobytes() == A1.tobytes() and b2.tobytes() == b1.tobytes()

    def test_map_that_walked_an_ulp_per_projection(self):
        # met in the collage-fit-descent recording: LAPACK puts this map's
        # norm three ulps above s_max, and clamping it again lowered A[0, 1]
        # by one ulp at every projection
        A = np.array([[0.0, float.fromhex("0x1.40b5485c9748dp-9")], [0.0, float.fromhex("0x1.e665fcab96fe9p-1")]])
        b = np.array([0.0625, 0.0031251969369636076])
        box = Box([0.0625, 0.0625], [0.9375, 0.9375])
        A1, b1 = project_one(A, b, box, 0.95)
        assert np.linalg.svd(A1)[1][0] <= 0.95
        A2, b2 = project_one(A1, b1, box, 0.95)
        assert A2.tobytes() == A1.tobytes() and b2.tobytes() == b1.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 3]),
        flat=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    def test_output_passes_ifs_validation(self, seed, dim, flat):
        # the fit scores projected candidates without building a system, so
        # every projection must be one that IFS would accept
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, 2.0, dim)
        box = Box(lo, lo + np.where(flat[:dim], 0.0, rng.uniform(0.1, 3.0, dim)))
        A = rng.standard_normal((dim, dim))
        A *= rng.uniform(0.0, 10.0) / spectral_norm(A)
        b = rng.uniform(lo - 20.0, lo + 20.0)
        s_max = rng.uniform(0.05, 0.99)
        (m,) = _project_maps(A[None], b[None], box, s_max)
        assert m.contractivity <= s_max + 1e-12
        IFS(box, (m,))  # contraction sending the box into itself
