import math
import warnings

import numpy as np
import pytest

from ifsseq import (
    AffineMap,
    Box,
    ContractionError,
    InputError,
    ResourceLimitError,
    compose,
    dbar_inf,
    maps_close,
    spectral_norm,
    sup_distance,
    sup_distance_sampled,
)

EXACT = 1e-12


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

    def test_degenerate_box_allowed(self):
        b = Box([0.5], [0.5])
        assert b.diameter == 0.0
        assert b.contains([[0.5]])


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

    def test_check_flag_admits_identity(self):
        ident = AffineMap([[1.0]], [0.0], check=False)
        assert ident.contractivity == 1.0

    def test_equality_is_exact(self):
        f = AffineMap([[0.5]], [0.25])
        g = AffineMap([[0.5]], [0.25])
        h = AffineMap([[0.5]], [0.25 + 1e-15])
        assert f == g
        assert f != h
        assert maps_close(f, h)


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
