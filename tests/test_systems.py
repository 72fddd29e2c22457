import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsseq import (
    IFS,
    AffineMap,
    Box,
    InputError,
    Permutation,
    big_d,
    cost_links,
    cost_matrix,
    cost_tensor,
    dbar_inf,
    is_minimally_ordered,
    is_mo_set,
    leq,
    matching_brute_force,
    minimal_order,
    optimal_matching,
    sup_distance,
)

from conftest import random_ifs

EXACT = 1e-12


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(3)
        assert p.is_identity
        assert p.describe() == "identity"

    def test_rejects_non_bijection(self):
        with pytest.raises(InputError):
            Permutation((0, 0, 1))
        with pytest.raises(InputError):
            Permutation((1, 2))

    def test_apply_and_inverse(self):
        p = Permutation((2, 0, 1))
        assert p.apply("abc") == ["c", "a", "b"]
        assert p.compose(p.inverse()).is_identity

    def test_describe_one_based(self):
        assert Permutation((1, 0)).describe() == "(2 1)"


class TestIFSConstruction:
    def test_rejects_escaping_map(self, unit_box):
        # contraction toward a point outside the box
        with pytest.raises(InputError):
            IFS(unit_box, (AffineMap([[0.5]], [2.0]),))

    def test_rejects_empty(self, unit_box):
        with pytest.raises(InputError):
            IFS(unit_box, ())

    def test_contractivity_examples(self, ifs_t, ifs_u, plane_s):
        assert ifs_t.contractivity == pytest.approx(1.0 / 3.0, abs=EXACT)
        assert ifs_u.contractivity == pytest.approx(0.75, abs=EXACT)
        assert plane_s.contractivity == 0.0


class TestCostMatrix:
    def test_worked_example_s_t(self, ifs_s, ifs_t):
        C = cost_matrix(ifs_s, ifs_t)
        expect = np.array([[1.0 / 7.0, 2.0 / 5.0], [2.0 / 5.0, 1.0 / 7.0]])
        assert np.allclose(C, expect, atol=EXACT, rtol=0.0)

    def test_worked_example_s_u(self, ifs_s, ifs_u):
        C = cost_matrix(ifs_s, ifs_u)
        expect = np.array([[1.0 / 3.0, 1.0 / 5.0], [0.0, 1.0 / 3.0]])
        assert np.allclose(C, expect, atol=EXACT, rtol=0.0)

    def test_zero_diagonal_against_self(self, ifs_u):
        C = cost_matrix(ifs_u, ifs_u)
        assert np.all(np.diag(C) == 0.0)

    def test_arity_mismatch(self, unit_box, ifs_s):
        single = IFS(unit_box, (AffineMap([[0.5]], [0.0]),))
        with pytest.raises(InputError):
            cost_matrix(ifs_s, single)

    def test_domain_mismatch(self, ifs_s):
        other = IFS(Box([0.0], [2.0]), (AffineMap([[0.5]], [0.0]), AffineMap([[0.5]], [1.0])))
        with pytest.raises(InputError):
            cost_matrix(ifs_s, other)


class TestOptimalMatching:
    def test_identity_optimum(self):
        C = np.array([[1.0 / 7.0, 2.0 / 5.0], [2.0 / 5.0, 1.0 / 7.0]])
        sigma, cost = optimal_matching(C)
        assert sigma.is_identity
        assert cost == pytest.approx(2.0 / 7.0, abs=EXACT)

    def test_swap_optimum(self):
        C = np.array([[1.0 / 3.0, 1.0 / 5.0], [0.0, 1.0 / 3.0]])
        sigma, cost = optimal_matching(C)
        assert sigma.image == (1, 0)
        assert cost == pytest.approx(1.0 / 5.0, abs=EXACT)

    def test_all_equal_ties_break_to_identity(self):
        for n in (1, 2, 4):
            C = np.full((n, n), 0.25)
            sigma, cost = optimal_matching(C)
            assert sigma.is_identity
            assert cost == pytest.approx(n * 0.25, abs=EXACT)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            C = rng.uniform(0.0, 1.0, size=(n, n))
            sigma, cost = optimal_matching(C)
            sigma_bf, cost_bf = matching_brute_force(C)
            assert sigma == sigma_bf
            assert cost == pytest.approx(cost_bf, abs=EXACT)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            optimal_matching(np.zeros((2, 3)))


class TestBigD:
    def test_paper_distances(self, ifs_s, ifs_t, ifs_u):
        assert big_d(ifs_s, ifs_t) == pytest.approx(2.0 / 7.0, abs=EXACT)
        assert big_d(ifs_s, ifs_u) == pytest.approx(1.0 / 5.0, abs=EXACT)
        assert big_d(ifs_s, ifs_s) == 0.0

    def test_cantor_sequence_distance(self, unit_box, ifs_t):
        from conftest import cantor_term

        for j in (1, 2, 5, 10):
            term = cantor_term(j, unit_box)
            assert big_d(term, ifs_t) == pytest.approx(1.0 / (3.0 * j + 1.0), abs=EXACT)

    def test_reindexing_invariance(self, unit_box):
        rng = np.random.default_rng(5)
        for _ in range(30):
            S = random_ifs(rng, unit_box, 3)
            T = random_ifs(rng, unit_box, 3)
            d0 = big_d(S, T)
            for perm in itertools.permutations(range(3)):
                shuffled = T.reordered(Permutation(perm))
                assert big_d(S, shuffled) == pytest.approx(d0, abs=EXACT)

    def test_zero_iff_same_multiset_of_maps(self, ifs_s):
        swapped = ifs_s.reordered(Permutation((1, 0)))
        assert big_d(ifs_s, swapped) == 0.0

    def test_metric_axioms_on_random_systems(self):
        rng = np.random.default_rng(77)
        for dim in (1, 2):
            box = Box(np.zeros(dim), np.ones(dim))
            for _ in range(60):
                S = random_ifs(rng, box, 2)
                T = random_ifs(rng, box, 2)
                U = random_ifs(rng, box, 2)
                dst = big_d(S, T)
                assert dst >= 0.0
                assert dst == pytest.approx(big_d(T, S), abs=EXACT)
                assert big_d(S, U) <= dst + big_d(T, U) + EXACT


class TestMinimalOrder:
    def test_u_reorders_to_swap(self, ifs_s, ifs_u):
        reordered, sigma = minimal_order(ifs_s, ifs_u)
        assert sigma.image == (1, 0)
        assert reordered.maps == (ifs_u.maps[1], ifs_u.maps[0])

    def test_t_already_minimal(self, ifs_s, ifs_t):
        reordered, sigma = minimal_order(ifs_s, ifs_t)
        assert sigma.is_identity
        assert reordered == ifs_t

    def test_self_is_identity(self, ifs_u):
        reordered, sigma = minimal_order(ifs_u, ifs_u)
        assert sigma.is_identity
        assert reordered == ifs_u

    def test_result_is_minimally_ordered(self, unit_box):
        rng = np.random.default_rng(9)
        for _ in range(40):
            S = random_ifs(rng, unit_box, 4)
            T = random_ifs(rng, unit_box, 4)
            reordered, _ = minimal_order(S, T)
            assert is_minimally_ordered(reordered, S)


class TestPlaneCounterexample:
    """Constant-map systems where minimal ordering fails to be transitive."""

    def test_raw_distances(self, plane_s, plane_t, plane_u, plane_box):
        s1, s2 = plane_s.maps
        t1, t2 = plane_t.maps
        u1, u2 = plane_u.maps
        root2 = math.sqrt(2.0)
        assert sup_distance(s1, t1, plane_box) == pytest.approx(1.0, abs=EXACT)
        assert sup_distance(s2, t2, plane_box) == pytest.approx(1.0, abs=EXACT)
        assert sup_distance(s1, t2, plane_box) == pytest.approx(root2, abs=EXACT)
        assert sup_distance(s2, t1, plane_box) == pytest.approx(root2, abs=EXACT)
        assert sup_distance(t1, u1, plane_box) == pytest.approx(1.0, abs=EXACT)
        assert sup_distance(t2, u2, plane_box) == pytest.approx(1.0, abs=EXACT)
        assert sup_distance(t1, u2, plane_box) == pytest.approx(root2, abs=EXACT)
        assert sup_distance(t2, u1, plane_box) == pytest.approx(root2, abs=EXACT)
        assert sup_distance(s1, u1, plane_box) == pytest.approx(2.0, abs=EXACT)
        assert sup_distance(s2, u2, plane_box) == pytest.approx(2.0, abs=EXACT)
        assert sup_distance(s1, u2, plane_box) == pytest.approx(1.0, abs=EXACT)
        assert sup_distance(s2, u1, plane_box) == pytest.approx(1.0, abs=EXACT)

    def test_minimal_ordering_not_transitive(self, plane_s, plane_t, plane_u):
        assert is_minimally_ordered(plane_t, plane_s)
        assert is_minimally_ordered(plane_u, plane_t)
        assert not is_minimally_ordered(plane_u, plane_s)
        _, sigma = minimal_order(plane_s, plane_u)
        assert sigma.image == (1, 0)

    def test_mo_set_detects_failure(self, plane_s, plane_t, plane_u):
        assert not is_mo_set([plane_s, plane_t, plane_u])

    def test_singleton_and_translated_duplicate_are_mo(self, ifs_s, unit_box):
        assert is_mo_set([ifs_s])
        nudged = IFS(
            unit_box,
            tuple(AffineMap(m.A, m.b * (1.0 - 1e-3)) for m in ifs_s.maps),
        )
        assert is_mo_set([ifs_s, nudged])

    def test_relation_is_symmetric(self, unit_box):
        rng = np.random.default_rng(13)
        for _ in range(40):
            S = random_ifs(rng, unit_box, 3)
            T = random_ifs(rng, unit_box, 3)
            assert is_minimally_ordered(T, S) == is_minimally_ordered(S, T)


class TestLeq:
    def test_thirds_below_halves(self, ifs_s, ifs_t):
        assert leq(ifs_t, ifs_s)
        assert not leq(ifs_s, ifs_t)

    def test_reflexive(self, ifs_u):
        assert leq(ifs_u, ifs_u)


class TestCostTensor:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 5),
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_entry_equals_dbar_inf_bit_for_bit(self, dim, n, m, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-3.0, 2.0, dim)
        box = Box(lo, lo + rng.uniform(0.1, 4.0, dim))
        terms = [random_ifs(rng, box, n) for _ in range(m)]
        T = cost_tensor(terms)
        links = cost_links(terms)
        assert T.shape == (m, m, n, n)
        assert links.shape == (m - 1, n, n)
        # dbar is symmetric bit for bit, so either triangle, or a link's
        # transpose, may be read
        assert np.array_equal(T, T.transpose(1, 0, 3, 2))
        for j in range(m):
            for k in range(m):
                expected = np.array(
                    [[dbar_inf(f, g, box) for g in terms[k].maps] for f in terms[j].maps]
                )
                assert np.array_equal(cost_matrix(terms[j], terms[k]), expected)
                assert np.array_equal(T[j, k], expected)
                if k == j + 1:
                    assert np.array_equal(links[j], expected)

    def test_rejects_mixed_arity(self, ifs_s, unit_box):
        with pytest.raises(InputError, match="arity mismatch"):
            cost_tensor([ifs_s, IFS(unit_box, (AffineMap([[0.5]], [0.0]),))])
