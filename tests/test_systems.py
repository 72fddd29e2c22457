import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsseq import (
    IFS,
    AffineMap,
    Box,
    ContractionError,
    InputError,
    Permutation,
    ResourceLimitError,
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
    systems,
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

    def test_describe_one_based(self):
        assert Permutation((1, 0)).describe() == "(2 1)"


def _edge_map(rng, box, mode, ulps):
    """A contraction whose vertex images reach ulps steps from hi + 1e-9 or
    lo - 1e-9 on one axis (mode "hi" or "lo"), or sit centered ("in")."""
    d = box.dim
    A = rng.standard_normal((d, d)) * rng.uniform(0.0, 0.3) / d
    img = box.vertices() @ A.T
    b = (box.lo + box.hi) / 2.0 - (img.max(axis=0) + img.min(axis=0)) / 2.0
    if mode != "in":
        r = int(rng.integers(d))
        edge = box.hi[r] + 1e-9 if mode == "hi" else box.lo[r] - 1e-9
        for _ in range(abs(ulps)):
            edge = np.nextafter(edge, math.copysign(math.inf, ulps))
        b[r] = edge - (img[:, r].max() if mode == "hi" else img[:, r].min())
    return AffineMap(A, b)


class TestIFSConstruction:
    @settings(max_examples=500, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        modes=st.lists(st.sampled_from(["in", "hi", "lo"]), min_size=1, max_size=6),
        ulps=st.integers(-4, 4),
    )
    def test_containment_agrees_with_maps_into(self, seed, d, modes, ulps):
        # the one broadcast over all maps decides as each map's maps_into does,
        # and names the first map that fails, as the per-map check did
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-3.0, 3.0, d)
        box = Box(lo, lo + rng.uniform(0.5, 2.0, d))
        maps = tuple(_edge_map(rng, box, mode, ulps) for mode in modes)
        inside = [m.maps_into(box) for m in maps]
        if all(inside):
            assert IFS(box, maps).maps == maps
        else:
            with pytest.raises(InputError) as caught:
                IFS(box, maps)
            assert str(caught.value) == f"map {inside.index(False)} does not send the domain into itself"

    def test_rejects_escaping_map(self, unit_box):
        # contraction toward a point outside the box
        with pytest.raises(InputError):
            IFS(unit_box, (AffineMap([[0.5]], [2.0]),))

    def test_rejects_unchecked_non_contraction_as_a_map_does(self, unit_box):
        # a map built with check=False meets the same check, and message, as
        # AffineMap's own
        identity = AffineMap([[1.0]], [0.0], check=False)
        with pytest.raises(ContractionError, match=r"^spectral norm 1\.0 is not below 1; not a contraction$"):
            IFS(unit_box, (AffineMap([[0.5]], [0.0]), identity))

    def test_rejects_empty(self, unit_box):
        with pytest.raises(InputError):
            IFS(unit_box, ())

    def test_signed_zeros_hash_as_they_compare(self):
        # values that differ only in a zero's sign compare equal, so they
        # hash alike and a set keeps one of them; spec files can carry -0.0
        pairs = [
            (Box([-0.0], [1.0]), Box([0.0], [1.0])),
            (AffineMap([[-0.0]], [0.5]), AffineMap([[0.0]], [0.5])),
            (AffineMap([[0.5, -0.0], [0.0, 0.5]], [-0.0, 0.1]), AffineMap([[0.5, 0.0], [-0.0, 0.5]], [0.0, 0.1])),
        ]
        lo, hi = Box([-0.0, 0.0], [1.0, 1.0]), Box([0.0, -0.0], [1.0, 1.0])
        pairs.append((IFS(lo, (pairs[2][0],)), IFS(hi, (pairs[2][1],))))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1

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

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_matches_brute_force_on_tie_heavy_integer_matrices(self, n, data):
        # entries in {0, 1, 2} make many co-optimal permutations, and integer
        # sums are exact, so the lexicographic tie-break must agree exactly
        C = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n)), dtype=float)
        C = C.reshape(n, n)
        sigma, cost = optimal_matching(C)
        sigma_bf, cost_bf = matching_brute_force(C)
        assert sigma == sigma_bf
        assert cost == cost_bf

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            optimal_matching(np.zeros((2, 3)))


class TestSolverRouting:
    """Every solve goes through the module-level systems.linear_sum_assignment,
    the name the benchmark tracer wraps.  Only matrices of more than
    ENUMERATE_MAX_N rows solve at all."""

    # zero on the anti-diagonal only: row i tries 7 - i columns, each with a
    # solve while the completion is 2x2 or larger; row 5's last column is
    # read, not solved
    REVERSAL = 1.0 - np.eye(7)[::-1]
    SOLVES = [(7, 7)] + [(k, k) for k in (6, 5, 4, 3, 2) for _ in range(k + 1)]

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        solve = systems.linear_sum_assignment

        def counting(C):
            counted.append(C.shape)
            return solve(C)

        monkeypatch.setattr(systems, "linear_sum_assignment", counting)
        return counted

    def test_optimal_matching(self, calls):
        sigma, cost = optimal_matching(self.REVERSAL)
        assert sigma.image == (6, 5, 4, 3, 2, 1, 0) and cost == 0.0
        assert calls == self.SOLVES

    def test_big_d(self, calls, unit_box):
        offsets = (0.0, 0.0625, 0.125, 0.25, 0.3125, 0.375, 0.5)
        S = IFS(unit_box, tuple(AffineMap([[0.5]], [t]) for t in offsets))
        T = S.reordered(Permutation((6, 5, 4, 3, 2, 1, 0)))
        assert big_d(S, T) == 0.0
        assert calls == self.SOLVES

    def test_enumerated_sizes_make_no_solve(self, calls):
        assert systems.ENUMERATE_MAX_N == 6
        for n in range(1, 7):
            sigma, cost = optimal_matching(1.0 - np.eye(n)[::-1])
            assert sigma.image == tuple(range(n - 1, -1, -1)) and cost == 0.0
        assert calls == []


class TestEnumeration:
    """_lex_optimal (n <= 6) against the row-pinning path and the brute force."""

    @staticmethod
    def tie_heavy(data, shape):
        # entries in {0, 1, 2} sum exactly; multiples of 1/7 round, so their
        # co-optimal sums differ in the last bits
        size = int(np.prod(shape))
        if data.draw(st.booleans()):
            k = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
            return np.array(k, dtype=float).reshape(shape)
        k = data.draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
        return (np.array(k) / 7.0).reshape(shape)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_equals_the_pinning_path_bit_for_bit(self, n, data):
        C = self.tie_heavy(data, (n, n))
        first, cost = systems._lex_optimal(C)
        sigma, pinned = systems._pinned_matching(C)
        assert tuple(systems._PERMUTATIONS[n][first]) == sigma.image
        assert np.float64(cost).tobytes() == np.float64(pinned).tobytes()
        assert optimal_matching(C) == (sigma, pinned)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 7), data=st.data())
    def test_distances_equal_one_matching_per_pair(self, n, m, data):
        T = self.tie_heavy(data, (m, m, n, n))
        D = systems._distances(T)
        for j in range(m):
            assert D[j, j] == 0.0
            for k in range(j + 1, m):
                cost = optimal_matching(T[j, k])[1]
                assert D[j, k].tobytes() == D[k, j].tobytes() == np.float64(cost).tobytes()

    def test_distances_chunk_long_rows(self):
        # n = 6 holds 45 pairs per call, so the first rows of m = 100 split
        rng = np.random.default_rng(3)
        T = rng.integers(0, 7, size=(100, 100, 6, 6)) / 7.0
        D = systems._distances(T)
        for j, k in [(0, 1), (0, 45), (0, 46), (0, 91), (0, 99), (1, 47), (53, 99)]:
            assert D[j, k] == D[k, j] == optimal_matching(T[j, k])[1]

    def test_cost_at_the_tolerance_band_edge(self):
        # the (0, 1, 2) cost exceeds the (1, 0, 2) optimum by about
        # MATCH_TOL: _pinned_matching's check pins row 0 to column 0, summed
        # as 2/7 + (C[1, 1] + 1/7), then row 1's check, summed as
        # (2/7 + C[1, 1]) + 1/7, rounds above the bound for every column.
        # Enumeration compares each left-to-right sum with the least one.
        C = np.array([
            [2 / 7, 2 / 7, 6 / 7],
            [1 / 7, float.fromhex("0x1.249249249b14fp-3"), 5 / 7],
            [3 / 7, 5 / 7, 1 / 7],
        ])
        assert optimal_matching(C) == matching_brute_force(C) == (Permutation((1, 0, 2)), 4 / 7)

    def test_pinning_in_the_tolerance_band_pins_the_least_total(self):
        # on the matrix above no column of row 1 passes the pinning check;
        # the path that serves n >= 7 takes the column of least total
        C = np.array([
            [2 / 7, 2 / 7, 6 / 7],
            [1 / 7, float.fromhex("0x1.249249249b14fp-3"), 5 / 7],
            [3 / 7, 5 / 7, 1 / 7],
        ])
        sigma, cost = systems._pinned_matching(C)
        assert sorted(sigma.image) == [0, 1, 2]
        assert cost == sum(C[i, sigma.image[i]] for i in range(3))
        assert abs(cost - matching_brute_force(C)[1]) <= systems.MATCH_TOL + 3**2 * 2.0**-53

    def test_peak_memory_is_bounded_by_the_chunk(self):
        # one call holds ENUMERATE_CHUNK sums and one gathered term (2 x 256
        # KiB); a whole row of m = 200 would hold 2 x 199 x 720 sums (2.2 MiB)
        T = np.random.default_rng(4).uniform(size=(200, 200, 6, 6))
        tracemalloc.start()
        try:
            D = systems._distances(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - D.nbytes <= 4 * 8 * systems.ENUMERATE_CHUNK


@st.composite
def _eighths_ifs(draw, n, d):
    """n maps on the unit d-cube with every coefficient a multiple of 1/8:
    entries of A in [-2/8, 2/8], so absolute row and column sums, hence the
    norm, stay below 1, and b anywhere on the eighths grid that keeps the
    image in the cube."""
    maps = []
    for _ in range(n):
        A = np.array(draw(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d)), dtype=float)
        A = A.reshape(d, d) / 8.0
        low, high = np.minimum(A, 0.0).sum(axis=1), np.maximum(A, 0.0).sum(axis=1)
        b = [draw(st.integers(round(-8 * l), round(8 * (1.0 - h)))) / 8.0 for l, h in zip(low, high)]
        maps.append(AffineMap(A, b))
    return IFS(Box(np.zeros(d), np.ones(d)), tuple(maps))


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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), d=st.integers(1, 3))
    def test_metric_axioms_on_random_systems(self, data, n, d):
        S, T, U = (data.draw(_eighths_ifs(n, d)) for _ in range(3))
        sigma = Permutation(tuple(data.draw(st.permutations(range(n)))))
        dst = big_d(S, T)
        assert dst >= 0.0
        assert big_d(S, S.reordered(sigma)) == 0.0
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

    def test_cap_bounds_the_entries(self, ifs_s, monkeypatch):
        # m^2 n^2 entries: two terms of two maps are 16, three are 36
        monkeypatch.setattr(systems, "COST_TENSOR_CAP", 16)
        assert cost_tensor([ifs_s] * 2).shape == (2, 2, 2, 2)
        with pytest.raises(ResourceLimitError, match=r"^the cost tensor of 3 terms of arity 2 exceeds the 16-entry cap$"):
            cost_tensor([ifs_s] * 3)
