import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsseq import (
    IFS,
    AffineMap,
    Box,
    InputError,
    PreconditionError,
    big_d,
    cost_matrix,
    dbar_inf,
    is_minimally_ordered,
    is_mo_set,
    leq,
    optimal_matching,
    sequences,
)
from ifsseq.sequences import (
    ExtrapolationModel,
    IFSSequence,
    align_chain,
    analyze_sequence,
    cauchy_index,
    converges_to,
    eventually_decreasing_at,
    extrapolate,
    is_decreasing,
    limit_of_contractions,
    pairwise_distances,
)

from ifsseq.systems import MATCH_TOL, Permutation, matching_brute_force

from conftest import cantor_ifs, cantor_term, random_ifs

EXACT = 1e-12
LINE, SQUARE = Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0])


def scaling_pair(box, a1, a2):
    """Two-map system with factors (a1, a2), anchored at 0 and 1."""
    return IFS(box, (AffineMap([[a1]], [0.0]), AffineMap([[a2]], [1.0 - a2])))


@pytest.fixture
def cantor_seq(unit_box):
    return IFSSequence(tuple(cantor_term(j, unit_box) for j in range(1, 11)))


class TestConstruction:
    def test_rejects_mixed_arity(self, unit_box, ifs_s):
        single = IFS(unit_box, (AffineMap([[0.5]], [0.0]),))
        with pytest.raises(InputError):
            IFSSequence((ifs_s, single))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            IFSSequence(())


def coefficient_bytes(seq):
    return [m.A.tobytes() + m.b.tobytes() for term in seq.terms for m in term.maps]


class TestAlignChain:
    def test_second_term_reordered(self, ifs_s, ifs_u):
        seq = IFSSequence((ifs_s, ifs_u))
        aligned = align_chain(seq)
        assert aligned.terms[0] == ifs_s
        assert aligned.terms[1].maps == (ifs_u.maps[1], ifs_u.maps[0])
        assert [p.image for p in analyze_sequence(seq, 0.5).alignment] == [(0, 1), (1, 0)]

    def test_idempotent(self, ifs_s, ifs_t, ifs_u):
        seq = align_chain(IFSSequence((ifs_s, ifs_t, ifs_u)))
        again = align_chain(seq)
        assert again.terms == seq.terms

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda rng: similitude_sequence(rng, LINE, 3, 6, rate=0.7), id="shuffled-1d"),
            pytest.param(lambda rng: similitude_sequence(rng, SQUARE, 3, 9, rate=0.7), id="shuffled-2d"),
            pytest.param(lambda rng: similitude_sequence(rng, LINE, 7, 4, rate=0.7), id="shuffled-7-maps"),
            pytest.param(lambda rng: dyadic_sequence(rng, SQUARE, 13, settle=False), id="tie-heavy"),
            pytest.param(lambda rng: dyadic_sequence(rng, SQUARE, 13, settle=True), id="tie-heavy-settling"),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_aligned_chain_is_a_fixed_point(self, make, seed):
        aligned = align_chain(make(np.random.default_rng(seed)))
        assert coefficient_bytes(align_chain(aligned)) == coefficient_bytes(aligned)
        assert all(p.is_identity for p in analyze_sequence(aligned, 0.5).alignment)

    def test_preserves_consecutive_distances(self, unit_box):
        rng = np.random.default_rng(21)
        for _ in range(10):
            terms = tuple(random_ifs(rng, unit_box, 3) for _ in range(4))
            seq = IFSSequence(terms)
            aligned = align_chain(seq)
            for j in range(3):
                assert big_d(aligned.terms[j], aligned.terms[j + 1]) == pytest.approx(
                    big_d(terms[j], terms[j + 1]), abs=EXACT
                )

    def test_each_link_matches_pairwise_matching(self, unit_box):
        from ifsseq import minimal_order

        rng = np.random.default_rng(22)
        terms = tuple(random_ifs(rng, unit_box, 3) for _ in range(4))
        aligned = align_chain(IFSSequence(terms))
        for j in range(1, 4):
            expected, _ = minimal_order(aligned.terms[j - 1], terms[j])
            assert aligned.terms[j] == expected


class TestMonotonicity:
    def test_constant_sequence_is_decreasing(self, ifs_s):
        seq = IFSSequence((ifs_s, ifs_s, ifs_s))
        assert is_decreasing(seq)
        assert eventually_decreasing_at(seq) == 1

    def test_decreasing_factor_profile(self, unit_box):
        seq = IFSSequence(
            (
                scaling_pair(unit_box, 0.5, 0.5),
                scaling_pair(unit_box, 0.4, 0.45),
                scaling_pair(unit_box, 0.3, 0.4),
            )
        )
        assert is_decreasing(seq)

    def test_slot_increase_breaks_decrease(self, unit_box):
        seq = IFSSequence(
            (scaling_pair(unit_box, 0.3, 0.3), scaling_pair(unit_box, 0.5, 0.2))
        )
        assert not is_decreasing(seq)

    def test_eventually_decreasing_after_one_bump(self, unit_box):
        factors = [(0.5, 0.5), (0.4, 0.4), (0.6, 0.6), (0.5, 0.5), (0.4, 0.4)]
        seq = IFSSequence(tuple(scaling_pair(unit_box, a, b) for a, b in factors))
        # the single increase lands on term 3, the tail decreases from there
        assert not is_decreasing(seq)
        assert eventually_decreasing_at(seq) == 3

    def test_strictly_increasing_has_no_witness(self, unit_box):
        seq = IFSSequence(
            tuple(scaling_pair(unit_box, 0.1 * j, 0.1 * j) for j in range(1, 6))
        )
        assert eventually_decreasing_at(seq) is None

    @pytest.mark.parametrize("predicate", [is_decreasing, eventually_decreasing_at])
    def test_long_chain_reads_only_consecutive_links(self, predicate):
        # the (m, m, n, n) cost tensor of 500 terms of 4 maps alone is 32 MB
        square = Box([0.0, 0.0], [1.0, 1.0])
        seq = similitude_sequence(np.random.default_rng(0), square, 4, 500, rate=0.99)
        tracemalloc.start()
        try:
            predicate(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestCauchy:
    def test_constant_sequence(self, ifs_t):
        seq = IFSSequence((ifs_t, ifs_t, ifs_t))
        assert cauchy_index(seq, 1e-9) == 1

    def test_cantor_sequence_at_point_one(self, cantor_seq):
        # D(S_j, S_k) = u/(1+u) with u = |1/(3j) - 1/(3k)|; the tail from
        # term 2 still reaches u = 2/15 (D ~ 0.118), from term 3 the worst
        # pair has u = 7/90 (D ~ 0.072), so the witness index is 3
        assert cauchy_index(cantor_seq, 0.1) == 3

    def test_fixed_gap_never_cauchy(self, ifs_s, ifs_t):
        seq = IFSSequence((ifs_s, ifs_t, ifs_s, ifs_t))
        gap = big_d(ifs_s, ifs_t)
        assert gap > 0.1
        assert cauchy_index(seq, 0.1) is None

    def test_monotone_in_eps(self, cantor_seq):
        indices = [cauchy_index(cantor_seq, eps) for eps in (0.02, 0.05, 0.1, 0.5)]
        witnessed = [i for i in indices if i is not None]
        assert witnessed == sorted(witnessed, reverse=True)

    def test_oracle_scan_agrees(self, cantor_seq):
        dist = pairwise_distances(cantor_seq)
        eps = 0.03
        m = len(cantor_seq)
        expected = next(
            (
                n + 1
                for n in range(m - 1)
                if all(dist[j, k] < eps for j in range(n, m) for k in range(n, m))
            ),
            None,
        )
        assert cauchy_index(cantor_seq, eps) == expected


class TestConvergesTo:
    def test_cantor_sequence_to_limit(self, cantor_seq, unit_box):
        # D(S_j, S) = 1/(3j+1) < 0.05 exactly when j >= 7
        assert converges_to(cantor_seq, cantor_ifs(unit_box), 0.05) == 7

    def test_constant_sequence(self, ifs_t):
        seq = IFSSequence((ifs_t, ifs_t))
        assert converges_to(seq, ifs_t, 1e-9) == 1

    def test_far_target_absent(self, cantor_seq, ifs_u, unit_box):
        assert all(big_d(t, ifs_u) >= 0.2 for t in cantor_seq.terms)
        assert converges_to(cantor_seq, ifs_u, 0.1) is None


class TestLimitOfContractions:
    def test_shrinking_scalings(self, unit_box):
        maps = [AffineMap([[1.0 / 3.0 + 1.0 / (3.0 * n)]], [0.0]) for n in range(1, 61)]
        limit, bound = limit_of_contractions(maps, unit_box, eps=1e-3)
        assert limit == maps[-1]
        assert bound == pytest.approx(1.0 / 3.0 + 1.0 / 180.0, abs=EXACT)
        assert limit.contractivity <= bound + 1e-3

    def test_constant_sequence(self, unit_box):
        f = AffineMap([[0.4]], [0.1])
        limit, bound = limit_of_contractions([f, f, f], unit_box, eps=0.5)
        assert limit == f
        assert bound == f.contractivity

    def test_rejects_increasing_factors(self, unit_box):
        maps = [AffineMap([[1.0 - 1.0 / n]], [0.0]) for n in range(1, 30)]
        with pytest.raises(PreconditionError, match="eventually decreasing"):
            limit_of_contractions(maps, unit_box, eps=0.9)

    def test_rejects_non_cauchy(self, unit_box):
        f = AffineMap([[0.3]], [0.0])
        g = AffineMap([[0.3]], [0.5])
        with pytest.raises(PreconditionError, match="Cauchy"):
            limit_of_contractions([f, g, f, g], unit_box, eps=0.05)

    def test_factor_bound_dominates_tail(self, unit_box):
        rng = np.random.default_rng(31)
        for _ in range(20):
            base = rng.uniform(0.2, 0.5)
            maps = [
                AffineMap([[base + 0.4 / (n + 1)]], [0.0]) for n in range(1, 12)
            ]
            _, bound = limit_of_contractions(maps, unit_box, eps=0.5)
            tail = [m.contractivity for m in maps]
            assert bound <= min(tail) + 0.5


class TestLimitCandidate:
    def test_cantor_sequence_report(self, cantor_seq, unit_box):
        report = analyze_sequence(cantor_seq, eps=0.2)
        assert report.failure is None
        # candidate equals the final aligned term, so the residual vanishes
        assert report.limit == cantor_seq.terms[-1]
        assert report.residual == 0.0
        assert report.decreasing
        assert report.eventually_decreasing_at == 1
        assert report.cauchy_at is not None
        # the candidate sits 1/(3*10+1) away from the true middle-thirds system
        assert big_d(report.limit, cantor_ifs(unit_box)) == pytest.approx(
            1.0 / 31.0, abs=EXACT
        )

    def test_constant_sequence_residual_zero(self, ifs_t):
        report = analyze_sequence(IFSSequence((ifs_t, ifs_t, ifs_t)), eps=0.5)
        assert report.failure is None
        assert report.limit == ifs_t
        assert report.residual == 0.0

    def test_plane_triple_alignment(self, plane_s, plane_t, plane_u):
        # generous eps so the constant-map chain passes the Cauchy gate
        report = analyze_sequence(IFSSequence((plane_s, plane_t, plane_u)), eps=1.9)
        assert report.failure is None
        assert [p.describe() for p in report.alignment] == ["identity", "identity", "identity"]
        assert report.decreasing  # constant maps all have factor zero
        assert report.limit is not None

    def test_slot_error_carries_index(self, unit_box):
        good = AffineMap([[0.2]], [0.0])
        growing = [AffineMap([[1.0 - 1.0 / n]], [0.0]) for n in (2, 3, 4)]
        terms = tuple(
            IFS(unit_box, (good, g)) for g in growing
        )
        report = analyze_sequence(IFSSequence(terms), eps=0.9)
        assert isinstance(report.failure, PreconditionError)
        assert str(report.failure).startswith("slot 2: ")
        assert report.limit is None

    def test_strict_decrease_of_cantor_distances(self, cantor_seq, unit_box):
        target = cantor_ifs(unit_box)
        dists = [big_d(t, target) for t in cantor_seq.terms]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        for j, d in enumerate(dists, start=1):
            assert d == pytest.approx(1.0 / (3.0 * j + 1.0), abs=EXACT)


def _start(flags):
    """First term of the decreasing tail (1-based), or None without a witness."""
    if all(flags):
        return 1
    start = max(j for j, ok in enumerate(flags) if not ok) + 2
    return start if start <= len(flags) else None


def _cauchy(dist, eps):
    m = dist.shape[0]
    if m == 1:
        return 1
    return next((s + 1 for s in range(m - 1) if dist[s:, s:].max() < eps), None)


def brute_matching(C):
    """optimal_matching's tie-break by enumeration: the first permutation in
    lexicographic order whose cost, summed left to right, is within MATCH_TOL
    of matching_brute_force's least.  matching_brute_force's own choice, the
    first of least cost, differs from it where a cost lies within MATCH_TOL
    of the least but above it (tie-heavy chains have such links)."""
    n = C.shape[0]
    _, least = matching_brute_force(C)
    for perm in itertools.permutations(range(n)):
        if float(sum(C[i, perm[i]] for i in range(n))) <= least + MATCH_TOL:
            return Permutation(perm)


def reference_analysis(seq, eps):
    """The analysis composed from per-pair primitives: big_d per pair of the
    terms as given (pairwise_distances's summation order), then each term
    reordered by brute_matching against the previous reordered term, and on
    the reordered terms leq per consecutive pair, is_minimally_ordered per
    ordered pair and dbar_inf per slot pair."""
    terms, alignment = [seq.terms[0]], [Permutation.identity(seq.n)]
    for term in seq.terms[1:]:
        sigma = brute_matching(cost_matrix(terms[-1], term))
        terms.append(term.reordered(sigma))
        alignment.append(sigma)
    m, n = len(seq), seq.n
    dist = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1, m):
            dist[j, k] = dist[k, j] = big_d(seq.terms[j], seq.terms[k])
    flags = [leq(terms[j + 1], terms[j]) for j in range(m - 1)]
    rel = [[is_minimally_ordered(terms[j], terms[i]) for j in range(m)] for i in range(m)]
    mo_set = all(
        not (rel[i][j] and rel[j][k]) or rel[i][k]
        for i in range(m) for j in range(m) for k in range(m)
    )
    traces = tuple(tuple(t.maps[i].contractivity for t in terms) for i in range(n))
    failure = None
    for i in range(n):
        slot = [t.maps[i] for t in terms]
        dbar = np.zeros((m, m))
        for j in range(m):
            for k in range(j + 1, m):
                dbar[j, k] = dbar[k, j] = dbar_inf(slot[j], slot[k], seq.domain)
        f = traces[i]
        if _start([f[j + 1] <= f[j] + 1e-12 for j in range(m - 1)]) is None:
            failure = f"slot {i + 1}: contractivity factors are not eventually decreasing"
        elif _cauchy(dbar, eps) is None:
            failure = f"slot {i + 1}: sequence is not Cauchy at eps={eps}"
        if failure:
            break
    limit = None if failure else IFS(seq.domain, terms[-1].maps)
    return {
        "pairwise": dist,
        "factor_traces": traces,
        "decreasing": all(flags),
        "eventually_decreasing_at": _start(flags),
        "cauchy_at": _cauchy(dist, eps),
        "alignment": tuple(alignment),
        "mo_set": mo_set,
        "failure": failure,
        "limit": limit,
        "residual": big_d(terms[-1], limit) if limit else None,
    }


def similitude_sequence(rng, box, n, length, rate, bump=None):
    """Similitudes converging at `rate`, slots shuffled in every term; with
    `bump`, that slot's factor jumps up in the last term."""
    d = box.dim
    fixed = rng.uniform(0.2, 0.8, size=(n, d))
    scale = rng.uniform(0.2, 0.3, size=n)
    theta = rng.uniform(-0.6, 0.6, size=n)
    terms = []
    for j in range(1, length + 1):
        r = rate**j
        maps = []
        for i in range(n):
            s = scale[i] * (1.5 if (i == bump and j == length) else 1.0 + 0.15 * r)
            c, sn = np.cos(theta[i] + 0.2 * r), np.sin(theta[i] + 0.2 * r)
            A = np.array([[s]]) if d == 1 else s * np.array([[c, -sn], [sn, c]])
            p = fixed[i] + 0.05 * r
            maps.append(AffineMap(A, p - A @ p))
        terms.append(IFS(box, tuple(maps[k] for k in rng.permutation(n))))
    return IFSSequence(tuple(terms))


def dyadic_sequence(rng, box, length, settle):
    """4-map 2D similitudes with scales in {1/4, 1/2} and translations in
    {0, 1/4, 1/2}, slots shuffled in every term, so maps repeat and matchings
    tie.  Without `settle` every term is drawn afresh; with it the
    translations stay fixed and one slot's scale drops to 1/4 per term."""
    scale = np.full(4, 0.5)
    shift = rng.choice([0.0, 0.25, 0.5], size=(4, 2))
    terms = []
    for _ in range(length):
        if settle:
            scale[rng.integers(4)] = 0.25
        else:
            scale = rng.choice([0.25, 0.5], size=4)
            shift = rng.choice([0.0, 0.25, 0.5], size=(4, 2))
        maps = [AffineMap(scale[i] * np.eye(2), shift[i]) for i in range(4)]
        terms.append(IFS(box, tuple(maps[k] for k in rng.permutation(4))))
    return IFSSequence(tuple(terms))


class TestAnalyzeSequence:
    def check(self, seq, eps):
        report = analyze_sequence(seq, eps)
        expected = reference_analysis(seq, eps)
        assert np.array_equal(report.pairwise, expected["pairwise"])
        assert report.factor_traces == expected["factor_traces"]
        assert report.decreasing == expected["decreasing"]
        assert report.eventually_decreasing_at == expected["eventually_decreasing_at"]
        assert report.cauchy_at == expected["cauchy_at"]
        assert report.alignment == expected["alignment"]
        assert report.mo_set == expected["mo_set"]
        assert (report.failure and str(report.failure)) == expected["failure"]
        assert report.limit == expected["limit"]
        if expected["limit"] is not None:
            assert report.residual == expected["residual"]
        return report

    @pytest.mark.parametrize("seed", range(6))
    def test_converging_shuffled_sequences(self, seed):
        rng = np.random.default_rng(seed)
        box = SQUARE if seed % 2 else LINE
        seq = similitude_sequence(rng, box, 3, 5 + 2 * seed, rate=0.7)
        assert self.check(seq, 0.05).failure is None

    @pytest.mark.parametrize("seed", range(4))
    def test_random_shuffled_sequences(self, seed):
        rng = np.random.default_rng(100 + seed)
        terms = tuple(random_ifs(rng, SQUARE, 3) for _ in range(4 + seed))
        self.check(IFSSequence(terms), 0.9)

    @pytest.mark.parametrize("settle", [False, True])
    @pytest.mark.parametrize("length", [3, 8, 13, 16])
    def test_tie_heavy_sequences(self, length, settle):
        seq = dyadic_sequence(np.random.default_rng(length), SQUARE, length, settle)
        self.check(seq, 0.3)

    @pytest.mark.parametrize("settle", [False, True])
    @pytest.mark.parametrize("length", [3, 8, 13, 16])
    def test_tie_heavy_reads_match_primitives(self, length, settle):
        seq = dyadic_sequence(np.random.default_rng(length), SQUARE, length, settle)
        terms = align_chain(seq).terms
        links = list(zip(terms, terms[1:]))
        # the identity is the tie-broken optimal matching of every aligned link
        assert all(optimal_matching(cost_matrix(b, a))[0].is_identity for a, b in links)
        flags = [leq(b, a) for a, b in links]
        assert is_decreasing(seq) == all(flags)
        assert eventually_decreasing_at(seq) == _start(flags)
        rel = [[is_minimally_ordered(t, s) for t in seq.terms] for s in seq.terms]
        transitive = all(
            not (rel[i][j] and rel[j][k]) or rel[i][k]
            for i, j, k in itertools.product(range(length), repeat=3)
        )
        assert is_mo_set(seq.terms) == transitive

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "tie-heavy", "settling"]),
        length=st.integers(1, 12),
    )
    def test_pairwise_agrees_with_pairwise_distances(self, seed, kind, length):
        # the report's D is pairwise_distances's, bit for bit, so its Cauchy
        # index is cauchy_index's at every eps, one on a D included
        rng = np.random.default_rng(seed)
        if kind == "random":
            box, n = (LINE, SQUARE)[rng.integers(2)], int(rng.integers(1, 5))
            seq = IFSSequence(tuple(random_ifs(rng, box, n) for _ in range(length)))
        else:
            seq = dyadic_sequence(rng, SQUARE, length, settle=kind == "settling")
        plain = pairwise_distances(seq)
        eps = float(rng.choice(plain.ravel())) or 0.1  # on a D, where two sums of it could part
        report = analyze_sequence(seq, eps)
        assert report.pairwise.shape == plain.shape == (length, length)
        assert np.array_equal(report.pairwise, plain)
        assert report.cauchy_at == cauchy_index(seq, eps)

    @pytest.mark.parametrize(
        "seed, eps, expected",
        [(2, "0x1.63ec7e38255fdp+0", 4), (4, "0x1.621e7154a260ap+0", None)],
    )
    def test_cauchy_at_on_a_distance(self, seed, eps, expected):
        # eps lies on a D of the terms as given (seed 4) or one ulp above it
        # (seed 2); D summed over the aligned terms reaches eps on these
        # seeds, and a Cauchy index read from it is 5 and 4
        rng = np.random.default_rng(seed)
        seq = IFSSequence(tuple(random_ifs(rng, SQUARE, 4) for _ in range(6)))
        eps = float.fromhex(eps)
        assert np.abs(pairwise_distances(seq) - eps).min() <= np.spacing(eps)
        assert analyze_sequence(seq, eps).cauchy_at == cauchy_index(seq, eps) == expected

    def test_plane_triple_is_not_mo_set(self, plane_s, plane_t, plane_u):
        assert self.check(IFSSequence((plane_s, plane_t, plane_u)), 1.9).mo_set is False

    def test_not_cauchy(self):
        seq = similitude_sequence(np.random.default_rng(7), SQUARE, 3, 6, rate=0.9)
        report = self.check(seq, 0.001)
        assert isinstance(report.failure, PreconditionError)
        assert str(report.failure) == "slot 1: sequence is not Cauchy at eps=0.001"

    def test_not_eventually_decreasing(self):
        seq = similitude_sequence(np.random.default_rng(8), SQUARE, 3, 8, rate=0.7, bump=1)
        report = self.check(seq, 0.5)
        assert isinstance(report.failure, PreconditionError)
        assert "contractivity factors are not eventually decreasing" in str(report.failure)

    def test_nonpositive_eps_is_returned_as_input_error(self, cantor_seq):
        report = analyze_sequence(cantor_seq, 0.0)
        assert isinstance(report.failure, InputError)
        assert report.limit is None and report.cauchy_at is None
        assert str(report.failure) == "eps must be positive"

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0])
    def test_nan_eps_is_rejected_everywhere(self, cantor_seq, unit_box, eps):
        report = analyze_sequence(cantor_seq, eps)
        assert isinstance(report.failure, InputError) and str(report.failure) == "eps must be positive"
        maps = [term.maps[1] for term in cantor_seq.terms]
        for call in (
            lambda: cauchy_index(cantor_seq, eps),
            lambda: converges_to(cantor_seq, cantor_ifs(unit_box), eps),
            lambda: limit_of_contractions(maps, unit_box, eps),
        ):
            with pytest.raises(InputError, match="eps must be positive"):
                call()

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0])
    def test_cauchy_index_checks_eps_before_the_cost_tensor(self, monkeypatch, cantor_seq, eps):
        def no_tensor(*args, **kwargs):
            raise AssertionError("no cost tensor may be built")

        monkeypatch.setattr(sequences, "cost_tensor", no_tensor)
        with pytest.raises(InputError, match="eps must be positive"):
            cauchy_index(cantor_seq, eps)

    def test_already_aligned_chain_is_not_realigned(self, cantor_seq):
        aligned = align_chain(cantor_seq)
        assert analyze_sequence(aligned, 0.2).alignment == (Permutation.identity(2),) * len(aligned)


class TestExtrapolate:
    def geometric_series_sequence(self, unit_box, count=6):
        # coefficients b_j = 0.2 + 0.3 * 0.5^j decay geometrically
        terms = []
        for j in range(1, count + 1):
            b = 0.2 + 0.3 * 0.5**j
            terms.append(IFS(unit_box, (AffineMap([[0.25]], [b]), AffineMap([[0.25]], [0.0]))))
        return IFSSequence(tuple(terms))

    def test_hold_last(self, unit_box):
        seq = self.geometric_series_sequence(unit_box)
        out = extrapolate(seq, ExtrapolationModel("hold-last", horizon=40))
        assert out == seq.terms[-1]

    def test_horizon_zero_is_identity_for_all_models(self, unit_box):
        seq = self.geometric_series_sequence(unit_box)
        for kind in ("hold-last", "linear", "geometric"):
            out = extrapolate(seq, ExtrapolationModel(kind, horizon=0))
            assert out == seq.terms[-1]

    def test_linear_exact_series(self, unit_box):
        # a_j = 0.5 - 0.05 j; two steps past j=4 gives 0.2 exactly
        terms = tuple(
            IFS(unit_box, (AffineMap([[0.5 - 0.05 * j]], [0.0]), AffineMap([[0.1]], [0.9])))
            for j in range(1, 5)
        )
        out = extrapolate(IFSSequence(terms), ExtrapolationModel("linear", horizon=2))
        assert out.maps[0].A[0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_geometric_exact_series(self, unit_box):
        seq = self.geometric_series_sequence(unit_box)
        out = extrapolate(seq, ExtrapolationModel("geometric", horizon=200))
        assert out.maps[0].b[0] == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.parametrize("horizon", [1, 2, 7])
    def test_geometric_three_point_tail(self, unit_box, horizon):
        # three terms give two steps and one ratio, the classic three-point
        # fit: b_j = c + beta * rho^j with c = beta = 1/4 and rho = 1/2 is
        # dyadic, so the limit c and c + (b_3 - c) * rho^h come out exact
        terms = tuple(
            IFS(unit_box, (AffineMap([[0.25]], [0.25 + 0.25 * 0.5**j]), AffineMap([[0.25]], [0.0])))
            for j in (1, 2, 3)
        )
        out = extrapolate(IFSSequence(terms), ExtrapolationModel("geometric", horizon=horizon))
        assert out.maps[0].b[0] == 0.25 + (terms[-1].maps[0].b[0] - 0.25) * 0.5**horizon
        assert out.maps[0].A[0, 0] == 0.25 and out.maps[1] == terms[-1].maps[1]

    def test_geometric_on_harmonic_cantor_terms(self, unit_box):
        # translation coefficients 1/(3j) decay harmonically; the limit
        # extraction must still land essentially on the middle-thirds system
        seq = IFSSequence(tuple(cantor_term(j, unit_box) for j in range(1, 6)))
        out = extrapolate(seq, ExtrapolationModel("geometric", horizon=100))
        assert big_d(out, cantor_ifs(unit_box)) <= 0.01

    def test_growing_steps_fall_back_to_linear(self, unit_box):
        # step ratio above one: 0.1, 0.2, 0.4, 0.8 increments
        values = [0.05, 0.06, 0.08, 0.12, 0.2]
        terms = tuple(
            IFS(unit_box, (AffineMap([[0.3]], [v]), AffineMap([[0.3]], [0.7])))
            for v in values
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            out = extrapolate(IFSSequence(terms), ExtrapolationModel("geometric", horizon=1))
        assert out is not None

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    def test_aligns_the_chain(self, unit_box, kind):
        seq = IFSSequence(tuple(cantor_term(j, unit_box) for j in range(1, 6)))
        swapped = IFSSequence(seq.terms[:1] + tuple(t.reordered(Permutation((1, 0))) for t in seq.terms[1:]))
        model = ExtrapolationModel(kind, horizon=3)
        assert extrapolate(swapped, model) == extrapolate(seq, model)

    def test_needs_enough_terms(self, unit_box, ifs_s):
        seq = IFSSequence((ifs_s, ifs_s))
        with pytest.raises(PreconditionError):
            extrapolate(seq, ExtrapolationModel("geometric", horizon=1))
        with pytest.raises(PreconditionError):
            extrapolate(IFSSequence((ifs_s,)), ExtrapolationModel("linear", horizon=1))

    def test_result_respects_cap(self, unit_box):
        seq = self.geometric_series_sequence(unit_box)
        out = extrapolate(seq, ExtrapolationModel("geometric", horizon=50, s_max=0.3))
        for m in out.maps:
            assert m.contractivity <= 0.3 + 1e-12

    def test_model(self):
        with pytest.raises(InputError):
            ExtrapolationModel("cubic", horizon=1)
        with pytest.raises(InputError):
            ExtrapolationModel("linear", horizon=-1)
        # a horizon is refused only where float() of it overflows
        ExtrapolationModel("linear", horizon=2**1024 - 2**970 - 1)  # rounds to the largest float
        for kind in ("linear", "geometric"):
            with pytest.raises(InputError, match="horizon must not exceed the largest float"):
                ExtrapolationModel(kind, horizon=2**1024 - 2**970)
        ExtrapolationModel("hold-last", horizon=10**400)  # never read
