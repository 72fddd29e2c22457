import itertools
import tracemalloc

import numpy as np
import pytest

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
)
from ifsseq.sequences import (
    IFSSequence,
    align_chain,
    analyze_sequence,
    cauchy_index,
    converges_to,
    eventually_decreasing_at,
    is_decreasing,
    limit_candidate,
    limit_of_contractions,
    pairwise_distances,
)

from conftest import cantor_ifs, cantor_term, random_ifs

EXACT = 1e-12


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


class TestAlignChain:
    def test_second_term_reordered(self, ifs_s, ifs_u):
        seq = align_chain(IFSSequence((ifs_s, ifs_u)))
        assert seq.aligned
        assert seq.alignment[0].is_identity
        assert seq.alignment[1].image == (1, 0)
        assert seq.terms[1].maps == (ifs_u.maps[1], ifs_u.maps[0])

    def test_idempotent(self, ifs_s, ifs_t, ifs_u):
        seq = align_chain(IFSSequence((ifs_s, ifs_t, ifs_u)))
        again = align_chain(seq)
        assert again is seq

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
        report = limit_candidate(cantor_seq, eps=0.2)
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
        report = limit_candidate(IFSSequence((ifs_t, ifs_t, ifs_t)), eps=0.5)
        assert report.limit == ifs_t
        assert report.residual == 0.0

    def test_plane_triple_alignment(self, plane_s, plane_t, plane_u):
        # generous eps so the constant-map chain passes the Cauchy gate
        report = limit_candidate(IFSSequence((plane_s, plane_t, plane_u)), eps=1.9)
        assert [p.describe() for p in report.alignment] == ["identity", "identity", "identity"]
        assert report.decreasing  # constant maps all have factor zero
        assert report.limit is not None

    def test_slot_error_carries_index(self, unit_box):
        good = AffineMap([[0.2]], [0.0])
        growing = [AffineMap([[1.0 - 1.0 / n]], [0.0]) for n in (2, 3, 4)]
        terms = tuple(
            IFS(unit_box, (good, g)) for g in growing
        )
        with pytest.raises(PreconditionError, match="slot 2"):
            limit_candidate(IFSSequence(terms), eps=0.9)

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


def reference_analysis(seq, eps):
    """The analysis composed from per-pair primitives, as the CLI ran it
    before the cost tensor: align_chain, then big_d per pair, leq per
    consecutive pair, is_minimally_ordered per ordered pair and dbar_inf per
    slot pair."""
    aligned = align_chain(seq)
    terms, m, n = aligned.terms, len(aligned), aligned.n
    dist = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1, m):
            dist[j, k] = dist[k, j] = big_d(terms[j], terms[k])
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
                dbar[j, k] = dbar[k, j] = dbar_inf(slot[j], slot[k], aligned.domain)
        f = traces[i]
        if _start([f[j + 1] <= f[j] + 1e-12 for j in range(m - 1)]) is None:
            failure = f"slot {i + 1}: contractivity factors are not eventually decreasing"
        elif _cauchy(dbar, eps) is None:
            failure = f"slot {i + 1}: sequence is not Cauchy at eps={eps}"
        if failure:
            break
    limit = None if failure else IFS(aligned.domain, terms[-1].maps)
    return {
        "pairwise": dist,
        "factor_traces": traces,
        "decreasing": all(flags),
        "eventually_decreasing_at": _start(flags),
        "cauchy_at": _cauchy(dist, eps),
        "alignment": aligned.alignment,
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
    SQUARE = Box([0.0, 0.0], [1.0, 1.0])

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
        box = self.SQUARE if seed % 2 else Box([0.0], [1.0])
        seq = similitude_sequence(rng, box, 3, 5 + 2 * seed, rate=0.7)
        assert self.check(seq, 0.05).failure is None

    @pytest.mark.parametrize("seed", range(4))
    def test_random_shuffled_sequences(self, seed):
        rng = np.random.default_rng(100 + seed)
        terms = tuple(random_ifs(rng, self.SQUARE, 3) for _ in range(4 + seed))
        self.check(IFSSequence(terms), 0.9)

    @pytest.mark.parametrize("settle", [False, True])
    @pytest.mark.parametrize("length", [3, 8, 13, 16])
    def test_tie_heavy_sequences(self, length, settle):
        seq = dyadic_sequence(np.random.default_rng(length), self.SQUARE, length, settle)
        self.check(seq, 0.3)

    @pytest.mark.parametrize("settle", [False, True])
    @pytest.mark.parametrize("length", [3, 8, 13, 16])
    def test_tie_heavy_reads_match_primitives(self, length, settle):
        seq = dyadic_sequence(np.random.default_rng(length), self.SQUARE, length, settle)
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

    def test_plane_triple_is_not_mo_set(self, plane_s, plane_t, plane_u):
        assert self.check(IFSSequence((plane_s, plane_t, plane_u)), 1.9).mo_set is False

    def test_not_cauchy(self):
        seq = similitude_sequence(np.random.default_rng(7), self.SQUARE, 3, 6, rate=0.9)
        report = self.check(seq, 0.001)
        assert str(report.failure) == "slot 1: sequence is not Cauchy at eps=0.001"
        with pytest.raises(PreconditionError, match="slot 1: sequence is not Cauchy"):
            limit_candidate(seq, 0.001)

    def test_not_eventually_decreasing(self):
        seq = similitude_sequence(np.random.default_rng(8), self.SQUARE, 3, 8, rate=0.7, bump=1)
        report = self.check(seq, 0.5)
        assert "contractivity factors are not eventually decreasing" in str(report.failure)
        with pytest.raises(PreconditionError, match=str(report.failure)):
            limit_candidate(seq, 0.5)

    def test_nonpositive_eps_is_returned_as_input_error(self, cantor_seq):
        report = analyze_sequence(cantor_seq, 0.0)
        assert isinstance(report.failure, InputError)
        assert report.limit is None and report.cauchy_at is None
        with pytest.raises(InputError, match="eps must be positive"):
            limit_candidate(cantor_seq, 0.0)

    def test_already_aligned_chain_is_not_realigned(self, cantor_seq):
        aligned = align_chain(cantor_seq)
        assert analyze_sequence(aligned, 0.2).alignment is aligned.alignment
