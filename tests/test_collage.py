import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsseq import (
    IFS,
    AffineMap,
    Box,
    IFSSequence,
    InputError,
    PointSet,
    PreconditionError,
    attractor_points,
    big_d,
    box_seed,
    hausdorff,
    hausdorff_brute,
    hutchinson,
    minimal_order,
)
from ifsseq.collage import (
    ExtrapolationModel,
    FitConfig,
    collage_bound,
    collage_distance,
    extrapolate,
    fit_ifs,
    fit_sequence,
    project_map,
)
from ifsseq.formats import raster_to_points

from conftest import cantor_ifs, cantor_term, random_ifs

DELTA = 1e-4


@pytest.fixture
def cantor_render(unit_box):
    return attractor_points(cantor_ifs(unit_box), 10, box_seed(unit_box, DELTA))


class TestCollageDistance:
    def test_fixed_point_is_small(self, unit_box, cantor_render):
        assert collage_distance(cantor_ifs(unit_box), cantor_render) <= 2 * DELTA

    def test_full_interval_misses_by_gap_width(self, unit_box):
        grid = PointSet(np.linspace(0.0, 1.0, 10_001)[:, None], DELTA)
        # W([0,1]) drops the middle third; its midpoint sits 1/6 away
        assert collage_distance(cantor_ifs(unit_box), grid) == pytest.approx(
            1.0 / 6.0, abs=2 * DELTA
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2]),
        width=st.sampled_from([16, 17, 64]),
    )
    def test_equals_brute_hausdorff_of_hutchinson(self, seed, dim, width):
        # raster targets sit on the half-pitch grid, so W(L) snaps into
        # duplicates and exact ties that the dedup-free objective must keep
        rng = np.random.default_rng(seed)
        box = Box(np.zeros(dim), np.ones(dim))
        system = random_ifs(rng, box, 3)
        mask = rng.random((1 if dim == 1 else width, width)) < rng.uniform(0.05, 0.6)
        mask.flat[rng.integers(mask.size)] = True
        target = raster_to_points(mask, 1.0 / width)
        assert collage_distance(system, target) == hausdorff_brute(
            target, hutchinson(system, target)
        )


class TestCollageBound:
    def test_arithmetic(self):
        assert collage_bound(0.1, 1.0 / 3.0) == pytest.approx(0.15, abs=1e-15)
        assert collage_bound(0.0, 0.9) == 0.0

    def test_rejects_bad_factor(self):
        with pytest.raises(InputError):
            collage_bound(0.1, 1.0)
        with pytest.raises(InputError):
            collage_bound(-0.1, 0.5)

    def test_collage_inequality_empirically(self):
        rng = np.random.default_rng(55)
        for dim in (1, 2):
            box = Box(np.zeros(dim), np.ones(dim))
            delta = 1e-4 if dim == 1 else 1e-3
            for _ in range(20):
                system = random_ifs(rng, box, 2, smax=0.6)
                target = PointSet(rng.uniform(0, 1, (60, dim)), delta)
                eps = collage_distance(system, target)
                bound = collage_bound(eps, system.contractivity)
                render = attractor_points(system, 25, box_seed(box, delta))
                assert hausdorff(target, render) <= bound + 4 * delta


class TestProjectMap:
    def test_clamps_singular_values(self, unit_box):
        m = project_map(np.array([[1.7]]), np.array([0.0]), unit_box, s_max=0.9)
        assert m.contractivity <= 0.9 + 1e-12

    def test_pulls_translation_inside(self, unit_box):
        m = project_map(np.array([[0.5]]), np.array([5.0]), unit_box, s_max=0.9)
        assert m.maps_into(unit_box)

    def test_feasible_map_unchanged(self, unit_box):
        m = project_map(np.array([[0.5]]), np.array([0.25]), unit_box, s_max=0.9)
        assert np.allclose(m.A, [[0.5]]) and np.allclose(m.b, [0.25])


class TestFitIFS:
    def test_recovers_cantor_coefficients(self, unit_box, cantor_render):
        cfg = FitConfig(n=2, restarts=8, max_iters=200, s_max=0.9, seed=1)
        result = fit_ifs(cantor_render, cfg, domain=unit_box)
        assert result.distance <= 0.02
        aligned, _ = minimal_order(cantor_ifs(unit_box), result.ifs)
        truth = cantor_ifs(unit_box)
        for fitted, true in zip(aligned.maps, truth.maps):
            assert abs(fitted.A[0, 0] - true.A[0, 0]) <= 0.05
            assert abs(fitted.b[0] - true.b[0]) <= 0.05

    def test_single_point_degenerate_optimum(self):
        target = PointSet([[0.3]], DELTA)
        cfg = FitConfig(n=1, restarts=2, max_iters=40, seed=0)
        result = fit_ifs(target, cfg)
        assert result.distance <= 2 * DELTA
        assert result.ifs.maps[0]([0.3])[0] == pytest.approx(0.3, abs=2 * DELTA)

    def test_interval_self_cover(self, unit_box):
        grid = PointSet(np.linspace(0.0, 1.0, 2001)[:, None], 5e-4)
        cfg = FitConfig(n=2, restarts=6, max_iters=150, seed=3)
        result = fit_ifs(grid, cfg, domain=unit_box)
        assert result.distance <= 0.02

    def test_objective_history_non_increasing(self, unit_box, cantor_render):
        cfg = FitConfig(n=2, restarts=3, max_iters=60, seed=5)
        result = fit_ifs(cantor_render, cfg, domain=unit_box)
        hist = result.history
        assert all(a >= b for a, b in zip(hist, hist[1:]))
        assert hist[-1] <= hist[0]

    def test_all_factors_capped(self, unit_box, cantor_render):
        cfg = FitConfig(n=2, restarts=2, max_iters=30, s_max=0.8, seed=7)
        result = fit_ifs(cantor_render, cfg, domain=unit_box)
        for m in result.ifs.maps:
            assert m.contractivity <= 0.8 + 1e-12

    def test_deterministic_per_seed(self, unit_box, cantor_render):
        cfg = FitConfig(n=2, restarts=2, max_iters=30, seed=11)
        a = fit_ifs(cantor_render, cfg, domain=unit_box)
        b = fit_ifs(cantor_render, cfg, domain=unit_box)
        assert a.ifs == b.ifs and a.distance == b.distance


class TestFitSequence:
    def make_frames(self, unit_box, count=3, depth=8):
        return [
            attractor_points(cantor_term(j, unit_box), depth, box_seed(unit_box, DELTA))
            for j in range(1, count + 1)
        ]

    def test_tracks_ground_truth(self, unit_box):
        frames = self.make_frames(unit_box, count=3)
        cfg = FitConfig(n=2, restarts=6, max_iters=150, s_max=0.9, seed=2)
        fit = fit_sequence(frames, cfg, domain=unit_box)
        assert fit.sequence.aligned
        for k, fitted in enumerate(fit.sequence.terms, start=1):
            assert big_d(fitted, cantor_term(k, unit_box)) <= 0.05

    def test_single_frame(self, unit_box, cantor_render):
        cfg = FitConfig(n=2, restarts=3, max_iters=60, seed=4)
        fit = fit_sequence([cantor_render], cfg, domain=unit_box)
        assert len(fit.sequence) == 1
        assert len(fit.distances) == 1

    def test_identical_frames_stable(self, unit_box, cantor_render):
        cfg = FitConfig(n=2, restarts=4, max_iters=100, seed=6)
        fit = fit_sequence([cantor_render] * 3, cfg, domain=unit_box)
        terms = fit.sequence.terms
        for a, b in zip(terms, terms[1:]):
            assert big_d(a, b) <= 0.01


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


class TestConfigValidation:
    def test_fit_config(self):
        with pytest.raises(InputError):
            FitConfig(n=0)
        with pytest.raises(InputError):
            FitConfig(n=1, restarts=0)
        with pytest.raises(InputError):
            FitConfig(n=1, s_max=1.0)

    def test_model(self):
        with pytest.raises(InputError):
            ExtrapolationModel("cubic", horizon=1)
        with pytest.raises(InputError):
            ExtrapolationModel("linear", horizon=-1)
