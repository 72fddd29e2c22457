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
    ResourceLimitError,
    attractor_convergence_report,
    attractor_points,
    box_seed,
    chaos_game,
    code_point,
    directed_distance,
    hausdorff,
    hausdorff_brute,
    hutchinson,
)
from ifsseq.attractor import _directed_sq, _min_sq_brute

from conftest import cantor_ifs, cantor_term, constant_map, random_ifs

DELTA = 1e-4


def cantor_distance(x, depth=45):
    """Exact distance from a real to the middle-thirds Cantor set, via the
    self-similar split; both endpoint thirds belong to the set."""
    if x < 0.0:
        return -x
    if x > 1.0:
        return x - 1.0
    if depth == 0:
        return 0.0
    left = (x - 1.0 / 3.0) if x > 1.0 / 3.0 else cantor_distance(3.0 * x, depth - 1) / 3.0
    right = (2.0 / 3.0 - x) if x < 2.0 / 3.0 else cantor_distance(3.0 * x - 2.0, depth - 1) / 3.0
    return min(left, right)


class TestPointSet:
    def test_snaps_and_dedups(self):
        ps = PointSet([[0.30001], [0.29999], [0.1]], resolution=1e-3)
        assert len(ps) == 2
        assert np.allclose(sorted(ps.points[:, 0]), [0.1, 0.3])

    def test_canonical_order_independent(self):
        a = PointSet([[0.5, 0.1], [0.2, 0.9]], resolution=1e-3)
        b = PointSet([[0.2, 0.9], [0.5, 0.1]], resolution=1e-3)
        assert a == b

    def test_rejects_empty_and_bad_resolution(self):
        with pytest.raises(InputError):
            PointSet(np.empty((0, 1)), resolution=1e-3)
        with pytest.raises(InputError):
            PointSet([[0.0]], resolution=0.0)

    def test_min_spacing_after_snap(self):
        rng = np.random.default_rng(2)
        ps = PointSet(rng.uniform(0, 1, size=(500, 2)), resolution=0.05)
        diff = ps.points[:, None, :] - ps.points[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 0.05 / 2.0


class TestHutchinson:
    def test_cantor_first_iterate(self, unit_box):
        out = hutchinson(cantor_ifs(unit_box), PointSet([[0.0], [1.0]], DELTA))
        assert len(out) == 4
        assert np.allclose(
            out.points[:, 0], [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], atol=DELTA / 2
        )

    def test_constant_maps_collapse(self, plane_box):
        system = IFS(plane_box, (constant_map([0.5, 0.5]), constant_map([-0.5, 0.0])))
        seed = PointSet(np.random.default_rng(1).uniform(-1, 1, (50, 2)), 1e-3)
        out = hutchinson(system, seed)
        assert len(out) == 2

    def test_dyadic_grid_fixed(self, unit_box, ifs_s):
        pitch = 2.0**-10
        grid = PointSet(np.arange(0.0, 1.0 + pitch / 2, pitch)[:, None], pitch)
        out = hutchinson(ifs_s, grid)
        assert out == grid

    def test_rejects_points_outside_domain(self, unit_box):
        with pytest.raises(InputError):
            hutchinson(cantor_ifs(unit_box), PointSet([[2.0]], DELTA))

    def test_contraction_inequality_with_snap_slack(self):
        rng = np.random.default_rng(8)
        for dim in (1, 2):
            box = Box(np.zeros(dim), np.ones(dim))
            delta = 1e-4 if dim == 1 else 1e-3
            for _ in range(25):
                system = random_ifs(rng, box, 2)
                A = PointSet(rng.uniform(0, 1, (40, dim)), delta)
                B = PointSet(rng.uniform(0, 1, (40, dim)), delta)
                lhs = hausdorff(hutchinson(system, A), hutchinson(system, B))
                rhs = system.contractivity * hausdorff(A, B) + 2 * delta
                assert lhs <= rhs + 1e-12


class TestAttractorPoints:
    def test_depth_zero_returns_seed(self, unit_box):
        seed = PointSet([[0.0], [1.0]], DELTA)
        assert attractor_points(cantor_ifs(unit_box), 0, seed) == seed

    def test_depth_one_matches_hutchinson(self, unit_box):
        seed = PointSet([[0.0], [1.0]], DELTA)
        system = cantor_ifs(unit_box)
        assert attractor_points(system, 1, seed) == hutchinson(system, seed)

    def test_depth_8_count_for_disconnected_pieces(self, unit_box):
        # each of the 2^8 words contributes both seed images; all 512 distinct
        out = attractor_points(cantor_ifs(unit_box), 8, PointSet([[0.0], [1.0]], DELTA))
        assert len(out) == 2 * 2**8

    def test_depth_8_within_ternary_oracle(self, unit_box):
        out = attractor_points(cantor_ifs(unit_box), 8, PointSet([[0.0], [1.0]], DELTA))
        worst = max(cantor_distance(float(x)) for x in out.points[:, 0])
        assert worst <= 3.0**-8

    def test_approximate_fixed_point(self, unit_box):
        system = cantor_ifs(unit_box)
        render = attractor_points(system, 12, PointSet([[0.0], [1.0]], DELTA))
        assert hausdorff(hutchinson(system, render), render) <= 2 * DELTA

    def test_resource_cap(self, unit_box):
        system = IFS(
            unit_box, tuple(AffineMap([[0.2]], [0.1 * k]) for k in range(8))
        )
        with pytest.raises(ResourceLimitError):
            attractor_points(system, 9, PointSet([[0.0], [1.0]], 1e-9))


class TestChaosGame:
    def test_deterministic_per_seed(self, unit_box):
        system = cantor_ifs(unit_box)
        a = chaos_game(system, 500, burn_in=20, seed=9)
        b = chaos_game(system, 500, burn_in=20, seed=9)
        assert a == b

    def test_single_step_constant_map(self, unit_box):
        system = IFS(unit_box, (AffineMap([[0.0]], [0.25]),))
        out = chaos_game(system, 1, burn_in=0, seed=0)
        assert len(out) == 1
        assert out.points[0, 0] == pytest.approx(0.25, abs=DELTA)

    def test_matches_deterministic_render(self, unit_box):
        system = cantor_ifs(unit_box)
        render = attractor_points(system, 12, PointSet([[0.0], [1.0]], DELTA))
        cloud = chaos_game(system, 100_000, burn_in=50, seed=4)
        assert hausdorff(cloud, render) <= 2 * DELTA

    def test_rejects_bad_count(self, unit_box):
        with pytest.raises(InputError):
            chaos_game(cantor_ifs(unit_box), 0)


class TestHausdorff:
    def test_identity(self):
        ps = PointSet(np.random.default_rng(0).uniform(0, 1, (30, 2)), 1e-3)
        assert hausdorff(ps, ps) == 0.0

    def test_one_sided_asymmetry(self):
        a = PointSet([[0.0]], 1e-4)
        b = PointSet([[0.0], [1.0]], 1e-4)
        assert directed_distance(a, b) == 0.0
        assert directed_distance(b, a) == 1.0
        assert hausdorff(a, b) == 1.0

    def test_cantor_against_full_interval(self, unit_box):
        pitch = 3.0**-8
        render = attractor_points(cantor_ifs(unit_box), 8, PointSet([[0.0], [1.0]], pitch))
        grid = PointSet(np.arange(0.0, 1.0 + pitch / 2, pitch)[:, None], pitch)
        # the widest removed gap is (1/3, 2/3); its midpoint is 1/6 away
        assert hausdorff(render, grid) == pytest.approx(1.0 / 6.0, abs=2 * pitch)

    def test_metric_axioms_random_sets(self):
        rng = np.random.default_rng(17)
        for dim in (1, 2):
            for _ in range(40):
                sets = [
                    PointSet(rng.uniform(0, 1, (rng.integers(2, 30), dim)), 1e-3)
                    for _ in range(3)
                ]
                a, b, c = sets
                assert hausdorff(a, b) == hausdorff(b, a)
                assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12
                assert hausdorff(a, b) >= 0.0

    def test_accelerated_equals_brute_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for dim in (1, 2, 3):
            for _ in range(25):
                a = PointSet(rng.uniform(-1, 1, (rng.integers(1, 120), dim)), 1e-3)
                b = PointSet(rng.uniform(-1, 1, (rng.integers(1, 120), dim)), 1e-3)
                assert hausdorff(a, b) == hausdorff_brute(a, b)

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3]),
        pitch=st.sampled_from([0.05, 1.0 / 17.0, 0.1]),
        data=st.data(),
    )
    def test_lattice_ties_bit_for_bit(self, dim, pitch, data):
        # coarse integer lattices, one optionally half-shifted per axis: many
        # queries sit at equal distances from several points, up to rounding
        cells = st.lists(st.tuples(*[st.integers(-5, 5)] * dim), min_size=1, max_size=40)
        shift = np.array(data.draw(st.tuples(*[st.sampled_from([0.0, 0.5])] * dim)))
        a = PointSet(np.array(data.draw(cells), dtype=float) * pitch, pitch / 2)
        b = PointSet((np.array(data.draw(cells), dtype=float) + shift) * pitch, pitch / 2)
        assert hausdorff(a, b) == hausdorff_brute(a, b)
        # the square root can hide a last-place difference; compare squares
        assert _directed_sq(a.points, b.points, b.tree) == _min_sq_brute(a.points, b.points).max()

    def test_half_shifted_lattice_pair(self):
        # 2025 lattice points, each at the centre of a cell of 4489 shifted
        # ones: every nearest distance from the first set is a four-way tie
        pitch = 1.0 / 17.0

        def lattice(ticks):
            return np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2) * pitch

        a = PointSet(lattice(np.arange(45)), pitch / 2)
        b = PointSet(lattice(np.arange(-11, 56) + 0.5), pitch / 2)
        assert (len(a), len(b)) == (2025, 4489)
        assert hausdorff(a, b) == hausdorff_brute(a, b)
        for q, p in ((a, b), (b, a)):
            assert _directed_sq(q.points, p.points, p.tree) == _min_sq_brute(q.points, p.points).max()

    def test_far_apart_clusters(self):
        a = PointSet([[0.0, 0.0]], 1e-3)
        b = PointSet([[50.0, 50.0]], 1e-3)
        assert hausdorff(a, b) == hausdorff_brute(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            hausdorff(PointSet([[0.0]], 1e-3), PointSet([[0.0, 0.0]], 1e-3))


class TestCodePoint:
    def test_repeated_first_map(self, unit_box):
        system = cantor_ifs(unit_box)
        for k in (1, 3, 6):
            out = code_point(system, [0] * k, [1.0])
            assert out[0] == pytest.approx(3.0**-k, abs=1e-15)

    def test_empty_address(self, unit_box):
        out = code_point(cantor_ifs(unit_box), [], [0.4])
        assert out[0] == 0.4

    def test_same_address_contracts(self, unit_box):
        system = cantor_ifs(unit_box)
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            addr = rng.integers(0, 2, size=k).tolist()
            x, y = rng.uniform(0, 1, size=2)
            out_x = code_point(system, addr, [x])
            out_y = code_point(system, addr, [y])
            bound = system.contractivity**k * abs(x - y)
            assert abs(out_x[0] - out_y[0]) <= bound + 1e-12

    def test_prepend_stability(self, unit_box):
        # with the first symbol applied first, growing the address at the
        # front perturbs the output through k contractions
        system = cantor_ifs(unit_box)
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 10))
            addr = rng.integers(0, 2, size=k).tolist()
            new = int(rng.integers(0, 2))
            x = [float(rng.uniform(0, 1))]
            base = code_point(system, addr, x)
            extended = code_point(system, [new] + addr, x)
            bound = system.contractivity**k * unit_box.diameter
            assert abs(extended[0] - base[0]) <= bound + 1e-12

    def test_bad_symbol(self, unit_box):
        with pytest.raises(InputError):
            code_point(cantor_ifs(unit_box), [2], [0.0])


class TestConvergenceReport:
    def test_cantor_sequence(self, unit_box):
        seq = IFSSequence(tuple(cantor_term(j, unit_box) for j in range(1, 11)))
        report = attractor_convergence_report(seq, cantor_ifs(unit_box), depth=10, resolution=DELTA)
        for j, dist in enumerate(report.distances, start=1):
            assert dist <= 1.0 / (2.0 * j) + report.error_bound
        assert all(a > b for a, b in zip(report.distances, report.distances[1:]))

    def test_constant_sequence(self, unit_box):
        system = cantor_ifs(unit_box)
        seq = IFSSequence((system, system, system))
        report = attractor_convergence_report(seq, system, depth=10, resolution=DELTA)
        assert all(d <= report.error_bound for d in report.distances)

    def test_gap_structure_along_sequence(self, unit_box):
        # term 1 is just touching at the box level; later terms render with a
        # strictly positive gap between the two pieces
        term1 = cantor_term(1, unit_box)
        f1, f2 = term1.maps
        assert f1.transform(unit_box.vertices()).max() == pytest.approx(
            f2.transform(unit_box.vertices()).min(), abs=1e-15
        )
        for j in (2, 3, 5):
            term = cantor_term(j, unit_box)
            render = attractor_points(term, 10, box_seed(unit_box, DELTA))
            piece1 = PointSet(term.maps[0].transform(render.points), DELTA)
            piece2 = PointSet(term.maps[1].transform(render.points), DELTA)
            gap = piece2.points[:, 0].min() - piece1.points[:, 0].max()
            assert gap > 0.0
