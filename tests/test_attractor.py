import math
import tracemalloc
import warnings
from unittest import mock

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
    default_resolution,
    directed_distance,
    hausdorff,
    hausdorff_brute,
    hutchinson,
    minimal_order,
    sup_distance,
)
from ifsseq import attractor
from ifsseq.attractor import _directed_sq, _min_sq_brute, _snap

from conftest import cantor_ifs, cantor_term, constant_map, exact_hausdorff, random_ifs

DELTA = 1e-4


def hutchinson_reference(S, B):
    """The Hutchinson step as one stack of each map's images: hutchinson
    must store the same rows bit for bit."""
    return PointSet(np.vstack([m.transform(B.points) for m in S.maps]), B.resolution)


def lattice_path_rows(points, pitch):
    """_lattice_rows on points, after checking that each column's extreme
    ticks lie inside the key's limits, so that it takes the lattice path."""
    lo = [np.rint(column.min() / pitch) for column in points.T]
    hi = [np.rint(column.max() / pitch) for column in points.T]
    assert max(map(abs, lo + hi)) < attractor._TICK_LIMIT
    assert math.prod(int(h - l) + 1 for l, h in zip(lo, hi)) < attractor._KEY_LIMIT
    rows = attractor._lattice_rows(points, pitch)
    assert rows is not None
    return rows


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

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3]),
        pitch=st.sampled_from([1e-3, 0.05, 1.0 / 17.0, 0.1]),
        offset=st.sampled_from([0.0, -3.0, 1.7e13]),
        layout=st.sampled_from(["C", "F", "sliced"]),
        data=st.data(),
    )
    def test_equals_unique_of_snap(self, dim, pitch, offset, layout, data):
        # a few lattice ticks per axis, jittered by up to 0.6 pitch, so many
        # rows share a grid point and some sit on a rounding boundary; near
        # 1.7e13 the doubles are coarser than the 1e-3 grid
        ticks = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * dim), min_size=1, max_size=60))
        jitter = data.draw(
            st.lists(st.floats(-0.6, 0.6), min_size=len(ticks) * dim, max_size=len(ticks) * dim)
        )
        points = offset + (np.array(ticks, dtype=float) + np.reshape(jitter, (-1, dim))) * pitch
        if layout == "F":
            points = np.asfortranarray(points)
        elif layout == "sliced":
            wide = np.full((2 * len(ticks), 2 * dim), np.nan)
            wide[::2, ::2] = points
            points = wide[::2, ::2]
        before = points.copy()
        stored = PointSet(points, pitch).points
        assert points.tobytes() == before.tobytes()  # the caller's array is untouched
        # the oracle keeps whichever of -0.0 and 0.0 its sort met first;
        # adding 0.0 takes that choice out (test_zero_is_stored_positive)
        oracle = np.unique(_snap(before, pitch) + 0.0, axis=0)
        assert stored.shape == oracle.shape
        assert stored.tobytes() == oracle.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        pitch=st.sampled_from([1e-3, 1.0 / 17.0, 1.0, 2.0**-30]),
        limit=st.sampled_from(["tick", "span"]),
        step=st.integers(-3, 3),
        sign=st.sampled_from([1, -1]),
        data=st.data(),
    )
    def test_equals_unique_of_snap_at_the_key_limits(self, dim, pitch, limit, step, sign, data):
        # "tick": one column's largest |round(x/delta)| is 2^51 + step (up to
        # the rounding of x/delta); "span": the column spans multiply to 2^53
        # plus step times the product of all spans but the last.  Either way
        # step < 0 falls below the lattice key's limit and step >= 0 at or
        # above it, where the value sort takes over.
        n = data.draw(st.integers(3, 40))
        draws = st.lists(st.integers(0, 2**62), min_size=n * dim, max_size=n * dim)
        ticks = np.reshape(data.draw(draws), (n, dim)).astype(float)
        if limit == "tick":
            column = data.draw(st.integers(0, dim - 1))
            ticks %= 9.0
            ticks[0, column] = 0.0
            ticks[:, column] = sign * (2.0**51 + step - ticks[:, column])
        else:
            spans = np.array([2.0**26, 2.0**27 + step] if dim == 2 else [2.0**17, 2.0**18, 2.0**18 + step])
            ticks = ticks % (spans - 2.0) + 1.0  # strictly inside each column's span
            ticks[0], ticks[1] = 0.0, spans - 1.0
            ticks += sign * data.draw(st.integers(0, 2**20))
        # rows 0 and 1 stay on the lattice, so they fix the largest tick and the spans
        jitter = np.zeros((n, dim))
        jitter[2:] = np.reshape(
            data.draw(st.lists(st.floats(-0.45, 0.45), min_size=(n - 2) * dim, max_size=(n - 2) * dim)),
            (n - 2, dim),
        )
        points = (ticks + jitter) * pitch
        oracle = np.unique(_snap(points, pitch) + 0.0, axis=0)
        assert PointSet(points, pitch).points.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize(
        "points, lattice",
        [
            # largest |round(x/delta)| one below 2^51, then at it
            ([[2.0**51 - 1, 0.0], [2.0**51 - 3, 1.0]], True),
            ([[2.0**51, 0.0], [2.0**51 - 2, 1.0]], False),
            ([[-(2.0**51) + 1, 0.0, 1.0], [-5.0, 1.0, 0.0]], True),
            ([[-(2.0**51), 0.0, 1.0], [-5.0, 1.0, 0.0]], False),
            # spans 6361 * 69431 * 20394401 = 2^53 - 1, then 2^26 * 2^27
            ([[0.0, 0.0, 0.0], [6360.0, 69430.0, 20394400.0], [17.0, 5.0, 3.0]], True),
            ([[0.0, 0.0], [2.0**26 - 1, 2.0**27 - 1], [5.0, 7.0]], False),
        ],
    )
    def test_key_limits_pick_the_path(self, monkeypatch, points, lattice):
        calls = []
        value_rows = attractor._value_rows
        monkeypatch.setattr(attractor, "_value_rows", lambda *args: calls.append(1) or value_rows(*args))
        stored = PointSet(points, 1.0).points
        assert calls == ([] if lattice else [1])
        assert stored.tobytes() == np.unique(np.asarray(points) + 0.0, axis=0).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3]),
        pitch=st.sampled_from([1e-3, 1.0 / 17.0, 1.0, 2.0**-30]),
        side=st.sampled_from(["dense", "boundary", "over", "sparse"]),
        data=st.data(),
    )
    def test_equals_unique_of_snap_on_both_sides_of_the_density_rule(self, dim, pitch, side, data):
        # the key has exactly `cells` cells: rows 0 and 1 fix each column's
        # lowest and highest tick, at most _DENSE_CELLS_PER_ROW per row
        # ("dense"), exactly that many ("boundary"), one more ("over") or
        # far more ("sparse"); ticks reach below zero, and a zero tick is
        # drawn as a point that rounds to -0.0
        n = data.draw(st.integers(2, 60))
        limit = attractor._DENSE_CELLS_PER_ROW * n
        cells = {
            "dense": data.draw(st.integers(1, limit)),
            "boundary": limit,
            "over": limit + 1,
            "sparse": data.draw(st.integers(limit + 2, 10**9)),
        }[side]
        spans = []
        for _ in range(dim - 1):  # each span divides what the columns before it leave
            rest = cells // math.prod(spans)
            spans.append(data.draw(st.sampled_from([k for k in range(1, min(rest, 10**4) + 1) if rest % k == 0])))
        spans.append(cells // math.prod(spans))
        spans = np.array(spans)
        low = np.array(data.draw(st.lists(st.integers(-40, 3), min_size=dim, max_size=dim)))
        draws = st.lists(st.integers(0, 2**62), min_size=n * dim, max_size=n * dim)
        ticks = low + np.reshape(data.draw(draws), (n, dim)) % spans
        ticks[0], ticks[1] = low, low + spans - 1
        jitter = np.reshape(data.draw(st.lists(st.floats(-0.45, 0.45), min_size=n * dim, max_size=n * dim)), (n, dim))
        jitter[:2] = 0.0
        jitter[ticks == 0] = -0.3
        points = (ticks + jitter) * pitch
        assert math.prod(int(k) for k in np.ptp(np.rint(points / pitch), axis=0) + 1) == cells
        oracle = np.unique(_snap(points, pitch) + 0.0, axis=0)
        with mock.patch.object(attractor, "_occupied_cells", wraps=attractor._occupied_cells) as dense:
            stored = PointSet(points, pitch).points
        assert dense.called == (side in ("dense", "boundary"))
        assert stored.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize(
        "points, dense",
        [
            # cells against _DENSE_CELLS_PER_ROW times the rows: 8 of 8, then 9
            ([[-7.0], [0.0]], True),
            ([[-8.0], [0.0]], False),
            # spans 3 * 4 = 12 of 12, then 3 * 5 = 15
            ([[0.0, 0.0], [2.0, 3.0], [1.0, 1.0]], True),
            ([[0.0, 0.0], [2.0, 4.0], [1.0, 1.0]], False),
            # spans 2 * 2 * 2 = 8 of 8, then 2 * 2 * 3 = 12
            ([[0.0, 0.0, 0.0], [1.0, -1.0, 1.0]], True),
            ([[0.0, 0.0, 0.0], [1.0, -1.0, 2.0]], False),
        ],
    )
    def test_density_rule_picks_the_path(self, monkeypatch, points, dense):
        calls = []
        occupied_cells = attractor._occupied_cells
        monkeypatch.setattr(attractor, "_occupied_cells", lambda *args: calls.append(1) or occupied_cells(*args))
        monkeypatch.setattr(attractor, "_value_rows", lambda *args: pytest.fail("the value sort ran"))
        stored = PointSet(points, 1.0).points
        assert calls == ([1] if dense else [])
        assert stored.tobytes() == np.unique(np.asarray(points) + 0.0, axis=0).tobytes()

    def test_peak_memory_stays_near_the_input(self):
        # the images of a depth-9 Sierpinski render at delta 1e-3, a
        # render-sized input: PointSet holds one key and one work column
        # beside it, no snapped (N, d) copy and no sort index
        box = Box(np.zeros(2), np.ones(2))
        corners = ([0.0, 0.0], [0.5, 0.0], [0.25, 0.5])
        system = IFS(box, tuple(AffineMap(0.5 * np.eye(2), np.array(b)) for b in corners))
        render = attractor_points(system, 9, resolution=1e-3)
        images = np.vstack([m.transform(render.points) for m in system.maps])
        assert images.shape[0] >= 150_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            PointSet(images, 1e-3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * images.nbytes

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(["span", "negative", "zero", "line"]),
        dim=st.sampled_from([2, 3]),
        pitch=st.sampled_from([1.0, 1e-3, 1.0 / 17.0, 2.0**-30]),
        data=st.data(),
    )
    def test_integer_decode_at_the_key_limits(self, case, dim, pitch, data):
        # the int64 decode against the value sort on the lattice path's edge:
        # "span": column spans multiplying to just below 2^53 (the last one
        # 1-3 below its limit), "negative": the same sets shifted to negative
        # ticks, "zero": ticks 0..1 where every column's lowest tick rounds
        # to -0.0, "line": d = 1, where no digit is peeled off
        if case == "line":
            dim = 1
        n = data.draw(st.integers(3, 30))
        if case in ("span", "negative"):
            short = data.draw(st.integers(1, 3))
            spans = np.array([2.0**26, 2.0**27 - short] if dim == 2 else [6361.0, 69431.0, 20394401.0 - short])
            assert math.prod(spans) < attractor._KEY_LIMIT
            draws = st.lists(st.integers(0, 2**62), min_size=n * dim, max_size=n * dim)
            ticks = np.reshape(data.draw(draws), (n, dim)) % (spans - 2.0) + 1.0
            ticks[0], ticks[1] = 0.0, spans - 1.0
            if case == "negative":
                ticks -= data.draw(st.integers(1, 2**40)) + spans
        else:
            low, high = (-(2**50), 2**50) if case == "line" else (0, 1)
            draws = st.lists(st.integers(low, high), min_size=n * dim, max_size=n * dim)
            ticks = np.reshape(data.draw(draws), (n, dim)).astype(float)
        # rows 0 and 1 stay on the lattice, so they fix the spans
        jitter = np.zeros((n, dim))
        jitter[2:] = np.reshape(
            data.draw(st.lists(st.floats(-0.45, 0.45), min_size=(n - 2) * dim, max_size=(n - 2) * dim)),
            (n - 2, dim),
        )
        if case == "zero":
            ticks[2], jitter[2] = 0.0, -0.3
        points = (ticks + jitter) * pitch
        oracle = np.unique(_snap(points, pitch) + 0.0, axis=0)
        assert lattice_path_rows(points, pitch).tobytes() == oracle.tobytes()

    def test_zero_is_stored_positive(self):
        # -1e-5 rounds to -0.0 and 1e-5 to 0.0 at pitch 1e-3: input order
        # must not pick the stored sign
        forward = PointSet([[-1e-5, 0.5], [1e-5, 0.5]], 1e-3)
        backward = PointSet([[1e-5, 0.5], [-1e-5, 0.5]], 1e-3)
        assert forward.points.tobytes() == backward.points.tobytes()
        assert not np.signbit(forward.points).any()
        for dim in (1, 3):
            assert not np.signbit(PointSet(np.full((1, dim), -1e-5), 1e-3).points).any()

    @pytest.mark.parametrize("value, pitch", [(1.7e308, 1e-3), (-1.7e308, 1e-3), (1.7e308, 1e308)])
    def test_rejects_overflow_when_snapped(self, value, pitch):
        # 1.7e308 / 1e-3 overflows in the division; 1.7e308 at pitch 1e308
        # rounds to 2 * 1e308, which overflows in the product
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="overflow"):
                PointSet([[0.5], [value]], pitch)


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

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 3),
        n=st.integers(1, 4),
        size=st.sampled_from([1, 1, 2, 7]),
        pitch=st.sampled_from([1e-3, 0.05, 2.0**-10]),
        data=st.data(),
    )
    def test_equals_the_stacked_reference(self, dim, n, size, pitch, data):
        # each map's images written into its block of one array, against the
        # stack of `P @ A.T + b` per map: the images bit for bit, then the
        # stored rows.  Two faster forms are not bit for bit with it:
        # P @ np.ascontiguousarray(A.T), 4x faster, differs from P @ A.T on
        # single-row inputs (2 of 600 random cases in one count; 567 of 3,000
        # cases of 1-3 rows in another, every one single-row, d = 2, 3), and
        # the column sums x0*a00 + x1*a01 differ from BLAS (168 of 300 cases;
        # 300 of 300 sets of 500 rows), as OpenBLAS uses FMA.  So the product
        # stays on the A.T view, and |B| = 1 is drawn half the time.
        # Entries of A up to 0.3 keep each map a contraction of [-4, 4]^d.
        entry = st.one_of(st.sampled_from([0.0, -0.0, -0.25]), st.floats(-0.3, 0.3))
        shift = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.4, 0.4))
        maps = tuple(
            AffineMap(
                np.reshape(data.draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)), (dim, dim)),
                data.draw(st.lists(shift, min_size=dim, max_size=dim)),
            )
            for _ in range(n)
        )
        system = IFS(Box(np.full(dim, -4.0), np.full(dim, 4.0)), maps)
        coordinate = st.floats(-4.0, 4.0)
        B = PointSet(
            np.reshape(data.draw(st.lists(coordinate, min_size=size * dim, max_size=size * dim)), (size, dim)),
            pitch,
        )
        images = np.empty((n, len(B), dim))
        for m, block in zip(maps, images):
            assert m.transform(B.points, out=block) is block
        assert images.tobytes() == np.vstack([B.points @ m.A.T + m.b for m in maps]).tobytes()
        assert hutchinson(system, B).points.tobytes() == hutchinson_reference(system, B).points.tobytes()


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

    def test_resolution_must_agree_with_the_seed(self, unit_box):
        # the render lies on the seed's lattice, so a resolution given with
        # a seed is refused unless it is the seed's pitch
        system, seed = cantor_ifs(unit_box), box_seed(unit_box, 1e-3)
        with pytest.raises(InputError, match="^resolution 0.0001 contradicts the seed's pitch 0.001$"):
            attractor_points(system, 3, seed=seed, resolution=1e-4)
        assert attractor_points(system, 3, seed=seed, resolution=1e-3) == attractor_points(system, 3, seed)


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


class TestAttractorContinuity:
    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        mix=st.sampled_from([0.0, 0.01, 0.1, 1.0]),
        data=st.data(),
    )
    def test_attractors_lie_within_the_matched_sup_distance(self, dim, n, seed, mix, data):
        """h(A_S, A_T) <= max_i sup||f_i - g_sigma(i)|| / (1 - min(t_S, t_T))
        over the minimal ordering sigma.  Each render at depth k and pitch
        delta lies within t^k/(1 - t) h(seed, W(seed)) + delta sqrt(d)/(2(1 - t))
        of its attractor, so the renders add both slacks.  T mixes S's maps,
        shuffled, with another system's by the weight `mix`."""
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1.0, 1.0, dim)
        box = Box(lo, lo + rng.uniform(0.5, 2.0, dim))
        S, other = random_ifs(rng, box, n, smax=0.5), random_ifs(rng, box, n, smax=0.5)
        T = IFS(box, tuple(
            AffineMap((1 - mix) * S.maps[i].A + mix * other.maps[i].A, (1 - mix) * S.maps[i].b + mix * other.maps[i].b)
            for i in data.draw(st.permutations(range(n)))
        ))
        aligned, _ = minimal_order(S, T)
        sup = max(sup_distance(f, g, box) for f, g in zip(S.maps, aligned.maps))
        bound = sup / (1.0 - min(S.contractivity, T.contractivity))
        depth, delta = 8, default_resolution(dim)
        start = box_seed(box, delta)
        slack, renders = 0.0, []
        for system in (S, T):
            t = system.contractivity
            images = np.vstack([f.transform(start.points) for f in system.maps])
            slack += t**depth / (1.0 - t) * exact_hausdorff(start.points, images)
            slack += delta * math.sqrt(dim) / (2.0 * (1.0 - t))
            renders.append(attractor_points(system, depth, start))
        assert hausdorff(*renders) <= bound + slack + 1e-12
