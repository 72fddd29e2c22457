import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsseq import (
    IFS,
    AffineMap,
    Box,
    IFSSequence,
    InputError,
    PointSet,
    PreconditionError,
    ResourceLimitError,
    attractor_points,
    big_d,
    box_seed,
    hausdorff,
    hausdorff_brute,
    hutchinson,
    minimal_order,
    spectral_norm,
)
from ifsseq import attractor, collage
from ifsseq.collage import (
    ExtrapolationModel,
    FitConfig,
    FitResult,
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


def reference_descend(target, box, cfg, maps0):
    """The descent as it was before per-map caching: every candidate
    re-projects every map and is scored on the whole system, here by the
    brute Hausdorff distance of its Hutchinson image."""
    n, d = cfg.n, target.dim
    step0 = collage.INITIAL_STEP * box.diameter
    if step0 <= 0.0:
        step0 = 0.1
    stop_step = max(step0 * 1e-6, 1e-12)

    def project(params):
        return [collage._project(p[:-d].reshape(d, d), p[-d:], box, cfg.s_max) for p in params.reshape(n, -1)]

    def pack(maps):
        return np.concatenate([np.concatenate([A.ravel(), b]) for A, b in maps])

    def score(maps):
        system = IFS(box, tuple(AffineMap(A, b) for A, b in maps))
        return hausdorff_brute(target, hutchinson(system, target))

    params = pack(project(pack([(m.A, m.b) for m in maps0])))
    best = score(project(params))
    history = [best]
    step = step0
    for _ in range(cfg.max_iters):
        if best == 0.0:
            break
        improved = False
        for trial in collage._candidate_moves(params, n, d, box, step):
            trial_maps = project(trial)
            value = score(trial_maps)
            if value < best:
                best = value
                params = pack(trial_maps)
                history.append(best)
                improved = True
                break
        if not improved:
            step *= collage.STEP_DECAY
            if step < stop_step:
                break
    return tuple(AffineMap(A, b) for A, b in project(params)), best, history


class TestPerMapKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 4),
        flat=st.booleans(),
        lattice=st.sampled_from([4, 8, 64]),
        overhang=st.booleans(),
        source=st.sampled_from(["field", "scan", "sparse"]),
    )
    def test_one_map_moves_combine_to_the_brute_value(self, seed, dim, n, flat, lattice, overhang, source):
        # targets on a coarse sublattice of the pitch make exact distance
        # ties; a moved map is re-scored alone and combined with the shares
        # of the maps that stayed.  On the line out_sq comes from the fit's
        # tick field, from the sorted scan (no field), or from the scan of a
        # target too sparse for the field's size rule.  With overhang the
        # target reaches half a pitch outside the box on every side
        rng = np.random.default_rng(seed)
        extent = np.ones(dim)
        if flat:
            extent[rng.integers(dim)] = 0.0
        pitch = 1.0 / 1024 if source == "sparse" else 1.0 / 64
        inset = pitch / 2.0 if overhang else 0.0
        box = Box(inset * extent, (1.0 - inset) * extent)
        target = PointSet(rng.integers(0, lattice + 1, (rng.integers(1, 40), dim)) * extent / lattice, pitch)
        if source == "field":
            with mock.patch.object(collage, "FIELD_TICKS_PER_POINT", math.inf):
                field = collage._tick_field(target, box)
            assert (field is None) == (dim > 1)
        else:  # a flat line is one point, which a sparse target still covers
            field = collage._tick_field(target, box) if source == "sparse" else None
            assert field is None or flat

        def draw(A, b):
            if dim == 1:  # slopes negative, -0.0, 0.0 and positive
                A = np.array([[(-rng.uniform(0.05, 0.9), -0.0, 0.0, rng.uniform(0.05, 0.9))[rng.integers(4)]]])
            if rng.random() < 0.5:  # fix a corner of the box, so the images reach its edge
                corner = (box.lo, box.hi)[rng.integers(2)]
                b = corner - A @ corner
            return project_map(A, b, box, 0.9)

        def brute(maps):
            return hausdorff_brute(target, hutchinson(IFS(box, tuple(maps)), target))

        maps = [draw(rng.standard_normal((dim, dim)), rng.uniform(0.0, 1.0, dim) * extent) for _ in range(n)]
        shares = [collage._Share(target, m.A, m.b, field) for m in maps]
        incumbent = brute(maps)
        assert collage._score(target, shares) == incumbent
        for _ in range(3):
            j = rng.integers(n)
            maps[j] = draw(maps[j].A + rng.normal(0.0, 0.1, (dim, dim)), maps[j].b + rng.normal(0.0, 0.1, dim))
            shares[j] = collage._Share(target, maps[j].A, maps[j].b, field)
            value, exact = collage._score(target, shares, incumbent), brute(maps)
            # scored against the incumbent, as the descent does: exact below
            # it, and at or above it a stand-in that rejects all the same
            assert value == exact if exact < incumbent else incumbent <= value <= exact
            assert collage._score(target, shares) == exact
            incumbent = exact

    def test_descent_projects_each_moved_block_once(self, monkeypatch):
        # no re-projection of the starts, of the incumbent or of the result
        box = Box([0.0, 0.0], [1.0, 1.0])
        truth = IFS(box, tuple(AffineMap(0.5 * np.eye(2), b) for b in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5])))
        target = attractor_points(truth, 4, box_seed(box, 1 / 16))
        cfg = FitConfig(n=3, max_iters=12, s_max=0.9, seed=0)
        maps0 = collage._random_maps(target, box, cfg, np.random.default_rng(3))
        moved, projected = [], []
        candidate_moves, project = collage._candidate_moves, collage._project

        def counted_moves(params, n, d, box, step):
            for trial in candidate_moves(params, n, d, box, step):
                changed = trial.view(np.int64) != params.view(np.int64)
                moved.append(int(changed.reshape(n, -1).any(axis=1).sum()))
                yield trial

        def counted_project(*args):
            projected.append(1)
            return project(*args)

        monkeypatch.setattr(collage, "_candidate_moves", counted_moves)
        monkeypatch.setattr(collage, "_project", counted_project)
        _, _, history = collage._descend(target, box, cfg, maps0, None)
        assert len(history) > 1 and len(projected) == sum(moved)

    def test_line_descent_scans_only_for_near(self, monkeypatch):
        # with the fit's tick field every out_sq is a gather: the sorted scan
        # runs only where a share's per-point distances are taken
        box = Box([0.0], [1.0])
        truth = IFS(box, (AffineMap([[1 / 3]], [0.0]), AffineMap([[1 / 3]], [2 / 3])))
        target = attractor_points(truth, 6, box_seed(box, 1e-3))
        cfg = FitConfig(n=2, max_iters=12, s_max=0.9, seed=0)
        field = collage._tick_field(target, box)
        maps0 = collage._random_maps(target, box, cfg, np.random.default_rng(3))
        assert field is not None
        scans, nears = [], []
        scan, near = attractor._min_sq_sorted_1d, collage._Share.near

        def counted_scan(queries, points):
            scans.append(queries is target.points)
            return scan(queries, points)

        def counted_near(share):
            nears.append(share._near is None)
            return near.fget(share)

        for module in (attractor, collage):
            monkeypatch.setattr(module, "_min_sq_sorted_1d", counted_scan)
        monkeypatch.setattr(collage._Share, "near", property(counted_near))
        _, _, history = collage._descend(target, box, cfg, maps0, field)
        assert len(history) > 1 and all(scans) and len(scans) == sum(nears) > 0

    @pytest.mark.parametrize(
        "case, start",
        [(case, start) for case in ("cantor", "reversed", "sierpinski") for start in ("warm", "random")]
        + [("raster", "tiles"), ("raster", "random")],
    )
    def test_descent_matches_the_full_rescoring_reference(self, case, start):
        rng = np.random.default_rng(3)
        if case in ("cantor", "reversed"):
            box = Box([0.0], [1.0])
            slope = 1.0 / 3.0 if case == "cantor" else -1.0 / 3.0
            truth = IFS(box, (AffineMap([[slope]], [0.5 - slope / 2 - 1 / 3]), AffineMap([[1 / 3]], [2 / 3])))
            target = attractor_points(truth, 5, box_seed(box, 1e-3))
        elif case == "sierpinski":
            box = Box([0.0, 0.0], [1.0, 1.0])
            truth = IFS(box, tuple(AffineMap(0.5 * np.eye(2), b) for b in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5])))
            target = attractor_points(truth, 4, box_seed(box, 1 / 16))
        else:
            truth = None
            target = raster_to_points(rng.random((10, 10)) < 0.3, 0.1)
            box = Box(target.points.min(axis=0), target.points.max(axis=0))
        cfg = FitConfig(n=3 if case == "sierpinski" else 2, max_iters=12, s_max=0.9, seed=0)
        if start == "warm":
            maps0 = tuple(
                project_map(m.A + rng.normal(0.0, 0.05, m.A.shape), m.b + rng.normal(0.0, 0.05, m.b.shape), box, 0.9)
                for m in truth.maps
            )
        elif start == "tiles":
            maps0 = collage._heuristic_maps(target, box, cfg)
        else:
            maps0 = collage._random_maps(target, box, cfg, rng)
        maps, value, history = collage._descend(target, box, cfg, maps0, collage._tick_field(target, box))
        ref_maps, ref_value, ref_history = reference_descend(target, box, cfg, maps0)
        assert value == ref_value and history == ref_history
        for m, ref in zip(maps, ref_maps, strict=True):
            assert m.A.tobytes() == ref.A.tobytes() and m.b.tobytes() == ref.b.tobytes()
        assert len(history) > 1 or value == 0.0  # the search moved


class TestTickField:
    @settings(max_examples=500, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pitch=st.sampled_from([1.0, 1.0 / 3.0, 1.0 / 64.0, 1e-3, 1e-7, 1e-11]),
        start=st.integers(-(10**6), 10**6),
        span=st.integers(0, 200),
        offsets=st.tuples(*[st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 1.0))] * 2),
        s_max=st.sampled_from([0.5, 0.9, 0.95, 0.999]),
        slope=st.sampled_from(["s_max", "-s_max", "random", "-random", "0.0", "-0.0"]),
        edge=st.sampled_from(["lo", "hi", "free"]),
    )
    def test_projected_images_stay_inside_the_field(self, seed, pitch, start, span, offsets, s_max, slope, edge):
        # box bounds on the lattice, on a half tick (a rounding tie) and off
        # it; the target's extreme points lie as far outside the box as
        # fit_ifs accepts, and the map pins an image to either box edge
        rng = np.random.default_rng(seed)
        lo = (start + offsets[0]) * pitch
        box = Box([lo], [max(lo, (start + span + offsets[1]) * pitch)])
        tol = pitch / 2.0 + 1e-9
        ticks = np.arange(math.ceil((box.lo[0] - tol) / pitch) - 1, math.floor((box.hi[0] + tol) / pitch) + 2)
        ticks = ticks[[box.contains([[k * pitch]], tol=tol) for k in ticks]]
        inner = rng.choice(ticks, min(ticks.size, 30), replace=False)
        target = PointSet(np.concatenate([ticks[[0, -1]], inner])[:, None] * pitch, pitch)
        assert box.contains(target.points, tol=tol)
        with mock.patch.object(collage, "FIELD_TICKS_PER_POINT", math.inf):
            k0, sq = collage._tick_field(target, box)

        a = {"s_max": s_max, "random": rng.uniform(0.0, s_max), "0.0": 0.0}[slope.lstrip("-")]
        a = -a if slope.startswith("-") else a
        pinned = {"lo": (box.lo[0], box.hi[0]), "hi": (box.hi[0], box.lo[0]), "free": None}[edge]
        if pinned is None:
            b = rng.uniform(-2.0, 2.0) * (box.hi[0] - box.lo[0] + pitch) + box.lo[0]
        else:  # the end of the box that x -> ax + b sends onto the edge
            image, end = pinned if a >= 0.0 else pinned[::-1]
            b = image - a * end
        A, b = collage._project(np.array([[a]]), np.array([b]), box, s_max)
        share = collage._Share(target, A, b, (k0, sq))
        assert share.out_sq == collage._Share(target, A, b).out_sq
        images = np.rint((target.points[:, 0] * A[0, 0] + b[0]) / pitch)
        low, high = images.min(), images.max()
        assert k0 <= low and high <= k0 + sq.size - 1
        # the tightest field gives the same value; shifted a tick either way it
        # misses the lowest or the highest tick, and raises instead of wrapping
        tight = sq[int(low - k0) : int(high - k0) + 1]
        assert collage._Share(target, A, b, (low, tight)).out_sq == share.out_sq
        for k in (low + 1.0, low - 1.0):
            with pytest.raises(IndexError):
                collage._Share(target, A, b, (k, tight))


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
        try:
            A1, b1 = collage._project(A, b, box, s_max)
        except PreconditionError:  # A too large to shrink onto a thin axis
            assume(False)
        assert np.linalg.svd(A1)[1][0] <= s_max
        A2, b2 = collage._project(A1, b1, box, s_max)
        assert A2.tobytes() == A1.tobytes() and b2.tobytes() == b1.tobytes()

    def test_map_that_walked_an_ulp_per_projection(self):
        # met in the collage-fit-descent recording: LAPACK puts this map's
        # norm three ulps above s_max, and clamping it again lowered A[0, 1]
        # by one ulp at every projection
        A = np.array([[0.0, float.fromhex("0x1.40b5485c9748dp-9")], [0.0, float.fromhex("0x1.e665fcab96fe9p-1")]])
        b = np.array([0.0625, 0.0031251969369636076])
        box = Box([0.0625, 0.0625], [0.9375, 0.9375])
        A1, b1 = collage._project(A, b, box, 0.95)
        assert np.linalg.svd(A1)[1][0] <= 0.95
        A2, b2 = collage._project(A1, b1, box, 0.95)
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
        m = project_map(A, b, box, s_max)
        assert m.contractivity <= s_max + 1e-12
        IFS(box, (m,))  # contraction sending the box into itself


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

    def test_exact_collage_ends_the_search(self, monkeypatch):
        # the Sierpinski maps reproduce their render on the 1/32 lattice, so
        # no candidate and no later restart can score below the warm start
        box = Box([0.0, 0.0], [1.0, 1.0])
        maps = tuple(AffineMap(0.5 * np.eye(2), b) for b in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5]))
        target = attractor_points(IFS(box, maps), 8, box_seed(box, 1 / 32))
        scored = []
        kernel = collage._score  # every candidate and every baseline is scored here
        monkeypatch.setattr(collage, "_score", lambda *args: scored.append(1) or kernel(*args))
        cfg = FitConfig(n=3, restarts=3, max_iters=200)
        assert fit_ifs(target, cfg, init_maps=maps) == FitResult(IFS(box, maps), 0.0, (0.0,))
        assert len(scored) <= cfg.restarts + 1

    def test_point_cap_is_checked_before_any_descent(self, monkeypatch, cantor_render):
        monkeypatch.setattr(attractor, "POINT_CAP", 2 * len(cantor_render) - 1)
        monkeypatch.setattr(collage, "_descend", lambda *args: pytest.fail("a descent ran"))
        with pytest.raises(ResourceLimitError, match="raise the resolution"):
            fit_ifs(cantor_render, FitConfig(n=2))


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
        with pytest.raises(InputError, match="seed must be nonnegative"):
            FitConfig(n=1, seed=-1)

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
