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


def candidate_moves_reference(params, n, d, box, step):
    """The descent's trials as a generator, one copy of params per move, as
    they were before a sweep became one array."""
    per = d * d + d
    center = box.center
    for sign in (1.0, -1.0):
        delta = sign * step
        for idx in range(params.size):
            trial = params.copy()
            trial[idx] += delta
            yield trial
        for i in range(n):
            base = i * per
            for r in range(d):
                for c in range(d):
                    trial = params.copy()
                    trial[base + r * d + c] += delta
                    trial[base + d * d + r] -= delta * center[c]
                    yield trial
        for r in range(d):
            for c in range(d):
                trial = params.copy()
                for i in range(n):
                    base = i * per
                    A = params[base : base + d * d].reshape(d, d)
                    b = params[base + d * d : base + per]
                    own_center = A @ center + b
                    trial[base + r * d + c] += delta
                    trial[base + d * d + r] -= delta * own_center[c]
                yield trial


def project_reference(A, b, box, s_max):
    """One map's projection as it was before the projection took stacks: it
    raises where the stacked projection returns NaN."""

    def svd_above(A):  # LAPACK's SVD when its norm exceeds s_max; the closed form screens d <= 2
        if A.shape[0] > 2 or spectral_norm(A) > s_max * (1.0 - 1e-12):
            u, s, vt = np.linalg.svd(A)
            return (u, s, vt) if s[0] > s_max else None
        return None

    extent = box.hi - box.lo
    usv, flat = svd_above(A), extent.any() and not extent.all()  # constant on flat axes, unless all are
    if usv:
        A = usv[0] @ np.diag(np.minimum(usv[1], s_max)) @ usv[2]
    if flat:
        A = np.where((extent > 0)[:, None], A, 0.0)
    while (usv or flat) and svd_above(A):  # clamping or zeroing can leave LAPACK's norm ulps over s_max
        A = np.nextafter(A, 0.0)
    shrinks, seen = 0, {b.tobytes()}
    while True:
        img = box.vertices() @ A.T + b
        if not np.all(img.max(axis=0) - img.min(axis=0) <= extent + 1e-15):
            if shrinks == 63:
                raise PreconditionError("cannot project the map into the domain")
            A, shrinks, seen = A * 0.8, shrinks + 1, {b.tobytes()}  # image wider than the box on some axis
            continue
        shift = np.maximum(box.lo - img.min(axis=0), 0.0) + np.minimum(box.hi - img.max(axis=0), 0.0)
        b = b + shift
        if b.tobytes() in seen:
            return A, b
        seen.add(b.tobytes())


def project_one(A, b, box, s_max):
    """The stacked projection of one map, as (A, b), NaN where it fails."""
    A, b = collage._project(np.asarray(A, dtype=float)[None], np.asarray(b, dtype=float)[None], box, s_max)
    return A[0], b[0]


def reference_descend(target, box, cfg, maps0, moves=candidate_moves_reference):
    """The descent as it was before per-map caching: every candidate
    re-projects every map and is scored on the whole system, here by the
    brute Hausdorff distance of its Hutchinson image."""
    n, d = cfg.n, target.dim
    step0 = collage.INITIAL_STEP * box.diameter
    if step0 <= 0.0:
        step0 = 0.1
    stop_step = max(step0 * 1e-6, 1e-12)

    def project(params):
        return [project_reference(p[:-d].reshape(d, d), p[-d:], box, cfg.s_max) for p in params.reshape(n, -1)]

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
        for trial in moves(params, n, d, box, step):
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
        # no re-projection of the starts, of the incumbent or of the result:
        # each sweep projects all the blocks its candidates move, in one stack
        sweeps, projected = [], []  # moved blocks per sweep, rows per projection
        candidate_moves, project = collage._candidate_moves, collage._project

        def counted_moves(params, n, d, box, step):
            trials = candidate_moves(params, n, d, box, step)
            changed = trials.view(np.int64) != params.view(np.int64)
            sweeps.append(int(changed.reshape(len(trials), n, -1).any(axis=2).sum()))
            return trials

        def counted_project(A, b, *args):
            projected.append(len(b))
            return project(A, b, *args)

        monkeypatch.setattr(collage, "_candidate_moves", counted_moves)
        monkeypatch.setattr(collage, "_project", counted_project)
        line, square = Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0])
        for truth, depth, delta in (
            (IFS(square, tuple(AffineMap(0.5 * np.eye(2), b) for b in ([0, 0], [0.5, 0], [0, 0.5]))), 4, 1 / 16),
            (IFS(line, (AffineMap([[1 / 3]], [0.0]), AffineMap([[1 / 3]], [2 / 3]))), 6, 1e-3),
        ):
            box = truth.domain
            target = attractor_points(truth, depth, box_seed(box, delta))
            cfg = FitConfig(n=truth.n, max_iters=12, s_max=0.9, seed=0)
            maps0 = collage._random_maps(target, box, cfg, np.random.default_rng(3))
            sweeps.clear(), projected.clear()
            _, _, history = collage._descend(target, box, cfg, maps0, collage._tick_field(target, box))
            assert len(history) > 1 and projected == sweeps

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
        "case, start, source",
        [
            pytest.param(case, start, source, id="-".join([case, start] + ([] if source == "sparse" else [source])))
            for case in ("cantor", "reversed")
            for start in ("warm", "random")
            for source in ("sparse", "field", "chunked", "unprojectable")
        ]
        + [
            pytest.param(case, start, None, id=f"{case}-{start}")
            for case, start in (
                ("sierpinski", "warm"), ("sierpinski", "random"), ("raster", "tiles"), ("raster", "random"),
                ("thin", "tiles"),
            )
        ],
    )
    def test_descent_matches_the_full_rescoring_reference(self, monkeypatch, case, start, source):
        # on the line out_sq comes from the sorted scan of a target too
        # sparse for the field's size rule, from the fit's tick field (the
        # rule lifted), or from that field one candidate per gather.  Sweeps
        # that hold a map no shrink fits into the box: on the line the middle
        # candidate of every sweep gets an infinite offset, and in a box 1e-8
        # thin the moves of A[1, 0] by the step are too wide for it.  Both
        # sides raise at the same sweep, or neither does
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
        elif case == "thin":
            box = Box([0.0, 0.0], [1.0, 1e-8])
            target = PointSet(np.column_stack([np.arange(41) / 40, np.zeros(41)]), 1e-3)
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
        if source in ("field", "chunked", "unprojectable"):
            with mock.patch.object(collage, "FIELD_TICKS_PER_POINT", math.inf):
                field = collage._tick_field(target, box)
        else:
            field = collage._tick_field(target, box)
        assert (field is None) == (source in ("sparse", None))
        if source == "chunked":
            monkeypatch.setattr(collage, "SWEEP_TICKS", 1)

        sweeps, ref_sweeps = [], []  # sweeps started by either side
        candidate_moves = collage._candidate_moves

        def moves(params, n, d, box, step):
            sweeps.append(1)
            trials = candidate_moves(params, n, d, box, step)
            if source == "unprojectable":
                trials[len(trials) // 2, 1] = math.inf  # map 0's offset
            return trials

        def ref_moves(*args):
            ref_sweeps.append(1)
            trials = list(candidate_moves_reference(*args))
            if source == "unprojectable":
                trials[len(trials) // 2][1] = math.inf
            return trials

        monkeypatch.setattr(collage, "_candidate_moves", moves)

        def outcome(run):
            try:
                with np.errstate(invalid="ignore"):  # the reference takes inf - inf for the width
                    return run()
            except PreconditionError as exc:
                return str(exc)

        got = outcome(lambda: collage._descend(target, box, cfg, maps0, field))
        expected = outcome(lambda: reference_descend(target, box, cfg, maps0, ref_moves))
        assert len(sweeps) == len(ref_sweeps)
        if isinstance(got, str):
            assert got == expected == "cannot project the map into the domain"
            assert source == "unprojectable" or case == "thin"
            return
        (maps, value, history), (ref_maps, ref_value, ref_history) = got, expected
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
        A, b = project_one([[a]], [b], box, s_max)
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
        # a sweep's gather checks every row: stacked with a constant map whose
        # tick lies in the shifted field, in either order, it raises as well
        for k, inside in ((low + 1.0, high), (low - 1.0, low)):
            ticks = collage._line_ticks(target, np.array([0.0, A[0, 0]]), np.array([inside * pitch, b[0]]))
            assert (ticks[0] == inside).all()
            assert collage._line_out_sq(target, ticks, (low, tight))[1] == share.out_sq
            for rows in (ticks, ticks[::-1]):
                with pytest.raises(IndexError):
                    collage._line_out_sq(target, rows, (k, tight))


class TestSweepArrays:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        n=st.integers(1, 4),
        flat=st.booleans(),
        step=st.sampled_from([0.1, 1e-3, 1e-12, 1e-300, "random"]),
    )
    def test_candidate_array_matches_the_generator(self, seed, d, n, flat, step):
        # zeros of both signs in params, and steps too small to move some
        # coefficients, must come out as the generator's copies do
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, 2.0, d)
        box = Box(lo, lo + np.where(flat & (np.arange(d) == 0), 0.0, rng.uniform(0.1, 3.0, d)))
        params = rng.standard_normal(n * (d * d + d)) * 10.0 ** rng.integers(-3, 4)
        params[rng.random(params.size) < 0.2] = rng.choice([0.0, -0.0])
        step = rng.uniform(0.0, 1.0) if step == "random" else step
        expected = np.array(list(candidate_moves_reference(params, n, d, box, step)))
        trials = collage._candidate_moves(params, n, d, box, step)
        assert trials.shape == expected.shape and trials.tobytes() == expected.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        pitch=st.sampled_from([1.0, 1.0 / 64.0, 1e-3, 1e-7]),
        start=st.integers(-(10**6), 10**6),
        span=st.integers(0, 200),
        bounds=st.lists(st.sampled_from(["lattice", "off", "flat", "ulps", "-0.0", "thin"]), min_size=3, max_size=3),
        s_max=st.sampled_from([0.5, 0.9, 0.95, 0.999]),
    )
    def test_stack_matches_project_reference(self, seed, d, pitch, start, span, bounds, s_max):
        # every row of the stacked projection is the per-map projection's
        # output bit for bit, or NaN where that raises.  Box axes: bounds on
        # the lattice, off it, a single point, a few ulps wide far from the
        # origin (where the image width reads ulps over the box and b shifts
        # back and forth), at -0.0, and 1e-6 thin (where the 64th shrink
        # comes).  Matrices at, in the s_max*(1 - 1e-12) band below and a
        # few ulps past s_max in norm, +-0.0, random, huge (squares past the
        # float range) and infinite; offsets inside, pinning a corner, far
        # outside, -0.0 and infinite.  A map with a coefficient that is not
        # finite comes back NaN
        rng = np.random.default_rng(seed)
        lo, width = np.empty(d), np.empty(d)
        for axis, kind in enumerate(bounds[:d]):
            lo[axis] = {"lattice": start * pitch, "off": (start + rng.uniform()) * pitch, "-0.0": -0.0}.get(kind, 0.0)
            width[axis] = span * pitch + (rng.uniform() * pitch if kind == "off" else 0.0)
            if kind == "flat":
                lo[axis], width[axis] = start * pitch, 0.0
            elif kind == "ulps":
                lo[axis] = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(4.0, 15.0)
                width[axis] = abs(np.spacing(lo[axis])) * rng.integers(1, 8)
            elif kind == "thin":
                width[axis] = 1e-6
        box = Box(lo, lo + width)
        rows = 40

        def matrix(kind):
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            if kind == 0:
                return q * s_max
            if kind == 1:  # inside LAPACK's guard band
                return q * (s_max * (1.0 - rng.uniform(0.0, 1e-12)))
            if kind == 2:  # a few ulps past
                return q * (np.nextafter(s_max, 2.0) + np.spacing(s_max) * rng.integers(0, 4))
            if kind == 3:
                return np.full((d, d), rng.choice([0.0, -0.0]))
            if kind == 4:
                return rng.uniform(-2.0, 2.0, (d, d))
            if kind == 5:
                return np.diag(rng.uniform(-1.0, 1.0, d))
            if kind == 6:
                return rng.standard_normal((d, d)) * 1e200
            A = rng.uniform(-1.0, 1.0, (d, d))
            A.flat[rng.integers(d * d)] = rng.choice([math.inf, -math.inf])
            return A

        A = np.array([matrix(kind) for kind in rng.choice(8, rows, p=[0.2, 0.15, 0.15, 0.1, 0.2, 0.1, 0.05, 0.05])])
        corner = box.vertices()[rng.integers(2**d, size=rows)]
        with np.errstate(invalid="ignore", over="ignore"):
            pinned = corner - (A @ corner[:, :, None])[:, :, 0]  # sends a corner onto itself
        b = np.choose(
            rng.choice(5, rows, p=[0.3, 0.3, 0.25, 0.1, 0.05])[:, None],
            [
                rng.uniform(box.lo, box.hi, (rows, d)),
                pinned,
                box.lo + rng.uniform(-50.0, 50.0, (rows, d)) * (width + pitch),
                np.full((rows, d), -0.0),
                np.full((rows, d), math.inf),
            ],
        )
        stack_A, stack_b = collage._project(A, b, box, s_max)
        for k in range(rows):
            if not np.isfinite(A[k]).all():
                # the per-map loop may not return: LAPACK's SVD of some 3x3
                # matrices with an infinite entry does not, and zeroing a flat
                # axis can leave a finite A above s_max that it then walks
                # toward s_max one ulp at a time
                assert np.isnan(stack_A[k]).all() and np.isnan(stack_b[k]).all()
                continue
            try:
                with np.errstate(all="ignore"):
                    A_k, b_k = project_reference(A[k], b[k], box, s_max)
            except PreconditionError:
                assert np.isnan(stack_A[k]).all() and np.isnan(stack_b[k]).all()
                continue
            assert A_k.tobytes() == stack_A[k].tobytes() and b_k.tobytes() == stack_b[k].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        step=st.sampled_from([0.3, 0.05, 1e-3]),
        source=st.sampled_from(["field", "scan"]),
        chunk=st.sampled_from([1, 100, 1 << 16]),
        best=st.sampled_from(["incumbent", "random"]),
        unprojectable=st.booleans(),
    )
    def test_line_survivors_match_the_per_candidate_screen(self, seed, n, step, source, chunk, best, unprojectable):
        # a line sweep walks, in order, the candidates whose out_sq, taken
        # share by share, does not reach the incumbent's value, whatever the
        # number of image ticks per gather, and every candidate with a block
        # the projection marked NaN
        rng = np.random.default_rng(seed)
        box = Box([0.0], [1.0])
        target = PointSet(rng.integers(0, 65, (rng.integers(1, 40), 1)) / 64, 1.0 / 64)
        with mock.patch.object(collage, "FIELD_TICKS_PER_POINT", math.inf):
            field = collage._tick_field(target, box) if source == "field" else None
        maps0 = collage._random_maps(target, box, FitConfig(n=n, s_max=0.9), rng)
        shares = [collage._Share(target, m.A, m.b, field) for m in maps0]
        value = collage._score(target, shares)
        best = value if best == "incumbent" else value * rng.uniform(0.5, 1.5)
        params = np.concatenate([np.concatenate([m.A.ravel(), m.b]) for m in maps0])
        trials = collage._candidate_moves(params, n, 1, box, step)
        blocks = trials.reshape(len(trials), n, 2)
        moved = (trials.view(np.int64) != params.view(np.int64)).reshape(blocks.shape).any(axis=2)
        ci, bi = np.nonzero(moved)
        A, b = collage._project(blocks[ci, bi, :1].reshape(-1, 1, 1), blocks[ci, bi, 1:], box, 0.9)
        blocks[ci, bi] = np.concatenate([A.reshape(-1, 1), b], axis=1)
        if unprojectable:
            nan = rng.random(len(ci)) < 0.1
            blocks[ci[nan], bi[nan]] = np.nan
        expected = []
        for c, row in enumerate(blocks):
            if np.isnan(row).any():
                expected.append(c)
                continue
            trial = [
                collage._Share(target, row[i, :1].reshape(1, 1), row[i, 1:], field) if moved[c, i] else shares[i]
                for i in range(n)
            ]
            if not math.sqrt(max(share.out_sq for share in trial)) >= best:
                expected.append(c)
        with mock.patch.object(collage, "SWEEP_TICKS", chunk * len(target) * n):
            assert list(collage._line_survivors(target, field, blocks, moved, shares, best)) == expected

    def test_unprojectable_rows_come_back_nan(self):
        # an infinite offset, a NaN slope and a map of the plane whose image
        # stays wider than a 1e-8 thin axis never fit: where the per-map
        # projection raises at the 64th shrink, the stack marks the row NaN
        # and leaves the other rows as they are alone; project_map raises
        line, thin = Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1e-8])
        for box, A, b in (
            (line, [[0.5]], [math.inf]),
            (line, [[math.nan]], [0.5]),
            (thin, [[0.5, 0.0], [0.5, 0.0]], [0.0, 0.0]),
        ):
            A, b = np.array(A), np.array(b)
            with pytest.raises(PreconditionError) as reference, np.errstate(invalid="ignore"):
                project_reference(A, b, box, 0.9)
            feasible = (0.5 * np.eye(box.dim), np.full(box.dim, 0.2e-8))
            stack_A, stack_b = collage._project(
                np.array([feasible[0], A, feasible[0]]), np.array([feasible[1], b, feasible[1]]), box, 0.9
            )
            assert np.isnan(stack_A[1]).all() and np.isnan(stack_b[1]).all()
            alone = project_reference(*feasible, box, 0.9)
            for k in (0, 2):
                assert stack_A[k].tobytes() == alone[0].tobytes() and stack_b[k].tobytes() == alone[1].tobytes()
            with pytest.raises(PreconditionError) as public:
                project_map(A, b, box, 0.9)
            assert str(public.value) == str(reference.value) == "cannot project the map into the domain"


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

    def test_random_starts_are_drawn_one_restart_at_a_time(self, monkeypatch, unit_box, cantor_render):
        # restart 0 fits a single point exactly, so no random start is drawn
        # however many restarts are asked for
        with monkeypatch.context() as patch:
            patch.setattr(collage, "_random_maps", lambda *args: pytest.fail("a random start was drawn"))
            result = fit_ifs(PointSet([[0.3]], DELTA), FitConfig(n=1, restarts=10**8))
        assert result.distance == 0.0 and result.ifs.maps[0].b.tolist() == [0.3]
        # the starts are the ones drawn all at once, in the seeded order
        cfg = FitConfig(n=2, restarts=4, max_iters=1, seed=9)
        rng = np.random.default_rng(cfg.seed)
        expected = [collage._heuristic_maps(cantor_render, unit_box, cfg)]
        expected += [collage._random_maps(cantor_render, unit_box, cfg, rng) for _ in range(cfg.restarts - 1)]
        starts, descend = [], collage._descend
        monkeypatch.setattr(collage, "_descend", lambda *args: starts.append(args[3]) or descend(*args))
        fit_ifs(cantor_render, cfg, domain=unit_box)
        assert starts == expected

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
