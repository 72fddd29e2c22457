import hashlib
import math
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from ifsseq import (
    IFS,
    AffineMap,
    Box,
    InputError,
    PointSet,
    PreconditionError,
    ResourceLimitError,
    align_chain,
    attractor_points,
    big_d,
    box_seed,
    chaos_game,
    default_resolution,
    hausdorff,
    hausdorff_brute,
    hutchinson,
    minimal_order,
    spectral_norm,
)
from ifsseq import attractor, collage
from ifsseq.collage import (
    FitConfig,
    FitResult,
    collage_bound,
    collage_distance,
    fit_ifs,
    fit_sequence,
)
from ifsseq.formats import raster_to_points, render_raster
from ifsseq.maps import _project, _project_maps

from conftest import cantor_ifs, cantor_term, exact_hausdorff, project_one, random_ifs

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
        brute = hausdorff_brute(target, hutchinson(system, target))
        assert collage_distance(system, target) == brute
        # the descent's scorer over the system's shares, from the fit's tick
        # field (None above the line or on a sparse target) and from the scan
        for field in (collage._tick_field(target, box), None):
            shares = [collage._Share(target, m.A, m.b, field, np.zeros(len(target), bool)) for m in system.maps]
            assert collage._score(target, shares, math.inf, np.zeros(len(target), bool)) == brute


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


class RoundingTree(cKDTree):
    """A KD-tree whose distances come back 4 ulps high: the rounding that the
    1e-9 margins on tree distances absorb.  scipy's tree returns the brute
    distance bit for bit on every input tried, lattice or not, so only a tree
    that rounds differently shows whether the margins are there."""

    def query(self, x, *args, **kwargs):
        dist, idx = super().query(x, *args, **kwargs)
        return dist * (1.0 + 4.0 * 2.0**-52), idx


def survivors_reference(target, blocks, moved, shares, best):
    """A sweep's exact screen, as it was before the witness points: every
    moved map's out_sq from all of its snapped images by the brute
    expression, and the candidates whose out_sq does not reach best, or
    that hold a NaN block, in order."""
    d = target.dim
    sq = np.tile([share.out_sq for share in shares], (len(blocks), 1))
    for c, i in zip(*np.nonzero(moved)):
        A, b = blocks[c, i, : d * d].reshape(d, d), blocks[c, i, d * d :]
        images = attractor._snap(target.points @ A.T + b, target.resolution)
        sq[c, i] = attractor._min_sq_brute(images, target.points).max()  # NaN where b is
    return list(np.flatnonzero(~(np.sqrt(sq.max(axis=1)) >= best)))


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
        reach=st.sampled_from(["none", "empty", "one", "random", "all"]),
        bound=st.sampled_from(["incumbent", "random", "tight"]),
    )
    def test_one_map_moves_combine_to_the_brute_value(
        self, seed, dim, n, flat, lattice, overhang, source, reach, bound
    ):
        # targets on a coarse sublattice of the pitch make exact distance
        # ties; a moved map is re-scored alone and combined with the shares
        # of the maps that stayed.  On the line out_sq comes from the fit's
        # tick field, from the sorted scan (no field), or from the scan of a
        # target too sparse for the field's size rule.  With overhang the
        # target reaches half a pitch outside the box on every side.  Each
        # move is scored against a bound (the incumbent's value, a random
        # one, or one ulp either side of the brute value) with a reach mask
        # that the calls share, as a descent's do: it gains only the full in
        # side's argmax, and the shares keep the exact values they took there
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
            elif rng.random() < 0.2:  # a constant map, whose images all coincide
                A = np.zeros((dim, dim))
            if rng.random() < 0.5:  # fix a corner of the box, so the images reach its edge
                corner = (box.lo, box.hi)[rng.integers(2)]
                b = corner - A @ corner
            return _project_maps(A[None], b[None], box, 0.9)[0]

        def brute(maps):
            return hausdorff_brute(target, hutchinson(IFS(box, tuple(maps)), target))

        maps = [draw(rng.standard_normal((dim, dim)), rng.uniform(0.0, 1.0, dim) * extent) for _ in range(n)]
        marks = np.zeros(len(target), bool)  # the witness mask each share marks on the line
        shares = [collage._Share(target, m.A, m.b, field, marks) for m in maps]
        incumbent = brute(maps)
        assert collage._score(target, shares, math.inf, np.zeros(len(target), bool)) == incumbent
        directed = collage._directed_sq
        mask = None if reach == "none" else rng.random(len(target)) < {"random": rng.uniform(), "all": 1.0}.get(reach, 0.0)
        if reach == "one":
            mask[rng.integers(len(target))] = True
        for _ in range(3):
            j = rng.integers(n)
            maps[j] = draw(maps[j].A + rng.normal(0.0, 0.1, (dim, dim)), maps[j].b + rng.normal(0.0, 0.1, dim))
            shares[j] = collage._Share(target, maps[j].A, maps[j].b, field, marks)
            exact = brute(maps)
            limit = {
                "incumbent": incumbent,
                "random": exact * rng.uniform(0.5, 1.5),
                "tight": np.nextafter(exact, rng.choice([-math.inf, math.inf])),
            }[bound]
            before = None if mask is None else mask.copy()  # "none" takes a fresh mask per call
            in_sides = []  # per _directed_sq call, whether it took the full in side (queries L)

            def spied(queries, points, tree):
                in_sides.append(queries is target.points)
                return directed(queries, points, tree)

            with mock.patch.object(collage, "_directed_sq", spied):
                value = collage._score(target, shares, limit, np.zeros(len(target), bool) if mask is None else mask)
            # exact below the bound, and at or above it a stand-in that
            # rejects all the same
            assert value == exact if exact < limit else limit <= value <= exact
            if mask is not None:
                if dim == 1:
                    taken = shares[j]._near is not None  # the moved share's near is fresh
                    far = reduce(np.minimum, [share.near for share in shares]).argmax()
                else:
                    taken = any(in_sides)
                    far = cKDTree(np.concatenate([s.images for s in shares])).query(target.points)[0].argmax()
                before[far] |= taken
                assert (mask == before).all()
                for share in (s for s in shares if s._reach is not None):
                    at = np.flatnonzero(share._reach == share._reach)
                    assert mask[at].all()
                    assert share._reach[at].tobytes() == attractor._min_sq_brute(target.points[at], share.images).tobytes()
            assert collage._score(target, shares, math.inf, np.zeros(len(target), bool)) == exact
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

    def test_line_descent_scans_only_for_near_and_reach(self, monkeypatch):
        # with the fit's tick field every out_sq is a gather: the sorted scan
        # runs only where a share's per-point distances are taken, at all of
        # L (near) or at the reach points it has not taken yet (reach_sq)
        box = Box([0.0], [1.0])
        truth = IFS(box, (AffineMap([[1 / 3]], [0.0]), AffineMap([[1 / 3]], [2 / 3])))
        target = attractor_points(truth, 6, box_seed(box, 1e-3))
        cfg = FitConfig(n=2, max_iters=12, s_max=0.9, seed=0)
        field = collage._tick_field(target, box)
        maps0 = collage._random_maps(target, box, cfg, np.random.default_rng(3))
        assert field is not None
        scans, nears, fresh, inside = [], [], [], []  # scans by caller, first nears, new reach points per call
        scan, near, reach_sq = attractor._min_sq_sorted_1d, collage._Share.near, collage._Share.reach_sq

        def counted_scan(queries, points):
            scans.append("near" if queries is target.points else "reach" if inside else "other")
            return scan(queries, points)

        def counted_near(share):
            nears.append(share._near is None)
            return near.fget(share)

        def counted_reach(share, at):
            fresh.append(at.size if share._reach is None else int(np.isnan(share._reach[at]).sum()))
            inside.append(share)
            try:
                return reach_sq(share, at)
            finally:
                inside.pop()

        for module in (attractor, collage):
            monkeypatch.setattr(module, "_min_sq_sorted_1d", counted_scan)
        monkeypatch.setattr(collage._Share, "near", property(counted_near))
        monkeypatch.setattr(collage._Share, "reach_sq", counted_reach)
        _, _, history = collage._descend(target, box, cfg, maps0, field)
        assert len(history) > 1 and "other" not in scans and scans.count("near") == sum(nears) > 0
        assert scans.count("reach") == sum(1 for k in fresh if k) > 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_descent_builds_each_surviving_map_once(self, monkeypatch, dim):
        # a sweep walks the candidates its witness screen keeps, in order, up
        # to the first that scores below the incumbent: the shares it builds
        # are those candidates' moved maps, each once, and each takes the one
        # full set of its map's images (on the line the one full tick gather,
        # from the fit's tick field).  On the line, after each sweep the witness
        # mask holds at most one point per share built so far, the n start
        # shares included; above it no share marks the mask, which stays empty
        box = Box(np.zeros(dim), np.ones(dim))
        if dim == 1:  # the Cantor maps, and the Sierpinski maps of the square and of the cube
            truth, depth, delta = IFS(box, (AffineMap([[1 / 3]], [0.0]), AffineMap([[1 / 3]], [2 / 3]))), 6, 1e-3
        else:
            offsets = np.vstack([np.zeros(dim), np.eye(dim) / 2])
            truth, depth, delta = IFS(box, tuple(AffineMap(np.eye(dim) / 2, b) for b in offsets)), 6 - dim, 2.0 ** -(6 - dim)
        target = attractor_points(truth, depth, box_seed(box, delta))
        cfg = FitConfig(n=truth.n, max_iters=12, s_max=0.9, seed=0)
        field = collage._tick_field(target, box)
        maps0 = collage._random_maps(target, box, cfg, np.random.default_rng(3))
        assert (field is None) == (dim > 1)
        full, built, sweeps, scores = [], [], [], []  # full image sets, shares, per sweep, below-the-bound per score
        line_ticks, snap, share_init = collage._line_ticks, collage._snap, collage._Share.__init__
        survivors, score = collage._survivors, collage._score

        def counted_ticks(target, a, b, at=slice(None)):
            if isinstance(at, slice):  # all of a map's images
                full.append(len(built))
            return line_ticks(target, a, b, at)

        def counted_snap(points, resolution):
            if points.ndim == 2:  # one map's images, where the screen snaps a stack
                full.append(len(built))
            return snap(points, resolution)

        def counted_init(share, target, A, b, *args):
            built.append((A.tobytes(), b.tobytes()))  # counted before the images, which it then owns
            share_init(share, target, A, b, *args)

        def recorded_survivors(target, field, blocks, moved, shares, best, witness):
            kept = survivors(target, field, blocks, moved, shares, best, witness)
            sweeps.append((blocks.copy(), moved, kept, witness, int(witness.sum()), len(built), len(scores)))
            return kept

        def recorded_score(target, shares, bound, reach):
            value = score(target, shares, bound, reach)
            scores.append(value < bound)
            return value

        monkeypatch.setattr(collage, "_line_ticks", counted_ticks)
        monkeypatch.setattr(collage, "_snap", counted_snap)
        monkeypatch.setattr(collage._Share, "__init__", counted_init)
        monkeypatch.setattr(collage, "_survivors", recorded_survivors)
        monkeypatch.setattr(collage, "_score", recorded_score)
        _, _, history = collage._descend(target, box, cfg, maps0, field)
        assert len(history) > 1 and len(built) > cfg.n and all(sweep[3] is sweeps[0][3] for sweep in sweeps)
        assert full == list(range(1, len(built) + 1))  # one full image set per share, taken while it is built
        ends = [sweep[5:] for sweep in sweeps[1:]] + [(len(built), len(scores))]
        for (blocks, moved, kept, _, points, first_share, first_score), (last_share, last_score) in zip(sweeps, ends):
            # the witness mask as the sweep before left it
            assert 0 < points <= first_share if dim == 1 else points == 0
            # the walk stops at the first candidate that scores below the bound
            walked, below = kept[: last_score - first_score], scores[first_score:last_score]
            assert not any(below[:-1]) and (len(walked) == len(kept) or below[-1])
            expected = [
                (blocks[c, i, : dim * dim].tobytes(), blocks[c, i, dim * dim :].tobytes())
                for c in walked
                for i in np.flatnonzero(moved[c])
            ]
            assert built[first_share:last_share] == expected
        assert 0 < int(sweeps[-1][3].sum()) <= len(built) if dim == 1 else not sweeps[-1][3].any()

    @pytest.mark.parametrize(
        "case, start, source",
        [
            pytest.param(case, start, source, id="-".join([case, start] + ([] if source == "sparse" else [source])))
            for case in ("cantor", "reversed")
            for start in ("warm", "random")
            for source in ("sparse", "field", "unscreened", "exact", "unprojectable")
        ]
        + [
            pytest.param(case, start, None, id=f"{case}-{start}")
            for case, start in (
                ("sierpinski", "warm"), ("sierpinski", "random"), ("raster", "tiles"), ("raster", "random"),
                ("thin", "tiles"),
            )
        ]
        + [
            pytest.param(case, start, source, id=f"{case}-{start}-{source}")
            for case, start in (("sierpinski", "warm"), ("sierpinski", "random"), ("raster", "tiles"), ("raster", "random"))
            for source in ("unscreened", "exact")
        ],
    )
    def test_descent_matches_the_full_rescoring_reference(self, monkeypatch, case, start, source):
        # on the line out_sq comes from the sorted scan of a target too
        # sparse for the field's size rule or from the fit's tick field (the
        # rule lifted).  Sweeps are screened at the descent's witness points
        # and candidates at its reach points, or, in every dimension, at none
        # of L (every candidate takes near) or at all of it (on the line the
        # exact screen): the walk is the same whatever they are.  Sweeps
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
                _project_maps(*(np.array([x + rng.normal(0.0, 0.05, x.shape)]) for x in (m.A, m.b)), box, 0.9)[0]
                for m in truth.maps
            )
        elif start == "tiles":
            maps0 = collage._heuristic_maps(target, box, cfg)
        else:
            maps0 = collage._random_maps(target, box, cfg, rng)
        if source in ("field", "unscreened", "exact", "unprojectable"):
            with mock.patch.object(collage, "FIELD_TICKS_PER_POINT", math.inf):
                field = collage._tick_field(target, box)
        else:
            field = collage._tick_field(target, box)
        assert (field is None) == (source in ("sparse", None) or box.dim > 1)

        sweeps, ref_sweeps, ladders = [], [], []  # sweeps walked by either side; the descent's ladders
        candidate_moves = collage._candidate_moves

        def moves(params, n, d, box, steps):
            ladders.append(len(steps))
            trials = candidate_moves(params, n, d, box, steps)
            if source == "unprojectable":  # the middle candidate of every level
                per_level = len(trials) // len(steps)
                trials[per_level // 2 :: per_level, 1] = math.inf  # map 0's offset
            return trials

        def ref_moves(*args):
            ref_sweeps.append(1)
            trials = list(candidate_moves_reference(*args))
            if source == "unprojectable":
                trials[len(trials) // 2][1] = math.inf
            return trials

        monkeypatch.setattr(collage, "_candidate_moves", moves)
        kernel, score = collage._survivors, collage._score

        def survivors(target, field, blocks, moved, shares, best, witness):
            sweeps.append(1)  # one screen per level walked
            if source in ("unscreened", "exact"):
                witness = np.full(len(witness), source == "exact")
            return kernel(target, field, blocks, moved, shares, best, witness)

        def fixed_reach(target, shares, bound, reach):
            return score(target, shares, bound, np.full(len(target), source == "exact"))

        monkeypatch.setattr(collage, "_survivors", survivors)
        if source in ("unscreened", "exact"):
            monkeypatch.setattr(collage, "_score", fixed_reach)

        def outcome(run):
            try:
                with np.errstate(invalid="ignore"):  # the reference takes inf - inf for the width
                    return run()
            except PreconditionError as exc:
                return str(exc)

        got = outcome(lambda: collage._descend(target, box, cfg, maps0, field))
        expected = outcome(lambda: reference_descend(target, box, cfg, maps0, ref_moves))
        assert len(sweeps) == len(ref_sweeps)
        assert 0 < len(ladders) <= len(sweeps) <= sum(ladders)
        if isinstance(got, str):
            assert got == expected == "cannot project the map into the domain"
            assert source == "unprojectable" or case == "thin"
            return
        (maps, value, history), (ref_maps, ref_value, ref_history) = got, expected
        assert value == ref_value and history == ref_history
        for m, ref in zip(maps, ref_maps, strict=True):
            assert m.A.tobytes() == ref.A.tobytes() and m.b.tobytes() == ref.b.tobytes()
        assert len(history) > 1 or value == 0.0  # the search moved

    @pytest.mark.parametrize("case", ["line", "raster"])
    @pytest.mark.parametrize("max_iters, poison", [(1, False), (3, False), (5, False), (200, False), (200, True)])
    def test_ladder_walk_matches_the_reference(self, monkeypatch, case, max_iters, poison):
        # a ladder stacks the sweeps an unchanged incumbent will run, at most
        # the budget's remaining sweeps and no step below stop_step: budgets
        # of 1, 3 and 5 sweeps end inside a ladder (the line's holds 9 levels,
        # the plane's 2), and a budget of 200 ends at the stop_step cut.
        # With `poison`, a second run cannot project the middle candidate of
        # every level that the first run's walk never reached: it walks as
        # the first did, and neither it nor the reference raises
        rng = np.random.default_rng(6)
        width = 96 if case == "line" else 10
        target = raster_to_points(rng.random((1 if case == "line" else width, width)) < 0.3, 1 / width)
        box = Box(target.points.min(axis=0), target.points.max(axis=0))
        cfg = FitConfig(n=2, max_iters=max_iters, s_max=0.9, seed=0)
        maps0 = collage._random_maps(target, box, cfg, rng)
        field = collage._tick_field(target, box)
        levels = 9 if case == "line" else 2
        stop_step = max(collage.INITIAL_STEP * box.diameter * 1e-6, 1e-12)
        ladders, walked, unwalked = [], [], None  # per ladder: its steps, the levels walked, the first run's walk
        candidate_moves, kernel = collage._candidate_moves, collage._survivors

        def moves(params, n, d, box, steps):
            trials = candidate_moves(params, n, d, box, steps)
            per_level = len(trials) // len(steps)
            for level in range(len(steps) if unwalked is None else unwalked[len(ladders)], len(steps)):
                trials[level * per_level + per_level // 2, 1] = math.inf  # a coefficient of map 0
            ladders.append(list(steps)), walked.append(0)
            return trials

        def survivors(*args):
            walked[-1] += 1
            return kernel(*args)

        monkeypatch.setattr(collage, "_candidate_moves", moves)
        monkeypatch.setattr(collage, "_survivors", survivors)
        got = collage._descend(target, box, cfg, maps0, field)
        if poison:
            first, unwalked = (ladders, walked), walked
            assert any(k < len(steps) for steps, k in zip(*first))
            ladders, walked = [], []
            with np.errstate(invalid="ignore"):
                again = collage._descend(target, box, cfg, maps0, field)
            assert (ladders, walked) == first and again[1:] == got[1:]
            for m, a in zip(got[0], again[0], strict=True):
                assert m.A.tobytes() == a.A.tobytes() and m.b.tobytes() == a.b.tobytes()
        maps, value, history = got
        ref_maps, ref_value, ref_history = reference_descend(target, box, cfg, maps0)
        assert value == ref_value and history == ref_history and value > 0.0
        for m, ref in zip(maps, ref_maps, strict=True):
            assert m.A.tobytes() == ref.A.tobytes() and m.b.tobytes() == ref.b.tobytes()
        # each ladder holds the level count, or the budget's remaining sweeps,
        # or ends before the first step below stop_step; each step is the
        # one before it times STEP_DECAY
        for k, steps in enumerate(ladders):
            assert 0 < walked[k] <= len(steps) and all(s >= stop_step for s in steps[1:])
            assert steps[1:] == [s * collage.STEP_DECAY for s in steps[:-1]]
            assert len(steps) == min(levels, max_iters - sum(walked[:k])) or steps[-1] * collage.STEP_DECAY < stop_step
        if max_iters < 200:  # the budget ends the last ladder
            assert sum(walked) == max_iters
        else:  # the stop_step cut ends it, short of the level count
            assert sum(walked) < max_iters and walked[-1] == len(ladders[-1]) < levels


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
        marks = np.zeros(len(target), bool)  # the witness mask each share marks
        share = collage._Share(target, A, b, (k0, sq), marks)
        assert share.out_sq == collage._Share(target, A, b, None, marks).out_sq
        images = np.rint((target.points[:, 0] * A[0, 0] + b[0]) / pitch)
        low, high = images.min(), images.max()
        assert k0 <= low and high <= k0 + sq.size - 1
        # the tightest field gives the same value; shifted a tick either way it
        # misses the lowest or the highest tick, and raises instead of wrapping
        tight = sq[int(low - k0) : int(high - k0) + 1]
        assert collage._Share(target, A, b, (low, tight), marks).out_sq == share.out_sq
        for k in (low + 1.0, low - 1.0):
            with pytest.raises(IndexError):
                collage._Share(target, A, b, (k, tight), marks)
        # a sweep's gather checks every row: stacked with a constant map whose
        # tick lies in the shifted field, in either order, it raises as well
        for k, inside in ((low + 1.0, high), (low - 1.0, low)):
            ticks = collage._line_ticks(target, np.array([0.0, A[0, 0]]), np.array([inside * pitch, b[0]]))
            assert (ticks[0] == inside).all()
            assert collage._line_sq(target, ticks, (low, tight))[1].max() == share.out_sq
            for rows in (ticks, ticks[::-1]):
                with pytest.raises(IndexError):
                    collage._line_sq(target, rows, (k, tight))


class TestSweepArrays:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        n=st.integers(1, 4),
        flat=st.booleans(),
        step=st.sampled_from([0.1, 1e-3, 1e-12, 1e-300, "random"]),
        levels=st.integers(1, 12),
        ladder=st.sampled_from(["decay", "mixed"]),
    )
    def test_candidate_array_matches_the_generator(self, seed, d, n, flat, step, levels, ladder):
        # zeros of both signs in params, and steps too small to move some
        # coefficients, must come out as the generator's copies do.  A ladder
        # is each of its steps' sweeps in order: the step decaying from level
        # to level as the descent's does, or any steps at all
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, 2.0, d)
        box = Box(lo, lo + np.where(flat & (np.arange(d) == 0), 0.0, rng.uniform(0.1, 3.0, d)))
        params = rng.standard_normal(n * (d * d + d)) * 10.0 ** rng.integers(-3, 4)
        params[rng.random(params.size) < 0.2] = rng.choice([0.0, -0.0])

        def draw():
            return rng.uniform(0.0, 1.0) if step == "random" else step

        steps = [draw()]
        for _ in range(levels - 1):
            if ladder == "decay":
                steps.append(steps[-1] * collage.STEP_DECAY)
            else:  # 1e-300 and 1e-12 move few or no coefficients
                steps.append((draw(), 0.1, 1e-3, 1e-12, 1e-300)[rng.integers(5)])
        expected = np.array([trial for s in steps for trial in candidate_moves_reference(params, n, d, box, s)])
        trials = collage._candidate_moves(params, n, d, box, steps)
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
        stack_A, stack_b = _project(A, b, box, s_max)
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

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        n=st.integers(1, 4),
        step=st.sampled_from([0.3, 0.05, 1e-3]),
        source=st.sampled_from(["field", "scan"]),
        best=st.sampled_from(["incumbent", "random", "tight"]),
        unprojectable=st.booleans(),
        witness=st.sampled_from(["empty", "one", "all", "random"]),
        pitch=st.sampled_from([1 / 64, 0.1, 1e-3, 1 / 3]),
        rounding=st.booleans(),
    )
    @example(0, 2, 1, 0.3, "field", "tight", False, "all", 0.1, True)
    @example(0, 3, 2, 0.05, "scan", "tight", False, "all", 1e-3, True)
    def test_survivors_cover_the_per_candidate_screen(
        self, seed, d, n, step, source, best, unprojectable, witness, pitch, rounding
    ):
        # the screen keeps, in order, every candidate whose out_sq, taken
        # share by share, does not reach best, and every candidate with a
        # block the projection marked NaN.  On the line it screens at the
        # witness points, and at all of L it keeps exactly those; an empty
        # mask takes no images.  Above the line it takes no images and keeps
        # exactly the candidates with a NaN block and those whose kept
        # incumbent shares stay below best.  It only reads the mask.  A
        # tight best lies one ulp above some candidate's out_sq, where a
        # screen with any slack rejects a survivor.  On the line out_sq comes
        # from the fit's tick field or the sorted scan.  The target lies on a
        # dyadic lattice or on one whose pitch is not a power of two; with
        # `rounding` its tree's distances come back a few ulps high
        # (RoundingTree), which _Share's out_sq absorbs
        rng = np.random.default_rng(seed)
        box = Box(np.zeros(d), np.ones(d))
        ticks = round(1 / pitch)
        target = PointSet(rng.integers(0, ticks + 1, (rng.integers(1, 40), d)) * pitch, pitch)
        if rounding and d > 1:
            target._tree = RoundingTree(target.points)
        with mock.patch.object(collage, "FIELD_TICKS_PER_POINT", math.inf):
            field = collage._tick_field(target, box) if source == "field" else None
        maps0 = collage._random_maps(target, box, FitConfig(n=n, s_max=0.9), rng)
        marks = np.zeros(len(target), bool)  # the witness mask each share marks on the line
        shares = [collage._Share(target, m.A, m.b, field, marks) for m in maps0]
        params = np.concatenate([np.concatenate([m.A.ravel(), m.b]) for m in maps0])
        trials = collage._candidate_moves(params, n, d, box, [step])
        blocks = trials.reshape(len(trials), n, -1)
        moved = (trials.view(np.int64) != params.view(np.int64)).reshape(blocks.shape).any(axis=2)
        ci, bi = np.nonzero(moved)
        A, b = _project(blocks[ci, bi, : d * d].reshape(-1, d, d), blocks[ci, bi, d * d :], box, 0.9)
        blocks[ci, bi] = np.concatenate([A.reshape(len(A), -1), b], axis=1)
        if unprojectable:
            nan = rng.random(len(ci)) < 0.1
            blocks[ci[nan], bi[nan]] = np.nan
        unscreened = [c for c, row in enumerate(blocks) if np.isnan(row).any()]
        out_sq = {}  # per candidate without a NaN block
        for c, row in enumerate(blocks):
            if c not in unscreened:
                trial = [
                    collage._Share(target, row[i, : d * d].reshape(d, d), row[i, d * d :], field, marks)
                    if moved[c, i]
                    else shares[i]
                    for i in range(n)
                ]
                out_sq[c] = max(share.out_sq for share in trial)
        value = collage._score(target, shares, math.inf, np.zeros(len(target), bool))
        if best == "tight" and out_sq:
            best = np.nextafter(math.sqrt(rng.choice(list(out_sq.values()))), math.inf)
        else:
            best = value * rng.uniform(0.5, 1.5) if best == "random" else value
        expected = sorted(unscreened + [c for c, sq in out_sq.items() if not math.sqrt(sq) >= best])
        assert survivors_reference(target, blocks, moved, shares, best) == expected

        mask = rng.random(len(target)) < {"random": rng.uniform(), "all": 1.0}.get(witness, 0.0)
        if witness == "one":
            mask[rng.integers(len(target))] = True
        before, images = mask.copy(), []  # the images each call takes: ticks, or points before the snap
        line_ticks, snap = collage._line_ticks, collage._snap

        def ticks(*args):
            images.append(line_ticks(*args))
            return images[-1]

        def snapped(points, resolution):
            images.append(points)
            return snap(points, resolution)

        with mock.patch.object(collage, "_line_ticks", ticks), mock.patch.object(collage, "_snap", snapped):
            survivors = collage._survivors(target, field, blocks, moved, shares, best, mask)
            assert len(images) == (1 if d == 1 and mask.any() else 0)
        assert survivors.dtype.kind == "i" and (np.diff(survivors) > 0).all()
        assert set(expected) <= set(survivors.tolist())
        if d == 1 and mask.all():
            assert not set(survivors.tolist()) - set(expected)
        if d > 1:
            kept = [max([shares[i].out_sq for i in range(n) if not moved[c, i]], default=0.0) for c in out_sq]
            assert survivors.tolist() == sorted(unscreened + [c for c, sq in zip(out_sq, kept) if math.sqrt(sq) < best])
        assert (mask == before).all()

    def test_unprojectable_rows_come_back_nan(self):
        # an infinite offset, a NaN slope and a map of the plane whose image
        # stays wider than a 1e-8 thin axis never fit: where the per-map
        # projection raises at the 64th shrink, the stack marks the row NaN
        # and leaves the other rows as they are alone; _project_maps raises
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
            stack_A, stack_b = _project(
                np.array([feasible[0], A, feasible[0]]), np.array([feasible[1], b, feasible[1]]), box, 0.9
            )
            assert np.isnan(stack_A[1]).all() and np.isnan(stack_b[1]).all()
            alone = project_reference(*feasible, box, 0.9)
            for k in (0, 2):
                assert stack_A[k].tobytes() == alone[0].tobytes() and stack_b[k].tobytes() == alone[1].tobytes()
            with pytest.raises(PreconditionError) as public:
                _project_maps(A[None], b[None], box, 0.9)
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

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 3),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        smax=st.sampled_from([0.3, 0.6, 0.9]),
        mix=st.sampled_from([None, 0.0, 0.05, 0.3]),
        pitch=st.sampled_from([1e-4, 1e-3, 1e-2]),
    )
    def test_collage_inequality_holds_for_random_systems(self, dim, n, seed, smax, mix, pitch):
        """h(L, A) <= collage_bound(h(L, W(L)), t) for any compact L.  The
        bound is taken from collage_distance, whose W(L) is snapped at L's
        pitch, within pitch sqrt(d)/2 of the exact image, a slack the bound
        divides by 1 - t.  A is rendered at depth k and pitch delta, within
        t^k/(1 - t) h(seed, W(seed)) + delta sqrt(d)/(2(1 - t)) of A.  L is
        uniform in the box (mix None) or a chaos-game orbit of S mixed with
        another system by the weight `mix`."""
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1.0, 1.0, dim)
        box = Box(lo, lo + rng.uniform(0.5, 2.0, dim))
        S, other = random_ifs(rng, box, n, smax), random_ifs(rng, box, n, smax)
        if mix is None:
            target = PointSet(rng.uniform(box.lo, box.hi, (int(rng.integers(1, 60)), dim)), pitch)
        else:
            T = IFS(box, tuple(
                AffineMap((1 - mix) * f.A + mix * g.A, (1 - mix) * f.b + mix * g.b) for f, g in zip(S.maps, other.maps)
            ))
            target = chaos_game(T, 200, seed=int(rng.integers(2**32)), resolution=pitch)
        t = S.contractivity
        bound = collage_bound(collage_distance(S, target), t)
        # n^depth * 2^d images near 1e5 at the last step, before deduplication
        depth = 64 if n == 1 else int(math.log(1e5 / 2**dim) / math.log(n))
        delta = default_resolution(dim)
        start = box_seed(box, delta)
        images = np.vstack([f.transform(start.points) for f in S.maps])
        slack = pitch * math.sqrt(dim) / (2.0 * (1.0 - t))
        slack += t**depth / (1.0 - t) * exact_hausdorff(start.points, images)
        slack += delta * math.sqrt(dim) / (2.0 * (1.0 - t))
        assert hausdorff(target, attractor_points(S, depth, start)) <= bound + slack + 1e-12


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
        kernel = collage._score  # every candidate is scored here; the baseline by hausdorff
        monkeypatch.setattr(collage, "_score", lambda *args: scored.append(1) or kernel(*args))
        cfg = FitConfig(n=3, restarts=3, max_iters=200)
        assert fit_ifs(target, cfg, init_maps=maps) == FitResult(IFS(box, maps), 0.0, (0.0,))
        assert len(scored) <= cfg.restarts

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

    def test_default_budget_plane_fit_is_recorded(self):
        # a whole default-budget 2D fit (8 restarts of up to 200 sweeps) on a
        # 32x32 raster of two rotated similitudes, 22 points: the sha256 of
        # every coefficient, the distance and the history, as recorded before
        # the plane's sweeps were screened at witness points
        def similitude(scale, theta, fixed):
            A = scale * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            return AffineMap(A, np.asarray(fixed) - A @ np.asarray(fixed))

        box = Box([0.0, 0.0], [1.0, 1.0])
        system = IFS(box, (similitude(0.4, 0.7, [0.3, 0.35]), similitude(0.4, -1.1, [0.7, 0.65])))
        render = attractor_points(system, 8, box_seed(box, 1e-3))
        target = raster_to_points(render_raster(render, box, 32), 1 / 32)
        assert len(target) == 22
        result = fit_ifs(target, FitConfig(n=2))
        digest = hashlib.sha256()
        for m in result.ifs.maps:
            digest.update(m.A.tobytes() + m.b.tobytes())
        digest.update(np.array([result.distance, *result.history]).tobytes())
        assert digest.hexdigest() == "d4c162fc8a7c77bd5696886376a90f481bc20fea1a43e317b74fcb413c23c547"

    def test_default_budget_dust_fit_is_recorded(self):
        # a whole default-budget 2D fit on a 16x16 raster of three maps of
        # scale 0.3, 34 points: the sha256 of every coefficient, the distance
        # and the history, as recorded while the plane's sweeps still bounded
        # each moved map's out_sq at the witness points, a bound that
        # rejected about 5.6% of this fit's candidates
        box = Box([0.0, 0.0], [1.0, 1.0])
        system = IFS(box, tuple(AffineMap(0.3 * np.eye(2), b) for b in ([0.0, 0.0], [0.7, 0.0], [0.35, 0.7])))
        render = attractor_points(system, 10, box_seed(box, 1e-3))
        target = raster_to_points(render_raster(render, box, 16), 1 / 16)
        assert len(target) == 34
        result = fit_ifs(target, FitConfig(n=3))
        digest = hashlib.sha256()
        for m in result.ifs.maps:
            digest.update(m.A.tobytes() + m.b.tobytes())
        digest.update(np.array([result.distance, *result.history]).tobytes())
        assert digest.hexdigest() == "8d3c3215bebc8202beb784948eb96080cf7849bf5faf78afa78ee53c2cf2ea58"

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_baseline_value_equals_its_collage_distance(self, monkeypatch, dim):
        # every descent ends at inf, so the fit returns the constant-map
        # baseline with the value it scored from the maps' n translations
        monkeypatch.setattr(collage, "_descend", lambda target, box, cfg, maps0, field: (maps0, math.inf, [math.inf]))
        rng = np.random.default_rng(dim)
        pitch = default_resolution(dim)
        for trial in range(20):
            size = int(rng.integers(1, 40))
            if trial % 2:  # lattice points: duplicate picks and tied distances
                target = PointSet(rng.integers(0, 4, (size, dim)) * 8 * pitch, pitch)
            else:
                target = PointSet(rng.uniform(0, 1, (size, dim)), pitch)
            for n in range(1, 6):
                result = fit_ifs(target, FitConfig(n=n, restarts=1))
                assert result.baseline_fallback
                assert result.distance == collage_distance(result.ifs, target)

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
        for k, fitted in enumerate(align_chain(fit.sequence).terms, start=1):
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
