"""Seeded input generator for the four benchmark workloads.

Every input is built with the public ifsseq API, outside any timing.  The
generator writes only input files (under ``in/``) and the ground truth the
oracles need (under ``truth/``), and returns the job list: one CLI argv per
job, with paths relative to the work directory the jobs run in.  The same
seed gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ifsseq import IFS, AffineMap, Box, attractor_points
from ifsseq.formats import render_raster, write_ifs, write_pgm, write_sequence
from ifsseq.sequences import IFSSequence

WORKLOADS = ("fit2d", "predict1d", "analyze2d", "render2d")

# fit2d: the target shapes come from this fixed catalog seed.  A 2D collage
# search is chaotic in its raster (a 3% jitter of one target's maps moves the
# job between 3 and 70 objective evaluations at ~45 ms each), so shapes drawn
# per run seed would spread jobs_per_s by ~20% between seeds.  The run seed
# draws each target's graymap level and the job order instead.
FIT2D_CATALOG_SEED = 2212
FIT2D_TARGETS = 12
FIT2D_PIXELS = (100, 400)
FIT2D_ARGS = ["--n", "3", "--restarts", "1", "--iters", "1"]

PREDICT1D_JOBS = 4
PREDICT1D_FRAMES = 3
PREDICT1D_WIDTH = 4096
PREDICT1D_HORIZON = 2
PREDICT1D_ARGS = ["--model", "linear", "--n", "2", "--restarts", "1", "--iters", "10"]

# Term counts of the sequences.  The 12-term ones are the longest on which
# `analyze` checks that minimal ordering is transitive (is_mo_set).
ANALYZE2D_TERMS = (30, 30, 12, 30, 30, 12)
ANALYZE2D_MAPS = 4
ANALYZE2D_RATE = 0.7
ANALYZE2D_EPS = 0.05

# Scales and triangle areas that hold the render near 60,000 points (about
# 10% apart between systems), so the job list's cost barely moves with the seed.
RENDER2D_JOBS = 6
RENDER2D_DEPTH = 10
RENDER2D_SCALES = (0.5, 0.53)
RENDER2D_AREA = (0.15, 0.18)

UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])
UNIT_INTERVAL = Box([0.0], [1.0])


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _similitude(scale: float, theta: float, fixed) -> AffineMap:
    """Rotation-scaling about a fixed point."""
    A = scale * _rotation(theta)
    fixed = np.asarray(fixed, dtype=float)
    return AffineMap(A, fixed - A @ fixed)


def _triangle_system(rng, scales, max_turn: float, area) -> IFS:
    """Three similitudes on the unit square, fixed at the corners of a random
    triangle whose area lies in the given range (which, with the scales,
    sets how large the attractor is); redrawn until every map sends the
    square into itself."""
    while True:
        corners = rng.uniform(0.1, 0.9, size=(3, 2))
        u, v = corners[1] - corners[0], corners[2] - corners[0]
        if not area[0] <= abs(u[0] * v[1] - u[1] * v[0]) / 2.0 <= area[1]:
            continue
        maps = tuple(
            _similitude(rng.uniform(*scales), rng.uniform(-max_turn, max_turn), corner)
            for corner in corners
        )
        if all(m.maps_into(UNIT_SQUARE) for m in maps):
            return IFS(UNIT_SQUARE, maps)


def _fit2d_catalog() -> list[np.ndarray]:
    """Foreground masks of 3-map self-affine targets, each rendered over its
    own bounding box at a width that lands it in FIT2D_PIXELS."""
    rng = np.random.default_rng(FIT2D_CATALOG_SEED)
    masks = []
    while len(masks) < FIT2D_TARGETS:
        system = _triangle_system(rng, (0.45, 0.55), 0.3, (0.2, 0.4))
        width = int(rng.integers(14, 23))
        points = attractor_points(system, 8, resolution=1e-3)
        frame = Box(points.points.min(axis=0), points.points.max(axis=0))
        mask = render_raster(points, frame, width)
        if FIT2D_PIXELS[0] <= int(mask.sum()) <= FIT2D_PIXELS[1]:
            masks.append(mask)
    return masks


def _fit2d(rng, root: Path) -> list[dict]:
    jobs = []
    for k, mask in enumerate(_fit2d_catalog()):
        target = f"in/target{k:02d}.pgm"
        write_pgm(root / target, mask, maxval=int(rng.integers(128, 256)))
        out = f"out/fit{k:02d}.ifs.json"
        jobs.append(
            {
                "id": f"fit{k:02d}",
                "argv": ["collage-fit", target, *FIT2D_ARGS, "--seed", "0", "--out", out],
                "inputs": [target],
                "outputs": [out, out + ".manifest.json"],
            }
        )
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _drifting_pair(rng):
    """A 1D two-map family S(t) whose coefficients move linearly in t, so a
    linear extrapolation of exact fits recovers S at any horizon.  The scales
    keep the similarity dimension near 0.85, about 1,600 of 4,096 pixels."""
    dim = 0.85
    a1 = rng.uniform(0.40, 0.46)
    a2 = (1.0 - a1**dim) ** (1.0 / dim)
    da = rng.uniform(-0.004, 0.004, size=2)
    b1 = rng.uniform(0.012, 0.04)
    db = rng.uniform(-0.002, 0.004)

    def system(t: float) -> IFS:
        s1, s2 = a1 + da[0] * t, a2 + da[1] * t
        return IFS(
            UNIT_INTERVAL,
            (AffineMap([[s1]], [b1 + db * t]), AffineMap([[s2]], [1.0 - s2])),
        )

    return system


def _predict1d(rng, root: Path) -> list[dict]:
    jobs = []
    for k in range(PREDICT1D_JOBS):
        system = _drifting_pair(rng)
        frames = f"in/frames{k:02d}"
        (root / frames).mkdir(parents=True)
        for t in range(PREDICT1D_FRAMES):
            points = attractor_points(system(t), 14, resolution=1e-5)
            write_pgm(root / frames / f"f{t}.pgm", render_raster(points, UNIT_INTERVAL, PREDICT1D_WIDTH))
        truth = f"truth/predict{k:02d}.ifs.json"
        write_ifs(root / truth, system(PREDICT1D_FRAMES - 1 + PREDICT1D_HORIZON))
        prefix = f"out/predict{k:02d}"
        jobs.append(
            {
                "id": f"predict{k:02d}",
                "argv": [
                    "predict", frames, *PREDICT1D_ARGS,
                    "--horizon", str(PREDICT1D_HORIZON), "--seed", "0",
                    "--domain-lo", "0", "--domain-hi", "1", "--out-prefix", prefix,
                ],
                "inputs": [f"{frames}/f{t}.pgm" for t in range(PREDICT1D_FRAMES)],
                "outputs": [prefix + ".ifs.json", prefix + ".points.csv", prefix + ".manifest.json"],
                "truth": truth,
            }
        )
    return jobs


def _converging_sequence(rng, length: int):
    """Terms S_j -> L with factors decreasing in every slot, and the slots of
    each term shuffled, so `analyze` must realign the chain to find L.
    Parameters are redrawn until every term maps the unit square into itself."""
    n = ANALYZE2D_MAPS
    corners = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    while True:
        fixed = corners + rng.uniform(-0.05, 0.05, size=(n, 2))
        scale = rng.uniform(0.2, 0.3, size=n)
        theta = rng.uniform(-0.6, 0.6, size=n)
        grow = rng.uniform(0.1, 0.2, size=n)
        turn = rng.uniform(-0.2, 0.2, size=n)
        drift = rng.uniform(-0.05, 0.05, size=(n, 2))

        def term(j: float) -> tuple:
            r = ANALYZE2D_RATE**j
            return tuple(
                _similitude(scale[i] * (1.0 + grow[i] * r), theta[i] + turn[i] * r, fixed[i] + drift[i] * r)
                for i in range(n)
            )

        terms = [term(j) for j in range(1, length + 1)] + [term(np.inf)]
        if all(m.maps_into(UNIT_SQUARE) for maps in terms for m in maps):
            break
    shuffled = tuple(
        IFS(UNIT_SQUARE, tuple(maps[i] for i in rng.permutation(n))) for maps in terms[:-1]
    )
    return IFSSequence(shuffled), IFS(UNIT_SQUARE, terms[-1])


def _analyze2d(rng, root: Path) -> list[dict]:
    jobs = []
    for k, length in enumerate(ANALYZE2D_TERMS):
        sequence, limit = _converging_sequence(rng, length)
        seq_path = f"in/sequence{k:02d}.json"
        write_sequence(root / seq_path, sequence)
        truth = f"truth/limit{k:02d}.ifs.json"
        write_ifs(root / truth, limit)
        out = f"out/limit{k:02d}.ifs.json"
        jobs.append(
            {
                "id": f"analyze{k:02d}",
                "argv": ["analyze", seq_path, "--eps", str(ANALYZE2D_EPS), "--limit-out", out],
                "inputs": [seq_path],
                "outputs": [out],
                "truth": truth,
            }
        )
    return jobs


def _render2d(rng, root: Path) -> list[dict]:
    jobs = []
    for k in range(RENDER2D_JOBS):
        spec = f"in/system{k:02d}.ifs.json"
        write_ifs(root / spec, _triangle_system(rng, RENDER2D_SCALES, 0.3, RENDER2D_AREA))
        csv, pgm = f"out/render{k:02d}.csv", f"out/render{k:02d}.pgm"
        jobs.append(
            {
                "id": f"render{k:02d}",
                "argv": ["attractor", spec, "--depth", str(RENDER2D_DEPTH), "--out", csv, "--image", pgm],
                "inputs": [spec],
                "outputs": [csv, pgm, csv + ".manifest.json"],
            }
        )
    return jobs


GENERATORS = {"fit2d": _fit2d, "predict1d": _predict1d, "analyze2d": _analyze2d, "render2d": _render2d}
READERS = {"fit2d": "raster", "predict1d": "raster", "analyze2d": "sequence", "render2d": "ifs"}


def generate(workload: str, seed: int, root) -> list[dict]:
    """Write the workload's inputs and ground truth under root; return its jobs."""
    root = Path(root)
    for sub in ("in", "truth", "out"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](rng, root)
