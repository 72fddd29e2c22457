"""Output oracles, run after the timed jobs.

Each check re-reads a job's output files, recomputes what it can by an
independent route (brute-force Hausdorff, brute-force matching, a separate
render and a chaos-game orbit checked with scipy's KD-tree) and raises
OracleError on any disagreement.  It returns the job's quality readings,
``collage_distance_mean`` and ``predict_d_err``, where they apply.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from ifsseq import PointSet, box_seed, chaos_game, default_resolution, hausdorff_brute, hutchinson
from ifsseq.formats import foreground_mask, raster_to_points, read_ifs, read_raster, read_sequence, render_raster
from ifsseq.systems import cost_matrix, matching_brute_force, optimal_matching

from inputs import ANALYZE2D_EPS, RENDER2D_DEPTH

PREDICT1D_DEPTH = 10  # the predict command's default render depth

# A predicted system further than this (sum of two bounded sup-distances)
# from the truth at the horizon has lost the drifting family.  Over seeds
# 0-29 (120 jobs) the largest D was 0.024 and the median about 0.008.
PREDICT_D_MAX = 0.04
CHAOS_POINTS = 20_000
PRINT_TOL = 1e-9  # the CLI prints distances with 10 decimals


class OracleError(Exception):
    """An output failed its check."""


def _require(condition: bool, message: str):
    if not condition:
        raise OracleError(message)


def _printed_values(stdout: str, label: str) -> list[float]:
    for line in stdout.splitlines():
        if line.startswith(label):
            return [float(tok) for tok in line[len(label):].replace("=", " ").split() if not tok.startswith("(")]
    raise OracleError(f"no '{label}' line in the output")


def _read_points(path: Path, stdout: str, pattern: str) -> np.ndarray:
    """The CSV's points; their count must match the one the CLI printed."""
    points = np.loadtxt(path, delimiter=",", ndmin=2)
    match = re.search(pattern, stdout)
    _require(match is not None, f"no point count printed for {path.name}")
    _require(len(points) == int(match.group(1)), f"{path.name} holds {len(points)} rows, the CLI printed {match.group(1)}")
    return points


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    """sup over a of the distance to the nearest point of b."""
    return float(cKDTree(b).query(a, k=1)[0].max())


def _render(system, depth: int, resolution: float) -> np.ndarray:
    """Hutchinson iteration from the snapped box vertices, in plain numpy."""
    points = np.unique(np.round(system.domain.vertices() / resolution) * resolution, axis=0)
    for _ in range(depth):
        images = np.vstack([points @ m.A.T + m.b for m in system.maps])
        points = np.unique(np.round(images / resolution) * resolution, axis=0)
    return points


def _render_bound(system, depth: int, resolution: float) -> float:
    """t^depth/(1-t) * h(seed, W(seed)) + 2*delta: how far a depth-`depth`
    render may sit from the attractor (the attractor_convergence_report bound)."""
    seed = box_seed(system.domain, resolution)
    t = system.contractivity
    return t**depth / (1.0 - t) * hausdorff_brute(seed, hutchinson(system, seed)) + 2.0 * resolution


def _check_render(system, points: np.ndarray, depth: int) -> tuple[np.ndarray, float]:
    """Rendered points lie in the domain and within the bound of an
    independent render; returns that render and the bound."""
    resolution = default_resolution(system.dim)
    _require(
        system.domain.contains(points, tol=resolution / 2.0 + 1e-9),
        "a rendered point leaves the domain",
    )
    reference = _render(system, depth, resolution)
    bound = _render_bound(system, depth, resolution)
    h = max(_directed(points, reference), _directed(reference, points))
    _require(h <= bound, f"render is {h:.3g} from an independent render, bound {bound:.3g}")
    return reference, bound


def check_fit2d(job: dict, root: Path, stdout: str) -> dict:
    spec = read_ifs(root / job["outputs"][0])
    raster, maxval = read_raster(root / job["inputs"][0])
    target = raster_to_points(foreground_mask(raster, maxval), 1.0 / raster.shape[1])
    distance = hausdorff_brute(target, hutchinson(spec, target))
    printed = _printed_values(stdout, "collage distance")[0]
    _require(
        abs(distance - printed) <= PRINT_TOL,
        f"printed collage distance {printed} but the spec gives {distance}",
    )
    return {"collage_distance_mean": distance}


def check_predict1d(job: dict, root: Path, stdout: str) -> dict:
    predicted = read_ifs(root / job["outputs"][0])
    truth = read_ifs(root / job["truth"])
    C = cost_matrix(predicted, truth)
    _, d_solver = optimal_matching(C)
    _, d_brute = matching_brute_force(C)
    _require(abs(d_solver - d_brute) <= 1e-12, f"D {d_solver} disagrees with brute force {d_brute}")
    _require(d_brute <= PREDICT_D_MAX, f"prediction is D={d_brute:.3g} from the truth at the horizon")
    points = _read_points(root / job["outputs"][1], stdout, r"attractor \((\d+) points\)")
    _check_render(predicted, points, PREDICT1D_DEPTH)
    distances = _printed_values(stdout, "per-frame collage distances:")
    return {"predict_d_err": d_brute, "collage_distance_mean": float(np.mean(distances))}


def check_analyze2d(job: dict, root: Path, stdout: str) -> dict:
    terms = read_sequence(root / job["inputs"][0]).terms
    printed = _printed_values(stdout, "consecutive D:")
    expected = [matching_brute_force(cost_matrix(a, b))[1] for a, b in zip(terms, terms[1:])]
    _require(len(printed) == len(expected), "wrong number of consecutive distances")
    for j, (got, want) in enumerate(zip(printed, expected), start=1):
        _require(
            math.isclose(got, want, rel_tol=1e-5, abs_tol=1e-12),
            f"D(term {j}, term {j + 1}) printed {got}, brute force {want}",
        )
    aligned = terms[0]
    for term in terms[1:]:
        sigma, _ = matching_brute_force(cost_matrix(aligned, term))
        aligned = term.reordered(sigma)
    limit = read_ifs(root / job["outputs"][0])
    _require(limit == aligned, "limit spec differs from the last aligned term")
    error = matching_brute_force(cost_matrix(limit, read_ifs(root / job["truth"])))[1]
    _require(error < ANALYZE2D_EPS, f"limit spec is D={error:.3g} from the true limit")
    return {}


def check_render2d(job: dict, root: Path, stdout: str) -> dict:
    system = read_ifs(root / job["inputs"][0])
    csv, pgm = root / job["outputs"][0], root / job["outputs"][1]
    points = _read_points(csv, stdout, r"wrote (\d+) points")
    reference, bound = _check_render(system, points, RENDER2D_DEPTH)
    raster, maxval = read_raster(pgm)
    expected = render_raster(PointSet(reference, default_resolution(2)), system.domain, raster.shape[1])
    _require(
        np.array_equal(foreground_mask(raster, maxval), expected),
        "image differs from the raster of an independent render",
    )
    orbit = chaos_game(system, CHAOS_POINTS, seed=0).points
    error = _directed(orbit, points)
    _require(error <= bound, f"chaos-game orbit is {error:.3g} from the render, bound {bound:.3g}")
    return {}


CHECKS = {
    "fit2d": check_fit2d,
    "predict1d": check_predict1d,
    "analyze2d": check_analyze2d,
    "render2d": check_render2d,
}
