"""Default-budget collage fits on eight fixed targets, one table row each.

A plane target is a generator's depth-10 render (pitch 1e-3) rasterised
over the unit square at 32 or 64 px; a line target is a depth-14 render
(pitch 1e-5) rasterised over the unit interval at 1024 or 4096 px, as the
predict1d benchmark renders its frames.  Each is fitted with
FitConfig(n=the generator's n) on its bounding box.  A row gives the
target's point count N, the fit's CPU seconds (time.process_time, BLAS at
one thread), its collage distance in pixels, and the sha256 of every fitted
coefficient, the distance and the history, the digest the recorded-fit
tests take.  Equal digests on two checkouts mean their fits are
byte-identical.  With --repeat K each target is fitted K times and its row
gives the median CPU; the script exits 1 if the K digests differ.

    python scripts/fit_table.py                     # all eight targets
    python scripts/fit_table.py sierpinski32 rot2   # some of them
    python scripts/fit_table.py --repeat 5          # median CPU of 5 fits
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import hashlib
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from ifsseq import IFS, AffineMap, Box, attractor_points, box_seed  # noqa: E402
from ifsseq.collage import FitConfig, fit_ifs  # noqa: E402
from ifsseq.formats import raster_to_points, render_raster  # noqa: E402

UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])
UNIT_INTERVAL = Box([0.0], [1.0])


def _similitude(scale: float, theta: float, fixed) -> AffineMap:
    A = scale * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return AffineMap(A, np.asarray(fixed) - A @ np.asarray(fixed))


_PAIR_SCALE = (1.0 - 0.43**0.85) ** (1.0 / 0.85)


def _generators() -> dict:
    corners = ([0.0, 0.0], [0.5, 0.0], [0.25, 0.5])
    return {
        "sierpinski": tuple(AffineMap(0.5 * np.eye(2), b) for b in corners),
        "sheared": tuple(AffineMap([[0.5, 0.15], [0.0, 0.45]], b) for b in ([0.0, 0.0], [0.35, 0.0], [0.2, 0.5])),
        "dust3": tuple(AffineMap(0.3 * np.eye(2), b) for b in ([0.0, 0.0], [0.7, 0.0], [0.35, 0.7])),
        # the two rotated similitudes of the plane fit recorded in tests/test_collage.py
        "rot2": (_similitude(0.4, 0.7, [0.3, 0.35]), _similitude(0.4, -1.1, [0.7, 0.65])),
        "cantor": (AffineMap([[1 / 3]], [0.0]), AffineMap([[1 / 3]], [2 / 3])),
        # a frame of the predict1d benchmark's kind: two scales of similarity
        # dimension 0.85, the second map fixing 1
        "pair": (AffineMap([[0.43]], [0.025]), AffineMap([[_PAIR_SCALE]], [1.0 - _PAIR_SCALE])),
    }


TARGETS = {  # name: (generator, raster width in px)
    "sierpinski32": ("sierpinski", 32),
    "sheared32": ("sheared", 32),
    "dust3": ("dust3", 32),
    "rot2": ("rot2", 32),
    "sierpinski64": ("sierpinski", 64),
    "sheared64": ("sheared", 64),
    "cantor1024": ("cantor", 1024),
    "pair4096": ("pair", 4096),
}


def _fit(target, n: int):
    """(CPU seconds, result, digest) of one default fit."""
    start = time.process_time()
    result = fit_ifs(target, FitConfig(n=n))
    cpu = time.process_time() - start
    digest = hashlib.sha256()
    for m in result.ifs.maps:
        digest.update(m.A.tobytes() + m.b.tobytes())
    digest.update(np.array([result.distance, *result.history]).tobytes())
    return cpu, result, digest.hexdigest()


def fit_row(name: str, repeat: int = 1) -> str:
    """The target's row, its CPU the median of `repeat` fits; exits 1 if
    their digests differ."""
    generator, px = TARGETS[name]
    maps = _generators()[generator]
    box, depth, pitch = (UNIT_INTERVAL, 14, 1e-5) if maps[0].dim == 1 else (UNIT_SQUARE, 10, 1e-3)
    render = attractor_points(IFS(box, maps), depth, box_seed(box, pitch))
    target = raster_to_points(render_raster(render, box, px), 1.0 / px)
    cpus, results, digests = zip(*(_fit(target, len(maps)) for _ in range(repeat)))
    if len(set(digests)) > 1:
        sys.exit(f"{name}: the {repeat} fits' digests differ")
    cpu = statistics.median(cpus)
    return f"| {name} | {len(target)} | {cpu:.2f} s | {results[0].distance * px:.2f} px | {digests[0]} |"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="target", help="targets to fit (default: all eight)")
    parser.add_argument("--repeat", type=int, default=1, metavar="K", help="fits per target; the row gives the median CPU")
    args = parser.parse_args(argv)
    names = args.names or list(TARGETS)
    unknown = [name for name in names if name not in TARGETS]
    if unknown:
        print(f"unknown target {unknown[0]}; choose from {', '.join(TARGETS)}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("--repeat must be at least 1", file=sys.stderr)
        return 2
    print("| target | N | CPU | collage | sha256 |")
    print("|---|---|---|---|---|")
    for name in names:
        print(fit_row(name, args.repeat), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
