"""Command line surface: dist, attractor, analyze, collage-fit, predict.

Exit codes: 0 success, 2 parse or validation error, 3 resource cap exceeded
(points, vertices, or a --px raster above formats.MAX_PIXELS), 4 precondition
failure.  `collage-fit` and `predict` share the fit flags (--seed, --restarts,
--iters, --s-max, --delta, --threshold, --domain-lo, --domain-hi); `attractor`
and `predict` share the render flags (--depth, --image, --px).  `attractor`,
`collage-fit` and `predict` also write a manifest beside their outputs,
recording inputs (with digests), flags, seeds, and versions, so any such run
can be reproduced byte for byte; `analyze --limit-out` writes the limit spec
alone.  IFSSEQ_SEED overrides the default seed when --seed is not given.
Negative --domain-lo/--domain-hi bounds take the `=` form, as in
--domain-lo=-1,-1: after a space argparse reads "-1,-1" as an option.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .attractor import PointSet, attractor_points, default_resolution
from .collage import ExtrapolationModel, FitConfig, collage_bound, extrapolate, fit_ifs, fit_sequence
from .errors import InputError, PreconditionError, ResourceLimitError
from .formats import (
    _write_json,
    foreground_mask,
    read_ifs,
    read_points_csv,
    read_raster,
    read_sequence,
    render_raster,
    raster_to_points,
    write_ifs,
    write_pgm,
    write_points_csv,
)
from .maps import Box
from .sequences import align_chain, analyze_sequence
from .systems import cost_matrix, optimal_matching

MODEL_NAMES = {"last": "hold-last", "linear": "linear", "geometric": "geometric"}
RATIONAL_DENOMINATOR_CAP = 10**6


def default_seed() -> int:
    env = os.environ.get("IFSSEQ_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"IFSSEQ_SEED must be an integer, got {env!r}") from exc


def format_value(x: float) -> str:
    """Decimal, plus the exact rational when one reconstructs the value."""
    frac = Fraction(x).limit_denominator(RATIONAL_DENOMINATOR_CAP)
    if abs(float(frac) - x) <= 1e-12 and frac.denominator <= RATIONAL_DENOMINATOR_CAP:
        if frac.denominator == 1:
            return f"{x:.10f} ({frac.numerator})"
        return f"{x:.10f} ({frac.numerator}/{frac.denominator})"
    return f"{x:.10f}"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_manifest(out_path, command: str, flags: dict, inputs: list, outputs: list):
    import scipy  # here, not at import: a bare CLI start loads no scipy

    manifest = {
        "command": command,
        "flags": flags,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "outputs": [str(p) for p in outputs],
        "versions": {
            "ifsseq": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    _write_json(out_path, manifest)


def _parse_domain(lo: str | None, hi: str | None):
    if lo is None and hi is None:
        return None
    if lo is None or hi is None:
        raise InputError("--domain-lo and --domain-hi must be given together")
    try:
        lo_vec = [float(v) for v in lo.split(",")]
        hi_vec = [float(v) for v in hi.split(",")]
    except ValueError as exc:
        raise InputError(f"bad domain bounds: {exc}") from exc
    return Box(lo_vec, hi_vec)


def _require_out_dirs(*paths):
    """Refuse outputs in a missing directory before any work is done."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise InputError(f"cannot write {path}: No such file or directory")


def _load_frame(path, pitch: float | None, threshold: int | None) -> PointSet:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return read_points_csv(path, 1e-3 if pitch is None else pitch)
    arr, maxval = read_raster(path)
    mask = foreground_mask(arr, maxval, threshold)
    width = arr.shape[1]
    return raster_to_points(mask, 1.0 / width if pitch is None else pitch)


def _fit_setup(args):
    """FitConfig, declared domain and manifest flags from the fit flags."""
    cfg = FitConfig(
        n=args.n,
        restarts=args.restarts,
        max_iters=args.iters,
        s_max=args.s_max,
        seed=args.seed if args.seed is not None else default_seed(),
    )
    flags = {
        "n": args.n,
        "restarts": args.restarts,
        "iters": args.iters,
        "s_max": args.s_max,
        "seed": cfg.seed,
    }
    return cfg, _parse_domain(args.domain_lo, args.domain_hi), flags


def _render(system, args, delta):
    """Resolution, attractor points at --depth, and the --px raster when
    --image is set (None otherwise)."""
    resolution = default_resolution(system.dim) if delta is None else delta
    render = attractor_points(system, args.depth, resolution=resolution)
    mask = render_raster(render, system.domain, args.px) if args.image else None
    return resolution, render, mask


def cmd_dist(args) -> int:
    S = read_ifs(args.file_a)
    T = read_ifs(args.file_b)
    C = cost_matrix(S, T)
    sigma, value = optimal_matching(C)
    print(f"D = {format_value(value)}, sigma = {sigma.describe()}")
    print("cost matrix:")
    for row in C:
        print("  " + "  ".join(repr(float(v)) for v in row))
    return 0


def cmd_attractor(args) -> int:
    _require_out_dirs(args.out, args.image)
    resolution, render, mask = _render(read_ifs(args.file), args, args.delta)
    outputs = []
    if args.out:
        write_points_csv(args.out, render)
        outputs.append(args.out)
        print(f"wrote {len(render)} points to {args.out}")
    else:
        print(f"rendered {len(render)} points at depth {args.depth}, delta {resolution}")
    if args.image:
        write_pgm(args.image, mask)
        outputs.append(args.image)
        print(f"wrote raster {mask.shape[1]}x{mask.shape[0]} to {args.image}")
    if outputs:
        manifest = str(outputs[0]) + ".manifest.json"
        write_manifest(
            manifest,
            "attractor",
            {"depth": args.depth, "delta": resolution, "px": args.px},
            [args.file],
            outputs,
        )
    return 0


def cmd_analyze(args) -> int:
    """Report on a sequence file.  Every figure comes from one cost tensor of
    the terms (analyze_sequence); a failed limit extraction is reported with
    the Cauchy index, then raised."""
    _require_out_dirs(args.limit_out)
    seq = read_sequence(args.seqfile)
    report = analyze_sequence(seq, args.eps)
    print(f"terms: {len(seq)}, arity: {seq.n}, dim: {seq.domain.dim}")
    print("alignment:", " ".join(p.describe() for p in report.alignment))
    consecutive = [report.pairwise[j, j + 1] for j in range(len(seq) - 1)]
    if consecutive:
        print("consecutive D:", " ".join(f"{v:.6g}" for v in consecutive))
    if not report.mo_set:
        print("note: minimal ordering is not transitive over these terms")
    if report.failure is not None:
        if isinstance(report.failure, PreconditionError):
            print(f"limit extraction failed: {report.failure}")
            print(f"cauchy index at eps={args.eps}: {report.cauchy_at}")
        raise report.failure
    print(f"decreasing: {report.decreasing}")
    print(f"eventually decreasing at: {report.eventually_decreasing_at}")
    print(f"cauchy at eps={args.eps}: {report.cauchy_at}")
    print(f"residual: {format_value(report.residual)}")
    if args.limit_out:
        write_ifs(args.limit_out, report.limit)
        print(f"limit candidate written to {args.limit_out}")
    return 0


def cmd_collage_fit(args) -> int:
    _require_out_dirs(args.out)
    target = _load_frame(args.image, args.delta, args.threshold)
    cfg, domain, fit_flags = _fit_setup(args)
    result = fit_ifs(target, cfg, domain=domain)
    bound = collage_bound(result.distance, result.ifs.contractivity)
    write_ifs(args.out, result.ifs)
    print(f"collage distance = {format_value(result.distance)}")
    print(f"contractivity    = {result.ifs.contractivity:.10f}")
    print(f"collage bound    = {format_value(bound)}")
    if result.baseline_fallback:
        print("warning: search never beat the constant-map baseline")
    print(f"spec written to {args.out}")
    write_manifest(
        str(args.out) + ".manifest.json",
        "collage-fit",
        {**fit_flags, "delta": args.delta, "threshold": args.threshold},
        [args.image],
        [args.out],
    )
    return 0


def _frame_paths(directory) -> list:
    exts = {".pgm", ".pbm", ".csv"}
    paths = sorted(
        p for p in Path(directory).iterdir() if p.suffix.lower() in exts
    )
    if not paths:
        raise InputError(f"{directory}: no frame files (.pgm/.pbm/.csv) found")
    return paths


def cmd_predict(args) -> int:
    out_spec = Path(args.out_prefix + ".ifs.json")
    out_csv = Path(args.out_prefix + ".points.csv")
    _require_out_dirs(out_spec, args.image)
    model = ExtrapolationModel(MODEL_NAMES[args.model], horizon=args.horizon, s_max=args.s_max)
    source = Path(args.frames)
    if source.is_dir():
        paths = _frame_paths(source)
        frames = [_load_frame(p, args.delta, args.threshold) for p in paths]
        if len(frames) < 2:
            raise PreconditionError("prediction needs at least 2 frames")
        cfg, domain, fit_flags = _fit_setup(args)
        fit = fit_sequence(frames, cfg, domain=domain)
        sequence = fit.sequence
        print("per-frame collage distances:", " ".join(f"{v:.6g}" for v in fit.distances))
        inputs = paths
    else:
        sequence = align_chain(read_sequence(source))
        if len(sequence) < 2:
            raise PreconditionError("prediction needs at least 2 terms")
        inputs = [source]
        fit_flags = {}
    # each distinct extrapolation warning becomes one line, like collage-fit's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        predicted = extrapolate(sequence, model)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}")
    resolution, render, mask = _render(predicted, args, args.render_delta)
    write_ifs(out_spec, predicted)
    write_points_csv(out_csv, render)
    outputs = [out_spec, out_csv]
    if args.image:
        write_pgm(args.image, mask)
        outputs.append(Path(args.image))
    print(f"extrapolated spec written to {out_spec}")
    print(f"attractor ({len(render)} points) written to {out_csv}")
    write_manifest(
        args.out_prefix + ".manifest.json",
        "predict",
        {
            **fit_flags,
            "model": args.model,
            "horizon": args.horizon,
            "depth": args.depth,
            "render_delta": resolution,
            "delta": args.delta,
            "threshold": args.threshold,
            "px": args.px,
        },
        inputs,
        outputs,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsseq",
        description="Metric-space toolkit for n-map iterated function systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--restarts", type=int, default=8)
    fit.add_argument("--iters", type=int, default=200)
    fit.add_argument("--s-max", type=float, default=0.95, dest="s_max")
    fit.add_argument("--delta", type=float, default=None, help="frame point pitch override")
    fit.add_argument("--threshold", type=int, default=None, help="graymap foreground threshold")
    fit.add_argument(
        "--domain-lo", default=None, dest="domain_lo",
        help="declared box floor, comma-separated; negative bounds need the = form, --domain-lo=-1,-1",
    )
    fit.add_argument(
        "--domain-hi", default=None, dest="domain_hi",
        help="declared box ceiling, comma-separated; negative bounds need the = form, --domain-hi=-0.5,1",
    )

    render = argparse.ArgumentParser(add_help=False)
    render.add_argument("--depth", type=int, default=10)
    render.add_argument("--image", default=None, help="optional PGM raster of the attractor")
    render.add_argument("--px", type=int, default=512, help="raster width in pixels")

    p = sub.add_parser("dist", help="assignment metric D between two systems")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("attractor", parents=[render], help="render the attractor of a system")
    p.add_argument("file")
    p.add_argument("--delta", type=float, default=None, help="snap resolution")
    p.add_argument("--out", default=None, help="points CSV path")
    p.set_defaults(func=cmd_attractor)

    p = sub.add_parser("analyze", help="alignment, monotonicity, Cauchy and limit report")
    p.add_argument("seqfile")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--limit-out", default=None, help="write the limit candidate spec here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("collage-fit", parents=[fit], help="fit a system to an image or CSV point set")
    p.add_argument("image")
    p.add_argument("--n", type=int, required=True, help="number of maps")
    p.add_argument("--out", required=True, help="output spec path")
    p.set_defaults(func=cmd_collage_fit)

    p = sub.add_parser(
        "predict", parents=[fit, render], help="fit frames, extrapolate, render the predicted attractor"
    )
    p.add_argument("frames", help="directory of frames or a sequence spec file")
    p.add_argument("--model", choices=sorted(MODEL_NAMES), required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--render-delta", type=float, default=None, dest="render_delta")
    p.add_argument("--out-prefix", default="predicted", dest="out_prefix")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
