"""Command line surface: dist, attractor, analyze, collage-fit, predict.

Exit codes: 0 success, 2 parse or validation error, 3 resource cap exceeded
(points, vertices, a --px raster above formats.MAX_PIXELS, or a cost tensor
above systems.COST_TENSOR_CAP entries), 4 precondition failure.
`collage-fit` and `predict` share the fit flags (--seed, --restarts,
--iters, --s-max, --delta, --threshold, --domain-lo, --domain-hi); `attractor`
and `predict` share the render flags (--depth, --image, --px).  `attractor`,
`collage-fit` and `predict` also write a manifest beside their outputs,
recording inputs (with digests), flags, seeds, and versions, so any such run
can be reproduced byte for byte; `analyze --limit-out` writes the limit spec
alone.  Bad flag values, and outputs (manifests too) naming a file twice, a
directory, an input or a file predict reads as a frame, are refused first.
IFSSEQ_SEED overrides the default seed when --seed is not given.
Negative --domain-lo/--domain-hi bounds take the `=` form, as in
--domain-lo=-1,-1: after a space argparse reads "-1,-1" as an option.
The collage module loads in collage-fit and predict over frames only, so
dist, attractor, analyze and predict on a sequence file start without it.
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
from .attractor import PointSet, _check_depth, _check_resolution, attractor_points, default_resolution
from .errors import InputError, PreconditionError, ResourceLimitError
from .formats import (
    _check_width,
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
from .maps import Box, _check_s_max
from .sequences import ExtrapolationModel, _check_eps, analyze_sequence, extrapolate
from .systems import cost_matrix, optimal_matching

MODEL_NAMES = {"last": "hold-last", "linear": "linear", "geometric": "geometric"}
RATIONAL_DENOMINATOR_CAP = 10**6
FRAME_SUFFIXES = (".pgm", ".pbm", ".csv")  # the files of a frame directory that predict reads


def default_seed() -> int | None:
    """IFSSEQ_SEED as an integer, or None (FitConfig's seed) when unset."""
    env = os.environ.get("IFSSEQ_SEED")
    if env is None:
        return None
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


def _file_key(path):
    """What identifies the file a path names: its device and inode when it
    exists (one stat, where resolving every link takes one per component),
    else its absolute path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.abspath(path)
    return st.st_dev, st.st_ino


def _require_outputs(inputs, *outputs):
    """Refuse, before any work is done, an output in a missing directory, an
    output that is a directory, and an output that names the same file as an
    input or an earlier output, which its write would replace.  Empty or
    unset outputs are not written."""
    named = {_file_key(p): f"input {p}" for p in inputs}
    for path in filter(None, outputs):
        if not Path(path).parent.is_dir():
            raise InputError(f"cannot write {path}: No such file or directory")
        if os.path.isdir(path):
            raise InputError(f"cannot write {path}: Is a directory")
        key = _file_key(path)
        if key in named:
            raise InputError(f"cannot write {path}: it names the same file as {named[key]}")
        named[key] = f"output {path}"


def _load_frame(path, pitch: float | None, threshold: int | None) -> PointSet:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return read_points_csv(path, 1e-3 if pitch is None else pitch)
    arr, maxval = read_raster(path)
    try:  # a blank raster, as every other reader error, names its file
        return raster_to_points(foreground_mask(arr, maxval, threshold), 1.0 / arr.shape[1] if pitch is None else pitch)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _check_flags(args):
    """Refuse, before any input is read, the flags that PointSet, attractor_points,
    render_raster, the Cauchy index and s_max's bound would refuse, by their own
    checks; --delta is a frame or a render pitch, and --image an output only beside --px."""
    flags = vars(args)
    for check, flag in ((_check_resolution, "delta"), (_check_resolution, "render_delta"), (_check_s_max, "s_max")):
        if flags.get(flag) is not None:
            check(flags[flag])
    _check_depth(flags.get("depth", 0))
    if "px" in flags and args.image:
        _check_width(args.px)
    _check_eps(flags.get("eps", 1.0))


def _fit_setup(args):
    """FitConfig, declared domain and manifest flags from the fit flags; an
    unset budget flag takes FitConfig's default, which the manifest records."""
    from .collage import FitConfig
    seed = args.seed if args.seed is not None else default_seed()
    budget = {"restarts": args.restarts, "max_iters": args.iters, "s_max": args.s_max, "seed": seed}
    cfg = FitConfig(n=args.n, **{k: v for k, v in budget.items() if v is not None})
    flags = {"n": cfg.n, "restarts": cfg.restarts, "iters": cfg.max_iters, "s_max": cfg.s_max, "seed": cfg.seed}
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
    outputs = [p for p in (args.out, args.image) if p]
    manifest = outputs[0] + ".manifest.json" if outputs else None
    _require_outputs([args.file], *outputs, manifest)
    resolution, render, mask = _render(read_ifs(args.file), args, args.delta)
    if args.out:
        write_points_csv(args.out, render)
        print(f"wrote {len(render)} points to {args.out}")
    else:
        print(f"rendered {len(render)} points at depth {args.depth}, delta {resolution}")
    if args.image:
        write_pgm(args.image, mask)
        print(f"wrote raster {mask.shape[1]}x{mask.shape[0]} to {args.image}")
    if outputs:
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
    _require_outputs([args.seqfile], args.limit_out)
    seq = read_sequence(args.seqfile)
    report = analyze_sequence(seq, args.eps)
    print(f"terms: {len(seq)}, arity: {seq.n}, dim: {seq.domain.dim}")
    print("alignment:", " ".join(p.describe() for p in report.alignment))
    consecutive = [report.pairwise[j, j + 1] for j in range(len(seq) - 1)]
    if consecutive:
        print("consecutive D:", " ".join(f"{v:.6g}" for v in consecutive))
    if not report.mo_set:
        print("note: minimal ordering is not transitive over these terms")
    if report.failure is not None:  # a PreconditionError: main refuses a bad eps
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
    from .collage import collage_bound, fit_ifs
    manifest = str(args.out) + ".manifest.json"
    _require_outputs([args.image], args.out, manifest)
    cfg, domain, fit_flags = _fit_setup(args)
    target = _load_frame(args.image, args.delta, args.threshold)
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
        manifest,
        "collage-fit",
        {**fit_flags, "delta": args.delta, "threshold": args.threshold},
        [args.image],
        [args.out],
    )
    return 0


def _frame_paths(directory) -> list:
    paths = sorted(p for p in Path(directory).iterdir() if p.suffix.lower() in FRAME_SUFFIXES)
    if not paths:
        raise InputError(f"{directory}: no frame files (.pgm/.pbm/.csv) found")
    return paths


def cmd_predict(args) -> int:
    out_spec = Path(args.out_prefix + ".ifs.json")
    out_csv = Path(args.out_prefix + ".points.csv")
    manifest = args.out_prefix + ".manifest.json"
    source = Path(args.frames)
    inputs = _frame_paths(source) if source.is_dir() else [source]
    _require_outputs(inputs, out_spec, out_csv, args.image, manifest)
    frame_dir = _file_key(source) if source.is_dir() else None
    for path in filter(None, (out_csv, args.image)):  # the spec and manifest suffixes are no frame's
        if Path(path).suffix.lower() in FRAME_SUFFIXES and _file_key(Path(path).parent) == frame_dir:
            raise InputError(f"cannot write {path}: a later run would read it as a frame of {source}")
    overrides = {} if args.s_max is None else {"s_max": args.s_max}
    model = ExtrapolationModel(MODEL_NAMES[args.model], horizon=args.horizon, **overrides)
    if source.is_dir():
        from .collage import fit_sequence
        cfg, domain, fit_flags = _fit_setup(args)
        if len(inputs) < 2:
            raise PreconditionError("prediction needs at least 2 frames")
        frames = [_load_frame(p, args.delta, args.threshold) for p in inputs]
        fit = fit_sequence(frames, cfg, domain=domain)
        sequence = fit.sequence
        print("per-frame collage distances:", " ".join(f"{v:.6g}" for v in fit.distances))
    else:
        sequence = read_sequence(source)
        if len(sequence) < 2:
            raise PreconditionError("prediction needs at least 2 terms")
        fit_flags = {"s_max": model.s_max}  # the projection's bound, the one fit flag read here
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
        manifest,
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
    # the budget flags default to FitConfig's values, resolved in _fit_setup
    fit.add_argument("--restarts", type=int, default=None)
    fit.add_argument("--iters", type=int, default=None)
    fit.add_argument("--s-max", type=float, default=None, dest="s_max")
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
        _check_flags(args)
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
