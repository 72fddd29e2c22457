"""File formats: system spec files (JSON), point CSVs, and PGM/PBM rasters.

Spec files serialize coefficients with repr, which round-trips float64
exactly.  Rasters convert to point sets by taking foreground pixel centers at
the pixel pitch; rendering at the same pitch inverts the conversion exactly.
All writers go through a temp file plus rename, so readers never observe a
partial file.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .attractor import PointSet
from .errors import InputError
from .maps import AffineMap, Box
from .sequences import IFSSequence
from .systems import IFS


def _atomic_write(path, data: bytes):
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# system spec files

def ifs_to_dict(system: IFS) -> dict:
    return {
        "dim": system.dim,
        "domain": {"lo": system.domain.lo.tolist(), "hi": system.domain.hi.tolist()},
        "maps": [{"A": m.A.tolist(), "b": m.b.tolist()} for m in system.maps],
    }


def _field(obj: dict, key: str, where: str):
    if key not in obj:
        raise InputError(f"{where}: missing field '{key}'")
    return obj[key]


def ifs_from_dict(data: dict, where: str = "spec") -> IFS:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    dim = _field(data, "dim", where)
    domain_obj = _field(data, "domain", where)
    lo = _field(domain_obj, "lo", f"{where}.domain")
    hi = _field(domain_obj, "hi", f"{where}.domain")
    if not isinstance(lo, list) or len(lo) != dim or not isinstance(hi, list) or len(hi) != dim:
        raise InputError(f"{where}.domain: lo/hi must be vectors of length {dim}")
    box = Box(lo, hi)
    raw_maps = _field(data, "maps", where)
    if not isinstance(raw_maps, list) or not raw_maps:
        raise InputError(f"{where}.maps: need a nonempty list")
    maps = []
    for k, entry in enumerate(raw_maps):
        tag = f"{where}.maps[{k}]"
        A = np.asarray(_field(entry, "A", tag), dtype=float)
        b = np.asarray(_field(entry, "b", tag), dtype=float)
        if A.shape == (dim * dim,):  # accept flat row-major as well
            A = A.reshape(dim, dim)
        if A.shape != (dim, dim):
            raise InputError(f"{tag}.A: expected a {dim}x{dim} matrix, got shape {A.shape}")
        if b.shape != (dim,):
            raise InputError(f"{tag}.b: expected a vector of length {dim}")
        try:
            maps.append(AffineMap(A, b))
        except InputError as exc:
            raise InputError(f"{tag}: {exc}") from exc
    try:
        return IFS(box, tuple(maps))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def read_ifs(path) -> IFS:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return ifs_from_dict(data, where=str(path))


def write_ifs(path, system: IFS):
    _atomic_write(path, (json.dumps(ifs_to_dict(system), indent=2) + "\n").encode())


def read_sequence(path) -> IFSSequence:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if isinstance(data, dict):
        data = _field(data, "terms", str(path))
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: expected a nonempty list of systems")
    terms = tuple(
        ifs_from_dict(entry, where=f"{path}[{k}]") for k, entry in enumerate(data)
    )
    return IFSSequence(terms)


def write_sequence(path, seq: IFSSequence):
    payload = {"terms": [ifs_to_dict(term) for term in seq.terms]}
    _atomic_write(path, (json.dumps(payload, indent=2) + "\n").encode())


# ---------------------------------------------------------------------------
# point CSVs

def write_points_csv(path, points: PointSet):
    lines = [",".join(f"{x:.12g}" for x in row) for row in points.points]
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_points_csv(path, resolution: float) -> PointSet:
    rows = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise InputError(f"{path}: line {ln}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no points found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError(f"{path}: rows have inconsistent column counts")
    return PointSet(np.asarray(rows), resolution)


# ---------------------------------------------------------------------------
# PGM / PBM rasters

def read_raster(path) -> tuple[np.ndarray, int]:
    """Raster as an (H, W) integer array plus its maximum value.

    Supports P1/P4 bitmaps (returned with 1 = black mark) and P2/P5
    graymaps."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc

    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            if blob[pos : pos + 1].isspace():
                pos += 1
            elif blob[pos : pos + 1] == b"#":
                while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise InputError(f"{path}: truncated header")
        return blob[start:pos]

    magic = token()
    if magic not in (b"P1", b"P2", b"P4", b"P5"):
        raise InputError(f"{path}: unsupported raster format {magic!r}")
    width = int(token())
    height = int(token())
    if width <= 0 or height <= 0:
        raise InputError(f"{path}: bad raster dimensions {width}x{height}")
    if magic in (b"P2", b"P5"):
        maxval = int(token())
        if maxval <= 0:
            raise InputError(f"{path}: bad maxval {maxval}")
    else:
        maxval = 1

    if magic == b"P1":
        bits = [ch for tok in blob[pos:].split() for ch in tok.decode(errors="replace")]
        if len(bits) < width * height:
            raise InputError(f"{path}: bitmap data too short")
        try:
            arr = np.array([int(d) for d in bits[: width * height]]).reshape(height, width)
        except ValueError as exc:
            raise InputError(f"{path}: bad bitmap digit: {exc}") from exc
    elif magic == b"P2":
        values = blob[pos:].split()
        if len(values) < width * height:
            raise InputError(f"{path}: graymap data too short")
        arr = np.array([int(v) for v in values[: width * height]]).reshape(height, width)
    elif magic == b"P4":
        pos += 1  # single whitespace after the header
        row_bytes = (width + 7) // 8
        need = row_bytes * height
        raw = blob[pos : pos + need]
        if len(raw) < need:
            raise InputError(f"{path}: bitmap data too short")
        rows = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(height, row_bytes), axis=1
        )
        arr = rows[:, :width].astype(int)
    else:  # P5
        pos += 1
        bytes_per = 2 if maxval > 255 else 1
        need = width * height * bytes_per
        raw = blob[pos : pos + need]
        if len(raw) < need:
            raise InputError(f"{path}: graymap data too short")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        arr = np.frombuffer(raw, dtype=dtype).reshape(height, width).astype(int)
    return arr, maxval


def foreground_mask(arr: np.ndarray, maxval: int, threshold: int | None = None) -> np.ndarray:
    """Boolean mask of foreground pixels.

    Bitmaps treat any nonzero mark as foreground; graymaps use a value
    threshold, 128 unless overridden."""
    if maxval == 1:
        return arr != 0
    cut = 128 if threshold is None else threshold
    return arr >= cut


def raster_to_points(mask: np.ndarray, pitch: float) -> PointSet:
    """Foreground pixel centers, one point per marked pixel.

    Single-row rasters become one-dimensional point sets; otherwise x runs
    along columns and y along rows.  Pixel centers sit on the half-pitch
    grid, so the point set snaps to resolution pitch/2 without drift and
    points_to_raster recovers the mask exactly."""
    if mask.ndim != 2:
        raise InputError("mask must be two-dimensional")
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        raise InputError("raster has no foreground pixels")
    if mask.shape[0] == 1:
        pts = (cols[:, None] + 0.5) * pitch
    else:
        pts = np.column_stack([(cols + 0.5) * pitch, (rows + 0.5) * pitch])
    return PointSet(pts, pitch / 2.0)


def points_to_raster(points: PointSet, pitch: float, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of raster_to_points at the same pitch: mark each point's pixel."""
    height, width = shape
    mask = np.zeros((height, width), dtype=bool)
    pts = points.points
    cols = np.clip(np.floor(pts[:, 0] / pitch).astype(int), 0, width - 1)
    if points.dim == 1:
        rows = np.zeros(len(points), dtype=int)
    else:
        rows = np.clip(np.floor(pts[:, 1] / pitch).astype(int), 0, height - 1)
    mask[rows, cols] = True
    return mask


def render_raster(points: PointSet, box: Box, width: int) -> np.ndarray:
    """Binary image of a point set over a box, `width` pixels across."""
    if width <= 0:
        raise InputError("width must be positive")
    extent = box.hi - box.lo
    if points.dim == 1:
        shape = (1, width)
    else:
        aspect = extent[1] / extent[0] if extent[0] > 0 else 1.0
        shape = (max(1, round(width * aspect)), width)
    mask = np.zeros(shape, dtype=bool)
    span_x = extent[0] if extent[0] > 0 else 1.0
    cols = np.clip(
        np.floor((points.points[:, 0] - box.lo[0]) / span_x * width).astype(int),
        0,
        width - 1,
    )
    if points.dim == 1:
        rows = np.zeros(len(points), dtype=int)
    else:
        span_y = extent[1] if extent[1] > 0 else 1.0
        rows = np.clip(
            np.floor((points.points[:, 1] - box.lo[1]) / span_y * shape[0]).astype(int),
            0,
            shape[0] - 1,
        )
    mask[rows, cols] = True
    return mask


def write_pgm(path, mask: np.ndarray, maxval: int = 255):
    """Plain (P2) graymap with foreground pixels at maxval."""
    height, width = mask.shape
    lines = [b"P2", f"{width} {height}".encode(), str(maxval).encode()]
    for row in mask:
        lines.append(" ".join(str(maxval if v else 0) for v in row).encode())
    _atomic_write(path, b"\n".join(lines) + b"\n")
