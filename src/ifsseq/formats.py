"""File formats: system spec files (JSON), point CSVs, and PGM/PBM rasters.

Spec files serialize coefficients with repr, which round-trips float64
exactly.  A sequence file's values are checked once, over one stack of all
its coefficients, whose views its maps are.
Rasters convert to point sets by taking foreground pixel centers at the
pixel pitch; render_raster over the raster's own box, one pixel per pitch,
inverts the conversion exactly.
All writers go through a temp file plus rename, so readers never observe a
partial file.  The point CSV and the PGM are each built as one byte buffer:
write_points_csv formats each distinct value of a column once and lays the
rows out in a NUL-padded byte grid, write_pgm marks foreground cells with a
byte no other cell holds; neither makes a Python object per row or pixel.
A column's distinct values come from its runs or a table over its lattice
ticks where it allows, from a sort elsewhere.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from .attractor import _TICK_LIMIT, PointSet
from .errors import InputError, ResourceLimitError
from .maps import AffineMap, Box, _require_contraction, _require_finite, spectral_norm
from .sequences import IFSSequence
from .systems import IFS, _require_inside

# Pixels in one raster (4096 x 4096); write_pgm holds ~10 bytes per pixel.
MAX_PIXELS = 1 << 24
# ASCII digits in a Netpbm number at most: every such decimal fits int64.
_MAX_DIGITS = 18


def _atomic_write(path, data: bytes):
    """Write through a temp file beside `path` and a rename; an OSError on
    the way is an InputError, and the temp file is removed.  The temp file
    is created 0o666 under the process umask, as open() creates a file."""
    path, tmp = Path(path), None
    try:
        name = path.parent / f"{path.name}.{os.urandom(8).hex()}"
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # only a file this call created is removed
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc.strerror}") from exc
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
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    if key not in obj:
        raise InputError(f"{where}: missing field '{key}'")
    return obj[key]


def _floats(value, where: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
        raise InputError(f"{where}: expected numbers: {exc}") from exc


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _spec_box(data: dict, where: str, previous: Box | None) -> tuple[int, Box]:
    """A spec's dim and domain: `previous` itself if the bounds match its bits."""
    dim = _field(data, "dim", where)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputError(f"{where}.dim: expected a positive integer, got {dim!r}")
    domain_obj = _field(data, "domain", where)
    lo = _field(domain_obj, "lo", f"{where}.domain")
    hi = _field(domain_obj, "hi", f"{where}.domain")
    if not isinstance(lo, list) or len(lo) != dim or not isinstance(hi, list) or len(hi) != dim:
        raise InputError(f"{where}.domain: lo/hi must be vectors of length {dim}")
    lo, hi = _floats(lo, f"{where}.domain.lo"), _floats(hi, f"{where}.domain.hi")
    if previous is not None and _same_bits(lo, previous.lo) and _same_bits(hi, previous.hi):
        return dim, previous
    return dim, Box(lo, hi)


def _spec_maps(data: dict, dim: int, where: str):
    """(tag, A, b) for each map of a spec, its structure checked as it is reached."""
    raw_maps = _field(data, "maps", where)
    if not isinstance(raw_maps, list) or not raw_maps:
        raise InputError(f"{where}.maps: need a nonempty list")
    for k, entry in enumerate(raw_maps):
        tag = f"{where}.maps[{k}]"
        A = _floats(_field(entry, "A", tag), f"{tag}.A")
        b = _floats(_field(entry, "b", tag), f"{tag}.b")
        if A.shape == (dim * dim,):  # accept flat row-major as well
            A = A.reshape(dim, dim)
        if A.shape != (dim, dim):
            raise InputError(f"{tag}.A: expected a {dim}x{dim} matrix, got shape {A.shape}")
        if b.shape != (dim,):
            raise InputError(f"{tag}.b: expected a vector of length {dim}")
        yield tag, A, b


def ifs_from_dict(data: dict, where: str = "spec", domain: Box | None = None) -> IFS:
    """The system a spec describes.  When its bounds equal those of `domain`
    bit for bit, the system takes `domain` itself, so the terms of a sequence
    file share one box and its vertices.  The first fault in file order is
    reported: each map's values are checked before the next map's structure."""
    dim, box = _spec_box(data, where, domain)
    maps = []
    for tag, A, b in _spec_maps(data, dim, where):
        try:
            maps.append(AffineMap(A, b))
        except InputError as exc:
            raise InputError(f"{tag}: {exc}") from exc
    try:
        return IFS(box, tuple(maps))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # unreadable, not UTF-8, nested too deep
        raise InputError(f"{path}: {exc}") from exc


def _write_json(path, data):
    _atomic_write(path, (json.dumps(data, indent=2) + "\n").encode())


def read_ifs(path) -> IFS:
    return ifs_from_dict(_read_json(path), where=str(path))


def write_ifs(path, system: IFS):
    _write_json(path, ifs_to_dict(system))


def _stacked_sequence(data: list, path) -> IFSSequence:
    """The terms as views of one stack, A (m, n, d, d) and b (m, n, d): each
    term's structure is checked as in ifs_from_dict, then the values once."""
    boxes, A, b = [], [], []
    for k, entry in enumerate(data):
        dim, box = _spec_box(entry, f"{path}[{k}]", boxes[-1] if boxes else None)
        _, A_k, b_k = zip(*_spec_maps(entry, dim, f"{path}[{k}]"))
        if boxes and (box != boxes[0] or len(A_k) != len(A[0])):
            raise InputError(f"{path}[{k}]: differs from term 1 in dimension, domain or arity")
        boxes.append(box)
        A.append(A_k)
        b.append(b_k)
    A, b = np.array(A), np.array(b)
    _require_finite(A, b)
    norms = [[spectral_norm(a) for a in A_k] for A_k in A]  # one scalar norm per map, as AffineMap takes it
    _require_contraction(max(map(max, norms)))
    _require_inside(A, b, boxes[0])
    A.flags.writeable = b.flags.writeable = False
    return IFSSequence(tuple(
        IFS._checked(box, tuple(map(AffineMap._checked, A_k, b_k, norms_k)))
        for box, A_k, b_k, norms_k in zip(boxes, A, b, norms)
    ))


def read_sequence(path) -> IFSSequence:
    data = _read_json(path)
    if isinstance(data, dict):
        data = _field(data, "terms", str(path))
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: expected a nonempty list of systems")
    try:
        return _stacked_sequence(data, path)
    except InputError:  # read again term by term, for the first fault in file order
        pass
    terms = []
    for k, entry in enumerate(data):
        terms.append(ifs_from_dict(entry, f"{path}[{k}]", terms[-1].domain if terms else None))
    return IFSSequence(tuple(terms))


def write_sequence(path, seq: IFSSequence):
    _write_json(path, {"terms": [ifs_to_dict(term) for term in seq.terms]})


# ---------------------------------------------------------------------------
# point CSVs

def write_points_csv(path, points: PointSet):
    """One line per point, each coordinate as f"{x:.12g}", which is the text
    of b"%.12g" % x.  A render's column holds few distinct values, so each is
    formatted once, with its separator, into a table of fixed-width cells
    padded with NULs.  Each column gathers its cells through the inverse
    index, which _column_table finds by runs, by a tick table or by
    np.unique, and the columns side by side are one byte grid, a row per
    line.  No number's text holds a NUL, so the grid without its NULs is the
    file; no Python object is made per row."""
    columns = []
    for k, column in enumerate(points.points.T):
        values, index = _column_table(column, points.resolution, ascending=k == 0)
        fmt = b"%.12g\n" if k == points.dim - 1 else b"%.12g,"
        # 20 bytes hold the widest text, -1.23456789012e-308, and a separator
        cells = np.fromiter(map(fmt.__mod__, memoryview(values)), dtype="S20", count=values.size)
        cells = cells.astype(f"S{np.char.str_len(cells).max()}")[index]
        columns.append(cells.view(np.uint8).reshape(len(points), -1))
    _atomic_write(path, np.hstack(columns).tobytes().replace(b"\0", b""))


def _column_table(column: np.ndarray, resolution: float, ascending: bool):
    """np.unique(column, return_inverse=True) of a PointSet's column: by its
    runs when it ascends, as a PointSet's first column does; by _tick_table
    when its ticks rint(x/delta) lie below _TICK_LIMIT in size and span at
    most one tick per row; else by np.unique, which sorts it."""
    if ascending:  # the run heads are the distinct values
        heads = np.empty(column.size, dtype=bool)
        heads[0] = True
        np.not_equal(column[1:], column[:-1], out=heads[1:])
        index = np.cumsum(heads)
        index -= 1
        return column[heads], index
    with np.errstate(over="ignore"):
        ticks = np.rint(column / resolution)
    low, high = ticks.min(), ticks.max()
    if max(-low, high) < _TICK_LIMIT and high - low < column.size:
        return _tick_table(column, ticks, low, high)
    return np.unique(column, return_inverse=True)


def _tick_table(column: np.ndarray, ticks: np.ndarray, low: float, high: float):
    """_column_table over the ticks from low to high.  A value is fl(k*delta)
    of its tick k, which below _TICK_LIMIT rounds back to k, so the ticks
    present, the value at each and their ranks by cumulative count are the
    table.  It holds an int64 tick per row and three arrays of the span."""
    ticks = ticks.astype(np.intp)
    ticks -= int(low)
    present = np.zeros(int(high - low) + 1, dtype=bool)
    present[ticks] = True
    table = np.empty(present.size)
    table[ticks] = column
    return table[present], (np.cumsum(present) - 1)[ticks]


def read_points_csv(path, resolution: float) -> PointSet:
    rows = []
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
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

def _plain_samples(blob: bytes, pos: int, count: int, where) -> np.ndarray:
    """The first `count` whitespace-separated samples of blob[pos:] as int64.
    Raises InputError when there are fewer, or when any of them is not 1 to
    _MAX_DIGITS ASCII digits."""
    raw = np.frombuffer(blob, dtype=np.uint8)[pos:]
    space = (raw == 32) | (raw - 9 < 5)  # bytes.split()'s separators: space and \t \n \v \f \r
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
    starts, ends = edges[0 : 2 * count : 2], edges[1 : 2 * count : 2]
    if starts.size < count:
        raise InputError(f"{where}: graymap data too short")
    longest, body = int((ends - starts).max()), slice(0, ends[-1])
    valid = space[body] | (raw[body] - 48 < 10)
    if longest > _MAX_DIGITS or not valid.all():
        stray = np.flatnonzero(~valid)
        wrong = (ends - starts > _MAX_DIGITS) | (np.searchsorted(stray, ends) > np.searchsorted(stray, starts))
        k = int(np.argmax(wrong))  # the first sample too long or holding a byte not a digit
        raise InputError(f"{where}: bad graymap sample {blob[pos + starts[k] : pos + ends[k]][:20]!r}")
    values = np.zeros(count, dtype=np.int64)
    for k in range(-longest, 0):  # Horner over each sample's last `longest` bytes
        at = ends + k
        values = values * 10 + np.where(at >= starts, raw[np.maximum(at, 0)] - 48, 0)
    return values


# Whitespace and '#' comments, greedily, then one header token (empty at the end)
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def read_raster(path) -> tuple[np.ndarray, int]:
    """Raster as an (H, W) integer array plus its maximum value.

    Supports P1/P4 bitmaps (returned with 1 = black mark) and P2/P5
    graymaps, per the Netpbm grammar.  The header is the magic number,
    width, height and, for graymaps, maxval, separated by whitespace and by
    comments from '#' to the end of the line.  Every header number and every
    P2 sample is 1 to 18 ASCII digits, without sign or separator; width and
    height are positive and maxval lies in 1..65535.  P1 pixels are ASCII
    '0' or '1', and no graymap sample exceeds maxval.  P4 and P5 data start
    one byte after the header; a P5 sample is two bytes, most significant
    first, when maxval exceeds 255.  Anything else raises InputError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc

    pos = 0

    def token():
        nonlocal pos
        match = _HEADER_TOKEN.match(blob, pos)
        pos = match.end()
        if not match[1]:
            raise InputError(f"{path}: truncated header")
        return match[1]

    def number(what: str, top: int = 10**_MAX_DIGITS) -> int:
        tok = token()
        if not (tok.isdigit() and len(tok) <= _MAX_DIGITS and 0 < int(tok) <= top):  # bytes.isdigit(): ASCII only
            raise InputError(f"{path}: bad {what} {tok[:20]!r}")
        return int(tok)

    magic = token()
    if magic not in (b"P1", b"P2", b"P4", b"P5"):
        raise InputError(f"{path}: unsupported raster format {magic!r}")
    width, height = number("raster dimensions"), number("raster dimensions")
    maxval = number("maxval", 65535) if magic in (b"P2", b"P5") else 1

    if magic == b"P1":
        bits = b"".join(blob[pos:].split())[: width * height]  # one ASCII 0 or 1 per pixel
        if len(bits) < width * height:
            raise InputError(f"{path}: bitmap data too short")
        if bad := bits.translate(None, b"01"):
            raise InputError(f"{path}: bad bitmap digit {bad[:1]!r}")
        arr = (np.frombuffer(bits, dtype=np.uint8) == ord("1")).astype(int).reshape(height, width)
    elif magic == b"P2":
        arr = _plain_samples(blob, pos, width * height, path).reshape(height, width)
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
    if (top := int(arr.max())) > maxval:  # only a graymap can hold one
        raise InputError(f"{path}: graymap sample {top} exceeds maxval {maxval}")
    return arr, maxval


def foreground_mask(arr: np.ndarray, maxval: int, threshold: int | None = None) -> np.ndarray:
    """Boolean mask of foreground pixels.

    Bitmaps treat any nonzero mark as foreground; graymaps use a value
    threshold, by default the upper half of the scale, (maxval + 1) // 2."""
    if maxval == 1:
        return arr != 0
    cut = (maxval + 1) // 2 if threshold is None else threshold
    return arr >= cut


def raster_to_points(mask: np.ndarray, pitch: float) -> PointSet:
    """Foreground pixel centers, one point per marked pixel.

    Single-row rasters become one-dimensional point sets; otherwise x runs
    along columns and y along rows.  Pixel centers sit on the half-pitch
    grid, so the point set snaps to resolution pitch/2 without drift and
    render_raster over [0, width*pitch] x [0, height*pitch] (the first
    factor alone for one row), width pixels across, recovers the mask
    exactly."""
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


def _check_width(width: int):
    if width <= 0:
        raise InputError("width must be positive")
    if width > MAX_PIXELS:  # before width meets a float, which it may overflow
        raise ResourceLimitError(f"a raster {width} pixels wide exceeds the {MAX_PIXELS}-pixel cap")


def render_raster(points: PointSet, box: Box, width: int) -> np.ndarray:
    """Binary image of a point set over a box, `width` pixels across."""
    _check_width(width)
    extent = box.hi - box.lo
    aspect = float(extent[1]) / float(extent[0]) if points.dim > 1 and extent[0] > 0 else 1.0
    height = width * aspect if points.dim > 1 else 1.0
    if width * max(height, 1.0) > MAX_PIXELS:  # Python floats: a thin x axis reads inf, not a warning
        raise ResourceLimitError(f"a {width} x {height:.6g} raster exceeds the {MAX_PIXELS}-pixel cap")
    shape = (max(1, round(height)), width)
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
    """Plain (P2) graymap with foreground pixels at maxval.  Each pixel is
    one cell byte and one separator byte of a single buffer; a foreground
    cell is 0x01, which no other byte is, until replaced by maxval's digits."""
    height, width = mask.shape
    cells = np.empty((height, width, 2), dtype=np.uint8)
    cells[..., 0] = ord("0") - (ord("0") - 1) * np.asarray(mask, dtype=bool).view(np.uint8)
    cells[..., 1] = ord(" ")
    cells[:, -1:, 1] = ord("\n")
    body = cells.tobytes().replace(b"\x01", str(maxval).encode())
    _atomic_write(path, f"P2\n{width} {height}\n{maxval}\n".encode() + body)
