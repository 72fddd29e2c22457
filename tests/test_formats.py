import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifsseq import IFS, AffineMap, Box, IFSSequence, InputError, PointSet
from ifsseq.cli import main
from ifsseq.formats import (
    foreground_mask,
    ifs_from_dict,
    ifs_to_dict,
    points_to_raster,
    raster_to_points,
    read_ifs,
    read_points_csv,
    read_raster,
    read_sequence,
    render_raster,
    write_ifs,
    write_pgm,
    write_points_csv,
    write_sequence,
)

from conftest import cantor_ifs


class TestIFSSpecFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        box = Box([-1.0, 0.0], [2.0, 1.0])
        maps = []
        for _ in range(3):
            A = rng.standard_normal((2, 2)) * 0.2
            p = rng.uniform(box.lo, box.hi)
            maps.append(AffineMap(A, p - A @ p))
        system = IFS(box, tuple(maps))
        path = tmp_path / "system.ifs.json"
        write_ifs(path, system)
        loaded = read_ifs(path)
        assert loaded == system  # exact coefficient equality

    def test_validation_on_load(self, tmp_path):
        payload = ifs_to_dict(cantor_ifs())
        payload["maps"][0]["A"] = [[1.5]]  # not a contraction
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="maps\\[0\\]"):
            read_ifs(path)

    def test_parse_error_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="line 1"):
            read_ifs(path)

    def test_missing_field_diagnostics(self):
        with pytest.raises(InputError, match="missing field 'maps'"):
            ifs_from_dict({"dim": 1, "domain": {"lo": [0.0], "hi": [1.0]}})

    def test_flat_row_major_matrix_accepted(self):
        data = {
            "dim": 2,
            "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "maps": [{"A": [0.5, 0.0, 0.0, 0.5], "b": [0.1, 0.1]}],
        }
        system = ifs_from_dict(data)
        assert system.maps[0].A[1, 1] == 0.5

    def test_sequence_round_trip(self, tmp_path):
        from conftest import cantor_term

        seq = IFSSequence(tuple(cantor_term(j) for j in range(1, 4)))
        path = tmp_path / "seq.json"
        write_sequence(path, seq)
        loaded = read_sequence(path)
        assert loaded.terms == seq.terms


class TestPointsCSV:
    def test_round_trip_within_format_precision(self, tmp_path):
        ps = PointSet(np.random.default_rng(3).uniform(0, 1, (40, 2)), 1e-3)
        path = tmp_path / "points.csv"
        write_points_csv(path, ps)
        loaded = read_points_csv(path, 1e-3)
        assert loaded == ps

    def test_bad_cell_diagnostics(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("0.5,0.5\noops,1.0\n")
        with pytest.raises(InputError, match="line 2"):
            read_points_csv(path, 1e-3)


def csv_per_element(points: PointSet) -> bytes:
    """write_points_csv as it was: one f-string per coordinate."""
    lines = [",".join(f"{x:.12g}" for x in row) for row in points.points]
    return ("\n".join(lines) + "\n").encode()


def pgm_per_pixel(mask: np.ndarray, maxval: int) -> bytes:
    """write_pgm as it was: one str() per pixel."""
    height, width = mask.shape
    lines = [b"P2", f"{width} {height}".encode(), str(maxval).encode()]
    for row in mask:
        lines.append(" ".join(str(maxval if v else 0) for v in row).encode())
    return b"\n".join(lines) + b"\n"


class TestWritersMatchPerElementOracles:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 3]),
        rows=st.sampled_from([1, 7, 4095, 4096, 4097, 9000]),
        pitch=st.sampled_from([1e-9, 1e-4, 1e-3, 0.37]),
        scale=st.sampled_from([1.0, 1e6, 1e15]),
        lattice=st.booleans(),
    )
    def test_points_csv(self, tmp_path_factory, seed, dim, rows, pitch, scale, lattice):
        # both signs, tiny and large values, and, on a lattice, few distinct
        # values per column; more than 4096 rows spans several blocks
        rng = np.random.default_rng(seed)
        if lattice:
            pts = rng.integers(-40, 40, (rows, dim)) * (pitch * 3.0) + rng.uniform(-pitch, pitch, (rows, dim))
        else:
            pts = rng.uniform(-scale, scale, (rows, dim))
        ps = PointSet(pts, pitch)
        path = tmp_path_factory.mktemp("csv") / "points.csv"
        write_points_csv(path, ps)
        assert path.read_bytes() == csv_per_element(ps)

    def test_points_csv_prints_zero_unsigned(self, tmp_path):
        path = tmp_path / "points.csv"
        write_points_csv(path, PointSet([[-1e-5, 0.5]], 1e-3))
        assert path.read_text() == "0,0.5\n"

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.one_of(
            st.tuples(st.just(1), st.integers(1, 200)),
            st.tuples(st.integers(1, 200), st.just(1)),
            st.tuples(st.integers(1, 60), st.integers(1, 60)),
        ),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        maxval=st.sampled_from([1, 255, 65535]),
    )
    def test_pgm(self, tmp_path_factory, seed, shape, density, maxval):
        mask = np.random.default_rng(seed).random(shape) < density
        path = tmp_path_factory.mktemp("pgm") / "mask.pgm"
        write_pgm(path, mask, maxval)
        assert path.read_bytes() == pgm_per_pixel(mask, maxval)


class TestRasters:
    def write_p2(self, path, rows, maxval=255):
        h = len(rows)
        w = len(rows[0])
        body = "\n".join(" ".join(str(v) for v in row) for row in rows)
        path.write_text(f"P2\n{w} {h}\n{maxval}\n{body}\n")

    def test_p2_read_and_threshold(self, tmp_path):
        path = tmp_path / "img.pgm"
        self.write_p2(path, [[0, 130], [255, 10]])
        arr, maxval = read_raster(path)
        assert maxval == 255
        mask = foreground_mask(arr, maxval)
        assert mask.tolist() == [[False, True], [True, False]]

    def test_p1_read(self, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_text("P1\n# comment\n3 2\n0 1 0\n1 1 0\n")
        arr, maxval = read_raster(path)
        assert maxval == 1
        assert foreground_mask(arr, maxval).sum() == 3

    def test_p5_read(self, tmp_path):
        path = tmp_path / "img5.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 200, 128, 3]))
        arr, _ = read_raster(path)
        assert arr.tolist() == [[0, 200], [128, 3]]

    def test_p4_read(self, tmp_path):
        path = tmp_path / "img4.pbm"
        # 8x1 bitmap, bits 10110000
        path.write_bytes(b"P4\n8 1\n" + bytes([0b10110000]))
        arr, maxval = read_raster(path)
        assert arr.tolist() == [[1, 0, 1, 1, 0, 0, 0, 0]]

    def test_rejects_unknown_magic(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(InputError, match="unsupported"):
            read_raster(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(InputError, match="too short"):
            read_raster(path)


class TestRasterPointConversions:
    def test_mask_round_trip_exact(self):
        rng = np.random.default_rng(9)
        for shape in ((1, 64), (16, 16), (7, 31)):
            mask = rng.uniform(size=shape) < 0.3
            if not mask.any():
                mask[0, 0] = True
            pitch = 1.0 / shape[1]
            pts = raster_to_points(mask, pitch)
            back = points_to_raster(pts, pitch, shape)
            assert np.array_equal(back, mask)

    def test_single_row_gives_1d_points(self):
        mask = np.array([[False, True, True, False]])
        pts = raster_to_points(mask, 0.25)
        assert pts.dim == 1
        assert np.allclose(sorted(pts.points[:, 0]), [0.375, 0.625])

    def test_empty_foreground_rejected(self):
        with pytest.raises(InputError, match="no foreground"):
            raster_to_points(np.zeros((4, 4), dtype=bool), 0.25)

    def test_written_pgm_reads_back(self, tmp_path):
        mask = np.zeros((4, 6), dtype=bool)
        mask[1, 2] = mask[3, 5] = True
        path = tmp_path / "out.pgm"
        write_pgm(path, mask)
        arr, maxval = read_raster(path)
        assert np.array_equal(foreground_mask(arr, maxval), mask)

    def test_render_raster_covers_attractor(self, unit_box):
        from ifsseq import attractor_points, box_seed

        render = attractor_points(cantor_ifs(unit_box), 8, box_seed(unit_box, 1e-4))
        mask = render_raster(render, unit_box, width=81)
        assert mask.shape == (1, 81)
        assert mask[0, 0] and mask[0, -1]  # endpoints 0 and 1 are marked
        assert not mask[0, 40]  # the middle gap stays empty


# ---------------------------------------------------------------------------
# malformed input: readers raise InputError and nothing else

# JSON values of every kind a hand-edited spec field might hold
SCALARS = st.one_of(
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
VECTORS = st.lists(SCALARS, max_size=5)
MATRICES = st.one_of(VECTORS, st.lists(VECTORS, max_size=3))  # flat or nested


@st.composite
def mutated_specs(draw):
    """A valid spec (dim 1 or 2, A nested or flat) with at most one field
    replaced, so a bad value meets otherwise consistent neighbours."""
    dim = draw(st.sampled_from([1, 2]))
    flat = draw(st.booleans())

    def matrix(scale):
        A = np.eye(dim) * scale
        return A.ravel().tolist() if flat else A.tolist()

    spec = {
        "dim": dim,
        "domain": {"lo": [0.0] * dim, "hi": [1.0] * dim},
        "maps": [{"A": matrix(0.5), "b": [0.0] * dim}, {"A": matrix(0.25), "b": [0.5] * dim}],
    }
    field = draw(st.sampled_from(["none", "dim", "lo", "hi", "A", "b", "map", "maps", "domain"]))
    k = draw(st.sampled_from([0, 1]))
    if field == "dim":
        spec["dim"] = draw(st.one_of(SCALARS, st.just(float(dim)), st.just(str(dim))))
    elif field in ("lo", "hi"):
        spec["domain"][field] = draw(st.one_of(VECTORS, st.lists(st.floats(-2, 2), max_size=4)))
    elif field == "A":
        spec["maps"][k]["A"] = draw(MATRICES)
    elif field == "b":
        spec["maps"][k]["b"] = draw(VECTORS)
    elif field == "map":
        spec["maps"][k] = draw(st.one_of(SCALARS, st.just({"A": matrix(0.5)})))
    elif field == "maps":
        spec["maps"] = draw(st.one_of(SCALARS, st.just([])))
    elif field == "domain":
        spec["domain"] = draw(st.one_of(SCALARS, st.just({"lo": [0.0] * dim})))
    return spec


def _reads_or_input_error(read, path):
    try:
        read(path)
    except InputError:
        pass


class TestReadersRaiseOnlyInputError:
    @settings(max_examples=300, deadline=None)
    @given(spec=mutated_specs(), wrap=st.sampled_from(["list", "terms", "scalar"]))
    def test_spec_and_sequence_files(self, tmp_path_factory, spec, wrap):
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_text(json.dumps(spec))
        _reads_or_input_error(read_ifs, path)
        sequence = {"list": [spec, spec], "terms": {"terms": [spec]}, "scalar": spec}[wrap]
        path.write_text(json.dumps(sequence))
        _reads_or_input_error(read_sequence, path)

    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(max_size=40))
    @example(body=b"[" * 100_000)
    def test_json_bytes(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("json") / "spec.json"
        path.write_bytes(body)
        _reads_or_input_error(read_ifs, path)
        _reads_or_input_error(read_sequence, path)

    @settings(max_examples=150, deadline=None)
    @given(spec=mutated_specs())
    def test_dist_exit_code(self, tmp_path_factory, spec):
        root = tmp_path_factory.mktemp("dist")
        bad, good = root / "bad.json", root / "good.json"
        bad.write_text(json.dumps(spec))
        write_ifs(good, cantor_ifs())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["dist", str(bad), str(good)])
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert err.getvalue().count("\n") == 1

    @settings(max_examples=300, deadline=None)
    @given(
        magic=st.sampled_from([b"P1", b"P2", b"P4", b"P5", b"P3", b""]),
        header=st.lists(
            st.one_of(st.integers(-2, 6).map(lambda v: str(v).encode()), st.sampled_from([b"x", b"#c\n", b"1.5"])),
            max_size=4,
        ),
        body=st.binary(max_size=40),
    )
    def test_raster_files(self, tmp_path_factory, magic, header, body):
        path = tmp_path_factory.mktemp("raster") / "img.pgm"
        path.write_bytes(b"\n".join([magic, *header]) + b"\n" + body)
        _reads_or_input_error(read_raster, path)

    @settings(max_examples=300, deadline=None)
    @given(
        body=st.one_of(
            st.binary(max_size=40),
            st.lists(
                st.lists(st.one_of(st.floats().map(repr), st.sampled_from(["", "x", "nan", "inf", "1e400"])), max_size=3),
                max_size=4,
            ).map(lambda rows: ("\n".join(",".join(row) for row in rows) + "\n").encode()),
        )
    )
    def test_points_csv_files(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("csv") / "points.csv"
        path.write_bytes(body)
        _reads_or_input_error(lambda p: read_points_csv(p, 1e-3), path)
