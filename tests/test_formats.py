import contextlib
import errno
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifsseq import IFS, AffineMap, Box, IFSSequence, InputError, PointSet, attractor_points
from ifsseq import formats
from ifsseq.cli import main
from ifsseq.formats import (
    foreground_mask,
    ifs_from_dict,
    ifs_to_dict,
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

    def test_sequence_terms_share_one_domain(self, tmp_path):
        from conftest import cantor_term

        path = tmp_path / "seq.json"
        write_sequence(path, IFSSequence(tuple(cantor_term(j) for j in range(1, 5))))
        loaded = read_sequence(path)
        assert all(term.domain is loaded.domain for term in loaded.terms)

    def test_sequence_domains_compare_bit_for_bit(self, tmp_path):
        term = {"dim": 1, "domain": {"lo": [0.0], "hi": [1.0]}, "maps": [{"A": [[0.5]], "b": [0.0]}]}
        signed = {**term, "domain": {"lo": [-0.0], "hi": [1.0]}}
        wider = {**term, "domain": {"lo": [0.0], "hi": [2.0]}}
        path = tmp_path / "seq.json"
        # -0.0 is a new box of equal bounds, so the sequence is still accepted
        path.write_text(json.dumps([term, term, signed, signed]))
        domains = [t.domain for t in read_sequence(path).terms]
        assert domains[0] is domains[1] and domains[2] is domains[3]
        assert domains[1] is not domains[2] and domains[1] == domains[2]
        path.write_text(json.dumps([term, term, wider]))
        with pytest.raises(InputError, match=r"^term 3 lives on a different domain$"):
            read_sequence(path)


FAULTS = ("nonfinite", "norm", "outside", "shape", "arity", "dim", "domain")


@st.composite
def sequence_files(draw):
    """A sequence file of m <= 8 terms of n <= 5 maps in d <= 3 dimensions, as
    JSON-ready terms, with up to two faults at random terms and maps.  The box
    is random, and each term may write its zero bounds as -0.0; a map's A is
    nested or flat, and some of its entries are signed zeros."""
    d, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = np.array(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.25]), min_size=d, max_size=d)))
    hi = lo + np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=d, max_size=d)))
    terms = []
    for signed in draw(st.lists(st.booleans(), min_size=m, max_size=m)):
        maps = []
        for _ in range(n):
            # |A| sums to at most 0.2 per row, so the image of the box fits it
            A = rng.uniform(-0.2, 0.2, (d, d)) / d
            A = np.where(rng.random((d, d)) < 0.2, rng.choice([0.0, -0.0]), A)
            low = np.minimum(A * lo, A * hi).sum(axis=1)
            spread = np.abs(A) @ (hi - lo)
            b = lo - low + rng.uniform(0, 1, d) * (hi - lo - spread)
            maps.append({"A": A.tolist() if rng.random() < 0.5 else A.ravel().tolist(), "b": b.tolist()})
        bounds = [np.where(x == 0.0, -0.0 if signed else 0.0, x).tolist() for x in (lo, hi)]
        terms.append({"dim": d, "domain": {"lo": bounds[0], "hi": bounds[1]}, "maps": maps})
    faults = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), st.sampled_from(FAULTS))
    for k, j, fault in draw(st.lists(faults, max_size=2)):
        j %= len(terms[k]["maps"])  # an earlier fault may have dropped a map
        entry = terms[k]["maps"][j]
        if fault == "nonfinite":
            key = draw(st.sampled_from(["A", "b"]))
            values = np.array(entry[key])  # nested or flat, as written
            values.flat[draw(st.integers(0, values.size - 1))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            entry[key] = values.tolist()
        elif fault == "norm":  # the identity, which sends the box into itself
            entry["A"], entry["b"] = np.eye(d).tolist(), [0.0] * d
        elif fault == "outside":
            entry["b"] = (hi + 1.0).tolist()
        elif fault == "shape":
            entry[draw(st.sampled_from(["A", "b"]))] = [0.1] * (d + 1)
        elif fault == "arity":
            terms[k]["maps"] = terms[k]["maps"][:j] + terms[k]["maps"][j + 1 :] if n > 1 else [entry, entry]
        elif fault == "dim":
            terms[k] = {
                "dim": d + 1,
                "domain": {"lo": [0.0] * (d + 1), "hi": [1.0] * (d + 1)},
                "maps": [{"A": (0.5 * np.eye(d + 1)).tolist(), "b": [0.0] * (d + 1)}],
            }
        else:
            terms[k]["domain"] = {"lo": lo.tolist(), "hi": (hi + 1.0).tolist()}
    return terms


def read_term_by_term(path) -> IFSSequence:
    """The per-term reader: ifs_from_dict on each term, then IFSSequence."""
    terms = []
    for k, entry in enumerate(json.loads(path.read_text())):
        terms.append(ifs_from_dict(entry, f"{path}[{k}]", terms[-1].domain if terms else None))
    return IFSSequence(tuple(terms))


class TestStackedSequenceReader:
    @settings(max_examples=300, deadline=None)
    @given(terms=sequence_files())
    @example(terms=[  # a NaN that LAPACK's SVD would meet, were the finite check skipped
        {"dim": 3, "domain": {"lo": [0.0] * 3, "hi": [1.0] * 3},
         "maps": [{"A": [[math.nan, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]], "b": [0.0] * 3}]},
    ])
    def test_reads_what_the_per_term_reader_reads(self, tmp_path_factory, terms):
        path = tmp_path_factory.mktemp("seq") / "seq.json"
        path.write_text(json.dumps(terms))
        try:
            want = read_term_by_term(path)
        except InputError as exc:
            with pytest.raises(type(exc)) as caught:
                read_sequence(path)
            assert str(caught.value) == str(exc)  # the first fault in file order
            return
        got = read_sequence(path)
        assert len(got) == len(want) and got.n == want.n
        for k, (S, T) in enumerate(zip(got.terms, want.terms)):
            assert S.domain.lo.tobytes() == T.domain.lo.tobytes()
            assert S.domain.hi.tobytes() == T.domain.hi.tobytes()
            if k:  # a term takes the previous term's box when its bounds equal it bit for bit
                prev = got.terms[k - 1].domain
                same = S.domain.lo.tobytes() + S.domain.hi.tobytes() == prev.lo.tobytes() + prev.hi.tobytes()
                assert (S.domain is prev) == same == (T.domain is want.terms[k - 1].domain)
            for f, g in zip(S.maps, T.maps, strict=True):
                assert f.A.tobytes() == g.A.tobytes() and f.b.tobytes() == g.b.tobytes()
                assert f.contractivity.hex() == g.contractivity.hex()
                assert not (f.A.flags.writeable or f.b.flags.writeable)


class TestAtomicWrite:
    def test_a_failed_write_is_an_input_error_and_leaves_no_file(self, tmp_path, monkeypatch):
        # mkstemp, the write and the rename each fail with an OSError, which
        # the writers report as an InputError with the path and the reason
        system = cantor_ifs()
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        with pytest.raises(InputError, match=f"^cannot write {outdir}: Is a directory$"):
            write_ifs(outdir, system)
        with pytest.raises(InputError, match=f"^cannot write {tmp_path}/missing/s.json: No such file or directory$"):
            write_ifs(tmp_path / "missing" / "s.json", system)

        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class FullFile(io.FileIO):
            write = full

        for name in ("write", "replace"):
            with monkeypatch.context() as patch:
                if name == "write":
                    patch.setattr(os, "fdopen", lambda fd, mode: FullFile(fd, "w"))
                else:
                    patch.setattr(os, "replace", full)
                with pytest.raises(InputError, match=f"^cannot write {tmp_path}/s.json: No space left on device$"):
                    write_ifs(tmp_path / "s.json", system)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"] and not any(outdir.iterdir())

    def test_a_write_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # the umask can only be read by setting it, and another thread's file
        # created in between would take the set value: a write reads none
        def umask(*args):
            raise AssertionError("the umask was touched")

        monkeypatch.setattr(os, "umask", umask)
        write_ifs(tmp_path / "s.json", cantor_ifs())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


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


def similitude(scale: float, theta: float, fixed) -> AffineMap:
    c, s = np.cos(theta), np.sin(theta)
    A = scale * np.array([[c, -s], [s, c]])
    return AffineMap(A, np.asarray(fixed) - A @ np.asarray(fixed))


@pytest.fixture(scope="module")
def render_2d() -> PointSet:
    """A depth-10 render of three rotated similitudes at delta 1e-3, the
    size of a benchmark render: 73,617 points."""
    maps = (similitude(0.52, 0.2, [0.2, 0.2]), similitude(0.52, -0.25, [0.8, 0.3]), similitude(0.52, 0.1, [0.45, 0.8]))
    return attractor_points(IFS(Box([0.0, 0.0], [1.0, 1.0]), maps), 10)


def widest_texts(exponents, pitch: float, dim: int = 2) -> PointSet:
    """Negative values of 12 significant digits at the given exponents: most
    cells are as wide as .12g text gets, 19 bytes before the separator."""
    rng = np.random.default_rng(7)
    return PointSet(-rng.uniform(1, 10, (300, dim)) * 10.0 ** rng.choice(exponents, (300, dim)), pitch)


POINTS_CSV_CASES = {
    "near-1e300": lambda: widest_texts(np.arange(295, 306), 1e280),
    "near-1e-300": lambda: widest_texts(-np.arange(295, 306), 1e-318),
    "subnormal-products": lambda: widest_texts(np.arange(-316, -308), 5e-324, dim=3),
    "one-value-column": lambda: PointSet(np.column_stack([np.full(500, 0.25), np.arange(500) * 1e-3]), 1e-3),
    "one-value-every-column": lambda: PointSet([[-3.5, 1e-7, 2.0]], 1e-9),
    "distinct-1d": lambda: PointSet(np.random.default_rng(8).uniform(-1, 1, (9000, 1)), 1e-12),
}


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
        # values per column
        rng = np.random.default_rng(seed)
        if lattice:
            pts = rng.integers(-40, 40, (rows, dim)) * (pitch * 3.0) + rng.uniform(-pitch, pitch, (rows, dim))
        else:
            pts = rng.uniform(-scale, scale, (rows, dim))
        ps = PointSet(pts, pitch)
        path = tmp_path_factory.mktemp("csv") / "points.csv"
        write_points_csv(path, ps)
        assert path.read_bytes() == csv_per_element(ps)

    @pytest.mark.parametrize("case", sorted(POINTS_CSV_CASES))
    def test_points_csv_cases(self, tmp_path, case):
        ps = POINTS_CSV_CASES[case]()
        if case == "distinct-1d":
            assert len(ps) == 9000
        path = tmp_path / "points.csv"
        write_points_csv(path, ps)
        assert path.read_bytes() == csv_per_element(ps)

    @pytest.mark.parametrize(
        "ticks, pitch, tables",
        [
            # column 1 spans as many ticks as there are rows, from below zero
            (lambda n: np.column_stack([np.zeros(n), np.arange(n) - 5.0]), 1e-3, 1),
            # one tick more than the rows: np.unique
            (lambda n: np.column_stack([np.zeros(n), np.r_[np.arange(n - 1), n]]), 1e-3, 0),
            # a short span at ticks of 2^51 and above: np.unique
            (lambda n: np.column_stack([np.zeros(n), 2.0**51 + np.arange(n)]), 1.0, 0),
            # columns 1 and 2 of a lattice, one table each
            (lambda n: np.random.default_rng(5).integers(-9, 9, (n, 3)).astype(float), 1.0 / 17.0, 2),
        ],
        ids=["span-at-rows", "span-over-rows", "tick-limit", "lattice-3d"],
    )
    def test_points_csv_tick_table_and_unique(self, tmp_path, monkeypatch, ticks, pitch, tables):
        ps = PointSet(ticks(40) * pitch, pitch)
        calls = []
        tick_table = formats._tick_table
        monkeypatch.setattr(formats, "_tick_table", lambda *args: calls.append(1) or tick_table(*args))
        path = tmp_path / "points.csv"
        write_points_csv(path, ps)
        assert len(calls) == tables
        assert path.read_bytes() == csv_per_element(ps)

    def test_points_csv_render_sized(self, tmp_path, render_2d):
        assert len(render_2d) >= 60_000
        path = tmp_path / "points.csv"
        write_points_csv(path, render_2d)
        assert path.read_bytes() == csv_per_element(render_2d)

    def test_points_csv_peak_memory_stays_near_the_output(self, tmp_path, render_2d):
        # an 8,720-point attractor on the line, nearly every value distinct,
        # and a depth-10 render in the plane; the writer that joined one
        # string per row peaked at 16.2 and 4.9 times the bytes written, and
        # the per-row oracle, csv_per_element, at 11.2 and 7.8 times
        s = 0.3225
        line = IFS(Box([0.0], [1.0]), tuple(AffineMap([[s]], [o]) for o in (0.0, 0.5 - s / 2, 1 - s)))
        path = tmp_path / "points.csv"
        write_points_csv(path, PointSet([[0.5]], 1e-3))  # allocations made once per process
        for ps, bound in ((attractor_points(line, 10), 11.0), (render_2d, 4.8)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                write_points_csv(path, ps)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= bound * path.stat().st_size

    def test_bytes_format_is_the_f_string(self):
        # write_points_csv formats with b"%.12g" % x: the same text as
        # f"{x:.12g}" on random float64 bit patterns, subnormals, zeros,
        # infinities and NaNs included
        bits = np.random.default_rng(9).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan, 1e12, 1e-5]
        for x in [*bits.view(np.float64).tolist(), *specials]:
            assert b"%.12g" % x == f"{x:.12g}".encode(), x

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


# the remaining arguments of an explicit example of the P2 grammar property
P2_PLAIN = {"respelled": None, "spelling": "+{}", "seps": [" "], "lead": False}


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

    @pytest.mark.parametrize(
        "maxval, samples, expected",
        [
            (100, [0, 49, 50, 100], [False, False, True, True]),  # no foreground under a cut at 128
            (255, [0, 127, 128, 255], [False, False, True, True]),
            (65535, [0, 200, 32767, 32768, 65535], [False, False, False, True, True]),  # 200 was foreground
        ],
        ids=["maxval-100", "maxval-255", "maxval-65535"],
    )
    def test_default_cut_is_half_the_scale(self, tmp_path, maxval, samples, expected):
        # foreground is the upper half of the scale, samples from
        # (maxval + 1) // 2 up, unless a threshold is given
        path = tmp_path / "img.pgm"
        self.write_p2(path, [samples], maxval)
        arr, read_maxval = read_raster(path)
        assert foreground_mask(arr, read_maxval).tolist() == [expected]
        assert foreground_mask(arr, read_maxval, 1).tolist() == [[s >= 1 for s in samples]]

    def test_p1_read(self, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_text("P1\n# comment\n3 2\n0 1 0\n1 1 0\n")
        arr, maxval = read_raster(path)
        assert maxval == 1
        assert foreground_mask(arr, maxval).sum() == 3

    @settings(max_examples=400, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
        maxval=st.one_of(st.integers(255, 65535), st.sampled_from([0, 1, 2, 255, 65535, 65536, 10**19])),
        respelled=st.sampled_from([None] * 9 + ["width", "height", "maxval"]),
        spelling=st.sampled_from(["+{}", "-{}", "{}_0", "0" * 18 + "{}"]),  # a sign, an underscore, 19+ digits
        tokens=st.one_of(
            st.lists(st.integers(0, 255).map(str), min_size=24, max_size=30),  # samples that fit
            # digits only: up to 18 digits, 19 digits and more, past 2^63 and 2^64
            st.lists(
                st.one_of(
                    st.integers(0, 10**18 - 1),
                    st.integers(10**18 - 2, 10**21),
                    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64]),
                ).map(str),
                max_size=30,
            ),
            st.lists(
                st.one_of(
                    st.integers(0, 10**18 - 1).map(str),
                    st.integers(-(2**70), 2**70).map(str),
                    st.sampled_from(["+7", "-0", "007", "0" * 25 + "9", "1_000", "#", "#c", "1.5", "x", "٣"]),
                    st.just("9\x1c9"),  # \x1c is whitespace to str.split(), not to bytes.split()
                ),
                max_size=30,
            ),
        ),
        seps=st.lists(st.sampled_from([" ", "\n", "\t", "\r\n", "\x0b", "\x0c", "  \n# "]), min_size=1, max_size=4),
        lead=st.booleans(),
    )
    @example(shape=(1, 2), maxval=255, tokens=["0", "255"], **P2_PLAIN)
    @example(shape=(1, 2), maxval=255, tokens=["+7", "1"], **P2_PLAIN)
    @example(shape=(1, 2), maxval=255, tokens=["1_000", "1"], **P2_PLAIN)
    @example(shape=(1, 2), maxval=65535, tokens=["0" * 18 + "1", "1"], **P2_PLAIN)
    @example(shape=(2, 2), maxval=255, tokens=["0", "300", "255", "10"], **P2_PLAIN)
    @example(shape=(1, 1), maxval=65536, tokens=["0"], **P2_PLAIN)
    @example(shape=(1, 1), maxval=255, tokens=["0"], **{**P2_PLAIN, "respelled": "width"})
    def test_p2_samples_follow_the_strict_grammar(
        self, tmp_path_factory, shape, maxval, respelled, spelling, tokens, seps, lead
    ):
        # a P2 raster reads only when each header number and each of its
        # first w*h samples is 1 to 18 ASCII digits, width and height are
        # positive, maxval lies in 1..65535 and no sample exceeds it; the
        # first rule broken names the failure, and tokens past the samples,
        # comments among them included, are never read
        height, width = shape
        header = {"width": str(width), "height": str(height), "maxval": str(maxval)}
        if respelled is not None:
            header[respelled] = spelling.format(header[respelled])
        body = (seps[0] if lead else "") + "".join(tok + seps[k % len(seps)] for k, tok in enumerate(tokens))
        body = body.encode()
        path = tmp_path_factory.mktemp("p2") / "img.pgm"
        path.write_bytes(f"P2\n{header['width']} {header['height']}\n{header['maxval']}\n".encode() + body)

        def plain(tok: bytes) -> bool:
            return tok.isdigit() and len(tok) <= 18  # bytes.isdigit() is ASCII only

        samples = body.split()[: width * height]
        message = None
        for key, what, top in (("width", "raster dimensions", 10**18), ("height", "raster dimensions", 10**18),
                               ("maxval", "maxval", 65535)):
            tok = header[key].encode()
            if message is None and not (plain(tok) and 0 < int(tok) <= top):
                message = f"bad {what} {tok[:20]!r}"
        if message is None and len(samples) < width * height:
            message = "graymap data too short"
        if message is None and (bad := [tok for tok in samples if not plain(tok)]):
            message = f"bad graymap sample {bad[0][:20]!r}"
        if message is None and (top := max(map(int, samples))) > maxval:
            message = f"graymap sample {top} exceeds maxval {maxval}"
        if message is not None:
            with pytest.raises(InputError) as raised:
                read_raster(path)
            assert str(raised.value) == f"{path}: {message}"
        else:
            arr, read_maxval = read_raster(path)
            assert read_maxval == maxval and arr.dtype == np.int64
            assert arr.tolist() == np.array([int(tok) for tok in samples]).reshape(height, width).tolist()

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
            height, width = shape  # the raster's own box, one pixel per pitch
            extent = [width * pitch] if height == 1 else [width * pitch, height * pitch]
            back = render_raster(pts, Box(np.zeros(len(extent)), extent), width)
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
    st.sampled_from([10**400, -(10**400)]),  # past the float range
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
    @example(spec={"dim": 1, "domain": {"lo": [0.0], "hi": [1.0]}, "maps": [{"A": [[0.5]], "b": [10**400]}]},
             wrap="list")
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
