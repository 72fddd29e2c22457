import collections
import json
import math
import os
import shutil
import stat
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import ifsseq
from ifsseq import collage, sequences, systems
from ifsseq import IFS, AffineMap, Box, attractor_points, box_seed, big_d, hausdorff
from ifsseq.cli import format_value, main
from ifsseq.collage import FitConfig
from ifsseq.formats import (
    read_ifs,
    read_points_csv,
    render_raster,
    write_ifs,
    write_pgm,
    write_sequence,
)
from ifsseq.sequences import IFSSequence

from conftest import cantor_ifs, cantor_term


@pytest.fixture
def spec_files(tmp_path, ifs_s, ifs_t, ifs_u):
    paths = {}
    for name, system in (("s", ifs_s), ("t", ifs_t), ("u", ifs_u)):
        path = tmp_path / f"{name}.ifs.json"
        write_ifs(path, system)
        paths[name] = str(path)
    return paths


def count_calls(monkeypatch):
    """Count cost tensors, consecutive cost matrices and IFS.reordered calls
    made from here on."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("cost_tensor", "cost_links"):
        wrapper = counted(name, getattr(systems, name))
        for module in (systems, sequences):
            monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(IFS, "reordered", counted("reordered", IFS.reordered))
    return calls


class TestFormatValue:
    def test_recovers_paper_fractions(self):
        assert format_value(2.0 / 7.0) == "0.2857142857 (2/7)"
        assert format_value(0.2) == "0.2000000000 (1/5)"
        assert format_value(0.0) == "0.0000000000 (0)"

    def test_skips_unreconstructable(self):
        assert "(" not in format_value(np.pi / 10)


class TestDist:
    def test_paper_pair_s_t(self, capsys, spec_files):
        assert main(["dist", spec_files["s"], spec_files["t"]]) == 0
        out = capsys.readouterr().out
        assert "D = 0.2857142857 (2/7), sigma = identity" in out
        assert "cost matrix:" in out

    def test_paper_pair_s_u_swaps(self, capsys, spec_files):
        assert main(["dist", spec_files["s"], spec_files["u"]]) == 0
        out = capsys.readouterr().out
        assert "D = 0.2000000000 (1/5), sigma = (2 1)" in out

    def test_identical_files(self, capsys, spec_files):
        assert main(["dist", spec_files["s"], spec_files["s"]]) == 0
        assert "D = 0.0000000000 (0)" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys, spec_files):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["dist", str(bad), spec_files["s"]]) == 2
        assert "error:" in capsys.readouterr().err

    def test_arity_mismatch_exit_code(self, tmp_path, capsys, spec_files):
        single = tmp_path / "single.json"
        write_ifs(single, IFS(Box([0.0], [1.0]), (AffineMap([[0.5]], [0.0]),)))
        assert main(["dist", str(single), spec_files["s"]]) == 2


class TestAttractor:
    def test_cantor_depth8_count(self, tmp_path, capsys):
        spec = tmp_path / "cantor.json"
        write_ifs(spec, cantor_ifs())
        out_csv = tmp_path / "points.csv"
        code = main(
            ["attractor", str(spec), "--depth", "8", "--delta", "1e-4", "--out", str(out_csv)]
        )
        assert code == 0
        pts = read_points_csv(out_csv, 1e-4)
        assert len(pts) == 2 * 2**8
        manifest = json.loads((tmp_path / "points.csv.manifest.json").read_text())
        assert manifest["command"] == "attractor"
        assert manifest["flags"]["depth"] == 8
        assert manifest["versions"] == {
            "ifsseq": ifsseq.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }

    def test_dyadic_grid_collapse(self, tmp_path):
        spec = tmp_path / "dyadic.json"
        write_ifs(
            spec,
            IFS(Box([0.0], [1.0]), (AffineMap([[0.5]], [0.0]), AffineMap([[0.5]], [0.5]))),
        )
        out_csv = tmp_path / "points.csv"
        pitch = 2.0**-10
        assert (
            main(["attractor", str(spec), "--depth", "10", "--delta", repr(pitch), "--out", str(out_csv)])
            == 0
        )
        pts = read_points_csv(out_csv, pitch)
        assert len(pts) == 2**10 + 1  # the full dyadic grid on [0, 1]

    def test_depth_zero_returns_seed_vertices(self, tmp_path):
        spec = tmp_path / "cantor.json"
        write_ifs(spec, cantor_ifs())
        out_csv = tmp_path / "points.csv"
        assert main(["attractor", str(spec), "--depth", "0", "--out", str(out_csv)]) == 0
        pts = read_points_csv(out_csv, 1e-4)
        assert len(pts) == 2

    def test_image_output(self, tmp_path):
        spec = tmp_path / "cantor.json"
        write_ifs(spec, cantor_ifs())
        img = tmp_path / "render.pgm"
        assert main(["attractor", str(spec), "--depth", "6", "--image", str(img), "--px", "81"]) == 0
        from ifsseq.formats import foreground_mask, read_raster

        arr, maxval = read_raster(img)
        mask = foreground_mask(arr, maxval)
        assert mask[0, 0] and mask[0, -1] and not mask[0, 40]

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "many.json"
        write_ifs(
            spec,
            IFS(
                Box([0.0], [1.0]),
                tuple(AffineMap([[0.09]], [0.1 * k]) for k in range(8)),
            ),
        )
        code = main(["attractor", str(spec), "--depth", "9", "--delta", "1e-9", "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "resource limit" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "hi, px",
        [
            ([1e-6, 1.0], "512"),
            ([5e-324, 1.0], "512"),
            ([1.0, 1.0], "100000000"),
            ([1.0, 1.0], "1" + "0" * 400),
        ],
        ids=["thin-x-axis", "subnormal-x-axis", "huge-px", "px-beyond-float"],
    )
    def test_raster_cap_exit_code(self, tmp_path, capsys, hi, px):
        box = Box([0.0, 0.0], hi)
        spec = tmp_path / "spec.json"
        write_ifs(spec, IFS(box, (AffineMap(0.5 * np.eye(2), [0.0, 0.0]),)))
        argv = ["attractor", str(spec), "--depth", "2", "--image", str(tmp_path / "x.pgm"), "--px", px]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert peak < 10_000_000  # the raster is refused before it is allocated
        assert not (tmp_path / "x.pgm").exists()


class TestAnalyze:
    def test_nan_eps_exits_2(self, capsys):
        seqfile = Path(__file__).parent / "fixtures" / "analyze" / "converging2d.seq.json"
        assert main(["analyze", str(seqfile), "--eps", "nan"]) == 2
        assert capsys.readouterr().err == "error: eps must be positive\n"

    @pytest.mark.parametrize("eps", ["-1", "0", "nan"])
    def test_bad_eps_is_refused_before_the_file_is_read(self, monkeypatch, capsys, eps):
        def no_read(*args, **kwargs):
            raise AssertionError("the sequence must not be read")

        monkeypatch.setattr("ifsseq.cli.read_sequence", no_read)
        seqfile = Path(__file__).parent / "fixtures" / "analyze" / "converging2d.seq.json"
        assert main(["analyze", str(seqfile), "--eps", eps]) == 2
        assert capsys.readouterr() == ("", "error: eps must be positive\n")

    def test_reads_every_figure_from_one_cost_tensor(self, tmp_path, monkeypatch):
        # the recorded alignment of this fixture permutes 7 of its 10 terms
        seqfile = Path(__file__).parent / "fixtures" / "analyze" / "converging2d.seq.json"
        calls = count_calls(monkeypatch)
        assert main(["analyze", str(seqfile), "--eps", "0.05", "--limit-out", str(tmp_path / "limit.json")]) == 0
        assert calls["cost_tensor"] == 1
        assert calls["cost_links"] == 0
        assert calls["reordered"] <= 1

    def test_cantor_sequence_report(self, tmp_path, capsys):
        seq = IFSSequence(tuple(cantor_term(j) for j in range(1, 11)))
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, seq)
        limit_out = tmp_path / "limit.json"
        code = main(["analyze", str(seqfile), "--eps", "0.05", "--limit-out", str(limit_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "decreasing: True" in out
        assert "cauchy at eps=0.05:" in out
        assert "residual: 0.0000000000 (0)" in out
        limit = read_ifs(limit_out)
        assert big_d(limit, cantor_term(10)) == 0.0

    def test_single_term_trivial(self, tmp_path, capsys):
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence((cantor_ifs(),)))
        assert main(["analyze", str(seqfile), "--eps", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "terms: 1" in out

    @pytest.mark.parametrize("copies", [0, 10])
    def test_plane_triple_notes_transitivity_failure(
        self, tmp_path, capsys, plane_s, plane_t, plane_u, copies
    ):
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence((plane_s, plane_t, plane_u) + (plane_u,) * copies))
        assert main(["analyze", str(seqfile), "--eps", "1.9"]) == 0
        out = capsys.readouterr().out
        assert "minimal ordering is not transitive" in out

    def test_non_cauchy_exit_code(self, tmp_path, capsys, ifs_s, ifs_t):
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence((ifs_s, ifs_t, ifs_s, ifs_t)))
        assert main(["analyze", str(seqfile), "--eps", "0.01"]) == 4
        assert "precondition failed" in capsys.readouterr().err


    def test_cost_tensor_cap_exits_3(self, tmp_path, capsys):
        # the fewest one-map terms whose m^2 n^2-entry cost tensor passes the cap
        m = math.isqrt(systems.COST_TENSOR_CAP) + 1
        term = {"dim": 1, "domain": {"lo": [0.0], "hi": [1.0]}, "maps": [{"A": [[0.5]], "b": [0.25]}]}
        seqfile = tmp_path / "seq.json"
        seqfile.write_text(json.dumps([term] * m))
        tracemalloc.start()
        try:
            code = main(["analyze", str(seqfile), "--eps", "0.05"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert peak < 8 * systems.COST_TENSOR_CAP / 2  # the tensor is refused before it is allocated


class TestAnalyzeRecordedOutput:
    """stdout, stderr and --limit-out bytes of `analyze`, recorded before the
    analysis was rebuilt on one cost tensor."""

    FIXTURES = Path(__file__).parent / "fixtures" / "analyze"

    @pytest.mark.parametrize(
        "name, eps, code",
        [
            ("converging2d", "0.05", 0),
            ("converging1d", "0.05", 0),
            ("not_cauchy", "0.001", 4),
            ("not_decreasing", "0.5", 4),
            ("eps_zero", "0", 2),
        ],
    )
    def test_matches_recording(self, tmp_path, monkeypatch, capsys, name, eps, code):
        monkeypatch.chdir(tmp_path)
        seqfile = self.FIXTURES / f"{name}.seq.json"
        limit = f"{name}.limit.json"
        assert main(["analyze", str(seqfile), "--eps", eps, "--limit-out", limit]) == code
        captured = capsys.readouterr()
        assert captured.out == (self.FIXTURES / f"{name}.stdout").read_text()
        assert captured.err == (self.FIXTURES / f"{name}.stderr").read_text()
        recorded = self.FIXTURES / limit
        if code == 0:
            assert Path(limit).read_bytes() == recorded.read_bytes()
        else:
            assert not Path(limit).exists() and not recorded.exists()


class TestFitRecordedOutput:
    """stdout, output bytes and manifests (minus versions) of one `collage-fit`
    and one frame-directory `predict`, recorded before the fit and render
    flags were shared between commands.  Every shared flag is set away from
    its default.  The inputs live beside the recordings: gray-110 pixels are
    foreground only under --threshold 100."""

    FIXTURES = Path(__file__).parent / "fixtures" / "fit"

    @pytest.mark.parametrize(
        "name, argv, outputs, manifest",
        [
            (
                "collage_fit",
                ["collage-fit", "target.pgm", "--n", "2", "--out", "fit.json", "--seed", "5",
                 "--restarts", "2", "--iters", "12", "--s-max", "0.9", "--delta", "0.1",
                 "--threshold", "100", "--domain-lo", "0,0", "--domain-hi", "1,1"],
                ["fit.json"],
                "fit.json.manifest.json",
            ),
            (
                "predict",
                ["predict", "frames", "--model", "geometric", "--horizon", "2", "--n", "2",
                 "--seed", "4", "--restarts", "2", "--iters", "12", "--s-max", "0.85",
                 "--delta", "0.03", "--threshold", "100", "--domain-lo", "0", "--domain-hi", "1",
                 "--depth", "6", "--render-delta", "0.002", "--out-prefix", "pred",
                 "--image", "pred.pgm", "--px", "40"],
                ["pred.ifs.json", "pred.points.csv", "pred.pgm"],
                "pred.manifest.json",
            ),
            (
                # random starts and ~4,100 objective evaluations: the
                # descent itself, not only its first candidates
                "collage_fit_descent",
                ["collage-fit", "target.pgm", "--n", "3", "--restarts", "3", "--iters", "25",
                 "--seed", "2", "--threshold", "100", "--out", "descent.json"],
                ["descent.json"],
                "descent.json.manifest.json",
            ),
        ],
        ids=["collage-fit", "predict", "collage-fit-descent"],
    )
    def test_matches_recording(self, tmp_path, monkeypatch, capsys, name, argv, outputs, manifest):
        shutil.copy(self.FIXTURES / "target.pgm", tmp_path)
        shutil.copytree(self.FIXTURES / "frames", tmp_path / "frames")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr().out == (self.FIXTURES / f"{name}.stdout").read_text()
        for path in outputs:
            assert Path(path).read_bytes() == (self.FIXTURES / path).read_bytes(), path
        written = json.loads(Path(manifest).read_text())
        del written["versions"]
        assert json.dumps(written, indent=2) + "\n" == (self.FIXTURES / manifest).read_text()


class TestCollageFit:
    def cantor_pgm(self, tmp_path, width=729, depth=8):
        render = attractor_points(cantor_ifs(), depth, box_seed(Box([0.0], [1.0]), 1e-4))
        mask = render_raster(render, Box([0.0], [1.0]), width)
        path = tmp_path / "cantor.pgm"
        write_pgm(path, mask)
        return path

    def test_recovers_cantor_from_raster(self, tmp_path, capsys):
        img = self.cantor_pgm(tmp_path)
        out = tmp_path / "fit.json"
        code = main(
            [
                "collage-fit", str(img),
                "--n", "2", "--out", str(out), "--seed", "1",
                "--restarts", "2", "--iters", "30",
                "--domain-lo", "0", "--domain-hi", "1",
            ]
        )
        assert code == 0
        fitted = read_ifs(out)
        coeffs = sorted(
            ((float(m.A[0, 0]), float(m.b[0])) for m in fitted.maps),
            key=lambda ab: ab[1],
        )
        assert coeffs[0][0] == pytest.approx(1.0 / 3.0, abs=0.05)
        assert coeffs[0][1] == pytest.approx(0.0, abs=0.05)
        assert coeffs[1][1] == pytest.approx(2.0 / 3.0, abs=0.05)
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert manifest["flags"]["seed"] == 1

    def test_square_self_cover(self, tmp_path, capsys):
        mask = np.ones((8, 8), dtype=bool)
        img = tmp_path / "square.pgm"
        write_pgm(img, mask)
        out = tmp_path / "fit.json"
        code = main(
            [
                "collage-fit", str(img),
                "--n", "4", "--out", str(out), "--seed", "0",
                "--restarts", "1", "--iters", "8",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        pitch = 1.0 / 8
        value = float(text.split("collage distance = ")[1].split()[0])
        assert value <= 2 * pitch

    def test_single_pixel_constant_map(self, tmp_path):
        mask = np.zeros((1, 8), dtype=bool)
        mask[0, 3] = True
        img = tmp_path / "dot.pgm"
        write_pgm(img, mask)
        out = tmp_path / "fit.json"
        assert main(["collage-fit", str(img), "--n", "1", "--out", str(out), "--seed", "0"]) == 0
        fitted = read_ifs(out)
        center = (3 + 0.5) / 8
        assert fitted.maps[0]([center])[0] == pytest.approx(center, abs=1.0 / 8)

    def test_foreground_in_one_pixel_row(self, tmp_path, capsys):
        # a 2-row raster marked in one row infers a domain of zero height
        mask = np.zeros((2, 16), dtype=bool)
        mask[1] = np.arange(16) % 4 != 3
        img = tmp_path / "line.pgm"
        write_pgm(img, mask)
        out = tmp_path / "fit.json"
        code = main(
            ["collage-fit", str(img), "--n", "2", "--out", str(out),
             "--restarts", "2", "--iters", "10", "--s-max", "0.9"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("spec written to") == 1
        assert read_ifs(out).contractivity <= 0.9

    def test_target_half_a_pitch_outside_declared_domain(self, tmp_path, capsys):
        # the first pixel center, 1/32, lies below --domain-lo but within half
        # a pitch of it, so the constant-map baseline must pin inside the box
        mask = np.zeros((1, 16), dtype=bool)
        mask[0, ::3] = True
        img = tmp_path / "row.pgm"
        write_pgm(img, mask)
        out = tmp_path / "fit.json"
        code = main(
            ["collage-fit", str(img), "--n", "2", "--out", str(out),
             "--restarts", "2", "--iters", "10", "--domain-lo", "0.035", "--domain-hi", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("spec written to") == 1

    def test_more_maps_than_target_points(self, tmp_path, capsys):
        # two pixels cannot be cut into three tiles, so a tile repeats
        img = tmp_path / "two.pbm"
        img.write_bytes(b"P1\n4 1\n0 1 1 0\n")
        assert main(["collage-fit", str(img), "--n", "3", "--out", str(tmp_path / "fit.json")]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("spec written to") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_map_that_no_shrink_fits_exits_4(self, tmp_path, capsys, n):
        # a segment in a box 1e-8 thin: a descent move of A[1, 0] by the step
        # makes an image that 63 shrinks of A leave wider than the thin axis
        target = tmp_path / "segment.csv"
        target.write_text("".join(f"{k / 40!r},0\n" for k in range(41)))
        out = tmp_path / "fit.json"
        argv = ["collage-fit", str(target), "--n", str(n), "--domain-lo", "0,0", "--domain-hi", "1,1e-8"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr().err == "precondition failed: cannot project the map into the domain\n"
        assert not caught
        assert not list(tmp_path.glob("fit.json*"))

    def test_negative_domain_bounds_in_the_equals_form(self, tmp_path, capsys):
        # argparse reads "-1,-1" after a space as an option, so negative
        # bounds are given as --domain-lo=-1,-1
        target = tmp_path / "segment.csv"
        target.write_text("-0.5,-0.5\n0.5,0.5\n0.0,0.25\n")
        out = tmp_path / "fit.json"
        argv = ["collage-fit", str(target), "--n", "2", "--restarts", "1", "--iters", "5"]
        assert main(argv + ["--domain-lo=-1,-1", "--domain-hi=1,1", "--out", str(out)]) == 0
        assert read_ifs(out).domain == Box([-1.0, -1.0], [1.0, 1.0])

    def test_point_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        img = self.cantor_pgm(tmp_path, width=243, depth=5)
        monkeypatch.setattr("ifsseq.attractor.POINT_CAP", 10)
        code = main(["collage-fit", str(img), "--n", "2", "--out", str(tmp_path / "fit.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and err.count("\n") == 1

    def test_default_budget_is_fit_configs(self, tmp_path, monkeypatch):
        # without budget flags a fit runs, and its manifest records,
        # FitConfig's own defaults
        monkeypatch.delenv("IFSSEQ_SEED", raising=False)
        fit_ifs, configs = collage.fit_ifs, []

        def recorded_fit(target, cfg, **kwargs):
            configs.append(cfg)
            return fit_ifs(target, cfg, **kwargs)

        monkeypatch.setattr(collage, "fit_ifs", recorded_fit)
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 1] = True
        write_pgm(tmp_path / "dot.pgm", mask)
        out = tmp_path / "fit.json"
        assert main(["collage-fit", str(tmp_path / "dot.pgm"), "--n", "2", "--out", str(out)]) == 0
        cfg = FitConfig(n=2)
        assert configs == [cfg]
        flags = json.loads((tmp_path / "fit.json.manifest.json").read_text())["flags"]
        assert flags == {
            "n": cfg.n, "restarts": cfg.restarts, "iters": cfg.max_iters, "s_max": cfg.s_max, "seed": cfg.seed,
            "delta": None, "threshold": None,
        }

    def test_env_seed_override(self, tmp_path, monkeypatch):
        img = self.cantor_pgm(tmp_path, width=243, depth=5)
        out = tmp_path / "fit.json"
        monkeypatch.setenv("IFSSEQ_SEED", "77")
        assert main(
            ["collage-fit", str(img), "--n", "2", "--out", str(out), "--restarts", "1", "--iters", "5"]
        ) == 0
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert manifest["flags"]["seed"] == 77


class TestPredict:
    DOMAIN = ["--domain-lo", "0", "--domain-hi", "1"]
    SEQFILE = Path(__file__).parent / "fixtures" / "analyze" / "converging1d.seq.json"

    def test_sequence_file_manifest_records_s_max(self, tmp_path, monkeypatch):
        # --s-max bounds the projection of the extrapolated maps, so runs
        # that differ in it write different specs and must record it
        monkeypatch.chdir(tmp_path)
        specs, manifests = [], []
        for s_max in (["--s-max", "0.2"], ["--s-max", "0.9"], []):
            argv = ["predict", str(self.SEQFILE), "--model", "linear", "--horizon", "3", "--out-prefix", "p"]
            assert main(argv + s_max) == 0
            specs.append(Path("p.ifs.json").read_bytes())
            manifests.append(json.loads(Path("p.manifest.json").read_text())["flags"])
        assert specs[0] != specs[1]
        assert [flags["s_max"] for flags in manifests] == [0.2, 0.9, FitConfig.s_max]

    def frames_dir(self, tmp_path, count=3, width=243):
        frames = tmp_path / "frames"
        frames.mkdir()
        box = Box([0.0], [1.0])
        for j in range(1, count + 1):
            render = attractor_points(cantor_term(j), 8, box_seed(box, 1e-4))
            mask = render_raster(render, box, width)
            write_pgm(frames / f"frame{j:02d}.pgm", mask)
        return frames

    def test_identical_frames_linear_model(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        box = Box([0.0], [1.0])
        render = attractor_points(cantor_ifs(), 8, box_seed(box, 1e-4))
        mask = render_raster(render, box, 243)
        for j in (1, 2):
            write_pgm(frames / f"frame{j}.pgm", mask)
        prefix = str(tmp_path / "pred")
        code = main(
            [
                "predict", str(frames),
                "--model", "linear", "--horizon", "5",
                "--n", "2", "--seed", "3", "--restarts", "2", "--iters", "30",
                "--out-prefix", prefix,
            ]
            + self.DOMAIN
        )
        assert code == 0
        predicted = read_ifs(prefix + ".ifs.json")
        # identical frames fit identically, so the line is flat
        assert big_d(predicted, cantor_ifs()) <= 0.05

    def test_horizon_zero_returns_last_fit(self, tmp_path):
        frames = self.frames_dir(tmp_path)
        prefix = str(tmp_path / "pred")
        code = main(
            [
                "predict", str(frames),
                "--model", "geometric", "--horizon", "0",
                "--n", "2", "--seed", "5", "--restarts", "2", "--iters", "30",
                "--out-prefix", prefix,
            ]
            + self.DOMAIN
        )
        assert code == 0
        predicted = read_ifs(prefix + ".ifs.json")
        assert big_d(predicted, cantor_term(3)) <= 0.06
        manifest = json.loads((tmp_path / "pred.manifest.json").read_text())
        assert manifest["flags"]["model"] == "geometric"
        assert len(manifest["inputs"]) == 3

    def test_sequence_file_input(self, tmp_path):
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence(tuple(cantor_term(j) for j in range(1, 6))))
        prefix = str(tmp_path / "pred")
        code = main(
            ["predict", str(seqfile), "--model", "geometric", "--horizon", "100", "--out-prefix", prefix]
        )
        assert code == 0
        predicted = read_ifs(prefix + ".ifs.json")
        assert big_d(predicted, cantor_ifs()) <= 0.01

    def test_sequence_file_is_aligned_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        swap = ifsseq.Permutation((1, 0))
        terms = tuple(cantor_term(j) if j < 3 else cantor_term(j).reordered(swap) for j in range(1, 6))
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence(terms))
        calls = count_calls(monkeypatch)
        assert main(["predict", str(seqfile), "--model", "linear", "--horizon", "1", "--out-prefix", "p"]) == 0
        assert calls["cost_links"] == 1
        assert calls["cost_tensor"] == 0

    def test_unidentifiable_decay_warns_once(self, tmp_path, capsys):
        # the first map's scale grows faster each step, so its decay ratio >= 1
        box = Box([0.0], [1.0])
        terms = tuple(
            IFS(box, (AffineMap([[a]], [0.0]), AffineMap([[0.3]], [0.7])))
            for a in (0.1, 0.2, 0.35, 0.55)
        )
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence(terms))
        prefix = str(tmp_path / "pred")
        code = main(
            ["predict", str(seqfile), "--model", "geometric", "--horizon", "2", "--out-prefix", prefix]
        )
        assert code == 0
        captured = capsys.readouterr()
        warned = [line for line in captured.out.splitlines() if line.startswith("warning:")]
        assert warned == ["warning: geometric decay not identifiable (step ratio >= 1); "
                          "falling back to the linear model"]
        assert "RuntimeWarning" not in captured.err

    def test_more_maps_than_frame_points(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        for name in ("a.pbm", "b.pbm"):
            (frames / name).write_bytes(b"P1\n4 1\n0 1 1 0\n")
        code = main(
            ["predict", str(frames), "--n", "3", "--model", "linear", "--horizon", "1",
             "--out-prefix", str(tmp_path / "pred")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count("extrapolated spec written to") == 1
        assert "Traceback" not in captured.err

    def test_single_frame_rejected(self, tmp_path, capsys):
        frames = self.frames_dir(tmp_path, count=1)
        code = main(
            ["predict", str(frames), "--model", "last", "--horizon", "1", "--out-prefix", str(tmp_path / "p")]
        )
        assert code == 4

    def test_deterministic_outputs(self, tmp_path):
        frames = self.frames_dir(tmp_path, count=2, width=243)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        argv = [
            "predict", str(frames), "--model", "linear", "--horizon", "3",
            "--n", "2", "--seed", "9", "--restarts", "1", "--iters", "15",
        ]
        assert main(argv + ["--out-prefix", out_a]) == 0
        assert main(argv + ["--out-prefix", out_b]) == 0
        assert (tmp_path / "a.points.csv").read_bytes() == (tmp_path / "b.points.csv").read_bytes()
        assert (tmp_path / "a.ifs.json").read_bytes() == (tmp_path / "b.ifs.json").read_bytes()


class TestRejectedArguments:
    @pytest.fixture
    def files(self, tmp_path):
        spec = tmp_path / "cantor.json"
        write_ifs(spec, cantor_ifs())
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence(tuple(cantor_term(j) for j in range(1, 4))))
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 1] = True
        img = tmp_path / "dot.pgm"
        write_pgm(img, mask)
        csv = tmp_path / "dot.csv"
        csv.write_text("0.25,0.25\n")
        frames = tmp_path / "frames"
        frames.mkdir()
        for name in ("f1.pgm", "f2.pgm"):
            write_pgm(frames / name, mask)
        return {
            "spec": str(spec),
            "seq": str(seqfile),
            "img": str(img),
            "csv": str(csv),
            "frames": str(frames),
            "out": str(tmp_path / "out"),
            "missing": str(tmp_path / "missing"),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["attractor", "{spec}", "--delta", "0", "--out", "{out}.csv"],
            ["predict", "{seq}", "--model", "last", "--horizon", "1", "--render-delta", "0",
             "--out-prefix", "{out}"],
            ["collage-fit", "{img}", "--n", "1", "--delta", "0", "--out", "{out}.json"],
            ["collage-fit", "{csv}", "--n", "1", "--delta", "0", "--out", "{out}.json"],
        ],
        ids=["attractor-delta", "predict-render-delta", "frame-pitch-pgm", "frame-pitch-csv"],
    )
    def test_explicit_zero_is_not_unset(self, files, capsys, argv):
        assert main([arg.format(**files) for arg in argv]) == 2
        assert capsys.readouterr().err == "error: resolution must be a positive real\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["attractor", "{spec}", "--depth", "2", "--out", "{missing}/points.csv"],
            ["collage-fit", "{img}", "--n", "1", "--iters", "1", "--out", "{missing}/fit.json"],
            ["predict", "{seq}", "--model", "last", "--horizon", "1", "--out-prefix", "{missing}/p"],
        ],
        ids=["attractor", "collage-fit", "predict"],
    )
    def test_output_into_missing_directory(self, files, capsys, argv):
        assert main([arg.format(**files) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {files['missing']}/")
        assert err.endswith(": No such file or directory\n") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["attractor", "{spec}", "--depth", "2", "--out", "{outdir}"],
            ["attractor", "{spec}", "--depth", "2", "--image", "{outdir}"],
            ["collage-fit", "{img}", "--n", "1", "--out", "{outdir}"],
            ["analyze", "{seq}", "--eps", "0.5", "--limit-out", "{outdir}"],
            ["predict", "{seq}", "--model", "last", "--horizon", "1", "--out-prefix", "{out}", "--image", "{outdir}"],
        ],
        ids=["attractor-out", "attractor-image", "collage-fit-out", "analyze-limit-out", "predict-image"],
    )
    def test_directory_output_is_refused_before_any_work(self, files, tmp_path, monkeypatch, capsys, argv):
        # each of these once did its work and then ended in a traceback
        # from the rename onto the directory
        def no_work(*args, **kwargs):
            raise AssertionError("the work must not start")

        for name in ("ifsseq.collage.fit_ifs", "ifsseq.cli.extrapolate", "ifsseq.cli.attractor_points",
                     "ifsseq.cli.analyze_sequence"):
            monkeypatch.setattr(name, no_work)
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main([arg.format(**files, outdir=outdir) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {outdir}: Is a directory\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["attractor", "{spec}", "--depth", "2", "--out", "{out}", "--image", "{out}"],
             "cannot write {out}: it names the same file as output {out}"),
            (["attractor", "{spec}", "--depth", "2", "--out", "{out}.csv", "--image", "{out}.csv.manifest.json"],
             "cannot write {out}.csv.manifest.json: it names the same file as output {out}.csv.manifest.json"),
            (["attractor", "{spec}", "--depth", "2", "--out", "{spec}"],
             "cannot write {spec}: it names the same file as input {spec}"),
            (["attractor", "{spec}", "--depth", "2", "--image", "{dir}/./cantor.json"],
             "cannot write {dir}/./cantor.json: it names the same file as input {spec}"),
            (["predict", "{seq}", "--model", "last", "--horizon", "1", "--out-prefix", "{out}",
              "--image", "{out}.points.csv"],
             "cannot write {out}.points.csv: it names the same file as output {out}.points.csv"),
            (["predict", "{seq}", "--model", "last", "--horizon", "1", "--out-prefix", "{out}",
              "--image", "{seq}"],
             "cannot write {seq}: it names the same file as input {seq}"),
            (["predict", "{frames}", "--model", "last", "--horizon", "1", "--n", "1", "--iters", "1",
              "--out-prefix", "{out}", "--image", "{frames}/f1.pgm"],
             "cannot write {frames}/f1.pgm: it names the same file as input {frames}/f1.pgm"),
            (["predict", "{frames}", "--model", "last", "--horizon", "1", "--n", "1", "--iters", "1",
              "--out-prefix", "{frames}/p"],
             "cannot write {frames}/p.points.csv: a later run would read it as a frame of {frames}"),
            (["predict", "{frames}", "--model", "last", "--horizon", "1", "--n", "1", "--iters", "1",
              "--out-prefix", "{out}", "--image", "{frames}/p.PGM"],
             "cannot write {frames}/p.PGM: a later run would read it as a frame of {frames}"),
            (["collage-fit", "{img}", "--n", "1", "--iters", "1", "--out", "{img}"],
             "cannot write {img}: it names the same file as input {img}"),
            (["analyze", "{seq}", "--eps", "0.5", "--limit-out", "{seq}"],
             "cannot write {seq}: it names the same file as input {seq}"),
        ],
        ids=["attractor-out-image", "attractor-image-manifest", "attractor-out-input", "attractor-image-input",
             "predict-image-csv", "predict-image-seq", "predict-image-frame", "predict-csv-in-frames",
             "predict-image-in-frames", "collage-fit-out-input", "analyze-limit-input"],
    )
    def test_clashing_paths_are_refused_before_any_work(self, files, tmp_path, capsys, argv, err):
        # each of these once exited 0, one write replacing another file
        files = {**files, "dir": str(tmp_path)}
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main([arg.format(**files) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {err.format(**files)}\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("link", [os.link, os.symlink], ids=["hard", "symbolic"])
    def test_an_output_linked_to_an_input_is_refused(self, files, tmp_path, capsys, link):
        alias = tmp_path / "alias.json"
        link(files["spec"], alias)
        spec = Path(files["spec"]).read_bytes()
        assert main(["attractor", files["spec"], "--depth", "2", "--out", str(alias)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {alias}: it names the same file as input {files['spec']}\n"
        assert Path(files["spec"]).read_bytes() == spec

    HUGE_HORIZON = "horizon must not exceed the largest float, 1.79769e+308"

    @pytest.mark.parametrize(
        "argv, seed_env, err",
        [
            (["collage-fit", "{img}", "--n", "1", "--seed", "-1", "--out", "{out}.json"], None,
             "error: seed must be nonnegative"),
            (["collage-fit", "{img}", "--n", "1", "--out", "{out}.json"], "-1",
             "error: seed must be nonnegative"),
            (["predict", "{seq}", "--model", "geometric", "--horizon", str(10**320), "--out-prefix", "{out}"], None,
             f"error: {HUGE_HORIZON}"),
            (["predict", "{frames}", "--model", "linear", "--horizon", str(10**320), "--n", "1",
              "--iters", "1", "--out-prefix", "{out}"], None, f"error: {HUGE_HORIZON}"),
            (["collage-fit", "{img}", "--n", str(10**400), "--out", "{out}.json"], None,
             f"resource limit: image would hold {10**400} points before deduplication; raise the resolution delta"),
            (["analyze", "{seq}", "--eps", "0.5", "--limit-out", "{missing}/limit.json"], None,
             "error: cannot write {missing}/limit.json: No such file or directory"),
            (["collage-fit", "{img}", "--n", "2", "--restarts", str(10**23), "--out", "{out}.json"], None,
             f"error: restarts must not exceed {sys.maxsize}"),
        ],
        ids=["seed-flag", "seed-env", "horizon-geometric", "horizon-linear-frames", "n-over-cap", "limit-out-dir",
             "restarts-over-maxsize"],
    )
    def test_refused_before_any_work(self, files, capsys, monkeypatch, argv, seed_env, err):
        monkeypatch.delenv("IFSSEQ_SEED", raising=False)
        if seed_env is not None:
            monkeypatch.setenv("IFSSEQ_SEED", seed_env)
        code = 3 if err.startswith("resource limit") else 2
        assert main([arg.format(**files) for arg in argv]) == code
        out, written = capsys.readouterr()
        assert out == ""
        assert written == err.format(**files) + "\n" and "Traceback" not in written
        assert not list(Path(files["out"]).parent.glob("out*"))


class TestRenderRecordedOutput:
    """stdout, CSV and PGM bytes and manifests (minus versions) of `attractor`
    on a 1D, a 2D and a 3D system over domains with negative corners,
    recorded before PointSet deduplicated by sorting grid indices and the
    writers formatted each distinct value once.  The coarse deltas make many
    images share a grid point.  No recorded coordinate prints as -0."""

    FIXTURES = Path(__file__).parent / "fixtures" / "render"

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("line", ["--depth", "7", "--delta", "1e-4", "--px", "90"]),
            ("plane", ["--depth", "6", "--delta", "0.004", "--px", "48"]),
            ("space", ["--depth", "5", "--delta", "0.05", "--px", "30"]),
        ],
    )
    def test_matches_recording(self, tmp_path, monkeypatch, capsys, name, flags):
        shutil.copy(self.FIXTURES / f"{name}.json", tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = ["attractor", f"{name}.json", *flags, "--out", f"{name}.csv", "--image", f"{name}.pgm"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (self.FIXTURES / f"{name}.stdout").read_text()
        for path in (f"{name}.csv", f"{name}.pgm"):
            assert Path(path).read_bytes() == (self.FIXTURES / path).read_bytes(), path
        manifest = f"{name}.csv.manifest.json"
        written = json.loads(Path(manifest).read_text())
        del written["versions"]
        assert json.dumps(written, indent=2) + "\n" == (self.FIXTURES / manifest).read_text()


class TestMalformedInputs:
    """Malformed files exit 2 with one line, never with a traceback."""

    def run(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"P2\n2 x\n255\n0 255\n", "bad raster dimensions"),
            (b"P2\n2 1\n255\n0 1.5\n", "bad graymap sample"),
            (b"P1\n3 1\n1 7 0\n", "bad bitmap digit"),
            ("P1\n3 1\n1 \u0661 0\n".encode(), "bad bitmap digit"),  # an Arabic-Indic digit one
            (b"P2\n1 1\n65536\n0\n", "bad maxval b'65536'"),
            (b"P2\n2 2\n255\n0 300 255 10\n", "graymap sample 300 exceeds maxval 255"),
            (b"P5\n1 1\n300\n\x01\x2d", "graymap sample 301 exceeds maxval 300"),  # two bytes, 0x012d
        ],
        ids=["header-dimension", "p2-sample", "p1-digit-7", "p1-non-ascii-digit", "maxval-65536",
             "p2-sample-over-maxval", "p5-two-byte-sample-over-maxval"],
    )
    def test_raster(self, tmp_path, capsys, body, message):
        image = tmp_path / "bad.pgm"
        image.write_bytes(body)
        err = self.run(capsys, ["collage-fit", str(image), "--n", "1", "--out", str(tmp_path / "f.json")])
        assert message in err

    @pytest.mark.parametrize(
        "dim, hi, maps, message",
        [
            (1, [1.0], [{"A": [["a"]], "b": [0.0]}], "maps[0].A: expected numbers"),
            (1, [1.0], [5], "maps[0]: expected an object"),
            (1, ["a"], [{"A": [[0.5]], "b": [0.0]}], "domain.hi: expected numbers"),
            (2.0, [1.0, 1.0], [{"A": [0.5, 0, 0, 0.5], "b": [0.0, 0.0]}], "dim: expected a positive integer"),
            (True, [1.0], [{"A": [[0.5]], "b": [0.0]}], "dim: expected a positive integer"),
            ("1", [1.0], [{"A": [[0.5]], "b": [0.0]}], "dim: expected a positive integer"),
            (0, [1.0], [{"A": [[0.5]], "b": [0.0]}], "dim: expected a positive integer"),
            (1, [1.0], [{"A": [[0.5]], "b": [10**400]}], "maps[0].b: expected numbers"),  # past the float range
            (1, [10**400], [{"A": [[0.5]], "b": [0.0]}], "domain.hi: expected numbers"),
        ],
        ids=["non-numeric-matrix", "map-not-object", "non-numeric-domain", "float-dim", "bool-dim",
             "string-dim", "zero-dim", "huge-int-offset", "huge-int-domain"],
    )
    def test_spec(self, tmp_path, capsys, spec_files, dim, hi, maps, message):
        spec = tmp_path / "bad.json"
        domain = {"lo": [0.0] * len(hi), "hi": hi}
        spec.write_text(json.dumps({"dim": dim, "domain": domain, "maps": maps}))
        err = self.run(capsys, ["dist", str(spec), spec_files["s"]])
        assert message in err

    def test_points_overflowing_the_grid(self, tmp_path, capsys):
        # 1.7e308 / 1e-3 overflows: the point is refused, not kept as inf
        target = tmp_path / "target.csv"
        target.write_text("0.5\n1.7e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.run(capsys, ["collage-fit", str(target), "--n", "1", "--out", str(tmp_path / "f.json")])
        assert "overflow" in err
        assert not caught

    @pytest.mark.parametrize("bound", ["1e308", "1e300"])
    def test_fit_domain_whose_diameter_overflows(self, tmp_path, capsys, bound):
        # the box's vertices or its diameter would not be finite
        target = tmp_path / "target.csv"
        target.write_text("0.5,0.5\n")
        argv = ["collage-fit", str(target), "--n", "1", "--out", str(tmp_path / "f.json"),
                f"--domain-lo=-{bound},-{bound}", f"--domain-hi={bound},{bound}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.run(capsys, argv)
        assert err == "error: box diameter must be finite\n"
        assert not caught
        assert not list(tmp_path.glob("f.json*"))

    def test_spec_domain_whose_diameter_overflows(self, tmp_path, capsys):
        # the dbar between the two specs' maps would overflow to nan
        paths = []
        for name, a in (("a", 0.5), ("b", 0.25)):
            paths.append(tmp_path / f"{name}.json")
            domain = {"lo": [-1e200], "hi": [1e200]}
            paths[-1].write_text(json.dumps({"dim": 1, "domain": domain, "maps": [{"A": [[a]], "b": [0.0]}]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.run(capsys, ["dist", *map(str, paths)])
        assert "box diameter must be finite" in err
        assert not caught

    @pytest.mark.parametrize("hi, scale", [(1e-300, 1e160), (1.0, 1e200)], ids=["tiny-domain", "unit-domain"])
    @pytest.mark.parametrize("command", ["attractor", "dist"])
    def test_spec_whose_closed_form_norm_overflows(self, tmp_path, capsys, hi, scale, command):
        # A^T A overflows in the 2x2 closed form; the norm must not read as nan
        spec = tmp_path / "big.json"
        A = [[scale, scale], [scale, scale]]
        domain = {"lo": [0.0, 0.0], "hi": [hi, hi]}
        spec.write_text(json.dumps({"dim": 2, "domain": domain, "maps": [{"A": A, "b": [0.0, 0.0]}]}))
        argv = ["attractor", str(spec), "--out", str(tmp_path / "a.csv")]
        if command == "dist":
            argv = ["dist", str(spec), str(spec)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.run(capsys, argv)
        assert "not a contraction" in err
        assert not caught

    def test_frames_of_mixed_dimension(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "a.pbm").write_bytes(b"P1\n4 1\n0 1 1 0\n")
        (frames / "b.csv").write_text("0.25,0.25\n0.5,0.75\n")
        err = self.run(
            capsys,
            ["predict", str(frames), "--model", "last", "--horizon", "1", "--out-prefix", str(tmp_path / "p")],
        )
        assert err == "error: frame 2: dimension 2 differs from frame 1's 1\n"

    def test_blank_frame_is_named(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        mask = np.zeros((2, 4), dtype=bool)
        write_pgm(frames / "f2.pgm", mask)
        mask[0, 1] = True
        for name in ("f1.pgm", "f3.pgm"):
            write_pgm(frames / name, mask)
        blank = frames / "f2.pgm"
        for argv in (
            ["collage-fit", str(blank), "--n", "1", "--out", str(tmp_path / "fit.json")],
            ["predict", str(frames), "--model", "last", "--horizon", "1", "--out-prefix", str(tmp_path / "p")],
        ):
            assert self.run(capsys, argv) == f"error: {blank}: raster has no foreground pixels\n"


class TestOutputFiles:
    @pytest.fixture
    def seqfile(self, tmp_path):
        path = tmp_path / "seq.json"
        write_sequence(path, IFSSequence(tuple(cantor_term(j) for j in range(1, 4))))
        return str(path)

    def test_outputs_follow_umask(self, tmp_path, seqfile):
        old = os.umask(0o022)
        try:
            argv = ["predict", seqfile, "--model", "last", "--horizon", "1", "--depth", "3",
                    "--out-prefix", str(tmp_path / "p"), "--image", str(tmp_path / "p.pgm"), "--px", "8"]
            assert main(argv) == 0
        finally:
            os.umask(old)
        for name in ("p.ifs.json", "p.points.csv", "p.pgm", "p.manifest.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name

    @pytest.mark.parametrize(
        "flags",
        [["--render-delta", "0"], ["--image", "{out}.pgm", "--px", "0"]],
        ids=["render-delta", "raster-width"],
    )
    def test_failed_predict_leaves_no_output(self, tmp_path, seqfile, flags):
        out = str(tmp_path / "pp")
        argv = ["predict", seqfile, "--model", "last", "--horizon", "1", "--out-prefix", out]
        assert main(argv + [f.format(out=out) for f in flags]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seq.json"]

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["predict", "{frames}", "--image", "{out}.pgm", "--px", "0"], "error: width must be positive"),
            (["predict", "{frames}", "--image", "{out}.pgm", "--px", str(1 << 25)],
             f"resource limit: a raster {1 << 25} pixels wide exceeds the {1 << 24}-pixel cap"),
            (["predict", "{frames}", "--depth", "-1"], "error: depth must be nonnegative"),
            (["predict", "{frames}", "--render-delta", "0"], "error: resolution must be a positive real"),
            (["predict", "{frames}", "--delta", "nan"], "error: resolution must be a positive real"),
            (["predict", "{frames}", "--restarts", "0"], "error: restarts must be at least 1"),
            (["predict", "{frames}", "--domain-lo", "0,0"], "error: --domain-lo and --domain-hi must be given together"),
            (["collage-fit", "{frames}/f1.pgm", "--n", "0"], "error: n must be at least 1"),
            (["collage-fit", "{frames}/f1.pgm", "--n", "1", "--iters", "0"], "error: max_iters must be at least 1"),
            (["collage-fit", "{frames}/f1.pgm", "--n", "1", "--delta", "-1"], "error: resolution must be a positive real"),
            (["attractor", "{spec}", "--depth", "-1"], "error: depth must be nonnegative"),
            (["attractor", "{spec}", "--image", "{out}.pgm", "--px", "-3"], "error: width must be positive"),
        ],
        ids=["predict-px", "predict-px-over-cap", "predict-depth", "predict-render-delta", "predict-delta",
             "predict-restarts", "predict-domain", "fit-n", "fit-iters", "fit-delta", "attractor-depth",
             "attractor-px"],
    )
    def test_flags_are_refused_before_any_input_is_read(self, tmp_path, monkeypatch, capsys, argv, err):
        def no_work(*args, **kwargs):
            raise AssertionError("no input may be read or fitted")

        for name in ("ifsseq.collage.fit_ifs", "ifsseq.collage.fit_sequence", "ifsseq.cli.read_raster",
                     "ifsseq.cli.read_ifs"):
            monkeypatch.setattr(name, no_work)
        frames = tmp_path / "frames"
        frames.mkdir()
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 1] = True
        for j in (1, 2):
            write_pgm(frames / f"f{j}.pgm", mask)
        write_ifs(tmp_path / "s.json", cantor_term(1))
        out = tmp_path / "out"
        tail = {"predict": ["--model", "last", "--horizon", "1", "--out-prefix", str(out)],
                "collage-fit": ["--out", f"{out}.json"], "attractor": []}[argv[0]]
        argv = [arg.format(frames=frames, out=out, spec=tmp_path / "s.json") for arg in argv] + tail
        assert main(argv) == (3 if err.startswith("resource limit") else 2)
        assert capsys.readouterr() == ("", err + "\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames", "s.json"]

    def test_missing_directory_is_refused_before_the_fit(self, tmp_path, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("the fit must not start")

        monkeypatch.setattr("ifsseq.collage.fit_ifs", no_fit)
        monkeypatch.setattr("ifsseq.collage.fit_sequence", no_fit)
        frames = tmp_path / "frames"
        frames.mkdir()
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 1] = True
        for j in (1, 2):
            write_pgm(frames / f"f{j}.pgm", mask)
        missing = tmp_path / "missing"
        for argv in (
            ["collage-fit", str(frames / "f1.pgm"), "--n", "1", "--out", f"{missing}/fit.json"],
            ["predict", str(frames), "--model", "last", "--horizon", "1", "--out-prefix", f"{missing}/p"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {missing}/")

    def test_one_frame_directory_is_refused_before_any_frame_is_read(self, tmp_path, monkeypatch, capsys):
        def no_read(*args, **kwargs):
            raise AssertionError("no frame may be read")

        monkeypatch.setattr("ifsseq.cli._load_frame", no_read)
        frames = tmp_path / "frames"
        frames.mkdir()
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 1] = True
        write_pgm(frames / "f1.pgm", mask)
        out = tmp_path / "out"
        assert main(["predict", str(frames), "--model", "last", "--horizon", "1", "--out-prefix", str(out)]) == 4
        assert capsys.readouterr() == ("", "precondition failed: prediction needs at least 2 frames\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames"]
