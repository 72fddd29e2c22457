import json

import numpy as np
import pytest

from ifsseq import IFS, AffineMap, Box, attractor_points, box_seed, big_d, hausdorff
from ifsseq.cli import format_value, main
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


class TestAnalyze:
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

    def test_plane_triple_notes_transitivity_failure(
        self, tmp_path, capsys, plane_s, plane_t, plane_u
    ):
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence((plane_s, plane_t, plane_u)))
        assert main(["analyze", str(seqfile), "--eps", "1.9"]) == 0
        out = capsys.readouterr().out
        assert "minimal ordering is not transitive" in out

    def test_non_cauchy_exit_code(self, tmp_path, capsys, ifs_s, ifs_t):
        seqfile = tmp_path / "seq.json"
        write_sequence(seqfile, IFSSequence((ifs_s, ifs_t, ifs_s, ifs_t)))
        assert main(["analyze", str(seqfile), "--eps", "0.01"]) == 4
        assert "precondition failed" in capsys.readouterr().err


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
        return {
            "spec": str(spec),
            "seq": str(seqfile),
            "img": str(img),
            "csv": str(csv),
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
