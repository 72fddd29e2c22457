import json
import os
import subprocess
import sys
from pathlib import Path

import ifsseq

FIXTURES = Path(__file__).parent / "fixtures"

# Run in a fresh interpreter: prints which of the heavy scipy subpackages,
# and whether ifsseq.collage, are loaded once the snippet has run.
PROBE = """
import json, sys
{snippet}
print(json.dumps(sorted(m for m in ("scipy.spatial", "scipy.optimize", "scipy.ndimage", "ifsseq.collage") if m in sys.modules)))
"""


def loaded_after(snippet: str, cwd) -> list[str]:
    src = str(Path(ifsseq.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(snippet=snippet)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_exported_name_resolves_once():
    missing = [name for name in ifsseq.__all__ if not hasattr(ifsseq, name)]
    assert missing == []
    repeated = sorted({name for name in ifsseq.__all__ if ifsseq.__all__.count(name) > 1})
    assert repeated == []


class TestColdStart:
    """scipy.spatial, scipy.optimize, scipy.ndimage and ifsseq.collage load
    at first use, never at import."""

    def test_import_loads_neither(self, tmp_path):
        assert loaded_after("import ifsseq, ifsseq.cli", tmp_path) == []

    def test_attractor_loads_neither(self, tmp_path):
        spec = FIXTURES / "render" / "plane.json"
        snippet = f"from ifsseq.cli import main\nassert main(['attractor', {str(spec)!r}, '--out', 'p.csv']) == 0"
        assert loaded_after(snippet, tmp_path) == []
        assert (tmp_path / "p.csv.manifest.json").exists()

    def test_collage_fit_loads_no_optimize(self, tmp_path):
        target = FIXTURES / "fit" / "target.pgm"
        argv = ["collage-fit", str(target), "--n", "2", "--restarts", "1", "--iters", "1",
                "--threshold", "100", "--out", "fit.json"]
        snippet = f"from ifsseq.cli import main\nassert main({argv!r}) == 0"
        assert "scipy.optimize" not in loaded_after(snippet, tmp_path)

    def test_line_predict_loads_none(self, tmp_path):
        # the line fit screens, fits and renders without a tree, a solver or
        # an image transform
        frames = FIXTURES / "fit" / "frames"
        argv = ["predict", str(frames), "--model", "linear", "--horizon", "1", "--n", "2", "--restarts", "1",
                "--iters", "10", "--threshold", "100", "--domain-lo", "0", "--domain-hi", "1", "--out-prefix", "pred"]
        snippet = f"from ifsseq.cli import main\nassert main({argv!r}) == 0"
        assert loaded_after(snippet, tmp_path) == ["ifsseq.collage"]
        assert (tmp_path / "pred.ifs.json").exists()

    def test_analyze_loads_no_optimize(self, tmp_path):
        seqfile = FIXTURES / "analyze" / "converging2d.seq.json"
        snippet = f"from ifsseq.cli import main\nassert main(['analyze', {str(seqfile)!r}, '--eps', '0.05']) == 0"
        assert "scipy.optimize" not in loaded_after(snippet, tmp_path)

    def test_dist_loads_optimize(self, tmp_path):
        # the probe sees a first-use load when one happens: 7 maps are
        # matched with the solver, as enumeration stops at 6
        maps = [{"A": [[0.125]], "b": [k / 8.0]} for k in range(7)]
        spec = tmp_path / "seven.json"
        spec.write_text(json.dumps({"dim": 1, "domain": {"lo": [0.0], "hi": [1.0]}, "maps": maps}))
        snippet = f"from ifsseq.cli import main\nassert main(['dist', {str(spec)!r}, {str(spec)!r}]) == 0"
        assert "scipy.optimize" in loaded_after(snippet, tmp_path)
