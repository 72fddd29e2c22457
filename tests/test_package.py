import json
import os
import subprocess
import sys
from pathlib import Path

import ifsseq

FIXTURES = Path(__file__).parent / "fixtures"

# Run in a fresh interpreter: prints which of the two heavy scipy
# subpackages are loaded once the snippet has run.
PROBE = """
import json, sys
{snippet}
print(json.dumps(sorted(m for m in ("scipy.spatial", "scipy.optimize") if m in sys.modules)))
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
    """scipy.spatial and scipy.optimize load at first use, never at import."""

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

    def test_dist_loads_optimize(self, tmp_path):
        # the probe sees a first-use load when one happens
        spec = FIXTURES / "render" / "plane.json"
        snippet = f"from ifsseq.cli import main\nassert main(['dist', {str(spec)!r}, {str(spec)!r}]) == 0"
        assert "scipy.optimize" in loaded_after(snippet, tmp_path)
