import ast
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


# The package's layers, lowest first: a module imports, at module level, only
# modules of a lower layer.  collage and formats share a layer.
LAYER = {"errors": 0, "maps": 1, "systems": 2, "sequences": 3, "attractor": 4, "collage": 5, "formats": 5, "cli": 6}


def ifsseq_imports(node, deferred=False):
    """(module, deferred) for each ifsseq module that the code under `node`
    imports, deferred when the import sits in a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.level == 1:
            names = [child.module] if child.module else [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("ifsseq."):
            names = [child.module]
        elif isinstance(child, ast.Import):
            names = [alias.name for alias in child.names if alias.name.startswith("ifsseq.")]
        else:
            names = []
        for name in names:
            yield name.removeprefix("ifsseq.").split(".")[0], deferred
        yield from ifsseq_imports(child, deferred or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))


class TestLayering:
    """collage and the CLI sit on top: the sequence layer, which the tail fit
    belongs to, and the map layer, which the feasible set belongs to, never
    reach up into the fit."""

    SRC = Path(ifsseq.__file__).parent

    def imports(self, module):
        return list(ifsseq_imports(ast.parse((self.SRC / f"{module}.py").read_text())))

    def test_every_module_has_a_layer(self):
        assert sorted(p.stem for p in self.SRC.glob("*.py")) == sorted([*LAYER, "__init__"])

    def test_module_level_imports_go_down_the_layers(self):
        upward = [
            (module, name)
            for module, layer in LAYER.items()
            for name, deferred in self.imports(module)
            if not deferred and name in LAYER and LAYER[name] >= layer
        ]
        assert upward == []

    def test_only_cli_imports_collage(self):
        importers = sorted({m for m in [*LAYER, "__init__"] for name, _ in self.imports(m) if name == "collage"})
        assert importers == ["cli"]


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

    def test_sequence_predict_loads_none(self, tmp_path):
        # extrapolation and its projection sit below the collage module, and a
        # sequence file is extrapolated without a fit
        seqfile = FIXTURES / "analyze" / "converging2d.seq.json"
        argv = ["predict", str(seqfile), "--model", "geometric", "--horizon", "2", "--depth", "4", "--out-prefix", "pred"]
        snippet = f"from ifsseq.cli import main\nassert main({argv!r}) == 0"
        assert loaded_after(snippet, tmp_path) == []
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
