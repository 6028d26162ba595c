"""The demos that run in about a second exit 0 with nothing on stderr.

Demos 04 and 06 train models for 10-20 s each, so they are left to be run
by hand; every demo's imports from the package are checked here instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

from conftest import run_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_market_data_and_windows", "02_normalization_regimes",
                                  "03_gradient_penalty", "05_max_sharpe_allocation"])
def test_demo_runs_clean(name, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    done = run_python(str(DEMOS / f"{name}.py"), cwd=tmp_path, TMPDIR=str(tmpdir))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert list(tmpdir.iterdir()) == []  # temporary files are removed


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_imports_resolve(path):
    imported = [(node.module, alias.name)
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.ImportFrom) and node.module.startswith("ganfolio")
                for alias in node.names]
    assert imported, f"{path.name} imports nothing from ganfolio"
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names the package lacks: {missing}"
