import os
import subprocess
import sys
from pathlib import Path

import pytest

import pocause

PACKAGE_DIR = Path(pocause.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def test_public_names_resolve_once():
    names = pocause.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pocause, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    """Each module, imported first in a fresh interpreter and without the
    package's __init__ having imported the others, finds everything it
    needs: no two modules import names from each other."""
    code = (
        "import importlib, sys, types\n"
        "pkg = types.ModuleType('pocause')\n"
        f"pkg.__path__ = [{str(PACKAGE_DIR)!r}]\n"
        "sys.modules['pocause'] = pkg\n"
        f"importlib.import_module('pocause.{module}')\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    """Each demo script runs to completion against the package in src/; the
    case study runs on a synthetic 649-row grade file."""
    args = [sys.executable, str(demo)]
    if demo.stem == "student_reproduction":
        from test_student import COLUMNS, _synthetic_rows

        grades = tmp_path / "grades.csv"
        rows = "\n".join(_synthetic_rows(649))
        grades.write_text(f"{COLUMNS}\n{rows}\n", encoding="utf-8")
        args += [str(grades), "--bootstrap", "5"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])
    )}
    result = subprocess.run(args, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert result.returncode == 0, result.stderr
