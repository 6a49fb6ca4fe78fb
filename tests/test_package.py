import ast
import os
import re
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


def test_every_third_party_import_is_a_declared_dependency():
    """Each module the tests and demos import, other than the standard
    library, pocause and the test modules themselves, is named in the
    project's dependencies or its test extra."""
    if sys.version_info < (3, 11):
        pytest.skip("reading pyproject.toml needs tomllib, new in Python 3.11")
    import tomllib

    root = Path(__file__).parent.parent
    tests = sorted(root.joinpath("tests").glob("*.py"))
    imported = set()
    for path in tests + DEMOS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"pocause"} - {p.stem for p in tests}
    project = tomllib.loads(root.joinpath("pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9._-]+", requirement)[0].lower().replace("-", "_")
        for requirement in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    assert sorted(third_party - declared) == []
