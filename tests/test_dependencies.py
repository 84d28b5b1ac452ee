"""The package imports nothing beyond numpy and the standard library,
which is all that ``pyproject.toml`` declares for it, and names each
numerical threshold once, in the table of ``freepd.linalg``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import freepd
from freepd import linalg

IMPORT_ALL = """
import importlib, pkgutil, sys
before = set(sys.modules)
import freepd, freepd.cli
for info in pkgutil.iter_modules(freepd.__path__):
    importlib.import_module(f"freepd.{info.name}")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "freepd"}))
"""


def test_freepd_imports_only_numpy_and_the_standard_library():
    src = str(Path(freepd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == "[]"


def test_thresholds_are_named_only_in_linalg():
    package = Path(freepd.__file__).resolve().parent
    stray = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-3
    ]
    assert stray == []


def test_readme_tolerance_table_lists_exactly_the_thresholds():
    # the README's Tolerances table: one row per threshold, name and value as in linalg
    readme = (Path(freepd.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    documented = {name.strip("| `"): float(value) for name, value, *_ in rows}
    expected = {"Tolerance.psd_eps": linalg.Tolerance.psd_eps}
    expected.update((name, value) for name, value in vars(linalg).items() if type(value) is float)
    assert documented == expected
