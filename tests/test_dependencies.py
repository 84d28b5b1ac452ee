"""The package imports nothing beyond numpy and the standard library,
which is all that ``pyproject.toml`` declares for it, and names each
numerical threshold once, in the table of ``freepd.linalg``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import freepd

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
