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


def test_only_linalg_computes_with_psd_eps():
    # the PSD floor is Tolerance.psd_floor: elsewhere psd_eps may be read, as
    # the CLI reads its default, but no operator takes it as an operand
    package = Path(freepd.__file__).resolve().parent

    def operands(node):
        if isinstance(node, ast.BinOp):
            return [node.left, node.right]
        if isinstance(node, ast.UnaryOp):
            return [node.operand]
        if isinstance(node, ast.AugAssign):
            return [node.target, node.value]
        return []

    stray = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if any(isinstance(x, ast.Attribute) and x.attr == "psd_eps" for x in operands(node))
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


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to export; every other module reads each name it imports
    package = Path(freepd.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for name in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
            if name not in used
        ]
    assert unused == []
