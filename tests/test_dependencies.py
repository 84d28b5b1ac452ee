"""The package imports nothing beyond numpy and the standard library,
which is all that ``pyproject.toml`` declares for it."""

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
