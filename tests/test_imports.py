"""Runtime dependencies: mpmath is the only one; numpy serves the tests and
perfbench alone."""
from __future__ import annotations

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_package_and_cli_import_without_numpy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import heun_air, heun_air.cli; print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
