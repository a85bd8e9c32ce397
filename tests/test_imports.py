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


def test_package_and_cli_import_without_mpmath():
    """mpmath is loaded by the first rerun, not by the import."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import heun_air, heun_air.cli; print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_rerun_in_a_fresh_interpreter_matches_in_process():
    """inc_beta(0.8, -8.5, 5.0), an input of test_rerun_matches_oracle that
    neither double-precision route answers, reruns on mpmath: a fresh
    interpreter has mpmath loaded after it and gives the same bits."""
    from heun_air import inc_beta

    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from heun_air import inc_beta; "
            "v = inc_beta(0.8, -8.5, 5.0).value; "
            "print('mpmath' in sys.modules, v.real.hex(), v.imag.hex())")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    v = inc_beta(0.8, -8.5, 5.0).value
    assert out.split() == ["True", v.real.hex(), v.imag.hex()]
