"""`tools/bit_identity.py --summary` on two small dumps.

The dumps are written to a temporary directory: one unchanged line, two
changed member lines of one section, a changed special-function line and a
changed CSV hash. The summary must count them per section and kind, and
name the parent's and the change's line that hold each worst change.
"""
from __future__ import annotations

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location(
            "bit_identity", os.path.join(ROOT, "tools", "bit_identity.py"))
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
    finally:
        sys.dont_write_bytecode = bytecode
    return tool


def _pair(z: complex) -> str:
    return f"{z.real.hex()},{z.imag.hex()}"


def _member(tag: str, name: str, x: float, y: complex, dy: complex) -> str:
    return f"{tag} {name} {_pair(x)} {_pair(y)} {_pair(dy)} passes=0\n"


PARENT = [
    _member("tabulate:1:0", "y1", 0.05, 1.0, 2.0),
    _member("tabulate:1:0", "y1", 0.95, 1.0, 2.0),
    _member("tabulate:2:3", "y2", 0.95, 4.0, -1.0),
    "tabulate:2:3 csv 0123 passes=0\n",
    f"specialfns:hyp2f1:7 {_pair(0.95)} {_pair(1.0)} {_pair(0.5)} passes=0\n",
]
CHANGE = [
    PARENT[0],
    _member("tabulate:1:0", "y1", 0.95, 1.0, 2.0 + 2**-50),  # 2^-51
    _member("tabulate:2:3", "y2", 0.95, 4.0 + 2**-46, -1.0),  # 2^-48
    "tabulate:2:3 csv 4567 passes=0\n",
    f"specialfns:hyp2f1:7 {_pair(0.95)} {_pair(1.0 + 2**-44)} {_pair(0.5)} "
    "passes=1\n",  # 2^-44
]


def test_summary_names_the_worst_lines(tmp_path, capsys):
    paths = []
    for name, lines in (("parent.dump", PARENT), ("change.dump", CHANGE)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join(lines))
    assert _tool().main(["--summary", *map(str, paths)]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in out[1:4]}
    assert rows == {("specialfns:hyp2f1", "specialfns"): ["1", "5.68e-14"],
                    ("tabulate", "csv"): ["1", "-"],
                    ("tabulate", "member"): ["2", "3.55e-15"]}
    assert out[4:10] == [
        "worst specialfns:hyp2f1 specialfns change 5.68e-14, line 5:",
        "- " + PARENT[4].rstrip(), "+ " + CHANGE[4].rstrip(),
        "worst tabulate member change 3.55e-15, line 3:",
        "- " + PARENT[2].rstrip(), "+ " + CHANGE[2].rstrip()]
    assert out[10].startswith("The dumps differ on 4 of 5 lines")
