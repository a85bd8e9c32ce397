"""The benchmark's traced run on the real package.

`perfbench/spans.py` patches the package's functions by attribute name and
rewraps basis members through `dataclasses.replace`, so a renamed or
removed name, or a basis that does not survive the rewrap, breaks only the
traced run (`perfbench/run.py --trace 1`). Here the tracer is installed on
the imported package, one round of each workload runs and is checked
against the benchmark's oracles, the per-layer metrics are computed, and
uninstalling must restore every patched attribute. The benchmark's modules
are imported without writing bytecode, and nothing is written under
`perfbench/`.
"""
from __future__ import annotations

import importlib.util
import json
import math
import os
import sys
import time

import pytest

import heun_air
import heun_air.cli  # noqa: F401  (patched by the tracer; not imported by the package)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 1


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py (as a module of its own name) and spans.py."""
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(PERFBENCH, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)  # puts perfbench/ on sys.path
        import spans
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    return run, spans


def test_traced_round_of_every_workload(bench):
    run, spans = bench
    H = heun_air
    tracer = spans.Tracer()
    tracer.install(H)
    patched = list(tracer._undo)
    try:
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
        op_id, op_seconds, rows = 0, 0.0, 0
        for name in ("tabulate", "verify", "detect"):
            wl = run.WORKLOADS[name](H, SEED)
            ops = wl.round()
            for op in ops:
                tracer.op = op_id
                t = time.perf_counter()
                out = op.run([])
                op_seconds += time.perf_counter() - t
                tracer.op = -1
                # a wrong output raises CheckFailed; only the op on the
                # known Wronskian false alarm, last in a verify round, may
                # report a failed check
                assert op.check(out) or (name == "verify" and op is ops[-1])
                op_id += 1
            rows += wl.rows_rendered
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)

    metrics = spans.layer_metrics(tracer, op_seconds, rows, 0.0)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared <= set(metrics)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    for key in ("specialfns.hyp1f1.calls", "specialfns.kummer_u.calls",
                "specialfns.whittaker.calls", "specialfns.hyp2f1.calls",
                "solutions.solve_family.calls", "solutions.member.calls",
                "numkernel.rat_eval.calls", "numkernel.ratfun_arith.calls",
                "forms.family_to_normal.calls", "abel.mobius_nonlocal.calls",
                "verify.verify_basis.ms_p50", "verify.rk45_compare.rhs_evals",
                "cli.render_csv.us_per_row", "cli.run.us_p50"):
        assert metrics[key]["value"] > 0, key
