#!/usr/bin/env python3
"""Benchmark of heun-air: the `tabulate`, `verify` and `detect` workloads.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 35 \
        --trace 0

Run from the root of a source checkout: the package is imported from
`src/` and nothing needs to be installed. Each workload runs in this one
process on one thread, as a closed loop of whole rounds of ops until
`--seconds` of wall time have passed. Inputs are drawn from `--seed`
(see draws.py); outputs are checked against oracles.py. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of spans.py with `--trace 1`. Every attempted op is timed, whether
it passes, fails or raises, so the timed mix does not depend on the
verdicts. Diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import draws  # noqa: E402
import oracles  # noqa: E402
from draws import GENERAL, MINUS, PLUS, Draw  # noqa: E402

#: Fresh interpreters timed for setup_s, after one that writes bytecode.
SETUP_SAMPLES = 7
IMPORT_PROBE = ("import sys, time; sys.path[:0] = [{here!r}, {src!r}]; "
                "import calibrate; c = calibrate.loop_seconds(); "
                "t = time.perf_counter(); import heun_air; "
                "t = time.perf_counter() - t; "
                "print(t, c, calibrate.loop_seconds())")

#: Tabulate: points per family grid, and the grids themselves. Each stays
#: inside the documented kernel contracts; BHE skips its removable point
#: x = -sigma and CHE its singular point x = 1, with the margins of the
#: acceptance palettes.
GRID_POINTS = 10
GRIDS = {"BHE": (0.3, 3.0), "CHE": (0.2, 3.0), "GHE": (0.05, 0.95)}
BHE_SKIP, CHE_SKIP = 0.12, 0.1

#: Verify: the residual points and RK windows of `heun-air verify`, and
#: its residual tolerance per branch class.
VERIFY_POINTS = {"BHE": [0.4, 0.7, 1.0, 1.4, 1.9, 2.4],
                 "CHE": [0.3, 0.5, 0.7, 1.3, 1.7, 2.2, 2.8],
                 "GHE": [0.2, 0.35, 0.5, 0.65, 0.8]}
VERIFY_WINDOWS = {"BHE": [(0.3, 2.0)], "CHE": [(0.2, 0.8), (1.2, 3.0)],
                  "GHE": [(0.15, 0.85)]}
RESIDUAL_TOL = {GENERAL: 1e-7, PLUS: 1e-8, MINUS: 1e-8}
#: -sigma of a BHE general draw stays out of the points and the window,
#: with the palettes' 0.12 margin, as in acceptance battery 3.
BHE_VERIFY_CLEAR = (0.18, 2.52)
#: Seeded verify draws whose Wronskian is ill-conditioned,
#: max |y1 y2'| / |W| over the points above this, are redrawn: on them
#: verify.wronskian_check raises false alarms on some draws and not on
#: others. The fault is measured instead on the fixed input below, every
#: round.
KAPPA_MAX = 1e5
#: A correct basis that verify.wronskian_check reports as failed: drift
#: 3.1e-8 against WRONSKIAN_DRIFT_TOL = 1e-8, from rounding alone
#: (|y1 y2'| / |W| is about 3.5e8). One op on it closes every round. (The
#: CHE example of the same fault, CHEFamily(-1.8209086157044583,
#: 1.4720077101487359, -0.5621622190668396), costs six times as much.)
KNOWN_FALSE_ALARM = Draw("BHE", MINUS, (1.9134, -1.9134))
#: Every PERTURB_EVERY-th round, one basis is moved off the solution space
#: by this relative amount and must fail verification.
PERTURBATION = 1e-3
PERTURB_EVERY = 3

#: Detect: complex sample points for the non-local image, off every pole.
NONLOCAL_POINTS = (0.37 + 0.21j, 1.7 - 0.4j)
CANONICAL_COUNT = {"BHE": 2, "CHE": 8, "GHE": 16}
CLI_FIELDS = {"BHE": ("sigma", "tau"), "CHE": ("lambda", "sigma", "tau"),
              "GHE": ("a", "delta", "sigma", "tau")}
FAMILY_ATTRS = {"BHE": ("sigma", "tau"), "CHE": ("lam", "sigma", "tau"),
                "GHE": ("a", "delta", "sigma", "tau")}


class CheckFailed(Exception):
    """An output disagreed with an oracle."""


def need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "heun_air", "__init__.py")):
        sys.exit(f"perfbench: no heun_air package under {SRC}; run from the "
                 "root of a heun-air source checkout")
    sys.path.insert(0, SRC)
    import heun_air
    import heun_air.cli  # noqa: F401  (not imported by the package)
    return heun_air


def measure_setup() -> float:
    """Median calibrated time (see calibrate.py) of `import heun_air` in
    fresh interpreters. The first probe writes the bytecode and the timed
    ones read it, as an installed package does."""
    cmd = [sys.executable, "-c", IMPORT_PROBE.format(here=HERE, src=SRC)]
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    cal = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        if i:
            t, c0, c1 = (float(v) for v in out.split()[-3:])
            cal.append(t * calibrate.speed(c0, c1))
    return statistics.median(cal)


class Op:
    """One op: `run(units)` calls only the program, appends the latency of
    each point it evaluates to `units` and returns the output; `check`
    returns True when the op completed and False when it failed, and
    raises CheckFailed on a wrong output."""

    def __init__(self, run, check):
        self.run, self.check = run, check


class Workload:
    def __init__(self, H, seed: int, name: str):
        self.H = H
        self.rng = random.Random(f"{seed}:{name}:checks")
        self._streams = random.Random(f"{seed}:{name}")
        self.rounds = 0
        self.rows_rendered = 0

    def stream(self, kind, branch=GENERAL, extra=None):
        return draws.Stream(self._streams, kind, branch, extra)

    def family(self, d: Draw):
        return getattr(self.H, f"{d.kind}Family")(*d.params)


def _grid(d: Draw) -> list[float]:
    lo, hi = GRIDS[d.kind]
    xs = [lo + (hi - lo) * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
    if d.kind == "BHE":
        xs = [x for x in xs if abs(x + d.params[0]) > BHE_SKIP]
    elif d.kind == "CHE":
        xs = [x for x in xs if abs(x - 1.0) > CHE_SKIP]
    return xs


def _member_scales(rows) -> tuple[float, float]:
    return tuple(max(max(abs(r[m]), abs(r[m + "p"])) for r in rows)
                 for m in ("y1", "y2"))


class Tabulate(Workload):
    """One op: a general-branch draw of each family, `solve_family`, its
    grid evaluated point by point through `eval_basis`, and the rows
    rendered by `cli.render_csv` -- what `heun-air eval` does."""

    def __init__(self, H, seed):
        super().__init__(H, seed, "tabulate")
        self.streams = [self.stream(k) for k in draws.KINDS]

    def round(self):
        ds = [next(s) for s in self.streams]
        probe = self.rounds % 3  # the basis given the closed-form check
        self.rounds += 1
        H = self.H

        def run(units):
            out = []
            clock = time.perf_counter
            for d in ds:
                basis = H.solutions.solve_family(self.family(d))
                rows = []
                for x in _grid(d):
                    t = clock()
                    rows.extend(H.solutions.eval_basis(basis, [x]))
                    units.append(clock() - t)
                out.append((basis, rows, H.cli.render_csv(rows)))
            return out

        def check(out):
            for i, (d, (basis, rows, csv)) in enumerate(zip(ds, out)):
                self.rows_rendered += len(rows)
                need(all(r["status"] == "ok" for r in rows),
                     f"{d}: a grid point was refused")
                lines = csv.splitlines()
                need(len(lines) == len(rows) + 1, f"{d}: CSV row count")
                for line, r in zip(lines[1:], rows):
                    cells = line.split(",")
                    want = [r[k] for k in ("x", "y1", "y1p", "y2", "y2p")]
                    nums = [c for z in want for c in (z.real, z.imag)]
                    need(cells[-1] == "ok" and len(cells) == 11
                         and all(float(c) == v for c, v in zip(cells, nums)),
                         f"{d}: CSV cell does not parse back: {line}")
                if i != probe:
                    continue
                r = rows[self.rng.randrange(len(rows))]
                x = r["x"].real
                err = oracles.closed_form_error(
                    d.kind, d.branch, d.params, x,
                    ((r["y1"], r["y1p"]), (r["y2"], r["y2p"])),
                    _member_scales(rows))
                need(err <= oracles.CLOSED_FORM_TOL,
                     f"{d} x={x}: closed-form deviation {err:.3g}")
                for m in (basis.y1, basis.y2):
                    res = oracles.residual(d.kind, d.params, m, x)
                    need(res <= oracles.RESIDUAL_TOL,
                         f"{d} x={x}: residual {res:.3g}")
            return True
        return [Op(run, check)]


class Verify(Workload):
    """One op: one basis built by `solve_family` and checked by
    `verify_basis` with the points and windows of `heun-air verify`. A
    round is nine ops, one per family x {general, sigma = tau,
    sigma = -tau}, and one op on the KNOWN_FALSE_ALARM basis. The points
    are the member evaluations made during the check."""

    def __init__(self, H, seed):
        super().__init__(H, seed, "verify")
        self.streams = [
            self.stream(k, b, BHE_VERIFY_CLEAR if (k, b) == ("BHE", GENERAL)
                        else None)
            for k in draws.KINDS for b in draws.BRANCHES]
        self.redrawn = 0
        self.drawn = 0
        self.alarm_confirmed = False

    def _kappa(self, d: Draw) -> float:
        basis = self.H.solutions.solve_family(self.family(d))
        big, ws = 0.0, []
        for x in VERIFY_POINTS[d.kind]:
            (v1, d1), (v2, d2) = basis.y1(x), basis.y2(x)
            ws.append(v1 * d2 - v2 * d1)
            big = max(big, abs(v1 * d2), abs(v2 * d1))
        return big / abs(sum(ws) / len(ws))

    def _draw(self, s) -> Draw:
        while True:
            d = next(s)
            self.drawn += 1
            if self._kappa(d) <= KAPPA_MAX:
                return d
            self.redrawn += 1

    def _verify(self, d: Draw, basis):
        H = self.H
        return H.verify.verify_basis(
            H.forms.family_to_normal(self.family(d)), basis,
            VERIFY_POINTS[d.kind], rk_window=VERIFY_WINDOWS[d.kind],
            residual_tol=RESIDUAL_TOL[d.branch])

    def _run(self, d: Draw):
        def run(units):
            clock = time.perf_counter

            def timed(member):
                def y(x):
                    t = clock()
                    r = member(x)
                    units.append(clock() - t)
                    return r
                return y
            b = self.H.solutions.solve_family(self.family(d))
            rep = self._verify(
                d, dataclasses.replace(b, y1=timed(b.y1), y2=timed(b.y2)))
            return b, rep
        return run

    def _check(self, d: Draw, residual: bool, perturb: bool):
        def check(out):
            basis, rep = out
            if rep.status != "pass":
                print(f"perfbench: verify reported {rep.status} on {d}",
                      file=sys.stderr)
            if residual:
                x = self.rng.choice(VERIFY_POINTS[d.kind])
                for m in (basis.y1, basis.y2):
                    res = oracles.residual(d.kind, d.params, m, x)
                    need(res <= oracles.RESIDUAL_TOL,
                         f"{d} x={x}: residual {res:.3g}")
            if perturb:
                def off(x):  # (1 + eps x) y1 solves no equation of the family
                    v, dv = basis.y1(x)
                    g = 1 + PERTURBATION * x
                    return v * g, dv * g + PERTURBATION * v
                bad = dataclasses.replace(basis, y1=off)
                need(self._verify(d, bad).status == "fail",
                     f"{d}: a perturbed basis passed")
            return rep.status == "pass"
        return check

    def _check_alarm(self, out) -> bool:
        """The op fails when verify_basis reports `fail` on the fixed basis
        that the oracle confirms (once a run: the inputs are fixed)."""
        d = KNOWN_FALSE_ALARM
        basis, rep = out
        if not self.alarm_confirmed:
            for x in VERIFY_POINTS[d.kind]:
                got = (basis.y1(x), basis.y2(x))
                err = oracles.closed_form_error(d.kind, d.branch, d.params,
                                                x, got)
                need(err <= oracles.CLOSED_FORM_TOL,
                     f"{d} x={x}: closed-form deviation {err:.3g}")
            self.alarm_confirmed = True
        bad = {r.check for r in rep.rows if r.status != "ok"}
        need(bad <= {"wronskian"}, f"{d}: {sorted(bad)} rows failed")
        return rep.status != "fail"

    def round(self):
        ds = [self._draw(s) for s in self.streams]
        k = self.rounds  # rotates the bases given the independent checks
        self.rounds += 1
        n = len(ds)
        ops = [Op(self._run(d), self._check(
            d, i == k % n,
            k % PERTURB_EVERY == 0 and i == k // PERTURB_EVERY % n))
            for i, d in enumerate(ds)]
        ops.append(Op(self._run(KNOWN_FALSE_ALARM), self._check_alarm))
        return ops


def _cx(v) -> complex:
    return complex(*v) if isinstance(v, list) else complex(v)


class Detect(Workload):
    """One op: a general-branch draw of each family through detection and
    conversion -- family_to_normal -> extract_normal_params ->
    normal_to_family, family_to_canonical -> canonical_to_family on every
    branch, `heun-air detect` and `convert` through cli.parse_spec and
    cli.run, and mobius_nonlocal and companion_p_ode on the family's
    hypergeometric seed equation. No special function runs."""

    def __init__(self, H, seed):
        super().__init__(H, seed, "detect")
        self.streams = [self.stream(k) for k in draws.KINDS]

    def _inputs(self, d: Draw):
        H = self.H
        normal = oracles.normal_params(d.kind, d.params)
        detect = dict(command="detect", form=d.kind.lower() + "_normal",
                      **normal)
        convert = dict(zip(CLI_FIELDS[d.kind], d.params), command="convert",
                       form=d.kind.lower() + "_family")
        (n1, d1), (n0, d0) = oracles.seed_coefficients(d.kind, d.params)
        P, R = H.numkernel.Poly, H.numkernel.RatFun
        seed = H.forms.LinearODE(R(P(n1), P(d1)), R(P(n0), P(d0)))
        return (self.family(d), json.dumps(detect), json.dumps(convert), seed)

    def round(self):
        H = self.H
        ds = [next(s) for s in self.streams]
        inputs = [self._inputs(d) for d in ds]

        def run(units):
            out = []
            clock = time.perf_counter
            forms, cli, abel = H.forms, H.cli, H.abel
            for d, (f, detect, convert, seed) in zip(ds, inputs):
                t = clock()
                ode = forms.family_to_normal(f)
                normal = forms.extract_normal_params(ode, d.kind)
                found = forms.normal_to_family(normal)
                back = [forms.canonical_to_family(c)
                        for c in forms.family_to_canonical(f)]
                texts = []
                for spec in (detect, convert):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.run(cli.parse_spec(spec))
                    texts.append((code, buf.getvalue()))
                image = abel.mobius_nonlocal(seed)
                companion = abel.companion_p_ode(image)
                units.append(clock() - t)
                out.append((ode, normal, found, back, texts, image, companion))
            return out

        def check(out):
            for d, result in zip(ds, out):
                self._check_family(d, *result)
            return True
        return [Op(run, check)]

    @staticmethod
    def _check_family(d, ode, normal, found, back, texts, image, companion):
        want = oracles.normal_params(d.kind, d.params)
        x = NONLOCAL_POINTS[0]
        q = oracles.ratfun_value(ode.c0.num.coeffs, ode.c0.den.coeffs, x)
        need(ode.c1.num.is_zero() and oracles.rel_dev(
            q, oracles.q_value(d.kind, d.params, x)) <= 1e-10,
            f"{d}: normal form q")
        dev = max(oracles.rel_dev(normal[k], want[k]) for k in want)
        need(dev <= oracles.ROUND_TRIP_TOL, f"{d}: extracted {dev:.3g}")

        attrs = FAMILY_ATTRS[d.kind]
        for cands in [found] + back:
            err = oracles.recovery_error(
                d.params, [tuple(getattr(c, a) for a in attrs) for c in cands])
            need(err <= oracles.ROUND_TRIP_TOL, f"{d}: recovery {err:.3g}")
        need(len(back) == CANONICAL_COUNT[d.kind], f"{d}: canonical sets")

        (c_det, t_det), (c_conv, t_conv) = texts
        need(c_det == 0 and c_conv == 0, f"{d}: cli exit codes")
        err = oracles.recovery_error(d.params, [
            tuple(_cx(c[k]) for k in CLI_FIELDS[d.kind])
            for c in json.loads(t_det)["candidates"]])
        need(err <= oracles.ROUND_TRIP_TOL, f"{d}: cli detect {err:.3g}")
        conv = json.loads(t_conv)
        got = {k: _cx(v) for k, v in conv["normal"].items() if k != "form"}
        dev = max(oracles.rel_dev(got[k], want[k]) for k in want)
        need(dev <= oracles.RELATION_TOL, f"{d}: cli convert {dev:.3g}")
        rel = oracles.relation_defect(d.kind, got)
        need(rel <= oracles.RELATION_TOL, f"{d}: relations {rel:.3g}")
        need(len(conv["canonical"]) == CANONICAL_COUNT[d.kind],
             f"{d}: cli canonical sets")

        for x in NONLOCAL_POINTS:
            want_img, want_comp = oracles.nonlocal_expected(d.kind, d.params,
                                                            x)
            pairs = [(image, want_img), (companion, want_comp)]
            if d.kind == "GHE":
                # RatFun keeps every common factor, and the degree-46 GHE
                # companion loses up to 10 % near x = a: left unchecked
                pairs.pop()
            for ode_got, ode_want in pairs:
                for r, w in zip((ode_got.c1, ode_got.c0), ode_want):
                    v = oracles.ratfun_value(r.num.coeffs, r.den.coeffs, x)
                    need(oracles.rel_dev(v, w) <= oracles.NONLOCAL_TOL,
                         f"{d} x={x}: non-local image")


WORKLOADS = {"tabulate": Tabulate, "verify": Verify, "detect": Detect}


def _pct_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def _end_to_end(setup_s, lat, units, rss) -> dict:
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (_pct_ms(lat, 50), "ms"),
        "points_per_s": (len(units) / sum(units), "1/s"),
        "point_p50_ms": (_pct_ms(units, 50), "ms"),
        "point_p99_ms": (_pct_ms(units, 99), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(args) -> dict:
    H = import_program()
    setup_s = measure_setup()
    wl = WORKLOADS[args.workload](H, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    def execute(op, op_id=-1):
        """(latency, speed, completed, units) of one op, where `speed`
        turns seconds into calibrated seconds; wrong outputs clear
        `correct`. Spans carry `op_id` while the op runs, not while it is
        checked."""
        nonlocal correct, cal
        if tracer:
            tracer.op = op_id
        op_units = []
        t = clock()
        try:
            out = op.run(op_units)
            ok = True
        except H.HeunAirError as exc:
            print(f"perfbench: op raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            ok = False
        finally:
            dt = clock() - t
            if tracer:
                tracer.op = -1
        before, cal = cal, calibrate.loop_seconds()
        loops.append(cal)
        try:
            ok = ok and op.check(out)
        except CheckFailed as exc:
            print(f"perfbench: wrong output: {exc}", file=sys.stderr)
            correct = ok = False
        return dt, calibrate.speed(before, cal), ok, op_units

    clock = time.perf_counter
    correct = True
    cal = calibrate.loop_seconds()
    loops = []
    # warm-up: lazy imports and mpmath's cached constants, untimed
    for op in wl.round():
        execute(op)
    wl.rows_rendered = 0
    loops.clear()

    if tracer:
        tracer.install(H)
    attempted = failed = 0
    lat, units, replay = [], [], []
    traced_s = 0.0  # uncalibrated op time: the spans' base
    t_end = clock() + args.seconds
    while clock() < t_end:
        for op in wl.round():
            dt, speed, ok, op_units = execute(op, attempted)
            attempted += 1
            failed += not ok
            traced_s += dt
            lat.append(dt * speed)
            units.extend(u * speed for u in op_units)
            if tracer and sum(r[1] for r in replay) < args.seconds / 5:
                replay.append((op, dt * speed))

    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} ops "
          f"({failed} failed) in {wl.rounds} rounds, {len(units)} points",
          file=sys.stderr)
    if isinstance(wl, Verify):
        print(f"perfbench: {wl.redrawn} of {wl.drawn} verify draws redrawn "
              f"for |y1 y2'|/|W| > {KAPPA_MAX:g}", file=sys.stderr)
    q1, p50, q3 = statistics.quantiles(loops, n=4)
    print(calibrate.REPORT_PREFIX + json.dumps(
        {"p50_ms": p50 * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3}),
        file=sys.stderr)
    if not tracer:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _end_to_end(setup_s, lat, units, rss)
    else:
        from spans import layer_metrics
        tracer.uninstall()
        plain = 0.0  # calibrated, as the traced times are
        for op, _ in replay:
            before = calibrate.loop_seconds()
            t = clock()
            try:
                op.run([])
            except H.HeunAirError:
                pass
            dt = clock() - t
            plain += dt * calibrate.speed(before, calibrate.loop_seconds())
        overhead = 100.0 * (sum(r[1] for r in replay) / plain - 1.0)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"))
        metrics = layer_metrics(tracer, traced_s, wl.rows_rendered, overhead)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(ap.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
