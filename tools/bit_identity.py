#!/usr/bin/env python3
"""Dump every output of a heun-air source tree bit for bit, for diffing.

    python3 tools/bit_identity.py --src <tree>/src > <tree>.dump
    diff parent.dump change.dump

Imports `heun_air` from `--src` and writes one line per output, with every
float as `float.hex`, so signed zeros and last-bit changes show:

* `tabulate`: the general-branch grids of the benchmark's `tabulate`
  workload for seeds 1-3 (60 rounds of one draw per family);
* `verify`: for seeds 1-3, 15 draws of every family and branch
  from the `verify` workload's streams, at the `heun-air verify` points
  and 20 points in each RK window, and the benchmark's fixed basis; and
  for each of these bases, every row of `verify_basis` at the
  `heun-air verify` points and RK windows (check, member, x, value and
  status) and the report's status, row count and three aggregates (or
  the error it raised); for the general-branch draws among them, also
  the basis of `solve_via_p_route`, its metadata and both members at the
  same points (or the error it raised);
* for every basis: `formula`, `classification`, `valid_domain`,
  `probe_point`, `family` and `derived`, the coefficients of
  `family_to_normal`, (y, y') of both members at every point (or the
  error each point raised), and the sha256 of the rendered CSV;
* `cli`: the sha256 of stdout and stderr and the exit code of CLI
  `eval`/`solve`/`convert`/`detect`/`verify` for the first 2 draws
  of every verify stream of seed 1, and of `paper-suite`;
* `specialfns`: 3000 seeded calls of each public special function
  (`hyp1f1`, `kummer_u`, `hyp2f1`, `hyp0f1`, Whittaker M and W, erf,
  erfi, `inc_gamma_upper`, `inc_beta`), drawn over regions where the
  double path hands over to the mpmath rerun: large |z| for U and W,
  0.5 < |z| < 0.97 for 2F1, Re z < 0 for 1F1 and the incomplete gamma.
  Each line holds the value and the derivative, or the error the call
  raised.

Every line ends with `passes=N`: the mpmath rerun passes (calls of
`specialfns._mp_ctx`, counted with or without a precision argument, so
that one tool dumps trees of either signature) made while its output was
computed. A `verify_basis` report's rows and aggregates all carry the
passes of the whole report.

Draws, grids, points and windows come from `perfbench/` (imported, never
written: no bytecode is cached). Two trees give identical outputs when
`diff` of their dumps is empty. A change that may move only values the
parent computed by an mpmath rerun is checked with

    python3 tools/bit_identity.py --compare parent.dump change.dump

which counts the lines that differ (beside `passes=`) and fails when one
of them is a line for which the parent made no rerun pass, or when the
dumps do not have the same lines. A change that may move derivatives, but
no value and no status, is checked with

    python3 tools/bit_identity.py --drift parent.dump change.dump

which fails when a value changed: a member's or a special function's y,
or a line of basis metadata or normal-form coefficients. It also fails
when a status changed: an error a point, a call or `solve_family`
raised, a `verify_basis` row's status or a report's status and row count
(or its error), or a CLI exit code. It prints the changed lines per kind
and the worst derivative change relative to max(|y|, |y'|) of the
parent's line. Changed `verify_basis` values and aggregates, CSV hashes
and CLI output hashes are counted, not judged.

A change that may move outputs is described with

    python3 tools/bit_identity.py --summary parent.dump change.dump

which never fails. Per section (a line's tag without its seed and
index, as `tabulate`, `verify`, `verify:p` for the p-route, `cli` or
`specialfns:hyp1f1`) and line kind (`member`, `row`, `report`, `normal`,
...) it prints the changed-line count and, for member and special-function
lines, the worst change of the value or the derivative relative to
max(|y|, |y'|) of the parent's line; then, per section and kind with a
worst change, the parent's and the change's line that hold it; and it
ends with one sentence that states where the dumps differ.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

SEEDS = (1, 2, 3)
TABULATE_ROUNDS = 60
VERIFY_DRAWS = 15
CLI_DRAWS = 2
WINDOW_SAMPLES = 20
CLI_GRID_POINTS = 50
SPECIAL_CALLS = 3000


def _hex(z) -> str:
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Dumper:
    def __init__(self, H, bench, out):
        self.H, self.bench, self.out = H, bench, out
        self.passes = 0  # rerun passes since the last line
        mp_ctx = H.specialfns._mp_ctx

        def counting(*args):
            self.passes += 1
            return mp_ctx(*args)
        H.specialfns._mp_ctx = counting

    def take(self) -> int:
        """The rerun passes since the last call."""
        n, self.passes = self.passes, 0
        return n

    def line(self, *parts, passes=None) -> None:
        """One output line, with the rerun passes made since the last line
        (or `passes`)."""
        n = self.take() if passes is None else passes
        self.out.write(" ".join(str(p) for p in parts) + f" passes={n}\n")

    def family(self, d):
        return getattr(self.H.forms, f"{d.kind}Family")(*d.params)

    def basis(self, tag: str, d, xs):
        """Dump one draw's basis at xs; returns the basis, or None when
        `solve_family` refuses the draw."""
        H = self.H
        self.line(tag, "draw", d.kind, d.branch, *(_hex(p) for p in d.params))
        f = self.family(d)
        ode = H.forms.family_to_normal(f)
        for name, r in (("c1", ode.c1), ("c0", ode.c0)):
            self.line(tag, "normal", name,
                      "num", *(_hex(c) for c in r.num.coeffs),
                      "den", *(_hex(c) for c in r.den.coeffs))
        b = self.solve(tag, H.solutions.solve_family, f, xs)
        if b is not None:
            csv = H.cli.render_csv(H.solutions.eval_basis(b, xs))
            self.line(tag, "csv", _sha(csv))
        return b

    def solve(self, tag: str, solve, f, xs):
        """Dump the metadata of solve(f) and both members at xs; returns
        the basis, or None when `solve` refuses the family."""
        H = self.H
        try:
            b = solve(f)
        except H.errors.HeunAirError as exc:
            self.line(tag, "solve", _error(exc))
            return None
        fam = b.family
        self.line(tag, "meta", b.formula, b.classification,
                  repr(b.valid_domain), _hex(b.probe_point),
                  type(fam).__name__,
                  *(f"{k}={_hex(v)}" for k, v in sorted(vars(fam).items())))
        self.line(tag, "derived",
                  *(f"{k}={_hex(v)}" for k, v in sorted(b.derived.items())))
        for x in xs:
            for name, member in (("y1", b.y1), ("y2", b.y2)):
                try:
                    v, dv = member(x)
                    got = f"{_hex(v)} {_hex(dv)}"
                except H.errors.HeunAirError as exc:
                    got = _error(exc)
                self.line(tag, name, _hex(x), got)
        return b

    def report(self, tag: str, d, b) -> None:
        """Dump every row and aggregate of `verify_basis` on a basis, as
        the benchmark's `verify` workload calls it."""
        H, bench = self.H, self.bench
        try:
            rep = H.verify.verify_basis(
                H.forms.family_to_normal(self.family(d)), b,
                bench.VERIFY_POINTS[d.kind],
                rk_window=bench.VERIFY_WINDOWS[d.kind],
                residual_tol=bench.RESIDUAL_TOL[d.branch])
        except H.errors.HeunAirError as exc:
            self.line(tag, "report", _error(exc))
            return
        n = self.take()
        for r in rep.rows:
            self.line(tag, "row", r.check, r.member, _hex(r.x),
                      r.value.hex(), r.status, passes=n)
        self.line(tag, "report", rep.status, rep.points_checked,
                  *(v.hex() for v in (rep.max_residual, rep.wronskian_drift,
                                      rep.rk_max_rel_error)), passes=n)

    def tabulate(self, seed: int) -> None:
        draws = self.bench.draws
        rng = random.Random(f"{seed}:tabulate")
        streams = [draws.Stream(rng, k, draws.GENERAL) for k in draws.KINDS]
        for i in range(TABULATE_ROUNDS):
            for s in streams:
                d = next(s)
                self.basis(f"tabulate:{seed}:{i}", d, self.bench._grid(d))

    def verify_points(self, kind: str) -> list[float]:
        xs = list(self.bench.VERIFY_POINTS[kind])
        for lo, hi in self.bench.VERIFY_WINDOWS[kind]:
            xs += [lo + (hi - lo) * k / (WINDOW_SAMPLES - 1)
                   for k in range(WINDOW_SAMPLES)]
        return xs

    def verify_streams(self, seed: int):
        bench, draws = self.bench, self.bench.draws
        rng = random.Random(f"{seed}:verify")
        return [draws.Stream(rng, k, b, bench.BHE_VERIFY_CLEAR
                             if (k, b) == ("BHE", draws.GENERAL) else None)
                for k in draws.KINDS for b in draws.BRANCHES]

    def verify(self, seed: int) -> None:
        draws = [(f"verify:{seed}:{i}", next(s))
                 for s in self.verify_streams(seed)
                 for i in range(VERIFY_DRAWS)]
        draws.append((f"verify:{seed}:alarm", self.bench.KNOWN_FALSE_ALARM))
        for tag, d in draws:
            xs = self.verify_points(d.kind)
            b = self.basis(tag, d, xs)
            if b is not None:
                self.report(tag, d, b)
            if d.branch == self.bench.draws.GENERAL:
                self.solve(f"{tag}:p", self.H.solutions.solve_via_p_route,
                           self.family(d), xs)

    def cli_call(self, tag: str, tmp: str, argv, doc=None) -> None:
        if doc is not None:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = [*argv, "--spec", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.H.cli.main(argv)
        self.line(tag, "cli", argv[0], code, _sha(out.getvalue()),
                  _sha(err.getvalue()))

    def cli(self) -> None:
        H = self.H
        with tempfile.TemporaryDirectory() as tmp:
            for s in self.verify_streams(SEEDS[0]):
                for i in range(CLI_DRAWS):
                    d = next(s)
                    tag = f"cli:{d.kind}:{d.branch}:{i}"
                    doc = dict(zip(self.bench.CLI_FIELDS[d.kind], d.params),
                               form=f"{d.kind.lower()}_family")
                    n = H.forms.family_to_normal_params(self.family(d))
                    normal = {k: [v.real, v.imag] for k, v in n.values.items()}
                    normal["form"] = f"{d.kind.lower()}_normal"
                    lo, hi = self.bench.GRIDS[d.kind]
                    self.cli_call(tag, tmp, ["eval", "--grid",
                                             f"{lo}:{hi}:{CLI_GRID_POINTS}"],
                                  doc)
                    for cmd in ("solve", "convert", "verify"):
                        self.cli_call(tag, tmp, [cmd], doc)
                    self.cli_call(tag, tmp, ["detect"], normal)
                    self.cli_call(tag, tmp, ["convert"], normal)
            self.cli_call("cli:suite", tmp, ["paper-suite"])

    def specialfns(self) -> None:
        sf = self.H.specialfns
        rng = random.Random("specialfns")

        def c(lo, hi, im=0.0):
            """Uniform real part in [lo, hi]; half the draws also get an
            imaginary part uniform in [-im, im]."""
            x = rng.uniform(lo, hi)
            return complex(x, rng.uniform(-im, im)) if rng.random() < 0.5 else x

        def disk(lo, hi):
            """Modulus uniform in [lo, hi], argument uniform in [-pi, pi]."""
            return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))

        calls = (
            ("hyp1f1", sf.hyp1f1,
             lambda: (c(-6, 6, 3), c(-4, 6, 2), disk(0.1, 50))),
            ("kummer_u", sf.kummer_u,
             lambda: (c(-4, 4, 2), c(-3, 3, 1), disk(2, 40))),
            ("hyp2f1", sf.hyp2f1,
             lambda: (c(-10, 10, 3), c(-10, 10, 3), c(-10, 10, 3),
                     disk(0.5, 0.97))),
            ("hyp0f1", sf.hyp0f1, lambda: (c(-5, 5, 2), disk(0.1, 60))),
            ("whittaker_M", lambda *a: sf.whittaker("M", *a),
             lambda: (c(-3, 3, 1), c(-2, 2, 1), disk(0.1, 40))),
            ("whittaker_W", lambda *a: sf.whittaker("W", *a),
             lambda: (c(-3, 3, 1), c(-2, 2, 1), disk(2, 40))),
            ("erf", lambda z: sf.erf_like("erf", z), lambda: (disk(0, 12),)),
            ("erfi", lambda z: sf.erf_like("erfi", z), lambda: (disk(0, 12),)),
            ("inc_gamma_upper", sf.inc_gamma_upper,
             lambda: (c(-4, 4, 2), c(-16, 20, 6))),
            ("inc_beta", sf.inc_beta,
             lambda: (disk(0.05, 0.97), c(-10, 10, 3), c(-10, 10, 3))),
        )
        for name, fn, draw in calls:
            for i in range(SPECIAL_CALLS):
                args = draw()
                try:
                    fv = fn(*args)
                    got = f"{_hex(fv.value)} {_hex(fv.derivative)}"
                except self.H.errors.HeunAirError as exc:
                    got = _error(exc)
                self.line(f"specialfns:{name}:{i}", *(_hex(a) for a in args),
                          got)


def _split(line: str) -> tuple[str, int]:
    body, _, passes = line.rstrip("\n").rpartition(" passes=")
    return body, int(passes)


def compare(parent_path: str, change_path: str) -> int:
    """Count the changed lines of two dumps; 1 when a changed line had no
    rerun pass at the parent or the dumps differ in their lines."""
    with open(parent_path) as fp, open(change_path) as fc:
        parent, change = fp.readlines(), fc.readlines()
    if len(parent) != len(change):
        print(f"the dumps have {len(parent)} and {len(change)} lines")
        return 1
    changed, unexplained = 0, []
    for i, (p, c) in enumerate(zip(parent, change), 1):
        (pb, pn), (cb, _) = _split(p), _split(c)
        if pb == cb:
            continue
        changed += 1
        if pn == 0 or pb.split(" ", 2)[:2] != cb.split(" ", 2)[:2]:
            unexplained.append(i)
    print(f"{len(parent)} lines, {changed} changed, {len(unexplained)} of "
          "them where the parent made no rerun pass")
    for i in unexplained[:20]:
        print(f"line {i}:\n- {parent[i - 1].rstrip()}\n+ {change[i - 1].rstrip()}")
    return 1 if unexplained else 0


_HEX = r"[-+]?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]\d+|inf|nan)"
_PAIR = re.compile(f"{_HEX},{_HEX}")


def _cx(pair: str) -> complex:
    re_, im = pair.split(",")
    return complex(float.fromhex(re_), float.fromhex(im))


def _kind(body: str) -> str:
    tag, kind = body.split(" ", 2)[:2]
    if tag.startswith("specialfns:"):
        return "specialfns"
    return "member" if kind in ("y1", "y2") else kind


def _judge(kind: str, p: str, c: str) -> tuple[str | None, float]:
    """(None, drift) for a change allowed to a derivative-moving change,
    with its derivative drift, or (what changed, 0.0) for one that is not.
    Value lines end in `value derivative` or in an error."""
    pt, ct = p.split(" "), c.split(" ")
    if kind in ("member", "specialfns"):
        if not (len(pt) == len(ct) and all(map(_PAIR.fullmatch, pt[-2:]))
                and all(map(_PAIR.fullmatch, ct[-2:]))):
            return "status", 0.0  # an error appeared, vanished or changed
        if pt[:-1] != ct[:-1]:
            return "value", 0.0
        v, dp, dc = _cx(pt[-2]), _cx(pt[-1]), _cx(ct[-1])
        return None, abs(dc - dp) / max(abs(v), abs(dp), 1e-300)
    if kind == "row":  # check member x value status
        same = pt[:5] == ct[:5] and pt[-1] == ct[-1]
        return (None if same else "status"), 0.0
    if kind == "report":  # status points_checked aggregates, or an error
        same = pt[:4] == ct[:4] and (pt[2] in ("pass", "partial", "fail")
                                      or p == c)
        return (None if same else "status"), 0.0
    if kind == "cli":  # command code sha(stdout) sha(stderr)
        return (None if pt[:4] == ct[:4] else "status"), 0.0
    if kind == "csv":
        return None, 0.0
    return ("status" if kind == "solve" else "value"), 0.0


def drift(parent_path: str, change_path: str) -> int:
    """Count the changed lines of two dumps per kind and report the worst
    derivative change; 1 when a value or a status changed or the dumps
    differ in their lines."""
    with open(parent_path) as fp, open(change_path) as fc:
        parent, change = fp.readlines(), fc.readlines()
    if len(parent) != len(change):
        print(f"the dumps have {len(parent)} and {len(change)} lines")
        return 1
    changed: dict[str, int] = {}
    faults = {"value": [], "status": []}
    worst, worst_at = 0.0, 0
    for i, (p, c) in enumerate(zip(parent, change), 1):
        pb, cb = _split(p)[0], _split(c)[0]
        if pb == cb:
            continue
        kind = _kind(pb)
        changed[kind] = changed.get(kind, 0) + 1
        fault, d = _judge(kind, pb, cb)
        if fault:
            faults[fault].append(i)
        elif d > worst:
            worst, worst_at = d, i
    print(f"{len(parent)} lines; changed: " + ", ".join(
        f"{k} {n}" for k, n in sorted(changed.items())) + (
        "" if changed else "none"))
    print(f"{len(faults['value'])} value changes, {len(faults['status'])} "
          "status changes")
    if worst_at:
        print(f"worst derivative change {worst:.3g} of max(|y|, |y'|), "
              f"line {worst_at}:\n- {parent[worst_at - 1].rstrip()}\n"
              f"+ {change[worst_at - 1].rstrip()}")
    for i in (faults["value"] + faults["status"])[:20]:
        print(f"line {i}:\n- {parent[i - 1].rstrip()}\n+ {change[i - 1].rstrip()}")
    return 1 if faults["value"] or faults["status"] else 0


def _section(body: str) -> str:
    """A line's tag without its seed and index: `tabulate`, `verify`,
    `verify:p`, `cli` or `specialfns:<function>`."""
    parts = body.split(" ", 1)[0].split(":")
    if parts[0] == "specialfns":
        return ":".join(parts[:2])
    return parts[0] + (":p" if parts[-1] == "p" else "")


def _rel_change(p: str, c: str) -> float | None:
    """max(|dy|, |dy'|) / max(|y|, |y'|) of two value lines, or None when
    either does not end in a value and a derivative."""
    pt, ct = p.split(" ")[-2:], c.split(" ")[-2:]
    if not all(map(_PAIR.fullmatch, pt + ct)):
        return None
    (v, d), (w, e) = map(_cx, pt), map(_cx, ct)
    return max(abs(w - v), abs(e - d)) / max(abs(v), abs(d), 1e-300)


def summary(parent_path: str, change_path: str) -> int:
    """Print the changed lines per section and kind, the worst relative
    change of member and special-function lines and the lines that hold
    it, and one sentence; 0."""
    with open(parent_path) as fp, open(change_path) as fc:
        parent, change = fp.readlines(), fc.readlines()
    if len(parent) != len(change):
        print(f"the dumps have {len(parent)} and {len(change)} lines; the "
              f"first {min(len(parent), len(change))} are compared")
    counts: dict[tuple[str, str], int] = {}
    worst: dict[tuple[str, str], float] = {}
    worst_at: dict[tuple[str, str], int] = {}
    for i, (p, c) in enumerate(zip(parent, change), 1):
        pb, cb = _split(p)[0], _split(c)[0]
        if pb == cb:
            continue
        key = (_section(pb), _kind(pb))
        counts[key] = counts.get(key, 0) + 1
        d = _rel_change(pb, cb) if key[1] in ("member", "specialfns") else None
        if d is not None and d > worst.get(key, -1.0):
            worst[key], worst_at[key] = d, i
    print(f"{'section':24s} {'kind':12s} {'changed':>8s}  worst")
    for key, n in sorted(counts.items()):
        w = f"{worst[key]:.3g}" if key in worst else "-"
        print(f"{key[0]:24s} {key[1]:12s} {n:8d}  {w}")
    for key, i in sorted(worst_at.items()):
        print(f"worst {key[0]} {key[1]} change {worst[key]:.3g}, line {i}:\n"
              f"- {parent[i - 1].rstrip()}\n+ {change[i - 1].rstrip()}")
    where = ", ".join(f"{sec} {kind}" for sec, kind in sorted(counts))
    text = f"The dumps differ on {sum(counts.values())} of {len(parent)} lines"
    if counts:
        text += f", all of them {where} lines"
    if worst:
        text += (f"; the worst change is {max(worst.values()):.3g} of "
                 "max(|y|, |y'|)")
    print(text + ".")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--src", help="the src/ directory of the tree to dump")
    src.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                     help="compare two dumps instead")
    src.add_argument("--drift", nargs=2, metavar=("PARENT", "CHANGE"),
                     help="compare two dumps that may differ in derivatives")
    src.add_argument("--summary", nargs=2, metavar=("PARENT", "CHANGE"),
                     help="count the changed lines of two dumps per section "
                     "and kind; never fails")
    args = ap.parse_args(argv)
    if args.summary:
        return summary(*args.summary)
    if args.compare:
        return compare(*args.compare)
    if args.drift:
        return drift(*args.drift)

    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.abspath(args.src), PERFBENCH]
    import heun_air
    import heun_air.cli  # noqa: F401  (not imported by the package)
    import run as bench  # perfbench/run.py: draws, grids, verify points

    dumper = Dumper(heun_air, bench, sys.stdout)
    for seed in SEEDS:
        dumper.tabulate(seed)
        dumper.verify(seed)
    dumper.cli()
    dumper.specialfns()
    return 0


if __name__ == "__main__":
    sys.exit(main())
