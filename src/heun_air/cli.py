"""Command-line front end.

`heun-air <command> --spec <file> [--out <file>] [--grid a:b:n]
[--branch k] [--tol t]` with commands:

* detect      — map normal/canonical parameters to solvable-family candidates
* solve       — classify and name the closed-form basis of a family
* convert     — family -> normal + canonical (all branches), or back
* eval        — tabulate a basis over a grid as CSV
* verify      — residual / Wronskian / Runge-Kutta report for one family
* paper-suite — the showcase-equation suite plus per-family batteries

The spec file is a JSON document; complex numbers are written as bare reals
or two-element [re, im] arrays. Exit codes: 0 success, 1 verification
failure, 2 input error. HEUN_AIR_MAX_TERMS caps hypergeometric series.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from .errors import HeunAirError, SchemaError
from .forms import (_CANONICAL_KEYS, _NORMAL_KEYS, BHEFamily, CanonicalParams,
                    CHEFamily, Family, GHEFamily, NormalParams,
                    canonical_to_family, family_to_canonical,
                    family_to_normal, family_to_normal_params,
                    normal_to_family)
from .solutions import (CLASS_HYPERGEOMETRIC, CLASS_LIOUVILLIAN,
                        SolutionBasis, eval_basis, solve_family)
from . import verify as verify_mod

COMMANDS = ("detect", "solve", "convert", "eval", "verify", "paper-suite")

GRID_COUNT_CAP = 100000

CSV_COLUMNS = ("x_re", "x_im", "y1_re", "y1_im", "y1p_re", "y1p_im",
               "y2_re", "y2_im", "y2p_re", "y2p_im", "status")

_FAMILY_FORMS = {f"{cls.kind.lower()}_family": cls for cls in Family.__args__}

_FORM_FIELDS = {
    **{form: tuple("lambda" if fl.name == "lam" else fl.name
                   for fl in fields(cls))
       for form, cls in _FAMILY_FORMS.items()},
    **{f"{kind.lower()}_normal": keys for kind, keys in _NORMAL_KEYS.items()},
    **{f"{kind.lower()}_canonical": keys
       for kind, keys in _CANONICAL_KEYS.items()},
}

_TOP_KEYS = {"command", "form", "grid", "branch", "tol", "out"}

#: Default verification points and RK windows per family kind.
_VERIFY_POINTS = {
    "BHE": [0.4, 0.7, 1.0, 1.4, 1.9, 2.4],
    "CHE": [0.3, 0.5, 0.7, 1.3, 1.7, 2.2, 2.8],
    "GHE": [0.2, 0.35, 0.5, 0.65, 0.8],
}
_VERIFY_WINDOWS = {
    "BHE": [(0.3, 2.0)],
    "CHE": [(0.2, 0.8), (1.2, 3.0)],
    "GHE": [(0.15, 0.85)],
}
#: Distance kept by the default points and RK windows from a point that
#: the members refuse inside them: BHE's x = -sigma and GHE's x = a.
_CUT_MARGIN = 0.12


def _verify_plan(fam: Family, basis: SolutionBasis):
    """The default verification points, RK windows and Wronskian breaks
    (see verify.verify_basis) of a basis. The points within _CUT_MARGIN of
    a point c that the members refuse are dropped and the RK windows are
    cut there: for the BHE general branch c = -Re sigma, where the members
    refuse x = -sigma and continue as other solutions, so the Wronskian is
    checked on each side; for GHE a real a in (0, 1), the family's singular
    point, across which W is one constant, so no break."""
    pts, windows = list(_VERIFY_POINTS[fam.kind]), _VERIFY_WINDOWS[fam.kind]
    if fam.kind == "BHE" and basis.classification == CLASS_HYPERGEOMETRIC:
        c, breaks = -fam.sigma.real, (-fam.sigma.real,)
    elif fam.kind == "GHE" and fam.a.imag == 0 and 0 < fam.a.real < 1:
        c, breaks = fam.a.real, ()
    else:
        return pts, windows, ()
    m = _CUT_MARGIN
    pts = [x for x in pts if abs(x - c) > m]
    windows = [piece for lo, hi in windows
               for piece in (((lo, hi),) if hi <= c - m or lo >= c + m
                             else ((lo, c - m), (c + m, hi)))
               if piece[0] < piece[1]]
    return pts, windows, breaks


@dataclass
class JobSpec:
    command: str | None
    form: str | None
    payload: object  # Family | NormalParams | CanonicalParams | None
    grid: tuple[complex, complex, int] | None = None
    branch: int = 0
    tol: float | None = None
    out: str | None = None


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def _want_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _want_complex(value, path: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise SchemaError(
                f"{path}: complex values are two-element [re, im] arrays")
        return complex(_want_number(value[0], path + "[0]"),
                       _want_number(value[1], path + "[1]"))
    return complex(_want_number(value, path))


def _build_payload(form: str, doc: dict):
    fields = _FORM_FIELDS[form]
    values = {}
    for name in fields:
        if name not in doc:
            raise SchemaError(f"$.{name}: required by form {form!r}")
        values[name] = _want_complex(doc[name], f"$.{name}")
    if form in _FAMILY_FORMS:
        return _FAMILY_FORMS[form](*values.values())
    kind = form.split("_")[0].upper()
    if form.endswith("_normal"):
        return NormalParams(kind, values)
    return CanonicalParams(kind, values)


def _parse_grid_obj(obj, path: str) -> tuple[complex, complex, int]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object with start/stop/count")
    unknown = set(obj) - {"start", "stop", "count"}
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}: unknown field")
    for key in ("start", "stop", "count"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}: required")
    count = obj["count"]
    if isinstance(count, bool) or not isinstance(count, int):
        raise SchemaError(f"{path}.count: expected an integer")
    if not 1 <= count <= GRID_COUNT_CAP:
        raise SchemaError(f"{path}.count: must be in 1..{GRID_COUNT_CAP}")
    return (_want_complex(obj["start"], f"{path}.start"),
            _want_complex(obj["stop"], f"{path}.stop"), count)


def parse_spec(text: str) -> JobSpec:
    """Parse and validate a JSON job description; unknown fields are
    rejected with the offending path."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError("$: expected a JSON object")

    command = doc.get("command")
    if command is not None and command not in COMMANDS:
        raise SchemaError(f"$.command: unknown command {command!r}")

    form = doc.get("form")
    payload = None
    if form is not None:
        if form not in _FORM_FIELDS:
            raise SchemaError(f"$.form: unknown form {form!r}")
        payload = _build_payload(form, doc)
    elif command != "paper-suite":
        raise SchemaError("$.form: required")

    allowed = _TOP_KEYS | set(_FORM_FIELDS.get(form, ()))
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"$.{sorted(unknown)[0]}: unknown field")

    grid = None
    if "grid" in doc:
        grid = _parse_grid_obj(doc["grid"], "$.grid")

    branch = doc.get("branch", 0)
    if isinstance(branch, bool) or not isinstance(branch, int):
        raise SchemaError("$.branch: expected an integer")
    if branch < 0:
        raise SchemaError("$.branch: must be nonnegative")

    tol = doc.get("tol")
    if tol is not None:
        tol = _want_number(tol, "$.tol")
        if tol <= 0:
            raise SchemaError("$.tol: must be positive")

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise SchemaError("$.out: expected a string path")

    return JobSpec(command, form, payload, grid, branch, tol, out)


def parse_grid_arg(text: str) -> tuple[complex, complex, int]:
    """--grid a:b:n with real endpoints."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError("--grid: expected start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise SchemaError("--grid: endpoints must be numbers, count an "
                          "integer") from None
    if not 1 <= count <= GRID_COUNT_CAP:
        raise SchemaError(f"--grid: count must be in 1..{GRID_COUNT_CAP}")
    return (complex(start), complex(stop), count)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _cx_json(z: complex):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _family_dict(f: Family) -> dict:
    form = f"{f.kind.lower()}_family"
    out = {"form": form}
    for name, fl in zip(_FORM_FIELDS[form], fields(f)):
        out[name] = _cx_json(getattr(f, fl.name))
    return out


def _params_dict(p) -> dict:
    form = f"{p.family.lower()}_{'normal' if isinstance(p, NormalParams) else 'canonical'}"
    out = {"form": form}
    for key in sorted(p.values):
        out[key] = _cx_json(p.values[key])
    return out


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


def render_csv(rows) -> str:
    """Fixed-column CSV with 17 significant digits; failed rows keep x and
    the error class name, with empty value cells."""
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        cells = [_fmt17(r["x"].real), _fmt17(r["x"].imag)]
        if r["status"] == "ok":
            for key in ("y1", "y1p", "y2", "y2p"):
                cells.append(_fmt17(r[key].real))
                cells.append(_fmt17(r[key].imag))
        else:
            cells.extend([""] * 8)
        cells.append(r["status"])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _candidates(job: JobSpec) -> list[Family]:
    p = job.payload
    if isinstance(p, Family):
        return [p]
    if isinstance(p, NormalParams):
        return normal_to_family(p)
    if isinstance(p, CanonicalParams):
        return canonical_to_family(p)
    raise SchemaError("$.form: this command needs an equation description")


def _select_family(job: JobSpec) -> Family:
    cands = _candidates(job)
    if not cands:
        raise SchemaError(
            "input parameters do not match any solvable family "
            "(fixed/dependent coefficient constraints failed)")
    if job.branch >= len(cands):
        raise SchemaError(
            f"--branch {job.branch} out of range: {len(cands)} candidate(s)")
    return cands[job.branch]


def _grid_points(grid) -> list[complex]:
    start, stop, count = grid
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


def _cmd_detect(job: JobSpec) -> tuple[str, int]:
    cands = _candidates(job)
    return _dump({"candidates": [_family_dict(f) for f in cands],
                  "count": len(cands)}), 0


def _solution_dict(basis: SolutionBasis) -> dict:
    return {
        "classification": basis.classification,
        "formula": basis.formula,
        "valid_domain": basis.valid_domain,
        "family": _family_dict(basis.family) if basis.family else None,
        "derived": {k: _cx_json(v) for k, v in sorted(basis.derived.items())},
        "probe_point": _cx_json(basis.probe_point),
    }


def _cmd_solve(job: JobSpec) -> tuple[str, int]:
    basis = solve_family(_select_family(job))
    return _dump(_solution_dict(basis)), 0


def _cmd_convert(job: JobSpec) -> tuple[str, int]:
    p = job.payload
    if isinstance(p, Family):
        out = {
            "normal": _params_dict(family_to_normal_params(p)),
            "canonical": [_params_dict(c) for c in family_to_canonical(p)],
        }
        return _dump(out), 0
    return _cmd_detect(job)


def _cmd_eval(job: JobSpec) -> tuple[str, int]:
    if job.grid is None:
        raise SchemaError("eval requires a grid (spec \"grid\" or --grid)")
    basis = solve_family(_select_family(job))
    rows = eval_basis(basis, _grid_points(job.grid))
    csv = render_csv(rows)
    code = 0 if any(r["status"] == "ok" for r in rows) else 2
    return csv, code


def _verify_family(fam: Family, basis: SolutionBasis, extra=(),
                   tol: float | None = None) -> verify_mod.VerificationReport:
    """verify_basis of a family's basis at its _verify_plan and the points
    `extra`, to the residual tolerance `tol`, by default 1e-8 for a
    Liouvillian basis and verify.RESIDUAL_TOL otherwise."""
    pts, windows, breaks = _verify_plan(fam, basis)
    pts.extend(extra)
    if tol is None:
        tol = (1e-8 if basis.classification == CLASS_LIOUVILLIAN
               else verify_mod.RESIDUAL_TOL)
    return verify_mod.verify_basis(
        family_to_normal(fam), basis, pts, rk_window=windows,
        residual_tol=tol, breaks=breaks)


def _cmd_verify(job: JobSpec) -> tuple[str, int]:
    fam = _select_family(job)
    basis = solve_family(fam)
    extra = () if job.grid is None else _grid_points(job.grid)
    report = _verify_family(fam, basis, extra, job.tol)
    out = {
        "family": _family_dict(fam),
        "classification": basis.classification,
        "status": report.status,
        "max_residual": report.max_residual,
        "wronskian_drift": report.wronskian_drift,
        "rk_max_rel_error": report.rk_max_rel_error,
        "points_checked": report.points_checked,
        "failures": [
            {"check": r.check, "member": r.member, "x": _cx_json(r.x),
             "value": r.value if r.value == r.value else None,
             "status": r.status}
            for r in report.rows if r.status != "ok"
        ],
    }
    return _dump(out), (1 if report.status == "fail" else 0)


_SUITE_FAMILIES = (
    BHEFamily(0.3, 0.9), BHEFamily(0.7, 0.7), BHEFamily(-0.6, 0.6),
    CHEFamily(0.8, 0.2, 0.6), CHEFamily(0.9, 0.4, 0.4),
    CHEFamily(0.6, -0.8, 0.8),
    GHEFamily(2.0, 0.5, 0.1, 0.4), GHEFamily(2.2, 0.6, 0.3, 0.3),
    GHEFamily(1.8, 0.5, -0.25, 0.25),
)


def _cmd_paper_suite(job: JobSpec) -> tuple[str, int]:
    lines = []
    all_ok = True

    rep = verify_mod.paper_example_suite()
    ok = rep.status != "fail"
    all_ok &= ok
    lines.append(f"[{'PASS' if ok else 'FAIL'}] showcase-equation suite: "
                 f"max residual {rep.max_residual:.3e} over "
                 f"{rep.points_checked} rows")

    for fam in _SUITE_FAMILIES:
        kind = fam.kind
        basis = solve_family(fam)
        rep = _verify_family(fam, basis)
        ok = rep.status != "fail"
        all_ok &= ok
        lines.append(
            f"[{'PASS' if ok else 'FAIL'}] {kind} {basis.classification:15s}"
            f" residual {rep.max_residual:.3e}"
            f" wronskian {rep.wronskian_drift:.3e}"
            f" rk {rep.rk_max_rel_error:.3e}")

    lines.append(f"suite: {'pass' if all_ok else 'fail'}")
    return "\n".join(lines) + "\n", (0 if all_ok else 1)


_DISPATCH = {
    "detect": _cmd_detect,
    "solve": _cmd_solve,
    "convert": _cmd_convert,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "paper-suite": _cmd_paper_suite,
}


def run(job: JobSpec) -> int:
    """Execute a validated JobSpec; writes to job.out or stdout."""
    if job.command not in _DISPATCH:
        raise SchemaError(f"$.command: unknown command {job.command!r}")
    if job.payload is None and job.command != "paper-suite":
        raise SchemaError(f"$.form: required for command {job.command!r}")
    text, code = _DISPATCH[job.command](job)
    if job.out:
        with open(job.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="heun-air",
        description="closed-form solution bases for three solvable "
                    "second-order equation families, with conversion, "
                    "evaluation and verification tooling")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--spec", help="JSON job description file")
    ap.add_argument("--out", help="write output to this path instead of stdout")
    ap.add_argument("--grid", help="evaluation grid start:stop:count (real)")
    ap.add_argument("--branch", type=int, help="candidate branch index")
    ap.add_argument("--tol", type=float, help="residual tolerance override")
    args = ap.parse_args(argv)

    try:
        if args.spec is not None:
            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise SchemaError(f"--spec: cannot read {args.spec!r}: {exc}")
            job = parse_spec(text)
        elif args.command == "paper-suite":
            job = JobSpec(args.command, None, None)
        else:
            raise SchemaError("--spec: required for this command")

        if job.command is not None and job.command != args.command:
            raise SchemaError(
                f"$.command: spec says {job.command!r} but the command line "
                f"says {args.command!r}")
        job.command = args.command
        if args.grid is not None:
            job.grid = parse_grid_arg(args.grid)
        if args.branch is not None:
            if args.branch < 0:
                raise SchemaError("--branch: must be nonnegative")
            job.branch = args.branch
        if args.tol is not None:
            if args.tol <= 0:
                raise SchemaError("--tol: must be positive")
            job.tol = args.tol
        if args.out is not None:
            job.out = args.out
        return run(job)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HeunAirError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
