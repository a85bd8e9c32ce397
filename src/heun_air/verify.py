"""Independent numeric verification of solution bases.

Three checks, each independent of the closed-form construction it verifies:

* residual_check   — second derivative by 4th-order central differences of
                     the analytic first derivative, compared against
                     c1 y' + c0 y pointwise;
* wronskian_check  — for a normal-form equation (c1 = 0) the Wronskian of
                     two solutions is constant; measures its drift relative
                     to the products y1 y2' and y2 y1' at each point;
* rk45_compare     — re-integrates the ODE with an adaptive embedded
                     Runge-Kutta 5(4) pair from initial conditions read off
                     each member, and reports the relative deviation;
                     each step reuses its predecessor's last stage, and a
                     zero c1 (every normal form) is never evaluated.

plus paper_example_suite(), which rebuilds the four-singularity showcase
equation from its hypergeometric seed via the non-local map and residual
checks the printed 0F1-combination basis.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .abel import mobius_nonlocal
from .errors import HeunAirError, ParamError, StiffnessError
from .forms import LinearODE
from .numkernel import Poly, RatFun, as_complex, rat_eval
from .solutions import (Member, SolutionBasis, make_basis, pair_add, pair_fn,
                        pair_mul, pair_pow, pair_scale, pair_sub, pair_var)
from .specialfns import hyp0f1, near_nonpositive_integer

#: Residual tolerance for general-branch closed forms.
RESIDUAL_TOL = 1e-7
#: Wronskian relative drift tolerance.
WRONSKIAN_DRIFT_TOL = 1e-8
#: Runge-Kutta cross-validation tolerance.
RK_COMPARE_TOL = 1e-6
#: Residual tolerance for the showcase-equation suite.
EXAMPLE_SUITE_TOL = 1e-8

#: Finite-difference step is FD_STEP_SCALE * max(1, |x|).
FD_STEP_SCALE = 1e-4

RK_RTOL = 1e-10
RK_ATOL = 1e-12
RK_SAMPLES = 50
#: Step collapse threshold, relative to the integration interval.
RK_MIN_STEP = 1e-12


@dataclass
class CheckRow:
    check: str
    member: str
    x: complex
    value: float
    status: str


@dataclass
class VerificationReport:
    """Aggregate of the enabled checks; status is "pass" iff every enabled
    check came in under its tolerance, "partial" when some rows were
    refused (evaluation errors) but no measured value failed."""

    family: object
    max_residual: float = 0.0
    wronskian_drift: float = 0.0
    rk_max_rel_error: float = 0.0
    points_checked: int = 0
    status: str = "pass"
    rows: list = field(default_factory=list)


def _aggregate(report: VerificationReport) -> VerificationReport:
    failed = any(r.status == "fail" for r in report.rows)
    errored = any(r.status not in ("ok", "fail") for r in report.rows)
    report.points_checked = len(report.rows)
    report.status = "fail" if failed else ("partial" if errored else "pass")
    return report


# ---------------------------------------------------------------------------
# residual check
# ---------------------------------------------------------------------------

def _fd_second(member: Member, x: complex) -> complex:
    """y'' by 4th-order central differences of the analytic derivative."""
    h = FD_STEP_SCALE * max(1.0, abs(x))
    d2, d1, m1, m2 = (member(x + 2 * h)[1], member(x + h)[1],
                      member(x - h)[1], member(x - 2 * h)[1])
    return (-d2 + 8 * d1 - 8 * m1 + m2) / (12 * h)


def residual_check(ode: LinearODE, basis: SolutionBasis, xs,
                   tol: float = RESIDUAL_TOL) -> list[CheckRow]:
    """Per point and member: |y''_FD - c1 y' - c0 y| normalized by
    max(1, |c0 y|, |c1 y'|). Evaluation errors become per-row failures."""
    rows = []
    for x in xs:
        x = as_complex(x)
        for name, member in (("y1", basis.y1), ("y2", basis.y2)):
            try:
                v, d = member(x)
                ypp = _fd_second(member, x)
                c1x = rat_eval(ode.c1, x)
                c0x = rat_eval(ode.c0, x)
                res = abs(ypp - c1x * d - c0x * v) / max(
                    1.0, abs(c0x * v), abs(c1x * d))
            except HeunAirError as exc:
                rows.append(CheckRow("residual", name, x, float("nan"),
                                     type(exc).__name__))
                continue
            rows.append(CheckRow("residual", name, x, res,
                                 "ok" if res <= tol else "fail"))
    return rows


# ---------------------------------------------------------------------------
# Wronskian drift
# ---------------------------------------------------------------------------

def wronskian_check(basis: SolutionBasis, xs,
                    tol: float = WRONSKIAN_DRIFT_TOL) -> list[CheckRow]:
    """Drift of W = y1 y2' - y2 y1' across xs (constant for solutions of a
    normal-form equation): at each point |W - mean W| over that point's
    max(|y1 y2'|, |y2 y1'|), the size of the products whose difference W
    is, so that rounding in a W that cancels does not read as drift."""
    ws: list[tuple[complex, complex, float]] = []
    rows = []
    for x in xs:
        x = as_complex(x)
        try:
            v1, d1 = basis.y1(x)
            v2, d2 = basis.y2(x)
            ws.append((x, v1 * d2 - v2 * d1, max(abs(v1 * d2), abs(v2 * d1))))
        except HeunAirError as exc:
            rows.append(CheckRow("wronskian", "pair", x, float("nan"),
                                 type(exc).__name__))
    if not ws:
        return rows
    mean = sum(w for _, w, _ in ws) / len(ws)
    # a point where both products vanish takes the largest scale
    floor = max(scale for _, _, scale in ws) or 1.0
    for x, w, scale in ws:
        drift = abs(w - mean) / (scale or floor)
        rows.append(CheckRow("wronskian", "pair", x, drift,
                             "ok" if drift <= tol else "fail"))
    return rows


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta 5(4), Dormand-Prince pair
# ---------------------------------------------------------------------------

#: The last row holds the fifth-order weights (the seventh weight is 0):
#: that stage is fn(x + h, new), the next step's first.
_RK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_RK_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_RK_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
           -17253 / 339200, 22 / 525, -1 / 40)


def _rk_advance(fn, x: float, u: tuple[complex, complex], target: float,
                rtol: float, atol: float, min_step: float,
                h_work: float | None = None, f=None):
    """Advance the 2-component complex state u from x to target; h_work is
    the step controller's carried step magnitude (returned so successive
    targets do not reset the step), and f is fn(x, u) when the caller has
    it. Returns (u, h_work, f), where f is fn(target, u) when the last step
    landed exactly on target and None otherwise.

    The seven stages are written out, each sum taken left to right over its
    row of the tableau with the zero weights left out. The last stage is
    fn(x + h, new), so an accepted step hands it on as the next step's first
    (first same as last), and a rejected step keeps its first stage."""
    if target == x:
        return u, h_work, f
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _RK_A
    _, c2, c3, c4, c5, _, _ = _RK_C
    e1, _, e3, e4, e5, e6, e7 = _RK_ERR
    direction = 1.0 if target > x else -1.0
    if h_work is None:
        h_work = max(min_step * 10, abs(target - x) / 16)
    while direction * (target - x) > 0:
        clamped = abs(target - x) < h_work
        h = direction * min(h_work, abs(target - x))
        u0, u1 = u
        if f is None:
            f = fn(x, u)
        k10, k11 = f
        k20, k21 = fn(x + c2 * h, (u0 + h * (a21 * k10),
                                   u1 + h * (a21 * k11)))
        k30, k31 = fn(x + c3 * h, (u0 + h * (a31 * k10 + a32 * k20),
                                   u1 + h * (a31 * k11 + a32 * k21)))
        k40, k41 = fn(x + c4 * h, (
            u0 + h * (a41 * k10 + a42 * k20 + a43 * k30),
            u1 + h * (a41 * k11 + a42 * k21 + a43 * k31)))
        k50, k51 = fn(x + c5 * h, (
            u0 + h * (a51 * k10 + a52 * k20 + a53 * k30 + a54 * k40),
            u1 + h * (a51 * k11 + a52 * k21 + a53 * k31 + a54 * k41)))
        k60, k61 = fn(x + h, (
            u0 + h * (a61 * k10 + a62 * k20 + a63 * k30 + a64 * k40
                      + a65 * k50),
            u1 + h * (a61 * k11 + a62 * k21 + a63 * k31 + a64 * k41
                      + a65 * k51)))
        new0 = u0 + h * (b1 * k10 + b3 * k30 + b4 * k40 + b5 * k50
                         + b6 * k60)
        new1 = u1 + h * (b1 * k11 + b3 * k31 + b4 * k41 + b5 * k51
                         + b6 * k61)
        last = fn(x + h, (new0, new1))
        k70, k71 = last
        err0 = h * (e1 * k10 + e3 * k30 + e4 * k40 + e5 * k50 + e6 * k60
                    + e7 * k70)
        err1 = h * (e1 * k11 + e3 * k31 + e4 * k41 + e5 * k51 + e6 * k61
                    + e7 * k71)
        norm = max(
            abs(err0) / (atol + rtol * max(abs(u0), abs(new0))),
            abs(err1) / (atol + rtol * max(abs(u1), abs(new1))))
        if norm <= 1.0:
            x += h
            u, f = (new0, new1), last
        factor = min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0 else 5.0
        if norm > 1.0 or not clamped:
            # keep the carried step when a shortened final stretch succeeds
            h_work = abs(h) * factor
        if h_work < min_step:
            raise StiffnessError(
                f"step size {h_work:.3e} collapsed below {min_step:.3e} "
                f"at x = {x:.6g}")
    return u, h_work, (f if x == target else None)


def rk45_compare(ode: LinearODE, basis: SolutionBasis, x0, interval,
                 rtol: float = RK_RTOL, atol: float = RK_ATOL,
                 tol: float = RK_COMPARE_TOL) -> list[CheckRow]:
    """Integrate y'' = c1 y' + c0 y from initial conditions read off each
    basis member at x0 and report relative deviation from the closed form
    at RK_SAMPLES points across the real interval."""
    x0 = as_complex(x0)
    a, b = (as_complex(interval[0]).real, as_complex(interval[1]).real)
    if x0.imag != 0:
        raise ParamError("integration runs along the real axis; x0 must be real")
    x0 = x0.real
    min_step = RK_MIN_STEP * abs(b - a)

    ev = rat_eval  # read per call, so that a patched verify.rat_eval counts
    c1, c0 = ode.c1, ode.c0
    if c1.num.is_zero() and c1.den.degree == 0:
        # c1 = 0 over a constant denominator has no pole: leave it out
        def fn(x, u):
            return (u[1], ev(c0, complex(x)) * u[0])
    else:
        def fn(x, u):
            c1x = ev(c1, complex(x))
            c0x = ev(c0, complex(x))
            return (u[1], c1x * u[1] + c0x * u[0])

    targets = [a + (b - a) * i / (RK_SAMPLES - 1) for i in range(RK_SAMPLES)]
    at = targets.__getitem__
    rows: list[CheckRow] = []
    for name, member in (("y1", basis.y1), ("y2", basis.y2)):
        try:
            ref = [member(t) for t in targets]
            u0 = member(x0)
        except HeunAirError as exc:
            rows.append(CheckRow("rk45", name, complex(a), float("nan"),
                                 type(exc).__name__))
            continue
        scale_v = max(abs(r[0]) for r in ref) or 1.0
        scale_d = max(abs(r[1]) for r in ref) or 1.0
        for go in (sorted([i for i in range(RK_SAMPLES) if at(i) >= x0],
                          key=at),
                   sorted([i for i in range(RK_SAMPLES) if at(i) < x0],
                          key=at, reverse=True)):
            x, u, h_work, f = x0, u0, None, None
            for i in go:
                t = targets[i]
                u, h_work, f = _rk_advance(fn, x, u, t, rtol, atol,
                                           min_step, h_work, f)
                x = t
                rv, rd = ref[i]
                dev = max(abs(u[0] - rv) / max(abs(rv), 1e-3 * scale_v),
                          abs(u[1] - rd) / max(abs(rd), 1e-3 * scale_d))
                rows.append(CheckRow("rk45", name, complex(t), dev,
                                     "ok" if dev <= tol else "fail"))
    return rows


# ---------------------------------------------------------------------------
# aggregate verification
# ---------------------------------------------------------------------------

def verify_basis(ode: LinearODE, basis: SolutionBasis, xs, rk_window=None,
                 residual_tol: float = RESIDUAL_TOL,
                 breaks=()) -> VerificationReport:
    """Run residual + Wronskian (+ optionally RK) checks and aggregate; each
    RK window is integrated from its midpoint. `breaks` are real points
    across which the members continue as other solutions (the BHE general
    branch's x = -sigma): the Wronskian is checked within each interval
    between them."""
    report = VerificationReport(family=basis.family)
    res_rows = residual_check(ode, basis, xs, tol=residual_tol)
    report.rows.extend(res_rows)
    vals = [r.value for r in res_rows if r.value == r.value]
    report.max_residual = max(vals) if vals else float("nan")

    if ode.c1.num.is_zero():
        sides: dict[int, list] = {}
        for x in xs:
            sides.setdefault(sum(as_complex(x).real > b for b in breaks),
                             []).append(x)
        w_rows = [row for k in sorted(sides)
                  for row in wronskian_check(basis, sides[k])]
        report.rows.extend(w_rows)
        vals = [r.value for r in w_rows if r.value == r.value]
        report.wronskian_drift = max(vals) if vals else float("nan")

    if rk_window is not None:
        if rk_window and isinstance(rk_window[0], (tuple, list)):
            windows = list(rk_window)
        else:
            windows = [rk_window]
        rk_vals = []
        for win in windows:
            rk_rows = rk45_compare(ode, basis, (win[0] + win[1]) / 2, win)
            report.rows.extend(rk_rows)
            rk_vals.extend(r.value for r in rk_rows if r.value == r.value)
        report.rk_max_rel_error = max(rk_vals) if rk_vals else float("nan")
    return _aggregate(report)


# ---------------------------------------------------------------------------
# showcase suite: the four-regular-singularity example
# ---------------------------------------------------------------------------

def example_equation(a, kappa) -> tuple[LinearODE, LinearODE]:
    """Seed hypergeometric-class ODE of 0F1(; a; x)/(x - kappa) and its
    non-local image with regular singularities {0, kappa, a + kappa}."""
    a, kappa = as_complex(a), as_complex(kappa)
    if near_nonpositive_integer(a):
        raise ParamError(f"lower parameter a = {a!r} must not be a "
                         "nonpositive integer")
    if kappa == 0:
        raise ParamError("kappa must be nonzero")
    if abs(a + kappa) <= 1e-12:
        raise ParamError("a + kappa must be nonzero")
    seed = LinearODE(
        RatFun(Poly((a * kappa, -(a + 2))), Poly((0, -kappa, 1))),
        RatFun(Poly((-kappa - a, 1)), Poly((0, -kappa, 1))))
    return seed, mobius_nonlocal(seed)


def example_basis(a, kappa) -> SolutionBasis:
    """The printed 0F1-combination basis of the showcase equation."""
    a, kappa = as_complex(a), as_complex(kappa)

    def y1(x):
        x = as_complex(x)
        f_a = pair_fn(hyp0f1(a, x))
        f_a1 = pair_fn(hyp0f1(a + 1, x))
        comb = pair_sub(pair_scale(a, f_a),
                        pair_mul((x - kappa, 1.0 + 0j), f_a1))
        return pair_mul(pair_pow(pair_var(x), a), comb)

    def y2(x):
        x = as_complex(x)
        f_2a = pair_fn(hyp0f1(2 - a, x))
        f_3a = pair_fn(hyp0f1(3 - a, x))
        t1 = pair_mul(pair_scale(a - 2, ((1 - a) * kappa + a * x, a)), f_2a)
        t2 = pair_mul((x, 1.0 + 0j), (x - kappa, 1.0 + 0j), f_3a)
        return pair_add(t1, t2)

    probes = [p for p in (0.8, 1.45, 0.55, 2.3, 1.05)
              if all(abs(p - c) > 0.15 for c in
                     (0.0, kappa, a + kappa)) ] or [0.8]
    return make_basis(y1, y2, "Hypergeometric", None, "x off {0, kappa, a+kappa}",
                      "example_0f1_combination", {"a": a, "kappa": kappa},
                      probes)


def _example_points(a, kappa) -> list[complex]:
    """Ten real residual points keeping distance >= 0.12 from the
    singularities {0, kappa, a + kappa}."""
    sing = [0.0, as_complex(kappa), as_complex(a) + as_complex(kappa)]
    pts: list[complex] = []
    x = 0.23
    while len(pts) < 10:
        if all(abs(x - s) > 0.12 for s in sing):
            pts.append(as_complex(x))
        x += 0.29
    return pts


def paper_example_suite(pairs=None) -> VerificationReport:
    """Residual-check the printed 0F1-combination solution of the
    four-regular-singularity showcase equation over (a, kappa) pairs: by
    default two fixed ones and five seeded random ones."""
    if pairs is None:
        pairs = [(0.7, 1.3), (2.5, -0.4)]
        rng = random.Random(20260814)
        while len(pairs) < 7:
            a = rng.uniform(0.3, 2.7)
            if abs(a - 2.0) < 0.1 or abs(a - 1.0) < 0.05:
                continue
            kappa = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.5)
            if abs(a + kappa) < 0.2:
                continue
            pairs.append((a, kappa))
    report = VerificationReport(family=None)
    worst = 0.0
    for a, kappa in pairs:
        _, ex1 = example_equation(a, kappa)
        basis = example_basis(a, kappa)
        rows = residual_check(ex1, basis, _example_points(a, kappa),
                              tol=EXAMPLE_SUITE_TOL)
        report.rows.extend(rows)
        vals = [r.value for r in rows if r.value == r.value]
        if vals:
            worst = max(worst, max(vals))
    report.max_residual = worst
    return _aggregate(report)
