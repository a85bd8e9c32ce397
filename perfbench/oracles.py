"""Checks made apart from the program under test.

* Closed forms: the paper's general-branch members (and the sigma = -tau
  BHE member pair) written out with mpmath's own `hyperu`, `hyp1f1`,
  `whitm`, `whitw`, `hyp2f1` and `erf` at ORACLE_DPS digits, with
  derivatives by `mpmath.diff`. None of heun_air's kernels is used.
* Normal forms: q(x) of each family written out from the documented pole
  shapes (heun_air.forms.NormalParams) and the family's closed-form
  coefficients, in plain complex arithmetic.
* Residual: a member's y'' by fourth-order central differences of its
  analytic derivative, against q y.
* Detection: parameter recovery, the pinned and dependent normal-form
  relations, and the non-local image and companion equation of each
  family's hypergeometric seed equation, evaluated pointwise from
  logarithmic-derivative formulas.

Imports mpmath only; objects from the program are read through their
public attributes (`coeffs`, `values`, fields of the family records).
"""
from __future__ import annotations

import mpmath

ORACLE_DPS = 32

#: Closed-form agreement, relative to max(|oracle value|, 1e-3 * the
#: member's scale over its grid).
CLOSED_FORM_TOL = 1e-8
RESIDUAL_TOL = 1e-7
ROUND_TRIP_TOL = 1e-9
RELATION_TOL = 1e-10
NONLOCAL_TOL = 1e-9
FD_STEP_SCALE = 1e-4


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def normal_params(kind: str, p) -> dict:
    """Pole coefficients of each family's normal form:
    BHE: q = x^2 - B x - C - D/x - E/x^2
    CHE: q = -A - B/x - C/(x-1) - D/x^2 - E/(x-1)^2
    GHE: q = -A/x - B/(x-1) + (A+B)/(x-a) - D/x^2 - E/(x-1)^2 - F/(x-a)^2
    """
    if kind == "BHE":
        s, t = p
        return {"B": -2 * s, "C": -t * t, "D": -t, "E": -0.75}
    if kind == "CHE":
        lam, s, t = p
        l2 = lam * lam
        return {"A": -l2, "B": 2 * (1 - s) * l2 + t * lam - 0.5,
                "C": 0.5 - t * lam, "D": 0.25 + (2 * s - t * t - 1) * l2,
                "E": -0.75}
    a, d, s, t = p
    d2 = d * d
    return {"a": a,
            "A": (-2 * a * (a - 1) * d2 + 2 * (2 * a - 1) * s * d
                  - 2 * t * t - (t + 0.5) / a + 0.5),
            "B": (2 * a * (a - 1) * d2 - 2 * (2 * a - 1) * s * d
                  + 2 * t * t + (t - a / 2) / (a - 1)),
            "D": -a * a * d2 + 2 * a * s * d - t * t + 0.25,
            "E": -(a - 1) ** 2 * d2 + 2 * (a - 1) * s * d - t * t + 0.25,
            "F": -0.75}


def q_value(kind: str, p, x: complex) -> complex:
    n = normal_params(kind, p)
    if kind == "BHE":
        return x * x - n["B"] * x - n["C"] - n["D"] / x - n["E"] / (x * x)
    if kind == "CHE":
        return (-n["A"] - n["B"] / x - n["C"] / (x - 1) - n["D"] / (x * x)
                - n["E"] / (x - 1) ** 2)
    a = n["a"]
    return (-n["A"] / x - n["B"] / (x - 1) + (n["A"] + n["B"]) / (x - a)
            - n["D"] / (x * x) - n["E"] / (x - 1) ** 2 - n["F"] / (x - a) ** 2)


def relation_defect(kind: str, v: dict) -> float:
    """Largest violation of the pinned (E or F = -3/4) and dependent
    coefficient relations of a family normal form."""
    if kind == "BHE":
        return max(abs(v["C"] + v["D"] ** 2), abs(v["E"] + 0.75))
    if kind == "CHE":
        return max(abs(v["B"] + v["A"] + v["D"] + v["C"] ** 2),
                   abs(v["E"] + 0.75))
    a, s = v["a"], v["A"] + v["B"]
    e_pred = (1 - a) * (s * s * a - s * (s - 1) + (v["D"] - v["A"]) / a
                        - v["D"] / (a * a))
    return max(abs(v["E"] - e_pred), abs(v["F"] + 0.75))


def residual(kind: str, p, member, x: float) -> float:
    """|y''_FD - q y| / max(1, |q y|) of a member (x -> (y, y'))."""
    h = FD_STEP_SCALE * max(1.0, abs(x))
    d = [member(x + k * h)[1] for k in (2, 1, -1, -2)]
    ypp = (-d[0] + 8 * d[1] - 8 * d[2] + d[3]) / (12 * h)
    qy = q_value(kind, p, complex(x)) * member(x)[0]
    return abs(ypp - qy) / max(1.0, abs(qy))


# ---------------------------------------------------------------------------
# closed forms in mpmath
# ---------------------------------------------------------------------------

def _bhe_general(p):
    s, t = (mpmath.mpf(v) for v in p)
    big_a = (t * t - s * s) / 4

    def lam(x):
        return s * s + t * t + 4 * x * x + 2 * (3 * s - t) * x - 2 * s * t - 2

    def pref(x):
        return mpmath.exp(-s * x - x * x / 2) * mpmath.power(x, -0.5) / (x + s)

    def y1(x):
        w = (x + s) ** 2
        return pref(x) * (lam(x) * mpmath.hyperu(big_a, 0.5, w)
                          - 4 * mpmath.hyperu(big_a - 1, 0.5, w))

    def y2(x):
        w = (x + s) ** 2
        return pref(x) * ((t * t - s * s - 2) * mpmath.hyp1f1(big_a - 1, 0.5, w)
                          - lam(x) * mpmath.hyp1f1(big_a, 0.5, w))
    return y1, y2


def _bhe_minus(p):
    """sigma = -tau: G = x(x - 2 tau)/2, y1 = e^G x^(-1/2),
    y2 = (sqrt(pi) e^(-G) - pi tau e^(tau^2) erf(x - tau) e^G) x^(-1/2)."""
    t = mpmath.mpf(p[1])

    def g(x):
        return x * (x - 2 * t) / 2

    def y1(x):
        return mpmath.exp(g(x)) * mpmath.power(x, -0.5)

    def y2(x):
        return (mpmath.sqrt(mpmath.pi) * mpmath.exp(-g(x))
                - mpmath.pi * t * mpmath.exp(t * t) * mpmath.erf(x - t)
                * mpmath.exp(g(x))) * mpmath.power(x, -0.5)
    return y1, y2


def _che_general(p):
    lam, s, t = (mpmath.mpf(v) for v in p)
    mu = lam * (1 - s) + 0.5
    nu = lam * mpmath.sqrt(mpmath.mpc(t * t - 2 * s + 1))

    def y1(x):
        z = 2 * lam * x
        return mpmath.power(mpmath.mpc(x - 1), -0.5) * (
            lam * (t + s) * mpmath.whitm(mu, nu, z)
            + ((1 - s) * lam - nu) * mpmath.whitm(mu - 1, nu, z))

    def y2(x):
        z = 2 * lam * x
        return mpmath.power(mpmath.mpc(x - 1), -0.5) * (
            mpmath.whitw(mu, nu, z) + lam * (t - s) * mpmath.whitw(mu - 1, nu, z))
    return y1, y2


def _ghe_general(p):
    a, d, s, t = (mpmath.mpf(v) for v in p)
    big_s = mpmath.sqrt(mpmath.mpc((a - 1) ** 2 * d * d - 2 * (a - 1) * s * d + t * t))
    big_t = mpmath.sqrt(mpmath.mpc(a * a * d * d - 2 * a * s * d + t * t))
    S, T = big_s, big_t

    def pref(x):
        return (mpmath.power(mpmath.mpc(x - 1), S + 0.5)
                * mpmath.power(mpmath.mpc(x - a), -0.5))

    def pw(x, e):
        return mpmath.power(x, e)

    def y1(x):
        fa = mpmath.hyp2f1(S + d - T + 1, S - d - T + 2, 2 - 2 * T, x)
        fb = mpmath.hyp2f1(S + d - T, S - d + 1 - T, 1 - 2 * T, x)
        k1 = (T - S - d) * (T - S + d - 1) / 2
        t1 = k1 * (pw(x, 2.5 - T) - pw(x, 1.5 - T)) * fa
        inner = (a * d - T + t) * pw(x, 0.5 - T) + (T - S - d) * pw(x, 1.5 - T)
        return pref(x) * (t1 + (T - 0.5) * inner * fb)

    def y2(x):
        fc = mpmath.hyp2f1(S + d + T + 1, S - d + T + 2, 2 + 2 * T, x)
        fd = mpmath.hyp2f1(S + d + T, S - d + 1 + T, 1 + 2 * T, x)
        k2 = (T + S + d) * (S - d + 1 + T) / 2
        t1 = k2 * (pw(x, 1.5 + T) - pw(x, 2.5 + T)) * fc
        inner = (a * d + T + t) * pw(x, 0.5 + T) - (T + S + d) * pw(x, 1.5 + T)
        return pref(x) * (t1 + (T + 0.5) * inner * fd)
    return y1, y2


_CLOSED_FORMS = {("BHE", "general"): _bhe_general, ("BHE", "minus"): _bhe_minus,
                 ("CHE", "general"): _che_general, ("GHE", "general"): _ghe_general}


def closed_form(kind: str, branch: str, p, x: float):
    """((y1, y1'), (y2, y2')) at real x from the mpmath closed forms, as
    Python complex numbers."""
    with mpmath.workdps(ORACLE_DPS):
        members = _CLOSED_FORMS[(kind, branch)](p)
        xm = mpmath.mpf(x)
        return tuple((complex(m(xm)), complex(mpmath.diff(m, xm)))
                     for m in members)


def closed_form_error(kind: str, branch: str, p, x: float, got,
                      scales=(0.0, 0.0)) -> float:
    """Worst relative deviation of ((y1, y1'), (y2, y2')) at x from the
    mpmath closed forms. `scales` are each member's largest |y|, |y'| over
    the run's grid: a value far below its member's scale (a zero of the
    function) is compared on that scale instead of its own size."""
    want = closed_form(kind, branch, p, x)
    worst = 0.0
    for (gv, gd), (wv, wd), scale in zip(got, want, scales):
        for g, w in ((gv, wv), (gd, wd)):
            worst = max(worst, abs(g - w) / max(abs(w), 1e-3 * scale, 1e-300))
    return worst


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def recovery_error(params, candidates) -> float:
    """Relative distance from the drawn parameters to the nearest
    candidate (the maps carry sign branches, so recovery means some
    candidate matches)."""
    best = float("inf")
    for c in candidates:
        best = min(best, max(abs(complex(u) - complex(v)) / max(1.0, abs(u))
                             for u, v in zip(params, c)))
    return best


def seed_coefficients(kind: str, p) -> tuple[tuple, tuple]:
    """Ascending (numerator, denominator) coefficients of c1 and c0 of the
    family's hypergeometric-class seed equation y'' = c1 y' + c0 y."""
    if kind == "BHE":
        s, t = p
        return ((-2 * t, 2), (1,)), ((0, 2 * (t + s)), (1,))
    if kind == "CHE":
        lam, s, t = p
        k = 2 * (t + s) * lam * lam
        return ((-2 * lam * (t + 1) - 1, 2 * lam), (0, 1)), ((-k, k), (0, 0, 1))
    a, d, s, t = p
    k = 2 * d * (t + s)
    return (((1 - 2 * (a * d + t), 2 * (d - 1)), (0, -1, 1)),
            ((-a * k, k), (0, 0, 1, -2, 1)))


def _seed_log_terms(kind: str, p):
    """c0 of the seed is k (x - r) / (x^m (x - 1)^n) and c1 a sum of simple
    fractions: returns ((r, m, n), c1, c1') as functions of x."""
    if kind == "BHE":
        s, t = p
        return (0.0, 0, 0), (lambda x: 2 * x - 2 * t), (lambda x: 2.0)
    if kind == "CHE":
        lam, s, t = p
        k = 2 * lam * (t + 1) + 1
        return ((1.0, 2, 0), (lambda x: 2 * lam - k / x),
                (lambda x: k / (x * x)))
    a, d, s, t = p
    u = 2 * (a * d + t) - 1
    v = 2 * d - 2 * a * d - 2 * t - 1
    return ((a, 2, 2), (lambda x: u / x + v / (x - 1)),
            (lambda x: -u / (x * x) - v / (x - 1) ** 2))


def nonlocal_expected(kind: str, p, x: complex):
    """(C1, C0) of the non-local image (c0'/c0 - c1, c0) of the seed
    equation and (P1, P0) of the companion p-equation of that image,
    (L' + C1, C1' + C0 - L' C1) with L = log c0, at x."""
    (r, m, n), c1, c1p = _seed_log_terms(kind, p)
    c0 = ratfun_value(*seed_coefficients(kind, p)[1], x)
    lp = 1 / (x - r) - m / x - n / (x - 1)
    lpp = -1 / (x - r) ** 2 + m / (x * x) + n / (x - 1) ** 2
    big_c1 = lp - c1(x)
    big_c1p = lpp - c1p(x)
    return (big_c1, c0), (lp + big_c1, big_c1p + c0 - lp * big_c1)


def _horner(coeffs, x: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ratfun_value(num_coeffs, den_coeffs, x: complex) -> complex:
    return _horner(num_coeffs, x) / _horner(den_coeffs, x)


def rel_dev(got: complex, want: complex) -> float:
    return abs(got - want) / max(1.0, abs(want))
