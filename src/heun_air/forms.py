"""Equation families, normal forms, and parameter maps.

Three solvable families of linear second-order equations are handled, named
by the location/type of their singularities:

* BHE(sigma, tau)        — regular point at 0, irregular at infinity;
* CHE(lambda, sigma, tau) — regular points at 0 and 1, irregular at infinity;
* GHE(a, delta, sigma, tau) — regular points at 0, 1, a and infinity.

Every family instance owns a normal-form equation y'' = q(x) y with rational
q; this module builds q, recognizes membership of a given q (detection),
and converts between three parametrizations: family parameters, normal-form
pole coefficients (NormalParams) and the classical canonical parameters
(CanonicalParams). Detection maps return *all* algebraic branches; an empty
list means "not in the family".
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainError, ParamError
# rat_eval is unused here, but perfbench/spans.py patches forms.rat_eval
from .numkernel import (POLY_X, Poly, RAT_ZERO, RatFun, as_complex,
                        rat_derivative, rat_eval)

#: Acceptance tolerance for fixed/dependent parameter constraints during
#: detection (relative to max(1, magnitudes involved)).
CONSTRAINT_TOL = 1e-8

#: Extraction: a partial-fraction coefficient outside the family's shape
#: must be below this, relative to the largest in-shape one.
EXTRACT_RESIDUAL_TOL = 1e-9

#: Parameters smaller than this are treated as the excluded degenerate value.
DEGENERACY_TOL = 1e-12


def _close(u, v, scale_floor: float = 1.0, tol: float = CONSTRAINT_TOL) -> bool:
    u, v = complex(u), complex(v)
    return abs(u - v) <= tol * max(scale_floor, abs(u), abs(v))


@dataclass(frozen=True)
class LinearODE:
    """y'' = c1(x) y' + c0(x) y with rational coefficients."""

    c1: RatFun
    c0: RatFun


@dataclass(frozen=True)
class BHEFamily:
    """Two-parameter family; family_to_normal_params gives the pole
    coefficients of its q (see NormalParams)."""

    sigma: complex
    tau: complex
    kind = "BHE"

    def __init__(self, sigma, tau):
        object.__setattr__(self, "sigma", as_complex(sigma))
        object.__setattr__(self, "tau", as_complex(tau))


@dataclass(frozen=True)
class CHEFamily:
    """Three-parameter family (lam is the parameter named lambda in job
    specifications; lambda = 0 leaves the family and is rejected)."""

    lam: complex
    sigma: complex
    tau: complex
    kind = "CHE"

    def __init__(self, lam, sigma, tau):
        lam = as_complex(lam)
        if abs(lam) <= DEGENERACY_TOL:
            raise ParamError("CHE requires lambda != 0")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "sigma", as_complex(sigma))
        object.__setattr__(self, "tau", as_complex(tau))


@dataclass(frozen=True)
class GHEFamily:
    """Four-parameter family; the third regular point a must avoid {0, 1}
    and delta = 0 leaves the family."""

    a: complex
    delta: complex
    sigma: complex
    tau: complex
    kind = "GHE"

    def __init__(self, a, delta, sigma, tau):
        a = as_complex(a)
        delta = as_complex(delta)
        if abs(a) <= DEGENERACY_TOL or abs(a - 1) <= DEGENERACY_TOL:
            raise ParamError(f"GHE requires a outside {{0, 1}}, got a = {a!r}")
        if abs(delta) <= DEGENERACY_TOL:
            raise ParamError("GHE requires delta != 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "sigma", as_complex(sigma))
        object.__setattr__(self, "tau", as_complex(tau))


Family = BHEFamily | CHEFamily | GHEFamily

_NORMAL_KEYS = {
    "BHE": ("B", "C", "D", "E"),
    "CHE": ("A", "B", "C", "D", "E"),
    "GHE": ("a", "A", "B", "D", "E", "F"),
}

_CANONICAL_KEYS = {
    "BHE": ("alpha", "beta", "gamma", "delta"),
    "CHE": ("alpha", "beta", "gamma", "delta", "eta"),
    "GHE": ("alpha", "beta", "gamma", "delta", "epsilon", "a", "q"),
}


@dataclass(frozen=True)
class NormalParams:
    """Pole coefficients of a normal form q, keyed per family; the one
    statement of q, from which family_to_normal builds it:
    BHE: q = x^2 - B x - C - D/x - E/x^2
    CHE: q = -A - B/x - C/(x-1) - D/x^2 - E/(x-1)^2
    GHE: q = -A/x - B/(x-1) + (A+B)/(x-a) - D/x^2 - E/(x-1)^2 - F/(x-a)^2
    """

    family: str
    values: dict

    def __init__(self, family: str, values: dict):
        if family not in _NORMAL_KEYS:
            raise ParamError(f"unknown family {family!r}")
        want = _NORMAL_KEYS[family]
        if set(values) != set(want):
            raise ParamError(
                f"{family} normal parameters need keys {sorted(want)}, got {sorted(values)}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "values", {k: as_complex(values[k]) for k in want})

    def __getitem__(self, key: str) -> complex:
        return self.values[key]


@dataclass(frozen=True)
class CanonicalParams:
    """Classical canonical parameters of each family's standard form."""

    family: str
    values: dict

    def __init__(self, family: str, values: dict):
        if family not in _CANONICAL_KEYS:
            raise ParamError(f"unknown family {family!r}")
        want = _CANONICAL_KEYS[family]
        if set(values) != set(want):
            raise ParamError(
                f"{family} canonical parameters need keys {sorted(want)}, got {sorted(values)}")
        vals = {k: as_complex(values[k]) for k in want}
        if family == "GHE":
            lhs = (vals["gamma"] + vals["delta"] + vals["epsilon"]
                   - vals["alpha"] - vals["beta"] - 1)
            if abs(lhs) > 1e-10 * max(1.0, *(abs(v) for v in vals.values())):
                raise ParamError(
                    "GHE canonical parameters must satisfy "
                    f"gamma+delta+epsilon-alpha-beta-1 = 0, got {lhs!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, key: str) -> complex:
        return self.values[key]


# ---------------------------------------------------------------------------
# Normal form of a general linear ODE
# ---------------------------------------------------------------------------

def to_normal_form(ode: LinearODE) -> tuple[RatFun, RatFun]:
    """Gauge away the first-derivative term of y'' = c1 y' + c0 y.

    Writing y = exp(g) u with gauge exponent g' = c1/2 gives u'' = q u with
    q = c0 + c1^2/4 - c1'/2. Returns (q, gauge_exponent_derivative = c1/2).
    """
    c1, c0 = ode.c1, ode.c0
    q = c0 + (c1 * c1).scale(0.25) - rat_derivative(c1).scale(0.5)
    return q, c1.scale(0.5)


# ---------------------------------------------------------------------------
# family -> normal form
# ---------------------------------------------------------------------------

def _normal_q(n: NormalParams) -> RatFun:
    """q as NormalParams' docstring states it."""
    neg = {k: 0j - v for k, v in n.values.items()}  # zeros kept +0
    if n.family == "BHE":
        return RatFun(Poly((neg["E"], neg["D"], neg["C"], neg["B"], 1)),
                      Poly((0, 0, 1)))
    if n.family == "CHE":
        return (RatFun.const(neg["A"])
                + RatFun(neg["B"], POLY_X)
                + RatFun(neg["C"], Poly((-1, 1)))
                + RatFun(neg["D"], Poly((0, 0, 1)))
                + RatFun(neg["E"], Poly((1, -2, 1))))
    a = n["a"]
    return (RatFun(neg["A"], POLY_X)
            + RatFun(neg["B"], Poly((-1, 1)))
            + RatFun(n["A"] + n["B"], Poly((-a, 1)))
            + RatFun(neg["D"], Poly((0, 0, 1)))
            + RatFun(neg["E"], Poly((1, -2, 1)))
            + RatFun(neg["F"], Poly((a * a, -2 * a, 1))))


def family_to_normal(f: Family) -> LinearODE:
    """Normal-form equation y'' = q(x) y of a family instance (c1 = 0)."""
    return LinearODE(RAT_ZERO, _normal_q(family_to_normal_params(f)))


# ---------------------------------------------------------------------------
# family -> normal parameters (closed formulas)
# ---------------------------------------------------------------------------

def family_to_normal_params(f: Family) -> NormalParams:
    """Pole coefficients of the family normal form, by closed formula."""
    if isinstance(f, BHEFamily):
        s, t = f.sigma, f.tau
        return NormalParams("BHE", {"B": -2 * s, "C": -t * t, "D": -t, "E": -0.75})
    if isinstance(f, CHEFamily):
        lam, s, t = f.lam, f.sigma, f.tau
        l2 = lam * lam
        return NormalParams("CHE", {
            "A": -l2,
            "B": 2 * (1 - s) * l2 + t * lam - 0.5,
            "C": 0.5 - t * lam,
            "D": 0.25 + (2 * s - t * t - 1) * l2,
            "E": -0.75,
        })
    if isinstance(f, GHEFamily):
        a, d, s, t = f.a, f.delta, f.sigma, f.tau
        d2 = d * d
        return NormalParams("GHE", {
            "a": a,
            "A": (-2 * a * (a - 1) * d2 + 2 * (2 * a - 1) * s * d
                  - 2 * t * t - (t + 0.5) / a + 0.5),
            "B": (2 * a * (a - 1) * d2 - 2 * (2 * a - 1) * s * d
                  + 2 * t * t + (t - a / 2) / (a - 1)),
            "D": -a * a * d2 + 2 * a * s * d - t * t + 0.25,
            "E": -(a - 1) ** 2 * d2 + 2 * (a - 1) * s * d - t * t + 0.25,
            "F": -0.75,
        })
    raise ParamError(f"unsupported family object {type(f).__name__}")


# ---------------------------------------------------------------------------
# extraction: q -> normal parameters (exact partial fractions)
# ---------------------------------------------------------------------------

#: Partial-fraction shape of each family's q (NormalParams' docstring):
#: key -> (pole, order), the coefficient of (x - pole)^-order, or of
#: x^order at pole "inf"; "a" is GHE's third singular point. "x2" (must be
#: 1) and "res_a" (must be A + B) are checks, not NormalParams keys.
_SHAPES = {
    "BHE": {"x2": ("inf", 2), "B": ("inf", 1), "C": ("inf", 0),
            "D": (0, 1), "E": (0, 2)},
    "CHE": {"A": ("inf", 0), "B": (0, 1), "C": (1, 1), "D": (0, 2), "E": (1, 2)},
    "GHE": {"A": (0, 1), "B": (1, 1), "res_a": ("a", 1), "D": (0, 2),
            "E": (1, 2), "F": ("a", 2)},
}


def _divide(coeffs, root):
    """Synthetic division by (x - root): (quotient, remainder), ascending."""
    acc, quot = 0j, []
    for c in reversed(coeffs):
        acc = acc * root + c
        quot.append(acc)
    return quot[-2::-1], (quot[-1] if quot else 0j)


def _deflate(coeffs, root):
    """Divide (x - root) out of coeffs for as long as the remainder is
    rounding noise; returns the multiplicity and the cofactor."""
    scale = sum(abs(c) for c in coeffs)
    m = 0
    while len(coeffs) > 1:
        quot, rem = _divide(coeffs, root)
        if abs(rem) > 1e-10 * scale:
            break
        coeffs, m = quot, m + 1
    return m, coeffs


def _series(num, at, factors, n) -> list[complex]:
    """First n Taylor coefficients in t of num(at + t) / prod (c0 + c1 t)^m
    over factors (c0, c1, m), c0 != 0. Those of num are repeated synthetic
    division's remainders; the denominator is expanded from its factors."""
    den = [1] + [0] * n
    for c0, c1, m in factors:
        for _ in range(m):
            den = [c0 * u + c1 * v for u, v in zip(den + [0], [0] + den)]
    s = []
    for k in range(n):
        num, rem = _divide(num, at)
        s.append((rem - sum(den[j] * s[k - j] for j in range(1, k + 1))) / den[0])
    return s


def extract_normal_params(q, family: str, a=None) -> NormalParams:
    """Recover the pole coefficients of q as exact partial fractions.

    q's denominator is deflated at the family's singular points in turn: 0,
    1 and for GHE the third point a, the caller's hint or else the mean root
    of what 0 and 1 leave (exact for (x - a)^m). A q whose denominator
    keeps a root elsewhere, even one its numerator cancels, is refused
    (DomainError); no map of this package builds one. The principal part at
    each pole is the Taylor series of q (x - pole)^m there, the polynomial
    part that of the reversed polynomials at infinity. Every coefficient
    outside the family's shape must be below EXTRACT_RESIDUAL_TOL times the
    largest in-shape one, or q is declared outside the family's normal
    shape (DomainError).

    Accepts a RatFun q or a LinearODE (normal-formed first if c1 != 0).
    """
    if isinstance(q, LinearODE):
        q = q.c0 if q.c1.num.is_zero() else to_normal_form(q)[0]
    if family not in _SHAPES:
        raise ParamError(f"unknown family {family!r}")
    shape, num, den = _SHAPES[family], q.num.coeffs, q.den.coeffs
    poles, rest = {}, den  # label -> (root, multiplicity)
    for p in dict.fromkeys(p for p, _ in shape.values() if p != "inf"):
        if p == "a" and a is None:
            if len(rest) < 2:
                raise DomainError("no third singular point found in q's denominator")
            a = -rest[-2] / (len(rest) - 1)  # rest is monic
        m, rest = _deflate(rest, r := a if p == "a" else p)
        poles[p] = r, m
    if len(rest) > 1:
        raise DomainError(
            f"q's denominator has roots away from the {family} singular points")
    coef = {}
    for p, (r, m) in poles.items():
        others = [(r - s, 1, k) for o, (s, k) in poles.items() if o != p]
        for k, c in enumerate(_series(num, r, others, m)):
            coef[p, m - k] = c
    top = len(num) - len(den)  # degree of the polynomial part
    at_inf = [(1, -r, m) for r, m in poles.values()]
    for k, c in enumerate(_series(num[::-1], 0, at_inf, top + 1)):
        coef["inf", top - k] = c
    got = {key: coef.get(at, 0j) for key, at in shape.items()}
    stray = max((abs(c) for at, c in coef.items() if at not in shape.values()),
                default=0.0)
    if stray > EXTRACT_RESIDUAL_TOL * max(abs(c) for c in got.values()):
        raise DomainError(f"q is not a {family} normal form "
                          f"(stray partial-fraction coefficient {stray:.3g})")
    if family == "BHE" and abs(got["x2"] - 1) > 1e-7:
        raise DomainError(
            f"q is not a BHE normal form (x^2 coefficient {got['x2']:.6g})")
    # structural redundancy: the residue at x = a must equal A + B
    # (the three first-order residues of q sum to zero)
    if family == "GHE" and not _close(got["res_a"], -got["A"] - got["B"], tol=1e-7):
        raise DomainError("q's residue at x = a breaks the GHE residue relation")
    return NormalParams(family, {k: a if k == "a" else -got[k]
                                 for k in _NORMAL_KEYS[family]})


# ---------------------------------------------------------------------------
# normal parameters -> family (detection, all branches)
# ---------------------------------------------------------------------------

def normal_to_family(n: NormalParams) -> list[Family]:
    """All family instances whose normal form has the given pole
    coefficients. Empty list when the fixed (E/F = -3/4) or dependent
    parameter constraints fail, i.e. the q is outside the solvable family.
    """
    if n.family == "BHE":
        B, C, D, E = n["B"], n["C"], n["D"], n["E"]
        if not _close(E, -0.75):
            return []
        if not _close(C, -D * D):
            return []
        return [BHEFamily(-B / 2, -D)]
    if n.family == "CHE":
        A, B, C, D, E = n["A"], n["B"], n["C"], n["D"], n["E"]
        if not _close(E, -0.75):
            return []
        if not _close(B, -A - D - C * C):
            return []
        lam2 = -A
        if abs(lam2) <= 1e-10:
            return []
        out = []
        for lam in (cmath.sqrt(lam2), -cmath.sqrt(lam2)):
            tau = (0.5 - C) / lam
            sigma = ((D - 0.25) / lam2 + tau * tau + 1) / 2
            out.append(CHEFamily(lam, sigma, tau))
        return out
    if n.family == "GHE":
        a, A, B, D, E, F = n["a"], n["A"], n["B"], n["D"], n["E"], n["F"]
        if not _close(F, -0.75):
            return []
        s = A + B
        e_pred = (1 - a) * (s * s * a - s * (s - 1) + (D - A) / a - D / (a * a))
        if not _close(E, e_pred):
            return []
        tau = a * (a - 1) * s + a - 0.5
        d2 = (a * A - (2 * a - 1) * (D + tau * tau - 0.25)
              + 2 * a * tau * tau + tau + 0.5 - a / 2) / (a * a)
        if abs(d2) <= 1e-10:
            return []
        out = []
        for delta in (cmath.sqrt(d2), -cmath.sqrt(d2)):
            sigma = (D + a * a * d2 + tau * tau - 0.25) / (2 * a * delta)
            out.append(GHEFamily(a, delta, sigma, tau))
        return out
    raise ParamError(f"unknown family {n.family!r}")


# ---------------------------------------------------------------------------
# canonical parameters <-> family
# ---------------------------------------------------------------------------

def canonical_to_normal(c: CanonicalParams) -> NormalParams:
    """Normal-form pole coefficients of the canonical equation (gauging away
    its first-derivative term)."""
    if c.family == "BHE":
        al, be, ga, de = c["alpha"], c["beta"], c["gamma"], c["delta"]
        return NormalParams("BHE", {"B": -be, "C": ga - be * be / 4,
                                    "D": -de / 2, "E": (1 - al * al) / 4})
    if c.family == "CHE":
        al, be, ga, de, eta = (c["alpha"], c["beta"], c["gamma"],
                               c["delta"], c["eta"])
        B = -0.5 - be - eta
        return NormalParams("CHE", {"A": -al * al / 4, "B": B,
                                    "C": de - B + al,
                                    "D": (1 - be * be) / 4,
                                    "E": (4 * ga - ga * ga - 3) / 4})
    if c.family == "GHE":
        al, be, ga, de, ep = (c["alpha"], c["beta"], c["gamma"],
                              c["delta"], c["epsilon"])
        a, q = c["a"], c["q"]
        A = ((a * de + ep) * ga / 2 - q) / a
        B = (al * al - (ga + de + ep - 1) * al
             + (ga + de) * ep / 2 + ga * de / 2 - a * A) / (a - 1)
        return NormalParams("GHE", {"a": a, "A": A, "B": B,
                                    "D": (2 * ga - ga * ga) / 4,
                                    "E": (2 * de - de * de) / 4,
                                    "F": (2 * ep - ep * ep) / 4})
    raise ParamError(f"unknown family {c.family!r}")


def canonical_to_family(c: CanonicalParams) -> list[Family]:
    """All family instances matching canonical parameters; empty when the
    canonical equation lies outside the solvable family."""
    if c.family == "BHE":
        al = c["alpha"]
        if abs(al * al - 4) > 1e-9 * max(1.0, abs(al) ** 2):
            return []
    return normal_to_family(canonical_to_normal(c))


def family_to_canonical(f: Family) -> list[CanonicalParams]:
    """All canonical parameter sets whose equation reduces to the family
    instance's normal form (every algebraic sign branch is emitted)."""
    if isinstance(f, BHEFamily):
        s, t = f.sigma, f.tau
        return [CanonicalParams("BHE", {"alpha": al, "beta": 2 * s,
                                        "gamma": s * s - t * t, "delta": 2 * t})
                for al in (2.0, -2.0)]
    if isinstance(f, CHEFamily):
        lam, s, t = f.lam, f.sigma, f.tau
        l2 = lam * lam
        beta0 = 2 * lam * cmath.sqrt(1 - 2 * s + t * t)
        out = []
        for al in (2 * lam, -2 * lam):
            for be in (beta0, -beta0):
                for ga in (0.0, 4.0):
                    de = 2 * (1 - s) * l2 - al
                    eta = 2 * (s - 1) * l2 - t * lam - be
                    out.append(CanonicalParams("CHE", {
                        "alpha": al, "beta": be, "gamma": ga,
                        "delta": de, "eta": eta}))
        return out
    if isinstance(f, GHEFamily):
        n = family_to_normal_params(f)
        a, A, B, D, E = n["a"], n["A"], n["B"], n["D"], n["E"]
        out = []
        for ga in (1 + cmath.sqrt(1 - 4 * D), 1 - cmath.sqrt(1 - 4 * D)):
            for de in (1 + cmath.sqrt(1 - 4 * E), 1 - cmath.sqrt(1 - 4 * E)):
                for ep in (3.0, -1.0):
                    lin = ga + de + ep - 1
                    const = (ga + de) * ep / 2 + ga * de / 2 - (a - 1) * B - a * A
                    disc = cmath.sqrt(lin * lin - 4 * const)
                    for al in ((lin + disc) / 2, (lin - disc) / 2):
                        be = ga + de + ep - al - 1
                        qq = (a * de + ep) * ga / 2 - a * A
                        out.append(CanonicalParams("GHE", {
                            "alpha": al, "beta": be, "gamma": ga, "delta": de,
                            "epsilon": ep, "a": a, "q": qq}))
        return out
    raise ParamError(f"unsupported family object {type(f).__name__}")
