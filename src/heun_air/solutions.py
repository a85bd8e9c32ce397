"""Closed-form solution bases for the three solvable families.

Each solve_* returns a SolutionBasis of two member callables mapping x to
(value, derivative). On the measure-zero locus sigma = +-tau the members are
Liouvillian (error-function / incomplete-gamma / incomplete-beta kernels);
otherwise they are assembled from confluent/Gauss hypergeometric functions.
On sigma = -tau, CHE and GHE return the members of the mirror
parametrization, which has the same normal form and sigma = +tau.
`solve_via_p_route` derives an independent general-branch basis through the
companion first-derivative equation and algebraic reconstruction — it must
(and is tested to) span the same space as the direct basis.

Members are composed with a tiny (value, derivative) pair algebra, so every
derivative is exact by product/chain rule; no finite differencing happens
inside the library. Each general-branch member combines two contiguous
special functions (U or M at A and A - 1, Whittaker M or W at mu and
mu - 1, 2F1 at (a, b; c) and (a+1, b+1; c+1)); it reads only their values
and takes both derivatives from the contiguous relations between them
(pair_contiguous), reading a function's own derivative, a second series,
only where its relation cancels. The p-route and the Liouvillian members
read the special functions' derivatives.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable

from . import abel
from .errors import (DegenerateError, DomainError, BranchError, HeunAirError,
                     ParamError, RemovablePointError)
from .forms import BHEFamily, CHEFamily, Family, GHEFamily, LinearODE
from .numkernel import POLY_X, Poly, RatFun, as_complex, rat_eval
from .specialfns import (CANCEL_LIMIT, FnValue, erf_like, hyp1f1, hyp2f1,
                         inc_beta, inc_gamma_upper, kummer_u,
                         near_nonpositive_integer, principal_power, whittaker)

CLASS_LIOUVILLIAN = "Liouvillian"
CLASS_HYPERGEOMETRIC = "Hypergeometric"

#: |sigma^2 - tau^2| at or below this selects the Liouvillian branch.
LIOUVILLE_TOL = 1e-10

#: Relative radius around x = -sigma that the printed BHE general-branch
#: members refuse to evaluate (see solve_bhe).
REMOVABLE_TOL = 1e-8

#: Wronskian magnitude below WRONSKIAN_TOL * scale fails the independence
#: probe at construction.
WRONSKIAN_TOL = 1e-10

SQRT_PI = math.sqrt(math.pi)

# ---------------------------------------------------------------------------
# (value, derivative) pair algebra
# ---------------------------------------------------------------------------

Pair = tuple[complex, complex]


def pair_var(x) -> Pair:
    return (as_complex(x), 1.0 + 0j)


def pair_add(*ps: Pair) -> Pair:
    return (sum(p[0] for p in ps), sum(p[1] for p in ps))


def pair_sub(u: Pair, v: Pair) -> Pair:
    return (u[0] - v[0], u[1] - v[1])


def pair_scale(k, p: Pair) -> Pair:
    k = as_complex(k)
    return (k * p[0], k * p[1])


def pair_mul(*ps: Pair) -> Pair:
    v, d = ps[0]
    for (v2, d2) in ps[1:]:
        v, d = v * v2, d * v2 + v * d2
    return (v, d)


def pair_exp(p: Pair) -> Pair:
    e = cmath.exp(p[0])
    return (e, p[1] * e)


def pair_pow(p: Pair, w) -> Pair:
    """p^w on the principal branch, derivative w p^(w-1) p'; one log(p)
    serves both powers, as principal_power forms each."""
    w = as_complex(w)
    z = as_complex(p[0])
    if z == 0:  # principal_power's zero-base branch
        return (principal_power(z, w), w * principal_power(z, w - 1) * p[1])
    log_z = cmath.log(z)
    return (cmath.exp(w * log_z), w * cmath.exp((w - 1) * log_z) * p[1])


def pair_fn(f: FnValue, chain=1.0) -> Pair:
    """FnValue evaluated at an inner function with derivative `chain`."""
    return (f.value, f.derivative * as_complex(chain))


def pair_contiguous(f: FnValue, t1, t2, w, chain=1.0) -> Pair:
    """pair_fn(f, chain) with f's derivative (t1 + t2) / w, a relation
    between f's value and a contiguous function's. Where that sum loses
    more than CANCEL_LIMIT to cancellation, |t1| + |t2| > CANCEL_LIMIT
    |t1 + t2|, or the quotient is not finite, f's own derivative is read
    instead (and its series summed then)."""
    s = t1 + t2
    d = s / w
    if cmath.isfinite(d) and abs(t1) + abs(t2) <= CANCEL_LIMIT * abs(s):
        return (f.value, d * as_complex(chain))
    return pair_fn(f, chain)


# ---------------------------------------------------------------------------
# solution basis container
# ---------------------------------------------------------------------------

Member = Callable[[complex], tuple[complex, complex]]


@dataclass(frozen=True)
class SolutionBasis:
    """Two independent solutions with exact derivatives.

    y1/y2 map x to (value, derivative). classification is "Liouvillian" or
    "Hypergeometric"; derived carries the characteristic parameters the
    members were built from; probe_point is the in-domain point at which
    linear independence was verified at construction time.
    """

    y1: Member
    y2: Member
    classification: str
    family: Family | None
    valid_domain: str
    formula: str
    derived: dict = field(default_factory=dict)
    probe_point: complex = 1.0 + 0j


def wronskian_at(basis: SolutionBasis, x) -> complex:
    v1, d1 = basis.y1(x)
    v2, d2 = basis.y2(x)
    return v1 * d2 - v2 * d1


def make_basis(y1: Member, y2: Member, classification: str, family,
               valid_domain: str, formula: str, derived: dict,
               probe_point) -> SolutionBasis:
    """Assemble a SolutionBasis, probing linear independence at the first
    workable probe point: probe_point is one point or a list of candidates,
    and an empty list is refused (ParamError). DegenerateError when the
    Wronskian vanishes relative to the member scale."""
    candidates = probe_point if isinstance(probe_point, (list, tuple)) else [probe_point]
    if not candidates:
        raise ParamError(f"probe_point is an empty list ({probe_point!r}): "
                         "no point to probe independence at")
    last_err: HeunAirError | None = None
    for p in candidates:
        p = as_complex(p)
        try:
            v1, d1 = y1(p)
            v2, d2 = y2(p)
        except HeunAirError as exc:
            last_err = exc
            continue
        w = v1 * d2 - v2 * d1
        scale = max(1.0, abs(v1 * d2), abs(v2 * d1))
        if abs(w) <= WRONSKIAN_TOL * scale:
            raise DegenerateError(
                f"basis members are linearly dependent at x = {p!r} "
                f"(|W| = {abs(w):.3g}, scale {scale:.3g})")
        return SolutionBasis(y1, y2, classification, family, valid_domain,
                             formula, dict(derived), p)
    # every probe refused evaluation: surface the members' own error
    raise last_err


def _checked(check: Callable[[complex], None], *members: Member) -> tuple[Member, ...]:
    """The members behind one domain check: each coerces x to complex and
    runs check(x) before it evaluates, so a member that calls another
    checks once."""
    def wrap(member: Member) -> Member:
        def y(x):
            x = as_complex(x)
            check(x)
            return member(x)
        return y
    return tuple(wrap(m) for m in members)


def is_liouvillian(sigma, tau) -> bool:
    """True on the solvable families' Liouvillian locus sigma = +-tau."""
    sigma, tau = as_complex(sigma), as_complex(tau)
    return abs(sigma * sigma - tau * tau) <= LIOUVILLE_TOL


def _pick(candidates, *avoid) -> list[complex]:
    """Order probe candidates, dropping those within 0.2 of a point of
    `avoid` (a BHE basis's parameter-dependent points)."""
    out = [as_complex(c) for c in candidates
           if all(abs(c - as_complex(p)) > 0.2 for p in avoid)]
    return out or [as_complex(candidates[0])]


# ---------------------------------------------------------------------------
# BHE
# ---------------------------------------------------------------------------

def _check_bhe(x: complex) -> None:
    if x.imag == 0 and x.real <= 0:
        raise DomainError(f"BHE basis defined for x > 0, got x = {x.real:.6g}")


def solve_bhe(f: BHEFamily) -> SolutionBasis:
    """Basis for the two-parameter family's normal form y'' = q y.

    On sigma = s tau, s = +-1, one Liouvillian pair for both signs: with
    G = x(x + 2 s tau)/2, y1 = e^(-sG) x^(-1/2) and
    y2 = (sqrt(pi) e^(sG) - pi tau e^(-s tau^2) E(x + s tau) e^(-sG)) x^(-1/2),
    E = erfi for s = 1 and erf for s = -1. Otherwise Kummer M/U members in
    w = (x+sigma)^2, refused at x = -sigma (RemovablePointError). That
    point is removable for y2 only: y1's U carries w^(1/2) = +-(x + sigma),
    so y1 continues across x = -Re sigma as a different solution and the
    Wronskian changes sign (on BHEFamily(-1.0, 0.3), W = -10.26 left of
    x = 1 and +10.26 right of it); `eval` rows on the two sides belong to
    two different bases. One basis across it (ROADMAP item 16) changes y1
    on one side, where the benchmark's oracle _bhe_general
    (perfbench/oracles.py) checks today's y1, so it waits for a change to
    the benchmark."""
    sigma, tau = f.sigma, f.tau

    if is_liouvillian(sigma, tau):
        # s tau and 2 s tau are negations, not products with s, and e^(+-G)
        # is picked, not scaled by s, so that each sign keeps its bits
        s = 1 if abs(sigma - tau) <= abs(sigma + tau) else -1
        st, st2, kind = ((tau, 2 * tau, "erfi") if s > 0
                         else (-tau, -(2 * tau), "erf"))
        k = math.pi * tau * cmath.exp(-st * tau)

        def exponents(x) -> tuple[Pair, Pair]:
            """The pairs sG and -sG."""
            g = (x * (x + st2) / 2, x + st)
            neg = (-g[0], -g[1])
            return (g, neg) if s > 0 else (neg, g)

        def y1(x):
            return pair_mul(pair_exp(exponents(x)[1]), pair_pow(pair_var(x), -0.5))

        def y2(x):
            sg, neg_sg = exponents(x)
            e = pair_fn(erf_like(kind, x + st))
            t1 = pair_scale(SQRT_PI, pair_exp(sg))
            t2 = pair_scale(k, pair_mul(e, pair_exp(neg_sg)))
            return pair_mul(pair_sub(t1, t2), pair_pow(pair_var(x), -0.5))

        return make_basis(
            *_checked(_check_bhe, y1, y2), CLASS_LIOUVILLIAN, f,
            "x > 0", f"bhe_liouvillian_{kind}", {"branch": float(s)},
            _pick([0.8, 1.35, 0.55, 2.1], -sigma - tau, sigma + tau))

    big_a = (tau * tau - sigma * sigma) / 4

    def lam_pair(x) -> Pair:
        val = (sigma * sigma + tau * tau + 4 * x * x
               + 2 * (3 * sigma - tau) * x - 2 * sigma * tau - 2)
        return (val, 8 * x + 2 * (3 * sigma - tau))

    def prefactor(x) -> Pair:
        return pair_mul(pair_exp((-sigma * x - x * x / 2, -sigma - x)),
                        pair_pow(pair_var(x), -0.5),
                        pair_pow((x + sigma, 1.0 + 0j), -1.0))

    def _check_general(x):
        _check_bhe(x)
        if abs(x + sigma) <= REMOVABLE_TOL * max(1.0, abs(x)):
            raise RemovablePointError(
                f"x = -sigma = {(-sigma)!r} is a removable point of the "
                "Kummer-form members; evaluate elsewhere or use a Liouvillian family")

    a0 = big_a - 1

    # F = U or M at A and A - 1, b = 1/2, differentiated through their
    # contiguous relations (DLMF 13.3(ii)):
    #   w F'(A) = (A - b + w) F(A) + c F(A-1),
    #   w F'(A-1) = (A-1) e F(A) - (A-1) F(A-1),
    # with (c, e) = (-1, A - b) for U and (b - A, 1) for M.
    def member(fn, c, e, combine) -> Member:
        def y(x):
            w = (x + sigma) ** 2
            chain = 2 * (x + sigma)
            f1, f0 = fn(big_a, 0.5, w), fn(a0, 0.5, w)
            v1, v0 = f1.value, f0.value
            p1 = pair_contiguous(f1, (big_a - 0.5 + w) * v1, c * v0, w, chain)
            p0 = pair_contiguous(f0, a0 * e * v1, -a0 * v0, w, chain)
            return pair_mul(prefactor(x), combine(lam_pair(x), p1, p0))
        return y

    y1 = member(kummer_u, -1, big_a - 0.5, lambda lam, u1, u0: pair_sub(
        pair_mul(lam, u1), pair_scale(4, u0)))
    y2 = member(hyp1f1, 0.5 - big_a, 1, lambda lam, m1, m0: pair_sub(
        pair_scale(tau * tau - sigma * sigma - 2, m0), pair_mul(lam, m1)))

    return make_basis(
        *_checked(_check_general, y1, y2), CLASS_HYPERGEOMETRIC, f,
        "x > 0, x != -sigma", "bhe_kummer", {"A": big_a},
        _pick([0.8, 1.35, 0.55, 1.9, 2.4], -sigma))


# ---------------------------------------------------------------------------
# CHE
# ---------------------------------------------------------------------------

def _check_che(x: complex) -> None:
    if x.imag == 0 and x.real <= 0:
        raise BranchError(f"CHE basis defined off x <= 0, got x = {x.real:.6g}")
    if abs(x - 1) <= 1e-10:
        raise DomainError("x = 1 is a singular point of the family")


def che_whittaker_params(f: CHEFamily) -> tuple[complex, complex]:
    """Whittaker indices (mu, nu) of the three-parameter family."""
    lam, sigma, tau = f.lam, f.sigma, f.tau
    return (lam * (1 - sigma) + 0.5,
            lam * cmath.sqrt(tau * tau - 2 * sigma + 1))


def solve_che(f: CHEFamily) -> SolutionBasis:
    """Basis for the three-parameter confluent family.

    Liouvillian members on sigma = +-tau use upper incomplete gamma
    integrals of argument -+2 lambda x; the general branch uses Whittaker
    M/W pairs of argument 2 lambda x with
    mu = lambda (1-sigma) + 1/2, nu = lambda sqrt(tau^2 - 2 sigma + 1)."""
    lam, sigma, tau = f.lam, f.sigma, f.tau

    if is_liouvillian(sigma, tau):
        if abs(sigma - tau) > abs(sigma + tau):
            # sigma = -tau: the mirror's y2 is minus ours (0j - v, unlike
            # -v, keeps exactly zero imaginary parts +0)
            mirror = solve_che(CHEFamily(-lam, sigma, -tau))
            return replace(mirror, family=f,
                           formula="che_liouvillian_gamma_minus",
                           y2=lambda x: tuple(0j - v for v in mirror.y2(x)))
        expo = (1 - tau) * lam + 0.5
        u = 2 * (tau - 1) * lam

        def y1(x):
            return pair_mul(pair_pow(pair_var(x), expo),
                            pair_exp((-lam * x, -lam)),
                            pair_pow((x - 1, 1.0 + 0j), -0.5))

        def y2(x):
            base = y1(x)
            g1 = pair_fn(inc_gamma_upper(u + 1, -2 * lam * x), -2 * lam)
            g0 = pair_fn(inc_gamma_upper(u, -2 * lam * x), -2 * lam)
            s = pair_add(g1, pair_scale(2 * lam, g0))
            return pair_mul(base, s)

        return make_basis(
            *_checked(_check_che, y1, y2), CLASS_LIOUVILLIAN, f,
            "x in (0,1) or x > 1", "che_liouvillian_gamma_plus", {"u": u},
            [1.6, 0.45, 2.2, 0.7, 1.3])

    mu, nu = che_whittaker_params(f)

    # Whittaker functions F = M or W at kappa = mu and mu - 1,
    # differentiated through their contiguous relations (DLMF 13.15(ii)):
    #   z F'_k = (k - z/2) F_k + c F_(k-1),
    #   z F'_(k-1) = (1 - k + z/2) F_(k-1) + d F_k,
    # with (c, d) = (1/2 - k + nu, k + nu - 1/2) for M and
    # ((1/2 - k + nu)(1/2 - k - nu), -1) for W.
    def member(kind, c, d, combine) -> Member:
        def y(x):
            chain = 2 * lam
            z = 2 * lam * x
            f1 = whittaker(kind, mu, nu, z)
            f0 = whittaker(kind, mu - 1, nu, z)
            v1, v0 = f1.value, f0.value
            p1 = pair_contiguous(f1, (mu - z / 2) * v1, c * v0, z, chain)
            p0 = pair_contiguous(f0, (1 - mu + z / 2) * v0, d * v1, z, chain)
            return pair_mul(pair_pow((x - 1, 1.0 + 0j), -0.5), combine(p1, p0))
        return y

    y1 = member("M", 0.5 - mu + nu, mu + nu - 0.5, lambda m1, m0: pair_add(
        pair_scale(lam * (tau + sigma), m1),
        pair_scale((1 - sigma) * lam - nu, m0)))
    y2 = member("W", (0.5 - mu + nu) * (0.5 - mu - nu), -1, lambda w1, w0:
                pair_add(w1, pair_scale(lam * (tau - sigma), w0)))

    return make_basis(
        *_checked(_check_che, y1, y2), CLASS_HYPERGEOMETRIC, f,
        "x in (0,1) or x > 1", "che_whittaker", {"mu": mu, "nu": nu},
        [1.6, 0.45, 2.2, 0.7, 1.3])


# ---------------------------------------------------------------------------
# GHE
# ---------------------------------------------------------------------------

def _check_ghe(x: complex) -> None:
    if x.imag != 0:
        raise DomainError("GHE basis defined for real x in (0, 1)")
    if not (1e-12 < x.real < 1 - 1e-12):
        raise DomainError(
            f"GHE basis defined for x in (0, 1), got x = {x.real:.6g}")


def ghe_exponents(f: GHEFamily) -> tuple[complex, complex]:
    """Characteristic exponent pair (Sigma, T) of the four-point family."""
    a, d, s, t = f.a, f.delta, f.sigma, f.tau
    big_sigma = cmath.sqrt((a - 1) ** 2 * d * d - 2 * (a - 1) * s * d + t * t)
    big_t = cmath.sqrt(a * a * d * d - 2 * a * s * d + t * t)
    return big_sigma, big_t


def _refuse_ghe_resonance(big_t) -> None:
    """ParamError when a Gauss lower parameter 1 +- 2T or 2 +- 2T of the
    general-branch members is a nonpositive integer."""
    for c in (1 - 2 * big_t, 2 - 2 * big_t, 1 + 2 * big_t, 2 + 2 * big_t):
        if near_nonpositive_integer(c):
            raise ParamError(
                f"2F1 lower parameter {c!r} degenerates to a nonpositive "
                "integer (1 +- 2T integer-resonant); no generic basis")


def _gauss_pairs(g: FnValue, f: FnValue, al, be, ga, x) -> tuple[Pair, Pair]:
    """The pairs of G = 2F1(al+1, be+1; ga+1; x) and F = 2F1(al, be; ga; x)
    from their values: F' = (al be / ga) G (DLMF 15.5.1), and G' from the
    hypergeometric equation of F (DLMF 15.10.1),
    x (1 - x) G' = ga F - (ga - (al + be + 1) x) G."""
    gv, fv = g.value, f.value
    return (pair_contiguous(g, ga * fv, -(ga - (al + be + 1) * x) * gv,
                            x * (1 - x)),
            (fv, al * be / ga * gv))


def solve_ghe(f: GHEFamily) -> SolutionBasis:
    """Basis for the four-parameter family on x in (0, 1).

    Liouvillian members on sigma = +-tau use incomplete beta integrals; the
    general branch uses Gauss 2F1 members at the exponents -+T of x = 0,
    one formula at an exponent u with y1 = -member(-T) and y2 = member(T),
    whose lower parameters 1 + 2u are refused (ParamError) when they
    degenerate to nonpositive integers."""
    a, d, sigma, tau = f.a, f.delta, f.sigma, f.tau
    big_sigma, big_t = ghe_exponents(f)

    if is_liouvillian(sigma, tau):
        if abs(sigma - tau) > abs(sigma + tau):
            # sigma = -tau: the mirror's members are ours
            return replace(solve_ghe(GHEFamily(a, -d, -sigma, tau)), family=f,
                           formula="ghe_liouvillian_beta_minus")
        p_exp = tau - a * d + 0.5
        q_exp = (a - 1) * d - tau + 0.5
        alpha = 1 + 2 * (a * d - tau)
        beta = 2 * ((1 - a) * d + tau)

        def y1(x):
            return pair_mul(pair_pow(pair_var(x), p_exp),
                            pair_pow((x - 1, 1.0 + 0j), q_exp),
                            pair_pow((a - x, -1.0 + 0j), -0.5))

        def y2(x):
            base = y1(x)
            b1 = pair_fn(inc_beta(x, alpha, beta))
            b0 = pair_fn(inc_beta(x, alpha - 1, beta))
            s = pair_sub(b1, pair_scale(a, b0))
            return pair_mul(base, s)

        return make_basis(
            *_checked(_check_ghe, y1, y2), CLASS_LIOUVILLIAN, f, "0 < x < 1",
            "ghe_liouvillian_beta_plus", {"Sigma": big_sigma, "T": big_t},
            [0.45, 0.6, 0.3, 0.75])

    _refuse_ghe_resonance(big_t)
    S, T, D = big_sigma, big_t, d

    def prefactor(x) -> Pair:
        return pair_mul(pair_pow((x - 1, 1.0 + 0j), S + 0.5),
                        pair_pow((x - a, 1.0 + 0j), -0.5))

    def member(u, k, x) -> Pair:
        """y2 at the exponent u = T, -y1 at u = -T. k, which is
        (u + S + D)(S - D + 1 + u)/2, is passed in as each member writes
        it: one expression for both rounds differently for one of them."""
        al, be, ga = S + D + u, S - D + 1 + u, 1 + 2 * u
        fc, fd = _gauss_pairs(hyp2f1(al + 1, S - D + u + 2, 2 + 2 * u, x),
                              hyp2f1(al, be, ga, x), al, be, ga, x)
        x15 = pair_pow(pair_var(x), 1.5 + u)
        t1 = pair_mul(pair_scale(k, pair_sub(x15, pair_pow(pair_var(x), 2.5 + u))), fc)
        inner = pair_sub(pair_scale(a * D + u + tau, pair_pow(pair_var(x), 0.5 + u)),
                         pair_scale(u + S + D, x15))
        t2 = pair_mul(pair_scale(u + 0.5, inner), fd)
        return pair_mul(prefactor(x), pair_add(t1, t2))

    k1 = (T - S - D) * (T - S + D - 1) / 2
    k2 = (T + S + D) * (S - D + 1 + T) / 2

    def y1(x):
        # 0j - v, unlike -v, keeps exactly zero parts +0
        return tuple(0j - v for v in member(-T, k1, x))

    def y2(x):
        return member(T, k2, x)

    return make_basis(
        *_checked(_check_ghe, y1, y2), CLASS_HYPERGEOMETRIC, f, "0 < x < 1",
        "ghe_gauss", {"Sigma": big_sigma, "T": big_t}, [0.45, 0.6, 0.3, 0.75])


def solve_family(f: Family) -> SolutionBasis:
    """Dispatch on the family type."""
    if isinstance(f, BHEFamily):
        return solve_bhe(f)
    if isinstance(f, CHEFamily):
        return solve_che(f)
    if isinstance(f, GHEFamily):
        return solve_ghe(f)
    raise ParamError(f"unsupported family object {type(f).__name__}")


# ---------------------------------------------------------------------------
# the p-route: companion equation + algebraic reconstruction
# ---------------------------------------------------------------------------

def _pfq_seed_ode(f: Family) -> LinearODE:
    """The plain hypergeometric-class ODE whose non-local image is the
    family's intermediary equation."""
    if isinstance(f, BHEFamily):
        s, t = f.sigma, f.tau
        return LinearODE(RatFun(Poly((-2 * t, 2))),
                         RatFun(Poly((0, 2 * (t + s)))))
    if isinstance(f, CHEFamily):
        lam, s, t = f.lam, f.sigma, f.tau
        return LinearODE(
            RatFun(Poly((-2 * lam * (t + 1) - 1, 2 * lam)), POLY_X),
            RatFun(Poly((-2 * (t + s) * lam * lam, 2 * (t + s) * lam * lam)),
                   Poly((0, 0, 1))))
    if isinstance(f, GHEFamily):
        a, d, s, t = f.a, f.delta, f.sigma, f.tau
        return LinearODE(
            RatFun(Poly((1 - 2 * (a * d + t), 2 * (d - 1))),
                   POLY_X * Poly((-1, 1))),
            RatFun(Poly((-2 * a * d * (t + s), 2 * d * (t + s))),
                   Poly((0, 0, 1)) * Poly((1, -2, 1))))
    raise ParamError(f"unsupported family object {type(f).__name__}")


def solve_via_p_route(f: Family) -> SolutionBasis:
    """General-branch basis obtained through the companion p = y' equation.

    Pipeline: the hypergeometric seed ODE's non-local image (the family
    intermediary) has a p-equation with printed closed-form solutions; y is
    reconstructed algebraically from p and gauged onto the family normal
    form. Returns a basis solving family_to_normal(f) — independent of the
    direct solve_* construction, and tested to span the same space."""
    if is_liouvillian(f.sigma, f.tau):
        raise ParamError("the p-route is defined on the general branch "
                         "(sigma != +-tau) only")

    inter = abel.mobius_nonlocal(_pfq_seed_ode(f))

    if isinstance(f, BHEFamily):
        s, t = f.sigma, f.tau
        big_a = (t * t - s * s) / 4

        def p_member(fn):
            def p(x):
                w = (x + s) ** 2
                chain = 2 * (x + s)
                return pair_mul(pair_var(x),
                                pair_exp(((t - s) * x - x * x, t - s - 2 * x)),
                                pair_fn(fn(big_a, 0.5, w), chain))
            return p

        p1, p2 = _checked(_check_bhe, p_member(hyp1f1), p_member(kummer_u))

        def gauge(x) -> complex:
            return principal_power(x, -0.5) * cmath.exp(x * x / 2 - t * x)

        probes = _pick([0.8, 1.35, 0.55, 1.9], -s)
        domain = "x > 0"
        formula = "bhe_p_route"
        derived = {"A": big_a}
    elif isinstance(f, CHEFamily):
        lam, s, t = f.lam, f.sigma, f.tau
        mu, nu = che_whittaker_params(f)

        def p_member(kind):
            def p(x):
                return pair_mul((x - 1, 1.0 + 0j),
                                pair_pow(pair_var(x), (t + 1) * lam - 1.5),
                                pair_exp((-lam * x, -lam)),
                                pair_fn(whittaker(kind, mu, nu, 2 * lam * x), 2 * lam))
            return p

        p1, p2 = _checked(_check_che, p_member("M"), p_member("W"))

        def gauge(x) -> complex:
            return (cmath.exp(lam * x) * principal_power(x, 0.5 - lam * (1 + t))
                    * principal_power(x - 1, -0.5))

        probes = [1.6, 0.45, 2.2, 0.7]
        domain = "x in (0,1) or x > 1"
        formula = "che_p_route"
        derived = {"mu": mu, "nu": nu}
    else:
        a, d, s, t = f.a, f.delta, f.sigma, f.tau
        S, T = ghe_exponents(f)
        _refuse_ghe_resonance(T)
        e1 = -1 - a * d - t - T
        e2 = (a - 1) * d + t + S - 1

        def p_member(sign: float):
            def p(x):
                ft = pair_fn(hyp2f1(S + d + sign * T, S - d + 1 + sign * T,
                                    1 + sign * 2 * T, x))
                return pair_mul((x - a, 1.0 + 0j),
                                pair_pow(pair_var(x), e1 + (T + sign * T)),
                                pair_pow((x - 1, 1.0 + 0j), e2),
                                ft)
            return p

        p1, p2 = _checked(_check_ghe, p_member(-1.0), p_member(1.0))

        def gauge(x) -> complex:
            return (principal_power(x, a * d + t + 0.5)
                    * principal_power(x - 1, (1 - a) * d - t + 0.5)
                    * principal_power(x - a, -0.5))

        probes = [0.45, 0.6, 0.3, 0.75]
        domain = "0 < x < 1"
        formula = "ghe_p_route"
        derived = {"Sigma": S, "T": T}

    p_basis = make_basis(p1, p2, CLASS_HYPERGEOMETRIC, f, domain,
                         formula + "_p", derived, probes)
    y_inter = abel.reconstruct_y(p_basis, inter)
    c1_half = inter.c1.scale(0.5)

    def lift(member):
        def y(x):
            x = as_complex(x)
            v, dv = member(x)
            g = gauge(x)
            return g * v, g * (dv - rat_eval(c1_half, x) * v)
        return y

    return make_basis(lift(y_inter.y1), lift(y_inter.y2),
                      CLASS_HYPERGEOMETRIC, f, domain, formula, derived,
                      [y_inter.probe_point])


# ---------------------------------------------------------------------------
# tabulated evaluation
# ---------------------------------------------------------------------------

def eval_basis(basis: SolutionBasis, xs) -> list[dict]:
    """Evaluate both members over a grid; per-row status records the error
    class name when a point is refused, values stay None for that row."""
    rows = []
    for x in xs:
        row = {"x": as_complex(x), "y1": None, "y1p": None,
               "y2": None, "y2p": None, "status": "ok"}
        try:
            v1, d1 = basis.y1(row["x"])
            v2, d2 = basis.y2(row["x"])
        except HeunAirError as exc:
            row["status"] = type(exc).__name__
        else:
            row.update(y1=v1, y1p=d1, y2=v2, y2p=d2)
        rows.append(row)
    return rows
