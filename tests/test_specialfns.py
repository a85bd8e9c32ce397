"""Special-function layer: frozen reference values (computed once with an
independent multiprecision oracle and inlined as literals), classical
functional identities evaluated in regions where both sides go through
independent computation routes, ODE satisfaction, derivative consistency
against finite differences, and the term-cap environment knob.
"""
from __future__ import annotations

import cmath
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import pytest

from conftest import fd_derivative, rel_err, rng
from heun_air import (
    BranchError,
    ConvergenceError,
    DomainError,
    HeunAirError,
    NonFiniteError,
    ParamError,
    PoleError,
    erf_like,
    gamma,
    hyp0f1,
    hyp1f1,
    hyp2f1,
    inc_beta,
    inc_gamma_upper,
    kummer_u,
    whittaker,
)
from heun_air import specialfns
from heun_air.specialfns import (
    CANCEL_LIMIT,
    ENV_MAX_TERMS,
    MAX_TERMS_DEFAULT,
    max_terms,
    near_integer,
    near_nonpositive_integer,
    principal_power,
    rgamma,
)

ORACLE_REL_TOL = 1e-13
#: The confluent U connection formula loses ~2 digits to cancellation between
#: its two gamma-weighted terms; its oracle comparisons run at 1e-12.
U_ORACLE_REL_TOL = 1e-12
IDENTITY_REL_TOL = 1e-10
ODE_RESIDUAL_TOL = 1e-8
FD_REL_TOL = 1e-6


def approx_c(want: complex, tol: float = ORACLE_REL_TOL):
    """Complex 'approximately equal' with relative tolerance floor 1."""
    def check(got: complex) -> bool:
        return rel_err(got, want) <= tol
    return check


def assert_close(got, want, tol=ORACLE_REL_TOL):
    assert rel_err(got, want) <= tol, f"got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# gamma and powers
# ---------------------------------------------------------------------------

def test_gamma_frozen_values():
    assert_close(gamma(0.5), 1.7724538509055160)
    assert_close(gamma(-1.5), 2.3632718012073547)
    assert_close(gamma(2.5 + 1.5j), 0.30993622584074135 + 0.73408427362148134j)
    assert_close(gamma(1.0), 1.0)
    assert_close(gamma(5.0), 24.0)


def test_gamma_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma(z)
    # reciprocal gamma is entire: zero at the poles, no exception
    assert rgamma(0.0) == 0
    assert rgamma(-3.0) == 0
    assert_close(rgamma(0.5), 1 / 1.7724538509055160)


def test_rgamma_near_nonpositive_integers():
    # 1/gamma(z) ~ (-1)^n n! (z - n) next to z = -n: small, not zero
    mp = mpmath.MPContext()
    mp.dps = 40
    for z in (4.23e-10, -3 + 2e-10, -7 - 5e-10 + 3e-10j):
        assert_close(rgamma(z), complex(mp.rgamma(z)), 1e-13)
    for z in (0.0, -1.0, -3 + 0j, -7.0):
        assert rgamma(z) == 0
    # U's second connection term carries rgamma(a)
    for a, b, z in ((4.23e-10, 3.86, 3.52), (-2 + 3e-10, 0.4, 5.0)):
        assert_close(kummer_u(a, b, z).value, complex(mp.hyperu(a, b, z)),
                     U_ORACLE_REL_TOL)


def test_gamma_overflow_is_typed():
    # gamma exceeds the largest double here
    for z in (172.0, 171.7, 180.0 + 5.0j):
        with pytest.raises(NonFiniteError):
            gamma(z)


def test_gamma_reflection_with_large_inner_gamma():
    # gamma(171.3 - 0.5j) ~ 3.4e307 is in range, but its Lanczos
    # intermediate t^(z-1/2) is not: the reflection takes it in log form
    z = -170.3 + 0.5j
    want = complex(_MP40.gamma(z))  # about 3.8e-308, a normal double
    got = gamma(z)
    assert abs(got - want) <= 1e-12 * abs(want)
    # below the normal doubles, gamma(1 - z) overflows as well: refused
    with pytest.raises(NonFiniteError):
        gamma(-171.3 + 0.5j)


def test_gamma_at_large_imaginary_part():
    # sin(pi z) overflows in the reflection while gamma itself is tiny
    for z in (0.3 + 250j, -3.7 + 300j, 0.3 - 250j, -3.7 - 300j):
        assert_close(gamma(z), complex(mpmath.gamma(z)), 1e-11)
        assert_close(rgamma(z), complex(mpmath.rgamma(z)), 1e-11)
    for z in (0.7 + 400j, 0.7 - 400j):
        assert_close(gamma(z), complex(mpmath.gamma(z)), 1e-11)
    assert rgamma(200.0) == 0  # gamma(200) overflows, its reciprocal is 0
    with pytest.raises(NonFiniteError):  # gamma underflows, 1/gamma overflows
        rgamma(0.7 + 600j)


def test_gamma_reflection_random():
    r = rng("gamma-reflect")
    for _ in range(40):
        z = complex(r.uniform(-3, 3), r.uniform(-3, 3))
        if abs(z.imag) < 0.1:
            continue
        lhs = gamma(z) * gamma(1 - z)
        rhs = math.pi / cmath.sin(math.pi * z)
        assert rel_err(lhs, rhs) <= IDENTITY_REL_TOL


def test_gamma_accuracy_bound_against_mpmath():
    # the docstring's bound on Re z in [-30, 60], |Im z| <= 220; the worst
    # of these points is 3.8e-13, at -21.8 + 200.0i
    mp = mpmath.MPContext()
    mp.dps = 40
    r = rng("gamma-accuracy")
    worst = 0.0
    for _ in range(3000):
        z = complex(r.uniform(-30, 60), r.uniform(-220, 220))
        want = mp.gamma(mp.mpc(z))
        worst = max(worst, float(abs(mp.mpc(gamma(z)) - want) / abs(want)))
    assert worst <= 5e-13


def test_principal_power_conventions():
    assert principal_power(0.0, 0.0) == 1
    assert principal_power(0.0, 2.5) == 0
    assert principal_power(0.0, 1j * 0 + 3) == 0
    with pytest.raises(DomainError):
        principal_power(0.0, -1.0)
    with pytest.raises(DomainError):
        principal_power(0.0, 1j)
    assert_close(principal_power(4.0, 0.5), 2.0)
    assert_close(principal_power(-1.0, 0.5), 1j)  # principal branch
    assert_close(principal_power(2.0, 3.0), 8.0)


def test_integer_proximity_predicates():
    assert near_integer(3.0 + 1e-12j)
    assert not near_integer(3.5)
    assert not near_integer(3.0 + 1e-3j)
    assert near_nonpositive_integer(-2.0)
    assert near_nonpositive_integer(0.0)
    assert not near_nonpositive_integer(2.0)
    assert not near_nonpositive_integer(-2.5)


# ---------------------------------------------------------------------------
# confluent hypergeometric 1F1 / U
# ---------------------------------------------------------------------------

def test_hyp1f1_frozen_values():
    fv = hyp1f1(0.25, 0.5, 1.0)
    assert_close(fv.value, 1.7885868286208679)
    assert_close(fv.derivative, 1.1790062520982981)
    assert_close(hyp1f1(1.0, 1.0, 1.0).value, math.e)  # 1F1(1;1;z) = e^z
    assert_close(hyp1f1(0.5, 1.5, 0.0).value, 1.0)


def test_hyp1f1_rejects_nonpositive_integer_b():
    for b in (0.0, -1.0, -2.0 + 1e-12):
        with pytest.raises(ParamError):
            hyp1f1(0.5, b, 1.0)
    hyp1f1(0.5, -2.5, 1.0)  # negative non-integer b is fine


def test_kummer_u_frozen_values():
    fv = kummer_u(0.25, 0.5, 2.0)
    assert_close(fv.value, 0.78558289873805218, U_ORACLE_REL_TOL)
    assert_close(fv.derivative, -0.077543866584663315, U_ORACLE_REL_TOL)
    assert_close(kummer_u(1.0, 0.5, 1.0).value, 0.48425568771737579, U_ORACLE_REL_TOL)
    assert_close(kummer_u(0.3, 0.6 + 0.8j, 1.5).value,
                 0.79257497313273824 + 0.075812260138545272j, U_ORACLE_REL_TOL)


def test_kummer_u_trivial_order():
    fv = kummer_u(0.0, 0.5, 1.7)  # U(0, b, z) = 1
    assert rel_err(fv.value, 1.0) <= 1e-13
    assert fv.derivative == 0


def test_kummer_u_rejects_integer_b_and_origin():
    for b in (1.0, 2.0, 0.0, -1.0):
        with pytest.raises(ParamError):
            kummer_u(0.25, b, 1.0)
    with pytest.raises(DomainError):
        kummer_u(0.25, 0.5, 0.0)


def test_kummer_transformation_identity():
    """1F1(a;b;z) = e^z 1F1(b-a;b;-z).

    Draws keep Re(z) in (-1.9, 1.9): there both sides are computed by the
    raw series at different arguments, so the identity compares two
    independent computations (outside that strip one side is internally
    rewritten through this very identity and the check would be vacuous).
    """
    r = rng("kummer-id")
    checked = 0
    while checked < 120:
        a = complex(r.uniform(-2, 2), r.uniform(-1, 1))
        b = complex(r.uniform(-2, 2), r.uniform(-1, 1))
        if near_nonpositive_integer(b, 0.05):
            continue
        z = complex(r.uniform(-1.9, 1.9), r.uniform(-2, 2))
        lhs = hyp1f1(a, b, z).value
        rhs = cmath.exp(z) * hyp1f1(b - a, b, -z).value
        assert rel_err(lhs, rhs) <= IDENTITY_REL_TOL
        checked += 1


def test_hyp1f1_route_seam_continuity():
    # the internal rewrite kicks in left of Re(z) = -2; values across the
    # seam come from the two distinct routes and must agree
    for im in (0.0, 0.7, -1.3):
        lo = hyp1f1(0.7, 1.3, complex(-2 - 1e-9, im)).value
        hi = hyp1f1(0.7, 1.3, complex(-2 + 1e-9, im)).value
        assert rel_err(lo, hi) <= 1e-7


def test_hyp1f1_ode_satisfaction():
    """z w'' + (b - z) w' - a w = 0, with w'' taken from the analytic
    derivative of the parameter-shifted series (not finite differences)."""
    r = rng("1f1-ode")
    for _ in range(40):
        a = complex(r.uniform(-2, 2), r.uniform(-1, 1))
        b = complex(r.uniform(0.3, 2.5), r.uniform(-1, 1))
        z = complex(r.uniform(-1.8, 2.5), r.uniform(-2, 2))
        w = hyp1f1(a, b, z)
        wpp = (a / b) * hyp1f1(a + 1, b + 1, z).derivative
        resid = z * wpp + (b - z) * w.derivative - a * w.value
        scale = max(1.0, abs(z * wpp), abs((b - z) * w.derivative), abs(a * w.value))
        assert abs(resid) / scale <= ODE_RESIDUAL_TOL


def test_kummer_u_ode_satisfaction():
    r = rng("u-ode")
    for _ in range(40):
        a = complex(r.uniform(0.1, 2), r.uniform(-1, 1))
        b = complex(r.uniform(0.3, 0.7), r.uniform(0.2, 1))
        z = complex(r.uniform(0.4, 3), r.uniform(-1, 1))
        w = kummer_u(a, b, z)
        wpp = a * (a + 1) * kummer_u(a + 2, b + 2, z).value
        resid = z * wpp + (b - z) * w.derivative - a * w.value
        scale = max(1.0, abs(z * wpp), abs((b - z) * w.derivative), abs(a * w.value))
        assert abs(resid) / scale <= ODE_RESIDUAL_TOL


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1
# ---------------------------------------------------------------------------

def test_hyp2f1_frozen_values():
    assert_close(hyp2f1(0.3, 0.7, 1.1, 0.4).value, 1.0986168348873370)
    assert_close(hyp2f1(1.0, 1.0, 2.0, 0.5).value, 1.3862943611198906)  # 2 ln 2
    assert_close(hyp2f1(0.3, 0.7, 1.1, 0.85).value, 1.3696743489957259)
    assert_close(hyp2f1(0.3, 0.7, 1.1, 0.0).value, 1.0)


def test_hyp2f1_parameter_and_domain_errors():
    for c in (0.0, -3.0):
        with pytest.raises(ParamError):
            hyp2f1(0.5, 0.5, c, 0.3)
    for z in (1.0, -1.0, 1.2, 0.8 + 0.8j):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.5, z)


def test_terminating_series_with_exact_zero_value():
    # 1 - z/2 at z = 2 and 1 - 4z at z = 1/4: the partial sums reach exactly 0
    assert hyp1f1(-1, 2, 2) == specialfns.FnValue(0j, -0.5)
    assert hyp2f1(-1, 4, 1, 0.25) == specialfns.FnValue(0j, -4)


def test_euler_transformation_identity():
    """2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a,c-b;c;z).

    Power draws keep |z| <= 0.5, where neither side is internally rewritten
    (the rewrite engages only for |z| > 0.5), so the two sides are
    independent series evaluations. A second batch at |z| <= 0.9 exercises
    the rewritten route end to end.
    """
    r = rng("euler-id")
    power_checked = 0
    while power_checked < 120:
        a = complex(r.uniform(-2, 2), r.uniform(-0.8, 0.8))
        b = complex(r.uniform(-2, 2), r.uniform(-0.8, 0.8))
        c = complex(r.uniform(0.3, 2.5), r.uniform(-0.8, 0.8))
        if near_nonpositive_integer(c, 0.05):
            continue
        z = cmath.rect(r.uniform(0.05, 0.5), r.uniform(0, 2 * math.pi))
        lhs = hyp2f1(a, b, c, z).value
        rhs = principal_power(1 - z, c - a - b) * hyp2f1(c - a, c - b, c, z).value
        assert rel_err(lhs, rhs) <= IDENTITY_REL_TOL
        power_checked += 1
    plumbing_checked = 0
    while plumbing_checked < 40:
        a = complex(r.uniform(-2, 2), 0)
        b = complex(r.uniform(-2, 2), 0)
        c = complex(r.uniform(0.3, 2.5), 0)
        if near_nonpositive_integer(c, 0.05):
            continue
        z = cmath.rect(r.uniform(0.5, 0.9), r.uniform(0, 2 * math.pi))
        lhs = hyp2f1(a, b, c, z).value
        rhs = principal_power(1 - z, c - a - b) * hyp2f1(c - a, c - b, c, z).value
        assert rel_err(lhs, rhs) <= IDENTITY_REL_TOL
        plumbing_checked += 1


def test_hyp2f1_ode_satisfaction():
    """z(1-z) w'' + [c - (a+b+1) z] w' - a b w = 0."""
    r = rng("2f1-ode")
    for _ in range(40):
        a = complex(r.uniform(-2, 2), r.uniform(-0.5, 0.5))
        b = complex(r.uniform(-2, 2), r.uniform(-0.5, 0.5))
        c = complex(r.uniform(0.4, 2.5), r.uniform(-0.5, 0.5))
        z = cmath.rect(r.uniform(0.05, 0.85), r.uniform(0, 2 * math.pi))
        w = hyp2f1(a, b, c, z)
        wpp = (a * b / c) * hyp2f1(a + 1, b + 1, c + 1, z).derivative
        resid = z * (1 - z) * wpp + (c - (a + b + 1) * z) * w.derivative - a * b * w.value
        scale = max(1.0, abs(z * (1 - z) * wpp),
                    abs((c - (a + b + 1) * z) * w.derivative), abs(a * b * w.value))
        assert abs(resid) / scale <= ODE_RESIDUAL_TOL


# ---------------------------------------------------------------------------
# limit hypergeometric 0F1
# ---------------------------------------------------------------------------

def test_hyp0f1_frozen_values():
    assert_close(hyp0f1(1.5, -2.25).value, 0.047040002686622407)  # sin(3)/3
    assert_close(hyp0f1(0.5, 0.25).value, 1.5430806348152438)     # cosh(1)
    assert_close(hyp0f1(2.2, 1.3).value, 1.7241288332097951)


def test_hyp0f1_ode_satisfaction():
    """z w'' + b w' - w = 0."""
    r = rng("0f1-ode")
    for _ in range(40):
        b = complex(r.uniform(0.3, 2.5), r.uniform(-1, 1))
        z = complex(r.uniform(-4, 4), r.uniform(-3, 3))
        w = hyp0f1(b, z)
        wpp = (1 / b) * hyp0f1(b + 1, z).derivative
        resid = z * wpp + b * w.derivative - w.value
        scale = max(1.0, abs(z * wpp), abs(b * w.derivative), abs(w.value))
        assert abs(resid) / scale <= ODE_RESIDUAL_TOL


def test_hyp0f1_rejects_nonpositive_integer_b():
    with pytest.raises(ParamError):
        hyp0f1(-1.0, 0.5)


# ---------------------------------------------------------------------------
# Whittaker functions
# ---------------------------------------------------------------------------

def test_whittaker_frozen_values():
    assert_close(whittaker("M", 0.3, 0.4, 1.0).value, 0.88256989462626731)
    assert_close(whittaker("W", 0.3, 0.4, 1.0).value, 0.65744318226430142, U_ORACLE_REL_TOL)
    assert_close(whittaker("M", 0.3, 0.4, -1.5).value,
                 -1.9069227711399392 + 0.61959676753840098j)


def test_whittaker_elementary_reduction():
    # at mu = nu + 1/2 the confluent factor is 1: M = z^(nu+1/2) e^(-z/2)
    for nu, z in ((0.3, 1.7), (0.1, 0.8 + 0.6j), (-0.2, 2.4)):
        got = whittaker("M", nu + 0.5, nu, z).value
        want = principal_power(z, nu + 0.5) * cmath.exp(-z / 2)
        assert rel_err(got, want) <= 1e-12


def test_whittaker_kind_and_origin_errors():
    with pytest.raises(ParamError):
        whittaker("Q", 0.3, 0.4, 1.0)
    with pytest.raises(DomainError):
        whittaker("M", 0.3, 0.4, 0.0)


# ---------------------------------------------------------------------------
# error functions
# ---------------------------------------------------------------------------

def test_erf_frozen_values():
    assert erf_like("erf", 0.0).value == 0
    assert_close(erf_like("erf", 1.0).value, 0.84270079294971487)
    assert_close(erf_like("erf", 3.5).value, 0.99999925690162766)
    assert_close(erf_like("erf", 1.1 + 0.7j).value,
                 1.0681631890980543 + 0.16931787908152338j)
    assert_close(erf_like("erfi", 2.5).value, 130.39575501324693)


def test_erf_oddness_and_derivative_values():
    assert_close(erf_like("erf", -1.0).value, -0.84270079294971487)
    fv = erf_like("erf", 0.0)
    assert_close(fv.derivative, 2 / math.sqrt(math.pi))
    assert_close(erf_like("erfi", 0.0).derivative, 2 / math.sqrt(math.pi))


def test_erfi_against_independent_series():
    """erfi(z) = 2/sqrt(pi) sum z^(2k+1) / (k! (2k+1)), summed here directly;
    this pins erfi to its power series rather than to the library's own
    erf-based rewrite (which the next test covers as a consistency check).
    """
    def erfi_series(z: complex) -> complex:
        s, term = 0j, complex(z)
        for k in range(300):
            s += term / (2 * k + 1)
            term *= z * z / (k + 1)
        return 2 / math.sqrt(math.pi) * s

    for z in (0.7, 2.5, -1.8, 1.1 + 0.4j, 0.3 - 1.2j):
        assert rel_err(erf_like("erfi", z).value, erfi_series(z)) <= 1e-13


def test_erfi_erf_rotation_consistency():
    for z in (0.7, 1.3 - 0.2j, -0.4 + 0.9j):
        lhs = erf_like("erfi", z).value
        rhs = -1j * erf_like("erf", 1j * z).value
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_erf_route_seam_continuity():
    # series route inside |z| = 3, continued-fraction route outside
    lo = erf_like("erf", 3.0 - 1e-9).value
    hi = erf_like("erf", 3.0 + 1e-9).value
    assert abs(lo - hi) <= 1e-11


def test_erf_magnitude_cap():
    with pytest.raises(ConvergenceError):
        erf_like("erf", 12.5)
    with pytest.raises(ConvergenceError):
        erf_like("erfi", 9.0 + 9.0j)
    with pytest.raises(ParamError):
        erf_like("erfc", 1.0)


# ---------------------------------------------------------------------------
# incomplete gamma / incomplete beta
# ---------------------------------------------------------------------------

def test_inc_gamma_frozen_values():
    assert_close(inc_gamma_upper(0.5, 1.2).value, 0.21506113174847657)
    assert_close(inc_gamma_upper(1.0, 0.5).value, 0.60653065971263342)  # e^{-1/2}
    assert_close(inc_gamma_upper(0.3, -2.0).value,
                 -1.6175594462127959 - 6.3439210455501065j)
    assert_close(inc_gamma_upper(1.7, -0.8).value,
                 0.50937640078439084 + 0.54953745538479146j)


def test_inc_gamma_at_origin():
    fv = inc_gamma_upper(2.0, 0.0)
    assert_close(fv.value, 1.0)   # Gamma(2) = 1
    assert fv.derivative == 0
    fv = inc_gamma_upper(1.0, 0.0)
    assert_close(fv.value, 1.0)
    assert fv.derivative == -1
    with pytest.raises(DomainError):
        inc_gamma_upper(0.5, 0.0)   # derivative unbounded at the origin
    with pytest.raises(DomainError):
        inc_gamma_upper(-0.5, 0.0)


def test_inc_gamma_nonpositive_integer_order():
    with pytest.raises(ParamError):
        inc_gamma_upper(0.0, 1.0)
    with pytest.raises(ParamError):
        inc_gamma_upper(-2.0, 3.0)
    # far enough right on the real axis the continued fraction applies
    g_m2 = inc_gamma_upper(-2.0, 8.0).value
    g_m1 = inc_gamma_upper(-1.0, 8.0).value
    want = -2.0 * g_m2 + 8.0 ** -2.0 * math.exp(-8.0)
    assert rel_err(g_m1, want, floor=abs(g_m1)) <= 1e-12


def test_inc_gamma_recurrence_random():
    """Gamma(a+1, z) = a Gamma(a, z) + z^a e^(-z)."""
    r = rng("igam-rec")
    for _ in range(30):
        a = complex(r.uniform(0.3, 2.5), r.uniform(-0.5, 0.5))
        z = complex(r.uniform(0.3, 3.0), r.uniform(-1, 1))
        lhs = inc_gamma_upper(a + 1, z).value
        rhs = a * inc_gamma_upper(a, z).value + principal_power(z, a) * cmath.exp(-z)
        assert rel_err(lhs, rhs) <= 1e-12


def test_inc_beta_frozen_values():
    assert_close(inc_beta(0.4, 0.7, 1.3).value, 0.71107787942679761)
    assert_close(inc_beta(0.3, 1.0, 1.0).value, 0.3)    # B_x(1,1) = x
    assert_close(inc_beta(0.5, 2.0, 1.0).value, 0.125)  # B_x(2,1) = x^2/2


def test_inc_beta_domain_errors():
    with pytest.raises(ParamError):
        inc_beta(0.3, 0.0, 1.0)
    with pytest.raises(ParamError):
        inc_beta(0.3, -1.0, 1.0)
    with pytest.raises(BranchError):
        inc_beta(1.0, 0.5, 0.5)
    with pytest.raises(BranchError):
        inc_beta(1.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        inc_beta(0.8 + 0.7j, 0.5, 0.5)


def test_inc_beta_contiguous_relation_random():
    """B_x(a+1, b) = (a B_x(a, b) - x^a (1-x)^b) / (a + b)."""
    r = rng("ibeta-rec")
    checked = 0
    while checked < 30:
        a, b = r.uniform(0.4, 2.0), r.uniform(0.4, 2.0)
        x = complex(r.uniform(-0.7, 0.7), r.uniform(-0.5, 0.5))
        if abs(x) < 0.1 or abs(x) > 0.85:
            continue
        lhs = inc_beta(x, a + 1, b).value
        rhs = (a * inc_beta(x, a, b).value
               - principal_power(x, a) * principal_power(1 - x, b)) / (a + b)
        assert rel_err(lhs, rhs) <= 1e-12
        checked += 1


# ---------------------------------------------------------------------------
# derivatives against finite differences (every public function)
# ---------------------------------------------------------------------------

def _fd_check(fn, points):
    for x in points:
        fv = fn(x)
        fd = fd_derivative(lambda t: fn(t).value, x)
        assert rel_err(fd, fv.derivative) <= FD_REL_TOL, f"at {x!r}"


def test_derivatives_match_finite_differences():
    r = rng("fd-sweep")

    def box(n, re_lo, re_hi, im_lo, im_hi):
        return [complex(r.uniform(re_lo, re_hi), r.uniform(im_lo, im_hi))
                for _ in range(n)]

    _fd_check(lambda z: hyp1f1(0.35, 1.2, z), box(25, -1.5, 2.5, -1, 1))
    _fd_check(lambda z: hyp1f1(-0.8, 0.7, z), box(25, -1.5, 2.5, -1, 1))
    _fd_check(lambda z: kummer_u(0.4, 0.5, z), box(25, 0.5, 3, -1, 1))
    _fd_check(lambda z: hyp2f1(0.3, 0.8, 1.4, z),
              [cmath.rect(r.uniform(0.05, 0.8), r.uniform(0, 2 * math.pi))
               for _ in range(25)])
    _fd_check(lambda z: hyp0f1(1.3, z), box(25, -3, 3, -2, 2))
    _fd_check(lambda z: whittaker("M", 0.3, 0.4, z), box(25, 0.5, 3, -1, 1))
    _fd_check(lambda z: whittaker("W", 0.3, 0.4, z), box(25, 0.5, 3, -1, 1))
    _fd_check(lambda z: erf_like("erf", z), box(25, -2, 2, -1, 1))
    _fd_check(lambda z: erf_like("erfi", z), box(25, -2, 2, -1, 1))
    _fd_check(lambda z: inc_gamma_upper(1.3, z), box(25, 0.5, 3, -0.5, 0.5))
    _fd_check(lambda x: inc_beta(x, 1.4, 0.8),
              [cmath.rect(r.uniform(0.15, 0.7), r.uniform(0, 2 * math.pi))
               for _ in range(25)])


# ---------------------------------------------------------------------------
# term-cap environment knob
# ---------------------------------------------------------------------------

def test_max_terms_default(monkeypatch):
    monkeypatch.delenv(ENV_MAX_TERMS, raising=False)
    assert max_terms() == MAX_TERMS_DEFAULT


def test_max_terms_env_override(monkeypatch):
    monkeypatch.setenv(ENV_MAX_TERMS, "123")
    assert max_terms() == 123


def test_max_terms_cap_forces_convergence_error(monkeypatch):
    monkeypatch.setenv(ENV_MAX_TERMS, "40")
    with pytest.raises(ConvergenceError):
        hyp1f1(0.5, 1.5, 35.0)
    monkeypatch.delenv(ENV_MAX_TERMS)
    assert rel_err(hyp1f1(0.5, 1.5, 35.0).value,
                   hyp1f1(0.5, 1.5, 35.0).value) == 0  # default cap suffices
    for what, fn, args in (
            ("2F1 series", hyp2f1, (0.5, 1.5, 2.5, 0.9)),
            ("0F1 series", hyp0f1, (1.5, 50.0)),
            ("erf series", erf_like, ("erf", 2.0)),
            ("erfc continued fraction", erf_like, ("erf", 5.0)),
            ("incomplete-gamma series", inc_gamma_upper, (0.5, 3.0)),
            ("incomplete-gamma continued fraction", inc_gamma_upper,
             (0.5, 10.0))):
        monkeypatch.setenv(ENV_MAX_TERMS, "10")
        with pytest.raises(ConvergenceError, match=what):
            fn(*args)
        monkeypatch.delenv(ENV_MAX_TERMS)
        fn(*args)  # default cap suffices


def test_max_terms_cap_applies_after_uncapped_calls(monkeypatch):
    # the double path remembers recent 1F1 sums; a sum found under the
    # default cap must not stand in for one the lower cap refuses
    monkeypatch.delenv(ENV_MAX_TERMS, raising=False)
    hyp1f1(0.5, 1.5, 35.0).derivative
    kummer_u(0.5, 0.3, 35.0).derivative
    monkeypatch.setenv(ENV_MAX_TERMS, "40")
    with pytest.raises(ConvergenceError, match="1F1 series"):
        hyp1f1(0.5, 1.5, 35.0)
    with pytest.raises(ConvergenceError, match="1F1 series"):
        kummer_u(0.5, 0.3, 35.0)

    # a derivative is summed at its first read, under the cap of its call:
    # `late` was called under the default cap and is read under a cap of
    # 34; `early` the other way round, and M(0.5; 1.5; 5) sums in 34 terms
    # where its derivative, M(1.5; 2.5; 5) / 3, takes 35
    monkeypatch.delenv(ENV_MAX_TERMS)
    late = [hyp1f1(0.5, 1.5, 30.0), kummer_u(0.5, 0.3, 30.0)]
    monkeypatch.setenv(ENV_MAX_TERMS, "34")
    for fv in late:
        assert cmath.isfinite(fv.derivative)
    early = hyp1f1(0.5, 1.5, 5.0)
    monkeypatch.delenv(ENV_MAX_TERMS)
    with pytest.raises(ConvergenceError, match="1F1 series"):
        early.derivative


def test_max_terms_rejects_garbage(monkeypatch):
    for bad in ("abc", "0", "-5", ""):
        monkeypatch.setenv(ENV_MAX_TERMS, bad)
        with pytest.raises(ParamError):
            hyp1f1(0.5, 1.5, 1.0)


# ---------------------------------------------------------------------------
# extended-precision rerun (double-path cancellation above CANCEL_LIMIT)
# ---------------------------------------------------------------------------

#: Independent oracle: mpmath at 40 digits, in a context of its own.
_MP40 = mpmath.MPContext()
_MP40.dps = 40

#: (public function, kernel, arguments, mpmath oracle, tolerance); each
#: kernel's double-path cancellation estimate exceeds CANCEL_LIMIT.
RERUN_CASES = [
    (kummer_u, specialfns._k_kummer_u, (0.7, 0.3, 8.0), _MP40.hyperu,
     U_ORACLE_REL_TOL),
    (kummer_u, specialfns._k_kummer_u, (0.5 + 0.5j, 1.25, 6.0 + 2.0j),
     _MP40.hyperu, U_ORACLE_REL_TOL),
    (hyp2f1, specialfns._k_2f1, (-3.2, 1.1, -6.2, 0.75), _MP40.hyp2f1,
     ORACLE_REL_TOL),
    (inc_gamma_upper, specialfns._k_igam_upper, (0.3, -10.0), _MP40.gammainc,
     ORACLE_REL_TOL),
    (inc_gamma_upper, specialfns._k_igam_upper, (0.5 + 0.5j, -8.0),
     _MP40.gammainc, ORACLE_REL_TOL),
    (inc_beta, specialfns._k_inc_beta, (0.8, -8.5, 5.0),
     lambda x, a, b: _MP40.betainc(a, b, 0, x), ORACLE_REL_TOL),
]


#: The second double-precision routes, tried before the mpmath rerun.
SECOND_ROUTES = ("_k2_kummer_u", "_k2_2f1", "_k2_igam_upper", "_k2_inc_beta")


def test_second_routes_names_every_second_route():
    # no_second_routes forces the rerun only if it stubs every _k2_* route,
    # and each of them declines on a typed refusal (_declines)
    names = {n for n in vars(specialfns) if n.startswith("_k2_")}
    assert names == set(SECOND_ROUTES)
    for name in SECOND_ROUTES:
        assert hasattr(getattr(specialfns, name), "__wrapped__")


@pytest.fixture
def no_second_routes(monkeypatch):
    """Every second route declines, so that a cancelling kernel reruns."""
    for name in SECOND_ROUTES:
        monkeypatch.setattr(specialfns, name,
                            lambda cap, *args: specialfns._DECLINE)


@pytest.fixture
def reruns(monkeypatch):
    """The working precision of every rerun pass, in order."""
    asked = []
    mp_ctx = specialfns._mp_ctx

    def spy(*args):
        m = mp_ctx(*args)
        asked.append(m.dps)
        return m
    monkeypatch.setattr(specialfns, "_mp_ctx", spy)
    return asked


@pytest.mark.parametrize("fn, kernel, args, oracle, tol", RERUN_CASES,
                         ids=[f"{c[0].__name__}{c[2]}" for c in RERUN_CASES])
def test_rerun_matches_oracle(fn, kernel, args, oracle, tol, no_second_routes,
                              reruns):
    _, cancel = kernel(specialfns.MAX_TERMS_DEFAULT, *args)
    assert cancel > CANCEL_LIMIT  # the double path hands over to mpmath
    assert_close(fn(*args).value, complex(oracle(*args)), tol)
    assert len(reruns) == 1


#: Former rerun inputs that a second double-precision route now answers,
#: one or two per route, as (function, kernel, arguments, mpmath oracle).
SECOND_ROUTE_CASES = [
    (kummer_u, specialfns._k_kummer_u, (0.7, 0.3, 8.0),
     _MP40.hyperu),  # Laplace integral at a itself
    (kummer_u, specialfns._k_kummer_u,
     (-0.25972384565175366, 0.5, 12.87174634748123),
     _MP40.hyperu),  # at a + 2 and a + 3, then two recurrence steps
    (kummer_u, specialfns._k_kummer_u,
     (3.8250058940562157 + 1.7450173638148656j,
      -2.412477720916686 - 0.0820583540728057j,
      32.81391793872474 + 9.36216503301399j), _MP40.hyperu),
    (hyp2f1, specialfns._k_2f1, (-3.2, 1.1, -6.2, 0.75),
     _MP40.hyp2f1),  # 1 - z connection formula
    (inc_gamma_upper, specialfns._k_igam_upper, (0.3, -10.0),
     _MP40.gammainc),  # 1F1(a; a+1; -z)
    (inc_gamma_upper, specialfns._k_igam_upper,
     (-8.454538473009723, 5.262642006812971),
     _MP40.gammainc),  # Legendre's continued fraction at |z| < 6
    (inc_beta, specialfns._k_inc_beta,
     (0.8, -7.829358748438622, 4.945809225423889),
     lambda x, a, b: _MP40.betainc(a, b, 0, x)),  # through 2F1
]


@pytest.mark.parametrize("fn, kernel, args, oracle", SECOND_ROUTE_CASES,
                         ids=[f"{c[0].__name__}{c[2]}" for c in SECOND_ROUTE_CASES])
def test_second_route_answers_former_reruns(fn, kernel, args, oracle, reruns):
    _, cancel = kernel(specialfns.MAX_TERMS_DEFAULT, *map(complex, args))
    assert cancel > CANCEL_LIMIT  # the kernel hands the value over
    fv = fn(*args)
    assert reruns == []
    tol = U_ORACLE_REL_TOL if fn is kummer_u else ORACLE_REL_TOL
    assert_close(fv.value, complex(oracle(*args)), tol)


def test_declining_second_route_ends_in_the_rerun(reruns):
    # the Laplace rule's halving estimate is too large here, and the 2F1
    # connection formula has no value at c - a - b = b = 5
    a, b, z = (1.6816698478752297 + 2.7724866352083546j,
               1 + 5.544973270416709j, 10.831244978761237)
    cap = specialfns.MAX_TERMS_DEFAULT
    assert specialfns._k_kummer_u(cap, a, b, z)[1] > CANCEL_LIMIT
    assert specialfns._k2_kummer_u(cap, a, b, z)[1] > CANCEL_LIMIT
    assert_close(kummer_u(a, b, z).value, complex(_MP40.hyperu(a, b, z)),
                 U_ORACLE_REL_TOL)
    assert reruns
    reruns.clear()
    assert specialfns._k2_inc_beta(cap, 0.8 + 0j, -8.5 + 0j, 5.0 + 0j)[1] \
        == math.inf
    assert_close(inc_beta(0.8, -8.5, 5.0).value,
                 complex(_MP40.betainc(-8.5, 5.0, 0, 0.8)))
    assert reruns


#: Calls within CONNECT_FIRST of z = 1, as (function, arguments,
#: HEUN_AIR_MAX_TERMS or None, the value it returns, the error it raises,
#: or the name of the connection route whose value it returns).
NEAR_ONE_CASES = [
    # the connection route runs first, and answers
    (hyp2f1, (0.3, 0.7, 1.1, 0.95), None, "_k2_2f1"),
    (inc_beta, (0.95, 0.7, 1.6), None, "_k2_inc_beta"),
    # the route's gamma factors overflow: it declines to the kernel, which
    # sums the series
    (hyp2f1, (0.5, 200.3, 1.2, 0.95), None, 6.392702324883864e+257),
    (hyp2f1, (150.5, 30.3, 1.2, 0.95), None, 1.5051385958000413e+266),
    (hyp2f1, (2.5, 3.1, 190.7, 0.95), None, 1.0400345350221873),
    # c - a - b = -2 is an integer, where the route declines
    (hyp2f1, (-1, 4, 1, 0.95), None, -2.8),
    # ... and where the kernel's term cap is raised to the caller
    (hyp2f1, (0.5, 1.5, 3.0, 0.95), "10", ConvergenceError),
]


@pytest.mark.parametrize("fn, args, cap, want", NEAR_ONE_CASES,
                         ids=["route-2F1", "route-B_x", "overflow-b",
                              "overflow-a", "overflow-c", "integer-s",
                              "kernel-cap"])
def test_connection_route_order_near_one(monkeypatch, fn, args, cap, want):
    if cap is not None:
        monkeypatch.setenv(ENV_MAX_TERMS, cap)
    if isinstance(want, type):
        with pytest.raises(want):
            fn(*args)
        return
    if isinstance(want, str):
        route = getattr(specialfns, want)
        kernel = getattr(specialfns, want.replace("_k2_", "_k_"))
        cx = tuple(map(complex, args))
        want, est = route(MAX_TERMS_DEFAULT, *cx)
        assert est <= CANCEL_LIMIT
        # the kernel answers too, in other last bits
        kernel_value, cancel = kernel(MAX_TERMS_DEFAULT, *cx)
        assert cancel <= CANCEL_LIMIT and kernel_value != want
    assert fn(*args).value == want


def test_connection_route_first_for_the_2f1_derivative():
    a, b, c, z = 0.3 + 0j, 0.7 + 0j, 1.1 + 0j, 0.95 + 0j
    g, _ = specialfns._k2_2f1(MAX_TERMS_DEFAULT, a + 1, b + 1, c + 1, z)
    assert hyp2f1(a, b, c, z).derivative == (a * b / c) * g


def test_rerun_kummer_u_derivative_matches_oracle(no_second_routes):
    a, b, z = 0.7, 0.3, 8.0
    _, cancel = specialfns._k_kummer_u(specialfns.MAX_TERMS_DEFAULT, a + 1, b + 1, z)
    assert cancel > CANCEL_LIMIT
    assert_close(kummer_u(a, b, z).derivative,
                 complex(-a * _MP40.hyperu(a + 1, b + 1, z)), U_ORACLE_REL_TOL)


def test_rerun_is_one_pass_at_fixed_precision(no_second_routes, reruns):
    # the kernel's estimates here are about 1e15; mpmath's hyperu raises
    # its own precision, so each rerun is one call at the fixed precision
    a = 3.8250058940562157 + 1.7450173638148656j
    b = -2.412477720916686 - 0.0820583540728057j
    z = 32.81391793872474 + 9.36216503301399j
    fv = kummer_u(a, b, z)
    assert reruns == [specialfns._RERUN_DPS]
    # the derivative's rerun runs at its first read
    derivative = fv.derivative
    assert reruns == [specialfns._RERUN_DPS] * 2
    assert_close(fv.value, complex(_MP40.hyperu(a, b, z)), U_ORACLE_REL_TOL)
    assert_close(derivative, complex(-a * _MP40.hyperu(a + 1, b + 1, z)),
                 U_ORACLE_REL_TOL)


def test_rerun_leaves_global_mpmath_precision_alone_under_threads(
        no_second_routes):
    calls = [(fn, args) for fn, _, args, _, _ in RERUN_CASES] * 4
    want = [fn(*args).value for fn, args in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads' reruns
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda c: c[0](*c[1]).value, calls, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert mpmath.mp.dps == 15
    assert got == want


def test_rerun_no_convergence_is_typed(monkeypatch, no_second_routes):
    def refuse(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("refused")
    ctx = specialfns._mp_ctx()  # this thread's rerun context
    monkeypatch.setattr(ctx, "hyperu", refuse)
    with pytest.raises(ConvergenceError):
        kummer_u(0.7, 0.3, 8.0)


# ---------------------------------------------------------------------------
# overflow: a finite value or a typed error, never inf, NaN or OverflowError
# ---------------------------------------------------------------------------

def test_overflow_pinned_inputs():
    # U is about 2.5e406: the rerun's value converts to inf
    with pytest.raises(NonFiniteError):
        kummer_u(-1.8187179721106017, 140.1099558146792, 0.06014357485415209)
    # 2F1 is about -3.2e439: the kernel overflows, then the rerun's value
    with pytest.raises(NonFiniteError):
        hyp2f1(-0.2753311340423412, 2.1546568948717493, -247.38082640294934,
               0.9827404217965048)
    # B_x = -3.082e305 fits in a double, its derivative x^(a-1) ~ 3e310 not:
    # the value stays readable and the derivative's read is refused
    fv = inc_beta(0.001, -102.5, 2.0)
    assert rel_err(fv.value, complex(_MP40.betainc(-102.5, 2.0, 0, 0.001))) <= 1e-12
    with pytest.raises(NonFiniteError):
        fv.derivative
    # |gamma| ~ 5e-363 and |1/gamma| ~ 2e384 lie outside the doubles, and
    # the reflection's product sin(pi z) gamma(1 - z) overflows
    with pytest.raises(NonFiniteError):
        gamma(-117.02251304264408 - 150.17891846101762j)
    with pytest.raises(NonFiniteError):
        rgamma(-102.83289138936061 + 209.7571317576713j)


def test_kernel_refusals_propagate():
    # a kernel declines only where it overflows: its typed refusals reach
    # the caller, not the rerun. B_0(a, b) = 0^a/a 2F1 diverges for Re a <= 0
    # (mpmath's betainc(a, b, 0, 0) would return 0), and Gamma(148.2) in U's
    # connection formula overflows where U itself is below the doubles
    with pytest.raises(DomainError):
        inc_beta(0, -0.5, 1.0)
    with pytest.raises(NonFiniteError):
        kummer_u(151.53014018825894, -147.17574740558703, 194.9055963690835)


def test_rerun_underflow_is_refused(monkeypatch, no_second_routes):
    ctx = specialfns._mp_ctx()  # this thread's rerun context
    monkeypatch.setattr(ctx, "hyperu", lambda *args, **kwargs: ctx.mpf("1e-400"))
    with pytest.raises(NonFiniteError):
        kummer_u(0.7, 0.3, 8.0)
    monkeypatch.setattr(ctx, "hyperu", lambda *args, **kwargs: ctx.mpf(0))
    assert kummer_u(0.7, 0.3, 8.0).value == 0  # an exact zero is a value


def _as_fn(f):
    """A complex-valued function as an FnValue-valued one."""
    return lambda *args: specialfns.FnValue(f(*args), 0j)


# (name, function, draw(u, lu)): u is uniform, lu log-uniform on [lo, hi]
_OVERFLOW_REGIONS = [
    ("kummer_u-large-b", kummer_u,
     lambda u, lu: (u(-4, 4), u(50.5, 300.5), lu(1e-4, 0.1))),
    ("kummer_u-wide", kummer_u,
     lambda u, lu: (u(-20, 20), u(-59.5, 60.5), lu(1e-4, 700))),
    ("hyp2f1-negative-c", hyp2f1,
     lambda u, lu: (u(-4, 4), u(-4, 4), u(-299.5, -19.5), u(0.6, 0.99))),
    ("inc_gamma_upper-negative-a", inc_gamma_upper,
     lambda u, lu: (u(-299.5, -19.5), lu(1e-4, 0.5))),
    ("inc_gamma_upper-left-plane", inc_gamma_upper,
     lambda u, lu: (u(19.5, 299.5), complex(-lu(1e-4, 700), u(-1, 1)))),
    ("inc_beta-negative-a", inc_beta,
     lambda u, lu: (lu(1e-6, 0.5), u(-299.5, -19.5), u(-4, 4))),
    ("hyp1f1-wide", hyp1f1,
     lambda u, lu: (u(-300, 300), u(-299.5, 300.5),
                    complex(u(-700, 700), u(-50, 50)))),
    ("hyp0f1-wide", hyp0f1,
     lambda u, lu: (u(-299.5, 300.5), complex(u(-3000, 3000), u(-100, 100)))),
    ("whittaker-M", lambda *a: whittaker("M", *a),
     lambda u, lu: (u(-50, 50), u(-50, 50), lu(1e-4, 700))),
    ("whittaker-W-large-nu", lambda *a: whittaker("W", *a),
     lambda u, lu: (u(-50, 50), u(25.3, 150.3), lu(1e-4, 0.1))),
    ("erf", lambda z: erf_like("erf", z),
     lambda u, lu: (complex(u(-12, 12), u(-12, 12)),)),
    ("erfi", lambda z: erf_like("erfi", z),
     lambda u, lu: (complex(u(-12, 12), u(-12, 12)),)),
    ("gamma", _as_fn(gamma),
     lambda u, lu: (complex(u(-300, 300), u(-300, 300)),)),
    ("rgamma", _as_fn(rgamma),
     lambda u, lu: (complex(u(-300, 300), u(-300, 300)),)),
]


@pytest.mark.parametrize("fn, draw", [r[1:] for r in _OVERFLOW_REGIONS],
                         ids=[r[0] for r in _OVERFLOW_REGIONS])
def test_overflow_prone_regions_are_finite_or_typed(request, fn, draw):
    r = rng(f"overflow:{request.node.callspec.id}")

    def lu(lo, hi):
        return math.exp(r.uniform(math.log(lo), math.log(hi)))
    for _ in range(200):
        args = draw(r.uniform, lu)
        try:
            fv = fn(*args)
        except HeunAirError:
            continue
        for read in ("value", "derivative"):
            try:
                v = getattr(fv, read)
            except HeunAirError:
                continue
            assert cmath.isfinite(v), (args, read, v)
