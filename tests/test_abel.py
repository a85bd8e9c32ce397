"""Transformation pipeline: the AIR-to-linear composite against
independently expanded coefficient formulas, the non-local involution, the
companion first-derivative equation, and quadrature-free reconstruction.
"""
from __future__ import annotations

import cmath

import numpy as np
import pytest

from conftest import draw_family, fd_derivative, rng
from heun_air import (
    AIRParams,
    BHEFamily,
    DegenerateError,
    LinearODE,
    ParamError,
    PoleError,
    Poly,
    RatFun,
    ZeroCoefficientError,
    air_to_linear,
    companion_p_ode,
    family_to_normal,
    hyp1f1,
    kummer_u,
    make_basis,
    mobius_nonlocal,
    poly_x,
    rat_equal,
    rat_eval,
    reconstruct_y,
    to_normal_form,
)
from heun_air.abel import KIND_DISTINCT, KIND_THREE_EQUAL, KIND_TWO_EQUAL
from heun_air.numkernel import POLY_ONE, POLY_X, RAT_ONE, RAT_ZERO
from heun_air.solutions import _pfq_seed_ode


def _rand_ode(r, max_deg: int = 2, nonzero_c0: bool = True) -> LinearODE:
    def rand_poly(deg):
        return Poly([complex(r.uniform(-2, 2), r.uniform(-2, 2))
                     for _ in range(deg + 1)])
    c1 = RatFun(rand_poly(r.randint(0, max_deg)), rand_poly(r.randint(0, max_deg)))
    while True:
        num = rand_poly(r.randint(0, max_deg))
        if not nonzero_c0 or not num.is_zero():
            return LinearODE(c1, RatFun(num, rand_poly(r.randint(0, max_deg))))


# ---------------------------------------------------------------------------
# AIRParams validation
# ---------------------------------------------------------------------------

def test_air_params_validation():
    with pytest.raises(ParamError):
        AIRParams(0, 0, 1, 0, 0, 0, kind="SomeRoots")
    with pytest.raises(ParamError):
        AIRParams(1, 1, 0, 1, 1, 0, kind=KIND_THREE_EQUAL)  # s2 = r2 = 0
    with pytest.raises(ParamError):
        AIRParams(0, 0, 1, 0, 0, -2, kind=KIND_DISTINCT, rho1=0.0, rho2=1.0)
    p = AIRParams(0, 0, 1, 0, 0, -2, kind=KIND_DISTINCT,
                  rho1=0.0, rho2=1.0, rho3=2.0)
    assert p.rho == (0j, 1 + 0j, 2 + 0j)


def test_air_to_linear_coincident_roots_rejected():
    with pytest.raises(ParamError):
        air_to_linear(AIRParams(0, 0, 1, 0, 0, -2, kind=KIND_DISTINCT,
                                rho1=0.0, rho2=0.0, rho3=2.0))


def test_air_to_linear_degenerate_s2():
    for kind in (KIND_THREE_EQUAL, KIND_TWO_EQUAL, KIND_DISTINCT):
        with pytest.raises(DegenerateError):
            air_to_linear(AIRParams(0.5, 0.5, 0, 0.5, 0.5, 1.0, kind=kind))


# ---------------------------------------------------------------------------
# AIR -> linear: worked coefficient checks
# ---------------------------------------------------------------------------

def test_three_equal_roots_normal_form_closed_formula():
    """With s2 = 1, r2 = 0 and s0 = s1^2/4 - 1, gauging the emitted equation
    gives q = x^2 + (s1 r1/2 - r0) x + r1^2/4 + (r1/2)/x + 3/(4 x^2)."""
    r = rng("air-3eq")
    for _ in range(8):
        s1 = complex(r.uniform(-2, 2), r.uniform(-0.5, 0.5))
        r0 = complex(r.uniform(-2, 2), r.uniform(-0.5, 0.5))
        r1 = complex(r.uniform(-2, 2), r.uniform(-0.5, 0.5))
        ode = air_to_linear(AIRParams(s1 * s1 / 4 - 1, s1, 1.0, r0, r1, 0.0,
                                      kind=KIND_THREE_EQUAL))
        q, _ = to_normal_form(ode)
        want = (RatFun(poly_x(r1 * r1 / 4, s1 * r1 / 2 - r0, 0, 0), POLY_ONE)
                + RatFun(poly_x(0, 0, 1), POLY_ONE)
                + RatFun(Poly((r1 / 2,)), POLY_X)
                + RatFun(Poly((0.75,)), poly_x(0, 0, 1)))
        assert rat_equal(q, want)


def test_three_equal_roots_reaches_two_parameter_family():
    """Specializing r0 = -2 sigma + s1 tau, r1 = 2 tau lands exactly on the
    two-parameter family normal form, for any s1."""
    r = rng("air-bhe")
    for _ in range(8):
        sigma = complex(r.uniform(-1.5, 1.5), 0)
        tau = complex(r.uniform(-1.5, 1.5), 0)
        s1 = complex(r.uniform(-2, 2), r.uniform(-1, 1))
        ode = air_to_linear(AIRParams(s1 * s1 / 4 - 1, s1, 1.0,
                                      -2 * sigma + s1 * tau, 2 * tau, 0.0,
                                      kind=KIND_THREE_EQUAL))
        q, _ = to_normal_form(ode)
        assert rat_equal(q, family_to_normal(BHEFamily(sigma, tau)).c0)


def _printed_residue(p1, p2, p3, s1, r1):
    """The printed middle-root residue of the root-parametrized form; the
    other two residues follow by relabeling the roots (the denominator's
    antisymmetry supplies the sign flip the construction calls for)."""
    return (p2 * p2 - (s1 + p3 + p1) * p2 + p3 * p1 - r1) / ((p1 - p2) * (p2 - p3))


def test_root_parametrized_form_matches_printed_coefficients():
    """The root-parametrized output (s2 = 1, r2 = -a) must equal
    c1 = 1/(x-a) + sum_i R_i/(x - rho_i), c0 = (s0 x + r0)(a - x)/prod^2,
    with the residues R_i given by the printed formula and its relabelings;
    the residues always sum to -3."""
    cases = [
        ((0.0, 1.0, 2.0), 3.0, 0.0, 0.0, 0.0, 0.0),
        ((0.0, 1.0, 2.0), 3.0, 0.7, -0.4, 0.3, 1.1),
        ((-0.5, 0.8, 2.2), 2.6, -1.1, 0.5, -0.2, 0.9),
    ]
    for rho, a, s1, r1, s0, r0 in cases:
        p1, p2, p3 = rho
        R2 = _printed_residue(p1, p2, p3, s1, r1)
        R1 = _printed_residue(p2, p1, p3, s1, r1)
        R3 = _printed_residue(p1, p3, p2, s1, r1)
        assert abs(R1 + R2 + R3 - (-3.0)) <= 1e-12

        ode = air_to_linear(AIRParams(s0, s1, 1.0, r0, r1, -a, kind=KIND_DISTINCT,
                                      rho1=p1, rho2=p2, rho3=p3))
        want_c1 = (RatFun(POLY_ONE, poly_x(-a, 1))
                   + RatFun(Poly((R1,)), poly_x(-p1, 1))
                   + RatFun(Poly((R2,)), poly_x(-p2, 1))
                   + RatFun(Poly((R3,)), poly_x(-p3, 1)))
        prod = poly_x(-p1, 1) * poly_x(-p2, 1) * poly_x(-p3, 1)
        want_c0 = RatFun(poly_x(r0, s0) * poly_x(a, -1), prod * prod)
        assert rat_equal(ode.c1, want_c1)
        if s0 == 0 and r0 == 0:
            assert ode.c0.is_zero()
        else:
            assert rat_equal(ode.c0, want_c0)


def test_distinct_roots_singularity_placement():
    """kind = DistinctRoots with (s2, r2) = (1, -a): the union of coefficient
    denominator roots is exactly {0, 1, a}."""
    a = 2.5
    ode = air_to_linear(AIRParams(0.3, 0.7, 1.0, -0.2, 0.4, -a, kind=KIND_DISTINCT))
    roots = set()
    for den in (ode.c1.den, ode.c0.den):
        for z in np.roots(list(reversed(den.coeffs))):
            roots.add(complex(np.round(z.real, 6) + 1j * np.round(z.imag, 6)))
    want = {0.0, 1.0, a}
    assert all(any(abs(z - w) <= 1e-9 for w in want) for z in roots)
    for w in want:
        assert any(abs(z - w) <= 1e-9 for z in roots)


# ---------------------------------------------------------------------------
# non-local transform
# ---------------------------------------------------------------------------

def test_mobius_fixed_point_and_rejection():
    out = mobius_nonlocal(LinearODE(RAT_ZERO, RAT_ONE))
    assert out.c1.is_zero()
    assert rat_equal(out.c0, RAT_ONE)
    with pytest.raises(ZeroCoefficientError):
        mobius_nonlocal(LinearODE(RatFun(POLY_X, POLY_ONE), RAT_ZERO))


def test_mobius_is_involution():
    r = rng("mobius-inv")
    for _ in range(100):
        ode = _rand_ode(r, max_deg=2)
        back = mobius_nonlocal(mobius_nonlocal(ode))
        assert rat_equal(back.c1, ode.c1)
        assert rat_equal(back.c0, ode.c0)


def test_mobius_on_confluent_seed_equation():
    """y'' = 2(x - tau) y' + 2(tau + sigma) x y maps to the equation with
    c1 = 2(tau - x) + 1/x and the same c0."""
    for sigma, tau in ((0.4, 0.9), (-0.7, 0.3)):
        seed = LinearODE(RatFun(poly_x(-2 * tau, 2), POLY_ONE),
                         RatFun(poly_x(0, 2 * (tau + sigma)), POLY_ONE))
        out = mobius_nonlocal(seed)
        assert rat_equal(out.c1, RatFun(poly_x(1, 2 * tau, -2), POLY_X))
        assert rat_equal(out.c0, seed.c0)


# ---------------------------------------------------------------------------
# companion p = y' equation
# ---------------------------------------------------------------------------

def test_companion_fixed_point():
    out = companion_p_ode(LinearODE(RAT_ZERO, RAT_ONE))
    assert out.c1.is_zero()
    assert rat_equal(out.c0, RAT_ONE)


def test_companion_zero_c0_footnote_form():
    ode = LinearODE(RatFun(POLY_X, POLY_ONE), RAT_ZERO)
    out = companion_p_ode(ode)  # p'' = x p' + p
    assert rat_equal(out.c1, RatFun(POLY_X, POLY_ONE))
    assert rat_equal(out.c0, RAT_ONE)


def test_companion_of_heun_type_equation():
    """Companion of c1 = 2(tau - x) + 1/x, c0 = 2(tau + sigma) x:
    c1_p = 2(1 + tau x - x^2)/x, c0_p = -2(1 + tau x - (tau+sigma) x^3)/x^2."""
    for sigma, tau in ((0.4, 0.9), (-0.7, 0.3), (1.0, 1.0)):
        ode = LinearODE(RatFun(poly_x(1, 2 * tau, -2), POLY_X),
                        RatFun(poly_x(0, 2 * (tau + sigma)), POLY_ONE))
        out = companion_p_ode(ode)
        assert rat_equal(out.c1, RatFun(poly_x(2, 2 * tau, -2), POLY_X))
        assert rat_equal(out.c0, RatFun(poly_x(-2, -2 * tau, 0, 2 * (tau + sigma)),
                                        poly_x(0, 0, 1)))


def test_companion_members_satisfy_companion_equation():
    """If y'' = c1 y' + c0 y then p = y' obeys p'' = (y'')' = c1' y' + c1 y''
    + c0' y + c0 y'; the companion coefficients must reproduce that for every
    (y, y') seed — a pointwise identity check at random points."""
    from heun_air import rat_derivative

    r = rng("companion-fd")
    for _ in range(10):
        ode = _rand_ode(r, max_deg=1)
        comp = companion_p_ode(ode)
        x = complex(r.uniform(2.0, 3.0), r.uniform(1.0, 2.0))  # away from poles
        try:
            c1x, c0x = rat_eval(ode.c1, x), rat_eval(ode.c0, x)
            c1d = rat_eval(rat_derivative(ode.c1), x)
            c0d = rat_eval(rat_derivative(ode.c0), x)
            c1pv, c0pv = rat_eval(comp.c1, x), rat_eval(comp.c0, x)
        except PoleError:
            continue
        for y, yp in ((1.0, 0.0), (0.0, 1.0), (0.8, -0.6)):
            ypp = c1x * yp + c0x * y
            ppp = c1d * yp + c1x * ypp + c0d * y + c0x * yp
            assert abs(ppp - (c1pv * ypp + c0pv * yp)) <= 1e-9 * max(1.0, abs(ppp))


def test_normal_form_coincidence():
    """to_normal_form(companion_p_ode(mobius_nonlocal(ode))) has the same q
    as to_normal_form(ode) — the identity the whole pipeline rests on."""
    r = rng("nf-coincide")
    for _ in range(100):
        ode = _rand_ode(r, max_deg=1)
        q_direct, _ = to_normal_form(ode)
        q_pipeline, _ = to_normal_form(companion_p_ode(mobius_nonlocal(ode)))
        assert rat_equal(q_direct, q_pipeline)


@pytest.mark.parametrize("kind", ["BHE", "CHE", "GHE"])
def test_family_seed_normal_form_coincidence(kind):
    """The link between N and N - 1 singularities: the companion p-equation
    of the non-local image of a family's hypergeometric seed equation has
    the seed's normal form, on seeded general-branch draws."""
    r = rng(f"seed-coincide-{kind}")
    for _ in range(50):
        seed = _pfq_seed_ode(draw_family(kind, r))
        q_seed, _ = to_normal_form(seed)
        q_pipeline, _ = to_normal_form(companion_p_ode(mobius_nonlocal(seed)))
        assert rat_equal(q_seed, q_pipeline)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def _exp_member(sign: float):
    def member(x):
        v = cmath.exp(sign * x)
        return v, sign * v
    return member


def test_reconstruct_exponential_basis():
    ode = LinearODE(RAT_ZERO, RAT_ONE)  # y'' = y
    p_basis = make_basis(_exp_member(1.0), _exp_member(-1.0), "Liouvillian",
                         None, "all x", "exp_pair", {}, 0.3)
    y_basis = reconstruct_y(p_basis, ode)
    for x in (0.0, 0.7, -1.2, 0.4 + 0.3j):
        v1, d1 = y_basis.y1(x)
        v2, d2 = y_basis.y2(x)
        assert abs(v1 - cmath.exp(x)) <= 1e-12 * max(1.0, abs(v1))
        assert abs(v2 - (-cmath.exp(-x))) <= 1e-12 * max(1.0, abs(v2))
        # derivative of the reconstruction is the companion member itself
        assert abs(d1 - cmath.exp(x)) <= 1e-12 * max(1.0, abs(d1))
        assert abs(d2 - cmath.exp(-x)) <= 1e-12 * max(1.0, abs(d2))
    assert y_basis.formula == "reconstruct(exp_pair)"


def test_reconstruct_pole_at_c0_zero():
    ode = LinearODE(RAT_ZERO, RatFun(POLY_X, POLY_ONE))  # c0 = x, zero at 0
    p_basis = make_basis(_exp_member(1.0), _exp_member(-1.0), "Liouvillian",
                         None, "all x", "exp_pair", {}, 0.3)
    y_basis = reconstruct_y(p_basis, ode)
    with pytest.raises(PoleError):
        y_basis.y1(0.0)
    y_basis.y1(1.0)  # fine away from the zero


def test_reconstruct_kummer_p_solution():
    """The first-derivative equation of the Heun-type intermediary has the
    closed solutions p = x e^(x(tau - sigma - x)) {M|U}(A, 1/2, (x+sigma)^2)
    with A = (tau^2 - sigma^2)/4; reconstruction must return solutions of
    the intermediary itself (finite-difference residual oracle) whose
    derivative equals p."""
    sigma, tau = 0.45, 1.2
    A = (tau * tau - sigma * sigma) / 4
    ode = LinearODE(RatFun(poly_x(1, 2 * tau, -2), POLY_X),
                    RatFun(poly_x(0, 2 * (tau + sigma)), POLY_ONE))
    comp = companion_p_ode(ode)

    def p_member(fn):
        def member(x):
            x = complex(x)
            w = (x + sigma) ** 2
            g = cmath.exp(x * (tau - sigma - x))
            fv = fn(A, 0.5, w)
            u = x * g
            du = g * (1 + x * (tau - sigma - 2 * x))
            val = u * fv.value
            der = du * fv.value + u * fv.derivative * 2 * (x + sigma)
            return val, der
        return member

    p_basis = make_basis(p_member(hyp1f1), p_member(kummer_u), "Hypergeometric",
                         None, "x > 0", "kummer_p", {}, 0.8)

    # the members do solve the companion equation (sanity for the setup)
    for x in (0.5, 1.1):
        v, d = p_basis.y1(x)
        dpp = fd_derivative(lambda t: p_basis.y1(t)[1], x)
        resid = dpp - rat_eval(comp.c1, x) * d - rat_eval(comp.c0, x) * v
        assert abs(resid) <= 1e-7 * max(1.0, abs(dpp))

    y_basis = reconstruct_y(p_basis, ode)
    xs = [0.2 + 0.18 * k for k in range(11)]  # spans [0.2, 2]
    for x in xs:
        for member, p_member_fn in ((y_basis.y1, p_basis.y1), (y_basis.y2, p_basis.y2)):
            v, d = member(x)
            pv, _ = p_member_fn(x)
            assert abs(d - pv) <= 1e-6 * max(1.0, abs(pv))
            ypp = fd_derivative(lambda t: member(t)[1], x)
            resid = ypp - rat_eval(ode.c1, x) * d - rat_eval(ode.c0, x) * v
            scale = max(1.0, abs(ypp), abs(rat_eval(ode.c0, x) * v))
            assert abs(resid) / scale <= 1e-8, f"x={x}"
