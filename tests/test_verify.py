"""Independent verification layer: finite-difference residual checks,
Wronskian drift, adaptive Runge-Kutta cross-validation with its failure
modes (step collapse, coefficient poles, off-axis anchors), report
aggregation, and the four-singularity showcase equation with its
0F1-combination basis.
"""
from __future__ import annotations

import cmath

import pytest

from conftest import family_points
from heun_air import (
    BHEFamily,
    CHEFamily,
    DomainError,
    GHEFamily,
    LinearODE,
    ParamError,
    PoleError,
    StiffnessError,
    family_to_normal,
    make_basis,
    rat_eval,
    residual_check,
    rk45_compare,
    solve_family,
    verify_basis,
    wronskian_check,
)
from heun_air import cli
from heun_air.numkernel import POLY_ONE, RAT_ZERO, Poly, RatFun, rat_equal
from heun_air.specialfns import hyp0f1
from heun_air.verify import (
    EXAMPLE_SUITE_TOL,
    RESIDUAL_TOL,
    RK_COMPARE_TOL,
    WRONSKIAN_DRIFT_TOL,
    example_basis,
    example_equation,
    paper_example_suite,
)

#: y'' = y, whose basis {e^x, e^-x} every check should wave through.
EXP_ODE = LinearODE(RAT_ZERO, RatFun(POLY_ONE, POLY_ONE))

XS = [0.3 + 0.17 * i for i in range(10)]


def _exp_pair():
    def y1(x):
        return (cmath.exp(x), cmath.exp(x))

    def y2(x):
        return (cmath.exp(-x), -cmath.exp(-x))

    return make_basis(y1, y2, "Hypergeometric", None, "anywhere",
                      "exp_pair", {}, 0.7)


def _exp_growing_pair():
    """{e^x, x e^x}: a basis of y'' = 2 y' - y, whose Wronskian e^(2x)
    is genuinely non-constant."""
    def y1(x):
        return (cmath.exp(x), cmath.exp(x))

    def y2(x):
        return (x * cmath.exp(x), (1 + x) * cmath.exp(x))

    return make_basis(y1, y2, "Hypergeometric", None, "anywhere",
                      "exp_growing_pair", {}, 0.7)


# ---------------------------------------------------------------------------
# residual check
# ---------------------------------------------------------------------------

def test_residual_check_accepts_exponential_pair():
    rows = residual_check(EXP_ODE, _exp_pair(), XS)
    assert len(rows) == 2 * len(XS)
    assert all(r.check == "residual" for r in rows)
    assert {r.member for r in rows} == {"y1", "y2"}
    assert all(r.status == "ok" for r in rows)
    assert max(r.value for r in rows) <= 1e-10


def test_residual_check_flags_perturbed_member():
    # (1 + x) e^x with its honest derivative is not a solution of y'' = y;
    # the normalized residual is O(1), four orders above the tolerance.
    def y1(x):
        return ((1 + x) * cmath.exp(x), (2 + x) * cmath.exp(x))

    def y2(x):
        return (cmath.exp(-x), -cmath.exp(-x))

    bad = make_basis(y1, y2, "Hypergeometric", None, "anywhere",
                     "perturbed_pair", {}, 0.7)
    rows = residual_check(EXP_ODE, bad, XS)
    bad_rows = [r for r in rows if r.member == "y1"]
    assert all(r.status == "fail" for r in bad_rows)
    assert min(r.value for r in bad_rows) >= 1e4 * RESIDUAL_TOL
    assert all(r.status == "ok" for r in rows if r.member == "y2")


def test_residual_check_reports_refusals_as_rows():
    f = BHEFamily(1.0, -0.35)
    rows = residual_check(family_to_normal(f), solve_family(f), [-0.5, 0.4])
    refused = [r for r in rows if r.x == -0.5 + 0j]
    assert len(refused) == 2
    assert all(r.status == "DomainError" for r in refused)
    assert all(r.value != r.value for r in refused)
    assert all(r.status == "ok" for r in rows if r.x == 0.4 + 0j)


# ---------------------------------------------------------------------------
# Wronskian drift
# ---------------------------------------------------------------------------

def test_wronskian_check_constant_pair():
    rows = wronskian_check(_exp_pair(), XS)
    assert len(rows) == len(XS)
    assert all(r.check == "wronskian" and r.member == "pair" for r in rows)
    assert all(r.status == "ok" for r in rows)
    assert max(r.value for r in rows) <= 1e-10


def test_wronskian_check_flags_nonconstant_pair():
    rows = wronskian_check(_exp_growing_pair(), XS)
    assert any(r.status == "fail" for r in rows)
    assert max(r.value for r in rows) >= 1e-2


#: Correct bases whose W is a difference of products about 1e8 times
#: larger: drift relative to |mean W| read 3.1e-8 and 8.2e-7 from rounding.
ILL_CONDITIONED_W = [
    BHEFamily(1.9134, -1.9134),
    CHEFamily(-1.8209086157044583, 1.4720077101487359, -0.5621622190668396),
]


@pytest.mark.parametrize("family", ILL_CONDITIONED_W, ids=["BHE", "CHE"])
def test_wronskian_check_scales_drift_by_the_products(family):
    # at the points and in the windows of `heun-air verify`
    kind = type(family).__name__[:3]
    xs, windows = cli._VERIFY_POINTS[kind], cli._VERIFY_WINDOWS[kind]
    basis = solve_family(family)
    report = verify_basis(family_to_normal(family), basis, xs,
                          rk_window=windows, residual_tol=1e-8)
    assert report.status == "pass"
    assert report.wronskian_drift <= 1e-11

    def off(x):  # (1 + 1e-3 x) y1 solves no equation of the family
        v, dv = basis.y1(x)
        return v * (1 + 1e-3 * x), dv * (1 + 1e-3 * x) + 1e-3 * v
    bad = make_basis(off, basis.y2, "Hypergeometric", None, "anywhere",
                     "perturbed", {}, xs[0])
    rows = wronskian_check(bad, xs)
    assert any(r.status == "fail" for r in rows)
    assert max(r.value for r in rows) >= 1e-2


# ---------------------------------------------------------------------------
# Runge-Kutta cross-validation
# ---------------------------------------------------------------------------

def test_rk45_matches_exponential_pair():
    rows = rk45_compare(EXP_ODE, _exp_pair(), 1.15, (0.3, 2.0))
    assert all(r.status == "ok" for r in rows)
    assert max(r.value for r in rows) <= 1e-8


def test_rk45_requires_real_anchor():
    with pytest.raises(ParamError):
        rk45_compare(EXP_ODE, _exp_pair(), 0.5 + 0.2j, (0.3, 2.0))


def test_rk45_reports_member_refusal_at_anchor():
    # Initial conditions are read off the members; a refusal there becomes
    # one error row per member instead of an exception.
    f = BHEFamily(1.0, -0.35)
    rows = rk45_compare(family_to_normal(f), solve_family(f), -0.5, (0.3, 2.0))
    assert len(rows) == 2
    assert {r.member for r in rows} == {"y1", "y2"}
    assert all(r.status == "DomainError" and r.value != r.value for r in rows)


def test_rk45_tightening_tolerance_tightens_deviation():
    # Measured deviation ladder for {cos, sin} across (0, 10):
    # 6.5e-6, 3.9e-8, 2.1e-10, 1.5e-12 at rtol 1e-6 .. 1e-12.
    ode = LinearODE(RAT_ZERO, RatFun(Poly((-1,)), POLY_ONE))

    def y1(x):
        return (cmath.cos(x), -cmath.sin(x))

    def y2(x):
        return (cmath.sin(x), cmath.cos(x))

    basis = make_basis(y1, y2, "Hypergeometric", None, "anywhere",
                       "trig_pair", {}, 0.7)
    devs = []
    for rtol in (1e-6, 1e-8, 1e-10, 1e-12):
        # statuses are irrelevant here, the study reads deviations only
        rows = rk45_compare(ode, basis, 0.0, (0.0, 10.0),
                            rtol=rtol, atol=rtol * 1e-2, tol=1.0)
        devs.append(max(r.value for r in rows))
    assert devs[0] <= 1e-4
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 1e-4 * devs[0]


def test_rk45_step_collapse_raises():
    # Tolerances below the roundoff floor of the error estimate can never
    # be met; the controller shrinks the step to the collapse threshold.
    with pytest.raises(StiffnessError, match="collapsed"):
        rk45_compare(EXP_ODE, _exp_pair(), 0.5, (0.3, 2.0),
                     rtol=1e-40, atol=1e-40)


def test_rk45_surfaces_coefficient_poles():
    # y'' = y / (x - 1)^2 integrated across x = 1: the coefficient
    # evaluation refuses the pole neighbourhood before the step collapses.
    ode = LinearODE(RAT_ZERO, RatFun(POLY_ONE, Poly((1, -2, 1))))
    with pytest.raises(PoleError):
        rk45_compare(ode, _exp_pair(), 0.5, (0.5, 1.6))


# ---------------------------------------------------------------------------
# aggregate reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f,windows", [
    (BHEFamily(1.0, -0.35), (0.3, 2.0)),
    (CHEFamily(0.8, 0.7, -0.2), [(0.2, 0.8), (1.2, 3.0)]),
    (GHEFamily(1.8, 0.5, -0.25, 0.65), (0.15, 0.85)),
], ids=["bhe", "che", "ghe"])
def test_verify_basis_passes_for_each_family(f, windows):
    report = verify_basis(family_to_normal(f), solve_family(f),
                          family_points(f, 7), rk_window=windows)
    assert report.status == "pass"
    assert report.max_residual <= RESIDUAL_TOL
    assert report.wronskian_drift <= WRONSKIAN_DRIFT_TOL
    assert report.rk_max_rel_error <= RK_COMPARE_TOL
    assert report.points_checked == len(report.rows) > 0


def test_verify_basis_empty_window_list_runs_no_rk():
    # an empty list of RK windows is no RK check, as rk_window=None
    ode, basis = EXP_ODE, _exp_pair()
    report = verify_basis(ode, basis, XS, rk_window=[])
    assert not any(r.check == "rk45" for r in report.rows)
    assert report.rows == verify_basis(ode, basis, XS).rows
    assert report.status == "pass"


def test_verify_basis_partial_on_refused_points():
    f = BHEFamily(1.0, -0.35)
    report = verify_basis(family_to_normal(f), solve_family(f),
                          [-0.5, 0.4, 0.8, 1.3])
    assert report.status == "partial"
    assert {r.status for r in report.rows} == {"ok", "DomainError"}


def test_verify_basis_fail_on_wrong_member():
    def y1(x):
        return ((1 + x) * cmath.exp(x), (2 + x) * cmath.exp(x))

    def y2(x):
        return (cmath.exp(-x), -cmath.exp(-x))

    bad = make_basis(y1, y2, "Hypergeometric", None, "anywhere",
                     "perturbed_pair", {}, 0.7)
    report = verify_basis(EXP_ODE, bad, XS)
    assert report.status == "fail"
    assert report.max_residual >= 1e4 * RESIDUAL_TOL


def test_verify_basis_skips_wronskian_off_normal_form():
    # {e^x, x e^x} solves y'' = 2 y' - y; with c1 != 0 the Wronskian is not
    # a constant of the equation, so that check must not run at all.
    ode = LinearODE(RatFun(Poly((2,)), POLY_ONE), RatFun(Poly((-1,)), POLY_ONE))
    report = verify_basis(ode, _exp_growing_pair(), XS)
    assert report.status == "pass"
    assert not any(r.check == "wronskian" for r in report.rows)
    assert report.wronskian_drift == 0.0


# ---------------------------------------------------------------------------
# showcase equation
# ---------------------------------------------------------------------------

def test_example_equation_rejects_bad_parameters():
    with pytest.raises(ParamError):
        example_equation(-1.0, 0.5)
    with pytest.raises(ParamError):
        example_equation(0.7, 0.0)
    with pytest.raises(ParamError):
        example_equation(1.5, -1.5)


@pytest.mark.parametrize("a,kappa", [(0.7, 1.3), (2.5, -0.4)])
def test_example_seed_solved_by_0f1_quotient(a, kappa):
    # 0F1(; a; x) / (x - kappa) solves the seed equation; all derivatives
    # here are analytic (f'' via the raised-parameter contiguity), so the
    # residual sits at roundoff.
    seed, _ = example_equation(a, kappa)
    for x in (0.4, 0.9, 1.8, 2.6):
        x = complex(x)
        f = hyp0f1(a, x)
        fpp = hyp0f1(a + 1, x).derivative / a
        u = x - kappa
        y = f.value / u
        yp = f.derivative / u - f.value / u ** 2
        ypp = fpp / u - 2 * f.derivative / u ** 2 + 2 * f.value / u ** 3
        res = abs(ypp - rat_eval(seed.c1, x) * yp - rat_eval(seed.c0, x) * y)
        assert res / max(1.0, abs(y)) <= 1e-12


@pytest.mark.parametrize("a,kappa", [(0.7, 1.3), (2.5, -0.4), (1.6, 0.9)])
def test_example_transformed_c1_partial_fractions(a, kappa):
    # c1 of the transformed equation splits into unit-residue simple poles
    # at kappa and a + kappa plus (a - 1)/x at the origin.
    _, ex1 = example_equation(a, kappa)
    px, pk, pak = Poly((0, 1)), Poly((-kappa, 1)), Poly((-(a + kappa), 1))
    num = (pk * pak).scale(a - 1) + px * pak + px * pk
    assert rat_equal(ex1.c1, RatFun(num, px * pk * pak))


def test_example_transformed_singularity_placement():
    a, kappa = 0.7, 1.3
    _, ex1 = example_equation(a, kappa)
    for s in (0.0, kappa, a + kappa):
        with pytest.raises(PoleError):
            rat_eval(ex1.c1, s)
    rat_eval(ex1.c1, 0.65)  # regular point evaluates fine


@pytest.mark.parametrize("a,kappa", [(0.7, 1.3), (2.5, -0.4)])
def test_example_basis_solves_transformed_equation(a, kappa):
    _, ex1 = example_equation(a, kappa)
    basis = example_basis(a, kappa)
    assert basis.formula == "example_0f1_combination"
    assert basis.classification == "Hypergeometric"
    assert basis.derived == {"a": a + 0j, "kappa": kappa + 0j}
    sing = (0.0, kappa, a + kappa)
    xs = [x for x in (0.45, 0.85, 1.55, 2.35, 2.65)
          if all(abs(x - s) > 0.12 for s in sing)]
    rows = residual_check(ex1, basis, xs, tol=EXAMPLE_SUITE_TOL)
    assert rows and all(r.status == "ok" for r in rows)


def test_example_suite_default_passes():
    report = paper_example_suite()
    # two fixed pairs plus five seeded draws, ten points, two members
    assert len(report.rows) == 7 * 10 * 2
    assert report.status == "pass"
    assert report.max_residual <= EXAMPLE_SUITE_TOL


def test_example_suite_explicit_pairs():
    report = paper_example_suite(pairs=[(0.7, 1.3)])
    assert len(report.rows) == 20
    assert report.status == "pass"
