"""Family parametrizations and conversion maps: normal-form gauging, the
closed-formula pole coefficients against independently assembled
partial-fraction sums, exact partial-fraction extraction, inverse
(detection) maps with all sign branches, and the canonical-parameter maps.
"""
from __future__ import annotations

import cmath

import pytest

from conftest import draw_bhe, draw_che, draw_ghe, fd_derivative, rng
from heun_air import (
    BHEFamily,
    CHEFamily,
    CanonicalParams,
    DomainError,
    GHEFamily,
    LinearODE,
    NormalParams,
    ParamError,
    Poly,
    RatFun,
    canonical_to_family,
    canonical_to_normal,
    extract_normal_params,
    family_to_canonical,
    family_to_normal,
    family_to_normal_params,
    normal_to_family,
    poly_x,
    rat_equal,
    rat_eval,
    to_normal_form,
)
from heun_air.numkernel import POLY_ONE, POLY_X, RAT_ZERO

ROUND_TRIP_TOL = 1e-9
RELATION_TOL = 1e-10


def close(u, v, tol=ROUND_TRIP_TOL) -> bool:
    u, v = complex(u), complex(v)
    return abs(u - v) <= tol * max(1.0, abs(u), abs(v))


def family_close(f, g, tol=ROUND_TRIP_TOL) -> bool:
    if f.kind != g.kind:
        return False
    fields = {"BHE": ("sigma", "tau"), "CHE": ("lam", "sigma", "tau"),
              "GHE": ("a", "delta", "sigma", "tau")}[f.kind]
    return all(close(getattr(f, k), getattr(g, k), tol) for k in fields)


def params_close(p: NormalParams, q: NormalParams, tol=ROUND_TRIP_TOL) -> bool:
    return p.family == q.family and all(close(p[k], q[k], tol) for k in p.values)


def _pole_term(coeff, root, order: int) -> RatFun:
    """coeff / (x - root)^order as a RatFun, assembled independently."""
    den = POLY_ONE
    for _ in range(order):
        den = den * Poly((-root, 1))
    return RatFun(Poly((coeff,)), den)


def normal_params_to_q(n: NormalParams) -> RatFun:
    """Partial-fraction sum for the family normal form, written out term by
    term from the pole-coefficient dictionary (independent of the combined
    closed-form construction used by family_to_normal)."""
    v = n.values
    if n.family == "BHE":
        # q = x^2 - B x - C - D/x - E/x^2
        return (RatFun(poly_x(-v["C"], -v["B"], 0, 0), POLY_ONE)
                + RatFun(poly_x(0, 0, 1), POLY_ONE)
                + _pole_term(-v["D"], 0.0, 1) + _pole_term(-v["E"], 0.0, 2))
    if n.family == "CHE":
        return (RatFun.const(-v["A"])
                + _pole_term(-v["B"], 0.0, 1) + _pole_term(-v["C"], 1.0, 1)
                + _pole_term(-v["D"], 0.0, 2) + _pole_term(-v["E"], 1.0, 2))
    a = v["a"]
    return (_pole_term(-v["A"], 0.0, 1) + _pole_term(-v["B"], 1.0, 1)
            + _pole_term(v["A"] + v["B"], a, 1)
            + _pole_term(-v["D"], 0.0, 2) + _pole_term(-v["E"], 1.0, 2)
            + _pole_term(-v["F"], a, 2))


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------

def test_family_constructor_rejections():
    with pytest.raises(ParamError):
        CHEFamily(0.0, 0.3, 0.5)
    for a in (0.0, 1.0):
        with pytest.raises(ParamError):
            GHEFamily(a, 0.5, 0.3, 0.4)
    with pytest.raises(ParamError):
        GHEFamily(2.0, 0.0, 0.3, 0.4)
    BHEFamily(0.0, 0.0)  # no constraints beyond finiteness


# ---------------------------------------------------------------------------
# normal-form gauging
# ---------------------------------------------------------------------------

def test_to_normal_form_already_normal():
    q_in = RatFun(poly_x(1, 0, 1), poly_x(-2, 1))
    q, gauge = to_normal_form(LinearODE(RAT_ZERO, q_in))
    assert rat_equal(q, q_in)
    assert gauge.is_zero()


def test_to_normal_form_pure_first_derivative():
    """y'' = 2x y' has the constant solution; its gauged image
    u = e^(-x^2/2) must satisfy u'' = q u, which forces q = x^2 - 1."""
    ode = LinearODE(RatFun(poly_x(0, 2), POLY_ONE), RAT_ZERO)
    q, gauge = to_normal_form(ode)
    assert rat_equal(q, RatFun(poly_x(-1, 0, 1), POLY_ONE))
    assert rat_equal(gauge, RatFun(POLY_X, POLY_ONE))
    # direct substitution check, second derivative by finite differences
    for x in (0.4, 1.1, -0.8):
        u = lambda t: cmath.exp(-t * t / 2)
        du = lambda t: -t * cmath.exp(-t * t / 2)
        upp = fd_derivative(du, x)
        assert abs(upp - rat_eval(q, x) * u(x)) <= 1e-8


def test_to_normal_form_gauge_substitution_random():
    """For random rational c1, c0 and a numeric u with u'' = q u, the gauge
    y = e^(int c1/2) u satisfies the original equation; equivalently
    q = c0 + c1^2/4 - c1'/2 pointwise."""
    r = rng("nf-gauge")
    from heun_air import rat_derivative
    for _ in range(20):
        c1 = RatFun(Poly([r.uniform(-2, 2) for _ in range(3)]),
                    Poly([r.uniform(-2, 2), 1.0]))
        c0 = RatFun(Poly([r.uniform(-2, 2) for _ in range(2)]),
                    Poly([r.uniform(-2, 2), 1.0]))
        q, gauge = to_normal_form(LinearODE(c1, c0))
        assert rat_equal(gauge, c1.scale(0.5))
        for _ in range(3):
            x = complex(r.uniform(2.5, 4.0), r.uniform(0.5, 1.5))
            want = (rat_eval(c0, x) + rat_eval(c1, x) ** 2 / 4
                    - rat_eval(rat_derivative(c1), x) / 2)
            assert close(rat_eval(q, x), want, 1e-10)


def test_first_order_gauge_recovers_two_parameter_normal_form():
    """The equation y'' = (2(tau - x) + 1/x) y' + 2(tau + sigma) x y gauges
    to exactly the two-parameter normal form q = x^2 + 2 sigma x + tau^2
    + tau/x + 3/(4x^2)."""
    for sigma, tau in ((1.0, 1.0), (0.3, -0.8), (-0.6, 0.45)):
        c1 = RatFun(poly_x(1, 2 * tau, -2), POLY_X)
        c0 = RatFun(poly_x(0, 2 * (tau + sigma)), POLY_ONE)
        q, _ = to_normal_form(LinearODE(c1, c0))
        assert rat_equal(q, family_to_normal(BHEFamily(sigma, tau)).c0)


# ---------------------------------------------------------------------------
# family -> normal form
# ---------------------------------------------------------------------------

def test_family_to_normal_bhe_explicit():
    ode = family_to_normal(BHEFamily(1.0, 1.0))
    assert ode.c1.is_zero()
    want = RatFun(poly_x(0.75, 1, 1, 2, 1), poly_x(0, 0, 1))
    assert rat_equal(ode.c0, want)
    zero = family_to_normal(BHEFamily(0.0, 0.0)).c0
    assert rat_equal(zero, RatFun(poly_x(0.75, 0, 0, 0, 1), poly_x(0, 0, 1)))


def test_family_to_normal_matches_pole_expansion():
    """family_to_normal (combined rational construction) against the
    term-by-term partial-fraction sum over family_to_normal_params (closed
    per-coefficient formulas) — two independent expressions of the same q."""
    r = rng("pf-expansion")
    for _ in range(12):
        for f in (draw_bhe(r), draw_che(r), draw_ghe(r)):
            ode = family_to_normal(f)
            assert ode.c1.is_zero()
            assert rat_equal(ode.c0, normal_params_to_q(family_to_normal_params(f)))


def test_family_to_normal_has_no_spurious_factor():
    # q lies over prod (x - p)^2 at the family's finite singular points
    # alone: x^2, x^2 (x-1)^2 and x^2 (x-1)^2 (x-a)^2
    r = rng("q-degrees")
    for _ in range(20):
        for f, degrees in ((draw_bhe(r), (4, 2)), (draw_che(r), (4, 4)),
                           (draw_ghe(r), (4, 6))):
            q = family_to_normal(f).c0
            assert (q.num.degree, q.den.degree) == degrees
    f = BHEFamily(0.3 - 0.2j, 1.1)
    n = family_to_normal_params(f)
    assert family_to_normal(f).c0.num.coeffs == (
        -n["E"], -n["D"], -n["C"], -n["B"], 1)


def _extract_error(f) -> float:
    """Largest error of the extracted pole coefficients of f's q, relative
    to max(1, |coefficient|)."""
    want = family_to_normal_params(f)
    got = extract_normal_params(family_to_normal(f).c0, f.kind)
    return max(abs(got[k] - v) / max(1.0, abs(v)) for k, v in want.values.items())


def test_extract_ghe_accuracy():
    # no common factor of q's numerator and denominator rounds the
    # coefficients that extraction reads back
    r = rng("extract-accuracy-GHE")
    assert max(_extract_error(draw_ghe(r)) for _ in range(500)) <= 1e-12
    # a detect draw at which the expanded q lost 8.8e-12
    f = GHEFamily(1.5196324427616839, 1.9409796500756125, 0.688645613281488,
                  -0.062168423068540646)
    assert _extract_error(f) <= 1e-13


# ---------------------------------------------------------------------------
# fixed and dependent parameter relations
# ---------------------------------------------------------------------------

def test_fixed_parameter_values():
    r = rng("fixed-params")
    for _ in range(25):
        assert family_to_normal_params(draw_bhe(r))["E"] == -0.75
        assert family_to_normal_params(draw_che(r))["E"] == -0.75
        assert family_to_normal_params(draw_ghe(r))["F"] == -0.75


def test_dependent_parameter_relations():
    r = rng("dep-params")
    for _ in range(25):
        nb = family_to_normal_params(draw_bhe(r))
        assert close(nb["C"], -nb["D"] ** 2, RELATION_TOL)
        nc = family_to_normal_params(draw_che(r))
        assert close(nc["B"], -nc["A"] - nc["D"] - nc["C"] ** 2, RELATION_TOL)
        ng = family_to_normal_params(draw_ghe(r))
        a, s = ng["a"], ng["A"] + ng["B"]
        e_pred = (1 - a) * (s * s * a - s * (s - 1)
                            + (ng["D"] - ng["A"]) / a - ng["D"] / (a * a))
        assert close(ng["E"], e_pred, RELATION_TOL)


# ---------------------------------------------------------------------------
# extraction q -> NormalParams
# ---------------------------------------------------------------------------

def test_extract_round_trip_all_families():
    r = rng("extract")
    for _ in range(10):
        for f in (draw_bhe(r), draw_che(r), draw_ghe(r)):
            want = family_to_normal_params(f)
            got = extract_normal_params(family_to_normal(f).c0, f.kind)
            assert params_close(got, want)


def test_extract_ghe_with_and_without_pole_hint():
    f = GHEFamily(2.3, 0.5, 0.3, 0.4)
    q = family_to_normal(f).c0
    want = family_to_normal_params(f)
    assert params_close(extract_normal_params(q, "GHE"), want)
    assert params_close(extract_normal_params(q, "GHE", a=2.3), want)


def test_extract_ghe_detects_small_delta_families():
    # |delta| ~ 0.1: normal_to_family amplifies errors in the extracted
    # residues by ~1/delta^2, so q's denominator must not lose digits
    for p in ((1.504052191767963, 0.10636802728193473, -0.6180896551645354,
               1.580688936880684),
              (1.532523804359965, -0.10456716473474814, -1.7636416603755514,
               1.4651370471059835),
              (1.564174920918658, -0.1319950681137705, 0.48625148550638464,
               1.8841027210781038),
              (1.543261802636465, -0.1012105798235925, 0.8626819642803327,
               1.6827462017064896)):
        q = family_to_normal(GHEFamily(*p)).c0
        found = normal_to_family(extract_normal_params(q, "GHE"))
        assert min(max(abs(got - want) / max(1.0, abs(want))
                       for got, want in zip((g.a, g.delta, g.sigma, g.tau), p))
                   for g in found) <= 2e-10


def test_extract_accepts_ungauged_ode():
    sigma, tau = 0.6, 0.4
    ode = LinearODE(RatFun(poly_x(1, 2 * tau, -2), POLY_X),
                    RatFun(poly_x(0, 2 * (tau + sigma)), POLY_ONE))
    got = extract_normal_params(ode, "BHE")
    assert params_close(got, family_to_normal_params(BHEFamily(sigma, tau)))


def _ungauged_ghe(f: GHEFamily) -> LinearODE:
    """The canonical GHE equation y'' + (gamma/x + delta/(x-1) +
    epsilon/(x-a)) y' + (alpha beta x - q)/(x(x-1)(x-a)) y = 0, ungauged."""
    c = family_to_canonical(f)[0]
    a = c["a"]
    c1 = -(RatFun(c["gamma"], POLY_X) + RatFun(c["delta"], poly_x(-1, 1))
           + RatFun(c["epsilon"], poly_x(-a, 1)))
    c0 = RatFun(poly_x(c["q"], -c["alpha"] * c["beta"]),
                POLY_X * poly_x(-1, 1) * poly_x(-a, 1))
    return LinearODE(c1, c0)


def test_extract_accepts_ungauged_ghe_canonical_equation():
    # to_normal_form leaves five-fold roots at 0, 1 and a in a degree-15
    # denominator, three of each cancelled by the numerator
    r = rng("extract-ungauged-ghe")
    for _ in range(30):
        f = draw_ghe(r)
        got = extract_normal_params(_ungauged_ghe(f), "GHE")
        assert params_close(got, family_to_normal_params(f), tol=1e-7)


def test_extract_refuses_roots_away_from_the_singular_points():
    f = GHEFamily(2.3, 0.5, 0.3, 0.4)
    q = family_to_normal(f).c0
    with pytest.raises(DomainError):
        extract_normal_params(q, "GHE", a=2.0)  # wrong third point
    with pytest.raises(DomainError):
        # cofactor (x - 2.3)^2 (x - 4) is not a pure power of (x - a)
        extract_normal_params(q + RatFun(0.3, poly_x(-4, 1)), "GHE")
    with pytest.raises(DomainError):
        extract_normal_params(q, "CHE")  # a pole at 2.3 is no CHE pole
    with pytest.raises(DomainError):
        # the cofactor x^2 + 1 has mean root 0, already divided out
        extract_normal_params(RatFun(POLY_ONE, poly_x(0, 0, 1, 0, 1)), "GHE")


def test_extract_rejects_foreign_shapes():
    with pytest.raises(DomainError):
        extract_normal_params(RatFun(poly_x(0, 0, 0, 1), POLY_ONE), "BHE")  # x^3
    with pytest.raises(DomainError):
        extract_normal_params(RatFun(poly_x(0, 0, 1), POLY_ONE), "CHE")  # x^2
    with pytest.raises(DomainError):
        # no third singular point anywhere in the denominator
        extract_normal_params(RatFun(poly_x(1, 1), poly_x(0, 0, 1)), "GHE")
    with pytest.raises(DomainError):
        # wrong x^2 coefficient for the two-parameter family
        q = family_to_normal(BHEFamily(0.5, 0.5)).c0 + RatFun(poly_x(0, 0, 1), POLY_ONE)
        extract_normal_params(q, "BHE")
    with pytest.raises(ParamError):
        extract_normal_params(RatFun(POLY_ONE, POLY_X), "XHE")


# ---------------------------------------------------------------------------
# detection: NormalParams -> family
# ---------------------------------------------------------------------------

def test_normal_to_family_bhe_worked_case():
    fams = normal_to_family(NormalParams("BHE", {"B": -2, "C": -1, "D": 1, "E": -0.75}))
    assert len(fams) == 1
    assert family_close(fams[0], BHEFamily(1.0, -1.0))


def test_normal_to_family_constraint_rejections():
    assert normal_to_family(NormalParams("BHE", {"B": -2, "C": -1, "D": 1, "E": 0.0})) == []
    assert normal_to_family(NormalParams("BHE", {"B": -2, "C": -1.01, "D": 1, "E": -0.75})) == []
    n = family_to_normal_params(CHEFamily(1.0, 0.3, 0.5)).values.copy()
    n["B"] += 0.01
    assert normal_to_family(NormalParams("CHE", n)) == []
    # lambda^2 = -A = 0 leaves the three-parameter family
    assert normal_to_family(NormalParams("CHE", {"A": 0, "B": -0.25, "C": 0.5,
                                                 "D": 0.25, "E": -0.75})) == []


def test_normal_to_family_che_branch_partner():
    f = CHEFamily(1.0, 0.3, 0.5)
    fams = normal_to_family(family_to_normal_params(f))
    assert len(fams) == 2
    assert any(family_close(g, f) for g in fams)
    assert any(family_close(g, CHEFamily(-1.0, 0.3, -0.5)) for g in fams)


def test_normal_to_family_ghe_sign_pair():
    f = GHEFamily(2.0, 0.5, 0.3, 0.4)
    fams = normal_to_family(family_to_normal_params(f))
    assert len(fams) == 2
    assert any(family_close(g, f) for g in fams)
    assert any(family_close(g, GHEFamily(2.0, -0.5, -0.3, 0.4)) for g in fams)


def test_normal_round_trip_random():
    r = rng("normal-rt")
    for _ in range(25):
        for f in (draw_bhe(r), draw_che(r), draw_ghe(r)):
            fams = normal_to_family(family_to_normal_params(f))
            assert any(family_close(g, f) for g in fams), f


# ---------------------------------------------------------------------------
# canonical parameters
# ---------------------------------------------------------------------------

def test_family_to_canonical_bhe_worked_case():
    cans = family_to_canonical(BHEFamily(1.0, 1.0))
    assert sorted(complex(c["alpha"]).real for c in cans) == [-2.0, 2.0]
    for c in cans:
        assert close(c["beta"], 2.0)
        assert close(c["gamma"], 0.0)
        assert close(c["delta"], 2.0)


def test_canonical_to_family_bhe_worked_case():
    c = CanonicalParams("BHE", {"alpha": 2, "beta": 2, "gamma": 0, "delta": 2})
    fams = canonical_to_family(c)
    assert len(fams) == 1 and family_close(fams[0], BHEFamily(1.0, 1.0))
    c3 = CanonicalParams("BHE", {"alpha": 3, "beta": 2, "gamma": 0, "delta": 2})
    assert canonical_to_family(c3) == []


def test_che_canonical_relations_at_origin():
    """With sigma = tau = 0 every emitted branch satisfies alpha^2 = 4,
    beta^2 = 4, gamma^2 = 4 gamma, delta = 2 - alpha, eta = -2 - beta."""
    f = CHEFamily(1.0, 0.0, 0.0)
    cans = family_to_canonical(f)
    assert len(cans) == 8
    for c in cans:
        al, be, ga = c["alpha"], c["beta"], c["gamma"]
        assert close(al * al, 4.0, RELATION_TOL)
        assert close(be * be, 4.0, RELATION_TOL)
        assert close(ga * ga, 4.0 * ga, RELATION_TOL)
        assert close(c["delta"], 2.0 - al, RELATION_TOL)
        assert close(c["eta"], -2.0 - be, RELATION_TOL)
        assert any(family_close(g, f) for g in canonical_to_family(c))


def test_ghe_canonical_constraint_and_round_trip():
    f = GHEFamily(2.0, 0.5, 0.3, 0.4)
    cans = family_to_canonical(f)
    assert cans
    for c in cans:
        lhs = (c["gamma"] + c["delta"] + c["epsilon"]
               - c["alpha"] - c["beta"] - 1)
        assert abs(lhs) <= 1e-9
        assert complex(c["epsilon"]) in (3 + 0j, -1 + 0j)
        assert any(family_close(g, f) for g in canonical_to_family(c))


def test_ghe_canonical_constraint_enforced_at_construction():
    with pytest.raises(ParamError):
        CanonicalParams("GHE", {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1,
                                "epsilon": 2, "a": 2, "q": 0})


def test_all_canonical_branches_share_one_normal_form():
    """Every emitted canonical branch of a family instance gauges to the
    same pole coefficients — the branches are equation-equivalent."""
    r = rng("canon-nf")
    for _ in range(8):
        for f in (draw_bhe(r), draw_che(r), draw_ghe(r)):
            want = family_to_normal_params(f)
            for c in family_to_canonical(f):
                assert params_close(canonical_to_normal(c), want, 1e-8)


def test_canonical_round_trip_random():
    r = rng("canon-rt")
    for _ in range(25):
        for f in (draw_bhe(r), draw_che(r), draw_ghe(r)):
            cans = family_to_canonical(f)
            assert cans
            fams = canonical_to_family(cans[0])
            assert any(family_close(g, f, 1e-8) for g in fams), f


def test_params_key_validation():
    with pytest.raises(ParamError):
        NormalParams("BHE", {"B": 1, "C": 1, "D": 1})  # E missing
    with pytest.raises(ParamError):
        NormalParams("BHE", {"B": 1, "C": 1, "D": 1, "E": 1, "Z": 0})
    with pytest.raises(ParamError):
        NormalParams("QHE", {"B": 1})
    with pytest.raises(ParamError):
        CanonicalParams("CHE", {"alpha": 1})
