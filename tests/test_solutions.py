"""Closed-form solution constructors: classification and branch selection,
frozen worked values, equation residuals by finite differences for every
branch of every family, domain policing, degenerate-parameter refusals, the
companion-route constructor, and grid evaluation plumbing.
"""
from __future__ import annotations

import cmath
import math

import pytest

from conftest import bhe_points, che_points, fd_derivative, family_points, ghe_points, rng
from heun_air import (
    BHEFamily,
    BranchError,
    CHEFamily,
    DegenerateError,
    DomainError,
    FnValue,
    GHEFamily,
    HeunAirError,
    ParamError,
    PoleError,
    RemovablePointError,
    che_whittaker_params,
    eval_basis,
    family_to_normal,
    ghe_exponents,
    hyp2f1,
    is_liouvillian,
    make_basis,
    rat_eval,
    solutions,
    solve_bhe,
    solve_che,
    solve_family,
    solve_ghe,
    solve_via_p_route,
    specialfns,
    verify,
    wronskian_at,
)

RESIDUAL_TOL = 1e-7


def basis_residual(basis, f, xs) -> float:
    """max over points/members of |y'' - q y| / max(1, |y''|, |q y|), with
    y'' from a finite difference of the analytic first derivative."""
    q = family_to_normal(f).c0
    worst = 0.0
    for member in (basis.y1, basis.y2):
        for x in xs:
            v, _ = member(x)
            ypp = fd_derivative(lambda t: member(t)[1], x)
            qv = rat_eval(q, x) * v
            worst = max(worst, abs(ypp - qv) / max(1.0, abs(ypp), abs(qv)))
    return worst


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_is_liouvillian_locus():
    assert is_liouvillian(1.0, 1.0)
    assert is_liouvillian(1.0, -1.0)
    assert is_liouvillian(0.0, 0.0)
    assert not is_liouvillian(1.0, 0.5)
    assert is_liouvillian(0.7 + 0.2j, -(0.7 + 0.2j))


def test_classification_threshold_boundary():
    # sqrt/square round-tripping costs ~1e-15 absolute on sigma^2 - tau^2,
    # so probe the 1e-10 threshold with 10% slack on each side
    sigma = 1.5
    inside = math.sqrt(sigma ** 2 - 9e-11)
    outside = math.sqrt(sigma ** 2 - 2e-10)
    assert solve_bhe(BHEFamily(sigma, inside)).classification == "Liouvillian"
    assert solve_bhe(BHEFamily(sigma, outside)).classification == "Hypergeometric"
    assert solve_bhe(BHEFamily(0.7, 0.7)).classification == "Liouvillian"


def test_branch_selection_and_formula_names():
    assert solve_bhe(BHEFamily(1.0, 1.0)).formula == "bhe_liouvillian_erfi"
    assert solve_bhe(BHEFamily(1.0, -1.0)).formula == "bhe_liouvillian_erf"
    b = solve_bhe(BHEFamily(1.0, 0.3))
    assert b.formula == "bhe_kummer" and b.classification == "Hypergeometric"
    assert b.derived["A"] == (0.3 ** 2 - 1.0) / 4

    assert solve_che(CHEFamily(0.8, 0.5, 0.5)).formula == "che_liouvillian_gamma_plus"
    assert solve_che(CHEFamily(0.8, 0.5, -0.5)).formula == "che_liouvillian_gamma_minus"
    c = solve_che(CHEFamily(0.9, 0.4, 0.2))
    assert c.formula == "che_whittaker"
    mu, nu = che_whittaker_params(CHEFamily(0.9, 0.4, 0.2))
    assert c.derived["mu"] == mu and c.derived["nu"] == nu

    assert solve_ghe(GHEFamily(2.0, 0.5, 0.4, 0.4)).formula == "ghe_liouvillian_beta_plus"
    assert solve_ghe(GHEFamily(2.0, 0.5, 0.4, -0.4)).formula == "ghe_liouvillian_beta_minus"
    g = solve_ghe(GHEFamily(2.2, 0.6, 0.5, 0.2))
    assert g.formula == "ghe_gauss"
    S, T = ghe_exponents(GHEFamily(2.2, 0.6, 0.5, 0.2))
    assert g.derived["Sigma"] == S and g.derived["T"] == T


def test_solve_family_dispatch():
    assert solve_family(BHEFamily(1.0, 1.0)).formula == "bhe_liouvillian_erfi"
    assert solve_family(CHEFamily(0.9, 0.4, 0.2)).formula == "che_whittaker"
    assert solve_family(GHEFamily(2.2, 0.6, 0.5, 0.2)).formula == "ghe_gauss"
    with pytest.raises(ParamError):
        solve_family("not a family")  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# frozen worked value and derived parameters
# ---------------------------------------------------------------------------

def test_bhe_liouvillian_worked_value():
    basis = solve_bhe(BHEFamily(1.0, 1.0))
    v, d = basis.y1(0.5)
    assert abs(v - 0.75697397162675296) <= 1e-13
    # y1 = e^(-x(x + 2 tau)/2) / sqrt(x): derivative consistency
    fd = fd_derivative(lambda t: basis.y1(t)[0], 0.5)
    assert abs(fd - d) <= 1e-8 * max(1.0, abs(d))


def test_whittaker_indices_at_parameter_origin():
    mu, nu = che_whittaker_params(CHEFamily(1.0, 0.0, 0.0))
    assert mu == 1.5 and nu == 1.0


def test_ghe_exponent_formulas():
    S, T = ghe_exponents(GHEFamily(2.0, 0.5, 0.0, 0.0))
    assert S == 0.5 and T == 1.0


# ---------------------------------------------------------------------------
# equation residuals, every branch of every family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", [
    BHEFamily(1.0, 1.0),            # erfi branch
    BHEFamily(0.8, -0.8),           # erf branch
    BHEFamily(1.0, 0.3),            # confluent general branch
    BHEFamily(-0.6, 0.45),          # general branch, negative sigma
], ids=["erfi", "erf", "kummer", "kummer-neg"])
def test_bhe_residuals(f):
    assert basis_residual(solve_bhe(f), f, bhe_points(f, 6)) <= RESIDUAL_TOL


@pytest.mark.parametrize("f", [
    CHEFamily(0.8, 0.5, 0.5),       # gamma plus branch
    CHEFamily(0.8, 0.5, -0.5),      # gamma minus branch
    CHEFamily(0.9, 0.4, 0.2),       # Whittaker general branch
    CHEFamily(-0.7, -0.3, 0.8),     # general branch, negative lambda
], ids=["gamma+", "gamma-", "whittaker", "whittaker-neg"])
def test_che_residuals(f):
    assert basis_residual(solve_che(f), f, che_points(f, 6)) <= RESIDUAL_TOL


@pytest.mark.parametrize("f", [
    GHEFamily(2.0, 0.5, 0.4, 0.4),   # incomplete-beta plus branch
    GHEFamily(2.0, 0.5, 0.4, -0.4),  # incomplete-beta minus branch
    GHEFamily(2.2, 0.6, 0.5, 0.2),   # Gauss general branch
    GHEFamily(1.8, 0.5, -0.25, 0.65),
], ids=["beta+", "beta-", "gauss", "gauss-neg"])
def test_ghe_residuals(f):
    assert basis_residual(solve_ghe(f), f, ghe_points(f, 6)) <= RESIDUAL_TOL


def test_wronskian_constant_on_normal_form():
    """c1 = 0 makes the Wronskian exactly constant; check it is nonzero and
    drift-free between two well-separated points."""
    for f in (BHEFamily(1.0, 0.3), CHEFamily(0.9, 0.4, 0.2),
              GHEFamily(2.2, 0.6, 0.5, 0.2)):
        basis = solve_family(f)
        xs = family_points(f, 6)
        w1, w2 = wronskian_at(basis, xs[1]), wronskian_at(basis, xs[-1])
        assert abs(w1) > 1e-12
        assert abs(w1 - w2) <= 1e-8 * max(1.0, abs(w1))


# ---------------------------------------------------------------------------
# domain policing
# ---------------------------------------------------------------------------

def test_bhe_domain_errors():
    basis = solve_bhe(BHEFamily(1.0, 0.3))
    for x in (0.0, -1.0):
        with pytest.raises(DomainError):
            basis.y1(x)
    basis.y1(0.5 + 0.5j)  # complex points are admitted


def test_bhe_removable_point_refusal():
    basis = solve_bhe(BHEFamily(-0.7, 0.2))
    with pytest.raises(RemovablePointError):
        basis.y1(0.7)
    basis.y1(0.8)  # nearby points evaluate


def test_che_domain_errors():
    basis = solve_che(CHEFamily(0.9, 0.4, 0.2))
    with pytest.raises(BranchError):
        basis.y1(-0.5)
    with pytest.raises(DomainError):
        basis.y1(1.0)
    basis.y1(0.5)
    basis.y1(1.5)


def test_ghe_domain_errors():
    basis = solve_ghe(GHEFamily(2.2, 0.6, 0.5, 0.2))
    with pytest.raises(DomainError):
        basis.y1(0.5 + 0.1j)
    with pytest.raises(DomainError):
        basis.y1(1.2)
    with pytest.raises(DomainError):
        basis.y1(0.0)
    basis.y1(0.3)


_BHE_OUT = [(0.0, DomainError), (-1.0, DomainError)]
_CHE_OUT = [(-0.5, BranchError), (1.0, DomainError)]
_GHE_OUT = [(0.5 + 0.1j, DomainError), (0.0, DomainError), (1.2, DomainError)]


@pytest.mark.parametrize("solve, f, refusals", [
    (solve_family, BHEFamily(-0.7, 0.2), _BHE_OUT + [(0.7, RemovablePointError)]),
    (solve_family, BHEFamily(0.7, 0.7), _BHE_OUT),
    (solve_family, BHEFamily(-0.6, 0.6), _BHE_OUT),
    (solve_family, CHEFamily(0.9, 0.4, 0.2), _CHE_OUT),
    (solve_family, CHEFamily(0.9, 0.4, 0.4), _CHE_OUT),
    (solve_family, CHEFamily(0.6, -0.8, 0.8), _CHE_OUT),
    (solve_family, GHEFamily(2.2, 0.6, 0.5, 0.2), _GHE_OUT),
    (solve_family, GHEFamily(2.2, 0.6, 0.3, 0.3), _GHE_OUT),
    (solve_family, GHEFamily(1.8, 0.5, -0.25, 0.25), _GHE_OUT),
    # the reconstruction's c0 has poles at 0 (BHE, GHE) and 1 (CHE)
    (solve_via_p_route, BHEFamily(-0.7, 0.2), [(0.0, PoleError), (-1.0, DomainError)]),
    (solve_via_p_route, CHEFamily(0.9, 0.4, 0.2), [(-0.5, BranchError), (1.0, PoleError)]),
    (solve_via_p_route, GHEFamily(2.2, 0.6, 0.5, 0.2),
     [(0.5 + 0.1j, DomainError), (0.0, PoleError), (1.2, DomainError)]),
], ids=["BHE-general", "BHE-plus", "BHE-minus", "CHE-general", "CHE-plus",
        "CHE-minus", "GHE-general", "GHE-plus", "GHE-minus", "BHE-p-route",
        "CHE-p-route", "GHE-p-route"])
def test_every_member_refuses_out_of_domain_points(solve, f, refusals):
    basis = solve(f)
    for x, err in refusals:
        for member in (basis.y1, basis.y2):
            with pytest.raises(HeunAirError) as exc:
                member(x)
            assert exc.type is err, (x, exc.value)


# ---------------------------------------------------------------------------
# degenerate parameters
# ---------------------------------------------------------------------------

def test_che_parameter_origin_refused():
    # both printed members degenerate at lambda=1, sigma=tau=0 (resonant
    # incomplete-gamma order / identically-zero first member)
    with pytest.raises(HeunAirError):
        solve_che(CHEFamily(1.0, 0.0, 0.0))


def test_ghe_resonant_exponent_refused():
    # T = 1/2 makes a Gauss lower parameter a nonpositive integer
    with pytest.raises(ParamError):
        solve_ghe(GHEFamily(2.0, 0.25, 0.1, math.sqrt(0.1)))
    # T = 1 hits the second resonance
    with pytest.raises(ParamError):
        solve_ghe(GHEFamily(2.0, 0.25, 0.1, math.sqrt(0.85)))


def test_make_basis_degenerate_and_error_propagation():
    def member(x):
        x = complex(x)
        return cmath.exp(x), cmath.exp(x)

    def doubled(x):
        v, d = member(x)
        return 2 * v, 2 * d

    with pytest.raises(DegenerateError):
        make_basis(member, doubled, "Liouvillian", None, "all x", "dep", {}, 0.5)

    def refusing(x):
        raise DomainError("nope")

    with pytest.raises(DomainError):
        make_basis(refusing, refusing, "Liouvillian", None, "never", "bad",
                   {}, [0.5, 1.0])


# ---------------------------------------------------------------------------
# companion-route constructor
# ---------------------------------------------------------------------------

def test_p_route_rejects_liouvillian_parameters():
    with pytest.raises(ParamError):
        solve_via_p_route(BHEFamily(1.0, 1.0))
    with pytest.raises(ParamError):
        solve_via_p_route(CHEFamily(0.8, 0.5, -0.5))


@pytest.mark.parametrize("f,name", [
    (BHEFamily(1.0, 0.3), "bhe_p_route"),
    (CHEFamily(0.9, 0.4, 0.2), "che_p_route"),
    (GHEFamily(2.2, 0.6, 0.5, 0.2), "ghe_p_route"),
], ids=["bhe", "che", "ghe"])
def test_p_route_solves_the_same_equation(f, name):
    basis = solve_via_p_route(f)
    assert basis.formula == name
    assert basis.classification == "Hypergeometric"
    # the reconstruction arithmetic is unguarded double precision; near the
    # x = 1 singular point it loses digits, so keep a 0.15 margin there
    if f.kind == "GHE":
        xs = [0.15 + 0.7 * k / 5 for k in range(6)]
    else:
        xs = family_points(f, 6)
    assert basis_residual(basis, f, xs) <= RESIDUAL_TOL


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------

def test_eval_basis_rows():
    basis = solve_bhe(BHEFamily(1.0, 0.3))
    rows = eval_basis(basis, [0.5, -1.0, 1.4])
    assert [r["status"] for r in rows] == ["ok", "DomainError", "ok"]
    ok = rows[0]
    assert ok["x"] == 0.5 + 0j
    v, d = basis.y1(0.5)
    assert ok["y1"] == v and ok["y1p"] == d
    assert rows[1]["y1"] is None and rows[1]["y2p"] is None
    assert eval_basis(basis, []) == []


def test_eval_basis_reports_removable_point():
    basis = solve_bhe(BHEFamily(-0.7, 0.2))
    rows = eval_basis(basis, [0.7])
    assert rows[0]["status"] == "RemovablePointError"


def test_basis_metadata_presence():
    basis = solve_ghe(GHEFamily(2.2, 0.6, 0.5, 0.2))
    assert basis.valid_domain == "0 < x < 1"
    assert isinstance(basis.probe_point, complex)
    basis.y1(basis.probe_point)  # the recorded probe evaluates


# ---------------------------------------------------------------------------
# derivatives through the contiguous relations
# ---------------------------------------------------------------------------

#: (family, x, then y1 and y2 as float.hex of Re y, Im y, Re y', Im y'):
#: the members at c5a182a, which read the derivative of every special
#: function they call.
DIRECT_DERIVATIVES = [
    (BHEFamily(0.7, -1.3), 1.35,
     ("0x1.d9405ddbaad09p-5", "0x0.0p+0", "-0x1.1ba312ff51636p-3", "0x0.0p+0"),
     ("-0x1.2a36f32ba7fd2p+5", "0x0.0p+0", "-0x1.1d633d6553c42p+6", "0x0.0p+0")),
    (CHEFamily(0.8, 0.3, -0.9), 1.6,
     ("-0x1.5cbafd011ae0dp+1", "0x0.0p+0", "-0x1.a2c452897cb40p-5", "0x0.0p+0"),
     ("0x1.76404346eb7e8p-1", "0x0.0p+0", "-0x1.1006e75d1c542p-1", "0x0.0p+0")),
    (GHEFamily(2.2, 0.6, 0.3, -0.5), 0.45,
     ("0x1.fbb0dcfae1dd7p-6", "-0x1.ee54d348e3e1ep-4",
      "-0x1.34288d6a3d61fp-4", "0x1.2c0ca80d2f780p-2"),
     ("-0x1.46f97e08906e2p-3", "0x1.3e5ed78f5a8a1p-1",
      "-0x1.384b23eab7f9cp-1", "0x1.3013636bd5110p+1")),
]


def _hex(v, d):
    return tuple(t.hex() for t in (v.real, v.imag, d.real, d.imag))


@pytest.fixture
def guarded_calls(monkeypatch):
    """The number of special-function series evaluations (`_guarded`
    calls) since the fixture was set up."""
    calls = [0]
    guarded = specialfns._guarded

    def counting(*args, **kwargs):
        calls[0] += 1
        return guarded(*args, **kwargs)
    monkeypatch.setattr(specialfns, "_guarded", counting)
    return calls


@pytest.mark.parametrize("f, x, y1, y2", DIRECT_DERIVATIVES,
                         ids=["BHE", "CHE", "GHE"])
def test_members_read_only_values(f, x, y1, y2, guarded_calls):
    # each member sums the series of its two special-function values and
    # derives both derivatives from them; its values are those of c5a182a
    basis = solve_family(f)
    for member, want in ((basis.y1, y1), (basis.y2, y2)):
        guarded_calls[0] = 0
        v, d = member(x)
        assert guarded_calls[0] == 2
        assert _hex(v, d)[:2] == want[:2]


@pytest.mark.parametrize("f, x, y1, y2", DIRECT_DERIVATIVES[:2],
                         ids=["BHE", "CHE"])
def test_cancelling_relation_reads_the_direct_derivative(
        f, x, y1, y2, guarded_calls, monkeypatch):
    # with no cancellation allowed, every relation falls back to the
    # special function's own derivative: the members of c5a182a, bit for bit
    monkeypatch.setattr(solutions, "CANCEL_LIMIT", 0.0)
    basis = solve_family(f)
    for member, want in ((basis.y1, y1), (basis.y2, y2)):
        guarded_calls[0] = 0
        assert _hex(*member(x)) == want
        assert guarded_calls[0] == 4


def test_cancelling_gauss_relation_reads_the_direct_derivative(monkeypatch):
    # GHE's F' = (al be / ga) G is exact and never falls back; G' does
    monkeypatch.setattr(solutions, "CANCEL_LIMIT", 0.0)
    al, be, ga, x = 0.3 + 0.2j, -1.2, -2.7 + 0.5j, 0.63
    g = hyp2f1(al + 1, be + 1, ga + 1, x)
    f = hyp2f1(al, be, ga, x)
    pg, pf = solutions._gauss_pairs(g, f, al, be, ga, x)
    assert pg == solutions.pair_fn(hyp2f1(al + 1, be + 1, ga + 1, x))
    assert pf == (f.value, al * be / ga * g.value)


def test_pair_contiguous_falls_back_where_the_sum_cancels():
    reads = []

    def direct():
        reads.append(1)
        return 0.25 + 0.5j
    f = FnValue(2.0 + 0j, thunk=direct)
    chain = 3.0 - 1j
    contiguous, direct = solutions.pair_contiguous, solutions.pair_fn
    assert contiguous(f, 1.0, 0.5, 0.75, chain) == (2.0, 2.0 * chain)
    assert reads == []
    t = 1.0 + 1e-14  # |t1| + |t2| > CANCEL_LIMIT |t1 + t2|
    assert contiguous(f, t, -1.0, 0.75, chain) == direct(f, chain)
    assert contiguous(f, float("inf"), 1.0, 0.75, chain) == direct(f, chain)
    assert reads == [1]  # the thunk runs once; the derivative is kept


def test_ghe_residual_where_y1_crosses_zero():
    # |y1| ~ 1e-3 against |y1'| ~ 20: the residual of y1's derivative read
    # 1.06e-7 at c5a182a, above verify.RESIDUAL_TOL
    f = GHEFamily(2.6194095452919512, -1.8685561094402763,
                  0.6365800812413269, -1.822142389217305)
    rows = verify.residual_check(family_to_normal(f), solve_family(f),
                                 [0.7499999999999999])
    assert [r.status for r in rows] == ["ok", "ok"]
    assert max(r.value for r in rows) <= 1e-7
