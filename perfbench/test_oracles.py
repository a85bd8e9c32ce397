"""Tests of the benchmark's own oracles, draws and span tracer.

The oracles are checked against derivations of their own (second
derivatives and log-derivatives by mpmath.diff at high precision), so a
slip in a transcribed formula cannot hide behind agreement with the
program.
"""
from __future__ import annotations

import os
import random
import sys

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import draws  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from heun_air import (BHEFamily, CHEFamily, GHEFamily,  # noqa: E402
                      family_to_normal, rat_eval, solve_family)

CASES = [
    ("BHE", "general", (0.7, -1.3), [0.45, 1.1, 2.6]),
    ("BHE", "minus", (1.2, -1.2), [0.4, 1.3, 2.2]),
    ("CHE", "general", (0.8, 0.2, 0.6), [0.3, 0.7, 1.6, 2.7]),
    ("CHE", "general", (-1.1, 0.9, -0.4), [0.35, 1.8]),
    ("GHE", "general", (2.0, 0.5, 0.1, 0.4), [0.1, 0.5, 0.9]),
    ("GHE", "general", (2.7, -1.2, 0.3, -1.5), [0.2, 0.6]),
]
FAMILY = {"BHE": BHEFamily, "CHE": CHEFamily, "GHE": GHEFamily}


@pytest.mark.parametrize("kind,branch,p,xs", CASES)
def test_closed_forms_solve_their_normal_form(kind, branch, p, xs):
    """y'' = q y for the mpmath closed forms, with y'' by mpmath.diff."""
    with mpmath.workdps(oracles.ORACLE_DPS):
        for member in oracles._CLOSED_FORMS[(kind, branch)](p):
            for x in xs:
                xm = mpmath.mpf(x)
                ypp = complex(mpmath.diff(member, xm, 2))
                qy = oracles.q_value(kind, p, complex(x)) * complex(member(xm))
                assert abs(ypp - qy) <= 1e-15 * max(1.0, abs(qy))


@pytest.mark.parametrize("kind,branch,p,xs", CASES)
def test_closed_forms_match_the_program(kind, branch, p, xs):
    basis = solve_family(FAMILY[kind](*p))
    for x in xs:
        got = (basis.y1(x), basis.y2(x))
        assert oracles.closed_form_error(kind, branch, p, x, got) <= 1e-10
        for m in (basis.y1, basis.y2):
            assert oracles.residual(kind, p, m, x) <= oracles.RESIDUAL_TOL


@pytest.mark.parametrize("kind,branch,p,xs", CASES)
def test_residual_rejects_a_perturbed_member(kind, branch, p, xs):
    basis = solve_family(FAMILY[kind](*p))

    def off(x):
        v, d = basis.y1(x)
        return v * (1 + 1e-3 * x), d * (1 + 1e-3 * x) + 1e-3 * v
    assert max(oracles.residual(kind, p, off, x) for x in xs) > 1e-5


@pytest.mark.parametrize("kind,p", [(k, p) for k, b, p, _ in CASES
                                    if b == "general"])
def test_normal_form_matches_program_and_relations(kind, p):
    ode = family_to_normal(FAMILY[kind](*p))
    for x in (0.37 + 0.21j, 0.6 - 0.3j):
        want = oracles.q_value(kind, p, x)
        assert abs(rat_eval(ode.c0, x) - want) <= 1e-10 * max(1, abs(want))
    assert oracles.relation_defect(kind, oracles.normal_params(kind, p)) <= 1e-12


@pytest.mark.parametrize("kind,p", [(k, p) for k, b, p, _ in CASES
                                    if b == "general"])
def test_nonlocal_formulas_against_differentiation(kind, p):
    """The log-derivative formulas of nonlocal_expected against
    mpmath.diff of the seed coefficients."""
    (n1, d1), (n0, d0) = oracles.seed_coefficients(kind, p)

    def rat(num, den):
        return lambda x: (mpmath.polyval(list(reversed(num)), x)
                          / mpmath.polyval(list(reversed(den)), x))
    c1, c0 = rat(n1, d1), rat(n0, d0)
    with mpmath.workdps(40):
        def big_c1(x):
            return mpmath.diff(c0, x) / c0(x) - c1(x)
        for x in (mpmath.mpc(0.37, 0.21), mpmath.mpc(1.7, -0.4)):
            lp = mpmath.diff(c0, x) / c0(x)
            want = ((big_c1(x), c0(x)),
                    (lp + big_c1(x),
                     mpmath.diff(big_c1, x) + c0(x) - lp * big_c1(x)))
            got = oracles.nonlocal_expected(kind, p, complex(x))
            for g_pair, w_pair in zip(got, want):
                for g, w in zip(g_pair, w_pair):
                    assert oracles.rel_dev(g, complex(w)) <= 1e-12


def test_recovery_error_takes_the_nearest_candidate():
    assert oracles.recovery_error((1.0, 2.0), [(3.0, 3.0), (1.0, 2.0)]) == 0.0
    assert oracles.recovery_error((1.0, 2.0), []) == float("inf")
    assert oracles.recovery_error((1.0, 2.0), [(1.0, 2.5)]) == 0.25


@pytest.mark.parametrize("kind", draws.KINDS)
@pytest.mark.parametrize("branch", draws.BRANCHES)
def test_draws_are_seeded_and_filtered(kind, branch):
    def take(seed):
        s = draws.Stream(random.Random(seed), kind, branch)
        return [next(s) for _ in range(40)]
    first = take("a")
    assert first == take("a")
    assert first != take("b")
    for d in first:
        FAMILY[kind](*d.params)
        sigma, tau = d.params[-2:]
        assert all(-2 <= v <= 2 for v in d.params[kind == "GHE":])
        if branch == draws.GENERAL:
            assert abs(sigma * sigma - tau * tau) > draws.GENERAL_GAP
        else:
            assert tau == (sigma if branch == draws.PLUS else -sigma)
        if kind == "GHE":
            assert 1.5 <= d.params[0] <= 3.0


def test_bhe_window_filter():
    s = draws.Stream(random.Random(3), "BHE", draws.GENERAL, (0.18, 2.52))
    assert all(not 0.18 < -next(s).params[0] < 2.52 for _ in range(50))


def test_tracer_records_nesting_and_restores_attributes():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    tr = spans.Tracer()
    original = Box.inner
    tr._patch(Box, "inner", "m.inner")
    tr._patch(Box, "outer", "m.outer")
    tr.op = 0
    assert Box.outer(1) == 4
    a = tr.arrays()
    assert [tr.names[i] for i in a["name"]] == ["m.outer", "m.inner"]
    assert list(a["parent"]) == [-1, 0]
    assert list(a["op"]) == [0, 0]
    assert a["start"][0] <= a["start"][1] <= a["end"][1] <= a["end"][0]
    tr.uninstall()
    assert Box.inner is original
