"""Accuracy of the GHE non-local maps and of the GHE p-route.

* The coefficients of `mobius_nonlocal` and `companion_p_ode` on the
  hypergeometric seed equation of seeded GHE general-branch draws
  (`perfbench/draws.py`), against the benchmark's log-derivative closed
  forms (`perfbench/oracles.nonlocal_expected`), relative to
  max(1, |closed form|), at the benchmark's two non-local points and at
  0.5 + 0.5i.
* The span of the p-route basis (`solve_via_p_route`) on seeded GHE
  general-branch draws: each direct member is fitted as a combination of
  the p-route members from value and derivative at x = 0.5 and compared
  with them at eight more points of [0.15, 0.85], as acceptance battery 4
  does on its own draws.

Each bound is the worst error at this test's introduction, rounded up to
the next 1, 2 or 5 of its decade; the comment beside it gives that worst
value. The benchmark's modules are imported without writing bytecode.
"""
from __future__ import annotations

import random

import pytest

from heun_air import (GHEFamily, abel, rat_eval, solve_family,
                      solve_via_p_route)
from heun_air.solutions import _pfq_seed_ode
from test_acceptance import _fit_and_check
from test_member_accuracy import load_bench

#: Worst |got - want| / max(1, |want|) over both coefficients.
IMAGE_BOUND = 5e-14      # 3.6e-14
COMPANION_BOUND = 5e-6   # 4.0e-6, c0 at x = 1.7 - 0.4i next to x = a
#: Worst fit mismatch, relative to max(1, |y|) and max(1, |y'|).
SPAN_BOUND = 1e-8        # 6.5e-9

NONLOCAL_DRAWS = 200
SPAN_DRAWS = 40
EXTRA_POINT = 0.5 + 0.5j
SPAN_POINTS = [0.15 + 0.7 * k / 8 for k in range(9)]


@pytest.fixture(scope="module")
def bench():
    return load_bench()


def _ghe_draws(draws, tag: str, n: int):
    stream = draws.Stream(random.Random(tag), "GHE", draws.GENERAL)
    return [next(stream) for _ in range(n)]


def test_ghe_nonlocal_maps_against_closed_forms(bench):
    run, draws, oracles = bench
    worst = {"image": 0.0, "companion": 0.0}
    for d in _ghe_draws(draws, "nonlocal-accuracy", NONLOCAL_DRAWS):
        image = abel.mobius_nonlocal(_pfq_seed_ode(GHEFamily(*d.params)))
        companion = abel.companion_p_ode(image)
        for x in (*run.NONLOCAL_POINTS, EXTRA_POINT):
            want_image, want_companion = oracles.nonlocal_expected(
                "GHE", d.params, x)
            for name, ode, want in (("image", image, want_image),
                                    ("companion", companion, want_companion)):
                for r, w in zip((ode.c1, ode.c0), want):
                    worst[name] = max(worst[name],
                                      oracles.rel_dev(rat_eval(r, x), w))
    assert worst["image"] <= IMAGE_BOUND, worst
    assert worst["companion"] <= COMPANION_BOUND, worst


def test_ghe_p_route_spans_the_direct_basis(bench):
    _, draws, _ = bench
    worst, where = 0.0, None
    fit_at, rest = SPAN_POINTS[4], SPAN_POINTS[:4] + SPAN_POINTS[5:]
    for d in _ghe_draws(draws, "p-route-span", SPAN_DRAWS):
        f = GHEFamily(*d.params)
        direct, p_route = solve_family(f), solve_via_p_route(f)
        for y in (direct.y1, direct.y2):
            err = _fit_and_check(y, p_route.y1, p_route.y2, fit_at, rest)
            if err > worst:
                worst, where = err, d.params
    assert worst <= SPAN_BOUND, f"{worst:.3g} on {where}"
