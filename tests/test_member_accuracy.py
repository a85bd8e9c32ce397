"""Accuracy of the general-branch members, value and derivative.

Each family's two members are evaluated on seeded general-branch draws of
the benchmark's `tabulate` streams (`perfbench/draws.py`), at every other
point of its `tabulate` grid and at the points of `heun-air verify`, and on
a few fixed draws and points where the members' two special-function
values nearly cancel in their derivatives:

* BHE at |x + sigma| = 0.12, the benchmark's margin around the removable
  point, where the Kummer argument w = (x + sigma)^2 is small;
* GHE at x = 0.9 and 0.95, near the singular point x = 1, where the
  Gauss series converges slowest (every other grid point stops at 0.85):
  added to those grid points, with a bound of its own;
* BHE with A = (tau^2 - sigma^2)/4 within 1e-6 of 1/2, where A - b and
  b - A vanish (b = 1/2);
* CHE with kappa + nu within 1e-3 of 1/2, where the Whittaker indices'
  factors 1/2 - kappa - nu and kappa + nu - 1/2 vanish.

Both are compared with the benchmark's 32-digit mpmath closed forms
(`perfbench/oracles.py`, derivatives by `mpmath.diff`), relative to
max(|closed form|, 1e-3 times the member's largest |y| or |y'| over its
point set), the scale rule of the benchmark's `tabulate` check. Each family
has one bound: the worst error at c5a182a, rounded up to the next 1, 2 or
5 of its decade; the GHE points near x = 1 have one of their own, by the
same rule at 6d6dce3. The benchmark's modules are imported without writing
bytecode.
"""
from __future__ import annotations

import importlib.util
import math
import os
import random
import sys

import pytest

import heun_air
from heun_air import BHEFamily, CHEFamily, GHEFamily

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 20

#: Per family: the bound, and in the comment the worst error at c5a182a.
BOUNDS = {
    "BHE": 5e-11,  # 4.1e-11, (1.1770543609861943, -0.9898068867061438), x = 2.7
    "CHE": 2e-13,  # 1.2e-13, (0.6523093148989929, 0.8917187935108855,
                   #          1.4404385537663122), x = 0.3
    "GHE": 2e-14,  # 1.3e-14, (2.289604179339847, 1.8557796348907676,
                   #          1.54197876171183, 0.8367081785993156), x = 0.8
}

#: GHE's points near x = 1, and their bound; in the comment the worst error
#: at 6d6dce3.
NEAR_ONE = [0.9, 0.95]
NEAR_ONE_BOUND = 5e-14  # 3.28e-14, (1.9146041793398472, -1.255331476220344,
                        #           -0.05802123828816996,
                        #           -0.38778161731905225), x = 0.95

#: Seeded draws per family.
DRAWS = {"BHE": 8, "CHE": 5, "GHE": 8}

#: Fixed draws where a coefficient of the contiguous relations vanishes.
EDGE_DRAWS = {
    # A = (tau^2 - sigma^2)/4 = 1/2 -+ 2.5e-7
    "BHE": [(0.5, math.sqrt(2.25 - 1e-6)), (-1.0, math.sqrt(3.0 + 1e-6))],
    # kappa + nu = 1/2 + 7e-4 and 1/2 - 3e-4
    "CHE": [(0.7, 1.5, math.sqrt(2.25 + 1e-3)),
            (-1.3, 1.2, math.sqrt(1.44 + 1e-4))],
    "GHE": [],
}

#: Distance from -sigma of the BHE points added around the removable point.
NEAR_REMOVABLE = 0.12


def load_bench():
    """perfbench/run.py (as a module of its own name), draws.py and
    oracles.py."""
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(PERFBENCH, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)  # puts perfbench/ on sys.path
        import draws
        import oracles
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    return run, draws, oracles


@pytest.fixture(scope="module")
def bench():
    return load_bench()


def _point_sets(run, d) -> list[list[float]]:
    """Every other `tabulate` grid point and the `heun-air verify` points
    of a draw, clear of BHE's removable point and CHE's singular point by
    the grids' margins, with the points next to the removable point added
    to the BHE grid."""
    grid = run._grid(d)[::2]
    points = list(run.VERIFY_POINTS[d.kind])
    if d.kind == "BHE":
        r = -d.params[0]
        points = [x for x in points if abs(x - r) > run.BHE_SKIP]
        grid += [x for x in (r - NEAR_REMOVABLE, r + NEAR_REMOVABLE)
                 if x > 0.05]
    elif d.kind == "CHE":
        points = [x for x in points if abs(x - 1.0) > run.CHE_SKIP]
    return [grid, points]


def _draws(draws, kind: str):
    stream = draws.Stream(random.Random(f"{SEED}:member-accuracy:{kind}"),
                          kind, draws.GENERAL)
    out = [next(stream) for _ in range(DRAWS[kind])]
    return out + [draws.Draw(kind, draws.GENERAL, p) for p in EDGE_DRAWS[kind]]


def worst_error(bench, kind: str, point_sets=_point_sets) -> tuple[float, str]:
    """The worst error of a family's members over point_sets(run, draw) of
    each draw, and where it is."""
    run, draws, oracles = bench
    family = {"BHE": BHEFamily, "CHE": CHEFamily, "GHE": GHEFamily}[kind]
    worst, where = 0.0, ""
    for d in _draws(draws, kind):
        basis = heun_air.solve_family(family(*d.params))
        for xs in point_sets(run, d):
            got = [(basis.y1(x), basis.y2(x)) for x in xs]
            scales = tuple(max(max(abs(v), abs(dv)) for v, dv in
                               (g[m] for g in got)) for m in (0, 1))
            for x, g in zip(xs, got):
                err = oracles.closed_form_error(kind, d.branch, d.params, x,
                                                g, scales)
                if err > worst:
                    worst, where = err, f"{d.params} at x = {x!r}"
    return worst, where


@pytest.mark.parametrize("kind", ["BHE", "CHE", "GHE"])
def test_members_against_closed_forms(bench, kind):
    worst, where = worst_error(bench, kind)
    assert worst <= BOUNDS[kind], f"{worst:.3g} on {where}"


def test_ghe_members_near_one(bench):
    worst, where = worst_error(
        bench, "GHE", lambda run, d: [run._grid(d)[::2] + NEAR_ONE])
    assert worst <= NEAR_ONE_BOUND, f"{worst:.3g} on {where}"
