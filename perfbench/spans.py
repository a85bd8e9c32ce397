"""Span tracing around the program's module boundaries.

The traced run replaces public functions by wrappers on the module
attributes that callers look up (for example `solutions.kummer_u`, and
`specialfns.hyp1f1` for the calls inside `whittaker`), and wraps basis
members through the `SolutionBasis` that `solve_family` returns. Each
call becomes a span: name, start, end, parent span and op id, appended
to compact arrays in memory and written out once when the run ends.
Nothing is patched unless `Tracer.install` is called, so the untraced run
executes the program unchanged.
"""
from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

SPECIAL_FNS = ("hyp1f1", "kummer_u", "whittaker", "hyp2f1", "erf_like",
               "inc_gamma_upper", "inc_beta")
FORMS_FNS = ("family_to_normal", "extract_normal_params", "normal_to_family",
             "family_to_canonical", "canonical_to_family")
ABEL_FNS = ("mobius_nonlocal", "companion_p_ode")
VERIFY_FNS = ("verify_basis", "residual_check", "wronskian_check",
              "rk45_compare")
RATFUN_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
              "scale")
LAYERS = ("specialfns", "solutions", "verify", "numkernel", "forms", "abel",
          "cli")

#: A special-function call slower than this is taken for an mpmath rerun
#: (the double path costs 30-113 us, a rerun milliseconds).
SLOW_CALL_S = 1e-3


class Tracer:
    """Records spans into parallel arrays; `op` is set by the runner."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack, start, end = self._stack, self.start, self.end
        names, parents, ops = self.name, self.parent, self.op_ids

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr: str, name: str, wrapper=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper or self.wrap(name, original))

    def install(self, heun_air) -> None:
        """Patch every traced boundary of the imported package."""
        H = heun_air
        for fn in SPECIAL_FNS:
            self._patch(H.solutions, fn, f"specialfns.{fn}")
        for fn in ("hyp1f1", "kummer_u"):  # called inside whittaker
            self._patch(H.specialfns, fn, f"specialfns.{fn}")
        for fn in FORMS_FNS:
            self._patch(H.forms, fn, f"forms.{fn}")
            if hasattr(H.cli, fn):
                self._patch(H.cli, fn, f"forms.{fn}")
        for fn in ABEL_FNS:
            self._patch(H.abel, fn, f"abel.{fn}")
        for fn in VERIFY_FNS:
            self._patch(H.verify, fn, f"verify.{fn}")
        for mod in (H.verify, H.forms, H.abel, H.solutions):
            self._patch(mod, "rat_eval", "numkernel.rat_eval")
        for op in RATFUN_OPS:
            self._patch(H.numkernel.RatFun, op, "numkernel.ratfun_arith")
        for mod in (H.forms, H.abel):
            self._patch(mod, "rat_derivative", "numkernel.ratfun_arith")
        self._patch(H.cli, "render_csv", "cli.render_csv")
        self._patch(H.cli, "run", "cli.run")

        member = "solutions.member"
        solve = self.wrap("solutions.solve_family", H.solutions.solve_family)

        def solve_family(f):
            b = solve(f)
            return dataclasses.replace(b, y1=self.wrap(member, b.y1),
                                       y2=self.wrap(member, b.y2))
        self._patch(H.solutions, "solve_family", "", solve_family)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op_ids, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, op_seconds: float, rows_rendered: int,
                  overhead_pct: float) -> dict:
    """Per-layer metrics from the spans of the timed ops (op id >= 0)."""
    a = tracer.arrays()
    n = len(a["start"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=n) if n else np.zeros(0)
    self_t = dur - child
    timed = a["op"] >= 0
    ids = tracer._ids

    def mask(name):
        nid = ids.get(name, -1)
        return timed & (a["name"] == nid)

    def under(name, parent_name):
        pid = ids.get(parent_name, -1)
        m = mask(name) & has_parent
        m[m] = a["name"][a["parent"][m]] == pid
        return m

    out = {}

    def put(key, value, unit):
        out[key] = {"value": float(value), "unit": unit}

    for fn in SPECIAL_FNS:
        m = mask(f"specialfns.{fn}")
        d = dur[m]
        put(f"specialfns.{fn}.calls", m.sum(), "count")
        put(f"specialfns.{fn}.self_ms", self_t[m].sum() * 1e3, "ms")
        put(f"specialfns.{fn}.us_p50", _pct(d, 50) * 1e6, "us")
        put(f"specialfns.{fn}.us_p99", _pct(d, 99) * 1e6, "us")
        put(f"specialfns.{fn}.slow_share",
            100.0 * (d > SLOW_CALL_S).mean() if len(d) else 0.0, "%")
    m = mask("solutions.solve_family")
    put("solutions.solve_family.calls", m.sum(), "count")
    put("solutions.solve_family.ms_p50", _pct(dur[m], 50) * 1e3, "ms")
    m = mask("solutions.member")
    put("solutions.member.calls", m.sum(), "count")
    put("solutions.member.self_ms", self_t[m].sum() * 1e3, "ms")
    put("solutions.member.self_us_p50", _pct(self_t[m], 50) * 1e6, "us")

    put("verify.verify_basis.ms_p50",
        _pct(dur[mask("verify.verify_basis")], 50) * 1e3, "ms")
    for fn in ("residual_check", "wronskian_check", "rk45_compare"):
        put(f"verify.{fn}.self_ms", self_t[mask(f"verify.{fn}")].sum() * 1e3,
            "ms")
    put("verify.rk45_compare.share",
        100.0 * dur[mask("verify.rk45_compare")].sum() / op_seconds
        if op_seconds else 0.0, "%")
    put("verify.rk45_compare.member_ms",
        dur[under("solutions.member", "verify.rk45_compare")].sum() * 1e3, "ms")
    # the right-hand side evaluates c1 and c0: two rat_eval calls each
    put("verify.rk45_compare.rhs_evals",
        under("numkernel.rat_eval", "verify.rk45_compare").sum() // 2, "count")

    m = mask("numkernel.rat_eval")
    put("numkernel.rat_eval.calls", m.sum(), "count")
    put("numkernel.rat_eval.self_ms", self_t[m].sum() * 1e3, "ms")
    put("numkernel.rat_eval.us_p50", _pct(dur[m], 50) * 1e6, "us")
    m = mask("numkernel.ratfun_arith")
    put("numkernel.ratfun_arith.calls", m.sum(), "count")
    put("numkernel.ratfun_arith.self_ms", self_t[m].sum() * 1e3, "ms")

    for mod, fns in (("forms", FORMS_FNS), ("abel", ABEL_FNS)):
        for fn in fns:
            m = mask(f"{mod}.{fn}")
            put(f"{mod}.{fn}.calls", m.sum(), "count")
            put(f"{mod}.{fn}.us_p50", _pct(dur[m], 50) * 1e6, "us")

    m = mask("cli.render_csv")
    put("cli.render_csv.us_per_row",
        dur[m].sum() * 1e6 / rows_rendered if rows_rendered else 0.0, "us")
    put("cli.run.us_p50", _pct(dur[mask("cli.run")], 50) * 1e6, "us")

    layer_of = np.array([tracer.names[i].split(".")[0]
                         for i in range(len(tracer.names))] or [""])
    attributed = 0.0
    for layer in LAYERS:
        nids = [i for i, lay in enumerate(layer_of) if lay == layer]
        s = self_t[timed & np.isin(a["name"], nids)].sum() if nids else 0.0
        attributed += s
        put(f"share.{layer}", 100.0 * s / op_seconds if op_seconds else 0.0,
            "%")
    put("share.other",
        100.0 * (op_seconds - attributed) / op_seconds if op_seconds else 0.0,
        "%")
    put("trace.overhead_pct", overhead_pct, "%")
    return out
