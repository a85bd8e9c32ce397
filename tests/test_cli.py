"""Command-line front end: JSON job-spec validation with path-anchored
rejection messages, grid parsing, CSV rendering (17 significant digits,
byte-stable), per-command exit codes (0 success, 1 verification failure,
2 input error), and output-file plumbing.
"""
from __future__ import annotations

import json
from dataclasses import replace

import pytest

from heun_air import (BHEFamily, CHEFamily, GHEFamily, SchemaError,
                      family_to_normal, solve_family, verify_basis)
from heun_air.cli import (
    _VERIFY_POINTS,
    _VERIFY_WINDOWS,
    CSV_COLUMNS,
    GRID_COUNT_CAP,
    _verify_plan,
    main,
    parse_grid_arg,
    parse_spec,
)
from heun_air.forms import family_to_normal_params, normal_to_family

BHE_LIOUVILLE_DOC = {"form": "bhe_family", "sigma": 1, "tau": 1}


def _spec(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def test_parse_spec_family_payload():
    job = parse_spec(json.dumps({
        "command": "eval",
        "form": "che_family",
        "lambda": 0.8, "sigma": [0.7, -0.1], "tau": -0.2,
        "grid": {"start": 0.3, "stop": [2.0, 0.5], "count": 7},
        "branch": 1, "tol": 1e-9, "out": "table.csv",
    }))
    assert job.command == "eval"
    assert job.form == "che_family"
    assert job.payload.lam == 0.8 + 0j
    assert job.payload.sigma == 0.7 - 0.1j
    assert job.payload.tau == -0.2 + 0j
    assert job.grid == (0.3 + 0j, 2.0 + 0.5j, 7)
    assert job.branch == 1 and job.tol == 1e-9 and job.out == "table.csv"


def test_parse_spec_defaults():
    job = parse_spec(json.dumps(BHE_LIOUVILLE_DOC))
    assert job.command is None
    assert job.grid is None and job.branch == 0
    assert job.tol is None and job.out is None


@pytest.mark.parametrize("doc,fragment", [
    ("{not json", "$: not valid JSON"),
    ("[1, 2]", "$: expected a JSON object"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1, "frobnicate": 3},
     "$.frobnicate"),
    ({"form": "xhe_family", "sigma": 1}, "$.form: unknown form"),
    ({"command": "explode", "form": "bhe_family", "sigma": 1, "tau": 1},
     "$.command: unknown command"),
    ({"form": "bhe_family", "sigma": 1}, "$.tau: required"),
    ({"form": "bhe_family", "sigma": "one", "tau": 1}, "$.sigma"),
    ({"form": "bhe_family", "sigma": True, "tau": 1}, "$.sigma"),
    ({"form": "bhe_family", "sigma": [1, 2, 3], "tau": 1},
     "two-element [re, im]"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1, "branch": 1.5},
     "$.branch"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1, "branch": True},
     "$.branch"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1, "branch": -1},
     "$.branch: must be nonnegative"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1, "tol": 0}, "$.tol"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1, "tol": "tight"}, "$.tol"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1, "out": 7}, "$.out"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1, "grid": [0, 1, 5]},
     "$.grid"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1,
      "grid": {"start": 0, "stop": 1, "count": 5, "step": 2}},
     "$.grid.step"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1,
      "grid": {"start": 0, "count": 5}}, "$.grid.stop: required"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1,
      "grid": {"start": 0, "stop": 1, "count": 2.5}},
     "$.grid.count: expected an integer"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1,
      "grid": {"start": 0, "stop": 1, "count": 0}}, "$.grid.count"),
    ({"form": "bhe_family", "sigma": 1, "tau": 1,
      "grid": {"start": 0, "stop": 1, "count": GRID_COUNT_CAP + 1}},
     "$.grid.count"),
])
def test_parse_spec_rejections(doc, fragment):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(SchemaError, match=None) as err:
        parse_spec(text)
    assert fragment in str(err.value)


def test_parse_spec_form_optional_only_for_paper_suite():
    job = parse_spec(json.dumps({"command": "paper-suite"}))
    assert job.payload is None
    with pytest.raises(SchemaError) as err:
        parse_spec(json.dumps({"command": "solve"}))
    assert "$.form: required" in str(err.value)


def test_parse_grid_arg():
    assert parse_grid_arg("0.3:2:5") == (0.3 + 0j, 2 + 0j, 5)
    assert parse_grid_arg("-1:1:3") == (-1 + 0j, 1 + 0j, 3)
    for bad in ("0.3:2", "0.3:2:5:7", "a:2:5", "0:1:many", "0:1:0",
                f"0:1:{GRID_COUNT_CAP + 1}"):
        with pytest.raises(SchemaError):
            parse_grid_arg(bad)


# ---------------------------------------------------------------------------
# solve / detect / convert
# ---------------------------------------------------------------------------

def test_solve_reports_liouvillian_closed_form(tmp_path, capsys):
    code, out, _ = _run(capsys, ["solve", "--spec",
                                 _spec(tmp_path, BHE_LIOUVILLE_DOC)])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "Liouvillian"
    assert doc["formula"] == "bhe_liouvillian_erfi"
    assert doc["family"] == {"form": "bhe_family", "sigma": 1.0, "tau": 1.0}
    assert doc["derived"] == {"branch": 1.0}
    assert doc["valid_domain"] == "x > 0"


def test_detect_from_normal_parameters(tmp_path, capsys):
    doc = {"form": "bhe_normal", "B": -2, "C": -1, "D": 1, "E": -0.75}
    code, out, _ = _run(capsys, ["detect", "--spec", _spec(tmp_path, doc)])
    assert code == 0
    got = json.loads(out)
    assert got["count"] == 1
    assert got["candidates"] == [
        {"form": "bhe_family", "sigma": 1.0, "tau": -1.0}]


def test_detect_branch_pair_and_selection(tmp_path, capsys):
    # the quadratic sign ambiguity gives two family candidates; --branch
    # picks one, and indices past the end are input errors
    np_ghe = family_to_normal_params(GHEFamily(2.0, 0.5, 0.1, 0.4))
    assert len(normal_to_family(np_ghe)) == 2
    doc = {"form": "ghe_normal"}
    doc.update({k: v.real for k, v in np_ghe.values.items()})
    path = _spec(tmp_path, doc)

    code, out, _ = _run(capsys, ["detect", "--spec", path])
    assert code == 0 and json.loads(out)["count"] == 2
    code, out, _ = _run(capsys, ["solve", "--spec", path, "--branch", "1"])
    assert code == 0
    assert json.loads(out)["family"]["delta"] == pytest.approx(-0.5)
    code, _, err = _run(capsys, ["solve", "--spec", path, "--branch", "2"])
    assert code == 2 and "out of range" in err


def test_convert_family_and_back(tmp_path, capsys):
    doc = {"form": "bhe_family", "sigma": 0.9, "tau": 0.4}
    code, out, _ = _run(capsys, ["convert", "--spec", _spec(tmp_path, doc)])
    assert code == 0
    got = json.loads(out)
    normal = got["normal"]
    assert normal["form"] == "bhe_normal"
    assert normal["B"] == pytest.approx(-1.8)
    assert normal["C"] == pytest.approx(-0.16)
    assert normal["D"] == pytest.approx(-0.4)
    assert normal["E"] == -0.75
    assert got["canonical"]
    assert all(c["form"] == "bhe_canonical" and
               set(c) > {"alpha", "beta", "gamma", "delta"}
               for c in got["canonical"])

    # feeding the emitted normal block back recovers the family
    code, out, _ = _run(capsys, ["convert", "--spec",
                                 _spec(tmp_path, normal, "back.json")])
    assert code == 0
    got = json.loads(out)
    assert got["count"] >= 1
    assert got["candidates"][0]["sigma"] == pytest.approx(0.9)
    assert got["candidates"][0]["tau"] == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# eval: CSV rendering
# ---------------------------------------------------------------------------

def test_eval_csv_shape_and_determinism(tmp_path, capsys):
    path = _spec(tmp_path, BHE_LIOUVILLE_DOC)
    code, out1, _ = _run(capsys, ["eval", "--spec", path, "--grid", "0.5:2:4"])
    assert code == 0
    code, out2, _ = _run(capsys, ["eval", "--spec", path, "--grid", "0.5:2:4"])
    assert code == 0
    assert out1 == out2  # byte-identical across runs
    lines = out1.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5 and out1.endswith("\n")
    # cells carry 17 significant digits of the member values
    v1, d1 = solve_family(BHEFamily(1.0, 1.0)).y1(0.5)
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[10] == "ok"
    assert first[2] == f"{v1.real:.17g}"
    assert first[4] == f"{d1.real:.17g}"


def test_eval_prints_unsigned_zero_imaginary_parts(tmp_path, capsys):
    # sigma = -tau CHE members are the negated mirror members; for x > 1
    # their imaginary parts are exactly zero and must print as 0, not -0
    doc = {"form": "che_family", "lambda": 0.9, "sigma": 0.4, "tau": -0.4}
    code, out, _ = _run(capsys, ["eval", "--spec", _spec(tmp_path, doc),
                                 "--grid", "1.5:2.5:2"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["1.5", "2.5"]
    assert all(r[1:10:2] == ["0"] * 5 and r[10] == "ok" for r in rows)


def test_eval_spec_grid_with_complex_endpoints(tmp_path, capsys):
    doc = dict(BHE_LIOUVILLE_DOC)
    doc["grid"] = {"start": [0.5, 0.5], "stop": [2.0, 0.5], "count": 3}
    code, out, _ = _run(capsys, ["eval", "--spec", _spec(tmp_path, doc)])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["0.5"] * 3
    assert all(r[10] == "ok" for r in rows)


def test_eval_grid_flag_overrides_spec_grid(tmp_path, capsys):
    doc = dict(BHE_LIOUVILLE_DOC)
    doc["grid"] = {"start": 0.5, "stop": 2.0, "count": 3}
    path = _spec(tmp_path, doc)
    code, out, _ = _run(capsys, ["eval", "--spec", path])
    assert code == 0 and len(out.splitlines()) == 4
    code, out, _ = _run(capsys, ["eval", "--spec", path, "--grid", "0.5:2:6"])
    assert code == 0 and len(out.splitlines()) == 7


def test_eval_without_grid_is_input_error(tmp_path, capsys):
    code, out, err = _run(capsys, ["eval", "--spec",
                                   _spec(tmp_path, BHE_LIOUVILLE_DOC)])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "grid" in err


def test_eval_fully_out_of_domain_exits_two(tmp_path, capsys):
    path = _spec(tmp_path, BHE_LIOUVILLE_DOC)
    code, out, _ = _run(capsys, ["eval", "--spec", path, "--grid=-3:-1:4"])
    assert code == 2
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    assert all(r[10] == "DomainError" for r in rows)
    assert all(r[2:10] == [""] * 8 for r in rows)


def test_eval_mixed_grid_keeps_error_rows(tmp_path, capsys):
    path = _spec(tmp_path, BHE_LIOUVILLE_DOC)
    code, out, _ = _run(capsys, ["eval", "--spec", path, "--grid=-1:2:4"])
    assert code == 0
    statuses = [line.split(",")[10] for line in out.splitlines()[1:]]
    assert statuses == ["DomainError", "DomainError", "ok", "ok"]


def test_eval_writes_out_file(tmp_path, capsys):
    path = _spec(tmp_path, BHE_LIOUVILLE_DOC)
    target = tmp_path / "table.csv"
    code, out, _ = _run(capsys, ["eval", "--spec", path,
                                 "--grid", "0.5:2:4", "--out", str(target)])
    assert code == 0 and out == ""
    code, out, _ = _run(capsys, ["eval", "--spec", path, "--grid", "0.5:2:4"])
    assert target.read_text(encoding="utf-8") == out


# ---------------------------------------------------------------------------
# verify / paper-suite
# ---------------------------------------------------------------------------

def test_verify_passes_within_default_tolerance(tmp_path, capsys):
    doc = {"form": "ghe_family", "a": 2, "delta": 0.5,
           "sigma": 0.1, "tau": 0.4}
    code, out, _ = _run(capsys, ["verify", "--spec", _spec(tmp_path, doc)])
    assert code == 0
    got = json.loads(out)
    assert got["status"] == "pass"
    assert got["failures"] == []
    assert got["points_checked"] > 0
    assert got["max_residual"] <= 1e-7


def test_verify_unattainable_tolerance_exits_one(tmp_path, capsys):
    doc = {"form": "ghe_family", "a": 2, "delta": 0.5,
           "sigma": 0.1, "tau": 0.4}
    code, out, _ = _run(capsys, ["verify", "--spec", _spec(tmp_path, doc),
                                 "--tol", "1e-16"])
    assert code == 1
    got = json.loads(out)
    assert got["status"] == "fail"
    assert got["failures"]
    assert all(f["check"] == "residual" and f["status"] == "fail"
               for f in got["failures"])


def test_verify_bhe_around_its_removable_point(tmp_path, capsys):
    # x = -sigma = 1.0 is a default point and lies in the RK window; the
    # members refuse it and continue across it as other solutions, with
    # the Wronskian's sign flipped
    doc = {"form": "bhe_family", "sigma": -1.0, "tau": 0.3}
    code, out, _ = _run(capsys, ["verify", "--spec", _spec(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["status"] == "pass"

    fam = BHEFamily(-1.0, 0.3)
    basis = solve_family(fam)
    pts, windows, breaks = _verify_plan(fam, basis)
    assert pts == [0.4, 0.7, 1.4, 1.9, 2.4]
    assert windows == [(0.3, 0.88), (1.12, 2.0)] and breaks == (1.0,)

    def off(x):  # (1 + 1e-3 x) y1 solves no equation of the family
        v, dv = basis.y1(x)
        g = 1 + 1e-3 * x
        return v * g, dv * g + 1e-3 * v
    rep = verify_basis(family_to_normal(fam), replace(basis, y1=off), pts,
                       rk_window=windows, breaks=breaks)
    assert rep.status == "fail"


def test_verify_bhe_plan_away_from_its_removable_point():
    # with -sigma outside the window and the points, the defaults stand
    # and the Wronskian is checked over all points at once
    fam = BHEFamily(0.3, 0.9)
    basis = solve_family(fam)
    pts, windows, breaks = _verify_plan(fam, basis)
    assert (pts, windows) == (_VERIFY_POINTS["BHE"], _VERIFY_WINDOWS["BHE"])
    ode = family_to_normal(fam)
    split = verify_basis(ode, basis, pts, rk_window=windows, breaks=breaks)
    whole = verify_basis(ode, basis, pts, rk_window=windows)
    assert split.rows == whole.rows


@pytest.mark.parametrize("a, delta, sigma, tau", [
    (0.5, 0.5, 0.1, 0.4), (0.3, -0.8, 0.6, 0.2), (0.7, 1.2, -0.4, 0.9),
    (0.5, 0.5, 0.3, 0.3)])
def test_verify_ghe_around_its_singular_point_a(tmp_path, capsys, a, delta,
                                                sigma, tau):
    # x = a inside (0, 1) is refused by the members; at a = 0.5 it is a
    # default point and the RK window's midpoint. W is one constant across
    # it, so the plan drops the points near a and cuts the window, with no
    # break
    doc = {"form": "ghe_family", "a": a, "delta": delta, "sigma": sigma,
           "tau": tau}
    code, out, _ = _run(capsys, ["verify", "--spec", _spec(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["status"] == "pass"

    fam = GHEFamily(a, delta, sigma, tau)
    basis = solve_family(fam)
    pts, windows, breaks = _verify_plan(fam, basis)
    assert all(abs(x - a) > 0.12 for x in pts) and breaks == ()
    assert all(hi <= a - 0.12 or lo >= a + 0.12 for lo, hi in windows)

    def off(x):  # (1 + 1e-3 x) y1 solves no equation of the family
        v, dv = basis.y1(x)
        g = 1 + 1e-3 * x
        return v * g, dv * g + 1e-3 * v
    rep = verify_basis(family_to_normal(fam), replace(basis, y1=off), pts,
                       rk_window=windows)
    assert rep.status == "fail"


GHE_PTS = [0.2, 0.35, 0.5, 0.65, 0.8]
CHE_PLAN = ([0.3, 0.5, 0.7, 1.3, 1.7, 2.2, 2.8], [(0.2, 0.8), (1.2, 3.0)], ())
BHE_PLAN = ([0.4, 0.7, 1.0, 1.4, 1.9, 2.4], [(0.3, 2.0)], ())


@pytest.mark.parametrize("fam, plan", [
    # GHE: a real a is cut only where it reaches the defaults, a complex
    # one never; W is one constant across a, so there is no break
    (GHEFamily(0.12, 0.5, 0.1, 0.4), (GHE_PTS[1:], [(0.24, 0.85)], ())),
    (GHEFamily(0.5, 0.5, 0.1, 0.4),
     ([0.2, 0.35, 0.65, 0.8], [(0.15, 0.38), (0.62, 0.85)], ())),
    (GHEFamily(0.88, 0.5, 0.1, 0.4), (GHE_PTS[:-1], [(0.15, 0.76)], ())),
    *((GHEFamily(a, 0.5, 0.1, 0.4), (GHE_PTS, [(0.15, 0.85)], ()))
      for a in (0.999, 1.001, -0.05, 1.05, 0.5 + 0.05j)),
    # CHE: 0 and 1 stay clear of the defaults
    (CHEFamily(0.8, 0.2, 0.6), CHE_PLAN),
    # BHE general: cut and break at -Re sigma
    (BHEFamily(-1.0, 0.3),
     ([0.4, 0.7, 1.4, 1.9, 2.4], [(0.3, 0.88), (1.12, 2.0)], (1.0,))),
    (BHEFamily(-0.5 + 0.2j, 0.3),
     ([0.7, 1.0, 1.4, 1.9, 2.4], [(0.3, 0.38), (0.62, 2.0)], (0.5,))),
    # BHE Liouvillian: the members take x = -sigma; no cut
    (BHEFamily(-1.0, -1.0), BHE_PLAN),
    (BHEFamily(0.7, 0.7), BHE_PLAN),
])
def test_verify_plan_pinned(fam, plan):
    assert _verify_plan(fam, solve_family(fam)) == plan


def test_paper_suite_runs_clean(tmp_path, capsys):
    code, out, _ = _run(capsys, ["paper-suite"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1] == "suite: pass"
    # also accepted as a spec-file job
    code, out2, _ = _run(capsys, ["paper-suite", "--spec",
                                  _spec(tmp_path, {"command": "paper-suite"})])
    assert code == 0 and out2 == out


# ---------------------------------------------------------------------------
# input errors at the top level
# ---------------------------------------------------------------------------

def test_missing_spec_file_is_input_error(tmp_path, capsys):
    code, _, err = _run(capsys, ["solve", "--spec",
                                 str(tmp_path / "nope.json")])
    assert code == 2 and err.startswith("input error:")


def test_bad_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = _run(capsys, ["solve", "--spec", str(path)])
    assert code == 2 and "not valid JSON" in err


def test_unknown_spec_field_is_input_error(tmp_path, capsys):
    doc = dict(BHE_LIOUVILLE_DOC)
    doc["extra"] = 1
    code, _, err = _run(capsys, ["solve", "--spec", _spec(tmp_path, doc)])
    assert code == 2 and "$.extra" in err


def test_command_mismatch_is_input_error(tmp_path, capsys):
    doc = dict(BHE_LIOUVILLE_DOC)
    doc["command"] = "solve"
    code, _, err = _run(capsys, ["detect", "--spec", _spec(tmp_path, doc)])
    assert code == 2 and "spec says" in err


def test_spec_flag_required_for_equation_commands(capsys):
    code, _, err = _run(capsys, ["solve"])
    assert code == 2 and "--spec: required" in err


def test_flag_validation(tmp_path, capsys):
    path = _spec(tmp_path, BHE_LIOUVILLE_DOC)
    code, _, err = _run(capsys, ["solve", "--spec", path, "--branch=-1"])
    assert code == 2 and "--branch" in err
    code, _, err = _run(capsys, ["verify", "--spec", path, "--tol=-1e-8"])
    assert code == 2 and "--tol" in err
    code, _, err = _run(capsys, ["eval", "--spec", path, "--grid", "0:1"])
    assert code == 2 and "--grid" in err


def test_unknown_positional_command_exits_via_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
