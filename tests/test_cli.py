"""Command-line surface: exit codes, output files, schema conformance."""

import csv
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from pentacc import cli, equations, geometry, intervals
from pentacc.cli import main
from pentacc.geometry import SymmetricShape, regular_pentagon_y4, symmetric_coords
from pentacc.tropical import build_system


def load_schema(name: str) -> dict:
    text = resources.files("pentacc").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def check_schema(value, schema, defs=None):
    """Small validator covering the subset of JSON Schema the outputs use."""
    defs = defs if defs is not None else schema.get("$defs", {})
    if "$ref" in schema:
        target = schema["$ref"].split("/")[-1]
        return check_schema(value, defs[target], defs)
    if "anyOf" in schema:
        errors = []
        for sub in schema["anyOf"]:
            try:
                check_schema(value, sub, defs)
                return
            except AssertionError as exc:
                errors.append(str(exc))
        raise AssertionError(f"no anyOf branch matched: {errors}")
    if "enum" in schema:
        assert value in schema["enum"], f"{value!r} not in {schema['enum']}"
        return
    kind = schema.get("type")
    if kind == "object":
        assert isinstance(value, dict), f"expected object, got {type(value)}"
        for key in schema.get("required", []):
            assert key in value, f"missing required key {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                check_schema(value[key], sub, defs)
    elif kind == "array":
        assert isinstance(value, list), f"expected array, got {type(value)}"
        if "minItems" in schema:
            assert len(value) >= schema["minItems"]
        if "maxItems" in schema:
            assert len(value) <= schema["maxItems"]
        if "items" in schema:
            for item in value:
                check_schema(item, schema["items"], defs)
    elif kind == "number":
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind == "integer":
        assert isinstance(value, int) and not isinstance(value, bool)
        assert value >= schema.get("minimum", value)
    elif kind == "boolean":
        assert isinstance(value, bool)
    elif kind == "string":
        assert isinstance(value, str)
    elif kind == "null":
        assert value is None


def test_symmetric_scan_records_and_schema(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["symmetric-scan", "--A", "2", "--branch", "A",
                 "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    check_schema(records, load_schema("root_records.schema.json"))
    assert len(records) == 2
    labels = {r["sign_type"] for r in records}
    assert labels == {"A2", "A4"}
    a2 = [r for r in records if r["sign_type"] == "A2"][0]
    assert a2["masses"][3] == pytest.approx(0.34199, abs=1e-4)


def test_symmetric_scan_branch_b(tmp_path, capsys):
    out = tmp_path / "scanb.json"
    assert main(["symmetric-scan", "--A", "3", "--branch", "B",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    records = json.loads(out.read_text())
    assert len(records) == 1
    assert records[0]["sign_type"] == "B2"
    # --stats logs the window's tangency guard on stderr and leaves the
    # output as it was
    with_stats = tmp_path / "scanb_stats.json"
    assert main(["symmetric-scan", "--A", "3", "--branch", "B",
                 "--out", str(with_stats), "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert with_stats.read_bytes() == out.read_bytes()
    head, tail = captured.err.split(" at A=3.0: ")
    assert head.startswith("pentacc.symmetric: tangency guard on y4 [0.13397")
    assert tail.startswith("seeds 73, boxes per depth [73, 12, 12, ")
    assert ", passes 6, unresolved cells 0, " in tail and tail.endswith(" s\n")
    # the window's one root enclosure was checked for simplicity, and passed
    assert ", roots 1, not simple 0, " in tail


def test_symmetric_scan_quartic_has_four_records(tmp_path):
    out = tmp_path / "scan4.json"
    assert main(["symmetric-scan", "--A", "4", "--branch", "A",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 4


def test_symmetric_scan_empty_window_exits_3(tmp_path):
    out = tmp_path / "empty.json"
    code = main(["symmetric-scan", "--A", "2", "--branch", "A",
                 "--window", "a3", "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text()) == []


def test_symmetric_scan_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    main(["symmetric-scan", "--A", "3", "--branch", "A", "--out", str(out1)])
    main(["symmetric-scan", "--A", "3", "--branch", "A", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_family_svg_emission(tmp_path):
    out = tmp_path / "scan.json"
    svg = tmp_path / "family.svg"
    main(["symmetric-scan", "--A", "3", "--branch", "A",
          "--out", str(out), "--svg-out", str(svg)])
    text = svg.read_text()
    assert text.startswith("<svg") and 'class="branch-A"' in text \
        and 'class="branch-B"' in text


def test_certify_unique_root_exit_codes(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["certify", "--mode", "unique-root", "--branch", "A",
                 "--window", "a2", "--A-range", "2,3", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    cert = json.loads(out.read_text())
    check_schema(cert, load_schema("certificate.schema.json"))
    assert cert["certified"] is True
    # --stats adds the stats on stderr and leaves the output as it was
    with_stats = tmp_path / "cert_stats.json"
    assert main(["certify", "--mode", "unique-root", "--branch", "A",
                 "--window", "a2", "--A-range", "2,3", "--out", str(with_stats),
                 "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert with_stats.read_bytes() == out.read_bytes()
    prefix = "pentacc: certificate stats: "
    assert captured.err.startswith(prefix)
    assert json.loads(captured.err[len(prefix):]) == cert["stats"]
    # the stats name the rounding path that the interval kernels ran
    assert cert["stats"]["rounding"] == intervals._rounding()
    # and count the y4 stage's runs and the y4 intervals they computed
    assert (cert["stats"]["stage1_runs"], cert["stats"]["stage1_columns"]) == (2, 81)
    # at A in [1000, 1100] F overflows on part of the strip's grid and no
    # interior crossing is found: exit 2, and no warning on stderr
    assert main(["certify", "--window", "a2", "--A-range", "1000,1100"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["certified"] is False


def test_certify_undecided_exit_code(tmp_path):
    out = tmp_path / "cert2.json"
    code = main(["certify", "--mode", "no-common-zero", "--branch", "A",
                 "--window", "a4", "--A-range", "3,3.3",
                 "--max-depth", "18", "--out", str(out)])
    assert code == 2
    cert = json.loads(out.read_text())
    check_schema(cert, load_schema("certificate.schema.json"))
    assert cert["certified"] is False
    assert cert["undecided"]
    stats = cert["stats"]
    assert stats["undecided_domain"] + stats["undecided_straddle"] == len(cert["undecided"])
    assert stats["max_depth"] == 18


def test_certify_tree_box_budget_exit_code(tmp_path, monkeypatch, capsys):
    # every enclosure over A in [400, 500] straddles zero down to depth 10;
    # under a budget of 200 tree boxes the certificate stops undecided
    import pentacc.intervals as intervals
    from pentacc.certify import certify_no_common_zero
    from pentacc.intervals import Box, Interval
    from pentacc.symmetric import window_for
    monkeypatch.setattr(intervals, "_MAX_TREE_BOXES", 200)
    out = tmp_path / "cert.json"
    argv = ["certify", "--mode", "no-common-zero", "--branch", "A", "--window", "a2",
            "--A-range", "400,500"]
    code = main(argv + ["--out", str(out)])
    assert code == 2
    # the streamed file, and stdout with one newline, hold the bytes of the
    # whole certificate text
    lo, hi = window_for("A", "A2", inset=1e-6)
    text = json.dumps(certify_no_common_zero(
        Box(Interval(lo, hi), Interval(400.0, 500.0)), "A").to_json(), indent=1)
    assert out.read_text() == text
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().out == text + "\n"
    cert = json.loads(out.read_text())
    check_schema(cert, load_schema("certificate.schema.json"))
    stats = cert["stats"]
    assert cert["certified"] is False
    assert stats["undecided_budget"] == len(cert["undecided"]) == 64
    assert stats["box_evals"] == 127 and stats["max_depth"] == 6


def test_tropical_verify_tables(tmp_path):
    out = tmp_path / "trop.json"
    assert main(["tropical-verify", "--A", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    check_schema(report, load_schema("tropical_report.schema.json"))
    assert report["all_passed"] is True


def test_tropical_verify_single_ray_reject(tmp_path):
    out = tmp_path / "ray.json"
    code = main(["tropical-verify", "--A", "3", "--ray", "1,0,0,0,0,0",
                 "--out", str(out)])
    assert code == 3
    data = json.loads(out.read_text())
    assert data["in_prevariety"] is False and data["witness"]


def test_tropical_verify_rejects_irrational(tmp_path, capsys):
    assert main(["tropical-verify", "--A", "2.7182",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == ("error: exponent 2.7182 is a decimal; give it as a "
                                       "fraction p/q, such as 5/2, for the exact tables\n")


def test_tropical_verify_stats(tmp_path, capsys):
    out = tmp_path / "trop.json"
    assert main(["tropical-verify", "--A", "3", "--A", "2", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "")
    reports = json.loads(out.read_text())
    for report in reports:
        check_schema(report, load_schema("tropical_report.schema.json"))
    # --stats reports on stderr only; the output file stays byte for byte the same
    with_stats = tmp_path / "trop_stats.json"
    assert main(["tropical-verify", "--A", "3", "--A", "2", "--out", str(with_stats),
                 "--stats"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert with_stats.read_bytes() == out.read_bytes()
    lines = captured.err.splitlines()
    assert len(lines) == 2
    for line, report in zip(lines, reports):
        head, stats = line.split(" s, stats ")
        assert head.startswith(f"pentacc: tropical tables at A={report['A']}: ")
        assert float(head.rsplit(" ", 1)[1]) >= 0
        assert json.loads(stats) == report["stats"]
    # a single ray logs its wall time, the polynomials examined and the witness
    assert main(["tropical-verify", "--A", "3", "--ray", "1,0,0,0,0,0", "--stats"]) == 3
    captured = capsys.readouterr()
    ray = json.loads(captured.out)
    assert ray["in_prevariety"] is False
    head, stats = captured.err.split(" s, stats ")
    assert head.startswith("pentacc: tropical ray at A=3: ")
    labels = [lab for lab, _ in build_system(3)]
    assert json.loads(stats) == {"polynomials_examined": labels.index(ray["witness"]) + 1,
                                 "witness": ray["witness"]}
    assert main(["tropical-verify", "--A", "3", "--ray", "0,0,0,0,0,0", "--stats"]) == 0
    stats = capsys.readouterr().err.split(" s, stats ")[1]
    assert json.loads(stats) == {"polynomials_examined": 31, "witness": None}


# SHA-256 of the stdout of ``tropical-verify --A 3 --A 5/2``: both reports
# with their stats, in the printed key order; CI's smoke step checks the same
# digest through ``python -m pentacc``
TROPICAL_STDOUT_SHA256 = "96fb11b3e3af7b1c99ef123b8c60ae0ff94f7ef15d4bc66dcfd736fc9687c2d1"


def test_tropical_verify_stdout_pinned(capsys):
    assert main(["tropical-verify", "--A", "3", "--A", "5/2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == TROPICAL_STDOUT_SHA256


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "pentacc", "tropical-verify", "--A", "3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


def test_certify_refuses_a_range_whose_midpoint_overflows_without_a_warning(tmp_path):
    # 1e308 + 1.7e308 overflows: the range is refused before any array
    # arithmetic, so that under PYTHONWARNINGS=error the entry point prints
    # one error line and exits 1, with no overflow warning's traceback
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-m", "pentacc", "certify", "--mode",
                           "no-common-zero", "--window", "0.2,0.3", "--A-range", "1e308,1.7e308"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: exponent range") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and not proc.stdout
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, code", [
    pytest.param(["symmetric-scan", "--A", "3", "--branch", "B"], 0, id="symmetric-scan"),
    pytest.param(["certify", "--window", "a2", "--A-range", "2,3"], 0, id="certify"),
    pytest.param(["tropical-verify", "--A", "7/3", "--ray", "1/3,-2,1/3,-2,1/3,1/3"], 0,
                 id="tropical-verify"),
    pytest.param(["evaluate", "--config", "pentagon.json"], 0, id="evaluate"),
    pytest.param(["evaluate", "--config", "collision.json"], 1, id="evaluate-error"),
    pytest.param(["bifurcation", "--A-range", "2,2.5"], 3, id="bifurcation"),
])
def test_json_document_on_stdout_is_the_out_file_and_a_newline(argv, code, capsys,
                                                                monkeypatch, tmp_path):
    # every JSON document goes out through one writer: to --out, or the same
    # bytes to stdout with one final newline; a refused input writes neither
    monkeypatch.chdir(tmp_path)
    points = symmetric_coords(SymmetricShape(regular_pentagon_y4(), "A")).points.tolist()
    Path("pentagon.json").write_text(json.dumps({"points": points}))
    Path("collision.json").write_text(json.dumps({"points": [points[0], *points[:4]]}))
    assert main([*argv, "--out", "doc.json"]) == code
    assert capsys.readouterr().out == ""
    assert main(argv) == code
    out = capsys.readouterr().out
    if code == 1:
        assert out == "" and not Path("doc.json").exists()
        return
    assert out == Path("doc.json").read_bytes().decode() + "\n"
    json.loads(out)


def test_evaluate_pentagon(tmp_path):
    config = symmetric_coords(SymmetricShape(regular_pentagon_y4(), "A"))
    payload = {"points": config.points.tolist(), "masses": [1.0] * 5, "A": 3}
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "residuals.json"
    assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    check_schema(result, load_schema("residual_report.schema.json"))
    by_system = {r["system"]: r for r in result["reports"]}
    assert by_system["laura_andoyer"]["max_abs"] < 1e-12
    assert by_system["albouy_chenciner"]["max_abs"] < 1e-12


def test_evaluate_perturbed_pentagon_nonzero(tmp_path):
    config = symmetric_coords(SymmetricShape(regular_pentagon_y4(), "A"))
    pts = config.points.copy()
    pts[2, 0] += 0.03
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps({"points": pts.tolist(), "A": 3}))
    out = tmp_path / "res.json"
    assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    by_system = {r["system"]: r for r in result["reports"]}
    assert by_system["laura_andoyer"]["max_abs"] > 1e-6


def test_evaluate_distances_input(tmp_path):
    g = (1 + math.sqrt(5)) / 2
    path = tmp_path / "classes.json"
    path.write_text(json.dumps({"distances": [1.0, g, g, g, g, g], "A": 3}))
    out = tmp_path / "res.json"
    assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    check_schema(result, load_schema("residual_report.schema.json"))
    systems = {r["system"] for r in result["reports"]}
    assert "albouy_chenciner" in systems
    assert all(r["max_abs"] < 1e-12 for r in result["reports"])


_PENTAGON_POINTS = symmetric_coords(SymmetricShape(regular_pentagon_y4(), "A")).points.tolist()
_GOLDEN = (1 + math.sqrt(5)) / 2


def _evaluate_error(tmp_path, capsys, config) -> tuple:
    """Exit code and (stdout, stderr) of ``evaluate --config config --out``,
    with a check that the refused input left no --out file."""
    out = tmp_path / "residuals.json"
    code = main(["evaluate", "--config", str(config), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr()


def test_evaluate_collision_exits_1(tmp_path, capsys):
    # an input error is one error line on stderr, as for every command, and
    # no {"error": ...} document, which no schema describes: a unit square
    # with a doubled corner, and the pentagon with its first body doubled
    path = tmp_path / "bad.json"
    for points in ([[0, 0], [0, 0], [1, 0], [1, 1], [0, 1]],
                   [_PENTAGON_POINTS[0], *_PENTAGON_POINTS[:4]]):
        path.write_text(json.dumps({"points": points}))
        assert _evaluate_error(tmp_path, capsys, path) == (
            1, ("", "error: coincident bodies: [(1, 2)]\n"))


def test_evaluate_without_points_or_distances_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"masses": [1.0] * 5, "A": 3}))
    assert _evaluate_error(tmp_path, capsys, path) == (
        1, ("", "error: configuration needs 'points' or 'distances'\n"))


def test_evaluate_missing_file_exits_1(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert _evaluate_error(tmp_path, capsys, path) == (
        1, ("", f"error: cannot read configuration: [Errno 2] No such file or "
                f"directory: {str(path)!r}\n"))


def test_evaluate_too_deeply_nested_file_exits_1(tmp_path, capsys):
    text = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(RecursionError) as exc:
        json.loads(text)
    assert _evaluate_error(tmp_path, capsys, path) == (
        1, ("", f"error: cannot read configuration: {exc.value}\n"))


@pytest.mark.parametrize("payload, message", [
    pytest.param([[0, 0]] * 5, "configuration must be a JSON object", id="top-level-array"),
    pytest.param({"distances": [1.0, 1.0, 1.0]}, "expected a list of six class distances",
                 id="three-distances"),
    pytest.param({"distances": 1.0}, "expected a list of six class distances",
                 id="scalar-distances"),
    pytest.param({"distances": [1.0] * 6, "masses": 3}, "expected a list of five masses",
                 id="scalar-masses"),
    pytest.param({"distances": [1.0] * 6, "masses": [None, 1, 1, 1, 1]},
                 "every entry of masses must be a finite number", id="null-mass"),
    pytest.param({"distances": [1, 1, 1, 1, 1, [1]]},
                 "every entry of distances must be a finite number", id="list-distance"),
    pytest.param({"points": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, None]]},
                 "every entry of points must be a finite number", id="null-point"),
    pytest.param({"points": _PENTAGON_POINTS[:4]}, "expected a list of five [x, y] points",
                 id="four-points"),
    pytest.param({"points": {"q1": [0, 0]}}, "expected a list of five [x, y] points",
                 id="points-object"),
    pytest.param({"points": "abc"}, "expected a list of five [x, y] points", id="points-string"),
    pytest.param({"points": 5}, "expected a list of five [x, y] points", id="points-number"),
    pytest.param({"points": None}, "expected a list of five [x, y] points", id="points-null"),
    pytest.param({"points": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5]]},
                 "expected a list of five [x, y] points", id="points-ragged"),
    pytest.param({"points": [[0, 0, 0]] * 5}, "expected a list of five [x, y] points",
                 id="points-three-coordinates"),
    pytest.param({"distances": [1.0, _GOLDEN, _GOLDEN, _GOLDEN, _GOLDEN, -1.0]},
                 "distance class r35 must be positive", id="negative-distance"),
    pytest.param({"distances": [1.0, _GOLDEN, _GOLDEN, _GOLDEN, _GOLDEN, _GOLDEN],
                  "masses": [0, 0, 0, 0, 0]},
                 "degenerate configuration: multiplier is unconstrained", id="zero-masses"),
])
def test_evaluate_malformed_config_exits_1(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert _evaluate_error(tmp_path, capsys, path) == (1, ("", f"error: {message}\n"))


def test_write_encodes_a_document_before_opening_its_file(tmp_path):
    # NaN is no JSON: the document is refused whole, and no partial file stays
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write({"reports": [1.0, float("nan")]}, str(path))
    assert not path.exists()


def test_evaluate_overflow_exits_1_without_nan(tmp_path, capsys):
    # finite input whose r**(-A) overflows, a tiny distance at A = 3 or the
    # symmetric shape at y4 = 0.3 at A = 2000: the residuals would be NaN,
    # not JSON; the command says so, and numpy warns of nothing
    shape = symmetric_coords(SymmetricShape(0.3, "A")).points.tolist()
    for spec, a_text in (({"distances": [1, 1.6, 1.6, 1.6, 1.6, 1e-110]}, "3"),
                         ({"points": shape, "A": 2000}, "2000")):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(spec))
        assert main(["evaluate", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: the residuals are not finite at A = {a_text}: "
                "a power of a distance overflows\n")


def test_region_map_outputs(tmp_path):
    prefix = tmp_path / "regions"
    assert main(["region-map", "--A", "3", "--grid", "12",
                 "--out", str(prefix)]) == 0
    with open(str(prefix) + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 12 * 12
    regions = {row["region"] for row in rows}
    assert {"I", "II", "unrealizable"} <= regions
    # the pentagon cell sits in region I, the star cell in region II
    def cell(t12, t23, closure):
        best = min(rows, key=lambda r: (float(r["theta12"]) - t12) ** 2
                   + (float(r["theta23"]) - t23) ** 2
                   + (0 if r["closure"] == closure else 10))
        return best["region"]
    assert cell(3 * math.pi / 5, 3 * math.pi / 5, "plus") == "I"
    assert cell(math.pi / 5, math.pi / 5, "plus") == "II"
    svg = (str(prefix) + ".svg")
    with open(svg) as fh:
        assert fh.read().startswith("<svg")


def test_bifurcation_subcommand(tmp_path):
    out = tmp_path / "bif.json"
    assert main(["bifurcation", "--A-range", "3.0,3.3", "--tol", "1e-4",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found"]
    lo, hi = data["A_c_enclosure"]
    assert lo <= 3.12036856 <= hi or abs(0.5 * (lo + hi) - 3.12036856) < 1e-3


def test_fine_bifurcation_is_found(tmp_path):
    out = tmp_path / "bif.json"
    assert main(["bifurcation", "--A-range", "3.0,3.3", "--tol", "1e-9",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    lo, hi = data["A_c_enclosure"]
    assert data["found"] is True and lo <= 3.12036856285897 <= hi


def test_certified_bifurcation_at_tol_1e_12(tmp_path):
    out = tmp_path / "bif.json"
    assert main(["bifurcation", "--A-range", "3.0,3.3", "--tol", "1e-12",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    lo, hi = data["A_c_enclosure"]
    assert data["found"] is True and hi - lo <= 1e-12 and lo <= 3.12036856285897 <= hi


def test_bifurcation_point_range_names_the_rule(capsys):
    # a one-point range: both ends lie inside [2, 3.5], and the error says
    # that lo < hi is the rule it breaks
    assert main(["bifurcation", "--A-range", "3,3", "--out", "-"]) == 1
    assert "2 <= lo < hi <= 3.5, got (3.0, 3.0)" in capsys.readouterr().err


def test_bifurcation_empty_range(tmp_path):
    out = tmp_path / "bif2.json"
    assert main(["bifurcation", "--A-range", "2.0,2.5", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["found"] is False


@pytest.mark.parametrize("argv", [
    pytest.param(["symmetric-scan", "--A", "1.2", "--branch", "A"], id="exponent"),
    pytest.param(["symmetric-scan", "--A", "3", "--branch", "B", "--window", "a2"],
                 id="scan-type-off-branch"),
    pytest.param(["symmetric-scan", "--A", "3", "--window", "0.5,0.2"],
                 id="scan-window-inverted"),
    pytest.param(["symmetric-scan", "--A", "3", "--window", "0.5,0.5"],
                 id="scan-window-empty"),
    pytest.param(["certify", "--branch", "B", "--window", "a2", "--A-range", "2,3"],
                 id="certify-type-off-branch"),
    pytest.param(["certify", "--window", "0.5,0.2", "--A-range", "2,3"],
                 id="certify-window-inverted"),
    pytest.param(["certify", "--window", "a2", "--A-range", "3,2"],
                 id="certify-range-inverted"),
    pytest.param(["certify", "--mode", "no-common-zero", "--window", "a2",
                  "--inset", "1", "--A-range", "2,3"], id="certify-inset-empties-window"),
    pytest.param(["region-map", "--grid", "0"], id="region-map-grid-0"),
    pytest.param(["region-map", "--A", "nan", "--point", "108,108"], id="region-map-nan"),
    pytest.param(["region-map", "--A", "1/0", "--point", "108,108"],
                 id="region-map-zero-denominator"),
    pytest.param(["symmetric-scan", "--A", "nan"], id="scan-nan"),
    pytest.param(["symmetric-scan", "--A", "inf"], id="scan-inf"),
    pytest.param(["symmetric-scan", "--A", "1e400"], id="scan-overflow"),
    # A + A overflows, and the tangency guard's split takes the A midpoint
    # of its point boxes
    pytest.param(["symmetric-scan", "--A", "1e308"], id="scan-double-overflows"),
    pytest.param(["symmetric-scan", "--A", "9e307", "--branch", "B"],
                 id="scan-double-overflows-b"),
    pytest.param(["tropical-verify", "--A", "1/0"], id="tropical-zero-denominator"),
    pytest.param(["tropical-verify", "--A", "3", "--ray", "1/0,0,0,0,0,0"],
                 id="tropical-ray-zero-denominator"),
    pytest.param(["tropical-verify", "--A", "2.7182"], id="tropical-irrational"),
    pytest.param(["symmetric-scan", "--A", "3", "--window", "nan,1"], id="scan-window-nan-lo"),
    pytest.param(["symmetric-scan", "--A", "3", "--window", "0.2,nan"],
                 id="scan-window-nan-hi"),
    pytest.param(["certify", "--window", "0.1,0.2", "--A-range", "nan,3"],
                 id="certify-range-nan"),
    pytest.param(["certify", "--mode", "no-common-zero", "--window", "nan,0.2",
                  "--A-range", "2,3"], id="certify-window-nan"),
    pytest.param(["certify", "--branch", "B", "--window", "b2", "--inset", "nan",
                  "--A-range", "2,3"], id="certify-inset-nan"),
    pytest.param(["certify", "--window", "a2", "--inset", "-0.01", "--A-range", "2,3"],
                 id="certify-inset-negative"),
    pytest.param(["symmetric-scan", "--A", "3", "--window", "a2", "--inset", "-0.01"],
                 id="scan-inset-negative"),
    pytest.param(["symmetric-scan", "--A", "3", "--window", "a4", "--inset", "inf"],
                 id="scan-inset-inf"),
    pytest.param(["symmetric-scan", "--A", "3", "--inset", "0.3"], id="scan-inset-without-window"),
    pytest.param(["symmetric-scan", "--A", "3", "--window", "0.1,0.3", "--inset", "nan"],
                 id="scan-inset-numeric-window"),
    pytest.param(["certify", "--window", "0.1,0.3", "--inset", "-0.1", "--A-range", "2,3"],
                 id="certify-inset-numeric-window"),
    pytest.param(["certify", "--window", "", "--A-range", "2,3"], id="certify-window-empty"),
    pytest.param(["bifurcation", "--tol", "nan"], id="bifurcation-tol-nan"),
    pytest.param(["bifurcation", "--tol", "0"], id="bifurcation-tol-0"),
    pytest.param(["symmetric-scan", "--A", "3", "--tol", "0"], id="scan-tol-0"),
    pytest.param(["symmetric-scan", "--A", "3", "--tol", "-1"], id="scan-tol-negative"),
    pytest.param(["symmetric-scan", "--A", "3", "--tol", "nan"], id="scan-tol-nan"),
    pytest.param(["symmetric-scan", "--A", "3", "--window", "a2", "--tol", "1e-17"],
                 id="scan-window-tol-below-ulp"),
    pytest.param(["certify", "--window", "a2", "--A-range", "2,3", "--max-depth", "-1"],
                 id="certify-depth-negative"),
    pytest.param(["certify", "--mode", "no-common-zero", "--window", "a4", "--A-range", "2,3",
                  "--max-depth", "-1"], id="certify-no-common-zero-depth-negative"),
    pytest.param(["certify", "--window", "0.1,2.5", "--A-range", "2,3"],
                 id="certify-window-outside-domain"),
    pytest.param(["certify", "--mode", "no-common-zero", "--window", "0.1,2.5",
                  "--A-range", "2,3"], id="certify-no-common-zero-window-outside-domain"),
    pytest.param(["certify", "--window", "a2", "--A-range", "1,3"], id="certify-range-below-2"),
    pytest.param(["certify", "--mode", "no-common-zero", "--window", "a4", "--A-range", "1,3"],
                 id="certify-no-common-zero-range-below-2"),
    pytest.param(["certify", "--window", "a2", "--A-range", "1e308,1.7e308"],
                 id="certify-range-midpoint-overflows"),
    pytest.param(["bifurcation", "--tol", "0.01", "--out", "missing/bif.json"],
                 id="bifurcation-out-missing-dir"),
])
def test_bad_input_is_input_error(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["certify", "--window", "a2", "--A-range", "2,3,4"], "--A-range",
                 id="certify-range-three-numbers"),
    pytest.param(["bifurcation", "--A-range", "3.0"], "--A-range", id="bifurcation-range-one-number"),
    pytest.param(["region-map", "--point", "1,2,3"], "--point", id="region-map-point-three-numbers"),
    pytest.param(["certify", "--window", "0.1,x", "--A-range", "2,3"], "--window",
                 id="certify-window-not-a-number"),
])
def test_malformed_pair_names_its_flag(argv, flag, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{flag} needs two comma-separated numbers" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    pytest.param(["tropical-verify", "--A", "x"],
                 "exponent needs a number or a fraction p/q, got 'x'", id="tropical-A-word"),
    pytest.param(["region-map", "--A", "x"],
                 "exponent needs a number or a fraction p/q, got 'x'", id="region-map-A-word"),
    pytest.param(["region-map", "--A", "x", "--point", "108,108"],
                 "exponent needs a number or a fraction p/q, got 'x'", id="region-map-point-A-word"),
    pytest.param(["tropical-verify", "--A", "5/x"],
                 "exponent needs a number or a fraction p/q, got '5/x'", id="tropical-A-bad-fraction"),
    pytest.param(["tropical-verify", "--A", "3", "--ray", "1,2,3,4,5,"],
                 "--ray needs six comma-separated rationals, got '1,2,3,4,5,'",
                 id="tropical-ray-empty-field"),
    pytest.param(["tropical-verify", "--A", "3", "--ray", "1,2,3"],
                 "--ray needs six comma-separated rationals, got '1,2,3'",
                 id="tropical-ray-three-fields"),
])
def test_unparsable_number_names_its_input(argv, message, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_symmetric_scan_output_is_strict_json(tmp_path):
    # the whole branch-B domain at A = 2 yields three records without masses,
    # whose residual is not finite: JSON null, not the non-JSON Infinity
    out = tmp_path / "scan.json"
    assert main(["symmetric-scan", "--A", "2", "--branch", "B",
                 "--window", "0,1.9364916731037085", "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    records = json.loads(out.read_text(), parse_constant=reject)
    assert [r["residual_max"] for r in records if r["masses"] is None] == [None] * 3
    assert all(r["residual_max"] is not None for r in records if r["masses"] is not None)
    check_schema(records, load_schema("root_records.schema.json"))


def test_tropical_verify_multiple_exponents(tmp_path):
    out = tmp_path / "trop2.json"
    assert main(["tropical-verify", "--A", "3", "--A", "5/2",
                 "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert isinstance(reports, list) and len(reports) == 2
    assert all(r["all_passed"] for r in reports)


def test_symmetric_scan_csv_format(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["symmetric-scan", "--A", "2", "--branch", "A",
                 "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["sign_type"] for r in rows} == {"A2", "A4"}


def test_symmetric_scan_csv_keeps_the_certificate_flag(tmp_path):
    # at A = 3 the regular pentagon's root is simple but not certified, the
    # A2 root both: the CSV tells them apart as the JSON does
    argv = ["symmetric-scan", "--A", "3", "--branch", "A"]
    assert main(argv + ["--out", str(tmp_path / "scan.json")]) == 0
    assert main(argv + ["--format", "csv", "--out", str(tmp_path / "scan.csv")]) == 0
    records = json.loads((tmp_path / "scan.json").read_text())
    with open(tmp_path / "scan.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    names = reader.fieldnames
    assert names[names.index("simple"):] == ["simple", "sign_change_certified", "resolved"]
    flags = {r["sign_type"]: (r["simple"], r["sign_change_certified"]) for r in rows}
    assert flags["A2"] == ("True", "True") and flags["A4"] == ("True", "False")
    assert ([(r["simple"], r["sign_change_certified"], r["resolved"]) for r in rows]
            == [(str(r["simple"]), str(r["sign_change_certified"]), str(r["resolved"]))
                for r in records])


def test_symmetric_scan_csv_leaves_missing_residual_empty(tmp_path):
    # the CSV of the records above: an empty residual field where the JSON
    # has null, never the float text "inf"
    argv = ["symmetric-scan", "--A", "2", "--branch", "B",
            "--window", "0,1.9364916731037085"]
    assert main(argv + ["--out", str(tmp_path / "scan.json")]) == 0
    assert main(argv + ["--format", "csv", "--out", str(tmp_path / "scan.csv")]) == 0
    records = json.loads((tmp_path / "scan.json").read_text())
    with open(tmp_path / "scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records) > 3
    assert not any("inf" in field.lower() for row in rows for field in row.values())
    assert ([row["residual_max"] == "" for row in rows]
            == [r["residual_max"] is None for r in records])
    assert [row["m1"] == "" for row in rows] == [r["masses"] is None for r in records]
    assert all(float(row["residual_max"]) == r["residual_max"]
               for row, r in zip(rows, records) if row["residual_max"])


def test_region_map_point_query(capsys):
    assert main(["region-map", "--A", "3", "--point", "108,108",
                 "--closure", "plus"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["region"] == "I"
    assert main(["region-map", "--A", "3", "--point", "36,36"]) == 0
    assert json.loads(capsys.readouterr().out)["region"] == "II"
    assert main(["region-map", "--A", "3", "--point", "180,180"]) == 0
    assert json.loads(capsys.readouterr().out)["region"] == "unrealizable"


@pytest.mark.parametrize("point, message", [
    ("400,30", "theta12 must lie in (0, 360) degrees, got 400"),
    ("108,-5", "theta23 must lie in (0, 360) degrees, got -5"),
    ("360,108", "theta12 must lie in (0, 360) degrees, got 360"),
    ("108,nan", "theta23 must lie in (0, 360) degrees, got nan"),
])
def test_region_map_point_checks_its_angles_in_degrees(point, message, capsys):
    # --point takes degrees, so a bad angle is reported in degrees and
    # names the flag, not in the radians the classifier works in
    assert main(["region-map", "--A", "3", "--point", point]) == 1
    assert capsys.readouterr().err == f"error: --point {message}\n"


def test_region_map_point_reports_collision_like_the_grid(capsys):
    # theta12 next to 0 puts q3 on q1; the grid labels such a cell "collision"
    assert main(["region-map", "--A", "3", "--point", "1e-13,108"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"region": "collision",
                                        "detail": "coincident bodies: [(1, 3)]"}


# label histogram and SHA-256 of the grid-60 outputs of the per-cell
# classifier that the batched one replaced
GRID60_LABELS = {"none": 3944, "unrealizable": 2248, "III": 518, "I": 290, "II": 200}
GRID60_CSV_SHA256 = "b97479eb62508651fdbcdeccd6191fd1d2d676e9ad3fe1bc4415d73de9be0ae9"
GRID60_SVG_SHA256 = "b6f02fa143397cde73c56203c3908100d3814d08e74549e2418b8450d6c23a2c"


def test_region_map_grid60_pinned(tmp_path, capsys):
    prefix = str(tmp_path / "regions")
    assert main(["region-map", "--A", "3", "--grid", "60", "--out", prefix]) == 0
    assert capsys.readouterr() == ("", "")
    csv_bytes = Path(prefix + ".csv").read_bytes()
    svg_bytes = Path(prefix + ".svg").read_bytes()
    with open(prefix + ".csv", newline="") as fh:
        counts = Counter(row["region"] for row in csv.DictReader(fh))
    assert dict(counts) == GRID60_LABELS
    assert hashlib.sha256(csv_bytes).hexdigest() == GRID60_CSV_SHA256
    assert hashlib.sha256(svg_bytes).hexdigest() == GRID60_SVG_SHA256
    # --stats reports on stderr only; the files stay byte for byte the same
    assert main(["region-map", "--A", "3", "--grid", "60", "--out", prefix,
                 "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert Path(prefix + ".csv").read_bytes() == csv_bytes
    assert Path(prefix + ".svg").read_bytes() == svg_bytes
    lines = captured.err.splitlines()
    for closure in ("plus", "minus"):
        assert (f"pentacc.equations: region labels, {closure} closure: 3600 cells, "
                "2476 realizable, 259 sent to the region III test") in lines
    summary = [line for line in lines if line.startswith("pentacc: region map: 7200 cells")]
    assert len(summary) == 1
    assert json.loads(summary[0].split(" labels ", 1)[1]) == GRID60_LABELS


# SHA-256 of the outputs of region-map --A 5/2 --grid 200 before the two
# closures shared one chain; CI's smoke step checks the same CSV digest
GRID200_CSV_SHA256 = "9e14ba440e774ba9b562bc832d1fc6455b3fe7a9f37d1595deecb629f22c3d4d"
GRID200_SVG_SHA256 = "712a4638ab5315037b49c1071a48de4ebcceb5d3096ac9da8a9a84b240cbbd81"


def test_region_map_grid200_pinned(tmp_path, capsys):
    prefix = str(tmp_path / "regions")
    assert main(["region-map", "--A", "5/2", "--grid", "200", "--out", prefix, "--stats"]) == 0
    lines = capsys.readouterr().err.splitlines()
    for closure in ("plus", "minus"):
        assert (f"pentacc.equations: region labels, {closure} closure: 40000 cells, "
                "27729 realizable, 2972 sent to the region III test") in lines
    assert hashlib.sha256(Path(prefix + ".csv").read_bytes()).hexdigest() == GRID200_CSV_SHA256
    assert hashlib.sha256(Path(prefix + ".svg").read_bytes()).hexdigest() == GRID200_SVG_SHA256


def test_region_map_evaluates_each_libm_argument_of_its_chain_once(tmp_path, monkeypatch):
    # a grid-60 map made 52,296 libm evaluations when each closure built its
    # own chain and every argument went to libm; now the chain's cos and sin
    # run once per distinct angle, hypot and the square of dist/2 once per
    # cell, and r12's square once per distinct r12
    count = [0]
    libm = intervals._libm

    def record(fn, *args):
        count[0] += np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))[0].size
        return libm(fn, *args)
    for module in (intervals, geometry, equations):
        monkeypatch.setattr(module, "_libm", record)
    assert main(["region-map", "--A", "3", "--grid", "60", "--out", str(tmp_path / "r")]) == 0
    assert count[0] <= 12400


def test_readme_library_example_runs(capsys):
    # the README's library example must run as printed, so a public name
    # it uses cannot be removed while the docs still show it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "True 39"
    assert [line.split()[0] for line in out[:-1]] == ["A2", "A4"]


def test_export_lists_resolve():
    # every exported name must exist, so that no removed name lingers in an
    # export list
    import importlib
    import pkgutil

    import pentacc
    modules = [pentacc] + [importlib.import_module(f"pentacc.{m.name}")
                           for m in pkgutil.iter_modules(pentacc.__path__)
                           if not m.name.startswith("_")]
    assert len(modules) >= 8
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


def test_readme_cli_lines_parse(monkeypatch):
    # every command line of the README's CLI block must parse, so a flag it
    # shows cannot be removed while the docs still show it
    calls = []
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: calls.append(args.command) or 0)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = []
    for line in block.splitlines():  # pentacc installed, or python -m pentacc
        words = shlex.split(line, comments=True)
        argvs.append(words[words.index("pentacc") + 1:])
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    assert calls == [argv[0] for argv in argvs]
