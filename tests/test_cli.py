"""Command-line surface: exit codes, output files, schema conformance."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

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


def test_symmetric_scan_branch_b(tmp_path):
    out = tmp_path / "scanb.json"
    assert main(["symmetric-scan", "--A", "3", "--branch", "B",
                 "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 1
    assert records[0]["sign_type"] == "B2"


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
    assert capsys.readouterr().err == "error: exponent 2.7182 is not rational\n"


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


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "pentacc", "tropical-verify", "--A", "3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


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
    systems = {r["system"] for r in result["reports"]}
    assert "albouy_chenciner" in systems
    assert all(r["max_abs"] < 1e-12 for r in result["reports"])


def test_evaluate_collision_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"points": [[0, 0], [0, 0], [1, 0], [1, 1], [0, 1]]}))
    out = tmp_path / "err.json"
    assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 1
    assert "error" in json.loads(out.read_text())


def test_evaluate_missing_file_exits_1(tmp_path):
    assert main(["evaluate", "--config", str(tmp_path / "nope.json")]) == 1


def test_evaluate_too_deeply_nested_file_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["evaluate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("cannot read configuration: ")


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
])
def test_evaluate_malformed_config_exits_1(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["evaluate", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", message + "\n")


# numpy warns of the overflow, as in a command-line run, instead of raising
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_overflow_exits_1_without_nan(tmp_path, capsys):
    # finite input whose r**(-A) overflows: the residuals would be NaN, not JSON
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"distances": [1, 1.6, 1.6, 1.6, 1.6, 1e-110]}))
    assert main(["evaluate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Out of range float values")


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
    pytest.param(["bifurcation", "--step", "0"], id="bifurcation-step-0"),
    pytest.param(["bifurcation", "--step", "nan"], id="bifurcation-step-nan"),
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
])
def test_bad_input_is_input_error(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
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
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2
    assert {r["sign_type"] for r in rows} == {"A2", "A4"}


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
    csv_bytes = open(prefix + ".csv", "rb").read()
    svg_bytes = open(prefix + ".svg", "rb").read()
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
    assert open(prefix + ".csv", "rb").read() == csv_bytes
    assert open(prefix + ".svg", "rb").read() == svg_bytes
    lines = captured.err.splitlines()
    for closure in ("plus", "minus"):
        assert (f"pentacc.equations: region labels, {closure} closure: 3600 cells, "
                "2476 realizable, 259 sent to the region III test") in lines
    summary = [line for line in lines if line.startswith("pentacc: region map: 7200 cells")]
    assert len(summary) == 1
    assert json.loads(summary[0].split(" labels ", 1)[1]) == GRID60_LABELS
