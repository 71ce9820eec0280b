"""Command-line surface: exit codes, output files, schema conformance."""

import csv
import json
import math
from importlib import resources

import numpy as np
import pytest

from pentacc.cli import main
from pentacc.geometry import SymmetricShape, regular_pentagon_y4, symmetric_coords


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


def test_certify_unique_root_exit_codes(tmp_path):
    out = tmp_path / "cert.json"
    code = main(["certify", "--mode", "unique-root", "--branch", "A",
                 "--window", "a2", "--A-range", "2,3", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    check_schema(cert, load_schema("certificate.schema.json"))
    assert cert["certified"] is True


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
])
def test_bad_input_is_input_error(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


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


def test_region_map_point_query(capsys):
    assert main(["region-map", "--A", "3", "--point", "108,108",
                 "--closure", "plus"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["region"] == "I"
    assert main(["region-map", "--A", "3", "--point", "36,36"]) == 0
    assert json.loads(capsys.readouterr().out)["region"] == "II"
    assert main(["region-map", "--A", "3", "--point", "180,180"]) == 0
    assert json.loads(capsys.readouterr().out)["region"] == "unrealizable"
