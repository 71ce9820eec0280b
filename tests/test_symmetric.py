"""The admissibility minor F: roots, masses, polynomials, bifurcation."""

import hashlib
import json
import math
import operator
from functools import partial

import numpy as np
import pytest

from pentacc.geometry import (
    OutOfDomainError,
    SymmetricShape,
    Y4_MAX,
    branch_position,
    classify_sign_type,
    collinear_endpoint_y4,
    family_terms,
    house_y4,
    regular_pentagon_y4,
    square_endpoint_y4,
    symmetric_coords,
)
from pentacc.equations import _WEDGE_ROWS, laura_andoyer, mass_coefficient_matrix
from pentacc.intervals import Interval, _bisect, _no_common_zero_decider
from pentacc.symmetric import (
    ALLOWED_TYPES,
    EXCLUDED_TYPES,
    F,
    F_dual,
    NoBifurcationError,
    QUARTIC_MASS_POLY,
    VORTEX_MASS_POLY,
    _exclusion_coeffs,
    _natural_eval,
    _tangency_seeds,
    bifurcation_scan,
    exclude_sign_types,
    isolate_roots,
    scan_branch,
    sign_type_windows,
    verify_mass_polynomial,
    window_for,
)

A34_BOUNDARY = math.sqrt(3.0) / 2.0


def F_from_matrix(shape: SymmetricShape, a_exp: float) -> float:
    """Independent evaluation path: determinant of rows 2 and 4 of the matrix."""
    m = mass_coefficient_matrix(shape, a_exp)
    return float(m[1, 0] * m[3, 1] - m[1, 1] * m[3, 0])


# ---------------------------------------------------------------------------
# F itself

@pytest.mark.parametrize("a_exp", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_endpoint_signs_float(a_exp):
    assert F(square_endpoint_y4(), a_exp, "A") > 0.0
    assert F(collinear_endpoint_y4(), a_exp, "A") < 0.0


def test_pentagon_is_a_root_on_both_branches():
    assert abs(F(regular_pentagon_y4(), 3.0, "A")) <= 1e-10
    # the star shares its apex height with the collinear landmark
    assert abs(F(collinear_endpoint_y4(), 3.0, "B")) <= 1e-10


@pytest.mark.parametrize("branch", ["A", "B"])
def test_closed_form_matches_matrix_determinant(branch):
    rng = np.random.default_rng(41)
    lo, hi = (0.05, Y4_MAX - 0.01) if branch == "A" else (0.9, 1.5)
    for y4 in rng.uniform(lo, hi, 60):
        direct = F(float(y4), 3.0, branch)
        via_matrix = F_from_matrix(SymmetricShape(float(y4), branch), 3.0)
        assert direct == pytest.approx(via_matrix, rel=1e-13, abs=1e-13)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(43)
    h = 1e-6
    checked = 0
    for y4 in rng.uniform(0.05, Y4_MAX - 0.05, 1000):
        branch = "A" if checked % 2 == 0 else "B"
        y4 = float(y4)
        d = F_dual(y4, 3.0, branch).dot
        fd = (F(y4 + h, 3.0, branch) - F(y4 - h, 3.0, branch)) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checked += 1


def test_f_vectorizes():
    ys = np.linspace(0.2, 0.3, 11)
    vals = F(ys, 2.0, "A")
    assert vals.shape == (11,)
    assert vals[0] == pytest.approx(F(0.2, 2.0, "A"))


# ---------------------------------------------------------------------------
# windows

# Each inner window edge: the branch, the label of the window it ends, the
# quantity that vanishes there, and the edge as an exact closed form (built
# with sympy for the exact check).
_INNER_EDGES = [
    ("A", "A1", lambda y: family_terms(y, "A")["r35"] - 1.0,
     lambda sp: (2 - sp.sqrt(3)) / 2),
    ("A", "A2", lambda y: family_terms(y, "A")["d134"],
     lambda sp: sp.sqrt(5 - 2 * sp.sqrt(5)) / 2),
    ("A", "A3", lambda y: family_terms(y, "A")["d345"],
     lambda sp: sp.sqrt(3) / 2),
    ("A", "A4", lambda y: family_terms(y, "A")["r35"] - 1.0,
     lambda sp: 1 + sp.sqrt(3) / 2),
    ("B", "B1", lambda y: branch_position(y, "B")[0],
     lambda sp: (2 - sp.sqrt(3)) / 2),
    ("B", "B2", lambda y: family_terms(y, "B")["d123"],
     lambda sp: sp.sqrt(3) / 2),
    ("B", "B3", lambda y: family_terms(y, "B")["d134"],
     lambda sp: sp.sqrt(5 + 2 * sp.sqrt(5)) / 2),
    ("B", "B4", lambda y: branch_position(y, "B")[0],
     lambda sp: 1 + sp.sqrt(3) / 2),
]


def test_window_boundaries_match_closed_forms():
    # each edge's quantity changes strict sign across it, and its enclosure
    # at the edge contains 0: an edge off by 1e-8 fails both
    for branch, label, quantity, _ in _INNER_EDGES:
        edge = sign_type_windows(branch)[label][1]
        below, above = quantity(edge - 1e-9), quantity(edge + 1e-9)
        assert below < 0.0 < above or below > 0.0 > above, label
        assert quantity(Interval.around(edge)).contains_zero(), label


def _exact_type(sympy):
    """A number type that ``family_terms`` computes with exactly: a sympy
    expression, with each float constant entering as the rational it is."""
    def lift(x):
        return x.value if isinstance(x, Exact) else sympy.Rational(x)

    def binary(op, swap=False):
        return lambda a, b: Exact(op(lift(b), a.value) if swap else op(a.value, lift(b)))

    class Exact:
        def __init__(self, value):
            self.value = value
        __add__, __radd__ = binary(operator.add), binary(operator.add, True)
        __sub__, __rsub__ = binary(operator.sub), binary(operator.sub, True)
        __mul__, __rmul__ = binary(operator.mul), binary(operator.mul, True)
        __truediv__, __rtruediv__ = binary(operator.truediv), binary(operator.truediv, True)

        def __abs__(self):
            return Exact(sympy.Abs(self.value))

        def sqrt(self):
            return Exact(sympy.sqrt(self.value))
    return Exact


def test_window_edges_are_exact_zeros():
    sympy = pytest.importorskip("sympy")
    exact_type, x = _exact_type(sympy), sympy.Symbol("x")
    for branch, label, quantity, exact in _INNER_EDGES:
        value = exact(sympy)
        assert sign_type_windows(branch)[label][1] == pytest.approx(float(value), abs=1e-15)
        # the minimal polynomial of an algebraic number is x exactly when it is 0
        assert sympy.minimal_polynomial(quantity(exact_type(value)).value, x) == x, label


@pytest.mark.parametrize("branch", ["A", "B"])
def test_window_labels_match_the_classifier(branch):
    for label, (lo, hi) in sign_type_windows(branch).items():
        for y4 in [0.5 * (lo + hi), *np.linspace(lo, hi, 102)[1:-1].tolist()]:
            assert classify_sign_type(SymmetricShape(y4, branch)).label == label


def test_windows_tile_the_domain():
    for branch in ("A", "B"):
        wins = sign_type_windows(branch)
        labels = ALLOWED_TYPES[branch] + EXCLUDED_TYPES[branch]
        assert sorted(wins) == sorted(labels) == [f"{branch}{k}" for k in range(1, 6)]
        ends = [hi for _, hi in wins.values()]
        assert [lo for lo, _ in wins.values()] == [0.0, *ends[:-1]]
        assert ends == sorted(ends) and ends[-1] == Y4_MAX


def test_sign_type_windows_hands_out_a_copy():
    want = window_for("A", "A2")
    wins = sign_type_windows("A")
    wins["A2"] = (0.0, 0.1)
    del wins["A4"]
    assert window_for("A", "A2") == want
    assert sign_type_windows("A")["A2"] == want
    assert "A4" in sign_type_windows("A")


def test_window_for_unknown_label():
    with pytest.raises(KeyError):
        window_for("A", "B2")


@pytest.mark.parametrize("inset", [math.nan, math.inf, -0.01, -1e-300])
def test_window_for_rejects_bad_inset(inset):
    # a negative inset would widen the window past its boundaries
    with pytest.raises(ValueError):
        window_for("A", "A2", inset=inset)
    assert window_for("A", "A2", inset=0.0) == sign_type_windows("A")["A2"]


# ---------------------------------------------------------------------------
# root isolation

def test_vortex_window_has_unique_root_with_reported_mass():
    records = isolate_roots("A", 2.0, window_for("A", "A2", inset=1e-9), tol=1e-12)
    assert len(records) == 1
    rec = records[0]
    assert rec.sign_type.label == "A2"
    assert rec.simple and rec.sign_change_certified and rec.resolved
    assert rec.enclosure[1] - rec.enclosure[0] <= 1e-12
    assert rec.masses.m4 == pytest.approx(0.34199, abs=1e-4)


def test_newtonian_convex_window_has_only_the_pentagon():
    records = isolate_roots("A", 3.0, window_for("A", "A4", inset=1e-9))
    assert len(records) == 1
    assert records[0].y4 == pytest.approx(regular_pentagon_y4(), abs=1e-9)
    assert np.allclose(records[0].masses.as_array(), 1.0, atol=1e-7)


def test_quartic_convex_window_has_three_roots():
    records = isolate_roots("A", 4.0, window_for("A", "A4", inset=1e-9))
    assert len(records) == 3
    assert all(r.positive_masses for r in records)
    ys = sorted(r.y4 for r in records)
    assert ys[1] == pytest.approx(regular_pentagon_y4(), abs=1e-9)


def test_root_counts_stable_under_tolerance_refinement():
    for tol in (1e-10, 1e-11, 1e-12):
        records = isolate_roots("A", 4.0, window_for("A", "A4", inset=1e-9), tol=tol)
        assert len(records) == 3
        assert all(r.enclosure[1] - r.enclosure[0] <= tol for r in records)


def test_positive_mass_roots_solve_all_wedge_equations():
    for branch, a_exp in (("A", 2.0), ("A", 4.0), ("B", 3.0)):
        for rec in scan_branch(branch, a_exp):
            if rec.positive_masses:
                config = symmetric_coords(SymmetricShape(rec.y4, branch))
                report = laura_andoyer(config, rec.masses, a_exp)
                assert report.max_abs < 1e-9


def test_scan_counts_match_expected():
    assert len(scan_branch("A", 2.0)) == 2
    assert len(scan_branch("B", 3.0)) == 1
    assert len(scan_branch("A", 4.0)) == 4


def test_isolate_roots_window_validation():
    for window in ((0.5, 0.1), (math.nan, 1.0), (0.2, math.nan), (-0.1, 1.0),
                   (0.2, Y4_MAX + 1e-9)):
        with pytest.raises(OutOfDomainError):
            isolate_roots("A", 3.0, window)


def _suspect_subcells(cell: Interval, branch: str, a_exp: float, depth: int) -> list:
    """The recursive scalar tangency guard, kept as the reference for the
    scan's run on ``intervals._bisect``: subcells where the natural interval
    F and dF/dy4 both contain zero (or do not evaluate), bisected down to
    ``depth`` levels or a width of 1e-15."""
    try:
        dual = F_dual(cell, a_exp, branch)
        ambiguous = dual.val.contains_zero() and dual.dot.contains_zero()
    except (ArithmeticError, OutOfDomainError):
        ambiguous = True
    if not ambiguous:
        return []
    if depth <= 0 or cell.width < 1e-15:
        return [(cell.lo, cell.hi)]
    left, right = cell.split()
    return (_suspect_subcells(left, branch, a_exp, depth - 1)
            + _suspect_subcells(right, branch, a_exp, depth - 1))


@pytest.mark.parametrize("branch, a_exp, label", [
    ("B", 3.0, "B2"), ("A", 3.12, "A2"), ("A", 3.12, "A4")])
def test_tangency_guard_matches_recursive_oracle(branch, a_exp, label):
    lo, hi = window_for(branch, label, inset=1e-9)
    ys = np.linspace(lo, hi, 4097)
    seeds = _tangency_seeds(ys, np.asarray(F(ys, a_exp, branch), dtype=float), a_exp)
    assert seeds
    evaluate = partial(_natural_eval, branch=branch, a_exp=a_exp)
    # at the scan's cap of 24 both sets are empty; the shallow caps compare
    # nonempty sets of subcells on B2 and A4 (every A2 seed clears at once)
    for cap in range(7):
        _, undecided, stats = _bisect([(_no_common_zero_decider, seeds)], evaluate, cap, 1e-15)
        want = sorted(sub for s in seeds
                      for sub in _suspect_subcells(Interval(s[0], s[1]), branch, a_exp, cap))
        assert sorted(leaf.y4 for leaf in undecided) == want
        assert stats["evals_per_depth"][0] == len(seeds)


# ---------------------------------------------------------------------------
# mass polynomials

def test_vortex_polynomial_shape():
    assert len(VORTEX_MASS_POLY.coefficients) - 1 == 9
    assert VORTEX_MASS_POLY.coefficients[-1] == 64
    assert VORTEX_MASS_POLY.coefficients[0] == -17


def test_quartic_polynomial_shape():
    assert len(QUARTIC_MASS_POLY.coefficients) - 1 == 16
    assert QUARTIC_MASS_POLY.coefficients[-1] == 12288
    assert QUARTIC_MASS_POLY.coefficients[0] == 957


def test_vortex_polynomial_residual_at_pipeline_mass():
    rec = [r for r in scan_branch("A", 2.0) if r.sign_type.label == "A2"][0]
    assert verify_mass_polynomial(VORTEX_MASS_POLY, rec.masses.m4) < 1e-6


def test_vortex_polynomial_residual_at_zero():
    assert verify_mass_polynomial(VORTEX_MASS_POLY, 0.0) == 1.0


def test_quartic_polynomial_residual_at_pipeline_masses():
    records = scan_branch("A", 4.0)
    non_pentagon = [r for r in records
                    if abs(r.y4 - regular_pentagon_y4()) > 1e-6]
    assert len(non_pentagon) == 3
    for rec in non_pentagon:
        assert verify_mass_polynomial(QUARTIC_MASS_POLY, rec.masses.m4) < 1e-6


def test_vortex_polynomial_has_single_positive_root():
    roots = np.roots(list(reversed(VORTEX_MASS_POLY.coefficients)))
    positive = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    assert len(positive) == 1
    assert positive[0] == pytest.approx(0.34199, abs=1e-4)


# ---------------------------------------------------------------------------
# bifurcation

def test_bifurcation_bracket():
    lo, hi = bifurcation_scan((3.0, 3.3), tol=1e-6)
    assert hi - lo <= 1e-6
    mid = 0.5 * (lo + hi)
    assert mid == pytest.approx(3.12036856, abs=1e-3)
    # the pentagon root and the derivative share a near-zero at the bracket
    assert abs(F_dual(regular_pentagon_y4(), mid, "A").dot) < 1e-5


def test_no_bifurcation_below_three():
    with pytest.raises(NoBifurcationError):
        bifurcation_scan((2.0, 3.0), step=0.1)


def test_bifurcation_range_validation():
    with pytest.raises(ValueError):
        bifurcation_scan((1.0, 3.3))


@pytest.mark.parametrize("step, tol", [
    (0.0, 1e-6), (-0.05, 1e-6), (math.nan, 1e-6), (math.inf, 1e-6), (1e-300, 1e-6),
    (0.05, 0.0), (0.05, -1e-6), (0.05, math.nan), (0.05, math.inf), (0.05, 1e-300),
])
def test_bifurcation_step_and_tol_validation(step, tol):
    # each of these would loop forever or break the hi - lo <= tol promise
    with pytest.raises(ValueError):
        bifurcation_scan((3.0, 3.3), step=step, tol=tol)


def test_large_exponent_roots_approach_landmarks():
    records = isolate_roots("A", 40.0, window_for("A", "A4", inset=1e-9))
    ys = sorted(r.y4 for r in records)
    assert len(ys) == 3
    assert A34_BOUNDARY < ys[0] < A34_BOUNDARY + 0.03
    assert house_y4() - 0.006 < ys[2] < house_y4()


# ---------------------------------------------------------------------------
# sign-type exclusions

@pytest.mark.parametrize("a_exp", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("branch", ["A", "B"])
def test_exclusions_hold_on_grids(branch, a_exp):
    checks = exclude_sign_types(branch, a_exp)
    assert {c.sign_type for c in checks} == set(EXCLUDED_TYPES[branch])
    for check in checks:
        assert check.excluded, (check.sign_type, check.counterexamples[:2])


def test_exclusion_equations_match_claims():
    table = {c.sign_type: (c.equation, c.claimed_sign)
             for c in exclude_sign_types("A", 3.0)}
    assert table["A1"] == ("L13", -1)
    assert table["A3"] == ("L13", +1)
    assert table["A5"] == ("L13", -1)
    table = {c.sign_type: (c.equation, c.claimed_sign)
             for c in exclude_sign_types("B", 3.0)}
    assert table["B1"] == ("L13", +1)
    assert table["B3"] == ("L13", +1)
    assert table["B4"] == ("L14", +1)
    assert table["B5"] == ("L13", -1)


@pytest.mark.parametrize("branch", ["A", "B"])
def test_exclusion_coefficients_are_matrix_entries(branch):
    # L13 involves m3 and m4, L14 m1 and m3: columns of (m1, m3, m4)
    rng = np.random.default_rng(47)
    for y4, a_exp in zip(rng.uniform(0.05, Y4_MAX - 0.05, 40), rng.uniform(2.0, 6.0, 40)):
        y4, a_exp = float(y4), float(a_exp)
        m = mass_coefficient_matrix(SymmetricShape(y4, branch), a_exp)
        assert _exclusion_coeffs("L13", y4, a_exp, branch) == (m[0, 1], m[0, 2])
        assert _exclusion_coeffs("L14", y4, a_exp, branch) == (m[1, 0], m[1, 1])


@pytest.mark.parametrize("branch", ["A", "B"])
@pytest.mark.parametrize("a_exp", [2.5, 3.0])
def test_interval_wedge_rows_enclose_float_rows(branch, a_exp):
    rng = np.random.default_rng(53)
    for y4 in rng.uniform(0.05, Y4_MAX - 0.05, 40).tolist():
        floats = family_terms(y4, branch, a_exp)
        intervals = family_terms(Interval.around(y4), branch, a_exp)
        for equation, row in _WEDGE_ROWS.items():
            for iv, x in zip(row(intervals), row(floats)):
                if isinstance(iv, Interval):
                    assert iv.contains(x), (equation, y4, iv, x)
                else:  # the structural zero of a row
                    assert iv == x == 0.0


def boundary_exclusion_holds(branch: str, boundary_y4: float, a_exp: float,
                             equation: str = "L13", sign: int = -1) -> bool:
    """Weak-sign version of an exclusion at a window boundary: both
    coefficients carry the claimed sign weakly and at least one strictly,
    to a float tolerance of 1e-12."""
    ca, cb = _exclusion_coeffs(equation, boundary_y4, a_exp, branch)
    ok_weak = sign * ca >= -1e-12 and sign * cb >= -1e-12
    return bool(ok_weak and (sign * ca > 1e-12 or sign * cb > 1e-12))


@pytest.mark.parametrize("a_exp", [2.0, 3.0, 4.0])
def test_borderline_square_shape_still_excluded(a_exp):
    assert boundary_exclusion_holds("A", square_endpoint_y4(), a_exp,
                                    equation="L13", sign=-1)


# ---------------------------------------------------------------------------
# pinned scan outputs

def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# SHA-256 of json.dumps(output, sort_keys=True), records as to_json(); the
# A = 3.12 call sits next to the bifurcation exponent, where the tangency
# guard refines the most cells, and the whole branch-B domain holds two
# cells the guard reports unresolved (at the q1 = q3 collision and at the
# domain end) and three records without masses, whose residual_max is null.
@pytest.mark.parametrize("run, digest", [
    (lambda: [r.to_json() for r in scan_branch("A", 2.0)],
     "d46c3a1536d5b80d02a0d9dfa70ba2be2aa401285213799477a02aefe8ddf829"),
    (lambda: [r.to_json() for r in scan_branch("A", 4.0)],
     "4fdf581b18e1fa8e7380df4c740d10b0c08ccf55eac07fba978d39119d958db8"),
    (lambda: [r.to_json() for r in scan_branch("B", 3.0)],
     "05ed42463b35ee8d415ad142401f381e9410d0f8710f5151d1d68429810c5f3a"),
    (lambda: [r.to_json() for r in isolate_roots("A", 3.12,
                                                 window_for("A", "A4", inset=1e-9))],
     "021feb2b301b101ced54808b6e2ed59143366f65619a055839caaee64ad861b6"),
    (lambda: [r.to_json() for r in isolate_roots("B", 2.0, (0.0, Y4_MAX))],
     "729db0e5748f5366d85c31a709239cca6fba6a8e12b70fd78b88dc5bba840426"),
    (lambda: list(bifurcation_scan((3.0, 3.3), tol=1e-6)),
     "284d007241ae542d5bea7c0b8cd6db292955ef6d0efbb64c899e21e79155632a"),
], ids=["scan-A2", "scan-A4", "scan-B3", "isolate-A3.12-A4", "isolate-B-domain",
        "bifurcation"])
def test_scan_outputs_pinned(run, digest):
    assert _sha256(run()) == digest


EXCLUSION_SHA256 = {
    "A": "9bd177f1f9640ad133e1585fb005c575495b7da2dcb0bea1e929318986beba04",
    "B": "67c91b5add4eb6f1ec724726dff4e53b0aa5644634803d0e4ec732c18ac04145",
}


@pytest.mark.parametrize("a_exp", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("branch", ["A", "B"])
def test_exclusion_reports_pinned(branch, a_exp):
    # the reports carry no exponent, so one digest per branch covers all three
    checks = exclude_sign_types(branch, a_exp)
    assert _sha256([c.to_json() for c in checks]) == EXCLUSION_SHA256[branch]
