"""The admissibility minor F: roots, masses, polynomials, bifurcation."""

import hashlib
import json
import math
import operator
import warnings
from functools import partial

import numpy as np
import pytest

from pentacc import symmetric
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
from pentacc.certify import eval_F_interval
from pentacc.intervals import (Box, Interval, IntervalDomainError, Jet2, _bisect,
                               _no_common_zero_decider)
from pentacc.symmetric import (
    ALLOWED_TYPES,
    EXCLUDED_TYPES,
    F,
    F_dual,
    NoBifurcationError,
    QUARTIC_MASS_POLY,
    VORTEX_MASS_POLY,
    _a4_root_count,
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
        d = F_dual(y4, 3.0, branch).dy
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


def test_pentagon_root_near_a_c_is_simple_without_a_certified_sign_change():
    # near A_c the slope of F at the pentagon is small: it excludes zero,
    # but one Newton step from the enclosure's midpoint does not land inside
    # the enclosure, and F at its lower end contains zero
    (rec,) = [r for r in scan_branch("A", 3.0) if r.sign_type.label == "A4"]
    assert rec.enclosure == (1.5388417685875253, 1.5388417685884348)
    assert rec.simple and rec.resolved and not rec.sign_change_certified
    assert F(Interval.point(rec.enclosure[0]), 3.0, "A").contains_zero()


def _end_signs_strict(rec, end=Interval.point) -> bool:
    """The reference rule for a root record: scalar F on the Interval
    ``end`` of each end of the enclosure has a strict sign, and the two
    signs are opposite; False where F raises."""
    try:
        fa, fb = (F(end(y), rec.a_exp, rec.branch) for y in rec.enclosure)
    except ArithmeticError:
        return False
    return (fa.lo > 0.0 and fb.hi < 0.0) or (fa.hi < 0.0 and fb.lo > 0.0)


def test_newton_certificate_matches_the_strict_end_signs():
    # one Newton step that lands inside a root's enclosure, on a slope that
    # excludes zero, implies strict opposite signs of F at its ends; over
    # A = 2 to 6 by 1/8, 50 and 1000 on both branches the scan's flag
    # equals the end-sign rule on every resolved record.  On ends widened
    # by one ulp, as the scan once checked them, F loses its sign at three
    widened = []
    for branch in "AB":
        for a_exp in [2.0 + k / 8 for k in range(33)] + [50.0, 1000.0]:
            for rec in scan_branch(branch, a_exp):
                if not rec.resolved:
                    assert not (rec.simple or rec.sign_change_certified)
                    continue
                assert rec.sign_change_certified == _end_signs_strict(rec)
                if rec.sign_change_certified and not _end_signs_strict(rec, Interval.around):
                    widened.append((branch, a_exp, rec.enclosure[0]))
    assert widened == [("A", 2.625, 1.5388417685875253), ("A", 3.625, 1.5388417685875253),
                       ("A", 4.5, 1.1808949070232324)]


def test_quartic_convex_window_has_three_roots():
    records = isolate_roots("A", 4.0, window_for("A", "A4", inset=1e-9))
    assert len(records) == 3
    assert all(r.positive_masses for r in records)
    ys = sorted(r.y4 for r in records)
    assert ys[1] == pytest.approx(regular_pentagon_y4(), abs=1e-9)


def test_refine_brackets_an_exact_zero_at_a_midpoint():
    # the first midpoint is the zero: a bracket of width tol/2 around it
    assert symmetric._refine(lambda x: x - 0.5, 0.0, -0.5, 1.0, 1e-3) == (0.49975, 0.50025)


def test_sign_change_fails_where_interval_F_is_undefined():
    # at branch B's q3 = q5 collision r35 is 0, so its negative power, and
    # with it F on a thin Interval, raises; past the end of the domain the
    # branch radicand is negative and F on a point Interval raises too.
    # There the Newton step says nothing and does not raise: N(X) is the
    # whole line, so no sign change is certified
    y4 = square_endpoint_y4()
    with pytest.raises(IntervalDomainError):
        F(Interval.around(y4), 3.0, "B")
    with pytest.raises(IntervalDomainError, match="no evaluable form"):
        eval_F_interval(Box(Interval.around(y4), Interval.point(3.0)), "B")
    x = Interval(Y4_MAX + 1e-9, Y4_MAX + 3e-9)
    with pytest.raises(IntervalDomainError):
        F(Interval.point(x.mid), 3.0, "A")
    f = partial(F, a_exp=3.0, branch="A")
    n = symmetric._newton_step(f, x, Interval(1.0, 2.0))
    assert (n.lo, n.hi) == (-math.inf, math.inf)
    assert not (x.lo < n.lo and n.hi < x.hi)
    # so does a slope that holds zero, where the quotient is undefined
    n = symmetric._newton_step(f, Interval(1.0, 1.1), Interval(-1.0, 1.0))
    assert (n.lo, n.hi) == (-math.inf, math.inf)


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
    with pytest.raises(OutOfDomainError, match=r"is empty: lo == hi"):
        isolate_roots("A", 3.0, (0.5, 0.5))


@pytest.mark.parametrize("branch, label, a_exp, top", [
    ("A", "A2", 1100.0, 0.1585501), ("A", "A2", 2000.0, None), ("B", "B2", 1000.0, None)])
def test_grid_overflow_leaves_cells_unresolved(branch, label, a_exp, top):
    # above A of about 1000 a power of a distance overflows on the float
    # grid and F is NaN or infinite at some nodes (A2 at 1100: 439 of the
    # 4097, at 2000 all, B2 at 1000: all).  Such a node has no sign: its
    # cells are unresolved, never read as "no root" and never a warning
    lo, hi = window_for(branch, label, inset=1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(F(np.linspace(lo, hi, 4097), a_exp, branch)).all()
    [rec] = isolate_roots(branch, a_exp, (lo, hi))
    assert not (rec.resolved or rec.simple or rec.sign_change_certified)
    assert rec.masses is None and not rec.positive_masses
    assert rec.enclosure[0] == lo
    if top is None:
        assert rec.enclosure[1] == hi
    else:
        assert rec.enclosure[1] == pytest.approx(top, abs=1e-7)


def test_grid_below_overflow_keeps_its_roots():
    records = isolate_roots("A", 1000.0, window_for("A", "A4", inset=1e-9))
    assert len(records) == 3
    assert all(r.resolved and r.sign_change_certified for r in records)


def test_recover_masses_where_the_matrix_overflows():
    # the matrix has infinite entries here; no masses, and no warning
    assert symmetric.recover_masses(0.14, "A", 2000.0) == (None, False, math.inf)


def _with_grid_node(monkeypatch, node: int, value: float) -> None:
    """Make the 4097-point grid call of F return ``value`` at one node; every
    other call of F passes through."""
    real = symmetric.F

    def patched(y4, a_exp, branch="A"):
        out = real(y4, a_exp, branch)
        if isinstance(y4, np.ndarray) and y4.shape == (4097,):
            out = np.array(out, dtype=float)
            out[node] = value
        return out
    monkeypatch.setattr(symmetric, "F", patched)


def test_exact_zero_node_between_opposite_signs_brackets_the_root(monkeypatch):
    win = window_for("A", "A2", inset=1e-9)
    [root] = isolate_roots("A", 2.0, win)
    ys = np.linspace(*win, 4097)
    node = int(np.searchsorted(ys, root.y4))  # the first node past the root
    _with_grid_node(monkeypatch, node, 0.0)
    [rec] = isolate_roots("A", 2.0, win)
    assert rec.resolved and rec.simple and rec.sign_change_certified
    assert ys[node - 1] <= rec.enclosure[0] < rec.enclosure[1] <= ys[node + 1]
    assert rec.y4 == pytest.approx(root.y4, abs=1e-12)


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
def test_node_without_a_sign_leaves_its_two_cells_unresolved(monkeypatch, caplog, value):
    # an exact zero whose neighbours share a sign, or a node where F is not
    # finite, makes one unresolved record over its two cells, in the same
    # list as the guard's cells; the A2 root stays as it was
    win = window_for("A", "A2", inset=1e-9)
    [root] = isolate_roots("A", 2.0, win)
    ys = np.linspace(*win, 4097)
    _with_grid_node(monkeypatch, 100, value)
    with caplog.at_level("INFO", logger="pentacc.symmetric"):
        records = isolate_roots("A", 2.0, win)
    assert [r.enclosure for r in records] == [(ys[99], ys[101]), root.enclosure]
    assert not records[0].resolved and records[1].resolved
    assert "unresolved cells 1," in caplog.text


def test_node_without_a_finite_value_brackets_no_root(monkeypatch):
    # a NaN node between opposite signs is no sign change: its two cells
    # are unresolved instead of refined
    win = window_for("A", "A2", inset=1e-9)
    [root] = isolate_roots("A", 2.0, win)
    ys = np.linspace(*win, 4097)
    node = int(np.searchsorted(ys, root.y4))
    _with_grid_node(monkeypatch, node, math.nan)
    [rec] = isolate_roots("A", 2.0, win)
    assert not rec.resolved
    assert rec.enclosure == (ys[node - 1], ys[node + 1])


@pytest.mark.parametrize("a_exp", [math.nan, math.inf, 0.0, 1.99])
def test_scans_and_exclusions_refuse_exponents_outside_the_rule(a_exp):
    # the rule of equations.Exponent: finite and at least 2.  Before it was
    # applied, NaN and inf made every exclusion coefficient NaN and A1, A3
    # and A5 read as excluded, the scan at NaN found no root, and at A = 0,
    # where F vanishes identically, it reported every grid node unresolved
    with pytest.raises(ValueError, match="exponent must be"):
        isolate_roots("A", a_exp, (0.2, 0.36))
    with pytest.raises(ValueError, match="exponent must be"):
        scan_branch("B", a_exp)
    with pytest.raises(ValueError, match="exponent must be"):
        exclude_sign_types("A", a_exp)


def _suspect_subcells(cell: Interval, branch: str, a_exp: float, depth: int) -> list:
    """The recursive scalar tangency guard, kept as the reference for the
    scan's run on ``intervals._bisect``: subcells where the natural interval
    F and dF/dy4 both contain zero (or do not evaluate), bisected down to
    ``depth`` levels or until the midpoint rounds to an end."""
    try:
        jet = F_dual(cell, a_exp, branch)
        ambiguous = jet.v.contains_zero() and jet.dy.contains_zero()
    except (ArithmeticError, OutOfDomainError):
        ambiguous = True
    if not ambiguous:
        return []
    if depth <= 0 or not cell.lo < cell.mid < cell.hi:
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
        _, undecided, stats = _bisect([(_no_common_zero_decider, seeds)], evaluate, cap)
        want = sorted(sub for s in seeds
                      for sub in _suspect_subcells(Interval(s[0], s[1]), branch, a_exp, cap))
        assert sorted(leaf.y4 for leaf in undecided) == want
        assert stats["evals_per_depth"][0] == len(seeds)


def _seeds_in_full(ys, vals, a_exp: float) -> list:
    """The tangency seeds' rule as first written, min(|F|) < 8 (|dF| + 1e-300)
    on the values themselves.  Near the float maximum the step or the bound
    overflows to inf, which the comparison reads as true."""
    signs = np.sign(vals)
    with np.errstate(over="ignore"):
        steps = np.abs(np.diff(vals))
        near = np.minimum(np.abs(vals[:-1]), np.abs(vals[1:])) < 8.0 * (steps + 1e-300)
    return [(float(ys[i]), float(ys[i + 1]), a_exp, a_exp)
            for i in np.flatnonzero(near & (signs[:-1] * signs[1:] > 0)).tolist()]


@pytest.mark.parametrize("branch, label, a_exp", [
    ("B", "B2", 50.0), ("B", "B2", 100.0), ("B", "B2", 200.0), ("B", "B2", 300.0),
    ("B", "B3", 100.0), ("B", "B3", 300.0), ("B", "B4", 1000.0), ("B", "B5", 1000.0),
    ("A", "A5", 1100.0)])
def test_tangency_seeds_do_not_overflow(branch, label, a_exp):
    # F reaches about 1e308 on these grids, where 8 (|dF| + 1e-300) once
    # overflowed with a RuntimeWarning; the seeds are those of the rule in full
    ys = np.linspace(*window_for(branch, label, inset=1e-9), 4097)
    vals = symmetric._grid_signs(ys, a_exp, branch)[0]
    assert np.abs(vals).max() > 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = _tangency_seeds(ys, vals, a_exp)
    assert seeds == _seeds_in_full(ys, vals, a_exp)


def test_tangency_seeds_at_the_float_extremes():
    # values from subnormals to the float maximum, both signs, and zeros
    rng = np.random.default_rng(7)
    mags = 10.0 ** rng.uniform(-323.0, 308.25, 4000)
    vals = np.concatenate((rng.choice([-1.0, 1.0], 4000) * mags,
                           [np.finfo(float).max, -np.finfo(float).max, np.finfo(float).max,
                            5e-324, 0.0, -5e-324, 1e-310, 2e-308, 2.3e-308, 1e-300]))
    vals[rng.integers(0, vals.size, 200)] = 0.0
    ys = np.arange(vals.size, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = _tangency_seeds(ys, vals, 3.0)
    assert seeds == _seeds_in_full(ys, vals, 3.0)


@pytest.mark.parametrize("branch, a_exp", [("A", 2.0), ("A", 4.0), ("B", 3.0), ("A", 3.12)])
def test_root_simplicity_reads_the_guards_plan(monkeypatch, branch, a_exp, rounding_paths):
    # each window's root enclosures get dF/dy4 from one run of the guard's
    # plan, which matches the scalar jet on each enclosure bit for bit on
    # the step path and lies inside it on the upward path; a root is
    # simple where that enclosure excludes zero, on either path where the
    # scalar one does
    runs = []

    def recording(ylo, yhi, alo, ahi, branch, a_exp, need=None):
        out = _natural_eval(ylo, yhi, alo, ahi, branch=branch, a_exp=a_exp)
        runs.append((list(zip(ylo, yhi)), out.df))
        return out

    monkeypatch.setattr(symmetric, "_natural_eval", recording)
    for _ in rounding_paths:
        for label in ALLOWED_TYPES[branch]:
            runs.clear()
            roots = [r for r in isolate_roots(branch, a_exp, window_for(branch, label, inset=1e-9))
                     if r.resolved]
            root_runs = [run for run in runs if sorted(run[0]) == [r.enclosure for r in roots]]
            assert len(root_runs) == (1 if roots else 0)
            for rec in roots:
                boxes, df = root_runs[0]
                k = boxes.index(rec.enclosure)
                dy = F_dual(Interval(*rec.enclosure), a_exp, branch).dy
                rounding_paths.check(df.lo[k], df.hi[k], dy.lo, dy.hi)
                assert rec.simple == (not dy.contains_zero())


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
    assert abs(F_dual(regular_pentagon_y4(), mid, "A").dy) < 1e-5
    # the root pair has not split off the pentagon at lo, and has at hi
    assert _a4_root_count(lo) == 0
    assert _a4_root_count(hi) >= 2


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-11, 1e-12])
def test_fine_bifurcation_bracket_holds_a_c(tol):
    # within about 1e-8 of A_c the float root count at the bracket ends is
    # rounding noise (a float bisection gave up at tol 1e-8 for that
    # reason); the counts 1e-4 outside the bracket are 0 and 2
    lo, hi = bifurcation_scan((3.0, 3.3), tol=tol)
    assert hi - lo <= tol and lo <= 3.12036856285897 <= hi
    assert (_a4_root_count(lo - 1e-4), _a4_root_count(hi + 1e-4)) == (0, 2)


def test_bifurcation_below_the_newton_floor_raises():
    # 1e-15 is above the float spacing at 3.3, but below the narrowest
    # enclosure that outward-rounded Newton steps reach: no wider bracket
    # comes back
    assert 1e-15 > math.ulp(3.3)
    assert bifurcation_scan((3.0, 3.3), tol=1e-12) == (3.120368562858957, 3.120368562858982)
    for tol in (2e-14, 1e-15):
        with pytest.raises(ValueError, match="stops narrowing at width 2.35e-14"):
            bifurcation_scan((3.0, 3.3), tol=tol)


def test_pentagon_h_slope_from_the_jet_in_a():
    # h'(A) = 2 log(phi) phi^A - sqrt(5), written out on Intervals, and the
    # .da of h's jet in A enclose the same real, so they meet
    log_phi = symmetric._LOG_PHI
    for a_exp in np.linspace(2.0, 3.5, 13).tolist():
        a = Interval.point(a_exp)
        slope = symmetric._pentagon_h(Jet2.variable_a(a)).da
        closed = 2.0 * log_phi * (a * log_phi).exp() - symmetric._SQRT5
        slope.intersect(closed)  # raises when they are disjoint
        assert slope.width < 1e-13
        # the value slot is h itself
        h = symmetric._pentagon_h(Jet2.variable_a(a)).v
        assert (h.lo, h.hi) == (symmetric._pentagon_h(a).lo, symmetric._pentagon_h(a).hi)
    # over the scan's range h' excludes zero: h has one root there
    assert symmetric._pentagon_h(Jet2.variable_a(Interval(3.0, 3.3))).da.lo > 0.0


def test_pentagon_slope_closed_form_is_exact():
    # dF/dy4 at p, run through F itself on first-order jets whose parts are
    # exact polynomials in the symbols t and A over the number field
    # Q(s), s = sqrt(10 + 2 sqrt 5) = 4 sin 72deg, which holds sqrt 5, phi
    # and p.  Each r^(-A) is t, with derivative -A t r'/r, once r = phi is
    # checked exactly.  (The sympy expressions of _exact_type, expanded,
    # took more than 300 s.)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring

    s_sym = sympy.sqrt(10 + 2 * sympy.sqrt(5))
    field = sympy.QQ.algebraic_field(s_sym)
    poly, t, a = ring("t, A", field)
    s = poly(field.from_sympy(s_sym))
    half = sympy.Rational(1, 2)
    sqrt5 = (s * s - 10) * half
    phi = (1 + sqrt5) * half
    p = s * (s * s - 8) * sympy.Rational(1, 16)
    # p is the pentagon's apex height sqrt(5 + 2 sqrt 5) / 2: p > 0 and
    # p^2 = (5 + 2 sqrt 5) / 4 exactly
    assert p * p == (5 + 2 * sqrt5) * sympy.Rational(1, 4)
    assert float(field.to_sympy(p.LC)) == pytest.approx(regular_pentagon_y4(), abs=1e-15)

    def inverse(c):  # the inverse of a nonzero constant of the ring
        assert c.is_ground and c
        return poly(field.one / c.LC)

    class Jet:
        def __init__(self, v, d):
            self.v, self.d = v, d

        @staticmethod
        def parts(x):
            return (x.v, x.d) if isinstance(x, Jet) else (poly(sympy.Rational(x)), poly(0))

        def __add__(self, other):
            v, d = self.parts(other)
            return Jet(self.v + v, self.d + d)
        __radd__ = __add__

        def __sub__(self, other):
            v, d = self.parts(other)
            return Jet(self.v - v, self.d - d)

        def __rsub__(self, other):
            v, d = self.parts(other)
            return Jet(v - self.v, d - self.d)

        def __mul__(self, other):
            v, d = self.parts(other)
            return Jet(self.v * v, self.d * v + self.v * d)
        __rmul__ = __mul__

        def __truediv__(self, other):
            v, d = self.parts(other)
            inv = inverse(v)
            return Jet(self.v * inv, (self.d * v - self.v * d) * inv * inv)

        def __neg__(self):
            return Jet(-self.v, -self.d)

        def __abs__(self):  # r35 = |2 x3|, and x3 > 0 at p on branch A
            assert float(field.to_sympy(self.v.LC)) > 0.0
            return self

        def sqrt(self):  # the radicand's root 2 s and r13 = r14 = phi, each checked
            (w,) = [w for w in (2 * s, phi) if w * w == self.v]
            return Jet(w, self.d * half * inverse(w))

        def __pow__(self, exponent):  # r^(-A) at r = phi
            assert exponent.v == -a and not exponent.d and self.v == phi
            return Jet(t, -a * t * self.d * inverse(self.v))

    slope = F(Jet(p, poly(1)), Jet(a, poly(0)), "A").d
    sin72 = s * sympy.Rational(1, 4)
    assert slope == sympy.Rational(5, 2) * sin72 * (1 - t) * (sqrt5 * half * a * t - (1 - t))


def test_pentagon_slope_closed_form_matches_the_jet():
    # dF/dy4 at the regular pentagon in closed form, t = phi^(-A)
    p = regular_pentagon_y4()
    for a_exp in np.linspace(2.0, 6.0, 25).tolist():
        t = ((1.0 + math.sqrt(5.0)) / 2.0) ** -a_exp
        slope = 2.5 * math.sin(math.radians(72.0)) * (1.0 - t) * (
            math.sqrt(5.0) / 2.0 * a_exp * t - (1.0 - t))
        assert F_dual(p, a_exp, "A").dy == pytest.approx(slope, rel=1e-12, abs=1e-14)
        # the slope and h have opposite signs
        h = symmetric._pentagon_h(Interval.point(a_exp))
        assert (h.hi < 0.0 and slope > 0) or (h.lo > 0.0 and slope < 0)


def test_no_bifurcation_below_three():
    # dF/dy4 at the pentagon is positive over the first range, negative over
    # the second; a Newton step on h leaves an empty intersection with each
    for a_range in ((2.0, 3.0), (3.13, 3.3), (2.0, 2.5), (3.2, 3.5)):
        with pytest.raises(NoBifurcationError, match="has no zero on .*empty intersection"):
            bifurcation_scan(a_range)


def test_bifurcation_needs_the_root_counts_to_agree(monkeypatch):
    # g changes sign on the range, but no root pair is counted at either end
    monkeypatch.setattr(symmetric, "_a4_root_count", lambda a_exp: 0)
    with pytest.raises(NoBifurcationError, match="root counts"):
        bifurcation_scan((3.0, 3.3))


def test_bifurcation_range_validation():
    with pytest.raises(ValueError):
        bifurcation_scan((1.0, 3.3))
    # both ends inside [2, 3.5], yet empty or inverted: the message states
    # the rule that fails
    for a_range in ((3.0, 3.0), (3.3, 3.0)):
        with pytest.raises(ValueError, match=r"2 <= lo < hi <= 3\.5, got \(3\.\d, 3\.0\)"):
            bifurcation_scan(a_range)


# explicit ids keep the case names stable in test reports
@pytest.mark.parametrize("tol", [
    pytest.param(0.0, id="0.05-0.0"), pytest.param(-1e-6, id="0.05--1e-06"),
    pytest.param(math.nan, id="0.05-nan"), pytest.param(math.inf, id="0.05-inf"),
    pytest.param(1e-300, id="0.05-1e-300"),
])
def test_bifurcation_step_and_tol_validation(tol):
    # each of these would loop forever or break the hi - lo <= tol promise
    with pytest.raises(ValueError):
        bifurcation_scan((3.0, 3.3), tol=tol)


def test_large_exponent_roots_approach_landmarks():
    records = isolate_roots("A", 40.0, window_for("A", "A4", inset=1e-9))
    ys = sorted(r.y4 for r in records)
    assert len(ys) == 3
    assert A34_BOUNDARY < ys[0] < A34_BOUNDARY + 0.03
    assert house_y4() - 0.006 < ys[2] < house_y4()


# ---------------------------------------------------------------------------
# sign-type exclusions

@pytest.mark.parametrize("a_exp", [2.0, 3.0, 4.0, 2000.0])
@pytest.mark.parametrize("branch", ["A", "B"])
def test_exclusions_hold_on_grids(branch, a_exp):
    # at A = 2000 a power of a distance overflows in every excluded window:
    # each coefficient is one product +-(1 - R) times a signed area, so it
    # is +-inf of its sign, and no warning is raised
    checks = exclude_sign_types(branch, a_exp)
    assert {c.sign_type for c in checks} == set(EXCLUDED_TYPES[branch])
    for check in checks:
        assert check.excluded, (check.sign_type, check.counterexamples[:2])


def test_a_nan_coefficient_is_a_counterexample(monkeypatch):
    # a coefficient that is not of the claimed strict sign breaks the
    # claim, NaN included
    coeffs = symmetric._exclusion_coeffs

    def with_nan(equation, ys, a_exp, branch):
        ca, cb = coeffs(equation, ys, a_exp, branch)
        ca, cb = ca.copy(), cb.copy()
        ca[7], cb[11] = math.nan, math.nan
        return ca, cb
    monkeypatch.setattr(symmetric, "_exclusion_coeffs", with_nan)
    for check in exclude_sign_types("A", 3.0):
        (_, ca, _), (_, _, cb) = check.counterexamples
        assert not check.excluded and math.isnan(ca) and math.isnan(cb)


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
# Two of those, at the q3 = q5 collisions (y4 near 0.134 and 1.866), are
# sign changes of F through a pole: dF/dy4 is not defined over them, so they
# are not simple and carry no certificate.
# The bifurcation enclosure is [3.120368324793926, 3.1203688055615353], with
# h' read from h's jet in A.
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
     "cf8a9cb5ff7b0e391927fca1a3ba9d8e9031fe3f8b37ed4270511c7c50468bd3"),
    (lambda: list(bifurcation_scan((3.0, 3.3), tol=1e-6)),
     "76bafb39641967d3eeef77bac191cef235600f4ac4972031d60c2e60a0bc6dff"),
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
