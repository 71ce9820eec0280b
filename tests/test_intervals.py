"""Interval arithmetic, dual numbers, and second-order jets."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pentacc.intervals import (
    Box,
    Dual,
    Interval,
    IntervalArray,
    IntervalDomainError,
    Jet2,
)


def test_addition_example():
    s = Interval(1, 2) + Interval(3, 4)
    assert s.lo <= 4.0 <= 6.0 <= s.hi
    assert s.width == pytest.approx(2.0, abs=1e-14)


def test_negative_power_tight():
    p = Interval(2, 2) ** (-3)
    assert p.contains(0.125)
    assert p.width <= 2 * math.ulp(0.125)


def test_point_and_around():
    assert Interval.point(1.5).width == 0.0
    a = Interval.around(1.5)
    assert a.lo < 1.5 < a.hi


def test_division_by_zero_interval_raises():
    with pytest.raises(IntervalDomainError):
        Interval(1, 2) / Interval(-1, 1)


def test_empty_intersection_raises():
    with pytest.raises(IntervalDomainError):
        Interval(0, 1).intersect(Interval(2, 3))


def test_sqrt_domain():
    s = Interval(-1e-18, 4.0).sqrt()
    assert s.lo == 0.0 and s.contains(2.0)
    with pytest.raises(IntervalDomainError):
        Interval(-2.0, -1.0).sqrt()


def test_log_domain():
    with pytest.raises(IntervalDomainError):
        Interval(0.0, 1.0).log()


def _apply(op, x, y):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    return x / y


def test_randomized_inclusion():
    rng = np.random.default_rng(2024)
    ops = "+-*/"
    violations = 0
    for _ in range(20000):
        a, b = sorted(rng.uniform(-10, 10, 2))
        c, d = sorted(rng.uniform(-10, 10, 2))
        x = Interval(a, b)
        y = Interval(c, d)
        op = ops[rng.integers(0, 4)]
        if op == "/" and y.contains_zero():
            continue
        result = _apply(op, x, y)
        px = rng.uniform(a, b)
        py = rng.uniform(c, d)
        if not result.contains(_apply(op, px, py)):
            violations += 1
    assert violations == 0


def test_inclusion_monotonicity():
    rng = np.random.default_rng(77)
    for _ in range(500):
        a, b = sorted(rng.uniform(0.1, 5.0, 2))
        inner = Interval(a, b)
        outer = Interval(a - 0.05, b + 0.05)
        for f in (lambda t: t.sqrt(), lambda t: t.exp(), lambda t: t.log(),
                  lambda t: t ** (-2.5), lambda t: t * t - 3.0 * t):
            assert f(inner).subset_of(f(outer))


def test_power_with_interval_exponent_contains_samples():
    rng = np.random.default_rng(123)
    base = Interval(0.3, 2.4)
    expo = Interval(-4.0, -2.0)
    enclosure = base ** expo
    for _ in range(2000):
        x = rng.uniform(base.lo, base.hi)
        e = rng.uniform(expo.lo, expo.hi)
        assert enclosure.contains(x ** e)


def test_abs_and_integer_powers():
    assert abs(Interval(-3, -1)).lo == 1.0
    assert abs(Interval(-2, 5)).lo == 0.0
    sq = Interval(-2, 3) ** 2
    assert sq.lo == 0.0 and sq.contains(9.0)


def _audit_operands(rng, n):
    """Seeded (lo, hi) pairs with magnitudes from 1e-300 to 1e300, zeros,
    widths from 1e-16 relative to ten times the magnitude."""
    out = []
    for _ in range(n):
        mag = 10.0 ** rng.uniform(-300.0, 300.0)
        lo = 0.0 if rng.random() < 0.05 else mag * rng.choice((-1.0, 1.0))
        out.append((lo, lo + max(abs(lo), 1e-300) * 10.0 ** rng.uniform(-16.0, 1.0)))
    return out


def _exact_range(op, x, y):
    """Exact (min, max) of the operation over the real boxes x (and y)."""
    xs = [Fraction(v) for v in x]
    if isinstance(op, (int, float)):
        n = int(op)
        vals = [v ** n for v in xs]
        if n % 2 == 0 and n > 0 and xs[0] <= 0 <= xs[1]:
            vals.append(Fraction(0))
        return min(vals), max(vals)
    ys = [Fraction(v) for v in (y if op != "*c" else (y[0], y[0]))]
    if op == "+":
        return xs[0] + ys[0], xs[1] + ys[1]
    if op == "-":
        return xs[0] - ys[1], xs[1] - ys[0]
    vals = [a / b if op == "/" else a * b for a in xs for b in ys]
    return min(vals), max(vals)


def _evaluate(kind, op, xs, ys):
    """(lo, hi) per operand pair, or None where the class rejects it.

    For "*c" the second operand is the float ys[i][0], as the constants in
    the jets; IntervalArray then takes one element at a time, since its
    float factor is a scalar.
    """
    def apply(x, y):
        if isinstance(op, (int, float)):
            return x ** op
        return x * y if op == "*c" else _apply(op, x, y)

    if kind is IntervalArray and op != "*c":
        r = apply(IntervalArray(*zip(*xs)), IntervalArray(*zip(*ys)))
        return [(lo, hi) if not math.isnan(lo) else None
                for lo, hi in zip(r.lo.tolist(), r.hi.tolist())]
    out = []
    for x, y in zip(xs, ys):
        try:
            r = apply(kind(*x), y[0] if op == "*c" else kind(*y))
        except (IntervalDomainError, OverflowError):
            out.append(None)
            continue
        out.append(None if math.isnan(r.lo) else (float(r.lo), float(r.hi)))
    return out


@pytest.mark.parametrize("kind", [Interval, IntervalArray])
@pytest.mark.parametrize("op", ["+", "-", "*", "*c", "/", -3, -2, -1, 2, 3, 5, -2.0])
def test_outward_rounding_contains_exact_result(kind, op):
    rng = np.random.default_rng(31)
    xs, ys = _audit_operands(rng, 400), _audit_operands(rng, 400)
    checked = 0
    for x, y, r in zip(xs, ys, _evaluate(kind, op, xs, ys)):
        if r is None:
            continue
        lo, hi = _exact_range(op, x, y)
        assert r[0] == -math.inf or Fraction(r[0]) <= lo, (op, x, y, r)
        assert r[1] == math.inf or Fraction(r[1]) >= hi, (op, x, y, r)
        checked += 1
    assert checked >= 200


def test_interval_array_marks_scalar_failures_invalid():
    """Each element equals the scalar result, or is NaN where Interval raises."""
    cases = [
        (lambda t: t / Interval(-1.0, 1.0), lambda t: t / IntervalArray(-1.0, 1.0)),
        (lambda t: t.log(), lambda t: t.log()),
        (lambda t: t ** -2, lambda t: t ** -2),
        (lambda t: t.sqrt(), lambda t: t.sqrt()),
        (lambda t: (t * 800.0).exp(), lambda t: (t * 800.0).exp()),
        (lambda t: t ** 0.5 - t * t, lambda t: t ** 0.5 - t * t),
        (lambda t: abs(t) ** 3, lambda t: abs(t) ** 3),
    ]
    bounds = [(-2.0, -1.0), (-1.0, 0.0), (0.0, 0.0), (0.0, 2.0), (0.5, 1.5), (1e200, 1e201)]
    arr = IntervalArray(*zip(*bounds))
    for scalar_op, array_op in cases:
        got = array_op(arr)
        for i, b in enumerate(bounds):
            try:
                want = scalar_op(Interval(*b))
            except (IntervalDomainError, OverflowError):
                assert math.isnan(got.lo[i]) and math.isnan(got.hi[i])
                assert not got.valid[i]
            else:
                assert (got.lo[i], got.hi[i]) == (want.lo, want.hi)
                assert got.valid[i]


def test_box_split_and_validation():
    box = Box(Interval(0.2, 0.4), Interval(2.0, 3.0))
    l, r = box.split_coord(0)
    assert l.y4.hi == r.y4.lo
    l, r = box.split_coord(1)
    assert l.a.hi == r.a.lo
    with pytest.raises(ValueError):
        Box(Interval(0.2, 0.4), Interval(1.0, 3.0))


# ---------------------------------------------------------------------------
# duals

def test_dual_polynomial_derivative():
    x = Dual(1.7, 1.0)
    y = x * x * x - 2.0 * x + 5.0
    assert y.val == pytest.approx(1.7 ** 3 - 2 * 1.7 + 5)
    assert y.dot == pytest.approx(3 * 1.7 ** 2 - 2)


def test_dual_quotient_and_sqrt():
    x = Dual(2.0, 1.0)
    y = (x * x + 1.0) / x
    assert y.dot == pytest.approx(1.0 - 1.0 / 4.0)
    s = x.sqrt()
    assert s.dot == pytest.approx(0.5 / math.sqrt(2.0))


def test_dual_power_with_real_exponent():
    x = Dual(1.3, 1.0)
    y = x ** (-2.7)
    assert y.dot == pytest.approx(-2.7 * 1.3 ** -3.7)


def test_dual_over_intervals():
    x = Dual(Interval(1.0, 1.1), Interval.point(1.0))
    y = x * x
    assert y.val.contains(1.05 ** 2)
    assert y.dot.contains(2.0 * 1.05)


# ---------------------------------------------------------------------------
# jets

def _fd2(f, y, a, h=1e-5):
    fyy = (f(y + h, a) - 2 * f(y, a) + f(y - h, a)) / h ** 2
    fya = (f(y + h, a + h) - f(y + h, a - h)
           - f(y - h, a + h) + f(y - h, a - h)) / (4 * h * h)
    return fyy, fya


def test_jet_second_derivatives_match_finite_differences():
    def g(y, a):
        return (y ** 2 + 1.0) ** (-a) + y * a

    y0, a0 = 0.8, 2.7
    jet = (Jet2.variable_y(y0) ** 2 + 1.0) ** (-Jet2.variable_a(a0)) \
        + Jet2.variable_y(y0) * Jet2.variable_a(a0)
    fyy, fya = _fd2(g, y0, a0)
    assert jet.v == pytest.approx(g(y0, a0), rel=1e-12)
    assert jet.dyy == pytest.approx(fyy, rel=1e-5)
    assert jet.dya == pytest.approx(fya, rel=1e-5)


def test_jet_sqrt_and_division():
    def g(y, a):
        return math.sqrt(y + a) / (y * a)

    y0, a0 = 1.4, 2.2
    jet = (Jet2.variable_y(y0) + Jet2.variable_a(a0)).sqrt() \
        / (Jet2.variable_y(y0) * Jet2.variable_a(a0))
    fyy, fya = _fd2(g, y0, a0)
    assert jet.v == pytest.approx(g(y0, a0), rel=1e-12)
    assert jet.dyy == pytest.approx(fyy, rel=1e-4)
    assert jet.dya == pytest.approx(fya, rel=1e-4)


def test_jet_interval_components_enclose_point_values():
    y_iv, a_iv = Interval(0.7, 0.9), Interval(2.0, 3.0)
    jet = (Jet2.variable_y(y_iv) ** 2 + 1.0) ** (-Jet2.variable_a(a_iv))
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = rng.uniform(y_iv.lo, y_iv.hi)
        a = rng.uniform(a_iv.lo, a_iv.hi)
        assert jet.v.contains((y ** 2 + 1.0) ** (-a))
