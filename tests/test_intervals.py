"""Interval arithmetic, dual numbers, and second-order jets."""

import decimal
import math
import sys
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
    _libm,
    _trace,
    split_bounds,
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
            small, big = f(inner), f(outer)
            assert big.lo <= small.lo and small.hi <= big.hi


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



# The second half of the audit: exp, log and real powers, which call libm and
# pad by two ulps, against stdlib decimal at 50 significant digits.
_DEC = decimal.Context(prec=50, Emax=999_999, Emin=-999_999)
_EXP_MAX = math.log(sys.float_info.max)  # exp overflows just past this
_EXP_TINY = math.log(5e-324)             # exp underflows to 0 just below this


def _near(x: float, steps: int = 3) -> list:
    """x and its float neighbours up to ``steps`` ulps away on either side."""
    out = [x]
    lo = hi = x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _transcendental_operands(rng, op, n):
    """Seeded (x, e) operand pairs: x a (lo, hi) pair with magnitudes from
    1e-300 to 1e300 (to about 709 for exp), e a float or (lo, hi) exponent
    for ** and None otherwise; then the overflow and underflow edges."""
    width = lambda v: max(abs(v), 1e-300) * 10.0 ** rng.uniform(-16.0, 0.0)  # noqa: E731
    out = []
    for _ in range(n):
        if op == "exp":
            v = 10.0 ** rng.uniform(-300.0, math.log10(_EXP_MAX)) * rng.choice((-1.0, 1.0))
            out.append(((v, v + width(v)), None))
            continue
        v = 10.0 ** rng.uniform(-300.0, 300.0)
        x = (v, v + width(v))
        if op == "log":
            out.append((x, None))
            continue
        e = float(rng.choice((-2.5, -0.5, 1.0 / 3.0, 0.5, 1.5, 2.7)) * rng.uniform(0.5, 1.5))
        if rng.random() < 0.5:
            e = (e, e + abs(e) * 10.0 ** rng.uniform(-16.0, -1.0))
        out.append((x, e))
    if op == "exp":
        edges = _near(_EXP_MAX) + _near(_EXP_TINY) + [-800.0, 1e-300, -1e-300, 0.0]
        out += [((v, v), None) for v in edges] + [((-1.0, v), None) for v in _near(_EXP_MAX)]
    elif op == "log":
        edges = [5e-324, 1e-320, sys.float_info.min, 1.0, sys.float_info.max]
        out += [((v, v), None) for v in edges] + [((5e-324, sys.float_info.max), None)]
    else:
        # bases whose powers land next to the overflow and underflow thresholds
        for e in (2.5, -2.5, 1.5, -1.5):
            for target in (_EXP_MAX, _EXP_TINY):
                base = math.exp(target / e)
                out += [((b, b), e) for b in _near(base)] + [((base, base), (e, e))]
        out.append(((5e-324, sys.float_info.max), 0.5))
    return out


def _exact_transcendental(op, x, e) -> tuple:
    """Exact (min, max) of the operation over the box, at 50 digits; every
    one of these is monotone in each operand, so the corners bound it."""
    xs = [decimal.Decimal(v) for v in x]
    if op == "exp":
        vals = [_DEC.exp(v) for v in xs]
    elif op == "log":
        vals = [_DEC.ln(v) for v in xs]
    else:
        es = [decimal.Decimal(v) for v in (e if isinstance(e, tuple) else (e, e))]
        vals = [_DEC.exp(_DEC.multiply(p, _DEC.ln(b))) for b in xs for p in es]
    return min(vals), max(vals)


def _transcendental(kind, op, operands) -> list:
    """(lo, hi) per operand pair, or None where the class rejects it."""
    def apply(x, e):
        if op == "**":
            return x ** (e if not isinstance(e, tuple) else kind(*e))
        return getattr(x, op)()

    if kind is IntervalArray:
        # one element at a time, since a float exponent broadcasts as a scalar
        results = [apply(IntervalArray(*x), e) for x, e in operands]
        return [None if math.isnan(r.lo) else (float(r.lo), float(r.hi)) for r in results]
    out = []
    for x, e in operands:
        try:
            r = apply(Interval(*x), e)
        except (IntervalDomainError, OverflowError):
            out.append(None)
            continue
        out.append((r.lo, r.hi))
    return out


@pytest.mark.parametrize("kind", [Interval, IntervalArray])
@pytest.mark.parametrize("op", ["exp", "log", "**"])
def test_transcendental_rounding_contains_exact_result(kind, op):
    rng = np.random.default_rng(37)
    operands = _transcendental_operands(rng, op, 300)
    results = _transcendental(kind, op, operands)
    checked = 0
    for (x, e), r in zip(operands, results):
        if r is None:
            continue
        lo, hi = _exact_transcendental(op, x, e)
        assert r[0] == -math.inf or decimal.Decimal(r[0]) <= lo, (op, x, e, r)
        assert r[1] == math.inf or decimal.Decimal(r[1]) >= hi, (op, x, e, r)
        checked += 1
    assert checked >= 200
    # the edges are exercised on both sides: some results overflow, some do not
    if op != "log":
        assert None in results[300:] and any(r is not None for r in results[300:])

def test_libm_gate_broadcasts_and_gives_nan_where_a_call_raises():
    def check(got, fn, *args):
        cols = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
        assert got.shape == cols[0].shape
        for vals, g in zip(zip(*(c.ravel().tolist() for c in cols)), got.ravel().tolist()):
            try:
                want = fn(*vals)
            except (OverflowError, ValueError, ZeroDivisionError):
                assert math.isnan(g), vals
            else:
                assert g == want or (math.isnan(g) and math.isnan(want)), vals

    x = np.array([[0.5, 1e-300, 3.0], [0.0, -3.0, math.nan]])
    # 1e-300 ** -2 overflows and 0 ** -2 divides by zero; the scalar broadcasts
    check(_libm(pow, x, -2.0), pow, x, -2.0)
    assert np.isnan(_libm(pow, x, -2.0)[[0, 1], [1, 0]]).all()
    check(_libm(math.log, x), math.log, x)  # log of 0 and of -3 raise
    check(_libm(math.exp, [1.0, 800.0]), math.exp, [1.0, 800.0])
    # no call raises: the fast path, bit for bit
    ys = np.linspace(-3.0, 3.0, 101)
    check(_libm(math.hypot, ys[:, None], ys), math.hypot, ys[:, None], ys)
    check(_libm(math.cos, 2.5), math.cos, 2.5)


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


def test_array_outward_step_is_math_nextafter():
    # the array kernels' outward step is the scalar path's, bit for bit
    from pentacc.intervals import _adown, _aup
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               sys.float_info.max, -sys.float_info.max, sys.float_info.min,
               -sys.float_info.min, 1.0, -1.0]
    x = np.concatenate([special, rng.standard_normal(1000)
                        * 10.0 ** rng.integers(-320, 300, 1000)])
    for step, direction in ((_adown, -math.inf), (_aup, math.inf)):
        with np.errstate(all="ignore"):
            got = step(x)
        want = np.array([math.nextafter(v, direction) for v in x.tolist()])
        same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
        assert same.all(), x[~same]


def test_box_split_and_validation():
    box = Box(Interval(0.2, 0.4), Interval(2.0, 3.0))
    l, r = box.split_coord(0)
    assert l.y4.hi == r.y4.lo
    l, r = box.split_coord(1)
    assert l.a.hi == r.a.lo
    with pytest.raises(ValueError):
        Box(Interval(0.2, 0.4), Interval(1.0, 3.0))


@pytest.mark.parametrize("box, coord, want", [
    ((0.2, 0.4, 2.0, 3.0), 0, ((0.2, 0.30000000000000004, 2.0, 3.0),
                               (0.30000000000000004, 0.4, 2.0, 3.0))),
    ((0.2, 0.4, 2.0, 3.0), 1, ((0.2, 0.4, 2.0, 2.5), (0.2, 0.4, 2.5, 3.0))),
    # a coordinate without width is never halved when the other one has width
    ((0.3, 0.3, 2.0, 3.0), 0, ((0.3, 0.3, 2.0, 2.5), (0.3, 0.3, 2.5, 3.0))),
    ((0.2, 0.4, 2.5, 2.5), 1, ((0.2, 0.30000000000000004, 2.5, 2.5),
                               (0.30000000000000004, 0.4, 2.5, 2.5))),
    ((0.3, 0.3, 2.5, 2.5), 1, ((0.3, 0.3, 2.5, 2.5), (0.3, 0.3, 2.5, 2.5))),
])
def test_one_split_rule_for_boxes_and_frontiers(box, coord, want):
    got = Box(Interval(*box[:2]), Interval(*box[2:])).split_coord(coord)
    assert tuple(b.key() for b in got) == want
    # the frontier form: the same rule on bound arrays, here one box twice
    lower, upper = split_bounds(*([v, v] for v in box), [coord, coord])
    assert [tuple(float(c[1]) for c in half) for half in (lower, upper)] == list(want)


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


# ---------------------------------------------------------------------------
# Jet2 over IntervalArray, slot by slot and as a traced plan, against Jet2
# over Interval

def _slots(jet) -> tuple:
    return jet.v, jet.dy, jet.da, jet.dyy, jet.dya


def _element(x, i: int):
    """Element i of a jet or an IntervalArray, over scalar Intervals."""
    if isinstance(x, Jet2):
        return Jet2(*(_element(p, i) for p in _slots(x)))
    if isinstance(x, IntervalArray):
        return Interval(x.lo[i], x.hi[i])
    return x


def _interval_array(rng, n: int, lo: float, hi: float) -> IntervalArray:
    low = rng.uniform(lo, hi, n)
    return IntervalArray(low, low + 10.0 ** rng.uniform(-12.0, -1.0, n))


def _stacked_operands(n: int = 60) -> tuple:
    """Jets x and y over IntervalArray that mix array, float-constant and
    structural-zero slots, and an IntervalArray a.  Some elements of x
    straddle zero or overflow exp, some of y straddle zero, so the scalar
    path raises there."""
    rng = np.random.default_rng(18)
    v = _interval_array(rng, n, 0.3, 2.0)
    v.lo[:6], v.hi[:6] = -v.hi[:6], -v.lo[:6]           # negative values
    v.lo[6:10] = -0.1                                    # straddles zero
    v.lo[10:13] += 800.0                                 # exp overflows
    v.hi[10:13] += 800.0
    w = _interval_array(rng, n, 0.5, 1.5)
    w.lo[20:24] = -0.05                                  # straddles zero
    x = Jet2(v, 1.0, 0.0, _interval_array(rng, n, -1.0, 1.0), 0.0)
    y = Jet2(w, _interval_array(rng, n, -1.0, 1.0), 2.5, 0.0,
             _interval_array(rng, n, -1.0, 1.0))
    return x, y, _interval_array(rng, n, 0.5, 2.0)


_STACKED_OPS = {
    "x + y": lambda x, y, a: x + y,
    "x + a": lambda x, y, a: x + a,
    "1.5 + x": lambda x, y, a: 1.5 + x,
    "x - y": lambda x, y, a: x - y,
    "y - x": lambda x, y, a: y - x,
    "x - a": lambda x, y, a: x - a,
    "2.0 - x": lambda x, y, a: 2.0 - x,
    "-y": lambda x, y, a: -y,
    "x * y": lambda x, y, a: x * y,
    "y * x": lambda x, y, a: y * x,
    "x * x": lambda x, y, a: x * x,
    "x * a": lambda x, y, a: x * a,
    "3.0 * y": lambda x, y, a: 3.0 * y,
    "x / y": lambda x, y, a: x / y,
    "y / x": lambda x, y, a: y / x,
    "x / a": lambda x, y, a: x / a,
    "1.0 / x": lambda x, y, a: 1.0 / x,
    "x ** 2.5": lambda x, y, a: x ** 2.5,
    "x ** -1.0": lambda x, y, a: x ** -1.0,
    "y ** 2": lambda x, y, a: y ** 2,
    "x ** y": lambda x, y, a: x ** y,
    "sqrt x": lambda x, y, a: x.sqrt(),
    "exp x": lambda x, y, a: x.exp(),
    "exp y": lambda x, y, a: y.exp(),
    "log x": lambda x, y, a: x.log(),
    "log y": lambda x, y, a: y.log(),
    "abs x": lambda x, y, a: abs(x),
    "abs y": lambda x, y, a: abs(y),
}


def _assert_matches_the_scalar_jets(got: tuple, operands: tuple, apply) -> None:
    """``got``, the slots of ``apply`` on array operands, element by element
    against ``apply`` on the scalar jets: the same bits, and invalid exactly
    where the scalar path raises."""
    n = operands[0].v.lo.size
    raised = np.zeros(n, dtype=bool)
    want = np.full((5, 2, n), np.nan)
    zero = np.zeros((5, n), dtype=bool)  # the scalar slot is a structural zero
    for i in range(n):
        try:
            scalar = _slots(apply(*(_element(x, i) for x in operands)))
        except (IntervalDomainError, OverflowError):
            raised[i] = True
            continue
        for slot, (part, s) in enumerate(zip(got, scalar)):
            if isinstance(part, float):
                # a constant or structural zero: the same float for every element
                assert type(part) is float and isinstance(s, float) and part == s, (slot, i)
            else:
                # abs turns a constant c into the points -c and c, and a plan
                # outputs a float as a row of it
                want[slot, :, i] = (s, s) if isinstance(s, float) else (s.lo, s.hi)
                zero[slot, i] = isinstance(s, float) and s == 0.0
    # exactly where the scalar path raises, the array jet is invalid
    assert got[0].valid.size == n
    np.testing.assert_array_equal(
        np.logical_and.reduce([p.valid for p in got if isinstance(p, IntervalArray)]), ~raised)
    for slot, part in enumerate(got):
        if isinstance(part, IntervalArray):
            # a structural zero is 0.0 or -0.0, as negations leave it: by value
            np.testing.assert_array_equal(part.lo[zero[slot] & ~raised], 0.0)
            np.testing.assert_array_equal(part.hi[zero[slot] & ~raised], 0.0)
            rest = ~zero[slot] & ~raised
            np.testing.assert_array_equal(part.lo[rest].view(np.int64),
                                          want[slot, 0, rest].view(np.int64))
            np.testing.assert_array_equal(part.hi[rest].view(np.int64),
                                          want[slot, 1, rest].view(np.int64))


def _run_traced(apply, operands: tuple) -> list:
    """``apply`` traced on jets of rows, with the array slots of the
    operands as the plan's inputs."""
    arrays = [p for x in operands for p in (_slots(x) if isinstance(x, Jet2) else (x,))
              if isinstance(p, IntervalArray)]

    def formula(*rows):
        rows = iter(rows)

        def row(p):
            return next(rows) if isinstance(p, IntervalArray) else p
        return _slots(apply(*(Jet2(*map(row, _slots(x))) if isinstance(x, Jet2) else row(x)
                              for x in operands)))
    return _trace(formula, len(arrays)).run(*arrays)


@pytest.mark.parametrize("op", list(_STACKED_OPS))
def test_stacked_jet_matches_the_scalar_jets_element_by_element(op):
    apply = _STACKED_OPS[op]
    operands = _stacked_operands()
    _assert_matches_the_scalar_jets(_slots(apply(*operands)), operands, apply)


@pytest.mark.parametrize("op", list(_STACKED_OPS))
def test_traced_jet_matches_the_scalar_jets_element_by_element(op):
    # the plan of the formula, every output a row: a float slot comes out
    # as a row of that float
    apply = _STACKED_OPS[op]
    operands = _stacked_operands()
    got = _run_traced(apply, operands)
    assert len(got) == 5 and all(isinstance(p, IntervalArray) for p in got)
    _assert_matches_the_scalar_jets(got, operands, apply)


def test_stacked_jet_keeps_constants_and_zeros_as_floats():
    x, y, a = _stacked_operands()
    t = Jet2.variable_y(a)
    u = t * t  # dyy = 2.0 * (1.0 * 1.0): the exact float, not a widened interval
    assert [type(p) for p in _slots(u)] == [IntervalArray, IntervalArray, float, float, float]
    assert (u.da, u.dyy, u.dya) == (0.0, 2.0, 0.0)
    z = 3.0 * (y - 1.0)
    assert type(z.da) is float and z.da == 7.5 and type(z.dyy) is float and z.dyy == 0.0
    # a jet whose every slot is a float leaves the arrays
    assert all(type(p) is float for p in _slots(x * 0.0))


def test_stacked_jet_results_own_their_rows():
    # a plan's output is a new array, never a view of the register file of
    # inputs, constants and intermediate results
    x, y, a = _stacked_operands()
    for apply in (lambda x, y, a: x + y, lambda x, y, a: x - y, lambda x, y, a: 2.0 - x,
                  lambda x, y, a: x * y, lambda x, y, a: x ** 1.5, lambda x, y, a: x.exp()):
        for r in _run_traced(apply, (x, y, a)):
            assert r.lo.base is None and r.hi.base is None


def test_stacked_jet_operands_make_scalar_path_fail_somewhere():
    # the operands exercise both outcomes for the partial operations
    x, y, a = _stacked_operands()
    for f in (lambda: 1.0 / x, lambda: y / x, lambda: x.exp(), lambda: y.log(),
              lambda: abs(x), lambda: x ** y):
        valid = f().v.valid
        assert 0 < valid.sum() < valid.size
