"""Interval arithmetic and second-order jets."""

import decimal
import json
import math
import operator
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pentacc.intervals as intervals
from pentacc.certify import certify_unique_root
from pentacc.intervals import (
    Box,
    Interval,
    IntervalArray,
    IntervalDomainError,
    Jet2,
    _libm,
    _libm_distinct,
    _Row,
    _trace,
    _Y4Memo,
    split_bounds,
)
from pentacc.symmetric import scan_branch, window_for


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


def _divide(x, y):
    """x / y on Intervals, and the div kernel on two plan rows, which no
    jet formula records: a jet divides a row only into a number."""
    return x.trace.op("div", x, y) if isinstance(x, _Row) else x / y


def _apply(op, x, y):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    return _divide(x, y)


def _run_one(fn, *inputs: IntervalArray) -> IntervalArray:
    """``fn`` on rows, traced into a plan with one output and run on the
    IntervalArray inputs."""
    return _trace(lambda *rows: [fn(*rows)], len(inputs)).run(*inputs)[0]


def _one(bounds) -> IntervalArray:
    """A one-element IntervalArray."""
    return IntervalArray([bounds[0]], [bounds[1]])


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

    IntervalArray runs the operation as a one-call plan.  For "*c" the
    second operand is the float ys[i][0], as the constants in the jets,
    which a plan holds as a point row; IntervalArray then takes one element
    at a time, a plan for each constant.
    """
    def apply(x, y):
        if isinstance(op, (int, float)):
            return x ** op
        return x * y if op == "*c" else _apply(op, x, y)

    if kind is IntervalArray and op != "*c":
        r = _run_one(apply, IntervalArray(*zip(*xs)), IntervalArray(*zip(*ys)))
        return [(lo, hi) if not math.isnan(lo) else None
                for lo, hi in zip(r.lo.tolist(), r.hi.tolist())]
    out = []
    for x, y in zip(xs, ys):
        if kind is IntervalArray:
            r = _run_one(lambda t, c=y[0]: apply(t, c), _one(x))
            out.append(None if math.isnan(r.lo[0]) else (float(r.lo[0]), float(r.hi[0])))
            continue
        try:
            r = apply(kind(*x), y[0] if op == "*c" else kind(*y))
        except (IntervalDomainError, OverflowError):
            out.append(None)
            continue
        out.append(None if math.isnan(r.lo) else (float(r.lo), float(r.hi)))
    return out


@pytest.mark.parametrize("kind", [Interval, IntervalArray])
@pytest.mark.parametrize("op", ["+", "-", "*", "*c", "/", -3, -2, -1, 2, 3, 5, -2.0])
def test_outward_rounding_contains_exact_result(kind, op, rounding_paths):
    # the array kernels are audited in plans, on both rounding paths
    rng = np.random.default_rng(31)
    xs, ys = _audit_operands(rng, 400), _audit_operands(rng, 400)
    for _ in rounding_paths if kind is IntervalArray else ["scalar"]:
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
            return x ** e
        return getattr(x, op)()

    if kind is IntervalArray:
        # one element at a time, a one-call plan each, since a float
        # exponent is a constant of the plan; an interval one is an input
        results = [_run_one(apply, _one(x), _one(e)) if isinstance(e, tuple)
                   else _run_one(lambda t, e=e: apply(t, e), _one(x)) for x, e in operands]
        return [None if math.isnan(r.lo[0]) else (float(r.lo[0]), float(r.hi[0]))
                for r in results]
    out = []
    for x, e in operands:
        try:
            r = apply(Interval(*x), Interval(*e) if isinstance(e, tuple) else e)
        except (IntervalDomainError, OverflowError):
            out.append(None)
            continue
        out.append((r.lo, r.hi))
    return out


@pytest.mark.parametrize("kind", [Interval, IntervalArray])
@pytest.mark.parametrize("op", ["exp", "log", "**"])
def test_transcendental_rounding_contains_exact_result(kind, op, rounding_paths):
    # the array kernels are audited in plans, on both rounding paths
    rng = np.random.default_rng(37)
    operands = _transcendental_operands(rng, op, 300)
    for _ in rounding_paths if kind is IntervalArray else ["scalar"]:
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


def _bits(v) -> tuple:
    return tuple(np.asarray(v, dtype=float).view(np.uint64).ravel().tolist())


def test_libm_distinct_gives_libms_bits_with_one_call_per_distinct_argument():
    nan2 = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]  # another payload
    x = np.array([0.5, -0.0, 0.0, 0.5, math.nan, nan2, -0.0, 3.0, math.nan, -2.0, 0.5])
    edges = np.concatenate((x, [math.inf, -math.inf, 1e300, math.inf]))
    cases = [(math.cos, (edges,)), (math.sin, (edges,)), (pow, (edges, 2.0)),
             (pow, (edges, -3.0)), (pow, (2.0, edges)), (math.atan2, (edges, edges[::-1])),
             (math.atan2, (edges[:, None], edges)), (math.cos, (np.empty(0),)),
             (math.sin, (0.5,))]
    for fn, args in cases:
        # cos and sin of an infinity raise, pow of 1e300 overflows: NaN there
        got = _libm_distinct(fn, *args)
        assert got.shape == _libm(fn, *args).shape
        assert _bits(got) == _bits(_libm(fn, *args)), (fn, args)
    # with no call that raises, each distinct tuple of argument bits makes
    # one call: -0.0 and 0.0 two, the two NaN payloads two
    for fn, args in [(math.cos, (x,)), (math.sin, (x,)), (pow, (x, 2.0)),
                     (math.atan2, (edges, edges[::-1])), (math.atan2, (x[:, None], x))]:
        calls = []

        def record(*vals, fn=fn):
            calls.append(_bits(vals))
            return fn(*vals)
        assert _bits(_libm_distinct(record, *args)) == _bits(_libm(fn, *args))
        cols = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
        want = set(zip(*(_bits(c) for c in cols)))
        assert len(calls) == len(want) and set(calls) == want, fn


def test_interval_array_marks_scalar_failures_invalid(rounding_paths):
    """Each element of a plan's output is NaN where Interval raises;
    elsewhere it has the scalar result's bits on the step path and lies
    inside it on the upward path."""
    bounds = [(-2.0, -1.0), (-1.0, 0.0), (0.0, 0.0), (0.0, 2.0), (0.5, 1.5), (1e200, 1e201),
              (-1e-200, -1e-300), (0.9, 1.1)]
    arr = IntervalArray(*zip(*bounds))
    # (the scalar formula, the plan's formula on rows, the plan's input)
    cases = [(f, f, arr) for f in (lambda t: t.log(), lambda t: t ** -2,
                                   lambda t: (t * 800.0).exp(), lambda t: t ** 0.5 - t * t)]
    # integer powers, on both sides of overflow and underflow
    cases += [(lambda t, n=n: t ** n,) * 2 + (arr,) for n in (-5, -4, -3, 2, 3, 400)]
    # a division by a row of [-1, 1]; abs of an array rounds nothing and
    # runs before the plan
    divisor = IntervalArray(np.full(len(bounds), -1.0), np.full(len(bounds), 1.0))
    cases += [(lambda t: t / Interval(-1.0, 1.0), None, arr),
              (lambda t: abs(t) ** 3, lambda t: t ** 3, abs(arr))]
    for _ in rounding_paths:
        for scalar_op, array_op, x in cases:
            got = (_run_one(_divide, x, divisor) if array_op is None
                   else _run_one(array_op, x))
            for i, b in enumerate(bounds):
                try:
                    want = scalar_op(Interval(*b))
                except (IntervalDomainError, OverflowError):
                    assert math.isnan(got.lo[i]) and math.isnan(got.hi[i])
                    assert not got.valid[i]
                else:
                    rounding_paths.check(got.lo[i], got.hi[i], want.lo, want.hi)
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


# fesetround's argument for rounding toward -inf and toward zero, by
# platform.machine()
_FE_DOWNWARD = {"x86_64": 0x400, "aarch64": 0x800000, "arm64": 0x800000}
_FE_TOWARDZERO = {"x86_64": 0xC00, "aarch64": 0xC00000, "arm64": 0xC00000}

# the four kernels, on Intervals or as a plan traces them; a jet divides
# a row only into a number, and _divide records the div kernel on two rows
_ARITHMETIC = (operator.add, operator.sub, operator.mul, _divide)


def _host_fenv() -> tuple:
    """The (fegetround, fesetround, upward mode) the kernels switch with."""
    env = intervals._fenv()
    if intervals._rounding() != "upward":
        pytest.skip("numpy's arithmetic does not round upward under this host's fesetround")
    return env


def _mixed_plan():
    """A plan whose steps mix the upward kernels with the libm ones."""
    return _trace(lambda x, y: [((x * y + 1.0 / y - x).exp() * y - 1.5).log() ** 2], 2)


def _some_operands() -> tuple:
    rng = np.random.default_rng(34)
    x = _interval_array(rng, 300, -3.0, 3.0)
    return x, _interval_array(rng, 300, 0.25, 2.0)


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.machine() not in intervals._FE_UPWARD,
                    reason="the upward path is claimed for Linux on x86-64 and aarch64")
def test_linux_hosts_take_the_upward_path():
    assert intervals._rounding() == "upward"


@pytest.mark.parametrize("caller", ["nearest", "downward"])
def test_kernels_give_the_callers_rounding_mode_back(caller):
    # after a plan run, after one whose kernel raises, and after the
    # self-test, the caller's rounding mode is back
    get, set_, up = _host_fenv()
    nearest = get()
    mode = nearest if caller == "nearest" else _FE_DOWNWARD[platform.machine().lower()]
    x, y = _some_operands()
    plan, raising = _mixed_plan(), _mixed_plan()

    def boom(*args):
        raise ZeroDivisionError("a kernel failed")
    # the first upward kernel after a libm one raises
    late = next(k for k, step in enumerate(raising.steps)
                if step[1] and any(s[1] is False for s in raising.steps[:k]))
    raising.steps = [*raising.steps[:late], (boom, *raising.steps[late][1:])]
    seen = []
    assert set_(mode) == 0
    try:
        plan.run(x, y)
        seen.append(get())
        with pytest.raises(ZeroDivisionError):
            raising.run(x, y)
        seen.append(get())
        assert intervals._self_test(get, set_, up)
        seen.append(get())
    finally:
        set_(nearest)
    assert seen == [mode] * 3


@pytest.mark.parametrize("caller", ["nearest", "downward"])
def test_only_plans_compute_interval_arrays(caller):
    # IntervalArray has no arithmetic that could round to nearest unseen;
    # and the certifier and the scan, whose plans switch the rounding mode,
    # give the caller's back
    x, y = _some_operands()
    for op in (lambda: x + y, lambda: x * 2.0, lambda: x ** 2):
        with pytest.raises(TypeError):
            op()
    get, set_, _ = _host_fenv()
    nearest = get()
    mode = nearest if caller == "nearest" else _FE_DOWNWARD[platform.machine().lower()]
    assert set_(mode) == 0
    try:
        certify_unique_root(window_for("A", "A2"), (2.0, 3.0), "A")
        scan_branch("B", 3.0)
        seen = get()
    finally:
        set_(nearest)
    assert seen == mode


def test_results_do_not_depend_on_the_callers_rounding_mode():
    # the public certificates and scans run their float code outside plans
    # (box splits, float grids, scalar Newton steps) under round to
    # nearest: under a caller in FE_DOWNWARD the A2 certificate, the scan
    # of branch B at A = 3 and the A_c enclosure are byte-identical to
    # their runs under nearest, and the caller's mode is back after them
    from pentacc.symmetric import bifurcation_scan
    env = intervals._fenv()
    if not env:
        pytest.skip("this host has no fesetround that ctypes finds")
    get, set_, _ = env

    def outputs() -> tuple:
        cert = certify_unique_root(window_for("A", "A2"), (2.0, 3.0), "A")
        return (json.dumps(cert.to_json()), repr(scan_branch("B", 3.0)),
                repr(bifurcation_scan((3.0, 3.3))))
    want = outputs()
    nearest = get()
    assert set_(_FE_DOWNWARD[platform.machine().lower()]) == 0
    try:
        got = outputs()
        back = get()
    finally:
        set_(nearest)
    assert back == _FE_DOWNWARD[platform.machine().lower()]
    assert got == want


def test_float_parsing_and_libm_are_unchanged_after_a_plan_run():
    # CPython's float parsing and glibc's error bounds assume nearest: a
    # plan run of every kernel leaves both as they were
    _host_fenv()
    xs = [0.1, 1.0, 2.5, -3.0, 700.0]
    before = (float("0.1").hex(), (1.0 / 3.0).hex(), _libm(math.exp, xs).tobytes())
    x, y = _some_operands()
    _mixed_plan().run(x, y)
    _trace(lambda *xy: [op(*xy) for op in _ARITHMETIC], 2).run(x, y)
    assert (float("0.1").hex(), (1.0 / 3.0).hex(), _libm(math.exp, xs).tobytes()) == before
    assert before[0] == "0x1.999999999999ap-4"
    assert _libm(math.exp, xs).tolist() == [math.exp(v) for v in xs]


@pytest.mark.parametrize("caller", ["downward", "towardzero", "upward"])
def test_plans_run_to_nearest_whatever_the_callers_mode(caller, rounding_paths):
    # every step but the four upward kernels, and the midpoint fill, runs
    # under round to nearest: under a directed caller mode the certifier's
    # plan and the scan guard's give the bits of the run under nearest, on
    # both rounding paths, and the caller's mode is back after them
    import pentacc.certify as certify
    import pentacc.symmetric as symmetric
    env = intervals._fenv()
    if not env:
        pytest.skip("this host has no fesetround that ctypes finds")
    get, set_, _ = env
    machine = platform.machine().lower()
    mode = {"downward": _FE_DOWNWARD, "towardzero": _FE_TOWARDZERO,
            "upward": intervals._FE_UPWARD}[caller][machine]
    rng = np.random.default_rng(38)
    lo, hi = window_for("B", "B2")
    ylo, alo = rng.uniform(lo, hi, 200), rng.uniform(2.0, 5.0, 200)
    y = IntervalArray(ylo, ylo + 10.0 ** rng.uniform(-9.0, -1.0, 200))
    a = IntervalArray(alo, alo + 10.0 ** rng.uniform(-9.0, 0.0, 200))

    def outputs() -> list:
        return [*certify._f_plan("B").run(y, a), *symmetric._natural_plan("B", 3.0).run(y)]
    for _ in rounding_paths:
        want = outputs()
        nearest = get()
        assert set_(mode) == 0
        try:
            got = outputs()
            back = get()
        finally:
            set_(nearest)
        assert back == mode
        assert all(w.valid.sum() > 100 for w in want)
        for g, w in zip(got, want):
            for p, q in ((g.lo, w.lo), (g.hi, w.hi)):
                np.testing.assert_array_equal(p.view(np.int64), q.view(np.int64))


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.machine() != "x86_64",
                    reason="FE_UPWARD is 0x800 on glibc x86-64")
def test_a_first_plan_run_under_upward_rounding_takes_the_upward_path():
    # the self-test checks round to nearest under FE_TONEAREST, not under
    # the caller's mode, so a process whose first plan run happens under
    # FE_UPWARD still takes the upward path
    script = ("import ctypes\n"
              "from pentacc import intervals\n"
              "libm = ctypes.CDLL('libm.so.6')\n"
              "assert libm.fesetround(0x800) == 0\n"
              "path = intervals._rounding()\n"
              "mode = libm.fegetround()\n"
              "libm.fesetround(0)\n"
              "print(path, hex(mode))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "upward 0x800\n"


@pytest.mark.parametrize("failure", ["no fesetround", "mode not honoured", "unknown machine"])
def test_a_failed_self_test_gives_the_step_paths_bits(failure, monkeypatch):
    # where the self-test fails the kernels step each bound one ulp outward
    # after rounding to nearest: the scalar Interval's bits
    monkeypatch.setattr(intervals, "_FENV", None)
    if failure == "no fesetround":
        monkeypatch.setattr(intervals, "_c_fenv", lambda: None)
    elif failure == "mode not honoured":
        # FE_TONEAREST is 0 on every host: nothing rounds upward
        monkeypatch.setattr(intervals, "_FE_UPWARD", dict.fromkeys(intervals._FE_UPWARD, 0))
    else:
        monkeypatch.setattr(intervals, "_FE_UPWARD", {})
    x, y = _some_operands()
    ops = (*_ARITHMETIC, lambda x, y: 1.5 / y)
    traced = _trace(lambda *xy: [op(*xy) for op in ops], 2).run(x, y)
    assert intervals._rounding() == "step"
    # where ctypes found fesetround the step path keeps it, to run to nearest
    if failure == "mode not honoured":
        assert intervals._FENV[2] == intervals._FE_TONEAREST
    else:
        assert intervals._FENV is False
    got = [(op, r) for op, r in zip(ops, traced)]
    got += [(op, _run_one(op, x, y)) for op in ops]
    for op, r in got:
        want = np.full((2, x.lo.size), np.nan)
        for i in range(x.lo.size):
            try:
                w = op(Interval(x.lo[i], x.hi[i]), Interval(y.lo[i], y.hi[i]))
            except IntervalDomainError:
                continue
            want[:, i] = w.lo, w.hi
        np.testing.assert_array_equal(np.stack([r.lo, r.hi]).view(np.int64), want.view(np.int64))


def test_upward_kernels_lie_inside_the_step_paths_bounds(rounding_paths):
    # the upward path is on where the host takes it: its bounds lie inside
    # the step path's, one ulp tighter on many elements
    x, y = _some_operands()
    got = {path: [_run_one(op, x, y) for op in _ARITHMETIC] for path in rounding_paths}
    if "upward" not in got:
        pytest.skip("this host runs the step path only")
    for step, up in zip(got["step"], got["upward"]):
        np.testing.assert_array_equal(up.valid, step.valid)
        ok = step.valid
        assert (up.lo[ok] >= step.lo[ok]).all() and (up.hi[ok] <= step.hi[ok]).all()
        assert (up.hi[ok] < step.hi[ok]).mean() > 0.25 and (up.lo[ok] > step.lo[ok]).mean() > 0.25


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
# Jet2 over IntervalArray as a traced plan, one formula alone and every
# formula in one plan, against Jet2 over Interval

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
    # x's dy slot is the float 1.0, which abs makes a row of signs
    "abs x * y": lambda x, y, a: abs(x) * y,
}


def _assert_matches_the_scalar_jets(got: tuple, operands: tuple, apply, paths) -> None:
    """``got``, the five slots of ``apply`` on array operands as a plan
    outputs them, element by element against ``apply`` on the scalar jets:
    invalid exactly where the scalar path raises, and elsewhere the bounds
    ``paths.check`` asks for, the same bits on the step path."""
    n = operands[0].v.lo.size
    assert len(got) == 5 and all(isinstance(p, IntervalArray) for p in got)
    raised = np.zeros(n, dtype=bool)
    want = np.full((5, 2, n), np.nan)
    zero = np.zeros((5, n), dtype=bool)  # the scalar slot is a structural zero
    for i in range(n):
        try:
            scalar = _slots(apply(*(_element(x, i) for x in operands)))
        except (IntervalDomainError, OverflowError):
            raised[i] = True
            continue
        for slot, s in enumerate(scalar):
            # abs turns a constant c into the points -c and c, and a plan
            # outputs a float as a row of it
            want[slot, :, i] = (s, s) if isinstance(s, float) else (s.lo, s.hi)
            zero[slot, i] = isinstance(s, float) and s == 0.0
    # exactly where the scalar path raises, the array jet is invalid
    assert got[0].valid.size == n
    np.testing.assert_array_equal(np.logical_and.reduce([p.valid for p in got]), ~raised)
    for slot, part in enumerate(got):
        # a structural zero is 0.0 or -0.0, as negations leave it: by value
        np.testing.assert_array_equal(part.lo[zero[slot] & ~raised], 0.0)
        np.testing.assert_array_equal(part.hi[zero[slot] & ~raised], 0.0)
        rest = ~zero[slot] & ~raised
        paths.check(part.lo[rest], part.hi[rest], want[slot, 0, rest], want[slot, 1, rest])


def _run_traced(apply, operands: tuple) -> list:
    """``apply`` traced on jets of rows, with the array slots of the
    operands as the plan's inputs; a jet's five slots are the outputs, or
    every slot of a tuple of them."""
    arrays = [p for x in operands for p in (_slots(x) if isinstance(x, Jet2) else (x,))
              if isinstance(p, IntervalArray)]

    def formula(*rows):
        rows = iter(rows)

        def row(p):
            return next(rows) if isinstance(p, IntervalArray) else p
        out = apply(*(Jet2(*map(row, _slots(x))) if isinstance(x, Jet2) else row(x)
                      for x in operands))
        return _slots(out) if isinstance(out, Jet2) else out
    return _trace(formula, len(arrays)).run(*arrays)


def _every_op(x, y, a) -> tuple:
    """The slots of every formula of ``_STACKED_OPS``, one after another."""
    return tuple(p for apply in _STACKED_OPS.values() for p in _slots(apply(x, y, a)))


@pytest.mark.parametrize("op", list(_STACKED_OPS))
def test_stacked_jet_matches_the_scalar_jets_element_by_element(op, rounding_paths):
    # one plan with the slots of every formula as outputs, whose ready calls
    # of one kind stack across the formulas into one kernel call: the
    # formula's five outputs there
    apply = _STACKED_OPS[op]
    operands = _stacked_operands()
    k = list(_STACKED_OPS).index(op)
    for _ in rounding_paths:
        got = _run_traced(_every_op, operands)
        assert len(got) == 5 * len(_STACKED_OPS)
        _assert_matches_the_scalar_jets(got[5 * k:5 * k + 5], operands, apply, rounding_paths)


@pytest.mark.parametrize("op", list(_STACKED_OPS))
def test_traced_jet_matches_the_scalar_jets_element_by_element(op, rounding_paths):
    # the plan of the formula, every output a row: a float slot comes out
    # as a row of that float
    apply = _STACKED_OPS[op]
    operands = _stacked_operands()
    for _ in rounding_paths:
        _assert_matches_the_scalar_jets(_run_traced(apply, operands), operands, apply,
                                        rounding_paths)


def test_stacked_jet_keeps_constants_and_zeros_as_floats():
    # on jets of rows a constant or structural zero stays a float, and runs
    # no kernel
    jets = {}

    def formula(x, y, a):
        t = Jet2.variable_y(a)
        jets.update(u=t * t, z=3.0 * (y - 1.0), zero=x * 0.0)
        return jets["u"]
    u_rows = _run_traced(formula, _stacked_operands())
    u, z = jets["u"], jets["z"]
    # dyy = 2.0 * (1.0 * 1.0): the exact float, not a widened interval
    assert [type(p) for p in _slots(u)] == [_Row, _Row, float, float, float]
    assert (u.da, u.dyy, u.dya) == (0.0, 2.0, 0.0)
    assert type(z.da) is float and z.da == 7.5 and type(z.dyy) is float and z.dyy == 0.0
    # a jet whose every slot is a float leaves the rows
    assert all(type(p) is float for p in _slots(jets["zero"]))
    # the plan outputs a float slot as a point row of it
    assert (u_rows[3].lo == 2.0).all() and (u_rows[3].hi == 2.0).all()


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
    operands = _stacked_operands()
    for f in (lambda x, y, a: 1.0 / x, lambda x, y, a: y / x, lambda x, y, a: x.exp(),
              lambda x, y, a: y.log(), lambda x, y, a: abs(x), lambda x, y, a: x ** y):
        valid = _run_traced(f, operands)[0].valid
        assert 0 < valid.sum() < valid.size


def test_a_plan_whose_alone_outputs_read_no_y4_row_runs():
    # the plan of a * a alone reads no row of the y4 stage, so a memo
    # column picks no row for it: that empty pick must still be an index
    # array, or every run raises IndexError
    plan = _trace(lambda y, a: (y.exp() * a, a * a), 2, y4=(0,), alone=(1,))
    y = IntervalArray(np.array([0.1, 0.1, 0.2]), np.array([0.2, 0.2, 0.3]))
    a = IntervalArray(np.array([2.0, 2.5, 3.0]), np.array([3.0, 3.5, 3.0]))
    whole = plan.run(y, a)
    for memo in (None, _Y4Memo()):
        f, square = plan.run(y, a, memo=memo, need=np.ones(3, dtype=int))
        assert np.isnan(f.lo).all() and np.isnan(f.hi).all()
        assert square.lo.tobytes() == whole[1].lo.tobytes()
        assert square.hi.tobytes() == whole[1].hi.tobytes()
        for lo, hi, x in zip(square.lo, square.hi, (2.0, 2.5, 3.0)):
            assert lo <= x * x <= hi


# The plan compiler's fuzz: random straight-line formulas over (y, a), each
# step (name, parameter, operand indices), where value 0 is y and 1 is a.
# "c/", "c*" and "c-" take a number as the left operand, "pow" an integer
# exponent, "mid" reads an input's midpoint, and "abs" is x._abs_part(c) on
# rows and Intervals and abs(x) on jets.  A formula runs on rows and on the
# scalar Interval, or on the jets of the variables y and a over each, as the
# certifier runs F; a jet outputs its five slots.
_FUZZ_STEPS = {
    "add": (2, lambda p, x, y: x + y),
    "sub": (2, lambda p, x, y: x - y),
    "mul": (2, lambda p, x, y: x * y),
    "div": (2, lambda p, x, y: _divide(x, y)),
    "abs": (2, lambda p, x, c: abs(x) if isinstance(x, Jet2) else x._abs_part(c)),
    "neg": (1, lambda p, x: -x),
    "exp": (1, lambda p, x: x.exp()),
    "log": (1, lambda p, x: x.log()),
    "pow": (1, lambda p, x: x ** p),
    "c/": (1, lambda p, x: p / x),
    "c*": (1, lambda p, x: p * x),
    "c-": (1, lambda p, x: p - x),
    "mid": (1, lambda p, x: x.mid if isinstance(x, _Row) else Interval.point(x.mid)),
}


def _fuzz_formula(rng, jets: bool) -> tuple:
    """(steps, outputs, alone): 3 to 24 steps (12 on jets, and no "mid"),
    up to 4 outputs, each a value index or, on rows, a number, and a random
    subset of the outputs' rows as ``alone``."""
    names = [name for name in _FUZZ_STEPS if not (jets and name == "mid")]
    steps = []
    for k in range(int(rng.integers(3, 13 if jets else 25))):
        name = names[int(rng.integers(len(names)))]
        arity, _ = _FUZZ_STEPS[name]
        # y4-only chains are common, so that the first stage has work
        args = [int(rng.integers(2)) if name == "mid" else int(rng.integers(2 + k))
                for _ in range(arity)]
        param = (int(rng.integers(-3, 5)) if name == "pow"
                 else float(rng.choice([0.5, -1.5, 2.0, 3.0])) if name in ("c/", "c*", "c-")
                 else None)
        steps.append((name, param, args))
    count = 2 + len(steps)
    outputs = [float(rng.choice([0.25, -2.0])) if not jets and rng.random() < 0.05
               else int(count - 1 - rng.integers(min(count, 6)))
               for _ in range(rng.integers(1, 5))]
    alone = [i for i in range(5 * len(outputs) if jets else len(outputs)) if rng.random() < 0.5]
    return steps, outputs, alone


def _fuzz_text(steps, outputs, alone, jets: bool) -> str:
    lines = [f"v{2 + k} = {name}{'' if p is None else f'[{p}]'}"
             f"({', '.join(f'v{i}' for i in args)})" for k, (name, p, args) in enumerate(steps)]
    outs = ", ".join(repr(o) if isinstance(o, float) else f"v{o}" for o in outputs)
    return "\n".join(lines + [f"outputs {outs}{' (jets)' if jets else ''}; alone {alone}"])


def _fuzz_run(steps, outputs, jets: bool, y, a) -> list:
    """The formula's outputs on rows or on Intervals, on jets their slots;
    on Intervals, a value whose step raises, or that reads such a value,
    is None, and so is each slot of such a jet."""
    vals = [Jet2.variable_y(y), Jet2.variable_a(a)] if jets else [y, a]
    for name, p, args in steps:
        xs = [vals[i] for i in args]
        try:
            vals.append(None if None in xs else _FUZZ_STEPS[name][1](p, *xs))
        except (IntervalDomainError, OverflowError):
            vals.append(None)
    outs = [o if isinstance(o, float) else vals[o] for o in outputs]
    if jets:
        return [p for o in outs for p in ((None,) * 5 if o is None else _slots(o))]
    return outs


def _fuzz_columns(rng, n: int) -> tuple:
    """n (y, a) columns whose y intervals repeat, some straddling 0."""
    pool = rng.uniform(-1.0, 2.5, int(rng.integers(1, 6)))
    y_lo = pool[rng.integers(pool.size, size=n)]
    y_hi = y_lo + 10.0 ** rng.uniform(-6.0, 0.0, pool.size)[rng.integers(pool.size, size=n)]
    a_lo = rng.uniform(-0.5, 3.0, n)
    return (IntervalArray(y_lo, np.maximum(y_lo, y_hi)),
            IntervalArray(a_lo, a_lo + 10.0 ** rng.uniform(-6.0, 0.0, n)))


def _fuzz_want(steps, outputs, jets: bool, y, a) -> tuple:
    """(lo, hi, ok): the formula's output rows on the scalar Interval, one
    row an output row and one column a column, and where the scalar path
    succeeds; a float output, such as a jet's structural zero, is a point."""
    want = []
    for j in range(y.lo.size):
        out = _fuzz_run(steps, outputs, jets, Interval(y.lo[j], y.hi[j]),
                        Interval(a.lo[j], a.hi[j]))
        want.append([(math.nan, math.nan) if w is None else (w, w) if isinstance(w, float)
                     else (w.lo, w.hi) for w in out])
    lo, hi = np.array(want, dtype=float).transpose(2, 1, 0)
    return lo, hi, ~np.isnan(lo)


def _fuzz_check(got, want, alone, need, paths, strict: bool) -> None:
    """The output rows of a plan run against ``_fuzz_want``: NaN in a
    block that ran the plan of ``alone`` if the row is not in it, else
    valid wherever the scalar path is, with ``paths.check``'s bounds.  On
    the step path a ``strict`` check also asks for NaN wherever the scalar
    path raises; a jet is invalid on the scalar path as a whole, but the
    plan's slots can be valid one by one."""
    want_lo, want_hi, ok = want
    n = ok.shape[1]
    width = min(n, 2 * intervals._PASS_ROWS)
    ran_alone = np.zeros(n, dtype=bool)
    if need is not None and alone:
        for c0 in range(0, n, width):
            ran_alone[c0:c0 + width] = np.bitwise_or.reduce(need[c0:c0 + width]) == 1
    assert len(got) == len(ok)
    for i, part in enumerate(got):
        skip = ran_alone & (i not in alone)
        assert np.isnan(part.lo[skip]).all() and np.isnan(part.hi[skip]).all(), i
        assert part.valid[ok[i] & ~skip].all(), (i, part.lo, want_lo[i])
        if strict and paths.exact:
            assert not part.valid[~ok[i] & ~skip].any(), (i, part.lo, want_lo[i])
        sel = ok[i] & ~skip
        paths.check(part.lo[sel], part.hi[sel], want_lo[i, sel], want_hi[i, sel])


# formulas per seed on rows and on jets, about 1 s of Tier-1 a seed
_FUZZ_FORMULAS = {False: 60, True: 12}


@pytest.mark.parametrize("seed", [7, 11])
def test_plan_compiler_matches_the_scalar_interval_on_random_formulas(
        seed, rounding_paths, monkeypatch):
    # random formulas traced into plans with a y4 stage and an ``alone``
    # plan, run whole and with need bits, without and with a y4 memo that
    # a second run reuses on halves and repeats of the first run's y4
    # columns; one block of columns, and blocks of 6 columns, which split
    # the runs and make memo blocks of more than 4 y4 columns element-bound
    for jets, count in _FUZZ_FORMULAS.items():
        for k in range(count):
            rng = np.random.default_rng((seed, int(jets), k))
            steps, outputs, alone = _fuzz_formula(rng, jets)
            try:
                _fuzz_one(rng, steps, outputs, alone, jets, rounding_paths, monkeypatch)
            except AssertionError as exc:
                raise AssertionError(f"seed {seed}, formula {k}:\n"
                                     f"{_fuzz_text(steps, outputs, alone, jets)}\n{exc}") from exc


def _fuzz_one(rng, steps, outputs, alone, jets, paths, monkeypatch) -> None:
    plan = _trace(lambda y, a: _fuzz_run(steps, outputs, jets, y, a), 2, y4=(0,), alone=alone)
    y, a = _fuzz_columns(rng, int(rng.integers(1, 40)))
    (l_lo, l_hi, *_), (u_lo, u_hi, *_) = split_bounds(y.lo, y.hi, a.lo, a.hi, 0)
    pick = rng.integers(y.lo.size, size=y.lo.size)
    half = rng.random(y.lo.size) < 0.5
    y2 = IntervalArray(np.where(half, l_lo, u_lo)[pick], np.where(half, l_hi, u_hi)[pick])
    a2 = IntervalArray(a.lo[pick], a.hi[pick])
    need = rng.choice([np.ones(y.lo.size, dtype=int), np.full(y.lo.size, 3),
                       rng.choice([1, 3], y.lo.size)])
    runs = [(ys, as_, _fuzz_want(steps, outputs, jets, ys, as_)) for ys, as_ in ((y, a), (y2, a2))]
    for rows in (128, 3):
        monkeypatch.setattr(intervals, "_PASS_ROWS", rows)
        for _ in paths:
            _fuzz_check(plan.run(y, a), runs[0][2], alone, None, paths, not jets)
            memo = _Y4Memo()
            for ys, as_, want in runs:
                for m in (None, memo):
                    _fuzz_check(plan.run(ys, as_, memo=m, need=need), want, alone, need, paths,
                                not jets)
