"""Rigorous interval arithmetic with outward rounding, plus dual numbers.

Every arithmetic operation returns an interval that contains the exact real
result for all points of the operand intervals.  Outward rounding is done by
nudging each computed bound one ulp outward with math.nextafter; exp and log
get two ulps to absorb libm error.  No rounding-mode switching is required,
which keeps the arithmetic portable.

Dual numbers carry a value and a first derivative through the same operator
set.  Their components may be floats or Intervals, which gives simultaneous
enclosures of a function and its derivative over a box.  Jet2 carries
second-order terms in two variables for the mean-value form.  The
certifier runs on Jet2 alone: one pass over the box centers and the whole
boxes gives the mean-value form and, as the whole-box value, the natural
form it is met with (``certify._mv_eval``).
Dual serves the root scan, which needs F and dF/dy4 at one float exponent:
its tangency guard and the simplicity check of a root enclosure
(``symmetric._natural_eval`` and ``symmetric._interval_simple``).  There F
on a Dual costs about 0.7 of a run of F's traced Jet2 plan over the same
boxes (4.8 against 6.8 ms on 200 B2 boxes, medians of 40 alternate runs on
a 2-core x86 host).

IntervalArray holds many intervals as two float64 arrays, so that the
certifier evaluates a whole bisection frontier, with levels of candidate
children, in one pass (after Rump's INTLAB).  Jet2 and Dual carry
IntervalArray components unchanged.  The certifier runs F's jet as a plan
instead (``_trace``): the scalar Jet2 formulas run once on register rows,
with float constants and structural zeros kept as floats, and record their
kernel calls; the plan makes the calls of one kind at one depth as one call
on stacked rows, under one np.errstate, with the operators' bodies
(``_quiet``).  A run takes the columns in blocks of one pass and reuses the
rows of values no later call reads, so its memory does not grow with the
frontier.  This is tape-based forward differentiation (A. Griewank and A.
Walther, *Evaluating Derivatives*, 2008) on interval enclosures.  Each
array operation repeats the scalar formula element by element, with the
outward step of math.nextafter, and reproduces the Interval bounds bit for
bit; where Interval raises, the element turns NaN instead.  sqrt uses
np.sqrt, which is correctly rounded like math.sqrt.  exp, log and integer
powers call libm (math.exp, math.log, float **) once per element, never
np.exp, np.log or np.power: numpy's SIMD kernels differ from libm on about
4.6 % of exp arguments in [-30, 30], 5.3 % of power(x, -3) arguments in
[0.05, 3] and 0.05 % of log arguments in [1e-5, 1e5] (200k float64 samples
each, numpy 2.4 on an AVX-512 Xeon).  That would break the bit-identity
with the scalar path and the libm error bound behind the one- and two-ulp
padding.  ``_libm`` is the package's one gate to libm for arrays: these
three kernels send both bounds through it in one call, and
``geometry.chain_points`` (cos, sin, hypot, a square),
``geometry.interior_angles`` (atan2), and the two-mass coefficients (a
square) and the mutual-distance residual tables (r**-A and r**2) of
``equations`` call it too.

The module ends with the package's one adaptive-bisection loop,
``_bisect``, next to its split rule ``split_bounds``.  It runs breadth first
over a frontier of (y4, A) boxes and takes the box evaluator and the
deciders as arguments; the certifier and the root scan's tangency guard
both run on it (after W. Tucker, *Validated Numerics*, 2011).  A pass costs
about the same whatever its size up to some hundred rows, so each pass
evaluates the frontier together with whole levels of its candidate
children, both halves along each coordinate a box may split on, up to
``_PASS_ROWS`` rows, and resolves as many depths as that batch covers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["IntervalDomainError", "Interval", "IntervalArray", "Box", "Dual", "split_bounds"]

_INF = math.inf


class IntervalDomainError(ArithmeticError):
    """An interval operation left its domain (division by zero, log of 0, ...)."""


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise IntervalDomainError("NaN interval bound")
        if lo > hi:
            raise IntervalDomainError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x: float) -> "Interval":
        x = float(x)
        return cls(x, x)

    @classmethod
    def around(cls, x: float) -> "Interval":
        """One-ulp fattening of x; encloses a real known to within rounding."""
        x = float(x)
        return cls(_down(x), _up(x))

    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo > 0.0

    def strictly_negative(self) -> bool:
        return self.hi < 0.0

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise IntervalDomainError(
                f"empty intersection of [{self.lo}, {self.hi}] and [{other.lo}, {other.hi}]")
        return Interval(lo, hi)

    def split(self) -> tuple:
        m = self.mid
        return Interval(self.lo, m), Interval(m, self.hi)

    def __repr__(self) -> str:
        return f"[{self.lo:.17g}, {self.hi:.17g}]"

    # ---- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval.point(float(x))

    def __add__(self, other):
        o = self._coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._coerce(other)
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.contains_zero():
            raise IntervalDomainError(f"division by interval containing zero: {o}")
        p = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __abs__(self):
        if self.lo >= 0.0:
            return Interval(self.lo, self.hi)
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def sqrt(self) -> "Interval":
        clipped = self.intersect(Interval(0.0, _INF))
        return Interval(max(0.0, _down(math.sqrt(clipped.lo))), _up(math.sqrt(clipped.hi)))

    def exp(self) -> "Interval":
        # two ulps outward: libm exp is not guaranteed correctly rounded
        return Interval(_down(_down(math.exp(self.lo))), _up(_up(math.exp(self.hi))))

    def log(self) -> "Interval":
        if self.lo <= 0.0:
            raise IntervalDomainError(f"log of interval touching 0: {self}")
        return Interval(_down(_down(math.log(self.lo))), _up(_up(math.log(self.hi))))

    def _int_pow(self, n: int) -> "Interval":
        if n == 0:
            return Interval(1.0, 1.0)
        if n < 0:
            if self.contains_zero():
                raise IntervalDomainError(
                    f"negative power of interval containing zero: {self}")
            p = (self.lo ** n, self.hi ** n)
            return Interval(_down(min(p)), _up(max(p)))
        if n % 2 == 0:
            a = abs(self)
            return Interval(max(0.0, _down(a.lo ** n)), _up(a.hi ** n))
        return Interval(_down(self.lo ** n), _up(self.hi ** n))

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            return self._int_pow(exponent)
        if isinstance(exponent, float) and exponent.is_integer():
            return self._int_pow(int(exponent))
        # real or interval exponent: x^e = exp(e * log x), needs x > 0
        return (self.log() * self._coerce(exponent)).exp()

    def __rpow__(self, base):
        return self._coerce(base) ** self


@dataclass(frozen=True)
class Box:
    """Rectangle in the (y4, A) parameter plane."""

    y4: Interval
    a: Interval

    def __post_init__(self):
        if self.a.lo < 2.0:
            raise ValueError(f"exponent interval must stay within [2, inf), got {self.a}")

    def split_coord(self, coord: int) -> tuple:
        """Bisect coordinate 0 (y4) or 1 (A) by the rule of ``split_bounds``."""
        return tuple(Box(Interval(ylo, yhi), Interval(alo, ahi))
                     for ylo, yhi, alo, ahi in split_bounds(*self.key(), coord))

    def key(self) -> tuple:
        return (self.y4.lo, self.y4.hi, self.a.lo, self.a.hi)


def split_bounds(ylo, yhi, alo, ahi, coord) -> tuple:
    """The bisection rule of (y4, A) boxes, over arrays of box bounds.

    Each box is halved along y4 when ``coord`` asks for it (0) and y4 has
    width, else along A when A has width, else along y4; the halves meet at
    the midpoint 0.5 * (lo + hi), as in ``Interval.split``.  Returns the
    (ylo, yhi, alo, ahi) arrays of the lower halves and of the upper halves.
    ``Box.split_coord`` and the certifier's frontier both split this way.
    """
    ylo, yhi, alo, ahi = (np.asarray(v, dtype=float) for v in (ylo, yhi, alo, ahi))
    on_y = ((np.asarray(coord) == 0) & (yhi - ylo > 0.0)) | ~(ahi - alo > 0.0)
    ym, am = 0.5 * (ylo + yhi), 0.5 * (alo + ahi)
    return ((ylo, np.where(on_y, ym, yhi), alo, np.where(on_y, ahi, am)),
            (np.where(on_y, ym, ylo), yhi, np.where(on_y, alo, am), ahi))


def _adown(x):
    return np.nextafter(x, -_INF)


def _aup(x):
    return np.nextafter(x, _INF)


def _libm(fn, *args) -> np.ndarray:
    """``fn`` mapped over the broadcast arguments as Python floats.

    The package's one gate to libm (``math`` functions and Python's float
    ``pow``) for array kernels.  An element whose call raises is NaN; the
    loop that catches the error runs only when the fast ``map`` raises.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    cols = [a.ravel().tolist() for a in arrays]
    try:
        out = np.fromiter(map(fn, *cols), dtype=float, count=arrays[0].size)
    except (OverflowError, ValueError, ZeroDivisionError):
        out = []
        for vals in zip(*cols):
            try:
                out.append(fn(*vals))
            except (OverflowError, ValueError, ZeroDivisionError):
                out.append(math.nan)
    return np.asarray(out, dtype=float).reshape(arrays[0].shape)


def _quiet(op):
    """Run an IntervalArray operation with numpy's floating-point warnings off;
    invalid results become NaN elements instead."""
    @functools.wraps(op)
    def wrapped(*args):
        with np.errstate(all="ignore"):
            return op(*args)
    return wrapped


class IntervalArray:
    """Element-wise intervals [lo[i], hi[i]] held in two float64 arrays.

    Each operation follows the scalar ``Interval`` formula on every element,
    so element i of a result has the bounds ``Interval`` computes from
    element i of the operands, bit for bit.  Where ``Interval`` raises for an
    element (NaN or inverted bound, division by an interval containing 0,
    log of an interval touching 0, a negative power of an interval
    containing 0, an empty sqrt clip, a libm overflow), that element gets
    NaN bounds instead and NaN propagates through later operations;
    ``valid`` marks the other elements.  Floats, float arrays and
    broadcastable shapes mix in as point intervals.
    """

    __slots__ = ("lo", "hi")
    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, lo, hi):
        self._set(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))

    def _set(self, lo, hi) -> None:
        ok = lo <= hi  # false for a NaN bound or an inverted pair
        if not np.logical_and.reduce(ok, axis=None):
            lo = np.where(ok, lo, math.nan)
            hi = np.where(ok, hi, math.nan)
        self.lo = lo
        self.hi = hi

    @classmethod
    def _new(cls, lo, hi) -> "IntervalArray":
        """An operation's result from float64 bounds, without conversion."""
        out = object.__new__(cls)
        out._set(lo, hi)
        return out

    @classmethod
    def _of(cls, lo, hi) -> "IntervalArray":
        """Bounds that an IntervalArray already holds (rows or elements of a
        stack), without the check of ``_set``."""
        out = object.__new__(cls)
        out.lo = lo
        out.hi = hi
        return out

    @classmethod
    def point(cls, x) -> "IntervalArray":
        return cls(x, x)

    @classmethod
    def around(cls, x) -> "IntervalArray":
        """One-ulp fattening of each element, as ``Interval.around``."""
        x = np.asarray(x, dtype=float)
        return cls(_adown(x), _aup(x))

    @property
    def valid(self) -> np.ndarray:
        return ~np.isnan(self.lo)

    @property
    @_quiet
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    @_quiet
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def contains_zero(self) -> np.ndarray:
        return (self.lo <= 0.0) & (0.0 <= self.hi)

    def intersect(self, other: "IntervalArray") -> "IntervalArray":
        # Python's max(a, b) keeps a unless b > a; likewise min
        return IntervalArray._new(np.where(other.lo > self.lo, other.lo, self.lo),
                                  np.where(other.hi < self.hi, other.hi, self.hi))

    def __getitem__(self, index) -> "IntervalArray":
        return IntervalArray._new(self.lo[index], self.hi[index])

    def __repr__(self) -> str:
        return f"IntervalArray(lo={self.lo!r}, hi={self.hi!r})"

    # ---- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x) -> "IntervalArray":
        if isinstance(x, IntervalArray):
            return x
        if isinstance(x, float):
            # a constant: a point whose float bounds broadcast
            out = object.__new__(IntervalArray)
            out.lo = out.hi = x
            return out
        return IntervalArray.point(x)

    @staticmethod
    def _hull(p, lo_nan) -> "IntervalArray":
        # Python's min/max over the tuple p skip a NaN except in first place
        lo = np.fmin(np.fmin(p[0], p[1]), np.fmin(p[2], p[3]))
        hi = np.fmax(np.fmax(p[0], p[1]), np.fmax(p[2], p[3]))
        lo = np.where(lo_nan | np.isnan(p[0]), math.nan, lo)
        return IntervalArray._new(_adown(lo), _aup(hi))

    @_quiet
    def __add__(self, other):
        o = self._coerce(other)
        return IntervalArray._new(_adown(self.lo + o.lo), _aup(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return IntervalArray._new(-self.hi, -self.lo)

    @_quiet
    def __sub__(self, other):
        o = self._coerce(other)
        return IntervalArray._new(_adown(self.lo - o.hi), _aup(self.hi - o.lo))

    def __rsub__(self, other):
        return self._coerce(other) - self

    @_quiet
    def __mul__(self, other):
        o = self._coerce(other)
        return self._hull((self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi),
                          False)

    __rmul__ = __mul__

    @_quiet
    def __truediv__(self, other):
        o = self._coerce(other)
        return self._hull((self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi),
                          o.contains_zero())

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __abs__(self):
        lo, hi = self.lo, self.hi
        pos = lo >= 0.0
        neg = ~pos & (hi <= 0.0)
        top = np.where(hi > -lo, hi, -lo)  # Python's max(-lo, hi)
        return IntervalArray._new(np.where(pos, lo, np.where(neg, -hi, 0.0)),
                                  np.where(pos, hi, np.where(neg, -lo, top)))

    @_quiet
    def sqrt(self) -> "IntervalArray":
        # clip to [0, inf] as Interval.intersect does; np.sqrt is correctly rounded
        lo = np.where(0.0 > self.lo, 0.0, self.lo)
        lo = np.where(lo > self.hi, math.nan, lo)
        s = _adown(np.sqrt(lo))
        # Python's max(0.0, s); where s is NaN the upper bound is too
        return IntervalArray._new(np.where(s > 0.0, s, 0.0), _aup(np.sqrt(self.hi)))

    # exp, log and the integer powers call libm on both bounds at once

    @_quiet
    def exp(self) -> "IntervalArray":
        # two ulps outward, as Interval.exp
        lo, hi = _libm(math.exp, (self.lo, self.hi))
        return IntervalArray._new(_adown(_adown(lo)), _aup(_aup(hi)))

    @_quiet
    def log(self) -> "IntervalArray":
        lo, hi = _libm(math.log, (np.where(self.lo > 0.0, self.lo, math.nan), self.hi))
        return IntervalArray._new(_adown(_adown(lo)), _aup(_aup(hi)))

    @_quiet
    def _int_pow(self, n: int) -> "IntervalArray":
        if n == 0:
            one = np.where(np.isnan(self.lo), math.nan, 1.0)
            return IntervalArray._new(one, one)
        power = lambda v: v ** n  # noqa: E731  float ** is libm pow
        if n < 0:
            p0, p1 = _libm(power, np.where(self.contains_zero(), math.nan, (self.lo, self.hi)))
            # NaN-propagating: an overflow in either bound invalidates the element
            return IntervalArray._new(_adown(np.minimum(p0, p1)), _aup(np.maximum(p0, p1)))
        a = abs(self) if n % 2 == 0 else self
        lo, hi = _libm(power, (a.lo, a.hi))
        # even n: Python's max(0.0, _down(lo)), as _adown keeps a positive lo
        # nonnegative; where lo is NaN the upper bound is too
        lo = np.where(lo > 0.0, _adown(lo), 0.0) if n % 2 == 0 else _adown(lo)
        return IntervalArray._new(lo, _aup(hi))

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            return self._int_pow(exponent)
        if isinstance(exponent, float) and exponent.is_integer():
            return self._int_pow(int(exponent))
        return (self.log() * self._coerce(exponent)).exp()


def _zero(x) -> bool:
    """A structural zero: the float 0.0 that a jet or dual keeps in a slot
    whose every term vanishes identically."""
    return isinstance(x, float) and x == 0.0


def _mul(x, y):
    """x * y, or 0.0 without an operation when a factor is a structural zero."""
    return 0.0 if _zero(x) or _zero(y) else x * y


def _add(x, y):
    """x + y with structural-zero summands dropped."""
    if _zero(y):
        return x
    return y if _zero(x) else x + y


def _sub(x, y):
    """x - y with structural-zero operands dropped."""
    if _zero(y):
        return x
    return -y if _zero(x) else x - y


def _abs_part(v: IntervalArray, c) -> IntervalArray:
    """Component c of |x| for a jet or dual x with value array v.

    It is negated where v < 0 and kept where v >= 0; elements where v
    straddles 0 (the scalar classes raise there) become invalid.
    """
    c = IntervalArray._coerce(c)
    neg = v.hi < 0.0
    straddle = ~neg & ~(v.lo >= 0.0)
    return IntervalArray._new(np.where(straddle, math.nan, np.where(neg, -c.hi, c.lo)),
                              np.where(straddle, math.nan, np.where(neg, -c.lo, c.hi)))


def _abs_parts(v, parts) -> list:
    """Components of |x| for a jet or dual x with value v, an IntervalArray
    or a traced row.  A structural zero stays 0.0, as it does on the scalar
    path."""
    part = _Row._abs_part if isinstance(v, _Row) else _abs_part
    return [0.0 if _zero(c) else part(v, c) for c in parts]


class _Row:
    """A register row of a plan while its formula is traced (``_trace``).

    It has the IntervalArray operators that the jet formulas use.  Each
    records the kernel call it stands for, with the operands in the order
    that IntervalArray's operator passes them to the kernel; ``**`` is
    IntervalArray's own dispatch over ``_int_pow``, ``log`` and ``exp``.
    """

    __slots__ = ("trace", "reg")

    def __init__(self, trace: "_Trace", reg: tuple):
        self.trace = trace
        self.reg = reg

    def __add__(self, other):
        return self.trace.op("add", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.trace.op("sub", self, other)

    def __rsub__(self, other):
        return self.trace.op("sub", other, self)

    def __mul__(self, other):
        return self.trace.op("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.trace.op("div", self, other)

    def __rtruediv__(self, other):
        return self.trace.op("div", other, self)

    def __neg__(self):
        return self.trace.op("neg", self)

    def exp(self):
        return self.trace.op("exp", self)

    def log(self):
        return self.trace.op("log", self)

    def _int_pow(self, n: int):
        return self.trace.op("pow", self, param=n)

    def _abs_part(self, c):
        return self.trace.op("abs", self, c)

    @staticmethod
    def _coerce(x):
        # a number operand stays a number; the trace makes its point row
        return x

    __pow__ = IntervalArray.__pow__


# The kernel of each traced operation: the body of the IntervalArray
# operator, without the errstate that a plan's run enters once.
_KERNELS = {
    "add": IntervalArray.__add__.__wrapped__,
    "sub": IntervalArray.__sub__.__wrapped__,
    "mul": IntervalArray.__mul__.__wrapped__,
    "div": IntervalArray.__truediv__.__wrapped__,
    "neg": IntervalArray.__neg__,
    "exp": IntervalArray.exp.__wrapped__,
    "log": IntervalArray.log.__wrapped__,
    "pow": IntervalArray._int_pow.__wrapped__,
    "abs": _abs_part,
}


def _rows(regs: list):
    """Register rows as a slice when they are consecutive, else an index array."""
    if regs == list(range(regs[0], regs[0] + len(regs))):
        return slice(regs[0], regs[0] + len(regs))
    return np.array(regs, dtype=np.intp)


def _lowest_run(free: set, size: int, k: int) -> int:
    """The first row of the lowest run of k free rows, where the rows from
    ``size`` on are free."""
    run = 0
    for row in range(size):
        run = run + 1 if row in free else 0
        if run == k:
            return row - k + 1
    return size - run


class _Trace:
    """The kernel calls of a formula, recorded once on register rows."""

    def __init__(self, inputs: int):
        self.inputs = inputs
        self.consts = {}  # repr of a number operand -> its point row
        self.ops = []     # (kind, param, argument registers), in call order
        self.memo = {}    # each distinct call runs once: log(v) serves every v ** c

    def const(self, x) -> tuple:
        """The register of a number operand: the point IntervalArray._coerce
        makes of it, one row for each float."""
        x = float(x)
        return self.consts.setdefault(repr(x), ("const", len(self.consts), x))

    def op(self, kind: str, *args, param=None) -> _Row:
        regs = tuple(a.reg if isinstance(a, _Row) else self.const(a) for a in args)
        key = (kind, param, regs)
        if key not in self.memo:
            self.memo[key] = _Row(self, ("op", len(self.ops)))
            self.ops.append(key)
        return self.memo[key]

    def compile(self, outputs) -> "_Plan":
        """The plan that computes ``outputs``, rows or numbers: one stacked
        kernel call for the needed calls of each (depth, kind, parameter),
        by depth.  A call depends only on its operands, so the order of
        independent calls cannot change a bit.  A row is given back once
        the last step that reads it has run, and each step's results take
        the lowest run of free rows; no step writes a row it reads."""
        outs = [o.reg if isinstance(o, _Row) else self.const(o) for o in outputs]
        depth = {}
        for k, (_, _, regs) in enumerate(self.ops):
            depth[("op", k)] = 1 + max(depth.get(r, 0) for r in regs)
        need, todo = set(), list(outs)
        while todo:
            reg = todo.pop()
            if reg[0] == "op" and reg not in need:
                need.add(reg)
                todo.extend(self.ops[reg[1]][2])
        groups = {}
        for reg in sorted(need, key=lambda r: (depth[r], r[1])):
            kind, param, _ = self.ops[reg[1]]
            groups.setdefault((depth[reg], kind, param), []).append(reg)
        last = {}  # the step that reads a register last; the outputs are read at the end
        for s, regs in enumerate(groups.values()):
            for reg in regs:
                last.update(dict.fromkeys(self.ops[reg[1]][2], s))
        last.update(dict.fromkeys(outs, len(groups)))
        row = {("in", i): i for i in range(self.inputs)}
        row.update((c, self.inputs + c[1]) for c in self.consts.values())
        free = {r for reg, r in row.items() if reg not in last}
        size, steps = len(row), []
        for s, ((_, kind, param), regs) in enumerate(groups.items()):
            start = _lowest_run(free, size, len(regs))
            stop = start + len(regs)
            free.difference_update(range(start, stop))
            size = max(size, stop)
            row.update((reg, start + i) for i, reg in enumerate(regs))
            args = list(zip(*(self.ops[reg[1]][2] for reg in regs)))
            steps.append((_KERNELS[kind], () if param is None else (param,), start, stop,
                          *(_rows([row[a] for a in col]) for col in args)))
            free.update(row[a] for col in args for a in col if last[a] == s)
        consts = np.array([c[2] for c in self.consts.values()], dtype=float)
        return _Plan(size, self.inputs, consts, steps, [row[o] for o in outs])


def _trace(fn, inputs: int) -> "_Plan":
    """Run ``fn`` once on ``inputs`` traced rows and compile the kernel calls
    of the rows and numbers it returns into one plan.  ``fn`` is the scalar
    formula, unchanged: on a ``Jet2`` of rows, a float constant or a
    structural zero stays a float and runs no kernel."""
    trace = _Trace(inputs)
    return trace.compile(fn(*(_Row(trace, ("in", i)) for i in range(inputs))))


class _Plan:
    """A traced formula: a register file of ``size`` rows holds the input
    rows, the number operands as point rows, and the results of the
    stacked kernel calls of ``steps``, which reuse the rows of results no
    later step reads; ``out`` lists the rows of the outputs.

    ``run`` takes the input IntervalArrays, all of one length, and returns
    one new IntervalArray per output.  It processes the columns in blocks
    of 2 * ``_PASS_ROWS``, the jet rows of one full bisection pass, so the
    register file stays small whatever the number of columns."""

    __slots__ = ("size", "inputs", "consts", "steps", "out")

    def __init__(self, size, inputs, consts, steps, out):
        self.size, self.inputs, self.consts, self.steps, self.out = (
            size, inputs, consts, steps, out)

    def run(self, *inputs: IntervalArray) -> list:
        n = inputs[0].lo.shape[0]
        width = min(n, 2 * _PASS_ROWS) or 1
        lo, hi = np.empty((self.size, width)), np.empty((self.size, width))
        out = [(np.empty(n), np.empty(n)) for _ in self.out]
        const_rows = slice(self.inputs, self.inputs + self.consts.size)
        with np.errstate(all="ignore"):
            for c0 in range(0, n, width):
                cols = slice(c0, c0 + width)
                m = min(width, n - c0)
                reg_lo, reg_hi = lo[:, :m], hi[:, :m]
                for i, x in enumerate(inputs):
                    reg_lo[i] = x.lo[cols]
                    reg_hi[i] = x.hi[cols]
                reg_lo[const_rows] = reg_hi[const_rows] = self.consts[:, None]
                for kernel, param, start, stop, *args in self.steps:
                    r = kernel(*(IntervalArray._of(reg_lo[a], reg_hi[a]) for a in args), *param)
                    reg_lo[start:stop] = r.lo
                    reg_hi[start:stop] = r.hi
                for (out_lo, out_hi), r in zip(out, self.out):
                    out_lo[cols] = reg_lo[r]
                    out_hi[cols] = reg_hi[r]
        return [IntervalArray._of(out_lo, out_hi) for out_lo, out_hi in out]


class Jet2:
    """Second-order jet in two variables (y, a), minus the pure a-a term.

    Carries (v, dy, da, dyy, dya) with Interval, IntervalArray or float
    components: enough for mean-value enclosures of a function and of its
    y-derivative over a rectangle.  Exponentials with jet-valued exponents route through
    exp/log, which is how r**(-A) differentiates in both variables.

    Structural zeros stay exact.  A component that vanishes identically,
    such as the a-derivatives of a quantity of y alone, is the float 0.0:
    a product term with a 0.0 factor is 0.0 and runs no operation, a 0.0
    summand is dropped, and a component whose terms all vanish stays 0.0.
    Since 0 encloses an identically zero term, enclosures are never wider
    than with the terms computed, only cheaper.

    Over IntervalArray the formulas run slot by slot.  The certifier does
    not run them there: it traces F on a jet of rows once per branch
    (``_trace``) and runs the plan.
    """

    __slots__ = ("v", "dy", "da", "dyy", "dya")

    def __init__(self, v, dy=0.0, da=0.0, dyy=0.0, dya=0.0):
        self.v = v
        self.dy = dy
        self.da = da
        self.dyy = dyy
        self.dya = dya

    @classmethod
    def variable_y(cls, value) -> "Jet2":
        return cls(value, 1.0, 0.0, 0.0, 0.0)

    @classmethod
    def variable_a(cls, value) -> "Jet2":
        return cls(value, 0.0, 1.0, 0.0, 0.0)

    @staticmethod
    def _parts(x):
        if isinstance(x, Jet2):
            return x.v, x.dy, x.da, x.dyy, x.dya
        return x, 0.0, 0.0, 0.0, 0.0

    def __add__(self, other):
        v, dy, da, dyy, dya = self._parts(other)
        return Jet2(_add(self.v, v), _add(self.dy, dy), _add(self.da, da),
                    _add(self.dyy, dyy), _add(self.dya, dya))

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.v, -self.dy, -self.da, -self.dyy, -self.dya)

    def __sub__(self, other):
        return Jet2(*map(_sub, self._parts(self), self._parts(other)))

    def __rsub__(self, other):
        return Jet2(*map(_sub, self._parts(other), self._parts(self)))

    def __mul__(self, other):
        v, dy, da, dyy, dya = self._parts(other)
        return Jet2(
            _mul(self.v, v),
            _add(_mul(self.dy, v), _mul(self.v, dy)),
            _add(_mul(self.da, v), _mul(self.v, da)),
            _add(_add(_mul(self.dyy, v), _mul(2.0, _mul(self.dy, dy))), _mul(self.v, dyy)),
            _add(_add(_add(_mul(self.dya, v), _mul(self.dy, da)), _mul(self.da, dy)),
                 _mul(self.v, dya)),
        )

    __rmul__ = __mul__

    def _pow_const(self, c: float) -> "Jet2":
        p = self.v ** c
        p1 = c * self.v ** (c - 1.0)
        # every term with the second derivative p2 carries the factor dy
        p2 = 0.0 if _zero(self.dy) else c * (c - 1.0) * self.v ** (c - 2.0)
        return Jet2(
            p,
            _mul(p1, self.dy),
            _mul(p1, self.da),
            _add(_mul(p2, _mul(self.dy, self.dy)), _mul(p1, self.dyy)),
            _add(_mul(p2, _mul(self.dy, self.da)), _mul(p1, self.dya)),
        )

    def __pow__(self, exponent):
        if isinstance(exponent, Jet2):
            return (exponent * self.log()).exp()
        return self._pow_const(float(exponent))

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._pow_const(-1.0)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._pow_const(-1.0) * other

    def sqrt(self) -> "Jet2":
        return self._pow_const(0.5)

    def exp(self) -> "Jet2":
        e = math.exp(self.v) if isinstance(self.v, (int, float)) else self.v.exp()
        return Jet2(
            e,
            _mul(e, self.dy),
            _mul(e, self.da),
            _mul(e, _add(self.dyy, _mul(self.dy, self.dy))),
            _mul(e, _add(self.dya, _mul(self.dy, self.da))),
        )

    def log(self) -> "Jet2":
        lv = math.log(self.v) if isinstance(self.v, (int, float)) else self.v.log()
        inv = 1.0 / self.v
        ldy, lda = _mul(inv, self.dy), _mul(inv, self.da)
        return Jet2(
            lv,
            ldy,
            lda,
            _sub(_mul(inv, self.dyy), _mul(ldy, ldy)),
            _sub(_mul(inv, self.dya), _mul(ldy, lda)),
        )

    def __abs__(self):
        v = self.v
        if isinstance(v, (IntervalArray, _Row)):
            return Jet2(*_abs_parts(v, self._parts(self)))
        if isinstance(v, Interval):
            if v.strictly_negative():
                return -self
            if v.lo >= 0.0:
                return self
            raise IntervalDomainError("abs of a jet whose value interval straddles 0")
        return -self if v < 0.0 else self


class Dual:
    """Forward-mode dual number: value plus derivative with respect to one input.

    Components may be floats, Intervals or IntervalArrays; mixing follows
    the component arithmetic.  Construct seeds with Dual(x, 1.0).  The
    derivative of a constant is the structural zero 0.0, kept exact by the
    rule of ``Jet2``: no operation runs on it, in the product, quotient,
    sqrt and power rules alike.
    """

    __slots__ = ("val", "dot")

    def __init__(self, val, dot=0.0):
        self.val = val
        self.dot = dot

    @staticmethod
    def _parts(x):
        if isinstance(x, Dual):
            return x.val, x.dot
        return x, 0.0

    def __add__(self, other):
        v, d = self._parts(other)
        return Dual(_add(self.val, v), _add(self.dot, d))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __sub__(self, other):
        v, d = self._parts(other)
        return Dual(_sub(self.val, v), _sub(self.dot, d))

    def __rsub__(self, other):
        v, d = self._parts(other)
        return Dual(_sub(v, self.val), _sub(d, self.dot))

    def __mul__(self, other):
        v, d = self._parts(other)
        return Dual(_mul(self.val, v), _add(_mul(self.dot, v), _mul(self.val, d)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v, d = self._parts(other)
        q = self.val / v
        num = _sub(self.dot, _mul(q, d))
        return Dual(q, 0.0 if _zero(num) else num / v)

    def __rtruediv__(self, other):
        v, d = self._parts(other)
        q = v / self.val
        num = _sub(d, _mul(q, self.dot))
        return Dual(q, 0.0 if _zero(num) else num / self.val)

    def sqrt(self):
        r = self.val.sqrt() if hasattr(self.val, "sqrt") else math.sqrt(self.val)
        return Dual(r, 0.0 if _zero(self.dot) else self.dot / (2.0 * r))

    def __abs__(self):
        v = self.val
        if isinstance(v, IntervalArray):
            return Dual(*_abs_parts(v, (v, self.dot)))
        if isinstance(v, Interval):
            if v.strictly_negative():
                return -self
            if v.lo >= 0.0:
                return Dual(v, self.dot)
            raise IntervalDomainError("abs of a dual whose value interval straddles 0")
        return -self if v < 0.0 else Dual(v, self.dot)

    def __pow__(self, exponent):
        # d/dx x^c = c * x^(c-1); exponent constant (float, Fraction, Interval)
        value = self.val ** exponent
        if _zero(self.dot):
            return Dual(value, 0.0)
        return Dual(value, exponent * (self.val ** (exponent - 1.0)) * self.dot)


# ---------------------------------------------------------------------------
# adaptive bisection of (y4, A) boxes

@dataclass(frozen=True)
class CertLeaf:
    """One decided (or undecided) box of a bisection, as certificates list it."""

    y4: tuple
    a: tuple
    verdict: str  # "F", "dF", or "undecided"

    def to_json(self) -> dict:
        return {"y4": list(self.y4), "A": list(self.a), "verdict": self.verdict}


@dataclass(frozen=True)
class _BoxEval:
    """Enclosures of F and dF over a batch of boxes, with per-quantity split hints."""

    f: IntervalArray
    df: IntervalArray
    hint_f: np.ndarray     # coordinate whose error term dominates the F enclosure
    hint_df: np.ndarray    # same for the dF enclosure
    ok: np.ndarray         # f and df are enclosed, and the evaluator's own conditions hold


# verdict codes returned by the deciders; 0 leaves a box open
_VERDICTS = ("undecided", "F", "dF")

# Rows a bisection pass evaluates at most, unless its frontier alone is
# larger.  A pass pays a fixed cost of some hundreds of numpy calls (124
# stacked kernel calls in the certifier's plan of F on branch B), and a row
# adds little to it: on a 2-core x86 host one box takes 3.6-4.3 ms and 128
# boxes 4.0-5.7 ms on the scan's Dual form, 4.0-4.5 and 11.4-11.9 ms on the
# certifier's plan (two runs, medians of 15).  There the three acceptance
# certificates took 0.456 s in process at 128 rows and at one depth a pass,
# 0.454 s at 512 and 0.72 s at 1024 rows, where four candidates a box waste
# rows (medians of 9).  A plan runs its columns in blocks of 2 * _PASS_ROWS,
# the jet rows of one full pass.
_PASS_ROWS = 128

# Boxes of the bisection tree that one ``_bisect`` call may make.  The
# acceptance certificates make at most 3967 (B2), and B2 certified up to its
# collision end needs about 17k; a region that no box decides doubles its
# frontier at each depth and meets the cap after 16 depths.
_MAX_TREE_BOXES = 1 << 16


def _stats(evals_per_depth=(), undecided_domain=0, undecided_straddle=0,
           leaf_depths=(), leaves_by_verdict=None, passes=0, evaluated=0,
           undecided_budget=0) -> dict:
    """How a bisection was reached: the boxes of the bisection tree at each
    depth (the root is depth 0), which ``box_evals`` sums, and two kinds of
    undecided box: those not evaluable (out of the branch domain or no
    enclosure) and those whose zone quantity has an enclosure straddling
    zero.  Any other undecided box has an enclosure of the wrong strict
    sign for its zone, or is one that no split can shrink.  Where the
    leaves lie: ``leaf_depths[d]`` counts the leaves, undecided ones
    included, made at depth d, and ``leaves_by_verdict`` counts them by
    verdict.  ``passes`` counts the ``evaluate`` calls and ``evaluated``
    the rows they evaluated, look-ahead rows included.  ``undecided_budget``,
    present only when nonzero, counts the open boxes kept undecided because
    splitting them would take the tree past ``_MAX_TREE_BOXES``."""
    stats = {
        "box_evals": sum(evals_per_depth),
        "max_depth": max(len(evals_per_depth) - 1, 0),
        "evals_per_depth": list(evals_per_depth),
        "undecided_domain": undecided_domain,
        "undecided_straddle": undecided_straddle,
        "leaf_depths": list(leaf_depths),
        "leaves_by_verdict": dict(leaves_by_verdict or dict.fromkeys(_VERDICTS, 0)),
        "passes": passes,
        "evaluated": evaluated,
    }
    if undecided_budget:
        stats["undecided_budget"] = undecided_budget
    return stats


def _leaf(row, verdict: str) -> CertLeaf:
    return CertLeaf((row[0], row[1]), (row[2], row[3]), verdict)


def _look_ahead(frontier: np.ndarray, levels_left: int) -> tuple:
    """The rows of one bisection pass: the frontier's (4, n) box bounds,
    then whole levels of candidate children, while the batch stays within
    ``_PASS_ROWS`` rows and ``levels_left`` levels, and while a split can
    shrink a box of the last level (``_bisect`` keeps any other box as
    undecided).  The candidates of a box are both halves along each
    coordinate it may split on: y4 alone when no frontier box has A-width
    (``split_bounds`` then always splits y4), else y4 and A.  Returns
    (rows, the first row of each level, the candidates per box); box p of
    a level has its halves along coordinate c at (first row of the next
    level) + ways * p + 2 * c, + 1 for the upper half.
    """
    coords = (0, 1) if np.any(frontier[3] - frontier[2] > 0.0) else (0,)
    ways = 2 * len(coords)
    levels = [frontier]
    starts = [0]
    while (len(levels) <= levels_left
           and starts[-1] + (1 + ways) * levels[-1].shape[1] <= _PASS_ROWS):
        last = levels[-1]
        halves = [np.stack(h) for c in coords
                  for h in split_bounds(*last, np.full(last.shape[1], c))]
        if all(((lower == last).all(axis=0) | (upper == last).all(axis=0)).all()
               for lower, upper in zip(halves[::2], halves[1::2])):
            break
        starts.append(starts[-1] + last.shape[1])
        levels.append(np.stack(halves, axis=2).reshape(4, -1))
    return np.concatenate(levels, axis=1), starts, ways


def _bisect(zones, evaluate, max_depth: int, floor: float) -> tuple:
    """Breadth-first adaptive bisection; returns (leaves, undecided, stats).

    ``zones`` lists (decide, seeds) pairs: a decider and the
    (ylo, yhi, alo, ahi) bounds of its seed boxes.  All boxes share one
    frontier, tagged by zone index.  Each pass evaluates the frontier
    together with whole levels of its candidate children (``_look_ahead``)
    by one ``evaluate`` call on the bound arrays, which returns a
    ``_BoxEval``.  Each decider then runs once on that evaluation and maps
    it to arrays of verdict codes (indices into ``_VERDICTS``), split
    coordinates and a mask of the boxes whose enclosure straddles zero; it
    is read for the rows of its own zone.  The pass then resolves one
    depth after another.  A box with a verdict becomes a leaf carrying it;
    any other box is split along the coordinate, or along y4 when it
    cannot be evaluated, and is kept as undecided once it sits at
    ``max_depth``, is narrower than ``floor`` in y4, or cannot be shrunk by
    a split (a point box, or one whose midpoint rounds to an end).  Once
    splitting the open boxes of a depth would take the tree past
    ``_MAX_TREE_BOXES`` boxes, they are all kept as undecided, and the
    stats count them as ``undecided_budget``.  The
    halves of a split box are its candidate rows in the batch; the boxes
    left open at the last level seed the next pass.  Enclosures, hints and
    verdicts are computed element by element, so a box's outcome does not
    depend on the rest of its batch: the leaves, the undecided boxes and
    every stat but ``passes`` and ``evaluated`` are those of one evaluation
    per depth, and the leaves those of a depth-first bisection, in another
    order.
    """
    leaves, undecided, evals, leaf_depths = [], [], [], []
    by_verdict = dict.fromkeys(_VERDICTS, 0)
    zone = np.array([z for z, (_, seeds) in enumerate(zones) for _ in seeds], dtype=int)
    bounds = np.array([s for _, seeds in zones for s in seeds], dtype=float).reshape(-1, 4).T
    domain = straddle = depth = passes = evaluated = budget = 0
    while zone.size:
        batch, starts, ways = _look_ahead(bounds, max_depth - depth)
        ev = evaluate(*batch)
        passes += 1
        evaluated += batch.shape[1]
        # row p * ways**l + j of level l descends from frontier box p
        tags = np.concatenate([np.repeat(zone, ways ** l) for l in range(len(starts))])
        verdict, coord = np.zeros(tags.size, dtype=int), np.zeros(tags.size, dtype=int)
        straddles = np.zeros(tags.size, dtype=bool)
        for z, (decide, _) in enumerate(zones):
            mine = tags == z
            for out, mask in zip((verdict, coord, straddles), decide(ev)):
                np.copyto(out, mask, where=mine)
        verdict[~ev.ok] = coord[~ev.ok] = 0
        rows = np.arange(zone.size)  # the batch rows of this depth's boxes
        for level, start in enumerate(starts):
            box, code, axis = batch[:, rows], verdict[rows], coord[rows]
            evals.append(int(rows.size))
            listed = box.T.tolist()
            for i in np.flatnonzero(code).tolist():
                leaves.append(_leaf(listed[i], _VERDICTS[code[i]]))
            lower, upper = (np.stack(h) for h in split_bounds(*box, axis))
            stuck = (lower == box).all(axis=0) | (upper == box).all(axis=0)
            open_ = code == 0
            kept = open_ & ((box[1] - box[0] < floor) | (depth >= max_depth) | stuck)
            split = int(np.count_nonzero(open_ & ~kept))
            if sum(evals) + 2 * split > _MAX_TREE_BOXES:
                budget += split
                kept = open_
            undecided.extend(_leaf(listed[i], "undecided") for i in np.flatnonzero(kept).tolist())
            ok = ev.ok[rows]
            domain += int(np.count_nonzero(kept & ~ok))
            straddle += int(np.count_nonzero(kept & ok & straddles[rows]))
            codes = np.bincount(code[~open_ | kept], minlength=len(_VERDICTS))
            for name, n in zip(_VERDICTS, codes.tolist()):
                by_verdict[name] += n
            leaf_depths.append(int(codes.sum()))
            open_ &= ~kept
            depth += 1
            if level + 1 == len(starts) or not open_.any():
                break
            first = starts[level + 1] + ways * (rows[open_] - start)
            if ways == 4:
                first += 2 * axis[open_]
            rows = np.concatenate([first, first + 1])
        bounds = np.concatenate([lower[:, open_], upper[:, open_]], axis=1)
        zone = np.tile(tags[rows[open_]], 2)
    return leaves, undecided, _stats(evals, domain, straddle, leaf_depths, by_verdict,
                                     passes, evaluated, budget)


def _no_common_zero_decider(ev: _BoxEval) -> tuple:
    """Decide boxes on which F or dF/dy4 excludes zero."""
    # codes into _VERDICTS
    f0, df0 = ev.f.contains_zero(), ev.df.contains_zero()
    verdict = np.where(~f0, 1, np.where(~df0, 2, 0))
    # split for whichever quantity is closer to being resolved
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        res_f = np.abs(ev.f.mid) / (ev.f.width + 1e-300)
        res_df = np.abs(ev.df.mid) / (ev.df.width + 1e-300)
    return verdict, np.where(res_f >= res_df, ev.hint_f, ev.hint_df), f0 & df0
