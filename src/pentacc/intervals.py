"""Rigorous interval arithmetic with outward rounding, plus dual numbers.

Every arithmetic operation returns an interval that contains the exact real
result for all points of the operand intervals.  Outward rounding is done by
nudging each computed bound one ulp outward with math.nextafter; exp and log
get two ulps to absorb libm error.  No rounding-mode switching is required,
which keeps the arithmetic portable.

Dual numbers carry a value and a first derivative through the same operator
set.  Their components may be floats or Intervals, which is how the
certification code obtains simultaneous enclosures of a function and its
derivative over a box.  Jet2 carries second-order terms in two variables for
the mean-value form.  Dual stays beside it for two reasons.  Its natural
form costs about a third as much as F on a Jet2 per 1-D cell.  And it is
often tighter on wide boxes, so it decides leaves that the mean-value form
cannot (see ``certify._mv_eval``).

IntervalArray holds many intervals as two float64 arrays, so that the
certifier evaluates a whole bisection frontier in one pass (after Rump's
INTLAB).  Jet2 and Dual carry IntervalArray components unchanged.  Each
array operation repeats the scalar formula element by element, with
np.nextafter for the outward step, and reproduces the Interval bounds bit
for bit; where Interval raises, the element turns NaN instead.  sqrt uses
np.sqrt, which is correctly rounded like math.sqrt.  exp, log and integer
powers call libm (math.exp, math.log, float **) once per element, never
np.exp, np.log or np.power: numpy's SIMD kernels differ from libm on about
4.6 % of exp arguments in [-30, 30], 5.3 % of power(x, -3) arguments in
[0.05, 3] and 0.05 % of log arguments in [1e-5, 1e5] (200k float64
samples each, numpy 2.4 on an AVX-512 Xeon).  That would break the
bit-identity with the scalar path and the libm error bound behind the
one- and two-ulp padding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["IntervalDomainError", "Interval", "IntervalArray", "Box", "Dual"]

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

    def subset_of(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

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
        """Bisect coordinate 0 (y4) or 1 (A)."""
        if coord == 0 and self.y4.width > 0.0:
            l, r = self.y4.split()
            return Box(l, self.a), Box(r, self.a)
        if self.a.width > 0.0:
            l, r = self.a.split()
            return Box(self.y4, l), Box(self.y4, r)
        l, r = self.y4.split()
        return Box(l, self.a), Box(r, self.a)

    def key(self) -> tuple:
        return (self.y4.lo, self.y4.hi, self.a.lo, self.a.hi)


def _adown(x):
    return np.nextafter(x, -_INF)


def _aup(x):
    return np.nextafter(x, _INF)


def _libm(fn, x) -> np.ndarray:
    """``fn`` applied to each element through Python floats; NaN where it raises."""
    x = np.asarray(x, dtype=float)
    out = []
    for v in x.ravel().tolist():
        try:
            out.append(fn(v))
        except (OverflowError, ValueError, ZeroDivisionError):
            out.append(math.nan)
    return np.array(out, dtype=float).reshape(x.shape)


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

    @_quiet
    def exp(self) -> "IntervalArray":
        # libm element by element, two ulps outward, as Interval.exp
        return IntervalArray._new(_adown(_adown(_libm(math.exp, self.lo))),
                                  _aup(_aup(_libm(math.exp, self.hi))))

    @_quiet
    def log(self) -> "IntervalArray":
        lo = np.where(self.lo > 0.0, self.lo, math.nan)
        return IntervalArray._new(_adown(_adown(_libm(math.log, lo))),
                                  _aup(_aup(_libm(math.log, self.hi))))

    @_quiet
    def _int_pow(self, n: int) -> "IntervalArray":
        if n == 0:
            one = np.where(np.isnan(self.lo), math.nan, 1.0)
            return IntervalArray._new(one, one)
        power = lambda v: v ** n  # noqa: E731  float ** is libm pow
        if n < 0:
            zero = self.contains_zero()
            p0 = _libm(power, np.where(zero, math.nan, self.lo))
            p1 = _libm(power, np.where(zero, math.nan, self.hi))
            # NaN-propagating: an overflow in either bound invalidates the element
            return IntervalArray._new(_adown(np.minimum(p0, p1)), _aup(np.maximum(p0, p1)))
        if n % 2 == 0:
            a = abs(self)
            low = _adown(_libm(power, a.lo))
            # Python's max(0.0, low); where low is NaN the upper bound is too
            return IntervalArray._new(np.where(low > 0.0, low, 0.0), _aup(_libm(power, a.hi)))
        return IntervalArray._new(_adown(_libm(power, self.lo)), _aup(_libm(power, self.hi)))

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            return self._int_pow(exponent)
        if isinstance(exponent, float) and exponent.is_integer():
            return self._int_pow(int(exponent))
        return (self.log() * self._coerce(exponent)).exp()


def _abs_parts(v: IntervalArray, parts) -> list:
    """Components of |x| for a jet or dual x with value array v.

    Each component is negated where v < 0 and kept where v >= 0; elements
    where v straddles 0 (the scalar classes raise there) become invalid.
    A float component becomes a point array.
    """
    neg = v.hi < 0.0
    straddle = ~neg & ~(v.lo >= 0.0)
    out = []
    for c in parts:
        c = IntervalArray._coerce(c)
        lo = np.where(neg, -c.hi, c.lo)
        hi = np.where(neg, -c.lo, c.hi)
        out.append(IntervalArray._new(np.where(straddle, math.nan, lo),
                                      np.where(straddle, math.nan, hi)))
    return out


_INTERVAL_TYPES = (Interval, IntervalArray)


class Jet2:
    """Second-order jet in two variables (y, a), minus the pure a-a term.

    Carries (v, dy, da, dyy, dya) with Interval, IntervalArray or float
    components: enough for mean-value enclosures of a function and of its
    y-derivative over a rectangle.  Exponentials with jet-valued exponents route through
    exp/log, which is how r**(-A) differentiates in both variables.
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
        return Jet2(self.v + v, self.dy + dy, self.da + da,
                    self.dyy + dyy, self.dya + dya)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.v, -self.dy, -self.da, -self.dyy, -self.dya)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -_as_interval_like(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        v, dy, da, dyy, dya = self._parts(other)
        return Jet2(
            self.v * v,
            self.dy * v + self.v * dy,
            self.da * v + self.v * da,
            self.dyy * v + 2.0 * (self.dy * dy) + self.v * dyy,
            self.dya * v + self.dy * da + self.da * dy + self.v * dya,
        )

    __rmul__ = __mul__

    def _pow_const(self, c: float) -> "Jet2":
        p = self.v ** c
        p1 = c * self.v ** (c - 1.0)
        p2 = c * (c - 1.0) * self.v ** (c - 2.0)
        return Jet2(
            p,
            p1 * self.dy,
            p1 * self.da,
            p2 * (self.dy * self.dy) + p1 * self.dyy,
            p2 * (self.dy * self.da) + p1 * self.dya,
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
        e = self.v.exp() if isinstance(self.v, _INTERVAL_TYPES) else math.exp(self.v)
        return Jet2(
            e,
            e * self.dy,
            e * self.da,
            e * (self.dyy + self.dy * self.dy),
            e * (self.dya + self.dy * self.da),
        )

    def log(self) -> "Jet2":
        lv = self.v.log() if isinstance(self.v, _INTERVAL_TYPES) else math.log(self.v)
        inv = 1.0 / self.v
        return Jet2(
            lv,
            inv * self.dy,
            inv * self.da,
            inv * self.dyy - (inv * self.dy) * (inv * self.dy),
            inv * self.dya - (inv * self.dy) * (inv * self.da),
        )

    def __abs__(self):
        v = self.v
        if isinstance(v, IntervalArray):
            return Jet2(*_abs_parts(v, (self.v, self.dy, self.da, self.dyy, self.dya)))
        if isinstance(v, Interval):
            if v.strictly_negative():
                return -self
            if v.lo >= 0.0:
                return self
            raise IntervalDomainError("abs of a jet whose value interval straddles 0")
        return -self if v < 0.0 else self


def _as_interval_like(x):
    return Jet2(x) if not isinstance(x, Jet2) else x


class Dual:
    """Forward-mode dual number: value plus derivative with respect to one input.

    Components may be floats, Intervals or IntervalArrays; mixing follows
    the component arithmetic.  Construct seeds with Dual(x, 1.0).
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
        return Dual(self.val + v, self.dot + d)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __sub__(self, other):
        v, d = self._parts(other)
        return Dual(self.val - v, self.dot - d)

    def __rsub__(self, other):
        v, d = self._parts(other)
        return Dual(v - self.val, d - self.dot)

    def __mul__(self, other):
        v, d = self._parts(other)
        return Dual(self.val * v, self.dot * v + self.val * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v, d = self._parts(other)
        q = self.val / v
        return Dual(q, (self.dot - q * d) / v)

    def __rtruediv__(self, other):
        v, d = self._parts(other)
        q = v / self.val
        return Dual(q, (d - q * self.dot) / self.val)

    def sqrt(self):
        r = self.val.sqrt() if hasattr(self.val, "sqrt") else math.sqrt(self.val)
        return Dual(r, self.dot / (2.0 * r))

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
        deriv = exponent * (self.val ** (exponent - 1.0)) * self.dot
        return Dual(value, deriv)
