"""Rigorous interval arithmetic with outward rounding, plus second-order jets.

Every arithmetic operation returns an interval that contains the exact real
result for all points of the operand intervals.  The scalar Interval rounds
to nearest and nudges each computed bound one ulp outward with
math.nextafter; exp and log get two ulps to absorb libm error.  It switches
no rounding mode, which keeps it portable.  The array kernels of +, -, *
and /, which run only inside a plan (below), switch to upward rounding
instead where the host allows it.

Jet2, the package's one forward-mode AD type, carries a value with its
first- and second-order terms in two variables through the same operator
set.  Its components may be floats, Intervals or the register rows of a
plan, which gives simultaneous enclosures of a function and its derivatives
over a box.  The certifier's plan takes the boxes alone and runs two jets
of F on each, the jet in y4 at the box midpoint and its exponent, point
rows that the plan fills itself (``_Row.mid``), and the jet in y4 and A
over the whole box, and sums them into the mean-value form of F and
dF/dy4; the whole-box value and y4-slope are the natural form that
``certify._mv_eval`` meets it with.
The root scan needs F and dF/dy4 at one float exponent: its tangency guard
runs F's jet in y4 with only those two slots as outputs
(``symmetric._natural_eval``), and one run of the same plan gives dF/dy4
over all the root enclosures of a window for their simplicity check and
their Newton step.

IntervalArray holds many intervals as two float64 arrays, so that the
certifier evaluates a whole bisection frontier, with levels of candidate
children, in one pass (after Rump's INTLAB).  It holds bounds and has no
arithmetic operators: its kernels run only inside a plan (``_trace``).  The
scalar Jet2 formulas run once on register rows, with float constants and
structural zeros kept as floats, and record their kernel calls; the plan
makes the ready needed calls of one kind, of every jet traced into it, as
one call on stacked rows, and picks the kind by the slack of its most
urgent call (``_Trace._batches``); it runs under one np.errstate.  Only
the calls that an output reads run.  A run takes the columns, one a box,
in blocks of a fixed width and reuses the rows of values no later call
reads, so its memory does not grow with the frontier.  The certifier's
plan names its y4 input row: the calls that read y4 alone (the y4
midpoint, the geometry, every log and integer power, 15 of 21 exp rows)
form a first stage, whose rows a run takes for each distinct y4 interval
from a memo keyed by the interval's bits (``_Y4Memo``) before it copies
them out to every column.  The plan has one first stage and two second
stages: that of every output, and that of F's outputs alone, which runs
on a block whose columns all need F alone, each on every one of the
block's columns.  The two halves of a box split along A share its y4, so
a pass has far fewer y4 columns than boxes.  A certificate keeps one
memo for its whole bisection, and a pass that finds a column missing
computes the y4 halves of its columns too, which the memo splits itself
by the bisection's rule and which hold every y4 column of the next pass,
so many passes run no first stage (``stage1_runs`` in a certificate's
stats counts those that do).  This is tape-based forward differentiation
(A. Griewank and A. Walther, *Evaluating Derivatives*, 2008) on interval
enclosures.

Each array kernel follows the scalar formula element by element; where
Interval raises, the element turns NaN instead.  The add, sub, mul and div
kernels take one of two rounding paths, which the first plan run picks
for the process from a self-test under FE_TONEAREST and FE_UPWARD, not
under the caller's mode (``_fenv``); ``certify`` records it in a
certificate's stats.  On the upward path they run under upward rounding,
set with the C library's fesetround through ctypes, as INTLAB does (S. M.
Rump, *Developments in Reliable Computing*, 1999; IEEE 754-2008 §4.3): an
upper bound is the operation as it is, a lower bound minus the operation
on negated operands.  Its bounds lie inside the scalar Interval's, up to
one ulp tighter per operation.  On the step path, where the host has no
fesetround or numpy does not round upward under it, the same formulas run
under round to nearest and step each bound one ulp outward with
np.nextafter, which reproduces the Interval bounds bit for bit.  Every
other step of a plan, the libm kernels and the midpoint fill, runs under
round to nearest whatever the caller's mode, as the four do on the step
path: glibc states its libm error bounds for it, and the midpoints are
then the bits of ``IntervalArray.mid``.  A plan run switches the mode
where its steps need another one (``_run_steps``), wherever ctypes finds
fesetround, and gives the caller's back.  Float code outside plans, the
box splits among it, runs under round to nearest too, which CPython's
float parsing assumes: the public certificates, root scans and A_c scan
switch to it there and give the caller's mode back (``_to_nearest``).

exp, log and integer powers call libm (math.exp, math.log, float **) once
per element, never np.exp, np.log or np.power: numpy's SIMD kernels differ
from libm on about 4.6 % of exp arguments in [-30, 30], 5.3 % of
power(x, -3) arguments in [0.05, 3] and 0.05 % of log arguments in
[1e-5, 1e5] (200k float64 samples each, numpy 2.4 on an AVX-512 Xeon).
That would break the libm error bound behind the one- and two-ulp padding,
and the bit-identity with the scalar path on the step path.  ``_libm`` is
the package's one gate to libm for arrays: these three kernels send both
bounds through it in one call, and ``geometry.chain_points`` (cos, sin,
hypot, a square), ``geometry.interior_angles`` (atan2), and the two-mass
coefficients (a square) and the mutual-distance residual tables (r**-A and
r**2) of ``equations`` call it too.  Where the arguments repeat (the
chain's cos and sin, the two-mass square of r12) the call site takes
``_libm_distinct``, which runs ``_libm`` once per distinct argument.

The module ends with the package's one adaptive-bisection loop,
``_bisect``, next to its split rule ``split_bounds``.  It runs breadth first
over a frontier of (y4, A) boxes, each at its own depth, and takes the box
evaluator and the deciders as arguments; the certifier and the root scan's
tangency guard both run on it (after W. Tucker, *Validated Numerics*,
2011).  A pass costs about the same whatever its size up to some hundred
rows, so each pass evaluates the frontier together with whole levels of
its candidate children, both halves along each coordinate a box may split
on, and then chains toward the window ends, up to ``_PASS_ROWS`` rows: a
box at the lowest or highest y4 gets its y4 half toward that end, that
half's half, and so on, for the leaves that pile up toward an end.  The
pass resolves every box whose row it holds, down the levels and along the
chains, and the boxes left open seed the next pass.  The chains follow the
boxes graded toward an end, as a geometric mesh is graded toward a
singular point (C. Schwab, *p- and hp-Finite Element Methods*, 1998).
"""

from __future__ import annotations

import ctypes
import functools
import math
import platform
from dataclasses import dataclass

import numpy as np

__all__ = ["IntervalDomainError", "Interval", "IntervalArray", "Box", "split_bounds"]

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

    def _abs_part(self, c):
        """Component c of |x| for a jet x with this value: negated where the
        value is negative, kept where it is nonnegative; a value that
        straddles 0 raises.  A float c becomes a point interval, as a plan
        makes a row of it, so that later terms round alike."""
        c = self._coerce(c)
        if self.hi < 0.0:
            return -c
        if self.lo >= 0.0:
            return c
        raise IntervalDomainError(f"abs of a jet whose value {self} straddles 0")

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


# fesetround's argument for rounding toward +inf, by platform.machine():
# FE_UPWARD of glibc on x86-64 and of glibc and Apple's libc on 64-bit ARM
_FE_UPWARD = {"x86_64": 0x800, "aarch64": 0x400000, "arm64": 0x400000}

# FE_TONEAREST on the same three hosts
_FE_TONEAREST = 0

# The C library's (fegetround, fesetround, the mode of the add, sub, mul
# and div kernels), fixed by the first plan run (``_fenv``): that mode is
# upward where the self-test passed and FE_TONEAREST on the step path.
# False where ctypes finds neither function or the machine is not in
# ``_FE_UPWARD``, a step path that switches no mode; None before the first
# run.
_FENV = None


def _c_fenv():
    """fegetround and fesetround of the C math library, through ctypes, or
    None where neither the process nor libm.so.6 has them."""
    for name in (None, "libm.so.6"):
        try:
            lib = ctypes.CDLL(name)
            get, set_ = lib.fegetround, lib.fesetround
        except (OSError, AttributeError, TypeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), ctypes.c_int
        return get, set_
    return None


# Operands of +, -, * and / whose exact result lies just above its
# round-to-nearest value, which is given: 1 + 2^-60 and 1 - (-2^-60) round
# to 1, (1 + 2^-52) * (1 - 2^-53) = 1 + 2^-53 - 2^-105 to 1, and
# 1 / (1 + 2^-52) = 1 - 2^-52 + 2^-104 - ... to 1 - 2^-52.
_SELF_TEST = ((np.add, 1.0, 2.0 ** -60, 1.0),
              (np.subtract, 1.0, -2.0 ** -60, 1.0),
              (np.multiply, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 1.0),
              (np.divide, 1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52))


def _self_test(get, set_, mode) -> bool:
    """Whether numpy's float64 +, -, * and / round to nearest under
    FE_TONEAREST and upward under ``mode``; the caller's mode is back at
    the end.  The operands are one element, 67 (numpy's SIMD loops and
    their tail) and a block of two rows of 67 columns cut from wider rows,
    as a plan's steps read their register file; the second operand is
    such an array or a float."""
    shapes = (lambda v: np.full(1, v), lambda v: np.full(67, v),
              lambda v: np.full((2, 80), v)[:, :67])
    cases = [(op, full(x), (full(y), y), nearest)
             for op, x, y, nearest in _SELF_TEST for full in shapes]
    caller = get()
    try:
        switched = set_(_FE_TONEAREST) == 0
        near = [[op(x, y) for y in ys] for op, x, ys, _ in cases]
        switched &= set_(mode) == 0
        up = [[op(x, y) for y in ys] for op, x, ys, _ in cases]
    finally:
        set_(caller)
    return switched and all(
        (u == np.nextafter(nearest, _INF)).all() and (n == nearest).all()
        for (*_, nearest), us, ns in zip(cases, up, near) for u, n in zip(us, ns))


def _fenv():
    """The rounding of the plan steps, decided at the first call:
    (fegetround, fesetround, the add, sub, mul and div kernels' mode)
    where ctypes finds the C library's functions on a known machine, with
    the upward mode where they switch numpy's float64 arithmetic to upward
    rounding (``_self_test``) and FE_TONEAREST, the step path, where not;
    else False, the step path in the caller's mode."""
    global _FENV
    if _FENV is None:
        mode = _FE_UPWARD.get(platform.machine().lower())
        env = _c_fenv() if mode is not None else None
        _FENV = (*env, mode if _self_test(*env, mode) else _FE_TONEAREST) if env else False
    return _FENV


def _rounding() -> str:
    """The rounding path the kernels run: "upward" or "step"."""
    env = _fenv()
    return "upward" if env and env[2] != _FE_TONEAREST else "step"


def _to_nearest(fn):
    """``fn`` run under round to nearest wherever ``_fenv`` found
    fesetround, with the caller's mode back when it returns or raises.
    The public certificates and root scans take it, so that their float
    code outside plans (the box splits, the float grids, the scalar
    Interval steps, whose libm error bounds glibc states for round to
    nearest) gives the same bits whatever the caller's mode."""
    @functools.wraps(fn)
    def nearest(*args, **kwargs):
        env = _fenv()
        caller = env[0]() if env else _FE_TONEAREST
        if caller == _FE_TONEAREST:
            return fn(*args, **kwargs)
        env[1](_FE_TONEAREST)
        try:
            return fn(*args, **kwargs)
        finally:
            env[1](caller)
    return nearest


def _upper(neg_lo, hi) -> "IntervalArray":
    """The interval [-neg_lo, hi] from the upper bounds of -x and of x, as
    the add, sub, mul and div kernels compute them.  Under upward rounding
    they are bounds as they are.  On the step path they were rounded to
    nearest, and each moves one ulp up first: -nextafter(RN(-x), +inf) is
    nextafter(RN(x), -inf), the step of the scalar ``Interval``."""
    if not _FENV or _FENV[2] == _FE_TONEAREST:
        neg_lo, hi = _aup(neg_lo), _aup(hi)
    return IntervalArray(-neg_lo, hi)


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


def _libm_distinct(fn, *args) -> np.ndarray:
    """``_libm`` run once per distinct tuple of broadcast arguments, keyed
    by the bits of the array arguments (-0.0 is not 0.0), and broadcast
    back.  A stable sort groups the keys: it is fast on a grid's sorted
    runs, and np.unique's sort would add 0.25 MB of numpy code to a run's
    peak memory."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    cols = [a.ravel() for a in arrays]
    keys = [c.view(np.int64) for c, a in zip(cols, args) if np.ndim(a)] or [cols[0].view(np.int64)]
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)  # where a run of equal tuples starts
    new[:1] = True
    for key in (k[order] for k in keys):
        new[1:] |= key[1:] != key[:-1]
    inverse = np.empty(order.size, dtype=np.intp)  # each tuple's run
    inverse[order] = np.cumsum(new, dtype=np.intp) - 1
    return _libm(fn, *(c[order[new]] for c in cols))[inverse].reshape(arrays[0].shape)


class IntervalArray:
    """Element-wise intervals [lo[i], hi[i]] held in two float64 arrays.

    A container of bounds, with no arithmetic operators: its kernels, the
    private methods that ``_KERNELS`` names, run only in a plan's steps
    (``_run_steps``), on rows of the plan's register file.  Each follows
    the scalar ``Interval`` formula on every element.  On the step path of
    the module's rounding (module docstring), element i of a result has
    the bounds ``Interval`` computes from element i of the operands, bit
    for bit.  On the upward path, +, -, * and / give bounds inside those,
    and every other kernel the bounds ``Interval`` computes from the same
    operand bounds, so an element valid on the step path is valid on the
    upward path too.  Where ``Interval`` raises for an element (NaN or
    inverted bound, division by an interval containing 0, log of an
    interval touching 0, a negative power of an interval containing 0, a
    libm overflow), that element gets NaN bounds instead and NaN
    propagates through later kernels; ``valid`` marks the other elements.
    Every result goes through the one checked constructor
    ``IntervalArray(lo, hi)``, which gives an element with a NaN or
    inverted bound NaN bounds; ``_of`` wraps bounds that an IntervalArray
    already holds, or a float constant, without the check.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        ok = lo <= hi  # false for a NaN bound or an inverted pair
        if np.count_nonzero(ok) != ok.size:
            lo = np.where(ok, lo, math.nan)
            hi = np.where(ok, hi, math.nan)
        self.lo = lo
        self.hi = hi

    @classmethod
    def _of(cls, lo, hi) -> "IntervalArray":
        """Bounds that an IntervalArray already holds (rows or elements of a
        stack), or a float constant, without the check of ``__init__``."""
        out = object.__new__(cls)
        out.lo = lo
        out.hi = hi
        return out

    @property
    def valid(self) -> np.ndarray:
        return ~np.isnan(self.lo)

    @property
    def width(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self.hi - self.lo

    @property
    def mid(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def contains_zero(self) -> np.ndarray:
        return (self.lo <= 0.0) & (0.0 <= self.hi)

    def intersect(self, other: "IntervalArray") -> "IntervalArray":
        # Python's max(a, b) keeps a unless b > a; likewise min
        return IntervalArray(np.where(other.lo > self.lo, other.lo, self.lo),
                             np.where(other.hi < self.hi, other.hi, self.hi))

    def __repr__(self) -> str:
        return f"IntervalArray(lo={self.lo!r}, hi={self.hi!r})"

    # ---- kernels ------------------------------------------------------

    def _hull(self, op, o, lo_nan=None) -> "IntervalArray":
        """The hull of ``op`` (multiply or divide) over the bounds of self
        and o, and NaN where ``lo_nan`` is set: the maximum of the four
        results on -self is minus the lower bound, that of the four on self
        the upper bound.  Python's max over a tuple skips a NaN except in
        first place, as ``Interval``'s does; a NaN first result makes the
        element invalid, and the other three are all NaN only where it is
        NaN too."""
        nlo, nhi = -self.lo, -self.hi
        neg_lo = np.maximum(op(nlo, o.lo),
                            np.fmax(np.fmax(op(nlo, o.hi), op(nhi, o.lo)), op(nhi, o.hi)))
        if lo_nan is not None:
            neg_lo = np.where(lo_nan, math.nan, neg_lo)
        hi = np.fmax(np.fmax(op(self.lo, o.lo), op(self.lo, o.hi)),
                     np.fmax(op(self.hi, o.lo), op(self.hi, o.hi)))
        return _upper(neg_lo, hi)

    def _add(self, o):
        return _upper((-self.lo) - o.lo, self.hi + o.hi)

    def _sub(self, o):
        return _upper(o.hi - self.lo, self.hi - o.lo)

    def _mul(self, o):
        return self._hull(np.multiply, o)

    def _div(self, o):
        return self._hull(np.divide, o, o.contains_zero())

    def _neg(self):
        return IntervalArray(-self.hi, -self.lo)

    def _mid(self):
        """The points 0.5 * (lo + hi), the bits of ``mid`` under round to
        nearest; NaN where the element is."""
        m = 0.5 * (self.lo + self.hi)
        return IntervalArray._of(m, m)

    def __abs__(self):
        lo, hi = self.lo, self.hi
        pos = lo >= 0.0
        neg = ~pos & (hi <= 0.0)
        top = np.where(hi > -lo, hi, -lo)  # Python's max(-lo, hi)
        return IntervalArray(np.where(pos, lo, np.where(neg, -hi, 0.0)),
                             np.where(pos, hi, np.where(neg, -lo, top)))

    def _abs_part(self, c) -> "IntervalArray":
        """Interval._abs_part on each element: an element whose value
        straddles 0 becomes invalid instead of raising."""
        neg = self.hi < 0.0
        straddle = ~neg & ~(self.lo >= 0.0)
        return IntervalArray(np.where(straddle, math.nan, np.where(neg, -c.hi, c.lo)),
                             np.where(straddle, math.nan, np.where(neg, -c.lo, c.hi)))

    # exp, log and the integer powers call libm on both bounds at once

    def _exp(self) -> "IntervalArray":
        # two ulps outward, as Interval.exp
        lo, hi = _libm(math.exp, (self.lo, self.hi))
        return IntervalArray(_adown(_adown(lo)), _aup(_aup(hi)))

    def _log(self) -> "IntervalArray":
        lo, hi = _libm(math.log, (np.where(self.lo > 0.0, self.lo, math.nan), self.hi))
        return IntervalArray(_adown(_adown(lo)), _aup(_aup(hi)))

    def _int_pow(self, n: int) -> "IntervalArray":
        if n == 0:
            one = np.where(np.isnan(self.lo), math.nan, 1.0)
            return IntervalArray(one, one)
        # v ** n is pow(v, float(n)): the builtin maps with no Python frame per element
        if n < 0:
            p0, p1 = _libm(pow, np.where(self.contains_zero(), math.nan, (self.lo, self.hi)),
                           float(n))
            # NaN-propagating: an overflow in either bound invalidates the element
            return IntervalArray(_adown(np.minimum(p0, p1)), _aup(np.maximum(p0, p1)))
        a = abs(self) if n % 2 == 0 else self
        lo, hi = _libm(pow, (a.lo, a.hi), float(n))
        # even n: Python's max(0.0, _down(lo)), as _adown keeps a positive lo
        # nonnegative; where lo is NaN the upper bound is too
        lo = np.where(lo > 0.0, _adown(lo), 0.0) if n % 2 == 0 else _adown(lo)
        return IntervalArray(lo, _aup(hi))


def _zero(x) -> bool:
    """A structural zero: the float 0.0 that a jet keeps in a slot whose
    every term vanishes identically."""
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


class _Row:
    """A register row of a plan while its formula is traced (``_trace``).

    It has the operators that the jet formulas use.  Each records the
    kernel call it stands for (``_KERNELS``), with the operands in the
    order that Interval's operator takes them; ``**`` is Interval's
    dispatch over ``_int_pow``, ``log`` and ``exp``.  An input row also
    has ``mid``, the float midpoint of each of its intervals as a point
    row, which the plan fills itself.
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

    @property
    def mid(self):
        """The float midpoint of an input row as a point row, which the plan
        fills before the calls of its stage (``_Trace.compile``)."""
        if self.reg[0] != "in":
            raise ValueError("only an input row has a midpoint row")
        return self.trace.op("mid", self)

    @staticmethod
    def _coerce(x):
        # a number operand stays a number; the trace makes its point row
        return x

    __pow__ = Interval.__pow__


# The kernel of each traced operation, an IntervalArray method that runs
# under the errstate a plan's run enters once, and the rounding it runs
# under (``_run_steps``): upward (True) for add, sub, mul and div, to
# nearest (False) for the libm kernels and the midpoints, either (None)
# for neg and abs, which round nothing.
_KERNELS = {
    "add": (IntervalArray._add, True),
    "sub": (IntervalArray._sub, True),
    "mul": (IntervalArray._mul, True),
    "div": (IntervalArray._div, True),
    "neg": (IntervalArray._neg, None),
    "exp": (IntervalArray._exp, False),
    "log": (IntervalArray._log, False),
    "pow": (IntervalArray._int_pow, False),
    "abs": (IntervalArray._abs_part, None),
    "mid": (IntervalArray._mid, False),
}


def _rows(regs: list):
    """Register rows as a slice when they are consecutive, else an index array."""
    start = regs[0] if regs else 0
    if regs == list(range(start, start + len(regs))):
        return slice(start, start + len(regs))
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
        """The register of a number operand: its point row, one for each
        float."""
        x = float(x)
        return self.consts.setdefault(repr(x), ("const", len(self.consts), x))

    def op(self, kind: str, *args, param=None) -> _Row:
        regs = tuple(a.reg if isinstance(a, _Row) else self.const(a) for a in args)
        key = (kind, param, regs)
        if key not in self.memo:
            self.memo[key] = _Row(self, ("op", len(self.ops)))
            self.ops.append(key)
        return self.memo[key]

    def _batches(self, stage: list) -> list:
        """The stacked kernel calls of one stage, in run order, as
        ((kind, parameter), registers): list scheduling by slack, after
        the on-the-fly operation batching of Neubig, Goldberg and Dyer
        (NeurIPS 2017) applied to a fixed tape.

        ``stage`` lists the stage's calls by their index in call order.  A
        call is ready once the stage's calls it reads have run; the rows
        of the other stage, the inputs and the number operands are ready
        from the start.  Its urgency is the longest chain of the stage's
        calls that starts at it, which ranks the calls as their ALAP
        levels do.  Each step takes the (kind, parameter) class whose most
        urgent ready call has the longest chain, on ties the class with
        more ready calls, then the lower class, and runs all of that
        class's ready calls, in call order, as one call."""
        readers = {k: [] for k in stage}
        waiting = dict.fromkeys(stage, 0)
        for k in stage:
            for j in dict.fromkeys(r[1] for r in self.ops[k][2] if r[0] == "op"):
                if j in readers:
                    readers[j].append(k)
                    waiting[k] += 1
        chain = {}
        for k in reversed(stage):
            chain[k] = 1 + max((chain[r] for r in readers[k]), default=0)
        ready, batches = {}, []
        for k in stage:
            if not waiting[k]:
                ready.setdefault(self.ops[k][:2], []).append(k)
        while ready:
            cls = min(ready, key=lambda c: (-max(chain[k] for k in ready[c]),
                                            -len(ready[c]), c))
            calls = sorted(ready.pop(cls))
            batches.append((cls, [("op", k) for k in calls]))
            for k in calls:
                for r in readers[k]:
                    waiting[r] -= 1
                    if not waiting[r]:
                        ready.setdefault(self.ops[r][:2], []).append(r)
        return batches

    def compile(self, outputs, y4=(), alone=()) -> "_Plan":
        """The plan that computes ``outputs``, rows or numbers, in two stages.

        Stage 1 holds the needed calls that read only the input rows ``y4``,
        number operands and other stage-1 calls, so that they read y4
        alone; stage 2 holds the rest.  Each stage's steps start with one
        fill step of the midpoint rows (``_Row.mid``) it needs, which is no
        stacked call, and go on with its other needed calls as the stacked
        kernel calls of ``_batches``, each of calls of one kind and
        parameter.  Stage 1 runs in a register file of its own; between the
        two stages, one expand step copies its rows that stage 2 or the
        outputs read to the lowest free rows of a block's file.  A call
        depends only on its operands, so the order of independent calls
        cannot change a bit.  The midpoint rows follow the input rows, and
        the number rows follow them.  A row is given back once the last
        step that reads it has run, and each stacked call's results take
        the lowest run of free rows; no step writes a row it reads.

        ``alone`` lists some of the outputs by their indices, F's in the
        certifier's plan.  They get a second stage 2 of their own, of the
        calls that they alone need (activity analysis: A. Griewank and A.
        Walther, *Evaluating Derivatives*, 2008), after the same stage 1
        and expand: it fills the same midpoint rows and places its calls
        in the rows that the expand leaves free for it (``_Plan.alone``)."""
        outs = [o.reg if isinstance(o, _Row) else self.const(o) for o in outputs]
        early = {("in", i) for i in y4}  # the registers of stage 1
        for k, (_, _, regs) in enumerate(self.ops):
            if all(r in early or r[0] == "const" for r in regs):
                early.add(("op", k))
        need = self._needed(outs)
        calls = [[k for k in need if (("op", k) in early) != late] for late in (False, True)]
        mids = [[("op", k) for k in c if self.ops[k][0] == "mid"] for c in calls]
        fill1, fill2 = ([(("mid", None), regs)] if regs else [] for regs in mids)
        late = {k for k in calls[1] if self.ops[k][0] != "mid"}  # stage 2's stacked calls
        parts = [range(len(outs))] + ([alone] if alone else [])
        stage2 = [[*fill2, *self._batches([k for k in self._needed([outs[i] for i in part])
                                           if k in late])] for part in parts]
        live = early.intersection([*outs, *(a for _, regs in stage2[0] for reg in regs
                                            for a in self.ops[reg[1]][2])])
        # the input rows, the midpoint rows, stage 1's first, then the number rows
        order = [("in", i) for i in range(self.inputs)] + mids[0] + mids[1]
        row = {reg: r for r, reg in enumerate(order)}
        const_rows = slice(len(row), len(row) + len(self.consts))
        row.update((c, const_rows.start + c[1]) for c in self.consts.values())
        # stage 1 runs in a file of its own, whose ``live`` rows the expand
        # copies to a block's file
        first = dict(row)
        stage1, size = self._place([*fill1, *self._batches(
            [k for k in calls[0] if self.ops[k][0] != "mid"])], live, first, len(row))
        live = sorted(live, key=first.get)
        (expand,), end = self._place([(None, live)], outs, row, len(row), stage2[0])
        # an index array, so that a y4 memo keeps a copy of the rows
        expand = (np.array([first[a] for a in live], dtype=np.intp), *expand)
        programs = []
        for part, items in zip(parts, stage2):
            rows = dict(row)  # each stage 2 starts from the rows the expand leaves
            steps, end = self._place(items, [outs[i] for i in part], rows, end)
            programs.append((steps, [rows[o] if i in part else None for i, o in enumerate(outs)]))
            size = max(size, end)
        consts = np.array([c[2] for c in self.consts.values()], dtype=float)
        return _Plan(size, const_rows, consts, list(y4), stage1, expand, *programs[0],
                     programs[1] if alone else None)

    def _needed(self, outs) -> list:
        """The calls that the registers ``outs`` read, by their index in
        call order."""
        need, todo = set(), list(outs)
        while todo:
            reg = todo.pop()
            if reg[0] == "op" and reg not in need:
                need.add(reg)
                todo.extend(self.ops[reg[1]][2])
        return sorted(r[1] for r in need)

    def _place(self, items, outs, row, size: int, then=()) -> tuple:
        """The steps of ``items`` and the rows they take in all, of which the
        first ``size`` exist before them.  A step reads each register at its
        row in ``row``, which learns the rows of the registers that the steps
        write.  A row is free unless it holds
        a register that a step of ``items`` or of the ``then`` items after
        them, or the outputs ``outs``, read after it.  An expand item (key
        None) gives its step as (first row, end row) of the copies of its
        registers, which free the rows that hold any of them here, the y4
        input rows."""
        last = {}  # the step that reads a register last; the outputs are read at the end
        for s, (key, regs) in enumerate([*items, *then]):
            if key is not None:
                for reg in regs:
                    last.update(dict.fromkeys(self.ops[reg[1]][2], s))
        last.update(dict.fromkeys(outs, len(items) + len(then)))
        free = set(range(size)).difference(row[r] for r in last if r in row)
        steps = []
        for s, (key, regs) in enumerate(items):
            start = row[regs[0]] if key == ("mid", None) else _lowest_run(free, size, len(regs))
            stop = start + len(regs)
            free.difference_update(range(start, stop))
            size = max(size, stop)
            if key is None:  # the expand, whose copies replace the y4 input rows
                steps.append((start, stop))
                free.update(row[a] for a in regs if a in row)
            else:
                kind, param = key
                args = list(zip(*(self.ops[reg[1]][2] for reg in regs)))
                steps.append((*_KERNELS[kind], () if param is None else (param,), start, stop,
                              *(_rows([row[a] for a in col]) for col in args)))
                free.update(row[a] for col in args for a in col if last[a] == s)
            row.update((reg, start + i) for i, reg in enumerate(regs))
        return steps, size


def _trace(fn, inputs: int, y4=(), alone=()) -> "_Plan":
    """Run ``fn`` once on ``inputs`` traced rows and compile the kernel calls
    of the rows and numbers it returns into one plan, whose first stage
    holds the calls that read the input rows ``y4`` alone, and which holds
    a second stage 2 of the outputs that ``alone`` lists
    (``_Trace.compile``).  ``fn`` is the scalar formula, unchanged: on a
    ``Jet2`` of rows, a float constant or a structural zero stays a float
    and runs no kernel.  The plan's inputs are the input rows alone: it
    fills the midpoint rows that ``fn`` reads (``_Row.mid``) itself,
    0.5 * (lo + hi) under round to nearest."""
    trace = _Trace(inputs)
    return trace.compile(fn(*(_Row(trace, ("in", i)) for i in range(inputs))), y4, alone)


def _run_steps(steps, reg_lo, reg_hi) -> None:
    """Run stacked kernel calls on every column of a register file.

    Each step names its rounding (``_KERNELS``): the add, sub, mul and div
    calls run in the mode of ``_fenv``, upward on the upward path and to
    nearest on the step path, and the libm calls and the midpoints to
    nearest.  The mode changes only where the next call needs another one,
    and the caller's is back when the steps end or a call raises.  Where
    ``_fenv`` found no fesetround every call runs in the caller's mode."""
    env = _fenv()
    get, set_, mode, nearest = (*env, _FE_TONEAREST) if env else (None,) * 4
    caller = current = get() if env else None
    of = IntervalArray._of
    try:
        for kernel, upward, param, start, stop, *args in steps:
            want = current if upward is None else mode if upward else nearest
            if want != current:
                set_(want)
                current = want
            r = kernel(*[of(reg_lo[a], reg_hi[a]) for a in args], *param)
            reg_lo[start:stop] = r.lo
            reg_hi[start:stop] = r.hi
    finally:
        if current != caller:
            set_(caller)


class _Plan:
    """A traced formula: a register file of ``size`` rows holds the input
    rows, the midpoint rows, the number operands as point rows
    (``const_rows``), and the results of the stacked kernel calls, which
    reuse the rows of results no later step reads.  The first stage,
    ``stage1``, reads the input rows ``y4`` alone, in a file of its own;
    ``expand`` names the rows of its results that the second stage or the
    outputs read, as (their rows in that file, first and end row of their
    copies in a block's file).  ``steps`` is the second stage
    of every output, and ``out`` lists the rows of the outputs.  ``alone``
    is None or a second stage 2 of some of the outputs alone, as (its
    steps, the row of each output or None where it does not compute it),
    which follows the same first stage and expand (``_Trace.compile``).
    Each stage's steps start with the fill step of its midpoint rows, if
    it reads any.

    ``run`` takes the input IntervalArrays, all of one length, and returns
    one new IntervalArray per output.  It processes the columns in blocks
    of 2 * ``_PASS_ROWS``, the boxes of two full bisection passes, so the
    register file stays small whatever the number of columns.  ``need``
    gives the outputs that each column needs, as bits: 1 for those of
    ``alone`` alone (by default all).  A block whose columns' bits OR to 1
    runs the second stage of ``alone`` on every one of its columns, and
    its other outputs are NaN there; any other block runs ``steps`` on
    every one of its columns.  In each block it takes the ``expand`` rows
    of every distinct column of the ``y4`` rows from a ``_Y4Memo``, which
    runs the first stage on the columns it lacks, in a register file of
    their own, copies them out to every column, and runs the second stage.
    Without a memo the first stage runs on the block's distinct y4 columns
    alone.  Each element is computed by the same kernel from the same
    operand bits as without a first stage, in either second stage.  A plan
    without ``y4`` rows has no first stage."""

    __slots__ = ("size", "const_rows", "consts", "y4", "stage1", "expand", "steps", "out", "alone")

    def __init__(self, size, const_rows, consts, y4, stage1, expand, steps, out, alone):
        self.size, self.const_rows, self.consts, self.y4 = size, const_rows, consts, y4
        self.stage1, self.expand, self.steps, self.out = stage1, expand, steps, out
        self.alone = alone

    def run(self, *inputs: IntervalArray, memo: "_Y4Memo | None" = None, need=None) -> list:
        n = inputs[0].lo.shape[0]
        width = min(n, 2 * _PASS_ROWS) or 1
        lo, hi = np.empty((self.size, width)), np.empty((self.size, width))
        out = [(np.empty(n), np.empty(n)) for _ in self.out]
        with np.errstate(all="ignore"):
            for c0 in range(0, n, width):
                m = min(width, n - c0)
                cols = slice(c0, c0 + m)
                alone = self.alone and need is not None and np.bitwise_or.reduce(need[cols]) == 1
                steps, rows = self.alone if alone else (self.steps, self.out)
                for i, x in enumerate(inputs):
                    lo[i, :m] = x.lo[cols]
                    hi[i, :m] = x.hi[cols]
                self._block(lo, hi, m, memo, steps)
                for r, (out_lo, out_hi) in zip(rows, out):
                    out_lo[cols] = math.nan if r is None else lo[r, :m]
                    out_hi[cols] = math.nan if r is None else hi[r, :m]
        if memo is not None:
            memo.prune()
        return [IntervalArray._of(out_lo, out_hi) for out_lo, out_hi in out]

    def _block(self, lo, hi, m: int, memo, steps) -> None:
        """Run the plan, with the second stage ``steps``, on the first m
        columns of a register file (lo, hi), whose input rows hold them.
        The first stage's rows come from the memo, or without one from a
        run on the block's distinct y4 columns alone."""
        lo[self.const_rows, :m] = hi[self.const_rows, :m] = self.consts[:, None]
        if self.y4:
            y_lo, y_hi = lo[self.y4, :m], hi[self.y4, :m]
            key = _column_bits(y_lo, y_hi)
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            y_lo, y_hi = y_lo[:, first], y_hi[:, first]
            if memo is None:
                (rows_lo, rows_hi), at = self._stage_one(y_lo, y_hi), np.arange(first.size)
            else:
                rows_lo, rows_hi, at = memo.look_up(self, y_lo, y_hi, key[first].tolist())
            at = at[inverse.reshape(-1)]
            _, start, stop = self.expand
            lo[start:stop, :m] = rows_lo[:, at]
            hi[start:stop, :m] = rows_hi[:, at]
        _run_steps(steps, lo[:, :m], hi[:, :m])

    def _stage_one(self, y_lo, y_hi) -> tuple:
        """Run the first stage on the columns of the ``y4`` rows (y_lo,
        y_hi), in a register file of their own, and return their ``expand``
        source rows as y4 memo columns."""
        lo, hi = (np.empty((self.size, y_lo.shape[1])) for _ in range(2))
        lo[self.y4], hi[self.y4] = y_lo, y_hi
        lo[self.const_rows] = hi[self.const_rows] = self.consts[:, None]
        _run_steps(self.stage1, lo, hi)
        return lo[self.expand[0]], hi[self.expand[0]]


def _column_bits(lo, hi) -> np.ndarray:
    """The bits of each column of the rows (lo, hi), one void element a
    column, so that -0.0 and 0.0 differ."""
    bits = np.concatenate((lo, hi)).T.copy()
    return bits.view(np.dtype((np.void, bits[0].nbytes))).ravel()


class _Y4Memo:
    """The ``expand`` source rows of a plan's first stage, one column per
    y4 column, keyed by the bits of the column's ``y4`` rows, so that -0.0
    and 0.0 stay apart; it outlives a ``_Plan.run``.  Both second stages
    of a plan (``_Plan.alone``) read the same first stage, so every column
    serves every block.

    A certificate's box evaluator keeps one for its whole bisection
    (``certify._certify``).  A pass's boxes keep their parent's y4 or take
    one half of it, as ``split_bounds`` makes them, so a block of a run
    that lacks a column runs the first stage once, on the columns it lacks
    together with the y4 halves of all its columns that the memo does not
    hold, and a pass whose columns the memo holds runs none.  A block of
    more than 2 * ``_PASS_ROWS`` / 3 distinct columns is element-bound, as
    its halves would not fit a block: it takes no halves, and the memo
    drops what it holds first, so that a wide run holds about one block's
    rows.  At the end of a run the memo keeps the run's columns and their
    halves, at most three times the run's distinct columns.  A column is
    found by its bits alone, so the halves cannot change a bit, only save
    stage-1 runs.  ``runs`` and ``columns`` count the stage-1 runs and the
    columns they computed."""

    __slots__ = ("keys", "lo", "hi", "live", "runs", "columns")

    def __init__(self):
        self.keys = {}            # the bits of a y4 column -> its column of lo and hi
        self.lo = self.hi = None  # the expand source rows by column
        self.live = set()         # the keys of this run's columns and their halves
        self.runs = self.columns = 0

    def look_up(self, plan: _Plan, y_lo, y_hi, keys: list) -> tuple:
        """The memo's rows (lo, hi) and the column of them that holds each
        distinct y4 column (y_lo, y_hi) of a block, whose bits are ``keys``,
        after running the first stage of ``plan`` on the columns it
        lacks."""
        u = len(keys)
        if 3 * u <= 2 * _PASS_ROWS:
            (l_lo, l_hi, *_), (u_lo, u_hi, *_) = split_bounds(y_lo, y_hi, 0.0, 0.0, 0)
            y_lo, y_hi = np.hstack((y_lo, l_lo, u_lo)), np.hstack((y_hi, l_hi, u_hi))
            keys = keys + _column_bits(y_lo[:, u:], y_hi[:, u:]).tolist()
        else:
            self.keys, self.lo, self.hi = {}, None, None
        self.live.update(keys)
        if any(k not in self.keys for k in keys[:u]):
            todo = {}  # each key to compute -> a column of it
            for j, k in enumerate(keys):
                if k not in self.keys:
                    todo.setdefault(k, j)
            pick = list(todo.values())
            new_lo, new_hi = plan._stage_one(y_lo[:, pick], y_hi[:, pick])
            start = 0 if self.lo is None else self.lo.shape[1]
            self.keys.update((k, start + i) for i, k in enumerate(todo))
            self.lo = new_lo if self.lo is None else np.hstack((self.lo, new_lo))
            self.hi = new_hi if self.hi is None else np.hstack((self.hi, new_hi))
            self.runs += 1
            self.columns += len(pick)
        return self.lo, self.hi, np.array([self.keys[k] for k in keys[:u]])

    def prune(self) -> None:
        """Keep only the columns of the run that ends and their halves."""
        keep = [k for k in self.keys if k in self.live]
        if len(keep) < len(self.keys):
            pick = [self.keys[k] for k in keep]
            self.lo, self.hi = self.lo[:, pick], self.hi[:, pick]
            self.keys = dict(zip(keep, range(len(keep))))
        self.live = set()


class Jet2:
    """Second-order jet in two variables (y, a), minus the pure a-a term.

    Carries (v, dy, da, dyy, dya) with Interval, plan row or float
    components: enough for mean-value enclosures of a function and of its
    y-derivative over a rectangle.  Exponentials with jet-valued exponents route through
    exp/log, which is how r**(-A) differentiates in both variables.

    Structural zeros stay exact.  A component that vanishes identically,
    such as the a-derivatives of a quantity of y alone, is the float 0.0:
    a product term with a 0.0 factor is 0.0 and runs no operation, a 0.0
    summand is dropped, and a component whose terms all vanish stays 0.0.
    Since 0 encloses an identically zero term, enclosures are never wider
    than with the terms computed, only cheaper.

    Over interval arrays the formulas run only as a plan: the certifier
    and the root scan's tangency guard trace F on a jet of rows once
    (``_trace``) and run the plan.
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
        if isinstance(v, (int, float)):
            return -self if v < 0.0 else self
        # each interval type negates or keeps a part by the sign of v;
        # a structural zero stays 0.0
        return Jet2(*(0.0 if _zero(c) else v._abs_part(c) for c in self._parts(self)))


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
    """Enclosures of F and dF over a batch of boxes, with per-quantity split
    hints (0 splits y4, 1 splits A).  NaN bounds in an enclosure that a
    box's decider reads are the one mark of a box that cannot be
    evaluated; ``_bisect`` reads no verdict or hint there.  A box's other
    enclosure may be NaN because it was not computed."""

    f: IntervalArray
    df: IntervalArray
    hint_f: np.ndarray | int = 0   # coordinate whose error term dominates the F enclosure
    hint_df: np.ndarray | int = 0  # same for the dF enclosure


# verdict codes returned by the deciders; 0 leaves a box open
_VERDICTS = ("undecided", "F", "dF")

# Rows a bisection pass evaluates at most, unless its frontier alone is
# larger.  A pass pays a fixed cost per stacked kernel call of its plan,
# and a row adds little to it, so a pass evaluates the frontier together
# with whole levels of its candidate children and, in the rows left, chains
# of y4 halves toward the window ends, where the leaves pile up.  A plan
# runs its columns in blocks of 2 * _PASS_ROWS, so that a pass whose
# frontier outgrows _PASS_ROWS, up to twice that, still runs as one block.
# Of 64 to 1024 rows, 128 ran the three acceptance certificates fastest;
# CHANGES.md holds the timings.
_PASS_ROWS = 128

# Boxes of the bisection tree that one ``_bisect`` call may make.  The
# acceptance certificates make at most 3967 (B2), and B2 certified up to its
# collision end needs about 17k; a region that no box decides doubles its
# frontier at each depth and meets the cap after 16 depths.
_MAX_TREE_BOXES = 1 << 16


def _stats(evals_per_depth=(), undecided_domain=0, undecided_straddle=0,
           leaf_depths=(), leaves_by_verdict=None, pass_rows=(), undecided_budget=0) -> dict:
    """How a bisection was reached: the boxes of the bisection tree at each
    depth (the root is depth 0), which ``box_evals`` sums, and two kinds of
    undecided box: those not evaluable (out of the branch domain or no
    enclosure) and those whose zone quantity has an enclosure straddling
    zero.  Any other undecided box has an enclosure of the wrong strict
    sign for its zone, or is one that no split can shrink.  Where the
    leaves lie: ``leaf_depths[d]`` counts the leaves, undecided ones
    included, made at depth d, and ``leaves_by_verdict`` counts them by
    verdict.  ``pass_rows`` lists the rows of each ``evaluate`` call,
    look-ahead and chain rows included; ``passes`` counts the calls and
    ``evaluated`` sums the rows, and ``pass_rows`` is present only when
    there was a pass.  ``undecided_budget``, present only when nonzero,
    counts the open boxes kept undecided because splitting them would take
    the tree past ``_MAX_TREE_BOXES``."""
    stats = {
        "box_evals": sum(evals_per_depth),
        "max_depth": max(len(evals_per_depth) - 1, 0),
        "evals_per_depth": list(evals_per_depth),
        "undecided_domain": undecided_domain,
        "undecided_straddle": undecided_straddle,
        "leaf_depths": list(leaf_depths),
        "leaves_by_verdict": dict(leaves_by_verdict or dict.fromkeys(_VERDICTS, 0)),
        "passes": len(pass_rows),
        "evaluated": sum(pass_rows),
    }
    if pass_rows:
        stats["pass_rows"] = list(pass_rows)
    if undecided_budget:
        stats["undecided_budget"] = undecided_budget
    return stats


def _leaf(row, verdict: str) -> CertLeaf:
    return CertLeaf((row[0], row[1]), (row[2], row[3]), verdict)


def _look_ahead(frontier: np.ndarray, levels_left: int) -> tuple:
    """The whole levels of one bisection pass: the frontier's (4, n) box
    bounds, then whole levels of candidate children, while the batch stays
    within ``_PASS_ROWS`` rows and ``levels_left`` levels (``_bisect``
    passes the depth cap less the frontier's least depth), and while a
    split can shrink a box of the last level (``_bisect`` keeps any other
    box as undecided).  The candidates of a box are both halves along each
    coordinate it may split on: y4 alone when no frontier box has A-width
    (``split_bounds`` then always splits y4), else y4 and A.  Returns
    (rows, levels, the candidates per box); row r of any level but the
    last has its halves along coordinate c at rows n + ways * r + 2 * c
    and one more, the upper half.
    """
    coords = (0, 1) if np.any(frontier[3] - frontier[2] > 0.0) else (0,)
    ways = 2 * len(coords)
    levels, width = [frontier], frontier.shape[1]
    while len(levels) <= levels_left and width + ways * levels[-1].shape[1] <= _PASS_ROWS:
        last = levels[-1]
        # (coordinate, lower or upper, bound, box)
        halves = np.array([split_bounds(*last, c) for c in coords])
        if (halves == last).all(axis=2).any(axis=1).all():
            break
        levels.append(halves.transpose(2, 3, 0, 1).reshape(4, -1))
        width += levels[-1].shape[1]
    return np.concatenate(levels, axis=1), len(levels), ways


def _chains(parents: np.ndarray, end: np.ndarray, want: np.ndarray) -> tuple:
    """Chains of y4 halves toward a window end: for each box of ``parents``,
    (4, k) bounds, its half toward ``end`` (0 the lower y4 end, 1 the
    upper) by ``split_bounds`` along y4, that half's half, and so on, up to
    ``want`` rows, at least one; a chain ends at a box that no split can
    shrink.  One ``split_bounds`` call makes a step of every chain.  Returns
    the (4, rows) bounds, chain after chain, and the rows of each chain."""
    k, alive = int(want.max(initial=0)), True
    steps, taken = np.empty((k, 4, want.size)), np.zeros((k, want.size), dtype=bool)
    for j in range(k):
        halves = np.array(split_bounds(*parents, 0))
        alive = alive & (j < want) & ~(halves == parents).all(axis=1).any(axis=0)
        parents = steps[j] = np.where(end == 1, halves[1], halves[0])
        taken[j] = alive
    return steps.transpose(1, 2, 0)[:, taken.T], taken.sum(axis=0)


def _pass_batch(bounds, depth, reach, max_depth: int) -> tuple:
    """The rows of one ``_bisect`` pass on the (4, n) frontier ``bounds``,
    whose boxes sit at ``depth`` and ask for ``reach[e]`` chain rows toward
    the lower (e = 0) and the upper end: the whole levels of
    ``_look_ahead``, then, in the rows left of ``_PASS_ROWS``, a chain
    (``_chains``) for each box that asks for rows, from its last-level
    descendant along y4 toward that end, while the rows and ``max_depth``
    allow.  Returns the (4, rows) batch, its whole levels, the candidates
    per box, the frontier box of each row, and two (2, rows) arrays:
    ``succ[h, r]``, the chain row that holds row r's lower (h = 0) or upper
    half if it is a chain row, else -1 (all -1 in a pass without chains), and
    ``grow[e, r]``, the chain rows that the halves of row r at end e ask
    for: twice a chain's rows after its last row, one elsewhere."""
    n = bounds.shape[1]
    whole, levels, ways = _look_ahead(bounds, max_depth - int(depth.min()))
    width = whole.shape[1]
    # row p * ways**l + j of level l descends from frontier box p
    root = np.concatenate([np.repeat(np.arange(n), ways ** l) for l in range(levels)])
    # (parent row, end, rows, frontier box) for each chain
    room, plan = _PASS_ROWS - width, []
    for p, e in zip(*(np.nonzero(reach.T) if room > 0 else ((), ()))):
        want = min(int(reach[e, p]), max_depth - int(depth[p]) - levels + 1, room)
        if want > 0:
            row = int(p)
            for _ in range(levels - 1):
                row = n + ways * row + int(e)
            plan.append((row, int(e), want, int(p)))
            room -= want
    plan = np.array(plan, dtype=int).reshape(-1, 4)
    chain, rows = _chains(whole[:, plan[:, 0]], plan[:, 1], plan[:, 2])
    batch = np.concatenate([whole, chain], axis=1)
    succ = np.full((2, batch.shape[1]), -1)
    grow = np.ones((2, batch.shape[1]), dtype=int)
    top = width
    for (row, e, _, _), k in zip(plan.tolist(), rows.tolist()):
        if k:
            succ[e, [row, *range(top, top + k - 1)]] = np.arange(top, top + k)
            grow[e, top + k - 1] = 2 * k
            top += k
    root = np.concatenate([root, np.repeat(plan[:, 3], rows)])
    return batch, levels, ways, root, succ, grow


def _bisect(zones, evaluate, max_depth: int) -> tuple:
    """Breadth-first adaptive bisection; returns (leaves, undecided, stats).

    ``zones`` lists (decide, seeds) pairs: a decider and the
    (ylo, yhi, alo, ahi) bounds of its seed boxes.  All boxes share one
    frontier, tagged by zone index, and each box carries its depth: the
    frontier may mix depths.  Each pass evaluates the frontier together
    with whole levels of its candidate children (``_look_ahead``) and, in
    the rows left of ``_PASS_ROWS``, chains toward the window ends
    (``_chains``, ``_pass_batch``), by one ``evaluate`` call on the bound
    arrays and ``need``, which returns a ``_BoxEval``.  A chain starts at each
    frontier box that touches the lowest or the highest y4 of all seeds:
    it holds the y4 half toward that end of the box's last-level
    descendant along y4, that half's half, and so on.  It asks for one row,
    twice the rows of the box's last chain where every one of them was
    used, and one row again once a chain breaks.  ``need`` gives, for each
    row, the quantities that its zone's decider reads, as bits: F 1 and
    dF 2, their verdict codes, from the decider's ``reads`` (both where it
    has none).  The evaluator may leave a quantity that a row does not
    need NaN.  Each decider then runs once on that evaluation and maps it
    to arrays of verdict codes (indices into ``_VERDICTS``), split
    coordinates and a mask of the boxes whose enclosure straddles zero; it
    is read for the rows of its own zone.  A box whose enclosure of a
    quantity its decider reads has NaN bounds cannot be evaluated: it gets
    no verdict, whatever its decider says.  The pass then resolves its
    frontier, then the halves of its open boxes that the batch holds, and
    so on until none is left.  A box with a verdict becomes a leaf
    carrying it; any other box is split along the coordinate, or along y4
    when it cannot be evaluated, and is kept as undecided once it sits at
    ``max_depth`` or cannot be shrunk by a split (a point box, or one
    whose midpoint rounds to an end).  A half whose bounds are a row of
    the batch is resolved in the same pass; any other half, such as one of
    a chain box split along A, joins the next pass's frontier.  The tree's
    boxes are counted as they are made: once splitting the open boxes of
    one step of that resolution would take the tree past
    ``_MAX_TREE_BOXES`` boxes, they are all kept as undecided, and the
    stats count them as ``undecided_budget``; on a frontier of one depth a
    step is one depth, and the cap cuts the tree after a whole depth.
    Enclosures, hints and verdicts are computed element by element, so a
    box's outcome does not depend on the rest of its batch, and a chain
    row is used or wasted but never moves a verdict: within the budget the
    leaves, the undecided boxes and every stat but ``passes``,
    ``evaluated`` and ``pass_rows`` are those of one evaluation per depth,
    and the leaves those of a depth-first bisection, in another order.
    """
    leaves, undecided, seen, leaf_at, verdicts, pass_rows = [], [], [], [], [], []
    zone = np.array([z for z, (_, seeds) in enumerate(zones) for _ in seeds], dtype=int)
    bounds = np.array([s for _, seeds in zones for s in seeds], dtype=float).reshape(-1, 4).T
    reads = np.array([getattr(decide, "reads", 3) for decide, _ in zones], dtype=int)
    ends = np.array([[bounds[0].min(initial=_INF)], [bounds[1].max(initial=-_INF)]])
    depth = np.zeros(zone.size, dtype=int)
    # the chain rows each frontier box asks for, toward the lower and the upper end
    reach = (bounds[:2] == ends).astype(int)
    made, domain, straddle, budget = zone.size, 0, 0, 0
    while zone.size:
        n = zone.size
        batch, levels, ways, root, succ, grow = _pass_batch(bounds, depth, reach, max_depth)
        # a row at step s of the resolution below sits s depths below its
        # frontier box, whether in a whole level or in a chain
        tags, base = zone[root], depth[root]
        ev = evaluate(*batch, need=reads[tags])
        pass_rows.append(batch.shape[1])
        verdict, coord = np.zeros(tags.size, dtype=int), np.zeros(tags.size, dtype=int)
        straddles, ok = np.zeros(tags.size, dtype=bool), np.zeros(tags.size, dtype=bool)
        # a box is evaluable where each quantity its zone reads has bounds
        valid = {1: ev.f.valid, 2: ev.df.valid}
        valid[3] = valid[1] & valid[2]
        for z, (decide, _) in enumerate(zones):
            mine = tags == z
            for out, mask in zip((verdict, coord, straddles, ok), (*decide(ev), valid[reads[z]])):
                np.copyto(out, mask, where=mine)
        verdict[~ok] = coord[~ok] = 0
        # the batch rows of this step's boxes and of the leaves; the next
        # frontier's boxes, their batch rows and their depths less one
        rows, step, ended = np.arange(n), 0, []
        parts, came, deep = [np.empty((4, 0))], [rows[:0]], [rows[:0]]
        while rows.size:
            box, axis, d = batch[:, rows], coord[rows], base[rows] + step
            lower, upper = halves = np.array(split_bounds(*box, axis))
            stuck = (halves == box).all(axis=1).any(axis=0)
            open_ = verdict[rows] == 0
            kept = open_ & ((d >= max_depth) | stuck)
            split = int(np.count_nonzero(open_ & ~kept))
            if made + 2 * split > _MAX_TREE_BOXES:
                budget += split
                kept = open_
            else:
                made += 2 * split
            done = ~open_ | kept
            seen.append(d)
            leaf_at.append(d[done])
            ended.append(rows[done])
            open_ &= ~kept
            step += 1
            if step < levels:
                # the halves of row r along coordinate c are rows
                # n + ways * r + 2 * c and one more
                first = n + ways * rows[open_]
                if ways == 4:
                    first += 2 * axis[open_]
                rows = np.concatenate([first, first + 1])
                continue
            # a half that is its chain row is resolved next in this pass, and
            # any other one joins the next frontier
            nxt = []
            for h, half in enumerate((lower, upper)):
                cand = succ[h, rows]
                hit = open_ & (cand >= 0)
                hit[hit] = (batch[:, cand[hit]] == half[:, hit]).all(axis=0)
                miss = open_ & ~hit
                nxt.append(cand[hit])
                parts.append(half[:, miss])
                came.append(rows[miss])
                deep.append(d[miss])
            rows = np.concatenate(nxt)
        ended = np.concatenate(ended)
        codes = verdict[ended]
        verdicts.append(codes)
        for row, code in zip(batch[:, ended].T.tolist(), codes.tolist()):
            (leaves if code else undecided).append(_leaf(row, _VERDICTS[code]))
        domain += int(np.count_nonzero((codes == 0) & ~ok[ended]))
        straddle += int(np.count_nonzero((codes == 0) & ok[ended] & straddles[ended]))
        bounds, came = np.concatenate(parts, axis=1), np.concatenate(came)
        zone, depth = tags[came], np.concatenate(deep) + 1
        reach = grow[:, came] * (bounds[:2] == ends)
    evals = np.bincount(np.concatenate([np.zeros(0, dtype=int), *seen]))
    leaf_depths, codes = (np.bincount(np.concatenate([np.zeros(0, dtype=int), *c]), minlength=m)
                          for c, m in ((leaf_at, evals.size), (verdicts, len(_VERDICTS))))
    return leaves, undecided, _stats(evals.tolist(), domain, straddle, leaf_depths.tolist(),
                                     dict(zip(_VERDICTS, codes.tolist())), pass_rows, budget)


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
