"""Analysis of the mirror-symmetric equilateral family.

The admissibility of masses on the symmetric family reduces to the vanishing
of a 2x2 minor F of the mass-coefficient matrix.  This module evaluates F
generically (floats, arrays, jets, intervals), isolates its roots per
sign-type window, recovers masses at each root, checks them against the two
exact mass polynomials, encloses the exponent A_c of the root-count
bifurcation by interval Newton on the closed form of dF/dy4 at the regular
pentagon, and verifies the grid sign arguments that exclude seven of the
ten sign types.  One interval Newton step, ``_newton_step``, certifies
both each simple root of the scan and A_c.
It also places the float strip around the sign crossing that
``certify.certify_unique_root`` isolates.  F runs on a float grid in one
function, ``_grid_signs``: the root scan, the root counts of the
bifurcation check and that strip read a node's sign as 0 when F is 0 or
not finite there.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .geometry import (
    OutOfDomainError,
    SymmetricShape,
    SignType,
    Y4_MAX,
    classify_sign_type,
    collinear_endpoint_y4,
    family_terms,
    house_y4,
    regular_pentagon_y4,
    square_endpoint_y4,
    symmetric_coords,
)
from .equations import (
    _WEDGE_ROWS,
    Exponent,
    MassVector,
    laura_andoyer,
    mass_coefficient_matrix,
    mass_kernel,
)
from .intervals import (Interval, IntervalArray, IntervalDomainError, Jet2, _BoxEval,
                        _bisect, _no_common_zero_decider, _to_nearest, _trace)

log = logging.getLogger(__name__)

__all__ = [
    "F",
    "RootRecord",
    "MassPolynomial",
    "VORTEX_MASS_POLY",
    "QUARTIC_MASS_POLY",
    "sign_type_windows",
    "window_for",
    "isolate_roots",
    "recover_masses",
    "verify_mass_polynomial",
    "bifurcation_scan",
    "NoBifurcationError",
    "exclude_sign_types",
    "ExclusionCheck",
    "ALLOWED_TYPES",
    "EXCLUDED_TYPES",
    "scan_branch",
]

# The fixed grids and tolerances of the paper's checks.
_ROOT_GRID = 4096  # uniform cells per window that bracket the zeros of F
_SCAN_INSET = 1e-9  # distance of a scanned window from its sign-type boundaries
_PENTAGON_EPS = 1e-8  # least distance of a root pair split off the pentagon
_EXCLUSION_GRID = 10000  # interior grid points per excluded sign-type window


def F(y4, a_exp, branch: str = "A"):
    """The admissibility minor; its zeros are the candidate symmetric shapes.

    F = (1 - R14)(R35 - 1) d124 d345
        + (1 - R13) d134 ((R13 - R14) d134 + (1 - R14) d145)

    F is the minor of rows L14 and L34 of the mass-coefficient matrix
    (``equations._WEDGE_ROWS``), written out in its own order of operations:
    the literal minor of the rows rounds differently and gives the B2
    unique-root certificate 1975 leaves instead of 1985.
    Accepts floats, numpy arrays, Intervals and Jet2 jets for y4, and a
    float, Interval or Jet2 exponent.
    """
    g = family_terms(y4, branch, a_exp)
    return ((1.0 - g["R14"]) * (g["R35"] - 1.0) * g["d124"] * g["d345"]
            + (1.0 - g["R13"]) * g["d134"]
            * ((g["R13"] - g["R14"]) * g["d134"] + (1.0 - g["R14"]) * g["d145"]))


def F_dual(y4, a_exp, branch: str = "A") -> Jet2:
    """F's jet in y4 at a constant exponent: ``.v`` is F and ``.dy`` dF/dy4.

    The tangency guard's plan (``_natural_plan``) traces it on a row of y4
    intervals with ``.v`` and ``.dy`` as its only outputs, and that plan
    serves both the guard and the simplicity and Newton checks of the
    scan's roots; on a float it gives dF/dy4 in floats.  Run directly on
    an Interval, as the tests' reference does, the jet also computes
    d2F/dy4^2, which no caller reads and whose failure fails the whole
    jet.
    """
    return F(Jet2.variable_y(y4), a_exp, branch)


# ---------------------------------------------------------------------------
# sign-type windows

# The sign types of each branch in y4 order.  A window runs from the end of
# the one before it (0.0 for the first) to its landmark, where the quantity
# in the comment vanishes.  The claim is the (two-mass equation, claimed
# common sign of its mass coefficients) of the sign argument that excludes
# the type, or None for a type the arguments allow.  classify_sign_type
# defines the sign types; the tests check this table against it.
_SIGN_TYPES = {
    "A": (
        ("A1", square_endpoint_y4(), ("L13", -1)),     # r35 = 1
        ("A2", collinear_endpoint_y4(), None),         # Delta134 = 0
        ("A3", math.sqrt(3.0) / 2.0, ("L13", +1)),     # Delta345 = 0 (r14 = 1)
        ("A4", house_y4(), None),                      # r35 = 1
        ("A5", Y4_MAX, ("L13", -1)),                   # end of the domain
    ),
    "B": (
        ("B1", square_endpoint_y4(), ("L13", +1)),     # x3 = 0: collision q3 = q5
        ("B2", math.sqrt(3.0) / 2.0, None),            # y3 = 0: collision q1 = q3
        ("B3", regular_pentagon_y4(), ("L13", +1)),    # Delta134 = 0
        ("B4", house_y4(), ("L14", +1)),               # x3 = 0: collision q3 = q5
        ("B5", Y4_MAX, ("L13", -1)),                   # end of the domain
    ),
}

# The sign arguments leave only the allowed types able to carry solutions.
ALLOWED_TYPES = {b: tuple(label for label, _, claim in types if claim is None)
                 for b, types in _SIGN_TYPES.items()}
EXCLUDED_TYPES = {b: tuple(label for label, _, claim in types if claim is not None)
                  for b, types in _SIGN_TYPES.items()}


def sign_type_windows(branch: str) -> dict:
    """Open y4 windows of each sign type, keyed by label, in y4 order.

    The windows tile [0, Y4_MAX], and each inner edge is a closed-form
    landmark of the family: ``square_endpoint_y4``, ``collinear_endpoint_y4``,
    sqrt(3)/2, ``regular_pentagon_y4`` or ``house_y4``.  The dict is new on
    each call: changing it moves no window.
    """
    types = _SIGN_TYPES[branch]
    ends = [0.0] + [end for _, end, _ in types]
    return {label: (lo, hi) for (label, _, _), lo, hi in zip(types, ends, ends[1:])}


def window_for(branch: str, label: str, inset: float = 0.0) -> tuple:
    """(lo, hi) window of a sign type, optionally shrunk away from boundaries.

    The inset must be finite and nonnegative: a negative one would widen the
    window past its boundaries.
    """
    if not (math.isfinite(inset) and inset >= 0.0):
        raise ValueError(f"inset must be finite and nonnegative, got {inset}")
    wins = sign_type_windows(branch)
    if label not in wins:
        raise KeyError(f"no sign type {label!r} on branch {branch}")
    lo, hi = wins[label]
    return lo + inset, hi - inset


# ---------------------------------------------------------------------------
# root isolation

def _check_resolution(name: str, value: float, top: float) -> None:
    """Raise ValueError unless ``value`` is finite and at least the float
    spacing at ``top``, the upper end of the range that a grid or a
    bisection with that step or width runs over: below it neither advances."""
    if not (math.isfinite(value) and value >= math.ulp(top)):
        raise ValueError(f"{name} must be finite and at least {math.ulp(top):.3g}, got {value}")


def _refine(f, a, fa, b, tol: float) -> tuple:
    """Bisect a sign change of ``f`` on [a, b], where fa = f(a) and f(b) has
    the other sign, down to width ``tol``; an exact zero at a midpoint gets a
    bracket of width about tol/2 around it."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = float(f(mid))
        if fm == 0.0:
            half = max(0.25 * tol, 1e-15)
            return max(a, mid - half), min(b, mid + half)
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return a, b


@dataclass(frozen=True)
class RootRecord:
    """Isolated zero of F with its certification data and recovered masses."""

    enclosure: tuple
    branch: str
    sign_type: SignType
    a_exp: float
    masses: MassVector | None
    positive_masses: bool
    residual_max: float
    simple: bool
    sign_change_certified: bool = True
    resolved: bool = True

    @property
    def y4(self) -> float:
        return 0.5 * (self.enclosure[0] + self.enclosure[1])

    def to_json(self) -> dict:
        return {
            "y4_enclosure": list(self.enclosure),
            "y4": self.y4,
            "branch": self.branch,
            "sign_type": self.sign_type.label,
            "A": self.a_exp,
            "masses": list(self.masses.as_array()) if self.masses else None,
            "positive_masses": self.positive_masses,
            # JSON has no infinity: a record without masses has null here
            "residual_max": self.residual_max if math.isfinite(self.residual_max) else None,
            "simple": self.simple,
            "sign_change_certified": self.sign_change_certified,
            "resolved": self.resolved,
        }


def recover_masses(y4: float, branch: str, a_exp: float):
    """Kernel masses and wedge-residual norm at a candidate root; no masses
    where the mass-coefficient matrix is not finite (a power overflowed)."""
    shape = SymmetricShape(y4, branch)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = mass_coefficient_matrix(shape, a_exp)
    kern = mass_kernel(matrix) if np.isfinite(matrix).all() else None
    if kern is None or kern.masses is None:
        return None, False, math.inf
    config = symmetric_coords(shape)
    rep = laura_andoyer(config, kern.masses, a_exp)
    return kern.masses, kern.positive, rep.max_abs


def _newton_step(f, x: Interval, slope: Interval) -> Interval:
    """The interval Newton step N(X) = m - f(m) / f'(X), m the midpoint of
    X, f(m) from ``f`` on the point Interval at m, and ``slope`` an
    enclosure of f' over X (Moore, Kearfott and Cloud, *Introduction to
    Interval Analysis*, SIAM 2009).  Every zero of f in X lies in N(X), so
    an empty X & N(X) proves that X holds none, and N(X) inside the
    interior of X proves that X holds exactly one: a simple zero, with
    strict opposite signs of f at the ends of X.  Where f is undefined at
    m or the slope holds zero, the step says nothing: N(X) is the whole
    line."""
    m = x.mid
    try:
        return m - f(Interval.point(m)) / slope
    except ArithmeticError:
        return Interval(-math.inf, math.inf)


def _make_record(enclosure: tuple, branch: str, a_exp: float, simple: bool,
                 certified: bool, resolved: bool = True) -> RootRecord:
    mid = 0.5 * (enclosure[0] + enclosure[1])
    masses, positive, resid = recover_masses(mid, branch, a_exp)
    return RootRecord(
        enclosure=enclosure, branch=branch,
        sign_type=classify_sign_type(SymmetricShape(mid, branch)),
        a_exp=a_exp, masses=masses, positive_masses=positive,
        residual_max=resid, simple=simple,
        sign_change_certified=certified, resolved=resolved)


@_to_nearest
def isolate_roots(branch: str, a_exp: float, window: tuple, tol: float = 1e-12) -> list:
    """Disjoint sign-change enclosures of the zeros of F inside a window.

    Roots are bracketed on a uniform grid of ``_ROOT_GRID`` cells and
    refined by bisection to width at most ``tol``.  An enclosure X is
    simple where the enclosure of dF/dy4 over it excludes zero; one run of
    the tangency guard's plan (``_natural_eval``) gives dF/dy4 over all
    the root enclosures of the window.  A simple enclosure is certified
    (``sign_change_certified``) where one interval Newton step on that
    slope, N(X) = m - F(m) / dF/dy4(X) with F(m) on the scalar Interval at
    the midpoint m (``_newton_step``), lies inside the interior of X: then
    X holds exactly one zero of F, a simple one, and F has strict opposite
    signs at its ends.  A sign change of F through a pole, at a collision,
    is not simple, and so never certified.  Grid cells without
    a sign change that may hide an even-order zero go to the certifier's
    breadth-first bisection, ``intervals._bisect``, on the same plan, which
    clears the subcells where the interval F or dF/dy4 excludes zero.
    A grid node where F is not finite (above A of about 1000 a power of a
    distance overflows) has no sign, and neither has an exact zero unless
    its neighbours have opposite signs: the two cells of such a node join
    the subcells the guard leaves open, and their merged cells are reported
    as unresolved records instead of being guessed at.  One INFO line per
    call on this module's logger gives the guard's seeds, its boxes per
    depth, its passes, the unresolved cells, the root enclosures checked,
    how many of them are not simple, and the guard's wall time.
    Raises OutOfDomainError when the window is empty (lo == hi) or not
    inside [0, Y4_MAX], and ValueError when the exponent breaks the rule of
    ``equations.Exponent`` (finite and at least 2), or when ``tol`` is not
    finite or is below the float spacing at the window's upper end, where
    the bisection could not advance.
    """
    a_exp = Exponent(a_exp).value
    lo, hi = window
    if lo == hi:
        raise OutOfDomainError(f"window {window} is empty: lo == hi")
    if not (0.0 <= lo < hi <= Y4_MAX):
        raise OutOfDomainError(f"window {window} is not inside the branch domain")
    _check_resolution("tol", tol, hi)
    ys = np.linspace(lo, hi, _ROOT_GRID + 1)
    vals, signs, finite = _grid_signs(ys, a_exp, branch)
    brackets = [(i, i + 1) for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]]
    # a grid node without a sign: an exact zero between opposite signs
    # brackets a root, and any other leaves its two cells unresolved
    cells = []
    for i in np.nonzero(signs == 0)[0]:
        if finite[i] and 0 < i < _ROOT_GRID and signs[i - 1] * signs[i + 1] < 0:
            brackets.append((i - 1, i + 1))
        else:
            cells.append((float(ys[max(i - 1, 0)]), float(ys[min(i + 1, _ROOT_GRID)])))
    f = partial(F, a_exp=a_exp, branch=branch)
    roots = [_refine(f, float(ys[i]), float(vals[i]), float(ys[j]), tol) for i, j in brackets]
    # a root is simple where the guard's dF/dy4 over its enclosure is valid
    # and excludes zero (one run of the guard's plan for all roots), and
    # certified where one Newton step on that slope lands inside it
    evaluate = partial(_natural_eval, branch=branch, a_exp=a_exp)
    simple, certified = [], []
    if roots:
        df = evaluate(*zip(*roots), a_exp, a_exp).df
        simple = (df.valid & ~df.contains_zero()).tolist()
        for root, ok, slope_lo, slope_hi in zip(roots, simple, df.lo, df.hi):
            x = Interval(*root)
            n = _newton_step(f, x, Interval(slope_lo, slope_hi)) if ok else x
            certified.append(x.lo < n.lo and n.hi < x.hi)

    # tangency guard: same-sign cells that may hide an even-order zero are
    # screened cheaply, then refined by bisection down to depth 24; only
    # cells where F and dF still both straddle zero are reported
    start = time.perf_counter()
    seeds = _tangency_seeds(ys, vals, a_exp)
    _, undecided, stats = _bisect([(_no_common_zero_decider, seeds)], evaluate, 24)
    cells = _merge_intervals(cells + [leaf.y4 for leaf in undecided])
    log.info("tangency guard on y4 [%r, %r] at A=%r: seeds %d, boxes per depth %s, "
             "passes %d, unresolved cells %d, roots %d, not simple %d, %.3f s",
             float(lo), float(hi), a_exp, len(seeds), stats["evals_per_depth"],
             stats["passes"], len(cells), len(roots), simple.count(False),
             time.perf_counter() - start)
    records = [_make_record(root, branch, a_exp, ok, cert)
               for root, ok, cert in zip(roots, simple, certified)]
    records += [_make_record(cell, branch, a_exp, False, False, resolved=False)
                for cell in cells]
    records.sort(key=lambda r: r.enclosure[0])
    return records


def _grid_signs(ys, a_exp: float, branch: str) -> tuple:
    """F on a float grid of y4 and the sign of each node: (vals, signs,
    finite).  The one place F runs on a float grid.  Above A of about 1000
    a power of a distance overflows and F is inf or NaN at some nodes; such
    a node has value and sign 0 and ``finite`` False, so a sign is 0 when
    F is 0 or not finite there."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(F(ys, a_exp, branch), dtype=float)
    finite = np.isfinite(vals)
    vals = np.where(finite, vals, 0.0)
    return vals, np.sign(vals), finite


def _tangency_seeds(ys, vals, a_exp: float) -> list:
    """Same-sign grid cells close enough to zero to hide an even-order zero
    of F, as (y4 lo, y4 hi, A, A) boxes.

    A cell is near when min(|F|) at its ends is below 8 (|dF| + 1e-300),
    dF the step of F across it.  The rule runs on half of every value and
    compares min(|F|)/16 with |dF|/2 + 1e-300/2: no intermediate overflows
    at values up to the float maximum, and since scaling by a power of two
    is exact, each verdict is that of the rule in full, read as true where
    8 (|dF| + 1e-300) overflows.  Where halving a value rounds, that value
    is below 1e-307 and the cell is near either way."""
    signs = np.sign(vals)
    half = 0.5 * vals
    steps = np.abs(np.diff(half))
    near = np.minimum(np.abs(half[:-1]), np.abs(half[1:])) / 8.0 < steps + 0.5e-300
    return [(float(ys[i]), float(ys[i + 1]), a_exp, a_exp)
            for i in np.flatnonzero(near & (signs[:-1] * signs[1:] > 0)).tolist()]


@lru_cache
def _natural_plan(branch: str, a_exp: float):
    """F's jet in y4 at one float exponent, traced once into one plan over
    the y4 row (``intervals._trace``) with the value and dF/dy4 as its only
    outputs, so that no kernel call of the second-order slot runs.  The
    cache keeps the plans of the 128 most recent (branch, exponent) pairs.

    The plan is keyed by the float exponent, not given it as an input row:
    traced at a float, an integer exponent keeps its powers exact and
    cheap.  One plan per branch with the exponent as a row gave the same
    records and guard log lines on 370 scan windows, but at integer A it
    makes 76 stacked kernel calls a pass on branch A and 86 on B, against
    71 and 78, and six scans at A = 2 to 4 took 2.2 % more CPU time (40
    randomized rounds on a 2-core x86 host)."""
    def value_and_slope(y):
        jet = F_dual(y, a_exp, branch)
        return jet.v, jet.dy
    return _trace(value_and_slope, 1)


def _natural_eval(ylo, yhi, alo, ahi, branch: str, a_exp: float, need=None) -> _BoxEval:
    """The natural form of F and dF/dy4 over y4 intervals at one exponent.

    The exponent columns of the boxes are ignored: ``a_exp`` enters as a
    float, because an interval exponent would send integer powers through
    exp and log and widen the enclosures.  One run of the plan of
    ``_natural_plan`` evaluates every box.  The plan takes the square root
    of the branch radicand through log and exp, so a box whose radicand
    enclosure reaches zero, at or past the end of the domain, has NaN
    enclosures; bisection splits it like any open box.  Every split hint
    is y4, the default.  Both quantities are computed on every box: the
    guard's decider reads both, so ``need`` (``intervals._bisect``) is
    ignored.
    """
    return _BoxEval(*_natural_plan(branch, float(a_exp)).run(IntervalArray(ylo, yhi)))


def _merge_intervals(cells: list) -> list:
    merged: list = []
    for lo, hi in sorted(cells):
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _locate_crossing(window: tuple, a_range: tuple, branch: str) -> tuple:
    """Floating-point bracket of the sign crossing across sampled exponents,
    the strip around which ``certify.certify_unique_root`` sets its zones.

    Returns (c1, c2, lo_sign, unsigned): a strip containing every sampled
    root, widened by a margin and clipped to the window, or None and None
    when no grid cell changes sign at a sampled exponent; the sign of F at
    the window's lower end and the least exponent, 0 when F is 0 or not
    finite there (``_grid_signs``); and the count of grid nodes, over all
    sampled exponents, that have no sign because F is not finite there.
    Soundness never depends on this estimate; a bad strip only makes
    certification fail, not lie.
    """
    lo, hi = window
    ys = np.linspace(lo, hi, 2049)
    grids = [_grid_signs(ys, float(a_exp), branch)
             for a_exp in np.linspace(a_range[0], a_range[1], 9)]
    signs = [grid[1] for grid in grids]
    unsigned = sum(int(np.count_nonzero(~finite)) for _, _, finite in grids)
    lo_sign = int(signs[0][0])
    # the grid cells with a sign change at some sampled exponent
    crossed = np.flatnonzero(np.any([s[:-1] * s[1:] < 0 for s in signs], axis=0))
    if not crossed.size:
        return None, None, lo_sign, unsigned
    margin = 0.08 * (hi - lo)
    c1 = max(lo, float(ys[crossed[0]]) - margin)
    c2 = min(hi, float(ys[crossed[-1] + 1]) + margin)
    return c1, c2, lo_sign, unsigned


@_to_nearest
def scan_branch(branch: str, a_exp: float, tol: float = 1e-12) -> list:
    """Roots of F over the allowed sign-type windows of a branch, each
    inset by ``_SCAN_INSET``; ``isolate_roots`` checks ``a_exp`` and
    ``tol``."""
    records = []
    for label in ALLOWED_TYPES[branch]:
        win = window_for(branch, label, inset=_SCAN_INSET)
        records.extend(isolate_roots(branch, a_exp, win, tol=tol))
    records.sort(key=lambda r: r.enclosure[0])
    return records


# ---------------------------------------------------------------------------
# exact mass polynomials

@dataclass(frozen=True)
class MassPolynomial:
    """Integer polynomial in m4 satisfied by the symmetric solutions."""

    name: str
    coefficients: tuple  # ascending order, exact integers

    def __call__(self, m4: float) -> float:
        total = 0.0
        for c in reversed(self.coefficients):
            total = total * m4 + c
        return total

    def scale(self, m4: float) -> float:
        return sum(abs(c) * abs(m4) ** i for i, c in enumerate(self.coefficients))


VORTEX_MASS_POLY = MassPolynomial(
    "vortex_symmetric",
    (-17, -149, 215, 1362, 45, -2830, -109, 2316, -752, 64),
)

QUARTIC_MASS_POLY = MassPolynomial(
    "quartic_symmetric",
    (957, 25519, -33431, -387130, -239673, 2374416, 456601, -5326884, -1407668,
     17143788, -6546497, -15626678, 2342977, 5616221, 636883, -232064, 12288),
)


def verify_mass_polynomial(poly: MassPolynomial, m4: float) -> float:
    """Relative residual |p(m4)| / sum_i |c_i| |m4|^i."""
    return abs(poly(m4)) / poly.scale(m4)


# ---------------------------------------------------------------------------
# bifurcation scan

class NoBifurcationError(RuntimeError):
    """The scanned range contains no root-count jump."""


def _a4_root_count(a_exp: float) -> int:
    """Sign changes of F in the convex window, the pentagon zero excluded.

    The grid mixes a uniform mesh with dyadic offsets around the pentagon so
    that a root pair splitting off the pentagon is seen as soon as it is
    farther than _PENTAGON_EPS away.
    """
    lo, hi = window_for("A", "A4", inset=_SCAN_INSET)
    p = regular_pentagon_y4()
    offs = np.geomspace(_PENTAGON_EPS, min(p - lo, hi - p) - 1e-9, 120)
    ys = np.concatenate([np.linspace(lo, hi, 3001), p - offs, p + offs])
    ys = np.sort(ys[(ys > lo) & (ys < hi)])
    signs = _grid_signs(ys, a_exp, "A")[1]
    count = 0
    for side in (ys < p - 0.5 * _PENTAGON_EPS, ys > p + 0.5 * _PENTAGON_EPS):
        s = signs[side]
        count += int(np.sum(s[:-1] * s[1:] < 0))
    return count


# How far outside the certified enclosure of A_c ``bifurcation_scan`` takes
# its float root counts.  Within about 1e-8 of A_c, F near the pentagon is
# rounding noise that the count reads as sign changes (counts of 7 and 21
# at A_c -+ 1e-8); 1e-4 away the counts are 0 and 2, as they are from 1e-6
# to 1e-2 away.
_COUNT_OFFSET = 1e-4

# sqrt(5) and log(phi), phi the golden ratio, as outward-rounded enclosures
_SQRT5 = Interval.point(5.0).sqrt()
_LOG_PHI = ((_SQRT5 + 1.0) / 2.0).log()


def _pentagon_h(a):
    """h(A) = 2(phi^A - 1) - sqrt(5) A over an Interval of exponents, or
    over a Jet2 in A, whose ``.da`` encloses h'(A): the factor of dF/dy4 at
    the regular pentagon that vanishes at A_c."""
    return 2.0 * ((a * _LOG_PHI).exp() - 1.0) - a * _SQRT5


@_to_nearest
def bifurcation_scan(a_range: tuple, tol: float = 1e-6) -> tuple:
    """Certified enclosure of the exponent A_c where the convex-window root
    count jumps 1 -> 3.

    F vanishes at the regular pentagon p for every A, and the new root pair
    splits off p where g(A) = dF/dy4(p, A) changes sign.  g has a closed
    form.  Write R = r^(-A) for a distance r, so dR/dy4 = -A R r'/r.  At p
    the distances r13, r14 and r35 all equal phi, the golden ratio, so
    R13 = R14 = R35 = t = phi^(-A), and the terms of dF/dy4 with a factor
    R13 - R14 vanish.  What is left is a polynomial in the independent
    symbols t and A whose coefficients are the areas, the distances and
    their y4-derivatives at p:

        g(A) = (5/2) sin 72deg (1 - t) ((sqrt(5)/2) A t - (1 - t)).

    The tests check this identity exactly, in the number field of
    sin 72deg.  Since (sqrt(5)/2) A t - (1 - t) = -(t/2) h(A) with
    h(A) = 2(phi^A - 1) - sqrt(5) A, and 0 < t < 1 for A > 0, g vanishes
    exactly where h does, with the opposite sign.

    Certified: interval Newton steps X <- X & N(X) (``_newton_step``),
    starting from the range, with N(X) = m - h(m) / h'(X), m the midpoint
    of X and h'(X) the ``.da`` of h's jet in A (``Jet2``) over X, on
    outward-rounded ``Interval`` arithmetic.  The first step whose N(X)
    lies inside the interior of X proves that X, and so the range, holds
    exactly one root of h; later steps narrow X around it until its width
    is at most ``tol``.  An empty X & N(X) proves that the range holds no
    root.  Float check: the root counts of F in the convex window,
    ``_COUNT_OFFSET`` below and above the enclosure and clipped to the
    range, are 0 and at least 2.

    Returns (lo, hi) with hi - lo <= tol.  Raises NoBifurcationError when a
    Newton step proves that h has no root in the range or the float counts
    do not match.  Raises ValueError when the range breaks 2 <= lo < hi <= 3.5,
    when ``tol`` is not finite or is below the float spacing at the range's
    upper end, and when Newton stops narrowing before it has proved a root
    in an enclosure no wider than ``tol``; the message names the narrowest
    width it reached.
    """
    a_lo, a_hi = float(a_range[0]), float(a_range[1])
    if not (2.0 <= a_lo < a_hi <= 3.5):
        raise ValueError(f"scan range must satisfy 2 <= lo < hi <= 3.5, got {a_range}")
    _check_resolution("tol", tol, a_hi)
    x, proved = Interval(a_lo, a_hi), False
    while not proved or x.width > tol:
        n = _newton_step(_pentagon_h, x, _pentagon_h(Jet2.variable_a(x)).da)
        proved = proved or x.lo < n.lo and n.hi < x.hi
        try:
            step = x.intersect(n)
        except IntervalDomainError as exc:
            raise NoBifurcationError(f"h = 2(phi^A - 1) - sqrt(5) A has no zero on "
                                     f"[{a_lo}, {a_hi}]: {exc}") from None
        if step.width >= x.width:
            raise ValueError(f"interval Newton stops narrowing at width {x.width:.3g}, "
                             f"before it certifies an enclosure no wider than tol = {tol:.3g}")
        x = step
    ends = (max(a_lo, x.lo - _COUNT_OFFSET), min(a_hi, x.hi + _COUNT_OFFSET))
    counts = tuple(_a4_root_count(a) for a in ends)
    if counts[0] != 0 or counts[1] < 2:
        raise NoBifurcationError(f"root counts {counts} at A = {ends[0]} and {ends[1]}, "
                                 f"around [{x.lo}, {x.hi}], not 0 and at least 2")
    return x.lo, x.hi


# ---------------------------------------------------------------------------
# sign-type exclusions

# the columns of (m1, m3, m4) whose masses a two-mass equation involves
_TWO_MASS_COLUMNS = {"L13": slice(1, 3), "L14": slice(0, 2)}


def _exclusion_coeffs(equation: str, y4, a_exp, branch: str) -> tuple:
    """The two mass coefficients of a two-mass equation, from its wedge row."""
    return _WEDGE_ROWS[equation](family_terms(y4, branch, a_exp))[_TWO_MASS_COLUMNS[equation]]


@dataclass(frozen=True)
class ExclusionCheck:
    sign_type: str
    equation: str
    claimed_sign: int
    points_checked: int
    counterexamples: tuple

    @property
    def excluded(self) -> bool:
        return len(self.counterexamples) == 0

    def to_json(self) -> dict:
        return {
            "sign_type": self.sign_type,
            "equation": self.equation,
            "claimed_sign": self.claimed_sign,
            "points_checked": self.points_checked,
            "counterexamples": [list(c) for c in self.counterexamples],
            "excluded": self.excluded,
        }


def exclude_sign_types(branch: str, a_exp: float) -> list:
    """Verify the grid sign arguments excluding the seven impossible types.

    For each excluded type the named two-mass equation must have both mass
    coefficients of the claimed strict sign at each of ``_EXCLUSION_GRID``
    interior grid points, which rules out any positive-mass kernel there;
    a coefficient that is not of that sign, NaN included, is a
    counterexample.  Each coefficient is one product, +-(1 - R) times a
    signed area, so where a power of a distance overflows it is +-inf of
    the sign it has near there.  An exponent that breaks the rule of
    ``equations.Exponent`` (finite and at least 2) raises ValueError.
    """
    a_exp = Exponent(a_exp).value
    out = []
    for label, _, claim in _SIGN_TYPES[branch]:
        if claim is None:
            continue
        equation, sign = claim
        lo, hi = window_for(branch, label)
        ys = np.linspace(lo, hi, _EXCLUSION_GRID + 2)[1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            ca, cb = _exclusion_coeffs(equation, ys, a_exp, branch)
        bad = np.nonzero(~((sign * ca > 0.0) & (sign * cb > 0.0)))[0]
        counterexamples = tuple(
            (float(ys[i]), float(ca[i]), float(cb[i])) for i in bad[:10])
        out.append(ExclusionCheck(label, equation, sign, len(ys), counterexamples))
    return out
