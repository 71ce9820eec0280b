"""Analysis of the mirror-symmetric equilateral family.

The admissibility of masses on the symmetric family reduces to the vanishing
of a 2x2 minor F of the mass-coefficient matrix.  This module evaluates F
generically (floats, arrays, duals, jets, intervals), isolates its roots per
sign-type window, recovers masses at each root, checks them against the two
exact mass polynomials, scans for the root-count bifurcation in A, and
verifies the grid sign arguments that exclude seven of the ten sign types.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import (
    OutOfDomainError,
    SymmetricShape,
    SignType,
    Y4_MAX,
    branch_radicand,
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
    MassVector,
    laura_andoyer,
    mass_coefficient_matrix,
    mass_kernel,
)
from .intervals import (Dual, Interval, IntervalArray, _BoxEval, _bisect,
                        _no_common_zero_decider)

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
    Accepts floats, numpy arrays, Intervals, Dual seeds and Jet2 jets for y4,
    and a float, Interval or Jet2 exponent.
    """
    g = family_terms(y4, branch, a_exp)
    return ((1.0 - g["R14"]) * (g["R35"] - 1.0) * g["d124"] * g["d345"]
            + (1.0 - g["R13"]) * g["d134"]
            * ((g["R13"] - g["R14"]) * g["d134"] + (1.0 - g["R14"]) * g["d145"]))


def F_dual(y4, a_exp, branch: str = "A") -> Dual:
    """F and dF/dy4 together; works with Interval or IntervalArray components."""
    one = type(y4).point(1.0) if isinstance(y4, (Interval, IntervalArray)) else 1.0
    return F(Dual(y4, one), a_exp, branch)


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
    """Kernel masses and wedge-residual norm at a candidate root."""
    shape = SymmetricShape(y4, branch)
    kern = mass_kernel(mass_coefficient_matrix(shape, a_exp))
    if kern.masses is None:
        return None, False, math.inf
    config = symmetric_coords(shape)
    rep = laura_andoyer(config, kern.masses, a_exp)
    return kern.masses, kern.positive, rep.max_abs


def _interval_simple(enclosure: tuple, branch: str, a_exp: float) -> bool:
    """True when the interval derivative excludes zero over the enclosure."""
    try:
        dual = F_dual(Interval(enclosure[0], enclosure[1]), a_exp, branch)
    except (ArithmeticError, OutOfDomainError):
        return False
    return not dual.dot.contains_zero()


def _interval_sign_change(enclosure: tuple, branch: str, a_exp: float) -> bool:
    """Rigorous check that F has opposite strict signs at the enclosure ends."""
    try:
        fa = F(Interval.around(enclosure[0]), a_exp, branch)
        fb = F(Interval.around(enclosure[1]), a_exp, branch)
    except (ArithmeticError, OutOfDomainError):
        return False
    return ((fa.strictly_positive() and fb.strictly_negative())
            or (fa.strictly_negative() and fb.strictly_positive()))


def _make_record(enclosure: tuple, branch: str, a_exp: float,
                 certified: bool, resolved: bool = True) -> RootRecord:
    mid = 0.5 * (enclosure[0] + enclosure[1])
    masses, positive, resid = recover_masses(mid, branch, a_exp)
    return RootRecord(
        enclosure=enclosure, branch=branch,
        sign_type=classify_sign_type(SymmetricShape(mid, branch)),
        a_exp=a_exp, masses=masses, positive_masses=positive,
        residual_max=resid,
        simple=resolved and _interval_simple(enclosure, branch, a_exp),
        sign_change_certified=certified, resolved=resolved)


def isolate_roots(branch: str, a_exp: float, window: tuple, tol: float = 1e-12) -> list:
    """Disjoint sign-change enclosures of the zeros of F inside a window.

    Roots are bracketed on a uniform grid of ``_ROOT_GRID`` cells, refined
    by bisection to width at most ``tol``, then certified by a thin-interval
    sign change at the enclosure ends plus an interval-derivative simplicity
    check.  Grid cells without a sign change that may hide an even-order
    zero go to the certifier's breadth-first bisection, ``intervals._bisect``,
    which clears the subcells where the interval F or dF/dy4 excludes zero;
    the rest are reported as unresolved records instead of being guessed at.
    One INFO line per call on this module's logger gives the guard's seeds,
    its boxes per depth, its passes, its unresolved cells and its wall time.
    Raises ValueError when ``tol`` is not finite or is below the float
    spacing at the window's upper end, where the bisection could not advance.
    """
    lo, hi = window
    if not (0.0 <= lo < hi <= Y4_MAX):
        raise OutOfDomainError(f"window {window} is not inside the branch domain")
    _check_resolution("tol", tol, hi)
    ys = np.linspace(lo, hi, _ROOT_GRID + 1)
    vals = np.asarray(F(ys, a_exp, branch), dtype=float)
    signs = np.sign(vals)
    f = partial(F, a_exp=a_exp, branch=branch)

    def bracketed(i, j):  # the root between grid nodes i and j, refined
        enclosure = _refine(f, float(ys[i]), float(vals[i]), float(ys[j]), tol)
        return _make_record(enclosure, branch, a_exp,
                            certified=_interval_sign_change(enclosure, branch, a_exp))

    records = [bracketed(i, i + 1) for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]]
    # exact zeros landing on grid nodes
    for i in np.nonzero(signs == 0)[0]:
        if 0 < i < _ROOT_GRID and signs[i - 1] * signs[i + 1] < 0:
            records.append(bracketed(i - 1, i + 1))
        else:
            j0, j1 = max(i - 1, 0), min(i + 1, _ROOT_GRID)
            records.append(_make_record((float(ys[j0]), float(ys[j1])), branch,
                                        a_exp, certified=False, resolved=False))

    # tangency guard: same-sign cells that may hide an even-order zero are
    # screened cheaply, then refined by bisection down to depth 24 or width
    # 1e-15; only cells where F and dF still both straddle zero are reported
    start = time.perf_counter()
    seeds = _tangency_seeds(ys, vals, a_exp)
    _, undecided, stats = _bisect([(_no_common_zero_decider, seeds)],
                                  partial(_natural_eval, branch=branch, a_exp=a_exp), 24, 1e-15)
    cells = _merge_intervals([leaf.y4 for leaf in undecided])
    log.info("tangency guard on y4 [%r, %r] at A=%r: seeds %d, boxes per depth %s, "
             "passes %d, unresolved cells %d, %.3f s", float(lo), float(hi), a_exp, len(seeds),
             stats["evals_per_depth"], stats["passes"], len(cells),
             time.perf_counter() - start)
    for cell in cells:
        records.append(_make_record(cell, branch, a_exp,
                                    certified=False, resolved=False))
    records.sort(key=lambda r: r.enclosure[0])
    return records


def _tangency_seeds(ys, vals, a_exp: float) -> list:
    """Same-sign grid cells close enough to zero to hide an even-order zero
    of F, as (y4 lo, y4 hi, A, A) boxes."""
    signs = np.sign(vals)
    steps = np.abs(np.diff(vals))
    near = np.minimum(np.abs(vals[:-1]), np.abs(vals[1:])) < 8.0 * (steps + 1e-300)
    return [(float(ys[i]), float(ys[i + 1]), a_exp, a_exp)
            for i in np.flatnonzero(near & (signs[:-1] * signs[1:] > 0)).tolist()]


def _natural_eval(ylo, yhi, alo, ahi, branch: str, a_exp: float) -> _BoxEval:
    """The natural Dual form of F and dF/dy4 over y4 intervals at one exponent.

    The exponent columns of the boxes are ignored: ``a_exp`` enters as a
    float, because an interval exponent would send integer powers through
    exp and log and widen the enclosures.  A box is ``ok`` where both
    enclosures evaluate; the radicand is clipped at zero, as in
    ``Interval.sqrt``, so a box reaching past the domain still encloses F
    on its part inside.  Every split hint is y4.
    """
    y = IntervalArray(ylo, yhi)
    dual = F_dual(y, a_exp, branch)
    ok = dual.val.valid & dual.dot.valid
    hint = np.zeros(ok.size, dtype=int)
    return _BoxEval(dual.val, dual.dot, hint, hint, branch_radicand(y).lo >= 0.0, ok)


def _merge_intervals(cells: list) -> list:
    merged: list = []
    for lo, hi in sorted(cells):
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def scan_branch(branch: str, a_exp: float, tol: float = 1e-12) -> list:
    """Roots of F over the allowed sign-type windows of a branch, each
    inset by ``_SCAN_INSET``; ``tol`` is checked as in ``isolate_roots``."""
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
    vals = F(ys, a_exp, "A")
    count = 0
    for side in (ys < p - 0.5 * _PENTAGON_EPS, ys > p + 0.5 * _PENTAGON_EPS):
        s = np.sign(vals[side])
        count += int(np.sum(s[:-1] * s[1:] < 0))
    return count


def bifurcation_scan(a_range: tuple, step: float = 0.05, tol: float = 1e-6) -> tuple:
    """Bracket the exponent where the convex-window root count jumps 1 -> 3.

    Returns (lo, hi) with hi - lo <= tol.  Raises NoBifurcationError when the
    extra root pair never appears inside the range, and ValueError when
    ``step`` or ``tol`` is not finite or is below the float spacing at the
    range's upper end, where the grid or the bisection could not advance.
    """
    a_lo, a_hi = float(a_range[0]), float(a_range[1])
    if not (2.0 <= a_lo < a_hi <= 3.5):
        raise ValueError(f"scan range must sit inside [2, 3.5], got {a_range}")
    for name, value in (("step", step), ("tol", tol)):
        _check_resolution(name, value, a_hi)
    # walk the grid a_lo, a_lo + step, ..., a_hi up to the first jump
    lo, c_lo = a_lo, _a4_root_count(a_lo)
    counts = {c_lo}
    while True:
        if lo >= a_hi:
            raise NoBifurcationError(
                f"no root-count jump inside [{a_lo}, {a_hi}] (counts {sorted(counts)})")
        hi = min(lo + step, a_hi)
        c_hi = _a4_root_count(hi)
        if c_lo == 0 and c_hi >= 2:
            break
        counts.add(c_hi)
        lo, c_lo = hi, c_hi
    # the count is 0 at lo and nonzero at hi: bisect that sign change
    return _refine(lambda a: 1.0 if _a4_root_count(a) else -1.0, lo, -1.0, hi, tol)


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
    interior grid points, which rules out any positive-mass kernel there.
    """
    out = []
    for label, _, claim in _SIGN_TYPES[branch]:
        if claim is None:
            continue
        equation, sign = claim
        lo, hi = window_for(branch, label)
        ys = np.linspace(lo, hi, _EXCLUSION_GRID + 2)[1:-1]
        ca, cb = _exclusion_coeffs(equation, ys, a_exp, branch)
        bad = np.nonzero((sign * ca <= 0.0) | (sign * cb <= 0.0))[0]
        counterexamples = tuple(
            (float(ys[i]), float(ca[i]), float(cb[i])) for i in bad[:10])
        out.append(ExclusionCheck(label, equation, sign, len(ys), counterexamples))
    return out
