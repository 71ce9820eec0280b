"""Interval certification of root uniqueness and bifurcation absence.

Two certificates are produced, both by adaptive bisection over (y4, A)
boxes with the interval arithmetic from ``intervals``:

- unique root: a strict sign change of F at the window ends for every
  exponent leaf, together with an interval derivative that excludes zero
  over the whole window, implies exactly one zero per exponent value.

- no common zero: every leaf box excludes zero from F or from dF/dy4, so F
  and its derivative never vanish together; root counts cannot change, and
  in particular no root pair is born inside the region.

Bisection runs breadth first, on ``intervals._bisect``.  A certificate
keeps one frontier of boxes, with the three zones of a unique-root
certificate in it together, tagged by zone, as numpy columns of box
bounds.  Each pass evaluates the frontier, together with whole levels of
its candidate children, by one call of the batched box kernel ``_mv_eval``
on ``IntervalArray`` operands, and resolves every depth the batch covers:
decided boxes become leaves, the rest are halved into their candidate
rows, and the boxes left open at the last level form the next pass's
frontier.  A box's verdict depends only on the box, so the leaves are the
ones a depth-first bisection finds.  The tangency guard of ``symmetric.isolate_roots`` runs
on the same bisection, with the natural Dual form at the scan's exponent
as its box evaluator.

Certificates never assert more than was verified: exhausting the depth
budget yields an undecided verdict carrying the offending boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .geometry import OutOfDomainError, Y4_MAX, branch_radicand
from .intervals import (Box, CertLeaf, Interval, IntervalArray, IntervalDomainError, Jet2,
                        _BoxEval, _VERDICTS, _bisect, _no_common_zero_decider, _stats, _trace)
from .symmetric import F

__all__ = [
    "CertLeaf",
    "Certificate",
    "eval_F_interval",
    "certify_unique_root",
    "certify_no_common_zero",
]


def _combine(mv_enc: IntervalArray, nat_enc: IntervalArray, mv) -> IntervalArray:
    """The meet of the two forms where the mean-value form evaluates (it
    needs the natural form's components), else the natural form alone.
    Elements where that fails, or the two do not meet, are invalid."""
    both = mv_enc.intersect(nat_enc)
    return IntervalArray(np.where(mv, both.lo, nat_enc.lo), np.where(mv, both.hi, nat_enc.hi))


def _join(p: IntervalArray, q: IntervalArray) -> IntervalArray:
    return IntervalArray(np.concatenate([p.lo, q.lo]), np.concatenate([p.hi, q.hi]))


@lru_cache(maxsize=None)
def _f_plan(branch: str):
    """F's second-order jet in (y4, A) on one branch, traced once into one
    plan over the y4 and A rows (``intervals._trace``)."""
    return _trace(lambda y, a: Jet2._parts(F(Jet2.variable_y(y), branch=branch,
                                             a_exp=Jet2.variable_a(a))), 2)


def _mv_eval(ylo, yhi, alo, ahi, branch: str) -> _BoxEval:
    """Mean-value enclosures around each box center, crossed with the
    natural interval form where both evaluate.

    The boxes [ylo, yhi] x [alo, ahi] arrive as float arrays and are
    evaluated together, by one run of the branch's plan of F's jet
    (``_f_plan``) over the box centers and the whole boxes.  Where the
    mean-value form fails the natural form is used alone, with the default
    split hint; a box where the branch radicand dips below zero, where both
    forms fail, or where their enclosures do not meet, is not ``ok``.
    """
    y, a = IntervalArray(ylo, yhi), IntervalArray(alo, ahi)
    in_domain = branch_radicand(y).lo >= 0.0
    yw, aw = y.width, a.width
    my, ma = y.mid, a.mid
    # one run over the box centers and the whole boxes together
    slots = _f_plan(branch).run(_join(IntervalArray.around(my), y),
                                _join(IntervalArray.around(ma), a))
    n = y.lo.size
    center, wide = Jet2(*(c[:n] for c in slots)), Jet2(*(c[n:] for c in slots))
    off_y, off_a = y - my, a - ma
    f_mv = center.v + wide.dy * off_y + wide.da * off_a
    df_mv = center.dy + wide.dyy * off_y + wide.dya * off_a
    # a scalar jet pass fails as a whole when any component fails
    valid = np.logical_and.reduce([c.valid for c in slots])
    mv = valid[:n] & valid[n:] & f_mv.valid & df_mv.valid
    with np.errstate(invalid="ignore", over="ignore"):
        default = np.where(yw >= aw, 0, 1)
        hint_f = np.where(mv, np.where(wide.dy.mag * yw >= wide.da.mag * aw, 0, 1), default)
        hint_df = np.where(mv, np.where(wide.dyy.mag * yw >= wide.dya.mag * aw, 0, 1),
                           default)
    # The natural form, the whole-box value (wide.v, wide.dy), decides boxes
    # the mean-value form leaves straddling zero: without it A4
    # no-common-zero over [2, 3] needs 195 leaves instead of 194, and B2
    # unique-root over [2, 6] 63,085 instead of 1985.  A second, Dual pass
    # over the same boxes would give a narrower dF: on the 1,778 evaluable
    # oracle boxes of the tests the met dF is wider than with it on 290
    # boxes, by up to 23 %, F only by rounding, and the three acceptance
    # certificates have the same leaves either way.
    f = _combine(f_mv, wide.v, mv)
    df = _combine(df_mv, wide.dy, mv)
    return _BoxEval(f, df, hint_f, hint_df, in_domain & f.valid & df.valid)


def eval_F_interval(box: Box, branch: str) -> tuple:
    """Enclosures of F and dF/dy4 over a (y4, A) box.

    Uses the two-variable mean-value form seeded by a second-order jet,
    intersected with the natural interval form, so enclosure widths shrink
    linearly with the box.  Raises OutOfDomainError when the branch
    radicand can dip below zero on the box, and IntervalDomainError when no
    form can be evaluated (for example a distance interval touching zero).
    """
    if branch_radicand(box.y4).lo < 0.0:
        raise OutOfDomainError(
            f"radicand interval {branch_radicand(box.y4)} dips below zero on {box.y4}")
    ev = _mv_eval(*([x] for x in box.key()), branch)
    if not ev.ok[0]:
        raise IntervalDomainError(f"no evaluable form on {box.key()}")
    return (Interval(ev.f.lo[0], ev.f.hi[0]), Interval(ev.df.lo[0], ev.df.hi[0]))


@dataclass
class Certificate:
    """Outcome of an adaptive-bisection certification run."""

    kind: str
    branch: str
    window: tuple
    a_range: tuple
    certified: bool
    leaves: list = field(default_factory=list)
    undecided: list = field(default_factory=list)
    detail: str = ""
    stats: dict = field(default_factory=_stats)

    def finalize(self) -> "Certificate":
        self.leaves.sort(key=lambda l: (l.y4[0], l.a[0], l.y4[1], l.a[1]))
        self.undecided.sort(key=lambda l: (l.y4[0], l.a[0], l.y4[1], l.a[1]))
        return self

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "branch": self.branch,
            "window": list(self.window),
            "A_range": list(self.a_range),
            "certified": self.certified,
            "detail": self.detail,
            "leaves": [l.to_json() for l in self.leaves],
            "undecided": [l.to_json() for l in self.undecided],
            "stats": self.stats,
        }


def _check_request(window: tuple, a_range: tuple, max_depth: int) -> None:
    """Refuse a y4 window outside the branch domain [0, Y4_MAX], as
    ``symmetric.isolate_roots`` does (its boxes could never be decided, so
    bisection would split them to the depth cap), an exponent range that
    is not 2 <= lo <= hi, where F is not defined, and a negative depth cap,
    which would leave every seed box undecided."""
    lo, hi = window
    if not 0.0 <= lo <= hi <= Y4_MAX:
        raise OutOfDomainError(f"window {tuple(window)} is not inside the branch domain "
                               f"[0, {Y4_MAX!r}]")
    if not 2.0 <= a_range[0] <= a_range[1]:
        raise ValueError(f"exponent range {tuple(a_range)} must satisfy 2 <= lo <= hi")
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")


def _sign_decider(quantity: str, sign: int):
    """Decide boxes on which F (or dF/dy4) has the given strict sign."""
    code = _VERDICTS.index(quantity)

    def decide(ev: _BoxEval) -> tuple:
        enc, hint = (ev.f, ev.hint_f) if quantity == "F" else (ev.df, ev.hint_df)
        ok = enc.hi < 0.0 if sign < 0 else enc.lo > 0.0
        return np.where(ok, code, 0), hint, enc.contains_zero()
    return decide


def _locate_crossing(window: tuple, a_range: tuple, branch: str) -> tuple:
    """Floating-point bracket of the sign crossing across sampled exponents.

    Returns (c1, c2, lo_sign): a strip containing every sampled root, plus
    the sign of F at the window's lower end and the least exponent, 0 when
    F is 0 or NaN there.  Soundness never depends on this estimate; a bad
    strip only makes certification fail, not lie.
    """
    lo, hi = window
    roots = []
    lo_sign = None
    for a_exp in np.linspace(a_range[0], a_range[1], 9):
        ys = np.linspace(lo, hi, 2049)
        vals = np.asarray(F(ys, float(a_exp), branch))
        if lo_sign is None:
            lo_sign = int(vals[0] > 0) - int(vals[0] < 0)
        signs = np.sign(vals)
        idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        roots.extend(float(ys[i]) for i in idx)
        roots.extend(float(ys[i + 1]) for i in idx)
    if not roots:
        return lo, hi, lo_sign
    margin = 0.08 * (hi - lo)
    c1 = max(lo, min(roots) - margin)
    c2 = min(hi, max(roots) + margin)
    return c1, c2, lo_sign


def certify_unique_root(window: tuple, a_range: tuple, branch: str = "A",
                        max_depth: int = 60) -> Certificate:
    """Certify that F has exactly one simple zero in the window per exponent.

    The window splits into three zones around a floating-point bracket of
    the crossing: F keeps a strict sign on the outer zones (no roots
    there), and on the middle strip the interval derivative excludes zero
    while F changes sign across it, so each exponent admits exactly one
    root.  The bracket is a heuristic only; every zone claim is verified
    with rigorous enclosures.  A window outside [0, Y4_MAX] raises
    OutOfDomainError, and an exponent range that is not 2 <= lo <= hi or a
    negative ``max_depth`` ValueError.
    """
    _check_request(window, a_range, max_depth)
    cert = Certificate(kind="unique_root", branch=branch,
                       window=tuple(window), a_range=tuple(a_range),
                       certified=False)
    c1, c2, lo_sign = _locate_crossing(window, a_range, branch)
    if lo_sign == 0 or not window[0] < c1 < c2 < window[1]:
        cert.detail = "no interior sign crossing found to isolate"
        return cert.finalize()
    want = -lo_sign

    zones = [(_sign_decider(quantity, sign), [(lo, hi, a_range[0], a_range[1])])
             for lo, hi, quantity, sign in ((window[0], c1, "F", lo_sign),
                                            (c1, c2, "dF", want),
                                            (c2, window[1], "F", -lo_sign))]
    cert.leaves, cert.undecided, cert.stats = _bisect(
        zones, partial(_mv_eval, branch=branch), max_depth, 0.0)
    cert.certified = not cert.undecided
    cert.detail = (
        f"F sign {lo_sign:+d} on [{window[0]:.9g}, {c1:.9g}], strict "
        f"derivative sign {want:+d} on [{c1:.9g}, {c2:.9g}], F sign "
        f"{-lo_sign:+d} on [{c2:.9g}, {window[1]:.9g}]" if cert.certified
        else "a zone could not be resolved at the depth cap")
    return cert.finalize()


def certify_no_common_zero(region: Box, branch: str = "A",
                           max_depth: int = 60) -> Certificate:
    """Certify that F and dF/dy4 have no common zero on a region.

    Each leaf box must exclude zero from the F enclosure or from the dF
    enclosure.  Exhausted depth yields an undecided certificate listing the
    boxes where both enclosures still straddle zero.  A y4 range outside
    [0, Y4_MAX] raises OutOfDomainError, and an exponent range that is not
    2 <= lo <= hi or a negative ``max_depth`` ValueError.
    """
    _check_request((region.y4.lo, region.y4.hi), (region.a.lo, region.a.hi), max_depth)
    cert = Certificate(kind="no_common_zero", branch=branch,
                       window=(region.y4.lo, region.y4.hi),
                       a_range=(region.a.lo, region.a.hi),
                       certified=False)
    cert.leaves, cert.undecided, cert.stats = _bisect(
        [(_no_common_zero_decider, [region.key()])], partial(_mv_eval, branch=branch),
        max_depth, 0.0)
    cert.certified = not cert.undecided
    cert.detail = ("every leaf excludes zero from F or dF/dy4" if cert.certified
                   else f"{len(cert.undecided)} undecided boxes remain")
    return cert.finalize()
