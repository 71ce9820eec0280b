"""Interval certification of root uniqueness and bifurcation absence.

Two certificates are produced, both by adaptive bisection over (y4, A)
boxes with the interval arithmetic from ``intervals``.  This module holds
interval code only: the float strip around the sign crossing, where the
unique-root certificate asks for a strict derivative sign, comes from
``symmetric._locate_crossing``.

- unique root: a strict sign change of F at the window ends for every
  exponent leaf, together with an interval derivative that excludes zero
  over the whole window, implies exactly one zero per exponent value.

- no common zero: every leaf box excludes zero from F or from dF/dy4, so F
  and its derivative never vanish together; root counts cannot change, and
  in particular no root pair is born inside the region.

Both go through one runner, ``_certify``: it runs the bisection, sorts
its leaves and its undecided boxes, and builds the ``Certificate``, a
frozen value, in one call.  Bisection runs breadth first, on
``intervals._bisect``.  A certificate keeps one frontier of boxes, with
the three zones of a unique-root certificate in it together, tagged by
zone, as numpy columns of box bounds.  Each pass evaluates the frontier,
together with whole levels of its candidate children and chains of y4
halves toward the window ends, by one call of the batched box evaluator
``_mv_eval`` on their bound arrays, and resolves every box whose row the
batch holds: decided boxes become leaves, the rest are halved into their
candidate rows, and the halves the batch lacks form the next pass's
frontier.  The evaluator runs one traced plan on the boxes alone, one
column a box, of two jets of F and the mean-value sums over them: the
jet in y4 at the box's float midpoint, which the plan fills itself as a
point row and of which only the value and dF/dy4 are computed, and the
second-order jet in (y4, A) over the whole box.  The mean-value form holds for any center inside the box
(R. E. Moore, R. B. Kearfott and M. J. Cloud, *Introduction to Interval
Analysis*, 2009), and the midpoint lies inside wherever lo + hi is
finite, which ``_check_request`` asks of the exponent range.  The plan
outputs the mean-value enclosures of F and dF/dy4 and the whole-box
slots, so all interval arithmetic of a pass runs in the plan; the
evaluator only picks split hints and meets the mean-value form with the
natural one.  Each zone's decider reads one quantity or both: an
F-sign zone reads F, the strip's derivative zone dF/dy4, and the
no-common-zero decider both.  ``intervals._bisect`` passes each box's
quantities to the evaluator, and the plan runs a block of boxes that all
need F alone on a second stage of F's outputs alone, and any other block
on the whole plan's, each on every box of the block (activity analysis:
A. Griewank and A. Walther, *Evaluating Derivatives*, 2008).  Both follow
the plan's one first stage, the calls that read y4 alone, which run once
per distinct y4 interval of a certificate: the certificate's evaluator
keeps their rows in one memo from pass to pass (``intervals._Y4Memo``),
so the two halves of a box split along A share them, and a pass that
finds an interval missing computes the y4 halves of its intervals too,
which the memo splits itself and the next pass's boxes take.  A box's verdict depends only on
the box, so the leaves are the ones a depth-first bisection finds.
The tangency guard of ``symmetric.isolate_roots`` runs on the same
bisection; its box evaluator is the natural form of F and dF/dy4 at the
scan's exponent, from a plan of F's jet in y4 alone
(``symmetric._natural_eval``), which computes both on every box.  The
two certificates run under round to nearest whatever the caller's mode
(``intervals._to_nearest``), so their bits do not depend on it.

Certificates never assert more than was verified: exhausting the depth
budget yields an undecided verdict carrying the offending boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .geometry import OutOfDomainError, Y4_MAX, branch_radicand
from .intervals import (Box, CertLeaf, Interval, IntervalArray, IntervalDomainError, Jet2,
                        _BoxEval, _VERDICTS, _Y4Memo, _bisect, _no_common_zero_decider,
                        _rounding, _stats, _to_nearest, _trace)
from .symmetric import F, _locate_crossing

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


# The outputs of ``_f_jets`` that F reads, those of the second stage of
# ``_f_plan`` for F alone: F's mean-value form, its natural form (the
# whole-box value) and the slopes of its split hint
_F_OUTPUTS = (0, 2, 3, 4)


@lru_cache(maxsize=None)
def _f_plan(branch: str):
    """F's jets on one branch and their mean-value sums (``_f_jets``),
    traced once into one plan over two rows, the boxes' y4 and A
    (``intervals._trace``), whose midpoints the plan fills itself.  The two
    jets' ready calls of one kind stack into one kernel call, so the
    centers add no call.  Row 0 holds y4: the calls that read it alone
    form the plan's first stage, whose rows a run takes from a y4 memo that
    computes each distinct y4 interval once (``intervals._Y4Memo``): 47
    stacked calls on branch A and 53 on B.  A block of boxes that all need
    F alone then runs the second stage of F's outputs alone
    (``_F_OUTPUTS``) on every box, 16 stacked calls on either branch, and
    any other block the whole plan's, 23."""
    return _trace(partial(_f_jets, branch=branch), 2, y4=(0,), alone=_F_OUTPUTS)


def _f_jets(y, a, branch: str) -> tuple:
    """The outputs of ``_f_plan`` on the boxes y x a: the mean-value forms
    of F and dF/dy4, then the five slots of the second-order jet in (y4, A)
    over the whole boxes.  The mean-value forms add to F and dF/dy4 of the
    jet in y4 at the box midpoints (``y.mid``, ``a.mid``) the whole-box
    jet's first and second derivatives times the boxes' offsets from those
    midpoints.  The form holds for any center inside the box, and a
    midpoint rounded to nearest lies inside it wherever lo + hi is finite
    (``_check_request``)."""
    center = F(Jet2.variable_y(y.mid), branch=branch, a_exp=Jet2(a.mid))
    whole = F(Jet2.variable_y(y), branch=branch, a_exp=Jet2.variable_a(a))
    off_y, off_a = y - y.mid, a - a.mid
    return (center.v + whole.dy * off_y + whole.da * off_a,
            center.dy + whole.dyy * off_y + whole.dya * off_a, *Jet2._parts(whole))


def _mv_eval(ylo, yhi, alo, ahi, branch: str, memo: _Y4Memo | None = None,
             need=None) -> _BoxEval:
    """Mean-value enclosures around each box midpoint, crossed with the
    natural interval form where both evaluate.

    The boxes [ylo, yhi] x [alo, ahi] arrive as float arrays and are
    evaluated together, by one run of the branch's plan (``_f_plan``) on
    the boxes alone, one column a box, which gives the mean-value forms
    and every slot of the whole-box jet.  ``need`` gives the quantities
    each box needs, as ``intervals._bisect`` passes them (F 1, dF/dy4 2;
    by default both); a block of boxes that all need F alone runs the
    second stage of F's outputs alone, and their dF/dy4 enclosures are NaN.  This
    function only picks the split hints and meets the two forms.  Where a
    quantity's mean-value form or its natural form fails, the natural form
    is used alone, with the default split hint.  A box where both forms
    fail, or where their enclosures do not meet, has NaN enclosures.  So
    has a box whose branch radicand reaches zero: the plan takes the
    radicand's square root through log, which is NaN there, and every slot
    of F depends on that root.
    """
    y, a = IntervalArray(ylo, yhi), IntervalArray(alo, ahi)
    yw, aw = y.width, a.width
    f_mv, df_mv, v, dy, da, dyy, dya = _f_plan(branch).run(y, a, memo=memo, need=need)
    # NaN in a slope of a split hint reaches that quantity's mean-value form
    mv_f, mv_df = v.valid & f_mv.valid, dy.valid & df_mv.valid
    with np.errstate(invalid="ignore", over="ignore"):
        default = np.where(yw >= aw, 0, 1)
        hint_f = np.where(mv_f, np.where(dy.mag * yw >= da.mag * aw, 0, 1), default)
        hint_df = np.where(mv_df, np.where(dyy.mag * yw >= dya.mag * aw, 0, 1), default)
    # The natural form, the whole-box value and y4-slope, decides boxes the
    # mean-value form leaves straddling zero: without it A4 no-common-zero
    # over [2, 3] needs 195 leaves instead of 194, and B2 unique-root over
    # [2, 6] 63,085 instead of 1985.  A separate first-order pass over the
    # same boxes gave a narrower dF when it was measured: on the 1,778
    # evaluable oracle boxes of the tests the met dF was wider than with it
    # on 290 boxes, by up to 23 %, F only by rounding, and the three
    # acceptance certificates had the same leaves either way.
    return _BoxEval(_combine(f_mv, v, mv_f), _combine(df_mv, dy, mv_df), hint_f, hint_df)


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
    if not (ev.f.valid[0] and ev.df.valid[0]):
        raise IntervalDomainError(f"no evaluable form on {box.key()}")
    return (Interval(ev.f.lo[0], ev.f.hi[0]), Interval(ev.df.lo[0], ev.df.hi[0]))


@dataclass(frozen=True)
class Certificate:
    """Outcome of an adaptive-bisection certification run, a frozen value.

    ``_certify`` builds it in one call from one bisection, with its leaves
    and its undecided boxes each sorted by (y4 lo, A lo, y4 hi, A hi).
    """

    kind: str
    branch: str
    window: tuple
    a_range: tuple
    certified: bool
    leaves: list = field(default_factory=list)
    undecided: list = field(default_factory=list)
    detail: str = ""
    stats: dict = field(default_factory=_stats)

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
    is not 2 <= lo <= hi, where F is not defined, or has an infinite end,
    which no split can shrink, or whose lo + hi overflows, so that its
    midpoint, the center of the mean-value form, lies outside it, and a
    negative depth cap, which would leave every seed box undecided."""
    lo, hi = window
    if not 0.0 <= lo <= hi <= Y4_MAX:
        raise OutOfDomainError(f"window {tuple(window)} is not inside the branch domain "
                               f"[0, {Y4_MAX!r}]")
    if not (2.0 <= a_range[0] <= a_range[1] and np.isfinite(sum(map(float, a_range)))):
        raise ValueError(f"exponent range {tuple(a_range)} must satisfy 2 <= lo <= hi "
                         "with lo + hi finite")
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")


def _sign_decider(quantity: str, sign: int):
    """Decide boxes on which F (or dF/dy4) has the given strict sign.  The
    decider reads that quantity alone (``reads``, its verdict code, the bit
    ``intervals._bisect`` passes to the evaluator)."""
    code = _VERDICTS.index(quantity)

    def decide(ev: _BoxEval) -> tuple:
        enc, hint = (ev.f, ev.hint_f) if quantity == "F" else (ev.df, ev.hint_df)
        ok = enc.hi < 0.0 if sign < 0 else enc.lo > 0.0
        return np.where(ok, code, 0), hint, enc.contains_zero()
    decide.reads = code
    return decide


def _certify(kind: str, branch: str, window: tuple, a_range: tuple, zones: list,
             max_depth: int, done: str, missing: str) -> Certificate:
    """Bisect the zones (``intervals._bisect``) on the branch's box
    evaluator ``_mv_eval`` and build the certificate, which is certified
    when no box is left undecided.  Its detail is ``done`` then, and else
    ``missing`` with ``{n}`` replaced by the count of undecided boxes.
    Its stats name the rounding path the interval kernels ran
    (``intervals._rounding``).  The evaluator keeps one y4 memo
    (``intervals._Y4Memo``) for the whole bisection, and the stats count
    its stage-1 runs and the y4 columns they computed."""
    memo = _Y4Memo()
    leaves, undecided, stats = _bisect(zones, partial(_mv_eval, branch=branch, memo=memo),
                                       max_depth)
    stats.update(rounding=_rounding(), stage1_runs=memo.runs, stage1_columns=memo.columns)
    order = partial(sorted, key=lambda l: (l.y4[0], l.a[0], l.y4[1], l.a[1]))
    return Certificate(kind, branch, tuple(window), tuple(a_range), not undecided,
                       order(leaves), order(undecided),
                       missing.format(n=len(undecided)) if undecided else done, stats)


@_to_nearest
def certify_unique_root(window: tuple, a_range: tuple, branch: str = "A",
                        max_depth: int = 60) -> Certificate:
    """Certify that F has exactly one simple zero in the window per exponent.

    The window splits into three zones around a floating-point bracket of
    the crossing: F keeps a strict sign on the outer zones (no roots
    there), and on the middle strip the interval derivative excludes zero
    while F changes sign across it, so each exponent admits exactly one
    root.  The bracket is a heuristic only; every zone claim is verified
    with rigorous enclosures.  When F has no sign at the window's lower
    end, no sign crossing was sampled, or the bracket reaches a window end,
    nothing is bisected and the certificate is not certified; the detail
    names a bracket that reaches a window end, and, when there is no
    bracket or no sign at the lower end, the count of float grid nodes
    where F is not finite, if there are any.  A window outside
    [0, Y4_MAX] raises OutOfDomainError, and an exponent range that is not
    finite with 2 <= lo <= hi, or whose lo + hi overflows, or a negative
    ``max_depth`` ValueError.
    """
    _check_request(window, a_range, max_depth)
    c1, c2, lo_sign, unsigned = _locate_crossing(window, a_range, branch)
    detail = ""
    if lo_sign == 0 or c1 is None:
        detail = (f"F is not finite at {unsigned} nodes of the float strip's grid, "
                  "which have no sign, so no sign crossing could be placed to isolate"
                  if unsigned else "no interior sign crossing found to isolate")
    elif not window[0] < c1 < c2 < window[1]:
        ends = [end for end, at in (("lower", c1 <= window[0]), ("upper", c2 >= window[1])) if at]
        detail = (f"the float strip [{c1:.9g}, {c2:.9g}] around the sampled sign crossing "
                  f"reaches the window's {' and '.join(ends)} end")
    if detail:
        return Certificate("unique_root", branch, tuple(window), tuple(a_range), False,
                           detail=detail)
    want = -lo_sign
    zones = [(_sign_decider(quantity, sign), [(lo, hi, a_range[0], a_range[1])])
             for lo, hi, quantity, sign in ((window[0], c1, "F", lo_sign),
                                            (c1, c2, "dF", want),
                                            (c2, window[1], "F", -lo_sign))]
    return _certify(
        "unique_root", branch, window, a_range, zones, max_depth,
        f"F sign {lo_sign:+d} on [{window[0]:.9g}, {c1:.9g}], strict "
        f"derivative sign {want:+d} on [{c1:.9g}, {c2:.9g}], F sign "
        f"{-lo_sign:+d} on [{c2:.9g}, {window[1]:.9g}]",
        "a zone could not be resolved at the depth cap")


@_to_nearest
def certify_no_common_zero(region: Box, branch: str = "A",
                           max_depth: int = 60) -> Certificate:
    """Certify that F and dF/dy4 have no common zero on a region.

    Each leaf box must exclude zero from the F enclosure or from the dF
    enclosure.  Exhausted depth yields an undecided certificate listing the
    boxes where both enclosures still straddle zero.  A y4 range outside
    [0, Y4_MAX] raises OutOfDomainError, and an exponent range that is not
    finite with 2 <= lo <= hi, or whose lo + hi overflows, or a negative
    ``max_depth`` ValueError.
    """
    window, a_range = (region.y4.lo, region.y4.hi), (region.a.lo, region.a.hi)
    _check_request(window, a_range, max_depth)
    return _certify("no_common_zero", branch, window, a_range,
                    [(_no_common_zero_decider, [region.key()])], max_depth,
                    "every leaf excludes zero from F or dF/dy4", "{n} undecided boxes remain")
