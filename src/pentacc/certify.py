"""Interval certification of root uniqueness and bifurcation absence.

Two certificates are produced, both by adaptive bisection over (y4, A)
boxes with the interval arithmetic from ``intervals``:

- unique root: a strict sign change of F at the window ends for every
  exponent leaf, together with an interval derivative that excludes zero
  over the whole window, implies exactly one zero per exponent value.

- no common zero: every leaf box excludes zero from F or from dF/dy4, so F
  and its derivative never vanish together; root counts cannot change, and
  in particular no root pair is born inside the region.

Bisection runs breadth first.  A certificate keeps one frontier of boxes,
with the three zones of a unique-root certificate in it together, tagged
by zone, as numpy columns of box bounds.  Each depth's frontier is
evaluated by one call of the batched box kernel ``_mv_eval`` on
``IntervalArray`` operands; decided boxes become leaves and the rest are
halved into the next depth's frontier.  A box's verdict depends only on
the box, so the leaves are the ones a depth-first bisection finds.

Certificates never assert more than was verified: exhausting the depth
budget yields an undecided verdict carrying the offending boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import OutOfDomainError, branch_radicand
from .intervals import Box, Interval, IntervalArray, IntervalDomainError, Jet2
from .symmetric import F, F_dual

__all__ = [
    "CertLeaf",
    "Certificate",
    "eval_F_interval",
    "certify_unique_root",
    "certify_no_common_zero",
]


@dataclass(frozen=True)
class _BoxEval:
    """Enclosures of F and dF over a batch of boxes, with per-quantity split hints."""

    f: IntervalArray
    df: IntervalArray
    hint_f: np.ndarray     # coordinate whose error term dominates the F enclosure
    hint_df: np.ndarray    # same for the dF enclosure
    in_domain: np.ndarray  # the branch radicand stays nonnegative on the box
    ok: np.ndarray         # in domain, and f and df are enclosed


def _combine(mv_enc: IntervalArray, nat_enc: IntervalArray, mv, nat) -> IntervalArray:
    """The meet of the two forms where both evaluate, else the one that does.

    Elements where neither evaluates, or the two enclosures do not meet,
    are invalid.
    """
    both = mv_enc.intersect(nat_enc)
    lo = np.where(mv, np.where(nat, both.lo, mv_enc.lo), np.where(nat, nat_enc.lo, np.nan))
    hi = np.where(mv, np.where(nat, both.hi, mv_enc.hi), np.where(nat, nat_enc.hi, np.nan))
    return IntervalArray(lo, hi)


def _join(p: IntervalArray, q: IntervalArray) -> IntervalArray:
    return IntervalArray(np.concatenate([p.lo, q.lo]), np.concatenate([p.hi, q.hi]))


def _all_valid(*parts) -> np.ndarray:
    return np.logical_and.reduce([p.valid for p in parts])


def _mv_eval(ylo, yhi, alo, ahi, branch: str) -> _BoxEval:
    """Mean-value enclosures around each box center, crossed with the
    natural interval form where both evaluate.

    The boxes [ylo, yhi] x [alo, ahi] arrive as float arrays and are
    evaluated together.  Where the mean-value form fails the natural form
    is used alone, with the default split hint; a box where both forms fail,
    or where their enclosures do not meet, is not ``ok``.
    """
    y, a = IntervalArray(ylo, yhi), IntervalArray(alo, ahi)
    in_domain = branch_radicand(y).lo >= 0.0
    yw, aw = y.width, a.width
    my, ma = y.mid, a.mid
    # one jet pass over the box centers and the whole boxes together
    jets = F(Jet2.variable_y(_join(IntervalArray.around(my), y)), branch=branch,
             a_exp=Jet2.variable_a(_join(IntervalArray.around(ma), a)))
    n = y.lo.size
    parts = (jets.v, jets.dy, jets.da, jets.dyy, jets.dya)
    center = Jet2(*(c[:n] for c in parts))
    wide = Jet2(*(c[n:] for c in parts))
    off_y, off_a = y - my, a - ma
    f_mv = center.v + wide.dy * off_y + wide.da * off_a
    df_mv = center.dy + wide.dyy * off_y + wide.dya * off_a
    # a scalar jet pass fails as a whole when any component fails
    mv = _all_valid(center.v, center.dy, center.da, center.dyy, center.dya,
                    wide.v, wide.dy, wide.da, wide.dyy, wide.dya, f_mv, df_mv)
    with np.errstate(invalid="ignore", over="ignore"):
        default = np.where(yw >= aw, 0, 1)
        hint_f = np.where(mv, np.where(wide.dy.mag * yw >= wide.da.mag * aw, 0, 1), default)
        hint_df = np.where(mv, np.where(wide.dyy.mag * yw >= wide.dya.mag * aw, 0, 1),
                           default)
    # The natural Dual form is kept beside the Jet2 mean-value form because
    # it decides boxes the mean-value form leaves straddling zero.  Without
    # it the A4 no-common-zero certificate over [2, 3] needs 195 leaves
    # instead of 194, and B2 unique-root over [2, 6] needs 63,085 instead of
    # 1985, at about 30 times the run time.
    dual = F_dual(y, a, branch)
    nat = _all_valid(dual.val, dual.dot)
    f = _combine(f_mv, dual.val, mv, nat)
    df = _combine(df_mv, dual.dot, mv, nat)
    return _BoxEval(f, df, hint_f, hint_df, in_domain, in_domain & f.valid & df.valid)


def eval_F_interval(box: Box, branch: str) -> tuple:
    """Enclosures of F and dF/dy4 over a (y4, A) box.

    Uses the two-variable mean-value form seeded by a second-order jet,
    intersected with the natural interval form, so enclosure widths shrink
    linearly with the box.  Raises OutOfDomainError when the branch
    radicand can dip below zero on the box, and IntervalDomainError when no
    form can be evaluated (for example a distance interval touching zero).
    """
    ev = _mv_eval(*([x] for x in box.key()), branch)
    if not ev.in_domain[0]:
        raise OutOfDomainError(
            f"radicand interval {branch_radicand(box.y4)} dips below zero on {box.y4}")
    if not ev.ok[0]:
        raise IntervalDomainError(f"no evaluable form on {box.key()}")
    return (Interval(ev.f.lo[0], ev.f.hi[0]), Interval(ev.df.lo[0], ev.df.hi[0]))


@dataclass(frozen=True)
class CertLeaf:
    """One verified (or undecided) box of a certificate."""

    y4: tuple
    a: tuple
    verdict: str  # "F", "dF", or "undecided"

    def to_json(self) -> dict:
        return {"y4": list(self.y4), "A": list(self.a), "verdict": self.verdict}


def _stats(evals_per_depth=(), undecided_domain=0, undecided_straddle=0) -> dict:
    """How a certificate was reached: boxes evaluated at each bisection depth
    (the root is depth 0), and two kinds of undecided box: those not
    evaluable (out of the branch domain or no enclosure) and those whose
    zone quantity has an enclosure straddling zero.  Any other undecided
    box has an enclosure of the wrong strict sign for its zone."""
    return {
        "box_evals": sum(evals_per_depth),
        "max_depth": max(len(evals_per_depth) - 1, 0),
        "evals_per_depth": list(evals_per_depth),
        "undecided_domain": undecided_domain,
        "undecided_straddle": undecided_straddle,
    }


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

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)


# verdict codes returned by the deciders; 0 leaves a box open
_VERDICTS = ("undecided", "F", "dF")


def _leaf(row, verdict: str) -> CertLeaf:
    return CertLeaf((row[0], row[1]), (row[2], row[3]), verdict)


def _bisect(zones, branch: str, max_depth: int) -> tuple:
    """Breadth-first adaptive bisection; returns (leaves, undecided, stats).

    ``zones`` lists (region, decide) pairs.  Their boxes share one frontier,
    tagged by zone index, and each depth's frontier is evaluated by one
    ``_mv_eval`` call.  ``decide`` maps the batch evaluation to arrays of
    verdict codes (indices into ``_VERDICTS``), split coordinates and a
    mask of the boxes whose enclosure straddles zero; it is read for the
    boxes of its own zone.  A box with a verdict becomes a leaf carrying
    it; any other box is split along the coordinate, or along y4 when it
    cannot be evaluated, and is kept as undecided once it sits at
    ``max_depth``.  The leaves are those of a
    depth-first bisection, in another order.
    """
    leaves, undecided, evals = [], [], []
    bounds = np.array([region.key() for region, _ in zones], dtype=float).T
    zone = np.arange(len(zones))
    domain = straddle = depth = 0
    while zone.size:
        ev = _mv_eval(*bounds, branch)
        verdict, coord = np.zeros(zone.size, dtype=int), np.zeros(zone.size, dtype=int)
        straddles = np.zeros(zone.size, dtype=bool)
        for z, (_, decide) in enumerate(zones):
            mine = zone == z
            for out, mask in zip((verdict, coord, straddles), decide(ev)):
                np.copyto(out, mask, where=mine)
        verdict[~ev.ok] = coord[~ev.ok] = 0
        evals.append(int(zone.size))
        rows = bounds.T.tolist()
        for i in np.flatnonzero(verdict).tolist():
            leaves.append(_leaf(rows[i], _VERDICTS[verdict[i]]))
        open_ = verdict == 0
        if depth >= max_depth:
            undecided = [_leaf(rows[i], "undecided") for i in np.flatnonzero(open_).tolist()]
            domain = int(np.count_nonzero(open_ & ~ev.ok))
            straddle = int(np.count_nonzero(open_ & ev.ok & straddles))
            break
        depth += 1
        ylo, yhi, alo, ahi = bounds[:, open_]
        coord, zone = coord[open_], zone[open_]
        # Box.split_coord: y4 when asked and it has width, else A when it
        # has width, else y4; halves meet at Interval.mid
        on_y = ((coord == 0) & (yhi - ylo > 0.0)) | ~(ahi - alo > 0.0)
        ym, am = 0.5 * (ylo + yhi), 0.5 * (alo + ahi)
        bounds = np.concatenate([
            np.stack([ylo, np.where(on_y, ym, yhi), alo, np.where(on_y, ahi, am)]),
            np.stack([np.where(on_y, ym, ylo), yhi, np.where(on_y, alo, am), ahi]),
        ], axis=1)
        zone = np.concatenate([zone, zone])
    return leaves, undecided, _stats(evals, domain, straddle)


def _sign_decider(quantity: str, sign: int):
    """Decide boxes on which F (or dF/dy4) has the given strict sign."""
    code = _VERDICTS.index(quantity)

    def decide(ev: _BoxEval) -> tuple:
        enc, hint = (ev.f, ev.hint_f) if quantity == "F" else (ev.df, ev.hint_df)
        ok = enc.hi < 0.0 if sign < 0 else enc.lo > 0.0
        return np.where(ok, code, 0), hint, enc.contains_zero()
    return decide


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


def _locate_crossing(window: tuple, a_range: tuple, branch: str) -> tuple:
    """Floating-point bracket of the sign crossing across sampled exponents.

    Returns (c1, c2, lo_sign): a strip containing every sampled root, plus
    the sign of F at the window's lower end.  Soundness never depends on
    this estimate; a bad strip only makes certification fail, not lie.
    """
    lo, hi = window
    roots = []
    lo_sign = 0
    for a_exp in np.linspace(a_range[0], a_range[1], 9):
        ys = np.linspace(lo, hi, 2049)
        vals = np.asarray(F(ys, float(a_exp), branch))
        if lo_sign == 0:
            lo_sign = 1 if vals[0] > 0 else -1
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
    with rigorous enclosures.
    """
    cert = Certificate(kind="unique_root", branch=branch,
                       window=tuple(window), a_range=tuple(a_range),
                       certified=False)
    a_iv = Interval(a_range[0], a_range[1])
    c1, c2, lo_sign = _locate_crossing(window, a_range, branch)
    if lo_sign == 0 or not window[0] < c1 < c2 < window[1]:
        cert.detail = "no interior sign crossing found to isolate"
        return cert.finalize()
    want = -lo_sign

    zones = [(Box(Interval(lo, hi), a_iv), _sign_decider(quantity, sign))
             for lo, hi, quantity, sign in ((window[0], c1, "F", lo_sign),
                                            (c1, c2, "dF", want),
                                            (c2, window[1], "F", -lo_sign))]
    cert.leaves, cert.undecided, cert.stats = _bisect(zones, branch, max_depth)
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
    boxes where both enclosures still straddle zero.
    """
    cert = Certificate(kind="no_common_zero", branch=branch,
                       window=(region.y4.lo, region.y4.hi),
                       a_range=(region.a.lo, region.a.hi),
                       certified=False)
    cert.leaves, cert.undecided, cert.stats = _bisect(
        [(region, _no_common_zero_decider)], branch, max_depth)
    cert.certified = not cert.undecided
    cert.detail = ("every leaf excludes zero from F or dF/dy4" if cert.certified
                   else f"{len(cert.undecided)} undecided boxes remain")
    return cert.finalize()
