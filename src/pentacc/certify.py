"""Interval certification of root uniqueness and bifurcation absence.

Two certificates are produced, both by adaptive bisection over (y4, A)
boxes with the interval arithmetic from ``intervals``:

- unique root: a strict sign change of F at the window ends for every
  exponent leaf, together with an interval derivative that excludes zero
  over the whole window, implies exactly one zero per exponent value.

- no common zero: every leaf box excludes zero from F or from dF/dy4, so F
  and its derivative never vanish together; root counts cannot change, and
  in particular no root pair is born inside the region.

Certificates never assert more than was verified: exhausting the depth
budget yields an undecided verdict carrying the offending boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .geometry import OutOfDomainError, branch_radicand
from .intervals import Box, Interval, IntervalDomainError, Jet2
from .symmetric import F, F_dual

__all__ = [
    "CertLeaf",
    "Certificate",
    "eval_F_interval",
    "certify_unique_root",
    "certify_no_common_zero",
]


def _check_domain(box: Box) -> None:
    rad = branch_radicand(box.y4)
    if rad.lo < 0.0:
        raise OutOfDomainError(f"radicand interval {rad} dips below zero on {box.y4}")


def _mag(x) -> float:
    return x.mag if isinstance(x, Interval) else abs(x)


@dataclass(frozen=True)
class _BoxEval:
    """Enclosures of F and dF over a box, with per-quantity split hints."""

    f: Interval
    df: Interval
    hint_f: int   # coordinate whose error term dominates the F enclosure
    hint_df: int  # same for the dF enclosure


def _mv_eval(box: Box, branch: str) -> _BoxEval:
    """Mean-value enclosures around the box center, crossed with the
    natural interval form when both evaluate."""
    _check_domain(box)
    f_mv = df_mv = None
    hint_f = hint_df = 0 if box.y4.width >= box.a.width else 1
    try:
        my, ma = box.y4.mid, box.a.mid
        center = F(Jet2.variable_y(Interval.around(my)), branch=branch,
                   a_exp=Jet2.variable_a(Interval.around(ma)))
        wide = F(Jet2.variable_y(box.y4), branch=branch,
                 a_exp=Jet2.variable_a(box.a))
        off_y = box.y4 - my
        off_a = box.a - ma
        f_mv = center.v + wide.dy * off_y + wide.da * off_a
        df_mv = center.dy + wide.dyy * off_y + wide.dya * off_a
        hint_f = 0 if (_mag(wide.dy) * box.y4.width
                       >= _mag(wide.da) * box.a.width) else 1
        hint_df = 0 if (_mag(wide.dyy) * box.y4.width
                        >= _mag(wide.dya) * box.a.width) else 1
    except (IntervalDomainError, OverflowError):
        pass
    # The natural Dual form is kept beside the Jet2 mean-value form because
    # it decides boxes the mean-value form leaves straddling zero.  Without
    # it the A4 no-common-zero certificate over [2, 3] needs 195 leaves
    # instead of 194, and B2 unique-root over [2, 6] needs 63,085 instead of
    # 1985, at about 30 times the run time.
    try:
        dual = F_dual(box.y4, box.a, branch)
        f_nat, df_nat = dual.val, dual.dot
    except (IntervalDomainError, OverflowError):
        f_nat = df_nat = None
    if f_mv is None and f_nat is None:
        raise IntervalDomainError(f"no evaluable form on {box.key()}")
    if f_mv is None:
        return _BoxEval(f_nat, df_nat, hint_f, hint_df)
    if f_nat is None:
        return _BoxEval(f_mv, df_mv, hint_f, hint_df)
    return _BoxEval(f_mv.intersect(f_nat), df_mv.intersect(df_nat),
                    hint_f, hint_df)


def eval_F_interval(box: Box, branch: str) -> tuple:
    """Enclosures of F and dF/dy4 over a (y4, A) box.

    Uses the two-variable mean-value form seeded by a second-order jet,
    intersected with the natural interval form, so enclosure widths shrink
    linearly with the box.  Raises OutOfDomainError when the branch
    radicand can dip below zero on the box, and IntervalDomainError when no
    form can be evaluated (for example a distance interval touching zero).
    """
    ev = _mv_eval(box, branch)
    return ev.f, ev.df


@dataclass(frozen=True)
class CertLeaf:
    """One verified (or undecided) box of a certificate."""

    y4: tuple
    a: tuple
    verdict: str  # "F", "dF", "endpoint", or "undecided"

    def to_json(self) -> dict:
        return {"y4": list(self.y4), "A": list(self.a), "verdict": self.verdict}


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
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)


def _leaf(box: Box, verdict: str) -> CertLeaf:
    return CertLeaf((box.y4.lo, box.y4.hi), (box.a.lo, box.a.hi), verdict)


def _bisect(region: Box, branch: str, decide, max_depth: int) -> tuple:
    """Depth-first adaptive bisection of a region; returns (leaves, undecided).

    ``decide`` maps a box evaluation to (verdict or None, split coordinate).
    A box with a verdict becomes a leaf carrying it; any other box is split
    along the coordinate, or along y4 when it cannot be evaluated, and is
    kept as undecided once it sits at ``max_depth``.
    """
    leaves, undecided = [], []
    stack = [(region, 0)]
    while stack:
        box, depth = stack.pop()
        try:
            verdict, coord = decide(_mv_eval(box, branch))
        except (IntervalDomainError, OutOfDomainError):
            verdict, coord = None, 0
        if verdict is not None:
            leaves.append(_leaf(box, verdict))
        elif depth >= max_depth:
            undecided.append(_leaf(box, "undecided"))
        else:
            l, r = box.split_coord(coord)
            stack.extend([(l, depth + 1), (r, depth + 1)])
    return leaves, undecided


def _sign_decider(quantity: str, sign: int):
    """Decide boxes on which F (or dF/dy4) has the given strict sign."""
    def decide(ev: _BoxEval) -> tuple:
        enc, hint = (ev.f, ev.hint_f) if quantity == "F" else (ev.df, ev.hint_df)
        ok = enc.strictly_negative() if sign < 0 else enc.strictly_positive()
        return (quantity if ok else None), hint
    return decide


def _no_common_zero_decider(ev: _BoxEval) -> tuple:
    """Decide boxes on which F or dF/dy4 excludes zero."""
    if not ev.f.contains_zero():
        return "F", 0
    if not ev.df.contains_zero():
        return "dF", 0
    # split for whichever quantity is closer to being resolved
    res_f = abs(ev.f.mid) / (ev.f.width + 1e-300)
    res_df = abs(ev.df.mid) / (ev.df.width + 1e-300)
    return None, (ev.hint_f if res_f >= res_df else ev.hint_df)


def _locate_crossing(window: tuple, a_range: tuple, branch: str) -> tuple:
    """Floating-point bracket of the sign crossing across sampled exponents.

    Returns (c1, c2, lo_sign): a strip containing every sampled root, plus
    the sign of F at the window's lower end.  Soundness never depends on
    this estimate; a bad strip only makes certification fail, not lie.
    """
    import numpy as np
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

    for lo, hi, quantity, sign in ((window[0], c1, "F", lo_sign),
                                   (c1, c2, "dF", want),
                                   (c2, window[1], "F", -lo_sign)):
        leaves, undecided = _bisect(Box(Interval(lo, hi), a_iv), branch,
                                    _sign_decider(quantity, sign), max_depth)
        cert.leaves.extend(leaves)
        cert.undecided.extend(undecided)
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
    cert.leaves, cert.undecided = _bisect(region, branch, _no_common_zero_decider,
                                          max_depth)
    cert.certified = not cert.undecided
    cert.detail = ("every leaf excludes zero from F or dF/dy4" if cert.certified
                   else f"{len(cert.undecided)} undecided boxes remain")
    return cert.finalize()
