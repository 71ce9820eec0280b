"""Interval certification of uniqueness and bifurcation absence."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pentacc.geometry import (
    Y4_MAX,
    OutOfDomainError,
    branch_radicand,
    collinear_endpoint_y4,
    family_terms,
    regular_pentagon_y4,
    square_endpoint_y4,
)
import pentacc.intervals as intervals
from pentacc.intervals import (Box, Interval, IntervalArray, IntervalDomainError, Jet2,
                               _BoxEval, _VERDICTS, _bisect, _leaf, _no_common_zero_decider,
                               _stats, _trace, split_bounds)
from pentacc.certify import (
    Certificate,
    _mv_eval,
    certify_no_common_zero,
    certify_unique_root,
    eval_F_interval,
)
from pentacc.symmetric import F, F_dual, _natural_eval, scan_branch, window_for


def F_prime(y4: float, a_exp, branch: str = "A") -> float:
    """dF/dy4 at a point, by forward-mode differentiation."""
    return F_dual(y4, a_exp, branch).dy


def thin_box(y4: float, a_exp: float) -> Box:
    # the sampled exponents are exactly representable; y4 landmarks are not
    return Box(Interval.around(y4), Interval.point(a_exp))


@pytest.mark.parametrize("a_exp", [2.0, 3.0, 6.0])
def test_thin_interval_endpoint_signs(a_exp):
    f_sq, _ = eval_F_interval(thin_box(square_endpoint_y4(), a_exp), "A")
    assert f_sq.lo > 0.0
    f_col, _ = eval_F_interval(thin_box(collinear_endpoint_y4(), a_exp), "A")
    assert f_col.hi < 0.0


def test_box_containing_pentagon_root_contains_zero():
    p = regular_pentagon_y4()
    f_enc, _ = eval_F_interval(Box(Interval(p - 1e-3, p + 1e-3),
                                   Interval.around(3.0)), "A")
    assert f_enc.contains_zero()


def test_interval_values_contain_float_samples():
    rng = np.random.default_rng(99)
    for _ in range(60):
        lo = rng.uniform(0.2, 1.5)
        box = Box(Interval(lo, lo + 0.01), Interval(2.0, 2.5))
        f_enc, df_enc = eval_F_interval(box, "A")
        for _ in range(10):
            y = rng.uniform(box.y4.lo, box.y4.hi)
            a = rng.uniform(box.a.lo, box.a.hi)
            assert f_enc.contains(F(y, a, "A"))
            assert df_enc.contains(F_prime(y, a, "A"))


def test_out_of_domain_box_rejected():
    with pytest.raises(OutOfDomainError):
        eval_F_interval(Box(Interval(Y4_MAX - 1e-3, Y4_MAX + 1e-3),
                            Interval.around(3.0)), "A")


@pytest.mark.parametrize("window", [(0.1, 2.5), (-0.1, 0.5)])
def test_certificates_refuse_windows_outside_the_domain(window):
    # such a window's boxes can never be decided: each would be split down
    # to the depth cap, doubling the frontier at every depth
    with pytest.raises(OutOfDomainError):
        certify_unique_root(window, (2.0, 3.0), "A")
    with pytest.raises(OutOfDomainError):
        certify_no_common_zero(Box(Interval(*window), Interval(2.0, 3.0)), "A")


@pytest.mark.parametrize("a_range", [(2.0, math.inf), (math.inf, math.inf), (math.nan, 3.0),
                                     (2.0, math.nan), (3.0, 2.0), (1.5, 3.0)],
                         ids=["inf-hi", "inf", "nan-lo", "nan-hi", "inverted", "below-2"])
def test_certificates_refuse_exponent_ranges(a_range):
    # F is defined for A >= 2, and an infinite end leaves a seed box that
    # no split shrinks: before it was refused, no-common-zero over
    # [0.2, 0.3] x [2, inf] stopped undecided at depth 0.  A Box holds no
    # NaN, inverted or below-2 exponent range of its own.
    with pytest.raises(ValueError, match="exponent range"):
        certify_unique_root(window_for("A", "A2"), a_range, "A")
    if math.isinf(a_range[1]):
        with pytest.raises(ValueError, match="exponent range"):
            certify_no_common_zero(Box(Interval(0.2, 0.3), Interval(*a_range)), "A")


def test_certificates_refuse_an_exponent_range_whose_midpoint_overflows():
    # 0.5 * (lo + hi) is inf there, outside the range, so it can center no
    # mean-value form: before the range was refused, split_bounds warned
    # of an overflow and no-common-zero over [0.2, 0.3] x [1e308, 1.7e308]
    # returned 1024 undecided boxes
    a_range = (1e308, 1.7e308)
    with pytest.raises(ValueError, match=r"exponent range .* lo \+ hi finite"):
        certify_unique_root(window_for("A", "A2"), a_range, "A")
    with pytest.raises(ValueError, match=r"exponent range .* lo \+ hi finite"):
        certify_no_common_zero(Box(Interval(0.2, 0.3), Interval(*a_range)), "A")
    # a range near the float maximum whose sum is finite is still taken
    assert not certify_no_common_zero(
        Box(Interval(0.2, 0.3), Interval(8e307, 8.9e307)), "A", max_depth=0).certified


def test_unique_root_certificate_vortex_only():
    cert = certify_unique_root(window_for("A", "A2"), (2.0, 2.0), "A")
    assert cert.certified
    assert cert.kind == "unique_root"


def test_unique_root_certificate_vortex_to_newtonian():
    cert = certify_unique_root(window_for("A", "A2"), (2.0, 3.0), "A")
    assert cert.certified
    # pins the enclosures: a looser F or dF evaluation changes the count
    assert len(cert.leaves) == 39
    # soundness spot check: one sign change per sampled exponent
    lo, hi = cert.window
    for a_exp in np.linspace(2.0, 3.0, 7):
        ys = np.linspace(lo, hi, 4001)
        signs = np.sign(F(ys, float(a_exp), "A"))
        assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 1


def test_unique_root_requires_a_crossing():
    cert = certify_unique_root(window_for("A", "A3", inset=1e-6), (2.0, 2.0), "A")
    assert not cert.certified
    assert "crossing" in cert.detail


def test_unique_root_claims_no_sign_where_F_vanishes_at_the_lower_end(monkeypatch):
    # F = 0 (or not finite) at the window's lower end gives no sign to claim
    # for the first zone: the certifier reports that at once, and bisects
    # nothing.  The strip's grid of F runs in symmetric
    import pentacc.certify as certify
    import pentacc.symmetric as symmetric

    def zero_at_lower_end(y4, *args, **kwargs):
        out = F(y4, *args, **kwargs)
        if isinstance(out, np.ndarray):
            out = out.copy()
            out[0] = 0.0
        return out
    monkeypatch.setattr(symmetric, "F", zero_at_lower_end)
    assert certify._locate_crossing(window_for("A", "A2"), (2.0, 3.0), "A")[2] == 0
    cert = certify_unique_root(window_for("A", "A2"), (2.0, 3.0), "A")
    assert not cert.certified and not cert.leaves
    assert cert.detail == "no interior sign crossing found to isolate"
    assert cert.stats["passes"] == 0
    # a certificate is a frozen value
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.certified = True


@pytest.mark.parametrize("a_range", [(1000.0, 1100.0), (2.0, 2000.0)])
def test_unique_root_where_F_overflows_on_the_strip_grid(a_range):
    # above A of about 1000 a power of a distance overflows on the strip's
    # float grid: a node where F is not finite has no sign, and no warning
    # is raised.  The strip around the sampled crossings reaches the
    # window's lower end, so there is no interior strip to certify around
    import pentacc.certify as certify
    w = window_for("A", "A2")
    cert = certify_unique_root(w, a_range, "A")
    c1, c2, _, _ = certify._locate_crossing(w, a_range, "A")
    assert c1 == w[0] < c2 < w[1]
    assert cert.to_json() == Certificate(
        "unique_root", "A", w, a_range, False,
        detail=f"the float strip [{c1:.9g}, {c2:.9g}] around the sampled sign crossing "
               "reaches the window's lower end").to_json()


@pytest.mark.parametrize("branch, unsigned", [("A", 5364), ("B", 9 * 2049)])
def test_unique_root_names_the_nodes_where_F_is_not_finite(branch, unsigned):
    # on A2 and B2 x [1100, 1200] F overflows at the window's lower end and
    # hides the sign crossing that the root scan still finds: the detail
    # counts the strip grid's nodes without a sign instead of claiming
    # that there is no crossing, and the verdict stays not certified
    import pentacc.certify as certify
    w = window_for(branch, f"{branch}2", inset=1e-6)
    assert certify._locate_crossing(w, (1100.0, 1200.0), branch) == (None, None, 0, unsigned)
    cert = certify_unique_root(w, (1100.0, 1200.0), branch)
    assert cert.to_json() == Certificate(
        "unique_root", branch, w, (1100.0, 1200.0), False,
        detail=f"F is not finite at {unsigned} nodes of the float strip's grid, which "
               "have no sign, so no sign crossing could be placed to isolate").to_json()


def test_unique_root_says_when_the_strip_reaches_the_window_end():
    # on A2 x [2, 10] every sampled exponent has one sign crossing, but the
    # strip's margin takes it onto the window's lower end: the certificate
    # is not certified, bisects nothing, and says so
    import pentacc.certify as certify
    w = window_for("A", "A2")
    cert = certify_unique_root(w, (2.0, 10.0), "A")
    assert not cert.certified and not cert.leaves and cert.stats["passes"] == 0
    assert cert.detail == ("the float strip [0.133974596, 0.176390001] around the sampled "
                           "sign crossing reaches the window's lower end")
    # with no sampled crossing there is no strip at all
    assert certify._locate_crossing((0.2, 0.3), (2.0, 3.0), "A")[:2] == (None, None)
    cert = certify_unique_root((0.2, 0.3), (2.0, 3.0), "A")
    assert cert.detail == "no interior sign crossing found to isolate"


def test_no_common_zero_on_convex_window():
    w = window_for("A", "A4", inset=1e-9)
    cert = certify_no_common_zero(Box(Interval(*w), Interval(2.0, 3.0)), "A")
    assert cert.certified
    assert all(leaf.verdict in ("F", "dF") for leaf in cert.leaves)
    assert len(cert.leaves) == 194


def test_no_common_zero_fails_at_bifurcation():
    w = window_for("A", "A4", inset=1e-9)
    cert = certify_no_common_zero(Box(Interval(*w), Interval(3.0, 3.3)), "A",
                                  max_depth=20)
    assert not cert.certified
    assert (len(cert.leaves), len(cert.undecided)) == (767, 65)
    assert cert.detail == "65 undecided boxes remain"
    keys = [(l.y4[0], l.a[0], l.y4[1], l.a[1]) for l in cert.undecided]
    assert keys == sorted(keys)
    assert cert.stats["max_depth"] == 20
    assert (cert.stats["undecided_domain"], cert.stats["undecided_straddle"]) == (0, 65)
    p = regular_pentagon_y4()
    for leaf in cert.undecided:
        assert leaf.y4[0] <= p + 0.08 and leaf.y4[1] >= p - 0.08
        assert leaf.a[0] <= 3.125 and leaf.a[1] >= 3.115


def test_certificate_leaves_partition_and_serialize():
    w = window_for("A", "A4", inset=1e-9)
    region = Box(Interval(*w), Interval(2.0, 2.5))
    cert = certify_no_common_zero(region, "A")
    assert cert.certified
    # leaves tile the region: total area matches
    area = sum((l.y4[1] - l.y4[0]) * (l.a[1] - l.a[0]) for l in cert.leaves)
    assert area == pytest.approx(region.y4.width * region.a.width, rel=1e-9)
    # deterministic ordering and JSON round trip
    keys = [(l.y4[0], l.a[0], l.y4[1], l.a[1]) for l in cert.leaves]
    assert keys == sorted(keys)
    data = json.loads(json.dumps(cert.to_json(), indent=1))
    assert data["certified"] is True
    assert len(data["leaves"]) == len(cert.leaves)


def test_certified_region_survives_dense_sampling():
    w = window_for("A", "A4", inset=1e-9)
    cert = certify_no_common_zero(Box(Interval(*w), Interval(2.0, 3.0)), "A")
    assert cert.certified
    rng = np.random.default_rng(7)
    ys = rng.uniform(w[0], w[1], 10000)
    a_s = rng.uniform(2.0, 3.0, 10000)
    for y, a in zip(ys, a_s):
        assert abs(F(float(y), float(a), "A")) > 1e-12 \
            or abs(F_prime(float(y), float(a), "A")) > 1e-12


def test_unique_root_deterministic():
    c1 = certify_unique_root(window_for("A", "A2"), (2.0, 3.0), "A")
    c2 = certify_unique_root(window_for("A", "A2"), (2.0, 3.0), "A")
    assert json.dumps(c1.to_json()) == json.dumps(c2.to_json())


def test_undecided_stats_tell_straddling_from_wrong_sign(monkeypatch):
    import pentacc.certify as certify
    w = window_for("A", "A2")
    c1, _, lo_sign, _ = certify._locate_crossing(w, (2.0, 3.0), "A")
    # a strip left of the crossing: the right zone claims sign -lo_sign on
    # boxes left of the root, where F has the strict sign lo_sign
    s1, s2 = w[0] + 0.3 * (c1 - w[0]), w[0] + 0.6 * (c1 - w[0])
    monkeypatch.setattr(certify, "_locate_crossing", lambda *args: (s1, s2, lo_sign, 0))
    cert = certify_unique_root(w, (2.0, 3.0), "A", max_depth=8)
    assert not cert.certified
    assert cert.detail == "a zone could not be resolved at the depth cap"
    assert (len(cert.undecided), cert.stats["undecided_domain"],
            cert.stats["undecided_straddle"]) == (32, 0, 17)
    straddling = 0
    for leaf in cert.undecided:
        f, df = eval_F_interval(Box(Interval(*leaf.y4), Interval(*leaf.a)), "A")
        enc = df if s1 <= leaf.y4[0] and leaf.y4[1] <= s2 else f
        if enc.contains_zero():
            straddling += 1
        else:
            assert leaf.y4[0] >= s2 and (enc.lo > 0.0) == (lo_sign > 0)
    assert straddling == 17


def test_no_common_zero_on_vortex_window_range():
    w = window_for("A", "A2")
    cert = certify_no_common_zero(Box(Interval(*w), Interval(2.0, 3.0)), "A")
    assert cert.certified


def test_no_common_zero_on_star_window_full_range():
    w = window_for("B", "B2", inset=1e-6)
    cert = certify_no_common_zero(Box(Interval(*w), Interval(2.0, 6.0)), "B",
                                  max_depth=80)
    assert cert.certified


def test_thin_point_consistency_with_float_path():
    for y4, a_exp, branch in ((0.2, 2.0, "A"), (0.5, 3.0, "B"), (1.2, 4.0, "A")):
        f_enc, df_enc = eval_F_interval(
            Box(Interval.around(y4), Interval.point(a_exp)), branch)
        assert f_enc.contains(F(y4, a_exp, branch))
        assert df_enc.contains(F_prime(y4, a_exp, branch))
        assert f_enc.width <= 1e-11


def _leaf_sha256(cert) -> str:
    text = json.dumps([l.to_json() for l in cert.leaves])
    return hashlib.sha256(text.encode()).hexdigest()


_ACCEPTANCE = {
    "A2": lambda: certify_unique_root(window_for("A", "A2"), (2.0, 3.0), "A"),
    "A4-no-common-zero": lambda: certify_no_common_zero(
        Box(Interval(*window_for("A", "A4", inset=1e-9)), Interval(2.0, 3.0)), "A"),
    "B2": lambda: certify_unique_root(window_for("B", "B2", inset=1e-6), (2.0, 6.0), "B",
                                      max_depth=80),
}


# The digests pin every leaf box and verdict of the three acceptance
# certificates; box_evals counts every bisection node, 2L - Z for L leaves
# in Z zones.  A pass evaluates several depths, so there are fewer passes
# than depths: B2's chains toward its window ends take it from 26 passes
# to 14.  The y4 memo runs stage 1 on fewer passes than there are, as
# (runs, y4 columns computed).
_PINS = [
    (_ACCEPTANCE["A2"], 39, 75, 6, 3, (2, 81),
     "acba8116764ae55904636f9d37913619150b70c87debed28c245187d62d92a95"),
    (_ACCEPTANCE["A4-no-common-zero"], 194, 387, 11, 8, (4, 219),
     "b5dbe57d0893d25b792cd10414882bd00d14e18132d351f0a992728d03b63128"),
    (_ACCEPTANCE["B2"], 1985, 3967, 28, 14, (6, 385),
     "5c93acc1548e9a4b016a9259f37461b6e3776b8f690649b7a28209d65bb9b46d"),
]


def _stage1_stats(stats) -> tuple:
    return stats["stage1_runs"], stats["stage1_columns"]


@pytest.mark.parametrize("build, leaves, box_evals, max_depth, passes, stage1, digest", _PINS,
                         ids=list(_ACCEPTANCE))
def test_acceptance_certificates_pinned(build, leaves, box_evals, max_depth, passes, stage1,
                                        digest):
    cert = build()
    assert cert.certified and not cert.undecided
    assert len(cert.leaves) == leaves
    assert _leaf_sha256(cert) == digest
    stats = cert.stats
    assert (stats["box_evals"], stats["max_depth"]) == (box_evals, max_depth)
    zones = 1 if cert.kind == "no_common_zero" else 3
    assert box_evals == 2 * leaves - zones
    assert sum(stats["evals_per_depth"]) == box_evals
    assert len(stats["evals_per_depth"]) == max_depth + 1
    assert stats["passes"] == passes and stats["evaluated"] >= box_evals
    assert len(stats["pass_rows"]) == passes and sum(stats["pass_rows"]) == stats["evaluated"]
    assert _stage1_stats(stats) == stage1
    assert cert.to_json()["stats"] == stats


@pytest.mark.parametrize("build, leaves, box_evals, max_depth, passes, stage1, digest", _PINS,
                         ids=list(_ACCEPTANCE))
def test_acceptance_certificates_on_the_step_path(build, leaves, box_evals, max_depth, passes,
                                                  stage1, digest, monkeypatch):
    # with the interval kernels forced onto the step path, each rounded to
    # nearest and stepped one ulp outward, the certificates keep their pins
    monkeypatch.setattr(intervals, "_FENV", False)
    cert = build()
    assert cert.stats["rounding"] == "step"
    assert (len(cert.leaves), _leaf_sha256(cert)) == (leaves, digest)
    assert (cert.stats["box_evals"], cert.stats["passes"]) == (box_evals, passes)
    assert _stage1_stats(cert.stats) == stage1


@pytest.mark.parametrize("build, leaves, box_evals, max_depth, passes, stage1, digest", _PINS,
                         ids=list(_ACCEPTANCE))
def test_acceptance_certificates_in_small_blocks(build, leaves, box_evals, max_depth, passes,
                                                 stage1, digest, monkeypatch):
    # with passes of 3 rows, run in blocks of 6 columns, most blocks mix
    # the columns of several zones, and the certificates keep their leaves
    # and their bisection tree
    monkeypatch.setattr(intervals, "_PASS_ROWS", 3)
    cert = build()
    assert (len(cert.leaves), _leaf_sha256(cert)) == (leaves, digest)
    assert (cert.stats["box_evals"], cert.stats["max_depth"]) == (box_evals, max_depth)


def _recorded_blocks(monkeypatch) -> list:
    """Each block of columns that a plan runs from now on, and each first
    stage inside one, as [the plan, the stage (1 or 2), the need bits of
    the block's columns (stage 2) or the plan of the enclosing block
    (stage 1), the columns it runs on, and for each step whether it is a
    stacked call (not a fill step) and the columns its kernel received]."""
    blocks, stack, current = [], [], []
    run, block, stage_one, run_steps = (intervals._Plan.run, intervals._Plan._block,
                                        intervals._Plan._stage_one, intervals._run_steps)

    def recording_run(plan, *inputs, memo=None, need=None):
        n = inputs[0].lo.size
        current[:] = [np.full(n, 3) if need is None else need, 0,
                      min(n, 2 * intervals._PASS_ROWS) or 1]
        return run(plan, *inputs, memo=memo, need=need)

    def recording_block(plan, lo, hi, m, memo):
        need, c0, width = current
        current[1] += width
        stack.append([plan, 2, need[c0:c0 + m].tolist(), m, []])
        try:
            return block(plan, lo, hi, m, memo)
        finally:
            blocks.append(stack.pop())

    def recording_stage_one(plan, y_lo, y_hi, lo, hi):
        stack.append([plan, 1, stack[-1][0], y_lo.shape[1], []])
        try:
            return stage_one(plan, y_lo, y_hi, lo, hi)
        finally:
            blocks.append(stack.pop())

    def recording_run_steps(steps, reg_lo, reg_hi):
        stack[-1][-1].extend((step[0] is not IntervalArray._mid, reg_lo.shape[1])
                             for step in steps)
        return run_steps(steps, reg_lo, reg_hi)
    monkeypatch.setattr(intervals._Plan, "run", recording_run)
    monkeypatch.setattr(intervals._Plan, "_block", recording_block)
    monkeypatch.setattr(intervals._Plan, "_stage_one", recording_stage_one)
    monkeypatch.setattr(intervals, "_run_steps", recording_run_steps)
    return blocks


# the stacked calls of the certifier's plan, stage 1 + stage 2, on each
# branch, and those of the plan of F's outputs alone
_CALLS = {"A": (47, 23), "B": (53, 23)}
_F_CALLS = {"A": (33, 16), "B": (40, 16)}


@pytest.mark.parametrize("name", list(_ACCEPTANCE))
def test_a_block_runs_the_f_plan_exactly_when_its_columns_need_f_alone(name, monkeypatch):
    # a block whose columns all need F alone runs the plan of F's outputs
    # alone, and any other block the whole plan; every stacked call of
    # either receives all of the block's columns, or of its first stage's,
    # and no block makes more stacked calls than its plan has
    import pentacc.certify as certify
    blocks = _recorded_blocks(monkeypatch)
    assert _ACCEPTANCE[name]().certified
    branch = "B" if name == "B2" else "A"
    plan = certify._f_plan(branch)
    f_plan, outputs = plan.alone
    assert (len(plan.stage1), len(plan.steps)) == _CALLS[branch]
    assert (len(f_plan.stage1), len(f_plan.steps)) == _F_CALLS[branch]
    assert outputs == [0, 2, 3, 4] and f_plan.alone is None
    kinds = []
    for mine, stage, tag, columns, seen in blocks:
        if stage == 1:
            assert mine is tag  # the first stage of the block's own plan
        else:
            assert mine is (f_plan if set(tag) == {1} else plan)
            kinds.append(tuple(sorted(set(tag))))
        assert {cols for _, cols in seen} == {columns}
        calls = sum(1 for stacked, _ in seen if stacked)
        assert calls == len(mine.stage1 if stage == 1 else mine.steps)
        assert calls <= (_F_CALLS if mine is f_plan else _CALLS)[branch][stage - 1]
    # every no-common-zero box reads both quantities, so each of its blocks
    # runs the whole plan; a unique-root block holds F-zone boxes alone or
    # F-zone and dF-zone boxes together, and 14 of B2's 24 blocks hold
    # F-zone boxes alone
    if name == "A4-no-common-zero":
        assert set(kinds) == {(3,)}
    else:
        assert set(kinds) == {(1,), (1, 2)}
    if name == "B2":
        assert kinds.count((1,)) == 14 and len(kinds) == 24


def test_stats_record_where_the_leaves_lie():
    cert = certify_unique_root(window_for("B", "B2", inset=1e-6), (2.0, 6.0), "B",
                               max_depth=80)
    stats = cert.stats
    depths, evals = stats["leaf_depths"], stats["evals_per_depth"]
    assert stats["leaves_by_verdict"] == {"F": 1703, "dF": 282, "undecided": 0}
    assert sum(depths) == sum(stats["leaves_by_verdict"].values()) == len(cert.leaves)
    # every box evaluated at a depth is a leaf there or splits in two
    assert len(depths) == len(evals)
    assert all(evals[d + 1] == 2 * (evals[d] - depths[d]) for d in range(len(evals) - 1))
    assert depths[-1] == evals[-1]
    # the pile-up near the collision end: over two thirds of the leaves lie
    # deeper than depth 12
    assert sum(depths[13:]) > 2 * len(cert.leaves) / 3
    # an undecided run counts its undecided leaves at the depth cap
    cert = certify_no_common_zero(Box(Interval(*window_for("A", "A4", inset=1e-9)),
                                      Interval(3.0, 3.3)), "A", max_depth=12)
    assert cert.undecided
    assert cert.stats["leaves_by_verdict"]["undecided"] == len(cert.undecided)
    assert cert.stats["leaf_depths"][12] >= len(cert.undecided)
    assert sum(cert.stats["leaf_depths"]) == len(cert.leaves) + len(cert.undecided)


def _bisect_by_depth(zones, evaluate, max_depth: int) -> tuple:
    """The reference for ``intervals._bisect``: the same bisection, with one
    ``evaluate`` call and one call of each decider per depth, on that
    depth's frontier alone.  Each box needs the quantities its decider
    reads (F 1, dF 2; both where it names none), and is evaluable where
    those have bounds.  Its stats count one pass per depth."""
    leaves, undecided, evals, leaf_depths = [], [], [], []
    by_verdict = dict.fromkeys(_VERDICTS, 0)
    zone = np.array([z for z, (_, seeds) in enumerate(zones) for _ in seeds], dtype=int)
    bounds = np.array([s for _, seeds in zones for s in seeds], dtype=float).reshape(-1, 4).T
    reads = [getattr(decide, "reads", 3) for decide, _ in zones]
    domain = straddle = depth = 0
    while zone.size:
        need = np.array([reads[z] for z in zone.tolist()], dtype=int)
        ev = evaluate(*bounds, need=need)
        verdict, coord = np.zeros(zone.size, dtype=int), np.zeros(zone.size, dtype=int)
        straddles = np.zeros(zone.size, dtype=bool)
        for z, (decide, _) in enumerate(zones):
            mine = zone == z
            for out, mask in zip((verdict, coord, straddles), decide(ev)):
                np.copyto(out, mask, where=mine)
        ok = np.where(need == 1, ev.f.valid,
                      np.where(need == 2, ev.df.valid, ev.f.valid & ev.df.valid))
        verdict[~ok] = coord[~ok] = 0
        evals.append(int(zone.size))
        rows = bounds.T.tolist()
        for i in np.flatnonzero(verdict).tolist():
            leaves.append(_leaf(rows[i], _VERDICTS[verdict[i]]))
        lower, upper = (np.stack(h) for h in split_bounds(*bounds, coord))
        stuck = (lower == bounds).all(axis=0) | (upper == bounds).all(axis=0)
        open_ = verdict == 0
        kept = open_ & ((depth >= max_depth) | stuck)
        undecided.extend(_leaf(rows[i], "undecided") for i in np.flatnonzero(kept).tolist())
        domain += int(np.count_nonzero(kept & ~ok))
        straddle += int(np.count_nonzero(kept & ok & straddles))
        codes = np.bincount(verdict[~open_ | kept], minlength=len(_VERDICTS))
        for name, n in zip(_VERDICTS, codes.tolist()):
            by_verdict[name] += n
        leaf_depths.append(int(codes.sum()))
        open_ &= ~kept
        depth += 1
        bounds = np.concatenate([lower[:, open_], upper[:, open_]], axis=1)
        zone = np.concatenate([zone[open_], zone[open_]])
    return leaves, undecided, _stats(evals, domain, straddle, leaf_depths, by_verdict, evals)


def _leaf_order(leaf) -> tuple:
    return (leaf.y4, leaf.a, leaf.verdict)


@pytest.fixture
def checked_bisect(monkeypatch):
    """``_bisect``, checked against ``_bisect_by_depth`` on each call.

    Both run on the same input.  They must agree on the sorted leaves, the
    sorted undecided boxes and every stats field but ``passes``,
    ``evaluated`` and ``pass_rows``; each pass must call the evaluator and
    then each decider once, and evaluate no more than max(frontier,
    ``_PASS_ROWS``) rows, look-ahead and chain rows included.  The rows of
    each pass of the last call are in ``checked_bisect.rows``.
    """
    frontiers = []
    look_ahead = intervals._look_ahead

    def recording(frontier, levels_left):
        frontiers.append(frontier.shape[1])
        return look_ahead(frontier, levels_left)
    monkeypatch.setattr(intervals, "_look_ahead", recording)

    def counted(calls: list, tag, fn):
        def wrapped(*args, **kwargs):
            calls.append(tag if tag != "evaluate" else (tag, args[0].size))
            return fn(*args, **kwargs)
        wrapped.reads = getattr(fn, "reads", 3)
        return wrapped

    def run(zones, evaluate, max_depth: int) -> tuple:
        frontiers.clear()
        calls = []
        got = _bisect([(counted(calls, z, decide), seeds)
                       for z, (decide, seeds) in enumerate(zones)],
                      counted(calls, "evaluate", evaluate), max_depth)
        want = _bisect_by_depth(zones, evaluate, max_depth)
        for mine, ref in zip(got[:2], want[:2]):
            assert sorted(mine, key=_leaf_order) == sorted(ref, key=_leaf_order)
        stats, ref = dict(got[2]), dict(want[2])
        passes, evaluated = stats.pop("passes"), stats.pop("evaluated")
        rows = stats.pop("pass_rows", [])
        assert passes <= ref.pop("passes") and evaluated >= ref.pop("evaluated")
        ref.pop("pass_rows")
        assert stats == ref
        assert len(rows) == len(frontiers) == passes and sum(rows) == evaluated
        assert calls == [c for r in rows for c in (("evaluate", r), *range(len(zones)))]
        assert all(r <= max(f, intervals._PASS_ROWS) for f, r in zip(frontiers, rows))
        run.rows = rows
        return got
    return run


def _never_decided(ylo, yhi, alo, ahi, need=None) -> _BoxEval:
    """A box evaluator whose F and dF enclosures always straddle zero."""
    both = IntervalArray(np.full(ylo.size, -1.0), np.full(ylo.size, 1.0))
    return _BoxEval(both, both)


def _never_ok(ylo, yhi, alo, ahi, need=None) -> _BoxEval:
    """A box evaluator that encloses nothing: every enclosure is NaN."""
    nan = IntervalArray(np.full(ylo.size, np.nan), np.full(ylo.size, np.nan))
    return _BoxEval(nan, nan)


def _open_decider(ev) -> tuple:
    n = ev.f.lo.size
    return np.zeros(n, dtype=int), np.ones(n, dtype=int), np.ones(n, dtype=bool)


def test_bisect_stuck_boxes_depth_cap_and_one_decider_call_per_pass(checked_bisect):
    # y4 width 2**-48 at 0.5 is 32 float spacings (2**-53): after 5 halvings
    # a box is one spacing wide, its midpoint rounds to an end, and no split
    # can shrink it, so it stays undecided before the depth cap of 8; the
    # boxes have no A-width, so each box has two candidates, and one pass of
    # 1 + 2 + ... + 32 rows covers every depth: the look-ahead builds no
    # children that could not shrink
    seed = (0.5, 0.5 + 2.0 ** -48, 3.0, 3.0)
    leaves, undecided, stats = checked_bisect([(_open_decider, [seed])], _never_decided, 8)
    assert not leaves and len(undecided) == 2 ** 5
    assert stats["evals_per_depth"] == [2 ** d for d in range(6)]
    assert stats["max_depth"] == 5 and stats["undecided_straddle"] == 2 ** 5
    assert all(l.y4[1] - l.y4[0] == 2.0 ** -53 and l.a == (3.0, 3.0) for l in undecided)
    assert sorted(l.y4 for l in undecided)[0][0] == seed[0]
    assert stats["passes"] == 1 and checked_bisect.rows == [63]
    # a cap below 5 holds: the boxes stop at the cap, still able to shrink,
    # and the look-ahead stops there too
    _, undecided, stats = checked_bisect([(_open_decider, [seed])], _never_decided, 3)
    assert len(undecided) == 2 ** 3 and stats["max_depth"] == 3
    assert all(l.y4[1] - l.y4[0] == 2.0 ** -51 for l in undecided)
    assert checked_bisect.rows == [15]
    # two zones with A-width: four candidates a box; each decider
    # runs once per pass, whatever the number of boxes in its zone, and a
    # frontier larger than the row count is evaluated alone; the rows left
    # hold one chain row for each box at y4 = 0 or 3, up to the row count
    # (2, 8 and 32 rows), all wasted, since every box splits along A
    zones = [(_open_decider, [(0.0, 1.0, 2.0, 3.0)]),
             (_open_decider, [(1.0, 2.0, 2.0, 3.0), (2.0, 3.0, 2.0, 3.0)])]
    _, undecided, stats = checked_bisect(zones, _never_decided, 6)
    assert len(undecided) == 3 * 2 ** 6
    assert stats["evals_per_depth"] == [3 * 2 ** d for d in range(7)]
    assert checked_bisect.rows == [3 + 12 + 48 + 2, 24 + 96 + 8, 96 + 32, 192]
    # nothing evaluates: every box is split along y4 down to the cap and
    # counted as not evaluable; the first pass's two chain rows are used,
    # and the frontier of 22 boxes at depth 3 and 4 at depth 4 that they
    # leave is too wide for a whole level, so this takes a pass more
    _, undecided, stats = checked_bisect(zones, _never_ok, 5)
    assert len(undecided) == stats["undecided_domain"] == 3 * 2 ** 5
    assert all(l.y4[1] - l.y4[0] == 2.0 ** -5 and l.a[1] - l.a[0] == 1.0 for l in undecided)
    assert checked_bisect.rows == [63 + 2, 22 + 4 + 2, 50, 88]


@pytest.mark.parametrize("seed", [
    (0.5, math.nextafter(0.5, 1.0), 3.0, 3.0),   # the y4 midpoint rounds to an end
    (0.5, 0.5, 3.0, math.nextafter(3.0, 4.0)),   # so does the A midpoint
    (0.5, 0.5, 3.0, 3.0),                        # a point
], ids=["y4-ulp", "A-ulp", "point"])
def test_a_box_no_split_can_shrink_stays_undecided(seed, checked_bisect):
    leaves, undecided, stats = checked_bisect([(_open_decider, [seed])], _never_decided, 8)
    assert not leaves and [l.y4 + l.a for l in undecided] == [seed]
    assert stats["evals_per_depth"] == [1] and stats["undecided_straddle"] == 1
    # the look-ahead builds no children that could not shrink
    assert stats["evaluated"] == 1 and checked_bisect.rows == [1]


def test_a_point_window_certificate_has_one_undecided_box():
    # y4 = 1 - sqrt(3)/2 is the x3 = 0 collision of branch B, where F has no
    # enclosure; halving the point box only copied it, 4096 times by depth 12
    y4 = 0.13397459621556135
    cert = certify_no_common_zero(Box(Interval(y4, y4), Interval(3.0, 3.0)), "B",
                                  max_depth=12)
    assert not cert.certified and not cert.leaves
    assert [l.to_json() for l in cert.undecided] == [
        {"y4": [y4, y4], "A": [3.0, 3.0], "verdict": "undecided"}]
    assert cert.stats["box_evals"] == cert.stats["undecided_domain"] == 1
    assert cert.stats["evaluated"] == 1


def test_the_tree_box_budget_keeps_the_open_boxes_undecided(monkeypatch):
    # no box is ever decided, so the frontier doubles at each depth: with a
    # budget of 20 tree boxes it stops at 1 + 2 + 4 + 8 = 15 boxes, since
    # splitting the 8 open boxes would make 31
    monkeypatch.setattr(intervals, "_MAX_TREE_BOXES", 20)
    leaves, undecided, stats = _bisect([(_open_decider, [(0.0, 1.0, 2.0, 3.0)])],
                                       _never_decided, 60)
    assert not leaves and len(undecided) == stats["undecided_budget"] == 8
    assert stats["evals_per_depth"] == [1, 2, 4, 8] and stats["box_evals"] == 15
    assert stats["leaf_depths"] == [0, 0, 0, 8] and stats["undecided_straddle"] == 8
    assert stats["leaves_by_verdict"] == {"undecided": 8, "F": 0, "dF": 0}
    # a budget of exactly 31 lets that split happen
    monkeypatch.setattr(intervals, "_MAX_TREE_BOXES", 31)
    _, undecided, stats = _bisect([(_open_decider, [(0.0, 1.0, 2.0, 3.0)])],
                                  _never_decided, 60)
    assert len(undecided) == stats["undecided_budget"] == 16 and stats["box_evals"] == 31
    # a bisection within the budget has no such field
    _, _, stats = _bisect([(_open_decider, [(0.0, 1.0, 2.0, 3.0)])], _never_decided, 3)
    assert "undecided_budget" not in stats and stats["box_evals"] == 15


@pytest.mark.parametrize("name", list(_ACCEPTANCE))
def test_look_ahead_matches_by_depth_on_the_certificates(name, checked_bisect, monkeypatch):
    import pentacc.certify as certify
    monkeypatch.setattr(certify, "_bisect", checked_bisect)
    assert _ACCEPTANCE[name]().certified


@pytest.mark.parametrize("branch, a_exp, runs", [
    ("A", 2.0, [(1, 1), (1, 1)]), ("A", 4.0, [(1, 1), (1, 1)]), ("B", 3.0, [(6, 21)])])
def test_look_ahead_matches_by_depth_on_the_scan_guard(branch, a_exp, runs,
                                                       checked_bisect, monkeypatch):
    import pentacc.symmetric as symmetric
    guards = []

    def record(zones, evaluate, max_depth):
        guards.append((zones, evaluate, max_depth))
        return [], [], _stats()
    monkeypatch.setattr(symmetric, "_bisect", record)
    scan_branch(branch, a_exp)
    # one guard per window with seeds; (passes, depths) at the scan's cap
    got = []
    for zones, evaluate, max_depth in guards:
        assert max_depth == 24
        for cap in range(max_depth + 1):
            stats = checked_bisect(zones, evaluate, cap)[2]
        got.append((stats["passes"], len(stats["evals_per_depth"])))
    assert got == runs


def _synthetic_evaluator(bottom, top, a_weight, nan_band=(math.inf, math.inf)):
    """A box evaluator whose leaves pile up toward two points, ``bottom``
    and ``top``: F's enclosure is d -+ 2w, for d the distance from the box
    to the nearer point and w its y4-width plus ``a_weight`` times its
    A-width, so that it excludes zero once d > 2w, and dF's is A - 2.5 over
    the box, widened by its y4-width.  Both hints split A where
    ``a_weight`` times the A-width outgrows the y4-width.  Both enclosures
    are NaN on the boxes that meet ``nan_band``."""
    def evaluate(ylo, yhi, alo, ahi, need=None):
        w = (yhi - ylo) + a_weight * (ahi - alo)
        d = np.minimum(ylo - bottom, top - yhi)
        bad = (ylo < nan_band[1]) & (yhi > nan_band[0])
        f, df = (IntervalArray(np.where(bad, np.nan, l), np.where(bad, np.nan, h))
                 for l, h in ((d - 2 * w, d + 2 * w),
                              (alo - 2.5 - (yhi - ylo), ahi - 2.5 + (yhi - ylo))))
        hint = (a_weight * (ahi - alo) > yhi - ylo).astype(int)
        return _BoxEval(f, df, hint, hint)
    return evaluate


# (bottom, top, a_weight, the NaN band, depth cap) from the window
# [lo, hi] and the drawn exponent k: a pile toward a point just beyond one
# end, which a chain follows; the same pile with boxes that split along A
# on the way, which breaks the chains; and a pile toward a point at the
# top end itself, with a band that nothing evaluates, which leaves boxes
# undecided at the cap
_SYNTHETIC = {
    "top-pile": lambda lo, hi, k: (lo - 1.0, hi + 2.0 ** -k, 0.0, (math.inf,) * 2, 60),
    "bottom-pile": lambda lo, hi, k: (lo - 2.0 ** -k, hi + 1.0, 0.0, (math.inf,) * 2, 60),
    "a-splits": lambda lo, hi, k: (lo - 1.0, hi + 2.0 ** -k, 0.125, (math.inf,) * 2, 60),
    "undecidable": lambda lo, hi, k: (lo - 1.0, hi, 0.0625, (0.5 * (lo + hi),) * 2, 14),
}


@pytest.mark.parametrize("pass_rows", [128, 3])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", list(_SYNTHETIC))
def test_chains_keep_the_bisection_of_one_evaluation_per_depth(case, seed, pass_rows,
                                                                checked_bisect, monkeypatch):
    # a seeded window in three zones, the middle one an F-sign zone that
    # reads F alone; checked_bisect compares every output but the passes
    # and their rows with one evaluation per depth
    from pentacc.certify import _sign_decider
    monkeypatch.setattr(intervals, "_PASS_ROWS", pass_rows)
    rng = np.random.default_rng(seed)
    lo = float(rng.uniform(0.1, 0.3))
    hi = lo + float(rng.uniform(0.3, 0.6))
    c1, c2 = sorted(float(c) for c in rng.uniform(lo + 0.05, hi - 0.05, 2))
    a_hi = 2.0 + float(rng.uniform(0.5, 2.0))
    bottom, top, a_weight, band, cap = _SYNTHETIC[case](lo, hi, int(rng.integers(20, 26)))
    zones = [(_no_common_zero_decider, [(lo, c1, 2.0, a_hi)]),
             (_sign_decider("F", 1), [(c1, c2, 2.0, a_hi)]),
             (_no_common_zero_decider, [(c2, hi, 2.0, a_hi)])]
    evaluate = _synthetic_evaluator(bottom, top, a_weight, band)
    leaves, undecided, stats = checked_bisect(zones, evaluate, cap)
    depths = len(stats["evals_per_depth"])
    if case == "undecidable":
        assert stats["undecided_domain"] and stats["undecided_straddle"]
        assert depths == cap + 1
    else:
        assert leaves and not undecided and 20 < depths <= cap
    if case.endswith("pile") and pass_rows == 128:
        # the chains take a pile in fewer passes than it has depths, and
        # than the whole levels take alone
        assert stats["passes"] < depths
        monkeypatch.setattr(intervals, "_chains", lambda parents, end, want: (
            np.empty((4, 0)), np.zeros(len(end), dtype=int)))
        assert stats["passes"] < _bisect(zones, evaluate, cap)[2]["passes"]


def _scalar_box_eval(box: Box, branch: str, center=Interval.point) -> tuple:
    """One box with the scalar classes: (f, df, hint_f, hint_df).

    The reference for the batched kernel: the jet in y4 at the box
    midpoint, at the midpoint's exponent, each enclosed by ``center``, and
    the jet in (y4, A) over the box give the mean-value form, the whole-box
    jet's value and y-derivative the natural form, and the two are
    intersected.  A scalar jet pass fails as a whole, so the whole-box jet
    runs first; where it raises, or the radicand dips below zero, the box
    is not evaluable and the oracle raises too.
    """
    rad = branch_radicand(box.y4)
    if rad.lo < 0.0:
        raise OutOfDomainError(f"radicand {rad} dips below zero")
    try:
        wide = F(Jet2.variable_y(box.y4), branch=branch, a_exp=Jet2.variable_a(box.a))
    except (IntervalDomainError, OverflowError) as exc:
        raise IntervalDomainError("no evaluable form") from exc
    nat = (wide.v, wide.dy)
    hint_f = hint_df = 0 if box.y4.width >= box.a.width else 1
    try:
        my, ma = box.y4.mid, box.a.mid
        at = F(Jet2.variable_y(center(my)), branch=branch, a_exp=Jet2(center(ma)))
        off_y, off_a = box.y4 - my, box.a - ma
        mv = (at.v + wide.dy * off_y + wide.da * off_a,
              at.dy + wide.dyy * off_y + wide.dya * off_a)
        hint_f = 0 if wide.dy.mag * box.y4.width >= wide.da.mag * box.a.width else 1
        hint_df = 0 if wide.dyy.mag * box.y4.width >= wide.dya.mag * box.a.width else 1
    except (IntervalDomainError, OverflowError):
        return (*nat, hint_f, hint_df)
    return mv[0].intersect(nat[0]), mv[1].intersect(nat[1]), hint_f, hint_df


def _oracle_boxes(rng, branch: str, n: int) -> list:
    """Boxes over the branch's five sign-type windows and 10 % past each
    end, y4 widths from 1e-9 to 1, A within [2, 6] (a fifth of them thin)."""
    boxes = []
    for k in range(n):
        lo, hi = window_for(branch, f"{branch}{k % 5 + 1}")
        y_w = 10.0 ** rng.uniform(-9.0, 0.0)
        y0 = rng.uniform(lo - 0.1 * (hi - lo) - y_w, hi + 0.1 * (hi - lo))
        a_w = 10.0 ** rng.uniform(-9.0, 0.0) if rng.random() < 0.8 else 0.0
        a0 = rng.uniform(2.0, 6.0 - a_w)
        boxes.append(Box(Interval(y0, y0 + y_w), Interval(a0, a0 + a_w)))
    return boxes


@pytest.mark.parametrize("branch", ["A", "B"])
def test_batched_box_eval_matches_scalar_oracle(branch, rounding_paths):
    rng = np.random.default_rng(2011 if branch == "A" else 2012)
    boxes = _oracle_boxes(rng, branch, 1000)
    want = np.full((len(boxes), 4), np.nan)
    hints = np.zeros((len(boxes), 2), dtype=int)
    failed = np.zeros(len(boxes), dtype=bool)
    for i, box in enumerate(boxes):
        try:
            f, df, hint_f, hint_df = _scalar_box_eval(box, branch)
        except (IntervalDomainError, OutOfDomainError):
            failed[i] = True
            continue
        want[i] = (f.lo, f.hi, df.lo, df.hi)
        hints[i] = (hint_f, hint_df)
    # the oracle must exercise both outcomes
    assert 0 < failed.sum() < len(boxes) // 2
    ylo, yhi, alo, ahi = np.array([b.key() for b in boxes]).T
    for _ in rounding_paths:
        ev = _mv_eval(ylo, yhi, alo, ahi, branch)
        ok = ev.f.valid & ev.df.valid
        np.testing.assert_array_equal(~ok, failed)
        rounding_paths.check(ev.f.lo[ok], ev.f.hi[ok], want[ok, 0], want[ok, 1])
        rounding_paths.check(ev.df.lo[ok], ev.df.hi[ok], want[ok, 2], want[ok, 3])
        np.testing.assert_array_equal(np.stack([ev.hint_f, ev.hint_df], axis=1)[ok], hints[ok])
        # on either path, the certifier's jet in y4 at the box midpoints
        # gives the bits of F and dF/dy4 of the (y4, A) jet there, each
        # traced alone on the boxes, and the root scan's plan of its natural
        # form those of the jet in y4 over the same y4 intervals traced with
        # all its slots, invalid in the same places
        y, a = IntervalArray(ylo, yhi), IntervalArray(alo, ahi)
        center = _trace(lambda y, a: Jet2._parts(F(Jet2.variable_y(y.mid), branch=branch,
                                                   a_exp=Jet2(a.mid)))[:2], 2).run(y, a)
        full = _trace(lambda y, a: Jet2._parts(F(Jet2.variable_y(y.mid), branch=branch,
                                                 a_exp=Jet2.variable_a(a.mid))), 2).run(y, a)
        pairs = list(zip(center, full[:2]))
        assert 0 < (full[0].valid & full[1].valid).sum() < len(boxes)
        for a_exp in (2.0, 2.5, 3.0, 4.0):
            nat = _natural_eval(ylo, yhi, None, None, branch=branch, a_exp=a_exp)
            jet = _trace(lambda y: Jet2._parts(F(Jet2.variable_y(y), a_exp, branch)), 1).run(y)
            assert 0 < (nat.f.valid & nat.df.valid).sum() < len(boxes)
            pairs += [(nat.f, jet[0]), (nat.df, jet[1])]
        for planned, by_slot in pairs:
            ok = by_slot.valid
            np.testing.assert_array_equal(planned.valid, ok)
            for p, q in ((planned.lo, by_slot.lo), (planned.hi, by_slot.hi)):
                np.testing.assert_array_equal(p[ok].view(np.int64), q[ok].view(np.int64))


@pytest.mark.parametrize("branch", ["A", "B"])
def test_midpoint_center_lies_inside_the_one_ulp_center(branch, rounding_paths):
    # the mean-value form holds for any center in the box: at the float
    # midpoints, as point rows, F and dF/dy4 lie inside the scalar form at
    # the midpoints' one-ulp enclosures, on every box where that form
    # evaluates, and strictly inside on most of them
    rng = np.random.default_rng(2011 if branch == "A" else 2012)
    boxes = _oracle_boxes(rng, branch, 1000)
    wide = {}
    for i, box in enumerate(boxes):
        try:
            wide[i] = _scalar_box_eval(box, branch, center=Interval.around)[:2]
        except (IntervalDomainError, OutOfDomainError):
            continue
    assert len(wide) > len(boxes) // 2
    ylo, yhi, alo, ahi = np.array([b.key() for b in boxes]).T
    for _ in rounding_paths:
        ev = _mv_eval(ylo, yhi, alo, ahi, branch)
        tighter = 0
        for i, (f, df) in wide.items():
            for got, want in ((ev.f, f), (ev.df, df)):
                assert want.lo <= got.lo[i] <= got.hi[i] <= want.hi, (i, got, want)
                tighter += (want.lo, want.hi) != (got.lo[i], got.hi[i])
        assert tighter > len(wide)


@pytest.mark.parametrize("branch", ["A", "B"])
def test_boxes_reaching_past_the_domain_end_are_not_evaluable(branch):
    # no evaluator checks the branch radicand: both plans take its square
    # root through log, so a box whose radicand enclosure reaches zero has
    # NaN enclosures of F and dF, and _bisect counts it as not evaluable
    straddling = [(Y4_MAX - 1e-6, Y4_MAX + 1e-6), (Y4_MAX - 0.1, Y4_MAX + 0.1),
                  (Y4_MAX, Y4_MAX)]
    past = [(Y4_MAX + 1e-12, Y4_MAX + 2e-12), (Y4_MAX + 1e-6, Y4_MAX + 0.1), (2.0, 3.0)]
    ylo, yhi = np.array(straddling + past).T
    radicand = _trace(lambda y: [branch_radicand(y)], 1).run(IntervalArray(ylo, yhi))[0]
    assert (radicand.lo < 0.0).all()
    # the certifier's evaluator and the scan guard's
    for evaluate, alo, ahi in ((partial(_mv_eval, branch=branch), 2.0, 6.0),
                               (partial(_natural_eval, branch=branch, a_exp=3.0), 3.0, 3.0)):
        ev = evaluate(ylo, yhi, np.full(ylo.size, alo), np.full(ylo.size, ahi))
        assert not ev.f.valid.any() and not ev.df.valid.any()
        seeds = [(lo, hi, alo, ahi) for lo, hi in straddling + past]
        leaves, undecided, stats = _bisect([(_no_common_zero_decider, seeds)], evaluate, 0)
        assert not leaves and len(undecided) == stats["undecided_domain"] == len(seeds)
        # the quarters of a box wholly past the end are not evaluable either
        seeds = [(lo, hi, alo, ahi) for lo, hi in past]
        leaves, undecided, stats = _bisect([(_no_common_zero_decider, seeds)], evaluate, 2)
        assert not leaves and len(undecided) == stats["undecided_domain"] == 4 * len(seeds)


@pytest.mark.parametrize("branch", ["A", "B"])
def test_center_jet_adds_no_kernel_call(branch):
    # the centers' jet stacks into the whole-box jet's kernel calls, stage by
    # stage: in each stage the plan has the steps of the whole-box jet and
    # its mean-value sums, traced with the centers' F and dF/dy4 as input
    # rows, and computes fewer elements a box than two columns of it would,
    # in each stage and by a quarter over both
    import pentacc.certify as certify

    def sums(y, a, my, ma, center_v, center_dy):
        jet = F(Jet2.variable_y(y), branch=branch, a_exp=Jet2.variable_a(a))
        off_y, off_a = y - my, a - ma
        return (center_v + jet.dy * off_y + jet.da * off_a,
                center_dy + jet.dyy * off_y + jet.dya * off_a, *Jet2._parts(jet))
    whole = _trace(sums, 6, y4=(0, 2))
    plan = certify._f_plan(branch)

    def elements(steps):
        return sum(stop - start for _, _, _, start, stop, *_ in steps)
    for mine, its in ((plan.stage1, whole.stage1), (plan.steps, whole.steps)):
        assert mine and len(mine) == len(its)
        assert elements(mine) < 2 * elements(its)
    assert elements(plan.stage1 + plan.steps) < 0.75 * 2 * elements(whole.stage1 + whole.steps)


def test_one_jet_pass_per_frontier(monkeypatch):
    import pentacc.certify as certify
    assert not hasattr(certify, "F_dual") and not hasattr(certify, "Dual")
    calls, runs = [], []

    def counting_F(*args, **kwargs):
        calls.append(type(args[0]).__name__)
        return F(*args, **kwargs)

    def counting_run(plan, *inputs, **kwargs):
        runs.append(inputs[0].lo.size)
        return run(plan, *inputs, **kwargs)
    run = intervals._Plan.run
    monkeypatch.setattr(certify, "F", counting_F)
    monkeypatch.setattr(intervals._Plan, "run", counting_run)
    boxes = np.array([b.key() for b in _oracle_boxes(np.random.default_rng(2011), "A", 50)]).T
    # F is traced once per branch, on a jet of rows at the centers and one
    # over the whole boxes, into one plan; later evaluations only run the
    # plan, once over the 50 boxes, a column each
    certify._f_plan.cache_clear()
    ev = _mv_eval(*boxes, "A")
    assert calls == ["Jet2", "Jet2"] and runs == [50] and ev.f.lo.size == 50
    ev = _mv_eval(*boxes, "A")
    assert calls == ["Jet2", "Jet2"] and runs == [50, 50]
    # a certificate runs the plan once per pass of its bisection, and a
    # pass covers several of its 12 depths
    runs.clear()
    cert = _ACCEPTANCE["A4-no-common-zero"]()
    assert len(cert.stats["evals_per_depth"]) == 12
    assert calls == ["Jet2", "Jet2"] and len(runs) == cert.stats["passes"] == 8


@pytest.mark.parametrize("branch", ["A", "B"])
def test_no_plan_step_writes_a_row_it_reads(branch):
    import pentacc.certify as certify
    plan = certify._f_plan(branch)
    src, first, end = plan.expand
    assert end > first
    # one fill step a stage: the y4 midpoints in the first, the A ones in the second
    assert [len(f) for f in plan.fill] == [1, 1]
    for _, _, _, start, stop, *args in (*plan.fill[0], *plan.stage1,
                                        (None, None, (), first, end, src),
                                        *plan.fill[1], *plan.steps):
        written = set(range(start, stop))
        for rows in args:
            read = range(plan.size)[rows] if isinstance(rows, slice) else rows.tolist()
            assert written.isdisjoint(read)


def _plans() -> dict:
    """The certifier's plans and two of the scan guard's, by name."""
    import pentacc.certify as certify
    import pentacc.symmetric as symmetric
    return {"certifier A": certify._f_plan("A"), "certifier B": certify._f_plan("B"),
            "guard A 2": symmetric._natural_plan("A", 2.0),
            "guard B 3": symmetric._natural_plan("B", 3.0)}


def test_plans_batch_calls_by_slack():
    # each plan makes at most three quarters of the stacked kernel calls a
    # pass that one call per (depth, kind, parameter) made: 83 + 30 on
    # branch B, 70 + 30 on branch A, and 78 in the guard at (B, 3)
    calls = {name: len(plan.stage1) + len(plan.steps) for name, plan in _plans().items()}
    assert calls["certifier B"] <= 0.75 * 113
    assert calls["certifier A"] <= 0.75 * 100
    assert calls["guard B 3"] <= 0.75 * 78


@pytest.mark.parametrize("name", ["certifier A", "certifier B", "guard A 2", "guard B 3"])
def test_every_plan_step_reads_rows_already_written(name):
    # the input rows and the number operands' point rows are written before
    # the first step, and each stage's midpoint rows by its fill step;
    # stage 2 and the outputs read the y4 input rows and the results of
    # stage 1 only through the copies of the expand, since stage 1 runs on
    # the distinct y4 columns alone
    plan = _plans()[name]
    fills = {r for *_, start, stop, _ in plan.fill[0] + plan.fill[1] for r in range(start, stop)}
    given = set(range(plan.const_rows.stop)) - fills
    written = set(given)

    def check(steps):
        for _, _, _, start, stop, *args in steps:
            for rows in args:
                read = range(plan.size)[rows] if isinstance(rows, slice) else rows.tolist()
                assert written.issuperset(read)
            written.update(range(start, stop))
    check(plan.fill[0] + plan.stage1)
    src, first, end = plan.expand
    if plan.stage1:
        check([(None, None, (), first, end, src)])
        written = given.difference(plan.y4).union(range(first, end))
    check(plan.fill[1] + plan.steps)
    assert written.issuperset(plan.out)


def test_plan_steps_do_not_depend_on_the_hash_seed():
    # the compiler keys registers by tuples of strings, whose set order
    # follows PYTHONHASHSEED; the step tables of two interpreters with
    # different seeds are the same
    script = (
        "from pentacc import certify, symmetric\n"
        "def rows(r):\n"
        "    return (r.start, r.stop) if isinstance(r, slice) else r.tolist()\n"
        "for plan in (certify._f_plan('B'), symmetric._natural_plan('B', 3.0)):\n"
        "    for kernel, upward, param, start, stop, *args in (*plan.stage1, *plan.steps):\n"
        "        print(kernel.__qualname__, upward, param, start, stop, [rows(a) for a in args])\n"
        "    print(plan.size, rows(plan.expand[0]), plan.expand[1:], plan.out)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    tables = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        tables.append(proc.stdout)
    assert tables[0] == tables[1] and tables[0].count("\n") > 100


@pytest.mark.parametrize("branch", ["A", "B"])
def test_column_blocks_cannot_change_a_bit(branch, monkeypatch):
    # a plan runs its columns, one a box, in blocks of 2 * _PASS_ROWS;
    # blocks of 6 columns split the 200 boxes and leave a short last block
    boxes = np.array([b.key() for b in _oracle_boxes(np.random.default_rng(7), branch, 200)]).T
    want = _mv_eval(*boxes, branch)
    monkeypatch.setattr(intervals, "_PASS_ROWS", 3)
    got = _mv_eval(*boxes, branch)
    for g, w in ((got.f, want.f), (got.df, want.df)):
        for x, y in ((g.lo, w.lo), (g.hi, w.hi)):
            np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))
    np.testing.assert_array_equal(got.hint_f, want.hint_f)
    np.testing.assert_array_equal(got.hint_df, want.hint_df)


def _stage1_columns(plan, monkeypatch) -> list:
    """The columns of each block on which ``plan`` runs its first stage
    from now on, counted at its first stage-1 kernel call."""
    seen = []
    kernel, *rest = plan.stage1[0]

    def counted(*args):
        seen.append(args[0].lo.shape[-1])
        return kernel(*args)
    monkeypatch.setattr(plan, "stage1", [(counted, *rest), *plan.stage1[1:]])
    return seen


def _distinct_y4(ylo, yhi, width: int) -> list:
    """The distinct (lo, hi) bit patterns of y4 in each block of ``width``
    columns."""
    return [len(keys) for keys in _y4_blocks(ylo, yhi, width)]


def _y4_blocks(ylo, yhi, width: int) -> list:
    """The set of (lo, hi) bit patterns of y4 in each block of ``width``
    columns."""
    bits = np.stack([ylo, yhi]).view(np.int64)
    return [set(map(tuple, bits[:, c0:c0 + width].T.tolist()))
            for c0 in range(0, bits.shape[1], width)]


def _stage1_columns_without_memo(ylo, yhi) -> list:
    """The columns of each block of a run without a memo on which stage 1
    runs: the block's distinct y4 columns alone, never their y4 halves,
    which no later run reads."""
    return _distinct_y4(ylo, yhi, 2 * intervals._PASS_ROWS)


@pytest.mark.parametrize("branch", ["A", "B"])
def test_staged_plan_keeps_every_bit(branch, monkeypatch):
    # without a memo, stage 1 of the certifier's plan runs once per
    # distinct y4 column of a block, and never on their y4 halves, which
    # no later run reads; on batches that repeat y4 it gives the bits of
    # the same jets traced without y4 rows, which run every call on every
    # column
    import pentacc.certify as certify
    staged = certify._f_plan(branch)
    flat = _trace(partial(certify._f_jets, branch=branch), 2)
    assert not flat.stage1 and len(staged.stage1) + len(staged.steps) <= len(flat.steps)
    columns = _stage1_columns(staged, monkeypatch)

    def check(ylo, yhi, alo, ahi) -> list:
        inputs = IntervalArray(ylo, yhi), IntervalArray(alo, ahi)
        got = staged.run(*inputs)
        for g, w in zip(got, flat.run(*inputs)):
            ok = w.valid
            np.testing.assert_array_equal(g.valid, ok)
            for x, z in ((g.lo, w.lo), (g.hi, w.hi)):
                np.testing.assert_array_equal(x[ok].view(np.int64), z[ok].view(np.int64))
        assert columns == _stage1_columns_without_memo(ylo, yhi)
        columns.clear()
        return got

    rng = np.random.default_rng(2025)
    ylo, yhi, alo, ahi = np.array([b.key() for b in _oracle_boxes(rng, branch, 100)]).T
    # A-split siblings: the two halves of each box along A, side by side
    halves = split_bounds(ylo, yhi, alo, ahi, np.ones(100, dtype=int))
    siblings = np.stack([np.stack(h) for h in halves], axis=2).reshape(4, -1)
    check(*siblings)
    assert _distinct_y4(*siblings[:2], 200)[0] < 150
    # 10 boxes, one without A-width split along y4: 11 y4 columns, whose
    # halves would fit the block, make 11 stage-1 columns, not 33
    check(*siblings[:, :20])
    assert _stage1_columns_without_memo(*siblings[:2, :20]) == [11]
    # one y4 interval in two column blocks: blocks of 6 columns, 5 y4 intervals
    monkeypatch.setattr(intervals, "_PASS_ROWS", 3)
    pick = np.arange(40) % 5
    check(ylo[pick], yhi[pick], alo[:40], ahi[:40])
    # a duplicated column past Y4_MAX, which cannot be evaluated, and y4
    # bounds of 0.0 and -0.0, which are distinct keys
    got = check(np.array([Y4_MAX + 1e-6, Y4_MAX + 1e-6, 0.0, -0.0, 0.0]),
                np.array([Y4_MAX + 0.1, Y4_MAX + 0.1, 0.1, 0.1, 0.1]),
                np.array([2.0, 2.0, 2.5, 2.5, 3.0]), np.array([6.0, 6.0, 3.0, 3.0, 3.5]))
    assert all(not r.valid[:2].any() and r.valid[2:].all() for r in got)


def _y4_keys(y4_lo, y4_hi) -> list:
    """The bit patterns of the columns of a plan's y4 rows."""
    bits = np.concatenate([y4_lo, y4_hi]).view(np.int64)
    return list(map(tuple, bits.T.tolist()))


def _recorded_passes(monkeypatch) -> list:
    """Each run of the certifier's plan from now on, as (its columns, the
    y4 columns it reads, the y4 columns of each of its stage-1 runs, its
    memo)."""
    runs, run, stage_one = [], intervals._Plan.run, intervals._Plan._stage_one

    def recording_run(plan, *inputs, memo=None, need=None):
        y4 = [inputs[i] for i in plan.y4]
        read = set(_y4_keys([y.lo for y in y4], [y.hi for y in y4]))
        runs.append((inputs[0].lo.size, read, [], memo))
        return run(plan, *inputs, memo=memo, need=need)

    def recording_stage_one(plan, y_lo, y_hi, *registers):
        runs[-1][2].append(_y4_keys(y_lo, y_hi))
        return stage_one(plan, y_lo, y_hi, *registers)
    monkeypatch.setattr(intervals._Plan, "run", recording_run)
    monkeypatch.setattr(intervals._Plan, "_stage_one", recording_stage_one)
    return runs


def _halves(keys) -> set:
    """The y4 columns of both y4 halves of the given ones, as the bisection
    splits them (``split_bounds`` along y4)."""
    if not keys:
        return set()
    lo, hi = np.array(sorted(keys), dtype=np.int64).T.view(float)
    (l_lo, l_hi, *_), (u_lo, u_hi, *_) = split_bounds(lo, hi, 0.0, 0.0, 0)
    return set(_y4_keys([np.concatenate((l_lo, u_lo))], [np.concatenate((l_hi, u_hi))]))


@pytest.mark.parametrize("name", list(_ACCEPTANCE))
def test_stage_one_computes_each_y4_column_once(name, monkeypatch):
    # a certificate's evaluator keeps its y4 columns' stage-1 rows from pass
    # to pass: no column is computed twice, each computed column is read by
    # its pass or is a y4 half of one read there, a block of columns runs
    # stage 1 once at most, and a pass whose columns the memo holds runs
    # none, so there are fewer runs than passes
    passes = _recorded_passes(monkeypatch)
    stats = _ACCEPTANCE[name]().stats
    computed = [key for *_, runs, _ in passes for cols in runs for key in cols]
    assert len(computed) == len(set(computed)) == stats["stage1_columns"]
    for n, read, runs, _ in passes:
        assert len(runs) <= -(-n // (2 * intervals._PASS_ROWS))
        assert all(read | _halves(read) >= set(cols) for cols in runs)
    assert sum(len(runs) for *_, runs, _ in passes) == stats["stage1_runs"]
    assert len(passes) == stats["passes"]
    assert stats["stage1_runs"] <= stats["passes"] / 2 or name == "A2"
    if name == "A4-no-common-zero":
        assert stats["stage1_runs"] < stats["passes"] == 8


@pytest.mark.parametrize("path", ["upward", "step", "small blocks"])
@pytest.mark.parametrize("name", list(_ACCEPTANCE))
def test_y4_memo_keeps_every_bit(name, path, monkeypatch):
    # the certificate with the memo against the one that _bisect gives on
    # a stateless _mv_eval, run once per pass, that computes both
    # quantities on every box: the same leaves, undecided boxes and stats,
    # but for the memo's own counts; blocks of 6 columns make most blocks
    # element-bound, which keep one block's columns only
    if path == "step":
        monkeypatch.setattr(intervals, "_FENV", False)
    if path == "small blocks":
        monkeypatch.setattr(intervals, "_PASS_ROWS", 3)
    cert = _ACCEPTANCE[name]()
    run = intervals._Plan.run
    monkeypatch.setattr(intervals._Plan, "run",
                        lambda plan, *inputs, memo=None, need=None: run(plan, *inputs))
    ref = _ACCEPTANCE[name]()
    got, want = dataclasses.asdict(cert), dataclasses.asdict(ref)
    for key in ("stage1_runs", "stage1_columns"):
        assert got["stats"].pop(key) > 0 and want["stats"].pop(key) == 0
    assert got == want and got["leaves"]
    assert cert.stats["rounding"] == ("step" if path == "step" else intervals._rounding())


@pytest.mark.parametrize("branch", ["A", "B"])
def test_y4_memo_recomputes_an_f_plan_column_for_the_whole_plan(branch):
    # the certifier's two plans share one y4 memo: a y4 column that the
    # plan of F's outputs alone computed lacks rows that the whole plan
    # reads, so the whole plan computes it again, while a column of the
    # whole plan serves both; the outputs a box reads have the bits of a
    # run of the whole plan without a memo
    import pentacc.certify as certify
    plan = certify._f_plan(branch)
    f_outputs = plan.alone[1]
    boxes = np.array([b.key() for b in _oracle_boxes(np.random.default_rng(39), branch, 40)]).T
    y, a = IntervalArray(*boxes[:2]), IntervalArray(*boxes[2:])
    want = plan.run(y, a)

    def check(memo, need) -> None:
        got = plan.run(y, a, memo=memo, need=need)
        f_alone = (need == 1).all()
        for i, (g, w) in enumerate(zip(got, want)):
            if f_alone and i not in f_outputs:
                assert np.isnan(g.lo).all() and np.isnan(g.hi).all()
                continue
            for x, z in ((g.lo, w.lo), (g.hi, w.hi)):
                np.testing.assert_array_equal(x.view(np.int64), z.view(np.int64))
    ones = np.ones(40, dtype=int)
    mixed = np.where(np.arange(40) % 2 == 0, 1, 2)
    memo = intervals._Y4Memo()
    check(memo, ones)
    assert memo.runs == 1 and set(memo.whole.values()) == {False}
    computed = memo.columns
    check(memo, ones)
    assert memo.runs == 1
    check(memo, mixed)
    assert memo.runs == 2 and memo.columns == 2 * computed
    assert set(memo.whole.values()) == {True}
    for need in (ones, 2 * ones, 3 * ones, mixed):
        check(memo, need)
    assert memo.runs == 2
    # a column of the whole plan serves the plan of F's outputs alone
    memo = intervals._Y4Memo()
    check(memo, 3 * ones)
    check(memo, ones)
    assert memo.runs == 1 and memo.columns == computed


@pytest.mark.parametrize("pass_rows", [128, 3])
def test_an_f_sign_zone_and_a_no_common_zero_zone_in_one_frontier(pass_rows, monkeypatch):
    # no certificate puts them together: the boxes of an F-sign zone need F
    # alone (1) and those of a no-common-zero zone both quantities (3), so
    # blocks that hold both run the whole plan; each zone's leaves and
    # undecided boxes are those of bisecting it alone, in blocks of 256
    # columns and of 6
    from pentacc.certify import _sign_decider
    from pentacc.symmetric import _locate_crossing
    monkeypatch.setattr(intervals, "_PASS_ROWS", pass_rows)
    window = window_for("A", "A2")
    c1, _, lo_sign, _ = _locate_crossing(window, (2.0, 3.0), "A")
    zones = [(_sign_decider("F", lo_sign), [(window[0], c1, 2.0, 3.0)]),
             (_no_common_zero_decider, [(*window_for("A", "A4", inset=1e-9), 2.0, 3.3)])]
    needs, memo = [], intervals._Y4Memo()

    def evaluate(*bounds, need):
        needs.append(need)
        return _mv_eval(*bounds, "A", memo=memo, need=need)
    leaves, undecided, _ = _bisect(zones, evaluate, 12)
    width = 2 * pass_rows
    assert any({1, 3} <= set(need[c0:c0 + width].tolist())
               for need in needs for c0 in range(0, need.size, width))
    for decide, [(ylo, yhi, alo, ahi)] in zones:
        alone = _bisect([(decide, [(ylo, yhi, alo, ahi)])],
                        partial(_mv_eval, branch="A", memo=intervals._Y4Memo()), 12)

        def mine(boxes) -> list:
            return sorted((l for l in boxes if ylo <= l.y4[0] and l.y4[1] <= yhi),
                          key=_leaf_order)
        assert mine(leaves) == sorted(alone[0], key=_leaf_order) and alone[0]
        assert mine(undecided) == sorted(alone[1], key=_leaf_order)
    assert undecided


def test_box_evaluation_memory_is_bounded():
    # a pass of 20,000 boxes holds its jets' five slots and a register file
    # of one block, not every intermediate jet of F over every column
    import tracemalloc
    lo, hi = window_for("B", "B2", inset=1e-6)
    edges = np.linspace(lo, hi, 20001)
    boxes = (edges[:-1], edges[1:], np.full(20000, 2.0), np.full(20000, 6.0))
    _mv_eval(*(b[:4] for b in boxes), "B")
    tracemalloc.start()
    try:
        ev = _mv_eval(*boxes, "B")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ev.f.valid & ev.df.valid).sum() > 19_000
    assert peak < 32e6


def test_y4_memo_memory_is_bounded(monkeypatch):
    # after each pass of B2 the memo holds the pass's columns and their
    # halves at most; a 20,000-box pass through a certificate's evaluator,
    # whose full blocks are element-bound, keeps few columns and stays under
    # the bound of test_box_evaluation_memory_is_bounded
    import tracemalloc
    passes = _recorded_passes(monkeypatch)
    _ACCEPTANCE["B2"]()
    for _, read, _, memo in passes:
        assert len(memo.keys) == memo.lo.shape[1] <= 3 * len(read)
    monkeypatch.undo()
    lo, hi = window_for("B", "B2", inset=1e-6)
    edges = np.linspace(lo, hi, 20001)
    boxes = (edges[:-1], edges[1:], np.full(20000, 2.0), np.full(20000, 6.0))
    memo = intervals._Y4Memo()
    _mv_eval(*(b[:4] for b in boxes), "B", memo=memo)
    tracemalloc.start()
    try:
        ev = _mv_eval(*boxes, "B", memo=memo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ev.f.valid & ev.df.valid).sum() > 19_000
    assert peak < 32e6
    # one element-bound block's columns, then the short last block's with
    # their halves; each of the 79 blocks ran stage 1 once, after the
    # four boxes before
    block = 2 * intervals._PASS_ROWS
    assert len(memo.keys) <= 2 * block
    assert memo.runs == 1 + -(-20000 // block)


# ---------------------------------------------------------------------------
# structural zeros: the dense jet formulas as the oracle

class DenseJet2:
    """``Jet2`` with every term computed, zeros included, on plan rows."""

    def __init__(self, v, dy=0.0, da=0.0, dyy=0.0, dya=0.0):
        self.v, self.dy, self.da, self.dyy, self.dya = v, dy, da, dyy, dya

    def parts(self) -> tuple:
        return self.v, self.dy, self.da, self.dyy, self.dya

    @staticmethod
    def _parts(x):
        return x.parts() if isinstance(x, DenseJet2) else (x, 0.0, 0.0, 0.0, 0.0)

    def __add__(self, other):
        return DenseJet2(*(p + q for p, q in zip(self.parts(), self._parts(other))))

    __radd__ = __add__

    def __neg__(self):
        return DenseJet2(*(-p for p in self.parts()))

    def __sub__(self, other):
        return self + (-other if isinstance(other, DenseJet2) else -DenseJet2(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        v, dy, da, dyy, dya = self._parts(other)
        return DenseJet2(
            self.v * v,
            self.dy * v + self.v * dy,
            self.da * v + self.v * da,
            self.dyy * v + 2.0 * (self.dy * dy) + self.v * dyy,
            self.dya * v + self.dy * da + self.da * dy + self.v * dya)

    __rmul__ = __mul__

    def _pow_const(self, c):
        p1 = c * self.v ** (c - 1.0)
        p2 = c * (c - 1.0) * self.v ** (c - 2.0)
        return DenseJet2(self.v ** c, p1 * self.dy, p1 * self.da,
                         p2 * (self.dy * self.dy) + p1 * self.dyy,
                         p2 * (self.dy * self.da) + p1 * self.dya)

    def __pow__(self, exponent):
        if isinstance(exponent, DenseJet2):
            return (exponent * self.log()).exp()
        return self._pow_const(float(exponent))

    def __truediv__(self, other):
        if isinstance(other, DenseJet2):
            return self * other._pow_const(-1.0)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._pow_const(-1.0) * other

    def sqrt(self):
        return self._pow_const(0.5)

    def exp(self):
        e = self.v.exp()
        return DenseJet2(e, e * self.dy, e * self.da, e * (self.dyy + self.dy * self.dy),
                         e * (self.dya + self.dy * self.da))

    def log(self):
        inv = 1.0 / self.v
        return DenseJet2(self.v.log(), inv * self.dy, inv * self.da,
                         inv * self.dyy - (inv * self.dy) * (inv * self.dy),
                         inv * self.dya - (inv * self.dy) * (inv * self.da))

    def __abs__(self):
        # a float part, a zero included, is a point row of the abs kernel
        return DenseJet2(*(self.v._abs_part(c) for c in self.parts()))


def _traced_slots(formula, *inputs: IntervalArray) -> list:
    """The slots that ``formula`` returns on rows, traced into one plan and
    run on the inputs: a row slot as the IntervalArray the plan outputs, a
    float slot as the float."""
    slots = []

    def traced(*rows):
        slots.extend(formula(*rows))
        return slots
    got = _trace(traced, len(inputs)).run(*inputs)
    return [s if isinstance(s, float) else g for s, g in zip(slots, got)]


def _assert_sparse_inside_dense(sparse: tuple, dense: tuple) -> None:
    """Each sparse component lies inside the dense one where that is valid,
    and on the elements where the value is valid the two jets have all
    their components valid in the same places, as the whole-box jet of
    ``_mv_eval`` must."""
    n = dense[0].lo.size
    value_ok = sparse[0].valid & dense[0].valid
    sparse_ok, dense_ok = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    for s, d in zip(sparse, dense):
        if isinstance(s, float):
            assert s == 0.0
            s = IntervalArray(np.zeros(n), np.zeros(n))
        ok = d.valid
        assert s.valid[ok].all()
        assert (d.lo[ok] <= s.lo[ok]).all() and (s.hi[ok] <= d.hi[ok]).all()
        sparse_ok &= s.valid
        dense_ok &= ok
    np.testing.assert_array_equal(sparse_ok[value_ok], dense_ok[value_ok])


@pytest.mark.parametrize("branch", ["A", "B"])
def test_structural_zeros_are_sound_and_kept(branch):
    rng = np.random.default_rng(2011 if branch == "A" else 2012)
    ylo, yhi, alo, ahi = np.array([b.key() for b in _oracle_boxes(rng, branch, 1000)]).T
    y, a = IntervalArray(ylo, yhi), IntervalArray(alo, ahi)
    # at the box midpoints, as the certifier's center jet runs, and over the boxes
    for at in (lambda row: row.mid, lambda row: row):
        sparse = _traced_slots(lambda y, a: Jet2._parts(
            F(Jet2.variable_y(at(y)), a_exp=Jet2.variable_a(at(a)), branch=branch)), y, a)
        dense = _traced_slots(lambda y, a: F(
            DenseJet2(at(y), 1.0), a_exp=DenseJet2(at(a), 0.0, 1.0), branch=branch).parts(),
            y, a)
        _assert_sparse_inside_dense(sparse, dense)
    # the root scan's jet in y4 alone, at a float exponent
    for a_exp in (2.5, 3.0):
        sparse = _traced_slots(lambda y: Jet2._parts(F_dual(y, a_exp, branch)), y)
        dense = _traced_slots(lambda y: F(DenseJet2(y, 1.0), a_exp, branch).parts(), y)
        _assert_sparse_inside_dense(sparse, dense)
    # the areas and distances depend on y4 alone: no a-derivative is computed
    trace = intervals._Trace(2)
    y_row, a_row = (intervals._Row(trace, ("in", i)) for i in range(2))
    terms = family_terms(Jet2.variable_y(y_row), branch, a_exp=Jet2.variable_a(a_row))
    for name in ("d123", "d124", "d134", "d135", "d145", "d345", "r13", "r14", "r35"):
        assert type(terms[name].da) is float and terms[name].da == 0.0, name
        assert type(terms[name].dya) is float and terms[name].dya == 0.0, name
    for name in ("R13", "R14", "R35"):
        assert isinstance(terms[name].da, intervals._Row), name
