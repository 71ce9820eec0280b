"""Interval certification of uniqueness and bifurcation absence."""

import hashlib
import json
import math

import numpy as np
import pytest

from pentacc.geometry import (
    OutOfDomainError,
    branch_radicand,
    collinear_endpoint_y4,
    family_terms,
    regular_pentagon_y4,
    square_endpoint_y4,
)
import pentacc.intervals as intervals
from pentacc.intervals import (Box, Interval, IntervalArray, IntervalDomainError, Jet2,
                               _BoxEval, _VERDICTS, _bisect, _leaf, _stats, split_bounds)
from pentacc.certify import (
    _mv_eval,
    certify_no_common_zero,
    certify_unique_root,
    eval_F_interval,
)
from pentacc.symmetric import F, F_dual, scan_branch, window_for


def F_prime(y4: float, a_exp, branch: str = "A") -> float:
    """dF/dy4 at a point, by forward-mode dual numbers."""
    return F_dual(y4, a_exp, branch).dot


def thin_box(y4: float, a_exp: float) -> Box:
    # the sampled exponents are exactly representable; y4 landmarks are not
    return Box(Interval.around(y4), Interval.point(a_exp))


@pytest.mark.parametrize("a_exp", [2.0, 3.0, 6.0])
def test_thin_interval_endpoint_signs(a_exp):
    f_sq, _ = eval_F_interval(thin_box(square_endpoint_y4(), a_exp), "A")
    assert f_sq.strictly_positive()
    f_col, _ = eval_F_interval(thin_box(collinear_endpoint_y4(), a_exp), "A")
    assert f_col.strictly_negative()


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
    from pentacc.geometry import Y4_MAX
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
    # F = 0 (or NaN) at the window's lower end gives no sign to claim for
    # the first zone: the certifier reports that at once, and bisects nothing
    import pentacc.certify as certify

    def zero_at_lower_end(y4, *args, **kwargs):
        out = F(y4, *args, **kwargs)
        if isinstance(out, np.ndarray):
            out = out.copy()
            out[0] = 0.0
        return out
    monkeypatch.setattr(certify, "F", zero_at_lower_end)
    assert certify._locate_crossing(window_for("A", "A2"), (2.0, 3.0), "A")[2] == 0
    cert = certify_unique_root(window_for("A", "A2"), (2.0, 3.0), "A")
    assert not cert.certified and not cert.leaves
    assert cert.detail == "no interior sign crossing found to isolate"
    assert cert.stats["passes"] == 0


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
    c1, _, lo_sign = certify._locate_crossing(w, (2.0, 3.0), "A")
    # a strip left of the crossing: the right zone claims sign -lo_sign on
    # boxes left of the root, where F has the strict sign lo_sign
    s1, s2 = w[0] + 0.3 * (c1 - w[0]), w[0] + 0.6 * (c1 - w[0])
    monkeypatch.setattr(certify, "_locate_crossing", lambda *args: (s1, s2, lo_sign))
    cert = certify_unique_root(w, (2.0, 3.0), "A", max_depth=8)
    assert not cert.certified
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
# than depths.
@pytest.mark.parametrize("build, leaves, box_evals, max_depth, passes, digest", [
    (_ACCEPTANCE["A2"], 39, 75, 6, 3,
     "acba8116764ae55904636f9d37913619150b70c87debed28c245187d62d92a95"),
    (_ACCEPTANCE["A4-no-common-zero"], 194, 387, 11, 8,
     "b5dbe57d0893d25b792cd10414882bd00d14e18132d351f0a992728d03b63128"),
    (_ACCEPTANCE["B2"], 1985, 3967, 28, 26,
     "5c93acc1548e9a4b016a9259f37461b6e3776b8f690649b7a28209d65bb9b46d"),
], ids=list(_ACCEPTANCE))
def test_acceptance_certificates_pinned(build, leaves, box_evals, max_depth, passes, digest):
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
    assert cert.to_json()["stats"] == stats


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


def _bisect_by_depth(zones, evaluate, max_depth: int, floor: float) -> tuple:
    """The reference for ``intervals._bisect``: the same bisection, with one
    ``evaluate`` call and one call of each decider per depth, on that
    depth's frontier alone.  Its stats count one pass per depth."""
    leaves, undecided, evals, leaf_depths = [], [], [], []
    by_verdict = dict.fromkeys(_VERDICTS, 0)
    zone = np.array([z for z, (_, seeds) in enumerate(zones) for _ in seeds], dtype=int)
    bounds = np.array([s for _, seeds in zones for s in seeds], dtype=float).reshape(-1, 4).T
    domain = straddle = depth = 0
    while zone.size:
        ev = evaluate(*bounds)
        verdict, coord = np.zeros(zone.size, dtype=int), np.zeros(zone.size, dtype=int)
        straddles = np.zeros(zone.size, dtype=bool)
        for z, (decide, _) in enumerate(zones):
            mine = zone == z
            for out, mask in zip((verdict, coord, straddles), decide(ev)):
                np.copyto(out, mask, where=mine)
        verdict[~ev.ok] = coord[~ev.ok] = 0
        evals.append(int(zone.size))
        rows = bounds.T.tolist()
        for i in np.flatnonzero(verdict).tolist():
            leaves.append(_leaf(rows[i], _VERDICTS[verdict[i]]))
        lower, upper = (np.stack(h) for h in split_bounds(*bounds, coord))
        stuck = (lower == bounds).all(axis=0) | (upper == bounds).all(axis=0)
        open_ = verdict == 0
        kept = open_ & ((bounds[1] - bounds[0] < floor) | (depth >= max_depth) | stuck)
        undecided.extend(_leaf(rows[i], "undecided") for i in np.flatnonzero(kept).tolist())
        domain += int(np.count_nonzero(kept & ~ev.ok))
        straddle += int(np.count_nonzero(kept & ev.ok & straddles))
        codes = np.bincount(verdict[~open_ | kept], minlength=len(_VERDICTS))
        for name, n in zip(_VERDICTS, codes.tolist()):
            by_verdict[name] += n
        leaf_depths.append(int(codes.sum()))
        open_ &= ~kept
        depth += 1
        bounds = np.concatenate([lower[:, open_], upper[:, open_]], axis=1)
        zone = np.concatenate([zone[open_], zone[open_]])
    return leaves, undecided, _stats(evals, domain, straddle, leaf_depths, by_verdict,
                                     len(evals), sum(evals))


def _leaf_order(leaf) -> tuple:
    return (leaf.y4, leaf.a, leaf.verdict)


@pytest.fixture
def checked_bisect(monkeypatch):
    """``_bisect``, checked against ``_bisect_by_depth`` on each call.

    Both run on the same input.  They must agree on the sorted leaves, the
    sorted undecided boxes and every stats field but ``passes`` and
    ``evaluated``; each pass must call the evaluator and then each decider
    once, and evaluate no more than max(frontier, ``_PASS_ROWS``) rows.
    The rows of each pass of the last call are in ``checked_bisect.rows``.
    """
    batches = []
    look_ahead = intervals._look_ahead

    def recording(frontier, levels_left):
        batch = look_ahead(frontier, levels_left)
        batches.append((frontier.shape[1], batch[0].shape[1]))
        return batch
    monkeypatch.setattr(intervals, "_look_ahead", recording)

    def counted(calls: list, tag, fn):
        def wrapped(*args):
            calls.append(tag)
            return fn(*args)
        return wrapped

    def run(zones, evaluate, max_depth: int, floor: float) -> tuple:
        batches.clear()
        calls = []
        got = _bisect([(counted(calls, z, decide), seeds)
                       for z, (decide, seeds) in enumerate(zones)],
                      counted(calls, "evaluate", evaluate), max_depth, floor)
        want = _bisect_by_depth(zones, evaluate, max_depth, floor)
        for mine, ref in zip(got[:2], want[:2]):
            assert sorted(mine, key=_leaf_order) == sorted(ref, key=_leaf_order)
        stats, ref = dict(got[2]), dict(want[2])
        passes, evaluated = stats.pop("passes"), stats.pop("evaluated")
        assert passes <= ref.pop("passes") and evaluated >= ref.pop("evaluated")
        assert stats == ref
        assert calls == ["evaluate", *range(len(zones))] * passes
        assert sum(rows for _, rows in batches) == evaluated
        assert all(rows <= max(frontier, intervals._PASS_ROWS) for frontier, rows in batches)
        run.rows = [rows for _, rows in batches]
        return got
    return run


def _never_decided(ylo, yhi, alo, ahi) -> _BoxEval:
    """A box evaluator whose F and dF enclosures always straddle zero."""
    both = IntervalArray(np.full(ylo.size, -1.0), np.full(ylo.size, 1.0))
    on_y, ok = np.zeros(ylo.size, dtype=int), np.ones(ylo.size, dtype=bool)
    return _BoxEval(both, both, on_y, on_y, ok)


def _never_ok(ylo, yhi, alo, ahi) -> _BoxEval:
    """A box evaluator that encloses nothing: no box is ``ok``."""
    ev = _never_decided(ylo, yhi, alo, ahi)
    return _BoxEval(ev.f, ev.df, ev.hint_f, ev.hint_df, ~ev.ok)


def _open_decider(ev) -> tuple:
    n = ev.ok.size
    return np.zeros(n, dtype=int), np.ones(n, dtype=int), np.ones(n, dtype=bool)


def test_bisect_width_floor_depth_cap_and_one_decider_call_per_pass(checked_bisect):
    # y4 width 2**-45 falls below the floor 1e-15 after 5 halvings (2**-50),
    # so the floor stops the split before the depth cap of 8; the boxes have
    # no A-width, so each box has two candidates, and one pass of
    # 1 + 2 + ... + 64 rows covers every depth
    seed = (0.5, 0.5 + 2.0 ** -45, 3.0, 3.0)
    leaves, undecided, stats = checked_bisect([(_open_decider, [seed])], _never_decided,
                                              8, 1e-15)
    assert not leaves and len(undecided) == 2 ** 5
    assert stats["evals_per_depth"] == [2 ** d for d in range(6)]
    assert stats["max_depth"] == 5 and stats["undecided_straddle"] == 2 ** 5
    assert all(l.y4[1] - l.y4[0] == 2.0 ** -50 and l.a == (3.0, 3.0) for l in undecided)
    assert sorted(l.y4 for l in undecided)[0][0] == seed[0]
    assert stats["passes"] == 1 and checked_bisect.rows == [127]
    # a cap below 5 holds: the boxes stop at the cap, still above the floor,
    # and the look-ahead stops there too
    _, undecided, stats = checked_bisect([(_open_decider, [seed])], _never_decided,
                                         3, 1e-15)
    assert len(undecided) == 2 ** 3 and stats["max_depth"] == 3
    assert all(l.y4[1] - l.y4[0] == 2.0 ** -48 for l in undecided)
    assert checked_bisect.rows == [15]
    # two zones with A-width, floor 0: four candidates a box; each decider
    # runs once per pass, whatever the number of boxes in its zone, and a
    # frontier larger than the row count is evaluated alone
    zones = [(_open_decider, [(0.0, 1.0, 2.0, 3.0)]),
             (_open_decider, [(1.0, 2.0, 2.0, 3.0), (2.0, 3.0, 2.0, 3.0)])]
    _, undecided, stats = checked_bisect(zones, _never_decided, 6, 0.0)
    assert len(undecided) == 3 * 2 ** 6
    assert stats["evals_per_depth"] == [3 * 2 ** d for d in range(7)]
    assert checked_bisect.rows == [3 + 12 + 48, 24 + 96, 96, 192]
    # nothing evaluates: every box is split along y4 down to the cap and
    # counted as not evaluable
    _, undecided, stats = checked_bisect(zones, _never_ok, 5, 0.0)
    assert len(undecided) == stats["undecided_domain"] == 3 * 2 ** 5
    assert all(l.y4[1] - l.y4[0] == 2.0 ** -5 and l.a[1] - l.a[0] == 1.0 for l in undecided)
    assert checked_bisect.rows == [63, 120, 96]


@pytest.mark.parametrize("seed", [
    (0.5, math.nextafter(0.5, 1.0), 3.0, 3.0),   # the y4 midpoint rounds to an end
    (0.5, 0.5, 3.0, math.nextafter(3.0, 4.0)),   # so does the A midpoint
    (0.5, 0.5, 3.0, 3.0),                        # a point
], ids=["y4-ulp", "A-ulp", "point"])
def test_a_box_no_split_can_shrink_stays_undecided(seed, checked_bisect):
    leaves, undecided, stats = checked_bisect([(_open_decider, [seed])], _never_decided,
                                              8, 0.0)
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
                                       _never_decided, 60, 0.0)
    assert not leaves and len(undecided) == stats["undecided_budget"] == 8
    assert stats["evals_per_depth"] == [1, 2, 4, 8] and stats["box_evals"] == 15
    assert stats["leaf_depths"] == [0, 0, 0, 8] and stats["undecided_straddle"] == 8
    assert stats["leaves_by_verdict"] == {"undecided": 8, "F": 0, "dF": 0}
    # a budget of exactly 31 lets that split happen
    monkeypatch.setattr(intervals, "_MAX_TREE_BOXES", 31)
    _, undecided, stats = _bisect([(_open_decider, [(0.0, 1.0, 2.0, 3.0)])],
                                  _never_decided, 60, 0.0)
    assert len(undecided) == stats["undecided_budget"] == 16 and stats["box_evals"] == 31
    # a bisection within the budget has no such field
    _, _, stats = _bisect([(_open_decider, [(0.0, 1.0, 2.0, 3.0)])], _never_decided, 3, 0.0)
    assert "undecided_budget" not in stats and stats["box_evals"] == 15


@pytest.mark.parametrize("name", list(_ACCEPTANCE))
def test_look_ahead_matches_by_depth_on_the_certificates(name, checked_bisect, monkeypatch):
    import pentacc.certify as certify
    monkeypatch.setattr(certify, "_bisect", checked_bisect)
    assert _ACCEPTANCE[name]().certified


@pytest.mark.parametrize("branch, a_exp, runs", [
    ("A", 2.0, [(1, 1), (1, 1)]), ("A", 4.0, [(1, 1), (1, 1)]), ("B", 3.0, [(8, 21)])])
def test_look_ahead_matches_by_depth_on_the_scan_guard(branch, a_exp, runs,
                                                       checked_bisect, monkeypatch):
    import pentacc.symmetric as symmetric
    guards = []

    def record(zones, evaluate, max_depth, floor):
        guards.append((zones, evaluate, max_depth, floor))
        return [], [], _stats()
    monkeypatch.setattr(symmetric, "_bisect", record)
    scan_branch(branch, a_exp)
    # one guard per window with seeds; (passes, depths) at the scan's cap
    got = []
    for zones, evaluate, max_depth, floor in guards:
        assert (max_depth, floor) == (24, 1e-15)
        for cap in range(max_depth + 1):
            stats = checked_bisect(zones, evaluate, cap, floor)[2]
        got.append((stats["passes"], len(stats["evals_per_depth"])))
    assert got == runs


def _scalar_box_eval(box: Box, branch: str) -> tuple:
    """One box with the scalar classes: (f, df, hint_f, hint_df).

    The reference for the batched kernel: Jet2(Interval) at the center and
    over the box give the mean-value form, the whole-box jet's value and
    y-derivative the natural form, and the two are intersected.  A scalar
    jet pass fails as a whole, so the whole-box jet runs first; where it
    raises, or the radicand dips below zero, the box is not evaluable and
    the oracle raises too.
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
        center = F(Jet2.variable_y(Interval.around(my)), branch=branch,
                   a_exp=Jet2.variable_a(Interval.around(ma)))
        off_y, off_a = box.y4 - my, box.a - ma
        mv = (center.v + wide.dy * off_y + wide.da * off_a,
              center.dy + wide.dyy * off_y + wide.dya * off_a)
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
def test_batched_box_eval_matches_scalar_oracle(branch):
    rng = np.random.default_rng(2011 if branch == "A" else 2012)
    boxes = _oracle_boxes(rng, branch, 1000)
    ev = _mv_eval(*np.array([b.key() for b in boxes]).T, branch)
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
    np.testing.assert_array_equal(~ev.ok, failed)
    got = np.stack([ev.f.lo, ev.f.hi, ev.df.lo, ev.df.hi], axis=1)
    np.testing.assert_array_equal(got[ev.ok].view(np.int64), want[ev.ok].view(np.int64))
    np.testing.assert_array_equal(np.stack([ev.hint_f, ev.hint_df], axis=1)[ev.ok],
                                  hints[ev.ok])


def test_one_jet_pass_per_frontier(monkeypatch):
    import pentacc.certify as certify
    assert not hasattr(certify, "F_dual") and not hasattr(certify, "Dual")
    calls, runs = [], []

    def counting_F(*args, **kwargs):
        calls.append(type(args[0]).__name__)
        return F(*args, **kwargs)

    def counting_run(plan, *inputs):
        runs.append(inputs[0].lo.size)
        return run(plan, *inputs)
    run = intervals._Plan.run
    monkeypatch.setattr(certify, "F", counting_F)
    monkeypatch.setattr(intervals._Plan, "run", counting_run)
    boxes = np.array([b.key() for b in _oracle_boxes(np.random.default_rng(2011), "A", 50)]).T
    # F is traced once per branch, on a jet of rows; later evaluations only
    # run the plan, once over the 50 centers and the 50 whole boxes
    certify._f_plan.cache_clear()
    ev = _mv_eval(*boxes, "A")
    assert calls == ["Jet2"] and runs == [100] and ev.ok.size == 50
    ev = _mv_eval(*boxes, "A")
    assert calls == ["Jet2"] and runs == [100, 100]
    # a certificate runs the plan once per pass of its bisection, and a
    # pass covers several of its 12 depths
    runs.clear()
    cert = _ACCEPTANCE["A4-no-common-zero"]()
    assert len(cert.stats["evals_per_depth"]) == 12
    assert calls == ["Jet2"] and len(runs) == cert.stats["passes"] == 8


@pytest.mark.parametrize("branch", ["A", "B"])
def test_no_plan_step_writes_a_row_it_reads(branch):
    import pentacc.certify as certify
    plan = certify._f_plan(branch)
    for _, _, start, stop, *args in plan.steps:
        written = set(range(start, stop))
        for rows in args:
            read = range(plan.size)[rows] if isinstance(rows, slice) else rows.tolist()
            assert written.isdisjoint(read)


@pytest.mark.parametrize("branch", ["A", "B"])
def test_column_blocks_cannot_change_a_bit(branch, monkeypatch):
    # a plan runs its columns in blocks of 2 * _PASS_ROWS; blocks of 6
    # columns leave a short last block and split the 200 centers from the
    # 200 whole boxes inside a block
    boxes = np.array([b.key() for b in _oracle_boxes(np.random.default_rng(7), branch, 200)]).T
    want = _mv_eval(*boxes, branch)
    monkeypatch.setattr(intervals, "_PASS_ROWS", 3)
    got = _mv_eval(*boxes, branch)
    np.testing.assert_array_equal(got.ok, want.ok)
    for g, w in ((got.f, want.f), (got.df, want.df)):
        for x, y in ((g.lo, w.lo), (g.hi, w.hi)):
            np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))
    np.testing.assert_array_equal(got.hint_f, want.hint_f)
    np.testing.assert_array_equal(got.hint_df, want.hint_df)


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
    assert ev.ok.sum() > 19_000
    assert peak < 32e6


# ---------------------------------------------------------------------------
# structural zeros: the dense jet and dual formulas as the oracle

def _dense_abs_parts(v, parts) -> list:
    neg = v.hi < 0.0
    straddle = ~neg & ~(v.lo >= 0.0)
    out = []
    for c in parts:
        c = IntervalArray._coerce(c)
        lo, hi = np.where(neg, -c.hi, c.lo), np.where(neg, -c.lo, c.hi)
        out.append(IntervalArray(np.where(straddle, np.nan, lo),
                                 np.where(straddle, np.nan, hi)))
    return out


class DenseJet2:
    """``Jet2`` with every term computed, zeros included, on IntervalArray."""

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
        return DenseJet2(*_dense_abs_parts(self.v, self.parts()))


class DenseDual:
    """``Dual`` with every term computed, zeros included, on IntervalArray."""

    def __init__(self, val, dot=0.0):
        self.val, self.dot = val, dot

    @staticmethod
    def _parts(x):
        return (x.val, x.dot) if isinstance(x, DenseDual) else (x, 0.0)

    def __add__(self, other):
        v, d = self._parts(other)
        return DenseDual(self.val + v, self.dot + d)

    __radd__ = __add__

    def __neg__(self):
        return DenseDual(-self.val, -self.dot)

    def __sub__(self, other):
        v, d = self._parts(other)
        return DenseDual(self.val - v, self.dot - d)

    def __rsub__(self, other):
        v, d = self._parts(other)
        return DenseDual(v - self.val, d - self.dot)

    def __mul__(self, other):
        v, d = self._parts(other)
        return DenseDual(self.val * v, self.dot * v + self.val * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v, d = self._parts(other)
        q = self.val / v
        return DenseDual(q, (self.dot - q * d) / v)

    def __rtruediv__(self, other):
        v, d = self._parts(other)
        q = v / self.val
        return DenseDual(q, (d - q * self.dot) / self.val)

    def sqrt(self):
        r = self.val.sqrt()
        return DenseDual(r, self.dot / (2.0 * r))

    def __abs__(self):
        return DenseDual(*_dense_abs_parts(self.val, (self.val, self.dot)))

    def __pow__(self, exponent):
        return DenseDual(self.val ** exponent,
                         exponent * (self.val ** (exponent - 1.0)) * self.dot)


def _assert_sparse_inside_dense(sparse: tuple, dense: tuple) -> None:
    """Each sparse component lies inside the dense one where that is valid,
    and the two pass the all-components validity test of ``_mv_eval`` on
    the same elements where the value is valid."""
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
    for yy, aa in ((IntervalArray.around(y.mid), IntervalArray.around(a.mid)), (y, a)):
        sparse = F(Jet2.variable_y(yy), a_exp=Jet2.variable_a(aa), branch=branch)
        dense = F(DenseJet2(yy, 1.0), a_exp=DenseJet2(aa, 0.0, 1.0), branch=branch)
        _assert_sparse_inside_dense(
            (sparse.v, sparse.dy, sparse.da, sparse.dyy, sparse.dya), dense.parts())
    one = IntervalArray.point(np.ones(y.lo.size))
    sparse, dense = F_dual(y, a, branch), F(DenseDual(y, one), a, branch)
    _assert_sparse_inside_dense((sparse.val, sparse.dot), (dense.val, dense.dot))
    # the areas and distances depend on y4 alone: no a-derivative is computed
    terms = family_terms(Jet2.variable_y(y), branch, a_exp=Jet2.variable_a(a))
    for name in ("d123", "d124", "d134", "d135", "d145", "d345", "r13", "r14", "r35"):
        assert type(terms[name].da) is float and terms[name].da == 0.0, name
        assert type(terms[name].dya) is float and terms[name].dya == 0.0, name
    for name in ("R13", "R14", "R35"):
        assert isinstance(terms[name].da, IntervalArray), name
