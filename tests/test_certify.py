"""Interval certification of uniqueness and bifurcation absence."""

import json
import math

import numpy as np
import pytest

from pentacc.geometry import (
    OutOfDomainError,
    collinear_endpoint_y4,
    regular_pentagon_y4,
    square_endpoint_y4,
)
from pentacc.intervals import Box, Interval
from pentacc.certify import (
    certify_no_common_zero,
    certify_unique_root,
    eval_F_interval,
)
from pentacc.symmetric import F, F_prime, window_for


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
    p = regular_pentagon_y4()
    for leaf in cert.undecided:
        assert leaf.y4[0] <= p + 0.08 and leaf.y4[1] >= p - 0.08
        assert leaf.a[0] <= 3.125 and leaf.a[1] >= 3.115


def test_certificate_leaves_partition_and_serialize(tmp_path):
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
    path = tmp_path / "cert.json"
    cert.dump(path)
    data = json.loads(path.read_text())
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
