"""The benchmark's workloads: operations, seeded inputs and reference checks.

Each operation is one call (or a short fixed sequence of calls) into
pentacc's public API.  ``draw`` makes the operation's seeded inputs outside
the timed region, ``run`` is the timed call, and ``check`` compares the
output with a reference and returns ``None`` when it is correct or a short
reason when it is not.  A failed check is counted, never raised.

The problems are fixed because they are the paper's claims; the seed sets
the order of operations within a pass and the tropical rays.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

from pentacc import certify, cli, symmetric, tropical
from pentacc.geometry import regular_pentagon_y4
from pentacc.intervals import Box, Interval
from pentacc.symmetric import (
    QUARTIC_MASS_POLY,
    VORTEX_MASS_POLY,
    verify_mass_polynomial,
    window_for,
)

# Public entry points the operations call.  In the traced run each one is
# wrapped so that the call opens a span in the callee's layer.
ENTRY_POINTS = {
    "certify_unique_root": certify.certify_unique_root,
    "certify_no_common_zero": certify.certify_no_common_zero,
    "scan_branch": symmetric.scan_branch,
    "bifurcation_scan": symmetric.bifurcation_scan,
    "exclude_sign_types": symmetric.exclude_sign_types,
    "verify_tables": tropical.verify_tables,
    "build_system": tropical.build_system,
    "in_prevariety": tropical.in_prevariety,
    "cli_main": cli.main,
}


def layer_of(fn) -> str:
    return fn.__module__.rpartition(".")[2]


def make_api(tracer=None) -> SimpleNamespace:
    """The entry points, each wrapped in a span when a tracer is given."""
    if tracer is None:
        return SimpleNamespace(**ENTRY_POINTS)
    return SimpleNamespace(**{
        name: tracer.wrap(layer_of(fn), f"{fn.__module__}.{fn.__name__}", fn)
        for name, fn in ENTRY_POINTS.items()})


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable                                   # (api, inputs) -> output, timed
    check: Callable                                 # (output, inputs) -> None | reason
    draw: Callable = lambda rng: None               # seeded inputs, untimed


# ---------------------------------------------------------------------------
# certify: the three acceptance certificates

CERT_NAMES = ("a2", "a4_ncz", "b2")
CERT_STAT_KEYS = ("leaves", "undecided", "max_depth", "box_evals", "edge_leaves")

# leaf counts at the seed commit; a change that alters the leaf set on
# purpose updates them in a change to the benchmark
SEED_LEAVES = {"a2": 39, "a4_ncz": 194, "b2": 1985}
EDGE_DISTANCE = 1e-3


def _cert_a2(api, _):
    return api.certify_unique_root(window_for("A", "A2"), (2.0, 3.0), branch="A")


def _cert_a4_ncz(api, _):
    w = window_for("A", "A4", inset=1e-9)
    return api.certify_no_common_zero(Box(Interval(*w), Interval(2.0, 3.0)),
                                      branch="A")


def _cert_b2(api, _):
    return api.certify_unique_root(window_for("B", "B2", inset=1e-6), (2.0, 6.0),
                                   branch="B", max_depth=80)


class NoTree(ValueError):
    """The leaves do not form a bisection tree of the zone."""


def rebuild_tree(zone: tuple, boxes: list) -> tuple:
    """(nodes, depth) of the bisection tree whose leaves are ``boxes``.

    Boxes are (y_lo, y_hi, a_lo, a_hi).  A node is split at the midpoint of
    one coordinate, the rule of ``Interval.split``; the coordinate is the
    one whose midline no leaf crosses.  Raises NoTree when the leaves do not
    tile ``zone`` that way.
    """
    if len(boxes) == 1 and boxes[0] == zone:
        return 1, 0
    for c in (0, 2):
        mid = 0.5 * (zone[c] + zone[c + 1])
        if any(b[c] < mid < b[c + 1] for b in boxes):
            continue
        low = [b for b in boxes if b[c + 1] <= mid]
        high = [b for b in boxes if b[c] >= mid]
        if not low or not high:
            continue
        low_zone, high_zone = list(zone), list(zone)
        low_zone[c + 1] = high_zone[c] = mid
        try:
            n1, d1 = rebuild_tree(tuple(low_zone), low)
            n2, d2 = rebuild_tree(tuple(high_zone), high)
        except NoTree:
            continue
        return 1 + n1 + n2, 1 + max(d1, d2)
    raise NoTree(f"{len(boxes)} leaves do not bisect {zone}")


def cert_zones(cert) -> list:
    """The boxes a certificate bisects, as (y_lo, y_hi, a_lo, a_hi).

    A unique-root certificate splits its window at a heuristic strip
    (c1, c2) that it does not publish; the strip is the y-extent of the
    derivative ("dF") leaves.
    """
    (w0, w1), (a0, a1) = cert.window, cert.a_range
    if cert.kind != "unique_root":
        return [(w0, w1, a0, a1)]
    strip = [l.y4 for l in cert.leaves if l.verdict == "dF"]
    if not strip:
        raise NoTree("no derivative leaves locate the middle zone")
    c1, c2 = min(y[0] for y in strip), max(y[1] for y in strip)
    return [(w0, c1, a0, a1), (c1, c2, a0, a1), (c2, w1, a0, a1)]


def cert_stats(cert) -> dict:
    """Counts read from a certificate's public leaf lists.

    ``box_evals`` is the node count of the rebuilt bisection trees, 2L - Z
    for L leaves in Z zones: the certifier evaluates every node once.
    """
    boxes = [(l.y4[0], l.y4[1], l.a[0], l.a[1]) for l in cert.leaves + cert.undecided]
    zones = cert_zones(cert)
    nodes = depth = 0
    for z in zones:
        inside = [b for b in boxes if z[0] <= b[0] and b[1] <= z[1]]
        n, d = rebuild_tree(z, inside)
        nodes, depth = nodes + n, max(depth, d)
    if 2 * len(boxes) - len(zones) != nodes:
        raise NoTree(f"{len(boxes)} leaves do not lie in {len(zones)} zones")
    lo, hi = cert.window
    return {
        "leaves": len(cert.leaves),
        "undecided": len(cert.undecided),
        "max_depth": depth,
        "box_evals": nodes,
        "edge_leaves": sum(1 for b in boxes
                           if min(b[0] - lo, hi - b[1]) <= EDGE_DISTANCE),
    }


def _cert_check(name):
    def check(cert, _):
        if not cert.certified:
            return f"not certified ({cert.detail})"
        try:
            st = cert_stats(cert)
        except NoTree as exc:
            return f"leaves do not rebuild into bisection trees: {exc}"
        if st["leaves"] != SEED_LEAVES[name]:
            return f"{st['leaves']} leaves, seed reference {SEED_LEAVES[name]}"
        return None
    return check


def certify_ops(ctx) -> list:
    return [Op("a2", _cert_a2, _cert_check("a2")),
            Op("a4_ncz", _cert_a4_ncz, _cert_check("a4_ncz")),
            Op("b2", _cert_b2, _cert_check("b2"))]


# ---------------------------------------------------------------------------
# scan: the float/numpy paper checks

def _check_vortex(records, _):
    a2 = [r for r in records if r.sign_type.label == "A2"]
    if len(a2) != 1:
        return f"{len(a2)} A2 roots at A=2, expected 1"
    m4 = a2[0].masses.m4
    res = verify_mass_polynomial(VORTEX_MASS_POLY, m4)
    if abs(m4 - 0.34199) > 1e-4 or not res < 1e-6:
        return f"A2 root m4={m4:.6f}, degree-9 residual {res:.2e}"
    return None


def _check_quartic(records, _):
    p = regular_pentagon_y4()
    roots = [r for r in records if abs(r.y4 - p) > 1e-6]
    res = [verify_mass_polynomial(QUARTIC_MASS_POLY, r.masses.m4) for r in roots]
    if len(roots) != 3 or not all(x < 1e-6 for x in res):
        return f"{len(roots)} non-pentagon roots at A=4, degree-16 residuals {res}"
    return None


def _check_branch_b(records, _):
    b2 = [r for r in records if r.sign_type.label == "B2"]
    if len(records) != 1 or len(b2) != 1:
        return f"{len(records)} roots on branch B at A=3, expected one B2 root"
    r = b2[0]
    if not (abs(r.y4 - 0.363271) <= 1e-6 and r.positive_masses
            and r.sign_change_certified and r.resolved):
        return f"B2 root y4={r.y4:.7f} positive={r.positive_masses} " \
               f"certified={r.sign_change_certified} resolved={r.resolved}"
    return None


def _check_bifurcation(bracket, _):
    lo, hi = bracket
    if not (hi - lo <= 1e-6 and abs(0.5 * (lo + hi) - 3.12036856) <= 1e-3):
        return f"A_c bracket [{lo:.9f}, {hi:.9f}]"
    return None


def _run_exclusions(api, _):
    return [check for a_exp in (2.0, 3.0, 4.0) for branch in ("A", "B")
            for check in api.exclude_sign_types(branch, a_exp)]


def _check_exclusions(checks, _):
    points = sum(c.points_checked for c in checks)
    bad = sum(len(c.counterexamples) for c in checks)
    if bad or points != 3 * 7 * 10000:
        return f"{bad} counterexamples over {points} grid points"
    return None


def scan_ops(ctx) -> list:
    return [Op("scan_vortex", lambda api, _: api.scan_branch("A", 2.0), _check_vortex),
            Op("scan_quartic", lambda api, _: api.scan_branch("A", 4.0), _check_quartic),
            Op("scan_b", lambda api, _: api.scan_branch("B", 3.0), _check_branch_b),
            Op("bifurcation", lambda api, _: api.bifurcation_scan((3.0, 3.3), tol=1e-6),
               _check_bifurcation),
            Op("exclusions", _run_exclusions, _check_exclusions)]


# ---------------------------------------------------------------------------
# regions_tropical: the region map through the CLI, and the exact tables

REGION_GRID = 60
# label histogram of ``region-map --A 3 --grid 60`` at the seed commit
SEED_REGION_LABELS = {"none": 3944, "unrealizable": 2248, "III": 518, "I": 290,
                      "II": 200}
RAY_EXPONENT = Fraction(3)
RAYS_PER_KIND = 4


def _region_map_op(out_prefix: str) -> Op:
    def run(api, _):
        return api.cli_main(["region-map", "--A", "3", "--grid", str(REGION_GRID),
                             "--out", out_prefix])

    def check(code, _):
        if code != 0:
            return f"region-map exited {code}"
        with open(out_prefix + ".csv", newline="") as fh:
            labels = Counter(row["region"] for row in csv.DictReader(fh))
        if dict(labels) != SEED_REGION_LABELS:
            return f"region labels {dict(labels)} differ from the seed's"
        if os.path.getsize(out_prefix + ".svg") == 0:
            return "empty region SVG"
        return None

    return Op("region_map", run, check)


def _check_tables(reports, _):
    failed = [str(r.a_exp) for r in reports if not r.all_passed]
    return f"tables fail at A={failed}" if failed else None


def _draw_rays(table):
    """Seeded rays whose verdicts follow from invariances of the prevariety.

    Scale invariance, single-class rejection and cyclic equivariance are
    unit-tested; reflections are covered by the dihedral multiplicities the
    tables verify.

    - a shipped ray under a dihedral relabeling and a positive rational
      scale lies in the prevariety;
    - a positive multiple of a single-class ray does not, with a witness;
    - membership of an integer ray is invariant under the cyclic relabeling.
    """
    def draw(rng):
        accept, reject, pairs = [], [], []
        for _ in range(RAYS_PER_KIND):
            label = rng.choice(table.rays)[0]
            w = table.ray_weight(label, RAY_EXPONENT)
            for _ in range(rng.randrange(5)):
                w = tropical.cyclic_weight(w)
            if rng.random() < 0.5:
                w = tropical.reflect_weight(w)
            accept.append(w.scaled(Fraction(rng.randint(1, 9), rng.randint(1, 9))))
            single = [0] * 6
            single[rng.randrange(6)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            reject.append(tropical.WeightVector(tuple(single)))
            w = tropical.WeightVector(tuple(rng.randint(-3, 3) for _ in range(6)))
            pairs.append((w, tropical.cyclic_weight(w)))
        return accept, reject, pairs
    return draw


def _run_rays(api, rays):
    accept, reject, pairs = rays
    system = api.build_system(RAY_EXPONENT)
    return ([api.in_prevariety(w, system, RAY_EXPONENT) for w in accept],
            [api.in_prevariety(w, system, RAY_EXPONENT) for w in reject],
            [(api.in_prevariety(w, system, RAY_EXPONENT)[0],
              api.in_prevariety(c, system, RAY_EXPONENT)[0]) for w, c in pairs])


def _check_rays(verdicts, _):
    accept, reject, pairs = verdicts
    if not all(ok for ok, _ in accept):
        return "a scaled dihedral image of a shipped ray was rejected"
    if any(ok or not witness for ok, witness in reject):
        return "a single-class ray was not rejected with a witness"
    if any(a != b for a, b in pairs):
        return "a ray and its cyclic image got different verdicts"
    return None


def regions_tropical_ops(ctx) -> list:
    table = tropical.load_ray_table()
    return [_region_map_op(os.path.join(ctx.tmp_dir, "regions")),
            Op("tables", lambda api, _: [api.verify_tables(Fraction(3)),
                                         api.verify_tables(Fraction(5, 2))],
               _check_tables),
            Op("rays", _run_rays, _check_rays, _draw_rays(table))]


WORKLOADS = {
    "certify": certify_ops,
    "scan": scan_ops,
    "regions_tropical": regions_tropical_ops,
}
