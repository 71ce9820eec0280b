"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as the criteria execute.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from pentacc.geometry import (
    ChainAngles,
    DIAGONALS,
    PAIRS,
    PlanarConfiguration,
    cayley_menger,
    chain_points,
    collinear_endpoint_y4,
    interior_angles,
    mutual_distances,
    regular_pentagon_y4,
    square_endpoint_y4,
)
from pentacc.equations import (
    _two_mass,
    albouy_chenciner_f,
    region_classify,
    symmetric_g,
)
from pentacc.intervals import Box, Interval
from pentacc.certify import (
    certify_no_common_zero,
    certify_unique_root,
    eval_F_interval,
)
from pentacc.symmetric import (
    EXCLUDED_TYPES,
    F,
    F_dual,
    QUARTIC_MASS_POLY,
    VORTEX_MASS_POLY,
    bifurcation_scan,
    exclude_sign_types,
    scan_branch,
    verify_mass_polynomial,
    window_for,
)
from pentacc.tropical import (
    WeightVector,
    build_system,
    in_prevariety,
    verify_tables,
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_vortex_symmetric_solution():
    t0 = time.perf_counter()
    records = scan_branch("A", 2.0)
    a2 = [r for r in records if r.sign_type.label == "A2"]
    elapsed = time.perf_counter() - t0
    ok = len(a2) == 1
    m4 = m3 = float("nan")
    residual = float("inf")
    if ok:
        rec = a2[0]
        m4, m3 = rec.masses.m4, rec.masses.m3
        residual = verify_mass_polynomial(VORTEX_MASS_POLY, m4)
        ok = (abs(m4 - 0.34199) <= 1e-4 and abs(m3 - 2.32) <= 2e-2
              and rec.masses.m5 == rec.masses.m3
              and residual < 1e-6 and elapsed < 10.0)
    _verdict(1, ok, f"vortex m4={m4:.6f}, m3={m3:.4f}, degree-9 residual="
             f"{residual:.2e}, {elapsed:.1f}s")


def test_criterion_2_quartic_mass_polynomial():
    t0 = time.perf_counter()
    records = scan_branch("A", 4.0)
    non_pentagon = [r for r in records
                    if abs(r.y4 - regular_pentagon_y4()) > 1e-6]
    elapsed = time.perf_counter() - t0
    residuals = [verify_mass_polynomial(QUARTIC_MASS_POLY, r.masses.m4)
                 for r in non_pentagon]
    ok = (len(non_pentagon) == 3 and all(res < 1e-6 for res in residuals)
          and elapsed < 10.0)
    _verdict(2, ok, "degree-16 residuals "
             + ", ".join(f"{r:.2e}" for r in residuals) + f", {elapsed:.1f}s")


def test_criterion_3_endpoint_signs():
    exponents = (2.0, 2.5, 3.0, 4.0, 6.0)
    ok = True
    for a_exp in exponents:
        f_sq, _ = eval_F_interval(
            Box(Interval.around(square_endpoint_y4()), Interval.point(a_exp)), "A")
        f_col, _ = eval_F_interval(
            Box(Interval.around(collinear_endpoint_y4()), Interval.point(a_exp)), "A")
        ok = ok and f_sq.lo > 0.0 and f_col.hi < 0.0
    _verdict(3, ok, f"strict interval enclosures at both endpoints for A in "
             f"{exponents}")


def test_criterion_4_certifications():
    t0 = time.perf_counter()
    a2 = certify_unique_root(window_for("A", "A2"), (2.0, 3.0), branch="A")
    t_a2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    b2 = certify_unique_root(window_for("B", "B2", inset=1e-6), (2.0, 6.0),
                             branch="B", max_depth=80)
    t_b2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    w = window_for("A", "A4", inset=1e-9)
    ncz = certify_no_common_zero(Box(Interval(*w), Interval(2.0, 3.0)),
                                 branch="A")
    t_ncz = time.perf_counter() - t0
    ok = (a2.certified and t_a2 < 300.0
          and b2.certified and t_b2 < 300.0
          and ncz.certified and t_ncz < 300.0)
    _verdict(4, ok, f"A2x[2,3] {a2.certified} ({t_a2:.1f}s), "
             f"B2x[2,6] {b2.certified} ({t_b2:.1f}s), "
             f"A4 no-common-zero x[2,3] {ncz.certified} ({t_ncz:.1f}s)")


def test_criterion_5_bifurcation():
    t0 = time.perf_counter()
    lo, hi = bifurcation_scan((3.0, 3.3), tol=1e-6)
    # the certified enclosure at tol 1e-12, by interval Newton
    clo, chi = bifurcation_scan((3.0, 3.3), tol=1e-12)
    elapsed = time.perf_counter() - t0
    mid = 0.5 * (lo + hi)
    ok = (hi - lo <= 1e-6 and abs(mid - 3.12036856) <= 1e-3
          and chi - clo <= 1e-12 and lo <= clo <= chi <= hi
          and elapsed < 120.0)
    _verdict(5, ok, f"A_c in [{lo:.8f}, {hi:.8f}] "
             f"(reference 3.12036856), certified in [{clo!r}, {chi!r}] "
             f"of width {chi - clo:.3g}, {elapsed:.1f}s")


def test_criterion_6_sign_type_exclusions():
    total = 0
    counterexamples = 0
    for a_exp in (2.0, 3.0, 4.0):
        for branch in ("A", "B"):
            for check in exclude_sign_types(branch, a_exp):
                total += check.points_checked
                counterexamples += len(check.counterexamples)
    ok = counterexamples == 0 and total == 3 * 7 * 10000
    _verdict(6, ok, f"{total} grid points over 7 excluded types x 3 exponents, "
             f"{counterexamples} counterexamples")


def test_criterion_7_tropical_tables():
    from fractions import Fraction
    import random
    t0 = time.perf_counter()
    passed = []
    for a_exp in (Fraction(3), Fraction(5, 2)):
        report = verify_tables(a_exp)
        passed.append(report.all_passed)
    system = build_system(Fraction(3))
    random.seed(7)
    rejects = 0
    for _ in range(10):
        w = WeightVector(tuple(random.randint(-3, 3) for _ in range(6)))
        if not in_prevariety(w, system, Fraction(3))[0]:
            rejects += 1
    elapsed = time.perf_counter() - t0
    ok = all(passed) and rejects == 10 and elapsed < 60.0
    _verdict(7, ok, f"tables pass at A=3 and A=5/2: {passed}, random rejects "
             f"{rejects}/10, {elapsed:.1f}s")


_VERTEX_SHIFTS = (np.arange(5) + np.arange(5)[:, None]) % 5
_DIAGONAL_COLS = [PAIRS.index(e) for e in DIAGONALS]


def _path_convex(points) -> np.ndarray:
    """Convex as a traversed polygon, per row of an (N, 5, 2) stack: winding
    one, no reflex interior angle."""
    # the angles at vertices 2, 3, 4, 5, 1: each is the angle (1, 2, 3) of
    # the cyclic relabeling that moves that vertex to position 2
    shifted = points[:, _VERTEX_SHIFTS].reshape(-1, 5, 2)
    thetas = interior_angles(shifted, 1, 2, 3).reshape(-1, 5)
    total = 0.0
    for column in thetas.T:  # in order, as the sum of a row's five floats
        total = total + column
    convex = np.all(thetas < math.pi - 1e-9, axis=1)
    reflex = np.all(thetas > math.pi + 1e-9, axis=1)
    return ((convex & (np.abs(total - 3 * math.pi) < 1e-9))
            | (reflex & (np.abs(total - 7 * math.pi) < 1e-9)))


def test_criterion_8_lemma_convex_diagonals():
    # the draws of a loop that builds one chain per attempt, in its order,
    # classified in one batch: the first 10,000 convex samples of at most
    # 400,000 attempts
    rng = np.random.default_rng(2718)
    found, attempts = [], 0
    while sum(map(len, found)) < 10000 and attempts < 400000:
        n = min(20000, 400000 - attempts)
        attempts += n
        draws = [(*rng.uniform(0.05, math.pi - 0.05, 2), rng.integers(0, 2))
                 for _ in range(n)]
        t12, t23, plus = np.array(draws).T
        pts_plus, real_plus = chain_points(t12, t23, "plus")
        pts_minus, real_minus = chain_points(t12, t23, "minus")
        pts = np.where(plus[:, None, None] == 1, pts_plus, pts_minus)
        pts = pts[np.where(plus == 1, real_plus, real_minus)]
        found.append(pts[_path_convex(pts)])
    samples = np.concatenate(found)[:10000]
    checked = len(samples)
    d, collision, _, admissible = _two_mass(samples, 3.0)
    assert not collision.any()
    feasible = np.all(admissible, axis=1)
    feasible_count = int(np.count_nonzero(feasible))
    violations = int(np.count_nonzero(~np.all(d[feasible][:, _DIAGONAL_COLS] > 1.0, axis=1)))
    region_ok = (
        region_classify(ChainAngles(3 * math.pi / 5, 3 * math.pi / 5, "plus"),
                        3.0).region == "I"
        and region_classify(ChainAngles(math.pi / 5, math.pi / 5, "plus"),
                            3.0).region == "II")
    ok = checked == 10000 and violations == 0 and region_ok
    _verdict(8, ok, f"{checked} convex samples, {feasible_count} feasible, "
             f"{violations} diagonal violations; pentagon in I and star in II: "
             f"{region_ok}")


def test_criterion_9_property_suites():
    # Cayley-Menger vanishing on random planar configurations
    rng = np.random.default_rng(31415)
    cm_worst = 0.0
    for _ in range(1000):
        config = PlanarConfiguration(rng.normal(size=(5, 2))
                                     * rng.uniform(0.5, 2.0))
        table = mutual_distances(config)
        scale = float(np.max(table.table)) ** 6
        worst = max(abs(cayley_menger([table.table[i, j] for i, j in combinations(sub, 2)]))
                    for sub in combinations(range(5), 4))
        cm_worst = max(cm_worst, worst / scale)
    cm_ok = cm_worst <= 1e-10

    # randomized interval inclusion
    ops = "+-*/"
    draws = rng.uniform(-10, 10, size=(1000000, 4))
    points = rng.uniform(0.0, 1.0, size=(1000000, 2))
    op_idx = rng.integers(0, 4, size=1000000)
    violations = 0
    performed = 0
    for (a, b, c, d), (s, t), k in zip(draws, points, op_idx):
        x = Interval(min(a, b), max(a, b))
        y = Interval(min(c, d), max(c, d))
        op = ops[k]
        if op == "/" and y.contains_zero():
            op = "*"  # keep the op count exact where division is undefined
        performed += 1
        if op == "+":
            res, val = x + y, (x.lo + s * x.width) + (y.lo + t * y.width)
        elif op == "-":
            res, val = x - y, (x.lo + s * x.width) - (y.lo + t * y.width)
        elif op == "*":
            res, val = x * y, (x.lo + s * x.width) * (y.lo + t * y.width)
        else:
            res, val = x / y, (x.lo + s * x.width) / (y.lo + t * y.width)
        if not res.contains(val):
            violations += 1
    inclusion_ok = violations == 0 and performed == 1000000

    # symmetrized residuals equal the sum of the asymmetric pair
    g_worst = 0.0
    for _ in range(1000):
        config = PlanarConfiguration(rng.normal(size=(5, 2)))
        masses = rng.uniform(0.2, 3.0, 5)
        lam = rng.uniform(0.1, 2.0)
        f = albouy_chenciner_f(config, masses, 3.0, lambda_tilde=lam).residuals
        g = symmetric_g(config, masses, 3.0, lambda_tilde=lam).residuals
        for i in range(1, 6):
            for j in range(i + 1, 6):
                diff = abs(g[f"g{i}{j}"] - (f[f"f{i}{j}"] + f[f"f{j}{i}"]))
                scale = max(1.0, abs(g[f"g{i}{j}"]))
                g_worst = max(g_worst, diff / scale)
    g_ok = g_worst <= 1e-13

    # dual derivative against central differences
    h = 1e-6
    d_worst = 0.0
    ys = rng.uniform(0.05, 1.85, 1000)
    for idx, y4 in enumerate(ys):
        branch = "A" if idx % 2 == 0 else "B"
        y4 = float(y4)
        dual = F_dual(y4, 3.0, branch).dy
        fd = (F(y4 + h, 3.0, branch) - F(y4 - h, 3.0, branch)) / (2 * h)
        d_worst = max(d_worst, abs(dual - fd) / max(1e-7, abs(fd)))
    dual_ok = d_worst <= 1e-5

    ok = cm_ok and inclusion_ok and g_ok and dual_ok
    _verdict(9, ok, f"CM worst {cm_worst:.2e} (<=1e-10), interval ops "
             f"{performed} with {violations} violations, g-identity worst "
             f"{g_worst:.2e} (<=1e-13), dual-vs-FD worst {d_worst:.2e} "
             f"(<=1e-5)")
