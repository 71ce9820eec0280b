"""Residual systems, mass kernels, feasibility, and region classification."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pentacc.geometry import (
    ChainAngles,
    DIAGONALS,
    OutOfDomainError,
    PAIRS,
    PlanarConfiguration,
    SymmetricShape,
    Y4_MAX,
    chain_points,
    collinear_endpoint_y4,
    cyclic_from_angles,
    hull_mask,
    interior_angles,
    mutual_distances,
    oriented_areas,
    pair_distances,
    regular_pentagon_y4,
    square_endpoint_y4,
    symmetric_coords,
)
from pentacc.equations import (
    _concave_regions,
    _region_codes,
    _two_mass,
    Exponent,
    MassVector,
    RegionResult,
    TWO_MASS_PAIRS,
    albouy_chenciner_f,
    la2_feasible,
    laura_andoyer,
    mass_coefficient_matrix,
    mass_kernel,
    region_classify,
    region_labels_by_closure,
    symmetric_g,
)
from test_geometry import _hull_indices

PENTAGON = symmetric_coords(SymmetricShape(regular_pentagon_y4(), "A"))
EQUAL = MassVector(1.0, 1.0, 1.0, 1.0, 1.0)

# pipeline values for the vortex-case asymmetric solution
A2_ROOT_VORTEX = 0.1541207210494488
A2_MASSES_VORTEX = MassVector.symmetric(1.0, 2.325872505103552, 0.3419913914929025)


def test_exponent_parsing():
    assert Exponent.parse("3").rational == Fraction(3)
    assert Exponent.parse("5/2").rational == Fraction(5, 2)
    assert Exponent.parse("2.5").rational is None
    assert Exponent.parse("2.5").value == 2.5
    with pytest.raises(ValueError):
        Exponent.parse("1.5")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "1/0", "-3/0",
                                  "1" + "0" * 400 + "/1"])
def test_exponent_rejects_non_finite_and_zero_denominator(text):
    with pytest.raises(ValueError):
        Exponent.parse(text)


@pytest.mark.parametrize("a_exp", [2.0, 3.0])
def test_pentagon_wedge_residuals_vanish(a_exp):
    report = laura_andoyer(PENTAGON, EQUAL, a_exp)
    assert len(report.residuals) == 10
    assert report.max_abs <= 1e-12


def test_wedge_two_mass_three_mass_split():
    report = laura_andoyer(PENTAGON, EQUAL, 3.0)
    assert set(report.meta["two_mass"]) == {"L13", "L24", "L35", "L14", "L25"}
    assert set(report.meta["three_mass"]) == {"L12", "L23", "L34", "L45", "L15"}


def test_certified_vortex_masses_nearly_solve():
    # the rounded reference masses leave a residual set by their rounding
    config = symmetric_coords(SymmetricShape(A2_ROOT_VORTEX, "A"))
    rounded = MassVector.symmetric(1.0, 2.32, 0.34199)
    report = laura_andoyer(config, rounded, 2.0)
    assert report.max_abs < 5e-3
    exact = laura_andoyer(config, A2_MASSES_VORTEX, 2.0)
    assert exact.max_abs < 1e-12


def test_wedge_residual_scale_covariance():
    rng = np.random.default_rng(4)
    config = PlanarConfiguration(rng.normal(size=(5, 2)))
    masses = rng.uniform(0.5, 2.0, 5)
    a_exp = 3.0
    s = 1.7
    base = laura_andoyer(config, masses, a_exp)
    scaled = laura_andoyer(PlanarConfiguration(config.points * s), masses, a_exp)
    for label, value in base.residuals.items():
        assert scaled.residuals[label] == pytest.approx(
            value * s ** (2.0 - a_exp), rel=1e-9, abs=1e-13)


def _permuted(config: PlanarConfiguration, shift: int) -> PlanarConfiguration:
    """Relabel by the cyclic shift i -> i + shift (mod 5)."""
    return PlanarConfiguration(config.points[[(i + shift) % 5 for i in range(5)]])


def _mirror(config: PlanarConfiguration) -> PlanarConfiguration:
    """Mirror through the x-axis; flips every oriented area."""
    return PlanarConfiguration(config.points * np.array([1.0, -1.0]))


def test_relabeling_equivariance():
    angles = ChainAngles(2.0, 1.9, "plus")
    config = cyclic_from_angles(angles)
    verdict = la2_feasible(config, 3.0).feasible
    base = laura_andoyer(config, EQUAL, 3.0)
    shifted = laura_andoyer(_permuted(config, 1), EQUAL, 3.0)
    # the residual multiset is preserved under the cyclic relabeling
    a = sorted(abs(v) for v in base.residuals.values())
    b = sorted(abs(v) for v in shifted.residuals.values())
    assert np.allclose(a, b, rtol=1e-9, atol=1e-12)
    assert la2_feasible(_permuted(config, 1), 3.0).feasible == verdict


# ---------------------------------------------------------------------------
# mutual-distance system

def test_pentagon_ac_residuals_vanish_with_fitted_multiplier():
    report = albouy_chenciner_f(PENTAGON, EQUAL, 3.0)
    assert len(report.residuals) == 20
    assert report.max_abs <= 1e-12
    assert report.meta["lambda_tilde"] == pytest.approx(5.0 ** -0.5, rel=1e-12)


def test_ac_accepts_distance_table():
    table = mutual_distances(PENTAGON).table
    report = albouy_chenciner_f(table, EQUAL.as_array(), 2.0)
    assert report.max_abs <= 1e-12


def test_symmetrized_identity_g_equals_f_plus_f():
    rng = np.random.default_rng(9)
    for _ in range(50):
        config = PlanarConfiguration(rng.normal(size=(5, 2)))
        masses = rng.uniform(0.2, 3.0, 5)
        lam = rng.uniform(0.1, 2.0)
        f = albouy_chenciner_f(config, masses, 3.0, lambda_tilde=lam).residuals
        g = symmetric_g(config, masses, 3.0, lambda_tilde=lam).residuals
        for i in range(1, 6):
            for j in range(i + 1, 6):
                combined = f[f"f{i}{j}"] + f[f"f{j}{i}"]
                assert g[f"g{i}{j}"] == pytest.approx(combined, rel=1e-13, abs=1e-13)


def test_residual_systems_take_a_mass_vector_or_a_list():
    rng = np.random.default_rng(17)
    configs = [symmetric_coords(SymmetricShape(1.2, "A")),
               PlanarConfiguration(rng.normal(size=(5, 2)))]
    for config in configs:
        for masses in (EQUAL, A2_MASSES_VORTEX):
            as_list = [float(m) for m in masses.as_array()]
            for system in (laura_andoyer, albouy_chenciner_f, symmetric_g):
                got = system(config, masses, 3.0)
                want = system(config, as_list, 3.0)
                assert got.residuals == want.residuals, system.__name__
                assert got.meta == want.meta, system.__name__
            table = mutual_distances(config).table
            assert (albouy_chenciner_f(table, masses, 3.0).meta["lambda_tilde"]
                    == albouy_chenciner_f(table, as_list, 3.0).meta["lambda_tilde"])
    for system in (laura_andoyer, albouy_chenciner_f, symmetric_g):
        with pytest.raises(ValueError, match="five masses"):
            system(configs[0], [1.0] * 4, 3.0)


def test_residual_systems_refuse_malformed_tables():
    table = mutual_distances(PENTAGON).table
    nan = table.copy()
    nan[0, 2] = nan[2, 0] = math.nan
    unit_diagonal = table + np.eye(5)
    asymmetric = table.copy()
    asymmetric[0, 1] = 1.5
    for bad, message in ((nan, "non-finite"), (unit_diagonal, "zero diagonal"),
                         (asymmetric, "not symmetric")):
        for system in (albouy_chenciner_f, symmetric_g):
            with pytest.raises(ValueError, match=message):
                system(bad, EQUAL, 3.0)


def test_fitted_multiplier_minimizes_residual():
    rng = np.random.default_rng(31)
    config = PlanarConfiguration(rng.normal(size=(5, 2)))
    masses = rng.uniform(0.5, 2.0, 5)
    table = mutual_distances(config).table
    lam = albouy_chenciner_f(table, masses, 3.0).meta["lambda_tilde"]
    best = sum(v ** 2 for v in albouy_chenciner_f(
        table, masses, 3.0, lambda_tilde=lam).residuals.values())
    for delta in (-1e-3, 1e-3):
        worse = sum(v ** 2 for v in albouy_chenciner_f(
            table, masses, 3.0, lambda_tilde=lam + delta).residuals.values())
        assert worse >= best


# ---------------------------------------------------------------------------
# mass-coefficient matrix and kernel

def test_pentagon_matrix_annihilates_equal_masses():
    m = mass_coefficient_matrix(SymmetricShape(regular_pentagon_y4(), "A"), 3.0)
    assert m.shape == (4, 3)
    assert np.max(np.abs(m @ np.ones(3))) <= 1e-12


def test_square_endpoint_matrix_structure():
    m = mass_coefficient_matrix(SymmetricShape(square_endpoint_y4(), "A"), 3.0)
    assert m[0, 0] == 0.0
    # r35 = 1 kills every coefficient carrying a (R35 - 1) factor
    assert m[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert m[3, 1] == pytest.approx(0.0, abs=1e-12)
    assert abs(m[0, 2]) > 1e-3


def test_collinear_endpoint_matrix_structure():
    m = mass_coefficient_matrix(SymmetricShape(collinear_endpoint_y4(), "A"), 3.0)
    # Delta134 = 0 kills the (R13 - 1) Delta134 entries
    assert m[1, 1] == pytest.approx(0.0, abs=1e-12)
    assert m[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_kernel_at_pentagon_is_equal_masses():
    res = mass_kernel(mass_coefficient_matrix(
        SymmetricShape(regular_pentagon_y4(), "A"), 3.0))
    assert res.feasible and res.positive
    assert np.allclose(res.masses.as_array(), 1.0, atol=1e-9)


def test_kernel_at_vortex_root_matches_reported_masses():
    res = mass_kernel(mass_coefficient_matrix(
        SymmetricShape(A2_ROOT_VORTEX, "A"), 2.0))
    assert res.feasible and res.positive
    assert res.masses.m4 == pytest.approx(0.34199, abs=1e-4)
    assert res.masses.m3 == pytest.approx(2.32, abs=2e-2)
    assert res.masses.m5 == res.masses.m3


def test_generic_shape_has_no_kernel():
    res = mass_kernel(mass_coefficient_matrix(SymmetricShape(0.25, "A"), 3.0))
    assert not res.feasible
    assert res.rank == 3


def test_mass_kernel_shape_guard():
    with pytest.raises(ValueError):
        mass_kernel(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# two-mass feasibility and regions

def test_pentagon_and_star_are_feasible():
    star = cyclic_from_angles(ChainAngles(math.pi / 5, math.pi / 5, "plus"))
    assert la2_feasible(PENTAGON, 3.0).feasible
    assert la2_feasible(star, 3.0).feasible


def test_two_mass_pairs_cover_all_masses():
    seen = sorted(m for pair in TWO_MASS_PAIRS.values() for m in pair)
    assert seen == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_zero_coefficient_pairing_is_infeasible():
    # r35 = 1 zeroes exactly one coefficient of one equation
    config = symmetric_coords(SymmetricShape(square_endpoint_y4(), "A"))
    verdict = la2_feasible(config, 3.0)
    assert not verdict.feasible
    bad = [c for c in verdict.certificates if not c.admissible]
    assert any(min(abs(x) for x in c.coefficients) <= 1e-10 for c in bad)


def test_one_short_diagonal_convex_is_infeasible():
    angles = ChainAngles(0.8449733887036153, 3.1371275432397496, "plus")
    config = cyclic_from_angles(angles)
    d = dict(zip(PAIRS, pair_distances(config.points[None])[0].tolist()))
    assert hull_mask(config.points[None]).all()
    assert sum(d[e] < 1.0 for e in DIAGONALS) == 1
    assert not la2_feasible(config, 3.0).feasible


def test_feasibility_is_scale_invariant():
    config = cyclic_from_angles(ChainAngles(2.0, 1.9, "plus"))
    verdict = la2_feasible(config, 3.0).feasible
    scaled = PlanarConfiguration(config.points * 4.2)
    assert la2_feasible(scaled, 3.0).feasible == verdict


def test_la2_rejects_non_equilateral():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError):
        la2_feasible(PlanarConfiguration(rng.normal(size=(5, 2))), 3.0)


def test_region_classification_of_landmarks():
    assert region_classify(
        ChainAngles(3 * math.pi / 5, 3 * math.pi / 5, "plus"), 3.0).region == "I"
    assert region_classify(
        ChainAngles(math.pi / 5, math.pi / 5, "plus"), 3.0).region == "II"


def test_region_three_witness():
    res = region_classify(ChainAngles(0.903082161, 4.922594842, "plus"), 3.0)
    assert res.region == "III"
    assert res.interior_label == 3


def test_region_three_conditions_hold_for_witness():
    config = cyclic_from_angles(ChainAngles(0.903082161, 4.922594842, "plus"))
    # relabel so the interior body sits at position 5, mirroring if needed
    (p,) = np.flatnonzero(~hull_mask(config.points[None])[0]) + 1
    for candidate in (_permuted(config, p % 5), _permuted(_mirror(config), p % 5)):
        pts = candidate.points[None]
        t123 = interior_angles(pts, 1, 2, 3)[0]
        t234 = interior_angles(pts, 2, 3, 4)[0]
        d135, d245 = oriented_areas(pts, [1, 2], [3, 4], 5)[0]
        if (t123 + t234 <= 3 * math.pi + 1e-9
                and t123 <= 5 * math.pi / 3 + 1e-9
                and t234 <= 5 * math.pi / 3 + 1e-9
                and d135 >= -1e-9
                and d245 >= -1e-9):
            break
    else:
        pytest.fail("no relabeling satisfied the interior-body conditions")


def test_region_unrealizable_raises():
    with pytest.raises(OutOfDomainError):
        region_classify(ChainAngles(math.pi, math.pi, "plus"), 3.0)


def test_regions_cover_all_interior_labels():
    rng = np.random.default_rng(5)
    t12, t23 = rng.uniform(0.05, 2 * math.pi - 0.05, (4000, 2)).T
    labels = set()
    for closure in ("plus", "minus"):
        found = region_labels_by_closure(t12, t23, 3.0)[closure]
        for k in (k for k, lab in enumerate(found) if lab == "III"):
            res = region_classify(ChainAngles(float(t12[k]), float(t23[k]), closure), 3.0)
            assert res.region == "III"
            labels.add(res.interior_label)
    assert labels == {1, 2, 3, 4, 5}


def _scalar_chain(t12: float, t23: float, closure: str):
    """The scalar chain construction, operation by operation; None where
    the chain does not close."""
    q1, q2 = np.array([-0.5, 0.0]), np.array([0.5, 0.0])
    d23 = math.pi - t12
    q3 = q2 + np.array([math.cos(d23), math.sin(d23)])
    d34 = d23 + math.pi - t23
    q4 = q3 + np.array([math.cos(d34), math.sin(d34)])
    gap = q1 - q4
    dist = math.hypot(gap[0], gap[1])
    if dist > 2.0 or dist < 1e-12:
        return None
    h = math.sqrt(max(1.0 - (dist / 2.0) ** 2, 0.0))
    perp = np.array([gap[1], -gap[0]]) / dist
    q5 = 0.5 * (q4 + q1) + (h if closure == "plus" else -h) * perp
    return np.array([q1, q2, q3, q4, q5])


_UPPER = np.triu_indices(5, k=1)


def _scalar_two_mass(pts: np.ndarray, a_exp: float):
    """Scalar distance table and two-mass coefficients; None on a collision."""
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.sqrt((diff ** 2).sum(axis=2))
    if np.any(r[_UPPER] < 1e-12):
        return r, None
    scale = float(r[0, 1])
    R = (r / scale + np.eye(5)) ** (-a_exp)
    coef = [[float((R[i - 1, k - 1] - R[j - 1, k - 1])
                   * _area(pts, i, j, k) / scale ** 2) for k in ks]
            for (i, j), ks in TWO_MASS_PAIRS.items()]
    return r, coef


def _area(pts: np.ndarray, i: int, j: int, k: int) -> float:
    """Delta(i,j,k) = (q_i - q_j) x (q_i - q_k), one configuration."""
    u, v = pts[i - 1] - pts[j - 1], pts[i - 1] - pts[k - 1]
    return float(u[0] * v[1] - u[1] * v[0])


def _angle(pts: np.ndarray, i: int, j: int, k: int) -> float:
    """Chain angle at vertex j from edge (i,j) to edge (j,k), one configuration."""
    u, v = pts[i - 1] - pts[j - 1], pts[k - 1] - pts[j - 1]
    return (math.atan2(u[1], u[0]) - math.atan2(v[1], v[0])) % (2.0 * math.pi)


def _region3_conditions(config: PlanarConfiguration) -> bool:
    """Angle and orientation conditions for the concave class, body 5
    interior, one configuration: the oracle of ``_region3_holds``."""
    pts = config.points
    t123 = _angle(pts, 1, 2, 3)
    t234 = _angle(pts, 2, 3, 4)
    if t123 + t234 > 3.0 * math.pi + 1e-9:
        return False
    if t123 > 5.0 * math.pi / 3.0 + 1e-9 or t234 > 5.0 * math.pi / 3.0 + 1e-9:
        return False
    if _area(pts, 1, 3, 5) < -1e-9:
        return False
    if _area(pts, 2, 4, 5) < -1e-9:
        return False
    return True


def _concave_region(config: PlanarConfiguration) -> RegionResult:
    """Region III test of a feasible configuration with mixed diagonals, one
    configuration: the oracle of ``_concave_regions``."""
    hull = _hull_indices(config.points)
    inner = [i + 1 for i in range(5) if i not in hull]
    if len(inner) == 1:
        p = inner[0]
        shift = p % 5  # sends old body p to new position 5
        for candidate in (_permuted(config, shift), _permuted(_mirror(config), shift)):
            if _region3_conditions(candidate):
                return RegionResult("III", interior_label=p)
        return RegionResult("none", detail="concave but angle conditions fail")
    return RegionResult("none", detail="mixed diagonals, not single-interior concave")


def _oracle_label(pts, r, coef) -> str:
    if coef is None:
        return "collision"
    for ca, cb in coef:
        za, zb = abs(ca) <= 1e-10, abs(cb) <= 1e-10
        if not ((za and zb) or (not za and not zb and (ca > 0) != (cb > 0))):
            return "none"
    diag = [r[i - 1, j - 1] for i, j in DIAGONALS]
    if all(d > r[0, 1] for d in diag):
        return "I"
    if all(d < r[0, 1] for d in diag):
        return "II"
    return _concave_region(PlanarConfiguration(pts)).region


def _oracle_angles() -> tuple:
    """Seeded chain angles: uniform cells, cells within a few ulps of
    |q4 - q1| = 2, and cells next to collisions at the ends of (0, 2 pi)."""
    rng = np.random.default_rng(41)
    t12 = list(rng.uniform(1e-6, 2 * math.pi - 1e-6, 1600))
    t23 = list(rng.uniform(1e-6, 2 * math.pi - 1e-6, 1600))

    def dist(a, b):
        d23 = math.pi - a
        d34 = d23 + math.pi - b
        return math.hypot(-1.0 - math.cos(d23) - math.cos(d34),
                          -math.sin(d23) - math.sin(d34))

    grid = np.linspace(0.01, 2 * math.pi - 0.01, 200).tolist()
    for a in rng.uniform(0.01, 2 * math.pi - 0.01, 60).tolist():
        far = [dist(a, b) > 2.0 for b in grid]
        for n in [n for n in range(len(grid) - 1) if far[n] != far[n + 1]][:2]:
            lo, hi = grid[n], grid[n + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if (dist(a, mid) > 2.0) == far[n] else (lo, mid)
            for b in (lo, hi, math.nextafter(lo, -1.0), math.nextafter(hi, 9.0)):
                t12.append(a)
                t23.append(b)
    for eps in (1e-14, 1e-13, 9e-13, 2e-12, 1e-11):
        for other in rng.uniform(0.1, 2 * math.pi - 0.1, 4).tolist() + [math.pi]:
            for a, b in ((eps, other), (other, eps), (2 * math.pi - eps, other),
                         (other, 2 * math.pi - eps)):
                t12.append(a)
                t23.append(b)
    return np.array(t12), np.array(t23)


def test_batched_region_kernel_matches_scalar_oracle():
    t12, t23 = _oracle_angles()
    assert t12.size >= 2000
    factors = np.random.default_rng(43).uniform(0.2, 5.0, 300)
    seen = set()
    for closure in ("plus", "minus"):
        pts, realizable = chain_points(t12, t23, closure)
        oracle = [_scalar_chain(a, b, closure) for a, b in zip(t12.tolist(), t23.tolist())]
        assert realizable.tolist() == [q is not None for q in oracle]
        assert all(pts[k].tobytes() == q.tobytes()
                   for k, q in enumerate(oracle) if q is not None)
        cells = np.flatnonzero(realizable)
        for a_exp in (2.0, 2.5, 3.0, 4.0):
            d, collision, coef, _ = _two_mass(pts[cells], a_exp)
            want_labels = ["unrealizable"] * len(oracle)
            for n, k in enumerate(cells.tolist()):
                r, want = _scalar_two_mass(oracle[k], a_exp)
                assert d[n].tobytes() == r[_UPPER].tobytes()
                assert collision[n] == (want is None)
                if want is not None:
                    assert coef[n].tobytes() == np.array(want).tobytes()
                want_labels[k] = _oracle_label(oracle[k], r, want)
            labels = region_labels_by_closure(t12, t23, a_exp)[closure]
            assert labels == want_labels
            seen.update(labels)
            # r12 = 1 on chain points; scaled copies exercise the r12**2
            # normalisation that la2_feasible applies to any configuration
            scaled = pts[cells[:300]] * factors[:, None, None]
            _, _, coef, _ = _two_mass(scaled, a_exp)
            for n, q in enumerate(scaled):
                want = _scalar_two_mass(q, a_exp)[1]
                if want is not None:
                    assert coef[n].tobytes() == np.array(want).tobytes()
    assert seen == {"unrealizable", "collision", "none", "I", "II", "III"}


def _grid_mixed_cells(n: int, closure: str, a_exp: float) -> tuple:
    """Angles and points of the mixed cells of ``region-map --grid n``."""
    thetas = np.linspace(0.0, 2.0 * math.pi, n + 2)[1:-1]
    t12, t23 = (t.ravel() for t in np.meshgrid(thetas, thetas, indexing="ij"))
    pts, realizable = chain_points(t12, t23, closure)
    cells = np.flatnonzero(realizable)
    cells = cells[_region_codes(pts[cells], a_exp) == "mixed"]
    return t12[cells], t23[cells], pts[cells]


def _expected(inner, region3) -> list:
    return [RegionResult("III", interior_label=p) if ok
            else RegionResult("none", detail="concave but angle conditions fail") if p
            else RegionResult("none", detail="mixed diagonals, not single-interior concave")
            for p, ok in zip(inner.tolist(), region3.tolist())]


def test_batched_region3_matches_scalar_oracle():
    seen = set()
    for a_exp in (2.5, 3.0, 4.0):
        for closure in ("plus", "minus"):
            _, _, pts = _grid_mixed_cells(60, closure, a_exp)
            assert len(pts) > 100
            found = _expected(*_concave_regions(pts))
            assert found == [_concave_region(PlanarConfiguration(q)) for q in pts]
            seen.update(r.interior_label for r in found if r.region == "III")
    assert seen == {1, 2, 3, 4, 5}
    # every grid-60 mixed cell is in region III; the test itself does not
    # depend on A or feasibility, so the other cells reach its failing paths
    details = set()
    for closure in ("plus", "minus"):
        thetas = np.linspace(0.0, 2.0 * math.pi, 62)[1:-1]
        t12, t23 = (t.ravel() for t in np.meshgrid(thetas, thetas, indexing="ij"))
        pts, realizable = chain_points(t12, t23, closure)
        pts = pts[realizable][_region_codes(pts[realizable], 3.0) != "collision"]
        found = _expected(*_concave_regions(pts))
        assert found == [_concave_region(PlanarConfiguration(q)) for q in pts]
        details.update((r.region, r.detail) for r in found)
    assert len(details) == 3


def test_region_classify_is_the_batch_of_one_of_region_labels():
    t12, t23 = np.array([0.903082161]), np.array([4.922594842])
    assert region_labels_by_closure(t12, t23, 3.0)["plus"] == ["III"]
    witness = region_classify(ChainAngles(0.903082161, 4.922594842, "plus"), 3.0)
    assert witness == RegionResult("III", interior_label=3)
    interior, details = set(), set()
    thetas = np.linspace(0.0, 2.0 * math.pi, 14)[1:-1]
    grid = [t.ravel().tolist() for t in np.meshgrid(thetas, thetas, indexing="ij")]
    for closure in ("plus", "minus"):
        # every cell of region-map --grid 12: a chain that does not close
        # raises in region_classify and is "unrealizable" in its labels
        got = []
        for a, b in zip(*grid):
            try:
                got.append(region_classify(ChainAngles(a, b, closure), 3.0))
            except OutOfDomainError:
                got.append(RegionResult("unrealizable"))
        labels = region_labels_by_closure(*map(np.array, grid), 3.0)[closure]
        assert labels == [r.region for r in got]
        details.update(r.detail for r in got)
        t12, t23, pts = _grid_mixed_cells(12, closure, 3.0)
        labels = region_labels_by_closure(t12, t23, 3.0)[closure]
        # the labels run _concave_regions on exactly this stack
        want = _expected(*_concave_regions(pts))
        assert labels == [r.region for r in want]
        assert [region_classify(ChainAngles(a, b, closure), 3.0)
                for a, b in zip(t12.tolist(), t23.tolist())] == want
        interior.update(r.interior_label for r in want)
    assert interior == {1, 2, 3, 4, 5}
    assert "two-mass equations infeasible" in details


@pytest.mark.parametrize("n", [7, 60, 200])
def test_both_closures_on_one_chain_are_region_labels_of_each(n):
    # region-map's grids: the closures share one chain and are classified
    # one after the other, each as the array kernels classify the stack of
    # its own chain_points call
    thetas = np.linspace(0.0, 2.0 * math.pi, n + 2)[1:-1]
    t12, t23 = (t.ravel() for t in np.meshgrid(thetas, thetas, indexing="ij"))
    for a_exp in (2.0, 2.5, 3.0, 10.0):
        both = region_labels_by_closure(t12, t23, a_exp)
        assert list(both) == ["plus", "minus"]
        for closure in ("plus", "minus"):
            pts, realizable = chain_points(t12, t23, closure)
            codes = _region_codes(pts[realizable], a_exp)
            found = np.where(codes == "infeasible", "none", codes).astype(object)
            mixed = codes == "mixed"
            found[mixed] = np.where(_concave_regions(pts[realizable][mixed])[1], "III", "none")
            want = np.full(realizable.size, "unrealizable", dtype=object)
            want[realizable] = found
            assert both[closure] == want.tolist()


def test_a_quantity_self_pair_convention():
    # the k = j term of the mutual-distance equations uses A(i,j,j) = -2 r_ij^2
    rng = np.random.default_rng(55)
    config = PlanarConfiguration(rng.normal(size=(5, 2)))
    r = mutual_distances(config).table
    for i in range(5):
        for j in range(5):
            if i != j:
                aijj = r[j, j] ** 2 - r[i, j] ** 2 - r[i, j] ** 2
                assert aijj == pytest.approx(-2.0 * r[i, j] ** 2, rel=1e-14)


# ---------------------------------------------------------------------------
# the residual systems against their scalar loops

def _laura_andoyer_loop(config: PlanarConfiguration, m, a_exp: float) -> dict:
    """Wedge residuals one (i, j, k) at a time: the oracle of ``laura_andoyer``."""
    R = (mutual_distances(config).table + np.eye(5)) ** (-a_exp)
    np.fill_diagonal(R, 0.0)
    res = {}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            total = 0.0
            for k in range(1, 6):
                if k in (i, j):
                    continue
                total += (m[k - 1] * (R[i - 1, k - 1] - R[j - 1, k - 1])
                          * _area(config.points, i, j, k))
            res[f"L{i}{j}"] = total
    return res


def _fit_loop(r: np.ndarray, m, a_exp: float) -> float:
    """The least-squares multiplier one (i, j, k) at a time."""
    num = den = 0.0
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            a_coef = b_coef = 0.0
            for k in range(5):
                if k == i:
                    continue
                aijk = r[j, k] ** 2 - r[i, k] ** 2 - r[i, j] ** 2
                a_coef += m[k] * r[i, k] ** (-a_exp) * aijk
                b_coef += m[k] * aijk
            num += a_coef * b_coef
            den += b_coef * b_coef
    return num / den


def _f_loop(r: np.ndarray, m, a_exp: float, lt: float) -> dict:
    """The f residuals one (i, j, k) at a time."""
    res = {}
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            total = 0.0
            for k in range(5):
                if k == i:
                    continue
                aijk = r[j, k] ** 2 - r[i, k] ** 2 - r[i, j] ** 2
                total += m[k] * (r[i, k] ** (-a_exp) - lt) * aijk
            res[f"f{i + 1}{j + 1}"] = total
    return res


def _g_loop(r: np.ndarray, m, a_exp: float, lt: float) -> dict:
    """The g residuals one (i, j, k) at a time, by their own formula."""
    res = {}
    for i in range(5):
        for j in range(i + 1, 5):
            total = 0.0
            for k in range(5):
                sik = r[i, k] ** (-a_exp) - lt if k != i else 0.0
                sjk = r[j, k] ** (-a_exp) - lt if k != j else 0.0
                aijk = (r[j, k] ** 2 - r[i, k] ** 2 - r[i, j] ** 2) if k != i else 0.0
                ajik = (r[i, k] ** 2 - r[j, k] ** 2 - r[i, j] ** 2) if k != j else 0.0
                total += m[k] * (sik * aijk + sjk * ajik)
            res[f"g{i + 1}{j + 1}"] = total
    return res


def _bits(values) -> bytes:
    return np.array(list(values), dtype=float).tobytes()


def test_residual_tables_match_scalar_loops():
    # random, symmetric-family and chain-point configurations, each at five
    # exponents with the fitted and with a given multiplier, bit for bit
    rng = np.random.default_rng(73)
    configs = [PlanarConfiguration(p) for p in rng.normal(size=(40, 5, 2))]
    configs += [symmetric_coords(SymmetricShape(float(y), branch))
                for branch in "AB" for y in rng.uniform(0.01, Y4_MAX - 0.01, 10)]
    t12, t23 = rng.uniform(0.05, 2 * math.pi - 0.05, (2, 80))
    for closure in ("plus", "minus"):
        pts, realizable = chain_points(t12, t23, closure)
        configs += [PlanarConfiguration(p) for p in pts[realizable][:20]]
    assert len(configs) == 100
    for config in configs:
        m = rng.uniform(0.2, 3.0, 5)
        lam = float(rng.uniform(0.1, 2.0))
        r = mutual_distances(config).table
        for a_exp in (2.0, 7.0 / 3.0, 2.5, 3.0, 4.0):
            got = laura_andoyer(config, m, a_exp).residuals
            want = _laura_andoyer_loop(config, m, a_exp)
            assert list(got) == list(want)
            assert _bits(got.values()) == _bits(want.values())
            fitted = _fit_loop(r, m, a_exp)
            for lt in (None, lam):
                want_lt = fitted if lt is None else lt
                for system, loop in ((albouy_chenciner_f, _f_loop), (symmetric_g, _g_loop)):
                    rep = system(r, m, a_exp, lambda_tilde=lt)
                    want = loop(r, m, a_exp, want_lt)
                    assert list(rep.residuals) == list(want)
                    assert _bits(rep.residuals.values()) == _bits(want.values())
                    assert _bits([rep.meta["lambda_tilde"]]) == _bits([want_lt])
