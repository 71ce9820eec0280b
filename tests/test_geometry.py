"""Geometry layer: areas, distances, Cayley-Menger, the symmetric family."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest

from pentacc.geometry import (
    ChainAngles,
    CollisionError,
    DistanceVector,
    OutOfDomainError,
    PlanarConfiguration,
    SymmetricShape,
    Y4_MAX,
    branch_position,
    cayley_menger,
    chain_points,
    classify_sign_type,
    collinear_endpoint_y4,
    convex_position,
    cyclic_from_angles,
    family_terms,
    house_y4,
    hull_mask,
    interior_angle,
    interior_angles,
    interior_points,
    mutual_distances,
    oriented_area,
    oriented_areas,
    regular_pentagon_y4,
    square_endpoint_y4,
    symmetric_coords,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def pentagon_config():
    return symmetric_coords(SymmetricShape(regular_pentagon_y4(), "A"))


# ---------------------------------------------------------------------------
# oriented areas

def test_oriented_area_base_triangles():
    pts = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, 1.0], [0.0, 0.7], [0.3, 0.4]])
    config = PlanarConfiguration(pts)
    assert oriented_area(config, 1, 2, 3) == pytest.approx(1.0, abs=1e-15)
    assert oriented_area(config, 1, 2, 4) == pytest.approx(0.7, abs=1e-15)


def test_oriented_area_antisymmetry_and_cycle():
    rng = np.random.default_rng(3)
    config = PlanarConfiguration(rng.normal(size=(5, 2)))
    for i, j, k in permutations(range(1, 6), 3):
        d = oriented_area(config, i, j, k)
        assert oriented_area(config, i, k, j) == pytest.approx(-d, rel=1e-12, abs=1e-15)
        assert oriented_area(config, j, k, i) == pytest.approx(d, rel=1e-12, abs=1e-15)


def test_oriented_area_regular_pentagon_congruence():
    config = pentagon_config()
    assert oriented_area(config, 1, 3, 4) == pytest.approx(
        oriented_area(config, 1, 3, 5), rel=1e-12)


def test_oriented_area_rejects_repeated_labels():
    config = pentagon_config()
    with pytest.raises(ValueError):
        oriented_area(config, 1, 1, 2)


# ---------------------------------------------------------------------------
# distances

def test_regular_pentagon_diagonals_are_golden():
    table = mutual_distances(pentagon_config())
    assert table.is_equilateral
    for i, j in ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5)):
        assert table.distance(i, j) == pytest.approx(GOLDEN, abs=1e-12)
    assert table.classes is not None
    assert table.classes.r12 == pytest.approx(1.0, abs=1e-12)


def test_square_endpoint_distances():
    shape = SymmetricShape(square_endpoint_y4(), "A")
    table = mutual_distances(symmetric_coords(shape))
    assert table.distance(1, 4) == pytest.approx(math.sqrt(2.0 - math.sqrt(3.0)), abs=1e-12)
    assert table.distance(3, 5) == pytest.approx(1.0, abs=1e-12)


def test_collinear_chain_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    table = mutual_distances(PlanarConfiguration(pts))
    assert table.distance(1, 3) == pytest.approx(2.0, abs=1e-14)
    assert not table.is_equilateral or table.classes is not None


def test_mutual_distances_collision_error():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(CollisionError):
        mutual_distances(PlanarConfiguration(pts))


def test_non_equilateral_flagged():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [0.5, 1.7], [-0.5, 1.0]])
    table = mutual_distances(PlanarConfiguration(pts))
    assert not table.is_equilateral
    assert table.classes is None


def test_distance_vector_roundtrip():
    dv = DistanceVector(1.0, 1.2, 1.3, 1.4, 1.5, 1.6)
    t = dv.full_table()
    assert t[0, 1] == 1.0 and t[1, 2] == 1.0 and t[0, 4] == 1.0
    assert t[0, 2] == 1.2 and t[2, 4] == 1.6
    assert np.allclose(t, t.T)
    with pytest.raises(ValueError):
        DistanceVector(1.0, 0.0, 1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Cayley-Menger

def brute_force_cm(d12, d13, d14, d23, d24, d34):
    """Permutation-expansion oracle for the 5x5 bordered determinant."""
    m = [
        [0.0, 1.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, d12 ** 2, d13 ** 2, d14 ** 2],
        [1.0, d12 ** 2, 0.0, d23 ** 2, d24 ** 2],
        [1.0, d13 ** 2, d23 ** 2, 0.0, d34 ** 2],
        [1.0, d14 ** 2, d24 ** 2, d34 ** 2, 0.0],
    ]
    total = 0.0
    for perm in permutations(range(5)):
        sign, seen = 1, [False] * 5
        for s in range(5):
            if seen[s]:
                continue
            length, t = 0, s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = sign
        for a in range(5):
            prod *= m[a][perm[a]]
        total += prod
    return total


def test_cayley_menger_unit_square_vanishes():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    d = lambda a, b: math.dist(pts[a], pts[b])
    ds = (d(0, 1), d(0, 2), d(0, 3), d(1, 2), d(1, 3), d(2, 3))
    assert cayley_menger(ds) == pytest.approx(0.0, abs=1e-12)
    assert brute_force_cm(*ds) == pytest.approx(0.0, abs=1e-12)


def test_cayley_menger_regular_tetrahedron():
    ds = (1.0,) * 6
    assert brute_force_cm(*ds) == 4.0
    assert cayley_menger(ds) == pytest.approx(4.0, rel=1e-12)


def test_cayley_menger_matches_oracle_on_random_quadruples():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.normal(size=(4, 3))
        d = lambda a, b: float(np.linalg.norm(pts[a] - pts[b]))
        ds = (d(0, 1), d(0, 2), d(0, 3), d(1, 2), d(1, 3), d(2, 3))
        assert cayley_menger(ds) == pytest.approx(brute_force_cm(*ds),
                                                  rel=1e-9, abs=1e-9)


def test_cayley_menger_planar_quadruples_vanish():
    rng = np.random.default_rng(17)
    for _ in range(200):
        pts = rng.normal(size=(4, 2)) * rng.uniform(0.5, 2.0)
        d = lambda a, b: float(np.linalg.norm(pts[a] - pts[b]))
        ds = (d(0, 1), d(0, 2), d(0, 3), d(1, 2), d(1, 3), d(2, 3))
        scale = max(ds) ** 6
        assert abs(cayley_menger(ds)) <= 1e-10 * scale


def test_cayley_menger_rejects_nonpositive():
    with pytest.raises(ValueError):
        cayley_menger((1.0, -1.0, 1.0, 1.0, 1.0, 1.0))


def cayley_menger_all_subsets(config: PlanarConfiguration) -> dict:
    """Cayley-Menger values for the five 4-point subconfigurations."""
    t = mutual_distances(config).table
    return {sub: cayley_menger([t[i - 1, j - 1] for i, j in combinations(sub, 2)])
            for sub in combinations(range(1, 6), 4)}


def test_cayley_menger_all_subsets_vanish_for_configurations():
    for shape in (SymmetricShape(0.5, "A"), SymmetricShape(1.2, "B")):
        cm = cayley_menger_all_subsets(symmetric_coords(shape))
        assert len(cm) == 5
        for value in cm.values():
            assert abs(value) <= 1e-10


# ---------------------------------------------------------------------------
# symmetric family

def test_square_endpoint_coordinates():
    config = symmetric_coords(SymmetricShape(square_endpoint_y4(), "A"))
    assert config.q(3)[0] == pytest.approx(0.5, abs=1e-12)
    assert config.q(3)[1] == pytest.approx(1.0, abs=1e-12)


def test_collinear_endpoint_has_zero_area():
    config = symmetric_coords(SymmetricShape(collinear_endpoint_y4(), "A"))
    assert oriented_area(config, 1, 3, 4) == pytest.approx(0.0, abs=1e-12)
    assert oriented_area(config, 2, 4, 5) == pytest.approx(0.0, abs=1e-12)


def test_regular_pentagon_coordinates():
    config = symmetric_coords(SymmetricShape(regular_pentagon_y4(), "A"))
    assert config.q(3)[0] == pytest.approx(0.8090169943749475, abs=1e-12)
    assert config.q(3)[1] == pytest.approx(0.9510565162951535, abs=1e-12)


@pytest.mark.parametrize("branch", ["A", "B"])
def test_equilateral_constraints_hold_along_family(branch):
    for y4 in np.linspace(0.0, Y4_MAX, 301):
        x3, y3 = branch_position(float(y4), branch)
        c1 = 4.0 * x3 ** 2 - 4.0 * x3 + 4.0 * y3 ** 2 - 3.0
        c2 = x3 ** 2 + y3 ** 2 - 2.0 * y3 * y4 + y4 ** 2 - 1.0
        assert abs(c1) <= 1e-12
        assert abs(c2) <= 1e-12


@pytest.mark.parametrize("branch", ["A", "B"])
def test_closed_form_areas_match_coordinates(branch):
    for y4 in np.linspace(0.01, Y4_MAX - 0.01, 97):
        shape = SymmetricShape(float(y4), branch)
        config = symmetric_coords(shape)
        x3, y3 = branch_position(float(y4), branch)
        assert oriented_area(config, 1, 2, 3) == pytest.approx(y3, abs=1e-12)
        assert oriented_area(config, 1, 2, 4) == pytest.approx(float(y4), abs=1e-12)
        assert oriented_area(config, 1, 3, 5) == pytest.approx(2 * y3 * x3, abs=1e-12)
        assert oriented_area(config, 1, 3, 4) == pytest.approx(
            x3 * y4 + (y4 - y3) / 2, abs=1e-12)
        assert oriented_area(config, 1, 4, 5) == pytest.approx(
            x3 * y4 - (y4 - y3) / 2, abs=1e-12)
        assert oriented_area(config, 3, 4, 5) == pytest.approx(
            2 * x3 * (y4 - y3), abs=1e-12)
        # the two mirror triangles differ by the apex offset
        assert (oriented_area(config, 1, 3, 4) - oriented_area(config, 2, 3, 4)
                == pytest.approx(float(y4) - y3, abs=1e-12))


def test_branch_invariants_on_dense_grid():
    ys = np.linspace(1e-4, Y4_MAX - 1e-4, 2000)
    xa, ya = branch_position(ys, "A")
    r13 = np.hypot(xa + 0.5, ya)
    assert np.all(r13 > math.sqrt(6.0) / 2.0)
    xb, yb = branch_position(ys, "B")
    r35 = np.abs(2.0 * xb)
    d145 = xb * ys - (ys - yb) / 2.0
    assert np.all(r35 < 1.0)
    assert np.all(d145 < 0.0)


def test_symmetric_shape_domain_errors():
    with pytest.raises(OutOfDomainError):
        SymmetricShape(Y4_MAX + 1e-6, "A")
    with pytest.raises(OutOfDomainError):
        SymmetricShape(-0.1, "A")
    with pytest.raises(ValueError):
        SymmetricShape(0.5, "C")


def test_normalized_constructor_pins_first_edge():
    rng = np.random.default_rng(23)
    base = symmetric_coords(SymmetricShape(0.5, "A")).points
    theta = rng.uniform(0, 2 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    moved = 3.7 * base @ rot.T + np.array([2.0, -1.0])
    config = PlanarConfiguration.normalized(moved)
    assert np.allclose(config.q(1), [-0.5, 0.0], atol=1e-12)
    assert np.allclose(config.q(2), [0.5, 0.0], atol=1e-12)
    table = mutual_distances(config)
    assert table.is_equilateral


# ---------------------------------------------------------------------------
# chain angles

def test_pentagon_from_angles():
    angles = ChainAngles(3 * math.pi / 5, 3 * math.pi / 5, "plus")
    config = cyclic_from_angles(angles)
    table = mutual_distances(config)
    assert table.is_equilateral
    assert np.allclose(config.q(4), [0.0, regular_pentagon_y4()], atol=1e-12)
    for i, j in ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5)):
        assert table.distance(i, j) == pytest.approx(GOLDEN, abs=1e-12)


def test_star_from_angles_has_short_diagonals():
    config = cyclic_from_angles(ChainAngles(math.pi / 5, math.pi / 5, "plus"))
    table = mutual_distances(config)
    assert table.is_equilateral
    for i, j in ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5)):
        assert table.distance(i, j) == pytest.approx(1.0 / GOLDEN, abs=1e-12)
        assert table.distance(i, j) < 1.0


def test_flat_chain_cannot_close():
    with pytest.raises(OutOfDomainError):
        cyclic_from_angles(ChainAngles(math.pi, math.pi, "plus"))


def test_chain_points_non_finite_angles_are_unrealizable():
    # NaN fails every comparison, and cos(inf) raises inside libm: neither
    # may pass for a chain that closes
    t = 3 * math.pi / 5
    for closure in ("plus", "minus"):
        pts, realizable = chain_points([math.nan, t, math.inf, t], [t, math.nan, t, t], closure)
        assert realizable.tolist() == [False, False, False, True]
        assert np.isnan(pts[:3, 4]).all() and np.isfinite(pts[3]).all()


def test_both_closures_give_unit_cycles():
    rng = np.random.default_rng(29)
    built = 0
    for _ in range(300):
        t12, t23 = rng.uniform(0.1, 2 * math.pi - 0.1, 2)
        for closure in ("plus", "minus"):
            try:
                config = cyclic_from_angles(ChainAngles(float(t12), float(t23), closure))
            except OutOfDomainError:
                continue
            built += 1
            table = mutual_distances(config)
            for i, j in ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)):
                assert table.distance(i, j) == pytest.approx(1.0, abs=1e-12)
    assert built > 100


def test_interior_angle_roundtrip():
    angles = ChainAngles(2.1, 0.9, "plus")
    config = cyclic_from_angles(angles)
    assert interior_angle(config, 1, 2, 3) == pytest.approx(2.1, abs=1e-12)
    assert interior_angle(config, 2, 3, 4) == pytest.approx(0.9, abs=1e-12)


def test_angle_validation():
    with pytest.raises(ValueError):
        ChainAngles(0.0, 1.0)
    with pytest.raises(ValueError):
        ChainAngles(1.0, 7.0)
    with pytest.raises(ValueError):
        ChainAngles(1.0, 1.0, "sideways")


def test_convex_position_and_interior():
    assert convex_position(pentagon_config())
    concave = cyclic_from_angles(ChainAngles(0.903082161, 4.922594842, "plus"))
    assert not convex_position(concave)
    assert interior_points(concave) == [3]


def _hull_indices(pts: np.ndarray) -> list:
    """Indices of the convex hull (counterclockwise), Andrew's monotone chain,
    one point at a time: the oracle of ``hull_mask``."""
    order = sorted(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))

    def cross(o, a, b):
        return ((pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1])
                - (pts[a][1] - pts[o][1]) * (pts[b][0] - pts[o][0]))

    lower: list = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 1e-14:
            lower.pop()
        lower.append(i)
    upper: list = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 1e-14:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _hull_oracle_sets() -> np.ndarray:
    """Seeded random five-point sets, and sets built to hit the ties and the
    1e-14 pop rule of the monotone chain."""
    rng = np.random.default_rng(61)
    sets = list(rng.uniform(-2.0, 2.0, (600, 5, 2)))
    # equal x coordinates, and coincident points
    for _ in range(300):
        pts = rng.uniform(-1.0, 1.0, (5, 2))
        pts[:, 0] = rng.choice([-0.5, 0.0, 0.5], 5)
        if rng.random() < 0.3:
            pts[:, 1] = rng.choice([-1.0, 1.0], 5)
        sets.append(pts)
    # a third point within about 1e-14 of the line through two others
    for eps in (-3e-14, -1e-14, -5e-15, 0.0, 5e-15, 1e-14, 1.5e-14, 3e-14):
        for _ in range(40):
            pts = rng.uniform(-1.0, 1.0, (5, 2))
            a, b = pts[0], pts[1]
            normal = np.array([b[1] - a[1], a[0] - b[0]])
            normal /= np.hypot(*normal)
            pts[2] = a + rng.uniform(-0.5, 1.5) * (b - a) + eps * normal
            sets.append(rng.permutation(pts))
    # turns of exactly 1e-14 and its neighbours on the upper chain, and
    # their mirror images on the lower one
    for eps in (5e-15, 1e-14, 1.0000000000000002e-14, 2e-14):
        for sign in (1.0, -1.0):
            pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, eps], [0.3, -1.0], [0.7, -1.0]])
            sets.append(rng.permutation(pts * [1.0, sign]))
    # five collinear points: on the axes, on the diagonal and on random lines
    for _ in range(40):
        t = rng.uniform(-1.0, 1.0, 5)
        zero = np.zeros(5)
        sets.extend([np.column_stack([t, zero]), np.column_stack([zero, t]),
                     np.column_stack([t, t])])
        a, b = rng.uniform(-1.0, 1.0, (2, 2))
        sets.append(a + t[:, None] * (b - a))
    # signed zeros
    sets.extend(rng.choice([-0.0, 0.0, 1.0, -1.0, 0.5], (300, 5, 2)))
    return np.array(sets)


def test_hull_mask_matches_scalar_monotone_chain():
    sets = _hull_oracle_sets()
    assert sets.shape == (1688, 5, 2)
    assert np.signbit(sets).any() and (sets == 0.0).any()
    mask = hull_mask(sets)
    sizes = set()
    for pts, row in zip(sets, mask.tolist()):
        hull = _hull_indices(pts)
        assert row == [i in hull for i in range(5)]
        assert sorted(hull) == sorted(set(hull))
        sizes.add(len(hull))
    assert sizes == {2, 3, 4, 5}
    # the batch of one agrees with the stack
    for pts, row in zip(sets[::7], mask[::7].tolist()):
        config = PlanarConfiguration(pts)
        assert convex_position(config) == all(row)
        assert interior_points(config) == [i + 1 for i in range(5) if not row[i]]


def test_angle_and_area_kernels_match_scalar_formulas():
    rng = np.random.default_rng(67)
    pts = rng.uniform(-1.0, 1.0, (500, 5, 2))
    pts[:100, 2] = pts[:100, 0]  # edges (2,1) and (2,3) share a direction
    pts[100:200] = np.round(pts[100:200])  # signed zeros and straight angles
    two_pi = 2.0 * math.pi
    for i, j, k in ((1, 2, 3), (2, 3, 4), (5, 1, 2), (3, 2, 1)):
        angles = interior_angles(pts, i, j, k)
        areas = oriented_areas(pts, i, j, k)
        for n, q in enumerate(pts):
            u, v, w = q[i - 1] - q[j - 1], q[k - 1] - q[j - 1], q[i - 1] - q[k - 1]
            want = (math.atan2(u[1], u[0]) - math.atan2(v[1], v[0])) % two_pi
            assert angles[n].tobytes() == np.float64(want).tobytes()
            assert areas[n].tobytes() == (u[0] * w[1] - u[1] * w[0]).tobytes()
        config = PlanarConfiguration(pts[0])
        assert interior_angle(config, i, j, k) == angles[0]
        assert oriented_area(config, i, j, k) == areas[0]
    with pytest.raises(ValueError):
        interior_angles(pts, 0, 1, 2)


# ---------------------------------------------------------------------------
# sign types

def test_branch_a_window_midpoint_types():
    sq, col = square_endpoint_y4(), collinear_endpoint_y4()
    a34 = math.sqrt(3.0) / 2.0
    cases = [
        (0.5 * sq, "A1"),
        (0.5 * (sq + col), "A2"),
        (0.5 * (col + a34), "A3"),
        (0.5 * (a34 + house_y4()), "A4"),
        (0.5 * (house_y4() + Y4_MAX), "A5"),
    ]
    for y4, label in cases:
        assert classify_sign_type(SymmetricShape(y4, "A")).label == label


def test_regular_shapes_classify():
    assert classify_sign_type(SymmetricShape(regular_pentagon_y4(), "A")).label == "A4"
    assert classify_sign_type(SymmetricShape(collinear_endpoint_y4(), "B")).label == "B2"


def test_boundaries_are_named():
    t = classify_sign_type(SymmetricShape(square_endpoint_y4(), "A"))
    assert t.label == "boundary" and "r35 = 1" in t.boundary and "A1/A2" in t.boundary
    t = classify_sign_type(SymmetricShape(collinear_endpoint_y4(), "A"))
    assert t.label == "boundary" and "Delta134" in t.boundary
    t = classify_sign_type(SymmetricShape(math.sqrt(3.0) / 2.0, "A"))
    assert t.label == "boundary" and "Delta345" in t.boundary
    t = classify_sign_type(SymmetricShape(house_y4(), "A"))
    assert t.label == "boundary" and "A4/A5" in t.boundary
    t = classify_sign_type(SymmetricShape(square_endpoint_y4(), "B"))
    assert t.label == "boundary" and "collision" in t.boundary


def _signs_for(shape):
    config = symmetric_coords(shape)
    table = mutual_distances(config)
    q = {
        "d123": oriented_area(config, 1, 2, 3),
        "d124": oriented_area(config, 1, 2, 4),
        "d134": oriented_area(config, 1, 3, 4),
        "d135": oriented_area(config, 1, 3, 5),
        "d145": oriented_area(config, 1, 4, 5),
        "d345": oriented_area(config, 3, 4, 5),
        "r13": table.distance(1, 3),
        "r14": table.distance(1, 4),
        "r35": table.distance(3, 5),
    }
    # F, the mass matrix and the classifier all read the family kernel, so
    # check it against the coordinates independently
    kernel = family_terms(shape.y4, shape.branch)
    for key, value in q.items():
        assert kernel[key] == pytest.approx(value, abs=1e-12), key
    q["convex"] = convex_position(config)
    return q


def _assert_kernel_vectorizes(ys, branch):
    # numpy's vectorised power may round R = r**(-A) one ulp apart from the
    # scalar one; every other quantity must match exactly
    grid = family_terms(np.array(ys), branch, 3.0)
    for i, y4 in enumerate(ys):
        for key, value in family_terms(y4, branch, 3.0).items():
            tol = 1e-15 * abs(value) if key.startswith("R") else 0.0
            assert abs(grid[key][i] - value) <= tol, (key, y4)


def test_branch_a_full_sign_lists():
    # shared signs plus the per-type distinctions, r35 < 1 separating A5
    sq, col = square_endpoint_y4(), collinear_endpoint_y4()
    a34, hs = math.sqrt(3.0) / 2.0, house_y4()
    expected = {
        "A1": (0.5 * sq, -1, -1, -1, -1, False),
        "A2": (0.5 * (sq + col), -1, -1, -1, +1, False),
        "A3": (0.5 * (col + a34), +1, -1, -1, +1, False),
        "A4": (0.5 * (a34 + hs), +1, +1, +1, +1, True),
        "A5": (0.5 * (hs + Y4_MAX), +1, +1, +1, -1, True),
    }
    for label, (y4, s134, s345, s_r14, s_r35, conv) in expected.items():
        q = _signs_for(SymmetricShape(y4, "A"))
        assert q["d123"] > 0 and q["d135"] > 0 and q["d145"] > 0
        assert math.copysign(1, q["d134"]) == s134
        assert math.copysign(1, q["d345"]) == s345
        assert math.copysign(1, q["r14"] - 1.0) == s_r14
        assert math.copysign(1, q["r35"] - 1.0) == s_r35
        assert q["convex"] == conv
    _assert_kernel_vectorizes([case[0] for case in expected.values()], "A")


def test_branch_b_full_sign_lists():
    sq = square_endpoint_y4()
    a34, hs = math.sqrt(3.0) / 2.0, house_y4()
    pent = regular_pentagon_y4()
    expected = {
        "B1": (0.5 * sq, -1, +1, -1, +1, +1, -1, True),
        "B2": (collinear_endpoint_y4(), -1, +1, +1, -1, -1, -1, True),
        "B3": (0.5 * (a34 + pent) - 0.2, +1, -1, -1, -1, -1, +1, True),
        "B4": (0.5 * (pent + hs), +1, +1, -1, -1, -1, +1, False),
        "B5": (0.5 * (hs + Y4_MAX), +1, +1, +1, +1, +1, +1, False),
    }
    for label, (y4, s123, s134, s135, s345, s_r13, s_r14, conv) in expected.items():
        shape = SymmetricShape(y4, "B")
        assert classify_sign_type(shape).label == label
        q = _signs_for(shape)
        assert q["d145"] < 0 and q["r35"] < 1.0
        assert math.copysign(1, q["d123"]) == s123
        assert math.copysign(1, q["d134"]) == s134
        assert math.copysign(1, q["d135"]) == s135
        assert math.copysign(1, q["d345"]) == s345
        assert math.copysign(1, q["r13"] - 1.0) == s_r13
        assert math.copysign(1, q["r14"] - 1.0) == s_r14
        assert q["convex"] == conv
    _assert_kernel_vectorizes([case[0] for case in expected.values()], "B")


def test_domain_bound_solves_the_radicand_quadratic():
    # the apex-height bound is the positive root of 16 u^2 - 56 u - 15 in u = y4^2
    u = Y4_MAX ** 2
    assert 16.0 * u * u - 56.0 * u - 15.0 == pytest.approx(0.0, abs=1e-12)
    from pentacc.geometry import branch_radicand
    assert branch_radicand(Y4_MAX) == pytest.approx(0.0, abs=1e-12)
