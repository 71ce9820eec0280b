"""Planar five-body geometry for equilateral cyclic pentagons.

Conventions used throughout the package:

- Bodies are labeled 1..5.  Normalized configurations place q1 = (-1/2, 0)
  and q2 = (1/2, 0), so the first cycle edge has unit length.
- The cycle edges are (1,2), (2,3), (3,4), (4,5), (5,1); the remaining five
  pairs are the diagonals.  The six distance classes of an equilateral cyclic
  pentagon are ordered (r12, r13, r14, r24, r25, r35).
- Oriented areas Delta(i,j,k) = (q_i - q_j) x (q_i - q_k), antisymmetric in
  the last two labels and invariant under cyclic rotation of (i,j,k).
- The one-parameter symmetric family (mirror symmetry through the y-axis)
  is parameterized by the apex height y4 with two branches, "A" and "B",
  for the two sign choices in the closed-form solution of the unit-edge
  constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .intervals import _libm

__all__ = [
    "CollisionError",
    "OutOfDomainError",
    "PlanarConfiguration",
    "DistanceVector",
    "DistanceTable",
    "SymmetricShape",
    "ChainAngles",
    "SignType",
    "BRANCHES",
    "Y4_MAX",
    "CYCLE_EDGES",
    "DIAGONALS",
    "CLASS_NAMES",
    "PAIR_CLASS",
    "PAIRS",
    "oriented_areas",
    "pair_distances",
    "collision_error",
    "distance_masks",
    "mutual_distances",
    "cayley_menger",
    "branch_position",
    "branch_radicand",
    "family_terms",
    "symmetric_coords",
    "chain_points",
    "cyclic_from_angles",
    "interior_angles",
    "hull_mask",
    "classify_sign_type",
    "regular_pentagon_y4",
    "square_endpoint_y4",
    "collinear_endpoint_y4",
    "house_y4",
]


class CollisionError(ValueError):
    """Two bodies coincide, so a mutual distance vanishes."""


class OutOfDomainError(ValueError):
    """A parameter lies outside the geometric domain it must belong to."""


BRANCHES = ("A", "B")

# Distance classes in the fixed coordinate order.
CLASS_NAMES = ("r12", "r13", "r14", "r24", "r25", "r35")
CYCLE_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
DIAGONALS = ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))
PAIR_CLASS = {
    (1, 2): 0, (2, 3): 0, (3, 4): 0, (4, 5): 0, (1, 5): 0,
    (1, 3): 1, (1, 4): 2, (2, 4): 3, (2, 5): 4, (3, 5): 5,
}
# All ten unordered pairs, in the order of pair_distances' columns.
PAIRS = tuple(combinations(range(1, 6), 2))
_PAIR_I = np.array([i - 1 for i, _ in PAIRS])
_PAIR_J = np.array([j - 1 for _, j in PAIRS])
_EDGE_COLS = [PAIRS.index(e) for e in CYCLE_EDGES]
_COLLISION_TOL = 1e-12
_EDGE_TOL = 1e-9  # relative spread of the cycle edges of an equilateral pentagon

# Landmark apex heights of the symmetric family (branch A unless noted).
def square_endpoint_y4() -> float:
    """Apex height where bodies 1, 2, 3, 5 form a unit square (r35 = 1).

    On branch B it is the first q3 = q5 collision (x3 = 0).
    """
    return (2.0 - math.sqrt(3.0)) / 2.0


def collinear_endpoint_y4() -> float:
    """Apex height where bodies 1, 4, 3 are collinear (Delta134 = 0)."""
    return math.sqrt(5.0 - 2.0 * math.sqrt(5.0)) / 2.0


def regular_pentagon_y4() -> float:
    """Apex height of the regular pentagon (convex 12345 order).

    On branch B it is where Delta134 = 0, between sign types B3 and B4.
    """
    return math.sqrt(5.0 + 2.0 * math.sqrt(5.0)) / 2.0


def house_y4() -> float:
    """Apex height of the unit square with a unit-edge gable (r35 = 1).

    On branch B it is the second q3 = q5 collision (x3 = 0).
    """
    return 1.0 + math.sqrt(3.0) / 2.0


Y4_MAX = math.sqrt(15.0) / 2.0


def _sqrt(x):
    """Square root that dispatches on interval/dual operands."""
    if hasattr(x, "sqrt"):
        return x.sqrt()
    return np.sqrt(x)


def branch_radicand(y4):
    """Radicand of the symmetric-family closed form, nonnegative on [0, Y4_MAX]."""
    y2 = y4 * y4
    return (-16.0 * y2 + 56.0) * y2 + 15.0


def branch_position(y4, branch: str):
    """Closed-form (x3, y3) of the symmetric family at apex height y4.

    Works for floats, numpy arrays, intervals, and dual numbers.  Branch "A"
    takes the positive square-root sign, branch "B" the negative one; the two
    sign choices must match between x3 and y3.  The branch B differences are
    evaluated through their conjugates, so the sign of x3 and y3 stays sharp
    near the collision heights where they vanish.
    """
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}")
    rad = branch_radicand(y4)
    if not hasattr(rad, "sqrt"):
        # roundoff at the domain endpoint can push the radicand barely negative
        rad = np.where(rad > -1e-9, np.maximum(rad, 0.0), rad)
    s = _sqrt(rad)
    u = y4 * y4
    den = 4.0 * (4.0 * u + 1.0)
    if branch == "A":
        y3 = (8.0 * u * y4 + 2.0 * y4 + s) / den
        x3 = (4.0 * u + 1.0 + 2.0 * y4 * s) / den
        return x3, y3
    # (4u+1)^2 - 4u*rad and (8y^3+2y)^2 - rad, expanded
    x3_num = ((64.0 * u - 208.0) * u - 52.0) * u + 1.0
    y3_num = ((64.0 * u + 48.0) * u - 52.0) * u - 15.0
    x3 = x3_num / (den * (4.0 * u + 1.0 + 2.0 * y4 * s))
    y3 = y3_num / (den * (8.0 * u * y4 + 2.0 * y4 + s))
    return x3, y3


def family_terms(y4, branch: str, a_exp=None) -> dict:
    """Oriented areas and distances of the symmetric family at apex height y4.

    Returns d123, d124, d134, d135, d145, d345 (the areas Delta(i,j,k)) and
    r13, r14, r35; with an exponent also R13, R14, R35 = r**(-a_exp).  This
    is the single source of these quantities for F, the mass-coefficient
    matrix, the exclusion coefficients and the sign-type classifier.  Works
    for floats, numpy arrays, Intervals, Duals and Jet2 jets, for y4 and for
    the exponent.
    """
    x3, y3 = branch_position(y4, branch)
    dy = y4 - y3
    xy = x3 * y4
    half = dy * 0.5  # not dy / 2.0: equal on floats, but wider on Dual(Interval)
    t = {
        "d123": y3,
        "d124": y4,
        "d134": xy + half,
        "d135": 2.0 * y3 * x3,
        "d145": xy - half,
        "d345": 2.0 * x3 * dy,
        "r13": _sqrt((x3 + 0.5) * (x3 + 0.5) + y3 * y3),
        "r14": _sqrt(y4 * y4 + 0.25),
        "r35": abs(2.0 * x3),
    }
    if a_exp is not None:
        t["R13"] = t["r13"] ** (-a_exp)
        t["R14"] = t["r14"] ** (-a_exp)
        t["R35"] = t["r35"] ** (-a_exp)
    return t


@dataclass(frozen=True)
class PlanarConfiguration:
    """Five labeled points in the plane.

    ``points`` is a (5, 2) array; row i holds body i+1.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (5, 2):
            raise ValueError(f"expected five planar points, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class DistanceVector:
    """The six distance classes of an equilateral cyclic pentagon.

    Order matches the fixed class convention (r12, r13, r14, r24, r25, r35).
    """

    r12: float
    r13: float
    r14: float
    r24: float
    r25: float
    r35: float

    def __post_init__(self):
        for name in CLASS_NAMES:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"distance class {name} must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in CLASS_NAMES])

    def full_table(self) -> np.ndarray:
        """Expand the classes into the symmetric 5x5 distance table."""
        t = np.zeros((5, 5))
        vals = self.as_array()
        for (i, j), c in PAIR_CLASS.items():
            t[i - 1, j - 1] = t[j - 1, i - 1] = vals[c]
        return t


@dataclass(frozen=True)
class DistanceTable:
    """All ten mutual distances as a symmetric 5x5 table, zero on the diagonal."""

    table: np.ndarray
    is_equilateral: bool


def _cols(*labels) -> list:
    """Zero-based point rows of bodies labeled 1..5, from ints or int arrays.

    Int arrays are broadcast together.  Ints stay Python ints: the array
    path costs about 40 us, five times a batch-of-one kernel call.
    """
    if all(isinstance(label, int) for label in labels):
        cols = [label - 1 for label in labels]
        ok = min(cols) >= 0 and max(cols) <= 4
    else:
        cols = np.broadcast_arrays(*(np.asarray(label) - 1 for label in labels))
        ok = all(np.all((c >= 0) & (c <= 4)) for c in cols)
    if not ok:
        raise ValueError(f"labels must be 1..5, got {labels}")
    return cols


def oriented_areas(points, i, j, k) -> np.ndarray:
    """Oriented area Delta(i,j,k) = (q_i - q_j) x (q_i - q_k) of each
    configuration in an (N, 5, 2) stack.

    The labels are ints or broadcastable int arrays; the result has shape
    (N,) plus their broadcast shape.
    """
    pts = np.asarray(points, dtype=float)
    i, j, k = _cols(i, j, k)
    u = pts[:, i] - pts[:, j]
    v = pts[:, i] - pts[:, k]
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def pair_distances(points) -> np.ndarray:
    """The ten mutual distances of each configuration in an (N, 5, 2) stack.

    Returns an (N, 10) array whose columns follow ``PAIRS``; each entry is
    sqrt(dx**2 + dy**2), the same bits as the ``mutual_distances`` table.
    """
    pts = np.asarray(points, dtype=float)
    dx = pts[:, _PAIR_I, 0] - pts[:, _PAIR_J, 0]
    dy = pts[:, _PAIR_I, 1] - pts[:, _PAIR_J, 1]
    # dx**2 + dy**2 in place, to keep a grid's temporaries small
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def collision_error(d: np.ndarray) -> CollisionError:
    """The error naming the coincident bodies of one ``pair_distances`` row."""
    bad = [PAIRS[p] for p in np.flatnonzero(d < _COLLISION_TOL).tolist()]
    return CollisionError(f"coincident bodies: {bad}")


def distance_masks(d) -> tuple:
    """(collision, equilateral) masks of the rows of a ``pair_distances`` table.

    A row collides when a distance is below ``_COLLISION_TOL``; it is
    equilateral when every cycle edge is within ``_EDGE_TOL`` (relative, for
    r12 above 1) of the edge r12.
    """
    scale = d[:, :1]  # r12
    edge_ok = np.abs(d[:, _EDGE_COLS] - scale) <= _EDGE_TOL * np.maximum(1.0, scale)
    return np.any(d < _COLLISION_TOL, axis=1), np.all(edge_ok, axis=1)


def mutual_distances(config: PlanarConfiguration) -> DistanceTable:
    """Full 10-distance table, flagged equilateral by ``distance_masks``.

    Raises CollisionError if two bodies coincide.
    """
    d = pair_distances(config.points[None])
    (collision,), (equilateral,) = distance_masks(d)
    if collision:
        raise collision_error(d[0])
    table = np.zeros((5, 5))
    table[_PAIR_I, _PAIR_J] = table[_PAIR_J, _PAIR_I] = d[0]
    return DistanceTable(table=table, is_equilateral=bool(equilateral))


def cayley_menger(distances) -> float:
    """Cayley-Menger determinant of four points from their six distances.

    ``distances`` is ordered (d12, d13, d14, d23, d24, d34) for points
    labeled 1..4.  Planar quadruples give 0; the unit regular tetrahedron
    gives 4.
    """
    d12, d13, d14, d23, d24, d34 = (float(d) for d in distances)
    for d in (d12, d13, d14, d23, d24, d34):
        if not d > 0.0:
            raise ValueError("distances must be positive")
    m = np.array([
        [0.0, 1.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, d12 ** 2, d13 ** 2, d14 ** 2],
        [1.0, d12 ** 2, 0.0, d23 ** 2, d24 ** 2],
        [1.0, d13 ** 2, d23 ** 2, 0.0, d34 ** 2],
        [1.0, d14 ** 2, d24 ** 2, d34 ** 2, 0.0],
    ])
    return float(np.linalg.det(m))


@dataclass(frozen=True)
class SymmetricShape:
    """Point on the symmetric equilateral family: apex height plus branch."""

    y4: float
    branch: str

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {self.branch!r}")
        if self.y4 < 0.0:
            raise OutOfDomainError(f"y4 must be nonnegative, got {self.y4}")
        if branch_radicand(self.y4) < 0.0:
            raise OutOfDomainError(
                f"y4 = {self.y4} exceeds the family domain [0, {Y4_MAX:.6f}]")


def symmetric_coords(shape: SymmetricShape) -> PlanarConfiguration:
    """Realize a symmetric shape as a normalized configuration.

    q3 = (x3, y3), q4 = (0, y4), q5 = (-x3, y3) with the matched-sign closed
    forms; the output satisfies both unit-edge constraint polynomials to
    1e-12.
    """
    x3, y3 = branch_position(shape.y4, shape.branch)
    pts = np.array([
        [-0.5, 0.0],
        [0.5, 0.0],
        [x3, y3],
        [0.0, shape.y4],
        [-x3, y3],
    ])
    return PlanarConfiguration(pts)


@dataclass(frozen=True)
class ChainAngles:
    """Two-angle parameterization of unit-edge cyclic pentagons.

    ``theta12`` is the angle at vertex 2 between edges (1,2) and (2,3),
    ``theta23`` the angle at vertex 3 between edges (2,3) and (3,4), both
    measured clockwise from the incoming edge, in (0, 2*pi).  ``closure``
    picks one of the two circle intersections placing q5.
    """

    theta12: float
    theta23: float
    closure: str = "plus"

    def __post_init__(self):
        for name in ("theta12", "theta23"):
            v = getattr(self, name)
            if not 0.0 < v < 2.0 * math.pi:
                raise ValueError(f"{name} must lie in (0, 2*pi), got {v}")
        if self.closure not in ("plus", "minus"):
            raise ValueError(f"closure must be 'plus' or 'minus', got {self.closure!r}")


def chain_points(theta12, theta23, closure: str = "plus") -> tuple:
    """Unit-edge cyclic pentagons for arrays of chain angles.

    ``theta12`` and ``theta23`` are 1-D arrays in radians, read as in
    ``ChainAngles``.  Returns ``(points, realizable)``: an (N, 5, 2) stack
    of normalized configurations and a mask of the cells whose chain closes
    with two more unit edges (1e-12 <= |q4 - q1| <= 2).  q5 is NaN where the
    mask is False.  ``cyclic_from_angles`` is the batch of one of this
    kernel.
    """
    if closure not in ("plus", "minus"):
        raise ValueError(f"closure must be 'plus' or 'minus', got {closure!r}")
    t12 = np.asarray(theta12, dtype=float)
    t23 = np.asarray(theta23, dtype=float)
    # q1 = (-0.5, 0) and q2 = (0.5, 0).  Each expression repeats the
    # operations of the former scalar construction, so the bits agree with
    # it.  cos, sin, hypot and the square of dist/2 go through libm, by the
    # gate ``intervals._libm``, never through numpy: numpy dispatches hypot,
    # cos and sin to SIMD kernels chosen per host, and its x**2 is x*x,
    # while Python's x**2 calls libm pow.  On an AVX-512 Xeon (numpy 2.4)
    # np.hypot differs from math.hypot on 1297 of 200k arguments in
    # [-3, 3]^2 and x*x from x**2 on 880 of 1M in [0, 1.2] (np.cos and
    # np.sin agreed on 2M).  The libm calls cost about 3 ms per 7200-cell
    # grid.
    d23 = math.pi - t12
    q3x = 0.5 + _libm(math.cos, d23)
    q3y = 0.0 + _libm(math.sin, d23)
    d34 = d23 + math.pi - t23
    q4x = q3x + _libm(math.cos, d34)
    q4y = q3y + _libm(math.sin, d34)
    gx, gy = -0.5 - q4x, 0.0 - q4y
    dist = _libm(math.hypot, gx, gy)
    # written so that a NaN distance (from a non-finite angle) is unrealizable
    realizable = (dist >= 1e-12) & (dist <= 2.0)
    h_sq = 1.0 - _libm(pow, dist / 2.0, 2.0)
    h = np.sqrt(np.maximum(h_sq, 0.0))
    if closure == "minus":
        h = -h
    pts = np.empty((t12.size, 5, 2))
    pts[:, 0] = (-0.5, 0.0)
    pts[:, 1] = (0.5, 0.0)
    pts[:, 2, 0], pts[:, 2, 1] = q3x, q3y
    pts[:, 3, 0], pts[:, 3, 1] = q4x, q4y
    with np.errstate(divide="ignore", invalid="ignore"):  # dist == 0
        pts[:, 4, 0] = 0.5 * (q4x + -0.5) + h * (gy / dist)
        pts[:, 4, 1] = 0.5 * (q4y + 0.0) + h * (-gx / dist)
    pts[~realizable, 4] = np.nan
    return pts, realizable


def cyclic_from_angles(angles: ChainAngles) -> PlanarConfiguration:
    """Build the unit-edge cyclic pentagon with the given chain angles.

    Raises OutOfDomainError when the chain cannot be closed with two more
    unit edges (|q4 - q1| > 2).  With theta12 = theta23 = 3*pi/5 the "plus"
    closure gives the regular pentagon; pi/5 gives the regular star.
    """
    pts, realizable = chain_points([angles.theta12], [angles.theta23], angles.closure)
    if not realizable[0]:
        gap = pts[0, 0] - pts[0, 3]
        dist = math.hypot(gap[0], gap[1])
        if dist > 2.0:
            raise OutOfDomainError(
                f"chain endpoints too far apart to close (|q4 - q1| = {dist:.6f} > 2)")
        raise OutOfDomainError("q4 coincides with q1; closure is degenerate")
    return PlanarConfiguration(pts[0])


def interior_angles(points, i: int, j: int, k: int) -> np.ndarray:
    """Chain angle at vertex j from edge (i,j) to edge (j,k), in [0, 2*pi).

    One angle for each configuration in an (N, 5, 2) stack, measured with
    the same clockwise convention ``chain_points`` uses, so reconstructing a
    configuration from its own angles is the identity.  atan2 goes through
    libm, by the gate ``intervals._libm``, and ``np.remainder`` is Python's
    float ``%``.
    """
    pts = np.asarray(points, dtype=float)
    i, j, k = _cols(i, j, k)
    uv = pts[:, [i, k]] - pts[:, [j]]  # q_i - q_j and q_k - q_j
    a = _libm(math.atan2, uv[..., 1], uv[..., 0])
    return np.remainder(a[:, 0] - a[:, 1], 2.0 * math.pi)


_HULL_TOL = 1e-14  # a chain turn this small counts as straight
# every (o, a, b) of chain positions o < a < b, and its bit in a chain's
# pattern of turns
_TURN_BIT = {t: n for n, t in enumerate(combinations(range(5), 3))}
_TURN_O, _TURN_A, _TURN_B = np.array(list(_TURN_BIT)).T


def _chain_keep(straight: int) -> list:
    """Chain positions that Andrew's monotone chain keeps, all but its last
    point, when the turn (o, a, b) is straight exactly where bit
    ``_TURN_BIT[o, a, b]`` of ``straight`` is set."""
    stack = [0, 1]
    for nxt in range(2, 5):
        while len(stack) >= 2 and straight >> _TURN_BIT[stack[-2], stack[-1], nxt] & 1:
            stack.pop()
        stack.append(nxt)
    return [n in stack[:-1] for n in range(5)]


# the kept positions of a five-point chain depend only on its ten turn bits
_CHAIN_KEEP = np.array([_chain_keep(straight) for straight in range(1 << len(_TURN_BIT))])


def hull_mask(points) -> np.ndarray:
    """(N, 5) mask of the convex-hull vertices of each configuration.

    Andrew's monotone chain (A. M. Andrew, Inf. Proc. Letters 9, 1979) over
    the rows of an (N, 5, 2) stack: each row is ordered by (x, y), and the
    last chain point is popped while the turn from the last two chain points
    to the next point is at most ``_HULL_TOL``.  Which points a five-point
    chain keeps depends only on which of its ten turns are straight, so the
    turns are computed in one pass and their bits index ``_CHAIN_KEEP``, the
    outcome of the scalar chain on each of the 1024 patterns.  Points on a
    hull edge are not vertices.
    """
    pts = np.asarray(points, dtype=float)
    rows = np.arange(len(pts))[:, None]
    order = np.lexsort((pts[..., 1], pts[..., 0]))  # stable, as sorting on (x, y)
    mask = np.zeros(order.shape, dtype=bool)
    weights = 1 << np.arange(len(_TURN_BIT))
    for chain in (order, order[:, ::-1]):  # lower hull, then upper hull
        q = pts[rows, chain]
        x, y = q[..., 0], q[..., 1]
        o, a, b = _TURN_O, _TURN_A, _TURN_B
        straight = ((x[:, a] - x[:, o]) * (y[:, b] - y[:, o])
                    - (y[:, a] - y[:, o]) * (x[:, b] - x[:, o])) <= _HULL_TOL
        # every chain point but the last, which starts the other chain
        mask[rows, chain] |= _CHAIN_KEEP[straight @ weights]
    return mask


@dataclass(frozen=True)
class SignType:
    """Sign-type classification of a symmetric shape.

    ``label`` is one of A1..A5, B1..B5, or "boundary"; boundary cases carry a
    description naming the vanishing quantity.
    """

    label: str
    boundary: str | None = None


_SIGN_EPS = 1e-10


def classify_sign_type(shape: SymmetricShape) -> SignType:
    """Classify a symmetric shape into its sign type or a named boundary.

    Branch A types are separated by r35 = 1 (twice), Delta134 = 0, and
    Delta345 = 0 (where also r14 = 1); branch B types by the two q3 = q5
    collisions, the q1 = q3 collision, and Delta134 = 0.  A defining
    quantity within ``_SIGN_EPS`` of its boundary value names the boundary.
    """
    t = family_terms(shape.y4, shape.branch)
    d123, d134, d135, d345 = t["d123"], t["d134"], t["d135"], t["d345"]
    r13, r35 = t["r13"], t["r35"]

    if shape.branch == "A":
        if abs(r35 - 1.0) <= _SIGN_EPS:
            side = "A1/A2" if d345 < 0 else "A4/A5"
            return SignType("boundary", f"r35 = 1 ({side})")
        if abs(d134) <= _SIGN_EPS:
            return SignType("boundary", "Delta134 = 0 (A2/A3)")
        if abs(d345) <= _SIGN_EPS:
            return SignType("boundary", "Delta345 = 0, r14 = 1 (A3/A4)")
        if d134 < 0.0:
            return SignType("A1" if r35 < 1.0 else "A2")
        if d345 < 0.0:
            return SignType("A3")
        return SignType("A4" if r35 > 1.0 else "A5")

    if r35 <= _SIGN_EPS:
        return SignType("boundary", "collision q3 = q5")
    if r13 <= _SIGN_EPS:
        return SignType("boundary", "collision q1 = q3")
    if abs(d134) <= _SIGN_EPS:
        return SignType("boundary", "Delta134 = 0 (B3/B4)")
    if d123 < 0.0:
        return SignType("B1" if d135 < 0.0 else "B2")
    if d134 < 0.0:
        return SignType("B3")
    return SignType("B5" if d135 > 0.0 else "B4")
