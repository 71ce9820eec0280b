"""Central-configuration equation systems for homogeneous potentials.

Residual conventions, for exponent A >= 2 and R(i,j) = r(i,j)**(-A):

- Wedge-product equations, one per unordered pair (i,j):
      L(i,j) = sum over k of m_k (R(i,k) - R(j,k)) Delta(i,j,k)
  linear in the masses.  For an equilateral cyclic pentagon normalized to
  unit edges the five diagonal-pair equations involve only two masses each.

- Mutual-distance equations, one per ordered pair:
      f(i,j) = sum over k != i of m_k (r(i,k)**(-A) - lt) A(i,j,k)
  with A(i,j,k) = r(j,k)^2 - r(i,k)^2 - r(i,j)^2 and lt the normalized
  multiplier.  g(i,j) = f(i,j) + f(j,i) gives the symmetric variant.

The mass-coefficient matrix of the mirror-symmetric family and its kernel
recover admissible masses; feasibility of the two-mass equations drives the
region classification of general equilateral pentagons.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import (
    ChainAngles,
    CollisionError,
    DIAGONALS,
    PAIRS,
    PlanarConfiguration,
    SymmetricShape,
    _chain,
    _close,
    collision_error,
    cyclic_from_angles,
    distance_masks,
    family_terms,
    hull_mask,
    interior_angles,
    mutual_distances,
    oriented_areas,
    pair_distances,
)
from .intervals import _libm, _libm_distinct

log = logging.getLogger(__name__)

_RANK_TOL = 1e-9  # relative singular-value floor of the mass kernel's rank
_TWO_MASS_ZERO_TOL = 1e-10  # a two-mass coefficient this small counts as zero
_REGION3_TOL = 1e-9  # slack of the region III angle and orientation tests

__all__ = [
    "Exponent",
    "MassVector",
    "ResidualReport",
    "KernelResult",
    "La2Certificate",
    "La2Result",
    "RegionResult",
    "laura_andoyer",
    "albouy_chenciner_f",
    "symmetric_g",
    "mass_coefficient_matrix",
    "mass_kernel",
    "la2_feasible",
    "region_classify",
    "region_labels",
    "region_labels_by_closure",
    "TWO_MASS_PAIRS",
]


@dataclass(frozen=True)
class Exponent:
    """Potential exponent A >= 2, optionally with an exact rational form."""

    value: float
    rational: Fraction | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"exponent must be finite, got {self.value}")
        if self.value < 2.0:
            raise ValueError(f"exponent must be >= 2, got {self.value}")
        if self.rational is not None and abs(float(self.rational) - self.value) > 1e-12:
            raise ValueError("rational form disagrees with the float value")

    @classmethod
    def parse(cls, text) -> "Exponent":
        """Parse '3', '2.5', or '5/2'; fractions keep their exact form.

        Text that is neither, a non-finite value, a zero denominator or a
        fraction too large for a float raises ValueError.
        """
        if isinstance(text, (int, Fraction)):
            return cls._from_fraction(Fraction(text))
        s = str(text).strip()
        try:
            v = Fraction(s) if "/" in s else float(s)
        except ZeroDivisionError:
            raise ValueError(f"exponent {s} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"exponent needs a number or a fraction p/q, got {s!r}") from None
        if isinstance(v, Fraction):
            return cls._from_fraction(v)
        if v.is_integer():
            return cls(v, Fraction(int(v)))
        return cls(v, None)

    @classmethod
    def _from_fraction(cls, f: Fraction) -> "Exponent":
        try:
            return cls(float(f), f)
        except OverflowError:
            raise ValueError("exponent is too large for a float") from None


@dataclass(frozen=True)
class MassVector:
    """Five masses, normalized with m1 = 1 where a scale must be fixed."""

    m1: float
    m2: float
    m3: float
    m4: float
    m5: float

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3, self.m4, self.m5])

    @property
    def all_positive(self) -> bool:
        return bool(np.all(self.as_array() > 0.0))

    @classmethod
    def symmetric(cls, m1: float, m3: float, m4: float) -> "MassVector":
        """Mirror-symmetric masses: m2 = m1 and m5 = m3."""
        return cls(m1, m1, m3, m4, m3)


@dataclass
class ResidualReport:
    """Map from equation label to residual value, plus system metadata."""

    system: str
    residuals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def max_abs(self) -> float:
        return max((abs(v) for v in self.residuals.values()), default=0.0)

    def to_json(self) -> dict:
        return {
            "system": self.system,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "max_abs": self.max_abs,
            "meta": self.meta,
        }


# Diagonal pairs whose wedge equations involve exactly two masses, with the
# masses they involve (unit-edge equilateral cyclic pentagon).
TWO_MASS_PAIRS = {
    (1, 3): (4, 5),
    (2, 4): (1, 5),
    (3, 5): (1, 2),
    (1, 4): (2, 3),
    (2, 5): (3, 4),
}


def _mass_array(masses) -> np.ndarray:
    """Five masses, from a MassVector or a sequence, as a float array."""
    m = np.asarray(masses.as_array() if isinstance(masses, MassVector) else masses,
                   dtype=float)
    if m.shape != (5,):
        raise ValueError("expected five masses")
    return m


# Each unordered pair (i, j) with the three other bodies k, in increasing
# order, as zero-based (10, 3) index arrays.
_WEDGE_I, _WEDGE_J, _WEDGE_K = np.array(
    [[(i, j, k) for k in range(5) if k not in (i, j)] for i, j in np.array(PAIRS) - 1]
).transpose(2, 0, 1)


def _running_sum(terms):
    """Sum over the last axis in order, from 0.0, as a scalar loop adds.

    Not ``sum()``, which is compensated on Python >= 3.12, nor a numpy
    reduction, which sums pairwise: either could move the last bit.
    """
    total = 0.0
    for term in np.moveaxis(terms, -1, 0):
        total = total + term
    return total


def laura_andoyer(config: PlanarConfiguration, masses, a_exp: float) -> ResidualReport:
    """All ten wedge-product residuals L(i,j).

    For equilateral cyclic inputs the report's meta lists which labels form
    the two-mass and three-mass groups.
    """
    m = _mass_array(masses)
    table = mutual_distances(config)
    R = (table.table + np.eye(5)) ** (-a_exp)  # shift keeps the unused diagonal finite
    np.fill_diagonal(R, 0.0)
    i, j, k = _WEDGE_I, _WEDGE_J, _WEDGE_K
    areas = oriented_areas(config.points[None], i + 1, j + 1, k + 1)[0]
    totals = _running_sum(m[k] * (R[i, k] - R[j, k]) * areas)
    res = {f"L{a}{b}": total for (a, b), total in zip(PAIRS, totals)}
    meta = {"A": a_exp, "equilateral": table.is_equilateral}
    if table.is_equilateral:
        meta["two_mass"] = [f"L{i}{j}" for (i, j) in TWO_MASS_PAIRS]
        meta["three_mass"] = [lab for lab in res if lab not in meta["two_mass"]]
    return ResidualReport(system="laura_andoyer", residuals=res, meta=meta)


def _distance_table(distances) -> np.ndarray:
    """The 5x5 table of a PlanarConfiguration, or a given table checked.

    A given table must be finite and symmetric with a zero diagonal
    (ValueError otherwise), and a pair distance must be positive
    (CollisionError otherwise).
    """
    if isinstance(distances, PlanarConfiguration):
        return mutual_distances(distances).table
    r = np.asarray(distances, dtype=float)
    if r.shape != (5, 5):
        raise ValueError("expected a 5x5 distance table")
    if not np.all(np.isfinite(r)):
        raise ValueError("distance table has a non-finite entry")
    if np.any(np.diag(r) != 0.0):
        raise ValueError("distance table needs a zero diagonal")
    if np.any(r != r.T):
        raise ValueError("distance table is not symmetric")
    if np.any(r[np.triu_indices(5, k=1)] <= 0.0):
        raise CollisionError("distance table has a nonpositive entry")
    return r


_OFF_DIAGONAL = ~np.eye(5, dtype=bool)


def _residual_tables(r: np.ndarray, a_exp: float) -> tuple:
    """Tables s[i,k] = r_ik**(-A) and a[i,j,k] = r_jk**2 - r_ik**2 - r_ij**2.

    Both are 0.0 where k = i.  The powers are libm ``pow`` through
    ``intervals._libm``, as Python's and numpy's scalar ``**`` are; numpy's
    array ``**`` is not.
    """
    s = _libm(pow, r + np.eye(5), -a_exp)  # shift keeps the diagonal finite
    np.fill_diagonal(s, 0.0)
    sq = _libm(pow, r, 2.0)
    a = sq[None, :, :] - sq[:, None, :] - sq[:, :, None]
    d = np.arange(5)
    a[d, :, d] = 0.0
    return s, a


def _fit(m: np.ndarray, s: np.ndarray, a: np.ndarray) -> float:
    """The least-squares multiplier from the residual tables."""
    a_coef = _running_sum((m * s)[:, None, :] * a)[_OFF_DIAGONAL]
    b_coef = _running_sum(m * a)[_OFF_DIAGONAL]
    den = _running_sum(b_coef * b_coef)
    if den == 0.0:
        raise ValueError("degenerate configuration: multiplier is unconstrained")
    return _running_sum(a_coef * b_coef) / den


def _shifted_tables(distances, masses, a_exp: float, lambda_tilde) -> tuple:
    """(m, s - lt, a, lt): the masses, the residual tables with s shifted by
    the multiplier lt off the diagonal, and lt, fitted when not given."""
    r = _distance_table(distances)
    m = _mass_array(masses)
    s, a = _residual_tables(r, a_exp)
    if lambda_tilde is None:
        lambda_tilde = _fit(m, s, a)
    return m, np.where(_OFF_DIAGONAL, s - lambda_tilde, 0.0), a, lambda_tilde


def albouy_chenciner_f(distances, masses, a_exp: float,
                       lambda_tilde: float | None = None) -> ResidualReport:
    """The twenty mutual-distance residuals f(i,j), i != j.

    ``distances`` is a full 5x5 table (or a PlanarConfiguration).  When
    ``lambda_tilde`` is None it is fitted by linear least squares.
    """
    m, s, a, lambda_tilde = _shifted_tables(distances, masses, a_exp, lambda_tilde)
    f = _running_sum((m * s)[:, None, :] * a)
    res = {f"f{i + 1}{j + 1}": f[i, j] for i in range(5) for j in range(5) if i != j}
    return ResidualReport(system="albouy_chenciner",
                          residuals=res,
                          meta={"A": a_exp, "lambda_tilde": lambda_tilde})


def symmetric_g(distances, masses, a_exp: float,
                lambda_tilde: float | None = None) -> ResidualReport:
    """Symmetrized residuals g(i,j) computed directly from their own formula,
    the sum over k of m_k ((s_ik - lt) A(i,j,k) + (s_jk - lt) A(j,i,k))."""
    m, s, a, lambda_tilde = _shifted_tables(distances, masses, a_exp, lambda_tilde)
    # (s_ik - lt) A(i,j,k); on a symmetric table its (j, i) transpose is the
    # second term
    p = s[:, None, :] * a
    g = _running_sum(m * (p + p.transpose(1, 0, 2)))
    res = {f"g{i}{j}": g[i - 1, j - 1] for i, j in PAIRS}
    return ResidualReport(system="albouy_chenciner_sym",
                          residuals=res,
                          meta={"A": a_exp, "lambda_tilde": lambda_tilde})


# The four independent wedge equations of the mirror-symmetric family as
# rows of coefficients of (m1, m3, m4), mirror symmetry setting m2 = m1 and
# m5 = m3.  Each row is a function of the ``family_terms`` of a shape with
# an exponent, and works on every type ``family_terms`` accepts.
_WEDGE_ROWS = {
    "L13": lambda g: (0.0, (1.0 - g["R35"]) * g["d135"], (g["R14"] - 1.0) * g["d134"]),
    "L14": lambda g: ((1.0 - g["R14"]) * g["d124"], (g["R13"] - 1.0) * g["d134"], 0.0),
    "L15": lambda g: ((1.0 - g["R13"]) * g["d123"], (g["R13"] - g["R35"]) * g["d135"],
                      (g["R14"] - 1.0) * g["d145"]),
    "L34": lambda g: ((g["R13"] - g["R14"]) * g["d134"] + (1.0 - g["R14"]) * g["d145"],
                      (g["R35"] - 1.0) * g["d345"], 0.0),
}


def mass_coefficient_matrix(shape: SymmetricShape, a_exp: float) -> np.ndarray:
    """4x3 coefficient matrix of (m1, m3, m4) for rows L13, L14, L15, L34.

    The rows are those of ``_WEDGE_ROWS``, the four independent symmetric
    wedge equations.  Raises CollisionError where two bodies coincide.
    """
    with np.errstate(divide="ignore"):  # a zero distance is refused below
        g = family_terms(shape.y4, shape.branch, a_exp)
    if min(g["r13"], g["r14"], g["r35"]) <= 0.0:
        raise CollisionError(f"collision at y4 = {shape.y4} on branch {shape.branch}")
    return np.array([row(g) for row in _WEDGE_ROWS.values()])


@dataclass(frozen=True)
class KernelResult:
    """Kernel of a mass-coefficient matrix, if the numerical rank admits one."""

    feasible: bool
    masses: MassVector | None
    positive: bool
    rank: int
    singular_values: tuple


def mass_kernel(matrix: np.ndarray) -> KernelResult:
    """Kernel vector of a 4x3 coefficient matrix, scaled to m1 = 1.

    The numerical rank uses the threshold _RANK_TOL * (largest singular
    value); full-rank matrices are infeasible.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 3):
        raise ValueError(f"expected a 4x3 matrix, got {m.shape}")
    _, svals, vt = np.linalg.svd(m)
    rank = int(np.sum(svals > _RANK_TOL * svals[0])) if svals[0] > 0.0 else 0
    if rank >= 3:
        return KernelResult(False, None, False, rank, tuple(svals))
    v = vt[-1]
    if abs(v[0]) < 1e-12 * np.linalg.norm(v):
        return KernelResult(False, None, False, rank, tuple(svals))
    v = v / v[0]
    masses = MassVector.symmetric(1.0, float(v[1]), float(v[2]))
    return KernelResult(True, masses, masses.all_positive, rank, tuple(svals))


@dataclass(frozen=True)
class La2Certificate:
    """Sign certificate for one two-mass equation."""

    pair: tuple
    mass_indices: tuple
    coefficients: tuple
    admissible: bool


@dataclass(frozen=True)
class La2Result:
    feasible: bool
    certificates: tuple

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "equations": [
                {
                    "pair": list(c.pair),
                    "masses": list(c.mass_indices),
                    "coefficients": list(c.coefficients),
                    "admissible": c.admissible,
                }
                for c in self.certificates
            ],
        }


_COL = {pair: n for n, pair in enumerate(PAIRS)}
_DIAG_COLS = [_COL[e] for e in DIAGONALS]


def _col(i: int, k: int) -> int:
    return _COL[(min(i, k), max(i, k))]


def _two_mass(points, a_exp: float) -> tuple:
    """The five two-mass wedge equations over an (N, 5, 2) stack.

    Returns ``(d, collision, coef, admissible)``: the ``pair_distances``
    table, a mask of the configurations with coincident bodies, the (N, 5, 2)
    coefficients (ca, cb) in ``TWO_MASS_PAIRS`` order, and the (N, 5)
    admissibility of each equation.  Coefficients of colliding rows are
    meaningless.  Raises ValueError when a configuration without a collision
    is not equilateral (by ``distance_masks``, as ``mutual_distances``).
    """
    pts = np.asarray(points, dtype=float)
    d = pair_distances(pts)
    collision, equilateral = distance_masks(d)
    if np.any(~equilateral & ~collision):
        raise ValueError("two-mass equations require an equilateral cyclic pentagon")
    scale = d[:, :1]  # r12
    # libm pow, as Python's r ** 2 in the scalar formula: numpy's x**2 is
    # x*x, which differs in the last bit on about 0.1 % of arguments; once
    # per distinct r12, of which a grid of chain points holds two
    scale_sq = _libm_distinct(pow, scale[:, 0], 2.0)
    coef = np.empty((len(pts), len(TWO_MASS_PAIRS), 2))
    with np.errstate(all="ignore"):  # only colliding rows divide by zero
        R = (d / scale) ** (-a_exp)
        for e, ((i, j), ks) in enumerate(TWO_MASS_PAIRS.items()):
            for c, k in enumerate(ks):
                coef[:, e, c] = ((R[:, _col(i, k)] - R[:, _col(j, k)])
                                 * oriented_areas(pts, i, j, k) / scale_sq)
    zero = np.abs(coef) <= _TWO_MASS_ZERO_TOL
    za, zb = zero[..., 0], zero[..., 1]
    opposite = (coef[..., 0] > 0) != (coef[..., 1] > 0)
    admissible = (za & zb) | (~za & ~zb & opposite)
    return d, collision, coef, admissible


def la2_feasible(config: PlanarConfiguration, a_exp: float) -> La2Result:
    """Positive-mass feasibility of the five two-mass wedge equations.

    Each equation c_a * m_a + c_b * m_b = 0 admits positive masses exactly
    when the coefficients have opposite strict signs or both vanish; one
    zero coefficient against a nonzero one would force a zero mass.
    Coefficients are scaled by r12**2 so that the verdict is scale
    invariant.  Raises CollisionError when two bodies coincide.
    """
    d, collision, coef, admissible = _two_mass(config.points[None], a_exp)
    if collision[0]:
        raise collision_error(d[0])
    certs = tuple(La2Certificate(pair, ks, tuple(cs), ok) for (pair, ks), cs, ok
                  in zip(TWO_MASS_PAIRS.items(), coef[0].tolist(), admissible[0].tolist()))
    return La2Result(all(c.admissible for c in certs), certs)


@dataclass(frozen=True)
class RegionResult:
    region: str            # "I", "II", "III", or "none"
    interior_label: int | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {"region": self.region, "interior": self.interior_label,
                "detail": self.detail}


_FIVE_THIRDS_PI = 5.0 * math.pi / 3.0


def _region3_holds(pts: np.ndarray) -> np.ndarray:
    """Angle and orientation conditions of region III, body 5 interior, per row."""
    t123 = interior_angles(pts, 1, 2, 3)
    t234 = interior_angles(pts, 2, 3, 4)
    return ((t123 + t234 <= 3.0 * math.pi + _REGION3_TOL)
            & (t123 <= _FIVE_THIRDS_PI + _REGION3_TOL)
            & (t234 <= _FIVE_THIRDS_PI + _REGION3_TOL)
            & (oriented_areas(pts, 1, 3, 5) >= -_REGION3_TOL)
            & (oriented_areas(pts, 2, 4, 5) >= -_REGION3_TOL))


def _region_codes(points, a_exp: float) -> np.ndarray:
    """Vectorised part of the classification, one code per configuration.

    Codes: "collision", "infeasible" (a two-mass equation has no positive
    solution), "I" (feasible, every diagonal longer than the edge r12),
    "II" (feasible, every diagonal shorter), and "mixed" (feasible, with
    diagonals on both sides of the edge), which ``_concave_regions`` settles.
    """
    d, collision, _, admissible = _two_mass(points, a_exp)
    edge, diag = d[:, :1], d[:, _DIAG_COLS]
    return np.select(
        [collision, ~np.all(admissible, axis=1),
         np.all(diag > edge, axis=1), np.all(diag < edge, axis=1)],
        ["collision", "infeasible", "I", "II"], "mixed")


def _concave_regions(points) -> tuple:
    """Region III test of an (M, 5, 2) stack of feasible configurations.

    Returns ``(inner, region3)``: the label of the one body strictly inside
    the hull of the others (0 where not exactly one body is) and the mask of
    the rows in region III.  Such a row is relabeled by the cyclic shift that
    moves its interior body to position 5, and it is in region III when the
    relabeled configuration or its mirror image meets ``_region3_holds``.
    """
    pts = np.asarray(points, dtype=float)
    hull = hull_mask(pts)
    single = hull.sum(axis=1) == 4
    inner = np.where(single, np.argmin(hull, axis=1) + 1, 0)
    # relabel i -> i + p (mod 5), which sends old body p to new position 5
    idx = (np.arange(5) + inner[:, None]) % 5
    shifted = np.take_along_axis(pts, idx[..., None], axis=1)
    region3 = single & (_region3_holds(shifted) | _region3_holds(shifted * [1.0, -1.0]))
    return inner, region3


def region_classify(angles: ChainAngles, a_exp: float) -> RegionResult:
    """Classify a unit-edge cyclic pentagon into the allowed-region classes.

    Region I: feasible with every diagonal longer than the edges (contains
    the convex regular pentagon).  Region II: feasible with every diagonal
    shorter (contains the regular star).  Region III: feasible concave
    shapes satisfying the interior-body conditions after the cyclic
    relabeling that moves the interior body to position 5; reflected copies
    are accepted through the mirror image.  Raises OutOfDomainError when the
    chain does not close and CollisionError when two bodies coincide.  This
    is the batch of one of ``region_labels``.
    """
    config = cyclic_from_angles(angles)
    code = _region_codes(config.points[None], a_exp)[0]
    if code == "collision":
        raise collision_error(pair_distances(config.points[None])[0])
    if code == "infeasible":
        return RegionResult("none", detail="two-mass equations infeasible")
    if code == "mixed":
        (inner,), (region3,) = _concave_regions(config.points[None])
        if region3:
            return RegionResult("III", interior_label=int(inner))
        if inner:
            return RegionResult("none", detail="concave but angle conditions fail")
        return RegionResult("none", detail="mixed diagonals, not single-interior concave")
    return RegionResult(str(code))


def _closure_labels(chain: tuple, closure: str, a_exp: float) -> list:
    """``region_labels`` of one closure from the shared chain ``_chain``."""
    points, realizable = _close(chain, closure)
    pts = points[realizable]
    codes = _region_codes(pts, a_exp)
    found = np.where(codes == "infeasible", "none", codes).astype(object)
    mixed = codes == "mixed"
    found[mixed] = np.where(_concave_regions(pts[mixed])[1], "III", "none")
    log.info("region labels, %s closure: %d cells, %d realizable, %d sent to the "
             "region III test", closure, realizable.size, len(pts), np.count_nonzero(mixed))
    labels = np.full(realizable.size, "unrealizable", dtype=object)
    labels[realizable] = found
    return labels.tolist()


def region_labels(theta12, theta23, closure: str, a_exp: float) -> list:
    """Region of each cell of arrays of chain angles (radians).

    Returns one label per cell: "I", "II", "III", "none" (infeasible or
    failing the region III conditions), "unrealizable" (the chain does not
    close) or "collision".  The cells are classified together by the array
    kernels, and the feasible cells with mixed diagonals take the region III
    test together.  Labels equal ``region_classify(...).region``.
    """
    return _closure_labels(_chain(theta12, theta23), closure, a_exp)


def region_labels_by_closure(theta12, theta23, a_exp: float) -> dict:
    """``region_labels`` of the "plus" and "minus" closures, by closure: one
    chain for both, and each closure classified on its own, which keeps
    the arrays a call holds to one closure's cells."""
    chain = _chain(theta12, theta23)
    return {closure: _closure_labels(chain, closure, a_exp) for closure in ("plus", "minus")}
