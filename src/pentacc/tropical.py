"""Exact tropical-prevariety membership for the finiteness system.

For a rational exponent A = p/q the finiteness system consists of

- the twenty cleared-denominator mutual-distance equations, written with
  the substitution Q = r**(2 - A) so that every exponent is integral,
- the five four-point Cayley-Menger determinants, and
- the six defining binomials Q**q r**p - r**(2q),

all expressed in the six equilateral distance classes (r12, r13, r14, r24,
r25, r35) and their six Q partners, twelve Laurent variables total.
Coefficients are exact rationals times monomials in the five masses; masses
are treated generically, so a term survives exactly when its mass
coefficient is not the zero polynomial.  The mutual-distance equations and
the determinants are built as integer monomial sums.

A 6-dimensional rational weight vector lifts to twelve coordinates through
the binomial relation, which forces w(Q) = (2 - A) w(r) per class.  The
weight lies in the tropical prevariety when the initial form of every
system polynomial keeps at least two terms; initial forms collect the terms
of maximal weight, the Groebner-deformation convention under which the
shipped ray and cone tables verify.

Membership runs on projected points.  The lifted weight of a term with
exponent (e_r, e_Q) is <e_r + (2 - A) e_Q, w> = <q e_r + (2q - p) e_Q, w> / q,
so each term projects to the integer point q e_r + (2q - p) e_Q in Z^6, and
each weight is scaled once by the least common multiple of its six
denominators.  Both are positive rescalings, so every maximiser set is that
of the rational lift.  All term weights of a batch of weights are one
integer matrix product, and per-polynomial maxima and tie counts are
``reduceat`` reductions.  The six binomials project to one point each, so
they never decide membership; if they do not, the system was built for
another exponent and the kernel raises ``ValueError``.

The products are exact at any size.  They run on int64 when a bound proves
that nothing can overflow: every product and partial sum of a term weight is
at most 6 max|point| max|weight|, and a point coordinate is at most
2 max|exponent| max(q, |2q - p|).  When the bound reaches 2**62 the same code
runs on Python integers (``dtype=object``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import chain, combinations, permutations

import numpy as np

from .geometry import PAIR_CLASS

__all__ = [
    "NUM_VARIABLES",
    "LaurentPoly",
    "WeightVector",
    "RayTable",
    "load_ray_table",
    "build_system",
    "in_prevariety",
    "verify_tables",
    "TableReport",
    "cyclic_weight",
    "reflect_weight",
    "weight_orbit",
]

# Variable order: six r classes then six Q classes, matching class order.
NUM_VARIABLES = 12


def _cls(i: int, j: int) -> int:
    return PAIR_CLASS[(min(i, j), max(i, j))]


_ZERO_MASS = (0, 0, 0, 0, 0)


class LaurentPoly:
    """Polynomial in the twelve class variables with mass-polynomial coefficients.

    ``terms`` maps a 12-dimensional integer exponent vector to a mass
    polynomial, itself a map from 5-dimensional mass exponents to Fraction.
    Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def monomial(cls, exps: dict | None = None, q_exps: dict | None = None,
                 mass: int | None = None, coeff=1) -> "LaurentPoly":
        """Single term c * m_mass * prod r_c^e * prod Q_c^e."""
        e = [0] * NUM_VARIABLES
        for c, p in (exps or {}).items():
            e[c] += p
        for c, p in (q_exps or {}).items():
            e[6 + c] += p
        me = [0] * 5
        if mass is not None:
            me[mass - 1] = 1
        return cls({tuple(e): {tuple(me): Fraction(coeff)}})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = {e: dict(mp) for e, mp in self.terms.items()}
        for e, mp in other.terms.items():
            tgt = out.setdefault(e, {})
            for me, c in mp.items():
                acc = tgt.get(me, Fraction(0)) + c
                if acc:
                    tgt[me] = acc
                else:
                    tgt.pop(me, None)
            if not tgt:
                del out[e]
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: {me: -c for me, c in mp.items()}
                            for e, mp in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)


def _r(c: int, power: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(exps={c: power})


def build_f_poly(i: int, j: int) -> LaurentPoly:
    """Cleared-denominator mutual-distance equation for the ordered pair (i, j).

    f_ij = sum over k != i of m_k (Q_ik - r_ik^2) a_ijk D_ik, where
    a_ijk = r_jk^2 - r_ik^2 - r_ij^2 (without r_jk^2 when k = j) and D_ik is
    the product of r_c^2 over the classes c of the pairs (i, k) other than
    that of (i, k) itself.  Each product expands into signed monomials, and
    their integer coefficients are summed per exponent and mass.
    """
    others = [k for k in range(1, 6) if k != i]
    classes = {_cls(i, k) for k in others}
    coeffs: dict = {}
    for k in others:
        cik = _cls(i, k)
        cleared = [0] * NUM_VARIABLES
        for c in classes - {cik}:
            cleared[c] = 2
        a_terms = [(-1, cik), (-1, _cls(i, j))] + ([(1, _cls(j, k))] if k != j else [])
        for s_sign, s_var, s_pow in ((1, 6 + cik, 1), (-1, cik, 2)):  # Q - r^2
            for a_sign, a_cls in a_terms:
                e = list(cleared)
                e[s_var] += s_pow
                e[a_cls] += 2
                key = (tuple(e), k)
                coeffs[key] = coeffs.get(key, 0) + s_sign * a_sign
    terms: dict = {}
    for (e, k), c in coeffs.items():
        if c:
            mass = [0] * 5
            mass[k - 1] = 1
            terms.setdefault(e, {})[tuple(mass)] = Fraction(c)
    return LaurentPoly(terms)


def _perm_sign(perm: tuple) -> int:
    """Sign of a permutation: -1 per cycle of even length."""
    sgn, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        length, t = 0, start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length and length % 2 == 0:
            sgn = -sgn
    return sgn


# The bordered Cayley-Menger matrix has a zero diagonal, so only the 44
# derangements of 5 contribute Leibniz terms.
_DERANGEMENTS = tuple((perm, _perm_sign(perm)) for perm in permutations(range(5))
                      if all(perm[a] != a for a in range(5)))


def build_cayley_menger_poly(points: tuple) -> LaurentPoly:
    """Symbolic four-point Cayley-Menger determinant in class variables.

    Every entry off the zero diagonal is 1 (the border) or a single r^2, so
    each Leibniz term is a signed monomial whose exponent counts its r^2
    factors; the determinant is the integer sum of those monomials.
    """
    coeffs: dict = {}
    for perm, sgn in _DERANGEMENTS:
        e = [0] * NUM_VARIABLES
        for a in range(1, 5):
            if perm[a]:
                e[_cls(points[a - 1], points[perm[a] - 1])] += 2
        key = tuple(e)
        coeffs[key] = coeffs.get(key, 0) + sgn
    return LaurentPoly({e: {_ZERO_MASS: Fraction(c)} for e, c in coeffs.items() if c})


def build_q_relation(c: int, p: int, q: int) -> LaurentPoly:
    """Defining binomial Q_c^q r_c^p - r_c^(2q)."""
    return (LaurentPoly.monomial(exps={c: p}, q_exps={c: q}) - _r(c, 2 * q))


def build_system(a_exp: Fraction) -> list:
    """The full finiteness system for a rational exponent, as (label, poly).

    Twenty mutual-distance polynomials, five Cayley-Menger determinants, and
    six Q-defining binomials: 31 in total, with generic mass coefficients.
    """
    a_exp = Fraction(a_exp)
    if a_exp < 2:
        raise ValueError(f"exponent must be >= 2, got {a_exp}")
    p, q = a_exp.numerator, a_exp.denominator
    system = []
    for i in range(1, 6):
        for j in range(1, 6):
            if i != j:
                system.append((f"f{i}{j}", build_f_poly(i, j)))
    for sub in combinations(range(1, 6), 4):
        system.append(("CM" + "".join(map(str, sub)), build_cayley_menger_poly(sub)))
    for c in range(6):
        system.append((f"Qrel{c}", build_q_relation(c, p, q)))
    return system


@dataclass(frozen=True)
class WeightVector:
    """Rational weights on the six distance classes, Q-weights derived.

    The binomial relation ties the lifted coordinates together:
    q * w(Q_c) + p * w(r_c) = 2q * w(r_c), i.e. w(Q_c) = (2 - A) w(r_c).
    """

    weights: tuple

    def __post_init__(self):
        if len(self.weights) != 6:
            raise ValueError("expected six class weights")
        object.__setattr__(self, "weights",
                           tuple(Fraction(w) for w in self.weights))

    def scaled(self, c) -> "WeightVector":
        return WeightVector(tuple(Fraction(c) * w for w in self.weights))

    @property
    def coordinate_sum(self) -> Fraction:
        return sum(self.weights, Fraction(0))


# Cyclic relabeling i -> i+1 fixes the edge class and 5-cycles the diagonals;
# the reflection (1 2)(3 5) reverses that cycle.
CYCLE_CLASS_MAP = {0: 0, 1: 3, 3: 5, 5: 2, 2: 4, 4: 1}
REFLECT_CLASS_MAP = {0: 0, 1: 4, 4: 1, 2: 3, 3: 2, 5: 5}


def _relabel(w: WeightVector, class_map: dict) -> WeightVector:
    """The weight of each class c moved to class ``class_map[c]``."""
    out = [Fraction(0)] * 6
    for c, x in enumerate(w.weights):
        out[class_map[c]] = x
    return WeightVector(tuple(out))


def cyclic_weight(w: WeightVector) -> WeightVector:
    return _relabel(w, CYCLE_CLASS_MAP)


def reflect_weight(w: WeightVector) -> WeightVector:
    return _relabel(w, REFLECT_CLASS_MAP)


def weight_orbit(w: WeightVector, dihedral: bool = False) -> list:
    """Orbit under the cyclic relabeling, optionally with the reflection:
    the images of ``w`` under the five rotations (and the five reflections),
    sorted by weights."""
    images = [w]
    for _ in range(4):
        images.append(cyclic_weight(images[-1]))
    if dihedral:
        images += [reflect_weight(v) for v in images]
    unique = {v.weights: v for v in images}
    return [unique[k] for k in sorted(unique)]


# Below this bound on every entry, product and partial sum, int64 is exact.
_INT64_BOUND = 2 ** 62


def _magnitude(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _project(polys: list, a_exp: Fraction) -> np.ndarray:
    """Each term's exponent (e_r, e_Q) projected to q e_r + (2q - p) e_Q, one row per
    term in system and term order; int64 when the bound allows, else Python ints."""
    p, q = a_exp.numerator, a_exp.denominator
    exps = list(chain.from_iterable(poly.terms for poly in polys))
    try:
        e = np.fromiter(chain.from_iterable(exps), dtype=np.int64,
                        count=NUM_VARIABLES * len(exps))
    except OverflowError:
        e = np.array(list(chain.from_iterable(exps)), dtype=object)
    e = e.reshape(len(exps), NUM_VARIABLES)
    if 2 * _magnitude(e) * max(q, abs(2 * q - p)) >= _INT64_BOUND:
        e = e.astype(object)
    return q * e[:, :6] + (2 * q - p) * e[:, 6:]


def _scaled(w: WeightVector) -> list:
    """The six weights times the lcm of their denominators: a positive rescaling."""
    scale = math.lcm(*(x.denominator for x in w.weights))
    return [x.numerator * (scale // x.denominator) for x in w.weights]


def _top(polys: list, a_exp: Fraction, weights: list) -> tuple:
    """(top, ties) of ``polys`` under each of ``weights``.

    ``top[t, k]`` says whether term t attains its polynomial's maximal weight
    under ``weights[k]``, and ``ties[i, k]`` counts the terms of polynomial i
    that do.  All term weights are one integer matrix product; maxima and
    counts are ``reduceat`` reductions over the polynomials' term blocks.
    """
    points = _project(polys, Fraction(a_exp))
    scaled = [_scaled(w) for w in weights]
    wmax = max((abs(x) for row in scaled for x in row), default=0)
    if points.dtype == object or 6 * _magnitude(points) * wmax >= _INT64_BOUND:
        points, dtype = points.astype(object), object
    else:
        dtype = np.int64
    term_weights = points @ np.array(scaled, dtype=dtype).reshape(len(weights), 6).T
    sizes = np.array([len(poly) for poly in polys], dtype=np.intp)
    filled = sizes > 0  # an empty polynomial has no top term
    starts = (np.cumsum(sizes) - sizes)[filled]
    maxima = np.maximum.reduceat(term_weights, starts, axis=0)
    top = term_weights == np.repeat(maxima, sizes[filled], axis=0)
    ties = np.zeros((len(polys), len(weights)), dtype=np.intp)
    ties[filled] = np.add.reduceat(top, starts, axis=0, dtype=np.intp)
    return top, ties


def _check_exponent(system: list, a_exp: Fraction) -> None:
    """A ``Qrel`` binomial Q^q' r^p' - r^(2q') projects to one point only at A = p'/q'."""
    for label, poly in system:
        if label.startswith("Qrel"):
            e = next(e for e in poly.terms if any(e[6:]))
            c = next(c for c in range(6) if e[6 + c])
            built = Fraction(e[c], e[6 + c])
            if built != a_exp:
                raise ValueError(f"system was built for A={built}, "
                                 f"not for A={a_exp}")


def _memberships(system: list, a_exp: Fraction, weights: list) -> list:
    """(ok, witness) of each weight: the witness is the first polynomial whose
    maximal weight is attained by fewer than two terms, or None."""
    a_exp = Fraction(a_exp)
    _check_exponent(system, a_exp)
    _, ties = _top([poly for _, poly in system], a_exp, weights)
    single = ties < 2
    first = single.argmax(axis=0)
    return [(False, system[f][0]) if single[f, k] else (True, None)
            for k, f in enumerate(first.tolist())]


def _polys_examined(system: list, witness) -> int:
    """Initial forms a membership test computes: the whole system, or the
    polynomials up to and including the witness."""
    return len(system) if witness is None else [lab for lab, _ in system].index(witness) + 1


def in_prevariety(w: WeightVector, system: list, a_exp: Fraction) -> tuple:
    """(bool, witness): every initial form must keep at least two terms.

    The witness names the first polynomial whose initial form degenerates to
    a single monomial (masses generic), or is None on success.  Raises
    ``ValueError`` when ``system`` was built for another exponent.
    """
    return _memberships(system, a_exp, [w])[0]


# ---------------------------------------------------------------------------
# shipped tables

@dataclass(frozen=True)
class RayTable:
    """Symbolic-in-A ray classes with multiplicities, plus cone generators."""

    rays: tuple      # (label, coords as ((c0, c1), ...) , multiplicity)
    cones: tuple     # (label, generators as tuples of coords)
    version: int

    def ray_weight(self, label: str, a_exp: Fraction) -> WeightVector:
        for lab, coords, _ in self.rays:
            if lab == label:
                return _affine_sum((coords,), a_exp)
        raise KeyError(label)

    def cone_interior_weight(self, label: str, a_exp: Fraction) -> WeightVector:
        for lab, gens in self.cones:
            if lab == label:
                return _affine_sum(gens, a_exp)
        raise KeyError(label)


def _affine_sum(gens, a_exp: Fraction) -> WeightVector:
    """The sum of the generators' coordinates c0 + c1 A at ``a_exp``: the
    integers c0 and c1 are summed first, then multiplied by A once."""
    a_exp = Fraction(a_exp)
    return WeightVector(tuple(sum(g[c][0] for g in gens) + sum(g[c][1] for g in gens) * a_exp
                              for c in range(6)))


def load_ray_table() -> RayTable:
    data = json.loads(
        resources.files("pentacc").joinpath("data/ray_cone_tables.json").read_text())
    rays = tuple(
        (r["label"], tuple(tuple(c) for c in r["coords"]), r["multiplicity"])
        for r in data["rays"])
    cones = tuple(
        (c["label"], tuple(tuple(tuple(x) for x in g) for g in c["generators"]))
        for c in data["cones"])
    return RayTable(rays=rays, cones=cones, version=data["version"])


@dataclass
class TableReport:
    """Verification outcome for the shipped ray and cone tables."""

    a_exp: Fraction
    ray_results: dict
    cone_results: dict
    multiplicity_results: dict
    excluded_by_halfspace: list
    failures: list
    # counts only: weights_tested, polynomials_examined (initial forms
    # computed) and witnesses (witness label -> rejected weights)
    stats: dict

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "A": str(self.a_exp),
            "rays": self.ray_results,
            "cones": self.cone_results,
            "multiplicities": self.multiplicity_results,
            "excluded_by_halfspace": self.excluded_by_halfspace,
            "failures": self.failures,
            "all_passed": self.all_passed,
            "stats": self.stats,
        }


def verify_tables(a_exp, table: RayTable | None = None) -> TableReport:
    """Check every table entry against the prevariety membership test.

    Every cyclic-orbit member of every ray class must be in the prevariety,
    as must the generator sum (a relative-interior point) of each cone.
    Multiplicities are compared with dihedral orbit sizes, and the
    half-space restriction (nonnegative coordinate sum) must exclude exactly
    the all-negative ray.
    """
    a_exp = Fraction(a_exp)
    table = table or load_ray_table()
    system = build_system(a_exp)
    stats = {"weights_tested": 0, "polynomials_examined": 0, "witnesses": {}}
    rays = []
    for label, _, mult in table.rays:
        w = table.ray_weight(label, a_exp)
        rays.append((label, mult, w, weight_orbit(w)))
    cones = [(label, table.cone_interior_weight(label, a_exp)) for label, _ in table.cones]
    # one batch for the whole table, consumed in report order
    verdicts = iter(_memberships(
        system, a_exp, [m for *_, members in rays for m in members] + [w for _, w in cones]))

    def member_of() -> tuple:
        ok, witness = next(verdicts)
        stats["weights_tested"] += 1
        stats["polynomials_examined"] += _polys_examined(system, witness)
        if not ok:
            stats["witnesses"][witness] = stats["witnesses"].get(witness, 0) + 1
        return ok, witness

    failures = []
    ray_results: dict = {}
    mult_results: dict = {}
    excluded = []
    for label, mult, w, members in rays:
        all_in = True
        for member in members:
            ok, witness = member_of()
            all_in = all_in and ok
            if not ok:
                failures.append({"entry": label, "weight": [str(x) for x in member.weights],
                                 "witness": witness})
        ray_results[label] = {"orbit_size": len(members), "all_in": all_in}
        dihedral = len(weight_orbit(w, dihedral=True))
        mult_results[label] = {
            "expected": mult,
            "dihedral_orbit": dihedral,
            "matches": dihedral == mult,
        }
        if not mult_results[label]["matches"]:
            failures.append({"entry": label, "witness": "multiplicity",
                             "weight": [str(x) for x in w.weights]})
        if w.coordinate_sum < 0:
            excluded.append(label)
    # the all-negative class is the only one whose coordinate sum stays
    # negative for every exponent >= 3; checked on the symbolic entries
    always_negative = []
    for label, coords, _ in table.rays:
        s0 = sum(c0 for c0, _ in coords)
        s1 = sum(c1 for _, c1 in coords)
        if not (s1 >= 0 and s0 + 3 * s1 >= 0):
            always_negative.append(label)
    if always_negative != ["h1"]:
        failures.append({"entry": "halfspace", "witness": str(always_negative),
                         "weight": []})
    cone_results: dict = {}
    for label, w in cones:
        ok, witness = member_of()
        cone_results[label] = ok
        if not ok:
            failures.append({"entry": label, "weight": [str(x) for x in w.weights],
                             "witness": witness})
    return TableReport(a_exp=a_exp, ray_results=ray_results,
                       cone_results=cone_results,
                       multiplicity_results=mult_results,
                       excluded_by_halfspace=excluded, failures=failures,
                       stats=stats)
