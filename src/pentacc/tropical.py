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

Membership runs on projected points and integer rows.  The lifted weight of
a term with exponent (e_r, e_Q) is <e_r + (2 - A) e_Q, w> = <q e_r + (2q - p)
e_Q, w> / q, so each term projects to the integer point q e_r + (2q - p) e_Q
in Z^6.  The 25 polynomials that do not depend on A, and their stacked
exponents, are built once per process on first use and shared by every
system; ``build_system`` adds the six binomials and projects every term once,
and the ``System`` it returns carries those points, so that a membership test
projects nothing.  A table entry's class coordinate c0 + c1 A, summed over its
generators, becomes the integer row q sum(c0) + p sum(c1), which is q times
the rational weight; a weight given as rationals is instead multiplied once
by the least common multiple of its six denominators.  All of these are
positive rescalings, so every maximiser set is that of the rational lift,
and orbits, their order and sizes, and coordinate-sum signs are those of
the rational weights: the tables run on integers from the ray table to the
kernel, and a weight becomes a ``Fraction`` only when a failure records it.
All term weights of a batch of rows are one integer matrix product, and
per-polynomial maxima and tie counts are ``reduceat`` reductions.  The six
binomials project to one point each, so they never decide membership; a
system records the exponent they encode, and the kernel raises
``ValueError`` when asked about another.

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
from functools import lru_cache
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
    "System",
    "in_prevariety",
    "verify_tables",
    "TableReport",
    "cyclic_weight",
    "reflect_weight",
]

# Variable order: six r classes then six Q classes, matching class order.
NUM_VARIABLES = 12


# The class of the pair of bodies (i, j) at _CLASS[i - 1][j - 1]; None on
# the diagonal.
_CLASS = tuple(tuple(PAIR_CLASS.get((min(i, j), max(i, j))) for j in range(1, 6))
               for i in range(1, 6))

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
    cls = _CLASS[i - 1]
    others = [k for k in range(1, 6) if k != i]
    classes = {cls[k - 1] for k in others}
    coeffs: dict = {}
    for k in others:
        cik, mass = cls[k - 1], tuple(int(m == k) for m in range(1, 6))
        cleared = [0] * NUM_VARIABLES
        for c in classes - {cik}:
            cleared[c] = 2
        a_terms = [(-1, cik), (-1, cls[j - 1])] + ([(1, _CLASS[j - 1][k - 1])] if k != j else [])
        for s_sign, s_var, s_pow in ((1, 6 + cik, 1), (-1, cik, 2)):  # Q - r^2
            for a_sign, a_cls in a_terms:
                e = list(cleared)
                e[s_var] += s_pow
                e[a_cls] += 2
                key = (tuple(e), mass)
                coeffs[key] = coeffs.get(key, 0) + s_sign * a_sign
    terms: dict = {}
    for (e, mass), c in coeffs.items():
        if c:
            terms.setdefault(e, {})[mass] = Fraction(c)
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
    cls = [_CLASS[i - 1] for i in points]
    coeffs: dict = {}
    for perm, sgn in _DERANGEMENTS:
        e = [0] * NUM_VARIABLES
        for a in range(1, 5):
            if perm[a]:
                e[cls[a - 1][points[perm[a] - 1] - 1]] += 2
        key = tuple(e)
        coeffs[key] = coeffs.get(key, 0) + sgn
    return LaurentPoly({e: {_ZERO_MASS: Fraction(c)} for e, c in coeffs.items() if c})


def build_q_relation(c: int, p: int, q: int) -> LaurentPoly:
    """Defining binomial Q_c^q r_c^p - r_c^(2q)."""
    return (LaurentPoly.monomial(exps={c: p}, q_exps={c: q}) - _r(c, 2 * q))


# Below this bound on every entry, product and partial sum, int64 is exact.
_INT64_BOUND = 2 ** 62


def _magnitude(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _exponents(polys) -> tuple:
    """(e_r, e_Q): each term's r and Q exponents, one row per term in
    polynomial and term order; int64 when every entry fits, else Python ints."""
    exps = list(chain.from_iterable(poly.terms for poly in polys))
    try:
        e = np.fromiter(chain.from_iterable(exps), dtype=np.int64,
                        count=NUM_VARIABLES * len(exps))
    except OverflowError:
        e = np.array(list(chain.from_iterable(exps)), dtype=object)
    e = e.reshape(len(exps), NUM_VARIABLES)
    return e[:, :6], e[:, 6:]


def _project(e_r: np.ndarray, e_q: np.ndarray, a_exp: Fraction) -> np.ndarray:
    """The terms' points q e_r + (2q - p) e_Q at A = p/q, from their stacked
    exponent halves; int64 when the bound allows, else Python ints."""
    p, q = a_exp.numerator, a_exp.denominator
    if 2 * max(_magnitude(e_r), _magnitude(e_q)) * max(q, abs(2 * q - p)) >= _INT64_BOUND:
        e_r, e_q = e_r.astype(object), e_q.astype(object)
    return q * e_r + (2 * q - p) * e_q


@lru_cache(maxsize=None)
def _a_free() -> tuple:
    """The 25 polynomials that do not depend on A, as (label, poly) pairs,
    and their stacked exponent halves (e_r, e_Q), one row per term.

    Built once per process, on first use; every system shares them, so
    they are read-only.
    """
    pairs = [(f"f{i}{j}", build_f_poly(i, j))
             for i in range(1, 6) for j in range(1, 6) if i != j]
    pairs += [("CM" + "".join(map(str, sub)), build_cayley_menger_poly(sub))
              for sub in combinations(range(1, 6), 4)]
    e_r, e_q = _exponents([poly for _, poly in pairs])
    e_r.flags.writeable = e_q.flags.writeable = False
    return tuple(pairs), e_r, e_q


def _encoded_exponent(pairs: tuple) -> Fraction:
    """The exponent p'/q' of the ``Qrel`` binomials Q^q' r^p' - r^(2q'): the only
    one at which each projects to a single point."""
    built = set()
    for label, poly in pairs:
        if label.startswith("Qrel"):
            e = next(e for e in poly.terms if any(e[6:]))
            c = next(c for c in range(6) if e[6 + c])
            built.add(Fraction(e[c], e[6 + c]))
    (a_exp,) = built
    return a_exp


class System(tuple):
    """The finiteness system at one exponent, as (label, poly) pairs.

    It also carries what membership needs at every call, computed once when
    ``build_system`` makes it: ``a_exp``, the exponent that its ``Qrel``
    binomials encode; ``points``, each term's projected point in system and
    term order, with ``magnitude`` its largest absolute entry; and the term
    blocks of the non-empty polynomials (``filled``, ``sizes``, ``starts``).
    """

    def __new__(cls, pairs: tuple, e_r: np.ndarray, e_q: np.ndarray):
        self = super().__new__(cls, pairs)
        self.a_exp = _encoded_exponent(pairs)
        self.points = _project(e_r, e_q, self.a_exp)
        self.magnitude = _magnitude(self.points)
        sizes = np.array([len(poly) for _, poly in pairs], dtype=np.intp)
        self.filled = sizes > 0  # an empty polynomial has no top term
        self.sizes = sizes[self.filled]
        self.starts = np.cumsum(self.sizes) - self.sizes
        for a in (self.points, self.filled, self.sizes, self.starts):
            a.flags.writeable = False
        return self


def build_system(a_exp: Fraction) -> System:
    """The full finiteness system for a rational exponent, as (label, poly).

    Twenty mutual-distance polynomials, five Cayley-Menger determinants, and
    six Q-defining binomials: 31 in total, with generic mass coefficients.
    The first 25 do not depend on A; they are built once per process and
    shared by every system.  The result is a ``System``: a tuple of the
    pairs that also carries its terms' projected points, so that membership
    tests on it project nothing.
    """
    a_exp = Fraction(a_exp)
    if a_exp < 2:
        raise ValueError(f"exponent must be >= 2, got {a_exp}")
    p, q = a_exp.numerator, a_exp.denominator
    pairs, e_r, e_q = _a_free()
    relations = [(f"Qrel{c}", build_q_relation(c, p, q)) for c in range(6)]
    rel_r, rel_q = _exponents([poly for _, poly in relations])
    return System(pairs + tuple(relations), np.concatenate([e_r, rel_r]),
                  np.concatenate([e_q, rel_q]))


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
        object.__setattr__(self, "weights", tuple(
            w if isinstance(w, Fraction) else Fraction(w) for w in self.weights))

    def scaled(self, c) -> "WeightVector":
        return WeightVector(tuple(Fraction(c) * w for w in self.weights))


# Cyclic relabeling i -> i+1 fixes the edge class and 5-cycles the diagonals;
# the reflection (1 2)(3 5) reverses that cycle.
CYCLE_CLASS_MAP = {0: 0, 1: 3, 3: 5, 5: 2, 2: 4, 4: 1}
REFLECT_CLASS_MAP = {0: 0, 1: 4, 4: 1, 2: 3, 3: 2, 5: 5}


def _relabel(weights: tuple, class_map: dict) -> tuple:
    """The weight of each class c moved to class ``class_map[c]``."""
    out = [0] * 6
    for c, x in enumerate(weights):
        out[class_map[c]] = x
    return tuple(out)


def cyclic_weight(w: WeightVector) -> WeightVector:
    return WeightVector(_relabel(w.weights, CYCLE_CLASS_MAP))


def reflect_weight(w: WeightVector) -> WeightVector:
    return WeightVector(_relabel(w.weights, REFLECT_CLASS_MAP))


def _orbit(weights: tuple, dihedral: bool = False) -> list:
    """The distinct images of ``weights`` under the five rotations (and the
    five reflections), sorted; for rationals and integer rows alike."""
    images = [weights]
    for _ in range(4):
        images.append(_relabel(images[-1], CYCLE_CLASS_MAP))
    if dihedral:
        images += [_relabel(v, REFLECT_CLASS_MAP) for v in images]
    return sorted(set(images))


def _scaled(w: WeightVector) -> list:
    """The six weights times the lcm of their denominators: a positive rescaling."""
    scale = math.lcm(*(x.denominator for x in w.weights))
    return [x.numerator * (scale // x.denominator) for x in w.weights]


def _top(system: System, rows: list) -> tuple:
    """(top, ties) of the system under each of the integer weight ``rows``.

    ``top[t, k]`` says whether term t attains its polynomial's maximal weight
    under ``rows[k]``, and ``ties[i, k]`` counts the terms of polynomial i
    that do.  All term weights are one integer matrix product of the stored
    points; maxima and counts are ``reduceat`` reductions over the
    polynomials' term blocks.
    """
    points = system.points
    wmax = max((abs(x) for row in rows for x in row), default=0)
    if points.dtype == object or 6 * system.magnitude * wmax >= _INT64_BOUND:
        points, dtype = points.astype(object), object
    else:
        dtype = np.int64
    term_weights = points @ np.array(rows, dtype=dtype).reshape(len(rows), 6).T
    maxima = np.maximum.reduceat(term_weights, system.starts, axis=0)
    top = term_weights == np.repeat(maxima, system.sizes, axis=0)
    ties = np.zeros((len(system), len(rows)), dtype=np.intp)
    ties[system.filled] = np.add.reduceat(top, system.starts, axis=0, dtype=np.intp)
    return top, ties


def _memberships(system: System, a_exp: Fraction, rows: list) -> list:
    """(ok, witness) of each integer weight row: the witness is the first
    polynomial whose maximal weight is attained by fewer than two terms, or None."""
    if not isinstance(system, System):
        raise TypeError("membership takes the System that build_system returns, "
                        f"not a {type(system).__name__}")
    a_exp = Fraction(a_exp)
    if system.a_exp != a_exp:
        raise ValueError(f"system was built for A={system.a_exp}, not for A={a_exp}")
    _, ties = _top(system, rows)
    single = ties < 2
    first = single.argmax(axis=0)
    return [(False, system[f][0]) if single[f, k] else (True, None)
            for k, f in enumerate(first.tolist())]


def _polys_examined(system: System, witness) -> int:
    """Initial forms a membership test computes: the whole system, or the
    polynomials up to and including the witness."""
    return len(system) if witness is None else [lab for lab, _ in system].index(witness) + 1


def in_prevariety(w: WeightVector, system: System, a_exp: Fraction) -> tuple:
    """(bool, witness): every initial form must keep at least two terms.

    The witness names the first polynomial whose initial form degenerates to
    a single monomial (masses generic), or is None on success.  ``system`` is
    what ``build_system`` returns: its terms were projected when it was
    built, so a call projects nothing.  Raises ``ValueError`` when it was
    built for another exponent, and ``TypeError`` when it is not a
    ``System``.
    """
    return _memberships(system, a_exp, [_scaled(w)])[0]


# ---------------------------------------------------------------------------
# shipped tables

@dataclass(frozen=True)
class RayTable:
    """Symbolic-in-A ray classes with multiplicities, plus cone generators."""

    rays: tuple      # (label, coords as ((c0, c1), ...) , multiplicity)
    cones: tuple     # (label, generators as tuples of coords)
    version: int

    def ray_weight(self, label: str, a_exp: Fraction) -> WeightVector:
        """The ray's coordinates c0 + c1 A at ``a_exp``: its integer row over q."""
        a_exp = Fraction(a_exp)
        for lab, coords, _ in self.rays:
            if lab == label:
                q = a_exp.denominator
                return WeightVector(tuple(Fraction(x, q)
                                          for x in _row((coords,), a_exp.numerator, q)))
        raise KeyError(label)


def _row(gens, p: int, q: int) -> tuple:
    """q times the sum of the generators' coordinates c0 + c1 A at A = p/q:
    the integers q sum(c0) + p sum(c1), a positive rescaling of the weight."""
    return tuple(q * sum(g[c][0] for g in gens) + p * sum(g[c][1] for g in gens)
                 for c in range(6))


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


def verify_tables(a_exp) -> TableReport:
    """Check every table entry against the prevariety membership test.

    Every cyclic-orbit member of every ray class must be in the prevariety,
    as must the generator sum (a relative-interior point) of each cone.
    Multiplicities are compared with dihedral orbit sizes, and the
    half-space restriction (nonnegative coordinate sum) must exclude exactly
    the all-negative ray.
    """
    a_exp = Fraction(a_exp)
    p, q = a_exp.numerator, a_exp.denominator
    table = load_ray_table()
    system = build_system(a_exp)
    stats = {"weights_tested": 0, "polynomials_examined": 0, "witnesses": {}}
    # integer rows, q times the rational weights, up to the failure entries
    rays = [(label, mult, _row((coords,), p, q)) for label, coords, mult in table.rays]
    orbits = [_orbit(row) for _, _, row in rays]
    cones = [(label, _row(gens, p, q)) for label, gens in table.cones]
    # one batch for the whole table, consumed in report order
    verdicts = iter(_memberships(
        system, a_exp, [m for members in orbits for m in members] + [row for _, row in cones]))

    def member_of() -> tuple:
        ok, witness = next(verdicts)
        stats["weights_tested"] += 1
        stats["polynomials_examined"] += _polys_examined(system, witness)
        if not ok:
            stats["witnesses"][witness] = stats["witnesses"].get(witness, 0) + 1
        return ok, witness

    def rational(row) -> list:
        return [str(Fraction(x, q)) for x in row]

    failures = []
    ray_results: dict = {}
    mult_results: dict = {}
    excluded = []
    for (label, mult, row), members in zip(rays, orbits):
        all_in = True
        for member in members:
            ok, witness = member_of()
            all_in = all_in and ok
            if not ok:
                failures.append({"entry": label, "weight": rational(member),
                                 "witness": witness})
        ray_results[label] = {"orbit_size": len(members), "all_in": all_in}
        dihedral = len(_orbit(row, dihedral=True))
        mult_results[label] = {
            "expected": mult,
            "dihedral_orbit": dihedral,
            "matches": dihedral == mult,
        }
        if not mult_results[label]["matches"]:
            failures.append({"entry": label, "witness": "multiplicity",
                             "weight": rational(row)})
        if sum(row) < 0:
            excluded.append(label)
    # the all-negative class is the only one whose coordinate sum stays
    # negative for every exponent >= 3; checked on the symbolic entries: the
    # sum is linear in A, so its slope (the row at p, q = 1, 0) and its value
    # at A = 3 decide
    always_negative = [label for label, coords, _ in table.rays
                       if sum(_row((coords,), 1, 0)) < 0 or sum(_row((coords,), 3, 1)) < 0]
    if always_negative != ["h1"]:
        failures.append({"entry": "halfspace", "witness": str(always_negative),
                         "weight": []})
    cone_results: dict = {}
    for label, row in cones:
        ok, witness = member_of()
        cone_results[label] = ok
        if not ok:
            failures.append({"entry": label, "weight": rational(row), "witness": witness})
    return TableReport(a_exp=a_exp, ray_results=ray_results,
                       cone_results=cone_results,
                       multiplicity_results=mult_results,
                       excluded_by_halfspace=excluded, failures=failures,
                       stats=stats)
