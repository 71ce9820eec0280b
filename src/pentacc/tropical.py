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
coefficient is not the zero polynomial.

A 6-dimensional rational weight vector lifts to twelve coordinates through
the binomial relation, which forces w(Q) = (2 - A) w(r) per class.  The
weight lies in the tropical prevariety when the initial form of every
system polynomial keeps at least two terms; initial forms collect the terms
of maximal weight, the Groebner-deformation convention under which the
shipped ray and cone tables verify.  An initial form does not change when
the weight is multiplied by a positive scalar, so each lifted weight is
scaled once by the least common multiple of its denominators and every term
weight is an exact integer sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations, permutations
from operator import mul

__all__ = [
    "NUM_VARIABLES",
    "CLASS_OF_PAIR",
    "LaurentPoly",
    "WeightVector",
    "RayTable",
    "load_ray_table",
    "build_system",
    "initial_form",
    "in_prevariety",
    "verify_tables",
    "TableReport",
    "cyclic_weight",
    "reflect_weight",
    "weight_orbit",
]

# Variable order: six r classes then six Q classes, matching class order.
NUM_VARIABLES = 12
CLASS_OF_PAIR = {
    (1, 2): 0, (2, 3): 0, (3, 4): 0, (4, 5): 0, (1, 5): 0,
    (1, 3): 1, (1, 4): 2, (2, 4): 3, (2, 5): 4, (3, 5): 5,
}


def _cls(i: int, j: int) -> int:
    return CLASS_OF_PAIR[(min(i, j), max(i, j))]


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

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict = {}
        for e1, mp1 in self.terms.items():
            for e2, mp2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                tgt = out.setdefault(e, {})
                for me1, c1 in mp1.items():
                    for me2, c2 in mp2.items():
                        me = tuple(a + b for a, b in zip(me1, me2))
                        acc = tgt.get(me, Fraction(0)) + c1 * c2
                        if acc:
                            tgt[me] = acc
                        else:
                            tgt.pop(me, None)
                if not tgt:
                    out.pop(e, None)
        return LaurentPoly(out)

    def specialize_masses(self, masses) -> "LaurentPoly":
        """Substitute explicit rational masses, dropping vanishing terms."""
        ms = [Fraction(m) for m in masses]
        out: dict = {}
        for e, mp in self.terms.items():
            total = Fraction(0)
            for me, c in mp.items():
                v = c
                for m, p in zip(ms, me):
                    v *= m ** p
                total += v
            if total:
                out[e] = {_ZERO_MASS: total}
        return LaurentPoly(out)


def _r(c: int, power: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(exps={c: power})


def _r2(i: int, j: int) -> LaurentPoly:
    return _r(_cls(i, j), 2)


def build_f_poly(i: int, j: int) -> LaurentPoly:
    """Cleared-denominator mutual-distance equation for the ordered pair (i, j)."""
    others = [k for k in range(1, 6) if k != i]
    classes = sorted({_cls(i, k) for k in others})

    def clear_without(skip: int) -> LaurentPoly:
        p = LaurentPoly.monomial()
        for c in classes:
            if c != skip:
                p = p * _r(c, 2)
        return p

    total = LaurentPoly()
    for k in others:
        cik = _cls(i, k)
        aijk = -_r2(i, k) - _r2(i, j)
        if k != j:
            aijk = aijk + _r2(j, k)
        s_num = LaurentPoly.monomial(q_exps={cik: 1}) - _r(cik, 2)  # Q - r^2
        total = total + (LaurentPoly.monomial(mass=k) * s_num * aijk
                         * clear_without(cik))
    return total


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


def build_system(a_exp: Fraction, masses=None) -> list:
    """The full finiteness system for a rational exponent, as (label, poly).

    Twenty mutual-distance polynomials, five Cayley-Menger determinants, and
    six Q-defining binomials: 31 in total.  ``masses`` may be five explicit
    rationals; by default mass coefficients stay generic.
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
    if masses is not None:
        system = [(lab, poly.specialize_masses(masses)) for lab, poly in system]
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

    def lift(self, a_exp: Fraction) -> tuple:
        factor = Fraction(2) - Fraction(a_exp)
        return self.weights + tuple(factor * w for w in self.weights)

    def scaled(self, c) -> "WeightVector":
        return WeightVector(tuple(Fraction(c) * w for w in self.weights))

    @property
    def coordinate_sum(self) -> Fraction:
        return sum(self.weights, Fraction(0))


# Cyclic relabeling i -> i+1 fixes the edge class and 5-cycles the diagonals;
# the reflection (1 2)(3 5) reverses that cycle.
CYCLE_CLASS_MAP = {0: 0, 1: 3, 3: 5, 5: 2, 2: 4, 4: 1}
CYCLE_MASS_MAP = {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
REFLECT_CLASS_MAP = {0: 0, 1: 4, 4: 1, 2: 3, 3: 2, 5: 5}
REFLECT_MASS_MAP = {1: 2, 2: 1, 3: 5, 5: 3, 4: 4}


def cyclic_weight(w: WeightVector) -> WeightVector:
    out = [Fraction(0)] * 6
    for c, x in enumerate(w.weights):
        out[CYCLE_CLASS_MAP[c]] = x
    return WeightVector(tuple(out))


def reflect_weight(w: WeightVector) -> WeightVector:
    out = [Fraction(0)] * 6
    for c, x in enumerate(w.weights):
        out[REFLECT_CLASS_MAP[c]] = x
    return WeightVector(tuple(out))


def weight_orbit(w: WeightVector, dihedral: bool = False) -> list:
    """Orbit under the cyclic relabeling, optionally with the reflection."""
    seen: list = []
    frontier = [w]
    while frontier:
        cur = frontier.pop()
        if any(cur.weights == s.weights for s in seen):
            continue
        seen.append(cur)
        frontier.append(cyclic_weight(cur))
        if dihedral:
            frontier.append(reflect_weight(cur))
    seen.sort(key=lambda v: v.weights)
    return seen


def _int_lift(w: WeightVector, a_exp: Fraction) -> tuple:
    """The twelve lifted coordinates of ``w`` times the lcm of their denominators.

    The scale is a positive integer, so the order of term weights, and with
    it every initial form, is that of the rational lift; the Python ints
    are exact at any size.
    """
    w12 = w.lift(a_exp)
    scale = math.lcm(*(x.denominator for x in w12))
    return tuple(x.numerator * (scale // x.denominator) for x in w12)


def _top_terms(poly: LaurentPoly, int_weights: tuple) -> list:
    """Exponents of ``poly`` of maximal integer weight, in term order."""
    exps = list(poly.terms)
    wts = [sum(map(mul, e, int_weights)) for e in exps]
    best = max(wts, default=None)
    return [e for e, wt in zip(exps, wts) if wt == best]


def initial_form(poly: LaurentPoly, w: WeightVector, a_exp: Fraction) -> LaurentPoly:
    """Terms of maximal lifted weight (Groebner-deformation convention)."""
    return LaurentPoly({e: dict(poly.terms[e])
                        for e in _top_terms(poly, _int_lift(w, a_exp))})


def in_prevariety(w: WeightVector, system: list, a_exp: Fraction) -> tuple:
    """(bool, witness): every initial form must keep at least two terms.

    The witness names the first polynomial whose initial form degenerates to
    a single monomial (masses generic), or is None on success.
    """
    int_weights = _int_lift(w, a_exp)
    for label, poly in system:
        if len(_top_terms(poly, int_weights)) < 2:
            return False, label
    return True, None


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
                return WeightVector(tuple(
                    Fraction(c0) + Fraction(c1) * Fraction(a_exp) for c0, c1 in coords))
        raise KeyError(label)

    def cone_interior_weight(self, label: str, a_exp: Fraction) -> WeightVector:
        for lab, gens in self.cones:
            if lab == label:
                coords = [
                    sum(Fraction(g[c][0]) + Fraction(g[c][1]) * Fraction(a_exp)
                        for g in gens)
                    for c in range(6)
                ]
                return WeightVector(tuple(coords))
        raise KeyError(label)


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


def verify_tables(a_exp, masses=None, table: RayTable | None = None) -> TableReport:
    """Check every table entry against the prevariety membership test.

    Every cyclic-orbit member of every ray class must be in the prevariety,
    as must the generator sum (a relative-interior point) of each cone.
    Multiplicities are compared with dihedral orbit sizes, and the
    half-space restriction (nonnegative coordinate sum) must exclude exactly
    the all-negative ray.
    """
    a_exp = Fraction(a_exp)
    table = table or load_ray_table()
    system = build_system(a_exp, masses=masses)
    position = {label: k for k, (label, _) in enumerate(system)}
    stats = {"weights_tested": 0, "polynomials_examined": 0, "witnesses": {}}

    def member_of(w: WeightVector) -> tuple:
        ok, witness = in_prevariety(w, system, a_exp)
        stats["weights_tested"] += 1
        stats["polynomials_examined"] += len(system) if ok else position[witness] + 1
        if not ok:
            stats["witnesses"][witness] = stats["witnesses"].get(witness, 0) + 1
        return ok, witness

    failures = []
    ray_results: dict = {}
    mult_results: dict = {}
    excluded = []
    for label, coords, mult in table.rays:
        w = table.ray_weight(label, a_exp)
        members = weight_orbit(w)
        verdicts = []
        for member in members:
            ok, witness = member_of(member)
            verdicts.append(ok)
            if not ok:
                failures.append({"entry": label, "weight": [str(x) for x in member.weights],
                                 "witness": witness})
        ray_results[label] = {"orbit_size": len(members), "all_in": all(verdicts)}
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
    for label, _gens in table.cones:
        w = table.cone_interior_weight(label, a_exp)
        ok, witness = member_of(w)
        cone_results[label] = ok
        if not ok:
            failures.append({"entry": label, "weight": [str(x) for x in w.weights],
                             "witness": witness})
    return TableReport(a_exp=a_exp, ray_results=ray_results,
                       cone_results=cone_results,
                       multiplicity_results=mult_results,
                       excluded_by_halfspace=excluded, failures=failures,
                       stats=stats)
