"""Exact finiteness system and tropical prevariety membership."""

import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

import pentacc.tropical as tropical
from pentacc.tropical import (
    NUM_VARIABLES,
    LaurentPoly,
    WeightVector,
    build_cayley_menger_poly,
    build_f_poly,
    build_q_relation,
    build_system,
    cyclic_weight,
    in_prevariety,
    load_ray_table,
    reflect_weight,
    verify_tables,
    CYCLE_CLASS_MAP,
    _ZERO_MASS,
    _exponents,
    _memberships,
    _orbit,
    _project,
    _row,
    _scaled,
)
from pentacc.geometry import PAIR_CLASS

# The relabeling i -> i+1 of the bodies, which CYCLE_CLASS_MAP follows on
# the distance classes.
CYCLE_MASS_MAP = {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}


def initial_form(poly: LaurentPoly, w: WeightVector, a_exp: Fraction) -> LaurentPoly:
    """Terms of maximal lifted weight: the projected points of ``_project``
    against the weight's integer row, in Python integers."""
    points = _project(*_exponents([poly]), Fraction(a_exp)).astype(object)
    weights = (points @ np.array(_scaled(w), dtype=object)).tolist()
    best = max(weights, default=None)
    return LaurentPoly({e: mp for (e, mp), wt in zip(poly.terms.items(), weights)
                        if wt == best})


def weight_orbit(w: WeightVector, dihedral: bool = False) -> list:
    """The images of ``w`` under the five rotations (and the five
    reflections), sorted by weights: ``_orbit`` on rational weights."""
    return [WeightVector(v) for v in _orbit(w.weights, dihedral)]


def specialize_masses(poly: LaurentPoly, masses) -> LaurentPoly:
    """Substitute explicit rational masses, dropping vanishing terms."""
    ms = [Fraction(m) for m in masses]
    out: dict = {}
    for e, mp in poly.terms.items():
        total = Fraction(0)
        for me, c in mp.items():
            v = c
            for m, p in zip(ms, me):
                v *= m ** p
            total += v
        if total:
            out[e] = {_ZERO_MASS: total}
    return LaurentPoly(out)


def test_system_size_is_31():
    system = build_system(Fraction(3))
    assert len(system) == 31
    labels = [lab for lab, _ in system]
    assert sum(lab.startswith("f") for lab in labels) == 20
    assert sum(lab.startswith("CM") for lab in labels) == 5
    assert sum(lab.startswith("Qrel") for lab in labels) == 6


def test_newtonian_q_relation_exponents():
    # A = 3 gives Q r^3 - r^2 on each class
    poly = build_q_relation(0, 3, 1)
    exps = sorted(poly.terms)
    assert len(exps) == 2
    assert (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) in exps
    assert (3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0) in exps


def test_half_integer_q_relation_exponents():
    # A = 5/2 gives Q^2 r^5 - r^4
    poly = build_q_relation(1, 5, 2)
    exps = sorted(poly.terms)
    assert (0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) in exps
    assert (0, 5, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0) in exps


def permute_variables(poly: LaurentPoly, class_map: dict, mass_map: dict) -> LaurentPoly:
    """Apply a relabeling to both variable classes and mass indices."""
    out: dict = {}
    for e, mp in poly.terms.items():
        ne = [0] * NUM_VARIABLES
        for c in range(6):
            ne[class_map[c]] += e[c]
            ne[6 + class_map[c]] += e[6 + c]
        nmp = {}
        for me, c in mp.items():
            nme = [0] * 5
            for k in range(5):
                nme[mass_map[k + 1] - 1] += me[k]
            nmp[tuple(nme)] = c
        out[tuple(ne)] = nmp
    return LaurentPoly(out)


def test_cyclic_symmetry_of_the_construction():
    # relabeling bodies by i -> i+1 carries f12 to f23
    f12 = build_f_poly(1, 2)
    f23 = build_f_poly(2, 3)
    assert permute_variables(f12, CYCLE_CLASS_MAP, CYCLE_MASS_MAP) == f23
    f51 = build_f_poly(5, 1)
    f12b = permute_variables(f51, CYCLE_CLASS_MAP, CYCLE_MASS_MAP)
    assert f12b == f12


def test_mass_specialization_drops_cancelled_terms():
    p = LaurentPoly.monomial(exps={0: 1}, mass=1) \
        - LaurentPoly.monomial(exps={0: 1}, mass=2)
    assert len(specialize_masses(p, [1, 1, 1, 1, 1])) == 0
    assert len(specialize_masses(p, [2, 1, 1, 1, 1])) == 1


def test_initial_form_examples():
    # x^2 + x y + y^3 in the first two variables
    poly = (LaurentPoly.monomial(exps={0: 2})
            + LaurentPoly.monomial(exps={0: 1, 1: 1})
            + LaurentPoly.monomial(exps={1: 3}))
    w = WeightVector((-1, -1, 0, 0, 0, 0))
    init = initial_form(poly, w, Fraction(3))
    assert len(init) == 2
    assert (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) in init.terms
    assert (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) in init.terms
    # the zero weight keeps every term
    zero = WeightVector((0,) * 6)
    assert len(initial_form(poly, zero, Fraction(3))) == 3


def test_initial_form_with_exponents_beyond_int64():
    # x^(2^70) y + x y^(2^70) + x^(2^69) y^(2^69): exponents too large for int64
    big = 2 ** 70
    poly = (LaurentPoly.monomial(exps={0: big, 1: 1})
            + LaurentPoly.monomial(exps={0: 1, 1: big})
            + LaurentPoly.monomial(exps={0: big // 2, 1: big // 2}))
    for w, kept in ((WeightVector((1, 1, 0, 0, 0, 0)), 2),
                    (WeightVector((1, -1, 0, 0, 0, 0)), 1),
                    (WeightVector((-1, -1, 0, 0, 0, 0)), 1)):
        init = initial_form(poly, w, Fraction(5, 2))
        assert list(init.terms) == _fraction_top_terms(poly, w, Fraction(5, 2))
        assert len(init) == kept


def test_q_relation_initial_form_stays_binomial():
    # the derived Q-weights tie the binomial's two terms to equal weight
    table = load_ray_table()
    rel = build_q_relation(2, 3, 1)
    for label in ("h2", "h7", "h9"):
        w = table.ray_weight(label, Fraction(3))
        assert len(initial_form(rel, w, Fraction(3))) == 2


def test_zero_weight_always_in_prevariety():
    system = build_system(Fraction(3))
    ok, witness = in_prevariety(WeightVector((0,) * 6), system, Fraction(3))
    assert ok and witness is None


def test_single_class_ray_rejected_with_witness():
    system = build_system(Fraction(3))
    ok, witness = in_prevariety(WeightVector((1, 0, 0, 0, 0, 0)), system, Fraction(3))
    assert not ok
    assert witness


def test_listed_rays_accepted():
    table = load_ray_table()
    system = build_system(Fraction(3))
    for label in ("h2", "h4", "h9"):
        w = table.ray_weight(label, Fraction(3))
        for member in weight_orbit(w):
            ok, witness = in_prevariety(member, system, Fraction(3))
            assert ok, (label, witness)


def test_ray_weight_of_an_unknown_label_raises():
    with pytest.raises(KeyError):
        load_ray_table().ray_weight("no-such-ray", Fraction(3))


def test_membership_is_scale_invariant():
    system = build_system(Fraction(3))
    table = load_ray_table()
    w = table.ray_weight("h5", Fraction(3))
    for c in (Fraction(2), Fraction(7, 3)):
        assert in_prevariety(w.scaled(c), system, Fraction(3))[0]
    bad = WeightVector((1, 0, 0, 0, 0, 0))
    assert not in_prevariety(bad.scaled(Fraction(5)), system, Fraction(3))[0]


def test_cyclic_equivariance_of_membership():
    system = build_system(Fraction(3))
    rng = random.Random(3)
    for _ in range(12):
        w = WeightVector(tuple(rng.randint(-2, 2) for _ in range(6)))
        base, _ = in_prevariety(w, system, Fraction(3))
        rotated, _ = in_prevariety(cyclic_weight(w), system, Fraction(3))
        assert base == rotated


def test_reflection_maps_preserve_structure():
    w = WeightVector((0, 1, 2, 3, 4, 5))
    assert reflect_weight(reflect_weight(w)).weights == w.weights
    # the reflection reverses the diagonal cycle
    assert reflect_weight(cyclic_weight(w)).weights \
        == cyclic_weight(cyclic_weight(cyclic_weight(cyclic_weight(
            reflect_weight(w))))).weights


def test_orbit_sizes_match_multiplicities():
    table = load_ray_table()
    for label, _coords, mult in table.rays:
        w = table.ray_weight(label, Fraction(3))
        assert len(weight_orbit(w, dihedral=True)) == mult


def _closure_orbit(w, dihedral=False):
    """The orbit as the closure of ``w`` under the generators, found by a
    frontier loop: the oracle of ``weight_orbit``."""
    seen = []
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


@pytest.mark.parametrize("a_exp", [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4)])
def test_weight_orbit_matches_closure_oracle(a_exp):
    table = load_ray_table()
    weights = [table.ray_weight(label, a_exp) for label, _, _ in table.rays]
    rng = random.Random(int(4 * a_exp))
    # random weights with repeated entries, so that some orbits are short
    weights += [WeightVector(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                   for _ in range(6))) for _ in range(200)]
    weights += [WeightVector((1,) * 6), WeightVector((0, 1, 1, 1, 1, 1))]
    sizes = Counter()
    for w in weights:
        for dihedral in (False, True):
            got = weight_orbit(w, dihedral=dihedral)
            assert [v.weights for v in got] == [v.weights for v in _closure_orbit(w, dihedral)]
            sizes[dihedral, len(got)] += 1
    # every orbit size the group allows occurs
    assert {k for k in sizes} == {(False, 1), (False, 5), (True, 1), (True, 5), (True, 10)}


@pytest.mark.parametrize("a_exp", [Fraction(3), Fraction(5, 2)])
def test_tables_verify(a_exp):
    report = verify_tables(a_exp)
    assert report.all_passed, report.failures[:3]
    assert all(v["all_in"] for v in report.ray_results.values())
    assert all(report.cone_results.values())
    assert "h1" in report.excluded_by_halfspace


def test_table_report_serializes():
    report = verify_tables(Fraction(3))
    data = report.to_json()
    assert data["A"] == "3"
    assert data["all_passed"] is True
    assert set(data["rays"]) == {f"h{i}" for i in range(1, 10)}
    assert set(data["cones"]) == {f"C{i}" for i in range(1, 23)}


def test_degenerate_vortex_run_reports_instead_of_crashing():
    report = verify_tables(Fraction(2))
    assert isinstance(report.all_passed, bool)


def test_weight_vector_validation_and_lift():
    w = WeightVector((1, 2, 3, 4, 5, 6))
    lifted = _lift(w, Fraction(5, 2))
    # q w(Q) + p w(r) = 2 q w(r) with p = 5, q = 2
    for wr, wq in zip(lifted[:6], lifted[6:]):
        assert 2 * wq + 5 * wr == 2 * 2 * wr
    with pytest.raises(ValueError):
        WeightVector((1, 2, 3))


def test_build_system_rejects_small_exponents():
    with pytest.raises(ValueError):
        build_system(Fraction(3, 2))


def test_rays_specialize_to_integers_at_newtonian_exponent():
    table = load_ray_table()
    for label, _coords, _mult in table.rays:
        w = table.ray_weight(label, Fraction(3))
        assert all(x.denominator == 1 for x in w.weights)


# ---------------------------------------------------------------------------
# the integer kernel against exact-Fraction compositions of the former code

def _lift(w, a_exp):
    """The twelve lifted coordinates of a weight: w(r), then w(Q) = (2 - A) w(r)."""
    factor = Fraction(2) - Fraction(a_exp)
    return w.weights + tuple(factor * x for x in w.weights)


def _fraction_top_terms(poly, w, a_exp):
    """Exponents of maximal lifted weight, each weight an exact Fraction dot product."""
    w12 = _lift(w, a_exp)
    best, keep = None, []
    for e in poly.terms:
        wt = sum(Fraction(a) * b for a, b in zip(e, w12) if a)
        if best is None or wt > best:
            best, keep = wt, [e]
        elif wt == best:
            keep.append(e)
    return keep


def _fraction_weight(gens, a_exp):
    """The generators' coordinates c0 + c1 A summed in exact Fraction arithmetic."""
    a_exp = Fraction(a_exp)
    return WeightVector(tuple(sum(g[c][0] for g in gens) + sum(g[c][1] for g in gens) * a_exp
                              for c in range(6)))


def _oracle_weights(a_exp):
    """Zero and single-class rays, every dihedral orbit member of every table
    ray, every cone-interior weight, and seeded rational weights: random
    ones (numerators -9..9, denominators 1..9) and positive rational
    combinations of two orbit members."""
    table = load_ray_table()
    weights = [WeightVector((0,) * 6)]
    for c in range(6):
        for scale in (1, Fraction(5, 3), -1):
            weights.append(WeightVector(tuple(scale if k == c else 0 for k in range(6))))
    members = [m for label, _, _ in table.rays
               for m in weight_orbit(table.ray_weight(label, a_exp), dihedral=True)]
    weights += members
    weights += [_fraction_weight(gens, a_exp) for _, gens in table.cones]
    rng = random.Random(str(a_exp))

    def frac(lo):
        return Fraction(rng.randint(lo, 9), rng.randint(1, 9))

    for _ in range(150):
        weights.append(WeightVector(tuple(frac(-9) for _ in range(6))))
        u, v = rng.sample(members, 2)
        cu, cv = frac(1), frac(1)
        weights.append(WeightVector(tuple(cu * x + cv * y
                                          for x, y in zip(u.weights, v.weights))))
    return weights


ORACLE_EXPONENTS = [Fraction(2), Fraction(7, 3), Fraction(5, 2), Fraction(3),
                    Fraction(11, 4), Fraction(4)]


@pytest.mark.parametrize("a_exp", ORACLE_EXPONENTS, ids=str)
def test_integer_kernel_matches_fraction_oracle(a_exp):
    system = build_system(a_exp)
    weights = _oracle_weights(a_exp)
    assert len(weights) * len(ORACLE_EXPONENTS) >= 2000
    verdicts = Counter()
    for w in weights:
        expected = (True, None)
        for label, poly in system:
            top = _fraction_top_terms(poly, w, a_exp)
            init = initial_form(poly, w, a_exp)
            assert list(init.terms) == top, (label, w)
            assert init == LaurentPoly({e: poly.terms[e] for e in top})
            if len(top) < 2:
                expected = (False, label)
                break
        assert in_prevariety(w, system, a_exp) == expected, w
        verdicts[expected[1]] += 1
    # accepted weights and witnesses among both kinds of polynomial
    assert verdicts[None] >= 55
    assert any(lab.startswith("f") for lab in verdicts if lab)
    assert any(lab.startswith("CM") for lab in verdicts if lab)


def _mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Product of two polynomials, term by term over exponents and mass monomials."""
    out: dict = {}
    for e1, mp1 in a.terms.items():
        for e2, mp2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            tgt = out.setdefault(e, {})
            for me1, c1 in mp1.items():
                for me2, c2 in mp2.items():
                    me = tuple(x + y for x, y in zip(me1, me2))
                    acc = tgt.get(me, Fraction(0)) + c1 * c2
                    if acc:
                        tgt[me] = acc
                    else:
                        tgt.pop(me, None)
            if not tgt:
                out.pop(e, None)
    return LaurentPoly(out)


def _leibniz_cayley_menger(points):
    """Five-factor Leibniz products of LaurentPoly entries over all 120 permutations."""
    def entry(a, b):
        if a == b:
            return LaurentPoly()
        if a == 0 or b == 0:
            return LaurentPoly.monomial()
        i, j = sorted((points[a - 1], points[b - 1]))
        return LaurentPoly.monomial(exps={PAIR_CLASS[(i, j)]: 2})

    det = LaurentPoly()
    for perm in permutations(range(5)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(5), 2))
        term = LaurentPoly.monomial(coeff=(-1) ** inversions)
        for a in range(5):
            term = _mul(term, entry(a, perm[a]))
        det = det + term
    return det


def test_cayley_menger_monomial_sums_match_leibniz_products():
    generic = dict(build_system(Fraction(3)))
    masses = [1, 2, 3, 5, 7]
    for sub in combinations(range(1, 6), 4):
        label = "CM" + "".join(map(str, sub))
        expected = _leibniz_cayley_menger(sub)
        assert build_cayley_menger_poly(sub) == expected
        assert generic[label] == expected
        assert specialize_masses(generic[label], masses) == specialize_masses(expected, masses)


def _chained_f_poly(i, j):
    """f_ij as the chained product m_k (Q_ik - r_ik^2) a_ijk D_ik, summed over k."""
    def cls(a, b):
        return PAIR_CLASS[(min(a, b), max(a, b))]

    def r2(c):
        return LaurentPoly.monomial(exps={c: 2})

    others = [k for k in range(1, 6) if k != i]
    total = LaurentPoly()
    for k in others:
        cik = cls(i, k)
        aijk = -r2(cik) - r2(cls(i, j))
        if k != j:
            aijk = aijk + r2(cls(j, k))
        s_num = LaurentPoly.monomial(q_exps={cik: 1}) - r2(cik)
        term = _mul(_mul(LaurentPoly.monomial(mass=k), s_num), aijk)
        for c in sorted({cls(i, m) for m in others} - {cik}):
            term = _mul(term, r2(c))
        total = total + term
    return total


@pytest.mark.parametrize("a_exp", ORACLE_EXPONENTS, ids=str)
def test_f_monomial_sums_match_chained_products(a_exp):
    pairs = [(i, j) for i in range(1, 6) for j in range(1, 6) if i != j]
    expected = {f"f{i}{j}": _chained_f_poly(i, j) for i, j in pairs}
    assert all(build_f_poly(i, j) == expected[f"f{i}{j}"] for i, j in pairs)
    system = dict(build_system(a_exp))
    for masses in (None, [1, 2, 3, 5, 7], [1, 1, 1, 1, 1]):
        for label, poly in expected.items():
            if masses is None:
                assert system[label] == poly, label
            else:
                assert (specialize_masses(system[label], masses)
                        == specialize_masses(poly, masses)), (label, masses)


def test_system_built_for_another_exponent_is_rejected():
    table = load_ray_table()
    system = build_system(Fraction(3))
    for label in ("h2", "h5", "h9"):
        w = table.ray_weight(label, Fraction(3))
        assert in_prevariety(w, system, Fraction(3)) == (True, None)
        with pytest.raises(ValueError, match=r"built for A=3, not for A=5/2"):
            in_prevariety(w, system, Fraction(5, 2))


@pytest.mark.parametrize("a_exp", [Fraction(3), Fraction(7, 3),
                                   Fraction(3 * 10 ** 19 + 1, 10 ** 19)], ids=str)
def test_huge_weights_match_fraction_oracle(a_exp):
    # numerators near 10**30 overflow int64, as do the projected points of the
    # last exponent, so the kernel runs on Python ints
    system = build_system(a_exp)
    table = load_ray_table()
    rng = random.Random(30)
    big = 10 ** 30
    weights = [m.scaled(big + rng.randint(1, 99)) for label, _, _ in table.rays
               for m in weight_orbit(table.ray_weight(label, a_exp))]
    weights += [WeightVector(tuple(Fraction(rng.randint(-big, big), rng.randint(1, 9))
                                   for _ in range(6))) for _ in range(40)]
    weights += [WeightVector(tuple(big if k == c else 0 for k in range(6)))
                for c in range(6)]
    verdicts = Counter()
    for w in weights:
        expected = (True, None)
        for label, poly in system:
            top = _fraction_top_terms(poly, w, a_exp)
            assert list(initial_form(poly, w, a_exp).terms) == top, (label, w)
            if len(top) < 2:
                expected = (False, label)
                break
        assert in_prevariety(w, system, a_exp) == expected, w
        verdicts[expected[0]] += 1
    assert verdicts[True] >= 33 and verdicts[False] >= 6


# SHA-256 of json.dumps(verify_tables(A).to_json() without "stats",
# sort_keys=True), computed with the exact-Fraction kernel
TABLE_REPORT_SHA256 = {
    Fraction(2): "4e4ad2c757d0e8cee9f678f27810605506860e6e0d95536cf193a8c9ca92a868",
    Fraction(5, 2): "68f01a9e421a54b9911ecbc13ed62538aab4cb87f1e9609da97a829662e58021",
    Fraction(3): "893378acac1f4aa83091fc61e944a9b11c08fb0001c5f6356fab4507323a80f1",
    Fraction(7, 3): "33750006fd55522d6a6083f8de02a11d82d7d9e934c1ec5c81213aed61c6f5c7",
}


@pytest.mark.parametrize("a_exp", list(TABLE_REPORT_SHA256), ids=str)
def test_table_reports_pinned(a_exp):
    data = verify_tables(a_exp).to_json()
    stats = data.pop("stats")
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == TABLE_REPORT_SHA256[a_exp]
    # 33 cyclic orbit members and 22 cones, every one accepted by all 31
    assert stats == {"weights_tested": 55, "polynomials_examined": 55 * 31,
                     "witnesses": {}}


def test_table_report_stats_count_rejected_weights(monkeypatch):
    table = load_ray_table()
    single = ((1, 0),) + ((0, 0),) * 5
    bad = dataclasses.replace(table, cones=table.cones + (("bad", (single,)),))
    monkeypatch.setattr(tropical, "load_ray_table", lambda: bad)
    report = verify_tables(Fraction(3))
    labels = [lab for lab, _ in build_system(Fraction(3))]
    assert report.failures[-1]["entry"] == "bad"
    witness = report.failures[-1]["witness"]
    assert report.stats == {"weights_tested": 56,
                            "polynomials_examined": 55 * 31 + labels.index(witness) + 1,
                            "witnesses": {witness: 1}}


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("a_exp", ORACLE_EXPONENTS + [Fraction(3 * 10 ** 19 + 1, 10 ** 19)],
                         ids=str)
def test_integer_rows_match_fraction_path(a_exp):
    # every ray and cone: the integer row q sum(c0) + p sum(c1) against the
    # rational weight c0 + c1 A summed in Fraction arithmetic
    table = load_ray_table()
    p, q = a_exp.numerator, a_exp.denominator
    system = build_system(a_exp)
    for label, coords, _ in table.rays:
        assert table.ray_weight(label, a_exp) == _fraction_weight((coords,), a_exp)
    rows, weights = [], []
    for gens in [(coords,) for _, coords, _ in table.rays] + [gens for _, gens in table.cones]:
        row, w = _row(gens, p, q), _fraction_weight(gens, a_exp)
        orbit, members = _orbit(row), weight_orbit(w)
        assert orbit == [tuple(q * x for x in m.weights) for m in members]
        assert len(_orbit(row, dihedral=True)) == len(weight_orbit(w, dihedral=True))
        assert _sign(sum(row)) == _sign(sum(w.weights))
        rows += orbit
        weights += members
    assert _memberships(system, a_exp, rows) == [in_prevariety(w, system, a_exp)
                                                 for w in weights]


def test_table_report_failure_weights_are_the_rational_orbit(monkeypatch):
    # a ray (0, 1 + A, -1, 0, 0, 0) whose five cyclic images are all rejected,
    # listed with multiplicity 5 against its dihedral orbit of 10; every
    # failure reports its weight as rationals at A = 7/3
    a_exp = Fraction(7, 3)
    table = load_ray_table()
    coords = ((0, 0), (1, 1), (-1, 0)) + ((0, 0),) * 3
    bad = dataclasses.replace(table, rays=table.rays + (("bad", coords, 5),))
    monkeypatch.setattr(tropical, "load_ray_table", lambda: bad)
    report = verify_tables(a_exp)
    w = bad.ray_weight("bad", a_exp)
    assert [str(x) for x in w.weights] == ["0", "10/3", "-1", "0", "0", "0"]
    members = weight_orbit(w)
    assert [f["entry"] for f in report.failures] == ["bad"] * 6
    *rejected, multiplicity = report.failures
    assert [f["weight"] for f in rejected] == [[str(x) for x in m.weights] for m in members]
    assert all(f["witness"] in dict(build_system(a_exp)) for f in rejected)
    assert multiplicity == {"entry": "bad", "witness": "multiplicity",
                            "weight": [str(x) for x in w.weights]}
    assert report.ray_results["bad"] == {"orbit_size": 5, "all_in": False}
    assert report.multiplicity_results["bad"] == {"expected": 5, "dihedral_orbit": 10,
                                                  "matches": False}


# ---------------------------------------------------------------------------
# the compiled system: A-free polynomials built once, points projected at build

def test_membership_projects_nothing_after_the_build(monkeypatch):
    calls = Counter()
    project = tropical._project

    def counting(*args):
        calls["project"] += 1
        return project(*args)

    monkeypatch.setattr(tropical, "_project", counting)
    system = build_system(Fraction(3))
    built = calls["project"]
    table = load_ray_table()
    # 14 cyclic orbit members of shipped rays, then the six single-class rays
    weights = [m for label, _, _ in table.rays
               for m in weight_orbit(table.ray_weight(label, Fraction(3)))][:14]
    weights += [WeightVector(tuple(int(k == c) for k in range(6))) for c in range(6)]
    verdicts = [in_prevariety(w, system, Fraction(3)) for w in weights]
    assert calls["project"] == built == 1
    assert verdicts[:14] == [(True, None)] * 14
    assert all(not ok and witness for ok, witness in verdicts[14:])


@pytest.mark.parametrize("a_exp, dtype", [(Fraction(3), np.int64),
                                          (Fraction(3 * 10 ** 19 + 1, 10 ** 19), object)],
                         ids=str)
def test_stored_points_are_the_projection_of_the_system(a_exp, dtype):
    system = build_system(a_exp)
    expected = _project(*_exponents([poly for _, poly in system]), a_exp)
    assert system.points.dtype == expected.dtype == dtype
    assert system.points.tolist() == expected.tolist()
    assert system.a_exp == a_exp
    assert list(system.sizes) == [len(poly) for _, poly in system]
    assert system.sizes.sum() == len(system.points)


def test_shared_a_free_polynomials_stay_unchanged():
    s3, s52 = build_system(Fraction(3)), build_system(Fraction(5, 2))
    for (label, poly), (label2, poly2) in zip(s3[:25], s52[:25]):
        assert label == label2 and poly is poly2
    fresh = {f"f{i}{j}": build_f_poly(i, j)
             for i in range(1, 6) for j in range(1, 6) if i != j}
    fresh.update(("CM" + "".join(map(str, sub)), build_cayley_menger_poly(sub))
                 for sub in combinations(range(1, 6), 4))
    for system in (s3, s52):
        assert dict(system[:25]) == fresh
    assert dict(s3)["Qrel0"] == build_q_relation(0, 3, 1)
    assert dict(s52)["Qrel0"] == build_q_relation(0, 5, 2)


def test_membership_refuses_a_hand_made_system():
    system = build_system(Fraction(3))
    pairs = list(system)
    w = WeightVector((0,) * 6)
    for other in (pairs, tuple(pairs)):
        with pytest.raises(TypeError, match="build_system"):
            in_prevariety(w, other, Fraction(3))
        with pytest.raises(TypeError, match="build_system"):
            _memberships(other, Fraction(3), [_scaled(w)])
