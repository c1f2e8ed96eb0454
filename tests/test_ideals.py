"""Ideal arithmetic: HNF lattices, prime splitting, factored ideals, generators."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from sympy import primerange

from nfk import ideals
from nfk.class_unit import compute_unit_group
from nfk.config import Ceilings
from nfk.errors import CeilingError, NotASquareError, NotPrincipalError, RankError
from nfk.exact_math import IntMatrix, factor_mod_p, hnf_square
from nfk.ideals import (
    FactoredIdeal,
    Ideal,
    PrimeIdeal,
    canonical_generator,
    decompose_parts,
    factor_ideal,
    ideal_from_element,
    ideal_from_rational,
    ideal_mul,
    ideal_pow,
    primes_of_norm_up_to,
    principal_test_generator,
    residue_degrees,
    split_prime,
    valuation,
)
from nfk.number_field import build_field
from oracles import _box_norm_matches


def elem(K, *coords):
    return K.element(list(coords))


# ---------------------------------------------------------------------------
# construction and multiplication
# ---------------------------------------------------------------------------


def test_principal_ideal_hnf_gaussian(field_qi):
    K = field_qi
    one_plus_i = elem(K, 1, 1)
    a = ideal_from_element(one_plus_i)
    assert a.norm() == 2
    assert a.hnf.rows == [[2, 1], [0, 1]]
    two = ideal_from_rational(K, 2)
    assert two.hnf.rows == [[2, 0], [0, 2]]
    assert ideal_mul(a, a) == two
    assert ideal_pow(a, 2) == two
    assert ideal_pow(a, 6) == ideal_from_rational(K, 8)


def _element_product(a, b):
    """The product through AlgebraicNumber: HNF of all basis-element products."""
    K = a.field
    cols = [(x * y).int_coords() for x in a.basis_elements() for y in b.basis_elements()]
    return Ideal(K, hnf_square(IntMatrix([[c[i] for c in cols] for i in range(K.degree)])))


@pytest.mark.parametrize("name", ["q", "qi", "qm5", "cubic9", "zeta3"])
def test_ideal_mul_matches_element_product(name, request):
    K = request.getfixturevalue(f"field_{name}")
    pool = [fa.to_ideal() for fa in _integral_ideals(K, 200)]
    one = Ideal.one(K)
    assert pool[0] == one
    rng = random.Random(7)
    pairs = [(one, one)] + [(one, a) for a in pool[1:6]] + [(a, one) for a in pool[1:6]]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(80)]
    for a, b in pairs:
        assert ideal_mul(a, b) == _element_product(a, b), (a, b)
    a = pool[-1]
    assert ideal_mul(one, a) is a and ideal_mul(a, one) is a and ideal_pow(a, 1) is a
    assert a.is_one() is False and one.is_one() is True


def test_ideal_contains_and_reduce(field_qi):
    K = field_qi
    a = ideal_from_element(elem(K, 1, 1))
    assert a.contains(elem(K, 2, 0))
    assert a.contains(elem(K, 1, 1))
    assert not a.contains(elem(K, 1, 0))
    # residues: exactly norm-many distinct canonical representatives
    res = list(a.residues())
    assert len(res) == 2
    assert len(set(res)) == 2
    assert a.reduce([5, 2]) == a.reduce([1, 0])


def test_residue_counts(field_qi, field_cubic9):
    nine = ideal_from_rational(field_qi, 3)
    assert len(set(nine.residues())) == 9
    two = ideal_from_rational(field_cubic9, 2)
    assert len(set(two.residues())) == 8


# ---------------------------------------------------------------------------
# prime splitting
# ---------------------------------------------------------------------------


def test_split_gaussian(field_qi):
    K = field_qi
    over2 = split_prime(K, 2)
    assert len(over2) == 1 and over2[0].e == 2 and over2[0].f == 1
    assert over2[0].ideal.norm() == 2
    over3 = split_prime(K, 3)
    assert len(over3) == 1 and over3[0].e == 1 and over3[0].f == 2
    assert over3[0].ideal.norm() == 9
    assert over3[0].ideal == ideal_from_rational(K, 3)
    over5 = split_prime(K, 5)
    assert len(over5) == 2 and all(q.f == 1 and q.e == 1 for q in over5)
    assert over5[0].label() == "5,1,1,0" and over5[1].label() == "5,1,1,1"
    assert over2[0].label() == "2,1,2"


def test_split_cubic_shapes(field_cubic9):
    K = field_cubic9
    assert [(q.e, q.f) for q in split_prime(K, 2)] == [(1, 3)]
    for p in (2, 3, 5, 7, 11, 13, 37, 59):
        assert sum(q.e * q.f for q in split_prime(K, p)) == 3
    # disc = -37 * 59: exactly those primes ramify
    assert any(q.e > 1 for q in split_prime(K, 37))
    assert any(q.e > 1 for q in split_prime(K, 59))
    for p in (2, 3, 5, 7, 11, 13):
        assert all(q.e == 1 for q in split_prime(K, p))


# the six-field matrix: Q, Q(i), Q(sqrt(-5)), cubic-9, Q(zeta3), x^3 - 3x - 1
_SPLITTING_FIELDS = [
    pytest.param([0, 1], 2, id="q"),
    pytest.param([1, 0, 1], 2, id="qi"),
    pytest.param([5, 0, 1], 2, id="qm5"),
    pytest.param([-9, -1, 0, 1], 2, id="cubic9"),
    pytest.param([1, 1, 1], 3, id="zeta3"),
    pytest.param([-1, -3, 0, 1], 2, id="cyclic_cubic"),
]


@pytest.mark.parametrize("coeffs, ell", _SPLITTING_FIELDS)
def test_residue_degrees_match_split_prime(coeffs, ell):
    # a fresh field, so that every unramified p takes the distinct-degree
    # path; every ramified p of these fields is below 3000
    K = build_field(coeffs, ell=ell)
    for p in primerange(2, 3000):
        got = residue_degrees(K, p)
        if K.degree > 1 and K.disc % p:
            assert p not in K._prime_cache  # nothing built, nothing cached
        assert got == [q.f for q in split_prime(K, p)], p
        assert residue_degrees(K, p) == got  # now through the cache


@pytest.mark.parametrize("coeffs, ell", _SPLITTING_FIELDS)
def test_prime_pool_pruning_keeps_contents_and_order(coeffs, ell):
    K = build_field(coeffs, ell=ell)
    oracle = build_field(coeffs, ell=ell)  # split at every p, pruning nothing
    for bound in (1, 2, 97, 500, K.minkowski_bound()):
        unpruned = [q for p in primerange(2, int(bound) + 1) for q in split_prime(oracle, p)]
        want = [(q.p, q.gpoly.coeffs) for q in unpruned if q.norm <= bound]
        got = [(q.p, q.gpoly.coeffs) for q in primes_of_norm_up_to(K, bound)]
        assert got == want, bound


_QUADRATIC_SPLITTING_FIELDS = [
    pytest.param([1, 0, 1], 2, id="qi"),
    pytest.param([5, 0, 1], 2, id="qm5"),
    pytest.param([1, 1, 1], 3, id="zeta3"),
    pytest.param([-2, 0, 1], 2, id="qs2"),
    pytest.param([6, 1, 1], 2, id="qm23"),  # h = 3
    pytest.param([7, 3, 1], 2, id="x2_3x_7"),
]


@pytest.mark.parametrize("coeffs, ell", _QUADRATIC_SPLITTING_FIELDS)
def test_quadratic_split_matches_zassenhaus(coeffs, ell, monkeypatch):
    # split_prime settles odd unramified p in degree 2 by Euler's criterion
    # and a square root mod p; factor_mod_p (Zassenhaus) is the oracle
    calls = []

    def counted(f, p):
        calls.append(p)
        return factor_mod_p(f, p)

    def shape(q):
        return (q.gpoly, q.e, q.index, q.ambiguous, q.label(), q.ideal.hnf)

    monkeypatch.setattr(ideals, "factor_mod_p", counted)
    K = build_field(coeffs, ell=ell)
    for p in primerange(3, 5000):
        want = [PrimeIdeal(K, p, g, e, idx) for idx, (g, e) in enumerate(factor_mod_p(K.poly, p))]
        for q in want:
            q.ambiguous = len(want) == 2  # two primes over p share (f, e) = (1, 1)
        calls.clear()
        assert [shape(q) for q in split_prime(K, p)] == [shape(q) for q in want], p
        assert calls == ([p] if K.disc % p == 0 else []), p


def _prime_hnf_by_generators(K, q):
    """HNF of the columns p theta^j and g(theta) theta^j, g reduced at theta."""
    n = K.degree
    g = [0] * n
    for k, c in enumerate(q.gpoly.coeffs):
        g = [a + c * b for a, b in zip(g, K.theta_power(k))]
    cols = [[q.p * (i == j) for i in range(n)] for j in range(n)]
    acc = K.element(g)
    for _ in range(n):
        cols.append(acc.int_coords())
        acc = acc * K.theta
    return hnf_square(IntMatrix([[c[i] for c in cols] for i in range(n)]))


def test_degree_one_prime_hnf_closed_form():
    # over Q the prime (p) has the HNF [[p]], built with no hnf_square
    K = build_field([0, 1], ell=2)
    for p in primerange(2, 2000):
        (q,) = split_prime(K, p)
        assert q.ideal.hnf.rows == [[p]]
        assert q.ideal.hnf == _prime_hnf_by_generators(K, q), p


@pytest.mark.parametrize("coeffs, ell", _SPLITTING_FIELDS)
def test_prime_hnf_matches_generator_hnf(coeffs, ell):
    # f = 1 primes take the closed form (p, -r, -r^2, ...) on the first row
    K = build_field(coeffs, ell=ell)
    for p in primerange(2, 400):
        for q in split_prime(K, p):
            assert q.ideal.hnf == _prime_hnf_by_generators(K, q), q
            assert q.ideal.norm() == q.norm


def test_prime_power_valuations(field_qi):
    K = field_qi
    q2 = split_prime(K, 2)[0]
    q3 = split_prime(K, 3)[0]
    for k in range(5):
        a = ideal_mul(ideal_pow(q2.ideal, k), ideal_from_rational(K, 3))
        assert valuation(q2, a) == k
        assert valuation(q3, a) == 1


def test_factor_ideal_examples(field_qm5):
    K = field_qm5
    p2 = split_prime(K, 2)[0]
    f = factor_ideal(ideal_from_rational(K, 2))
    assert f.exps == {p2: 2}
    g = factor_ideal(ideal_from_element(elem(K, 1, 1)))  # N(1+sqrt(-5)) = 6
    assert sorted(q.p for q in g.exps) == [2, 3]
    assert g.norm() == 6


def test_factor_ideal_roundtrip_random(field_qi, field_qm5, field_cubic9):
    rng = random.Random(7)
    for K in (field_qi, field_qm5, field_cubic9):
        n = K.degree
        done = 0
        while done < 40:
            coords = [rng.randint(-9, 9) for _ in range(n)]
            if not any(coords):
                continue
            x = K.element(coords)
            a = ideal_from_element(x)
            fa = factor_ideal(a)
            assert fa.norm() == abs(x.norm())
            assert fa.to_ideal() == a
            done += 1


# ---------------------------------------------------------------------------
# fractional and factored ideals
# ---------------------------------------------------------------------------


def test_fractional_reduction_and_norm(field_qi):
    K = field_qi
    f = factor_ideal(ideal_from_rational(K, 4)) / factor_ideal(ideal_from_rational(K, 6))
    assert f.num_den() == (ideal_from_rational(K, 2), 3)
    assert f.norm() == Fraction(4, 9)


def test_fractional_inverse_of_prime(field_qi, field_qm5):
    q2 = split_prime(field_qi, 2)[0]
    inv = FactoredIdeal(field_qi, {q2: -1})
    assert inv.norm() == Fraction(1, 2)
    # ramified: 2 q2^-1 = q2
    assert inv.num_den() == (q2.ideal, 2)
    # q2^-2 = (2)^-1: clearing by (2)^2 would leave content 2, so den is 2
    assert (inv**2).num_den() == (Ideal.one(field_qi), 2)
    # split prime: the inverse numerator is the conjugate prime
    q3a, q3b = split_prime(field_qm5, 3)
    assert FactoredIdeal(field_qm5, {q3a: -1}).num_den() == (q3b.ideal, 3)
    # both primes over 3 inverted: (3)^-1, content cancelled to the unit ideal
    both = FactoredIdeal(field_qm5, {q3a: -1, q3b: -1})
    assert both.num_den() == (Ideal.one(field_qm5), 3)


def test_factored_arithmetic(field_qm5):
    K = field_qm5
    p2 = split_prime(K, 2)[0]
    q3a, q3b = split_prime(K, 3)
    a = FactoredIdeal(K, {p2: 3, q3a: -2})
    b = FactoredIdeal(K, {q3a: 2, q3b: 1})
    assert (a * b).exps == {p2: 3, q3b: 1}
    assert (a**2).norm() == Fraction(64, 81)
    assert a.inverse() * a == FactoredIdeal.unit(K)


def test_sqrt_of_square(field_qi):
    K = field_qi
    q2 = split_prime(K, 2)[0]
    q5a, q5b = split_prime(K, 5)
    g = FactoredIdeal(K, {q2: 3, q5a: -1, q5b: 2})
    assert (g**2).sqrt() == g
    num, den = (g**2).num_den()
    assert (factor_ideal(num) / factor_ideal(ideal_from_rational(K, den))).sqrt() == g
    with pytest.raises(NotASquareError):
        FactoredIdeal(K, {q2: 3}).sqrt()


# ---------------------------------------------------------------------------
# parts decomposition
# ---------------------------------------------------------------------------


def random_factored(K, rng, ps, lo=-6, hi=6):
    exps = {}
    for p in ps:
        for q in split_prime(K, p):
            e = rng.randint(lo, hi)
            if e:
                exps[q] = e
    return FactoredIdeal(K, exps)


@pytest.mark.parametrize("fieldname,ell", [("qi", 2), ("cubic9", 2), ("zeta3", 3)])
def test_decompose_parts_invariants(fieldname, ell, request):
    K = request.getfixturevalue(f"field_{fieldname}")
    rng = random.Random(hash((fieldname, ell)) & 0xFFFF)
    ell_primes = set(split_prime(K, ell))
    for _ in range(50):
        a = random_factored(K, rng, (2, 3, 5, 7, 11))
        parts = decompose_parts(a, ell)
        assert parts.reconstruct() == a
        assert set(parts.ell_part.exps) <= ell_primes
        assert not (set(parts.root.exps) & ell_primes)
        seen = set()
        for i in range(1, ell):
            part = parts.power_parts[i]
            assert all(e == 1 for e in part.exps.values())
            assert not (set(part.exps) & ell_primes)
            assert not (set(part.exps) & seen)
            seen |= set(part.exps)
        # every ell-free prime's exponent mod ell matches its part index
        for q, e in a.exps.items():
            if q in ell_primes:
                continue
            i = e % ell
            if i:
                assert q in parts.power_parts[i].exps


def test_decompose_parts_from_hnf_ideal(field_qi):
    K = field_qi
    x = elem(K, 3, 1)  # N = 10 = 2 * 5
    a = ideal_mul(ideal_from_element(x), ideal_from_rational(K, 4))
    parts = decompose_parts(a, 2)
    rebuilt = parts.reconstruct()
    assert rebuilt.to_ideal() == a


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generator_rational(field_q, field_qi):
    g = canonical_generator(ideal_from_rational(field_q, 6))
    assert g.coords == (6,)
    g2 = canonical_generator(ideal_from_rational(field_qi, 2))
    assert g2.coords == (2, 0)


def test_generator_one_plus_i(field_qi):
    K = field_qi
    g = canonical_generator(ideal_from_element(elem(K, 1, 1)))
    assert g.coords == (1, 1)


def test_generator_product_of_split_primes(field_qm5):
    K = field_qm5
    p2 = split_prime(K, 2)[0]
    q3 = next(q for q in split_prime(K, 3) if q.ideal.contains(elem(K, 1, 1)))
    prod = ideal_mul(p2.ideal, q3.ideal)
    assert prod == ideal_from_element(elem(K, 1, 1))
    assert canonical_generator(prod).coords == (1, 1)


def test_nonprincipal_returns_none(field_qm5):
    K = field_qm5
    p2 = split_prime(K, 2)[0]
    assert principal_test_generator(p2.ideal) is None
    with pytest.raises(NotPrincipalError):
        canonical_generator(p2.ideal)
    q3 = split_prime(K, 3)[0]
    assert principal_test_generator(q3.ideal) is None


def test_box_generator_real_quadratic(field_qs2):
    K = field_qs2
    u = elem(K, 1, 1)  # 1 + sqrt(2), the fundamental unit
    units = [u]
    g = canonical_generator(ideal_from_element(elem(K, 0, 1)), units)
    assert g.coords == (0, 1)
    # (2 + sqrt(2)) = (sqrt(2)) times a unit: the map lands on the same output
    same = canonical_generator(ideal_from_element(elem(K, 2, 1)), units)
    assert same.coords == (0, 1)
    # prime over 7: generators are the unit orbit of 3 - sqrt(2); the
    # max-embedding minimizer in it is 1 + 2 sqrt(2)
    q7 = next(q for q in split_prime(K, 7) if q.ideal.contains(elem(K, -3, 1)))
    g7 = canonical_generator(q7.ideal, units)
    assert g7.coords == (1, 2)
    for m in (2, 3, 4, 5, 6):
        gm = canonical_generator(ideal_from_rational(K, m), units)
        assert gm.coords == (m, 0)


def test_box_requires_units(field_qs2):
    with pytest.raises(RankError):
        principal_test_generator(ideal_from_rational(field_qs2, 3))


def _integral_ideals(K, bound):
    """Every integral ideal of norm <= bound, as FactoredIdeals."""
    primes = [q for p in primerange(2, bound + 1) for q in split_prime(K, p) if q.norm <= bound]
    out = [FactoredIdeal.unit(K)]

    def extend(start, exps, nrm):
        for j in range(start, len(primes)):
            q = primes[j]
            e, m = 1, nrm * q.norm
            while m <= bound:
                more = {**exps, q: e}
                out.append(FactoredIdeal(K, more))
                extend(j + 1, more, m)
                e, m = e + 1, m * q.norm

    extend(0, {}, 1)
    return out


def _box_bound(K, units, target):
    """M = N^(1/n) e^(max spread) * 1.0001, the bound of the box oracle."""
    with mpmath.workprec(120):
        spread = [mpmath.mpf(0)] * (K.r1 + K.r2)
        for u in units:
            for i, v in enumerate(K.embeddings(u, 80)):
                spread[i] += abs(mpmath.log(abs(v))) / 2
        nth = mpmath.mpf(target) ** (mpmath.mpf(1) / K.degree)
        return nth * mpmath.exp(max(spread)) * mpmath.mpf("1.0001")


@pytest.mark.parametrize("name, bound", [("cubic9", 40), ("qs2", 60), ("cyclic_cubic", 40)])
def test_lattice_search_matches_box_oracle(name, bound, request, monkeypatch):
    if name == "cyclic_cubic":  # x^3 - 3x - 1, unit rank 2
        K = build_field([-1, -3, 0, 1], ell=2, label="cyclic-cubic-9")
    else:
        K = request.getfixturevalue(f"field_{name}")
    units = compute_unit_group(K).fundamental
    ceilings = Ceilings()
    verdicts = set()
    for fa in _integral_ideals(K, bound):
        a = fa.to_ideal()
        target = a.norm()
        box = _box_norm_matches(a, target, units, ceilings)
        lattice = ideals._lattice_norm_matches(a, target, units, ceilings)
        assert bool(box) == bool(lattice), fa
        verdicts.add(bool(box))
        M = _box_bound(K, units, target)

        def inside(matches):
            return {tuple(c) for c in matches if max(map(abs, K.embeddings(K.element(c), 64))) <= M}

        assert inside(box) == inside(lattice), fa
        assert bool(inside(box)) == bool(box), fa
        fast = principal_test_generator(a, units)
        with monkeypatch.context() as m:
            m.setattr(ideals, "_lattice_norm_matches", _box_norm_matches)
            slow = principal_test_generator(a, units)
        assert (fast and fast.coords) == (slow and slow.coords), fa
    # the cubic (h = 3) exercises non-principal ideals as well
    assert verdicts == ({True, False} if name == "cubic9" else {True})


def _hnf_coefficients(h, v):
    """c with v = h c, by back substitution on the upper-triangular HNF h."""
    n = len(v)
    c = [0] * n
    for i in reversed(range(n)):
        rest = v[i] - sum(h[i, j] * c[j] for j in range(i + 1, n))
        assert rest % h[i, i] == 0
        c[i] = rest // h[i, i]
    return c


@pytest.mark.parametrize("name", ["cubic9", "cyclic_cubic"])
def test_lattice_matches_come_in_box_scan_order(name, request):
    # sorting by reversed power-basis coordinates is the order of a box scan
    # over HNF coordinates with the last varying slowest
    if name == "cyclic_cubic":
        K = build_field([-1, -3, 0, 1], ell=2, label="cyclic-cubic-9")
    else:
        K = request.getfixturevalue(f"field_{name}")
    units = compute_unit_group(K).fundamental
    several = 0
    for fa in _integral_ideals(K, 60):
        a = fa.to_ideal()
        matches = ideals._lattice_norm_matches(a, a.norm(), units, Ceilings())
        keys = [_hnf_coefficients(a.hnf, m)[::-1] for m in matches]
        assert keys == sorted(keys), fa
        several += len(matches) > 1
    assert several


@pytest.mark.parametrize("name", ["qi", "qm5", "zeta3"])
def test_imaginary_quadratic_choice_matches_embedding_ranking(name, request):
    # every generator has the same |sigma|, so the coordinate key alone
    # decides; the embedding ranking of the same matches is the oracle
    K = request.getfixturevalue(f"field_{name}")
    principal = 0
    for fa in _integral_ideals(K, 300):
        a = fa.to_ideal()
        matches = ideals.norm_matches(a)
        want = ideals._embedding_ranked(K, matches) if matches else None
        got = principal_test_generator(a)
        assert (got and got.coords) == (want and tuple(want)), fa
        principal += got is not None
    assert principal > 100


def test_lattice_search_honours_point_ceiling(field_cubic9):
    K = field_cubic9
    units = compute_unit_group(K).fundamental
    a = ideal_from_rational(K, 5)
    assert canonical_generator(a, units).coords == (5, 0, 0)
    with pytest.raises(CeilingError):
        canonical_generator(a, units, Ceilings(search_points=10))


def test_generator_roundtrip_random(field_qi, field_qm5):
    rng = random.Random(11)
    for K in (field_qi, field_qm5):
        done = 0
        while done < 25:
            coords = [rng.randint(-8, 8) for _ in range(2)]
            if not any(coords):
                continue
            x = K.element(coords)
            a = ideal_from_element(x)
            g = canonical_generator(a)
            assert ideal_from_element(g) == a
            # canonical: recomputing from the regenerated ideal is stable
            assert canonical_generator(ideal_from_element(g)).coords == g.coords
            done += 1


def test_fractional_principal_generator(field_qi):
    K = field_qi
    q2 = split_prime(K, 2)[0]
    half = FactoredIdeal(K, {q2: -1})
    g = principal_test_generator(half)
    assert g is not None
    assert g.norm() == Fraction(1, 2)
    assert [c for c in g.coords] == [Fraction(1, 2), Fraction(-1, 2)] or [
        c for c in g.coords
    ] == [Fraction(1, 2), Fraction(1, 2)]


def _num_den_oracle(fa):
    """The num/den assembly FactoredIdeal.num_den replaced: q^-k cleared by
    (p q^-1)^k over p^k, then the content num shares with den cancelled."""
    K = fa.field
    num, den = Ideal.one(K), 1
    for q in fa.support():
        e = fa.exps[q]
        if e > 0:
            num = ideal_mul(num, ideal_pow(q.ideal, e))
            continue
        cofactor = Ideal.one(K)
        for r in split_prime(K, q.p):
            exp = r.e - 1 if r == q else r.e
            if exp:
                cofactor = ideal_mul(cofactor, ideal_pow(r.ideal, exp))
        num = ideal_mul(num, ideal_pow(cofactor, -e))
        den *= q.p ** -e
    g = math.gcd(den, *[x for row in num.hnf.rows for x in row])
    return Ideal(K, IntMatrix([[x // g for x in row] for row in num.hnf.rows])), den // g


@pytest.mark.parametrize("name", ["q", "qi", "qm5", "cubic9", "zeta3"])
def test_num_den_matches_fractional_assembly(name, request):
    # seeded fractional ideals with negative exponents, among them two primes
    # over one p, so that both sides cancel content; the generator search on
    # the factored ideal must agree with the search on the oracle's numerator
    K = request.getfixturevalue(f"field_{name}")
    units = compute_unit_group(K).fundamental
    pool = sorted(primes_of_norm_up_to(K, 20))
    shared = [q for q in pool if len(split_prime(K, q.p)) > 1]
    rng = random.Random(17)
    cases = []
    while len(cases) < 24:
        picks = rng.sample(pool, rng.randint(1, 3))
        if len(cases) % 3 == 0 and shared:
            q = rng.choice(shared)
            picks = sorted({*picks, *split_prime(K, q.p)})
        fa = FactoredIdeal(K, {q: rng.choice([-2, -1, 1, 2]) for q in picks})
        if not fa.is_integral():
            cases.append(fa)
    cancelled = verdicts = 0
    for fa in cases:
        num, den = _num_den_oracle(fa)
        assert fa.num_den() == (num, den), fa
        cancelled += den < math.prod(q.p ** -e for q, e in fa.exps.items() if e < 0)
        gen = principal_test_generator(num, units)
        want = gen and K.element([Fraction(c, den) for c in gen.coords])
        got = principal_test_generator(fa, units)
        assert got == want, fa
        verdicts += got is not None
    if shared:
        assert cancelled
    assert verdicts

