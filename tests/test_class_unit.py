"""Unit groups (torsion, fundamental, regulator) and Minkowski-census class groups."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from sympy import factorint

from nfk import class_unit, ideals
from nfk.class_unit import (
    ClassGroup,
    _reduce_units,
    _unit_search_pool,
    compute_class_group,
    compute_unit_group,
    unit_coset_reps,
    unit_dlog,
)
from nfk.config import Ceilings
from nfk.errors import CeilingError, MissingRootOfUnityError, NotPrincipalError
from nfk.exact_math import lattice_contains
from nfk.harness import run_count_asymptotic_check
from nfk.ideals import (
    FactoredIdeal,
    canonical_generator,
    factor_ideal,
    ideal_from_element,
    primes_of_norm_up_to,
    principal_test_generator,
    split_prime,
)
from nfk.kummer import enumerate_extensions
from nfk.number_field import NumberField, build_field
from oracles import class_census_by_search, ell_free_ideals_of_norm_up_to, unit_dlog_by_elements


def test_units_rank_zero(field_q, field_qi, field_qm5):
    uq = compute_unit_group(field_q)
    assert uq.w == 2 and uq.rank == 0 and uq.regulator == 1
    assert uq.zeta.coords == (-1,)

    ui = compute_unit_group(field_qi)
    assert ui.w == 4 and ui.rank == 0
    assert ui.zeta.coords == (0, 1)
    assert len(ui.torsion_elements()) == 4

    um = compute_unit_group(field_qm5)
    assert um.w == 2 and um.rank == 0
    assert um.zeta.coords == (-1, 0)


def test_units_zeta3(field_zeta3):
    u = compute_unit_group(field_zeta3)
    assert u.w == 6 and u.rank == 0
    zl, order = u.zeta_ell_part(3)
    assert order == 3
    assert zl.coords in ((0, 1), (-1, -1))  # a primitive cube root
    assert (zl * zl * zl).is_one()


def test_units_sqrt2(field_qs2):
    u = compute_unit_group(field_qs2)
    assert u.w == 2 and u.rank == 1
    assert u.fundamental[0].coords == (1, 1)
    with mpmath.workprec(80):
        assert abs(u.regulator - mpmath.log(1 + mpmath.sqrt(2))) < mpmath.mpf("1e-9")


def test_units_cubic9(field_cubic9):
    u = compute_unit_group(field_cubic9)
    assert u.w == 2 and u.rank == 1
    fund = u.fundamental[0]
    assert abs(fund.norm()) == 1
    assert ideal_from_element(fund).is_one()
    assert fund.coords == (16, 9, 4)
    assert 4.02 < float(u.regulator) < 4.04


def test_units_rank_two_smoke():
    K = build_field([-1, -3, 0, 1], ell=2, label="cyclic-cubic-9")
    u = compute_unit_group(K)
    assert (K.r1, K.r2) == (3, 0)
    assert u.rank == 2 and u.w == 2
    for f in u.fundamental:
        assert abs(f.norm()) == 1
    # regulator of the totally real cubic of discriminant 81
    assert 0.84 < float(u.regulator) < 0.86


# (zeta.coords, w, [u.coords]) of the unit group, as the coordinate-box
# searches for the roots of unity and the units found them
_PINNED_UNITS = [
    ([0, 1], (-1,), 2, []),
    ([1, 0, 1], (0, 1), 4, []),  # Q(i)
    ([5, 0, 1], (-1, 0), 2, []),  # Q(sqrt(-5))
    ([-2, 0, 1], (-1, 0), 2, [(1, 1)]),  # Q(sqrt(2))
    ([-7, 0, 1], (-1, 0), 2, [(8, 3)]),  # Q(sqrt(7))
    ([1, 1, 1], (1, 1), 6, []),  # Q(zeta3)
    ([-9, -1, 0, 1], (-1, 0, 0), 2, [(16, 9, 4)]),  # cubic-9
    ([-1, -3, 0, 1], (-1, 0, 0), 2, [(1, 1, 0), (0, 1, 0)]),  # x^3 - 3x - 1
    ([1, -2, -1, 1], (-1, 0, 0), 2, [(-1, 0, 1), (0, 1, 0)]),  # x^3 - x^2 - 2x + 1
    ([1, 1, 1, 1, 1], (1, 1, 1, 1), 10, [(1, 0, 1, 0)]),  # Q(zeta5)
    ([1, 0, -1, 0, 1], (0, 1, 0, 0), 12, [(-1, 1, 0, 0)]),  # Q(zeta12): no mod-p certificate
    ([13, 0, 7, 0, 1], (4, 0, 1, 0), 6, [(7, -1, 2, 0)]),
    ([21, 0, -9, 0, 1], (5, 0, -1, 0), 6, [(-2, 1, 0, 0)]),
    ([1] * 7, (1,) * 6, 14, [(1, 0, 0, 1, 0, 0), (1, 0, 1, 0, 1, 0)]),  # Q(zeta7)
    # signature (2, 1) quartics: ties in the rank-2 reduction
    ([-7, 0, 0, 0, 1], (-1, 0, 0, 0), 2, [(8, 0, 3, 0), (-1, 1, 1, 0)]),
    ([-2, 0, -2, 0, 1], (-1, 0, 0, 0), 2, [(1, 0, 1, 0), (-1, 1, 1, 0)]),
    ([-2, 0, 0, 0, 1], (-1, 0, 0, 0), 2, [(1, 0, 1, 0), (1, 1, 0, 0)]),
    ([-5, 0, 9, 0, 1], (-1, 0, 0, 0), 2, [(19, 0, 2, 0), (14, 19, 1, 2)]),  # |t| = 1/2
]


@pytest.mark.parametrize("coeffs, zeta, w, units", _PINNED_UNITS, ids=lambda v: str(v))
def test_short_vector_callers_pinned(coeffs, zeta, w, units):
    # a fresh field, so that torsion() and the unit search both run
    K = build_field(coeffs, ell=2)
    ug = compute_unit_group(K)
    assert (ug.zeta.coords, ug.w, [u.coords for u in ug.fundamental]) == (zeta, w, units)


@pytest.mark.parametrize("name", ["zeta3", "qi", "cubic9", "x4_7x2_13", "rank2"])
def test_unit_dlog_on_seeded_units(name, request):
    # the torsion list and the units' log vectors are built once with the
    # unit group; unit_dlog reads back the exponents of zeta^a prod eps_i^b_i
    K = request.getfixturevalue(f"field_{name}")
    ug = compute_unit_group(K)
    torsion = ug.torsion_elements()
    assert torsion is ug.torsion_elements()
    assert torsion == [ug.zeta**k for k in range(ug.w)]
    rng = random.Random(13)
    for _ in range(40):
        a = rng.randrange(ug.w)
        b = tuple(rng.randint(-6, 6) for _ in ug.fundamental)
        u = ug.zeta**a
        for f, e in zip(ug.fundamental, b):
            u = u * f**e
        assert unit_dlog(ug, u) == (a, b)


_REDUCTION_FIELDS = [
    [-7, 0, 0, 0, 1],
    [-2, 0, -2, 0, 1],
    [-2, 0, 0, 0, 1],
    [-5, 0, 9, 0, 1],
    [-1, -3, 0, 1],
    [1, -2, -1, 1],
    [-9, -1, 0, 1],
]


@pytest.mark.parametrize("coeffs", _REDUCTION_FIELDS, ids=str)
def test_unit_reduction_depends_only_on_the_lattice(coeffs):
    # the reduced basis spans every unit of the search pool, is the same
    # for every order of the pool, and unit_dlog reads back large exponents
    K = build_field(coeffs, ell=2)
    ug = compute_unit_group(K)
    pool = _unit_search_pool(K, ug.rank, Ceilings())
    for u in pool:
        unit_dlog(ug, u)  # raises unless u is zeta^a prod eps_i^b_i exactly
    rng = random.Random(31)
    for _ in range(6):
        assert _reduce_units(K, rng.sample(pool, len(pool)), ug.rank) == ug.fundamental
    # on these powers Euclid's steps drop units that the basis then no
    # longer spans, so the dropped units must be reduced again
    powers = [f**k for k in (5, 3) for f in ug.fundamental]
    assert _reduce_units(K, powers, ug.rank) == ug.fundamental
    for _ in range(10):
        a = rng.randrange(ug.w)
        b = tuple(rng.randint(-40, 40) for _ in ug.fundamental)
        u = ug.zeta**a
        for f, e in zip(ug.fundamental, b):
            u = u * f**e
        assert unit_dlog(ug, u) == (a, b)


@pytest.mark.parametrize("name", ["q", "zeta3", "qi", "qs2", "cubic9", "x4_7x2_13", "rank2"])
def test_unit_dlog_matches_element_oracle(name, request):
    # the unit group keeps each fundamental unit with its inverse and each
    # root of unity's coordinates; unit_dlog on int tuples reads the same
    # exponents as the element path, and rejects what it rejects
    K = request.getfixturevalue(f"field_{name}")
    ug = compute_unit_group(K)
    one = K.one.coords
    assert [c for c, _ in ug.unit_coords] == [f.coords for f in ug.fundamental]
    for f, f_inv in ug.unit_coords:
        assert K.mul_int_coords(f, f_inv) == one
    assert ug.torsion_index == {t.coords: a for a, t in enumerate(ug.torsion_elements())}
    rng = random.Random(23)
    for _ in range(30):
        a = rng.randrange(ug.w)
        b = [rng.randint(-9, 9) for _ in ug.fundamental]
        u = ug.zeta**a
        for f, e in zip(ug.fundamental, b):
            u = u * f**e
        assert ug.times_units(ug.torsion_elements()[a].coords, b) == u.coords
        assert unit_dlog(ug, u) == unit_dlog_by_elements(ug, u) == (a, tuple(b))
    for x in (K.from_int(2), K.element([Fraction(1, 2)] + [0] * (K.degree - 1))):
        for dlog in (unit_dlog, unit_dlog_by_elements):
            with pytest.raises(ValueError):
                dlog(ug, x)


def test_unit_coset_reps_counts(field_q, field_qi, field_qm5, field_cubic9, field_zeta3):
    for K, expected in (
        (field_q, 2),
        (field_qi, 2),
        (field_qm5, 2),
        (field_cubic9, 4),
    ):
        ug = compute_unit_group(K)
        reps = unit_coset_reps(ug, 2)
        assert len(reps) == expected == 2 ** (K.r1 + K.r2)
        assert any(r.is_one() for r in reps)
    reps3 = unit_coset_reps(compute_unit_group(field_zeta3), 3)
    assert len(reps3) == 3
    zl, _ = compute_unit_group(field_zeta3).zeta_ell_part(3)
    assert {r.coords for r in reps3} == {(1, 0), zl.coords, (zl * zl).coords}


def test_unit_coset_reps_gaussian_is_one_i(field_qi):
    reps = unit_coset_reps(compute_unit_group(field_qi), 2)
    assert {r.coords for r in reps} == {(1, 0), (0, 1)}


def test_unit_coset_requires_zeta(field_qs2):
    with pytest.raises(MissingRootOfUnityError):
        unit_coset_reps(compute_unit_group(field_qs2), 3)


def test_coset_ratios_never_powers(field_cubic9):
    ug = compute_unit_group(field_cubic9)
    reps = unit_coset_reps(ug, 2)
    u1 = ug.fundamental[0]
    small_units = []
    for a in range(2):
        for k in range(-3, 4):
            small_units.append((ug.zeta**a) * (u1**k))
    for i, ri in enumerate(reps):
        for j, rj in enumerate(reps):
            if i == j:
                continue
            ratio = ri / rj
            assert not any((v * v).coords == ratio.coords for v in small_units)


def test_class_groups_trivial(field_q, field_qi, field_qs2, field_zeta3):
    for K in (field_q, field_qi, field_qs2, field_zeta3):
        cg = compute_class_group(K)
        assert cg.h == 1
        assert cg.group.divisor_chain() == []


def test_class_group_qm5(field_qm5):
    cg = compute_class_group(field_qm5)
    assert cg.h == 2
    assert cg.group.divisor_chain() == [2]
    p2 = split_prime(field_qm5, 2)[0]
    assert cg.class_of_prime(p2) == 1
    assert cg.index_of(ideal_from_element(field_qm5.from_int(2))) == 0
    assert cg.index_of(p2.ideal) == 1
    # [p2]^2 = [(2)] = identity
    assert cg.index_of(FactoredIdeal(field_qm5, {p2: 2})) == 0


def test_class_homomorphism_random(field_qm5):
    cg = compute_class_group(field_qm5)
    K = field_qm5
    rng = random.Random(23)
    primes = [q for p in (2, 3, 7, 11, 13) for q in split_prime(K, p)]
    for _ in range(30):
        qa, qb = rng.choice(primes), rng.choice(primes)
        ea, eb = rng.randint(-3, 3), rng.randint(-3, 3)
        a = FactoredIdeal(K, {qa: ea})
        b = FactoredIdeal(K, {qb: eb})
        assert cg.index_of(a * b) == cg.group.op(cg.index_of(a), cg.index_of(b))


def test_class_group_cubic9(field_cubic9):
    cg = compute_class_group(field_cubic9)
    # census result; the analytic class number formula cross-check lives in
    # the zeta tests (residue vs 2^r1 (2pi)^r2 hR / (w sqrt|d|))
    assert cg.h == 2
    assert cg.group.divisor_chain() == [2]
    # self-consistency: representatives round-trip and the table is a group
    for i, rep in enumerate(cg.reps):
        assert cg.index_of(rep) == i
    assert cg.h == len(cg.reps)
    K = field_cubic9
    # the norm-3 prime containing theta - 2 is principal; inert (2) too
    q = next(q for q in split_prime(K, 3) if lattice_contains(q.ideal.hnf, [-2, 1, 0]))
    assert cg.class_of_prime(q) == 0
    assert cg.class_of_prime(split_prime(K, 2)[0]) == 0
    # the three norm-3 classes multiply to the principal class
    three = [cg.class_of_prime(q) for q in split_prime(K, 3)]
    assert sum(three) % 2 == 0 and sorted(three) == [0, 1, 1]


def test_ell_free_representative(field_qm5):
    cg = compute_class_group(field_qm5)
    rep = cg.ell_free_representative(1, 2)
    (q,) = rep.support()
    assert q.p == 3  # the prime over 2 is in the class but not coprime to 2
    assert cg.index_of(rep) == 1
    assert cg.ell_free_representative(0, 2).is_unit_ideal()


def test_ell_free_representative_honours_search_ceiling():
    # a fresh Q(sqrt(-5)): the class-1 representative lies over p = 3, past
    # a search of the rational primes up to 2 (and 2 itself is not coprime)
    K = build_field([5, 0, 1], ell=2, label="qm5-fresh")
    cg = compute_class_group(K)
    with pytest.raises(CeilingError):
        cg.ell_free_representative(1, 2, Ceilings(search_points=2))
    (q,) = cg.ell_free_representative(1, 2, Ceilings(search_points=3)).support()
    assert q.p == 3
    with pytest.raises(ValueError):
        cg.ell_free_representative(2, 2)


def test_class_of_prime_honours_search_ceiling():
    # a fresh cubic-9: a prime outside the census needs a lattice search,
    # which must see the caller's search_points; census primes are cached
    K = build_field([-9, -1, 0, 1], ell=2, label="cubic-9")
    cg = compute_class_group(K)
    tiny = Ceilings(search_points=1)
    q59 = min(q for q in primes_of_norm_up_to(K, 59) if q.norm == 59)
    assert q59 not in cg.prime_class
    with pytest.raises(CeilingError):
        cg.class_of_prime(q59, tiny)
    with pytest.raises(CeilingError):
        cg.index_of(FactoredIdeal(K, {q59: 1}), tiny)
    for q, cls in list(cg.prime_class.items()):
        assert cg.class_of_prime(q, tiny) == cls
    assert cg.class_of_prime(q59) in (0, 1)  # the failed search cached nothing


@pytest.mark.parametrize("coeffs", [[0, 1], [1, 0, 1]], ids=["q", "qi"])
def test_index_of_is_zero_when_h_is_one(coeffs):
    # h = 1: every ideal lies in class 0, so index_of looks up no prime,
    # even primes outside the census under a one-point search ceiling
    K = build_field(coeffs, ell=2)
    cg = compute_class_group(K)
    assert cg.h == 1
    pool = sorted(primes_of_norm_up_to(K, 5000))
    rng = random.Random(17)
    tiny = Ceilings(search_points=1)
    for _ in range(40):
        picks = rng.sample(pool, rng.randint(1, 4))
        fa = FactoredIdeal(K, {q: rng.choice([-3, -2, -1, 1, 2, 3]) for q in picks})
        assert cg.index_of(fa) == 0
        assert cg.index_of(fa, tiny) == 0
        num, den = fa.num_den()
        assert cg.index_of(num, tiny) == 0


def test_count_check_over_q_looks_up_no_class(monkeypatch):
    # h = 1 over Q: the ell-free walk puts every pool prime in class 0 and
    # the degree-1 generator is N(fa), so nothing reads a prime's class
    calls = []
    lookup = ClassGroup.class_of_prime
    monkeypatch.setattr(
        ClassGroup, "class_of_prime", lambda cg, *a: calls.append(a) or lookup(cg, *a)
    )
    K = build_field([0, 1], ell=2, label="Q-fresh")
    check = run_count_asymptotic_check(K, 2000, prime_bound=1000)
    assert check.count > 0 and check.identity == 1
    assert calls == []


def test_imaginary_quadratic_class_of_prime_honours_search_ceiling():
    # a fresh Q(sqrt(-5)): the reduced form of a prime of norm 10007
    # reads 2 basis vectors, past a ceiling of one point
    K = build_field([5, 0, 1], ell=2, label="qm5-fresh")
    cg = compute_class_group(K)
    q = min(split_prime(K, 10007))
    assert q.norm == 10007 and q not in cg.prime_class
    with pytest.raises(CeilingError):
        cg.class_of_prime(q, Ceilings(search_points=1))
    assert q not in cg.prime_class  # the failed search cached nothing
    assert cg.class_of_prime(q) in (0, 1)


def _brute_ell_free_ideals(cg, pool, bound, ell, radical):
    """Every subset of the pool with every exponent choice, filtered by its
    charge, each class taken from index_of."""
    K = cg.field
    out = []
    for r in range(len(pool) + 1):
        for subset in itertools.combinations(pool, r):
            if math.prod(q.norm for q in subset) > bound:
                continue
            for exps in itertools.product(range(1, ell), repeat=r):
                charge = math.prod(
                    q.norm if radical else q.norm**a for q, a in zip(subset, exps)
                )
                if charge <= bound:
                    support = tuple(zip(subset, exps))
                    out.append((support, cg.index_of(FactoredIdeal(K, dict(support)))))
    return out


@pytest.mark.parametrize("radical", [False, True], ids=["norm", "radical"])
@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("name, bound", [("qm5", 40), ("cubic9", 30)])
def test_ell_free_ideals_match_brute_force(name, bound, ell, radical, request):
    K = request.getfixturevalue(f"field_{name}")
    cg = compute_class_group(K)
    assert cg.h == 2
    pool = list(primes_of_norm_up_to(K, bound))  # by p, not by norm
    if radical:
        walked = list(cg.ell_free_ideals(pool, bound, ell))
    else:  # the census oracles' filter of the radical walk by N(I)
        walked = list(ell_free_ideals_of_norm_up_to(cg, bound, ell))
    assert walked[0] == ((), 0)
    by_norm = sorted(pool, key=lambda q: q.sort_key())
    brute = _brute_ell_free_ideals(cg, by_norm, bound, ell, radical)
    assert sorted(walked, key=repr) == sorted(brute, key=repr)
    assert len(set(s for s, _ in walked)) == len(walked)
    assert {c for _, c in walked} == {0, 1}


def test_class_number_fresh_qm5():
    K = build_field([5, 0, 1], ell=2, label="qm5-fresh")
    assert compute_class_group(K).h == 2


@pytest.mark.parametrize(
    "coeffs, ell, lookups, reps, classes",
    [
        (
            [-9, -1, 0, 1], 2, 7, [{}, {"3,1,1,0": 1}],
            {"2,3,1": 0, "3,1,1,0": 1, "3,1,1,1": 0, "3,1,1,2": 1, "5,1,1": 1, "11,1,1": 1},
        ),
        ([5, 0, 1], 2, 3, [{}, {"2,1,2": 1}], {"2,1,2": 1}),
        (
            [13, 0, 7, 0, 1], 3, 4, [{}, {"3,1,2,0": 1}],
            {"2,2,2": 1, "3,1,2,0": 1, "3,1,2,1": 1},
        ),
    ],
    ids=["cubic9", "qm5", "x4_7x2_13"],
)
def test_census_tests_each_product_once(coeffs, ell, lookups, reps, classes, monkeypatch):
    # a fresh census looks up each census prime once and each product of
    # nontrivial representatives reps[i] reps[j], i <= j, once; products
    # with reps[0] need no lookup.  Representatives and classes are pinned.
    # A lookup is a principal test (_find_class), or in Q(sqrt(-5)) one
    # reduction (_reduced_basis), which also seeds the unit ideal's form.
    calls = []
    find = class_unit._find_class
    monkeypatch.setattr(class_unit, "_find_class", lambda *a: calls.append(a) or find(*a))
    reduce = class_unit._reduced_basis
    monkeypatch.setattr(class_unit, "_reduced_basis", lambda *a: calls.append(a) or reduce(*a))
    cg = compute_class_group(build_field(coeffs, ell=ell))
    assert len(calls) == lookups
    assert [{q.label(): e for q, e in r.exps.items()} for r in cg.reps] == reps
    assert {q.label(): c for q, c in cg.prime_class.items()} == classes
    assert {k: v[0] for k, v in cg.products.items()} == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}


def test_class_census_honours_search_ceiling():
    # a fresh cubic-9: its census runs lattice searches, which must see the
    # caller's search_points
    K = build_field([-9, -1, 0, 1], ell=2, label="cubic-9")
    tiny = Ceilings(search_points=1)
    with pytest.raises(CeilingError):
        compute_class_group(K, tiny)
    # fresh imaginary quadratic fields with census primes: each lookup
    # charges its 2 reduced basis vectors, and a failed census caches nothing
    for coeffs, h in [([5, 0, 1], 2), ([71, 1, 1], 3)]:
        K = build_field(coeffs, ell=2, label="fresh")
        with pytest.raises(CeilingError):
            compute_class_group(K, tiny)
        assert K._class_group is None
        assert compute_class_group(K).h == h
    # Q(i) and Q(zeta3) have no prime under the Minkowski bound
    for coeffs in ([1, 0, 1], [1, 1, 1]):
        assert compute_class_group(build_field(coeffs, ell=2, label="fresh"), tiny).h == 1


# ---------------------------------------------------------------------------
# Minkowski relations for primes above the census
# ---------------------------------------------------------------------------


def _principal_factored(K, g, den):
    """The fractional ideal (g)/den, factored."""
    out = factor_ideal(ideal_from_element(K.element(g)))
    for p, e in factorint(den).items():
        out = out * FactoredIdeal(K, {r: -r.e * e for r in split_prime(K, p)})
    return out


def _check_relation(cg, q):
    # the relation's class is the search's, and its generator g/den
    # generates q reps[k]^-1 exactly
    K = cg.field
    k, (g, den) = cg._relation(q, None)
    fa = FactoredIdeal(K, {q: 1})
    assert k == class_unit._find_class(fa, cg.reps, cg.units, None)[0], q
    assert _principal_factored(K, g, den) == fa * cg.reps[k].inverse(), q


@pytest.mark.parametrize(
    "coeffs, ell, h, bound",
    [
        ([-9, -1, 0, 1], 2, 2, 700),
        ([-2, 0, 1], 2, 1, 1000),
        ([-10, 0, 1], 2, 2, 1000),
        ([-79, 0, 1], 2, 3, 1000),
        ([13, 0, 7, 0, 1], 3, 2, 700),
        ([1, -2, -1, 1], 2, 1, 700),
    ],
    ids=["cubic9", "qs2", "q10", "q79", "x4_7x2_13", "rank2"],
)
def test_relation_matches_search(coeffs, ell, h, bound):
    # every prime above the census up to the bound, against the search
    K = build_field(coeffs, ell=ell)
    cg = compute_class_group(K)
    assert cg.h == h
    above = [q for q in primes_of_norm_up_to(K, bound) if q.norm > K.minkowski_bound()]
    assert len(above) > 60
    for q in above:
        _check_relation(cg, q)


def test_relation_minkowski_ball(field_cubic9, monkeypatch):
    # with q's basis left unreduced, no HNF column of a prime over a large
    # p has a small enough norm, so the relation enumerates the Minkowski
    # ball; its points count against search_points
    cg = compute_class_group(field_cubic9)
    monkeypatch.setattr(class_unit, "_lll_reduce", lambda cols, embed: cols)
    balls = []
    enumerate_ball = NumberField.short_vectors
    monkeypatch.setattr(
        NumberField, "short_vectors", lambda K, *a: balls.append(a) or enumerate_ball(K, *a)
    )
    primes = [q for q in primes_of_norm_up_to(field_cubic9, 400) if q.p > 200]
    fired = 0
    for q in primes:
        before = len(balls)
        cg._relation(q, None)
        fired += len(balls) > before
        _check_relation(cg, q)
    assert (len(primes), fired) == (27, 25)
    q = primes[-1]
    with pytest.raises(CeilingError):
        cg._relation(q, Ceilings(search_points=4))


def test_no_search_for_primes_above_the_census(monkeypatch):
    # after set-up on a fresh cubic-9 the enumeration's class lookups take
    # relations, with no principal-ideal search
    K = build_field([-9, -1, 0, 1], ell=2, label="cubic-9-fresh")
    cg = compute_class_group(K)
    census = dict(cg.prime_class)
    calls = []
    for module in (class_unit, ideals):
        search = module.norm_matches
        monkeypatch.setattr(
            module, "norm_matches", lambda *a, search=search: calls.append(a) or search(*a)
        )
    assert enumerate_extensions(K, 2, 36)
    assert calls == []
    assert len(cg.prime_class) > len(census)


def test_imaginary_quadratic_lookup_runs_no_principal_test(monkeypatch):
    # the census of a fresh Q(sqrt(-5)) and a new prime's lookup read
    # reduced forms, with no principal test and no relation; fresh censuses
    # and enumerations over Q(i), Q(sqrt(-5)) and Q(zeta3) look up primes
    # with no norm_matches call
    calls = []
    for module in (class_unit, ideals):
        search = module.norm_matches
        monkeypatch.setattr(
            module, "norm_matches", lambda *a, search=search: calls.append(a) or search(*a)
        )
    find = class_unit._find_class
    monkeypatch.setattr(class_unit, "_find_class", lambda *a: calls.append(a) or find(*a))
    relation = ClassGroup._relation
    monkeypatch.setattr(ClassGroup, "_relation", lambda *a: calls.append(a) or relation(*a))
    K = build_field([5, 0, 1], ell=2, label="qm5-fresh")
    cg = compute_class_group(K)
    assert calls == []
    q = min(split_prime(K, 10007))
    assert q not in cg.prime_class
    assert cg.class_of_prime(q) in (0, 1)
    assert calls == []
    for coeffs, ell, bound in [([1, 0, 1], 2, 3000), ([5, 0, 1], 2, 3000), ([1, 1, 1], 3, 10**5)]:
        K = build_field(coeffs, ell=ell, label="fresh")
        cg = compute_class_group(K)
        census = dict(cg.prime_class)
        assert calls == [], coeffs
        assert enumerate_extensions(K, ell, bound)
        assert calls == [], coeffs
        assert len(cg.prime_class) > len(census), coeffs


def test_class_of_prime_over_q_is_p(field_q):
    # over Q every prime is (p) = (p) reps[0], as the census search finds
    cg = compute_class_group(field_q)
    for q in primes_of_norm_up_to(field_q, 200):
        fa = FactoredIdeal(field_q, {q: 1})
        assert cg.class_of_prime(q, Ceilings(search_points=1)) == 0
        assert cg.prime_gen[q] == class_unit._find_class(fa, cg.reps, cg.units, None)[1]


# fields for the reduced-form lookup against the census search: x^2+x+4
# puts 226 of its primes on the form (2, 1, 2), A = C
_IMAG_QUADRATIC = [
    ([1, 0, 1], 1), ([5, 0, 1], 2), ([1, 1, 1], 1), ([4, 1, 1], 2),
    ([14, 0, 1], 4), ([71, 1, 1], 3), ([26, 0, 1], 6),
]


@pytest.mark.parametrize(
    "coeffs, h", _IMAG_QUADRATIC, ids=["qi", "qm5", "zeta3", "qm15", "qm14", "qm283", "qm26"]
)
def test_reduced_form_class_matches_search(coeffs, h):
    # every prime up to norm 3000, census primes included: the reduced
    # form's class is the search's, its generator differs from the
    # search's by a root of unity, and g/den generates q reps[k]^-1 exactly
    K = build_field(coeffs, ell=2)
    cg = compute_class_group(K)
    assert cg.h == h
    primes = list(primes_of_norm_up_to(K, 3000))
    assert len(primes) > 400
    for q in primes:
        fa = FactoredIdeal(K, {q: 1})
        k, (g, den) = cg._reduced_form_class(q, None)
        want, (g0, den0) = class_unit._find_class(fa, cg.reps, cg.units, None)
        assert k == want, q
        ratio = K.element([Fraction(c, den) for c in g]) / K.element([Fraction(c, den0) for c in g0])
        assert ratio in cg.units.torsion_elements(), q
        assert _principal_factored(K, g, den) == fa * cg.reps[k].inverse(), q
    assert len(cg._forms) == h


@pytest.mark.parametrize(
    "coeffs, h", _IMAG_QUADRATIC, ids=["qi", "qm5", "zeta3", "qm15", "qm14", "qm283", "qm26"]
)
def test_form_census_matches_search_census(coeffs, h):
    # the census read from reduced forms against the census of principal
    # tests: the same representatives, prime classes and times table, and
    # every stored generator the search's times a root of unity, generating
    # its ideal exactly
    K = build_field(coeffs, ell=2)
    cg = compute_class_group(K)
    reps, prime_class, prime_gen, products = class_census_by_search(K)
    assert cg.h == len(reps) == h
    assert cg.reps == reps
    assert cg.prime_class == prime_class
    assert {key: v[0] for key, v in cg.products.items()} == {key: v[0] for key, v in products.items()}
    ideals_of = {q: FactoredIdeal(K, {q: 1}) for q in prime_class}
    ideals_of.update({(i, j): reps[i] * reps[j] for i, j in products})
    pairs = [(q, prime_class[q], cg.prime_gen[q], prime_gen[q]) for q in prime_class]
    pairs += [(key, k, cg.products[key][1], g) for key, (k, g) in products.items()]
    assert len(pairs) == len(prime_class) + h * h and bool(prime_class) == (h > 1)
    for key, k, (g, den), (g0, den0) in pairs:
        ratio = K.element([Fraction(c, den) for c in g]) / K.element([Fraction(c, den0) for c in g0])
        assert ratio in cg.units.torsion_elements(), key
        assert _principal_factored(K, g, den) == ideals_of[key] * reps[k].inverse(), key


def test_power_subgroup_indices(field_qm5):
    cg = compute_class_group(field_qm5)
    assert cg.power_subgroup_indices(2) == [0]
    assert cg.power_subgroup_indices(1) == [0, 1]


# ---------------------------------------------------------------------------
# composed generators
# ---------------------------------------------------------------------------


def _integral_ideals_up_to(K, bound):
    """Every integral FactoredIdeal of norm <= bound."""
    pool = sorted(primes_of_norm_up_to(K, bound))
    out = []

    def walk(j, exps, norm):
        out.append(FactoredIdeal(K, exps))
        for k in range(j, len(pool)):
            q = pool[k]
            if norm * q.norm > bound:
                break
            e, n = 1, norm * q.norm
            while n <= bound:
                walk(k + 1, {**exps, q: e}, n)
                e, n = e + 1, n * q.norm

    walk(0, {}, 1)
    return out


def _generator_or_none(cg, fa):
    try:
        return cg.generator(fa)
    except NotPrincipalError:
        return None


def _differential_cases(K, bound):
    """Every integral ideal of norm <= bound and 40 seeded fractional ones,
    some of them holding every prime over one split p."""
    cases = _integral_ideals_up_to(K, bound)
    pool = sorted(primes_of_norm_up_to(K, 50))
    shared = [q for q in pool if len(split_prime(K, q.p)) > 1]
    rng = random.Random(29)
    fractional = 0
    while fractional < 40:
        picks = rng.sample(pool, rng.randint(1, 3))
        if fractional % 4 == 0 and shared:
            picks = sorted({*picks, *split_prime(K, rng.choice(shared).p)})
        fa = FactoredIdeal(K, {q: rng.choice([-2, -1, 1, 2]) for q in picks})
        if not fa.is_integral():
            cases.append(fa)
            fractional += 1
    return cases


_RANK_ZERO = ["q", "qi", "qm5", "zeta3"]
_RANK_POSITIVE = ["qs2", "q10", "cubic9", "x4_7x2_13", "rank2"]


@pytest.mark.parametrize("name", _RANK_ZERO + _RANK_POSITIVE)
def test_composed_generator_matches_search(name, request):
    # the product of stored generators, brought to the least torsion
    # multiple (unit rank 0) or reduced modulo units (rank >= 1), must be
    # the element the generator search picks, on every integral ideal of
    # norm <= 400 (rank 0) or 300 (rank >= 1) and on seeded fractional
    # ideals; non-principal ideals (h = 2) give None on both sides
    K = request.getfixturevalue(f"field_{name}")
    cg = compute_class_group(K)
    units = cg.units.fundamental
    verdicts = set()
    for fa in _differential_cases(K, 400 if name in _RANK_ZERO else 300):
        want = principal_test_generator(fa, units)
        assert _generator_or_none(cg, fa) == want, fa
        verdicts.add(want is None)
    assert verdicts == ({False, True} if cg.h > 1 else {False})


@pytest.mark.parametrize("name", _RANK_POSITIVE)
def test_embedding_prescreen_matches_full_ranking(name, request):
    # the float pre-screen of _embedding_ranked hands the mpmath ranking
    # only the matches near the least max |sigma|; on every match set of
    # the differential test the choice equals the ranking of all matches
    K = request.getfixturevalue(f"field_{name}")
    units = compute_unit_group(K).fundamental
    screened = 0
    for fa in _differential_cases(K, 300):
        num, _den = fa.num_den()
        matches = ideals.norm_matches(num, units) if not num.is_one() else []
        if matches:
            full = ideals._mpmath_ranked(K, matches)
            assert ideals._embedding_ranked(K, matches) == full, fa
            screened += len(matches) > 1
    assert screened


@pytest.mark.parametrize(
    "coeffs, ell",
    [
        ([1, 0, 1], 2),
        ([5, 0, 1], 2),
        ([1, 1, 1], 3),
        ([-2, 0, 1], 2),
        ([-9, -1, 0, 1], 2),
        ([13, 0, 7, 0, 1], 3),
        ([1, -2, -1, 1], 2),
    ],
    ids=["qi", "qm5", "zeta3", "qs2", "cubic9", "x4_7x2_13", "rank2"],
)
def test_generator_does_not_depend_on_stored_generators(coeffs, ell):
    # the class lookups store whichever generator their search meets first;
    # replacing every stored generator by a seeded unit multiple
    # zeta^a eps^b (|b_j| <= 2) must leave every composed generator as is
    K = build_field(coeffs, ell=ell)
    cg = compute_class_group(K)
    cases = _differential_cases(K, 100)
    want = [_generator_or_none(cg, fa) for fa in cases]  # stores every prime used
    ug, rng = cg.units, random.Random(31)

    def twist(g):
        u = ug.torsion_elements()[rng.randrange(ug.w)]
        for eps in ug.fundamental:
            u = u * eps ** rng.randint(-2, 2)
        coords, den = g
        return tuple(K.mul_int_coords(coords, u.int_coords())), den

    before = (dict(cg.prime_gen), dict(cg.products))
    for q, g in cg.prime_gen.items():
        cg.prime_gen[q] = twist(g)
    for key, (k, g) in cg.products.items():
        cg.products[key] = k, twist(g)
    assert (cg.prime_gen, cg.products) != before
    assert [_generator_or_none(cg, fa) for fa in cases] == want


def test_generator_is_canonical_generator_in_positive_rank(field_cubic9):
    cg = compute_class_group(field_cubic9)
    units = cg.units.fundamental
    principal = 0
    for fa in _integral_ideals_up_to(field_cubic9, 60):
        want = principal_test_generator(fa, units)
        if want is not None:
            principal += 1
            assert cg.generator(fa) == canonical_generator(fa, units) == want, fa
        else:
            with pytest.raises(NotPrincipalError):
                cg.generator(fa)
    assert principal


def test_composed_generator_honours_search_ceiling_in_positive_rank():
    # a fresh cubic-9 (unit rank 1): composing (59) = q q'^2 looks up the
    # classes and generators of q and q' with lattice searches past a
    # ceiling of one point; once they are stored, the reduction modulo
    # units counts its box points against the same ceiling
    K = build_field([-9, -1, 0, 1], ell=2, label="cubic-9-fresh")
    cg = compute_class_group(K)
    q, q_sq = split_prime(K, 59)
    fa = FactoredIdeal(K, {q: q.e, q_sq: q_sq.e})
    tiny = Ceilings(search_points=1)
    with pytest.raises(CeilingError):
        cg.generator(fa, tiny)
    for prime in (q, q_sq):  # the failed search cached nothing
        assert prime not in cg.prime_class and prime not in cg.prime_gen
    assert cg.generator(fa) == K.from_int(59)
    assert q in cg.prime_gen and q_sq in cg.prime_gen
    with pytest.raises(CeilingError):
        cg.generator(fa * fa, tiny)
    assert cg.generator(fa * fa) == K.from_int(59**2)


def test_composed_generator_honours_search_ceiling():
    # a fresh Q(sqrt(-5)): composing (10007) = q q' looks up the class and
    # generator of q from its reduced form, past a ceiling of one point
    K = build_field([5, 0, 1], ell=2, label="qm5-fresh")
    cg = compute_class_group(K)
    q, q_bar = split_prime(K, 10007)
    fa = FactoredIdeal(K, {q: 1, q_bar: 1})
    with pytest.raises(CeilingError):
        cg.generator(fa, Ceilings(search_points=1))
    for prime in (q, q_bar):  # the failed search cached nothing
        assert prime not in cg.prime_class and prime not in cg.prime_gen
    assert cg.generator(fa) == K.from_int(10007)
    assert q in cg.prime_gen and q_bar in cg.prime_gen
