"""Residue unit groups, quotients by powers, power classes, product tallies."""

import itertools
import random

import pytest

from nfk.abelian_groups import (
    abelian_group_from_divisors,
    is_power_class,
    product_distribution_check,
    unit_group_mod_ideal,
)
from nfk.errors import CeilingError
from nfk.config import Ceilings
from nfk.ideals import ideal_from_element, ideal_mul, split_prime
from oracles import mod_powers_projection


def test_classical_rational_unit_groups(field_q):
    K = field_q
    cases = {
        8: [2, 2],
        12: [2, 2],
        7: [6],
        9: [6],
        15: [2, 4],
        16: [2, 4],
        24: [2, 2, 2],
    }
    for m, chain in cases.items():
        g = unit_group_mod_ideal(K, ideal_from_element(K.from_int(m)))
        assert g.group.divisor_chain() == chain, m


def test_gaussian_unit_groups(field_qi):
    K = field_qi
    q2 = split_prime(K, 2)[0]
    # (O/(1+i)^3)^*: phi = N(q^3) - N(q^2) = 4, and i generates it
    g3 = unit_group_mod_ideal(K, q2.power(3))
    assert g3.order == 4
    assert g3.group.divisor_chain() == [4]
    i_key = g3.image(K.theta)
    assert g3.group.element_order(i_key) == 4
    # (O/4)^*: order 8, Z/4 x Z/2
    g4 = unit_group_mod_ideal(K, ideal_from_element(K.from_int(4)))
    assert g4.order == 8
    assert g4.group.divisor_chain() == [2, 4]


def test_cubic_mod_four(field_cubic9):
    K = field_cubic9
    g = unit_group_mod_ideal(K, ideal_from_element(K.from_int(4)))
    assert g.order == 56
    assert g.group.divisor_chain() == [2, 2, 14]


def test_order_formula_random_moduli(field_qi, field_qm5):
    rng = random.Random(3)
    for K in (field_qi, field_qm5):
        for _ in range(6):
            m = ideal_from_element(K.one)
            for p in rng.sample([2, 3, 5, 7], 2):
                q = rng.choice(split_prime(K, p))
                m = ideal_mul(m, q.power(rng.randint(1, 2)))
            if m.norm() > 4000:
                continue
            g = unit_group_mod_ideal(K, m)
            from nfk.ideals import factor_ideal

            expected = m.norm()
            for q in factor_ideal(m).support():
                expected = expected * (q.norm - 1) // q.norm
            assert g.order == expected


def _exp(g, vec):
    """The element of g with discrete log vec: a product of generator powers."""
    out = g.identity
    for gen, k in zip(g.generators, vec):
        out = g.op(out, g.power(gen, k))
    return out


def test_dlog_roundtrip_and_homomorphism(field_cubic9):
    K = field_cubic9
    g = unit_group_mod_ideal(K, ideal_from_element(K.from_int(4))).group
    rng = random.Random(5)
    elems = g.elements
    for _ in range(60):
        x, y = rng.choice(elems), rng.choice(elems)
        assert _exp(g, g.log(x)) == x
        lx, ly, lxy = g.log(x), g.log(y), g.log(g.op(x, y))
        orders = g.gen_orders
        assert tuple((a + b) % o for a, b, o in zip(lx, ly, orders)) == lxy
    assert g.log(g.identity) == (0,) * len(g.generators)


def test_quotient_by_powers(field_cubic9, field_q):
    K = field_cubic9
    g = unit_group_mod_ideal(K, ideal_from_element(K.from_int(4))).group
    project = mod_powers_projection(g, 2)
    assert {project(x) for x in g.elements} == set(itertools.product(range(2), repeat=3))
    rng = random.Random(9)
    for _ in range(40):
        x, y = rng.choice(g.elements), rng.choice(g.elements)
        px, py = project(x), project(y)
        pxy = project(g.op(x, y))
        assert tuple((a + b) % 2 for a, b in zip(px, py)) == pxy
    # squares are exactly the kernel: 1/8 of the elements project to zero
    zero = tuple([0] * 3)
    kernel = [x for x in g.elements if project(x) == zero]
    assert len(kernel) == g.order // 8
    assert set(kernel) == set(g.power_subgroup(2))
    # cyclic cube quotient: (Z/9)^* is Z/6, cubes leave Z/3
    g9 = unit_group_mod_ideal(field_q, ideal_from_element(field_q.from_int(9))).group
    project9 = mod_powers_projection(g9, 3)
    assert {project9(x) for x in g9.elements} == {(0,), (1,), (2,)}
    # trivial group stays trivial
    g2 = unit_group_mod_ideal(field_q, ideal_from_element(field_q.from_int(2))).group
    assert {mod_powers_projection(g2, 2)(x) for x in g2.elements} == {()}


def test_power_class_rational(field_q):
    K = field_q
    four = ideal_from_element(K.from_int(4))
    two = ideal_from_element(K.from_int(2))
    assert is_power_class(K.from_int(5), four, 2)
    assert not is_power_class(K.from_int(3), four, 2)
    assert is_power_class(K.from_int(3), two, 2)
    for s in (1, 2, 3):
        assert is_power_class(K.one, ideal_from_element(K.from_int(2**s)), 2)


def test_power_class_monotone(field_q, field_qi):
    rng = random.Random(17)
    K = field_q
    q2 = split_prime(K, 2)[0]
    for _ in range(20):
        gamma = K.from_int(rng.randrange(1, 200, 2))
        answers = [is_power_class(gamma, q2.power(s), 2) for s in range(1, 7)]
        for deep, shallow in zip(answers[1:], answers):
            assert not deep or shallow
    # Gaussian: -1 = i^2 is a square mod 4, i is not
    Ki = field_qi
    four = ideal_from_element(Ki.from_int(4))
    assert is_power_class(Ki.element([3, 0]), four, 2)
    assert not is_power_class(Ki.theta, four, 2)


def test_power_class_requires_coprime(field_q):
    K = field_q
    with pytest.raises(ValueError):
        is_power_class(K.from_int(2), ideal_from_element(K.from_int(4)), 2)


def test_product_distribution_examples():
    g = abelian_group_from_divisors([2])
    assert set(product_distribution_check(g, 2).values()) == {2}
    g42 = abelian_group_from_divisors([2, 4])
    assert set(product_distribution_check(g42, 2).values()) == {8}
    g5 = abelian_group_from_divisors([5])
    assert set(product_distribution_check(g5, 3).values()) == {25}


def _abelian_types(order: int):
    """All abelian groups of the given order, as divisor lists per prime."""
    from sympy import factorint as fi

    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or rest[0] <= first:
                    yield (first,) + rest

    per_prime = []
    for p, e in sorted(fi(order).items()):
        per_prime.append([[p**a for a in part] for part in partitions(e)])
    types = [[]]
    for options in per_prime:
        types = [t + opt for t in types for opt in options]
    return types


def test_product_distribution_all_small_groups():
    for order in range(1, 25):
        for divisors in _abelian_types(order):
            g = abelian_group_from_divisors(divisors)
            assert g.order == order
            for n in (2, 3):
                counts = product_distribution_check(g, n)
                assert set(counts.values()) == {order ** (n - 1)}


def test_ceilings(field_q):
    big = abelian_group_from_divisors([3, 3, 3])
    with pytest.raises(CeilingError):
        product_distribution_check(big, 5, Ceilings(tuple_census=10**4))
    with pytest.raises(CeilingError):
        unit_group_mod_ideal(
            field_q, ideal_from_element(field_q.from_int(10**7)), Ceilings(residue_ring=10**6)
        )


def test_structure_engine_on_abstract_groups():
    for divisors, chain in [
        ([6, 2], [2, 6]),
        ([4, 2, 2], [2, 2, 4]),
        ([3, 5], [15]),
        ([2, 3, 4], [2, 12]),
        ([], []),
    ]:
        g = abelian_group_from_divisors(divisors)
        assert g.divisor_chain() == chain
