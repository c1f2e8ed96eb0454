"""Density layer: the wild-exponent table R, per-ell-part densities rho,
the residue/zeta constants, and the two empirical census checks."""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from mpmath.libmp import round_nearest, to_float

from nfk.config import Ceilings
from nfk.density import (
    _euler_products,
    allowed_wild_exponents,
    count_squarefree_ideals_in_class,
    density_report,
    density_report_json_dict,
    enumerate_R,
    generator_equidistribution_test,
    identity_check,
    rho,
    zeta_constants,
)
from nfk.errors import CeilingError, UnrealizableEllPartError
from nfk.ideals import FactoredIdeal, ideal_from_element, split_prime
from nfk.number_field import build_field
from oracles import euler_products_mpf


def _norms(fas):
    return [int(fa.norm()) for fa in fas]


# ---------------------------------------------------------------------------
# the exponent table R
# ---------------------------------------------------------------------------


def test_R_over_q(field_q):
    table = enumerate_R(field_q, 2)
    assert _norms(table) == [1, 4, 8]
    assert table[0].is_unit_ideal()


def test_R_over_ramified_quadratics(field_qi, field_qm5):
    # 2 is totally ramified in both fields, e = 2, so the congruence branch
    # saturates at depth 4 and the exponent sweep is 0, 2, 3, 4 plus the
    # odd-valuation value 5.
    assert _norms(enumerate_R(field_qi, 2)) == [1, 4, 8, 16, 32]
    assert _norms(enumerate_R(field_qm5, 2)) == [1, 4, 8, 16, 32]


def test_R_over_cubic9(field_cubic9):
    # 2 stays inert (norm 8, e = 1): exponents 0, 2, 3.
    assert _norms(enumerate_R(field_cubic9, 2)) == [1, 64, 512]


def test_R_zeta3_at_both_ells(field_zeta3):
    assert _norms(enumerate_R(field_zeta3, 2)) == [1, 16, 64]
    # ell = 3: the prime over 3 has e = 2, saturation depth 3, exponent
    # steps of ell - 1 = 2, and maximal exponent 2 + 3*2 = 8.
    assert _norms(enumerate_R(field_zeta3, 3)) == [1, 81, 729, 6561]


def test_allowed_wild_exponents_qi(field_qi):
    (q,) = split_prime(field_qi, 2)
    assert allowed_wild_exponents(q, 2) == [0, 2, 3, 4, 5]


def test_R_is_deterministic(field_qm5):
    assert enumerate_R(field_qm5, 2) == enumerate_R(field_qm5, 2)


def test_exponent_outside_R_rejected(field_q):
    (q,) = split_prime(field_q, 2)
    with pytest.raises(UnrealizableEllPartError):
        rho(field_q, 2, FactoredIdeal(field_q, {q: 1}))


def test_prime_outside_wild_set_rejected(field_q):
    with pytest.raises(UnrealizableEllPartError):
        rho(field_q, 2, ideal_from_element(field_q.from_int(3)))


# ---------------------------------------------------------------------------
# density tables
# ---------------------------------------------------------------------------


def _rho_table(K, ell):
    return {int(fa.norm()): rho(K, ell, fa) for fa in enumerate_R(K, ell)}


def test_rho_table_q(field_q):
    assert _rho_table(field_q, 2) == {
        1: Fraction(1, 4),
        4: Fraction(1, 4),
        8: Fraction(1, 2),
    }


def test_rho_table_cubic9(field_cubic9):
    # (O/4)^x has 56 units falling 7:42:7 across depths 2:1 with the
    # maximal branch taking the remaining 1/2.
    assert _rho_table(field_cubic9, 2) == {
        1: Fraction(1, 16),
        64: Fraction(7, 16),
        512: Fraction(1, 2),
    }


def test_rho_table_qi_has_a_hole(field_qi):
    # Odd Gaussian squares mod (1+i)^3 are exactly {+-1}, and every unit
    # that is 1 mod 2 is +-1 mod (1+i)^3 as well, so congruence depth 2
    # is unoccupied: exponent 3 sits in R but carries density zero.
    assert _rho_table(field_qi, 2) == {
        1: Fraction(1, 8),
        4: Fraction(1, 8),
        8: Fraction(0),
        16: Fraction(1, 4),
        32: Fraction(1, 2),
    }


def test_rho_table_qm5(field_qm5):
    assert _rho_table(field_qm5, 2) == {
        1: Fraction(1, 8),
        4: Fraction(1, 8),
        8: Fraction(0),
        16: Fraction(1, 4),
        32: Fraction(1, 2),
    }


def test_rho_table_zeta3_ell3(field_zeta3):
    assert _rho_table(field_zeta3, 3) == {
        1: Fraction(1, 27),
        81: Fraction(2, 27),
        729: Fraction(2, 9),
        6561: Fraction(2, 3),
    }


def test_rho_sums_to_one_everywhere(field_q, field_qi, field_qm5, field_cubic9, field_zeta3):
    cases = [
        (field_q, 2),
        (field_qi, 2),
        (field_qm5, 2),
        (field_cubic9, 2),
        (field_zeta3, 2),
        (field_zeta3, 3),
    ]
    for K, ell in cases:
        assert sum(_rho_table(K, ell).values()) == Fraction(1), (K.label, ell)


# ---------------------------------------------------------------------------
# reports and the residue identity
# ---------------------------------------------------------------------------


def test_report_json_q(field_q):
    rep = density_report(field_q, 2)
    assert density_report_json_dict(rep) == {
        "field": "Q",
        "ell": 2,
        "rows": [
            {"Q_norm": "1", "rho": "1/4"},
            {"Q_norm": "4", "rho": "1/4"},
            {"Q_norm": "8", "rho": "1/2"},
        ],
        "identity": "1",
        "identity_expected": "1",
    }


def test_report_drops_density_zero_rows(field_qi):
    rep = density_report(field_qi, 2)
    assert [r[1] for r in rep.rows] == [1, 4, 16, 32]
    assert all(0 < r[2] <= 1 for r in rep.rows)
    assert sum(r[2] for r in rep.rows) == Fraction(1)


def test_report_rho_by_norm(field_qm5):
    rep = density_report(field_qm5, 2)
    assert rep.rho_by_norm() == {r[1]: r[2] for r in rep.rows}


def test_rho_by_norm_sums_rows_of_equal_norm():
    # x^4 + 7x^2 + 13 at ell = 3: 16 rows share 8 norms
    K = build_field([13, 0, 7, 0, 1], ell=3)
    rep = density_report(K, 3)
    by_norm = rep.rho_by_norm()
    assert (len(rep.rows), len(by_norm)) == (16, 8)
    assert sum(by_norm.values()) == Fraction(1)


def test_report_identity_only_at_ell_2(field_zeta3):
    rep = density_report(field_zeta3, 3)
    assert rep.identity is None and rep.identity_expected is None
    assert "identity" not in density_report_json_dict(rep)


def test_identity_check_exact(field_q, field_qi, field_qm5, field_cubic9):
    assert identity_check(field_q) == Fraction(1)
    assert identity_check(field_qi) == Fraction(1, 2)
    assert identity_check(field_qm5) == Fraction(1, 2)
    assert identity_check(field_cubic9) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# zeta constants
# ---------------------------------------------------------------------------


def test_zeta_constants_over_q(field_q):
    zc = zeta_constants(field_q)
    assert zc.residue == 1.0
    assert abs(zc.zeta_at_2 - math.pi**2 / 6) < 1e-12
    assert zc.zeta_at_ell == zc.zeta_at_2
    assert zc.tail_bound == 0.0


def test_zeta_constants_qi(field_qi):
    zc = zeta_constants(field_qi)
    # 2 pi h R / (w sqrt |d|) = 2 pi / (4 * 2) exactly.
    assert abs(zc.residue - math.pi / 4) < 1e-12
    assert zc.zeta_at_2 == pytest.approx(1.506701804188576, abs=1e-12)
    assert zc.tail_bound == pytest.approx(2e-5)


def test_zeta_constants_qm5(field_qm5):
    zc = zeta_constants(field_qm5)
    # h = 2 and sqrt|d| = sqrt 20 give 2 pi * 2 / (2 * 2 sqrt 5).
    assert abs(zc.residue - math.pi / math.sqrt(5)) < 1e-9


def test_zeta_constants_cubic9_certify_class_number(field_cubic9):
    zc = zeta_constants(field_cubic9, prime_bound=10**4)
    assert zc.residue == pytest.approx(1.0837564480584612, abs=1e-9)
    # The analytic class number formula scales linearly in h: were h = 1
    # the residue would land near 0.54, so this window pins h = 2.
    assert 0.9 < zc.residue < 1.3


def test_zeta_precision_check_is_opt_in(field_q, field_qi):
    with pytest.raises(ValueError, match="relative precision"):
        zeta_constants(field_qi, precision=1e-6, prime_bound=100)
    # Degree one routes through the exact zeta, so any precision is fine.
    zc = zeta_constants(field_q, precision=1e-12, prime_bound=100)
    assert zc.tail_bound == 0.0


def test_zeta_constants_cached(field_qi):
    assert zeta_constants(field_qi) is zeta_constants(field_qi)


@pytest.mark.parametrize(
    "coeffs, ell",
    [
        pytest.param([1, 0, 1], 2, id="qi"),
        pytest.param([-9, -1, 0, 1], 2, id="cubic9"),
        pytest.param([-9, -1, 0, 1], 3, id="cubic9-ell3"),
    ],
)
def test_euler_products_match_split_prime_oracle(coeffs, ell):
    # a fresh field, so that the Euler products see an empty prime cache
    K = build_field(coeffs, ell=2)
    zc = zeta_constants(K, ell=ell, prime_bound=2000)
    with mpmath.workprec(80):
        z2 = mpmath.mpf(1)
        zl = mpmath.mpf(1)
        for p in sympy.primerange(2, 2001):
            for q in split_prime(K, p):
                z2 /= 1 - mpmath.mpf(q.norm) ** -2
                zl /= 1 - mpmath.mpf(q.norm) ** -ell
        assert zc.zeta_at_2 == float(z2)
        assert zc.zeta_at_ell == float(zl)


@pytest.mark.parametrize(
    "coeffs, ell", [pytest.param([1, 0, 1], 2, id="qi"), pytest.param([1, 1, 1], 3, id="zeta3")]
)
def test_euler_products_bit_identical_to_mpf_operators(coeffs, ell):
    # _euler_products runs the mpf operators' libmp calls directly; the raw
    # 80-bit values and the floats zeta_constants reports stay bit for bit
    K = build_field(coeffs, ell=ell)
    want = euler_products_mpf(K, ell, 10**5)
    assert _euler_products(K, ell, 10**5) == want
    zc = zeta_constants(K, ell=ell, prime_bound=10**5)
    z2, zl = (to_float(z, rnd=round_nearest) for z in want)
    assert (zc.zeta_at_2, zc.zeta_at_ell) == (z2, zl)


def test_zeta_constants_caches_no_prime_above_1000():
    K = build_field([1, 0, 1], ell=2, label="Q(i)")
    zeta_constants(K)
    assert all(p <= 1000 for p in K._prime_cache)


# ---------------------------------------------------------------------------
# squarefree censuses against the leading term
# ---------------------------------------------------------------------------


def test_census_odd_squarefree_q(field_q):
    two = ideal_from_element(field_q.from_int(2))
    census = count_squarefree_ideals_in_class(field_q, 0, two, 10**5)
    assert census.count == 40527
    assert abs(census.ratio - 1) < 0.005
    assert census.X == 10**5 and census.class_index == 0


def test_census_squarefree_qi(field_qi):
    census = count_squarefree_ideals_in_class(field_qi, 0, None, 10**5)
    assert census.count == 52127
    assert abs(census.ratio - 1) < 0.05


def test_census_qm5_split_by_class(field_qm5):
    principal = count_squarefree_ideals_in_class(field_qm5, 0, None, 10**5)
    other = count_squarefree_ideals_in_class(field_qm5, 1, None, 10**5)
    assert (principal.count, other.count) == (37828, 37868)
    # Halves of one census: each within 5% of the shared per-class
    # prediction and of each other.
    assert abs(principal.ratio - 1) < 0.05
    assert abs(other.ratio - 1) < 0.05
    assert abs(principal.count / other.count - 1) < 0.05


def test_census_cube_free_q(field_q):
    # ell = 3: the cube-free integers, counted here by trial division
    def cube_free(n):
        k = 2
        while k**3 <= n:
            if n % k**3 == 0:
                return False
            k += 1
        return True

    census = count_squarefree_ideals_in_class(field_q, 0, None, 20000, ell=3)
    assert census.count == sum(1 for n in range(1, 20001) if cube_free(n)) == 16639


def test_census_respects_search_ceiling(field_q):
    tiny = Ceilings(search_points=50)
    with pytest.raises(CeilingError):
        count_squarefree_ideals_in_class(field_q, 0, None, 10**4, ceilings=tiny)


@pytest.mark.parametrize(
    "call",
    [
        lambda K, c: zeta_constants(K, prime_bound=100, ceilings=c),
        lambda K, c: count_squarefree_ideals_in_class(K, 0, None, 100, ceilings=c),
        lambda K, c: generator_equidistribution_test(
            K, ideal_from_element(K.from_int(4)), FactoredIdeal.unit(K), 100, ceilings=c
        ),
    ],
    ids=["zeta_constants", "squarefree_census", "generator_equidistribution"],
)
def test_unit_ceiling_reaches_unit_search(call):
    # the fundamental unit 8 + 3 sqrt(7) lies beyond height 2; a fresh
    # field, so that the unit search runs under the caller's ceilings
    K = build_field([-7, 0, 1], ell=2, label="Q(sqrt(7))")
    with pytest.raises(CeilingError):
        call(K, Ceilings(unit_height=2))


# ---------------------------------------------------------------------------
# generator equidistribution
# ---------------------------------------------------------------------------


def test_equidistribution_q_mod_4(field_q):
    four = ideal_from_element(field_q.from_int(4))
    one = ideal_from_element(field_q.from_int(1))
    rep = generator_equidistribution_test(field_q, four, one, 10**5)
    # (Z/4)^x mod squares has two classes; the census splits 40527 odd
    # squarefree moduli almost exactly in half.
    assert rep.cells == (((0,), 20260), ((1,), 20267))
    assert rep.total == 40527
    assert rep.max_deviation < 0.02
    assert sum(rep.fractions().values()) == pytest.approx(1.0)


def test_equidistribution_trivial_quotient(field_q):
    one = ideal_from_element(field_q.from_int(1))
    rep = generator_equidistribution_test(field_q, one, one, 10**4)
    assert rep.cells == (((), 6083),)
    assert rep.max_deviation == 0.0


def test_equidistribution_qi_wild_modulus(field_qi):
    pi4 = split_prime(field_qi, 2)[0].power(4)
    one = ideal_from_element(field_qi.from_int(1))
    rep = generator_equidistribution_test(field_qi, pi4, one, 10**5)
    assert rep.total == 34755
    assert len(rep.cells) == 4
    assert rep.max_deviation < 0.05


def test_equidistribution_with_ideal_factor(field_q):
    four = ideal_from_element(field_q.from_int(4))
    five = ideal_from_element(field_q.from_int(5))
    rep = generator_equidistribution_test(field_q, four, five, 10**5)
    assert rep.cells == (((0,), 3376), ((1,), 3379))
    assert rep.total == 6755
    assert rep.factor_norm == 5
    assert rep.max_deviation < 0.02


def test_equidistribution_factor_must_be_coprime(field_q):
    four = ideal_from_element(field_q.from_int(4))
    two = ideal_from_element(field_q.from_int(2))
    with pytest.raises(ValueError):
        generator_equidistribution_test(field_q, four, two, 10**5)
