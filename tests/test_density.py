"""Density layer: the wild-exponent table R, per-ell-part densities rho,
the residue/zeta constants, and the two empirical census checks (test
oracles in oracles.py, on the class group's ell-free walk)."""

import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
from mpmath.libmp import fone, from_int, from_man_exp, mpf_div, mpf_pow_int, mpf_sub, round_nearest, to_float

from nfk import density
from nfk.config import Ceilings
from nfk.density import (
    _euler_products,
    _factor,
    _quotient,
    _rn,
    allowed_wild_exponents,
    density_report,
    density_report_json_dict,
    enumerate_R,
    identity_check,
    rho,
    zeta_constants,
)
from nfk.errors import CeilingError, UnrealizableEllPartError
from nfk.harness import load_field_spec
from nfk.ideals import FactoredIdeal, ideal_from_element, split_prime
from nfk.number_field import build_field
from oracles import euler_products_mpf, generator_equidistribution, squarefree_census


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


def test_rho_table_qs2(field_qs2):
    # 2 ramifies in Q(sqrt 2), e = 2, as in Q(i), but no depth is empty
    rows = density_report(field_qs2, 2).rows
    assert [(n, r) for _, n, r in rows] == [
        (1, Fraction(1, 8)),
        (4, Fraction(1, 8)),
        (16, Fraction(1, 4)),
        (32, Fraction(1, 2)),
    ]


def test_rho_table_x4_53x2_703():
    # one prime over 3, with f = e = 2: depths 3, 2, 1 over 648 unit residues
    K = build_field([703, 0, 53, 0, 1], ell=3)
    rows = density_report(K, 3).rows
    assert [(n, r) for _, n, r in rows] == [
        (1, Fraction(1, 243)),
        (6561, Fraction(8, 243)),
        (531441, Fraction(8, 27)),
        (43046721, Fraction(2, 3)),
    ]


def test_rho_rows_x4_7x2_13(field_x4_7x2_13):
    # two primes over 3, f = 1 and e = 2 each: every pair of exponents in
    # {0, 4, 6, 8}, with rho the product of the two local factors
    K = field_x4_7x2_13
    qs = sorted(split_prime(K, 3))
    rows = density_report(K, 3).rows
    assert [(tuple(Q.exps.get(q, 0) for q in qs), n, r) for Q, n, r in rows] == [
        ((0, 0), 1, Fraction(1, 729)),
        ((4, 0), 81, Fraction(2, 729)),
        ((0, 4), 81, Fraction(2, 729)),
        ((6, 0), 729, Fraction(2, 243)),
        ((0, 6), 729, Fraction(2, 243)),
        ((4, 4), 6561, Fraction(4, 729)),
        ((8, 0), 6561, Fraction(2, 81)),
        ((0, 8), 6561, Fraction(2, 81)),
        ((4, 6), 59049, Fraction(4, 243)),
        ((6, 4), 59049, Fraction(4, 243)),
        ((4, 8), 531441, Fraction(4, 81)),
        ((6, 6), 531441, Fraction(4, 81)),
        ((8, 4), 531441, Fraction(4, 81)),
        ((6, 8), 4782969, Fraction(4, 27)),
        ((8, 6), 4782969, Fraction(4, 27)),
        ((8, 8), 3**16, Fraction(4, 9)),
    ]


def test_density_raises_at_residue_ring_ceiling():
    # on a fresh Q(zeta3), N(q^B) = 27: a residue-ring ceiling of 26 stops the
    # report and rho, and the depth table is not cached, so a default call
    # then builds it
    K = build_field([1, 1, 1], ell=3)
    tight = Ceilings(residue_ring=26)
    with pytest.raises(CeilingError):
        density_report(K, 3, tight)
    with pytest.raises(CeilingError):
        rho(K, 3, FactoredIdeal(K, {}), tight)
    assert K._depth_cache == {}
    assert density_report(K, 3).rho_by_norm() == {
        1: Fraction(1, 27),
        81: Fraction(2, 27),
        729: Fraction(2, 9),
        6561: Fraction(2, 3),
    }
    assert rho(K, 3, FactoredIdeal(K, {})) == Fraction(1, 27)


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


_SPECS = sorted((Path(__file__).resolve().parent.parent / "fieldspecs").glob("*.json"))


@pytest.mark.parametrize("spec", _SPECS, ids=[p.stem for p in _SPECS])
def test_report_runs_one_depth_census_per_prime(spec, monkeypatch):
    # density_report builds one local-factor table per prime above ell,
    # not one depth census per (row, prime); every row's rho is rho's own
    K = load_field_spec(spec)
    ell = K.ell
    calls = []
    census = density._local_factor

    def counting(K, q, ell, ceilings):
        calls.append(q)
        return census(K, q, ell, ceilings)

    monkeypatch.setattr(density, "_local_factor", counting)
    rep = density_report(K, ell)
    assert sorted(calls) == sorted(split_prime(K, ell))
    monkeypatch.undo()
    assert rep.rows
    for Q, n, r in rep.rows:
        assert r == rho(K, ell, Q)


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


def _libmp(x):
    return fone if x is None else from_man_exp(*x)


def _libmp_factor(n, s, rnd=round_nearest):
    return mpf_sub(fone, mpf_pow_int(from_int(n, 80, rnd), -s, 80, rnd), 80, rnd)


def test_euler_kernel_matches_libmp_steps():
    # _rn, _factor and _quotient against from_int, the factor of
    # mpf_sub/mpf_pow_int and mpf_div, at 80 bits, round to nearest
    cases = [(2**80 + 1, 2), (2**80 + 3, 2), (2**81 - 1, 2), (2**81 - 1, 3)]
    cases += [(2**k, s) for k in (1, 2, 27, 40, 41, 79, 80, 81) for s in (2, 3, 13)]
    cases += [(2**80 - 1, 13), (2**79 + 1, 13), (3**50, 13)]  # binary powering
    for n, s in [(math.isqrt(2**81), 2), (2**27, 3), (2**20, 4)]:  # n^s near 2^81
        cases += [(n - 1, s), (n, s), (n + 1, s)]
    rng = random.Random(20261019)
    for b in (rng.randint(2, 100) for _ in range(3000)):
        cases.append((rng.getrandbits(b) | 1 << (b - 1), rng.randint(2, 17)))
    z, w = fone, (1, 0)
    for n, s in cases:
        assert from_man_exp(*_rn(n, 0, 80)) == from_int(n, 80, round_nearest), n
        d = _libmp_factor(n, s)
        assert _libmp(_factor(n, s)) == d, (n, s)
        if d != fone:
            z = mpf_div(z, d, 80, round_nearest)
            w = _quotient(w, _factor(n, s))
            assert from_man_exp(*w) == z, (n, s)
    # z crossing 2, as over a cubic field in which 2 splits completely
    z, w = fone, (1, 0)
    for _ in range(3):
        z = mpf_div(z, _libmp_factor(2, 2), 80, round_nearest)
        w = _quotient(w, _factor(2, 2))
        assert from_man_exp(*w) == z
    assert to_float(z) > 2


@pytest.mark.parametrize(
    "coeffs, ell, bound",
    [
        pytest.param([5, 0, 1], 2, 10**5, id="qm5"),
        pytest.param([-2, 0, 1], 2, 10**5, id="qs2"),
        pytest.param([-9, -1, 0, 1], 2, 3000, id="cubic9"),
        pytest.param([-9, -1, 0, 1], 3, 3000, id="cubic9-ell3"),
        pytest.param([13, 0, 7, 0, 1], 3, 3000, id="x4_7x2_13-ell3"),
    ],
)
def test_euler_products_bit_identical_on_more_fields(coeffs, ell, bound):
    K = build_field(coeffs, ell=2)
    want = euler_products_mpf(K, ell, bound)
    assert _euler_products(K, ell, bound) == want
    zc = zeta_constants(K, ell=ell, prime_bound=bound)
    assert (zc.zeta_at_2, zc.zeta_at_ell) == tuple(to_float(z, rnd=round_nearest) for z in want)


@pytest.mark.parametrize("bound", [0, -5])
def test_zeta_constants_prime_bound_below_one_rejected(bound):
    for K in (build_field([1, 0, 1], ell=2), build_field([0, 1], ell=2)):
        with pytest.raises(ValueError, match="below 1"):
            zeta_constants(K, prime_bound=bound)
        assert not K._zeta_constants_cache
        zc = zeta_constants(K, prime_bound=1)  # no prime: empty products
        assert zc.zeta_at_2 == (1.0 if K.degree > 1 else float(mpmath.zeta(2)))


def test_zeta_constants_caches_no_prime_above_1000():
    K = build_field([1, 0, 1], ell=2, label="Q(i)")
    zeta_constants(K)
    assert all(p <= 1000 for p in K._prime_cache)


# ---------------------------------------------------------------------------
# squarefree censuses against the leading term
# ---------------------------------------------------------------------------


def test_census_odd_squarefree_q(field_q):
    two = ideal_from_element(field_q.from_int(2))
    counts, predicted = squarefree_census(field_q, two, 10**5)
    assert counts == {0: 40527}
    assert abs(counts[0] / predicted - 1) < 0.005


def test_census_squarefree_qi(field_qi):
    counts, predicted = squarefree_census(field_qi, None, 10**5)
    assert counts[0] == 52127
    assert abs(counts[0] / predicted - 1) < 0.05


def test_census_qm5_split_by_class(field_qm5):
    counts, predicted = squarefree_census(field_qm5, None, 10**5)
    principal, other = counts[0], counts[1]
    assert (principal, other) == (37828, 37868)
    # Halves of one census: each within 5% of the shared per-class
    # prediction and of each other.
    assert abs(principal / predicted - 1) < 0.05
    assert abs(other / predicted - 1) < 0.05
    assert abs(principal / other - 1) < 0.05


def test_census_cube_free_q(field_q):
    # ell = 3: the cube-free integers, counted here by trial division
    def cube_free(n):
        k = 2
        while k**3 <= n:
            if n % k**3 == 0:
                return False
            k += 1
        return True

    counts, _ = squarefree_census(field_q, None, 20000, ell=3)
    assert counts[0] == sum(1 for n in range(1, 20001) if cube_free(n)) == 16639


def test_census_respects_search_ceiling(field_q):
    tiny = Ceilings(search_points=50)
    with pytest.raises(CeilingError):
        squarefree_census(field_q, None, 10**4, ceilings=tiny)


@pytest.mark.parametrize(
    "call",
    [
        lambda K, c: zeta_constants(K, prime_bound=100, ceilings=c),
        lambda K, c: squarefree_census(K, None, 100, ceilings=c),
        lambda K, c: generator_equidistribution(
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


def _max_deviation(cells, order):
    """max |cell fraction - 1/#H| over the cells of H = (O_K/m)^x mod powers."""
    total = sum(cells.values())
    return max(abs(n / total - 1 / order) for n in cells.values())


def test_equidistribution_q_mod_4(field_q):
    four = ideal_from_element(field_q.from_int(4))
    one = ideal_from_element(field_q.from_int(1))
    cells = generator_equidistribution(field_q, four, one, 10**5)
    # (Z/4)^x mod squares has two classes; the census splits 40527 odd
    # squarefree moduli almost exactly in half.
    assert sorted(cells.items()) == [((0,), 20260), ((1,), 20267)]
    assert sum(cells.values()) == 40527
    assert _max_deviation(cells, 2) < 0.02


def test_equidistribution_trivial_quotient(field_q):
    one = ideal_from_element(field_q.from_int(1))
    cells = generator_equidistribution(field_q, one, one, 10**4)
    assert cells == {(): 6083}
    assert _max_deviation(cells, 1) == 0.0


def test_equidistribution_qi_wild_modulus(field_qi):
    pi4 = split_prime(field_qi, 2)[0].power(4)
    one = ideal_from_element(field_qi.from_int(1))
    cells = generator_equidistribution(field_qi, pi4, one, 10**5)
    assert sum(cells.values()) == 34755
    assert len(cells) == 4
    assert _max_deviation(cells, 4) < 0.05


def test_equidistribution_with_ideal_factor(field_q):
    four = ideal_from_element(field_q.from_int(4))
    five = ideal_from_element(field_q.from_int(5))
    cells = generator_equidistribution(field_q, four, five, 10**5)
    assert sorted(cells.items()) == [((0,), 3376), ((1,), 3379)]
    assert sum(cells.values()) == 6755
    assert _max_deviation(cells, 2) < 0.02


def test_equidistribution_factor_must_be_coprime(field_q):
    four = ideal_from_element(field_q.from_int(4))
    two = ideal_from_element(field_q.from_int(2))
    with pytest.raises(ValueError):
        generator_equidistribution(field_q, four, two, 10**5)
