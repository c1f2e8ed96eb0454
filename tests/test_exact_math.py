"""Normal-form and polynomial primitives, checked against brute-force oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from nfk.exact_math import (
    IntMatrix,
    IntPolynomial,
    count_real_roots,
    factor_mod_p,
    has_rational_root,
    hnf_reduce,
    hnf_square,
    irreducibility_certificate,
    lattice_contains,
    polynomial_discriminant,
    xgcd,
)
from nfk.errors import FieldConstructionError
from oracles import det_fraction


def lattice_points_2d(cols, bound, window):
    """The points with both coordinates in [-window, window] among the
    integer combinations of 2d columns with coefficients in [-bound, bound]."""
    pts = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(cols)):
        pt = tuple(sum(a * c[i] for a, c in zip(coeffs, cols)) for i in range(2))
        if max(map(abs, pt)) <= window:
            pts.add(pt)
    return pts


def test_xgcd():
    for _ in range(200):
        a = random.randint(-50, 50)
        b = random.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_small_example_against_lattice_oracle():
    # Oracle first: the lattice spanned by (4,0) and (2,2) contains (0,4),
    # so the canonical staircase has pivots 4 (row 0) and 2 (row 1) with the
    # off-diagonal entry reduced into [0, 4).  The same lattice comes as its
    # HNF, as the generating set (2,2), (4,0), (6,2) and as the square
    # (2,2), (4,0), which the elimination has to bring to that form.
    for rows in ([[4, 2], [0, 2]], [[2, 4, 6], [2, 0, 2]], [[2, 4], [2, 0]]):
        m = IntMatrix(rows)
        h = hnf_square(m)
        assert h.rows == [[4, 2], [0, 2]], rows
        # same lattice, point for point, inside a window that coefficients
        # in [-6, 6] cover for every input
        want = lattice_points_2d(list(m.columns()), 6, 8)
        assert lattice_points_2d([h.column(0), h.column(1)], 6, 8) == want, rows
        assert len(want) == 41


def test_hnf_uniqueness_under_unimodular_transforms():
    random.seed(13)
    base = IntMatrix([[6, 2, 0], [0, 3, 1], [0, 0, 5]])
    href = hnf_square(base)
    for _ in range(50):
        m = IntMatrix(base.rows)
        # random product of elementary column ops
        for _ in range(6):
            i, j = random.sample(range(3), 2)
            q = random.randint(-3, 3)
            for r in m.rows:
                r[i] += q * r[j]
        assert hnf_square(m) == href


def test_hnf_canonical_form_conditions():
    random.seed(14)
    for _ in range(50):
        while True:
            m = IntMatrix([[random.randint(-8, 8) for _ in range(3)] for _ in range(3)])
            if det_fraction(m.rows) != 0:
                break
        h = hnf_square(m)
        d = abs(det_fraction(m.rows))
        assert det_fraction(h.rows) == d  # pivots positive, product = |det|
        for i in range(3):
            assert h.rows[i][i] > 0
            for j in range(i + 1, 3):
                assert 0 <= h.rows[i][j] < h.rows[i][i]
            for j in range(i):
                assert h.rows[i][j] == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hnf_square_matches_hnf_block(n):
    # sympy's hermite_normal_form (Cohen, GTM 138, Algorithms 2.4.5 and
    # 2.4.8) shares no code with hnf_square and returns the nonzero columns
    # of the same column-style form, fewer than n of them at rank < n; every
    # fourth draw gets a row that is a combination of the others
    rng = random.Random(40 + n)
    full = deficient = 0
    for draw in range(80):
        ncols = rng.randint(n, n * n)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(n)]
        if draw % 4 == 0:
            k = rng.randrange(n)
            others = rows[:k] + rows[k + 1:]
            coefs = [rng.randint(-2, 2) for _ in others]
            rows[k] = [sum(c * r[j] for c, r in zip(coefs, others)) for j in range(ncols)]
        want = hermite_normal_form(Matrix(rows))
        if want.cols < n:
            deficient += 1
            with pytest.raises(ValueError):
                hnf_square(IntMatrix(rows))
        else:
            assert hnf_square(IntMatrix(rows)).rows == want.tolist()
            full += 1
    assert full >= 50 and deficient >= 20


def test_hnf_reduce_gives_box_representative():
    h = IntMatrix([[4, 2], [0, 2]])
    seen = set()
    for x in range(-8, 9):
        for y in range(-8, 9):
            r = hnf_reduce(h, [x, y])
            assert 0 <= r[0] < 4 and 0 <= r[1] < 2
            assert lattice_contains(h, [x - r[0], y - r[1]])
            seen.add(tuple(r))
    assert len(seen) == 8  # = det, every coset hit


def test_polynomial_discriminants():
    assert polynomial_discriminant(IntPolynomial([1, 0, 1])) == -4  # x^2+1
    assert polynomial_discriminant(IntPolynomial([5, 0, 1])) == -20  # x^2+5
    assert polynomial_discriminant(IntPolynomial([1, 1, 1])) == -3  # x^2+x+1
    assert polynomial_discriminant(IntPolynomial([-9, -1, 0, 1])) == -2183  # x^3-x-9
    assert polynomial_discriminant(IntPolynomial([-2, 0, 1])) == 8  # x^2-2


def test_sturm_real_root_counts():
    assert count_real_roots(IntPolynomial([1, 0, 1])) == 0
    assert count_real_roots(IntPolynomial([-2, 0, 1])) == 2
    assert count_real_roots(IntPolynomial([-9, -1, 0, 1])) == 1
    assert count_real_roots(IntPolynomial([0, 1])) == 1
    # signature oracle via numeric roots, random cubics
    import mpmath

    random.seed(16)
    for _ in range(40):
        coeffs = [random.randint(-9, 9) for _ in range(3)] + [1]
        f = IntPolynomial(coeffs)
        if polynomial_discriminant(f) == 0:
            continue  # repeated roots: out of scope (defining polys are separable)
        roots = mpmath.polyroots(f.descending(), maxsteps=200, extraprec=80)
        numeric = sum(1 for r in roots if abs(getattr(r, "imag", 0)) < 1e-20)
        assert count_real_roots(f) == numeric


def test_rational_root_and_irreducibility():
    assert has_rational_root(IntPolynomial([-4, 0, 1]))  # x^2-4
    assert not has_rational_root(IntPolynomial([1, 0, 1]))
    assert irreducibility_certificate(IntPolynomial([1, 0, 1])) == 0
    assert irreducibility_certificate(IntPolynomial([-9, -1, 0, 1])) == 0
    with pytest.raises(FieldConstructionError):
        irreducibility_certificate(IntPolynomial([-1, 0, 1]))  # x^2-1 reducible
    with pytest.raises(FieldConstructionError):
        irreducibility_certificate(IntPolynomial([1, 2]))  # not monic
    # degree 4 needs a mod-p certificate
    p = irreducibility_certificate(IntPolynomial([2, 0, 0, 0, 1]))  # x^4+2
    assert p > 0


def test_irreducibility_without_prime_certificate():
    # x^4 - x^2 + 1 (Phi_12, Galois group V4) is reducible mod every prime,
    # so sympy's exact factorization certifies it
    assert irreducibility_certificate(IntPolynomial([1, 0, -1, 0, 1])) == 0
    assert irreducibility_certificate(IntPolynomial([2, 0, 0, 0, 1])) > 0  # x^4+2, by a prime
    with pytest.raises(FieldConstructionError):
        # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2), without a rational root
        irreducibility_certificate(IntPolynomial([4, 0, 0, 0, 1]))


def test_factor_mod_p_cubic():
    f = IntPolynomial([-9, -1, 0, 1])
    # 2 stays irreducible, 3 splits completely
    m2 = factor_mod_p(f, 2)
    assert len(m2) == 1 and m2[0][0].degree == 3 and m2[0][1] == 1
    m3 = factor_mod_p(f, 3)
    assert [g.degree for g, _ in m3] == [1, 1, 1]
    assert sorted(g.coeffs[0] for g, _ in m3) == [0, 1, 2]
    # reconstruction: product of factors == f mod p
    for p in (2, 3, 5, 7, 11):
        fac = factor_mod_p(f, p)
        prod = [1]
        for g, e in fac:
            for _ in range(e):
                new = [0] * (len(prod) + g.degree)
                for i, a in enumerate(prod):
                    for j, b in enumerate(g.coeffs):
                        new[i + j] = (new[i + j] + a * b) % p
                prod = new
        assert prod == [c % p for c in f.coeffs]
