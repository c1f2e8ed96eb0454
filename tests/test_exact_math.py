"""Normal-form and polynomial primitives, checked against brute-force oracles."""

import random
from fractions import Fraction

import pytest

from nfk.exact_math import (
    IntMatrix,
    IntPolynomial,
    count_real_roots,
    det_int,
    factor_mod_p,
    has_rational_root,
    hnf,
    hnf_reduce,
    hnf_square,
    irreducibility_certificate,
    lattice_contains,
    polynomial_discriminant,
    xgcd,
)
from nfk.errors import FieldConstructionError


def det_cofactor(rows):
    """Independent determinant oracle: cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def lattice_points_2d(cols, bound):
    """All integer combinations of two 2d columns with coefficients in [-bound, bound]."""
    pts = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            pts.add((a * cols[0][0] + b * cols[1][0], a * cols[0][1] + b * cols[1][1]))
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


def test_det_matches_cofactor_oracle():
    random.seed(11)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            rows = [[random.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_int(IntMatrix(rows)) == det_cofactor(rows)


def test_det_multiplicative():
    random.seed(12)
    for _ in range(60):
        a = IntMatrix([[random.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        b = IntMatrix([[random.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        assert det_int(a @ b) == det_int(a) * det_int(b)


def test_hnf_small_example_against_lattice_oracle():
    # Oracle first: the lattice spanned by (4,0) and (2,2) contains (0,4),
    # so the canonical staircase has pivots 4 (row 0) and 2 (row 1) with the
    # off-diagonal entry reduced into [0, 4).
    m = IntMatrix([[4, 2], [0, 2]])
    h, u = hnf(m)
    assert m @ u == h
    assert abs(det_int(u)) == 1
    assert h.rows == [[4, 2], [0, 2]]
    # same lattice, point for point, inside a window
    assert lattice_points_2d([h.column(0), h.column(1)], 6) == lattice_points_2d(
        [m.column(0), m.column(1)], 6
    )


def test_hnf_uniqueness_under_unimodular_transforms():
    random.seed(13)
    base = IntMatrix([[6, 2, 0], [0, 3, 1], [0, 0, 5]])
    href = hnf_square(base)
    for _ in range(50):
        u = IntMatrix.identity(3)
        # random product of elementary column ops
        for _ in range(6):
            i, j = random.sample(range(3), 2)
            q = random.randint(-3, 3)
            for r in u.rows:
                r[i] += q * r[j]
        m = base @ u
        assert hnf_square(m) == href


def test_hnf_canonical_form_conditions():
    random.seed(14)
    for _ in range(50):
        while True:
            m = IntMatrix([[random.randint(-8, 8) for _ in range(3)] for _ in range(3)])
            if det_int(m) != 0:
                break
        h = hnf_square(m)
        d = abs(det_int(m))
        assert det_int(h) == d  # pivots positive, product = |det|
        for i in range(3):
            assert h.rows[i][i] > 0
            for j in range(i + 1, 3):
                assert 0 <= h.rows[i][j] < h.rows[i][i]
            for j in range(i):
                assert h.rows[i][j] == 0


def test_hnf_zero_matrix():
    m = IntMatrix.zero(2, 3)
    h, u = hnf(m)
    assert h.rows == [[0, 0, 0], [0, 0, 0]]
    assert abs(det_int(u)) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hnf_square_matches_hnf_block(n):
    # hnf_square skips the unimodular transform; hnf keeps it and is the oracle
    rng = random.Random(40 + n)
    done = 0
    while done < 60:
        ncols = rng.randint(n, n * n)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(n)])
        h, u = hnf(m)
        block = [r[ncols - n:] for r in h.rows]
        if any(block[i][i] == 0 for i in range(n)):
            with pytest.raises(ValueError):
                hnf_square(m)
            continue  # rank-deficient draw
        assert m @ u == h
        assert hnf_square(m).rows == block
        done += 1


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
