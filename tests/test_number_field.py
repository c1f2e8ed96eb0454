"""Field construction, element arithmetic, signatures, embeddings."""

import functools
import itertools
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
from sympy import factorint

from nfk import number_field
from nfk.class_unit import compute_unit_group
from nfk.errors import CeilingError, FieldConstructionError, MissingRootOfUnityError
from nfk.ideals import split_prime
from nfk.exact_math import (
    IntPolynomial,
    irreducibility_certificate,
    lattice_contains,
    polynomial_discriminant,
)
from nfk.number_field import NumberField, build_field, dedekind_q_maximal
from oracles import det_fraction, inverse_by_fraction_solve, multiplication_matrix

CUBIC = [-9, -1, 0, 1]  # x^3 - x - 9


def _trace(x):
    """Tr(x) as the trace of its multiplication matrix (oracle)."""
    return sum(row[i] for i, row in enumerate(multiplication_matrix(x)))


def test_build_cubic_field():
    K = build_field(CUBIC, 2, label="cubic-9")
    assert K.degree == 3
    assert K.disc == -2183
    assert (K.r1, K.r2) == (1, 1)


def test_build_quadratic_fields():
    Ki = build_field([1, 0, 1], 2, label="qi")
    assert Ki.disc == -4 and (Ki.r1, Ki.r2) == (0, 1)
    Kz = build_field([1, 1, 1], 3, label="zeta3")
    assert Kz.disc == -3
    z = Kz.contains_zeta(3)
    assert z is not None and (z * z + z + Kz.one).is_zero()
    Kq = build_field([0, 1], 2, label="q")
    assert Kq.degree == 1 and (Kq.r1, Kq.r2) == (1, 0)


def test_build_field_rejections():
    with pytest.raises(FieldConstructionError):
        build_field([-1, 0, 1], 2)  # x^2 - 1 reducible
    with pytest.raises(FieldConstructionError):
        build_field([3, 0, 1], 2)  # Z[sqrt(-3)] not maximal at 2
    with pytest.raises(MissingRootOfUnityError):
        build_field([-2, 0, 1], 3)  # zeta_3 not in Q(sqrt 2)
    with pytest.raises(FieldConstructionError):
        build_field([1, 0, 1], 4)  # ell must be prime
    for coeffs in ([], [0], [1]):  # no polynomial of degree >= 1
        with pytest.raises(FieldConstructionError):
            build_field(coeffs, 2)


def test_dedekind_criterion_directly():
    assert dedekind_q_maximal(IntPolynomial([1, 0, 1]), 2)  # Z[i] maximal at 2
    assert dedekind_q_maximal(IntPolynomial([5, 0, 1]), 2)  # Z[sqrt(-5)] maximal at 2
    assert not dedekind_q_maximal(IntPolynomial([3, 0, 1]), 2)
    assert dedekind_q_maximal(IntPolynomial([-2, 0, 1]), 2)  # Z[sqrt 2] maximal at 2
    # x^2 + bx + c has D = b^2 - 4c = f^2 d with f the index of Z[theta].
    # At odd q, q^2 | D means q | f; at q = 2 with 4 | D, 2 | f exactly when
    # D/4 = 0, 1 (mod 4), since d = 0, 1 (mod 4) and 4 | d gives d/4 = 2, 3.
    cases = 0
    for b, c in itertools.product(range(-20, 21), repeat=2):
        D = b * b - 4 * c
        for q, e in factorint(abs(D)).items() if D else ():
            if e >= 2:
                maximal = q == 2 and (D // 4) % 4 in (2, 3)
                assert dedekind_q_maximal(IntPolynomial([c, b, 1]), q) == maximal, (b, c, q)
                cases += 1
    assert cases == 1148


def test_element_arithmetic_cubic():
    K = build_field(CUBIC, 2)
    t = K.theta
    # theta^3 = theta + 9
    assert t * t * t == t + K.from_int(9)
    assert (t ** 3).coords == (9, 1, 0)
    x = K.element([1, 2, 3])
    y = K.element([-4, 0, 5])
    assert (x + y) - y == x
    assert x * y == y * x
    assert x * (y + y) == x * y * K.from_int(2)


def test_norm_trace_examples():
    K = build_field(CUBIC, 2)
    t = K.theta
    assert t.norm() == 9  # N(theta) = -f(0) for odd degree: 9
    assert _trace(t) == 0
    assert (t - K.from_int(2)).norm() == 3
    assert (t + K.from_int(1)).norm() == 9
    Ki = build_field([1, 0, 1], 2)
    i = Ki.theta
    assert (Ki.from_int(1) + i).norm() == 2
    assert (Ki.from_int(3) + Ki.element([0, 2])).norm() == 13
    assert _trace(Ki.from_int(3)) == 6


def test_norm_multiplicative_trace_additive():
    random.seed(21)
    for coeffs in ([1, 0, 1], [5, 0, 1], CUBIC):
        K = build_field(coeffs, 2)
        for _ in range(100):
            x = K.element([random.randint(-9, 9) for _ in range(K.degree)])
            y = K.element([random.randint(-9, 9) for _ in range(K.degree)])
            assert (x * y).norm() == x.norm() * y.norm()
            assert _trace(x + y) == _trace(x) + _trace(y)
        # norm against embeddings (floating cross-check)
        x = K.element([random.randint(-9, 9) for _ in range(K.degree)])
        if not x.is_zero():
            numeric = mpmath.mpf(1)
            for i, v in enumerate(K.embeddings(x, 80)):
                numeric *= abs(v) ** (2 if i >= K.r1 else 1)
            assert abs(numeric - abs(x.norm())) < 1e-10 * max(1, abs(x.norm()))


def test_inverse_and_division():
    K = build_field(CUBIC, 2)
    random.seed(22)
    for _ in range(50):
        x = K.element([random.randint(-9, 9) for _ in range(3)])
        if x.is_zero():
            continue
        assert (x * x.inverse()).is_one()
        y = K.element([random.randint(-9, 9) for _ in range(3)])
        assert (y / x) * x == y


_SPECS = Path(__file__).resolve().parent.parent / "fieldspecs"


@pytest.mark.parametrize(
    "coeffs", [CUBIC, [1, -2, -1, 1], [13, 0, 7, 0, 1]], ids=["cubic9", "rank2", "x4_7x2_13"]
)
def test_log_abs_embeddings_match_high_precision(coeffs):
    # small elements take the float path; high powers of a unit, with one
    # embedding far below the coordinates, take the mpmath path
    K = build_field(coeffs, ell=3 if coeffs[0] == 13 else 2)
    eps = compute_unit_group(K).fundamental[0]
    for x in (K.from_int(7), K.element([2, -1] + [1] * (K.degree - 2)), eps, eps**-30, eps**60 * 5):
        got = K.log_abs_embeddings(x.int_coords())
        with mpmath.workprec(2000):
            want = [mpmath.log(abs(v)) for v in K.embeddings(x, 2000)]
        assert all(abs(g - w) < 1e-9 for g, w in zip(got, want)), x


@pytest.mark.parametrize(
    "coeffs, ell",
    [pytest.param(spec["poly"], spec["ell"], id=spec["label"]) for spec in
     (json.loads(f.read_text()) for f in sorted(_SPECS.glob("*.json")))]
    + [pytest.param([1] * 7, 7, id="Q(zeta7)"), pytest.param([1, -2, -1, 1], 2, id="x^3-x^2-2x+1")],
)
def test_norm_int_matches_exact_determinant(coeffs, ell):
    # norm_int evaluates the norm form's monomials, expanded once per field
    # by a Laplace expansion in ints; the Fraction determinant of the
    # multiplication matrix (the path of non-integral elements) is the oracle
    K = build_field(coeffs, ell=ell)
    rng = random.Random(7 + K.degree)
    for trial in range(200):
        height = 5 if trial < 100 else 10**9
        coords = [rng.randint(-height, height) for _ in range(K.degree)]
        x = K.element(coords)
        assert K.norm_int(coords) == det_fraction(multiplication_matrix(x)), coords


def _product_mod_f(K, a, b):
    """a*b as the remainder of the product of polynomials mod f (sympy, over QQ)."""
    x = sympy.Symbol("x")

    def poly(coords):
        rationals = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, coords)]
        return sympy.Poly(rationals[::-1], x)

    rem = sympy.rem(poly(a) * poly(b), sympy.Poly(K.poly.coeffs[::-1], x))
    got = [Fraction(int(c.p), int(c.q)) for c in rem.all_coeffs()[::-1]]
    return got + [Fraction(0)] * (K.degree - len(got))


@pytest.mark.parametrize(
    "coeffs, ell",
    [pytest.param(spec["poly"], spec["ell"], id=spec["label"]) for spec in
     (json.loads(f.read_text()) for f in sorted(_SPECS.glob("*.json")))]
    + [pytest.param([1] * 7, 7, id="Q(zeta7)"), pytest.param([1, -2, -1, 1], 2, id="x^3-x^2-2x+1")],
)
def test_element_kernels_match_generic_loops(coeffs, ell):
    # degree <= 3 multiplies and embeds by straight-line kernels; the generic
    # loops (NumberField.mul_int_coords on the class, the left-to-right fold
    # from 0 over _t2_rows, as sum() compensates floats from Python 3.12)
    # are the reference, sympy's remainder of a*b mod f checks both products,
    # and the embedding must give the very same floats
    K = build_field(coeffs, ell=ell)
    rng = random.Random(13 + K.degree)
    rows = K._t2_rows
    for trial in range(300):
        height = 5 if trial < 100 else 10**9
        if trial < 200:
            a, b = ([rng.randint(-height, height) for _ in range(K.degree)] for _ in range(2))
        else:
            a, b = ([Fraction(rng.randint(-height, height), rng.randint(1, 12)) for _ in range(K.degree)]
                    for _ in range(2))
        got = K.mul_int_coords(a, b)
        assert got == NumberField.mul_int_coords(K, a, b) == tuple(_product_mod_f(K, a, b)), (a, b)
        assert all(isinstance(c, int) for c in got) or trial >= 200, (a, b)
        for x in (a, b):
            fold = [functools.reduce(operator.add, (r * c for r, c in zip(row, x)), 0) for row in rows]
            assert K._embed(x) == fold, x


def _quotient_mod_f(K, a, b):
    """a/b as a times the inverse of b mod f (sympy, over QQ)."""
    x = sympy.Symbol("x")
    f = sympy.Poly(K.poly.coeffs[::-1], x)
    inv = sympy.invert(sympy.Poly(list(b)[::-1], x, domain="QQ"), f)
    rem = sympy.rem(sympy.Poly(list(a)[::-1], x, domain="QQ") * inv, f)
    got = [Fraction(int(c.p), int(c.q)) for c in rem.all_coeffs()[::-1]]
    return got + [Fraction(0)] * (K.degree - len(got))


@pytest.mark.parametrize(
    "coeffs, ell",
    [pytest.param(spec["poly"], spec["ell"], id=spec["label"]) for spec in
     (json.loads(f.read_text()) for f in sorted(_SPECS.glob("*.json")))]
    + [pytest.param([1] * 7, 7, id="Q(zeta7)"), pytest.param([1, -2, -1, 1], 2, id="x^3-x^2-2x+1")],
)
def test_div_int_coords_matches_solve_and_sympy(coeffs, ell):
    # degree <= 3 divides by a straight-line adjugate over N(b); the
    # fraction-free solve (NumberField.div_int_coords on the class, the path
    # of degree >= 4) is the reference and sympy's inverse mod f checks
    # both.  Exact quotients come back as ints, the rest with Fractions.
    K = build_field(coeffs, ell=ell)
    rng = random.Random(17 + K.degree)
    for trial in range(240):
        height = 5 if trial < 80 else 10**9
        a, b = ([rng.randint(-height, height) for _ in range(K.degree)] for _ in range(2))
        if not any(b):
            continue
        den = 1 if trial % 3 else rng.randint(2, 12)
        if trial % 2:  # an exact quotient: a = q b
            q = tuple(a)
            a = K.mul_int_coords(q, b)
            assert K.div_int_coords(a, b) == NumberField.div_int_coords(K, a, b) == q
        got = K.div_int_coords(a, b, den)
        assert got == NumberField.div_int_coords(K, a, b, den), (a, b, den)
        assert list(got) == [c / den for c in _quotient_mod_f(K, a, b)], (a, b, den)
        assert all(isinstance(c, int) or c.denominator > 1 for c in got)
    assert any(isinstance(c, Fraction) for c in K.div_int_coords([1] + [0] * (K.degree - 1), [2] * K.degree))
    for div in (K.div_int_coords, functools.partial(NumberField.div_int_coords, K)):
        with pytest.raises(ZeroDivisionError):
            div([1] * K.degree, [0] * K.degree)


def test_products_and_quotients_keep_the_normal_form(field_zeta3, field_cubic9):
    # an int product and an exact quotient are int tuples, taken as is; a
    # Fraction operand still goes through the normalizing constructor, so an
    # integral result has int coordinates either way
    for K in (field_zeta3, field_cubic9):
        n = K.degree
        half = K.element([Fraction(1, 2)] + [0] * (n - 1))
        x = K.element(list(range(2, n + 2)))
        for z in (x * x, x * 3, half * K.from_int(4), (x * x) / x, x / half, K.from_int(6) * half):
            assert all(type(c) is int for c in z.coords), z
        assert (x * half) == K.element([Fraction(c, 2) for c in x.coords])
        assert (x / K.from_int(2)).coords == (x * half).coords


def _left_fold(terms):
    acc = 0
    for t in terms:
        acc = acc + t
    return acc


def _no_sum(*args):
    raise AssertionError("a float sum() in nfk.number_field")


@pytest.mark.parametrize(
    "coeffs, ell", [(CUBIC, 2), ([1, -2, -1, 1], 2), ([13, 0, 7, 0, 1], 3), ([5, 0, 1], 2)],
    ids=["cubic9", "rank2", "x4_7x2_13", "qm5"],
)
def test_float_sums_fold_left_from_zero(coeffs, ell, monkeypatch):
    # from Python 3.12 sum() compensates float additions (CPython gh-100425),
    # so the Gram-Schmidt dot products and squared norms, T2, the sizes in
    # log_abs_embeddings and the Fincke-Pohst centres all fold left to right
    # from 0, as sum() did up to 3.11: with sum() shadowed by a function that
    # fails once the unit group is built, the short vectors and logs still
    # come out, and the observable sums equal their explicit left folds
    assert number_field._fold([1e16, 1.0, -1e16]) == _left_fold([1e16, 1.0, -1e16]) == 0.0
    K = build_field(coeffs, ell=ell)
    eps = compute_unit_group(K).fundamental
    # shadowed only now: the unit search divides, and _solve_int sums ints
    monkeypatch.setattr(number_field, "sum", _no_sum, raising=False)
    rng = random.Random(3 + K.degree)
    for trial in range(50):
        x = [rng.randint(-10**6, 10**6) for _ in range(K.degree)]
        v = K._embed(x)
        assert K.t2(x) == _left_fold(c * c for c in v)
        K.log_abs_embeddings(x)
    for u in eps:
        K.log_abs_embeddings((u**40).int_coords())  # the mpmath path
    vecs = [K._embed(K.theta_power(k + K.degree)) for k in range(K.degree)]
    mu, sq = number_field._gram_schmidt(vecs)
    stars = []
    for i, v in enumerate(vecs):
        w = list(v)
        for j in range(i):
            assert mu[i][j] == _left_fold(p * q for p, q in zip(v, stars[j])) / sq[j]
            w = [p - mu[i][j] * q for p, q in zip(w, stars[j])]
        stars.append(w)
        assert sq[i] == _left_fold(p * p for p in w)
    assert list(K.short_vectors([K.theta_power(k) for k in range(K.degree)], 4 * K.degree))


@pytest.mark.parametrize(
    "coeffs, ell",
    [pytest.param(spec["poly"], spec["ell"], id=spec["label"]) for spec in
     (json.loads(f.read_text()) for f in sorted(_SPECS.glob("*.json")))],
)
def test_norm_of_non_integral_matches_exact_determinant(coeffs, ell):
    # x = a/d has N(x) = norm_int(a) / d^n; the Fraction determinant of the
    # multiplication matrix of x is the oracle
    K = build_field(coeffs, ell=ell)
    rng = random.Random(11 + K.degree)
    for trial in range(100):
        height = 5 if trial < 50 else 10**6
        coords = [Fraction(rng.randint(-height, height), rng.randint(1, 12)) for _ in range(K.degree)]
        x = K.element(coords)
        assert x.norm() == det_fraction(multiplication_matrix(x)), coords


@pytest.mark.parametrize(
    "coeffs, ell",
    [pytest.param(spec["poly"], spec["ell"], id=spec["label"]) for spec in
     (json.loads(f.read_text()) for f in sorted(_SPECS.glob("*.json")))]
    + [pytest.param([1, 1, 1, 1, 1], 5, id="Q(zeta5)")],
)
def test_inverse_matches_fraction_solve(coeffs, ell):
    # x = a/d is inverted fraction-free (Bareiss on the int matrix of a);
    # the Fraction Gauss-Jordan on the multiplication matrix is the oracle
    K = build_field(coeffs, ell=ell)
    rng = random.Random(sum(coeffs) + 31 * K.degree)
    for trial in range(200):
        height = 3 if trial < 50 else 10**6
        x = K.element([rng.randint(-height, height) for _ in range(K.degree)])
        if trial >= 150:  # non-integral elements
            x = K.element([Fraction(c, rng.randint(1, 12)) for c in x.coords])
        if x.is_zero():
            continue
        y = x.inverse()
        assert y == inverse_by_fraction_solve(x), x
        assert (x * y).is_one()


@pytest.mark.parametrize(
    "coeffs, ell",
    [pytest.param(spec["poly"], spec["ell"], id=spec["label"]) for spec in
     (json.loads(f.read_text()) for f in sorted(_SPECS.glob("*.json")))]
    + [pytest.param([1, 1, 1, 1, 1], 5, id="Q(zeta5)")],
)
def test_division_matches_inverse_oracle(coeffs, ell):
    # x / y is one fraction-free solve of y z = x; the product with the
    # inverse, and with the Fraction Gauss-Jordan inverse, are the oracles
    K = build_field(coeffs, ell=ell)
    rng = random.Random(7 * sum(coeffs) + K.degree)

    def element(height, fractional):
        x = K.element([rng.randint(-height, height) for _ in range(K.degree)])
        return K.element([Fraction(c, rng.randint(1, 12)) for c in x.coords]) if fractional else x

    for trial in range(160):
        height = 4 if trial < 40 else 10**5
        x = element(height, trial % 4 in (1, 3))
        y = element(height, trial % 4 in (2, 3))
        if y.is_zero():
            continue
        z = x / y
        assert z == x * y.inverse() == x * inverse_by_fraction_solve(y), (x, y)
        assert z * y == x
    for x in (K.one, K.element([Fraction(1, 3)] * K.degree)):
        with pytest.raises(ZeroDivisionError):
            x / K.zero
        with pytest.raises(ZeroDivisionError):
            K.zero.inverse()


def test_embeddings_structure_and_precision():
    K = build_field(CUBIC, 2)
    with mpmath.workprec(160):
        vals = K.embeddings(K.theta, 128)
        assert len(vals) == 2  # one real + one complex pair
        real, comp = vals
        assert abs(real - mpmath.mpf("2.24004098746943775817")) < mpmath.mpf(2) ** -64
        assert comp.imag != 0
        # theta satisfies f under each embedding
        for v in vals:
            assert abs(v**3 - v - 9) < mpmath.mpf(2) ** -100


def test_minkowski_bounds():
    Ki = build_field([1, 0, 1], 2)
    b = Ki.minkowski_bound()
    assert Fraction("1.2732") < b < Fraction("1.2734")
    Km5 = build_field([5, 0, 1], 2)
    b5 = Km5.minkowski_bound()
    assert Fraction("2.8470") < b5 < Fraction("2.8473")
    Kc = build_field(CUBIC, 2)
    bc = Kc.minkowski_bound()
    assert Fraction("13.219") < bc < Fraction("13.221")


def _cyclotomic_value(ell, z):
    """Phi_ell(z) = 1 + z + ... + z^(ell-1) for prime ell, exactly."""
    acc = z.field.zero
    for _ in range(ell):
        acc = acc * z + z.field.one
    return acc


def test_zeta_membership():
    Kz = build_field([1, 1, 1], 3)
    assert Kz.contains_zeta(3) is not None
    assert Kz.contains_zeta(2) == Kz.from_int(-1)
    Ki = build_field([1, 0, 1], 2)
    assert Ki.contains_zeta(3) is None
    K = build_field(CUBIC, 2)
    assert K.contains_zeta(3) is None  # has a real embedding
    assert K.contains_zeta(5) is None
    # w and zeta against known values; Phi_ell(z) = 0 is the exact oracle
    for coeffs, spec_ell, w_known in (
        ([1, 1, 1, 1, 1], 5, 10),  # Q(zeta5)
        ([-2, 0, 1], 2, 2),  # Q(sqrt 2)
        ([-1, -3, 0, 1], 2, 2),  # cyclic cubic x^3 - 3x - 1, unit rank 2
    ):
        K = build_field(coeffs, spec_ell)
        zeta, w = K.torsion()
        assert w == w_known
        assert K.element_order(zeta, cap=w) == w
        units = compute_unit_group(K)
        assert (units.zeta, units.w) == (zeta, w)  # the unit group reads the field's pair
        for ell in (2, 3, 5, 7):
            z = K.contains_zeta(ell)
            assert (z is not None) == (w % ell == 0)
            if z is not None:
                assert _cyclotomic_value(ell, z).is_zero()
        with pytest.raises(ValueError):
            K.contains_zeta(4)


@pytest.mark.parametrize(
    "coeffs",
    [pytest.param(spec["poly"], id=spec["label"]) for spec in
     (json.loads(f.read_text()) for f in sorted(_SPECS.glob("*.json")))]
    + [pytest.param([1, 1, 1, 1, 1], id="Q(zeta5)"), pytest.param([1, 0, -1, 0, 1], id="Q(zeta12)")],
)
def test_contains_zeta_cache(coeffs):
    # contains_zeta keeps one answer per ell in a cache that a fresh field
    # starts with empty (as it starts with no unit group, whose torsion list
    # is the other cache); a non-prime ell raises and is not cached
    K = NumberField(IntPolynomial(coeffs))
    assert K._zeta_ell == {} and K._unit_group is None  # no torsion list yet
    zeta, w = K.torsion()
    for ell in (2, 3, 5, 7):
        z = K.contains_zeta(ell)
        assert z == (zeta ** (w // ell) if w % ell == 0 else None)
        assert K.contains_zeta(ell) is z
    assert set(K._zeta_ell) == {2, 3, 5, 7}
    with pytest.raises(ValueError):
        K.contains_zeta(9)
    assert 9 not in K._zeta_ell


def _t2(K, coords):
    with mpmath.workprec(120):
        vals = K.embeddings(K.element(coords), 100)
        return sum((1 if i < K.r1 else 2) * abs(v) ** 2 for i, v in enumerate(vals))


@pytest.mark.parametrize(
    "coeffs, radius",
    [([0, 1], 10.5), ([1, 0, 1], 30.5), ([-2, 0, 1], 25.5), (CUBIC, 150.5), ([1, 1, 1, 1, 1], 40.5)],
)
def test_short_vectors_match_box(coeffs, radius):
    # every lattice point of T2 <= radius, each once, on the power basis and
    # on the HNF columns of a prime over 3, against a scan of a coordinate
    # box that holds the ellipsoid (T2(x) >= lambda_min |x|^2)
    K = build_field(coeffs, 2)
    n = K.degree
    vecs = [K._embed(K.theta_power(k)) for k in range(n)]
    gram = mpmath.matrix([[sum(x * y for x, y in zip(u, v)) for v in vecs] for u in vecs])
    h = int(mpmath.sqrt(radius / min(mpmath.eigsy(gram)[0]))) + 1
    prime = split_prime(K, 3)[0].ideal
    for cols, inside in (
        ([K.theta_power(k) for k in range(n)], lambda x: True),
        (list(prime.hnf.columns()), lambda x: lattice_contains(prime.hnf, x)),
    ):
        got = [tuple(c) for c in K.short_vectors(cols, radius)]
        want = []
        for x in itertools.product(range(-h, h + 1), repeat=n):
            if any(x) and inside(x):
                t2 = K.t2(x)
                assert abs(t2 - radius) > 1e-6 * radius, x  # no point on the boundary
                if t2 <= radius:
                    assert abs(t2 - float(_t2(K, x))) < 1e-9 * radius
                    want.append(x)
        assert sorted(got) == want  # every point, each once


def test_short_vectors_degree_one_and_ceiling():
    K = build_field([0, 1], 2)
    assert list(K.short_vectors([[1]], 10)) == [[k] for k in (-3, -2, -1, 1, 2, 3)]
    # seven lattice points visited, the origin among them
    assert len(list(K.short_vectors([[1]], 10, limit=7))) == 6
    with pytest.raises(CeilingError):
        list(K.short_vectors([[1]], 10, limit=6))


def test_trace_form_gram_determinant_is_disc():
    # det Tr(theta^i theta^j) = disc(f) for the power basis, on the Fraction
    # oracles: pinned fields, then a seeded sweep of monic irreducibles
    for coeffs, d in (([1, 0, 1], -4), ([5, 0, 1], -20), (CUBIC, -2183)):
        assert polynomial_discriminant(IntPolynomial(coeffs)) == d
    rng = random.Random(17)
    polys = [[1, 0, 1], [5, 0, 1], CUBIC]
    while len(polys) < 63:
        n = rng.randint(2, 5)
        f = IntPolynomial([rng.randint(-6, 6) for _ in range(n)] + [1])
        try:
            irreducibility_certificate(f)
        except FieldConstructionError:
            continue
        polys.append(list(f.coeffs))
    for coeffs in polys:
        f = IntPolynomial(coeffs)
        K = NumberField(f)
        n = K.degree
        gram = [[_trace(K.theta ** (i + j)) for j in range(n)] for i in range(n)]
        assert det_fraction(gram) == polynomial_discriminant(f), coeffs
