"""Field construction, element arithmetic, signatures, embeddings."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from nfk.class_unit import compute_unit_group
from nfk.errors import CeilingError, FieldConstructionError, MissingRootOfUnityError
from nfk.ideals import split_prime
from nfk.exact_math import IntPolynomial
from nfk.number_field import NumberField, build_field, dedekind_q_maximal
from oracles import inverse_by_fraction_solve

CUBIC = [-9, -1, 0, 1]  # x^3 - x - 9


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


def test_dedekind_criterion_directly():
    assert dedekind_q_maximal(IntPolynomial([1, 0, 1]), 2)  # Z[i] maximal at 2
    assert dedekind_q_maximal(IntPolynomial([5, 0, 1]), 2)  # Z[sqrt(-5)] maximal at 2
    assert not dedekind_q_maximal(IntPolynomial([3, 0, 1]), 2)
    assert dedekind_q_maximal(IntPolynomial([-2, 0, 1]), 2)  # Z[sqrt 2] maximal at 2


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
    assert t.trace() == 0
    assert (t - K.from_int(2)).norm() == 3
    assert (t + K.from_int(1)).norm() == 9
    Ki = build_field([1, 0, 1], 2)
    i = Ki.theta
    assert (Ki.from_int(1) + i).norm() == 2
    assert (Ki.from_int(3) + Ki.element([0, 2])).norm() == 13
    assert (Ki.from_int(3)).trace() == 6


def test_norm_multiplicative_trace_additive():
    random.seed(21)
    for coeffs in ([1, 0, 1], [5, 0, 1], CUBIC):
        K = build_field(coeffs, 2)
        for _ in range(100):
            x = K.element([random.randint(-9, 9) for _ in range(K.degree)])
            y = K.element([random.randint(-9, 9) for _ in range(K.degree)])
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()
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
        (list(prime.hnf.columns()), lambda x: prime.contains(K.element(x))),
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


def test_power_traces_against_embeddings():
    K = build_field(CUBIC, 2)
    rts = K.roots(200)
    with mpmath.workprec(200):
        for k in range(5):
            numeric = rts[0] ** k + 2 * mpmath.re(rts[1] ** k)
            assert abs(numeric - K.power_traces[k]) < mpmath.mpf(2) ** -80


def test_trace_form_gram_determinant_is_disc():
    # det Tr(theta^i theta^j) = disc(K) for the power basis
    from nfk.exact_math import IntMatrix, det_int

    for coeffs, d in (([1, 0, 1], -4), ([5, 0, 1], -20), (CUBIC, -2183)):
        K = build_field(coeffs, 2)
        n = K.degree
        gram = [[int((K.theta ** (i + j)).trace()) for j in range(n)] for i in range(n)]
        assert det_int(IntMatrix(gram)) == d
