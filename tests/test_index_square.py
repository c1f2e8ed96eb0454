"""The discriminant norm of each record against a polynomial discriminant.

For a record L = K(theta), theta^ell = gamma, the characteristic polynomial
of theta + k*alpha over Q (alpha the root of K's polynomial f) is

    h_k(x) = Res_t(f(t), (x - k*t)^ell - gamma(t)),

computed here by sympy alone.  When h_k is squarefree, theta + k*alpha
generates L and Z[theta + k*alpha] is an order of O_L, so

    |disc(h_k)| = |d_K|^ell * N(Delta) * [O_L : Z[theta + k*alpha]]^2

and |disc(h_k)| / (|d_K|^ell N(Delta)) must be an exact integer square.
Nothing of nfk enters but the record's gamma and N(Delta) and the field's
polynomial and discriminant.  k = 0 (the plain x^ell - gamma) is tried
first; it is not squarefree when Q(theta) is a proper subfield of L
(gamma rational, say), and then the next k is used.

What the check cannot see: an error in N(Delta) by a square factor.  For
odd ell the wild exponents step by ell - 1, which is even, so a wrong
wild exponent changes N(Delta) by a square and still passes; the check
sees the tame part and that N(Delta) divides the polynomial
discriminant.
"""

from pathlib import Path

import pytest
import sympy

from nfk.harness import load_field_spec
from nfk.kummer import iter_extensions

SPECS = Path(__file__).resolve().parent.parent / "fieldspecs"

# (bound, ordering) per fieldspec; a new fieldspec needs an entry here
BOUNDS = {
    "q": (2000, "disc"),
    "qi": (2000, "disc"),
    "qm5": (2000, "disc"),
    "qs2": (2000, "disc"),
    "cubic9": (300, "disc"),
    "zeta3": (10**5, "disc"),
    "zeta5": (10**11, "disc"),
    "x4_7x2_13": (200, "ell_free"),
    "x4_53x2_703": (200, "ell_free"),
}
SAMPLES = 12

x, t = sympy.symbols("x t")


def _index_square(f, d_K: int, ell: int, gamma: list[int], disc_norm: int) -> int:
    """[O_L : Z[theta + k*alpha]]^2 for the least k whose h_k is squarefree."""
    g = sum(c * t**i for i, c in enumerate(gamma))
    for k in range(4):
        h = sympy.Poly(sympy.resultant(f, (x - k * t) ** ell - g, t), x)
        disc = abs(int(sympy.discriminant(h)))
        if disc:
            q, r = divmod(disc, abs(d_K) ** ell * disc_norm)
            assert r == 0, f"N(Delta) = {disc_norm} does not divide disc(h_{k}) / |d_K|^ell"
            return q
    raise AssertionError(f"no squarefree h_k for gamma = {gamma}")


def test_every_fieldspec_has_a_bound():
    assert set(BOUNDS) == {p.stem for p in SPECS.glob("*.json")}


@pytest.mark.parametrize("stem", sorted(BOUNDS))
def test_index_is_a_square(stem):
    K = load_field_spec(SPECS / f"{stem}.json")
    X, order_by = BOUNDS[stem]
    records = list(iter_extensions(K, K.ell, X, order_by=order_by))
    sample = records[:: max(1, len(records) // SAMPLES)][:SAMPLES]
    assert len(sample) >= min(len(records), SAMPLES) > 0
    f = sum(c * t**i for i, c in enumerate(K.poly.coeffs))
    for rec in sample:
        q = _index_square(f, K.disc, K.ell, rec.datum.gamma.int_coords(), rec.disc_norm)
        assert sympy.integer_nthroot(q, 2)[1], (rec.datum.gamma.int_coords(), q)
