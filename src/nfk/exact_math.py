"""Exact integer/rational linear algebra and polynomial utilities.

Everything here is arbitrary precision: matrices hold Python ints,
rationals are fractions.Fraction.  No floats enter any normal form.

Conventions fixed project-wide:

* HNF is column-style: the HNF of a full-rank n-row integer matrix is the
  square upper-triangular basis of its column lattice (the lattice the
  columns span over Z), with positive pivots and every entry to the right
  of a pivot reduced into [0, pivot).  It is unique for the lattice, so
  equal lattices have equal HNFs (Cohen, GTM 138, Section 2.4).
* Discriminants, real-root counts, factorizations mod p and the
  irreducibility tests call sympy's exact dense-polynomial routines
  (coefficients highest-first).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from sympy import ZZ, Poly, Symbol, sieve
from sympy.polys.euclidtools import dup_discriminant
from sympy.polys.galoistools import gf_factor, gf_irreducible_p
from sympy.polys.rootisolation import dup_count_real_roots

from .errors import FieldConstructionError


def frac_str(x: Fraction) -> str:
    """A rational as report text: "n" when integral, else "n/d"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntMatrix:
    """Dense integer matrix; rows is a list of row lists."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = [list(map(int, r)) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows})"

    def column(self, j: int) -> list[int]:
        return [r[j] for r in self.rows]

    def columns(self) -> Iterator[list[int]]:
        for j in range(self.ncols):
            yield self.column(j)

    def diagonal(self) -> list[int]:
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]


def _combine_columns(rows: list[list[int]], j: int, k: int, row: int) -> None:
    """Unimodular column op making rows[row][j] = 0, rows[row][k] = gcd."""
    a, b = rows[row][j], rows[row][k]
    g, x, y = xgcd(a, b)
    aa, bb = a // g, b // g
    for r in rows:
        cj, ck = r[j], r[k]
        r[j] = cj * bb - ck * aa
        r[k] = cj * x + ck * y


def hnf_square(m: IntMatrix) -> IntMatrix:
    """HNF of a full-rank column lattice, as a square nonsingular matrix.

    m may have extra generating columns (ncols >= nrows).  Column
    operations, from the last row up, leave an upper-triangular staircase
    on the rightmost nrows columns and zeros to its left; a rank-deficient
    m raises ValueError.
    """
    h = [list(r) for r in m.rows]
    ncols = m.ncols
    pivot_col = ncols - 1
    for row in range(len(h) - 1, -1, -1):
        if pivot_col < 0:
            break
        for j in range(pivot_col):
            if h[row][j] != 0:
                _combine_columns(h, j, pivot_col, row)
        if h[row][pivot_col] == 0:
            continue  # row is zero on the working columns; pivot not consumed
        if h[row][pivot_col] < 0:
            for r in h:
                r[pivot_col] = -r[pivot_col]
        piv = h[row][pivot_col]
        for j in range(pivot_col + 1, ncols):
            q = h[row][j] // piv
            if q:
                for r in h:
                    r[j] -= q * r[pivot_col]
        pivot_col -= 1
    n = m.nrows
    out = IntMatrix([r[ncols - n:] for r in h])
    if any(out.rows[i][i] == 0 for i in range(n)):
        raise ValueError("column lattice does not have full rank")
    return out


def hnf_reduce(h: IntMatrix, v: Sequence[int]) -> list[int]:
    """Canonical representative of v modulo the column lattice of square HNF h.

    The result w satisfies 0 <= w[i] < h[i][i] and w == v mod the lattice.
    """
    w = list(map(int, v))
    n = h.nrows
    for i in range(n - 1, -1, -1):
        q = w[i] // h.rows[i][i]
        if q:
            for r in range(i + 1):
                w[r] -= q * h.rows[r][i]
    return w


def lattice_contains(h: IntMatrix, v: Sequence[int]) -> bool:
    """Does the column lattice of square HNF h contain v?"""
    return all(x == 0 for x in hnf_reduce(h, v))


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficients, used for defining polynomials)
# ---------------------------------------------------------------------------


class IntPolynomial:
    """Monic-friendly dense polynomial over Z; coeffs ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        c = [int(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def descending(self) -> list[int]:
        """Coefficient list highest-degree-first (sympy galoistools order)."""
        return list(reversed(self.coeffs))


def polynomial_discriminant(f: IntPolynomial) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f); 1 in degree 1."""
    if f.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    return int(dup_discriminant(f.descending(), ZZ))


def count_real_roots(f: IntPolynomial) -> int:
    """Number of distinct real roots of f, by sympy's exact Sturm count."""
    return dup_count_real_roots(f.descending(), ZZ)


def has_rational_root(f: IntPolynomial) -> bool:
    """Rational root test for monic f: candidates are divisors of f(0)."""
    c0 = f.coeffs[0]
    if c0 == 0:
        return True
    candidates = set()
    d = 1
    while d * d <= abs(c0):
        if c0 % d == 0:
            candidates.update({d, -d, abs(c0) // d, -(abs(c0) // d)})
        d += 1
    return any(f(r) == 0 for r in candidates)


def irreducibility_certificate(f: IntPolynomial, prime_bound: int = 1000) -> int:
    """Certify f monic irreducible over Q; return the certifying prime (0 if none).

    Degree <= 3 is settled by rational-root exclusion alone.  Higher degrees
    try irreducibility mod a prime p not dividing disc(f) with p <
    prime_bound first.  When no prime certifies f, sympy's exact
    factorization over Z decides: an irreducible quartic with Galois group
    V4, such as x^4 - x^2 + 1, is reducible mod every prime.
    """
    if f.degree < 1:  # before is_monic, which reads the leading coefficient
        raise FieldConstructionError("defining polynomial must have degree >= 1")
    if not f.is_monic():
        raise FieldConstructionError("defining polynomial must be monic")
    if f.degree == 1:
        return 0
    if has_rational_root(f):
        raise FieldConstructionError(f"{f!r} has a rational root, hence is reducible")
    if f.degree <= 3:
        return 0
    disc = polynomial_discriminant(f)
    for p in sieve.primerange(2, prime_bound):
        if disc % p == 0:
            continue
        if gf_irreducible_p([c % p for c in f.descending()], p, ZZ):
            return p
    if Poly(f.descending(), Symbol("x")).is_irreducible:
        return 0
    raise FieldConstructionError(f"{f!r} is reducible over Q")


def factor_mod_p(f: IntPolynomial, p: int) -> list[tuple[IntPolynomial, int]]:
    """Factor monic f mod p into monic irreducibles [(g, multiplicity)].

    Output is sorted by (degree, ascending coefficient tuple) so prime
    labelling downstream is deterministic.
    """
    _, factors = gf_factor([c % p for c in f.descending()], p, ZZ)
    out = []
    for coeffs_desc, mult in factors:
        g = IntPolynomial([int(c) % p for c in reversed(coeffs_desc)])
        out.append((g, int(mult)))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out
