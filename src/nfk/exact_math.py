"""Exact integer/rational linear algebra and polynomial utilities.

Everything here is arbitrary precision: matrices hold Python ints,
rationals are fractions.Fraction.  No floats enter any normal form.

Conventions fixed project-wide:

* HNF is column-style (column operations only; H = M @ U with U unimodular),
  upper triangular on the rightmost columns, pivots positive, and every
  entry to the right of a pivot reduced into [0, pivot).
* Determinants use the Bareiss fraction-free elimination (exact division).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from sympy import ZZ
from sympy.polys.galoistools import gf_factor, gf_irreducible_p

from .errors import FieldConstructionError

# Arbitrary-precision rational type used across the package.
BigRational = Fraction


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

    @staticmethod
    def zero(nrows: int, ncols: int) -> "IntMatrix":
        return IntMatrix([[0] * ncols for _ in range(nrows)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.rows)) if other.rows else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.rows]
        )

    def column(self, j: int) -> list[int]:
        return [r[j] for r in self.rows]

    def columns(self) -> Iterator[list[int]]:
        for j in range(self.ncols):
            yield self.column(j)

    def diagonal(self) -> list[int]:
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]


def det_int(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _combine_columns(rows: list[list[int]], j: int, k: int, row: int) -> None:
    """Unimodular column op making rows[row][j] = 0, rows[row][k] = gcd."""
    a, b = rows[row][j], rows[row][k]
    g, x, y = xgcd(a, b)
    aa, bb = a // g, b // g
    for r in rows:
        cj, ck = r[j], r[k]
        r[j] = cj * bb - ck * aa
        r[k] = cj * x + ck * y


def _hnf_in_place(h: list[list[int]], extra: list[list[int]]) -> None:
    """Column-style HNF of the rows h, in place.

    Every column operation is applied to the rows of extra as well (hnf
    passes the unimodular transform there, hnf_square nothing).
    """
    ncols = len(h[0]) if h else 0
    work = h + extra  # column ops applied to both at once
    pivot_col = ncols - 1
    for row in range(len(h) - 1, -1, -1):
        if pivot_col < 0:
            break
        for j in range(pivot_col):
            if h[row][j] != 0:
                _combine_columns(work, j, pivot_col, row)
        if h[row][pivot_col] == 0:
            continue  # row is zero on the working columns; pivot not consumed
        if h[row][pivot_col] < 0:
            for r in work:
                r[pivot_col] = -r[pivot_col]
        piv = h[row][pivot_col]
        for j in range(pivot_col + 1, ncols):
            q = h[row][j] // piv
            if q:
                for r in work:
                    r[j] -= q * r[pivot_col]
        pivot_col -= 1


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form.

    Returns (h, u) with h = m @ u and u unimodular.  The nonzero columns of
    h form an upper-triangular staircase occupying the rightmost columns:
    pivots positive, entries to the right of each pivot reduced mod the
    pivot.  Zero matrices are fine (h = 0, u = I).
    """
    h = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(m.ncols)] for i in range(m.ncols)]
    _hnf_in_place(h, u)
    return IntMatrix(h), IntMatrix(u)


def hnf_square(m: IntMatrix) -> IntMatrix:
    """HNF of a full-rank column lattice, as a square nonsingular matrix.

    m may have extra generating columns (ncols >= nrows); the result is the
    rightmost nrows columns of the staircase, equal to that block of
    hnf(m)[0].  No unimodular transform is built: for the product of two
    degree-n ideals it would be n^2 x n^2 beside the n x n^2 lattice.
    """
    h = [list(r) for r in m.rows]
    _hnf_in_place(h, [])
    n = m.nrows
    out = IntMatrix([r[m.ncols - n:] for r in h])
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

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial([0])
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def descending(self) -> list[int]:
        """Coefficient list highest-degree-first (sympy galoistools order)."""
        return list(reversed(self.coeffs))


def polynomial_discriminant(f: IntPolynomial) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), via a Sylvester determinant."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    fp = f.derivative()
    m = n + fp.degree
    rows = []
    fd = f.descending()
    fpd = fp.descending()
    for i in range(fp.degree):  # n-1 shifted copies of f
        rows.append([0] * i + fd + [0] * (m - n - 1 - i))
    for i in range(n):  # n shifted copies of f'
        rows.append([0] * i + fpd + [0] * (m - fp.degree - 1 - i))
    res = det_int(IntMatrix(rows))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    disc = sign * res
    if disc % f.coeffs[-1] != 0:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return disc // f.coeffs[-1]


def _sturm_chain(f: IntPolynomial) -> list[list[Fraction]]:
    p0 = [Fraction(c) for c in f.coeffs]
    p1 = [Fraction(c) for c in f.derivative().coeffs]
    chain = [p0, p1]
    while True:
        a, b = chain[-2], chain[-1]
        if len(b) == 1 and b[0] == 0:
            chain.pop()
            break
        # polynomial remainder a mod b
        r = list(a)
        while len(r) >= len(b) and any(x != 0 for x in r):
            while len(r) > 1 and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[i + shift] -= q * bc
            while len(r) > 1 and r[-1] == 0:
                r.pop()
        neg = [-x for x in r]
        if all(x == 0 for x in neg):
            break
        chain.append(neg)
    return chain


def count_real_roots(f: IntPolynomial) -> int:
    """Number of distinct real roots of f, by Sturm's theorem (exact)."""

    def sign_changes(at_plus_infinity: bool) -> int:
        signs = []
        for p in _sturm_chain(f):
            lead = p[-1]
            if lead == 0:
                continue
            s = 1 if lead > 0 else -1
            if not at_plus_infinity and (len(p) - 1) % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return sign_changes(False) - sign_changes(True)


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
    """Certify f monic irreducible over Q; return the certifying prime (0 if none needed).

    Degree <= 3 is settled by rational-root exclusion alone.  Higher degrees
    additionally need irreducibility mod some prime p not dividing disc(f)
    with p < prime_bound; if no such certificate exists the polynomial is
    rejected (raises), per the desk-scale build contract.
    """
    if not f.is_monic():
        raise FieldConstructionError("defining polynomial must be monic")
    if f.degree < 1:
        raise FieldConstructionError("defining polynomial must have degree >= 1")
    if f.degree == 1:
        return 0
    if has_rational_root(f):
        raise FieldConstructionError(f"{f!r} has a rational root, hence is reducible")
    if f.degree <= 3:
        return 0
    disc = polynomial_discriminant(f)
    from sympy import primerange

    for p in primerange(2, prime_bound):
        if disc % p == 0:
            continue
        if gf_irreducible_p([c % p for c in f.descending()], p, ZZ):
            return p
    raise FieldConstructionError(
        f"no irreducibility certificate for {f!r} below prime bound {prime_bound}"
    )


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
