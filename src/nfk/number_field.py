"""Monogenic number fields K = Q[x]/(f) with O_K = Z[theta].

Only monogenic fields are supported: build_field runs the Dedekind
criterion at every prime whose square divides disc(f) and rejects the
polynomial otherwise.  All element arithmetic is exact (ints/Fractions
over the power basis 1, theta, ..., theta^(n-1)); floats appear only in
the embedding routines, which carry explicit working precision, and in
placing the ellipsoids of short_vectors.

NumberField.short_vectors (Fincke-Pohst on an LLL-reduced basis) is the
package's one lattice-point enumerator.  Its callers are torsion (the
roots of unity, found once per field), the unit search and the Minkowski
ball of a class relation (class_unit), and the generator searches
(ideals).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import mpmath
from sympy import ZZ, factorint, isprime
from sympy.polys.densearith import dup_mul, dup_sub
from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_mul, gf_pow

from .errors import CeilingError, FieldConstructionError, MissingRootOfUnityError
from .exact_math import (
    IntPolynomial,
    count_real_roots,
    factor_mod_p,
    irreducibility_certificate,
    polynomial_discriminant,
)


class AlgebraicNumber:
    """Element of K as coordinates over the power basis; exact arithmetic."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "NumberField", coords: Sequence):
        self.field = field
        self.coords = tuple(
            c if isinstance(c, int) else (int(c) if Fraction(c).denominator == 1 else Fraction(c))
            for c in coords
        )
        if len(self.coords) != field.degree:
            raise ValueError("coordinate length != field degree")

    @classmethod
    def _of(cls, field: "NumberField", coords: tuple[int, ...]) -> "AlgebraicNumber":
        """The element of a tuple of field.degree ints, taken as is."""
        out = object.__new__(cls)
        out.field = field
        out.coords = coords
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraicNumber)
            and self.field is other.field
            and all(a == b for a, b in zip(self.coords, other.coords))
        )

    def __hash__(self) -> int:
        return hash(tuple(Fraction(c) for c in self.coords))

    def __repr__(self) -> str:
        return f"<{' + '.join(f'{c}*t^{i}' for i, c in enumerate(self.coords))} in {self.field.label}>"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_one(self) -> bool:
        return self.coords[0] == 1 and all(c == 0 for c in self.coords[1:])

    def is_integral(self) -> bool:
        return all(isinstance(c, int) or Fraction(c).denominator == 1 for c in self.coords)

    def int_coords(self) -> list[int]:
        if not self.is_integral():
            raise ValueError(f"{self!r} is not integral")
        return [int(c) for c in self.coords]

    def __add__(self, other: "AlgebraicNumber") -> "AlgebraicNumber":
        return AlgebraicNumber(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "AlgebraicNumber") -> "AlgebraicNumber":
        return AlgebraicNumber(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self.field, [-a for a in self.coords])

    def __mul__(self, other) -> "AlgebraicNumber":
        if isinstance(other, (int, Fraction)):
            return AlgebraicNumber(self.field, [a * other for a in self.coords])
        return AlgebraicNumber(self.field, self.field.mul_int_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "AlgebraicNumber":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def norm(self) -> Fraction:
        """N(x) from the norm form: N(a) / d^n for x = a/d (_int_scaled)."""
        if all(isinstance(c, int) for c in self.coords):
            return Fraction(self.field.norm_int(self.coords))
        a, d = _int_scaled(self.coords)
        return Fraction(self.field.norm_int(a), d**self.field.degree)

    def inverse(self) -> "AlgebraicNumber":
        """1/x, on the one division path (__truediv__)."""
        return self.field.one / self

    def __truediv__(self, other: "AlgebraicNumber") -> "AlgebraicNumber":
        """x / y as the solution z of y z = x, by one fraction-free solve.

        With x = a/d and y = b/e for integral a, b and least common
        denominators d, e, the vector d z solves b (d z) = e a on the int
        multiplication matrix of b (_solve_int, which divides by d at the
        end).  Every operand, integral or not, takes this path.
        """
        if isinstance(other, (int, Fraction)):
            return AlgebraicNumber(self.field, [Fraction(a, 1) / other for a in self.coords])
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        K = self.field
        a, d = _int_scaled(self.coords)
        b, e = _int_scaled(other.coords)
        cols = [K.mul_int_coords(b, K.theta_power(j)) for j in range(K.degree)]
        m = [list(r) for r in zip(*cols)]
        return AlgebraicNumber(K, _solve_int(m, [e * c for c in a], d))


def _int_scaled(coords: Sequence) -> tuple[list[int], int]:
    """(a, d) with coords = a/d for int a and d the least common denominator."""
    d = math.lcm(*(c.denominator for c in coords if isinstance(c, Fraction)))
    return [int(c * d) for c in coords], d


def _solve_int(m: list[list[int]], rhs: Sequence[int], den: int = 1) -> list:
    """The solution x of m x = rhs / den for a nonsingular int matrix, by
    Bareiss's fraction-free elimination.

    Forward elimination keeps every entry an int (each division is exact:
    the entries are minors of the augmented matrix), and the last pivot D
    is +-det(m), so D x is an int vector (Cramer) and the back substitution
    divides exactly too.  At the end each coordinate is divided by D den:
    an int where that is exact, else one Fraction.
    """
    n = len(m)
    a = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        a[k], a[piv] = a[piv], a[k]
        akk, rowk = a[k][k], a[k]
        for i in range(k + 1, n):
            aik, rowi = a[i][k], a[i]
            a[i] = [
                0 if j <= k else (akk * rowi[j] - aik * rowk[j]) // prev for j in range(n + 1)
            ]
        prev = akk
    det = a[n - 1][n - 1]
    x = [0] * n  # det * solution
    for i in range(n - 1, -1, -1):
        acc = det * a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = acc // a[i][i]
    det *= den
    return [v // det if v % det == 0 else Fraction(v, det) for v in x]


def _gram_schmidt(vecs: list[list[float]]) -> tuple[list[list[float]], list[float]]:
    """mu coefficients and squared lengths of the Gram-Schmidt vectors."""
    n = len(vecs)
    mu = [[0.0] * n for _ in range(n)]
    stars: list[list[float]] = []
    sq: list[float] = []
    for i, v in enumerate(vecs):
        w = list(v)
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(v, stars[j])) / sq[j]
            w = [x - mu[i][j] * y for x, y in zip(w, stars[j])]
        stars.append(w)
        sq.append(sum(x * x for x in w))
    return mu, sq


def _lll_reduce(cols: list[list[int]], embed) -> list[list[int]]:
    """LLL reduction (delta = 0.99) of integer columns under a real embedding.

    The reduced columns span the same lattice, exactly: the floats only
    steer the reduction, and every vector is re-embedded from its exact
    integer coordinates.
    """
    n = len(cols)
    basis = [list(c) for c in cols]
    vecs = [embed(c) for c in basis]
    mu, sq = _gram_schmidt(vecs)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                vecs[k] = embed(basis[k])
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if sq[k] >= (0.99 - mu[k][k - 1] ** 2) * sq[k - 1]:
            k += 1
        else:
            for lst in (basis, vecs):
                lst[k - 1], lst[k] = lst[k], lst[k - 1]
            mu, sq = _gram_schmidt(vecs)
            k = max(k - 1, 1)
    return basis


class NumberField:
    """K = Q[x]/(f) with ring of integers Z[theta]; theta = class of x."""

    def __init__(self, poly: IntPolynomial, label: str = ""):
        self.poly = poly
        self.degree = poly.degree
        self.label = label or f"deg{self.degree}-{poly.coeffs}"
        self.disc = polynomial_discriminant(poly) if self.degree > 1 else 1
        self.r1 = count_real_roots(poly)
        self.r2 = (self.degree - self.r1) // 2
        self._theta_powers: dict[int, tuple[int, ...]] = {}
        self.zero = AlgebraicNumber(self, [0] * self.degree)
        self.one = AlgebraicNumber(self, [1] + [0] * (self.degree - 1))
        self.theta = AlgebraicNumber(
            self, [0, 1] + [0] * (self.degree - 2) if self.degree > 1 else [0]
        )
        self._roots_cache: tuple[int, list] | None = None
        self._torsion: tuple[AlgebraicNumber, int] | None = None  # torsion()
        self._zeta_ell: dict[int, AlgebraicNumber | None] = {}  # contains_zeta()
        self._norm_terms: list[tuple[int, tuple]] | None = None  # _norm_form_terms()
        self._prime_cache: dict[int, list] = {}  # p -> split_prime(K, p) (ideals.py)
        self._zeta_constants_cache: dict[tuple[int, int], object] = {}  # (ell, bound) (density.py)
        self._unit_group = None  # compute_unit_group (class_unit.py)
        self._class_group = None  # compute_class_group (class_unit.py)
        self._depth_cache: dict = {}  # prime over ell -> residue -> depth (kummer._depth_table)
        self._sqfree_tally_cache: dict = {}  # (ell, X, excluded primes) -> tally (density.py)
        self.ell = 2  # Kummer degree attached by build_field
        # degree <= 3: straight-line kernels with their constants read off f
        n = self.degree
        if n <= 3:
            self.mul_int_coords = _mul_kernel([self.theta_power(k) for k in range(n, 2 * n - 1)])
            self._norm = _norm_kernel(self.poly.coeffs)
        else:
            self._norm = self._norm_form

    # -- basis bookkeeping --------------------------------------------------

    def theta_power(self, k: int) -> tuple[int, ...]:
        """Coordinates of theta^k over the power basis (exact ints)."""
        n = self.degree
        if k < n:
            return tuple(1 if i == k else 0 for i in range(n))
        cached = self._theta_powers.get(k)
        if cached is not None:
            return cached
        prev = self.theta_power(k - 1)
        # theta^k = theta * theta^(k-1); theta^n = -(c0 + ... + c_{n-1} theta^{n-1})
        shifted = [0] + list(prev[:-1])
        top = prev[-1]
        if top:
            for i in range(n):
                shifted[i] -= top * self.poly.coeffs[i]
        out = tuple(shifted)
        self._theta_powers[k] = out
        return out

    def _norm_form_terms(self) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """The norm as an integer form, N(sum x_i theta^i) = sum c prod x_i^e_i,
        one (c, ((i, e_i), ...)) per monomial with its nonzero exponents only.

        Expanded once per field from det of the generic multiplication
        matrix, whose (r, j) entry is the linear form sum_i x_i theta^(i+j)_r,
        in plain ints: the minor on the last k rows and a set of k columns is
        a {exponent tuple: coefficient} dict, expanded along its first row
        into minors on one column fewer.  Evaluating the form is far cheaper
        than fraction-exact Gaussian elimination per element.
        """
        if self._norm_terms is None:
            n = self.degree
            entries = [[[self.theta_power(i + j)[r] for i in range(n)] for j in range(n)]
                       for r in range(n)]
            minors = {0: {(0,) * n: 1}}  # column mask -> minor
            for mask in sorted(range(1, 1 << n), key=int.bit_count):
                got, sign, row = {}, 1, entries[n - mask.bit_count()]
                for j in range(n):
                    if mask >> j & 1:
                        sub = minors[mask ^ 1 << j]
                        for i, c1 in enumerate(row[j]):
                            if c1:
                                for e2, c2 in sub.items():
                                    e = e2[:i] + (e2[i] + 1,) + e2[i + 1:]
                                    got[e] = got.get(e, 0) + sign * c1 * c2
                        sign = -sign
                minors[mask] = {e: c for e, c in got.items() if c}
            self._norm_terms = [
                (c, tuple((i, k) for i, k in enumerate(e) if k))
                for e, c in minors[(1 << n) - 1].items()
            ]
        return self._norm_terms

    def norm_int(self, coords: Sequence[int]) -> int:
        """Exact norm of an integral element given by int coordinates.

        In degree <= 3 a closed form picked in __init__ (_norm_kernel), in
        degree >= 4 the norm form (_norm_form).  It stays a method of the
        class, so that one patch of NumberField.norm_int sees every call
        (perfbench counts box points that way).
        """
        return self._norm(coords)

    def _norm_form(self, coords: Sequence[int]) -> int:
        """The norm form at int coordinates, monomial by monomial."""
        total = 0
        for c, factors in self._norm_terms or self._norm_form_terms():
            for i, e in factors:
                c *= coords[i] ** e
            total += c
        return total

    def mul_int_coords(self, a: Sequence, b: Sequence) -> tuple:
        """Product of two elements given as coordinate tuples.

        Plain convolution folded through the theta-power table, with no
        element objects.  Int coordinates give an int tuple (residue
        arithmetic, ideal products); AlgebraicNumber.__mul__ passes its
        coordinates, Fractions included, through the same fold.  A field of
        degree <= 3 shadows this method with a straight-line product set in
        __init__ (_mul_kernel); the loop stays the path of degree >= 4 and
        the tests' reference.
        """
        n = self.degree
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = list(conv[:n])
        for k in range(n, 2 * n - 1):
            ck = conv[k]
            if ck:
                tp = self.theta_power(k)
                for i in range(n):
                    out[i] += ck * tp[i]
        return tuple(out)

    def element(self, coords: Sequence) -> AlgebraicNumber:
        return AlgebraicNumber(self, coords)

    def from_int(self, a) -> AlgebraicNumber:
        return AlgebraicNumber(self, [a] + [0] * (self.degree - 1))

    # -- analytic data -------------------------------------------------------

    def roots(self, prec_bits: int = 200) -> list:
        """Roots of f ordered: real ascending, then complex (im > 0) by (re, im)."""
        if self._roots_cache is not None and self._roots_cache[0] >= prec_bits:
            return self._roots_cache[1]
        work = max(prec_bits, 200)
        with mpmath.workprec(work + 40):
            raw = mpmath.polyroots(self.poly.descending(), maxsteps=400, extraprec=120)
            tiny = mpmath.mpf(2) ** (-(work // 2))
            reals = sorted(mpmath.mpc(r).real for r in raw if abs(mpmath.mpc(r).imag) < tiny)
            comps = sorted(
                (mpmath.mpc(r) for r in raw if mpmath.mpc(r).imag >= tiny),
                key=lambda z: (z.real, z.imag),
            )
            ordered = list(reals) + list(comps)
        if len(ordered) != self.r1 + self.r2:
            raise ArithmeticError("root classification disagrees with Sturm signature")
        self._roots_cache = (work, ordered)
        return ordered

    def embeddings(self, x: AlgebraicNumber, prec_bits: int = 64) -> list:
        """Values of x under the r1 real and r2 complex embeddings (one per pair)."""
        rts = self.roots(max(200, prec_bits + 60))
        with mpmath.workprec(prec_bits + 60):
            out = []
            for rho in rts:
                acc = mpmath.mpf(0) if isinstance(rho, mpmath.mpf) else mpmath.mpc(0)
                for c in reversed(x.coords):
                    acc = acc * rho + (
                        mpmath.mpf(c) if isinstance(c, int) else mpmath.mpf(c.numerator) / c.denominator
                    )
                out.append(acc)
        return out

    def minkowski_bound(self) -> Fraction:
        """Exact rational upper estimate of the Minkowski bound."""
        n = self.degree
        base = Fraction(math.factorial(n), n**n)
        # 4/pi < 4/3.14159265358979 ; sqrt(|d|) <= (isqrt(|d| * 10^12) + 1) / 10^6
        four_over_pi = Fraction(4 * 10**14, 314159265358979)
        scaled = abs(self.disc) * 10**12
        sqrt_up = Fraction(math.isqrt(scaled) + 1, 10**6)
        return base * four_over_pi**self.r2 * sqrt_up

    # -- short lattice vectors -------------------------------------------------

    @functools.cached_property
    def _t2_rows(self) -> list[list[float]]:
        """The power basis under _embed: one row per real place, and sqrt(2)
        Re, sqrt(2) Im rows per complex place, from the roots at 200 bits."""
        rows = []
        with mpmath.workprec(120):
            for i, rho in enumerate(self.roots(200)):
                powers = [rho**k for k in range(self.degree)]
                real = i < self.r1
                scale = 1 if real else mpmath.sqrt(2)
                for part in (mpmath.re,) if real else (mpmath.re, mpmath.im):
                    rows.append([float(scale * part(p)) for p in powers])
        return rows

    @functools.cached_property
    def _embed(self) -> Callable[[Sequence], list[float]]:
        """x -> a real n-vector of floats whose squared length is T2(x).

        Each entry is the sum over the basis of row entry times coordinate
        (_t2_rows), left to right from 0 (as sum() adds floats up to Python
        3.11; 3.12 compensates).  Degree <= 3 unrolls the rows
        (_embed_kernel) into the same additions, so every float is the one
        the generic sum gives, bit for bit.  Built on first use.
        """
        rows = self._t2_rows
        if self.degree <= 3:
            return _embed_kernel(rows)
        return lambda coords: [sum(r * c for r, c in zip(row, coords)) for row in rows]

    def t2(self, coords: Sequence) -> float:
        """T2(x) = sum over the n embeddings of |sigma(x)|^2, in floats."""
        return sum(v * v for v in self._embed(coords))

    def _place_sq(self, v: list[float]) -> list[float]:
        """|sigma(x)|^2 at each of the r1 + r2 places, from v = _embed(x)."""
        r1 = self.r1
        sq = [x * x for x in v[:r1]]
        return sq + [(a * a + b * b) / 2 for a, b in zip(v[r1::2], v[r1 + 1::2])]

    def max_embedding_sq(self, coords: Sequence) -> float:
        """max over the places of |sigma(x)|^2, in floats."""
        return max(self._place_sq(self._embed(coords)))

    def log_abs_embeddings(self, coords: Sequence[int]) -> list[float]:
        """log |sigma(x)| at each of the r1 + r2 places, for nonzero int
        coordinates, each good to about 1e-9.

        Floats from _embed serve where at every place the terms' magnitudes
        sum to at most 2^20 |sigma(x)|, so that rounding costs at most a
        relative 2^-30 or so.  Otherwise mpmath evaluates x at a precision
        that doubles until the same test holds with 2^-prec for 2^-53.
        """
        sq = self._place_sq(self._embed(coords))
        sizes = [sum(abs(r * c) for r, c in zip(row, coords)) for row in self._t2_rows]
        r1 = self.r1
        bound = sizes[:r1] + [a + b for a, b in zip(sizes[r1::2], sizes[r1 + 1::2])]
        if all(s > (b * 2.0**-20) ** 2 for s, b in zip(sq, bound)):
            return [math.log(s) / 2 for s in sq]
        prec = 128
        while True:
            with mpmath.workprec(prec):
                vals = [abs(v) for v in self.embeddings(self.element(coords), prec)]
                if all(v * mpmath.mpf(2) ** (prec - 30) > b for v, b in zip(vals, bound)):
                    return [float(mpmath.log(v)) for v in vals]
            prec *= 2

    def short_vectors(
        self, cols: Iterable[Sequence[int]], radius: float, limit: int | None = None
    ) -> Iterator[list[int]]:
        """Every nonzero x in the lattice spanned by cols with T2(x) <= radius.

        Fincke-Pohst enumeration (Cohen, GTM 138, 2.7.3) on an LLL-reduced
        basis; yields power-basis coordinates.  The floats only place the
        ellipsoid, with the radius widened by a relative 1e-6; the
        coordinates are exact.  Every lattice point visited, the origin
        included, counts against limit, and one past it raises CeilingError.
        """
        basis = _lll_reduce([list(c) for c in cols], self._embed)
        n = len(basis)
        mu, sq = _gram_schmidt([self._embed(b) for b in basis])
        radius *= 1 + 1e-6
        limit = math.inf if limit is None else limit
        xs = [0] * n
        points = 0

        # x = sum_j xs[j] basis[j] has T2(x) =
        # sum_j sq[j] (xs[j] + sum_{i>j} mu[i][j] xs[i])^2; fix xs[n-1], ..., xs[0]
        # in turn, each within the interval its remaining radius allows.
        # `partial` holds the power-basis coordinates of sum_{i>j} xs[i] basis[i].
        def descend(j: int, used: float, partial: list[int]):
            nonlocal points
            c = sum(mu[i][j] * xs[i] for i in range(j + 1, n))
            half = math.sqrt(max(radius - used, 0.0) / sq[j])
            row = range(math.ceil(-c - half), math.floor(-c + half) + 1)
            if j:
                for x in row:
                    xs[j] = x
                    coords = [p + x * b for p, b in zip(partial, basis[j])]
                    yield from descend(j - 1, used + sq[j] * (x + c) ** 2, coords)
                xs[j] = 0
                return
            points += len(row)
            if points > limit:
                raise CeilingError(f"short-vector search past {limit} lattice points", limit)
            for x in row:
                coords = [p + x * b for p, b in zip(partial, basis[0])]
                if any(coords):
                    yield coords

        yield from descend(n - 1, 0.0, [0] * self.degree)

    # -- roots of unity -------------------------------------------------------

    def torsion(self) -> tuple[AlgebraicNumber, int]:
        """(zeta, w): a generator of the roots of unity in K and their number.

        A root of unity has every |sigma| = 1, so T2 = n.  A nonzero
        integral x with T2(x) <= n has |N(x)|^(2/n) <= T2(x)/n <= 1 by
        AM-GM, so it is a unit, and it is a root of unity exactly when its
        order is finite.  zeta is the root of largest order, ties broken by
        largest int_coords.  Cached on the field.
        """
        if self._torsion is None:
            n = self.degree
            power_basis = [self.theta_power(k) for k in range(n)]
            found = []
            for coords in self.short_vectors(power_basis, n):
                x = self.element(coords)
                order = self.element_order(x, 4 * n * n)
                if order is not None:
                    found.append((order, coords, x))
            w = len(found)
            if w % 2:
                raise ArithmeticError(f"odd torsion count {w}")
            self._torsion = (max(found, key=lambda t: t[:2])[2], w)
        return self._torsion

    def contains_zeta(self, ell: int) -> AlgebraicNumber | None:
        """zeta^(w/ell), a primitive ell-th root of unity in K, or None when
        ell does not divide w.  Raises ValueError for a non-prime ell.
        Cached per ell on the field."""
        if ell not in self._zeta_ell:
            if not isprime(ell):
                raise ValueError("ell must be prime")
            zeta, w = self.torsion()
            self._zeta_ell[ell] = zeta ** (w // ell) if w % ell == 0 else None
        return self._zeta_ell[ell]

    def element_order(self, x: AlgebraicNumber, cap: int = 64) -> int | None:
        """Multiplicative order of x if <= cap, else None."""
        acc = x
        for k in range(1, cap + 1):
            if acc.is_one():
                return k
            acc = acc * x
        return None


# -- straight-line kernels in degree <= 3 ----------------------------------------
#
# NumberField.__init__ and NumberField._embed build them once per field; the
# constants of f are closure locals, and the products are written out in full.


def _mul_kernel(fold: list[tuple[int, ...]]) -> Callable[[Sequence, Sequence], tuple]:
    """x*y in degree n <= 3 from fold = [theta^n, ..., theta^(2n-2)].

    The terms of the convolution at theta^n and theta^(n+1) fold in as
    multiples of those coordinates.  Fraction coordinates work unchanged.
    """
    if not fold:
        return lambda a, b: (a[0] * b[0],)
    if len(fold) == 1:
        (p0, p1), = fold

        def mul2(a: Sequence, b: Sequence) -> tuple:
            a0, a1 = a
            b0, b1 = b
            s = a1 * b1
            return (a0 * b0 + p0 * s, a0 * b1 + a1 * b0 + p1 * s)

        return mul2
    (p0, p1, p2), (q0, q1, q2) = fold

    def mul3(a: Sequence, b: Sequence) -> tuple:
        a0, a1, a2 = a
        b0, b1, b2 = b
        s, t = a1 * b2 + a2 * b1, a2 * b2
        return (
            a0 * b0 + p0 * s + q0 * t,
            a0 * b1 + a1 * b0 + p1 * s + q1 * t,
            a0 * b2 + a1 * b1 + a2 * b0 + p2 * s + q2 * t,
        )

    return mul3


def _norm_kernel(c: Sequence[int]) -> Callable[[Sequence[int]], int]:
    """N(x) for int coordinates in degree n <= 3, f = c0 + c1 x + ... + x^n.

    Degree 2: N(a0 + a1 theta) = a0 (a0 - c1 a1) + c0 a1^2.  Degree 3: the
    determinant of the columns a, theta a, theta^2 a, where theta sends
    (b0, b1, b2) to (-c0 b2, b0 - c1 b2, b1 - c2 b2).
    """
    if len(c) == 2:
        return lambda a: a[0]
    if len(c) == 3:
        c0, c1 = c[0], c[1]

        def norm2(a: Sequence[int]) -> int:
            a0, a1 = a
            return a0 * (a0 - c1 * a1) + c0 * a1 * a1

        return norm2
    c0, c1, c2 = c[0], c[1], c[2]

    def norm3(a: Sequence[int]) -> int:
        a0, a1, a2 = a
        b0, b1, b2 = -c0 * a2, a0 - c1 * a2, a1 - c2 * a2
        d0, d1, d2 = -c0 * b2, b0 - c1 * b2, b1 - c2 * b2
        return a0 * (b1 * d2 - b2 * d1) - b0 * (a1 * d2 - a2 * d1) + d0 * (a1 * b2 - a2 * b1)

    return norm3


def _embed_kernel(rows: list[list[float]]) -> Callable[[Sequence], list[float]]:
    """NumberField._embed in degree n <= 3: each row times x, unrolled and
    added in sum()'s order, 0 + r0 x0 + r1 x1 + r2 x2."""
    if len(rows) == 1:
        (r,), = rows
        return lambda x: [0 + r * x[0]]
    if len(rows) == 2:
        (r00, r01), (r10, r11) = rows

        def embed2(x: Sequence) -> list[float]:
            x0, x1 = x
            return [0 + r00 * x0 + r01 * x1, 0 + r10 * x0 + r11 * x1]

        return embed2
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows

    def embed3(x: Sequence) -> list[float]:
        x0, x1, x2 = x
        return [
            0 + r00 * x0 + r01 * x1 + r02 * x2,
            0 + r10 * x0 + r11 * x1 + r12 * x2,
            0 + r20 * x0 + r21 * x1 + r22 * x2,
        ]

    return embed3


def dedekind_q_maximal(f: IntPolynomial, q: int) -> bool:
    """Dedekind criterion: is Z[theta] maximal at q?

    With f = prod g_i^{e_i} mod q, set g = prod g_i, h = f/g mod q (monic
    lifts), F = (g*h - f)/q.  Z[theta] is q-maximal iff gcd(F, g, h) = 1
    in F_q[x].
    """
    g = h = [1]
    for gi, ei in factor_mod_p(f, q):
        g = gf_mul(g, gi.descending(), q, ZZ)
        h = gf_mul(h, gf_pow(gi.descending(), ei - 1, q, ZZ), q, ZZ)
    diff = dup_sub(dup_mul(g, h, ZZ), f.descending(), ZZ)  # integer lifts, coefficients in [0, q)
    if any(d % q for d in diff):
        raise ArithmeticError("g*h != f mod q; factorization inconsistent")
    F = gf_from_int_poly([d // q for d in diff], q)
    return len(gf_gcd(gf_gcd(F, g, q, ZZ), h, q, ZZ)) == 1  # constant gcd


def build_field(coeffs: Sequence[int], ell: int = 2, label: str = "") -> NumberField:
    """Construct a monogenic number field and check it supports ell-Kummer theory.

    coeffs are ascending with leading 1.  Raises FieldConstructionError for
    non-monic/reducible/non-monogenic input and MissingRootOfUnityError if
    zeta_ell is not in the field.
    """
    f = IntPolynomial(coeffs)
    irreducibility_certificate(f)
    if f.degree > 1:
        disc = polynomial_discriminant(f)
        if disc == 0:
            raise FieldConstructionError("defining polynomial is not separable")
        for q, e in factorint(abs(disc)).items():
            if e >= 2 and not dedekind_q_maximal(f, q):
                raise FieldConstructionError(
                    f"Z[theta] is not maximal at {q}; non-monogenic input is unsupported"
                )
    K = NumberField(f, label=label)
    if not isprime(ell):
        raise FieldConstructionError(f"ell = {ell} is not prime")
    if K.contains_zeta(ell) is None:
        raise MissingRootOfUnityError(
            f"field {K.label} does not contain a primitive {ell}-th root of unity"
        )
    K.ell = ell
    return K
