"""Monogenic number fields K = Q[x]/(f) with O_K = Z[theta].

Only monogenic fields are supported: build_field runs the Dedekind
criterion at every prime whose square divides disc(f) and rejects the
polynomial otherwise.  All element arithmetic is exact (ints/Fractions
over the power basis 1, theta, ..., theta^(n-1)); floats appear only in
the embedding routines, which carry explicit working precision, and in
placing the ellipsoids of short_vectors.

NumberField.short_vectors is the package's one lattice-point enumerator:
Fincke-Pohst on an LLL-reduced basis, for the points with
T2(x) = sum |sigma(x)|^2 at most a radius.  It has three callers: torsion
(T2 <= n on the power basis), the unit search (class_unit) and the
generator searches (ideals).  The roots of unity are found once per
field; zeta_ell lies in K exactly when ell divides their number w, which
is all contains_zeta and the unit group read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import mpmath
from sympy import ZZ, factorint, isprime
from sympy.polys.galoistools import gf_gcd

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

    def multiplication_matrix(self) -> list[list[Fraction]]:
        """Matrix of y -> x*y over the power basis (columns are x*theta^j)."""
        K = self.field
        cols = []
        acc = self
        for _ in range(K.degree):
            cols.append(acc.coords)
            acc = acc * K.theta
        return [[Fraction(cols[j][i]) for j in range(K.degree)] for i in range(K.degree)]

    def trace(self) -> Fraction:
        tr = sum(Fraction(c) * p for c, p in zip(self.coords, self.field.power_traces))
        return Fraction(tr)

    def norm(self) -> Fraction:
        if all(isinstance(c, int) for c in self.coords):
            return Fraction(self.field.norm_int(self.coords))
        m = self.multiplication_matrix()
        return _det_fraction(m)

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


def _det_fraction(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    a = [row[:] for row in m]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / Fraction(a[k][k])
        for i in range(k + 1, n):
            if a[i][k] != 0:
                factor = a[i][k] * inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


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
        self.power_traces = self._newton_power_traces()
        self.zero = AlgebraicNumber(self, [0] * self.degree)
        self.one = AlgebraicNumber(self, [1] + [0] * (self.degree - 1))
        self.theta = AlgebraicNumber(
            self, [0, 1] + [0] * (self.degree - 2) if self.degree > 1 else [0]
        )
        self._roots_cache: tuple[int, list] | None = None
        self._torsion: tuple[AlgebraicNumber, int] | None = None  # torsion()
        self._zeta_ell: dict[int, AlgebraicNumber | None] = {}  # contains_zeta()
        self._norm_form: dict[tuple[int, ...], int] | None = None
        self._t2_rows: list[list[float]] | None = None  # _embed()
        self._generator_search_cache: dict[tuple, object] = {}  # units -> scale (ideals.py)
        self._prime_cache: dict[int, list] = {}  # p -> split_prime(K, p) (ideals.py)
        self._zeta_constants_cache: dict[tuple[int, int], object] = {}  # (ell, bound) (density.py)
        self._unit_group = None  # compute_unit_group (class_unit.py)
        self._class_group = None  # compute_class_group (class_unit.py)
        self._unit_group_cache: dict = {}  # modulus HNF -> (O_K/m)^* (abelian_groups.py)
        self._power_set_cache: dict = {}  # (modulus HNF, ell) -> ell-th powers (abelian_groups.py)
        self._sqfree_tally_cache: dict = {}  # (ell, X, excluded primes) -> tally (density.py)
        self.ell = 2  # Kummer degree attached by build_field

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

    def norm_form(self) -> dict[tuple[int, ...], int]:
        """The norm as an integer form: N(sum x_i theta^i) = sum c_m prod x^m.

        Expanded once per field from det of the generic multiplication
        matrix; evaluating the form is far cheaper than fraction-exact
        Gaussian elimination per element.
        """
        if self._norm_form is None:
            import sympy

            n = self.degree
            xs = sympy.symbols(f"x0:{n}")
            rows = [
                [
                    sum(xs[i] * self.theta_power(i + j)[r] for i in range(n))
                    for j in range(n)
                ]
                for r in range(n)
            ]
            det = sympy.Matrix(rows).det(method="berkowitz")
            poly = sympy.Poly(det, *xs)
            self._norm_form = {tuple(m): int(c) for m, c in poly.terms()}
        return self._norm_form

    def norm_int(self, coords: Sequence[int]) -> int:
        """Exact norm of an integral element given by int coordinates."""
        total = 0
        for mon, c in self.norm_form().items():
            t = c
            for x, e in zip(coords, mon):
                if e:
                    t *= x**e
            total += t
        return total

    def mul_int_coords(self, a: Sequence, b: Sequence) -> tuple:
        """Product of two elements given as coordinate tuples.

        Plain convolution folded through the theta-power table, with no
        element objects.  Int coordinates give an int tuple (residue
        arithmetic, ideal products); AlgebraicNumber.__mul__ passes its
        coordinates, Fractions included, through the same fold.
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

    def _newton_power_traces(self) -> list[int]:
        """Tr(theta^k) for k = 0..2n-2 via Newton's identities (exact).

        For monic f = x^n + a_{n-1}x^{n-1} + ... + a_0:
          p_k = -(sum_{i=1}^{min(k-1,n)} a_{n-i} p_{k-i}) - k*a_{n-k}   (k <= n)
          p_k = -(sum_{i=1}^{n} a_{n-i} p_{k-i})                        (k > n)
        """
        n = self.degree
        a = self.poly.coeffs
        p = [0] * (2 * n - 1 if n > 1 else 1)
        p[0] = n
        for k in range(1, len(p)):
            s = 0
            for i in range(1, min(k - 1, n) + 1):
                s += a[n - i] * p[k - i]
            if k <= n:
                s += k * a[n - k]
            p[k] = -s
        return p

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

    def _embed(self, coords: Sequence) -> list[float]:
        """x as a real n-vector of floats whose squared length is T2(x).

        One entry per real place, and sqrt(2) Re, sqrt(2) Im per complex
        place.  The matrix of the power basis is cached on the field.
        """
        if self._t2_rows is None:
            rts = self.roots(200)
            rows = []
            with mpmath.workprec(120):
                for i, rho in enumerate(rts):
                    powers = [rho**k for k in range(self.degree)]
                    real = i < self.r1
                    scale = 1 if real else mpmath.sqrt(2)
                    for part in (mpmath.re,) if real else (mpmath.re, mpmath.im):
                        rows.append([float(scale * part(p)) for p in powers])
            self._t2_rows = rows
        return [sum(r * c for r, c in zip(row, coords)) for row in self._t2_rows]

    def t2(self, coords: Sequence) -> float:
        """T2(x) = sum over the n embeddings of |sigma(x)|^2, in floats."""
        return sum(v * v for v in self._embed(coords))

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


def dedekind_q_maximal(f: IntPolynomial, q: int) -> bool:
    """Dedekind criterion: is Z[theta] maximal at q?

    With f = prod g_i^{e_i} mod q, set g = prod g_i, h = f/g mod q (monic
    lifts), F = (g*h - f)/q.  Z[theta] is q-maximal iff gcd(F, g, h) = 1
    in F_q[x].
    """
    factors = factor_mod_p(f, q)
    g = [1]
    for gi, _ in factors:
        g = _poly_mul_mod(g, list(gi.coeffs), q)
    h = [1]
    for gi, ei in factors:
        for _ in range(ei - 1):
            h = _poly_mul_mod(h, list(gi.coeffs), q)
    # integer lift product minus f, divided by q
    gh = _poly_mul_int(g, h)
    n = max(len(gh), len(f.coeffs))
    diff = [(gh[i] if i < len(gh) else 0) - (f.coeffs[i] if i < len(f.coeffs) else 0) for i in range(n)]
    if any(d % q for d in diff):
        raise ArithmeticError("g*h != f mod q; factorization inconsistent")
    F = [(d // q) % q for d in diff]
    # gcd over F_q via sympy (descending order, zero poly = [])
    def desc(c):
        c = [x % q for x in c]
        while c and c[-1] == 0:
            c.pop()
        return list(reversed(c))

    d1 = gf_gcd(desc(F), desc(g), q, ZZ)
    d2 = gf_gcd(d1, desc(h), q, ZZ)
    return len(d2) == 1  # constant gcd


def _poly_mul_mod(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def _poly_mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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
