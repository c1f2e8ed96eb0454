"""Ideal arithmetic over O_K = Z[theta] in Hermite normal form.

Integral ideals are column lattices in power-basis coordinates, stored as
the square upper-triangular HNF fixed in exact_math.  Fractional ideals
are (integral numerator, positive integer denominator), reduced.  Where a
full factorization is already known, FactoredIdeal keeps {prime: exponent}
(negative exponents allowed) and does group-like arithmetic without any
lattice inversions.

Generator searches (principality tests) enumerate lattice elements of the
correct norm exactly: closed-form in degree 1, a positive-definite binary
form solve for imaginary quadratics, and otherwise a Fincke-Pohst
enumeration, on an LLL-reduced basis of the ideal, of an ellipsoid that
holds a unit multiple of every generator.  The canonical generator — the
F-map used throughout the Kummer layer — is the match minimizing the
largest embedding magnitude, ties broken by smallest coordinate key (|c|
before sign, so 2 beats -2).  In imaginary quadratic fields every match
ties, and the coordinate key alone decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import mpmath
from sympy import ZZ, factorint, primerange
from sympy.polys.galoistools import gf_ddf_zassenhaus

from .config import Ceilings
from .errors import CeilingError, NotASquareError, NotPrincipalError, RankError
from .exact_math import IntMatrix, IntPolynomial, hnf_reduce, hnf_square, lattice_contains
from .number_field import AlgebraicNumber, NumberField


class Ideal:
    """Nonzero integral ideal as a square HNF column lattice."""

    __slots__ = ("field", "hnf")

    def __init__(self, field: NumberField, hnf_matrix: IntMatrix):
        self.field = field
        self.hnf = hnf_matrix

    @staticmethod
    def one(field: NumberField) -> "Ideal":
        return Ideal(field, IntMatrix.identity(field.degree))

    def norm(self) -> int:
        n = 1
        for d in self.hnf.diagonal():
            n *= d
        return n

    def is_one(self) -> bool:
        return all(x == (i == j) for i, row in enumerate(self.hnf.rows) for j, x in enumerate(row))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ideal) and self.field is other.field and self.hnf == other.hnf

    def __hash__(self) -> int:
        return hash(self.hnf)

    def __repr__(self) -> str:
        return f"Ideal(norm={self.norm()}, hnf={self.hnf.rows})"

    def contains(self, x: AlgebraicNumber) -> bool:
        return lattice_contains(self.hnf, x.int_coords())

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(lattice_contains(self.hnf, col) for col in other.hnf.columns())

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Canonical residue representative of a coordinate vector mod the ideal."""
        return tuple(hnf_reduce(self.hnf, coords))

    def residues(self) -> Iterator[tuple[int, ...]]:
        """All canonical residue representatives (norm of them)."""
        diag = self.hnf.diagonal()
        n = self.field.degree
        idx = [0] * n
        while True:
            yield self.reduce(idx)
            i = 0
            while i < n:
                idx[i] += 1
                if idx[i] < diag[i]:
                    break
                idx[i] = 0
                i += 1
            if i == n:
                return

    def basis_elements(self) -> list[AlgebraicNumber]:
        return [self.field.element(col) for col in self.hnf.columns()]

    def content(self) -> int:
        """Largest rational integer d with self contained in d*O_K (gcd of HNF entries)."""
        return math.gcd(*[x for row in self.hnf.rows for x in row])


def ideal_from_element(a: AlgebraicNumber) -> Ideal:
    """Principal ideal a*O_K (a integral, nonzero)."""
    if a.is_zero():
        raise ValueError("zero element generates the zero ideal")
    K = a.field
    cols = []
    acc = a
    for _ in range(K.degree):
        cols.append(acc.int_coords())
        acc = acc * K.theta
    m = IntMatrix([[cols[j][i] for j in range(K.degree)] for i in range(K.degree)])
    return Ideal(K, hnf_square(m))


def ideal_from_rational(K: NumberField, m: int) -> Ideal:
    if m == 0:
        raise ValueError("zero ideal")
    m = abs(m)
    return Ideal(K, IntMatrix([[m if i == j else 0 for j in range(K.degree)] for i in range(K.degree)]))


def ideal_mul(a: Ideal, b: Ideal) -> Ideal:
    """Product ideal: HNF of all pairwise basis products.

    The n^2 products of HNF columns are taken as int tuples
    (K.mul_int_coords), with no element objects; a product with the unit
    ideal returns the other factor itself.
    """
    if a.is_one():
        return b
    if b.is_one():
        return a
    K = a.field
    mul = K.mul_int_coords
    bcols = list(b.hnf.columns())
    cols = [mul(ac, bc) for ac in a.hnf.columns() for bc in bcols]
    return Ideal(K, hnf_square(IntMatrix(list(zip(*cols)))))


def ideal_pow(a: Ideal, e: int) -> Ideal:
    if e < 0:
        raise ValueError("use FactoredIdeal/FractionalIdeal for negative powers")
    out = Ideal.one(a.field)
    base = a
    while e:
        if e & 1:
            out = ideal_mul(out, base)
        base = ideal_mul(base, base) if e > 1 else base
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


class PrimeIdeal:
    """Prime over p in two-element representation (p, g(theta))."""

    __slots__ = ("field", "p", "gpoly", "e", "f", "ideal", "index", "ambiguous", "_powers")

    def __init__(self, field: NumberField, p: int, gpoly: IntPolynomial, e: int, index: int):
        self.field = field
        self.p = p
        self.gpoly = gpoly
        self.e = e
        self.f = gpoly.degree
        self.index = index  # position among the primes over p (canonical order)
        self.ambiguous = False  # set when another prime over p shares (f, e)
        # evaluate g at theta with full power reduction: for an inert prime
        # g is the defining polynomial itself and g(theta) = 0, leaving (p)
        n_deg = field.degree
        g_coords = [0] * n_deg
        for k, c in enumerate(gpoly.coeffs):
            if c:
                tp = field.theta_power(k)
                for i in range(n_deg):
                    g_coords[i] += c * tp[i]
        g_elt = field.element(g_coords)
        n = field.degree
        cols = [[p if i == j else 0 for i in range(n)] for j in range(n)]
        acc = g_elt
        for _ in range(n):
            cols.append(acc.int_coords())
            acc = acc * field.theta
        m = IntMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])
        self.ideal = Ideal(field, hnf_square(m))
        self._powers = [Ideal.one(field), self.ideal]

    @property
    def norm(self) -> int:
        return self.p**self.f

    def power(self, k: int) -> Ideal:
        while len(self._powers) <= k:
            self._powers.append(ideal_mul(self._powers[-1], self.ideal))
        return self._powers[k]

    def sort_key(self) -> tuple:
        return (self.norm, self.p, self.index)

    def label(self) -> str:
        return f"{self.p},{self.f},{self.e}" + (f",{self.index}" if self.ambiguous else "")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PrimeIdeal)
            and self.field is other.field
            and self.p == other.p
            and self.gpoly == other.gpoly
        )

    def __hash__(self) -> int:
        return hash((self.p, self.gpoly.coeffs))

    def __lt__(self, other: "PrimeIdeal") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"q[{self.label()}]"


def split_prime(K: NumberField, p: int) -> list[PrimeIdeal]:
    """Primes above p via factorization of the defining polynomial mod p.

    Valid at every p because the field is monogenic.  Result is cached and
    canonically ordered (by the factor's coefficient tuple).
    """
    cache = K._prime_cache
    got = cache.get(p)
    if got is not None:
        return got
    if K.degree == 1:
        out = [PrimeIdeal(K, p, IntPolynomial([0, 1]), 1, 0)]
        cache[p] = out
        return out
    from .exact_math import factor_mod_p

    factors = factor_mod_p(K.poly, p)
    out = []
    for idx, (g, e) in enumerate(factors):
        out.append(PrimeIdeal(K, p, g, e, idx))
    shape: dict[tuple[int, int], int] = {}
    for q in out:
        shape[(q.f, q.e)] = shape.get((q.f, q.e), 0) + 1
    for q in out:
        q.ambiguous = shape[(q.f, q.e)] > 1
    cache[p] = out
    return out


def residue_degrees(K: NumberField, p: int) -> list[int]:
    """Residue degrees of the primes above p, ascending (split_prime's order).

    Ramified p (dividing disc, where f mod p has repeated factors) and p
    already split go through split_prime.  Otherwise f mod p is squarefree,
    so by Dedekind-Kummer the degrees of its irreducible factors are the
    residue degrees, found without building or caching a PrimeIdeal: in a
    quadratic field with p odd, f splits mod p iff disc is a square mod p
    (Euler's criterion); otherwise a distinct-degree factorization finds
    the degrees without the equal-degree split.
    """
    if K.degree == 1:
        return [1]
    if K.disc % p == 0 or p in K._prime_cache:
        return [q.f for q in split_prime(K, p)]
    if K.degree == 2 and p != 2:
        # Euler's criterion: an odd unramified p splits iff disc is a square mod p
        return [1, 1] if pow(K.disc, (p - 1) // 2, p) == 1 else [2]
    out = []
    for g, d in gf_ddf_zassenhaus([c % p for c in K.poly.descending()], p, ZZ):
        out += [d] * ((len(g) - 1) // d)
    return out


def primes_of_norm_up_to(K: NumberField, bound) -> Iterator[PrimeIdeal]:
    """Every prime of norm <= bound, by p ascending, then split_prime order.

    A rational prime whose least residue degree already puts every prime
    above it over the bound is never split.
    """
    for p in primerange(2, int(bound) + 1):
        if p ** residue_degrees(K, p)[0] <= bound:
            for q in split_prime(K, p):
                if q.norm <= bound:
                    yield q


def valuation(prime: PrimeIdeal, a: Ideal) -> int:
    """nu_prime(a) by containment in successive prime powers."""
    v = 0
    while prime.power(v + 1).contains_ideal(a):
        v += 1
    return v


def factor_ideal(a: Ideal) -> "FactoredIdeal":
    """Full factorization into primes; exponents cross-checked against N(a)."""
    K = a.field
    n = a.norm()
    exps: dict[PrimeIdeal, int] = {}
    for p, ep in sorted(factorint(n).items()):
        primes = split_prime(K, p)
        live = [q for q in primes if q.ideal.contains_ideal(a)]
        total = 0
        if len(live) == 1 and live[0].f and ep % live[0].f == 0 and len(primes) == 1:
            v = ep // live[0].f
            exps[live[0]] = v
            total = v * live[0].f
        else:
            for q in live:
                v = valuation(q, a)
                if v:
                    exps[q] = v
                    total += v * q.f
        if total != ep:
            raise ArithmeticError(f"valuations at {p} sum to {total}, expected {ep}")
    return FactoredIdeal(K, exps)


# ---------------------------------------------------------------------------
# fractional and factored ideals
# ---------------------------------------------------------------------------


class FractionalIdeal:
    """num / den with num an integral Ideal and den a positive integer, reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: Ideal, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        den = abs(den)
        g = math.gcd(den, num.content())
        if g > 1:
            num = Ideal(num.field, IntMatrix([[x // g for x in row] for row in num.hnf.rows]))
            den //= g
        self.num = num
        self.den = den

    @property
    def field(self) -> NumberField:
        return self.num.field

    def is_integral(self) -> bool:
        return self.den == 1

    def norm(self) -> Fraction:
        return Fraction(self.num.norm(), self.den ** self.field.degree)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FractionalIdeal)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"FractionalIdeal({self.num!r} / {self.den})"

    def __mul__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        return FractionalIdeal(ideal_mul(self.num, other.num), self.den * other.den)


class FactoredIdeal:
    """A fractional ideal known by its prime factorization (exponents in Z)."""

    __slots__ = ("field", "exps")

    def __init__(self, field: NumberField, exps: dict[PrimeIdeal, int] | None = None):
        self.field = field
        self.exps = {q: e for q, e in (exps or {}).items() if e != 0}

    @staticmethod
    def unit(field: NumberField) -> "FactoredIdeal":
        return FactoredIdeal(field, {})

    def is_unit_ideal(self) -> bool:
        return not self.exps

    def is_integral(self) -> bool:
        return all(e > 0 for e in self.exps.values())

    def support(self) -> list[PrimeIdeal]:
        return sorted(self.exps)

    def norm(self) -> Fraction:
        out = Fraction(1)
        for q, e in self.exps.items():
            out *= Fraction(q.norm) ** e
        return out

    def sort_key(self) -> tuple:
        """Total order by ((prime sort key, exponent), ...)."""
        return tuple(sorted((q.sort_key(), e) for q, e in self.exps.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactoredIdeal) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(tuple(sorted(((q.p, q.gpoly.coeffs, e) for q, e in self.exps.items()))))

    def __repr__(self) -> str:
        if not self.exps:
            return "FactoredIdeal(1)"
        return "FactoredIdeal(" + " * ".join(f"{q!r}^{e}" for q, e in sorted(self.exps.items())) + ")"

    def __mul__(self, other: "FactoredIdeal") -> "FactoredIdeal":
        exps = dict(self.exps)
        for q, e in other.exps.items():
            exps[q] = exps.get(q, 0) + e
        return FactoredIdeal(self.field, exps)

    def __pow__(self, k: int) -> "FactoredIdeal":
        return FactoredIdeal(self.field, {q: e * k for q, e in self.exps.items()})

    def inverse(self) -> "FactoredIdeal":
        return self**-1

    def __truediv__(self, other: "FactoredIdeal") -> "FactoredIdeal":
        return self * other.inverse()

    def sqrt(self) -> "FactoredIdeal":
        if any(e % 2 for e in self.exps.values()):
            raise NotASquareError(f"odd exponent in {self!r}")
        return FactoredIdeal(self.field, {q: e // 2 for q, e in self.exps.items()})

    def to_ideal(self) -> Ideal:
        """Assemble the HNF ideal; requires integrality."""
        if not self.is_integral():
            raise ValueError("not integral; use to_fractional")
        out = Ideal.one(self.field)
        for q in self.support():
            out = ideal_mul(out, ideal_pow(q.ideal, self.exps[q]))
        return out

    def to_fractional(self) -> FractionalIdeal:
        """Assemble num/den using p*q^{-1} = (product of the other primes over p)."""
        num = Ideal.one(self.field)
        den = 1
        for q in self.support():
            e = self.exps[q]
            if e > 0:
                num = ideal_mul(num, ideal_pow(q.ideal, e))
            else:
                k = -e
                cofactor = Ideal.one(self.field)
                for r in split_prime(self.field, q.p):
                    exp = r.e - 1 if r == q else r.e
                    if exp:
                        cofactor = ideal_mul(cofactor, ideal_pow(r.ideal, exp))
                num = ideal_mul(num, ideal_pow(cofactor, k))
                den *= q.p**k
        return FractionalIdeal(num, den)


# ---------------------------------------------------------------------------
# parts decomposition (ell-part / ell-power part / i-power parts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartsDecomposition:
    """A = ell_part * root^ell * prod_i power_parts[i]^i.

    ell_part carries the full exponent of every prime over ell; root is
    coprime to ell; each power_parts[i] (1 <= i < ell) is squarefree,
    pairwise coprime with the others, coprime to ell, and consists of the
    primes whose exponent is congruent to i mod ell.
    """

    ell: int
    ell_part: FactoredIdeal
    root: FactoredIdeal
    power_parts: dict[int, FactoredIdeal]

    def reconstruct(self) -> FactoredIdeal:
        out = self.ell_part * self.root**self.ell
        for i, part in self.power_parts.items():
            out = out * part**i
        return out

    def ell_free_ell_power_free(self) -> FactoredIdeal:
        out = FactoredIdeal.unit(self.ell_part.field)
        for i, part in self.power_parts.items():
            out = out * part**i
        return out


def decompose_parts(a: FactoredIdeal | Ideal, ell: int) -> PartsDecomposition:
    fa = a if isinstance(a, FactoredIdeal) else factor_ideal(a)
    K = fa.field
    ell_primes = {q for q in split_prime(K, ell)}
    ell_part: dict[PrimeIdeal, int] = {}
    root: dict[PrimeIdeal, int] = {}
    parts: dict[int, dict[PrimeIdeal, int]] = {i: {} for i in range(1, ell)}
    for q, e in fa.exps.items():
        if q in ell_primes:
            ell_part[q] = e
            continue
        r = e % ell
        if e // ell:
            root[q] = e // ell
        if r:
            parts[r][q] = 1
    return PartsDecomposition(
        ell=ell,
        ell_part=FactoredIdeal(K, ell_part),
        root=FactoredIdeal(K, root),
        power_parts={i: FactoredIdeal(K, parts[i]) for i in range(1, ell)},
    )


# ---------------------------------------------------------------------------
# generator searches
# ---------------------------------------------------------------------------


def _coord_sort_key(coords: Sequence[int]) -> tuple:
    # highest power-basis coordinate first: among the generators of (2) in
    # Z[i] this prefers 2 over 2i, and among {2, -2} prefers 2.
    return tuple((abs(c), 0 if c >= 0 else 1) for c in reversed(coords))


def _imag_quadratic_norm_matches(a: Ideal, target: int) -> list[list[int]]:
    """All x in the ideal lattice with N(x) = target (imaginary quadratic K).

    Solves the positive-definite binary form of the HNF basis exactly.
    """
    K = a.field
    v1, v2 = a.basis_elements()
    A = int(v1.norm())
    C = int(v2.norm())
    B = int((v1 + v2).norm()) - A - C
    D = B * B - 4 * A * C  # < 0
    out = []
    tmax = math.isqrt((4 * A * target) // (-D))
    for t in range(-tmax, tmax + 1):
        disc_t = D * t * t + 4 * A * target
        if disc_t < 0:
            continue
        r = math.isqrt(disc_t)
        if r * r != disc_t:
            continue
        for sgn in ((1,) if r == 0 else (1, -1)):
            num = -B * t + sgn * r
            if num % (2 * A):
                continue
            s = num // (2 * A)
            x = [s * c1 + t * c2 for c1, c2 in zip(a.hnf.column(0), a.hnf.column(1))]
            out.append(x)
    return out


def _box_norm_matches(
    a: Ideal,
    target: int,
    units: Sequence[AlgebraicNumber],
    ceilings: Ceilings,
) -> list[list[int]]:
    """All x in the ideal with |N(x)| = target, found by a bounded coordinate box.

    Test oracle only: norm_matches uses _lattice_norm_matches, which covers
    the same generators with far fewer points.  The box covers a fundamental
    domain of the unit action on the norm-target surface: any generator can
    be unit-shifted until each |log sigma_i| stays within half the total
    log-spread of the fundamental units, so a complete scan of that box
    decides principality.
    """
    K = a.field
    n = K.degree
    rank = K.r1 + K.r2 - 1
    if len(units) < rank:
        from .errors import RankError

        raise RankError(f"box search needs {rank} fundamental units, got {len(units)}")
    rts = K.roots(200)
    with mpmath.workprec(120):
        spread = [mpmath.mpf(0)] * (K.r1 + K.r2)
        for u in units:
            vals = K.embeddings(u, 80)
            for i, v in enumerate(vals):
                spread[i] += abs(mpmath.log(abs(v))) / 2
        nth = mpmath.mpf(target) ** (mpmath.mpf(1) / n)
        # one uniform bound M: the unit-balanced generator has every
        # |sigma_i| <= N^(1/n) exp(spread_i) <= M, so the max-|sigma|
        # minimizers all satisfy max |sigma| <= M and the box is complete
        # for them (per-coordinate bounds would not guarantee that).
        emb_bound = nth * mpmath.exp(max(spread)) * mpmath.mpf("1.0001") + mpmath.mpf("1e-9")
        # real n x n embedding matrix of the ideal basis (complex rows split)
        rows = []
        for i, rho in enumerate(rts):
            vals = [
                sum(mpmath.mpf(c) * rho**k for k, c in enumerate(col)) for col in a.hnf.columns()
            ]
            if i < K.r1:
                rows.append([mpmath.mpf(v) for v in vals])
            else:
                rows.append([mpmath.mpc(v).real for v in vals])
                rows.append([mpmath.mpc(v).imag for v in vals])
        inv = mpmath.inverse(mpmath.matrix(rows))
        tbound = []
        for j in range(n):
            s = sum(abs(inv[j, k]) * emb_bound for k in range(n))
            tbound.append(int(mpmath.floor(s)) + 1)
    points = 1
    for tb in tbound:
        points *= 2 * tb + 1
    if points > ceilings.search_points:
        raise CeilingError(f"generator search box of {points} points", ceilings.search_points)
    cols = [a.hnf.column(j) for j in range(n)]
    out = []
    idx = [-tb for tb in tbound]
    norm_int = K.norm_int
    while True:
        coords = [sum(idx[j] * cols[j][i] for j in range(n)) for i in range(n)]
        if any(coords):
            if abs(norm_int(coords)) == target:
                out.append(coords)
        i = 0
        while i < n:
            idx[i] += 1
            if idx[i] <= tbound[i]:
                break
            idx[i] = -tbound[i]
            i += 1
        if i == n:
            return out


def _search_constants(K: NumberField, units: Sequence[AlgebraicNumber]) -> tuple[list, mpmath.mpf]:
    """(rows, scale) for _lattice_norm_matches, cached on the field per units tuple.

    rows is the real n x n embedding matrix of the power basis as floats:
    one row per real place, and sqrt(2) Re, sqrt(2) Im rows per complex
    place, so that |rows . x|^2 = sum over all n embeddings of |sigma(x)|^2.
    scale is e^(max spread) * 1.0001, the unit-balance factor of the box
    bound in _box_norm_matches.
    """
    key = tuple(u.coords for u in units)
    got = K._generator_search_cache.get(key)
    if got is not None:
        return got
    rts = K.roots(200)
    with mpmath.workprec(120):
        spread = [mpmath.mpf(0)] * (K.r1 + K.r2)
        for u in units:
            for i, v in enumerate(K.embeddings(u, 80)):
                spread[i] += abs(mpmath.log(abs(v))) / 2
        scale = mpmath.exp(max(spread)) * mpmath.mpf("1.0001")
        sqrt2 = mpmath.sqrt(2)
        rows = []
        for i, rho in enumerate(rts):
            powers = [rho**k for k in range(K.degree)]
            if i < K.r1:
                rows.append([float(mpmath.re(p)) for p in powers])
            else:
                rows.append([float(sqrt2 * mpmath.re(p)) for p in powers])
                rows.append([float(sqrt2 * mpmath.im(p)) for p in powers])
    got = (rows, scale)
    K._generator_search_cache[key] = got
    return got


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


def _lll_reduce(cols: list[list[int]], embed) -> tuple[list[list[int]], list[list[int]]]:
    """LLL reduction (delta = 0.99) of integer columns under a real embedding.

    Returns (reduced, transform) with reduced[j] = sum_i transform[j][i] * cols[i]
    exactly; transform is unimodular.  The floats only steer the reduction:
    every vector is re-embedded from its exact integer coordinates.
    """
    n = len(cols)
    basis = [list(c) for c in cols]
    transform = [[int(i == j) for i in range(n)] for j in range(n)]
    vecs = [embed(c) for c in basis]
    mu, sq = _gram_schmidt(vecs)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                transform[k] = [x - q * y for x, y in zip(transform[k], transform[j])]
                vecs[k] = embed(basis[k])
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if sq[k] >= (0.99 - mu[k][k - 1] ** 2) * sq[k - 1]:
            k += 1
        else:
            for lst in (basis, transform, vecs):
                lst[k - 1], lst[k] = lst[k], lst[k - 1]
            mu, sq = _gram_schmidt(vecs)
            k = max(k - 1, 1)
    return basis, transform


def _lattice_norm_matches(
    a: Ideal,
    target: int,
    units: Sequence[AlgebraicNumber],
    ceilings: Ceilings,
) -> list[list[int]]:
    """All x in the ideal with |N(x)| = target and sum |sigma(x)|^2 <= n M^2.

    M = N^(1/n) e^(max spread) * 1.0001 is the box bound of _box_norm_matches:
    every generator has a unit multiple with max |sigma| <= M, and the
    ellipsoid sum over the n embeddings of |sigma(x)|^2 <= n M^2 contains
    that region.  So the matches decide principality and include every
    max-|sigma| minimizer.  Fincke-Pohst enumerates the ellipsoid on an
    LLL-reduced basis of the ideal; the floats only place it, with the
    radius widened by a relative 1e-6, and exact norm_int accepts each
    point.  Every enumerated point counts against ceilings.search_points.
    Matches come in the order of the box scan (HNF coordinates, the last
    varying slowest), independent of the reduced basis.
    """
    K = a.field
    n = K.degree
    rank = K.r1 + K.r2 - 1
    if len(units) < rank:
        raise RankError(f"generator search needs {rank} fundamental units, got {len(units)}")
    rows, scale = _search_constants(K, units)
    with mpmath.workprec(80):
        bound = mpmath.mpf(target) ** (mpmath.mpf(1) / n) * scale + mpmath.mpf("1e-9")
        radius = float(n * bound * bound) * (1 + 1e-6)

    def embed(coords):
        return [sum(r * c for r, c in zip(row, coords)) for row in rows]

    basis, transform = _lll_reduce(list(a.hnf.columns()), embed)
    mu, sq = _gram_schmidt([embed(b) for b in basis])
    norm_int = K.norm_int
    limit = ceilings.search_points
    xs = [0] * n
    points = 0
    found = []

    # x = sum_j xs[j] basis[j] has squared length
    # sum_j sq[j] (xs[j] + sum_{i>j} mu[i][j] xs[i])^2; fix xs[n-1], ..., xs[0]
    # in turn, each within the interval its remaining radius allows.
    # `partial` holds the power-basis coordinates of sum_{i>j} xs[i] basis[i].
    def descend(j: int, used: float, partial: list[int]) -> None:
        nonlocal points
        c = sum(mu[i][j] * xs[i] for i in range(j + 1, n))
        half = math.sqrt(max(radius - used, 0.0) / sq[j])
        for x in range(math.ceil(-c - half), math.floor(-c + half) + 1):
            xs[j] = x
            coords = [p + x * b for p, b in zip(partial, basis[j])]
            if j:
                descend(j - 1, used + sq[j] * (x + c) ** 2, coords)
                continue
            points += 1
            if points > limit:
                raise CeilingError(f"generator search past {limit} lattice points", limit)
            if any(coords) and abs(norm_int(coords)) == target:
                hnf_coords = [sum(xs[k] * transform[k][i] for k in range(n)) for i in range(n)]
                found.append((hnf_coords[::-1], coords))
        xs[j] = 0

    descend(n - 1, 0.0, [0] * n)
    found.sort()
    return [coords for _, coords in found]


def norm_matches(
    a: Ideal,
    units: Sequence[AlgebraicNumber] = (),
    ceilings: Ceilings | None = None,
) -> list[list[int]]:
    """All candidate generators: elements of a with |N| = N(a) (complete set)."""
    ceilings = ceilings or Ceilings()
    K = a.field
    target = a.norm()
    if K.degree == 1:
        return [[target], [-target]]
    if K.degree == 2 and K.r1 == 0:
        return _imag_quadratic_norm_matches(a, target)
    return _lattice_norm_matches(a, target, units, ceilings)


def principal_test_generator(
    a: Ideal | FractionalIdeal,
    units: Sequence[AlgebraicNumber] = (),
    ceilings: Ceilings | None = None,
) -> AlgebraicNumber | None:
    """Canonical generator if principal, else None.

    A fractional ideal num/den is principal iff its integral numerator is.
    The canonical choice minimizes max |sigma(x)| over the complete set of
    norm matches, ties broken by the coordinate key (|c|, sign).  In an
    imaginary quadratic field every match has |sigma(x)|^2 = N(x) = N(a)
    exactly, so the maximum always ties and the coordinate key alone
    decides, with no float evaluated.  Other fields rank the matches by
    their embeddings (_embedding_ranked).
    """
    den = 1
    if isinstance(a, FractionalIdeal):
        den = a.den
        a = a.num
    K = a.field
    if a.is_one():
        gen = K.one
        return gen if den == 1 else K.element([Fraction(c, den) for c in gen.coords])
    if K.degree == 1:
        # the generators of (n) are +-n; the coordinate tie-break picks +n
        n = a.norm()
        return K.from_int(n) if den == 1 else K.element([Fraction(n, den)])
    # every match lies in the lattice of a, so |N(x)| = N(a) already forces
    # (x) = a: the matches ARE the generators.
    matches = norm_matches(a, units, ceilings)
    if not matches:
        return None
    if K.degree == 2 and K.r1 == 0:
        best = min(matches, key=_coord_sort_key)
    else:
        best = _embedding_ranked(K, matches)
    if den != 1:
        return K.element([Fraction(c, den) for c in best])
    return K.element(best)


def _embedding_ranked(K: NumberField, matches: Sequence[Sequence[int]]) -> Sequence[int]:
    """The match of least max |sigma|, from 64-bit mpmath embeddings.

    Magnitudes within a relative 1e-12 count as tied, and ties go to the
    smaller coordinate key.
    """
    best = None
    best_key = None
    with mpmath.workprec(100):
        for coords in matches:
            vals = K.embeddings(K.element(coords), 64)
            key = (max(abs(v) for v in vals), _coord_sort_key(coords))
            if best_key is None or _emb_key_less(key, best_key):
                best, best_key = coords, key
    return best


def _emb_key_less(k1, k2) -> bool:
    m1, c1 = k1
    m2, c2 = k2
    # embedding magnitudes are floats: treat within-epsilon as ties
    if m1 < m2 * (1 - mpmath.mpf("1e-12")):
        return True
    if m2 < m1 * (1 - mpmath.mpf("1e-12")):
        return False
    return c1 < c2


def canonical_generator(
    a: Ideal | FractionalIdeal,
    units: Sequence[AlgebraicNumber] = (),
    ceilings: Ceilings | None = None,
) -> AlgebraicNumber:
    gen = principal_test_generator(a, units, ceilings)
    if gen is None:
        raise NotPrincipalError(f"{a!r} is not principal")
    return gen
