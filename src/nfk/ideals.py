"""Ideal arithmetic over O_K = Z[theta] in Hermite normal form.

Integral ideals are column lattices in power-basis coordinates, stored as
the square upper-triangular HNF fixed in exact_math.  Fractional ideals
are FactoredIdeal, {prime: exponent} with negative exponents allowed,
which does group-like arithmetic without any lattice inversions; a
generator search sees one as num/den (FactoredIdeal.num_den, the HNF form
of FactoredIdeal.cleared), an integral numerator over the least positive
integer denominator.

Generator searches (principality tests) enumerate lattice elements of the
correct norm exactly: closed-form in degree 1, a positive-definite binary
form solve for imaginary quadratics, and otherwise the field's
short-vector enumeration (NumberField.short_vectors, Fincke-Pohst on an
LLL-reduced basis of the ideal) of an ellipsoid that holds a unit
multiple of every generator.  The class lookups (class_unit._find_class)
take the first match of norm_matches, unranked.  The canonical generator
— the F-map used throughout the Kummer layer — is the generator
minimizing the largest embedding magnitude, ties broken by smallest
coordinate key (|c| before sign, so 2 beats -2); in imaginary quadratic
fields every generator ties, and the coordinate key alone decides.
ClassGroup.generator (class_unit) picks it from products of the stored
generators, reduced modulo torsion and units, with no search;
principal_test_generator, which ranks every match, stays its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

import mpmath
from sympy import ZZ, factorint, sieve
from sympy.ntheory import sqrt_mod
from sympy.polys.galoistools import gf_ddf_zassenhaus

from .config import Ceilings
from .errors import CeilingError, NotASquareError, NotPrincipalError, RankError
from .exact_math import (
    IntMatrix,
    IntPolynomial,
    factor_mod_p,
    hnf_reduce,
    hnf_square,
    lattice_contains,
)
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
        raise ValueError("use FactoredIdeal for negative powers")
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

    __slots__ = (
        "field", "p", "gpoly", "e", "f", "ideal", "index", "ambiguous", "_powers", "_depths", "_hash"
    )

    def __init__(self, field: NumberField, p: int, gpoly: IntPolynomial, e: int, index: int):
        self.field = field
        self.p = p
        self.gpoly = gpoly
        self.e = e
        self.f = gpoly.degree
        self.index = index  # position among the primes over p (canonical order)
        self.ambiguous = False  # set when another prime over p shares (f, e)
        self._hash = hash((p, gpoly.coeffs))  # primes key the hot dicts
        self.ideal = Ideal(field, _prime_hnf(field, p, gpoly))
        self._powers = [Ideal.one(field), self.ideal]
        self._depths: dict[tuple[int, ...], int] = {}  # residue -> congruence depth (kummer.py)

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
        return self._hash

    def __lt__(self, other: "PrimeIdeal") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"q[{self.label()}]"


def _prime_hnf(K: NumberField, p: int, gpoly: IntPolynomial) -> IntMatrix:
    """HNF of the prime (p, g(theta)).

    For f = 1, g is linear with root r mod p, and the prime is the kernel
    of theta -> r mod p: its HNF has diagonal (p, 1, ..., 1) and first row
    (p, -r, -r^2, ...) mod p, so in degree 1 it is [[p]].  Otherwise the
    HNF of the columns p theta^j and g(theta) theta^j.
    """
    n = K.degree
    if gpoly.degree == 1:
        r = -gpoly.coeffs[0] * pow(gpoly.coeffs[1], -1, p)
        rows = [[p] + [-pow(r, k, p) % p for k in range(1, n)]]
        rows += [[int(i == j) for j in range(n)] for i in range(1, n)]
        return IntMatrix(rows)
    # evaluate g at theta with full power reduction: for an inert prime
    # g is the defining polynomial itself and g(theta) = 0, leaving (p)
    g_coords = [0] * n
    for k, c in enumerate(gpoly.coeffs):
        if c:
            tp = K.theta_power(k)
            for i in range(n):
                g_coords[i] += c * tp[i]
    cols = [[p if i == j else 0 for i in range(n)] for j in range(n)]
    acc = g_coords
    for _ in range(n):
        cols.append(acc)
        acc = K.mul_int_coords(acc, K.theta.coords)
    return hnf_square(IntMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n)]))


def split_prime(K: NumberField, p: int) -> list[PrimeIdeal]:
    """Primes above p via factorization of the defining polynomial mod p.

    Valid at every p because the field is monogenic.  Result is cached and
    canonically ordered by (degree, ascending coefficient tuple) of the
    factor, the order of factor_mod_p.  In a quadratic field x^2 + bx + c
    with p odd and unramified, Euler's criterion on the discriminant
    decides instead: if it is a square mod p the factors are x - r for the
    two roots r = (-b +- s)/2 mod p, s a square root mod p (Tonelli-Shanks),
    and otherwise the polynomial stays irreducible.  Every other p goes
    through factor_mod_p.
    """
    cache = K._prime_cache
    got = cache.get(p)
    if got is not None:
        return got
    if K.degree == 1:
        out = [PrimeIdeal(K, p, IntPolynomial([0, 1]), 1, 0)]
        cache[p] = out
        return out
    if K.degree == 2 and p != 2 and K.disc % p:
        if pow(K.disc, (p - 1) // 2, p) == 1:
            b = K.poly.coeffs[1]  # K.disc = b^2 - 4c
            s, half = sqrt_mod(K.disc, p), (p + 1) // 2
            consts = sorted(-r * half % p for r in (-b + s, -b - s))
            factors = [(IntPolynomial([a, 1]), 1) for a in consts]
        else:
            factors = [(IntPolynomial([c % p for c in K.poly.coeffs]), 1)]
    else:
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
    for p in sieve.primerange(2, int(bound) + 1):
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


def as_factored(a: FactoredIdeal | Ideal) -> FactoredIdeal:
    """a itself when already factored, else factor_ideal(a)."""
    return a if isinstance(a, FactoredIdeal) else factor_ideal(a)


# ---------------------------------------------------------------------------
# factored ideals
# ---------------------------------------------------------------------------


class FactoredIdeal:
    """A fractional ideal known by its prime factorization (exponents in Z)."""

    __slots__ = ("field", "exps")

    def __init__(self, field: NumberField, exps: dict[PrimeIdeal, int] | None = None):
        self.field = field
        self.exps = {q: e for q, e in (exps or {}).items() if e != 0}

    @classmethod
    def _of(cls, field: NumberField, exps: dict[PrimeIdeal, int]) -> "FactoredIdeal":
        """The ideal of an exponent dict already free of zeros, taken as is."""
        out = object.__new__(cls)
        out.field = field
        out.exps = exps
        return out

    @staticmethod
    def unit(field: NumberField) -> "FactoredIdeal":
        return FactoredIdeal._of(field, {})

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
        if not other.exps:
            return self
        if not self.exps:
            return other
        exps = dict(self.exps)
        for q, e in other.exps.items():
            e += exps.get(q, 0)
            if e:
                exps[q] = e
            else:
                del exps[q]
        return FactoredIdeal._of(self.field, exps)

    def __pow__(self, k: int) -> "FactoredIdeal":
        if k == 1 or not self.exps:
            return self
        if k == 0:
            return FactoredIdeal._of(self.field, {})
        return FactoredIdeal._of(self.field, {q: e * k for q, e in self.exps.items()})

    def inverse(self) -> "FactoredIdeal":
        return self**-1

    def __truediv__(self, other: "FactoredIdeal") -> "FactoredIdeal":
        return self * other.inverse()

    def sqrt(self) -> "FactoredIdeal":
        if any(e % 2 for e in self.exps.values()):
            raise NotASquareError(f"odd exponent in {self!r}")
        return FactoredIdeal._of(self.field, {q: e // 2 for q, e in self.exps.items()})

    def to_ideal(self) -> Ideal:
        """Assemble the HNF ideal; requires integrality."""
        if not self.is_integral():
            raise ValueError("not integral; use num_den")
        out = Ideal.one(self.field)
        for q in self.support():
            out = ideal_mul(out, ideal_pow(q.ideal, self.exps[q]))
        return out

    def cleared(self) -> tuple["FactoredIdeal", int]:
        """(num, den) with self = num/den, num integral and factored, and den
        the least positive integer making it so.

        Each rational prime p under a negative exponent is cleared by the
        least power (p)^j, where (p) = prod over r | p of r^e(r); with j
        least, num shares no rational content with den.
        """
        K = self.field
        num, den = self, 1
        for p in {q.p for q, e in self.exps.items() if e < 0}:
            over = split_prime(K, p)
            j = max(-(self.exps.get(r, 0) // r.e) for r in over)
            num = num * FactoredIdeal(K, {r: j * r.e for r in over})
            den *= p**j
        return num, den

    def num_den(self) -> tuple[Ideal, int]:
        """cleared() with the numerator assembled as an HNF ideal."""
        num, den = self.cleared()
        return num.to_ideal(), den


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

    # What the Kummer layer needs of the parts alone, computed once and shared
    # by every unit twist alpha*u of a cell (kummer._discriminant_split,
    # kummer.steinitz_class).

    @cached_property
    def tame_part(self) -> FactoredIdeal:
        """The ell-free part of the relative discriminant: exponent ell - 1
        at every prime of the power parts."""
        exps = {q: self.ell - 1 for part in self.power_parts.values() for q in part.exps}
        return FactoredIdeal._of(self.ell_part.field, exps)

    @cached_property
    def tame_norm(self) -> int:
        """N(tame_part) as an int."""
        return math.prod(q.norm for q in self.tame_part.exps) ** (self.ell - 1)

    @cached_property
    def steinitz_den_pow(self) -> FactoredIdeal:
        """(ell_part * root^ell * prod_i power_parts[i]^(i-1))^(ell-1), the
        denominator of St^2 in the Steinitz formula."""
        den = self.ell_part * self.root**self.ell
        for i in range(2, self.ell):
            den = den * self.power_parts[i] ** (i - 1)
        return den ** (self.ell - 1)


def decompose_parts(a: FactoredIdeal | Ideal, ell: int) -> PartsDecomposition:
    fa = as_factored(a)
    K = fa.field
    ell_part: dict[PrimeIdeal, int] = {}
    root: dict[PrimeIdeal, int] = {}
    parts: dict[int, dict[PrimeIdeal, int]] = {i: {} for i in range(1, ell)}
    for q, e in fa.exps.items():
        if q.p == ell:
            ell_part[q] = e
            continue
        k, r = divmod(e, ell)
        if k:
            root[q] = k
        if r:
            parts[r][q] = 1
    return PartsDecomposition(
        ell=ell,
        ell_part=FactoredIdeal._of(K, ell_part),
        root=FactoredIdeal._of(K, root),
        power_parts={i: FactoredIdeal._of(K, parts[i]) for i in range(1, ell)},
    )


# ---------------------------------------------------------------------------
# generator searches
# ---------------------------------------------------------------------------


def _coord_sort_key(coords: Sequence[int]) -> tuple:
    # highest power-basis coordinate first: among the generators of (2) in
    # Z[i] this prefers 2 over 2i, and among {2, -2} prefers 2.
    return tuple((abs(c), 0 if c >= 0 else 1) for c in reversed(coords))


def _imag_quadratic_norm_matches(a: Ideal, target: int, ceilings: Ceilings) -> list[list[int]]:
    """All x in the ideal lattice with N(x) = target (imaginary quadratic K).

    Solves the positive-definite binary form of the HNF basis exactly, one
    quadratic in s per t with |t| <= tmax; the 2 tmax + 1 values of t count
    against ceilings.search_points.
    """
    v1, v2 = a.basis_elements()
    A = int(v1.norm())
    C = int(v2.norm())
    B = int((v1 + v2).norm()) - A - C
    D = B * B - 4 * A * C  # < 0
    out = []
    tmax = math.isqrt((4 * A * target) // (-D))
    if 2 * tmax + 1 > ceilings.search_points:
        raise CeilingError(
            f"generator search over {2 * tmax + 1} values of t", ceilings.search_points
        )
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


def _search_constants(K: NumberField, units: Sequence[AlgebraicNumber]) -> float:
    """The unit-balance scale e^(max spread) * 1.0001 of _lattice_norm_matches,
    in floats from K.log_abs_embeddings.  ClassGroup.generator bounds its
    reduction modulo units with the same scale."""
    logs = [K.log_abs_embeddings(u.int_coords()) for u in units]
    spread = max((sum(map(abs, place)) / 2 for place in zip(*logs)), default=0.0)
    return math.exp(spread) * 1.0001


def _lattice_norm_matches(
    a: Ideal,
    target: int,
    units: Sequence[AlgebraicNumber],
    ceilings: Ceilings,
) -> list[list[int]]:
    """All x in the ideal with |N(x)| = target and T2(x) <= n M^2.

    M = N^(1/n) e^(max spread) * 1.0001, with the spread summed over the
    fundamental units' log embeddings: every generator has a unit multiple
    with max |sigma| <= M, and the ellipsoid T2(x) = sum over the n
    embeddings of |sigma(x)|^2 <= n M^2 contains that region.  So the
    matches decide principality and include every max-|sigma| minimizer.
    NumberField.short_vectors enumerates the ellipsoid on the ideal's HNF
    columns, every point counting against ceilings.search_points, and exact
    norm_int accepts each point.  Matches come in the order of a box scan
    (HNF coordinates, the last varying slowest), independent of the reduced
    basis: the HNF is upper triangular with positive pivots, so that order
    is the order of the reversed power-basis coordinates.
    """
    K = a.field
    n = K.degree
    rank = K.r1 + K.r2 - 1
    if len(units) < rank:
        raise RankError(f"generator search needs {rank} fundamental units, got {len(units)}")
    bound = math.exp(math.log(target) / n) * _search_constants(K, units) + 1e-9
    radius = n * bound * bound
    norm_int = K.norm_int
    points = K.short_vectors(a.hnf.columns(), radius, ceilings.search_points)
    found = [coords for coords in points if abs(norm_int(coords)) == target]
    return sorted(found, key=lambda coords: coords[::-1])


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
        return _imag_quadratic_norm_matches(a, target, ceilings)
    return _lattice_norm_matches(a, target, units, ceilings)


def principal_test_generator(
    a: Ideal | FactoredIdeal,
    units: Sequence[AlgebraicNumber] = (),
    ceilings: Ceilings | None = None,
) -> AlgebraicNumber | None:
    """Canonical generator if principal, else None.

    A factored ideal num/den (FactoredIdeal.num_den) is principal iff its
    integral numerator is; the numerator's generator divided by den is
    returned.  The canonical choice minimizes max |sigma(x)| over the
    complete set of norm matches, ties broken by the coordinate key (|c|,
    sign).  In an imaginary quadratic field every match has
    |sigma(x)|^2 = N(x) = N(num) exactly, so the maximum always ties and the
    coordinate key alone decides, with no float evaluated.  Other fields
    rank the matches by their embeddings (_embedding_ranked).
    """
    num, den = a.num_den() if isinstance(a, FactoredIdeal) else (a, 1)
    K = num.field
    if num.is_one():
        best = K.one.coords
    elif K.degree == 1:
        # the generators of (n) are +-n; the coordinate tie-break picks +n
        best = [num.norm()]
    else:
        # every match lies in the lattice of num, so |N(x)| = N(num) already
        # forces (x) = num: the matches ARE the generators.
        matches = norm_matches(num, units, ceilings)
        if not matches:
            return None
        if K.degree == 2 and K.r1 == 0:
            best = min(matches, key=_coord_sort_key)
        else:
            best = _embedding_ranked(K, matches)
    return K.element(best if den == 1 else [Fraction(c, den) for c in best])


def _embedding_ranked(K: NumberField, matches: Sequence[Sequence[int]]) -> Sequence[int]:
    """The match of least max |sigma|, ties to the smaller coordinate key
    (_mpmath_ranked), after a float pre-screen.

    Only the matches whose float max |sigma|^2 (K.max_embedding_sq) lies
    within a relative 2e-6 of the least are ranked in mpmath, in their
    order.  The ranking's result depends only on the matches within a few
    times 1e-12 of the least magnitude: any farther match is replaced by
    the first of those and never replaces one.  The margin is far above
    both that band and the float error, so the choice is the one over all
    matches.
    """
    if len(matches) > 1:
        tops = [K.max_embedding_sq(coords) for coords in matches]
        cut = min(tops) * (1 + 2e-6)
        matches = [coords for coords, top in zip(matches, tops) if top <= cut]
    return _mpmath_ranked(K, matches)


def _mpmath_ranked(K: NumberField, matches: Sequence[Sequence[int]]) -> Sequence[int]:
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
    a: Ideal | FactoredIdeal,
    units: Sequence[AlgebraicNumber] = (),
    ceilings: Ceilings | None = None,
) -> AlgebraicNumber:
    gen = principal_test_generator(a, units, ceilings)
    if gen is None:
        raise NotPrincipalError(f"{a!r} is not principal")
    return gen
