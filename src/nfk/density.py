"""Densities of the wild part of the discriminant, analytic constants and
the closed rational identity for ell = 2.  The empirical censuses that
check the lattice-counting lemmas behind them (squarefree ideals by class,
canonical generators mod ell-th powers) are test oracles, in
tests/oracles.py.

The probability model behind ``rho``: order extensions by the norm of the
tame part of the discriminant.  At each prime above ell the normalized
gamma independently either has valuation prime to ell (ell-1 cases out of
ell, forcing the maximal exponent) or is coprime to the prime, in which
case its class in (O_K/q^B)^x modulo ell-th powers is uniform and the
exponent is a function of the congruence depth of that class, read from
the cell loop's kummer._depth_table.  B is the saturation depth of
kummer.wild_saturation_depth; beyond it an ell-th power congruence lifts
to the completion, so depth B means exponent 0.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import sympy
from mpmath.libmp import from_man_exp, round_nearest, to_float

from .class_unit import compute_class_group
from .config import Ceilings
from .errors import UnrealizableEllPartError
from .exact_math import frac_str
from .ideals import FactoredIdeal, PrimeIdeal, as_factored, residue_degrees, split_prime
from .kummer import _depth_table, _wild_exponent, wild_saturation_depth
from .number_field import NumberField


# ---------------------------------------------------------------------------
# candidate wild parts
# ---------------------------------------------------------------------------


def allowed_wild_exponents(q: PrimeIdeal, ell: int) -> list[int]:
    """Discriminant exponents at a prime above ell that the valuation
    formulas allow: kummer._wild_exponent at every congruence depth
    1 <= s <= B and at a valuation prime to ell (s = 0)."""
    return sorted({_wild_exponent(q, ell, s) for s in range(wild_saturation_depth(q, ell) + 1)})


def enumerate_R(K: NumberField, ell: int) -> list[FactoredIdeal]:
    """Every candidate ell-part of a discriminant: one allowed exponent per
    prime above ell.  Sorted by norm, then support, for stable reports."""
    per_prime = [
        [(q, e) for e in allowed_wild_exponents(q, ell)] for q in split_prime(K, ell)
    ]
    out = [
        FactoredIdeal(K, {q: e for q, e in combo if e})
        for combo in itertools.product(*per_prime)
    ]
    out.sort(key=lambda fa: (int(fa.norm()), fa.sort_key()))
    return out


def _coerce_ell_part(K: NumberField, ell: int, ell_part) -> FactoredIdeal:
    fa = as_factored(ell_part)
    wild = split_prime(K, ell)
    for q, e in fa.exps.items():
        if q not in wild:
            raise UnrealizableEllPartError(f"{q!r} does not lie above {ell}: not in R")
        if e not in allowed_wild_exponents(q, ell):
            raise UnrealizableEllPartError(f"exponent {e} at {q!r} is not in R")
    return fa


# ---------------------------------------------------------------------------
# the density table
# ---------------------------------------------------------------------------


def _local_factor(
    K: NumberField, q: PrimeIdeal, ell: int, ceilings: Ceilings | None
) -> dict[int, Fraction]:
    """rho's factor at q above ell by discriminant exponent at q: (ell-1)/ell
    at the valuation exponent, and at the exponent of congruence depth s
    1/ell times the share of units mod q^B at depth s in the prime's depth
    table (depth is constant on classes mod ell-th powers)."""
    table = _depth_table(q, ceilings)
    out = {_wild_exponent(q, ell, 0): Fraction(ell - 1, ell)}
    for s, c in Counter(table.values()).items():
        out[_wild_exponent(q, ell, s)] = Fraction(c, ell * len(table))
    return out


def _rho_of(fa: FactoredIdeal, factors: dict[PrimeIdeal, dict[int, Fraction]]) -> Fraction:
    return math.prod((f.get(fa.exps.get(q, 0), 0) for q, f in factors.items()), start=Fraction(1))


def rho(K: NumberField, ell: int, ell_part, ceilings: Ceilings | None = None) -> Fraction:
    """Limiting proportion of degree-ell Kummer extensions whose
    discriminant has the given ell-part, under tame-conductor ordering: the
    product of independent local factors (_local_factor).  Exponents
    outside the allowed set raise; allowed exponents may still get density
    0 when no class sits at the corresponding depth.
    """
    fa = _coerce_ell_part(K, ell, ell_part)
    ceilings = ceilings or Ceilings()
    return _rho_of(fa, {q: _local_factor(K, q, ell, ceilings) for q in split_prime(K, ell)})


@dataclass(frozen=True)
class DensityReport:
    field_label: str
    ell: int
    rows: tuple[tuple[FactoredIdeal, int, Fraction], ...]  # (Q, N(Q), rho_Q)
    identity: Fraction | None  # ell = 2 only
    identity_expected: Fraction | None

    def rho_by_norm(self) -> dict[int, Fraction]:
        """Total rho over the rows of each norm N(Q)."""
        out: dict[int, Fraction] = {}
        for _, n, r in self.rows:
            out[n] = out.get(n, 0) + r
        return out


def density_report(
    K: NumberField, ell: int, ceilings: Ceilings | None = None
) -> DensityReport:
    """The full (Q, N(Q), rho_Q) table with zero-density candidates dropped,
    plus the closed identity when ell = 2, read off the rows (a dropped row
    has rho = 0): (2^(r1+r2) #Z) (prod_q N(q)/(1+N(q))) (sum_Q rho_Q/N(Q))
    over the primes q above 2, #Z the squarefree products of those primes;
    its value is 1/2^r2.  Total mass is checked exactly."""
    ceilings = ceilings or Ceilings()
    factors = {q: _local_factor(K, q, ell, ceilings) for q in split_prime(K, ell)}
    rows = []
    total = Fraction(0)
    for Q in enumerate_R(K, ell):
        r = _rho_of(Q, factors)
        total += r
        if r:
            rows.append((Q, int(Q.norm()), r))
    if total != 1:
        raise ArithmeticError(f"rho masses sum to {total}, not 1")
    ident = expected = None
    if ell == 2:
        wild = split_prime(K, 2)
        ident = Fraction(2 ** (K.r1 + K.r2) * 2 ** len(wild))
        for q in wild:
            ident *= Fraction(q.norm, 1 + q.norm)
        ident *= sum(r / n for _, n, r in rows)
        expected = Fraction(1, 2**K.r2)
    return DensityReport(
        field_label=K.label,
        ell=ell,
        rows=tuple(rows),
        identity=ident,
        identity_expected=expected,
    )


def density_report_json_dict(report: DensityReport) -> dict:
    out = {
        "field": report.field_label,
        "ell": report.ell,
        "rows": [
            {"Q_norm": str(n), "rho": frac_str(r)} for _, n, r in report.rows
        ],
    }
    if report.identity is not None:
        out["identity"] = frac_str(report.identity)
        out["identity_expected"] = frac_str(report.identity_expected)
    return out


def identity_check(K: NumberField, ceilings: Ceilings | None = None) -> Fraction:
    """The ell = 2 identity of density_report, exactly; its value is 1/2^r2."""
    return density_report(K, 2, ceilings).identity


# ---------------------------------------------------------------------------
# analytic constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaConstants:
    residue: float  # Res_{s=1} zeta_K(s), analytic class number formula
    zeta_at_2: float
    zeta_at_ell: float
    tail_bound: float  # relative truncation bound of the Euler products


def _rn(m: int, e: int, bits: int) -> tuple[int, int]:
    """m 2^e rounded to `bits` bits, to nearest with ties to even as libmp's
    normalize rounds: a mantissa of at most 2^bits, not normalized."""
    n = m.bit_length() - bits
    if n <= 0:
        return m, e
    h = m >> (n - 1)  # the kept bits and the guard bit
    if h & 1 and (h & 2 or m != h << (n - 1)):
        h += 2
    return h >> 1, e + n


def _quotient(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x/y of (mantissa, exponent) pairs at 80 bits as mpf_div rounds it: a
    quotient of at least 82 bits, a sticky bit for the remainder, one _rn."""
    (a, ea), (b, eb) = x, y
    k = 82 + b.bit_length() - a.bit_length()
    q, r = divmod(a << k, b)
    return _rn(q << 1 | (r != 0), ea - eb - k - 1, 80)


def _factor(n: int, s: int) -> tuple[int, int] | None:
    """1 - n^-s (s >= 2) as from_int, mpf_pow_int (n^s at 85 bits, then 1
    over it) and mpf_sub round it at 80 bits; None when that is exactly 1.

    n >= 2^b with b s >= 81 makes n' = from_int(n) have n'^s >= 2^81, so
    1/n'^s rounds to at most 2^-81, 1 minus that ties or rounds to 1, and
    libmp divides by 1 exactly.  That covers every n that from_int rounds
    and every input of mpf_pow_int's truncating binary powering (mantissa
    of bc >= 2 bits, bc s >= 1000, so b s >= 500), so no libmp fallback is
    needed: below, n' = n and n^s is exact before its one rounding.
    """
    if (n.bit_length() - 1) * s >= 81:
        return None
    xm, xe = _quotient((1, 0), _rn(n**s, 0, 85))
    return _rn((1 << -xe) - xm, xe, 80)


def _euler_products(K: NumberField, ell: int, prime_bound: int) -> tuple[tuple, tuple]:
    """prod 1/(1 - N(q)^-2) and prod 1/(1 - N(q)^-ell) over the primes q
    above p <= prime_bound, as raw 80-bit mpmath.libmp values, bit for bit
    those of `z /= 1 - mpf(p**f) ** -s` on mpf operators (80 bits, round to
    nearest): each libmp step rounds once, correctly, so it runs here as
    exact integers and one _rn.  Factors equal to 1 are skipped; primes
    above p of equal degree (adjacent, as residue_degrees ascends) share
    one factor, and factors multiply in order of p, then f.
    """
    z2 = zl = (1, 0)
    for p in sympy.sieve.primerange(2, prime_bound + 1):
        last = 0
        for f in residue_degrees(K, p):
            if f != last:
                last, n = f, p**f
                d2, dl = _factor(n, 2), (None if ell == 2 else _factor(n, ell))
            if d2:
                z2 = _quotient(z2, d2)
            if dl:
                zl = _quotient(zl, dl)
    return from_man_exp(*z2), from_man_exp(*(z2 if ell == 2 else zl))


def zeta_constants(
    K: NumberField,
    ell: int = 2,
    precision: float | None = None,
    prime_bound: int = 10**5,
    ceilings: Ceilings | None = None,
) -> ZetaConstants:
    """Residue via 2^r1 (2pi)^r2 h R / (w sqrt|d|); zeta_K(2) and zeta_K(ell)
    by Euler products over rational primes up to prime_bound.

    The factors need only the residue degrees of the primes above each p
    (residue_degrees, which builds no prime ideal for unramified p).  The
    products' relative truncation error is below degree/prime_bound (sum
    of N(q)^-2 over omitted primes); a requested precision beyond that
    fails, stating what is achievable, and a prime_bound below 1 fails
    before anything is cached.  Degree 1 short-circuits to the Riemann zeta
    values, which carry no truncation error.
    """
    if prime_bound < 1:
        raise ValueError(f"prime bound {prime_bound} is below 1")
    ceilings = ceilings or Ceilings()
    cache = K._zeta_constants_cache
    got = cache.get((ell, prime_bound))
    if got is None:
        cg = compute_class_group(K, ceilings)
        ug = cg.units
        with mpmath.workprec(80):
            residue = mpmath.mpf(2**K.r1) * (2 * mpmath.pi) ** K.r2 * cg.h * ug.regulator
            residue /= ug.w * mpmath.sqrt(abs(K.disc))
            if K.degree == 1:
                z2, zl, tail = float(mpmath.zeta(2)), float(mpmath.zeta(ell)), 0.0
            else:
                tail = K.degree / prime_bound
                z2, zl = (
                    to_float(z, rnd=round_nearest) for z in _euler_products(K, ell, prime_bound)
                )
            got = ZetaConstants(float(residue), z2, zl, float(tail))
        cache[(ell, prime_bound)] = got
    if precision is not None and precision < got.tail_bound:
        raise ValueError(
            f"prime bound {prime_bound} only reaches relative precision "
            f"{got.tail_bound:.1e}; requested {precision:.1e}"
        )
    return got
