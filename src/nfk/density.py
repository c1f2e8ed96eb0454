"""Densities of the wild part of the discriminant, analytic constants,
squarefree-ideal censuses, and the closed rational identity for ell = 2.

The probability model behind ``rho``: order extensions by the norm of the
tame part of the discriminant.  At each prime above ell the normalized
gamma independently either has valuation prime to ell (ell-1 cases out of
ell, forcing the maximal exponent) or is coprime to the prime, in which
case its class in (O_K/q^B)^x modulo ell-th powers is uniform and the
exponent is a function of the congruence depth of that class.  B is the
saturation depth of kummer.wild_saturation_depth; beyond it an ell-th
power congruence lifts to the completion, so depth B means exponent 0.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import sympy
from mpmath.libmp import fone, from_int, mpf_div, mpf_pow_int, mpf_sub, round_nearest, to_float

from .abelian_groups import quotient_by_powers, unit_group_mod_ideal
from .class_unit import ClassGroup, compute_class_group
from .config import Ceilings
from .errors import CeilingError, UnrealizableEllPartError
from .exact_math import frac_str
from .ideals import (
    FactoredIdeal,
    Ideal,
    PrimeIdeal,
    as_factored,
    factor_ideal,
    primes_of_norm_up_to,
    residue_degrees,
    split_prime,
)
from .kummer import _congruence_depth, wild_saturation_depth
from .number_field import NumberField


def _support_of(x) -> list[PrimeIdeal]:
    if x is None:
        return []
    return as_factored(x).support()


# ---------------------------------------------------------------------------
# candidate wild parts
# ---------------------------------------------------------------------------


def allowed_wild_exponents(q: PrimeIdeal, ell: int) -> list[int]:
    """Discriminant exponents at a prime above ell that the valuation
    formulas allow: 0, (ell-1)(B-s+1) for congruence depths 1 <= s < B,
    and (ell-1) + ell*nu_q(ell) when gamma has valuation prime to ell."""
    b = wild_saturation_depth(q, ell)
    exps = {0, (ell - 1) + ell * q.e}
    for s in range(1, b):
        exps.add((ell - 1) * (b - s + 1))
    return sorted(exps)


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


def _depth_unit_counts(
    K: NumberField, q: PrimeIdeal, ell: int, ceilings: Ceilings | None
) -> tuple[dict[int, int], int]:
    """Units of (O_K/q^B)^x counted by exact congruence depth, with total.

    The depth of a residue is the largest m <= B for which it is an ell-th
    power mod q^m; depth is constant on classes mod ell-th powers, so the
    per-depth unit counts divided by the total give the class proportions.
    """
    b = wild_saturation_depth(q, ell)
    rug = unit_group_mod_ideal(K, q.power(b), ceilings)
    counts = Counter(
        _congruence_depth(K.element(list(key)), q, ell, ceilings) for key in rug.group.elements
    )
    if sum(counts.values()) != rug.order:
        raise ArithmeticError("depth census lost residues")
    return counts, rug.order


def rho(K: NumberField, ell: int, ell_part, ceilings: Ceilings | None = None) -> Fraction:
    """Limiting proportion of degree-ell Kummer extensions whose
    discriminant has the given ell-part, under tame-conductor ordering.

    Independent local factors: (ell-1)/ell at a valuation prime, and
    (1/ell) times the proportion of unit classes at the exact congruence
    depth at a congruence prime.  Exponents outside the allowed set raise;
    allowed exponents may still get density 0 when no class sits at the
    corresponding depth.
    """
    fa = _coerce_ell_part(K, ell, ell_part)
    ceilings = ceilings or Ceilings()
    acc = Fraction(1)
    for q in split_prime(K, ell):
        e = fa.exps.get(q, 0)
        if e == (ell - 1) + ell * q.e:
            acc *= Fraction(ell - 1, ell)
            continue
        b = wild_saturation_depth(q, ell)
        s = b if e == 0 else b + 1 - e // (ell - 1)
        counts, total = _depth_unit_counts(K, q, ell, ceilings)
        acc *= Fraction(counts.get(s, 0), ell * total)
    return acc


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
    rows = []
    total = Fraction(0)
    for Q in enumerate_R(K, ell):
        r = rho(K, ell, Q, ceilings)
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


def _euler_products(K: NumberField, ell: int, prime_bound: int) -> tuple[tuple, tuple]:
    """prod 1/(1 - N(q)^-2) and prod 1/(1 - N(q)^-ell) over the primes q
    above p <= prime_bound, as raw 80-bit mpmath.libmp values.

    Each factor runs the operations of `z /= 1 - mpf(p**f) ** -s` at 80
    bits, round to nearest, in the same order, straight on mpmath.libmp:
    the values are bit for bit those of the mpf operators, without their
    object layer.  Primes above p of equal degree (adjacent, as
    residue_degrees ascends) share one factor.  For ell = 2 both products
    are the same value.
    """
    prec, rnd = 80, round_nearest
    z2 = zl = fone
    for p in sympy.sieve.primerange(2, prime_bound + 1):
        last = 0
        for f in residue_degrees(K, p):
            if f != last:
                last, n = f, from_int(p**f, prec, rnd)
                d2 = mpf_sub(fone, mpf_pow_int(n, -2, prec, rnd), prec, rnd)
                if ell != 2:
                    dl = mpf_sub(fone, mpf_pow_int(n, -ell, prec, rnd), prec, rnd)
            z2 = mpf_div(z2, d2, prec, rnd)
            if ell != 2:
                zl = mpf_div(zl, dl, prec, rnd)
    return z2, (z2 if ell == 2 else zl)


def zeta_constants(
    K: NumberField,
    ell: int = 2,
    precision: float | None = None,
    prime_bound: int = 10**5,
    ceilings: Ceilings | None = None,
) -> ZetaConstants:
    """Residue via 2^r1 (2pi)^r2 h R / (w sqrt|d|); zeta_K(2) and zeta_K(ell)
    by Euler products over rational primes up to prime_bound.

    The Euler factors need only the residue degrees f of the primes above
    each p: unramified p get them from a distinct-degree factorization of
    the defining polynomial mod p (residue_degrees), which builds no prime
    ideal; the finitely many ramified p still go through split_prime.
    Factors multiply in order of p, then f, ascending.

    The products' relative truncation error is below degree/prime_bound
    (sum of N(q)^-2 over omitted primes); when a precision is requested
    and that bound exceeds it, the call fails stating what is achievable.
    Degree 1 short-circuits to the Riemann zeta values, which carry no
    truncation error.
    """
    ceilings = ceilings or Ceilings()
    cache = K._zeta_constants_cache
    got = cache.get((ell, prime_bound))
    if got is None:
        cg = compute_class_group(K, ceilings)
        ug = cg.units
        with mpmath.workprec(80):
            residue = (
                mpmath.mpf(2**K.r1)
                * (2 * mpmath.pi) ** K.r2
                * cg.h
                * ug.regulator
                / (ug.w * mpmath.sqrt(abs(K.disc)))
            )
            if K.degree == 1:
                z2, zl, tail = float(mpmath.zeta(2)), float(mpmath.zeta(ell)), 0.0
            else:
                tail = K.degree / prime_bound
                z2, zl = (
                    to_float(z, rnd=round_nearest) for z in _euler_products(K, ell, prime_bound)
                )
            got = ZetaConstants(
                residue=float(residue),
                zeta_at_2=z2,
                zeta_at_ell=zl,
                tail_bound=float(tail),
            )
        cache[(ell, prime_bound)] = got
    if precision is not None and precision < got.tail_bound:
        raise ValueError(
            f"prime bound {prime_bound} only reaches relative precision "
            f"{got.tail_bound:.1e}; requested {precision:.1e}"
        )
    return got


# ---------------------------------------------------------------------------
# squarefree-ideal censuses
# ---------------------------------------------------------------------------


def _prime_pool(
    K: NumberField, bound: int, exclude: frozenset, ceilings: Ceilings
) -> list[PrimeIdeal]:
    if bound > ceilings.search_points:
        raise CeilingError(f"ideal census to norm {bound}", ceilings.search_points)
    return [q for q in primes_of_norm_up_to(K, bound) if q not in exclude]


def _squarefree_class_tally(
    K: NumberField,
    cg: ClassGroup,
    ell: int,
    coprime_to,
    X: int,
    ceilings: Ceilings,
) -> dict[int, int]:
    """Counts of ell-power-free ideals of norm <= X, coprime to coprime_to,
    by ideal class index.  The unit ideal counts toward the trivial class."""
    support = frozenset(_support_of(coprime_to))
    cache = K._sqfree_tally_cache
    key = (ell, X, tuple(sorted(q.sort_key() for q in support)))
    got = cache.get(key)
    if got is not None:
        return got
    pool = _prime_pool(K, X, support, ceilings)
    counts = Counter(cls for _, cls in cg.ell_free_ideals(pool, X, ell, ceilings))
    cache[key] = counts
    return counts


@dataclass(frozen=True)
class SquarefreeCensus:
    class_index: int
    X: int
    count: int
    predicted: float
    ratio: float


def count_squarefree_ideals_in_class(
    K: NumberField,
    class_index: int,
    coprime_to,
    X: int,
    ell: int = 2,
    prime_bound: int = 10**5,
    ceilings: Ceilings | None = None,
) -> SquarefreeCensus:
    """Exact census of ell-power-free ideals of norm <= X in one ideal
    class, coprime to the given ideal, against the predicted leading term
    Res/(zeta_K(ell) h) prod_q (1 - (N^(ell-1)-1)/(N^ell-1)) X."""
    ceilings = ceilings or Ceilings()
    cg = compute_class_group(K, ceilings)
    tally = _squarefree_class_tally(K, cg, ell, coprime_to, X, ceilings)
    count = tally.get(class_index % cg.h, 0)
    z = zeta_constants(K, ell=ell, prime_bound=prime_bound, ceilings=ceilings)
    pred = z.residue / z.zeta_at_ell / cg.h
    for q in _support_of(coprime_to):
        n = q.norm
        pred *= float(1 - Fraction(n ** (ell - 1) - 1, n**ell - 1))
    predicted = pred * X
    return SquarefreeCensus(
        class_index=class_index % cg.h,
        X=X,
        count=count,
        predicted=predicted,
        ratio=count / predicted,
    )


# ---------------------------------------------------------------------------
# the empirical stand-in for the lattice equidistribution results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquidistributionReport:
    modulus_norm: int
    factor_norm: int
    X: int
    total: int
    cells: tuple[tuple[tuple[int, ...], int], ...]  # (H coordinates, count)
    max_deviation: float  # max |cell fraction - 1/#H|

    def fractions(self) -> dict[tuple[int, ...], float]:
        return {c: n / self.total for c, n in self.cells}


def generator_equidistribution_test(
    K: NumberField,
    modulus: Ideal,
    ideal_factor,
    X: int,
    ell: int = 2,
    ceilings: Ceilings | None = None,
) -> EquidistributionReport:
    """Tally canonical generators by class in H = (O_K/modulus)^x mod
    ell-th powers.

    Runs over ideals A = ideal_factor * I with I ell-power-free, coprime
    to the modulus and to ideal_factor, N(A) <= X, and A principal; the
    canonical generator of A reduces into H.  A uniform spread over H is
    what makes the rho model's congruence factors independent of the
    divisibility data.
    """
    ceilings = ceilings or Ceilings()
    cg = compute_class_group(K, ceilings)
    factor_fa = as_factored(ideal_factor)
    mod_support = frozenset(factor_ideal(modulus).support())
    if any(q in mod_support for q in factor_fa.support()):
        raise ValueError("ideal_factor must be coprime to the modulus")
    rug = unit_group_mod_ideal(K, modulus, ceilings)
    pq = quotient_by_powers(rug.group, ell)
    h_order = pq.group.order
    factor_norm = int(factor_fa.norm())
    budget = X // factor_norm
    exclude = mod_support | frozenset(factor_fa.support())
    pool = _prime_pool(K, budget, exclude, ceilings)
    group = cg.group
    # I must land in the inverse class of ideal_factor for A to be principal
    need = group.power(cg.index_of(factor_fa, ceilings), group.exponent - 1)
    tally: dict[tuple[int, ...], int] = {}
    total = 0
    if budget >= 1:
        for support, cls in cg.ell_free_ideals(pool, budget, ell, ceilings):
            if cls != need:
                continue
            a = factor_fa * FactoredIdeal(K, dict(support))
            gamma = cg.generator(a, ceilings)
            tally_key = pq.project(rug.image(gamma))
            tally[tally_key] = tally.get(tally_key, 0) + 1
            total += 1
    cells = tuple(sorted(tally.items()))
    dev = max(abs(n / total - 1 / h_order) for _, n in cells) if total else 0.0
    return EquidistributionReport(
        modulus_norm=int(modulus.norm()),
        factor_norm=factor_norm,
        X=X,
        total=total,
        cells=cells,
        max_deviation=dev,
    )
