"""Degree-ell Kummer extensions L = K(gamma^(1/ell)) without ever building L.

Everything comes from closed formulas on the base field: the relative
discriminant prime-by-prime (unramified / tame exponent ell-1 / wild
exponent from the congruence depth s), the trace-form discriminant
+-ell^ell gamma^(ell-1), and the Steinitz class as the square root of
an explicit fractional ideal.  The enumeration walks the parameter
tuples (unit coset, ideal class, ell-part, ell-free part) and filters
by discriminant norm; each extension arises from exactly ell-1 tuples,
and the survivor is the lexicographically least tuple of its orbit
(iter_extensions gives the stream's order).  A datum's discriminant and
Steinitz class come from its _Cell, shared by the unit twists of its cell,
and the _Cell's _Row, shared by the cells of its ell-part Q; a datum from
normalize_gamma gets its own on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator

from sympy import integer_nthroot

from .class_unit import ClassGroup, compute_class_group, unit_coset_coords, unit_coset_reps
from .config import Ceilings
from .errors import CeilingError, DegenerateExtensionError, MissingRootOfUnityError
from .ideals import (
    FactoredIdeal,
    PartsDecomposition,
    PrimeIdeal,
    decompose_parts,
    factor_ideal,
    ideal_from_element,
    primes_of_norm_up_to,
    split_prime,
)
from .number_field import AlgebraicNumber, NumberField


# ---------------------------------------------------------------------------
# the datum: a normalized gamma with its bookkeeping
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class KummerDatum:
    """A normalized generator of L = K(gamma^(1/ell)).

    gamma is integral, its ell-power root is the fixed class
    representative of its ideal class, its ell-part is ell-power-free,
    and unit_coordinate = gamma / alpha for alpha the canonical generator
    of gamma O_K (ClassGroup.generator).  cell is None until _cell_of.
    """

    field: NumberField
    ell: int
    gamma: AlgebraicNumber
    parts: PartsDecomposition
    unit_coordinate: AlgebraicNumber
    power_root_class: int
    unit_coset: tuple[int, ...]
    cell: _Cell | None = dc_field(default=None, compare=False, repr=False)

    def key(self) -> tuple:
        """Total order on parameter tuples (u, class, Q, ell-free part)."""
        return (
            self.unit_coset,
            self.power_root_class,
            self.parts.ell_part.sort_key(),
            self.parts.ell_free_ell_power_free().sort_key(),
        )


def _power_root(fa: FactoredIdeal, ell: int) -> FactoredIdeal:
    """The ell-th root of the largest ell-th power divisor."""
    return FactoredIdeal(fa.field, {q: e // ell for q, e in fa.exps.items()})


def normalize_gamma(
    gamma: AlgebraicNumber,
    ell: int,
    ceilings: Ceilings | None = None,
    fa: FactoredIdeal | None = None,
) -> KummerDatum:
    """Replace gamma by the canonical element cutting out the same extension.

    The ell-power root of gamma O_K is moved into the fixed ell-free
    class representative (dividing by k^ell for the canonical generator
    k of the quotient), which makes the ell-part ell-power-free.  An
    ell-th power (no extension of degree ell) raises
    DegenerateExtensionError.

    fa is gamma O_K already factored (the cell loop passes the cell's
    ideal to the m-th power); without it gamma O_K is built and factored
    here.  The result is the same either way: k^ell alpha generates fa
    for the canonical generator alpha of the normalized ideal, so
    u = gamma / (k^ell alpha) is a unit exactly when fa = gamma O_K.  The
    element work runs on int coordinates: with k = kc/dk and alpha = a/da
    (ClassGroup.generator_coords), u is the one exact quotient
    gamma dk^ell da / (kc^ell a) (NumberField.div_int_coords), and a wrong
    fa raises instead of giving a wrong key: ArithmeticError when u has a
    Fraction coordinate or a norm other than +-1, or NotPrincipalError
    first when fa is not principal.  gamma' = alpha u = a u / da is then
    integral by construction, and exactly divided.
    """
    K = gamma.field
    if gamma.is_zero():
        raise ValueError("gamma must be nonzero")
    if not gamma.is_integral():
        raise ValueError("gamma must be an algebraic integer")
    if K.contains_zeta(ell) is None:
        raise MissingRootOfUnityError(
            f"Kummer theory for ell={ell} needs the {ell}-th roots of unity"
        )
    cg = compute_class_group(K, ceilings)
    if fa is None:
        fa = factor_ideal(ideal_from_element(gamma))
    root = _power_root(fa, ell)
    cls = cg.index_of(root, ceilings)
    rep = cg.ell_free_representative(cls, ell, ceilings)
    quo = root * rep.inverse()
    fa2 = fa * quo.inverse() ** ell
    parts = decompose_parts(fa2, ell)
    if parts.root != rep or parts.reconstruct() != fa2:
        raise ArithmeticError("parts decomposition does not reconstruct gamma")
    one = K.one.coords
    mul = K.mul_int_coords
    alpha, da = (one, 1) if fa2.is_unit_ideal() else cg.generator_coords(fa2, ceilings)
    top, scale = alpha, da  # k^ell alpha = top / scale
    if not quo.is_unit_ideal():
        kc, dk = cg.generator_coords(quo, ceilings)
        top = kc
        for _ in range(ell - 1):
            top = mul(top, kc)
        top, scale = mul(top, alpha), dk**ell * da
    g = gamma.coords
    u = K.div_int_coords([c * scale for c in g] if scale != 1 else g, top)
    if Fraction in map(type, u) or abs(K.norm_int(u)) != 1:
        raise ArithmeticError(f"{gamma!r} / (k^{ell} alpha) = {u} should be a unit")
    unit = AlgebraicNumber._of(K, u)
    coset = unit_coset_coords(cg.units, unit, ell)
    if fa2.is_unit_ideal() and all(c == 0 for c in coset):
        raise DegenerateExtensionError(
            f"{gamma!r} is an {ell}-th power; the extension is trivial"
        )
    g2 = mul(alpha, u) if da == 1 else K.div_int_coords(mul(alpha, u), one, da)
    return KummerDatum(K, ell, AlgebraicNumber._of(K, g2), parts, unit, cls, coset)


# ---------------------------------------------------------------------------
# relative discriminant
# ---------------------------------------------------------------------------


def wild_saturation_depth(q: PrimeIdeal, ell: int) -> int:
    """ell * nu_q(1 - zeta_ell), the saturation depth of the congruence test.

    Since zeta_ell lies in the field, e(q | ell) is a multiple of ell - 1
    and the valuation of 1 - zeta_ell is e/(ell-1).  An ell-th power
    congruence can only be obstructed up to depth ell * e/(ell-1): the
    binomial terms of (1 + x)^ell all reach that valuation together.
    For ell = 2 this is just 2 nu_q(2).
    """
    if q.e % (ell - 1):
        raise ArithmeticError(
            f"e({q!r}) = {q.e} not divisible by {ell - 1}; zeta_ell missing?"
        )
    return ell * (q.e // (ell - 1))


def _wild_exponent(q: PrimeIdeal, ell: int, s: int) -> int:
    """The discriminant exponent at q over ell: (ell-1)(B - s + 1) at
    congruence depth s < B, 0 at s = B.  s = 0 stands for a gamma of
    valuation prime to ell, where it is (ell-1)(B + 1) = (ell-1) + ell e."""
    b = wild_saturation_depth(q, ell)
    return (ell - 1) * (b - s + 1) if s < b else 0


def _depth_table(q: PrimeIdeal, ceilings: Ceilings | None) -> dict[tuple[int, ...], int]:
    """Every unit residue mod q^B to its congruence depth at q over ell = q.p,
    by brute force once per prime: the ell-th powers mod q^B reduced mod q^m
    are all those mod q^m, as (O_K/q^B)^x maps onto (O_K/q^m)^x, and depth 1
    needs no test (every unit mod q is an ell-th power, the residue field
    having order prime to ell).  Every call checks the residue-ring ceiling
    before the cache."""
    ell, K = q.p, q.field
    b = wild_saturation_depth(q, ell)
    limit = (ceilings or Ceilings()).residue_ring
    if q.norm**b > limit:
        raise CeilingError(f"residue ring of size {q.norm**b}", limit)
    table = K._depth_cache.get(q)
    if table is None:
        top = q.power(b)
        units = [r for r in top.residues() if any(q.ideal.reduce(r))]
        powers = {top.reduce((K.element(r) ** ell).int_coords()) for r in units}
        mods = {m: q.power(m) for m in range(b, 1, -1)}
        sets = {m: {qm.reduce(y) for y in powers} for m, qm in mods.items()}
        table = K._depth_cache[q] = {
            r: next((m for m, qm in mods.items() if qm.reduce(r) in sets[m]), 1) for r in units
        }
    return table


def _congruence_depth(
    gamma: AlgebraicNumber, q: PrimeIdeal, ell: int, ceilings: Ceilings | None
) -> int:
    """Largest 0 < m <= B = ell*nu_q(1-zeta_ell) with gamma an ell-th power
    mod q^m, q over ell: one lookup of gamma mod q^B in the prime's
    _depth_table.  gamma must be integral; a gamma in q raises ValueError."""
    b = wild_saturation_depth(q, ell)
    s = _depth_table(q, ceilings).get(q.power(b).reduce(gamma.int_coords()))
    if s is None:
        raise ValueError(f"{gamma!r} is not a unit modulo {q!r}^{b}")
    return s


def _wild_part(d: KummerDatum, ceilings: Ceilings | None) -> FactoredIdeal:
    """The ell-part of the relative discriminant: _wild_exponent at each
    prime over ell, of the valuation at the primes of the datum's ell-part
    and of the congruence depth at the others."""
    K, ell = d.field, d.ell
    lexps = d.parts.ell_part.exps
    wild: dict[PrimeIdeal, int] = {}
    for q in split_prime(K, ell):
        nu = lexps.get(q, 0)
        if nu and not nu % ell:
            raise ArithmeticError(f"datum not normalized at {q!r}")
        e = _wild_exponent(q, ell, 0 if nu else _congruence_depth(d.gamma, q, ell, ceilings))
        if e:
            wild[q] = e
    return FactoredIdeal._of(K, wild)


def _discriminant_split(
    d: KummerDatum, ceilings: Ceilings | None = None
) -> tuple[FactoredIdeal, FactoredIdeal, FactoredIdeal]:
    """(Delta, ell-part, ell-free part) of the relative discriminant.

    The ell-free part is the cell's tame part.  The ell-part (_wild_part)
    depends only on the row Q = parts.ell_part and, through the congruence
    depths, on gamma mod q^B at each prime q over ell, with
    B = ell e/(ell-1) <= 2e.  Since O_K = Z[theta] and ell^2 O_K lies in
    every such q^B, gamma's coordinates mod ell^2 decide it: the row
    memoizes it under them, so each residue is worked out once per row,
    its depths looked up in _depth_table.
    """
    cell = _cell_of(d)
    row = cell.row
    mod = d.ell * d.ell
    key = tuple(c % mod for c in d.gamma.coords)
    lpart = row.wild.get(key)
    if lpart is None:
        lpart = row.wild[key] = row.entry(_wild_part(d, ceilings))[0]
    return cell.tame * lpart, lpart, cell.tame


def relative_discriminant(d: KummerDatum, ceilings: Ceilings | None = None):
    """Delta as a factored ideal plus the ell-part and ell-free part as ideals."""
    delta, lpart, fpart = _discriminant_split(d, ceilings)
    return delta, lpart.to_ideal(), fpart.to_ideal()


# ---------------------------------------------------------------------------
# trace form
# ---------------------------------------------------------------------------


def _element_det(K: NumberField, rows: list[list[AlgebraicNumber]]) -> AlgebraicNumber:
    n = len(rows)
    total = K.from_int(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = K.from_int(-1 if inv % 2 else 1)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def _trace_delta(K: NumberField, gamma: AlgebraicNumber, ell: int) -> AlgebraicNumber:
    sign = 1 if ell == 2 else -1
    return K.from_int(sign * ell**ell) * gamma ** (ell - 1)


def verify_trace_determinant(K: NumberField, gamma: AlgebraicNumber, ell: int) -> bool:
    """Check det(Tr(gamma^((j+k)/ell))) against +-ell^ell gamma^(ell-1).

    Tr_{L/K}(gamma^(n/ell)) is 0 unless ell | n, in which case it is
    ell * gamma^(n/ell); the matrix over the basis 1, ..., gamma^((ell-1)/ell)
    only sees base-field quantities.
    """
    zero = K.from_int(0)
    lam = K.from_int(ell)
    rows = []
    for j in range(ell):
        row = []
        for k in range(ell):
            n = j + k
            row.append(lam * gamma ** (n // ell) if n % ell == 0 else zero)
        rows.append(row)
    return _element_det(K, rows) == _trace_delta(K, gamma, ell)


def trace_form_discriminant(d: KummerDatum) -> AlgebraicNumber:
    """Discriminant of the relative trace form: +ell^ell gamma^(ell-1) for
    ell = 2 and -ell^ell gamma^(ell-1) for odd ell, checked against the
    determinant of the trace matrix."""
    delta = _trace_delta(d.field, d.gamma, d.ell)
    if not verify_trace_determinant(d.field, d.gamma, d.ell):
        raise ArithmeticError("trace matrix determinant disagrees with the formula")
    return delta


# ---------------------------------------------------------------------------
# Steinitz class
# ---------------------------------------------------------------------------


def steinitz_class(d: KummerDatum, cg: ClassGroup, ceilings: Ceilings | None = None) -> int:
    """Class index of St(O_L), via St^2 = L-part / (Q N^ell prod I_i^(i-1))^(ell-1).

    The denominator is Q^(ell-1) off^2 (_Cell), so St = sqrt(L-part /
    Q^(ell-1)) off^-1; the square root is verified to square back.
    """
    cell = _cell_of(d)
    lpart = _discriminant_split(d, ceilings)[1]
    st = cg.index_of(_steinitz_root(lpart, cell.row.q_pow), ceilings)
    return cg.group.op(st, cg.index_of(cell.off.inverse(), ceilings))


def _steinitz_root(ell_part: FactoredIdeal, den_pow: FactoredIdeal) -> FactoredIdeal:
    """The square root of ell_part / den_pow, checked to square back."""
    st = (ell_part / den_pow).sqrt()
    if st * st * den_pow != ell_part:
        raise ArithmeticError("Steinitz square does not reassemble the ell-part")
    return st


def realizable_class_subgroup(cg: ClassGroup, ell: int) -> list[int]:
    """Classes that can occur as Steinitz classes: all of Cl(K) for ell = 2,
    the (ell-1)/2 powers for odd ell."""
    if ell == 2:
        return list(range(cg.h))
    return cg.power_subgroup_indices((ell - 1) // 2)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ExtensionRecord:
    """One isomorphism class of degree-ell extensions with its invariants."""

    datum: KummerDatum
    discriminant: FactoredIdeal
    ell_part: FactoredIdeal
    ell_free_part: FactoredIdeal
    steinitz: int
    disc_norm: int

    def sort_key(self) -> tuple:
        return (self.disc_norm, self.datum.key())


class _Row:
    """What the cells of one ell-part row Q share within one enumeration.

    wild maps gamma's coordinates mod ell^2 to the wild ell-part L they
    decide (_discriminant_split), one object per distinct L.  info maps
    the id of each such L to its entry [L, N(L) as an int, the class of
    sqrt(L / Q^(ell-1)) or None until a record needs it]; the entry keeps
    L alive, so the id stays L's.
    """

    __slots__ = ("q_pow", "wild", "info")

    def __init__(self, Q: FactoredIdeal, ell: int):
        self.q_pow = Q ** (ell - 1)
        self.wild: dict[tuple[int, ...], FactoredIdeal] = {}
        self.info: dict[int, list] = {}

    def entry(self, lpart: FactoredIdeal) -> list:
        """The entry of the L equal to lpart, made on first sight."""
        got = self.info.get(id(lpart))
        if got is None:
            got = next((e for e in self.info.values() if e[0] == lpart), None)
        if got is None:
            norm = math.prod(q.norm**e for q, e in lpart.exps.items())
            got = self.info[id(lpart)] = [lpart, norm, None]
        return got


class _Cell:
    """What the unit twists of one cell share: the row of Q; the tame part
    (the ell-free discriminant part, exponent ell-1 on the power parts P_i)
    and its norm; off = rep^(ell(ell-1)/2) prod_{i>=2} P_i^((i-1)(ell-1)/2),
    so that Q^(ell-1) off^2 is the Steinitz denominator."""

    __slots__ = ("row", "tame", "tame_norm", "off")

    def __init__(self, parts: PartsDecomposition, row: _Row):
        ell, power_parts = parts.ell, parts.power_parts
        self.row = row
        self.tame = power_parts[1] if ell == 2 else FactoredIdeal._of(  # P_1 is squarefree
            row.q_pow.field, {q: ell - 1 for part in power_parts.values() for q in part.exps}
        )
        self.tame_norm = math.prod(q.norm for q in self.tame.exps) ** (ell - 1)
        off = parts.root ** (ell * (ell - 1) // 2)
        for i in range(2, ell):
            off = off * power_parts[i] ** ((i - 1) * (ell - 1) // 2)
        self.off = off


def _cell_of(d: KummerDatum) -> _Cell:
    """d's cell, made on a throwaway row for a datum from normalize_gamma."""
    if d.cell is None:
        d.cell = _Cell(d.parts, _Row(d.parts.ell_part, d.ell))
    return d.cell


def iter_extensions(
    K: NumberField,
    ell: int,
    X: int,
    order_by: str = "disc",
    dedup: bool = True,
    ceilings: Ceilings | None = None,
) -> Iterator[ExtensionRecord]:
    """Stream the degree-ell Kummer extensions of K with the chosen norm <= X.

    order_by="disc" bounds N(Delta); order_by="ell_free" bounds the norm
    of the ell-free discriminant part (the ordering the density limits
    use).  With dedup=True (default) each isomorphism class appears once,
    represented by the least parameter tuple of its orbit; dedup=False
    exposes the raw (ell-1)-fold redundancy.  The stream is deterministic
    but not norm-sorted: ell-part rows Q in sort-key order, then the
    ell-free parts I in the order of ClassGroup.ell_free_ideals, each I
    sent to its cell classes in ascending order, so for h > 1 the classes
    interleave; the first cell is the unit ideal (Q = I = (1), class 0).
    Memory stays flat no matter how large X is.
    """
    if order_by not in ("disc", "ell_free"):
        raise ValueError(f"unknown ordering {order_by!r}")
    if X < 1:
        return
    cg = compute_class_group(K, ceilings)
    ug = cg.units
    u_reps = unit_coset_reps(ug, ell)
    units = [(u, unit_coset_coords(ug, u, ell)) for u in u_reps]
    group = cg.group
    reps = [cg.ell_free_representative(cls, ell, ceilings) for cls in range(cg.h)]
    # the classes cls with cls^ell = t, ascending, for each class t
    ell_roots: dict[int, list[int]] = {}
    for cls in range(cg.h):
        ell_roots.setdefault(group.power(cls, ell), []).append(cls)
    ell_primes = sorted(split_prime(K, ell))
    z_choices = [
        FactoredIdeal(K, {q: e for q, e in zip(ell_primes, exps) if e})
        for exps in itertools.product(range(ell), repeat=len(ell_primes))
    ]
    z_choices.sort(key=FactoredIdeal.sort_key)
    for Q in z_choices:
        lmin_norm = math.prod(q.norm ** _wild_exponent(q, ell, 0) for q in Q.exps)
        if order_by == "disc":
            if lmin_norm > X:
                continue
            s_bound = integer_nthroot(X // lmin_norm, ell - 1)[0]
        else:
            s_bound = integer_nthroot(X, ell - 1)[0]
        if s_bound < 1:
            continue
        pool = [q for q in primes_of_norm_up_to(K, s_bound) if q.p != ell]
        q_class = cg.index_of(Q, ceilings)
        # rep^ell Q I must be principal: I of class c lands in the cells
        # cls with cls^ell = (c [Q])^-1
        cells_of = [
            ell_roots.get(group.power(group.op(c, q_class), group.exponent - 1), [])
            for c in range(cg.h)
        ]
        row = _Row(Q, ell)
        for support, c in cg.ell_free_ideals(pool, s_bound, ell, ceilings):
            if not cells_of[c]:
                continue
            I = FactoredIdeal._of(K, dict(support))
            for cls in cells_of[c]:
                yield from _cell_records(
                    K, ell, X, order_by, dedup, ceilings, cg, units, row, reps[cls], cls, Q, I
                )


def enumerate_extensions(
    K: NumberField,
    ell: int,
    X: int,
    order_by: str = "disc",
    dedup: bool = True,
    ceilings: Ceilings | None = None,
) -> list[ExtensionRecord]:
    """All extensions up to X, sorted by (discriminant norm, parameter tuple).

    Same stream as iter_extensions, materialized and sorted.
    """
    records = list(iter_extensions(K, ell, X, order_by, dedup, ceilings))
    records.sort(key=ExtensionRecord.sort_key)
    return records


def _cell_records(K, ell, X, order_by, dedup, ceilings, cg, units, row, rep, cls, Q, I):
    """The records of one cell: gamma = alpha * u for the cell generator alpha
    and each (u, coset) of units, the unit coset representatives.

    The cell computes its generator once and reads its parts off rep, Q and
    I (rep is coprime to ell, Q lies over ell, I is ell-power-free); its
    candidates share one _Cell and, through it, the row's memo of the wild
    ell-part L.  A record's Steinitz class is that of sqrt(L / Q^(ell-1)),
    checked and looked up once per (row, L), minus that of the cell's off,
    once per cell.  For odd ell, orbit dedup makes one normalize_gamma call
    per power gamma^m tried, passing it gamma^m from int products and fa^m,
    the ideal of gamma^m in factored form, made once per cell on first need;
    a power whose key precedes the candidate's (_precedes) drops it.
    """
    fa = rep**ell * Q * I
    unit_cell = fa.is_unit_ideal()
    if unit_cell:
        alpha = K.one
    else:  # fa is integral, so the generator's denominator is 1
        alpha = AlgebraicNumber._of(K, cg.generator_coords(fa, ceilings)[0])
    if ell == 2:  # I is squarefree: its own one power part
        power_parts = {1: I}
    else:
        by_exp: dict[int, dict[PrimeIdeal, int]] = {i: {} for i in range(1, ell)}
        for q, a in I.exps.items():
            by_exp[a][q] = 1
        power_parts = {i: FactoredIdeal._of(K, e) for i, e in by_exp.items()}
    parts = PartsDecomposition(ell, Q, rep, power_parts)
    cell = _Cell(parts, row)
    tame_norm = cell.tame_norm
    off_cls = cg.index_of(cell.off.inverse(), ceilings)
    mul = K.mul_int_coords
    by_disc = order_by == "disc"
    fa_pows: list[FactoredIdeal] = []  # fa^2, fa^3, ..., each made on first need
    for u, coset in units:
        if unit_cell and not any(coset):
            continue  # gamma is the trivial ell-th power
        gamma = alpha if u.is_one() else AlgebraicNumber._of(K, mul(alpha.coords, u.coords))
        datum = KummerDatum(K, ell, gamma, parts, u, cls, coset, cell)
        delta, lpart, fpart = _discriminant_split(datum, ceilings)
        entry = row.entry(lpart)
        disc_norm = tame_norm * entry[1]
        if (disc_norm if by_disc else tame_norm) > X:
            continue
        if dedup and ell > 2:
            power, smaller = gamma.coords, False
            for m in range(2, ell):
                power = mul(power, gamma.coords)
                if len(fa_pows) < m - 1:
                    fa_pows.append(fa**m)
                gamma_m = AlgebraicNumber._of(K, power)
                other = normalize_gamma(gamma_m, ell, ceilings, fa=fa_pows[m - 2])
                if _precedes(other, datum):
                    smaller = True
                    break
            if smaller:
                continue
        st = entry[2]
        if st is None:
            st = entry[2] = cg.index_of(_steinitz_root(lpart, row.q_pow), ceilings)
        if off_cls:
            st = cg.group.op(st, off_cls)
        yield ExtensionRecord(datum, delta, lpart, fpart, st, disc_norm)


def _precedes(other: KummerDatum, datum: KummerDatum) -> bool:
    """other.key() < datum.key(): the unit cosets decide unless they tie,
    and only a tie builds the keys."""
    if other.unit_coset != datum.unit_coset:
        return other.unit_coset < datum.unit_coset
    return other.key() < datum.key()


def record_json_dict(record: ExtensionRecord, cg: ClassGroup) -> dict:
    """The JSON-lines shape: coordinates, norm, factored discriminant, class."""
    return {
        "gamma": list(record.datum.gamma.int_coords()),
        "disc_norm": str(record.disc_norm),
        "disc_factored": [
            [q.label(), e] for q, e in sorted(record.discriminant.exps.items())
        ],
        "steinitz": list(cg.group.log(record.steinitz)),
    }
