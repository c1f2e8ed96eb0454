"""Degree-ell Kummer extensions L = K(gamma^(1/ell)) without ever building L.

Everything comes from closed formulas on the base field: the relative
discriminant prime-by-prime (unramified / tame exponent ell-1 / wild
exponent from the congruence depth s), the trace-form discriminant
+-ell^ell gamma^(ell-1), and the Steinitz class as the square root of
an explicit fractional ideal.  The enumeration walks the parameter
tuples (unit coset, ideal class, ell-part, ell-free part) and filters
by discriminant norm; each extension arises from exactly ell-1 tuples,
and the survivor is the lexicographically least tuple of its orbit.
The stream runs over the ell-part rows Q in sort-key order, and within a
row in the order of ClassGroup.ell_free_ideals; when h > 1 the cells of
different classes interleave.  The first cell is always the unit ideal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from sympy import integer_nthroot

from .abelian_groups import is_power_class
from .class_unit import ClassGroup, compute_class_group, unit_coset_coords, unit_coset_reps
from .config import Ceilings
from .errors import DegenerateExtensionError, MissingRootOfUnityError
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


@dataclass(frozen=True)
class KummerDatum:
    """A normalized generator of L = K(gamma^(1/ell)).

    gamma is integral, its ell-power root is the fixed class
    representative of its ideal class, its ell-part is ell-power-free,
    and unit_coordinate = gamma / alpha for alpha the canonical generator
    of gamma O_K (ClassGroup.generator).
    """

    field: NumberField
    ell: int
    gamma: AlgebraicNumber
    parts: PartsDecomposition
    unit_coordinate: AlgebraicNumber
    power_root_class: int
    unit_coset: tuple[int, ...]

    def gamma_ideal(self) -> FactoredIdeal:
        return self.parts.reconstruct()

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


def _as_unit(K: NumberField, x: AlgebraicNumber) -> AlgebraicNumber:
    if not x.is_integral():
        raise ArithmeticError(f"{x!r} should be a unit but is not integral")
    u = K.element(x.int_coords())
    if abs(u.norm()) != 1:
        raise ArithmeticError(f"{u!r} should be a unit but has norm {u.norm()}")
    return u


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
    for the canonical generator alpha of the normalized ideal, so the one
    division u = gamma / (k^ell alpha) is a unit exactly when
    fa = gamma O_K.  A wrong fa raises instead of giving a wrong key:
    ArithmeticError from _as_unit, or NotPrincipalError first when fa is
    not principal.  gamma' = alpha u is then integral by construction.
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
    alpha = K.one if fa2.is_unit_ideal() else cg.generator(fa2, ceilings)
    if quo.is_unit_ideal():
        u = _as_unit(K, gamma / alpha)
    else:
        u = _as_unit(K, gamma / (cg.generator(quo, ceilings) ** ell * alpha))
    coset = unit_coset_coords(cg.units, u, ell)
    if fa2.is_unit_ideal() and all(c == 0 for c in coset):
        raise DegenerateExtensionError(
            f"{gamma!r} is an {ell}-th power; the extension is trivial"
        )
    return KummerDatum(
        field=K,
        ell=ell,
        gamma=alpha * u,
        parts=parts,
        unit_coordinate=u,
        power_root_class=cls,
        unit_coset=coset,
    )


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


def _congruence_depth(
    gamma: AlgebraicNumber, q: PrimeIdeal, ell: int, ceilings: Ceilings | None
) -> int:
    """Largest 0 < m <= B = ell*nu_q(1-zeta_ell) with gamma an ell-th power mod q^m.

    gamma must be integral and coprime to q.  Power classes are monotone in
    m, so the first success walking down is the maximum.  m = 1 always
    succeeds: the residue field has order prime to ell, so x -> x^ell is
    onto.  The depth depends only on gamma mod q^B, and since O_K = Z[theta]
    the ideal p^k O_K (p = q.p, k = ceil(B/e)) lies in q^B, so the
    coordinates mod p^k are a sound key: the depth found is memoized under
    them on q (PrimeIdeal._depths).  A walk that raises stores nothing.
    """
    bound = wild_saturation_depth(q, ell)
    mod = q.p ** -(-bound // q.e)
    key = tuple(c % mod for c in gamma.int_coords())
    got = q._depths.get(key)
    if got is not None:
        return got
    for m in range(bound, 0, -1):
        if is_power_class(gamma, q.power(m), ell, ceilings):
            q._depths[key] = m
            return m
    raise ArithmeticError(f"no congruence depth at {q!r}; residue logic broken")


def _discriminant_split(
    d: KummerDatum, ceilings: Ceilings | None = None
) -> tuple[FactoredIdeal, FactoredIdeal, FactoredIdeal]:
    """(Delta, ell-part, ell-free part) of the relative discriminant.

    The ell-free part depends only on the parts of gamma O_K
    (PartsDecomposition.tame_part); the exponents at the primes over ell
    come from gamma itself, through the congruence depth.
    """
    K, ell = d.field, d.ell
    lexps = d.parts.ell_part.exps
    wild: dict[PrimeIdeal, int] = {}
    for q in split_prime(K, ell):
        nu = lexps.get(q, 0)
        if nu % ell:
            wild[q] = (ell - 1) + ell * q.e
            continue
        if nu:
            raise ArithmeticError(f"datum not normalized at {q!r}")
        bound = wild_saturation_depth(q, ell)
        s = _congruence_depth(d.gamma, q, ell, ceilings)
        if s < bound:
            wild[q] = (ell - 1) * (bound - s + 1)
    fpart = d.parts.tame_part
    lpart = FactoredIdeal._of(K, wild)
    return fpart * lpart, lpart, fpart


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


def steinitz_class(
    d: KummerDatum,
    cg: ClassGroup,
    ell_part: FactoredIdeal | None = None,
    ceilings: Ceilings | None = None,
) -> int:
    """Class index of St(O_L), via St^2 = L-part / (Q N^ell prod I_i^(i-1))^(ell-1).

    The division is exact on factored ideals and the quotient is a
    perfect square; both facts are verified en route.
    """
    if ell_part is None:
        ell_part = _discriminant_split(d, ceilings)[1]
    den_pow = d.parts.steinitz_den_pow
    st = (ell_part / den_pow).sqrt()
    if st * st * den_pow != ell_part:
        raise ArithmeticError("Steinitz square does not reassemble the ell-part")
    return cg.index_of(st, ceilings)


def realizable_class_subgroup(cg: ClassGroup, ell: int) -> list[int]:
    """Classes that can occur as Steinitz classes: all of Cl(K) for ell = 2,
    the (ell-1)/2 powers for odd ell."""
    if ell == 2:
        return list(range(cg.h))
    return cg.power_subgroup_indices((ell - 1) // 2)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


def _int_norm(fa: FactoredIdeal) -> int:
    """N(fa) as an int product, for fa integral."""
    return math.prod(q.norm**e for q, e in fa.exps.items())


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
    u_cosets = [unit_coset_coords(ug, u, ell) for u in u_reps]
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
        lmin_norm = 1
        for q, e in Q.exps.items():
            lmin_norm *= q.norm ** ((ell - 1) + ell * q.e)
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
        for support, c in cg.ell_free_ideals(pool, s_bound, ell, ceilings, radical=True):
            if not cells_of[c]:
                continue
            I = FactoredIdeal._of(K, dict(support))
            for cls in cells_of[c]:
                yield from _cell_records(
                    K, ell, X, order_by, dedup, ceilings,
                    ug, cg, u_reps, u_cosets, reps[cls], cls, Q, I,
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


def _cell_records(K, ell, X, order_by, dedup, ceilings, ug, cg, u_reps, u_cosets, rep, cls, Q, I):
    """The records of one cell: gamma = alpha * u for the cell generator alpha
    and each unit coset representative u.

    Everything that depends on the cell alone (its generator and parts,
    the ell-free discriminant and its norm, the Steinitz denominator) is
    computed once, the last three on the PartsDecomposition the candidates
    share; each candidate pays for its congruence depths at the primes over
    ell.  For odd ell, orbit dedup makes one normalize_gamma call per power
    gamma^m tried, passing it fa^m, the ideal of gamma^m in factored form.
    """
    fa = rep**ell * Q * I
    unit_cell = fa.is_unit_ideal()
    alpha = K.one if unit_cell else cg.generator(fa, ceilings)
    # rep is coprime to ell, Q lies over ell and I is ell-power-free, so the
    # parts of fa (decompose_parts) are read off the three factors
    by_exp: dict[int, dict[PrimeIdeal, int]] = {i: {} for i in range(1, ell)}
    for q, a in I.exps.items():
        by_exp[a][q] = 1
    parts = PartsDecomposition(
        ell=ell,
        ell_part=Q,
        root=rep,
        power_parts={i: FactoredIdeal._of(K, e) for i, e in by_exp.items()},
    )
    tame_norm = parts.tame_norm
    for u, coset in zip(u_reps, u_cosets):
        if unit_cell and not any(coset):
            continue  # gamma is the trivial ell-th power
        gamma = alpha if u.is_one() else alpha * u
        datum = KummerDatum(
            field=K,
            ell=ell,
            gamma=gamma,
            parts=parts,
            unit_coordinate=u,
            power_root_class=cls,
            unit_coset=coset,
        )
        delta, lpart, fpart = _discriminant_split(datum, ceilings)
        disc_norm = tame_norm * _int_norm(lpart)
        if (disc_norm if order_by == "disc" else tame_norm) > X:
            continue
        if dedup and ell > 2:
            key = datum.key()
            smaller = False
            for m in range(2, ell):
                other = normalize_gamma(gamma**m, ell, ceilings, fa=fa**m)
                if other.key() < key:
                    smaller = True
                    break
            if smaller:
                continue
        st = steinitz_class(datum, cg, ell_part=lpart, ceilings=ceilings)
        yield ExtensionRecord(
            datum=datum,
            discriminant=delta,
            ell_part=lpart,
            ell_free_part=fpart,
            steinitz=st,
            disc_norm=disc_norm,
        )


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
