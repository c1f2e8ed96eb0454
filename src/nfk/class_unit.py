"""Class group and unit group at desk scale.

Class group: census every prime of norm up to the Minkowski bound, sort
the primes into equivalence classes with principality tests, close the
class list under multiplication, and hand the times table to the abelian
engine.  Unit group: the roots of unity are the field's own
(NumberField.torsion, the one roots-of-unity search); fundamental units
come from the short vectors (NumberField.short_vectors) of balls of
growing T2 radius, units themselves and ratios of elements generating
equal ideals, followed by exact Euclidean reduction in log space.  The
reduction is exact on the units found; that the result is a *fundamental*
system is certified downstream by the analytic class number formula
cross-check, as advertised.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator

import mpmath

from .abelian_groups import FiniteAbelianGroup
from .config import Ceilings
from .errors import CeilingError, MissingRootOfUnityError, NotPrincipalError, RankError
from .ideals import (
    FactoredIdeal,
    PrimeIdeal,
    _coord_sort_key,
    as_factored,
    canonical_generator,
    ideal_from_element,
    principal_test_generator,
    primes_of_norm_up_to,
    split_prime,
)
from .number_field import AlgebraicNumber, NumberField

from sympy import nextprime


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


@dataclass
class UnitGroup:
    field: NumberField
    zeta: AlgebraicNumber  # generator of the torsion subgroup
    w: int  # torsion order
    fundamental: list[AlgebraicNumber]
    regulator: object  # mpmath.mpf
    _torsion: list[AlgebraicNumber] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._torsion = [self.field.one]
        for _ in range(self.w - 1):
            self._torsion.append(self._torsion[-1] * self.zeta)

    @property
    def rank(self) -> int:
        return len(self.fundamental)

    def torsion_elements(self) -> list[AlgebraicNumber]:
        """zeta^0, ..., zeta^(w-1), built once with the unit group."""
        return self._torsion

    def zeta_ell_part(self, ell: int) -> tuple[AlgebraicNumber, int]:
        """Generator of the ell-part of torsion and its order ell^v."""
        v = 0
        w = self.w
        while w % ell == 0:
            w //= ell
            v += 1
        return self.zeta**w, ell**v


def _log_vector(K: NumberField, u: AlgebraicNumber, prec: int = 120) -> list:
    """Weighted log embeddings (1 for real, 2 for complex); entries sum to 0."""
    with mpmath.workprec(prec):
        vals = K.embeddings(u, prec)
        out = []
        for i, v in enumerate(vals):
            weight = 1 if i < K.r1 else 2
            out.append(weight * mpmath.log(abs(v)))
        return out


def _det2(v1, v2):
    """Determinant of the first two coordinates of two log vectors."""
    return v1[0] * v2[1] - v1[1] * v2[0]


def _euclid_reduce_rank_one(K: NumberField, pool: list[AlgebraicNumber]) -> AlgebraicNumber:
    """Exact gcd of the units' log lattice (rank 1) by Euclid on actual units."""

    def ln(u):
        return _log_vector(K, u)[0]

    g = None
    for v in pool:
        if g is None:
            g = v
            continue
        a, b = g, v
        while True:
            la, lb = ln(a), ln(b)
            if abs(lb) < mpmath.mpf("1e-25"):
                if K.element_order(b, cap=64) is None:
                    raise ArithmeticError("log collapsed on a non-torsion unit")
                break
            q = int(mpmath.nint(la / lb))
            a, b = b, a * b**-q
        g = a
    if g is None:
        raise ArithmeticError("no non-torsion unit in pool")
    if _log_vector(K, g)[0] < 0:
        g = g**-1
    return g


def _gauss_reduce_rank_two(
    K: NumberField, pool: list[AlgebraicNumber]
) -> list[AlgebraicNumber]:
    """Reduce a pool of units of infinite order (log rank 2) to a short basis;
    exact unit arithmetic."""

    def lv(u):
        return _log_vector(K, u)[:2]

    basis = None
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            if abs(_det2(lv(pool[i]), lv(pool[j]))) > mpmath.mpf("1e-8"):
                basis = [pool[i], pool[j]]
                break
        if basis:
            break
    if not basis:
        raise ArithmeticError("pool does not span rank 2")

    def pair_reduce(b1, b2):
        for _ in range(200):
            v1, v2 = lv(b1), lv(b2)
            n1 = v1[0] ** 2 + v1[1] ** 2
            n2 = v2[0] ** 2 + v2[1] ** 2
            if n1 > n2:
                b1, b2 = b2, b1
                continue
            mu = int(mpmath.nint((v1[0] * v2[0] + v1[1] * v2[1]) / n1))
            if mu == 0:
                return [b1, b2]
            b2 = b2 * b1**-mu
        raise ArithmeticError("Gauss reduction did not converge")

    basis = pair_reduce(*basis)
    for v in pool:
        for _ in range(64):
            v1, v2 = lv(basis[0]), lv(basis[1])
            d = _det2(v1, v2)
            w = lv(v)
            a = int(mpmath.nint((w[0] * v2[1] - w[1] * v2[0]) / d))
            b = int(mpmath.nint((v1[0] * w[1] - v1[1] * w[0]) / d))
            resid = v * basis[0] ** -a * basis[1] ** -b
            if K.element_order(resid, cap=64) is not None:
                break
            # finer lattice: swap in the residual and re-reduce
            cands = [basis[0], basis[1], resid]
            best = None
            for i in range(3):
                for j in range(i + 1, 3):
                    dd = abs(_det2(lv(cands[i]), lv(cands[j])))
                    if dd > mpmath.mpf("1e-8") and (best is None or dd < best[0]):
                        best = (dd, [cands[i], cands[j]])
            basis = pair_reduce(*best[1])
            v = resid
        else:
            raise ArithmeticError("basis refinement did not stabilize")
    return basis


def _normalize_unit(K: NumberField, torsion: list[AlgebraicNumber], g: AlgebraicNumber):
    """Deterministic associate: > 1 in the reference embedding, minimal coords.

    Reference embedding: the largest real root when r1 > 0, else the first
    complex one.  Then the smallest coordinate key among torsion multiples
    (highest coordinate compared first, |c| before sign).
    """
    ref = K.r1 - 1 if K.r1 > 0 else 0
    with mpmath.workprec(120):
        if mpmath.log(abs(K.embeddings(g, 100)[ref])) < 0:
            g = g**-1
    return min((g * t for t in torsion), key=lambda x: _coord_sort_key(x.int_coords()))


def compute_unit_group(K: NumberField, ceilings: Ceilings | None = None) -> UnitGroup:
    """Torsion + fundamental units + regulator.  Cached on the field.

    ceilings default to Ceilings(), as in every other layer; only the CLI
    reads NFK_CEILING.
    """
    if K._unit_group is not None:
        return K._unit_group
    ceilings = ceilings or Ceilings()
    zeta, w = K.torsion()
    rank = K.r1 + K.r2 - 1
    if rank > 2:
        raise RankError(f"unit rank {rank} unsupported (max 2)")

    fundamental: list[AlgebraicNumber] = []
    if rank > 0:
        pool = _unit_search_pool(K, rank, ceilings)
        if rank == 1:
            fundamental = [_euclid_reduce_rank_one(K, pool)]
        else:
            fundamental = _gauss_reduce_rank_two(K, pool)
        torsion = [zeta**k for k in range(w)]
        fundamental = [_normalize_unit(K, torsion, u) for u in fundamental]

    for u in fundamental:
        if abs(u.norm()) != 1 or not ideal_from_element(u).is_one():
            raise ArithmeticError(f"non-unit {u!r} in fundamental system")

    reg = _regulator(K, fundamental)
    if rank and reg < mpmath.mpf("0.05"):
        raise ArithmeticError(f"degenerate regulator {reg}")
    K._unit_group = UnitGroup(field=K, zeta=zeta, w=w, fundamental=fundamental, regulator=reg)
    return K._unit_group


def _unit_search_pool(K: NumberField, rank: int, ceilings: Ceilings) -> list[AlgebraicNumber]:
    """Units of infinite order from balls of growing T2 radius.

    NumberField.short_vectors enumerates each ball on the power basis,
    from T2 <= n, each ball with twice the volume of the last, up to
    T2 <= n unit_height^2.  A point already inside the previous ball is
    skipped, so each point is handled once: a point of norm +-1 is a unit,
    and a point of norm up to 4^n that generates the same ideal as an
    earlier one gives their ratio.  The search stops after the first ball
    whose units have log rank `rank`.
    """
    n = K.degree
    power_basis = [K.theta_power(k) for k in range(n)]
    w = K.torsion()[1]
    buckets: dict = {}
    pool: list[AlgebraicNumber] = []

    def keep(u: AlgebraicNumber) -> None:
        if not (u**w).is_one():
            pool.append(u)

    def log_rank() -> int:
        logs = [_log_vector(K, u) for u in pool] if rank == 2 else []
        pairs = ((v1, v2) for i, v1 in enumerate(logs) for v2 in logs[i + 1:])
        return 2 if any(abs(_det2(*p)) > mpmath.mpf("1e-8") for p in pairs) else min(len(pool), 1)

    ratio_norm_bound = 4**n
    cap = n * ceilings.unit_height**2
    inner, radius = 0.0, float(n)
    while True:
        for coords in K.short_vectors(power_basis, radius):
            if K.t2(coords) <= inner:
                continue
            anx = abs(K.norm_int(coords))
            x = K.element(coords)
            if anx == 1:
                keep(x)
            elif anx <= ratio_norm_bound:
                key = ideal_from_element(x).hnf
                prev = buckets.get(key)
                if prev is None:
                    buckets[key] = x
                else:
                    ratio = x / prev
                    if ratio.is_integral() and abs(ratio.norm()) == 1:
                        keep(ratio)
        if log_rank() >= rank:
            return pool
        if radius >= cap:
            h = ceilings.unit_height
            raise CeilingError(f"unit search exhausted height {h} at rank {log_rank()} < {rank}", h)
        inner, radius = radius, min(radius * 4 ** (1 / n), cap)


def _regulator(K: NumberField, fundamental: list[AlgebraicNumber]):
    r = len(fundamental)
    with mpmath.workprec(140):
        if r == 0:
            return mpmath.mpf(1)
        m = mpmath.matrix(r, r)
        for j, u in enumerate(fundamental):
            v = _log_vector(K, u, prec=140)
            for i in range(r):
                m[i, j] = v[i]
        return abs(mpmath.det(m))


def unit_dlog(ug: UnitGroup, u: AlgebraicNumber) -> tuple[int, tuple[int, ...]]:
    """Write a unit as zeta^a * prod fundamental_i^{b_i}; return (a, b).

    The b_i come from the log embedding (they are exact integers, so the
    float solve only has to land within 1/4 of one); the torsion part is
    then matched exactly and the whole factorization re-verified with
    exact arithmetic.
    """
    K = ug.field
    if not (u.is_integral() and abs(u.norm()) == 1):
        raise ValueError(f"{u!r} is not a unit")
    r = ug.rank
    b: list[int] = []
    if r:
        with mpmath.workprec(160):
            cols = [_log_vector(K, f, prec=160) for f in ug.fundamental]
            target = _log_vector(K, u, prec=160)
            m = mpmath.matrix(r, r)
            for j in range(r):
                for i in range(r):
                    m[i, j] = cols[j][i]
            sol = mpmath.lu_solve(m, mpmath.matrix(target[:r]))
        for x in sol:
            n = int(mpmath.nint(x))
            if abs(x - n) > 0.25:
                raise ArithmeticError(f"unit dlog: exponent {x} is not near an integer")
            b.append(n)
    t = u
    for f, e in zip(ug.fundamental, b):
        t = t * f ** (-e) if e < 0 else t / f**e
    t = K.element(t.int_coords())
    for a, z in enumerate(ug.torsion_elements()):
        if z == t:
            check = z
            for f, e in zip(ug.fundamental, b):
                check = check * f**e if e >= 0 else check / f ** (-e)
            if K.element(check.int_coords()) != u:
                raise ArithmeticError("unit dlog verification failed")
            return a, tuple(b)
    raise ArithmeticError(f"unit dlog: residual {t!r} is not a root of unity")


def unit_coset_coords(ug: UnitGroup, u: AlgebraicNumber, ell: int) -> tuple[int, ...]:
    """Coordinates of u in U/U^ell = Z/gcd(w,ell) x (Z/ell)^rank.

    All-zero iff u is an ell-th power of a unit.
    """
    a, b = unit_dlog(ug, u)
    g = math.gcd(ug.w, ell)
    return (a % g,) + tuple(x % ell for x in b)


def unit_coset_reps(ug: UnitGroup, ell: int) -> list[AlgebraicNumber]:
    """Representatives of U/U^ell: {zeta_ell^a * prod u_i^{b_i}, 0 <= a,b_i < ell}.

    Exactly ell^(r1+r2) of them; requires zeta_ell in K.
    """
    K = ug.field
    if K.contains_zeta(ell) is None:
        raise MissingRootOfUnityError(f"field has no primitive {ell}-th root of unity")
    zl, _order = ug.zeta_ell_part(ell)
    reps = []
    exps = [0] * (1 + len(ug.fundamental))
    gens = [zl] + list(ug.fundamental)
    while True:
        acc = K.one
        for g, e in zip(gens, exps):
            for _ in range(e):
                acc = acc * g
        reps.append(acc)
        i = 0
        while i < len(exps):
            exps[i] += 1
            if exps[i] < ell:
                break
            exps[i] = 0
            i += 1
        if i == len(exps):
            break
    expected = ell ** (K.r1 + K.r2)
    if len(reps) != expected:
        raise ArithmeticError(f"{len(reps)} coset reps != {expected}")
    return reps


# ---------------------------------------------------------------------------
# class group
# ---------------------------------------------------------------------------


@dataclass
class ClassGroup:
    """The census class group, with the generators its class searches found.

    products[(i, j)] = (k, g) with reps[i] reps[j] = (g) reps[k], the times
    table that group.op reads; prime_class[q] = c and prime_gen[q] = g with
    q = (g) reps[c].  Each g is an int coordinate tuple over one positive
    int denominator.  In unit rank 0 generator() multiplies them into the
    canonical generator of an ideal with no search.
    """

    field: NumberField
    group: FiniteAbelianGroup  # over class indices 0..h-1
    reps: list[FactoredIdeal]  # reps[0] = unit ideal
    units: UnitGroup
    products: dict
    prime_class: dict = dc_field(default_factory=dict)
    prime_gen: dict = dc_field(default_factory=dict)
    _ell_free_reps: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        # y -> t*y for each root of unity t, as int matrix rows (generator())
        K = self.field
        basis = [K.theta_power(j) for j in range(K.degree)]
        self._torsion_rows = []
        for t in self.units.torsion_elements():
            cols = [K.mul_int_coords(t.coords, b) for b in basis]
            self._torsion_rows.append(list(zip(*cols)))

    @property
    def h(self) -> int:
        return self.group.order

    def index_of(self, a, ceilings: Ceilings | None = None) -> int:
        """Class index of an Ideal or FactoredIdeal (0 when h = 1)."""
        if self.h == 1:
            return 0
        fa = as_factored(a)
        # compose from prime classes (exponents taken mod h: the class of
        # q^e depends only on e mod the order of [q], which divides h)
        acc = 0
        for q in fa.support():
            idx = self.class_of_prime(q, ceilings)
            acc = self.group.op(acc, self.group.power(idx, fa.exps[q] % self.h))
        return acc

    def class_of_prime(self, q: PrimeIdeal, ceilings: Ceilings | None = None) -> int:
        """Class index of a prime, by principal tests against the census
        representatives under the caller's ceilings.  Only the class is
        cached: it is a fact about the field, not about a search budget."""
        got = self.prime_class.get(q)
        if got is not None:
            return got
        found = _find_class(FactoredIdeal(self.field, {q: 1}), self.reps, self.units, ceilings)
        if found is None:
            raise ArithmeticError(f"prime {q!r} matches no class; census incomplete")
        self.prime_class[q], self.prime_gen[q] = found
        return found[0]

    def generator(self, fa: FactoredIdeal, ceilings: Ceilings | None = None) -> AlgebraicNumber:
        """The canonical generator of fa, as canonical_generator chooses it.

        In unit rank >= 1 this is canonical_generator.  In unit rank 0 (Q
        and the imaginary quadratic fields) the generators of fa are the w
        torsion multiples of any one of them, and canonical_generator takes
        the least coordinate key among them (a key that positive scaling
        keeps).  So fa is cleared to num/den (FactoredIdeal.cleared), one
        generator of num is carried prime by prime through the stored
        generators and the times table, and the torsion multiple of least
        key is divided by den.  A prime not yet looked up goes through
        class_of_prime under the caller's ceilings.  Raises
        NotPrincipalError when the class does not end at 0.  In degree 1
        the generators are +-N(fa) and the key takes N(fa), a product of
        prime powers.
        """
        if self.units.rank:
            return canonical_generator(fa, self.units.fundamental, ceilings)
        K = self.field
        if K.degree == 1:
            num = den = 1
            for q, e in fa.exps.items():
                if e > 0:
                    num *= q.p**e
                else:
                    den *= q.p**-e
            return K.element([num if den == 1 else Fraction(num, den)])
        mul = K.mul_int_coords
        num, den = fa.cleared()
        coords = one = K.one.coords
        scale, cls = 1, 0
        for q, e in num.exps.items():
            if q not in self.prime_gen:
                self.class_of_prime(q, ceilings)
            cq, (gq, dq) = self.prime_class[q], self.prime_gen[q]
            for _ in range(e):
                cls, (gp, dp) = self.products[cls, cq]
                coords = mul(coords, gq) if gp == one else mul(mul(coords, gq), gp)
                scale *= dq * dp
        if cls:
            raise NotPrincipalError(f"{fa!r} is not principal")
        if any(c % scale for c in coords):
            raise ArithmeticError(f"composed generator of {fa!r} is not integral")
        best = self._least_torsion_multiple([c // scale for c in coords])
        return K.element(best if den == 1 else [Fraction(c, den) for c in best])

    def _least_torsion_multiple(self, coords: list[int]) -> list[int]:
        """The torsion multiple t*x of least _coord_sort_key.

        The key compares the highest coordinate first, by (|c|, sign), an
        order that 2|c| + (c < 0) reproduces on ints; so only the multiples
        whose highest coordinate ties for least are formed in full.
        """
        tops = []
        for rows in self._torsion_rows:
            c = sum(map(operator.mul, rows[-1], coords))
            tops.append(2 * abs(c) + (c < 0))
        least = min(tops)
        tied = [
            [sum(map(operator.mul, row, coords)) for row in rows]
            for rows, top in zip(self._torsion_rows, tops)
            if top == least
        ]
        return tied[0] if len(tied) == 1 else min(tied, key=_coord_sort_key)

    def ell_free_ideals(
        self,
        pool: list[PrimeIdeal],
        bound: int,
        ell: int,
        ceilings: Ceilings | None = None,
        radical: bool = False,
    ) -> Iterator[tuple[tuple[tuple[PrimeIdeal, int], ...], int]]:
        """Every ell-power-free ideal over the pool within the bound, with its class.

        Yields (support, class index); support holds (q, a) pairs with
        1 <= a <= ell-1, primes ordered by sort key (norm first).  The walk
        is depth first, one prime and then one exponent at a time, from the
        unit ideal ((), 0), and carries the class through the group
        operation.  Exponent a at q charges N(q)^a against the bound, which
        bounds the ideal norm; with radical=True it charges N(q) for every
        a, which bounds the norm of the radical.
        """
        pool = sorted((q for q in pool if q.norm <= bound), key=PrimeIdeal.sort_key)
        norms = [q.norm for q in pool]
        cls_of = [self.class_of_prime(q, ceilings) for q in pool]
        op = self.group.op

        def walk(j0: int, support: tuple, cls: int, rem: int):
            yield support, cls
            for j in range(j0, len(pool)):
                n = norms[j]
                if n > rem:
                    break
                acc, left = cls, rem // n
                for a in range(1, ell):
                    acc = op(acc, cls_of[j])
                    yield from walk(j + 1, support + ((pool[j], a),), acc, left)
                    if not radical:
                        if n > left:
                            break
                        left //= n

        return walk(0, (), 0, bound)

    def ell_free_representative(
        self, index: int, ell: int, ceilings: Ceilings | None = None
    ) -> FactoredIdeal:
        """First prime (smallest p, then smallest norm) in the class, coprime to ell.

        Rational primes p up to ceilings.search_points are searched; a class
        with no such prime raises CeilingError.
        """
        if not 0 <= index < self.h:
            raise ValueError(f"class index {index} outside 0..{self.h - 1}")
        key = (index, ell)
        got = self._ell_free_reps.get(key)
        if got is not None:
            return got
        if index == 0:
            out = FactoredIdeal.unit(self.field)
            self._ell_free_reps[key] = out
            return out
        ceilings = ceilings or Ceilings()
        p = 1
        while (p := nextprime(p)) <= ceilings.search_points:
            if p == ell:
                continue
            for q in sorted(split_prime(self.field, p)):
                if self.class_of_prime(q, ceilings) == index:
                    out = FactoredIdeal(self.field, {q: 1})
                    self._ell_free_reps[key] = out
                    return out
        raise CeilingError(
            f"no prime coprime to {ell} in class {index} over p <= {ceilings.search_points}",
            ceilings.search_points,
        )

    def power_subgroup_indices(self, m: int) -> list[int]:
        """Sorted indices of the subgroup {c^m}."""
        return sorted(self.group.power_subgroup(m))


def _find_class(
    fa: FactoredIdeal, reps: list[FactoredIdeal], units: UnitGroup, ceilings: Ceilings | None
) -> tuple[int, tuple[tuple[int, ...], int]] | None:
    """(i, g) for the first representative r = reps[i] with fa * r^-1
    principal, g its generator from principal_test_generator as (int
    coordinates, denominator); None when there is no such r."""
    for i, rep in enumerate(reps):
        gen = principal_test_generator(fa * rep.inverse(), units.fundamental, ceilings)
        if gen is not None:
            den = math.lcm(*(Fraction(c).denominator for c in gen.coords))
            return i, (tuple(int(c * den) for c in gen.coords), den)
    return None


def compute_class_group(K: NumberField, ceilings: Ceilings | None = None) -> ClassGroup:
    """Minkowski census class group.  Cached on the field."""
    if K._class_group is None:
        K._class_group = _class_group_census(K, ceilings)
    return K._class_group


def _class_group_census(K: NumberField, ceilings: Ceilings | None) -> ClassGroup:
    units = compute_unit_group(K, ceilings)
    bound = K.minkowski_bound()
    one = (K.one.coords, 1)
    reps: list[FactoredIdeal] = [FactoredIdeal.unit(K)]
    prime_class: dict[PrimeIdeal, int] = {}
    prime_gen: dict[PrimeIdeal, tuple] = {}
    for q in sorted(primes_of_norm_up_to(K, bound)):
        fa = FactoredIdeal(K, {q: 1})
        found = _find_class(fa, reps, units, ceilings)
        if found is None:
            reps.append(fa)
            found = len(reps) - 1, one
        prime_class[q], prime_gen[q] = found

    # close the class list under multiplication
    changed = True
    while changed:
        changed = False
        h = len(reps)
        if h > 64:
            raise ArithmeticError(f"class census runaway at {h} classes")
        for i in range(1, h):
            for j in range(i, h):
                prod = reps[i] * reps[j]
                if _find_class(prod, reps, units, ceilings) is None:
                    reps.append(prod)
                    changed = True

    h = len(reps)
    products: dict[tuple[int, int], tuple] = {}
    for i in range(h):
        for j in range(i, h):
            found = _find_class(reps[i] * reps[j], reps, units, ceilings)
            if found is None:
                raise ArithmeticError("class table not closed")
            products[i, j] = products[j, i] = found

    group = FiniteAbelianGroup(list(range(h)), lambda a, b: products[a, b][0], 0)
    return ClassGroup(
        field=K, group=group, reps=reps, units=units, products=products,
        prime_class=prime_class, prime_gen=prime_gen,
    )
