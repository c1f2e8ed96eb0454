"""Class group and unit group at desk scale.

Class group: census every prime of norm up to the Minkowski bound, sort
the primes into equivalence classes with principality tests, close the
class list under multiplication, and hand the times table to the abelian
engine.  Unit group: the roots of unity are the field's own
(NumberField.torsion, the one roots-of-unity search); fundamental units
come from the short vectors (NumberField.short_vectors) of balls of
growing T2 radius, units themselves and ratios of elements generating
equal ideals, followed by one reduction (_reduce_units) of their float
log lattice (NumberField.log_abs_embeddings); only the regulator keeps a
140-bit mpmath determinant.  The reduction is exact on the units found;
that the result is a *fundamental* system is certified downstream by the
analytic class number formula cross-check, as advertised.
"""

from __future__ import annotations

import itertools
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
    _embedding_ranked,
    _search_constants,
    as_factored,
    ideal_from_element,
    norm_matches,
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
    log_rows: list[list[float]] = dc_field(init=False, repr=False, compare=False)
    vertex_inverses: list[list[list[float]]] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = self.field
        self._torsion = [K.one]
        for _ in range(self.w - 1):
            self._torsion.append(self._torsion[-1] * self.zeta)
        # log |sigma_i(eps_j)|, one row per place; for each place m, the
        # inverse of the rows of the other places (ClassGroup.generator; the
        # last, of the first r places, serves unit_dlog)
        r = self.rank
        cols = [K.log_abs_embeddings(u.int_coords()) for u in self.fundamental]
        self.log_rows = [[c[i] for c in cols] for i in range(r + 1)]
        unit = [[float(i == j) for j in range(r)] for i in range(r)]
        self.vertex_inverses = []
        for m in range(r + 1 if r else 0):
            others = list(zip(*(self.log_rows[:m] + self.log_rows[m + 1:])))
            self.vertex_inverses.append([list(x) for x in zip(*(_solve(others, e) for e in unit))])

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


def _log_vector(K: NumberField, u: AlgebraicNumber) -> list[float]:
    """Weighted log embeddings (1 for real, 2 for complex) of a unit, in
    floats; entries sum to 0."""
    logs = K.log_abs_embeddings(u.int_coords())
    return [x if i < K.r1 else 2 * x for i, x in enumerate(logs)]


def _det(vectors) -> float:
    """Determinant of r = 1 or 2 vectors of length r."""
    if len(vectors) == 1:
        return vectors[0][0]
    (a, b), (c, d) = vectors
    return a * d - b * c


def _solve(cols, target) -> list[float]:
    """x with sum_j x_j cols[j] = target, by Cramer's rule (r = 1 or 2)."""
    d = _det(cols)
    return [_det(cols[:j] + [target] + cols[j + 1:]) / d for j in range(len(cols))]


def _first_basis(
    K: NumberField, units: list[AlgebraicNumber], rank: int
) -> list[AlgebraicNumber] | None:
    """The first rank-subset of the units with |det| > 1e-6 on their first
    rank weighted logs, or None."""
    logs = [_log_vector(K, u)[:rank] for u in units]
    for s in itertools.combinations(range(len(units)), rank):
        if abs(_det([logs[i] for i in s])) > 1e-6:
            return [units[i] for i in s]
    return None


def _reduce_units(K: NumberField, pool: list[AlgebraicNumber], rank: int) -> list[AlgebraicNumber]:
    """Normalized units that form a reduced basis, modulo torsion, of the
    units the pool generates (unit rank 1 or 2).

    From _first_basis, each unit of a work list (first the pool) is divided
    by the basis powers of its rounded log coordinates; a residual of
    infinite order replaces the basis unit whose replacement leaves the
    least nonzero |det|, at most half the old one, and the replaced unit
    goes back on the list.  That is Euclid's algorithm in rank 1; in rank 2
    each basis is Gauss reduced (Cohen, GTM 138, 1.3.14), and at a tie
    (|t| = 1/2 or n1 = n2, within 1e-9) the reduced basis of least
    _coord_sort_key list wins, so the lattice alone fixes the result.
    """
    zeta, w = K.torsion()
    torsion = [zeta**k for k in range(w)]

    def lv(u: AlgebraicNumber) -> list[float]:
        return _log_vector(K, u)[:rank]

    def dot(u: AlgebraicNumber, v: AlgebraicNumber) -> float:
        return sum(map(operator.mul, lv(u), lv(v)))

    def gauss(basis: list[AlgebraicNumber]) -> list[AlgebraicNumber]:
        pairs = [basis]
        if rank == 2:
            b1, b2 = basis
            while True:
                n1 = dot(b1, b1)
                t = dot(b1, b2) / n1
                if n1 > dot(b2, b2) * (1 + 1e-9):
                    b1, b2 = b2, b1
                elif abs(t) > 0.5 + 1e-9:
                    b2 = b2 * b1 ** -round(t)
                else:
                    break
            short = [b1, b2] + ([b2 / b1 if t > 0 else b2 * b1] if abs(abs(t) - 0.5) <= 1e-9 else [])
            pairs = [[x, y] for x, y in itertools.permutations(short, 2) if dot(x, x) <= n1 * (1 + 1e-9)]
        normalized = ([_normalize_unit(K, torsion, u) for u in p] for p in pairs)
        return min(normalized, key=lambda p: [_coord_sort_key(u.int_coords()) for u in p])

    basis, work = gauss(_first_basis(K, pool, rank)), pool[::-1]
    while work:
        v = work.pop()
        logs = [lv(b) for b in basis]
        for b, e in zip(basis, map(round, _solve(logs, lv(v)))):
            v = v * b ** (-e) if e < 0 else v / b**e
        if (v**w).is_one():
            continue
        lr = lv(v)
        _, j = min((d, j) for j in range(rank) if (d := abs(_det(logs[:j] + [lr] + logs[j + 1:]))) > 1e-6)
        work.append(basis[j])
        basis = gauss(basis[:j] + [v] + basis[j + 1:])
    return basis


def _normalize_unit(K: NumberField, torsion: list[AlgebraicNumber], g: AlgebraicNumber):
    """Deterministic associate: > 1 in the reference embedding, minimal coords.

    Reference embedding: the largest real root when r1 > 0, else the first
    complex one.  Then the smallest coordinate key among torsion multiples
    (highest coordinate compared first, |c| before sign).
    """
    ref = K.r1 - 1 if K.r1 > 0 else 0
    if K.log_abs_embeddings(g.int_coords())[ref] < 0:
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

    fundamental = _reduce_units(K, _unit_search_pool(K, rank, ceilings), rank) if rank else []

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
        return 2 if rank == 2 and _first_basis(K, pool, 2) else min(len(pool), 1)

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
            for i, v in enumerate(K.embeddings(u, 140)[:r]):
                m[i, j] = (1 if i < K.r1 else 2) * mpmath.log(abs(v))
        return abs(mpmath.det(m))


def unit_dlog(ug: UnitGroup, u: AlgebraicNumber) -> tuple[int, tuple[int, ...]]:
    """Write a unit as zeta^a * prod fundamental_i^{b_i}; return (a, b).

    The b_i solve the log embedding at the first r places, through the
    inverse UnitGroup.vertex_inverses[r] (they are exact integers, so the
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
        logs = K.log_abs_embeddings(u.int_coords())[:r]
        for row in ug.vertex_inverses[r]:
            x = sum(map(operator.mul, row, logs))
            n = round(x)
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
    int denominator, the first generator a class search found.  generator()
    multiplies them into a generator of an ideal and picks the canonical one
    among its torsion and unit multiples, whichever g it started from, with
    no search.
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
        # each fundamental unit with its inverse, and the log of the search's
        # unit-balance scale (_least_unit_multiple)
        units = self.units.fundamental
        self._unit_coords = [(u.coords, u.inverse().coords) for u in units]
        self._log_scale = math.log(_search_constants(K, units)) if units else 0.0

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
        representatives under the caller's ceilings; the class and the
        generator found are cached, facts about the field, not a budget."""
        got = self.prime_class.get(q)
        if got is not None:
            return got
        found = _find_class(FactoredIdeal(self.field, {q: 1}), self.reps, self.units, ceilings)
        if found is None:
            raise ArithmeticError(f"prime {q!r} matches no class; census incomplete")
        self.prime_class[q], self.prime_gen[q] = found
        return found[0]

    def generator(self, fa: FactoredIdeal, ceilings: Ceilings | None = None) -> AlgebraicNumber:
        """The canonical generator of fa, as canonical_generator chooses it,
        composed from stored generators with no lattice search.

        fa is cleared to num/den (FactoredIdeal.cleared), and one generator
        g of num is carried prime by prime through the stored generators and
        the times table; a prime not yet looked up goes through
        class_of_prime under the caller's ceilings.  Raises
        NotPrincipalError when the class does not end at 0.  Every
        generator of num is t g eps^k for a root of unity t and a unit
        eps^k, and the canonical one is picked among them, whatever g is:
        in rank 0 the torsion multiple of least key (_least_torsion_multiple),
        in rank >= 1 the least of the unit multiples the search would see
        (_least_unit_multiple).  It is divided by den.  In degree 1 the
        generators are +-N(fa) and the key takes N(fa), a product of prime
        powers.
        """
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
        coords = [c // scale for c in coords]
        if self.units.rank:
            target = math.prod(q.norm**e for q, e in num.exps.items())
            best = self._least_unit_multiple(coords, target, ceilings)
        else:
            best = self._least_torsion_multiple(coords)
        return K.element(best if den == 1 else [Fraction(c, den) for c in best])

    def _least_unit_multiple(
        self, coords: list[int], target: int, ceilings: Ceilings | None
    ) -> list[int]:
        """The generator canonical_generator picks among the t g eps^k, for g
        of norm +-target given by int coordinates.

        The search (ideals._lattice_norm_matches) ranks every generator in
        an ellipsoid that holds the region max |sigma| <= M, where M is
        target^(1/n) times the scale of ideals._search_constants, and the
        least generator lies 1.0001 inside M.  The ranking
        (ideals._embedding_ranked) depends only on the generators within a
        relative 1e-12 or so of the least max |sigma|, in the search's
        order, so ranking the generators with max |sigma| <= M in that
        order picks the same element.  Those are the torsion multiples of
        g eps^k for the integer points k of the simplex
        log |sigma_i(g)| + sum_j k_j log |sigma_i(eps_j)| <= log M, one
        inequality per place i.  Vertex m makes every inequality but the
        m-th an equality (UnitGroup.vertex_inverses); the points of the
        vertices' bounding box count against ceilings.search_points, are
        walked by exact products and kept when inside.  Torsion multiples
        share every |sigma|, so when the ranking's float pre-screen leaves
        one kept point, its torsion multiples all tie and the least
        coordinate key decides (_least_torsion_multiple) with no mpmath.
        """
        K, ug = self.field, self.units
        ceilings = ceilings or Ceilings()
        mul = K.mul_int_coords
        log_m = math.log(target) / K.degree + self._log_scale + 1e-9
        slack = [log_m - x for x in K.log_abs_embeddings(coords)]  # (L k)_i <= slack_i
        vertices = [
            [sum(map(operator.mul, row, slack[:m] + slack[m + 1:])) for row in inv]
            for m, inv in enumerate(ug.vertex_inverses)
        ]
        ranges = [range(math.ceil(min(c)), math.floor(max(c)) + 1) for c in zip(*vertices)]
        points = math.prod(map(len, ranges))
        if points > ceilings.search_points:
            raise CeilingError(f"unit reduction over {points} box points", ceilings.search_points)
        start = coords
        for (u, u_inv), rng in zip(self._unit_coords, ranges):
            for _ in range(abs(rng.start)):
                start = mul(start, u if rng.start > 0 else u_inv)

        def box(j: int, x, ks: tuple):
            if j == ug.rank:
                yield ks, x
                return
            u = self._unit_coords[j][0]
            for k in ranges[j]:
                yield from box(j + 1, x, ks + (k,))
                x = mul(x, u)

        kept = [
            x for ks, x in box(0, start, ())
            if all(sum(map(operator.mul, row, ks)) <= s for row, s in zip(ug.log_rows, slack))
        ]
        if not kept:
            raise ArithmeticError(f"unit reduction of {coords} kept no point")
        tops = [K.max_embedding_sq(x) for x in kept]
        cut = min(tops) * (1 + 2e-6)
        near = [x for x, t in zip(kept, tops) if t <= cut]
        if len(near) == 1:
            best = self._least_torsion_multiple(near[0])
        else:
            found = [[sum(map(operator.mul, row, x)) for row in rows]
                     for x in near for rows in self._torsion_rows]
            best = _embedding_ranked(K, sorted(found, key=lambda c: c[::-1]))
        if abs(K.norm_int(best)) != target:
            raise ArithmeticError(f"unit reduction of {coords} lost the norm {target}")
        return best

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
        a, which bounds the norm of the radical.  When h = 1 every class is
        0 and no prime is looked up.
        """
        pool = sorted((q for q in pool if q.norm <= bound), key=PrimeIdeal.sort_key)
        norms = [q.norm for q in pool]
        cls_of = [self.class_of_prime(q, ceilings) for q in pool] if self.h > 1 else [0] * len(pool)
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
    principal, g the first generator the search finds (norm_matches on the
    cleared numerator, unranked) as (int coordinates, denominator); None
    when there is no such r."""
    for i, rep in enumerate(reps):
        num, den = (fa * rep.inverse()).num_den()
        if num.is_one():
            return i, (fa.field.one.coords, den)
        matches = norm_matches(num, units.fundamental, ceilings)
        if matches:
            return i, (tuple(matches[0]), den)
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

    # close the class list and fill the times table in one pass: each round
    # tests once each product reps[i] reps[j], 1 <= i <= j, new since the
    # last round; a product in no listed class is the next representative
    products: dict[tuple[int, int], tuple] = {}
    done = 1
    while done < len(reps):
        h = len(reps)
        if h > 64:
            raise ArithmeticError(f"class census runaway at {h} classes")
        for i in range(1, h):
            for j in range(max(i, done), h):
                prod = reps[i] * reps[j]
                found = _find_class(prod, reps, units, ceilings)
                if found is None:
                    reps.append(prod)
                    found = len(reps) - 1, one
                products[i, j] = products[j, i] = found
        done = h
    h = len(reps)
    for j in range(h):
        products[0, j] = products[j, 0] = j, one

    group = FiniteAbelianGroup(list(range(h)), lambda a, b: products[a, b][0], 0)
    return ClassGroup(
        field=K, group=group, reps=reps, units=units, products=products,
        prime_class=prime_class, prime_gen=prime_gen,
    )
