"""Class group and unit group at desk scale.

Class group: census every prime of norm up to the Minkowski bound, sort
the primes into equivalence classes with principality tests, close the
class list under multiplication, and hand the times table to the abelian
engine.  Unit group: roots of unity from a tiny embedding box; fundamental
units from a height-increasing sweep that also mines ratios of elements
generating equal ideals, followed by exact Euclidean reduction in log
space.  The reduction is exact on the units found; that the result is a
*fundamental* system is certified downstream by the analytic class number
formula cross-check, as advertised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Iterator

import mpmath

from .abelian_groups import FiniteAbelianGroup
from .config import Ceilings
from .errors import CeilingError, MissingRootOfUnityError, RankError
from .ideals import (
    FactoredIdeal,
    FractionalIdeal,
    Ideal,
    PrimeIdeal,
    factor_ideal,
    ideal_from_element,
    principal_test_generator,
    primes_of_norm_up_to,
    split_prime,
)
from .number_field import AlgebraicNumber, NumberField

from sympy import factorint, nextprime


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

    @property
    def rank(self) -> int:
        return len(self.fundamental)

    def torsion_elements(self) -> list[AlgebraicNumber]:
        out = [self.field.one]
        acc = self.field.one
        for _ in range(self.w - 1):
            acc = acc * self.zeta
            out.append(acc)
        return out

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


def _torsion_units(K: NumberField) -> list[AlgebraicNumber]:
    """All roots of unity: integer points with every embedding on the unit circle."""
    n = K.degree
    rts = K.roots(200)
    with mpmath.workprec(120):
        rows = []
        for i, rho in enumerate(rts):
            vals = [rho**k for k in range(n)]
            if i < K.r1:
                rows.append([mpmath.mpf(v) for v in vals])
            else:
                rows.append([mpmath.mpc(v).real for v in vals])
                rows.append([mpmath.mpc(v).imag for v in vals])
        inv = mpmath.inverse(mpmath.matrix(rows))
        bound = []
        for j in range(n):
            s = sum(abs(inv[j, k]) for k in range(n)) * mpmath.mpf("1.001")
            bound.append(int(mpmath.floor(s)) + 1)
    out = []
    idx = [-b for b in bound]
    while True:
        if any(idx):
            x = K.element(list(idx))
            if abs(x.norm()) == 1 and K.element_order(x, cap=4 * n * n) is not None:
                out.append(x)
        i = 0
        while i < n:
            idx[i] += 1
            if idx[i] <= bound[i]:
                break
            idx[i] = -bound[i]
            i += 1
        if i == n:
            break
    return out


def _all_points(n: int, h: int):
    if n == 0:
        yield []
        return
    for first in range(-h, h + 1):
        for rest in _all_points(n - 1, h):
            yield [first] + rest


def _shell_points(n: int, h: int):
    """All vectors with max|coord| = h (complete shell, no duplicates)."""
    for v in _all_points(n, h):
        if max(abs(c) for c in v) == h:
            yield v


def _euclid_reduce_rank_one(K: NumberField, pool: list[AlgebraicNumber]) -> AlgebraicNumber:
    """Exact gcd of the units' log lattice (rank 1) by Euclid on actual units."""

    def ln(u):
        return _log_vector(K, u)[0]

    g = None
    for v in pool:
        if K.element_order(v, cap=64) is not None:
            continue
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
    """Reduce a pool of units (log rank 2) to a short basis; exact unit arithmetic."""

    def lv(u):
        v = _log_vector(K, u)
        return (v[0], v[1])

    def det2(u1, u2):
        a, b = lv(u1), lv(u2)
        return a[0] * b[1] - a[1] * b[0]

    nontors = [v for v in pool if K.element_order(v, cap=64) is None]
    basis = None
    for i in range(len(nontors)):
        for j in range(i + 1, len(nontors)):
            if abs(det2(nontors[i], nontors[j])) > mpmath.mpf("1e-8"):
                basis = [nontors[i], nontors[j]]
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
    for v in nontors:
        for _ in range(64):
            v1, v2 = lv(basis[0]), lv(basis[1])
            d = v1[0] * v2[1] - v1[1] * v2[0]
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
                    dd = abs(det2(cands[i], cands[j]))
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

    def key(x):
        return tuple((abs(c), 0 if c >= 0 else 1) for c in reversed(x.int_coords()))

    return min((g * t for t in torsion), key=key)


def compute_unit_group(
    K: NumberField,
    ceilings: Ceilings | None = None,
    known_units: list[list[int]] | None = None,
) -> UnitGroup:
    """Torsion + fundamental units + regulator.  Cached on the field.

    ceilings default to Ceilings(), as in every other layer; only the CLI
    reads NFK_CEILING.  known_units is read only when the group is first
    computed; a cached group is returned as it is.
    """
    if K._unit_group is not None:
        return K._unit_group
    ceilings = ceilings or Ceilings()
    torsion = _torsion_units(K)
    w = len(torsion)
    if w % 2:
        raise ArithmeticError(f"odd torsion count {w}")
    zeta = max(
        torsion,
        key=lambda x: (K.element_order(x, cap=4 * K.degree * K.degree), x.int_coords()),
    )
    rank = K.r1 + K.r2 - 1
    if rank > 2:
        raise RankError(f"unit rank {rank} unsupported (max 2)")

    fundamental: list[AlgebraicNumber] = []
    if rank > 0 and known_units is not None:
        for coords in known_units:
            u = K.element(list(coords))
            if abs(u.norm()) != 1:
                raise ValueError(f"supplied unit {coords} has |norm| != 1")
            if K.element_order(u, cap=64) is not None:
                raise ValueError(f"supplied unit {coords} is a root of unity")
            fundamental.append(u)
        if len(fundamental) != rank:
            raise ValueError(f"need {rank} independent units, got {len(fundamental)}")
        if rank == 2:
            v1 = _log_vector(K, fundamental[0])
            v2 = _log_vector(K, fundamental[1])
            if abs(v1[0] * v2[1] - v1[1] * v2[0]) < mpmath.mpf("1e-8"):
                raise ValueError("supplied units are multiplicatively dependent")
    elif rank > 0:
        pool = _unit_search_pool(K, rank, ceilings)
        if rank == 1:
            fundamental = [_euclid_reduce_rank_one(K, pool)]
        else:
            fundamental = _gauss_reduce_rank_two(K, pool)
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
    """Height-increasing sweep collecting units directly and via equal-ideal ratios."""
    n = K.degree
    buckets: dict = {}
    pool: list[AlgebraicNumber] = []

    def log_rank(units) -> int:
        nontors = [u for u in units if K.element_order(u, cap=64) is None]
        if not nontors:
            return 0
        if rank == 1:
            return 1
        for i in range(len(nontors)):
            for j in range(i + 1, len(nontors)):
                v1 = _log_vector(K, nontors[i])
                v2 = _log_vector(K, nontors[j])
                if abs(v1[0] * v2[1] - v1[1] * v2[0]) > mpmath.mpf("1e-8"):
                    return 2
        return 1

    ratio_norm_bound = 4**n
    for h in range(1, ceilings.unit_height + 1):
        for coords in _shell_points(n, h):
            x = K.element(coords)
            nx = x.norm()
            anx = abs(nx)
            if anx == 1:
                pool.append(x)
            elif 1 < anx <= ratio_norm_bound:
                key = ideal_from_element(x).hnf
                prev = buckets.get(key)
                if prev is None:
                    buckets[key] = x
                else:
                    ratio = x / prev
                    if ratio.is_integral() and abs(ratio.norm()) == 1:
                        if K.element_order(ratio, cap=64) is None:
                            pool.append(ratio)
        if log_rank(pool) >= rank:
            return pool
    raise CeilingError(
        f"unit search exhausted height {ceilings.unit_height} at rank "
        f"{log_rank(pool)} < {rank}",
        ceilings.unit_height,
    )


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
    field: NumberField
    group: FiniteAbelianGroup  # over class indices 0..h-1
    reps: list[FactoredIdeal]  # reps[0] = unit ideal
    units: UnitGroup
    prime_class: dict = dc_field(default_factory=dict)
    _ell_free_reps: dict = dc_field(default_factory=dict)

    @property
    def h(self) -> int:
        return self.group.order

    def _is_principal(self, fa: FactoredIdeal, ceilings: Ceilings | None) -> bool:
        frac = fa.to_fractional()
        return principal_test_generator(frac, self.units.fundamental, ceilings) is not None

    def index_of(self, a, ceilings: Ceilings | None = None) -> int:
        """Class index of an Ideal / FractionalIdeal / FactoredIdeal."""
        fa = _as_factored(a)
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
        fa = FactoredIdeal(self.field, {q: 1})
        idx = None
        for i, rep in enumerate(self.reps):
            if self._is_principal(fa * rep.inverse(), ceilings):
                idx = i
                break
        if idx is None:
            raise ArithmeticError(f"prime {q!r} matches no class; census incomplete")
        self.prime_class[q] = idx
        return idx

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


def _as_factored(a) -> FactoredIdeal:
    if isinstance(a, FactoredIdeal):
        return a
    if isinstance(a, Ideal):
        return factor_ideal(a)
    if isinstance(a, FractionalIdeal):
        fa = factor_ideal(a.num)
        if a.den != 1:
            for p, e in factorint(a.den).items():
                for q in split_prime(a.num.field, p):
                    fa = fa * FactoredIdeal(a.num.field, {q: -e * q.e})
        return fa
    raise TypeError(f"cannot take the class of {a!r}")


def compute_class_group(
    K: NumberField,
    ceilings: Ceilings | None = None,
    known_h: int | None = None,
) -> ClassGroup:
    """Minkowski census class group.  Cached on the field.

    known_h, when given, is checked against the class number on every
    call, cached or not.
    """
    if K._class_group is None:
        K._class_group = _class_group_census(K, ceilings)
    h = K._class_group.h
    if known_h is not None and h != known_h:
        raise ArithmeticError(f"census found h = {h}, expected {known_h}")
    return K._class_group


def _class_group_census(K: NumberField, ceilings: Ceilings | None) -> ClassGroup:
    units = compute_unit_group(K, ceilings)
    bound = K.minkowski_bound()
    reps: list[FactoredIdeal] = [FactoredIdeal.unit(K)]

    def is_principal(fa: FactoredIdeal) -> bool:
        gen = principal_test_generator(fa.to_fractional(), units.fundamental, ceilings)
        return gen is not None

    def find_class(fa: FactoredIdeal) -> int | None:
        for i, rep in enumerate(reps):
            if is_principal(fa * rep.inverse()):
                return i
        return None

    prime_class: dict[PrimeIdeal, int] = {}
    for q in sorted(primes_of_norm_up_to(K, bound)):
        fa = FactoredIdeal(K, {q: 1})
        idx = find_class(fa)
        if idx is None:
            reps.append(fa)
            idx = len(reps) - 1
        prime_class[q] = idx

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
                if find_class(prod) is None:
                    reps.append(prod)
                    changed = True

    h = len(reps)
    table: dict[tuple[int, int], int] = {}
    for i in range(h):
        for j in range(i, h):
            prod = reps[i] * reps[j]
            k = find_class(prod)
            if k is None:
                raise ArithmeticError("class table not closed")
            table[(i, j)] = k
            table[(j, i)] = k

    group = FiniteAbelianGroup(list(range(h)), lambda a, b: table[(a, b)], 0)
    return ClassGroup(field=K, group=group, reps=reps, units=units, prime_class=prime_class)
