"""Finite abelian group engine.

Structure discovery is deliberately brute force: enumerate the elements,
compute orders, and extract generators greedily (always a maximal-order
element whose cyclic span meets the part already built trivially).  Each
extension multiplies the discrete-log table out in full and checks that
the sizes multiply, so the direct-sum decomposition is verified element
by element rather than trusted.  All moduli in scope have small residue
rings; auditability beats asymptotics here.

Provides (O_K/m)^* with a residue map, an uncached ell-th-power
membership check, and the exhaustive tuple tally g1^2 g2^3 ... gn^(n+1)
used to confirm that such products sweep the group uniformly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from sympy import factorint

from .config import Ceilings
from .errors import CeilingError
from .exact_math import hnf_reduce
from .ideals import Ideal, factor_ideal
from .number_field import AlgebraicNumber, NumberField

# A group element's discrete log: exponent vector over the generators,
# entry i reduced modulo the i-th generator's order.
GroupElement = tuple[int, ...]


class FiniteAbelianGroup:
    """Explicit finite abelian group over hashable element keys."""

    def __init__(self, elements: Sequence, op: Callable, identity):
        self.op = op
        self.identity = identity
        self.elements = sorted(elements)
        self.order = len(self.elements)
        if identity not in set(self.elements):
            raise ValueError("identity not among elements")
        self._order_cache: dict = {}
        self._order_primes = sorted(factorint(self.order)) if self.order > 1 else []
        self.generators: list = []
        self.gen_orders: list[int] = []  # invariant factors, descending
        self.dlog: dict = {identity: ()}
        self._extract_generators()

    # -- basic operations ----------------------------------------------------

    def power(self, x, k: int):
        out = self.identity
        base = x
        while k:
            if k & 1:
                out = self.op(out, base)
            base = self.op(base, base)
            k >>= 1
        return out

    def element_order(self, x) -> int:
        got = self._order_cache.get(x)
        if got is not None:
            return got
        o = self.order
        for p in self._order_primes:
            while o % p == 0 and self.power(x, o // p) == self.identity:
                o //= p
        self._order_cache[x] = o
        return o

    # -- structure discovery ---------------------------------------------------

    def _extract_generators(self) -> None:
        if self.order == 1:
            return
        ranked = sorted(self.elements, key=lambda x: (-self.element_order(x), x))
        while len(self.dlog) < self.order:
            found = False
            for x in ranked:
                if x in self.dlog:
                    continue
                o = self.element_order(x)
                # trivial intersection with the span built so far
                y = x
                clean = True
                for _ in range(o - 1):
                    if y in self.dlog:
                        clean = False
                        break
                    y = self.op(y, x)
                if not clean:
                    continue
                table = {}
                xk = self.identity
                for k in range(o):
                    for r, vec in self.dlog.items():
                        table[self.op(r, xk)] = vec + (k,)
                    xk = self.op(xk, x)
                if len(table) != len(self.dlog) * o:
                    raise ArithmeticError("direct-sum extension failed a size check")
                self.generators.append(x)
                self.gen_orders.append(o)
                self.dlog = table
                found = True
                break
            if not found:
                raise ArithmeticError("no direct-sum extension found; group not abelian?")
        for a, b in zip(self.gen_orders, self.gen_orders[1:]):
            if a % b:
                raise ArithmeticError(f"invariant factors not a divisor chain: {self.gen_orders}")

    def divisor_chain(self) -> list[int]:
        """Elementary divisors d1 | d2 | ... | dk (ascending, product = order)."""
        return list(reversed(self.gen_orders))

    @property
    def exponent(self) -> int:
        return self.gen_orders[0] if self.gen_orders else 1

    def log(self, x) -> GroupElement:
        return self.dlog[x]

    # -- subgroups -------------------------------------------------------------

    def power_subgroup(self, m: int) -> frozenset:
        return frozenset(self.power(x, m) for x in self.elements)


def abelian_group_from_divisors(divisors: Sequence[int]) -> FiniteAbelianGroup:
    """The abstract group Z/d1 x ... x Z/dk over exponent-vector keys."""
    divisors = [d for d in divisors if d > 1]
    elements = [()]
    for d in divisors:
        elements = [v + (a,) for v in elements for a in range(d)]

    def op(u, v):
        return tuple((a + b) % d for a, b, d in zip(u, v, divisors))

    return FiniteAbelianGroup(elements, op, tuple([0] * len(divisors)))


# ---------------------------------------------------------------------------
# residue-ring unit groups
# ---------------------------------------------------------------------------


@dataclass
class ResidueUnitGroup:
    """(O_K/m)^* together with the reduction map from integral elements."""

    field: NumberField
    modulus: Ideal
    group: FiniteAbelianGroup

    def image(self, x: AlgebraicNumber) -> tuple[int, ...]:
        key = self.modulus.reduce(x.int_coords())
        if key not in self.group.dlog:
            raise ValueError(f"{x!r} is not a unit modulo the modulus")
        return key

    @property
    def order(self) -> int:
        return self.group.order


def unit_group_mod_ideal(
    K: NumberField, m: Ideal, ceilings: Ceilings | None = None
) -> ResidueUnitGroup:
    """Multiplicative group of O_K/m by residue census, built on each call.

    A residue is a unit iff it avoids every prime dividing m; the order
    always comes out to N(m) prod_{p|m} (1 - 1/N(p)).
    """
    ceilings = ceilings or Ceilings()
    norm = m.norm()
    if norm > ceilings.residue_ring:
        raise CeilingError(f"residue ring of size {norm}", ceilings.residue_ring)
    primes = [q.ideal.hnf for q in factor_ideal(m).support()]
    units = []
    for r in m.residues():
        if all(any(hnf_reduce(ph, r)) for ph in primes):
            units.append(r)
    if norm == 1:
        units = [m.reduce([0] * K.degree)]

    def op(a, b):
        return m.reduce(K.mul_int_coords(a, b))

    group = FiniteAbelianGroup(units, op, m.reduce(K.one.int_coords()))
    expected = norm
    for q in factor_ideal(m).support():
        expected = expected * (q.norm - 1) // q.norm
    if norm > 1 and group.order != expected:
        raise ArithmeticError(f"unit census {group.order} != {expected}")
    return ResidueUnitGroup(K, m, group)


# ---------------------------------------------------------------------------
# ell-th power classes mod prime powers
# ---------------------------------------------------------------------------


def is_power_class(
    gamma: AlgebraicNumber, prime_power: Ideal, ell: int, ceilings: Ceilings | None = None
) -> bool:
    """True iff gamma (coprime to the modulus) is an ell-th power mod prime_power.

    Membership in the set {x^ell} of the residue unit group, both built on
    each call: a check and a test oracle, not a hot path (the Kummer layer
    reads congruence depths from kummer._depth_table).
    """
    rug = unit_group_mod_ideal(gamma.field, prime_power, ceilings)
    return rug.image(gamma) in rug.group.power_subgroup(ell)


# ---------------------------------------------------------------------------
# exhaustive product distribution tally
# ---------------------------------------------------------------------------


def product_distribution_check(
    g: FiniteAbelianGroup, n: int, ceilings: Ceilings | None = None
) -> dict:
    """Tally g1^2 g2^3 ... gn^(n+1) over all tuples in G^n.

    The products sweep G uniformly: every element is hit |G|^(n-1) times.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    ceilings = ceilings or Ceilings()
    total = g.order**n
    if total > ceilings.tuple_census:
        raise CeilingError(f"tuple census of {total} products", ceilings.tuple_census)
    pow_tables = []
    for i in range(n):
        e = i + 2
        pow_tables.append({x: g.power(x, e) for x in g.elements})
    counts = {x: 0 for x in g.elements}
    for xs in itertools.product(g.elements, repeat=n):
        prod = pow_tables[0][xs[0]]
        for table, x in zip(pow_tables[1:], xs[1:]):
            prod = g.op(prod, table[x])
        counts[prod] += 1
    return counts
