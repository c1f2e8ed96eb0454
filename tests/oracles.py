"""Slow exact paths kept as test oracles for the fast paths in src/nfk.

- _box_norm_matches is the coordinate-box generator search that
  ideals._lattice_norm_matches replaced; tests compare the two and can
  monkeypatch it in for the lattice search.
- imag_quadratic_norm_matches_unreduced is the t-scan on the raw HNF
  basis, a solve of the norm form in the imaginary quadratic fields; it
  checks the lattice search that norm_matches runs there.
- class_census_by_search is the Minkowski census with a principal test per
  lookup (class_unit._find_class), which the imaginary quadratic fields
  replaced by a table of the classes' reduced forms (class_unit._form_class).
- discriminant_split_from_ideal and steinitz_class_from_parts are the
  per-candidate relative discriminant and Steinitz class, rebuilt from the
  whole ideal gamma O_K, that the Kummer layer replaced by work shared
  per cell (kummer._Cell: the tame part and the Steinitz offset off).
- euler_products_mpf is the Euler product of zeta_constants on mpmath's
  mpf operators, which density._euler_products runs on raw mpmath.libmp.
- squarefree_census and generator_equidistribution are the empirical
  stand-ins for the lattice-counting lemmas behind rho: the ell-power-free
  ideals of norm <= X by class against the analytic leading term, and the
  canonical generators of the principal ones by class in
  (O_K/m)^x mod ell-th powers.  Both walk ClassGroup.ell_free_ideals
  (ell_free_ideals_of_norm_up_to filters it by the ideal norm).
- inverse_by_fraction_solve is the Fraction Gauss-Jordan inverse that
  AlgebraicNumber.inverse replaced by fraction-free elimination.
- det_fraction of multiplication_matrix is the Fraction determinant that
  NumberField.norm_int and AlgebraicNumber.norm replaced by the norm form
  (a closed form in degree <= 3).  The matrix is built by shift-and-fold
  from theta_power, not through NumberField.mul_int_coords.
- composed_generator is ClassGroup.generator_coords as an element, the
  canonical generator of a fractional ideal; the cell loop
  (kummer._cell_generator) composes it from generators carried by
  ClassGroup.ell_free_ideals instead.
- normalize_gamma_by_elements and unit_dlog_by_elements are the Kummer
  normalization and the unit discrete log on AlgebraicNumber arithmetic
  (Fraction coordinates, with _as_unit checking the quotient), which
  kummer.normalize_gamma and class_unit.unit_dlog replaced by int
  coordinate tuples and exact quotients (NumberField.div_int_coords).
- is_isomorphic decides whether two Kummer data cut out the same extension;
  assert_pairwise_non_isomorphic runs it on every pair of enumerated
  records, the check of the orbit dedup in kummer.iter_extensions.
- ell_power_residues is the table of ell-th powers in (O_K/q^m)^x by brute
  force over the residues, with none of the unit-group code; the tests
  read the congruence depth kummer._congruence_depth off it.
- congruence_depth_walk is the congruence depth as a walk m = B, ..., 1
  through the ell-th power subgroups of the residue unit groups
  (abelian_groups.is_power_class), which kummer._depth_table replaced by
  one table per prime.
- rho_by_norm totals a DensityReport's rho over the rows of each norm
  N(Q), the per-norm view that the row-count tests compare against; no
  report serializer needs it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import mpmath
import sympy

from nfk.abelian_groups import unit_group_mod_ideal
from nfk.class_unit import (
    UnitGroup,
    _find_class,
    compute_class_group,
    compute_unit_group,
    unit_coset_coords,
)
from nfk.config import Ceilings
from nfk.density import DensityReport, zeta_constants
from nfk.errors import CeilingError, DegenerateExtensionError, RankError
from nfk.ideals import (
    FactoredIdeal,
    Ideal,
    PrimeIdeal,
    as_factored,
    decompose_parts,
    factor_ideal,
    ideal_from_element,
    primes_of_norm_up_to,
    residue_degrees,
    split_prime,
)
from nfk.kummer import (
    ExtensionRecord,
    KummerDatum,
    _congruence_depth,
    _power_root,
    wild_saturation_depth,
)
from nfk.number_field import AlgebraicNumber, NumberField


def discriminant_split_from_ideal(
    d: KummerDatum, ceilings: Ceilings | None = None
) -> tuple[FactoredIdeal, FactoredIdeal, FactoredIdeal]:
    """(Delta, ell-part, ell-free part) of the relative discriminant, from
    the factorization of gamma O_K prime by prime."""
    K, ell = d.field, d.ell
    fa = d.parts.reconstruct()
    exps: dict[PrimeIdeal, int] = {}
    for q, e in fa.exps.items():
        if q.p != ell and e % ell:
            exps[q] = ell - 1
    for q in split_prime(K, ell):
        nu = fa.exps.get(q, 0)
        if nu % ell:
            exps[q] = (ell - 1) + ell * q.e
            continue
        if nu:
            raise ArithmeticError(f"datum not normalized at {q!r}")
        bound = wild_saturation_depth(q, ell)
        s = _congruence_depth(d.gamma, q, ell, ceilings)
        if s < bound:
            exps[q] = (ell - 1) * (bound - s + 1)
    delta = FactoredIdeal(K, exps)
    lpart = FactoredIdeal(K, {q: e for q, e in exps.items() if q.p == ell})
    fpart = FactoredIdeal(K, {q: e for q, e in exps.items() if q.p != ell})
    return delta, lpart, fpart


def steinitz_denominator(d: KummerDatum) -> FactoredIdeal:
    """(Q N^ell prod I_i^(i-1))^(ell-1), assembled from the datum's parts."""
    den = d.parts.ell_part * d.parts.root**d.ell
    for i in range(2, d.ell):
        den = den * d.parts.power_parts[i] ** (i - 1)
    return den ** (d.ell - 1)


def steinitz_class_from_parts(d: KummerDatum, cg, ceilings: Ceilings | None = None) -> int:
    """Class of St with St^2 = L-part / steinitz_denominator(d)."""
    ell_part = discriminant_split_from_ideal(d, ceilings)[1]
    den_pow = steinitz_denominator(d)
    st = (ell_part * den_pow.inverse()).sqrt()
    if st * st * den_pow != ell_part:
        raise ArithmeticError("Steinitz square does not reassemble the ell-part")
    return cg.index_of(st, ceilings)


def _as_unit(K: NumberField, x: AlgebraicNumber) -> AlgebraicNumber:
    if not x.is_integral():
        raise ArithmeticError(f"{x!r} should be a unit but is not integral")
    u = K.element(x.int_coords())
    if abs(u.norm()) != 1:
        raise ArithmeticError(f"{u!r} should be a unit but has norm {u.norm()}")
    return u


def unit_dlog_by_elements(ug: UnitGroup, u: AlgebraicNumber) -> tuple[int, tuple[int, ...]]:
    """(a, b) with u = zeta^a prod fundamental_i^b_i: the float log solve,
    then element powers and quotients, the torsion matched by element
    equality and the factorization re-verified on elements."""
    K = ug.field
    if not (u.is_integral() and abs(u.norm()) == 1):
        raise ValueError(f"{u!r} is not a unit")
    r = ug.rank
    b: list[int] = []
    if r:
        logs = K.log_abs_embeddings(u.int_coords())[:r]
        for row in ug.vertex_inverses[r]:
            x = sum(c * v for c, v in zip(row, logs))
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


def composed_generator(cg, fa: FactoredIdeal, ceilings: Ceilings | None = None) -> AlgebraicNumber:
    """The canonical generator of fa, as canonical_generator chooses it,
    composed from stored generators with no lattice search: the element of
    ClassGroup.generator_coords."""
    coords, den = cg.generator_coords(fa, ceilings)
    if den == 1:
        return AlgebraicNumber._of(cg.field, coords)
    return cg.field.element([Fraction(c, den) for c in coords])


def normalize_gamma_by_elements(
    gamma: AlgebraicNumber, ell: int, fa: FactoredIdeal | None = None
) -> KummerDatum:
    """kummer.normalize_gamma on elements: k^ell alpha from composed_generator,
    u = gamma / (k^ell alpha) checked by _as_unit, and its coset from
    unit_dlog_by_elements."""
    K = gamma.field
    cg = compute_class_group(K)
    if fa is None:
        fa = factor_ideal(ideal_from_element(gamma))
    root = _power_root(fa, ell)
    cls = cg.index_of(root)
    rep = cg.ell_free_representative(cls, ell)
    quo = root * rep.inverse()
    fa2 = fa * quo.inverse() ** ell
    parts = decompose_parts(fa2, ell)
    if parts.root != rep or parts.reconstruct() != fa2:
        raise ArithmeticError("parts decomposition does not reconstruct gamma")
    alpha = K.one if fa2.is_unit_ideal() else composed_generator(cg, fa2)
    if quo.is_unit_ideal():
        u = _as_unit(K, gamma / alpha)
    else:
        u = _as_unit(K, gamma / (composed_generator(cg, quo) ** ell * alpha))
    a, b = unit_dlog_by_elements(cg.units, u)
    coset = (a % math.gcd(cg.units.w, ell),) + tuple(x % ell for x in b)
    if fa2.is_unit_ideal() and not any(coset):
        raise DegenerateExtensionError(f"{gamma!r} is an {ell}-th power")
    return KummerDatum(K, ell, alpha * u, parts, u, cls, coset)


def _lf(fa: FactoredIdeal, ell: int) -> FactoredIdeal:
    """The ell-power-free part: every exponent reduced mod ell."""
    return FactoredIdeal(fa.field, {q: e % ell for q, e in fa.exps.items()})


def is_isomorphic(
    d1: KummerDatum, d2: KummerDatum, ceilings: Ceilings | None = None
) -> bool:
    """True iff the data cut out the same extension: gamma2 lies in
    gamma1^m (K*)^ell for some 1 <= m <= ell-1."""
    if d1.field is not d2.field or d1.ell != d2.ell:
        raise ValueError("data must share a field and a degree")
    K, ell = d1.field, d1.ell
    cg = compute_class_group(K, ceilings)
    fa2 = d2.parts.reconstruct()
    lf2 = _lf(fa2, ell)
    root2 = _power_root(fa2, ell)
    cls2 = cg.index_of(root2, ceilings)
    fa1 = d1.parts.reconstruct()
    for m in range(1, ell):
        fam = fa1**m
        if _lf(fam, ell) != lf2:
            continue
        rootm = _power_root(fam, ell)
        if cg.index_of(rootm, ceilings) != cls2:
            continue
        quo = root2 * rootm.inverse()
        c0 = K.one if quo.is_unit_ideal() else composed_generator(cg, quo, ceilings)
        v = _as_unit(K, d2.gamma / (d1.gamma**m * c0**ell))
        if all(c == 0 for c in unit_coset_coords(cg.units, v, ell)):
            return True
    return False


def assert_pairwise_non_isomorphic(
    records: Sequence[ExtensionRecord], ceilings: Ceilings | None = None
) -> None:
    """Raise AssertionError on the first isomorphic pair of records (quadratic
    cost, for modest bounds only)."""
    for i, r in enumerate(records):
        for s in records[i + 1 :]:
            if is_isomorphic(r.datum, s.datum, ceilings):
                raise AssertionError(
                    f"orbit dedup missed an isomorphic pair: {r.datum.gamma!r} vs {s.datum.gamma!r}"
                )


def ell_power_residues(q: PrimeIdeal, m: int, ell: int) -> frozenset[tuple[int, ...]]:
    """The ell-th powers in (O_K/q^m)^x as canonical residues mod q^m: x^ell
    for every residue x outside q, by repeated multiplication."""
    K = q.field
    mod = q.power(m)
    out = set()
    for x in mod.residues():
        if not any(q.ideal.reduce(x)):
            continue  # x lies in q, so it is no unit mod q^m
        y = x
        for _ in range(ell - 1):
            y = mod.reduce(K.mul_int_coords(y, x))
        out.add(y)
    return frozenset(out)


def congruence_depth_walk(
    q: PrimeIdeal, ell: int, ceilings: Ceilings | None = None
) -> Callable[[AlgebraicNumber], int]:
    """gamma -> the largest m <= B = wild_saturation_depth with gamma an
    ell-th power mod q^m, walking m = B, ..., 1 as is_power_class decides
    membership: the residue unit group mod q^m and its ell-th powers, here
    built once per (q, m)."""
    levels = []
    for m in range(wild_saturation_depth(q, ell), 0, -1):
        rug = unit_group_mod_ideal(q.field, q.power(m), ceilings)
        levels.append((m, rug, rug.group.power_subgroup(ell)))

    def depth(gamma: AlgebraicNumber) -> int:
        for m, rug, powers in levels:
            if rug.image(gamma) in powers:
                return m
        raise ArithmeticError(f"no congruence depth at {q!r}")

    return depth


def euler_products_mpf(K: NumberField, ell: int, prime_bound: int) -> tuple[tuple, tuple]:
    """The Euler products of zeta_K(2) and zeta_K(ell) on mpf operators at
    80 bits, as raw mpmath.libmp values."""
    with mpmath.workprec(80):
        z2 = mpmath.mpf(1)
        zl = mpmath.mpf(1)
        for p in sympy.sieve.primerange(2, prime_bound + 1):
            for f in residue_degrees(K, p):
                z2 /= 1 - mpmath.mpf(p**f) ** -2
                if ell != 2:
                    zl /= 1 - mpmath.mpf(p**f) ** -ell
        if ell == 2:
            zl = z2
        return z2._mpf_, zl._mpf_


def ell_free_ideals_of_norm_up_to(
    cg, X: int, ell: int, exclude=frozenset(), ceilings: Ceilings | None = None
) -> Iterator[tuple[tuple[tuple[PrimeIdeal, int], ...], int]]:
    """(support, class) of every ell-power-free ideal of norm <= X over the
    primes outside exclude: ClassGroup.ell_free_ideals walks to X by the
    norm of the radical, a superset as N(I) <= X implies N(rad I) <= X, and
    the ideal norm filters it.  X past ceilings.search_points raises."""
    ceilings = ceilings or Ceilings()
    if X > ceilings.search_points:
        raise CeilingError(f"ideal census to norm {X}", ceilings.search_points)
    pool = [q for q in primes_of_norm_up_to(cg.field, X) if q not in exclude]
    for support, cls, _coords, _scale in cg.ell_free_ideals(pool, X, ell, ceilings):
        if math.prod(q.norm**a for q, a in support) <= X:
            yield support, cls


def squarefree_census(
    K: NumberField,
    coprime_to,
    X: int,
    ell: int = 2,
    prime_bound: int = 10**5,
    ceilings: Ceilings | None = None,
) -> tuple[Counter, float]:
    """The ell-power-free ideals of norm <= X coprime to coprime_to (an
    ideal, or None), counted by class index, and the predicted count per
    class Res/(zeta_K(ell) h) prod_q (1 - (N^(ell-1)-1)/(N^ell-1)) X over
    the primes q dividing coprime_to."""
    ceilings = ceilings or Ceilings()
    cg = compute_class_group(K, ceilings)
    support = as_factored(coprime_to).support() if coprime_to is not None else []
    counts = Counter(c for _, c in ell_free_ideals_of_norm_up_to(cg, X, ell, set(support), ceilings))
    z = zeta_constants(K, ell=ell, prime_bound=prime_bound, ceilings=ceilings)
    pred = z.residue / z.zeta_at_ell / cg.h
    for q in support:
        n = q.norm
        pred *= float(1 - Fraction(n ** (ell - 1) - 1, n**ell - 1))
    return counts, pred * X


def mod_powers_projection(g, ell: int) -> Callable[[object], tuple[int, ...]]:
    """x -> its image in G/G^ell, for G = g a FiniteAbelianGroup: the
    discrete log of x mod ell at each generator whose order ell divides."""
    coords = [i for i, o in enumerate(g.gen_orders) if o % ell == 0]
    return lambda x: tuple(g.log(x)[i] % ell for i in coords)


def generator_equidistribution(
    K: NumberField,
    modulus: Ideal,
    ideal_factor,
    X: int,
    ell: int = 2,
    ceilings: Ceilings | None = None,
) -> Counter:
    """Canonical generators tallied by their class in H = (O_K/modulus)^x
    mod ell-th powers.

    Runs over the principal A = ideal_factor * I with I ell-power-free,
    coprime to the modulus and to ideal_factor, and N(A) <= X;
    composed_generator gives A's canonical generator.  A uniform spread
    over H is what makes the rho model's congruence factors independent
    of the divisibility data.
    """
    ceilings = ceilings or Ceilings()
    cg = compute_class_group(K, ceilings)
    factor = as_factored(ideal_factor)
    exclude = set(factor_ideal(modulus).support())
    if exclude & set(factor.support()):
        raise ValueError("ideal_factor must be coprime to the modulus")
    rug = unit_group_mod_ideal(K, modulus, ceilings)
    project = mod_powers_projection(rug.group, ell)
    group = cg.group
    # I must land in the inverse class of ideal_factor for A to be principal
    need = group.power(cg.index_of(factor, ceilings), group.exponent - 1)
    budget = X // int(factor.norm())
    tally = Counter()
    for support, c in ell_free_ideals_of_norm_up_to(
        cg, budget, ell, exclude | set(factor.support()), ceilings
    ):
        if c == need:
            gamma = composed_generator(cg, factor * FactoredIdeal(K, dict(support)), ceilings)
            tally[project(rug.image(gamma))] += 1
    return tally


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


def imag_quadratic_norm_matches_unreduced(a: Ideal, target: int) -> list[list[int]]:
    """All x in the ideal with N(x) = target (imaginary quadratic K), one
    quadratic in s for each |t| <= sqrt(4 A target/|D|) of the form
    A s^2 + B s t + C t^2 on the HNF basis, with no ceiling."""
    v1, v2 = (a.field.element(col) for col in a.hnf.columns())
    A = int(v1.norm())
    C = int(v2.norm())
    B = int((v1 + v2).norm()) - A - C
    D = B * B - 4 * A * C
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
            if num % (2 * A) == 0:
                s = num // (2 * A)
                out.append([s * c1 + t * c2 for c1, c2 in zip(a.hnf.column(0), a.hnf.column(1))])
    return out


def class_census_by_search(K: NumberField) -> tuple[list, dict, dict, dict]:
    """(reps, prime_class, prime_gen, products) of the Minkowski census, as
    ClassGroup holds them, with every lookup a principal test: the first
    representative r with fa r^-1 principal, else fa is the next one.  Each
    census prime is looked up, then each product reps[i] reps[j], i <= j,
    new since the last round, until the class list closes."""
    units = compute_unit_group(K)
    one = (K.one.coords, 1)
    reps = [FactoredIdeal.unit(K)]

    def find(fa: FactoredIdeal) -> tuple:
        found = _find_class(fa, reps, units, None)
        if found is None:
            reps.append(fa)
            found = len(reps) - 1, one
        return found

    prime_class, prime_gen = {}, {}
    for q in sorted(primes_of_norm_up_to(K, K.minkowski_bound())):
        prime_class[q], prime_gen[q] = find(FactoredIdeal(K, {q: 1}))
    products = {}
    done = 1
    while done < len(reps):
        h = len(reps)
        for i in range(1, h):
            for j in range(max(i, done), h):
                products[i, j] = products[j, i] = find(reps[i] * reps[j])
        done = h
    for j in range(len(reps)):
        products[0, j] = products[j, 0] = j, one
    return reps, prime_class, prime_gen, products


def _solve_fraction(m: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(m)
    a = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise ZeroDivisionError("singular system")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / Fraction(a[k][k])
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] for i in range(n)]


def inverse_by_fraction_solve(x: AlgebraicNumber) -> AlgebraicNumber:
    """1/x by Fraction Gauss-Jordan on the multiplication matrix of x."""
    one = [Fraction(int(i == 0)) for i in range(x.field.degree)]
    return x.field.element(_solve_fraction(multiplication_matrix(x), one))


def multiplication_matrix(x: AlgebraicNumber) -> list[list[Fraction]]:
    """Matrix of y -> x*y over the power basis (columns are x*theta^j).

    Each column is theta times the last, by shift-and-fold on Fractions:
    theta (b_0, ..., b_{n-1}) = (0, b_0, ..., b_{n-2}) + b_{n-1} theta^n,
    with theta^n from theta_power, so no product kernel of the field runs.
    """
    K = x.field
    n = K.degree
    top = K.theta_power(n)
    col = [Fraction(c) for c in x.coords]
    cols = []
    for _ in range(n):
        cols.append(col)
        col = [(col[i - 1] if i else 0) + col[-1] * top[i] for i in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def det_fraction(m: list[list[Fraction]]) -> Fraction:
    """Determinant of a Fraction matrix by Gaussian elimination."""
    n = len(m)
    a = [row[:] for row in m]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / Fraction(a[k][k])
        for i in range(k + 1, n):
            if a[i][k] != 0:
                factor = a[i][k] * inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def rho_by_norm(report: DensityReport) -> dict[int, Fraction]:
    """Total rho over the rows of each norm N(Q)."""
    out: dict[int, Fraction] = {}
    for _, n, r in report.rows:
        out[n] = out.get(n, 0) + r
    return out
