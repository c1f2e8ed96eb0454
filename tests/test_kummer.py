"""Kummer extension invariants: normalization, discriminants, Steinitz classes,
isomorphism testing, and the parameter-cell enumeration with its census oracles."""

import hashlib
import json
import random

import pytest

from nfk import ideals, kummer, number_field
from nfk.abelian_groups import is_power_class
from nfk.class_unit import (
    ClassGroup,
    compute_class_group,
    compute_unit_group,
    unit_coset_coords,
    unit_coset_reps,
)
from nfk.config import Ceilings
from nfk.errors import (
    CeilingError,
    DegenerateExtensionError,
    MissingRootOfUnityError,
    NotPrincipalError,
)
from nfk.ideals import (
    FactoredIdeal,
    decompose_parts,
    factor_ideal,
    ideal_from_element,
    primes_of_norm_up_to,
    split_prime,
)
from nfk.kummer import (
    ExtensionRecord,
    KummerDatum,
    enumerate_extensions,
    iter_extensions,
    normalize_gamma,
    realizable_class_subgroup,
    record_json_dict,
    relative_discriminant,
    steinitz_class,
    trace_form_discriminant,
    verify_trace_determinant,
)
from nfk.number_field import AlgebraicNumber, build_field
from oracles import (
    assert_pairwise_non_isomorphic,
    composed_generator,
    discriminant_split_from_ideal,
    congruence_depth_walk,
    ell_power_residues,
    is_isomorphic,
    normalize_gamma_by_elements,
    steinitz_class_from_parts,
    steinitz_denominator,
)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_moves_square_part(field_q):
    # 24 = 4 * 6 and Q(sqrt 24) = Q(sqrt 6): the square root (2) is principal
    # and gets divided out
    d = normalize_gamma(field_q.from_int(24), 2)
    assert d.gamma.int_coords() == [6]
    assert d.parts.root.is_unit_ideal()
    assert d.unit_coset == (0,)


def test_normalize_rejects_powers(field_q):
    with pytest.raises(DegenerateExtensionError):
        normalize_gamma(field_q.from_int(9), 2)
    with pytest.raises(DegenerateExtensionError):
        normalize_gamma(field_q.from_int(1), 2)
    # -1 is not a square: valid, carried entirely by the unit coset
    d = normalize_gamma(field_q.from_int(-1), 2)
    assert d.gamma.int_coords() == [-1]
    assert d.unit_coset == (1,)
    assert d.parts.reconstruct().is_unit_ideal()


def test_normalize_input_validation(field_q, field_cubic9):
    with pytest.raises(ValueError):
        normalize_gamma(field_q.zero, 2)
    with pytest.raises(ValueError):
        normalize_gamma(field_q.element(["1/2"]), 2)
    # cubic-9 has a real embedding, so no cube roots of unity
    with pytest.raises(MissingRootOfUnityError):
        normalize_gamma(field_cubic9.from_int(2), 3)


def test_normalize_squarefree_untouched(field_q):
    d = normalize_gamma(field_q.from_int(5), 2)
    assert d.gamma.int_coords() == [5]
    assert d.parts.ell_part.is_unit_ideal()
    assert d.parts.root.is_unit_ideal()
    assert int(d.parts.power_parts[1].norm()) == 5


def test_normalize_nonprincipal_root(field_qm5):
    # gamma = 2 sqrt(-5): its square root q2 lies in the nontrivial class, so
    # normalization trades it for the fixed norm-3 representative
    g = field_qm5.from_int(2) * field_qm5.theta
    d = normalize_gamma(g, 2)
    assert d.power_root_class == 1
    assert int(d.parts.root.norm()) == 3
    fa = d.parts.reconstruct()
    assert int(fa.norm()) == 45  # p3^2 * p5
    assert factor_ideal(ideal_from_element(d.gamma)) == fa


# ---------------------------------------------------------------------------
# relative discriminants: rational base, classical agreement
# ---------------------------------------------------------------------------


def test_discriminants_over_q(field_q):
    # disc(Q(sqrt d)) = d if d = 1 mod 4 else 4d, squarefree d
    for g, want in [(3, 12), (5, 5), (6, 24), (-1, 4), (2, 8), (-2, 8), (7, 28), (-7, 7)]:
        d = normalize_gamma(field_q.from_int(g), 2)
        delta, lpart, fpart = relative_discriminant(d)
        assert int(delta.norm()) == want, g


def test_classical_sweep_over_q(field_q):
    # every squarefree gamma with |disc| <= 300, against the classical formula
    def squarefree(n):
        n = abs(n)
        k = 2
        while k * k <= n:
            if n % (k * k) == 0:
                return False
            k += 1
        return True

    for g in range(-300, 301):
        if g in (0, 1) or not squarefree(g):
            continue
        want = g if g % 4 == 1 else 4 * g
        if abs(want) > 300:
            continue
        d = normalize_gamma(field_q.from_int(g), 2)
        delta, _, _ = relative_discriminant(d)
        assert int(delta.norm()) == abs(want), g


def test_discriminants_over_qi(field_qi):
    i = field_qi.theta
    # K(sqrt(i)) = Q(zeta_16 deg-4 subfield): wild exponent 4 at (1+i)
    cases = [
        (i, 16),  # Q(zeta8): 256 = 16 * N
        (field_qi.from_int(3), 9),  # Q(zeta12): 144 = 16 * 9
        (field_qi.from_int(5), 25),  # Q(i, sqrt5): 400 = 16 * 25
        (field_qi.one + i, 32),  # x^4 - 2x^2 + 2: 512 = 16 * 32
        (field_qi.from_int(2), 16),  # same field as sqrt(i): 2 = -i (1+i)^2
    ]
    for g, want in cases:
        d = normalize_gamma(g, 2)
        delta, lpart, fpart = relative_discriminant(d)
        assert int(delta.norm()) == want
    # 2 normalizes to a unit: the (1+i)^2 part is principal
    d = normalize_gamma(field_qi.from_int(2), 2)
    assert d.parts.reconstruct().is_unit_ideal()


def test_discriminants_over_zeta3(field_zeta3):
    K = field_zeta3
    q3 = split_prime(K, 3)[0]
    # K(zeta9)/K ramifies only at the prime over 3 with exponent 6:
    # |disc Q(zeta9)| = 3^9 = |disc K|^3 * 3^6
    d = normalize_gamma(K.theta, 3)
    delta, lpart, fpart = relative_discriminant(d)
    assert delta == FactoredIdeal(K, {q3: 6})
    # closure of x^3 - 2: |disc| = 3 * 108^2 -> N(Delta) = 2^4 * 3^4
    d = normalize_gamma(K.from_int(2), 3)
    delta, lpart, fpart = relative_discriminant(d)
    assert int(delta.norm()) == 1296
    assert int(lpart.norm()) == 81
    # sqrt(-3) = 1 + 2 zeta3 has odd valuation at q3: the wild-branch maximum
    pi = K.one + K.from_int(2) * K.theta
    assert (pi * pi).int_coords() == [-3, 0]
    d = normalize_gamma(pi, 3)
    delta, _, _ = relative_discriminant(d)
    assert delta == FactoredIdeal(K, {q3: 8})
    # 10 = 1 + 9: an ell-th power at depth ell*nu(1-zeta), so unramified at 3
    d = normalize_gamma(K.from_int(10), 3)
    delta, lpart, fpart = relative_discriminant(d)
    assert int(lpart.norm()) == 1
    assert int(delta.norm()) == 10000  # ((2)(5))^2, norms 4^2 * 25^2


_DEPTH_FIELDS = [
    pytest.param([0, 1], 2, id="q"),
    pytest.param([1, 0, 1], 2, id="qi"),
    pytest.param([5, 0, 1], 2, id="qm5"),
    pytest.param([-9, -1, 0, 1], 2, id="cubic9"),
    pytest.param([1, 1, 1], 3, id="zeta3"),
    pytest.param([13, 0, 7, 0, 1], 3, id="x4_7x2_13"),
]


@pytest.mark.parametrize("coeffs, ell", _DEPTH_FIELDS)
def test_congruence_depth_matches_power_table(coeffs, ell):
    # on every unit residue r mod q^B, B = ell*nu_q(1-zeta), the depth is the
    # largest m <= B with r an ell-th power mod q^m, read off the brute-force
    # tables; a lift r + p^k v, with p^k in q^B, has the same depth
    K = build_field(coeffs, ell=ell)
    rng = random.Random(ell * 1000 + len(coeffs))
    for q in split_prime(K, ell):
        bound = kummer.wild_saturation_depth(q, ell)
        powers = {m: (q.power(m), ell_power_residues(q, m, ell)) for m in range(1, bound + 1)}
        top = q.power(bound)
        assert 4 <= top.norm() <= 64
        mod = q.p ** -(-bound // q.e)
        units = [r for r in top.residues() if any(q.ideal.reduce(r))]
        for r in units:
            want = max(m for m, (qm, table) in powers.items() if qm.reduce(r) in table)
            gamma = K.element(list(r))
            lift = K.element([c + mod * rng.randint(-3, 3) for c in r])
            assert kummer._congruence_depth(gamma, q, ell, None) == want, (q, r)
            assert kummer._congruence_depth(lift, q, ell, None) == want, (q, r)


def test_congruence_depth_raises_at_residue_ring_ceiling():
    K = build_field([1, 0, 1], ell=2)
    (q,) = split_prime(K, 2)
    with pytest.raises(CeilingError):
        kummer._congruence_depth(K.one, q, 2, Ceilings(residue_ring=1))
    assert kummer._congruence_depth(K.one, q, 2, None) == kummer.wild_saturation_depth(q, 2)


@pytest.mark.parametrize(
    "coeffs, ell", _DEPTH_FIELDS + [pytest.param([703, 0, 53, 0, 1], 3, id="x4_53x2_703")]
)
def test_congruence_depth_matches_power_walk(coeffs, ell):
    # the depth table against the walk m = B, ..., 1 through the ell-th
    # powers of the residue unit groups, on every unit residue mod q^B; on
    # x^4+53x^2+703 the prime over 3 has f = 2 and N(q^B) = 729.  On a few
    # residues the walk's answers are is_power_class's, m by m
    K = build_field(coeffs, ell=ell)
    for q in split_prime(K, ell):
        bound = kummer.wild_saturation_depth(q, ell)
        walk = congruence_depth_walk(q, ell)
        top = q.power(bound)
        units = [K.element(list(r)) for r in top.residues() if any(q.ideal.reduce(r))]
        assert len(units) == len(kummer._depth_table(q, None))
        for gamma in units:
            assert kummer._congruence_depth(gamma, q, ell, None) == walk(gamma), (q, gamma)
        for gamma in units[:: max(1, len(units) // 5)]:
            depth = walk(gamma)
            for m in range(1, bound + 1):
                assert is_power_class(gamma, q.power(m), ell) == (m <= depth), (q, gamma, m)


def test_congruence_depth_rejects_gamma_in_q():
    # 1 + i and 2 lie in the prime over 2 of Q(i): ValueError, as the walk
    # through the residue unit group raises, never a KeyError
    K = build_field([1, 0, 1], ell=2)
    (q,) = split_prime(K, 2)
    walk = congruence_depth_walk(q, 2)
    for gamma in (K.one + K.theta, K.from_int(2)):
        with pytest.raises(ValueError):
            kummer._congruence_depth(gamma, q, 2, None)
        with pytest.raises(ValueError):
            walk(gamma)
    assert kummer._congruence_depth(K.theta, q, 2, None) == walk(K.theta)


# ---------------------------------------------------------------------------
# trace form
# ---------------------------------------------------------------------------


def test_trace_form_closed_form(field_q, field_zeta3):
    d = normalize_gamma(field_q.from_int(3), 2)
    assert trace_form_discriminant(d).int_coords() == [12]  # +4 gamma
    d = normalize_gamma(field_zeta3.from_int(2), 3)
    assert trace_form_discriminant(d).int_coords() == [-108, 0]  # -27 gamma^2


def test_trace_determinant_random(field_qi, field_zeta3):
    rng = random.Random(7)
    for K, ell in ((field_qi, 2), (field_zeta3, 3)):
        for _ in range(25):
            g = K.element([rng.randint(-9, 9) for _ in range(K.degree)])
            if g.is_zero():
                continue
            assert verify_trace_determinant(K, g, ell)


# ---------------------------------------------------------------------------
# Steinitz classes
# ---------------------------------------------------------------------------


def test_steinitz_identity_qm5(field_qm5):
    cg = compute_class_group(field_qm5)
    g = field_qm5.from_int(2) * field_qm5.theta
    d = normalize_gamma(g, 2)
    delta, lpart, fpart = relative_discriminant(d)
    st = steinitz_class(d, cg)
    # St^2 (gamma O_K)^(ell-1) = Delta, exactly as fractional ideals
    st2 = delta * d.parts.reconstruct().inverse()
    root = st2.sqrt()
    assert root * root * d.parts.reconstruct() == delta
    assert cg.index_of(root) == st
    assert st in realizable_class_subgroup(cg, 2)


def test_realizable_subgroups(field_qm5, field_zeta3, field_cubic9):
    cg = compute_class_group(field_qm5)
    assert realizable_class_subgroup(cg, 2) == [0, 1]  # ell = 2: all classes
    cg = compute_class_group(field_zeta3)
    assert realizable_class_subgroup(cg, 3) == [0]
    cg = compute_class_group(field_cubic9)
    assert realizable_class_subgroup(cg, 2) == [0, 1]


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------


def test_isomorphic_power_orbit(field_zeta3):
    K = field_zeta3
    d2 = normalize_gamma(K.from_int(2), 3)
    d4 = normalize_gamma(K.from_int(4), 3)
    d5 = normalize_gamma(K.from_int(5), 3)
    assert is_isomorphic(d2, d4)  # 4 = 2^2
    assert is_isomorphic(d4, d2)
    assert not is_isomorphic(d2, d5)
    assert is_isomorphic(d2, d2)


def test_isomorphic_unit_twist(field_cubic9):
    K = field_cubic9
    ug = compute_unit_group(K)
    eps = ug.fundamental[0]
    d2 = normalize_gamma(K.from_int(2), 2)
    d2e = normalize_gamma(K.from_int(2) * eps, 2)
    d2e2 = normalize_gamma(K.from_int(2) * eps * eps, 2)
    assert not is_isomorphic(d2, d2e)  # eps not a square
    assert is_isomorphic(d2, d2e2)  # eps^2 is
    assert not is_isomorphic(d2, normalize_gamma(-K.from_int(2), 2))


def test_isomorphic_requires_same_field(field_q, field_qi):
    dq = normalize_gamma(field_q.from_int(5), 2)
    di = normalize_gamma(field_qi.from_int(5), 2)
    with pytest.raises(ValueError):
        is_isomorphic(dq, di)


# ---------------------------------------------------------------------------
# enumeration: census oracles
# ---------------------------------------------------------------------------


def test_census_over_q(field_q):
    # quadratic fields counted by |disc|: classical values
    recs = enumerate_extensions(field_q, 2, 100)
    assert_pairwise_non_isomorphic(recs)
    assert len(recs) == 61
    recs = enumerate_extensions(field_q, 2, 300)
    assert len(recs) == 184
    # recount independently from the classical discriminant formula
    def squarefree(n):
        k = 2
        while k * k <= n:
            if n % (k * k) == 0:
                return False
            k += 1
        return True

    classical = 0
    for g in range(-300, 301):
        if g in (0, 1) or not squarefree(abs(g)):
            continue
        disc = g if g % 4 == 1 else 4 * g
        if abs(disc) <= 300:
            classical += 1
    assert classical == 184


def test_smallest_discriminants_over_q(field_q):
    recs = enumerate_extensions(field_q, 2, 12)
    got = [(r.disc_norm, r.datum.gamma.int_coords()[0]) for r in recs]
    # ties broken by the parameter tuple: the trivial unit coset sorts first
    assert got == [(3, -3), (4, -1), (5, 5), (7, -7), (8, 2), (8, -2), (11, -11), (12, 3)]


def test_census_qm5(field_qm5):
    recs = enumerate_extensions(field_qm5, 2, 50)
    assert_pairwise_non_isomorphic(recs)
    assert len(recs) == 13
    by_class = {0: 0, 1: 0}
    for r in recs:
        by_class[r.steinitz] += 1
    assert by_class == {0: 7, 1: 6}
    recs = enumerate_extensions(field_qm5, 2, 200)
    assert len(recs) == 75
    assert sum(1 for r in recs if r.steinitz == 0) == 39


def test_census_zeta3_multiplicity(field_zeta3):
    # each isomorphism class comes from exactly ell-1 = 2 parameter tuples
    dedup = enumerate_extensions(field_zeta3, 3, 1000)
    assert_pairwise_non_isomorphic(dedup)
    raw = enumerate_extensions(field_zeta3, 3, 1000, dedup=False)
    assert len(dedup) == 5
    assert len(raw) == 10
    # pair off the raw records under isomorphism: each deduped record twice
    for r in dedup:
        mates = [s for s in raw if is_isomorphic(r.datum, s.datum)]
        assert len(mates) == 2


def test_enumeration_invariants_zeta3(field_zeta3):
    cg = compute_class_group(field_zeta3)
    realizable = set(realizable_class_subgroup(cg, 3))
    for r in enumerate_extensions(field_zeta3, 3, 1000):
        # Steinitz identity: St^2 (gamma O_K)^(ell-1) = Delta
        fa = r.datum.parts.reconstruct()
        st2 = r.discriminant * (fa ** 2).inverse()
        root = st2.sqrt()
        assert root * root * fa ** 2 == r.discriminant
        assert cg.index_of(root) == r.steinitz
        assert r.steinitz in realizable
        # re-normalizing an enumerated gamma is a fixed point
        again = normalize_gamma(r.datum.gamma, 3)
        assert again == r.datum
        # discriminant norm bound respected
        assert r.disc_norm <= 1000
        assert r.discriminant == r.ell_part * r.ell_free_part


def test_enumeration_artin_identity_qm5(field_qm5):
    cg = compute_class_group(field_qm5)
    for r in enumerate_extensions(field_qm5, 2, 200):
        fa = r.datum.parts.reconstruct()
        st2 = r.discriminant * fa.inverse()
        root = st2.sqrt()
        assert root * root * fa == r.discriminant
        assert cg.index_of(root) == r.steinitz


def test_enumeration_wild_exponent_cap(field_qi):
    # at (1+i): exponent 4 (gamma not a square mod 2), 2 (square mod (1+i)^3
    # but not deeper), 0 (square to full depth), or 5 (odd valuation).
    # Exponent 3 cannot occur: odd squares land on {1,-1} mod (1+i)^3 and
    # 1+2i = -1 there, so depth 2 implies depth 3.
    q2 = split_prime(field_qi, 2)[0]
    seen = set()
    for r in enumerate_extensions(field_qi, 2, 2000):
        seen.add(r.discriminant.exps.get(q2, 0))
    assert seen == {0, 2, 4, 5}


def test_enumeration_deterministic(field_qm5):
    a = enumerate_extensions(field_qm5, 2, 150)
    b = enumerate_extensions(field_qm5, 2, 150)
    assert [(r.disc_norm, r.datum.gamma.int_coords()) for r in a] == [
        (r.disc_norm, r.datum.gamma.int_coords()) for r in b
    ]
    # iterator form feeds the sorted form
    c = sorted(iter_extensions(field_qm5, 2, 150), key=ExtensionRecord.sort_key)
    assert [(r.disc_norm, r.datum.gamma.int_coords()) for r in a] == [
        (r.disc_norm, r.datum.gamma.int_coords()) for r in c
    ]


def test_enumeration_ell_free_ordering(field_qm5):
    # order_by="ell_free" bounds N(F) instead of N(Delta): gammas whose
    # ell-part is large still appear
    recs = enumerate_extensions(field_qm5, 2, 25, order_by="ell_free")
    assert all(int(r.ell_free_part.norm()) <= 25 for r in recs)
    assert any(int(r.ell_part.norm()) > 25 for r in recs)
    with pytest.raises(ValueError):
        enumerate_extensions(field_qm5, 2, 25, order_by="norm")


def test_enumeration_empty_and_dedup_flag(field_q):
    assert enumerate_extensions(field_q, 2, 0) == []
    assert list(iter_extensions(field_q, 2, 2)) == []
    # dedup is a no-op for ell = 2 (trivial power orbit)
    a = enumerate_extensions(field_q, 2, 60)
    b = enumerate_extensions(field_q, 2, 60, dedup=False)
    assert len(a) == len(b)


def test_record_json_shape(field_qm5):
    cg = compute_class_group(field_qm5)
    recs = enumerate_extensions(field_qm5, 2, 50)
    row = record_json_dict(recs[0], cg)
    assert set(row) == {"gamma", "disc_norm", "disc_factored", "steinitz"}
    assert all(isinstance(c, int) for c in row["gamma"])
    assert row["disc_norm"] == str(recs[0].disc_norm)
    assert all(isinstance(lbl, str) and isinstance(e, int) for lbl, e in row["disc_factored"])
    # labels are "p,f,e" (with a disambiguating index when needed); the norms
    # recompose the discriminant norm
    total = 1
    for lbl, e in row["disc_factored"]:
        p, f = map(int, lbl.split(",")[:2])
        total *= (p**f) ** e
    assert total == recs[0].disc_norm
    assert isinstance(row["steinitz"], list)


def test_unit_only_extensions(field_qi):
    # gamma = i: unit ideal, nontrivial coset; shows up in the census once
    recs = enumerate_extensions(field_qi, 2, 16)
    unit_recs = [r for r in recs if r.datum.parts.reconstruct().is_unit_ideal()]
    assert len(unit_recs) >= 1
    assert all(abs(r.datum.gamma.norm()) == 1 for r in unit_recs)


# sha256 of the sorted record_json_dict lines: the raw stream order of
# iter_extensions is free to change, the sorted records are not
@pytest.mark.parametrize(
    "name, ell, X, options, count, digest",
    [
        ("q", 2, 1000, {}, 607,
         "f4f59df6ff9b35893e89bfbcbbd56ce5381b3fb02b3afed332192f7b76a01946"),
        ("qi", 2, 1000, {}, 262,
         "7b86fbeb7891b18cbbeddb6833219b8c14495885c473a59a2275f7cb9face6ed"),
        ("qm5", 2, 1000, {}, 377,
         "f5a1ade1c4b4a18ee4a8548c7739739c8603a3c5679f3bc1c043523e84785078"),
        ("cubic9", 2, 400, {}, 141,
         "d9317b8ddd2b6ccce2a6f1a82b3c1ec5e5d0a1480121602e55db05a056932251"),
        ("zeta3", 3, 200000, {}, 112,
         "80030c4873296a9c36df299d4d919551faeae1e46fec9c2df54c5fce49749c24"),
        ("qm5", 2, 100, {"order_by": "ell_free"}, 179,
         "21e6f0e8bcaba45672592e41a5bf14d8672534dfa35d6bb8771408327e6dd267"),
        ("zeta3", 3, 20000, {"dedup": False}, 66,
         "0c2a0ef31e3917225b9937ba2c956c5e18a9fdeb56e62003d5da45bc7c0ef728"),
    ],
    ids=["q", "qi", "qm5", "cubic9", "zeta3", "qm5-ell_free", "zeta3-raw"],
)
def test_enumeration_records_pinned(name, ell, X, options, count, digest, request):
    K = request.getfixturevalue(f"field_{name}")
    cg = compute_class_group(K)
    lines = sorted(
        json.dumps(record_json_dict(r, cg)) for r in enumerate_extensions(K, ell, X, **options)
    )
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["qi", "qm5"])
def test_unit_cosets_computed_once_per_enumeration(name, request, monkeypatch):
    K = request.getfixturevalue(f"field_{name}")
    ug = compute_unit_group(K)
    calls = []

    def counting(ug_, u, ell):
        calls.append(u)
        return unit_coset_coords(ug_, u, ell)

    monkeypatch.setattr(kummer, "unit_coset_coords", counting)
    recs = list(iter_extensions(K, 2, 200))
    assert len(calls) == len(unit_coset_reps(ug, 2))
    for r in recs:  # every record still carries its own coset
        assert r.datum.unit_coset == unit_coset_coords(ug, r.datum.unit_coordinate, 2)


@pytest.mark.parametrize(
    "name, ell, X",
    [("qi", 2, 1000), ("qm5", 2, 1000), ("zeta3", 3, 20000), ("cubic9", 2, 100)],
)
def test_cells_run_no_generator_search_once_warm(name, ell, X, request, monkeypatch):
    # once the pool's class lookups are warm, every cell generator is
    # composed from stored ones, in unit rank 0 and in rank >= 1 (cubic-9):
    # no norm-match search and no HNF assembly
    K = request.getfixturevalue(f"field_{name}")
    warm = enumerate_extensions(K, ell, X)
    calls = {"norm_matches": 0, "to_ideal": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ideals, "norm_matches", counting("norm_matches", ideals.norm_matches))
    monkeypatch.setattr(FactoredIdeal, "to_ideal", counting("to_ideal", FactoredIdeal.to_ideal))
    again = enumerate_extensions(K, ell, X)
    assert [r.sort_key() for r in again] == [r.sort_key() for r in warm]
    assert [r.datum.gamma for r in again] == [r.datum.gamma for r in warm]
    assert calls == {"norm_matches": 0, "to_ideal": 0}


@pytest.mark.parametrize(
    "name, ell, X, options",
    [
        ("q", 2, 2000, {}),
        ("qi", 2, 1000, {}),
        ("qm5", 2, 1000, {}),
        ("qs2", 2, 2000, {}),
        ("cubic9", 2, 200, {}),
        ("zeta3", 3, 100000, {}),
        ("qm5", 2, 200, {"order_by": "ell_free"}),
        ("zeta3", 3, 20000, {"dedup": False}),
        ("qi", 2, 100, {"order_by": "ell_free"}),
        ("x4_7x2_13", 3, 20, {"order_by": "ell_free"}),
    ],
    ids=["q", "qi", "qm5", "qs2", "cubic9", "zeta3", "qm5-ell_free", "zeta3-raw", "qi-ell_free",
         "x4_7x2_13-ell_free"],
)
def test_cell_loop_matches_per_candidate_oracle(name, ell, X, options, request, monkeypatch):
    # the cell loop shares the ell-free discriminant, its norm and the
    # Steinitz denominator across a cell; every candidate (norm-rejected
    # ones included) and every record must agree with the discriminant
    # and Steinitz class rebuilt from the whole ideal gamma O_K.  Each
    # gamma is its cell generator, composed from the generators the walk
    # carries, times its unit: the generator must be the canonical one
    # that generator_coords composes from the whole ideal (on qs2 the unit
    # reduction starts from a different generator)
    K = request.getfixturevalue(f"field_{name}")
    cg = compute_class_group(K)
    candidates = []

    def recording(d, ceilings=None):
        got = split(d, ceilings)
        candidates.append((d, got))
        return got

    split = kummer._discriminant_split
    monkeypatch.setattr(kummer, "_discriminant_split", recording)
    records = enumerate_extensions(K, ell, X, **options)
    assert records and len(candidates) >= len(records)
    for d, got in candidates:
        assert got == discriminant_split_from_ideal(d)
        assert d.cell.row.q_pow * d.cell.off * d.cell.off == steinitz_denominator(d)
        alpha, den = cg.generator_coords(d.parts.reconstruct())
        assert den == 1 and d.gamma == AlgebraicNumber._of(K, alpha) * d.unit_coordinate
    for d, _ in candidates[:: len(candidates) // 200 + 1]:  # parts are those of gamma O_K
        fa = factor_ideal(ideal_from_element(d.gamma))
        assert d.parts.reconstruct() == fa and d.parts == decompose_parts(fa, ell)
    classes = set()
    for r in records:
        delta, lpart, fpart = discriminant_split_from_ideal(r.datum)
        assert (r.discriminant, r.ell_part, r.ell_free_part) == (delta, lpart, fpart)
        assert r.disc_norm == delta.norm()
        assert r.steinitz == steinitz_class_from_parts(r.datum, cg)
        classes.add(r.steinitz)
    assert len(classes) == cg.h


def test_cell_loop_composes_no_generator_per_cell(field_qm5, monkeypatch):
    # a cell's generator comes from the one the walk carries and one
    # composed per (row, class): no cell composes its ideal from its primes
    cg = compute_class_group(field_qm5)
    calls = {"generator_coords": 0, "_compose": 0, "rows": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ClassGroup, "generator_coords")
    counting(ClassGroup, "_compose")
    row_init = kummer._Row.__init__

    def counting_row(self, *args):
        calls["rows"] += 1
        row_init(self, *args)

    monkeypatch.setattr(kummer._Row, "__init__", counting_row)
    records = enumerate_extensions(field_qm5, 2, 1000)
    assert records and cg.h == 2 and calls["rows"] == 2
    assert calls["generator_coords"] == 0
    assert calls["_compose"] <= calls["rows"] * cg.h


@pytest.mark.parametrize(
    "name, ell, X",
    [("q", 2, 2000), ("qi", 2, 1000), ("qm5", 2, 1000), ("cubic9", 2, 200), ("zeta3", 3, 100000),
     ("x4_7x2_13", 3, 200000)],
)
def test_normalize_gamma_datum_matches_its_record(name, ell, X, request):
    # a datum from normalize_gamma has no cell: it makes its own, on a
    # throwaway row, and its discriminant and Steinitz class must equal the
    # record's and the whole-ideal oracle's.  On x^4+7x^2+13 (h = 2) the
    # class of the cell's off is not always 0.
    K = request.getfixturevalue(f"field_{name}")
    cg = compute_class_group(K)
    records = enumerate_extensions(K, ell, X)
    assert records
    off_classes = set()
    for r in records:
        d = normalize_gamma(r.datum.gamma, ell)
        assert d.cell is None and d == r.datum
        assert steinitz_class(d, cg) == r.steinitz == steinitz_class_from_parts(r.datum, cg)
        assert relative_discriminant(d) == (
            r.discriminant, r.ell_part.to_ideal(), r.ell_free_part.to_ideal()
        )
        assert d.cell is not r.datum.cell
        off_classes.add(cg.index_of(d.cell.off))
    if name in ("qm5", "cubic9", "x4_7x2_13"):
        assert len(off_classes) == cg.h == 2


@pytest.mark.parametrize(
    "name, ell, X", [("q", 2, 5000), ("qm5", 2, 2000), ("x4_7x2_13", 3, 200000)]
)
def test_row_memo_counts(name, ell, X, request, monkeypatch):
    # within one enumeration the wild ell-part is worked out once per
    # (row Q, gamma mod ell^2) and the Steinitz square check runs once per
    # (row Q, ell-part L) of a record, not once per candidate or record
    K = request.getfixturevalue(f"field_{name}")
    cg = compute_class_group(K)
    calls = {"_wild_part": 0, "_steinitz_root": 0}
    candidates = []

    def counting(fn_name):
        fn = getattr(kummer, fn_name)

        def wrapper(*args):
            calls[fn_name] += 1
            return fn(*args)

        monkeypatch.setattr(kummer, fn_name, wrapper)

    def recording(d, ceilings=None):
        candidates.append(d)
        return split(d, ceilings)

    counting("_wild_part")
    counting("_steinitz_root")
    split = kummer._discriminant_split
    monkeypatch.setattr(kummer, "_discriminant_split", recording)
    records = enumerate_extensions(K, ell, X)
    monkeypatch.undo()
    residues = {
        (d.parts.ell_part.sort_key(), tuple(c % ell**2 for c in d.gamma.int_coords()))
        for d in candidates
    }
    pairs = {(r.datum.parts.ell_part.sort_key(), r.ell_part.sort_key()) for r in records}
    assert calls == {"_wild_part": len(residues), "_steinitz_root": len(pairs)}
    assert len(pairs) <= len(residues) <= len(candidates)
    if ell == 2:  # a handful of residues mod 4 per row, against 3040 records over Q
        assert len(residues) < len(records) == {"q": 3040, "qm5": 737}[name]
    for r in records:
        assert r.steinitz == steinitz_class(r.datum, cg)


def test_row_entry_takes_an_equal_ell_part_built_elsewhere(field_qm5, monkeypatch):
    # the cell finds a record's N(L) and Steinitz term by the row's own L
    # object; an equal L built elsewhere reaches the same entry
    expected = enumerate_extensions(field_qm5, 2, 2000)
    split = kummer._discriminant_split

    def copying(d, ceilings=None):
        delta, lpart, fpart = split(d, ceilings)
        return delta, FactoredIdeal(lpart.field, dict(lpart.exps)), fpart

    monkeypatch.setattr(kummer, "_discriminant_split", copying)
    assert enumerate_extensions(field_qm5, 2, 2000) == expected


@pytest.mark.parametrize(
    "name, X, options",
    [("zeta3", 100000, {}), ("x4_7x2_13", 20, {"order_by": "ell_free"}),
     ("x4_53x2_703", 1000, {"order_by": "ell_free"})],
    ids=["zeta3", "x4_7x2_13-ell_free", "x4_53x2_703-ell_free"],
)
def test_normalize_hint_matches_factoring(name, X, options, request, monkeypatch):
    # the cell loop passes gamma^m O_K = fa^m to normalize_gamma; on every
    # deduped candidate the result equals the one that factors gamma^m O_K
    # itself, and the element path's (normalize_gamma_by_elements) gamma,
    # unit coordinate, coset, class and parts.  On x^4+7x^2+13 (h = 2,
    # rank 1) and x^4+53x^2+703 (Cl = Z/6) the power root moves to a
    # nontrivial class representative, and its generator is composed with
    # no norm-match search.
    K = request.getfixturevalue(f"field_{name}")
    calls = []
    normalize = kummer.normalize_gamma

    def recording(gamma, ell, ceilings=None, fa=None):
        got = normalize(gamma, ell, ceilings, fa=fa)
        calls.append((gamma, fa, got))
        return got

    monkeypatch.setattr(kummer, "normalize_gamma", recording)
    records = enumerate_extensions(K, 3, X, **options)
    assert len(calls) > len(records) > 0  # ell = 3 tries m = 2 once per candidate
    searches = []
    search = ideals.norm_matches
    monkeypatch.setattr(ideals, "norm_matches", lambda *a: searches.append(a) or search(*a))
    for gamma, fa, got in calls:
        assert fa is not None
        assert normalize(gamma, 3) == got
        want = normalize_gamma_by_elements(gamma, 3, fa)
        assert (got.gamma, got.unit_coordinate, got.unit_coset, got.power_root_class, got.parts) == (
            want.gamma, want.unit_coordinate, want.unit_coset, want.power_root_class, want.parts
        )
    assert any(any(d.unit_coset) for *_, d in calls)
    if name != "zeta3":
        assert any(d.power_root_class for *_, d in calls)
    assert not searches


def _raises_on_both_paths(error, gamma, fa):
    with pytest.raises(error):
        normalize_gamma(gamma, 3, fa=fa)
    with pytest.raises(error):
        normalize_gamma_by_elements(gamma, 3, fa)


def test_normalize_rejects_a_wrong_hint(field_zeta3, field_x4_7x2_13):
    # u = gamma / (k^ell alpha) is a unit exactly when the hint is gamma O_K;
    # the int path raises where the element path does: ArithmeticError for
    # a wrong principal hint (u with a Fraction coordinate, or integral of
    # norm other than +-1), NotPrincipalError for a non-principal one
    K = field_zeta3
    cg = compute_class_group(K)
    q, qbar = split_prime(K, 7)
    g = composed_generator(cg, FactoredIdeal(K, {q: 1}))
    assert normalize_gamma(g, 3, fa=FactoredIdeal(K, {q: 1})) == normalize_gamma(g, 3)
    _raises_on_both_paths(ArithmeticError, g, FactoredIdeal(K, {qbar: 1}))  # the conjugate prime
    five = FactoredIdeal(K, {r: 1 for r in split_prime(K, 5)})
    gamma = K.from_int(5) * g**3
    assert normalize_gamma(gamma, 3, fa=five * FactoredIdeal(K, {q: 3})) == normalize_gamma(gamma, 3)
    _raises_on_both_paths(ArithmeticError, gamma, five)  # drops the cube q^3
    _raises_on_both_paths(ArithmeticError, g * K.from_int(2), FactoredIdeal(K, {q: 1}))  # N(u) = 4
    # an extra principal cube on x^4+7x^2+13 leaves the classes alone
    K = field_x4_7x2_13
    cg = compute_class_group(K)
    gamma = K.from_int(5) * K.theta
    fa = factor_ideal(ideal_from_element(gamma))
    two = FactoredIdeal(K, {r: r.e for r in split_prime(K, 2)})
    assert normalize_gamma(gamma, 3, fa=fa) == normalize_gamma(gamma, 3)
    _raises_on_both_paths(ArithmeticError, gamma, fa * two**3)
    odd = next(p for p in primes_of_norm_up_to(K, 100) if cg.index_of(FactoredIdeal(K, {p: 1})))
    _raises_on_both_paths(ArithmeticError, gamma, fa * FactoredIdeal(K, {odd: 2}))  # principal
    _raises_on_both_paths(NotPrincipalError, gamma, fa * FactoredIdeal(K, {odd: 1}))
    _raises_on_both_paths(NotPrincipalError, gamma, FactoredIdeal(K, {odd: 1}))


def test_cell_loop_dedup_takes_no_fraction_path(field_zeta3, monkeypatch):
    # over Q(zeta3), the one field of degree <= 3 with ell > 2, the cell
    # loop's normalize_gamma calls neither the normalizing element
    # constructor nor the fraction-free solve: only int tuples and the
    # field's straight-line kernels
    K = field_zeta3
    expected = enumerate_extensions(K, 3, 100000)
    inside, seen, calls = [0], [], [0]
    init, solve = AlgebraicNumber.__init__, number_field._solve_int
    normalize = kummer.normalize_gamma

    def spy_init(self, *args):
        if inside[0]:
            seen.append("AlgebraicNumber.__init__")
        init(self, *args)

    def spy_solve(*args):
        if inside[0]:
            seen.append("_solve_int")
        return solve(*args)

    def tracked(*args, **kwargs):
        calls[0] += 1
        inside[0] += 1
        try:
            return normalize(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(AlgebraicNumber, "__init__", spy_init)
    monkeypatch.setattr(number_field, "_solve_int", spy_solve)
    monkeypatch.setattr(kummer, "normalize_gamma", tracked)
    assert enumerate_extensions(K, 3, 100000) == expected
    assert calls[0] > len(expected) and not seen
    # the spies see the element path: its unit check builds an element
    inside[0] += 1
    normalize_gamma_by_elements(expected[0].datum.gamma**2, 3)
    assert "AlgebraicNumber.__init__" in seen


def test_int_nth_root_beyond_float_range():
    # the cell loop's bound floor(X^(1/(ell-1))) comes from the integer root
    # kummer calls; a float seed overflows past 1e308, and 2^106 - 1 rounds
    # up to 2^106 as a double, so a float seed lands one above its root
    def root(n, k):
        return kummer.integer_nthroot(n, k)[0]

    assert root(10**400, 2) == 10**200
    assert root(10**400 - 1, 2) == 10**200 - 1
    assert root(2**106 - 1, 2) == 2**53 - 1
    assert root(2**106, 2) == 2**53
    rng = random.Random(5)
    for _ in range(500):
        k = rng.randint(1, 6)
        n = rng.randint(0, 10 ** rng.randint(0, 400))
        x = root(n, k)
        assert x**k <= n < (x + 1) ** k
