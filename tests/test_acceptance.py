"""Acceptance gate: fourteen checks, one printed pass/fail line each.

Run with -s (or read captured stdout) for the lines; every check asserts
both its tolerance and its runtime budget.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import divisors, factorint

from nfk.abelian_groups import (
    abelian_group_from_divisors,
    product_distribution_check,
    unit_group_mod_ideal,
)
from nfk.class_unit import compute_class_group
from nfk.density import density_report, enumerate_R, identity_check, rho
from nfk.harness import load_field_spec, run_count_asymptotic_check
from nfk.ideals import (
    decompose_parts,
    factor_ideal,
    ideal_from_element,
    ideal_mul,
)
from nfk.kummer import (
    enumerate_extensions,
    iter_extensions,
    normalize_gamma,
    realizable_class_subgroup,
    relative_discriminant,
    verify_trace_determinant,
)
from oracles import assert_pairwise_non_isomorphic


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:2d} ({name}): {status} — {detail} [{elapsed:.1f}s/{budget:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget:.0f}s"


def test_criterion_01_rho_table_exact(field_cubic9):
    t0 = time.perf_counter()
    table = {int(fa.norm()): rho(field_cubic9, 2, fa) for fa in enumerate_R(field_cubic9, 2)}
    want = {512: Fraction(1, 2), 64: Fraction(7, 16), 1: Fraction(1, 16)}
    _report(
        1,
        "rho table",
        table == want,
        f"rho_512={table.get(512)} rho_64={table.get(64)} rho_1={table.get(1)}",
        time.perf_counter() - t0,
        10,
    )


def test_criterion_02_residue_ring_structure(field_cubic9):
    t0 = time.perf_counter()
    four = ideal_from_element(field_cubic9.from_int(4))
    rug = unit_group_mod_ideal(field_cubic9, four)
    chain = rug.group.divisor_chain()
    # Z/7 x (Z/2)^3 in divisibility-chain normalization is 2 | 2 | 14.
    ok = chain == [2, 2, 14] and rug.order == 56
    _report(
        2,
        "(O/4)^x structure",
        ok,
        f"divisor chain {chain}, order {rug.order}",
        time.perf_counter() - t0,
        10,
    )


def test_criterion_03_identity_exact(field_cubic9, field_qi, field_q):
    results = []
    for K, want in ((field_cubic9, Fraction(1, 2)), (field_qi, Fraction(1, 2)), (field_q, Fraction(1))):
        t0 = time.perf_counter()
        got = identity_check(K)
        results.append((K.label, got, want, time.perf_counter() - t0))
    ok = all(got == want for _, got, want, _ in results)
    detail = "  ".join(f"{lbl}={got}" for lbl, got, _, _ in results)
    _report(3, "closed identity", ok, detail, max(dt for *_, dt in results), 30)


def test_criterion_04_total_mass(field_q, field_qi, field_qm5, field_zeta3, field_cubic9):
    t0 = time.perf_counter()
    fields = [field_q, field_qi, field_qm5, field_zeta3, field_cubic9]
    checked, bad = [], []
    for K in fields:
        for ell in (2, 3):
            if K.contains_zeta(ell) is None:
                continue
            total = sum(rho(K, ell, fa) for fa in enumerate_R(K, ell))
            checked.append(f"{K.label}/l={ell}")
            if total != Fraction(1):
                bad.append((K.label, ell, total))
    _report(
        4,
        "sum rho = 1",
        not bad,
        f"{len(checked)} field/ell pairs exact" + (f"; FAILED {bad}" if bad else ""),
        time.perf_counter() - t0,
        60,
    )


def test_criterion_05_classical_discriminants(field_q):
    t0 = time.perf_counter()
    K = field_q
    mismatches = 0
    cases = 0
    for n in range(2, 10**4 + 1):
        if any(e > 1 for e in factorint(n).values()):
            continue
        for d in (n, -n):
            datum = normalize_gamma(K.from_int(d), 2)
            delta, _, _ = relative_discriminant(datum)
            expected = d if d % 4 == 1 else 4 * d
            if delta != factor_ideal(ideal_from_element(K.from_int(expected))):
                mismatches += 1
            cases += 1
    _report(
        5,
        "classical disc sweep",
        mismatches == 0,
        f"{cases} squarefree d, {mismatches} mismatches",
        time.perf_counter() - t0,
        60,
    )


def test_criterion_06_trace_determinant(field_zeta3, field_qi):
    t0 = time.perf_counter()
    rng = random.Random(20210)
    bad = 0
    for K, ell in ((field_zeta3, 3), (field_qi, 2)):
        done = 0
        while done < 100:
            coords = [rng.randint(-9, 9) for _ in range(K.degree)]
            gamma = K.element(coords)
            if gamma.is_zero():
                continue
            if not verify_trace_determinant(K, gamma, ell):
                bad += 1
            done += 1
    _report(
        6,
        "trace determinant",
        bad == 0,
        f"200 random gamma, {bad} failures",
        time.perf_counter() - t0,
        60,
    )


@pytest.fixture(scope="module")
def qm5_stream(field_qm5):
    t0 = time.perf_counter()
    records = list(iter_extensions(field_qm5, 2, 2 * 10**4, order_by="disc"))
    return records, time.perf_counter() - t0


def test_criterion_07_steinitz_identity(field_qm5, qm5_stream):
    records, stream_dt = qm5_stream
    t0 = time.perf_counter()
    cg = compute_class_group(field_qm5)
    violations = 0
    for rec in records:
        parts = rec.datum.parts
        den = parts.ell_part * parts.root**2  # power_parts enter with weight i-1 = 0
        st2 = rec.ell_part * den.inverse()
        st = st2.sqrt()
        if st * st * den != rec.ell_part or cg.index_of(st) != rec.steinitz:
            violations += 1
    _report(
        7,
        "Steinitz identity",
        violations == 0,
        f"{len(records)} extensions, {violations} violations",
        stream_dt + time.perf_counter() - t0,
        600,
    )


def test_criterion_08_equidistribution(field_qm5, qm5_stream):
    records, stream_dt = qm5_stream
    t0 = time.perf_counter()
    by_class = Counter(rec.steinitz for rec in records)
    by_cell = Counter((rec.ell_part, rec.steinitz) for rec in records)
    total = len(records)
    fracs = {c: by_class[c] / total for c in (0, 1)}
    class_dev = max(abs(f - 0.5) for f in fracs.values())
    row_dev = 0.0
    for Q in {q for q, _ in by_cell}:
        row_total = by_cell[Q, 0] + by_cell[Q, 1]
        if row_total:
            row_dev = max(row_dev, abs(by_cell[Q, 0] / row_total - 0.5))
    ok = class_dev <= 0.05 and row_dev <= 0.07
    _report(
        8,
        "equidistribution",
        ok,
        f"X=2e4: {total} extensions, class dev {class_dev:.4f} (<=0.05), "
        f"row dev {row_dev:.4f} (<=0.07)",
        stream_dt + time.perf_counter() - t0,
        600,
    )


def test_criterion_09_count_asymptotics(field_q, field_qi):
    t0 = time.perf_counter()
    cq = run_count_asymptotic_check(field_q, 10**6)
    ci = run_count_asymptotic_check(field_qi, 10**5)
    ok = (
        abs(cq.ratio_eq8 - 1) < 0.02
        and abs(cq.eq8_constant - 6 / math.pi**2) < 1e-9
        and abs(ci.ratio_eq8 - 1) < 0.10
    )
    _report(
        9,
        "count asymptotics",
        ok,
        f"Q: {cq.count}/10^6 ratio {cq.ratio_eq8:.5f} (2%); "
        f"Q(i): {ci.count}/10^5 ratio {ci.ratio_eq8:.5f} (10%)",
        time.perf_counter() - t0,
        600,
    )


def _divisor_chains(m: int, cap: int):
    if m == 1:
        yield ()
        return
    for d in divisors(m):
        if d >= 2 and cap % d == 0:
            for rest in _divisor_chains(m // d, d):
                yield rest + (d,)


def test_criterion_10_group_lemma():
    t0 = time.perf_counter()
    groups = 0
    bad = 0
    for m in range(1, 25):
        for chain in _divisor_chains(m, m):
            g = abelian_group_from_divisors(list(chain))
            assert g.order == m
            groups += 1
            for n in (2, 3):
                tally = product_distribution_check(g, n)
                if len(tally) != m or any(v != m ** (n - 1) for v in tally.values()):
                    bad += 1
    _report(
        10,
        "product distribution",
        bad == 0,
        f"{groups} abelian groups of order <= 24, n in {{2,3}}, {bad} failures",
        time.perf_counter() - t0,
        300,
    )


def test_criterion_11_enumeration_multiplicity(field_zeta3):
    t0 = time.perf_counter()
    raw = enumerate_extensions(field_zeta3, 3, 10**3, dedup=False)
    dd = enumerate_extensions(field_zeta3, 3, 10**3, dedup=True)
    assert_pairwise_non_isomorphic(dd)

    def orbit_key(rec):
        keys = [rec.datum.key()]
        for m in range(2, 3):
            keys.append(normalize_gamma(rec.datum.gamma**m, 3).key())
        return min(keys)

    raw_orbits = Counter(orbit_key(rec) for rec in raw)
    dd_keys = [rec.datum.key() for rec in dd]
    ok = (
        all(v == 2 for v in raw_orbits.values())
        and sorted(dd_keys) == sorted(raw_orbits)
        and len(set(dd_keys)) == len(dd)
    )
    _report(
        11,
        "orbit multiplicity",
        ok,
        f"raw {len(raw)} records in {len(raw_orbits)} orbits (each x2), dedup {len(dd)}",
        time.perf_counter() - t0,
        300,
    )


def test_criterion_12_ideal_properties(field_q, field_qi, field_qm5, field_zeta3, field_cubic9):
    t0 = time.perf_counter()
    rng = random.Random(91)
    failures = 0
    cases = 0
    for K in (field_q, field_qi, field_qm5, field_zeta3, field_cubic9):
        ell = K.ell
        done = 0
        while done < 100:
            a = K.element([rng.randint(-5, 5) for _ in range(K.degree)])
            b = K.element([rng.randint(-5, 5) for _ in range(K.degree)])
            if a.is_zero() or b.is_zero():
                continue
            A, B = ideal_from_element(a), ideal_from_element(b)
            fa = factor_ideal(A)
            checks = [
                ideal_mul(A, B).norm() == A.norm() * B.norm(),
                fa.to_ideal() == A,
                decompose_parts(fa, ell).reconstruct() == fa,
                (fa * fa).sqrt() == fa,
            ]
            failures += checks.count(False)
            cases += 1
            done += 1
    _report(
        12,
        "ideal property suite",
        failures == 0,
        f"{cases} randomized cases over 5 fields, {failures} failed checks",
        time.perf_counter() - t0,
        120,
    )


def test_criterion_13_ell3_steinitz_classes(field_x4_7x2_13):
    # odd ell with h > 1, where equidistribution is not vacuous: ell = 3
    # over x^4 + 7x^2 + 13 (h = 2, two wild primes over 3), ordered by the
    # ell-free part to X = 3000.  Every realizable class (all of Cl(K) at
    # ell = 3) and every ell-part row, rows of equal norm summed, must lie
    # within 4 binomial standard deviations of its expected count.
    t0 = time.perf_counter()
    K = field_x4_7x2_13
    records = list(iter_extensions(K, 3, 3000, order_by="ell_free"))
    cg = compute_class_group(K)
    violations = 0
    for rec in records:
        parts = rec.datum.parts
        den = (parts.ell_part * parts.root**3 * parts.power_parts[2]) ** 2
        st = (rec.ell_part * den.inverse()).sqrt()
        if st * st * den != rec.ell_part or cg.index_of(st) != rec.steinitz:
            violations += 1
    total = len(records)

    def sds(count, p):
        return abs(count - total * p) / math.sqrt(total * p * (1 - p))

    by_class = Counter(rec.steinitz for rec in records)
    class_dev = max(sds(by_class[c], 1 / cg.h) for c in range(cg.h))
    rho_by_norm = density_report(K, 3).rho_by_norm()
    by_norm = Counter(int(rec.ell_part.norm()) for rec in records)
    row_dev = max(sds(by_norm[n], float(r)) for n, r in rho_by_norm.items())
    ok = (
        cg.h == 2
        and violations == 0
        and set(by_norm) <= set(rho_by_norm)
        and class_dev <= 4
        and row_dev <= 4
    )
    _report(
        13,
        "ell = 3, h = 2",
        ok,
        f"X=3000 (ell-free): {total} extensions, {violations} Steinitz violations, "
        f"classes {sorted(by_class.values())}, class dev {class_dev:.2f} sd (<=4), "
        f"row dev {row_dev:.2f} sd (<=4)",
        time.perf_counter() - t0,
        30,
    )


def test_criterion_14_ell3_class_number_six():
    # ell | h for odd ell: ell = 3 over x^4 + 53x^2 + 703 (Cl = Z/6, all six
    # classes realizable), ordered by the ell-free part to X = 10^4.  Every
    # record satisfies the Steinitz square identity and class(Delta) =
    # 2 St; the record count and the class tallies are pinned as measured,
    # with no tolerance on the class fractions (whether they approach 1/6
    # within reach is open).
    t0 = time.perf_counter()
    K = load_field_spec(Path(__file__).resolve().parent.parent / "fieldspecs" / "x4_53x2_703.json")
    records = list(iter_extensions(K, 3, 10**4, order_by="ell_free"))
    cg = compute_class_group(K)
    violations = 0
    for rec in records:
        parts = rec.datum.parts
        den = (parts.ell_part * parts.root**3 * parts.power_parts[2]) ** 2
        st = (rec.ell_part * den.inverse()).sqrt()
        if st * st * den != rec.ell_part or cg.index_of(st) != rec.steinitz:
            violations += 1
        if cg.index_of(rec.discriminant) != cg.group.power(rec.steinitz, 2):
            violations += 1
    by_class = Counter(rec.steinitz for rec in records)
    tallies = tuple(by_class[c] for c in range(cg.h))
    ok = (
        K.ell == 3
        and cg.group.divisor_chain() == [6]
        and realizable_class_subgroup(cg, 3) == list(range(6))
        and violations == 0
        and len(records) == 1417
        and tallies == (526, 567, 81, 81, 81, 81)
    )
    _report(
        14,
        "ell = 3, h = 6",
        ok,
        f"X=1e4 (ell-free): {len(records)} extensions, {violations} violations, "
        f"Cl invariants {cg.group.divisor_chain()}, class tallies {tallies}",
        time.perf_counter() - t0,
        60,
    )
