"""ell = 5 over Q(zeta5), the one tier-1 field with ell > 3.

Q(zeta5) has h = 1, so every Steinitz class is trivial and the
equidistribution statement says nothing here; these tests check the
enumeration itself (the (ell-1)-fold orbit multiplicity, the trace form,
the record bytes) and the rho table at ell = 5.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from nfk.class_unit import compute_class_group
from nfk.density import density_report
from nfk.harness import load_field_spec
from nfk.kummer import iter_extensions, record_json_dict, verify_trace_determinant

SPEC = Path(__file__).resolve().parent.parent / "fieldspecs" / "zeta5.json"


@pytest.fixture(scope="module")
def zeta5():
    K = load_field_spec(SPEC)
    assert (K.degree, K.ell, compute_class_group(K).h) == (4, 5, 1)
    return K


@pytest.fixture(scope="module")
def streams(zeta5):
    """(dedup, raw) record lists for X = 10^11 and 10^12."""
    return {
        X: (list(iter_extensions(zeta5, 5, X)), list(iter_extensions(zeta5, 5, X, dedup=False)))
        for X in (10**11, 10**12)
    }


@pytest.mark.parametrize("X, n", [(10**11, 9), (10**12, 18)])
def test_raw_stream_is_four_fold(streams, X, n):
    # each extension has ell - 1 = 4 Kummer generators gamma^k, k = 1..4;
    # dedup keeps one per orbit, the raw stream all four
    dedup, raw = streams[X]
    assert (len(dedup), len(raw)) == (n, 4 * n)
    by_norm = Counter(rec.disc_norm for rec in dedup)
    assert Counter(rec.disc_norm for rec in raw) == {dn: 4 * k for dn, k in by_norm.items()}


def test_trace_determinant_on_every_record(zeta5, streams):
    # det of the trace matrix is +5^5 gamma^4: ell = 1 mod 4
    for rec in streams[10**12][0]:
        assert verify_trace_determinant(zeta5, rec.datum.gamma, 5)


def test_record_json_bytes(zeta5, streams):
    cg = compute_class_group(zeta5)
    lines = sorted(json.dumps(record_json_dict(rec, cg)) for rec in streams[10**11][0])
    assert lines[:3] == [
        '{"gamma": [-1, -5, 5, 0], "disc_norm": "13521270961", '
        '"disc_factored": [["11,1,1,1", 4], ["31,1,1,1", 4]], "steinitz": []}',
        '{"gamma": [-21, -25, -5, -25], "disc_norm": "41371966801", '
        '"disc_factored": [["11,1,1,0", 4], ["41,1,1,0", 4]], "steinitz": []}',
        '{"gamma": [117, -25, 125, 65], "disc_norm": "41371966801", '
        '"disc_factored": [["11,1,1,1", 4], ["41,1,1,3", 4]], "steinitz": []}',
    ]


def test_density_report(zeta5):
    # one wild prime, (1 - zeta5) of norm 5, at exponents 0, 8, 12, 16, 20, 24
    rep = density_report(zeta5, 5)
    assert [n for _, n, _ in rep.rows] == [1, 5**8, 5**12, 5**16, 5**20, 5**24]
    assert [r for _, _, r in rep.rows] == [
        Fraction(1, 3125), Fraction(4, 3125), Fraction(4, 625),
        Fraction(4, 125), Fraction(4, 25), Fraction(4, 5),
    ]
    assert sum(r for _, _, r in rep.rows) == 1
    assert rep.identity is None  # the closed identity is an ell = 2 statement
