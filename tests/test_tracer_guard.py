"""The benchmark's span tracer still finds every name it wraps in nfk.

perfbench/tracer.py is read and executed in a private namespace (nothing is
imported from or written under perfbench/), so a rename in nfk fails here
and not only in the benchmark's own smoke test.  The tracer also counts
trivial skips from the enumeration's first cell, which must be the unit
ideal, and the cell loop's bookkeeping identities must hold under it.
Box points are counted through NumberField.norm_int on the class, so that
method must see the norm calls of the generator searches.
"""

import inspect
import types
from pathlib import Path

import pytest

import nfk.abelian_groups  # noqa: F401  (the tracer resolves names in sys.modules)
import nfk.class_unit  # noqa: F401
import nfk.density  # noqa: F401
import nfk.exact_math  # noqa: F401
import nfk.harness  # noqa: F401
import nfk.ideals  # noqa: F401
import nfk.kummer
import nfk.number_field  # noqa: F401
from nfk.class_unit import compute_class_group
from nfk.number_field import build_field

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer() -> types.ModuleType:
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_every_span_resolves():
    tracer = _tracer()
    for name in tracer.SPANS:
        _owner, _attr, fn = tracer._resolve(name)
        assert callable(fn), name


def test_cell_records_leading_parameters():
    tracer = _tracer()
    params = tuple(inspect.signature(nfk.kummer._cell_records).parameters)
    assert params[: len(tracer._CELL_PARAMS)] == tracer._CELL_PARAMS


def test_box_points_counted_through_class_norm_int():
    # the tracer counts box points by patching NumberField.norm_int on the
    # class; a field that bound its own norm kernel per instance would read 0
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        K = build_field([-9, -1, 0, 1], ell=2, label="cubic-9")
        compute_class_group(K)
    finally:
        tracer.uninstall()
    assert tracer.counts["ideals.box_points"] > 0


class _FirstCell(Exception):
    pass


@pytest.mark.parametrize(
    "name, ell", [("q", 2), ("qi", 2), ("qm5", 2), ("cubic9", 2), ("zeta3", 3)]
)
def test_first_cell_is_unit_ideal(name, ell, request, monkeypatch):
    K = request.getfixturevalue(f"field_{name}")
    signature = inspect.signature(nfk.kummer._cell_records)

    def first_cell(*args, **kwargs):
        raise _FirstCell(signature.bind(*args, **kwargs).arguments)

    monkeypatch.setattr(nfk.kummer, "_cell_records", first_cell)
    with pytest.raises(_FirstCell) as caught:
        next(nfk.kummer.iter_extensions(K, ell, 100))
    cell = caught.value.args[0]
    assert cell["cls"] == 0
    for ideal in ("rep", "Q", "I"):
        assert cell[ideal].is_unit_ideal(), ideal


@pytest.mark.parametrize(
    "name, ell, X, options",
    [
        ("q", 2, 500, {}),
        ("qi", 2, 300, {}),
        ("qm5", 2, 300, {}),
        ("cubic9", 2, 60, {}),
        ("zeta3", 3, 20000, {}),
        ("qm5", 2, 60, {"order_by": "ell_free"}),
    ],
    ids=["q", "qi", "qm5", "cubic9", "zeta3", "qm5-ell_free"],
)
def test_traced_identities_hold(name, ell, X, options, request):
    # the identities the traced benchmark run checks:
    #   cells*|U/U^ell| = candidates + trivial
    #   candidates = records + norm_rejected + dedup_rejected
    K = request.getfixturevalue(f"field_{name}")
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        records = nfk.kummer.enumerate_extensions(K, ell, X, **options)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["kummer.records"] == len(records) > 0
    assert counts["kummer.cells"] > 0 and counts["kummer.trivial"] == 1
    if not options:  # ordered by N(Delta), some candidates exceed X
        assert counts["kummer.norm_rejected"] > 0
    if ell > 2:
        assert counts["kummer.dedup_rejected"] > 0
    for identity, sides in tracer.invariants().items():
        assert sides["lhs"] == sides["rhs"], identity


def test_traced_identities_hold_x4_7x2_13():
    # ell = 3 over x^4+7x^2+13 (h = 2, unit rank 1): orbit dedup moves power
    # roots to a nontrivial class representative and runs ClassGroup.generator
    # inside normalize_gamma, whose calls the tracer counts as dedup rejects
    K = build_field([13, 0, 7, 0, 1], ell=3, label="x^4+7x^2+13")
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        records = nfk.kummer.enumerate_extensions(K, 3, 200000)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["kummer.records"] == len(records) > 0
    assert counts["kummer.dedup_rejected"] > 0
    for identity, sides in tracer.invariants().items():
        assert sides["lhs"] == sides["rhs"], identity
