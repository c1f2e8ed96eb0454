"""The benchmark's span tracer still finds every name it wraps in nfk.

perfbench/tracer.py is read and executed in a private namespace (nothing is
imported from or written under perfbench/), so a rename in nfk fails here
and not only in the benchmark's own smoke test.  The tracer also counts
trivial skips from the enumeration's first cell, which must be the unit
ideal.
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
