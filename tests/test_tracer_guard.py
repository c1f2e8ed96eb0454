"""The benchmark's span tracer still finds every name it wraps in nfk.

perfbench/tracer.py is read and executed in a private namespace (nothing is
imported from or written under perfbench/), so a rename in nfk fails here
and not only in the benchmark's own smoke test.
"""

import inspect
import types
from pathlib import Path

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
