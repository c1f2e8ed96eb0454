"""Span tracer for the benchmark's traced run, installed from outside nfk.

Each traced layer entry point is wrapped where a module binds its name: every
attribute of an nfk module that holds the function is replaced, and for
methods the class attribute.  A wrapper records one span per call as
(name, start, end, parent, run id) in flat in-memory arrays; a generator
function gets one span per resumption, so the time a consumer spends between
records is not charged to it.  Self time is derived from the spans afterwards:
a span's duration minus the durations of its direct children.

A few hooks on the same wrappers count the enumeration's work (cells,
candidates, trivial and rejected candidates, records, box points) so that the
traced run can check the cell loop's bookkeeping identities.  The untraced run
never imports this module.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# Layer entry points, named <module>.<attribute path> inside the nfk package.
SPANS = (
    "number_field.build_field",
    "class_unit.compute_unit_group",
    "class_unit.compute_class_group",
    "density.density_report",
    "density.zeta_constants",
    "harness.run_count_asymptotic_check",
    "harness.run_equidistribution_experiment",
    "harness.report_serialize",
    "kummer.enumerate_extensions",
    "kummer.iter_extensions",
    "kummer._discriminant_split",
    "kummer.steinitz_class",
    "kummer.normalize_gamma",
    "ideals.canonical_generator",
    "ideals.principal_test_generator",
    "ideals.norm_matches",
    "ideals.FactoredIdeal.to_ideal",
    "ideals.split_prime",
    "ideals.decompose_parts",
    "exact_math.hnf_square",
    "class_unit.unit_coset_coords",
    "class_unit.ClassGroup.index_of",
    "class_unit.ClassGroup.class_of_prime",
    "abelian_groups.is_power_class",
    "abelian_groups.unit_group_mod_ideal",
)

COUNTERS = (
    "kummer.cells",
    "kummer.candidates",
    "kummer.trivial",
    "kummer.norm_rejected",
    "kummer.dedup_rejected",
    "kummer.records",
    "ideals.box_points",
)

# _cell_records(K, ell, X, order_by, ...): the hooks read these positionally
_CELL_PARAMS = ("K", "ell", "X", "order_by")


def _resolve(name: str):
    """(owner object, attribute, function) for a span name."""
    module, *path = name.split(".")
    owner = sys.modules[f"nfk.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self._nid = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.run_id = 0
        self._stack: list[int] = []
        self._open = [0] * len(self.names)  # open spans per name
        self._restore: list[tuple] = []
        self._cell_has_generator = False
        self._cell_X = 0
        self._cell_order_by = "disc"
        self._candidate = None  # (datum, already dedup-rejected)
        self.expected_coset_evals = 0  # sum over cells of |U/U^ell|

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ideals.canonical_generator": self._on_generator,
            "class_unit.unit_coset_coords": self._on_coset,
            "kummer._discriminant_split": self._on_split,
            "kummer.normalize_gamma": self._on_normalize,
        }
        for name in SPANS:
            owner, attr, fn = _resolve(name)
            nid = self._nid[name]
            if inspect.isgeneratorfunction(fn):  # iter_extensions, the only one
                wrapper = self._wrap_generator(nid, fn)
            else:
                wrapper = self._wrap_call(nid, fn, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._rebind(fn, wrapper)
        kummer = sys.modules["nfk.kummer"]
        params = tuple(inspect.signature(kummer._cell_records).parameters)[: len(_CELL_PARAMS)]
        if params != _CELL_PARAMS:
            raise RuntimeError(f"_cell_records parameters changed: {params}")
        self._patch(kummer, "_cell_records", self._wrap_cell(kummer._cell_records))
        NumberField = sys.modules["nfk.number_field"].NumberField
        self._patch(NumberField, "norm_int", self._wrap_norm_int(NumberField.norm_int))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper) -> None:
        """Replace fn in every nfk module namespace that binds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "nfk" and not modname.startswith("nfk."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_fns(self, nid: int):
        """(begin, end) closures for spans of one name, with everything hot bound locally."""
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, stack, open_ = self.span_start, self.span_end, self._stack, self._open
        clock = time.perf_counter

        def begin() -> int:
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(i)
            open_[nid] += 1
            starts.append(clock())
            return i

        def end(i: int) -> None:
            ends[i] = clock()
            stack.pop()
            open_[nid] -= 1

        return begin, end

    def _parent_name(self, i: int) -> str | None:
        p = self.span_parent[i]
        return self.names[self.span_name[p]] if p >= 0 else None

    def _wrap_call(self, nid: int, fn, hook):
        begin, end = self._span_fns(nid)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            i = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(i)
            if hook is not None and self._parent_name(i) == "kummer.iter_extensions":
                hook(args, result)
            return result

        return wrapper

    def _wrap_generator(self, nid: int, fn):
        begin, end = self._span_fns(nid)

        def wrapper(*args, **kwargs):
            self.calls[nid] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    i = begin()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end(i)
                    self.counts["kummer.records"] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def _wrap_cell(self, fn):
        def wrapper(*args, **kwargs):
            K, ell, X, order_by = args[:4]
            self.counts["kummer.cells"] += 1
            self.expected_coset_evals += ell ** (K.r1 + K.r2)
            self._cell_has_generator = False
            self._cell_X, self._cell_order_by = X, order_by
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_norm_int(self, fn):
        nm = self._nid["ideals.norm_matches"]
        open_, counts = self._open, self.counts

        def wrapper(field, coords):
            if open_[nm]:
                counts["ideals.box_points"] += 1
            return fn(field, coords)

        return wrapper

    # -- cell-loop hooks (called for direct children of iter_extensions) --

    def _on_generator(self, args, result) -> None:
        self._cell_has_generator = True

    def _on_coset(self, args, result) -> None:
        # a cell whose ideal is (1) has no generator search; its trivial
        # unit coset is skipped before _discriminant_split
        if not self._cell_has_generator and not any(result):
            self.counts["kummer.trivial"] += 1

    def _on_split(self, args, result) -> None:
        self.counts["kummer.candidates"] += 1
        delta, _lpart, fpart = result
        norm = delta.norm() if self._cell_order_by == "disc" else fpart.norm()
        if norm > self._cell_X:
            self.counts["kummer.norm_rejected"] += 1
        self._candidate = [args[0], False]

    def _on_normalize(self, args, result) -> None:
        datum, rejected = self._candidate
        if not rejected and result.key() < datum.key():
            self.counts["kummer.dedup_rejected"] += 1
            self._candidate[1] = True

    # -- results ----------------------------------------------------------

    def invariants(self) -> dict[str, dict]:
        """The cell loop's bookkeeping identities, from the counters alone."""
        c = self.counts
        first = {
            "lhs": self.expected_coset_evals,
            "rhs": c["kummer.candidates"] + c["kummer.trivial"],
        }
        second = {
            "lhs": c["kummer.candidates"],
            "rhs": c["kummer.records"] + c["kummer.norm_rejected"] + c["kummer.dedup_rejected"],
        }
        return {
            "cells*|U/U^ell| = candidates + trivial": first,
            "candidates = records + norm_rejected + dedup_rejected": second,
        }

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        self_s = self_seconds(self.span_name, self.span_parent, self.span_start,
                              self.span_end, len(self.names))
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out.update(self.counts)
        cand = self.counts["kummer.candidates"]
        out["kummer.yield_ratio"] = self.counts["kummer.records"] / cand if cand else 0.0
        return out

    def write(self, stem: Path) -> None:
        """Spans to <stem>.bin (columns name, parent, run as int32, then start,
        end as float64, each n long) with the layout in <stem>.json."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for col in (self.span_name, self.span_parent, self.span_run,
                        self.span_start, self.span_end):
                col.tofile(fh)
        meta = {"count": len(self.span_start), "names": self.names,
                "columns": [["name", "i"], ["parent", "i"], ["run", "i"],
                            ["start", "d"], ["end", "d"]]}
        stem.with_suffix(".json").write_text(json.dumps(meta) + "\n")


def self_seconds(name, parent, start, end, n_names: int) -> list[float]:
    """Per span name: total duration minus the time covered by direct child spans."""
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += dur[i]
    out = [0.0] * n_names
    for i in range(n):
        out[name[i]] += dur[i] - covered[i]
    return out


def read_spans(stem: Path) -> tuple[list[str], dict[str, array]]:
    """The spans written by Tracer.write, as (names, columns)."""
    meta = json.loads(stem.with_suffix(".json").read_text())
    cols = {}
    with open(stem.with_suffix(".bin"), "rb") as fh:
        for name, code in meta["columns"]:
            col = array(code)
            col.fromfile(fh, meta["count"])
            cols[name] = col
    return meta["names"], cols
