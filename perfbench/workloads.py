"""The benchmark's workloads: fields, seeded bound menus, public calls, output checks.

A workload is a fixed sequence of calls into nfk's public functions.  Each
one runs on fresh fields: set-up first (build_field, compute_unit_group,
compute_class_group, density_report for every field, the cost a user pays
for a new field before its first record), then the timed run.  Both are
timed with the clock the caller passes, so that a probe can leave itself out.  The seed picks one entry
of the workload's bound menu; the program only ever receives the bounds.
Menu entries sit within a few per cent of each other so that the amount of
work, and hence the timings, barely depend on the seed, while each entry
still has its own committed reference outputs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

# label -> (ascending monic coefficients, ell)
FIELDS = {
    "Q": ([0, 1], 2),
    "Q(i)": ([1, 0, 1], 2),
    "Q(sqrt(-5))": ([5, 0, 1], 2),
    "cubic-9": ([-9, -1, 0, 1], 2),
    "Q(zeta3)": ([1, 1, 1], 3),
}


@dataclass(frozen=True)
class Workload:
    name: str
    # (public call, field label) per step: "count", "experiment" or "enumerate"
    steps: tuple[tuple[str, str], ...]
    menu: tuple[tuple[int, ...], ...]  # ascending; one bound per step in each entry

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.steps)


# Each workload loads a different layer (the reasons are in BENCHMARK.json):
# count-q-qi the kummer cell loop and the Euler product, experiment-qm5 the
# class group lookups and the harness tally, enum-cubic the box-search
# principal test, enum-zeta3-l3 the ell = 3 orbit dedup.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-q-qi", (("count", "Q"), ("count", "Q(i)")),
            ((5000, 1000), (5025, 1005), (5050, 1010), (5075, 1015), (5100, 1020)),
        ),
        Workload(
            "experiment-qm5", (("experiment", "Q(sqrt(-5))"),),
            ((3000,), (3015,), (3030,), (3045,), (3060,)),
        ),
        Workload(
            "enum-cubic", (("enumerate", "cubic-9"),),
            ((33,), (34,), (35,), (36,)),
        ),
        Workload(
            "enum-zeta3-l3", (("enumerate", "Q(zeta3)"),),
            ((500000,), (502500,), (505000,), (507500,), (510000,)),
        ),
    )
}


def menu_entry(workload: Workload, seed: int) -> tuple[int, ...]:
    return workload.menu[seed % len(workload.menu)]


def bounds_key(bounds: tuple[int, ...]) -> str:
    return ",".join(str(b) for b in bounds)


@dataclass
class StepOutput:
    """What one public call produced, reduced to what the references pin."""

    label: str
    X: int
    records: int
    sha256: str
    values: dict = field(default_factory=dict)  # exact strings and tolerance-checked floats

    def as_dict(self) -> dict:
        return {"label": self.label, "X": self.X, "records": self.records,
                "sha256": self.sha256, **self.values}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_fields(nfk, workload: Workload, clock=time.perf_counter) -> tuple[list, float]:
    """Fresh fields with their set-up done; returns (fields, set-up seconds)."""
    from nfk.class_unit import compute_class_group, compute_unit_group

    out = []
    t0 = clock()
    for label in workload.fields:
        poly, ell = FIELDS[label]
        K = nfk.build_field(poly, ell=ell, label=label)
        compute_unit_group(K)
        compute_class_group(K)
        nfk.density_report(K, ell)
        out.append(K)
    return out, clock() - t0


def timed_call(nfk, kind: str, K, X: int, clock=time.perf_counter):
    """The workload's public call on one field, serialization included.

    Returns (seconds, raw result); the digest is taken afterwards, untimed.
    """
    from nfk.class_unit import compute_class_group
    from nfk.harness import count_check_json_dict
    from nfk.kummer import record_json_dict

    t0 = clock()
    if kind == "count":
        check = nfk.run_count_asymptotic_check(K, X)
        result = (check, json.dumps(count_check_json_dict(check)))
    elif kind == "experiment":
        report = nfk.run_equidistribution_experiment(K, K.ell, X)
        result = (report, nfk.report_serialize(report, "json"))
    else:
        cg = compute_class_group(K)
        records = nfk.enumerate_extensions(K, K.ell, X)
        lines = [json.dumps(record_json_dict(r, cg)) + "\n" for r in records]
        result = (records, "".join(lines).encode())
    return clock() - t0, result


def step_output(nfk, kind: str, K, X: int, result) -> StepOutput:
    """Reduce a call's result to counts, a digest of its exact bytes and checked values."""
    if kind == "count":
        check, _ = result
        zc = nfk.zeta_constants(K)  # cached on the field by the timed call
        exact = {
            "field": check.field_label,
            "X": check.X,
            "count": check.count,
            "identity": str(check.identity),
            "identity_expected": str(check.identity_expected),
        }
        values = {
            "identity": exact["identity"],
            "identity_expected": exact["identity_expected"],
            "eq8_constant": check.eq8_constant,
            "product_constant": check.product_constant,
            "tail_bound": zc.tail_bound,
        }
        digest = _sha(json.dumps(exact, sort_keys=True).encode())
        return StepOutput(K.label, X, check.count, digest, values)
    if kind == "experiment":
        report, data = result
        return StepOutput(K.label, X, report.total, _sha(data))
    records, data = result
    return StepOutput(K.label, X, len(records), _sha(data))


# relative slack on top of the stated tail bound: the floats of one code
# version are reproducible, but a change may reorder the products
_FLOAT_SLACK = 1e-12


def check_step(kind: str, K, got: StepOutput, want: dict) -> list[str]:
    """Problems with one step's output against its committed reference."""
    problems = []
    for key in ("label", "X", "records", "sha256"):
        if got.as_dict()[key] != want[key]:
            problems.append(f"{got.label}: {key} {got.as_dict()[key]!r} != reference {want[key]!r}")
    if kind == "count":
        v = got.values
        if Fraction(v["identity"]) != Fraction(1, 2**K.r2) or v["identity"] != v["identity_expected"]:
            problems.append(f"{got.label}: identity {v['identity']} != 1/2^r2")
        tol = want["tail_bound"] + _FLOAT_SLACK
        for key in ("eq8_constant", "product_constant"):
            if abs(v[key] - want[key]) > tol * abs(want[key]):
                problems.append(f"{got.label}: {key} {v[key]!r} differs from {want[key]!r} "
                                f"by more than the tail bound {tol:.1e}")
    return problems
