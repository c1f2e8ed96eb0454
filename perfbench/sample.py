"""One benchmark run's worker: repeat one workload in this fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N --seconds S [--trace SPANS_DIR]

Imports nfk from the checkout's src/ and takes samples one after another
until S seconds have passed (at least MIN_SAMPLES after the warm-up).  A
sample builds the workload's fields afresh (timed as set-up), so nfk's
per-field caches start empty, makes the workload's public calls (timed as
the run) and checks every output against perfbench/references.json.  The
first sample warms the interpreter (imports, sympy's process-wide caches)
and is marked as the warm-up; it is checked but not summarized.

With --trace, every second sample after the warm-up is traced: its layer
spans are recorded, written to SPANS_DIR/<workload>-sample<k>.{bin,json} and
summarized in the sample as per-layer metrics and bookkeeping invariants.
The other samples run without any wrapper installed.

Prints one JSON line: the samples and the process's peak resident memory.
Exit codes: 0 the samples ran (their outputs may still have failed their
checks, which the samples report), 3 nfk could not be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXIT_NO_PROGRAM = 3
MIN_SAMPLES = 3  # summarized samples, besides the warm-up; a traced run takes twice as many

sys.path.insert(0, str(HERE))
from probe import SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, bounds_key, build_fields, check_step, menu_entry, step_output, timed_call,
)


def import_nfk():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nfk
    except ImportError as exc:
        print(f"cannot import nfk from {src}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if not Path(nfk.__file__).resolve().is_relative_to(src):
        print(f"nfk imported from {nfk.__file__}, not from {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return nfk


def run_workload(nfk, workload, bounds, tracer=None, probe=None) -> tuple[dict, list, list]:
    """Set up and run once: (summary, fields, one StepOutput or None per call).

    Times are wall seconds, less the probe's own time; with a probe, the
    summary also holds the host's mean speed over the set-up and run.
    The outputs are reduced to StepOutputs after the timed calls."""
    out = {"bounds": list(bounds), "attempted": 0, "failed": 0, "problems": [],
           "setup_s": None, "run_s": 0.0, "speed": None, "probes": 0}
    clock = probe.clock if probe is not None else time.perf_counter
    if tracer is not None:
        tracer.install()
    if probe is not None:
        probe.start()
    try:
        fields, out["setup_s"] = build_fields(nfk, workload, clock)
        results = []
        for step, ((kind, _), K, X) in enumerate(zip(workload.steps, fields, bounds), start=1):
            if tracer is not None:
                tracer.run_id = step
            out["attempted"] += 1
            try:
                seconds, result = timed_call(nfk, kind, K, X, clock)
            except Exception:
                out["failed"] += 1
                out["problems"].append(traceback.format_exc())
                results.append(None)
                continue
            out["run_s"] += seconds
            results.append(result)
    finally:
        if probe is not None:
            out["speed"], out["probes"] = probe.stop()
        if tracer is not None:
            tracer.uninstall()
    outputs = [None if r is None else step_output(nfk, kind, K, X, r)
               for (kind, _), K, X, r in zip(workload.steps, fields, bounds, results)]
    return out, fields, outputs


def run_sample(nfk, workload, bounds, want: list, trace_stem: Path | None, probe) -> dict:
    """One checked sample; traced when trace_stem is given, probed when probe is."""
    tracer = None
    if trace_stem is not None:
        from tracer import Tracer

        tracer = Tracer()
    out, fields, outputs = run_workload(nfk, workload, bounds, tracer, probe)
    out["records"] = 0
    out["steps"] = []
    for (kind, _), K, got, ref in zip(workload.steps, fields, outputs, want):
        if got is None:
            continue
        out["steps"].append(got.as_dict())
        out["records"] += got.records
        problems = check_step(kind, K, got, ref)
        if problems:
            out["failed"] += 1
            out["problems"].extend(problems)

    if tracer is not None:
        tracer.write(trace_stem)
        out["layers"] = tracer.layer_metrics()
        out["invariants"] = tracer.invariants()
        out["invariants"]["kummer.records = records emitted"] = {
            "lhs": out["layers"]["kummer.records"], "rhs": out["records"]}
    return out


def run_samples(workload_name: str, seed: int, seconds: float, spans_dir: Path | None) -> dict:
    nfk = import_nfk()
    workload = WORKLOADS[workload_name]
    bounds = menu_entry(workload, seed)
    refs = json.loads((HERE / "references.json").read_text())
    want = refs[workload.name][bounds_key(bounds)]

    minimum = 1 + (2 * MIN_SAMPLES if spans_dir is not None else MIN_SAMPLES)
    # the end-to-end times are probed; the traced run reports wall time, unprobed
    probe = SpeedProbe() if spans_dir is None else None
    samples = []
    t0 = time.monotonic()
    last = 0.0  # the previous sample's length: a new one starts only if it should end in time
    while len(samples) < minimum or time.monotonic() - t0 + last <= seconds:
        k = len(samples)
        traced = spans_dir is not None and k > 0 and k % 2 == 0
        stem = spans_dir / f"{workload.name}-sample{k}" if traced else None
        start = time.monotonic()
        sample = run_sample(nfk, workload, bounds, want, stem, probe)
        last = time.monotonic() - start
        samples.append({"warmup": k == 0, "traced": traced, **sample})
    return {"samples": samples,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=Path, default=None, metavar="SPANS_DIR")
    args = ap.parse_args(argv)
    print(json.dumps(run_samples(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
