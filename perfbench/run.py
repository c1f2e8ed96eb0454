"""The nfk benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run is one fresh single-threaded interpreter (perfbench/sample.py) that
repeats the workload for S seconds, one sample at a time, each sample on
freshly built fields; its first sample only warms the interpreter.  The seed
picks the workload's bounds from its committed menu.  Every output is
checked against perfbench/references.json.

--trace 0 reports the end-to-end metrics: medians over the samples of
set-up time, run time and records per second, and the run's peak resident
memory.  Times are reference seconds: wall time scaled by the host's speed
during the sample, which perfbench/probe.py measures, so that the host's
speed phases do not read as changes of the program.  The wall times are
printed beside them.  --trace 1 alternates untraced and traced samples and reports the
medians of the traced ones' per-layer metrics (span calls and self time,
enumeration counters) plus trace.overhead_s, the traced minus the untraced
median run time; a broken bookkeeping invariant fails the run.
--workload all prints the end-to-end table of every workload.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit codes: 0 all outputs correct, 1 some output or
invariant failed, 2 nfk is missing from the checkout (no result printed).
Everything written goes under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# the worker gets this long past --seconds to finish its last sample
WORKER_GRACE_S = 100
EXIT_NO_PROGRAM = 3  # sample.py could not import nfk

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, bounds_key, menu_entry  # noqa: E402


class NoProgram(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, traced: bool) -> tuple[list[dict], int]:
    """The run's samples, in order, and its peak resident memory in KiB."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd += ["--trace", str(RESULTS / "spans")]
    # a fixed hash seed makes set and dict orders, and so the work, the same in every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    steps = len(WORKLOADS[workload].steps)
    timeout = seconds + WORKER_GRACE_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        problem = f"worker timed out after {timeout:g} s"
        return [{"warmup": False, "traced": False, "attempted": steps, "failed": steps,
                 "crashed": True, "problems": [problem]}], 0
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    if proc.returncode != 0:
        return [{"warmup": False, "traced": False, "attempted": steps, "failed": steps,
                 "crashed": True, "problems": [proc.stderr[-4000:]]}], 0
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["samples"], out["peak_rss_kb"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# A metric: (value, unit, how the value summarizes the samples, the samples).
Metric = tuple[float, str, str, list[float]]


def summarized(samples: list[dict]) -> list[dict]:
    return [s for s in samples if not s["warmup"] and not s.get("crashed")]


def end_to_end(samples: list[dict], peak_rss_kb: int) -> dict[str, Metric]:
    """Medians of the probed samples' times in reference seconds (wall x speed)."""
    ok = [s for s in summarized(samples) if s["run_s"] > 0]
    per = {
        "setup_s": ("s", [s["setup_s"] * s["speed"] for s in ok]),
        "run_s": ("s", [s["run_s"] * s["speed"] for s in ok]),
        "records_per_s": ("1/s", [s["records"] / (s["run_s"] * s["speed"]) for s in ok]),
    }
    out = {k: (statistics.median(v), unit, "median", v) for k, (unit, v) in per.items() if v}
    if ok:
        out["peak_rss_mb"] = (peak_rss_kb / 1024, "MB", "of the run's interpreter", [])
    return out


def wall_clock(samples: list[dict]) -> dict[str, Metric]:
    """The unscaled wall times and the host speed, printed beside the metrics."""
    ok = [s for s in summarized(samples) if s["run_s"] > 0]
    per = {"wall setup_s": ("s", [s["setup_s"] for s in ok]),
           "wall run_s": ("s", [s["run_s"] for s in ok]),
           "host speed": ("x", [s["speed"] for s in ok])}
    return {k: (statistics.median(v), unit, "median", v) for k, (unit, v) in per.items() if v}


def per_layer(samples: list[dict]) -> dict[str, Metric]:
    traced = [s for s in summarized(samples) if s["traced"]]
    plain = [s for s in summarized(samples) if not s["traced"]]
    out = {}
    if not traced:
        return out
    for key in traced[0]["layers"]:
        values = [s["layers"][key] for s in traced]
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith("_ratio") else "count"
        out[key] = (statistics.median(values), unit, "median", values)
    if plain:
        overhead = (statistics.median(s["run_s"] for s in traced)
                    - statistics.median(s["run_s"] for s in plain))
        out["trace.overhead_s"] = (overhead, "s", "traced minus untraced median run_s", [])
    return out


def broken_invariants(samples: list[dict]) -> dict[int, list[str]]:
    """Sample index -> the bookkeeping identities it broke."""
    out = {}
    for k, s in enumerate(samples):
        broken = [f"sample {k}: {name}: {sides['lhs']} != {sides['rhs']}"
                  for name, sides in (s.get("invariants") or {}).items()
                  if sides["lhs"] != sides["rhs"]]
        if broken:
            out[k] = broken
    return out


def provenance() -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def describe(name: str, metric: Metric) -> str:
    value, unit, how, values = metric
    line = f"{name:<48} {value:>12.6g} {unit:<6} {how}"
    if values:
        q1, q3 = quartiles(values)
        line += f" of {len(values)} samples (quartiles {q1:.6g} .. {q3:.6g})"
    return line


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 prov: dict) -> tuple[dict, int]:
    """Print the human-readable lines, write the results file; return (result, exit code)."""
    samples, peak_rss_kb = run_worker(workload, seed, seconds, traced)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    problems = [p for s in samples for p in s.get("problems", [])]
    if traced:
        broken = broken_invariants(samples)
        attempted += sum(1 for s in samples if s["traced"])  # one invariant check per traced sample
        failed += len(broken)
        problems += [p for lines in broken.values() for p in lines]
        metrics = per_layer(samples)
    else:
        metrics = end_to_end(samples, peak_rss_kb)

    print(f"workload {workload}  seed {seed}  bounds "
          f"{bounds_key(menu_entry(WORKLOADS[workload], seed))}  samples {len(samples)}"
          f" (the first one warm-up{', then untraced and traced in turn' if traced else ''})")
    for name, metric in metrics.items():
        print(describe(name, metric))
    if not traced:
        for name, metric in wall_clock(samples).items():
            print(describe(name, metric))
    print(f"{'fail_ratio':<48} {failed / attempted:>12.6g} -      {failed} of {attempted} "
          f"operations failed")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m[0], "unit": m[1]} for k, m in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
              "provenance": prov, "peak_rss_kb": peak_rss_kb, "samples": samples,
              "result": result}
    (RESULTS / f"{workload}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nfk" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'nfk'} is missing", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance()
    print("provenance", json.dumps(prov))
    code = 0
    try:
        for name in names:
            result, rc = run_workload(name, args.seed, args.seconds, bool(args.trace), prov)
            code = max(code, rc)
    except NoProgram as exc:
        print(f"no program to benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
