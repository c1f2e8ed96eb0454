"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest menu bound (seed 0), untraced and traced,
for a one-second budget, so at the minimum sample count, and checks:

- exit code 0 and a last line with exactly the keys correct, attempted,
  failed and metrics, with correct true and nothing failed, so every output
  matched its committed reference;
- the metric names and units are the ones BENCHMARK.json lists for the mode;
- untraced: every sample was probed and has a positive host speed;
- traced: every bookkeeping invariant held in every traced sample, and the
  spans written out reproduce the self times the samples reported.

Last, it copies only BENCHMARK.json and perfbench/ to a scratch directory and
checks that the benchmark exits nonzero there without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracer import read_spans, self_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) else None


def check_run(workload: str, trace: int) -> list[str]:
    proc = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    res = result_line(proc.stdout)
    problems = []
    if res is None or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: last line is not the result object"]
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"{where}: correct={res['correct']} failed={res['failed']}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{where}: {k} = {v['value']!r}")
    problems += check_spans(workload) if trace else check_probes(workload)
    return problems


def check_probes(workload: str) -> list[str]:
    record = json.loads((HERE / "results" / f"{workload}-trace0.json").read_text())
    return [f"{workload} sample {k}: host speed {s['speed']} from {s['probes']} probes"
            for k, s in enumerate(record["samples"])
            if not (s["probes"] >= 1 and s["speed"] > 0)]


def check_spans(workload: str) -> list[str]:
    record = json.loads((HERE / "results" / f"{workload}-trace1.json").read_text())
    problems = []
    for k, sample in enumerate(record["samples"]):
        if not sample["traced"]:
            continue
        for name, sides in sample["invariants"].items():
            if sides["lhs"] != sides["rhs"]:
                problems.append(f"{workload} sample {k}: {name}: {sides}")
        names, cols = read_spans(HERE / "results" / "spans" / f"{workload}-sample{k}")
        self_s = self_seconds(cols["name"], cols["parent"], cols["start"], cols["end"], len(names))
        for nid, name in enumerate(names):
            reported = sample["layers"][f"{name}.self_s"]
            if not math.isclose(self_s[nid], reported, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{workload} sample {k}: {name} self time {self_s[nid]} "
                                f"from the span file, {reported} reported")
    return problems


def check_bare() -> list[str]:
    """Without the program's sources the benchmark must fail without a result."""
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "enum-cubic", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or result_line(proc.stdout) is not None:
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    if sorted(w["name"] for w in SPEC["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from perfbench/workloads.py")
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_bare()
    print(f"bare copy: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
