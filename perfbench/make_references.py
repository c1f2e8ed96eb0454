"""Regenerate perfbench/references.json from the nfk in src/.

    python3 perfbench/make_references.py

Runs every menu entry of every workload once and records each public call's
record count, the SHA-256 of its deterministic bytes and, for the count
check, the exact identity and the analytic constants with their tail bound.
The committed file pins the outputs the benchmark checks; regenerate it only
when a change is meant to alter those outputs.
"""

import json
import sys

from sample import HERE, import_nfk, run_workload
from workloads import WORKLOADS, bounds_key


def main() -> int:
    nfk = import_nfk()
    refs = {}
    for workload in WORKLOADS.values():
        refs[workload.name] = {}
        for bounds in workload.menu:
            out, _, outputs = run_workload(nfk, workload, bounds)
            if out["failed"]:
                print("\n".join(out["problems"]), file=sys.stderr)
                return 1
            steps = [o.as_dict() for o in outputs]
            refs[workload.name][bounds_key(bounds)] = steps
            print(workload.name, bounds_key(bounds), [s["records"] for s in steps], flush=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
