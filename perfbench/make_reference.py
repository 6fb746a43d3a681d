"""Regenerate reference.json: anchor and classes outputs for the reference seed.

    python3 perfbench/make_reference.py

Runs every op of both pools at the configured run length (about ten minutes
on 2 cores) and stores W_max, eta and each agent's avg, mechanism payoff and
final payoff.  The correctness gate compares later runs of that seed against
these values; regenerate only when a change is meant to move them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main() -> int:
    wl = run.import_workloads()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {}
    for name in ("anchor", "classes"):
        docs = wl.pipeline_docs(name, wl.REFERENCE_SEED, wl.pool_size(name, seconds),
                                smoke=False)
        workload = wl.PipelineWorkload(docs)
        rows = []
        for k in range(workload.n_ops):
            got = workload.run(k)
            if got["failed_invariants"]:
                raise SystemExit(f"{name} op {k}: {got['failed_invariants']}")
            rows.append({key: got[key] for key in ("welfare_max", "eta", "agents")})
            print(name, k, rows[-1]["welfare_max"], flush=True)
        doc[name] = rows
    wl.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
