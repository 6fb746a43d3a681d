"""Repeat the benchmark and summarize it: medians, quartiles, spreads, trace.

    python3 perfbench/baseline.py --out perfbench/results/baseline.json

For each workload of BENCHMARK.json: untraced runs on seeds 0..RUNS-1 (seed 0
is the one whose anchor/classes outputs reference.json holds), then two traced
runs of seed 0, whose counts must repeat exactly.  Writes the summary as JSON
and as a Markdown table next to it.  Runs one benchmark process at a time.  With
``--compare EARLIER.json`` each median is also checked against the earlier
summary's: it may be worse by at most the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

RUNS = 10
TRACED_SEED = 0


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    path = next(ln.split(" ", 1)[1] for ln in lines if ln.startswith("results "))
    return {"result": result, "detail": json.loads((ROOT / path).read_text())}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def traced_layers(spans_module, detail: dict) -> dict:
    """Self-time shares over op time, by module and by span name."""
    spans = detail["spans"]
    by_name = spans_module.op_self_by_name(spans)
    by_module = spans_module.module_self_times(by_name)
    total = sum(detail["op_seconds"])
    own = spans_module.self_times(spans)
    audit_distances = 0.0
    for span, t in zip(spans, own):
        if span[0] != "menu.distances_to" or span[4] is None:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != "mechanism.audit_first_mover_bound":
            parent = spans[parent][3]
        if parent is not None:
            audit_distances += t
    top = max(by_name, key=by_name.get)
    return {
        "op_seconds_total": total,
        "module_share": {k: v / total for k, v in sorted(by_module.items(),
                                                         key=lambda kv: -kv[1])},
        "span_share": {k: v / total for k, v in sorted(by_name.items(),
                                                       key=lambda kv: -kv[1])},
        "top_span": top,
        "distances_to_under_audit_share": audit_distances / total,
    }


def tracing_overhead(traced_times, untraced_runs) -> tuple[float, int]:
    """Traced op median over the untraced runs' median op time, compared on
    the ops both reach (the first m); machine drift between runs enters too."""
    m = min([len(traced_times)] + [len(t) for t in untraced_runs])
    base = statistics.median(statistics.median(t[:m]) for t in untraced_runs)
    return statistics.median(traced_times[:m]) / base - 1, m


def workload_summary(spans_module, bounds, workload, why, seconds) -> dict:
    untraced = [bench(workload, seed, seconds, 0) for seed in range(RUNS)]
    for r in untraced:
        print(workload, r["detail"]["seed"], json.dumps(r["result"]["metrics"]),
              flush=True)
    traced = [bench(workload, TRACED_SEED, seconds, 1) for _ in range(2)]
    metrics = {}
    for name in bounds:
        s = summary([r["result"]["metrics"][name]["value"] for r in untraced])
        s["bound"] = bounds[name]
        s["within_bound"] = s["spread"] <= bounds[name]
        metrics[name] = s
    wall = {name: summary([r["detail"]["wall"][name] for r in untraced])
            for name in untraced[0]["detail"]["wall"]}
    tails = [r["detail"]["op_tail_s"] for r in untraced]
    counts = [{k: v["value"] for k, v in t["result"]["metrics"].items()
               if v["unit"] != "s"} for t in traced]
    overhead, m = tracing_overhead(traced[0]["detail"]["op_seconds"],
                                   [r["detail"]["op_seconds"] for r in untraced])
    return {
        "why": why,
        "end_to_end": metrics,
        "wall": wall,
        "speed_factor": summary([r["detail"]["speed_factor"] for r in untraced]),
        "op_tail_s": None if None in tails else summary([t["value"] for t in tails])
        | {"percentiles": [t["percentile"] for t in tails]},
        "op_counts": [r["detail"]["op_count"] for r in untraced],
        "failed": sum(r["result"]["failed"] for r in untraced),
        "attempted": sum(r["result"]["attempted"] for r in untraced),
        "traced": {
            "seed": TRACED_SEED,
            "per_layer": traced[0]["result"]["metrics"],
            "counts_repeat_exactly": counts[0] == counts[1],
            "tracing_overhead": overhead,
            "overhead_ops_compared": m,
            **traced_layers(spans_module, traced[0]["detail"]),
        },
        "machine": untraced[0]["detail"]["machine"],
    }


def worsening(new: float, old: float, lower_is_better: bool) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (new - old) / old if lower_is_better else (old - new) / old


def spreads(doc: dict) -> dict:
    """The run-to-run spread this machine showed, per workload and metric."""
    return {w: {n: m["spread"] for n, m in s["end_to_end"].items()}
            for w, s in doc["workloads"].items()}


def markdown(doc: dict) -> str:
    out = ["# Benchmark baseline", "",
           f"Machine: `{json.dumps(doc['machine'])}`", "",
           f"{doc['runs']} untraced runs per workload (seeds 0..{doc['runs'] - 1}), "
           f"{doc['seconds']} s of ops each; spread = (q3 - q1) / median.  Gated "
           "time metrics are at reference machine speed (wall x speed factor); "
           "the wall rows are the same runs unscaled.", "",
           "| workload | metric | median | q1 | q3 | spread | worse than earlier | bound |",
           "|---|---|---|---|---|---|---|---|"]
    for w, s in doc["workloads"].items():
        for name, m in s["end_to_end"].items():
            shift = m.get("worse_than_earlier")
            shift = "" if shift is None else f"{shift:+.3f}"
            out.append(f"| {w} | {name} | {m['median']:.6g} | {m['q1']:.6g} | "
                       f"{m['q3']:.6g} | {m['spread']:.3f} | {shift} | {m['bound']} |")
        for name, m in s["wall"].items():
            out.append(f"| {w} | {name} (wall) | {m['median']:.6g} | {m['q1']:.6g} | "
                       f"{m['q3']:.6g} | {m['spread']:.3f} | | not gated |")
        f = s["speed_factor"]
        out.append(f"| {w} | speed factor | {f['median']:.4g} | {f['q1']:.4g} | "
                   f"{f['q3']:.4g} | {f['spread']:.3f} | | |")
        t = s["op_tail_s"]
        if t:
            out.append(f"| {w} | op_tail_s (p{min(t['percentiles']):.1f}+) | "
                       f"{t['median']:.6g} | {t['q1']:.6g} | {t['q3']:.6g} | "
                       f"{t['spread']:.3f} | | not gated |")
        out.append(f"| {w} | failed_ratio | {s['failed']}/{s['attempted']} | | | | | not gated |")
    out += ["", "## Traced run (seed 0): self time as a share of op time", "",
            "Tracing overhead compares runs made minutes apart, so machine drift "
            "enters it; an overhead smaller than the spread above is unresolved.", ""]
    for w, s in doc["workloads"].items():
        t = s["traced"]
        mods = ", ".join(f"{k} {v:.1%}" for k, v in t["module_share"].items())
        spans = ", ".join(f"{k} {v:.1%}" for k, v in list(t["span_share"].items())[:5])
        out += [f"**{w}** — top span `{t['top_span']}`; tracing overhead "
                f"{t['tracing_overhead']:+.1%} on op p50 (first {t['overhead_ops_compared']} ops, "
                f"against the median of the untraced runs); "
                f"counts repeat exactly: {t['counts_repeat_exactly']}; "
                f"distances_to under the first-mover audit {t['distances_to_under_audit_share']:.1%}.",
                f"- modules: {mods}", f"- spans: {spans}", ""]
        rows = [f"{k}={v['value']:.6g}" for k, v in t["per_layer"].items()
                if v["value"]]
        out += ["- nonzero per-layer metrics: " + ", ".join(rows), ""]
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--compare", type=Path,
                   help="an earlier summary: flag medians worse by more than the bound")
    args = p.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in config["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else None
    import run
    run.import_workloads()
    import spans
    doc = {"runs": RUNS, "seconds": config["run_seconds"], "workloads": {}}
    for w in config["workloads"]:
        name = w["name"]
        s = workload_summary(spans, bounds, name, w["why"], config["run_seconds"])
        if earlier and name in earlier["workloads"]:
            for metric, m in s["end_to_end"].items():
                m["worse_than_earlier"] = worsening(
                    m["median"], earlier["workloads"][name]["end_to_end"][metric]["median"],
                    lower_is_better[metric])
                m["within_bound"] &= m["worse_than_earlier"] <= bounds[metric]
        doc["workloads"][name] = s
        doc["machine"] = s.pop("machine") | {"observed_spread": spreads(doc)}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1))
        args.out.with_suffix(".md").write_text(markdown(doc))
    bad = [(w, n) for w, s in doc["workloads"].items()
           for n, m in s["end_to_end"].items() if not m["within_bound"]]
    print(args.out.with_suffix(".md").read_text())
    print("spreads or median shifts over bound:", bad or "none")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
