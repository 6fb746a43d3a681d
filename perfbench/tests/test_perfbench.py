"""The benchmark's own tests, at smoke size (bundled two-agent-hand, tiny grids).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

wl = run.import_workloads()
import spans  # noqa: E402

WORKLOADS = run.WORKLOADS
PRINTED = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
           "peak_rss_mb": "MB", "failed_ratio": "ratio"}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def smoke(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    lines, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1]
               if ln.split()[0] in PRINTED}
    assert printed == PRINTED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = smoke(workload, 1)[1]
    second = smoke(workload, 1)[1]
    units = spans.metric_names()
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["trace.ops"] >= 1


def test_tracer_restores_the_package():
    import pricechoose as pc
    from pricechoose import mechanism, report
    before = (pc.run_pnc, report.run_pnc, mechanism.run_pnc,
              pc.MenuGrid.__dict__["diameter"])
    tracer = spans.Tracer()
    tracer.install()
    assert report.run_pnc is not before[1] and report.run_pnc is mechanism.run_pnc
    tracer.uninstall()
    assert (pc.run_pnc, report.run_pnc, mechanism.run_pnc,
            pc.MenuGrid.__dict__["diameter"]) == before


def raising_doc():
    """Valid scenario whose grid is over its point budget: run_experiment raises."""
    doc = wl.bundled_doc("two_agent_hand")
    doc["grid"] = dict(doc["grid"], resolution=50, budget=10)
    return doc


def test_raising_op_is_counted_and_the_run_goes_on():
    hand = wl.bundled_doc("two_agent_hand")
    workload = wl.PipelineWorkload([hand, raising_doc(), hand])
    times, errors, peak_rss = run.run_ops(workload, count=3)
    assert len(times) == 3 and peak_rss > 0
    assert list(errors) == [1] and "GridBudgetError" in errors[1]


def test_failed_op_sets_failed_ratio_and_exit_code(monkeypatch, capsys):
    hand = wl.bundled_doc("two_agent_hand")
    monkeypatch.setattr(wl, "build", lambda *a, **k: wl.PipelineWorkload(
        [hand, raising_doc()]))
    code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--smoke"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert "failed_ratio 0.5000 ratio (1/2)" in out
    result = json.loads(out[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_reference_mismatch_is_a_failure():
    docs = wl.pipeline_docs("anchor", 3, 1, smoke=True)
    got = wl.PipelineWorkload(docs).run(0)
    ref = json.loads(json.dumps(got))
    assert wl.reference_mismatch(got, ref) is None
    ref["agents"][1][2] *= 1 + 1e-6
    workload = wl.PipelineWorkload(docs, references=[ref])
    assert "agents[1].final_payoff" in workload.check({0: got})[0]


def test_pareto_gate_catches_a_wrong_verdict():
    workload = wl.build("pareto", 2, 1, smoke=True)
    outcomes = {k: workload.run(k) for k in range(workload.n_ops)}
    assert workload.check(outcomes) == {}
    assert any(not o[0] for o in outcomes.values())
    optimal, index = outcomes[0]
    outcomes[0] = (not optimal, None if index is not None else 0)
    assert list(workload.check(outcomes)) == [0]


@pytest.mark.parametrize("workload", ["anchor", "classes", "sweep"])
def test_seed_fixes_pipeline_inputs(workload):
    same = [wl.pipeline_docs(workload, 5, 6, smoke=False) for _ in range(2)]
    other = wl.pipeline_docs(workload, 6, 6, smoke=False)
    assert same[0] == same[1]
    assert all(a != b for a, b in zip(same[0], other))
    # an op's inputs do not depend on the pool size
    assert wl.pipeline_docs(workload, 5, 2, smoke=False) == same[0][:2]


def test_no_two_ops_share_inputs():
    for workload in ("anchor", "classes", "sweep"):
        docs = wl.pipeline_docs(workload, 0, 40, smoke=False)
        keys = {json.dumps([d["probs"], d["endowments"]]) for d in docs}
        assert len(keys) == len(docs)


def test_seed_fixes_pareto_inputs():
    a, b = (wl.build("pareto", 5, 1, smoke=True) for _ in range(2))
    c = wl.build("pareto", 6, 1, smoke=True)
    assert (a.order == b.order).all() and (a.u_oracle == b.u_oracle).all()
    assert not (a.u_oracle.shape == c.u_oracle.shape
                and (a.u_oracle == c.u_oracle).all())


def test_missing_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "anchor", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
