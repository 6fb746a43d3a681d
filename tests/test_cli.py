import json
from pathlib import Path

import pytest

import pricechoose as pc
from pricechoose.cli import main
from pricechoose.report import load_report, run_experiment, structured_text

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "pricechoose" / "scenarios"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc():
    return {
        "schema": "pnc-scenario/v1",
        "name": "minimal",
        "states": ["a", "b"],
        "probs": [0.5, 0.5],
        "endowments": [[0.0, -1.0], [0.0, 0.0]],
        "utilities": [{"kind": "entropic", "gamma": 1.0},
                      {"kind": "entropic", "gamma": 2.0}],
        "grid": {"resolution": 4},
        "seed": 1,
    }


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def test_load_minimal_scenario(tmp_path):
    config = pc.load_scenario(write_scenario(tmp_path, minimal_doc()))
    assert config.name == "minimal"
    assert config.profile.n_agents == 2
    assert config.resolution == 4
    assert config.mode == "exact"


def test_prior_not_summing_is_named(tmp_path):
    doc = minimal_doc()
    doc["utilities"][1] = {"kind": "maxmin", "gamma": 1.0,
                           "priors": [[0.5, 0.5], [0.5, 0.4]]}
    with pytest.raises(pc.ValidationError) as err:
        pc.load_scenario(write_scenario(tmp_path, doc))
    assert any("priors[1]" in e and "sums to" in e for e in err.value.errors)


def test_missing_endowment_row_is_dimension_error(tmp_path):
    doc = minimal_doc()
    doc["endowments"] = [[0.0, -1.0]]
    with pytest.raises(pc.ValidationError) as err:
        pc.load_scenario(write_scenario(tmp_path, doc))
    assert any("at least two agents" in e for e in err.value.errors)


def test_all_errors_reported_at_once(tmp_path):
    doc = minimal_doc()
    doc["probs"] = [0.5, 0.6]
    doc["utilities"][0]["gamma"] = -1.0
    doc["grid"]["resolution"] = 0
    with pytest.raises(pc.ValidationError) as err:
        pc.load_scenario(write_scenario(tmp_path, doc))
    assert len(err.value.errors) >= 3


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(pc.ValidationError, match="invalid JSON"):
        pc.load_scenario(path)


def test_overrides_revalidate(tmp_path):
    config = pc.load_scenario(write_scenario(tmp_path, minimal_doc()))
    tweaked = config.with_overrides(resolution=6, mode="perturbed", seed=9)
    assert (tweaked.resolution, tweaked.mode, tweaked.seed) == (6, "perturbed", 9)
    with pytest.raises(pc.ValidationError):
        config.with_overrides(iota=2.0)


# ---------------------------------------------------------------------------
# run_experiment and reports
# ---------------------------------------------------------------------------

def test_run_experiment_deterministic(tmp_path):
    config = pc.load_scenario(write_scenario(tmp_path, minimal_doc()))
    a = run_experiment(config)
    b = run_experiment(config)
    assert structured_text(a) == structured_text(b)
    assert a["all_invariants_pass"]


def test_report_roundtrips_byte_identical(tmp_path):
    config = pc.load_scenario(write_scenario(tmp_path, minimal_doc()))
    report = run_experiment(config)
    pc.emit_report(report, tmp_path / "out")
    original = (tmp_path / "out" / "report.json").read_text()
    loaded = load_report(tmp_path / "out" / "report.json")
    assert structured_text(loaded) == original
    pc.emit_report(loaded, tmp_path / "out2")
    assert (tmp_path / "out2" / "report.json").read_text() == original
    assert (tmp_path / "out2" / "report.csv").read_text() == \
        (tmp_path / "out" / "report.csv").read_text()


def test_audit_only_report_omits_auction(tmp_path):
    config = pc.load_scenario(write_scenario(tmp_path, minimal_doc()))
    report = run_experiment(config, include_auction=False)
    assert "auction" not in report
    assert "audits" in report
    assert all(row["final_payoff"] is None for row in report["agents"])


def test_benchmark_report_matches_closed_form_weights():
    config = pc.load_scenario(FIXTURES / "hurricane_three_farmers.json")
    config = config.with_overrides(resolution=14)
    report = run_experiment(config)
    w = report["closed_form"]["shares"][0]
    assert w == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=1e-12)
    shares = report["welfare"]["shares"][0]
    assert shares == pytest.approx(w, abs=1e-2)
    assert len(report["agents"]) == 3
    assert report["all_invariants_pass"]


def test_empty_deviation_audit_still_valid(tmp_path):
    doc = minimal_doc()
    doc["audits"] = {"deviations": 0, "bid_points": 11}
    config = pc.load_scenario(write_scenario(tmp_path, doc))
    report = run_experiment(config)
    assert report["audits"]["first_mover"]["max_gain"] is None
    assert report["all_invariants_pass"]
    text = structured_text(report)
    assert json.loads(text)["audits"]["first_mover"]["num_deviations"] == 0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_validate_ok():
    assert main(["validate", "--scenario", "two-agent-hand"]) == 0


def test_cli_validate_reports_all_errors(tmp_path, capsys):
    doc = minimal_doc()
    doc["probs"] = [0.5, 0.6]
    doc["utilities"][0]["gamma"] = 0
    path = write_scenario(tmp_path, doc)
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "probs sum" in err and "gamma" in err


def test_cli_missing_scenario_is_validation_failure(capsys):
    assert main(["run", "--scenario", "no-such-scenario"]) == 2
    assert "neither a file" in capsys.readouterr().err


def test_cli_run_writes_reports(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", "two-agent-hand", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists() and (out / "report.csv").exists()
    report = load_report(out / "report.json")
    assert report["all_invariants_pass"]
    csv_rows = (out / "report.csv").read_text().strip().splitlines()
    assert csv_rows[0] == "agent,avg,underbar_avg,mechanism_payoff,final_payoff"
    assert len(csv_rows) == 1 + 2


def test_cli_run_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", "two-agent-hand", "--out", str(out1)]) == 0
    assert main(["run", "--scenario", "two-agent-hand", "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_cli_audit_omits_auction(tmp_path):
    out = tmp_path / "out"
    assert main(["audit", "--scenario", "two-agent-hand", "--out", str(out)]) == 0
    report = load_report(out / "report.json")
    assert "auction" not in report


def test_cli_run_perturbed_mode(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--scenario", "two-agent-hand", "--mode", "perturbed",
                 "--out", str(out)])
    assert code == 0
    report = load_report(out / "report.json")
    assert report["mechanism"]["mode"] == "perturbed"
    assert report["mechanism"]["chosen"] == report["mechanism"]["target"]


def test_cli_bench_resolution_override(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["bench", "--resolution", "14", "--out", str(out)])
    assert code == 0
    txt = capsys.readouterr().out
    assert "closed-form shares" in txt
    assert "share gap" in txt


def test_cli_bench_rejects_maxmin_before_running(tmp_path, monkeypatch, capsys):
    doc = minimal_doc()
    doc["utilities"][1] = {"kind": "maxmin", "gamma": 1.0,
                           "priors": [[0.5, 0.5], [0.4, 0.6]]}
    path = write_scenario(tmp_path, doc)

    def never(*args, **kwargs):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr("pricechoose.cli.run_experiment", never)
    code = main(["bench", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bench needs an all-entropic scenario with a closed form" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_tabular_only(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "two-agent-hand", "--out", str(out),
                 "--format", "tabular"]) == 0
    assert (out / "report.csv").exists()
    assert not (out / "report.json").exists()


def test_cli_uses_scenario_output_paths(tmp_path):
    doc = minimal_doc()
    doc["output"] = {"dir": str(tmp_path / "fromconfig"), "format": "structured"}
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", str(path)]) == 0
    assert (tmp_path / "fromconfig" / "report.json").exists()
    assert not (tmp_path / "fromconfig" / "report.csv").exists()
