import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_minimal_scenario_takes_the_library_defaults():
    config = pc.scenario_from_dict(minimal_doc())
    assert config.budget == pc.menu.DEFAULT_GRID_BUDGET
    assert config.iota == pc.mechanism.DEFAULT_IOTA


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


def _maxmin(priors, **extra):
    return {"kind": "maxmin", "gamma": 1.0, "priors": priors, **extra}


def _set_utility(i, spec):
    return lambda doc: doc["utilities"].__setitem__(i, spec)


def _several_rules(doc):
    doc["probs"] = [0.5, 0.6]
    doc["utilities"][0]["gamma"] = 0
    doc["utilities"][1] = _maxmin([[0.5, 0.5], [0.5, 0.4]], gamma=-1.0)


# One bad document per input rule of the probability space and the
# utilities, and the exact error list loading it gives.
RULE_ERRORS = {
    "unique states": (lambda doc: doc.update(states=["a", "a"]),
                      ["state identifiers are not unique"]),
    "positive probs": (lambda doc: doc.update(probs=[1.0, 0.0]),
                       ["probs must be strictly positive (drop zero-probability states)"]),
    "probs sum": (lambda doc: doc.update(probs=[0.5, 0.6]),
                  ["probs sum to 1.1, not 1"]),
    "entropic gamma": (lambda doc: doc["utilities"][0].update(gamma=0),
                       ["utilities[0]: gamma must be a positive number, got 0.0"]),
    "maxmin gamma": (_set_utility(1, _maxmin([[0.5, 0.5]], gamma=-2.0)),
                     ["utilities[1]: gamma must be a positive number, got -2.0"]),
    "positive priors": (_set_utility(1, _maxmin([[0.5, 0.5], [1.0, 0.0]])),
                        ["utilities[1]: priors[1] must be strictly positive"]),
    "priors sum": (_set_utility(1, _maxmin([[0.5, 0.5], [0.5, 0.4]])),
                   ["utilities[1]: priors[1] sums to 0.9, not 1"]),
    "reference among priors": (
        _set_utility(1, _maxmin([[0.4, 0.6]])),
        ["utilities[1]: the reference probability must be one of the priors"]),
    "lip_bound": (_set_utility(1, _maxmin([[0.5, 0.5]], lip_bound=0)),
                  ["utilities[1]: lip_bound must be positive when given "
                   "(a declared Lipschitz bound)"]),
    "several rules": (_several_rules, [
        "probs sum to 1.1, not 1",
        "utilities[0]: gamma must be a positive number, got 0.0",
        "utilities[1]: priors[1] sums to 0.9, not 1",
        "utilities[1]: the reference probability must be one of the priors",
        "utilities[1]: gamma must be a positive number, got -1.0"]),
}


@pytest.mark.parametrize("rule", list(RULE_ERRORS))
def test_each_input_rule_gives_its_exact_errors(rule):
    setter, expected = RULE_ERRORS[rule]
    doc = minimal_doc()
    setter(doc)
    with pytest.raises(pc.ValidationError) as err:
        pc.scenario_from_dict(doc, source="doc")
    assert err.value.errors == [f"doc: {e}" for e in expected]


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


@pytest.mark.parametrize("section", ["grid", "mechanism", "output"])
def test_non_object_section_is_validation_error(tmp_path, capsys, section):
    doc = minimal_doc()
    doc[section] = None
    path = write_scenario(tmp_path, doc)
    with pytest.raises(pc.ValidationError) as err:
        pc.load_scenario(path)
    assert f"{path}: {section} must be an object" in err.value.errors
    assert main(["validate", "--scenario", str(path)]) == 2
    assert f"{section} must be an object" in capsys.readouterr().err


def test_negative_seed_is_validation_error(tmp_path, capsys):
    doc = minimal_doc()
    doc["seed"] = -1
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert main(["run", "--scenario", "two-agent-hand", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def _set_gamma(doc, v):
    doc["utilities"][0]["gamma"] = v


def _set_prior_entry(doc, v):
    doc["utilities"][1] = {"kind": "maxmin", "gamma": 1.0,
                           "priors": [[0.5, 0.5], [v, 0.5]]}


def _set_lip_bound(doc, v):
    doc["utilities"][1] = {"kind": "maxmin", "gamma": 1.0,
                           "priors": [[0.5, 0.5], [0.4, 0.6]], "lip_bound": v}


def _set_probs(doc, v):
    doc["probs"] = [v, 0.5]


def _set_endowment(doc, v):
    doc["endowments"][0] = [0.0, v]


NON_FINITE_FIELDS = {
    "gamma": (_set_gamma, "utilities[0]: gamma must be a positive number, got {v!r}"),
    "lipschitz_cap": (lambda doc, v: doc.update(mechanism={"lipschitz_cap": v}),
                      "mechanism.lipschitz_cap must be positive when given, got {v!r}"),
    "epsilon": (lambda doc, v: doc.update(mechanism={"mode": "perturbed", "epsilon": v}),
                "mechanism.epsilon must be positive when given, got {v!r}"),
    "prior": (_set_prior_entry, "utilities[1].priors[1] has non-numeric entries at [0]"),
    "lip_bound": (_set_lip_bound, "utilities[1]: lip_bound must be positive when given"),
    "probs": (_set_probs, "probs has non-numeric entries at [0]"),
    "endowments": (_set_endowment, "endowments[0] has non-numeric entries at [1]"),
}


@pytest.mark.parametrize("value", [math.inf, math.nan, 10**400],
                         ids=["Infinity", "NaN", "int-beyond-float"])
@pytest.mark.parametrize("field", list(NON_FINITE_FIELDS))
def test_non_finite_number_is_validation_error(tmp_path, capsys, field, value):
    setter, message = NON_FINITE_FIELDS[field]
    doc = minimal_doc()
    setter(doc, value)
    path = write_scenario(tmp_path, doc)
    assert json.dumps(value) in path.read_text()
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"validation error: {path}: {message.format(v=value)}" in err
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("name", ["hurricane_three_farmers", "two_agent_hand"])
def test_one_prior_maxmin_specs_report_as_entropic(name):
    """An entropic agent is the max-min agent over {P}: spelling every spec
    as a one-prior max-min spec moves only the echoed specs."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    entropic = run_experiment(pc.scenario_from_dict(doc))
    doc["utilities"] = [{"kind": "maxmin", "gamma": u["gamma"], "priors": [doc["probs"]]}
                        for u in doc["utilities"]]
    maxmin = run_experiment(pc.scenario_from_dict(doc))
    assert maxmin["closed_form"] is not None
    for report in (entropic, maxmin):
        del report["scenario"]["utilities"]
    assert structured_text(maxmin) == structured_text(entropic)


def test_empty_deviation_audit_still_valid(tmp_path):
    """An ``audits`` section asking for no sampled deviations is ignored, as
    any unknown top-level section is: the report still carries both
    certified audits."""
    doc = minimal_doc()
    doc["audits"] = {"deviations": 0, "bid_points": 11}
    config = pc.load_scenario(write_scenario(tmp_path, doc))
    report = run_experiment(config)
    assert report["all_invariants_pass"]
    assert "audits" not in report["scenario"]
    names = [c["name"] for c in report["invariants"]]
    assert {"audit.first_mover_bound", "audit.bid_deviations"} <= set(names)
    assert report["audits"]["first_mover"]["max_gain"] <= 1e-9
    assert structured_text(report) == structured_text(
        run_experiment(pc.load_scenario(write_scenario(tmp_path, minimal_doc(), "plain.json"))))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_validate_ok():
    assert main(["validate", "--scenario", "two-agent-hand"]) == 0


# (section, or a path to one (() for the document), its changed keys, the
# field a rejection names; None: the run goes through)
EDGE_DOCUMENTS = {
    "object label": ("grid", {"state_classes": [{"a": 1}]}, "grid.state_classes"),
    "list label": ("grid", {"state_classes": [[1]]}, "grid.state_classes"),
    "boolean label": ("grid", {"state_classes": [True]}, "grid.state_classes"),
    "string label": ("grid", {"state_classes": ["loss"]}, None),
    "integer label": ("grid", {"state_classes": [7]}, None),
    "geometric weights": ("grid", {"weights": "geometric"},
                          "grid.weights must be 'uniform' (the geometric measure was removed)"),
    "uniform weights": ("grid", {"weights": "uniform"}, None),
    "grid over budget": ("grid", {"resolution": 30, "budget": 30}, "grid.budget"),
    "grid at budget": ("grid", {"resolution": 29, "budget": 30}, None),
    "misspelt mechanism key": ("mechanism", {"mdoe": "perturbed"},
                               "mechanism has unknown keys ['mdoe']"),
    "priors on an entropic spec": (("utilities", 0), {"priors": [[0.5, 0.5]]},
                                   "utilities[0] has unknown keys ['priors']"),
    # An old ``audits`` section is ignored, as any unknown top-level section is.
    "no bid points": ("audits", {"bid_points": 0}, None),
    "one bid point": ("audits", {"bid_points": 1}, None),
    "two bid points": ("audits", {"bid_points": 2}, None),
    "three bid points": ("audits", {"bid_points": 3}, None),
    "no deviations": ("audits", {"deviations": 0}, None),
    # Finite endowments whose sum overflows.
    "non-finite aggregate risk": ((), {"endowments": [[-1e308], [-1e308]]},
                                  "aggregate risk contains non-finite entries"),
}


@pytest.mark.parametrize("case", list(EDGE_DOCUMENTS))
def test_validate_and_run_agree(tmp_path, capsys, case):
    section, changes, named = EDGE_DOCUMENTS[case]
    doc = json.loads((FIXTURES / "two_agent_hand.json").read_text())
    target = doc
    for key in section if isinstance(section, tuple) else (section,):
        target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
    target.update(changes)
    path = write_scenario(tmp_path, doc)
    checked = main(["validate", "--scenario", str(path)])
    ran = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if named is None:
        assert checked == 0 and ran in (0, 3), err
    else:
        assert checked == ran == 2
        assert f"validation error: {path}: {named}" in err


def _hurricane_variant(gammas=(1.0, 2.0, 4.0), scale=1.0, resolution=70):
    doc = json.loads((FIXTURES / "hurricane_three_farmers.json").read_text())
    doc["endowments"] = [[v * scale for v in row] for row in doc["endowments"]]
    for u, g in zip(doc["utilities"], gammas):
        u["gamma"] = g
    doc["grid"]["resolution"] = resolution
    return doc


def _scale_map(lam):
    """The hurricane at resolution 20 under (X, gamma) -> (lam X, gamma / lam)."""
    return _hurricane_variant(gammas=(1.0 / lam, 2.0 / lam, 4.0 / lam), scale=lam,
                              resolution=20)


# Valid hurricane variants that once ended in exit 2: an absolute 1e-12
# bound on the closed form's tilt-rate identity (one ulp of lam ~ 9,170 is
# 1.8e-12), refined points that failed the feasibility recheck at
# endowments x100 and x1e3 and under (X, gamma) -> (lam X, gamma / lam), and
# closed-form points whose column sums round more than an absolute 1e-12
# away from X ~ 3e4 and beyond, and an absolute 1e-12 bound on the bid
# indifference identity at eta ~ 3.4e4 and 5.1e4.
SCALED_HURRICANES = {
    "large gammas": _hurricane_variant(gammas=(12345.6, 98765.4, 55555.5)),
    "endowments x100": _hurricane_variant(scale=1e2, resolution=20),
    "endowments x1e3": _hurricane_variant(scale=1e3, resolution=20),
    "endowments x1e4": _hurricane_variant(scale=1e4, resolution=20),
    "scale map at 1e2": _scale_map(1e2),
    "scale map at 1e4": _scale_map(1e4),
    "scale map at 1e5": _scale_map(1e5),
    "scale map at 2e5": _scale_map(2e5),
    "scale map at 3e5": _scale_map(3e5),
}


@pytest.mark.parametrize("case", list(SCALED_HURRICANES))
def test_scaled_hurricanes_run_with_every_invariant(tmp_path, capsys, case):
    path = write_scenario(tmp_path, SCALED_HURRICANES[case])
    assert main(["validate", "--scenario", str(path)]) == 0
    ran = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert ran == 0, capsys.readouterr().err
    report = load_report(tmp_path / "out" / "report.json")
    assert report["all_invariants_pass"]
    assert all(c["passed"] for c in report["invariants"])


@pytest.mark.parametrize("lam", [1e2, 1e3, 1e4, 1e5])
def test_scale_map_keeps_the_choice_and_scales_the_payoffs(lam):
    """(X, gamma) -> (lam X, gamma / lam) multiplies every certainty
    equivalent by lam: the chosen point and its ties stay, and the payoffs
    divided by lam are the unit-scale ones up to rounding."""
    unit = run_experiment(pc.scenario_from_dict(_hurricane_variant(resolution=20)))
    scaled = run_experiment(pc.scenario_from_dict(_scale_map(lam)))
    assert scaled["all_invariants_pass"]
    assert scaled["mechanism"]["chosen"] == unit["mechanism"]["chosen"]
    assert scaled["audits"]["first_mover"]["ties"] == unit["audits"]["first_mover"]["ties"]
    for field in ("avg", "mechanism_payoff", "final_payoff"):
        got = [a[field] / lam for a in scaled["agents"]]
        assert got == pytest.approx([a[field] for a in unit["agents"]], rel=1e-13)


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "pricechoose", "validate", "--scenario", "two-agent-hand"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert "scenario OK" in done.stdout


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
    assert (out1 / "schedules.npz").read_bytes() == (out2 / "schedules.npz").read_bytes()


def _transcripts(config):
    """The bundled run's mechanism and auction transcripts, rebuilt here."""
    grid = pc.enumerate_grid(config.space, config.x, config.profile.n_agents,
                             config.resolution, state_classes=config.state_classes,
                             budget=config.budget)
    game = pc.calibrate(config.profile, grid, cap=config.lipschitz_cap)
    mechanism = pc.run_pnc(game, config.mode, epsilon=config.epsilon,
                           iota=config.iota)
    return {"mechanism": mechanism,
            "auction": pc.run_auction_then_pnc(game, config.seed).transcript}


# The bundled seeds draw winner 0, whose auction branch posts the same
# schedules as the main run; seed 1 draws winner 1 for two and three agents.
@pytest.mark.parametrize("seed", [None, 1], ids=["bundled-seed", "seed1"])
@pytest.mark.parametrize("scenario", ["two_agent_hand", "hurricane_three_farmers"])
def test_cli_run_writes_schedule_sidecar(tmp_path, scenario, seed):
    out = tmp_path / "out"
    argv = ["run", "--scenario", scenario, "--out", str(out)]
    assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    report = load_report(out / "report.json")
    config = pc.load_scenario(FIXTURES / f"{scenario}.json").with_overrides(seed=seed)
    transcripts = _transcripts(config)
    assert (report["auction"]["auction"]["winner"] == 0) == (seed is None)
    sections = {"mechanism": report["mechanism"],
                "auction": report["auction"]["transcript"]}
    with np.load(out / "schedules.npz", allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    expected_keys = set()
    for name, transcript in transcripts.items():
        summaries = sections[name]["schedules"]
        assert len(summaries) == len(transcript.schedules) >= 1
        for j, (summary, schedule) in enumerate(zip(summaries, transcript.schedules)):
            key = f"{name}_{j}"
            expected_keys.add(key)
            got = arrays[key]
            assert got.dtype == np.dtype("<f8")
            assert got.tobytes() == schedule.values.astype("<f8").tobytes()
            assert hashlib.sha256(got.tobytes()).hexdigest() == summary["sha256"]
    assert set(arrays) == expected_keys


def test_cli_validation_failure_writes_no_sidecar(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--scenario", "two-agent-hand", "--resolution", "0",
                 "--out", str(out)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.xfail(strict=True, reason="a schedule over a too-small cap raises "
                   "ConfigurationError in mechanism._equalize: exit 2, no report")
def test_cli_too_small_lipschitz_cap_fails_its_invariants(tmp_path, capsys):
    """A valid cap too small for the utilities is a finding of the run: it
    should end in exit 3 with a written report whose checks show it."""
    doc = json.loads((FIXTURES / "hurricane_three_farmers.json").read_text())
    doc["mechanism"]["lipschitz_cap"] = 1e-6
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(path), "--resolution", "10", "--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    assert code == 3
    assert not load_report(out / "report.json")["all_invariants_pass"]


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


@pytest.mark.parametrize("command", ["run", "audit"])
def test_cli_perturbed_mode_on_a_menu_with_no_risk(tmp_path, capsys, command):
    """X = 0 in every state: the menu is one point, every Lipschitz estimate
    and so the cap is 0, and the re-centered bump is identically 0 there.
    The choice is forced, so the bases are posted unbent with epsilon 0."""
    doc = minimal_doc()
    doc["endowments"] = [[0.0, 0.0], [0.0, 0.0]]
    doc["mechanism"] = {"mode": "perturbed"}
    path = write_scenario(tmp_path, doc)
    assert main(["validate", "--scenario", str(path)]) == 0
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 0, \
        capsys.readouterr().err
    report = load_report(out / "report.json")
    assert report["grid"]["n_points"] == 1 and report["all_invariants_pass"]
    mechanism = report["mechanism"]
    assert (mechanism["mode"], mechanism["epsilon"], mechanism["target"],
            mechanism["chosen"]) == ("perturbed", 0.0, 0, 0)
    assert [s["declared_lip"] for s in mechanism["schedules"]] == [0.0]


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

    monkeypatch.setattr("pricechoose.cli._run_experiment", never)
    code = main(["bench", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bench needs an all-entropic scenario with a closed form" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_bench_runs_a_one_prior_maxmin_scenario(tmp_path, capsys):
    """bench needs the closed form, which every profile of agents holding
    the one prior P has, whatever kind their specs name."""
    doc = minimal_doc()
    doc["utilities"][1] = _maxmin([doc["probs"]], gamma=2.0)
    path = write_scenario(tmp_path, doc)
    assert main(["bench", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "closed-form shares" in capsys.readouterr().out


def test_cli_tabular_only(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "two-agent-hand", "--out", str(out),
                 "--format", "tabular"]) == 0
    assert (out / "report.csv").exists()
    assert not (out / "report.json").exists()
    assert not (out / "schedules.npz").exists()


def test_cli_uses_scenario_output_paths(tmp_path):
    doc = minimal_doc()
    doc["output"] = {"dir": str(tmp_path / "fromconfig"), "format": "structured"}
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", str(path)]) == 0
    assert (tmp_path / "fromconfig" / "report.json").exists()
    assert not (tmp_path / "fromconfig" / "report.csv").exists()


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

BUNDLED_REPORTS = sorted((Path(__file__).resolve().parent / "data" / "bundled_reports")
                         .glob("*.json"))


def explained(path, capsys) -> tuple[int, list[str], str]:
    """``explain``'s exit code, its invariant lines in the order listed, and
    the whole output."""
    code = main(["explain", str(path)])
    out = capsys.readouterr().out
    lines = out.splitlines()
    start = lines.index("invariants, failures first, then tightest value / tol:") + 1
    end = next(k for k in range(start, len(lines))
               if lines[k].startswith("calibration.lipschitz_scan: "))
    return code, lines[start:end], out


def listed_name(line: str) -> str:
    return line.split()[2].rstrip(":")


def test_explain_covers_the_nine_bundled_runs():
    assert len(BUNDLED_REPORTS) == 9


@pytest.mark.parametrize("path", BUNDLED_REPORTS, ids=lambda p: p.stem)
def test_explain_lists_every_record_tightest_first(path, capsys):
    """Every record once, as passed, numeric ones by falling value / tol and
    the structural ones after them; then the scan and the tie count, after
    the run's summary."""
    doc = json.loads(path.read_text())
    code, lines, out = explained(path, capsys)
    assert code == 0 and out.startswith(f"scenario: {doc['scenario']['name']}\n")
    records = {c["name"]: c for c in doc["invariants"]}
    names = [listed_name(line) for line in lines]
    assert sorted(names) == sorted(records) and all(line.startswith("ok ") for line in lines)
    ratios = [records[n]["value"] / records[n]["tol"] for n in names
              if records[n]["tol"] is not None]
    assert ratios == sorted(ratios, reverse=True)
    assert all(records[n]["tol"] is None for n in names[len(ratios):])
    scan = json.dumps(doc["calibration"]["lipschitz_scan"], sort_keys=True)
    assert f"\ncalibration.lipschitz_scan: {scan}\n" in out
    assert out.endswith(f"\naudits.first_mover.ties: {doc['audits']['first_mover']['ties']}\n")


def test_explain_lists_a_planted_failure_first(tmp_path, capsys):
    """A record planted at twice its tolerance, the loosest record before,
    is listed first and marked FAIL, and explain exits 3."""
    doc = json.loads((BUNDLED_REPORTS[0]).read_text())
    numeric = [c for c in doc["invariants"] if c["tol"] is not None]
    planted = min(numeric, key=lambda c: c["value"] / c["tol"])
    planted.update(value=2.0 * planted["tol"], passed=False)
    path = tmp_path / "report.json"
    path.write_text(structured_text(doc))
    code, lines, _ = explained(path, capsys)
    assert code == 3
    assert lines[0].split()[:3] == ["FAIL", "2", planted["name"] + ":"]
    assert all(line.startswith("ok ") for line in lines[1:])


def truncated(stem: str, *keys):
    """The text of the bundled report ``stem`` without the field at the key
    path ``keys``, an int key a list index, as a parameter named by it."""
    doc = json.loads(next(p for p in BUNDLED_REPORTS if p.stem == stem).read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    return pytest.param(structured_text(doc), id="lacks-" + ".".join(map(str, keys)))


MAXMIN_RUN = "four-agent-maxmin-single.run"


@pytest.mark.parametrize("text", [
    "not a report {",
    json.dumps({"schema": "pnc-report/v2", "invariants": []}),
    json.dumps(["pnc-report/v3"]),
    None,
    # A v3 report that lacks a field explain reads, in the summary, among
    # the records or after them.
    truncated(MAXMIN_RUN, "scenario", "name"),
    truncated(MAXMIN_RUN, "grid"),
    truncated(MAXMIN_RUN, "welfare"),
    truncated(MAXMIN_RUN, "agents"),
    truncated(MAXMIN_RUN, "agents", 2, "avg"),
    truncated(MAXMIN_RUN, "surplus", "averages"),
    truncated(MAXMIN_RUN, "invariants"),
    *(truncated(MAXMIN_RUN, "invariants", 3, key)
      for key in ("name", "passed", "value", "tol", "detail")),
    truncated(MAXMIN_RUN, "calibration"),
    truncated(MAXMIN_RUN, "calibration", "lipschitz_scan"),
    truncated(MAXMIN_RUN, "audits", "first_mover", "ties"),
    truncated("hurricane-three-farmers.run", "closed_form", "lam"),
])
def test_explain_refuses_what_is_not_a_v3_report(tmp_path, capsys, text):
    """Garbage, a v2 report, JSON that is not an object, a missing file and
    a truncated v3 report exit 2 with a validation error, before printing
    anything."""
    path = tmp_path / "report.json"
    if text is not None:
        path.write_text(text)
    assert main(["explain", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ") and "Traceback" not in captured.err
    assert captured.out == ""
