"""run_experiment builds one Game and reuses it; its checks can fail and record
their margins; the report does not grow with the menu."""

import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import re
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pricechoose as pc
from pricechoose import mechanism, report, utility, welfare
from pricechoose.cli import main

from conftest import column_sums

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "pricechoose" / "scenarios"


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` wherever the package binds it; returns the call log."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for key, module in list(sys.modules.items()):
        if key == "pricechoose" or key.startswith("pricechoose."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_run_experiment_computes_shared_data_once(monkeypatch):
    """n = 3: one utility matrix and one set of averages; n mechanism runs
    (one per auction branch, the winner-0 branch doubling as the exact
    mechanism run), whose orders 012, 102 and 201 post schedules for six
    tails, of which (2,) repeats, so five schedules are built and validated
    once each; calibration and the report's averages read the one matrix
    instead of re-evaluating.  Every utility value comes from the profile's
    one kernel entry, in three calls: the matrix's one block for all agents,
    the closed form and the welfare candidate.  Both audits are closed
    forms, so no distance vector is built.  The closed form is built once,
    by the welfare step, and the report reads it from there."""
    config = pc.load_scenario(SCENARIOS / "hurricane_three_farmers.json")
    assert config.profile.n_agents == 3 and config.mode == "exact"
    calls = {
        "matrix": count_calls(monkeypatch, utility.UtilityProfile, "matrix"),
        "average_utilities": count_calls(monkeypatch, utility, "average_utilities"),
        "run_pnc": count_calls(monkeypatch, mechanism, "run_pnc"),
        "validate_schedule": count_calls(monkeypatch, mechanism, "validate_schedule"),
        "_evaluate": count_calls(monkeypatch, utility.UtilityProfile, "_evaluate"),
        "distances_to": count_calls(monkeypatch, pc.MenuGrid, "distances_to"),
        "closed_form_entropic": count_calls(monkeypatch, welfare, "closed_form_entropic"),
    }
    result = pc.run_experiment(config)
    assert result["all_invariants_pass"]
    assert {k: len(v) for k, v in calls.items()} == {
        "matrix": 1, "average_utilities": 1, "run_pnc": 3,
        "validate_schedule": 5, "_evaluate": 3, "distances_to": 0,
        "closed_form_entropic": 1}

    # Perturbed mode adds one run; its n - 1 posted schedules share one
    # bump, so one distance vector.
    for log in calls.values():
        log.clear()
    result = pc.run_experiment(config.with_overrides(mode="perturbed"))
    assert result["all_invariants_pass"]
    assert len(calls["run_pnc"]) == 4
    assert len(calls["distances_to"]) == 1

    # Without the auction, one exact run serves the mechanism and the audit.
    calls["run_pnc"].clear()
    result = pc.run_experiment(config, include_auction=False)
    assert result["all_invariants_pass"]
    assert len(calls["run_pnc"]) == 1


def test_risk_free_entropic_report_keeps_its_closed_form():
    """A grid without a class has no welfare candidate, yet the report's
    closed_form section is still the closed form of the profile."""
    doc = {"states": ["a", "b"], "probs": [0.25, 0.75],
           "endowments": [[1.0, -1.0], [-1.0, 1.0]],
           "utilities": [{"kind": "entropic", "gamma": 1.0},
                         {"kind": "entropic", "gamma": 3.0}],
           "grid": {"resolution": 4}}
    config = pc.scenario_from_dict(doc)
    result = pc.run_experiment(config)
    assert result["grid"]["n_classes"] == 0 and result["all_invariants_pass"]
    cf = pc.closed_form_entropic(config.profile, config.x)
    expected = dict(cf.to_dict(), tilt=[float(t) for t in cf.tilt],
                    grid_value_gap=abs(result["welfare"]["value"] - cf.value))
    assert result["closed_form"] == expected
    assert expected["tilt"] == [0.25, 0.75]


def test_every_posting_order_implements_the_same_point_on_a_welfare_tie():
    """Two identical farmers: grid points 7 and 10 tie exactly on welfare.
    The mechanism, every auction branch and the welfare optimizer all
    report the lowest-index maximizer."""
    config = pc.scenario_from_dict({
        "schema": "pnc-scenario/v1",
        "name": "welfare-tie",
        "states": ["a", "b", "c"],
        "probs": [0.2, 0.3, 0.5],
        "endowments": [[-1, 0, 0], [0, -2, 0], [0, 0, -3]],
        "utilities": [{"kind": "entropic", "gamma": 1.0},
                      {"kind": "entropic", "gamma": 1.0},
                      {"kind": "entropic", "gamma": 2.0}],
        "grid": {"resolution": 4, "state_classes": "single"},
        "seed": 0,
    })
    result = pc.run_experiment(config)
    assert result["all_invariants_pass"]
    chosen = result["auction"]["transcript"]["chosen"]
    assert chosen == result["mechanism"]["chosen"] == result["welfare"]["index"]

    grid = pc.enumerate_grid(config.space, config.x, 3, config.resolution,
                             state_classes=config.state_classes)
    game = pc.calibrate(config.profile, grid)
    assert game.welfare[7] == game.welfare[10] == game.welfare_max
    assert {pc.run_auction_then_pnc(game, 0, winner=w).transcript.chosen
            for w in range(3)} == {chosen}


def load_perfbench(name):
    """perfbench/<name>.py, loaded by file path: it is read, not changed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pareto_oracle_matches_the_utility_matrix():
    """The benchmark's ``pareto`` gate scores verdicts against
    ``independent_utilities``, which reads each evaluator's priors itself:
    on an entropic and a max-min agent it agrees with ``profile.matrix``."""
    workloads = load_perfbench("workloads")
    space, x, profile = workloads.pareto_profile(workloads.op_rng("pareto", 0, 0))
    assert [len(u.credal.priors) > 1 for u in profile.evaluators] == [False, True]
    grid = pc.enumerate_grid(space, x, 2, 6)
    np.testing.assert_allclose(workloads.independent_utilities(profile, grid.points),
                               profile.matrix(grid), rtol=0.0, atol=1e-12)


def test_traced_names_resolve_in_the_package():
    """perfbench/spans.py wraps these functions and members by name, and a
    traced benchmark run fails on one that is gone; perfbench/workloads.py
    reads a few more names directly."""
    spans = load_perfbench("spans")
    for name in spans.FUNCTIONS:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"pricechoose.{module}"),
                                attr, None)), name
    for name, (owner, attr) in spans.METHODS.items():
        assert hasattr(owner, attr), name
    # perfbench/workloads.py reads these outside the tracer: the ``pareto``
    # workload scores ``point`` and ``points`` of its grids, sizes them with
    # ``grid_point_count``, builds max-min agents and widens its verdicts by
    # ``PARETO_SLACK``.
    for owner, attr in ((pc.MenuGrid, "points"), (pc.MenuGrid, "point"),
                        (pc.menu, "grid_point_count"), (welfare, "PARETO_SLACK"),
                        (pc.UtilityProfile, "matrix"), (pc, "MaxMinUtility"),
                        (pc, "CredalSet")):
        assert hasattr(owner, attr), attr
    # The shape counters bind these parameters by name.
    for fn, params in ((pc.lipschitz_ratio,
                        {"grid", "exhaustive_threshold", "num_samples"}),
                       (pc.pareto_check, {"grid", "profile"})):
        assert params <= set(inspect.signature(fn).parameters), fn.__name__


def test_tracer_installs_counts_and_uninstalls(two_state):
    """The tracer's shape counters bind ``lipschitz_ratio``'s and
    ``pareto_check``'s parameters by name: a traced call through the
    installed wrappers counts, and uninstalling puts every original back."""
    _, _, profile, grid = two_state
    originals = (pc.lipschitz_ratio, welfare.pareto_check,
                 vars(pc.MenuGrid)["features"])
    tracer = load_perfbench("spans").Tracer()
    tracer.install()
    try:
        assert pc.lipschitz_ratio is not originals[0]
        assert {"grid", "exhaustive_threshold", "num_samples"} <= set(
            inspect.signature(pc.lipschitz_ratio).parameters)
        assert {"grid", "profile"} <= set(inspect.signature(pc.pareto_check).parameters)
        pc.lipschitz_ratio(np.zeros(grid.n_points), grid, exhaustive_threshold=4)
        pc.pareto_check(profile, grid, grid.point(0))
    finally:
        tracer.uninstall()
    assert tracer.counts["menu.lipschitz_ratio.pairs"] == 4096
    assert tracer.counts["welfare.pareto_check.comparisons"] == grid.n_points * 2
    assert (pc.lipschitz_ratio, welfare.pareto_check,
            vars(pc.MenuGrid)["features"]) == originals


def test_drawn_winner_run_is_its_branch(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    for seed in range(4):
        drawn = pc.run_auction_then_pnc(game, seed)
        replay = pc.run_auction_then_pnc(game, seed, winner=drawn.auction.winner)
        assert drawn.to_dict() == replay.to_dict()


def auction_checks(game, branches) -> dict:
    return {c["name"]: c for c in report._auction_checks(branches[0], branches, game)}


def test_efficiency_check_fails_on_a_non_maximizing_branch(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    branches = [pc.run_auction_then_pnc(game, 0, winner=w) for w in range(2)]
    assert all(c["passed"] for c in auction_checks(game, branches).values())

    worst = int(np.argmin(game.umat.sum(axis=1)))
    assert game.welfare_max - float(game.umat[worst].sum()) > 1e-9
    bad = dataclasses.replace(
        branches[1], transcript=dataclasses.replace(branches[1].transcript,
                                                    chosen=worst))
    check = auction_checks(game, [branches[0], bad])["auction.efficiency_preserved"]
    assert not check["passed"]
    assert check["value"] > check["tol"] == 1e-9
    assert check["detail"] == (
        f"max |W(chosen) - W_max| over branches {check['value']:.3g}")


def test_winner_check_fails_on_a_lowered_winning_bid(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    branches = [pc.run_auction_then_pnc(game, 0, winner=w) for w in range(2)]
    top = float(branches[0].auction.bids.max())
    winner = branches[0].auction.winner
    bids = branches[0].auction.bids.copy()
    bids[winner] = low = top / 2
    planted = dataclasses.replace(
        branches[0], auction=dataclasses.replace(branches[0].auction, bids=bids))
    check = auction_checks(game, [planted, branches[1]])["auction.winner_argmax"]
    assert not check["passed"]
    assert check["detail"] == f"winner {winner} bids {low!r}, max bid {top!r}"


def test_value_sum_check_fails_on_a_shifted_welfare_value(monkeypatch):
    config = pc.load_scenario(SCENARIOS / "two_agent_hand.json")
    maximize = report.maximize_welfare

    def shifted(game):
        best = maximize(game)
        return dataclasses.replace(best, value=best.value + 1e-3)

    monkeypatch.setattr(report, "maximize_welfare", shifted)
    check = next(c for c in pc.run_experiment(config)["invariants"]
                 if c["name"] == "welfare.value_sum")
    assert not check["passed"] and check["value"] > check["tol"] == 1e-9
    assert check["detail"] == f"|value - sum per_agent| = {check['value']:.3g}"
    assert check["detail"].endswith("= 0.001")


def _lists(node):
    """Every list in a JSON document, nested ones included."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _lists(v)
    elif isinstance(node, list):
        yield node
        for v in node:
            yield from _lists(v)


def three_class_hurricane() -> pc.ScenarioConfig:
    """The bundled hurricane with its farmers' hits in three share classes
    beside the zero-risk state."""
    doc = json.loads((SCENARIOS / "hurricane_three_farmers.json").read_text())
    doc["grid"]["state_classes"] = [0, 1, 1, 2, 1, 2, 2, 3]
    return pc.scenario_from_dict(doc)


def test_report_size_is_independent_of_the_menu_size():
    """Schedules enter the report as fixed-size summaries: on a multi-class
    menu, 15x more points change the document by a few digits."""
    base = three_class_hurricane()
    texts = {}
    for resolution in (2, 4):
        config = base.with_overrides(resolution=resolution)
        result = pc.run_experiment(config)
        assert result["all_invariants_pass"] and result["grid"]["n_classes"] == 3
        longest = max(len(node) for node in _lists(result))
        assert longest <= len(result["invariants"])
        texts[result["grid"]["n_points"]] = pc.structured_text(result)
    (small, a), (large, b) = sorted(texts.items())
    assert large >= 10 * small
    assert abs(len(a) - len(b)) < 1024


def test_pipeline_reads_no_point_sized_grid_array(monkeypatch):
    """The grid is implicit: a whole run on a 3-class grid, in both modes and
    on both Lipschitz paths (exhaustive up to 512 points, sampled above),
    and a run on the bundled single-class hurricane never build ``points``
    or ``features``."""
    def refuse(grid):
        raise AssertionError("the pipeline read a point-sized grid array")

    for name in ("points", "features"):
        monkeypatch.setattr(pc.MenuGrid, name, property(refuse))
    base = three_class_hurricane()
    for resolution, mode in ((2, "exact"), (4, "perturbed")):
        config = base.with_overrides(resolution=resolution, mode=mode)
        result = pc.run_experiment(config)
        assert result["grid"]["n_classes"] == 3
        assert result["all_invariants_pass"]
    single = pc.load_scenario(SCENARIOS / "hurricane_three_farmers.json")
    result = pc.run_experiment(single)
    assert result["grid"]["n_classes"] == 1 and result["grid"]["n_points"] == 2556
    assert result["all_invariants_pass"]


STRUCTURAL_CHECKS = {"welfare.argmax_feasible", "auction.winner_argmax",
                     "mechanism.perturbed_target"}


def bundled_report(scenario: str, command: str) -> dict:
    """The report of one bundled CLI run, built in process."""
    path = SCENARIO_FILES.get(scenario, SCENARIOS / f"{scenario.replace('-', '_')}.json")
    config = pc.load_scenario(path)
    if command == "run-perturbed":
        config = config.with_overrides(mode="perturbed")
    return pc.run_experiment(config, include_auction=command != "audit")


def test_invariants_record_their_margins():
    """Numeric checks carry value and tol, and pass exactly when value <= tol,
    in all nine bundled runs."""
    for scenario, command in BUNDLED_RUNS:
        for check in bundled_report(scenario, command)["invariants"]:
            assert set(check) == {"name", "passed", "detail", "value", "tol"}
            name, value, tol = check["name"], check["value"], check["tol"]
            if name in STRUCTURAL_CHECKS:
                assert value is None and tol is None
            else:
                assert isinstance(value, float) and isinstance(tol, float)
                assert check["passed"] == (value <= tol)
            assert check["passed"], (scenario, command, check)


def coin_doc(probs, priors=None) -> dict:
    """Two agents over two states; agent 1 is max-min over ``priors`` if given."""
    second = ({"kind": "entropic", "gamma": 2.0} if priors is None
              else {"kind": "maxmin", "gamma": 2.0, "priors": priors})
    return {"states": ["h", "t"], "probs": probs, "endowments": [[-1.0, 0.0], [0.0, -1.0]],
            "utilities": [{"kind": "entropic", "gamma": 1.0}, second],
            "grid": {"resolution": 4}}


def cli_run(tmp_path, doc) -> int:
    """The exit code of ``pricechoose run`` on ``doc``, writing to tmp_path / "out"."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])


def refused_run(tmp_path, doc) -> bool:
    """Whether the CLI refuses ``doc`` with exit 2 before writing a report."""
    return cli_run(tmp_path, doc) == 2 and not (tmp_path / "out").exists()


# A report holds no record of its probabilities or credal sets: their
# constructors refuse a bad vector and keep a read-only copy of a good one.
@pytest.mark.parametrize("probs", [[1.0, 0.0], [1.5, -0.5], [0.5, 0.6]])
def test_bad_probabilities_never_reach_a_report(tmp_path, probs):
    with pytest.raises(pc.ValidationError):
        pc.StateSpace(["h", "t"], probs)
    assert refused_run(tmp_path, coin_doc(probs))
    space = pc.StateSpace(["h", "t"], [0.5, 0.5])
    with pytest.raises(ValueError, match="read-only"):
        space.probs[0] = 1.5


@pytest.mark.parametrize("priors", [[[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.4]],
                                    [[0.4, 0.6]]])
def test_bad_credal_set_never_reaches_a_report(tmp_path, priors):
    with pytest.raises(pc.ValidationError):
        pc.CredalSet(np.array(priors), np.array([0.5, 0.5]))
    assert refused_run(tmp_path, coin_doc([0.5, 0.5], priors))
    assert not refused_run(tmp_path, coin_doc([0.5, 0.5], [[0.5, 0.5], [0.4, 0.6]]))


def test_metric_records_fail_on_a_subnormal_probability(tmp_path, capsys):
    """A valid document whose third state has P = 1e-310: 1 / P overflows in
    the metric's weights, so the metric records fail, and the diameter they
    bound reads 0, so the first schedule's sup-norm record fails too."""
    doc = coin_doc([0.5, 0.5, 1e-310])
    doc["states"].append("e")
    doc["endowments"] = [[-1.0, 0.0, -1.0], [0.0, -1.0, -1.0]]
    doc["grid"]["resolution"] = 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_run(tmp_path, doc) == 3
    assert {str(w.message) for w in caught} == {
        "overflow encountered in divide", "invalid value encountered in multiply"}
    assert "FAIL metric.identity: d(x,x) = nan" in capsys.readouterr().out
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {c["name"] for c in rep["invariants"] if not c["passed"]} == {
        "metric.identity", "metric.symmetry", "metric.triangle", "schedule[0].sup_norm"}


@pytest.mark.parametrize("weight, failing", [
    (-1e-300, {"metric.triangle"}),
    (float("nan"), {"metric.identity", "metric.symmetry", "metric.triangle"}),
    (float("inf"), {"metric.identity", "metric.symmetry", "metric.triangle"}),
    (-float("inf"), {"metric.identity", "metric.symmetry", "metric.triangle"}),
])
def test_metric_checks_fail_on_a_negative_or_non_finite_weight(two_state, weight,
                                                               failing):
    _, _, _, grid = two_state
    assert all(c["passed"] for c in report._metric_checks(grid))
    omega, mass, mass_weights = grid._metric
    omega = omega.copy()
    omega[0, 1] = weight
    grid.__dict__["_metric"] = (omega, mass, mass_weights)
    del grid.__dict__["feature_weights"]      # cached from _metric: rebuild it
    with np.errstate(invalid="ignore"):       # d(x, x) = inf * 0
        checks = report._metric_checks(grid)
    assert {c["name"] for c in checks if not c["passed"]} == failing


# The behavioural contract: sha256 of the three files each bundled CLI run
# writes, and of three seeded scenarios whose agents hold 1, 2 and 3 priors,
# which neither bundled scenario has: two per-state share classes beside a
# zero-risk state (data/three_agent_maxmin.json), one class over four agents
# (data/four_agent_maxmin_single.json), and two labelled classes beside a
# zero-risk state (data/three_agent_maxmin_classes.json).  The recorded
# report.json documents sit in data/bundled_reports and locate a mismatch; a
# change that moves a report updates both on purpose.
DATA = Path(__file__).resolve().parent / "data"
SCENARIO_FILES = {"three-agent-maxmin": DATA / "three_agent_maxmin.json",
                  "four-agent-maxmin-single": DATA / "four_agent_maxmin_single.json",
                  "three-agent-maxmin-classes": DATA / "three_agent_maxmin_classes.json"}
BUNDLED_RUNS = {
    ("two-agent-hand", "run"): (
        "b3d74698f963af9b9b8b3f216a072c3b3cd2b82a3552610f7f6adc21f26f77c0",
        "d4f002d601b7202f01c87da0579f844c66e9eb1d5b94961aafd64a0bec9015df",
        "78c168ef0f918c7f75ec9891189c025c8916947e43ab056d813a2564b15c1afe"),
    ("two-agent-hand", "run-perturbed"): (
        "b1230837a8225a31c98ea52346508d90341cec78bc60ce25011ed29f2b9be225",
        "3f963f5e5580cc9f1c55b0054840bf7a6e1e23d1ca1d3df90a4914b3b401bddf",
        "aa120f87069c1e353f46a629c304f61e3dc65c7141e08d7ded4b2fa520b450f2"),
    ("two-agent-hand", "audit"): (
        "01df3ab95abf2e1494d480fa1acf0259fb0e5745e3c25a0ae3619cb99f2ee63a",
        "403db2b6e2719b55555c1f463a9ff75a32cc18ec083e2d396f396f9631f30a49",
        "f4d404172eaab8bf53aeeae2ae5c61ebe02ca3726bcce77c9c030b75bb195f01"),
    ("hurricane-three-farmers", "run"): (
        "8add04e0b8e76c6d3da155ed2f11308a66128f1c1194cdbf26369c28ca6fef08",
        "724d685fe74ad52bb81aa18f94b2472678d731e52063f2ff0a0df9998e3ff888",
        "9fb0c758ff828ee9fdca5404a84af65c8dbe551fee382fffadbe255f411d3d48"),
    ("hurricane-three-farmers", "run-perturbed"): (
        "6449040e59502d0e583113b36a4fec873f614c5416b4d5b444cd8420f5334f61",
        "58065725dcd15ffda3c87727432c90d286c72e113ec252d8be0b42a533146fbb",
        "823ef2b433f219c12b1c942275efdaaa8f47047b179540ac1be27a8f2a275ac1"),
    ("hurricane-three-farmers", "audit"): (
        "923021fba9b8331163896c40443f0b205002f1e4f5d8ac43a821049156c3475f",
        "171b772ad2cd55e8440079649ca617999f8a905b2a4ca8cc418c1e5d7c325f75",
        "0a560e9a38ac9db62c757aaa61540a0b570f8638c49e5fd8636a5296f3b44de2"),
    ("three-agent-maxmin", "run"): (
        "adfcf1ad929591eadd56a39779b2c015295954f4fb654a04d7c70b343cc88fa4",
        "1c6df763eebbeee19b1b41f0a3ad70a0768dfb8cf23faeaca2a31fd4b148b765",
        "b6bc66246bb109dc198991d10d42c76537daa2ea5a4a569abcdec83f10e60b4d"),
    ("four-agent-maxmin-single", "run"): (
        "e2e68bf278345af1ba20ae216084aebe901ff5117d189c967477481ffa6a45b4",
        "55fe650ce4d321d9da1fcd63efc7f81eafa1053fae60b8209bd7259ef628be61",
        "e3021d60846393d9bd011af0da9d1606f809f6d87f4d10c7bdbf06ab560adc01"),
    ("three-agent-maxmin-classes", "run"): (
        "c1ae7393e5a8ebf4e810d2c3e15fd3f283e20df6e303e05dac800d3ff7099298",
        "eaa85ab429f87cbb3490c17769e759b828b5b2b87393bfd5828095c9ff58a654",
        "a49a610682beaf4f6d5c53cc4c5e27cfed251ed0c8dfd54d8386ccd9c781cb5b"),
}
RECORDED = DATA / "bundled_reports"


def _named(items) -> bool:
    return bool(items) and all(isinstance(v, dict) and "name" in v for v in items)


def _moved_paths(new, old, path=""):
    """Every JSON path whose value differs, list indices collapsed to ``[]``.

    Lists of named records (the invariants) are matched by name, so a record
    added or dropped reads ``invariants[<name>]`` and does not move the
    records after it; other lists are matched by position.
    """
    if isinstance(new, dict) and isinstance(old, dict):
        for key in sorted(set(new) | set(old)):
            sub = f"{path}.{key}" if path else key
            if key not in new or key not in old:
                yield sub
            else:
                yield from _moved_paths(new[key], old[key], sub)
    elif isinstance(new, list) and isinstance(old, list):
        if _named(new) and _named(old):
            new, old = ({v["name"]: v for v in items} for items in (new, old))
            for name in sorted(set(new) ^ set(old)):
                yield f"{path}[{name}]"
            for name in sorted(set(new) & set(old)):
                yield from _moved_paths(new[name], old[name], f"{path}[]")
            return
        if len(new) != len(old):
            yield f"{path} (length)"
        for a, b in zip(new, old):
            yield from _moved_paths(a, b, f"{path}[]")
    elif not (new == old and type(new) is type(old)):
        yield path


def moved_paths(new, old) -> list[str]:
    """The distinct moved paths of ``_moved_paths``, sorted."""
    return sorted(set(_moved_paths(new, old)))


def test_moved_paths_collapse_indices_and_match_records_by_name():
    old = {"a": [{"x": 1, "y": 2}, {"x": 3, "y": 4}], "b": 1.0, "gone": 0,
           "invariants": [{"name": "p", "value": 1.0}, {"name": "q", "value": 2.0},
                          {"name": "r", "value": 3.0}]}
    new = {"a": [{"x": 1, "y": 5}, {"x": 6, "y": 4}], "b": 1, "added": 0,
           "invariants": [{"name": "p", "value": 1.0}, {"name": "r", "value": 3.5}]}
    assert moved_paths(new, old) == ["a[].x", "a[].y", "added", "b", "gone",
                                     "invariants[].value", "invariants[q]"]
    assert moved_paths(old, old) == []


def test_bundled_reports_match_recorded_digests(tmp_path):
    """Every run is compared, and every moved file and report path is listed."""
    def sha(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    problems = []
    for (scenario, command), digests in BUNDLED_RUNS.items():
        out = tmp_path / f"{scenario}.{command}"
        argv = ["run", "--mode", "perturbed"] if command == "run-perturbed" else [command]
        source = str(SCENARIO_FILES.get(scenario, scenario))
        assert main(argv + ["--scenario", source, "--out", str(out),
                            "--format", "both"]) == 0
        recorded = RECORDED / f"{scenario}.{command}.json"
        assert sha(recorded) == digests[0], f"{recorded.name} is not the recorded document"
        label = f"{scenario} {command}"
        report_json, report_csv, npz = (out / "report.json", out / "report.csv",
                                        out / "schedules.npz")
        if sha(report_json) != digests[0]:
            moved = moved_paths(json.loads(report_json.read_text()),
                                json.loads(recorded.read_text()))
            problems.append(f"{label}: report.json differs at {moved}")
        if sha(report_csv) != digests[1]:
            problems.append(f"{label}: report.csv differs")
        if sha(npz) != digests[2]:
            # The recorded schedule summaries carry each vector's sha256.
            doc = json.loads(recorded.read_text())
            summaries = {f"mechanism_{j}": s for j, s in
                         enumerate(doc["mechanism"]["schedules"])}
            if "auction" in doc:
                summaries.update({f"auction_{j}": s for j, s in enumerate(
                    doc["auction"]["transcript"]["schedules"])})
            with np.load(npz, allow_pickle=False) as arrays:
                moved = [key for key in arrays.files if key not in summaries or
                         hashlib.sha256(arrays[key].astype("<f8").tobytes())
                         .hexdigest() != summaries[key]["sha256"]]
            problems.append(f"{label}: schedules.npz differs; arrays {moved}")
    assert not problems, "\n".join(problems)


# Seeded random reports: the first twelve seed-0 ``sweep`` scenarios of the
# benchmark pool, one per sweep shape (2-4 agents, per-state and single-class
# grids, max-min agents refined off the grid), with the sha256 of each
# report's structured text and of each posted schedule vector.
SWEEP_PINS = DATA / "sweep_pins.json"


def test_seeded_sweep_reports_match_recorded_digests():
    pins = json.loads(SWEEP_PINS.read_text())
    assert len(pins) == 12
    problems = []
    for pin in pins:
        doc = pin["scenario"]
        rep, arrays = report._run_experiment(pc.scenario_from_dict(doc, source=doc["name"]))
        if hashlib.sha256(pc.structured_text(rep).encode()).hexdigest() != pin["report_sha256"]:
            problems.append(f"{doc['name']} (seed {doc['seed']}): report differs")
        digests = {key: hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
                   for key, values in arrays.items()}
        if digests != pin["schedules_sha256"]:
            moved = sorted(k for k in digests.keys() | pin["schedules_sha256"].keys()
                           if digests.get(k) != pin["schedules_sha256"].get(k))
            problems.append(f"{doc['name']} (seed {doc['seed']}): schedules {moved} differ")
    assert not problems, "\n".join(problems)


# The hurricane on four labelled state classes at resolution 6: 21,952
# points, the classes workload's shape at a tier-1 size.  Its report and
# schedule digests, and the tracemalloc peak of its run in units of P float64
# values, were recorded on the engine that allocated each P-sized vector on
# its own; that peak was 12.70 P.
MULTI_CLASS_PEAK_P = 12.70
MULTI_CLASS_REPORT_SHA256 = "e0820ae421292cafd4ce90e04653f74e1ace80877aa06747cd10fcd46db94f1b"
MULTI_CLASS_SCHEDULES_SHA256 = {
    "mechanism_0": "c7c700aad0880951db8e37a6c210b51daa02ad326dfe12afa20857479f0d7c17",
    "mechanism_1": "31c1056136344b9f9aaa914196e7d509025be54743119b426f15fa8674a64e31",
    "auction_0": "c7c700aad0880951db8e37a6c210b51daa02ad326dfe12afa20857479f0d7c17",
    "auction_1": "31c1056136344b9f9aaa914196e7d509025be54743119b426f15fa8674a64e31",
}


def test_multi_class_run_keeps_one_block_and_its_peak(monkeypatch):
    """Every P-sized vector the game holds is a row of one buffer, the run's
    memory peak stays at most the recorded figure, and the bytes stay."""
    doc = json.loads((SCENARIOS / "hurricane_three_farmers.json").read_text())
    doc["grid"].update(state_classes=[0, 1, 1, 2, 1, 2, 2, 3], resolution=6)
    config = pc.scenario_from_dict(doc, source=doc["name"])
    games = []
    calibrate = report.calibrate
    monkeypatch.setattr(report, "calibrate",
                        lambda *args, **kw: games.append(calibrate(*args, **kw)) or games[-1])
    rep, arrays = report._run_experiment(config)
    p = rep["grid"]["n_points"]
    assert p == 21_952 and rep["all_invariants_pass"]
    assert hashlib.sha256(pc.structured_text(rep).encode()).hexdigest() == (
        MULTI_CLASS_REPORT_SHA256)
    assert {key: hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
            for key, values in arrays.items()} == MULTI_CLASS_SCHEDULES_SHA256

    game, = games
    vectors = [getattr(game, f.name) for f in dataclasses.fields(game)]
    vectors = [v for v in vectors if isinstance(v, np.ndarray) and p in v.shape]
    vectors += game._spare + [s.values for s, _ in game._schedules.values()]
    assert len(vectors) == 3 + 5           # umat, W, scratch; five schedules
    block = game.umat.base
    assert block.flags.owndata and block.shape == (10, p)
    assert all(v.base is block for v in vectors)

    # The first run warmed numpy's and the grid code's one-time state.
    del rep, arrays, game, vectors, block
    games.clear()
    tracemalloc.start()
    try:
        report._run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MULTI_CLASS_PEAK_P * 8 * p, peak / (8 * p)


def test_column_sums_tolerance_scales_with_the_risk(tmp_path):
    """The (X, gamma) -> (lambda X, gamma / lambda) map at lambda = 1e4 on a
    pinned sweep scenario: its grid's column sums miss X by more than an
    absolute 1e-12, and stay within gamma_(n+1) |X| (``column_sums``), so
    every invariant passes and the CLI exits 0."""
    doc = json.loads(SWEEP_PINS.read_text())[1]["scenario"]
    doc["endowments"] = [[1e4 * v for v in row] for row in doc["endowments"]]
    for spec in doc["utilities"]:
        spec["gamma"] /= 1e4
    doc["grid"]["resolution"] = 8
    config = pc.scenario_from_dict(doc, source=doc["name"])
    residual, bound = column_sums(scenario_grid(config))
    assert residual.max() > 1e-12 and (residual <= bound).all()
    assert pc.run_experiment(config)["all_invariants_pass"]
    assert cli_run(tmp_path, doc) == 0


@pytest.mark.parametrize("risk", [-5e-324, -1e-320, -1e-310])
def test_subnormal_risk_runs_with_every_invariant(tmp_path, risk):
    """A one-state document whose X is subnormal, three agents, resolution 3:
    the shares of X underflow, so the column sums miss X by more than the
    relative bound gamma_(n+1) |X|, and by no more than ``column_sums``'
    underflow term.  The run passes every check and exits 0."""
    doc = {"states": ["s"], "probs": [1.0], "endowments": [[risk], [0.0], [0.0]],
           "utilities": [{"kind": "entropic", "gamma": 1.0}] * 3,
           "grid": {"resolution": 3}}
    residual, bound = column_sums(scenario_grid(pc.scenario_from_dict(doc)))
    k = 4 * 2.0 ** -53
    assert residual.max() > k / (1 - k) * abs(risk) and (residual <= bound).all()
    assert cli_run(tmp_path, doc) == 0


def test_reports_say_which_pairs_and_agents_their_checks_read():
    """calibration.lipschitz_scan holds the kind and count of the memoised
    Lipschitz pairs, each schedule's Lipschitz detail repeats them, and the
    credal checks name how many agents they read."""
    for path, kind, credal in [(SCENARIOS / "two_agent_hand.json", "exhaustive", 0),
                               (SCENARIOS / "hurricane_three_farmers.json", "sampled", 0),
                               (SCENARIO_FILES["three-agent-maxmin"], "exhaustive", 2)]:
        config = pc.load_scenario(path)
        grid = pc.enumerate_grid(config.space, config.x, config.profile.n_agents,
                                 config.resolution, state_classes=config.state_classes)
        a, _, _ = pc.menu._lipschitz_pairs(grid, 512, 4096, pc.menu.PAIR_SEED)
        rep = pc.run_experiment(config)
        scan = rep["calibration"]["lipschitz_scan"]
        assert scan == {"kind": kind, "pairs": len(a)}
        checks = {c["name"]: c["detail"] for c in rep["invariants"]}
        for j in range(config.profile.n_agents - 1):
            assert checks[f"schedule[{j}].lipschitz"].endswith(f"({kind}, {len(a)} pairs)")
        read = f"({credal} of {config.profile.n_agents} agents)"
        assert checks["utility.maxmin_dominance"].endswith(read), path.name


# The (X, gamma) -> (1e6 X, gamma / 1e6) map on seed-0 documents of the
# benchmark's sweep pool, resolution capped at 8: each named auction check
# reads a rounding residual above its absolute bound, which the tolerance
# scaled by its operands admits.
SCALED_AUCTION_CHECKS = {11: ("auction.transfers_sum", 1e-12),
                         14: ("auction.winner_invariance", 1e-9),
                         19: ("auction.equal_split", 1e-9)}


def scaled_sweep_docs() -> dict:
    """The documents of ``SCALED_AUCTION_CHECKS``, mapped by (1e6 X, gamma / 1e6)."""
    docs = load_perfbench("workloads").pipeline_docs("sweep", 0, 24, False)
    for doc in docs:
        doc["endowments"] = [[1e6 * v for v in row] for row in doc["endowments"]]
        for spec in doc["utilities"]:
            spec["gamma"] /= 1e6
        doc["grid"]["resolution"] = min(doc["grid"]["resolution"], 8)
    return {k: docs[k] for k in SCALED_AUCTION_CHECKS}


def test_auction_tolerances_scale_with_the_payoffs(tmp_path):
    for k, doc in scaled_sweep_docs().items():
        name, absolute = SCALED_AUCTION_CHECKS[k]
        path, out = tmp_path / f"scaled-{k}.json", tmp_path / f"out-{k}"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0, k
        rep = json.loads((out / "report.json").read_text())
        check = next(c for c in rep["invariants"] if c["name"] == name)
        assert absolute < check["value"] <= check["tol"], (k, check)
        if name == "auction.transfers_sum":
            transfers = rep["auction"]["auction"]["transfers"]
            assert check["tol"] == 1e-12 * max(1.0, *map(abs, transfers))


def test_invariant_names_are_unique_in_every_bundled_report():
    """A check is found by its name, so no report may hold a name twice."""
    for scenario, command in BUNDLED_RUNS:
        doc = json.loads((RECORDED / f"{scenario}.{command}.json").read_text())
        names = [c["name"] for c in doc["invariants"]]
        assert len(names) == len(set(names)), (scenario, command)


def test_non_finite_margin_is_recorded_as_null():
    check = report._invariant("x", float("nan"), 1e-9, "residual {:.3g}")
    assert check["value"] is None and check["tol"] == 1e-9
    assert not check["passed"] and check["detail"] == "residual nan"
    assert '"value": null' in pc.structured_text({"invariants": [check]})


# The evaluators' axioms, which every monetary utility of the paper has and
# the max-min entropic family has by theorem (Foellmer & Schied, Stochastic
# Finance, 4th ed., 4.1-4.2), each with its tolerance.  They are kernel
# properties, so they are checked here rather than in a report.
KERNEL_AXIOMS = {"utility.normalization": 0.0, "utility.cash_invariance": 1e-9,
                 "utility.monotonicity": 1e-12, "utility.sup_lipschitz": 1e-9,
                 "utility.concavity": 1e-9}


def serial_utility_checks(config, grid, seed) -> dict:
    """Each axiom's worst residual at seeded grid points: U(0) at zero, cash
    shifts at 10 points, and bumps, sup-norm gaps and convex mixes at 50
    pairs, one allocation per ``evaluate`` call.  The residuals fold with
    ``report._worst``, so a NaN anywhere makes the figure NaN."""
    profile = config.profile
    agents = list(enumerate(profile.evaluators))
    zero = np.zeros((profile.n_agents, config.space.n_states))
    norm = [abs(pc.evaluate(u, zero, i)) for i, u in agents]
    rng = np.random.default_rng([seed, 11_03])
    cash = [pc.check_cash_invariance(u, grid.point(int(k)), i, c)
            for k in rng.integers(0, grid.n_points, size=min(10, grid.n_points))
            for i, u in agents for c in (-10.0, -1.0, 0.0, 1.0, 10.0)]
    mono, sup, conc = [], [], []
    for a, b in rng.integers(0, grid.n_points, size=(min(50, grid.n_points), 2)):
        xa, xb = grid.point(int(a)), grid.point(int(b))
        for i, u in agents:
            ua, ub = pc.evaluate(u, xa, i), pc.evaluate(u, xb, i)
            bumped = xa.copy()
            bumped[i] += 1.0
            mono.append(ua - pc.evaluate(u, bumped, i))
            sup.append(abs(ua - ub) - float(np.abs(xa[i] - xb[i]).max()))
            conc += [t * ua + (1 - t) * ub - pc.evaluate(u, t * xa + (1 - t) * xb, i)
                     for t in (0.25, 0.5, 0.75)]
    return dict(zip(KERNEL_AXIOMS, map(report._worst, (norm, cash, mono, sup, conc))))


def scenario_grid(config):
    return pc.enumerate_grid(config.space, config.x, config.profile.n_agents,
                             config.resolution, state_classes=config.state_classes)


def credal_check_inputs(config):
    """The grid, and the utility matrix and reference columns the report's
    credal checks read."""
    grid = scenario_grid(config)
    ref_vals = {i: utility.evaluate_grid(pc.EntropicUtility(u.gamma, config.space.probs),
                                         grid, i)
                for i, u in enumerate(config.profile.evaluators)
                if len(u.credal.priors) > 1}
    return grid, config.profile.matrix(grid), ref_vals


def test_kernel_axioms_hold_on_every_report_scenario():
    """At each scenario's seed: the bundled and pinned scenarios, the sweep
    pins, and the documents mapped to 1e6 X."""
    configs = [pc.load_scenario(path) for path in BUNDLED_SCENARIOS]
    configs += [pc.scenario_from_dict(pin["scenario"])
                for pin in json.loads(SWEEP_PINS.read_text())]
    configs += [pc.scenario_from_dict(doc) for doc in scaled_sweep_docs().values()]
    assert len(configs) == 5 + 12 + 3
    for config in configs:
        got = serial_utility_checks(config, scenario_grid(config), config.seed)
        assert all(got[name] <= tol for name, tol in KERNEL_AXIOMS.items()), (
            config.name, got)


def test_kernel_axioms_are_warning_free_at_large_exponents():
    # gamma * ||X|| ~ 300 on the max-min scenario: every evaluation,
    # including the cash shifts by 10, runs without overflow.
    doc = json.loads(SCENARIO_FILES["three-agent-maxmin"].read_text())
    for u in doc["utilities"]:
        u["gamma"] *= 100.0
    config = pc.scenario_from_dict(doc)
    assert max(u.gamma for u in config.profile.evaluators) * np.abs(config.x).max() > 300
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        got = serial_utility_checks(config, scenario_grid(config), config.seed)
    assert all(got[name] <= tol for name, tol in KERNEL_AXIOMS.items()), got


def test_utility_checks_reject_a_nan_allocation_stack():
    """``values`` rejects a NaN anywhere in its stack, and a stack with too
    few agent rows."""
    coin = pc.StateSpace(["h", "t"], [0.5, 0.5])
    with pytest.raises(pc.ValidationError, match="NaN"):
        pc.UtilityProfile((pc.EntropicUtility(1.0, coin.probs),)).values(
            np.array([[[0.0, np.nan]], [[1.0, 2.0]]]))
    three = pc.StateSpace(["a", "b", "c"], [0.2, 0.3, 0.5])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, three.probs),) * 3)
    with pytest.raises(pc.StructuralError, match="agents x states"):
        profile.values(np.zeros((4, 2, 3)))


# Planted defects in the kernel: each one must push its axiom's residual
# above tolerance.  A kernel mutant maps the unmutated entry
# ``UtilityProfile._evaluate``, a profile and a payoff table to the values
# ``evaluate`` then reads.
KERNEL_MUTANTS = {
    # U(0) = 1e-3
    "utility.normalization": lambda entry, p, payoff: entry(p, payoff)[0] + 1e-3,
    # U(xi + c) - U(xi) = 1.001 c
    "utility.cash_invariance": lambda entry, p, payoff: 1.001 * entry(p, payoff)[0],
    # U(-xi): decreasing in the payoff
    "utility.monotonicity": lambda entry, p, payoff: entry(p, -payoff)[0],
    # slope 2: |U(a) - U(b)| up to 2 ||a - b||
    "utility.sup_lipschitz": lambda entry, p, payoff: 2.0 * entry(p, payoff)[0],
    # U + U^2: a convex term
    "utility.concavity": lambda entry, p, payoff: (
        lambda v: v + v * v)(entry(p, payoff)[0]),
}
MUTANT_SCENARIOS = [SCENARIOS / "hurricane_three_farmers.json",
                    SCENARIO_FILES["three-agent-maxmin"],
                    SCENARIO_FILES["four-agent-maxmin-single"],
                    SCENARIO_FILES["three-agent-maxmin-classes"]]


def mutated_utility_checks(config, mutant, monkeypatch) -> dict:
    """``serial_utility_checks`` with a kernel mutant planted in
    ``UtilityProfile._evaluate``."""
    grid, entry = scenario_grid(config), utility.UtilityProfile._evaluate
    with monkeypatch.context() as m:
        m.setattr(utility.UtilityProfile, "_evaluate",
                  lambda p, payoff: (mutant(entry, p, payoff),))
        return serial_utility_checks(config, grid, config.seed)


@pytest.mark.parametrize("check", list(KERNEL_MUTANTS))
def test_each_utility_check_fails_on_its_planted_kernel_defect(check, monkeypatch):
    """Each passes unmutated in ``test_kernel_axioms_hold_on_every_report_scenario``."""
    for path in MUTANT_SCENARIOS:
        got = mutated_utility_checks(pc.load_scenario(path), KERNEL_MUTANTS[check],
                                     monkeypatch)
        assert got[check] > KERNEL_AXIOMS[check], (path.name, got)


def test_sampled_utility_checks_fail_on_a_nan_value(monkeypatch):
    """With the last agent's values NaN, each axiom's residuals hold a NaN
    after finite ones, where a Python ``max`` would drop it: each figure
    must be NaN."""
    for path in MUTANT_SCENARIOS:
        config = pc.load_scenario(path)
        last = config.profile.evaluators[-1]

        def nan_last(entry, p, payoff):
            values = entry(p, payoff)[0]
            return values + np.nan if p.evaluators[0] is last else values

        got = mutated_utility_checks(config, nan_last, monkeypatch)
        assert all(np.isnan(v) for v in got.values()), (path.name, got)


# Planted schedule diagnostics: each ``schedule[j].<check>`` passes with its
# field at the check's tolerance, and fails one float above it or at NaN.
# A mutant maps a check to the diagnostic field it reads and its tolerance,
# which the game sets.
SCHEDULE_MUTANTS = {
    "zero_mean": ("zero_mean_residual", lambda game: mechanism.ZERO_MEAN_TOL),
    "lipschitz": ("empirical_lip", lambda game: game.stage_cap + mechanism.LIP_SLACK),
    "sup_norm": ("sup_norm", lambda game: (game.stage_cap * game.grid.diameter[0]
                                           + mechanism.LIP_SLACK)),
}


@pytest.mark.parametrize("check", list(SCHEDULE_MUTANTS))
def test_each_schedule_check_fails_on_its_planted_diagnostic(check):
    field, tol = SCHEDULE_MUTANTS[check]
    for path in MUTANT_SCENARIOS:
        config = pc.load_scenario(path)
        grid = pc.enumerate_grid(config.space, config.x, config.profile.n_agents,
                                 config.resolution, state_classes=config.state_classes)
        game = pc.calibrate(config.profile, grid, cap=config.lipschitz_cap)
        transcript = pc.run_pnc(game, "exact")
        scan = pc.menu.lipschitz_scan(grid)
        for j, diag in enumerate(transcript.diagnostics):
            for planted, passed in [(tol(game), True),
                                    (np.nextafter(tol(game), np.inf), False),
                                    (np.nan, False)]:
                diagnostics = list(transcript.diagnostics)
                diagnostics[j] = dataclasses.replace(diag, **{field: planted})
                mutant = dataclasses.replace(transcript, diagnostics=tuple(diagnostics))
                records = {c["name"]: c for c in
                           report._schedule_checks(mutant, game, scan)}
                assert records[f"schedule[{j}].{check}"]["passed"] is passed, (
                    path.name, j, planted)


def test_maxmin_dominance_fails_on_a_lowered_reference_column():
    """A reference column lowered by 1e-9 puts the max-min value above it.
    On a profile of single-prior agents the check reads no column, so no
    defect in the columns can turn it false there."""
    for path in MUTANT_SCENARIOS:
        config = pc.load_scenario(path)
        grid, umat, ref_vals = credal_check_inputs(config)
        lowered = {i: ref - 1e-9 for i, ref in ref_vals.items()}

        def dominance(columns):
            found = report._credal_checks(config, umat, columns)
            return next(c for c in found if c["name"] == "utility.maxmin_dominance")

        assert dominance(ref_vals)["passed"]
        if path.name == "hurricane_three_farmers.json":
            assert ref_vals == {} and dominance(lowered)["value"] == 0.0
        else:
            assert ref_vals and not dominance(lowered)["passed"], path.name


def nan_mutant_run(path) -> SimpleNamespace:
    """What a NaN mutant plants into: the scenario, its game, the exact
    order-0..n-1 transcript, every auction branch, the reference columns,
    and ``off``, a grid point other than the chosen one."""
    config = pc.load_scenario(path)
    grid, _, ref_vals = credal_check_inputs(config)
    game = pc.calibrate(config.profile, grid, cap=config.lipschitz_cap)
    exact = pc.run_pnc(game, "exact")
    branches = [pc.run_auction_then_pnc(game, config.seed, winner=w)
                for w in range(game.n_agents)]
    return SimpleNamespace(config=config, game=game, exact=exact, branches=branches,
                           ref_vals=ref_vals, off=(exact.chosen + 1) % grid.n_points)


def _nan_at(values, k) -> np.ndarray:
    planted = np.array(values, dtype=float)
    planted[k] = np.nan
    return planted


def _nan_follower_payoff(r):
    return report._mechanism_checks(dataclasses.replace(
        r.exact, payoffs=_nan_at(r.exact.payoffs, r.exact.order[-1])), r.game)


def _nan_last_schedule(r):
    *kept, last = r.exact.schedules
    planted = pc.PriceSchedule(_nan_at(last.values, r.off), last.declared_lip)
    return report._mechanism_checks(
        dataclasses.replace(r.exact, schedules=(*kept, planted)), r.game)


def _nan_reference_column(r):
    first = min(r.ref_vals)
    columns = {**r.ref_vals, first: _nan_at(r.ref_vals[first], 0)}
    return report._credal_checks(r.config, r.game.umat, columns)


def _nan_branch_welfare(r):
    off = dataclasses.replace(r.branches[1], transcript=dataclasses.replace(
        r.branches[1].transcript, chosen=r.off))
    game = dataclasses.replace(r.game, welfare=_nan_at(r.game.welfare, r.off))
    return report._auction_checks(r.branches[0], [r.branches[0], off], game)


# NaN mutants: one NaN among the residuals a check folds into its worst
# value, placed after a finite one (an earlier residual or the 0.0 floor),
# where a Python ``max`` would drop it; the check must fail with a null
# value.  A mutant maps a ``nan_mutant_run`` to the records of the check's
# family.
NAN_MUTANTS = {
    # one follower's payoff
    "mechanism.payoff_identity": _nan_follower_payoff,
    "mechanism.follower_payoffs": _nan_follower_payoff,
    # the last posted schedule, off the chosen point
    "mechanism.indifference": _nan_last_schedule,
    # the first reference column, at point 0
    "utility.maxmin_dominance": _nan_reference_column,
    # the welfare of a point that winner 1's branch chooses
    "auction.efficiency_preserved": _nan_branch_welfare,
}


@pytest.mark.parametrize("check", list(NAN_MUTANTS))
def test_each_folded_check_fails_on_a_nan_residual(check):
    for path in MUTANT_SCENARIOS:
        r = nan_mutant_run(path)
        if check == "utility.maxmin_dominance" and not r.ref_vals:
            continue    # single-prior agents: the check reads no column
        record = next(c for c in NAN_MUTANTS[check](r) if c["name"] == check)
        assert not record["passed"] and record["value"] is None, (path.name, record)


BUNDLED_SCENARIOS = [SCENARIOS / "two_agent_hand.json",
                     SCENARIOS / "hurricane_three_farmers.json", *SCENARIO_FILES.values()]


def test_one_surplus_dict_and_the_game_bounds_in_every_bundled_report():
    """Both surplus sections are the one dict of eta, W_max and the averages;
    eta, the bid audit and every schedule's Lipschitz bound are the game's."""
    for path in BUNDLED_SCENARIOS:
        config = pc.load_scenario(path)
        rep = pc.run_experiment(config)
        grid = pc.enumerate_grid(config.space, config.x, config.profile.n_agents,
                                 config.resolution, state_classes=config.state_classes)
        game = pc.calibrate(config.profile, grid, cap=config.lipschitz_cap)
        assert rep["auction"]["surplus"] == rep["surplus"], path.name
        assert rep["surplus"]["eta"] == pc.efficient_surplus(game), path.name
        assert (rep["surplus"]["welfare_max"], rep["surplus"]["averages"]) == (
            game.welfare_max, game.averages.tolist()), path.name
        assert rep["audits"]["bids"]["max_gain"] == pc.audit_bid_deviation(game)
        lipschitz = [c["tol"] for c in rep["invariants"]
                     if c["name"].startswith("schedule[") and c["name"].endswith(".lipschitz")]
        assert len(lipschitz) == game.n_agents - 1, path.name
        assert set(lipschitz) == {game.stage_cap + mechanism.LIP_SLACK}, path.name


# Mutation coverage: every invariant name of the nine bundled reports, with
# ``schedule[<j>]`` read as ``schedule[j]``, maps to the test (``<file>::<name>``
# under tests/) that plants a defect its check must catch, or is listed in
# ``UNMUTATED``, the checks no test plants a defect for yet.
_MUTANT_TESTS = {
    "test_metric_checks_fail_on_a_negative_or_non_finite_weight": (
        "metric.identity", "metric.symmetry", "metric.triangle"),
    "test_each_schedule_check_fails_on_its_planted_diagnostic": (
        "schedule[j].zero_mean", "schedule[j].lipschitz", "schedule[j].sup_norm"),
    "test_each_folded_check_fails_on_a_nan_residual": (
        "mechanism.payoff_identity", "mechanism.follower_payoffs",
        "mechanism.indifference"),
    "test_maxmin_dominance_fails_on_a_lowered_reference_column": (
        "utility.maxmin_dominance",),
    "test_efficiency_check_fails_on_a_non_maximizing_branch": (
        "auction.efficiency_preserved",),
    "test_winner_check_fails_on_a_lowered_winning_bid": ("auction.winner_argmax",),
    "test_value_sum_check_fails_on_a_shifted_welfare_value": ("welfare.value_sum",),
}
MUTANT_TESTS = {name: f"test_report.py::{test}"
                for test, names in _MUTANT_TESTS.items() for name in names}
UNMUTATED = {
    "welfare.argmax_feasible", "mechanism.telescoping", "mechanism.leader_payoff",
    "mechanism.efficiency", "mechanism.perturbed_target", "auction.transfers_sum",
    "auction.fair_split", "auction.equal_split", "auction.total_is_wmax",
    "auction.winner_invariance", "audit.first_mover_bound", "audit.bid_deviations",
}


def test_every_report_check_has_a_mutant_or_is_listed_unmutated():
    names = {re.sub(r"^schedule\[\d+\]", "schedule[j]", c["name"])
             for scenario, command in BUNDLED_RUNS for c in json.loads(
                 (RECORDED / f"{scenario}.{command}.json").read_text())["invariants"]}
    assert not MUTANT_TESTS.keys() & UNMUTATED
    assert sorted(names - MUTANT_TESTS.keys() - UNMUTATED) == [], "unregistered checks"
    assert sorted((MUTANT_TESTS.keys() | UNMUTATED) - names) == [], "stale entries"
    tests = Path(__file__).resolve().parent
    for entry in set(MUTANT_TESTS.values()):
        path, test = entry.split("::")
        defined = {node.name for node in ast.parse((tests / path).read_text()).body
                   if isinstance(node, ast.FunctionDef)}
        assert test in defined, entry
