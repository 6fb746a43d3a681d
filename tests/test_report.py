"""run_experiment builds one Game and reuses it; its checks can fail and record
their margins; the report does not grow with the menu."""

import dataclasses
import sys
from pathlib import Path

import numpy as np

import pricechoose as pc
from pricechoose import mechanism, report, utility

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
    """n = 3: one utility matrix and one set of averages; n + 1 mechanism runs
    (the main one and one per auction branch), each validating its n - 1
    schedules once; calibration reads the matrix instead of re-evaluating."""
    config = pc.load_scenario(SCENARIOS / "hurricane_three_farmers.json")
    assert config.profile.n_agents == 3 and config.mode == "exact"
    calls = {
        "matrix": count_calls(monkeypatch, utility.UtilityProfile, "matrix"),
        "average_utilities": count_calls(monkeypatch, utility, "average_utilities"),
        "run_pnc": count_calls(monkeypatch, mechanism, "run_pnc"),
        "validate_schedule": count_calls(monkeypatch, mechanism, "validate_schedule"),
        "evaluate_grid": count_calls(monkeypatch, utility, "evaluate_grid"),
    }
    result = pc.run_experiment(config)
    assert result["all_invariants_pass"]
    assert {k: len(v) for k, v in calls.items()} == {
        "matrix": 1, "average_utilities": 1, "run_pnc": 4,
        "validate_schedule": 8, "evaluate_grid": 0}


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
    assert check["detail"] == "every branch implements the welfare maximum"
    assert check["value"] > check["tol"] == 1e-9


def _lists(node):
    """Every list in a JSON document, nested ones included."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _lists(v)
    elif isinstance(node, list):
        yield node
        for v in node:
            yield from _lists(v)


def test_report_size_is_independent_of_the_menu_size():
    """Schedules enter the report as fixed-size summaries: on a multi-class
    menu, 15x more points change the document by a few digits."""
    base = pc.load_scenario(SCENARIOS / "hurricane_three_farmers.json")
    texts = {}
    for resolution in (2, 4):
        config = base.with_overrides(resolution=resolution,
                                     state_classes=[0, 1, 1, 2, 1, 2, 2, 3])
        result = pc.run_experiment(config)
        assert result["all_invariants_pass"] and result["grid"]["n_classes"] == 3
        longest = max(len(node) for node in _lists(result))
        assert longest <= len(result["invariants"])
        texts[result["grid"]["n_points"]] = pc.structured_text(result)
    (small, a), (large, b) = sorted(texts.items())
    assert large >= 10 * small
    assert abs(len(a) - len(b)) < 1024


STRUCTURAL_CHECKS = {"utility.credal_sets", "welfare.argmax_feasible",
                     "auction.winner_argmax", "mechanism.perturbed_target"}
LOWER_BOUND_CHECKS = {"space.probs_positive", "grid.weights_positive"}


def test_invariants_record_their_margins():
    """Numeric checks carry value and tol; the verdict is the comparison."""
    for mode in ("exact", "perturbed"):
        config = pc.load_scenario(SCENARIOS / "hurricane_three_farmers.json")
        result = pc.run_experiment(config.with_overrides(mode=mode))
        for check in result["invariants"]:
            assert set(check) == {"name", "passed", "detail", "value", "tol"}
            name, value, tol = check["name"], check["value"], check["tol"]
            if name in STRUCTURAL_CHECKS:
                assert value is None and tol is None
                continue
            assert isinstance(value, float) and isinstance(tol, float)
            if name in LOWER_BOUND_CHECKS:
                assert check["passed"] == (value > tol) and tol == 0.0
            elif name != "menu.sign_anchoring":
                assert check["passed"] == (value <= tol)
            assert check["passed"], check


def test_non_finite_margin_is_recorded_as_null():
    check = report._bound("x", float("nan"), 1e-9, "residual nan")
    assert check["value"] is None and check["tol"] == 1e-9
    assert not check["passed"]
    assert '"value": null' in pc.structured_text({"invariants": [check]})
