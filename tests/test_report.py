"""run_experiment builds one Game and reuses it; the auction checks can fail."""

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
