import json

import numpy as np
import pytest

import pricechoose as pc
from pricechoose.mechanism import default_epsilon


def exact_run(profile, grid):
    game = pc.calibrate(profile, grid)
    return game.umat, game, pc.run_pnc(game)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("resolution", [8, 30])      # exhaustive, sampled pairs
def test_calibrate_matches_per_utility_estimates(two_state, resolution):
    """Estimates from the matrix columns equal estimate_lipschitz's own grid
    evaluation bit for bit, and a miscalibrated declared bound still warns."""
    space, x, profile, _ = two_state
    grid = pc.enumerate_grid(space, x, 2, resolution)
    mm = pc.MaxMinUtility(1.5, pc.CredalSet(
        np.array([[0.6, 0.4], [0.3, 0.7]]), space.probs, lip_bound=1e-9))
    profile = pc.UtilityProfile((profile.evaluators[0], mm))
    with pytest.warns(UserWarning, match="miscalibrated"):
        game = pc.calibrate(profile, grid)
    with pytest.warns(UserWarning, match="miscalibrated"):
        expected = [pc.estimate_lipschitz(u, grid, i)
                    for i, u in enumerate(profile.evaluators)]
    assert game.agent_lipschitz.tolist() == expected
    assert game.cap == 1.5 * max(expected)
    umat = profile.matrix(grid)
    assert np.array_equal(game.umat, umat)
    assert game.averages.tolist() == [pc.integrate(grid, umat[:, i]) for i in range(2)]
    assert game.welfare_max == float(umat.sum(axis=1).max())


# ---------------------------------------------------------------------------
# equalizing schedules
# ---------------------------------------------------------------------------

def test_equalizing_hand_example(hand):
    _, _, profile, grid = hand
    p = pc.equalizing_price(pc.calibrate(profile, grid), 0)
    assert p.values == pytest.approx([-0.5, 0.0, 0.5], abs=1e-12)
    u2 = pc.evaluate_grid(profile.evaluators[1], grid, 1)
    net = u2 - p.values
    assert net == pytest.approx([-0.5, -0.5, -0.5], abs=1e-12)


def test_equalizing_constant_welfare_is_zero():
    space = pc.StateSpace(["a"], [1.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(1.0, space.probs)))
    grid = pc.enumerate_grid(space, np.array([0.0]), 2, 3)
    p = pc.equalizing_price(pc.calibrate(profile, grid), 0)
    assert np.all(p.values == 0.0)


def test_equalizing_indifference_spread(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    p = pc.equalizing_price(game, 0)
    net = game.umat[:, 1] - p.values
    assert float(net.max() - net.min()) <= 1e-9


def test_equalizer_is_unique_given_normalization(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    p_star = pc.equalizing_price(game, 0)
    # any schedule flattening the net payoff, once zero-meaned, is the same
    flat = game.umat[:, 1] - 7.3
    candidate = flat - pc.integrate(grid, flat)
    assert candidate == pytest.approx(p_star.values, abs=1e-9)


def test_equalizing_zero_mean_and_admissible(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    p = pc.equalizing_price(game, 0)
    diag = pc.validate_schedule(p, grid, game.stage_cap)
    assert diag.ok
    assert diag.zero_mean_residual <= 1e-9


def test_equalizing_rejects_too_small_cap(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid, cap=1e-8)
    with pytest.raises(pc.ConfigurationError, match="too small"):
        pc.equalizing_price(game, 0)


def test_equalizing_leader_range(two_state):
    _, _, profile, grid = two_state
    with pytest.raises(pc.StructuralError):
        pc.equalizing_price(pc.calibrate(profile, grid), 1)


# ---------------------------------------------------------------------------
# perturbed schedules
# ---------------------------------------------------------------------------

def test_bump_is_one_at_target_below_elsewhere(two_state):
    _, _, _, grid = two_state
    psi = pc.bump_profile(grid, 40, 0.1)
    assert psi[40] == 1.0
    others = np.delete(psi, 40)
    assert np.all(others < 1.0)
    assert np.all(others > 0.0)


def test_perturbed_tends_to_base_as_epsilon_vanishes(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    base = pc.equalizing_price(game, 0)
    eps = 1e-12
    p = pc.perturbed_price(base, grid, 0, eps, 0.1, game.stage_cap)
    assert float(np.abs(p.values - base.values).max()) <= 2 * eps


def test_perturbed_unique_argmax_hand(hand):
    _, _, profile, grid = hand
    game = pc.calibrate(profile, grid)
    base = pc.equalizing_price(game, 0)
    eps = default_epsilon(0.1, game.stage_cap, base.declared_lip)
    p = pc.perturbed_price(base, grid, 0, eps, 0.1, game.stage_cap)
    net = pc.evaluate_grid(profile.evaluators[1], grid, 1) - p.values
    assert int(np.argmax(net)) == 0
    assert net[0] > np.delete(net, 0).max()
    diag = pc.validate_schedule(p, grid, game.stage_cap)
    assert diag.ok


def test_perturbed_parameter_errors(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    base = pc.equalizing_price(game, 0)
    cap = game.stage_cap
    with pytest.raises(pc.ParameterError):
        pc.perturbed_price(base, grid, 0, -0.1, 0.1, cap)
    with pytest.raises(pc.ParameterError):
        pc.perturbed_price(base, grid, 0, 10 * 0.1 * (cap - base.declared_lip),
                           0.1, cap)
    with pytest.raises(pc.ParameterError):
        pc.perturbed_price(base, grid, 0, 1e-3, 1.5, cap)


# ---------------------------------------------------------------------------
# follower best response
# ---------------------------------------------------------------------------

def test_best_response_zero_price_maximizes_raw_tail(two_state):
    _, _, profile, grid = two_state
    u2 = pc.evaluate_grid(profile.evaluators[1], grid, 1)
    zero = pc.PriceSchedule(np.zeros(grid.n_points), 0.0)
    br = pc.follower_best_response(u2, zero, grid)
    assert br.index == int(np.argmax(u2))
    assert br.rule == "net-argmax"


def test_best_response_tie_breaks_low():
    space = pc.StateSpace(["w"], [1.0])
    grid = pc.enumerate_grid(space, np.array([-1.0]), 2, 2)
    tail = np.array([1.0, 1.0, 0.0])
    zero = pc.PriceSchedule(np.zeros(3), 0.0)
    assert pc.follower_best_response(tail, zero, grid).index == 0


def test_best_response_spne_selection_under_equalizer(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    umat = game.umat
    p = pc.equalizing_price(game, 0)
    w = umat.sum(axis=1)
    br = pc.follower_best_response(umat[:, 1], p, grid, selection_values=w)
    assert br.rule == "spne-welfare-argmax"
    assert br.index == int(np.argmax(w))


def test_best_response_constant_shift_leaves_argmax():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(2.0, space.probs)))
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.0]), 2, 5)
    u2 = pc.evaluate_grid(profile.evaluators[1], grid, 1)
    base = pc.equalizing_price(pc.calibrate(profile, grid), 0)
    bumped = pc.perturbed_price(base, grid, 7, 1e-3, 0.1, 1e9)
    for c in (0.5, -2.0, 10.0):
        shifted = pc.PriceSchedule(bumped.values + c, bumped.declared_lip)
        assert pc.follower_best_response(u2, shifted, grid).index == \
            pc.follower_best_response(u2, bumped, grid).index


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_constant_utilities_all_zero_schedules():
    space = pc.StateSpace(["a"], [1.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(1.0, space.probs)))
    grid = pc.enumerate_grid(space, np.array([0.0]), 2, 1)
    t = pc.run_pnc(pc.calibrate(profile, grid))
    assert all(np.all(s.values == 0.0) for s in t.schedules)
    assert t.payoffs.tolist() == [0.0, 0.0]


def test_run_hand_scenario_payoffs(hand):
    _, _, profile, grid = hand
    umat, _, t = exact_run(profile, grid)
    # follower nets are flat, so the welfare selection rule fires
    assert t.selection_rule == "spne-welfare-argmax"
    avg2 = pc.integrate(grid, umat[:, 1])
    wmax = float(umat.sum(axis=1).max())
    assert t.payoffs[1] == pytest.approx(avg2, abs=1e-9)
    assert t.payoffs[0] == pytest.approx(wmax - avg2, abs=1e-9)


def test_run_risk_neutral_scenario_chooses_vertex():
    space = pc.StateSpace(["calm", "storm"], [0.5, 0.5])
    x = np.array([0.0, -1.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(2.0, space.probs),
                                 pc.EntropicUtility(1e-6, space.probs)))
    grid = pc.enumerate_grid(space, x, 2, 4)
    umat, _, t = exact_run(profile, grid)
    assert np.array_equal(grid.point(t.chosen)[1], x)
    assert t.payoffs[1] == pytest.approx(pc.integrate(grid, umat[:, 1]), abs=1e-9)


def test_run_three_agents_matches_closed_form():
    from conftest import hurricane_space
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in (1.0, 2.0, 4.0)))
    grid = pc.enumerate_grid(space, x, 3, 7, state_classes="single")
    umat, _, t = exact_run(profile, grid)
    cf = pc.closed_form_entropic(profile, x, space.probs)
    chosen_welfare = float(umat[t.chosen].sum())
    assert chosen_welfare == pytest.approx(cf.value, abs=1e-12)
    for i in (1, 2):
        assert t.payoffs[i] == pytest.approx(pc.integrate(grid, umat[:, i]), abs=1e-9)
    assert float(t.payoffs.sum()) == pytest.approx(chosen_welfare, abs=1e-9)


def test_run_transfers_telescope(two_state):
    _, _, profile, grid = two_state
    umat, _, t = exact_run(profile, grid)
    assert float(t.payoffs.sum()) == pytest.approx(float(umat[t.chosen].sum()),
                                                   abs=1e-9)
    # payoff identity agrees with a direct recomputation from the schedules
    paid = [0.0] + [s.values[t.chosen] for s in t.schedules] + [0.0]
    for pos, agent in enumerate(t.order):
        manual = umat[t.chosen, agent] - paid[pos] + paid[pos + 1]
        assert t.payoffs[agent] == pytest.approx(manual, abs=1e-14)


def test_run_perturbed_selects_target(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    umat = game.umat
    t = pc.run_pnc(game, "perturbed")
    assert t.mode == "perturbed"
    assert t.chosen == t.target == int(np.argmax(umat.sum(axis=1)))
    assert t.epsilon is not None and t.iota == 0.1
    net = umat[:, t.order[-1]] - t.schedules[-1].values
    runner_up = np.sort(net)[-2]
    assert net[t.chosen] > runner_up


def test_run_perturbed_epsilon_validated(two_state):
    _, _, profile, grid = two_state
    with pytest.raises(pc.ParameterError):
        pc.run_pnc(pc.calibrate(profile, grid), "perturbed", epsilon=1e6)


def test_run_with_order_permutes_roles(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    umat = game.umat
    t = pc.run_pnc(game, order=[1, 0])
    wmax = float(umat.sum(axis=1).max())
    avg0 = pc.integrate(grid, umat[:, 0])
    assert t.payoffs[0] == pytest.approx(avg0, abs=1e-9)
    assert t.payoffs[1] == pytest.approx(wmax - avg0, abs=1e-9)


def test_run_rejects_bad_mode_and_order(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    with pytest.raises(pc.ParameterError):
        pc.run_pnc(game, "other")
    with pytest.raises(pc.StructuralError):
        pc.run_pnc(game, order=[0, 0])


def test_transcript_roundtrip(two_state):
    """The serialized transcript survives JSON exactly; diagnostics stay out."""
    _, _, profile, grid = two_state
    t = pc.run_pnc(pc.calibrate(profile, grid), "perturbed")
    back = json.loads(json.dumps(t.to_dict()))
    assert "diagnostics" not in back
    assert back["chosen"] == t.chosen and tuple(back["order"]) == t.order
    assert back["mode"] == t.mode and back["epsilon"] == t.epsilon
    assert np.array_equal(back["payoffs"], t.payoffs)
    for a, b in zip(back["schedules"], t.schedules):
        assert np.array_equal(a["values"], b.values)
        assert a["declared_lip"] == b.declared_lip


# ---------------------------------------------------------------------------
# first-mover deviation audit
# ---------------------------------------------------------------------------

def test_audit_zero_deviations_reports_none(two_state):
    _, _, profile, grid = two_state
    _, game, t = exact_run(profile, grid)
    audit = pc.audit_first_mover_bound(game, t, 0)
    assert audit.max_gain is None and audit.num_deviations == 0


def test_audit_epsilon_sweep_matches_proof_identity(two_state):
    """Deviating to the bump family loses exactly eps * (1 - beta)."""
    _, _, profile, grid = two_state
    umat, game, t = exact_run(profile, grid)
    base = t.schedules[0]
    target = int(np.argmax(umat.sum(axis=1)))
    psi = pc.bump_profile(grid, target, 0.1)
    beta = pc.integrate(grid, psi)
    wmax = float(umat.sum(axis=1).max())
    avg2 = pc.integrate(grid, umat[:, 1])
    eps_cap = 0.1 * (game.stage_cap - base.declared_lip)
    equilibrium = float(t.payoffs[t.order[0]])
    for frac in (0.2, 0.5, 0.9):
        eps = frac * eps_cap
        dev = pc.perturbed_price(base, grid, target, eps, 0.1, game.stage_cap)
        response = int(np.argmax(umat[:, 1] - dev.values))
        assert response == target
        payoff = float(umat[response, 0] + dev.values[response])
        assert payoff == pytest.approx(wmax - avg2 - eps * (1.0 - beta), abs=1e-12)
        assert payoff < equilibrium


def test_audit_hundred_random_deviations_never_gain(two_state):
    _, _, profile, grid = two_state
    _, game, t = exact_run(profile, grid)
    audit = pc.audit_first_mover_bound(game, t, 100, seed=11)
    assert audit.num_deviations == 100
    assert audit.max_gain <= 1e-9


def test_audit_requires_exact_transcript(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    t = pc.run_pnc(game, "perturbed")
    with pytest.raises(pc.ParameterError):
        pc.audit_first_mover_bound(game, t, 5)
