import hashlib
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pricechoose as pc
from conftest import deviation_gain, hurricane_space, sampled_deviations
from pricechoose.mechanism import (
    _auction_tails,
    _equalize,
    _payoffs_from_schedules,
    _sup_norm,
    _tail_values,
    default_epsilon,
)

BLOCK_SCENARIOS = {
    "hurricane": Path(pc.__file__).resolve().parent / "scenarios"
    / "hurricane_three_farmers.json",
    "four-agent": Path(__file__).resolve().parent / "data" / "four_agent_maxmin_single.json",
}


def exact_run(profile, grid):
    game = pc.calibrate(profile, grid)
    return game.umat, game, pc.run_pnc(game)


def equalizer(game, leader=0, order=None):
    """The equalizing schedule ``leader`` posts, in posting order ``order``
    (0..n-1 by default), as ``run_pnc`` builds it."""
    order = list(range(game.n_agents)) if order is None else order
    return _equalize(game, leader, order)[0]


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


@pytest.mark.parametrize("cap", [float("nan"), float("inf")])
def test_calibrate_rejects_a_non_finite_cap(cap):
    """A nan cap used to surface as a misleading too-small-cap error in
    run_pnc, and an infinite one passed every Lipschitz and sup-norm bound."""
    space, endow = hurricane_space()
    grid = pc.enumerate_grid(space, pc.aggregate_risk(endow), 3, 10,
                             state_classes="single")
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in (1.0, 2.0, 4.0)))
    with pytest.raises(pc.ParameterError, match="finite and positive"):
        pc.calibrate(profile, grid, cap=cap)


# ---------------------------------------------------------------------------
# exact Lipschitz constants on one share class
# ---------------------------------------------------------------------------

UNIT = 2.0 ** -53
DATA = Path(__file__).resolve().parent / "data"


def assert_exact_matches_exhaustive(game):
    """Every agent constant and every auction tail's schedule constant
    against the exhaustive float pair ratio of its vector.  The exact
    figure L is attained by a one-unit transfer, a grid pair, so the two
    differ only by rounding (the derivation is in CHANGES.md): with
    delta = (2r + n + 10) u, A the largest agent constant, E the rounding
    of the vector's entries and d_min the smallest nonzero distance,

        |L - ratio| <= (1 + delta) (delta max(L, ratio) + 2 u A + 2 E / d_min).
    """
    grid, umat, n = game.grid, game.umat, game.n_agents
    assert grid.n_classes == 1 and grid.n_points <= 512
    r = grid.resolution
    omega = np.sort(grid._metric[0][0])
    d_min = (omega[0] + omega[1]) / r
    delta = (2 * r + n + 10) * UNIT
    figures = [(game.agent_lipschitz[j], umat[:, j], 0.0) for j in range(n)]
    for tail in sorted(_auction_tails(n)):
        order = [i for i in range(n) if i not in tail] + list(tail)
        schedule, diag = _equalize(game, n - 1 - len(tail), order)
        summed = np.abs(umat[:, list(tail)]).sum(axis=1).max()
        rounding = ((len(tail) - 1) * summed + _sup_norm(schedule.values)) * UNIT
        figures.append((diag.lipschitz, schedule.values, rounding))
    for figure, values, rounding in figures:
        ratio = pc.lipschitz_ratio(values, grid, exhaustive_threshold=grid.n_points)
        bound = (1 + delta) * (delta * max(figure, ratio)
                               + 2 * UNIT * game.agent_lipschitz.max() + 2 * rounding / d_min)
        assert abs(figure - ratio) <= bound, (figure, ratio, bound)


def single_class_games():
    """Every single-class grid of at most 512 points the suite runs: the
    hand, the hurricane at low resolutions, the four-agent max-min
    scenario and the two-agent single-class sweep pin."""
    space, endow = hurricane_space()
    hurricane = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                        for g in (1.0, 2.0, 4.0)))
    for r in (1, 6, 10, 30):
        yield f"hurricane-r{r}", hurricane, pc.enumerate_grid(
            space, pc.aggregate_risk(endow), 3, r, state_classes="single")
    pin = next(p["scenario"] for p in json.loads((DATA / "sweep_pins.json").read_text())
               if p["scenario"]["name"] == "sweep-2x2-single")
    for config in (pc.load_scenario(BLOCK_SCENARIOS["hurricane"].with_name("two_agent_hand.json")),
                   pc.load_scenario(BLOCK_SCENARIOS["four-agent"]),
                   pc.scenario_from_dict(pin, source=pin["name"])):
        yield config.name, config.profile, pc.enumerate_grid(
            config.space, config.x, config.profile.n_agents, config.resolution,
            state_classes=config.state_classes)


SINGLE_CLASS_GAMES = {name: (profile, grid) for name, profile, grid in single_class_games()}


@pytest.mark.parametrize("name", list(SINGLE_CLASS_GAMES))
def test_exact_constants_match_the_exhaustive_scan(name):
    profile, grid = SINGLE_CLASS_GAMES[name]
    game = pc.calibrate(profile, grid)
    assert game.transfers is not None
    assert_exact_matches_exhaustive(game)


@st.composite
def single_class_scenarios(draw):
    """n = 2-4 agents over 1-4 states of nonzero risk, r <= 12, each agent
    entropic or max-min over up to three priors."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
    space = pc.StateSpace([f"s{w}" for w in range(m)], weights / weights.sum())
    x = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.5]),
                               min_size=m, max_size=m)))
    evaluators = []
    for _ in range(n):
        gamma = draw(st.floats(0.2, 3.0))
        tilts = draw(st.lists(st.lists(st.floats(-0.6, 0.6), min_size=m, max_size=m),
                              max_size=2))
        priors = [space.probs] + [t / t.sum() for t in
                                  (space.probs * np.exp(np.array(v)) for v in tilts)]
        evaluators.append(pc.MaxMinUtility(gamma, pc.CredalSet(np.array(priors),
                                                               space.probs)))
    grid = pc.enumerate_grid(space, x, n, draw(st.integers(1, 12)), state_classes="single")
    return pc.UtilityProfile(tuple(evaluators)), grid


@given(single_class_scenarios())
@settings(max_examples=40, deadline=None)
def test_exact_constants_match_the_exhaustive_scan_on_drawn_scenarios(scenario):
    assert_exact_matches_exhaustive(pc.calibrate(*scenario))


def test_transfer_table_matches_a_scan_of_every_transfer():
    """Each entry of the transfer table is the largest change per unit cost
    over every one-unit transfer a grid holds, scanned point by point."""
    config = pc.load_scenario(BLOCK_SCENARIOS["four-agent"])
    grid = pc.enumerate_grid(config.space, config.x, 4, 6, state_classes="single")
    game = pc.calibrate(config.profile, grid)
    omega, r = grid._metric[0][0], grid.resolution
    levels = np.array([[game.umat[np.flatnonzero(grid.counts[:, j] == level)[0], j]
                        for level in range(r + 1)] for j in range(4)])
    expected = np.zeros((4, 4, 3))
    for c in grid.counts:
        for a, b in itertools.permutations(range(4), 2):
            if c[a] == 0:
                continue
            down = levels[a, c[a] - 1] - levels[a, c[a]]
            up = levels[b, c[b] + 1] - levels[b, c[b]]
            for k, change in enumerate((down + up, down, up)):
                expected[a, b, k] = max(expected[a, b, k],
                                        abs(change) * r / (omega[a] + omega[b]))
    assert np.allclose(game.transfers, expected, rtol=1e-13, atol=0.0)


def test_a_declared_bound_below_the_exact_constant_warns():
    """On the bundled single-class hurricane (2,556 points) agent 0's
    sampled estimate fell short of its exact constant; a declared bound
    between the two passed unseen, and now warns, from ``calibrate`` and
    from ``estimate_lipschitz``, which reads the same transfer table and
    gives every agent's constant bit for bit."""
    config = pc.load_scenario(BLOCK_SCENARIOS["hurricane"])
    grid = pc.enumerate_grid(config.space, config.x, 3, config.resolution,
                             state_classes=config.state_classes)
    constants = pc.calibrate(config.profile, grid).agent_lipschitz
    assert [pc.estimate_lipschitz(u, grid, i) for i, u in
            enumerate(config.profile.evaluators)] == constants.tolist()
    exact = constants[0]
    sampled = pc.lipschitz_ratio(config.profile.matrix(grid)[:, 0], grid)
    assert sampled < 0.95 * exact
    gamma = config.profile.evaluators[0].gamma
    for declared, warns in [(0.5 * (sampled + exact), True), (1.01 * exact, False)]:
        bounded = pc.MaxMinUtility(gamma, pc.CredalSet(
            config.space.probs[None], config.space.probs, lip_bound=declared))
        profile = pc.UtilityProfile((bounded, *config.profile.evaluators[1:]))
        for estimate in (lambda: pc.calibrate(profile, grid).agent_lipschitz[0],
                         lambda: pc.estimate_lipschitz(bounded, grid, 0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert estimate() == exact
            assert any("miscalibrated" in str(w.message) for w in caught) is warns


# ---------------------------------------------------------------------------
# the game's block
# ---------------------------------------------------------------------------

def block_game(name):
    config = pc.load_scenario(BLOCK_SCENARIOS[name])
    grid = pc.enumerate_grid(config.space, config.x, config.profile.n_agents,
                             config.resolution, state_classes=config.state_classes)
    return config, pc.calibrate(config.profile, grid)


@pytest.mark.parametrize("name", list(BLOCK_SCENARIOS))
def test_auction_schedules_fill_the_calibrated_block(name):
    """umat, W and every schedule the n auction branches post are rows of one
    block: its reserved tail rows are exactly used up."""
    config, game = block_game(name)
    n = game.n_agents
    posted = [s for w in range(n) for s in
              pc.run_auction_then_pnc(game, config.seed, winner=w).transcript.schedules]
    block = game.umat.base
    assert block.shape == (2 * n + 2 + (n - 2) * (n + 1) // 2, game.grid.n_points)
    assert game.umat.flags.f_contiguous and not game.umat.flags.writeable
    assert not game.welfare.flags.writeable
    for vector in [game.umat, game.welfare, game._scratch] + [s.values for s in posted]:
        assert vector.base is block and np.shares_memory(vector, block)
    assert not any(s.values.flags.writeable for s in posted)
    assert len(game._schedules) == n + (n - 2) * (n + 1) // 2
    assert game._spare == []


def test_every_posting_order_posts_its_tail_schedules():
    """All 3! orders need rows beyond the reserved ones; each schedule is
    still its tail minus the tail's mean, bit for bit, and so are the
    payoffs."""
    config, game = block_game("hurricane")
    umat, grid = game.umat, game.grid
    for order in itertools.permutations(range(3)):
        order = list(order)
        transcript = pc.run_pnc(game, order=order)
        expected = []
        for k in range(1, 3):
            tail = _tail_values(umat, order, k)
            expected.append(pc.PriceSchedule(tail - pc.integrate(grid, tail), 0.0))
        for got, want in zip(transcript.schedules, expected):
            assert got.values.tobytes() == want.values.tobytes()
        assert transcript.payoffs.tobytes() == _payoffs_from_schedules(
            umat, order, expected, transcript.chosen).tobytes()
    values = [s.values for s, _ in game._schedules.values()]
    assert len(values) == 9 and not any(v.flags.writeable for v in values)
    bases = {id(v.base) for v in values}
    assert len(bases) == 2 and id(umat.base) in bases


def _loop_tail(umat, agents):
    """A tail summed the plain way: a copy of the first column, then each
    later column added in place."""
    tail = umat[:, agents[0]].copy()
    for j in agents[1:]:
        tail += umat[:, j]
    return tail


@pytest.mark.parametrize("n, resolution", [(1, 3), (3, 6), (9, 2)])
def test_welfare_row_is_the_agent_order_row_sum(n, resolution):
    """W, written by the tail kernel, is umat.sum(axis=1) bit for bit, also
    with nine agents, past numpy's 8-term pairwise block: numpy adds the
    rows of the column-major matrix one after another."""
    space = pc.StateSpace(["a", "b"], [0.4, 0.6])
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.5]), n, resolution)
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(0.3 + 0.2 * i, space.probs)
                                      for i in range(n)))
    game = pc.calibrate(profile, grid)
    assert game.welfare.tobytes() == game.umat.sum(axis=1).tobytes()
    assert game.welfare.tobytes() == _loop_tail(game.umat, range(n)).tobytes()


@pytest.mark.parametrize("name", list(BLOCK_SCENARIOS))
def test_schedule_rows_are_their_tails_minus_the_tail_mean(name):
    """Every schedule the n auction branches post is its tail, summed the
    plain way, minus that tail's mean, bit for bit.  A one-agent tail's
    schedule is umat[:, j] - averages[j], the one subtract that writes it:
    the mean of a single column is that agent's menu average."""
    config, game = block_game(name)
    umat, grid = game.umat, game.grid
    for w in range(game.n_agents):
        pc.run_auction_then_pnc(game, config.seed, winner=w)
    singles = 0
    for key, (schedule, _) in game._schedules.items():
        tail = _loop_tail(umat, key)
        tail -= pc.integrate(grid, tail)
        assert schedule.values.tobytes() == tail.tobytes(), key
        if len(key) == 1:
            singles += 1
            single = umat[:, key[0]] - game.averages[key[0]]
            assert schedule.values.tobytes() == single.tobytes(), key
    assert singles == 2


@pytest.mark.parametrize("name", list(BLOCK_SCENARIOS))
def test_perturbed_mode_passes_every_invariant(name):
    config = pc.load_scenario(BLOCK_SCENARIOS[name]).with_overrides(mode="perturbed")
    report = pc.run_experiment(config)
    assert report["all_invariants_pass"], [c["name"] for c in report["invariants"]
                                           if not c["passed"]]


# ---------------------------------------------------------------------------
# equalizing schedules
# ---------------------------------------------------------------------------

def test_equalizing_hand_example(hand):
    _, _, profile, grid = hand
    game = pc.calibrate(profile, grid)
    p = equalizer(game)
    assert pc.run_pnc(game).schedules[0] is p
    assert p.values == pytest.approx([-0.5, 0.0, 0.5], abs=1e-12)
    u2 = pc.evaluate_grid(profile.evaluators[1], grid, 1)
    net = u2 - p.values
    assert net == pytest.approx([-0.5, -0.5, -0.5], abs=1e-12)


def test_equalizing_constant_welfare_is_zero():
    space = pc.StateSpace(["a"], [1.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(1.0, space.probs)))
    grid = pc.enumerate_grid(space, np.array([0.0]), 2, 3)
    p = equalizer(pc.calibrate(profile, grid))
    assert np.all(p.values == 0.0)


def test_equalizing_indifference_spread(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    p = equalizer(game)
    net = game.umat[:, 1] - p.values
    assert float(net.max() - net.min()) <= 1e-9


def test_equalizer_is_unique_given_normalization(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    p_star = equalizer(game)
    # any schedule flattening the net payoff, once zero-meaned, is the same
    flat = game.umat[:, 1] - 7.3
    candidate = flat - pc.integrate(grid, flat)
    assert candidate == pytest.approx(p_star.values, abs=1e-9)


def test_equalizing_zero_mean_and_admissible(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    p = equalizer(game)
    diag = pc.validate_schedule(p, grid)
    assert diag.zero_mean_residual <= 1e-9
    assert diag.lipschitz <= game.stage_cap + 1e-9
    assert diag.sup_norm <= game.stage_cap * grid.diameter[0] + 1e-9


@pytest.mark.parametrize("values", [
    [0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0], [-3.0, 2.5], [1.0, np.nan, -4.0],
    [-np.inf, 1.0], [], np.linspace(-2.0, 1.0, 97)])
def test_sup_norm_is_the_largest_absolute_value_bit_for_bit(values):
    v = np.array(values, dtype=float)
    expected = float(np.abs(v).max()) if v.size else 0.0
    assert np.float64(_sup_norm(v)).tobytes() == np.float64(expected).tobytes()


def test_equalizing_schedule_is_built_once_per_tail(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    first = equalizer(game)
    assert equalizer(game) is first
    assert pc.run_pnc(game).schedules[0] is first
    assert equalizer(game, order=[1, 0]) is not first


def test_equalizing_rejects_too_small_cap(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid, cap=1e-8)
    with pytest.raises(pc.ConfigurationError, match="too small"):
        equalizer(game)
    with pytest.raises(pc.ConfigurationError, match="too small"):
        pc.run_pnc(game)


def test_equalizing_leader_range(two_state):
    _, _, profile, grid = two_state
    with pytest.raises(pc.StructuralError):
        equalizer(pc.calibrate(profile, grid), 1)


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
    base = equalizer(game)
    eps = 1e-12
    psi = pc.bump_profile(grid, 0, 0.1)
    p = pc.perturbed_price(base, grid, psi, eps, 0.1, game.stage_cap)
    assert float(np.abs(p.values - base.values).max()) <= 2 * eps


def test_perturbed_unique_argmax_hand(hand):
    _, _, profile, grid = hand
    game = pc.calibrate(profile, grid)
    base = equalizer(game)
    eps = default_epsilon(0.1, game.stage_cap, base.declared_lip)
    psi = pc.bump_profile(grid, 0, 0.1)
    p = pc.perturbed_price(base, grid, psi, eps, 0.1, game.stage_cap)
    net = pc.evaluate_grid(profile.evaluators[1], grid, 1) - p.values
    assert int(np.argmax(net)) == 0
    assert net[0] > np.delete(net, 0).max()
    diag = pc.validate_schedule(p, grid)
    assert diag.zero_mean_residual <= 1e-9
    assert diag.lipschitz <= game.stage_cap + 1e-9
    assert diag.sup_norm <= game.stage_cap * grid.diameter[0] + 1e-9


def test_perturbed_parameter_errors(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    base = equalizer(game)
    cap = game.stage_cap
    psi = pc.bump_profile(grid, 0, 0.1)
    with pytest.raises(pc.ParameterError):
        pc.perturbed_price(base, grid, psi, -0.1, 0.1, cap)
    with pytest.raises(pc.ParameterError):
        pc.perturbed_price(base, grid, psi, 10 * 0.1 * (cap - base.declared_lip),
                           0.1, cap)
    # iota is checked where the bump is built.
    with pytest.raises(pc.ParameterError):
        pc.bump_profile(grid, 0, 1.5)


# ---------------------------------------------------------------------------
# follower best response
# ---------------------------------------------------------------------------

def test_best_response_zero_price_maximizes_raw_tail(two_state):
    _, _, profile, grid = two_state
    u2 = pc.evaluate_grid(profile.evaluators[1], grid, 1)
    zero = pc.PriceSchedule(np.zeros(grid.n_points), 0.0)
    assert pc.follower_best_response(u2, zero, grid) == int(np.argmax(u2))


def test_best_response_tie_breaks_low():
    space = pc.StateSpace(["w"], [1.0])
    grid = pc.enumerate_grid(space, np.array([-1.0]), 2, 2)
    tail = np.array([1.0, 1.0, 0.0])
    zero = pc.PriceSchedule(np.zeros(3), 0.0)
    assert pc.follower_best_response(tail, zero, grid) == 0


def test_best_response_spne_selection_under_equalizer(two_state):
    """The equalizer leaves the follower indifferent; exact mode then picks
    the lowest-index argmax of the Game's welfare, in every order."""
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    umat = game.umat
    net = umat[:, 1] - equalizer(game).values
    assert float(net.max() - net.min()) <= 1e-9
    assert np.array_equal(game.welfare, umat.sum(axis=1))
    assert not game.welfare.flags.writeable
    for order in ([0, 1], [1, 0]):
        t = pc.run_pnc(game, order=order)
        assert t.selection_rule == "spne-welfare-argmax"
        assert t.chosen == int(np.argmax(game.welfare))


def test_best_response_constant_shift_leaves_argmax():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(2.0, space.probs)))
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.0]), 2, 5)
    u2 = pc.evaluate_grid(profile.evaluators[1], grid, 1)
    base = equalizer(pc.calibrate(profile, grid))
    bumped = pc.perturbed_price(base, grid, pc.bump_profile(grid, 7, 0.1),
                                1e-3, 0.1, 1e9)
    for c in (0.5, -2.0, 10.0):
        shifted = pc.PriceSchedule(bumped.values + c, bumped.declared_lip)
        assert pc.follower_best_response(u2, shifted, grid) == \
            pc.follower_best_response(u2, bumped, grid)


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
    cf = pc.closed_form_entropic(profile, x)
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
    """The serialized transcript survives JSON exactly; diagnostics stay out,
    and each schedule is a fixed-size summary that pins its vector."""
    _, _, profile, grid = two_state
    t = pc.run_pnc(pc.calibrate(profile, grid), "perturbed")
    back = json.loads(json.dumps(t.to_dict()))
    assert "diagnostics" not in back
    assert back["chosen"] == t.chosen and tuple(back["order"]) == t.order
    assert back["mode"] == t.mode and back["epsilon"] == t.epsilon
    assert np.array_equal(back["payoffs"], t.payoffs)
    assert len(back["schedules"]) == len(t.schedules)
    for a, b in zip(back["schedules"], t.schedules):
        assert set(a) == {"declared_lip", "at_chosen", "sup_norm", "sha256"}
        le_bytes = np.asarray(b.values, dtype="<f8").tobytes()
        assert a["sha256"] == hashlib.sha256(le_bytes).hexdigest()
        assert a["at_chosen"] == b.values[t.chosen]
        assert a["sup_norm"] == np.abs(b.values).max()
        assert a["declared_lip"] == b.declared_lip


# ---------------------------------------------------------------------------
# first-mover deviation audit
# ---------------------------------------------------------------------------

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
        dev = pc.perturbed_price(base, grid, psi, eps, 0.1, game.stage_cap)
        response = int(np.argmax(umat[:, 1] - dev.values))
        assert response == target
        payoff = float(umat[response, 0] + dev.values[response])
        assert payoff == pytest.approx(wmax - avg2 - eps * (1.0 - beta), abs=1e-12)
        assert payoff < equilibrium


def test_audit_hundred_random_deviations_never_gain(two_state):
    """A hundred sampled deviations within the cap never gain, and none
    reaches the certified bound, which sits at zero up to rounding with
    both of its margins."""
    _, _, profile, grid = two_state
    _, game, t = exact_run(profile, grid)
    audit = pc.audit_first_mover_bound(game, t)
    assert abs(audit.max_gain) <= 1e-12
    assert audit.welfare_margin == 0.0 and abs(audit.indifference_margin) <= 1e-12
    welfare = game.umat.sum(axis=1)
    assert audit.ties == sum(w >= game.welfare_max - 1e-9 for w in welfare) >= 1
    assert audit.equilibrium_payoff == float(t.payoffs[t.order[0]])
    gains = [deviation_gain(game, t, values)[0]
             for values in sampled_deviations(game, t, 100, seed=11)]
    assert max(gains) <= audit.max_gain and max(gains) <= 1e-9


def test_audit_counts_the_welfare_ties(hand):
    """On one loss state every split is a transfer: all three points tie
    for W_max, and no net value breaks the tie."""
    _, _, profile, grid = hand
    _, game, t = exact_run(profile, grid)
    audit = pc.audit_first_mover_bound(game, t)
    assert audit.ties == grid.n_points == 3
    assert audit.max_gain <= 1e-12


def test_audit_requires_exact_transcript(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    t = pc.run_pnc(game, "perturbed")
    with pytest.raises(pc.ParameterError):
        pc.audit_first_mover_bound(game, t)
