import math
from fractions import Fraction

import numpy as np
import pytest

import pricechoose as pc
from conftest import hurricane_space


def entropic_profile(probs, gammas):
    return pc.UtilityProfile(tuple(pc.EntropicUtility(g, probs) for g in gammas))


def sup_convolution_value(gammas, x, probs):
    """Independent closed form: -(1/lam) log E[exp(-lam X)]."""
    lam = 1.0 / sum(1.0 / g for g in gammas)
    return -math.log(float(np.dot(probs, np.exp(-lam * np.asarray(x))))) / lam


# ---------------------------------------------------------------------------
# tail welfare
# ---------------------------------------------------------------------------

def test_welfare_tail_sums(two_state):
    _, _, profile, grid = two_state
    xi = grid.point(13)
    u0 = pc.evaluate(profile.evaluators[0], xi, 0)
    u1 = pc.evaluate(profile.evaluators[1], xi, 1)
    assert pc.welfare(profile, xi, 1) == pytest.approx(u1, abs=1e-14)
    assert pc.welfare(profile, xi, 0) == pytest.approx(u0 + u1, abs=1e-14)


def test_welfare_zero_allocation_is_zero():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    profile = entropic_profile(space.probs, [1.0, 2.0, 3.0])
    assert pc.welfare(profile, np.zeros((3, 2)), 0) == 0.0


def test_welfare_from_agent_out_of_range(two_state):
    _, _, profile, grid = two_state
    with pytest.raises(pc.StructuralError):
        pc.welfare(profile, grid.point(0), 2)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_weights_and_tilt_rate():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    res = pc.closed_form_entropic([1.0, 2.0, 4.0], x, space.probs)
    expected_w = [float(Fraction(4, 7)), float(Fraction(2, 7)), float(Fraction(1, 7))]
    assert res.shares[0] == pytest.approx(expected_w, abs=1e-15)
    assert res.lam == pytest.approx(float(Fraction(4, 7)), abs=1e-15)
    # three-agent pairwise form: w_i = gamma_j gamma_k / sum of pairwise products
    g = [1.0, 2.0, 4.0]
    denom = g[0] * g[1] + g[1] * g[2] + g[2] * g[0]
    assert denom == 14.0
    pairwise = [g[1] * g[2] / denom, g[0] * g[2] / denom, g[0] * g[1] / denom]
    assert res.shares[0] == pytest.approx(pairwise, abs=1e-15)
    assert float(res.shares.sum()) == pytest.approx(1.0, abs=1e-12)
    assert float(np.dot([1.0, 2.0, 4.0], res.shares[0]) / 3) == pytest.approx(
        res.lam, abs=1e-12)


def test_closed_form_equal_gammas_split_evenly():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    res = pc.closed_form_entropic([2.0, 2.0, 2.0, 2.0], np.array([-1.0, -2.0]),
                                  space.probs)
    assert res.shares[0] == pytest.approx([0.25] * 4, abs=1e-15)


def test_closed_form_value_matches_sup_convolution_oracle():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    res = pc.closed_form_entropic([1.0, 2.0, 4.0], x, space.probs)
    assert res.value == pytest.approx(
        sup_convolution_value([1.0, 2.0, 4.0], x, space.probs), abs=1e-12)
    # every agent shares the same exponential tilt
    oracle_tilt = space.probs * np.exp(-res.lam * x)
    oracle_tilt = oracle_tilt / oracle_tilt.sum()
    assert res.tilt == pytest.approx(oracle_tilt, abs=1e-14)
    assert res.tilt.sum() == pytest.approx(1.0, abs=1e-12)


def test_closed_form_matches_welfare_evaluation():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    profile = entropic_profile(space.probs, [1.0, 2.0, 4.0])
    res = pc.closed_form_entropic(profile, x, space.probs)
    assert pc.welfare(profile, res.allocation, 0) == pytest.approx(res.value, abs=1e-12)


def test_closed_form_rejects_maxmin():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    mm = pc.MaxMinUtility(1.0, pc.CredalSet(space.probs[None, :], space.probs))
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs), mm))
    with pytest.raises(pc.UnsupportedProfileError):
        pc.closed_form_entropic(profile, np.array([-1.0, 0.0]), space.probs)


# ---------------------------------------------------------------------------
# grid maximizer
# ---------------------------------------------------------------------------

def test_single_point_grid_maximizer():
    space = pc.StateSpace(["a"], [1.0])
    profile = entropic_profile(space.probs, [1.0, 1.0])
    grid = pc.enumerate_grid(space, np.array([0.0]), 2, 5)
    res = pc.maximize_welfare(profile, grid)
    assert res.index == 0 and res.value == 0.0


def test_risk_neutral_agent_absorbs_the_loss():
    space = pc.StateSpace(["calm", "storm"], [0.5, 0.5])
    x = np.array([0.0, -1.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(2.0, space.probs),
                                 pc.EntropicUtility(1e-6, space.probs)))
    grid = pc.enumerate_grid(space, x, 2, 10)
    res = pc.maximize_welfare(profile, grid)
    assert np.array_equal(res.allocation[1], x)
    assert np.all(res.allocation[0] == 0.0)


def test_grid_argmax_tie_breaks_low(hand):
    # all three menu points have identical total welfare (pure transfers)
    _, _, profile, grid = hand
    res = pc.maximize_welfare(profile, grid)
    assert res.index == 0


def test_refinement_never_decreases_and_stays_feasible(two_state):
    _, x, profile, grid = two_state
    coarse = pc.maximize_welfare(profile, grid)
    refined = pc.maximize_welfare(profile, grid, refine=True)
    assert refined.value >= coarse.value
    assert pc.validate_feasible(refined.allocation, x).ok
    if refined.method == "refined":
        assert refined.shares is not None
        assert np.all(refined.shares >= 0.0)
        assert refined.shares.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)


def test_refined_optimum_approaches_closed_form():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    gammas = [1.0, 2.0, 4.0]
    profile = entropic_profile(space.probs, gammas)
    grid = pc.enumerate_grid(space, x, 3, 10, state_classes="single")
    res = pc.maximize_welfare(profile, grid, refine=True)
    oracle = sup_convolution_value(gammas, x, space.probs)
    assert res.value == pytest.approx(oracle, abs=1e-3)
    assert res.value <= oracle + 1e-12


def test_sup_convolution_bound_over_grid(two_state):
    _, _, profile, grid = two_state
    umat = profile.matrix(grid)
    res = pc.maximize_welfare(profile, grid, umat=umat)
    assert float((umat.sum(axis=1) - res.value).max()) <= 1e-12


def test_welfare_result_value_is_per_agent_sum(two_state):
    _, _, profile, grid = two_state
    res = pc.maximize_welfare(profile, grid, refine=True)
    assert res.value == pytest.approx(float(res.per_agent.sum()), abs=1e-9)


# ---------------------------------------------------------------------------
# Pareto scan
# ---------------------------------------------------------------------------

def test_welfare_maximizer_is_undominated(two_state):
    _, _, profile, grid = two_state
    res = pc.maximize_welfare(profile, grid)
    check = pc.pareto_check(profile, grid, grid.point(res.index))
    assert check.optimal and check.attains_max
    assert check.dominating_index is None


def test_mismatched_state_profile_is_dominated(two_state):
    # agent 0 takes all of state a, agent 1 all of state b: both can gain
    _, x, profile, grid = two_state
    xi = pc.shares_to_allocation(np.array([[1.0, 0.0], [0.0, 1.0]]), x)
    check = pc.pareto_check(profile, grid, xi)
    assert not check.optimal and not check.attains_max
    witness = grid.point(check.dominating_index)
    base = profile.at_point(xi)
    improved = profile.at_point(witness)
    assert np.all(improved >= base - 1e-12)
    assert np.any(improved > base + 1e-12)


def test_single_point_grid_always_optimal():
    space = pc.StateSpace(["a"], [1.0])
    profile = entropic_profile(space.probs, [1.0, 1.0])
    grid = pc.enumerate_grid(space, np.array([0.0]), 2, 1)
    check = pc.pareto_check(profile, grid, grid.point(0))
    assert check.optimal and check.attains_max


def _pareto_case(n_agents):
    """(profile, coarse menu, finer oracle menu) for n agents; from three
    agents on, the last one is max-min over two priors."""
    n_states, coarse_res, oracle_res = {1: (2, 3, 3), 2: (2, 10, 40), 3: (3, 2, 6),
                                        4: (2, 3, 6), 5: (2, 2, 4)}[n_agents]
    probs, other = {2: ([0.6, 0.4], [0.5, 0.5]),
                    3: ([0.5, 0.3, 0.2], [0.3, 0.3, 0.4])}[n_states]
    space = pc.StateSpace(["a", "b", "c"][:n_states], probs)
    x = -np.arange(1.0, n_states + 1.0)
    gammas = (1.0, 2.5, 0.7, 1.6, 3.0)[:n_agents]
    evaluators = [pc.EntropicUtility(g, space.probs) for g in gammas]
    if n_agents >= 3:
        credal = pc.CredalSet(np.array([probs, other]), space.probs)
        evaluators[-1] = pc.MaxMinUtility(gammas[-1], credal)
    profile = pc.UtilityProfile(tuple(evaluators))
    coarse = pc.enumerate_grid(space, x, n_agents, coarse_res)
    oracle = pc.enumerate_grid(space, x, n_agents, oracle_res)
    return profile, coarse, oracle


def _naive_utilities(profile, points):
    """(points x agents) certainty equivalents by the textbook formula,
    the minimum over priors for a max-min agent."""
    cols = []
    for i, u in enumerate(profile.evaluators):
        priors = u.credal.priors if isinstance(u, pc.MaxMinUtility) else u.probs[None, :]
        per_prior = -np.log(np.exp(-u.gamma * points[:, i, :]) @ priors.T) / u.gamma
        cols.append(per_prior.min(axis=1))
    return np.stack(cols, axis=1)


def _naive_first_dominating(u_oracle, u0, slack):
    weak = np.all(u_oracle >= u0[None, :] - slack, axis=1)
    strict = np.any(u_oracle > u0[None, :] + slack, axis=1)
    hits = np.nonzero(weak & strict)[0]
    return int(hits[0]) if hits.size else None


def test_pareto_verdicts_match_independent_scan():
    """Cross-validate the scan against a plain reimplementation on a finer
    menu: 1 to 5 agents, row- and column-major utility matrices, and rows
    placed exactly at the slack boundary."""
    slack = 1e-12
    for n_agents in range(1, 6):
        profile, coarse, oracle = _pareto_case(n_agents)
        u_oracle = _naive_utilities(profile, oracle.points)
        u_coarse = _naive_utilities(profile, coarse.points)
        firsts = [_naive_first_dominating(u_oracle, u0, slack) for u0 in u_coarse]
        for order in ("C", "F"):
            umat = np.asarray(profile.matrix(oracle), order=order)
            wmax = float(umat.sum(axis=1).max()).hex()
            for k, expected in enumerate(firsts):
                verdict = pc.pareto_check(profile, oracle, coarse.point(k), umat=umat)
                assert verdict.dominating_index == expected
                assert verdict.optimal == (expected is None)
                assert verdict.welfare_max.hex() == wmax

            # A row exactly at u0 - slack still improves weakly and a row
            # exactly at u0 + slack does not improve strictly; one ulp past
            # either boundary decides.
            u0 = profile.at_point(coarse.point(0))
            lo, hi = u0 - slack, u0 + slack
            last = np.arange(n_agents) == n_agents - 1
            rows = np.array([
                lo,
                np.where(last, hi, lo),
                np.where(last, np.nextafter(hi, np.inf), np.nextafter(lo, -np.inf)),
                np.where(last, np.nextafter(hi, np.inf), lo),
            ])
            boundary = np.asarray(np.vstack([rows, umat]), order=order)
            verdict = pc.pareto_check(profile, oracle, coarse.point(0), umat=boundary)
            # with one agent, row 2 has no agent below u0 - slack
            expected = 2 if n_agents == 1 else 3
            assert _naive_first_dominating(boundary, u0, slack) == expected
            assert verdict.dominating_index == expected and not verdict.optimal
            assert verdict.welfare_max.hex() == float(boundary.sum(axis=1).max()).hex()
