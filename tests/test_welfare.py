import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pricechoose as pc
from pricechoose import welfare
from pricechoose.menu import grid_point_count
from pricechoose.welfare import (LINE_STEPS, PARETO_SLACK, WELFARE_TOL, _project_row,
                                  _project_simplex, _refine_shares)
from conftest import hurricane_space


def entropic_profile(probs, gammas):
    return pc.UtilityProfile(tuple(pc.EntropicUtility(g, probs) for g in gammas))


def sup_convolution_value(gammas, x, probs):
    """Independent closed form: -(1/lam) log E[exp(-lam X)]."""
    lam = 1.0 / sum(1.0 / g for g in gammas)
    return -math.log(float(np.dot(probs, np.exp(-lam * np.asarray(x))))) / lam


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_weights_and_tilt_rate():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    res = pc.closed_form_entropic(entropic_profile(space.probs, [1.0, 2.0, 4.0]), x)
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
    res = pc.closed_form_entropic(entropic_profile(space.probs, [2.0] * 4),
                                  np.array([-1.0, -2.0]))
    assert res.shares[0] == pytest.approx([0.25] * 4, abs=1e-15)


def test_closed_form_value_matches_sup_convolution_oracle():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    res = pc.closed_form_entropic(entropic_profile(space.probs, [1.0, 2.0, 4.0]), x)
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
    res = pc.closed_form_entropic(profile, x)
    assert float(profile.at_point(res.allocation).sum()) == pytest.approx(res.value,
                                                                           abs=1e-12)


def test_closed_form_rejects_maxmin():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    mm = pc.MaxMinUtility(1.0, pc.CredalSet(
        np.array([space.probs, [0.3, 0.7]]), space.probs))
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs), mm))
    with pytest.raises(pc.UnsupportedProfileError):
        pc.closed_form_entropic(profile, np.array([-1.0, 0.0]))


def test_closed_form_rejects_agents_on_different_priors():
    """One prior each, but not the same one: there is no common tilt, so no
    closed form, and the maximizer refines the grid winner instead."""
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    x = np.array([-1.0, 0.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(2.0, [0.2, 0.8])))
    with pytest.raises(pc.UnsupportedProfileError, match="same single prior"):
        pc.closed_form_entropic(profile, x)
    res = pc.maximize_welfare(pc.calibrate(profile, pc.enumerate_grid(space, x, 2, 6)))
    assert res.closed_form is None and res.method in ("grid", "refined")


# ---------------------------------------------------------------------------
# grid maximizer
# ---------------------------------------------------------------------------

def test_single_point_grid_maximizer():
    space = pc.StateSpace(["a"], [1.0])
    profile = entropic_profile(space.probs, [1.0, 1.0])
    grid = pc.enumerate_grid(space, np.array([0.0]), 2, 5)
    res = pc.maximize_welfare(pc.calibrate(profile, grid))
    assert res.index == 0 and res.value == 0.0 and res.method == "grid"


def test_risk_neutral_agent_absorbs_the_loss():
    space = pc.StateSpace(["calm", "storm"], [0.5, 0.5])
    x = np.array([0.0, -1.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(2.0, space.probs),
                                 pc.EntropicUtility(1e-6, space.probs)))
    grid = pc.enumerate_grid(space, x, 2, 10)
    game = pc.calibrate(profile, grid)
    best = grid.point(int(np.argmax(game.welfare)))
    assert np.array_equal(best[1], x)
    assert np.all(best[0] == 0.0)


def test_grid_argmax_tie_breaks_low(hand):
    # all three menu points have identical total welfare (pure transfers)
    _, _, profile, grid = hand
    res = pc.maximize_welfare(pc.calibrate(profile, grid))
    assert res.index == 0


def test_refinement_never_decreases_and_stays_feasible(two_state):
    _, x, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    refined = pc.maximize_welfare(game)
    assert refined.value >= game.welfare.max()
    assert pc.validate_feasible(refined.allocation, x).ok
    if refined.method != "grid":
        assert refined.shares is not None
        assert np.all(refined.shares >= 0.0)
        assert refined.shares.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)


def test_refined_optimum_approaches_closed_form():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    gammas = [1.0, 2.0, 4.0]
    profile = entropic_profile(space.probs, gammas)
    grid = pc.enumerate_grid(space, x, 3, 10, state_classes="single")
    res = pc.maximize_welfare(pc.calibrate(profile, grid))
    oracle = sup_convolution_value(gammas, x, space.probs)
    assert res.value == pytest.approx(oracle, abs=1e-3)
    assert res.value <= oracle + 1e-12


HURRICANE_CLASSES = [0, 1, 1, 2, 1, 2, 2, 3]


def test_refinement_reaches_the_closed_form_on_a_product_grid():
    # On an all-entropic profile the proportional closed form is the exact
    # optimum over class shares too: the maximizer takes it, its shares
    # tiled over the classes, in place of the grid winner.
    config = pc.load_scenario(Path(pc.__file__).parent / "scenarios"
                              / "hurricane_three_farmers.json")
    grid = pc.enumerate_grid(config.space, config.x, 3, 3,
                             state_classes=HURRICANE_CLASSES)
    assert grid.n_points == 1000
    game = pc.calibrate(config.profile, grid)
    res = pc.maximize_welfare(game)
    closed = pc.closed_form_entropic(config.profile, config.x)
    assert res.method == "closed_form" and res.lam == closed.lam
    assert res.value > game.welfare_max
    assert res.shares.tobytes() == np.tile(closed.shares, (grid.n_classes, 1)).tobytes()
    assert res.value == closed.value
    assert res.allocation.tobytes() == grid.allocation(res.shares).tobytes()


def test_closed_form_equal_to_a_grid_point_keeps_the_grid_point():
    # At resolution 70 the grid holds (4/7, 2/7, 1/7) exactly; the closed
    # form is no better there, so the grid winner stands.
    config = pc.load_scenario(Path(pc.__file__).parent / "scenarios"
                              / "hurricane_three_farmers.json")
    grid = pc.enumerate_grid(config.space, config.x, 3, 70, state_classes="single")
    game = pc.calibrate(config.profile, grid)
    res = pc.maximize_welfare(game)
    closed = pc.closed_form_entropic(config.profile, config.x)
    assert res.method == "grid" and res.lam is None
    assert res.shares.tobytes() == closed.shares.tobytes()
    assert res.value == closed.value == game.welfare_max


def test_maximizer_reads_the_prepared_game(two_state, monkeypatch):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)

    def no_matrix(self, grid):
        raise AssertionError("maximize_welfare evaluated the utility matrix")

    monkeypatch.setattr(pc.UtilityProfile, "matrix", no_matrix)
    res = pc.maximize_welfare(game)
    assert res.index == int(np.argmax(game.welfare))


def test_sup_convolution_bound_over_grid(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    res = pc.maximize_welfare(game)
    assert float((game.umat.sum(axis=1) - res.value).max()) <= 1e-12


def test_welfare_result_value_is_per_agent_sum(two_state):
    _, _, profile, grid = two_state
    res = pc.maximize_welfare(pc.calibrate(profile, grid))
    assert res.value == pytest.approx(float(res.per_agent.sum()), abs=1e-9)


@st.composite
def common_prior_games(draw):
    """An all-entropic profile under one prior on a grid of at most 5,000
    points: 1-4 agents, 1-6 states (zero-risk ones and -0.0 included), and
    single, per-state or labelled state classes."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    space = pc.StateSpace([f"s{w}" for w in range(m)], raw / raw.sum())
    x = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                         st.floats(-4.0, 4.0, allow_subnormal=False)),
                               min_size=m, max_size=m)))
    gammas = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    classes = draw(st.one_of(st.sampled_from(["single", "per_state"]),
                             st.lists(st.integers(0, 2), min_size=m, max_size=m)))
    resolution = max(r for r in range(1, 13)
                     if r == 1 or grid_point_count(x, n, r, classes) <= 5_000)
    grid = pc.enumerate_grid(space, x, n, resolution, state_classes=classes)
    return pc.calibrate(entropic_profile(space.probs, gammas), grid)


@given(common_prior_games())
@settings(max_examples=60, deadline=None)
def test_common_prior_optimum_is_the_closed_form(game):
    res = pc.maximize_welfare(game)
    assert res.value >= game.welfare_max
    assert pc.validate_feasible(res.allocation, game.grid.x).ok
    assert res.method in ("grid", "closed_form")
    if res.method == "closed_form":
        closed = pc.closed_form_entropic(game.profile, game.grid.x)
        tol = 4.0 * np.finfo(float).eps
        assert abs(res.value - closed.value) <= tol * abs(closed.value)
        assert np.all(np.abs(res.per_agent - closed.per_agent)
                      <= tol * np.abs(closed.per_agent))


# ---------------------------------------------------------------------------
# Pareto scan
# ---------------------------------------------------------------------------

def test_welfare_maximizer_is_undominated(two_state):
    _, _, profile, grid = two_state
    res = pc.maximize_welfare(pc.calibrate(profile, grid))
    check = pc.pareto_check(profile, grid, grid.point(res.index))
    assert check.optimal and check.attains_max
    assert check.dominating_index is None


def test_mismatched_state_profile_is_dominated(two_state):
    # agent 0 takes all of state a, agent 1 all of state b: both can gain
    _, x, profile, grid = two_state
    xi = np.array([[x[0], 0.0], [0.0, x[1]]])
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
    assert check.rows_scanned == 1


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
        per_prior = -np.log(np.exp(-u.gamma * points[:, i, :]) @ u.credal.priors.T) / u.gamma
        cols.append(per_prior.min(axis=1))
    return np.stack(cols, axis=1)


def _naive_first_dominating(u_oracle, u0, slack):
    weak = np.all(u_oracle >= u0[None, :] - slack, axis=1)
    strict = np.any(u_oracle > u0[None, :] + slack, axis=1)
    hits = np.nonzero(weak & strict)[0]
    return int(hits[0]) if hits.size else None


def _attains_max(umat, wval):
    """The welfare verdict against the grid maximum, formed as numpy sums
    the rows (in agent order, up to 7 agents)."""
    return wval >= float(umat.sum(axis=1).max()) - WELFARE_TOL


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
            for k, expected in enumerate(firsts):
                verdict = pc.pareto_check(profile, oracle, coarse.point(k), umat=umat)
                assert verdict.dominating_index == expected
                assert verdict.optimal == (expected is None)
                assert verdict.attains_max == _attains_max(umat, verdict.welfare_value)

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
            assert verdict.attains_max == _attains_max(boundary, verdict.welfare_value)


def _block_scan_matrix(u0, size, dominators, rng):
    """(size x n) utilities around u0 where only the rows ``dominators``
    dominate u0: every other row leaves agent 0 strictly worse off and may
    leave the others better off, so the welfare varies across the rows."""
    n = len(u0)
    umat = u0 + rng.uniform(-1.0, 1.0, size=(size, n))
    umat[:, 0] = u0[0] - rng.uniform(1e-6, 1.0, size=size)
    umat[dominators] = u0 + rng.uniform(0.0, 1.0, size=(len(dominators), n))
    umat[dominators, 0] = u0[0] + 1e-6
    return umat


@pytest.mark.parametrize("n_agents", [1, 2, 3])
def test_pareto_block_scan_stops_at_the_first_dominating_block(n_agents):
    """Dominating rows at the last index of a block, at the first index of
    the next one, only in the final partial block, and nowhere: the scan
    reports the lowest dominating index and the welfare verdict over every
    row, whichever block it stops in, on row- and column-major matrices."""
    block = welfare.PARETO_BLOCK
    size = 3 * block + 17
    profile, coarse, oracle = _pareto_case(n_agents)
    xi = coarse.point(0)
    u0 = profile.at_point(xi)
    rng = np.random.default_rng(n_agents)
    cases = {
        "last-of-block": [block - 1, block, 2 * block + 5],
        "first-of-next": [block, 3 * block + 3],
        "final-partial": [3 * block + 16],
        "two-in-final": [3 * block + 2, 3 * block],
        "nowhere": [],
    }
    for name, dominators in cases.items():
        base = _block_scan_matrix(u0, size, dominators, rng)
        expected = _naive_first_dominating(base, u0, PARETO_SLACK)
        assert expected == (min(dominators) if dominators else None), name
        for order in ("C", "F"):
            umat = np.asarray(base, order=order)
            verdict = pc.pareto_check(profile, oracle, xi, umat=umat)
            assert verdict.dominating_index == expected, (name, order)
            assert verdict.optimal == (expected is None)
            assert verdict.attains_max == _attains_max(umat, verdict.welfare_value)


def test_pareto_check_needs_one_utility_column_per_agent():
    """Too many columns, too few (which would drop an agent from the
    dominance test), a 1-d matrix and fewer rows than grid points (which
    would leave points unscanned) are refused; extra rows are scanned."""
    profile, coarse, oracle = _pareto_case(3)
    umat = profile.matrix(oracle)
    xi = coarse.point(0)
    for bad in (np.hstack([umat, umat[:, :1]]), umat[:, :2], umat[:, 0]):
        with pytest.raises(pc.StructuralError, match="one column per agent"):
            pc.pareto_check(profile, oracle, xi, umat=bad)
    for short in (umat[:5], umat[:0], umat[:-1]):
        with pytest.raises(pc.StructuralError, match="a row per grid point"):
            pc.pareto_check(profile, oracle, xi, umat=short)
    extra = np.vstack([umat, umat[:3]])
    assert pc.pareto_check(profile, oracle, xi, umat=extra).dominating_index == (
        _naive_first_dominating(extra, profile.at_point(xi), PARETO_SLACK))
    with pytest.raises(pc.StructuralError):
        pc.pareto_check(profile, oracle, np.vstack([xi, xi[:1]]), umat=umat)


def _expected_scan(umat, u0, block):
    """(dominating index, attains_max, rows scanned) by a plain scan: the
    rows read are those up to the end of the block that holds the later of
    the first dominating row and the first row whose welfare beats u0's,
    or every row when either is missing."""
    first = _naive_first_dominating(umat, u0, PARETO_SLACK)
    wval = float(u0.sum())
    beats = np.flatnonzero(~(umat.sum(axis=1) - WELFARE_TOL <= wval))
    if first is None or not beats.size:
        scanned = len(umat)
    else:
        scanned = min((max(first, int(beats[0])) // block + 1) * block, len(umat))
    return first, not beats.size, scanned


def _scan_matrix(u0, size, dominators=(), beaters=()):
    """(size x n) utilities around u0 where no row dominates u0 or beats its
    welfare, except the rows ``dominators``, which dominate it by 1e-11 on
    agent 0 and do not beat its welfare by WELFARE_TOL, and the rows
    ``beaters``, which trade agent 0's utility for more of agent 1's and so
    beat the welfare without dominating."""
    umat = np.tile(u0, (size, 1))
    umat[:, 0] -= 1.0
    umat[list(dominators)] = u0
    umat[list(dominators), 0] += 1e-11
    umat[list(beaters), 1] += 2.0
    return umat


def test_pareto_scan_counts_the_rows_it_reads():
    """``rows_scanned`` stops at the end of the block that settles the later
    of the two verdicts, and counts every row when either stays open."""
    block = welfare.PARETO_BLOCK
    size = 3 * block + 17
    profile, coarse, oracle = _pareto_case(3)
    xi = coarse.point(0)
    u0 = profile.at_point(xi)
    cases = {
        # (dominators, beaters): (dominating index, attains_max, rows scanned)
        "settled-in-block-0": (([0], [5]), (0, False, block)),
        "no-dominator": (([], [0]), (None, False, size)),
        "dominator-in-block-2-beaten-in-block-0": (([2 * block + 5], [3]),
                                                   (2 * block + 5, False, 3 * block)),
        "beaten-only-in-final-partial": (([0], [3 * block + 16]), (0, False, size)),
        "never-beaten": (([1], []), (1, True, size)),
    }
    for name, ((dominators, beaters), expected) in cases.items():
        base = _scan_matrix(u0, size, dominators, beaters)
        assert _expected_scan(base, u0, block) == expected, name
        for order in ("C", "F"):
            verdict = pc.pareto_check(profile, oracle, xi, umat=np.asarray(base, order=order))
            got = (verdict.dominating_index, verdict.attains_max, verdict.rows_scanned)
            assert got == expected, (name, order)


def test_attains_max_at_the_welfare_tolerance_boundary():
    """A row whose welfare W has fl(W - WELFARE_TOL) equal to the
    allocation's welfare does not beat it; one ulp above, W beats it.  A NaN
    welfare row in the last block beats every allocation."""
    profile, coarse, oracle = _pareto_case(3)
    xi = coarse.point(0)
    u0 = profile.at_point(xi)
    wval = float(u0.sum())
    w_eq = wval + WELFARE_TOL
    while w_eq - WELFARE_TOL > wval:
        w_eq = np.nextafter(w_eq, -np.inf)
    while np.nextafter(w_eq, np.inf) - WELFARE_TOL <= wval:
        w_eq = np.nextafter(w_eq, np.inf)
    w_up = np.nextafter(w_eq, np.inf)
    assert w_eq - WELFARE_TOL == wval < w_up - WELFARE_TOL
    base = _scan_matrix(u0, oracle.n_points)
    for welfare_row, attains in ((w_eq, True), (w_up, False), (np.nan, False)):
        umat = base.copy()
        # one welfare summand, the rest zero, so the row sums to it exactly
        umat[-1] = 0.0
        umat[-1, 0] = welfare_row
        assert _attains_max(umat, wval) == attains
        for order in ("C", "F"):
            verdict = pc.pareto_check(profile, oracle, xi, umat=np.asarray(umat, order=order))
            assert verdict.welfare_value == wval
            assert verdict.attains_max == attains, (welfare_row, order)
            assert verdict.rows_scanned == len(umat)


def test_pareto_scan_across_many_small_blocks(monkeypatch):
    """With 7-row blocks the exit crosses many block boundaries: every
    verdict and row count matches the plain scan on every case grid."""
    monkeypatch.setattr(welfare, "PARETO_BLOCK", 7)
    for n_agents in range(1, 6):
        profile, coarse, oracle = _pareto_case(n_agents)
        umat = profile.matrix(oracle)
        for k in range(0, coarse.n_points, 7):
            xi = coarse.point(k)
            verdict = pc.pareto_check(profile, oracle, xi, umat=umat)
            got = (verdict.dominating_index, verdict.attains_max, verdict.rows_scanned)
            assert got == _expected_scan(umat, profile.at_point(xi), 7), (n_agents, k)


# ---------------------------------------------------------------------------
# batched line search, against the serial halving search it replaces
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"


def serial_project(v):
    """Projection of one vector onto the simplex, one row per call."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def serial_ce(row, nu, gamma):
    z = -gamma * row
    a = np.max(z)
    return -(a + np.log(np.sum(nu * np.exp(z - a))) - np.log(nu.sum())) / gamma


def serial_value_and_grads(profile, grid, q):
    """Welfare at one share array and its supergradient, agent by agent and
    prior by prior."""
    x, cls = grid.x, grid.class_of_state
    xi = np.zeros((profile.n_agents, len(x)))
    for w in range(len(x)):
        if cls[w] >= 0:
            xi[:, w] = q[cls[w]] * x[w]
    total = 0.0
    grad = np.zeros_like(q)
    for i, u in enumerate(profile.evaluators):
        row = xi[i]
        per = [serial_ce(row, nu, u.gamma) for nu in u.credal.priors]
        j = int(np.argmin(per))
        total += float(per[j])
        z = -u.gamma * row
        z -= z.max()
        t = u.credal.priors[j] * np.exp(z)
        t /= t.sum()
        for c in range(q.shape[0]):
            mask = cls == c
            grad[c, i] = float(np.dot(t[mask], x[mask]))
    return total, grad


def serial_refine(profile, grid, q0, tol=1e-10, max_sweeps=200):
    """The one-trial-per-call halving search; also returns the step each
    block accepted, or None when no step improved."""
    q = q0.copy()
    best, _ = serial_value_and_grads(profile, grid, q)
    taken = []
    for _ in range(max_sweeps):
        sweep_gain = 0.0
        for c in range(q.shape[0]):
            _, grad = serial_value_and_grads(profile, grid, q)
            accepted = None
            step = 1.0
            while step > 1e-14 and accepted is None:
                trial = q.copy()
                trial[c] = serial_project(q[c] + step * grad[c])
                val, _ = serial_value_and_grads(profile, grid, trial)
                if val > best:
                    sweep_gain += val - best
                    best, q, accepted = val, trial, step
                step *= 0.5
            taken.append(accepted)
        if sweep_gain < tol:
            break
    return q, best, taken


def maxmin_profile(space, gammas, maxmin, scale=1.0):
    """Entropic agents, except the agents in ``maxmin``, which get the
    reference prior and two tilted ones."""
    p = space.probs
    evaluators = []
    for i, g in enumerate(gammas):
        if i in maxmin:
            tilts = [p * np.exp(0.4 * np.cos(np.arange(len(p)) + k + i)) for k in (1, 2)]
            priors = np.array([p] + [t / t.sum() for t in tilts])
            evaluators.append(pc.MaxMinUtility(g * scale, pc.CredalSet(priors, p)))
        else:
            evaluators.append(pc.EntropicUtility(g * scale, p))
    return pc.UtilityProfile(tuple(evaluators))


def line_search_cases():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    coin = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    xc = np.array([-1.0, 0.5, -2.0])
    mm = pc.load_scenario(DATA / "three_agent_maxmin.json")
    mm_grid = pc.enumerate_grid(mm.space, mm.x, 3, 3, state_classes="per_state")
    return [
        ("entropic single class", entropic_profile(space.probs, [1.0, 2.0, 4.0]),
         pc.enumerate_grid(space, x, 3, 8, state_classes="single")),
        ("max-min single class", maxmin_profile(space, [1.0, 2.0, 4.0], {1}),
         pc.enumerate_grid(space, x, 3, 6, state_classes="single")),
        ("entropic per state", entropic_profile(coin.probs, [0.7, 1.9]),
         pc.enumerate_grid(coin, xc, 2, 6)),
        ("max-min per state", maxmin_profile(coin, [0.7, 1.9, 1.1], {0, 2}),
         pc.enumerate_grid(coin, xc, 3, 3)),
        ("max-min, zero-risk state", mm.profile, mm_grid),
        ("entropic, three classes and a zero-risk state", entropic_profile(space.probs, [1.0, 2.0, 4.0]),
         pc.enumerate_grid(space, x, 3, 3, state_classes=HURRICANE_CLASSES)),
        ("max-min, three classes and a zero-risk state", maxmin_profile(space, [1.0, 2.0, 4.0], {1}),
         pc.enumerate_grid(space, x, 3, 3, state_classes=HURRICANE_CLASSES)),
    ]


def test_batched_line_search_matches_the_serial_search_bit_for_bit(monkeypatch):
    # 30 sweeps keep the serial search quick; not every case converges in them.
    monkeypatch.setattr(sys.modules[_refine_shares.__module__], "MAX_SWEEPS", 30)
    taken = []
    for label, profile, grid in line_search_cases():
        wvals = profile.matrix(grid).sum(axis=1)
        # From the grid winner, as maximize_welfare starts, and from the
        # lowest-welfare point, where long steps pay.
        for start in (int(np.argmax(wvals)), int(np.argmin(wvals))):
            q0 = grid.share(start)
            q_ref, best_ref, steps = serial_refine(profile, grid, q0, max_sweeps=30)
            q, best = _refine_shares(profile, grid, q0)
            assert q.tobytes() == q_ref.tobytes(), (label, start)
            assert type(best) is float and best == best_ref, (label, start)
            taken += steps
    # Both ends of the search occur: blocks that take the full step, blocks
    # that halve, and blocks where no step improves and the shares stay put.
    steps = list(filter(None, taken))
    assert None in taken and 1.0 in steps and any(s < 1.0 for s in steps)


def test_full_step_goes_alone_and_the_ladder_only_when_it_fails(monkeypatch):
    monkeypatch.setattr(sys.modules[_refine_shares.__module__], "MAX_SWEEPS", 30)
    kernel = pc.UtilityProfile._evaluate
    trials = []

    def recorded(self, payoff):
        trials.append(payoff.shape[2])
        return kernel(self, payoff)

    seen = set()
    for label, profile, grid in line_search_cases():
        if not label.startswith("max-min"):
            continue
        wvals = profile.matrix(grid).sum(axis=1)
        for start in (int(np.argmax(wvals)), int(np.argmin(wvals))):
            q0 = grid.share(start)
            _, _, steps = serial_refine(profile, grid, q0, max_sweeps=30)
            trials.clear()
            with monkeypatch.context() as m:
                m.setattr(pc.UtilityProfile, "_evaluate", recorded)
                _refine_shares(profile, grid, q0)
            # The starting point, then per block the full step alone, and
            # the other 46 steps as one stack only when the halving search
            # did not stop at the full step.
            expected = [1] + [t for step in steps for t in ([1] if step == 1.0 else [1, 46])]
            assert trials == expected, (label, start)
            seen.update(step == 1.0 for step in steps)
    assert seen == {True, False}


def test_batched_line_search_breaks_prior_ties_at_the_lowest_index(monkeypatch):
    monkeypatch.setattr(sys.modules[_refine_shares.__module__], "MAX_SWEEPS", 30)
    # At the vertex where the max-min agent holds no share in any class its
    # allocation is zero, so all of its priors tie at a certainty equivalent
    # of exactly 0 and the lowest-index prior gives the first gradient; the
    # hurricane grid has 8 states (a pairwise state sum) and a zero-risk one.
    label, profile, grid = line_search_cases()[-1]
    assert label.startswith("max-min, three classes")
    q0 = np.zeros((grid.n_classes, 3))
    q0[:, 0] = 1.0
    u = profile.evaluators[1]
    zero = np.zeros(len(grid.x))
    assert len(grid.x) == 8 and np.any(grid.class_of_state < 0)
    assert all(serial_ce(zero, nu, u.gamma) == 0.0 for nu in u.credal.priors)
    q_ref, best_ref, taken = serial_refine(profile, grid, q0, max_sweeps=30)
    q, best = _refine_shares(profile, grid, q0)
    assert q.tobytes() == q_ref.tobytes() and best == best_ref
    assert taken[0] is not None


def test_refinement_does_not_depend_on_the_heap_layout():
    # Shaped like the benchmark's sweep-4x4-single scenarios: four agents,
    # two of them max-min, four states, one share class.  Between the two
    # runs the odd-sized arrays held here move where the kernel's
    # temporaries land; the refined bytes must not move with them.
    space = pc.StateSpace(["a", "b", "c", "d"], [0.4, 0.3, 0.2, 0.1])
    x = np.array([-1.0, 0.5, -2.0, 1.5])
    profile = maxmin_profile(space, [0.7, 1.9, 1.1, 2.3], {1, 3})
    grid = pc.enumerate_grid(space, x, 4, 6, state_classes="single")
    q0 = grid.share(int(np.argmax(profile.matrix(grid).sum(axis=1))))
    q1, best1 = _refine_shares(profile, grid, q0)
    held = [np.full(k, float(k)) for k in (1, 3, 5, 7, 9, 11, 13, 47, 141)]
    q2, best2 = _refine_shares(profile, grid, q0)
    del held
    assert not np.array_equal(q1, q0)
    assert q1.tobytes() == q2.tobytes() and best1.hex() == best2.hex()


def test_line_search_has_the_halving_steps_above_the_floor():
    steps = LINE_STEPS
    assert len(steps) == 47 and steps[0] == 1.0
    assert np.array_equal(steps[1:], steps[:-1] * 0.5)
    assert steps[-1] > 1e-14 >= steps[-1] * 0.5


def test_batched_line_search_is_warning_free_at_large_exponents():
    # gamma * ||X|| ~ 300: the batch also evaluates the short steps a serial
    # search would never have reached; none of them may overflow.
    coin = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    xc = np.array([-1.0, 0.5, -2.0])
    profile = maxmin_profile(coin, [0.7, 1.9, 1.1], {0, 2}, scale=80.0)
    assert max(u.gamma for u in profile.evaluators) * np.abs(xc).max() == 304.0
    grid = pc.enumerate_grid(coin, xc, 3, 3)
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        res = pc.maximize_welfare(pc.calibrate(profile, grid))
        q_ref, best_ref, _ = serial_refine(profile, grid, grid.share(res.index))
    assert res.method == "refined" and np.isfinite(res.value)
    assert res.shares.tobytes() == q_ref.tobytes()


@pytest.mark.parametrize("scale", [80.0, 300.0])
def test_closed_form_path_is_warning_free_at_large_exponents(scale):
    # The all-entropic twin, at gamma * ||X|| = 304 and 1140: the closed
    # form's point and its evaluation must not overflow either.
    coin = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    xc = np.array([-1.0, 0.5, -2.0])
    profile = maxmin_profile(coin, [0.7, 1.9, 1.1], set(), scale=scale)
    grid = pc.enumerate_grid(coin, xc, 3, 3)
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        game = pc.calibrate(profile, grid)
        res = pc.maximize_welfare(game)
        closed = pc.closed_form_entropic(profile, xc)
    assert res.method == "closed_form" and np.isfinite(res.value)
    assert res.value > game.welfare_max
    assert res.per_agent.tobytes() == closed.per_agent.tobytes()


def test_row_wise_projection_matches_the_vector_projection():
    rng = np.random.default_rng(5)
    on_simplex = rng.dirichlet(np.ones(4), size=5)
    rows = np.concatenate([
        rng.normal(size=(20, 4)) * 3.0,
        on_simplex,                                  # already projected
        [[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0],
         [2.0, 2.0, -1.0, -1.0], [0.5, 0.5, 0.5, 0.5],     # ties
         [-3.0, -3.0, -3.0, -3.0], [0.0, -0.0, 0.0, -0.0]],
    ])
    batched = _project_simplex(rows)
    for row, got in zip(rows, batched):
        assert got.tobytes() == serial_project(row).tobytes(), row
        assert _project_simplex(row).tobytes() == got.tobytes()
    assert np.all(np.abs(batched[20:25] - on_simplex) <= 1e-15)
    one_agent = rng.normal(size=(7, 1))
    got = _project_simplex(one_agent)
    assert np.all(np.abs(got - 1.0) <= 1e-15)
    for row, g in zip(one_agent, got):
        assert g.tobytes() == serial_project(row).tobytes()
    stack = _project_simplex(rows[:30].reshape(2, 15, 4))
    assert stack.tobytes() == batched[:30].tobytes()
    # No u_k + (1 - css_k) / k is positive in the last row: lam is taken at k = n.
    float_rows = np.concatenate([rows, np.tile(one_agent, 4), [[1e17, 1e17, -3.0, 0.0]]])
    for row, got in zip(float_rows, _project_simplex(float_rows)):
        assert np.array(_project_row(row.tolist())).tobytes() == got.tobytes(), row


# Rows of n = 1..6 entries: drawn up to +-1e8 (a gradient times a step at
# large units), drawn from a few values so that entries tie (signed zeros
# among them), or drawn on the simplex.
_entries = st.floats(-1e8, 1e8, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, 0.5])
_rows = st.one_of(
    st.lists(_entries, min_size=1, max_size=6),
    st.lists(_entries, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)
      .filter(lambda w: sum(w) > 0.0)
      .map(lambda w: (np.array(w) / np.sum(w)).tolist()),
)


@given(_rows)
@settings(max_examples=400, deadline=None)
def test_float_row_projection_matches_the_numpy_projection_bit_for_bit(row):
    got = np.array(_project_row(row))
    assert got.tobytes() == _project_simplex(np.array(row)).tobytes(), row
