import numpy as np
import pytest

import pricechoose as pc
from conftest import hurricane_space
from pricechoose.auction import expected_deviation_payoff


def test_surplus_is_zero_for_pure_transfers(hand):
    # single state: every split is a transfer, the menu average ties the max
    _, _, profile, grid = hand
    game = pc.calibrate(profile, grid)
    assert pc.efficient_surplus(game) == pytest.approx(0.0, abs=1e-12)
    assert game.welfare_max == pytest.approx(-1.0, abs=1e-12)


def test_surplus_arithmetic_chain(two_state):
    _, _, profile, grid = two_state
    umat = profile.matrix(grid)
    eta = pc.efficient_surplus(pc.calibrate(profile, grid))
    wmax = float(umat.sum(axis=1).max())
    avgs = [pc.integrate(grid, umat[:, i]) for i in range(2)]
    assert eta == pytest.approx(wmax - sum(avgs), abs=1e-12)
    assert eta >= 0.0


def test_enlarging_credal_set_weakly_lowers_average(two_state):
    space, _, _, grid = two_state
    small = np.array([space.probs, [0.4, 0.6]])
    extra = np.array([space.probs, [0.4, 0.6], [0.2, 0.8]])
    u_small = pc.MaxMinUtility(1.2, pc.CredalSet(small, space.probs))
    u_big = pc.MaxMinUtility(1.2, pc.CredalSet(extra, space.probs))
    avg = lambda u: pc.integrate(grid, pc.evaluate_grid(u, grid, 0))
    assert avg(u_big) <= avg(u_small) + 1e-12


def test_equilibrium_bid_examples():
    assert pc.equilibrium_bid(0.0, 4) == 0.0
    b = pc.equilibrium_bid(0.6, 3)
    assert b == pytest.approx(0.4, abs=1e-15)
    assert 0.6 - b == pytest.approx(b / 2, abs=1e-12)
    assert pc.equilibrium_bid(1.0, 2) == pytest.approx(0.5, abs=1e-15)


def test_equilibrium_bid_domain_errors():
    with pytest.raises(pc.ValidationError, match="surplus"):
        pc.equilibrium_bid(-0.1, 3)
    with pytest.raises(pc.ParameterError):
        pc.equilibrium_bid(1.0, 1)


def test_combined_run_fair_split(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    avgs = pc.average_utilities(grid, profile.matrix(grid))
    combined = pc.run_auction_then_pnc(game, seed=5)
    eta = combined.eta
    expected = avgs + eta / 2
    assert combined.final_payoffs == pytest.approx(expected, abs=1e-9)
    assert float(combined.auction.transfers.sum()) == pytest.approx(0.0, abs=1e-12)
    assert combined.auction.bids[combined.auction.winner] == combined.auction.bids.max()


def test_combined_run_invariant_to_winner(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    branches = [pc.run_auction_then_pnc(game, seed=5, winner=w)
                for w in range(2)]
    stack = np.stack([b.final_payoffs for b in branches])
    assert float((stack.max(axis=0) - stack.min(axis=0)).max()) <= 1e-9
    # both branches implement the same welfare-maximal point
    assert branches[0].transcript.chosen == branches[1].transcript.chosen


def test_zero_surplus_final_payoffs_are_averages(hand):
    _, _, profile, grid = hand
    avgs = pc.average_utilities(grid, profile.matrix(grid))
    combined = pc.run_auction_then_pnc(pc.calibrate(profile, grid), seed=2)
    assert combined.auction.bids.tolist() == [0.0, 0.0]
    assert combined.final_payoffs == pytest.approx(avgs, abs=1e-9)


def test_three_agent_equal_surplus_shares():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in (1.0, 2.0, 4.0)))
    grid = pc.enumerate_grid(space, x, 3, 7, state_classes="single")
    umat = profile.matrix(grid)
    avgs = pc.average_utilities(grid, umat)
    wmax = float(umat.sum(axis=1).max())
    combined = pc.run_auction_then_pnc(pc.calibrate(profile, grid), seed=9)
    eta = combined.eta
    shares = combined.final_payoffs - avgs
    assert shares == pytest.approx([eta / 3] * 3, abs=1e-9)
    assert float(combined.final_payoffs.sum()) == pytest.approx(wmax, abs=1e-9)


def test_winner_draw_deterministic(two_state):
    _, _, profile, grid = two_state
    a = pc.run_auction_then_pnc(pc.calibrate(profile, grid), seed=123)
    b = pc.run_auction_then_pnc(pc.calibrate(profile, grid), seed=123)
    assert a.auction.winner == b.auction.winner
    assert np.array_equal(a.final_payoffs, b.final_payoffs)


def test_bid_deviation_cases(two_state):
    _, _, profile, grid = two_state
    game = pc.calibrate(profile, grid)
    eta = pc.efficient_surplus(game)
    n = 2
    b_star = pc.equilibrium_bid(eta, n)
    avg = float(game.averages[0])
    base = expected_deviation_payoff(avg, eta, b_star, b_star, n)
    assert base == pytest.approx(avg + eta / n, abs=1e-12)
    overbid = expected_deviation_payoff(avg, eta, b_star, b_star + 0.01, n)
    assert overbid < base - 1e-12
    underbid = expected_deviation_payoff(avg, eta, b_star, b_star / 2, n)
    assert underbid == pytest.approx(base, abs=1e-12)


def test_bid_audit_never_gains(two_state):
    _, _, profile, grid = two_state
    gain = pc.audit_bid_deviation(pc.calibrate(profile, grid))
    assert type(gain) is float and gain <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_no_scanned_bid_beats_the_closed_form(two_state, n):
    """A dense scan of bids over [0, 2 eta], tightest around b*, finds no
    expected gain above the audit's supremum, and comes within the step of
    it from above b*."""
    _, _, profile, grid = two_state
    game = pc.calibrate(pc.UtilityProfile(profile.evaluators[:1] * n),
                        pc.enumerate_grid(grid.space, grid.x, n, 2))
    eta = pc.efficient_surplus(game)
    assert eta > 0.0
    b_star = pc.equilibrium_bid(eta, n)
    supremum = pc.audit_bid_deviation(game)
    offsets = np.geomspace(1e-15, 1.0, 400) * eta
    bids = np.concatenate([np.linspace(0.0, 2.0 * eta, 2001),
                           b_star - offsets, b_star + offsets, [b_star]])
    bids = bids[bids >= 0.0]
    for avg in game.averages:
        base = expected_deviation_payoff(float(avg), eta, b_star, b_star, n)
        gains = [expected_deviation_payoff(float(avg), eta, b_star, float(b), n) - base
                 for b in bids]
        assert max(gains) <= supremum + 1e-15
        assert max(gains) >= supremum - 1e-12
