"""Acceptance suite: every contract-level criterion at its stated tolerance.

Each test prints one PASS line with the measured slack once its assertions
hold; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
Criteria 2, 3, 4, 6, 7, 8 share one batch of 50 seeded random scenarios
(2 to 4 agents, up to 4 states, grids capped at 20,000 points, mixed
entropic and max-min evaluators).
"""

import time

import numpy as np
import pytest

import pricechoose as pc
from conftest import hurricane_space, make_scenarios
from pricechoose.mechanism import _tail_values, bump_profile

TOL = 1e-9


@pytest.fixture(scope="module")
def runs():
    """(game, exact transcript) for each scenario of the batch."""
    out = []
    for _, _, profile, grid in make_scenarios(50):
        game = pc.calibrate(profile, grid)
        out.append((game, pc.run_pnc(game)))
    return out


def test_criterion_1_entropic_benchmark():
    """Example scenario: three farmers, gammas (1,2,4), hit probability 0.1."""
    started = time.perf_counter()
    space, endow = hurricane_space(hit_prob=0.1, loss=1.0)
    x = pc.aggregate_risk(endow)
    gammas = (1.0, 2.0, 4.0)
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in gammas))
    grid = pc.enumerate_grid(space, x, 3, 70, state_classes="single")
    best = pc.maximize_welfare(profile, grid, refine=True)
    closed = pc.closed_form_entropic(profile, x, space.probs)
    elapsed = time.perf_counter() - started

    w = np.array([4.0, 2.0, 1.0]) / 7.0
    share_gap = float(np.abs(best.shares - w[None, :]).max())
    value_gap = abs(best.value - closed.value)
    lam_gap = abs(closed.lam - 4.0 / 7.0)
    tilt_gap = float(np.abs(np.array(gammas) * closed.shares[0] - closed.lam).max())

    assert share_gap <= 1e-2
    assert value_gap <= 1e-3
    assert lam_gap <= 1e-12
    assert tilt_gap <= 1e-12
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 entropic benchmark: PASS "
          f"(share gap {share_gap:.2e}, value gap {value_gap:.2e}, "
          f"lam gap {lam_gap:.2e}, {elapsed:.2f}s)")


def test_criterion_2_indifference_identity(runs):
    """Every equalizing schedule flattens its continuation net payoff."""
    worst = 0.0
    for game, exact in runs:
        for j, schedule in enumerate(exact.schedules):
            net = _tail_values(game.umat, list(exact.order), j + 1) - schedule.values
            worst = max(worst, float(net.max() - net.min()))
    assert worst <= TOL
    print(f"\nACCEPTANCE 2 indifference identity: PASS (max spread {worst:.2e} "
          f"over {len(runs)} scenarios)")


def test_criterion_3_spne_payoff_identities(runs):
    """Non-first movers earn their menu average; the first mover the rest."""
    worst_follower = 0.0
    worst_leader = 0.0
    for game, exact in runs:
        n = game.n_agents
        for i in range(1, n):
            worst_follower = max(worst_follower,
                                 abs(float(exact.payoffs[i]) - game.averages[i]))
        lead = game.welfare_max - float(game.averages[1:].sum())
        worst_leader = max(worst_leader, abs(float(exact.payoffs[0]) - lead))
    assert worst_follower <= TOL
    assert worst_leader <= TOL
    print(f"\nACCEPTANCE 3 SPNE payoff identities: PASS "
          f"(followers {worst_follower:.2e}, leader {worst_leader:.2e})")


def test_criterion_4_perturbed_implementation(runs):
    """Default bump makes the welfare argmax the strict, unique choice."""
    singleton_hits = 0
    worst_payoff = 0.0
    for game, _ in runs:
        t = pc.run_pnc(game, "perturbed")
        target = int(np.argmax(game.umat.sum(axis=1)))
        net = game.umat[:, t.order[-1]] - t.schedules[-1].values
        order_stat = np.sort(net)
        assert t.chosen == target
        assert order_stat[-1] > order_stat[-2]
        singleton_hits += 1
        psi = bump_profile(game.grid, target, t.iota)
        beta = pc.integrate(game.grid, psi)
        expected = (game.welfare_max - float(game.averages[1:].sum())
                    - t.epsilon * (1.0 - beta))
        worst_payoff = max(worst_payoff, abs(float(t.payoffs[0]) - expected))
    assert singleton_hits == len(runs)
    assert worst_payoff <= TOL
    print(f"\nACCEPTANCE 4 perturbed implementation: PASS "
          f"({singleton_hits}/{len(runs)} singleton argmax, "
          f"payoff residual {worst_payoff:.2e})")


def test_criterion_5_pareto_oracle_equivalence():
    """Maximizers are undominated; dominated points are flagged, per an
    independent scan against a four-times-finer menu."""
    space = pc.StateSpace(["a", "b"], [0.6, 0.4])
    x = np.array([-1.0, -2.0])
    gammas = (1.0, 2.5)
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in gammas))
    grid = pc.enumerate_grid(space, x, 2, 50)
    oracle = pc.enumerate_grid(space, x, 2, 200)
    umat = profile.matrix(grid)
    u_oracle = profile.matrix(oracle)
    slack = 1e-12

    wvals = umat.sum(axis=1)
    wmax = float(wvals.max())
    maximizers = np.nonzero(wvals >= wmax - slack)[0]
    assert maximizers.size > 0
    for k in maximizers:
        own = pc.pareto_check(profile, grid, grid.point(int(k)), umat=umat)
        fine = pc.pareto_check(profile, oracle, grid.point(int(k)), umat=u_oracle)
        assert own.optimal and own.attains_max
        assert fine.optimal

    # independent dominance scan over the oracle menu, chunked
    def naive_u(points):
        cols = [-np.log(np.exp(-g * points[:, i, :]) @ space.probs) / g
                for i, g in enumerate(gammas)]
        return np.stack(cols, axis=1)

    ind_oracle = naive_u(oracle.points)
    ind_coarse = naive_u(grid.points)
    dominated_independent = np.zeros(grid.n_points, dtype=bool)
    for lo in range(0, grid.n_points, 200):
        hi = min(lo + 200, grid.n_points)
        u0 = ind_coarse[lo:hi]
        weak = np.ones((hi - lo, oracle.n_points), dtype=bool)
        strict = np.zeros_like(weak)
        for i in range(len(gammas)):
            weak &= ind_oracle[None, :, i] >= u0[:, i, None] - slack
            strict |= ind_oracle[None, :, i] > u0[:, i, None] + slack
        dominated_independent[lo:hi] = np.any(weak & strict, axis=1)

    detected = np.zeros(grid.n_points, dtype=bool)
    for k in range(grid.n_points):
        res = pc.pareto_check(profile, oracle, grid.point(k), umat=u_oracle)
        detected[k] = not res.optimal
    assert np.array_equal(detected, dominated_independent)
    assert not detected[maximizers].any()
    non_max = np.ones(grid.n_points, dtype=bool)
    non_max[maximizers] = False
    n_dominated = int((detected & non_max).sum())
    assert n_dominated > 0
    print(f"\nACCEPTANCE 5 Pareto oracle equivalence: PASS "
          f"({maximizers.size} maximizers undominated, {n_dominated} dominated "
          f"points all detected, verdicts agree on all {grid.n_points})")


def test_criterion_6_auction_fairness(runs):
    """Final payoffs equal Avg_i + eta/n, winner-independent, and no bid gains."""
    worst_fair = 0.0
    worst_spread = 0.0
    worst_total = 0.0
    worst_bid = -np.inf
    for s, (game, _) in enumerate(runs):
        n = game.n_agents
        branches = [pc.run_auction_then_pnc(game, seed=s, winner=w)
                    for w in range(n)]
        eta = branches[0].surplus.eta
        stack = np.stack([br.final_payoffs for br in branches])
        worst_spread = max(worst_spread,
                           float((stack.max(axis=0) - stack.min(axis=0)).max()))
        worst_fair = max(worst_fair,
                         float(np.abs(stack[0] - (game.averages + eta / n)).max()))
        worst_total = max(worst_total, abs(float(stack[0].sum()) - game.welfare_max))
        audit = pc.audit_bid_deviation(game, num_bids=101)
        worst_bid = max(worst_bid, audit.max_gain)
    assert worst_fair <= TOL
    assert worst_spread <= TOL
    assert worst_total <= TOL
    assert worst_bid <= TOL
    print(f"\nACCEPTANCE 6 auction fairness: PASS (fair split {worst_fair:.2e}, "
          f"winner spread {worst_spread:.2e}, total {worst_total:.2e}, "
          f"bid gain {worst_bid:.2e})")


def test_criterion_7_regularity_suite(runs):
    """Cash invariance, monotonicity, concavity, ambiguity dominance, and
    schedule admissibility across the whole batch."""
    worst_cash = 0.0
    worst_mono = 0.0
    worst_conc = 0.0
    worst_dom = 0.0
    schedules_ok = True
    rng = np.random.default_rng(1234)
    for game, exact in runs:
        grid = game.grid
        sample = rng.integers(0, grid.n_points, size=5)
        for k in sample:
            xi = grid.point(int(k))
            for i, u in enumerate(game.profile.evaluators):
                for c in (-10.0, -1.0, 0.0, 1.0, 10.0):
                    worst_cash = max(worst_cash,
                                     pc.check_cash_invariance(u, xi, i, c))
        pairs = rng.integers(0, grid.n_points, size=(5, 2))
        for a, c in pairs:
            xa, xc = grid.point(int(a)), grid.point(int(c))
            for i, u in enumerate(game.profile.evaluators):
                ua, uc = pc.evaluate(u, xa, i), pc.evaluate(u, xc, i)
                bumped = xa.copy()
                bumped[i] += 0.5
                worst_mono = max(worst_mono, ua - pc.evaluate(u, bumped, i))
                for t in (0.25, 0.5, 0.75):
                    mid = pc.evaluate(u, t * xa + (1 - t) * xc, i)
                    worst_conc = max(worst_conc, t * ua + (1 - t) * uc - mid)
        for i, u in enumerate(game.profile.evaluators):
            if isinstance(u, pc.MaxMinUtility):
                ref = pc.EntropicUtility(u.gamma, grid.space.probs)
                gap = game.umat[:, i] - pc.evaluate_grid(ref, grid, i)
                worst_dom = max(worst_dom, float(gap.max()))
        for schedule in exact.schedules:
            diag = pc.validate_schedule(schedule, grid, game.stage_cap)
            schedules_ok = schedules_ok and diag.ok
    assert worst_cash <= TOL
    assert worst_mono <= 1e-12
    assert worst_conc <= TOL
    assert worst_dom <= 1e-12
    assert schedules_ok
    print(f"\nACCEPTANCE 7 regularity suite: PASS (cash {worst_cash:.2e}, "
          f"monotonicity {worst_mono:.2e}, concavity {worst_conc:.2e}, "
          f"ambiguity dominance {worst_dom:.2e}, all schedules admissible)")


def test_criterion_8_deviation_audit(runs):
    """A hundred sampled admissible first-mover deviations never gain."""
    worst = -np.inf
    for s, (game, exact) in enumerate(runs):
        audit = pc.audit_first_mover_bound(game, exact, 100, seed=s)
        assert audit.num_deviations == 100
        worst = max(worst, audit.max_gain)
    assert worst <= TOL
    print(f"\nACCEPTANCE 8 deviation audit: PASS (max gain {worst:.2e} over "
          f"{100 * len(runs)} deviations)")
