import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pricechoose as pc
from pricechoose.menu import grid_point_count

from conftest import hurricane_space


def entropic_pair(space):
    return pc.EntropicUtility(1.0, space.probs)


@pytest.fixture
def coin():
    return pc.StateSpace(["h", "t"], [0.5, 0.5])


@pytest.fixture
def maxmin_coin(coin):
    priors = np.array([[0.5, 0.5], [0.3, 0.7], [0.6, 0.4]])
    return pc.MaxMinUtility(1.5, pc.CredalSet(priors, coin.probs))


def as_alloc(row, n=2, agent=0, m=None):
    m = len(row) if m is None else m
    xi = np.zeros((n, m))
    xi[agent] = row
    return xi


def test_constant_payoff_is_its_own_certainty_equivalent(coin, maxmin_coin):
    for c in (0.0, 1.0, -3.5, 0.7):
        xi = as_alloc([c, c])
        assert pc.evaluate(entropic_pair(coin), xi, 0) == pytest.approx(c, abs=1e-12)
        assert pc.evaluate(maxmin_coin, xi, 0) == pytest.approx(c, abs=1e-12)


def test_normalization_is_exact(coin, maxmin_coin):
    zero = np.zeros((2, 2))
    assert pc.evaluate(entropic_pair(coin), zero, 0) == 0.0
    assert pc.evaluate(maxmin_coin, zero, 0) == 0.0


def test_small_gamma_approaches_expectation(coin):
    u = pc.EntropicUtility(1e-6, coin.probs)
    xi = as_alloc([0.0, -1.0])
    expectation = float(np.dot(coin.probs, xi[0]))
    assert abs(pc.evaluate(u, xi, 0) - expectation) <= 1e-4


def test_entropic_closed_form_value(coin):
    # gamma=1, P=(1/2,1/2), payoff (0,-1): U = log(2 / (1 + e))
    u = entropic_pair(coin)
    expected = math.log(2.0) - math.log1p(math.e)
    assert pc.evaluate(u, as_alloc([0.0, -1.0]), 0) == pytest.approx(expected, abs=1e-14)


def test_worst_case_prior_picks_pessimistic(coin):
    priors = np.array([[0.5, 0.5], [0.2, 0.8]])   # prior 1 loads the loss state
    u = pc.MaxMinUtility(1.0, pc.CredalSet(priors, coin.probs))
    xi = as_alloc([0.0, -1.0])
    vals = [-math.log(p0 + p1 * math.e) for p0, p1 in priors]
    assert vals[1] < vals[0]
    per_prior = [pc.evaluate(pc.EntropicUtility(1.0, p), xi, 0) for p in priors]
    assert int(np.argmin(per_prior)) == 1
    assert pc.evaluate(u, xi, 0) == pytest.approx(min(vals), abs=1e-14)


def test_maxmin_is_minimum_over_priors(coin, maxmin_coin):
    xi = as_alloc([0.5, -1.5])
    per = [pc.evaluate(pc.EntropicUtility(1.5, p), xi, 0)
           for p in maxmin_coin.credal.priors]
    assert pc.evaluate(maxmin_coin, xi, 0) == pytest.approx(min(per), abs=1e-14)


def test_cash_invariance_examples(coin, maxmin_coin):
    xi = as_alloc([0.3, -2.0])
    assert pc.check_cash_invariance(entropic_pair(coin), xi, 0, 0.0) == 0.0
    assert pc.check_cash_invariance(entropic_pair(coin), xi, 0, 5.0) <= 1e-9
    assert pc.check_cash_invariance(maxmin_coin, xi, 0, -2.0) <= 1e-9


def test_cash_invariance_sweep_on_grid(two_state):
    _, _, profile, grid = two_state
    worst = 0.0
    for k in range(0, grid.n_points, 5):
        for i, u in enumerate(profile.evaluators):
            for c in (-10.0, -1.0, 0.0, 1.0, 10.0):
                worst = max(worst, pc.check_cash_invariance(u, grid.point(k), i, c))
    assert worst <= 1e-9


@given(st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=2),
       st.lists(st.floats(0, 3, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_monotonicity(base, bump):
    u = pc.EntropicUtility(0.8, np.array([0.5, 0.5]))
    lo = pc.evaluate(u, as_alloc(base), 0)
    hi = pc.evaluate(u, as_alloc([b + d for b, d in zip(base, bump)]), 0)
    assert lo <= hi + 1e-12


def test_maxmin_dominated_by_reference(coin, maxmin_coin, two_state):
    _, _, _, grid = two_state
    mm = pc.MaxMinUtility(1.5, pc.CredalSet(
        np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([0.6, 0.4])))
    ref = pc.EntropicUtility(1.5, np.array([0.6, 0.4]))
    mm_vals = pc.evaluate_grid(mm, grid, 0)
    ref_vals = pc.evaluate_grid(ref, grid, 0)
    assert np.all(mm_vals <= ref_vals + 1e-12)


def test_sup_norm_lipschitz(two_state):
    _, _, profile, grid = two_state
    rng = np.random.default_rng(5)
    for _ in range(60):
        a, b = rng.integers(0, grid.n_points, size=2)
        for i, u in enumerate(profile.evaluators):
            gap = abs(pc.evaluate(u, grid.point(int(a)), i)
                      - pc.evaluate(u, grid.point(int(b)), i))
            sup = float(np.abs(grid.point(int(a))[i] - grid.point(int(b))[i]).max())
            assert gap <= sup + 1e-9


def test_concavity_on_segments(two_state):
    _, _, profile, grid = two_state
    rng = np.random.default_rng(6)
    for _ in range(40):
        a, b = rng.integers(0, grid.n_points, size=2)
        xa, xb = grid.point(int(a)), grid.point(int(b))
        for i, u in enumerate(profile.evaluators):
            ua, ub = pc.evaluate(u, xa, i), pc.evaluate(u, xb, i)
            for t in (0.25, 0.5, 0.75):
                mid = pc.evaluate(u, t * xa + (1 - t) * xb, i)
                assert mid >= t * ua + (1 - t) * ub - 1e-9


def test_nan_rejected(coin):
    with pytest.raises(pc.ValidationError, match="NaN"):
        pc.evaluate(entropic_pair(coin), as_alloc([np.nan, 0.0]), 0)


def test_nonpositive_gamma_rejected(coin):
    with pytest.raises(pc.ValidationError):
        pc.EntropicUtility(0.0, coin.probs)
    with pytest.raises(pc.ValidationError):
        pc.MaxMinUtility(-1.0, pc.CredalSet(coin.probs[None, :], coin.probs))
    # gamma = inf would make every value nan.
    for gamma in (math.inf, math.nan):
        with pytest.raises(pc.ValidationError, match="gamma must be a positive number"):
            pc.MaxMinUtility(gamma, pc.CredalSet(coin.probs[None, :], coin.probs))


def test_wrong_state_counts_are_structural_errors():
    """An allocation whose state count is not the agent's is a
    StructuralError, not numpy's broadcasting error, and so is a 1-d one."""
    three = pc.StateSpace(["a", "b", "c"], [0.2, 0.3, 0.5])
    u = pc.MaxMinUtility(1.0, pc.CredalSet(
        np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]]), three.probs))
    for xi in (np.zeros((2, 1)), np.ones((2, 4)), np.zeros(3)):
        with pytest.raises(pc.StructuralError):
            pc.evaluate(u, xi, 0)
        with pytest.raises(pc.StructuralError):
            pc.check_cash_invariance(u, xi, 0, 1.0)
    assert pc.evaluate(u, np.zeros((2, 3)), 1) == 0.0
    with pytest.raises(pc.StructuralError):
        pc.evaluate(u, np.zeros((2, 3)), 2)


def test_entropic_probs_must_be_a_probability():
    """An entropic agent is the max-min agent over {probs}, so its probs
    pass the credal-set rules."""
    with pytest.raises(pc.ValidationError, match="strictly positive"):
        pc.EntropicUtility(1.0, [1.0, 0.0])
    with pytest.raises(pc.ValidationError, match="sums to"):
        pc.EntropicUtility(1.0, [0.5, 0.4])


def test_large_gamma_no_overflow(coin):
    u = pc.EntropicUtility(200.0, coin.probs)
    val = pc.evaluate(u, as_alloc([0.0, -3.0]), 0)
    assert np.isfinite(val)
    # worst state dominates: certainty equivalent approaches the minimum
    assert val == pytest.approx(-3.0 + math.log(2.0) / 200.0, abs=1e-6)


def test_credal_set_validation(coin):
    with pytest.raises(pc.ValidationError, match="sum"):
        pc.CredalSet(np.array([[0.5, 0.4]]), coin.probs)
    with pytest.raises(pc.ValidationError, match="strictly positive"):
        pc.CredalSet(np.array([[1.0, 0.0], [0.5, 0.5]]), coin.probs)
    with pytest.raises(pc.ValidationError, match="reference"):
        pc.CredalSet(np.array([[0.4, 0.6]]), coin.probs)
    with pytest.raises(pc.ValidationError, match="Lipschitz"):
        pc.CredalSet(coin.probs[None, :], coin.probs, lip_bound=-1.0)
    # A NaN row passes the positivity and sum tests: every comparison with
    # NaN is false.
    for bad in (np.nan, np.inf):
        with pytest.raises(pc.ValidationError, match=r"priors\[0\] has non-finite entries"):
            pc.CredalSet(np.array([[bad, bad], [0.5, 0.5]]), coin.probs)


def test_evaluator_arrays_are_read_only(coin, maxmin_coin):
    """An in-place write cannot break a rule the constructor checked; the
    caller's own arrays stay writable."""
    priors = np.array([[0.5, 0.5], [0.3, 0.7]])
    credal = pc.CredalSet(priors, coin.probs)
    entropic = pc.EntropicUtility(1.0, priors[1])
    for arr in (credal.priors, credal.reference, entropic.credal.priors,
                entropic.credal.reference, maxmin_coin.credal.priors):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0
    priors[0, 0] = 2.0
    assert credal.priors[0, 0] == 0.5
    pc.CredalSet(credal.priors, credal.reference)      # still passes every rule


def test_estimate_lipschitz_deterministic(two_state):
    _, _, profile, grid = two_state
    a = pc.estimate_lipschitz(profile.evaluators[0], grid, 0)
    b = pc.estimate_lipschitz(profile.evaluators[0], grid, 0)
    assert a == b and a > 0.0


def test_estimate_lipschitz_risk_neutral_mass_bound(two_state):
    _, _, _, grid = two_state
    u = pc.EntropicUtility(1e-9, grid.space.probs)
    for agent in range(2):
        est = pc.estimate_lipschitz(u, grid, agent)
        c = 2.0 ** (agent + 1)      # the mass certificate's constant
        assert est <= c * (1.0 + 1e-6) + 1e-9


def test_estimate_lipschitz_warns_on_miscalibrated_bound(two_state):
    _, _, _, grid = two_state
    mm = pc.MaxMinUtility(1.5, pc.CredalSet(
        np.array([[0.6, 0.4]]), np.array([0.6, 0.4]), lip_bound=1e-9))
    with pytest.warns(UserWarning, match="miscalibrated"):
        pc.estimate_lipschitz(mm, grid, 0)


def avg_utility(u, grid, agent):
    return pc.integrate(grid, pc.evaluate_grid(u, grid, agent))


def test_avg_utility_constant_and_hand(hand):
    _, _, profile, grid = hand
    assert avg_utility(profile.evaluators[1], grid, 1) == pytest.approx(-0.5, abs=1e-12)


def test_avg_utility_maxmin_below_reference(two_state):
    space, _, _, grid = two_state
    mm = pc.MaxMinUtility(1.0, pc.CredalSet(
        np.array([[0.6, 0.4], [0.3, 0.7]]), space.probs))
    ref = pc.EntropicUtility(1.0, space.probs)
    assert avg_utility(mm, grid, 0) <= avg_utility(ref, grid, 0) + 1e-12


def test_profile_matrix_matches_pointwise(two_state):
    _, _, profile, grid = two_state
    umat = profile.matrix(grid)
    assert umat.flags.f_contiguous
    for k in range(grid.n_points):
        assert umat[k].tobytes() == profile.at_point(grid.point(k)).tobytes()


def _gather_grids():
    """A 3-class, 3-agent grid with K = 10 table rows (r = 3), gathered along
    every class axis into the matrix row; and one-agent and no-risk grids,
    which take the reshape copy instead."""
    space = pc.StateSpace(["a", "b", "c", "d"], [0.1, 0.2, 0.3, 0.4])
    x = np.array([-1.0, -2.0, 0.5, -0.7])
    yield 3, pc.enumerate_grid(space, x, 3, 3, state_classes=[0, 1, 2, 1])
    yield 1, pc.enumerate_grid(space, x, 1, 3, state_classes=[0, 1, 2, 1])
    yield 2, pc.enumerate_grid(space, np.zeros(4), 2, 3)


@pytest.mark.parametrize("n, grid", list(_gather_grids()),
                         ids=["three-class", "one-agent", "no-risk"])
def test_matrix_gather_matches_at_point_at_every_point(n, grid):
    space = grid.space
    tilted = space.probs * np.array([1.3, 0.8, 1.1, 0.9])
    agents = [pc.MaxMinUtility(0.7, pc.CredalSet([space.probs, tilted / tilted.sum()],
                                                 space.probs))]
    agents += [pc.EntropicUtility(1.0 + i, space.probs) for i in range(1, n)]
    profile = pc.UtilityProfile(tuple(agents))
    umat = profile.matrix(grid)
    assert grid.n_points == (1000 if n == 3 else 1)
    for k in range(grid.n_points):
        assert umat[k].tobytes() == profile.at_point(grid.point(k)).tobytes(), k
    for i, u in enumerate(agents):
        assert pc.evaluate_grid(u, grid, i).tobytes() == umat[:, i].tobytes()


# ---------------------------------------------------------------------------
# at_point: every agent in one kernel call, bit for bit with ``evaluate``
# ---------------------------------------------------------------------------

def _at_point_profiles():
    """Profiles of 1 to 4 agents on three states, mixing {P} agents with
    max-min agents over 2 or 3 priors."""
    space = pc.StateSpace(["a", "b", "c"], [0.2, 0.5, 0.3])
    rng = np.random.default_rng(11)
    single = pc.EntropicUtility(1.3, space.probs)
    return {
        "one-entropic": (single,),
        "one-maxmin": (_maxmin(space, 0.9, rng),),
        "mixed": (single, _maxmin(space, 2.2, rng, 2), _maxmin(space, 0.4, rng, 3)),
        "all-maxmin": tuple(_maxmin(space, g, rng, 2 + k % 2)
                            for k, g in enumerate((0.5, 1.7, 3.1, 0.8))),
    }


@pytest.mark.parametrize("name", ["one-entropic", "one-maxmin", "mixed", "all-maxmin"])
def test_at_point_is_the_per_agent_evaluator_bit_for_bit(name):
    """Random allocations with a zero-risk state (column 1 all zero), and
    the same allocations scaled to gamma ||X|| ~ 300: each agent's value is
    the float ``evaluate`` gives it, with no floating-point warning."""
    profile = pc.UtilityProfile(_at_point_profiles()[name])
    n = profile.n_agents
    rng = np.random.default_rng(5)
    gamma = max(u.gamma for u in profile.evaluators)
    for scale in (1.0, 300.0 / gamma):
        for _ in range(200):
            xi = rng.normal(size=(n, 3)) * scale
            xi[:, 1] = 0.0
            with np.errstate(all="raise", under="ignore"):
                got = profile.at_point(xi)
                expected = [pc.evaluate(u, xi, i) for i, u in enumerate(profile.evaluators)]
            assert got.tobytes() == np.array(expected).tobytes()
    assert profile.at_point(np.zeros((n, 3))).tobytes() == np.array(
        [pc.evaluate(u, np.zeros((n, 3)), i)
         for i, u in enumerate(profile.evaluators)]).tobytes()


def test_at_point_rejects_malformed_allocations():
    profile = pc.UtilityProfile(_at_point_profiles()["mixed"])
    with pytest.raises(pc.StructuralError):
        profile.at_point(np.zeros(3))
    with pytest.raises(pc.StructuralError):
        profile.at_point(np.zeros((2, 3)))
    with pytest.raises(pc.StructuralError):
        profile.at_point(np.zeros((4, 3)))
    with pytest.raises(pc.StructuralError):
        profile.at_point(np.zeros((3, 2)))
    xi = np.zeros((3, 3))
    xi[2, 0] = np.nan
    with pytest.raises(pc.ValidationError, match="NaN"):
        profile.at_point(xi)


def test_profile_stacks_every_prior_row_read_only():
    profile = pc.UtilityProfile(_at_point_profiles()["mixed"])
    assert profile.priors.tobytes() == np.concatenate(
        [u.credal.priors for u in profile.evaluators]).tobytes()
    assert profile.owner.tolist() == [0, 1, 1, 2, 2, 2]
    assert profile.starts.tolist() == [0, 1, 3]
    assert profile.neg_gamma[:, 0].tolist() == [-u.gamma for u in profile.evaluators
                                                for _ in u.credal.priors]
    for arr in (profile.priors, profile.neg_gamma, profile.owner, profile.starts):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


# ---------------------------------------------------------------------------
# evaluate_grid: one kernel with ``evaluate``, bit for bit
# ---------------------------------------------------------------------------

def _per_point(u, grid, agent):
    """A one-evaluator profile's values at every point's row of the full
    array."""
    return pc.UtilityProfile((u,)).values(grid.points[:, agent:agent + 1, :])[:, 0]


def _maxmin(space, gamma, rng, count=3):
    priors = [space.probs]
    for _ in range(count - 1):
        tilt = space.probs * np.exp(rng.uniform(-0.6, 0.6, len(space.probs)))
        priors.append(tilt / tilt.sum())
    return pc.MaxMinUtility(gamma, pc.CredalSet(np.array(priors), space.probs))


def test_evaluate_grid_shifts_large_exponents():
    """gamma * ||X|| ~ 700: an unshifted sum of exponentials overflows; the
    shifted tables stay finite, raise no RuntimeWarning and give each point
    its own value."""
    four = pc.StateSpace(["a", "b", "c", "d"], [0.1, 0.2, 0.3, 0.4])
    x = np.array([-7.0, 7.0, 0.0, -3.5])
    gamma = 105.0
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        np.exp(gamma * np.abs(x).max())
    grid = pc.enumerate_grid(four, x, 2, 20)
    assert grid.n_classes == 3
    rng = np.random.default_rng(3)
    for u in (pc.EntropicUtility(gamma, four.probs), _maxmin(four, gamma, rng)):
        with np.errstate(all="raise", under="ignore"):
            for agent in range(2):
                got = pc.evaluate_grid(u, grid, agent)
                assert np.all(np.isfinite(got))
                assert got.tobytes() == _per_point(u, grid, agent).tobytes()


def _level_path_grids():
    space, endow = hurricane_space(hit_prob=0.2, loss=1.3)
    x = pc.aggregate_risk(endow)
    four = pc.StateSpace(["a", "b", "c", "d"], [0.1, 0.2, 0.3, 0.4])
    three = pc.StateSpace(["a", "b", "c"], [0.2, 0.3, 0.5])
    return {
        "hurricane-labelled": (pc.enumerate_grid(
            space, x, 3, 4, state_classes=[0, 1, 1, 2, 1, 2, 2, 3]), (0.8, 2.5)),
        "per-state-n2": (pc.enumerate_grid(
            four, np.array([-1.0, 2.0, -0.5, 1.5]), 2, 6), (0.8, 2.5)),
        "labels-zero-risk": (pc.enumerate_grid(
            four, np.array([-1.0, 0.0, 2.0, -3.0]), 3, 5,
            state_classes=["p", "p", "q", "r"]), (0.8, 2.5)),
        # gamma * ||X|| ~ 700
        "large-exponent": (pc.enumerate_grid(
            four, np.array([-7.0, 7.0, 0.0, -3.5]), 2, 20), (105.0,)),
        "one-agent": (pc.enumerate_grid(
            four, np.array([-1.0, 2.0, 0.0, -3.0]), 1, 4), (0.8,)),
        "one-agent-single": (pc.enumerate_grid(
            space, x, 1, 7, state_classes="single"), (1.7,)),
        "single-class": (pc.enumerate_grid(
            space, x, 3, 12, state_classes="single"), (1.7,)),
        "one-state-zero-risk": (pc.enumerate_grid(
            three, np.array([0.0, -2.0, 0.0]), 3, 9), (1.7,)),
        "no-class": (pc.enumerate_grid(three, np.zeros(3), 2, 5), (1.7,)),
    }


@pytest.mark.parametrize("name", list(_level_path_grids()))
def test_evaluate_grid_is_the_per_point_evaluator_bit_for_bit(name):
    grid, gammas = _level_path_grids()[name]
    rng = np.random.default_rng(17)
    probs = grid.space.probs
    for gamma in gammas:
        for u in (pc.EntropicUtility(gamma, probs), _maxmin(grid.space, gamma, rng)):
            for agent in range(grid.n_agents):
                got = pc.evaluate_grid(u, grid, agent)
                ref = _per_point(u, grid, agent)
                assert got.dtype == ref.dtype and got.shape == (grid.n_points,)
                assert got.tobytes() == ref.tobytes()
    if name == "per-state-n2":
        assert len(np.unique(grid.table[:, 0])) == grid.table.shape[0]   # L = K
    if name == "one-agent":
        assert grid.n_classes == 3 and grid.n_points == 1 and grid.table.shape == (1, 1)


@pytest.mark.parametrize("name", list(_level_path_grids()))
def test_share_levels_are_the_sorted_distinct_table_entries(name):
    """The levels evaluate_grid reads from the integer table are the ones
    np.unique finds in each column of the share table, byte for byte."""
    grid, _ = _level_path_grids()[name]
    levels, index = grid._share_levels()
    assert index.shape == grid.table.shape
    for agent in range(grid.n_agents):
        ref, inv = np.unique(grid.table[:, agent], return_inverse=True)
        assert levels.tobytes() == ref.tobytes()
        assert np.array_equal(index[:, agent], inv)
    if grid.n_agents == 1:
        assert levels.tolist() == [1.0]


def test_evaluate_grid_evaluates_in_bounded_blocks(monkeypatch):
    """No kernel call holds more than GRID_BLOCK (state, prior row, tuple)
    entries, so a fine grid over many states is not evaluated in one table,
    and a block holds fewer tuples the more prior rows a profile stacks."""
    from pricechoose import utility

    kernel, sizes = utility._tilted_ce, []

    def counting(z, *args):
        sizes.append(z.size)
        return kernel(z, *args)

    monkeypatch.setattr(utility, "_tilted_ce", counting)
    m = 536                    # the most states a 2-agent metric separates
    space = pc.StateSpace([f"s{w}" for w in range(m)], np.full(m, 1.0 / m))
    x = -1.0 - np.arange(m) % 7 / 7.0
    grids = [pc.enumerate_grid(space, x, 2, 20_000, state_classes="single"),
             pc.enumerate_grid(space, x, 2, 140, state_classes=np.arange(m) % 2)]
    for grid in grids:
        sizes.clear()
        vals = pc.evaluate_grid(pc.EntropicUtility(0.5, space.probs), grid, 0)
        assert len(sizes) > 1 and max(sizes) <= utility.GRID_BLOCK
        assert sum(sizes) == m * len(np.unique(grid.table[:, 0])) ** grid.n_classes
        assert vals[0] == 0.0       # point 0 gives agent 0 nothing in every class
    rng = np.random.default_rng(2)
    profile = pc.UtilityProfile((pc.EntropicUtility(0.5, space.probs),
                                 _maxmin(space, 1.5, rng, 3)))
    grid = pc.enumerate_grid(space, x, 2, 30, state_classes="single")
    sizes.clear()
    profile.matrix(grid)
    assert len(sizes) == 2 and max(sizes) <= utility.GRID_BLOCK
    assert sum(sizes) == m * 4 * 31


@st.composite
def small_scenarios(draw):
    """A profile and a grid of at most 5,000 points: 1-4 agents, 1-6 states,
    some of them zero-risk, random class labels, entropic and max-min
    agents."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(st.one_of(st.just(0.0), coord), min_size=m, max_size=m)))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
    space = pc.StateSpace([f"s{w}" for w in range(m)], weights / weights.sum())
    labels = draw(st.one_of(st.sampled_from(["per_state", "single"]),
                            st.lists(st.integers(0, 2), min_size=m, max_size=m)))
    resolution = draw(st.integers(1, 6))
    while resolution > 1 and grid_point_count(x, n, resolution, labels) > 5_000:
        resolution -= 1
    assume(grid_point_count(x, n, resolution, labels) <= 5_000)
    evaluators = []
    for _ in range(n):
        gamma = draw(st.floats(0.05, 20.0))
        count = draw(st.integers(1, 3))
        if count == 1:
            evaluators.append(pc.EntropicUtility(gamma, space.probs))
            continue
        tilts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m * (count - 1),
                                       max_size=m * (count - 1)))).reshape(count - 1, m)
        others = space.probs * np.exp(tilts)
        priors = np.vstack([space.probs, others / others.sum(axis=1, keepdims=True)])
        evaluators.append(pc.MaxMinUtility(gamma, pc.CredalSet(priors, space.probs)))
    grid = pc.enumerate_grid(space, x, n, resolution, state_classes=labels)
    return pc.UtilityProfile(tuple(evaluators)), grid


@given(small_scenarios())
@settings(max_examples=60, deadline=None)
def test_every_grid_value_is_the_value_of_its_point(scenario):
    profile, grid = scenario
    umat = profile.matrix(grid)
    for k in range(grid.n_points):
        assert umat[k].tobytes() == profile.at_point(grid.point(k)).tobytes()
    for i in range(grid.n_agents):
        holds_nothing = np.all(grid.points[:, i, :] == 0.0, axis=1)
        assert np.all(umat[holds_nothing, i] == 0.0)
