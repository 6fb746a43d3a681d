import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pricechoose as pc
from pricechoose.menu import _pair_distances, compositions

from conftest import hurricane_space


# ---------------------------------------------------------------------------
# shares_to_allocation
# ---------------------------------------------------------------------------

def test_shares_single_state():
    xi = pc.shares_to_allocation(np.array([0.25, 0.75]), np.array([-1.0]))
    assert xi.tolist() == [[-0.25], [-0.75]]


def test_shares_vertex_gives_everything_to_one_agent():
    x = np.array([-2.0, 3.0])
    xi = pc.shares_to_allocation(np.array([1.0, 0.0, 0.0]), x)
    assert np.array_equal(xi[0], x)
    assert np.all(xi[1:] == 0.0)


def test_shares_three_agent_arithmetic():
    q = np.array([4, 2, 1], dtype=float) / 7.0
    xi = pc.shares_to_allocation(q, np.array([-2.0]))
    expected = [float(Fraction(-8, 7)), float(Fraction(-4, 7)), float(Fraction(-2, 7))]
    assert xi[:, 0] == pytest.approx(expected, abs=1e-15)
    assert xi[:, 0].sum() == pytest.approx(-2.0, abs=1e-15)


def test_shares_zero_states_get_zero():
    xi = pc.shares_to_allocation(np.array([0.5, 0.5]), np.array([0.0, -4.0]))
    assert xi[:, 0].tolist() == [0.0, 0.0]
    assert xi[:, 1].tolist() == [-2.0, -2.0]


def test_shares_simplex_violation():
    with pytest.raises(pc.ValidationError):
        pc.shares_to_allocation(np.array([0.7, 0.7]), np.array([-1.0]))
    with pytest.raises(pc.ValidationError):
        pc.shares_to_allocation(np.array([-0.2, 1.2]), np.array([-1.0]))


def test_shares_row_count_mismatch():
    with pytest.raises(pc.StructuralError):
        pc.shares_to_allocation(np.array([[0.5, 0.5]]), np.array([-1.0, -1.0]))


@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_simplex_shares_always_feasible(raw, x):
    q = np.array(raw) / np.sum(raw)
    x = np.array(x)
    xi = pc.shares_to_allocation(q, x)
    assert pc.validate_feasible(xi, x).ok


# ---------------------------------------------------------------------------
# validate_feasible
# ---------------------------------------------------------------------------

def test_feasible_pass():
    report = pc.validate_feasible(np.array([[2.0], [1.0]]), np.array([3.0]))
    assert report.ok


def test_sign_violation_located():
    report = pc.validate_feasible(np.array([[4.0], [-1.0]]), np.array([3.0]))
    assert not report.sign_ok
    assert (1, 0) in report.sign_violations
    assert report.sum_ok


def test_anchored_zero_violation():
    report = pc.validate_feasible(np.array([[0.5, 0.0], [-0.5, 0.0]]),
                                  np.array([0.0, 0.0]))
    assert not report.anchored_ok
    assert (0, 0) in report.anchored_violations


def test_coordinate_bound_violation():
    report = pc.validate_feasible(np.array([[-3.0], [2.0]]), np.array([-1.0]))
    assert not report.bound_ok and not report.sign_ok


# ---------------------------------------------------------------------------
# anchored comonotone tables
# ---------------------------------------------------------------------------

def test_proportional_rule_is_anchored_comonotone():
    xs = [0.0, -1.0, -2.0]
    table = [{x: w * x for x in xs} for w in (0.3, 0.7)]
    assert pc.is_anchored_comonotone(table)


def test_positive_payoff_on_loss_rejected():
    xs = [0.0, -1.0]
    table = [{0.0: 0.0, -1.0: 1.0}, {0.0: 0.0, -1.0: -2.0}]
    assert not pc.is_anchored_comonotone(table)


def test_tranche_rule_is_anchored_comonotone_and_feasible():
    xs = [0.0, -1.0, -2.0]
    first = {x: max(x, -1.0) for x in xs}
    second = {x: x - first[x] for x in xs}
    table = [first, second]
    assert pc.is_anchored_comonotone(table)
    x = np.array([-2.0, 0.0, -1.0, -2.0])
    from pricechoose.menu import allocation_from_table
    report = pc.validate_feasible(allocation_from_table(table, x), x)
    assert report.ok


def test_sum_telescope_required():
    table = [{0.0: 0.0, -2.0: -0.5}, {0.0: 0.0, -2.0: -0.5}]
    assert not pc.is_anchored_comonotone(table)


# ---------------------------------------------------------------------------
# grid enumeration
# ---------------------------------------------------------------------------

def test_grid_two_agents_resolution_two(hand):
    _, x, _, grid = hand
    assert grid.n_points == 3
    assert np.allclose(grid.weights, 1.0 / 3.0)
    # ascending lexicographic order: all mass on the last agent first
    assert grid.points[:, 1, 0].tolist() == [-1.0, -0.5, 0.0]
    assert grid.points[:, 0, 0].tolist() == [0.0, -0.5, -1.0]


def test_grid_three_agents_stars_and_bars():
    space = pc.StateSpace(["w"], [1.0])
    grid = pc.enumerate_grid(space, np.array([-1.0]), 3, 2)
    assert grid.n_points == math.comb(4, 2) == 6


def test_grid_zero_aggregate_single_point():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    grid = pc.enumerate_grid(space, np.zeros(2), 3, 5)
    assert grid.n_points == 1
    assert np.all(grid.points == 0.0)
    assert grid.weights.tolist() == [1.0]


def test_grid_budget_exceeded():
    space = pc.StateSpace(["a", "b", "c"], [0.3, 0.3, 0.4])
    with pytest.raises(pc.GridBudgetError, match="lower the resolution"):
        pc.enumerate_grid(space, np.array([-1.0, -1.0, -1.0]), 4, 40,
                          budget=10_000)


def test_grid_point_count_matches_enumeration():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    x = np.array([-1.0, 2.0])
    for res in (1, 2, 5):
        grid = pc.enumerate_grid(space, x, 3, res)
        assert grid.n_points == pc.grid_point_count(x, 3, res)
        assert grid.n_points == math.comb(res + 2, 2) ** 2


@given(st.integers(1, 8), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_compositions_count_and_order(total, parts):
    comp = compositions(total, parts)
    assert comp.shape == (math.comb(total + parts - 1, parts - 1), parts)
    assert np.all(comp.sum(axis=1) == total)
    as_tuples = [tuple(r) for r in comp]
    assert as_tuples == sorted(as_tuples)


def test_grid_points_all_feasible(two_state):
    _, x, _, grid = two_state
    for k in range(0, grid.n_points, 7):
        assert pc.validate_feasible(grid.point(k), x).ok
    assert float((np.abs(grid.points) - np.abs(x)[None, None, :]).max()) <= 1e-12


def test_grid_single_class_ties_states():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    x = np.array([-1.0, -2.0])
    grid = pc.enumerate_grid(space, x, 2, 4, state_classes="single")
    assert grid.n_points == 5
    assert grid.n_classes == 1
    # same share applied to both states
    assert np.allclose(grid.points[:, 0, 1], 2.0 * grid.points[:, 0, 0])


def test_geometric_weights_full_support():
    space = pc.StateSpace(["w"], [1.0])
    grid = pc.enumerate_grid(space, np.array([-1.0]), 2, 6, weights="geometric")
    assert np.all(grid.weights > 0)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert grid.weights[0] > grid.weights[-1]
    with pytest.raises(pc.ValidationError, match="underflow"):
        pc.enumerate_grid(space, np.array([-1.0]), 2, 2000, weights="geometric")


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_zero_on_identical(two_state):
    _, _, _, grid = two_state
    assert pc.metric_distance(grid.metric, grid.point(3), grid.point(3)) == 0.0


def test_metric_agent_mass_certificate(two_state):
    space, x, _, grid = two_state
    metric = grid.metric
    a = grid.point(10)
    b = a.copy()
    b[0, 0] += 0.25        # only agent 0 differs
    b[0, 1] -= 0.1
    d = pc.metric_distance(metric, a, b)
    mean_gap = abs(float(np.dot(space.probs, a[0] - b[0])))
    assert d >= metric.weights[0] * mean_gap - 1e-15
    assert mean_gap <= metric.agent_mass_weights[0] * d + 1e-15


def test_metric_positive_on_row_swap():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    x = np.array([-1.0, -1.0])
    grid = pc.enumerate_grid(space, x, 2, 2)
    a = pc.shares_to_allocation(np.array([0.5, 0.5]), x)
    b = pc.shares_to_allocation(np.array([[1.0, 0.0], [0.0, 1.0]]), x)
    assert pc.metric_distance(grid.metric, a, b) > 0.0


def test_metric_separates_grid_points_exhaustively():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    grid = pc.enumerate_grid(space, np.array([-1.0, 2.0]), 2, 3)
    g = grid.features
    d = np.abs(g[:, None, :] - g[None, :, :]) @ grid.feature_weights
    off = d + np.eye(grid.n_points) * d.max()
    assert off.min() > 0.0
    assert np.allclose(d, d.T)


def _custom_metric(space, n_agents, members):
    return pc.WeakStarMetric(probs=space.probs,
                             test_functions=np.array(members, dtype=float),
                             weights=0.5 ** np.arange(1, len(members) + 1),
                             agent_mass_weights=2.0 ** np.arange(1, n_agents + 1))


def _all_pairs_grids():
    space = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    x = np.array([-1.0, 0.0, 2.5])
    yield pc.enumerate_grid(space, x, 3, 4)
    yield pc.enumerate_grid(space, x, 3, 5, state_classes="single")
    yield pc.enumerate_grid(space, np.array([-1.0, -2.0, -0.5]), 2, 5,
                            state_classes=["u", "v", "u"])
    for k in (2, 4, 7):
        yield pc.enumerate_grid(space, x, 2, 4,
                                metric=pc.build_metric(space, 2, max_members=k))
    x3 = np.array([-1.0, -2.0, 3.0])
    yield pc.enumerate_grid(space, x3, 2, 4)
    yield pc.enumerate_grid(space, np.array([-1.0, 0.0, -0.5]), 3, 3,
                            state_classes=["u", "z", "v"])
    yield pc.enumerate_grid(space, np.zeros(3), 3, 4)
    # The default family plus a test function pairing agents 0 and 1 in
    # state a (one class) and one spanning states a and c.
    pairs_agents = [[2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    spans_states = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]
    default = list(pc.build_metric(space, 3).test_functions)
    yield pc.enumerate_grid(space, x3, 3, 2, metric=_custom_metric(
        space, 3, default + [pairs_agents, spans_states]))
    # Only state a is tested: the other two classes carry no feature.
    yield pc.enumerate_grid(space, x3, 2, 3,
                            metric=_custom_metric(space, 2, [pairs_agents[:2]]))


@pytest.mark.parametrize("grid", list(_all_pairs_grids()))
def test_grid_distance_matches_metric_definition_all_pairs(grid):
    # distances_to sums per-class terms, so a pair at zero distance in exact
    # arithmetic (truncated families) may round to a few 1e-18 either way.
    floor = 1e-16 * grid.diameter[0]
    worst = 0.0
    for k in range(grid.n_points):
        row = grid.distances_to(k)
        assert row.shape == (grid.n_points,)
        assert row[k] == 0.0
        for j in range(grid.n_points):
            ref = pc.metric_distance(grid.metric, grid.points[j], grid.points[k])
            got = grid.distance(j, k)
            assert (got == 0.0) == (ref == 0.0)
            if ref:
                worst = max(worst, abs(got - ref) / ref)
            assert abs(row[j] - ref) <= 1e-14 * ref + floor
    assert worst <= 1e-14


@pytest.mark.parametrize("grid", [g for g in _all_pairs_grids() if g.n_classes <= 1])
def test_distances_to_single_class_is_the_feature_scan(grid):
    g, w = grid.features, grid.feature_weights
    for k in range(grid.n_points):
        assert np.array_equal(grid.distances_to(k), np.abs(g - g[k]) @ w)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_distances_to_caches_no_point_sized_array():
    space, endow = hurricane_space()
    grid = pc.enumerate_grid(space, pc.aggregate_risk(endow), 3, 3,
                             state_classes=[0, 1, 1, 2, 1, 2, 2, 3])
    assert grid.n_classes == 3
    before = set(grid.__dict__)
    for k in (0, 7, grid.n_points - 1):
        grid.distances_to(k)
    assert "features" not in grid.__dict__
    cached = [grid.__dict__[name] for name in set(grid.__dict__) - before]
    assert cached
    assert all(a.shape[0] < grid.n_points for a in _arrays(cached))


def test_distances_to_rejects_out_of_range_targets():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.0]), 2, 3)
    for k in (-1, grid.n_points):
        with pytest.raises(pc.StructuralError, match="outside"):
            grid.distances_to(k)
        with pytest.raises(pc.StructuralError, match="outside"):
            pc.bump_profile(grid, k, 0.1)
    assert pc.bump_profile(grid, grid.n_points - 1, 0.1)[-1] == 1.0


def test_merged_features_one_per_class_and_agent():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    single = pc.enumerate_grid(space, x, 3, 10, state_classes="single")
    assert single.features.shape == (single.n_points, 3)
    labels = [0, 1, 1, 2, 1, 2, 2, 3]
    classes = pc.enumerate_grid(space, x, 3, 2, state_classes=labels)
    # 3 classes x 3 agents, plus the 3 agent-mass functionals spanning them
    assert classes.features.shape == (classes.n_points, 12)
    assert classes.feature_weights.shape == (12,)
    per_state = pc.enumerate_grid(space, x, 3, 1)
    assert per_state.features.shape[1] == per_state.metric.n_members - 3


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_metric_triangle_inequality(data):
    space = pc.StateSpace(["a", "b"], [0.6, 0.4])
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.0]), 2, 8)
    i, j, k = (data.draw(st.integers(0, grid.n_points - 1)) for _ in range(3))
    dij = grid.distance(i, j)
    assert dij <= grid.distance(i, k) + grid.distance(k, j) + 1e-12
    assert dij == pytest.approx(grid.distance(j, i), abs=1e-15)


def test_truncated_metric_keeps_mandatory_members():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    metric = pc.build_metric(space, 3, max_members=4)
    assert metric.n_members == 4
    with pytest.raises(pc.ValidationError):
        pc.build_metric(space, 3, max_members=2)


# ---------------------------------------------------------------------------
# integration and export
# ---------------------------------------------------------------------------

def test_integrate_constant_is_identity(two_state):
    _, _, _, grid = two_state
    assert pc.integrate(grid, np.full(grid.n_points, 2.5)) == pytest.approx(2.5, abs=1e-12)


def test_integrate_indicator_returns_weight(two_state):
    _, _, _, grid = two_state
    f = np.zeros(grid.n_points)
    f[11] = 1.0
    assert pc.integrate(grid, f) == grid.weights[11]


def test_integrate_follower_utilities_hand_example(hand):
    _, _, profile, grid = hand
    u2 = pc.evaluate_grid(profile.evaluators[1], grid, 1)
    assert u2 == pytest.approx([-1.0, -0.5, 0.0], abs=1e-12)
    assert pc.integrate(grid, u2) == pytest.approx(-0.5, abs=1e-12)


def test_integrate_shape_mismatch(hand):
    _, _, _, grid = hand
    with pytest.raises(pc.StructuralError):
        pc.integrate(grid, np.zeros(grid.n_points + 1))


def test_grid_csv_roundtrip(tmp_path, hand):
    _, _, _, grid = hand
    path = tmp_path / "grid.csv"
    pc.export_grid_csv(grid, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "point,state,agent,payoff,weight"
    assert len(rows) == 1 + grid.n_points * 2 * 1
    k, state, agent, payoff, weight = rows[1].split(",")
    assert (int(k), state, int(agent)) == (0, "loss", 0)
    assert float(payoff) == grid.points[0, 0, 0]
    assert float(weight) == grid.weights[0]


# ---------------------------------------------------------------------------
# pairwise Lipschitz scans
# ---------------------------------------------------------------------------

def test_lipschitz_ratio_constant_is_zero(two_state):
    _, _, _, grid = two_state
    assert pc.lipschitz_ratio(np.zeros(grid.n_points), grid) == 0.0


def test_lipschitz_ratio_deterministic(two_state):
    _, _, profile, grid = two_state
    vals = pc.evaluate_grid(profile.evaluators[0], grid, 0)
    assert pc.lipschitz_ratio(vals, grid) == pc.lipschitz_ratio(vals, grid)


def test_lipschitz_ratio_sampled_branch_deterministic():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.0]), 2, 30)
    vals = grid.points[:, 0, 0] + 0.3 * grid.points[:, 0, 1]
    est1 = pc.lipschitz_ratio(vals, grid, exhaustive_threshold=100)
    est2 = pc.lipschitz_ratio(vals, grid, exhaustive_threshold=100)
    exhaustive = pc.lipschitz_ratio(vals, grid, exhaustive_threshold=10_000)
    assert est1 == est2
    assert est1 <= exhaustive + 1e-12


def test_diameter_exact_matches_bound(two_state):
    _, _, _, grid = two_state
    diam, exact = grid.diameter
    assert exact
    g = grid.features
    ub = float(np.dot(grid.feature_weights, g.max(axis=0) - g.min(axis=0)))
    assert diam <= ub + 1e-15
    assert diam >= grid.distance(0, grid.n_points - 1) - 1e-15


def _full_scan_diameter(grid):
    g, w, p = grid.features, grid.feature_weights, grid.n_points
    return max(float(_pair_distances(g, w, lo, min(lo + 256, p)).max())
               for lo in range(0, p, 256))


def _small_grids():
    space = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    yield pc.enumerate_grid(space, np.array([-1.0, -2.0, 3.0]), 3, 12,
                            state_classes="single")
    yield pc.enumerate_grid(space, np.array([-1.0, -2.0, 3.0]), 2, 9)
    yield pc.enumerate_grid(space, np.array([-1.0, 0.0, -0.5]), 3, 6,
                            state_classes=["u", "u", "v"])
    yield pc.enumerate_grid(space, np.zeros(3), 3, 5)


@pytest.mark.parametrize("grid", list(_small_grids()))
def test_vertex_diameter_equals_full_scan(grid):
    assert grid.n_points <= 4096
    diam, exact = grid.diameter
    assert exact
    assert diam == _full_scan_diameter(grid)


def test_all_zero_risk_diameter_is_zero():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    grid = pc.enumerate_grid(space, np.zeros(2), 2, 4)
    assert grid.n_classes == 0
    assert grid.diameter == (0.0, True)


def test_vertex_diameter_exact_above_4096_points():
    space = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.0, 3.0]), 2, 20)
    assert grid.n_points == 9261
    diam, exact = grid.diameter
    assert exact
    vertices = np.nonzero(np.all(grid.shares.max(axis=2) == 1.0, axis=1))[0]
    assert len(vertices) == 2 ** 3
    best = max(pc.metric_distance(grid.metric, grid.points[a], grid.points[b])
               for a in vertices for b in vertices)
    assert abs(diam - best) <= 1e-14 * best
    g = grid.metric.features(grid.points)
    bound = float(np.dot(grid.metric.weights, g.max(axis=0) - g.min(axis=0)))
    assert diam <= bound
