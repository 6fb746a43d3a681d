import gc
import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pricechoose as pc
from pricechoose import welfare
from pricechoose.menu import (METRIC_MEMBER_LIMIT, check_grid_size, compositions,
                              grid_point_count)

from conftest import column_sums, distance, hurricane_space


# ---------------------------------------------------------------------------
# MenuGrid.allocation
# ---------------------------------------------------------------------------

def single_class_grid(x, n_agents):
    """A resolution-1 grid with one share class over ``x``, uniform P."""
    space = pc.StateSpace([f"s{w}" for w in range(len(x))], [1.0 / len(x)] * len(x))
    return pc.enumerate_grid(space, np.asarray(x, dtype=float), n_agents, 1,
                             state_classes="single")


def test_shares_single_state():
    xi = single_class_grid([-1.0], 2).allocation(np.array([[0.25, 0.75]]))
    assert xi.tolist() == [[-0.25], [-0.75]]


def test_shares_vertex_gives_everything_to_one_agent():
    x = np.array([-2.0, 3.0])
    xi = single_class_grid(x, 3).allocation(np.array([[1.0, 0.0, 0.0]]))
    assert np.array_equal(xi[0], x)
    assert np.all(xi[1:] == 0.0)


def test_shares_three_agent_arithmetic():
    q = np.array([[4, 2, 1]], dtype=float) / 7.0
    xi = single_class_grid([-2.0], 3).allocation(q)
    expected = [float(Fraction(-8, 7)), float(Fraction(-4, 7)), float(Fraction(-2, 7))]
    assert xi[:, 0] == pytest.approx(expected, abs=1e-15)
    assert xi[:, 0].sum() == pytest.approx(-2.0, abs=1e-15)


def test_shares_zero_states_get_zero():
    xi = single_class_grid([0.0, -4.0, -0.0], 2).allocation(np.array([[0.5, 0.5]]))
    assert xi.tolist() == [[0.0, -2.0, 0.0], [0.0, -2.0, 0.0]]
    # +0.0, as on every grid point, also where X holds -0.0
    assert not np.signbit(xi[:, [0, 2]]).any()


def two_class_grid():
    """Two classes over three states, the middle one free of risk; two agents."""
    space = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    return pc.enumerate_grid(space, np.array([-1.0, 0.0, 2.0]), 2, 2)


@pytest.mark.parametrize("shares", [np.full((3, 2), 0.5), np.full((2, 3), 1.0 / 3.0),
                                    np.array([0.5, 0.5])],
                         ids=["extra-class-row", "extra-agent-column", "one-dimensional"])
def test_allocation_rejects_shares_of_the_wrong_shape(shares):
    with pytest.raises(pc.StructuralError, match=r"expected \(2 x 2\) class shares"):
        two_class_grid().allocation(shares)


@pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, 1.0], [np.inf, 0.0]],
                         ids=["negative", "nan", "inf"])
def test_allocation_rejects_negative_or_non_finite_shares(row):
    with pytest.raises(pc.ValidationError, match="finite and nonnegative"):
        two_class_grid().allocation(np.array([row, [0.5, 0.5]]))


@pytest.mark.parametrize("q", [np.full((3, 2), 0.5), np.full((1, 4), 0.5), np.float64(0.5)],
                         ids=["three-classes", "one-class", "scalar"])
def test_payoffs_rejects_a_first_axis_that_is_not_the_classes(q):
    grid = two_class_grid()
    with pytest.raises(pc.StructuralError, match="values for 2 classes"):
        grid.payoffs(q)
    assert grid.payoffs(np.full((2, 5, 7), 0.5)).shape == (3, 5, 7)


def allocation_grids():
    space = pc.StateSpace(["a", "b", "c", "d"], [0.4, 0.3, 0.2, 0.1])
    x = np.array([-1.0, 0.0, 2.5, -0.0])
    yield pc.enumerate_grid(space, x, 3, 4, state_classes="single")
    yield pc.enumerate_grid(space, x, 2, 3, state_classes="per_state")
    yield pc.enumerate_grid(space, np.array([-1.0, 0.5, -2.0, -0.0]), 2, 2,
                            state_classes=["u", "v", "u", "v"])
    yield pc.enumerate_grid(space, np.array([0.0, -0.0, 0.0, -0.0]), 2, 3)


@pytest.mark.parametrize("grid", allocation_grids())
def test_allocation_is_the_grid_point_byte_for_byte(grid):
    assert np.any(grid.x == 0.0) and np.any(np.signbit(grid.x) & (grid.x == 0.0))
    for k in range(grid.n_points):
        assert grid.allocation(grid.share(k)).tobytes() == grid.point(k).tobytes(), k


@pytest.mark.parametrize("grid", allocation_grids())
def test_payoffs_is_the_one_share_to_payoff_map(grid, monkeypatch):
    """``payoffs`` of point k's class shares is, byte for byte, point k, its
    ``allocation``, the level-tuple payoffs the utility matrix evaluates for
    each agent at k, and the payoffs of every prior row in a welfare trial
    stack built from k's shares."""
    probs = grid.space.probs
    tilted = probs * np.array([1.2, 0.9, 1.1, 0.6])
    agents = [pc.MaxMinUtility(1.5, pc.CredalSet([probs, tilted / tilted.sum()], probs))]
    agents += [pc.EntropicUtility(0.5 + i, probs) for i in range(1, grid.n_agents)]
    profile = pc.UtilityProfile(tuple(agents))
    evaluated = []
    kernel = pc.UtilityProfile._evaluate

    def recorded(self, payoff):
        evaluated.append(payoff.copy())
        return kernel(self, payoff)

    monkeypatch.setattr(pc.UtilityProfile, "_evaluate", recorded)
    profile.matrix(grid)
    tuples = np.concatenate(evaluated, axis=2)[:, 0]          # (m x L^C)
    # Tuple t takes level t // L^(C-1-c) % L in class c.
    levels, index = grid._share_levels()
    places = len(levels) ** np.arange(grid.n_classes - 1, -1, -1)
    for k in range(grid.n_points):
        q = grid.share(k)
        xi = grid.payoffs(q)
        assert xi.shape == (len(grid.x), grid.n_agents)
        assert xi.T.tobytes() == grid.point(k).tobytes(), k
        assert xi.T.tobytes() == grid.allocation(q).tobytes(), k
        # +0.0 in every zero-risk state, also one written as -0.0.
        assert not np.signbit(xi[grid.x == 0.0]).any(), k
        for i in range(grid.n_agents):
            t = int(index[k // grid._place_values % len(grid.counts), i] @ places)
            assert tuples[:, t].tobytes() == xi[:, i].tobytes(), (k, i)
        evaluated.clear()
        # A (C x R x T) stack in Fortran order: the map reads any layout.
        stack = np.asfortranarray(np.repeat(q[:, profile.owner, None], 2, axis=2))
        welfare._welfare_values(profile, grid, stack)
        (trials,) = evaluated
        for r, i in enumerate(profile.owner):
            for trial in trials[:, r].T:
                assert trial.tobytes() == xi[:, i].tobytes(), (k, r)


@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_simplex_shares_always_feasible(raw, x):
    q = np.array(raw) / np.sum(raw)
    grid = single_class_grid(x, 3)
    xi = grid.allocation(np.tile(q, (grid.n_classes, 1)))
    assert pc.validate_feasible(xi, grid.x).ok


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


def test_positive_payoff_on_loss_rejected():
    report = pc.validate_feasible(np.array([[0.0, 1.0], [0.0, -2.0]]),
                                  np.array([0.0, -1.0]))
    assert not report.sign_ok
    assert report.sign_violations == ((0, 1),)


def test_sum_telescope_required():
    report = pc.validate_feasible(np.array([[0.0, -0.5], [0.0, -0.5]]),
                                  np.array([0.0, -2.0]))
    assert not report.sum_ok
    assert report.sum_violations == (1,)
    assert report.sign_ok and report.anchored_ok and report.bound_ok


@pytest.mark.parametrize("scale", [1e4, 1e5, 1e9])
def test_feasibility_tolerance_scales_with_the_largest_risk(scale):
    """The tolerance is FEASIBILITY_TOL * max(1, |X|_inf): a few ulps of a
    large X pass, a miss of 4e-12 |X|_inf does not."""
    x = np.array([-3.0 * scale, 0.0])
    ulps = 8 * np.spacing(3.0 * scale)
    assert ulps > 1e-12
    xi = np.array([[-scale - ulps, 0.0], [-2.0 * scale, 0.0]])
    assert pc.validate_feasible(xi, x).ok
    over = 4e-12 * scale
    assert not pc.validate_feasible(xi + [[-over, 0.0], [0.0, 0.0]], x).sum_ok
    # At |X| <= 1 the tolerance stays the absolute FEASIBILITY_TOL.
    assert not pc.validate_feasible(np.array([[-0.5 - 2e-12], [-0.5]]),
                                    np.array([-1.0])).sum_ok


# ---------------------------------------------------------------------------
# grid enumeration
# ---------------------------------------------------------------------------

def test_grid_two_agents_resolution_two(hand):
    _, x, _, grid = hand
    assert grid.n_points == 3
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
    assert pc.integrate(grid, np.array([2.5])) == 2.5


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


def test_unhashable_state_class_labels_are_validation_errors():
    """The labels rule scenario loading applies, for library callers too."""
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    x = np.array([-1.0, -2.0])
    for labels in ([[1], [1]], [{"a": 1}, 0], [True, 0], [0, 1.5]):
        with pytest.raises(pc.ValidationError,
                           match=r"labels must be strings or integers, got others"):
            pc.enumerate_grid(space, x, 2, 3, state_classes=labels)
        with pytest.raises(pc.ValidationError, match="labels must be"):
            pc.grid_point_count(x, 2, 3, labels)
    grid = pc.enumerate_grid(space, x, 2, 3, state_classes=np.array([4, 4]))
    assert grid.n_classes == 1 and grid.n_points == 4


@given(st.integers(1, 8), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_compositions_count_and_order(total, parts):
    comp = compositions(total, parts)
    assert comp.shape == (math.comb(total + parts - 1, parts - 1), parts)
    assert np.all(comp.sum(axis=1) == total)
    as_tuples = [tuple(r) for r in comp]
    assert as_tuples == sorted(as_tuples)


def _itertools_compositions(total, parts):
    """Stars and bars over ``itertools.combinations``: the bar positions,
    in lexicographic order, give the tuples in lexicographic order."""
    slots = total + parts - 1
    rows = math.comb(slots, parts - 1)
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), parts - 1)),
                       dtype=np.int64, count=rows * (parts - 1))
    edges = np.concatenate([np.full((rows, 1), -1), bars.reshape(rows, parts - 1),
                            np.full((rows, 1), slots)], axis=1)
    return np.diff(edges, axis=1) - 1


@pytest.mark.parametrize("total, parts", [
    *((t, p) for t in range(13) for p in range(1, 7)),
    (70, 3), *((0, k) for k in range(1, 11)), *((k, 1) for k in range(1, 40, 7))])
def test_compositions_equal_the_itertools_recipe(total, parts):
    got, ref = compositions(total, parts), _itertools_compositions(total, parts)
    assert got.dtype == ref.dtype == np.int64
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_compositions_leave_no_reference_cycles():
    # A self-referencing helper closure kept each composition list alive
    # until a full garbage collection, so a long run's peak memory grew
    # with the number of grids it built.
    gc.collect()
    gc.disable()
    try:
        comp = compositions(12, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert comp.dtype == np.int64 and comp.shape == (455, 4)
    assert np.array_equal(compositions(3, 1), [[3]])
    assert np.array_equal(compositions(0, 3), [[0, 0, 0]])


def test_grid_points_all_feasible(two_state):
    _, x, _, grid = two_state
    for k in range(0, grid.n_points, 7):
        assert pc.validate_feasible(grid.point(k), x).ok
    assert float((np.abs(grid.points) - np.abs(x)[None, None, :]).max()) <= 1e-12


@st.composite
def menu_grids(draw):
    """Grids of 1-10 agents over 1-6 states, with zero-risk states written
    as 0.0 and -0.0 and subnormal risks among the rest, under per-state,
    single or labelled classes, and at most 5,000 points."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    value = st.one_of(st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
                      st.floats(-2.2e-308, 2.2e-308),
                      st.sampled_from([0.0, -0.0, 1.0, -1.0, -5e-324, 5e-324]))
    x = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    classes = draw(st.one_of(st.sampled_from(["per_state", "single"]),
                             st.lists(st.sampled_from(["a", "b", 7]),
                                      min_size=m, max_size=m)))
    resolution = draw(st.integers(1, 12))
    while grid_point_count(x, n, resolution, classes) > 5000:
        if resolution > 1:
            resolution -= 1
        else:
            classes = "single"
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    space = pc.StateSpace([f"s{w}" for w in range(m)], weights / weights.sum())
    return pc.enumerate_grid(space, x, n, resolution, state_classes=classes)


def grid_fact_failures(grid) -> set[str]:
    """The construction facts that some point of ``grid`` breaks.

    Every share level c / r lies in [0, 1] and rounding is monotone, so an
    entry fl(fl(c / r) (X(w) + 0.0)) lies between 0 and X(w): it never
    exceeds |X(w)| ("coordinate_bound"), never takes the other sign, and is
    +0.0 where X is zero ("sign_anchoring").  A point's entries in a state
    sum to X(w) up to ``column_sums``' bound ("column_sums").  Measured on
    the whole (P x n x m) point stack.
    """
    pts, x = grid.points, grid.x
    zero = pts[:, :, x == 0.0]
    residual, bound = column_sums(grid)
    return {fact for fact, broken in [
        ("coordinate_bound", (np.abs(pts) > np.abs(x)).any()),
        ("sign_anchoring", (pts * np.sign(x) < 0.0).any() or zero.any()
         or np.signbit(zero).any()),
        ("column_sums", (residual > bound).any()),
    ] if broken}


@given(menu_grids())
@settings(max_examples=80, deadline=None)
def test_grid_points_split_x_within_its_sign_and_bound(grid):
    """No point breaks a construction fact, signed zeros and subnormal
    risks included, so a report need not re-derive them."""
    assert grid_fact_failures(grid) == set()


# One planted composition-table row per fact (DeMillo, Lipton & Sayward
# 1978), in a 3-agent resolution-2 table whose rows are (0, 0, 2), (0, 1, 1),
# (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0): the row it replaces and the
# facts the grid then breaks.
TABLE_MUTANTS = {
    "share level above 1": (5, [3, 0, 0], {"coordinate_bound", "column_sums"}),
    "negative share level": (1, [-1, 1, 2], {"sign_anchoring"}),
    "row not summing to r": (2, [0, 1, 0], {"column_sums"}),
}


@pytest.mark.parametrize("mutant", list(TABLE_MUTANTS))
def test_each_grid_fact_fails_on_its_planted_table_row(mutant):
    """On X = (-2, 0, 3) per state, each planted row breaks exactly its facts."""
    row, counts, broken = TABLE_MUTANTS[mutant]
    space = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    grid = pc.enumerate_grid(space, np.array([-2.0, 0.0, 3.0]), 3, 2)
    assert grid_fact_failures(grid) == set()
    table = grid.counts.copy()
    table[row] = counts
    planted = pc.MenuGrid(space, grid.x, 3, 2, grid.class_of_state, table)
    assert grid_fact_failures(planted) == broken


def test_grid_single_class_ties_states():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    x = np.array([-1.0, -2.0])
    grid = pc.enumerate_grid(space, x, 2, 4, state_classes="single")
    assert grid.n_points == 5
    assert grid.n_classes == 1
    # same share applied to both states
    assert np.allclose(grid.points[:, 0, 1], 2.0 * grid.points[:, 0, 0])


def test_geometric_weights_are_rejected():
    """The menu measure is uniform: enumerate_grid takes no weights, and a
    scenario may name only the uniform one."""
    space = pc.StateSpace(["w"], [1.0])
    with pytest.raises(TypeError, match="weights"):
        pc.enumerate_grid(space, np.array([-1.0]), 2, 6, weights="geometric")
    doc = {"states": ["w"], "probs": [1.0], "endowments": [[-1.0], [0.0]],
           "utilities": [{"kind": "entropic", "gamma": 1.0}] * 2,
           "grid": {"resolution": 4}}
    assert pc.scenario_from_dict(doc).effective["grid"]["weights"] == "uniform"
    for kind in ("geometric", "Uniform", None):
        doc["grid"]["weights"] = kind
        with pytest.raises(pc.ValidationError) as info:
            pc.scenario_from_dict(doc)
        assert info.value.errors == [
            "<dict>: grid.weights must be 'uniform' (the geometric measure "
            f"was removed), got {kind!r}"]
    doc["grid"]["weights"] = "uniform"
    assert pc.scenario_from_dict(doc).effective["grid"]["weights"] == "uniform"


def test_metric_member_limit_rejects_underflowing_series_weights():
    """Past METRIC_MEMBER_LIMIT members the series weight 2^-(k+1) is 0.
    On this 3-agent, 1,100-state grid (class 1 alternates -1/+1, so it has
    zero mass) points 6 and 7 differ by 1.0 in agents 1 and 2's class-1
    entries, yet the underflowed weights would put them at distance 0."""
    assert 0.5 ** METRIC_MEMBER_LIMIT > 0.0 == 0.5 ** (METRIC_MEMBER_LIMIT + 1)
    m = 1100
    space = pc.StateSpace([f"s{w}" for w in range(m)], np.full(m, 1.0 / m))
    x = np.concatenate([np.full(550, -1.0), np.tile([-1.0, 1.0], 275)])
    classes = [0] * 550 + [1] * 550
    with pytest.raises(pc.ValidationError, match="underflow beyond 1074 members"):
        pc.enumerate_grid(space, x, 3, 1, state_classes=classes)
    with pytest.raises(pc.ValidationError, match="3 agents over 1100 states make 3303"):
        check_grid_size(x, 3, 1, classes)
    # n + n*m = 1074 is the largest family the weights keep apart.
    assert check_grid_size(np.ones(536), 2, 3, "single") == 4
    with pytest.raises(pc.ValidationError, match="underflow"):
        check_grid_size(np.ones(537), 2, 3, "single")


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def series_pairings(space, points):
    """<xi, h_k> = E_P[xi . h_k] for a (... x n x m) stack of allocations,
    over the family the menu metric fixes: the agent mass functionals
    e_i (x) 1, then the coordinate indicators e_i (x) 1_w / P(w) in (agent,
    state) order."""
    pts = np.asarray(points, dtype=float)
    n, m = pts.shape[-2:]
    family = [np.outer(np.eye(n)[i], np.ones(m)) for i in range(n)]
    family += [np.outer(np.eye(n)[i], np.eye(m)[w] / space.probs[w])
               for i in range(n) for w in range(m)]
    return np.einsum("...im,kim,m->...k", pts, np.array(family), space.probs)


def series_weights(n_members):
    return 0.5 ** np.arange(1, n_members + 1)


def series_distance(space, a, b):
    """The series definition d(a, b) = sum_k 2^-(k+1) |<a - b, h_k>|."""
    g = series_pairings(space, np.stack([a, b]))
    return float(np.dot(series_weights(g.shape[1]), np.abs(g[0] - g[1])))


def test_metric_zero_on_identical(two_state):
    space, _, _, grid = two_state
    assert series_distance(space, grid.point(3), grid.point(3)) == 0.0
    assert distance(grid, 3, 3) == 0.0
    assert grid.distances_to(3)[3] == 0.0


def test_metric_agent_mass_certificate(two_state):
    space, x, _, grid = two_state
    a = grid.point(10)
    b = a.copy()
    b[0, 0] += 0.25        # only agent 0 differs
    b[0, 1] -= 0.1
    d = series_distance(space, a, b)
    mean_gap = abs(float(np.dot(space.probs, a[0] - b[0])))
    assert d >= 0.5 * mean_gap - 1e-15
    assert mean_gap <= 2.0 * d + 1e-15
    # On the grid: |E_P[xi_i - eta_i]| <= 2^(i+1) d(xi, eta) for every pair.
    means = grid.points @ space.probs
    for k in range(grid.n_points):
        gaps = np.abs(means - means[k])
        assert np.all(gaps <= 2.0 ** np.arange(1, 3) * grid.distances_to(k)[:, None]
                      * (1 + 1e-14))


def test_metric_positive_on_row_swap():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    x = np.array([-1.0, -1.0])
    grid = pc.enumerate_grid(space, x, 2, 2)
    a = np.array([[-0.5, -0.5], [-0.5, -0.5]])
    b = np.array([[-1.0, 0.0], [0.0, -1.0]])
    # Both agents hold the same mass in a and b: only the indicators see it.
    assert np.array_equal(a @ space.probs, b @ space.probs)
    assert series_distance(space, a, b) > 0.0
    j, k = (int(np.flatnonzero((grid.points == p).all(axis=(1, 2)))[0]) for p in (a, b))
    assert distance(grid, j, k) > 0.0

def test_metric_separates_grid_points_exhaustively():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    grid = pc.enumerate_grid(space, np.array([-1.0, 2.0]), 2, 3)
    g = grid.features
    d = np.abs(g[:, None, :] - g[None, :, :]) @ grid.feature_weights
    off = d + np.eye(grid.n_points) * d.max()
    assert off.min() > 0.0
    assert np.allclose(d, d.T)


def _all_pairs_grids():
    space = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    x = np.array([-1.0, 0.0, 2.5])
    yield pc.enumerate_grid(space, x, 3, 4)
    yield pc.enumerate_grid(space, x, 3, 5, state_classes="single")
    yield pc.enumerate_grid(space, np.array([-1.0, -2.0, -0.5]), 2, 5,
                            state_classes=["u", "v", "u"])
    x3 = np.array([-1.0, -2.0, 3.0])
    yield pc.enumerate_grid(space, x3, 2, 4)
    yield pc.enumerate_grid(space, np.array([-1.0, 0.0, -0.5]), 3, 3,
                            state_classes=["u", "z", "v"])
    yield pc.enumerate_grid(space, np.zeros(3), 3, 4)
    # A mixed-sign class of zero mass: P(a) X(a) + P(b) X(b) = 0, so every
    # mass functional touches class v alone and no feature spans classes.
    yield pc.enumerate_grid(space, np.array([-0.6, 1.0, 2.0]), 3, 3,
                            state_classes=["u", "u", "v"])
    # One class of zero mass: the mass functionals drop out.
    yield pc.enumerate_grid(space, np.array([-0.6, 1.0, 0.0]), 3, 4,
                            state_classes="single")
    yield pc.enumerate_grid(space, np.array([-1.0, -2.0, 0.5]), 4, 2,
                            state_classes=["u", "v", "u"])
    # A mixed-sign class whose mass does not cancel.
    yield pc.enumerate_grid(space, np.array([-1.0, 2.0, -0.5]), 2, 3,
                            state_classes=["u", "u", "v"])
    skewed = pc.StateSpace(["a", "b", "c"], [0.98, 0.01, 0.01])
    yield pc.enumerate_grid(skewed, np.array([-1e3, 5e2, -2e2]), 2, 4)


@pytest.mark.parametrize("grid", list(_all_pairs_grids()))
def test_grid_distance_matches_metric_definition_all_pairs(grid):
    g = series_pairings(grid.space, grid.points)
    w = series_weights(g.shape[1])
    worst = 0.0
    for k in range(grid.n_points):
        row = grid.distances_to(k)
        assert row.shape == (grid.n_points,)
        assert row[k] == 0.0
        refs = np.abs(g - g[k]) @ w
        for j in range(grid.n_points):
            ref = refs[j]
            got = distance(grid, j, k)
            assert (got == 0.0) == (ref == 0.0)
            if ref:
                worst = max(worst, abs(got - ref) / ref)
            assert abs(row[j] - ref) <= 1e-14 * ref
    assert worst <= 1e-14


@pytest.mark.parametrize("grid", list(_all_pairs_grids()))
def test_metric_weights_are_exact_sums_of_their_terms(grid):
    """Every class mass and every omega is math.fsum of its explicit terms,
    bit for bit, so no BLAS build can round them differently; a lone
    mass-carrying class takes its agents' mass terms into omega."""
    omega, mass, mass_weights = grid._metric
    n, m, classes = grid.n_agents, len(grid.x), grid.n_classes
    probs, x = grid.space.probs.tolist(), grid.x.tolist()
    members = [[w for w in range(m) if grid.class_of_state[w] == c] for c in range(classes)]
    expected_mass = [math.fsum(probs[w] * x[w] for w in ws) for ws in members]
    assert mass.tolist() == expected_mass
    carriers = [c for c in range(classes) if expected_mass[c] != 0.0]
    for c, ws in enumerate(members):
        for i in range(n):
            terms = [math.ldexp(abs((1.0 / probs[w]) * (probs[w] * x[w])),
                                -(n + i * m + w + 1)) for w in ws]
            if carriers == [c]:
                terms.append(math.ldexp(abs(expected_mass[c]), -(i + 1)))
            assert omega[c, i] == math.fsum(terms), (c, i)
    expected = [0.5 ** (i + 1) for i in range(n)] if len(carriers) >= 2 else []
    assert mass_weights.tolist() == expected
    assert grid.feature_weights.tolist() == expected + omega.ravel().tolist()


def test_all_pairs_grids_cover_every_mass_case():
    """No class, one class or several carry mass among the grids above."""
    carriers = {min(np.count_nonzero(g._metric[1]), 2) for g in _all_pairs_grids()}
    assert carriers == {0, 1, 2}


def feature_scan(ga, gb, w):
    """sum_f w_f |ga[..., f] - gb[..., f]|, added feature by feature from
    +0.0 in ``feature_weights`` order."""
    total = np.zeros(np.broadcast_shapes(ga.shape[:-1], gb.shape[:-1]))
    for f in range(len(w)):
        total += w[f] * np.abs(ga[..., f] - gb[..., f])
    return total


@pytest.mark.parametrize("grid", [g for g in _all_pairs_grids() if g.n_classes <= 1])
def test_distances_to_single_class_is_the_feature_scan(grid):
    g, w = grid.features, grid.feature_weights
    for k in range(grid.n_points):
        assert np.array_equal(grid.distances_to(k), feature_scan(g, g[k], w))


def python_distance(grid, j, k):
    """d(j, k) in Python floats, with no BLAS call and no FMA: each point's
    mass sums sum_c M_c q_c, then sum_f w_f |g_j,f - g_k,f|, each added left
    to right from 0.0."""
    mass, weights = grid._metric[1].tolist(), grid.feature_weights.tolist()

    def row(p):
        q = grid.share(p).tolist()
        sums = []
        for i in range(grid.n_agents if grid._metric[2].size else 0):
            s = 0.0
            for c in range(grid.n_classes):
                s = s + mass[c] * q[c][i]
            sums.append(s)
        return sums + [v for shares in q for v in shares]

    total = 0.0
    for w, a, b in zip(weights, row(j), row(k)):
        total = total + w * abs(a - b)
    return total


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


def test_point_and_share_reject_out_of_range_indices():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.0]), 2, 3)
    for k in (-1, grid.n_points):
        for method in (grid.point, grid.share):
            with pytest.raises(pc.StructuralError,
                               match=rf"point index {k} is outside \[0, {grid.n_points}\)"):
                method(k)
        with pytest.raises(pc.StructuralError, match="outside"):
            distance(grid, 0, k)
    last = grid.n_points - 1
    assert np.array_equal(grid.point(last), grid.points[last])
    assert np.array_equal(grid.share(last), grid._shares_at(np.arange(grid.n_points))[last])


def _class_count_grids():
    """One small grid per class count 0..4: all-zero X, one class, then one
    class per nonzero state beside a zero-risk state."""
    space = pc.StateSpace(["a", "b", "c", "d", "e"], [0.1, 0.15, 0.2, 0.25, 0.3])
    yield pc.enumerate_grid(space, np.zeros(5), 2, 3)
    yield pc.enumerate_grid(space, np.array([-1.0, 0.0, -2.0, 0.5, -0.5]), 3, 4,
                            state_classes="single")
    yield pc.enumerate_grid(space, np.array([-1.0, 0.0, 2.0, 0.0, 0.0]), 2, 5)
    yield pc.enumerate_grid(space, np.array([-1.0, -2.0, 0.0, 0.5, 0.0]), 3, 3)
    yield pc.enumerate_grid(space, np.array([-1.0, -2.0, 3.0, -0.5, 0.0]), 2, 3)


@pytest.mark.parametrize("grid", list(_class_count_grids()),
                         ids=lambda grid: f"C={grid.n_classes}")
def test_index_decoding_is_the_digit_formula_on_every_class_count(grid):
    """Point k reads table row k // K^(C-1-c) % K in class c.  A scalar, a
    1-D and a 2-D index array decode to those rows through ``_shares_at``
    and every reader of it (``share``, ``point``, ``_points_at``), and
    through ``_feature_columns`` and ``features``.  With no class (all-zero
    X) the shares are empty, ``features`` is (1 x 0) and every payoff +0.0."""
    size, classes, n, p = len(grid.table), grid.n_classes, grid.n_agents, grid.n_points
    digits = [[k // size ** (classes - 1 - c) % size for c in range(classes)]
              for k in range(p)]
    shares = grid.table[np.array(digits, dtype=np.int64).reshape(p, classes)]
    cls, x = grid.class_of_state, grid.x
    points = np.array([[[q[cls[w], i] * (x[w] + 0.0) if cls[w] >= 0 else 0.0
                         for w in range(len(x))] for i in range(n)] for q in shares])
    features = shares.reshape(p, classes * n)
    if grid._metric[2].size:
        mass_sums = sum(mass * shares[:, c] for c, mass in enumerate(grid._metric[1]))
        features = np.concatenate([mass_sums, features], axis=1)
    assert features.shape == (p, grid.feature_weights.size)

    for k in range(p):
        for index in (k, np.int64(k)):
            assert grid._shares_at(index).tobytes() == shares[k].tobytes()
        assert grid.share(k).tobytes() == shares[k].tobytes()
        assert grid.point(k).tobytes() == points[k].tobytes()
    idx = np.random.default_rng(p).permutation(p)
    assert grid._shares_at(idx).tobytes() == shares[idx].tobytes()
    assert grid._points_at(idx).tobytes() == points[idx].tobytes()
    assert grid.features.shape == features.shape
    assert grid.features[idx].tobytes() == features[idx].tobytes()
    columns = list(grid._feature_columns(idx))
    assert len(columns) == features.shape[1]
    for f, column in enumerate(columns):
        assert column.tobytes() == features[idx, f].tobytes()
    idx2 = np.random.default_rng(p + 1).integers(0, p, size=(3, 4))
    assert grid._shares_at(idx2).shape == (3, 4, classes, n)
    assert grid._shares_at(idx2).tobytes() == shares[idx2].tobytes()
    assert grid._points_at(idx2).tobytes() == points[idx2].tobytes()
    if not classes:
        assert p == 1 and not np.signbit(points).any()
        assert pc.menu._lipschitz_pairs(grid, 0, 16, 5)[2].size == 0


def _implicit_grids():
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    yield pc.enumerate_grid(space, x, 3, 3, state_classes=[0, 1, 1, 2, 1, 2, 2, 3])
    yield pc.enumerate_grid(space, x, 3, 6, state_classes="single")
    two = pc.StateSpace(["a", "b", "c"], [0.2, 0.3, 0.5])
    # a zero-risk state written as -0.0 still gets +0.0 entries
    yield pc.enumerate_grid(two, np.array([-1.0, -0.0, 2.0]), 2, 4)
    yield pc.enumerate_grid(two, np.zeros(3), 2, 4)


@pytest.mark.parametrize("grid", list(_implicit_grids()))
def test_implicit_grid_matches_its_arrays(grid):
    """On a product grid enumerate_grid builds nothing with P rows; point(k),
    points[k] and allocation(share(k)) agree byte for byte, and share(k)
    agrees with the shares built on request."""
    p = grid.n_points
    if grid.n_classes > 1:
        assert all(a.shape[0] < p for a in _arrays(list(vars(grid).values())))
    points, shares = grid.points, grid._shares_at(np.arange(p))
    assert points.shape == (p, grid.n_agents, len(grid.x))
    for k in range(p):
        point = grid.point(k)
        assert point.tobytes() == points[k].tobytes()
        assert grid.share(k).tobytes() == shares[k].tobytes()
        assert grid.allocation(grid.share(k)).tobytes() == point.tobytes()
    # A zero-risk state, also one written as -0.0, holds +0.0 at every point.
    assert not np.signbit(points[:, :, grid.x == 0.0]).any()


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
    # n + n*m members; state 000 carries no risk, so its 3 indicators drop.
    per_state = pc.enumerate_grid(space, x, 3, 1)
    assert per_state.features.shape[1] == 3 + 3 * 8 - 3
    g = series_pairings(space, per_state.points)
    d = np.abs(g - g[0]) @ series_weights(g.shape[1])
    assert np.allclose(per_state.distances_to(0), d, rtol=1e-14, atol=0.0)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_metric_triangle_inequality(data):
    space = pc.StateSpace(["a", "b"], [0.6, 0.4])
    grid = pc.enumerate_grid(space, np.array([-1.0, -2.0]), 2, 8)
    i, j, k = (data.draw(st.integers(0, grid.n_points - 1)) for _ in range(3))
    dij = distance(grid, i, j)
    assert dij <= distance(grid, i, k) + distance(grid, k, j) + 1e-12
    assert dij == pytest.approx(distance(grid, j, i), abs=1e-15)


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
    assert pc.integrate(grid, f) == 1.0 / grid.n_points


def test_integrate_follower_utilities_hand_example(hand):
    _, _, profile, grid = hand
    u2 = pc.evaluate_grid(profile.evaluators[1], grid, 1)
    assert u2 == pytest.approx([-1.0, -0.5, 0.0], abs=1e-12)
    assert pc.integrate(grid, u2) == pytest.approx(-0.5, abs=1e-12)


def test_integrate_shape_mismatch(hand):
    _, _, _, grid = hand
    with pytest.raises(pc.StructuralError):
        pc.integrate(grid, np.zeros(grid.n_points + 1))


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


def serial_lipschitz_ratio(v, grid, exhaustive_threshold=512, num_samples=4096,
                           seed=pc.menu.PAIR_SEED):
    """The ratio scan with its pairs rebuilt on every call."""
    p, w = grid.n_points, grid.feature_weights
    if p <= exhaustive_threshold:
        g = grid.features
        best = 0.0
        for lo in range(0, p, 256):
            hi = min(lo + 256, p)
            d = feature_scan(g[lo:hi, None], g[None], w)
            dv = np.abs(v[lo:hi, None] - v[None, :])
            mask = d > 0.0
            if mask.any():
                best = max(best, float((dv[mask] / d[mask]).max()))
        return best
    rng = np.random.default_rng([seed, p])
    a = rng.integers(0, p, size=num_samples)
    b = rng.integers(0, p, size=num_samples)
    keep = a != b
    a, b = a[keep], b[keep]
    d = feature_scan(grid.features[a], grid.features[b], w)
    dv = np.abs(v[a] - v[b])
    mask = d > 0.0
    return float((dv[mask] / d[mask]).max()) if mask.any() else 0.0


@pytest.mark.parametrize("threshold", [10_000, 100])
def test_lipschitz_ratio_memoises_its_pairs_per_grid(threshold, monkeypatch):
    space = pc.StateSpace(["a", "b", "c"], [0.5, 0.3, 0.2])
    grid = pc.enumerate_grid(space, np.array([-1.0, 0.5, -2.0]), 2, 5)
    assert 100 < grid.n_points <= 10_000
    profile = pc.UtilityProfile((pc.EntropicUtility(1.3, space.probs),
                                 pc.EntropicUtility(0.4, space.probs)))
    umat = profile.matrix(grid)
    columns = [umat[:, 0], umat[:, 1], umat.sum(axis=1), np.zeros(grid.n_points)]
    expected = [serial_lipschitz_ratio(v, grid, threshold) for v in columns]
    built = []
    feature_columns = pc.MenuGrid._feature_columns
    monkeypatch.setattr(pc.MenuGrid, "_feature_columns",
                        lambda self, idx: built.append(len(idx)) or feature_columns(self, idx))
    assert [pc.lipschitz_ratio(v, grid, exhaustive_threshold=threshold)
            for v in columns] == expected
    assert expected[0] > 0.0 and expected[3] == 0.0
    # The pairs were built by the first call only, and kept once per
    # sampling arguments; other arguments build their own.
    assert len(built) == (1 if threshold > grid.n_points else 2)
    assert list(grid._lipschitz_pairs) == [(threshold, 4096, pc.menu.PAIR_SEED)]
    pc.lipschitz_ratio(columns[0], grid, exhaustive_threshold=threshold, seed=5)
    assert len(grid._lipschitz_pairs) == 2
    a, b, d = grid._lipschitz_pairs[(threshold, 4096, pc.menu.PAIR_SEED)]
    assert np.all(d > 0.0) and len(a) == len(b) == len(d)
    if threshold > grid.n_points:
        assert np.all(a < b) and len(d) == grid.n_points * (grid.n_points - 1) // 2


def test_diameter_exact_matches_bound(two_state):
    _, _, _, grid = two_state
    diam, exact = grid.diameter
    assert exact
    g = grid.features
    ub = float(np.dot(grid.feature_weights, g.max(axis=0) - g.min(axis=0)))
    assert diam <= ub + 1e-15
    assert diam >= distance(grid, 0, grid.n_points - 1) - 1e-15


def _full_scan_diameter(grid):
    g, w, p = grid.features, grid.feature_weights, grid.n_points
    return max(float(feature_scan(g[lo:lo + 256, None], g[None], w).max())
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


def _pair_sets(grid):
    """The exhaustive pair set and a sampled one of the same grid."""
    yield pc.menu._lipschitz_pairs(grid, grid.n_points, 4096, pc.menu.PAIR_SEED)
    yield pc.menu._lipschitz_pairs(grid, 1, 256, pc.menu.PAIR_SEED)


def _vertices(grid):
    shares = grid._shares_at(np.arange(grid.n_points))
    return np.flatnonzero(np.all(shares.max(axis=2) == 1.0, axis=1)).tolist()


@pytest.mark.parametrize("grid", list(_all_pairs_grids()) + list(_small_grids()))
def test_every_path_gives_a_pair_the_same_float(grid):
    """distances_to, distance both ways, both pair sets and the vertex
    diameter read one float per pair, bit for bit.  ``distance`` is one call
    per pair, so it is compared on every ordered pair up to 256 points (with
    the symmetric rows, that is both ways) and on the rows of 16 sampled
    points beyond."""
    p = grid.n_points
    rows = np.array([grid.distances_to(k) for k in range(p)])
    assert np.array_equal(rows, rows.T)
    if p <= 256:
        for k in range(p):
            assert rows[k].tolist() == [distance(grid, j, k) for j in range(p)]
    else:
        for k in np.random.default_rng(p).choice(p, 16, replace=False).tolist():
            assert rows[k].tolist() == [distance(grid, j, k) for j in range(p)]
            assert rows[k].tolist() == [distance(grid, k, j) for j in range(p)]
    for a, b, d in _pair_sets(grid):
        assert np.array_equal(d, rows[a, b])
        if p <= 256 or len(d) <= 256:
            assert d.tolist() == [distance(grid, int(x), int(y)) for x, y in zip(a, b)]
    vertices = _vertices(grid)
    diameter, exact = grid.diameter
    assert exact
    assert diameter == max(distance(grid, a, b) for a in vertices for b in vertices)


@pytest.mark.parametrize("grid", list(_all_pairs_grids()) + list(_small_grids()))
def test_distance_is_the_left_to_right_feature_sum(grid):
    """The summation order is pinned: a pure-Python left-to-right sum gives
    every sampled pair's distance bit for bit."""
    rng = np.random.default_rng(grid.n_points)
    pairs = rng.integers(0, grid.n_points, size=(200, 2)).tolist()
    for j, k in pairs + [[0, grid.n_points - 1]]:
        assert distance(grid, j, k) == python_distance(grid, j, k), (j, k)


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
    shares = grid._shares_at(np.arange(grid.n_points))
    vertices = np.nonzero(np.all(shares.max(axis=2) == 1.0, axis=1))[0]
    assert len(vertices) == 2 ** 3
    best = max(series_distance(grid.space, grid.points[a], grid.points[b])
               for a in vertices for b in vertices)
    assert abs(diam - best) <= 1e-14 * best
    g = series_pairings(grid.space, grid.points)
    bound = float(np.dot(series_weights(g.shape[1]), g.max(axis=0) - g.min(axis=0)))
    assert diam <= bound
