"""The slab-swept distance kernel and the in-place first-mover audit.

``reference_distances_to``, ``reference_bump_profile`` and
``reference_audit`` are verbatim copies of the whole-grid versions they
replaced: one broadcast of the spanning-feature gaps over all P points in
canonical order, a fresh array per step, and a copy of the base schedule per
deviation.  The kernel must reproduce them bit for bit.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pricechoose as pc
from conftest import hurricane_space
from pricechoose.errors import ParameterError
from pricechoose.mechanism import _DEVIATION_SEED, _tail_values
from pricechoose.menu import SLAB_POINTS, WeakStarMetric, build_metric, integrate

# ---------------------------------------------------------------------------
# Whole-grid reference versions
# ---------------------------------------------------------------------------


def reference_distances_to(self, k: int) -> np.ndarray:
    p = self.n_points
    k = self._check_index(k)
    one, multi, multi_w = self._class_tables
    classes = len(one)
    if classes == 1:
        # The table is ``features``: skip the per-axis bookkeeping, which
        # costs more than the scan on a few thousand points.
        t, w = one[0]
        gap = t - t[k]
        np.abs(gap, out=gap)
        return gap @ w
    shape = tuple(t.shape[0] for t, _ in one)
    digits = np.unravel_index(k, shape)

    def along(c: int, *lead: int) -> tuple[int, ...]:
        return lead + (1,) * c + (-1,) + (1,) * (classes - 1 - c)

    if multi_w.size:
        gap = 0.0
        for c, (u, j) in enumerate(zip(multi, digits)):
            gap = gap + (u - u[:, j, None]).reshape(along(c, multi_w.size))
        np.abs(gap, out=gap)
        total = (multi_w @ gap.reshape(multi_w.size, p)).reshape(shape)
    else:
        total = np.zeros(shape)
    for c, ((t, w), j) in enumerate(zip(one, digits)):
        gap = t - t[j]
        np.abs(gap, out=gap)
        total += (gap @ w).reshape(along(c))
    return total.reshape(p)


def reference_bump_profile(grid, target: int, iota: float) -> np.ndarray:
    if not 0.0 < iota < 1.0:
        raise ParameterError(f"iota must lie in (0, 1), got {iota}")
    return iota / (iota + reference_distances_to(grid, target))


def reference_audit(game, transcript, num_deviations: int, seed: int = 0):
    """The audit loop, returning (max_gain, num_deviations)."""
    order = list(transcript.order)
    umat, grid = game.umat, game.grid
    first = order[0]
    equilibrium = float(transcript.payoffs[first])
    base = transcript.schedules[0]
    tail1 = _tail_values(umat, order, 1)
    first_vals = umat[:, first]
    headroom = game.stage_cap - base.declared_lip
    rng = np.random.default_rng([seed, _DEVIATION_SEED])
    p = grid.n_points
    best = -np.inf
    for _ in range(num_deviations):
        n_bumps = int(rng.integers(1, 4))
        targets = rng.integers(0, p, size=n_bumps)
        iotas = rng.uniform(0.05, 0.5, size=n_bumps)
        raw = rng.uniform(-1.0, 1.0, size=n_bumps)
        budget = rng.uniform(0.1, 1.0) * headroom
        mass = np.sum(np.abs(raw) / iotas)
        amps = raw * (budget / mass) if mass > 0 else raw * 0.0
        values = base.values.copy()
        for t, io, a in zip(targets, iotas, amps):
            psi = reference_bump_profile(grid, int(t), float(io))
            values += a * (psi - integrate(grid, psi))
        values = values - integrate(grid, values)
        response = int(np.argmax(tail1 - values))
        gain = float(first_vals[response] + values[response]) - equilibrium
        best = max(best, gain)
    return best, num_deviations


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

# Hurricane state labels: state 000 carries no risk, so its label is unused.
CLASSES = {
    "single": "single",
    "two": [0, 1, 1, 1, 1, 2, 2, 2],
    "three": [0, 1, 1, 2, 1, 2, 2, 3],
    "four": [0, 1, 1, 2, 1, 3, 3, 4],
}


def hurricane_grid(resolution: int, classes: str):
    space, endow = hurricane_space()
    x = pc.aggregate_risk(endow)
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in (1.0, 2.0, 4.0)))
    grid = pc.enumerate_grid(space, x, 3, resolution,
                             state_classes=CLASSES[classes])
    return profile, grid


def two_state_grid():
    """Two loss states in two classes and no zero-risk state."""
    space = pc.StateSpace(["a", "b"], [0.6, 0.4])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(2.5, space.probs)))
    return profile, pc.enumerate_grid(space, np.array([-1.0, -2.0]), 2, 30)


def no_spanning_feature_grid():
    """Three hurricane classes under a metric of coordinate indicators
    alone: every feature touches one class, so no gap spans classes."""
    space, endow = hurricane_space()
    full = build_metric(space, 3)
    metric = WeakStarMetric(probs=full.probs, test_functions=full.test_functions[3:],
                            weights=full.weights[3:],
                            agent_mass_weights=full.agent_mass_weights)
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in (1.0, 2.0, 4.0)))
    grid = pc.enumerate_grid(space, pc.aggregate_risk(endow), 3, 6,
                             state_classes=CLASSES["three"], metric=metric)
    assert grid.n_classes == 3 and grid._class_tables[2].size == 0
    return profile, grid


def no_risk_grid():
    """Every state risk-free: no class, one point."""
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(2.0, space.probs)))
    return profile, pc.enumerate_grid(space, np.zeros(2), 2, 4)


GRIDS = {
    "single-class": lambda: hurricane_grid(20, "single"),
    "two-class-no-zero-risk": two_state_grid,
    "two-class": lambda: hurricane_grid(12, "two"),
    "three-class-r8": lambda: hurricane_grid(8, "three"),
    "four-class": lambda: hurricane_grid(4, "four"),
    "no-spanning-feature": no_spanning_feature_grid,
    "no-risk": no_risk_grid,
}


@pytest.fixture(scope="module", params=list(GRIDS))
def scenario(request):
    return GRIDS[request.param]()


@pytest.fixture(scope="module")
def three_class():
    """The 3-class resolution-8 hurricane: 45^3 = 91,125 points."""
    profile, grid = hurricane_grid(8, "three")
    game = pc.calibrate(profile, grid)
    return game, pc.run_pnc(game)


def sample_targets(grid, count: int = 12) -> list[int]:
    rng = np.random.default_rng(grid.n_points)
    picks = rng.integers(0, grid.n_points, size=count).tolist()
    return sorted({0, grid.n_points - 1, *picks})


# ---------------------------------------------------------------------------
# Bit identity
# ---------------------------------------------------------------------------

def test_three_class_grid_sweeps_three_slabs(three_class):
    """45 first-class rows of 45^2 points each: slabs of 16 + 16 + 13 rows."""
    grid = three_class[0].grid
    rows = SLAB_POINTS // grid.table.shape[0] ** 2
    assert (grid.n_points, grid.n_classes, rows) == (91_125, 3, 16)
    assert [min(rows, 45 - r0) for r0 in range(0, 45, rows)] == [16, 16, 13]


def test_distances_and_bumps_match_the_whole_grid_versions(scenario):
    _, grid = scenario
    out = np.full(grid.n_points, np.nan)
    for k in sample_targets(grid):
        expected = reference_distances_to(grid, k)
        assert np.array_equal(grid.distances_to(k), expected)
        assert grid.distances_to(k, out=out) is out
        assert np.array_equal(out, expected)
        for iota in (0.05, 0.1, 0.45):
            bump = reference_bump_profile(grid, k, iota)
            assert np.array_equal(pc.bump_profile(grid, k, iota), bump)
            assert pc.bump_profile(grid, k, iota, out=out) is out
            assert np.array_equal(out, bump)


def test_target_is_exactly_at_distance_zero(scenario):
    _, grid = scenario
    for k in sample_targets(grid):
        assert grid.distances_to(k)[k] == 0.0
        assert pc.bump_profile(grid, k, 0.1)[k] == 1.0


def test_audit_matches_the_whole_grid_loop(scenario):
    profile, grid = scenario
    game = pc.calibrate(profile, grid)
    t = pc.run_pnc(game)
    for seed in (0, 3):
        audit = pc.audit_first_mover_bound(game, t, 40, seed=seed)
        if game.stage_cap - t.schedules[0].declared_lip <= 0.0:
            # The one-point grid: a zero cap leaves no admissible bump.
            assert (audit.max_gain, audit.num_deviations) == (None, 0)
        else:
            assert (audit.max_gain, audit.num_deviations) == \
                reference_audit(game, t, 40, seed=seed)


def test_three_class_audit_matches_the_whole_grid_loop(three_class):
    game, t = three_class
    audit = pc.audit_first_mover_bound(game, t, 25, seed=5)
    assert (audit.max_gain, audit.num_deviations) == reference_audit(game, t, 25, seed=5)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def test_audit_holds_a_few_point_vectors_and_one_slab(three_class):
    """Peak traced memory of one audit: three point-sized vectors
    (continuation welfare, deviating schedule, bump) and the distance
    kernel's slab buffers, a (features x slab) gap and the slab's totals,
    stay under four P-vectors plus four slabs.  The whole-grid loop peaked
    at seven P-vectors, with its (features x P) gap and a fresh vector per
    step."""
    game, t = three_class
    p = game.grid.n_points
    bound = 4 * p * 8 + 4 * SLAB_POINTS * 8
    tracemalloc.start()
    try:
        pc.audit_first_mover_bound(game, t, 3, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


# ---------------------------------------------------------------------------
# No bump headroom
# ---------------------------------------------------------------------------

def test_audit_draws_nothing_without_bump_headroom():
    """A cap below the followers' declared constant leaves negative headroom:
    no admissible deviation exists, so none is drawn, as in perturbed mode."""
    space, endow = hurricane_space()
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in (1.0, 2.0, 4.0)))
    grid = pc.enumerate_grid(space, pc.aggregate_risk(endow), 3, 20,
                             state_classes="single")
    calibrated = pc.calibrate(profile, grid)
    declared = float(calibrated.agent_lipschitz[1:].sum())
    for cap in (declared / 2.5, declared / 2.0):       # headroom < 0, == 0
        game = pc.calibrate(profile, grid, cap=cap)
        t = pc.run_pnc(game)
        assert game.stage_cap - t.schedules[0].declared_lip <= 0.0
        audit = pc.audit_first_mover_bound(game, t, 100)
        assert (audit.max_gain, audit.num_deviations) == (None, 0)
        with pytest.raises(ParameterError, match="no bump headroom"):
            pc.run_pnc(game, "perturbed")


def test_report_omits_the_audit_without_bump_headroom():
    """Bundled hurricane with lipschitz_cap 13: stage cap 26 against a
    declared 32.5.  The audit used to draw 100 deviations over the cap."""
    path = Path(pc.__file__).parent / "scenarios" / "hurricane_three_farmers.json"
    doc = json.loads(path.read_text())
    doc["mechanism"]["lipschitz_cap"] = 13.0
    report = pc.run_experiment(pc.scenario_from_dict(doc, source=str(path)))
    assert report["calibration"]["stage_cap"] == 26.0
    assert report["audits"]["first_mover"]["max_gain"] is None
    assert report["audits"]["first_mover"]["num_deviations"] == 0
    names = [c["name"] for c in report["invariants"]]
    assert "audit.first_mover_bound" not in names
    assert all(c["passed"] for c in report["invariants"])
