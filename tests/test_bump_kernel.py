"""The distance kernel and the certified first-mover audit.

``reference_distances_to`` and ``reference_bump_profile`` are whole-grid
versions: they read the gaps of every point's ``features`` row, weigh them
by ``feature_weights`` and add them from +0.0 in the kernel's order (the
mass sums' gaps, then the share gaps in (class, agent) order), one feature
column of the whole grid per step.  The kernel must
reproduce them bit for bit.  The sampled first-mover replay the
audit used to run is kept here as a property test of the certificate that
replaced it, with bumps built by the reference kernel.
"""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pricechoose as pc
from conftest import deviation_gain, hurricane_space, sampled_deviations
from pricechoose.errors import ParameterError

# ---------------------------------------------------------------------------
# Whole-grid reference versions
# ---------------------------------------------------------------------------


def reference_distances_to(self, k: int) -> np.ndarray:
    k = self._check_index(k)
    if not self.n_classes:
        return np.zeros(1)
    g, w = self.features, self.feature_weights
    total = np.zeros(self.n_points)
    for f in range(w.size):
        total += w[f] * np.abs(g[:, f] - g[k, f])
    return total


def reference_bump_profile(grid, target: int, iota: float) -> np.ndarray:
    if not 0.0 < iota < 1.0:
        raise ParameterError(f"iota must lie in (0, 1), got {iota}")
    return iota / (iota + reference_distances_to(grid, target))


def check_certificate_covers_samples(game, t, count: int, seed: int) -> None:
    """Every sampled deviation, within the cap (when there is headroom) and
    over it, gains exactly the certified gain minus its two margins, to
    1e-12 of the scale of W_max and of the deviating schedule, and never
    more than the certified gain.  (The no-spanning-feature grid declares a
    Lipschitz constant of ~2e5, so its deviations lose ~4e4 and round at
    ~1e-11.)  Audited on a transcript that posts the deviation, the audit
    reports the same bound and the margins at the deviation."""
    audit = pc.audit_first_mover_bound(game, t)
    over = [True] + ([False] if game.stage_cap > t.schedules[0].declared_lip else [])
    for over_cap in over:
        for values in sampled_deviations(game, t, count, seed, over_cap=over_cap,
                                         bump=reference_bump_profile):
            tol = 1e-12 * (1.0 + abs(game.welfare_max) + float(np.abs(values).max()))
            gain, welfare_margin, indifference_margin, response = \
                deviation_gain(game, t, values)
            assert gain <= audit.max_gain
            assert abs(gain - (audit.max_gain - welfare_margin - indifference_margin)) <= tol
            assert welfare_margin >= -tol and indifference_margin >= -tol
            posted = dataclasses.replace(
                t, chosen=response,
                schedules=(pc.PriceSchedule(values, 0.0),) + t.schedules[1:])
            at_posted = pc.audit_first_mover_bound(game, posted)
            assert at_posted.max_gain == audit.max_gain
            assert at_posted.welfare_margin == pytest.approx(welfare_margin, abs=tol)
            assert at_posted.indifference_margin == pytest.approx(indifference_margin,
                                                                  abs=tol)


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
    """Three classes, two of them mixed-sign with zero mass (sum over the
    class of P(w) X(w) = 0), and a zero-risk state: every agent-mass
    functional touches the third class alone, so no gap spans classes."""
    space = pc.StateSpace(["calm", "a1", "a2", "b1", "b2", "c"],
                          [0.2, 0.2, 0.2, 0.15, 0.15, 0.1])
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in (1.0, 2.0, 4.0)))
    grid = pc.enumerate_grid(space, np.array([0.0, -1.0, 1.0, -2.0, 2.0, -3.0]),
                             3, 6, state_classes=[0, 1, 1, 2, 2, 3])
    assert grid.n_classes == 3 and grid._metric[2].size == 0
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

def test_distances_and_bumps_match_the_whole_grid_versions(scenario):
    _, grid = scenario
    for k in sample_targets(grid):
        assert np.array_equal(grid.distances_to(k), reference_distances_to(grid, k))
        for iota in (0.05, 0.1, 0.45):
            assert np.array_equal(pc.bump_profile(grid, k, iota),
                                  reference_bump_profile(grid, k, iota))


def test_target_is_exactly_at_distance_zero(scenario):
    _, grid = scenario
    for k in sample_targets(grid):
        assert grid.distances_to(k)[k] == 0.0
        assert pc.bump_profile(grid, k, 0.1)[k] == 1.0


# ---------------------------------------------------------------------------
# The certificate against the sampled replay
# ---------------------------------------------------------------------------

def test_audit_matches_the_whole_grid_loop(scenario):
    profile, grid = scenario
    game = pc.calibrate(profile, grid)
    t = pc.run_pnc(game)
    for seed in (0, 3):
        check_certificate_covers_samples(game, t, 20, seed)


def test_three_class_audit_matches_the_whole_grid_loop(three_class):
    game, t = three_class
    check_certificate_covers_samples(game, t, 6, seed=5)


def test_audit_holds_a_few_point_vectors(three_class):
    """Peak traced memory of one audit stays under four point-sized
    vectors: at most three are alive at once (the continuation welfare with
    its two-column stack, then that welfare, the net schedule and the
    total welfare)."""
    game, t = three_class
    bound = 4 * game.grid.n_points * 8
    tracemalloc.start()
    try:
        pc.audit_first_mover_bound(game, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_distances_to_holds_a_few_point_vectors(three_class):
    """Peak traced memory of one distance scan stays under five point-sized
    vectors on a grid with mass sums: the P-vector of distances, into which
    each feature's term is added in place, one agent's mass-sum gap and its
    term."""
    game, _ = three_class
    grid = game.grid
    n = grid.n_agents
    assert grid._metric[2].size == n
    grid.distances_to(0)
    tracemalloc.start()
    try:
        grid.distances_to(grid.n_points // 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n + 2) * grid.n_points * 8, peak / (grid.n_points * 8)


# ---------------------------------------------------------------------------
# No bump headroom
# ---------------------------------------------------------------------------

def test_audit_draws_nothing_without_bump_headroom(monkeypatch):
    """A cap below the followers' declared constant leaves no headroom: no
    admissible bump exists, and perturbed mode refuses to run.  The audit
    needs none, and measures no distance, with or without headroom."""
    space, endow = hurricane_space()
    profile = pc.UtilityProfile(tuple(pc.EntropicUtility(g, space.probs)
                                      for g in (1.0, 2.0, 4.0)))
    grid = pc.enumerate_grid(space, pc.aggregate_risk(endow), 3, 20,
                             state_classes="single")
    calibrated = pc.calibrate(profile, grid)
    declared = float(calibrated.agent_lipschitz[1:].sum())

    def refuse(self, k):
        raise AssertionError("the audit measured a distance")

    for cap in (declared / 2.5, declared / 2.0, None):    # headroom < 0, == 0, > 0
        game = pc.calibrate(profile, grid, cap=cap)
        t = pc.run_pnc(game)
        with monkeypatch.context() as patch:
            patch.setattr(pc.MenuGrid, "distances_to", refuse)
            audit = pc.audit_first_mover_bound(game, t)
        assert audit.max_gain <= 1e-9
        check_certificate_covers_samples(game, t, 20, seed=1)
        if cap is not None:
            assert game.stage_cap - t.schedules[0].declared_lip <= 0.0
            with pytest.raises(ParameterError, match="no bump headroom"):
                pc.run_pnc(game, "perturbed")


def test_report_carries_the_audit_without_bump_headroom():
    """Bundled hurricane with lipschitz_cap 13: stage cap 26 against a
    declared 32.5.  The certificate needs no headroom, so the report keeps
    the check; the sampled replay it replaced drew nothing here."""
    path = Path(pc.__file__).parent / "scenarios" / "hurricane_three_farmers.json"
    doc = json.loads(path.read_text())
    doc["mechanism"]["lipschitz_cap"] = 13.0
    config = pc.scenario_from_dict(doc, source=str(path))
    report = pc.run_experiment(config)
    assert report["calibration"]["stage_cap"] == 26.0
    first_mover = report["audits"]["first_mover"]
    assert first_mover["max_gain"] <= 1e-9
    checks = {c["name"]: c for c in report["invariants"]}
    assert checks["audit.first_mover_bound"]["value"] == first_mover["max_gain"]
    assert all(c["passed"] for c in report["invariants"])

    grid = pc.enumerate_grid(config.space, config.x, 3, config.resolution,
                             state_classes=config.state_classes)
    game = pc.calibrate(config.profile, grid, cap=13.0)
    check_certificate_covers_samples(game, pc.run_pnc(game), 30, seed=config.seed)
