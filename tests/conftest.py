"""Shared scenario builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import pricechoose as pc
from pricechoose.menu import _metric_sum, grid_point_count


@pytest.fixture
def hand():
    """Single loss state, two symmetric agents, the 3-point menu."""
    space = pc.StateSpace(["loss"], [1.0])
    x = np.array([-1.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(1.0, space.probs)))
    grid = pc.enumerate_grid(space, x, 2, 2)
    return space, x, profile, grid


@pytest.fixture
def two_state():
    """Two loss states, heterogeneous entropic agents, 81-point menu."""
    space = pc.StateSpace(["a", "b"], [0.6, 0.4])
    x = np.array([-1.0, -2.0])
    profile = pc.UtilityProfile((pc.EntropicUtility(1.0, space.probs),
                                 pc.EntropicUtility(2.5, space.probs)))
    grid = pc.enumerate_grid(space, x, 2, 8)
    return space, x, profile, grid


def hurricane_space(hit_prob: float = 0.1, loss: float = 1.0):
    """Three farmers, independent hits: 8 states, X counts the hits."""
    states = [f"{b:03b}" for b in range(8)]
    probs = []
    endow = np.zeros((3, 8))
    for w, s in enumerate(states):
        p = 1.0
        for i, ch in enumerate(s):
            hit = ch == "1"
            p *= hit_prob if hit else (1.0 - hit_prob)
            if hit:
                endow[i, w] = -loss
        probs.append(p)
    space = pc.StateSpace(states, probs)
    return space, pc.EndowmentProfile(space, endow)


def distance(grid, j: int, k: int) -> float:
    """d(j, k) from the metric's one kernel, in Python floats: the pair's
    feature gaps summed in ``feature_weights`` order.  Raises
    StructuralError unless both indices are grid points."""
    pair = np.array([grid._check_index(j), grid._check_index(k)])
    return _metric_sum(grid.feature_weights.tolist(),
                       (float(f[0] - f[1]) for f in grid._feature_columns(pair)))


def random_scenario(rng: np.random.Generator, max_points: int = 20_000):
    """One randomized scenario: n in 2..4, up to 4 states, mixed evaluators."""
    while True:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(m))
        probs = 0.85 * probs + 0.15 / m
        probs = probs / probs.sum()
        endow = rng.integers(-2, 2, size=(n, m)).astype(float) * rng.uniform(0.5, 1.5)
        x = endow.sum(axis=0)
        if np.any(x != 0.0):
            break
    space = pc.StateSpace([f"s{i}" for i in range(m)], probs)
    evaluators = []
    for _ in range(n):
        gamma = float(rng.uniform(0.3, 2.5))
        if rng.random() < 0.4:
            priors = [space.probs]
            for _ in range(int(rng.integers(1, 3))):
                tilt = space.probs * np.exp(rng.uniform(-0.6, 0.6, m))
                priors.append(tilt / tilt.sum())
            credal = pc.CredalSet(np.array(priors), space.probs)
            evaluators.append(pc.MaxMinUtility(gamma, credal))
        else:
            evaluators.append(pc.EntropicUtility(gamma, space.probs))
    profile = pc.UtilityProfile(tuple(evaluators))
    classes = "single" if rng.random() < 0.3 else "per_state"
    resolution = 1
    for r in range(1, 40):
        if grid_point_count(x, n, r, classes) <= max_points:
            resolution = r
    grid = pc.enumerate_grid(space, x, n, resolution, state_classes=classes,
                             budget=max_points)
    return space, x, profile, grid


def make_scenarios(count: int, master_seed: int = 20_260_808,
                   max_points: int = 20_000):
    rng = np.random.default_rng(master_seed)
    return [random_scenario(rng, max_points) for _ in range(count)]


def sampled_deviations(game, transcript, count: int, seed: int, *,
                       over_cap: bool = False, bump=pc.bump_profile):
    """Yield ``count`` seeded zero-mean first-mover schedules: the
    equilibrium first-stage schedule plus one to three re-centred bumps.

    The bumps' summed Lipschitz mass |a| / iota is a random share of the
    headroom below the stage cap (the equilibrium schedule's declared
    constant to the cap), or with ``over_cap`` one to three times the whole
    stage cap, beyond it.  ``bump(grid, target, iota)`` builds each bump.
    """
    grid, base = game.grid, transcript.schedules[0]
    headroom = game.stage_cap - base.declared_lip
    rng = np.random.default_rng([seed, 86_01])
    for _ in range(count):
        n_bumps = int(rng.integers(1, 4))
        targets = rng.integers(0, grid.n_points, size=n_bumps)
        iotas = rng.uniform(0.05, 0.5, size=n_bumps)
        raw = rng.uniform(-1.0, 1.0, size=n_bumps)
        budget = (rng.uniform(1.0, 3.0) * game.stage_cap if over_cap
                  else rng.uniform(0.1, 1.0) * headroom)
        amps = raw * (budget / np.sum(np.abs(raw) / iotas))
        values = base.values.copy()
        for t, io, a in zip(targets, iotas, amps):
            psi = bump(grid, int(t), float(io))
            values += a * (psi - pc.integrate(grid, psi))
        yield values - pc.integrate(grid, values)


def deviation_gain(game, transcript, values) -> tuple[float, float, float, int]:
    """The first mover's gain from posting ``values`` instead of its
    equilibrium schedule, the two margins at ``values`` (W_max minus the
    welfare of the continuation's response, and max(tail - values) minus
    its menu average) and that response.  The continuation responds with
    argmax(tail - values), lowest index on ties, tail being the welfare of
    every later mover."""
    order = list(transcript.order)
    first = order[0]
    net = game.umat[:, order[1:]].sum(axis=1) - values
    k = int(np.argmax(net))
    gain = float(game.umat[k, first] + values[k]) - float(transcript.payoffs[first])
    return (gain, game.welfare_max - float(game.umat[k].sum()),
            float(net.max()) - pc.integrate(game.grid, net), k)
