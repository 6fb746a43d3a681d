"""Welfare functionals, the grid welfare maximizer with local share refinement,
the proportional closed form for entropic agents, and a brute-force Pareto
scan.

The optimizer is two-tier: an exhaustive scan over the menu grid (which
doubles as the brute-force oracle) followed by optional coordinate ascent
over per-class shares with simplex projection.  Utilities are concave and
the share space is a product of simplices, so local ascent from the grid
winner is enough at desk scale.  The ascent's line search is batched: a
class block projects all of its halving steps onto the simplex in one call
and evaluates their welfare as one stack of allocations, with every agent's
priors stacked into one table, then accepts the largest improving step, so
it takes the same steps as a serial halving search at a fraction of the
Python calls.

On a smooth profile (every agent entropic) each block's stack first holds
the halving steps along a diagonal-Newton direction, which scales each
agent's gradient by the curvature of its utility in its own share; a class
that carries little tilted mass has a tiny gradient, and raw gradient steps
from step 1 creep there.  A max-min utility has kinks where its worst-case
prior switches, so its curvature says nothing about the next step; those
profiles try gradient steps only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StructuralError, UnsupportedProfileError
from .mechanism import Game
from .menu import MenuGrid, shares_to_allocation, validate_feasible
from .utility import (
    EntropicUtility,
    MaxMinUtility,
    UtilityProfile,
    _entropic_ce,
    evaluate,
)

PARETO_SLACK = 1e-12
# A Pareto-checked allocation attains the grid maximum within this much welfare.
WELFARE_TOL = 1e-9
# Refinement stops after a sweep that gains less than REFINE_TOL, or after
# MAX_SWEEPS sweeps.
REFINE_TOL = 1e-10
MAX_SWEEPS = 200


@dataclass(frozen=True)
class WelfareResult:
    """Outcome of a welfare maximization: the argmax point and its value."""

    value: float
    per_agent: np.ndarray
    allocation: np.ndarray = field(repr=False)
    method: str = "grid"                      # grid | refined | closed_form
    index: int | None = None
    shares: np.ndarray | None = field(default=None, repr=False)
    lam: float | None = None                  # closed form: shared tilt rate
    tilt: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "per_agent": [float(v) for v in self.per_agent],
            "method": self.method,
            "index": self.index,
            "shares": None if self.shares is None else np.asarray(self.shares).tolist(),
            "lam": self.lam,
            "allocation": np.asarray(self.allocation).tolist(),
        }


def welfare(profile: UtilityProfile, xi, from_agent: int = 0) -> float:
    """Tail welfare: the sum of utilities of agents from ``from_agent`` on."""
    if not 0 <= from_agent < profile.n_agents:
        raise StructuralError(f"from_agent {from_agent} out of range")
    return float(sum(evaluate(u, xi, i)
                     for i, u in enumerate(profile.evaluators) if i >= from_agent))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex of a vector (n,),
    or of each row of a stack (..., n) on its own, with the same floating
    point operations a single row gets."""
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    positive = u + (1.0 - css) / np.arange(1, n + 1) > 0
    rho = n - 1 - np.argmax(positive[..., ::-1], axis=-1)[..., None]
    lam = (1.0 - np.take_along_axis(css, rho, axis=-1)) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _allocations(grid: MenuGrid, qs: np.ndarray) -> np.ndarray:
    """(S x n x m) allocations of a stack of (S x C x n) class shares:
    xi_i(w) = q_{c(w), i} X(w), and zero in the zero-risk states."""
    x, cls = grid.x, grid.class_of_state
    member = cls >= 0
    xi = np.zeros((qs.shape[0], qs.shape[2], len(x)))
    xi[:, :, member] = qs[:, cls[member], :].swapaxes(1, 2) * x[member]
    return xi


@dataclass(frozen=True)
class _PriorRows:
    """Every agent's priors stacked in agent order: one row for an entropic
    agent, one per prior for a max-min agent."""

    agent: np.ndarray       # (R,) the agent each row belongs to
    gamma: np.ndarray       # (R,) that agent's risk aversion
    priors: np.ndarray      # (R x m)
    log_mass: np.ndarray    # (R,) log of each prior's total mass
    starts: np.ndarray      # (n + 1,) agent i owns rows starts[i]:starts[i+1]

    @classmethod
    def of(cls, profile: UtilityProfile) -> _PriorRows:
        blocks = [u.credal.priors if isinstance(u, MaxMinUtility) else u.probs[None]
                  for u in profile.evaluators]
        sizes = [len(b) for b in blocks]
        priors = np.concatenate(blocks)
        return cls(agent=np.repeat(np.arange(len(blocks)), sizes),
                   gamma=np.repeat([u.gamma for u in profile.evaluators], sizes),
                   priors=priors,
                   log_mass=np.log(np.add.reduce(priors, axis=-1)),
                   starts=np.cumsum([0] + sizes))


def _welfare_values(rows: _PriorRows, grid: MenuGrid,
                    qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Welfare at each of a stack of (S x C x n) class shares, and the (S x n)
    index of each agent's worst-case prior there (lowest index on ties; 0
    for an entropic agent).

    All prior rows are evaluated at once, with one exponential over
    (S x R x m); each row gets the floats ``_entropic_ce`` gives it, and the
    agents' values are added in agent order.
    """
    xi = _allocations(grid, qs)[:, rows.agent, :]
    z = -rows.gamma[:, None] * xi
    a = z.max(axis=-1, keepdims=True)
    s = np.add.reduce(rows.priors * np.exp(z - a), axis=-1)
    ce = -(a[..., 0] + np.log(s) - rows.log_mass) / rows.gamma
    total = np.zeros(qs.shape[0])
    active = np.zeros((qs.shape[0], len(rows.starts) - 1), dtype=np.int64)
    for i, (lo, hi) in enumerate(zip(rows.starts[:-1], rows.starts[1:])):
        active[:, i] = ce[:, lo:hi].argmin(axis=1)
        total += ce[:, lo:hi].min(axis=1)
    return total, active


def _welfare_grad(rows: _PriorRows, grid: MenuGrid, q: np.ndarray, c: int,
                  active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Super)gradient g of welfare in class ``c``'s shares (row c of the
    gradient in the class shares ``q``) and the curvature h of each agent's
    utility along its own share there, given each agent's worst-case prior
    index ``active`` (see ``_welfare_values``).

    The gradient of an entropic certainty equivalent in the payoff is the
    exponentially tilted probability t_i; for a max-min evaluator the tilt
    under the worst-case prior is a supergradient.  Differentiating g_i
    once more along agent i's own share gives -h_i, with
    h_i = gamma_i * (sum_{w in c} t_i(w) X(w)^2 - g_i^2) >= 0.
    """
    mask = grid.class_of_state == c
    xc = grid.x[mask]
    xi = _allocations(grid, q[None])[0]
    gamma = rows.gamma[rows.starts[:-1]]
    z = -gamma[:, None] * xi
    z -= z.max(axis=1, keepdims=True)
    t = rows.priors[rows.starts[:-1] + active] * np.exp(z)
    t /= t.sum(axis=1, keepdims=True)
    # One fresh array per dot: BLAS can round the dot of a row that sits
    # inside a matrix differently (it depends on memory alignment), and a
    # fresh row keeps the bits of a per-agent evaluation.
    tc = [t[i, mask] for i in range(len(t))]
    grad = np.array([float(np.dot(ti, xc)) for ti in tc])
    curv = gamma * (np.array([float(np.dot(ti, xc * xc)) for ti in tc]) - grad * grad)
    return grad, curv


def _newton_direction(grad: np.ndarray, curv: np.ndarray) -> np.ndarray | None:
    """The diagonal-Newton step d = (g - lam) / h with lam = sum(g/h) /
    sum(1/h), which maximizes g.d - sum(h d^2)/2 subject to sum(d) = 0; None
    when a curvature is zero or so small that the step is not finite."""
    if not np.all(curv > 0.0):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.sum(grad / curv) / np.sum(1.0 / curv)
        d = (grad - lam) / curv
        return d if np.sum(np.abs(d)) <= NEWTON_MAX else None


def _halving_steps(floor: float) -> np.ndarray:
    """The line-search steps 1, 1/2, 1/4, ... that exceed ``floor``."""
    steps = [1.0]
    while steps[-1] * 0.5 > floor:
        steps.append(steps[-1] * 0.5)
    return np.array(steps)


# Steps 2^0 ... 2^-46: every halving step above 1e-14.
LINE_STEPS = _halving_steps(1e-14)
# Newton directions longer than this (in l1) are not tried: the simplex
# projection's running sums of the trial rows must stay finite.
NEWTON_MAX = 1e300


def _refine_shares(profile: UtilityProfile, grid: MenuGrid,
                   q0: np.ndarray) -> tuple[np.ndarray, float]:
    """Blockwise projected ascent over per-class shares.

    Each class block takes the gradient at the current point and tries
    every step of ``LINE_STEPS`` along it at once: the trial rows are
    projected onto the simplex in one call and their welfare is evaluated
    in one stack.  The largest improving step is accepted, the one a
    halving search from step 1 stops at; when none improves the block keeps
    its shares.  On a smooth profile (no max-min agent) the same stack
    first holds every step along the diagonal-Newton direction, and the
    block accepts the first improving row in that order: Newton steps, then
    gradient steps.  Only improving steps are accepted, so the welfare
    value never decreases and the iterate never leaves the product of
    simplices.
    """
    rows = _PriorRows.of(profile)
    smooth = not any(isinstance(u, MaxMinUtility) for u in profile.evaluators)
    steps = LINE_STEPS[:, None]
    q = q0.copy()
    vals, active = _welfare_values(rows, grid, q[None])
    best, active = float(vals[0]), active[0]
    for _ in range(MAX_SWEEPS):
        sweep_gain = 0.0
        for c in range(q.shape[0]):
            grad, curv = _welfare_grad(rows, grid, q, c, active)
            newton = _newton_direction(grad, curv) if smooth else None
            directions = [grad] if newton is None else [newton, grad]
            trials = np.repeat(q[None], len(LINE_STEPS) * len(directions), axis=0)
            trials[:, c] = _project_simplex(
                np.concatenate([q[c] + steps * d for d in directions]))
            vals, actives = _welfare_values(rows, grid, trials)
            better = np.flatnonzero(vals > best)
            if better.size:
                k = better[0]
                sweep_gain += vals[k] - best
                best, q, active = float(vals[k]), trials[k], actives[k]
        if sweep_gain < REFINE_TOL:
            break
    return q, best


def maximize_welfare(profile: UtilityProfile, grid: MenuGrid, *,
                     refine: bool = False, game: Game | None = None) -> WelfareResult:
    """Exhaustive grid argmax of welfare, optionally locally refined.

    Pass the ``Game`` prepared for this profile and grid to read its utility
    matrix and welfare vector instead of evaluating them again.  Ties
    resolve to the lowest enumeration index.  A refined point is
    re-validated against the feasibility invariants before it is returned.
    """
    if game is None:
        umat = profile.matrix(grid)
        wvals = umat.sum(axis=1)
    elif game.profile is not profile or game.grid is not grid:
        raise StructuralError("game was prepared for another profile or grid")
    else:
        umat, wvals = game.umat, game.welfare
    idx = int(np.argmax(wvals))
    shares = grid.share(idx) if grid.n_classes else None
    allocation = grid.point(idx)
    per_agent = umat[idx]
    method = "grid"

    if refine and grid.n_classes:
        q, refined_val = _refine_shares(profile, grid, shares)
        if refined_val > wvals[idx]:
            rows = [q[grid.class_of_state[w]] if grid.class_of_state[w] >= 0 else None
                    for w in range(len(grid.x))]
            q_states = np.array([r for r in rows if r is not None])
            allocation = shares_to_allocation(q_states, grid.x)
            report = validate_feasible(allocation, grid.x)
            if not report.ok:
                raise ConfigurationError("refined point left the feasible set")
            per_agent = profile.at_point(allocation)
            shares = q
            method = "refined"

    value = float(per_agent.sum())
    return WelfareResult(value=value, per_agent=per_agent, allocation=allocation,
                         method=method, index=idx, shares=shares)


def closed_form_entropic(profile_or_gammas, x, probs) -> WelfareResult:
    """Proportional optimum for single-prior entropic agents.

    Weights are reciprocal risk aversions normalized to the simplex,
    w_i = (1/gamma_i) / sum_j (1/gamma_j); every agent then shares the same
    exponential tilt with rate lam = (sum_j 1/gamma_j)^-1, and gamma_i * w_i
    = lam for all i (checked to 1e-12).
    """
    if isinstance(profile_or_gammas, UtilityProfile):
        gammas = []
        for u in profile_or_gammas.evaluators:
            if not isinstance(u, EntropicUtility):
                raise UnsupportedProfileError(
                    "closed form requires single-prior entropic agents"
                )
            gammas.append(u.gamma)
    else:
        gammas = [float(g) for g in profile_or_gammas]
    gammas = np.asarray(gammas, dtype=float)
    x = np.asarray(x, dtype=float)
    probs = np.asarray(probs, dtype=float)

    inv = 1.0 / gammas
    lam = 1.0 / inv.sum()
    w = inv * lam
    mismatch = np.abs(gammas * w - lam).max()
    if mismatch > 1e-12:
        raise ConfigurationError(
            f"tilt-rate identity gamma_i * w_i = lam off by {mismatch:.3g}"
        )

    allocation = np.outer(w, x)
    per_agent = np.array([float(_entropic_ce(allocation[i], probs, gammas[i]))
                          for i in range(len(gammas))])
    z = -lam * x
    z = z - z.max()
    tilt = probs * np.exp(z)
    tilt = tilt / tilt.sum()
    return WelfareResult(value=float(per_agent.sum()), per_agent=per_agent,
                         allocation=allocation, method="closed_form",
                         index=None, shares=w[None, :], lam=float(lam), tilt=tilt)


@dataclass(frozen=True)
class ParetoCheck:
    """Brute-force dominance scan of one allocation against a grid."""

    optimal: bool                      # no grid point dominates it
    dominating_index: int | None
    welfare_value: float
    welfare_max: float
    attains_max: bool                  # welfare equals the grid maximum

    def to_dict(self) -> dict:
        return {
            "optimal": self.optimal,
            "dominating_index": self.dominating_index,
            "welfare_value": self.welfare_value,
            "welfare_max": self.welfare_max,
            "attains_max": self.attains_max,
        }


def pareto_check(profile: UtilityProfile, grid: MenuGrid, xi, *,
                 umat: np.ndarray | None = None) -> ParetoCheck:
    """Scan the whole grid for a point that weakly improves every agent and
    strictly improves at least one, with slack separating ties from noise.

    Also reports whether the allocation's total welfare attains the grid
    maximum, so the optimality-equals-maximality equivalence can be checked
    in both directions on the discretization.

    The scan runs one agent column at a time over an agent-major copy of
    ``umat`` (no copy when ``umat`` is already column-major), so every pass
    is contiguous.  Grid welfare is summed column by column from zero in
    agent order; up to 7 agents that equals ``umat.sum(axis=1)`` bit for
    bit, from 8 agents numpy's pairwise summation can differ by a few ulp.
    """
    if umat is None:
        umat = profile.matrix(grid)
    u0 = profile.at_point(np.asarray(xi, dtype=float))
    cols = np.ascontiguousarray(umat.T)
    weak = np.ones(cols.shape[1], dtype=bool)
    strict = np.zeros(cols.shape[1], dtype=bool)
    totals = np.zeros(cols.shape[1])
    for i, col in enumerate(cols):
        weak &= col >= u0[i] - PARETO_SLACK
        strict |= col > u0[i] + PARETO_SLACK
        totals += col
    dominating = weak & strict
    first = int(np.argmax(dominating))
    dominated = bool(dominating[first])
    wmax = float(totals.max())
    wval = float(u0.sum())
    return ParetoCheck(
        optimal=not dominated,
        dominating_index=first if dominated else None,
        welfare_value=wval,
        welfare_max=wmax,
        attains_max=bool(wval >= wmax - WELFARE_TOL),
    )
