"""Welfare functionals, the grid welfare maximizer with local share refinement,
the proportional closed form for entropic agents, and a brute-force Pareto
scan.

The optimizer is two-tier: an exhaustive scan over the menu grid (which
doubles as the brute-force oracle) followed by optional coordinate ascent
over per-class shares with simplex projection.  Utilities are concave and
the share space is a product of simplices, so local ascent from the grid
winner is enough at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StructuralError, UnsupportedProfileError
from .menu import MenuGrid, shares_to_allocation, validate_feasible
from .utility import (
    EntropicUtility,
    MaxMinUtility,
    UtilityProfile,
    _entropic_ce,
    evaluate,
)

PARETO_SLACK = 1e-12
REFINE_TOL = 1e-10


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
    """Euclidean projection of a vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _tail_value_and_grads(profile: UtilityProfile, grid: MenuGrid,
                          q: np.ndarray, from_agent: int) -> tuple[float, np.ndarray]:
    """Tail welfare at class shares ``q`` plus its (super)gradient in q.

    The gradient of an entropic certainty equivalent in the payoff is the
    exponentially tilted probability; for a max-min evaluator the tilt under
    the worst-case prior is a supergradient.
    """
    x = grid.x
    cls = grid.class_of_state
    xi = np.zeros((profile.n_agents, len(x)))
    for w in range(len(x)):
        if cls[w] >= 0:
            xi[:, w] = q[cls[w]] * x[w]
    total = 0.0
    grad = np.zeros_like(q)
    for i in range(from_agent, profile.n_agents):
        u = profile.evaluators[i]
        row = xi[i]
        if isinstance(u, MaxMinUtility):
            per = u.values_per_prior(row)
            j = int(np.argmin(per))
            nu = u.credal.priors[j]
            total += float(per[j])
        else:
            nu = u.probs
            total += float(_entropic_ce(row, nu, u.gamma))
        z = -u.gamma * row
        z -= z.max()
        t = nu * np.exp(z)
        t /= t.sum()
        for c in range(q.shape[0]):
            mask = cls == c
            grad[c, i] += float(np.dot(t[mask], x[mask]))
    return total, grad


def _refine_shares(profile: UtilityProfile, grid: MenuGrid, q0: np.ndarray,
                   from_agent: int, tol: float, max_sweeps: int) -> tuple[np.ndarray, float]:
    """Blockwise projected gradient ascent over per-class shares.

    Only improving steps are accepted, so the welfare value never decreases
    and the iterate never leaves the product of simplices.
    """
    q = q0.copy()
    best, _ = _tail_value_and_grads(profile, grid, q, from_agent)
    for _ in range(max_sweeps):
        sweep_gain = 0.0
        for c in range(q.shape[0]):
            _, grad = _tail_value_and_grads(profile, grid, q, from_agent)
            step = 1.0
            while step > 1e-14:
                trial = q.copy()
                trial[c] = _project_simplex(q[c] + step * grad[c])
                val, _ = _tail_value_and_grads(profile, grid, trial, from_agent)
                if val > best:
                    sweep_gain += val - best
                    best, q = val, trial
                    break
                step *= 0.5
        if sweep_gain < tol:
            break
    return q, best


def maximize_welfare(profile: UtilityProfile, grid: MenuGrid,
                     from_agent: int = 0, *, refine: bool = False,
                     refine_tol: float = REFINE_TOL, max_sweeps: int = 200,
                     umat: np.ndarray | None = None) -> WelfareResult:
    """Exhaustive grid argmax of tail welfare, optionally locally refined.

    Ties resolve to the lowest enumeration index.  A refined point is
    re-validated against the feasibility invariants before it is returned.
    """
    if umat is None:
        umat = profile.matrix(grid)
    wvals = umat[:, from_agent:].sum(axis=1)
    idx = int(np.argmax(wvals))
    shares = grid.shares[idx] if grid.n_classes else None
    allocation = grid.points[idx]
    per_agent = umat[idx]
    method = "grid"

    if refine and grid.n_classes:
        q, refined_val = _refine_shares(profile, grid, grid.shares[idx],
                                        from_agent, refine_tol, max_sweeps)
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

    value = float(per_agent[from_agent:].sum())
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
                 slack: float = PARETO_SLACK, welfare_tol: float = 1e-9,
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
        weak &= col >= u0[i] - slack
        strict |= col > u0[i] + slack
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
        attains_max=bool(wval >= wmax - welfare_tol),
    )
