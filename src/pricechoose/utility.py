"""Monetary utility evaluators: entropic certainty equivalents and max-min
utilities over finite credal sets of priors.

Entropic certainty equivalent with risk aversion gamma under a prior nu:

    U(xi) = -(1/gamma) * log E_nu[exp(-gamma * xi)]

evaluated throughout with max-subtracted log-sum-exp (gamma * ||X|| can reach
a few hundred in stress tests).  The implementation normalizes by the prior's
own mass, which pins U(0) = 0 exactly and makes constants evaluate
identically under every prior, so the lowest-index tie rule for worst-case
priors is stable.

Max-min utility takes the minimum of the entropic value across a finite list
of priors; the inner objective is linear in the prior, so for polytope credal
sets evaluating the vertex list loses nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError, ValidationError
from .menu import PAIR_SEED, MenuGrid, integrate, lipschitz_ratio
from .space import PROB_SUM_TOL, StateSpace


def _entropic_ce(values: np.ndarray, prior: np.ndarray, gamma: float) -> np.ndarray:
    """Certainty equivalent of each row of ``values`` under ``prior``.

    Accepts a single row (m,) or a batch (P, m); returns a scalar array or
    a (P,) vector accordingly.
    """
    z = -gamma * values
    a = np.max(z, axis=-1, keepdims=True)
    s = np.sum(prior * np.exp(z - a), axis=-1)
    s0 = prior.sum()
    return -(np.squeeze(a, axis=-1) + np.log(s) - np.log(s0)) / gamma


@dataclass(frozen=True)
class EntropicUtility:
    """Entropic certainty equivalent under the reference probability."""

    gamma: float
    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0):
            raise ValidationError(f"risk aversion must be positive, got {self.gamma}")
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    def values(self, rows: np.ndarray) -> np.ndarray:
        return _entropic_ce(rows, self.probs, self.gamma)


@dataclass(frozen=True)
class CredalSet:
    """Finite list of strictly positive priors containing the reference one."""

    priors: np.ndarray = field(repr=False)
    reference: np.ndarray = field(repr=False)
    lip_bound: float | None = None

    def __post_init__(self) -> None:
        priors = np.asarray(self.priors, dtype=float)
        reference = np.asarray(self.reference, dtype=float)
        errors = []
        if priors.ndim != 2 or priors.shape[0] == 0:
            raise StructuralError(
                f"priors must be a nonempty (k x states) matrix, got shape {priors.shape}"
            )
        if priors.shape[1] != reference.shape[0]:
            errors.append(
                f"priors have {priors.shape[1]} states, reference has {reference.shape[0]}"
            )
        else:
            if np.any(priors <= 0.0):
                errors.append("priors must be strictly positive wherever the reference is")
            bad = np.nonzero(np.abs(priors.sum(axis=1) - 1.0) > PROB_SUM_TOL)[0]
            if bad.size:
                errors.append(f"prior rows {bad.tolist()} do not sum to 1")
            member = np.any(np.all(np.abs(priors - reference) <= 1e-12, axis=1))
            if not member:
                errors.append("the reference probability must be a member of the credal set")
        if self.lip_bound is not None and not (self.lip_bound > 0.0):
            errors.append("declared Lipschitz bound must be positive")
        if errors:
            raise ValidationError(errors)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "reference", reference)

    @property
    def n_priors(self) -> int:
        return self.priors.shape[0]


@dataclass(frozen=True)
class MaxMinUtility:
    """Worst-case entropic certainty equivalent over a credal set."""

    gamma: float
    credal: CredalSet

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0):
            raise ValidationError(f"risk aversion must be positive, got {self.gamma}")

    def values_per_prior(self, rows: np.ndarray) -> np.ndarray:
        """(k, ...) entropic values, one slice per prior."""
        return np.stack([_entropic_ce(rows, nu, self.gamma) for nu in self.credal.priors])

    def values(self, rows: np.ndarray) -> np.ndarray:
        return self.values_per_prior(rows).min(axis=0)


Utility = EntropicUtility | MaxMinUtility


@dataclass(frozen=True)
class UtilityProfile:
    """One monetary utility evaluator per agent."""

    evaluators: tuple[Utility, ...]

    def __post_init__(self) -> None:
        if not self.evaluators:
            raise ValidationError("profile needs at least one evaluator")
        object.__setattr__(self, "evaluators", tuple(self.evaluators))

    @property
    def n_agents(self) -> int:
        return len(self.evaluators)

    def matrix(self, grid: MenuGrid) -> np.ndarray:
        """(points x agents) utility values over a whole grid."""
        if grid.n_agents != self.n_agents:
            raise StructuralError(
                f"grid built for {grid.n_agents} agents, profile has {self.n_agents}"
            )
        cols = [self.evaluators[i].values(grid.points[:, i, :])
                for i in range(self.n_agents)]
        return np.stack(cols, axis=1)

    def at_point(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return np.array([evaluate(u, xi, i) for i, u in enumerate(self.evaluators)])


def _agent_row(xi, agent: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2:
        raise StructuralError(f"allocation must be 2-d, got shape {xi.shape}")
    if not 0 <= agent < xi.shape[0]:
        raise StructuralError(f"agent {agent} out of range for {xi.shape[0]} rows")
    row = xi[agent]
    if np.any(np.isnan(row)):
        raise ValidationError("allocation contains NaN entries")
    return row


def evaluate(u: Utility, xi, agent: int) -> float:
    """Agent's certainty equivalent of its row of the allocation."""
    return float(u.values(_agent_row(xi, agent)))


def evaluate_grid(u: Utility, grid: MenuGrid, agent: int) -> np.ndarray:
    """Vectorized evaluate over every grid point."""
    return np.asarray(u.values(grid.points[:, agent, :]), dtype=float)


def worst_case_prior(u: MaxMinUtility, xi, agent: int) -> int:
    """Index of a minimizing prior; ties resolve to the lowest index."""
    vals = u.values_per_prior(_agent_row(xi, agent))
    return int(np.argmin(vals))


def check_cash_invariance(u: Utility, xi, agent: int, c: float) -> float:
    """Residual |U(xi + c) - U(xi) - c|; the contract is <= 1e-9."""
    row = _agent_row(xi, agent)
    return float(abs(float(u.values(row + c)) - float(u.values(row)) - c))


def estimate_lipschitz(u: Utility, grid: MenuGrid, agent: int, *,
                       exhaustive_threshold: int = 512,
                       num_samples: int = 4096, seed: int = PAIR_SEED) -> float:
    """Empirical Lipschitz constant of the utility under the menu metric.

    Exhaustive over all point pairs below the size threshold, seeded random
    pairs above it; zero-distance pairs are skipped.  Used to set and to
    sanity-check the mechanism's Lipschitz cap.
    """
    vals = evaluate_grid(u, grid, agent)
    est = lipschitz_ratio(vals, grid, exhaustive_threshold=exhaustive_threshold,
                          num_samples=num_samples, seed=seed)
    warn_if_over_declared(u, est, agent)
    return est


def warn_if_over_declared(u: Utility, est: float, agent: int) -> None:
    """Warn when an empirical Lipschitz estimate exceeds the declared bound."""
    declared = getattr(getattr(u, "credal", None), "lip_bound", None)
    if declared is not None and est > declared + 1e-9:
        warnings.warn(
            f"empirical Lipschitz {est:.6g} exceeds the declared bound {declared:.6g} "
            f"for agent {agent}; the declared constant looks miscalibrated",
            stacklevel=3,
        )


def avg_utility(u: Utility, grid: MenuGrid, agent: int) -> float:
    """Menu average of the agent's utility under the grid measure.

    For a max-min evaluator this is the ambiguity-adjusted (lower) average,
    the non-first-mover's equilibrium payoff.
    """
    return integrate(grid, evaluate_grid(u, grid, agent))


def average_utilities(grid: MenuGrid, umat: np.ndarray) -> np.ndarray:
    """Menu average of every column of a (points x agents) utility matrix."""
    return np.array([integrate(grid, umat[:, i]) for i in range(umat.shape[1])])


def reference_version(u: Utility, space: StateSpace) -> EntropicUtility:
    """Single-prior twin of an evaluator under the reference probability."""
    if isinstance(u, EntropicUtility):
        return u
    return EntropicUtility(gamma=u.gamma, probs=space.probs)
