"""Monetary utility evaluators: max-min entropic utilities over finite
credal sets of priors.

Entropic certainty equivalent with risk aversion gamma under a prior nu:

    U(xi) = -(1/gamma) * log E_nu[exp(-gamma * xi)]

evaluated throughout with max-subtracted log-sum-exp (gamma * ||X|| can reach
a few hundred in stress tests).  The implementation normalizes by the prior's
own mass, which pins U(0) = 0 exactly and makes constants evaluate
identically under every prior, so the lowest-index tie rule for worst-case
priors is stable.

Every agent is a ``MaxMinUtility``: the minimum of the entropic value across
a finite list of priors (Gilboa & Schmeidler 1989); the inner objective is
linear in the prior, so for polytope credal sets evaluating the vertex list
loses nothing.  A single-prior entropic agent is the one-prior credal set
{P}, which ``EntropicUtility`` builds.

On a menu grid an agent's random variable is fixed by its share level in
each state class, one of L levels j / r, so ``evaluate_grid`` evaluates
the agent L^C times and gathers the values onto the K^C grid points.

One kernel, ``_tilted_ce``, computes every certainty equivalent (a point,
a grid's level tuples, the share refinement's trials) with the same floats
for the same allocation, so a grid value is the value of its point; a
profile stacks its agents' priors once, to evaluate them all in one call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError, ValidationError
from .menu import MenuGrid, integrate, lipschitz_ratio
from .space import PROB_TOL

# Most (state, level tuple) entries ``evaluate_grid`` evaluates at once.
GRID_BLOCK = 2 ** 16


def _tilted_ce(z: np.ndarray, priors: np.ndarray,
               neg_gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certainty equivalents of an (m x R x T) exponent table -gamma xi(w),
    states first, under the prior rows ``priors`` (R x m); an (m x 1 x T)
    table is shared by every row.  ``z`` is overwritten; ``neg_gamma`` is
    -gamma, a scalar or (R x 1).  The max and the exponentials are taken
    plane by plane, and the prior-weighted terms are written transposed
    into a contiguous (R x T x m) table whose last axis is summed: numpy
    adds a contiguous axis in 8-way pairwise partial sums from 8 entries on,
    so each (row, trial) gets the floats of a one-allocation evaluation.
    Returns the (R x T) values, the tilts nu(w) exp(z(w) - max z) and their
    (R x T) sums.
    """
    a = np.maximum.reduce(z, axis=0)
    z -= a
    np.exp(z, out=z)
    terms = np.empty((len(priors), z.shape[2], z.shape[0]))
    np.multiply(z, priors.T[:, :, None], out=terms.transpose(2, 0, 1))
    mass = np.add.reduce(terms, axis=-1)
    ce = np.log(mass)
    ce += a
    ce -= np.log(np.add.reduce(priors, axis=-1))[:, None]
    ce /= neg_gamma
    return ce, terms, mass


def _frozen(values) -> np.ndarray:
    """A read-only float copy, as ``StateSpace`` keeps its ``probs``: an
    in-place edit could otherwise break a rule the constructor checked."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CredalSet:
    """Finite list of strictly positive priors containing the reference one."""

    priors: np.ndarray = field(repr=False)
    reference: np.ndarray = field(repr=False)
    lip_bound: float | None = None

    def __post_init__(self) -> None:
        priors, reference = _frozen(self.priors), _frozen(self.reference)
        if priors.ndim != 2 or priors.shape[0] == 0:
            raise StructuralError(
                f"priors must be a nonempty (k x states) matrix, got shape {priors.shape}"
            )
        if priors.shape[1] != reference.shape[0]:
            raise ValidationError(
                f"priors have {priors.shape[1]} states, reference has {reference.shape[0]}"
            )
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "reference", reference)
        errors = self.problems()
        if errors:
            raise ValidationError(errors)

    def problems(self) -> list[str]:
        """Every broken rule of a credal set: each prior strictly positive and
        summing to 1, the reference probability among the priors, and a
        declared Lipschitz bound positive."""
        errors = []
        for j, row in enumerate(self.priors):
            if np.any(row <= 0.0):
                errors.append(f"priors[{j}] must be strictly positive")
            total = float(row.sum())
            if abs(total - 1.0) > PROB_TOL:
                errors.append(f"priors[{j}] sums to {total!r}, not 1")
        if not np.any(np.all(np.abs(self.priors - self.reference) <= PROB_TOL, axis=1)):
            errors.append("the reference probability must be one of the priors")
        if self.lip_bound is not None and not (self.lip_bound > 0.0):
            errors.append("lip_bound must be positive when given "
                          "(a declared Lipschitz bound)")
        return errors


@dataclass(frozen=True)
class MaxMinUtility:
    """Worst-case entropic certainty equivalent over a credal set."""

    gamma: float
    credal: CredalSet

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0):
            raise ValidationError(f"gamma must be a positive number, got {self.gamma!r}")

    def values_per_prior(self, rows: np.ndarray) -> np.ndarray:
        """(k, ...) entropic values of a row (m,) or a batch of rows (..., m),
        one slice per prior.  The exponentials are computed once and shared,
        and each prior's values are the floats it gets on its own."""
        m = rows.shape[-1]
        z = np.multiply(rows.reshape(-1, m).T, -self.gamma, order="C")
        ce = _tilted_ce(z[:, None], self.credal.priors, -self.gamma)[0]
        return ce.reshape(ce.shape[:1] + rows.shape[:-1])

    def values(self, rows: np.ndarray) -> np.ndarray:
        return self.values_per_prior(rows).min(axis=0)


def EntropicUtility(gamma: float, probs) -> MaxMinUtility:
    """Entropic certainty equivalent under the one prior ``probs``: the
    max-min utility over the credal set {probs}."""
    probs = np.asarray(probs, dtype=float)
    return MaxMinUtility(gamma, CredalSet(probs[None], probs))


@dataclass(frozen=True)
class UtilityProfile:
    """One monetary utility evaluator per agent, and their priors stacked."""

    evaluators: tuple[MaxMinUtility, ...]
    priors: np.ndarray = field(init=False, repr=False, compare=False)     # (R x m)
    neg_gamma: np.ndarray = field(init=False, repr=False, compare=False)  # (R x 1)
    owner: np.ndarray = field(init=False, repr=False, compare=False)      # (R,) agent of row r
    starts: np.ndarray = field(init=False, repr=False, compare=False)     # (n,) agent i's first row

    def __post_init__(self) -> None:
        if not self.evaluators:
            raise ValidationError("profile needs at least one evaluator")
        object.__setattr__(self, "evaluators", tuple(self.evaluators))
        sizes = [len(u.credal.priors) for u in self.evaluators]
        for name, value in (
                ("priors", np.concatenate([u.credal.priors for u in self.evaluators])),
                ("neg_gamma", -np.repeat([u.gamma for u in self.evaluators], sizes)[:, None]),
                ("owner", np.repeat(np.arange(len(sizes)), sizes)),
                ("starts", np.cumsum([0] + sizes[:-1]))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_agents(self) -> int:
        return len(self.evaluators)

    def matrix(self, grid: MenuGrid) -> np.ndarray:
        """(points x agents) utility values over a whole grid, column-major:
        each agent's column is contiguous, as the column scans read it."""
        if grid.n_agents != self.n_agents:
            raise StructuralError(
                f"grid built for {grid.n_agents} agents, profile has {self.n_agents}"
            )
        out = np.empty((self.n_agents, grid.n_points))
        for i, u in enumerate(self.evaluators):
            out[i] = evaluate_grid(u, grid, i)
        return out.T

    def at_point(self, xi: np.ndarray) -> np.ndarray:
        """Every agent's ``evaluate`` value, from one ``_tilted_ce`` call over
        the stacked prior rows and a minimum over each agent's own rows."""
        xi = np.asarray(xi, dtype=float)
        shape = (self.n_agents, self.priors.shape[1])
        if xi.shape != shape:
            raise StructuralError(f"allocation must be (agents x states) {shape}, got {xi.shape}")
        if np.any(np.isnan(xi)):
            raise ValidationError("allocation contains NaN entries")
        z = np.multiply(xi[self.owner].T, self.neg_gamma.T, order="C")
        ce = _tilted_ce(z[:, :, None], self.priors, self.neg_gamma)[0]
        return np.minimum.reduceat(ce[:, 0], self.starts)


def _agent_rows(xi, agent: int) -> np.ndarray:
    """Row ``agent`` of every allocation of a (... x n x m) stack, with one
    shape and NaN check for the whole stack."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim < 2:
        raise StructuralError(f"allocation must be 2-d, got shape {xi.shape}")
    if not 0 <= agent < xi.shape[-2]:
        raise StructuralError(f"agent {agent} out of range for {xi.shape[-2]} rows")
    rows = xi[..., agent, :]
    if np.any(np.isnan(rows)):
        raise ValidationError("allocation contains NaN entries")
    return rows


def _agent_row(xi, agent: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2:
        raise StructuralError(f"allocation must be 2-d, got shape {xi.shape}")
    return _agent_rows(xi, agent)


def evaluate(u: MaxMinUtility, xi, agent: int) -> float:
    """Agent's certainty equivalent of its row of the allocation."""
    return float(u.values(_agent_row(xi, agent)))


def evaluate_grid(u: MaxMinUtility, grid: MenuGrid, agent: int) -> np.ndarray:
    """The utility of ``agent`` at every grid point, from its share levels.

    The agent's random variable at a point is fixed by the agent's share
    level in each class, one of the L levels ``grid._share_levels`` reads
    off the integer table, so the utility is evaluated L^C times, once per
    tuple of levels, and gathered onto the P = K^C points.  Tuple t takes level
    t // L^(C-1-c) % L in class c, and a zero-risk state reads +0.0.  The
    tuples' state-major allocations go through ``_tilted_ce`` in blocks of
    at most ``GRID_BLOCK`` (state, tuple) entries, so every point's value is
    the float ``evaluate`` gives at that point.
    """
    levels, index = grid._share_levels()
    size, classes = len(levels), grid.n_classes
    places = np.append(size ** np.arange(classes - 1, -1, -1), 1)[:, None]
    # x + 0.0 turns a -0.0 entry into +0.0, as in ``MenuGrid.point``.
    x = (grid.x + 0.0)[:, None]
    values = np.empty(size ** classes)
    step = max(1, GRID_BLOCK // len(x))
    for lo in range(0, len(values), step):
        t = np.arange(lo, min(lo + step, len(values)))
        z = levels[t // places % size][grid.class_of_state]
        z *= x
        z *= -u.gamma
        ce = _tilted_ce(z[:, None], u.credal.priors, -u.gamma)[0]
        values[lo:lo + step] = np.minimum.reduce(ce, axis=0)
    values = values.reshape((size,) * classes)
    for axis in range(classes):
        values = values.take(index[:, agent], axis=axis)
    return values.reshape(grid.n_points)


def check_cash_invariance(u: MaxMinUtility, xi, agent: int, c: float) -> float:
    """Residual |U(xi + c) - U(xi) - c|; the contract is <= 1e-9."""
    row = _agent_row(xi, agent)
    return float(abs(float(u.values(row + c)) - float(u.values(row)) - c))


def estimate_lipschitz(u: MaxMinUtility, grid: MenuGrid, agent: int) -> float:
    """Empirical Lipschitz constant of the utility under the menu metric.

    Exhaustive over all point pairs below the size threshold, seeded random
    pairs above it; zero-distance pairs are skipped.  Used to set and to
    sanity-check the mechanism's Lipschitz cap.
    """
    vals = evaluate_grid(u, grid, agent)
    est = lipschitz_ratio(vals, grid)
    warn_if_over_declared(u, est, agent)
    return est


def warn_if_over_declared(u: MaxMinUtility, est: float, agent: int) -> None:
    """Warn when an empirical Lipschitz estimate exceeds the declared bound."""
    declared = u.credal.lip_bound
    if declared is not None and est > declared + 1e-9:
        warnings.warn(
            f"empirical Lipschitz {est:.6g} exceeds the declared bound {declared:.6g} "
            f"for agent {agent}; the declared constant looks miscalibrated",
            stacklevel=3,
        )


def average_utilities(grid: MenuGrid, umat: np.ndarray) -> np.ndarray:
    """Menu average of every column of a (points x agents) utility matrix."""
    return np.array([integrate(grid, umat[:, i]) for i in range(umat.shape[1])])
