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

Evaluators are plain data; a ``UtilityProfile`` evaluates them.  It stacks
its agents' prior rows once, and its one entry, ``_evaluate``, computes every
certainty equivalent (an allocation stack, a point, a grid's level tuples,
the share refinement's trials): one ``_tilted_ce`` call over the stacked
rows and a minimum over each agent's own rows.  The kernel gives the same
floats for the same allocation whatever else it evaluates alongside, so a
grid value is the value of its point.  On a menu grid an agent's random
variable is fixed by its share level in each state class, one of L levels
j / r, so ``matrix`` evaluates the L^C level tuples and gathers the values
onto the K^C grid points.  ``evaluate``, ``evaluate_grid`` and the other
one-agent functions run a one-evaluator profile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError, ValidationError
from .menu import MenuGrid, integrate, lipschitz_ratio
from .space import PROB_TOL

# Most (state, prior row, level tuple) entries ``UtilityProfile.matrix``
# evaluates at once.
GRID_BLOCK = 2 ** 16


def _tilted_ce(z: np.ndarray, priors: np.ndarray, log_mass: np.ndarray,
               neg_gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certainty equivalents of an (m x R x T) exponent table -gamma xi(w),
    states first, under the prior rows ``priors`` (R x m).  ``z`` is
    overwritten; ``log_mass`` is the log of each row's own sum and
    ``neg_gamma`` each row's -gamma, both (R x 1).  The max and
    the exponentials are taken plane by plane, and the prior-weighted terms
    are written transposed into a contiguous (R x T x m) table whose last
    axis is summed: numpy adds a contiguous axis in 8-way pairwise partial
    sums from 8 entries on, so each (row, trial) gets the floats of a
    one-allocation evaluation.  Returns the (R x T) values, the tilts
    nu(w) exp(z(w) - max z) and their (R x T) sums.
    """
    a = np.maximum.reduce(z, axis=0)
    z -= a
    np.exp(z, out=z)
    terms = np.empty((len(priors), z.shape[2], z.shape[0]))
    np.multiply(z, priors.T[:, :, None], out=terms.transpose(2, 0, 1))
    mass = np.add.reduce(terms, axis=-1)
    ce = np.log(mass)
    ce += a
    ce -= log_mass
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
        # Every broken rule, all at once: each prior finite, strictly
        # positive and summing to 1, the reference probability among the
        # priors, and a declared Lipschitz bound positive.
        errors = []
        for j, row in enumerate(priors):
            if not np.all(np.isfinite(row)):
                errors.append(f"priors[{j}] has non-finite entries")
            if np.any(row <= 0.0):
                errors.append(f"priors[{j}] must be strictly positive")
            total = float(row.sum())
            if abs(total - 1.0) > PROB_TOL:
                errors.append(f"priors[{j}] sums to {total!r}, not 1")
        if not np.any(np.all(np.abs(priors - reference) <= PROB_TOL, axis=1)):
            errors.append("the reference probability must be one of the priors")
        if self.lip_bound is not None and not (self.lip_bound > 0.0):
            errors.append("lip_bound must be positive when given "
                          "(a declared Lipschitz bound)")
        if errors:
            raise ValidationError(errors)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "reference", reference)


@dataclass(frozen=True)
class MaxMinUtility:
    """Worst-case entropic certainty equivalent over a credal set: the risk
    aversion and the priors.  A ``UtilityProfile`` evaluates it."""

    gamma: float
    credal: CredalSet

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < math.inf:
            raise ValidationError(f"gamma must be a positive number, got {self.gamma!r}")


def EntropicUtility(gamma: float, probs) -> MaxMinUtility:
    """Entropic certainty equivalent under the one prior ``probs``: the
    max-min utility over the credal set {probs}."""
    probs = np.asarray(probs, dtype=float)
    return MaxMinUtility(gamma, CredalSet(probs[None], probs))


@dataclass(frozen=True)
class UtilityProfile:
    """One monetary utility evaluator per agent, and their priors stacked.

    Every evaluation goes through ``_evaluate``: each caller gathers the
    state-major payoffs of the stacked prior rows, and one ``_tilted_ce``
    call and a minimum over each agent's own rows give the agents' values.
    """

    evaluators: tuple[MaxMinUtility, ...]
    priors: np.ndarray = field(init=False, repr=False, compare=False)     # (R x m)
    log_mass: np.ndarray = field(init=False, repr=False, compare=False)   # (R x 1)
    neg_gamma: np.ndarray = field(init=False, repr=False, compare=False)  # (R x 1)
    owner: np.ndarray = field(init=False, repr=False, compare=False)      # (R,) agent of row r
    starts: np.ndarray = field(init=False, repr=False, compare=False)     # (n,) agent i's first row

    def __post_init__(self) -> None:
        if not self.evaluators:
            raise ValidationError("profile needs at least one evaluator")
        object.__setattr__(self, "evaluators", tuple(self.evaluators))
        sizes = [len(u.credal.priors) for u in self.evaluators]
        priors = np.concatenate([u.credal.priors for u in self.evaluators])
        for name, value in (
                ("priors", priors),
                ("log_mass", np.log(np.add.reduce(priors, axis=-1))[:, None]),
                ("neg_gamma", -np.repeat([u.gamma for u in self.evaluators], sizes)[:, None]),
                ("owner", np.repeat(np.arange(len(sizes)), sizes)),
                ("starts", np.cumsum([0] + sizes[:-1]))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_agents(self) -> int:
        return len(self.evaluators)

    def _evaluate(self, payoff: np.ndarray):
        """Values of an (m x R x T) state-major payoff table, row r read by
        prior row r; an (m x 1 x T) table is shared by every row.  Returns
        the agents' (n x T) values, each the minimum over its own rows, and
        ``_tilted_ce``'s (ce, terms, mass) of every row."""
        z = np.multiply(payoff, self.neg_gamma, order="C")
        ce, terms, mass = _tilted_ce(z, self.priors, self.log_mass, self.neg_gamma)
        return np.minimum.reduceat(ce, self.starts, axis=0), ce, terms, mass

    def _checked(self, xi, stacked: bool) -> np.ndarray:
        """``xi`` as floats: one (n x m) allocation, or a stack of them."""
        xi = np.asarray(xi, dtype=float)
        shape = (self.n_agents, self.priors.shape[1])
        if (xi.shape[-2:] if stacked else xi.shape) != shape:
            raise StructuralError(f"allocation must be (agents x states) {shape}, got {xi.shape}")
        if np.isnan(xi).any():
            raise ValidationError("allocation contains NaN entries")
        return xi

    def values(self, xi) -> np.ndarray:
        """(..., n) every agent's value at each allocation of a (..., n x m)
        stack."""
        xi = self._checked(xi, stacked=True)
        rows = xi.reshape((-1,) + xi.shape[-2:])[:, self.owner]
        return self._evaluate(rows.transpose(2, 1, 0))[0].T.reshape(xi.shape[:-1])

    def at_point(self, xi: np.ndarray) -> np.ndarray:
        """(n,) every agent's value at the one (n x m) allocation ``xi``."""
        xi = self._checked(xi, stacked=False)
        return self._evaluate(xi[self.owner].T[:, :, None])[0][:, 0]

    def matrix(self, grid: MenuGrid, spare_rows: int = 0) -> np.ndarray:
        """(points x agents) utility values over a whole grid, column-major:
        each agent's column is contiguous, as the column scans read it.
        The columns are the first rows of one ((agents + spare_rows) x
        points) block, the matrix's ``base``: ``calibrate`` keeps the game's
        other P-sized vectors in the rows below them."""
        if grid.n_agents != self.n_agents:
            raise StructuralError(
                f"grid built for {grid.n_agents} agents, profile has {self.n_agents}"
            )
        return self._grid_values(grid, range(self.n_agents), spare_rows)[:self.n_agents].T

    def _grid_values(self, grid: MenuGrid, agents, spare_rows: int = 0) -> np.ndarray:
        """(len(agents) + spare_rows) x P: row j is evaluator j's utility at
        every grid point, read at agent ``agents[j]``'s share levels, and the
        ``spare_rows`` after them are left unwritten.  The rows are allocated
        once the level tuples are evaluated, so the kernel's tables never sit
        on top of them.

        An agent's random variable at a point is fixed by its share level in
        each class, one of the L levels ``grid._share_levels`` reads off the
        integer table, and the levels are the same for every agent.  So the
        L^C level tuples are evaluated once for all stacked rows, and each
        agent's values are gathered onto the P = K^C points by its own level
        index, one class axis at a time from the last to the first: the
        first class axis is gathered last, straight into the row.  Tuple t
        takes level t // L^(C-1-c) % L in class c, and
        ``grid.payoffs`` turns each block's (C x tuples) levels into its
        payoffs.  The tuples go through ``_evaluate`` in blocks of at most
        ``GRID_BLOCK`` (state, row, tuple) entries, so every point's value is
        the float ``at_point`` gives at that point.
        """
        levels, index = grid._share_levels()
        size, classes = len(levels), grid.n_classes
        places = (size ** np.arange(classes - 1, -1, -1))[:, None]
        tuple_values = np.empty((self.n_agents, size ** classes))
        step = max(1, GRID_BLOCK // (len(grid.x) * len(self.priors)))
        for lo in range(0, tuple_values.shape[1], step):
            t = np.arange(lo, min(lo + step, tuple_values.shape[1]))
            payoff = grid.payoffs(levels[t // places % size])
            tuple_values[:, lo:lo + step] = self._evaluate(payoff[:, None])[0]
        out = np.empty((len(agents) + spare_rows, grid.n_points))
        # The last take, along the first class axis, writes the row itself:
        # every index is in range, and mode="clip" keeps numpy from
        # buffering ``out``.  The later axes are already gathered by then,
        # so it copies contiguous K^(C-1) slabs rather than single entries.
        direct = classes > 0 and grid.n_agents > 1
        for j, agent in enumerate(agents):
            values = tuple_values[j].reshape((size,) * classes)
            for axis in range(classes - 1, 0 if direct else -1, -1):
                values = values.take(index[:, agent], axis=axis)
            if direct:
                values.take(index[:, agent], axis=0, mode="clip",
                            out=out[j].reshape((len(index),) * classes))
            else:
                out[j] = values.reshape(grid.n_points)
        return out


def evaluate(u: MaxMinUtility, xi, agent: int) -> float:
    """Agent's certainty equivalent of its row of the (n x m) allocation."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or not 0 <= agent < len(xi):
        raise StructuralError(f"allocation must be 2-d with a row {agent}, got shape {xi.shape}")
    return float(UtilityProfile((u,)).at_point(xi[agent, None])[0])


def evaluate_grid(u: MaxMinUtility, grid: MenuGrid, agent: int) -> np.ndarray:
    """The utility ``u`` gives ``agent`` at every grid point: a
    ``UtilityProfile.matrix`` column, for one evaluator."""
    return UtilityProfile((u,))._grid_values(grid, [agent])[0]


def check_cash_invariance(u: MaxMinUtility, xi, agent: int, c: float) -> float:
    """Residual |U(xi + c) - U(xi) - c|; the contract is <= 1e-9."""
    xi = np.asarray(xi, dtype=float)
    return abs(evaluate(u, xi + c, agent) - evaluate(u, xi, agent) - c)


def estimate_lipschitz(u: MaxMinUtility, grid: MenuGrid, agent: int) -> float:
    """Empirical Lipschitz constant of the utility under the menu metric.

    Exhaustive over all point pairs below the size threshold, seeded random
    pairs above it; zero-distance pairs are skipped.  A standalone estimate
    for one agent: ``calibrate`` sets the mechanism's cap from the utility
    matrix's columns, with the same ``lipschitz_ratio``.
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
