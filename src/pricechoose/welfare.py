"""The welfare maximizer, the proportional closed form for single-prior
agents, and a brute-force Pareto scan.

The optimizer is two-tier: an exhaustive scan over the menu grid (which
doubles as the brute-force oracle), then one candidate off the grid that
replaces the grid winner when its welfare is strictly greater.  When every
agent's credal set is the same single prior, the candidate is the
proportional closed form (Borch 1962; Barrieu & El Karoui 2005), the
exact optimum over every class-share profile: each agent takes the share
w_i = (1/gamma_i) / sum_j (1/gamma_j) of every state.  Any other profile
refines the grid winner by coordinate ascent over per-class shares with
simplex projection.  Utilities are concave and the share space is a
product of simplices, so local ascent from the grid winner is enough at
desk scale.  Either candidate's allocation is built as a grid point is,
by ``MenuGrid.allocation``.

The ascent's line search tries the full step alone first: a class block
projects it onto the simplex with ``_project_row``, evaluates its welfare
as a one-trial stack and accepts it when it improves, as most blocks do.
Only when it does not are the other halving steps projected in one call and
evaluated as one stack, and the largest improving one is accepted.  The
full step is the largest, so either way the block takes the step a serial
halving search from step 1 stops at.  ``MenuGrid.payoffs`` turns a
(C x R x T) share stack, one column per prior row, into state-major
(m x R x T) payoffs: the short axes (states, every agent's prior rows) lead
and the trial axis is contiguous, so the max over states and the min over
an agent's priors are elementwise ops on whole planes rather than one short
numpy reduce per row.  They are evaluated by ``UtilityProfile._evaluate``,
the entry behind every utility value (points, grids, the report's checks),
so each trial gets the floats of a one-allocation evaluation, alone or in a stack,
and ``_project_row`` gives a row the floats ``_project_simplex`` gives it
in any stack.  The tilts that the next gradient reads come from the
accepted trial's row of the kernel's tilt table, so the refined shares
equal the serial search's bit for bit: the lone full step moves no byte.
The Pareto scan is a brute-force dominance test (the maxima-of-vectors
setting of Kung, Luccio & Preparata 1975).  It reads the utility matrix in
blocks and answers two questions: does a row dominate the allocation, and
does a row's welfare beat the allocation's by more than ``WELFARE_TOL``?  It
stops at the first block by which both answers are yes; only a "no" needs
every row.  So it never forms the grid's welfare maximum: the allocation
attains it exactly when no row beats it, and a NaN welfare row counts as
beating every allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StructuralError, UnsupportedProfileError
from .mechanism import Game
from .menu import MenuGrid, validate_feasible
from .utility import UtilityProfile

PARETO_SLACK = 1e-12
# Utility-matrix rows per block of the Pareto scan, which stops at the first
# block that settles both of its verdicts.
PARETO_BLOCK = 8192
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
    # maximize_welfare: the common-prior closed form, when the profile has one
    closed_form: WelfareResult | None = field(default=None, repr=False)

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


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex of a vector (n,),
    or of each row of a stack (..., n) on its own, with the same floating
    point operations a single row gets."""
    n = v.shape[-1]
    rows = v.reshape(-1, n)
    u = rows.copy()
    u.sort(axis=-1)
    u = u[:, ::-1]
    css = u.cumsum(axis=-1)
    positive = u + (1.0 - css) / np.arange(1, n + 1) > 0
    # rho + 1, rho being the last index where ``positive`` holds
    count = n - positive[:, ::-1].argmax(axis=-1)
    lam = (1.0 - css[np.arange(len(rows)), count - 1]) / count
    return np.maximum(v + lam.reshape(v.shape[:-1] + (1,)), 0.0)


def _project_row(v: list[float]) -> list[float]:
    """``_project_simplex`` of one row without NaN, in Python floats: the
    same IEEE operations in the same order, so the same floats, without the
    dozen numpy calls, which cost as much for one row as for a stack.
    ``total`` is the cumulative sum from 0.0 and ``shift`` is (1 - css_k) / k;
    lam is the shift at the last k where u_k + shift > 0, or at k = n when
    there is none, as numpy's ``count`` falls back.  Tied entries may sort
    in another order and a sum may start from +0.0: that only moves the sign
    of a zero partial sum, which 1 - total erases."""
    total, lam = 0.0, None
    for k, a in enumerate(sorted(v, reverse=True), 1):
        total += a
        shift = (1.0 - total) / k
        if a + shift > 0.0:
            lam = shift
    if lam is None:
        lam = shift
    # np.maximum(s, 0.0): s when s > 0 or NaN, else +0.0.
    return [0.0 if s <= 0.0 else s for s in [a + lam for a in v]]


def _welfare_values(profile: UtilityProfile, grid: MenuGrid, stack: np.ndarray):
    """Welfare at each trial of a (C x R x T) share stack, entry (c, r, k)
    the class-c share of prior row r's agent in trial k: the (T,) values,
    then the (R x T) certainty equivalent of each prior row, the (R x T x m)
    unnormalized tilts nu(w) exp(z(w) - max z) and their (R x T) sums, as
    ``_tilts`` reads them.

    ``grid.payoffs`` gives the (m x R x T) payoffs of every prior row of
    every trial, and the profile's ``_evaluate`` takes them all at once, so
    each row gets the floats ``at_point`` gives it (see the module
    docstring).  The agents' values are added in agent order.
    """
    per_agent, ce, terms, mass = profile._evaluate(grid.payoffs(stack))
    values = np.zeros(ce.shape[1])
    for agent_values in per_agent:
        values += agent_values
    return values, ce, terms, mass


def _welfare_at(profile: UtilityProfile, grid: MenuGrid, q: np.ndarray):
    """``_welfare_values`` of the one (C x R) share array ``q``, its value
    a Python float: the agents' values are added from 0.0 in agent order,
    the floats the stack's sum gives, without its per-agent numpy calls."""
    per_agent, *table = profile._evaluate(grid.payoffs(q[:, :, None]))
    value = 0.0
    for agent_value in per_agent[:, 0].tolist():
        value += agent_value
    return value, *table


def _tilts(profile: UtilityProfile, ce: np.ndarray, terms: np.ndarray,
           mass: np.ndarray, k: int) -> np.ndarray:
    """(n x m) each agent's exponentially tilted probability at trial ``k``
    of a ``_welfare_values`` table, under its worst-case prior there (lowest
    index on ties: the first of the agent's rows in a stable sort by value)."""
    worst = np.lexsort((ce[:, k], profile.owner))[profile.starts]
    return terms[worst, k] / mass[worst, k][:, None]


def _welfare_grad(tilt: np.ndarray, states: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """(Super)gradient of welfare in one class's shares, from each agent's
    tilt at the current shares (``_Evaluation.tilts``), the class's
    ``states`` and X on them, ``xc``.

    The gradient of an entropic certainty equivalent in the payoff is the
    exponentially tilted probability t_i; for a max-min evaluator the tilt
    under the worst-case prior is a supergradient.
    """
    # numpy's own pairwise sum along each contiguous row, not a BLAS dot,
    # whose rounding depends on the kernel the machine dispatches.
    return np.add.reduce(tilt.take(states, axis=1) * xc, axis=1)


# The line-search steps 2^0 ... 2^-46: every halving step above 1e-14.
LINE_STEPS = np.ldexp(1.0, -np.arange(47))


def _refine_shares(profile: UtilityProfile, grid: MenuGrid,
                   q0: np.ndarray) -> tuple[np.ndarray, float]:
    """Blockwise projected ascent over per-class shares.

    Each class block takes the gradient at the current point and tries the
    full step along it alone: its row is projected by ``_project_row`` and
    evaluated as a one-trial stack, and it is accepted when it improves.
    Otherwise the other steps of ``LINE_STEPS`` are tried at once: their
    rows are projected onto the simplex in one call and their welfare is
    evaluated in one stack, and the largest improving step is accepted.
    Either way the block takes the step a halving search from step 1 stops
    at, with the same floats (see the module docstring); when none improves
    the block keeps its shares.  Only improving steps are accepted, so the
    welfare value never decreases, and in real arithmetic the iterate never
    leaves the product of simplices; in floats a class's shares can miss 1
    by the rounding of a long step, which ``maximize_welfare`` removes.
    The iterate is carried as (C x R) shares, column r the shares of prior
    row r's agent, and a block's trials as a (C x R x T) stack of it.
    """
    owner, starts = profile.owner, profile.starts
    owners = owner.tolist()
    class_states = [np.flatnonzero(grid.class_of_state == c) for c in range(grid.n_classes)]
    class_x = [grid.x[states] for states in class_states]
    ladder = LINE_STEPS[1:, None]
    q = q0[:, owner]
    stack = np.empty(q.shape + (len(ladder),))
    best, *table = _welfare_at(profile, grid, q)
    tilt = _tilts(profile, *table, 0)
    for _ in range(MAX_SWEEPS):
        sweep_gain = 0.0
        for c, (states, xc) in enumerate(zip(class_states, class_x)):
            grad = _welfare_grad(tilt, states, xc)
            # The full step alone (1.0 * grad is grad), then the ladder.
            full = _project_row((q[c, starts] + grad).tolist())
            trial = q.copy()
            trial[c] = [full[i] for i in owners]
            value, *table = _welfare_at(profile, grid, trial)
            k = 0
            if not value > best:
                stack[...] = q[:, :, None]
                stack[c] = _project_simplex(q[c, starts] + ladder * grad)[:, owner].T
                values, *table = _welfare_values(profile, grid, stack)
                better = values > best
                k = int(better.argmax())
                if not better[k]:
                    continue
                value, trial = float(values[k]), stack[:, :, k].copy()
            sweep_gain += value - best
            best, q, tilt = value, trial, _tilts(profile, *table, k)
        if sweep_gain < REFINE_TOL:
            break
    return q[:, starts], best


def _common_prior(profile: UtilityProfile) -> np.ndarray | None:
    """The prior of a profile whose agents all hold the same single prior,
    else None."""
    priors = profile.priors
    return priors[0] if len(priors) == profile.n_agents and (priors == priors[0]).all() else None


def maximize_welfare(game: Game) -> WelfareResult:
    """Exhaustive grid argmax of welfare, then one candidate off the grid.

    Reads the utility matrix and welfare vector the ``Game`` holds; ties
    resolve to the lowest enumeration index.  When every agent holds the
    same single prior the candidate is the proportional closed form,
    its shares tiled over the classes; on any other profile it is the grid
    winner refined by ``_refine_shares``.  The candidate's allocation is
    built as a grid point is (``MenuGrid.allocation``), and it replaces the
    grid winner only when its welfare, evaluated there, is strictly greater.
    An accepted candidate is re-validated against the feasibility
    invariants before it is returned.  The closed form, when built, rides
    along as ``closed_form``, also on a grid without a class, which has no
    candidate.
    """
    profile, grid = game.profile, game.grid
    closed = None if _common_prior(profile) is None else closed_form_entropic(profile, grid.x)
    idx = game._welfare_argmax
    result = WelfareResult(value=float(game.umat[idx].sum()), per_agent=game.umat[idx],
                           allocation=grid.point(idx), index=idx,
                           shares=grid.share(idx) if grid.n_classes else None,
                           closed_form=closed)
    if not grid.n_classes:
        return result

    if closed is None:
        q, _ = _refine_shares(profile, grid, result.shares)
        # A projection onto the simplex adds its shift to steps of ~|X|
        # times the step, which cancels: at |X| ~ 1e6 an accepted trial's
        # class shares miss 1 by ~1e-10, and the allocation misses X by
        # more than the feasibility tolerance.  One division puts every
        # class back within a few ulps of 1.
        q = q / q.sum(axis=1, keepdims=True)
        method, lam = "refined", None
    else:
        q, lam = np.tile(closed.shares, (grid.n_classes, 1)), closed.lam
        method = "closed_form"
    allocation = grid.allocation(q)
    per_agent = profile.at_point(allocation)
    value = float(per_agent.sum())
    if not value > game.welfare_max:
        return result
    if not validate_feasible(allocation, grid.x).ok:
        raise ConfigurationError(f"{method} point left the feasible set")
    return WelfareResult(value=value, per_agent=per_agent, allocation=allocation,
                         method=method, index=idx, shares=q, lam=lam,
                         closed_form=closed)


def closed_form_entropic(profile: UtilityProfile, x) -> WelfareResult:
    """Proportional optimum for single-prior entropic agents.

    Weights are reciprocal risk aversions normalized to the simplex,
    w_i = (1/gamma_i) / sum_j (1/gamma_j); every agent then shares the same
    exponential tilt with rate lam = (sum_j 1/gamma_j)^-1, and gamma_i * w_i
    = lam for all i (checked to a few ulps of lam, the rounding error of the
    three operations that form gamma_i * w_i).  The tilt is taken under the
    agents' common prior; without one it raises ``UnsupportedProfileError``.
    """
    probs = _common_prior(profile)
    if probs is None:
        raise UnsupportedProfileError("closed form needs every agent on the same single prior")
    gammas = np.array([u.gamma for u in profile.evaluators])
    x = np.asarray(x, dtype=float)

    inv = 1.0 / gammas
    lam = 1.0 / inv.sum()
    w = inv * lam
    mismatch = np.abs(gammas * w - lam).max()
    if mismatch > 4.0 * np.finfo(float).eps * lam:
        raise ConfigurationError(
            f"tilt-rate identity gamma_i * w_i = lam off by {mismatch:.3g}"
        )

    allocation = np.outer(w, x)
    per_agent = profile.at_point(allocation)
    z = -lam * x
    z = z - z.max()
    tilt = probs * np.exp(z)
    tilt = tilt / tilt.sum()
    return WelfareResult(value=float(per_agent.sum()), per_agent=per_agent,
                         allocation=allocation, method="closed_form",
                         index=None, shares=w[None, :], lam=float(lam), tilt=tilt)


@dataclass(frozen=True)
class ParetoCheck:
    """Brute-force dominance scan of one allocation against a grid: whether
    a grid row dominates it, whether it attains the grid's welfare maximum
    within ``WELFARE_TOL``, and how many rows the scan read to settle both."""

    optimal: bool                      # no grid point dominates it
    dominating_index: int | None       # the lowest dominating row
    welfare_value: float
    attains_max: bool                  # no row's welfare beats it by WELFARE_TOL
    rows_scanned: int                  # rows read before both verdicts were settled


def pareto_check(profile: UtilityProfile, grid: MenuGrid, xi, *,
                 umat: np.ndarray | None = None) -> ParetoCheck:
    """Scan the grid for a point that weakly improves every agent and
    strictly improves at least one, with slack separating ties from noise.

    Also reports whether the allocation's total welfare attains the grid
    maximum, so the optimality-equals-maximality equivalence can be checked
    in both directions on the discretization.

    ``umat`` has one column per agent and at least one row per grid point;
    rows beyond the grid's are scanned too.  It is read in blocks of
    ``PARETO_BLOCK`` rows, all agents at once, and each block answers two
    questions until each has its answer:

    - does a row dominate the allocation?  The first block that holds a
      dominating row gives ``dominating_index``, the lowest one;
    - does a row beat the allocation's welfare w?  Row k's welfare W_k is
      summed column by column in agent order, and it beats w unless
      fl(W_k - WELFARE_TOL) <= w.  Rounding is monotone, so ``attains_max``
      is exactly w >= fl(max_k W_k - WELFARE_TOL); a NaN W_k beats every w.

    The scan stops after the first block by which both answers are yes, and
    ``rows_scanned`` counts the rows read until then; when either answer is
    no, every row is read.
    """
    if umat is None:
        umat = profile.matrix(grid)
    if umat.ndim != 2 or umat.shape[1] != profile.n_agents:
        raise StructuralError(f"umat must have one column per agent, got shape {umat.shape}")
    if umat.shape[0] < grid.n_points:
        raise StructuralError(
            f"umat must have a row per grid point, got {umat.shape[0]} rows "
            f"for {grid.n_points} points"
        )
    u0 = profile.at_point(xi)
    wval = float(u0.sum())
    cols, n_rows = umat.T, umat.shape[0]
    lower, upper = (u0 - PARETO_SLACK)[:, None], (u0 + PARETO_SLACK)[:, None]
    first, beaten, scanned = None, False, n_rows
    for lo in range(0, n_rows, PARETO_BLOCK):
        block = cols[:, lo:lo + PARETO_BLOCK]
        if first is None:
            dominating = (block >= lower).all(axis=0) & (block > upper).any(axis=0)
            if dominating.any():
                first = lo + int(dominating.argmax())
        if not beaten:
            totals = block[0] + 0.0
            for col in block[1:]:
                totals += col
            totals -= WELFARE_TOL
            beaten = not (totals <= wval).all()
        if first is not None and beaten:
            scanned = min(lo + PARETO_BLOCK, n_rows)
            break
    return ParetoCheck(optimal=first is None, dominating_index=first, welfare_value=wval,
                       attains_max=not beaten, rows_scanned=scanned)
