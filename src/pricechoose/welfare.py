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

The ascent's line search is batched: a class block projects all of its
halving steps along the (super)gradient onto the simplex in one call and
evaluates their welfare as one stack, then accepts the largest improving
step, so it takes the same steps as a serial halving search at a fraction
of the Python calls.  ``MenuGrid.payoffs`` turns the (C x R x T) share
stack, one column per prior row, into state-major (m x R x T) payoffs:
the short axes (states, every agent's prior rows) lead and the trial axis
is contiguous, so the max over states and the min over an agent's priors
are elementwise ops on whole planes rather than one short numpy reduce
per row.  They are evaluated by ``UtilityProfile._evaluate``, the entry
behind every utility value (points, grids, the report's checks), so each
trial gets the floats of a one-allocation evaluation.  The tilts that the
next gradient reads come from the accepted trial's row of the kernel's
tilt table, so the refined shares equal the serial search's bit for bit.
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


@dataclass(frozen=True)
class _Evaluation:
    """A share stack's welfare, and what the gradient at a trial reads."""

    values: np.ndarray      # (T,) welfare of each trial
    ce: np.ndarray          # (R x T) certainty equivalent of each prior row
    terms: np.ndarray       # (R x T x m) nu(w) exp(z(w) - max z), unnormalized tilts
    mass: np.ndarray        # (R x T) each row's sum of terms over the states

    def tilts(self, profile: UtilityProfile, k: int) -> np.ndarray:
        """(n x m) each agent's exponentially tilted probability at trial
        ``k``, under its worst-case prior there (lowest index on ties: the
        first of the agent's rows in a stable sort by value)."""
        worst = np.lexsort((self.ce[:, k], profile.owner))[profile.starts]
        return self.terms[worst, k] / self.mass[worst, k][:, None]


def _welfare_values(profile: UtilityProfile, grid: MenuGrid,
                    stack: np.ndarray) -> _Evaluation:
    """Welfare at each trial of a (C x R x T) share stack, entry (c, r, k)
    the class-c share of prior row r's agent in trial k.

    ``grid.payoffs`` gives the (m x R x T) payoffs of every prior row of
    every trial, and the profile's ``_evaluate`` takes them all at once, so
    each row gets the floats ``at_point`` gives it (see the module
    docstring).  The agents' values are added in agent order.
    """
    per_agent, ce, terms, mass = profile._evaluate(grid.payoffs(stack))
    values = np.zeros(ce.shape[1])
    for agent_values in per_agent:
        values += agent_values
    return _Evaluation(values, ce, terms, mass)


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
    return np.add.reduce(np.take(tilt, states, axis=1) * xc, axis=1)


# The line-search steps 2^0 ... 2^-46: every halving step above 1e-14.
LINE_STEPS = np.ldexp(1.0, -np.arange(47))


def _refine_shares(profile: UtilityProfile, grid: MenuGrid,
                   q0: np.ndarray) -> tuple[np.ndarray, float]:
    """Blockwise projected ascent over per-class shares.

    Each class block takes the gradient at the current point and tries
    every step of ``LINE_STEPS`` along it at once: the trial rows are
    projected onto the simplex in one call and their welfare is evaluated
    in one stack.  The largest improving step is accepted, the one a
    halving search from step 1 stops at; when none improves the block keeps
    its shares.  Only improving steps are accepted, so the welfare value
    never decreases and the iterate never leaves the product of simplices.
    The iterate is carried as (C x R) shares, column r the shares of prior
    row r's agent, and a block's trials as a (C x R x T) stack of it.
    """
    owner, starts = profile.owner, profile.starts
    class_states = [np.flatnonzero(grid.class_of_state == c) for c in range(grid.n_classes)]
    class_x = [grid.x[states] for states in class_states]
    steps = LINE_STEPS[:, None]
    q = q0[:, owner]
    stack = np.empty(q.shape + LINE_STEPS.shape)
    ev = _welfare_values(profile, grid, q[:, :, None])
    best, tilt = float(ev.values[0]), ev.tilts(profile, 0)
    for _ in range(MAX_SWEEPS):
        sweep_gain = 0.0
        for c, (states, xc) in enumerate(zip(class_states, class_x)):
            grad = _welfare_grad(tilt, states, xc)
            trials = _project_simplex(q[c, starts] + steps * grad)
            stack[...] = q[:, :, None]
            stack[c] = trials[:, owner].T
            ev = _welfare_values(profile, grid, stack)
            better = ev.values > best
            k = int(better.argmax())
            if better[k]:
                sweep_gain += ev.values[k] - best
                best, q = float(ev.values[k]), stack[:, :, k].copy()
                tilt = ev.tilts(profile, k)
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
