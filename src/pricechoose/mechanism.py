"""Sequential price-and-choose engine on a finite menu.

Players 0..n-2 post price schedules in turn, the last player picks a menu
point, and the posted transfers settle.  With payoffs

    g_k = U_k(xi) - p_k(xi) + p_{k+1}(xi),        p_0 = p_n = 0,

the equalizing schedule at each stage subtracts the menu average from the
continuation welfare, making every follower coalition exactly indifferent
across the menu.  Exact mode resolves that indifference with the welfare
selection: the lowest-index argmax of the menu welfare W, whatever the
posting order.  Perturbed mode adds a small Lipschitz bump

    psi(xi) = iota / (iota + d(xi, target))

at that same target to every posted schedule (re-centered to zero mean),
which makes the terminal choice a strict, selection-free argmax there.

Admissible schedules have zero menu mean, Lipschitz constant at most
(n-1) * cap under the menu metric, and sup norm at most that cap times the
menu diameter.  Every entry point reads its menu data (utility matrix,
cap, averages, W and W_max) from one ``Game`` built by ``calibrate``.

On a grid of one share class every agent's utility, and so every
equalizing schedule, is a sum of level values, and its Lipschitz constant
is exact: ``calibrate`` builds the one-unit transfer table once
(``menu.transfer_lipschitz``), and each agent and tail constant is a lookup
in it.  Multi-class grids and perturbed-mode schedules, whose bump is not a
level function, measure on the canonical pair sample instead.

The ``Game`` keeps every P-sized vector it holds in one float block of
R x P, allocated once when ``calibrate`` evaluates the utility matrix: the
n utility columns (``umat`` is a column-major view of the first n rows),
the welfare row, one scratch row that the report's indifference check and
the first-mover audit rebuild their tails into, and one row for each
distinct equalizing tail of the auction's n posting orders.  A posting order with tails beyond those takes
its rows from another block, added when no free row is left.  A menu run
thus touches one allocation instead of one per vector.

Each row is written in as few passes as its floats allow.  W and every
tail of two or more agents are one ``_tail_values`` sum, whose first add
reads two columns; a one-agent schedule is its column minus that agent's
menu average, one subtract, since the average is the mean the centring
would compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ParameterError, StructuralError
from .menu import MenuGrid, integrate, lipschitz_ratio, tail_lipschitz, transfer_lipschitz
from .utility import UtilityProfile, average_utilities, warn_if_over_declared

ZERO_MEAN_TOL = 1e-9
LIP_SLACK = 1e-9
DEFAULT_IOTA = 0.1
CAP_SAFETY = 1.5
# A grid point whose welfare is this close to W_max ties for the selection.
TIE_TOL = 1e-9


def first_mover_order(n: int, first: int) -> list[int]:
    """Posting order of the auction branch that ``first`` wins: ``first``,
    then every other agent in index order."""
    return [first] + [i for i in range(n) if i != first]


def _auction_tails(n: int) -> set[tuple[int, ...]]:
    """The distinct equalizing tails of the n auction posting orders:
    n + (n - 2)(n + 1) / 2 of them for n >= 2."""
    return {tuple(order[k:]) for order in (first_mover_order(n, w) for w in range(n))
            for k in range(1, n)}


@dataclass(frozen=True)
class Game:
    """One prepared menu: the data every payoff and audit reads.

    Holds the utility matrix, the calibrated Lipschitz data (on one share
    class, the ``transfers`` table every exact constant reads; None on
    more classes), the menu averages Avg_i, the welfare W of every grid
    point (its row sum, added in agent order), and W_max at its
    lowest-index argmax, found once.
    Build it once with ``calibrate`` and pass it along.  Each equalizing
    schedule is built once per tail of the posting order and kept here.

    Every P-sized vector is a row of the block ``calibrate`` builds:
    ``umat`` (a read-only column-major view of the first n rows),
    ``welfare`` (written by ``_tail_values`` over every agent, which adds the
    columns in the order ``umat.sum(axis=1)`` does), the writable
    ``_scratch`` row, and the ``_spare`` rows
    that ``_equalize`` fills with schedules, one per auction tail.
    ``_free_row`` adds another block when a posting order needs more.
    """

    profile: UtilityProfile
    grid: MenuGrid
    umat: np.ndarray = field(repr=False)          # (points x agents)
    agent_lipschitz: np.ndarray = field(repr=False)
    transfers: np.ndarray | None = field(repr=False)
    cap: float
    averages: np.ndarray = field(repr=False)
    welfare: np.ndarray = field(repr=False)
    welfare_max: float
    _welfare_argmax: int = field(repr=False)
    _scratch: np.ndarray = field(repr=False, compare=False)
    _spare: list = field(repr=False, compare=False)
    _schedules: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def n_agents(self) -> int:
        return self.profile.n_agents

    @property
    def stage_cap(self) -> float:
        return (self.n_agents - 1) * self.cap

    def _free_row(self) -> np.ndarray:
        """The next unused schedule row; when none is left, a new block of
        as many rows as the auction tails is added first."""
        if not self._spare:
            self._spare.extend(np.empty((len(_auction_tails(self.n_agents)),
                                         self.grid.n_points)))
        return self._spare.pop(0)


def calibrate(profile: UtilityProfile, grid: MenuGrid, *,
              cap: float | None = None) -> Game:
    """Evaluate the utility matrix once and derive everything else from it.

    On a grid of one share class each agent's Lipschitz constant is exact:
    ``transfer_lipschitz`` builds the game's one (n x n x 3) table from the
    level values the matrix was gathered from, and the agent's constant is
    its one-agent tail's lookup.  On more classes it is estimated on the
    agent's matrix column, where calibration and schedule validation
    measure on the same canonical pair sample.  The default cap is 1.5x the
    largest constant, which leaves the strict headroom the equalizing and
    bump constructions need; override it when a scenario declares its own
    constant, a finite positive number.

    One (n + 2 + T) x P block holds the game's P-sized vectors: ``matrix``
    allocates it and writes the columns into its first n rows, W, the tail
    of every agent, goes into row n, row n + 1 is scratch, and the last T
    rows wait for the schedules of the T distinct tails of the auction's
    posting orders.
    """
    if cap is not None and not 0.0 < cap < math.inf:
        raise ParameterError(f"Lipschitz cap must be finite and positive, got {cap!r}")
    n = profile.n_agents
    umat, levels = profile.matrix(grid, spare_rows=2 + len(_auction_tails(n)),
                                  return_levels=True)
    block = umat.base
    transfers = transfer_lipschitz(grid, levels) if grid.n_classes == 1 else None
    if transfers is None:
        est = np.array([lipschitz_ratio(umat[:, i], grid) for i in range(n)])
    else:
        est = tail_lipschitz(transfers, np.eye(n, dtype=bool))
    for i, u in enumerate(profile.evaluators):
        warn_if_over_declared(u, float(est[i]), i)
    if cap is None:
        cap = CAP_SAFETY * float(est.max())
    averages = average_utilities(grid, umat)
    welfare = _tail_values(umat, range(n), 0, out=block[n])
    target = int(np.argmax(welfare))
    for shared in (umat, est, averages, welfare):
        shared.setflags(write=False)
    return Game(profile=profile, grid=grid, umat=umat, agent_lipschitz=est,
                transfers=transfers, cap=float(cap), averages=averages, welfare=welfare,
                welfare_max=float(welfare[target]), _welfare_argmax=target,
                _scratch=block[n + 1], _spare=list(block[n + 2:]))


@dataclass(frozen=True)
class PriceSchedule:
    """Per-grid-point transfer values with a declared Lipschitz constant."""

    values: np.ndarray = field(repr=False)
    declared_lip: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @cached_property
    def sha256(self) -> str:
        """sha256 of the values' little-endian float64 bytes, hashed in place
        and once per schedule."""
        import hashlib

        raw = np.ascontiguousarray(self.values, dtype="<f8")
        return hashlib.sha256(memoryview(raw)).hexdigest()

    def summary(self, chosen: int, diag: ScheduleDiagnostics) -> dict:
        """Fixed-size record: the vector itself is identified by the sha256 of
        its little-endian float64 bytes and kept outside the report."""
        return {"declared_lip": self.declared_lip,
                "at_chosen": float(self.values[chosen]),
                "sup_norm": diag.sup_norm, "sha256": self.sha256}


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """What ``validate_schedule`` measures on one schedule and grid: the
    residual of its zero menu mean, its Lipschitz figure (exact or
    empirical) and its sup norm.  The report's ``schedule[j].*`` invariants
    hold each figure to its bound, read from the ``Game``:
    ``ZERO_MEAN_TOL``, the stage cap plus ``LIP_SLACK``, and the stage cap
    x diameter plus ``LIP_SLACK``."""

    zero_mean_residual: float
    lipschitz: float
    sup_norm: float


def _sup_norm(values: np.ndarray) -> float:
    """max |v| without a |v| temporary; NaN propagates, and + 0.0 turns a
    -0.0 into the +0.0 that |v| gives."""
    if not values.size:
        return 0.0
    return float(np.maximum(values.max(), -values.min()) + 0.0)


def validate_schedule(schedule: PriceSchedule, grid: MenuGrid,
                      lipschitz: float | None = None) -> ScheduleDiagnostics:
    """Measure the schedule's menu-mean residual, Lipschitz figure and sup
    norm.  ``lipschitz`` is the exact constant of an equalizing schedule on
    a single-class grid (``tail_lipschitz``); without it the figure is the
    empirical ratio on the canonical pair sample."""
    return ScheduleDiagnostics(
        zero_mean_residual=abs(integrate(grid, schedule.values)),
        lipschitz=(lipschitz_ratio(schedule.values, grid) if lipschitz is None
                   else lipschitz),
        sup_norm=_sup_norm(schedule.values),
    )


def _tail_values(umat: np.ndarray, order: list[int] | range, position: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Continuation welfare from a position to the end, in posting order.

    The columns are added one after another, the order in which an axis-0
    sum of their stack adds its rows, and in which numpy sums a row of the
    column-major ``umat``, without building the stack: the first add reads
    two columns, each later one adds one column in place, and a one-agent
    tail is a copy of its column.  The sum is written into ``out`` when
    given, a row of the game's block (W, a schedule row or the scratch
    row), and into a new vector otherwise.
    """
    first, *rest = order[position:]
    if not rest:
        tail = np.empty(len(umat)) if out is None else out
        tail[:] = umat[:, first]
        return tail
    tail = np.add(umat[:, first], umat[:, rest[0]], out=out)
    for j in rest[1:]:
        tail += umat[:, j]
    return tail


def _resolve_order(n: int, order) -> list[int]:
    if order is None:
        return list(range(n))
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise StructuralError(f"order {order} is not a permutation of 0..{n - 1}")
    return order


def _equalize(game: Game, leader: int,
              order: list[int]) -> tuple[PriceSchedule, ScheduleDiagnostics]:
    """Equalizing schedule of ``leader`` plus the diagnostics that admitted it.

    Values are the tail welfare of the agents after the leader minus its
    menu average, which makes the continuation coalition indifferent across
    every menu point; a schedule over the Lipschitz cap raises, since the
    cap is then too small for the declared utilities.  On one share class
    its constant is the tail's exact one, read from the game's transfer
    table; elsewhere it is measured on the pair sample.  The schedule depends
    only on that tail, in posting order, so it is built once per tail and
    memoised on the game: the tail is written into the game's next free
    row and centred there in place.  A one-agent tail's mean is that
    agent's menu average bit for bit, the same pairwise sum of the same
    contiguous column, so its schedule is written in one subtract.
    """
    n = game.n_agents
    if not 0 <= leader <= n - 2:
        raise StructuralError(f"leader {leader} out of range for {n} agents")
    key = tuple(order[leader + 1:])
    if key in game._schedules:
        return game._schedules[key]
    if len(key) == 1:
        values = np.subtract(game.umat[:, key[0]], game.averages[key[0]],
                             out=game._free_row())
    else:
        values = _tail_values(game.umat, order, leader + 1, out=game._free_row())
        values -= integrate(game.grid, values)
    declared = float(sum(game.agent_lipschitz[j] for j in key))
    schedule = PriceSchedule(values=values, declared_lip=declared)
    exact = None
    if game.transfers is not None:
        inside = np.zeros(n, dtype=bool)
        inside[list(key)] = True
        exact = float(tail_lipschitz(game.transfers, inside))
    diag = validate_schedule(schedule, game.grid, exact)
    if not diag.lipschitz <= game.stage_cap + LIP_SLACK:    # NaN raises too
        raise ConfigurationError(
            f"equalizing schedule has Lipschitz constant {diag.lipschitz:.6g} "
            f"over the cap {game.stage_cap:.6g}; the cap is too small for the "
            "declared utilities"
        )
    game._schedules[key] = schedule, diag
    return schedule, diag


def bump_profile(grid: MenuGrid, target: int, iota: float) -> np.ndarray:
    """psi(xi) = iota / (iota + d(xi, target)): 1 at the target, below 1
    elsewhere."""
    if not 0.0 < iota < 1.0:
        raise ParameterError(f"iota must lie in (0, 1), got {iota}")
    psi = grid.distances_to(target)
    psi += iota
    return np.divide(iota, psi, out=psi)


def perturbed_price(base: PriceSchedule, grid: MenuGrid, psi: np.ndarray,
                    epsilon: float, iota: float,
                    stage_cap: float) -> PriceSchedule:
    """Subtract the re-centered bump ``psi`` (from ``bump_profile``) from
    ``base`` so the follower strictly prefers the bump's target.

    Admissible range: 0 < epsilon <= iota * (stage_cap - Lip(base)); the bump
    contributes at most epsilon/iota of extra Lipschitz mass.
    """
    headroom = iota * (stage_cap - base.declared_lip)
    if not (0.0 < epsilon <= headroom + 1e-12):
        raise ParameterError(
            f"epsilon {epsilon!r} outside the admissible range (0, {headroom:.6g}]"
        )
    beta = integrate(grid, psi)
    values = base.values - epsilon * psi + epsilon * beta
    return PriceSchedule(values=values,
                         declared_lip=base.declared_lip + epsilon / iota)


def follower_best_response(tail_values, schedule: PriceSchedule,
                           grid: MenuGrid) -> int:
    """Index of the argmax of continuation value net of the posted schedule.

    Ties resolve to the lowest index.
    """
    tail = np.asarray(tail_values, dtype=float)
    if tail.shape != (grid.n_points,):
        raise StructuralError("tail values must align with grid points")
    return int(np.argmax(tail - schedule.values))


@dataclass(frozen=True)
class Transcript:
    """Full record of one mechanism run: schedules, choice, and payoffs.

    ``diagnostics`` holds each posted schedule's admissibility figures, made
    once when the schedule was built; ``to_dict`` reads only their sup norms
    and summarizes each schedule in a fixed number of fields.
    """

    schedules: tuple[PriceSchedule, ...]
    chosen: int
    payoffs: np.ndarray = field(repr=False)     # indexed by original agent id
    order: tuple[int, ...]
    mode: str                                    # exact | perturbed
    selection_rule: str
    diagnostics: tuple[ScheduleDiagnostics, ...] = field(repr=False)
    target: int | None = None
    epsilon: float | None = None
    iota: float | None = None

    def to_dict(self) -> dict:
        return {
            "schedules": [s.summary(self.chosen, d)
                          for s, d in zip(self.schedules, self.diagnostics)],
            "chosen": self.chosen,
            "payoffs": [float(g) for g in self.payoffs],
            "order": list(self.order),
            "mode": self.mode,
            "selection_rule": self.selection_rule,
            "target": self.target,
            "epsilon": self.epsilon,
            "iota": self.iota,
        }


def _payoffs_from_schedules(umat: np.ndarray, order: list[int],
                            schedules: list[PriceSchedule],
                            chosen: int) -> np.ndarray:
    """Apply g_k = U_k - p_k + p_{k+1} at the chosen point, by posting position."""
    n = len(order)
    paid = [0.0] + [s.values[chosen] for s in schedules] + [0.0]
    payoffs = np.empty(n)
    for pos in range(n):
        payoffs[order[pos]] = umat[chosen, order[pos]] - paid[pos] + paid[pos + 1]
    return payoffs


def default_epsilon(iota: float, stage_cap: float, max_base_lip: float) -> float:
    """Half the admissible bump budget at the tightest stage."""
    return 0.5 * iota * (stage_cap - max_base_lip)


def run_pnc(game: Game, mode: str = "exact", *,
            epsilon: float | None = None, iota: float = DEFAULT_IOTA,
            order=None) -> Transcript:
    """Simulate the equilibrium path of the sequential mechanism.

    Exact mode posts the equalizing schedule at every stage, which leaves the
    last mover indifferent across the menu, and always resolves that
    indifference with the welfare selection: the lowest-index argmax of
    ``game.welfare``, the same point for every posting order.  The chosen
    point attains W_max, every non-first mover collects exactly its menu
    average, and the first mover collects the remainder.

    Perturbed mode additionally bends every posted schedule toward that
    point with one shared (epsilon, iota) bump, so the terminal choice is a
    strict argmax with no selection rule; middle movers' bumps cancel and
    the epsilon cost falls on the first mover.
    """
    n = game.n_agents
    if n < 2:
        raise StructuralError("the mechanism needs at least two agents")
    if mode not in ("exact", "perturbed"):
        raise ParameterError(f"unknown mode {mode!r}")
    order = _resolve_order(n, order)
    umat, grid, stage_cap = game.umat, game.grid, game.stage_cap

    bases, diagnostics = zip(*(_equalize(game, leader, order)
                               for leader in range(n - 1)))
    target = game._welfare_argmax

    if mode == "exact":
        schedules = bases
        chosen = target
        rule = "spne-welfare-argmax"
        eps_used = iota_used = None
        target_used = None
    else:
        if grid.n_points == 1:
            # The re-centered bump is identically 0 on one point and the
            # choice is forced, so the bases are posted unbent.
            schedules, epsilon = bases, 0.0
        else:
            if epsilon is None:
                epsilon = default_epsilon(iota, stage_cap,
                                          max(s.declared_lip for s in bases))
                if epsilon <= 0.0:
                    raise ParameterError(
                        "no bump headroom: the Lipschitz cap leaves no room below "
                        f"{stage_cap:.6g}"
                    )
            psi = bump_profile(grid, target, iota)
            schedules = [perturbed_price(b, grid, psi, epsilon, iota, stage_cap)
                         for b in bases]
            diagnostics = [validate_schedule(s, grid) for s in schedules]
        chosen = follower_best_response(
            _tail_values(umat, order, n - 1), schedules[-1], grid)
        rule = "perturbed-net-argmax"
        if chosen != target:
            raise ConfigurationError(
                f"perturbed choice {chosen} missed the target {target}; "
                "epsilon is too small to break indifference on this grid"
            )
        eps_used, iota_used, target_used = float(epsilon), float(iota), target

    payoffs = _payoffs_from_schedules(umat, order, schedules, chosen)
    return Transcript(schedules=tuple(schedules), chosen=chosen, payoffs=payoffs,
                      order=tuple(order), mode=mode, selection_rule=rule,
                      diagnostics=tuple(diagnostics), target=target_used, epsilon=eps_used, iota=iota_used)


@dataclass(frozen=True)
class DeviationAudit:
    """Certified bound on a first mover's gain from deviating; the contract
    is ``max_gain`` <= 1e-9.

    ``welfare_margin`` and ``indifference_margin`` are the two slack terms
    of the bound at the equilibrium schedule, and ``ties`` counts the grid
    points whose welfare is within ``TIE_TOL`` of W_max: the selection's
    tie set.
    """

    max_gain: float
    equilibrium_payoff: float
    welfare_margin: float
    indifference_margin: float
    ties: int

    def to_dict(self) -> dict:
        return {
            "max_gain": self.max_gain,
            "equilibrium_payoff": self.equilibrium_payoff,
            "welfare_margin": self.welfare_margin,
            "indifference_margin": self.indifference_margin,
            "ties": self.ties,
        }


def audit_first_mover_bound(game: Game, transcript: Transcript) -> DeviationAudit:
    """Largest gain any zero-mean first-mover schedule can reach, in closed
    form.

    Against a schedule p the continuation picks k* = argmax(tail_1 - p),
    where tail_1 is the welfare of every later mover, so the first mover
    collects U_1(k*) + p(k*) = W(k*) - max(tail_1 - p).  Since
    W(k*) <= W_max and max(tail_1 - p) >= E[tail_1 - p] = E[tail_1],

        gain(p) = max_gain - (W_max - W(k*))
                           - (max(tail_1 - p) - E[tail_1 - p])
                <= max_gain = W_max - E[tail_1] - g_1,

    for every p with E[p] = 0, whatever its Lipschitz constant, so the
    bound covers every admissible deviation.  Both margins are recorded at
    the equilibrium schedule, where they vanish up to rounding.
    """
    if transcript.mode != "exact":
        raise ParameterError("the deviation audit runs on exact-mode transcripts")
    order = list(transcript.order)
    umat, grid = game.umat, game.grid
    equilibrium = float(transcript.payoffs[order[0]])
    # The scratch row holds tail_1, then, once its mean is read, the net
    # tail_1 - p in place.
    net = _tail_values(umat, order, 1, out=game._scratch)
    tail1_mean = integrate(grid, net)
    net -= transcript.schedules[0].values
    welfare, wmax = game.welfare, game.welfare_max
    return DeviationAudit(
        max_gain=wmax - tail1_mean - equilibrium,
        equilibrium_payoff=equilibrium,
        welfare_margin=wmax - float(welfare[transcript.chosen]),
        indifference_margin=float(net.max()) - integrate(grid, net),
        ties=int(np.count_nonzero(welfare >= wmax - TIE_TOL)))
