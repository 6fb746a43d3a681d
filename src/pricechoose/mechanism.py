"""Sequential price-and-choose engine on a finite menu.

Players 0..n-2 post price schedules in turn, the last player picks a menu
point, and the posted transfers settle.  With payoffs

    g_k = U_k(xi) - p_k(xi) + p_{k+1}(xi),        p_0 = p_n = 0,

the equalizing schedule at each stage subtracts the menu average from the
continuation welfare, making every follower coalition exactly indifferent
across the menu.  Exact mode resolves that indifference with the
welfare-maximizing selection; perturbed mode adds a small Lipschitz bump

    psi(xi) = iota / (iota + d(xi, target))

to every posted schedule (re-centered to zero mean), which makes the
terminal choice a strict, selection-free argmax at the target.

Admissible schedules have zero menu mean, Lipschitz constant at most
(n-1) * cap under the menu metric, and sup norm at most that cap times the
menu diameter.  Every entry point reads its menu data (utility matrix,
cap, averages, W_max) from one ``Game`` built by ``calibrate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParameterError, StructuralError
from .menu import PAIR_SEED, MenuGrid, integrate, lipschitz_ratio
from .utility import UtilityProfile, average_utilities, warn_if_over_declared

ZERO_MEAN_TOL = 1e-9
LIP_SLACK = 1e-9
DEFAULT_IOTA = 0.1
CAP_SAFETY = 1.5

_DEVIATION_SEED = 86_01      # first-mover deviation sampling


@dataclass(frozen=True)
class Game:
    """One prepared menu: the data every payoff and audit reads.

    Holds the utility matrix, the calibrated Lipschitz data, the menu
    averages Avg_i and the grid welfare maximum W_max.  Build it once with
    ``calibrate`` and pass it along.
    """

    profile: UtilityProfile
    grid: MenuGrid
    umat: np.ndarray = field(repr=False)          # (points x agents)
    agent_lipschitz: np.ndarray = field(repr=False)
    cap: float
    averages: np.ndarray = field(repr=False)
    welfare_max: float

    @property
    def n_agents(self) -> int:
        return self.profile.n_agents

    @property
    def stage_cap(self) -> float:
        return (self.n_agents - 1) * self.cap


def calibrate(profile: UtilityProfile, grid: MenuGrid, *,
              cap: float | None = None, seed: int = PAIR_SEED) -> Game:
    """Evaluate the utility matrix once and derive everything else from it.

    Each agent's Lipschitz estimate is measured on its matrix column.  The
    default cap is 1.5x the largest estimate, which leaves the strict
    headroom the equalizing and bump constructions need; override it when a
    scenario declares its own constant.  The default seed pins the canonical
    pair sample so calibration and schedule validation measure alike.
    """
    if cap is not None and cap <= 0.0:
        raise ParameterError("Lipschitz cap must be positive")
    umat = profile.matrix(grid)
    est = np.array([lipschitz_ratio(umat[:, i], grid, seed=seed)
                    for i in range(profile.n_agents)])
    for i, u in enumerate(profile.evaluators):
        warn_if_over_declared(u, float(est[i]), i)
    if cap is None:
        cap = CAP_SAFETY * float(est.max())
    averages = average_utilities(grid, umat)
    for shared in (umat, est, averages):
        shared.setflags(write=False)
    return Game(profile=profile, grid=grid, umat=umat, agent_lipschitz=est,
                cap=float(cap), averages=averages,
                welfare_max=float(umat.sum(axis=1).max()))


@dataclass(frozen=True)
class PriceSchedule:
    """Per-grid-point transfer values with a declared Lipschitz constant."""

    values: np.ndarray = field(repr=False)
    declared_lip: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def to_dict(self) -> dict:
        return {"values": self.values.tolist(), "declared_lip": self.declared_lip}


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Admissibility checks for one schedule on one grid."""

    zero_mean_residual: float
    empirical_lip: float
    lip_cap: float
    sup_norm: float
    sup_bound: float
    diameter_exact: bool

    @property
    def zero_mean_ok(self) -> bool:
        return self.zero_mean_residual <= ZERO_MEAN_TOL

    @property
    def lip_ok(self) -> bool:
        return self.empirical_lip <= self.lip_cap + LIP_SLACK

    @property
    def sup_ok(self) -> bool:
        return self.sup_norm <= self.sup_bound + LIP_SLACK

    @property
    def ok(self) -> bool:
        return self.zero_mean_ok and self.lip_ok and self.sup_ok


def validate_schedule(schedule: PriceSchedule, grid: MenuGrid,
                      stage_cap: float) -> ScheduleDiagnostics:
    """Check zero mean, the Lipschitz cap, and the diameter sup-norm bound."""
    residual = abs(integrate(grid, schedule.values))
    emp = lipschitz_ratio(schedule.values, grid)
    diam, exact = grid.diameter
    return ScheduleDiagnostics(
        zero_mean_residual=residual,
        empirical_lip=emp,
        lip_cap=stage_cap,
        sup_norm=float(np.abs(schedule.values).max()) if schedule.values.size else 0.0,
        sup_bound=stage_cap * diam,
        diameter_exact=exact,
    )


def _tail_values(umat: np.ndarray, order: list[int], position: int) -> np.ndarray:
    """Continuation welfare from a position to the end, in posting order."""
    cols = [umat[:, order[j]] for j in range(position, len(order))]
    return np.sum(cols, axis=0)


def _resolve_order(n: int, order) -> list[int]:
    if order is None:
        return list(range(n))
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise StructuralError(f"order {order} is not a permutation of 0..{n - 1}")
    return order


def _equalize(game: Game, leader: int,
              order: list[int]) -> tuple[PriceSchedule, ScheduleDiagnostics]:
    """Equalizing schedule of ``leader`` plus the diagnostics that admitted it."""
    n = game.n_agents
    if not 0 <= leader <= n - 2:
        raise StructuralError(f"leader {leader} out of range for {n} agents")
    tail = _tail_values(game.umat, order, leader + 1)
    values = tail - integrate(game.grid, tail)
    declared = float(sum(game.agent_lipschitz[order[j]]
                         for j in range(leader + 1, n)))
    schedule = PriceSchedule(values=values, declared_lip=declared)
    diag = validate_schedule(schedule, game.grid, game.stage_cap)
    if not diag.lip_ok:
        raise ConfigurationError(
            f"equalizing schedule has empirical Lipschitz {diag.empirical_lip:.6g} "
            f"over the cap {game.stage_cap:.6g}; the cap is too small for the "
            "declared utilities"
        )
    return schedule, diag


def equalizing_price(game: Game, leader: int, *, order=None) -> PriceSchedule:
    """Schedule posted by ``leader`` (0-based) equalizing continuation welfare.

    Values are the tail welfare of agents after the leader minus its menu
    average, which makes the continuation coalition indifferent across every
    menu point.  Raises when the result breaks the Lipschitz cap: the cap is
    too small for the declared utilities.
    """
    return _equalize(game, leader, _resolve_order(game.n_agents, order))[0]


def bump_profile(grid: MenuGrid, target: int, iota: float) -> np.ndarray:
    """psi(xi) = iota / (iota + d(xi, target)): 1 at the target, below 1 elsewhere."""
    if not 0.0 < iota < 1.0:
        raise ParameterError(f"iota must lie in (0, 1), got {iota}")
    return iota / (iota + grid.distances_to(target))


def perturbed_price(base: PriceSchedule, grid: MenuGrid, target: int,
                    epsilon: float, iota: float,
                    stage_cap: float) -> PriceSchedule:
    """Subtract a re-centered bump from ``base`` so the follower strictly
    prefers the target.

    Admissible range: 0 < epsilon <= iota * (stage_cap - Lip(base)); the bump
    contributes at most epsilon/iota of extra Lipschitz mass.
    """
    psi = bump_profile(grid, target, iota)
    headroom = iota * (stage_cap - base.declared_lip)
    if not (0.0 < epsilon <= headroom + 1e-12):
        raise ParameterError(
            f"epsilon {epsilon!r} outside the admissible range (0, {headroom:.6g}]"
        )
    beta = integrate(grid, psi)
    values = base.values - epsilon * psi + epsilon * beta
    return PriceSchedule(values=values,
                         declared_lip=base.declared_lip + epsilon / iota)


@dataclass(frozen=True)
class BestResponse:
    """Chosen grid index plus the rule that produced it."""

    index: int
    rule: str          # net-argmax | spne-welfare-argmax


def follower_best_response(tail_values, schedule: PriceSchedule,
                           grid: MenuGrid, *,
                           selection_values=None,
                           indifference_tol: float = ZERO_MEAN_TOL) -> BestResponse:
    """Argmax of continuation value net of the posted schedule.

    Ties resolve to the lowest index.  When ``selection_values`` is given and
    the net payoff is flat across the whole menu (the exact equalizing
    schedule), the equilibrium selection applies instead: pick the point
    maximizing ``selection_values``.
    """
    tail = np.asarray(tail_values, dtype=float)
    if tail.shape != (grid.n_points,):
        raise StructuralError("tail values must align with grid points")
    net = tail - schedule.values
    if selection_values is not None and net.max() - net.min() <= indifference_tol:
        sel = np.asarray(selection_values, dtype=float)
        return BestResponse(index=int(np.argmax(sel)), rule="spne-welfare-argmax")
    return BestResponse(index=int(np.argmax(net)), rule="net-argmax")


@dataclass(frozen=True)
class Transcript:
    """Full record of one mechanism run: schedules, choice, and payoffs.

    ``diagnostics`` holds each posted schedule's admissibility checks, made
    once when the schedule was built; they stay out of ``to_dict``.
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
            "schedules": [s.to_dict() for s in self.schedules],
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

    Exact mode posts the equalizing schedule at every stage and resolves the
    terminal indifference with the welfare-maximizing selection; the chosen
    point attains the menu welfare maximum, every non-first mover collects
    exactly its menu average, and the first mover collects the remainder.

    Perturbed mode additionally bends every posted schedule toward the menu
    welfare argmax with a shared (epsilon, iota) bump, so the terminal choice
    is a strict argmax with no selection rule; middle movers' bumps cancel
    and the epsilon cost falls on the first mover.
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
    full_welfare = _tail_values(umat, order, 0)
    target = int(np.argmax(full_welfare))

    if mode == "exact":
        schedules = bases
        response = follower_best_response(
            _tail_values(umat, order, n - 1), schedules[-1], grid,
            selection_values=full_welfare)
        chosen = response.index
        rule = response.rule
        eps_used = iota_used = None
        target_used = None
    else:
        max_base_lip = max(s.declared_lip for s in bases)
        if epsilon is None:
            epsilon = default_epsilon(iota, stage_cap, max_base_lip)
            if epsilon <= 0.0:
                raise ParameterError(
                    "no bump headroom: the Lipschitz cap leaves no room below "
                    f"{stage_cap:.6g}"
                )
        schedules = [perturbed_price(b, grid, target, epsilon, iota, stage_cap)
                     for b in bases]
        diagnostics = [validate_schedule(s, grid, stage_cap) for s in schedules]
        response = follower_best_response(
            _tail_values(umat, order, n - 1), schedules[-1], grid)
        chosen = response.index
        rule = "perturbed-" + response.rule
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
    """Best gain a first-mover deviation found; the contract is <= 1e-9."""

    max_gain: float | None
    num_deviations: int
    equilibrium_payoff: float

    def to_dict(self) -> dict:
        return {
            "max_gain": self.max_gain,
            "num_deviations": self.num_deviations,
            "equilibrium_payoff": self.equilibrium_payoff,
        }


def audit_first_mover_bound(game: Game, transcript: Transcript,
                            num_deviations: int, seed: int = 0) -> DeviationAudit:
    """Replay random admissible first-mover deviations against best response.

    Each deviation perturbs the equilibrium first-stage schedule with a few
    re-centered bumps scaled inside the Lipschitz cap.  The continuation
    plays its equilibrium response (argmax of continuation welfare net of
    the deviating schedule, lowest index on ties), the convention consistent
    with the one-sided upper bound being audited: sampling can fail to find
    a violation, never fabricate one.
    """
    if transcript.mode != "exact":
        raise ParameterError("the deviation audit runs on exact-mode transcripts")
    order = list(transcript.order)
    umat, grid = game.umat, game.grid
    first = order[0]
    equilibrium = float(transcript.payoffs[first])
    if num_deviations <= 0:
        return DeviationAudit(max_gain=None, num_deviations=0,
                              equilibrium_payoff=equilibrium)

    base = transcript.schedules[0]
    tail1 = _tail_values(umat, order, 1)
    first_vals = umat[:, first]
    headroom = game.stage_cap - base.declared_lip
    rng = np.random.default_rng([seed, _DEVIATION_SEED])
    p = grid.n_points
    best = -np.inf
    for _ in range(num_deviations):
        n_bumps = int(rng.integers(1, 4))
        targets = rng.integers(0, p, size=n_bumps)
        iotas = rng.uniform(0.05, 0.5, size=n_bumps)
        raw = rng.uniform(-1.0, 1.0, size=n_bumps)
        budget = rng.uniform(0.1, 1.0) * headroom
        mass = np.sum(np.abs(raw) / iotas)
        amps = raw * (budget / mass) if mass > 0 else raw * 0.0
        values = base.values.copy()
        for t, io, a in zip(targets, iotas, amps):
            psi = bump_profile(grid, int(t), float(io))
            values += a * (psi - integrate(grid, psi))
        values = values - integrate(grid, values)
        response = int(np.argmax(tail1 - values))
        gain = float(first_vals[response] + values[response]) - equilibrium
        best = max(best, gain)
    return DeviationAudit(max_gain=best, num_deviations=num_deviations,
                          equilibrium_payoff=equilibrium)
