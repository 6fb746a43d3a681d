"""Experiment orchestration and deterministic reporting.

``run_experiment`` executes welfare -> mechanism -> auction -> audits for a
validated scenario and re-checks every declared invariant post-run, so a
report carries its own pass/fail audit trail.  Every check is one record
from ``_invariant``: the measured value, its tolerance, the verdict and a
detail text formatted from the value.  What holds by construction is left
to the test suite: the constructors refuse bad probabilities and priors,
every grid point splits X within its sign and bound, the metric's weights
are finite and nonnegative, and the evaluators' axioms are theorems of the
max-min entropic family.
Reports are plain dicts of JSON types whose size does not grow with the
menu: each posted price schedule appears as a fixed-size summary, and the
full vectors go to a ``schedules.npz`` sidecar.  Identical (scenario, seed,
version) produce byte-identical ``report.json`` files.  Time-dependent
data never enters a report.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from ._version import __version__
from .auction import (
    audit_bid_deviation,
    efficient_surplus,
    run_auction_then_pnc,
)
from .config import ScenarioConfig
from .errors import ValidationError
from .mechanism import (
    LIP_SLACK,
    ZERO_MEAN_TOL,
    _tail_values,
    audit_first_mover_bound,
    calibrate,
    run_pnc,
)
from .menu import enumerate_grid, integrate, lipschitz_scan, validate_feasible
from .utility import EntropicUtility, evaluate_grid
from .welfare import maximize_welfare

REPORT_SCHEMA = "pnc-report/v3"


def _invariant(name: str, value, tol, detail: str, *args, passed=None) -> dict:
    """One invariant record; every report check is built here.

    ``detail`` is a format string filled with ``value`` as field 0 and
    ``args`` after it.  The check passes when ``value <= tol``, so a NaN
    fails, unless ``passed`` gives a structural verdict.  ``value`` and
    ``tol`` are null for a structural check, and ``value`` is null when the
    measurement is not finite (JSON cannot hold it).
    """
    value = None if value is None else float(value)
    return {"name": name, "passed": bool(value <= tol if passed is None else passed),
            "detail": detail.format(value, *args),
            "value": value if value is not None and math.isfinite(value) else None,
            "tol": None if tol is None else float(tol)}


def _worst(residuals) -> float:
    """The largest residual, floored at +0.0; NaN when any residual is NaN,
    so the check that reads it fails."""
    return float(np.max(residuals, initial=0.0)) + 0.0


def _scale(*operands) -> float:
    """max(1, largest |operand|): scales a rounding tolerance, never below it."""
    return max(1.0, *(float(np.abs(a).max(initial=0.0)) for a in operands))


def _credal_checks(config: ScenarioConfig, umat, ref_vals: dict) -> list[dict]:
    """The max-min values against the single-prior ones: ``ref_vals`` maps
    each agent whose credal set is not {P} to its values under the
    reference probability P."""
    worst_dom = _worst([(umat[:, i] - ref).max() for i, ref in ref_vals.items()])
    return [
        _invariant("utility.maxmin_dominance", worst_dom, 1e-12,
                   "max excess over single-prior value {:.3g} ({} of {} agents)",
                   len(ref_vals), config.profile.n_agents),
    ]


def _schedule_checks(transcript, game, scan: dict) -> list[dict]:
    """Each posted schedule's measured figures against the bounds the game
    sets: zero mean, the stage cap, and the stage cap x the grid diameter
    (an upper bound when the diameter is not exact).  ``scan`` says how the
    Lipschitz figures were made (``_lipschitz_scan``)."""
    cap = game.stage_cap
    diameter, exact = game.grid.diameter
    lipschitz = ("exact {:.6g} vs cap {:.6g}" if scan["kind"] == "exact" else
                 f"empirical {{:.6g}} vs cap {{:.6g}} ({scan['kind']}, {scan['pairs']} pairs)")
    return [check for j, diag in enumerate(transcript.diagnostics) for check in (
        _invariant(f"schedule[{j}].zero_mean", diag.zero_mean_residual,
                   ZERO_MEAN_TOL, "residual {:.3g}"),
        _invariant(f"schedule[{j}].lipschitz", diag.lipschitz,
                   cap + LIP_SLACK, lipschitz, cap),
        _invariant(f"schedule[{j}].sup_norm", diag.sup_norm,
                   cap * diameter + LIP_SLACK, "sup {:.6g} vs bound {:.6g}{}",
                   cap * diameter, "" if exact else " (diameter upper bound)"))]


def _mechanism_checks(transcript, game) -> list[dict]:
    umat, averages, wmax = game.umat, game.averages, game.welfare_max
    order = list(transcript.order)
    n = len(order)
    chosen = transcript.chosen
    paid = [0.0] + [s.values[chosen] for s in transcript.schedules] + [0.0]
    identity = _worst([abs(float(transcript.payoffs[order[pos]])
                           - (umat[chosen, order[pos]] - paid[pos] + paid[pos + 1]))
                       for pos in range(n)])
    checks = [
        _invariant("mechanism.telescoping",
                   abs(float(transcript.payoffs.sum()) - float(game.welfare[chosen])),
                   1e-9, "residual {:.3g}"),
        _invariant("mechanism.payoff_identity", identity, 1e-9, "max residual {:.3g}"),
    ]
    if transcript.mode != "exact":
        checks.append(_invariant("mechanism.perturbed_target", None, None,
                                 "chosen {1}, target {2}", chosen, transcript.target,
                                 passed=chosen == transcript.target))
        return checks
    spreads = []
    for j, schedule in enumerate(transcript.schedules):
        # Rebuilt, not read from the schedule memo, so the check stays
        # independent of it; the scratch row holds each net in turn.
        if j == n - 2:
            net = np.subtract(umat[:, order[-1]], schedule.values, out=game._scratch)
        else:
            net = _tail_values(umat, order, j + 1, out=game._scratch)
            net -= schedule.values
        spreads.append(net.max() - net.min())
    worst_id = _worst([abs(float(transcript.payoffs[agent]) - averages[agent])
                       for agent in order[1:]])
    lead = abs(float(transcript.payoffs[order[0]]) -
               (wmax - sum(averages[order[k]] for k in range(1, n))))
    chosen_w = float(game.welfare[chosen])
    return checks + [
        _invariant("mechanism.indifference", _worst(spreads), 1e-9, "max net spread {:.3g}"),
        _invariant("mechanism.follower_payoffs", worst_id, 1e-9,
                   "max |g_i - Avg_i| = {:.3g}"),
        _invariant("mechanism.leader_payoff", lead, 1e-9,
                   "|g_1 - (W_max - sum Avg)| = {:.3g}"),
        _invariant("mechanism.efficiency", abs(chosen_w - wmax), 1e-9,
                   "chosen welfare {1:.9g} vs max {2:.9g}", chosen_w, wmax),
    ]


def _auction_checks(combined, branches, game) -> list[dict]:
    averages, wmax, n = game.averages, game.welfare_max, game.n_agents
    transfers, final = combined.auction.transfers, combined.final_payoffs
    bids, winner = combined.auction.bids, combined.auction.winner
    stack = np.stack([b.final_payoffs for b in branches])
    return [
        _invariant("auction.transfers_sum", abs(float(transfers.sum())),
                   1e-12 * _scale(transfers), "residual {:.3g}"),
        _invariant("auction.winner_argmax", None, None, "winner {1} bids {2!r}, max bid {3!r}",
                   winner, float(bids[winner]), float(bids.max()),
                   passed=bids[winner] == bids.max()),
        _invariant("auction.fair_split",
                   np.abs(final - (averages + combined.eta / n)).max(), 1e-9,
                   "max |final - (Avg + eta/n)| = {:.3g}"),
        _invariant("auction.equal_split", np.ptp(final - averages),
                   1e-9 * _scale(final, averages), "spread of surplus shares {:.3g}"),
        _invariant("auction.total_is_wmax", abs(float(final.sum()) - wmax), 1e-9,
                   "residual {:.3g}"),
        _invariant("auction.winner_invariance",
                   np.ptp(stack, axis=0).max(), 1e-9 * _scale(stack),
                   "max payoff spread across winners {:.3g}"),
        _invariant("auction.efficiency_preserved",
                   _worst([abs(float(game.welfare[b.transcript.chosen]) - wmax)
                           for b in branches]), 1e-9,
                   "max |W(chosen) - W_max| over branches {:.3g}"),
    ]


def _audit_checks(game, exact) -> tuple[list[dict], dict]:
    """The two certified audits' records, and the report's ``audits``
    section; ``exact`` is the exact order-0..n-1 transcript."""
    dev = audit_first_mover_bound(game, exact)
    bid_gain = audit_bid_deviation(game)
    return [
        _invariant("audit.first_mover_bound", dev.max_gain, 1e-9,
                   "certified max gain {:.3g} over every zero-mean deviation"),
        _invariant("audit.bid_deviations", bid_gain, 1e-9,
                   "max expected gain {:.3g} over every bid"),
    ], {"first_mover": dev.to_dict(), "bids": {"max_gain": bid_gain}}


def _lipschitz_scan(grid, mode: str = "exact") -> dict:
    """How the Lipschitz figures of a ``mode`` transcript's schedules are
    made: {"kind": "exact"} for the transfer-table constants of a
    single-class grid in exact mode, and otherwise ``lipschitz_scan``'s
    record of the pair sample, which this draws.  The calibrated agent
    constants are made as exact mode's are."""
    if grid.n_classes == 1 and mode == "exact":
        return {"kind": "exact"}
    return lipschitz_scan(grid)


def run_experiment(config: ScenarioConfig, *, include_auction: bool = True) -> dict:
    """Execute the configured pipeline and assemble the report dict."""
    return _run_experiment(config, include_auction=include_auction)[0]


def _schedule_arrays(section: str, transcript) -> dict[str, np.ndarray]:
    return {f"{section}_{j}": s.values for j, s in enumerate(transcript.schedules)}


def _run_experiment(config: ScenarioConfig, *,
                    include_auction: bool = True) -> tuple[dict, dict]:
    """The report plus the posted schedule vectors it summarizes.

    Each equilibrium path runs once.  With the auction, ``run_pnc`` runs
    once per winner branch; without it, once in order 0..n-1.  The exact
    order-0..n-1 transcript (the branch whose winner is 0) serves both the
    exact-mode ``mechanism`` section and the first-mover audit, so a
    perturbed-mode report adds only its own perturbed run.

    The vectors are keyed ``mechanism_<j>`` and ``auction_<j>`` after the
    report section and the position in its ``schedules`` list.
    """
    profile = config.profile
    space = config.space
    x = config.x
    grid = enumerate_grid(space, x, profile.n_agents, config.resolution,
                          state_classes=config.state_classes, budget=config.budget)
    # What reads only the grid and the profile comes first: on more than one
    # class the canonical pair sample that every Lipschitz figure reads, and
    # the values under P.  Their temporaries then never sit on top of the
    # game's block.
    scan = _lipschitz_scan(grid)
    # Values under P: an agent whose credal set is not exactly {P} is
    # evaluated once more, for the dominance check and its avg; on {P} they
    # are its umat column, whose menu average the game already holds.
    ref_vals = {i: evaluate_grid(EntropicUtility(u.gamma, space.probs), grid, i)
                for i, u in enumerate(profile.evaluators)
                if not np.array_equal(u.credal.priors, space.probs[None])}
    game = calibrate(profile, grid, cap=config.lipschitz_cap)
    umat = game.umat

    best = maximize_welfare(game)

    closed, cf = None, best.closed_form
    if cf is not None:
        closed = cf.to_dict()
        closed["tilt"] = [float(t) for t in cf.tilt]
        closed["grid_value_gap"] = abs(best.value - cf.value)

    checks = _credal_checks(config, umat, ref_vals)
    checks += [
        _invariant("welfare.argmax_feasible", None, None,
                   "feasibility of the optimizer's point",
                   passed=validate_feasible(best.allocation, x).ok),
        _invariant("welfare.value_sum", abs(best.value - float(best.per_agent.sum())),
                   1e-9, "|value - sum per_agent| = {:.3g}"),
    ]

    report: dict = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "scenario": config.effective,
        "grid": {
            "n_points": grid.n_points,
            "resolution": grid.resolution,
            "n_classes": grid.n_classes,
            "diameter": grid.diameter[0],
            "diameter_exact": grid.diameter[1],
        },
        "calibration": {
            "agent_lipschitz": [float(v) for v in game.agent_lipschitz],
            "cap": game.cap,
            "stage_cap": game.stage_cap,
            "lipschitz_scan": scan,
        },
        "welfare": best.to_dict(),
        "closed_form": closed,
    }

    combined = None
    if include_auction:
        # The drawn winner's run is its branch; the others are replays.
        combined = run_auction_then_pnc(game, config.seed)
        branches = [combined if w == combined.auction.winner
                    else run_auction_then_pnc(game, config.seed, winner=w)
                    for w in range(profile.n_agents)]
        exact = branches[0].transcript
    else:
        exact = run_pnc(game, "exact")
    transcript = exact if config.mode == "exact" else run_pnc(
        game, config.mode, epsilon=config.epsilon, iota=config.iota)

    report["mechanism"] = transcript.to_dict()
    arrays = _schedule_arrays("mechanism", transcript)
    checks += _schedule_checks(transcript, game, _lipschitz_scan(grid, transcript.mode))
    checks += _mechanism_checks(transcript, game)

    report["surplus"] = {"eta": efficient_surplus(game), "welfare_max": game.welfare_max,
                         "averages": [float(a) for a in game.averages]}

    if combined is not None:
        report["auction"] = combined.to_dict()
        arrays.update(_schedule_arrays("auction", combined.transcript))
        checks += _auction_checks(combined, branches, game)

    audit_checks, report["audits"] = _audit_checks(game, exact)
    checks += audit_checks

    agents = []
    for i in range(profile.n_agents):
        ref_avg = integrate(grid, ref_vals[i]) if i in ref_vals else game.averages[i]
        agents.append({
            "agent": i,
            "avg": float(ref_avg),
            "mechanism_payoff": float(transcript.payoffs[i]),
            "final_payoff": None if combined is None
            else float(combined.final_payoffs[i]),
        })
    report["agents"] = agents
    report["invariants"] = checks
    report["all_invariants_pass"] = all(c["passed"] for c in checks)
    return report, arrays


def _tabular_text(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["agent", "avg", "underbar_avg", "mechanism_payoff",
                     "final_payoff"])
    for row, underbar in zip(report["agents"], report["surplus"]["averages"]):
        writer.writerow([
            row["agent"],
            repr(row["avg"]),
            repr(underbar),
            "" if row["mechanism_payoff"] is None else repr(row["mechanism_payoff"]),
            "" if row["final_payoff"] is None else repr(row["final_payoff"]),
        ])
    return buf.getvalue()


def structured_text(report: dict) -> str:
    """Canonical serialization: one line of sorted keys without spaces, which
    CPython writes with its C encoder (it falls back to the pure-Python one
    whenever ``indent`` is set); floats round-trip exactly.  ``pricechoose
    explain`` is the readable view.

    Refuses NaN and infinities: every numeric field in a report is finite.
    """
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def emit_report(report: dict, out_dir, formats=("structured", "tabular"),
                arrays=None) -> dict:
    """Write the report files; returns {format: path}.

    With the structured format, ``arrays`` (the posted schedule vectors,
    keyed ``mechanism_<j>`` and ``auction_<j>``) are also written beside
    ``report.json`` as ``schedules.npz``, under the "schedules" key of the
    result.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError([f"cannot create output dir {out}: {exc}"]) from exc
    paths = {}
    if "structured" in formats:
        p = out / "report.json"
        p.write_text(structured_text(report))
        paths["structured"] = str(p)
        if arrays is not None:
            p = out / "schedules.npz"
            np.savez(p, **arrays)
            paths["schedules"] = str(p)
    if "tabular" in formats:
        p = out / "report.csv"
        p.write_text(_tabular_text(report))
        paths["tabular"] = str(p)
    return paths


def load_report(path) -> dict:
    """The report ``structured_text`` wrote at ``path``.  Raises
    ValidationError when the file cannot be read or parsed, or is not a
    ``REPORT_SCHEMA`` document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError([f"cannot read report {path}: {exc}"]) from exc
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise ValidationError([f"{path} is not a {REPORT_SCHEMA} document"])
    return doc
