"""Experiment orchestration and deterministic reporting.

``run_experiment`` executes welfare -> mechanism -> auction -> audits for a
validated scenario and re-checks every declared invariant post-run, so a
report carries its own pass/fail audit trail.  Reports are plain dicts of
JSON types; identical (scenario, seed, version) produce byte-identical
files.  Time-dependent data never enters a report.
"""

from __future__ import annotations

import csv
import io
import json
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
from .mechanism import _tail_values, audit_first_mover_bound, calibrate, run_pnc
from .menu import enumerate_grid, integrate, validate_feasible
from .utility import (
    MaxMinUtility,
    check_cash_invariance,
    evaluate,
    reference_version,
)
from .welfare import closed_form_entropic, maximize_welfare

REPORT_SCHEMA = "pnc-report/v1"


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _space_checks(config: ScenarioConfig, grid) -> list[dict]:
    probs = config.space.probs
    checks = [
        _check("space.probs_positive", bool(np.all(probs > 0)),
               f"min prob {probs.min():.3g}"),
        _check("space.probs_sum", abs(probs.sum() - 1.0) <= 1e-12,
               f"residual {abs(probs.sum() - 1.0):.3g}"),
        _check("grid.weights_positive", bool(np.all(grid.weights > 0)),
               f"min weight {grid.weights.min():.3g}"),
        _check("grid.integrate_one",
               abs(integrate(grid, np.ones(grid.n_points)) - 1.0) <= 1e-12,
               "weighted mass of the constant 1"),
    ]
    bound_slack = float((np.abs(grid.points) -
                         np.abs(grid.x)[None, None, :]).max())
    checks.append(_check("menu.coordinate_bound", bound_slack <= 1e-12,
                         f"max |xi|-|X| = {bound_slack:.3g}"))
    col_slack = float(np.abs(grid.points.sum(axis=1) - grid.x[None, :]).max())
    checks.append(_check("menu.column_sums", col_slack <= 1e-12,
                         f"max |sum_i xi - X| = {col_slack:.3g}"))
    sign = np.sign(grid.x)
    sign_slack = float(-(grid.points * sign[None, None, :]).min())
    zero_mask = grid.x == 0.0
    anchored = float(np.abs(grid.points[:, :, zero_mask]).max()) if zero_mask.any() else 0.0
    checks.append(_check("menu.sign_anchoring",
                         sign_slack <= 1e-12 and anchored == 0.0,
                         f"sign slack {sign_slack:.3g}, zero-state mass {anchored:.3g}"))
    return checks


def _metric_checks(grid, seed: int) -> list[dict]:
    checks = []
    d0 = grid.distance(0, 0)
    checks.append(_check("metric.identity", d0 == 0.0, f"d(x,x) = {d0!r}"))
    rng = np.random.default_rng([seed, 31_07])
    worst_sym = 0.0
    worst_tri = 0.0
    for _ in range(min(30, grid.n_points ** 2)):
        a, b, c = rng.integers(0, grid.n_points, size=3)
        dab = grid.distance(int(a), int(b))
        dba = grid.distance(int(b), int(a))
        dac = grid.distance(int(a), int(c))
        dcb = grid.distance(int(c), int(b))
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_tri = max(worst_tri, dab - (dac + dcb))
    checks.append(_check("metric.symmetry", worst_sym <= 1e-15,
                         f"max asymmetry {worst_sym:.3g}"))
    checks.append(_check("metric.triangle", worst_tri <= 1e-12,
                         f"max violation {worst_tri:.3g}"))
    return checks


def _utility_checks(config: ScenarioConfig, grid, umat, seed: int) -> list[dict]:
    profile = config.profile
    n, m = profile.n_agents, config.space.n_states
    checks = []
    zero = np.zeros((n, m))
    n0 = max(abs(evaluate(u, zero, i)) for i, u in enumerate(profile.evaluators))
    checks.append(_check("utility.normalization", n0 == 0.0, f"max |U(0)| = {n0!r}"))

    rng = np.random.default_rng([seed, 11_03])
    sample = rng.integers(0, grid.n_points, size=min(10, grid.n_points))
    worst_cash = 0.0
    for k in sample:
        xi = grid.points[int(k)]
        for i, u in enumerate(profile.evaluators):
            for c in (-10.0, -1.0, 0.0, 1.0, 10.0):
                worst_cash = max(worst_cash, check_cash_invariance(u, xi, i, c))
    checks.append(_check("utility.cash_invariance", worst_cash <= 1e-9,
                         f"max residual {worst_cash:.3g}"))

    worst_mono = 0.0
    worst_conc = 0.0
    worst_sup = 0.0
    pairs = rng.integers(0, grid.n_points, size=(min(50, grid.n_points), 2))
    for a, b in pairs:
        xa, xb = grid.points[int(a)], grid.points[int(b)]
        for i, u in enumerate(profile.evaluators):
            ua = evaluate(u, xa, i)
            ub = evaluate(u, xb, i)
            bumped = xa.copy()
            bumped[i] = bumped[i] + 1.0
            worst_mono = max(worst_mono, ua - evaluate(u, bumped, i))
            worst_sup = max(worst_sup,
                            abs(ua - ub) - float(np.abs(xa[i] - xb[i]).max()))
            for t in (0.25, 0.5, 0.75):
                mid = evaluate(u, t * xa + (1 - t) * xb, i)
                worst_conc = max(worst_conc, t * ua + (1 - t) * ub - mid)
    checks.append(_check("utility.monotonicity", worst_mono <= 1e-12,
                         f"max violation {worst_mono:.3g}"))
    checks.append(_check("utility.sup_lipschitz", worst_sup <= 1e-9,
                         f"max excess {worst_sup:.3g}"))
    checks.append(_check("utility.concavity", worst_conc <= 1e-9,
                         f"max gap {worst_conc:.3g}"))

    worst_dom = 0.0
    credal_ok = True
    for i, u in enumerate(profile.evaluators):
        if isinstance(u, MaxMinUtility):
            ref = reference_version(u, config.space)
            ref_vals = ref.values(grid.points[:, i, :])
            worst_dom = max(worst_dom, float((umat[:, i] - ref_vals).max()))
            priors = u.credal.priors
            credal_ok = credal_ok and bool(
                np.all(priors > 0.0)
                and np.abs(priors.sum(axis=1) - 1.0).max() <= 1e-12
                and np.any(np.all(np.abs(priors - config.space.probs) <= 1e-12,
                                  axis=1)))
    checks.append(_check("utility.maxmin_dominance", worst_dom <= 1e-12,
                         f"max excess over single-prior value {worst_dom:.3g}"))
    checks.append(_check("utility.credal_sets", credal_ok,
                         "positivity, normalization, reference membership"))
    return checks


def _schedule_checks(transcript) -> list[dict]:
    checks = []
    for j, diag in enumerate(transcript.diagnostics):
        checks.append(_check(
            f"schedule[{j}].zero_mean", diag.zero_mean_ok,
            f"residual {diag.zero_mean_residual:.3g}"))
        checks.append(_check(
            f"schedule[{j}].lipschitz", diag.lip_ok,
            f"empirical {diag.empirical_lip:.6g} vs cap {diag.lip_cap:.6g}"))
        checks.append(_check(
            f"schedule[{j}].sup_norm", diag.sup_ok,
            f"sup {diag.sup_norm:.6g} vs bound {diag.sup_bound:.6g}"
            + ("" if diag.diameter_exact else " (diameter upper bound)")))
    return checks


def _mechanism_checks(transcript, game) -> list[dict]:
    umat, averages, wmax = game.umat, game.averages, game.welfare_max
    checks = []
    order = list(transcript.order)
    n = len(order)
    chosen = transcript.chosen
    telescoping = abs(float(transcript.payoffs.sum()) - float(umat[chosen].sum()))
    checks.append(_check("mechanism.telescoping", telescoping <= 1e-9,
                         f"residual {telescoping:.3g}"))
    paid = [0.0] + [s.values[chosen] for s in transcript.schedules] + [0.0]
    identity = max(abs(float(transcript.payoffs[order[pos]])
                       - (umat[chosen, order[pos]] - paid[pos] + paid[pos + 1]))
                   for pos in range(n))
    checks.append(_check("mechanism.payoff_identity", identity <= 1e-9,
                         f"max residual {identity:.3g}"))
    if transcript.mode == "exact":
        worst = 0.0
        for j, schedule in enumerate(transcript.schedules):
            net = _tail_values(umat, order, j + 1) - schedule.values
            worst = max(worst, float(net.max() - net.min()))
        checks.append(_check("mechanism.indifference", worst <= 1e-9,
                             f"max net spread {worst:.3g}"))
        worst_id = 0.0
        for pos in range(1, n):
            agent = order[pos]
            worst_id = max(worst_id,
                           abs(float(transcript.payoffs[agent]) - averages[agent]))
        first = order[0]
        lead = abs(float(transcript.payoffs[first]) -
                   (wmax - sum(averages[order[k]] for k in range(1, n))))
        checks.append(_check("mechanism.follower_payoffs", worst_id <= 1e-9,
                             f"max |g_i - Avg_i| = {worst_id:.3g}"))
        checks.append(_check("mechanism.leader_payoff", lead <= 1e-9,
                             f"|g_1 - (W_max - sum Avg)| = {lead:.3g}"))
        chosen_w = float(umat[chosen].sum())
        checks.append(_check("mechanism.efficiency", abs(chosen_w - wmax) <= 1e-9,
                             f"chosen welfare {chosen_w:.9g} vs max {wmax:.9g}"))
    else:
        checks.append(_check("mechanism.perturbed_target",
                             transcript.chosen == transcript.target,
                             f"chosen {transcript.chosen}, target {transcript.target}"))
    return checks


def _auction_checks(combined, branches, game) -> list[dict]:
    averages, wmax, n = game.averages, game.welfare_max, game.n_agents
    checks = []
    transfer_sum = abs(float(combined.auction.transfers.sum()))
    checks.append(_check("auction.transfers_sum", transfer_sum <= 1e-12,
                         f"residual {transfer_sum:.3g}"))
    bids = combined.auction.bids
    checks.append(_check("auction.winner_argmax",
                         bool(bids[combined.auction.winner] == bids.max()),
                         "winner bid attains the maximum"))
    eta = combined.surplus.eta
    fair = float(np.abs(combined.final_payoffs -
                        (averages + eta / n)).max())
    checks.append(_check("auction.fair_split", fair <= 1e-9,
                         f"max |final - (Avg + eta/n)| = {fair:.3g}"))
    shares = combined.final_payoffs - averages
    equal = float(shares.max() - shares.min())
    checks.append(_check("auction.equal_split", equal <= 1e-9,
                         f"spread of surplus shares {equal:.3g}"))
    total = abs(float(combined.final_payoffs.sum()) - wmax)
    checks.append(_check("auction.total_is_wmax", total <= 1e-9,
                         f"residual {total:.3g}"))
    stack = np.stack([b.final_payoffs for b in branches])
    spread = float((stack.max(axis=0) - stack.min(axis=0)).max())
    eff = max(abs(float(game.umat[b.transcript.chosen].sum()) - wmax)
              for b in branches)
    checks.append(_check("auction.winner_invariance", spread <= 1e-9,
                         f"max payoff spread across winners {spread:.3g}"))
    checks.append(_check("auction.efficiency_preserved", eff <= 1e-9,
                         "every branch implements the welfare maximum"))
    return checks


def run_experiment(config: ScenarioConfig, *, include_auction: bool = True) -> dict:
    """Execute the configured pipeline and assemble the report dict."""
    profile = config.profile
    space = config.space
    x = config.x
    grid = enumerate_grid(space, x, profile.n_agents, config.resolution,
                          state_classes=config.state_classes,
                          weights=config.grid_weights, budget=config.budget)
    game = calibrate(profile, grid, cap=config.lipschitz_cap)
    umat = game.umat

    best = maximize_welfare(profile, grid, refine=True, umat=umat)

    closed = None
    if all(not isinstance(u, MaxMinUtility) for u in profile.evaluators):
        cf = closed_form_entropic(profile, x, space.probs)
        closed = cf.to_dict()
        closed["tilt"] = [float(t) for t in cf.tilt]
        closed["grid_value_gap"] = abs(best.value - cf.value)

    checks = []
    checks += _space_checks(config, grid)
    checks += _metric_checks(grid, config.seed)
    checks += _utility_checks(config, grid, umat, config.seed)
    feas = validate_feasible(best.allocation, x)
    checks.append(_check("welfare.argmax_feasible", feas.ok,
                         "feasibility of the optimizer's point"))
    checks.append(_check("welfare.value_sum",
                         abs(best.value - float(best.per_agent.sum())) <= 1e-9,
                         "value equals the per-agent sum"))
    sup_bound = float((umat.sum(axis=1) - game.welfare_max).max())
    checks.append(_check("welfare.supconv_bound", sup_bound <= 1e-12,
                         f"max excess over W_max = {sup_bound:.3g}"))

    report: dict = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "scenario": config.effective,
        "grid": {
            "n_points": grid.n_points,
            "resolution": grid.resolution,
            "n_classes": grid.n_classes,
            "weights_kind": grid.weights_kind,
            "diameter": grid.diameter[0],
            "diameter_exact": grid.diameter[1],
        },
        "calibration": {
            "agent_lipschitz": [float(v) for v in game.agent_lipschitz],
            "cap": game.cap,
            "stage_cap": game.stage_cap,
        },
        "welfare": best.to_dict(),
        "closed_form": closed,
    }

    transcript = run_pnc(game, config.mode, epsilon=config.epsilon,
                         iota=config.iota)
    report["mechanism"] = transcript.to_dict()
    checks += _schedule_checks(transcript)
    checks += _mechanism_checks(transcript, game)

    report["surplus"] = efficient_surplus(game).to_dict()

    combined = None
    if include_auction:
        # The drawn winner's run is its branch; the others are replays.
        combined = run_auction_then_pnc(game, config.seed)
        branches = [combined if w == combined.auction.winner
                    else run_auction_then_pnc(game, config.seed, winner=w)
                    for w in range(profile.n_agents)]
        report["auction"] = combined.to_dict()
        checks += _auction_checks(combined, branches, game)

    exact = transcript if transcript.mode == "exact" else run_pnc(game, "exact")
    dev = audit_first_mover_bound(game, exact, config.num_deviations,
                                  seed=config.seed)
    if dev.max_gain is not None:
        checks.append(_check("audit.first_mover_bound",
                             dev.max_gain <= 1e-9,
                             f"max gain {dev.max_gain:.3g} over "
                             f"{dev.num_deviations} deviations"))
    bids = audit_bid_deviation(game, num_bids=config.bid_points)
    checks.append(_check("audit.bid_deviations", bids.max_gain <= 1e-9,
                         f"max expected gain {bids.max_gain:.3g}"))
    report["audits"] = {"first_mover": dev.to_dict(), "bids": bids.to_dict()}

    agents = []
    for i in range(profile.n_agents):
        ref = reference_version(profile.evaluators[i], space)
        ref_avg = integrate(grid, ref.values(grid.points[:, i, :]))
        agents.append({
            "agent": i,
            "avg": float(ref_avg),
            "underbar_avg": float(game.averages[i]),
            "mechanism_payoff": float(transcript.payoffs[i]),
            "final_payoff": None if combined is None
            else float(combined.final_payoffs[i]),
        })
    report["agents"] = agents
    report["invariants"] = checks
    report["all_invariants_pass"] = all(c["passed"] for c in checks)
    return report


def _tabular_text(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["agent", "avg", "underbar_avg", "mechanism_payoff",
                     "final_payoff"])
    for row in report["agents"]:
        writer.writerow([
            row["agent"],
            repr(row["avg"]),
            repr(row["underbar_avg"]),
            "" if row["mechanism_payoff"] is None else repr(row["mechanism_payoff"]),
            "" if row["final_payoff"] is None else repr(row["final_payoff"]),
        ])
    return buf.getvalue()


def structured_text(report: dict) -> str:
    """Canonical full-fidelity serialization; floats round-trip exactly.

    Refuses NaN and infinities: every numeric field in a report is finite.
    """
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit_report(report: dict, out_dir, formats=("structured", "tabular")) -> dict:
    """Write the report files; returns {format: path}."""
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
    if "tabular" in formats:
        p = out / "report.csv"
        p.write_text(_tabular_text(report))
        paths["tabular"] = str(p)
    return paths


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
