"""Command line harness: validate scenarios, run experiments, emit reports,
and explain a written report.

Exit codes: 0 all invariant checks pass, 2 validation failure (for
``explain``, a file that is not a report of the current schema or lacks a
field it reads), 3 at least one invariant violated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .config import load_scenario
from .errors import EngineError, GridBudgetError, ValidationError
from .menu import check_grid_size
from .report import _run_experiment, emit_report, load_report
from .welfare import _common_prior


def _resolve_scenario(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    stem = name_or_path.replace("-", "_")
    if not stem.endswith(".json"):
        stem += ".json"
    ref = resources.files("pricechoose") / "scenarios" / stem
    if ref.is_file():
        return Path(str(ref))
    raise ValidationError([f"scenario {name_or_path!r} is neither a file nor a "
                           "bundled scenario name"])


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=False,
                     help="scenario file path or bundled scenario name")
    sub.add_argument("--resolution", type=int, default=None)
    sub.add_argument("--mode", choices=["exact", "perturbed"], default=None)
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--iota", type=float, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None,
                     help="output directory (default: the scenario's output.dir)")
    sub.add_argument("--format", choices=["structured", "tabular", "both"],
                     default=None)


def _load(args) -> object:
    """The scenario with the command's overrides, refused when its grid
    breaks a size rule of ``check_grid_size``, so that ``validate`` refuses
    every grid ``run`` would."""
    if args.scenario is None:
        raise ValidationError(["--scenario is required for this command"])
    path = _resolve_scenario(args.scenario)
    config = load_scenario(path).with_overrides(
        resolution=args.resolution, mode=args.mode, epsilon=args.epsilon,
        iota=args.iota, seed=args.seed)
    try:
        check_grid_size(config.x, config.profile.n_agents, config.resolution,
                        config.state_classes, config.budget)
    except (GridBudgetError, ValidationError) as exc:
        raise ValidationError([f"{path}: grid.{exc}"]) from exc
    return config


def _print_summary(report: dict) -> None:
    print(f"scenario: {report['scenario']['name']}")
    print(f"grid: {report['grid']['n_points']} points "
          f"(resolution {report['grid']['resolution']})")
    print(f"welfare maximum: {report['welfare']['value']!r} "
          f"via {report['welfare']['method']}")
    if report.get("closed_form"):
        cf = report["closed_form"]
        print(f"closed form: value {cf['value']!r}, lam {cf['lam']!r}, "
              f"grid gap {cf['grid_value_gap']:.3g}")
    print("agent  avg           underbar_avg  mechanism_g   final")
    def fmt(v):
        return "-" if v is None else f"{v:.6f}"
    for row, underbar in zip(report["agents"], report["surplus"]["averages"]):
        print(f"{row['agent']:>5}  {fmt(row['avg']):>12}  "
              f"{fmt(underbar):>12}  "
              f"{fmt(row['mechanism_payoff']):>12}  {fmt(row['final_payoff']):>12}")
    failures = [c for c in report["invariants"] if not c["passed"]]
    if failures:
        for c in failures:
            print(f"FAIL {c['name']}: {c['detail']}")
    print(f"invariant checks: {len(report['invariants']) - len(failures)}"
          f"/{len(report['invariants'])} passed")


def _emit(report: dict, arrays: dict, args, config) -> None:
    fmt = args.format or config.out_format
    formats = ("structured", "tabular") if fmt == "both" else (fmt,)
    out = args.out if args.out is not None else config.out_dir
    paths = emit_report(report, out, formats, arrays)
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")


def _cmd_validate(args) -> int:
    _load(args)
    print("scenario OK")
    return 0


def _cmd_experiment(args) -> int:
    """``run``, ``audit`` (no auction) and ``bench`` (closed-form comparison)."""
    config = _load(args)
    bench = args.command == "bench"
    if bench and _common_prior(config.profile) is None:
        print("bench needs an all-entropic scenario with a closed form",
              file=sys.stderr)
        return 2
    report, arrays = _run_experiment(config,
                                     include_auction=args.command != "audit")
    _emit(report, arrays, args, config)
    _print_summary(report)
    if bench:
        cf = report["closed_form"]
        print(f"bench: closed-form shares {cf['shares'][0]}")
        grid_shares = report["welfare"]["shares"]
        if grid_shares is not None:
            w = cf["shares"][0]
            gap = max(abs(a - b) for row in grid_shares for a, b in zip(row, w))
            print(f"bench: max share gap vs closed form {gap:.3g}")
    return 0 if report["all_invariants_pass"] else 3


def _closeness(check: dict) -> float:
    """How near a record came to failing: value / tol.  A record without a
    finite ratio (a structural check, or a measurement that was not
    finite) reads +inf when it failed and -inf when it passed."""
    value, tol = check["value"], check["tol"]
    if value is None or tol is None:
        return -math.inf if check["passed"] else math.inf
    return value / tol if tol > 0 else math.inf


# The fields ``explain`` reads, as key paths; "*" is every entry of a list.
_EXPLAINED_FIELDS = (
    "scenario.name", "grid.n_points", "grid.resolution", "welfare.value",
    "welfare.method", "surplus.averages.*", "calibration.lipschitz_scan",
    "audits.first_mover.ties",
    *(f"agents.*.{key}" for key in ("agent", "avg", "mechanism_payoff", "final_payoff")),
    *(f"invariants.*.{key}" for key in ("name", "passed", "value", "tol", "detail")),
)
_CLOSED_FORM_FIELDS = ("closed_form.value", "closed_form.lam", "closed_form.grid_value_gap")


def _lacks(node, keys: list[str]) -> bool:
    """Whether ``node`` misses the key path ``keys``: a dict key at each
    step, and at "*" a list whose every entry has the rest of the path."""
    if not keys:
        return False
    key, rest = keys[0], keys[1:]
    if key == "*":
        return not isinstance(node, list) or any(_lacks(item, rest) for item in node)
    return not isinstance(node, dict) or key not in node or _lacks(node[key], rest)


def _cmd_explain(args) -> int:
    """The readable view of a compact report: the run's summary, every
    invariant record with failures first and then the tightest value / tol,
    the Lipschitz scan and the welfare tie count.  A report that lacks a
    field it reads is refused before anything is printed."""
    report = load_report(args.report)
    fields = _EXPLAINED_FIELDS + (_CLOSED_FORM_FIELDS if report.get("closed_form") else ())
    gaps = [f for f in fields if _lacks(report, f.split("."))]
    if gaps:
        raise ValidationError([f"{args.report} lacks {f}" for f in gaps])
    _print_summary(report)
    checks = report["invariants"]
    print("invariants, failures first, then tightest value / tol:")
    for c in sorted(checks, key=lambda c: (c["passed"], -_closeness(c))):
        ratio = _closeness(c)
        shown = f"{ratio:.3g}" if math.isfinite(ratio) else "-"
        print(f"{'ok' if c['passed'] else 'FAIL':<4}  {shown:>9}  {c['name']}: {c['detail']}")
    scan = report["calibration"]["lipschitz_scan"]
    print(f"calibration.lipschitz_scan: {json.dumps(scan, sort_keys=True)}")
    print(f"audits.first_mover.ties: {report['audits']['first_mover']['ties']}")
    return 0 if all(c["passed"] for c in checks) else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pricechoose",
        description="Price-and-choose risk sharing engine and auditor.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "audit", "bench"):
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.set_defaults(
            fn=_cmd_validate if name == "validate" else _cmd_experiment,
            scenario="hurricane-three-farmers" if name == "bench" else None)
    explain = subs.add_parser("explain", help="print a report.json readably")
    explain.add_argument("report", help="a report.json written by run, audit or bench")
    explain.set_defaults(fn=_cmd_explain)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        for e in exc.errors:
            print(f"validation error: {e}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
