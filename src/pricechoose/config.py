"""Scenario files: a single self-contained JSON document per experiment.

Loading validates everything up front and reports the full list of problems,
not just the first.  All randomness downstream flows from the one seed in
the scenario; components derive sub-streams from fixed labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .mechanism import DEFAULT_IOTA
from .menu import DEFAULT_GRID_BUDGET, check_state_class_labels
from .space import EndowmentProfile, StateSpace, aggregate_risk
from .utility import CredalSet, MaxMinUtility, UtilityProfile

SCENARIO_SCHEMA = "pnc-scenario/v1"

_GRID_DEFAULTS = {"state_classes": "per_state", "weights": "uniform",
                  "budget": DEFAULT_GRID_BUDGET}
_MECH_DEFAULTS = {"mode": "exact", "lipschitz_cap": None, "iota": DEFAULT_IOTA,
                  "epsilon": None}
_OUTPUT_DEFAULTS = {"dir": "out", "format": "both"}
_SPEC_KEYS = {"entropic": ("kind", "gamma"),
              "maxmin": ("kind", "gamma", "priors", "lip_bound")}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario plus the normalized dict it came from."""

    name: str
    space: StateSpace
    endowments: EndowmentProfile
    profile: UtilityProfile
    resolution: int
    state_classes: object
    budget: int
    mode: str
    lipschitz_cap: float | None
    iota: float
    epsilon: float | None
    seed: int
    out_dir: str
    out_format: str
    effective: dict = field(repr=False)

    @property
    def x(self) -> np.ndarray:
        return aggregate_risk(self.endowments)

    def with_overrides(self, **kw) -> "ScenarioConfig":
        """Re-validate the scenario with CLI-level overrides applied."""
        d = json.loads(json.dumps(self.effective))
        mapping = {
            "resolution": ("grid", "resolution"),
            "mode": ("mechanism", "mode"),
            "epsilon": ("mechanism", "epsilon"),
            "iota": ("mechanism", "iota"),
            "seed": ("seed",),
        }
        for key, value in kw.items():
            if value is None:
                continue
            path = mapping[key]
            node = d
            for part in path[:-1]:
                node = node.setdefault(part, {})
            node[path[-1]] = value
        return scenario_from_dict(d, source=self.name)


def _is_number(v) -> bool:
    """A JSON number that is a finite float: json.loads also yields Infinity,
    NaN and integers beyond the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_number_list(values, name: str, errors: list[str]) -> bool:
    if not isinstance(values, list) or not values:
        errors.append(f"{name} must be a nonempty list of numbers")
        return False
    bad = [i for i, v in enumerate(values) if not _is_number(v)]
    if bad:
        errors.append(f"{name} has non-numeric entries at {bad}")
        return False
    return True


def _check_keys(given: dict, known, label: str, errors: list[str]) -> None:
    """A key outside ``known`` is a typo or a misplaced option: an error."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        errors.append(f"{label} has unknown keys {unknown}")


def _section(d: dict, name: str, defaults: dict, errors: list[str],
             required=()) -> dict:
    """A top-level object section over its defaults; a non-object, or a key
    that is neither defaulted nor ``required``, is an error."""
    given = d.get(name, {})
    if not isinstance(given, dict):
        errors.append(f"{name} must be an object")
        given = {}
    _check_keys(given, [*defaults, *required], name, errors)
    return {**defaults, **given}


def _is_int(v, least: int) -> bool:
    """A JSON integer, not a boolean, of at least ``least``."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _built(errors: list[str], label: str, cls, *args):
    """``cls(*args)``, or None with the problems its ValidationError lists
    added to ``errors`` after ``label``."""
    try:
        return cls(*args)
    except ValidationError as exc:
        errors.extend(label + e for e in exc.errors)
        return None


def _utilities(specs, n_agents: int, n_states: int, reference, single,
               errors: list[str]) -> list:
    """One evaluator per utility spec.

    Here go the checks numpy cannot make: JSON types, finiteness and row
    lengths.  The rest are the constructors' own, run on a spec that passes
    these once the reference probability ``reference`` is well-formed (None
    until then).  Every entropic spec gets ``single``, the scenario's one
    credal set {P} (None when the state space is invalid).
    """
    if not isinstance(specs, list):
        errors.append("utilities must be a list")
        return []
    if len(specs) != n_agents:
        errors.append(f"expected one utility per agent ({n_agents}), got {len(specs)}")
    evaluators = []
    for i, spec in enumerate(specs):
        label = f"utilities[{i}]"
        if not isinstance(spec, dict):
            errors.append(f"{label} must be an object")
            continue
        kind = spec.get("kind")
        if kind not in ("entropic", "maxmin"):
            errors.append(f"{label}: kind must be 'entropic' or 'maxmin', got {kind!r}")
            continue
        checked = len(errors)
        _check_keys(spec, _SPEC_KEYS[kind], label, errors)
        gamma = spec.get("gamma")
        if not _is_number(gamma):
            errors.append(f"{label}: gamma must be a positive number, got {gamma!r}")
        priors, lip = spec.get("priors"), spec.get("lip_bound")
        if kind == "maxmin":
            if not isinstance(priors, list) or not priors:
                errors.append(f"{label}: maxmin needs a nonempty prior list")
                continue
            for j, row in enumerate(priors):
                plabel = f"{label}.priors[{j}]"
                if _check_number_list(row, plabel, errors) and len(row) != n_states:
                    errors.append(f"{plabel} has {len(row)} entries for {n_states} states")
            if lip is not None and not _is_number(lip):
                errors.append(f"{label}: lip_bound must be positive when given")
        if reference is None or len(errors) > checked:
            continue
        credal = single if kind == "entropic" else _built(
            errors, f"{label}: ", CredalSet, np.asarray(priors, dtype=float),
            reference, lip)
        # MaxMinUtility checks gamma alone, so a failed credal set (None) does
        # not hide a bad gamma.
        evaluators.append(_built(errors, f"{label}: ", MaxMinUtility,
                                 float(gamma), credal))
    return evaluators


def scenario_from_dict(d: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate a parsed scenario document; raises with every problem found."""
    errors: list[str] = []
    if not isinstance(d, dict):
        raise ValidationError([f"{source}: scenario document must be an object"])
    schema = d.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        errors.append(f"unknown schema tag {schema!r}")

    states = d.get("states")
    n_states = 0
    if not isinstance(states, list) or not states or \
            not all(isinstance(s, str) for s in states):
        errors.append("states must be a nonempty list of strings")
    else:
        n_states = len(states)

    probs = d.get("probs")
    reference = space = None
    if _check_number_list(probs, "probs", errors) and n_states:
        if len(probs) != n_states:
            errors.append(f"probs has {len(probs)} entries for {n_states} states")
        else:
            reference = np.asarray(probs, dtype=float)
            space = _built(errors, "", StateSpace, states, reference)

    endowments = d.get("endowments")
    n_agents = 0
    if not isinstance(endowments, list) or len(endowments) < 2:
        errors.append("endowments must list at least two agents")
    else:
        n_agents = len(endowments)
        for i, row in enumerate(endowments):
            if _check_number_list(row, f"endowments[{i}]", errors) and \
                    n_states and len(row) != n_states:
                errors.append(
                    f"endowments[{i}] has {len(row)} entries for {n_states} states"
                )

    single = None if space is None else CredalSet(space.probs[None], space.probs)
    evaluators = _utilities(d.get("utilities"), n_agents, n_states,
                            reference if space is None else space.probs, single,
                            errors)

    grid = _section(d, "grid", _GRID_DEFAULTS, errors, required=("resolution",))
    resolution = grid.get("resolution")
    if not _is_int(resolution, 1):
        errors.append(f"grid.resolution must be an integer >= 1, got {resolution!r}")
    sc = grid.get("state_classes")
    if isinstance(sc, str):
        if sc not in ("per_state", "single"):
            errors.append(f"grid.state_classes must be 'per_state', 'single', or a list, got {sc!r}")
    elif isinstance(sc, list):
        if n_states and len(sc) != n_states:
            errors.append(f"grid.state_classes has {len(sc)} entries for {n_states} states")
        _built(errors, "grid.", check_state_class_labels, sc)
    else:
        errors.append("grid.state_classes must be a string mode or a per-state list")
    # The menu measure is uniform; the key stays so that documents which
    # name it keep validating.
    if grid.get("weights") != "uniform":
        errors.append("grid.weights must be 'uniform' (the geometric measure "
                      f"was removed), got {grid.get('weights')!r}")
    budget = grid.get("budget")
    if not _is_int(budget, 1):
        errors.append(f"grid.budget must be a positive integer, got {budget!r}")

    mech = _section(d, "mechanism", _MECH_DEFAULTS, errors)
    if mech.get("mode") not in ("exact", "perturbed"):
        errors.append(f"mechanism.mode must be 'exact' or 'perturbed', got {mech.get('mode')!r}")
    cap = mech.get("lipschitz_cap")
    if cap is not None and (not _is_number(cap) or cap <= 0):
        errors.append(f"mechanism.lipschitz_cap must be positive when given, got {cap!r}")
    iota = mech.get("iota")
    if not _is_number(iota) or not 0 < iota < 1:
        errors.append(f"mechanism.iota must lie in (0, 1), got {iota!r}")
    eps = mech.get("epsilon")
    if eps is not None and (not _is_number(eps) or eps <= 0):
        errors.append(f"mechanism.epsilon must be positive when given, got {eps!r}")

    output = _section(d, "output", _OUTPUT_DEFAULTS, errors)
    if not isinstance(output.get("dir"), str) or not output["dir"]:
        errors.append(f"output.dir must be a nonempty string, got {output.get('dir')!r}")
    if output.get("format") not in ("structured", "tabular", "both"):
        errors.append(
            f"output.format must be 'structured', 'tabular', or 'both', "
            f"got {output.get('format')!r}")

    seed = d.get("seed", 0)
    if not _is_int(seed, 0):
        errors.append(f"seed must be a nonnegative integer, got {seed!r}")

    if errors:
        raise ValidationError([f"{source}: {e}" for e in errors])

    endow = EndowmentProfile(space, endowments)
    profile = UtilityProfile(tuple(evaluators))

    effective = {
        "schema": SCENARIO_SCHEMA,
        "name": d.get("name", source),
        "states": list(states),
        "probs": list(probs),
        "endowments": [list(r) for r in endowments],
        "utilities": d["utilities"],
        "grid": grid,
        "mechanism": mech,
        "output": output,
        "seed": seed,
    }
    return ScenarioConfig(
        name=effective["name"],
        space=space,
        endowments=endow,
        profile=profile,
        resolution=int(resolution),
        state_classes=sc,
        budget=int(budget),
        mode=mech["mode"],
        lipschitz_cap=None if cap is None else float(cap),
        iota=float(iota),
        epsilon=None if eps is None else float(eps),
        seed=int(seed),
        out_dir=output["dir"],
        out_format=output["format"],
        effective=effective,
    )


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError([f"cannot read {path}: {exc}"]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"{path}: invalid JSON: {exc}"]) from exc
    if isinstance(doc, dict) and "name" not in doc:
        doc = dict(doc, name=path.stem)
    return scenario_from_dict(doc, source=str(path))
