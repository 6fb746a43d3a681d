"""The four seeded workloads, run against the public ``pricechoose`` API.

Every input is drawn from ``numpy.random.default_rng([tag, seed, k])`` for op
``k``, so an op's inputs depend only on the workload seed and its index: the
same seed gives the same inputs whatever the run length, and no two ops share
a grid or a utility matrix (pareto shares its oracle by design: many reads
against one prebuilt matrix is the access pattern it measures).  The sweep
draws its scenario values from a fixed batch seed; see SWEEP_BATCH_SEED.

A workload exposes ``n_ops`` (the size of its seeded pool), ``run(k)`` (one
op, returning a small outcome) and ``check(outcomes)`` (the correctness gate,
run after the timed phase; returns ``{k: reason}`` for every op that failed).
Importing this module imports ``numpy`` and ``pricechoose``; the caller times
that import as part of set-up.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import pricechoose as pc
from pricechoose.menu import grid_point_count
from pricechoose.welfare import PARETO_SLACK

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# The seed whose anchor/classes outputs are stored in reference.json.
REFERENCE_SEED = 0
# Reference values are stored with repr() precision; a relative tolerance
# leaves room for last-digit differences across numpy/BLAS builds only.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

WHY = {
    "anchor": "hurricane anchor, 2,556 points: the exact all-pairs "
              "menu.diameter scan does most of the work",
    "classes": "hurricane with 4 state classes, 166,375 points: distances_to "
               "in the first-mover audit dominates, diameter is a range bound",
    "sweep": "many small mixed scenarios with max-min agents; no layer "
             "dominates, so per-call and per-grid overhead shows",
    "pareto": "pareto_check of coarse-menu points against one prebuilt "
              "68,921-point oracle; the dominance scan is the whole cost",
}

# Pool sizes are fixed per run length: op rates far above today's, so a run
# never exhausts its pool unless the program gets several times faster.
MAX_OPS_PER_S = {"anchor": 8.0, "classes": 1.0, "sweep": 10.0}
# Typical op seconds at the seed commit; the traced run executes a fixed
# number of ops, floor(seconds / typical), so its counts repeat exactly.
TYPICAL_OP_S = {"anchor": 2.5, "classes": 10.0, "sweep": 0.7, "pareto": 0.01}

_TAGS = {"anchor": 101, "classes": 202, "sweep": 303, "pareto": 404}
HURRICANE_CLASSES = [0, 1, 1, 2, 1, 2, 2, 3]

# Sweep shapes (agents, states, state classes), cycled in this fixed order so
# every seed runs the same mix of grid sizes and only the values differ.
SWEEP_SHAPES = [
    (2, 2, "per_state"), (3, 3, "per_state"), (4, 4, "per_state"),
    (2, 3, "per_state"), (3, 4, "per_state"), (4, 2, "per_state"),
    (2, 4, "per_state"), (3, 2, "per_state"), (4, 3, "per_state"),
    (2, 2, "single"), (3, 3, "single"), (4, 4, "single"),
]
SWEEP_MAX_POINTS = 20_000
# The sweep's scenario values come from one fixed batch (the acceptance
# batch's master seed); the workload seed sets each scenario's own seed, which
# drives its deviation-audit bumps, check samples and auction draw.  A few
# max-min scenarios take 2-7 s in welfare refinement where most take 0.3 s,
# so per-seed values made ops_per_s spread 0.41 (q3 - q1 over the median)
# across 5 seeds; the fixed batch runs the same slow cases every time.
SWEEP_BATCH_SEED = 20_260_808
SWEEP_MAX_RESOLUTION = 39


def op_rng(name: str, seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[name], seed, k])


# ---------------------------------------------------------------------------
# Scenario documents
# ---------------------------------------------------------------------------

def _scenario(name, states, probs, endowments, utilities, resolution,
              state_classes, seed) -> dict:
    return {
        "schema": "pnc-scenario/v1",
        "name": name,
        "states": states,
        "probs": [float(p) for p in probs],
        "endowments": [[float(v) for v in row] for row in endowments],
        "utilities": utilities,
        "grid": {"resolution": int(resolution), "state_classes": state_classes},
        "seed": int(seed),
    }


def hurricane_doc(rng, resolution: int, state_classes) -> dict:
    """Three entropic farmers (gamma 1, 2, 4) with independent hits."""
    hit = float(rng.uniform(0.05, 0.2))
    loss = float(rng.uniform(0.5, 2.0))
    states = [f"{b:03b}" for b in range(8)]
    probs, endow = [], np.zeros((3, 8))
    for w, s in enumerate(states):
        p = 1.0
        for i, ch in enumerate(s):
            p *= hit if ch == "1" else 1.0 - hit
            if ch == "1":
                endow[i, w] = -loss
        probs.append(p)
    probs = list(np.asarray(probs) / math.fsum(probs))
    utilities = [{"kind": "entropic", "gamma": g} for g in (1.0, 2.0, 4.0)]
    return _scenario("hurricane-three-farmers", states, probs, endow, utilities,
                     resolution, state_classes, rng.integers(0, 2**31))


def _normalized(v: np.ndarray) -> list[float]:
    """A strictly positive probability vector summing to 1 within 1e-12."""
    v = v / v.sum()
    v[-1] = 1.0 - math.fsum(v[:-1])
    return [float(t) for t in v]


def _priors(rng, probs: list[float], count: int) -> list[list[float]]:
    p = np.asarray(probs)
    rows = [probs]
    for _ in range(count - 1):
        rows.append(_normalized(p * np.exp(rng.uniform(-0.6, 0.6, len(p)))))
    return rows


def sweep_doc(rng, shape, max_points: int) -> dict:
    """One random scenario shaped like the acceptance batch, for one shape.

    The aggregate risk is nonzero in every state, so the shape alone fixes
    the number of share classes and hence the grid size.
    """
    n, m, classes = shape
    probs = rng.dirichlet(np.ones(m))
    probs = _normalized(0.85 * probs + 0.15 / m)
    while True:
        endow = rng.integers(-2, 2, size=(n, m)).astype(float) * rng.uniform(0.5, 1.5)
        if np.all(endow.sum(axis=0) != 0.0):
            break
    n_maxmin = round(0.4 * n)
    maxmin = set(rng.choice(n, size=n_maxmin, replace=False).tolist())
    utilities = []
    for i in range(n):
        gamma = float(rng.uniform(0.3, 2.5))
        if i in maxmin:
            utilities.append({"kind": "maxmin", "gamma": gamma,
                              "priors": _priors(rng, probs, int(rng.integers(2, 4)))})
        else:
            utilities.append({"kind": "entropic", "gamma": gamma})
    x = endow.sum(axis=0)
    resolution = max(r for r in range(1, SWEEP_MAX_RESOLUTION + 1)
                     if r == 1 or grid_point_count(x, n, r, classes) <= max_points)
    return _scenario(f"sweep-{n}x{m}-{classes}", [f"s{j}" for j in range(m)],
                     probs, endow, utilities, resolution, classes,
                     rng.integers(0, 2**31))


def bundled_doc(name: str) -> dict:
    path = Path(pc.__file__).resolve().parent / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Pipeline workloads: one op = run_experiment + structured_text
# ---------------------------------------------------------------------------

def summarize(report: dict, text: str) -> dict:
    """The fields the correctness gate reads; the report itself is dropped."""
    return {
        "failed_invariants": [c["name"] for c in report["invariants"]
                              if not c["passed"]],
        "welfare_max": report["surplus"]["welfare_max"],
        "eta": report["surplus"]["eta"],
        "agents": [[a["avg"], a["mechanism_payoff"], a["final_payoff"]]
                   for a in report["agents"]],
        "bytes": len(text),
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_ATOL + REFERENCE_RTOL * abs(b)


def reference_mismatch(got: dict, ref: dict) -> str | None:
    pairs = [("welfare_max", got["welfare_max"], ref["welfare_max"]),
             ("eta", got["eta"], ref["eta"])]
    if len(got["agents"]) != len(ref["agents"]):
        return "agent count differs from the reference"
    fields = ("avg", "mechanism_payoff", "final_payoff")
    for i, (row, ref_row) in enumerate(zip(got["agents"], ref["agents"])):
        pairs += [(f"agents[{i}].{f}", a, b) for f, a, b in zip(fields, row, ref_row)]
    for label, a, b in pairs:
        if not _close(a, b):
            return f"{label} = {a!r}, reference {b!r}"
    return None


class PipelineWorkload:
    """Scenario documents validated up front; each op runs one of them."""

    def __init__(self, docs: list[dict], references: list[dict] | None = None):
        self.configs = [pc.scenario_from_dict(d, source=d["name"]) for d in docs]
        self.references = references or []

    @property
    def n_ops(self) -> int:
        return len(self.configs)

    def run(self, k: int) -> dict:
        report = pc.run_experiment(self.configs[k])
        return summarize(report, pc.structured_text(report))

    def check(self, outcomes: dict[int, dict]) -> dict[int, str]:
        errors = {}
        for k, got in outcomes.items():
            if got["failed_invariants"]:
                errors[k] = "invariants failed: " + ", ".join(got["failed_invariants"])
            elif k < len(self.references):
                bad = reference_mismatch(got, self.references[k])
                if bad:
                    errors[k] = bad
        return errors


def load_references(name: str, seed: int, smoke: bool) -> list[dict]:
    if smoke or seed != REFERENCE_SEED or not REFERENCE_FILE.is_file():
        return []
    return json.loads(REFERENCE_FILE.read_text()).get(name, [])


def pool_size(name: str, seconds: float) -> int:
    return max(1, math.ceil(seconds * MAX_OPS_PER_S[name]))


def pipeline_docs(name: str, seed: int, count: int, smoke: bool) -> list[dict]:
    if name == "anchor":
        return [hurricane_doc(op_rng(name, seed, k), 4 if smoke else 70, "single")
                for k in range(count)]
    if name == "classes":
        return [hurricane_doc(op_rng(name, seed, k), 2 if smoke else 9,
                              HURRICANE_CLASSES) for k in range(count)]
    max_points = 200 if smoke else SWEEP_MAX_POINTS
    docs = []
    for k in range(count):
        doc = sweep_doc(op_rng(name, SWEEP_BATCH_SEED, k),
                        SWEEP_SHAPES[k % len(SWEEP_SHAPES)], max_points)
        doc["seed"] = int(op_rng(name, seed, k).integers(0, 2**31))
        docs.append(doc)
    if smoke:
        docs[0] = bundled_doc("two_agent_hand")
    return docs


# ---------------------------------------------------------------------------
# Pareto workload: one op = one pareto_check against the prebuilt oracle
# ---------------------------------------------------------------------------

def pareto_profile(rng):
    """Two agents, three loss states: one entropic, one max-min agent."""
    probs = _normalized(0.8 * rng.dirichlet(np.ones(3)) + 0.2 / 3)
    x = -rng.uniform(0.5, 2.0, size=3)
    space = pc.StateSpace(["a", "b", "c"], probs)
    priors = np.array(_priors(rng, probs, int(rng.integers(2, 4))))
    profile = pc.UtilityProfile((
        pc.EntropicUtility(float(rng.uniform(0.3, 2.5)), space.probs),
        pc.MaxMinUtility(float(rng.uniform(0.3, 2.5)),
                         pc.CredalSet(priors, space.probs)),
    ))
    return space, x, profile


def independent_utilities(profile, points: np.ndarray) -> np.ndarray:
    """(points x agents) certainty equivalents by the textbook formula,
    min over priors for max-min agents; shares no code with the package."""
    cols = []
    for i, u in enumerate(profile.evaluators):
        priors = u.credal.priors if isinstance(u, pc.MaxMinUtility) else u.probs[None, :]
        per_prior = -np.log(np.exp(-u.gamma * points[:, i, :]) @ priors.T) / u.gamma
        cols.append(per_prior.min(axis=1))
    return np.stack(cols, axis=1)


class ParetoWorkload:
    """Coarse-menu candidates, in a seeded order, against one oracle menu."""

    def __init__(self, seed: int, smoke: bool):
        rng = op_rng("pareto", seed, 0)
        space, x, self.profile = pareto_profile(rng)
        coarse_res, oracle_res = (3, 6) if smoke else (30, 40)
        self.coarse = pc.enumerate_grid(space, x, 2, coarse_res)
        self.oracle = pc.enumerate_grid(space, x, 2, oracle_res)
        self.u_oracle = self.profile.matrix(self.oracle)
        self.order = rng.permutation(self.coarse.n_points)

    @property
    def n_ops(self) -> int:
        return len(self.order)

    def run(self, k: int) -> tuple[bool, int | None]:
        res = pc.pareto_check(self.profile, self.oracle,
                              self.coarse.point(int(self.order[k])),
                              umat=self.u_oracle)
        return res.optimal, res.dominating_index

    def check(self, outcomes: dict[int, tuple]) -> dict[int, str]:
        ks = sorted(outcomes)
        ind_oracle = independent_utilities(self.profile, self.oracle.points)
        cand = independent_utilities(self.profile,
                                     self.coarse.points[self.order[ks]])
        errors = {}
        for lo in range(0, len(ks), 200):
            u0 = cand[lo:lo + 200]
            # Dominance as in acceptance criterion 5, one agent at a time so
            # the temporaries stay (candidates x oracle points).
            weak = np.ones((len(u0), len(ind_oracle)), dtype=bool)
            strict = np.zeros_like(weak)
            for i in range(ind_oracle.shape[1]):
                weak &= ind_oracle[None, :, i] >= u0[:, i, None] - PARETO_SLACK
                strict |= ind_oracle[None, :, i] > u0[:, i, None] + PARETO_SLACK
            dom = weak & strict
            found, first = dom.any(axis=1), dom.argmax(axis=1)
            for j, k in enumerate(ks[lo:lo + 200]):
                expected = (not found[j], int(first[j]) if found[j] else None)
                if tuple(outcomes[k]) != expected:
                    errors[k] = f"verdict {outcomes[k]} != independent scan {expected}"
        return errors


def build(name: str, seed: int, seconds: float, smoke: bool = False):
    """Generate and validate a workload's inputs: the timed set-up."""
    if name == "pareto":
        return ParetoWorkload(seed, smoke)
    docs = pipeline_docs(name, seed, pool_size(name, seconds), smoke)
    return PipelineWorkload(docs, load_references(name, seed, smoke))


def traced_op_count(name: str, seconds: float, n_ops: int) -> int:
    """Ops in a traced run: fixed by the run length, so counts repeat."""
    return max(1, min(n_ops, int(seconds / TYPICAL_OP_S[name])))
