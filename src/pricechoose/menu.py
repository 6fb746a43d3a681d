"""Feasible allocation menus at desk scale.

An allocation is an (agents x states) matrix splitting the aggregate risk X:
columns sum to X, every entry shares the sign of X in its state, and entries
vanish exactly where X does.  Because each agent's piece lies between 0 and
X(w), every feasible allocation obeys the coordinatewise bound |xi_i| <= |X|.

Menus are finite grids over this set, parameterized by per-state share points
on the (n-1)-simplex, together with a full-support probability weighting and
a weak*-style metric

    d(xi, eta) = sum_k 2^-(k+1) * |<xi - eta, h_k>|,

where the test family {h_k} starts with the per-agent mass functionals
e_i (x) 1 and continues with per-(agent, state) coordinate indicators, each
normalized to unit L1 norm under the reference probability.

On a grid every allocation is linear in its class shares q (one simplex point
per state class), so each pairing <xi, h_k> is a row of coefficients on q.
A member whose row has one nonzero entry contributes 2^-(k+1) |coef| |dq_ci|,
so all such members merge into one feature per (class, agent) whose weight is
the sum of theirs; members with all-zero rows drop out.  The distance stays
exact while the feature count falls from n + n*m to n*C, plus the agent-mass
functionals that span several classes.

The grid is the Cartesian product of one composition table per class (K rows
each, P = K^C points), so every feature is a sum of per-class terms:
g_f(j) = sum_c t_fc[j_c], with t_fc a K-vector.  Distances to one point are
built from these O(F*C*K) tables: a feature that touches one class gives a
K-vector of weighted gaps along that class's axis, and only the few features
spanning several classes need their per-class gaps summed over the whole grid.

The distance is convex in the pair of share profiles, and the share set is a
product of simplices, so the menu diameter is reached at a pair of vertices
(Rockafellar, Convex Analysis, Cor. 32.3.2): points whose share row is a unit
vector in every class.  Those n^C points are grid points, so scanning their
pairs gives the exact diameter; only beyond 4096 vertices does the menu fall
back to the coordinatewise-range upper bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence, TypeAlias

import numpy as np

from .errors import GridBudgetError, StructuralError, ValidationError
from .space import StateSpace

# An allocation is an (agents x states) float matrix; its invariants are
# diagnosed by validate_feasible.  A share profile is a simplex point per
# nonzero state: either (n,) applied everywhere or (k x n) row per state.
Allocation: TypeAlias = np.ndarray
ShareProfile: TypeAlias = np.ndarray

SIMPLEX_TOL = 1e-12
FEASIBILITY_TOL = 1e-12
DEFAULT_GRID_BUDGET = 200_000

# Geometric point weights 2^-(k+1) underflow to zero past ~1070 points,
# which would break the full-support invariant.
GEOMETRIC_WEIGHT_LIMIT = 1000


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityReport:
    """Per-invariant diagnostics for one allocation against one aggregate risk."""

    sum_ok: bool
    sign_ok: bool
    anchored_ok: bool
    bound_ok: bool
    sum_violations: tuple[int, ...]            # state indices
    sign_violations: tuple[tuple[int, int], ...]     # (agent, state)
    anchored_violations: tuple[tuple[int, int], ...]  # (agent, state)
    bound_violations: tuple[tuple[int, int], ...]     # (agent, state)

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.sign_ok and self.anchored_ok and self.bound_ok


def _check_allocation_shape(xi, x) -> tuple[np.ndarray, np.ndarray]:
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    if xi.ndim != 2:
        raise StructuralError(f"allocation must be 2-d, got shape {xi.shape}")
    if x.ndim != 1 or xi.shape[1] != x.shape[0]:
        raise StructuralError(
            f"allocation has {xi.shape[1]} state columns, aggregate risk has {x.shape}"
        )
    return xi, x


def validate_feasible(xi, x, tol: float = FEASIBILITY_TOL) -> FeasibilityReport:
    """Diagnose one allocation: column sums, sign matching, zero anchoring, bound.

    Returns diagnostics rather than raising; offending indices are reported
    per failed invariant.
    """
    xi, x = _check_allocation_shape(xi, x)
    col = xi.sum(axis=0)
    sum_bad = np.nonzero(np.abs(col - x) > tol)[0]

    sign = np.sign(x)
    # Wrong side of zero by more than tol, in currency units.
    sign_bad = np.argwhere((xi * sign[None, :]) < -tol)
    anchored_bad = np.argwhere((np.abs(xi) > tol) & (x == 0.0)[None, :])
    bound_bad = np.argwhere(np.abs(xi) > np.abs(x)[None, :] + tol)

    def pairs(a: np.ndarray) -> tuple[tuple[int, int], ...]:
        return tuple((int(i), int(j)) for i, j in a)

    return FeasibilityReport(
        sum_ok=sum_bad.size == 0,
        sign_ok=sign_bad.size == 0,
        anchored_ok=anchored_bad.size == 0,
        bound_ok=bound_bad.size == 0,
        sum_violations=tuple(int(j) for j in sum_bad),
        sign_violations=pairs(sign_bad),
        anchored_violations=pairs(anchored_bad),
        bound_violations=pairs(bound_bad),
    )


def _check_simplex_rows(q: np.ndarray) -> None:
    problems = []
    if np.any(q < -SIMPLEX_TOL):
        problems.append("negative share entries")
    bad = np.nonzero(np.abs(q.sum(axis=1) - 1.0) > SIMPLEX_TOL)[0]
    if bad.size:
        problems.append(f"share rows {bad.tolist()} do not sum to 1")
    if problems:
        raise ValidationError(problems)


def shares_to_allocation(q, x) -> np.ndarray:
    """Turn per-state simplex shares into an allocation: xi_i(w) = q_i(w) X(w).

    ``q`` is either a single simplex point of length n (applied to every
    nonzero state) or a (k x n) matrix with one row per nonzero state of X,
    rows ordered by ascending state index.  States with X(w) = 0 receive
    exactly zero.
    """
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    nonzero = np.nonzero(x != 0.0)[0]
    if q.ndim == 1:
        q = np.repeat(q[None, :], len(nonzero), axis=0)
    if q.ndim != 2:
        raise StructuralError(f"shares must be 1-d or 2-d, got shape {q.shape}")
    if q.shape[0] != len(nonzero):
        raise StructuralError(
            f"got {q.shape[0]} share rows for {len(nonzero)} nonzero states"
        )
    if len(nonzero):
        _check_simplex_rows(q)
    n = q.shape[1]
    xi = np.zeros((n, len(x)))
    for row, w in enumerate(nonzero):
        xi[:, w] = q[row] * x[w]
    return xi


def is_anchored_comonotone(f_table: Sequence[Mapping[float, float]],
                           tol: float = FEASIBILITY_TOL) -> bool:
    """Check a tabulated rule xi_i = f_i(X) for the anchored comonotone class.

    ``f_table[i]`` maps each realized value of X to agent i's payoff.  True
    iff every f_i is nondecreasing across sorted X-values, f_i(0) = 0 when 0
    is realized, and the f_i sum back to x at every tabulated value.
    """
    if not f_table:
        return False
    keys = sorted(f_table[0].keys())
    for f in f_table:
        if sorted(f.keys()) != keys:
            raise StructuralError("agents tabulate different X-value sets")
    for f in f_table:
        vals = [f[k] for k in keys]
        if any(b < a - tol for a, b in zip(vals, vals[1:])):
            return False
        if 0.0 in f and abs(f[0.0]) > tol:
            return False
    for k in keys:
        if abs(sum(f[k] for f in f_table) - k) > tol:
            return False
    return True


def allocation_from_table(f_table: Sequence[Mapping[float, float]], x) -> np.ndarray:
    """Materialize a tabulated rule xi_i = f_i(X) as an allocation matrix."""
    x = np.asarray(x, dtype=float)
    n = len(f_table)
    xi = np.zeros((n, len(x)))
    for i, f in enumerate(f_table):
        for w, val in enumerate(x):
            xi[i, w] = f[float(val)]
    return xi


# ---------------------------------------------------------------------------
# Weak*-style metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakStarMetric:
    """Truncated series metric over a finite family of unit-norm test functions.

    The first n members are the agent mass functionals e_i (x) 1 (already of
    unit L1 norm under the reference probability); the rest are per-(agent,
    state) coordinate indicators scaled by 1/P(w).  Member k enters with
    series weight 2^-(k+1), so the mass functional of agent i certifies

        |E_P[xi_i - eta_i]| <= c_i * d(xi, eta),   c_i = 2^(i+1).
    """

    probs: np.ndarray = field(repr=False)
    test_functions: np.ndarray = field(repr=False)   # (M, n, m)
    weights: np.ndarray = field(repr=False)          # (M,)
    agent_mass_weights: np.ndarray = field(repr=False)  # (n,) the c_i

    @property
    def n_members(self) -> int:
        return self.test_functions.shape[0]

    @property
    def n_agents(self) -> int:
        return self.test_functions.shape[1]

    def features(self, points: np.ndarray) -> np.ndarray:
        """Pairings <xi, h_k> for a (P x n x m) stack of allocations."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 2
        if single:
            pts = pts[None]
        p, n, m = pts.shape
        weighted = self.test_functions * self.probs[None, None, :]
        g = pts.reshape(p, n * m) @ weighted.reshape(self.n_members, n * m).T
        return g[0] if single else g

    def distance(self, a, b) -> float:
        ga = self.features(np.asarray(a, dtype=float))
        gb = self.features(np.asarray(b, dtype=float))
        return float(np.dot(self.weights, np.abs(ga - gb)))


def build_metric(space: StateSpace, n_agents: int,
                 max_members: int | None = None) -> WeakStarMetric:
    """Default test family: n agent-mass functionals, then all coordinate indicators.

    The full family separates allocations exactly: d(a, b) = 0 forces a = b
    entrywise.  Truncating below n + n*m loses that separation and is only
    allowed down to the n mandatory members.
    """
    m = space.n_states
    members = []
    for i in range(n_agents):
        h = np.zeros((n_agents, m))
        h[i, :] = 1.0
        members.append(h)
    for i in range(n_agents):
        for w in range(m):
            h = np.zeros((n_agents, m))
            h[i, w] = 1.0 / space.probs[w]
            members.append(h)
    if max_members is not None:
        if max_members < n_agents:
            raise ValidationError(
                f"metric family needs at least the {n_agents} agent mass members"
            )
        members = members[:max_members]
    fam = np.array(members)
    weights = 0.5 ** np.arange(1, len(members) + 1)
    c = 2.0 ** np.arange(1, n_agents + 1)
    fam.setflags(write=False)
    weights.setflags(write=False)
    c.setflags(write=False)
    return WeakStarMetric(
        probs=space.probs,
        test_functions=fam,
        weights=weights,
        agent_mass_weights=c,
    )


def metric_distance(metric: WeakStarMetric, a, b) -> float:
    """Truncated-series distance between two allocation matrices."""
    return metric.distance(a, b)


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------

def compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer tuples of length ``parts`` summing to ``total``,
    in ascending lexicographic order."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            rows.append(prefix + (remaining,))
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c, slots - 1)

    rec((), total, parts)
    return np.array(rows, dtype=np.int64)


def _resolve_state_classes(x: np.ndarray, state_classes) -> tuple[np.ndarray, int]:
    nonzero = x != 0.0
    cls = np.full(len(x), -1, dtype=np.int64)
    if not nonzero.any():
        return cls, 0
    if isinstance(state_classes, str):
        if state_classes == "per_state":
            cls[nonzero] = np.arange(int(nonzero.sum()))
            return cls, int(nonzero.sum())
        if state_classes == "single":
            cls[nonzero] = 0
            return cls, 1
        raise ValidationError(f"unknown state_classes mode {state_classes!r}")
    labels = list(state_classes)
    if len(labels) != len(x):
        raise StructuralError(
            f"state_classes has {len(labels)} entries for {len(x)} states"
        )
    seen: dict[object, int] = {}
    for w in np.nonzero(nonzero)[0]:
        lab = labels[w]
        if lab not in seen:
            seen[lab] = len(seen)
        cls[w] = seen[lab]
    return cls, len(seen)


class MenuGrid:
    """Finite menu: share-parameterized allocations, weights, and a metric.

    Immutable after construction.  Points are ordered lexicographically in
    composition indices, class-major, so enumeration order (and therefore
    every lowest-index tie-break downstream) is deterministic.
    """

    def __init__(self, space: StateSpace, x: np.ndarray, n_agents: int,
                 resolution: int, class_of_state: np.ndarray,
                 shares: np.ndarray, points: np.ndarray, weights: np.ndarray,
                 metric: WeakStarMetric, weights_kind: str) -> None:
        self.space = space
        self.x = x
        self.n_agents = n_agents
        self.resolution = resolution
        self.class_of_state = class_of_state
        self.n_classes = int(class_of_state.max()) + 1 if class_of_state.size else 0
        self.shares = shares
        self.points = points
        self.weights = weights
        self.metric = metric
        self.weights_kind = weights_kind
        for arr in (self.x, self.shares, self.points, self.weights):
            arr.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def point(self, k: int) -> np.ndarray:
        return self.points[k]

    @cached_property
    def _merged_metric(self) -> tuple[np.ndarray, np.ndarray]:
        """(feature map, feature weights) of the metric on this grid.

        Row k of the coefficient matrix is <xi, h_k> as a linear form in the
        flattened (class, agent) shares: the sum over the states w of class
        c of h_k[i, w] P(w) X(w).  Single-entry rows merge into their column
        with weight sum 2^-(k+1) |coef|; all-zero rows drop out; the rest
        stay as they are.
        """
        metric, cls = self.metric, self.class_of_state
        onehot = np.zeros((len(self.x), self.n_classes))
        member = cls >= 0
        onehot[member, cls[member]] = 1.0
        weighted = metric.test_functions * (metric.probs * self.x)[None, None, :]
        rows = (weighted @ onehot).transpose(0, 2, 1).reshape(metric.n_members, -1)
        nnz = np.count_nonzero(rows, axis=1)
        single = nnz == 1
        kept = nnz > 1
        merged = metric.weights[single] @ np.abs(rows[single])
        cols = np.nonzero(merged)[0]
        feature_map = np.concatenate([rows[kept], np.eye(rows.shape[1])[cols]])
        weights = np.concatenate([metric.weights[kept], merged[cols]])
        feature_map.setflags(write=False)
        weights.setflags(write=False)
        return feature_map, weights

    @property
    def feature_weights(self) -> np.ndarray:
        """Series weight of each column of ``features``."""
        return self._merged_metric[1]

    @cached_property
    def features(self) -> np.ndarray:
        """(points x features) distance features, linear in the class shares.

        Members of the metric's test family whose share-coefficient row has
        a single nonzero entry are merged into one feature per (class,
        agent); the others, the agent-mass functionals of a multi-class
        grid, are kept as they are.  With ``feature_weights`` they give the
        metric exactly: d(j, k) = |g_j - g_k| . feature_weights.
        """
        p = self.n_points
        flat = self.shares.reshape(p, self.n_classes * self.n_agents)
        return flat @ self._merged_metric[0].T

    @cached_property
    def _class_tables(self) -> tuple[list, list, np.ndarray]:
        """Per-class feature tables: ``features`` without the P-sized matrix.

        Point j takes composition row j_c in every class c, so feature f is
        a sum of per-class terms, g_f(j) = sum_c t_fc[j_c], and t_fc is the
        class's composition table times feature f's coefficients on class
        c.  Returns ``one``, ``multi`` and ``multi_weights``: ``one[c]`` is
        the (K x features) table and the weights of the features that touch
        class c alone, in column order; ``multi[c]`` is the (features x K)
        table of class c's terms of the features spanning several classes,
        which ``multi_weights`` weigh.  On a single-class grid ``one[0][0]``
        equals ``features`` bit for bit; otherwise nothing here has P rows.
        """
        fmap, fw = self._merged_metric
        classes, n = self.n_classes, self.n_agents
        rows = math.comb(self.resolution + n - 1, n - 1)
        blocks = fmap.reshape(len(fw), classes, n)
        touched = np.any(blocks != 0.0, axis=2)
        spans = touched.sum(axis=1) > 1
        one, multi = [], []
        for c in range(classes):
            # Class c's composition rows: the points whose other digits are 0.
            step = rows ** (classes - 1 - c)
            table = self.shares[:rows * step:step, c, :] @ blocks[:, c, :].T
            own = touched[:, c] & ~spans
            # Row-major, as ``features`` is: the gemv rounding depends on it.
            one.append((np.ascontiguousarray(table[:, own]), fw[own]))
            multi.append(np.ascontiguousarray(table[:, spans].T))
        return one, multi, fw[spans]

    def distances_to(self, k: int) -> np.ndarray:
        """Metric distance from every grid point to point ``k``.

        Built from the per-class tables of ``_class_tables`` on the product
        grid, one axis per class: the features spanning several classes
        give the weighted |outer sum| of their per-class gaps, and each
        class adds the weighted |gap| of its one-class features along its
        own axis.  On a grid with at most one class this is
        |g - g_k| . feature_weights over the features in column order, bit
        for bit.  Raises StructuralError unless 0 <= k < n_points.
        """
        p = self.n_points
        if not 0 <= k < p:
            raise StructuralError(f"point index {k} is outside [0, {p})")
        one, multi, multi_w = self._class_tables
        classes = len(one)
        if classes == 1:
            # The table is ``features``: skip the per-axis bookkeeping, which
            # costs more than the scan on a few thousand points.
            t, w = one[0]
            gap = t - t[k]
            np.abs(gap, out=gap)
            return gap @ w
        shape = tuple(t.shape[0] for t, _ in one)
        digits = np.unravel_index(k, shape)

        def along(c: int, *lead: int) -> tuple[int, ...]:
            return lead + (1,) * c + (-1,) + (1,) * (classes - 1 - c)

        if multi_w.size:
            gap = 0.0
            for c, (u, j) in enumerate(zip(multi, digits)):
                gap = gap + (u - u[:, j, None]).reshape(along(c, multi_w.size))
            np.abs(gap, out=gap)
            total = (multi_w @ gap.reshape(multi_w.size, p)).reshape(shape)
        else:
            total = np.zeros(shape)
        for c, ((t, w), j) in enumerate(zip(one, digits)):
            gap = t - t[j]
            np.abs(gap, out=gap)
            total += (gap @ w).reshape(along(c))
        return total.reshape(p)

    def distance(self, j: int, k: int) -> float:
        g = self.features
        return float(np.dot(self.feature_weights, np.abs(g[j] - g[k])))

    @cached_property
    def diameter(self) -> tuple[float, bool]:
        """(diameter, exact) under the menu metric.

        The distance is convex in the pair of share profiles, so its maximum
        over the product of simplices sits at a pair of vertices, points
        whose share row is a unit vector in every class (Rockafellar, Convex
        Analysis, Cor. 32.3.2).  Exact scan over those n^C vertex pairs up
        to 4096 vertices; beyond that, the sound coordinatewise-range upper
        bound over the vertices, which equals the range over the whole grid
        because the features are linear in the shares.
        """
        g = self.features[np.all(self.shares.max(axis=2) == 1.0, axis=1)]
        w = self.feature_weights
        v = g.shape[0]
        if v <= 4096:
            best = 0.0
            for lo in range(0, v, 256):
                hi = min(lo + 256, v)
                best = max(best, float(_pair_distances(g, w, lo, hi).max()))
            return best, True
        span = g.max(axis=0) - g.min(axis=0)
        return float(np.dot(w, span)), False


def grid_point_count(x, n_agents: int, resolution: int,
                     state_classes="per_state") -> int:
    """Number of points enumerate_grid would produce, without materializing."""
    x = np.asarray(x, dtype=float)
    _, n_classes = _resolve_state_classes(x, state_classes)
    if n_classes == 0:
        return 1
    per_class = math.comb(resolution + n_agents - 1, n_agents - 1)
    return per_class ** n_classes


def enumerate_grid(space: StateSpace, x, n_agents: int, resolution: int, *,
                   state_classes="per_state", weights: str = "uniform",
                   budget: int = DEFAULT_GRID_BUDGET,
                   metric: WeakStarMetric | None = None) -> MenuGrid:
    """Enumerate the share grid with denominators equal to ``resolution``.

    Per nonzero-state class, all simplex compositions with the given
    denominator; the cartesian product runs across classes.  A state whose
    aggregate risk is zero carries no decision variables.  Exceeding the
    point budget raises instead of silently subsampling.
    """
    x = space.check_variable(x, "aggregate risk")
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    cls, n_classes = _resolve_state_classes(x, state_classes)
    total = grid_point_count(x, n_agents, resolution, state_classes)
    if total > budget:
        raise GridBudgetError(
            f"grid would hold {total} points, over the budget of {budget}; "
            "lower the resolution or merge state classes"
        )
    if metric is None:
        metric = build_metric(space, n_agents)

    m = space.n_states
    if n_classes == 0:
        shares = np.zeros((1, 0, n_agents))
        points = np.zeros((1, n_agents, m))
    else:
        comp = compositions(resolution, n_agents) / float(resolution)
        k = comp.shape[0]
        idx = np.arange(total)
        digits = np.stack(np.unravel_index(idx, (k,) * n_classes), axis=1)
        shares = comp[digits]                      # (P, C, n)
        points = np.zeros((total, n_agents, m))
        for w in range(m):
            if cls[w] >= 0:
                points[:, :, w] = shares[:, cls[w], :] * x[w]

    p = points.shape[0]
    if weights == "uniform":
        wts = np.full(p, 1.0 / p)
    elif weights == "geometric":
        if p > GEOMETRIC_WEIGHT_LIMIT:
            raise ValidationError(
                f"geometric weights underflow beyond {GEOMETRIC_WEIGHT_LIMIT} points"
            )
        raw = 0.5 ** np.arange(1, p + 1)
        wts = raw / raw.sum()
    else:
        raise ValidationError(f"unknown weights kind {weights!r}")

    return MenuGrid(space, x, n_agents, resolution, cls, shares, points, wts,
                    metric, weights)


def integrate(grid: MenuGrid, f) -> float:
    """Integral against the grid measure: the weighted sum over points."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_points,):
        raise StructuralError(
            f"expected {grid.n_points} per-point values, got shape {f.shape}"
        )
    return float(np.dot(grid.weights, f))


def export_grid_csv(grid: MenuGrid, path) -> None:
    """Per-point CSV (point, state, agent, payoff, weight) for external audits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", "state", "agent", "payoff", "weight"])
        for k in range(grid.n_points):
            for w, name in enumerate(grid.space.states):
                for i in range(grid.n_agents):
                    writer.writerow([k, name, i, repr(float(grid.points[k, i, w])),
                                     repr(float(grid.weights[k]))])


# ---------------------------------------------------------------------------
# Pairwise Lipschitz estimation (shared by utilities and price schedules)
# ---------------------------------------------------------------------------

def _pair_distances(g: np.ndarray, w: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Distances from feature rows lo:hi to every row, feature by feature,
    keeping temporaries at (chunk x points)."""
    acc = np.zeros((hi - lo, g.shape[0]))
    for k in range(g.shape[1]):
        acc += w[k] * np.abs(g[lo:hi, k][:, None] - g[None, :, k])
    return acc


# One canonical pair sample keeps every empirical Lipschitz figure on the same
# footing: ratios of sums are subadditive pair by pair, so price schedules
# built from utility tails can never out-measure the cap calibrated from the
# same pairs.
PAIR_SEED = 2011


def lipschitz_ratio(values, grid: MenuGrid, *, exhaustive_threshold: int = 512,
                    num_samples: int = 4096, seed: int = PAIR_SEED) -> float:
    """Largest |f(xi)-f(eta)| / d(xi, eta) over grid point pairs.

    All pairs when the grid is small, a seeded random sample otherwise;
    zero-distance pairs are skipped.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_points,):
        raise StructuralError("values must align with grid points")
    p = grid.n_points
    if p < 2:
        return 0.0
    g = grid.features
    w = grid.feature_weights
    if p <= exhaustive_threshold:
        best = 0.0
        for lo in range(0, p, 256):
            hi = min(lo + 256, p)
            d = _pair_distances(g, w, lo, hi)
            dv = np.abs(v[lo:hi, None] - v[None, :])
            mask = d > 0.0
            if mask.any():
                best = max(best, float((dv[mask] / d[mask]).max()))
        return best
    rng = np.random.default_rng([seed, p])
    a = rng.integers(0, p, size=num_samples)
    b = rng.integers(0, p, size=num_samples)
    keep = a != b
    a, b = a[keep], b[keep]
    d = np.abs(g[a] - g[b]) @ w
    dv = np.abs(v[a] - v[b])
    mask = d > 0.0
    if not mask.any():
        return 0.0
    return float((dv[mask] / d[mask]).max())
