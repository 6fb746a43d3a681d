"""Feasible allocation menus at desk scale.

An allocation is an (agents x states) matrix splitting the aggregate risk X:
columns sum to X, every entry shares the sign of X in its state, and entries
vanish exactly where X does.  Because each agent's piece lies between 0 and
X(w), every feasible allocation obeys the coordinatewise bound |xi_i| <= |X|.

Menus are finite grids over this set, parameterized by per-state share points
on the (n-1)-simplex, together with the uniform probability measure on the
points and one fixed weak*-style metric

    d(xi, eta) = sum_k 2^-(k+1) * |<xi - eta, h_k>|,   <xi, h> = E_P[xi . h],

over n + n*m test functions, each of unit L1 norm under the reference
probability P: first the agent mass functionals h_i = e_i (x) 1 (k = i),
then the coordinate indicators h = e_i (x) 1_w / P(w) (k = n + i*m + w).
Agent i's mass functional enters with weight 2^-(i+1), so every pair of
allocations obeys the mass certificate

    |E_P[xi_i - eta_i]| <= 2^(i+1) * d(xi, eta).

The indicators make d separate allocations: d(xi, eta) = 0 forces xi = eta.

On a grid every allocation is linear in its class shares q (one simplex point
per state class), and the series takes a closed form in them.  Each share
q_ci is a feature whose weight sums the indicators of (i, w) over w in c,

    omega_ci = sum_{w in c} 2^-(n + i*m + w + 1) |X(w)|,

since <xi, e_i (x) 1_w / P(w)> = P(w) xi_i(w) / P(w) is xi_i(w) = q_ci X(w):
the weight reads X alone, so no probability, however small, can overflow it.

Agent i's mass functional is sum_c M_c q_ci, with class mass
M_c = sum_{w in c} P(w) X(w).  It stays a feature of weight 2^-(i+1) when
two or more classes carry mass; with one, it adds 2^-(i+1) |M_c| to that
class's omega_ci; with none, it drops out.  Each omega and M is a
``math.fsum``, so the weights do not depend on the BLAS build.

The grid is the Cartesian product of one composition table per class, the
same (K x n) table of simplex points for every class, so P = K^C.  A grid
stores it as integer counts and as shares counts / r, K rows each (K = P
only on one class), and P.  Point k takes row j_c of the table in class c,
where (j_1, ..., j_C) are the base-K digits of k; ``point(k)``, ``share(k)``
and the r + 1 share levels j / r are read off those tables.  Every
allocation the engine evaluates is built by one map, ``payoffs``: per-class
shares or levels q give q_{c(w)} X(w), and +0.0 where X is zero.  The ``points``
and ``features`` arrays are built only on request, and nothing in the
pipeline requests them.  Every distance sum_k w_k |g_a,k - g_b,k| over the
features g (the mass sums, each added in class order, then the shares) is
added from +0.0 in one order by one kernel, ``_metric_sum``, with no BLAS
call: a pair gets one float on every path and every build.

The distance is convex in the pair of share profiles, and the share set is a
product of simplices, so the menu diameter is reached at a pair of vertices
(Rockafellar, Convex Analysis, Cor. 32.3.2): points whose share row is a unit
vector in every class.  Those n^C points are grid points, so scanning their
pairs gives the exact diameter; only beyond 4096 vertices does the menu fall
back to the coordinatewise-range upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import GridBudgetError, StructuralError, ValidationError
from .space import StateSpace

FEASIBILITY_TOL = 1e-12
DEFAULT_GRID_BUDGET = 200_000
# The metric's series weight 2^-(k+1) is a positive float64 only up to
# k = 1073, so a family of more members (n + n*m) stops separating points.
METRIC_MEMBER_LIMIT = 1074


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


def validate_feasible(xi, x) -> FeasibilityReport:
    """Diagnose one allocation: column sums, sign matching, zero anchoring, bound.

    Returns diagnostics rather than raising; offending indices are reported
    per failed invariant.  A malformed shape raises StructuralError.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    if xi.ndim != 2:
        raise StructuralError(f"allocation must be 2-d, got shape {xi.shape}")
    if x.ndim != 1 or xi.shape[1] != x.shape[0]:
        raise StructuralError(
            f"allocation has {xi.shape[1]} state columns, aggregate risk has {x.shape}"
        )
    col = xi.sum(axis=0)
    # Relative above unit scale: a few ulps of a large X exceed 1e-12.
    tol = FEASIBILITY_TOL * max(1.0, float(np.abs(x).max(initial=0.0)))
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


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------

def compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer tuples of length ``parts`` summing to ``total``,
    in ascending lexicographic order: the differences of the prefix sums
    0 = s_0 <= s_1 <= ... <= s_parts = total, in the sums' own order.  Column
    j repeats a row whose s_(j-1) is v once for each s_j in v..total."""
    sums = np.zeros((1, parts + 1), dtype=np.int64)
    sums[:, -1] = total
    for j in range(1, parts):
        low = sums[:, j - 1]
        counts = total + 1 - low
        start = np.repeat(np.cumsum(counts) - counts - low, counts)
        sums = np.repeat(sums, counts, axis=0)
        sums[:, j] = np.arange(len(start)) - start
    return np.diff(sums, axis=1)


def check_state_class_labels(labels) -> None:
    """Per-state class labels must be strings or integers, not booleans:
    labels are compared by hash, and a list or dict label has none."""
    bad = [w for w, label in enumerate(labels)
           if isinstance(label, bool) or not isinstance(label, (str, Integral))]
    if bad:
        raise ValidationError("state_classes labels must be strings or integers, "
                              f"got others at {bad}")


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
    check_state_class_labels(labels)
    seen: dict[object, int] = {}
    for w in np.nonzero(nonzero)[0]:
        lab = labels[w]
        if lab not in seen:
            seen[lab] = len(seen)
        cls[w] = seen[lab]
    return cls, len(seen)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class MenuGrid:
    """Finite menu: share-parameterized allocations and a metric.

    Implicit and immutable: the grid keeps the (K x n) compositions
    ``counts`` of the resolution r, their shares ``table = counts / r`` (one
    class's share vectors) and the point count P = K^C.  Point k takes row
    j_c in class c, where (j_1, ..., j_C) are the base-K digits of k, so
    points are ordered lexicographically in composition indices,
    class-major, and every lowest-index tie-break downstream is
    deterministic.  The tables have P rows only on one class; ``points``
    and ``features`` are built only on request.  Its measure is the uniform
    one, 1/P at every point (``integrate``).  ``payoffs`` is the one map
    from class shares or share levels to evaluated payoffs.
    """

    def __init__(self, space: StateSpace, x: np.ndarray, n_agents: int,
                 resolution: int, class_of_state: np.ndarray, counts: np.ndarray) -> None:
        self.space = space
        self.x = x
        self.n_agents = n_agents
        self.resolution = resolution
        self.class_of_state = class_of_state
        self.n_classes = int(class_of_state.max()) + 1 if class_of_state.size else 0
        self.counts = counts
        self.table = counts / float(resolution)
        self.n_points = counts.shape[0] ** self.n_classes
        # Point k's class-c digit is k // K^(C-1-c) % K.
        self._place_values = counts.shape[0] ** np.arange(self.n_classes - 1, -1, -1)
        # ``payoffs``: a zero-risk state (class -1) reads class 0 times +0.0.
        self._payoff_class = np.maximum(class_of_state, 0)
        self._payoff_x = _read_only((x + 0.0)[:, None])
        # lipschitz_ratio's point pairs and distances, per sampling arguments.
        self._lipschitz_pairs: dict[tuple, tuple[np.ndarray, ...]] = {}
        for arr in (self.x, self.counts, self.table):
            arr.setflags(write=False)

    def _check_index(self, k) -> int:
        if not 0 <= k < self.n_points:
            raise StructuralError(f"point index {k} is outside [0, {self.n_points})")
        return int(k)

    def _shares_at(self, idx) -> np.ndarray:
        """Class shares of the points ``idx``: (C x n) for one index, with the
        index array's axes in front for an array of them.  The digits come
        from the place values, which a single index decodes fastest, and
        ``take`` gathers the table rows."""
        digits = np.asarray(idx)[..., None] // self._place_values
        return self.table.take(digits % self.table.shape[0], axis=0)

    def payoffs(self, q) -> np.ndarray:
        """The state-major (m x ...) payoffs of the nonnegative per-class
        values ``q`` (C x ...): entry w is q[c(w)] (X(w) + 0.0), and +0.0 in
        a zero-risk state.  Every allocation the engine evaluates is built
        here, from class shares or share levels."""
        q = np.asarray(q, dtype=float)
        if q.ndim < 1 or q.shape[0] != self.n_classes:
            raise StructuralError(f"expected values for {self.n_classes} classes "
                                  f"on the first axis, got shape {q.shape}")
        if not self.n_classes:
            return np.zeros(self.x.shape + q.shape[1:])
        # ``take`` writes C order, so ``states`` is a view of ``out``.
        out = q.take(self._payoff_class, axis=0)
        states = out.reshape(len(out), -1)
        states *= self._payoff_x
        return out

    def _points_at(self, idx) -> np.ndarray:
        """Allocations of the points ``idx``: (n x m) for one index, with
        leading axes for an array of them; ``payoffs`` of their class shares."""
        idx = np.asarray(idx)
        xi = self.payoffs(self._shares_at(idx.reshape(-1)).swapaxes(0, 1))  # (m x P x n)
        return np.ascontiguousarray(xi.transpose(1, 2, 0)).reshape(
            idx.shape + (self.n_agents, len(self.x)))

    def _share_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(levels, index): the sorted distinct entries of every column of
        ``table`` and each entry's position among them.  With n >= 2 every
        count 0..r occurs in every column; a lone agent's level is 1.0."""
        if self.n_agents > 1:
            return np.arange(self.resolution + 1) / float(self.resolution), self.counts
        return np.ones(1), np.zeros_like(self.counts)

    def share(self, k: int) -> np.ndarray:
        """(C x n) class shares of point ``k``, one table row per class.

        Raises StructuralError unless 0 <= k < n_points.
        """
        return self._shares_at(self._check_index(k))

    def point(self, k: int) -> np.ndarray:
        """(n x m) allocation of point ``k``: xi_i(w) = q_{c(w), i} X(w), and
        exactly zero where X is.  Raises StructuralError unless
        0 <= k < n_points."""
        return np.ascontiguousarray(self.payoffs(self.share(k)).T)

    def allocation(self, shares) -> np.ndarray:
        """(n x m) allocation of the (C x n) nonnegative class shares ``shares``:
        xi_i(w) = q_{c(w), i} X(w), and +0.0 where X is zero: ``payoffs`` of
        the shares, transposed, as ``point(k)`` is of ``share(k)``.  Raises
        StructuralError unless (C x n), ValidationError unless finite and >= 0."""
        shares = np.asarray(shares, dtype=float)
        if shares.shape != (self.n_classes, self.n_agents):
            raise StructuralError(f"expected ({self.n_classes} x {self.n_agents}) "
                                  f"class shares, got shape {shares.shape}")
        if not (np.isfinite(shares) & (shares >= 0.0)).all():
            raise ValidationError("class shares must be finite and nonnegative")
        return np.ascontiguousarray(self.payoffs(shares).T)

    @cached_property
    def points(self) -> np.ndarray:
        """(points x n x m) allocation of every point.

        Built only on request, for tests and inspection: the pipeline reads
        ``point(k)`` instead.
        """
        return _read_only(self._points_at(np.arange(self.n_points)))

    @cached_property
    def _metric(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(omega, mass, mass_weights): the metric's closed form on this grid.

        ``omega`` (C x n) weighs the class shares, ``mass`` (C,) holds each
        class mass M_c and ``mass_weights`` weighs the n mass sums: 2^-(i+1)
        when two or more classes carry mass, empty otherwise.  Each omega
        and M is one ``math.fsum`` of its terms (module docstring).
        """
        n, m = self.n_agents, len(self.x)
        px = self.space.probs * self.x
        k = n + np.arange(n)[:, None] * m + np.arange(m)           # (n x m)
        coord = np.ldexp(np.abs(self.x), -(k + 1))
        members = [np.flatnonzero(self.class_of_state == c)
                   for c in range(self.n_classes)]
        mass = np.array([math.fsum(px[w]) for w in members])
        carriers = np.count_nonzero(mass)
        mass_weights = np.ldexp(1.0, -np.arange(1, n + 1))
        # A lone carrier's |M_c| is the only nonzero mass: fold it into omega.
        folded = np.abs(mass) if carriers == 1 else np.zeros_like(mass)
        omega = np.array([[math.fsum([*coord[i, w], folded[c] * mass_weights[i]])
                           for i in range(n)] for c, w in enumerate(members)])
        omega = omega.reshape(self.n_classes, n)
        if carriers < 2:
            mass_weights = mass_weights[:0]
        return _read_only(omega), _read_only(mass), _read_only(mass_weights)

    @cached_property
    def feature_weights(self) -> np.ndarray:
        """Series weight of each column of ``features``: the mass sums', then
        omega in (class, agent) order: the one order in which every distance
        adds its terms (``_metric_sum``).  Built once, read-only."""
        omega, _, mass_weights = self._metric
        return _read_only(np.concatenate([mass_weights, omega.ravel()]))

    @cached_property
    def features(self) -> np.ndarray:
        """(points x features) distance features: the n mass sums, when
        there are any, then the class shares in (class, agent) order, so
        that d(j, k) = sum_f w_f |g_j,f - g_k,f| with w = feature_weights.
        Built only on request, for tests and inspection."""
        g = np.empty((self.n_points, self.feature_weights.size))
        for f, column in enumerate(self._feature_columns(np.arange(self.n_points))):
            g[:, f] = column
        return g

    def _mass_sums(self, class_shares) -> np.ndarray:
        """sum_c M_c q_c over the ``class_shares``, added from 0 in class order."""
        return sum(mass * q for mass, q in zip(self._metric[1], class_shares))

    def _feature_columns(self, idx: np.ndarray):
        """The columns of rows ``idx`` of ``features``, in ``feature_weights``
        order.  Each class's (n x len(idx)) share columns are one ``take``
        from the table, made when they are read and once more for the mass
        sums, so a call makes O(classes) numpy calls and never holds more
        than its class digits and a few such blocks."""
        # unravel_index reads the base-K digits of ``_shares_at``, one
        # contiguous array per class; it rejects an array on zero classes.
        size, classes = self.table.shape[0], self.n_classes
        digits = np.unravel_index(idx, (size,) * classes) if classes else ()
        columns = self.table.T                              # (n x K)
        if self._metric[2].size:
            yield from self._mass_sums(columns.take(d, axis=1) for d in digits)
        for d in digits:
            yield from columns.take(d, axis=1)

    def distances_to(self, k: int) -> np.ndarray:
        """Metric distance from every grid point to point ``k``.

        ``_metric_sum`` on the (K x ... x K) class axes: a share's gap is a
        K-vector along its class axis, a mass sum's gap is built over the
        grid.  Raises StructuralError unless 0 <= k < n_points.
        """
        k = self._check_index(k)
        if not self.n_classes:
            return np.zeros(1)
        size, classes = self.table.shape[0], self.n_classes
        cols = [self.table.T.reshape((-1,) + (1,) * c + (size,) + (1,) * (classes - 1 - c))
                for c in range(classes)]    # cols[c][i]: agent i's shares along axis c

        def gaps():
            for i in range(self._metric[2].size):
                sums = self._mass_sums(col[i] for col in cols)
                sums -= sums.flat[k]
                yield sums
            for col, j in zip(cols, np.unravel_index(k, (size,) * classes)):
                yield from (q - q.flat[j] for q in col)

        return _metric_sum(self.feature_weights, gaps(), (size,) * classes).ravel()

    @cached_property
    def diameter(self) -> tuple[float, bool]:
        """(diameter, exact) under the menu metric.

        The distance is convex in the pair of share profiles, so its maximum
        over the product of simplices sits at a pair of vertices, points
        whose share row is a unit vector in every class (Rockafellar, Convex
        Analysis, Cor. 32.3.2).  Exact scan over those n^C vertex pairs up
        to 4096 vertices; beyond that, the sound coordinatewise-range upper
        bound over the vertices, which equals the range over the whole grid
        because the features are linear in the shares.  Feature columns are
        built for the vertices only.
        """
        corners = np.nonzero(self.counts == self.resolution)[0]
        vertices = np.zeros(1, dtype=np.int64)
        for _ in range(self.n_classes):
            vertices = (vertices[:, None] * self.table.shape[0] + corners).ravel()
        g = list(self._feature_columns(vertices))
        w, v = self.feature_weights, len(vertices)
        if v <= 4096:
            best, rows = 0.0, max(1, 2 ** 14 // v)    # (rows x v) blocks stay in cache
            for lo in range(0, v, rows):
                gaps = (f[lo:lo + rows, None] - f for f in g)
                best = max(best, float(_metric_sum(w, gaps, (min(rows, v - lo), v)).max()))
            return best, True
        return float(_metric_sum(w, (f.max() - f.min() for f in g))), False


def grid_point_count(x, n_agents: int, resolution: int,
                     state_classes="per_state") -> int:
    """Number of points enumerate_grid would produce, without materializing."""
    x = np.asarray(x, dtype=float)
    _, n_classes = _resolve_state_classes(x, state_classes)
    return math.comb(resolution + n_agents - 1, n_agents - 1) ** n_classes


def check_grid_size(x, n_agents: int, resolution: int,
                    state_classes="per_state",
                    budget: int = DEFAULT_GRID_BUDGET) -> int:
    """Point count of the grid ``enumerate_grid`` would build, once it passes
    the two size rules: at most ``budget`` points (GridBudgetError) and at
    most ``METRIC_MEMBER_LIMIT`` metric members n + n*m (ValidationError)."""
    p = grid_point_count(x, n_agents, resolution, state_classes)
    if p > budget:
        raise GridBudgetError(
            f"budget {budget} is below the grid's {p} points; "
            "lower the resolution or merge state classes"
        )
    members = n_agents + n_agents * len(x)
    if members > METRIC_MEMBER_LIMIT:
        raise ValidationError(
            f"the metric's weights 2^-(k+1) underflow beyond {METRIC_MEMBER_LIMIT} "
            f"members, and {n_agents} agents over {len(x)} states make {members}"
        )
    return p


def enumerate_grid(space: StateSpace, x, n_agents: int, resolution: int, *,
                   state_classes="per_state",
                   budget: int = DEFAULT_GRID_BUDGET) -> MenuGrid:
    """Enumerate the share grid with denominators equal to ``resolution``.

    Per nonzero-state class, all simplex compositions with the given
    denominator; the cartesian product runs across classes.  A state whose
    aggregate risk is zero carries no decision variables.  A grid that
    breaks a size rule of ``check_grid_size`` raises instead of being
    subsampled.  Only the composition table is built: the grid is implicit.
    """
    x = space.check_variable(x, "aggregate risk")
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    cls, _ = _resolve_state_classes(x, state_classes)
    check_grid_size(x, n_agents, resolution, state_classes, budget)
    return MenuGrid(space, x, n_agents, resolution, cls,
                    compositions(resolution, n_agents))


def integrate(grid: MenuGrid, f) -> float:
    """Integral against the grid measure, uniform over the points: the mean
    of ``f``, summed pairwise as numpy's ``sum`` does."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_points,):
        raise StructuralError(
            f"expected {grid.n_points} per-point values, got shape {f.shape}"
        )
    return float(f.sum()) / grid.n_points


# ---------------------------------------------------------------------------
# Lipschitz constants (shared by utilities and price schedules)
# ---------------------------------------------------------------------------

def _metric_sum(weights, gaps, shape=None):
    """The one distance kernel: sum_k w_k |gap_k| added from +0.0 in
    ``feature_weights`` order.  ``gaps`` yields each feature's gap: arrays
    that broadcast to ``shape``, or floats (which round as float64) if None."""
    total = 0.0 if shape is None else np.zeros(shape)
    for w, gap in zip(weights, gaps):
        total += w * abs(gap)
    return total


def transfer_lipschitz(grid: MenuGrid, levels) -> np.ndarray:
    """(n x n x 3) Lipschitz figures of the one-unit transfers on a grid of
    one share class, read from the (n x L) level values ``levels``: row j
    holds f_j(l), agent j's utility at count l, for l = 0..r.

    On one class d(a, b) = sum_i omega_i |c_a,i - c_b,i| / r over the
    agents' counts c, since the series has no mass sums there.  Any move
    between two points splits into conformal one-unit transfers, each from
    an agent whose count falls to one whose count rises, each through grid
    points, and their costs (omega_giver + omega_receiver) / r add up to
    d(a, b) (the separable-levels view of Ibaraki & Katoh, Resource
    Allocation Problems, 1988).  So for a sum of level values over a set of
    agents, its change over any pair is at most the largest change of one
    transfer per unit cost: that ratio, attained by a transfer, is the
    function's exact Lipschitz constant over grid pairs.

    Entry [a, b, k] is the largest |change| * r / (omega_a + omega_b) of a
    transfer from a to b over the levels it can start from, l_a >= 1 and
    l_a + l_b <= r: k = 0 when both agents are in the set, k = 1 when only
    the giver a is, k = 2 when only the receiver b is.  The k = 0 maximum
    of |step_b(l_b) - step_a(l_a - 1)| reads a running max and min of the
    receiver's steps, step_j(l) = f_j(l + 1) - f_j(l), so the table takes
    O(n^2 r) work and no concavity.  With two agents l_a + l_b = r, and the
    k = 0 entry bounds the constant of the whole profile's sum from above;
    no tail reads it.  The diagonal, and a pair whose two weights are both
    zero (a move the metric cannot see), hold 0.
    """
    omega = grid._metric[0][0]
    steps = levels[:, 1:] - levels[:, :-1]                              # (n x r)
    # rise[b, s] / fall[b, s]: b's largest / smallest step at a level
    # l_b <= r - 1 - s, where s = l_a - 1 is the giver's step.
    rise = np.maximum.accumulate(steps, axis=1)[:, ::-1]
    fall = np.minimum.accumulate(steps, axis=1)[:, ::-1]
    both = np.maximum((rise[None] - steps[:, None]).max(axis=2, initial=0.0),
                      (steps[:, None] - fall[None]).max(axis=2, initial=0.0))
    one = np.abs(steps).max(axis=1, initial=0.0)
    table = np.stack([both, np.broadcast_to(one[:, None], both.shape),
                      np.broadcast_to(one, both.shape)], axis=-1)
    table *= grid.resolution
    # |change| r is divided last: tiny (subnormal) weights then meet tiny
    # changes, where r / cost alone could overflow.
    cost = (omega[:, None] + omega[None, :])[..., None]
    seen = (cost > 0.0) & ~np.eye(len(omega), dtype=bool)[..., None]
    return _read_only(np.divide(table, cost, out=np.zeros_like(table), where=seen))


def tail_lipschitz(transfers: np.ndarray, inside) -> np.ndarray:
    """Exact Lipschitz constants over grid pairs of sums of level values,
    from the ``transfer_lipschitz`` table: ``inside`` (... x n) marks the
    agents of each sum (a tail), and its constant is the largest entry over
    the ordered agent pairs the tail touches, each read in the case of its
    membership: O(n^2) per tail.  An added constant, such as the menu mean
    a schedule subtracts, leaves a constant unchanged."""
    inside = np.asarray(inside, dtype=bool)
    give, take = inside[..., :, None], inside[..., None, :]
    figures = np.where(give, np.where(take, transfers[..., 0], transfers[..., 1]),
                       np.where(take, transfers[..., 2], 0.0))
    return figures.max(axis=(-2, -1))


# Every sampled or exhaustive Lipschitz figure reads one canonical pair
# sample, which keeps them on the same footing: ratios of sums are
# subadditive pair by pair, so price schedules built from utility tails can
# never out-measure the cap calibrated from the same pairs.  A grid of one
# share class needs no pairs: its utility and equalizing-schedule figures
# are exact (``transfer_lipschitz``), and only its perturbed-mode schedules,
# whose bump is not a level function, read the pairs.
PAIR_SEED = 2011
EXHAUSTIVE_PAIRS = 512
PAIR_SAMPLES = 4096


def _lipschitz_pairs(grid: MenuGrid, exhaustive_threshold: int,
                     num_samples: int, seed: int) -> tuple[np.ndarray, ...]:
    """(a, b, d): the point pairs ``lipschitz_ratio`` scans, with their
    distances, zero-distance pairs dropped.  Drawn only for a multi-class
    grid's figures and for perturbed-mode schedules: a single-class grid's
    utility and equalizing-schedule constants are exact without pairs.

    Every pair a < b when the grid has at most ``exhaustive_threshold``
    points (distances are symmetric bit for bit, so the pairs b > a add
    nothing), a seeded random sample otherwise.  Only the values differ
    between the calls on one grid, so the pairs are memoised on the grid per
    sampling arguments: at most ~3 MB on the exhaustive path at 512 points.
    The gaps are built one feature at a time (``_feature_columns``), so no
    (features x pairs) table is held.
    """
    key = (exhaustive_threshold, num_samples, seed)
    if key in grid._lipschitz_pairs:
        return grid._lipschitz_pairs[key]
    p = grid.n_points
    if p <= exhaustive_threshold:
        a, b = np.triu_indices(p, 1)
        gaps = (f[a] - f[b] for f in grid._feature_columns(np.arange(p)))
    else:
        rng = np.random.default_rng([seed, p])
        a = rng.integers(0, p, size=num_samples)
        b = rng.integers(0, p, size=num_samples)
        keep = a != b
        a, b = a[keep], b[keep]
        gaps = (fa - fb for fa, fb in zip(grid._feature_columns(a),
                                          grid._feature_columns(b)))
    d = _metric_sum(grid.feature_weights, gaps, a.shape)
    keep = d > 0.0
    pairs = grid._lipschitz_pairs[key] = (a[keep], b[keep], d[keep])
    return pairs


def lipschitz_ratio(values, grid: MenuGrid, *, exhaustive_threshold: int = EXHAUSTIVE_PAIRS,
                    num_samples: int = PAIR_SAMPLES, seed: int = PAIR_SEED) -> float:
    """Largest |f(xi)-f(eta)| / d(xi, eta) over grid point pairs.

    All pairs when the grid is small, a seeded random sample otherwise;
    zero-distance pairs are skipped.  The pairs and their distances are
    built once per grid and sampling arguments (see ``_lipschitz_pairs``);
    the values at their ends are gathered by ``take``.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_points,):
        raise StructuralError("values must align with grid points")
    a, b, d = _lipschitz_pairs(grid, exhaustive_threshold, num_samples, seed)
    if not d.size:
        return 0.0
    return float((np.abs(v.take(a) - v.take(b)) / d).max())


def lipschitz_scan(grid: MenuGrid) -> dict:
    """What ``lipschitz_ratio`` reads with its default arguments, from the
    memoised pair set: the kind of scan and the number of pairs at d > 0.
    Calling it draws the pairs; a run calls it only where a figure is
    sampled or exhaustive, on a multi-class grid or for perturbed-mode
    schedules.  A single-class grid's calibration figures are exact, and
    its report reads {"kind": "exact"} instead."""
    a = _lipschitz_pairs(grid, EXHAUSTIVE_PAIRS, PAIR_SAMPLES, PAIR_SEED)[0]
    return {"kind": "sampled" if grid.n_points > EXHAUSTIVE_PAIRS else "exhaustive", "pairs": len(a)}
