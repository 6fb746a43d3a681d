"""Price-and-choose risk sharing on finite state spaces.

Library layout mirrors the pipeline: ``space`` (probability space and
aggregate risk), ``menu`` (feasible allocations, grids, metric), ``utility``
(entropic and max-min evaluators), ``welfare`` (optima and Pareto scans),
``mechanism`` (price schedules and equilibrium transcripts), ``auction``
(first-mover bidding), and ``config``/``report``/``cli`` for the harness.
"""

from ._version import __version__
from .auction import (
    AuctionOutcome,
    BidAudit,
    CombinedOutcome,
    SurplusReport,
    audit_bid_deviation,
    default_bid_grid,
    efficient_surplus,
    equilibrium_bid,
    run_auction_then_pnc,
)
from .config import ScenarioConfig, load_scenario, scenario_from_dict
from .errors import (
    ConfigurationError,
    EngineError,
    GridBudgetError,
    ParameterError,
    StructuralError,
    UnsupportedProfileError,
    ValidationError,
)
from .mechanism import (
    BestResponse,
    DeviationAudit,
    Game,
    PriceSchedule,
    ScheduleDiagnostics,
    Transcript,
    audit_first_mover_bound,
    bump_profile,
    calibrate,
    equalizing_price,
    follower_best_response,
    perturbed_price,
    run_pnc,
    validate_schedule,
)
from .menu import (
    FeasibilityReport,
    MenuGrid,
    WeakStarMetric,
    build_metric,
    compositions,
    enumerate_grid,
    export_grid_csv,
    grid_point_count,
    integrate,
    is_anchored_comonotone,
    lipschitz_ratio,
    metric_distance,
    shares_to_allocation,
    validate_feasible,
)
from .report import emit_report, load_report, run_experiment, structured_text
from .space import (
    EndowmentProfile,
    SignPartition,
    StateSpace,
    aggregate_risk,
    sign_partition,
)
from .utility import (
    CredalSet,
    EntropicUtility,
    MaxMinUtility,
    UtilityProfile,
    average_utilities,
    avg_utility,
    check_cash_invariance,
    estimate_lipschitz,
    evaluate,
    evaluate_grid,
    worst_case_prior,
)
from .welfare import (
    ParetoCheck,
    WelfareResult,
    closed_form_entropic,
    maximize_welfare,
    pareto_check,
    welfare,
)
