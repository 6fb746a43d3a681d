"""Price-and-choose risk sharing on finite state spaces.

Library layout mirrors the pipeline: ``space`` (probability space and
aggregate risk), ``menu`` (feasible allocations, grids, metric), ``utility``
(max-min entropic evaluators), ``welfare`` (optima and Pareto scans),
``mechanism`` (price schedules and equilibrium transcripts), ``auction``
(first-mover bidding), and ``config``/``report``/``cli`` for the harness.
"""

from ._version import __version__
from .auction import (
    AuctionOutcome,
    CombinedOutcome,
    audit_bid_deviation,
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
    DeviationAudit,
    Game,
    PriceSchedule,
    ScheduleDiagnostics,
    Transcript,
    audit_first_mover_bound,
    bump_profile,
    calibrate,
    follower_best_response,
    perturbed_price,
    run_pnc,
    validate_schedule,
)
from .menu import (
    FeasibilityReport,
    MenuGrid,
    compositions,
    enumerate_grid,
    grid_point_count,
    integrate,
    lipschitz_ratio,
    validate_feasible,
)
from .report import emit_report, load_report, run_experiment, structured_text
from .space import (
    EndowmentProfile,
    StateSpace,
    aggregate_risk,
)
from .utility import (
    CredalSet,
    EntropicUtility,
    MaxMinUtility,
    UtilityProfile,
    average_utilities,
    check_cash_invariance,
    estimate_lipschitz,
    evaluate,
    evaluate_grid,
)
from .welfare import (
    ParetoCheck,
    WelfareResult,
    closed_form_entropic,
    maximize_welfare,
    pareto_check,
)
