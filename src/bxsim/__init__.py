"""Broadcast exchange protocol: equilibrium analysis and simulation."""

from .adapt import (
    AdaptConfig,
    AdaptState,
    AdaptiveRunResult,
    analytic_iterate,
    init_state,
    observe_and_update,
    run_adaptive_simulation,
)
from .equilibrium import (
    CodedEquilibrium,
    TwoFileEquilibrium,
    coded_equilibrium,
    coded_round_duration,
    coded_throughput,
    expected_initiation_cost,
    expected_response_cost,
    expected_response_cost_under_rate,
    ne_round_duration,
    node_cost_at_ne,
    poa_node,
    poa_system,
    response_equilibrium,
    response_phase_mean,
    throughput_at_ne,
    two_file_equilibrium,
)
from .errors import (
    BxsimError,
    DegenerateProfileError,
    InconsistentSystemError,
    NegativeRateError,
    NonpositiveObservationError,
    ScenarioError,
    SingularSystemError,
    StallError,
    Violation,
)
from .model import (
    CostParams,
    Metrics,
    Node,
    Scenario,
    StrategyProfile,
    group_ratio_sums,
    load_scenario,
    make_two_file,
    require_valid,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from .simulate import NEVER, SimConfig, run_simulation

__version__ = "0.1.0"
