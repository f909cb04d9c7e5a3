"""Resource scaling of first-generation quantum repeater chains.

Fidelity maps for purification and entanglement swapping under a Pauli error
model, exact and closed-form estimates of the resource exponent, the
decoherence-limited path length, an exact Bell-diagonal oracle and a Monte
Carlo protocol simulator.
"""

from .analytic import (
    AnalyticOptions,
    acceptance_geomean,
    average_gain,
    exponent_estimate,
    minimize_exponent,
    optimal_target_fidelity,
    small_error_exponent,
    steps_estimate,
    window_exponent,
)
from .bell import BellDiagState, apply_pauli, purify_pair, swap_pair
from .exceptions import FidelityClampWarning, InfeasibleError, NonConvergenceError
from .fixed_points import (
    FixedPointResult,
    feasible_for,
    find_fixed_points,
    gate_error_threshold,
    target_window,
)
from .maps import (
    ErrorParams,
    PurifyResult,
    decay,
    purify,
    purify_coefficients,
    purify_ideal,
    swap_fidelity,
    swap_preimage,
)
from .mc import SimConfig, SimReport, histogram_csv, simulate, simulate_counts
from .path_length import (
    LinkBudget,
    link_budget,
    max_path_length,
    swap_after_decay,
    within_decoherence_budget,
)
from .platforms import (
    Platform,
    PlatformRow,
    SweepCell,
    SweepGrid,
    default_platforms_path,
    dump_platforms,
    evaluate_all,
    evaluate_platform,
    load_platforms,
    save_platforms,
    sweep,
)
from .recursive import (
    ProtocolParams,
    PurificationTrace,
    ScalingResult,
    TraceStep,
    entanglement_rate,
    optimal_recursive_exponent,
    pairs_per_level,
    purification_trace,
    resource_exponent,
    scaling_from_steps,
    total_resources,
)

__version__ = "0.1.0"
