"""Renormalized effective quantum numbers for centrally symmetric potentials.

The package maps a short-range attractive potential onto a one-dimensional
well by the log-metric transform, computes the semiclassical action and its
resummed defect correction, predicts the critical coupling at which each
(n, l) bound state appears at zero energy, and validates every prediction
against an independent node-counting oracle.
"""

from .action import (
    ActionProfile,
    TurningPair,
    action,
    action_profile,
    fit_phi,
    t_of,
    turning_points,
)
from .corrections import (
    delta1_integral,
    delta1_matched,
    ground_state_threshold,
    resum_delta,
    solve_spectrum,
)
from .effective import (
    OrderingRow,
    ordering_table,
    t_effective,
    t_ren,
    t_ren_expansion,
)
from .errors import (
    ConvergenceError,
    DegenerateWellError,
    InputError,
    NoSuchLevelError,
    PotentialConditionError,
    TrenqError,
)
from .oracle import (
    NodeCount,
    count_bound_states,
    exact_critical_coupling,
    lenz_analytic_spectrum,
)
from .potentials import (
    Lenz,
    LogWell,
    QuantumNumbers,
    RadialPotential,
    Settings,
    Tabulated,
    Tietz,
    lambda_of,
    load_potential,
    to_log_well,
)
from .thresholds import (
    ThresholdReport,
    base_action_integral,
    critical_coupling,
    lenz_exact_threshold,
    threshold_reports,
)

__version__ = "0.1.0"
