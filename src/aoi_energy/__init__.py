"""Age-of-information scheduling with a harvesting battery and paid backup.

The package models a sensor that each slot either idles or transmits over an
erasure channel, spending battery charge when available and paid backup
energy when not. It solves the long-run average cost trade-off between
update age and backup spending (``solve`` by relative value iteration,
``sweep`` by policy iteration), certifies the structure of the solution
numerically, and scores the solved threshold policy against baselines by
exact stationary analysis, Monte Carlo and brute-force enumeration.
"""

from .evaluation import (
    BoundaryMassError,
    CSV_COLUMNS,
    EvalReport,
    METHOD_EXACT,
    METHOD_MONTE_CARLO,
    ReducibilityError,
    SimConfig,
    enumerate_optimal,
    evaluate_exact,
    report_row_values,
    simulate,
    stationary_distribution,
    write_report_rows,
)
from .model import State, SystemParams
from .policies import (
    EnergyFirst,
    Periodic,
    PolicySpec,
    PolicyTable,
    Randomized,
    ThresholdPolicy,
    ZeroWait,
    parse_policy_spec,
    policy_label,
)
from .solver import (
    ConvergenceError,
    SolverConfig,
    ThresholdStructureError,
    ValueTable,
    bellman_qvalues,
    check_truncation_adequacy,
    extract_thresholds,
    greedy_policy,
    solve,
    write_value_csv,
)
from .structure import (
    DEFAULT_TOLERANCE,
    MarginCheck,
    StructureReport,
    certify_structure,
    structure_checks,
)

__version__ = "0.1.0"
