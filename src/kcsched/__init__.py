"""Solvers for min-sum single-machine scheduling (1 || sum f_j).

Primal-dual and local-ratio 4-approximations over a covering relaxation
with truncated job sizes, an interval-indexed (4 + eps) variant, a
4-kappa extension for release dates, and exact oracles for desk-scale
verification.  Every run carries an exact rational dual certificate.
"""

from .edd import (
    EddMiss,
    Schedule,
    edd_schedule,
    feasible_assignment,
    preemptive_edd,
    schedule_to_json,
)
from .errors import (
    InfeasibleAssignmentError,
    InfeasibleInstanceError,
    InstanceError,
    SchedError,
    SizeLimitError,
)
from .generators import RandomSpec, gen_random, gen_tight, gen_tight_shifted
from .instance import (
    INFEASIBLE,
    CostFunction,
    Instance,
    Job,
    JobSet,
    cost_at,
    demand,
    parse_instance,
    residual_demand,
    serialize_instance,
    truncated_size,
)
from .local_ratio import (
    Decomposition,
    LocalRatioOutcome,
    ResidualCosts,
    decompose,
    lr_trace_to_jsonl,
    solve_local_ratio,
)
from .oracle import OracleResult, exact_opt, exact_opt_release
from .primal_dual import (
    DualEntry,
    DualSolution,
    GrowRecord,
    SolveOutcome,
    check_charging,
    check_dual_feasible,
    check_primal_feasible,
    grow,
    prune,
    solve_primal_dual,
    trace_to_jsonl,
)
from .release import decompose_release, residual_demand_rt, solve_release
from .rounding import (
    IntervalPartition,
    RoundedInstance,
    RoundedOutcome,
    build_partition,
    cost_class,
    solve_rounded,
)

__version__ = "0.1.0"
