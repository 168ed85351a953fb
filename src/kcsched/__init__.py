"""Solvers for min-sum single-machine scheduling (1 || sum f_j).

Primal-dual and local-ratio 4-approximations over a covering relaxation
with truncated job sizes, an interval-indexed (4 + eps) variant, a
4-kappa extension for release dates, and exact oracles for desk-scale
verification.  The primal-dual and rounded solves carry an exact
rational dual certificate; every solver's trace is the engine's frames.
"""

from .edd import (
    EddMiss,
    Schedule,
    edd_schedule,
    feasible_assignment,
    preemptive_edd,
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
    demand,
    parse_instance,
    residual_demand,
    serialize_instance,
)
from .local_ratio import (
    Frame,
    Outcome,
    ResidualCosts,
    decompose,
    lr_trace_to_jsonl,
    solve_local_ratio,
    solve_release,
)
from .oracle import OracleResult, exact_opt, exact_opt_release
from .primal_dual import (
    DualEntry,
    DualSolution,
    check_charging,
    check_dual_feasible,
    check_primal_feasible,
    grow,
    prune,
    solve_primal_dual,
    trace_to_jsonl,
)
from .rounding import (
    IntervalPartition,
    RoundedInstance,
    build_partition,
    solve_rounded,
)

__version__ = "0.1.0"
