"""Primal-dual solver over the knapsack-cover strengthened covering LP.

The growing phase repeatedly raises the dual variable of the time with
the largest residual demand until some job's dual constraint becomes
tight, committing that (job, time) completion pair.  The pruning phase
re-examines committed pairs in reverse, dropping any whose removal
keeps every demand covered.  The raised duals form an exact rational
certificate: the EDD schedule built from the surviving due dates costs
less than four times the dual value.

Both phases are views of the engine in `local_ratio`: the raised duals
are its local-ratio scales and pruning is its reverse delete.  All dual
values and slacks are exact `fractions.Fraction`s; tightness tests are
equalities, so floating point is never used.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .edd import Schedule, edd_schedule, peak_demand
from .instance import (
    INFEASIBLE,
    Cost,
    CostFunction,
    Instance,
    JobSet,
    residual_demand,
)
from .local_ratio import ResidualCosts, raise_due_dates, reverse_delete

__all__ = [
    "DualEntry",
    "DualSolution",
    "GrowRecord",
    "SolveOutcome",
    "grow",
    "prune",
    "solve_primal_dual",
    "check_dual_feasible",
    "check_primal_feasible",
    "check_charging",
    "DualFeasibilityReport",
    "PrimalFeasibilityReport",
    "ChargingReport",
    "trace_to_jsonl",
]


@dataclass(frozen=True)
class DualEntry:
    """One raised dual variable: time t, committed set snapshot, value y."""

    t: int
    covered: JobSet
    y: Fraction


@dataclass(frozen=True)
class DualSolution:
    """Raised duals in iteration order with their exact objective value."""

    entries: tuple[DualEntry, ...]
    value: Fraction

    @classmethod
    def from_entries(cls, entries, inst: Instance) -> "DualSolution":
        value = sum(
            (e.y * residual_demand(e.t, e.covered, inst) for e in entries),
            Fraction(0),
        )
        return cls(tuple(entries), value)


@dataclass(frozen=True)
class GrowRecord:
    """Per-iteration trace: selected time, set snapshot, residual demand,
    dual increase, and the pair that became tight."""

    k: int
    t: int
    covered: JobSet
    demand: int
    alpha: Fraction
    tight_job: int
    tight_time: int


GrowTrace = tuple[GrowRecord, ...]


@dataclass
class GrowState:
    """Mutable growing-phase state.

    Committed pairs are nested per job (a pair at time t puts the job in
    every covered set up to t), so membership reduces to one frontier
    per job: the largest committed time.
    """

    frontier: list[int]
    assignments: list[tuple[int, int, int]]  # (job, time, previous frontier)
    times: Sequence[int]


@dataclass(frozen=True)
class SolveOutcome:
    due_dates: tuple[int, ...]
    schedule: Schedule
    primal_cost: int
    dual_value: Fraction
    ratio: Fraction | None
    trace: GrowTrace
    dual: DualSolution


def grow(
    inst: Instance,
    *,
    times: Sequence[int] | None = None,
    cost_funcs: list[CostFunction] | None = None,
    debug: bool = False,
) -> tuple[GrowState, DualSolution, GrowTrace]:
    """Dual growing phase: the local-ratio engine read as a dual ascent.

    Each iteration picks the time with the largest residual demand
    (ties to the largest time), raises its dual variable until some
    constraint with a finite right-hand side becomes tight, and commits
    the tight (job, time) pair with the largest time, then smallest id.
    Terminates when every residual demand on the grid (1..T unless
    `times` is given) is zero.
    """
    if inst.has_releases:
        raise ValueError("grow requires an instance without release dates")
    g = ResidualCosts(inst, cost_funcs, times)
    frames, frontier = raise_due_dates(g, inst, check=debug)
    entries: list[DualEntry] = []
    records: list[GrowRecord] = []
    for f in frames:
        d = f.dec
        covered = JobSet.from_ids(
            (j for j, due in enumerate(f.due_snapshot) if due >= d.t_star), inst
        )
        entries.append(DualEntry(d.t_star, covered, d.alpha))
        records.append(
            GrowRecord(len(records) + 1, d.t_star, covered, d.demand, d.alpha, d.job, d.time)
        )
    if debug:
        for k in range(1, len(entries) + 1):
            report = check_dual_feasible(
                DualSolution.from_entries(entries[:k], inst),
                inst,
                times=g.times,
                cost_funcs=g.base,
            )
            assert report.feasible, f"dual infeasible after iteration {k}: {report.violation}"
    assignments = [(f.dec.job, f.dec.time, f.old_due) for f in frames]
    state = GrowState(frontier, assignments, g.times)
    return state, DualSolution.from_entries(entries, inst), tuple(records)


def prune(state: GrowState, inst: Instance) -> tuple[int, ...]:
    """Reverse-delete: drop committed pairs whose removal keeps every
    demand on the grid covered; each job ends up with exactly one due date."""
    due = list(state.frontier)
    reverse_delete(due, state.assignments, inst, state.times)
    assert all(d >= 1 for d in due), "pruning must leave exactly one pair per job"
    assert peak_demand(due, inst, state.times)[0] == 0
    return tuple(due)


def solve_primal_dual(inst: Instance, *, debug: bool = False) -> SolveOutcome:
    """Run growing, pruning, and EDD; bundle the 4x certificate."""
    state, dual, trace = grow(inst, debug=debug)
    due = prune(state, inst)
    schedule = edd_schedule(due, inst)
    primal = schedule.total_cost
    assert isinstance(primal, int)
    if dual.value == 0:
        assert primal == 0
        ratio = None
    else:
        assert primal < 4 * dual.value
        ratio = Fraction(primal) / dual.value
    return SolveOutcome(due, schedule, primal, dual.value, ratio, trace, dual)


# ---------------------------------------------------------------------------
# Certificate checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualFeasibilityReport:
    feasible: bool
    violation: tuple[int, int, Fraction, Cost] | None = None  # (job, s, lhs, rhs)


def check_dual_feasible(
    dual: DualSolution,
    inst: Instance,
    *,
    times: Sequence[int] | None = None,
    cost_funcs: list[CostFunction] | None = None,
) -> DualFeasibilityReport:
    """Verify every dual constraint with exact rationals.

    For each job j and time s, the weighted sum of raised duals whose
    time is at most s and whose set excludes j must stay at or below
    the job's cost at s; infeasible right-hand sides are vacuous.
    Reports the first violation in (job, s) scan order.
    """
    tgrid = range(1, inst.horizon + 1) if times is None else times
    costs = [j.cost for j in inst.jobs] if cost_funcs is None else list(cost_funcs)
    for j in range(inst.n):
        events = sorted(
            (e.t, e.y * min(inst.jobs[j].p, residual_demand(e.t, e.covered, inst)))
            for e in dual.entries
            if not e.covered.contains(j)
        )
        lhs = Fraction(0)
        idx = 0
        for s in tgrid:
            while idx < len(events) and events[idx][0] <= s:
                lhs += events[idx][1]
                idx += 1
            rhs = costs[j].value_at(s)
            if rhs is INFEASIBLE:
                continue
            if lhs > rhs:
                return DualFeasibilityReport(False, (j, s, lhs, rhs))
    return DualFeasibilityReport(True)


@dataclass(frozen=True)
class PrimalFeasibilityReport:
    feasible: bool
    # (t, covered ids or None for a base constraint, lhs, rhs)
    violations: tuple[tuple[int, tuple[int, ...] | None, int, int], ...] = ()


def check_primal_feasible(
    due: tuple[int, ...],
    inst: Instance,
    *,
    dual: DualSolution | None = None,
) -> PrimalFeasibilityReport:
    """Check the due-date assignment against the covering constraints.

    All base demands are checked exactly, and that decides every
    strengthened (knapsack-cover) inequality as well.  Take a set A and
    a time t with residual demand D = T - t + 1 - p(A) > 0, and let S be
    the jobs outside A due at or after t.  Base coverage at t gives
    p(S) >= T - t + 1 - p(A) = D.  Either some job of S has p >= D, so
    its truncated size alone reaches D, or no size in S is truncated and
    the truncated sum is p(S) >= D.  The inequalities of the sets in the
    dual support, if given, are still evaluated so that a failing report
    names them too.
    """
    if inst.has_releases:
        raise ValueError("check_primal_feasible applies to instances without release dates")
    for j, d in enumerate(due):
        if d < 1:
            raise ValueError(f"job {j} has no due date assigned")
    T = inst.horizon
    p = inst.processing()
    violations = []
    for t in range(1, T + 1):
        lhs = sum(p[j] for j in range(inst.n) if due[j] >= t)
        rhs = T - t + 1
        if lhs < rhs:
            violations.append((t, None, lhs, rhs))
    for e in dual.entries if dual is not None else ():
        rhs = residual_demand(e.t, e.covered, inst)
        if rhs == 0:
            continue
        lhs = sum(
            min(p[j], rhs)
            for j in range(inst.n)
            if not e.covered.contains(j) and due[j] >= e.t
        )
        if lhs < rhs:
            violations.append((e.t, e.covered.ids(), lhs, rhs))
    return PrimalFeasibilityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class ChargingReport:
    ok: bool
    violation: tuple[int, tuple[int, ...], int, int] | None = None


def check_charging(
    dual: DualSolution, due: tuple[int, ...], inst: Instance
) -> ChargingReport:
    """For every raised dual with positive value, the surviving jobs that
    cover its time but were outside its set must contribute strictly
    less than four times its residual demand (truncated sizes)."""
    p = inst.processing()
    for e in dual.entries:
        if e.y == 0:
            continue
        d = residual_demand(e.t, e.covered, inst)
        lhs = sum(
            min(p[j], d)
            for j in range(inst.n)
            if not e.covered.contains(j) and due[j] >= e.t
        )
        if not lhs < 4 * d:
            return ChargingReport(False, (e.t, e.covered.ids(), lhs, d))
    return ChargingReport(True)


def trace_to_jsonl(trace: GrowTrace) -> str:
    """Growing-phase trace as JSON lines with bit-exact rationals."""
    lines = [
        json.dumps(
            {
                "k": r.k,
                "t": r.t,
                "A": list(r.covered.ids()),
                "D": r.demand,
                "alpha": f"{r.alpha.numerator}/{r.alpha.denominator}",
                "tight_job": r.tight_job,
                "tight_time": r.tight_time,
            },
            separators=(",", ":"),
        )
        for r in trace
    ]
    return "\n".join(lines) + ("\n" if lines else "")
