"""Primal-dual solver over the knapsack-cover strengthened covering LP.

The growing phase repeatedly raises the dual variable of the time with
the largest residual demand until some job's dual constraint becomes
tight, committing that (job, time) completion pair.  The pruning phase
re-examines committed pairs in reverse, dropping any whose removal
keeps every demand covered.  The raised duals form an exact rational
certificate: the surviving due dates cost less than four times the
dual value, and their EDD schedule costs no more than the due dates.

Both phases are views of the engine in `local_ratio`: the raised duals
are its local-ratio scales, pruning is its reverse delete, which
asserts the charging bound per undo, and the schedule comes from its
`finish`.  The certificate checkers below share no code with the
engine, so they re-derive every claim from the dual alone.  All dual
values and slacks are exact `fractions.Fraction`s; tightness tests are
equalities, so floating point is never used.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

from .edd import _require_assigned, peak_demand
from .instance import (
    INFEASIBLE,
    Cost,
    CostFunction,
    Instance,
    JobSet,
    residual_demand,
)
from .local_ratio import Frame, Outcome, ResidualCosts, finish, raise_due_dates, reverse_delete

__all__ = [
    "DualEntry",
    "DualSolution",
    "GrowRecord",
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
    per job: the largest committed time.  Each engine frame commits the
    pair (frame.job, frame.time) over the frontier frame.old_due.
    `times` is the grid on which the records and `prune` report times.
    """

    frontier: list[int]
    frames: list[Frame]
    times: Sequence[int]


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
    Terminates when every residual demand is zero.  `debug` turns on the
    engine's ledger assertions and checks the final dual, which bounds
    every prefix; the prefixes are scanned only to name a failure.

    A sorted grid `times` that starts at 1 and holds every breakpoint of
    the costs keeps them constant on its intervals, so every peak time
    is a grid point and every raise lands on an interval's right end;
    the records and `prune` report each time as its interval's left end.
    `cost_funcs` runs the engine on the jobs of `inst` with those costs
    instead of their own.
    """
    if cost_funcs is not None:
        jobs = zip(inst.jobs, cost_funcs, strict=True)
        inst = Instance(tuple(replace(j, cost=f) for j, f in jobs))
    if inst.has_releases:
        raise ValueError("grow requires an instance without release dates")
    g = ResidualCosts(inst)
    times = range(1, inst.horizon + 1) if times is None else tuple(times)
    if 1 not in times[:1] or any(snap_left(times, b) != b for f in g.base for b in f.times):
        raise ValueError("grow needs a grid that starts at 1 and holds every cost breakpoint")
    frames, frontier = raise_due_dates(g, inst, debug=debug)
    entries: list[DualEntry] = []
    records: list[GrowRecord] = []
    for f in frames:
        covered = JobSet.from_ids(
            (j for j, due in enumerate(f.due_snapshot) if due >= f.t_star), inst
        )
        entries.append(DualEntry(f.t_star, covered, f.alpha))
        tight = snap_left(times, f.time)
        records.append(
            GrowRecord(len(records) + 1, f.t_star, covered, f.demand, f.alpha, f.job, tight)
        )
    if debug:
        # With every alpha >= 0, each left side only grows with the
        # prefix, so every prefix is feasible iff the full dual is.  The
        # prefixes are scanned only to name the first infeasible one.
        for k, e in enumerate(entries, 1):
            assert e.y >= 0, f"negative dual step {e.y} at iteration {k}"

        def prefix_report(k: int) -> DualFeasibilityReport:
            dual = DualSolution.from_entries(entries[:k], inst)
            return check_dual_feasible(dual, inst)

        if not prefix_report(len(entries)).feasible:
            for k in range(1, len(entries) + 1):
                report = prefix_report(k)
                assert report.feasible, f"dual infeasible after iteration {k}: {report.violation}"
    state = GrowState(frontier, frames, times)
    return state, DualSolution.from_entries(entries, inst), tuple(records)


def prune(state: GrowState, inst: Instance) -> tuple[int, ...]:
    """Reverse-delete: drop committed pairs whose removal keeps every
    demand covered; each job ends up with exactly one due date, reported
    as the left endpoint of its interval on the grid of `state`.  The
    engine's reverse delete asserts the charging bound per undo."""
    due = list(state.frontier)
    reverse_delete(due, state.frames, inst)
    assert all(d >= 1 for d in due), "pruning must leave exactly one pair per job"
    assert peak_demand(due, inst)[0] == 0
    return tuple(snap_left(state.times, d) for d in due)


def snap_left(points: Sequence[int], t: int) -> int:
    """The largest of the sorted `points` at or below t."""
    return points[bisect_right(points, t) - 1]


def solve_primal_dual(inst: Instance, *, debug: bool = False) -> Outcome:
    """Run growing, pruning, and EDD; `finish` asserts the 4x certificate."""
    state, dual, trace = grow(inst, debug=debug)
    return finish(prune(state, inst), inst, trace, dual)


# ---------------------------------------------------------------------------
# Certificate checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualFeasibilityReport:
    feasible: bool
    violation: tuple[int, int, Fraction, Cost] | None = None  # (job, s, lhs, rhs)


def check_dual_feasible(dual: DualSolution, inst: Instance) -> DualFeasibilityReport:
    """Verify every dual constraint with exact rationals.

    For each job j and time s in 1..T, the weighted sum of raised duals
    whose time is at most s and whose set excludes j must stay at or
    below the job's cost at s; infeasible right-hand sides are vacuous.
    Reports the first violation in (job, s) scan order.

    The left side only changes at a dual entry time, and the cost is
    nonnegative and never falls.  So a violation at s also holds at the
    last entry time at or before s, and only entry times are visited.
    """
    for j in range(inst.n):
        events = sorted(
            (e.t, e.y * min(inst.jobs[j].p, residual_demand(e.t, e.covered, inst)))
            for e in dual.entries
            if not e.covered.contains(j)
        )
        lhs = Fraction(0)
        idx = 0
        for s in sorted({t for t, _ in events if t <= inst.horizon}):
            while idx < len(events) and events[idx][0] <= s:
                lhs += events[idx][1]
                idx += 1
            rhs = inst.jobs[j].cost.value_at(s)
            if rhs is INFEASIBLE:
                continue
            if lhs > rhs:
                return DualFeasibilityReport(False, (j, s, lhs, rhs))
    return DualFeasibilityReport(True)


def _truncated_cover(e: DualEntry, due: Sequence[int], inst: Instance) -> tuple[int, int]:
    """(cover, D) for the entry's set A and time t: D is the residual
    demand of (t, A) and cover the truncated size sum, over jobs outside
    A due at or after t, of min(p_j, D)."""
    d = residual_demand(e.t, e.covered, inst)
    cover = sum(
        min(job.p, d)
        for job in inst.jobs
        if not e.covered.contains(job.id) and due[job.id] >= e.t
    )
    return cover, d


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

    Base coverage at t, the size of the jobs due at or after t, only
    drops right after a due date while the demand T - t + 1 falls by one
    per step.  So it is checked at t = 1 and at each due date + 1 within
    the horizon, and a base violation is reported at the first time of
    each uncovered run.  All base demands are thereby checked exactly,
    and that decides every
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
    _require_assigned(due, inst)
    T = inst.horizon
    p = inst.processing()
    violations = []
    by_due = sorted(range(inst.n), key=lambda j: due[j])
    lhs = inst.total_processing
    k = 0
    for t in sorted({1, *(d + 1 for d in due if d < T)}):
        while k < inst.n and due[by_due[k]] < t:
            lhs -= p[by_due[k]]
            k += 1
        if lhs < T - t + 1:
            violations.append((t, None, lhs, T - t + 1))
    for e in dual.entries if dual is not None else ():
        lhs, rhs = _truncated_cover(e, due, inst)
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
    _require_assigned(due, inst)
    for e in dual.entries:
        if e.y == 0:
            continue
        lhs, d = _truncated_cover(e, due, inst)
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
