"""Due-date feasibility and earliest-due-date-first schedule construction.

A due-date assignment maps each job to a completion deadline in [1, T]
(0 meaning unassigned).  Without release dates, feasibility means the
jobs due before each time t fit into the first t - 1 slots; with
release dates it means no interval [r, t) carries leftover demand, and
the witness schedule is preemptive EDD.  No function here walks the
horizon 1..T; each works on the jobs' release dates, due dates and
completions.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import InfeasibleAssignmentError
from .instance import Cost, Instance, cost_sum

__all__ = [
    "Schedule",
    "EddMiss",
    "feasible_assignment",
    "edd_schedule",
    "preemptive_edd",
]

DueDates = tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    """Machine timeline: disjoint (job, start, end) segments in [0, T]."""

    segments: tuple[tuple[int, int, int], ...]
    completions: tuple[int, ...]
    total_cost: Cost


@dataclass(frozen=True)
class EddMiss:
    """First job (by due date, then id) that preemptive EDD cannot finish on time."""

    job: int
    due: int


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def peak_demand(due: list[int] | DueDates, inst: Instance) -> tuple[int, int, int]:
    """(demand, t, r) maximizing the residual demand of [r, t) over release
    dates r and times t in 1..T; ties prefer the largest t, then the
    largest r.  (0, -1, -1) when every demand is zero.

    The demand falls with t between times where a job joins the
    interval's load, so only r + 1 and each due date + 1 can attain a
    maximum: one sorted sweep per release date.
    """
    by_due = sorted(range(inst.n), key=lambda j: due[j])
    best = (0, -1, -1)
    for r in inst.release_dates:
        members = [j for j in by_due if r <= inst.jobs[j].release <= due[j]]
        load = 0
        k = 0
        for t in [r + 1] + [due[j] + 1 for j in members]:
            if t > inst.horizon:
                break
            while k < len(members) and due[members[k]] < t:
                load += inst.jobs[members[k]].p
                k += 1
            d = r + load - t + 1
            if d > 0 and (d, t, r) > best:
                best = (d, t, r)
    return best


def _require_assigned(due: DueDates, inst: Instance) -> None:
    if len(due) != inst.n:
        raise ValueError(f"expected {inst.n} due dates, got {len(due)}")
    for j, d in enumerate(due):
        if d < 1:
            raise ValueError(f"job {j} has no due date assigned")
        if d > inst.horizon:
            raise ValueError(f"job {j} due date {d} beyond horizon {inst.horizon}")


def feasible_assignment(due: DueDates, inst: Instance) -> bool:
    """True iff some schedule finishes every job by its due date."""
    _require_assigned(due, inst)
    if any(due[j] < inst.jobs[j].release for j in range(inst.n)):
        # A job due before its release can never finish on time; the
        # interval criterion below assumes due >= release throughout.
        return False
    return peak_demand(due, inst)[0] == 0


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def edd_schedule(due: DueDates, inst: Instance) -> Schedule:
    """Nonpreemptive EDD schedule (no release dates, no idle time): with
    every job released at 0, preemptive EDD runs jobs whole in order of
    (due date, id).  An infeasible assignment raises with the first
    uncovered time, one past the due date of the first job that misses
    it, since every job before it met its own.
    """
    if inst.has_releases:
        raise ValueError("edd_schedule requires an instance without release dates")
    sched = preemptive_edd(due, inst)
    if isinstance(sched, EddMiss):
        raise InfeasibleAssignmentError(sched.due + 1)
    return sched


def preemptive_edd(due: DueDates, inst: Instance) -> Schedule | EddMiss:
    """Preemptive earliest-due-date sweep over [0, T].

    At every moment the released, unfinished job with the earliest due
    date (ties by id) runs.  Returns the schedule if all due dates are
    met, otherwise the first miss by (due date, id).  The sweep jumps
    from release to release and completion to completion, so its work
    does not depend on T.
    """
    _require_assigned(due, inst)
    remaining = inst.processing()
    completions = [0] * inst.n
    segments: list[tuple[int, int, int]] = []
    by_release = sorted(range(inst.n), key=lambda j: (inst.jobs[j].release, due[j], j))
    heap: list[tuple[int, int]] = []
    ptr = 0
    clock = 0
    done = 0
    while done < inst.n:
        while ptr < inst.n and inst.jobs[by_release[ptr]].release <= clock:
            j = by_release[ptr]
            heappush(heap, (due[j], j))
            ptr += 1
        if not heap:
            clock = inst.jobs[by_release[ptr]].release
            continue
        _, j = heappop(heap)
        end = clock + remaining[j]
        if ptr < inst.n:
            end = min(end, inst.jobs[by_release[ptr]].release)
        if segments and segments[-1][0] == j and segments[-1][2] == clock:
            segments[-1] = (j, segments[-1][1], end)  # resumed at once: one segment
        else:
            segments.append((j, clock, end))
        remaining[j] -= end - clock
        clock = end
        if remaining[j] == 0:
            completions[j] = clock
            done += 1
        else:
            heappush(heap, (due[j], j))
    missed = [j for j in range(inst.n) if completions[j] > due[j]]
    if missed:
        j = min(missed, key=lambda j: (due[j], j))
        return EddMiss(j, due[j])
    total = cost_sum(inst.jobs[j].cost.value_at(completions[j]) for j in range(inst.n))
    return Schedule(tuple(segments), tuple(completions), total)
