"""Due-date feasibility and earliest-due-date-first schedule construction.

A due-date assignment maps each job to a completion deadline in [1, T]
(0 meaning unassigned).  Without release dates, feasibility means the
jobs due before each time t fit into the first t - 1 slots; with
release dates it means no interval [r, t) carries leftover demand, and
the witness schedule is preemptive EDD.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
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
    "schedule_to_json",
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


def schedule_to_json(sched: Schedule) -> dict:
    return {
        "segments": [[j, s, e] for j, s, e in sched.segments],
        "completions": list(sched.completions),
        "cost": "INF" if not isinstance(sched.total_cost, int) else sched.total_cost,
    }


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def base_demands_covered(due: list[int] | DueDates, inst: Instance) -> bool:
    """No-release feasibility: for every t, sum of p over jobs due before t
    fits in t - 1 slots.  Due date 0 is allowed and covers nothing."""
    order = sorted(range(inst.n), key=lambda j: due[j])
    cum = 0
    idx = 0
    while idx < inst.n:
        v = due[order[idx]]
        while idx < inst.n and due[order[idx]] == v:
            cum += inst.jobs[order[idx]].p
            idx += 1
        if v < inst.horizon and cum > v:
            return False
    return True


def interval_residual_demand(r: int, t: int, due: list[int] | DueDates, inst: Instance) -> int:
    """Residual demand of interval [r, t): work released at or after r whose
    due date has it finish before t, measured against the room up to t."""
    load = sum(
        job.p for job in inst.jobs if r <= job.release <= due[job.id] < t
    )
    return max(r + load - t + 1, 0)


def peak_demand(
    due: list[int] | DueDates, inst: Instance, times: Sequence[int] | None = None
) -> tuple[int, int, int]:
    """(demand, t, r) maximizing the residual demand of [r, t) over release
    dates r and times t on the sorted grid `times` (default 1..T); ties
    prefer the largest t, then the largest r.  (0, -1, -1) when every
    demand is zero.

    The demand falls with t between times where a job joins the
    interval's load, so only the first grid time at or after r + 1 and
    after each due date + 1 can attain a maximum: one sorted sweep per
    release date.
    """
    grid = range(1, inst.horizon + 1) if times is None else times
    by_due = sorted(range(inst.n), key=lambda j: due[j])
    best = (0, -1, -1)
    for r in inst.release_dates:
        members = [j for j in by_due if r <= inst.jobs[j].release <= due[j]]
        load = 0
        k = 0
        for start in [r + 1] + [due[j] + 1 for j in members]:
            if start > grid[-1]:
                break
            t = grid[bisect_left(grid, start)]
            while k < len(members) and due[members[k]] < t:
                load += inst.jobs[members[k]].p
                k += 1
            d = r + load - t + 1
            if d > 0 and (d, t, r) > best:
                best = (d, t, r)
    return best


def all_interval_demands_zero(due: list[int] | DueDates, inst: Instance) -> bool:
    return peak_demand(due, inst)[0] == 0


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
    if not inst.has_releases:
        return base_demands_covered(due, inst)
    return all_interval_demands_zero(due, inst)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def _first_uncovered_time(due: DueDates, inst: Instance) -> int:
    cover = [0] * (inst.horizon + 2)
    for j, d in enumerate(due):
        if d >= 1:
            cover[min(d, inst.horizon)] += inst.jobs[j].p
    suffix = 0
    best = inst.horizon + 1
    for t in range(inst.horizon, 0, -1):
        suffix += cover[t]
        if suffix < inst.horizon - t + 1:
            best = t
    return best


def edd_schedule(due: DueDates, inst: Instance) -> Schedule:
    """Nonpreemptive EDD schedule (no release dates, no idle time).

    Jobs run in order of (due date, id); every completion lands at or
    before its due date, so the total cost never exceeds the cost of
    the assignment itself.
    """
    if inst.has_releases:
        raise ValueError("edd_schedule requires an instance without release dates")
    _require_assigned(due, inst)
    order = sorted(range(inst.n), key=lambda j: (due[j], j))
    completions = [0] * inst.n
    segments = []
    clock = 0
    for j in order:
        start = clock
        clock += inst.jobs[j].p
        completions[j] = clock
        segments.append((j, start, clock))
        if clock > due[j]:
            raise InfeasibleAssignmentError(_first_uncovered_time(due, inst))
    total = cost_sum(inst.jobs[j].cost.value_at(completions[j]) for j in range(inst.n))
    return Schedule(tuple(segments), tuple(completions), total)


def _merge_segments(raw: list[tuple[int, int, int]]) -> tuple[tuple[int, int, int], ...]:
    merged: list[tuple[int, int, int]] = []
    for j, s, e in raw:
        if merged and merged[-1][0] == j and merged[-1][2] == s:
            merged[-1] = (j, merged[-1][1], e)
        else:
            merged.append((j, s, e))
    return tuple(merged)


def _preemptive_unit_sweep(due: DueDates, inst: Instance) -> tuple[list, list[int]]:
    remaining = inst.processing()
    completions = [0] * inst.n
    segments = []
    unfinished = inst.n
    t = 0
    while unfinished and t < inst.horizon:
        pick = -1
        for j in range(inst.n):
            if remaining[j] and inst.jobs[j].release <= t:
                if pick < 0 or (due[j], j) < (due[pick], pick):
                    pick = j
        if pick >= 0:
            segments.append((pick, t, t + 1))
            remaining[pick] -= 1
            if remaining[pick] == 0:
                completions[pick] = t + 1
                unfinished -= 1
        t += 1
    assert unfinished == 0
    return segments, completions


def _preemptive_event_sweep(due: DueDates, inst: Instance) -> tuple[list, list[int]]:
    remaining = inst.processing()
    completions = [0] * inst.n
    segments = []
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
        segments.append((j, clock, end))
        remaining[j] -= end - clock
        clock = end
        if remaining[j] == 0:
            completions[j] = clock
            done += 1
        else:
            heappush(heap, (due[j], j))
    return segments, completions


def preemptive_edd(
    due: DueDates, inst: Instance, *, unit_sweep: bool = False
) -> Schedule | EddMiss:
    """Preemptive earliest-due-date sweep over [0, T].

    At every moment the released, unfinished job with the earliest due
    date (ties by id) runs.  Returns the schedule if all due dates are
    met, otherwise the first miss by (due date, id).  The unit-time
    sweep is the reference implementation; the default event-driven
    sweep is semantically identical.
    """
    _require_assigned(due, inst)
    if unit_sweep:
        raw, completions = _preemptive_unit_sweep(due, inst)
    else:
        raw, completions = _preemptive_event_sweep(due, inst)
    missed = [j for j in range(inst.n) if completions[j] > due[j]]
    if missed:
        j = min(missed, key=lambda j: (due[j], j))
        return EddMiss(j, due[j])
    total = cost_sum(inst.jobs[j].cost.value_at(completions[j]) for j in range(inst.n))
    return Schedule(_merge_segments(raw), tuple(completions), total)
