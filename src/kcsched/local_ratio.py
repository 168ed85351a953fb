"""Local-ratio engine shared by every solver in the package.

Starting from the release dates (all zero without release dates), each
step finds the interval [r, t) with the largest residual demand,
splits the residual cost vector into a scaled model part (truncated
sizes of the jobs that could newly cover that interval) and a
remainder that stays nonnegative, and raises the due date of a job
whose remainder hit zero.  Once feasible, the due-date raises are
undone in reverse order whenever feasibility survives, and the
charging bound is asserted after every undo decision.  `finish` then
prices the surviving due dates and schedules them by EDD.

The scales are exactly the raised duals of the primal-dual scheme and
the undo pass is its reverse delete (Bar-Yehuda and Rawitz, 2005), so
`primal_dual.grow` and `prune` are views of this engine, the rounded
solver is the same view of an instance whose costs are rounded up to
be constant on the intervals of a partition, and `solve_release` is
the same run over several release dates, where the residual demand
lives on intervals [r, t) and the guarantee degrades to 4 kappa.  All
four solvers end in `reverse_delete` and `finish`; their `debug`
keyword adds the ledger assertions of `raise_due_dates`.

Why the run is polynomial.  Let S hold T, every release date, and
b - 1 for every breakpoint time b of the instance's costs.  Every due
date lies in S at all times, so the engine makes at most n * |S|
raises, however large T is.  Due dates start at the release dates.
A raise moves a due date to the right end of a residual piece,
which is T, a breakpoint - 1, or a charge threshold - 1.  A threshold
is a peak time t*, which is r + 1 for a release date r or d + 1 for a
due date d current at the time of its split; by induction both r and
d lie in S.  Each raise lifts one due date strictly, so every job
rises at most |S| times.  Every step visits only breakpoints, charge
thresholds, release dates and due dates, so its work does not depend
on T either.
"""

from __future__ import annotations

import json
from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from .edd import Schedule, peak_demand, preemptive_edd
from .errors import InfeasibleInstanceError
from .instance import INFEASIBLE, Instance

if TYPE_CHECKING:
    from .primal_dual import DualSolution
    from .rounding import RoundedInstance

__all__ = [
    "ResidualCosts",
    "Frame",
    "Outcome",
    "decompose",
    "raise_due_dates",
    "reverse_delete",
    "finish",
    "solve_local_ratio",
    "solve_release",
    "lr_trace_to_jsonl",
]


class ResidualCosts:
    """Residual cost vector on 1..T: the jobs' costs minus accumulated
    scaled model terms.

    Every subtracted model term is a single-threshold step, so each job
    carries a threshold-sorted list of (threshold, amount) charges and
    evaluation is the base cost minus the charges with threshold at or
    below t.  Values are exact rationals; an infeasible base value stays
    infeasible.
    """

    def __init__(self, inst: Instance):
        self.base = [job.cost for job in inst.jobs]
        self.horizon = inst.horizon
        self.charges: list[list[tuple[int, Fraction]]] = [[] for _ in inst.jobs]

    def value(self, job: int, t: int):
        base = self.base[job].value_at(t)
        if base is INFEASIBLE:
            return INFEASIBLE
        total = Fraction(base)
        for threshold, amount in self.charges[job]:
            if threshold <= t:
                total -= amount
        return total

    def pieces(self, job: int, start: int) -> list[tuple[Fraction, int]]:
        """(residual, right end) for each run of times from `start` on which
        the residual cost of `job` is constant, up to the first time with
        an infeasible base cost.  A run ends just before the next base
        breakpoint or charge threshold; the last run ends at T."""
        end = self.horizon
        charges = self.charges[job]
        cuts = {start}
        cuts.update(b for b in self.base[job].times if start < b <= end)
        cuts.update(th for th, _ in charges if start < th <= end)
        starts = sorted(cuts)
        paid = Fraction(0)
        k = 0
        out = []
        for i, s in enumerate(starts):
            f = self.base[job].value_at(s)
            if f is INFEASIBLE:
                break  # base costs nondecreasing: later times stay infeasible
            while k < len(charges) and charges[k][0] <= s:
                paid += charges[k][1]
                k += 1
            right = starts[i + 1] - 1 if i + 1 < len(starts) else end
            out.append((f - paid, right))
        return out

    def apply(self, frame: "Frame") -> None:
        if frame.alpha == 0:
            return
        for job, weight in frame.weights:
            if weight:
                insort(self.charges[job], (frame.t_star, frame.alpha * weight))

    def assert_nonnegative(self, jobs: tuple[int, ...]) -> None:
        for job in jobs:
            for v, right in self.pieces(job, 1):
                assert v >= 0, f"residual cost of job {job} negative up to {right}"


@dataclass(frozen=True)
class Frame:
    """One raise, the record of every solver's trace: the peak interval
    [r_star, t_star), its residual demand, the largest scale keeping the
    remainder nonnegative, the active jobs' weights, the tight pair, the
    raised job's due date before the raise, every due date at the split,
    and whether the reverse delete kept its undo (None until it runs)."""

    t_star: int
    demand: int
    alpha: Fraction
    weights: tuple[tuple[int, int], ...]  # (job, truncated size) for active jobs
    job: int
    time: int
    r_star: int
    old_due: int
    due_snapshot: tuple[int, ...]
    undo_kept: bool | None = None


def decompose(g: ResidualCosts, due: list[int], inst: Instance) -> Frame | None:
    """Split the residual costs at the interval [r_star, t_star) of maximum
    residual demand (r_star is 0 without release dates), or None when no
    interval carries demand.

    Active jobs are released inside the interval and due before t_star;
    their model coefficient is their size truncated to the interval's
    demand.  The scale is the smallest residual-cost-to-coefficient
    ratio over active jobs and times at or past t_star; the minimizing
    pair (largest time, then smallest job) is the one that goes tight."""
    d0, t_star, r_star = peak_demand(due, inst)
    if d0 == 0:
        return None
    weights = tuple(
        (j, min(job.p, d0))
        for j, job in enumerate(inst.jobs)
        if r_star <= job.release < t_star and due[j] < t_star
    )
    best: tuple[Fraction, int, int] | None = None  # (alpha, job, time)
    for j, w in weights:
        pieces = g.pieces(j, t_star)
        if not pieces:
            continue
        low = min(v for v, _ in pieces)
        alpha = low / w
        s = max(right for v, right in pieces if v == low)
        if best is None or alpha < best[0] or (alpha == best[0] and s > best[2]):
            best = (alpha, j, s)
    if best is None:
        raise InfeasibleInstanceError(
            f"instance infeasible under cost functions: no job can newly cover "
            f"interval [{r_star}, {t_star})"
        )
    alpha, job, time = best
    return Frame(t_star, d0, alpha, weights, job, time, r_star, due[job], tuple(due))


def raise_due_dates(
    g: ResidualCosts, inst: Instance, *, debug: bool = False
) -> tuple[list[Frame], list[int]]:
    """Split and raise from the release dates until no interval carries
    residual demand; returns the frames in order and the raised due
    dates.  `debug` asserts the ledger after every split: zero residual
    at each due date, nonnegative remainders, and a tight raised pair.
    The number of frames is asserted against the closure bound n * |S|
    of the module docstring."""
    n = inst.n
    due = [job.release for job in inst.jobs]
    frames: list[Frame] = []
    closure = {inst.horizon, *inst.release_dates}
    closure.update(b - 1 for f in g.base for b in f.times)
    max_depth = n * len(closure)
    while (frame := decompose(g, due, inst)) is not None:
        if debug:
            for j in range(n):
                assert g.value(j, due[j]) == 0
                assert due[j] >= inst.jobs[j].release
        frames.append(frame)
        g.apply(frame)
        if debug:
            g.assert_nonnegative(tuple(j for j, _ in frame.weights))
            assert g.value(frame.job, frame.time) == 0
        assert frame.time > frame.old_due
        due[frame.job] = frame.time
        assert len(frames) <= max_depth, "due dates must stay in the closure S"
    return frames, due


def reverse_delete(due: list[int], frames: Sequence[Frame], inst: Instance) -> list[Frame]:
    """Undo the raises of `frames` from the last to the first whenever no
    interval is left with residual demand; `due` ends as the
    pruned due dates.  Returns the frames with each decision in `undo_kept`.

    After each decision the charging bound of the paper is asserted for
    that frame: the jobs it could newly cover that still cover its
    interval have truncated sizes summing to at most 4 kappa times its
    demand, and no due date has fallen below the frame's snapshot.
    """
    kept = [False] * len(frames)
    for i in range(len(frames) - 1, -1, -1):
        frame = frames[i]
        job, time = frame.job, frame.time
        # Once a later raise of the job survived, undoing this one cannot
        # be feasible either: demands only grow as due dates fall.
        if due[job] == time:
            due[job] = frame.old_due
            kept[i] = peak_demand(due, inst)[0] == 0
            if not kept[i]:
                due[job] = time
        _charging_bound(frame, due, 4 * inst.kappa)
    return [replace(f, undo_kept=k) for f, k in zip(frames, kept)]


def _charging_bound(frame: Frame, due: list[int], factor: int) -> None:
    lhs = sum(w for j, w in frame.weights if frame.t_star <= due[j])
    assert lhs <= factor * frame.demand, (
        f"charging bound violated at t*={frame.t_star}: {lhs} > {factor} * {frame.demand}"
    )
    assert all(old <= d for old, d in zip(frame.due_snapshot, due))


@dataclass(frozen=True)
class Outcome:
    """What every solver returns: the due dates, what they cost, their
    EDD witness and the run's trace, its frames with their undo decided.
    The primal-dual and rounded solves add their dual and the certified
    ratio cost / dual (None when the dual is 0); the rounded solve adds
    the rounded instance it ran on."""

    due_dates: tuple[int, ...]
    assignment_cost: int
    schedule: Schedule
    trace: tuple[Frame, ...]
    dual: DualSolution | None = None
    ratio: Fraction | None = None
    rounded: RoundedInstance | None = None

    @property
    def cost(self) -> int:
        return self.schedule.total_cost

    primal_cost = cost  # read by the benchmark replay


def finish(
    due: Sequence[int],
    inst: Instance,
    trace: tuple[Frame, ...],
    dual: DualSolution | None = None,
    rounded: RoundedInstance | None = None,
) -> Outcome:
    """The last step of every solver: the cost of the due-date assignment,
    checked to be an integer, and its preemptive EDD witness, which is
    the EDD sequence when nothing is released after 0.  The witness never
    costs more than the assignment.  Given a dual, the 4x certificate is
    asserted: the assignment costs less than four times the dual, or both
    are 0 (and the ratio is None)."""
    due = tuple(due)
    assignment_cost = 0
    for j, job in enumerate(inst.jobs):
        v = job.cost.value_at(due[j])
        assert isinstance(v, int), f"job {j} due at {due[j]} has infeasible cost"
        assignment_cost += v
    schedule = preemptive_edd(due, inst)
    assert isinstance(schedule, Schedule), "feasible due dates must yield an EDD schedule"
    assert isinstance(schedule.total_cost, int) and schedule.total_cost <= assignment_cost
    ratio = None
    if dual is not None:
        assert assignment_cost < 4 * dual.value or assignment_cost == dual.value == 0
        ratio = Fraction(schedule.total_cost) / dual.value if dual.value else None
    return Outcome(due, assignment_cost, schedule, trace, dual, ratio, rounded)


def solve_local_ratio(inst: Instance, *, debug: bool = False) -> Outcome:
    """Local-ratio 4-approximation for instances without release dates."""
    if inst.has_releases:
        raise ValueError("solve_local_ratio requires an instance without release dates")
    return solve_release(inst, debug=debug)


def solve_release(inst: Instance, *, debug: bool = False) -> Outcome:
    """Local-ratio solve with release dates; cost within 4 kappa of optimum.

    Starts from the release-date vector itself (instance validation
    guarantees zero cost there) and raises due dates until no interval
    [r, t) carries residual demand, then undoes raises that feasibility
    can spare, asserting the 4 kappa charging bound per undo.  The
    returned schedule is the preemptive EDD witness.
    """
    frames, rho = raise_due_dates(ResidualCosts(inst), inst, debug=debug)
    return finish(rho, inst, tuple(reverse_delete(rho, frames, inst)))


def lr_trace_to_jsonl(trace: Sequence[Frame], *, release: bool = False) -> str:
    """Frames as JSON lines with bit-exact rationals, the local-ratio way;
    `release` adds the left end r_star of each peak interval."""
    lines = []
    for depth, f in enumerate(trace, 1):
        doc = {
            "depth": depth,
            "t_star": f.t_star,
            "alpha": f"{f.alpha.numerator}/{f.alpha.denominator}",
            "job": f.job,
            "s": f.time,
            "undo_kept": f.undo_kept,
        }
        if release:
            doc["r_star"] = f.r_star
        lines.append(json.dumps(doc, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
