"""Local-ratio engine shared by every solver in the package.

Starting from the release dates (all zero without release dates), each
step finds the interval [r, t) with the largest residual demand on a
time grid, splits the residual cost vector into a scaled model part
(truncated sizes of the jobs that could newly cover that interval) and
a remainder that stays nonnegative, and raises the due date of a job
whose remainder hit zero.  Once feasible, the due-date raises are
undone in reverse order whenever feasibility survives.

The scales are exactly the raised duals of the primal-dual scheme and
the undo pass is its reverse delete (Bar-Yehuda and Rawitz, 2005), so
`primal_dual.grow` and `prune` are views of this engine on the grid
1..T or on a compressed grid, and `release.solve_release` is the same
run over several release dates.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .edd import Schedule, edd_schedule, peak_demand, preemptive_edd
from .errors import InfeasibleInstanceError
from .instance import INFEASIBLE, CostFunction, Instance

__all__ = [
    "ResidualCosts",
    "Decomposition",
    "LocalRatioRecord",
    "LocalRatioOutcome",
    "decompose",
    "raise_due_dates",
    "reverse_delete",
    "solve_local_ratio",
    "lr_trace_to_jsonl",
]


class ResidualCosts:
    """Residual cost vector on a time grid: base costs minus accumulated
    scaled model terms.

    The base costs are the jobs' own unless `cost_funcs` replaces them,
    and the grid is 1..T unless `times` gives a sorted subset of it.
    Every subtracted model term is a single-threshold step, so each job
    carries a threshold-sorted list of (threshold, amount) charges and
    evaluation is the base cost minus the charges with threshold at or
    below t.  Values are exact rationals; an infeasible base value stays
    infeasible.
    """

    def __init__(
        self,
        inst: Instance,
        cost_funcs: Sequence[CostFunction] | None = None,
        times: Sequence[int] | None = None,
    ):
        self.base = [job.cost for job in inst.jobs] if cost_funcs is None else list(cost_funcs)
        self.times = range(1, inst.horizon + 1) if times is None else tuple(times)
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
        """(residual, right end) for each run of grid times from `start` on
        which the residual cost of `job` is constant, up to the first time
        with an infeasible base cost.  A run's right end is the last grid
        time before the next base breakpoint or charge threshold; the last
        run ends at the end of the grid."""
        grid = self.times
        end = grid[-1]
        charges = self.charges[job]
        cuts = {start}
        cuts.update(b for b in self.base[job].times if start < b <= end)
        cuts.update(th for th, _ in charges if start < th <= end)
        starts = sorted({bisect_left(grid, c) for c in cuts})
        paid = Fraction(0)
        k = 0
        out = []
        for i, pos in enumerate(starts):
            s = grid[pos]
            f = self.base[job].value_at(s)
            if f is INFEASIBLE:
                break  # base costs nondecreasing: later times stay infeasible
            while k < len(charges) and charges[k][0] <= s:
                paid += charges[k][1]
                k += 1
            right = grid[starts[i + 1] - 1] if i + 1 < len(starts) else end
            out.append((f - paid, right))
        return out

    def apply(self, dec: "Decomposition") -> None:
        if dec.alpha == 0:
            return
        for job, weight in dec.weights:
            if weight:
                insort(self.charges[job], (dec.t_star, dec.alpha * weight))

    def assert_nonnegative(self, jobs: tuple[int, ...]) -> None:
        for job in jobs:
            for v, right in self.pieces(job, self.times[0]):
                assert v >= 0, f"residual cost of job {job} negative up to {right}"


@dataclass(frozen=True)
class Decomposition:
    """One cost split: peak interval [r_star, t_star), residual demand
    there, the largest scale keeping the remainder nonnegative, and the
    pair that went tight."""

    t_star: int
    demand: int
    alpha: Fraction
    weights: tuple[tuple[int, int], ...]  # (job, truncated size) for active jobs
    job: int
    time: int
    r_star: int


def decompose(g: ResidualCosts, due: list[int], inst: Instance) -> Decomposition:
    """Split the residual costs at the interval of maximum residual demand
    on the grid of `g`; `r_star` is 0 without release dates."""
    d0, t_star, r_star = peak_demand(due, inst, g.times)
    if d0 == 0:
        raise ValueError("decompose requires an infeasible assignment")
    return _split(g, due, inst, d0, t_star, r_star)


def _split(
    g: ResidualCosts, due: list[int], inst: Instance, d0: int, t_star: int, r_star: int
) -> Decomposition:
    """Active jobs are released inside [r_star, t_star) and due before
    t_star; their model coefficient is their size truncated to the
    interval's demand.  The scale is the smallest residual-cost-to-
    coefficient ratio over active jobs and grid times at or past t_star;
    the minimizing pair (largest time, then smallest job) is returned."""
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
    return Decomposition(t_star, d0, alpha, weights, job, time, r_star)


@dataclass(frozen=True)
class _Frame:
    dec: Decomposition
    old_due: int
    due_snapshot: tuple[int, ...]


def raise_due_dates(
    g: ResidualCosts, inst: Instance, *, check: bool
) -> tuple[list[_Frame], list[int]]:
    """Split and raise from the release dates until no interval on the
    grid of `g` carries residual demand; returns the frames in order and
    the raised due dates."""
    n = inst.n
    due = [job.release for job in inst.jobs]
    frames: list[_Frame] = []
    max_depth = n * len(g.times)
    while True:
        d0, t_star, r_star = peak_demand(due, inst, g.times)
        if d0 == 0:
            return frames, due
        if check:
            for j in range(n):
                assert g.value(j, due[j]) == 0
                assert due[j] >= inst.jobs[j].release
        dec = _split(g, due, inst, d0, t_star, r_star)
        frames.append(_Frame(dec, due[dec.job], tuple(due)))
        g.apply(dec)
        if check:
            g.assert_nonnegative(tuple(j for j, _ in dec.weights))
            assert g.value(dec.job, dec.time) == 0
        assert dec.time > due[dec.job]
        due[dec.job] = dec.time
        assert len(frames) <= max_depth, "due dates must rise every call"


def reverse_delete(
    due: list[int],
    raises: Sequence[tuple[int, int, int]],
    inst: Instance,
    times: Sequence[int] | None = None,
    audit: Callable[[int, list[int]], None] | None = None,
) -> list[bool]:
    """Undo the raises (job, time, old due date) from the last to the
    first whenever no interval on the grid is left with residual demand;
    `due` ends as the pruned due dates.  Returns whether each undo was
    kept, and calls `audit(index, due)` after each decision."""
    kept = [False] * len(raises)
    for i in range(len(raises) - 1, -1, -1):
        job, time, old = raises[i]
        # Once a later raise of the job survived, undoing this one cannot
        # be feasible either: demands only grow as due dates fall.
        if due[job] == time:
            due[job] = old
            kept[i] = peak_demand(due, inst, times)[0] == 0
            if not kept[i]:
                due[job] = time
        if audit is not None:
            audit(i, due)
    return kept


@dataclass(frozen=True)
class LocalRatioRecord:
    depth: int
    t_star: int
    alpha: Fraction
    job: int
    time: int
    undo_kept: bool
    r_star: int | None = None


@dataclass(frozen=True)
class LocalRatioOutcome:
    due_dates: tuple[int, ...]
    assignment_cost: int
    schedule: Schedule
    cost: int
    trace: tuple[LocalRatioRecord, ...]


def _charging_bound(frame: _Frame, rho: list[int], factor: int) -> None:
    lhs = 0
    for j, w in frame.dec.weights:
        if frame.dec.t_star <= rho[j]:
            lhs += w
    assert lhs <= factor * frame.dec.demand, (
        f"charging bound violated at t*={frame.dec.t_star}: {lhs} > "
        f"{factor} * {frame.dec.demand}"
    )


def solve_local_ratio(inst: Instance, *, check: bool = True) -> LocalRatioOutcome:
    """Local-ratio 4-approximation for instances without release dates."""
    if inst.has_releases:
        raise ValueError("solve_local_ratio requires an instance without release dates")
    return _solve(inst, check=check, release=False)


def _solve(inst: Instance, *, check: bool, release: bool) -> LocalRatioOutcome:
    """Engine run on the grid 1..T with the 4 kappa charging bound checked
    per undo; release runs keep r_star in the trace and return the
    preemptive EDD witness."""
    frames, rho = raise_due_dates(ResidualCosts(inst), inst, check=check)

    def audit(depth: int, rho: list[int]) -> None:
        _charging_bound(frames[depth], rho, 4 * inst.kappa)
        assert all(frames[depth].due_snapshot[j] <= rho[j] for j in range(inst.n))

    raises = [(f.dec.job, f.dec.time, f.old_due) for f in frames]
    kept = reverse_delete(rho, raises, inst, audit=audit if check else None)
    trace = tuple(
        LocalRatioRecord(
            depth + 1, f.dec.t_star, f.dec.alpha, f.dec.job, f.dec.time,
            kept[depth], f.dec.r_star if release else None,
        )
        for depth, f in enumerate(frames)
    )

    assignment_cost = 0
    for j in range(inst.n):
        v = inst.jobs[j].cost.value_at(rho[j])
        assert isinstance(v, int)
        assignment_cost += v
    if release:
        schedule = preemptive_edd(tuple(rho), inst)
        assert isinstance(schedule, Schedule), "feasible due dates must yield a preemptive schedule"
    else:
        schedule = edd_schedule(tuple(rho), inst)
    cost = schedule.total_cost
    assert isinstance(cost, int) and cost <= assignment_cost
    return LocalRatioOutcome(tuple(rho), assignment_cost, schedule, cost, trace)


def lr_trace_to_jsonl(trace: tuple[LocalRatioRecord, ...]) -> str:
    lines = []
    for r in trace:
        doc = {
            "depth": r.depth,
            "t_star": r.t_star,
            "alpha": f"{r.alpha.numerator}/{r.alpha.denominator}",
            "job": r.job,
            "s": r.time,
            "undo_kept": r.undo_kept,
        }
        if r.r_star is not None:
            doc["r_star"] = r.r_star
        lines.append(json.dumps(doc, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
