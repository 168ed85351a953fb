"""Interval-indexed reduction: cost classes anchored at their first
value, an instance whose costs are rounded up to be constant on the
partition intervals, and the primal-dual solve on that instance.

Per job, times are grouped into classes where the cost stays within a
factor 1 + epsilon of the class's first value, its anchor (class 0
holds the zero-cost times, infeasible times form a terminal class).
The union of class left endpoints over all jobs is the partition; the
rounded cost on an interval is the cost at its right end, which loses
at most a factor 1 + epsilon while the partition stays polynomially
small.  Opening a class costs one integer comparison, so the partition
is cheap at any epsilon.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InstanceError
from .instance import INFEASIBLE, Cost, CostFunction, Instance
from .local_ratio import Outcome, finish
from .primal_dual import grow, prune

__all__ = [
    "IntervalPartition",
    "RoundedInstance",
    "build_partition",
    "solve_rounded",
]


@dataclass(frozen=True)
class IntervalPartition:
    """Partition of 1..T: sorted left endpoints starting at 1; interval i is
    [points[i], points[i+1] - 1], the last one runs to the horizon."""

    epsilon: Fraction
    points: tuple[int, ...]
    horizon: int

    def intervals(self) -> list[tuple[int, int]]:
        out = []
        for i, left in enumerate(self.points):
            right = self.points[i + 1] - 1 if i + 1 < len(self.points) else self.horizon
            out.append((left, right))
        return out

    def right_end(self, left: int) -> int:
        idx = bisect_left(self.points, left)
        if idx == len(self.points) or self.points[idx] != left:
            raise ValueError(f"{left} is not a left endpoint of the partition")
        if idx + 1 < len(self.points):
            return self.points[idx + 1] - 1
        return self.horizon


def build_partition(inst: Instance, epsilon: Fraction | int | str) -> IntervalPartition:
    """Union over jobs of the class left endpoints, plus time 1.

    Write 1 + eps = a/b.  Per job, a class is anchored at its first
    value: a breakpoint value v opens a new class when the current
    anchor is 0 and v > 0, when v * b >= a * anchor, or when v is the
    first infeasible value; v then becomes the anchor.  Each test is one
    integer comparison, and no power of 1 + eps is ever computed.

    Why the bound holds.  Inside a job's positive class every value
    lies in [anchor, (1+eps) * anchor), the zero class holds only 0 and
    the terminal class only infeasible values.  The union grid refines
    every job's classes, so the modified cost f(right) of an interval is
    below (1+eps) * f(t) for every t in it (equal in the zero and
    infeasible classes), which is all the 4(1+eps) argument of
    `solve_rounded` uses.

    No job gets more classes than fixed geometric boundaries
    (1+eps)^k would give it.  Each new anchor is at least 1 + eps times
    the one before, so it lies in a strictly later geometric class.
    Hence the size bound tau <= sum_j (2 + log_{1+eps} f_j(T)) + 1
    holds.  This is per job only: the union of the jobs' points can
    differ from the geometric union either way.

    When eps * (largest finite cost) < 1, every distinct value is its
    own class under both rules: for integers v > u >= 1, v / u >= 1 + 1/u
    > 1 + eps.  Then the partition equals the geometric one.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InstanceError(f"epsilon must be positive, got {eps}")
    a, b = (1 + eps).as_integer_ratio()
    points = {1}
    for job in inst.jobs:
        anchor = 0
        for t, v in job.cost.breakpoints:
            if v is INFEASIBLE or (v * b >= a * anchor if anchor else v > 0):
                points.add(t)
                if v is INFEASIBLE:
                    break
                anchor = v
    return IntervalPartition(eps, tuple(sorted(points)), inst.horizon)


@dataclass(frozen=True)
class RoundedInstance:
    """Base instance plus `instance`, the same jobs with rounded costs: on
    each partition interval the cost is the base cost at the interval's
    right end, so f <= f' <= (1+eps) f holds pointwise."""

    base: Instance
    partition: IntervalPartition
    instance: Instance = field(init=False)

    def __post_init__(self) -> None:
        jobs = []
        for job in self.base.jobs:
            pairs: list[tuple[int, Cost]] = []
            prev: Cost = 0
            for left, right in self.partition.intervals():
                v = job.cost.value_at(right)
                if v != prev:
                    pairs.append((left, v))
                    prev = v
            jobs.append(replace(job, cost=CostFunction(tuple(pairs))))
        object.__setattr__(self, "instance", Instance(tuple(jobs)))

    @property
    def cost_funcs(self) -> tuple[CostFunction, ...]:
        return tuple(job.cost for job in self.instance.jobs)


def solve_rounded(
    inst: Instance, epsilon: Fraction | int | str, *, debug: bool = False
) -> Outcome:
    """Primal-dual solve on the rounded instance, the paper's reduction.

    The engine's due dates are interval right ends, where the base cost
    equals the rounded cost paid; the trace gives interval left ends.
    The schedule costs at most four times the rounded dual, itself
    within 1 + epsilon of certifying the optimum.
    """
    partition = build_partition(inst, epsilon)
    rounded = RoundedInstance(inst, partition)
    state, dual, trace = grow(rounded.instance, times=partition.points, debug=debug)
    compressed = prune(state, rounded.instance)
    due = tuple(partition.right_end(t) for t in compressed)
    for j, job in enumerate(rounded.instance.jobs):
        assert job.cost.value_at(compressed[j]) == inst.jobs[j].cost.value_at(due[j])
    return finish(due, inst, trace, dual, rounded)
