from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcsched.edd import (
    EddMiss,
    Schedule,
    edd_schedule,
    feasible_assignment,
    preemptive_edd,
)
from kcsched.errors import InfeasibleAssignmentError
from kcsched.generators import RandomSpec, gen_random
from kcsched.instance import CostFunction, Instance, Job, cost_sum

from conftest import instances


def _two_jobs(p0, p1, r0=0, r1=0):
    return Instance((Job(0, p0, CostFunction(()), r0), Job(1, p1, CostFunction(()), r1)))


def unit_sweep_edd(due, inst):
    """Dense oracle for `preemptive_edd`: one time unit at a time over
    [0, T], running the released unfinished job of earliest (due, id)."""
    remaining = inst.processing()
    completions = [0] * inst.n
    segments = []
    for t in range(inst.horizon):
        ready = [j for j in range(inst.n) if remaining[j] and inst.jobs[j].release <= t]
        if not ready:
            continue
        j = min(ready, key=lambda j: (due[j], j))
        if segments and segments[-1][0] == j and segments[-1][2] == t:
            segments[-1] = (j, segments[-1][1], t + 1)
        else:
            segments.append((j, t, t + 1))
        remaining[j] -= 1
        if remaining[j] == 0:
            completions[j] = t + 1
    assert not any(remaining)
    missed = [j for j in range(inst.n) if completions[j] > due[j]]
    if missed:
        j = min(missed, key=lambda j: (due[j], j))
        return EddMiss(j, due[j])
    total = cost_sum(inst.jobs[j].cost.value_at(completions[j]) for j in range(inst.n))
    return Schedule(tuple(segments), tuple(completions), total)


def first_uncovered_time(due, inst):
    """Dense oracle: the smallest t whose demand T - t + 1 exceeds the
    size of the jobs due at or after t, or T + 1 if there is none."""
    T = inst.horizon
    for t in range(1, T + 1):
        if sum(job.p for job in inst.jobs if due[job.id] >= t) < T - t + 1:
            return t
    return T + 1


def test_feasible_examples(pair_instance):
    assert feasible_assignment((3, 2), pair_instance) is True
    inst = _two_jobs(2, 2)
    assert feasible_assignment((1, 1), inst) is False


def test_feasible_rejects_unassigned(pair_instance):
    with pytest.raises(ValueError):
        feasible_assignment((0, 2), pair_instance)


def test_feasible_due_before_release_is_infeasible():
    inst = _two_jobs(2, 1, r0=0, r1=3)
    # job 1 cannot finish by time 2: released at 3
    assert feasible_assignment((4, 2), inst) is False


def test_edd_schedule_pair(pair_instance):
    # order oracle: enumerate both sequences and keep the cheaper cost
    costs = []
    for order in itertools.permutations(range(2)):
        clock = 0
        total = []
        for j in order:
            clock += pair_instance.jobs[j].p
            total.append(pair_instance.jobs[j].cost.value_at(clock))
        costs.append(cost_sum(total))
    assert sorted(costs) == [3, 6]

    sched = edd_schedule((3, 2), pair_instance)
    assert sched.completions == (3, 2)
    assert sched.total_cost == 3 == min(costs)


def test_edd_schedule_tight_tie_orders(tight4):
    due = (11, 11, 16, 16)
    # any ordering of equal due dates costs the same here
    for perm in itertools.permutations(range(4)):
        if sorted(due[j] for j in perm) != [due[j] for j in perm]:
            continue
        clock = 0
        total = 0
        for j in perm:
            clock += 4
            v = tight4.jobs[j].cost.value_at(clock)
            assert isinstance(v, int)
            total += v
        assert total == 16
    sched = edd_schedule(due, tight4)
    assert sched.completions == (4, 8, 12, 16)
    assert sched.total_cost == 16


def test_edd_single_job():
    inst = Instance((Job(0, 1, CostFunction(())),))
    sched = edd_schedule((1,), inst)
    assert sched.completions == (1,)
    assert sched.segments == ((0, 0, 1),)


def test_edd_infeasible_reports_first_violated_time():
    inst = _two_jobs(2, 2)
    with pytest.raises(InfeasibleAssignmentError) as info:
        edd_schedule((1, 1), inst)
    assert info.value.time == 2


def test_edd_infeasible_time_is_the_dense_first_uncovered_time():
    # every due vector of small no-release instances: the schedule, or the
    # miss, equals the dense unit sweep's, and a miss names the dense first
    # uncovered time
    misses = 0
    for seed in range(20):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 3 + 1, p_max=3))
        for due in itertools.product(range(1, inst.horizon + 1), repeat=inst.n):
            dense = unit_sweep_edd(due, inst)
            try:
                assert edd_schedule(due, inst) == dense, (seed, due)
                got = inst.horizon + 1
            except InfeasibleAssignmentError as exc:
                assert isinstance(dense, EddMiss) and exc.time == dense.due + 1
                got = exc.time
                misses += 1
            assert got == first_uncovered_time(due, inst), (seed, due)
    assert misses == 1438


def test_edd_no_idle(tight4):
    sched = edd_schedule((11, 11, 16, 16), tight4)
    clock = 0
    for _, start, end in sched.segments:
        assert start == clock
        clock = end
    assert clock == tight4.total_processing


def test_preemptive_example_with_release():
    inst = _two_jobs(2, 1, r0=0, r1=1)
    sched = preemptive_edd((3, 2), inst)
    assert isinstance(sched, Schedule)
    assert sched.segments == ((0, 0, 1), (1, 1, 2), (0, 2, 3))
    assert sched.completions == (3, 2)


def test_preemptive_miss_reported():
    inst = Instance((Job(0, 2, CostFunction(()), 2),))
    out = preemptive_edd((3,), inst)
    assert out == EddMiss(job=0, due=3)


@settings(max_examples=60, deadline=None)
@given(instances(releases=True), st.randoms(use_true_random=False))
def test_feasibility_criterion_equals_simulation(inst, rng):
    due = tuple(rng.randint(1, inst.horizon) for _ in range(inst.n))
    by_criterion = feasible_assignment(due, inst)
    sim = preemptive_edd(due, inst)
    assert by_criterion == isinstance(sim, Schedule)
    assert sim == unit_sweep_edd(due, inst)


@settings(max_examples=60, deadline=None)
@given(instances(releases=True), st.randoms(use_true_random=False))
def test_preemptive_schedule_well_formed(inst, rng):
    due = tuple(rng.randint(1, inst.horizon) for _ in range(inst.n))
    sched = preemptive_edd(due, inst)
    if isinstance(sched, EddMiss):
        return
    run = [0] * inst.n
    clock = -1
    for j, start, end in sched.segments:
        assert 0 <= start < end <= inst.horizon
        assert start >= clock  # disjoint, ordered
        clock = end
        assert start >= inst.jobs[j].release
        run[j] += end - start
    assert run == inst.processing()


def test_edd_cost_never_exceeds_assignment_cost():
    for seed in range(80):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=4, v_max=9))
        rng = random.Random(seed)
        due = sorted(rng.randint(1, inst.horizon) for _ in range(inst.n))
        # make the assignment feasible by pushing due dates late enough
        clock = 0
        fixed = []
        order = sorted(range(inst.n), key=lambda j: due[j])
        for j in order:
            clock += inst.jobs[j].p
            fixed.append((j, max(due[j], clock)))
        vec = [0] * inst.n
        for j, d in fixed:
            vec[j] = d
        sched = edd_schedule(tuple(vec), inst)
        assigned = cost_sum(inst.jobs[j].cost.value_at(vec[j]) for j in range(inst.n))
        assert sched.total_cost <= assigned
