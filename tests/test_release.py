from __future__ import annotations

import random

import pytest

from kcsched.edd import (
    Schedule,
    feasible_assignment,
    peak_demand,
    preemptive_edd,
)
from kcsched.errors import InstanceError
from kcsched.generators import RandomSpec, gen_random
from kcsched.instance import CostFunction, Instance, Job
from kcsched.local_ratio import ResidualCosts, decompose, solve_local_ratio, solve_release
from kcsched.oracle import exact_opt, exact_opt_release


def release_suite(count, seed_base=0):
    out = []
    for seed in range(count):
        spec = RandomSpec(
            seed=seed_base + seed,
            n=seed % 4 + 1,
            p_max=2,
            max_breakpoints=3,
            v_max=9,
            kappa=seed % 3 + 1,
        )
        out.append(gen_random(spec))
    return out


def brute_interval_demand(r, t, due, inst):
    members = [
        j for j in range(inst.n)
        if r <= inst.jobs[j].release and inst.jobs[j].release <= due[j] < t
    ]
    return max(r + sum(inst.jobs[j].p for j in members) - t + 1, 0)


def full_scan_peak(due, inst):
    """Dense oracle for `peak_demand`: every release date r and every time
    t in r+1..T, ties to the largest t, then the largest r."""
    best = (0, -1, -1)
    for r in inst.release_dates:
        for t in range(r + 1, inst.horizon + 1):
            d = brute_interval_demand(r, t, due, inst)
            if d > 0 and (d, t, r) > best:
                best = (d, t, r)
    return best


def test_residual_rt_single_job():
    inst = Instance((Job(0, 2, CostFunction(())),))
    assert brute_interval_demand(0, 2, (0,), inst) == 1


def test_residual_rt_empty_set():
    inst = Instance((Job(0, 2, CostFunction(())), Job(1, 1, CostFunction(()))))
    assert brute_interval_demand(0, 2, (3, 3), inst) == 0


def test_argmax_restricted_equals_full_scan():
    rng = random.Random(11)
    for inst in release_suite(80):
        for _ in range(10):
            due = [rng.randint(inst.jobs[j].release, inst.horizon) for j in range(inst.n)]
            assert peak_demand(due, inst) == full_scan_peak(due, inst)


def test_single_violated_interval_is_argmax():
    inst = Instance((Job(0, 2, CostFunction(())),))
    # the only violated intervals are [0, 1) with demand 2 and [0, 2) with 1
    assert peak_demand([0], inst) == (2, 1, 0)
    assert peak_demand([1], inst) == (1, 2, 0)
    assert peak_demand([2], inst) == (0, -1, -1)


def test_solve_release_specializes_without_releases():
    for seed in range(30):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 5 + 1, p_max=4, v_max=9))
        a = solve_local_ratio(inst)
        b = solve_release(inst)
        assert a.due_dates == b.due_dates
        assert decompose(ResidualCosts(inst), [0] * inst.n, inst).r_star == 0
        assert all(r.r_star == 0 for r in b.trace)
        assert b.cost <= 4 * exact_opt(inst).opt_cost


def test_solve_release_vs_oracle():
    for inst in release_suite(60):
        out = solve_release(inst)
        opt = exact_opt_release(inst).opt_cost
        assert out.cost <= out.assignment_cost <= 4 * inst.kappa * opt
        assert isinstance(preemptive_edd(out.due_dates, inst), Schedule)
        assert feasible_assignment(out.due_dates, inst)


def test_due_dates_start_at_releases_and_only_rise():
    for inst in release_suite(40, seed_base=200):
        out = solve_release(inst)
        for j in range(inst.n):
            assert out.due_dates[j] >= inst.jobs[j].release + inst.jobs[j].p


def test_release_trace_has_r_star():
    insts = [i for i in release_suite(40) if i.kappa > 1]
    inst = insts[0]
    out = solve_release(inst)
    if out.trace:
        assert all(r.r_star is not None for r in out.trace)


def test_instance_rejects_positive_cost_at_release():
    with pytest.raises(InstanceError, match="release"):
        Instance((Job(0, 1, CostFunction(((1, 3),)), 2),))
