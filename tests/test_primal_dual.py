from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest

from kcsched.edd import feasible_assignment
from kcsched.errors import InfeasibleInstanceError
from kcsched.generators import RandomSpec, gen_random, gen_tight
from kcsched.instance import CostFunction, Instance, Job, JobSet
from kcsched.oracle import exact_opt
from kcsched.primal_dual import (
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


def expected_tight_trace(p):
    """Growing-phase pattern of the gap family, for any p >= 4.

    Ties between the twin jobs sharing a cost function are broken by
    smallest id, so the twin picked can differ from other published
    resolutions of those ties; times, sets' demands, and duals do not.
    """
    return {
        "times": (1, 1, 1, 3 * p - 1, p, 1, 3 * p),
        "demands": (4 * p, 3 * p, 2 * p, p + 2, p + 1, p, 1),
        "alphas": (0, 0, 0, 1, 0, 0, 0),
        "jobs": (2, 3, 0, 2, 0, 1, 3),
        "assign_times": (3 * p - 2, 3 * p - 2, p - 1, 4 * p, 3 * p - 1, 3 * p - 1, 4 * p),
    }


@pytest.mark.parametrize("p", [4, 5, 9, 50])
def test_golden_trace(p):
    inst = gen_tight(p)
    out = solve_primal_dual(inst)
    exp = expected_tight_trace(p)
    assert tuple(r.t for r in out.trace) == exp["times"]
    assert tuple(r.demand for r in out.trace) == exp["demands"]
    assert tuple(r.alpha for r in out.trace) == exp["alphas"]
    assert tuple(r.tight_job for r in out.trace) == exp["jobs"]
    assert tuple(r.tight_time for r in out.trace) == exp["assign_times"]
    nonzero = [e for e in out.dual.entries if e.y > 0]
    assert len(nonzero) == 1
    assert nonzero[0].t == 3 * p - 1
    assert nonzero[0].covered.mask == 0
    assert nonzero[0].y == 1
    assert out.due_dates == (3 * p - 1, 3 * p - 1, 4 * p, 4 * p)
    assert out.primal_cost == 4 * p
    assert out.dual_value == p + 2
    assert out.ratio == Fraction(4 * p, p + 2)


def test_trace_jsonl_format(tight4):
    out = solve_primal_dual(tight4)
    lines = trace_to_jsonl(out.trace).splitlines()
    assert len(lines) == 7
    first = json.loads(lines[0])
    assert first == {
        "k": 1, "t": 1, "A": [], "D": 16, "alpha": "0/1",
        "tight_job": 2, "tight_time": 10,
    }
    assert json.loads(lines[3])["alpha"] == "1/1"


def test_grow_single_zero_cost_job():
    inst = Instance((Job(0, 1, CostFunction(())),))
    state, dual, trace = grow(inst)
    assert len(trace) == 1
    assert trace[0].t == 1 and trace[0].alpha == 0
    assert state.assignments == [(0, 1, 0)]
    assert dual.value == 0
    assert prune(state, inst) == (1,)


def test_all_zero_costs_solve():
    inst = Instance(tuple(Job(j, 2, CostFunction(())) for j in range(3)))
    out = solve_primal_dual(inst)
    assert out.primal_cost == 0
    assert out.dual_value == 0
    assert out.ratio is None


def test_grow_infeasible_instance():
    from kcsched.instance import INFEASIBLE

    inst = Instance((Job(0, 1, CostFunction(((1, INFEASIBLE),))),))
    with pytest.raises(InfeasibleInstanceError):
        grow(inst)


def test_weak_duality_and_factor_small_suite(pair_instance):
    out = solve_primal_dual(pair_instance)
    opt = exact_opt(pair_instance).opt_cost
    assert opt == 3
    assert out.dual_value <= opt
    for seed in range(60):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=5, v_max=12))
        out = solve_primal_dual(inst)
        opt = exact_opt(inst).opt_cost
        assert out.dual_value <= opt <= out.primal_cost
        if out.dual_value > 0:
            assert out.primal_cost < 4 * out.dual_value


def test_debug_mode_checks_every_iteration():
    for seed in range(10):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 5 + 2, p_max=4, v_max=8))
        solve_primal_dual(inst, debug=True)


def test_pair_times_nondecreasing_per_job():
    for seed in range(40):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 2, p_max=4, v_max=9))
        state, _, _ = grow(inst)
        last = {}
        for job, t, prev in state.assignments:
            assert prev == last.get(job, 0)
            assert t > prev
            last[job] = t


def test_prune_single_due_date_and_feasible(tight4):
    state, _, _ = grow(tight4)
    due = prune(state, tight4)
    assert due == (11, 11, 16, 16)
    assert feasible_assignment(due, tight4)


def test_prune_nothing_to_remove():
    inst = Instance((Job(0, 1, CostFunction(())),))
    state, _, _ = grow(inst)
    assert state.assignments == [(0, 1, 0)]
    assert prune(state, inst) == (1,)


def test_pruned_solution_is_minimal():
    # dropping any single job's coverage must break some demand
    for seed in range(30):
        inst = gen_random(RandomSpec(seed=seed, n=6, p_max=4, v_max=9))
        out = solve_primal_dual(inst)
        p = inst.processing()
        for removed in range(inst.n):
            covered_somewhere_short = False
            for t in range(1, inst.horizon + 1):
                cover = sum(
                    p[j]
                    for j in range(inst.n)
                    if j != removed and out.due_dates[j] >= t
                )
                if cover < inst.horizon - t + 1:
                    covered_somewhere_short = True
                    break
            assert covered_somewhere_short, (seed, removed)


def test_check_dual_feasible_on_solver_output(tight4):
    out = solve_primal_dual(tight4)
    assert check_dual_feasible(out.dual, tight4).feasible
    # every prefix of the run is feasible as well
    for i in range(len(out.dual.entries)):
        partial = DualSolution.from_entries(out.dual.entries[: i + 1], tight4)
        assert check_dual_feasible(partial, tight4).feasible


def test_check_dual_empty(tight4):
    assert check_dual_feasible(DualSolution.from_entries([], tight4), tight4).feasible


def test_check_dual_flags_perturbed_constraint():
    inst = Instance((Job(0, 1, CostFunction(((1, 2),))),))
    bogus = DualSolution.from_entries(
        [DualEntry(1, JobSet.empty(), Fraction(3))], inst
    )
    report = check_dual_feasible(bogus, inst)
    assert not report.feasible
    assert report.violation == (0, 1, Fraction(3), 2)


def test_check_primal_examples(tight4):
    out = solve_primal_dual(tight4)
    assert check_primal_feasible(out.due_dates, tight4, dual=out.dual).feasible

    everything_late = tuple([tight4.horizon] * 4)
    assert check_primal_feasible(everything_late, tight4).feasible

    inst = Instance((Job(0, 2, CostFunction(())), Job(1, 2, CostFunction(()))))
    report = check_primal_feasible((1, 1), inst)
    assert not report.feasible
    assert (2, None, 0, 3) in report.violations


def test_check_primal_requires_assigned_dates(tight4):
    with pytest.raises(ValueError):
        check_primal_feasible((0, 11, 16, 16), tight4)


def test_check_primal_base_coverage_decides_every_truncated_inequality():
    # exhaustive on small instances: every due-date vector, every set A
    # and every time t of the knapsack-cover relaxation
    verdicts = []
    for seed in range(30):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 3 + 1, p_max=3, v_max=5))
        T = inst.horizon
        p = inst.processing()
        for due in itertools.product(range(1, T + 1), repeat=inst.n):
            truncated = True
            for t in range(1, T + 1):
                for mask in range(1 << inst.n):
                    d = T - t + 1 - sum(p[j] for j in range(inst.n) if mask >> j & 1)
                    lhs = sum(
                        min(p[j], d)
                        for j in range(inst.n)
                        if not mask >> j & 1 and due[j] >= t
                    )
                    truncated = truncated and (d <= 0 or lhs >= d)
            assert check_primal_feasible(due, inst).feasible == truncated, (seed, due)
            verdicts.append(truncated)
    assert len(verdicts) == 2805 and 0 < sum(verdicts) < len(verdicts)


def test_check_charging_strict(tight4):
    out = solve_primal_dual(tight4)
    assert check_charging(out.dual, out.due_dates, tight4).ok
    # a raised dual at the last slot charged by all four jobs hits 4x exactly,
    # which the strict bound rejects
    bogus = DualSolution.from_entries(
        [DualEntry(16, JobSet.empty(), Fraction(1))], tight4
    )
    report = check_charging(bogus, (16, 16, 16, 16), tight4)
    assert not report.ok
    assert report.violation == (16, (), 4, 1)


def test_determinism_same_bytes(tight4):
    a = solve_primal_dual(tight4)
    b = solve_primal_dual(tight4)
    assert trace_to_jsonl(a.trace) == trace_to_jsonl(b.trace)
    assert a.due_dates == b.due_dates
    assert a.dual == b.dual
