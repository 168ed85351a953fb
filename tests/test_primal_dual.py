from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcsched import primal_dual
from kcsched.edd import feasible_assignment
from kcsched.errors import InfeasibleInstanceError
from kcsched.generators import RandomSpec, gen_random, gen_tight
from kcsched.instance import (
    INFEASIBLE,
    CostFunction,
    Instance,
    Job,
    JobSet,
    parse_instance,
    residual_demand,
)
from kcsched.oracle import exact_opt
from kcsched.primal_dual import (
    DualEntry,
    DualFeasibilityReport,
    DualSolution,
    PrimalFeasibilityReport,
    check_charging,
    check_dual_feasible,
    check_primal_feasible,
    grow,
    prune,
    solve_primal_dual,
    trace_to_jsonl,
)
from kcsched.rounding import solve_rounded

from conftest import instances


def committed_pairs(state):
    """(job, time, previous frontier) of every committed pair, in order."""
    return [(f.job, f.time, f.old_due) for f in state.frames]


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
    assert tuple(r.t_star for r in out.trace) == exp["times"]
    assert tuple(r.demand for r in out.trace) == exp["demands"]
    assert tuple(r.alpha for r in out.trace) == exp["alphas"]
    assert tuple(r.job for r in out.trace) == exp["jobs"]
    assert tuple(r.time for r in out.trace) == exp["assign_times"]
    nonzero = [e for e in out.dual.entries if e.y > 0]
    assert len(nonzero) == 1
    assert nonzero[0].t == 3 * p - 1
    assert nonzero[0].covered.mask == 0
    assert nonzero[0].y == 1
    assert out.due_dates == (3 * p - 1, 3 * p - 1, 4 * p, 4 * p)
    assert out.primal_cost == 4 * p
    assert out.dual.value == p + 2
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
    assert trace[0].t_star == 1 and trace[0].alpha == 0
    assert committed_pairs(state) == [(0, 1, 0)]
    assert dual.value == 0
    assert prune(state, inst) == (1,)


def test_all_zero_costs_solve():
    inst = Instance(tuple(Job(j, 2, CostFunction(())) for j in range(3)))
    out = solve_primal_dual(inst)
    assert out.primal_cost == 0
    assert out.dual.value == 0
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
    assert out.dual.value <= opt
    for seed in range(60):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=5, v_max=12))
        out = solve_primal_dual(inst)
        opt = exact_opt(inst).opt_cost
        assert out.dual.value <= opt <= out.primal_cost
        if out.dual.value > 0:
            assert out.primal_cost < 4 * out.dual.value


def test_debug_mode_passes_on_random_instances():
    for seed in range(10):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 5 + 2, p_max=4, v_max=8))
        solve_primal_dual(inst, debug=True)


def counting_dual_checker(monkeypatch, fail_from: int | None = None) -> list[int]:
    """Wrap grow's check_dual_feasible; record each checked prefix length,
    and report an infeasible dual from `fail_from` entries on."""
    calls: list[int] = []
    real = primal_dual.check_dual_feasible

    def checker(dual, inst, **kwargs):
        calls.append(len(dual.entries))
        if fail_from is not None and len(dual.entries) >= fail_from:
            return DualFeasibilityReport(False, (0, 1, Fraction(1), 0))
        return real(dual, inst, **kwargs)

    monkeypatch.setattr(primal_dual, "check_dual_feasible", checker)
    return calls


def test_debug_mode_checks_one_dual(monkeypatch):
    inst = gen_random(RandomSpec(seed=3, n=6, p_max=4, v_max=8))
    calls = counting_dual_checker(monkeypatch)
    _, _, trace = grow(inst, debug=True)
    assert len(trace) > 1
    assert calls == [len(trace)]


def test_debug_mode_names_the_first_infeasible_iteration(monkeypatch):
    inst = gen_random(RandomSpec(seed=3, n=6, p_max=4, v_max=8))
    iterations = len(grow(inst)[2])
    assert iterations > 3
    calls = counting_dual_checker(monkeypatch, fail_from=3)
    with pytest.raises(AssertionError, match="after iteration 3:"):
        grow(inst, debug=True)
    assert calls == [iterations, 1, 2, 3]


def test_pair_times_nondecreasing_per_job():
    for seed in range(40):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 2, p_max=4, v_max=9))
        state, _, _ = grow(inst)
        last = {}
        for job, t, prev in committed_pairs(state):
            assert prev == last.get(job, 0)
            assert t > prev
            last[job] = t


def test_grow_grid_must_start_at_1_and_hold_every_breakpoint(tight4):
    # tight4 has cost breakpoints at 4, 11 and 12 on T = 16
    for times in [(1, 4, 12), (2, 4, 11, 12), (), (4, 11, 12)]:
        with pytest.raises(ValueError):
            grow(tight4, times=times)
    grid = (1, 4, 8, 11, 12)
    state, _, trace = grow(tight4, times=grid)
    # every raise lands on the right end of a grid interval
    assert {r.time + 1 for r in trace} <= {*grid, tight4.horizon + 1}
    assert set(prune(state, tight4)) <= set(grid)


def test_prune_single_due_date_and_feasible(tight4):
    state, _, _ = grow(tight4)
    due = prune(state, tight4)
    assert due == (11, 11, 16, 16)
    assert feasible_assignment(due, tight4)


def test_prune_nothing_to_remove():
    inst = Instance((Job(0, 1, CostFunction(())),))
    state, _, _ = grow(inst)
    assert committed_pairs(state) == [(0, 1, 0)]
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
        [DualEntry(1, JobSet(0, 0), Fraction(3))], inst
    )
    report = check_dual_feasible(bogus, inst)
    assert not report.feasible
    assert report.violation == (0, 1, Fraction(3), 2)


def test_check_dual_rejects_a_negative_entry():
    # a negative entry cancels the constraint the positive one violates,
    # so without the sign check a dual worth 1000 against an OPT of 20
    # would pass
    inst = parse_instance(
        '{"jobs":[{"p":1,"cost":[[2,"INF"]]},{"p":5,"cost":[[1,10]]},{"p":5,"cost":[[1,10]]}]}'
    )
    dual = DualSolution.from_entries(
        [
            DualEntry(2, JobSet.from_ids([], inst), Fraction(1000)),
            DualEntry(2, JobSet.from_ids([0], inst), Fraction(-1000)),
        ],
        inst,
    )
    assert dual.value == 1000 and exact_opt(inst).opt_cost == 20
    report = check_dual_feasible(dual, inst)
    assert not report.feasible
    assert report.violation == (2, Fraction(-1000))


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


@pytest.mark.parametrize(
    "due", [(11, 11, 16, 16, 3), (11, 11, 16, 99), (0, 11, 16, 16), (11, 11, 16)]
)
def test_checkers_reject_malformed_due_dates(tight4, due):
    # one entry too many, a due date past T = 16, an unassigned job, one too few
    dual = solve_primal_dual(tight4).dual
    with pytest.raises(ValueError):
        check_primal_feasible(due, tight4, dual=dual)
    with pytest.raises(ValueError):
        check_charging(dual, due, tight4)


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


def dense_dual_report(dual, inst):
    """Dense oracle for `check_dual_feasible`: the first negative entry,
    then every time 1..T of every job."""
    for e in dual.entries:
        if e.y < 0:
            return DualFeasibilityReport(False, (e.t, e.y))
    for j in range(inst.n):
        events = sorted(
            (e.t, e.y * min(inst.jobs[j].p, residual_demand(e.t, e.covered, inst)))
            for e in dual.entries
            if not e.covered.contains(j)
        )
        lhs = Fraction(0)
        idx = 0
        for s in range(1, inst.horizon + 1):
            while idx < len(events) and events[idx][0] <= s:
                lhs += events[idx][1]
                idx += 1
            rhs = inst.jobs[j].cost.value_at(s)
            if rhs is not INFEASIBLE and lhs > rhs:
                return DualFeasibilityReport(False, (j, s, lhs, rhs))
    return DualFeasibilityReport(True)


def dense_primal_report(due, inst, dual=None):
    """Dense oracle for `check_primal_feasible`: base coverage at every
    t in 1..T, then the inequalities of the dual support."""
    T = inst.horizon
    p = inst.processing()
    violations = []
    for t in range(1, T + 1):
        lhs = sum(p[j] for j in range(inst.n) if due[j] >= t)
        if lhs < T - t + 1:
            violations.append((t, None, lhs, T - t + 1))
    for e in dual.entries if dual is not None else ():
        rhs = residual_demand(e.t, e.covered, inst)
        lhs = sum(
            min(p[j], rhs) for j in range(inst.n) if not e.covered.contains(j) and due[j] >= e.t
        )
        if rhs and lhs < rhs:
            violations.append((e.t, e.covered.ids(), lhs, rhs))
    return PrimalFeasibilityReport(not violations, tuple(violations))


def tampered(dual, inst, rng):
    """Entry times moved anywhere in 1..T and every y scaled by 0..3."""
    entries = [
        DualEntry(
            rng.randint(1, inst.horizon) if rng.random() < 0.5 else e.t,
            e.covered,
            e.y * Fraction(rng.randint(0, 12), 4),
        )
        for e in dual.entries
    ]
    return DualSolution.from_entries(entries, inst)


def test_sparse_dual_check_equals_dense_scan():
    rng = random.Random(5)
    verdicts = []
    for seed in range(60):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=6, v_max=20))
        out = solve_primal_dual(inst)
        duals = [out.dual] + [tampered(out.dual, inst, rng) for _ in range(4)]
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            r = solve_rounded(inst, eps)
            rounded = r.rounded.instance
            for dual in [r.dual] + [tampered(r.dual, inst, rng) for _ in range(4)]:
                report = check_dual_feasible(dual, rounded)
                assert report == dense_dual_report(dual, rounded), (seed, eps)
                verdicts.append(report.feasible)
                duals.append(dual)
        for dual in duals:
            report = check_dual_feasible(dual, inst)
            assert report == dense_dual_report(dual, inst), seed
            verdicts.append(report.feasible)
    assert sum(verdicts) > 500 and len(verdicts) - sum(verdicts) > 500


@settings(max_examples=80, deadline=None)
@given(instances(allow_infeasible=True), st.randoms(use_true_random=False))
def test_sparse_dual_check_equals_dense_scan_on_any_grid(inst, rng):
    ids = range(inst.n)
    entries = [
        DualEntry(
            rng.randint(1, inst.horizon),
            JobSet.from_ids([j for j in ids if rng.random() < 0.3], inst),
            Fraction(rng.randint(-3, 9), rng.randint(1, 4)),
        )
        for _ in range(rng.randint(0, 5))
    ]
    dual = DualSolution.from_entries(entries, inst)
    assert check_dual_feasible(dual, inst) == dense_dual_report(dual, inst)


def test_sparse_primal_check_equals_dense_report_at_run_starts():
    rng = random.Random(9)
    verdicts = []
    for seed in range(60):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=6, v_max=20))
        out = solve_primal_dual(inst)
        vectors = [out.due_dates] + [
            tuple(rng.randint(1, inst.horizon) for _ in range(inst.n)) for _ in range(20)
        ]
        for due in vectors:
            report = check_primal_feasible(due, inst, dual=out.dual)
            dense = dense_primal_report(due, inst, dual=out.dual)
            starts = {1, *(d + 1 for d in due)}
            restricted = tuple(v for v in dense.violations if v[1] is not None or v[0] in starts)
            assert report == PrimalFeasibilityReport(dense.feasible, restricted), (seed, due)
            # each uncovered run of base times is reported at its first time
            uncovered = {v[0] for v in dense.violations if v[1] is None}
            assert {t for t in uncovered if t - 1 not in uncovered} <= {
                v[0] for v in report.violations
            }
            verdicts.append(report.feasible)
    assert 50 < sum(verdicts) < len(verdicts) - 500


def test_check_charging_strict(tight4):
    out = solve_primal_dual(tight4)
    assert check_charging(out.dual, out.due_dates, tight4).ok
    # a raised dual at the last slot charged by all four jobs hits 4x exactly,
    # which the strict bound rejects
    bogus = DualSolution.from_entries(
        [DualEntry(16, JobSet(0, 0), Fraction(1))], tight4
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
