from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcsched.edd import edd_schedule
from kcsched.errors import InstanceError
from kcsched.generators import RandomSpec, gen_random, gen_tight
from kcsched.instance import INFEASIBLE, CostFunction, Instance, Job
from kcsched.oracle import exact_opt
from kcsched.primal_dual import check_primal_feasible, grow, prune, snap_left, solve_primal_dual
from kcsched.rounding import RoundedInstance, build_partition, solve_rounded

from conftest import instances


def cost_class(v: int, epsilon: Fraction) -> int:
    """Geometric-rule oracle: 0 for v = 0, else the unique k >= 1 with
    (1+eps)^(k-1) <= v < (1+eps)^k, by exact integer comparisons."""
    if v == 0:
        return 0
    ratio = 1 + Fraction(epsilon)
    a, b = ratio.numerator, ratio.denominator

    def pow_gt(k: int) -> bool:  # (a/b)^k > v
        return a**k > v * b**k

    hi = 1
    while not pow_gt(hi):
        hi *= 2
    lo = hi // 2  # (a/b)^lo <= v < (a/b)^hi, or lo == 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pow_gt(mid):
            hi = mid
        else:
            lo = mid
    return hi


def geometric_points(job: Job, eps: Fraction) -> set[int]:
    """Times where the job's cost enters a new class under fixed
    geometric boundaries (1+eps)^k, or becomes infeasible."""
    points = set()
    prev = 0
    for t, v in job.cost.breakpoints:
        if v is INFEASIBLE:
            if prev is not INFEASIBLE:
                points.add(t)
        elif cost_class(v, eps) != cost_class(prev, eps):
            points.add(t)
        prev = v
    return points


def test_cost_class_eps_one():
    # boundaries 1, 2, 4, 8: classes [1,2), [2,4), [4,8)
    assert cost_class(0, Fraction(1)) == 0
    assert cost_class(1, Fraction(1)) == 1
    assert cost_class(2, Fraction(1)) == 2
    assert cost_class(3, Fraction(1)) == 2
    assert cost_class(4, Fraction(1)) == 3
    assert cost_class(7, Fraction(1)) == 3
    assert cost_class(8, Fraction(1)) == 4


def test_cost_class_eps_half():
    # boundaries 3/2, 9/4, 27/8: 1 -> [1, 1.5), 2 -> [1.5, 2.25), 3 -> [2.25, 3.375)
    eps = Fraction(1, 2)
    assert cost_class(1, eps) == 1
    assert cost_class(2, eps) == 2
    assert cost_class(3, eps) == 3
    assert cost_class(4, eps) == 4


@settings(max_examples=150, deadline=None)
@given(
    instances(max_n=4, max_p=6, max_breakpoints=6, max_value=200, allow_infeasible=True),
    st.one_of(
        st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)]),
        st.fractions(min_value=Fraction(1, 500), max_value=3, max_denominator=500),
    ),
)
def test_anchored_classes_against_geometric_oracle(inst, eps):
    for job in inst.jobs:
        # the job alone, on the same horizon
        alone = Instance((Job(0, inst.horizon, job.cost),))
        anchored = set(build_partition(alone, eps).points) - {1}
        assert len(anchored) <= len(geometric_points(job, eps) - {1})
    finite = [v for job in inst.jobs for _, v in job.cost.breakpoints if v is not INFEASIBLE]
    if eps * max(finite, default=0) < 1:
        geometric = {1}.union(*(geometric_points(job, eps) for job in inst.jobs))
        assert build_partition(inst, eps).points == tuple(sorted(geometric))


def test_partition_class_example():
    # values over t = 1..6 are (0, 0, 1, 1, 2, 3); with eps = 1 the classes are
    # {1,2}, {3,4} in [1,2), {5,6} in [2,4): left endpoints 1, 3, 5
    inst = Instance((Job(0, 6, CostFunction(((3, 1), (5, 2), (6, 3)))),))
    part = build_partition(inst, 1)
    assert part.points == (1, 3, 5)
    assert part.intervals() == [(1, 2), (3, 4), (5, 6)]


def test_partition_all_zero_costs():
    inst = Instance(tuple(Job(j, 2, CostFunction(())) for j in range(2)))
    part = build_partition(inst, Fraction(1, 2))
    assert part.points == (1,)
    assert part.intervals() == [(1, 4)]


def test_partition_infeasible_opens_terminal_class(tight4):
    part = build_partition(tight4, Fraction(1, 2))
    # jobs 0/1: free then p at 4, infeasible at 12; jobs 2/3: p at 11
    assert part.points == (1, 4, 11, 12)
    # a repeated infeasible breakpoint stays in the terminal class
    inst = Instance((Job(0, 4, CostFunction(((2, 1), (3, INFEASIBLE), (4, INFEASIBLE)))),))
    assert build_partition(inst, Fraction(1, 2)).points == (1, 2, 3)


def test_partition_rejects_bad_epsilon(tight4):
    with pytest.raises(InstanceError):
        build_partition(tight4, 0)
    with pytest.raises(InstanceError):
        build_partition(tight4, Fraction(-1, 2))


def test_partition_size_bound_exact():
    # tau <= sum_j (2 + log_{1+eps} f_j(T)) + 1, checked by cross-multiplying:
    # (1+eps)^(tau - 1 - 2n) <= prod_j max(f_j(T), 1) over finite-cost jobs
    for seed in range(40):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=4, v_max=15))
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            part = build_partition(inst, eps)
            tau = len(part.points)
            exponent = tau - 1 - 2 * inst.n
            if exponent <= 0:
                continue
            prod = 1
            for job in inst.jobs:
                v = job.cost.value_at(inst.horizon)
                assert isinstance(v, int)
                prod *= max(v, 1)
            assert (1 + eps) ** exponent <= prod, (seed, eps)


def test_modified_costs_bracket_base_costs():
    for seed in range(40):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 5 + 1, p_max=4, v_max=12))
        for eps in (Fraction(1, 10**6), Fraction(1, 1000), Fraction(1, 10), Fraction(1, 2), 1):
            rd = RoundedInstance(inst, build_partition(inst, eps))
            for j, func in enumerate(rd.cost_funcs):
                for left in rd.partition.points:
                    base = inst.jobs[j].cost.value_at(left)
                    mod = func.value_at(left)
                    if base is INFEASIBLE:
                        assert mod is INFEASIBLE
                    else:
                        assert mod is not INFEASIBLE
                        assert base <= mod <= (1 + eps) * base


def test_modified_costs_bracket_on_tight(tight4):
    eps = Fraction(1, 2)
    rd = RoundedInstance(tight4, build_partition(tight4, eps))
    for j, func in enumerate(rd.cost_funcs):
        for left in rd.partition.points:
            base = tight4.jobs[j].cost.value_at(left)
            mod = func.value_at(left)
            if base is INFEASIBLE:
                assert mod is INFEASIBLE
            else:
                assert base <= mod <= (1 + eps) * base


def test_tiny_epsilon_keeps_every_breakpoint_and_cost(tight4):
    out = solve_rounded(tight4, Fraction(1, 10**6))
    breakpoints = {t for job in tight4.jobs for t in job.cost.times}
    assert breakpoints <= set(out.rounded.partition.points)
    exact = solve_primal_dual(tight4)
    assert out.primal_cost == exact.primal_cost == 16
    assert out.due_dates == exact.due_dates


def test_zero_costs_rounded():
    inst = Instance(tuple(Job(j, 2, CostFunction(())) for j in range(3)))
    out = solve_rounded(inst, Fraction(1, 2))
    assert out.primal_cost == 0 and out.dual.value == 0


def test_snap_left(tight4):
    points = build_partition(tight4, Fraction(1, 2)).points
    assert snap_left(points, 1) == 1
    assert snap_left(points, 3) == 1
    assert snap_left(points, 4) == 4
    assert snap_left(points, 10) == 4
    assert snap_left(points, 16) == 12


def test_right_end_of_each_left_endpoint(tight4):
    part = build_partition(tight4, Fraction(1, 2))
    assert [(left, part.right_end(left)) for left in part.points] == part.intervals()
    assert part.right_end(part.points[-1]) == tight4.horizon
    for t in (0, 2, 5, 15, 16, 17):
        assert t not in part.points
        with pytest.raises(ValueError):
            part.right_end(t)


def test_forward_snap_of_optimum_is_grid_feasible():
    # an optimal assignment snapped to interval left endpoints stays
    # feasible on the grid and costs at most (1 + eps) times the optimum
    for seed in range(40):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 5 + 1, p_max=4, v_max=12))
        opt = exact_opt(inst)
        completions = {}
        clock = 0
        for j in opt.witness:
            clock += inst.jobs[j].p
            completions[j] = clock
        for eps in (Fraction(1, 10), Fraction(1)):
            rd = RoundedInstance(inst, build_partition(inst, eps))
            snapped = [snap_left(rd.partition.points, completions[j]) for j in range(inst.n)]
            for t in rd.partition.points:
                cover = sum(
                    inst.jobs[j].p for j in range(inst.n) if snapped[j] >= t
                )
                assert cover >= inst.horizon - t + 1
            rounded_cost = sum(
                rd.cost_funcs[j].value_at(snapped[j]) for j in range(inst.n)
            )
            assert rounded_cost <= (1 + eps) * opt.opt_cost


def test_backward_mapping_feasible_with_equal_cost():
    for seed in range(40):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 5 + 1, p_max=4, v_max=12))
        out = solve_rounded(inst, Fraction(1, 2))
        assert check_primal_feasible(out.due_dates, inst, dual=out.dual).feasible
        mapped_cost = sum(
            inst.jobs[j].cost.value_at(out.due_dates[j]) for j in range(inst.n)
        )
        rounded_cost = sum(
            out.rounded.cost_funcs[j].value_at(snap_left(out.rounded.partition.points, due))
            for j, due in enumerate(out.due_dates)
        )
        assert mapped_cost == rounded_cost == out.assignment_cost
        sched = edd_schedule(out.due_dates, inst)
        assert sched.total_cost == out.primal_cost <= out.assignment_cost


def test_rounded_within_bound_of_oracle():
    for seed in range(60):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=4, v_max=12))
        opt = exact_opt(inst).opt_cost
        for eps in (Fraction(1, 10), Fraction(1)):
            out = solve_rounded(inst, eps)
            assert out.primal_cost <= 4 * (1 + eps) * opt
            if out.dual.value > 0:
                assert out.assignment_cost < 4 * out.dual.value


def test_rounded_solve_is_primal_dual_on_the_rounded_costs():
    # the paper's reduction: round each cost up to be constant on the
    # partition intervals, then run the same primal-dual on those costs
    suite = [gen_tight(p) for p in (4, 5, 9)] + [
        gen_random(RandomSpec(seed=seed, n=seed % 8 + 1, p_max=20, v_max=60))
        for seed in range(40)
    ]
    for inst in suite:
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
            out = solve_rounded(inst, eps)
            pd = solve_primal_dual(out.rounded.instance)
            assert out.due_dates == pd.due_dates
            assert out.dual == pd.dual and out.dual.value == pd.dual.value
            part = out.rounded.partition
            assert {r.tight_time for r in out.trace} <= set(part.points)
            assert all(part.right_end(snap_left(part.points, d)) == d for d in out.due_dates)


def test_cost_funcs_shims_run_the_rounded_instance():
    # grow(cost_funcs=) and RoundedInstance.cost_funcs remain for callers
    # that pass the rounded costs apart from their instance; both must
    # stay the one path solve_rounded takes
    suite = [gen_tight(4)] + [
        gen_random(RandomSpec(seed=seed, n=seed % 7 + 1, p_max=9, v_max=60)) for seed in range(30)
    ]
    for inst in suite:
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
            part = build_partition(inst, eps)
            rd = RoundedInstance(inst, part)
            assert rd.cost_funcs == tuple(j.cost for j in rd.instance.jobs)
            shim = grow(inst, times=part.points, cost_funcs=list(rd.cost_funcs))
            direct = grow(rd.instance, times=part.points)
            assert shim == direct
            assert prune(shim[0], inst) == prune(direct[0], rd.instance)
    with pytest.raises(ValueError):
        grow(inst, cost_funcs=list(rd.cost_funcs)[1:])
