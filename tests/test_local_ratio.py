from __future__ import annotations

from fractions import Fraction

import pytest

from kcsched.edd import base_demands_covered, feasible_assignment
from kcsched.errors import InfeasibleInstanceError
from kcsched.generators import RandomSpec, gen_random
from kcsched.instance import INFEASIBLE, CostFunction, Instance, Job
from kcsched.local_ratio import (
    ResidualCosts,
    decompose,
    lr_trace_to_jsonl,
    solve_local_ratio,
)
from kcsched.oracle import exact_opt
from kcsched.primal_dual import solve_primal_dual
from kcsched.release import solve_release


def brute_force_alpha(g, due, inst, t_star, weights):
    """Independent scale oracle: scan every active (job, time) pair."""
    best = None
    for j, w in weights:
        if w == 0:
            continue
        for t in range(t_star, inst.horizon + 1):
            v = g.value(j, t)
            if v is INFEASIBLE:
                continue
            ratio = Fraction(v) / w
            if best is None or ratio < best:
                best = ratio
    return best


def test_first_decomposition_on_tight(tight4):
    g = ResidualCosts(tight4)
    dec = decompose(g, [0, 0, 0, 0], tight4)
    assert dec.t_star == 1
    assert dec.demand == 16
    assert dec.alpha == 0
    assert (dec.job, dec.time) == (2, 10)
    assert dec.weights == ((0, 4), (1, 4), (2, 4), (3, 4))


def test_zero_costs_give_zero_alpha():
    inst = Instance(tuple(Job(j, 2, CostFunction(())) for j in range(2)))
    dec = decompose(ResidualCosts(inst), [0, 0], inst)
    assert dec.alpha == 0


def test_decompose_requires_infeasible(pair_instance):
    with pytest.raises(ValueError):
        decompose(ResidualCosts(pair_instance), [3, 2], pair_instance)


def test_decompose_infeasible_instance():
    inst = Instance((Job(0, 1, CostFunction(((1, INFEASIBLE),))),))
    with pytest.raises(InfeasibleInstanceError):
        decompose(ResidualCosts(inst), [0], inst)


def test_alpha_matches_brute_force_along_runs():
    for seed in range(40):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 5 + 1, p_max=4, v_max=9))
        g = ResidualCosts(inst)
        due = [0] * inst.n
        steps = 0
        while not base_demands_covered(due, inst):
            dec = decompose(g, due, inst)
            expected = brute_force_alpha(g, due, inst, dec.t_star, dec.weights)
            assert dec.alpha == expected, (seed, steps)
            g.apply(dec)
            due[dec.job] = dec.time
            steps += 1


def test_solve_tight(tight4):
    out = solve_local_ratio(tight4)
    assert feasible_assignment(out.due_dates, tight4)
    opt = exact_opt(tight4).opt_cost
    assert opt == 16
    assert out.cost == 16
    assert out.assignment_cost <= 4 * opt


def test_solve_single_zero_cost_job():
    inst = Instance((Job(0, 1, CostFunction(())),))
    out = solve_local_ratio(inst)
    assert out.due_dates == (1,)
    assert out.cost == 0


def test_solve_vs_oracle_randoms():
    for seed in range(60):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=5, v_max=12))
        out = solve_local_ratio(inst)
        opt = exact_opt(inst).opt_cost
        assert feasible_assignment(out.due_dates, inst)
        assert out.cost <= out.assignment_cost <= 4 * opt


def test_schemes_are_identical():
    # primal-dual, local ratio and the release-date solver at kappa = 1 are
    # one algorithm: same due dates and the same (t, job, time, alpha) steps
    for seed in range(30):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 5 + 2, p_max=4, v_max=9))
        opt = exact_opt(inst).opt_cost
        pd = solve_primal_dual(inst)
        lr = solve_local_ratio(inst)
        rel = solve_release(inst)
        assert pd.primal_cost <= 4 * opt
        assert lr.assignment_cost <= 4 * opt
        assert pd.due_dates == lr.due_dates == rel.due_dates
        steps = [(r.t, r.tight_job, r.tight_time, r.alpha) for r in pd.trace]
        assert steps == [(r.t_star, r.job, r.time, r.alpha) for r in lr.trace]
        assert steps == [(r.t_star, r.job, r.time, r.alpha) for r in rel.trace]


def test_trace_records_and_export(tight4):
    out = solve_local_ratio(tight4)
    assert [r.depth for r in out.trace] == list(range(1, len(out.trace) + 1))
    lines = lr_trace_to_jsonl(out.trace).splitlines()
    assert len(lines) == len(out.trace)
    assert '"undo_kept"' in lines[0]
    assert '"r_star"' not in lines[0]


def test_requires_no_releases():
    inst = Instance((Job(0, 1, CostFunction(()), 2),))
    with pytest.raises(ValueError):
        solve_local_ratio(inst)
