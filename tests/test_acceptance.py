"""Acceptance suite: one test per shipping criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  All comparisons are exact integer or rational
comparisons; the only tolerances are the stated wall-clock budgets.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from kcsched.cli import main as cli_main
from kcsched.edd import Schedule, feasible_assignment, preemptive_edd
from kcsched.generators import RandomSpec, gen_random, gen_tight
from kcsched.instance import INFEASIBLE, serialize_instance
from kcsched.local_ratio import lr_trace_to_jsonl, solve_local_ratio, solve_release
from kcsched.oracle import exact_opt, exact_opt_release
from kcsched.primal_dual import (
    DualSolution,
    check_charging,
    check_dual_feasible,
    check_primal_feasible,
    solve_primal_dual,
    trace_to_jsonl,
)
from kcsched.rounding import solve_rounded

SUITE_SIZE = 500
RELEASE_SUITE_SIZE = 200


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


def suite_instance(seed: int):
    return gen_random(
        RandomSpec(seed=seed, n=seed % 8 + 1, p_max=6, max_breakpoints=4, v_max=20)
    )


def release_instance(seed: int):
    return gen_random(
        RandomSpec(
            seed=seed, n=seed % 4 + 1, p_max=2, max_breakpoints=3, v_max=9,
            kappa=seed % 3 + 1,
        )
    )


@pytest.fixture(scope="module")
def suite_results():
    instances = [suite_instance(seed) for seed in range(SUITE_SIZE)]
    start = time.perf_counter()
    opts = [exact_opt(inst).opt_cost for inst in instances]
    pd = [solve_primal_dual(inst) for inst in instances]
    lr = [solve_local_ratio(inst, debug=True) for inst in instances]
    elapsed = time.perf_counter() - start
    return {"instances": instances, "opts": opts, "pd": pd, "lr": lr, "elapsed": elapsed}


@pytest.fixture(scope="module")
def release_results():
    instances = [release_instance(seed) for seed in range(RELEASE_SUITE_SIZE)]
    for inst in instances:
        assert inst.n <= 4 and inst.horizon <= 14 and inst.kappa <= 3
    outs = [solve_release(inst, debug=True) for inst in instances]
    opts = [exact_opt_release(inst).opt_cost for inst in instances]
    return {"instances": instances, "outs": outs, "opts": opts}


def test_criterion_1_tight_gap_reproduction():
    with criterion(1, "tight-gap family: cost 4p, certificate p+2, ratio 4p/(p+2)"):
        for p in (4, 50, 1000):
            start = time.perf_counter()
            out = solve_primal_dual(gen_tight(p))
            elapsed = time.perf_counter() - start
            assert out.primal_cost == 4 * p
            assert out.dual.value == Fraction(p + 2)
            assert out.ratio == Fraction(4 * p, p + 2)
            if p == 1000:
                assert elapsed < 5.0, f"p=1000 took {elapsed:.2f}s"


def test_criterion_2_golden_trace():
    # Job ids follow the deterministic tie-breaks (largest time, then
    # smallest id); picks between the symmetric twin jobs 0/1 and 2/3 are
    # interchangeable, and every label-independent quantity is pinned.
    with criterion(2, "seven-iteration golden trace for p = 4"):
        p = 4
        out = solve_primal_dual(gen_tight(p))
        assert len(out.trace) == 7
        assert tuple(r.t_star for r in out.trace) == (1, 1, 1, 3 * p - 1, p, 1, 3 * p)
        assert tuple(r.demand for r in out.trace) == (
            4 * p, 3 * p, 2 * p, p + 2, p + 1, p, 1,
        )
        assert tuple(r.alpha for r in out.trace) == (0, 0, 0, 1, 0, 0, 0)
        assert tuple(r.time for r in out.trace) == (
            3 * p - 2, 3 * p - 2, p - 1, 4 * p, 3 * p - 1, 3 * p - 1, 4 * p,
        )
        assert tuple(r.job for r in out.trace) == (2, 3, 0, 2, 0, 1, 3)
        # same twin-class pattern as any valid resolution of the ties:
        # late-free twins {2,3} at steps 1,2,4,7 and early-free {0,1} at 3,5,6
        classes = tuple("late" if r.job >= 2 else "early" for r in out.trace)
        assert classes == ("late", "late", "early", "late", "early", "early", "late")
        nonzero = [e for e in out.dual.entries if e.y > 0]
        assert len(nonzero) == 1
        assert (nonzero[0].t, nonzero[0].covered.mask, nonzero[0].y) == (3 * p - 1, 0, 1)
        assert out.dual.value == p + 2


def test_criterion_3_four_approximation_vs_oracle(suite_results):
    with criterion(3, f"{SUITE_SIZE} random instances: dual <= OPT <= cost <= 4 dual"):
        for inst, opt, pd, lr in zip(
            suite_results["instances"], suite_results["opts"],
            suite_results["pd"], suite_results["lr"],
        ):
            assert pd.dual.value <= opt
            assert opt <= pd.primal_cost
            assert pd.primal_cost <= 4 * pd.dual.value or pd.dual.value == 0
            if pd.dual.value == 0:
                assert pd.primal_cost == 0
            assert pd.primal_cost <= 4 * opt
            assert lr.assignment_cost <= 4 * opt
            assert lr.cost <= 4 * opt
        assert suite_results["elapsed"] < 60.0, f"suite took {suite_results['elapsed']:.1f}s"


def test_criterion_4_charging_invariants(suite_results):
    # every solver's reverse delete already asserts the charging bound per
    # undo; the primal-dual bound is re-verified here from certificates
    with criterion(4, "charging bounds hold on every iteration of every run"):
        for inst, pd in zip(suite_results["instances"], suite_results["pd"]):
            report = check_charging(pd.dual, pd.due_dates, inst)
            assert report.ok, report
        for p in (4, 50, 1000):
            out = solve_primal_dual(gen_tight(p))
            assert check_charging(out.dual, out.due_dates, gen_tight(p)).ok


def test_criterion_5_dual_and_primal_feasibility(suite_results):
    with criterion(5, "dual feasible at every step; pruned assignments feasible"):
        for idx, (inst, pd) in enumerate(
            zip(suite_results["instances"], suite_results["pd"])
        ):
            # the final dual bounds every prefix, and is checked everywhere;
            # explicit per-iteration prefixes are checked on a subsample
            assert check_dual_feasible(pd.dual, inst).feasible
            if idx < 50:
                for i in range(len(pd.dual.entries)):
                    partial = DualSolution.from_entries(pd.dual.entries[: i + 1], inst)
                    assert check_dual_feasible(partial, inst).feasible
            if idx < 20:
                solve_primal_dual(inst, debug=True)  # ledger of every raise and the final dual
            assert check_primal_feasible(pd.due_dates, inst, dual=pd.dual).feasible
            assert len(pd.due_dates) == inst.n
            assert all(d >= 1 for d in pd.due_dates)


def test_criterion_6_rounding(suite_results):
    with criterion(6, "interval rounding: cost <= 4(1+eps) OPT, bracketing, size bound"):
        for eps in (Fraction(1, 10), Fraction(1)):
            for inst, opt in zip(suite_results["instances"], suite_results["opts"]):
                out = solve_rounded(inst, eps)
                assert out.primal_cost <= 4 * (1 + eps) * opt
                rd = out.rounded
                for j, func in enumerate(rd.cost_funcs):
                    base_fn = inst.jobs[j].cost
                    for left in rd.partition.points:
                        base = base_fn.value_at(left)
                        mod = func.value_at(left)
                        if base is INFEASIBLE:
                            assert mod is INFEASIBLE
                        else:
                            assert base <= mod <= (1 + eps) * base
                tau = len(rd.partition.points)
                exponent = tau - 1 - 2 * inst.n
                if exponent > 0:
                    prod = 1
                    for job in inst.jobs:
                        v = job.cost.value_at(inst.horizon)
                        prod *= max(v, 1)
                    assert (1 + eps) ** exponent <= prod


def test_criterion_7_release_dates(release_results):
    with criterion(7, f"{RELEASE_SUITE_SIZE} release instances: cost <= 4k OPT; criterion == EDD"):
        for inst, out, opt in zip(
            release_results["instances"], release_results["outs"],
            release_results["opts"],
        ):
            assert out.assignment_cost <= 4 * inst.kappa * opt
            assert out.cost <= 4 * inst.kappa * opt
            assert feasible_assignment(out.due_dates, inst)
        trials = 0
        for seed, inst in enumerate(release_results["instances"]):
            rng = random.Random(10_000 + seed)
            for _ in range(5):
                due = tuple(rng.randint(1, inst.horizon) for _ in range(inst.n))
                by_criterion = feasible_assignment(due, inst)
                by_simulation = isinstance(preemptive_edd(due, inst), Schedule)
                assert by_criterion == by_simulation, (seed, due)
                trials += 1
        assert trials == 1000


def test_criterion_8_determinism(suite_results, release_results, capsys, tmp_path):
    with criterion(8, "byte-identical traces and reports across repeated runs"):
        for seed, (inst, pd, lr) in enumerate(
            zip(suite_results["instances"], suite_results["pd"], suite_results["lr"])
        ):
            assert serialize_instance(inst) == serialize_instance(suite_instance(seed))
            again = solve_primal_dual(inst)
            assert trace_to_jsonl(again.trace) == trace_to_jsonl(pd.trace)
            assert again.due_dates == pd.due_dates
            assert again.dual == pd.dual
            lr_again = solve_local_ratio(inst)
            assert lr_trace_to_jsonl(lr_again.trace) == lr_trace_to_jsonl(lr.trace)
            assert lr_again.due_dates == lr.due_dates
        for inst, out in zip(release_results["instances"], release_results["outs"]):
            again = solve_release(inst)
            assert lr_trace_to_jsonl(again.trace) == lr_trace_to_jsonl(out.trace)
            assert again.due_dates == out.due_dates
        # CLI reports with stable timing are byte-identical as well
        path = tmp_path / "tight4.json"
        assert cli_main(["gen", "tight", "--p", "4", "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["solve", "--algo", "pd", "--stable", "--check", str(path)]) == 0
        first = capsys.readouterr().out
        assert cli_main(["solve", "--algo", "pd", "--stable", "--check", str(path)]) == 0
        second = capsys.readouterr().out
        assert first == second
