from __future__ import annotations

from fractions import Fraction

import pytest

from kcsched.errors import InstanceError
from kcsched.generators import RandomSpec, gen_random, gen_tight, gen_tight_shifted
from kcsched.instance import INFEASIBLE, serialize_instance
from kcsched.oracle import exact_opt
from kcsched.primal_dual import solve_primal_dual


def test_tight_structure():
    inst = gen_tight(4)
    assert inst.horizon == 16
    assert [j.p for j in inst.jobs] == [4, 4, 4, 4]
    f0 = inst.jobs[0].cost
    assert f0.value_at(3) == 0 and f0.value_at(4) == 4 and f0.value_at(11) == 4
    assert f0.value_at(12) is INFEASIBLE
    f2 = inst.jobs[2].cost
    assert f2.value_at(10) == 0 and f2.value_at(11) == 4 and f2.value_at(16) == 4


def test_tight_requires_p_at_least_4():
    with pytest.raises(InstanceError):
        gen_tight(3)


@pytest.mark.parametrize("p,expected_ratio", [(4, Fraction(16, 6)), (100, Fraction(400, 102))])
def test_tight_gap(p, expected_ratio):
    out = solve_primal_dual(gen_tight(p))
    assert out.primal_cost == 4 * p
    assert out.dual.value == p + 2
    assert out.ratio == expected_ratio


def test_shifted_structure():
    inst = gen_tight_shifted(4, Fraction(1, 4))
    assert inst.n == 5
    dummy = inst.jobs[4]
    assert dummy.p == 16
    assert dummy.cost.value_at(16) == 0
    assert dummy.cost.value_at(17) is INFEASIBLE
    for j in range(4):
        f = inst.jobs[j].cost
        assert f.value_at(1) == 1  # delta * p
        # never cheaper than finishing as early as possible
        floor = f.value_at(inst.jobs[j].p)
        for _, v in f.breakpoints:
            assert v is INFEASIBLE or v >= floor
    assert inst.horizon == 32


def test_shifted_rejects_non_integral_scale():
    with pytest.raises(InstanceError):
        gen_tight_shifted(4, Fraction(1, 3))


def test_shifted_run_mirrors_base_run():
    base = solve_primal_dual(gen_tight(4))
    shifted = solve_primal_dual(gen_tight_shifted(4, Fraction(1, 4)))
    # dummy assigned to the old horizon in the first step
    assert shifted.trace[0].job == 4
    assert shifted.trace[0].time == 16
    # second step pays exactly delta on the shifted copy
    assert shifted.trace[1].alpha == Fraction(1, 4)
    # afterwards the run is the base run moved right by the old horizon
    assert tuple(r.t_star - 16 for r in shifted.trace[2:]) == tuple(
        r.t_star for r in base.trace[1:]
    )
    assert shifted.primal_cost == base.primal_cost + 4  # four bumps of delta * p
    assert shifted.dual.value == base.dual.value + 4  # extra delta * old horizon
    # the observed gap shrinks by less than the extra certificate value
    assert shifted.ratio >= base.ratio - Fraction(1, 4) * 16


def test_random_deterministic():
    spec = RandomSpec(seed=1, n=2)
    assert serialize_instance(gen_random(spec)) == serialize_instance(gen_random(spec))


def test_random_respects_spec():
    for seed in range(50):
        spec = RandomSpec(seed=seed, n=seed % 8 + 1, p_max=6, max_breakpoints=4, v_max=20)
        inst = gen_random(spec)
        assert inst.n == spec.n
        for job in inst.jobs:
            assert 1 <= job.p <= 6
            assert len(job.cost.breakpoints) <= 4
            values = [v for _, v in job.cost.breakpoints]
            assert all(isinstance(v, int) and 0 <= v <= 20 for v in values)


def test_random_with_releases_valid():
    for seed in range(50):
        spec = RandomSpec(seed=seed, n=seed % 4 + 2, p_max=3, v_max=9, kappa=3)
        inst = gen_random(spec)
        assert inst.kappa <= 3
        for job in inst.jobs:
            assert job.cost.value_at(job.release) == 0


def test_random_finite_opt():
    for seed in range(60):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=4, v_max=9))
        assert isinstance(exact_opt(inst).opt_cost, int)


def test_random_spec_validation():
    with pytest.raises(InstanceError):
        RandomSpec(seed=0, n=0)
    with pytest.raises(InstanceError):
        RandomSpec(seed=0, n=1, kappa=0)
