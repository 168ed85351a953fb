from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcsched.errors import InstanceError
from kcsched.instance import (
    INFEASIBLE,
    CostFunction,
    Instance,
    Job,
    JobSet,
    demand,
    parse_instance,
    residual_demand,
    serialize_instance,
)

from conftest import instances


def test_demand_endpoints(tight4):
    assert demand(1, tight4) == 16
    assert demand(16, tight4) == 1


def test_demand_tight_row(tight4):
    # p = 4, t = 3p - 1 = 11 leaves demand p + 2
    assert demand(11, tight4) == 6


def test_demand_out_of_range(tight4):
    with pytest.raises(InstanceError):
        demand(0, tight4)
    with pytest.raises(InstanceError):
        demand(17, tight4)


def test_residual_demand_examples(tight4):
    assert residual_demand(1, JobSet.from_ids([2], tight4), tight4) == 12
    assert residual_demand(4, JobSet.from_ids([2, 3], tight4), tight4) == 5
    everyone = JobSet.from_ids(range(4), tight4)
    assert residual_demand(9, everyone, tight4) == 0


def test_cost_at_examples(tight4):
    assert tight4.jobs[2].cost.value_at(9) == 0
    assert tight4.jobs[0].cost.value_at(12) is INFEASIBLE
    assert tight4.jobs[0].cost.value_at(0) == 0
    zero = Job(0, 1, CostFunction(()))
    assert zero.cost.value_at(1) == 0


def test_infeasible_ordering():
    assert INFEASIBLE > 10**12
    assert not INFEASIBLE < 5
    assert 3 < INFEASIBLE
    assert INFEASIBLE >= INFEASIBLE
    assert INFEASIBLE != 7


def test_jobset_cached_size(tight4):
    s = JobSet.from_ids([0, 2], tight4)
    assert s.total_size == 8
    assert s.ids() == (0, 2)
    assert s.contains(2) and not s.contains(1)


def test_parse_minimal():
    inst = parse_instance('{"jobs":[{"p":1,"cost":[]}]}')
    assert inst.horizon == 1 and inst.n == 1 and inst.kappa == 1


def test_parse_tight_roundtrip(tight4):
    text = serialize_instance(tight4)
    again = parse_instance(text)
    assert again == tight4
    assert again.horizon == 16


def test_parse_canonicalizes_breakpoint_order():
    messy = '{"jobs":[{"p":5,"release":0,"cost":[[5,3],[2,1]]}]}'
    inst = parse_instance(messy)
    canon = serialize_instance(inst)
    assert canon == '{"jobs":[{"p":5,"cost":[[2,1],[5,3]]}]}'
    assert parse_instance(canon) == inst


def test_parse_decreasing_cost_values():
    with pytest.raises(InstanceError, match="job 0.*nondecreasing"):
        parse_instance('{"jobs":[{"p":1,"cost":[[1,5],[2,3]]}]}')


def test_parse_infeasible_then_finite():
    with pytest.raises(InstanceError, match="nondecreasing"):
        parse_instance('{"jobs":[{"p":3,"cost":[[1,"INF"],[2,4]]}]}')


def test_parse_bad_processing_time():
    with pytest.raises(InstanceError, match="job 1"):
        parse_instance('{"jobs":[{"p":1,"cost":[]},{"p":0,"cost":[]}]}')


def test_parse_breakpoint_beyond_horizon():
    with pytest.raises(InstanceError, match="horizon"):
        parse_instance('{"jobs":[{"p":2,"cost":[[3,1]]}]}')


def test_parse_duplicate_breakpoint_times():
    with pytest.raises(InstanceError, match="strictly increasing"):
        parse_instance('{"jobs":[{"p":3,"cost":[[2,1],[2,2]]}]}')


def test_parse_malformed_json():
    with pytest.raises(InstanceError, match="malformed"):
        parse_instance("{jobs:")


def test_parse_rejects_nonzero_cost_at_release():
    with pytest.raises(InstanceError, match="release"):
        parse_instance('{"jobs":[{"p":1,"release":2,"cost":[[1,1]]}]}')


def test_release_at_zero_needs_no_breakpoint_shift():
    inst = parse_instance('{"jobs":[{"p":1,"cost":[[1,7]]}]}')
    assert inst.jobs[0].cost.value_at(1) == 7


def test_job_ids_must_match_positions():
    with pytest.raises(InstanceError, match="position"):
        Instance((Job(1, 1, CostFunction(())),))


@settings(max_examples=60, deadline=None)
@given(instances(releases=True, allow_infeasible=True))
def test_roundtrip_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@settings(max_examples=40, deadline=None)
@given(instances())
def test_demand_strictly_decreasing(inst):
    values = [demand(t, inst) for t in range(1, inst.horizon + 1)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == 1


@settings(max_examples=40, deadline=None)
@given(instances(max_n=4))
def test_residual_monotone_in_set(inst):
    import itertools

    ids = range(inst.n)
    for t in range(1, inst.horizon + 1, max(1, inst.horizon // 3)):
        for r in range(inst.n + 1):
            for sub in itertools.combinations(ids, r):
                small = JobSet.from_ids(sub, inst)
                grown = JobSet.from_ids(set(sub) | {0}, inst)
                assert residual_demand(t, grown, inst) <= residual_demand(t, small, inst)


# "HUGE" stands for an integer past Python's default limit of 4300 digits
# for int-string conversion, which json.dumps itself cannot write.
HUGE_DIGITS = "9" * 5000

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(["INF", "HUGE"]),
    st.integers(-2, 40),
    st.integers(-(10**40), 10**40),
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["jobs", "p", "release", "cost"]) | st.text(max_size=2),
                      inner, max_size=4),
    max_leaves=24,
)
job_docs = st.fixed_dictionaries(
    {
        "p": json_scalars,
        "cost": st.lists(st.lists(json_scalars, max_size=3) | json_docs, max_size=4),
    },
    optional={"release": json_scalars},
)
instance_docs = st.fixed_dictionaries({"jobs": st.lists(job_docs | json_docs, max_size=4)})


@settings(max_examples=200, deadline=None)
@given(json_docs | instance_docs)
def test_parse_any_json_gives_instance_or_instance_error(doc):
    text = json.dumps(doc).replace('"HUGE"', HUGE_DIGITS)
    try:
        inst = parse_instance(text)
    except InstanceError:
        return
    assert isinstance(inst, Instance)


def test_parse_integer_past_digit_limit_is_instance_error():
    with pytest.raises(InstanceError, match="malformed JSON"):
        parse_instance('{"jobs": [{"p": %s}]}' % HUGE_DIGITS)
