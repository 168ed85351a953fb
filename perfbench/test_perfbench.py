"""Tests of the benchmark's own rules: the tail percentile, failure
accounting, the correctness gate, the exact-count record and the traced
replay's equality check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import kcsched  # noqa: E402
import kcsched.cli  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402

INFEASIBLE = {"jobs": [{"p": 3, "cost": [[2, "INF"]]}, {"p": 2, "cost": []}]}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _small(path: Path, seed: int, kappa: int = 1) -> str:
    spec = kcsched.RandomSpec(seed=seed, n=6, p_max=5, max_breakpoints=3, v_max=50, kappa=kappa)
    path.write_text(kcsched.serialize_instance(kcsched.gen_random(spec)))
    return str(path)


# -- tail percentile -------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100, 0, -1)]
    value, name = run.tail(samples)
    assert value == 90.0 and name == "p90.0"
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    value, name = run.tail([float(i) for i in range(11)])
    assert value == 0.0 and name == "p9.1"


def test_tail_below_eleven_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "p100")
    assert run.tail([float(i) for i in range(10)]) == (9.0, "p100")


# -- failure accounting ----------------------------------------------------


def test_infeasible_instance_counts_as_failed(tmp_path):
    bad = run.Request(_write(tmp_path / "bad.json", INFEASIBLE), ("--algo", "pd"))
    good = run.Request(_small(tmp_path / "good.json", 3), ("--algo", "pd"))
    _, code, _ = run.call(kcsched.cli, bad)
    assert code == 3
    tally = run.measure(kcsched.cli, [good, bad], 0, 2)
    assert tally.attempted == 2 and tally.certified == 1
    assert tally.failures == ["bad.json --algo pd: exit code 3"]


def test_usage_error_counts_as_failed(tmp_path):
    req = run.Request(_small(tmp_path / "a.json", 1), ("--algo", "rounded"))
    tally = run.measure(kcsched.cli, [req], 0, 1)
    assert tally.attempted == 1 and tally.certified == 0
    assert tally.failures[0].endswith("exit code 2")


def test_exception_counts_as_failed():
    class Broken:
        @staticmethod
        def main(argv):
            raise KeyError("boom")

    req = run.Request("x.json", ("--algo", "pd"))
    latency, code, out = run.call(Broken, req)
    assert code == -1 and "KeyError" in out
    assert run.judge(req, code, out).failure == "raised KeyError: 'boom'"


def _answer(**fields) -> str:
    doc = {"cost": 10, "dual": "3", "ratio": "10/3", "checks": {"charging": True}}
    doc.update(fields)
    return json.dumps(doc) + "\n"


@pytest.mark.parametrize(
    "argv, stdout, reason",
    [
        (("--algo", "pd"), _answer(checks={"charging": False}), "checks failed"),
        (("--algo", "pd"), _answer(checks={}), "lacks"),
        (("--algo", "pd"), _answer(cost=12, ratio="4"), "not below 4"),
        (("--algo", "rounded"), _answer(ratio="3"), "not cost/dual"),
        (("--algo", "pd"), _answer(dual="0", ratio=None), "without a positive dual"),
        (("--algo", "pd", "--with-opt"), _answer(opt=11), "outside [opt, 4 opt]"),
        (("--algo", "pd", "--with-opt"), _answer(opt=2), "outside [opt, 4 opt]"),
        (("--algo", "pd"), "not json\n", "unreadable report"),
        (("--algo", "pd"), _answer(ratio="x/y"), "unreadable report"),
    ],
)
def test_gate_rejects(argv, stdout, reason):
    failure = run.judge(run.Request("x.json", argv), 0, stdout).failure
    assert failure is not None and reason in failure


def test_gate_accepts_a_certified_answer():
    answer = run.judge(run.Request("x.json", ("--algo", "pd", "--with-opt")), 0, _answer(opt=9))
    assert answer.failure is None and answer.cost == 10


def test_lr_and_release_need_no_dual():
    stdout = json.dumps({"cost": 5, "checks": {"primal_feasible": True}})
    assert run.judge(run.Request("x.json", ("--algo", "lr")), 0, stdout).failure is None


# -- exact counts ----------------------------------------------------------


def test_exact_values_must_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    assert run.compare_exact("w", 1, False, {"cost_total": 5}) is None
    assert run.compare_exact("w", 1, False, {"cost_total": 5}) is None
    assert "differ" in run.compare_exact("w", 1, False, {"cost_total": 6})
    assert run.compare_exact("w", 2, False, {"cost_total": 6}) is None


def test_pool_is_a_function_of_the_seed(tmp_path):
    a, warm_a, _ = run.build_pool(kcsched, "release-kappa", 4, tmp_path / "a")
    text_a = [Path(r.path).read_text() for r in a]
    b, _, _ = run.build_pool(kcsched, "release-kappa", 4, tmp_path / "b")
    assert [Path(r.path).read_text() for r in b] == text_a
    assert [Path(r.path).name for r in a] == [Path(r.path).name for r in b]
    c, warm_c, _ = run.build_pool(kcsched, "release-kappa", 5, tmp_path / "c")
    assert [Path(r.path).read_text() for r in c] != text_a
    assert Path(warm_a.path).read_text() == Path(warm_c.path).read_text()


def test_pool_prefixes_cover_the_size_range(tmp_path):
    pool, _, _ = run.build_pool(kcsched, "many-jobs", 9, tmp_path)
    sizes = [len(json.loads(Path(r.path).read_text())["jobs"]) for r in pool[: 2 * 16 : 2]]
    assert min(sizes) < 45 and max(sizes) > 75


# -- traced replay ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv, kappa",
    [
        (("--algo", "pd", "--with-opt"), 1),
        (("--algo", "lr"), 1),
        (("--algo", "release"), 3),
        (("--algo", "rounded", "--epsilon", "1/10"), 1),
    ],
)
def test_replay_agrees_with_the_command_line(tmp_path, argv, kappa):
    req = run.Request(_small(tmp_path / "i.json", 11, kappa), argv)
    replayer = replay.Replayer(kcsched)
    tally = run.measure(kcsched.cli, [req], 0, 2, replayer)
    assert tally.failures == [] and tally.certified == 2
    layers = replayer.layer_metrics()
    assert set(layers) >= {f"{name}_s" for name in replay.SPANS} | {"cli.self_s"}
    assert layers["instance.parse_s"][0] > 0
    assert replayer.overhead()["requests"] == 2
    spans = replayer.spans
    assert {s[4] for s in spans} == {1, 2}
    assert all(s[3] is None for s in spans if s[0] == "cli")


def test_replay_flags_a_wrong_answer(tmp_path):
    req = run.Request(_small(tmp_path / "i.json", 11), ("--algo", "lr"))
    _, code, stdout = run.call(kcsched.cli, req)
    doc = json.loads(stdout)
    doc["cost"] += 1
    answer = run.judge(req, code, json.dumps(doc))
    assert answer.failure is None
    failure = replay.Replayer(kcsched).replay(0, req, answer, 0.0)
    assert failure is not None and "untraced" in failure
