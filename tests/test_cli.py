from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcsched
from kcsched.cli import main
from kcsched.generators import RandomSpec, gen_random
from kcsched.instance import serialize_instance

from conftest import instances

BIG = 10**9
# three jobs of size 10^9: T = 3 * 10^9, or 4 * 10^9 with job 1 released at 10^9
BIG_INSTANCE = {"jobs": [
    {"p": BIG, "cost": [[BIG, 5], [2 * BIG, 9]]},
    {"p": BIG, "cost": [[2 * BIG + 1, 7]]},
    {"p": BIG, "cost": [[1, 1], [3 * BIG, 20]]},
]}
ALGO_ARGS = {
    "pd": ["--algo", "pd"],
    "lr": ["--algo", "lr"],
    "release": ["--algo", "release"],
    "rounded": ["--algo", "rounded", "--epsilon", "1/10"],
}


@pytest.fixture
def tight_file(tmp_path):
    path = tmp_path / "tight4.json"
    assert main(["gen", "tight", "--p", "4", "--out", str(path)]) == 0
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_canonical_instance(tight_file):
    from kcsched.generators import gen_tight
    from kcsched.instance import parse_instance

    text = open(tight_file).read().strip()
    assert parse_instance(text) == gen_tight(4)


def test_solve_pd_report(capsys, tight_file):
    code, out, _ = run(capsys, ["solve", "--algo", "pd", "--stable", tight_file])
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == 16
    assert report["dual"] == "6"
    assert report["ratio"] == "8/3"
    assert report["wall_ms"] == 0.0


def test_solve_with_check_and_opt(capsys, tight_file):
    code, out, _ = run(
        capsys, ["solve", "--algo", "pd", "--check", "--with-opt", tight_file]
    )
    assert code == 0
    report = json.loads(out)
    assert report["opt"] == 16
    assert report["checks"] == {
        "charging": True, "dual_feasible": True, "primal_feasible": True,
    }


def test_solve_lr_check_random(capsys, tmp_path):
    inst = gen_random(RandomSpec(seed=7, n=5))
    path = tmp_path / "r7.json"
    path.write_text(serialize_instance(inst))
    code, out, _ = run(capsys, ["solve", "--algo", "lr", "--check", str(path)])
    assert code == 0
    assert json.loads(out)["checks"]["primal_feasible"] is True


def test_solve_rounded_zero_costs(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"jobs":[{"p":2,"cost":[]},{"p":1,"cost":[]}]}')
    code, out, _ = run(
        capsys, ["solve", "--algo", "rounded", "--epsilon", "0.5", str(path)]
    )
    assert code == 0
    assert json.loads(out)["cost"] == 0


def test_rounded_check_uses_the_rounded_grid(capsys, tmp_path):
    # the rounded dual certifies the modified costs on the partition grid;
    # against the base costs on 1..T it would overshoot at t = 1
    path = tmp_path / "one.json"
    path.write_text('{"jobs":[{"p":4,"cost":[[1,9],[2,12],[3,15]]}]}')
    argv = ["--algo", "rounded", "--epsilon", "1", str(path)]
    code, out, _ = run(capsys, ["solve", "--check", *argv])
    assert code == 0
    assert json.loads(out)["checks"]["dual_feasible"] is True
    code, out, _ = run(capsys, ["verify", *argv])
    assert code == 0
    assert "PASS dual_feasible" in out


def test_solve_release_algo(capsys, tmp_path):
    inst = gen_random(RandomSpec(seed=3, n=3, p_max=2, v_max=5, kappa=2))
    path = tmp_path / "rel.json"
    path.write_text(serialize_instance(inst))
    code, out, _ = run(capsys, ["solve", "--algo", "release", "--check", str(path)])
    assert code == 0
    assert json.loads(out)["cost"] == 2


def test_trace_file_matches_library(capsys, tight_file, tmp_path):
    from kcsched.generators import gen_tight
    from kcsched.primal_dual import solve_primal_dual, trace_to_jsonl

    trace_path = tmp_path / "t.jsonl"
    code, _, _ = run(
        capsys, ["solve", "--algo", "pd", "--trace", str(trace_path), tight_file]
    )
    assert code == 0
    assert trace_path.read_text() == trace_to_jsonl(solve_primal_dual(gen_tight(4)).trace)


def test_compare_with_opt(capsys, tight_file):
    code, out, _ = run(capsys, ["compare", "--with-opt", "--tsv", tight_file])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == [
        "instance", "algo", "cost", "dual", "ratio", "opt", "cost_over_opt",
    ]
    pd_row = lines[1].split("\t")
    assert pd_row[1:] == ["pd", "16", "6", "8/3", "16", "1"]
    lr_row = lines[2].split("\t")
    assert lr_row[1:] == ["lr", "16", "-", "-", "16", "1"]
    assert lines[-1] == "max cost/opt = 1"


def test_compare_batch_reports_bounded_ratio(capsys, tmp_path):
    from fractions import Fraction

    paths = []
    for seed in range(20):
        inst = gen_random(RandomSpec(seed=seed, n=seed % 6 + 1, p_max=4, v_max=9))
        path = tmp_path / f"b{seed}.json"
        path.write_text(serialize_instance(inst))
        paths.append(str(path))
    code, out, _ = run(capsys, ["compare", "--with-opt", "--tsv", *paths])
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("max cost/opt = ")
    assert Fraction(last.removeprefix("max cost/opt = ")) <= 4


def test_verify_exit_zero(capsys, tight_file):
    code, out, _ = run(capsys, ["verify", tight_file, "--algo", "pd"])
    assert code == 0
    assert "PASS overall (pd)" in out


def test_gen_tight_p3_is_usage_error(capsys):
    code, _, err = run(capsys, ["gen", "tight", "--p", "3"])
    assert code == 2
    assert "p >= 4" in err


def test_infeasible_instance_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"jobs":[{"p":1,"cost":[[1,"INF"]]}]}')
    code, _, err = run(capsys, ["solve", "--algo", "pd", str(path)])
    assert code == 3
    assert "infeasible" in err


def test_malformed_instance_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, _ = run(capsys, ["solve", str(path)])
    assert code == 2


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("algo", ["pd", "lr", "release"])
def test_epsilon_without_rounded_is_usage_error(capsys, tight_file, command, algo):
    code, out, err = run(capsys, [command, tight_file, "--algo", algo, "--epsilon", "1/2"])
    assert code == 2
    assert out == ""
    assert "--epsilon applies only to --algo rounded" in err


def test_stable_reports_are_byte_identical(capsys, tight_file):
    _, out1, _ = run(capsys, ["solve", "--algo", "pd", "--stable", "--check", tight_file])
    _, out2, _ = run(capsys, ["solve", "--algo", "pd", "--stable", "--check", tight_file])
    assert out1 == out2


def test_gen_random_deterministic_output(capsys):
    _, out1, _ = run(capsys, ["gen", "random", "--seed", "1", "--n", "6"])
    _, out2, _ = run(capsys, ["gen", "random", "--seed", "1", "--n", "6"])
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "INSTANCE", "--algo", "rounded", "--epsilon", "1/0"],
        ["solve", "INSTANCE", "--algo", "pd", "--epsilon", "1/0"],
        ["verify", "INSTANCE", "--algo", "rounded", "--epsilon", "1/0"],
        ["solve", "INSTANCE", "--algo", "rounded", "--epsilon", "half"],
        ["gen", "tight-shifted", "--p", "4", "--delta", "1/0"],
        # past the interpreter's digit limit: the report could not print them
        ["solve", "INSTANCE", "--algo", "rounded", "--epsilon", "1e-5000"],
        ["gen", "tight-shifted", "--p", "4", "--delta", "1e5000"],
    ],
)
def test_unparsable_rational_is_usage_error(capsys, tight_file, argv):
    argv = [tight_file if a == "INSTANCE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "not a rational number" in err


def test_exponent_is_accepted_without_a_digit_limit(capsys, tight_file):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # what PYTHONINTMAXSTRDIGITS=0 sets
    try:
        argv = ["solve", tight_file, "--algo", "rounded", "--epsilon", "1e-5", "--stable"]
        assert main(argv) == 0
    finally:
        sys.set_int_max_str_digits(old)
    assert '"epsilon": "1/100000"' in capsys.readouterr().out


# Building 10**100000000 alone would take minutes, so these run in a
# fresh interpreter under a timeout.
@pytest.mark.parametrize("value", ["1e-100000000", "1E+100_000_000"])
def test_huge_exponent_is_usage_error_at_once(tight_file, value):
    proc = run_subprocess(["verify", tight_file, "--algo", "rounded", "--epsilon", value])
    assert proc.returncode == 2
    assert "error: argument --epsilon" in proc.stderr
    assert "not a rational number" in proc.stderr


def run_subprocess(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m kcsched.cli argv`, killed after 20 s."""
    src = str(Path(kcsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "kcsched.cli", *argv],
        capture_output=True, text=True, timeout=20, env=env,
    )


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("algo", sorted(ALGO_ARGS))
def test_checks_do_not_depend_on_the_horizon(tmp_path, algo, command):
    doc = copy.deepcopy(BIG_INSTANCE)
    if algo == "release":
        doc["jobs"][1]["release"] = BIG
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path), *ALGO_ARGS[algo]]
    if command == "solve":
        argv += ["--check", "--stable"]
    proc = run_subprocess(argv)
    assert proc.returncode == 0, proc.stderr


# Geometric class boundaries at epsilon 1/10^6 need powers (1 + eps)^k
# with k in the millions; anchored classes compare small integers.
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_tiny_epsilon_is_cheap(tmp_path, command):
    path = tmp_path / "six.json"
    path.write_text(serialize_instance(gen_random(RandomSpec(seed=1, n=6))))
    argv = [command, str(path), "--algo", "rounded", "--epsilon", "1/1000000"]
    if command == "solve":
        argv.append("--check")
    proc = run_subprocess(argv)
    assert proc.returncode == 0, proc.stderr


def assert_exit_ok_or_infeasible(inst, algo_args):
    """`solve --check --stable --trace` and `verify`, for each algorithm
    that applies to the instance, exit only 0 or 3."""
    algos = ["release"] if inst.has_releases else sorted(algo_args)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "inst.json")
        Path(path).write_text(serialize_instance(inst))
        trace = str(Path(tmp) / "trace.jsonl")
        for algo in algos:
            solve = ["solve", path, "--check", "--stable", "--trace", trace]
            for argv in (solve, ["verify", path]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = main([*argv, *algo_args[algo]])
                assert code in (0, 3), (algo, argv[0], out.getvalue())


# A check that walked 1..T would not return here at all; the subprocess
# test above bounds the time.
@settings(max_examples=40, deadline=None)
@given(
    st.booleans().flatmap(
        lambda rel: instances(
            max_n=4, max_p=10**12, max_value=10**6, releases=rel, allow_infeasible=True
        )
    ),
)
def test_huge_processing_times_exit_ok_or_infeasible(inst):
    assert_exit_ok_or_infeasible(inst, ALGO_ARGS)


@settings(max_examples=60, deadline=None)
@given(
    st.booleans().flatmap(
        lambda rel: instances(
            max_n=6, max_p=6, max_value=1000, releases=rel, allow_infeasible=True
        )
    ),
    st.sampled_from(["1", "1/2", "1/10", "1/1000"]),
)
def test_random_instances_exit_ok_or_infeasible(inst, eps):
    rounded = ["--algo", "rounded", "--epsilon", eps]
    assert_exit_ok_or_infeasible(inst, {**ALGO_ARGS, "rounded": rounded})
