from __future__ import annotations

import json

import pytest

from kcsched.cli import main
from kcsched.generators import RandomSpec, gen_random
from kcsched.instance import serialize_instance


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


def test_stable_reports_are_byte_identical(capsys, tight_file):
    _, out1, _ = run(capsys, ["solve", "--algo", "pd", "--stable", "--check", tight_file])
    _, out2, _ = run(capsys, ["solve", "--algo", "pd", "--stable", "--check", tight_file])
    assert out1 == out2


def test_gen_random_deterministic_output(capsys):
    _, out1, _ = run(capsys, ["gen", "random", "--seed", "1", "--n", "6"])
    _, out2, _ = run(capsys, ["gen", "random", "--seed", "1", "--n", "6"])
    assert out1 == out2
