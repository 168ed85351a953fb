"""Byte-for-byte CLI goldens: `solve --stable --check --trace` stdout and
trace file for pd, lr, release (kappa = 3) and rounded at eps = 1/1000,
and at eps = 1, where the partition rounds costs up; `verify` stdout for
the same runs; and `compare --tsv` over the distinct instances.

Each case `<algo>-seed<N>` (or `rounded-eps<E>-seed<N>`) has its
instance (`.json`), the expected stdout (`.stdout`), the expected trace
(`.jsonl`) and the expected `verify` stdout (`.verify`) under
tests/data/golden; the trace is written to the relative path
`trace.jsonl`, which the report echoes.  Every solve is also run as a
fresh `python -O` interpreter, which must print the same bytes.  The
`compare` goldens name their instances by paths relative to that
directory: `compare-with-opt.tsv` holds the pd and rounded cases with
`--with-opt`, `compare-release.tsv` the release cases, which are
past the release oracle's size limit, and `compare-opt-past-limit.tsv`
one pd and one release case with `--with-opt`, where only the release
row's `opt` is `-`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kcsched
from kcsched.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.json"))


def test_golden_cases_cover_every_algorithm():
    assert {case.split("-")[0] for case in CASES} == {"pd", "lr", "release", "rounded"}


def algo_argv(case: str) -> list[str]:
    algo, *tags = case.split("-")
    argv = ["--algo", algo]
    if algo == "rounded":
        eps = tags[0][3:] if tags[0].startswith("eps") else "1/1000"
        argv += ["--epsilon", eps]
    return argv


def solve_argv(case: str) -> list[str]:
    return ["solve", str(GOLDEN / f"{case}.json"), *algo_argv(case),
            "--stable", "--check", "--trace", "trace.jsonl"]


@pytest.mark.parametrize("case", CASES)
def test_solve_bytes_match_golden(case, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(solve_argv(case)) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.stdout").read_text()
    assert (tmp_path / "trace.jsonl").read_text() == (GOLDEN / f"{case}.jsonl").read_text()


# `python -O` strips every assert: the same bytes show that the solvers'
# assertions only check, never compute.
@pytest.mark.parametrize("case", CASES)
def test_solve_bytes_match_golden_without_asserts(case, tmp_path):
    src = str(Path(kcsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kcsched.cli", *solve_argv(case)],
        capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{case}.stdout").read_text()
    assert (tmp_path / "trace.jsonl").read_text() == (GOLDEN / f"{case}.jsonl").read_text()


@pytest.mark.parametrize("case", CASES)
def test_verify_bytes_match_golden(case, capsys):
    assert main(["verify", str(GOLDEN / f"{case}.json"), *algo_argv(case)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.verify").read_text()


COMPARE = {
    "compare-with-opt.tsv": [
        "--with-opt", *(f"{c}.json" for c in CASES if c.startswith(("pd-", "rounded-seed")))
    ],
    "compare-release.tsv": [f"{c}.json" for c in CASES if c.startswith("release-")],
    "compare-opt-past-limit.tsv": ["--with-opt", "pd-seed3.json", "release-seed3.json"],
}


@pytest.mark.parametrize("golden", sorted(COMPARE))
def test_compare_tsv_bytes_match_golden(golden, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(["compare", "--tsv", *COMPARE[golden]]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
