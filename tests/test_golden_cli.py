"""Byte-for-byte CLI goldens: `solve --stable --check --trace` stdout and
trace file for pd, lr, release (kappa = 3) and rounded at eps = 1/1000.

Each case `<algo>-seed<N>` has its instance (`.json`), the expected
stdout (`.stdout`) and the expected trace (`.jsonl`) under
tests/data/golden; the trace is written to the relative path
`trace.jsonl`, which the report echoes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from kcsched.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.json"))


def test_golden_cases_cover_every_algorithm():
    assert {case.split("-")[0] for case in CASES} == {"pd", "lr", "release", "rounded"}


@pytest.mark.parametrize("case", CASES)
def test_solve_bytes_match_golden(case, capsys, monkeypatch, tmp_path):
    algo = case.split("-")[0]
    argv = ["solve", str(GOLDEN / f"{case}.json"), "--algo", algo,
            "--stable", "--check", "--trace", "trace.jsonl"]
    if algo == "rounded":
        argv += ["--epsilon", "1/1000"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.stdout").read_text()
    assert (tmp_path / "trace.jsonl").read_text() == (GOLDEN / f"{case}.jsonl").read_text()
