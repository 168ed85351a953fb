"""Certified-solve benchmark for kcsched.

One client, one process, closed loop: each request is an in-process
``kcsched.cli.main(["solve", <file>, "--stable", "--check", ...])`` call
on a generated instance file, and the next request starts only when the
previous one returns.  This is the command-line path without interpreter
start-up, so the load stays on one core.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wide-horizon --seed 1 --seconds 28 --trace 0

``perfbench/report.py`` runs every workload both ways and prints all
metrics as one table; ``python3 -m pytest perfbench -q`` tests the
benchmark's own rules.

The benchmark generates a pool of requests from ``--seed``, sets up
(import, generate, write, one untimed warm-up request) several times and
reports the median set-up time, then goes through the pool in order
until ``--seconds`` have passed and at least EXACT_PREFIX requests have
been answered.  Every answer goes through the correctness gate in
``judge``; a request that fails is counted, never skipped.  With
``--trace 1`` every request is also replayed through the public library
functions with spans around each layer (see ``replay.py``), and the
per-layer metrics are printed instead of the end-to-end ones: span
times as mean seconds per request, exact counts over the first
EXACT_PREFIX requests, and ``generators.gen_s`` as the median seconds
one set-up spends in ``gen_random``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report (every metric with its unit, exact counts and the
environment).  The program reads and writes only inside the checkout:
instance files and the exact-count record live under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Seed used unless --seed is given.  HELD_OUT_SEED is never used while a
# change is being written; it only confirms a claimed gain afterwards.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

SETUP_REPEATS = 3
TAIL_MIN_BEYOND = 10
GOLDEN = (5**0.5 - 1) / 2
# Every run answers at least this many requests, taken in pool order,
# and its exact values (cost_total, cert_ratio_max, per-layer counts)
# cover exactly these, so that they repeat whatever the machine's speed.
EXACT_PREFIX = 16
# End-to-end metrics compared between commits.  failed_frac is carried
# by the result's own attempted/failed counts; cost_total and
# cert_ratio_max are exact values of the seed's instances, so they are
# compared for equality (see compare_exact), not against a bound.
END_TO_END = ("setup_s", "solve_p50_s", "solve_tail_s", "certified_per_s", "peak_rss_mb")


@dataclass(frozen=True)
class Workload:
    """A seeded family of ``gen_random`` instances and the solve
    arguments every instance is requested with (one request each)."""

    n_range: tuple[int, int]
    p_max: int
    kappas: tuple[int, ...]
    requests: tuple[tuple[str, ...], ...]
    instances: int  # pool size: enough that a run seldom wraps around


WORKLOADS = {
    # T of 3.6k-6k against a handful of breakpoints: the dense 1..T grid
    # in grow and the checkers does almost all the work; the subset-DP
    # oracle is cheap at n <= 12 and checks every cost against OPT.
    "wide-horizon": Workload((8, 12), 1000, (1,), (("--algo", "pd", "--with-opt"),), 96),
    # ~100 iterations on a small grid: per-iteration work (peak scan,
    # Fraction tightness search, paid update, ResidualCosts re-summing)
    # dominates, on both the pd and the lr path over the same instances.
    "many-jobs": Workload((40, 80), 10, (1,), (("--algo", "pd"), ("--algo", "lr")), 48),
    # Interval decomposition of release/local_ratio does the work and
    # primal_dual never runs: a pd-only change must leave this flat.
    "release-kappa": Workload((40, 80), 10, (2, 4, 8), (("--algo", "release"),), 192),
    # Big-integer cost_class powers in rounding.build_partition take
    # nearly all the time; grow runs on a small compressed grid.
    "fine-eps": Workload(
        (10, 20), 10, (1,), (("--algo", "rounded", "--epsilon", "1/1000"),), 80
    ),
}

@dataclass(frozen=True)
class Request:
    path: str
    argv: tuple[str, ...]

    @property
    def algo(self) -> str:
        return self.argv[self.argv.index("--algo") + 1]

    @property
    def with_opt(self) -> bool:
        return "--with-opt" in self.argv

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.argv[self.argv.index("--epsilon") + 1])

    def cli_args(self) -> list[str]:
        return ["solve", self.path, "--stable", "--check", *self.argv]


@dataclass(frozen=True)
class Answer:
    """What one request returned, and the gate's verdict on it."""

    stdout: str
    failure: str | None
    cost: int | None = None
    dual: Fraction | None = None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def build_pool(gen, name: str, seed: int, directory: Path):
    """Generate and write the workload's instances.  Returns the requests
    in order, the warm-up request and the seconds spent in the generator.

    Job counts follow a golden-ratio sequence with a seeded offset, so
    every prefix of the pool covers the workload's range of ``n`` evenly
    whatever the seed; request latency grows steeply with ``n``, and a
    random ``n`` per instance would make the medians of two seeds differ
    by more than the solver's own variation.  The seed decides
    everything else.  The warm-up request is the same for every seed, on
    the family's smallest size, so that set-up time does not depend on
    the seed either.
    """
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    lo, hi = wl.n_range
    offset = rng.random()
    directory.mkdir(parents=True, exist_ok=True)
    gen_s = 0.0

    def instance(label: str, gen_seed: int, n: int, kappa: int) -> str:
        nonlocal gen_s
        spec = gen.RandomSpec(
            seed=gen_seed, n=n, p_max=wl.p_max, max_breakpoints=6, v_max=1000, kappa=kappa
        )
        t0 = time.perf_counter()
        inst = gen.gen_random(spec)
        gen_s += time.perf_counter() - t0
        path = directory / f"{name}-{label}.json"
        path.write_text(gen.serialize_instance(inst) + "\n")
        return str(path)

    warmup = Request(instance("warmup", 0, lo, wl.kappas[0]), wl.requests[0])
    requests = []
    for i in range(wl.instances):
        n = lo + int((offset + i * GOLDEN) % 1.0 * (hi - lo + 1))
        path = instance(f"{i:03d}", rng.getrandbits(32), n, wl.kappas[i % len(wl.kappas)])
        requests.extend(Request(path, argv) for argv in wl.requests)
    return requests, warmup, gen_s


# ---------------------------------------------------------------------------
# Requests and the correctness gate
# ---------------------------------------------------------------------------


def call(cli, req: Request) -> tuple[float, int, str]:
    """One closed-loop request: (latency in seconds, exit code, stdout).

    An exception the command raises instead of returning an exit code is
    reported as exit code -1 with the traceback as output, so that the
    request is counted as failed rather than ending the run.
    """
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(req.cli_args())
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code if isinstance(exc.code, int) else -1
    except Exception:
        code = -1
        out.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue()


def judge(req: Request, code: int, stdout: str) -> Answer:
    """Gate one answer.  A request fails when the exit code is not 0,
    when any check in the report is not true, when a pd or rounded
    certificate does not prove cost < 4 * dual, or when an answer with
    the exact optimum lies outside [opt, 4 * opt]."""
    if code == -1:
        return Answer(stdout, f"raised {stdout.strip().splitlines()[-1]}")
    if code != 0:
        return Answer(stdout, f"exit code {code}")
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
        cost = report["cost"]
        checks = report["checks"]
        dual = None if report.get("dual") is None else Fraction(report["dual"])
        ratio = None if report.get("ratio") is None else Fraction(report["ratio"])
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return Answer(stdout, f"unreadable report: {exc!r}")
    if not isinstance(cost, int) or not isinstance(checks, dict) or not checks:
        return Answer(stdout, "report lacks an integer cost or checks")
    failed_checks = sorted(k for k, v in checks.items() if v is not True)
    if failed_checks:
        return Answer(stdout, f"checks failed: {failed_checks}")
    if req.algo in ("pd", "rounded"):
        if dual is None or dual == 0:
            if cost != 0:
                return Answer(stdout, "positive cost without a positive dual")
        elif not Fraction(cost) / dual < 4:
            return Answer(stdout, f"ratio {Fraction(cost) / dual} is not below 4")
        elif ratio != Fraction(cost) / dual:
            return Answer(stdout, "reported ratio is not cost/dual")
    if req.with_opt:
        opt = report.get("opt")
        if not isinstance(opt, int) or not opt <= cost <= 4 * opt:
            return Answer(stdout, f"cost {cost} outside [opt, 4 opt] for opt {opt}")
    return Answer(stdout, None, cost, dual)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least TAIL_MIN_BEYOND
    samples beyond it, and that percentile's name.

    With N sorted samples, the sample at 1-based rank N - 10 has ten
    beyond it and sits at percentile 100 (N - 10) / N.  Below eleven
    samples no rank qualifies and the maximum is reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], "p100"
    rank = n - TAIL_MIN_BEYOND
    return ordered[rank - 1], f"p{100 * rank / n:.1f}"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Environment and exact-count record
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(kcsched) -> dict[str, object]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "git_commit": git_commit(),
        "kcsched_version": kcsched.__version__,
    }


def code_digest() -> str:
    """Digest of the solver and benchmark sources: exact counts recorded
    under one digest must repeat on every later run of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_exact(name: str, seed: int, trace: bool, exact: dict) -> str | None:
    """Record the run's exact values, or compare them with the record an
    earlier run of the same code, workload, seed and mode left behind."""
    record = STATE / "exact" / f"{code_digest()}-{name}-{seed}-{int(trace)}.json"
    text = json.dumps(exact, sort_keys=True)
    if record.is_file():
        before = record.read_text()
        if before != text:
            return f"exact values differ from an earlier run: {before} != {text}"
        return None
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, record)
    return None


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _import_kcsched():
    """Fresh import of the package from the checkout's sources."""
    for mod in [m for m in sys.modules if m == "kcsched" or m.startswith("kcsched.")]:
        del sys.modules[mod]
    import kcsched
    import kcsched.cli

    return kcsched


def setup(name: str, seed: int, directory: Path):
    """Import, generate and write the pool, one untimed warm-up request;
    repeated SETUP_REPEATS times.  Returns the package, the pool, the
    median set-up seconds and the median generator seconds."""
    setup_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        t0 = time.perf_counter()
        kcsched = _import_kcsched()
        pool, warmup, gen_seconds = build_pool(kcsched, name, seed, directory)
        call(kcsched.cli, warmup)
        setup_s.append(time.perf_counter() - t0)
        gen_s.append(gen_seconds)
    return kcsched, pool, statistics.median(setup_s), statistics.median(gen_s)


@dataclass
class Tally:
    """What the closed loop saw: one latency per attempted request, the
    first answer of every pool request, and every failure."""

    latencies: list[float] = field(default_factory=list)
    firsts: dict[int, Answer] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    certified: int = 0
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(
    cli, pool: list[Request], seconds: float, min_requests: int, replayer=None
) -> Tally:
    """Closed loop through the pool, in order and wrapping around, until
    `seconds` have passed and at least `min_requests` have been answered.
    A repeated request must print exactly what it printed the first time."""
    tally = Tally()
    start = time.perf_counter()
    while tally.attempted < min_requests or time.perf_counter() - start < seconds:
        index = tally.attempted % len(pool)
        req = pool[index]
        latency, code, stdout = call(cli, req)
        answer = judge(req, code, stdout)
        failure = answer.failure
        if failure is None and index in tally.firsts and stdout != tally.firsts[index].stdout:
            failure = "output differs from this request's first answer"
        if replayer is not None and failure is None:
            failure = replayer.replay(index, req, answer, latency)
        tally.latencies.append(latency)
        tally.firsts.setdefault(index, answer)
        if failure is None:
            tally.certified += 1
        else:
            tally.failures.append(f"{Path(req.path).name} {' '.join(req.argv)}: {failure}")
    tally.elapsed = time.perf_counter() - start
    return tally


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (full report, result line)."""
    directory = STATE / f"work-{name}-{seed}-{os.getpid()}"
    try:
        kcsched, pool, setup_s, gen_s = setup(name, seed, directory)
        replayer = None
        if trace:
            import replay

            replayer = replay.Replayer(kcsched)
        tally = measure(kcsched.cli, pool, seconds, EXACT_PREFIX, replayer)
        peak = peak_rss_mib()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    answers = [tally.firsts[i] for i in range(EXACT_PREFIX)]
    ratios = [Fraction(a.cost) / a.dual for a in answers if a.dual]
    exact: dict[str, object] = {
        "cost_total": sum(a.cost or 0 for a in answers),
        "cert_ratio_max": str(max(ratios)) if ratios else None,
    }
    if replayer is not None:
        exact.update(replayer.counts(range(EXACT_PREFIX)))
    mismatch = compare_exact(name, seed, trace, exact)
    if mismatch:
        tally.failures.append(mismatch)

    attempted = tally.attempted
    tail_s, tail_name = tail(tally.latencies)
    e2e = {
        "setup_s": (setup_s, "s"),
        "solve_p50_s": (statistics.median(tally.latencies), "s"),
        "solve_tail_s": (tail_s, "s"),
        "certified_per_s": (tally.certified / tally.elapsed, "1/s"),
        "failed_frac": ((attempted - tally.certified) / attempted, "ratio"),
        "peak_rss_mb": (peak, "MiB"),
        "cost_total": (exact["cost_total"], "cost"),
        "cert_ratio_max": (float(max(ratios)) if ratios else 0.0, "ratio"),
    }
    report: dict[str, object] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": tally.elapsed,
        "pool_requests": len(pool),
        "samples": attempted,
        "solve_tail_percentile": tail_name,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "exact": exact,
        "environment": environment(kcsched),
        "failures": tally.failures,
    }
    if replayer is not None:
        replayer.write_spans(STATE / "spans" / f"{name}-{seed}.jsonl")
        layers = replayer.layer_metrics()
        for key in replay.COUNTS:
            layers[key] = (exact[key], "bits" if key in replay.MAX_COUNTS else "count")
        layers["generators.gen_s"] = (gen_s, "s")
        layers["solution.cost_total"] = e2e["cost_total"]
        layers["solution.cert_ratio_max"] = e2e["cert_ratio_max"]
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["trace_overhead"] = replayer.overhead()
        metrics = report["per_layer"]
    else:
        metrics = {k: report["end_to_end"][k] for k in END_TO_END}
    result = {
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": attempted - tally.certified,
        "metrics": metrics,
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out to confirm a claimed gain",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kcsched" / "__init__.py").is_file():
        print(f"error: no kcsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report["failures"][:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
