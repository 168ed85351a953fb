"""Command-line front end: solve, compare, gen, and verify.

The CLI is a thin shell over the library; reports are JSON objects on
stdout with rationals carried as "num/den" strings so nothing is lost
to floating point.  Exit codes: 0 success, 2 parse or usage error,
3 infeasible instance, 4 invariant or check violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .edd import Schedule, feasible_assignment, preemptive_edd
from .errors import (
    InfeasibleInstanceError,
    InstanceError,
    SchedError,
    SizeLimitError,
)
from .generators import RandomSpec, gen_random, gen_tight, gen_tight_shifted
from .instance import Instance, parse_instance, serialize_instance
from .local_ratio import Outcome, lr_trace_to_jsonl, solve_local_ratio, solve_release
from .oracle import exact_opt, exact_opt_release
from .primal_dual import (
    check_charging,
    check_dual_feasible,
    check_primal_feasible,
    solve_primal_dual,
    trace_to_jsonl,
)
from .rounding import solve_rounded

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_CHECK_FAILED = 4

ALGORITHMS = ("pd", "lr", "release", "rounded")


def _rat(q: Fraction | None) -> str | None:
    if q is None:
        return None
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _digest(inst: Instance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()


def _load(path: str) -> Instance:
    return parse_instance(Path(path).read_text())


def _rational(text: str) -> Fraction:
    """argparse type for --epsilon and --delta: an unparsable rational, or
    one whose numerator or denominator has more digits than Python will
    print, is a usage error (exit 2), never a traceback.  An exponent past
    that digit limit is refused before any power of 10 is built."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits  # 0: no limit
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    try:
        if exponent and abs(int(exponent[1])) > limit:
            raise ValueError
        q = Fraction(text)
        str(q.numerator), str(q.denominator)  # ValueError past the limit
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"not a rational number of at most {limit} digits: {text!r}"
        ) from exc
    return q


def _run_algorithm(
    inst: Instance, algo: str, epsilon: Fraction | None, *, debug: bool = False
) -> Outcome:
    if algo == "rounded":
        if epsilon is None:
            raise InstanceError("--epsilon is required with --algo rounded")
        return solve_rounded(inst, epsilon, debug=debug)
    if epsilon is not None:
        raise InstanceError(f"--epsilon applies only to --algo rounded, not {algo}")
    solve = {"pd": solve_primal_dual, "lr": solve_local_ratio, "release": solve_release}
    return solve[algo](inst, debug=debug)


def _oracle_cost(inst: Instance) -> int:
    if inst.has_releases:
        return exact_opt_release(inst).opt_cost
    return exact_opt(inst).opt_cost


def _run_checks(inst: Instance, algo: str, outcome: Outcome) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    due = outcome.due_dates
    if outcome.dual is not None:
        # the rounded dual is feasible for the rounded instance
        cost_inst = outcome.rounded.instance if outcome.rounded else inst
        checks["dual_feasible"] = check_dual_feasible(outcome.dual, cost_inst).feasible
        checks["charging"] = check_charging(outcome.dual, due, inst).ok
        checks["primal_feasible"] = check_primal_feasible(
            due, inst, dual=outcome.dual
        ).feasible
    elif algo == "lr":
        checks["primal_feasible"] = check_primal_feasible(due, inst).feasible
    else:
        checks["assignment_feasible"] = feasible_assignment(due, inst)
        checks["preemptive_edd"] = isinstance(preemptive_edd(due, inst), Schedule)
    return checks


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    start = time.perf_counter()
    outcome = _run_algorithm(inst, args.algo, args.epsilon)
    wall_ms = 0.0 if args.stable else (time.perf_counter() - start) * 1000.0
    report: dict[str, object] = {
        "algorithm": args.algo,
        "instance": _digest(inst),
        "cost": outcome.cost,
        "wall_ms": wall_ms,
    }
    if outcome.dual is not None:
        report["dual"] = _rat(outcome.dual.value)
        report["ratio"] = _rat(outcome.ratio)
    if args.epsilon is not None:
        report["epsilon"] = _rat(args.epsilon)
    if args.with_opt:
        report["opt"] = _oracle_cost(inst)
    if args.trace:
        if args.algo in ("lr", "release"):
            text = lr_trace_to_jsonl(outcome.trace, release=args.algo == "release")
        else:  # rounded tight times print as left ends of the partition intervals
            points = outcome.rounded.partition.points if outcome.rounded else None
            text = trace_to_jsonl(outcome.trace, points)
        Path(args.trace).write_text(text)
        report["trace_path"] = args.trace
    failed = False
    if args.check:
        checks = _run_checks(inst, args.algo, outcome)
        report["checks"] = checks
        failed = not all(checks.values())
    print(json.dumps(report, sort_keys=True))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _compare_one(path: str, with_opt: bool) -> list[dict[str, object]]:
    inst = _load(path)
    algos = ["release"] if inst.has_releases else ["pd", "lr"]
    try:
        opt = _oracle_cost(inst) if with_opt else None
    except SizeLimitError:  # past the oracle's limit: this row's opt is "-"
        opt = None
    rows = []
    for algo in algos:
        out = _run_algorithm(inst, algo, None)
        row: dict[str, object] = {
            "instance": path,
            "algo": algo,
            "cost": out.cost,
            "dual": _rat(out.dual.value) if out.dual else None,
            "ratio": _rat(out.ratio),
            "opt": opt,
            "cost_over_opt": _rat(Fraction(out.cost, opt)) if opt else None,
        }
        rows.append(row)
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    rows = [row for path in args.instances for row in _compare_one(path, args.with_opt)]
    columns = ["instance", "algo", "cost", "dual", "ratio", "opt", "cost_over_opt"]
    cells = [[_cell(row[c]) for c in columns] for row in rows]
    if args.tsv:
        print("\t".join(columns))
        for line in cells:
            print("\t".join(line))
    else:
        widths = [
            max(len(col), *(len(line[i]) for line in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        print("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
        for line in cells:
            print("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    if args.with_opt:
        worst = max(
            (Fraction(row["cost"], row["opt"]) for row in rows if row["opt"]),
            default=None,
        )
        print(f"max cost/opt = {_rat(worst) if worst is not None else '-'}")
    return EXIT_OK


def _cell(value: object) -> str:
    return "-" if value is None else str(value)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "tight":
        inst = gen_tight(args.p)
    elif args.kind == "tight-shifted":
        inst = gen_tight_shifted(args.p, args.delta)
    else:
        spec = RandomSpec(
            seed=args.seed,
            n=args.n,
            p_max=args.p_max,
            max_breakpoints=args.max_breakpoints,
            v_max=args.v_max,
            kappa=args.kappa,
        )
        inst = gen_random(spec)
    text = serialize_instance(inst)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    outcome = _run_algorithm(inst, args.algo, args.epsilon, debug=True)
    checks = _run_checks(inst, args.algo, outcome)
    ok = all(checks.values())
    for name, passed in sorted(checks.items()):
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    print(f"{'PASS' if ok else 'FAIL'} overall ({args.algo})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcsched",
        description="Min-sum single-machine scheduling solvers with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one algorithm on an instance file")
    solve.add_argument("instance")
    solve.add_argument("--algo", choices=ALGORITHMS, default="pd")
    solve.add_argument(
        "--epsilon", type=_rational, help="rational like 1/2 or 0.5 (rounded only)"
    )
    solve.add_argument("--check", action="store_true", help="run feasibility checkers")
    solve.add_argument("--trace", help="write the iteration trace to this path")
    solve.add_argument("--with-opt", action="store_true", help="include the exact optimum")
    solve.add_argument("--stable", action="store_true", help="zero out timing for reproducible bytes")
    solve.set_defaults(func=cmd_solve)

    compare = sub.add_parser("compare", help="run all applicable algorithms")
    compare.add_argument("instances", nargs="+")
    compare.add_argument("--with-opt", action="store_true")
    compare.add_argument("--tsv", action="store_true")
    compare.set_defaults(func=cmd_compare)

    gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    tight = gen_sub.add_parser("tight")
    tight.add_argument("--p", type=int, required=True)
    tight.add_argument("--out")
    tight.set_defaults(func=cmd_gen)
    shifted = gen_sub.add_parser("tight-shifted")
    shifted.add_argument("--p", type=int, required=True)
    shifted.add_argument("--delta", type=_rational, required=True, help="rational like 1/4")
    shifted.add_argument("--out")
    shifted.set_defaults(func=cmd_gen)
    rand = gen_sub.add_parser("random")
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--p-max", type=int, default=6)
    rand.add_argument("--max-breakpoints", type=int, default=4)
    rand.add_argument("--v-max", type=int, default=20)
    rand.add_argument("--kappa", type=int, default=1)
    rand.add_argument("--out")
    rand.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="solve with all invariant checks enabled")
    verify.add_argument("instance")
    verify.add_argument("--algo", choices=ALGORITHMS, default="pd")
    verify.add_argument("--epsilon", type=_rational)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, SchedError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
