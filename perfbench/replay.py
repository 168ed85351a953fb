"""Traced replay: one request re-run through the public kcsched functions
in the order ``kcsched solve --check`` calls them, with a span around
every call into a layer.

Spans (name, start, end, parent, request id) are kept in memory and
written out when the run ends.  The root span ``cli`` stands for the
whole request; its self time is the part no child span covers (report
assembly, instance digest, trace serialisation).  Counts are taken at
the same boundaries, once per distinct request of the pool, and must
repeat exactly whenever the request is replayed again.

Each replay is checked against the untraced answers: the command line's
report (cost, dual, ratio, opt, checks, digest) and the due dates and
cost of the library's own solve function.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

# Layers timed by a span of this name, reported as "<name>_s": mean
# seconds per replayed request (0 where the workload never calls it).
SPANS = (
    "instance.parse",
    "primal_dual.grow",
    "primal_dual.prune",
    "primal_dual.check_dual",
    "primal_dual.check_charging",
    "primal_dual.check_primal",
    "local_ratio.solve",
    "release.solve",
    "rounding.partition",
    "rounding.rounded_costs",
    "edd.schedule",
    "edd.preemptive",
    "edd.feasible",
    "oracle.exact_opt",
)

# Exact counts summed over a fixed set of pool requests, except the
# denominator size, which is the largest seen.
COUNTS = (
    "primal_dual.grow_iters",
    "primal_dual.zero_alpha_iters",
    "primal_dual.grid_points",
    "primal_dual.ledger_cells",
    "primal_dual.dual_den_bits_max",
    "local_ratio.frames",
    "local_ratio.undo_kept",
    "release.frames",
    "release.undo_kept",
    "rounding.grid_points",
    "oracle.nodes",
)
MAX_COUNTS = ("primal_dual.dual_den_bits_max",)


class Replayer:
    def __init__(self, kcsched):
        self.k = kcsched
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self._stack: list[int] = []
        self._counts: dict[int, dict[str, int]] = {}
        self._request = 0
        self._untraced_s = 0.0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    # -- one request -------------------------------------------------------

    def replay(self, index: int, req, answer, latency: float) -> str | None:
        """Replay a request the command line answered correctly; returns
        a failure message when the replay disagrees with that answer."""
        self._request += 1
        self._untraced_s += latency
        try:
            with self.span("cli"):
                got, counts = self._solve(req)
            if req.algo in ("pd", "rounded"):
                lib_due, lib_cost = self._library_solve(req)
            else:  # the replay's span wrapped the library's solve itself
                lib_due, lib_cost = got["due"], got["cost"]
        except Exception:
            return "replay raised " + traceback.format_exc().strip().splitlines()[-1]
        report = json.loads(answer.stdout.strip().splitlines()[-1])
        expected = {key: report.get(key) for key in got if key != "due"}
        expected["due"] = lib_due
        if got != expected or got["cost"] != lib_cost:
            return f"replay {got} != untraced {expected} (library cost {lib_cost})"
        first = self._counts.setdefault(index, counts)
        if first != counts:
            return f"counts {counts} differ from the first replay {first}"
        return None

    def _solve(self, req) -> tuple[dict, dict[str, int]]:
        k = self.k
        counts = dict.fromkeys(COUNTS, 0)
        with self.span("instance.parse"):
            inst = k.parse_instance(Path(req.path).read_text())
        dual = None
        if req.algo == "pd":
            with self.span("primal_dual.grow"):
                state, dual, trace = k.grow(inst)
            with self.span("primal_dual.prune"):
                due = k.prune(state, inst)
            with self.span("edd.schedule"):
                cost = k.edd_schedule(due, inst).total_cost
            k.trace_to_jsonl(trace)
            _grow_counts(counts, inst, state, dual, trace)
        elif req.algo == "rounded":
            with self.span("rounding.partition"):
                partition = k.build_partition(inst, req.epsilon)
            with self.span("rounding.rounded_costs"):
                rounded = k.RoundedInstance(inst, partition)
            with self.span("primal_dual.grow"):
                state, dual, trace = k.grow(
                    inst, times=partition.points, cost_funcs=list(rounded.cost_funcs)
                )
            with self.span("primal_dual.prune"):
                compressed = k.prune(state, inst)
            due = tuple(partition.right_end(t) for t in compressed)
            with self.span("edd.feasible"):
                if not k.feasible_assignment(due, inst):
                    raise AssertionError("rounded due dates are not feasible")
            with self.span("edd.schedule"):
                cost = k.edd_schedule(due, inst).total_cost
            k.trace_to_jsonl(trace)
            _grow_counts(counts, inst, state, dual, trace)
            counts["rounding.grid_points"] = len(partition.points)
        else:
            layer = "local_ratio" if req.algo == "lr" else "release"
            solve = k.solve_local_ratio if req.algo == "lr" else k.solve_release
            with self.span(f"{layer}.solve"):
                out = solve(inst)
            due, cost = out.due_dates, out.cost
            k.lr_trace_to_jsonl(out.trace)
            counts[f"{layer}.frames"] = len(out.trace)
            counts[f"{layer}.undo_kept"] = sum(r.undo_kept for r in out.trace)
        got: dict[str, object] = {
            "instance": hashlib.sha256(k.serialize_instance(inst).encode()).hexdigest(),
            "cost": cost,
            "due": due,
        }
        if dual is not None:
            # str(Fraction) is the command line's text: "a/b", or "a" if whole
            got["dual"] = str(dual.value)
            got["ratio"] = str(Fraction(cost) / dual.value) if dual.value else None
        if req.with_opt:
            with self.span("oracle.exact_opt"):
                oracle = k.exact_opt(inst)
            got["opt"] = oracle.opt_cost
            counts["oracle.nodes"] = oracle.nodes_explored
        got["checks"] = self._checks(req.algo, inst, due, dual)
        return got, counts

    def _checks(self, algo: str, inst, due, dual) -> dict[str, bool]:
        k = self.k
        checks = {}
        if algo in ("pd", "rounded"):
            with self.span("primal_dual.check_dual"):
                checks["dual_feasible"] = k.check_dual_feasible(dual, inst).feasible
            with self.span("primal_dual.check_charging"):
                checks["charging"] = k.check_charging(dual, due, inst).ok
            with self.span("primal_dual.check_primal"):
                checks["primal_feasible"] = k.check_primal_feasible(
                    due, inst, dual=dual
                ).feasible
        elif algo == "lr":
            with self.span("primal_dual.check_primal"):
                checks["primal_feasible"] = k.check_primal_feasible(due, inst).feasible
        else:
            with self.span("edd.feasible"):
                checks["assignment_feasible"] = k.feasible_assignment(due, inst)
            with self.span("edd.preemptive"):
                checks["preemptive_edd"] = isinstance(
                    k.preemptive_edd(due, inst), k.Schedule
                )
        return checks

    def _library_solve(self, req) -> tuple[tuple[int, ...], int]:
        """Due dates and cost from the untraced solve_primal_dual or solve_rounded."""
        k = self.k
        inst = k.parse_instance(Path(req.path).read_text())
        if req.algo == "pd":
            out = k.solve_primal_dual(inst)
            return out.due_dates, out.primal_cost
        out = k.solve_rounded(inst, req.epsilon)
        return out.due_dates, out.primal_cost

    # -- totals ------------------------------------------------------------

    def counts(self, indices) -> dict[str, int]:
        """Exact counts summed over the given pool indices (those replayed)."""
        total = dict.fromkeys(COUNTS, 0)
        for counts in (self._counts[i] for i in indices if i in self._counts):
            for key, value in counts.items():
                total[key] = max(total[key], value) if key in MAX_COUNTS else total[key] + value
        return total

    def _durations(self) -> tuple[dict[str, float], float]:
        """Total seconds per span name, and the root spans' self time."""
        busy = dict.fromkeys(SPANS, 0.0)
        root_self = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent is None:
                root_self += end - start
            else:
                busy[name] += end - start
                if self.spans[parent][3] is None:
                    root_self -= end - start
        return busy, root_self

    def overhead(self) -> dict[str, float]:
        """Traced total minus untraced total over the replayed requests."""
        traced = sum(end - start for _, start, end, parent, _ in self.spans if parent is None)
        return {
            "traced_s": traced,
            "untraced_s": self._untraced_s,
            "overhead_s": traced - self._untraced_s,
            "requests": self._request,
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        per = max(self._request, 1)
        busy, root_self = self._durations()
        out: dict[str, tuple[float, str]] = {
            f"{name}_s": (busy[name] / per, "s") for name in SPANS
        }
        out["cli.self_s"] = (root_self / per, "s")
        out["trace.overhead_s"] = (self.overhead()["overhead_s"] / per, "s")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "request")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _grow_counts(counts: dict[str, int], inst, state, dual, trace) -> None:
    grid = len(state.times)
    counts["primal_dual.grow_iters"] = len(trace)
    counts["primal_dual.zero_alpha_iters"] = sum(r.alpha == 0 for r in trace)
    counts["primal_dual.grid_points"] = grid
    counts["primal_dual.ledger_cells"] = inst.n * grid  # computed: n x grid points
    counts["primal_dual.dual_den_bits_max"] = max(
        [dual.value.denominator.bit_length()]
        + [e.y.denominator.bit_length() for e in dual.entries]
    )

