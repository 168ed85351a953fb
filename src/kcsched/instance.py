"""Data model for min-sum single-machine scheduling instances.

Each job has a positive integral processing time and a nondecreasing
step cost over completion times in [1, T], where T is the maximum
release date plus the total processing time.  Cost functions are sparse
breakpoint lists; the INFEASIBLE sentinel marks completion times that
are never allowed (it compares above every finite value and stays
infeasible once reached).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Union

from .errors import InstanceError

__all__ = [
    "INFEASIBLE",
    "Cost",
    "CostFunction",
    "Job",
    "Instance",
    "JobSet",
    "demand",
    "residual_demand",
    "cost_sum",
    "parse_instance",
    "serialize_instance",
]


class _Infeasible:
    """Sentinel cost value: strictly greater than every finite cost."""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return other is self

    def __gt__(self, other: Any) -> bool:
        return other is not self

    def __ge__(self, other: Any) -> bool:
        return True

    def __repr__(self) -> str:
        return "INFEASIBLE"

    def __reduce__(self):
        return (_get_infeasible, ())


INFEASIBLE = _Infeasible()


def _get_infeasible() -> _Infeasible:
    return INFEASIBLE


Cost = Union[int, _Infeasible]


def cost_sum(values: Iterable[Cost]) -> Cost:
    """Sum of cost values; INFEASIBLE is absorbing."""
    total = 0
    for v in values:
        if v is INFEASIBLE:
            return INFEASIBLE
        total += v
    return total


@dataclass(frozen=True)
class CostFunction:
    """Nondecreasing step function given by (time, value) breakpoints.

    The value at t is the value of the last breakpoint with time <= t,
    and 0 before the first breakpoint.  Values must be nondecreasing
    (INFEASIBLE counts as larger than any finite value), breakpoint
    times strictly increasing and >= 1.
    """

    breakpoints: tuple[tuple[int, Cost], ...]

    def __post_init__(self) -> None:
        prev_t = 0
        prev_v: Cost = 0
        for t, v in self.breakpoints:
            if not isinstance(t, int) or isinstance(t, bool) or t < 1:
                raise InstanceError(f"cost breakpoint time {t!r} must be an integer >= 1")
            if v is not INFEASIBLE and (not isinstance(v, int) or isinstance(v, bool) or v < 0):
                raise InstanceError(f"cost value {v!r} must be a nonnegative integer or INFEASIBLE")
            if t <= prev_t:
                raise InstanceError("cost breakpoint times must be strictly increasing")
            if v < prev_v:
                raise InstanceError("cost not nondecreasing")
            prev_t, prev_v = t, v
        object.__setattr__(self, "_times", tuple(t for t, _ in self.breakpoints))

    def value_at(self, t: int) -> Cost:
        """Value at integer time t >= 0 (0 before the first breakpoint)."""
        if t < 0:
            raise InstanceError(f"time {t} out of range")
        idx = bisect_right(self._times, t)  # type: ignore[attr-defined]
        if idx == 0:
            return 0
        return self.breakpoints[idx - 1][1]

    @property
    def times(self) -> tuple[int, ...]:
        return self._times  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Job:
    """A job: index id, processing time p, step cost, release date."""

    id: int
    p: int
    cost: CostFunction
    release: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or isinstance(self.p, bool) or self.p < 1:
            raise InstanceError(f"job {self.id}: p must be a positive integer, got {self.p!r}")
        if not isinstance(self.release, int) or isinstance(self.release, bool) or self.release < 0:
            raise InstanceError(f"job {self.id}: release must be a nonnegative integer")


@dataclass(frozen=True)
class Instance:
    """A validated scheduling instance.

    The horizon T = max release + total processing time is always
    recomputed, never trusted from input.  Job ids must equal their
    positions in the jobs tuple.
    """

    jobs: tuple[Job, ...]
    horizon: int = field(init=False)
    total_processing: int = field(init=False)
    release_dates: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise InstanceError("instance must contain at least one job")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        for idx, job in enumerate(self.jobs):
            if job.id != idx:
                raise InstanceError(f"job {job.id}: id must equal its position {idx}")
        total = sum(j.p for j in self.jobs)
        horizon = max(j.release for j in self.jobs) + total
        object.__setattr__(self, "total_processing", total)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "release_dates", tuple(sorted({j.release for j in self.jobs})))
        for job in self.jobs:
            if job.cost.breakpoints and job.cost.breakpoints[-1][0] > horizon:
                raise InstanceError(
                    f"job {job.id}: cost breakpoint time {job.cost.breakpoints[-1][0]} "
                    f"beyond horizon {horizon}"
                )
            if job.release > 0 and job.cost.value_at(job.release) != 0:
                raise InstanceError(
                    f"job {job.id}: cost at release date {job.release} must be 0"
                )

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def kappa(self) -> int:
        """Number of distinct release dates."""
        return len(self.release_dates)

    @property
    def has_releases(self) -> bool:
        return self.release_dates != (0,)

    def processing(self) -> list[int]:
        return [j.p for j in self.jobs]


@dataclass(frozen=True)
class JobSet:
    """Subset of jobs as a bitmask with cached total processing time."""

    mask: int
    total_size: int

    @classmethod
    def from_ids(cls, ids: Iterable[int], inst: Instance) -> "JobSet":
        mask = 0
        total = 0
        for j in ids:
            if not 0 <= j < inst.n:
                raise InstanceError(f"job id {j} out of range")
            bit = 1 << j
            if mask & bit:
                continue
            mask |= bit
            total += inst.jobs[j].p
        return cls(mask, total)

    def contains(self, job_id: int) -> bool:
        return bool(self.mask >> job_id & 1)

    def ids(self) -> tuple[int, ...]:
        out = []
        mask = self.mask
        j = 0
        while mask:
            if mask & 1:
                out.append(j)
            mask >>= 1
            j += 1
        return tuple(out)


def demand(t: int, inst: Instance) -> int:
    """Processing volume that must complete at time t or later: T - t + 1."""
    if not 1 <= t <= inst.horizon:
        raise InstanceError(f"time {t} out of range [1, {inst.horizon}]")
    return inst.horizon - t + 1


def residual_demand(t: int, covered: JobSet, inst: Instance) -> int:
    """Demand at t remaining once the jobs in `covered` count toward it."""
    return max(demand(t, inst) - covered.total_size, 0)


# ---------------------------------------------------------------------------
# JSON (de)serialization
#
# Format: {"jobs": [{"p": int, "release": int?, "cost": [[t, v], ...]}]}
# with "INF" allowed as a cost value.  Times are 1-based.  The canonical
# form sorts breakpoints by time and omits release when it is 0.
# ---------------------------------------------------------------------------


def _as_int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceError(f"{what} must be an integer, got {value!r}")
    return value


def parse_instance(text: str) -> Instance:
    """Parse an instance from JSON text; horizon and kappa are recomputed."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad syntax, or an integer past the digit limit
        raise InstanceError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError("malformed JSON: nested too deeply") from exc
    if not isinstance(doc, dict) or "jobs" not in doc:
        raise InstanceError('instance JSON must be an object with a "jobs" list')
    raw_jobs = doc["jobs"]
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise InstanceError('"jobs" must be a non-empty list')
    jobs = []
    for idx, spec in enumerate(raw_jobs):
        if not isinstance(spec, dict):
            raise InstanceError(f"job {idx}: entry must be an object")
        p = _as_int(spec.get("p"), f"job {idx}: p")
        release = spec.get("release", 0)
        release = _as_int(release, f"job {idx}: release")
        raw_cost = spec.get("cost", [])
        if not isinstance(raw_cost, list):
            raise InstanceError(f"job {idx}: cost must be a list of [time, value] pairs")
        pairs: list[tuple[int, Cost]] = []
        for pair in raw_cost:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InstanceError(f"job {idx}: cost breakpoints must be [time, value] pairs")
            t = _as_int(pair[0], f"job {idx}: cost breakpoint time")
            v: Cost
            if pair[1] == "INF":
                v = INFEASIBLE
            else:
                v = _as_int(pair[1], f"job {idx}: cost value")
            pairs.append((t, v))
        pairs.sort(key=lambda tv: tv[0])
        try:
            cost = CostFunction(tuple(pairs))
            jobs.append(Job(idx, p, cost, release))
        except InstanceError as exc:
            raise InstanceError(f"job {idx}: {exc}") from exc
    return Instance(tuple(jobs))


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON text for an instance (stable bytes per instance)."""
    out_jobs = []
    for job in inst.jobs:
        entry: dict[str, Any] = {"p": job.p}
        if job.release != 0:
            entry["release"] = job.release
        entry["cost"] = [
            [t, "INF" if v is INFEASIBLE else v] for t, v in job.cost.breakpoints
        ]
        out_jobs.append(entry)
    return json.dumps({"jobs": out_jobs}, separators=(",", ":"))
