"""Local-ratio solver for instances with release dates.

Residual demand now lives on intervals [r, t): work released at or
after r but due before t, measured against the room between r and t.
The engine in `local_ratio` already searches these intervals over all
release dates; the guarantee degrades to 4 kappa, where kappa is the
number of distinct release dates.
"""

from __future__ import annotations

from .edd import interval_residual_demand, peak_demand
from .errors import InstanceError
from .instance import Instance
from .local_ratio import LocalRatioOutcome, _solve, decompose

__all__ = ["residual_demand_rt", "decompose_release", "solve_release"]

# The engine's split is the interval split: active jobs are released
# inside [r*, t*) and due before t*.
decompose_release = decompose


def residual_demand_rt(r: int, t: int, due: tuple[int, ...], inst: Instance) -> int:
    """Residual demand of the interval [r, t) under the given due dates."""
    if r not in inst.release_dates:
        raise InstanceError(f"{r} is not a release date of this instance")
    if not r < t <= inst.horizon:
        raise InstanceError(f"time {t} out of range ({r}, {inst.horizon}]")
    return interval_residual_demand(r, t, due, inst)


def _argmax_interval(
    due: list[int], inst: Instance, *, full_scan: bool = False
) -> tuple[int, int, int]:
    """(demand, t, r) maximizing interval residual demand; ties prefer the
    largest t, then the largest r.  The default is the engine's sweep
    `edd.peak_demand`; the full scan over every (r, t) is its oracle."""
    if not full_scan:
        return peak_demand(due, inst)
    best = (0, -1, -1)
    for r in inst.release_dates:
        for t in range(r + 1, inst.horizon + 1):
            d = interval_residual_demand(r, t, due, inst)
            if d > 0 and (d, t, r) > best:
                best = (d, t, r)
    return best


def solve_release(inst: Instance, *, check: bool = True) -> LocalRatioOutcome:
    """Local-ratio solve with release dates; cost within 4 kappa of optimum.

    Starts from the release-date vector itself (instance validation
    guarantees zero cost there) and raises due dates until the interval
    criterion holds, then undoes raises that feasibility can spare.  The
    returned schedule is the preemptive EDD witness.
    """
    return _solve(inst, check=check, release=True)
