"""Output checks and summary statistics of the benchmark.

The placement check is written here, against the problem's raw arrays,
rather than calling ``Assignment.check_feasibility``: a benchmark that
asks the program whether the program is right checks nothing.
"""

from __future__ import annotations

import math
import statistics

#: Alive-fraction floor every cycle must hold (the loop's ``sla_floor``).
SLA_FLOOR = 0.75
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def placement_errors(problem, x) -> list[str]:
    """Constraint violations of placement ``x`` (services x machines)."""
    import numpy as np

    x = np.asarray(x)
    errors = []
    demands = np.array([service.demand for service in problem.services])
    placed = x.sum(axis=1)
    if (placed != demands).any():
        errors.append(f"{int((placed != demands).sum())} services not fully placed")
    if (x < 0).any():
        errors.append("negative container count")
    usage = x.T.astype(float) @ problem.requests_matrix
    if (usage > problem.capacities_matrix + 1e-9).any():
        errors.append("machine capacity exceeded")
    for rule in problem.anti_affinity:
        rows = [problem.service_index(name) for name in rule.services]
        if (x[rows].sum(axis=0) > rule.limit).any():
            errors.append(f"anti-affinity limit {rule.limit} exceeded")
    if ((x > 0) & ~problem.schedulable).any():
        errors.append("container on a machine its service may not use")
    return errors


def plan_errors(problem, start, plan) -> list[str]:
    """Replay a migration plan's command sets from placement ``start``.

    At every step boundary each service keeps ``floor(0.75 * demand)``
    containers alive -- the loop's SLA floor, in whole containers, so a
    2-container service may run on one -- and no machine is over capacity.
    """
    import numpy as np

    x = np.array(start, dtype=np.int64)
    floor = np.floor(SLA_FLOOR * np.array([s.demand for s in problem.services]))
    errors = []
    for index, step in enumerate(plan.steps):
        for command in step:
            row = problem.service_index(command.service)
            column = problem.machine_index(command.machine)
            x[row, column] += 1 if command.action.value == "create" else -1
        if (x < 0).any():
            errors.append(f"step {index}: deletes a container that is not there")
        if (x.sum(axis=1) < floor).any():
            errors.append(f"step {index}: a service is below its SLA floor")
        if (x.T.astype(float) @ problem.requests_matrix
                > problem.capacities_matrix + 1e-9).any():
            errors.append(f"step {index}: machine capacity exceeded")
    return errors


def report_errors(report: dict) -> list[str]:
    """SLA violations recorded in one serialized ``CycleReport``."""
    if report["sla_ok"]:
        return []
    return [f"cycle {report['cycle']}: sla_ok is false"]


def comparable(report: dict) -> dict:
    """A serialized report without its process-local fields."""
    return {k: v for k, v in report.items() if k not in ("metrics", "trace_id")}


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``.  With fewer than ``TAIL_BEYOND + 1``
    samples no such percentile exists and the maximum is returned as
    percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100
    index = n - TAIL_BEYOND - 1
    return float(ordered[index]), int(math.floor(100.0 * (index + 1) / n))
