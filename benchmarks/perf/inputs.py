"""Workload inputs, made from the ``--seed`` argument alone.

* ``cold-m3`` solves the registry M3 cluster (``load_cluster("M3")``,
  regenerated from its registry seed 103) and ignores the seed.  A cold
  MIP solve's work is chaotic in its input: on M3-shaped specs the
  generator seed alone moved one solve from 1.7 s to 70 s (one seed
  gave an infeasible MIP shard), and a 1 % traffic drift drawn from ten
  seeds spread it by 23 % and its peak RSS by 4 %, against 12 % and
  under 1 % for the unchanged cluster over ten runs.
* ``replay-week`` and ``service-2t`` replay the reference week --
  ``build_trace()`` of ``benchmarks/traces/make_reference.py``, that is
  ``synthesize_trace(seed=2)``, checked byte for byte against the
  committed ``reference_week.jsonl.gz`` -- through a 0.2 %
  traffic measurement drift in the program's own collector, seeded by
  the replay API's own ``traffic_jitter_sigma`` and ``seed`` arguments.
  The event seed is kept at 2: it moved the
  column-generation work of a 12-cycle slice by a third (203 vs 274
  iterations), left some base clusters unplaceable and breached the SLA
  floor on others.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Per-window traffic drift the seed draws (lognormal sigma).  The MILP
#: count of a 12-cycle slice spread (IQR over median) by 13 % over eight
#: seeds at the collector's default, 0.05; by 7 % over ten seeds at 0.01,
#: which also moved the expensive cycles around the slice; by 3 % over
#: six seeds at 0.002, every seed keeping the same cycle profile.
TRAFFIC_DRIFT_SIGMA = 0.002


def m3_problem():
    """The registry M3 cluster."""
    from repro.workloads import load_cluster

    return load_cluster("M3").problem


def reference_week(root: Path, path: Path) -> list[str]:
    """Synthesize the reference week to ``path``; errors if it is not the committed one."""
    traces = root / "benchmarks" / "traces"
    if str(traces) not in sys.path:
        sys.path.insert(0, str(traces))
    from make_reference import TRACE_PATH, build_trace

    build_trace().save(path)
    if path.read_bytes() != TRACE_PATH.read_bytes():
        return [f"synthesized reference week differs from {TRACE_PATH}"]
    return []


def trace_payload(path: Path) -> dict:
    """A saved trace as the ``trace`` field of a service ``TenantSpec``."""
    from repro.cluster.replay import EventTrace
    from repro.workloads.trace_io import problem_to_dict

    trace = EventTrace.load(path)
    return {
        "name": trace.name,
        "seed": int(trace.seed),
        "interval_seconds": float(trace.interval_seconds),
        "description": trace.description,
        "base": problem_to_dict(trace.base),
        "events": [event.to_dict() for event in trace.events],
    }
