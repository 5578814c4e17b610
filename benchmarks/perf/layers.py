"""Hooks and per-layer spans, installed from outside the program.

Every wrapper replaces one public call of a ``repro`` layer: a class
method on its class, a module function at the module that calls it
(``repro.solvers.column_generation.price_pattern_mip``, not its defining
module).  ``src/`` is never edited; :meth:`Recorder.restore` puts every
original back.

Two sets are installed:

* :meth:`Recorder.install_hooks` -- the few wrappers the untraced
  end-to-end runs need: a cycle timer on ``CronJobController.run_once``,
  a copy of every migration plan
  ``MigrationPathBuilder.build`` returns, and the fixed-work guard, which
  records the status of every MILP the solvers run (MIP shards, CG
  pricing, CG rounding).  Each costs one clock read and a list append
  per call.
* :meth:`Recorder.install_layers` -- the traced run's spans at every
  layer boundary (name, start, end, parent, workload, thread), kept in
  memory and written out by :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Recorder:
    """Spans, counters and hook samples of one benchmark process."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: Finished spans: (id, name, start, end, parent id, thread name).
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: ``run_once`` samples: (seconds, CycleReport, problem, placement).
        self.cycles: list[tuple] = []
        #: Migration plans built: (problem, start placement, plan).
        self.plans: list[tuple] = []
        #: MILPs solved (MIP shards, CG pricing, CG rounding): the work done.
        self.milp_solves = 0
        #: MILP results whose status is not ``optimal``: (site, status).
        self.limit_hits: list[tuple[str, str]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple] = []

    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.current_thread().name)
            )

    def wrap(self, owner, attr: str, after=None, span: str | None = None) -> None:
        """Replace ``owner.attr``; ``after(result, args, kwargs, seconds)`` sees each call."""
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            if span is None:
                result = original(*args, **kwargs)
            else:
                result = recorder.span_call(span, original, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs, time.perf_counter() - start)
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def install_hooks(self) -> None:
        """The wrappers the untraced end-to-end run needs."""
        from repro.cluster.cronjob import CronJobController
        from repro.migration.path import MigrationPathBuilder
        from repro.solvers import column_generation, mip, patterns

        def on_plan(plan, args, _kwargs, _seconds):
            self.plans.append((args[1], args[2].x.copy(), plan))

        def on_cycle(report, args, _kwargs, seconds):
            state = args[0].state
            self.cycles.append((seconds, report, state.problem, state.placement))

        def guard(site):
            def after(result, _args, _kwargs, _seconds):
                with self._lock:
                    self.milp_solves += 1
                if result.status != "optimal":
                    self.limit_hits.append((site, result.status))
            return after

        self.wrap(CronJobController, "run_once", on_cycle)
        self.wrap(MigrationPathBuilder, "build", on_plan)
        self.wrap(mip, "solve_milp", guard("mip shard"))
        self.wrap(patterns, "solve_milp", guard("cg pricing"))
        self.wrap(column_generation, "solve_milp", guard("cg rounding"))

    def install_layers(self) -> None:
        """Spans and counters at every layer boundary (the traced run)."""
        from repro.cluster.collector import DataCollector
        from repro.cluster.cronjob import CronJobController
        from repro.cluster.replay import EventStreamCursor
        from repro.core import rasa
        from repro.core.rasa import RASAScheduler
        from repro.durability.checkpoint import CheckpointStore
        from repro.durability.wal import WriteAheadLog
        from repro.migration.executor import MigrationExecutor
        from repro.migration.path import MigrationPathBuilder
        from repro.partitioning.multistage import MultiStagePartitioner
        from repro.selection.selector import HeuristicSelector
        from repro.service.app import OptimizerService
        from repro.service.pool import ControllerPool
        from repro.service.tenant import Tenant
        from repro.solvers import column_generation as cg
        from repro.solvers import mip
        from repro.solvers.column_generation import ColumnGenerationAlgorithm
        from repro.solvers.mip import MIPAlgorithm

        local = self._local
        wal_sizes: dict[str, int] = {}

        def on_select(label, *_call):
            self.count(f"selection.{label}_picks")

        def on_partition(result, *_call):
            self.count("partitioning.subproblems", len(result.subproblems))
            self.count("partitioning.affinity_retained_sum", result.affinity_retained)

        def on_master(_result, args, kwargs, _seconds):
            if not kwargs.get("integral", args[3] if len(args) > 3 else False):
                self.count("solvers.cg.iterations")
                local.cg_iterations = getattr(local, "cg_iterations", 0) + 1

        def on_cg(_result, args, *_rest):
            if getattr(local, "cg_iterations", 0) >= args[0].max_iterations:
                self.count("solvers.cg.iter_cap_hits")
            local.cg_iterations = 0

        def on_cycle(report, *_call):
            self.count("cluster.cycles")
            if report.action == "dry_run":
                self.count("cluster.dry_runs")

        def on_plan(plan, *_call):
            self.count("migration.steps", len(plan.steps))
            self.count("migration.moved_containers", plan.moved_containers)

        def on_wal(_result, args, *_rest):
            path = str(args[0].path)
            size = args[0].path.stat().st_size
            self.count("durability.wal_bytes", size - wal_sizes.get(path, 0))
            wal_sizes[path] = size

        def on_snapshot(_result, args, *_rest):
            # A snapshot truncates the store's WAL.
            wal_sizes[str(args[0].wal.path)] = 0

        spans = [
            (RASAScheduler, "schedule", "core.schedule", None),
            (rasa, "repair_unplaced", "solvers.repair", None),
            (MultiStagePartitioner, "partition", "partitioning.partition", on_partition),
            (HeuristicSelector, "select", "selection.select", on_select),
            (MIPAlgorithm, "solve", "solvers.mip.solve", None),
            (mip, "build_rasa_model", "solvers.mip.model_build", None),
            (mip, "solve_milp", "solvers.mip.milp", None),
            (ColumnGenerationAlgorithm, "solve", "solvers.cg.solve", on_cg),
            (cg, "_build_master", "solvers.cg.master_build", on_master),
            (cg, "solve_lp", "solvers.cg.master_lp", None),
            (cg, "price_pattern_mip", "solvers.cg.pricing", None),
            (cg, "_round_master", "solvers.cg.rounding", None),
            (CronJobController, "run_once", "cluster.cycle", on_cycle),
            (DataCollector, "collect", "cluster.collect", None),
            (EventStreamCursor, "advance_to", "cluster.replay_advance", None),
            (MigrationPathBuilder, "build", "migration.build", on_plan),
            # The control loop applies plans in CronJobController._apply;
            # MigrationExecutor.execute is the facade's path.  Both count.
            (CronJobController, "_apply", "migration.execute", None),
            (MigrationExecutor, "execute", "migration.execute", None),
            (WriteAheadLog, "append", "durability.wal_append", on_wal),
            (CheckpointStore, "write_snapshot", "durability.snapshot_write", on_snapshot),
            (OptimizerService, "trigger", "service.trigger", None),
            (Tenant, "run_cycles", "service.tenant.run_cycles", None),
        ]
        for owner, attr, name, after in spans:
            self.wrap(owner, attr, after, span=name)
        self._wrap_pool(ControllerPool)

    def _wrap_pool(self, pool_class) -> None:
        """Queue wait (submit -> job start) and busy time of pool jobs."""
        original = pool_class.__dict__["submit"]
        recorder = self

        @functools.wraps(original)
        def submit(pool, tenant, fn):
            submitted = time.perf_counter()

            def job():
                recorder.count("service.pool.queue_wait_s", time.perf_counter() - submitted)
                return recorder.span_call("service.pool.job", fn)

            return original(pool, tenant, job)

        pool_class.submit = submit
        self._originals.append((pool_class, "submit", original))

    # ------------------------------------------------------------------
    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _thread in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _parent, _thread in self.spans:
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += (end - start) - child_time[span_id]
        return table

    def dump(self, path) -> None:
        """Write the spans as JSON (one object per span)."""
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p,
             "thread": t, "workload": self.workload}
            for i, n, s, e, p, t in self.spans
        ]
        path.write_text(json.dumps(spans))
