"""The three fixed-work workloads (``BENCHMARK.json`` gates two of them).

Every solve runs with ``time_limit=None``, so a wall time is the cost of
a deterministic amount of solver work, not a budget.  A workload is run
as repeated *units* of identical fixed work; each unit starts from a
fresh world, so unit ``i`` must reproduce unit 0 bit for bit.

* ``cold-m3`` -- unit: one ``RASAScheduler.schedule`` on the M3 cluster,
  default ``RASAConfig`` (``workers=1``).  The cold solve: one MIP shard
  dominates, and nothing carries over between cycles.
* ``replay-week`` -- unit: ``api.replay_trace`` over the first
  ``REPLAY_CYCLES`` cycles of the week with a checkpoint directory
  (WAL + snapshots), ``workers=1``.  The control loop under churn; its
  shards select column generation.  Not in ``BENCHMARK.json``: on the
  2-vCPU machine it was sized on, its spread across seeds stayed near
  the 0.25 bound (see ``README.md``).
* ``service-2t`` -- unit: two fresh tenants replaying the week, each
  with its own drift seed, in one ``api.start_service(workers=2)``
  process; one client thread per tenant (2 threads, one per CPU of the
  2-CPU machine it was sized on).  Each thread runs a closed loop of
  ``SERVICE_CYCLES`` one-cycle triggers and, while a cycle runs, sends
  reads open-loop at ``READ_RATE`` per second, timed from when each was
  due.  A cycle ends when its response starts to arrive, also when that
  happens while a read is in flight.  Both tenants hash to one pool
  slot, so each cycle also waits for the other tenant's: with a slot
  each, the two solves compete with other load for the machine's two
  CPUs, and the median cycle spread by up to 25 % across runs of
  identical work.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from pathlib import Path

from checks import comparable, placement_errors, plan_errors, report_errors
from inputs import TRAFFIC_DRIFT_SIGMA, m3_problem, reference_week, trace_payload
from repro import api
from repro.core import RASAConfig, RASAScheduler
from repro.schemas import tag_schema
from repro.service.client import ServiceClient

#: Cycles per replay-week unit (the fixed leading slice of the week).
REPLAY_CYCLES = 12
#: Cycles each service tenant runs per service-2t unit.
SERVICE_CYCLES = 6
#: A tenant's read traffic: one dashboard per tenant, refreshed at the
#: default cadence of ``rasa top`` (``--interval 2``), each refresh
#: fetching the tenant's four views -- new cycle reports, health, metrics
#: and plan.  The reads are spread evenly over the refresh: 2 per second.
READ_REFRESH_S = 2.0
READS_PER_REFRESH = 4
#: Reads per second each service client thread sends (open loop).
READ_RATE = READS_PER_REFRESH / READ_REFRESH_S


class Measurements:
    """Samples, operation counts and failures of one invocation."""

    def __init__(self) -> None:
        #: Per unit, the latency of each of its operations in order: a
        #: cold solve, or a cycle.
        self.unit_op_seconds: list[list[float]] = []
        self.gained: list[float] = []
        self.unit_seconds: list[float] = []
        #: Service reads: latency from due time, and lateness at send.
        self.read_seconds: list[float] = []
        self.late_seconds: list[float] = []
        self.cycles_during_read = 0
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def check(self, errors: list[str]) -> None:
        """Count one checked operation; each error message is a failure."""
        with self._lock:
            self.attempted += 1
            if errors:
                self.failures.append("; ".join(errors))


def _check_cycles(recorder, measurements: Measurements) -> list:
    """Drain the recorder's cycle samples and plans: feasibility and SLA."""
    samples, recorder.cycles = recorder.cycles, []
    plans, recorder.plans = recorder.plans, []
    for _seconds, report, problem, placement in samples:
        document = report.to_dict()
        measurements.check(placement_errors(problem, placement) + report_errors(document))
    for problem, start, plan in plans:
        measurements.check(plan_errors(problem, start, plan))
    return samples


def _check_limit_hits(recorder, measurements: Measurements) -> None:
    """Every MILP that stopped short of optimal timed a budget: a failure."""
    hits, recorder.limit_hits = recorder.limit_hits, []
    recorder.count("solvers.milp.limit_hits", len(hits))
    for site, status in hits:
        measurements.check([f"{site} MILP ended '{status}', not 'optimal'"])


class ColdM3:
    name = "cold-m3"
    min_units = 3

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.setup_checks: list[list[str]] = []

    def setup(self) -> None:
        self.problem = m3_problem()

    def unit(self, recorder, measurements: Measurements):
        scheduler = RASAScheduler(config=RASAConfig(workers=1))
        start = time.perf_counter()
        result = scheduler.schedule(self.problem, time_limit=None)
        seconds = time.perf_counter() - start
        measurements.unit_op_seconds.append([seconds])
        measurements.unit_seconds.append(seconds)
        measurements.gained.append(result.gained_affinity)
        measurements.check(placement_errors(self.problem, result.assignment.x))
        _check_limit_hits(recorder, measurements)
        return result.assignment.x.tobytes()

    def close(self) -> None:
        pass


class ReplayWeek:
    name = "replay-week"
    min_units = 3

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.units = 0
        self.setup_checks: list[list[str]] = []

    def setup(self) -> None:
        self.trace_path = self.workdir / "week.jsonl.gz"
        self.setup_checks = [reference_week(self.root, self.trace_path)]

    def unit(self, recorder, measurements: Measurements):
        checkpoint_dir = self.workdir / f"replay-{self.units}"
        self.units += 1
        start = time.perf_counter()
        reports = api.replay_trace(
            self.trace_path,
            cycles=REPLAY_CYCLES,
            time_limit=None,
            traffic_jitter_sigma=TRAFFIC_DRIFT_SIGMA,
            seed=self.seed,
            checkpoint_dir=checkpoint_dir,
        )
        seconds = time.perf_counter() - start
        samples = _check_cycles(recorder, measurements)
        measurements.unit_op_seconds.append([sample[0] for sample in samples])
        measurements.unit_seconds.append(seconds)
        measurements.gained.extend(report.gained_after for report in reports)
        if len(reports) != REPLAY_CYCLES:
            measurements.check([f"replay ran {len(reports)} of {REPLAY_CYCLES} cycles"])
        _check_limit_hits(recorder, measurements)
        return [comparable(report.to_dict()) for report in reports]

    def close(self) -> None:
        pass


class _TenantClient:
    """One client thread: closed loop on cycles, open-loop reads meanwhile."""

    def __init__(self, host: str, port: int, tenant: str, cycles: int,
                 measurements: Measurements) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.cycles = cycles
        self.measurements = measurements
        self.reports: list[dict] = []
        self.cycle_seconds: list[float] = []
        self.read_seconds: list[float] = []
        self.late_seconds: list[float] = []
        self.requests = 0
        self.requests_failed = 0
        #: Cycles whose response arrived while a read was in flight.
        self.cycles_during_read = 0
        self._done_at: float | None = None
        self._seen = 0
        self._plan_ready = False
        self._rotation = 0

    def run(self, start: float) -> None:
        body = json.dumps(tag_schema({"cycles": 1, "wait": True}))
        period = 1.0 / READ_RATE
        due = start
        for _ in range(self.cycles):
            trigger = http.client.HTTPConnection(self.host, self.port, timeout=300)
            try:
                sent = time.perf_counter()
                trigger.request(
                    "POST", f"/v1/tenants/{self.tenant}/cycles", body=body,
                    headers={"Content-Type": "application/json", "Connection": "close"},
                )
                # Reads fall due while the cycle runs.  The cycle is done
                # when its response starts to arrive, which _read watches
                # for too.
                self._done_at = None
                while self._done_at is None:
                    wait = max(0.0, due - time.perf_counter())
                    ready, _, _ = select.select([trigger.sock], [], [], wait)
                    if ready:
                        self._done_at = time.perf_counter()
                    else:
                        self._read(due, trigger.sock)
                        due += period
                self.cycle_seconds.append(self._done_at - sent)
                response = trigger.getresponse()
                payload = response.read()
                status = response.status
            finally:
                trigger.close()
            self._job_done(status, payload)

    def _job_done(self, status: int, payload: bytes) -> None:
        self.requests += 1
        if status != 200:
            self.requests_failed += 1
            self.measurements.check([f"trigger returned HTTP {status}"])
            return
        job = json.loads(payload)
        if job["status"] != "done":
            self.measurements.check([f"job {job['id']} {job['status']}: {job['error']}"])
            return
        for report in job["reports"]:
            self.reports.append(comparable(report))
            if report["action"] != "dry_run":
                self._plan_ready = True

    def _read_paths(self) -> list[str]:
        base = f"/v1/tenants/{self.tenant}"
        paths = [f"{base}/cycles?since={self._seen}", f"{base}/healthz", f"{base}/metrics"]
        # A tenant has no plan until a cycle has executed one (404 before).
        if self._plan_ready:
            paths.append(f"{base}/plan")
        return paths

    def _read(self, due: float, trigger_sock) -> None:
        paths = self._read_paths()
        path = paths[self._rotation % len(paths)]
        self._rotation += 1
        self.late_seconds.append(max(0.0, time.perf_counter() - due))
        error = None
        # One connection per read, as the repository's ServiceClient does:
        # on a kept-alive connection every response waits ~40 ms, because
        # the server writes headers and body separately (Nagle's algorithm
        # against the client's delayed ACK).
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", path, headers={"Connection": "close"})
            # Until the reply arrives, note when the cycle's response does.
            watched = [connection.sock, trigger_sock]
            while True:
                ready, _, _ = select.select(watched, [], [], 60.0)
                if not ready:
                    raise TimeoutError("no reply in 60 s")
                if trigger_sock in ready:
                    self._done_at = time.perf_counter()
                    self.cycles_during_read += 1
                    watched = [connection.sock]
                if connection.sock in ready:
                    break
            response = connection.getresponse()
            data = response.read()
            if response.status != 200:
                error = f"GET {path}: HTTP {response.status}"
            elif "/cycles?" in path:
                self._seen += len(json.loads(data)["reports"])
        except (OSError, http.client.HTTPException) as exc:
            error = f"GET {path}: {exc!r}"
        finally:
            connection.close()
        self.read_seconds.append(time.perf_counter() - due)
        self.requests += 1
        if error is not None:
            self.requests_failed += 1
        self.measurements.check([error] if error else [])


def tenant_seed(seed: int, index: int) -> int:
    """Drift seed of tenant ``index``: distinct across tenants and runs."""
    return 2 * seed + index


class Service2T:
    name = "service-2t"
    min_units = 3

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.units = 0
        self.service = None
        self.setup_checks: list[list[str]] = []

    def setup(self) -> None:
        path = self.workdir / "week.jsonl.gz"
        self.setup_checks = [reference_week(self.root, path)]
        self.payload = trace_payload(path)
        self.service = api.start_service(
            workers=2, tracing=False, checkpoint_root=self.workdir / "tenants"
        )
        self.tenants = self._register()

    def _tenant_names(self) -> list[str]:
        """Two fresh names the pool's hash ring puts on one slot."""
        pool = self.service.pool
        first = f"u{self.units}-a"
        for i in range(64):
            second = f"u{self.units}-b{i}"
            if pool.slot_for(second) == pool.slot_for(first):
                return [first, second]
        raise RuntimeError("no tenant name pair shares a pool slot")

    def _register(self) -> list[str]:
        client = ServiceClient(self.service.url)
        names = self._tenant_names()
        for index, name in enumerate(names):
            client.register_tenant({
                "name": name,
                "trace": self.payload,
                "traffic_jitter_sigma": TRAFFIC_DRIFT_SIGMA,
                "seed": tenant_seed(self.seed, index),
            })
        return names

    def unit(self, recorder, measurements: Measurements):
        if self.tenants is None:
            self.tenants = self._register()
        host, port = self.service.config.host, self.service.port
        clients = [
            _TenantClient(host, port, name, SERVICE_CYCLES, measurements)
            for name in self.tenants
        ]
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client.run, args=(start,), name=f"client-{client.tenant}")
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        client = ServiceClient(self.service.url)
        for name in self.tenants:
            client.deregister_tenant(name)
        self.tenants = None
        self.units += 1

        _check_cycles(recorder, measurements)
        measurements.unit_seconds.append(seconds)
        measurements.unit_op_seconds.append([x for c in clients for x in c.cycle_seconds])
        for c in clients:
            measurements.read_seconds.extend(c.read_seconds)
            measurements.late_seconds.extend(c.late_seconds)
            measurements.cycles_during_read += c.cycles_during_read
            measurements.gained.extend(report["gained_after"] for report in c.reports)
            recorder.count("service.requests", c.requests)
            recorder.count("service.requests_failed", c.requests_failed)
            if len(c.reports) != SERVICE_CYCLES:
                measurements.check(
                    [f"tenant {c.tenant} finished {len(c.reports)} of {SERVICE_CYCLES} cycles"]
                )
        _check_limit_hits(recorder, measurements)
        return [c.reports for c in clients]

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (ColdM3, ReplayWeek, Service2T)}
