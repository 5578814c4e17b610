"""Fixed-work benchmark of RASA: one workload per invocation.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --workload service-2t --seed 2 --seconds 40 --trace 0

Workloads: ``cold-m3``, ``replay-week``, ``service-2t`` (see
``workloads.py`` and ``README.md`` here); ``--workload all`` runs each in
its own process, one after another.  The run builds its inputs from
``--seed``, sets up, then runs units of fixed work until ``--seconds``
have passed (at least the workload's minimum number of units), checks
every output, and prints one JSON object as the last line of stdout::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no spans
recorded.  ``--trace 1`` runs one unit as ``--trace 0`` would, then the
rest with spans at every layer boundary, and reports the per-layer
metrics (per unit of fixed work) plus the tracing overhead; the spans
are written to ``.bench_out/spans-<workload>-<seed>.json``.

Set-up time is measured seven times: this process, plus six child
processes that only set up (``--setup-only``); the median is reported.
Scratch files live in ``.bench_out/`` at the repository root and are
removed on exit.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SCRATCH = ROOT / ".bench_out"
DEFAULT_SEEDS = {"cold-m3": 103, "replay-week": 2, "service-2t": 2}
SETUP_CHILDREN = 6


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS) + ["all"],
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the committed inputs' seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cpu_info() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_in_child(args: argparse.Namespace, seed: int) -> float:
    """Set-up seconds of a fresh process that only sets up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(seed), "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _run_units(workload, recorder, measurements, seconds: float, minimum: int) -> list:
    """Units of fixed work until ``seconds`` pass (and at least ``minimum``)."""
    import statistics

    results = []
    start = time.perf_counter()
    while True:
        results.append(workload.unit(recorder, measurements))
        elapsed = time.perf_counter() - start
        estimate = statistics.median(measurements.unit_seconds[-len(results):])
        if len(results) >= minimum and elapsed + estimate > seconds:
            return results


def _end_to_end(measurements, setup_samples: list[float], out) -> dict:
    from checks import median, tail

    # Every unit runs the same operations in the same order, so operation
    # i of one unit repeats operation i of every other.  Its median over
    # the units drops the units a slow phase of the machine hit.
    units = measurements.unit_op_seconds
    per_op = [median(column) for column in zip(*units)]
    pooled = [x for unit in units for x in unit]
    n_ops = len(pooled)
    cycle_tail, cycle_pct = tail(pooled)
    rates = [len(ops) / seconds for ops, seconds in zip(units, measurements.unit_seconds)]
    metrics = {
        "setup_s": (median(setup_samples), "s"),
        "cycle_p50_s": (median(per_op), "s"),
        "cycle_tail_s": (cycle_tail, "s"),
        "cycles_per_s": (median(rates), "1/s"),
        "gained_affinity": (sum(measurements.gained) / len(measurements.gained), "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "cycle_p50_s": f"median of {len(per_op)} per-operation medians over "
                       f"{len(units)} units",
        "cycle_tail_s": f"p{cycle_pct}, n={n_ops}",
        "cycles_per_s": f"median over {len(units)} units of {n_ops} ops",
        "gained_affinity": f"mean over {len(measurements.gained)}",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:12.6f} {unit:<6} {notes.get(name, '')}", file=out)
    if measurements.read_seconds:
        reads_ms = [1000.0 * x for x in measurements.read_seconds]
        read_tail, read_pct = tail(reads_ms)
        print(f"  {'read_p50_ms':<18} {median(reads_ms):12.6f} ms     median, "
              f"n={len(reads_ms)}", file=out)
        print(f"  {'read_tail_ms':<18} {read_tail:12.6f} ms     p{read_pct}, "
              f"n={len(reads_ms)}", file=out)
        print("  cycles that ended while a read was in flight: "
              f"{measurements.cycles_during_read} of {n_ops}", file=out)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _per_layer(recorder, measurements, units: int, overhead: float, out) -> dict:
    from checks import median, tail

    table = recorder.span_table()
    counts = recorder.counts

    def busy(name):
        return table.get(name, {}).get("busy_s", 0.0) / units

    def calls(name):
        return table.get(name, {}).get("calls", 0) / units

    def count(name):
        return counts.get(name, 0.0) / units

    partitions = table.get("partitioning.partition", {}).get("calls", 0)
    cycles = counts.get("cluster.cycles", 0.0)
    reads_ms = [1000.0 * x for x in measurements.read_seconds]
    late_ms = [1000.0 * x for x in measurements.late_seconds]
    self_core = table.get("core.schedule", {}).get("self_s", 0.0) / units
    values = {
        "solvers.mip.calls": (calls("solvers.mip.solve"), "count"),
        "solvers.mip.busy_s": (busy("solvers.mip.solve"), "s"),
        "solvers.mip.model_build_s": (busy("solvers.mip.model_build"), "s"),
        "solvers.mip.milp_s": (busy("solvers.mip.milp"), "s"),
        "solvers.cg.calls": (calls("solvers.cg.solve"), "count"),
        "solvers.cg.busy_s": (busy("solvers.cg.solve"), "s"),
        "solvers.cg.iterations": (count("solvers.cg.iterations"), "count"),
        "solvers.cg.master_build_s": (busy("solvers.cg.master_build"), "s"),
        "solvers.cg.master_lp_s": (busy("solvers.cg.master_lp"), "s"),
        "solvers.cg.pricing_calls": (calls("solvers.cg.pricing"), "count"),
        "solvers.cg.pricing_s": (busy("solvers.cg.pricing"), "s"),
        "solvers.cg.rounding_s": (busy("solvers.cg.rounding"), "s"),
        "solvers.cg.iter_cap_hits": (count("solvers.cg.iter_cap_hits"), "count"),
        "solvers.milp.limit_hits": (count("solvers.milp.limit_hits"), "count"),
        "solvers.repair_s": (busy("solvers.repair"), "s"),
        "selection.mip_picks": (count("selection.mip_picks"), "count"),
        "selection.cg_picks": (count("selection.cg_picks"), "count"),
        "selection.busy_s": (busy("selection.select"), "s"),
        "partitioning.calls": (calls("partitioning.partition"), "count"),
        "partitioning.busy_s": (busy("partitioning.partition"), "s"),
        "partitioning.subproblems": (count("partitioning.subproblems"), "count"),
        "partitioning.affinity_retained": (
            counts.get("partitioning.affinity_retained_sum", 0.0) / partitions
            if partitions else 0.0, "ratio"),
        "core.schedule_s": (busy("core.schedule"), "s"),
        "core.self_s": (self_core, "s"),
        "cluster.cycle_s": (busy("cluster.cycle"), "s"),
        "cluster.collect_s": (busy("cluster.collect"), "s"),
        "cluster.replay_advance_s": (busy("cluster.replay_advance"), "s"),
        "cluster.dry_run_ratio": (
            counts.get("cluster.dry_runs", 0.0) / cycles if cycles else 0.0, "ratio"),
        "migration.builds": (calls("migration.build"), "count"),
        "migration.build_s": (busy("migration.build"), "s"),
        "migration.steps": (count("migration.steps"), "count"),
        "migration.execute_s": (busy("migration.execute"), "s"),
        "migration.moved_containers": (count("migration.moved_containers"), "count"),
        "durability.wal_appends": (calls("durability.wal_append"), "count"),
        "durability.wal_append_s": (busy("durability.wal_append"), "s"),
        "durability.wal_bytes": (count("durability.wal_bytes"), "bytes"),
        "durability.snapshot_writes": (calls("durability.snapshot_write"), "count"),
        "durability.snapshot_write_s": (busy("durability.snapshot_write"), "s"),
        "service.trigger_s": (busy("service.trigger"), "s"),
        "service.pool.queue_wait_s": (count("service.pool.queue_wait_s"), "s"),
        "service.pool.busy_s": (busy("service.pool.job"), "s"),
        "service.tenant.run_cycles_s": (busy("service.tenant.run_cycles"), "s"),
        "service.requests": (count("service.requests"), "count"),
        "service.requests_failed": (count("service.requests_failed"), "count"),
        "service.read_p50_ms": (median(reads_ms) if reads_ms else 0.0, "ms"),
        "service.read_tail_ms": (tail(reads_ms)[0] if reads_ms else 0.0, "ms"),
        "loadgen.late_ms": (median(late_ms) if late_ms else 0.0, "ms"),
        "obs.tracing_overhead_s": (overhead, "s"),
    }

    print(f"  spans per unit of fixed work ({units} traced units):", file=out)
    print(f"    {'span':<28} {'calls':>9} {'busy_s':>11} {'self_s':>11}", file=out)
    for name in sorted(table):
        row = table[name]
        print(f"    {name:<28} {row['calls'] / units:9.1f} {row['busy_s'] / units:11.4f} "
              f"{row['self_s'] / units:11.4f}", file=out)
    print("  ratios (numerator / base):", file=out)
    for label, top, base in (
        ("solve share of cycle", busy("core.schedule"), busy("cluster.cycle")),
        ("MIP share of solve", busy("solvers.mip.solve"), busy("core.schedule")),
        ("CG share of solve", busy("solvers.cg.solve"), busy("core.schedule")),
        ("pricing share of CG", busy("solvers.cg.pricing"), busy("solvers.cg.solve")),
        ("dry runs per cycle", counts.get("cluster.dry_runs", 0.0), cycles),
    ):
        share = top / base if base else 0.0
        print(f"    {label:<22} {share:8.4f}  ({top:.4f} / {base:.4f})", file=out)
    print(f"  tracing overhead: {overhead:+.4f} s per unit", file=out)
    for name, (value, unit) in values.items():
        print(f"  {name:<32} {value:14.6f} {unit}", file=out)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for workload in sorted(DEFAULT_SEEDS):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from layers import Recorder
    from workloads import WORKLOADS, Measurements

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    recorder = Recorder(args.workload)
    workload = WORKLOADS[args.workload](ROOT, seed, workdir)
    try:
        recorder.install_hooks()
        measurements = Measurements()
        workload.setup()
        setup_seconds = time.perf_counter() - _STARTED
        if args.setup_only:
            print(repr(setup_seconds))
            return 0
        for errors in workload.setup_checks:
            measurements.check(errors)
        out = sys.stdout
        print(f"workload {args.workload} seed {seed} trace {args.trace} "
              f"{json.dumps(_cpu_info())}", file=out)
        if args.trace:
            results = _run_units(workload, recorder, measurements, 0.0, 1)
            untraced = measurements.unit_seconds[-1]
            reads_before = len(measurements.read_seconds)
            recorder.counts.clear()
            recorder.install_layers()
            results += _run_units(workload, recorder, measurements,
                                  max(0.0, args.seconds - untraced), 1)
            del measurements.read_seconds[:reads_before]
            del measurements.late_seconds[:reads_before]
        else:
            results = _run_units(workload, recorder, measurements, args.seconds,
                                 workload.min_units)
        for index, result in enumerate(results[1:], start=1):
            measurements.check(
                [] if result == results[0] else [f"unit {index} differs from unit 0"]
            )
        workload.close()
        if args.trace:
            from checks import median

            recorder.restore()
            recorder.dump(SCRATCH / f"spans-{args.workload}-{seed}.json")
            overhead = median(measurements.unit_seconds[1:]) - untraced
            metrics = _per_layer(recorder, measurements, len(results) - 1,
                                 overhead, out)
        else:
            recorder.restore()
            samples = [setup_seconds] + [
                _setup_in_child(args, seed) for _ in range(SETUP_CHILDREN)
            ]
            metrics = _end_to_end(measurements, samples, out)
        for index, unit in enumerate(measurements.unit_op_seconds):
            print(f"  unit {index}: {measurements.unit_seconds[index]:.3f} s, ops "
                  + " ".join(f"{x:.3f}" for x in unit), file=out)
        print(f"  work: {recorder.milp_solves} MILPs solved in "
              f"{sum(measurements.unit_seconds):.3f} s of units", file=out)
        failed = len(measurements.failures)
        for failure in measurements.failures[:20]:
            print(f"  FAILED: {failure}", file=out)
        print(f"  error_rate {failed}/{measurements.attempted} "
              f"{json.dumps(_cpu_info())}", file=out)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": measurements.attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        recorder.restore()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
