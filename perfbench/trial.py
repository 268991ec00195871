"""One benchmark trial, run in a fresh process by ``run.py``.

Sets the workload up (timed as ``setup_s``), runs the measured phase
of the workload's fixed number of controller intervals, drains the
operations that arrived in it, runs the output checks and prints one
JSON object.
With ``--traced`` the per-layer tracer is installed before anything is
built and its numbers are added to the output.  ``--calibrate`` only
runs the workload's calibration and prints its result, which the
trials of the run then get as ``--params``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/trial.py --workload figure2 --seed 1 --calibrate
    python3 perfbench/trial.py --workload figure2 --seed 1000 \\
        --params '{...}' [--traced --spans out.jsonl]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import workloads  # noqa: E402
from repro.bufmgr.costs import AccessLevel  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Stations must stay below this utilization over the measured phase.
RHO_LIMIT = 0.9
#: How long (sim ms) the drain may run past the horizon, and its step.
DRAIN_LIMIT_MS = 10_000.0
DRAIN_STEP_MS = 50.0


class OpCounter:
    """Forwarding workload sink that counts operations.

    Sits between the workload generator and the controller.  Counts
    every arrival and completion, transactions begun (each operation
    of a write class begins one), and, for operations that arrive
    inside the measured window, attempts, completions and the no-goal
    class's response times.
    """

    def __init__(self, sink, txn_classes):
        self.sink = sink
        self.txn_classes = frozenset(txn_classes)
        self.arrivals = 0
        self.completions = 0
        self.txn_arrivals = 0
        self.window = (float("inf"), float("inf"))
        self.attempted = 0
        self.completed = 0
        self.nogoal_sum = 0.0
        self.nogoal_n = 0

    def on_arrival(self, node_id, class_id, now):
        self.arrivals += 1
        if class_id in self.txn_classes:
            self.txn_arrivals += 1
        start, end = self.window
        if start <= now < end:
            self.attempted += 1
        self.sink.on_arrival(node_id, class_id, now)

    def on_complete(self, node_id, class_id, response_ms, now):
        self.completions += 1
        begin, end = self.window
        started = now - response_ms
        if begin <= started < end:
            self.completed += 1
            if class_id == 0:
                self.nogoal_sum += response_ms
                self.nogoal_n += 1
        self.sink.on_complete(node_id, class_id, response_ms, now)


def _busy(res) -> float:
    """Busy ms of a resource so far, including a hold still running."""
    busy = res._busy_time
    if res._busy_since is not None:
        busy += res.env.now - res._busy_since
    return busy


def station_snapshot(sim) -> Dict[str, tuple]:
    """(busy ms, grants, total wait ms) of every station."""
    out = {}
    for node in sim.cluster.nodes:
        for kind, res in (("cpu", node.cpu.resource),
                          ("disk", node.disk.resource)):
            out[f"{kind}{node.node_id}"] = (
                _busy(res), res._grants, res._wait_total
            )
    net = sim.cluster.network.medium
    out["net"] = (_busy(net), net._grants, net._wait_total)
    return out


def model_snapshot(sim) -> Dict:
    """Model counters whose deltas over the measured phase are reported."""
    costs = sim.cluster.costs
    snap = {
        "now": sim.env.now,
        "events": sim.env._seq,
        "stations": station_snapshot(sim),
        "local": costs.observations(AccessLevel.LOCAL),
        "remote": costs.observations(AccessLevel.REMOTE),
        "disk": costs.observations(AccessLevel.DISK),
        "messages": sum(
            sim.cluster.network.accounting.messages_by_kind.values()
        ),
        "repairs": sim.cluster.reconcile_repairs,
    }
    txn = sim.txn_manager
    if txn is not None:
        snap["committed"] = txn.committed
        snap["aborted"] = txn.aborted
        snap["wal_forces"] = sum(log.forces for log in txn.logs.values())
    return snap


def station_rhos(before: Dict, after: Dict, elapsed: float) -> Dict:
    """Utilization of every station between two snapshots."""
    return {
        name: (after[name][0] - before[name][0]) / elapsed
        for name in after
    }


def mean_wait(before: Dict, after: Dict, names: List[str]) -> float:
    """Mean queueing delay per grant (ms) over the named stations."""
    grants = sum(after[n][1] - before[n][1] for n in names)
    wait = sum(after[n][2] - before[n][2] for n in names)
    return wait / grants if grants else 0.0


def analytic_net_rho(sim) -> float:
    """analytic.bridge's open-system LAN utilization for the current
    per-node allocation."""
    from repro.analytic.bridge import build_network

    n = sim.cluster.num_nodes
    allocation = {
        spec.class_id: sum(sim.cluster.dedicated_bytes(spec.class_id)) // n
        for spec in sim.workload.goal_classes
    }
    _, meta = build_network(sim.config, sim.workload, allocation)
    return meta["open_utilization"]["net"]


def sim_digest(sim, counter: OpCounter) -> str:
    """Digest of ops, per-class RT series and final allocations."""
    series = {
        str(class_id): {
            "rt": [float(v) for v in s.observed_rt.values],
            "nogoal_rt": [float(v) for v in s.nogoal_rt.values],
            "satisfied": [bool(v) for v in s.satisfied],
        }
        for class_id, s in sim.controller.series.items()
    }
    allocations = {
        str(spec.class_id): [
            int(b) for b in sim.cluster.dedicated_bytes(spec.class_id)
        ]
        for spec in sim.workload.goal_classes
    }
    ops = {"arrivals": counter.arrivals, "completions": counter.completions}
    return metrics.digest(ops, series, allocations)


def run_trial(workload: workloads.Workload, seed: int,
              params: Optional[dict] = None,
              tracer: Optional[Tracer] = None,
              spans_path: Optional[str] = None) -> Dict:
    """Run one trial and return its result document."""
    if tracer is not None:
        tracer.install()
    try:
        return _run(workload, seed, params or {}, tracer, spans_path)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _run(workload, seed, params, tracer, spans_path) -> Dict:
    intervals = workload.intervals
    period = 0.0 if tracer is not None else metrics.PROBE_PERIOD_S
    with metrics.SpeedSampler(period) as sampler:
        mark = sampler.mark()
        t0 = perf_counter()
        sim = workload.build(seed, params)
        # The counting sink goes in before the first arrival, so every
        # transaction begun is counted.
        txn_classes = [
            c.class_id for c in sim.workload.classes if c.write_fraction > 0
        ]
        counter = OpCounter(sim.generator.sink, txn_classes)
        sim.generator.sink = counter
        sim.start()
        setup_raw = perf_counter() - t0
        setup_speed, paused = sampler.since(mark)
        setup_s = setup_raw - paused
        start = sim.env.now
        counter.window = (start, start + intervals * sim.controller.interval_ms)
        stamps: List[tuple] = []
        backlog: List[int] = []

        def on_interval(controller, index):
            stamps.append((perf_counter(), sampler.mark()))
            backlog.append(counter.arrivals - counter.completions)

        sim.controller.on_interval(on_interval)
        before = model_snapshot(sim)
        completions0 = counter.completions
        if tracer is not None:
            tracer.reset()
        mark = sampler.mark()
        host0 = perf_counter()
        sim.run(intervals=intervals)
        wall_raw = perf_counter() - host0
        speed, paused = sampler.since(mark)
    wall_s = wall_raw - paused
    bounds = [(host0, mark)] + stamps
    interval_s = [
        (end - begin) - (end_mark[1] - begin_mark[1])
        for (begin, begin_mark), (end, end_mark) in zip(bounds, bounds[1:])
    ]
    # Each interval is normalized by the probes that ran inside it: the
    # host loses time in bursts, which a whole-trial mean would spread
    # over every interval.
    interval_speed = metrics.stretch_speeds(
        sampler.samples, [m[0] for _, m in bounds], speed
    )
    after = model_snapshot(sim)
    ops_completed = counter.completions - completions0
    layers = None
    if tracer is not None:
        layers = layer_metrics(
            tracer, workload, sim, before, after, wall_s, ops_completed
        )
    digest = sim_digest(sim, counter)

    limit = sim.env.now + DRAIN_LIMIT_MS
    while counter.completed < counter.attempted and sim.env.now < limit:
        sim.run_until(sim.env.now + DRAIN_STEP_MS)

    elapsed = after["now"] - before["now"]
    rhos = station_rhos(before["stations"], after["stations"], elapsed)
    checks = output_checks(sim, counter, rhos, backlog)
    # Aborts of the window's transactions may land in the drain.
    txn = sim.txn_manager
    aborted = txn.aborted - before["aborted"] if txn is not None else 0
    unfinished = counter.attempted - counter.completed
    goal_pairs = sum(len(s.satisfied) for s in sim.controller.series.values())
    goal_met = sum(sum(s.satisfied) for s in sim.controller.series.values())
    result = {
        "workload": workload.name,
        "seed": seed,
        "intervals": intervals,
        "traced": tracer is not None,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "wall_s": wall_s,
        "speed": speed,
        "interval_s": interval_s,
        "interval_speed": interval_speed,
        "events": after["events"] - before["events"],
        "ops_completed": ops_completed,
        "attempted": counter.attempted,
        "aborted": aborted,
        "unfinished": unfinished,
        "goal_pairs": goal_pairs,
        "goal_met": goal_met,
        "nogoal_rt_sum": counter.nogoal_sum,
        "nogoal_n": counter.nogoal_n,
        "rho": rhos,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": digest,
        "checks": checks,
        "layers": layers,
    }
    if tracer is not None and spans_path:
        result["spans"] = tracer.write_spans(spans_path, origin=host0)
    return result


def output_checks(sim, counter: OpCounter, rhos: Dict,
                  backlog: List[int]) -> Dict[str, str]:
    """Run every output check; name -> "ok" or what went wrong."""
    checks = {}
    problems = sim.cluster.directory.audit(sim.cluster.pool_contents())
    checks["directory_audit"] = (
        "ok" if not problems
        else f"{len(problems)} problems: " + "; ".join(problems[:3])
    )
    hot = {k: round(v, 3) for k, v in rhos.items() if v >= RHO_LIMIT}
    checks["rho_below_0.9"] = "ok" if not hot else f"saturated: {hot}"
    checks["backlog_bounded"] = (
        "ok" if metrics.backlog_bounded(backlog)
        else f"backlog grows: {backlog}"
    )
    txn = sim.txn_manager
    if txn is not None:
        begun = counter.txn_arrivals
        closed = txn.committed + txn.aborted + len(txn.active)
        checks["txn_accounting"] = (
            "ok" if closed == begun
            else f"committed+aborted+active {closed} != begun {begun}"
        )
    return checks


def layer_metrics(tracer: Tracer, workload, sim, before: Dict,
                  after: Dict, wall_s: float,
                  ops_completed: int) -> Dict[str, float]:
    """Per-layer metrics of the measured phase from the tracer and the
    model's own counters."""
    layer_self = tracer.layer_self()
    elapsed = after["now"] - before["now"]
    stations_b, stations_a = before["stations"], after["stations"]
    n = sim.cluster.num_nodes
    disks = [f"disk{i}" for i in range(n)]
    rhos = station_rhos(stations_b, stations_a, elapsed)
    local = after["local"] - before["local"]
    remote = after["remote"] - before["remote"]
    disk = after["disk"] - before["disk"]
    accesses = local + remote + disk
    ops = max(1, ops_completed)
    probes = tracer.calls("bufmgr.probe")
    admits = tracer.calls("bufmgr.admit")
    evaluate = sorted(tracer.durations.get("core.evaluate", []))
    begun = tracer.calls("txn.begin")
    out = {
        "sim.events": after["events"] - before["events"],
        "sim.self_s": layer_self.get("sim", 0.0),
        "sim.pool_high_water": sim.env.event_pool_high_water,
        "cluster.self_s": layer_self.get("cluster", 0.0),
        "cluster.accesses": accesses,
        "cluster.local_hit_frac": local / accesses if accesses else 0.0,
        "cluster.remote_hit_frac": remote / accesses if accesses else 0.0,
        "cluster.disk_read_frac": disk / accesses if accesses else 0.0,
        "cluster.msgs_per_op":
            (after["messages"] - before["messages"]) / ops,
        "cluster.net.util": rhos["net"],
        "cluster.net.wait_ms": mean_wait(stations_b, stations_a, ["net"]),
        "cluster.disk.util": sum(rhos[d] for d in disks) / n,
        "cluster.disk.wait_ms": mean_wait(stations_b, stations_a, disks),
        "cluster.net.rho_vs_analytic": 0.0,
        "bufmgr.probe.calls": probes,
        "bufmgr.probe.self_s": tracer.self_time("bufmgr.probe"),
        "bufmgr.admit.calls": admits,
        "bufmgr.admit.self_s": tracer.self_time("bufmgr.admit"),
        "bufmgr.evictions_per_admit":
            tracer.tallies.get("bufmgr.admit", 0) / admits if admits else 0.0,
        "bufmgr.hit_frac":
            tracer.tallies.get("bufmgr.probe", 0) / probes if probes else 0.0,
        "bufmgr.resize.calls": tracer.calls("bufmgr.resize"),
        "bufmgr.resize.self_s": tracer.self_time("bufmgr.resize"),
        "directory.register.calls": tracer.calls("directory.register"),
        "directory.unregister_many.calls":
            tracer.calls("directory.unregister_many"),
        "directory.remote_holder.calls":
            tracer.calls("directory.remote_holder"),
        "directory.is_last_copy.calls":
            tracer.calls("directory.is_last_copy"),
        "directory.self_s": layer_self.get("directory", 0.0),
        "workload.arrivals": tracer.created("workload.operation"),
        "workload.refills": tracer.calls("workload.refill_gaps")
        + tracer.calls("workload.refill_pages"),
        "workload.self_s": layer_self.get("workload", 0.0),
        "core.decisions": tracer.calls("core.evaluate"),
        "core.evaluate_ms_p50":
            1e3 * metrics.median(evaluate) if evaluate else 0.0,
        "core.evaluate_ms_max": 1e3 * evaluate[-1] if evaluate else 0.0,
        "core.gauss_s": tracer.total_time("core.gauss"),
        "core.fit_s": tracer.total_time("core.fit"),
        "core.lp_s": tracer.total_time("core.lp"),
        "core.lp_solves": tracer.calls("core.lp"),
        "core.self_s": layer_self.get("core", 0.0),
        "telemetry.on_access.calls": tracer.calls("telemetry.on_access"),
        "telemetry.self_s": layer_self.get("telemetry", 0.0),
        "txn.begun": begun,
        "txn.commit_frac":
            (after.get("committed", 0) - before.get("committed", 0)) / begun
            if begun else 0.0,
        "txn.aborts": after.get("aborted", 0) - before.get("aborted", 0),
        "txn.wal_forces":
            after.get("wal_forces", 0) - before.get("wal_forces", 0),
        "txn.self_s": layer_self.get("txn", 0.0),
        "faults.restarts": tracer.calls("faults.restart_node"),
        "faults.reconcile_repairs": after["repairs"] - before["repairs"],
        "faults.self_s": layer_self.get("faults", 0.0),
        "trace.coverage_frac": sum(layer_self.values()) / wall_s,
    }
    if workload.analytic:
        out["cluster.net.rho_vs_analytic"] = rhos["net"] / analytic_net_rho(sim)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--params", default="{}",
                        help="the run's calibration result (JSON)")
    parser.add_argument("--calibrate", action="store_true",
                        help="only run the workload's calibration")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.calibrate:
        with metrics.SpeedSampler() as sampler:
            t0 = perf_counter()
            params = workload.calibrate(args.seed)
            calibrate_raw = perf_counter() - t0
        speed, paused = sampler.since((0, 0.0))
        result = {"params": params, "calibrate_s": calibrate_raw - paused,
                  "speed": speed}
    else:
        tracer = Tracer() if args.traced else None
        result = run_trial(
            workload, args.seed, json.loads(args.params), tracer,
            args.spans,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
