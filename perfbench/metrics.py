"""Metric definitions and the pure helpers that compute them.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
list: ``run.py --write-spec`` renders them into ``BENCHMARK.json``, and
the result line reports exactly these names.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import signal
import statistics
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

#: (name, unit, better, bound, clock, meaning).  ``bound`` is the share
#: of the parent's median by which the metric may worsen.  Host times
#: are reference-host seconds: raw seconds over the trial's speed (see
#: :func:`speed`).
END_TO_END = (
    ("wall_s", "s", "lower", 0.25, "host",
     "host time of the measured phase (controller intervals after set-up), "
     "median over trials"),
    ("ops_per_s", "ops/s", "higher", 0.25, "host",
     "simulated operations completed per host second in the measured "
     "phase, median over trials"),
    ("us_per_event", "us", "lower", 0.25, "host",
     "host time per kernel event (heap entry scheduled), median over trials"),
    ("interval_s_p50", "s", "lower", 0.25, "host",
     "median host time per observation interval, over all trials' "
     "intervals, timed through controller.on_interval"),
    ("interval_s_tail", "s", "lower", 0.25, "host",
     "highest percentile of per-interval host time with at least 10 "
     "intervals beyond it; the percentile and sample count are printed"),
    ("setup_s", "s", "lower", 0.25, "host",
     "the run's calibration (figure2) plus the median trial set-up: "
     "construction + warm-up + activation"),
    ("peak_rss_mb", "MB", "lower", 0.1, "host",
     "peak resident set of a trial process, median over trials"),
)

#: (name, unit, better, meaning).
PER_LAYER = (
    ("sim.events", "count", "lower", "kernel events scheduled"),
    ("sim.self_s", "s", "lower",
     "Environment.run time no other layer's span covers"),
    ("sim.pool_high_water", "count", "lower", "timeout free-list high water"),
    ("cluster.self_s", "s", "lower",
     "self time of access_run/access_page resumes and _FetchChain._resume"),
    ("cluster.accesses", "count", "lower", "page accesses"),
    ("cluster.local_hit_frac", "fraction", "higher", "accesses served locally"),
    ("cluster.remote_hit_frac", "fraction", "higher",
     "accesses served from a remote cache"),
    ("cluster.disk_read_frac", "fraction", "lower",
     "accesses served from a home disk"),
    ("cluster.msgs_per_op", "count", "lower",
     "accounted network messages per completed operation"),
    ("cluster.net.util", "fraction", "lower", "LAN medium utilization"),
    ("cluster.net.wait_ms", "ms", "lower", "mean LAN queueing delay per grant"),
    ("cluster.disk.util", "fraction", "lower", "mean disk utilization"),
    ("cluster.disk.wait_ms", "ms", "lower", "mean disk queueing delay per grant"),
    ("cluster.net.rho_vs_analytic", "ratio", "higher",
     "measured LAN rho over analytic.bridge's prediction (0: not modelled)"),
    ("bufmgr.probe.calls", "count", "lower", "NodeBufferManager.probe calls"),
    ("bufmgr.probe.self_s", "s", "lower", "probe self time"),
    ("bufmgr.admit.calls", "count", "lower", "NodeBufferManager.admit calls"),
    ("bufmgr.admit.self_s", "s", "lower", "admit self time"),
    ("bufmgr.evictions_per_admit", "count", "lower", "pages evicted per admit"),
    ("bufmgr.hit_frac", "fraction", "higher", "probe hits over probes"),
    ("bufmgr.resize.calls", "count", "lower", "set_dedicated_bytes calls"),
    ("bufmgr.resize.self_s", "s", "lower", "set_dedicated_bytes self time"),
    ("directory.register.calls", "count", "lower", "PageDirectory.register"),
    ("directory.unregister_many.calls", "count", "lower",
     "PageDirectory.unregister_many"),
    ("directory.remote_holder.calls", "count", "lower",
     "PageDirectory.remote_holder"),
    ("directory.is_last_copy.calls", "count", "lower",
     "PageDirectory.is_last_copy"),
    ("directory.self_s", "s", "lower", "directory self time"),
    ("workload.arrivals", "count", "lower", "operations created"),
    ("workload.refills", "count", "lower", "arrival/page column refills"),
    ("workload.self_s", "s", "lower",
     "dispatcher and operation resumes plus refills, self time"),
    ("workload.fail_frac", "fraction", "lower",
     "failed over started operations (sim clock)"),
    ("core.decisions", "count", "lower", "Coordinator.evaluate calls"),
    ("core.evaluate_ms_p50", "ms", "lower", "median evaluate host time"),
    ("core.evaluate_ms_max", "ms", "lower", "largest evaluate host time"),
    ("core.gauss_s", "s", "lower", "independent-point selection (Gauss)"),
    ("core.fit_s", "s", "lower", "hyperplane fits"),
    ("core.lp_s", "s", "lower", "partitioning LP solves"),
    ("core.lp_solves", "count", "lower", "partitioning LP solves"),
    ("core.self_s", "s", "lower", "controller loop and sink self time"),
    ("core.goal_met_frac", "fraction", "higher",
     "(interval, goal class) pairs marked satisfied (sim clock)"),
    ("core.nogoal_rt_ms", "ms", "lower",
     "mean no-goal response time, the paper's objective (sim clock)"),
    ("telemetry.on_access.calls", "count", "lower", "Telemetry.on_access"),
    ("telemetry.self_s", "s", "lower", "telemetry hooks self time"),
    ("txn.begun", "count", "lower", "transactions begun"),
    ("txn.commit_frac", "fraction", "higher",
     "commits over transactions begun in the phase (a window ratio: it "
     "can pass 1 by the transactions in flight at its start)"),
    ("txn.aborts", "count", "lower", "aborted transactions"),
    ("txn.wal_forces", "count", "lower", "WAL forces"),
    ("txn.self_s", "s", "lower", "txn read/write/commit/abort self time"),
    ("faults.restarts", "count", "lower", "node restarts"),
    ("faults.reconcile_repairs", "count", "lower",
     "directory entries repaired by anti-entropy"),
    ("faults.self_s", "s", "lower", "fault injection and checks self time"),
    ("trace.overhead_frac", "fraction", "lower",
     "traced over untraced wall, each in reference-host seconds, minus 1"),
    ("trace.coverage_frac", "fraction", "higher",
     "sum of self times over the traced wall"),
)

#: Fewest samples the tail percentile keeps beyond itself.
TAIL_BEYOND = 10

#: Iterations of one speed probe, its host seconds on the reference host
#: (2-core VM, Python 3.11) when nothing else competes for it, and the
#: host-time period at which :class:`SpeedSampler` runs it.
PROBE_N = 3_000
REFERENCE_PROBE_S = 0.0025
PROBE_PERIOD_S = 0.05
#: Probes taken at the end of a stretch that ran none (traced trials).
END_PROBES = 10


def speed_probe(n: int = PROBE_N) -> float:
    """Host seconds of a fixed pure-Python loop (heap, dict and float
    work; no program code, garbage collector off) -- how fast the host
    runs Python at this moment."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        heap: list = []
        counts: dict = {}
        acc = 0.0
        for i in range(n):
            heapq.heappush(heap, (((i * 7919) % 1009) * 0.5, i))
            if len(heap) > 64:
                acc += heapq.heappop(heap)[0]
            key = i & 1023
            counts[key] = counts.get(key, 0) + 1
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(probes: Sequence[float]) -> float:
    """How many times slower than the reference host a stretch of a run
    went: the mean of its probe times over the reference probe time.
    The mean, not the median, because the host loses time in short
    bursts that a median of short probes would skip."""
    return statistics.fmean(probes) / REFERENCE_PROBE_S


def stretch_speeds(
    samples: Sequence[float], counts: Sequence[int], fallback: float
) -> List[float]:
    """Speed of each stretch between consecutive probe counts
    ``counts``, from the probes taken inside it; ``fallback`` for a
    stretch that no probe fell in."""
    return [
        speed(samples[a:b]) if b > a else fallback
        for a, b in zip(counts, counts[1:])
    ]


class SpeedSampler:
    """Samples host speed throughout a stretch of code.

    While active, a ``SIGALRM`` interval timer runs :func:`speed_probe`
    every :data:`PROBE_PERIOD_S` of host time, between two bytecodes of
    whatever the process is doing.  ``paused`` is the host time spent
    in probes, which timed stretches subtract.  :meth:`mark` and
    :meth:`since` measure one stretch.  With ``period`` 0 no timer runs
    (for traced runs, whose spans the probes would land in) and a
    stretch's speed comes from :data:`END_PROBES` probes taken at its
    end.
    """

    def __init__(self, period: float = PROBE_PERIOD_S):
        self.period = period
        self.samples: List[float] = []
        self.paused = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(speed_probe())
        self.paused += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        if self.period > 0:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        if self.period > 0:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Tuple[int, float]:
        """The sampler's position: (samples so far, paused so far)."""
        return len(self.samples), self.paused

    def since(self, mark: Tuple[int, float]) -> Tuple[float, float]:
        """(speed, paused seconds) of the stretch since ``mark``."""
        count, paused = mark
        samples = self.samples[count:] or [
            speed_probe() for _ in range(END_PROBES)
        ]
        return speed(samples), self.paused - paused


def spec(workloads) -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [
            {"name": w.name, "why": w.why} for w in workloads
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(values)


def tail_percentile(
    samples: Sequence[float], beyond: int = TAIL_BEYOND
) -> Tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile that
    leaves at least ``beyond`` samples above its rank.

    A nearest-rank percentile ``p`` of ``n`` samples has rank
    ``ceil(p n / 100)``; ``n - rank >= beyond`` gives the highest
    ``p = 100 (n - beyond) / n`` with the ``(n - beyond)``-th smallest
    sample as its value.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(
            f"need more than {beyond} samples for a tail percentile, got {n}"
        )
    rank = n - beyond
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def failed_ops(attempted: int, aborted: int, unfinished: int,
               checks_ok: bool) -> int:
    """Failed operations of one run.

    Aborted (deadlock victims) and not completed by the horizon count
    as failed; when any output check failed, every operation of the run
    counts as failed.
    """
    if attempted < 0 or aborted < 0 or unfinished < 0:
        raise ValueError("operation counts must be non-negative")
    if not checks_ok:
        return attempted
    return min(attempted, aborted + unfinished)


def digest(ops: Dict, series: Dict, allocations: Dict) -> str:
    """Digest of the simulated statistics: operation counts, per-class
    RT series and final allocations (floats by exact repr)."""
    doc = json.dumps(
        {"ops": ops, "series": series, "allocations": allocations},
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def backlog_bounded(samples: List[int], slack: int = 10) -> bool:
    """True if started - completed does not grow across intervals: the
    mean backlog of the last third of the samples is at most twice the
    first third's plus ``slack``."""
    if len(samples) < 3:
        return True
    third = len(samples) // 3
    head = samples[:third]
    tail = samples[-third:]
    return sum(tail) / len(tail) <= 2 * sum(head) / len(head) + slack
