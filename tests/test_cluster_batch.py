"""Access path parity: the production fetch chain vs. a generator oracle.

Every page access runs through the cluster's self-advancing fetch chain
(``Cluster.access_run``; ``Cluster.access_page`` is its one-page form).
:func:`reference_access` below is the same data-shipping access (§3)
written as a plain generator over the public ``consume`` /
``send_message`` / ``disk.read`` steps.  The chain must be
*event-identical* to a loop of oracle calls: same simulated clock at
every completion, same kernel sequence numbers, same directory/
accounting/cost-observer state.  These tests drive both over the same
schedules — including concurrent operations contending for CPUs, disks,
and the network, crash windows, and the transactional path — and
require bit-equal end states.
"""

import sys
from collections import Counter
from dataclasses import replace

from repro.bufmgr.costs import AccessLevel
from repro.cluster.cluster import Cluster
from repro.cluster.config import NodeParameters, SystemConfig
from repro.cluster.messages import MessageKind
from repro.faults.injector import FaultLayer
from repro.sim.rng import RandomStreams
from repro.txn.manager import TransactionManager
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import TraceRecorder


def reference_access(cluster, node_id, page_id, class_id):
    """Generator: one page access built from public generator steps.

    Local cache, else a remote cached copy, else the home disk; a
    crashed origin node stalls the access and a crashed remote home
    stalls the disk fetch.  Returns the :class:`AccessLevel` served.
    """
    env = cluster.env
    node = cluster.nodes[node_id]
    cpu = cluster.config.cpu
    page_size = cluster.config.page_size
    network = cluster.network
    directory = cluster.directory
    faults = cluster.faults
    start = env.now
    if faults is not None:
        delay = faults.down_delay(node_id, start)
        if delay > 0.0:
            yield env.timeout(delay)
    yield from node.cpu.consume(cpu.instructions_buffer_lookup)
    hit, dropped = node.buffers.probe(page_id, class_id)
    if dropped:
        directory.unregister_many(dropped, node_id)
    level = AccessLevel.LOCAL if hit else None
    remote_id = None if hit else directory.remote_holder(page_id, node_id)
    if remote_id is not None:
        remote = cluster.nodes[remote_id]
        yield from network.send_message(MessageKind.PAGE_REQUEST)
        yield from remote.cpu.consume(
            cpu.instructions_message + cpu.instructions_buffer_lookup
        )
        # The copy may have been evicted while the request was in flight.
        if remote.buffers.contains(page_id):
            yield from network.send_message(MessageKind.PAGE_SHIP, page_size)
            level = AccessLevel.REMOTE
    if level is None:
        level = AccessLevel.DISK
        home_id = cluster.database.home(page_id)
        home = cluster.nodes[home_id]
        if home_id == node_id:
            yield from home.disk.read(page_size)
        else:
            if faults is not None:
                delay = faults.down_delay(home_id, env.now)
                if delay > 0.0:
                    yield env.timeout(delay)
            yield from network.send_message(MessageKind.PAGE_REQUEST)
            yield from home.cpu.consume(cpu.instructions_message)
            yield from home.disk.read(page_size)
            yield from network.send_message(MessageKind.PAGE_SHIP, page_size)
    if level is not AccessLevel.LOCAL:
        yield from node.cpu.consume(cpu.instructions_page_handling)
        dropped = node.buffers.admit(page_id, class_id)
        if dropped:
            directory.unregister_many(dropped, node_id)
        if node.buffers.contains(page_id):
            directory.register(page_id, node_id)
    elapsed = env.now - start
    cluster.costs.observe(level, elapsed)
    telemetry = cluster.telemetry
    if telemetry is not None:
        telemetry.on_access(node_id, class_id, level, elapsed)
    return level


def _config(num_nodes=4, num_pages=200):
    return SystemConfig(
        num_nodes=num_nodes,
        num_pages=num_pages,
        node=NodeParameters(buffer_bytes=128 * 1024),
    )


def _schedule(num_nodes, num_pages, ops=120):
    """Deterministic operation list: (node, class, [pages])."""
    schedule = []
    for i in range(ops):
        node = (i * 5) % num_nodes
        pages = [
            (i * 7 + j * 31) % num_pages for j in range(1 + i % 4)
        ]
        schedule.append((node, i % 3, pages))
    return schedule


def _fingerprint(cluster):
    acct = cluster.network.accounting
    return {
        "now": cluster.env.now,
        "seq": cluster.env._seq,
        "bytes": {
            kind.value: n for kind, n in sorted(
                acct.bytes_by_kind.items(), key=lambda kv: kv[0].value
            )
        },
        "messages": {
            kind.value: n for kind, n in sorted(
                acct.messages_by_kind.items(), key=lambda kv: kv[0].value
            )
        },
        "costs": (
            cluster.costs.cost_local,
            cluster.costs.cost_remote,
            cluster.costs.cost_disk,
            cluster.costs.version,
        ),
        "cached": sorted(
            (node.node_id, page)
            for node in cluster.nodes
            for page in node.buffers.cached_pages()
        ),
        "hits": [
            dict(node.buffers.hits_by_class) for node in cluster.nodes
        ],
        "misses": [
            dict(node.buffers.misses_by_class) for node in cluster.nodes
        ],
        "global_heat": (
            len(cluster.global_heat),
            cluster.global_heat.pending_count,
        ),
    }


def page_loop(cluster, node_id, class_id, pages):
    level = None
    for page_id in pages:
        level = yield from reference_access(
            cluster, node_id, page_id, class_id
        )
    return level


def batched(cluster, node_id, class_id, pages):
    return (yield from cluster.access_run(node_id, pages, class_id))


def _drive(cluster, schedule, runner, gap=0.11):
    """Start one process per scheduled operation, ``gap`` ms apart, and
    run to exhaustion; returns the fingerprint and (time, level) per
    completed operation."""
    completions = []

    def op(node_id, class_id, pages):
        level = yield from runner(cluster, node_id, class_id, pages)
        completions.append((cluster.env.now, level))

    def driver():
        for node_id, class_id, pages in schedule:
            cluster.env.process(op(node_id, class_id, pages))
            yield cluster.env.timeout(gap)

    cluster.env.process(driver())
    cluster.env.run()
    return _fingerprint(cluster), completions


def _run(schedule, runner, **kwargs):
    return _drive(Cluster(_config(**kwargs), seed=3), schedule, runner)


def test_batched_run_is_event_identical_to_page_loop():
    schedule = _schedule(4, 200)
    assert _run(schedule, batched) == _run(schedule, page_loop)


def test_batched_run_parity_under_contention():
    # Two nodes over few pages: heavy CPU/disk/network contention, so
    # the fast acquire path and the queued Request fallback both run.
    schedule = _schedule(2, 40, ops=200)
    assert (
        _run(schedule, batched, num_nodes=2, num_pages=40)
        == _run(schedule, page_loop, num_nodes=2, num_pages=40)
    )


def test_batched_run_parity_with_dedicated_pools():
    schedule = _schedule(3, 120, ops=150)

    def with_pools(runner):
        cluster = Cluster(_config(num_nodes=3, num_pages=120), seed=9)
        # Dedicated buffers for classes 1 and 2 exercise the §6
        # promotion branches inside probe/admit.
        cluster.apply_allocation(1, [32 * 1024] * 3)
        cluster.apply_allocation(2, [16 * 1024] * 3)
        return _drive(cluster, schedule, runner, gap=0.17)

    assert with_pools(batched) == with_pools(page_loop)


class _RecordingFaultLayer(FaultLayer):
    """A fault layer that counts, per calling function, the
    ``down_delay`` calls that actually stalled an access."""

    def __init__(self, rng):
        super().__init__(rng)
        self.stalls = Counter()

    def down_delay(self, node_id, now):
        delay = super().down_delay(node_id, now)
        if delay > 0.0:
            self.stalls[sys._getframe(1).f_code.co_name] += 1
        return delay


def test_batched_run_parity_under_crash_windows():
    schedule = _schedule(4, 200, ops=160)

    def with_crashes(runner):
        cluster = Cluster(_config(), seed=5)
        layer = _RecordingFaultLayer(RandomStreams(5))
        cluster.attach_faults(layer)

        def crashes():
            # Node 1 is down from 2 to 5 ms, node 2 from 8 to 11 ms:
            # operations initiated there stall, and so do disk fetches
            # homed there from the other nodes.
            for at, node_id in ((2.0, 1), (8.0, 2)):
                yield cluster.env.timeout(at - cluster.env.now)
                layer.mark_down(node_id, at + 3.0)

        cluster.env.process(crashes())
        return _drive(cluster, schedule, runner), layer.stalls

    batch_state, chain_stalls = with_crashes(batched)
    ref_state, ref_stalls = with_crashes(page_loop)
    assert batch_state == ref_state
    # Both kinds of stall ran: at the origin node (in access_run) and
    # at a remote home disk (the chain's restart-delay hop).
    assert chain_stalls["access_run"] > 0
    assert chain_stalls["_start_disk"] > 0
    assert sum(chain_stalls.values()) == sum(ref_stalls.values())


def test_transactions_on_the_chain_match_the_oracle(
    monkeypatch, fast_config, fast_workload
):
    workload = WorkloadSpec(classes=[
        replace(c, write_fraction=0.4) if c.class_id == 1 else c
        for c in fast_workload.classes
    ])

    def run():
        cluster = Cluster(fast_config, seed=4)
        manager = TransactionManager(cluster)
        recorder = TraceRecorder()
        generator = WorkloadGenerator(
            cluster, workload, recorder=recorder, txn_manager=manager
        )
        generator.start()
        cluster.env.run(until=8_000.0)
        return (
            recorder.records,
            manager.committed,
            manager.aborted,
            generator.operations_completed,
            _fingerprint(cluster),
        )

    chain = run()
    monkeypatch.setattr(Cluster, "access_page", reference_access)
    oracle = run()
    assert chain[1] > 0, "no transaction committed"
    assert chain == oracle


def test_empty_run_is_a_no_op():
    cluster = Cluster(_config(), seed=0)

    def driver():
        yield from cluster.access_run(0, [], 0)

    cluster.env.process(driver())
    cluster.env.run()
    assert cluster.env.now == 0.0
    assert all(
        not node.buffers.cached_pages() for node in cluster.nodes
    )


def test_workload_generator_routes_through_batched_path(monkeypatch):
    """The open-system generator feeds operations through access_run."""
    from repro.workload.spec import ClassSpec

    cluster = Cluster(_config(), seed=1)
    calls = []
    original = cluster.access_run

    def spy(node_id, pages, class_id):
        calls.append((node_id, tuple(pages), class_id))
        return original(node_id, pages, class_id)

    monkeypatch.setattr(cluster, "access_run", spy)
    spec = WorkloadSpec(classes=[
        ClassSpec(
            class_id=1, goal_ms=10.0, pages=tuple(range(100)),
            arrival_rate_per_node=0.4, pages_per_op=3,
        ),
    ])
    generator = WorkloadGenerator(cluster, spec)
    generator.start()
    cluster.env.run(until=50.0)
    assert calls, "no operations ran through the batched path"
    assert all(len(pages) == 3 for _, pages, _ in calls)
