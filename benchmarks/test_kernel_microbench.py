"""Microbenchmarks of the simulation substrate itself.

These quantify the cost of the building blocks everything else pays
for: raw event throughput of the DES kernel, the resource queue, and
the end-to-end page access path.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.config import SystemConfig
from repro.sim.engine import Environment
from repro.sim.resources import Resource


def test_event_throughput(benchmark):
    """Schedule-and-dispatch cost of 10k timeout events."""

    def run():
        env = Environment()

        def proc():
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(proc())
        env.run()
        return env.now

    assert benchmark(run) == 10_000.0


def test_resource_throughput(benchmark):
    """Acquire/release cycles through a contended FCFS resource."""

    def run():
        env = Environment()
        resource = Resource(env, capacity=2)

        def proc():
            for _ in range(500):
                with resource.request() as req:
                    yield req
                    yield env.timeout(0.1)

        for _ in range(4):
            env.process(proc())
        env.run()
        return env.now

    benchmark(run)


def test_page_access_path(benchmark):
    """End-to-end cost of the data-shipping access path (mixed hits).

    ``Cluster.access_page`` is a one-page ``access_run``, so this times
    the fetch chain.
    """
    config = SystemConfig(num_pages=500)
    cluster = Cluster(config, seed=0)

    def run():
        def proc():
            for i in range(2_000):
                yield from cluster.access_page(
                    i % 3, (i * 7) % 500, class_id=0
                )

        cluster.env.process(proc())
        cluster.env.run()

    benchmark.pedantic(run, rounds=1, iterations=1)
