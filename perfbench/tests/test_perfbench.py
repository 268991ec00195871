"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import trial  # noqa: E402
import workloads  # noqa: E402
from tracer import BOUNDARIES, Tracer, private_boundaries  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- percentile rule ------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 58))  # 57 samples, shuffled order irrelevant
    pct, value = metrics.tail_percentile(list(reversed(samples)))
    assert value == 47
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * 47 / 57)


def test_tail_percentile_is_the_highest_such_rank():
    samples = [float(i) for i in range(200)]
    pct, value = metrics.tail_percentile(samples)
    assert (pct, value) == (95.0, 189.0)
    # One rank higher would leave only nine samples beyond.
    assert sum(1 for s in samples if s > 190.0) == 9


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        metrics.tail_percentile([1.0] * 10)
    assert metrics.tail_percentile([2.0] * 11) == (100.0 / 11, 2.0)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        inner()
        clock.now += 1.0
        inner()

    def outer():
        clock.now += 3.0
        mid()

    inner = tracer.timed("b.leaf", leaf)
    mid = tracer.timed("a.middle", middle)
    top = tracer.timed("sim.run", outer)
    top()
    assert tracer.stats["b.leaf"] == [2, 4.0, 4.0]
    assert tracer.stats["a.middle"] == [1, 6.0, 2.0]
    assert tracer.stats["sim.run"] == [1, 9.0, 3.0]
    assert tracer.layer_self() == {"b": 4.0, "a": 2.0, "sim": 3.0}
    # The recorded outer span has no parent; totals add up to the wall.
    assert tracer.spans == [("sim.run", 0.0, 9.0, -1)]
    assert sum(tracer.layer_self().values()) == 9.0


def test_generator_spans_time_each_resume_and_pass_throw_and_close():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def worker():
        clock.now += 1.0
        try:
            got = yield "first"
            seen.append(got)
            clock.now += 2.0
            yield "second"
        except KeyError as exc:
            seen.append(("caught", exc.args[0]))
            clock.now += 4.0
            yield "recovered"
        finally:
            seen.append("closed")
        return "done"

    timed = tracer.timed_generator("cluster.worker", worker)
    gen = timed()
    assert next(gen) == "first"
    assert gen.send("x") == "second"
    assert gen.throw(KeyError("boom")) == "recovered"
    gen.close()
    assert seen == ["x", ("caught", "boom"), "closed"]
    calls, total, self_s = tracer.stats["cluster.worker"]
    assert (calls, total, self_s) == (3, 7.0, 7.0)
    assert tracer.created("cluster.worker") == 1

    plain = timed()
    assert list(plain) == ["first", "second"]
    with pytest.raises(StopIteration) as stop:
        next(_returns(timed))
    assert stop.value.value == "done"


def _returns(timed):
    """Drive a timed worker to its return value via ``yield from``."""
    gen = timed()
    next(gen)
    gen.send(None)
    value = yield from gen
    return value


def test_tracer_install_restores_every_boundary():
    import importlib

    def current():
        out = []
        for module, owner, attr, _, _ in BOUNDARIES:
            obj = importlib.import_module(module)
            if owner:
                obj = getattr(obj, owner)
            out.append(getattr(obj, attr))
        return out

    before = current()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(current(), before))
    finally:
        tracer.uninstall()
    assert current() == before
    assert "repro.cluster.cluster._FetchChain._resume" in private_boundaries()


# -- failure accounting -----------------------------------------------------


def test_fail_accounting_counts_aborts_and_unfinished():
    assert metrics.failed_ops(100, 0, 0, True) == 0
    assert metrics.failed_ops(100, 3, 2, True) == 5


def test_fail_accounting_failed_check_fails_every_operation():
    assert metrics.failed_ops(100, 0, 0, False) == 100
    assert metrics.failed_ops(100, 3, 2, False) == 100


def test_fail_accounting_rejects_negative_counts():
    with pytest.raises(ValueError):
        metrics.failed_ops(10, 0, -1, True)


def test_run_accounting_marks_failed_checks():
    import run

    good = {"attempted": 50, "aborted": 1, "unfinished": 0,
            "checks": {"directory_audit": "ok"}}
    bad = dict(good, checks={"directory_audit": "2 problems"})
    run.account(good)
    run.account(bad)
    assert (good["ok"], good["failed"]) == (True, 1)
    assert (bad["ok"], bad["failed"]) == (False, 50)


def test_speed_is_the_mean_probe_over_the_reference():
    ref = metrics.REFERENCE_PROBE_S
    # One slow burst among fast probes still counts (a median would not).
    assert metrics.speed([ref, ref, ref, 5 * ref]) == pytest.approx(2.0)
    assert metrics.speed_probe(n=100) > 0.0


def test_stretch_speeds_use_each_stretch_own_probes():
    ref = metrics.REFERENCE_PROBE_S
    samples = [ref, 3 * ref, ref, ref]
    # Stretches [0, 2), [2, 2) (no probe: fallback) and [2, 4).
    assert metrics.stretch_speeds(samples, [0, 2, 2, 4], 7.0) == [
        pytest.approx(2.0), 7.0, pytest.approx(1.0)
    ]


def test_speed_sampler_probes_during_a_stretch_and_reports_pauses():
    from time import perf_counter

    with metrics.SpeedSampler(period=0.02) as sampler:
        mark = sampler.mark()
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            sum(range(1000))
        speed, paused = sampler.since(mark)
    assert len(sampler.samples) >= 3
    assert 0.0 < paused < 0.3
    assert speed == pytest.approx(metrics.speed(sampler.samples))
    with metrics.SpeedSampler(period=0.0) as idle:
        speed, paused = idle.since(idle.mark())
    assert idle.samples == [] and paused == 0.0 and speed > 0.0


def test_backlog_bound():
    assert metrics.backlog_bounded([3, 4, 2, 5, 3, 4])
    assert not metrics.backlog_bounded([3, 4, 20, 90, 200, 400])


# -- tracer leaves the simulation unchanged --------------------------------


def _tiny(seed, params):
    from repro.cluster.config import SystemConfig
    from repro.experiments.runner import Simulation
    from repro.workload.presets import oltp_dss_mix

    config = SystemConfig(
        num_nodes=2, num_pages=300, observation_interval_ms=400.0
    )
    workload = oltp_dss_mix(config, oltp_goal_ms=4.0, dss_goal_ms=60.0)
    classes = [
        dataclasses.replace(c, write_fraction=0.3) if c.class_id == 1 else c
        for c in workload.classes
    ]
    return Simulation(
        config=config, workload=dataclasses.replace(workload, classes=classes),
        seed=seed, warmup_ms=800.0, faults="crash@1500:node=1:restart=200",
        telemetry=True,
    )


TINY = workloads.Workload(
    name="tiny", why="test", trials=1, intervals=6, build=_tiny,
    analytic=False,
)


def test_tracer_leaves_the_simulated_digest_unchanged(tmp_path):
    plain = trial.run_trial(TINY, 7)
    spans = tmp_path / "spans.jsonl"
    traced = trial.run_trial(TINY, 7, None, Tracer(), str(spans))
    assert plain["digest"] == traced["digest"]
    assert all(v == "ok" for v in plain["checks"].values())
    assert all(v == "ok" for v in traced["checks"].values())
    layers = traced["layers"]
    assert layers["txn.begun"] > 0
    assert layers["faults.restarts"] == 1
    assert layers["telemetry.on_access.calls"] > 0
    assert layers["bufmgr.admit.calls"] > 0
    assert 0.9 < layers["trace.coverage_frac"] <= 1.0 + 1e-9
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records[0]["name"] == "sim.run" and records[0]["parent"] == -1
    assert {r["name"] for r in records} >= {"sim.run", "core.evaluate"}


# -- the committed spec and workload constants ------------------------------


def test_benchmark_json_matches_the_metric_definitions():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.spec(workloads.WORKLOADS.values())


def test_figure2_workload_runs_the_figure2_experiment():
    from repro.experiments.calibration import GoalRange
    from repro.experiments.figure2 import run_figure2

    # A fixed goal range (the calibration is the experiment's own code)
    # under which the goal changer fires inside the run.
    params = {"goal_min_ms": 8.0, "goal_max_ms": 30.0}
    intervals = 8
    sim = workloads.build_figure2(3, params)
    sim.run(intervals=intervals)
    series = sim.controller.series[1]
    data = run_figure2(
        seed=3, intervals=intervals,
        goal_range=GoalRange(class_id=1, **params),
    )
    assert len(set(data.goal)) > 1
    assert series.observed_rt.values == data.observed_rt
    assert series.goal.values == data.goal
    assert series.dedicated_bytes.values == data.dedicated_bytes
    assert series.satisfied == data.satisfied


def test_wide16_goals_are_reachable_per_the_analytic_bridge():
    from repro.analytic.bridge import predict_response

    config, workload, _ = workloads.wide16_setup()
    prediction = predict_response(
        config, workload, {1: 1 << 20, 2: 1 << 19}
    )
    goal1, goal2 = workloads.WIDE16_GOALS_MS
    assert prediction.response_ms[1] < goal1
    assert prediction.response_ms[2] < goal2
    assert prediction.utilization["net"] < 0.9


def test_oltp_txn_transactions_lock_one_page_so_cannot_deadlock():
    _, workload = workloads.oltp_setup()
    writers = [c for c in workload.classes if c.write_fraction > 0]
    assert writers
    assert all(c.pages_per_op == 1 for c in writers)


def test_every_metric_name_is_unique_and_well_formed():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    for name in names:
        assert len(name) <= 64 and name[0].isalnum()
