"""End-to-end telemetry tests: exports, determinism, zero overhead.

The non-negotiable invariants of the telemetry layer:

- artifacts (JSONL trace, Prometheus text, Chrome/Perfetto timeline)
  are produced and parse for a short instrumented run;
- telemetry never touches RNG streams or event ordering — the golden
  workload trace is bit-identical with telemetry enabled;
- the fork-server and cold sweep paths produce identical results *and*
  byte-identical telemetry trees, for any ``jobs`` value.
"""

import json
import os

import pytest

import repro.telemetry as telemetry_mod
from repro.telemetry.exporters import (
    METRICS_JSON_FILE,
    METRICS_TEXT_FILE,
    TIMELINE_FILE,
    TRACE_FILE,
)
from repro.experiments.figure2 import run_figure2, run_goal_sweep
from repro.workload.trace import TraceRecorder

from tests.golden_trace import (
    CONFIG,
    GOAL_RANGE,
    GOLDEN_PATH,
    INTERVALS,
    SEED,
    WARMUP_MS,
)


def _short_figure2(telemetry=None, recorder=None):
    return run_figure2(
        seed=SEED,
        intervals=INTERVALS,
        config=CONFIG,
        goal_range=GOAL_RANGE,
        warmup_ms=WARMUP_MS,
        recorder=recorder,
        telemetry=telemetry,
    )


def test_short_figure2_produces_parsing_artifacts(tmp_path):
    outdir = str(tmp_path / "tel")
    _short_figure2(telemetry=outdir)

    # JSONL trace: one JSON object per line, each with kind and time.
    trace_path = os.path.join(outdir, TRACE_FILE)
    with open(trace_path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert records
    kinds = {r["kind"] for r in records}
    assert {"agent_report", "decision", "interval"} <= kinds
    assert all("t" in r for r in records)

    # Prometheus text exposition: TYPE lines plus name{labels} value.
    with open(os.path.join(outdir, METRICS_TEXT_FILE)) as fh:
        prom = fh.read().splitlines()
    assert any(line.startswith("# TYPE repro_") for line in prom)
    for line in prom:
        if line.startswith("#") or not line:
            continue
        name_part, value = line.rsplit(" ", 1)
        float(value)  # every sample value must parse
        assert name_part.startswith("repro_")

    # Chrome trace-event timeline (Perfetto-loadable).
    with open(os.path.join(outdir, TIMELINE_FILE)) as fh:
        timeline = json.load(fh)
    assert timeline["displayTimeUnit"] == "ms"
    events = timeline["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert "M" in phases  # process/thread metadata
    assert "X" in phases or "i" in phases
    assert all("ts" in e for e in events if e["ph"] != "M")

    # Metrics JSON dump.
    with open(os.path.join(outdir, METRICS_JSON_FILE)) as fh:
        metrics = json.load(fh)
    assert any(
        m["name"] == "repro_page_access_total"
        for m in metrics["metrics"]
    )


def test_golden_trace_bit_identical_with_telemetry(tmp_path):
    """Telemetry must not perturb RNG draws or event ordering."""
    golden = TraceRecorder.load(GOLDEN_PATH).records
    recorder = TraceRecorder()
    _short_figure2(telemetry=str(tmp_path / "tel"), recorder=recorder)
    assert recorder.records == golden


def test_module_flag_attaches_pipeline_without_exports():
    telemetry_mod.enable()
    try:
        data_on = _short_figure2()
    finally:
        telemetry_mod.disable()
    data_off = _short_figure2()
    assert data_on.observed_rt == data_off.observed_rt
    assert data_on.dedicated_bytes == data_off.dedicated_bytes


def _telemetry_tree(root):
    tree = {}
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def _figure2_sweep(**kwargs):
    data = run_goal_sweep(
        seed=5, replicates=1, intervals=3, config=CONFIG,
        goal_range=GOAL_RANGE, warmup_ms=WARMUP_MS, **kwargs,
    )
    return {
        f"rep0-goal{g}": (
            p.goal_ms, p.observed_rt, p.dedicated_bytes, p.p95_rt_ms
        )
        for g, p in enumerate(data.points)
    }


def _prescreened_goals():
    """The goals ``prescreen=40`` selects, computed apart from the sweep."""
    from repro.analytic.frontier import prescreen_goals
    from repro.experiments.figure2 import sweep_goals
    from repro.experiments.runner import default_workload

    return prescreen_goals(
        CONFIG, default_workload(CONFIG), sweep_goals(GOAL_RANGE, 40)
    ).selected_goals()


def _figure2_direct(goals, outdir):
    """The last sweep point, on a simulation built with its own goal."""
    from repro.experiments.figure2 import (
        _build_sweep_sim,
        _summarize_goal_point,
    )
    from repro.experiments.parallel import derive_replicate_seed

    sim = _build_sweep_sim(
        CONFIG, 0.0, 0.02, goals[-1], derive_replicate_seed(5, 0), WARMUP_MS
    )
    sim.set_telemetry(outdir)
    p = _summarize_goal_point(sim, intervals=3)
    return f"rep0-goal{len(goals) - 1}", (
        p.goal_ms, p.observed_rt, p.dedicated_bytes, p.p95_rt_ms
    )


def _multiclass_sweep(**kwargs):
    from repro.experiments import multiclass

    data = multiclass.run_goal_sweep(
        goal_pairs=((3.0, 8.0), (4.0, 10.0)),
        config=multiclass.doubled_cache_config(CONFIG), intervals=3,
        tail=2, warmup_ms=WARMUP_MS, **kwargs,
    )
    return {
        f"pair{g}": p.to_row(extended=True)
        for g, p in enumerate(data.points)
    }


def _multiclass_direct(outdir):
    from repro.experiments import multiclass

    sim = multiclass._build_multiclass_sim(
        multiclass.doubled_cache_config(CONFIG), 4.0, 10.0, 0.0, 0.0, 7,
        WARMUP_MS,
    )
    sim.set_telemetry(outdir)
    point = multiclass._measure_goal_pair(
        sim, sharing=0.0, intervals=3, tail=2
    )
    return "pair1", point.to_row(extended=True)


def _resilience_sweep(**kwargs):
    from repro.experiments import resilience

    data = resilience.run_goal_sweep(
        goals=(4.0, 7.0), seed=0, intervals=8, config=CONFIG,
        replications=2, warmup_ms=WARMUP_MS, **kwargs,
    )
    return {
        f"rep{r}-goal{g}": repr(replicate)
        for g, result in enumerate(data.results)
        for r, replicate in enumerate(result.replicates)
    }


def _resilience_direct(outdir):
    from repro.experiments import resilience
    from repro.experiments.parallel import derive_replicate_seed

    faults = resilience.default_fault_spec(
        8, CONFIG.observation_interval_ms, WARMUP_MS
    )
    sim = resilience._build_resilience_sim(
        CONFIG, 7.0, WARMUP_MS, faults, 0.02, derive_replicate_seed(0, 1)
    )
    sim.set_telemetry(outdir)
    return "rep1-goal1", repr(resilience._measure_resilience(sim, 8))


#: Every goal sweep with a fork path: name -> (sweep(runner, jobs,
#: telemetry) -> {point label: comparable point}, direct(outdir) ->
#: (label, point) for a non-first point built with its own goals).
GOAL_SWEEPS = {
    "figure2": (
        lambda **kw: _figure2_sweep(goals=[3.0, 6.0], **kw),
        lambda outdir: _figure2_direct([3.0, 6.0], outdir),
    ),
    "figure2-prescreen": (
        lambda **kw: _figure2_sweep(prescreen=40, **kw),
        lambda outdir: _figure2_direct(_prescreened_goals(), outdir),
    ),
    "multiclass": (_multiclass_sweep, _multiclass_direct),
    "resilience": (_resilience_sweep, _resilience_direct),
}


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """Run (and cache) one goal sweep: ``(sweep, runner, jobs)`` ->
    ``(points, telemetry dir)``, so the tests below share their runs."""
    cache = {}

    def run(sweep, runner, jobs=1):
        key = (sweep, runner, jobs)
        if key not in cache:
            outdir = str(tmp_path_factory.mktemp("sweep") / "tel")
            points = GOAL_SWEEPS[sweep][0](
                runner=runner, jobs=jobs, telemetry=outdir
            )
            cache[key] = (points, outdir)
        return cache[key]

    return run


@pytest.mark.parametrize("sweep", sorted(GOAL_SWEEPS))
def test_fork_and_cold_telemetry_trees_identical(sweep_run, sweep):
    points_fork, dir_fork = sweep_run(sweep, "fork")
    points_cold, dir_cold = sweep_run(sweep, "cold")
    assert points_fork == points_cold
    assert _telemetry_tree(dir_fork) == _telemetry_tree(dir_cold)


@pytest.mark.parametrize("sweep", sorted(GOAL_SWEEPS))
def test_goal_sweep_point_matches_direct_build(sweep_run, tmp_path, sweep):
    """``set_goal`` after warm-up == building with that goal.

    Both sweep paths build a group's simulation with its *first* goals
    and re-target each point through ``WarmDelta``; a non-first point
    must equal a simulation constructed with that point's goals and no
    delta, result and telemetry export alike.
    """
    direct_dir = str(tmp_path / "direct")
    label, point = GOAL_SWEEPS[sweep][1](direct_dir)
    for runner in ("fork", "cold"):
        points, outdir = sweep_run(sweep, runner)
        assert label in points and label != list(points)[0]
        assert points[label] == point
        assert _telemetry_tree(os.path.join(outdir, label)) == (
            _telemetry_tree(direct_dir)
        )


def test_jobs_do_not_change_telemetry(sweep_run):
    points_1, dir_1 = sweep_run("figure2", "cold", 1)
    points_2, dir_2 = sweep_run("figure2", "cold", 2)
    assert points_1 == points_2
    assert _telemetry_tree(dir_1) == _telemetry_tree(dir_2)


def test_event_pool_gauges_exported(tmp_path):
    """The engine's timeout free-list shows up as export-time gauges.

    Off by default: the gauges are sampled only when telemetry is
    attached and an exporter collects, so disabled runs pay nothing.
    """
    outdir = str(tmp_path / "tel")
    _short_figure2(telemetry=outdir)
    found = {}
    for dirpath, _, files in os.walk(outdir):
        if METRICS_JSON_FILE not in files:
            continue
        path = os.path.join(dirpath, METRICS_JSON_FILE)
        with open(path, "r", encoding="utf-8") as fh:
            for entry in json.load(fh)["metrics"]:
                if entry["name"].startswith("repro_event_pool"):
                    found[entry["name"]] = entry["value"]
    assert "repro_event_pool_recycled" in found
    # Any real run recycles timeouts, so the high-water mark is live.
    assert found["repro_event_pool_high_water"] > 0


# -- merge_point_dirs ordering and resilience --------------------------


def _point_dir(tmp_path, name, records):
    point = tmp_path / name
    point.mkdir()
    with open(point / TRACE_FILE, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return str(point)


def test_merge_sorts_by_time_then_point_then_sequence(tmp_path):
    """The documented merge order: (sim-time, point position, emit
    sequence), stable across runners."""
    from repro.telemetry.exporters import merge_point_dirs

    a = _point_dir(tmp_path, "a", [
        {"kind": "interval", "t": 2000.0},
        {"kind": "decision", "t": 2000.0, "seq_marker": "a-second"},
        {"kind": "interval", "t": 4000.0},
    ])
    b = _point_dir(tmp_path, "b", [
        {"kind": "interval", "t": 1000.0},
        {"kind": "interval", "t": 2000.0},
    ])
    outdir = str(tmp_path / "merged")
    paths = merge_point_dirs(outdir, [("a", a), ("b", b)])
    with open(paths["trace"], "r", encoding="utf-8") as fh:
        merged = [json.loads(line) for line in fh]
    assert [(r["t"], r["point"]) for r in merged] == [
        (1000.0, "b"),            # earliest sim-time wins
        (2000.0, "a"),            # tie at t=2000: point order a < b...
        (2000.0, "a"),            # ...then a's own emit sequence
        (2000.0, "b"),
        (4000.0, "a"),
    ]
    assert merged[2]["seq_marker"] == "a-second"


def test_merge_skips_missing_point_dir_with_warning(tmp_path):
    from repro.telemetry.exporters import merge_point_dirs

    a = _point_dir(tmp_path, "a", [{"kind": "interval", "t": 1.0}])
    missing = str(tmp_path / "never-written")
    outdir = str(tmp_path / "merged")
    with pytest.warns(RuntimeWarning, match="killed sweep"):
        paths = merge_point_dirs(
            outdir, [("a", a), ("gone", missing)]
        )
    with open(paths["manifest"], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest[0]["records"] == 1 and "skipped" not in manifest[0]
    assert manifest[1]["skipped"] == "missing trace.jsonl"
    with open(paths["trace"], "r", encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1


def test_merge_skips_torn_trace_with_warning(tmp_path):
    from repro.telemetry.exporters import merge_point_dirs

    a = _point_dir(tmp_path, "a", [{"kind": "interval", "t": 1.0}])
    torn = tmp_path / "torn"
    torn.mkdir()
    (torn / TRACE_FILE).write_text(
        json.dumps({"kind": "interval", "t": 2.0}) + "\n"
        + '{"kind": "interval", "t": 3'  # killed mid-line
    )
    outdir = str(tmp_path / "merged")
    with pytest.warns(RuntimeWarning, match="unparsable"):
        paths = merge_point_dirs(
            outdir, [("a", a), ("torn", str(torn))]
        )
    with open(paths["trace"], "r", encoding="utf-8") as fh:
        merged = [json.loads(line) for line in fh]
    # The torn point is dropped whole; the healthy one survives.
    assert [r["point"] for r in merged] == ["a"]
