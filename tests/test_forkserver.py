"""Tests for the warm-state fork server.

The headline guarantee mirrors ``--jobs``: the fork runner never
changes results.  A sweep point forked off a warmed parent must be
bit-identical to the same point run cold from scratch, for any ``jobs``
fan-out, and the planner must refuse (or fall back) whenever a sweep
cannot honour that guarantee.
"""

import pytest

from repro.experiments import forkserver
from repro.experiments.calibration import (
    GoalRange,
    calibrate_goal_range,
)
from repro.core.controller import GoalOrientedController
from repro.experiments.forkserver import (
    ForkUnavailableError,
    WarmDelta,
    WarmGroup,
    WarmupInvarianceError,
    apply_delta,
    plan_sweep,
    run_sweep,
    supports_fork,
    warm_fingerprint,
)
from repro.experiments.runner import (
    CALIBRATION_WARMUP_MS,
    DEFAULT_WARMUP_MS,
    RESILIENCE_WARMUP_MS,
    Simulation,
    default_workload,
)

requires_fork = pytest.mark.skipif(
    not supports_fork(), reason="platform has no os.fork"
)

#: A small calibrated range so sweeps skip the calibration runs.
GOAL_RANGE = GoalRange(class_id=1, goal_min_ms=2.0, goal_max_ms=8.0)


def _build_sim(fast_config, seed=3, goal_ms=4.0, warmup_ms=6_000.0):
    workload = default_workload(fast_config, goal_ms=goal_ms)
    return Simulation(
        config=fast_config, workload=workload, seed=seed,
        warmup_ms=warmup_ms,
    )


def _patch_set_goal(monkeypatch, side_effect):
    """Make every ``set_goal`` run ``side_effect(controller)`` first.

    A goal delta is the only thing :func:`apply_delta` applies, so this
    is how a test smuggles a warm-state perturbation into a delta.  The
    patch lives on the class, so forked children inherit it.
    """
    original = GoalOrientedController.set_goal

    def set_goal(self, class_id, goal_ms):
        side_effect(self)
        original(self, class_id, goal_ms)

    monkeypatch.setattr(GoalOrientedController, "set_goal", set_goal)


def _draw_rng(controller):
    controller.cluster.rng.random("page-select/goal")


def _advance_clock(controller):
    env = controller.cluster.env
    env.run(until=env.now + 1.0)


# -- planning ---------------------------------------------------------


def test_plan_sweep_rejects_unknown_runner():
    with pytest.raises(ValueError):
        plan_sweep("turbo", warm_keys=[1, 1])


def test_plan_sweep_cold_is_always_cold():
    assert plan_sweep("cold", warm_keys=[1, 1, 1]) == "cold"


@requires_fork
def test_plan_sweep_forks_only_shared_warm_keys():
    # Duplicated keys share warm state; all-distinct keys (e.g. one
    # seed per replicate) have nothing to amortize.
    assert plan_sweep("auto", warm_keys=[7, 7, 7]) == "fork"
    assert plan_sweep("auto", warm_keys=[7, 8, 9]) == "cold"
    with pytest.raises(ForkUnavailableError):
        plan_sweep("fork", warm_keys=[7, 8, 9])


def test_plan_sweep_degrades_without_fork(monkeypatch):
    monkeypatch.setattr(forkserver, "supports_fork", lambda: False)
    assert forkserver.plan_sweep("auto", warm_keys=[1, 1]) == "cold"
    with pytest.raises(ForkUnavailableError):
        forkserver.plan_sweep("fork", warm_keys=[1, 1])


# -- the runtime invariance guard -------------------------------------


def test_apply_delta_requires_warmed_inactive_sim(fast_config):
    sim = _build_sim(fast_config)
    with pytest.raises(WarmupInvarianceError):
        apply_delta(sim, WarmDelta.for_goals({1: 5.0}))
    sim.start()
    with pytest.raises(WarmupInvarianceError):
        apply_delta(sim, WarmDelta.for_goals({1: 5.0}))


def test_apply_delta_sets_goals_without_perturbing_warm_state(
    fast_config,
):
    sim = _build_sim(fast_config)
    sim.warm()
    before = warm_fingerprint(sim)
    apply_delta(sim, WarmDelta.for_goals({1: 5.5}))
    assert sim.controller.goal_of(1) == 5.5
    assert warm_fingerprint(sim) == before


def test_runtime_guard_catches_rng_drawing_delta(
    fast_config, monkeypatch
):
    # A goal delta whose set_goal draws randomness must be caught by
    # the before/after fingerprint.
    sim = _build_sim(fast_config)
    sim.warm()
    _patch_set_goal(monkeypatch, _draw_rng)
    with pytest.raises(WarmupInvarianceError):
        apply_delta(sim, WarmDelta.for_goals({1: 5.0}))


def test_runtime_guard_catches_clock_advance(fast_config, monkeypatch):
    sim = _build_sim(fast_config)
    sim.warm()
    _patch_set_goal(monkeypatch, _advance_clock)
    with pytest.raises(WarmupInvarianceError):
        apply_delta(sim, WarmDelta.for_goals({1: 5.0}))


# -- fork == cold bit-identity ----------------------------------------


@requires_fork
def test_figure2_goal_sweep_fork_matches_cold(fast_config):
    from repro.experiments.figure2 import run_goal_sweep

    kwargs = dict(
        points=3, seed=5, intervals=3, config=fast_config,
        goal_range=GOAL_RANGE, warmup_ms=6_000.0,
    )
    fork = run_goal_sweep(runner="fork", **kwargs)
    cold = run_goal_sweep(runner="cold", **kwargs)
    assert fork.runner == "fork" and cold.runner == "cold"
    assert len(fork.points) == 3
    for f, c in zip(fork.points, cold.points):
        assert f.goal_ms == c.goal_ms
        assert f.seed == c.seed
        assert f.observed_rt == c.observed_rt
        assert f.dedicated_bytes == c.dedicated_bytes
        assert f.satisfied == c.satisfied


@requires_fork
def test_figure2_goal_sweep_jobs2_matches_jobs1(fast_config):
    from repro.experiments.figure2 import run_goal_sweep

    kwargs = dict(
        points=4, seed=5, intervals=3, config=fast_config,
        goal_range=GOAL_RANGE, warmup_ms=6_000.0, runner="fork",
    )
    serial = run_goal_sweep(jobs=1, **kwargs)
    parallel = run_goal_sweep(jobs=2, **kwargs)
    for a, b in zip(serial.points, parallel.points):
        assert a.goal_ms == b.goal_ms
        assert a.observed_rt == b.observed_rt
        assert a.dedicated_bytes == b.dedicated_bytes


@requires_fork
def test_figure2_goal_sweep_replicates_fork_per_seed(fast_config):
    from repro.experiments.figure2 import run_goal_sweep

    kwargs = dict(
        points=2, seed=5, replicates=2, intervals=3,
        config=fast_config, goal_range=GOAL_RANGE, warmup_ms=6_000.0,
    )
    fork = run_goal_sweep(runner="fork", **kwargs)
    cold = run_goal_sweep(runner="cold", **kwargs)
    assert [p.seed for p in fork.points] == [5, 5, 6, 6]
    for f, c in zip(fork.points, cold.points):
        assert (f.seed, f.goal_ms, f.observed_rt) == (
            c.seed, c.goal_ms, c.observed_rt
        )


@requires_fork
def test_multiclass_goal_sweep_fork_matches_cold(fast_config):
    from repro.experiments.multiclass import run_goal_sweep

    kwargs = dict(
        goal_pairs=((3.0, 8.0), (4.0, 10.0)), config=fast_config,
        intervals=3, tail=2, warmup_ms=6_000.0,
    )
    fork = run_goal_sweep(runner="fork", **kwargs)
    cold = run_goal_sweep(runner="cold", **kwargs)
    assert fork.runner == "fork"
    assert [p.to_row() for p in fork.points] == [
        p.to_row() for p in cold.points
    ]


@requires_fork
def test_resilience_goal_sweep_fork_matches_cold(fast_config):
    from repro.experiments.resilience import run_goal_sweep

    kwargs = dict(
        goals=(4.0, 7.0), seed=0, intervals=10, config=fast_config,
        replications=2, warmup_ms=6_000.0,
    )
    fork = run_goal_sweep(runner="fork", **kwargs)
    cold = run_goal_sweep(runner="cold", **kwargs)
    assert fork.runner == "fork"
    assert fork.fault_spec == cold.fault_spec
    for df, dc in zip(fork.results, cold.results):
        assert df.goal_ms == dc.goal_ms
        assert df.replicates == dc.replicates


def test_auto_falls_back_cold_without_fork(fast_config, monkeypatch):
    from repro.experiments.figure2 import run_goal_sweep

    monkeypatch.setattr(forkserver, "supports_fork", lambda: False)
    sweep = run_goal_sweep(
        points=2, seed=5, intervals=2, config=fast_config,
        goal_range=GOAL_RANGE, warmup_ms=4_000.0, runner="auto",
    )
    assert sweep.runner == "cold"
    assert len(sweep.points) == 2


# -- error propagation across the pipe --------------------------------


def _goal_group(fast_config, measure):
    return WarmGroup(
        build=lambda: _build_sim(fast_config),
        deltas=[WarmDelta.for_goals({1: g}) for g in (4.0, 5.0)],
        measure=measure,
        labels=["a", "b"],
    )


@requires_fork
def test_child_failure_reraises_in_parent(fast_config):
    def explode(sim):
        raise KeyError("boom in the child")

    with pytest.raises(RuntimeError, match="boom in the child"):
        run_sweep([_goal_group(fast_config, explode)], runner="fork")


@requires_fork
def test_child_invariance_violation_reraises_typed(
    fast_config, monkeypatch
):
    _patch_set_goal(monkeypatch, _draw_rng)
    with pytest.raises(WarmupInvarianceError):
        run_sweep(
            [_goal_group(fast_config, lambda sim: None)], runner="fork"
        )


def test_run_sweep_requires_one_label_per_delta(fast_config):
    group = _goal_group(fast_config, lambda sim: None)
    group.labels = ["only-one"]
    with pytest.raises(ValueError):
        run_sweep([group])


# -- sweeps that can never fork refuse loudly -------------------------


def test_sharing_sweep_fork_runner_raises(fast_config):
    from repro.experiments.multiclass import run_sharing_sweep

    with pytest.raises(ForkUnavailableError):
        run_sharing_sweep(
            sharings=(0.0, 0.5), runner="fork", config=fast_config,
            intervals=2, tail=1, warmup_ms=2_000.0,
        )


def test_convergence_fork_runner_raises(fast_config):
    from repro.experiments.convergence import (
        ConvergenceSettings,
        convergence_experiment,
    )

    with pytest.raises(ForkUnavailableError):
        convergence_experiment(
            settings=ConvergenceSettings(config=fast_config),
            goal_range=GOAL_RANGE,
            runner="fork",
        )


# -- the shared warm-up constants -------------------------------------


def test_warmup_constants_pin_historical_values():
    assert DEFAULT_WARMUP_MS == 20_000.0
    assert CALIBRATION_WARMUP_MS == 60_000.0
    assert RESILIENCE_WARMUP_MS == 10_000.0


def test_calibration_defaults_use_shared_constant():
    import inspect

    from repro.experiments.calibration import measure_static_rt

    for fn in (measure_static_rt, calibrate_goal_range):
        default = inspect.signature(fn).parameters["warmup_ms"].default
        assert default == CALIBRATION_WARMUP_MS


def test_calibrate_goal_range_respects_passed_warmup(
    fast_config, monkeypatch
):
    # Regression: the anchors must inherit the caller's warmup_ms, not
    # a hard-coded literal.
    seen = []

    def fake_measure(workload, class_id, fraction, config, seed,
                     policy, warmup_ms, measure_ms):
        seen.append(warmup_ms)
        return 3.0 if fraction > 0.5 else 9.0

    from repro.experiments import calibration

    monkeypatch.setattr(calibration, "measure_static_rt", fake_measure)
    workload = default_workload(fast_config)
    result = calibrate_goal_range(
        workload, class_id=1, config=fast_config, warmup_ms=1_234.0
    )
    assert seen == [1_234.0, 1_234.0]
    assert (result.goal_min_ms, result.goal_max_ms) == (3.0, 9.0)
