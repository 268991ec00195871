"""Warm-state fork server: amortize simulation warm-up across sweep points.

Every sweep in this repository pays a simulated warm-up per point per
replicate before the controller's feedback loop is even exercised —
for short-horizon sweeps the dominant share of wall-clock.  The warm-up
trajectory is, by construction, independent of the response time
goals: the controller only *observes* during warm-up (its agents
record arrivals and completions), and the goals influence neither the
workload generator, the cluster, nor any RNG stream before the
controller is activated.  Sweep points that differ only in their goals
can therefore share one warmed simulation.

A warmed :class:`~repro.experiments.runner.Simulation` is not
picklable — it holds live generator coroutines, the event heap, heat
trackers, the page directory, and primed RNG streams — so the sharing
mechanism is ``os.fork()``: the parent process builds and warms the
simulation **once**, then forks one child per sweep point.  Each child
continues from the copy-on-write memory image (exact, so results are
bit-identical to a cold per-point run), applies its point-specific
:class:`WarmDelta`, runs the measured horizon, and streams its pickled
result back over a pipe.  ``jobs`` children run concurrently.

Every experiment sweep runs through one driver, :func:`run_sweep`.
Callers describe their points as :class:`WarmGroup` objects (a build
callable, one :class:`WarmDelta` and one telemetry label per point,
and a measure callable); the driver plans fork or cold, runs the
points, and merges the per-point telemetry directories.

:func:`apply_delta` guards every point at runtime: it fingerprints the
simulation (clock, event-heap occupancy, scheduling sequence, every
RNG-stream state) before and after the delta and raises
:class:`WarmupInvarianceError` on any perturbation.

On platforms without ``os.fork`` (or when the plan decides the points
do not share warm state) the same sweeps fall back to the cold
per-point path, run by :func:`repro.experiments.parallel.run_tasks` —
gracefully, never as a failure.
"""

from __future__ import annotations

import os
import pickle
import selectors
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.parallel import resolve_jobs, run_tasks
from repro.experiments.runner import Simulation

#: Chunk size for draining child result pipes.
_PIPE_CHUNK = 1 << 16


class WarmupInvarianceError(RuntimeError):
    """A sweep-point delta touched state that feeds the warm-up."""


class ForkUnavailableError(RuntimeError):
    """``runner='fork'`` was demanded but the fork path cannot run."""


def supports_fork() -> bool:
    """Can this platform run the fork path at all?"""
    return hasattr(os, "fork") and hasattr(os, "pipe")


@dataclass(frozen=True)
class WarmDelta:
    """A warm-up-invariant description of one sweep point.

    ``goals`` maps goal class ids to new response time goals (applied
    via ``controller.set_goal``, which is state-equivalent to having
    constructed the simulation with that goal because coordinators are
    untouched during warm-up).  The empty delta leaves the built
    simulation as it is.
    """

    goals: Tuple[Tuple[int, float], ...] = ()

    @staticmethod
    def for_goals(goals: Mapping[int, float]) -> "WarmDelta":
        """Delta that re-targets the given goal classes."""
        return WarmDelta(goals=tuple(sorted(goals.items())))


@dataclass
class WarmGroup:
    """One warm-state group: points sharing a single warmed parent.

    ``build`` constructs the (un-warmed) :class:`Simulation` shared by
    all points of the group; ``deltas`` are the per-point adjustments
    and ``labels`` the per-point telemetry directory names; ``measure``
    runs the measured horizon on the (warmed, adjusted) simulation and
    returns a **picklable** result — it crosses a pipe on the fork
    path and a process boundary on parallel cold paths.  For
    ``jobs > 1`` ``build`` and ``measure`` must be picklable too
    (``functools.partial`` over module-level functions).
    """

    build: Callable[[], Simulation]
    deltas: Sequence[WarmDelta]
    measure: Callable[[Simulation], Any]
    labels: Sequence[str]


# -- the warm-up-invariance guard ------------------------------------


def warm_fingerprint(sim: Simulation) -> tuple:
    """Snapshot of everything a warm-up-invariant delta must not touch.

    Covers the simulation clock, the event-heap occupancy, the global
    scheduling sequence counter, and the exact state of every named RNG
    stream.  Any delta that advances time, schedules events, or draws
    randomness changes this fingerprint.
    """
    env = sim.env
    streams = sim.cluster.rng._streams
    return (
        env._now,
        env.pending_events,
        env._seq,
        tuple(sorted(
            (name, stream.getstate())
            for name, stream in streams.items()
        )),
    )


def apply_delta(sim: Simulation, delta: WarmDelta) -> None:
    """Apply a sweep-point delta to a warmed, not-yet-active simulation.

    Raises :class:`WarmupInvarianceError` when the simulation is in the
    wrong phase (warm-up must precede controller activation — a delta
    after activation could never have produced a cold-path-identical
    run) or when applying the delta perturbs the warm fingerprint.
    """
    if sim.active:
        raise WarmupInvarianceError(
            "sweep-point delta applied after controller activation; "
            "deltas must land between warm() and activate()"
        )
    if not sim.warmed:
        raise WarmupInvarianceError(
            "sweep-point delta applied before warm-up; warm() first so "
            "the guard can certify the delta against the warmed state"
        )
    before = warm_fingerprint(sim)
    for class_id, goal_ms in delta.goals:
        sim.controller.set_goal(class_id, goal_ms)
    if warm_fingerprint(sim) != before:
        raise WarmupInvarianceError(
            "sweep-point delta perturbed warm state (clock, event "
            "heap, or an RNG stream); it would not reproduce the "
            "cold-path run and cannot be forked"
        )


# -- planning ---------------------------------------------------------


def plan_sweep(runner: str, warm_keys: Sequence) -> str:
    """Resolve ``runner`` ('auto' | 'fork' | 'cold') to a concrete mode.

    ``warm_keys`` carries one hashable key per sweep point; points
    share a warmed parent exactly when their keys are equal.  The fork
    path is selected only when the platform supports ``os.fork`` and
    at least one key occurs more than once (otherwise there is no
    warm-up to amortize).  ``runner='fork'`` raises
    :class:`ForkUnavailableError` instead of silently degrading;
    ``'auto'`` falls back to ``'cold'``.
    """
    if runner not in ("auto", "fork", "cold"):
        raise ValueError(f"unknown runner {runner!r}")
    if runner == "cold":
        return "cold"
    reason = None
    if not supports_fork():
        reason = "platform has no os.fork"
    else:
        keys = list(warm_keys)
        if len(keys) == len(set(keys)):
            reason = (
                "no two sweep points share a warm key, so there is no "
                "warm-up to amortize (e.g. every replicate has its own "
                "seed)"
            )
    if reason is None:
        return "fork"
    if runner == "fork":
        raise ForkUnavailableError(f"fork runner unavailable: {reason}")
    return "cold"


# -- execution --------------------------------------------------------


def _run_point(
    sim: Simulation,
    delta: WarmDelta,
    measure: Callable[[Simulation], Any],
    outdir: Optional[str],
) -> Any:
    """Adjust a warmed simulation to one point and measure it.

    The same body runs in the fork child and on the cold path, so both
    arm telemetry at the same moment: right after the delta, before
    activation (``set_telemetry`` only records the export directory).
    """
    apply_delta(sim, delta)
    if outdir is not None:
        sim.set_telemetry(outdir)
    return measure(sim)


def _run_cold_point(task) -> Any:
    """The cold per-point path: fresh simulation, same delta contract.

    ``task`` is ``(build, delta, measure, outdir)`` (module-level and
    tuple-shaped so :func:`run_tasks` can ship it to a worker).
    """
    build, delta, measure, outdir = task
    sim = build()
    sim.warm()
    return _run_point(sim, delta, measure, outdir)


def _child_main(
    write_fd: int,
    sim: Simulation,
    delta: WarmDelta,
    measure: Callable[[Simulation], Any],
    outdir: Optional[str],
) -> None:
    """Body of a forked sweep-point child; never returns.

    The child continues from the parent's warmed memory image, runs
    its point, and pickles the result back.  Failures travel the same
    pipe as a (kind, traceback) payload so the parent can re-raise with
    full context.  ``os._exit`` skips atexit handlers and buffer
    flushes that belong to the parent.
    """
    try:
        try:
            payload = pickle.dumps(
                ("ok", _run_point(sim, delta, measure, outdir)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except WarmupInvarianceError as exc:
            payload = pickle.dumps(("invariance", str(exc)))
        except BaseException:
            payload = pickle.dumps(("error", traceback.format_exc()))
        written = 0
        while written < len(payload):
            written += os.write(write_fd, payload[written:])
        os.close(write_fd)
    finally:
        os._exit(0)


def _fork_group(
    sim: Simulation,
    deltas: Sequence[WarmDelta],
    measure: Callable[[Simulation], Any],
    outdirs: Sequence[Optional[str]],
    jobs: int,
) -> List[Any]:
    """Fork one child per delta off the warmed ``sim``, ``jobs`` at a time.

    Results are slotted by point index, never by completion order, so
    the returned list is independent of scheduling — the same contract
    as :func:`repro.experiments.parallel.run_tasks`.  Pipes are drained
    while children run (a child producing more than the pipe buffer
    would otherwise deadlock against a parent waiting on exit).
    """
    results: List[Any] = [None] * len(deltas)
    sel = selectors.DefaultSelector()
    pending: dict = {}  # read fd -> (index, pid, bytearray)

    def reap(fd: int) -> None:
        index, pid, buf = pending.pop(fd)
        sel.unregister(fd)
        os.close(fd)
        _, status = os.waitpid(pid, 0)
        if not buf:
            raise RuntimeError(
                f"forked sweep point {index} died without a result "
                f"(wait status {status})"
            )
        kind, value = pickle.loads(bytes(buf))
        if kind == "invariance":
            raise WarmupInvarianceError(value)
        if kind == "error":
            raise RuntimeError(
                f"forked sweep point {index} failed:\n{value}"
            )
        results[index] = value

    def drain_once() -> None:
        for key, _ in sel.select():
            fd = key.fd
            chunk = os.read(fd, _PIPE_CHUNK)
            if chunk:
                pending[fd][2].extend(chunk)
            else:
                reap(fd)

    try:
        for index, (delta, outdir) in enumerate(zip(deltas, outdirs)):
            while len(pending) >= jobs:
                drain_once()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                # Inherited read ends of sibling pipes are harmless for
                # the parent's EOF detection (that hangs off the write
                # ends), and os._exit drops them with the process.
                _child_main(write_fd, sim, delta, measure, outdir)
            os.close(write_fd)
            pending[read_fd] = (index, pid, bytearray())
            sel.register(read_fd, selectors.EVENT_READ)
        while pending:
            drain_once()
    finally:
        for fd, (_, pid, _) in list(pending.items()):
            sel.unregister(fd)
            os.close(fd)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        pending.clear()
        sel.close()
    return results


def run_sweep(
    groups: Sequence[WarmGroup],
    *,
    jobs: int = 1,
    runner: str = "auto",
    telemetry: Optional[str] = None,
) -> Tuple[str, List[List[Any]]]:
    """Run every point of every group; return ``(mode, per-group results)``.

    Groups of more than one point warm their parent simulation once
    and fork the points off it, up to ``jobs`` concurrently.  Singleton
    groups and ``runner='cold'`` build, warm and adjust a fresh
    simulation per point, farmed to ``jobs`` worker processes — the
    *same* delta contract, so the two paths are bit-identical.  Each
    group's results come back in point order.

    With ``telemetry`` (a directory path) point ``label`` exports to
    ``<telemetry>/<label>/``, and the point directories are merged in
    group-then-point order once every point has finished, so fork and
    cold runs produce identical artifact trees.
    """
    jobs = resolve_jobs(jobs)
    for group in groups:
        if len(group.labels) != len(group.deltas):
            raise ValueError("a warm group needs one label per delta")
    mode = plan_sweep(
        runner, [key for key, group in enumerate(groups)
                 for _ in group.deltas],
    )

    def outdir(label: str) -> Optional[str]:
        return None if telemetry is None else os.path.join(telemetry, label)

    results: List[List[Any]] = []
    cold_slots: List[Tuple[int, int]] = []
    cold_tasks: List[tuple] = []
    for index, group in enumerate(groups):
        outdirs = [outdir(label) for label in group.labels]
        if mode == "fork" and len(group.deltas) > 1:
            sim = group.build()
            sim.warm()
            results.append(
                _fork_group(sim, group.deltas, group.measure, outdirs, jobs)
            )
            continue
        results.append([None] * len(group.deltas))
        for slot, (delta, point_dir) in enumerate(zip(group.deltas, outdirs)):
            cold_slots.append((index, slot))
            cold_tasks.append((group.build, delta, group.measure, point_dir))
    for (index, slot), result in zip(
        cold_slots, run_tasks(_run_cold_point, cold_tasks, jobs=jobs)
    ):
        results[index][slot] = result
    if telemetry is not None:
        from repro.telemetry.exporters import merge_point_dirs

        merge_point_dirs(telemetry, [
            (label, outdir(label))
            for group in groups for label in group.labels
        ])
    return mode, results
