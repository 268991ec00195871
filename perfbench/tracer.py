"""Per-layer span tracer that measures the simulator from outside.

The tracer wraps the entry points of each layer of ``repro`` (see
:data:`BOUNDARIES`) with timing shims.  It never edits the program: it
replaces class and module attributes at install time and restores them
at uninstall.  Install it *before* the simulation is built, because hot
paths bind methods at construction (``_FetchChain`` binds the buffer
manager's ``probe``/``admit`` and the directory's lookups, ``Cluster``
binds ``PageDirectory.is_last_copy`` into every buffer manager).

Every timed call pushes a frame on one stack.  When it ends, its
duration is added to its name's total, its *self* time (duration minus
the time its child frames covered) to its name's self total, and its
duration to its parent's child time.  A layer's self time is the sum of
the self times of its names (the part before the first dot).

Generator entry points (``access_run``, ``node_dispatcher``, the txn
``read``/``write``/``commit``...) are timed per resume: a wrapper
generator delegates to the original exactly as ``yield from`` does,
passing ``throw`` and ``close`` through, so fault interrupts behave as
before.

Calls at high-rate boundaries are only aggregated.  Names in
:data:`RECORDED` (low-rate: kernel runs, controller decisions, LP
solves, fault injections) are also kept as individual spans -- name,
start, end and parent span -- and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: (module, owner attribute or None for a module function, attribute,
#: span name, kind).  ``kind`` is "call" for a plain callable and "gen"
#: for a generator function timed per resume.  Names starting with an
#: underscore are private boundaries of the program that had to be
#: wrapped because no public entry point covers the work.
BOUNDARIES = (
    # sim: the kernel loop.  Its self time is what no other layer covers.
    ("repro.sim.engine", "Environment", "run", "sim.run", "call"),
    # cluster: the access path and its kernel-called state machine.
    ("repro.cluster.cluster", "Cluster", "access_run", "cluster.access_run", "gen"),
    ("repro.cluster.cluster", "Cluster", "access_page", "cluster.access_page", "gen"),
    ("repro.cluster.cluster", "_FetchChain", "_resume", "cluster.chain_resume", "call"),
    # bufmgr
    ("repro.bufmgr.manager", "NodeBufferManager", "probe", "bufmgr.probe", "call"),
    ("repro.bufmgr.manager", "NodeBufferManager", "admit", "bufmgr.admit", "call"),
    ("repro.bufmgr.manager", "NodeBufferManager", "set_dedicated_bytes", "bufmgr.resize", "call"),
    # directory
    ("repro.cluster.directory", "PageDirectory", "register", "directory.register", "call"),
    ("repro.cluster.directory", "PageDirectory", "unregister", "directory.unregister", "call"),
    ("repro.cluster.directory", "PageDirectory", "unregister_many", "directory.unregister_many", "call"),
    ("repro.cluster.directory", "PageDirectory", "remote_holder", "directory.remote_holder", "call"),
    ("repro.cluster.directory", "PageDirectory", "is_last_copy", "directory.is_last_copy", "call"),
    ("repro.cluster.directory", "PageDirectory", "holders", "directory.holders", "call"),
    ("repro.cluster.directory", "PageDirectory", "cached_anywhere", "directory.cached_anywhere", "call"),
    # workload: the arrival front-end and the per-operation process.
    ("repro.workload.blockgen", None, "node_dispatcher", "workload.dispatcher", "gen"),
    ("repro.workload.blockgen", "ExponentialColumn", "refill", "workload.refill_gaps", "call"),
    ("repro.workload.blockgen", "ZipfColumn", "refill", "workload.refill_pages", "call"),
    ("repro.workload.generator", "WorkloadGenerator", "_operation", "workload.operation", "gen"),
    # core: the controller (paper Table 1 tasks) and its workload sink.
    ("repro.core.controller", "GoalOrientedController", "_loop", "core.loop", "gen"),
    ("repro.core.controller", "GoalOrientedController", "on_arrival", "core.on_arrival", "call"),
    ("repro.core.controller", "GoalOrientedController", "on_complete", "core.on_complete", "call"),
    ("repro.core.coordinator", "Coordinator", "evaluate", "core.evaluate", "call"),
    ("repro.core.measure", None, "select_independent", "core.gauss", "call"),
    ("repro.core.measure", None, "fit_hyperplane", "core.fit", "call"),
    ("repro.core.coordinator", None, "solve_partitioning", "core.lp", "call"),
    # telemetry
    ("repro.telemetry.pipeline", "Telemetry", "on_access", "telemetry.on_access", "call"),
    ("repro.telemetry.pipeline", "Telemetry", "on_evictions", "telemetry.on_evictions", "call"),
    ("repro.telemetry.pipeline", "Telemetry", "on_fault", "telemetry.on_fault", "call"),
    ("repro.telemetry.pipeline", "Telemetry", "emit", "telemetry.emit", "call"),
    ("repro.telemetry.pipeline", "Telemetry", "collect", "telemetry.collect", "call"),
    # txn
    ("repro.txn.manager", "TransactionManager", "begin", "txn.begin", "call"),
    ("repro.txn.manager", "TransactionManager", "read", "txn.read", "gen"),
    ("repro.txn.manager", "TransactionManager", "write", "txn.write", "gen"),
    ("repro.txn.manager", "TransactionManager", "commit", "txn.commit", "gen"),
    ("repro.txn.manager", "TransactionManager", "abort", "txn.abort", "gen"),
    # faults
    ("repro.faults.injector", "FaultInjector", "_run", "faults.run", "gen"),
    ("repro.faults.injector", "FaultInjector", "_inject", "faults.inject", "call"),
    ("repro.faults.injector", "FaultLayer", "down_delay", "faults.down_delay", "call"),
    ("repro.cluster.cluster", "Cluster", "restart_node", "faults.restart_node", "call"),
    ("repro.cluster.cluster", "Cluster", "reconcile_directory", "faults.reconcile", "call"),
)

#: Span names whose call results are also tallied (``tallies[name]``):
#: probe hits, and pages an admit evicted.
TALLIES = {
    "bufmgr.probe": lambda result: 1 if result[0] else 0,
    "bufmgr.admit": len,
}

#: Names also kept as individual spans (all low-rate).
RECORDED = frozenset({
    "sim.run", "core.loop", "core.evaluate", "core.gauss", "core.fit",
    "core.lp", "faults.inject", "faults.restart_node", "faults.reconcile",
})


def private_boundaries() -> List[str]:
    """``module.Owner.attr`` of every private program boundary wrapped."""
    return [
        f"{module}.{owner + '.' if owner else ''}{attr}"
        for module, owner, attr, _, _ in BOUNDARIES
        if attr.startswith("_") or (owner or "").startswith("_")
    ]


def layer_of(name: str) -> str:
    """The layer a span name belongs to (the part before the dot)."""
    return name.split(".", 1)[0]


class Tracer:
    """Span stack plus per-name aggregates.

    ``stats[name]`` is ``[calls, total_s, self_s]``.  ``durations[name]``
    keeps every duration of a recorded name.  ``spans`` holds recorded
    spans as ``(name, start, end, parent)``, where ``parent`` is the
    index of the nearest enclosing recorded span, or -1.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.stack: List[list] = []
        self.stats: Dict[str, list] = {}
        self.durations: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.tallies: Dict[str, int] = {}
        self._installed: List[tuple] = []

    # -- timing primitives ------------------------------------------------

    def stat(self, name: str) -> list:
        """The mutable ``[calls, total_s, self_s]`` record of ``name``."""
        record = self.stats.get(name)
        if record is None:
            record = self.stats[name] = [0, 0.0, 0.0]
        return record

    def timed(self, name: str, fn: Callable) -> Callable:
        """Wrap a plain callable so each call is one span of ``name``;
        kept individually if ``name`` is in :data:`RECORDED`, its result
        tallied if ``name`` is in :data:`TALLIES`."""
        record = self.stat(name)
        stack = self.stack
        clock = self.clock
        spans = self.spans if name in RECORDED else None
        durations = self.durations.setdefault(name, [])
        tally = TALLIES.get(name)
        tallies = self.tallies
        if tally is not None:
            tallies.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, None]
            if spans is not None:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - frame[0]
                stack.pop()
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if spans is not None:
                    spans[frame[2]] = (
                        name, frame[0], end, self._parent_span()
                    )
                    durations.append(duration)
            if tally is not None:
                tallies[name] += tally(result)
            return result

        return wrapper

    def _parent_span(self) -> int:
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return -1

    def timed_generator(self, name: str, genfunc: Callable) -> Callable:
        """Wrap a generator function; every resume is one span.

        ``calls`` counts resumes; ``invocations`` (``stats[name + '#']``)
        counts generators created.
        """
        created = self.stat(name + "#")
        step = self.timed(name, _resume)

        @functools.wraps(genfunc)
        def wrapper(*args, **kwargs):
            created[0] += 1
            return _delegate(genfunc(*args, **kwargs), step)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self, boundaries=BOUNDARIES) -> None:
        """Replace every boundary attribute with its timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, name, kind in boundaries:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name
            )
            original = owner.__dict__[attr] if owner_name else getattr(
                module, attr
            )
            if kind == "gen":
                wrapped = self.timed_generator(name, original)
            else:
                wrapped = self.timed(name, original)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every aggregate and drop recorded spans (between calls)."""
        if self.stack:
            raise RuntimeError("cannot reset inside an open span")
        for record in self.stats.values():
            record[0] = 0
            record[1] = 0.0
            record[2] = 0.0
        for values in self.durations.values():
            del values[:]
        for name in self.tallies:
            self.tallies[name] = 0
        del self.spans[:]

    def calls(self, name: str) -> int:
        """Calls (resumes, for generators) of ``name`` so far."""
        record = self.stats.get(name)
        return record[0] if record else 0

    def created(self, name: str) -> int:
        """Generators created by the generator boundary ``name``."""
        return self.calls(name + "#")

    def self_time(self, name: str) -> float:
        """Self seconds of one span name."""
        record = self.stats.get(name)
        return record[2] if record else 0.0

    def total_time(self, name: str) -> float:
        """Inclusive seconds of one span name."""
        record = self.stats.get(name)
        return record[1] if record else 0.0

    def layer_self(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        out: Dict[str, float] = {}
        for name, record in self.stats.items():
            if name.endswith("#"):
                continue
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + record[2]
        return out

    def write_spans(self, path: str, origin: Optional[float] = None) -> int:
        """Write recorded spans as JSON lines; returns the span count.

        Times are seconds relative to ``origin`` (default: the first
        span's start).
        """
        spans = [s for s in self.spans if s is not None]
        if origin is None:
            origin = min((s[1] for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(spans):
                out.write(json.dumps({
                    "id": index, "name": name,
                    "start_s": start - origin, "end_s": end - origin,
                    "parent": parent,
                }) + "\n")
        return len(spans)


def _resume(gen, value, error):
    """One resume of ``gen``: the body each generator span times."""
    if error is None:
        return gen.send(value)
    return gen.throw(error)


def _delegate(gen, step):
    """Generator equivalent of ``yield from gen`` that times each resume
    through ``step(gen, value, error)``."""
    value = None
    error = None
    while True:
        try:
            item = step(gen, value, error)
        except StopIteration as stop:
            return stop.value
        error = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into ``gen`` next resume
            error = exc
            value = None
