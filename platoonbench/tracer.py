"""Outside-in layer tracing for the platoonsim benchmark.

The tracer wraps each layer's public functions where the engine resolves
them: module functions that ``platoonsim.engine`` imports by name are
replaced on the engine module, class methods on their class, and the two
scenario loaders on ``platoonsim.scenario``. No file of the program changes.

Every wrapped call becomes a span (name, start, end, parent). Spans opened
inside ``Simulator.run`` have a tick span as their root; tick spans are cut
at the ``observer`` callback the engine calls after each tick. Spans stay in
memory until ``write_spans``. A span's self time is its duration minus the
durations of its direct children, which never overlap because the program
is single-threaded.

Counters that a layer's arguments or return values reveal (peer views built,
radar candidates, bus copies, ...) are taken inside the span, so their cost
lands in that layer's self time, not in the engine's. The wrappers' own
bookkeeping lands in the caller's self time, mostly ``engine.self_s``; the
traced run's extra wall time is reported as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import gzip
import os
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Optional

from platoonsim import cloud, comms, controllers, engine, management, scenario

TICK = "engine.tick"
RUN = "engine.Simulator.run"
# time spent in Simulator.run after the observer saw the last tick
RUN_TAIL = "engine.Simulator.run.tail"


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_views(counters: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counters["comms.v2v_payload.views"] += len(result)
    counters["comms.v2v_payload.zeroed"] += sum(1 for v in result.values() if v.zeroed)


def _count_radar(counters: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counters["comms.radar_sense.candidates"] += len(_arg(args, kwargs, 1, "states")) - 1
    counters["comms.radar_sense.invalid"] += not result.valid


def _count_copies(counters: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counters["comms.MessageBus.deliver.copies"] += sum(map(len, result.values()))


def _count_refused(counters: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counters["comms.MessageBus.send.refused"] += result is False


def _count_pairs(counters: dict, args: tuple, kwargs: dict, result: Any) -> None:
    n = len(_arg(args, kwargs, 0, "states"))
    counters["dynamics.detect_collisions.pairs"] += n * (n - 1) // 2


def _count_bytes(counters: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counters["engine.Trace.write_csv.bytes"] += os.path.getsize(
        _arg(args, kwargs, 1, "path"))


# (metric prefix, owner, attribute, counting hook, counted exception)
# Owner is the object the engine resolves the name on. A name the owner no
# longer has is skipped, and its call count then reads 0. A counted
# exception is passed on after adding one to ``<prefix>.stale``.
WRAPPED: tuple[tuple[str, Any, str, Optional[Callable], tuple], ...] = (
    ("scenario.load_scenario", scenario, "load_scenario", None, ()),
    ("scenario.scenario_from_dict", scenario, "scenario_from_dict", None, ()),
    ("engine.Simulator.__init__", engine.Simulator, "__init__", None, ()),
    ("cloud.Cloud.tick", cloud.Cloud, "tick", None, ()),
    ("cloud.IntruderScript.step", cloud.IntruderScript, "step", None, ()),
    ("comms.radar_sense", engine, "radar_sense", _count_radar, ()),
    ("comms.MessageBus.deliver", comms.MessageBus, "deliver", _count_copies, ()),
    ("comms.MessageBus.send", comms.MessageBus, "send", _count_refused, ()),
    ("comms.PeerViewStore.update", comms.PeerViewStore, "update", None, ()),
    ("comms.detect_peer_failure", engine, "detect_peer_failure", None, ()),
    ("comms.v2v_payload", engine, "v2v_payload", _count_views, ()),
    ("management.VehicleManager.tick", management.VehicleManager, "tick", None, ()),
    ("controllers.TtcMonitor.update", controllers.TtcMonitor, "update", None, ()),
    ("controllers.cc", engine, "cc", None, ()),
    ("controllers.acc", engine, "acc", None, ()),
    ("controllers.cacc", engine, "cacc", None, (controllers.StaleData,)),
    ("controllers.aeb", engine, "aeb", None, ()),
    ("controllers.cap_speed", engine, "cap_speed", None, ()),
    ("dynamics.step_longitudinal", engine, "step_longitudinal", None, ()),
    ("dynamics.step_lateral", engine, "step_lateral", None, ()),
    ("dynamics.detect_collisions", engine, "detect_collisions", _count_pairs, ()),
    ("engine.Trace.write_csv", engine.Trace, "write_csv", _count_bytes, ()),
    ("engine.RunReport.to_text", engine.RunReport, "to_text", None, ()),
    ("engine.RunReport.write_events", engine.RunReport, "write_events", None, ()),
)

COUNTERS = (
    "comms.v2v_payload.views",
    "comms.v2v_payload.zeroed",
    "comms.radar_sense.candidates",
    "comms.radar_sense.invalid",
    "comms.MessageBus.deliver.copies",
    "comms.MessageBus.send.refused",
    "dynamics.detect_collisions.pairs",
    "controllers.cacc.stale",
    "engine.Trace.write_csv.bytes",
)


OUTSIDE_LOOP = {"scenario.load_scenario", "scenario.scenario_from_dict",
                "engine.Simulator.__init__", "engine.Trace.write_csv",
                "engine.RunReport.to_text", "engine.RunReport.write_events"}
LOOP_NAMES = tuple(name for name, *_ in WRAPPED if name not in OUTSIDE_LOOP)


# The layers inside the tick loop; their self times plus engine.self_s make
# up engine.Simulator.run.total_s.
LAYERS = ("cloud", "comms", "management", "controllers", "dynamics")
# platoon_n80 never calls these, and a time that reads 0 on every run says
# nothing: their time shows in cloud.self_s and controllers.self_s only.
NO_OWN_SELF = {"cloud.IntruderScript.step", "controllers.aeb"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out: list[tuple[str, str]] = []
    for name, *_ in WRAPPED:
        out.append((f"{name}.calls", "count"))
        if name not in NO_OWN_SELF:
            out.append((f"{name}.self_s", "s"))
    out += [(c, "bytes" if c.endswith(".bytes") else "count") for c in COUNTERS]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [("engine.ticks", "count"), ("engine.self_s", "s"),
            ("engine.Simulator.run.total_s", "s"), ("engine.tick_ms_tail", "ms"),
            ("trace.spans", "count"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.tick = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._tick = -1
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tick.append(self._tick)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def observe(self, sim: Any, tick: int) -> None:
        """Engine observer: closes the span of ``tick``, opens the next one."""
        now = perf_counter_ns()
        self.end[self._stack.pop()] = now
        self._tick = tick + 1
        self._open(self._id(TICK))

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable],
              raises: tuple) -> Callable:
        nid = self._id(name)
        counters = self.counters
        raised = f"{name}.stale"
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, kwargs, result)
                return result
            except raises:
                counters[raised] += 1
                raise
            finally:
                close_span(idx)
        return traced

    def _wrap_run(self, fn: Callable) -> Callable:
        run_id, tick_id, tail_id = self._id(RUN), self._id(TICK), self._id(RUN_TAIL)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            run_idx = self._open(run_id)
            self._tick = 0
            self._open(tick_id)
            try:
                return fn(*args, **kwargs)
            finally:
                # the span the last observer call opened is no tick
                last = self._stack[-1]
                self.name_id[last] = tail_id
                self._close(last)
                self._close(run_idx)
                self._tick = -1
        return traced

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, owner, attr, hook, raises in WRAPPED:
            self._id(name)
            if not hasattr(owner, attr):
                continue
            orig = getattr(owner, attr)
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, hook, raises))
        self._restore.append((engine.Simulator, "run", engine.Simulator.run))
        engine.Simulator.run = self._wrap_run(engine.Simulator.run)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def self_ns(self) -> array:
        """Self time of every span, in recording order."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self, self_ns: Optional[array] = None) -> dict[str, float]:
        """Calls and self time per wrapped name, the counters, and the
        engine's own time. ``self_ns`` stands in for this tracer's per-span
        self times, e.g. the fastest of several passes with the same spans."""
        own = self.self_ns() if self_ns is None else self_ns
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        for nid, t in zip(self.name_id, own):
            calls[nid] += 1
            total[nid] += t
        by_name = {name: (calls[i], total[i]) for i, name in enumerate(self.names)}

        out: dict[str, float] = {}
        for name, *_ in WRAPPED:
            c, t = by_name[name]
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = t / 1e9
        out.update(self.counters)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(by_name[k][1] for k in LOOP_NAMES
                                         if k.startswith(layer + ".")) / 1e9
        engine_ns = sum(by_name.get(k, (0, 0))[1] for k in (RUN, TICK, RUN_TAIL))
        in_run_ns = engine_ns + sum(by_name[k][1] for k in LOOP_NAMES)
        out["engine.ticks"] = by_name.get(TICK, (0, 0))[0]
        out["engine.self_s"] = engine_ns / 1e9
        out["engine.Simulator.run.total_s"] = in_run_ns / 1e9
        out["trace.spans"] = len(own)
        # Simulator.run time that neither the engine nor a loop layer covers
        run_id = self._ids.get(RUN)
        out["trace.unaccounted_ns"] = sum(
            e - s for nid, s, e in zip(self.name_id, self.start, self.end)
            if nid == run_id) - in_run_ns
        return out

    def write_spans(self, path: Path) -> None:
        """One CSV line per span: name, tick, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,tick,start_ns,end_ns,parent\n")
            names = self.names
            for i in range(len(self.name_id)):
                fh.write(f"{names[self.name_id[i]]},{self.tick[i]},"
                         f"{self.start[i]},{self.end[i]},{self.parent[i]}\n")
