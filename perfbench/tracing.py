"""Layer tracing from outside the program.

:func:`traced` wraps the public functions of each layer (table
:data:`LAYER_CALLS`) for the duration of one traced repetition and
restores them afterwards, so nothing under ``src/`` changes.  Every
wrapped call is a span: name, start, end, the span that caused it and
the simulated hour it ran in.  Self time (a span's duration minus the
part its child spans cover) and call counts are accumulated as the
spans close; spans are kept in memory and written once, at the end, as
Chrome trace-event JSON (the format ``repro.obs`` writes).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: (span name, module, class or None for a module function, attribute).
LAYER_CALLS: tuple[tuple[str, str, str | None, str], ...] = (
    ("setup.build_fleet", "repro.experiments.common", None, "build_fleet"),
    ("setup.compile", "repro.scenarios.compiler", "ScenarioCompiler",
     "compile"),
    ("setup.simulation_init", "repro.api.simulation", "Simulation",
     "__init__"),
    ("core.load_hour", "repro.core.binding", "FleetBinding", "load_hour"),
    ("core.observe", "repro.core.binding", "FleetBinding", "observe"),
    ("core.bind", "repro.core.binding", "FleetBinding", "try_bind"),
    ("consolidation.step", "repro.consolidation.drowsy", "DrowsyController",
     "step"),
    ("consolidation.relocate_all", "repro.consolidation.drowsy",
     "DrowsyController", "relocate_all"),
    ("consolidation.observe_hour", "repro.consolidation.neat",
     "NeatController", "observe_hour"),
    ("cluster.check_invariants", "repro.cluster.datacenter", "DataCenter",
     "check_invariants"),
    ("cluster.sync_meters", "repro.cluster.datacenter", "DataCenter",
     "sync_meters"),
    ("cluster.migrate", "repro.cluster.datacenter", "DataCenter", "migrate"),
    ("cluster.apply_assignment", "repro.cluster.datacenter", "DataCenter",
     "apply_assignment"),
    ("cluster.evacuate", "repro.cluster.datacenter", "DataCenter",
     "evacuate"),
    ("cluster.place", "repro.cluster.datacenter", "DataCenter", "place"),
    ("cluster.remove", "repro.cluster.datacenter", "DataCenter", "remove"),
    ("cluster.host_view", "repro.cluster.accounting", None,
     "columnar_host_view"),
    ("cluster.begin_suspend", "repro.cluster.host", "Host", "begin_suspend"),
    ("cluster.finish_suspend", "repro.cluster.host", "Host",
     "finish_suspend"),
    ("cluster.begin_resume", "repro.cluster.host", "Host", "begin_resume"),
    ("cluster.finish_resume", "repro.cluster.host", "Host", "finish_resume"),
    ("suspend.schedule", "repro.sim.suspend_sweep", "SuspendSweepScheduler",
     "schedule"),
    ("suspend.classify", "repro.suspend.columnar", None, "classify_hosts"),
    ("suspend.waking_date", "repro.suspend.timers", None,
     "compute_waking_date"),
    ("suspend.evaluate", "repro.suspend.module", "SuspendingModule",
     "evaluate"),
    ("network.submit", "repro.network.sdn", "SDNSwitch", "submit_request"),
    ("network.redispatch", "repro.network.sdn", "SDNSwitch",
     "redispatch_pending"),
    ("network.host_available", "repro.network.sdn", "SDNSwitch",
     "on_host_available"),
    ("network.wol_send", "repro.network.sdn", "ReliableWolChannel", "send"),
    ("network.arrivals", "repro.network.requests", "RequestProfile",
     "hourly_arrivals"),
    ("network.service_times", "repro.network.requests", "RequestProfile",
     "sample_service_times"),
    ("waking.register", "repro.waking.failover", "ReplicatedWakingService",
     "register_suspension"),
    ("waking.awake", "repro.waking.failover", "ReplicatedWakingService",
     "on_host_awake"),
    ("waking.analyze", "repro.waking.failover", "ReplicatedWakingService",
     "analyze_packet"),
    ("waking.vm_moved", "repro.waking.failover", "ReplicatedWakingService",
     "note_vm_moved"),
    ("events.loop", "repro.cluster.events", "EventSimulator", "run_until"),
    ("events.schedule_batch", "repro.cluster.events", "EventSimulator",
     "schedule_batch"),
    ("faults.on_hour", "repro.faults.injector", "FaultInjector", "on_hour"),
    ("scenarios.churn_on_hour", "repro.scenarios.compiler", "ChurnInjector",
     "on_hour"),
)

#: Spans the benchmark opens itself around setup and ``run()``.
SETUP_SPAN = "setup"
RUN_SPAN = "sim.run"

PLACEMENT_WRITES = ("cluster.migrate", "cluster.apply_assignment",
                    "cluster.evacuate", "cluster.place", "cluster.remove")
POWER_TRANSITIONS = ("cluster.begin_suspend", "cluster.finish_suspend",
                     "cluster.begin_resume", "cluster.finish_resume")
#: Consolidation entry points whose calls are classed as moving (the
#: placement changed during the call) or not.
CONSOLIDATION_CALLS = ("consolidation.step", "consolidation.relocate_all")

#: Spans shorter than this are counted but not written to the trace
#: file (a parent is never shorter than its child, so no kept span
#: loses its parent).
EXPORT_MIN_US = 50.0


class Tracer:
    """Span stack with running self-time and call-count totals."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.moving_calls = 0
        self.consolidation_calls = 0
        self.hour = 0
        self.spans: list[tuple] = []
        self.elided = 0
        self._next_id = 1
        # Frames: [name, start, child_time, span_id].
        self._stack: list[list] = []
        self._t0 = time.perf_counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def leave(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        if dur * 1e6 >= EXPORT_MIN_US:
            self.spans.append((name, start - self._t0, dur, span_id, parent,
                               self.hour))
        else:
            self.elided += 1

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def chrome_events(self, hour_marks: list[tuple[int, float, float]]) -> list:
        """Spans as Chrome trace-event dicts: calls on tid 0, one
        ``hour`` span per simulated hour on tid 1."""
        events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                   "args": {"name": "perfbench traced run"}},
                  {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
                   "args": {"name": "simulated hours"}}]
        for name, start, dur, span_id, parent, hour in self.spans:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": start * 1e6, "dur": dur * 1e6, "pid": 0, "tid": 0,
                "args": {"id": span_id, "parent": parent, "hour": hour}})
        for hour, start, end in hour_marks:
            events.append({
                "name": "hour", "cat": "hour", "ph": "X",
                "ts": (start - self._t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 0, "tid": 1, "args": {"hour": hour}})
        return events

    def write_chrome(self, path: Path, hour_marks) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"traceEvents": self.chrome_events(hour_marks),
               "displayTimeUnit": "ms",
               "otherData": {"elided_spans_under_us": EXPORT_MIN_US,
                             "elided_spans": self.elided}}
        path.write_text(json.dumps(doc))


def _wrap(fn, name: str, tracer: Tracer):
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapper


def _wrap_consolidation(fn, name: str, tracer: Tracer):
    """Like :func:`_wrap`, and also classes the call as moving when
    the controller's data center logged a migration during it."""
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def wrapper(controller, *args, **kwargs):
        before = len(controller.dc.migrations)
        enter(name)
        try:
            return fn(controller, *args, **kwargs)
        finally:
            leave()
            tracer.consolidation_calls += 1
            tracer.moving_calls += len(controller.dc.migrations) != before

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every :data:`LAYER_CALLS` entry, and
    remove them on exit.  Install before building the simulation:
    engines keep bound methods they looked up at construction."""
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module_name, cls_name, attr in LAYER_CALLS:
            module = importlib.import_module(module_name)
            if cls_name is None:
                orig = getattr(module, attr)
                wrapped = _wrap(orig, name, tracer)
                # Importers bound the name into their own namespace.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") \
                            and vars(mod).get(attr) is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
                continue
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, name, tracer))
            elif name in CONSOLIDATION_CALLS:
                wrapped = _wrap_consolidation(raw, name, tracer)
            else:
                wrapped = _wrap(raw, name, tracer)
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, result, telemetry_totals: dict,
                  hour_samples: dict, traced_run_s: float,
                  untraced_run_s: float, requests_per_s: float) -> dict:
    """The per-layer metrics of one traced repetition.

    ``telemetry_totals`` are the run's ``TelemetryConfig(metrics=True)``
    totals and ``hour_samples`` its per-hour series; both are
    simulated-state counters, equal with telemetry on or off.
    """
    s, c = tracer.self_s, tracer.calls

    def self_time(*names: str) -> float:
        return sum(s.get(n, 0.0) for n in names)

    def count(*names: str) -> int:
        return sum(c.get(n, 0) for n in names)

    summary = result.request_summary or {}
    requests = int(summary.get("requests", 0))
    wake_requests = int(summary.get("wake_requests", 0))
    checks = int(telemetry_totals.get("sweep_checks", 0))
    wol_sent = int(result.wol_sent or 0)
    run_wall = tracer.total_s.get(RUN_SPAN, 0.0)
    return {
        "setup.build_fleet_s": (self_time("setup.build_fleet"), "s"),
        "setup.compile_s": (self_time("setup.compile"), "s"),
        "setup.simulation_init_s": (self_time("setup.simulation_init"), "s"),
        "core.observe_s": (self_time("core.observe"), "s"),
        "core.load_hour_s": (self_time("core.load_hour"), "s"),
        "core.bind_s": (self_time("core.bind"), "s"),
        "core.bind_calls": (count("core.bind"), "count"),
        "consolidation.step_s": (self_time("consolidation.step"), "s"),
        "consolidation.observe_hour_s":
            (self_time("consolidation.observe_hour"), "s"),
        "consolidation.relocate_all_s":
            (self_time("consolidation.relocate_all"), "s"),
        "consolidation.migrations": (result.migrations, "count"),
        "consolidation.moving_call_share":
            (_ratio(tracer.moving_calls, tracer.consolidation_calls), "ratio"),
        "cluster.check_invariants_s":
            (self_time("cluster.check_invariants"), "s"),
        "cluster.check_invariants_calls":
            (count("cluster.check_invariants"), "count"),
        "cluster.sync_meters_s": (self_time("cluster.sync_meters"), "s"),
        "cluster.host_view_s": (self_time("cluster.host_view"), "s"),
        "cluster.placement_writes_s": (self_time(*PLACEMENT_WRITES), "s"),
        "cluster.placement_writes": (count(*PLACEMENT_WRITES), "count"),
        "cluster.power_transitions": (count(*POWER_TRANSITIONS), "count"),
        "suspend.schedule_s": (self_time("suspend.schedule"), "s"),
        "suspend.evaluate_s": (self_time("suspend.evaluate", "suspend.classify",
                                         "suspend.waking_date"), "s"),
        "suspend.checks": (checks, "count"),
        "suspend.sweeps": (int(telemetry_totals.get("sweeps_fired", 0)),
                           "count"),
        "suspend.useful_check_ratio":
            (_ratio(count("cluster.begin_suspend"), checks), "ratio"),
        "network.submit_s": (self_time("network.submit"), "s"),
        "network.requests": (requests, "count"),
        "network.requests_per_s": (requests_per_s, "1/s"),
        "network.generate_s":
            (self_time("network.arrivals", "network.service_times"), "s"),
        "network.wake_request_share": (_ratio(wake_requests, requests),
                                       "ratio"),
        "network.wol_send_s": (self_time("network.wol_send"), "s"),
        "network.wol_attempts": (int(telemetry_totals.get("wol_attempts", 0)),
                                 "count"),
        "network.wol_retries": (int(telemetry_totals.get("wol_retries", 0)),
                                "count"),
        "waking.analyze_s": (self_time("waking.analyze"), "s"),
        "waking.register_s": (self_time("waking.register"), "s"),
        "waking.wol_sent": (wol_sent, "count"),
        "waking.resumes": (sum((result.resume_cycles_by_host or {}).values()),
                           "count"),
        "waking.beats": (int(telemetry_totals.get("waking_beats", 0)),
                         "count"),
        "waking.wol_per_wake_request": (_ratio(wol_sent, wake_requests),
                                        "ratio"),
        "events.loop_self_s": (self_time("events.loop"), "s"),
        "events.processed": (int(result.events_processed or 0), "count"),
        "events.schedule_batch_s": (self_time("events.schedule_batch"), "s"),
        "events.max_heap_depth":
            (max(hour_samples.get("heap_depth", ()), default=0), "count"),
        "faults.on_hour_s": (self_time("faults.on_hour"), "s"),
        "scenarios.churn_on_hour_s":
            (self_time("scenarios.churn_on_hour"), "s"),
        "sim.engine_self_s": (self_time(RUN_SPAN), "s"),
        "trace.coverage": (1.0 - _ratio(self_time(RUN_SPAN), run_wall),
                           "ratio"),
        "trace.overhead_ratio": (_ratio(traced_run_s, untraced_run_s),
                                 "ratio"),
    }
