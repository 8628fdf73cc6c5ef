"""The benchmark's workloads: fixed inputs built from a seed.

Each workload builds one ready-to-run :class:`repro.api.Simulation`
from its seed and nothing else.  The seed reaches input generation
only: the fleet and its traces (``build_fleet``), the request stream
(the event backend's ``seed=``) and the scenario compile.  Builders go
through module attributes (``common.build_fleet``, ``api.Simulation``)
so the traced run's wrappers see every setup call.

``BENCHMARK.json`` gates two of them, ``paper-hourly`` and
``chaos-maintenance``, which between them reach every layer: the time
allowed for all gated runs fits two workloads at the run length a
shared host's noise needs.  ``paper-event`` (the IP-collision wake
storm) and ``relocate-week`` (the swap search alone) run on request,
by name or with ``all``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import api
from repro.experiments import common
from repro.sim.hourly import HourlyConfig

#: Seed used when none is given.
DEFAULT_SEED = 7
#: Seed no tuning used: a later speed-up claim must also hold on it.
HELD_OUT_SEED = 1009


@dataclass(frozen=True)
class Workload:
    """One named input.  ``build(seed, hours)`` returns a simulation
    that has not run yet; ``hours`` overrides the horizon (the warm-up
    run uses a short one)."""

    name: str
    why: str
    hours: int
    backend: str
    build: Callable[[int, int], "api.Simulation"]


def _paper_fleet(seed: int, hours: int):
    # The acceptance fleet: four 8 GB VMs fill each 32 GB host.
    return common.build_fleet(256, 1024, 0.5, hours, seed=seed)


def _paper_hourly(seed: int, hours: int):
    return api.Simulation(_paper_fleet(seed, hours), "drowsy", "hourly")


def _paper_event(seed: int, hours: int):
    return api.Simulation(_paper_fleet(seed, hours), "drowsy", "event",
                          seed=seed)


def _relocate_week(seed: int, hours: int):
    # One drowsy cell of the E8 fleet sweep (experiments.fleet_sweep).
    dc = common.build_fleet(10, 40, 0.5, hours, seed=seed)
    return api.Simulation(
        dc, "drowsy", "hourly",
        config=HourlyConfig(suspend_enabled=True, relocate_all_mode=True,
                            power_off_empty=True, update_models=True))


def _chaos_maintenance(seed: int, hours: int):
    return api.Simulation.from_scenario(
        "maintenance-with-crashes", seed=seed, backend="event", hours=hours)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("paper-hourly",
             "acceptance fleet (1024 VMs) on the hourly engine for a week: "
             "model observe, detection and host accounting, no migrations",
             168, "hourly", _paper_hourly),
    Workload("paper-event",
             "acceptance fleet on the event engine for 12 h: request "
             "dispatch, event loop, suspend sweeps and the IP-collision "
             "wake storm",
             12, "event", _paper_event),
    Workload("relocate-week",
             "E8 drowsy cell (40 VMs, relocate-all mode) for a week: the "
             "only workload where the relocation swap search dominates",
             168, "hourly", _relocate_week),
    Workload("chaos-maintenance",
             "maintenance-with-crashes scenario on the event engine for a "
             "week: drains, crashes, failed resumes, churn and heartbeats",
             168, "event", _chaos_maintenance),
)}
