"""Counted waking-service heartbeats (DESIGN.md §14).

While the primary waking module is alive the mirror's heartbeats are
counted, not run: no beat event goes on the heap until the primary is
killed.  The failover cases below pin every observable — failovers,
the promotion instant, the wakes the promotion re-arms, ``beats``,
``events_processed`` and the per-hour telemetry series — to the values
recorded from a simulator that ran one event per beat and one per
suspend poll.
"""

from __future__ import annotations

import bisect

import pytest

from repro.api import Simulation
from repro.cluster.events import EventSimulator
from repro.core.params import DEFAULT_PARAMS
from repro.experiments.common import build_fleet
from repro.faults import FaultPlan
from repro.faults.spec import WakingServiceFaults
from repro.obs import TelemetryConfig
from repro.resilience import CheckpointPolicy, list_checkpoints
from repro.sim.event_driven import EventConfig
from repro.waking.failover import ReplicatedWakingService, count_beats

H = 12


def make_sim(faults=None, checkpoint=None, telemetry=True):
    dc = build_fleet(n_hosts=4, n_vms=12, llmi_fraction=0.5, hours=24,
                     seed=3)
    return Simulation(
        dc, "drowsy", "event", seed=5,
        config=EventConfig(relocate_all_mode=True, seed=5),
        faults=faults, checkpoint=checkpoint,
        telemetry=TelemetryConfig(metrics=True) if telemetry else None)


def watch_promotion(service) -> dict:
    """Record when the mirror is promoted and which wakes it re-arms."""
    seen: dict = {}
    promote = service._promote_mirror

    def spy():
        promote()
        seen["at"] = service.sim.now
        seen["restored"] = sorted((mac, ev.time) for mac, ev
                                  in service.mirror._scheduled.items())

    service._promote_mirror = spy
    return seen


def observables(sim, result) -> dict:
    service = sim.engine.waking
    out = dict(failovers=service.failovers, beats=service.beats,
               events=result.events_processed)
    assert sim.engine.sim.events_processed == result.events_processed
    telemetry = result.telemetry
    if telemetry is not None:
        out["beats_series"] = telemetry.series["waking_beats"]
        out["events_series"] = telemetry.series["events_processed"]
        assert telemetry.totals["waking_beats"] == service.beats
        assert telemetry.totals["events_processed"] == result.events_processed
    return out


class TestFailoverEquivalence:
    def test_injector_kill_on_grid_hour(self):
        """A kill on a grid instant that runs inside an event misses the
        beat at that instant: promotion two periods later."""
        sim = make_sim(faults=FaultPlan(
            name="kill", waking=WakingServiceFaults(kill_primary_at_h=12.0)))
        seen = watch_promotion(sim.engine.waking)
        got = observables(sim, sim.run(24))
        assert seen == {"at": 43202.0, "restored": []}
        assert got == dict(
            failovers=1, beats=43202, events=94485,
            beats_series=(0, 3599, 7199, 10799, 14399, 17999, 21599, 25199,
                          28799, 32399, 35999, 39599, 43199, 43202, 43202,
                          43202, 43202, 43202, 43202, 43202, 43202, 43202,
                          43202, 43202),
            events_series=(1, 6599, 13220, 18419, 23608, 28829, 34078, 39335,
                           45362, 50665, 57434, 64221, 71075, 74259, 76032,
                           77813, 79588, 81379, 83078, 84815, 87230, 89653,
                           91300, 92897))

    def test_off_grid_kill_rearms_window_wake(self):
        sim = make_sim()
        service = sim.engine.waking
        seen = watch_promotion(service)
        sim.engine.sim.schedule_at(1000.5, service.fail_primary)
        # Journaled on the mirror inside the detection window.
        sim.engine.sim.schedule_at(1001.0, service.register_suspension,
                                   sim.dc.hosts[0], 5000.0)
        got = observables(sim, sim.run(H))
        assert seen == {"at": 1003.0,
                        "restored": [("52:54:00:c1:d3:e8", 4999.0)]}
        assert got == dict(
            failovers=1, beats=1003, events=28882,
            beats_series=(0,) + (1003,) * 11,
            events_series=(1, 4005, 7027, 8626, 10215, 11836, 13485, 15142,
                           17569, 19272, 22441, 25628))

    def test_kill_between_runs_at_hour_boundary(self):
        """The beat at the boundary ran before the first run returned,
        so the first miss is one period later."""
        sim = make_sim()
        service = sim.engine.waking
        seen = watch_promotion(service)
        first = observables(sim, sim.run(6))
        assert first == dict(
            failovers=0, beats=21600, events=34080,
            beats_series=(0, 3599, 7199, 10799, 14399, 17999),
            events_series=(1, 6599, 13220, 18419, 23608, 28829))
        service.fail_primary()
        got = observables(sim, sim.run(6, start_hour=6))
        assert seen == {"at": 21603.0, "restored": []}
        assert got == dict(
            failovers=1, beats=21603, events=49481,
            beats_series=(0, 3599, 7199, 10799, 14399, 17999, 21600, 21603,
                          21603, 21603, 21603, 21603),
            events_series=(1, 6599, 13220, 18419, 23608, 28829, 34081, 35741,
                           38168, 39871, 43040, 46227))

    def test_mirror_killed_inside_window(self):
        sim = make_sim()
        service = sim.engine.waking
        seen = watch_promotion(service)
        sim.engine.sim.schedule_at(1000.5, service.fail_primary)
        sim.engine.sim.schedule_at(1001.7, service.mirror.fail)
        got = observables(sim, sim.run(H))
        assert seen == {}
        assert got == dict(
            failovers=0, beats=1003, events=28881,
            beats_series=(0,) + (1003,) * 11,
            events_series=(1, 4005, 7026, 8625, 10214, 11835, 13484, 15141,
                           17568, 19271, 22440, 25627))

    def test_checkpoint_inside_window_resumes(self, tmp_path):
        sim = make_sim(checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                   every_h=7),
                       telemetry=False)
        service = sim.engine.waking
        at = sim.engine.sim.schedule_at
        at(6 * 3600.0 - 1.5, service.fail_primary)
        at(6 * 3600.0 - 0.5, service.register_suspension,
           sim.dc.hosts[1], 30000.0)
        at(6 * 3600.0 + 0.5, service.register_suspension,
           sim.dc.hosts[2], 32000.0)
        base = sim.run(H)
        assert observables(sim, base) == dict(failovers=1, beats=21601,
                                              events=49489)
        (info,) = list_checkpoints(tmp_path)
        assert info.meta["hour"] == 6
        resumed = Simulation.resume(info.path)
        service = resumed.engine.waking
        # One beat missed so far (21599); the one at 21600 runs after
        # the hour tick that wrote the checkpoint.
        assert resumed.engine.sim.now == 21600.0
        assert (service.beats, service.failovers) == (21599, 0)
        seen = watch_promotion(service)
        result = resumed.run()
        assert result == base
        assert seen == {"at": 21601.0,
                        "restored": [("52:54:00:8d:e4:8d", 29999.0),
                                     ("52:54:00:a6:8e:10", 31999.0)]}
        assert observables(resumed, result) == dict(
            failovers=1, beats=21601, events=49489)


class TestCountedBeats:
    def test_no_heartbeat_event_without_a_kill(self):
        sim = make_sim(telemetry=False)
        engine = sim.engine
        service = engine.waking
        seen = []

        def no_beat_queued(t, now):
            seen.append(t)
            assert not any(ev.callback == service._heartbeat
                           for _, _, ev in engine.sim._heap)

        engine.hour_hooks += (no_beat_queued,)
        result = sim.run(4)
        assert seen == [0, 1, 2, 3]
        no_beat_queued(None, None)
        assert service.beats == 4 * 3600
        assert result.events_processed > service.beats

    def test_bare_service_queues_nothing(self):
        sim = EventSimulator()
        service = ReplicatedWakingService(sim, lambda p, t: None)
        assert sim.pending == 0
        sim.run()  # terminates: no self-rescheduling chain
        sim.run_until(60.0)
        service.settle()
        assert service.beats == sim.events_processed == 60

    @pytest.mark.parametrize("period,killed_at,promoted_at,beats", [
        (1.0, 5.0, 8.0, 8),
        (1.0, 5.5, 8.0, 8),
        (0.3, 0.9, 1.8, 6),
        (0.3, 3.0, 3.899999999999999, 13),
    ])
    def test_kill_between_run_until_calls(self, period, killed_at,
                                          promoted_at, beats):
        """A kill after ``run_until`` returns comes after the beat at
        that instant, which already ran (pinned like the cases above)."""
        sim = EventSimulator()
        service = ReplicatedWakingService(
            sim, lambda p, t: None,
            DEFAULT_PARAMS.replace(heartbeat_period_s=period))
        sim.run_until(killed_at)
        service.fail_primary()
        seen = watch_promotion(service)
        sim.run_until(killed_at + 10.0)
        assert seen["at"] == promoted_at
        assert service.beats == sim.events_processed == beats


def chain(start: float, period: float, end: float) -> list[float]:
    """The beat instants of a chain where each beat schedules the next."""
    out = []
    t = start
    while t <= end:
        out.append(t)
        t += period
    return out


@pytest.mark.parametrize("period", [1.0, 0.3, 0.1, 0.7, 1.0 / 3.0, 2.5])
@pytest.mark.parametrize("start_at", [0.0, 0.25, 12.345, 1000.5])
def test_count_beats_matches_repeated_addition(period, start_at):
    """The arithmetic count equals the one-addition-per-beat chain, for
    dyadic and non-dyadic periods, at and between grid instants."""
    first = start_at + period
    grid = chain(first, period, start_at + 6000.0)
    last = bisect.bisect_left(grid, start_at + 5000.0)
    untils = [start_at, first, grid[7], grid[100], grid[last],
              (grid[500] + grid[501]) / 2, start_at + 3600.0,
              start_at + 4999.99]
    for until in untils:
        for inclusive in (False, True):
            n = (bisect.bisect_right(grid, until) if inclusive
                 else bisect.bisect_left(grid, until))
            assert count_beats(first, period, until, inclusive) == (
                n, grid[n]), (until, inclusive)
    # Settling in many small steps lands on the same grid.
    t, total = first, 0
    for until in (17.0, 17.0, 333.3, 1234.5, 4999.0):
        n, t = count_beats(t, period, start_at + until, True)
        total += n
    assert (total, t) == count_beats(first, period, start_at + 4999.0, True)
