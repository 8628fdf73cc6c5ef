"""Batched event-driven hot path (DESIGN.md §10).

Parity contract: with ``use_batched_checks=True`` (the default) the
event simulator must produce *bit-identical* results to the per-host
suspend-check event path (``use_batched_checks=False``, the oracle) —
including under adversarial interleavings of suspends, resumes,
migrations, WoL injections and blocked-I/O toggles (the hypothesis
property test).  Plus unit coverage for the timer wheel, the O(1)
wake/request indexes, the columnar blocked-I/O mirror and the per-VM
request substreams.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.cluster import (
    DataCenter,
    Host,
    HostCapacity,
    PowerState,
    ResourceSpec,
    VM,
)
from repro.cluster.events import EventSimulator
from repro.consolidation.drowsy import DrowsyController
from repro.core.binding import FleetBinding
from repro.core.params import DEFAULT_PARAMS
from repro.experiments.common import build_fleet
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from repro.sim.suspend_sweep import SuspendSweepScheduler
from repro.suspend.columnar import (
    CODE_ACTIVE,
    CODE_BLOCKED_IO,
    CODE_CANDIDATE,
    CODE_EMPTY,
    classify_hosts,
    module_is_columnar,
)
from repro.obs import TelemetryConfig
from repro.suspend.module import SuspendDecision, SuspendingModule
from repro.traces.base import ActivityTrace
from repro.waking.failover import count_beats
from repro.waking.packets import WoLPacket

from dataclasses import fields as dataclass_fields

from repro.sim.event_driven import EventResult

#: Every EventResult field is a parity observable — derived, not
#: hardcoded, so fields added later are covered automatically.
RESULT_FIELDS = tuple(f.name for f in dataclass_fields(EventResult))


def assert_results_equal(a, b):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


def _build(n_hosts=3, n_vms=9, hours=24, seed=11, **config_kw):
    dc = build_fleet(n_hosts=n_hosts, n_vms=n_vms, llmi_fraction=0.5,
                     hours=hours, seed=seed)
    sim = EventDrivenSimulation(dc, DrowsyController(dc),
                                config=EventConfig(**config_kw))
    return sim, dc


# ----------------------------------------------------------------------
# parity: batched sweep vs per-host event oracle
# ----------------------------------------------------------------------

class TestSweepParity:
    def test_batched_matches_oracle(self):
        oracle, dc_o = _build(use_batched_checks=False)
        batched, dc_b = _build()
        r_o, r_b = oracle.run(6), batched.run(6)
        assert_results_equal(r_o, r_b)
        # Decision counters and power transition histories too.
        for name in oracle.suspending:
            assert (oracle.suspending[name].decision_counts
                    == batched.suspending[name].decision_counts)
        for h_o, h_b in zip(dc_o.hosts, dc_b.hosts):
            assert h_o.transitions == h_b.transitions

    def test_bulk_requests_match_per_push(self):
        per_push, _ = _build(use_bulk_requests=False,
                             use_batched_checks=False)
        bulk, _ = _build(use_batched_checks=False)
        assert_results_equal(per_push.run(6), bulk.run(6))

    def test_scalar_fleet_fallback_parity(self):
        """Batched scheduling with the fleet binding off: the sweep
        evaluates scalar modules but must still be bit-identical."""
        oracle, _ = _build(use_fleet_model=False, use_batched_checks=False)
        batched, _ = _build(use_fleet_model=False)
        assert_results_equal(oracle.run(6), batched.run(6))

    def test_deviating_module_falls_back_scalar(self):
        """A host with a heuristic is excluded from the columnar pass
        but still swept — and stays bit-identical to the oracle."""

        class VetoEverything:
            def host_seems_idle(self, host):
                return False

        def attach(sim):
            sim.suspending[sim.dc.hosts[0].name].heuristic = VetoEverything()

        oracle, dc_o = _build(use_batched_checks=False)
        attach(oracle)
        batched, dc_b = _build()
        attach(batched)
        assert_results_equal(oracle.run(6), batched.run(6))
        # The vetoed host never suspended in either path.
        assert dc_b.hosts[0].suspend_count == dc_o.hosts[0].suspend_count

    def test_repeated_runs_rearm_cleanly(self):
        oracle, _ = _build(use_batched_checks=False)
        batched, _ = _build()
        for start, n in ((0, 3), (3, 2), (5, 4)):
            r_o = oracle.run(n, start_hour=start)
            r_b = batched.run(n, start_hour=start)
            assert_results_equal(r_o, r_b)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_interleaved_operations_bit_identical(self, data):
        """Suspends, resumes, migrations, WoL packets and blocked-I/O
        toggles interleaved at arbitrary times: the batched sweep path
        must match the per-host oracle bit for bit."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        hours = data.draw(st.integers(1, 4), label="hours")
        n_ops = data.draw(st.integers(0, 8), label="n_ops")
        ops = [
            (data.draw(st.floats(1.0, hours * 3600.0 - 1.0), label="at"),
             data.draw(st.sampled_from(["wol", "migrate", "block"]),
                       label="kind"),
             data.draw(st.integers(0, 63), label="target"),
             data.draw(st.integers(0, 63), label="aux"))
            for _ in range(n_ops)
        ]

        def run_one(use_batched):
            dc = build_fleet(n_hosts=3, n_vms=9, llmi_fraction=0.5,
                             hours=24, seed=seed)
            sim = EventDrivenSimulation(
                dc, DrowsyController(dc),
                config=EventConfig(use_batched_checks=use_batched))

            def fire(kind, target, aux):
                hosts, vms = dc.hosts, dc.vms
                if kind == "wol":
                    sim._on_wol(WoLPacket(
                        hosts[target % len(hosts)].mac_address,
                        reason="test"), sim.sim.now)
                elif kind == "migrate":
                    vm = vms[target % len(vms)]
                    dest = hosts[aux % len(hosts)]
                    if dc.host_of(vm) is not dest and dest.can_host(vm):
                        sim._execute_migration(vm, dest)
                elif kind == "block":
                    vm = vms[target % len(vms)]
                    vm.blocked_io = not vm.blocked_io
            for at, kind, target, aux in ops:
                sim.sim.schedule_at(at, fire, kind, target, aux)
            result = sim.run(hours)
            counts = {name: dict(module.decision_counts)
                      for name, module in sim.suspending.items()}
            transitions = {h.name: list(h.transitions) for h in dc.hosts}
            return result, counts, transitions

        r_o, c_o, t_o = run_one(False)
        r_b, c_b, t_b = run_one(True)
        assert_results_equal(r_o, r_b)
        assert c_o == c_b
        assert t_o == t_b


# ----------------------------------------------------------------------
# timer wheel
# ----------------------------------------------------------------------

class TestSuspendSweepScheduler:
    def _wheel(self):
        sim = EventSimulator()
        swept = []
        wheel = SuspendSweepScheduler(
            sim, lambda now, due: swept.append((now, [h.name for h in due])))
        return sim, wheel, swept

    def _host(self, name):
        return Host(name, params=DEFAULT_PARAMS)

    def test_one_event_per_deadline(self):
        sim, wheel, swept = self._wheel()
        hosts = [self._host(f"h{i}") for i in range(4)]
        for h in hosts:
            wheel.schedule(h, 5.0)
        assert sim.pending == 1  # one sweep event, not four
        sim.run()
        assert swept == [(5.0, ["h0", "h1", "h2", "h3"])]
        # events_processed accounts one logical event per due host.
        assert sim.events_processed == 4

    def test_rearm_moves_host_to_new_deadline(self):
        sim, wheel, swept = self._wheel()
        h = self._host("h0")
        wheel.schedule(h, 5.0)
        wheel.schedule(h, 9.0)  # re-arm: old registration is stale
        assert wheel.next_deadline(h) == 9.0
        sim.run()
        assert swept == [(9.0, ["h0"])]
        assert sim.events_processed == 1  # 5.0 bucket was cancelled

    def test_cancel_last_member_cancels_sweep_event(self):
        sim, wheel, swept = self._wheel()
        h = self._host("h0")
        wheel.schedule(h, 5.0)
        wheel.cancel(h)
        assert len(wheel) == 0
        sim.run()
        assert swept == []
        assert sim.events_processed == 0

    def test_partial_cancellation_skips_stale_entries(self):
        sim, wheel, swept = self._wheel()
        a, b, c = (self._host(n) for n in "abc")
        for h in (a, b, c):
            wheel.schedule(h, 5.0)
        wheel.cancel(b)
        sim.run()
        assert swept == [(5.0, ["a", "c"])]
        assert sim.events_processed == 2

    def test_rearm_same_deadline_keeps_single_evaluation(self):
        sim, wheel, swept = self._wheel()
        h = self._host("h0")
        wheel.schedule(h, 5.0)
        wheel.schedule(h, 5.0)  # cancel + re-add at the same instant
        sim.run()
        assert swept == [(5.0, ["h0"])]
        assert sim.events_processed == 1

    def test_sweep_can_reschedule_during_fire(self):
        sim = EventSimulator()
        seen = []
        wheel = None

        def sweep(now, due):
            seen.append(now)
            if now < 14.0:
                for h in due:
                    wheel.schedule(h, now + 5.0)
        wheel = SuspendSweepScheduler(sim, sweep)
        wheel.schedule(self._host("h0"), 5.0)
        sim.run()
        assert seen == [5.0, 10.0, 15.0]


    @pytest.mark.parametrize("queued_at, swept_at, credited",
                             [(0.0, 10.0, 0), (5.0, 15.0, 1)])
    def test_touch_orders_against_the_oracle_check(self, queued_at,
                                                   swept_at, credited):
        """A change at 10 s, a grid instant of a host last checked at
        5 s: queued before that check, the oracle's 10 s check sees it;
        queued after (between runs), the 10 s poll ran first and only
        the 15 s check sees it."""
        sim = EventSimulator()
        counts = {"idle": 0}
        swept = []
        wheel = None

        def sweep(now, due):
            swept.append(now)
            for h in due:
                wheel.schedule(h, 100.0, counts, "idle")

        wheel = SuspendSweepScheduler(sim, sweep, 5.0)
        host = self._host("h0")

        def change():
            sim.schedule_at(10.0, wheel.touch, host)

        if queued_at == 0.0:
            change()
        wheel.schedule(host, 5.0)
        sim.run_until(5.0)
        if queued_at == 5.0:
            change()
        sim.run_until(20.0)
        assert swept == [5.0, swept_at]
        assert counts["idle"] == credited

# ----------------------------------------------------------------------
# columnar verdicts
# ----------------------------------------------------------------------

class TestColumnarVerdicts:
    def test_classification_codes(self):
        dc = build_fleet(n_hosts=3, n_vms=6, llmi_fraction=0.5,
                         hours=24, seed=5)
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        binding.ensure_horizon(0, 24)
        binding.load_hour(0)
        acc = dc._accounting
        codes = classify_hosts(acc, 0)
        for k, host in enumerate(dc.hosts):
            if not host.vms:
                assert codes[k] == CODE_EMPTY
            elif any(vm.blocked_io for vm in host.vms):
                assert codes[k] == CODE_BLOCKED_IO
            elif any(vm.current_activity > 0.0 for vm in host.vms):
                assert codes[k] == CODE_ACTIVE
            else:
                assert codes[k] == CODE_CANDIDATE

    def test_blocked_io_mirrors_into_fleet_column(self):
        dc = build_fleet(n_hosts=2, n_vms=4, llmi_fraction=0.5,
                         hours=24, seed=5)
        vm = dc.vms[0]
        vm.blocked_io = True  # before binding
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        i = binding.index[vm.name]
        assert binding.fleet.blocked_io[i]
        vm.blocked_io = False  # after binding: property mirrors
        assert not binding.fleet.blocked_io[i]
        version = binding.fleet.blocked_version
        vm.blocked_io = False  # no-op write: version stable
        assert binding.fleet.blocked_version == version
        vm.blocked_io = True
        assert binding.fleet.blocked_version == version + 1
        acc = dc._accounting
        assert bool(acc.any_blocked_io()[acc.pos(dc.host_of(vm))])

    def test_module_is_columnar(self):
        host = Host("h0", params=DEFAULT_PARAMS)
        module = SuspendingModule(host, DEFAULT_PARAMS)
        assert module_is_columnar(module)
        module.heuristic = object()
        assert not module_is_columnar(module)
        other = SuspendingModule(host, DEFAULT_PARAMS,
                                 blacklist=frozenset({"watchdogd"}))
        assert not module_is_columnar(other)


# ----------------------------------------------------------------------
# O(1) wake / request indexes
# ----------------------------------------------------------------------

class TestIndexes:
    def test_host_by_mac(self):
        dc = build_fleet(n_hosts=4, n_vms=8, llmi_fraction=0.5,
                         hours=24, seed=5)
        for host in dc.hosts:
            assert dc.host_by_mac[host.mac_address] is host
        dc.check_invariants()
        assert len(dc.host_by_mac) == len(dc.hosts)

    def test_find_vm_o1(self):
        dc = build_fleet(n_hosts=2, n_vms=4, llmi_fraction=0.5,
                         hours=24, seed=5)
        vm = dc.vms[0]
        found, host = dc.find_vm(vm.name)
        assert found is vm and host is dc.host_of(vm)
        with pytest.raises(KeyError):
            dc.find_vm("never-existed")
        # A removed VM leaves the index with it.
        dc.remove(vm, now=0.0)
        with pytest.raises(KeyError):
            dc.find_vm(vm.name)

    def test_wol_uses_index(self):
        sim, dc = _build()
        sim.run(1)
        # Unknown MAC: silently ignored (same as the scan returning None).
        sim._on_wol(WoLPacket("00:00:00:00:00:00", reason="test"),
                    sim.sim.now)


# ----------------------------------------------------------------------
# per-VM request substreams
# ----------------------------------------------------------------------

class TestPerVMStreams:
    @staticmethod
    def _arrivals_by_vm(sim):
        by_vm = {}
        for req in sim.switch.log.requests:
            by_vm.setdefault(req.vm_name, []).append(
                (req.arrival_s, req.service_time_s))
        return {k: sorted(v) for k, v in by_vm.items()}

    def test_reorder_invariance(self):
        """Reversing placement order changes shared-stream draws but not
        per-VM substream draws."""
        def run(reverse, streams):
            # llmi_fraction=0: every VM active every hour, so iteration
            # order visibly couples the shared stream's draws.
            dc = build_fleet(n_hosts=2, n_vms=6, llmi_fraction=0.0,
                             hours=24, seed=13)
            if reverse:
                for host in dc.hosts:
                    vms = host.vms
                    for vm in vms:
                        dc.remove(vm, now=0.0)
                    for vm in reversed(vms):
                        dc.place(vm, host)
                dc.check_invariants()
            sim = EventDrivenSimulation(
                dc, DrowsyController(dc),
                config=EventConfig(request_streams=streams))
            sim.run(4)
            return self._arrivals_by_vm(sim)

        a, b = run(False, "per-vm"), run(True, "per-vm")
        assert a == b
        c, d = run(False, "shared"), run(True, "shared")
        assert c != d  # the shared stream is order-coupled

    def test_per_vm_streams_deterministic(self):
        def run():
            sim, _ = _build(request_streams="per-vm")
            sim.run(3)
            return self._arrivals_by_vm(sim)
        assert run() == run()

    def test_per_vm_requires_bulk(self):
        with pytest.raises(ValueError):
            _build(request_streams="per-vm", use_bulk_requests=False)
        with pytest.raises(ValueError):
            _build(request_streams="typo")


def test_events_per_second_metric_is_comparable():
    """The sweep credits coalesced checks, so events_processed — the
    events/s numerator — matches the oracle path exactly (asserted by
    parity above) while physical heap traffic shrinks."""
    batched, _ = _build()
    result = batched.run(4)
    assert batched.sweeper is not None
    assert batched.sweeper.checks_performed > 0
    assert batched.sweeper.sweeps_fired < batched.sweeper.checks_performed
    assert result.events_processed >= batched.sweeper.checks_performed


# ----------------------------------------------------------------------
# exact check scheduling: counted polls vs the fixed-period oracle
# ----------------------------------------------------------------------

CAP = HostCapacity(cpus=8, memory_mb=16384, cpu_overcommit=1.0)
FLAVOR = ResourceSpec(cpus=2, memory_mb=6144)


def _trace(name, level):
    return ActivityTrace(name, np.full(72, level))


def _small_dc(layout, params=DEFAULT_PARAMS):
    """Hosts ``h0..`` holding VMs of the given activity levels."""
    hosts = [Host(f"h{i}", CAP, params) for i in range(len(layout))]
    dc = DataCenter(hosts, params)
    for i, levels in enumerate(layout):
        for j, level in enumerate(levels):
            dc.place(VM(f"v{i}{j}", _trace(f"t{i}{j}", level), FLAVOR,
                        params=params, ip_address=f"10.8.{i}.{j + 1}"),
                     hosts[i])
    return dc


def _suspends(host):
    return [t.time for t in host.transitions
            if t.to_state is PowerState.SUSPENDING]


def _counts(sim):
    return {name: dict(m.decision_counts)
            for name, m in sim.engine.suspending.items()}


def _run_pair(make, hours, prepare=lambda sim: None, dirty=True):
    """Run ``make(batched)`` on the oracle and the default path; returns
    ``(oracle, batched, results)``.  ``dirty=False`` unhooks the
    mid-hour re-arm from the batched run."""
    sims, results = [], []
    for batched in (False, True):
        sim = make(batched)
        if not dirty and batched:
            sim.dc.on_host_change = None
        prepare(sim)
        results.append(sim.run(hours))
        sims.append(sim)
    return sims[0], sims[1], results


def _assert_oracle_parity(oracle, batched, results):
    r_o, r_b = results
    assert r_o == r_b
    assert r_o.events_processed == r_b.events_processed
    for h_o, h_b in zip(oracle.dc.hosts, batched.dc.hosts):
        assert h_o.transitions == h_b.transitions, h_o.name
    assert _counts(oracle) == _counts(batched)


def _event_sim(dc, controller="none", params=DEFAULT_PARAMS):
    def make(batched):
        return Simulation(dc(), controller, "event", params=params,
                          config=EventConfig(use_batched_checks=batched))
    return make


class TestExactCheckScheduling:
    """The default path runs a suspend check only when its verdict can
    change and counts the polls in between; it must equal the
    fixed-period per-host oracle on every result field,
    ``events_processed`` included, on every host's power transitions
    and on every host's decision counters."""

    def test_parity_with_fixed_period_oracle(self):
        make = _event_sim(lambda: build_fleet(
            n_hosts=4, n_vms=16, llmi_fraction=0.5, hours=24, seed=11),
            controller="drowsy")
        oracle, batched, results = _run_pair(make, 8)
        _assert_oracle_parity(oracle, batched, results)
        sweeper = batched.engine.sweeper
        assert sweeper.checks_performed < sweeper.checks_credited

    def test_maintenance_with_crashes_scenario(self, monkeypatch):
        import repro.scenarios.compiler as compiler

        def make(batched):
            monkeypatch.setattr(compiler, "EventConfig", functools.partial(
                EventConfig, use_batched_checks=batched))
            return Simulation.from_scenario(
                "maintenance-with-crashes", seed=7, backend="event",
                hours=24)
        oracle, batched, results = _run_pair(make, 24)
        _assert_oracle_parity(oracle, batched, results)
        # The day drains hosts and fails resumes: mid-hour placement
        # changes that a waiting check must see.
        assert batched.churn.vms_evacuated > 0
        assert batched.engine.failover_migrations > 0

    def test_evacuation_onto_empty_host_mid_hour(self):
        """An idle VM evacuated at 1800 s onto a host that voted EMPTY:
        the oracle suspends that host at its 1800 s check.  Without the
        re-arm the batched path would wait for the hour boundary."""
        make = _event_sim(lambda: _small_dc([[], [0.0], [0.5]]))

        def prepare(sim):
            dc = sim.dc
            sim.engine.sim.schedule_at(
                1800.0, lambda: dc.evacuate(dc.hosts[1], 1800.0,
                                            targets=[dc.hosts[0]]))

        oracle, batched, results = _run_pair(make, 2, prepare)
        _assert_oracle_parity(oracle, batched, results)
        assert _suspends(batched.dc.hosts[0])[0] == 1800.0
        stale, unhooked, stale_results = _run_pair(make, 2, prepare,
                                                   dirty=False)
        assert _suspends(unhooked.dc.hosts[0])[0] == 3600.0
        assert _counts(stale) != _counts(unhooked)

    def test_blocked_io_toggled_mid_hour(self):
        """Blocked I/O vetoes an idle host's suspend until an event at
        1800 s clears it; the host suspends at that very check."""
        make = _event_sim(lambda: _small_dc([[0.0], [0.5]]))

        def prepare(sim):
            vm = sim.dc.hosts[0].vms[0]
            at = sim.engine.sim.schedule_at
            at(1.0, setattr, vm, "blocked_io", True)
            at(1800.0, setattr, vm, "blocked_io", False)

        oracle, batched, results = _run_pair(make, 2, prepare)
        _assert_oracle_parity(oracle, batched, results)
        assert _suspends(batched.dc.hosts[0])[0] == 1800.0
        counts = batched.engine.suspending["h0"].decision_counts
        assert counts[SuspendDecision.BLOCKED_IO] == 1800.0 / 5.0 - 1

    def test_grace_window_expires_mid_hour(self):
        """A host woken at 1000.3 s votes IN_GRACE until its window ends
        mid-hour, then suspends on the first grid point after it."""
        params = dataclasses.replace(DEFAULT_PARAMS, grace_min_s=60.0)
        make = _event_sim(lambda: _small_dc([[0.0], [0.5]], params),
                          params=params)

        def prepare(sim):
            engine = sim.engine
            engine.sim.schedule_at(
                1000.3, lambda: engine._on_wol(WoLPacket(
                    sim.dc.hosts[0].mac_address, reason="test"),
                    engine.sim.now))

        oracle, batched, results = _run_pair(make, 2, prepare)
        _assert_oracle_parity(oracle, batched, results)
        host = batched.dc.hosts[0]
        awake = [t.time for t in host.transitions
                 if t.to_state is PowerState.ON][-1]
        grid_point = count_beats(awake + 5.0, 5.0, host.grace_until,
                                 False)[1]
        assert awake + 5.0 < host.grace_until < 3600.0
        assert _suspends(host)[1] == grid_point
        assert (batched.engine.suspending["h0"].decision_counts[
            SuspendDecision.IN_GRACE] > 0)

    def test_same_instant_checks_keep_oracle_order(self):
        """Two hosts whose VMs share an IP suspend in the same sweep;
        the later registration owns the IP, so the sweep order decides
        which host a request wakes.  A mid-hour re-arm makes ``h0``
        register for the 3600 s sweep after ``h1``; it must still be
        swept first, as in the oracle."""
        levels = np.full(72, 0.5)
        levels[1] = 0.0  # both hosts idle in hour 1 only

        def dc():
            hosts = [Host(f"h{i}", CAP) for i in range(2)]
            dc = DataCenter(hosts)
            for i, host in enumerate(hosts):
                dc.place(VM(f"v{i}", ActivityTrace(f"t{i}", levels), FLAVOR,
                            ip_address="10.8.0.1"), host)
            return dc

        def prepare(sim):
            vm = sim.dc.hosts[0].vms[0]
            at = sim.engine.sim.schedule_at
            at(1000.0, setattr, vm, "blocked_io", True)
            at(2000.0, setattr, vm, "blocked_io", False)
            waking = sim.engine.waking
            at(3601.0, lambda: owner.append(
                waking.active.state.vm_to_mac["10.8.0.1"]))

        owner: list[str] = []
        oracle, batched, results = _run_pair(_event_sim(dc), 3, prepare)
        _assert_oracle_parity(oracle, batched, results)
        assert [_suspends(h)[0] for h in batched.dc.hosts] == [3600.0] * 2
        assert owner == [batched.dc.hosts[1].mac_address] * 2

    def test_recovered_host_joins_in_front_of_its_grid(self):
        """A host recovering at 3600 s joins the grid the other host is
        checked on; its recovery was queued long before that grid's
        3600 s check, so from then on it is swept first.  Both suspend
        at 7200 s and the second registration owns their shared IP."""
        busy = np.full(72, 0.5)
        busy[2] = 0.0  # both hosts idle in hour 2
        asleep_first = busy.copy()
        asleep_first[0] = 0.0  # h0 also idle in hour 0

        def dc():
            hosts = [Host(f"h{i}", CAP) for i in range(2)]
            dc = DataCenter(hosts)
            for i, levels in enumerate((asleep_first, busy)):
                dc.place(VM(f"v{i}", ActivityTrace(f"t{i}", levels), FLAVOR,
                            ip_address="10.8.0.1"), hosts[i])
            return dc

        def prepare(sim):
            engine = sim.engine
            at = engine.sim.schedule_at
            at(10.0, engine.crash_host, sim.dc.hosts[0], 3590.0)
            at(7201.0, lambda: owner.append(
                engine.waking.active.state.vm_to_mac["10.8.0.1"]))

        owner: list[str] = []
        oracle, batched, results = _run_pair(_event_sim(dc), 3, prepare)
        _assert_oracle_parity(oracle, batched, results)
        assert [_suspends(h)[-1] for h in batched.dc.hosts] == [7200.0] * 2
        assert owner == [batched.dc.hosts[1].mac_address] * 2

    def test_busy_host_checked_once_per_hour(self):
        """An always-busy host is evaluated once after joining and then
        once per hour boundary; every other poll is counted."""
        make = _event_sim(lambda: _small_dc([[0.5]]))
        oracle, batched, results = _run_pair(make, 4)
        _assert_oracle_parity(oracle, batched, results)
        assert batched.engine.sweeper.checks_performed <= 1 + 4
        active = batched.engine.suspending["h0"].decision_counts[
            SuspendDecision.ACTIVE]
        assert active == 4 * 3600 / 5.0

    def test_telemetry_checks_add_up_to_oracle(self):
        """``sweep_checks`` (evaluations run) plus ``checks_credited``
        (polls counted) is the oracle's number of check events."""
        def fleet():
            return build_fleet(n_hosts=4, n_vms=16, llmi_fraction=0.5,
                               hours=24, seed=11)

        oracle = Simulation(fleet(), "drowsy", "event",
                            config=EventConfig(use_batched_checks=False))
        engine, checks = oracle.engine, []
        check = engine._suspend_check

        def counted(host):
            checks.append(host.name)
            check(host)

        engine._suspend_check = counted
        oracle.run(6)
        batched = Simulation(fleet(), "drowsy", "event",
                             telemetry=TelemetryConfig(metrics=True))
        totals = batched.run(6).telemetry.totals
        assert totals["sweep_checks"] < totals["checks_credited"]
        assert (totals["sweep_checks"] + totals["checks_credited"]
                == len(checks))
