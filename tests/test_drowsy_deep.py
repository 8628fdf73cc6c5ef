"""Deeper tests of the Drowsy-DC controller's mechanisms."""

import numpy as np
import pytest

from repro.cluster import DataCenter, Host, HostCapacity, ResourceSpec, VM
from repro.consolidation import DrowsyController, drowsy
from repro.core.params import DEFAULT_PARAMS
from repro.traces.synthetic import always_idle_trace


def make_vm(name, mem=4096, cpus=2):
    return VM(name, always_idle_trace(24 * 40), ResourceSpec(cpus, mem))


def train(vm, pattern, hours=28 * 24):
    for t in range(hours):
        vm.model.observe(t, pattern(t))


IDLE = lambda t: 0.0
BUSY = lambda t: 0.5
MORNINGS = lambda t: 0.3 if 8 <= t % 24 <= 11 else 0.0
NIGHTS = lambda t: 0.3 if t % 24 <= 3 else 0.0
HOUR = 28 * 24


class TestOpportunisticStepDeep:
    def test_no_move_when_no_destination_fits(self):
        cap = HostCapacity(cpus=8, memory_mb=8192, cpu_overcommit=1.0)
        h0, h1 = Host("h0", cap), Host("h1", cap)
        dc = DataCenter([h0, h1])
        a, b = make_vm("a"), make_vm("b")
        train(a, IDLE)
        train(b, BUSY)
        dc.place(a, h0)
        dc.place(b, h0)
        # h1 full with one big VM: nothing fits.
        big = VM("big", always_idle_trace(24 * 40), ResourceSpec(2, 8192))
        dc.place(big, h1)
        ctrl = DrowsyController(dc)
        moved = ctrl.opportunistic_step(
            HOUR, lambda vm, dest: dc.migrate(vm, dest, 0.0))
        assert moved == 0
        assert len(h0.vms) == 2

    def test_threshold_respected(self):
        """Hosts under the 7σ range are left alone."""
        h0, h1 = Host("h0"), Host("h1")
        dc = DataCenter([h0, h1])
        a, b = make_vm("a", mem=6144), make_vm("b", mem=6144)
        # Two nearly identical patterns: range < 7 sigma.
        train(a, MORNINGS)
        train(b, MORNINGS)
        dc.place(a, h0)
        dc.place(b, h0)
        assert h0.ip_range(HOUR) < DEFAULT_PARAMS.ip_range_threshold
        ctrl = DrowsyController(dc)
        moved = ctrl.opportunistic_step(
            HOUR, lambda vm, dest: dc.migrate(vm, dest, 0.0))
        assert moved == 0

    def test_single_vm_host_skipped(self):
        h0, h1 = Host("h0"), Host("h1")
        dc = DataCenter([h0, h1])
        a = make_vm("a", mem=6144)
        train(a, BUSY)
        dc.place(a, h0)
        ctrl = DrowsyController(dc)
        assert ctrl.opportunistic_step(
            HOUR, lambda vm, dest: dc.migrate(vm, dest, 0.0)) == 0


class TestRelocateAllDeep:
    def test_heterogeneous_capacities(self):
        """Relocation respects differing host sizes."""
        small = HostCapacity(cpus=4, memory_mb=4096, cpu_overcommit=1.0)
        big = HostCapacity(cpus=16, memory_mb=16384, cpu_overcommit=1.0)
        h0, h1 = Host("small", small), Host("big", big)
        dc = DataCenter([h0, h1])
        vms = [make_vm(f"v{i}", mem=2048, cpus=1) for i in range(5)]
        for vm, pattern in zip(vms, (MORNINGS, NIGHTS, MORNINGS, NIGHTS, MORNINGS)):
            train(vm, pattern)
        dc.place(vms[0], h0)
        dc.place(vms[1], h0)
        for vm in vms[2:]:
            dc.place(vm, h1)
        ctrl = DrowsyController(dc)
        ctrl.relocate_all(HOUR, now=0.0)
        dc.check_invariants()
        # Small host can hold at most 2 of these VMs.
        assert len(h0.vms) <= 2

    def test_relocation_reduces_dispersion(self):
        h0, h1 = Host("h0"), Host("h1")
        dc = DataCenter([h0, h1])
        a, b, c, d = (make_vm(n, mem=6144) for n in "abcd")
        train(a, MORNINGS)
        train(b, NIGHTS)
        train(c, MORNINGS)
        train(d, NIGHTS)
        dc.place(a, h0)
        dc.place(b, h0)
        dc.place(c, h1)
        dc.place(d, h1)

        def total_range():
            return h0.ip_range(HOUR) + h1.ip_range(HOUR)

        before = total_range()
        ctrl = DrowsyController(dc)
        ctrl.relocate_all(HOUR, now=0.0)
        assert total_range() < before
        names0 = {vm.name for vm in h0.vms}
        assert names0 in ({"a", "c"}, {"b", "d"})

    def test_single_vm_groups_have_no_spread(self):
        """A group of one scores 0: moving the odd VM onto a host of its
        own kind and leaving a singleton behind is a gain."""
        h0, h1 = Host("h0"), Host("h1")
        dc = DataCenter([h0, h1])
        a, b, c = (make_vm(n, mem=6144) for n in "abc")
        train(a, MORNINGS)
        train(b, NIGHTS)
        train(c, MORNINGS)
        dc.place(a, h0)
        dc.place(b, h0)
        dc.place(c, h1)
        assert DrowsyController(dc).relocate_all(HOUR, now=0.0) == 2
        assert {vm.name for vm in h0.vms} == {"a", "c"}
        assert [vm.name for vm in h1.vms] == ["b"]
        ips = np.array([[float(x) for x in range(24)],
                        [2.0 * x for x in range(24)],
                        [0.5] * 24])
        spread = drowsy._dispersions(ips, [[], [1], [0, 1], [2, 0, 1]])
        assert spread[:2] == [0.0, 0.0]
        for got, rows in zip(spread[2:], ([0, 1], [2, 0, 1])):
            vals = ips[rows]
            assert got == float(np.abs(vals - vals.mean(axis=0)).sum())

    def test_pair_with_no_feasible_candidate(self, monkeypatch):
        """Two full hosts with unequal flavors: every swap overfills one
        side and no move fits, so the pair is never scored."""
        cap = HostCapacity(cpus=8, memory_mb=8192, cpu_overcommit=1.0)
        h0, h1 = Host("h0", cap), Host("h1", cap)
        dc = DataCenter([h0, h1])
        a, b = make_vm("a", mem=4096), make_vm("b", mem=4096)
        c, d = make_vm("c", mem=6144), make_vm("d", mem=2048)
        for vm, pattern in ((a, MORNINGS), (b, NIGHTS), (c, MORNINGS),
                            (d, NIGHTS)):
            train(vm, pattern)
        dc.place(a, h0)
        dc.place(b, h0)
        dc.place(c, h1)
        dc.place(d, h1)
        scored = []
        score = drowsy._dispersions
        monkeypatch.setattr(drowsy, "_dispersions",
                            lambda ips, groups: scored.append(groups)
                            or score(ips, groups))
        assert DrowsyController(dc).relocate_all(HOUR, now=0.0) == 0
        assert scored == []
        assert [vm.name for vm in h0.vms] == ["a", "b"]
        assert [vm.name for vm in h1.vms] == ["c", "d"]

    def test_relocate_skips_off_hosts(self):
        from repro.cluster import PowerState

        h0, h1, h2 = Host("h0"), Host("h1"), Host("h2")
        dc = DataCenter([h0, h1, h2])
        a, b = make_vm("a", mem=6144), make_vm("b", mem=6144)
        train(a, MORNINGS)
        train(b, NIGHTS)
        dc.place(a, h0)
        dc.place(b, h0)
        h2.power_off(0.0)
        ctrl = DrowsyController(dc)
        ctrl.relocate_all(HOUR, now=1.0)
        assert not h2.vms
        assert h2.state is PowerState.OFF


class TestIPDistanceToleranceBuckets:
    def test_footnote3_equality_within_tolerance(self):
        """Distances within the tolerance sort by the classic criterion."""
        from repro.consolidation.selection import IPDistanceSelector

        host = Host("h", HostCapacity(cpus=16, memory_mb=32768))
        # Two VMs with equal IP distance but different memory (migration
        # time): the cheaper one must come first within the bucket.
        small = VM("small", always_idle_trace(24 * 40), ResourceSpec(2, 2048))
        large = VM("large", always_idle_trace(24 * 40), ResourceSpec(2, 8192))
        for vm in (small, large):
            train(vm, MORNINGS)
            host.add_vm(vm)
        order = IPDistanceSelector().order(host, HOUR)
        assert order[0].name == "small"


class TestDrowsyEndToEndSmall:
    def test_mixed_fleet_converges_to_sorted_hosts(self):
        """After a training period, Drowsy separates LLMU from LLMI."""
        from repro.sim.hourly import HourlyConfig, HourlySimulator

        cap = HostCapacity(cpus=8, memory_mb=16384, cpu_overcommit=1.0)
        hosts = [Host(f"h{i}", cap) for i in range(2)]
        dc = DataCenter(hosts)
        from repro.traces.synthetic import llmu_trace, weekly_pattern_trace

        llmu_a = VM("llmu-a", llmu_trace(hours=14 * 24, seed=1),
                    ResourceSpec(2, 6144))
        llmu_b = VM("llmu-b", llmu_trace(hours=14 * 24, seed=2),
                    ResourceSpec(2, 6144))
        idle_sched = {d: (9, 10) for d in range(7)}
        llmi_a = VM("llmi-a", weekly_pattern_trace("w1", idle_sched, weeks=2),
                    ResourceSpec(2, 6144))
        llmi_b = VM("llmi-b", weekly_pattern_trace("w2", idle_sched, weeks=2),
                    ResourceSpec(2, 6144))
        # Worst-case start: mixed pairs.
        dc.place(llmu_a, hosts[0])
        dc.place(llmi_a, hosts[0])
        dc.place(llmu_b, hosts[1])
        dc.place(llmi_b, hosts[1])

        ctrl = DrowsyController(dc)
        sim = HourlySimulator(dc, ctrl,
                              config=HourlyConfig(relocate_all_mode=True,
                                                  power_off_empty=False))
        sim.run(7 * 24)
        groups = [{vm.name for vm in h.vms} for h in hosts]
        assert {"llmu-a", "llmu-b"} in groups
        assert {"llmi-a", "llmi-b"} in groups


#: Final placement (host -> VM numbers) and migration count of the E8
#: drowsy cell after 48 h, recorded from the one-group-at-a-time swap
#: search.  Runs on the hourly engine.
E8_GOLDEN = {
    7: (34, {
        "H000": "010 017 020 031",
        "H001": "004 009 019 034",
        "H002": "002 032 033 038",
        "H003": "003 016 023 027",
        "H004": "014 021 024 035",
        "H005": "005 015 025 026",
        "H006": "008 011 022 039",
        "H007": "006 007 018 036",
        "H008": "000 012 028 037",
        "H009": "001 013 029 030",
    }),
    1009: (48, {
        "H000": "024 030 032 036",
        "H001": "007 014 015 029",
        "H002": "003 004 021 022",
        "H003": "012 020 027 033",
        "H004": "001 008 023 034",
        "H005": "005 011 018 035",
        "H006": "009 010 016 017",
        "H007": "002 025 026 039",
        "H008": "000 013 028 037",
        "H009": "006 019 031 038",
    }),
}


@pytest.mark.parametrize("seed", sorted(E8_GOLDEN))
def test_relocate_all_golden_e8_cell(seed):
    from repro.api import Simulation
    from repro.experiments.common import build_fleet
    from repro.sim.hourly import HourlyConfig

    dc = build_fleet(10, 40, 0.5, 48, seed=seed)
    result = Simulation(
        dc, "drowsy", "hourly",
        config=HourlyConfig(suspend_enabled=True, relocate_all_mode=True,
                            power_off_empty=True, update_models=True)).run(48)
    placement = {h.name: " ".join(sorted(vm.name[3:] for vm in h.vms))
                 for h in dc.hosts}
    assert (result.migrations, placement) == E8_GOLDEN[seed]
