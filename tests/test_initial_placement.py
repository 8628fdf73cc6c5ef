"""Tests for the VM-lifecycle support and the initial-placement study."""

import pytest

from repro.cluster import DataCenter, Host, PlacementError, TESTBED_VM, VM
from repro.traces.synthetic import always_idle_trace, slmu_trace


class TestVMRemoval:
    def test_remove_frees_capacity(self):
        host = Host("h")
        dc = DataCenter([host])
        vm = VM("v", always_idle_trace(48), TESTBED_VM)
        dc.place(vm, host)
        dc.remove(vm, now=3600.0)
        assert not host.vms
        assert host.meter.total_seconds == pytest.approx(3600.0)
        # The slot is reusable.
        dc.place(VM("w", always_idle_trace(48), TESTBED_VM), host)

    def test_remove_unplaced_raises(self):
        dc = DataCenter([Host("h")])
        with pytest.raises(PlacementError):
            dc.remove(VM("ghost", always_idle_trace(48), TESTBED_VM), now=0.0)

    def test_remove_tolerates_precharged_meter(self):
        host = Host("h")
        dc = DataCenter([host])
        vm = VM("v", always_idle_trace(48), TESTBED_VM)
        dc.place(vm, host)
        host.sync_meter(100.5)  # transition charged past the boundary
        dc.remove(vm, now=100.0)  # must not raise
        assert not host.vms


class TestInitialPlacementExperiment:
    @pytest.fixture(scope="class")
    def data(self):
        from repro.experiments import initial_placement

        return initial_placement.run(days=3, train_days=7)

    def test_both_schedulers_place_everything(self, data):
        assert data.drowsy.placed == data.vanilla.placed > 0
        assert data.drowsy.rejected == data.vanilla.rejected == 0

    def test_weigher_reduces_disturbances(self, data):
        assert (data.drowsy.sleepy_hosts_disturbed
                <= data.vanilla.sleepy_hosts_disturbed)

    def test_weigher_does_not_cost_energy(self, data):
        assert data.drowsy.energy_kwh <= data.vanilla.energy_kwh * 1.05

    def test_render(self, data):
        assert "idleness weigher" in data.render()

    def test_slmu_arrivals_terminate(self):
        """SLMU tasks leave the DC after their lifetime."""
        from repro.experiments.initial_placement import _arrivals

        from repro.core.params import DEFAULT_PARAMS

        arrivals = _arrivals(days=3, start_hour=0, seed=1,
                             params=DEFAULT_PARAMS)
        slmus = [vm for _, vm in arrivals if vm.name.startswith("new-slmu")]
        assert slmus, "stream should contain SLMU tasks"
        assert all(hasattr(vm, "terminate_after_h") for vm in slmus)

    def test_slmu_trace_helper(self):
        tr = slmu_trace(lifetime_hours=4, total_hours=20)
        assert (tr.activities[:4] > 0).all()
        assert (tr.activities[4:] == 0).all()
