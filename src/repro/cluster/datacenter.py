"""Data-center registry: hosts, VMs, placement and migrations.

The :class:`DataCenter` is the single source of truth for "which VM runs
where".  Consolidation controllers express decisions as migration lists;
the data center validates and applies them, keeping the records Fig. 2
is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .host import Host, _without
from .migration import MigrationModel, MigrationRecord
from .resources import ResourceSpec
from .vm import VM


class PlacementError(RuntimeError):
    """Raised when a placement/migration violates capacity or identity."""


@dataclass
class DataCenter:
    """Hosts, VMs and their current placement."""

    hosts: list[Host]
    params: DrowsyParams = DEFAULT_PARAMS
    migration_model: MigrationModel = field(default_factory=MigrationModel)
    migrations: list[MigrationRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [h.name for h in self.hosts]
        if len(set(names)) != len(names):
            raise PlacementError("duplicate host names")
        self._host_by_name = {h.name: h for h in self.hosts}
        #: Placement index (vm name -> host) and VM registry (vm name ->
        #: VM): O(1) :meth:`host_of` / :meth:`find_vm` on the migration
        #: and request paths.  Registered hosts refuse direct writes, so
        #: :meth:`_attach`/:meth:`_detach` keep both exact (DESIGN.md §7).
        self._placement: dict[str, Host] = {
            vm.name: host for host in self.hosts for vm in host.vms}
        self._vm_by_name: dict[str, VM] = {
            vm.name: vm for host in self.hosts for vm in host.vms}
        #: Wake-path index (MAC -> host): WoL delivery is per-packet, so
        #: a linear scan over hosts would be O(hosts) per wake
        #: (DESIGN.md §10).  Host MACs are construction-time constants.
        self.host_by_mac: dict[str, Host] = {
            h.mac_address: h for h in self.hosts}
        #: Columnar host accounting (attached by the fleet binding, see
        #: :mod:`repro.cluster.accounting`), notified of every attach and
        #: detach so its incidence rows track host membership.
        self._accounting = None
        #: Bumped by every change of the placed-VM set (:meth:`place`,
        #: :meth:`remove`, arrivals in :meth:`apply_moves`); migrations
        #: leave it alone.  The simulators rebind their columnar fleet
        #: binding when it moves instead of rescanning the VMs each hour.
        self.population_version = 0
        #: Called with a host whose suspend-verdict inputs changed
        #: between hour ticks (its VMs, or a VM's blocked I/O); the
        #: event simulator re-arms the host's suspend check with it.
        self.on_host_change: Callable[[Host], None] | None = None
        # Hosts wired before construction (Host.add_vm) are validated
        # here: a VM on two hosts or an overfull host is refused.
        self.check_invariants()
        for host in self.hosts:
            host._dc = self
            for vm in host.vms:
                vm._dc = self

    # ------------------------------------------------------------------
    # the single writer of placement
    # ------------------------------------------------------------------
    def _attach(self, vm: VM, host: Host) -> None:
        host._vms += (vm,)
        self._placement[vm.name] = host
        self._vm_by_name[vm.name] = vm
        vm._dc = self
        if self._accounting is not None:
            self._accounting.on_place(vm.name, host)
        if self.on_host_change is not None:
            self.on_host_change(host)

    def _detach(self, vm: VM, host: Host) -> None:
        host._vms = _without(host._vms, vm)
        del self._placement[vm.name]
        del self._vm_by_name[vm.name]
        vm._dc = None
        if self._accounting is not None:
            self._accounting.on_remove(vm.name, host)
        if self.on_host_change is not None:
            self.on_host_change(host)

    def _blocked_io_changed(self, vm: VM) -> None:
        """``vm.blocked_io`` flipped (called by the VM while placed)."""
        if (self.on_host_change is not None
                and self._vm_by_name.get(vm.name) is vm):
            self.on_host_change(self._placement[vm.name])

    # ------------------------------------------------------------------
    @property
    def vms(self) -> list[VM]:
        """All placed VMs (stable order: host order, then host-local)."""
        return [vm for host in self.hosts for vm in host.vms]

    def host_of(self, vm: VM) -> Host:
        host = self._placement.get(vm.name)
        if host is None or self._vm_by_name[vm.name] is not vm:
            raise PlacementError(f"{vm.name} is not placed")
        return host

    def host(self, name: str) -> Host:
        try:
            return self._host_by_name[name]
        except KeyError:
            raise PlacementError(f"unknown host {name}") from None

    def find_vm(self, vm_name: str) -> tuple[VM, Host]:
        """O(1) ``(vm, host)`` lookup by VM name (the per-packet path).

        Raises ``KeyError`` for unknown VMs (the request path's
        contract).
        """
        vm = self._vm_by_name.get(vm_name)
        if vm is None:
            raise KeyError(f"unknown VM {vm_name}")
        return vm, self._placement[vm_name]

    # ------------------------------------------------------------------
    def place(self, vm: VM, host: Host) -> None:
        """Initial placement of an unplaced VM."""
        current = self._placement.get(vm.name)
        if current is not None:
            raise PlacementError(f"{vm.name} already placed on {current.name}")
        if not host.can_host(vm):
            raise ValueError(f"{vm.name} does not fit on {host.name}")
        self._attach(vm, host)
        self.population_version += 1

    def migrate(self, vm: VM, destination: Host, now: float) -> MigrationRecord:
        """Move ``vm`` to ``destination``, recording the migration.

        A migration to the current host is rejected — controllers must
        filter no-ops so Fig. 2's migration counts stay meaningful.
        """
        source = self.host_of(vm)
        if source is destination:
            raise PlacementError(f"{vm.name} already on {destination.name}")
        if not destination.can_host(vm):
            raise PlacementError(f"{vm.name} does not fit on {destination.name}")
        duration = self.migration_model.duration_s(vm)
        source.sync_meter(now)
        destination.sync_meter(now)
        self._detach(vm, source)
        self._attach(vm, destination)
        vm.migrations += 1
        record = MigrationRecord(time=now, vm_name=vm.name,
                                 source=source.name,
                                 destination=destination.name,
                                 duration_s=duration)
        self.migrations.append(record)
        return record

    def apply_assignment(self, assignment: dict[str, Host], now: float) -> list[MigrationRecord]:
        """Bulk relocation: move every named VM to its assigned host.

        Used by the periodic-relocation evaluation mode (section VI-A.1),
        where whole groups of VMs swap hosts at once: per-move capacity
        checking would deadlock on swaps, so the *final* state is
        validated instead (see :meth:`apply_moves`).  Only VMs that
        actually change host are recorded as migrations.
        """
        moves: list[tuple[VM, Host, MigrationRecord]] = []
        for name, dest in assignment.items():
            vm = self._vm_by_name.get(name)
            if vm is None:
                raise PlacementError(f"unknown VM {name}")
            src = self._placement[name]
            if src is not dest:
                moves.append((vm, dest, MigrationRecord(
                    time=now, vm_name=name, source=src.name,
                    destination=dest.name,
                    duration_s=self.migration_model.duration_s(vm))))
        return self.apply_moves(moves, now)

    def apply_moves(self, moves: list[tuple[VM, Host, MigrationRecord]],
                    now: float) -> list[MigrationRecord]:
        """Apply ``(vm, destination, record)`` moves all-or-nothing.

        Every placed VM among them is detached first (swap-safe), then
        all are attached in list order, so host-local VM order follows
        the move order.  A VM not placed here *arrives* (the sharded
        backend's cross-shard transfers) and counts as a population
        change.  Capacity is checked on the final per-host usage before
        anything is touched: on ``PlacementError`` placement, indexes,
        accounting, meters and :attr:`migrations` are unchanged.
        """
        leaving = [(vm, self._placement.get(vm.name)) for vm, _, _ in moves]
        load: dict[str, ResourceSpec] = {}
        for vm, src in leaving:
            if src is not None:
                load[src.name] = (load.get(src.name, src.used_resources)
                                  - vm.resources)
        for vm, dest, _ in moves:
            used = load.get(dest.name, dest.used_resources)
            if not dest.capacity.fits(used, vm.resources):
                raise PlacementError(
                    f"assignment overfills {dest.name} with {vm.name}")
            load[dest.name] = used + vm.resources
        self.sync_meters(now)
        for vm, src in leaving:
            if src is not None:
                self._detach(vm, src)
        for vm, dest, record in moves:
            self._attach(vm, dest)
            vm.migrations += 1
            self.migrations.append(record)
        if any(src is None for _, src in leaving):
            self.population_version += 1
        self.check_invariants()
        return [record for _, _, record in moves]

    def evacuate(self, host: Host, now: float,
                 targets: list[Host] | None = None) -> tuple[list[VM], list[VM]]:
        """Drain ``host``: migrate every hosted VM to the first target
        with room (first-fit in the given order; default: every other
        host).  Returns ``(migrated, stranded)`` — stranded VMs stay put
        when nothing fits, and the caller (e.g. a scenario maintenance
        window, DESIGN.md §12) decides whether the drain still counts.
        """
        if targets is None:
            targets = [h for h in self.hosts if h is not host]
        migrated: list[VM] = []
        stranded: list[VM] = []
        for vm in host.vms:
            dest = next((t for t in targets
                         if t is not host and t.can_host(vm)), None)
            if dest is None:
                stranded.append(vm)
            else:
                self.migrate(vm, dest, now)
                migrated.append(vm)
        return migrated, stranded

    def remove(self, vm: VM, now: float) -> None:
        """Terminate a VM (e.g. an SLMU task completing): meters are
        charged up to ``now`` and the VM leaves its host.

        The hourly simulator may have pre-charged a transition a few
        seconds past the hour boundary; removal never rewinds the meter.
        """
        host = self.host_of(vm)
        host.sync_meter(max(now, host.meter.last_time))
        self._detach(vm, host)
        self.population_version += 1

    # ------------------------------------------------------------------
    def available_hosts(self) -> list[Host]:
        """Hosts currently able to run VM work (S0)."""
        return [h for h in self.hosts if h.is_available]

    def sync_meters(self, now: float, utilizations=None) -> None:
        """Advance every host's energy meter to ``now``.

        ``utilizations`` (optional, ``(n_hosts,)`` in host order) lets
        the columnar hot path hand each host its precomputed CPU
        utilization instead of the per-VM ``Host.cpu_utilization`` sum;
        values must equal the scalar property bit-for-bit (they do when
        taken from :class:`~repro.cluster.accounting.HostAccounting`).
        """
        if utilizations is None:
            for host in self.hosts:
                host.sync_meter(now)
        else:
            for host, util in zip(self.hosts, utilizations):
                host.sync_meter(now, float(util))

    def total_energy_kwh(self) -> float:
        return sum(h.meter.energy_kwh for h in self.hosts)

    def set_hour_activities(self, hour_index: int, now: float) -> None:
        """Load each VM's trace activity for the given hour.

        Meters are advanced first so the previous hour is charged at the
        old utilization.
        """
        self.sync_meters(now)
        for host in self.hosts:
            for vm in host.vms:
                vm.current_activity = vm.activity_at(hour_index)

    def check_invariants(self) -> None:
        """Structural sanity: capacity held, and every VM on exactly the
        host the placement index names (so none is on two hosts).  A
        pure assertion: it writes nothing."""
        placement = self._placement
        placed = 0
        for host in self.hosts:
            vms = host.vms
            cpus = 0
            memory_mb = 0
            for vm in vms:
                res = vm.resources
                cpus += res.cpus
                memory_mb += res.memory_mb
            if memory_mb > host.capacity.memory_mb:
                raise PlacementError(f"{host.name} over memory capacity")
            if cpus > host.capacity.schedulable_cpus:
                raise PlacementError(f"{host.name} over CPU capacity")
            for vm in vms:
                indexed = placement.get(vm.name)
                if indexed is not host:
                    raise PlacementError(
                        f"{vm.name} on both {host.name} and {indexed.name}"
                        if indexed is not None and vm in indexed.vms
                        else f"{vm.name} on {host.name} is not indexed there")
            placed += len(vms)
        if placed != len(placement):
            raise PlacementError("placement index names VMs no host holds")
