"""Waking-module fault tolerance (paper section V).

"All waking modules work in a collaborated manner.  Each waking module
monitors — via a heart beat mechanism — and mirrors another one.  In
this way, when a waking module is defective, it is replaced with an
identical version."

:class:`ReplicatedWakingService` fronts a primary/mirror pair: every
state-changing call is applied to the active module and synchronously
replicated to the standby's state; a heartbeat monitor promotes the
mirror when the primary misses ``heartbeat_miss_limit`` beats.

Heartbeats are counted, not run, while the primary is alive.  The
mirror beats once per ``heartbeat_period_s`` on a fixed grid (the
construction instant plus repeated float additions of the period),
and a beat against a live primary changes nothing.  So no beat event
goes on the heap until :meth:`~ReplicatedWakingService.fail_primary`:
the beats up to the kill are settled arithmetically (:func:`count_beats`)
and credited to the kernel with ``count_coalesced``, and from the next
grid instant real beat events count the misses, the last one promoting
the mirror.  ``beats`` and ``events_processed`` read exactly what a
beat-per-event chain would at every hour tick and at the end of a run.

The detection window is real.  Between the primary dying and the
heartbeat noticing (worst case :attr:`detection_delay_s`), calls against
the service behave like their distributed-system counterparts:

* state-changing calls (register/awake) time out against the dead
  active, but the same update also reaches the standby over the
  replication channel, which *journals* it — state only, no timers —
  so promotion re-arms every wake registered inside the window (the
  in-flight-wake-loss fix; regression-tested in ``tests/test_waking.py``);
* packet analysis returns "no wake" (counted in
  :attr:`unanswered_packets`); the SDN switch's port-level WoL fallback
  keeps request-triggered wakes working meanwhile;
* with *both* replicas dead the service degrades instead of raising:
  updates are dropped (counted in :attr:`lost_calls`) and analysis
  declines, leaving the switch fallback as the only wake path.
"""

from __future__ import annotations

import math

from ..cluster.events import EventSimulator
from ..cluster.host import Host
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .module import WakingModule, WolSender
from .packets import Packet


def count_beats(start: float, period: float, until: float,
                inclusive: bool) -> tuple[int, float]:
    """Count the grid instants ``start``, ``start + period``,
    ``(start + period) + period``, ... that fall before ``until`` (or
    at it, when ``inclusive``), as a chain of beats each scheduling the
    next would produce them.  Returns ``(count, first instant left)``.

    Float addition of a fixed period is an arithmetic progression
    inside one binade: every exact sum in ``[2**e, 2**(e+1))`` rounds
    to a multiple of the same ulp by the same number of ulps.  So each
    binade is crossed in one exact step, counted in whole ulps with
    integer arithmetic, and only the instants next to a binade edge, or
    where the sum is an exact tie, are added one at a time.
    """
    count = 0
    t = start
    while t < until or (inclusive and t == until):
        steps = 0
        if t >= period > 0.0:
            ulp = math.ulp(t)
            units = period / ulp  # exact: ulp is a power of two
            whole = math.floor(units)
            rest = units - whole
            if rest != 0.5:  # a tie rounds by parity
                step = whole + (rest > 0.5)  # ulps added per beat
                edge = math.ldexp(1.0, math.frexp(t)[1])
                # Additions whose exact sum stays inside t's binade:
                # i * step + period < edge - t, in whole ulps.
                room = int((edge - t) / ulp) - 1 - whole
                steps = room // step + 1 if room >= 0 else 0
                span = until - t
                if span < edge:  # exact: both are multiples of ulp
                    span = int(span / ulp)
                    steps = min(steps, span // step + 1 if inclusive
                                else -(-span // step))
        if steps:
            count += steps
            t += steps * step * ulp
        else:
            count += 1
            t += period
    return count, t


class _GuardedWolSender:
    """The mirror's WoL sender: silent until promotion.

    A module-level class (not a closure) so the service — part of the
    checkpointed simulation graph — pickles.
    """

    def __init__(self, service: "ReplicatedWakingService",
                 sender: WolSender) -> None:
        self._service = service
        self._sender = sender

    def __call__(self, packet, now) -> None:
        if self._service._mirror_active:
            self._sender(packet, now)


class ReplicatedWakingService:
    """Primary/mirror pair of waking modules with heartbeat failover."""

    def __init__(self, sim: EventSimulator, wol_sender: WolSender,
                 params: DrowsyParams = DEFAULT_PARAMS,
                 name: str = "rack0") -> None:
        self.sim = sim
        self.params = params
        self.primary = WakingModule(f"{name}-primary", sim, wol_sender, params)
        self.mirror = WakingModule(f"{name}-mirror", sim,
                                   _GuardedWolSender(self, wol_sender),
                                   params)
        # The mirror holds state but must not emit WoL until promoted.
        self._mirror_active = False
        self._missed_beats = 0
        self.failovers = 0
        #: Updates journaled on the standby while the active was dead
        #: (the heartbeat detection window).
        self.window_journaled = 0
        #: Packets no live module could analyze (window or total outage).
        self.unanswered_packets = 0
        #: State-changing calls dropped because both replicas were dead.
        self.lost_calls = 0
        #: Heartbeats sent so far, counted ones included; each is one
        #: logical event in ``sim.events_processed``, and the sharded
        #: reducer subtracts the duplicate per-shard monitors with it.
        self.beats = 0
        #: Next grid instant whose beat is not yet counted.
        self._next_beat = sim.now + params.heartbeat_period_s
        #: Beats are counted (primary alive and never killed); real beat
        #: events take over at :meth:`fail_primary`.
        self._counting = True

    # ------------------------------------------------------------------
    @property
    def active(self) -> WakingModule:
        return self.mirror if self._mirror_active else self.primary

    @property
    def standby(self) -> WakingModule:
        return self.primary if self._mirror_active else self.mirror

    def register_suspension(self, host: Host, waking_date_s: float | None) -> None:
        if self.active.alive:
            self.active.register_suspension(host, waking_date_s)
            self._replicate()
        elif self.standby.alive:
            # Detection window: the RPC to the active times out, but the
            # suspending module's update also rides the replication
            # channel; the standby journals it and promotion re-arms it.
            self.standby.journal_suspension(host, waking_date_s)
            self.window_journaled += 1
        else:
            self.lost_calls += 1

    def on_host_awake(self, host: Host) -> None:
        if self.active.alive:
            self.active.on_host_awake(host)
            self._replicate()
        elif self.standby.alive:
            self.standby.journal_awake(host)
            self.window_journaled += 1
        else:
            self.lost_calls += 1

    def analyze_packet(self, packet: Packet) -> bool:
        if not self.active.alive:
            # Window or total outage: analysis is unavailable; the SDN
            # switch's port-level WoL fallback covers inbound requests.
            self.unanswered_packets += 1
            return False
        return self.active.analyze_packet(packet)

    def note_vm_moved(self, ip: str, mac: str | None) -> None:
        """Map update for a VM relocated without a wake (bulk moves)."""
        if self.active.alive:
            self.active.note_vm_moved(ip, mac)
            self._replicate()
        elif self.standby.alive:
            self.standby.note_vm_moved(ip, mac)
            self.window_journaled += 1
        else:
            self.lost_calls += 1

    def _replicate(self) -> None:
        """Synchronous state mirroring after each update."""
        standby = self.standby
        if standby.alive:
            standby.state = self.active.snapshot()

    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Credit the beats the healthy primary has answered by now.

        A beat at exactly ``now`` has happened if the kernel already
        drained this instant (between runs, where ``run_until`` is
        inclusive).  Inside an event it has not: the beat was
        scheduled one period ago, after every event already queued
        for this instant, such as the hour ticks and an injected kill.
        """
        if not self._counting:
            return
        sim = self.sim
        n, self._next_beat = count_beats(
            self._next_beat, self.params.heartbeat_period_s, sim.now,
            inclusive=sim.completed_until >= sim.now)
        if n:
            self.beats += n
            sim.count_coalesced(n)

    def _heartbeat(self) -> None:
        """A beat after the primary died: the mirror notes one miss."""
        self.beats += 1
        self._missed_beats += 1
        if self._missed_beats < self.params.heartbeat_miss_limit:
            self.sim.schedule_in(self.params.heartbeat_period_s,
                                 self._heartbeat)
        elif self.mirror.alive:
            self._promote_mirror()
        # Both dead: stop monitoring, service stays degraded.

    def _promote_mirror(self) -> None:
        """Mirror takes over with the replicated state, re-arming wakes."""
        self._mirror_active = True
        self.failovers += 1
        self.mirror.restore(self.mirror.state)

    def fail_primary(self) -> None:
        """Fault injection: crash the primary module.

        Settles the counted beats, then schedules the first missed beat
        at the next grid instant; each miss schedules the next."""
        self.settle()
        self.primary.fail()
        if self._counting:
            self._counting = False
            self.sim.schedule_at(self._next_beat, self._heartbeat)

    @property
    def detection_delay_s(self) -> float:
        """Worst-case failover detection latency: from a kill just after
        a beat to the ``heartbeat_miss_limit``-th missed beat."""
        return self.params.heartbeat_period_s * self.params.heartbeat_miss_limit
