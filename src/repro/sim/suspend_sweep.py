"""Suspend checks that run only when their verdict can change.

The suspending module polls each host every ``suspend_check_period_s``
(paper §IV).  A verdict depends on the hour's activity, the host's VMs,
blocked I/O and the grace window, so between two changes of those
inputs every poll repeats the same answer.  The fixed-period oracle
(``EventConfig(use_batched_checks=False)``) still runs one heap event
per host per period; :class:`SuspendSweepScheduler` runs only the polls
whose answer can differ and *counts* the rest.

* **When to check.**  After a non-suspending verdict at ``now`` the
  engine passes the instant the verdict can next change (the next hour
  boundary, or the grace expiry).  The real check lands on the first
  point of the host's own fixed-period grid (``now + period + period +
  ...``, iterated float addition, exactly the oracle's chain) at or
  after that instant, found with :func:`~repro.waking.failover.count_beats`.
* **Dirty hosts.**  A placement change or a blocked-I/O toggle between
  hour boundaries re-arms the host (:meth:`touch`) at the first grid
  point whose oracle check would see the change.
* **Counted polls.**  Every skipped grid instant is credited to the
  host's ``decision_counts`` under the verdict it would have repeated,
  and to ``events_processed`` through ``count_coalesced``: when the real
  check fires, when a re-arm or cancel lands, and when the engine
  settles at hour ticks and at the end of a run.  ``events_processed``
  and ``decision_counts`` therefore equal the oracle's at every hour.
* **One event per deadline.**  Hosts due at the same instant share a
  bucket and one sweep event; the sweep credits ``k - 1`` coalesced
  events for ``k`` due hosts.

Order matches the oracle.  A host's check at a grid instant was
scheduled, in the oracle, by its check one period earlier, so hosts on
one grid keep the order they joined it in.  Each host carries a rank
that survives re-arms; due hosts are swept in rank order.  A host that
joins a grid goes in front of the grid's hosts when the joining event
was queued before their checks (an hour tick, a crash recovery), and
behind them otherwise (a resume).  Whether an event comes before a
host's check at the same instant is decided the same way: by the
event's sequence number against the watermark taken when the check's
predecessor was scheduled, or, further along the grid, by when the
event was queued (:attr:`~repro.cluster.events.Event.born`).
"""

from __future__ import annotations

from typing import Callable

from ..cluster.events import Event, EventSimulator
from ..cluster.host import Host
from ..core.params import DEFAULT_PARAMS
from ..waking.failover import count_beats

#: Rank offset between groups of hosts that join a grid in front.
_FRONT = 1 << 64


class _Bucket:
    """Hosts registered for one sweep deadline."""

    __slots__ = ("entries", "live", "event")

    def __init__(self) -> None:
        #: (host, token) in registration order.
        self.entries: list[tuple[Host, int]] = []
        self.live = 0
        self.event: Event | None = None


class _Registration:
    """One host's pending check and the polls it stands in for."""

    __slots__ = ("deadline", "token", "first", "mark", "start", "owed",
                 "counts", "decision", "change_at")

    def __init__(self, deadline: float, token: int, first: float,
                 mark: int, owed: int = 0, counts: dict | None = None,
                 decision=None, change_at: float | None = None) -> None:
        self.deadline = deadline
        self.token = token
        #: The first grid instant after the last real check (or join)
        #: and the kernel watermark taken then: an event with a lower
        #: sequence number was queued before that check's successor.
        self.first = first
        self.mark = mark
        #: ``owed`` skipped grid instants from ``start`` on, all before
        #: ``deadline`` and before ``change_at``, still to be credited
        #: to ``counts[decision]``.
        self.start = first
        self.owed = owed
        self.counts = counts
        self.decision = decision
        self.change_at = deadline if change_at is None else change_at


class SuspendSweepScheduler:
    """Per-host suspend-check deadlines with counted skipped polls.

    ``sweep(now, due_hosts)`` is the engine's batched evaluator; it is
    invoked with the live registrants of a deadline in grid order and
    is responsible for re-arming hosts via :meth:`schedule`.
    """

    def __init__(self, sim: EventSimulator,
                 sweep: Callable[[float, list[Host]], None],
                 period: float = DEFAULT_PARAMS.suspend_check_period_s
                 ) -> None:
        self.sim = sim
        self._sweep = sweep
        self.period = period
        self._buckets: dict[float, _Bucket] = {}
        #: host name -> its live registration.
        self._member: dict[str, _Registration] = {}
        #: host name -> sweep order on its grid (kept across re-arms).
        self._rank: dict[str, int] = {}
        self._token = 0
        self._front_at: float | None = None
        self._front_base = 0
        #: Sweep events fired, checks evaluated, and skipped polls
        #: credited; ``checks_performed + checks_credited`` is the
        #: fixed-period oracle's check count.
        self.sweeps_fired = 0
        self.checks_performed = 0
        self.checks_credited = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of hosts with a live registration."""
        return len(self._member)

    def next_deadline(self, host: Host) -> float | None:
        """The host's registered check deadline, or None."""
        reg = self._member.get(host.name)
        return reg.deadline if reg is not None else None

    def schedule(self, host: Host, deadline: float,
                 counts: dict | None = None, decision=None) -> None:
        """Register (or re-arm) the host's next check.

        Without ``counts`` this is a fresh registration at ``deadline``
        (run start, resume, recovery), which joins the grid starting
        there.  With ``counts`` the host has just been checked at
        ``now`` and voted ``decision``, which cannot change before
        ``deadline``: the check goes on the first point of the host's
        grid at or after ``deadline``, and the polls skipped on the way
        are credited to ``counts[decision]``.
        """
        name = host.name
        self.cancel(host)
        sim = self.sim
        if counts is None:
            self._rank[name] = self._join_rank()
            reg = _Registration(deadline, 0, deadline, sim.watermark())
        else:
            first = sim.now + self.period
            owed, at = (count_beats(first, self.period, deadline, False)
                        if deadline > first else (0, first))
            reg = _Registration(at, 0, first, sim.watermark(), owed, counts,
                                decision, deadline)
        self._register(host, reg)

    def touch(self, host: Host) -> None:
        """The host's verdict inputs changed: move its check to the
        first grid instant whose oracle check sees the change."""
        reg = self._member.get(host.name)
        if reg is None:
            return
        now = self.sim.now
        if reg.start > now:
            owed, at = 0, reg.start
        else:
            ran = not self._event_first(reg, now)
            if not ran and reg.change_at == now:
                return  # already due at the first grid instant >= now
            owed, at = count_beats(reg.start, self.period, now, ran)
        if at >= reg.deadline:
            return
        self._credit(reg, owed)
        self._unlink(host, reg)
        reg.deadline = reg.start = reg.change_at = at
        reg.owed = 0
        self._register(host, reg)

    def cancel(self, host: Host) -> None:
        """Drop the host's live registration, if any, crediting the
        polls that ran before now."""
        reg = self._member.pop(host.name, None)
        if reg is None:
            return
        now = self.sim.now
        if reg.owed and reg.start <= now:
            if reg.change_at <= now:
                owed = reg.owed
            else:
                owed = min(reg.owed, count_beats(
                    reg.start, self.period, now,
                    not self._event_first(reg, now))[0])
            self._credit(reg, owed)
        self._unlink(host, reg)

    def settle(self, until: float, inclusive: bool) -> None:
        """Credit every skipped poll before ``until`` (or at it, when
        ``inclusive``), so the counters read what the oracle's would."""
        period = self.period
        for reg in self._member.values():
            if not reg.owed:
                continue
            if reg.change_at <= until:
                owed, start = reg.owed, reg.deadline
            else:
                owed, start = count_beats(reg.start, period, until,
                                          inclusive)
                if owed >= reg.owed:
                    owed, start = reg.owed, reg.deadline
            if owed:
                self._credit(reg, owed)
                reg.start = start

    # ------------------------------------------------------------------
    def _event_first(self, reg: _Registration, now: float) -> bool:
        """Did the running event come before the oracle's check of this
        host at ``now``?  Between runs every event at ``now`` has run."""
        ev = self.sim.current
        if ev is None:
            return False
        if now == reg.first:
            return ev.seq < reg.mark
        # The oracle queued its check at ``now`` one period earlier.
        return ev.born + self.period <= now

    def _join_rank(self) -> int:
        """Rank of a host joining a grid at ``now``: in front of the
        grid's hosts when the joining event precedes their checks."""
        sim = self.sim
        self._token += 1
        ev = sim.current
        if ev is not None and ev.born + self.period <= sim.now:
            if self._front_at != sim.now:
                self._front_at = sim.now
                self._front_base -= _FRONT
            return self._front_base + self._token
        return self._token

    def _credit(self, reg: _Registration, owed: int) -> None:
        if owed:
            reg.counts[reg.decision] += owed
            reg.owed -= owed
            self.checks_credited += owed
            self.sim.count_coalesced(owed)

    def _register(self, host: Host, reg: _Registration) -> None:
        bucket = self._buckets.get(reg.deadline)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[reg.deadline] = bucket
            bucket.event = self.sim.schedule_at(reg.deadline, self._fire,
                                                reg.deadline)
        self._token += 1
        reg.token = self._token
        bucket.entries.append((host, self._token))
        bucket.live += 1
        self._member[host.name] = reg

    def _unlink(self, host: Host, reg: _Registration) -> None:
        """Take ``reg`` out of its bucket (O(1) tombstone)."""
        self._member.pop(host.name, None)
        bucket = self._buckets.get(reg.deadline)
        if bucket is None:
            return
        bucket.live -= 1
        if bucket.live == 0:
            # Matches the per-host path, where cancelling the last check
            # at a timestamp leaves no event to process (or count).
            if bucket.event is not None:
                bucket.event.cancel()
            del self._buckets[reg.deadline]

    def _fire(self, deadline: float) -> None:
        bucket = self._buckets.pop(deadline, None)
        if bucket is None:  # pragma: no cover - cancel() removes eagerly
            return
        member = self._member
        due: list[Host] = []
        for host, token in bucket.entries:
            # Tokens are globally unique, so a token match implies the
            # registration is this bucket's (and still live).
            reg = member.get(host.name)
            if reg is not None and reg.token == token:
                del member[host.name]
                if reg.owed:
                    self._credit(reg, reg.owed)
                due.append(host)
        if not due:  # pragma: no cover - guarded by bucket.live
            return
        if len(due) > 1:
            rank = self._rank
            due.sort(key=lambda h: rank[h.name])
        # The sweep stands in for len(due) per-host check events.
        self.sim.count_coalesced(len(due) - 1)
        self.sweeps_fired += 1
        self.checks_performed += len(due)
        self._sweep(deadline, due)
