"""Late joiners — savestate transfer plus catch-up (journal extension).

The conference paper's journal version addresses "how to accommodate late
comers".  The mechanism implemented here:

1. The joiner (already listed in the session's input assignment, but absent
   from the start handshake) wakes at ``join_time`` and sends
   ``STATE_REQUEST`` to a donor site until a ``STATE_SNAPSHOT`` arrives.
2. The donor answers at a frame boundary with its machine state *after*
   executing frame ``f`` (so the snapshot is a consistent replica state).
3. The joiner loads the state, seeds its lockstep pointer at ``f + 1``, and
   enters the ordinary frame loop.  Its first ack vector tells the peers it
   holds everything through ``f``, so they stream inputs from ``f + 1`` —
   the normal retransmission path, no special catch-up protocol.
4. A joining *player* (not just an observer) additionally needs peers to
   know from which frame its input bits start gating delivery:
   :meth:`LockstepSync.admit_site` with ``f + 1 + BufFrame`` (its first
   buffered input lands there); earlier frames treat its bits as empty.

Observers join with zero impact on players; joining players briefly stall
peers only if the snapshot transfer outlives their input buffers' lag
window, exactly as a real deployment would.

Note on snapshot cost: the transfer deliberately uses a *full*
``save_state`` blob, not the delta protocol from docs/performance.md — a
cold joiner shares no lineage with the donor, so there is no common base
state for a delta to patch.  The donor pays this once per join; its
per-frame checksum/trace costs are unaffected (those ride the incremental
page-CRC path).

Joining is a start phase of the one engine, not a separate class: a
:class:`~repro.core.engine.SiteEngine` given a ``donor_site`` skips the
start handshake and runs an *acquire* phase instead (a request timer plus
the snapshot wait), then enters the ordinary frame loop.  Any driver can
host it: on the simulator, a :class:`~repro.core.vm.DistributedVM` whose
``start_delay`` is the join time; over real UDP, an
:class:`~repro.core.aio.AioSite` whose ``run()`` starts late.  A donor that
never answers ends the joiner like an unanswered handshake:
``termination == "handshake-timeout"`` after
``config.handshake_timeout_s``.

A crashed-and-restarted site rejoins its suspended session the same way,
given ``last_acked_frame`` as well:

* the request is a :class:`~repro.core.messages.Resume` carrying the last
  own frame the donor was seen to ack (the authentication cookie),
* the lockstep vectors are seeded with
  :meth:`~repro.core.lockstep.LockstepSync.resume_from_snapshot` — the
  donor already holds our inputs through the snapshot frame, so our
  still-unacked window must stay unacked,
* the input backlog for that window is *replayed* from the local source
  (sources are deterministic functions of the frame number), producing
  bit-identical words, so the resumed run's checksums match a
  never-disconnected twin.

This module holds both halves: :class:`Acquisition`, the acquire phase a
joining engine owns, and :func:`register_late_join`, which prepares the
running sites for a joiner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.messages import Message, Resume, StateRequest

if TYPE_CHECKING:
    from repro.core.engine import SiteRuntime


class Acquisition:
    """The acquire phase of a joining site: request the donor's savestate
    until one lands, then seat the site's machine and sync vectors on it.

    ``last_acked_frame`` None makes this a cold late join; a frame number
    (the resume cookie) makes it a crashed site resuming its own seat.
    """

    def __init__(
        self,
        runtime: SiteRuntime,
        donor_site: int,
        last_acked_frame: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.donor_site = donor_site
        self.last_acked_frame = last_acked_frame

    def request(self) -> Tuple[Message, str]:
        """The (message, destination) re-sent until a snapshot arrives."""
        runtime = self.runtime
        if self.last_acked_frame is None:
            message: Message = StateRequest(runtime.site_no, runtime.session_id)
        else:
            message = Resume(
                runtime.site_no, runtime.session_id, self.last_acked_frame
            )
        return message, runtime.address_of[self.donor_site]

    def seat(self, now: float) -> bool:
        """Load the donor's snapshot if one landed and seat the sync
        vectors around it; True once seated (``runtime.frame`` is then the
        first frame to execute)."""
        runtime = self.runtime
        snapshot = runtime.latest_snapshot
        if snapshot is None:
            return False
        if not snapshot.crc_ok():
            # Corrupted in flight: drop it and let the request timer
            # re-ask the donor (whose cache re-serves the same frame).
            runtime.latest_snapshot = None
            runtime.metrics.state_crc_errors.inc()
            runtime.events.emit(
                "state_crc_error",
                now,
                runtime.frame,
                peer=snapshot.sender_site,
                at=snapshot.frame,
            )
            return False
        runtime.machine.load_state(snapshot.state)
        runtime.metrics.on_state_acquired(len(snapshot.state))
        runtime.events.emit(
            "state_acquire",
            now,
            snapshot.frame + 1,
            snapshot_frame=snapshot.frame,
            bytes=len(snapshot.state),
        )
        lockstep = runtime.lockstep
        buf_frame = runtime.config.buf_frame
        # The admission gate peers apply is snapshot + 1 + the
        # *configured* BufFrame; pin our lag there so our first input
        # lands exactly on it (adaptive lag, if enabled, resumes
        # afterwards).
        lockstep.set_local_lag(buf_frame)
        if self.last_acked_frame is None:
            lockstep.seed_from_snapshot(snapshot.frame, snapshot.backlog)
        else:
            # Resume: the donor already holds our inputs through the
            # snapshot frame, so our still-unacked window must stay
            # unacked.  Replay it (f+1-buf .. f) from the source — sources
            # are deterministic in the frame number, so the words are
            # bit-identical; with local lag they land on slots f+1 ..
            # f+buf, which the donor has not acked, so the ordinary pump
            # retransmits them.
            lockstep.resume_from_snapshot(snapshot.frame, snapshot.backlog)
            first = max(0, snapshot.frame + 1 - buf_frame)
            for frame in range(first, snapshot.frame + 1):
                lockstep.buffer_local_input(frame, runtime.source.get(frame))
            runtime.metrics.resumes.inc()
        runtime.frame = snapshot.frame + 1
        runtime.trace.first_frame = runtime.frame
        # The joiner never ran the start handshake; it is live now (and
        # must stop offering HELLO to the master).
        runtime.session.mark_live(now)
        return True


def register_late_join(session_vms, donor_vm, joiner_site: int) -> None:
    """Prepare a running session for a late joiner.

    * every present site marks the joiner absent (no sync traffic to it, no
      gating on it, no pruning hold-back),
    * the donor accepts ``STATE_REQUEST``s,
    * when the donor serves a snapshot at frame ``f``, every present site
      admits the joiner: its inputs gate from ``f + 1 + BufFrame`` (the
      first frame its locally-lagged input can land on) and retransmission
      windows to it start at ``f + 1``.

    In a deployment the admit broadcast rides the session-control channel;
    the harness applies it synchronously, which is equivalent as long as
    no present site is more than ``BufFrame`` frames ahead of the donor —
    lockstep guarantees that.
    """
    buf_frame = donor_vm.runtime.config.buf_frame
    for vm in session_vms:
        if vm.runtime.site_no != joiner_site:
            vm.runtime.lockstep.mark_absent(joiner_site)
    donor_vm.runtime.allow_state_requests = True

    def on_served(site: int, snapshot_frame: int) -> None:
        first_gating = snapshot_frame + 1 + buf_frame
        for vm in session_vms:
            if vm.runtime.site_no != joiner_site:
                vm.runtime.lockstep.admit_site(
                    site, first_gating, ack_hint=snapshot_frame
                )

    donor_vm.engine.on_snapshot_served = on_served
