"""Adaptive consistency: per-site lockstep↔rollback switching.

The paper fixes one consistency mechanism for the whole session: local-lag
lockstep with ``BufFrame`` ≈ 100 ms.  That choice is only right while the
network cooperates — past ``RTT/2 > BufFrame · TimePerFrame`` every frame
blocks on the input gate and the game collapses to the network's pace.
Rollback (:mod:`repro.core.rollback`) keeps the frame rate at any RTT but
pays CPU for replay and misprediction artifacts the paper's LAN deployment
never needed.

This module makes the choice *per site and per RTT regime*:

* :class:`LagTuner` — the hysteretic half of adaptive local lag.  The raw
  proposal (``ceil((RTT/2 + margin) · CFPS)``) chases every RTT sample;
  the tuner applies the first resize immediately (start-up convergence)
  and afterwards requires both a deadband and a minimum interval between
  changes, so jitter cannot oscillate the lag.
* :class:`ConsistencyPolicy` — watches the *per-peer* smoothed RTT
  (:meth:`repro.core.rtt.RttEstimator.peer_rtt`) and recommends a mode
  through a hysteresis band: rollback once any peer link degrades past
  ``policy_rollback_above_s``, back to lockstep only when every link is
  below ``policy_lockstep_below_s``, with a dwell time between
  transitions.
* :class:`ModeSwitch` — the switch handshake a speculating
  :class:`~repro.core.engine.SiteEngine` built with ``adaptive=True`` owns;
  the engine runs in either mode and switches mid-session.

Switch protocol
---------------

A mode is a *local* choice: a site's lag and speculation only move where
its own frames execute, and its wire traffic (SYNC windows, acks) is
identical in both modes.  The handshake therefore carries no state — it
exists so the switch is *observable and abortable*:

1. the proposer sends ``SWITCH_REQ(seq, mode)`` to every peer and keeps
   retransmitting (control priority, never dropped by the budget),
2. each peer records the announced mode and answers ``SWITCH_ACK(seq)``
   — plain lockstep peers ack too, so mixed sessions interoperate,
3. on acks from *all* peers the proposer commits at the next frame
   boundary; if any ack is missing after ``policy_switch_timeout_s`` the
   proposal is aborted and the site stays in its current mode.

A partition during the handshake can therefore delay a switch but never
half-apply one.  Entering rollback syncs the speculative machine from the
confirmed shadow (delta pages) before the first speculation; leaving
rollback first drains speculation (the gate blocks until every
speculated frame is confirmed) so lockstep resumes from a state the
shadow has proven.  In both modes the confirmed machine is
``runtime.machine``, so the consistency trace is continuous across
switches and bit-identical to a never-switched lockstep twin (when the
lag is held constant; see ``policy_drain_lag``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.config import SyncConfig
from repro.core.engine import (
    PHASE_COMPUTE,
    PHASE_FRAME_WAIT,
    PHASE_GATE,
    SiteEngine,
)
from repro.core.inputs import InputSource
from repro.core.messages import MODE_LOCKSTEP, MODE_ROLLBACK, Message, SwitchRequest
from repro.core.rollback import PredictorSpec, build_speculative_session
from repro.core.rtt import RttEstimator


class LagTuner:
    """Hysteretic filter between the RTT estimate and ``set_local_lag``.

    ``propose`` returns the lag to apply now, or None to leave it alone.
    The first proposal is applied immediately — a session that started
    with a default lag should converge as soon as the first RTT sample
    lands.  Afterwards a change must clear ``adaptive_deadband_frames``
    *and* at least ``adaptive_window_s`` must have passed since the last
    applied change, so a monotone RTT ramp moves the lag at most once per
    window and sample jitter cannot flip it back and forth.
    """

    def __init__(self, config: SyncConfig) -> None:
        self._config = config
        self._last_change: Optional[float] = None

    def target_for(self, one_way: float) -> int:
        """The raw (unfiltered) lag target for a one-way estimate."""
        config = self._config
        needed = math.ceil((one_way + config.adaptive_margin) * config.cfps)
        return max(config.adaptive_min_buf, min(config.adaptive_max_buf, needed))

    def propose(self, now: float, one_way: float, current: int) -> Optional[int]:
        """Lag to apply now, or None (deadband / window suppressed)."""
        target = self.target_for(one_way)
        if target == current:
            return None
        config = self._config
        if self._last_change is not None:
            if abs(target - current) < config.adaptive_deadband_frames:
                return None
            if now - self._last_change < config.adaptive_window_s:
                return None
        self._last_change = now
        return target


class ConsistencyPolicy:
    """Per-peer RTT watcher recommending lockstep or rollback.

    The decision rides the *worst* peer link: lockstep blocks on the
    slowest peer's inputs, so one bad link is enough to justify
    speculation.  Hysteresis comes from two thresholds (a link must
    degrade past ``policy_rollback_above_s`` to leave lockstep but
    recover below ``policy_lockstep_below_s`` to return) plus a dwell
    time between transitions — an aborted proposal also arms the dwell,
    so a partitioned site does not spam re-proposals.
    """

    def __init__(self, config: SyncConfig) -> None:
        self._config = config
        self._last_transition: Optional[float] = None

    def note_transition(self, now: float) -> None:
        """Record a committed or aborted switch (arms the dwell timer)."""
        self._last_transition = now

    def worst_peer_rtt(self, rtt: RttEstimator, peer_sites: List[int]) -> float:
        if not peer_sites:
            return rtt.rtt
        return max(rtt.peer_rtt(site) for site in peer_sites)

    def desired_mode(
        self,
        now: float,
        rtt: RttEstimator,
        peer_sites: List[int],
        current_mode: int,
    ) -> Optional[int]:
        """Mode the site should move to, or None to stay put."""
        if not rtt.samples:
            return None
        config = self._config
        if (
            self._last_transition is not None
            and now - self._last_transition < config.policy_dwell_s
        ):
            return None
        worst = self.worst_peer_rtt(rtt, peer_sites)
        if current_mode == MODE_LOCKSTEP and worst > config.policy_rollback_above_s:
            return MODE_ROLLBACK
        if current_mode == MODE_ROLLBACK and worst < config.policy_lockstep_below_s:
            return MODE_LOCKSTEP
        return None


class _PendingSwitch:
    """A proposed mode switch awaiting acks from every peer."""

    __slots__ = ("seq", "mode", "deadline", "resend_at", "acked")

    def __init__(self, seq: int, mode: int, deadline: float) -> None:
        self.seq = seq
        self.mode = mode
        self.deadline = deadline
        self.resend_at = 0.0
        self.acked = False


class ModeSwitch:
    """Policy-driven lockstep↔rollback switching, owned by a speculating
    :class:`~repro.core.engine.SiteEngine` built with ``adaptive=True``.

    In lockstep mode the engine behaves exactly like a pinned lockstep
    site — ordinary delivery gate, ``run_transition`` on the confirmed
    machine — while its :class:`~repro.core.rollback.Speculation` keeps the
    frontier and predictor warm so a switch is cheap.  ``runtime.machine``
    is the confirmed machine in *both* modes, so the consistency trace
    never breaks across a switch.  The engine calls :meth:`poll` on its
    ~20 ms flush cadence.
    """

    #: Retransmission period for an unacked SWITCH_REQ.
    SWITCH_RESEND = 0.05

    #: Handshake-history retention (see ``switch_log``).
    SWITCH_LOG_LIMIT = 256

    def __init__(self, engine: SiteEngine) -> None:
        self.engine = engine
        self.policy = ConsistencyPolicy(engine.runtime.config)
        #: Recent handshake history as ``(kind, time, frame, mode, seq)``
        #: tuples, kind ∈ {propose, abort, commit}.  Bounded: a flapping
        #: link can propose on every policy tick for hours, and an
        #: unbounded list would grow without limit in a long-lived
        #: session.  Evictions are counted (``switch_log_evictions``) so
        #: a post-mortem knows the log is a suffix, not the whole story.
        self.switch_log: Deque[Tuple[str, float, int, int, int]] = deque(
            maxlen=self.SWITCH_LOG_LIMIT
        )
        self._pending: Optional[_PendingSwitch] = None
        #: True while leaving rollback: the gate blocks until every
        #: speculated frame is confirmed, then the mode flips.
        self.settling = False
        self._seq = 0

    def _log(self, kind: str, now: float, frame: int, mode: int, seq: int) -> None:
        log = self.switch_log
        if len(log) == log.maxlen:
            self.engine.runtime.metrics.switch_log_evictions.inc()
        log.append((kind, now, frame, mode, seq))

    def poll(self, now: float) -> List[Tuple[Message, str]]:
        """Advance the policy and any open handshake; returns the
        SWITCH_REQ datagrams due now."""
        engine = self.engine
        runtime = engine.runtime
        if not runtime.session.started or engine.done:
            return []
        active = engine.phase in (PHASE_GATE, PHASE_COMPUTE, PHASE_FRAME_WAIT)
        pending = self._pending
        if pending is not None:
            if not active:
                # The frame horizon arrived mid-handshake; the proposal
                # is moot (peers already recorded the announced mode,
                # which is harmless telemetry).
                self._pending = None
                return []
            if not pending.acked and all(
                runtime.switch_acks.get(site, -1) >= pending.seq
                for site in runtime.peer_sites
            ):
                pending.acked = True
            if pending.acked:
                # Commit only at a frame boundary: in PHASE_COMPUTE a
                # merged word is in flight for the wrong machine.
                if engine.phase != PHASE_COMPUTE:
                    self._pending = None
                    self._commit(pending.mode, now)
                return []
            if now >= pending.deadline:
                self._pending = None
                self.policy.note_transition(now)
                runtime.events.emit(
                    "switch_abort",
                    now,
                    runtime.frame,
                    mode=pending.mode,
                    seq=pending.seq,
                )
                self._log("abort", now, runtime.frame, pending.mode, pending.seq)
                return []
            if now >= pending.resend_at:
                return self._requests(pending, now)
            return []
        if self.settling or not active:
            return []
        desired = self.policy.desired_mode(
            now, runtime.rtt, runtime.peer_sites, engine.mode
        )
        if desired is None or desired == engine.mode:
            return []
        self._seq += 1
        pending = self._pending = _PendingSwitch(
            seq=self._seq,
            mode=desired,
            deadline=now + runtime.config.policy_switch_timeout_s,
        )
        runtime.events.emit(
            "switch_propose", now, runtime.frame, mode=desired, seq=pending.seq
        )
        self._log("propose", now, runtime.frame, desired, pending.seq)
        return self._requests(pending, now)

    def _requests(
        self, pending: _PendingSwitch, now: float
    ) -> List[Tuple[Message, str]]:
        runtime = self.engine.runtime
        pending.resend_at = now + self.SWITCH_RESEND
        message = SwitchRequest(
            sender_site=runtime.site_no,
            session_id=runtime.session_id,
            seq=pending.seq,
            mode=pending.mode,
            frame=runtime.frame,
        )
        out: List[Tuple[Message, str]] = []
        for site in runtime.peer_sites:
            if runtime.switch_acks.get(site, -1) >= pending.seq:
                continue
            destination = runtime.address_of.get(site)
            if destination is not None:
                out.append((message, destination))
        return out

    def _commit(self, mode: int, now: float) -> None:
        if mode == MODE_ROLLBACK:
            # The shadow has executed every delivered frame; bring the
            # (stale since the last rollback stint) speculative machine
            # up to it before the first speculation.
            speculation = self.engine.speculation
            speculation.sync_from_shadow()
            speculation.used_inputs.clear()
            self.finish(MODE_ROLLBACK, now)
            lockstep = self.engine.runtime.lockstep
            if self.engine.runtime.config.policy_drain_lag and lockstep.local_lag_frames:
                lockstep.set_local_lag(0)
        else:
            # Leaving rollback takes two steps: the gate first drains
            # speculation (see SiteEngine._try_ready), then the mode flips.
            self.settling = True

    def finish(self, mode: int, now: float) -> None:
        """Flip the engine's mode: the committed end of a switch."""
        engine = self.engine
        self.settling = False
        engine.mode = mode
        engine.policy_switch_count += 1
        self.policy.note_transition(now)
        runtime = engine.runtime
        runtime.metrics.policy_switches.inc()
        runtime.events.emit("switch_commit", now, runtime.frame, mode=mode)
        self._log("commit", now, runtime.frame, mode, self._seq)


#: The benchmark (``perfbench/``) is this name's only reader: it imports it
#: to instrument the engine class of adaptive sessions.
AdaptiveEngine = SiteEngine


def build_adaptive_session(
    game_factory,
    sources: List[InputSource],
    netem,
    frames: int = 600,
    seed: int = 7,
    speculation_window: int = 60,
    frame_compute_time: float = 0.002,
    config: Optional[SyncConfig] = None,
    predictor: PredictorSpec = None,
    initial_mode: int = MODE_LOCKSTEP,
    game_id: str = "adaptive",
):
    """Wire an adaptive-consistency session on the simulator.

    Every site's :class:`~repro.core.engine.SiteEngine` is policy-driven
    (``adaptive=True``) and may switch modes mid-session under the
    configured consistency policy; the paper's default local lag is the
    lockstep starting point.
    """
    return build_speculative_session(
        game_factory,
        sources,
        netem,
        config=config if config is not None else SyncConfig(),
        game_id=game_id,
        frames=frames,
        seed=seed,
        frame_compute_time=frame_compute_time,
        speculation_window=speculation_window,
        predictor=predictor,
        adaptive=True,
        initial_mode=initial_mode,
    )
