"""Timewarp/rollback synchronization — the road the paper did not take.

§5: *"Timewarp needs to rollback application states, which may be used in
realtime systems if the costs of rolling back are not too high.  It is not
applicable for solving our problem because rolling back states of a
distributed game without semantic knowledge can be expensive."*

The Machine contract already gives us game-transparent savestates, so the
claim is measurable.  A :class:`~repro.core.engine.SiteEngine` handed a
speculative machine owns a :class:`Speculation` and, in rollback mode,
plays with **zero local lag**:

* local inputs land in their own frame's slot (``BufFrame = 0``),
* the *speculative* machine executes every frame immediately, guessing
  missing remote inputs through a pluggable :class:`InputPredictor`
  (hold-last-confirmed, repeat-last-heard, or the per-game heuristic that
  decays impulse buttons — see :func:`make_predictor`),
* a *shadow* machine executes only confirmed inputs (ordinary lockstep
  delivery) and therefore always holds a provably consistent state,
* when a confirmed input contradicts a prediction, the speculative machine
  is restored from the shadow and the unconfirmed suffix is replayed —
  classic rollback, with the shadow replacing a snapshot ring, so memory
  stays O(1).  The restore uses the Machine contract's delta snapshots
  (``save_delta``/``apply_delta``): only pages either machine dirtied
  since their last sync are copied, so a typical restore moves a few KiB
  instead of the full 64 KiB state (``RollbackStats`` reports the bytes
  actually copied); machines without page tracking transparently fall
  back to full ``save_state``/``load_state``.

Logical consistency is *defined* by the shadow: its trace is what the
consistency checker verifies, and it is byte-identical to what a lockstep
run would produce.  What rollback buys is responsiveness (0 ms input
latency instead of the paper's 100 ms); what it costs is exactly the
replay work measured by :class:`RollbackStats` — the quantity the paper's
argument hinges on.

Reliable input distribution, acks, retransmission and pruning are all
reused unchanged from :class:`~repro.core.lockstep.LockstepSync`; in
rollback mode the engine only swaps the SyncInput gate (speculation-window
check instead of delivery) and the commit (speculative step instead of
``run_transition``), plus a catch-up phase confirming in-flight frames
before the ordinary linger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.core.config import SyncConfig
from repro.core.inputs import BITS_PER_PLAYER, InputAssignment, InputSource

if TYPE_CHECKING:
    from repro.core.engine import GameMachine, SiteRuntime


def _state_mark(machine: GameMachine) -> int:
    """Duck-typed ``Machine.state_mark`` (0 for protocol-only machines)."""
    mark = getattr(machine, "state_mark", None)
    return mark() if mark is not None else 0


def _dirty_pages(machine: GameMachine, mark: int) -> Optional[List[int]]:
    """Duck-typed ``Machine.dirty_pages_since`` (None ⇒ no page tracking)."""
    dirty = getattr(machine, "dirty_pages_since", None)
    return dirty(mark) if dirty is not None else None


# ----------------------------------------------------------------------
# Input prediction.
# ----------------------------------------------------------------------
def _directional_mask(word: int) -> int:
    """Word-wide mask selecting every player's directional nibble.

    The pad layout (:mod:`repro.core.inputs`) puts UP/DOWN/LEFT/RIGHT in
    the low nibble of each player byte and the impulse buttons
    (A/B/START/COIN) in the high one; the two nibbles have very different
    temporal statistics, which the heuristic predictor exploits.
    """
    mask = 0x0F
    shift = BITS_PER_PLAYER
    while word >> shift:
        mask |= 0x0F << shift
        shift += BITS_PER_PLAYER
    return mask


class InputPredictor:
    """Strategy for guessing a site's not-yet-received pad state.

    The engine feeds every input it learns through :meth:`observe` —
    confirmed (delivered in lockstep order) or merely received (present
    in the buffer ahead of the confirmation frontier) — and asks
    :meth:`predict` for frames it must speculate past.  Predictions only
    affect replay cost, never consistency: the confirmed shadow machine
    defines the session outcome whatever the predictor returns.
    """

    name = "base"

    def __init__(self) -> None:
        #: Newest confirmed (frame, bits) per site.
        self._confirmed: Dict[int, Tuple[int, int]] = {}
        #: Newest known (frame, bits) per site, received-but-unconfirmed
        #: values included.
        self._seen: Dict[int, Tuple[int, int]] = {}

    def observe(self, site: int, frame: int, bits: int, confirmed: bool = True) -> None:
        newest = self._seen.get(site)
        if newest is None or frame >= newest[0]:
            self._seen[site] = (frame, bits)
        if confirmed:
            previous = self._confirmed.get(site)
            if previous is None or frame >= previous[0]:
                self._confirmed[site] = (frame, bits)

    def predict(self, site: int, frame: int) -> int:
        raise NotImplementedError


class NaivePredictor(InputPredictor):
    """Hold each site's last *confirmed* pad state (the original scheme)."""

    name = "naive"

    def predict(self, site: int, frame: int) -> int:
        entry = self._confirmed.get(site)
        return entry[1] if entry is not None else 0


class RepeatLastPredictor(InputPredictor):
    """Repeat the newest pad state heard from the site, confirmed or not.

    Inputs regularly arrive ahead of the confirmation frontier (they wait
    on another site's gap, or on our own flush); repeating the freshest
    value instead of the last confirmed one shaves the staleness window.
    """

    name = "repeat-last"

    def predict(self, site: int, frame: int) -> int:
        entry = self._seen.get(site)
        return entry[1] if entry is not None else 0


class HeuristicPredictor(RepeatLastPredictor):
    """Repeat-last with per-game impulse decay.

    Directional bits are held indefinitely (players hold directions for
    runs of frames), but the impulse nibble — taps of A/B/START/COIN — is
    predicted *released* once the extrapolation runs more than
    ``impulse_hold`` frames past the newest observation: predicting a tap
    as held forever costs a guaranteed rollback at its release edge.
    ``impulse_hold`` is the expected *remaining* held time after an
    observation — one less than the game's typical tap length (a 2-frame
    tap seen at its first frame persists exactly 1 more frame) — from
    :data:`GAME_IMPULSE_HOLD`.  Over-holding is the costly direction:
    hold 2 on 2-frame taps halves the measured gain because most
    rollback-replay predictions happen 1–2 frames past the newest
    observation, inside the hold, where no decay ever fires.
    """

    name = "heuristic"

    def __init__(self, impulse_hold: int = 1) -> None:
        super().__init__()
        self.impulse_hold = impulse_hold

    def predict(self, site: int, frame: int) -> int:
        entry = self._seen.get(site)
        if entry is None:
            return 0
        observed_frame, bits = entry
        if frame - observed_frame > self.impulse_hold:
            bits &= _directional_mask(bits)
        return bits

    @classmethod
    def for_game(cls, game_id: Optional[str]) -> "HeuristicPredictor":
        hold = GAME_IMPULSE_HOLD.get(game_id or "", 1)
        return cls(impulse_hold=hold)


#: Per-game tuning of the heuristic predictor's impulse extrapolation
#: depth: frames a pressed button is still predicted held past its last
#: observation, i.e. typical tap length minus one.  Tap-driven games
#: want short holds; charge/hold games longer ones.  The bench's
#: predictor comparison (``measure_predictor_comparison``) is the
#: instrument for tuning these.
GAME_IMPULSE_HOLD: Dict[str, int] = {
    "counter": 1,
    "pong": 1,
    "tankduel": 2,
    "brawler": 1,
}

#: Registry for name-based predictor selection (CLI, bench, tests).
PREDICTORS = {
    NaivePredictor.name: NaivePredictor,
    RepeatLastPredictor.name: RepeatLastPredictor,
    HeuristicPredictor.name: HeuristicPredictor,
}

PredictorSpec = Union[str, InputPredictor, None]


def make_predictor(spec: PredictorSpec, game_id: Optional[str] = None) -> InputPredictor:
    """Resolve a predictor from a name, an instance, or None (default).

    The default is the per-game heuristic — the measured best on
    realistic tap/hold input (see the rollback bench's predictor
    comparison); pass ``"naive"`` for the original hold-last-confirmed
    behaviour.
    """
    if isinstance(spec, InputPredictor):
        return spec
    if spec is None or spec == HeuristicPredictor.name:
        return HeuristicPredictor.for_game(game_id)
    klass = PREDICTORS.get(spec)
    if klass is None:
        raise ValueError(
            f"unknown predictor {spec!r}; choose from {sorted(PREDICTORS)}"
        )
    return klass()


class RollbackStats:
    """Cost accounting for the speculation machinery."""

    def __init__(self) -> None:
        self.speculative_frames = 0
        self.confirmed_frames = 0
        #: Confirmed frames whose input word had been speculated (the
        #: denominator of the hit ratio).
        self.predicted_frames = 0
        self.mispredicted_frames = 0
        self.rollbacks = 0
        self.replayed_frames = 0
        self.max_replay_depth = 0
        self.speculation_stalls = 0
        #: Snapshot traffic of the shadow→speculative restores: number of
        #: syncs, bytes actually serialized, and what full savestates would
        #: have cost instead (the paper's "rolling back is expensive" cost).
        self.snapshot_syncs = 0
        self.snapshot_bytes_copied = 0
        self.snapshot_bytes_full = 0

    @property
    def predict_hit_ratio(self) -> float:
        """Fraction of speculated frames whose input guess held up."""
        if not self.predicted_frames:
            return 1.0
        return 1.0 - self.mispredicted_frames / self.predicted_frames

    def as_dict(self) -> dict:
        out = dict(vars(self))
        out["predict_hit_ratio"] = round(self.predict_hit_ratio, 4)
        return out


class Speculation:
    """The speculative half of a rollback site, owned by its engine.

    ``runtime.machine`` stays the confirmed *shadow*: it executes only
    delivered (confirmed) inputs, so its trace is the one the consistency
    checker and the state digests see.  ``machine`` runs ahead of it on
    predicted inputs:

    * ``window`` — how many frames speculation may run ahead of
      confirmation before the site blocks (bounds replay cost and keeps a
      network partition from spinning the CPU),
    * ``predictor`` — an :class:`InputPredictor` (or registry name) that
      guesses not-yet-received remote inputs.

    The engine keeps the frontier bookkeeping warm in lockstep mode too
    (:meth:`deliver`), so a policy switch into rollback is cheap.
    """

    def __init__(
        self,
        runtime: SiteRuntime,
        machine: GameMachine,
        max_frames: int,
        window: int = 60,
        predictor: PredictorSpec = None,
    ) -> None:
        self.runtime = runtime
        self.machine = machine
        self.max_frames = max_frames
        self.window = window
        self.predictor = make_predictor(predictor, runtime.game_id)
        self.stats = RollbackStats()
        # Mirror for SiteMetrics.refresh (duck-typed runtime attribute).
        runtime.rollback_stats = self.stats
        # Delta-snapshot marks: pages either machine dirties after these
        # marks are exactly what the next shadow→spec restore must copy
        # (both machines are freshly built and identical right now).
        self._shadow_mark = _state_mark(runtime.machine)
        self._spec_mark = _state_mark(machine)
        self._full_state_size: Optional[int] = None
        #: Input word the speculative machine used per frame.
        self.used_inputs: Dict[int, int] = {}
        #: Count of frames delivered to the shadow (frontier + 1).
        self.confirmed_count = 0

    @property
    def confirmed_frontier(self) -> int:
        """Last frame whose inputs are fully confirmed (executed by shadow)."""
        return self.confirmed_count - 1

    def predict_input(self, frame: int) -> int:
        """Best-known merged input for ``frame``: exact partials where
        received, the predictor's guess where not."""
        lockstep = self.runtime.lockstep
        predictor = self.predictor
        partials = {}
        for site in range(lockstep.num_sites):
            value = lockstep.ibuf.get(frame, site)
            if value is None:
                # Feed the predictor the site's newest *arrived* pad state
                # first: sync windows land several frames at once, and
                # without this the extrapolation base would trail at the
                # confirmation frontier instead of the freshest data.
                newest = lockstep.last_rcv_frame[site]
                if newest < frame:
                    heard = lockstep.ibuf.get(newest, site)
                    if heard is not None:
                        predictor.observe(site, newest, heard, confirmed=False)
                value = predictor.predict(site, frame)
            else:
                predictor.observe(site, frame, value, confirmed=False)
            partials[site] = value
        return lockstep.assignment.merge(partials)

    def _observe_confirmed(self, frame: int) -> None:
        """Feed each site's confirmed pad state for ``frame`` to the
        predictor before delivery prunes it."""
        lockstep = self.runtime.lockstep
        for site in range(lockstep.num_sites):
            value = lockstep.ibuf.get(frame, site)
            if value is not None:
                self.predictor.observe(site, frame, value, confirmed=True)

    def deliver(self) -> Optional[int]:
        """Lockstep mode's delivery gate, keeping predictor and frontier
        state warm for a later switch into rollback."""
        lockstep = self.runtime.lockstep
        if not lockstep.can_deliver():
            return None
        self._observe_confirmed(lockstep.ibuf_pointer)
        merged = lockstep.deliver()
        self.confirmed_count += 1
        return merged

    def advance_shadow(self) -> Optional[int]:
        """Deliver any newly confirmed frames into the shadow machine.

        Returns the first mispredicted frame among them, or None.
        """
        runtime = self.runtime
        lockstep = runtime.lockstep
        stats = self.stats
        first_bad: Optional[int] = None
        # The shadow must never pass the speculation: only frames the spec
        # machine has executed (0..frame-1) may confirm, else the
        # `used_inputs` misprediction check is skipped for the overtaken
        # frame.  Unreachable at zero lag (slot `frame` completes during
        # that frame's own speculation), but with local lag kept (adaptive
        # policy) the buffer holds completed slots ahead of the spec — and
        # past max_frames — that must wait or never execute.
        while (
            lockstep.can_deliver()
            and lockstep.ibuf_pointer < runtime.frame
            and lockstep.ibuf_pointer < self.max_frames
        ):
            frame = lockstep.ibuf_pointer
            self._observe_confirmed(frame)
            merged = lockstep.deliver()
            self.confirmed_count += 1
            runtime.machine.step(merged)
            checksum = runtime.machine.checksum()
            runtime.trace.record_frame(
                merged,
                checksum,
                stall=0.0,
                sync_adjust=0.0,
                lag=0,
            )
            # Digests sample the *confirmed* timeline only: speculative
            # frames (and their rollbacks) are invisible to peers.
            runtime.note_own_digest(frame, checksum)
            stats.confirmed_frames += 1
            used = self.used_inputs.pop(frame, None)
            if used is not None:
                stats.predicted_frames += 1
                if used != merged:
                    stats.mispredicted_frames += 1
                    if first_bad is None:
                        first_bad = frame
        return first_bad

    def sync_from_shadow(self) -> None:
        """Make the speculative machine bit-identical to the shadow.

        Fast path: copy only the pages either machine has dirtied since
        their last sync (their states agree everywhere else by induction).
        Machines that do not track dirty pages fall back to a full
        ``save_state``/``load_state`` pair.
        """
        shadow = self.runtime.machine
        spec = self.machine
        stats = self.stats
        shadow_pages = _dirty_pages(shadow, self._shadow_mark)
        spec_pages = _dirty_pages(spec, self._spec_mark)
        if shadow_pages is None or spec_pages is None:
            blob = shadow.save_state()
            spec.load_state(blob)
            self._full_state_size = len(blob)
        else:
            blob = shadow.save_delta(pages=set(shadow_pages) | set(spec_pages))
            spec.apply_delta(blob)
            if self._full_state_size is None:
                self._full_state_size = len(shadow.save_state())
        stats.snapshot_bytes_full += self._full_state_size
        stats.snapshot_syncs += 1
        stats.snapshot_bytes_copied += len(blob)
        self._shadow_mark = _state_mark(shadow)
        self._spec_mark = _state_mark(spec)

    def rollback_and_replay(self, first_bad: int, now: float) -> None:
        """Restore speculation from the shadow and replay the suffix."""
        runtime = self.runtime
        stats = self.stats
        stats.rollbacks += 1
        copied_before = stats.snapshot_bytes_copied
        self.sync_from_shadow()
        replay_from = self.confirmed_frontier + 1
        depth = runtime.frame - replay_from
        stats.max_replay_depth = max(stats.max_replay_depth, depth)
        runtime.metrics.on_rollback(depth, stats.snapshot_bytes_copied - copied_before)
        runtime.events.emit(
            "rollback",
            now,
            runtime.frame,
            depth=depth,
            **{"from": first_bad, "to": runtime.frame},
        )
        for frame in range(replay_from, runtime.frame):
            word = self.predict_input(frame)
            self.used_inputs[frame] = word
            self.machine.step(word)
            stats.replayed_frames += 1

    def confirm_pending(self, now: float) -> None:
        """Shadow-advance plus rollback — the per-wakeup confirmation step."""
        first_bad = self.advance_shadow()
        if first_bad is not None:
            self.rollback_and_replay(first_bad, now)

    def gate(self, now: float) -> Optional[int]:
        """Rollback mode's SyncInput gate: the speculation-window bound
        instead of delivery; the returned word is the zero-lag *prediction*."""
        self.confirm_pending(now)
        frame = self.runtime.frame
        if frame - self.confirmed_frontier > self.window:
            self.stats.speculation_stalls += 1
            return None
        word = self.predict_input(frame)
        self.used_inputs[frame] = word
        return word

    def step(self, merged: int) -> None:
        """Execute the current frame speculatively, with zero input lag."""
        self.machine.step(merged)
        self.stats.speculative_frames += 1
        self.runtime.frame += 1


def build_speculative_session(
    game_factory,
    sources: List[InputSource],
    netem,
    *,
    config: SyncConfig,
    game_id: str,
    frames: int,
    seed: int,
    frame_compute_time: float,
    **engine_options: object,
):
    """:func:`repro.core.multisite.build_session` with speculating sites,
    each with a confirmed and a speculative machine from ``game_factory``;
    ``engine_options`` go to every :class:`~repro.core.engine.SiteEngine`."""
    from repro.core.engine import SiteEngine
    from repro.core.multisite import SessionPlan, build_session

    def make_engine(runtime, max_frames, **options):
        return SiteEngine(
            runtime,
            max_frames,
            spec_machine=game_factory(),
            **engine_options,
            **options,
        )

    plan = SessionPlan(
        config=config,
        assignment=InputAssignment.standard(len(sources)),
        machines=[game_factory() for __ in sources],
        sources=sources,
        game_id=game_id,
        max_frames=frames,
        frame_compute_time=frame_compute_time,
        seed=seed,
    )
    return build_session(plan, netem, make_engine=make_engine)


def build_rollback_session(
    game_factory,
    sources: List[InputSource],
    netem,
    frames: int = 600,
    seed: int = 7,
    speculation_window: int = 60,
    frame_compute_time: float = 0.002,
    config: Optional[SyncConfig] = None,
    predictor: PredictorSpec = None,
):
    """Wire a two-or-more-site rollback session on the simulator, under a
    zero-lag configuration unless ``config`` says otherwise."""
    return build_speculative_session(
        game_factory,
        sources,
        netem,
        config=config if config is not None else SyncConfig(buf_frame=0),
        game_id="rollback",
        frames=frames,
        seed=seed,
        frame_compute_time=frame_compute_time,
        speculation_window=speculation_window,
        predictor=predictor,
    )
