"""Unit tests for repro.core.inputs (bit strings and SET[k] partitions)."""

import statistics
import time

import pytest

from repro.core.inputs import (
    BITS_PER_PLAYER,
    Buttons,
    IdleSource,
    InputAssignment,
    InputRecorder,
    PadSource,
    RandomSource,
    RecordedSource,
    ScriptedSource,
    describe_word,
    pack_buttons,
    player_mask,
    player_shift,
    unpack_buttons,
)


class TestBitLayout:
    def test_player_shift(self):
        assert player_shift(0) == 0
        assert player_shift(1) == BITS_PER_PLAYER
        assert player_shift(3) == 3 * BITS_PER_PLAYER

    def test_negative_player_rejected(self):
        with pytest.raises(ValueError):
            player_shift(-1)

    def test_player_masks_disjoint(self):
        assert player_mask(0) & player_mask(1) == 0
        assert player_mask(1) == 0xFF00

    def test_pack_unpack_roundtrip(self):
        for player in range(4):
            word = pack_buttons(player, Buttons.A | Buttons.LEFT)
            assert unpack_buttons(word, player) == Buttons.A | Buttons.LEFT
            for other in range(4):
                if other != player:
                    assert unpack_buttons(word, other) == 0

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_buttons(0, 0x1FF)

    def test_describe_word(self):
        word = pack_buttons(0, Buttons.UP) | pack_buttons(1, Buttons.A | Buttons.B)
        text = describe_word(word)
        assert "P0[UP]" in text
        assert "P1[A+B]" in text


class TestInputAssignment:
    def test_standard_two_sites(self):
        assignment = InputAssignment.standard(2)
        assert len(assignment) == 2
        assert assignment.mask(0) == 0x00FF
        assert assignment.mask(1) == 0xFF00

    def test_multiple_players_per_site(self):
        assignment = InputAssignment.standard(2, players_per_site=2)
        assert assignment.mask(0) == 0xFFFF
        assert assignment.mask(1) == 0xFFFF0000

    def test_overlapping_masks_rejected(self):
        with pytest.raises(ValueError):
            InputAssignment([0xFF, 0xF0])

    def test_with_observers(self):
        assignment = InputAssignment.with_observers(2, 2)
        assert len(assignment) == 4
        assert assignment.mask(2) == 0
        assert assignment.mask(3) == 0
        assert assignment.gating_sites() == [0, 1]

    def test_restrict_masks_foreign_bits(self):
        assignment = InputAssignment.standard(2)
        word = 0xFFFF
        assert assignment.restrict(word, 0) == 0x00FF

    def test_merge_combines_partials(self):
        assignment = InputAssignment.standard(2)
        merged = assignment.merge({0: 0x0011, 1: 0x2200})
        assert merged == 0x2211

    def test_merge_discards_uncontrolled_bits(self):
        assignment = InputAssignment.standard(2)
        # Site 0 claims bits in site 1's byte: discarded.
        assert assignment.merge({0: 0xFF11}) == 0x0011

    def test_merge_empty(self):
        assert InputAssignment.standard(2).merge({}) == 0

    def test_controlled_mask(self):
        assert InputAssignment.standard(2).controlled_mask() == 0xFFFF


class TestSources:
    def test_idle_source_always_zero(self):
        source = IdleSource()
        assert all(source.get(f) == 0 for f in range(100))

    def test_scripted_source_exact_frames(self):
        source = ScriptedSource({3: Buttons.A, 7: Buttons.B})
        assert source.get(3) == Buttons.A
        assert source.get(7) == Buttons.B
        assert source.get(5) == 0

    def test_scripted_source_hold(self):
        source = ScriptedSource({3: Buttons.A, 7: Buttons.B}, hold=True)
        assert source.get(5) == Buttons.A
        assert source.get(100) == Buttons.B
        assert source.get(0) == 0

    def test_random_source_deterministic(self):
        a = RandomSource(seed=9)
        b = RandomSource(seed=9)
        assert [a.get(f) for f in range(200)] == [b.get(f) for f in range(200)]

    def test_random_source_random_access_consistent(self):
        sequential = RandomSource(seed=9)
        seq = [sequential.get(f) for f in range(100)]
        jumpy = RandomSource(seed=9)
        assert jumpy.get(50) == seq[50]
        assert jumpy.get(10) == seq[10]
        assert jumpy.get(99) == seq[99]

    def test_random_source_respects_mask(self):
        source = RandomSource(seed=1, toggle_p=0.9, mask=Buttons.UP | Buttons.DOWN)
        assert all(
            source.get(f) & ~(Buttons.UP | Buttons.DOWN) == 0 for f in range(100)
        )

    def test_random_source_new_frame_cost_is_flat(self):
        """A new frame costs the same near frame 20 000 as near frame 100:
        only the missing suffix is computed, with no scan of the history.
        The two are timed interleaved, so host drift hits both alike."""
        late, early = RandomSource(seed=3), RandomSource(seed=3)
        late.get(20_000)
        early.get(100)
        late_s, early_s = [], []
        for k in range(1, 301):
            start = time.perf_counter()
            late.get(20_000 + k)
            late_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            early.get(100 + k)
            early_s.append(time.perf_counter() - start)
        assert statistics.median(late_s) < 3 * statistics.median(early_s)

    def test_random_source_negative_frame_is_zero(self):
        assert RandomSource(seed=1).get(-5) == 0

    def test_random_source_bad_probability(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1, toggle_p=1.5)

    def test_pad_source_shifts(self):
        inner = ScriptedSource({0: Buttons.A})
        assert PadSource(inner, player=1).get(0) == Buttons.A << 8
        assert PadSource(inner, player=0).get(0) == Buttons.A

    def test_recorded_source_replays(self):
        source = RecordedSource([1, 2, 3])
        assert [source.get(f) for f in range(5)] == [1, 2, 3, 0, 0]
        assert len(source) == 3

    def test_recorder_wraps_and_replays(self):
        recorder = InputRecorder(RandomSource(seed=4))
        original = [recorder.get(f) for f in range(50)]
        replay = recorder.to_recorded(50)
        assert [replay.get(f) for f in range(50)] == original
