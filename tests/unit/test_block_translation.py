"""The block-translation layer: parity, guards, and cache management.

The golden-trace integration tests already prove whole-game parity; these
tests pin down the cache *mechanics* — invalidation on real byte changes,
cheap revalidation on false-positive guard misses, single-stepping of
code patched over and over, and the MMIO hooks-epoch flush — plus the
fault/budget edge cases where the block loop must match the reference
interpreter to the cycle.
"""

import pytest

from repro.emulator.assembler import assemble
from repro.emulator.console import Console
from repro.emulator.cpu import Cpu, CpuFault
from repro.emulator.machine import create_game
from repro.emulator.memory import Memory


def boot(source: str) -> Cpu:
    program = assemble(".org 0x0100\n" + source)
    memory = Memory()
    memory.load(program.origin, program.code)
    cpu = Cpu(memory)
    cpu.reset(program.entry)
    return cpu


def run_blocks(source: str, max_cycles: int = 10_000) -> Cpu:
    cpu = boot(source)
    cpu.run_frame_blocks(max_cycles)
    return cpu


def run_reference(source: str, max_cycles: int = 10_000) -> Cpu:
    cpu = boot(source)
    cpu.run_frame_reference(max_cycles)
    return cpu


class TestBlockParity:
    """Edge cases the whole-game traces may not hit every run."""

    def test_illegal_opcode_fault_matches_reference(self):
        for runner in (Cpu.run_frame_blocks, Cpu.run_frame_reference):
            memory = Memory()
            memory.write_word(0x0100, 0xEE00)
            cpu = Cpu(memory)
            cpu.reset(0x0100)
            with pytest.raises(CpuFault) as excinfo:
                runner(cpu, 10)
            assert "illegal opcode 0xee at pc=0x0100" in str(excinfo.value)
            assert cpu.pc == 0x0102  # fault leaves pc past the bad word

    def test_budget_and_yield_accounting_match(self):
        source = "LDI r0, 7\nYIELD\nLDI r0, 8\nHALT"
        for budget in (1, 2, 3, 1000):
            a = run_blocks(source, max_cycles=budget)
            b = run_reference(source, max_cycles=budget)
            assert (a.regs, a.pc, a.cycles, a.halted) == (
                b.regs, b.pc, b.cycles, b.halted
            )

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 499, 500])
    def test_superloop_budget_bounds_runaway(self, budget):
        """A self-jump compiles to an internal loop; its budget accounting
        must still match the reference to the cycle."""
        a = run_blocks("spin:\nJMP spin", max_cycles=budget)
        b = run_reference("spin:\nJMP spin", max_cycles=budget)
        assert (a.cycles, a.pc) == (b.cycles, b.pc)

    @pytest.mark.parametrize("budget", [3, 4, 5, 6, 7, 1000])
    def test_block_budget_tail_single_steps(self, budget):
        """When the remaining budget cannot cover a whole block, the tail
        must be single-stepped exactly as the reference would."""
        source = """
            LDI r1, 1
            LDI r2, 2
            LDI r3, 3
            LDI r4, 4
            HALT
        """
        a = run_blocks(source, max_cycles=budget)
        b = run_reference(source, max_cycles=budget)
        assert (a.regs, a.pc, a.cycles, a.halted) == (
            b.regs, b.pc, b.cycles, b.halted
        )

    def test_mid_block_store_into_own_range(self):
        """A store into the currently-executing block exits early and the
        freshly written instruction runs, same as the interpreters."""
        source = """
            LDI r1, 0x0063      ; will be patched to 0x0064
            LDI r2, patch + 2   ; address of the immediate word
            LD  r3, [r2]
            ADDI r3, 1
            ST  [r2], r3
        patch:
            LDI r0, 0x0063
            HALT
        """
        block = run_blocks(source)
        reference = run_reference(source)
        assert block.regs[0] == reference.regs[0] == 0x0064

    def test_patched_opcode_word_is_picked_up(self):
        source = """
        loop:
            LDI r2, target
            LD  r3, [r2]
            CMPI r0, 1          ; second pass?
            JZ  done
            LDI r0, 1
            LDI r4, 0x1234      ; patch target's word: NOP -> LDI r5, ...
            ST  [r2], r4
            JMP loop
        done:
        target:
            NOP
            HALT
        """
        block = run_blocks(source)
        reference = run_reference(source)
        assert block.regs == reference.regs
        assert block.pc == reference.pc


class TestCacheManagement:
    def test_unrelated_write_on_code_page_revalidates(self):
        """A write that dirties the code page but not the block's bytes is
        a guard false-positive: the cache must revalidate, not recompile."""
        source = """
        loop:
            LD   r1, [r0+0x01F0]   ; data word on the code page
            ADDI r1, 1
            ST   [r0+0x01F0], r1   ; dirties page 0x01 every frame
            YIELD
            JMP  loop
        """
        cpu = boot(source)
        for _ in range(10):
            cpu.run_frame_blocks(1000)
        assert cpu.block_revalidations > 0
        assert cpu.block_invalidations == 0
        assert cpu.memory.read_word(0x01F0) == 10

    def test_smc_rom_invalidates_and_matches_reference(self):
        """The smc ROM patches an executed instruction every frame: stale
        closures must be discarded (true invalidations, then the patched
        word is single-stepped) while state stays bit-identical."""
        frames = 200
        golden = create_game("smc")
        golden.interpreter = "reference"
        block = create_game("smc")
        assert block.interpreter == "block"
        for frame in range(frames):
            word = (frame * 0x9E37) & 0xFFFF
            golden.step(word)
            block.step(word)
        assert golden.save_state() == block.save_state()
        assert golden.checksum() == block.checksum()
        stats = block.cpu_stats()
        assert stats["block_invalidations"] > 0
        assert stats["block_revalidations"] > 0
        # The patch site changes every frame, so it ends up single-stepped
        # rather than recompiled forever, and the cache stays bounded.
        assert stats["fallback_steps"] > 0
        assert stats["blocks_compiled"] < 1000
        assert stats["cached_blocks"] <= stats["blocks_compiled"]
        # No churn: once the patched word has changed twice no block spans
        # it, so about one instruction a frame is single-stepped and the
        # code around it is compiled once, not once per neighbouring pc
        # until each hits the per-pc invalidation limit.
        assert stats["blocks_compiled"] <= 16
        assert stats["block_invalidations"] <= 8
        assert stats["fallback_steps"] <= 2 * frames

    def test_code_patched_once_runs_compiled(self):
        """One patch is not churn: the patched word is recompiled into a
        block, so single-stepping stops, even though two blocks spanned
        the word when it changed."""
        source = """
        .equ FRAME, 0xFF02
        .equ ACC,   0x0040
        .org 0x0100
        frame:
            LDI  r0, 0
            LD   r1, [r0+FRAME]
            LD   r3, [r0+ACC]
            CMPI r1, 1
            JGE  body             ; from frame 1 on, body gets its own block
            ADDI r3, 1
        body:
            LDI  r4, 0x1234
        target:
            .word 0x2034          ; ADD r3, r4 until the patch makes it XOR
            ST   [r0+ACC], r3
            CMPI r1, 3
            JNZ  done
            CALL patch            ; frame 3 only, from outside both blocks
        done:
            YIELD
            JMP  frame
        patch:
            LDI  r5, 0x2434
            ST   [r0+target], r5
            RET
        """
        golden = Console(assemble(source), interpreter="reference")
        block = Console(assemble(source))
        steps = []
        for frame in range(40):
            golden.step(0)
            block.step(0)
            steps.append(block.cpu_stats()["fallback_steps"])
        assert golden.save_state() == block.save_state()
        assert block.cpu_stats()["block_invalidations"] == 2  # both spans
        assert steps[-1] == steps[5]

    def test_add_hook_flushes_cache(self):
        """Registering an MMIO hook changes bus semantics: every compiled
        closure is stale by definition and the cache must flush."""
        source = """
        loop:
            ADDI r1, 1
            YIELD
            JMP  loop
        """
        cpu = boot(source)
        for _ in range(3):
            cpu.run_frame_blocks(1000)
        compiled_before = cpu.blocks_compiled
        assert compiled_before > 0
        cpu.run_frame_blocks(1000)
        assert cpu.blocks_compiled == compiled_before  # steady state

        cpu.memory.add_hook(0xFE00, 0xFE10, read=lambda addr: 0)
        cpu.run_frame_blocks(1000)
        assert cpu.blocks_compiled > compiled_before  # recompiled fresh
        assert cpu.regs[1] == 5  # one increment per frame, none lost
