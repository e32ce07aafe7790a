"""A deliberately self-modifying ROM for the RC-16 console.

Every frame the program rewrites one of its own *executed* instructions:
the word at ``patch_site`` alternates between ``ADD r3, r4`` (0x2034) and
``XOR r3, r4`` (0x2434) depending on frame parity, then the patched
instruction runs in the same frame.  Legacy arcade code does this kind of
thing routinely (dispatch patching, unrolled-loop stamping), so the block
translator must cope: the store lands inside a compiled block's range,
forcing an early exit, a dirty-generation guard miss, and a true
invalidation (the bytes really changed) on the next dispatch.  Once the
patched word has changed twice no block spans it any more: it is
single-stepped every frame while the code around it stays compiled.

The ROM is registered as a normal game, so the whole Machine contract —
determinism, savestate roundtrips, golden block-vs-reference parity —
is enforced on it by the standard property and integration suites, while
``tests/unit/test_block_translation.py`` asserts the cache-management
counters directly.
"""

from __future__ import annotations

from repro.emulator.assembler import assemble
from repro.emulator.console import Console

SMC_SOURCE = """
; ---- self-modifying-code exerciser for RC-16 ------------------------
.equ INPUT,  0xFF00
.equ FRAME,  0xFF02
.equ FB,     0xE000
.equ ACC,    0x0040        ; running mix of inputs and frames
.org 0x0100

start:
    LDI  r0, 0
    LD   r1, [r0+FRAME]
    LD   r2, [r0+INPUT]

    ; Pick this frame's opcode for the patch site: even frames combine
    ; with ADD r3, r4 (0x2034), odd frames with XOR r3, r4 (0x2434).
    MOV  r5, r1
    LDI  r6, 1
    AND  r5, r6
    JZ   use_add
    LDI  r5, 0x2434
    JMP  patch
use_add:
    LDI  r5, 0x2034
patch:
    ST   [r0+patch_site], r5   ; rewrite our own code, then run it below

    LD   r3, [r0+ACC]
    MOV  r4, r2
    ADD  r4, r1
    ADDI r4, 0x3D09            ; odd constant: zero input still stirs ACC

patch_site:
    .word 0x2034               ; ADD r3, r4 — overwritten every frame

    ST   [r0+ACC], r3

    ; Trace the accumulator into the framebuffer so video (and therefore
    ; the checksum) observes every patched-instruction outcome.
    MOV  r6, r1
    LDI  r7, 0x3F
    AND  r6, r7
    STB  [r6+FB], r3
    YIELD
    JMP  start
"""


def build_smc() -> Console:
    """Assemble and boot the self-modifying-code ROM."""
    program = assemble(SMC_SOURCE)
    return Console(program, name="smc", num_players=2)
