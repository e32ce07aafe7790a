"""The RC-16 CPU.

A deliberately small 16-bit fantasy ISA, rich enough to write real games in
assembly yet simple enough that the emulation is obviously deterministic:

* sixteen 16-bit registers ``R0..R15`` (``R15`` is the stack pointer by
  convention; the console initializes it to ``0xDFFE``),
* flags ``Z`` and ``N`` set by ``CMP``/``CMPI`` and arithmetic,
* little-endian 16-bit words; instructions are one word —
  ``opcode(8) | ra(4) | rb(4)`` — plus an optional immediate word.

Frame semantics: the console runs the CPU until it executes ``YIELD`` (wait
for vertical blank) or exhausts the per-frame cycle budget, whichever comes
first.  ``HALT`` stops the program permanently (the machine keeps stepping,
frozen).

Two interpreters execute the same ISA (see docs/performance.md):

* :meth:`Cpu.run_frame_blocks` — the block-translation path: straight-line
  runs are traced once, compiled to a single Python closure (fused operand
  decode, registers and flags held in locals, superinstruction peepholes
  for the hot pairs), guarded against self-modifying code by the memory
  bus's dirty-page generations, and chained through a dict keyed by entry
  pc, so hot loops execute with zero per-instruction dispatch; whatever
  it does not compile it single-steps with :meth:`Cpu.step_instruction`,
* :meth:`Cpu.run_frame_reference` / :meth:`Cpu.step_instruction` — the
  straight-line reference interpreter retained verbatim from the original
  implementation.

The determinism contract — enforced by the golden-trace tests — is that
both paths produce bit-identical machine states for any program.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.emulator.machine import MachineError
from repro.emulator.memory import Memory

# Opcodes ---------------------------------------------------------------
NOP = 0x00
HALT = 0x01
YIELD = 0x02

LDI = 0x10  # ra = imm
MOV = 0x11  # ra = rb
LD = 0x12  # ra = word[rb + imm]
ST = 0x13  # word[rb + imm] = ra
LDB = 0x14  # ra = byte[rb + imm]
STB = 0x15  # byte[rb + imm] = ra

ADD = 0x20
SUB = 0x21
AND = 0x22
OR = 0x23
XOR = 0x24
SHL = 0x25
SHR = 0x26
MUL = 0x27
ADDI = 0x28  # ra += imm

CMP = 0x30  # flags(ra - rb)
CMPI = 0x31  # flags(ra - imm)

JMP = 0x40
JZ = 0x41
JNZ = 0x42
JLT = 0x43
JGE = 0x44
CALL = 0x45
RET = 0x46
JLE = 0x47
JGT = 0x48

PUSH = 0x50
POP = 0x51

#: Opcodes followed by an immediate word.
HAS_IMMEDIATE = {
    LDI, LD, ST, LDB, STB, ADDI, CMPI, JMP, JZ, JNZ, JLT, JGE, CALL, JLE, JGT
}

#: opcode → mnemonic, for the disassembler and error messages.
MNEMONICS: Dict[int, str] = {
    NOP: "NOP", HALT: "HALT", YIELD: "YIELD",
    LDI: "LDI", MOV: "MOV", LD: "LD", ST: "ST", LDB: "LDB", STB: "STB",
    ADD: "ADD", SUB: "SUB", AND: "AND", OR: "OR", XOR: "XOR",
    SHL: "SHL", SHR: "SHR", MUL: "MUL", ADDI: "ADDI",
    CMP: "CMP", CMPI: "CMPI",
    JMP: "JMP", JZ: "JZ", JNZ: "JNZ", JLT: "JLT", JGE: "JGE",
    CALL: "CALL", RET: "RET", JLE: "JLE", JGT: "JGT",
    PUSH: "PUSH", POP: "POP",
}

SP = 15  # stack pointer register
INITIAL_SP = 0xDFFE

_STATE = struct.Struct(">16HHBBB")  # regs, pc, z, n, halted


class CpuFault(MachineError):
    """An illegal instruction or stack fault; carries the PC."""


# ----------------------------------------------------------------------
# Basic-block translation (see docs/performance.md, "Block translation").
#
# A *block* is an extended straight-line run of instructions starting at
# some pc and ending at the first backward jump, CALL/RET, HALT/YIELD,
# span limit, or illegal/hooked fetch.  "Extended" because two kinds of
# control flow stay inside the block (superblock formation — dispatch
# overhead dominates otherwise):
#
# * a *forward* JMP is traced through: the skipped bytes stay part of the
#   guarded range but generate no code,
# * a conditional jump that is not the final instruction compiles to an
#   early ``return`` on the taken path and falls through otherwise, so a
#   whole if/else chain runs in one dispatch.
#
# (Inlining forward CALLs with a speculative RET check was tried and
# measured a net loss on every ROM here: the merged blocks union so many
# registers that every dispatch pays for the worst path.)
#
# Each block is traced once and compiled — via generated Python source —
# into a single closure ``fn(budget)`` that executes the whole run and
# returns ``(next_pc, cycles_used)``:
#
# * operand decode is fused away: register indices and immediates are
#   baked into the source as literals,
# * registers and flags live in Python locals, loaded once on entry and
#   flushed once at each exit,
# * peepholes fall out of two dataflow passes: dead-flag elimination turns
#   ADDI+CMPI into a bare add plus one flag computation and fuses CMP+Jcc
#   into a single compare-and-branch, while constant propagation turns
#   LDI+ST into a literal store (and folds constant address arithmetic),
# * a block whose terminator jumps back to its own entry becomes a
#   *superloop*: the loop runs inside the closure with an inline budget
#   check, so hot spin/copy loops execute with zero dispatch of any kind.
#
# Correctness against self-modifying code: each block records the dirty
# generations of every page its bytes span (at most _MAX_BLOCK_PAGES);
# the dispatch loop revalidates on mismatch by comparing the code bytes
# (cheap, and immune to false invalidation from data colocated on a code
# page).  A store *inside* a block that hits the block's own byte range
# exits the block early with the architectural state exact.  A byte whose
# value changes twice is *volatile*: later traces stop before it, so a
# word patched over and over is single-stepped while the code around it
# stays compiled.  Fetches from MMIO-hooked pages are never compiled —
# they are single-stepped too — and hook-layout changes flush the whole
# cache via the bus's hooks epoch.
# ----------------------------------------------------------------------

_MAX_BLOCK_INSTRS = 256
#: Span ceiling in 256-byte dirty-tracking pages: bounds the guard chain
#: length and the bytes a revalidation has to compare.  Measured sweet
#: spot: wider spans merge code that rarely executes together, and the
#: longer guard chain taxes every dispatch.
_MAX_BLOCK_PAGES = 2
#: After this many invalidations at one entry pc the pc is blacklisted to
#: single-stepping — the backstop for churn the volatile-byte rule misses:
#: a pathological self-patching loop must not pay a recompile per
#: execution.
_BLOCK_INVAL_LIMIT = 32

_COND_EXPR = {
    JZ: "z", JNZ: "not z", JLT: "n", JGE: "not n",
    JLE: "z or n", JGT: "not (z or n)",
}
_COND_JUMPS = frozenset(_COND_EXPR)
_TERMINATORS = _COND_JUMPS | {JMP, CALL, RET, HALT, YIELD}
_FLAG_SETTERS = frozenset((ADD, SUB, AND, OR, XOR, SHL, SHR, MUL, ADDI, CMP, CMPI))
_MIDBLOCK_STORES = frozenset((ST, STB, PUSH))

_ALU_EXPR = {
    ADD: "({a} + {b}) & 0xFFFF",
    SUB: "({a} - {b}) & 0xFFFF",
    AND: "{a} & {b}",
    OR: "{a} | {b}",
    XOR: "{a} ^ {b}",
    SHL: "({a} << ({b} & 0x0F)) & 0xFFFF",
    SHR: "({a} >> ({b} & 0x0F)) & 0xFFFF",
    MUL: "({a} * {b}) & 0xFFFF",
}
_ALU_FN = {
    ADD: lambda a, b: (a + b) & 0xFFFF,
    SUB: lambda a, b: (a - b) & 0xFFFF,
    AND: lambda a, b: a & b,
    OR: lambda a, b: a | b,
    XOR: lambda a, b: a ^ b,
    SHL: lambda a, b: (a << (b & 0x0F)) & 0xFFFF,
    SHR: lambda a, b: (a >> (b & 0x0F)) & 0xFFFF,
    MUL: lambda a, b: (a * b) & 0xFFFF,
}

#: (addr, opcode, ra, rb, imm, cost, next_pc)
_Instr = Tuple[int, int, int, int, int, int, int]


class _Block:
    """One compiled basic block (metadata; the dispatch loop works off a
    flat list entry — index beats attribute lookup on the hot path)."""

    __slots__ = ("start", "end", "fn", "cost", "stops", "code", "pages", "source")


# Dispatch-cache entry layout: [fn, cost, stops, block, p0, g0, p1, g1, ...]
# — a variable-length tail of (page, guard-generation) pairs, one per page
# the block's bytes span.
_E_FN, _E_COST, _E_STOPS, _E_BLOCK = range(4)
_E_GUARDS = 4

#: Returned by a block closure whose guard or budget pre-check failed; the
#: dispatch loop distinguishes it by its zero cycle count (a real block
#: always consumes at least one cycle).
_MISS = (0, 0)

#: Process-wide cache of compiled block code objects, keyed by generated
#: source (which embeds every literal, so equal source means equal code).
#: ``compile()`` is ~0.5 ms per block — the bulk of a machine's warmup —
#: and every same-ROM machine in the process (multi-site sessions, bench
#: repeats) generates identical sources, so they share one compile.  The
#: per-machine closure state is bound by exec-ing the cached code object.
_CODE_CACHE: Dict[str, object] = {}
_CODE_CACHE_LIMIT = 4096


def _flag_liveness(instrs: List[_Instr]) -> List[bool]:
    """Backward pass: ``dead[i]`` is True iff instruction i's flag update
    is overwritten before any conditional jump, early block exit, or the
    block's end can observe it (exits must leave ``cpu.z/n`` exact)."""
    last = len(instrs) - 1
    dead = [False] * len(instrs)
    live = True  # flags flowing out of the block are architectural state
    for i in range(last, -1, -1):
        op = instrs[i][1]
        if op in _FLAG_SETTERS:
            dead[i] = not live
            live = False
        if op in _COND_JUMPS:
            live = True
        elif op in _MIDBLOCK_STORES and i < last:
            live = True  # the store's in-block-SMC exit flushes flags
    return dead


def _generate_block_source(
    start: int,
    instrs: List[_Instr],
    terminator: Optional[int],
    mem_plain: Optional[bytearray] = None,
    mem_plain_word: Optional[bytearray] = None,
) -> Tuple[str, bool, int]:
    """Render a traced block to Python source; returns (source, stops, cost).

    ``mem_plain``/``mem_plain_word`` are the bus's page-plainness tables,
    consulted at *generation* time to fold the plainness branch away for
    constant addresses.  This is sound because ``add_hook`` is the only
    writer of those tables and every hook install bumps the hooks epoch,
    which flushes the whole block cache before the next dispatch.

    The source defines ``_make(...)`` whose captured-argument closure
    ``block(budget)`` validates its own guard and budget (returning the
    ``_MISS`` sentinel on failure, so the dispatch hot path is one dict
    lookup plus one call), executes the whole run, and returns
    ``(next_pc, cycles)`` — with ``cycles`` negated when the block ended
    the frame via HALT/YIELD.
    """
    last = len(instrs) - 1
    total = sum(ins[5] for ins in instrs)
    end = max(ins[0] + 2 * ins[5] for ins in instrs)  # unmasked byte end
    loop = (
        terminator is not None
        and (terminator == JMP or terminator in _COND_JUMPS)
        and instrs[last][4] == start
    )
    dead = _flag_liveness(instrs)
    flags_changed = any(
        ins[1] in _FLAG_SETTERS and not dead[i] for i, ins in enumerate(instrs)
    )

    used = set()
    written = set()
    rw_by_i = []  # per-instruction (reads, writes) register sets
    has_store = False
    for __, op, ra, rb, __imm, __c, __n in instrs:
        reads: Tuple[int, ...] = ()
        writes: Tuple[int, ...] = ()
        if op == LDI:
            writes = (ra,)
        elif op in (MOV, LD, LDB):
            reads = (rb,)
            writes = (ra,)
        elif op in (ST, STB):
            reads = (ra, rb)
            has_store = True
        elif op in _ALU_EXPR:
            reads = (ra, rb)
            writes = (ra,)
        elif op == ADDI:
            reads = (ra,)
            writes = (ra,)
        elif op == CMP:
            reads = (ra, rb)
        elif op == CMPI:
            reads = (ra,)
        elif op == PUSH:
            reads = (ra, SP)
            writes = (SP,)
            has_store = True
        elif op == POP:
            reads = (SP,)
            writes = (ra, SP)
        elif op == CALL:
            reads = (SP,)
            writes = (SP,)
            has_store = True
        elif op == RET:
            reads = (SP,)
            writes = (SP,)
        rw_by_i.append((reads, writes))
        used.update(reads)
        written.update(writes)

    # Register prologue.  A loop block must load everything it touches —
    # iteration N+1 reads and exit-flushes see iteration N's writes.  A
    # straight-line block only needs the registers read before their
    # first write: every exit's flush covers exactly the registers
    # written *so far*, so later-written locals never escape unassigned.
    if loop:
        load_regs = sorted(used | written)
    else:
        needs_load = set()
        seen_written = set()
        for reads, writes in rw_by_i:
            needs_load.update(r for r in reads if r not in seen_written)
            seen_written.update(writes)
        load_regs = sorted(needs_load)

    # Do any flag reads/flushes happen before the first surviving setter?
    # (Straight-line exits skip the flag flush until a live setter has
    # executed, so only a conditional jump can observe stale locals; in a
    # loop every exit flushes, making any early flush an observer too.)
    need_flag_prologue = False
    defined = False
    for i, ins in enumerate(instrs):
        op = ins[1]
        if op in _COND_JUMPS and not defined:
            need_flag_prologue = True
            break
        if (
            loop
            and op in _MIDBLOCK_STORES
            and i < last
            and flags_changed
            and not defined
        ):
            need_flag_prologue = True
            break
        if op in _FLAG_SETTERS and not dead[i]:
            defined = True

    # Mutable flush state, advanced by the emission loop below: at any
    # exit, flush the registers dirtied so far (all of them in a loop)
    # plus the flags once a surviving setter has run.
    dirty_regs = set(written) if loop else set()
    flags_dirty = flags_changed if loop else False

    lines = [
        "def _make(cpu, regs, memory, data, plain, plain_word, page_gen,"
        " read_word, write_word, read_byte, write_byte, entry, miss):",
        "    def block(budget):",
    ]
    base = "        "
    checks = [f"budget < {total}"]
    for k, page in enumerate(range(start >> 8, ((end - 1) >> 8) + 1)):
        checks.append(f"page_gen[{page}] != entry[{_E_GUARDS + 2 * k + 1}]")
    guard = " or ".join(checks)
    lines.append(f"{base}if {guard}:")
    lines.append(f"{base}    return miss")
    for r in load_regs:
        lines.append(f"{base}r{r} = regs[{r}]")
    if need_flag_prologue:
        lines.append(f"{base}z = cpu.z")
        lines.append(f"{base}n = cpu.n")
    if has_store:
        lines.append(f"{base}gen = memory._gen")
    if loop:
        lines.append(f"{base}n_cycles = 0")
        lines.append(f"{base}while True:")
        indent = base + "    "
    else:
        indent = base

    def emit(text: str) -> None:
        lines.append(indent + text)

    def emit_flush(pad: str = "") -> None:
        for r in sorted(dirty_regs):
            emit(f"{pad}regs[{r}] = r{r}")
        if flags_dirty:
            emit(f"{pad}cpu.z = z")
            emit(f"{pad}cpu.n = n")

    def cyc(prefix: int) -> str:
        return f"n_cycles + {prefix}" if loop else str(prefix)

    def word_plain(a: int) -> Optional[bool]:
        """Compile-time plainness of a constant word access, if known."""
        if mem_plain_word is None:
            return None
        return bool(mem_plain_word[a])

    def byte_plain(a: int) -> Optional[bool]:
        if mem_plain is None:
            return None
        return bool(mem_plain[a >> 8])

    def emit_word_store(aexpr: str, a_const: Optional[int], vexpr: str,
                        v_const: Optional[int]) -> None:
        if a_const == 0xFFFF:  # wrapping store: always the slow path
            emit(f"write_word({a_const}, {vexpr})")
            return
        if a_const is not None:
            known = word_plain(a_const)
            if known is not None:
                if known:
                    if v_const is not None:
                        emit(f"data[{a_const}] = {v_const & 0xFF}")
                        emit(f"data[{a_const + 1}] = {v_const >> 8}")
                    else:
                        emit(f"data[{a_const}] = {vexpr} & 0xFF")
                        emit(f"data[{a_const + 1}] = {vexpr} >> 8")
                    emit(f"page_gen[{a_const >> 8}] = gen")
                    emit(f"page_gen[{(a_const + 1) >> 8}] = gen")
                else:
                    emit(f"write_word({a_const}, {vexpr})")
                return
            emit(f"if plain_word[{a_const}]:")
            if v_const is not None:
                emit(f"    data[{a_const}] = {v_const & 0xFF}")
                emit(f"    data[{a_const + 1}] = {v_const >> 8}")
            else:
                emit(f"    data[{a_const}] = {vexpr} & 0xFF")
                emit(f"    data[{a_const + 1}] = {vexpr} >> 8")
            emit(f"    page_gen[{a_const >> 8}] = gen")
            emit(f"    page_gen[{(a_const + 1) >> 8}] = gen")
        else:
            emit(f"if plain_word[{aexpr}]:")
            if v_const is not None:
                emit(f"    data[{aexpr}] = {v_const & 0xFF}")
                emit(f"    data[{aexpr} + 1] = {v_const >> 8}")
            else:
                emit(f"    data[{aexpr}] = {vexpr} & 0xFF")
                emit(f"    data[{aexpr} + 1] = {vexpr} >> 8")
            emit(f"    page_gen[{aexpr} >> 8] = gen")
            emit(f"    page_gen[({aexpr} + 1) >> 8] = gen")
        emit("else:")
        emit(f"    write_word({aexpr}, {vexpr})")

    def emit_smc_check(aexpr: str, a_const: Optional[int], word: bool,
                       nxt: int, prefix: int) -> None:
        """Exit the block if a store just patched its own byte range."""
        lo = start - 1 if word else start  # word store at start-1 hits byte 0
        if a_const is not None:
            hit = lo <= a_const < end or (word and start == 0 and a_const == 0xFFFF)
            if not hit:
                return  # provably outside the block: no check emitted
            emit_flush()
            emit(f"return ({nxt}, {cyc(prefix)})")
            return
        cond = f"{lo} <= {aexpr} < {end}"
        if word and start == 0:
            cond = f"({cond}) or {aexpr} == 0xFFFF"
        emit(f"if {cond}:")
        emit_flush("    ")
        emit(f"    return ({nxt}, {cyc(prefix)})")

    const: Dict[int, int] = {}
    prefix = 0

    def resolve_addr(rb: int, imm: int) -> Tuple[str, Optional[int]]:
        if rb in const:
            value = (const[rb] + imm) & 0xFFFF
            return str(value), value
        if imm == 0:
            return f"r{rb}", None
        emit(f"ta = (r{rb} + {imm}) & 0xFFFF")
        return "ta", None

    for i, (addr, op, ra, rb, imm, cost, nxt) in enumerate(instrs):
        prefix += cost
        if not loop:
            # This op's effects land before any exit it can emit (its
            # SMC/speculation exits observe the post-op state).
            dirty_regs.update(rw_by_i[i][1])
            if op in _FLAG_SETTERS and not dead[i]:
                flags_dirty = True
        if op == NOP:
            continue
        if op == LDI:
            emit(f"r{ra} = {imm}")
            const[ra] = imm
        elif op == MOV:
            emit(f"r{ra} = r{rb}")
            if rb in const:
                const[ra] = const[rb]
            else:
                const.pop(ra, None)
        elif op == LD:
            aexpr, a_const = resolve_addr(rb, imm)
            if a_const == 0xFFFF:
                emit(f"r{ra} = read_word({a_const})")
            elif a_const is not None and word_plain(a_const) is True:
                emit(f"r{ra} = data[{a_const}] | (data[{a_const + 1}] << 8)")
            elif a_const is not None and word_plain(a_const) is False:
                emit(f"r{ra} = read_word({a_const})")
            elif a_const is not None:
                emit(f"if plain_word[{a_const}]:")
                emit(f"    r{ra} = data[{a_const}] | (data[{a_const + 1}] << 8)")
                emit("else:")
                emit(f"    r{ra} = read_word({a_const})")
            else:
                emit(f"if plain_word[{aexpr}]:")
                emit(f"    r{ra} = data[{aexpr}] | (data[{aexpr} + 1] << 8)")
                emit("else:")
                emit(f"    r{ra} = read_word({aexpr})")
            const.pop(ra, None)
        elif op == ST:
            aexpr, a_const = resolve_addr(rb, imm)
            if ra in const:
                vexpr, v_const = str(const[ra]), const[ra]
            else:
                vexpr, v_const = f"r{ra}", None
            emit_word_store(aexpr, a_const, vexpr, v_const)
            emit_smc_check(aexpr, a_const, True, nxt, prefix)
        elif op == LDB:
            aexpr, a_const = resolve_addr(rb, imm)
            if a_const is not None and byte_plain(a_const) is True:
                emit(f"r{ra} = data[{a_const}]")
            elif a_const is not None and byte_plain(a_const) is False:
                emit(f"r{ra} = read_byte({a_const})")
            elif a_const is not None:
                emit(f"if plain[{a_const >> 8}]:")
                emit(f"    r{ra} = data[{a_const}]")
                emit("else:")
                emit(f"    r{ra} = read_byte({a_const})")
            else:
                emit(f"if plain[{aexpr} >> 8]:")
                emit(f"    r{ra} = data[{aexpr}]")
                emit("else:")
                emit(f"    r{ra} = read_byte({aexpr})")
            const.pop(ra, None)
        elif op == STB:
            aexpr, a_const = resolve_addr(rb, imm)
            if ra in const:
                vexpr, vraw = str(const[ra] & 0xFF), str(const[ra])
            else:
                vexpr, vraw = f"r{ra} & 0xFF", f"r{ra}"
            if a_const is not None and byte_plain(a_const) is True:
                emit(f"data[{a_const}] = {vexpr}")
                emit(f"page_gen[{a_const >> 8}] = gen")
            elif a_const is not None and byte_plain(a_const) is False:
                emit(f"write_byte({a_const}, {vraw})")
            elif a_const is not None:
                emit(f"if plain[{a_const >> 8}]:")
                emit(f"    data[{a_const}] = {vexpr}")
                emit(f"    page_gen[{a_const >> 8}] = gen")
                emit("else:")
                emit(f"    write_byte({a_const}, {vraw})")
            else:
                emit(f"if plain[{aexpr} >> 8]:")
                emit(f"    data[{aexpr}] = {vexpr}")
                emit(f"    page_gen[{aexpr} >> 8] = gen")
                emit("else:")
                emit(f"    write_byte({aexpr}, {vraw})")
            emit_smc_check(aexpr, a_const, False, nxt, prefix)
        elif op in _ALU_EXPR:
            if ra in const and rb in const:
                value = _ALU_FN[op](const[ra], const[rb])
                emit(f"r{ra} = {value}")
                const[ra] = value
                if not dead[i]:
                    emit(f"z = {value == 0}")
                    emit(f"n = {value >= 0x8000}")
            else:
                a_expr = str(const[ra]) if ra in const else f"r{ra}"
                b_expr = str(const[rb]) if rb in const else f"r{rb}"
                expr = _ALU_EXPR[op].format(a=a_expr, b=b_expr)
                const.pop(ra, None)
                if dead[i]:
                    emit(f"r{ra} = {expr}")
                else:
                    emit(f"t = {expr}")
                    emit(f"r{ra} = t")
                    emit("z = t == 0")
                    emit("n = t >= 0x8000")
        elif op == ADDI:
            if ra in const:
                value = (const[ra] + imm) & 0xFFFF
                emit(f"r{ra} = {value}")
                const[ra] = value
                if not dead[i]:
                    emit(f"z = {value == 0}")
                    emit(f"n = {value >= 0x8000}")
            elif dead[i]:
                emit(f"r{ra} = (r{ra} + {imm}) & 0xFFFF")
            else:
                emit(f"t = (r{ra} + {imm}) & 0xFFFF")
                emit(f"r{ra} = t")
                emit("z = t == 0")
                emit("n = t >= 0x8000")
        elif op == CMP:
            if dead[i]:
                pass
            elif ra in const and rb in const:
                value = (const[ra] - const[rb]) & 0xFFFF
                emit(f"z = {value == 0}")
                emit(f"n = {value >= 0x8000}")
            else:
                a_expr = str(const[ra]) if ra in const else f"r{ra}"
                b_expr = str(const[rb]) if rb in const else f"r{rb}"
                emit(f"t = ({a_expr} - {b_expr}) & 0xFFFF")
                emit("z = t == 0")
                emit("n = t >= 0x8000")
        elif op == CMPI:
            if dead[i]:
                pass
            elif ra in const:
                value = (const[ra] - imm) & 0xFFFF
                emit(f"z = {value == 0}")
                emit(f"n = {value >= 0x8000}")
            else:
                emit(f"t = (r{ra} - {imm}) & 0xFFFF")
                emit("z = t == 0")
                emit("n = t >= 0x8000")
        elif op == PUSH:
            if ra in const:
                vexpr, v_const = str(const[ra]), const[ra]
            elif ra == SP:
                emit("tv = r15")  # PUSH r15 stores the pre-decrement value
                vexpr, v_const = "tv", None
            else:
                vexpr, v_const = f"r{ra}", None
            emit("r15 = (r15 - 2) & 0xFFFF")
            const.pop(SP, None)
            emit_word_store("r15", None, vexpr, v_const)
            emit_smc_check("r15", None, True, nxt, prefix)
        elif op == POP:
            emit("if plain_word[r15]:")
            emit("    t = data[r15] | (data[r15 + 1] << 8)")
            emit("else:")
            emit("    t = read_word(r15)")
            emit("r15 = (r15 + 2) & 0xFFFF")
            emit(f"r{ra} = t")  # POP r15: loaded value wins over increment
            const.pop(SP, None)
            const.pop(ra, None)
        elif op == HALT:
            emit("cpu.halted = True")
            emit_flush()
            emit(f"return ({nxt}, {-prefix})")  # negative: frame ends here
        elif op == YIELD:
            emit("cpu._yielded = True")
            emit_flush()
            emit(f"return ({nxt}, {-prefix})")  # negative: frame ends here
        elif op == JMP:
            if i < last:
                pass  # traced through: the target's code follows inline
            elif loop:
                emit(f"n_cycles += {total}")
                emit(f"if n_cycles + {total} > budget:")
                emit_flush("    ")
                emit(f"    return ({start}, n_cycles)")
            else:
                # Terminator, or a traced-through JMP the trace ended on.
                emit_flush()
                emit(f"return ({imm}, {cyc(prefix)})")
        elif op in _COND_JUMPS:
            cond = _COND_EXPR[op]
            if i < last or terminator is None:
                # Traced through: early return on the taken path, the
                # fall-through continues in this block.
                emit(f"if {cond}:")
                emit_flush("    ")
                emit(f"    return ({imm}, {cyc(prefix)})")
            elif loop:
                emit(f"n_cycles += {total}")
                emit(f"if {cond}:")
                emit(f"    if n_cycles + {total} > budget:")
                emit_flush("        ")
                emit(f"        return ({start}, n_cycles)")
                emit("    continue")
                emit_flush()
                emit(f"return ({nxt}, n_cycles)")
            else:
                emit_flush()
                emit(f"return (({imm} if {cond} else {nxt}), {prefix})")
        elif op == CALL:
            emit("r15 = (r15 - 2) & 0xFFFF")
            emit_word_store("r15", None, str(nxt), nxt)
            emit_flush()
            emit(f"return ({imm}, {cyc(prefix)})")
        elif op == RET:
            emit("if plain_word[r15]:")
            emit("    t = data[r15] | (data[r15 + 1] << 8)")
            emit("else:")
            emit("    t = read_word(r15)")
            emit("r15 = (r15 + 2) & 0xFFFF")
            emit_flush()
            emit(f"return (t, {cyc(prefix)})")

    if terminator is None:
        emit_flush()
        emit(f"return ({instrs[last][6]}, {total})")

    lines.append("    return block")
    stops = terminator in (HALT, YIELD)
    return "\n".join(lines) + "\n", stops, total


class Cpu:
    """One RC-16 core attached to a :class:`~repro.emulator.memory.Memory`."""

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self.regs = [0] * 16
        self.pc = 0
        self.z = False
        self.n = False
        self.halted = False
        self.cycles = 0
        # Block-translation cache: entry pc → flat dispatch entry (see
        # _E_* layout), guarded by the dirty generations of the pages each
        # block spans (see run_frame_blocks).
        self._blocks: Dict[int, list] = {}
        # Negative cache: pcs where tracing produced nothing, valid while
        # the pc's page generation is unchanged.
        self._no_block: Dict[int, int] = {}
        self._inval_counts: Dict[int, int] = {}
        # Self-modifying code: address → (last value seen, changes seen),
        # and the addresses changed twice, which no block may span.
        self._code_changes: Dict[int, Tuple[int, int]] = {}
        self._volatile: Set[int] = set()
        self._hooks_epoch_seen = -1
        # Telemetry (monotonic; mirrored into repro.obs and bench JSON).
        self.blocks_compiled = 0
        self.block_hits = 0
        self.block_invalidations = 0
        self.block_revalidations = 0
        self.block_fallback_steps = 0

    def reset(self, entry: int) -> None:
        # In-place: compiled blocks capture this exact list object.
        self.regs[:] = (0,) * 16
        self.regs[SP] = INITIAL_SP
        self.pc = entry & 0xFFFF
        self.z = False
        self.n = False
        self.halted = False
        self.cycles = 0

    # ------------------------------------------------------------------
    def _set_flags(self, value: int) -> None:
        value &= 0xFFFF
        self.z = value == 0
        self.n = bool(value & 0x8000)

    def _fetch_word(self) -> int:
        word = self.memory.read_word(self.pc)
        self.pc = (self.pc + 2) & 0xFFFF
        return word

    def _push(self, value: int) -> None:
        sp = (self.regs[SP] - 2) & 0xFFFF
        self.regs[SP] = sp
        self.memory.write_word(sp, value & 0xFFFF)

    def _pop(self) -> int:
        sp = self.regs[SP]
        value = self.memory.read_word(sp)
        self.regs[SP] = (sp + 2) & 0xFFFF
        return value

    # ------------------------------------------------------------------
    # Block translation.
    # ------------------------------------------------------------------
    def _trace_block(self, start: int):
        """Decode an extended straight-line run starting at ``start``.

        Returns ``(instrs, terminator)`` or None when nothing compilable
        begins there (hooked/wrapping fetch, immediate illegal opcode,
        volatile code).  Tracing stops *before* an illegal opcode so the
        reference step faults with the exact pc, before any volatile byte
        (see :meth:`_revalidate_block`) so a word patched over and over
        is single-stepped instead of recompiled, and at the span limit so
        a block's guard never covers more than ``_MAX_BLOCK_PAGES`` dirty
        pages.

        Forward JMPs and non-self conditional jumps do not stop the
        trace: a forward JMP continues at its target (the gap stays in
        the guarded byte range), a conditional jump continues at its
        fall-through (the codegen turns it into an early return).
        """
        memory = self.memory
        data = memory._data
        plain_word = memory._plain_word
        volatile = self._volatile
        span_end = min((((start >> 8) + _MAX_BLOCK_PAGES) << 8), 0x10000)
        instrs: List[_Instr] = []
        terminator = None
        cur = start
        covered = start  # the block's byte range so far, gaps included
        while len(instrs) < _MAX_BLOCK_INSTRS:
            if cur >= span_end:
                break  # fall through into the next span's block
            if not plain_word[cur]:
                break  # hooked (or wrapping) fetch: interpreter territory
            word = data[cur] | (data[cur + 1] << 8)
            opcode = word >> 8
            if opcode not in MNEMONICS:
                break
            if opcode in HAS_IMMEDIATE:
                ipc = cur + 2
                if ipc > 0xFFFE or not plain_word[ipc]:
                    break
                imm = data[ipc] | (data[ipc + 1] << 8)
                end_raw = ipc + 2
                cost = 2
            else:
                imm = 0
                end_raw = cur + 2
                cost = 1
            if end_raw > span_end:
                break  # would drag the guard past the span limit
            if volatile and not volatile.isdisjoint(range(covered, end_raw)):
                break  # patched more than once: leave it to single-stepping
            covered = end_raw
            nxt = end_raw & 0xFFFF
            instrs.append(
                (cur, opcode, (word >> 4) & 0x0F, word & 0x0F, imm, cost, nxt)
            )
            if opcode in _TERMINATORS:
                if opcode == JMP and nxt <= imm < span_end:
                    cur = imm  # forward jump: keep tracing at the target
                    continue
                if opcode in _COND_JUMPS and imm != start:
                    cur = nxt  # early-return on taken, trace the fall-through
                    continue
                terminator = opcode
                break
            if end_raw > 0xFFFF:
                break  # successor would wrap the address space
            cur = nxt
        if not instrs:
            return None
        return instrs, terminator

    def _compile_block(self, start: int) -> Optional[list]:
        memory = self.memory
        page_gen = memory._page_gen
        if self._no_block.get(start) == page_gen[start >> 8]:
            return None
        if self._inval_counts.get(start, 0) >= _BLOCK_INVAL_LIMIT:
            return None  # blacklisted: persistent self-patcher
        if start in self._volatile or start + 1 in self._volatile:
            return None  # a volatile word: skip the trace, it would stop here
        traced = self._trace_block(start)
        if traced is None:
            self._no_block[start] = page_gen[start >> 8]
            return None
        instrs, terminator = traced
        source, stops, cost = _generate_block_source(
            start, instrs, terminator, memory._plain, memory._plain_word
        )
        code = _CODE_CACHE.get(source)
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.clear()  # pathological SMC churn: start over
            code = compile(source, f"<rc16-block-0x{start:04x}>", "exec")
            _CODE_CACHE[source] = code
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        block = _Block()
        block.start = start
        block.end = max(ins[0] + 2 * ins[5] for ins in instrs)
        block.cost = cost
        block.stops = stops
        block.code = bytes(memory._data[start:block.end])
        block.pages = tuple(range(start >> 8, ((block.end - 1) >> 8) + 1))
        block.source = source
        # Future writes must stamp strictly newer generations than the
        # guard, or a same-generation store could slip past it.
        if any(page_gen[p] >= memory._gen for p in block.pages):
            memory._gen += 1
        # The closure reads its own guard slots from the entry list, so it
        # must exist before the closure is constructed.
        entry = [None, cost, stops, block]
        for p in block.pages:
            entry.append(p)
            entry.append(page_gen[p])
        fn = namespace["_make"](
            self, self.regs, memory, memory._data, memory._plain,
            memory._plain_word, page_gen, memory.read_word,
            memory.write_word, memory.read_byte, memory.write_byte,
            entry, _MISS,
        )
        entry[0] = fn
        block.fn = fn
        self._blocks[start] = entry
        self.blocks_compiled += 1
        return entry

    def _revalidate_block(self, entry: list) -> Optional[list]:
        """A guarded page was written: keep the block iff its bytes are
        intact (data colocated on a code page is the common cause).

        On a true change each differing byte counts one change — once per
        new value, however many blocks span it — and a byte changed twice
        becomes volatile: no block traced from then on spans it.
        """
        memory = self.memory
        block = entry[_E_BLOCK]
        if all(memory._plain[p] for p in block.pages):
            code = memory._data[block.start : block.end]
            if code == block.code:
                page_gen = memory._page_gen
                if any(page_gen[p] >= memory._gen for p in block.pages):
                    memory._gen += 1
                for k, p in enumerate(block.pages):
                    entry[_E_GUARDS + 2 * k + 1] = page_gen[p]
                self.block_revalidations += 1
                return entry
            changes = self._code_changes
            for address, old, new in zip(
                range(block.start, block.end), block.code, code
            ):
                if old != new:
                    seen, count = changes.get(address, (old, 0))
                    if seen != new:
                        changes[address] = (new, count + 1)
                        if count:
                            self._volatile.add(address)
        del self._blocks[block.start]
        self.block_invalidations += 1
        self._inval_counts[block.start] = self._inval_counts.get(block.start, 0) + 1
        return None

    def run_frame_blocks(self, max_cycles: int) -> int:
        """Execute until YIELD/HALT or the cycle budget via compiled blocks.

        Bit-for-bit equivalent to :meth:`run_frame_reference`, including
        cycle accounting: a block only runs when its full cost fits the
        remaining budget (its closure consumes exactly the cycles the
        reference would), otherwise the tail is single-stepped.
        """
        self._yielded = False
        if self.halted:
            return 0
        memory = self.memory
        if memory._hooks_epoch != self._hooks_epoch_seen:
            # MMIO layout changed: page plainness is baked into block code.
            self._blocks.clear()
            self._no_block.clear()
            self._hooks_epoch_seen = memory._hooks_epoch
        page_gen = memory._page_gen
        plain = memory._plain
        blocks = self._blocks
        used = 0
        hits = 0
        fallback = 0
        pc = self.pc
        try:
            while used < max_cycles:
                entry = blocks.get(pc)
                if entry is not None:
                    npc, spent = entry[0](max_cycles - used)
                    if spent > 0:
                        pc = npc
                        used += spent
                        hits += 1
                        continue
                    if spent < 0:  # HALT/YIELD: the frame ends here
                        pc = npc
                        used -= spent
                        hits += 1
                        break
                    # miss: stale guard or budget tail
                    stale = False
                    for j in range(_E_GUARDS, len(entry), 2):
                        if page_gen[entry[j]] != entry[j + 1]:
                            stale = True
                            break
                    if stale:
                        # Refreshed guards retry; an invalidated block is
                        # recompiled by the entry-is-None path next pass.
                        self._revalidate_block(entry)
                        continue
                    # guard intact: the remaining budget is too small for
                    # the whole block — single-step the tail below.
                elif plain[pc >> 8] and self._compile_block(pc) is not None:
                    continue
                self.pc = pc
                try:
                    used += self.step_instruction()
                finally:
                    pc = self.pc
                fallback += 1
                if self.halted or self._yielded:
                    break
        finally:
            self.pc = pc
            self.block_hits += hits
            self.block_fallback_steps += fallback
        self.cycles += used
        return used

    def run_frame_reference(self, max_cycles: int) -> int:
        """The original if/elif interpreter, retained as the golden
        reference for the determinism contract (and as the seed baseline
        for the benchmark trajectory)."""
        used = 0
        while used < max_cycles and not self.halted:
            used += self.step_instruction()
            if self._yielded:
                break
        self.cycles += used
        return used

    _yielded = False

    def step_instruction(self) -> int:
        """Execute one instruction (reference path); returns its cycle cost."""
        self._yielded = False
        word = self._fetch_word()
        opcode = (word >> 8) & 0xFF
        ra = (word >> 4) & 0x0F
        rb = word & 0x0F
        cost = 1
        imm = 0
        if opcode in HAS_IMMEDIATE:
            imm = self._fetch_word()
            cost = 2

        regs = self.regs
        if opcode == NOP:
            pass
        elif opcode == HALT:
            self.halted = True
        elif opcode == YIELD:
            self._yielded = True
        elif opcode == LDI:
            regs[ra] = imm
        elif opcode == MOV:
            regs[ra] = regs[rb]
        elif opcode == LD:
            regs[ra] = self.memory.read_word((regs[rb] + imm) & 0xFFFF)
        elif opcode == ST:
            self.memory.write_word((regs[rb] + imm) & 0xFFFF, regs[ra])
        elif opcode == LDB:
            regs[ra] = self.memory.read_byte((regs[rb] + imm) & 0xFFFF)
        elif opcode == STB:
            self.memory.write_byte((regs[rb] + imm) & 0xFFFF, regs[ra])
        elif opcode == ADD:
            regs[ra] = (regs[ra] + regs[rb]) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == SUB:
            regs[ra] = (regs[ra] - regs[rb]) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == AND:
            regs[ra] &= regs[rb]
            self._set_flags(regs[ra])
        elif opcode == OR:
            regs[ra] |= regs[rb]
            self._set_flags(regs[ra])
        elif opcode == XOR:
            regs[ra] ^= regs[rb]
            self._set_flags(regs[ra])
        elif opcode == SHL:
            regs[ra] = (regs[ra] << (regs[rb] & 0x0F)) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == SHR:
            regs[ra] = (regs[ra] >> (regs[rb] & 0x0F)) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == MUL:
            regs[ra] = (regs[ra] * regs[rb]) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == ADDI:
            regs[ra] = (regs[ra] + imm) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == CMP:
            self._set_flags(regs[ra] - regs[rb])
        elif opcode == CMPI:
            self._set_flags(regs[ra] - imm)
        elif opcode == JMP:
            self.pc = imm
        elif opcode == JZ:
            if self.z:
                self.pc = imm
        elif opcode == JNZ:
            if not self.z:
                self.pc = imm
        elif opcode == JLT:
            if self.n:
                self.pc = imm
        elif opcode == JGE:
            if not self.n:
                self.pc = imm
        elif opcode == JLE:
            if self.z or self.n:
                self.pc = imm
        elif opcode == JGT:
            if not (self.z or self.n):
                self.pc = imm
        elif opcode == CALL:
            self._push(self.pc)
            self.pc = imm
        elif opcode == RET:
            self.pc = self._pop()
        elif opcode == PUSH:
            self._push(regs[ra])
        elif opcode == POP:
            regs[ra] = self._pop()
        else:
            raise CpuFault(
                f"illegal opcode 0x{opcode:02x} at pc=0x{(self.pc - cost * 2) & 0xFFFF:04x}"
            )
        return cost

    # ------------------------------------------------------------------
    def save_state(self) -> bytes:
        return _STATE.pack(
            *self.regs, self.pc, int(self.z), int(self.n), int(self.halted)
        )

    def load_state(self, blob: bytes) -> None:
        if len(blob) != _STATE.size:
            raise MachineError(
                f"cpu state must be {_STATE.size} bytes, got {len(blob)}"
            )
        fields = _STATE.unpack(blob)
        self.regs[:] = fields[:16]
        self.pc = fields[16]
        self.z = bool(fields[17])
        self.n = bool(fields[18])
        self.halted = bool(fields[19])

    STATE_SIZE = _STATE.size
