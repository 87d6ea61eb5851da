"""The compiled tier: compile steady-state loops to specialized Python.

The reference engines re-decode every operation on every simulated
cycle.  This module removes that dispatch: per
``(kernel, architecture-fingerprint)`` it emits Python *source* for the
whole CGA steady-state window — the ``II`` contexts unrolled into
straight-line code with the hot counters as locals, predication and the
4x16 SIMD lane maths inlined (a SIMD value is four locals, one per
16-bit lane, see ``_lane_template``), and the commit ring replaced by
per-operation shift registers whose commits, like every latch and
local-RF write and routing move, are resolved while generating (see
:class:`_CgaGen`) — plus straight-line runs of VLIW bundles (one
generated function per branch-free segment).

Every generated function is lane-batched: it advances ``B`` packets
("lanes") per call through structure-of-arrays arguments, with the
scratchpad and instruction-cache models inlined.  ``B`` is the length
of those arguments, so one compile serves every width and a single
packet is a batch of one.  :class:`repro.sim.batch.BatchProgramRunner`
is the only caller; it groups lanes and calls the function once per
group.

Generated sources live in the two-level :class:`repro.cache.ArtifactCache`
shared with the modulo-schedule cache, keyed by the structural
kernel/segment signature and the architecture geometry the source
inlines (the signature excludes immediate *values*, so
``patch_constants`` variants share one compiled artifact and differ only
in the immediate pool passed at call time).  A warm cache directory
lets a fresh process or a forked fabric worker perform zero codegen.
Compiled functions are memoised per process next to it.

Correctness contract: for every well-formed program the compiled tier
produces bit-identical architectural state, cycle counts and
:class:`~repro.sim.stats.ActivityStats` (per-cause stall counters
included) to the reference tier (``tests/sim/test_differential.py``
runs both).  Central-RF port pressure, which the reference tier checks
dynamically through :class:`~repro.sim.regfile.RegisterFile`, is
checked *statically* at generation time; a kernel or bundle whose worst
case could overflow the ports raises :class:`CodegenUnsupported` and
the runner falls back to the reference loop for it (keeping the
dynamic check).
"""

from __future__ import annotations

import itertools
import keyword
import re
import struct
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.cache import ArtifactCache
from repro.isa.bits import MASK64
from repro.isa.instruction import Imm, PredReg, Reg
from repro.isa.opcodes import (
    MAX_OP_LATENCY,
    Opcode,
    OpGroup,
    group_of,
    latency_of,
    op_weight,
)
from repro.isa.semantics import DATAFLOW_GROUPS, operand_count
from repro.sim import memops
from repro.sim.memory import MemoryError_
from repro.sim.program import CgaKernel, DstKind, SrcKind, SrcSel, VliwBundle
from repro.trace.events import StallCause
from repro.trace.tracer import get_tracer


class CodegenUnsupported(Exception):
    """The construct cannot be compiled with static port-pressure proof;
    the runner falls back to the reference loop (which checks dynamically)."""


#: Sentinel marking an empty shift-register slot in generated code.  It
#: lives only in this process (generated *source* is what gets persisted,
#: never the sentinel), so identity checks are safe.
_ABSENT = object()

#: Generated sources, keyed by the structural kernel/segment signature
#: and the architecture geometry the source inlines.  The disk level
#: adds a digest of the modules whose source decides what a generated
#: function computes, so a directory written by another version of the
#: generator never serves it stale source.
_SOURCES = ArtifactCache(
    ".codegen.pkl",
    ("repro.sim.codegen", "repro.isa.semantics", "repro.sim.memops",
     "repro.isa.opcodes"),
    str,
    "compilations",
)
_FN_CACHE: Dict[tuple, Callable] = {}


def codegen_stats() -> Dict[str, int]:
    """Counters since the last :func:`clear_codegen_cache`.

    ``compilations`` counts source *generations* (the expensive step a
    warm disk cache eliminates); memory/disk hits count reuses.
    """
    return dict(_SOURCES.stats)


def clear_codegen_cache() -> None:
    """Drop the in-memory source/function caches (disk is untouched)."""
    _SOURCES.clear()
    _FN_CACHE.clear()


def _cached_source(key: tuple, kind: str, label: str, generate: Callable[[], str]) -> str:
    """The generated source for *key*; a generation is traced."""

    def compute() -> str:
        source = generate()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "codegen.compile.%s" % kind,
                tracer.tick(),
                cat="codegen",
                args={"name": label, "source_lines": source.count("\n")},
            )
        return source

    return _SOURCES.get(key, compute)


def _base_namespace() -> Dict[str, object]:
    """The exec namespace every generated function closes over."""
    ns: Dict[str, object] = {"_A": _ABSENT}
    for group in OpGroup:
        ns["_G_%s" % group.name] = group
    ns["_BC"] = StallCause.BANK_CONFLICT
    ns["_IC"] = StallCause.ICACHE_MISS
    ns["_IL"] = StallCause.INTERLOCK
    ns["_BR"] = StallCause.BRANCH
    ns["_fb"] = int.from_bytes
    ns["_P8"] = struct.Struct("<Q").pack
    ns["_P4"] = _LANE_STRUCT.pack
    ns["_U4"] = _LANE_STRUCT.unpack
    ns["_L4"] = _LANE_STRUCT.unpack_from
    ns["_S4"] = _LANE_STRUCT.pack_into
    return ns


def _compiled_fn(key: tuple, source: str, fn_name: str, extra: Dict[str, object]) -> Callable:
    """``compile()`` + ``exec`` the source once per process, per key."""
    fn = _FN_CACHE.get(key)
    if fn is None:
        ns = _base_namespace()
        ns.update(extra)
        code = compile(source, "<repro.sim.codegen:%s>" % fn_name, "exec")
        exec(code, ns)
        fn = ns[fn_name]
        _FN_CACHE[key] = fn
    return fn


# ----------------------------------------------------------------------
# Inline memory model
# ----------------------------------------------------------------------
#
# The generated code inlines the semantics of ``Scratchpad.timed_read``/
# ``timed_write`` — bounds check, per-bank busy clocks, conflict
# accounting — against per-lane ``_mem``/``_bank_next_free`` views, so
# the geometry constants baked into the source must appear in the cache
# keys.  Counter locals (``n_l1r``/``n_l1w``/``n_bc``/
# ``bc_stall``) are flushed to the lane's ActivityStats exactly once.


def _emit_arbitrate(lines: List[str], ind: str, cycle_var: str,
                    addr_expr: str, n_banks: int, first: bool) -> None:
    """Inline ``Scratchpad._arbitrate``: serve at the bank's next free
    cycle, push the bank clock, count a conflict when delayed."""
    lines.append(ind + "bank = ((%s) >> 2) %% %d" % (addr_expr, n_banks))
    lines.append(ind + "serve = BNF[bank]")
    lines.append(ind + "if serve < %s:" % cycle_var)
    lines.append(ind + "    serve = %s" % cycle_var)
    lines.append(ind + "BNF[bank] = serve + 1")
    if first:
        lines.append(ind + "extra = serve - %s" % cycle_var)
        lines.append(ind + "if extra > 0:")
        lines.append(ind + "    n_bc += 1")
        lines.append(ind + "    bc_stall += extra")
    else:  # second word of a 64-bit access: delay is the max of both
        lines.append(ind + "d2 = serve - %s" % cycle_var)
        lines.append(ind + "if d2 > 0:")
        lines.append(ind + "    n_bc += 1")
        lines.append(ind + "    bc_stall += d2")
        lines.append(ind + "    if d2 > extra:")
        lines.append(ind + "        extra = d2")


def _emit_access(lines: List[str], ind: str, cycle_var: str, size: int,
                 n_banks: int, mem_bytes: int, idle: bool) -> bool:
    """Bounds check plus bank arbitration of one access; returns whether
    it can stall, with its delay left in ``extra``.

    *idle* says every bank clock is at or below *cycle_var*.  The access
    is then served at *cycle_var* and only writes the clocks it claims,
    unless it is a 64-bit access on a 1-bank L1, whose second word
    queues behind its first."""
    # ``addr`` is pre-masked to 32 bits at every call site, so only the
    # upper bound can fail (same observable behaviour as ``_check``).
    lines.append(ind + "if addr + %d > %d:" % (size, mem_bytes))
    lines.append(
        ind + "    raise _ME('scratchpad access [%%d, %%d) outside %d bytes'"
        " %% (addr, addr + %d))" % (mem_bytes, size)
    )
    if idle and size <= 4:
        lines.append(ind + "BNF[(addr >> 2) %% %d] = %s + 1" % (n_banks, cycle_var))
        return False
    if idle and n_banks >= 2:
        lines.append(ind + "bank = (addr >> 2) %% %d" % n_banks)
        lines.append(ind + "BNF[bank] = BNF[(bank + 1) %% %d] = %s + 1"
                     % (n_banks, cycle_var))
        return False
    _emit_arbitrate(lines, ind, cycle_var, "addr", n_banks, True)
    if size == 8:
        _emit_arbitrate(lines, ind, cycle_var, "addr + 4", n_banks, False)
    return True


def _emit_inline_read(lines: List[str], ind: str, cycle_var: str, size: int,
                      n_banks: int, mem_bytes: int, tally=None,
                      idle: bool = False, dest: str = "raw", lanes: bool = False) -> bool:
    """Inline ``Scratchpad.timed_read`` into *dest* (four lane locals
    with *lanes*, for 8-byte reads) and, when it returns True, leave the
    bank-conflict delay in ``extra`` (see :func:`_emit_access`).

    With *tally* (a counter dict), statically-known access counts are
    accumulated there instead of emitting per-access increments."""
    stalls = _emit_access(lines, ind, cycle_var, size, n_banks, mem_bytes, idle)
    if tally is None:
        lines.append(ind + "n_l1r += %d" % (1 if size <= 4 else 2))
    else:
        tally["n_l1r"] += 1 if size <= 4 else 2
    if lanes:
        lines.append(ind + "%s = _L4(M, addr)" % dest)
    else:
        lines.append(ind + "%s = _fb(M[addr:addr + %d], 'little')" % (dest, size))
    return stalls


def _emit_inline_write(lines: List[str], ind: str, cycle_var: str, size: int,
                       n_banks: int, mem_bytes: int, tally=None,
                       idle: bool = False, lanes: Optional[str] = None) -> bool:
    """Inline ``Scratchpad.timed_write`` of pre-masked ``v_st`` (or, for
    8-byte writes, of the four lane expressions *lanes*); when it
    returns True, leaves the bank-conflict delay in ``extra``."""
    stalls = _emit_access(lines, ind, cycle_var, size, n_banks, mem_bytes, idle)
    if tally is None:
        lines.append(ind + "n_l1w += %d" % (1 if size <= 4 else 2))
    else:
        tally["n_l1w"] += 1 if size <= 4 else 2
    if lanes is not None:
        lines.append(ind + "_S4(M, addr, %s)" % lanes)
    else:
        lines.append(ind + "M[addr:addr + %d] = v_st.to_bytes(%d, 'little')" % (size, size))
    return stalls


# ----------------------------------------------------------------------
# CGA: structural signature and immediate pool
# ----------------------------------------------------------------------
#
# The signature keys the cache; the pool carries everything the
# signature excludes (immediate and phi-init values, central-RF
# register indices read or written) as runtime arguments, so kernels
# that differ only in those share one source.  Both walk the kernel in
# one canonical order (contexts in sequence, FUs sorted within a
# context, pred before srcs before dsts within an op) so a signature hit
# guarantees pool-slot agreement.


def _iter_cga_ops(kernel: CgaKernel) -> Iterator[Tuple[int, int, int, object]]:
    """Yield ``(ctx_index, position, fu, op)`` in canonical order."""
    for ci, ctx in enumerate(kernel.contexts):
        for pos, fu in enumerate(sorted(ctx.ops)):
            yield ci, pos, fu, ctx.ops[fu]


def _pool_value(op, src_index: Optional[int], sel: SrcSel) -> int:
    """The runtime value of an IMM selection, with the mem-offset
    pre-scaling :func:`repro.sim.memops.effective_address` applies (IMM
    offset, no phi init)."""
    value = sel.value & MASK64
    if (
        src_index == 1
        and sel.init is None
        and group_of(op.opcode) in (OpGroup.LDMEM, OpGroup.STMEM)
    ):
        value <<= memops.mem_info(op.opcode).imm_scale
    return value


#: Source kinds whose register index lives in the pool, not the source.
_POOLED_SRCS = (SrcKind.CDRF, SrcKind.CPRF)


def _cga_pool_map(kernel: CgaKernel):
    """Return ``(values, site_index)`` where ``site_index`` maps
    ``(ctx, fu, role, index)`` to ``(slot, init_slot)``: the pool slot
    of an immediate's value or a central register's index, and of a
    phi's init.  Role ``"dst"`` sites are central-RF writes."""
    values: List[int] = []
    index: Dict[tuple, Tuple[Optional[int], Optional[int]]] = {}
    for ci, _pos, fu, op in _iter_cga_ops(kernel):
        sites = []
        if op.pred is not None:
            sites.append(("pred", None, op.pred))
        for i, sel in enumerate(op.srcs):
            sites.append(("src", i, sel))
        for role, i, sel in sites:
            imm_slot = init_slot = None
            if sel.kind is SrcKind.IMM:
                imm_slot = len(values)
                values.append(_pool_value(op, i, sel))
            elif sel.kind in _POOLED_SRCS:
                imm_slot = len(values)
                values.append(sel.value)
            if sel.init is not None:
                init_slot = len(values)
                values.append(sel.init & MASK64)
            index[(ci, fu, role, i)] = (imm_slot, init_slot)
        for j, dst in enumerate(op.dsts):
            if dst.kind is not DstKind.LRF:
                index[(ci, fu, "dst", j)] = (len(values), None)
                values.append(dst.index)
    return values, index


def cga_imms(kernel: CgaKernel) -> Tuple[int, ...]:
    """The kernel's runtime pool (immediates, phi inits, central
    register indices), in canonical site order."""
    return tuple(_cga_pool_map(kernel)[0])


#: SIMD opcodes that return their first operand when the second is 0.
#: The scheduler's routing moves (``MOVE_OPCODE``, ``c4add x, 0``) are
#: the common case; the generator emits such an op as a plain copy.
_IDENTITY_WITH_ZERO = frozenset({Opcode.C4ADD, Opcode.C4SUB, Opcode.C4OR, Opcode.C4XOR})


def _zero_site(op) -> bool:
    """Is *op*'s second source the non-phi immediate of an identity-with-zero
    opcode?  Its zero-ness decides the emitted code, so the signature
    records it; every other immediate value stays out of the key."""
    return (op.opcode in _IDENTITY_WITH_ZERO and len(op.srcs) == 2
            and op.srcs[1].kind is SrcKind.IMM and op.srcs[1].init is None)


def _is_identity(op) -> bool:
    """Does *op* return exactly its first operand (e.g. a routing move)?"""
    return _zero_site(op) and op.srcs[1].value & MASK64 == 0


def _sel_sig(sel: Optional[SrcSel]) -> Optional[tuple]:
    if sel is None:
        return None
    return (
        sel.kind.value,
        None if sel.kind is SrcKind.IMM or sel.kind in _POOLED_SRCS else sel.value,
        sel.init is not None,
    )


def cga_signature(kernel: CgaKernel) -> tuple:
    """Structural identity of a kernel: everything except immediate and
    phi-init *values* and central-RF register indices (all pooled), the
    trip count, preloads and the name.  The one value-dependent bit is
    whether an identity-with-zero site (:func:`_zero_site`) holds 0, so
    a hit stays valid under ``patch_constants``."""
    ctxs = []
    for ctx in kernel.contexts:
        ops = []
        for fu in sorted(ctx.ops):
            op = ctx.ops[fu]
            srcs = tuple(_sel_sig(s) for s in op.srcs)
            if _zero_site(op):
                srcs += (op.srcs[1].value & MASK64 == 0,)
            ops.append(
                (
                    fu,
                    op.opcode.value,
                    op.stage,
                    op.pred_negate,
                    _sel_sig(op.pred),
                    srcs,
                    tuple(
                        (d.kind.value, d.index if d.kind is DstKind.LRF else None,
                         d.last_iteration_only)
                        for d in op.dsts
                    ),
                )
            )
        ctxs.append(tuple(ops))
    return (kernel.ii, kernel.stage_count, tuple(ctxs))


# ----------------------------------------------------------------------
# Inline dataflow semantics
# ----------------------------------------------------------------------
#
# Expression templates reproduce :mod:`repro.isa.semantics` bit-exactly
# with the dispatch removed.  The SIMD lane templates work on four
# lane expressions; they and the int <-> lanes conversions are checked against
# the lifted reference forms in ``tests/sim/test_lane_templates.py``
# and the differential suite.


def _sx(expr: str) -> str:
    """Sign-extend a raw 32-bit pattern expression to a Python int."""
    return "((((%s) & 4294967295) ^ 2147483648) - 2147483648)" % expr


def _sx24(expr: str) -> str:
    """Sign-extend the low 24 bits of *expr* (the dividers' operands)."""
    return "((((%s) & 16777215) ^ 8388608) - 8388608)" % expr


def _ucmp(tmpl: str):
    return lambda a, b: ("(1 if (%s & 4294967295) " + tmpl + " (%s & 4294967295) else 0)") % (a, b)


def _scmp(tmpl: str):
    return lambda a, b: ("(1 if %s " + tmpl + " %s else 0)") % (_sx(a), _sx(b))


_SCALAR_EXPR = {
    Opcode.ADD: lambda a, b: "((%s + %s) & 4294967295)" % (a, b),
    Opcode.ADD_U: lambda a, b: "((%s + %s) & 4294967295)" % (a, b),
    Opcode.SUB: lambda a, b: "((%s - %s) & 4294967295)" % (a, b),
    Opcode.SUB_U: lambda a, b: "((%s - %s) & 4294967295)" % (a, b),
    Opcode.OR: lambda a, b: "((%s | %s) & 4294967295)" % (a, b),
    Opcode.NOR: lambda a, b: "(~(%s | %s) & 4294967295)" % (a, b),
    Opcode.AND: lambda a, b: "((%s & %s) & 4294967295)" % (a, b),
    Opcode.NAND: lambda a, b: "(~(%s & %s) & 4294967295)" % (a, b),
    Opcode.XOR: lambda a, b: "((%s ^ %s) & 4294967295)" % (a, b),
    Opcode.XNOR: lambda a, b: "(~(%s ^ %s) & 4294967295)" % (a, b),
    Opcode.LSL: lambda a, b: "(((%s & 4294967295) << (%s & 31)) & 4294967295)" % (a, b),
    Opcode.LSR: lambda a, b: "((%s & 4294967295) >> (%s & 31))" % (a, b),
    Opcode.ASR: lambda a, b: "((%s >> (%s & 31)) & 4294967295)" % (_sx(a), b),
    Opcode.MUL: lambda a, b: "((%s * %s) & 4294967295)" % (_sx(a), _sx(b)),
    Opcode.MUL_U: lambda a, b: "((%s * %s) & 4294967295)" % (a, b),
    # Equality is sign-agnostic on equal-width patterns.
    Opcode.EQ: _ucmp("=="),
    Opcode.NE: _ucmp("!="),
    Opcode.GT: _scmp(">"),
    Opcode.GT_U: _ucmp(">"),
    Opcode.LT: _scmp("<"),
    Opcode.LT_U: _ucmp("<"),
    Opcode.GE: _scmp(">="),
    Opcode.GE_U: _ucmp(">="),
    Opcode.LE: _scmp("<="),
    Opcode.LE_U: _ucmp("<="),
    Opcode.PRED_EQ: _ucmp("=="),
    Opcode.PRED_NE: _ucmp("!="),
    Opcode.PRED_LT: _scmp("<"),
    Opcode.PRED_LT_U: _ucmp("<"),
    Opcode.PRED_LE: _scmp("<="),
    Opcode.PRED_LE_U: _ucmp("<="),
    Opcode.PRED_GT: _scmp(">"),
    Opcode.PRED_GT_U: _ucmp(">"),
    Opcode.PRED_GE: _scmp(">="),
    Opcode.PRED_GE_U: _ucmp(">="),
    # The 24-bit dividers: a zero divisor gives all ones.  Signed
    # quotients truncate toward zero; |a|, |b| <= 2**23, so the float
    # quotient is within 2**-30 of the exact one, whose distance to the
    # next integer is at least 2**-23, and ``int`` truncates it exactly.
    Opcode.DIV: lambda a, b: "((int(%s / %s) & 16777215) if (%s) & 16777215 else 16777215)"
    % (_sx24(a), _sx24(b), b),
    Opcode.DIV_U: lambda a, b: "(((%s) & 16777215) // ((%s) & 16777215) if (%s) & 16777215"
    " else 16777215)" % (a, b, b),
    Opcode.PRED_CLEAR: lambda a, b: "0",
    Opcode.PRED_SET: lambda a, b: "1",
}

#: Value forms of generated code.  A SIMD result or an 8-byte load is
#: carried as four signed 16-bit lanes, lane 0 (the LSBs) first, each in
#: its own local; everything else is a raw int.  Small ints are cheap in
#: CPython where a packed 64-bit word is a multi-digit long, so the lane
#: maths runs on the lanes and a value changes form only where a
#: consumer needs the other one (see :class:`_CgaGen`).  The VLIW
#: generator and the lane-template tests also pass a lane-tuple
#: *expression* where a form is ``_LANES``.
_INT = "i"
_LANES = "t"

_LANE_STRUCT = struct.Struct("<4h")

#: Names generated CGA code reads from its namespace or the builtins.
_GLOBAL_NAMES = frozenset(_base_namespace()) | {"_ME", "int"}

#: SIMD ops whose second operand is a shift amount (its low 4 bits).
_LANE_SHIFTS = frozenset({Opcode.C4SHIFTL, Opcode.C4SHIFTR})

_LANE_BITWISE = {Opcode.C4AND: "&", Opcode.C4OR: "|", Opcode.C4XOR: "^"}

#: An atom: a local, a pool immediate or an integer literal (negative
#: ones parenthesised) -- an expression a value can be held as without
#: evaluating anything.
_ATOM = re.compile(r"[A-Za-z_]\w*|\d+|\(-\d+\)")
#: A name that is not an attribute, and a string literal.
_LOCAL = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
_STRING = re.compile(r"'[^']*'")


def _is_var(atom: str) -> bool:
    """Is *atom* a local that generated code assigns (not a literal, a
    pool immediate ``imm_<k>`` or an immediate's lane ``iv_<k>_<i>``)?"""
    var = _VARS.get(atom)
    if var is None:
        var = _VARS[atom] = ((atom[0].isalpha() or atom[0] == "_")
                             and not atom.startswith(("imm_", "iv_")))
    return var


_VARS: Dict[str, bool] = {}


def _lane_atoms(base: str) -> Tuple[str, ...]:
    """The four lane locals of a lanes value named *base*."""
    return (base + "_0", base + "_1", base + "_2", base + "_3")


def _literal_value(atom: str) -> Optional[int]:
    if atom[0].isdigit():
        return int(atom)
    if atom[0] == "(":
        return int(atom[1:-1])
    return None


def _literal_lanes(word: int) -> Tuple[str, ...]:
    """The lanes of the 64-bit pattern *word*, as literals."""
    lanes = ((((word >> (16 * i)) & 65535) ^ 32768) - 32768 for i in range(4))
    return tuple(str(x) if x >= 0 else "(%d)" % x for x in lanes)


def _as_lanes(expr: str, form: Optional[str]) -> str:
    """*expr*, held in *form*, as a lane-tuple expression."""
    return expr if form == _LANES else "_U4(_P8(%s))" % expr


def _as_int(expr, form: Optional[str]) -> str:
    """*expr*, held in *form*, as a raw-int expression (a lanes value is
    four lane expressions or a lane-tuple expression)."""
    if form != _LANES:
        return expr
    if isinstance(expr, tuple):
        return "_fb(_P4(%s), 'little')" % ", ".join(expr)
    return "_fb(_P4(*%s), 'little')" % expr


def _convert(expr: str, src: Optional[str], dst: Optional[str]) -> str:
    """*expr* moved from form *src* to *dst* (``None``: holds only ``_A``)."""
    if src is None or dst is None or src == dst:
        return expr
    return _as_lanes(expr, src) if dst == _LANES else _as_int(expr, src)


def _low_bits(expr, form: Optional[str]) -> str:
    """An int expression agreeing with *expr* in its low 16 bits: enough
    for predicate (``& 1``) and shift-amount (``& 15``) consumers."""
    if form != _LANES:
        return expr
    return expr[0] if isinstance(expr, tuple) else "%s[0]" % expr


def _lane_operand(expr: str, form: str, lane_imms: set):
    """*expr* as a SIMD operand.  An immediate ``imm_<k>`` is converted
    once at function entry into the lanes ``iv_<k>_<i>``; *lane_imms*
    collects *k*."""
    if expr.startswith("imm_"):
        lane_imms.add(int(expr[4:]))
        return _lane_atoms("iv_" + expr[4:])
    return _as_lanes(expr, form)


def _emit_lane_imms(lines: List[str], at: int, ind: str, lane_imms: set) -> None:
    """Insert the entry conversions of the immediates used as lanes."""
    lines[at:at] = [ind + "%s = _U4(_P8(imm_%d))" % (", ".join(_lane_atoms("iv_%d" % k)), k)
                    for k in sorted(lane_imms)]


def _require_lane_words(op: Opcode, word_bits: int) -> None:
    """Lanes hold 64 bits: an operand read from a wider register file is
    refused (the op runs on the reference loop)."""
    if word_bits > 64:
        raise CodegenUnsupported(
            "%s needs operands of at most 64 bits, not %d" % (op.value, word_bits))


def _sat16(s: str) -> str:
    return "(32767 if %s > 32767 else (%s if %s >= -32768 else -32768))" % (s, s, s)


#: Clamps a lane template may leave on a lane: none, to int16's upper
#: end (a q15 product of two int16 lies in [-32767, 32768]) or to both.
_CLAMP_NONE, _CLAMP_HI, _CLAMP_BOTH = 0, 1, 2


def _lane_template(lines: List[str], ind: str, op: Opcode, a, b,
                   word_bits: int) -> List[Tuple[str, int]]:
    """Emit the statements of SIMD *op*'s template and return, per result
    lane (lane 0 first), an expression and the clamp its value still
    needs: the one lane template set of both generators.

    *a* is four lane expressions, or a lane-tuple expression (unpacked
    into ``a0``..``a3``); *b* is the same for the lane-wise ops, an int
    expression for the shifts (only its low 4 bits count) and ``None``
    for the unary ops.  A swizzle's lanes are *a*'s own expressions.  On
    sign-extended lanes ``&``, ``|``, ``^`` and the arithmetic right
    shift stay in range, so only the left shift wraps and only add, sub,
    negate and the q15 products saturate."""
    _require_lane_words(op, word_bits)
    w = lines.append
    if isinstance(a, str):
        w(ind + "a0, a1, a2, a3 = %s" % a)
        a = ("a0", "a1", "a2", "a3")
    if op in _LANE_SHIFTS:
        w(ind + "sh = (%s) & 15" % b)
        if op is Opcode.C4SHIFTR:
            return [("%s >> sh" % x, _CLAMP_NONE) for x in a]
        return [("(((%s << sh) + 32768) & 65535) - 32768" % x, _CLAMP_NONE) for x in a]
    if op is Opcode.C4SWAP32:
        return [(a[2], _CLAMP_NONE), (a[3], _CLAMP_NONE), (a[0], _CLAMP_NONE),
                (a[1], _CLAMP_NONE)]
    if op is Opcode.C4SWAP16:
        return [(a[1], _CLAMP_NONE), (a[0], _CLAMP_NONE), (a[3], _CLAMP_NONE),
                (a[2], _CLAMP_NONE)]
    if op is Opcode.C4NEGB:
        return [(a[0], _CLAMP_NONE), ("32767 if %s == -32768 else -%s" % (a[1], a[1]), _CLAMP_NONE),
                (a[2], _CLAMP_NONE), ("32767 if %s == -32768 else -%s" % (a[3], a[3]), _CLAMP_NONE)]
    if isinstance(b, str):
        w(ind + "b0, b1, b2, b3 = %s" % b)
        b = ("b0", "b1", "b2", "b3")
    if op in (Opcode.C4ADD, Opcode.C4SUB):
        sign = "+" if op is Opcode.C4ADD else "-"
        return [("%s %s %s" % (a[i], sign, b[i]), _CLAMP_BOTH) for i in range(4)]
    if op in _LANE_BITWISE:
        return [("%s %s %s" % (a[i], _LANE_BITWISE[op], b[i]), _CLAMP_NONE) for i in range(4)]
    if op is Opcode.C4MAX:
        return [("%s if %s > %s else %s" % (a[i], a[i], b[i], b[i]), _CLAMP_NONE)
                for i in range(4)]
    if op is Opcode.C4MIN:
        return [("%s if %s < %s else %s" % (a[i], a[i], b[i], b[i]), _CLAMP_NONE)
                for i in range(4)]
    if op in (Opcode.D4PROD, Opcode.C4PROD):
        # C4PROD pairs across: |a1*b2|b1*a2|c1*d2|d1*c2|.
        pairs = ((0, 0), (1, 1), (2, 2), (3, 3)) if op is Opcode.D4PROD \
            else ((0, 1), (1, 0), (2, 3), (3, 2))
        return [("(%s * %s) >> 15" % (a[x], b[y]), _CLAMP_HI) for x, y in pairs]
    raise CodegenUnsupported("no lane template for %s" % op.value)  # pragma: no cover


def _emit_lanes(lines: List[str], ind: str, op: Opcode, a, b,
                word_bits: int) -> Tuple[str, ...]:
    """:func:`_lane_template` as four result lane expressions: a lane
    that needs a clamp is computed into ``s<k>`` (both ends) or ``t<k>``
    (upper end) first."""
    lanes = []
    for k, (expr, clamp) in enumerate(_lane_template(lines, ind, op, a, b, word_bits)):
        if clamp == _CLAMP_BOTH:
            lines.append(ind + "s%d = %s" % (k, expr))
            expr = _sat16("s%d" % k)
        elif clamp == _CLAMP_HI:
            lines.append(ind + "t%d = %s" % (k, expr))
            expr = "32767 if t%d > 32767 else t%d" % (k, k)
        lanes.append(expr)
    return tuple(lanes)


def _emit_clamp(lines: List[str], ind: str, name: str, clamp: int) -> None:
    """Saturate the lane held in *name* in place."""
    if clamp != _CLAMP_NONE:
        lines.append(ind + "if %s > 32767:" % name)
        lines.append(ind + "    %s = 32767" % name)
    if clamp == _CLAMP_BOTH:
        lines.append(ind + "elif %s < -32768:" % name)
        lines.append(ind + "    %s = -32768" % name)


def _emit_moves(lines: List[str], ind: str, moves: List[Tuple[str, str]]) -> None:
    """Emit the parallel copy of every ``(dst, src)`` atom pair (distinct
    *dst* locals) as sequential assignments: a pair goes once no other
    pending pair still reads its destination; a cycle is broken through
    a temporary."""
    pending = [(d, s) for d, s in moves if d != s]
    n_tmp = 0
    while pending:
        reads = {s for _d, s in pending}
        for k, (d, s) in enumerate(pending):
            if d not in reads:
                lines.append(ind + "%s = %s" % (d, s))
                del pending[k]
                break
        else:
            d = pending[0][0]
            tmp = "_t%d" % n_tmp
            n_tmp += 1
            lines.append(ind + "%s = %s" % (tmp, d))
            pending = [(dd, tmp if ss == d else ss) for dd, ss in pending]


# ----------------------------------------------------------------------
# CGA source generation
# ----------------------------------------------------------------------


class _CgaChain:
    """One operation's result pipeline: issue phase, commit phase, the
    shift registers carrying the in-flight value."""

    __slots__ = ("oid", "ci", "pos", "fu", "op", "group", "kind", "latency",
                 "weight", "stage", "q", "delta", "n", "arity", "simd", "identity",
                 "shifts", "key")

    def __init__(self, oid, ci, pos, fu, op, group, kind, ii):
        self.oid = oid
        self.ci = ci
        self.pos = pos
        self.fu = fu
        self.op = op
        self.group = group
        self.kind = kind  # "dataflow" | "load" | "store"
        self.latency = latency_of(op.opcode)
        self.weight = op_weight(op.opcode)
        self.stage = op.stage
        self.arity = operand_count(op.opcode) if kind == "dataflow" else 0
        self.simd = group in (OpGroup.SIMD1, OpGroup.SIMD2)
        self.identity = self.simd and _is_identity(op)
        self.shifts = op.opcode in _LANE_SHIFTS
        self.key = "x%d" % oid  # the locals its values are named after
        if kind == "store":
            self.q = self.delta = self.n = 0
            return
        self.q = (ci + self.latency) % ii
        self.delta = (ci + self.latency) // ii
        self.n = self.delta + (1 if self.q > ci else 0)


class _Val:
    """A value as generated code holds it: an int expression ``i``, four
    lane expressions ``t`` (lane 0 first), or both (a local-RF entry the
    kernel only reads, converted once at entry).  The expressions of a
    value held by a location are atoms."""

    __slots__ = ("i", "t", "vars")

    def __init__(self, i: Optional[str] = None, t: Optional[Tuple[str, ...]] = None):
        self.i = i
        self.t = t
        #: The atoms generated code assigns (see :func:`_is_var`).
        if t is None:
            self.vars = (i,) if _is_var(i) else ()
        else:
            self.vars = tuple([a for a in self.atoms() if _is_var(a)])

    def atoms(self) -> Tuple[str, ...]:
        return ((self.i,) if self.i is not None else ()) + (self.t or ())

    def renamed(self, names: Dict[str, str]) -> "_Val":
        return _Val(None if self.i is None else names.get(self.i, self.i),
                    None if self.t is None else tuple(names.get(a, a) for a in self.t))


def _same(a: Optional[_Val], b: Optional[_Val]) -> bool:
    if a is None or b is None:
        return a is b
    return a.i == b.i and a.t == b.t


def _home(loc: str, like: _Val) -> _Val:
    """*loc*'s own locals, in *like*'s form (int first)."""
    return _Val(i=loc) if like.i is not None else _Val(t=_lane_atoms(loc))


class _CgaGen:
    """Emits the specialized steady-state function of one kernel.

    Values are held by *locations*: the output latches ``l_<fu>``, the
    local-RF entries ``r<fu>_<e>`` and the shift registers
    ``w<oid>_<j>`` of unpredicated ops.  Every location refers to the
    locals holding its value (``loc``), so a latch commit, a shift, a
    routing move or a lane swizzle is resolved here, at generation time,
    and emits nothing; only computed values are assigned, each to a
    local no live location still refers to.  Which locations are live
    comes from a log of every location read and write
    (:meth:`_walk_events`).  The shift registers of predicated ops,
    which may hold ``_A`` at run time, are locals of their own, and a
    conditional write first moves the location's value into the
    location's own locals (:meth:`_materialize`).

    A value's form is static: a SIMD result or an 8-byte load is four
    lane locals, anything else one int.  Forms convert only where a
    consumer needs the other one: central-RF reads and writes, scalar,
    address and predicate operands (a predicate or a shift amount reads
    lane 0), stores of at most 4 bytes and the write-back at kernel
    exit; an immediate or a local-RF entry the kernel only reads is
    converted once at entry."""

    def __init__(self, kernel: CgaKernel, arch: CgaArchitecture, fault,
                 cdrf_ports: Tuple[int, int], cprf_ports: Tuple[int, int],
                 trip: int) -> None:
        self.kernel = kernel
        self.arch = arch
        self.fault = fault
        self.cdrf_ports = cdrf_ports
        self.cprf_ports = cprf_ports
        self.cdrf_mask = (1 << arch.cdrf.width) - 1
        self.cprf_mask = 1  # PredicateFile is 1-bit regardless of arch.cprf
        #: The widest value an operand can hold: loads, immediates and
        #: op results are at most 64 bits; register files may be wider.
        self.word_bits = max([64, arch.cdrf.width]
                             + [fu.local_rf.width for fu in arch.fus
                                if fu.local_rf is not None])
        #: The trip count (>= 1) makes the whole modulo schedule
        #: compile-time (see :meth:`_plan`).
        self.trip = trip
        self.pool, self.pool_index = _cga_pool_map(kernel)
        self.latch_fus = set()
        self.lrf_fus = set()
        #: (fu, entry) of every local-RF access; the entries live in
        #: locals ``r<fu>_<entry>`` while the kernel runs.
        self.lrf_entries = set()
        #: The written ones, stored back to the register file at the end.
        self.lrf_written = set()
        self.ops: List[_CgaChain] = []
        self.by_issue: Dict[int, List[_CgaChain]] = {}
        self.by_commit: Dict[int, List[_CgaChain]] = {}
        self._classify()
        self.has_mem = any(rec.kind != "dataflow" for rec in self.ops)
        self.has_load = any(rec.kind == "load" for rec in self.ops)
        #: Entries never written but read as a SIMD operand: held in
        #: both forms from function entry.
        self.lrf_lanes = {
            (rec.fu, sel.value) for rec in self.ops
            if rec.group in (OpGroup.SIMD1, OpGroup.SIMD2) and not _is_identity(rec.op)
            for i, sel in enumerate(rec.op.srcs)
            if sel.kind is SrcKind.LRF and not (i == 1 and rec.op.opcode in _LANE_SHIFTS)
        } - self.lrf_written
        #: The location -> value map and, per assigned local, the
        #: locations whose value uses it.
        self.loc: Dict[str, Optional[_Val]] = {}
        self.holders: Dict[str, set] = {}
        #: Location events: their log (:meth:`_walk_events`), the index
        #: of the next one, each location's last one and whether the
        #: location's value is read after each.
        self.ev_log: List[Tuple[str, bool]] = []
        self.ev = 0
        self.last_ev: Dict[str, int] = {}
        self.live_after: Optional[List[bool]] = None
        #: Per operand site, what reading it does (see _read_plan).
        self.read_plans: Dict[tuple, tuple] = {}
        #: Pool slots of the immediates read as lanes (see _lane_operand).
        self.lane_imms: set = set()
        #: Locals of the steady loop, in order of first use.
        self.loop_names: List[str] = []
        #: Ops whose values needed more than one local in a steady-loop
        #: emission, and how many.
        self.rotating: Dict[str, int] = {}
        #: ``(copy, unroll, rotating op keys)`` while emitting an
        #: unrolled loop body.
        self.copy: Optional[tuple] = None

    # -- validation + classification (once, at generation time) --------

    def _classify(self) -> None:
        arch, fault = self.arch, self.fault
        ii = self.kernel.ii
        for oid, (ci, pos, fu, op) in enumerate(_iter_cga_ops(self.kernel)):
            if fu >= arch.n_units:
                raise fault("context names FU%d beyond %d units" % (fu, arch.n_units))
            if not arch.fus[fu].supports(op.opcode):
                raise fault("FU%d cannot execute %s" % (fu, op.opcode.value))
            if op.stage < 0:
                raise fault("FU%d op has negative pipeline stage %d" % (fu, op.stage))
            group = group_of(op.opcode)
            if group is OpGroup.LDMEM:
                kind = "load"
                if len(op.srcs) < 2:
                    raise fault("%s needs base and offset sources" % op.opcode.value)
            elif group is OpGroup.STMEM:
                kind = "store"
                if len(op.srcs) < 3:
                    raise fault("%s needs base, offset and value sources" % op.opcode.value)
            elif group in DATAFLOW_GROUPS:
                kind = "dataflow"
                arity = operand_count(op.opcode)
                if arity == 2 and len(op.srcs) != 2:
                    raise fault("%s expects 2 sources" % op.opcode.value)
                if arity == 1 and len(op.srcs) not in (1, 2):
                    raise fault("%s expects 1 source" % op.opcode.value)
            else:
                raise fault(
                    "opcode %s (%s group) cannot execute on the array"
                    % (op.opcode.value, group.value)
                )
            rec = _CgaChain(oid, ci, pos, fu, op, group, kind, ii)
            self.ops.append(rec)
            self.by_issue.setdefault(ci, []).append(rec)
            if kind != "store":
                self.latch_fus.add(fu)
                self.by_commit.setdefault(rec.q, []).append(rec)
            self._validate_sites(rec)
        for chains in self.by_commit.values():
            chains.sort(key=lambda r: (-r.latency, r.pos))
        self._check_port_pressure()

    def _validate_sites(self, rec: _CgaChain) -> None:
        fault, arch, fu = self.fault, self.arch, rec.fu
        sels = ([] if rec.op.pred is None else [rec.op.pred]) + list(rec.op.srcs)
        for sel in sels:
            kind = sel.kind
            if kind is SrcKind.WIRE:
                if not arch.interconnect.connected(sel.value, fu):
                    raise fault(
                        "no wire from FU%d to FU%d in %s" % (sel.value, fu, arch.name)
                    )
                self.latch_fus.add(sel.value)
            elif kind is SrcKind.LRF:
                self._lrf_entry(fu, sel.value)
            elif kind in (SrcKind.CDRF, SrcKind.CPRF):
                if not arch.fus[fu].has_cdrf_port:
                    raise fault("FU%d has no central RF port" % fu)
            elif kind is SrcKind.SELF:
                self.latch_fus.add(fu)
        for dst in rec.op.dsts:
            if dst.kind is DstKind.LRF:
                self.lrf_written.add(self._lrf_entry(fu, dst.index))
            elif not arch.fus[fu].has_cdrf_port:
                raise fault("FU%d has no central RF port" % fu)

    def _lrf_entry(self, fu: int, index: int) -> Tuple[int, int]:
        spec = self.arch.fus[fu].local_rf
        if spec is None:
            raise self.fault("FU%d has no local register file" % fu)
        if not 0 <= index < spec.entries:
            # The reference tier fails only if the access executes;
            # entries held in locals would be read at kernel entry.
            raise CodegenUnsupported("FU%d local RF has no entry %d" % (fu, index))
        self.lrf_fus.add(fu)
        self.lrf_entries.add((fu, index))
        return fu, index

    def _drain_entries(self):
        """``(D, chain, j)`` commits that can still be pending after the
        last context, sorted in ring order.  Register ``w<oid>_<j>``
        commits ``j*ii + q + 1`` cycles past the final logical cycle."""
        ii = self.kernel.ii
        entries = []
        for chains in self.by_commit.values():
            for rec in chains:
                for j in range(rec.delta):
                    d = j * ii + rec.q + 1
                    assert d <= MAX_OP_LATENCY, (rec.op.opcode, d)
                    entries.append((d, rec, j))
        entries.sort(key=lambda e: (e[0], -e[1].latency, e[1].pos))
        return entries

    def _check_port_pressure(self) -> None:
        """Static worst case per logical cycle vs. the central-RF ports.

        The reference tier enforces this dynamically (``RegisterFile``
        raises ``PortOverflowError``); the compiled tier skips the
        per-access bookkeeping, which is only sound when no cycle *can*
        overflow.  Squashed operations read fewer ports, so counting
        every site is conservative.  During the drain the reference tier
        never calls ``begin_cycle``, so its port window spans the last
        logical cycle plus the whole drain — modelled the same here.
        """
        ii = self.kernel.ii
        reads_d = [0] * ii
        reads_p = [0] * ii
        writes_d = [0] * ii
        writes_p = [0] * ii
        for rec in self.ops:
            sels = ([] if rec.op.pred is None else [rec.op.pred]) + list(rec.op.srcs)
            for sel in sels:
                if sel.kind is SrcKind.CDRF:
                    reads_d[rec.ci] += 1
                elif sel.kind is SrcKind.CPRF:
                    reads_p[rec.ci] += 1
            if rec.kind != "store":
                for dst in rec.op.dsts:
                    if dst.kind is DstKind.CDRF:
                        writes_d[rec.q] += 1
                    elif dst.kind is DstKind.CPRF:
                        writes_p[rec.q] += 1
        drain_d = drain_p = 0
        for _d, rec, _j in self._drain_entries():
            for dst in rec.op.dsts:
                if dst.kind is DstKind.CDRF:
                    drain_d += 1
                elif dst.kind is DstKind.CPRF:
                    drain_p += 1
        worst = [
            (max(reads_d), self.cdrf_ports[0], "CDRF reads"),
            (max(reads_p), self.cprf_ports[0], "CPRF reads"),
            (max(max(writes_d), writes_d[ii - 1] + drain_d), self.cdrf_ports[1], "CDRF writes"),
            (max(max(writes_p), writes_p[ii - 1] + drain_p), self.cprf_ports[1], "CPRF writes"),
        ]
        for used, ports, what in worst:
            if used > ports:
                raise CodegenUnsupported(
                    "kernel %s: worst-case %s (%d) exceed %d ports"
                    % (self.kernel.name, what, used, ports)
                )

    # -- locations -----------------------------------------------------
    #
    # A read or write of a location is an *event*.  :meth:`_walk_events`
    # logs them in emission order; :meth:`_liveness` then says, per
    # event, whether the value the location holds after it is read
    # again, and the emission, which checks it makes the same events,
    # reuses every local only dead locations refer to.  Copies,
    # conversions and renames emitted on the way are not events.

    def _note(self, loc: str, read: bool) -> None:
        assert self.ev_log[self.ev] == (loc, read), (self.kernel.name, self.ev, loc)
        self.last_ev[loc] = self.ev
        self.ev += 1

    def _live(self, loc: str) -> bool:
        """Is the value *loc* holds now read before it is overwritten?"""
        return self.live_after[self.last_ev[loc]]

    def _walk_events(self) -> None:
        """Log the location events of the emission, in its order (the
        steady body once), without emitting anything."""
        log = self.ev_log = []
        ev = log.append
        ii, trip = self.kernel.ii, self.trip
        present = set()  # unpredicated shift registers holding a value
        for fu, entry in sorted(self.lrf_entries):
            ev(("r%d_%d" % (fu, entry), False))
        for fu in sorted(self.latch_fus):
            ev(("l_%d" % fu, False))
        for rec in self.ops:
            if rec.kind != "store" and rec.op.pred is None:
                for j in range(rec.n):
                    ev(("w%d_%d" % (rec.oid, j), False))

        def writes(rec, last, read):
            ev(("l_%d" % rec.fu, read))
            for d in rec.op.dsts:
                if d.kind is DstKind.LRF and (last or not d.last_iteration_only):
                    ev(("r%d_%d" % (rec.fu, d.index), read))

        def operand(rec, sel, it0):
            if sel.init is not None and it0:
                return
            kind = sel.kind
            if kind is SrcKind.SELF:
                ev(("l_%d" % rec.fu, True))
            elif kind is SrcKind.WIRE:
                ev(("l_%d" % sel.value, True))
            elif kind is SrcKind.LRF:
                ev(("r%d_%d" % (rec.fu, sel.value), True))

        def slot(I):
            steady = I is None
            for p in range(ii):
                for rec in self.by_commit.get(p, []):
                    if not (steady or self._chain_occupied(rec, I)):
                        continue
                    oid, n = rec.oid, rec.n
                    on = steady or (rec.stage + rec.delta <= I
                                    <= rec.stage + rec.delta + trip - 1)
                    last = (not steady) and I == trip - 1 + rec.delta + rec.stage
                    if rec.op.pred is not None:
                        if on:
                            writes(rec, last, True)
                        continue
                    if on:
                        ev(("w%d_0" % oid, True))
                        writes(rec, last, False)
                    for j in range(n - 1):
                        ev(("w%d_%d" % (oid, j + 1), True))
                        ev(("w%d_%d" % (oid, j), False))
                        if "w%d_%d" % (oid, j + 1) in present:
                            present.add("w%d_%d" % (oid, j))
                        else:
                            present.discard("w%d_%d" % (oid, j))
                    ev(("w%d_%d" % (oid, n - 1), False))
                    present.discard("w%d_%d" % (oid, n - 1))
                for rec in self.by_issue.get(p, []):
                    if not (steady or self._issue_active(rec, I)):
                        continue
                    it0 = False if steady else (I == rec.stage)
                    op = rec.op
                    if op.pred is not None:
                        operand(rec, op.pred, it0)
                    srcs = list(op.srcs)
                    if rec.kind != "dataflow":
                        off = srcs[1]
                        srcs = srcs[:1] + ([] if off.kind is SrcKind.IMM and off.init is None
                                           else [off]) + srcs[2:3]
                    for sel in srcs:
                        operand(rec, sel, it0)
                    if rec.kind != "store" and op.pred is None:
                        tail = "w%d_%d" % (rec.oid, rec.n - 1)
                        ev((tail, False))
                        present.add(tail)

        T, lo, hi = self._plan()
        for I in range(min(lo, T)):
            slot(I)
        start = len(log)
        if lo <= hi:
            slot(None)
        self.body_span = (start, len(log))
        for I in range(max(lo, hi + 1), T):
            slot(I)
        for _d, rec, j in self._drain_entries():
            last = j == rec.stage + rec.delta - self.kernel.stage_count
            if rec.op.pred is not None:
                writes(rec, last, True)
            elif "w%d_%d" % (rec.oid, j) in present:
                ev(("w%d_%d" % (rec.oid, j), True))
                writes(rec, last, False)
        for fu in sorted(self.latch_fus):
            ev(("l_%d" % fu, True))
        for fu, entry in sorted(self.lrf_written):
            ev(("r%d_%d" % (fu, entry), True))

    def _hold(self, loc: str, val: Optional[_Val]) -> None:
        """Point *loc* at *val* (no event)."""
        holders = self.holders
        old = self.loc.get(loc)
        if old is not None:
            for a in old.vars:
                holders[a].discard(loc)
        self.loc[loc] = val
        if val is not None:
            for a in val.vars:
                held = holders.get(a)
                if held is None:
                    holders[a] = {loc}
                else:
                    held.add(loc)

    def _drop(self, loc: str) -> None:
        """Forget *loc*'s value (it is dead)."""
        old = self.loc.pop(loc, None)
        if old is not None:
            for a in old.vars:
                self.holders[a].discard(loc)

    def _get(self, loc: str, absent: bool = False) -> Optional[_Val]:
        """Read *loc* (an event); *absent* allows an empty register."""
        k = self.ev
        assert self.ev_log[k] == (loc, True), (self.kernel.name, k, loc)
        self.last_ev[loc] = k
        self.ev = k + 1
        val = self.loc[loc]
        assert absent or val is not None, loc
        return val

    def _set(self, loc: str, val: Optional[_Val]) -> None:
        """Write *loc* (an event): it now holds *val*."""
        k = self.ev
        assert self.ev_log[k] == (loc, False), (self.kernel.name, k, loc)
        self.last_ev[loc] = k
        self.ev = k + 1
        self._hold(loc, val)

    def _free(self, atom: str, avoid) -> bool:
        if atom in avoid:
            return False
        held = self.holders.get(atom)
        if held:
            live, last = self.live_after, self.last_ev
            for h in held:
                if live[last[h]]:
                    return False
        return True

    def _claim(self, atom: str) -> None:
        held = self.holders.get(atom)
        if held:
            for h in list(held):
                self._drop(h)

    def _alloc(self, key: str, n: int, ok=None, avoid=()) -> Tuple[str, ...]:
        """*n* locals (1: an int, 4: lanes) named after *key* that no
        live location refers to and that pass *ok*: ``key``, else
        ``key`` + ``v1``, ``v2``...  Copy *c* of a loop body unrolled
        *u* times tries ``v<c>``, ``v<c+u>``... first for the ops whose
        values rotate (see :meth:`_emit_steady`)."""
        free = self._free
        if n == 1 and ok is None and (self.copy is None or key not in self.copy[2]) \
                and free(key, avoid):
            return (key,)
        if ok is None:
            def ok(atoms):
                for a in atoms:
                    if not free(a, avoid):
                        return False
                return True
        versions = itertools.count()
        if self.copy is not None:
            c, u, rotating = self.copy
            if key in rotating:
                versions = itertools.chain(range(c, 8 * u, u), versions)
        for v in versions:
            base = key if v == 0 else "%sv%d" % (key, v)
            atoms = (base,) if n == 1 else _lane_atoms(base)
            if ok(atoms):
                if v and self.copy is not None and key[0] == "x":
                    self.rotating[key] = max(self.rotating.get(key, 1), v + 1)
                return atoms

    def _define(self, lines: List[str], ind: str, key: str, exprs, keep=(),
                avoid=()) -> _Val:
        """The value of *exprs*: one int expression, or four lane
        expressions each with the clamp it still needs.  An atom of
        *keep* (the operands' own locals) or a literal or immediate is
        held as it is; every other expression is assigned, in order, to
        a free local named after *key* that no later expression reads,
        and clamped in place."""
        n = len(exprs)
        if n == 1:
            expr = exprs[0]
            if expr[0] != "(" and _ATOM.fullmatch(expr) and (expr in keep or not _is_var(expr)):
                return _Val(i=expr)
            (atom,) = self._alloc(key, 1, avoid=avoid)
            self._claim(atom)
            lines.append(ind + "%s = %s" % (atom, expr))
            return _Val(i=atom)
        computed = [k for k, (e, _c) in enumerate(exprs)
                    if not (_ATOM.fullmatch(e) and (e in keep or not _is_var(e)))]
        held = [e for e, _c in exprs]
        if computed:
            kept = {held[k] for k in range(n) if k not in computed}
            # A local a later lane reads (a substring test: at worst it
            # refuses a local it could have taken) is not free.
            later = {k: " ".join(held[j] for j in computed if j > k) for k in computed}

            def ok(atoms):
                for k in computed:
                    a = atoms[k]
                    if a in kept or a in later[k] or not self._free(a, avoid):
                        return False
                return True

            atoms = self._alloc(key, n, ok)
            for k in computed:
                self._claim(atoms[k])
                lines.append(ind + "%s = %s" % (atoms[k], held[k]))
                _emit_clamp(lines, ind, atoms[k], exprs[k][1])
                held[k] = atoms[k]
        return _Val(i=held[0]) if n == 1 else _Val(t=tuple(held))

    def _int(self, val: _Val) -> str:
        """*val* as an int expression."""
        if val.i is not None:
            return val.i
        lanes = [_literal_value(a) for a in val.t]
        if None not in lanes:
            return str(sum((x & 65535) << (16 * k) for k, x in enumerate(lanes)))
        return _as_int(val.t, _LANES)

    def _lanes(self, lines: List[str], ind: str, val: _Val, key: str,
               avoid) -> Tuple[str, ...]:
        """*val* as four lane atoms, converted into locals named after
        *key* (none of *avoid*) when held as an int."""
        if val.t is not None:
            return val.t
        x = val.i
        if x.startswith("imm_"):
            return _lane_operand(x, _INT, self.lane_imms)
        lit = _literal_value(x)
        if lit is not None:
            return _literal_lanes(lit & MASK64)
        atoms = self._alloc(key, 4, avoid=avoid)
        for a in atoms:
            self._claim(a)
        lines.append(ind + "%s = _U4(_P8(%s))" % (", ".join(atoms), x))
        return atoms

    def _materialize(self, lines: List[str], ind: str, loc: str) -> None:
        """Move *loc*'s value into its own locals (``loc``, or
        ``loc_0``..``loc_3`` for lanes) so a conditional write can assign
        them; another live location using one of them keeps its value
        in a new local."""
        val = self.loc[loc]
        home = _home(loc, val)
        src = val.atoms()[:1] if val.i is not None else val.t
        for a in home.atoms():
            self._evacuate(lines, ind, a, loc)
        _emit_moves(lines, ind, list(zip(home.atoms(), src)))
        self._hold(loc, home)

    def _evacuate(self, lines: List[str], ind: str, atom: str, keep: str) -> None:
        """Copy *atom* into a new local for every live location but
        *keep* that uses it (dead ones forget their value)."""
        users = [h for h in self.holders.get(atom, ()) if h != keep]
        live = [h for h in users if self._live(h)]
        for h in users:
            if h not in live:
                self._drop(h)
        if live:
            (new,) = self._alloc("e", 1, avoid={atom})
            self._claim(new)
            lines.append(ind + "%s = %s" % (new, atom))
            for h in live:
                self._hold(h, self.loc[h].renamed({atom: new}))

    def _snapshot(self):
        return (dict(self.loc), {a: set(h) for a, h in self.holders.items() if h},
                dict(self.last_ev), self.ev, set(self.lane_imms))

    def _restore(self, snap) -> None:
        loc, holders, last_ev, ev, lane_imms = snap
        self.loc = dict(loc)
        self.holders = {a: set(h) for a, h in holders.items()}
        self.last_ev = dict(last_ev)
        self.ev = ev
        self.lane_imms = set(lane_imms)

    def _liveness(self) -> Tuple[List[bool], List[str]]:
        """Per logged event, whether the value after it is read again
        (the steady body's last event on a location also reaches the
        body's first and the events after the loop); and the locations
        live into the steady body."""
        log = self.ev_log
        lo, hi = self.body_span
        live = [False] * len(log)
        # Backwards: the next event on each location, then per location
        # its first event in the body and after it.
        nxt: Dict[str, int] = {}
        first_body: Dict[str, int] = {}
        first_post: Dict[str, int] = {}
        last_body: Dict[str, int] = {}
        last_before: Dict[str, int] = {}
        for k in range(len(log) - 1, -1, -1):
            loc, _read = log[k]
            n = nxt.get(loc)
            live[k] = n is not None and log[n][1]
            nxt[loc] = k
            if k >= hi:
                first_post[loc] = k
            elif k >= lo:
                first_body[loc] = k
                last_body.setdefault(loc, k)
            else:
                last_before.setdefault(loc, k)
        for loc, k in last_body.items():
            post = first_post.get(loc)
            live[k] = log[first_body[loc]][1] or (post is not None and log[post][1])
        live_in = [loc for loc in nxt
                   if (log[first_body[loc]][1] if loc in first_body
                       else loc in last_before and live[last_before[loc]])]
        return live, sorted(live_in)

    # -- operand emission ----------------------------------------------

    def _read_plan(self, rec: _CgaChain, role: str, i: Optional[int], sel: SrcSel):
        """``(phi init value, access counter, location, value)`` of one
        operand site, worked out once: a read of a location returns what
        it holds, any other read returns *value*."""
        key = (rec.oid, role, i)
        plan = self.read_plans.get(key)
        if plan is None:
            imm_slot, init_slot = self.pool_index[(rec.ci, rec.fu, role, i)]
            init = None if sel.init is None else _Val(i="imm_%d" % init_slot)
            kind = sel.kind
            if kind is SrcKind.SELF:
                plan = (init, None, "l_%d" % rec.fu, None)
            elif kind is SrcKind.WIRE:
                plan = (init, "n_itx", "l_%d" % sel.value, None)
            elif kind is SrcKind.LRF:
                plan = (init, "n_lrf_r", "r%d_%d" % (rec.fu, sel.value), None)
            elif kind is SrcKind.CDRF:
                plan = (init, "n_cdrf_r", None, _Val(i="CD[imm_%d]" % imm_slot))
            elif kind is SrcKind.CPRF:
                plan = (init, "n_cprf_r", None, _Val(i="CP[imm_%d]" % imm_slot))
            else:
                plan = (init, None, None, _Val(i="imm_%d" % imm_slot))
            self.read_plans[key] = plan
        return plan

    def _read_operand(self, lines: List[str], ind: str, rec: _CgaChain,
                      role: str, i: Optional[int], sel: SrcSel, it0: bool,
                      tally=None) -> _Val:
        """Emit one operand read; returns its value.  Mirrors the
        reference tier's ``_read_src``.  With *tally*, unconditional
        access counts accumulate statically instead of emitting per-read
        increments.

        A phi (``sel.init is not None``) read in the op's iteration 0
        (*it0*) yields the initial immediate without touching the base
        location (and without its stats), exactly like the reference
        reader."""
        init, counter, loc, val = self._read_plan(rec, role, i, sel)
        if init is not None and it0:
            return init
        if counter is not None:
            if tally is None:
                lines.append(ind + counter + " += 1")
            else:
                tally[counter] += 1
        return val if loc is None else self._get(loc)

    def _pred_home(self, rec: _CgaChain, j: int) -> Tuple[str, ...]:
        """The locals of a predicated op's shift register *j*: lanes for
        a SIMD result or an 8-byte load, else an int; ``_A`` (in lane 0)
        while it holds nothing."""
        name = "w%d_%d" % (rec.oid, j)
        if rec.kind == "load":
            lanes = self._lane_load(rec.op.opcode)
        else:
            lanes = rec.group in (OpGroup.SIMD1, OpGroup.SIMD2) and not _is_identity(rec.op)
        return _lane_atoms(name) if lanes else (name,)

    def _lane_load(self, opcode: Opcode) -> bool:
        """8-byte loads yield lanes unless a register file is wider than
        64 bits (its ints could not all convert; no SIMD runs there)."""
        return memops.mem_info(opcode).size == 8 and self.word_bits <= 64

    # -- commit emission -----------------------------------------------

    def _commit_writes(self, lines: List[str], ind: str, rec: _CgaChain,
                       val: _Val, last: bool, tally=None) -> None:
        """Latch write-back plus destination writes for one commit of
        *val*; *last* says statically whether the committing iteration is
        the last one, which decides the ``last_iteration_only`` writes."""
        self._set("l_%d" % rec.fu, val)
        for j, d in enumerate(rec.op.dsts):
            if d.last_iteration_only and not last:
                continue
            counter = ("n_lrf_w" if d.kind is DstKind.LRF
                       else "n_cdrf_w" if d.kind is DstKind.CDRF else "n_cprf_w")
            if tally is None:
                lines.append(ind + counter + " += 1")
            else:
                tally[counter] += 1
            if d.kind is DstKind.LRF:
                width = self.arch.fus[rec.fu].local_rf.width
                held = val
                # Only a file narrower than the widest operand value masks.
                if width < self.word_bits:
                    held = self._define(lines, ind, "m%d" % rec.oid,
                                        ("%s & %d" % (self._int(val), (1 << width) - 1),),
                                        avoid=set(val.atoms()))
                self._set("r%d_%d" % (rec.fu, d.index), held)
            else:
                lines.append(ind + self._central_write(rec, j, d, val))

    def _central_write(self, rec: _CgaChain, j: int, dst, val: _Val) -> str:
        slot = self.pool_index[(rec.ci, rec.fu, "dst", j)][0]
        if dst.kind is DstKind.CDRF:
            value = self._int(val)
            if val.i is not None or self.cdrf_mask < MASK64:  # lanes fit 64 bits
                value = "%s & %d" % (value, self.cdrf_mask)
            return "CD[imm_%d] = %s" % (slot, value)
        low = val.i if val.i is not None else val.t[0]
        return "CP[imm_%d] = %s & %d" % (slot, low, self.cprf_mask)

    def _commit_conditional(self, lines: List[str], ind: str, rec: _CgaChain,
                            j: int, last: bool, drain: Optional[int] = None) -> None:
        """Commit of a predicated op's shift register *j* when it holds a
        value at run time (and, in the drain, record *drain*)."""
        head = self._pred_home(rec, j)
        val = _Val(i=head[0]) if len(head) == 1 else _Val(t=head)
        dsts = [(k, d) for k, d in enumerate(rec.op.dsts)
                if not d.last_iteration_only or last]
        targets = ["l_%d" % rec.fu] + ["r%d_%d" % (rec.fu, d.index)
                                       for _k, d in dsts if d.kind is DstKind.LRF]
        for loc in targets:
            self._materialize(lines, ind, loc)
        lines.append(ind + "if %s is not _A:" % head[0])
        body = ind + "    "
        if drain is not None:
            lines.append(body + "drain = %d" % drain)
        self._assign_home(lines, body, "l_%d" % rec.fu, val)
        for k, d in dsts:
            if d.kind is DstKind.LRF:
                lines.append(body + "n_lrf_w += 1")
                width = self.arch.fus[rec.fu].local_rf.width
                held = val
                if width < self.word_bits:
                    held = _Val(i="%s & %d" % (self._int(val), (1 << width) - 1))
                self._assign_home(lines, body, "r%d_%d" % (rec.fu, d.index), held)
            else:
                lines.append(body + ("n_cdrf_w" if d.kind is DstKind.CDRF else "n_cprf_w")
                             + " += 1")
                lines.append(body + self._central_write(rec, k, d, val))

    def _assign_home(self, lines: List[str], ind: str, loc: str, val: _Val) -> None:
        """Conditionally write *val* into materialized *loc* (an event
        that keeps the old value live)."""
        self._note(loc, True)
        home = self.loc[loc]
        if home.i is not None:
            lines.append(ind + "%s = %s" % (home.i, self._int(val)))
        elif val.t is not None:
            for h, x in zip(home.t, val.t):
                lines.append(ind + "%s = %s" % (h, x))
        else:
            lines.append(ind + "%s = _U4(_P8(%s))" % (", ".join(home.t), val.i))

    # -- issue emission ------------------------------------------------

    def _emit_execute(self, lines: List[str], ind: str, rec: _CgaChain, it0: bool,
                      tally=None, idle: bool = False) -> None:
        """Emit one op's operand reads and execution.  *idle* says the op
        is its context's first memory access (see :meth:`_emit_slot`)."""
        op = rec.op
        key = rec.key
        if rec.kind == "dataflow":
            reads = [self._read_operand(lines, ind, rec, "src", i, sel, it0, tally=tally)
                     for i, sel in enumerate(op.srcs)]
            if rec.simd:
                keep = {a for r in reads for a in r.atoms()}
                _require_lane_words(op.opcode, self.word_bits)
                if rec.identity:
                    val = reads[0]
                    if val.i is not None and not _ATOM.fullmatch(val.i):
                        val = self._define(lines, ind, key, (val.i,))  # a central register
                    self._issue_write(lines, ind, rec, val)
                    return
                a = self._lanes(lines, ind, reads[0], "y%d" % rec.oid, keep)
                b = None
                if rec.arity == 2:
                    if rec.shifts:
                        b = reads[1].i if reads[1].i is not None else reads[1].t[0]
                    else:
                        b = self._lanes(lines, ind, reads[1], "z%d" % rec.oid, keep | set(a))
                exprs = _lane_template(lines, ind, op.opcode, a, b, self.word_bits)
                lanes = set(a) | (set(b) if isinstance(b, tuple) else set())
                val = self._define(lines, ind, key, exprs, keep=lanes)
            else:
                arity = rec.arity
                use = [self._int(r) for r in reads[:arity]] + ["0"] * (2 - min(arity, 2))
                val = self._define(lines, ind, key, (_SCALAR_EXPR[op.opcode](use[0], use[1]),))
            self._issue_write(lines, ind, rec, val)
            return
        info = memops.mem_info(op.opcode)
        base = self._int(self._read_operand(lines, ind, rec, "src", 0, op.srcs[0], it0,
                                            tally=tally))
        off_sel = op.srcs[1]
        off_slot, _ = self.pool_index[(rec.ci, rec.fu, "src", 1)]
        if off_sel.kind is SrcKind.IMM and off_sel.init is None:
            lines.append(
                "%saddr = (((%s) & 4294967295) + imm_%d) & 4294967295" % (ind, base, off_slot)
            )
        else:
            off = self._int(self._read_operand(lines, ind, rec, "src", 1, off_sel, it0,
                                               tally=tally))
            lines.append(
                "%saddr = (((%s) & 4294967295) + ((%s) & 4294967295)) & 4294967295"
                % (ind, base, off)
            )
        geom = (self.arch.l1.banks, self.arch.l1.bytes)
        if rec.kind == "load":
            lanes = self._lane_load(op.opcode)
            atoms = self._alloc(key, 4 if lanes else 1)
            for a in atoms:
                self._claim(a)
            if _emit_inline_read(lines, ind, "physical", info.size, *geom, tally=tally,
                                 idle=idle, dest=", ".join(atoms), lanes=lanes):
                lines.append(ind + "stall_offset += extra")
            if lanes:
                val = _Val(t=atoms)
            else:
                if info.signed:
                    hb = 1 << (info.size * 8 - 1)
                    lines.append(ind + "%s = ((%s ^ %d) - %d) & 4294967295"
                                 % (atoms[0], atoms[0], hb, hb))
                val = _Val(i=atoms[0])
            self._issue_write(lines, ind, rec, val)
        else:  # store: no latch, no commit chain
            sv = self._read_operand(lines, ind, rec, "src", 2, op.srcs[2], it0, tally=tally)
            lanes = None
            if info.size == 8 and sv.t is not None:
                lanes = ", ".join(sv.t)
            else:
                lines.append(ind + "v_st = (%s) & %d"
                             % (self._int(sv), (1 << (info.size * 8)) - 1))
            if _emit_inline_write(lines, ind, "physical", info.size, *geom,
                                  tally=tally, idle=idle, lanes=lanes):
                lines.append(ind + "stall_offset += extra")

    def _issue_write(self, lines: List[str], ind: str, rec: _CgaChain, val: _Val) -> None:
        """*val* enters the op's last shift register."""
        if rec.op.pred is None:
            self._set("w%d_%d" % (rec.oid, rec.n - 1), val)
            return
        home = self._pred_home(rec, rec.n - 1)
        if len(home) == 1:
            lines.append(ind + "%s = %s" % (home[0], self._int(val)))
            return
        lanes = self._lanes(lines, ind, val, "y%d" % rec.oid, set(val.atoms()))
        for h, x in zip(home, lanes):
            lines.append(ind + "%s = %s" % (h, x))

    def _emit_issue(self, lines: List[str], ind: str, rec: _CgaChain, it0: bool,
                    tally=None, idle: bool = False) -> None:
        op = rec.op
        body = ind
        body_tally = tally
        if op.pred is not None:
            # The predicate read itself is unconditional; the op body is
            # data-dependent, so its accounting stays inline.
            pv = self._read_operand(lines, ind, rec, "pred", None, op.pred, it0, tally=tally)
            pexpr = pv.i if pv.i is not None else pv.t[0]
            if op.pred_negate:
                lines.append(ind + "if (%s) & 1:" % pexpr)
            else:
                lines.append(ind + "if not ((%s) & 1):" % pexpr)
            lines.append(ind + "    squashed += 1")
            lines.append(ind + "else:")
            body = ind + "    "
            body_tally = None
            lines.append(body + "n_fu%d += %d" % (rec.fu, rec.weight))
            lines.append(body + "n_g_%s += %d" % (rec.group.name, rec.weight))
            lines.append(body + "pred_weight += %d" % rec.weight)
        self._emit_execute(lines, body, rec, it0, tally=body_tally, idle=idle)

    # -- whole-function assembly ---------------------------------------

    def generate_batch(self) -> str:
        """One function advancing any number of packets' steady-state
        windows back to back through structure-of-arrays arguments, with
        the scratchpad model inlined against per-lane byte views and
        bank clocks.  A lane that faults lands its exception in
        ``faults[lane]`` — its partial state is unusable (deferred
        counters are lost) and the caller must re-run that lane from
        scratch — while the remaining lanes complete normally.

        Precondition: every bank clock is at or below the lane's start
        cycle.  Every bank is then idle when each context starts: after
        a context at physical cycle ``P`` whose accesses add ``S`` stall
        cycles, each clock is at most ``P + 1 + S``, the next context's
        physical cycle.  So each context's first access is served at
        ``physical`` without arbitration.

        The location events are logged first (:meth:`_walk_events`);
        the emission uses their liveness."""
        self._walk_events()
        self.live_after, self.body_live_in = self._liveness()
        return self._generate()

    def _generate(self) -> str:
        self.loc, self.holders, self.last_ev = {}, {}, {}
        self.ev = 0
        self.lane_imms = set()
        lines: List[str] = []
        w = lines.append
        w("def _cga_run_batch(trips, start_cycles, preload_cycles_s, imms_s,"
          " out_latch_s, CD_s, CP_s, local_rfs_s, mem_s, stats_s, ends, faults):")
        if self.has_load:
            w("    _fb = int.from_bytes")
        w("    for _b in range(len(trips)):")
        w("        try:")
        ind = "            "
        w(ind + "trip = trips[_b]")
        w(ind + "start_cycle = start_cycles[_b]")
        w(ind + "preload_cycles = preload_cycles_s[_b]")
        w(ind + "imms = imms_s[_b]")
        w(ind + "out_latch = out_latch_s[_b]")
        w(ind + "CD = CD_s[_b]")
        w(ind + "CP = CP_s[_b]")
        w(ind + "local_rfs = local_rfs_s[_b]")
        w(ind + "stats = stats_s[_b]")
        if self.has_mem:
            w(ind + "_sp = mem_s[_b]")
            w(ind + "M = _sp._mem")
            w(ind + "BNF = _sp._bank_next_free")
        self._emit_lane(lines, ind)
        w("        except _ME as exc:")
        w("            faults[_b] = exc")
        if self.loop_names:
            # Locals take their slots in order of first use: the steady
            # loop's come first, so its loads and stores need no
            # EXTENDED_ARG prefix.
            lines.insert(1, "    %s = None" % " = ".join(self.loop_names))
        return "\n".join(lines) + "\n"

    # -- slot emission -------------------------------------------------
    #
    # The batch runner groups lanes by resolved trip count, so the batch
    # function bakes the trip into the source.  With a concrete trip the
    # entire modulo schedule is compile-time: which stages are active,
    # whether a latch chain holds a value, whether an operand is in its
    # phi iteration and whether a ``last_iteration_only`` write fires all
    # become functions of the slot index alone.  The iteration space
    # then splits into unrolled prologue/epilogue slots (each emitted
    # with its static schedule state) around a guard-free steady-state
    # loop, and every statically-known access count is hoisted out of the
    # loop into one closed-form adjustment (``tally``).

    _TALLY_KEYS = ("n_cdrf_r", "n_cdrf_w", "n_cprf_r", "n_cprf_w",
                   "n_lrf_r", "n_lrf_w", "n_itx", "n_l1r", "n_l1w")

    #: Most prologue + epilogue slots a kernel may unroll; the modem's
    #: kernels unroll at most 18.
    _MAX_UNROLLED_SLOTS = 192

    def _plan(self) -> Tuple[int, int, int]:
        """``(T, lo, hi)``: total slots and the inclusive steady-state
        window where every op issues, every chain commits a present
        value, no phi initializes and no last-iteration write fires.

        Raises :class:`CodegenUnsupported` when more than
        :attr:`_MAX_UNROLLED_SLOTS` slots would unroll, bounding the
        generated code for degenerate shapes."""
        trip = self.trip
        T = trip + self.kernel.stage_count - 1
        lo, hi = 0, T - 1
        for rec in self.ops:
            sels = ([] if rec.op.pred is None else [rec.op.pred]) + list(rec.op.srcs)
            has_phi = any(sel.init is not None for sel in sels)
            lo = max(lo, rec.stage + (1 if has_phi else 0))
            hi = min(hi, rec.stage + trip - 1)
            if rec.kind != "store":
                lo = max(lo, rec.stage + rec.delta)
                if any(d.last_iteration_only for d in rec.op.dsts):
                    hi = min(hi, trip - 2 + rec.delta + rec.stage)
        if lo > hi:
            lo, hi = T, T - 1  # no steady window: everything unrolls
        unrolled = lo + (T - 1 - hi)
        if unrolled > self._MAX_UNROLLED_SLOTS:
            raise CodegenUnsupported(
                "kernel %s: %d unrolled slots exceed %d"
                % (self.kernel.name, unrolled, self._MAX_UNROLLED_SLOTS)
            )
        return (T, lo, hi)

    def _issue_active(self, rec: _CgaChain, I: int) -> bool:
        return rec.stage <= I <= rec.stage + self.trip - 1

    def _chain_occupied(self, rec: _CgaChain, I: int) -> bool:
        """Could any shift register hold a value during slot *I*'s commit
        phase?  (The issue of slot I has already run when the chain's
        commit context follows its issue context.)"""
        last_t = I if rec.q > rec.ci else I - 1
        lower = max(rec.stage, I - rec.delta)
        upper = min(rec.stage + self.trip - 1, last_t)
        return upper >= lower

    def _emit_commit(self, lines: List[str], ind: str, rec: _CgaChain,
                     I: Optional[int], tally) -> None:
        """Commit phase of one chain at a static slot (*I*) or in the
        steady state (``I is None``): presence, shift liveness and the
        last-iteration check are all compile-time; predicated chains
        keep the runtime ``_A`` test (a squash leaves the register
        empty)."""
        oid, n = rec.oid, rec.n
        steady = I is None
        present = steady or (rec.stage + rec.delta <= I
                             <= rec.stage + rec.delta + self.trip - 1)
        last = (not steady) and I == self.trip - 1 + rec.delta + rec.stage
        if rec.op.pred is not None:
            if present:
                self._commit_conditional(lines, ind, rec, 0, last)
            for j in range(n - 1):
                for d, s in zip(self._pred_home(rec, j), self._pred_home(rec, j + 1)):
                    lines.append(ind + "%s = %s" % (d, s))
            lines.append(ind + "%s = _A" % self._pred_home(rec, n - 1)[0])
            return
        if present:
            self._commit_writes(lines, ind, rec, self._get("w%d_0" % oid), last, tally)
        for j in range(n - 1):
            self._set("w%d_%d" % (oid, j), self._get("w%d_%d" % (oid, j + 1), absent=True))
        self._set("w%d_%d" % (oid, n - 1), None)

    def _emit_slot(self, lines: List[str], ind: str, I: Optional[int],
                   tally, shift: int = 0) -> None:
        """Emit slot *I*, or a steady slot (``I is None``) *shift* slots
        after ``iter_slot``."""
        ii = self.kernel.ii
        steady = I is None
        w = lines.append
        for p in range(ii):
            live = self.by_commit.get(p, ())
            active = self.by_issue.get(p, ())
            if not steady:
                live = [r for r in live if self._chain_occupied(r, I)]
                active = [r for r in active if self._issue_active(r, I)]
            if not live and not active:
                continue
            for rec in live:
                self._emit_commit(lines, ind, rec, I, tally)
            if any(r.kind != "dataflow" for r in active):
                if steady:
                    w(ind + "physical = start_cycle + iter_slot * %d + %d"
                      " + stall_offset" % (ii, shift * ii + p))
                else:
                    w(ind + "physical = start_cycle + %d + stall_offset"
                      % (I * ii + p))
            # Every bank is idle when a context starts (see
            # :meth:`generate_batch`), so its first memory op, squashed or
            # not, is the first access and is served at ``physical``.
            idle = True
            for rec in active:
                it0 = False if steady else (I == rec.stage)
                self._emit_issue(lines, ind, rec, it0, tally=tally,
                                 idle=idle and rec.kind != "dataflow")
                if rec.kind != "dataflow":
                    idle = False

    def _emit_body(self, lines: List[str], ind: str,
                   plan: Tuple[int, int, int]) -> Dict[str, int]:
        T, lo, hi = plan
        tally = dict.fromkeys(self._TALLY_KEYS, 0)
        w = lines.append
        for I in range(min(lo, T)):
            w(ind + "# slot %d" % I)
            self._emit_slot(lines, ind, I, tally)
        if lo <= hi:
            steady = self._emit_steady(lines, ind, lo, hi)
            count = hi - lo + 1
            for key in tally:
                tally[key] += steady[key] * count
        for I in range(max(lo, hi + 1), T):
            w(ind + "# slot %d" % I)
            self._emit_slot(lines, ind, I, tally)
        return tally

    # -- the steady loop -----------------------------------------------
    #
    # The loop body is emitted once, so every location live into it must
    # hold the same locals at its end as at its start, or be copied back
    # at the back edge.  The body first enters in the locals the prologue
    # left.  A location whose copy would overwrite a local another
    # location still needs, or a literal, enters in its own locals (its
    # home) instead, copied once before the loop.
    #
    # A value still live when the next one of its op is computed (a
    # shift-register chain at a small II, a latch read after its op
    # issues again) needs a second local, and the locals rotate: one
    # body would copy each of them back every iteration.  The body is
    # then also emitted unrolled ``u`` times (modulo variable expansion,
    # ``u`` the most locals one op needed, at most :attr:`_MAX_UNROLL`),
    # copy ``c`` taking local ``v<c>`` of each such op, and re-emitted
    # entering in the locals its last emission left; the cheapest loop
    # per iteration wins, and the ``count % u`` iterations left over
    # follow the loop.  Otherwise the single body is tried once more
    # entering where it leaves off (an accumulator whose prologue value
    # sits in another local then updates its local in place).

    #: Largest unroll factor tried.
    _MAX_UNROLL = 4

    def _emit_steady(self, lines: List[str], ind: str, lo: int, hi: int) -> Dict[str, int]:
        """Emit the steady-state loop; returns one iteration's tally."""
        count = hi - lo + 1
        live_in = self.body_live_in
        outside = {L: self.loc.get(L) for L in live_in}
        snap = self._snapshot()
        body_ind = ind + "    "
        self.rotating = {}
        best = self._loop_passes(1, snap, outside, body_ind, 1)
        if best is not None and best["cost"]:
            u = min(self._MAX_UNROLL, max([1] + list(self.rotating.values())))
            single = best
            if u > 1 and count >= 3 * u:
                # The first emission enters in homes, which no copy's own
                # locals collide with; the second where it leaves off.
                homes = {L: v if v is None else _home(L, v) for L, v in outside.items()}
                unrolled = self._loop_passes(u, snap, outside, body_ind, 2, set(self.rotating),
                                             entry={"entry": homes, "out": {}})
                if unrolled is not None and unrolled["cost"] < best["cost"] * u:
                    best = unrolled
            if best is single and not self.rotating:
                # Enter where the body leaves off, when that copies less.
                again = self._loop_passes(1, snap, outside, body_ind, 1, entry=best)
                if again is not None and again["cost"] < best["cost"]:
                    best = again
        if best is None:
            raise CodegenUnsupported("kernel %s: steady-loop locals do not settle"
                                     % self.kernel.name)
        u = best["unroll"]
        groups, rest = divmod(count, u)
        self._restore(best["state"])
        entry, out = best["entry"], best["out"]
        self._emit_transfer(lines, ind, outside, entry, live_in)
        if u == 1:
            lines.append(ind + "for iter_slot in range(%d, %d):" % (lo, hi + 1))
        else:
            lines.append(ind + "for iter_slot in range(%d, %d, %d):" % (lo, lo + u * groups, u))
        lines.extend(best["body"])
        back: List[str] = []
        moved = self._emit_transfer(back, body_ind, out, entry, live_in, keep_live=True)
        lines.extend(back)
        for L in live_in:
            self._hold(L, entry[L] if L in moved else out[L])
        self.loop_names = self._names(best["body"] + back)
        span_lo, span_hi = self.body_span
        for j in range(rest):
            # ``iter_slot`` still holds the last group's first iteration.
            lines.append(ind + "# iteration %d" % (lo + u * groups + j))
            self.ev = span_lo
            self._emit_slot(lines, ind, None, dict.fromkeys(self._TALLY_KEYS, 0), shift=u + j)
        self.ev = span_hi
        return best["steady"]

    def _loop_passes(self, u: int, snap, outside: Dict[str, Optional[_Val]], ind: str,
                     passes: int, rotating=frozenset(), entry=None):
        """The cheapest of up to *passes* emissions of the loop body
        unrolled *u* times (see above), entering in the locals *entry*
        (an earlier emission) leaves off or else in *outside*; or
        ``None``."""
        live_in = self.body_live_in
        span_lo = self.body_span[0]
        if entry is None:
            entry = dict(outside)
        else:
            entry = dict(entry["entry"], **entry["out"])
        best = None
        homing = 0
        while passes > 0 and homing <= len(live_in):
            self._restore(snap)
            for L in list(self.loc):
                self._drop(L)
            for L in live_in:
                self._hold(L, entry[L])
            body: List[str] = []
            steady = dict.fromkeys(self._TALLY_KEYS, 0)
            for c in range(u):
                self.ev = span_lo
                self.copy = (c, u, rotating)
                self._emit_slot(body, ind, None,
                                steady if c == 0 else dict.fromkeys(self._TALLY_KEYS, 0), shift=c)
            self.copy = None
            out = {L: self.loc.get(L) for L in live_in}
            moving = [L for L in live_in if not _same(entry[L], out[L])]
            bad = (self._unmovable(entry, out, moving)
                   | self._unmovable(entry, outside,
                                     [L for L in live_in if not _same(entry[L], outside[L])]))
            if bad:
                homes = {L: _home(L, out[L]) for L in bad if out[L] is not None}
                if all(_same(entry[L], v) for L, v in homes.items()):
                    break
                entry.update(homes)
                homing += 1
                continue
            passes -= 1
            cost = sum(da != sa for L in moving for da, sa in self._pairs(entry[L], out[L]))
            if best is not None and cost >= best["cost"]:
                break
            best = {"cost": cost, "body": body, "steady": steady, "out": out,
                    "entry": dict(entry), "state": self._snapshot(), "unroll": u}
            # Enter where this emission leaves off.
            entry.update({L: out[L] for L in moving})
            if not cost:
                break
        return best

    @staticmethod
    def _pairs(dst: _Val, src: _Val) -> List[Tuple[str, object]]:
        """``(dst local, source)`` per local of *dst*: a source atom, or
        ``(lanes,)`` for the int of a lanes source and ``(int, k)`` for
        lane *k* of an int source, which are converted first."""
        if dst.i is not None:
            return [(dst.i, src.i if src.i is not None else (src.t,))]
        if src.t is not None:
            return list(zip(dst.t, src.t))
        return [(a, (src.i, k)) for k, a in enumerate(dst.t)]

    def _unmovable(self, dst: Dict[str, Optional[_Val]], src: Dict[str, Optional[_Val]],
                   moving: List[str]) -> set:
        """The locations of *moving* whose copy *src* -> *dst* cannot be
        emitted: into a literal, from or to an empty register, into a
        local two sources share, or over a local a location that does
        not move still uses (that one is returned too)."""
        bad = set()
        keep: Dict[str, List[str]] = {}
        for L, val in dst.items():
            if L not in moving and val is not None:
                for a in val.atoms():
                    keep.setdefault(a, []).append(L)
        owner: Dict[str, object] = {}
        for L in moving:
            d, s = dst[L], src[L]
            if d is None or s is None or (d.i is not None and d.t is not None):
                bad.add(L)
                continue
            for da, sa in self._pairs(d, s):
                if not _is_var(da) or owner.setdefault(da, sa) != sa:
                    bad.add(L)
                if da in keep and da != sa:
                    bad.add(L)
                    bad.update(keep[da])
        return bad

    def _emit_transfer(self, lines: List[str], ind: str, src: Dict[str, Optional[_Val]],
                       dst: Dict[str, Optional[_Val]], live_in: List[str],
                       keep_live: bool = False) -> set:
        """Emit the copy that moves every location of *live_in* from its
        *src* locals into its *dst* ones; returns the locations moved.
        With *keep_live* (the back edge), a location live past the loop
        that does not move keeps its value: a local the copy overwrites
        is read from where the copy put it, or saved first."""
        moved = {L for L in live_in if not _same(src[L], dst[L])}
        convert: List[str] = []
        lanes_of: Dict[str, Tuple[str, ...]] = {}
        moves: Dict[str, str] = {}
        for L in sorted(moved):
            for da, sa in self._pairs(dst[L], src[L]):
                if isinstance(sa, tuple) and len(sa) == 1:
                    sa = self._int(_Val(t=sa[0]))
                    if not _ATOM.fullmatch(sa):
                        tmp = "_c%d" % len(convert)
                        convert.append(ind + "%s = %s" % (tmp, sa))
                        sa = tmp
                elif isinstance(sa, tuple):
                    x, k = sa
                    if x not in lanes_of:
                        if x.startswith("imm_") or _literal_value(x) is not None:
                            lanes_of[x] = self._lanes([], "", _Val(i=x), "", ())
                        else:
                            lanes_of[x] = _lane_atoms("_c%d" % len(convert))
                            convert.append(ind + "%s = _U4(_P8(%s))"
                                           % (", ".join(lanes_of[x]), x))
                    sa = lanes_of[x][k]
                moves[da] = sa
        if keep_live:
            into = {}
            for da, sa in moves.items():
                into.setdefault(sa, da)
            saved: Dict[str, str] = {}
            live_in_set = set(live_in)
            for M in sorted(self.loc):
                val = self.loc[M]
                if M in live_in_set or val is None or not self._live(M):
                    continue
                for a in val.atoms():
                    if a in moves and a not in saved:
                        if a in into:
                            saved[a] = into[a]
                        else:
                            (new,) = self._alloc("e", 1, avoid=set(moves) | set(moves.values())
                                                 | set(saved.values()))
                            self._claim(new)
                            convert.append(ind + "%s = %s" % (new, a))
                            saved[a] = new
                if any(a in saved for a in val.atoms()):
                    self._hold(M, val.renamed(saved))
        lines.extend(convert)
        _emit_moves(lines, ind, list(moves.items()))
        return moved

    @staticmethod
    def _names(body: List[str]) -> List[str]:
        """The locals *body* uses, in order of first use."""
        names: List[str] = []
        seen = set(_GLOBAL_NAMES)
        for line in body:
            if "'" in line:
                line = _STRING.sub("", line)
            for name in _LOCAL.findall(line):
                if name not in seen:
                    seen.add(name)
                    if not keyword.iskeyword(name) and not name.startswith(("imm_", "iv_")):
                        names.append(name)
        return names

    # -- lane assembly --------------------------------------------------

    def _emit_lane(self, lines: List[str], ind: str) -> None:
        k = self.kernel
        ii = k.ii
        k1 = k.stage_count - 1
        w = lines.append
        plan = self._plan()
        n_imms = len(self.pool)
        if n_imms == 1:
            w(ind + "imm_0 = imms[0]")
        elif n_imms > 1:
            w(ind + ", ".join("imm_%d" % i for i in range(n_imms)) + " = imms")
        imm_mark = len(lines)
        for fu in sorted(self.lrf_fus):
            w(ind + "L%d = local_rfs[%d]._regs" % (fu, fu))
        for fu, entry in sorted(self.lrf_entries):
            name = "r%d_%d" % (fu, entry)
            w(ind + "%s = L%d[%d]" % (name, fu, entry))
            val = _Val(i=name)
            if (fu, entry) in self.lrf_lanes:
                val.t = _lane_atoms(name)
                w(ind + "%s = _U4(_P8(%s))" % (", ".join(val.t), name))
            self._set(name, val)
        # Predicated ops tally issue counters per iteration: keep those
        # in one integer local per FU / op group and flush them with the
        # closed-form (unpredicated) totals in the epilogue.
        pred_fus: List[int] = []
        pred_groups: List[str] = []
        for rec in self.ops:
            if rec.op.pred is None:
                continue
            if rec.fu not in pred_fus:
                pred_fus.append(rec.fu)
            if rec.group.name not in pred_groups:
                pred_groups.append(rec.group.name)
        pred_fus.sort()
        if pred_fus:
            w(ind + " = ".join("n_fu%d" % fu for fu in pred_fus) + " = 0")
        if pred_groups:
            w(ind + " = ".join("n_g_%s" % g for g in pred_groups) + " = 0")
        # The runner passes matching trips; the baked value wins.
        w(ind + "trip = %d" % self.trip)
        for fu in sorted(self.latch_fus):
            self._set("l_%d" % fu, _Val(i="0"))
        for rec in self.ops:
            if rec.kind == "store":
                continue
            for j in range(rec.n):
                if rec.op.pred is None:
                    self._set("w%d_%d" % (rec.oid, j), None)
                else:
                    w(ind + " = ".join(self._pred_home(rec, j)) + " = _A")
        w(ind + "stall_offset = 0")
        w(ind + "n_cdrf_r = n_cdrf_w = n_cprf_r = n_cprf_w = n_lrf_r = n_lrf_w = n_itx = 0")
        if self.has_mem:
            w(ind + "n_l1r = n_l1w = n_bc = bc_stall = 0")
        w(ind + "squashed = 0")
        w(ind + "pred_weight = 0")
        w(ind + "drain = 0")
        tally = self._emit_body(lines, ind, plan)
        entries = self._drain_entries()
        if entries:
            w(ind + "# drain: commits still in flight past the last context")
        for d, rec, j in entries:
            # Register j holds the value issued in slot trip+K1-delta+j,
            # i.e. iteration trip + K1 - delta + j - stage; it is the
            # last iteration exactly when j == stage + delta - stages.
            last = j == rec.stage + rec.delta - k.stage_count
            if rec.op.pred is not None:
                self._commit_conditional(lines, ind, rec, j, last, drain=d)
            elif self.loc.get("w%d_%d" % (rec.oid, j)) is not None:
                w(ind + "drain = %d" % d)
                self._commit_writes(lines, ind, rec, self._get("w%d_%d" % (rec.oid, j)),
                                    last, tally)
        for name in self._TALLY_KEYS:
            if tally[name]:
                w(ind + "%s += %d" % (name, tally[name]))
        # Batched accounting for unpredicated ops (closed form in trip),
        # then the per-run stats flush.
        easy_fu: Dict[int, int] = {}
        easy_g: Dict[OpGroup, int] = {}
        easy_total = 0
        hard = []
        for rec in self.ops:
            if rec.op.pred is not None:
                continue
            if rec.stage <= k1:
                easy_fu[rec.fu] = easy_fu.get(rec.fu, 0) + rec.weight
                easy_g[rec.group] = easy_g.get(rec.group, 0) + rec.weight
                easy_total += rec.weight
            else:
                hard.append(rec)
        w(ind + "unpred = %d * trip" % easy_total)
        if easy_fu or hard or pred_fus:
            w(ind + "fu_ops = stats.fu_ops")
            w(ind + "op_groups = stats.op_groups")
        for fu in pred_fus:
            w(ind + "fu_ops[%d] += n_fu%d" % (fu, fu))
        for g in pred_groups:
            w(ind + "op_groups[_G_%s] += n_g_%s" % (g, g))
        for fu in sorted(easy_fu):
            w(ind + "fu_ops[%d] += %d * trip" % (fu, easy_fu[fu]))
        for g in sorted(easy_g, key=lambda g: g.name):
            w(ind + "op_groups[_G_%s] += %d * trip" % (g.name, easy_g[g]))
        for rec in hard:
            w(ind + "ne = trip - %d" % (rec.stage - k1))
            w(ind + "if ne > 0:")
            w(ind + "    fu_ops[%d] += %d * ne" % (rec.fu, rec.weight))
            w(ind + "    op_groups[_G_%s] += %d * ne" % (rec.group.name, rec.weight))
            w(ind + "    unpred += %d * ne" % rec.weight)
        w(ind + "total_logical = (trip + %d) * %d" % (k1, ii))
        w(ind + "stats.cdrf_reads += n_cdrf_r")
        w(ind + "stats.cdrf_writes += n_cdrf_w")
        w(ind + "stats.cprf_reads += n_cprf_r")
        w(ind + "stats.cprf_writes += n_cprf_w")
        w(ind + "stats.lrf_reads += n_lrf_r")
        w(ind + "stats.lrf_writes += n_lrf_w")
        w(ind + "stats.interconnect_transfers += n_itx")
        w(ind + "stats.cga_ops += pred_weight + unpred")
        w(ind + "stats.squashed_ops += squashed")
        w(ind + "stats.config_words += %d * total_logical" % k.context_words)
        w(ind + "stats.cga_cycles += preload_cycles + total_logical + drain + stall_offset")
        if self.has_mem:
            w(ind + "stats.l1_reads += n_l1r")
            w(ind + "stats.l1_writes += n_l1w")
            w(ind + "stats.l1_bank_conflicts += n_bc")
            w(ind + "stats.l1_conflict_stall_cycles += bc_stall")
        w(ind + "stats.add_stall(_BC, stall_offset)")
        for fu in sorted(self.latch_fus):
            w(ind + "out_latch[%d] = %s" % (fu, self._int(self._get("l_%d" % fu))))
        for fu, entry in sorted(self.lrf_written):
            name = "r%d_%d" % (fu, entry)
            w(ind + "L%d[%d] = %s" % (fu, entry, self._int(self._get(name))))
        w(ind + "ends[_b] = start_cycle + total_logical + stall_offset + drain")
        _emit_lane_imms(lines, imm_mark, ind, self.lane_imms)


def cga_batch_runner(kernel: CgaKernel, arch: CgaArchitecture, fault,
                     cdrf_ports: Tuple[int, int], cprf_ports: Tuple[int, int],
                     trip: int):
    """Return the lane-batched steady-state function for *kernel* at
    trip count *trip* (>= 1).

    The compiled function advances as many packets per call as its
    structure-of-arrays arguments hold (``trips``, all equal to *trip*,
    per-lane immediate pools, register backing lists and scratchpads); a
    single packet is a one-element batch.  The width is a call-time value, not part of the
    source, so one compile serves every width; the L1 geometry it
    inlines is covered by ``arch.fingerprint()``.  Every lane's bank
    clocks must be at or below its start cycle (the caller sends other
    lanes to the reference loop).  Per-lane pools come
    from :func:`cga_imms` of each ``patch_constants`` variant, so every
    lane shares this one compile.  Faulted lanes (``faults[lane]`` set)
    carry unusable partial state and must be re-run from scratch.

    The function is specialized on *trip* (the batch runner groups
    lanes by resolved trip count anyway): the schedule guards disappear
    into unrolled prologue/epilogue slots around a guard-free
    steady-state loop.  The trip joins the cache key; trips per kernel
    come from a small fixed set (the region programs bake them in), so
    the key space stays bounded.

    Raises :class:`CodegenUnsupported` when the static port-pressure
    proof fails or more than 192 prologue + epilogue slots would unroll,
    and *fault* for malformed kernels, found once at generation time
    (the reference tier finds them while running).
    """
    key = ("cga-batch", arch.fingerprint(), trip, cga_signature(kernel))

    def gen() -> str:
        return _CgaGen(kernel, arch, fault, cdrf_ports, cprf_ports, trip).generate_batch()

    source = _cached_source(key, "cga-batch", kernel.name, gen)
    return _compiled_fn(key, source, "_cga_run_batch", {"_ME": MemoryError_})


# ----------------------------------------------------------------------
# VLIW: branch-free segments compiled to straight-line bundle runs
# ----------------------------------------------------------------------


def vliw_segment_end(bundles: List[VliwBundle], start_pc: int) -> int:
    """Exclusive end of the straight-line segment starting at *start_pc*:
    through the first bundle containing a live branch or control
    instruction (inclusive), or the end of the stream."""
    pc = start_pc
    n = len(bundles)
    while pc < n:
        for inst in bundles[pc]:
            if inst is None or inst.opcode is Opcode.NOP:
                continue
            group = group_of(inst.opcode)
            if group is OpGroup.BRANCH or group is OpGroup.CONTROL:
                return pc + 1
        pc += 1
    return n


def _iter_vliw_sites(bundles, start_pc: int, end_pc: int):
    """Yield ``(pc, slot, inst)`` for live instructions in segment order."""
    for pc in range(start_pc, end_pc):
        for slot, inst in enumerate(bundles[pc]):
            if inst is None or inst.opcode is Opcode.NOP:
                continue
            yield pc, slot, inst


def _vliw_imm_value(inst, src_index: int, operand) -> int:
    """Runtime pool value of one VLIW immediate, with its per-role
    transform: branch targets and CGA kernel ids stay raw,
    memory offsets are pre-scaled raw, everything else is encoded into
    64 bits two's-complement."""
    group = group_of(inst.opcode)
    if group in (OpGroup.BRANCH, OpGroup.CONTROL):
        return operand.value
    if src_index == 1 and group in (OpGroup.LDMEM, OpGroup.STMEM):
        return operand.value << memops.mem_info(inst.opcode).imm_scale
    return operand.value & MASK64


def _vliw_pool_map(bundles, start_pc: int, end_pc: int):
    """``(values, site_index)`` with ``site_index[(pc, slot, i)]`` the
    pool slot of that source; one canonical walk shared with codegen."""
    values: List[int] = []
    index: Dict[tuple, int] = {}
    for pc, slot, inst in _iter_vliw_sites(bundles, start_pc, end_pc):
        for i, operand in enumerate(inst.srcs):
            if isinstance(operand, Imm):
                index[(pc, slot, i)] = len(values)
                values.append(_vliw_imm_value(inst, i, operand))
    return values, index


def _operand_sig(operand) -> tuple:
    if isinstance(operand, Reg):
        return ("r", operand.index)
    if isinstance(operand, PredReg):
        return ("p", operand.index)
    if isinstance(operand, Imm):
        return ("i",)  # values live in the pool, not the key
    return ("?", repr(operand))


def vliw_signature(bundles, start_pc: int, end_pc: int) -> tuple:
    """Structural identity of a segment (immediate values excluded, so
    ``patch_constants`` program variants share one compiled artifact)."""
    seg = []
    for pc in range(start_pc, end_pc):
        insts = []
        for slot, inst in enumerate(bundles[pc]):
            if inst is None or inst.opcode is Opcode.NOP:
                continue
            insts.append(
                (
                    slot,
                    inst.opcode.value,
                    None if inst.dst is None else _operand_sig(inst.dst),
                    None if inst.pred is None else (inst.pred.index, inst.pred_negate),
                    tuple(_operand_sig(s) for s in inst.srcs),
                )
            )
        seg.append(tuple(insts))
    return (start_pc, tuple(seg))


class _VliwGen:
    """Emits the straight-line function of one branch-free segment."""

    def __init__(self, bundles, start_pc: int, end_pc: int, slot_fus,
                 cdrf, cprf, fault, l1_geom: Tuple[int, int],
                 icache_geom: Tuple[int, int, int]) -> None:
        self.bundles = bundles
        self.start_pc = start_pc
        self.end_pc = end_pc
        self.slot_fus = slot_fus
        self.cdrf_mask = (1 << cdrf.width) - 1
        self.word_bits = max(64, cdrf.width)
        self.ports = (cdrf.read_ports, cdrf.write_ports,
                      cprf.read_ports, cprf.write_ports)
        self.fault = fault
        self.l1_geom = l1_geom  # (n_banks, size_bytes)
        self.icache_geom = icache_geom  # (n_lines, bundles_per_line, miss_penalty)
        self.pool, self.pool_index = _vliw_pool_map(bundles, start_pc, end_pc)
        self.lane_imms: set = set()
        self.wb_counter = 0
        groups = [group_of(inst.opcode)
                  for _pc, _slot, inst in _iter_vliw_sites(bundles, start_pc, end_pc)]
        self.has_mem = any(g in (OpGroup.LDMEM, OpGroup.STMEM) for g in groups)
        self.has_load = OpGroup.LDMEM in groups

    # -- operand helpers -----------------------------------------------

    def _read(self, lines: List[str], ind: str, pc: int, slot: int,
              i: int, operand) -> str:
        if isinstance(operand, Reg):
            lines.append(ind + "n_cdrf_r += 1")
            return "CD[%d]" % operand.index
        if isinstance(operand, PredReg):
            lines.append(ind + "n_cprf_r += 1")
            return "CP[%d]" % operand.index
        if isinstance(operand, Imm):
            return "imm_%d" % self.pool_index[(pc, slot, i)]
        raise self.fault("bad VLIW operand: %r" % (operand,))

    def _check_ports(self, live) -> None:
        """Static worst case of one bundle against the central-RF ports
        (see :meth:`_CgaGen._check_port_pressure` for the rationale)."""
        r_d = r_p = w_d = w_p = 0
        for _slot, inst in live:
            if inst.pred is not None:
                r_p += 1
            group = group_of(inst.opcode)
            for operand in inst.srcs:
                if isinstance(operand, Reg):
                    r_d += 1
                elif isinstance(operand, PredReg):
                    r_p += 1
            if group is OpGroup.BRANCH:
                if inst.opcode in (Opcode.JMPL, Opcode.BRL):
                    w_d += 1  # link write happens at issue time
            elif group in (OpGroup.LDMEM, *DATAFLOW_GROUPS) and inst.dst is not None:
                if isinstance(inst.dst, PredReg):
                    w_p += 1
                else:
                    w_d += 1
        for used, ports, what in (
            (r_d, self.ports[0], "CDRF reads"),
            (w_d, self.ports[1], "CDRF writes"),
            (r_p, self.ports[2], "CPRF reads"),
            (w_p, self.ports[3], "CPRF writes"),
        ):
            if used > ports:
                raise CodegenUnsupported(
                    "VLIW segment at pc %d: worst-case %s (%d) exceed %d ports"
                    % (self.start_pc, what, used, ports)
                )

    # -- per-instruction issue emission --------------------------------

    def _emit_inst(self, lines: List[str], ind: str, pc: int, slot: int,
                   inst, wb: Optional[dict]) -> None:
        group = group_of(inst.opcode)
        weight = op_weight(inst.opcode)
        fu = self.slot_fus[slot] if slot < len(self.slot_fus) else slot
        body = ind
        if inst.pred is not None:
            lines.append(ind + "n_cprf_r += 1")
            if inst.pred_negate:
                lines.append(ind + "if CP[%d] != 0:" % inst.pred.index)
            else:
                lines.append(ind + "if CP[%d] == 0:" % inst.pred.index)
            lines.append(ind + "    squashed += 1")
            lines.append(ind + "else:")
            body = ind + "    "
        lines.append(body + "n_fu%d += %d" % (fu, weight))
        lines.append(body + "n_g_%s += %d" % (group.name, weight))
        lines.append(body + "vliw_ops += %d" % weight)
        if group in DATAFLOW_GROUPS:
            arity = operand_count(inst.opcode)
            names = []
            for i, operand in enumerate(inst.srcs):
                names.append(self._read(lines, body, pc, slot, i, operand))
            if wb is None:
                return  # no destination: reads already accounted
            target = wb["var"]
            if group in (OpGroup.SIMD1, OpGroup.SIMD2):
                # Registers hold ints: lanes in at the reads, out at the
                # write-back.
                a = _lane_operand(names[0], _INT, self.lane_imms)
                b = None
                if arity == 2:
                    b = (names[1] if inst.opcode in _LANE_SHIFTS
                         else _lane_operand(names[1], _INT, self.lane_imms))
                lanes = _emit_lanes(lines, body, inst.opcode, a, b, self.word_bits)
                lines.append(body + "%s = %s" % (target, _as_int(lanes, _LANES)))
            else:
                use = names[:arity] + ["0"] * (2 - min(arity, 2))
                lines.append(
                    body + "%s = %s" % (target, _SCALAR_EXPR[inst.opcode](use[0], use[1]))
                )
        elif group is OpGroup.LDMEM:
            if len(inst.srcs) < 2:
                raise self.fault("%s needs base and offset sources" % inst.opcode.value)
            info = memops.mem_info(inst.opcode)
            base = self._read(lines, body, pc, slot, 0, inst.srcs[0])
            off = inst.srcs[1]
            if isinstance(off, Imm):
                lines.append(
                    body + "addr = (((%s) & 4294967295) + imm_%d) & 4294967295"
                    % (base, self.pool_index[(pc, slot, 1)])
                )
            else:
                offx = self._read(lines, body, pc, slot, 1, off)
                lines.append(
                    body + "addr = (((%s) & 4294967295) + ((%s) & 4294967295)) & 4294967295"
                    % (base, offx)
                )
            _emit_inline_read(lines, body, "cycle", info.size, *self.l1_geom)
            if wb is None:
                return
            target = wb["var"]
            if info.size == 8:
                lines.append(body + "%s = raw" % target)
            elif info.signed:
                hb = 1 << (info.size * 8 - 1)
                lines.append(body + "%s = ((raw ^ %d) - %d) & 4294967295" % (target, hb, hb))
            else:
                lines.append(body + "%s = raw & %d" % (target, (1 << (info.size * 8)) - 1))
            lines.append(body + "%s = cycle + %d + extra" % (wb["rdy"], latency_of(inst.opcode)))
        elif group is OpGroup.STMEM:
            if len(inst.srcs) != 3:
                raise self.fault("%s needs base, offset and value sources" % inst.opcode.value)
            if not isinstance(inst.srcs[1], Imm):
                raise self.fault("stores use immediate offsets (Table 1)")
            info = memops.mem_info(inst.opcode)
            base = self._read(lines, body, pc, slot, 0, inst.srcs[0])
            lines.append(
                body + "addr = (((%s) & 4294967295) + imm_%d) & 4294967295"
                % (base, self.pool_index[(pc, slot, 1)])
            )
            sv = self._read(lines, body, pc, slot, 2, inst.srcs[2])
            mask = (1 << (info.size * 8)) - 1
            # The write's conflict delay is ignored in VLIW mode (the
            # reference tier discards ``timed_write``'s return the same way).
            lines.append(body + "v_st = (%s) & %d" % (sv, mask))
            _emit_inline_write(lines, body, "cycle", info.size, *self.l1_geom)
        elif group is OpGroup.BRANCH:
            latency = latency_of(inst.opcode)
            lines.append(body + "taken = True")
            lines.append(body + "bl = %d" % latency)
            target_src = inst.srcs[0]
            if inst.opcode in (Opcode.JMP, Opcode.JMPL):
                if isinstance(target_src, Imm):
                    lines.append(body + "tgt = imm_%d" % self.pool_index[(pc, slot, 0)])
                else:
                    lines.append(body + "n_cdrf_r += 1")
                    lines.append(body + "tgt = CD[%d] & 4294967295" % target_src.index)
            else:  # br / brl: PC-relative in bundle units
                if not isinstance(target_src, Imm):
                    raise self.fault("relative branch needs an immediate offset")
                lines.append(
                    body + "tgt = %d + imm_%d" % (pc + 1, self.pool_index[(pc, slot, 0)])
                )
            if inst.opcode in (Opcode.JMPL, Opcode.BRL):
                link = inst.dst.index if inst.dst is not None else 9
                lines.append(body + "n_cdrf_w += 1")
                lines.append(body + "CD[%d] = %d" % (link, (pc + 1) & self.cdrf_mask))
                lines.append(body + "reg_ready[%d] = cycle + %d" % (link, latency))
        else:  # control
            if inst.opcode is Opcode.CGA:
                if inst.srcs:
                    if not isinstance(inst.srcs[0], Imm):
                        raise CodegenUnsupported("cga kernel id must be an immediate")
                    kid = "imm_%d" % self.pool_index[(pc, slot, 0)]
                else:
                    kid = "0"
                lines.append(
                    body + "stop = _Stop('cga', kernel_id=%s, next_pc=%d)" % (kid, pc + 1)
                )
            elif inst.opcode is Opcode.HALT:
                lines.append(body + "stop = _Stop('halt', next_pc=%d)" % (pc + 1))
            else:
                lines.append(body + "pass")

    # -- whole-function assembly ---------------------------------------

    def generate_batch(self) -> str:
        """One function advancing any number of packets through the
        segment: structure-of-arrays arguments, the scratchpad *and* the
        instruction cache inlined (per-lane tag lists with compile-time
        line index/tag constants), no tracer hooks — the lockstep
        runner requires tracing disabled.  Per-lane results land in
        ``stops``/``next_pcs``/``cycles_out``; a faulting lane lands its
        exception in ``faults[lane]`` (partial state unusable, re-run
        from scratch) while the remaining lanes complete."""
        lines: List[str] = []
        w = lines.append
        w("def _vliw_run_batch(start_cycles, max_cycle, imms_s, CD_s, CP_s,"
          " reg_ready_s, pred_ready_s, icache_s, mem_s, stats_s,"
          " stops, next_pcs, cycles_out, faults):")
        if self.has_load:
            w("    _fb = int.from_bytes")
        w("    for _b in range(len(start_cycles)):")
        w("        try:")
        ind = "            "
        w(ind + "start_cycle = start_cycles[_b]")
        w(ind + "imms = imms_s[_b]")
        w(ind + "CD = CD_s[_b]")
        w(ind + "CP = CP_s[_b]")
        w(ind + "reg_ready = reg_ready_s[_b]")
        w(ind + "pred_ready = pred_ready_s[_b]")
        w(ind + "IT = icache_s[_b]._tags")
        w(ind + "stats = stats_s[_b]")
        if self.has_mem:
            w(ind + "_sp = mem_s[_b]")
            w(ind + "M = _sp._mem")
            w(ind + "BNF = _sp._bank_next_free")
        self._emit_lane(lines, ind)
        w(ind + "stops[_b] = stop")
        w(ind + "next_pcs[_b] = next_pc")
        w(ind + "cycles_out[_b] = cycle")
        w("        except _BF as exc:")
        w("            faults[_b] = exc")
        return "\n".join(lines) + "\n"

    def _emit_fetch(self, lines: List[str], bind: str, pc: int) -> None:
        """Instruction fetch: the cache probe inlined with compile-time
        index/tag constants (``pc`` is a literal, so both are)."""
        w = lines.append
        n_lines_, bundles_per_line, penalty = self.icache_geom
        line_addr = pc // bundles_per_line
        index = line_addr % n_lines_
        tag = line_addr // n_lines_
        w(bind + "if IT[%d] == %d:" % (index, tag))
        w(bind + "    n_ic_h += 1")
        w(bind + "else:")
        w(bind + "    IT[%d] = %d" % (index, tag))
        w(bind + "    n_ic_m += 1")
        if penalty > 0:
            w(bind + "    add_stall(_IC, %d)" % penalty)
            w(bind + "    vliw_cycles += %d" % penalty)
            w(bind + "    cycle += %d" % penalty)

    def _emit_lane(self, lines: List[str], ind: str) -> None:
        w = lines.append
        n_imms = len(self.pool)
        if n_imms == 1:
            w(ind + "imm_0 = imms[0]")
        elif n_imms > 1:
            w(ind + ", ".join("imm_%d" % i for i in range(n_imms)) + " = imms")
        imm_mark = len(lines)
        # Issue counters accumulate in one integer local per FU / op
        # group the segment can touch and flush once in the epilogue: a
        # dict update per issued op is the dominant cost of a warm lane.
        used_fus: List[int] = []
        used_groups: List[str] = []
        for pc in range(self.start_pc, self.end_pc):
            for slot, inst in enumerate(self.bundles[pc]):
                if inst is None or inst.opcode is Opcode.NOP:
                    continue
                fu = self.slot_fus[slot] if slot < len(self.slot_fus) else slot
                if fu not in used_fus:
                    used_fus.append(fu)
                gname = group_of(inst.opcode).name
                if gname not in used_groups:
                    used_groups.append(gname)
        used_fus.sort()
        if used_fus:
            w(ind + " = ".join("n_fu%d" % fu for fu in used_fus) + " = 0")
        if used_groups:
            w(ind + " = ".join("n_g_%s" % g for g in used_groups) + " = 0")
        w(ind + "add_stall = stats.add_stall")
        w(ind + "rrg = reg_ready.get")
        w(ind + "prg = pred_ready.get")
        w(ind + "cycle = start_cycle")
        w(ind + "vliw_cycles = 0")
        w(ind + "vliw_ops = 0")
        w(ind + "squashed = 0")
        w(ind + "n_cdrf_r = n_cdrf_w = n_cprf_r = n_cprf_w = 0")
        if self.has_mem:
            w(ind + "n_l1r = n_l1w = n_bc = bc_stall = 0")
        w(ind + "n_ic_h = n_ic_m = 0")
        w(ind + "stop = None")
        w(ind + "next_pc = %d" % self.end_pc)
        last_pc = self.end_pc - 1
        has_branch = any(
            inst is not None
            and inst.opcode is not Opcode.NOP
            and group_of(inst.opcode) is OpGroup.BRANCH
            for inst in (self.bundles[last_pc] if self.end_pc > self.start_pc else ())
        )
        if has_branch:
            # A predicated terminator branch may squash: pre-clear the
            # taken flag so the epilogue always sees a bound value.
            w(ind + "taken = False")
            w(ind + "bl = 0")
            w(ind + "tgt = 0")
        w(ind + "try:")
        bind = ind + "    "
        for pc in range(self.start_pc, self.end_pc):
            live = [
                (slot, inst)
                for slot, inst in enumerate(self.bundles[pc])
                if inst is not None and inst.opcode is not Opcode.NOP
            ]
            self._check_ports(live)
            w(bind + "# pc %d" % pc)
            w(bind + "if max_cycle is not None and cycle > max_cycle:")
            w(bind + "    raise _VF('exceeded %d cycles in VLIW mode' % max_cycle)")
            self._emit_fetch(lines, bind, pc)
            # Scoreboard interlock over statically-deduped source lists.
            need_regs: List[int] = []
            need_preds: List[int] = []
            for _slot, inst in live:
                for operand in inst.srcs:
                    if isinstance(operand, Reg) and operand.index not in need_regs:
                        need_regs.append(operand.index)
                    elif isinstance(operand, PredReg) and operand.index not in need_preds:
                        need_preds.append(operand.index)
                if inst.pred is not None and inst.pred.index not in need_preds:
                    need_preds.append(inst.pred.index)
            if need_regs or need_preds:
                w(bind + "need = 0")
                for index in need_regs:
                    w(bind + "t = rrg(%d, 0)" % index)
                    w(bind + "if t > need:")
                    w(bind + "    need = t")
                for index in need_preds:
                    w(bind + "t = prg(%d, 0)" % index)
                    w(bind + "if t > need:")
                    w(bind + "    need = t")
                w(bind + "if need > cycle:")
                w(bind + "    wait = need - cycle")
                w(bind + "    add_stall(_IL, wait)")
                w(bind + "    vliw_cycles += wait")
                w(bind + "    cycle = need")
            # Issue: pre-clear predicated writeback slots, then the
            # instructions in slot order; two-phase write-back follows.
            wbs = []
            for slot, inst in live:
                group = group_of(inst.opcode)
                wb = None
                if inst.dst is not None and (
                    group is OpGroup.LDMEM or group in DATAFLOW_GROUPS
                ):
                    j = self.wb_counter
                    self.wb_counter += 1
                    wb = {
                        "var": "wb%d" % j,
                        "rdy": "rdy%d" % j,
                        "is_pred": isinstance(inst.dst, PredReg),
                        "index": inst.dst.index,
                        "latency": latency_of(inst.opcode),
                        "is_load": group is OpGroup.LDMEM,
                        "guarded": inst.pred is not None,
                    }
                    wbs.append(wb)
                    if wb["guarded"]:
                        w(bind + "%s = _A" % wb["var"])
                self._emit_inst(lines, bind, pc, slot, inst, wb)
            for wb in wbs:
                sub = bind
                if wb["guarded"]:
                    w(bind + "if %s is not _A:" % wb["var"])
                    sub = bind + "    "
                ready = "%s" % wb["rdy"] if wb["is_load"] else "cycle + %d" % wb["latency"]
                if wb["is_pred"]:
                    w(sub + "n_cprf_w += 1")
                    w(sub + "CP[%d] = %s & 1" % (wb["index"], wb["var"]))
                    w(sub + "pred_ready[%d] = %s" % (wb["index"], ready))
                else:
                    w(sub + "n_cdrf_w += 1")
                    w(sub + "CD[%d] = %s & %d" % (wb["index"], wb["var"], self.cdrf_mask))
                    w(sub + "reg_ready[%d] = %s" % (wb["index"], ready))
            w(bind + "vliw_cycles += 1")
            w(bind + "cycle += 1")
        # Terminator epilogue: the last bundle may have taken a branch
        # (stop wins over a taken branch, exactly like the reference loop).
        if has_branch:
            w(bind + "if stop is None and taken:")
            w(bind + "    dead = bl - 1")
            w(bind + "    add_stall(_BR, dead)")
            w(bind + "    vliw_cycles += dead")
            w(bind + "    cycle += dead")
            w(bind + "    next_pc = tgt")
        w(ind + "finally:")
        if used_fus:
            w(ind + "    fu_ops = stats.fu_ops")
            for fu in used_fus:
                w(ind + "    fu_ops[%d] += n_fu%d" % (fu, fu))
        if used_groups:
            w(ind + "    op_groups = stats.op_groups")
            for g in used_groups:
                w(ind + "    op_groups[_G_%s] += n_g_%s" % (g, g))
        w(ind + "    stats.vliw_cycles += vliw_cycles")
        w(ind + "    stats.vliw_ops += vliw_ops")
        w(ind + "    stats.squashed_ops += squashed")
        w(ind + "    stats.cdrf_reads += n_cdrf_r")
        w(ind + "    stats.cdrf_writes += n_cdrf_w")
        w(ind + "    stats.cprf_reads += n_cprf_r")
        w(ind + "    stats.cprf_writes += n_cprf_w")
        if self.has_mem:
            w(ind + "    stats.l1_reads += n_l1r")
            w(ind + "    stats.l1_writes += n_l1w")
            w(ind + "    stats.l1_bank_conflicts += n_bc")
            w(ind + "    stats.l1_conflict_stall_cycles += bc_stall")
        w(ind + "    stats.icache_hits += n_ic_h")
        w(ind + "    stats.icache_misses += n_ic_m")
        _emit_lane_imms(lines, imm_mark, ind, self.lane_imms)


def vliw_batch_runner(bundles, start_pc: int, slot_fus, cdrf, cprf,
                      scratchpad, icache, fault):
    """Return ``(fn, end_pc)`` — the lane-batched function for the
    straight-line segment at *start_pc* and the segment's exclusive end.

    The function serves any batch width (the width is the length of its
    per-lane argument lists).  The L1 and icache geometry join the cache
    key because the memory and instruction-cache models are inlined
    into the generated source.  Per-lane immediate pools come
    from the caller via :func:`vliw_imms` over each lane's (possibly
    ``patch_constants``-patched) bundles.  Raises
    :class:`CodegenUnsupported` when the static port-pressure proof
    fails, and *fault* for malformed bundles, found once at generation
    time (the reference tier finds them while running).
    """
    from repro.sim.vliw import StopEvent  # lazy: vliw.py imports this module

    end_pc = vliw_segment_end(bundles, start_pc)
    l1_geom = (scratchpad.n_banks, scratchpad.size_bytes)
    icache_geom = (icache.n_lines, icache.bundles_per_line, icache.miss_penalty)
    key = (
        "vliw-batch",
        tuple(slot_fus),
        (cdrf.width, cdrf.read_ports, cdrf.write_ports),
        (cprf.read_ports, cprf.write_ports),
        l1_geom,
        icache_geom,
        vliw_signature(bundles, start_pc, end_pc),
    )

    def gen() -> str:
        return _VliwGen(bundles, start_pc, end_pc, slot_fus, cdrf, cprf, fault,
                        l1_geom=l1_geom, icache_geom=icache_geom).generate_batch()

    source = _cached_source(key, "vliw-batch", "pc%d" % start_pc, gen)
    fn = _compiled_fn(key, source, "_vliw_run_batch",
                      {"_VF": fault, "_Stop": StopEvent, "_ME": MemoryError_,
                       "_BF": (fault, MemoryError_)})
    return fn, end_pc


def vliw_imms(bundles, start_pc: int, end_pc: int) -> Tuple[int, ...]:
    """One lane's immediate pool for the segment, in canonical order."""
    return tuple(_vliw_pool_map(bundles, start_pc, end_pc)[0])


# Aliases: the benchmark suite's span tracer (``benchmarks/suite/spans.py``)
# wraps these two names as well as the batch runners, by attribute, and
# the suite is kept unchanged so its runs stay comparable across commits.
cga_runner = cga_batch_runner
vliw_runner = vliw_batch_runner
