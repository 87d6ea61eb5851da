"""Templates both emitters share: the inline scratchpad model, the scalar
and 4x16 SIMD lane expressions, the lane-batched function scaffold and
the counter locals flushed into :class:`~repro.sim.stats.ActivityStats`.

Everything here returns or appends source text; nothing inspects a
kernel or a schedule.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.opcodes import Opcode, OpGroup
from repro.trace.events import StallCause


class CodegenUnsupported(Exception):
    """The construct cannot be compiled with static port-pressure proof;
    the runner falls back to the reference loop (which checks dynamically)."""


#: Sentinel marking an empty shift-register slot in generated code.  It
#: lives only in this process (compiled code is what gets persisted,
#: never the sentinel), so identity checks are safe.
_ABSENT = object()

_LANE_STRUCT = struct.Struct("<4h")
#: The two lanes of a 4-byte word.
_HALF_STRUCT = struct.Struct("<2h")


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
    ns["_L2"] = _HALF_STRUCT.unpack_from
    ns["_S2"] = _HALF_STRUCT.pack_into
    return ns


# ----------------------------------------------------------------------
# The lane-batched function and its counters
# ----------------------------------------------------------------------


def _emit_lane_batch(header: str, lanes: str, lane_binds: Sequence[str], has_load: bool,
                     has_mem: bool, n_imms: int, emit_lane: Callable[[List[str], str], set],
                     catch: str) -> List[str]:
    """The function *header* advancing every lane of the sequence
    argument *lanes* in turn: bind the lane's arguments (*lane_binds*,
    then its scratchpad views and its immediate pool ``imm_<k>``), emit
    the lane body with *emit_lane*, which returns the pool slots it read
    as lanes (converted at lane entry, see :func:`_lane_operand`), and
    land a *catch* exception in ``faults[_b]``."""
    lines = [header]
    w = lines.append
    if has_load:
        w("    _fb = int.from_bytes")
    w("    for _b in range(len(%s)):" % lanes)
    w("        try:")
    ind = "            "
    for bind in lane_binds:
        w(ind + bind)
    if has_mem:
        w(ind + "_sp = mem_s[_b]")
        w(ind + "M = _sp._mem")
        w(ind + "BNF = _sp._bank_next_free")
    if n_imms == 1:
        w(ind + "imm_0 = imms[0]")
    elif n_imms > 1:
        w(ind + ", ".join("imm_%d" % i for i in range(n_imms)) + " = imms")
    imm_mark = len(lines)
    lane_imms = emit_lane(lines, ind)
    lines[imm_mark:imm_mark] = [
        ind + "%s = _U4(_P8(imm_%d))" % (", ".join(_lane_atoms("iv_%d" % k)), k)
        for k in sorted(lane_imms)]
    w("        except %s as exc:" % catch)
    w("            faults[_b] = exc")
    return lines


#: Counter locals of generated code and the ActivityStats fields they
#: flush into: central-RF ports, local RFs and wires, scratchpad.
_CRF_COUNTERS = {"n_cdrf_r": "cdrf_reads", "n_cdrf_w": "cdrf_writes",
                 "n_cprf_r": "cprf_reads", "n_cprf_w": "cprf_writes"}
_LRF_COUNTERS = {"n_lrf_r": "lrf_reads", "n_lrf_w": "lrf_writes",
                 "n_itx": "interconnect_transfers"}
_L1_COUNTERS = {"n_l1r": "l1_reads", "n_l1w": "l1_writes", "n_bc": "l1_bank_conflicts",
                "bc_stall": "l1_conflict_stall_cycles"}


def _issue_counters(issues) -> Tuple[List[int], List[str]]:
    """The FUs (sorted) and op-group names (first use first) of the
    ``(fu, group)`` pairs *issues*: one counter local each."""
    fus: List[int] = []
    groups: List[str] = []
    for fu, group in issues:
        if fu not in fus:
            fus.append(fu)
        if group.name not in groups:
            groups.append(group.name)
    return sorted(fus), groups


def _emit_zero(lines: List[str], ind: str, names) -> None:
    """Zero the counter locals *names* in one statement."""
    if names:
        lines.append(ind + " = ".join(names) + " = 0")


def _emit_flush(lines: List[str], ind: str, counters: Dict[str, str]) -> None:
    """Add each counter local to its ``stats`` field."""
    for local, field in counters.items():
        lines.append(ind + "stats.%s += %s" % (field, local))


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
    """Inline ``Scratchpad.timed_read`` into *dest* (with *lanes*, four
    lane locals for an 8-byte read and two for a 4-byte one; nothing is
    fetched into an empty *dest*) and, when it returns True, leave the
    bank-conflict delay in ``extra`` (see :func:`_emit_access`).

    With *tally* (a counter dict), statically-known access counts are
    accumulated there instead of emitting per-access increments."""
    stalls = _emit_access(lines, ind, cycle_var, size, n_banks, mem_bytes, idle)
    if tally is None:
        lines.append(ind + "n_l1r += %d" % (1 if size <= 4 else 2))
    else:
        tally["n_l1r"] += 1 if size <= 4 else 2
    if not dest:
        pass
    elif lanes:
        lines.append(ind + "%s = %s(M, addr)" % (dest, "_L4" if size == 8 else "_L2"))
    else:
        lines.append(ind + "%s = _fb(M[addr:addr + %d], 'little')" % (dest, size))
    return stalls


def _emit_inline_write(lines: List[str], ind: str, cycle_var: str, size: int,
                       n_banks: int, mem_bytes: int, tally=None,
                       idle: bool = False, lanes: Optional[str] = None) -> bool:
    """Inline ``Scratchpad.timed_write`` of pre-masked ``v_st`` (or, for
    8- and 4-byte writes, of the four or two lane expressions *lanes*);
    when it returns True, leaves the bank-conflict delay in ``extra``."""
    stalls = _emit_access(lines, ind, cycle_var, size, n_banks, mem_bytes, idle)
    if tally is None:
        lines.append(ind + "n_l1w += %d" % (1 if size <= 4 else 2))
    else:
        tally["n_l1w"] += 1 if size <= 4 else 2
    if lanes is not None:
        lines.append(ind + "%s(M, addr, %s)" % ("_S4" if size == 8 else "_S2", lanes))
    else:
        lines.append(ind + "M[addr:addr + %d] = v_st.to_bytes(%d, 'little')" % (size, size))
    return stalls


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
#: consumer needs the other one (see :class:`~.emit_cga._CgaGen`).  The
#: VLIW generator and the lane-template tests also pass a lane-tuple
#: *expression* where a form is ``_LANES``.
_INT = "i"
_LANES = "t"

#: SIMD ops whose second operand is a shift amount (its low 4 bits).
_LANE_SHIFTS = frozenset({Opcode.C4SHIFTL, Opcode.C4SHIFTR})

#: The lane-wise binary ops with an infix operator; add and sub saturate.
_LANE_INFIX = {Opcode.C4ADD: "+", Opcode.C4SUB: "-", Opcode.C4AND: "&", Opcode.C4OR: "|",
               Opcode.C4XOR: "^"}


def _lane_atoms(base: str) -> Tuple[str, ...]:
    """The four lane locals of a lanes value named *base*."""
    return (base + "_0", base + "_1", base + "_2", base + "_3")


def _literal_value(atom: str) -> Optional[int]:
    """The value of an integer literal atom (``5``, ``(-1)``), else
    ``None``."""
    if atom.isdigit():
        return int(atom)
    if atom[:2] == "(-" and atom[2:-1].isdigit() and atom[-1] == ")":
        return int(atom[1:-1])
    return None


def _lane_literal(value: int) -> str:
    """The lane atom of the int16 *value* (negative ones parenthesised)."""
    return str(value) if value >= 0 else "(%d)" % value


def _literal_lanes(word: int) -> Tuple[str, ...]:
    """The lanes of the 64-bit pattern *word*, as literals."""
    return tuple(_lane_literal((((word >> (16 * i)) & 65535) ^ 32768) - 32768)
                 for i in range(4))


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


def _require_lane_words(op: Opcode, word_bits: int) -> None:
    """Lanes hold 64 bits: an operand read from a wider register file is
    refused (the op runs on the reference loop)."""
    if word_bits > 64:
        raise CodegenUnsupported(
            "%s needs operands of at most 64 bits, not %d" % (op.value, word_bits))


def _sat16(s: str) -> str:
    return "(32767 if %s > 32767 else (%s if %s >= -32768 else -32768))" % (s, s, s)


#: Clamps a lane template may leave on a lane, as bits: int16's upper
#: end, its lower end, or both.
_CLAMP_NONE, _CLAMP_HI, _CLAMP_LO, _CLAMP_BOTH = 0, 1, 2, 3

# ----------------------------------------------------------------------
# Lane value ranges
# ----------------------------------------------------------------------
#
# A lane's range is an inclusive interval ``(lo, hi)``; a value's, one
# per lane (lane 0 first).  :func:`_lane_raw` gives the interval each
# result lane of a SIMD op lies in *before* saturation or wrapping, from
# its operands' lane intervals; a saturating lane needs a clamp end only
# where that interval crosses int16's, and :func:`_lane_result` is the
# interval after it.  The CGA analysis runs them over a kernel's values;
# the lane template emits the clamps they leave.

#: Every int16 value: the range of a lane nothing is known about.
_I16 = (-32768, 32767)
_FULL = (_I16,) * 4


def _exact(lane: str) -> Tuple[int, int]:
    """The interval of a literal lane atom."""
    v = _literal_value(lane)
    return (v, v)


def _lane_raw(op: Opcode, a, b=None, amount: Optional[int] = None) -> tuple:
    """Per result lane of SIMD *op*, the interval its value lies in
    before saturation (add, sub, negate, the q15 products) or wrapping
    (the left shift), given per-lane operand intervals *a* and *b*
    (``None`` for unary ops and the shifts) and, for a shift, its amount
    when known (else any amount 0..15)."""
    if op in _LANE_SHIFTS:
        shifts = (amount,) if amount is not None else (0, 15)
        if op is Opcode.C4SHIFTR:
            return tuple((min(lo >> k for k in shifts), max(hi >> k for k in shifts))
                         for lo, hi in a)
        return tuple((min(lo << k for k in shifts), max(hi << k for k in shifts))
                     for lo, hi in a)
    if op is Opcode.C4SWAP32:
        return (a[2], a[3], a[0], a[1])
    if op is Opcode.C4SWAP16:
        return (a[1], a[0], a[3], a[2])
    if op is Opcode.C4NEGB:
        return (a[0], (-a[1][1], -a[1][0]), a[2], (-a[3][1], -a[3][0]))
    if op in (Opcode.D4PROD, Opcode.C4PROD):
        lanes = []
        for x, y in _PROD_PAIRS[op]:
            corners = [p * q for p in a[x] for q in b[y]]
            lanes.append((min(corners) >> 15, max(corners) >> 15))
        return tuple(lanes)
    rule = _LANE_WISE_RAW.get(op)
    if rule is None:  # xor, max and min stay in int16
        return _FULL
    return tuple(rule(x, y) for x, y in zip(a, b))


def _and_raw(x, y):
    if x == (0, 0) or y == (0, 0):
        return (0, 0)
    if y == (-1, -1):
        return x
    return y if x == (-1, -1) else _I16


def _or_raw(x, y):
    if (-1, -1) in (x, y):
        return (-1, -1)
    return x if y == (0, 0) else (y if x == (0, 0) else _I16)


#: Lane-wise interval rules: add and sub by interval arithmetic, and
#: the exact lanes of a mask (0 or -1) in ``and``/``or``.
_LANE_WISE_RAW = {
    Opcode.C4ADD: lambda x, y: (x[0] + y[0], x[1] + y[1]),
    Opcode.C4SUB: lambda x, y: (x[0] - y[1], x[1] - y[0]),
    Opcode.C4AND: _and_raw,
    Opcode.C4OR: _or_raw,
}

#: The operand lanes each result lane of a q15 product multiplies;
#: C4PROD pairs across: |a1*b2|b1*a2|c1*d2|d1*c2|.
_PROD_PAIRS = {Opcode.D4PROD: ((0, 0), (1, 1), (2, 2), (3, 3)),
               Opcode.C4PROD: ((0, 1), (1, 0), (2, 3), (3, 2))}


def _clamp_of(raw: Tuple[int, int]) -> int:
    """The clamp ends a lane whose value lies in *raw* needs."""
    return (_CLAMP_HI if raw[1] > 32767 else 0) | (_CLAMP_LO if raw[0] < -32768 else 0)


def _lane_result(op: Opcode, raw: tuple) -> tuple:
    """Per lane, the interval of SIMD *op*'s result whose pre-saturation
    intervals are *raw* (:func:`_lane_raw`): a left shift that can wrap
    may leave any value, everything else is clamped to int16."""
    if op is Opcode.C4SHIFTL:
        return tuple(r if not _clamp_of(r) else _I16 for r in raw)
    return tuple((_sat(lo), _sat(hi)) for lo, hi in raw)


def _sat(x: int) -> int:
    """*x* saturated to int16."""
    return 32767 if x > 32767 else (x if x >= -32768 else -32768)


def _lane_reads(op: Opcode, lits) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per result lane of SIMD *op*, the ``(operand, lane)`` pairs its
    value reads, given per operand its literal lanes (a baked mask) or
    ``None``: a lane a mask lane selects (:func:`_fold_lane`) reads
    only the operand it passes through, or nothing.  A shift reads its
    amount through lane 0 of operand 1 for every lane."""
    if op in _LANE_SHIFTS:
        return tuple(((0, k), (1, 0)) for k in range(4))
    if op is Opcode.C4SWAP32:
        return (((0, 2),), ((0, 3),), ((0, 0),), ((0, 1),))
    if op is Opcode.C4SWAP16:
        return (((0, 1),), ((0, 0),), ((0, 3),), ((0, 2),))
    if op is Opcode.C4NEGB:
        return tuple(((0, k),) for k in range(4))
    if op in _PROD_PAIRS:
        return tuple(((0, x), (1, y)) for x, y in _PROD_PAIRS[op])
    reads = []
    for k in range(4):
        x = lits[0][k] if lits[0] is not None else "a"
        y = lits[1][k] if lits[1] is not None else "b"
        folded = _fold_lane(op, x, y) if op in _LANE_INFIX else None
        if folded is None:
            reads.append(((0, k), (1, k)))
        else:
            reads.append(tuple((i, k) for i, v in ((0, "a"), (1, "b")) if folded == v))
    return tuple(reads)


def _fold_lane(op: Opcode, x: str, y: str) -> Optional[str]:
    """The atom lane-select *op* of the lanes *x* and *y* equals when one
    of them is a literal 0 or -1 (a mask lane), else ``None``.  Every
    lane is a signed 16-bit value, so a lane passed through needs no
    clamp: adding or subtracting 0 cannot saturate."""
    if op is Opcode.C4AND:
        if x == "0" or y == "0":
            return "0"
        return x if y == "(-1)" else (y if x == "(-1)" else None)
    if op is Opcode.C4OR and "(-1)" in (x, y):
        return "(-1)"
    if y == "0" and op in (Opcode.C4OR, Opcode.C4XOR, Opcode.C4ADD, Opcode.C4SUB):
        return x
    if x == "0" and op in (Opcode.C4OR, Opcode.C4XOR, Opcode.C4ADD):
        return y
    return None


def _lane_template(lines: List[str], ind: str, op: Opcode, a, b,
                   word_bits: int, raw=None) -> List[Tuple[str, int]]:
    """Emit the statements of SIMD *op*'s template and return, per result
    lane (lane 0 first), an expression and the clamp its value still
    needs: the one lane template set of both generators.

    *a* is four lane expressions, or a lane-tuple expression (unpacked
    into ``a0``..``a3``); *b* is the same for the lane-wise ops, an int
    expression for the shifts (only its low 4 bits count; a literal is
    folded in) and ``None`` for the unary ops.  A swizzle's lanes are
    *a*'s own expressions, and so is every lane a mask lane selects
    (:func:`_fold_lane`).  On sign-extended lanes ``&``, ``|``, ``^`` and
    the arithmetic right shift stay in range, so only the left shift
    wraps and only add, sub, negate and the q15 products saturate; *raw*
    (:func:`_lane_raw`, default: any operand lanes) says which lanes
    can, and only those clamp, wrap or test for -32768."""
    _require_lane_words(op, word_bits)
    w = lines.append
    if isinstance(a, str):
        w(ind + "a0, a1, a2, a3 = %s" % a)
        a = ("a0", "a1", "a2", "a3")
    if op in _LANE_SHIFTS:
        amount = _literal_value(b)
        if amount is None:
            w(ind + "sh = (%s) & 15" % b)
            sh = "sh"
        else:
            amount &= 15
            sh = str(amount)
        if raw is None:
            raw = _lane_raw(op, _FULL, amount=amount)
        if amount == 0:
            return [(x, _CLAMP_NONE) for x in a]
        if op is Opcode.C4SHIFTR:
            return [("%s >> %s" % (x, sh), _CLAMP_NONE) for x in a]
        return [("%s << %s" % (x, sh) if not _clamp_of(r) else
                 "(((%s << %s) + 32768) & 65535) - 32768" % (x, sh), _CLAMP_NONE)
                for x, r in zip(a, raw)]
    if op is Opcode.C4SWAP32:
        return [(a[2], _CLAMP_NONE), (a[3], _CLAMP_NONE), (a[0], _CLAMP_NONE),
                (a[1], _CLAMP_NONE)]
    if op is Opcode.C4SWAP16:
        return [(a[1], _CLAMP_NONE), (a[0], _CLAMP_NONE), (a[3], _CLAMP_NONE),
                (a[2], _CLAMP_NONE)]
    if op is Opcode.C4NEGB:
        if raw is None:
            raw = _lane_raw(op, _FULL)
        return [(x if k % 2 == 0 else ("32767 if %s == -32768 else -%s" % (x, x)
                                        if _clamp_of(raw[k]) else "-%s" % x), _CLAMP_NONE)
                for k, x in enumerate(a)]
    if isinstance(b, str):
        w(ind + "b0, b1, b2, b3 = %s" % b)
        b = ("b0", "b1", "b2", "b3")
    if raw is None:
        raw = _lane_raw(op, _FULL, _FULL)
    if op in _LANE_INFIX:
        sign = _LANE_INFIX[op]
        lanes = []
        for x, y, r in zip(a, b, raw):
            folded = _fold_lane(op, x, y)
            lanes.append(("%s %s %s" % (x, sign, y), _clamp_of(r)) if folded is None
                         else (folded, _CLAMP_NONE))
        return lanes
    if op is Opcode.C4MAX:
        return [("%s if %s > %s else %s" % (a[i], a[i], b[i], b[i]), _CLAMP_NONE)
                for i in range(4)]
    if op is Opcode.C4MIN:
        return [("%s if %s < %s else %s" % (a[i], a[i], b[i], b[i]), _CLAMP_NONE)
                for i in range(4)]
    if op in _PROD_PAIRS:
        return [("(%s * %s) >> 15" % (a[x], b[y]), _clamp_of(r))
                for (x, y), r in zip(_PROD_PAIRS[op], raw)]
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
    """Saturate the lane held in *name* in place at the ends *clamp*
    names."""
    if clamp & _CLAMP_HI:
        lines.append(ind + "if %s > 32767:" % name)
        lines.append(ind + "    %s = 32767" % name)
    if clamp & _CLAMP_LO:
        lines.append(ind + "%s %s < -32768:" % ("elif" if clamp & _CLAMP_HI else "if", name))
        lines.append(ind + "    %s = -32768" % name)
