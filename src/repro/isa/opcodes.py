"""Opcode and instruction-group definitions mirroring Table 1 of the paper.

Every opcode belongs to exactly one *operation group*.  The group carries
the architectural metadata reported in Table 1:

* which functional units implement the group (``fu_range``),
* the operand word width in bits (``width``),
* the execution latency in cycles (``latency``).

The basic groups (arith, logic, shift, comp, pred, mul, branch, ld/st)
operate on the 32 least-significant bits of the 64-bit datapath.  Only
the SIMD groups operate on the full 64 bits, as four 16-bit lanes.  The
two hardwired dividers operate on the 24 LSBs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class OpGroup(enum.Enum):
    """Operation groups of Table 1."""

    ARITH = "arith"
    LOGIC = "logic"
    SHIFT = "shift"
    COMP = "comp"
    PRED = "pred"
    MUL = "mul"
    BRANCH = "branch"
    LDMEM = "ldmem"
    STMEM = "stmem"
    CONTROL = "control"
    SIMD1 = "simd1"
    SIMD2 = "simd2"
    DIV = "div"

    #: Members are singletons (compared by identity, unpickled to the
    #: same object), so the C-level identity hash serves: the
    #: ``op_groups`` Counters hash a group per update, and
    #: ``Enum.__hash__`` is a Python-level call.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class GroupInfo:
    """Architectural metadata of an operation group (one row class of Table 1).

    Attributes
    ----------
    fu_range:
        Inclusive (low, high) range of CGA functional-unit indices that
        implement the group.  ``(0, 15)`` means every FU; ``(0, 0)``
        means only FU 0 (the branch unit); ``(0, 3)`` means the four
        load/store units, etc.
    width:
        Operand word width in bits.
    latency:
        Execution latency in cycles.  A value of 0 is used for pure
        control operations (``cga``, ``halt``) whose timing is defined
        by the core state machine rather than a datapath pipeline.
    """

    fu_range: Tuple[int, int]
    width: int
    latency: int


#: Table 1 metadata.  Load latency is the paper's 5 (the "/7" variant is
#: the L1 bank-conflict case, modelled dynamically by the scratchpad).
GROUP_INFO: Dict[OpGroup, GroupInfo] = {
    OpGroup.ARITH: GroupInfo((0, 15), 32, 1),
    OpGroup.LOGIC: GroupInfo((0, 15), 32, 1),
    OpGroup.SHIFT: GroupInfo((0, 15), 32, 1),
    OpGroup.COMP: GroupInfo((0, 15), 32, 1),
    OpGroup.PRED: GroupInfo((0, 15), 32, 1),
    OpGroup.MUL: GroupInfo((0, 15), 32, 2),
    OpGroup.BRANCH: GroupInfo((0, 0), 32, 2),
    OpGroup.LDMEM: GroupInfo((0, 3), 32, 5),
    OpGroup.STMEM: GroupInfo((0, 3), 32, 1),
    OpGroup.CONTROL: GroupInfo((0, 0), 0, 0),
    OpGroup.SIMD1: GroupInfo((0, 15), 64, 1),
    OpGroup.SIMD2: GroupInfo((0, 15), 64, 3),
    OpGroup.DIV: GroupInfo((0, 1), 24, 8),
}

#: Latency of the PC-relative branch forms (``br``/``brl``), which is one
#: cycle longer than the absolute forms per Table 1.
RELATIVE_BRANCH_LATENCY = 3

#: Longest execution latency any opcode can have (the divider's 8
#: cycles).  An in-flight result is therefore visible at most this many
#: cycles after issue; the engines use it to bound drain loops and size
#: commit rings.
MAX_OP_LATENCY = max(
    max(info.latency for info in GROUP_INFO.values()),
    RELATIVE_BRANCH_LATENCY,
)


class Opcode(enum.Enum):
    """Every instruction of Table 1.

    The enum value is the assembly mnemonic.
    """

    # Arith
    ADD = "add"
    ADD_U = "add_u"
    SUB = "sub"
    SUB_U = "sub_u"
    # Logic
    OR = "or"
    NOR = "nor"
    AND = "and"
    NAND = "nand"
    XOR = "xor"
    XNOR = "xnor"
    # Shift
    LSL = "lsl"
    LSR = "lsr"
    ASR = "asr"
    # Comp (results are 0/1 written to a data register)
    EQ = "eq"
    NE = "ne"
    GT = "gt"
    GT_U = "gt_u"
    LT = "lt"
    LT_U = "lt_u"
    GE = "ge"
    GE_U = "ge_u"
    LE = "le"
    LE_U = "le_u"
    # Pred (results written to the 1-bit predicate register file)
    PRED_CLEAR = "pred_clear"
    PRED_SET = "pred_set"
    PRED_EQ = "pred_eq"
    PRED_NE = "pred_ne"
    PRED_LT = "pred_lt"
    PRED_LT_U = "pred_lt_u"
    PRED_LE = "pred_le"
    PRED_LE_U = "pred_le_u"
    PRED_GT = "pred_gt"
    PRED_GT_U = "pred_gt_u"
    PRED_GE = "pred_ge"
    PRED_GE_U = "pred_ge_u"
    # Mul
    MUL = "mul"
    MUL_U = "mul_u"
    # Branch
    JMP = "jmp"
    JMPL = "jmpl"
    BR = "br"
    BRL = "brl"
    # Loads
    LD_UC = "ld_uc"
    LD_C = "ld_c"
    LD_UC2 = "ld_uc2"
    LD_C2 = "ld_c2"
    LD_I = "ld_i"
    #: 64-bit load: Table 1 notes that 64-bit register contents are
    #: loaded with *two* 32-bit instructions; ``ld_q`` models that pair
    #: as one scheduler operation touching two (adjacent, hence
    #: conflict-free under word interleaving) L1 banks.  It counts as
    #: two operations in IPC accounting.
    LD_Q = "ld_q"
    # Stores
    ST_C = "st_c"
    ST_C2 = "st_c2"
    ST_I = "st_i"
    #: 64-bit store; dual of ``ld_q``.
    ST_Q = "st_q"
    # Control
    CGA = "cga"
    HALT = "halt"
    NOP = "nop"
    # SIMD1: single-cycle 4x16 lane ops.  Table 1 explicitly details only
    # "some of the instructions comprised"; the swap/min/max/negate forms
    # below complete the group as the baseband kernels require.
    C4ADD = "c4add"
    C4SUB = "c4sub"
    C4AND = "c4and"
    C4SHIFTL = "c4shiftl"
    C4SHIFTR = "c4shiftr"
    C4SWAP32 = "c4swap32"
    C4SWAP16 = "c4swap16"
    C4MAX = "c4max"
    C4MIN = "c4min"
    C4NEGB = "c4negb"
    C4OR = "c4or"
    C4XOR = "c4xor"
    # SIMD2: 3-cycle 4x16 lane multiplies (direct and cross forms)
    D4PROD = "d4prod"
    C4PROD = "c4prod"
    # Div
    DIV = "div"
    DIV_U = "div_u"


_GROUP_OF: Dict[Opcode, OpGroup] = {}


def _assign(group: OpGroup, *ops: Opcode) -> None:
    for op in ops:
        _GROUP_OF[op] = group


_assign(OpGroup.ARITH, Opcode.ADD, Opcode.ADD_U, Opcode.SUB, Opcode.SUB_U)
_assign(
    OpGroup.LOGIC,
    Opcode.OR,
    Opcode.NOR,
    Opcode.AND,
    Opcode.NAND,
    Opcode.XOR,
    Opcode.XNOR,
)
_assign(OpGroup.SHIFT, Opcode.LSL, Opcode.LSR, Opcode.ASR)
_assign(
    OpGroup.COMP,
    Opcode.EQ,
    Opcode.NE,
    Opcode.GT,
    Opcode.GT_U,
    Opcode.LT,
    Opcode.LT_U,
    Opcode.GE,
    Opcode.GE_U,
    Opcode.LE,
    Opcode.LE_U,
)
_assign(
    OpGroup.PRED,
    Opcode.PRED_CLEAR,
    Opcode.PRED_SET,
    Opcode.PRED_EQ,
    Opcode.PRED_NE,
    Opcode.PRED_LT,
    Opcode.PRED_LT_U,
    Opcode.PRED_LE,
    Opcode.PRED_LE_U,
    Opcode.PRED_GT,
    Opcode.PRED_GT_U,
    Opcode.PRED_GE,
    Opcode.PRED_GE_U,
)
_assign(OpGroup.MUL, Opcode.MUL, Opcode.MUL_U)
_assign(OpGroup.BRANCH, Opcode.JMP, Opcode.JMPL, Opcode.BR, Opcode.BRL)
_assign(
    OpGroup.LDMEM,
    Opcode.LD_UC,
    Opcode.LD_C,
    Opcode.LD_UC2,
    Opcode.LD_C2,
    Opcode.LD_I,
    Opcode.LD_Q,
)
_assign(OpGroup.STMEM, Opcode.ST_C, Opcode.ST_C2, Opcode.ST_I, Opcode.ST_Q)
_assign(OpGroup.CONTROL, Opcode.CGA, Opcode.HALT, Opcode.NOP)
_assign(
    OpGroup.SIMD1,
    Opcode.C4ADD,
    Opcode.C4SUB,
    Opcode.C4AND,
    Opcode.C4SHIFTL,
    Opcode.C4SHIFTR,
    Opcode.C4SWAP32,
    Opcode.C4SWAP16,
    Opcode.C4MAX,
    Opcode.C4MIN,
    Opcode.C4NEGB,
    Opcode.C4OR,
    Opcode.C4XOR,
)
_assign(OpGroup.SIMD2, Opcode.D4PROD, Opcode.C4PROD)
_assign(OpGroup.DIV, Opcode.DIV, Opcode.DIV_U)

# Every opcode must be classified.
_missing = [op for op in Opcode if op not in _GROUP_OF]
if _missing:  # pragma: no cover - guards against edits to the enum
    raise RuntimeError("opcodes without a group: %r" % _missing)


def group_of(op: Opcode) -> OpGroup:
    """Return the Table 1 operation group of *op*."""
    return _GROUP_OF[op]


def latency_of(op: Opcode) -> int:
    """Return the execution latency of *op* in cycles.

    The PC-relative branches (``br``/``brl``) take one cycle more than
    the absolute forms, as in Table 1 (2 vs 3 cycles).
    """
    if op in (Opcode.BR, Opcode.BRL):
        return RELATIVE_BRANCH_LATENCY
    return GROUP_INFO[_GROUP_OF[op]].latency


def ops_in_group(group: OpGroup) -> Tuple[Opcode, ...]:
    """Return all opcodes belonging to *group*, in enum order."""
    return tuple(op for op in Opcode if _GROUP_OF[op] is group)


#: Operations that model the paper's "two 32-bit instructions per 64-bit
#: access" as one scheduler operation; they count double in IPC terms.
DUAL_ISSUE_OPS = frozenset({Opcode.LD_Q, Opcode.ST_Q})


def op_weight(op: Opcode) -> int:
    """Number of architectural instructions one executed *op* represents."""
    return 2 if op in DUAL_ISSUE_OPS else 1


def is_commutative(op: Opcode) -> bool:
    """True when src1/src2 may be swapped without changing the result."""
    return op in (
        Opcode.ADD,
        Opcode.ADD_U,
        Opcode.OR,
        Opcode.NOR,
        Opcode.AND,
        Opcode.NAND,
        Opcode.XOR,
        Opcode.XNOR,
        Opcode.EQ,
        Opcode.NE,
        Opcode.PRED_EQ,
        Opcode.PRED_NE,
        Opcode.MUL,
        Opcode.MUL_U,
        Opcode.C4ADD,
        Opcode.C4AND,
        Opcode.D4PROD,
    )


def writes_predicate(op: Opcode) -> bool:
    """True when the destination is a predicate register (1-bit)."""
    return group_of(op) is OpGroup.PRED


def is_memory(op: Opcode) -> bool:
    """True for loads and stores."""
    return group_of(op) in (OpGroup.LDMEM, OpGroup.STMEM)


def is_load(op: Opcode) -> bool:
    """True for load instructions."""
    return group_of(op) is OpGroup.LDMEM


def is_store(op: Opcode) -> bool:
    """True for store instructions."""
    return group_of(op) is OpGroup.STMEM


def is_branch(op: Opcode) -> bool:
    """True for control-transfer instructions."""
    return group_of(op) is OpGroup.BRANCH
