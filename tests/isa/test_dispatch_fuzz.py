"""Fuzz the dispatch-table handlers against the if-chain reference.

Generated code binds one handler per opcode via
:func:`repro.isa.semantics.handler_for` (O(1) dict dispatch).  The
original :func:`repro.isa.semantics.execute` if-chain is kept as the
reference semantics.  This module hammers every dataflow opcode with
seeded randomized 64-bit operand patterns plus the classic boundary
patterns and requires bit-identical results from both paths.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import Opcode, execute
from repro.isa.bits import MASK24, MASK32, MASK64
from repro.isa.opcodes import OpGroup, group_of
from repro.isa.semantics import (
    DATAFLOW_GROUPS,
    ExecutionError,
    handler_for,
    operand_count,
)

DATAFLOW_OPCODES = sorted(
    (op for op in Opcode if group_of(op) in DATAFLOW_GROUPS),
    key=lambda op: op.value,
)

MACHINE_STATE_OPCODES = sorted(
    (op for op in Opcode if group_of(op) not in DATAFLOW_GROUPS),
    key=lambda op: op.value,
)

#: Boundary patterns every opcode must agree on (sign bits, lane edges,
#: shift-amount wrap, divide-by-zero, saturation extremes).
EDGE_PATTERNS = [
    0,
    1,
    2,
    31,
    32,
    33,
    0x7FFF,
    0x8000,
    0xFFFF,
    0x7FFF_FFFF,
    0x8000_0000,
    MASK24,
    MASK32,
    0x8000_8000_8000_8000,
    0x7FFF_7FFF_7FFF_7FFF,
    0x0001_0002_0003_0004,
    MASK64,
]

RANDOM_DRAWS_PER_OPCODE = 200


def _operands(op, a, b):
    return (a, b)[: operand_count(op)]


@pytest.mark.parametrize("op", DATAFLOW_OPCODES, ids=lambda op: op.value)
def test_handler_matches_reference_fuzzed(op):
    """Seeded 64-bit fuzz: handler_for(op)(*srcs) == execute(op, srcs)."""
    handler = handler_for(op)
    rng = random.Random("dispatch-fuzz:%s" % op.value)
    pairs = [(a, b) for a in EDGE_PATTERNS for b in EDGE_PATTERNS[:8]]
    pairs += [
        (rng.getrandbits(64), rng.getrandbits(64))
        for _ in range(RANDOM_DRAWS_PER_OPCODE)
    ]
    for a, b in pairs:
        srcs = _operands(op, a, b)
        assert handler(*srcs) == execute(op, list(srcs)), (
            "%s diverges on a=%#x b=%#x" % (op.value, a, b)
        )


@given(
    op=st.sampled_from(DATAFLOW_OPCODES),
    a=st.integers(min_value=0, max_value=MASK64),
    b=st.integers(min_value=0, max_value=MASK64),
)
def test_handler_matches_reference_hypothesis(op, a, b):
    srcs = _operands(op, a, b)
    assert handler_for(op)(*srcs) == execute(op, list(srcs))


@pytest.mark.parametrize("op", MACHINE_STATE_OPCODES, ids=lambda op: op.value)
def test_machine_state_opcodes_have_no_handler(op):
    """Memory/branch/control semantics stay in the simulator engines."""
    with pytest.raises(ExecutionError):
        handler_for(op)
    with pytest.raises(ExecutionError):
        execute(op, [0, 0])


def test_every_dataflow_opcode_is_dispatchable():
    """The dispatch tables cover the full dataflow ISA, no gaps."""
    for op in DATAFLOW_OPCODES:
        handler = handler_for(op)
        n = operand_count(op)
        assert callable(handler)
        assert handler(*([1] * n)) == execute(op, [1] * max(n, 1) if n else [])


def test_operand_count_matches_reference_arity():
    for op in DATAFLOW_OPCODES:
        n = operand_count(op)
        if n == 0:
            assert op in (Opcode.PRED_CLEAR, Opcode.PRED_SET)
        elif n == 1:
            assert group_of(op) in (OpGroup.SIMD1, OpGroup.SIMD2)
        else:
            assert n == 2
