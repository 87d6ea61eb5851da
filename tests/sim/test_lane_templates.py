"""The generated code's SIMD lane templates against the ISA semantics.

Each ``_emit_simd`` template that splits, shifts or packs 16-bit lanes
is compiled into a two-argument function and compared with
:func:`repro.isa.semantics.handler_for` — the lifted per-lane reference
forms — over every shift amount (and shift immediates with high bits
set), an edge grid of lane values, and arbitrary 64-bit words.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Opcode
from repro.isa.semantics import handler_for
from repro.sim import codegen

SHIFTS = (Opcode.C4SHIFTR, Opcode.C4SHIFTL)
LANE_WISE = (Opcode.D4PROD, Opcode.C4PROD, Opcode.C4MAX, Opcode.C4MIN)

#: Lane values at the sign and saturation edges.
EDGE_LANES = (0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF)


def _word(lanes):
    return sum(lane << (16 * i) for i, lane in enumerate(lanes))


#: Every word whose four lanes are edge values (6**4 of them).
EDGE_WORDS = [_word(lanes) for lanes in itertools.product(EDGE_LANES, repeat=4)]
#: A subsample that still puts every edge value in every lane.
EDGE_SAMPLE = EDGE_WORDS[::31]
assert all(
    {(w >> (16 * i)) & 0xFFFF for w in EDGE_SAMPLE} == set(EDGE_LANES) for i in range(4)
)

#: Shift operands: the amount lives in the low 4 bits; the rest is ignored.
SHIFT_OPERANDS = [
    high | sh
    for sh in range(16)
    for high in (0, 0x10, 0xFFF0, 1 << 63, (1 << 64) - 16)
]


def compile_template(op):
    """``_emit_simd``'s template for *op* as a function ``f(a, b)``."""
    lines = []
    codegen._emit_simd(lines, "    ", op, "r", "a", "b", 64)
    source = "def f(a, b):\n" + "\n".join(lines) + "\n    return r\n"
    ns = codegen._base_namespace()
    exec(compile(source, "<lane template %s>" % op.value, "exec"), ns)
    return ns["f"]


TEMPLATES = {op: compile_template(op) for op in SHIFTS + LANE_WISE}


def assert_matches(op, pairs):
    fn, ref = TEMPLATES[op], handler_for(op)
    for a, b in pairs:
        assert fn(a, b) == ref(a, b), "%s(%#x, %#x)" % (op.value, a, b)


@pytest.mark.parametrize("op", SHIFTS, ids=lambda op: op.value)
def test_shift_every_amount(op):
    assert_matches(op, itertools.product(EDGE_WORDS, SHIFT_OPERANDS))


@pytest.mark.parametrize("op", LANE_WISE, ids=lambda op: op.value)
def test_lane_wise_edge_grid(op):
    pairs = itertools.chain(itertools.product(EDGE_WORDS, EDGE_SAMPLE),
                            itertools.product(EDGE_SAMPLE, EDGE_WORDS))
    assert_matches(op, pairs)


_U64 = st.integers(0, (1 << 64) - 1)


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(SHIFTS + LANE_WISE), a=_U64, b=_U64)
def test_arbitrary_words(op, a, b):
    assert_matches(op, [(a, b)])


@pytest.mark.parametrize("op", LANE_WISE, ids=lambda op: op.value)
def test_unpacking_templates_refuse_wide_operands(op):
    """The packed unpack takes 64-bit words, so an architecture whose
    registers are wider is refused (it runs on the reference loop)."""
    with pytest.raises(codegen.CodegenUnsupported):
        codegen._emit_simd([], "", op, "r", "a", "b", 128)
