"""The generated code's SIMD lane templates against the ISA semantics.

Every ``_emit_lanes`` template is compiled into a two-argument function
that converts its raw 64-bit operands to lane tuples (the shift amount
stays an int), runs the template and converts the result back — the
int <-> lanes conversions the generators emit at every form boundary.
Each is compared with :func:`repro.isa.semantics.handler_for`, the
lifted per-lane reference forms, over every shift amount (and shift
immediates with high bits set), an edge grid of lane values, and
arbitrary 64-bit words.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Opcode, OpGroup, group_of
from repro.isa.semantics import UNARY_SIMD, handler_for
from repro.sim.codegen import templates as codegen

SIMD_OPS = tuple(op for op in Opcode if group_of(op) in (OpGroup.SIMD1, OpGroup.SIMD2))
SHIFTS = (Opcode.C4SHIFTR, Opcode.C4SHIFTL)
UNARY = tuple(op for op in SIMD_OPS if op in UNARY_SIMD)
LANE_WISE = tuple(op for op in SIMD_OPS if op not in SHIFTS + UNARY)

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


def compile_template(op, shift_as_lanes=False):
    """``_emit_lanes``'s template for *op* between an int -> lanes
    conversion of each operand and a lanes -> int conversion of the
    result, as a function ``f(a, b)`` of raw words.  With
    *shift_as_lanes* a shift amount arrives as lanes and is read through
    ``_low_bits``, as when it comes from a lane-form latch."""
    a = codegen._convert("a", codegen._INT, codegen._LANES)
    if op in UNARY:
        b = None
    elif op in SHIFTS:
        b = "b"
        if shift_as_lanes:
            b = codegen._low_bits("bl", codegen._LANES)
    else:
        b = codegen._convert("b", codegen._INT, codegen._LANES)
    lines = ["    bl = %s" % codegen._convert("b", codegen._INT, codegen._LANES)]
    r = codegen._emit_lanes(lines, "    ", op, a, b, 64)
    source = "def f(a, b):\n%s\n    return %s\n" % (
        "\n".join(lines), codegen._convert(r, codegen._LANES, codegen._INT))
    ns = codegen._base_namespace()
    exec(compile(source, "<lane template %s>" % op.value, "exec"), ns)
    return ns["f"]


TEMPLATES = {op: compile_template(op) for op in SIMD_OPS}
LANE_SHIFT_TEMPLATES = {op: compile_template(op, shift_as_lanes=True) for op in SHIFTS}


def reference(op):
    handler = handler_for(op)
    return (lambda a, b: handler(a)) if op in UNARY else handler


def assert_matches(op, pairs, templates=TEMPLATES):
    fn, ref = templates[op], reference(op)
    for a, b in pairs:
        assert fn(a, b) == ref(a, b), "%s(%#x, %#x)" % (op.value, a, b)


def test_every_simd_op_has_a_template():
    assert len(SIMD_OPS) == 14
    assert set(SIMD_OPS) == set(SHIFTS + UNARY + LANE_WISE)


@pytest.mark.parametrize("op", SHIFTS, ids=lambda op: op.value)
def test_shift_every_amount(op):
    assert_matches(op, itertools.product(EDGE_WORDS, SHIFT_OPERANDS))


@pytest.mark.parametrize("op", SHIFTS, ids=lambda op: op.value)
def test_shift_amount_read_from_lanes(op):
    """A lane-form shift amount counts through lane 0's low bits."""
    shift_words = [_word((lane, 0x8000, 0x7FFF, 0xFFFF)) for lane in SHIFT_OPERANDS
                   if lane <= 0xFFFF]
    assert_matches(op, itertools.product(EDGE_SAMPLE, shift_words),
                   templates=LANE_SHIFT_TEMPLATES)


@pytest.mark.parametrize("op", UNARY, ids=lambda op: op.value)
def test_unary_every_edge_word(op):
    assert_matches(op, ((a, 0) for a in EDGE_WORDS))


@pytest.mark.parametrize("op", LANE_WISE, ids=lambda op: op.value)
def test_lane_wise_edge_grid(op):
    pairs = itertools.chain(itertools.product(EDGE_WORDS, EDGE_SAMPLE),
                            itertools.product(EDGE_SAMPLE, EDGE_WORDS))
    assert_matches(op, pairs)


_U64 = st.integers(0, (1 << 64) - 1)


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(SIMD_OPS), a=_U64, b=_U64)
def test_arbitrary_words(op, a, b):
    assert_matches(op, [(a, b)])


@settings(max_examples=200, deadline=None)
@given(a=_U64)
def test_conversions_round_trip(a):
    """int -> lanes -> int is the identity on 64-bit words, and the
    lanes are the signed 16-bit fields, lane 0 first."""
    ns = codegen._base_namespace()
    to_lanes = codegen._convert("a", codegen._INT, codegen._LANES)
    lanes = eval(to_lanes, ns, {"a": a})
    assert lanes == tuple(((a >> (16 * i)) & 0xFFFF ^ 0x8000) - 0x8000 for i in range(4))
    back = codegen._convert("t", codegen._LANES, codegen._INT)
    assert eval(back, ns, {"t": lanes}) == a
    assert eval(codegen._low_bits("t", codegen._LANES), ns, {"t": lanes}) & 0xFFFF \
        == a & 0xFFFF


@pytest.mark.parametrize("op", SIMD_OPS, ids=lambda op: op.value)
def test_unpacking_templates_refuse_wide_operands(op):
    """A lane tuple holds 64 bits, so an architecture whose registers
    are wider is refused (it runs on the reference loop)."""
    b = None if op in UNARY else "b"
    with pytest.raises(codegen.CodegenUnsupported):
        codegen._emit_lanes([], "", op, "a", b, 128)


def compile_scalar(op):
    """The inline template both generators emit for scalar *op*, as a
    function ``f(a, b)`` of raw words."""
    source = "def f(a, b):\n    return %s\n" % codegen._SCALAR_EXPR[op]("a", "b")
    ns = codegen._base_namespace()
    exec(compile(source, "<scalar template %s>" % op.value, "exec"), ns)
    return ns["f"]


#: 24-bit divider operands: zero, ±1, every sign combination, the most
#: negative dividend, and words with bits set above bit 24 (ignored).
DIV_OPERANDS = (0, 1, 7, 0xFFFFFF, 0xFFFFF9, 0x800000, 0x7FFFFF, 0x1000000,
                0x1000007, 0xFF800000, (1 << 64) - 7, 0xABCDEF123456)
DIV_FNS = {op: compile_scalar(op) for op in (Opcode.DIV, Opcode.DIV_U)}


@pytest.mark.parametrize("op", (Opcode.DIV, Opcode.DIV_U), ids=lambda op: op.value)
def test_divide_templates_match_semantics(op):
    """Truncating 24-bit division inlined (no helper call): a zero
    divisor, all four sign combinations, -2**23 / -1 and operands with
    bits above bit 24, against :func:`repro.isa.semantics.execute`."""
    from repro.isa.semantics import execute

    fn = DIV_FNS[op]
    pairs = list(itertools.product(DIV_OPERANDS, repeat=2))
    pairs += [(0x800000, 0xFFFFFF), (100, 7), (-100 & 0xFFFFFF, 7), (100, -7 & 0xFFFFFF),
              (-100 & 0xFFFFFF, -7 & 0xFFFFFF), (5, 0), (5, 1 << 24)]
    for a, b in pairs:
        assert fn(a, b) == execute(op, [a, b]), "%s(%#x, %#x)" % (op.value, a, b)
    assert "_div" not in codegen._SCALAR_EXPR[op]("a", "b")


@settings(max_examples=300, deadline=None)
@given(a=_U64, b=_U64)
def test_divide_templates_arbitrary_words(a, b):
    from repro.isa.semantics import execute

    for op in (Opcode.DIV, Opcode.DIV_U):
        assert DIV_FNS[op](a, b) == execute(op, [a, b])


def _interval(draw):
    """An int16 interval, often pinned at an end or a single value."""
    ends = st.one_of(st.sampled_from([-32768, -32767, -16384, -1, 0, 1, 16383, 32767]),
                     st.integers(-32768, 32767))
    lo, hi = sorted((draw(ends), draw(ends)))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(SIMD_OPS), data=st.data())
def test_lane_intervals_bound_every_result(op, data):
    """For operands whose lanes lie in given intervals, every result lane
    lies in :func:`_lane_result` of :func:`_lane_raw`, and the template
    built with those intervals, which clamps, wraps or tests for -32768
    only where they say a lane can need it, computes the reference
    result.  A shift's amount is a literal, as when baked."""
    draw = data.draw
    a_iv = tuple(_interval(draw) for _ in range(4))
    b_iv = tuple(_interval(draw) for _ in range(4))
    a = _word([draw(st.integers(lo, hi)) & 0xFFFF for lo, hi in a_iv])
    amount = None
    if op in SHIFTS:
        amount = draw(st.integers(0, 15))
        b = amount
    else:
        b = _word([draw(st.integers(lo, hi)) & 0xFFFF for lo, hi in b_iv])
    raw = codegen._lane_raw(op, a_iv, None if op in SHIFTS + UNARY else b_iv, amount)
    want = reference(op)(a, b)
    lanes = [((want >> (16 * i)) & 0xFFFF ^ 0x8000) - 0x8000 for i in range(4)]
    for lane, (lo, hi) in zip(lanes, codegen._lane_result(op, raw)):
        assert lo <= lane <= hi, (op.value, lanes, raw)
    lines = []
    lane_exprs = codegen._lane_template(
        lines, "    ", op, ("a0", "a1", "a2", "a3"),
        str(amount) if op in SHIFTS else (None if op in UNARY else ("b0", "b1", "b2", "b3")),
        64, raw)
    body = []
    for k, (expr, clamp) in enumerate(lane_exprs):
        body.append("    r%d = %s" % (k, expr))
        codegen._emit_clamp(body, "    ", "r%d" % k, clamp)
    source = ("def f(a, b):\n    a0, a1, a2, a3 = _U4(_P8(a))\n    b0, b1, b2, b3 = _U4(_P8(b))\n"
              + "\n".join(lines + body)
              + "\n    return _fb(_P4(r0, r1, r2, r3), 'little')\n")
    ns = codegen._base_namespace()
    exec(compile(source, "<lane interval template %s>" % op.value, "exec"), ns)
    assert ns["f"](a, b) == want, source
