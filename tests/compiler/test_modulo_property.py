"""Differential property test: random DFGs, interpreter vs compiled array.

For randomly generated loop bodies, the value computed by a direct
Python interpretation of the DFG (using the shared ISA semantics) must
equal the value produced by modulo-scheduling the DFG onto the 4x4
array and executing it on the cycle-accurate simulator.  This covers the
scheduler's placement/routing legality, phi initialisation, stage
gating, latch lifetimes, local-RF holds and move insertion in one
property; a seeded sweep checks that the local-RF routes are exercised.
"""

import random
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_core
from repro.compiler import KernelBuilder
from repro.compiler.dfg import Const, Dfg, NodeRef
from repro.compiler.linker import ProgramLinker
from repro.isa import Opcode
from repro.isa.bits import MASK64
from repro.isa.semantics import execute as exec_semantics
from repro.sim import CgaKernel, Core
from repro.sim.program import DstKind

#: Dataflow opcodes the generator may pick (2-source, no memory).
OP_POOL = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.XOR,
    Opcode.AND,
    Opcode.OR,
    Opcode.MUL,
    Opcode.C4ADD,
    Opcode.C4SUB,
    Opcode.D4PROD,
    Opcode.C4PROD,
    Opcode.C4MAX,
    Opcode.C4MIN,
]


def interpret(dfg: Dfg, trip: int) -> int:
    """Reference interpreter: returns the final live-out value."""
    prev: Dict[int, int] = {}
    live_out_value = 0
    for _iteration in range(trip):
        current: Dict[int, int] = {}
        for nid in sorted(dfg.nodes):
            node = dfg.nodes[nid]
            srcs = []
            for ref in node.srcs:
                if isinstance(ref, Const):
                    srcs.append(ref.value & MASK64)
                elif isinstance(ref, NodeRef):
                    if ref.distance == 0:
                        srcs.append(current[ref.node_id])
                    else:
                        srcs.append(prev.get(ref.node_id, ref.init & MASK64)
                                    if ref.node_id in prev
                                    else ref.init & MASK64)
                else:  # pragma: no cover
                    raise AssertionError("unexpected operand")
            current[nid] = exec_semantics(node.opcode, srcs)
            if node.live_out is not None:
                live_out_value = current[nid]
        prev = current
    return live_out_value


def build_body(rng: random.Random):
    """A random loop body: a DAG of arithmetic ops + one accumulator.

    Up to 24 ops, so many bodies need II >= 2 on the 16-unit array; there
    a value read a cycle or more after its commit by an op on the same
    unit (an accumulator reading itself, or an operand reused later)
    waits in that unit's local RF."""
    kb = KernelBuilder("prop")
    n_ops = rng.randint(1, 24)
    refs: List = []
    for _ in range(n_ops):
        op = rng.choice(OP_POOL)
        def operand():
            if refs and rng.random() < 0.5:
                return rng.choice(refs)
            return Const(rng.randint(0, MASK64))
        refs.append(kb.op(op, operand(), operand()))
    acc_op = rng.choice([Opcode.ADD, Opcode.XOR, Opcode.C4ADD])
    init = rng.randint(0, MASK64)
    kb.accumulate(acc_op, refs[-1], init=init, live_out="out")
    # Mark any dangling roots as consumed via a cheap combine so the
    # DFG has no dead code.
    used = set()
    for node in kb.dfg.nodes.values():
        for ref in node.srcs:
            if isinstance(ref, NodeRef):
                used.add(ref.node_id)
    for ref in refs[:-1]:
        if ref.node_id not in used:
            kb.dfg.nodes[ref.node_id].live_out = None
            # fold into the accumulator chain through an xor with 0 use
            kb.accumulate(Opcode.XOR, ref, init=0, live_out=None)
    # accumulators without live-out would be dead; give them names.
    names = 0
    for node in kb.dfg.nodes.values():
        if not node.has_side_effect and not kb.dfg.consumers(node.node_id):
            node.live_out = "aux%d" % names
            kb.dfg.live_outs.append(node.live_out)
            names += 1
    trip = rng.randint(1, 6)
    return kb.finish(), trip


def run_body(dfg: Dfg, trip: int) -> CgaKernel:
    """Schedule, link and run *dfg*; assert the live-out matches the
    interpreter and return the scheduled kernel."""
    expected = interpret(dfg, trip)
    arch = paper_core()
    linker = ProgramLinker(arch, seed=1)
    outs = linker.call_kernel(dfg, live_ins={}, trip_count=trip)
    program = linker.link()
    core = Core(arch, program)
    core.run()
    assert core.cdrf.peek(outs["out"].index) == expected
    return program.kernels[0]


def routes_through_lrf(kernel: CgaKernel) -> bool:
    return any(
        dst.kind is DstKind.LRF
        for context in kernel.contexts
        for op in context.ops.values()
        for dst in op.dsts
    )


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_compiled_kernel_matches_interpreter(rng):
    run_body(*build_body(rng))


#: Bodies of the seeded sweep below; at least this share of them must
#: route a value through a local RF (28 of 40 do).
SEEDED_BODIES = 40
MIN_LRF_SHARE = 0.5


def test_seeded_bodies_exercise_local_rf_routing():
    """The property over a fixed sweep that is known to reach the
    local-RF routes: every body matches the interpreter, and at least
    half of them hold a value in a local RF."""
    routed = sum(
        routes_through_lrf(run_body(*build_body(random.Random(seed))))
        for seed in range(SEEDED_BODIES)
    )
    assert routed >= MIN_LRF_SHARE * SEEDED_BODIES, routed
