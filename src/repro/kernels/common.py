"""Shared kernel-authoring helpers: packed complex math, buffer I/O.

Buffer convention
-----------------
A complex sample is one 32-bit little-endian word: ``re`` in bits 0-15,
``im`` in bits 16-31 — so a 64-bit SIMD load (``ld_q``) fetches two
consecutive samples as the ``|re0|im0|re1|im1|`` lane layout the Table 1
SIMD multiplies expect.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.compiler.builder import KernelBuilder, VliwBuilder
from repro.compiler.dfg import NodeRef
from repro.isa.opcodes import Opcode
from repro.sim.memory import Scratchpad

#: Lane masks for packed complex math.
MASK_EVEN = 0x0000_FFFF_0000_FFFF  # keeps re lanes
MASK_ODD = 0xFFFF_0000_FFFF_0000  # keeps im lanes
MASK_PAIR0 = 0x0000_0000_FFFF_FFFF  # keeps the first complex sample
MASK_PAIR1 = 0xFFFF_FFFF_0000_0000  # keeps the second complex sample


def load_adc_antenna0(kb: KernelBuilder, addr, offset: int = 0) -> NodeRef:
    """Packed (a0[k], a0[k+1]) straight from the ADC stream.

    The stream holds one 64-bit (a0[k], a1[k]) pair per sample index;
    *addr* + 4*offset is the byte address of pair k.  A 32-bit load
    fetches a pair's antenna-0 half with the upper word cleared, so
    moving the second sample up takes one swap and one OR — the lanes
    match a 64-bit load of a deinterleaved antenna-0 buffer.
    """
    first = kb.load(Opcode.LD_I, addr, offset=offset)
    second = kb.load(Opcode.LD_I, addr, offset=offset + 2)
    return kb.op(Opcode.C4OR, first, kb.c4swap32(second))


def cmul_packed(kb: KernelBuilder, a, b) -> NodeRef:
    """Packed complex multiply (two samples at once); see builder.cmul."""
    return kb.cmul(a, b)


def cmul_conj_packed(kb: KernelBuilder, a, b) -> NodeRef:
    """Packed complex multiply ``a * conj(b)``."""
    return kb.cmul(a, kb.c4negb(b))


# ----------------------------------------------------------------------
# Host-side buffer helpers (test setup and golden extraction).
# ----------------------------------------------------------------------


def store_complex_array(
    pad: Scratchpad, addr: int, re: Sequence[int], im: Sequence[int]
) -> int:
    """Write int16 (re, im) arrays as packed complex words; returns bytes used."""
    re = np.asarray(re, dtype=np.int16)
    im = np.asarray(im, dtype=np.int16)
    if len(re) != len(im):
        raise ValueError("re/im length mismatch")
    for k in range(len(re)):
        word = (int(np.uint16(re[k]))) | (int(np.uint16(im[k])) << 16)
        pad.write_word(addr + 4 * k, word, 4)
    return 4 * len(re)


def load_complex_array(
    pad: Scratchpad, addr: int, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Read *count* packed complex samples back as int16 arrays."""
    from repro.isa.bits import to_signed

    re = np.zeros(count, dtype=np.int16)
    im = np.zeros(count, dtype=np.int16)
    for k in range(count):
        word = pad.read_word(addr + 4 * k, 4)
        re[k] = to_signed(word & 0xFFFF, 16)
        im[k] = to_signed((word >> 16) & 0xFFFF, 16)
    return re, im


def pack_complex_word(re: int, im: int) -> int:
    """One packed complex sample as a 32-bit word."""
    return (int(np.uint16(np.int16(re)))) | (int(np.uint16(np.int16(im))) << 16)


def pack_complex_words(re, im) -> np.ndarray:
    """Vectorised :func:`pack_complex_word`: int16 arrays -> uint32 words."""
    r = np.asarray(re).astype(np.int16).view(np.uint16).astype(np.uint32)
    i = np.asarray(im).astype(np.int16).view(np.uint16).astype(np.uint32)
    return r | (i << np.uint32(16))


def materialize_pair64(
    vb: VliwBuilder, value_reg, scratch_addr: int, duplicate_reg=None
) -> "object":
    """Build a 64-bit packed value in a register via the stack trick.

    VLIW stores are 32-bit, so a 64-bit SIMD constant or a computed
    32-bit pattern is replicated into both halves by storing it twice to
    a scratch slot and loading it back with ``ld_q`` — exactly how the
    paper's C code gets scalars into SIMD registers.

    *value_reg* is stored to both words; pass *duplicate_reg* to place a
    different value in the upper half.  Returns the virtual register
    holding the 64-bit pattern.
    """
    base = vb.mov_imm(scratch_addr)
    vb.store(Opcode.ST_I, base, 0, value_reg)
    vb.store(Opcode.ST_I, base, 1, duplicate_reg if duplicate_reg is not None else value_reg)
    return vb.load(Opcode.LD_Q, base, 0)
