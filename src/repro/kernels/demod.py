"""The ``demod QAM64`` kernel: hard-decision Gray demapping on the array.

Each lane of a packed word is one PAM-8 axis (I0, Q0, I1, Q1), so one
iteration demaps two complex symbols entirely with lane arithmetic:

    level = clamp(round((x * sqrt(42) + 7) / 2), 0, 7)
    gray  = level ^ (level >> 1)

using the identity that the 802.11 Gray code of level *i* is
``i ^ (i >> 1)``.  The output word carries the four 3-bit Gray labels in
its four lanes; the surrounding code (or host) packs label lanes into
the bit stream.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.builder import KernelBuilder
from repro.compiler.dfg import Const, Dfg
from repro.isa.opcodes import Opcode

#: 2*sqrt(42) in Q10.  Symbols arrive *half-normalised* (the unit-energy
#: constellation divided by 2, so the +-7/sqrt(42) = +-1.08 corners fit
#: inside Q15 with headroom); this converts them to Q10 PAM levels.
QAM64_SCALE_Q10 = int(round(2.0 * np.sqrt(42.0) * (1 << 10)))
#: +7 offset in Q10 plus the half-step that turns the final floor-shift
#: into round-half-up.
_OFFSET = 7 * (1 << 10) + (1 << 9)


def build_demod_dfg(name: str = "demod_qam64") -> Dfg:
    """Demap two QAM-64 symbols per iteration.

    Live-ins: ``src`` (equalised Q15 carriers), ``dst`` (label words:
    lanes |gi0|gq0|gi1|gq1|, 3 bits each).
    """
    kb = KernelBuilder(name)
    src = kb.live_in("src")
    dst = kb.live_in("dst")
    i_src = kb.induction(0, 8)
    i_dst = kb.induction(0, 8)
    x = kb.load(Opcode.LD_Q, kb.add(src, i_src))
    scale = QAM64_SCALE_Q10
    scale_word = scale | (scale << 16) | (scale << 32) | (scale << 48)
    off_word = _OFFSET | (_OFFSET << 16) | (_OFFSET << 32) | (_OFFSET << 48)
    seven = 7 | (7 << 16) | (7 << 32) | (7 << 48)
    scaled = kb.d4prod(x, Const(scale_word))  # Q10 PAM amplitudes
    shifted = kb.c4add(scaled, Const(off_word))
    level = kb.c4shiftr(shifted, 11)  # (a + 7)/2 rounded
    level = kb.op(Opcode.C4MAX, level, Const(0))
    level = kb.op(Opcode.C4MIN, level, Const(seven))
    gray = kb.op(Opcode.C4XOR, level, kb.c4shiftr(level, 1))
    kb.store(Opcode.ST_Q, kb.add(dst, i_dst), gray)
    return kb.finish()


def labels_to_bits(label_words, n_qam: int) -> np.ndarray:
    """Golden unpacking: the first *n_qam* QAM labels of *label_words*
    -> the modulator's bit order.

    Lane layout per word: |gi0|gq0|gi1|gq1|.  The modulator's bit order
    per symbol is (i2 i1 i0 q2 q1 q0) MSB-first.
    """
    from repro.isa.bits import split_lanes

    bits = []
    count = 0
    for word in label_words:
        lanes = split_lanes(word)
        for s in range(2):
            if count >= n_qam:
                break
            gi, gq = lanes[2 * s], lanes[2 * s + 1]
            for shift in (2, 1, 0):
                bits.append((gi >> shift) & 1)
            for shift in (2, 1, 0):
                bits.append((gq >> shift) & 1)
            count += 1
    return np.array(bits, dtype=np.int64)
