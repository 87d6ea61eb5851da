"""The ``fft`` kernel family: fixed-point radix-4 64-point FFT on the CGA.

The transform is decomposed exactly as the hardware mapping would be:

1. :func:`build_reorder_pair_dfg` — base-4 digit-reversal gather of two
   buffers through a precomputed byte-offset table (data-dependent
   addressing: the loaded offset feeds the sample load);
2. :func:`build_first_stage_pair_dfg` — the q = 1 stage, in place on
   contiguous quads of both grids of a pair.  All its twiddles are W^0,
   so it multiplies nothing: the butterfly legs are lane merges of the
   two packed words of a quad;
3. :func:`build_radix4_stage_dfg` — the generic twiddled stage
   (q = 4, 16): each iteration processes one packed pair of radix-4
   butterflies on one grid, with group/slot index arithmetic done on
   the array (shifts and masks from live-in stage parameters, so one
   compiled kernel serves every twiddled stage).

Every butterfly applies the two ``>> 1`` scalings of the golden model
(:mod:`repro.phy.fft`), so results match it bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.compiler.builder import KernelBuilder
from repro.compiler.dfg import Const, Dfg
from repro.isa.opcodes import Opcode
from repro.kernels.common import MASK_PAIR0, MASK_PAIR1, pack_complex_words
from repro.phy.fft import digit_reverse_indices, twiddles_q15


def build_reorder_pair_dfg(
    name: str = "fft_reorder2", delta_src: int = 256, delta_dst: int = 256
) -> Dfg:
    """Digit-reversal gather of two buffers at once.

    The source buffers sit *delta_src* bytes apart (e.g. two antenna
    sample buffers), the destination FFT buffers *delta_dst* apart.
    """
    kb = KernelBuilder(name)
    src = kb.live_in("src")
    dst = kb.live_in("dst")
    tab = kb.live_in("tab")
    i_tab = kb.induction(0, 4)
    i_dst = kb.induction(0, 4)
    off = kb.load(Opcode.LD_I, kb.add(tab, i_tab))
    src_addr = kb.add(src, off)
    x0 = kb.load(Opcode.LD_I, src_addr)
    x1 = kb.load(Opcode.LD_I, kb.add(src_addr, Const(delta_src)))
    dst_addr = kb.add(dst, i_dst)
    kb.store(Opcode.ST_I, dst_addr, x0)
    kb.store(Opcode.ST_I, kb.add(dst_addr, Const(delta_dst)), x1)
    return kb.finish()


def _merge(kb: KernelBuilder, lo, hi):
    """``(lo's first sample, hi's second sample)`` of two packed words."""
    return kb.op(
        Opcode.C4OR,
        kb.op(Opcode.C4AND, lo, Const(MASK_PAIR0)),
        kb.op(Opcode.C4AND, hi, Const(MASK_PAIR1)),
    )


def _minus_j(kb: KernelBuilder, x):
    """``-j * x`` on both packed samples: (im, -re)."""
    return kb.c4negb(kb.c4swap16(x))


def build_first_stage_pair_dfg(name: str = "fft_r4_first_x2", delta: int = 256) -> Dfg:
    """The q = 1 radix-4 stage of two buffers *delta* bytes apart.

    Each iteration transforms one contiguous quad ``(a, b), (c, d)`` of
    each buffer in place; no twiddles::

        (t0, t2) = (lo + hi) >> 1      (t1, t3) = (lo - hi) >> 1
        p = (t0, t1)                   q = (t2, -j*t3)
        (y0, y1) = (p + q) >> 1        (y2, y3) = (p - q) >> 1

    Live-ins: ``buf`` (in-place).
    """
    kb = KernelBuilder(name)
    buf = kb.live_in("buf")

    def butterfly(addr, offset):
        lo = kb.load(Opcode.LD_Q, addr, offset=offset)
        hi = kb.load(Opcode.LD_Q, addr, offset=offset + 2)
        s = kb.c4shiftr(kb.c4add(lo, hi), 1)  # (t0, t2)
        d = kb.c4shiftr(kb.c4sub(lo, hi), 1)  # (t1, t3)
        p = _merge(kb, s, kb.c4swap32(d))  # (t0, t1)
        q = _merge(kb, kb.c4swap32(s), _minus_j(kb, d))  # (t2, -j*t3)
        return kb.c4shiftr(kb.c4add(p, q), 1), kb.c4shiftr(kb.c4sub(p, q), 1)

    i_ld = kb.induction(0, 16)
    i_st = kb.induction(0, 16)
    la = kb.add(buf, i_ld)
    sa = kb.add(buf, i_st)
    for offset in (0, delta // 4):
        out_lo, out_hi = butterfly(la, offset)
        kb.store(Opcode.ST_Q, sa, out_lo, offset=offset)
        kb.store(Opcode.ST_Q, sa, out_hi, offset=offset + 2)
    return kb.finish()


def build_radix4_stage_dfg(name: str = "fft_r4_stage") -> Dfg:
    """Twiddled radix-4 stage: one packed butterfly pair per iteration.

    For pair index p at quarter size q (samples):
    ``g = p >> log2(q/2)``, ``j = p & (q/2 - 1)``,
    ``addrA = buf + g*(4q*4) + j*8`` and legs B, C, D at ``+q*4`` steps;
    ``W_k = tw[8k + p]`` (k = 0..2, two twiddles packed per word) for
    legs B, C, D.

    Live-ins: ``buf``, ``tw`` (the stage's 3 x 8-word twiddle table),
    ``gshift`` (log2(q/2)), ``jmask`` (q/2 - 1), ``gscale``
    (log2(4q*4)), ``qbytes`` (q*4).
    """
    kb = KernelBuilder(name)
    buf = kb.live_in("buf")
    tw = kb.live_in("tw")
    gshift = kb.live_in("gshift")
    jmask = kb.live_in("jmask")
    gscale = kb.live_in("gscale")
    qbytes = kb.live_in("qbytes")

    def leg_addrs(p):
        """The four leg addresses from a pair-index induction."""
        g = kb.op(Opcode.LSR, p, gshift)
        j = kb.op(Opcode.AND, p, jmask)
        group_base = kb.op(Opcode.LSL, g, gscale)
        addrs = [kb.add(kb.add(buf, group_base), kb.shl(j, 3))]
        for _ in range(3):
            addrs.append(kb.add(addrs[-1], qbytes))
        return addrs

    # Separate index/address chains for the load side and the store
    # side: their consumers are half a pipeline apart, and independent
    # chains let the scheduler anchor each where it is used.
    p_ld = kb.induction(0, 1)
    p_st = kb.induction(0, 1)
    p_tw = kb.induction(0, 1)
    a, b, c, d = [kb.load(Opcode.LD_Q, addr) for addr in leg_addrs(p_ld)]
    tw_addr = kb.add(tw, kb.shl(p_tw, 3))
    b, c, d = [
        kb.cmul(x, kb.load(Opcode.LD_Q, tw_addr, offset=16 * k))
        for k, x in enumerate((b, c, d))
    ]
    t0 = kb.c4shiftr(kb.c4add(a, c), 1)
    t1 = kb.c4shiftr(kb.c4sub(a, c), 1)
    t2 = kb.c4shiftr(kb.c4add(b, d), 1)
    u = _minus_j(kb, kb.c4shiftr(kb.c4sub(b, d), 1))
    outs = (
        kb.c4shiftr(kb.c4add(t0, t2), 1),
        kb.c4shiftr(kb.c4add(t1, u), 1),
        kb.c4shiftr(kb.c4sub(t0, t2), 1),
        kb.c4shiftr(kb.c4sub(t1, u), 1),
    )
    for addr, y in zip(leg_addrs(p_st), outs):
        kb.store(Opcode.ST_Q, addr, y)
    return kb.finish()


# ----------------------------------------------------------------------
# Host-side tables and stage parameters.
# ----------------------------------------------------------------------


def reorder_table_words(n: int = 64) -> List[int]:
    """Byte offsets of the digit-reversal gather."""
    return [int(k) * 4 for k in digit_reverse_indices(n)]


def twiddled_stages(n: int = 64) -> List[Tuple[int, dict, List[int]]]:
    """``(q, live-ins, twiddle words)`` of each twiddled stage, q = 4 .. n/4.

    A stage's table holds 3 legs x n/8 pairs of packed twiddles, leg
    major: pair p of leg k (B, C, D) packs ``W^((k+1)*j*step)`` for the
    pair's two butterflies j, with ``step = n / (4q)``.
    """
    tw_re, tw_im = twiddles_q15(n)
    pairs = np.arange(n // 8)
    out = []
    q = 4
    while q < n:
        step = n // (4 * q)
        j0 = (pairs % (q // 2)) * 2
        words: List[int] = []
        for k in (1, 2, 3):
            e0, e1 = k * j0 * step, k * (j0 + 1) * step
            w0 = pack_complex_words(tw_re[e0], tw_im[e0]).astype(np.uint64)
            w1 = pack_complex_words(tw_re[e1], tw_im[e1]).astype(np.uint64)
            words += (w0 | (w1 << np.uint64(32))).tolist()
        live_ins = {
            "gshift": (q // 2).bit_length() - 1,
            "jmask": q // 2 - 1,
            "gscale": (16 * q).bit_length() - 1,
            "qbytes": 4 * q,
        }
        out.append((q, live_ins, words))
        q *= 4
    return out
