"""The MIMO kernels: ``equalize coeff calc`` and ``SDM processing``.

Data layout: per carrier, the 2x2 channel estimate H and the equaliser W
each occupy two consecutive 64-bit words (row-major, each row a packed
complex pair): ``word0 = (h00, h01)``, ``word1 = (h10, h11)``.  Received
carrier vectors are one word each: ``(y0, y1)``.

``equalize coeff calc`` computes the per-carrier zero-forcing inverse

    W = adj(H) * conj(det H) / |det H|^2

with packed SIMD for the complex algebra and the two hardwired 24-bit
dividers for the eight real divisions per carrier (the divider pressure
and the deep dependence chain give this kernel its mid-range IPC, like
the paper's 8.38).  W components are produced in Q(15 - wshift... i.e.
``w = num << wshift / |det|^2`` with both in Q15, giving Q(wshift).

``SDM processing`` applies W: ``x_hat[k] = W[k] @ y[k]``, one carrier
per iteration, all complex multiplies packed (the paper's 9.90 IPC).
"""

from __future__ import annotations

from repro.compiler.builder import KernelBuilder
from repro.compiler.dfg import Const, Dfg
from repro.isa.opcodes import Opcode
from repro.kernels.common import MASK_PAIR0, MASK_PAIR1

#: Left-shift applied to W numerators before division: W lands in Q8
#: (numerators stay inside the dividers' 24-bit range).
W_SHIFT = 8


def _extract_lane16(kb: KernelBuilder, word, lane: int):
    """Sign-extended 16-bit lane -> 32-bit scalar (lanes 0..3)."""
    v = word if lane < 2 else kb.c4swap32(word)
    if lane % 2 == 0:
        return kb.shr(kb.shl(v, 16), 16)
    return kb.shr(v, 16)


def _pack_pair(kb: KernelBuilder, re, im):
    """(re, im) scalars -> packed complex in the low 32 bits."""
    lo = kb.op(Opcode.AND, re, Const(0xFFFF))
    hi = kb.shl(im, 16)
    return kb.op(Opcode.OR, lo, hi)


def build_eqcoef_dfg(name: str = "eq_coeff", wshift: int = W_SHIFT) -> Dfg:
    """Per-carrier 2x2 ZF equaliser coefficients.

    Live-ins: ``hbase`` (H buffer), ``wbase`` (W output buffer).
    One carrier per iteration (two H words in, two W words out).
    """
    kb = KernelBuilder(name)
    hbase = kb.live_in("hbase")
    wbase = kb.live_in("wbase")
    i = kb.induction(0, 16)  # 2 words = 16 bytes per carrier
    i_adj = kb.induction(0, 16)  # rematerialised loads for the adjugate
    i_out = kb.induction(0, 16)  # output address chain
    haddr = kb.add(hbase, i)
    row0 = kb.load(Opcode.LD_Q, haddr)  # (h00, h01)
    row1 = kb.load(Opcode.LD_Q, haddr, offset=2)  # (h10, h11)
    # The adjugate assembly consumes the rows much later than the
    # determinant does; re-loading them (cheap, bank-friendly) beats
    # holding the values across many cycles.
    haddr2 = kb.add(hbase, i_adj)
    row0b = kb.load(Opcode.LD_Q, haddr2)
    row1b = kb.load(Opcode.LD_Q, haddr2, offset=2)

    # det = h00*h11 - h01*h10 (pair0 of pr - its swap).
    r1s = kb.c4swap32(row1)  # (h11, h10)
    pr = kb.cmul(row0, r1s)  # (h00*h11, h01*h10)
    det = kb.c4sub(pr, kb.c4swap32(pr))  # pair0 = det, pair1 = -det
    det_p0 = kb.op(Opcode.C4AND, det, Const(MASK_PAIR0))
    det_dup = kb.op(Opcode.C4OR, det_p0, kb.c4swap32(det_p0))  # (det, det)
    cdet = kb.c4negb(det_dup)  # conj(det) in both pairs

    # |det|^2 as a positive Q15 scalar.
    dd = kb.d4prod(det_dup, det_dup)
    mag_lanes = kb.c4add(dd, kb.c4swap16(dd))  # lane0 = re^2+im^2
    mag = _extract_lane16(kb, mag_lanes, 0)

    # Adjugate rows: (h11, -h01) and (-h10, h00), from the re-loaded rows.
    neg_r0 = kb.c4sub(Const(0), row0b)
    neg_r1 = kb.c4sub(Const(0), row1b)
    adj0 = kb.op(
        Opcode.C4OR,
        kb.op(Opcode.C4AND, kb.c4swap32(row1b), Const(MASK_PAIR0)),
        kb.op(Opcode.C4AND, neg_r0, Const(MASK_PAIR1)),
    )
    adj1 = kb.op(
        Opcode.C4OR,
        kb.op(Opcode.C4AND, neg_r1, Const(MASK_PAIR0)),
        kb.op(Opcode.C4AND, kb.c4swap32(row0b), Const(MASK_PAIR1)),
    )

    waddr = kb.add(wbase, i_out)
    for row_idx, adj in enumerate((adj0, adj1)):
        num = kb.cmul(adj, cdet)  # Q15 numerators, 4 lanes
        packed_pairs = []
        for pair in range(2):
            re = _extract_lane16(kb, num, 2 * pair)
            im = _extract_lane16(kb, num, 2 * pair + 1)
            qre = kb.op(Opcode.DIV, kb.shl(re, wshift), mag)
            qim = kb.op(Opcode.DIV, kb.shl(im, wshift), mag)
            packed_pairs.append(_pack_pair(kb, qre, qim))
        hi = kb.c4swap32(packed_pairs[1])  # move to the upper pair
        w_word = kb.op(Opcode.C4OR, packed_pairs[0], hi)
        kb.store(Opcode.ST_Q, waddr, w_word, offset=2 * row_idx)
    return kb.finish()


def build_chanest_dfg(name: str = "chanest") -> Dfg:
    """P-matrix channel combining for one receive antenna (row of H).

    From the two HT-LTF spectra of antenna r this computes, per used
    carrier k,

        h_{r,0}[k] = (Y1[k] + Y2[k]) * Lsgn[k] * ltf_gain
        h_{r,1}[k] = (Y1[k] - Y2[k]) * Lsgn[k] * ltf_gain

    where ``Lsgn`` is the +-1 training sequence (as +-Q15 one in a sign
    table) — the divide by the training symbol and the factor 1/2 of the
    P-matrix inverse are folded into the sign/gain table.  Outputs land
    in the row-major H buffer (stride 16 bytes per carrier, row offset
    8*r), ready for ``equalize coeff calc``.

    Live-ins: ``y1``, ``y2`` (the spectra at the first carrier of a run
    of consecutive used bins — the receiver reads the FFT grids in
    place, one call per run), ``sgn`` (sign table), ``hout`` (H buffer
    base + 8*r).  Two carriers per iteration.
    """
    kb = KernelBuilder(name)
    y1b = kb.live_in("y1")
    y2b = kb.live_in("y2")
    sgnb = kb.live_in("sgn")
    hout = kb.live_in("hout")
    i = kb.induction(0, 8)  # one word = 2 carriers of Y
    i_sgn = kb.induction(0, 8)
    i_out = kb.induction(0, 32)  # 2 carriers x 16 bytes of H
    y1 = kb.load(Opcode.LD_Q, kb.add(y1b, i))
    y2 = kb.load(Opcode.LD_Q, kb.add(y2b, i))
    sgn = kb.load(Opcode.LD_Q, kb.add(sgnb, i_sgn))
    gain_shift = 4  # rescales the 1/64 FFT block scaling into Q15 range
    s = kb.op(Opcode.C4SHIFTL, kb.d4prod(kb.c4add(y1, y2), sgn), gain_shift)
    d = kb.op(Opcode.C4SHIFTL, kb.d4prod(kb.c4sub(y1, y2), sgn), gain_shift)
    # Demux: carrier c0 H-row word = (s_c0, d_c0); c1 = (s_c1, d_c1).
    out0 = kb.op(
        Opcode.C4OR,
        kb.op(Opcode.C4AND, s, Const(MASK_PAIR0)),
        kb.c4swap32(kb.op(Opcode.C4AND, d, Const(MASK_PAIR0))),
    )
    out1 = kb.op(
        Opcode.C4OR,
        kb.op(Opcode.C4AND, kb.c4swap32(s), Const(MASK_PAIR0)),
        kb.op(Opcode.C4AND, d, Const(MASK_PAIR1)),
    )
    oaddr = kb.add(hout, i_out)
    kb.store(Opcode.ST_Q, oaddr, out0)
    kb.store(Opcode.ST_Q, oaddr, out1, offset=4)  # next carrier, same row
    return kb.finish()


def build_shuffle_dfg(name: str = "data_shuffle") -> Dfg:
    """Build per-carrier Y words from the two antenna spectra.

    One iteration gathers one used carrier: its byte offset comes from a
    table, the two antennas' 32-bit carrier values are fetched and
    merged into the (y0, y1) word layout SDM processing consumes.

    Live-ins: ``g0``, ``g1`` (the two FFT output grids), ``tab``
    (used-carrier byte offsets), ``ybase`` (output).
    """
    kb = KernelBuilder(name)
    g0 = kb.live_in("g0")
    g1 = kb.live_in("g1")
    tab = kb.live_in("tab")
    ybase = kb.live_in("ybase")
    i_tab = kb.induction(0, 4)
    i_out = kb.induction(0, 8)
    off = kb.load(Opcode.LD_I, kb.add(tab, i_tab))
    y0 = kb.load(Opcode.LD_I, kb.add(g0, off))
    y1 = kb.load(Opcode.LD_I, kb.add(g1, off))
    word = kb.op(Opcode.C4OR, y0, kb.c4swap32(y1))
    kb.store(Opcode.ST_Q, kb.add(ybase, i_out), word)
    return kb.finish()


def build_sdm_dfg(name: str = "sdm", yshift: int = 0) -> Dfg:
    """Apply the equaliser: one carrier (2x2 complex mat-vec) per iteration.

    Live-ins: ``ybase`` (received carrier vectors, one word each),
    ``wbase`` (W buffer, two words per carrier), ``xbase`` (detected
    output, one word per carrier).  W is Q(W_SHIFT); y is Q15, pre-shifted
    left by *yshift* to recover the FFT block scaling; the output is
    Q(W_SHIFT), rescaled downstream by the ``comp`` kernel.
    """
    kb = KernelBuilder(name)
    ybase = kb.live_in("ybase")
    wbase = kb.live_in("wbase")
    xbase = kb.live_in("xbase")
    i = kb.induction(0, 8)  # one y word per carrier
    iw = kb.induction(0, 16)  # two W words per carrier
    ix = kb.induction(0, 8)  # output address chain
    y = kb.load(Opcode.LD_Q, kb.add(ybase, i))
    if yshift:
        y = kb.op(Opcode.C4SHIFTL, y, yshift)
    waddr = kb.add(wbase, iw)
    w0 = kb.load(Opcode.LD_Q, waddr)  # (w00, w01)
    w1 = kb.load(Opcode.LD_Q, waddr, offset=2)  # (w10, w11)
    # Row products: (w00*y0, w01*y1) -> complex-sum the two pairs.
    p0 = kb.cmul(w0, y)
    p1 = kb.cmul(w1, y)
    s0 = kb.c4add(p0, kb.c4swap32(p0))  # pair0 = x0
    s1 = kb.c4add(p1, kb.c4swap32(p1))  # pair0 = x1
    out = kb.op(
        Opcode.C4OR,
        kb.op(Opcode.C4AND, s0, Const(MASK_PAIR0)),
        kb.c4swap32(kb.op(Opcode.C4AND, s1, Const(MASK_PAIR0))),
    )
    kb.store(Opcode.ST_Q, kb.add(xbase, ix), out)
    return kb.finish()
