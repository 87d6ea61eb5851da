"""The VLIW-mode code of Table 2: lane reductions and pilot tracking.

The paper runs ``remove zero carriers``, ``sample ordering`` and
``sample reordering`` as VLIW copy loops.  Here no copy runs: the
consumers read the ADC stream and the FFT grids in place (see
:mod:`repro.modem.receiver`), and ``data shuffle`` is a CGA gather.
What remains in VLIW mode is the reduction half of the "mixed"
correlation kernels and ``tracking``, which computes the
common-phase-error phasor from the four pilots with scalar arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from repro.compiler.builder import PhysReg, VliwBuilder
from repro.isa.opcodes import Opcode


def emit_lane_reduce_mag(
    vb: VliwBuilder, src_reg, out_re: PhysReg, out_im: PhysReg, out_mag: PhysReg
) -> None:
    """Reduce a packed lane accumulator to (re, im, |.|^2) scalars.

    Used as the VLIW half of the "mixed" acorr/xcorr kernels: the CGA
    loop leaves |re0|im0|re1|im1| lane sums; this folds the two sample
    lanes and squares the magnitude for threshold/peak decisions.
    Results go straight into the host-visible fixed registers.
    """
    folded = vb.op(Opcode.C4ADD, src_reg, vb.op(Opcode.C4SWAP32, src_reg))
    vb.op(Opcode.ASR, vb.op(Opcode.LSL, folded, 16), 16, dst=out_re)
    vb.op(Opcode.ASR, folded, 16, dst=out_im)
    re2 = vb.op(Opcode.MUL, out_re, out_re)
    im2 = vb.op(Opcode.MUL, out_im, out_im)
    vb.op(Opcode.ADD, re2, im2, dst=out_mag)


def emit_tracking(
    vb: VliwBuilder,
    grid_addr: int,
    pilot_offsets: Sequence[int],
    pilot_signs: Sequence[int],
    out_reg: PhysReg,
    scratch_addr: int,
) -> None:
    """``tracking``: common-phase-error phasor from the pilots.

    Loads the four pilot carriers (32-bit complex each), accumulates
    ``sum sign_k * p_k`` (the expected pilots are +-1, so conjugated
    multiplication degenerates to signed addition), divides by 4 and
    conjugates — leaving the packed correction phasor pair in *out_reg*
    (both halves equal) via the store/store/load-64 idiom.
    """
    if len(pilot_offsets) != len(pilot_signs):
        raise ValueError("offsets/signs length mismatch")
    # Shared temporaries: tracking is short sequential code, so register
    # reuse (serialised by the hazard analysis) is the natural choice.
    base = vb.shared_reg("trk_base")
    acc_re = vb.shared_reg("trk_are")
    acc_im = vb.shared_reg("trk_aim")
    vb.op(Opcode.ADD, 0, grid_addr, dst=base)
    vb.op(Opcode.ADD, 0, 0, dst=acc_re)
    vb.op(Opcode.ADD, 0, 0, dst=acc_im)
    p = vb.shared_reg("trk_p")
    t = vb.shared_reg("trk_t")
    re = vb.shared_reg("trk_re")
    im = vb.shared_reg("trk_im")
    for off, sign in zip(pilot_offsets, pilot_signs):
        vb.op(Opcode.LD_I, base, off // 4, dst=p)
        vb.op(Opcode.LSL, p, 16, dst=t)
        vb.op(Opcode.ASR, t, 16, dst=re)
        vb.op(Opcode.ASR, p, 16, dst=im)
        op = Opcode.ADD if sign > 0 else Opcode.SUB
        vb.op(op, acc_re, re, dst=acc_re)
        vb.op(op, acc_im, im, dst=acc_im)
    # Normalise to a Q15 unit phasor.  Equalised pilots sit at +-1 in
    # the detector's Q(W_SHIFT) format, so the 4-pilot sum is about
    # 4 << W_SHIFT; multiplying by 32640/2^10 maps that onto ~0.996 Q15.
    vb.op(Opcode.MUL, acc_re, 32640, dst=t)
    vb.op(Opcode.ASR, t, 10, dst=re)  # avg_re
    vb.op(Opcode.MUL, acc_im, 32640, dst=t)
    vb.op(Opcode.ASR, t, 10, dst=im)  # avg_im
    # Clamp to +-32767: a pilot sum just 4 LSBs above 4 << W_SHIFT would
    # otherwise wrap the 16-bit lane, a 180-degree phasor error.
    over = vb.shared_reg("trk_pred")
    for v in (re, im):
        for cmp, bound in ((Opcode.PRED_GT, 32767), (Opcode.PRED_LT, -32767)):
            vb.op(cmp, v, bound, dst=over)
            vb.op(Opcode.ADD, 0, bound, dst=v, pred=over)
    # Conjugate for the correction rotation, then pack (re, -im).
    vb.op(Opcode.SUB, 0, im, dst=im)
    vb.op(Opcode.AND, re, 0xFFFF, dst=re)
    vb.op(Opcode.LSL, im, 16, dst=im)
    vb.op(Opcode.OR, re, im, dst=p)
    # Duplicate into both 32-bit halves through the scratch slot.
    vb.op(Opcode.ADD, 0, scratch_addr, dst=base)
    vb.store(Opcode.ST_I, base, 0, p)
    vb.store(Opcode.ST_I, base, 1, p)
    vb.op(Opcode.LD_Q, base, 0, dst=out_reg)
