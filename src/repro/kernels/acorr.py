"""The ``acorr`` kernel: lagged autocorrelation + energy over a window.

The CGA loop accumulates, over one window position,

* ``corr += x[n + lag] * conj(x[n])`` (packed, two samples/iteration)
* ``energy += |x[n]|^2``

Both lane accumulators leave the loop as live-outs; the surrounding
VLIW code reduces the sample lanes, compares magnitude against the
scaled energy and decides detection — which is what makes the paper's
``acorr`` row a *mixed* kernel.

The same DFG with ``lag = 64`` is the correlation half of the
``freq offset estimation`` kernel (fine CFO from the long training
field repetition).  Packet detection runs :func:`build_acorr_adc_dfg`,
the same accumulation over antenna 0 of the ADC stream read in place.
"""

from __future__ import annotations

from repro.compiler.builder import KernelBuilder
from repro.compiler.dfg import Dfg
from repro.isa.opcodes import Opcode
from repro.kernels.common import load_adc_antenna0


def build_acorr_dfg(
    lag_samples: int = 16, name: str = "acorr", acc_shift: int = 4
) -> Dfg:
    """Window accumulation at one position.

    Live-ins: ``base`` (byte address of x[n] at the window start).
    Live-outs: ``corr`` (packed lane accumulator |re0|im0|re1|im1| —
    the true correlation is lane0+lane2, lane1+lane3), ``energy``
    (packed |e0|e0'|e1|e1'| lane accumulator).

    Per-term values are pre-shifted right by *acc_shift* so the 16-bit
    saturating lane accumulators cannot clip over the window (the same
    shift applies to correlation and energy, so the detection ratio and
    the correlation angle are unaffected).
    """
    kb = KernelBuilder(name)
    base = kb.live_in("base")
    i = kb.induction(0, 8)
    i_e = kb.induction(0, 8)  # separate chain for the energy path
    addr0 = kb.add(base, i)
    x0 = kb.load(Opcode.LD_Q, addr0)
    x1 = kb.load(Opcode.LD_Q, addr0, offset=lag_samples)  # 1 sample = 1 word
    _accumulate_corr(kb, x0, x1, acc_shift)
    # Energy of the base window from its own load, so the x0 value need
    # not be held across the long cmul chain.
    x0e = kb.load(Opcode.LD_Q, kb.add(base, i_e))
    _accumulate_energy(kb, x0e, acc_shift)
    return kb.finish()


def build_acorr_adc_dfg(
    lag_samples: int = 16, name: str = "acorr", acc_shift: int = 4
) -> Dfg:
    """:func:`build_acorr_dfg` over antenna 0 of the ADC stream, in place.

    The stream holds (a0[k], a1[k]) pairs, one 64-bit word per sample
    index.  Each packed (a0[n], a0[n+1]) operand is assembled from the
    antenna-0 halves of two pairs, so the lanes, and with them the
    saturating accumulators, see exactly what :func:`build_acorr_dfg`
    sees on a deinterleaved copy.

    Live-ins: ``base`` (byte address of the pair holding x[n] at the
    window start).  Live-outs as :func:`build_acorr_dfg`.
    """
    kb = KernelBuilder(name)
    base = kb.live_in("base")
    i = kb.induction(0, 16)  # two sample pairs per iteration
    addr = kb.add(base, i)
    x0 = load_adc_antenna0(kb, addr, 0)
    x1 = load_adc_antenna0(kb, addr, 2 * lag_samples)  # 1 pair = 2 words
    _accumulate_corr(kb, x0, x1, acc_shift)
    _accumulate_energy(kb, x0, acc_shift)
    return kb.finish()


def _accumulate_corr(kb: KernelBuilder, x0, x1, acc_shift: int) -> None:
    """corr += x1 * conj(x0), packed, pre-scaled for accumulation headroom."""
    prod = kb.c4shiftr(kb.cmul(x1, kb.c4negb(x0)), acc_shift)
    kb.accumulate(Opcode.C4ADD, prod, init=0, live_out="corr")


def _accumulate_energy(kb: KernelBuilder, x, acc_shift: int) -> None:
    """energy += per-lane squares of *x*, pre-scaled like the correlation."""
    e = kb.c4shiftr(kb.d4prod(x, x), acc_shift)
    kb.accumulate(Opcode.C4ADD, e, init=0, live_out="energy")
