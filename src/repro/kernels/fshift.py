"""The ``fshift`` kernels: frequency translation of the sample stream.

Four variants, matching the Table 2 rows that use them:

* :func:`build_fshift_ant0_dfg` and :func:`build_fshift_pair_dfg` —
  table-based rotation (the plain preamble ``fshift`` rows, pure CGA,
  high IPC).  The first rotates antenna 0 only, two samples per
  iteration (the sync region: timing and fine CFO use one antenna); the
  second rotates one ADC sample pair (both antennas) per iteration and
  stores each antenna's sample to its own buffer (the HT-LTF region).
  The phasor tables are precomputed by the host.
* :func:`build_cfo_rotate_dfg` — recursive-phasor rotation used by
  ``freq offset compensation`` (the "mixed" row): the per-sample phasor
  is advanced on the array by a loop-carried complex multiply, whose
  recurrence limits the achievable II — which is why the paper reports
  a visibly lower IPC (4.48) for this kernel.
* :func:`build_gather_rotate_dfg` — the data-phase ``fshift`` row: a
  table-driven gather (cyclic-prefix strip + digit reversal) straight out
  of the ADC stream, fused with the rotation.

The table-based variants read the ADC stream in place: antenna *a*'s
sample *k* sits at ``RXIN + 8k + 4a``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.compiler.builder import KernelBuilder
from repro.compiler.dfg import Const, Dfg
from repro.isa.opcodes import Opcode
from repro.kernels.common import (
    MASK_EVEN,
    MASK_ODD,
    load_adc_antenna0,
    pack_complex_word,
    pack_complex_words,
)
from repro.phy.fixed import q15


def build_fshift_ant0_dfg(name: str = "fshift") -> Dfg:
    """Rotate antenna 0 of the ADC stream in place (two samples/iteration).

    out[n] = a0[n] * table[n]: each iteration assembles the packed
    (a0[n], a0[n+1]) word from two ADC pairs, loads the matching packed
    phasor word, complex-multiplies and stores one 64-bit word.

    Live-ins: ``src`` (ADC stream at the first pair), ``dst``, ``tab``
    (packed two-sample phasor table, :func:`phasor_table_words`).
    """
    kb = KernelBuilder(name)
    src = kb.live_in("src")
    dst = kb.live_in("dst")
    tab = kb.live_in("tab")
    # One address induction per memory port: their values are consumed
    # at different schedule times, and independent inductions let the
    # scheduler anchor each next to its consumer (hand-written DSP
    # kernels use separate address registers for the same reason).
    i_src = kb.induction(0, 16)
    i_tab = kb.induction(0, 8)
    i_dst = kb.induction(0, 8)
    x = load_adc_antenna0(kb, kb.add(src, i_src))
    ph = kb.load(Opcode.LD_Q, kb.add(tab, i_tab))
    y = kb.cmul(x, ph)
    kb.store(Opcode.ST_Q, kb.add(dst, i_dst), y)
    return kb.finish()


def build_fshift_pair_dfg(name: str = "fshift", delta_dst: int = 2048) -> Dfg:
    """Rotate both antennas' samples as the ADC delivers them (one pair/iteration).

    Each iteration loads one 64-bit ADC word ``(a0[k], a1[k])`` and the
    duplicated phasor word ``(p[k], p[k])``, complex-multiplies them and
    stores the antenna-0 half at ``dst + 4k`` and the swapped antenna-1
    half at ``dst + delta_dst + 4k`` — so the rotate also splits the
    stream per antenna, and no separate deinterleaving pass runs.

    Live-ins: ``src`` (ADC stream at the first pair), ``dst`` (antenna-0
    output; antenna 1 at +delta_dst), ``tab`` (duplicated phasor table,
    :func:`phasor_pair_table_words`).
    """
    kb = KernelBuilder(name)
    src = kb.live_in("src")
    dst = kb.live_in("dst")
    tab = kb.live_in("tab")
    i_src = kb.induction(0, 8)
    i_tab = kb.induction(0, 8)
    i_dst = kb.induction(0, 4)
    x = kb.load(Opcode.LD_Q, kb.add(src, i_src))
    ph = kb.load(Opcode.LD_Q, kb.add(tab, i_tab))
    y = kb.cmul(x, ph)
    dst_addr = kb.add(dst, i_dst)
    kb.store(Opcode.ST_I, dst_addr, y)
    kb.store(Opcode.ST_I, dst_addr, kb.c4swap32(y), offset=delta_dst // 4)
    return kb.finish()


#: Distinctive placeholder constants for the template compile of the
#: recursive-phasor kernel.  They are packed-64-bit values that can
#: never arise as legitimate immediates of this kernel (phasor words are
#: Q15 complex pairs; induction inits are small negatives mod 2^64), so
#: :func:`repro.sim.program.patch_constants` can substitute the real
#: per-packet step/initial phasor into the configuration words — the
#: paper's "patch the configuration immediates" flow.
CFO_STEP_SENTINEL = 0xC0F0_57E9_0C0F_57E9
CFO_PH0_SENTINEL = 0xC0F0_9A11_0C0F_9A12


def cfo_rotate_patch(step_word: int, ph0_word: int) -> dict:
    """Immediate-patch mapping for a sentinel-compiled cfo_rotate kernel."""
    return {CFO_STEP_SENTINEL: step_word, CFO_PH0_SENTINEL: ph0_word}


def build_cfo_rotate(
    name: str, step_word: int = CFO_STEP_SENTINEL, ph0_word: int = CFO_PH0_SENTINEL
) -> Dfg:
    """Recursive-phasor rotation kernel.

    *step_word* and *ph0_word* are packed 64-bit phasor constants
    (compile-time, like DRESC constant-folding the CFO estimate would
    when specialising).  Left at their sentinel defaults, the kernel is
    a reusable template: the modulo schedule never depends on immediate
    values, so the runtime links it once and stamps each packet's
    constants into the configuration words with
    :func:`repro.sim.program.patch_constants` /
    :func:`cfo_rotate_patch` — exactly the paper's configuration
    patching, and bit-identical to a value-specialised compile.
    """
    kb = KernelBuilder(name)
    src = kb.live_in("src")
    dst = kb.live_in("dst")
    i_src = kb.induction(0, 8)
    i_dst = kb.induction(0, 8)
    x = kb.load(Opcode.LD_Q, kb.add(src, i_src))
    step = Const(step_word)
    direct = kb.d4prod(Const(0), step)
    cross = kb.c4prod(Const(0), step)
    re = kb.c4sub(direct, kb.c4swap16(direct))
    im = kb.c4add(cross, kb.c4swap16(cross))
    re_even = kb.op(Opcode.C4AND, re, Const(MASK_EVEN))
    im_odd = kb.op(Opcode.C4AND, im, Const(MASK_ODD))
    ph = kb.c4add(re_even, im_odd)
    # Wire the recurrence: the two products read ph (distance 1).
    ph_rec = kb.recurrence(ph, init=ph0_word)
    kb.dfg.nodes[direct.node_id].srcs = (ph_rec, step)
    kb.dfg.nodes[cross.node_id].srcs = (ph_rec, step)
    # The data multiply uses the *previous* phasor (the one that applies
    # to this iteration's samples); the freshly advanced one applies to
    # the next pair.
    y = kb.cmul(x, ph_rec)
    kb.store(Opcode.ST_Q, kb.add(dst, i_dst), y)
    return kb.finish()


def build_gather_rotate_dfg(
    name: str = "gather_rotate", delta_src: int = 4, delta_dst: int = 256
) -> Dfg:
    """Fused CP-strip / digit-reversal gather + phasor rotation (two antennas).

    The data-phase ``fshift`` row: each iteration reads one sample
    offset from a table (which encodes cyclic-prefix stripping and the
    FFT's digit-reversal in one permutation), loads that sample of both
    antennas, rotates both by the same table phasor and stores them into
    the FFT working buffers — so the FFT proper starts at its first
    butterfly stage.

    Live-ins: ``src`` (antenna-0 samples; antenna 1 at +delta_src, 4 in
    the ADC stream, where the table offsets step 8 bytes per sample),
    ``dst`` (FFT buffer 0; buffer 1 at +delta_dst), ``tab`` (byte-offset
    permutation), ``ph`` (32-bit phasor table, same permutation order).
    """
    kb = KernelBuilder(name)
    src = kb.live_in("src")
    dst = kb.live_in("dst")
    tab = kb.live_in("tab")
    phb = kb.live_in("ph")
    i_tab = kb.induction(0, 4)
    i_ph = kb.induction(0, 4)
    i_dst = kb.induction(0, 4)
    off = kb.load(Opcode.LD_I, kb.add(tab, i_tab))
    ph = kb.load(Opcode.LD_I, kb.add(phb, i_ph))
    src_addr = kb.add(src, off)
    x0 = kb.load(Opcode.LD_I, src_addr)
    x1 = kb.load(Opcode.LD_I, kb.add(src_addr, Const(delta_src)))
    y0 = kb.cmul(x0, ph)
    y1 = kb.cmul(x1, ph)
    dst_addr = kb.add(dst, i_dst)
    kb.store(Opcode.ST_I, dst_addr, y0)
    kb.store(Opcode.ST_I, kb.add(dst_addr, Const(delta_dst)), y1)
    return kb.finish()


# ----------------------------------------------------------------------
# Host-side parameter builders.
# ----------------------------------------------------------------------


def _phasor_words(freq_hz, sample_rate_hz, n_samples, start_sample) -> np.ndarray:
    n = np.arange(start_sample, start_sample + n_samples)
    ph = np.exp(2j * np.pi * freq_hz * n / sample_rate_hz)
    return pack_complex_words(q15(ph.real), q15(ph.imag)).astype(np.uint64)


def phasor_table_words(
    freq_hz: float, sample_rate_hz: float, n_samples: int, start_sample: int = 0
) -> List[int]:
    """Packed phasor table for :func:`build_fshift_ant0_dfg` (two samples/word)."""
    packed = _phasor_words(freq_hz, sample_rate_hz, n_samples, start_sample)
    return (packed[0::2] | (packed[1::2] << np.uint64(32))).tolist()


def phasor_pair_table_words(
    freq_hz: float, sample_rate_hz: float, n_samples: int, start_sample: int = 0
) -> List[int]:
    """Phasor table for :func:`build_fshift_pair_dfg`: one 64-bit word
    per sample, the sample's phasor in both halves (one per antenna)."""
    packed = _phasor_words(freq_hz, sample_rate_hz, n_samples, start_sample)
    return (packed | (packed << np.uint64(32))).tolist()


def phasor_table_words32(
    freq_hz: float, sample_rate_hz: float, sample_indices
) -> List[int]:
    """32-bit phasor table (one sample per word) for ``gather_rotate``.

    *sample_indices* gives the absolute sample index of each table
    entry (the gather permutation order), so the rotation phase stays
    continuous across reordered accesses.
    """
    idx = np.asarray(list(sample_indices), dtype=np.float64)
    ph = np.exp(2j * np.pi * freq_hz * idx / sample_rate_hz)
    return pack_complex_words(q15(ph.real), q15(ph.imag)).tolist()


def rotate_constants(
    freq_hz: float, sample_rate_hz: float, start_sample: int = 0
) -> Tuple[int, int]:
    """(step_word, ph0_word) for the recursive-phasor kernel."""
    theta = 2 * np.pi * freq_hz / sample_rate_hz
    step = np.exp(2j * theta)  # advances a pair by two samples
    ph0 = np.exp(1j * theta * start_sample)
    ph1 = np.exp(1j * theta * (start_sample + 1))
    step_lo = pack_complex_word(int(q15(step.real)), int(q15(step.imag)))
    step_word = step_lo | (step_lo << 32)
    ph0_word = pack_complex_word(int(q15(ph0.real)), int(q15(ph0.imag))) | (
        pack_complex_word(int(q15(ph1.real)), int(q15(ph1.imag))) << 32
    )
    return step_word, ph0_word
