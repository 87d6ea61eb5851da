"""Scratchpad layout of the modem programs.

All addresses are byte offsets into the 64 KB L1.  Complex samples are
one 32-bit word each (re low, im high); 64-bit SIMD accesses cover two
samples.  Buffers are 16-byte aligned so that 64-bit accesses start on
even bank pairs; the phasor table is the one deliberate exception (see
``PHTAB``).

There are no per-antenna sample buffers and no compacted spectra: the
kernels read the ADC stream (``RXIN``) and the FFT grids in place.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryMap:
    """Byte addresses of every modem buffer."""

    #: ADC-interleaved input stream: (a0[k], a1[k]) word pairs.  Every
    #: consumer reads it in place — antenna a's sample k sits at
    #: ``RXIN + 8k + 4a`` — so no per-antenna copy exists.
    RXIN: int = 0x0000  # up to 1024 sample pairs = 8 KB; 0x2000-0x3FFF free
    #: Rotated working buffers (coarse-CFO corrected regions).
    WORK0: int = 0x4000  # 512 samples
    WORK1: int = 0x4800
    #: Fine-corrected HT-LTF region, antenna buffers 640 B apart.
    CORR0: int = 0x5000  # 160 samples
    CORR1: int = 0x5280
    #: Phasor table of the table-based fshift kernels.  It sits 8 bytes
    #: off the 16-byte grid on purpose: its 64-bit entries then claim
    #: the other bank pair than the ADC words loaded in the same
    #: iteration, instead of queueing behind them.
    PHTAB: int = 0x5808  # up to 255 words
    #: 32-bit phasor table for the fused gather-rotate.
    PHTAB32: int = 0x6000  # up to 256 entries = 1 KB
    #: Cross-correlation reference (64 packed samples).
    XCREF: int = 0x6400
    #: CORDIC arctangent table.
    ATAN: int = 0x6500
    #: Gather tables: CP-strip + digit-reversal for the data symbols.
    GTAB0: int = 0x6600  # symbol 0 (64 entries)
    GTAB1: int = 0x6700  # symbol 1
    #: Plain base-4 digit-reversal byte-offset table (64 entries).
    RTAB: int = 0x6800
    #: Used-carrier byte offsets within a 64-bin grid (56 entries).
    BINTAB: int = 0x6900
    #: FFT working buffers (4 x 64 words).  The pair delta is 264 B —
    #: 256 plus one bank-pair skew — so that the two merged buffers'
    #: butterfly accesses land on different L1 banks instead of
    #: queueing behind each other every cycle.
    FFT0: int = 0x6A00
    FFT1: int = 0x6B08
    FFT2: int = 0x6C20
    FFT3: int = 0x6D28
    #: Twiddle tables of the two twiddled radix-4 stages (q = 4, 16):
    #: 2 stages x 24 x 8 B, each 3 legs (B, C, D) x 8 packed pairs.
    TWID: int = 0x6E40
    #: Channel-combining sign table (28 words).
    SGN: int = 0x7600
    #: Channel estimate H (56 carriers x 16 B).
    HBUF: int = 0x7800
    #: Equaliser W (56 carriers x 16 B).
    WBUF: int = 0x7C00
    #: Per-symbol carrier vectors y (56 words each).
    YBUF0: int = 0x8000
    YBUF1: int = 0x8200
    #: Detected symbols x_hat (Q8).
    XBUF0: int = 0x8400
    XBUF1: int = 0x8600
    #: Compensated symbols (half-normalised Q15).
    CBUF0: int = 0x8800
    CBUF1: int = 0x8A00
    #: Demapped Gray-label words.
    LBUF0: int = 0x8C00
    LBUF1: int = 0x8E00
    #: Scratch slot for 64-bit materialisation tricks.
    SCRATCH: int = 0x9000
    #: Host-written per-packet parameter block (32-bit words).  Region
    #: programs load their packet-dependent values (detection base
    #: addresses, correlation words, tail loop counts) from here instead
    #: of baking them in as immediates, so one linked program serves
    #: every packet.
    PARAM: int = 0x9100

    @property
    def fft_pair_delta(self) -> int:
        """Byte distance between paired FFT buffers."""
        return self.FFT1 - self.FFT0


DEFAULT_MAP = MemoryMap()
