"""The Table 2 kernel suite, authored in the compiler DSL.

Every kernel of the paper's MIMO-OFDM profiling table is implemented as
a compilable DFG (CGA-mode kernels) or a VLIW section builder (VLIW-mode
kernels), matching the modes reported in Table 2, except the three
layout-only rows, whose work the consumers absorb by reading their
inputs in place:

================================  =======  ==================================
Kernel                            Mode     Module
================================  =======  ==================================
acorr                             mixed    :mod:`repro.kernels.acorr`
fshift                            CGA      :mod:`repro.kernels.fshift`
xcorr                             CGA      :mod:`repro.kernels.xcorr`
fft (reorder + stages)            CGA      :mod:`repro.kernels.fft`
remove zero carriers              fused    chanest reads the FFT grids
freq offset estimation            CGA      :mod:`repro.kernels.sync`
freq offset compensation          mixed    :mod:`repro.kernels.fshift`
sample ordering / reordering      fused    acorr/fshift read the ADC stream
SDM processing                    CGA      :mod:`repro.kernels.sdm`
equalize coeff calc               CGA      :mod:`repro.kernels.sdm`
data shuffle                      CGA      :mod:`repro.kernels.sdm`
tracking                          VLIW     :mod:`repro.kernels.vliw_kernels`
comp                              CGA      :mod:`repro.kernels.comp`
demod QAM64                       CGA      :mod:`repro.kernels.demod`
================================  =======  ==================================

Data buffers use the packed complex layout of :mod:`repro.phy.fixed`:
one 32-bit word per complex sample (re in the low 16 bits), so 64-bit
SIMD loads fetch two consecutive samples.
"""

from repro.kernels.common import (
    cmul_packed,
    cmul_conj_packed,
    store_complex_array,
    load_complex_array,
    materialize_pair64,
)

__all__ = [
    "cmul_packed",
    "cmul_conj_packed",
    "store_complex_array",
    "load_complex_array",
    "materialize_pair64",
]
