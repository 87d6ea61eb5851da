"""Kernels that read the ADC stream and the FFT grids in place.

Each consumer of a former copy pass must compute exactly what it
computed on the copy: bit-exact on seeded random Q15 data, on both the
``reference`` and the ``compiled`` tier.
"""

import numpy as np
import pytest

from repro.arch import paper_core
from repro.compiler.linker import ProgramLinker
from repro.kernels.acorr import build_acorr_adc_dfg, build_acorr_dfg
from repro.kernels.fshift import (
    build_fshift_ant0_dfg,
    build_fshift_pair_dfg,
    build_gather_rotate_dfg,
    phasor_pair_table_words,
    phasor_table_words,
    phasor_table_words32,
)
from repro.kernels.sdm import build_chanest_dfg
from repro.phy.fft import digit_reverse_indices
from repro.sim import Core
from repro.sim.core import INTERPRETERS

#: ADC stream, deinterleaved antenna buffers and outputs (byte addresses).
RXIN, ANT0, ANT1 = 0x0000, 0x1000, 0x1800
TAB, OUT0, OUT1 = 0x2000, 0x3000, 0x3800


def q15_words(rng, n):
    """*n* random packed Q15 complex samples as uint32 words."""
    lanes = rng.integers(-20000, 20000, size=(n, 2)).astype(np.int16)
    return lanes.view(np.uint32).ravel()


def adc_image(rng, n_pairs):
    """A scratchpad image holding an ADC stream and its deinterleaved copy."""
    a0, a1 = q15_words(rng, n_pairs), q15_words(rng, n_pairs)
    image = bytearray(paper_core().l1.bytes)
    image[RXIN : RXIN + 8 * n_pairs] = np.stack([a0, a1], 1).tobytes()
    image[ANT0 : ANT0 + 4 * n_pairs] = a0.tobytes()
    image[ANT1 : ANT1 + 4 * n_pairs] = a1.tobytes()
    return image


def write(image, addr, words, size):
    data = np.asarray(words, dtype="<u%d" % size).tobytes()
    image[addr : addr + len(data)] = data


def run(calls, image, interpreter):
    """Link *calls* ``[(dfg, live_ins, trips)]`` into one program, run it."""
    arch = paper_core()
    linker = ProgramLinker(arch)
    outs = [linker.call_kernel(dfg, live_ins=li, trip_count=t) for dfg, li, t in calls]
    core = Core(arch, linker.link(), interpreter=interpreter)
    core.scratchpad._mem[:] = image
    core.run()
    return core, outs


def mem(core, addr, n_bytes):
    return bytes(core.scratchpad._mem[addr : addr + n_bytes])


@pytest.mark.parametrize("interpreter", INTERPRETERS)
def test_pair_rotate_equals_two_single_antenna_rotates(interpreter):
    n = 64
    image = adc_image(np.random.default_rng(1), n)
    write(image, TAB, phasor_pair_table_words(-120e3, 20e6, n, start_sample=37), 8)
    write(image, TAB + 0x800, phasor_table_words(-120e3, 20e6, n, start_sample=37), 8)
    pair, _ = run(
        [(build_fshift_pair_dfg(delta_dst=OUT1 - OUT0),
          {"src": RXIN, "dst": OUT0, "tab": TAB}, n)],
        image, interpreter,
    )
    # The single-antenna rotate reads antenna a through the RXIN + 4a view.
    single, _ = run(
        [(build_fshift_ant0_dfg("fshift_a%d" % ant),
          {"src": RXIN + 4 * ant, "dst": dst, "tab": TAB + 0x800}, n // 2)
         for ant, dst in enumerate((OUT0, OUT1))],
        image, interpreter,
    )
    for dst in (OUT0, OUT1):
        assert mem(pair, dst, 4 * n) == mem(single, dst, 4 * n)
    assert any(mem(pair, OUT1, 4 * n))


@pytest.mark.parametrize("interpreter", INTERPRETERS)
def test_adc_acorr_equals_acorr_on_deinterleaved_copy(interpreter):
    image = adc_image(np.random.default_rng(2), 96)
    pos, lag, window = 10, 16, 32
    adc, adc_outs = run(
        [(build_acorr_adc_dfg(lag_samples=lag), {"base": RXIN + 8 * pos}, window // 2)],
        image, interpreter,
    )
    copy, copy_outs = run(
        [(build_acorr_dfg(lag_samples=lag), {"base": ANT0 + 4 * pos}, window // 2)],
        image, interpreter,
    )
    for name in ("corr", "energy"):
        got = adc.cdrf.peek(adc_outs[0][name].index)
        assert got == copy.cdrf.peek(copy_outs[0][name].index)
        assert got != 0


@pytest.mark.parametrize("interpreter", INTERPRETERS)
def test_two_run_chanest_equals_chanest_on_compacted_spectra(interpreter):
    rng = np.random.default_rng(3)
    grid1, grid2, sgn, comp1, comp2 = 0x0000, 0x0200, 0x0400, 0x0600, 0x0800
    image = bytearray(paper_core().l1.bytes)
    y1, y2 = q15_words(rng, 64), q15_words(rng, 64)
    write(image, grid1, y1, 4)
    write(image, grid2, y2, 4)
    used = list(range(1, 29)) + list(range(36, 64))
    write(image, comp1, y1[used], 4)
    write(image, comp2, y2[used], 4)
    write(image, sgn, rng.integers(0, 2**63, size=28, dtype=np.uint64), 8)
    compacted, _ = run(
        [(build_chanest_dfg(), {"y1": comp1, "y2": comp2, "sgn": sgn, "hout": OUT0}, 28)],
        image, interpreter,
    )
    in_place, _ = run(
        [(build_chanest_dfg("chanest_r%d" % r),
          {"y1": grid1 + 4 * first, "y2": grid2 + 4 * first,
           "sgn": sgn + 4 * carrier, "hout": OUT0 + 16 * carrier}, 14)
         for r, (first, carrier) in enumerate(((1, 0), (36, 28)))],
        image, interpreter,
    )
    assert mem(in_place, OUT0, 16 * 56) == mem(compacted, OUT0, 16 * 56)
    assert any(mem(in_place, OUT0, 16 * 56))


@pytest.mark.parametrize("interpreter", INTERPRETERS)
def test_gather_rotate_from_adc_equals_antenna_buffer_version(interpreter):
    image = adc_image(np.random.default_rng(4), 160)
    start, ph = 80 + 16, 0x2800
    rev = [start + int(r) for r in digit_reverse_indices(64)]
    write(image, TAB, [8 * k for k in rev], 4)
    write(image, TAB + 0x100, [4 * k for k in rev], 4)
    write(image, ph, phasor_table_words32(75e3, 20e6, rev), 4)
    delta_dst = OUT1 - OUT0
    adc, _ = run(
        [(build_gather_rotate_dfg(delta_src=4, delta_dst=delta_dst),
          {"src": RXIN, "dst": OUT0, "tab": TAB, "ph": ph}, 64)],
        image, interpreter,
    )
    copy, _ = run(
        [(build_gather_rotate_dfg(delta_src=ANT1 - ANT0, delta_dst=delta_dst),
          {"src": ANT0, "dst": OUT0, "tab": TAB + 0x100, "ph": ph}, 64)],
        image, interpreter,
    )
    for dst in (OUT0, OUT1):
        assert mem(adc, dst, 256) == mem(copy, dst, 256)
    assert any(mem(adc, OUT1, 256))
