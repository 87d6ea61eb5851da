"""End-to-end kernel tests: compile, simulate, compare with PHY golden."""

import numpy as np

from repro.arch import paper_core
from repro.compiler.linker import ProgramLinker
from repro.kernels.acorr import build_acorr_dfg
from repro.kernels.common import load_complex_array, store_complex_array
from repro.kernels.demod import build_demod_dfg, labels_to_bits
from repro.kernels.fshift import (
    build_cfo_rotate,
    build_fshift_ant0_dfg,
    phasor_table_words,
    rotate_constants,
)
from repro.kernels.xcorr import build_xcorr_dfg
from repro.isa.bits import split_lanes
from repro.phy.fixed import quantize_complex
from repro.phy.freq import fshift
from repro.phy.qam import qam64_modulate
from repro.sim import Core


def run_one_kernel(dfg, live_ins, trip, setup_mem=None):
    arch = paper_core()
    linker = ProgramLinker(arch)
    outs = linker.call_kernel(dfg, live_ins=live_ins, trip_count=trip)
    program = linker.link()
    core = Core(arch, program)
    if setup_mem:
        setup_mem(core.scratchpad)
    core.run()
    return core, outs, linker.kernel_results[0]


def rng_signal(n, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return x


class TestFshift:
    def test_matches_table_rotation_golden(self):
        n = 64
        x = rng_signal(n, 1)
        re, im = quantize_complex(x)
        freq, fs = 200e3, 20e6
        table = phasor_table_words(freq, fs, n)

        def setup(pad):
            # ADC stream: antenna 0 in the low word of each 64-bit pair,
            # antenna 1 (the negated samples) in the high word.
            store_complex_array(pad, 0, np.stack([re, -re], 1).ravel(),
                                np.stack([im, -im], 1).ravel())
            for k, w in enumerate(table):
                pad.write_word(1024 + 8 * k, w, 8)

        core, outs, result = run_one_kernel(
            build_fshift_ant0_dfg(),
            live_ins={"src": 0, "dst": 2048, "tab": 1024},
            trip=n // 2,
            setup_mem=setup,
        )
        got_re, got_im = load_complex_array(core.scratchpad, 2048, n)
        # Golden: exact Q15 complex multiply with the same table.
        from repro.phy.fixed import cmul_q15

        tab_re = np.zeros(n, dtype=np.int16)
        tab_im = np.zeros(n, dtype=np.int16)
        for k, w in enumerate(table):
            lanes = split_lanes(w)
            tab_re[2 * k], tab_im[2 * k] = lanes[0], lanes[1]
            tab_re[2 * k + 1], tab_im[2 * k + 1] = lanes[2], lanes[3]
        exp_re, exp_im = cmul_q15(re, im, tab_re, tab_im)
        assert np.array_equal(got_re, exp_re)
        assert np.array_equal(got_im, exp_im)
        # High IPC, pure CGA (paper: 12-13).
        cga_ipc = core.stats.cga_ops / core.stats.cga_cycles
        assert cga_ipc > 4

    def test_cfo_rotate_recursive_phasor(self):
        n = 64
        x = rng_signal(n, 2)
        re, im = quantize_complex(x)
        freq, fs = -120e3, 20e6
        step_word, ph0_word = rotate_constants(freq, fs)
        dfg = build_cfo_rotate("cfo_rotate", step_word, ph0_word)

        def setup(pad):
            store_complex_array(pad, 0, re, im)

        core, outs, result = run_one_kernel(
            dfg, live_ins={"src": 0, "dst": 2048}, trip=n // 2, setup_mem=setup
        )
        got_re, got_im = load_complex_array(core.scratchpad, 2048, n)
        got = got_re / 32768.0 + 1j * got_im / 32768.0
        ref = fshift(x, freq, fs)
        # Recursive Q15 phasor accumulates small magnitude/phase error.
        assert np.max(np.abs(got - ref)) < 0.05
        # The phasor recurrence bounds II: IPC visibly below plain fshift.
        assert result.ii >= 3


class TestAcorr:
    def test_correlation_and_energy_match_numpy(self):
        lag, window = 16, 32
        n = lag + window
        # Periodic signal -> strong lag correlation.
        base = rng_signal(lag, 3, scale=0.25)
        x = np.tile(base, n // lag + 1)[:n]
        re, im = quantize_complex(x)

        def setup(pad):
            store_complex_array(pad, 0, re, im)

        core, outs, result = run_one_kernel(
            build_acorr_dfg(lag_samples=lag, acc_shift=4),
            live_ins={"base": 0},
            trip=window // 2,
            setup_mem=setup,
        )
        corr_word = core.cdrf.peek(outs["corr"].index)
        lanes = split_lanes(corr_word)
        got_re = lanes[0] + lanes[2]
        got_im = lanes[1] + lanes[3]
        # Golden with identical fixed-point steps.
        from repro.phy.fixed import cmul_q15

        pr, pi = cmul_q15(re[lag : lag + window], im[lag : lag + window],
                          re[:window], -im[:window])
        exp_re = int(np.sum(pr.astype(np.int32) >> 4))
        exp_im = int(np.sum(pi.astype(np.int32) >> 4))
        assert abs(got_re - exp_re) <= window  # lane-order rounding only
        assert abs(got_im - exp_im) <= window
        # Positive real correlation for a periodic signal.
        assert got_re > 0
        energy = split_lanes(core.cdrf.peek(outs["energy"].index))
        assert sum(energy) > 0


class TestXcorr:
    def test_peak_at_alignment(self):
        ref_len = 32
        ref = rng_signal(ref_len, 4, scale=0.3)
        ref_re, ref_im = quantize_complex(ref)
        # Signal = zeros + ref at offset 8 samples.
        sig = np.concatenate([np.zeros(8), ref, np.zeros(8)])
        sig_re, sig_im = quantize_complex(sig)

        corr_mags = []
        for pos in range(0, 12, 2):  # candidate positions (even samples)
            def setup(pad, pos=pos):
                store_complex_array(pad, 0, sig_re, sig_im)
                store_complex_array(pad, 2048, ref_re, ref_im)

            core, outs, result = run_one_kernel(
                build_xcorr_dfg(),
                live_ins={"base": 4 * pos, "ref": 2048},
                trip=ref_len // 2,
                setup_mem=setup,
            )
            lanes = split_lanes(core.cdrf.peek(outs["corr"].index))
            c_re, c_im = lanes[0] + lanes[2], lanes[1] + lanes[3]
            corr_mags.append(c_re * c_re + c_im * c_im)
        assert int(np.argmax(corr_mags)) == 4  # position 8 samples


class TestDemod:
    def test_hard_decisions_match_golden(self):
        rng = np.random.default_rng(9)
        n_sym = 52
        bits = rng.integers(0, 2, size=n_sym * 6)
        symbols = qam64_modulate(bits)
        # Half-normalised Q15 input, as produced by comp.
        re, im = quantize_complex(symbols, scale=0.5)

        def setup(pad):
            store_complex_array(pad, 0, re, im)

        core, outs, result = run_one_kernel(
            build_demod_dfg(),
            live_ins={"src": 0, "dst": 2048},
            trip=n_sym // 2,
            setup_mem=setup,
        )
        words = [core.scratchpad.read_word(2048 + 8 * k, 8) for k in range(n_sym // 2)]
        got_bits = labels_to_bits(words, n_sym)
        assert np.array_equal(got_bits, bits)
        cga_ipc = core.stats.cga_ops / core.stats.cga_cycles
        assert cga_ipc > 4  # paper: 12.04
