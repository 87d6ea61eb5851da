"""FFT, MIMO (SDM/equaliser), CORDIC and VLIW kernel tests vs golden."""

import numpy as np
import pytest

from repro.arch import paper_core
from repro.compiler.builder import PhysReg
from repro.compiler.linker import ProgramLinker
from repro.kernels.common import (
    load_complex_array,
    pack_complex_word,
    store_complex_array,
)
from repro.kernels.fft import (
    build_first_stage_pair_dfg,
    build_radix4_stage_dfg,
    build_reorder_pair_dfg,
    reorder_table_words,
    twiddled_stages,
)
from repro.kernels.sdm import W_SHIFT, build_eqcoef_dfg, build_sdm_dfg
from repro.kernels.sync import (
    atan_table_q16,
    angle_q16_to_hz,
    build_cordic_dfg,
    cordic_atan2_q16,
)
from repro.kernels import vliw_kernels
from repro.isa.bits import to_signed
from repro.phy.fft import fft_fixed
from repro.phy.fixed import q15, quantize_complex
from repro.sim import Core
from repro.sim.core import INTERPRETERS


@pytest.fixture(scope="module")
def arch():
    return paper_core()


class TestFftKernels:
    """Full 64-point FFT of a grid pair, wired as the receiver wires it:
    digit-reverse gather, first stage, and two twiddled stages per grid."""

    SRC, GRID, TAB, TW = 0, 0x1000, 0x2000, 0x2400
    DELTA_SRC, DELTA = 0x400, 264

    def _run_fft(self, arch, signals, interpreter):
        n = 64
        linker = ProgramLinker(arch)
        linker.call_kernel(
            build_reorder_pair_dfg(delta_src=self.DELTA_SRC, delta_dst=self.DELTA),
            live_ins={"src": self.SRC, "dst": self.GRID, "tab": self.TAB},
            trip_count=n,
        )
        linker.call_kernel(
            build_first_stage_pair_dfg(delta=self.DELTA),
            live_ins={"buf": self.GRID},
            trip_count=n // 4,
        )
        stages = twiddled_stages(n)
        for s, (q, params, words) in enumerate(stages):
            for grid in range(2):
                linker.call_kernel(
                    build_radix4_stage_dfg("fft_r4_q%d_g%d" % (q, grid)),
                    live_ins={
                        "buf": self.GRID + grid * self.DELTA,
                        "tw": self.TW + 8 * len(words) * s,
                        **params,
                    },
                    trip_count=n // 8,
                )
        core = Core(arch, linker.link(), interpreter=interpreter)
        for grid, (re, im) in enumerate(signals):
            store_complex_array(core.scratchpad, self.SRC + grid * self.DELTA_SRC, re, im)
        for k, byte_off in enumerate(reorder_table_words(n)):
            core.scratchpad.write_word(self.TAB + 4 * k, byte_off, 4)
        for s, (_q, _params, words) in enumerate(stages):
            for k, w in enumerate(words):
                core.scratchpad.write_word(self.TW + 8 * (len(words) * s + k), w, 8)
        core.run()
        outs = [
            load_complex_array(core.scratchpad, self.GRID + grid * self.DELTA, n)
            for grid in range(2)
        ]
        return core, outs

    def test_fft64_matches_fixed_point_golden(self, arch):
        """Bit-exact on both simulator tiers."""
        rng = np.random.default_rng(11)
        signals = [
            quantize_complex(amp * (rng.normal(size=64) + 1j * rng.normal(size=64)))
            for amp in (0.25, 0.7)
        ]
        for interpreter in INTERPRETERS:
            _core, outs = self._run_fft(arch, signals, interpreter)
            for (re, im), (got_re, got_im) in zip(signals, outs):
                exp_re, exp_im = fft_fixed(re, im)
                assert np.array_equal(got_re, exp_re), interpreter
                assert np.array_equal(got_im, exp_im), interpreter

    def test_fft64_full_scale_saturates_like_golden(self, arch):
        """Full-scale corners exercise the adders' saturation."""
        full = np.full(64, 32767, dtype=np.int16)
        signals = [(full, full), (-full - 1, full)]
        _core, outs = self._run_fft(arch, signals, "compiled")
        for (re, im), (got_re, got_im) in zip(signals, outs):
            exp_re, exp_im = fft_fixed(re, im)
            assert np.array_equal(got_re, exp_re)
            assert np.array_equal(got_im, exp_im)

    def test_fft64_single_tone(self, arch):
        n, k0 = 64, 3
        t = np.arange(n)
        tone = quantize_complex(0.4 * np.exp(2j * np.pi * k0 * t / n))
        core, outs = self._run_fft(arch, [tone, tone], "compiled")
        for got_re, got_im in outs:
            mags = got_re.astype(np.int64) ** 2 + got_im.astype(np.int64) ** 2
            assert int(np.argmax(mags)) == k0
        # CGA-dominated region.
        assert core.stats.cga_fraction > 0.7


class TestMimoKernels:
    def _pack_matrix_rows(self, m, scale):
        """2x2 complex matrix -> two packed words (row-major)."""
        words = []
        for r in range(2):
            re0, im0 = int(q15(m[r, 0].real * scale)), int(q15(m[r, 0].imag * scale))
            re1, im1 = int(q15(m[r, 1].real * scale)), int(q15(m[r, 1].imag * scale))
            lo = pack_complex_word(re0, im0)
            hi = pack_complex_word(re1, im1)
            words.append(lo | (hi << 32))
        return words

    def test_eqcoef_then_sdm_recovers_streams(self, arch):
        """W = inv(H) computed on the array, then x_hat = W y."""
        rng = np.random.default_rng(12)
        n_carriers = 8
        hbase, wbase, ybase, xbase = 0, 512, 1024, 1536
        linker = ProgramLinker(arch)
        linker.call_kernel(
            build_eqcoef_dfg(),
            live_ins={"hbase": hbase, "wbase": wbase},
            trip_count=n_carriers,
        )
        linker.call_kernel(
            build_sdm_dfg(),
            live_ins={"ybase": ybase, "wbase": wbase, "xbase": xbase},
            trip_count=n_carriers,
        )
        program = linker.link()
        core = Core(arch, program)
        hs, xs, ys = [], [], []
        for c in range(n_carriers):
            # Well-conditioned random channel: the fixed-point W is Q8
            # and |det|^2 is Q15, so near-singular draws would amplify
            # quantisation beyond the check tolerance.
            while True:
                h = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 0.25
                h += 0.4 * np.eye(2)
                if abs(np.linalg.det(h)) >= 0.15:
                    break
            x = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 0.2
            y = h @ x
            hs.append(h)
            xs.append(x)
            ys.append(y)
            for i, w in enumerate(self._pack_matrix_rows(h, 1.0)):
                core.scratchpad.write_word(hbase + 16 * c + 8 * i, w, 8)
            re0, im0 = int(q15(y[0].real)), int(q15(y[0].imag))
            re1, im1 = int(q15(y[1].real)), int(q15(y[1].imag))
            yw = pack_complex_word(re0, im0) | (pack_complex_word(re1, im1) << 32)
            core.scratchpad.write_word(ybase + 8 * c, yw, 8)
        core.run()
        # x_hat comes back in Q(W_SHIFT).
        for c in range(n_carriers):
            word = core.scratchpad.read_word(xbase + 8 * c, 8)
            lanes = [to_signed(word >> (16 * l), 16) for l in range(4)]
            scale = 1 << W_SHIFT
            got = np.array(
                [lanes[0] + 1j * lanes[1], lanes[2] + 1j * lanes[3]]
            ) / scale
            assert np.max(np.abs(got - xs[c])) < 0.08

    def test_sdm_identity_equalizer(self, arch):
        """W = I passes y through (scaled by Q(W_SHIFT))."""
        n_carriers = 4
        wbase, ybase, xbase = 0, 256, 512
        linker = ProgramLinker(arch)
        linker.call_kernel(
            build_sdm_dfg(),
            live_ins={"ybase": ybase, "wbase": wbase, "xbase": xbase},
            trip_count=n_carriers,
        )
        core = Core(arch, linker.link())
        one = 1 << W_SHIFT
        for c in range(n_carriers):
            row0 = pack_complex_word(one, 0)  # w00 = 1, w01 = 0
            row1 = pack_complex_word(one, 0) << 32  # w10 = 0, w11 = 1
            core.scratchpad.write_word(wbase + 16 * c, row0, 8)
            core.scratchpad.write_word(wbase + 16 * c + 8, row1, 8)
            yw = pack_complex_word(1000 + c, -500) | (pack_complex_word(250, 125 + c) << 32)
            core.scratchpad.write_word(ybase + 8 * c, yw, 8)
        core.run()
        one_q8 = 1 << W_SHIFT
        for c in range(n_carriers):
            word = core.scratchpad.read_word(xbase + 8 * c, 8)
            lanes = [to_signed(word >> (16 * l), 16) for l in range(4)]
            # Output is Q8: x = (1.0 * y) requantised from Q15 to Q8.
            for lane, y_raw in zip(lanes, (1000 + c, -500, 250, 125 + c)):
                expected = (one_q8 * y_raw) >> 15  # floor, like d4prod
                assert abs(lane - expected) <= 1


class TestCordic:
    def test_golden_cordic_approximates_atan2(self):
        for angle in (-1.2, -0.4, 0.0, 0.3, 1.0):
            x = int(20000 * np.cos(angle))
            y = int(20000 * np.sin(angle))
            got = cordic_atan2_q16(y, x) / (1 << 16)
            assert got == pytest.approx(angle, abs=3e-3)

    def test_kernel_matches_golden(self, arch):
        iters = 14
        tab_addr = 0
        x0, y0 = 18000, -7000
        linker = ProgramLinker(arch)
        x_reg, y_reg = PhysReg(40), PhysReg(41)
        vb = linker.vliw()
        vb.op(vliw_kernels.Opcode.ADD, 0, x0, dst=x_reg)
        vb.op(vliw_kernels.Opcode.ADD, 0, y0, dst=y_reg)
        outs = linker.call_kernel(
            build_cordic_dfg(iterations=iters),
            live_ins={"tab": tab_addr, "x0": x_reg, "y0": y_reg},
            trip_count=iters,
        )
        core = Core(arch, linker.link())
        for k, v in enumerate(atan_table_q16(iters)):
            core.scratchpad.write_word(tab_addr + 4 * k, v, 4)
        core.run()
        got = to_signed(core.cdrf.peek(outs["angle"].index), 32)
        assert got == cordic_atan2_q16(y0, x0, iters)

    def test_angle_to_hz(self):
        angle = cordic_atan2_q16(0, 30000)  # zero angle
        assert angle_q16_to_hz(angle, 16, 20e6) == pytest.approx(0.0, abs=100.0)


class TestVliwKernels:
    def run_section(self, arch, build, mem=()):
        linker = ProgramLinker(arch)
        build(linker.vliw())
        core = Core(arch, linker.link())
        for addr, value, size in mem:
            core.scratchpad.write_word(addr, value, size)
        core.run()
        return core

    def test_tracking_phasor(self, arch):
        grid = 0
        # Pilots at word offsets 3, 5 with signs +1, -1; rotated by 0.2
        # rad, at the detector's Q8 unit amplitude.
        phase = 0.2
        amp = 256
        p_plus = pack_complex_word(
            int(amp * np.cos(phase)), int(amp * np.sin(phase))
        )
        p_minus = pack_complex_word(
            int(-amp * np.cos(phase)), int(-amp * np.sin(phase))
        )
        mem = [(grid + 12, p_plus, 4), (grid + 20, p_minus, 4)]
        out_reg = PhysReg(45)

        def build(vb):
            vliw_kernels.emit_tracking(
                vb, grid, [12, 20], [1, -1], out_reg, scratch_addr=1000
            )

        core = self.run_section(arch, build, mem)
        word = core.cdrf.peek(45)
        re = to_signed(word & 0xFFFF, 16)
        im = to_signed((word >> 16) & 0xFFFF, 16)
        got_phase = np.arctan2(-im, re)  # stored conjugated
        assert got_phase == pytest.approx(phase, abs=0.01)
        # Both packed halves equal.
        assert (word >> 32) == (word & 0xFFFFFFFF)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tracking_phasor_saturates_instead_of_wrapping(self, arch, sign):
        """Four pilots a few LSBs above unit amplitude (sum 1032 > 1027)
        clamp to +-32767; a wrapped lane would flip the phasor by 180°."""
        mem = [(4 * k, pack_complex_word(sign * 258, 0), 4) for k in range(4)]
        out_reg = PhysReg(45)

        def build(vb):
            vliw_kernels.emit_tracking(
                vb, 0, [0, 4, 8, 12], [1, 1, 1, 1], out_reg, scratch_addr=1000
            )

        core = self.run_section(arch, build, mem)
        word = core.cdrf.peek(45)
        assert to_signed(word & 0xFFFF, 16) == sign * 32767
        assert to_signed((word >> 16) & 0xFFFF, 16) == 0
