"""The complete receive pipeline on the simulated processor.

:class:`SimReceiver` holds the receive pipeline: every Table 2 kernel,
compiled by the DRESC-like compiler, plus the host orchestration
between them.  The pipeline is organised as a sequence of *regions*,
one per Table 2 row; each region is a small program (VLIW glue + CGA
kernels) whose scratchpad image carries the modem state forward.
:meth:`SimReceiver._pipeline` yields those regions one by one, and
:class:`repro.runtime.ModemRuntime`, the only driver, runs each on a
resident cycle-accurate core and sends the result back.

The kernels read their inputs where they already are: antenna *a*'s
sample *k* at ``RXIN + 8k + 4a`` in the ADC stream, the used carriers
as two bin runs of each FFT grid.  The paper's three layout-only rows
(``sample ordering``, ``sample reordering``, ``remove zero carriers``)
therefore run nothing: each keeps its Table 2 row as a zero-cycle
:func:`fused_region` marked with the consumer that absorbed it.

Host orchestration
------------------
The processor is a slave in a multi-core platform (Section 2.A); the
control processor loads samples and tables over the bus, reads status
registers between phases and supplies scheduling decisions.  In this
reproduction the Python host plays that role: it moves data between
regions (the scratchpad image), converts the kernels' correlation
outputs into the compensation constants (using the same fixed-point
CORDIC arithmetic as the on-array kernel) and selects among the
candidate positions evaluated by the detection/timing kernels.  Every
signal-processing operation itself runs on the simulated processor.

Measurement methodology: each region is measured with a warm
instruction cache (steady-state behaviour; the paper's numbers likewise
exclude cold-start effects) and configuration memories preloaded by DMA
(counted separately for the power model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch import paper_core
from repro.compiler.builder import PhysReg
from repro.compiler.linker import ProgramLinker
from repro.compiler.modulo import ScheduleResult
from repro.isa.bits import split_lanes, to_signed
from repro.isa.opcodes import Opcode
from repro.kernels import vliw_kernels
from repro.kernels.acorr import build_acorr_adc_dfg, build_acorr_dfg
from repro.kernels.comp import build_comp_dfg
from repro.kernels.demod import build_demod_dfg
from repro.kernels.fft import (
    build_first_stage_pair_dfg,
    build_radix4_stage_dfg,
    build_reorder_pair_dfg,
    reorder_table_words,
    twiddled_stages,
)
from repro.kernels.fshift import (
    build_cfo_rotate,
    build_fshift_ant0_dfg,
    build_fshift_pair_dfg,
    build_gather_rotate_dfg,
    cfo_rotate_patch,
    phasor_pair_table_words,
    phasor_table_words,
    phasor_table_words32,
    rotate_constants,
)
from repro.kernels.sdm import (
    build_chanest_dfg,
    build_eqcoef_dfg,
    build_sdm_dfg,
    build_shuffle_dfg,
)
from repro.kernels.sync import (
    angle_q16_to_hz,
    atan_table_q16,
    build_cordic_dfg,
    cordic_atan2_q16,
)
from repro.kernels.xcorr import build_xcorr_dfg
from repro.modem.memory_map import DEFAULT_MAP
from repro.phy import preamble as phy_preamble
from repro.phy.fft import digit_reverse_indices
from repro.phy.fixed import q15
from repro.phy.params import DATA_SYMBOLS, PARAMS_20MHZ_2X2
from repro.phy.ofdm import PILOT_POLARITY, PILOT_VALUES
from repro.sim.batch import BatchProgramRunner
from repro.sim.program import Program
from repro.sim.stats import ActivityStats, KernelProfile

#: Samples of the STF/LTF sync region the detection search spans.
_SYNC_SAMPLES = 352

#: Hard floor on packet length: the 352-sample sync region plus the
#: first HT-LTF sample pair.
MIN_PACKET_SAMPLES = 354

#: ADC-stream capacity in sample pairs (the 8 KB RXIN buffer).
_RXIN_CAPACITY = 1024

#: The used carriers as contiguous bin runs (first bin, length): the
#: FFT grids are read in place, one ``chanest`` call per run.
_BIN_RUNS = ((1, 28), (36, 28))

#: The bit positions of a 3-bit Gray label, most significant first.
_LABEL_SHIFTS = np.array([2, 1, 0])

#: Furthest sample the detection autocorrelation reads past a candidate
#: position: a 32-sample window at 64-bit granularity plus the 16-sample
#: lag.
_ACORR_SPAN = 48

#: Middle of the three detection candidates (the others sit 16 samples
#: either side): the host's coarse knowledge of when the slave was
#: started relative to the RF front-end stream.  The last candidate's
#: window must end inside the sync region:
#: ``_DETECT_START + 16 + _ACORR_SPAN <= _SYNC_SAMPLES``.
_DETECT_START = 32

# Parameter-block slot indices (32-bit words at MemoryMap.PARAM).  The
# host writes these before each region; region programs load them as
# kernel live-ins / loop bounds, which (with the patched immediates) is
# what makes one linked program serve every packet.
_P_CAND = (0, 1, 2)  # acorr candidate base addresses (RXIN + 8*pos)
_P_FSHIFT_SRC = 3  # coarse-rotate source (RXIN + 8*ltf_guess)
_P_ACORR2_BASE = 4  # fine-acorr base (WORK0 + 4*ltf1_rel)
_P_CORDIC_X = 5  # fine correlation re (two's complement)
_P_CORDIC_Y = 6  # fine correlation im
_P_HT_SRC = 7  # HT-LTF rotate source (RXIN + 8*ht_start)
_P_DATA_SRC = 8  # data gather source (RXIN + 8*data_start)

#: Placeholder immediate the ``non-kernel code`` program is linked
#: against for the packet's sample count; each packet's count is
#: stamped over it with ``patch_constants``.  No packet length (at most
#: the RXIN capacity) can equal it.
N_SAMPLES_SENTINEL = 0x5A3F_0C0F_5A3F_0C0F


@dataclass
class RegionRun:
    """One profiled pipeline region (one Table 2 row)."""

    name: str
    profile: KernelProfile
    outputs: Dict[str, int] = field(default_factory=dict)


def fused_region(name: str, into: str) -> RegionRun:
    """A Table 2 row whose work another row's kernels absorbed.

    Nothing is simulated for it: the row keeps its place in the table
    with a zero-cycle profile marked "fused into *into*".
    """
    return RegionRun(name, KernelProfile(name, ActivityStats(), fused_into=into))


@dataclass
class RegionRequest:
    """One region the pipeline generator asks its driver to execute.

    :meth:`SimReceiver._pipeline` yields these and receives
    ``(RegionRun, image)`` back.  The driver,
    :class:`repro.runtime.ModemRuntime`, links the region's program once
    per region id ``(name,) + key``, stamps *patch* into its
    configuration immediates, resets the packet's lane core to that
    program and *image*, and runs it: in lockstep with the other
    packets' lanes on the untraced compiled tier, alone otherwise, and
    alone again on the same core when a lockstep lane faults.

    *key* is only the variant tag that tells same-named regions apart
    (``("detect",)``/``("fine",)`` for ``acorr``, ``("ltf",)``/
    ``("ht",)``/``("data",)`` for ``fshift``, ``("pre",)``/
    ``("data",)`` for ``fft`` and ``SDM processing``), else ``()``: no
    program depends on the packet, so every packet of every shape
    requests the same 18 region ids.
    """

    name: str
    image: bytearray
    build: Callable[[ProgramLinker], Dict[str, object]]
    key: tuple = ()
    patch: Optional[Dict[int, int]] = None


@dataclass
class LinkedRegion:
    """One linked region program and everything resident for it."""

    program: Program
    #: Host-visible register handles the region's builder returned.
    handles: Dict[str, object]
    #: Scheduling metadata (II, MII bounds, stages) of the program's
    #: kernels, in call order.
    kernels: List[ScheduleResult]
    #: The region's lockstep runner: its memos are keyed by pc or kernel
    #: slot and lane, so each region keeps its own to stay warm.
    runner: BatchProgramRunner = field(default_factory=BatchProgramRunner)


@dataclass
class ReceiverOutput:
    """Result of running one packet through the simulated receiver."""

    preamble_regions: List[RegionRun]
    data_regions: List[RegionRun]
    bits: np.ndarray
    detect_pos: int
    ltf1_start: int
    coarse_cfo_hz: float
    fine_cfo_hz: float
    stats: ActivityStats
    #: Final scratchpad contents (all intermediate buffers), for
    #: inspection and tests.
    image: bytes = b""

    @property
    def preamble_cycles(self) -> int:
        return sum(r.profile.cycles for r in self.preamble_regions)

    @property
    def data_cycles(self) -> int:
        return sum(r.profile.cycles for r in self.data_regions)

    @property
    def cfo_hz(self) -> float:
        return self.coarse_cfo_hz + self.fine_cfo_hz


def _interleave_words(rx_re: np.ndarray, rx_im: np.ndarray) -> List[int]:
    """ADC stream: alternating antenna words (a0[k], a1[k])."""
    words = rx_re.astype(np.int16).view(np.uint16).astype(np.uint32) | (
        rx_im.astype(np.int16).view(np.uint16).astype(np.uint32) << np.uint32(16)
    )
    return words.T.reshape(-1).tolist()


class SimReceiver:
    """The 2x2 MIMO-OFDM receive pipeline and its linked region programs.

    It has the paper's one configuration: :func:`paper_core`, the
    20 MHz 2x2 numerology, :data:`DEFAULT_MAP` and one merged pair of
    :data:`DATA_SYMBOLS` data symbols per packet (any sample count from
    :data:`MIN_PACKET_SAMPLES` to the ADC buffer).  Packets run through
    :class:`repro.runtime.ModemRuntime`, which drives :meth:`_pipeline`.
    """

    def __init__(self) -> None:
        self.arch = paper_core()
        self.params = params = PARAMS_20MHZ_2X2
        self.mem = mem = DEFAULT_MAP
        #: Compact-carrier order: bins 1..28 then 36..63 (the used-bin
        #: runs, in the order the channel estimate stores them).
        self.compact_bins = [
            b for first, n in _BIN_RUNS for b in range(first, first + n)
        ]
        #: The compact index of each data carrier, in carrier order.
        self._data_rows = np.array([self.compact_bins.index(b) for b in params.data_carriers])
        #: [(tw_addr, q, stage live-ins, twiddle words)] per twiddled FFT
        #: stage, the tables packed back to back from ``TWID``.
        self._fft_stages: List[Tuple[int, int, dict, List[int]]] = []
        tw_addr = mem.TWID
        for q, live_ins, words in twiddled_stages(params.n_fft):
            self._fft_stages.append((tw_addr, q, live_ins, words))
            tw_addr += 8 * len(words)
        #: One record per linked region program, keyed by region id.
        #: Programs are pure functions of the region, not of the packet
        #: or its shape: all packet data reaches them through the
        #: scratchpad image — notably the parameter block — or through
        #: configuration-immediate patching (the sample count included),
        #: so one link serves every packet (the paper's compile-once
        #: flow).
        self.regions: Dict[tuple, LinkedRegion] = {}
        self._tables: Optional[bytes] = None

    @property
    def compiled_programs(self) -> int:
        """Number of region programs linked so far (compile-once cache:
        18 once a packet has run, whatever its shape)."""
        return len(self.regions)

    # ------------------------------------------------------------------
    # Linked region programs.
    # ------------------------------------------------------------------

    def _region_program(
        self,
        rid: tuple,
        name: str,
        build: Callable[[ProgramLinker], Dict[str, object]],
    ) -> LinkedRegion:
        region = self.regions.get(rid)
        if region is None:
            linker = ProgramLinker(self.arch, name=name)
            handles = build(linker) or {}
            region = self.regions[rid] = LinkedRegion(
                linker.link(), handles, linker.kernel_results
            )
        return region

    # ------------------------------------------------------------------
    # Host-side table builders.
    # ------------------------------------------------------------------

    def _write_words(self, image: bytearray, addr: int, words: Sequence[int], size: int = 4):
        if size in (4, 8):
            data = np.asarray(
                words, dtype="<u4" if size == 4 else "<u8"
            ).tobytes()
            image[addr : addr + len(data)] = data
            return
        for k, w in enumerate(words):
            image[addr + size * k : addr + size * (k + 1)] = int(w).to_bytes(
                size, "little"
            )

    def _write_param(self, image: bytearray, slot: int, value: int) -> None:
        """Host-write one packet parameter word (the runtime live-ins)."""
        self._write_words(image, self.mem.PARAM + 4 * slot, [int(value) & 0xFFFFFFFF])

    def _load_param(self, vb, slot: int):
        """Glue: load one parameter word into a register of *vb*'s section."""
        base = vb.mov_imm(self.mem.PARAM)
        return vb.load(Opcode.LD_I, base, slot)

    def _ltf_ref_words(self) -> List[int]:
        """Packed Q15 LTF reference (64 samples -> 32 words)."""
        sym = phy_preamble.ltf_symbol(self.params.n_fft)
        re, im = q15(sym.real * 2.0), q15(sym.imag * 2.0)  # 2x gain for SNR
        words = []
        for k in range(0, len(sym), 2):
            lo = (int(np.uint16(re[k]))) | (int(np.uint16(im[k])) << 16)
            hi = (int(np.uint16(re[k + 1]))) | (int(np.uint16(im[k + 1])) << 16)
            words.append(lo | (hi << 32))
        return words

    def _sign_table_words(self) -> List[int]:
        """Channel-combining sign table: one word per compact Y word."""
        seq = phy_preamble.ht_ltf_sequence(self.params.n_fft)
        words = []
        for k in range(0, len(self.compact_bins), 2):
            s0 = 32767 if seq[self.compact_bins[k]] > 0 else -32767
            s1 = 32767 if seq[self.compact_bins[k + 1]] > 0 else -32767
            lanes = [s0, s0, s1, s1]
            word = 0
            for li, lane in enumerate(lanes):
                word |= (lane & 0xFFFF) << (16 * li)
            words.append(word)
        return words

    def _bin_table_words(self) -> List[int]:
        """Byte offsets of the used carriers within a 64-bin grid."""
        return [4 * b for b in self.compact_bins]

    def _gather_table_words(self, payload_start: int) -> List[int]:
        """CP-strip + digit-reversal byte offsets into the ADC stream."""
        rev = digit_reverse_indices(self.params.n_fft)
        return [8 * (payload_start + int(r)) for r in rev]

    def _table_image(self) -> bytes:
        """The scratchpad image every packet starts from: the
        packet-independent tables (ATAN, XCREF, RTAB, BINTAB, SGN and the
        FFT twiddles), built once per receiver."""
        if self._tables is None:
            mem = self.mem
            image = bytearray(self.arch.l1.bytes)
            self._write_words(image, mem.ATAN, atan_table_q16(14))
            self._write_words(image, mem.XCREF, self._ltf_ref_words(), size=8)
            self._write_words(image, mem.RTAB, reorder_table_words(self.params.n_fft))
            self._write_words(image, mem.BINTAB, self._bin_table_words())
            self._write_words(image, mem.SGN, self._sign_table_words(), size=8)
            for tw_addr, _q, _live_ins, words in self._fft_stages:
                self._write_words(image, tw_addr, words, size=8)
            self._tables = bytes(image)
        return self._tables

    # ------------------------------------------------------------------
    # FFT region helper: first stage on the buffer pair, then each
    # twiddled stage once per buffer.
    # ------------------------------------------------------------------

    def _emit_fft_stages(self, linker: ProgramLinker, buf: int) -> None:
        n = self.params.n_fft
        delta = self.mem.fft_pair_delta
        linker.call_kernel(
            build_first_stage_pair_dfg(delta=delta), live_ins={"buf": buf}, trip_count=n // 4
        )
        for tw_addr, q, live_ins, _words in self._fft_stages:
            for grid in range(2):
                linker.call_kernel(
                    build_radix4_stage_dfg("fft_r4_q%d_g%d" % (q, grid)),
                    live_ins={"buf": buf + grid * delta, "tw": tw_addr, **live_ins},
                    trip_count=n // 8,
                )

    # ------------------------------------------------------------------
    # The packet pipeline.
    # ------------------------------------------------------------------

    def _pipeline(self, rx: np.ndarray):
        """The packet pipeline as a region generator.

        Yields one :class:`RegionRequest` per Table 2 region, in packet
        order, and expects ``(RegionRun, image)`` sent back for each;
        returns the :class:`ReceiverOutput` via ``StopIteration``.  All
        host orchestration (candidate picks, CORDIC constants, parameter
        blocks) lives between the yields, so executing the requested
        regions faithfully, one packet at a time or in lockstep across
        packets, produces bit-identical packets.
        """
        mem = self.mem
        fs = self.params.sample_rate_hz
        rx = np.atleast_2d(np.asarray(rx, dtype=np.complex128))
        n_samples = rx.shape[1]
        if n_samples < MIN_PACKET_SAMPLES:
            raise ValueError(
                "packet too short: %d samples; the receive pipeline needs at "
                "least %d (the 352-sample STF/LTF sync region plus the first "
                "HT-LTF sample pair)" % (n_samples, MIN_PACKET_SAMPLES)
            )
        if n_samples > _RXIN_CAPACITY:
            raise ValueError(
                "packet too long: %d samples exceed the %d-pair ADC input "
                "buffer" % (n_samples, _RXIN_CAPACITY)
            )
        rx_re, rx_im = q15(rx.real), q15(rx.imag)

        image = bytearray(self._table_image())
        self._write_words(image, mem.RXIN, _interleave_words(rx_re, rx_im))

        pre: List[RegionRun] = []

        # -- non-kernel: program setup glue --------------------------------
        def build_init(linker):
            vb = linker.vliw()
            vb.op(Opcode.ADD, 0, N_SAMPLES_SENTINEL, dst=PhysReg(40))
            vb.op(Opcode.ADD, 0, DATA_SYMBOLS, dst=PhysReg(41))
            return {}

        run, image = yield RegionRequest(
            "non-kernel code", image, build_init, patch={N_SAMPLES_SENTINEL: n_samples}
        )
        pre.append(run)

        # -- sample ordering: the consumers read the ADC stream in place ----
        pre.append(fused_region("sample ordering", "acorr"))

        # -- acorr: packet detection (3 candidates) -------------------------
        window = 32
        candidates = [_DETECT_START - 16, _DETECT_START, _DETECT_START + 16]
        for ci, pos in enumerate(candidates):
            self._write_param(image, _P_CAND[ci], mem.RXIN + 8 * pos)

        def build_acorr(linker):
            handles = {}
            for ci in range(len(_P_CAND)):
                base_r = self._load_param(linker.vliw(), _P_CAND[ci])
                outs = linker.call_kernel(
                    build_acorr_adc_dfg(lag_samples=16, name="acorr_p%d" % ci),
                    live_ins={"base": base_r},
                    trip_count=window // 2,
                )
                vb = linker.vliw()
                re_r, im_r, mag_r = PhysReg(40), PhysReg(41), PhysReg(42 + ci)
                vliw_kernels.emit_lane_reduce_mag(vb, outs["corr"], re_r, im_r, mag_r)
                e_r = PhysReg(45 + ci)
                vliw_kernels.emit_lane_reduce_mag(
                    vb, outs["energy"], PhysReg(40), PhysReg(41), e_r
                )
                handles["corr%d" % ci] = outs["corr"]
                handles["mag%d" % ci] = mag_r
                handles["energy%d" % ci] = outs["energy"]
            return handles

        run, image = yield RegionRequest("acorr", image, build_acorr, key=("detect",))
        pre.append(run)
        # Host: pick the first candidate whose correlation magnitude
        # clears the threshold, then derive the coarse CFO from its
        # correlation angle (fixed-point CORDIC, as on the array).
        detect_pos = candidates[-1]
        corr_word = None
        for ci, pos in enumerate(candidates):
            word = run.outputs["corr%d" % ci]
            lanes = split_lanes(word)
            c_re, c_im = lanes[0] + lanes[2], lanes[1] + lanes[3]
            e_lanes = split_lanes(run.outputs["energy%d" % ci])
            energy = sum(e_lanes)
            if energy > 0 and (c_re * c_re + c_im * c_im) > (0.7 * energy) ** 2:
                detect_pos = pos
                corr_word = (c_re, c_im)
                break
        if corr_word is None:
            lanes = split_lanes(run.outputs["corr%d" % (len(candidates) - 1)])
            corr_word = (lanes[0] + lanes[2], lanes[1] + lanes[3])
        coarse_angle = cordic_atan2_q16(corr_word[1], max(corr_word[0], 1))
        coarse_cfo = angle_q16_to_hz(coarse_angle, 16, fs)

        # -- fshift: coarse-CFO rotate of the antenna-0 LTF region ----------
        ltf_guess = detect_pos + 160  # LTF starts one STF after detection
        n_rot = 192

        def build_fshift1(linker):
            src_r = self._load_param(linker.vliw(), _P_FSHIFT_SRC)
            linker.call_kernel(
                build_fshift_ant0_dfg("fshift"),
                live_ins={
                    "src": src_r,
                    "dst": mem.WORK0,
                    "tab": mem.PHTAB,
                },
                trip_count=n_rot // 2,
            )
            return {}

        table = phasor_table_words(-coarse_cfo, fs, n_rot, start_sample=ltf_guess)
        self._write_words(image, mem.PHTAB, table, size=8)
        self._write_param(image, _P_FSHIFT_SRC, mem.RXIN + 8 * ltf_guess)
        run, image = yield RegionRequest("fshift", image, build_fshift1, key=("ltf",))
        pre.append(run)

        # -- xcorr: timing (4 even candidates around the expected LTF) ------
        # WORK0 starts at ltf_guess; the first long symbol sits ~32 in,
        # but STF detection has a +-16-sample plateau ambiguity, so the
        # timing search spans 22..52.
        xc_candidates = list(range(22, 54, 2))

        mag_spill = mem.SCRATCH + 64

        def build_xcorr(linker):
            for ci, pos in enumerate(xc_candidates):
                outs = linker.call_kernel(
                    build_xcorr_dfg("xcorr_p%d" % ci),
                    live_ins={"base": mem.WORK0 + 4 * pos, "ref": mem.XCREF},
                    trip_count=32,
                )
                vb = linker.vliw()
                mag_r = PhysReg(42)
                vliw_kernels.emit_lane_reduce_mag(
                    vb, outs["corr"], PhysReg(40), PhysReg(41), mag_r
                )
                # Spill the candidate magnitude to scratch memory for the
                # host's peak pick, and recycle the kernel's registers.
                sa = vb.shared_reg("xc_sa")
                vb.op(Opcode.ADD, 0, mag_spill + 4 * ci, dst=sa)
                vb.store(Opcode.ST_I, sa, 0, mag_r)
                linker.release(outs)
            return {}

        run, image = yield RegionRequest("xcorr", image, build_xcorr)
        pre.append(run)
        mags = []
        for ci in range(len(xc_candidates)):
            raw = int.from_bytes(
                image[mag_spill + 4 * ci : mag_spill + 4 * ci + 4], "little"
            )
            mags.append(to_signed(raw, 32))
        ltf1_rel = xc_candidates[int(np.argmax(mags))]
        ltf1_start = ltf_guess + ltf1_rel

        # -- acorr (fine CFO correlation over the repeated long symbol) -----
        def build_acorr2(linker):
            base_r = self._load_param(linker.vliw(), _P_ACORR2_BASE)
            outs = linker.call_kernel(
                build_acorr_dfg(lag_samples=64, name="acorr_fine", acc_shift=2),
                live_ins={"base": base_r},
                trip_count=32,
            )
            vb = linker.vliw()
            re_r, im_r = PhysReg(42), PhysReg(43)
            vliw_kernels.emit_lane_reduce_mag(vb, outs["corr"], re_r, im_r, PhysReg(44))
            return {"corr": outs["corr"], "re": re_r, "im": im_r}

        self._write_param(image, _P_ACORR2_BASE, mem.WORK0 + 4 * ltf1_rel)
        run, image = yield RegionRequest("acorr", image, build_acorr2, key=("fine",))
        pre.append(run)

        # -- freq offset estimation: CORDIC on the array --------------------
        fine_in = (run.outputs["re"], run.outputs["im"])

        def build_freqest(linker):
            vb = linker.vliw()
            x_r, y_r = PhysReg(40), PhysReg(41)
            vb.op(Opcode.LD_I, vb.mov_imm(mem.PARAM), _P_CORDIC_X, dst=x_r)
            vb.op(Opcode.LD_I, vb.mov_imm(mem.PARAM), _P_CORDIC_Y, dst=y_r)
            outs = linker.call_kernel(
                build_cordic_dfg(iterations=14),
                live_ins={"tab": mem.ATAN, "x0": x_r, "y0": y_r},
                trip_count=14,
            )
            return {"angle": outs["angle"]}

        self._write_param(image, _P_CORDIC_X, to_signed(fine_in[0], 32))
        self._write_param(image, _P_CORDIC_Y, to_signed(fine_in[1], 32))
        run, image = yield RegionRequest("freq offset estimation", image, build_freqest)
        pre.append(run)
        fine_angle = to_signed(run.outputs["angle"], 32)
        fine_cfo = angle_q16_to_hz(fine_angle, 64, fs)

        # -- sample reordering: the consumers read the ADC stream in place --
        ht_start = ltf1_start + 128
        pre.append(fused_region("sample reordering", "fshift"))

        # -- fshift: coarse rotate of both antennas' HT-LTF region ----------
        def build_fshift2(linker):
            src_r = self._load_param(linker.vliw(), _P_HT_SRC)
            linker.call_kernel(
                build_fshift_pair_dfg("fshift_ht", delta_dst=mem.WORK1 - mem.WORK0),
                live_ins={
                    "src": src_r,
                    "dst": mem.WORK0,
                    "tab": mem.PHTAB,
                },
                trip_count=160,
            )
            return {}

        table = phasor_pair_table_words(-coarse_cfo, fs, 160, start_sample=ht_start)
        self._write_words(image, mem.PHTAB, table, size=8)
        self._write_param(image, _P_HT_SRC, mem.RXIN + 8 * ht_start)
        run, image = yield RegionRequest("fshift", image, build_fshift2, key=("ht",))
        pre.append(run)

        # -- freq offset compensation: fine recursive rotate ----------------
        step_w, ph0_w = rotate_constants(-fine_cfo, fs, start_sample=ht_start)

        def build_freqcomp(linker):
            # Sentinel-compiled template: the packet's step/initial
            # phasors are stamped in with patch_constants at run time.
            for ant, (src, dst) in enumerate(
                [(mem.WORK0, mem.CORR0), (mem.WORK1, mem.CORR1)]
            ):
                linker.call_kernel(
                    build_cfo_rotate("cfo_rot_a%d" % ant),
                    live_ins={"src": src, "dst": dst},
                    trip_count=80,
                )
            return {}

        run, image = yield RegionRequest(
            "freq offset compensation",
            image,
            build_freqcomp,
            patch=cfo_rotate_patch(step_w, ph0_w),
        )
        pre.append(run)

        # -- fft: the four HT-LTF spectra (two loop-merged pair calls) ------
        def build_fft_pre(linker):
            for sym in range(2):
                src_off = 4 * (80 * sym + 16)  # skip the 16-sample CP
                dst = mem.FFT0 if sym == 0 else mem.FFT2
                linker.call_kernel(
                    build_reorder_pair_dfg(
                        "fft_reorder2_s%d" % sym,
                        delta_src=mem.CORR1 - mem.CORR0,
                        delta_dst=mem.fft_pair_delta,
                    ),
                    live_ins={
                        "src": mem.CORR0 + src_off,
                        "dst": dst,
                        "tab": mem.RTAB,
                    },
                    trip_count=64,
                )
                self._emit_fft_stages(linker, dst)
            return {}

        run, image = yield RegionRequest("fft", image, build_fft_pre, key=("pre",))
        pre.append(run)

        # -- remove zero carriers: chanest reads the used-bin runs in place --
        pre.append(fused_region("remove zero carriers", "SDM processing"))

        # -- SDM processing (preamble): P-matrix channel combining -----------
        def build_chanest(linker):
            # Grids: FFT0 = HT-LTF1 ant0, FFT1 = HT-LTF1 ant1,
            #        FFT2 = HT-LTF2 ant0, FFT3 = HT-LTF2 ant1.
            for ant, (y1, y2) in enumerate(
                [(mem.FFT0, mem.FFT2), (mem.FFT1, mem.FFT3)]
            ):
                carrier = 0  # compact index of the run's first bin
                for run_idx, (first, n_bins) in enumerate(_BIN_RUNS):
                    linker.call_kernel(
                        build_chanest_dfg("chanest_a%d_r%d" % (ant, run_idx)),
                        live_ins={
                            "y1": y1 + 4 * first,
                            "y2": y2 + 4 * first,
                            "sgn": mem.SGN + 4 * carrier,
                            "hout": mem.HBUF + 8 * ant + 16 * carrier,
                        },
                        trip_count=n_bins // 2,
                    )
                    carrier += n_bins
            return {}

        run, image = yield RegionRequest("SDM processing", image, build_chanest, key=("pre",))
        pre.append(run)

        # -- equalize coeff calc ---------------------------------------------
        def build_eqcoef(linker):
            linker.call_kernel(
                build_eqcoef_dfg(),
                live_ins={"hbase": mem.HBUF, "wbase": mem.WBUF},
                trip_count=56,
            )
            return {}

        run, image = yield RegionRequest("equalize coeff calc", image, build_eqcoef)
        pre.append(run)

        # ==================== data phase (one symbol pair) ==================
        data: List[RegionRun] = []
        data_start = ht_start + 160
        total_cfo = coarse_cfo + fine_cfo

        # -- fshift: fused gather (CP strip + digit reversal) and rotation -----
        rev_offsets = {
            sym: self._gather_table_words(80 * sym + 16) for sym in range(DATA_SYMBOLS)
        }
        for sym in range(DATA_SYMBOLS):
            self._write_words(
                image,
                mem.GTAB0 if sym == 0 else mem.GTAB1,
                rev_offsets[sym],
            )
            indices = [data_start + off // 8 for off in rev_offsets[sym]]
            self._write_words(
                image,
                mem.PHTAB32 + 0x100 * sym,
                phasor_table_words32(-total_cfo, fs, indices),
            )

        def build_data_fshift(linker):
            for sym in range(DATA_SYMBOLS):
                src_r = self._load_param(linker.vliw(), _P_DATA_SRC)
                linker.call_kernel(
                    build_gather_rotate_dfg(
                        "gather_rotate_s%d" % sym,
                        delta_src=4,
                        delta_dst=mem.fft_pair_delta,
                    ),
                    live_ins={
                        "src": src_r,
                        "dst": mem.FFT0 if sym == 0 else mem.FFT2,
                        "tab": mem.GTAB0 if sym == 0 else mem.GTAB1,
                        "ph": mem.PHTAB32 + 0x100 * sym,
                    },
                    trip_count=64,
                )
            return {}

        self._write_param(image, _P_DATA_SRC, mem.RXIN + 8 * data_start)
        run, image = yield RegionRequest("fshift", image, build_data_fshift, key=("data",))
        data.append(run)

        # -- fft ---------------------------------------------------------------
        def build_data_fft(linker):
            for sym in range(DATA_SYMBOLS):
                self._emit_fft_stages(linker, mem.FFT0 if sym == 0 else mem.FFT2)
            return {}

        run, image = yield RegionRequest("fft", image, build_data_fft, key=("data",))
        data.append(run)

        # -- data shuffle: per-carrier Y vectors --------------------------------
        def build_shuffle(linker):
            for sym in range(DATA_SYMBOLS):
                g0 = mem.FFT0 if sym == 0 else mem.FFT2
                linker.call_kernel(
                    build_shuffle_dfg("data_shuffle_s%d" % sym),
                    live_ins={
                        "g0": g0,
                        "g1": g0 + mem.fft_pair_delta,
                        "tab": mem.BINTAB,
                        "ybase": mem.YBUF0 if sym == 0 else mem.YBUF1,
                    },
                    trip_count=56,
                )
            return {}

        run, image = yield RegionRequest("data shuffle", image, build_shuffle)
        data.append(run)

        # -- SDM processing ------------------------------------------------------
        def build_data_sdm(linker):
            for sym in range(DATA_SYMBOLS):
                linker.call_kernel(
                    build_sdm_dfg("sdm_s%d" % sym, yshift=5),
                    live_ins={
                        "ybase": mem.YBUF0 if sym == 0 else mem.YBUF1,
                        "wbase": mem.WBUF,
                        "xbase": mem.XBUF0 if sym == 0 else mem.XBUF1,
                    },
                    trip_count=56,
                )
            return {}

        run, image = yield RegionRequest("SDM processing", image, build_data_sdm, key=("data",))
        data.append(run)

        # -- tracking: pilot CPE phasors (one per symbol) -------------------------
        pilot_bins = list(self.params.pilot_carriers)
        pilot_idx = [self.compact_bins.index(b) for b in pilot_bins]
        phasor_regs = [PhysReg(46), PhysReg(47)]

        def build_tracking(linker):
            vb = linker.vliw()
            for sym in range(DATA_SYMBOLS):
                pol = PILOT_POLARITY[sym % len(PILOT_POLARITY)]
                signs = [int(PILOT_VALUES[b] * pol) for b in pilot_bins]
                vliw_kernels.emit_tracking(
                    vb,
                    (self.mem.XBUF0 if sym == 0 else self.mem.XBUF1),
                    [8 * i for i in pilot_idx],
                    signs,
                    phasor_regs[sym],
                    scratch_addr=mem.SCRATCH + 16 * sym,
                )
            return {}

        run, image = yield RegionRequest("tracking", image, build_tracking)
        data.append(run)

        # -- comp: CPE rotation + rescale to Q15/2 --------------------------------
        def build_comp(linker):
            for sym in range(DATA_SYMBOLS):
                # Re-materialise the tracking phasor in this region's
                # program: it survives in the scratch slot.
                vb = linker.vliw()
                saddr = vb.mov_imm(mem.SCRATCH + 16 * sym)
                vb.op(Opcode.LD_Q, saddr, 0, dst=phasor_regs[sym])
                linker.call_kernel(
                    build_comp_dfg("comp_s%d" % sym, shift=6),
                    live_ins={
                        "src": mem.XBUF0 if sym == 0 else mem.XBUF1,
                        "dst": mem.CBUF0 if sym == 0 else mem.CBUF1,
                        "phasor": phasor_regs[sym],
                    },
                    trip_count=56,
                )
            return {}

        run, image = yield RegionRequest("comp", image, build_comp)
        data.append(run)

        # -- demod QAM64 --------------------------------------------------------------
        def build_demod(linker):
            for sym in range(DATA_SYMBOLS):
                linker.call_kernel(
                    build_demod_dfg("demod_s%d" % sym),
                    live_ins={
                        "src": mem.CBUF0 if sym == 0 else mem.CBUF1,
                        "dst": mem.LBUF0 if sym == 0 else mem.LBUF1,
                    },
                    trip_count=56,
                )
            return {}

        run, image = yield RegionRequest("demod QAM64", image, build_demod)
        data.append(run)

        bits = self._unpack_bits(image)

        total = ActivityStats()
        for region in pre + data:
            total.merge(region.profile.stats)

        return ReceiverOutput(
            preamble_regions=pre,
            data_regions=data,
            bits=bits,
            detect_pos=detect_pos,
            ltf1_start=ltf1_start,
            coarse_cfo_hz=coarse_cfo,
            fine_cfo_hz=fine_cfo,
            stats=total,
            image=bytes(image),
        )

    # ------------------------------------------------------------------

    def _unpack_bits(self, image: bytearray) -> np.ndarray:
        """Gray-label words -> the transmitter's bit ordering: per data
        symbol, stream and data carrier, the three bits of the in-phase
        label, then of the quadrature one, most significant first.  The
        8-byte word of each compact bin holds the signed 16-bit lanes
        ``(gi0, gq0, gi1, gq1)``."""
        n_bins, n_streams = len(self.compact_bins), self.params.n_streams
        labels = np.stack([
            np.frombuffer(image, dtype="<i2", count=4 * n_bins, offset=base)
            .reshape(n_bins, 4)[self._data_rows, :2 * n_streams]
            .reshape(-1, n_streams, 2).transpose(1, 0, 2)
            for base in (self.mem.LBUF0 if sym == 0 else self.mem.LBUF1
                         for sym in range(DATA_SYMBOLS))
        ])  # (symbol, stream, carrier, gi/gq)
        return ((labels[..., None] >> _LABEL_SHIFTS) & 1).reshape(-1).astype(np.int64)
