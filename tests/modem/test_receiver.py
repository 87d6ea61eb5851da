"""End-to-end modem tests: the full pipeline on the simulated processor.

The reference packet run takes a couple of minutes of simulation, so it
is produced once per test session and shared.
"""

import numpy as np
import pytest

from repro.eval import run_reference_modem
from repro.modem.analysis import realtime_analysis
from repro.modem.memory_map import DEFAULT_MAP
from repro.modem.profile import format_table2, table2_rows
from repro.runtime import ModemRuntime, make_packet


@pytest.fixture(scope="module")
def run():
    return run_reference_modem(seed=42, cfo_hz=50e3, snr_db=None)


class TestFunctional:
    def test_packet_decodes_error_free(self, run):
        assert run.ber == 0.0

    def test_timing_recovered(self, run):
        # Packet injected 32 samples in: LTF1 at 32 + 160 + 32 = 224.
        assert run.output.ltf1_start == 224

    def test_cfo_estimated(self, run):
        assert run.output.cfo_hz == pytest.approx(run.cfo_true_hz, rel=0.02)

    def test_detection_within_plateau(self, run):
        assert 16 <= run.output.detect_pos <= 48


class TestProfiles:
    def test_all_table2_rows_present(self, run):
        names_pre = [r.name for r in run.output.preamble_regions]
        for kernel in [
            "acorr",
            "fshift",
            "xcorr",
            "fft",
            "remove zero carriers",
            "freq offset estimation",
            "freq offset compensation",
            "sample ordering",
            "SDM processing",
            "sample reordering",
            "equalize coeff calc",
            "non-kernel code",
        ]:
            assert kernel in names_pre, kernel
        names_data = [r.name for r in run.output.data_regions]
        for kernel in [
            "fshift",
            "fft",
            "data shuffle",
            "tracking",
            "comp",
            "demod QAM64",
            "SDM processing",
        ]:
            assert kernel in names_data, kernel

    def test_mode_classification_matches_paper(self, run):
        by_name = {r.name: r for r in run.output.preamble_regions}
        # The paper's VLIW copy rows are fused into their consumers,
        # which read the ADC stream and the FFT grids in place: the rows
        # stay in the table, marked, with nothing simulated for them.
        for row, into in [
            ("sample ordering", "acorr"),
            ("sample reordering", "fshift"),
            ("remove zero carriers", "SDM processing"),
        ]:
            profile = by_name[row].profile
            assert profile.mode == "fused into %s" % into
            assert profile.fused_into == into
            assert profile.cycles == 0
            assert profile.stats.total_ops == 0
        assert by_name["equalize coeff calc"].profile.mode == "CGA"
        assert by_name["fft"].profile.mode == "CGA"
        data = {r.name: r for r in run.output.data_regions}
        assert data["tracking"].profile.mode == "VLIW"
        assert data["demod QAM64"].profile.mode == "CGA"

    def test_cga_ipc_far_exceeds_vliw_ipc(self, run):
        stats = run.output.stats
        cga_ipc = stats.cga_ops / stats.cga_cycles
        vliw_ipc = stats.vliw_ops / stats.vliw_cycles
        assert cga_ipc > 4.0  # paper: 10.31 average over CGA kernels
        assert vliw_ipc < 3.0  # paper: 1.94
        assert cga_ipc > 3 * vliw_ipc

    def test_cga_mode_dominates_runtime(self, run):
        # Paper: 72% of preamble / 60% of data time in CGA mode.
        assert run.output.stats.cga_fraction > 0.5

    def test_high_ipc_kernels(self, run):
        data = {r.name: r for r in run.output.data_regions}
        assert data["SDM processing"].profile.ipc > 6
        assert data["comp"].profile.ipc > 6

    def test_table2_render(self, run):
        text = format_table2(table2_rows(run.output))
        assert "equalize coeff calc" in text
        assert "paper" in text


class TestRealtime:
    def test_analysis_report(self, run):
        report = realtime_analysis(run.output)
        assert report.phy_rate_mbps == pytest.approx(156.0)
        assert report.meets_100mbps
        # Preamble processing exceeds the preamble airtime (pipeline
        # latency), as in the paper (15.3 us vs 8 us).
        assert report.preamble_us > report.preamble_elapsed_us
        text = report.summary()
        assert "100 Mbps+" in text or "Mbps" in text


class TestSyncRegionReadsAdcStream:
    """The sync-region rotate reads the ADC stream itself.

    It used to read a per-antenna copy that held only the first 352
    samples when it ran, so a fine-CFO window reaching sample 352 or
    later correlated over zeros.  This mixed-stream packet (seq 22 of
    ``mixed_scenario_stream(1.0, n_packets=40, base_seed=0)``) times its
    first long symbol at 226, so the window ends at sample 353.
    """

    #: The packet's BER when its window tail read zeros.
    BER_READING_ZEROS = 0.3245192307692308

    def test_fine_cfo_window_holds_real_samples(self):
        case = make_packet(1022, snr_db=25.0, scenario="indoor_multipath")
        out = ModemRuntime().run_packet(case.rx)
        ltf_guess = out.detect_pos + 160
        window_end = out.ltf1_start + 127  # fine acorr: 64-sample lag over 64
        assert window_end >= 352
        work0 = np.frombuffer(
            out.image, dtype="<u4", count=192, offset=DEFAULT_MAP.WORK0
        )
        tail = work0[352 - ltf_guess : window_end - ltf_guess + 1]
        assert len(tail) == window_end - 351 and np.all(tail != 0)
        assert float(np.mean(out.bits != case.bits)) <= self.BER_READING_ZEROS


def _unpack_bits_loop(receiver, image):
    """The per-label loop the vectorised ``SimReceiver._unpack_bits``
    replaced: the oracle it is compared with."""
    from repro.isa.bits import split_lanes
    from repro.phy.params import DATA_SYMBOLS

    bits = []
    for sym in range(DATA_SYMBOLS):
        base = receiver.mem.LBUF0 if sym == 0 else receiver.mem.LBUF1
        labels = {}
        for ci, bin_ in enumerate(receiver.compact_bins):
            word = int.from_bytes(image[base + 8 * ci: base + 8 * ci + 8], "little")
            labels[bin_] = split_lanes(word)
        for stream in range(receiver.params.n_streams):
            for bin_ in receiver.params.data_carriers:
                for lane in (labels[bin_][2 * stream], labels[bin_][2 * stream + 1]):
                    bits.extend((lane >> shift) & 1 for shift in (2, 1, 0))
    return np.array(bits, dtype=np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_unpack_bits_matches_the_label_loop(seed):
    """On random label images (any 16-bit lane, negative ones included)
    the vectorised unpacking returns the loop's bits, dtype and order."""
    from repro.modem.receiver import SimReceiver

    receiver = SimReceiver()
    rng = np.random.default_rng(seed)
    image = bytearray(rng.integers(0, 256, size=DEFAULT_MAP.LBUF1 + 1024, dtype=np.uint8))
    want = _unpack_bits_loop(receiver, image)
    got = receiver._unpack_bits(image)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert (np.frombuffer(bytes(image[DEFAULT_MAP.LBUF0:DEFAULT_MAP.LBUF0 + 448]), "<i2") < 0).any()
