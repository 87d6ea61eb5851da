"""Programmatic regeneration of every table and figure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.arch import paper_core
from repro.isa.opcodes import GROUP_INFO, OpGroup, latency_of, ops_in_group
from repro.modem.analysis import realtime_analysis
from repro.modem.profile import format_table2, table2_rows
from repro.modem.receiver import ReceiverOutput, SimReceiver
from repro.phy.channel import MimoChannel
from repro.power import (
    LEAKAGE_65C_W,
    LEAKAGE_TYPICAL_W,
    calibrate_from_reference,
    estimate_area,
)
from repro.power.model import PAPER_AVERAGE_W, PAPER_CGA_ACTIVE_W, PAPER_VLIW_ACTIVE_W, PowerModel
from repro.runtime import ModemRuntime, make_packet
from repro.sim.stats import ActivityStats
from repro.trace.tracer import Tracer, set_tracer


@dataclass
class ReferenceRun:
    """One profiled packet: the evaluation's shared workload."""

    output: ReceiverOutput
    bits_tx: np.ndarray
    ber: float
    cfo_true_hz: float
    #: The receiver that ran the packet (its linked programs and their
    #: kernel schedules stay inspectable).
    receiver: SimReceiver


def run_reference_modem(
    seed: int = 42,
    cfo_hz: float = 50e3,
    snr_db: Optional[float] = None,
    channel: Optional[MimoChannel] = None,
    tracer: Optional[Tracer] = None,
    interpreter: str = "compiled",
) -> ReferenceRun:
    """Transmit one packet and run the full simulated receiver on it.

    The packet runs through a new :class:`~repro.runtime.ModemRuntime`.
    With *tracer* the runtime emits its packet timeline into it, and the
    tracer is installed process-wide for the duration so the compiler's
    II-search events land in the same buffer.  *interpreter* selects the
    simulator tier (``"compiled"`` fast path or the ``"reference"``
    oracle); a traced run takes the reference loop on either tier.
    """
    case = make_packet(seed, cfo_hz=cfo_hz, snr_db=snr_db, channel=channel)
    previous = set_tracer(tracer) if tracer is not None else None
    runtime = ModemRuntime(interpreter=interpreter, tracer=tracer)
    try:
        output = runtime.run_packet(case.rx)
    finally:
        if tracer is not None:
            set_tracer(previous)
    ber = float(np.mean(output.bits != case.bits))
    return ReferenceRun(
        output=output, bits_tx=case.bits, ber=ber, cfo_true_hz=cfo_hz,
        receiver=runtime.receiver,
    )


# ----------------------------------------------------------------------
# Table 1 — the instruction set, printed from the live definition.
# ----------------------------------------------------------------------


def table1_text() -> str:
    """Render Table 1 (groups, member ops, FU range, width, latency)."""
    lines = [
        "%-9s %-44s %-6s %6s %9s"
        % ("group", "instructions", "FUs", "width", "delay")
    ]
    lines.append("-" * 80)
    for group in OpGroup:
        info = GROUP_INFO[group]
        ops = ", ".join(op.value for op in ops_in_group(group))
        lat = {latency_of(op) for op in ops_in_group(group)}
        lat_text = "/".join(str(x) for x in sorted(lat))
        fu_text = "%d-%d" % info.fu_range
        lines.append(
            "%-9s %-44s %-6s %6d %9s"
            % (group.value, ops[:44], fu_text, info.width, lat_text)
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 2 — kernel profiling.
# ----------------------------------------------------------------------


def table2_report(run: ReferenceRun) -> str:
    """Measured vs paper Table 2 plus the balance checks of Section 4."""
    rows = table2_rows(run.output)
    text = [format_table2(rows)]
    stats = run.output.stats
    cga_ipc = stats.cga_ops / max(stats.cga_cycles, 1)
    vliw_ipc = stats.vliw_ops / max(stats.vliw_cycles, 1)
    text.append("")
    text.append(
        "CGA-mode IPC %.2f (paper 10.31, utilization %.0f%%); "
        "VLIW-mode IPC %.2f (paper 1.94, utilization %.0f%%)"
        % (cga_ipc, 100 * cga_ipc / 16, vliw_ipc, 100 * vliw_ipc / 3)
    )
    text.append(
        "CGA-mode residency: %.0f%% overall (paper: 72%% preamble / 60%% data)"
        % (100 * stats.cga_fraction)
    )
    if stats.stall_cycles:
        parts = [
            "%s %d" % (cause, cycles)
            for cause, cycles in sorted(
                stats.stall_breakdown().items(), key=lambda kv: -kv[1]
            )
            if cycles
        ]
        text.append(
            "stall cycles: %d of %d (%.1f%%) — %s"
            % (
                stats.stall_cycles,
                stats.total_cycles,
                100 * stats.stall_cycles / max(stats.total_cycles, 1),
                ", ".join(parts),
            )
        )
    text.append("BER of the decoded packet: %.4f" % run.ber)
    return "\n".join(text)


# ----------------------------------------------------------------------
# Table 3 / Fig 6 — power.
# ----------------------------------------------------------------------


def _mode_reference_stats(run: ReferenceRun) -> Tuple[ActivityStats, ActivityStats]:
    """Pick pure-mode reference regions from the profiled run."""
    vliw = ActivityStats()
    cga = ActivityStats()
    for region in run.output.preamble_regions + run.output.data_regions:
        prof = region.profile
        if prof.mode == "VLIW":
            vliw.merge(prof.stats)
        elif prof.mode == "CGA":
            cga.merge(prof.stats)
    return vliw, cga


def calibrated_power_model(run: ReferenceRun) -> PowerModel:
    """The frozen power model, calibrated on this run's mode regions."""
    vliw, cga = _mode_reference_stats(run)
    return calibrate_from_reference(vliw, cga)


def table3_report(run: ReferenceRun) -> str:
    """Mode and application power vs Table 3."""
    model = calibrated_power_model(run)
    vliw, cga = _mode_reference_stats(run)
    vliw_w = model.report(vliw).active_w
    cga_w = model.report(cga).active_w
    total = ActivityStats()
    for region in run.output.preamble_regions + run.output.data_regions:
        total.merge(region.profile.stats)
    avg_w = model.report(total).active_w
    lines = [
        "%-9s %14s %18s %16s" % ("", "active (typ)", "leakage (typ)", "leakage (65C)"),
        "%-9s %11.1f mW %15.1f mW %13.1f mW   [paper %g mW]"
        % ("VLIW", 1e3 * vliw_w, 1e3 * LEAKAGE_TYPICAL_W, 1e3 * LEAKAGE_65C_W,
           1e3 * PAPER_VLIW_ACTIVE_W),
        "%-9s %11.1f mW %15.1f mW %13.1f mW   [paper %g mW]"
        % ("CGA", 1e3 * cga_w, 1e3 * LEAKAGE_TYPICAL_W, 1e3 * LEAKAGE_65C_W,
           1e3 * PAPER_CGA_ACTIVE_W),
        "%-9s %11.1f mW %15.1f mW %13.1f mW   [paper %g mW]"
        % ("Average", 1e3 * avg_w, 1e3 * LEAKAGE_TYPICAL_W, 1e3 * LEAKAGE_65C_W,
           1e3 * PAPER_AVERAGE_W),
    ]
    return "\n".join(lines)


def fig6_report(run: ReferenceRun) -> str:
    """Per-mode power breakdowns vs Fig 6a/6b."""
    model = calibrated_power_model(run)
    vliw, cga = _mode_reference_stats(run)
    out = ["Fig 6a — VLIW (non-kernel) mode power breakdown:"]
    out.append(model.report(vliw).summary())
    out.append("")
    out.append("Fig 6b — CGA (kernel) mode power breakdown:")
    out.append(model.report(cga).summary())
    return "\n".join(out)


# ----------------------------------------------------------------------
# Fig 5 — area.
# ----------------------------------------------------------------------


def fig5_report() -> str:
    """Area breakdown of the paper core."""
    report = estimate_area(paper_core())
    return report.summary() + "\n(paper: 5.79 mm^2; memories ~50%, CGA FUs 29%, VLIW 8%, global RF 5%, distributed RF 3%)"


# ----------------------------------------------------------------------
# Headline — GOPS, real time, 100 Mbps+.
# ----------------------------------------------------------------------


def headline_report(run: ReferenceRun) -> str:
    """Section 4's headline claims."""
    arch = paper_core()
    report = realtime_analysis(run.output)
    lines = [
        "peak compute: %.1f GOPS (16-bit) at %.0f MHz (paper 25.6 GOPS)"
        % (arch.peak_gops_16bit, arch.clock_hz / 1e6),
        report.summary(),
        "decoded-packet BER at the evaluated operating point: %.4f" % run.ber,
    ]
    return "\n".join(lines)
