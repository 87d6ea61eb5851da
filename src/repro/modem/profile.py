"""Table 2 assembly: measured kernel profiles vs the paper's numbers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.modem.receiver import ReceiverOutput

#: Table 2 of the paper: (phase, kernel, mode, IPC, cycles).
PAPER_TABLE2 = [
    ("preamble", "acorr", "mixed", 3.47, 122),
    ("preamble", "fshift", "CGA", 12.16, 211),
    ("preamble", "xcorr", "CGA", 9.15, 280),
    ("preamble", "acorr", "mixed", 3.47, 194),
    ("preamble", "fshift", "CGA", 12.16, 678),
    ("preamble", "fft", "CGA (2x)", 10.36, 712),
    ("preamble", "remove zero carriers", "VLIW", 1.10, 76),
    ("preamble", "freq offset estimation", "CGA", 6.32, 314),
    ("preamble", "freq offset compensation", "mixed", 4.48, 424),
    ("preamble", "sample ordering", "VLIW", 1.61, 210),
    ("preamble", "SDM processing", "CGA (2x)", 9.90, 1540),
    ("preamble", "sample reordering", "VLIW", 2.69, 256),
    ("preamble", "equalize coeff calc", "CGA", 8.38, 636),
    ("preamble", "non-kernel code", "VLIW", 1.69, 452),
    ("preamble", "total", "", 8.05, 6105),
    ("data", "fshift", "CGA", 13.33, 378),
    ("data", "fft", "CGA (2x)", 11.46, 493),
    ("data", "data shuffle", "VLIW", 2.60, 100),
    ("data", "tracking", "VLIW", 1.83, 117),
    ("data", "comp", "CGA", 9.00, 219),
    ("data", "demod QAM64", "CGA", 12.04, 224),
    ("data", "total", "", 10.34, 1531),
]

#: The paper's totals, for quick reference.
PAPER_PREAMBLE_CYCLES = 6105
PAPER_DATA_CYCLES = 1531
PAPER_PREAMBLE_IPC = 8.05
PAPER_DATA_IPC = 10.34


@dataclass
class Table2Row:
    """One measured row next to its paper counterpart."""

    phase: str
    kernel: str
    mode: str
    ipc: float
    cycles: int
    stall_cycles: int = 0
    paper_mode: Optional[str] = None
    paper_ipc: Optional[float] = None
    paper_cycles: Optional[int] = None


def _paper_lookup(phase: str) -> Dict[str, List[tuple]]:
    """Paper rows by kernel name (list-valued: acorr/fshift repeat)."""
    out: Dict[str, List[tuple]] = {}
    for p, kernel, mode, ipc, cycles in PAPER_TABLE2:
        if p == phase and kernel != "total":
            out.setdefault(kernel, []).append((mode, ipc, cycles))
    return out


def table2_rows(output: ReceiverOutput) -> List[Table2Row]:
    """Measured Table 2 rows (paper numbers attached where named alike)."""
    rows: List[Table2Row] = []
    for phase, regions in (
        ("preamble", output.preamble_regions),
        ("data", output.data_regions),
    ):
        paper = _paper_lookup(phase)
        seen: Dict[str, int] = {}
        for region in regions:
            idx = seen.get(region.name, 0)
            seen[region.name] = idx + 1
            entry = None
            if region.name in paper and idx < len(paper[region.name]):
                entry = paper[region.name][idx]
            rows.append(
                Table2Row(
                    phase=phase,
                    kernel=region.name,
                    mode=region.profile.mode,
                    ipc=round(region.profile.ipc, 2),
                    cycles=region.profile.cycles,
                    stall_cycles=region.profile.stats.stall_cycles,
                    paper_mode=entry[0] if entry else None,
                    paper_ipc=entry[1] if entry else None,
                    paper_cycles=entry[2] if entry else None,
                )
            )
        # Phase totals.
        total_cycles = sum(r.profile.cycles for r in regions)
        total_ops = sum(r.profile.stats.total_ops for r in regions)
        rows.append(
            Table2Row(
                phase=phase,
                kernel="total",
                mode="",
                ipc=round(total_ops / max(total_cycles, 1), 2),
                cycles=total_cycles,
                stall_cycles=sum(r.profile.stats.stall_cycles for r in regions),
                paper_ipc=PAPER_PREAMBLE_IPC if phase == "preamble" else PAPER_DATA_IPC,
                paper_cycles=(
                    PAPER_PREAMBLE_CYCLES if phase == "preamble" else PAPER_DATA_CYCLES
                ),
            )
        )
    return rows


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render measured-vs-paper Table 2 as fixed-width text."""
    lines = [
        "%-9s %-26s %-25s %6s %7s %6s | %-9s %6s %7s"
        % ("phase", "kernel", "mode", "IPC", "cycles", "stall", "paper", "IPC", "cycles")
    ]
    lines.append("-" * 113)
    for row in rows:
        lines.append(
            "%-9s %-26s %-25s %6.2f %7d %6d | %-9s %6s %7s"
            % (
                row.phase,
                row.kernel,
                row.mode,
                row.ipc,
                row.cycles,
                row.stall_cycles,
                row.paper_mode or "",
                ("%.2f" % row.paper_ipc) if row.paper_ipc else "",
                row.paper_cycles if row.paper_cycles else "",
            )
        )
    return "\n".join(lines)
