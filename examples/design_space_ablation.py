#!/usr/bin/env python
"""Design-space ablation: how the interconnect density shapes the design.

The paper motivates its "densely interconnected" array (and pays for it:
the interconnect is the largest power consumer in both modes).  This
example re-schedules representative kernels on three interconnect
variants — plain nearest-neighbour mesh, the dense mesh-plus (the paper
core) and a hypothetical all-to-all fabric — and compares achieved II,
routing moves and modelled area.

Run:  python examples/design_space_ablation.py
"""

from repro.arch import paper_core
from repro.arch.topology import full_topology, mesh_plus_topology, mesh_topology
from repro.compiler import ModuloScheduler
from repro.kernels.demod import build_demod_dfg
from repro.kernels.fshift import build_fshift_pair_dfg
from repro.kernels.sdm import build_sdm_dfg
from repro.power import estimate_area

VARIANTS = [
    ("mesh", mesh_topology(4, 4)),
    ("mesh+buses (paper)", mesh_plus_topology(4, 4)),
    ("all-to-all", full_topology(16)),
]

KERNELS = [
    ("fshift", build_fshift_pair_dfg, {"src": 60, "dst": 61, "tab": 62}),
    ("sdm", build_sdm_dfg, {"ybase": 60, "wbase": 61, "xbase": 62}),
    ("demod", build_demod_dfg, {"src": 60, "dst": 61}),
]


def main():
    print(
        "%-20s %-8s %4s %4s %6s %7s"
        % ("interconnect", "kernel", "MII", "II", "moves", "wires")
    )
    print("-" * 60)
    for name, topo in VARIANTS:
        arch = paper_core(name="ablate-%s" % name, interconnect=topo)
        for kname, build, live_ins in KERNELS:
            dfg = build()
            plan = ModuloScheduler(dfg, arch).schedule()
            result = plan.bind(dfg, live_in_regs=live_ins, trip_count=8)
            print(
                "%-20s %-8s %4d %4d %6d %7d"
                % (name, kname, result.mii, result.ii, result.n_moves,
                   topo.wire_count)
            )
        area = estimate_area(arch)
        print(
            "%-20s -> modelled area %.2f mm^2 (interconnect share %.1f%%)"
            % (name, area.total_mm2, 100 * area.fractions["interconnect"])
        )
        print()
    print(
        "Denser interconnects reach the resource-bound II with fewer\n"
        "routing moves (the all-to-all fabric never needs them) but pay\n"
        "area — the trade the paper resolves with the mesh-plus fabric."
    )


if __name__ == "__main__":
    main()
