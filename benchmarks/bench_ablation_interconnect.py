"""Ablation — interconnect density vs schedule quality (DESIGN.md hook).

Not a paper table; this regenerates the design-space evidence behind the
paper's "densely interconnected" choice: on a plain nearest-neighbour
mesh the modulo scheduler needs more routing moves and settles at higher
initiation intervals, while an all-to-all fabric buys little over the
paper's mesh-plus at measurable area cost.
"""


from repro.arch import paper_core
from repro.arch.topology import full_topology, mesh_topology
from repro.compiler import ModuloScheduler
from repro.kernels.fshift import build_fshift_pair_dfg
from repro.kernels.sdm import build_sdm_dfg
from repro.power import estimate_area


def _schedule(arch, build, live_ins):
    dfg = build()
    return ModuloScheduler(dfg, arch).schedule().bind(
        dfg, live_in_regs=live_ins, trip_count=8
    )


def test_interconnect_ablation(benchmark, capsys, bench_report):
    variants = {
        "mesh": paper_core(name="abl-mesh", interconnect=mesh_topology(4, 4)),
        "mesh+ (paper)": paper_core(name="abl-mesh+"),
        "all-to-all": paper_core(
            name="abl-full", interconnect=full_topology(16)
        ),
    }
    kernels = [
        ("fshift", build_fshift_pair_dfg, {"src": 60, "dst": 61, "tab": 62}),
        ("sdm", build_sdm_dfg, {"ybase": 60, "wbase": 61, "xbase": 62}),
    ]
    results = {}
    for vname, arch in variants.items():
        for kname, build, live_ins in kernels:
            results[(vname, kname)] = _schedule(arch, build, live_ins)
    benchmark(lambda: _schedule(variants["mesh+ (paper)"], *kernels[0][1:]))

    with capsys.disabled():
        print("\n=== Ablation: interconnect density vs schedule quality ===")
        print("%-15s %-8s %4s %4s %6s %10s" % ("fabric", "kernel", "MII", "II", "moves", "area mm^2"))
        for vname, arch in variants.items():
            area = estimate_area(arch).total_mm2
            for kname, _b, _l in kernels:
                r = results[(vname, kname)]
                print(
                    "%-15s %-8s %4d %4d %6d %10.2f"
                    % (vname, kname, r.mii, r.ii, r.n_moves, area)
                )

    # The paper's fabric must never lose to the sparse mesh, and the
    # all-to-all fabric must never beat it by much while costing area.
    for kname, _b, _l in kernels:
        mesh = results[("mesh", kname)]
        dense = results[("mesh+ (paper)", kname)]
        full = results[("all-to-all", kname)]
        assert dense.ii <= mesh.ii
        assert dense.n_moves <= mesh.n_moves
        assert full.ii <= dense.ii
    assert (
        estimate_area(variants["all-to-all"]).total_mm2
        > estimate_area(variants["mesh+ (paper)"]).total_mm2
    )
    bench_report(
        "ablation_interconnect",
        extra={
            "%s/%s" % (vname, kname): {"mii": r.mii, "ii": r.ii, "moves": r.n_moves}
            for (vname, kname), r in results.items()
        },
    )
