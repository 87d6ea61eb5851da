"""The compiled tier: compile steady-state loops to specialized Python.

The reference engines re-decode every operation on every simulated
cycle.  This package removes that dispatch: per
``(kernel, architecture-fingerprint)`` it emits Python *source* for the
whole CGA steady-state window — the ``II`` contexts unrolled into
straight-line code with the hot counters as locals, predication and the
4x16 SIMD lane maths inlined (a SIMD value is four locals, one per
16-bit lane, see ``_lane_template``), and the commit ring replaced by
per-operation shift registers whose commits, like every latch and
local-RF write and routing move, are resolved while generating (see
:class:`~.emit_cga._CgaGen`) — plus straight-line runs of VLIW bundles
(one generated function per branch-free segment).

The package splits along its seams:

* :mod:`.analysis` — the schedule analysis of a CGA kernel at a trip
  count: the canonical walk (signature, pool, pool sites), commit
  chains, the port check, the per-slot step list, location events and
  their liveness;
* :mod:`.emit_cga` — the CGA emitter, which walks that step list;
* :mod:`.emit_vliw` — VLIW segments: their walk and their emitter;
* :mod:`.templates` — the lane, scalar and memory-access templates,
  the lane-batched function scaffold and the counter flushes both
  emitters share;
* this module — the public entry points and the code cache.

Every generated function is lane-batched: it advances ``B`` packets
("lanes") per call through structure-of-arrays arguments, with the
scratchpad and instruction-cache models inlined.  ``B`` is the length
of those arguments, so one compile serves every width and a single
packet is a batch of one.  :class:`repro.sim.batch.BatchProgramRunner`
is the only caller; it groups lanes and calls the function once per
group.

The compiled module code of each generated source lives in the
two-level :class:`repro.cache.ArtifactCache` shared with the
modulo-schedule cache (on disk as ``marshal`` bytes), keyed by the
structural kernel/segment signature and the architecture geometry the
source inlines (the signature excludes immediate *values*, so
``patch_constants`` variants share one compiled artifact and differ only
in the immediate pool passed at call time; :func:`patched_pool` derives
a variant's pool from its template's patch sites without a walk).  A
warm cache directory lets a fresh process or a forked fabric worker
load the code without generating or compiling anything.  The functions
built from it are memoised per process in front of it.

Correctness contract: for every well-formed program the compiled tier
produces bit-identical architectural state, cycle counts and
:class:`~repro.sim.stats.ActivityStats` (per-cause stall counters
included) to the reference tier (``tests/sim/test_differential.py``
runs both).  Central-RF port pressure, which the reference tier checks
dynamically through :class:`~repro.sim.regfile.RegisterFile`, is
checked *statically* at generation time; a kernel or bundle whose worst
case could overflow the ports raises :class:`CodegenUnsupported` and
the runner falls back to the reference loop for it (keeping the
dynamic check).
"""

from __future__ import annotations

import marshal
import sys
import types
from typing import Callable, Dict, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.cache import ArtifactCache
from repro.sim.codegen.analysis import cga_layout, cga_patch_sites, patched_pool
from repro.sim.codegen.emit_cga import _CgaGen
from repro.sim.codegen.emit_vliw import (
    _VliwGen, vliw_layout, vliw_patch_sites, vliw_segment_end,
)
from repro.sim.codegen.templates import CodegenUnsupported, _base_namespace
from repro.sim.memory import MemoryError_
from repro.sim.program import CgaKernel
from repro.trace.tracer import get_tracer

#: Compiled module code of the generated sources, keyed by
#: :data:`_CACHE_TAG`, the structural kernel/segment signature and the
#: architecture geometry the source inlines.  The disk level stores
#: ``marshal`` bytes; its key adds a digest of the modules whose source
#: decides what a generated function computes — every module of this
#: package, listed by name (``tests/sim/test_codegen_cache.py`` checks
#: the list against the package's files) — so a directory written by
#: another version of the generator never serves it stale code.
_CODE = ArtifactCache(
    ".codegen.pkl",
    ("repro.sim.codegen", "repro.sim.codegen.analysis", "repro.sim.codegen.emit_cga",
     "repro.sim.codegen.emit_vliw", "repro.sim.codegen.templates",
     "repro.isa.semantics", "repro.sim.memops", "repro.isa.opcodes"),
    types.CodeType,
    "compilations",
    encode=marshal.dumps,
    decode=marshal.loads,
)
#: The generated functions, per memory key, built from :data:`_CODE`.
_FN_CACHE: Dict[tuple, Callable] = {}
#: Part of every disk key: marshal data is only readable by the
#: interpreter version that wrote it.
_CACHE_TAG = sys.implementation.cache_tag


def codegen_stats() -> Dict[str, int]:
    """Counters since the last :func:`clear_codegen_cache`.

    ``compilations`` counts the ``compile()`` calls, one per generated
    source (the expensive steps a warm disk cache eliminates);
    ``memory_hits`` counts reuses of a function built in this process,
    ``disk_hits`` code loaded from the directory.
    """
    return dict(_CODE.stats)


def clear_codegen_cache() -> None:
    """Drop the in-memory code/function caches (disk is untouched)."""
    _CODE.clear()
    _FN_CACHE.clear()


def _compiled_fn(key: tuple, kind: str, label: str, generate: Callable[[], str],
                 fn_name: str, extra: Dict[str, object]) -> Callable:
    """The generated function for *key*, built once per process.

    Its module code comes from the artifact cache; a miss generates the
    source with *generate* and ``compile()``s it (traced).  The code is
    ``exec``'d in a fresh namespace with *extra* bound: code loaded from
    the cache directory runs with the same trust as generated source."""
    fn = _FN_CACHE.get(key)
    if fn is not None:
        _CODE.stats["memory_hits"] += 1
        return fn

    def compute() -> types.CodeType:
        source = generate()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "codegen.compile.%s" % kind,
                tracer.tick(),
                cat="codegen",
                args={"name": label, "source_lines": source.count("\n")},
            )
        return compile(source, "<repro.sim.codegen:%s>" % fn_name, "exec")

    code = _CODE.get((_CACHE_TAG,) + key, compute)
    ns = _base_namespace()
    ns.update(extra)
    exec(code, ns)
    fn = _FN_CACHE[key] = ns[fn_name]
    return fn


def cga_batch_runner(kernel: CgaKernel, arch: CgaArchitecture, fault,
                     cdrf_ports: Tuple[int, int], cprf_ports: Tuple[int, int],
                     trip: int, signature: Optional[tuple] = None):
    """Return the lane-batched steady-state function for *kernel* at
    trip count *trip* (>= 1).  *signature* is the kernel's
    :func:`cga_layout` signature when the caller already has it.

    The compiled function advances as many packets per call as its
    structure-of-arrays arguments hold (``trips``, all equal to *trip*,
    per-lane immediate pools, register backing lists and scratchpads); a
    single packet is a one-element batch.  The width is a call-time value, not part of the
    source, so one compile serves every width; the L1 geometry it
    inlines is covered by ``arch.fingerprint()``.  Every lane's bank
    clocks must be at or below its start cycle (the caller sends other
    lanes to the reference loop).  Per-lane pools come
    from :func:`cga_layout` of each ``patch_constants`` variant, so every
    lane shares this one compile.  Faulted lanes (``faults[lane]`` set)
    carry unusable partial state and must be re-run from scratch.

    The function is specialized on *trip* (the batch runner groups
    lanes by resolved trip count anyway): the schedule guards disappear
    into unrolled prologue/epilogue slots around a guard-free
    steady-state loop.  The trip joins the cache key; trips per kernel
    come from a small fixed set (the region programs bake them in), so
    the key space stays bounded.

    Raises :class:`CodegenUnsupported` when the static port-pressure
    proof fails or more than 192 prologue + epilogue slots would unroll,
    and *fault* for malformed kernels, found once at generation time
    (the reference tier finds them while running).
    """
    if signature is None:
        signature = cga_layout(kernel)[0]
    key = ("cga-batch", arch.fingerprint(), trip, signature)

    def gen() -> str:
        return _CgaGen(kernel, arch, fault, cdrf_ports, cprf_ports, trip).generate_batch()

    return _compiled_fn(key, "cga-batch", kernel.name, gen, "_cga_run_batch",
                        {"_ME": MemoryError_})


def vliw_batch_runner(bundles, start_pc: int, slot_fus, cdrf, cprf,
                      scratchpad, icache, fault, signature: Optional[tuple] = None):
    """Return ``(fn, end_pc)`` — the lane-batched function for the
    straight-line segment at *start_pc* and the segment's exclusive end.
    *signature* is the segment's :func:`vliw_layout` signature when the
    caller already has it.

    The function serves any batch width (the width is the length of its
    per-lane argument lists).  The L1 and icache geometry join the cache
    key because the memory and instruction-cache models are inlined
    into the generated source.  Per-lane immediate pools come
    from the caller via :func:`vliw_layout` over each lane's (possibly
    ``patch_constants``-patched) bundles.  Raises
    :class:`CodegenUnsupported` when the static port-pressure proof
    fails, and *fault* for malformed bundles, found once at generation
    time (the reference tier finds them while running).
    """
    from repro.sim.vliw import StopEvent  # lazy: vliw.py imports this package

    end_pc = vliw_segment_end(bundles, start_pc)
    if signature is None:
        signature = vliw_layout(bundles, start_pc, end_pc)[0]
    l1_geom = (scratchpad.n_banks, scratchpad.size_bytes)
    icache_geom = (icache.n_lines, icache.bundles_per_line, icache.miss_penalty)
    key = (
        "vliw-batch",
        tuple(slot_fus),
        (cdrf.width, cdrf.read_ports, cdrf.write_ports),
        (cprf.read_ports, cprf.write_ports),
        l1_geom,
        icache_geom,
        signature,
    )

    def gen() -> str:
        return _VliwGen(bundles, start_pc, end_pc, slot_fus, cdrf, cprf, fault,
                        l1_geom=l1_geom, icache_geom=icache_geom).generate_batch()

    fn = _compiled_fn(key, "vliw-batch", "pc%d" % start_pc, gen, "_vliw_run_batch",
                      {"_VF": fault, "_Stop": StopEvent, "_ME": MemoryError_,
                       "_BF": (fault, MemoryError_)})
    return fn, end_pc


# Aliases: the benchmark suite's span tracer (``benchmarks/suite/spans.py``)
# wraps these two names as well as the batch runners, by attribute, and
# the suite is kept unchanged so its runs stay comparable across commits.
cga_runner = cga_batch_runner
vliw_runner = vliw_batch_runner
