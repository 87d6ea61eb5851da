"""Region programs do not depend on the packet shape.

Every packet, whatever its sample count, requests the same 18 region
ids and runs the same linked programs; the sample count reaches the
``non-kernel code`` glue as a patched immediate.  These tests guard
that no shape leaks back into a program, that the patched glue is the
program a shape-specific link would build, and that a runtime serving
several shapes holds one record per region and one lane set in all.
"""

import pytest

from repro.arch import paper_core
from repro.compiler.builder import PhysReg
from repro.compiler.linker import ProgramLinker
from repro.isa.opcodes import Opcode
from repro.modem.receiver import N_SAMPLES_SENTINEL
from repro.runtime import ModemRuntime, make_packet
from repro.sim import codegen
from repro.sim.batch import BatchProgramRunner
from repro.sim.program import patch_constants

from tests.modem.test_runtime_batch import _assert_outputs_identical

#: Trailing-pad lengths of the mixed-shape serving traffic.
PADS = (0, 64, 160)


def _segments(bundles):
    pc = 0
    while pc < len(bundles):
        end = codegen.vliw_segment_end(bundles, pc)
        yield pc, end
        pc = end


def _layouts(program):
    """Signature and pool of every kernel and VLIW segment."""
    kernels = {kid: codegen.cga_layout(k)[:2] for kid, k in program.kernels.items()}
    segments = {pc: codegen.vliw_layout(program.bundles, pc, end)[:2]
                for pc, end in _segments(program.bundles)}
    return kernels, segments


@pytest.fixture(scope="module")
def linked():
    """Each pad's linked region records, from a fresh receiver."""
    out = {}
    for pad in (0, 160):
        runtime = ModemRuntime()
        runtime.run_packet(make_packet(3, extra_pad=pad).rx)
        out[pad] = runtime.receiver.regions
    return out


def test_no_region_program_depends_on_the_packet_shape(linked):
    short, long_ = linked[0], linked[160]
    assert set(short) == set(long_)
    assert len(short) == 18
    # A region id is the name plus at most a variant tag.
    assert all(len(rid) == 1 or (len(rid) == 2 and isinstance(rid[1], str))
               for rid in short)
    for rid, region in short.items():
        program, other = region.program, long_[rid].program
        assert program.bundles == other.bundles, rid
        assert program.kernels == other.kernels, rid
        assert region.handles == long_[rid].handles, rid
        assert _layouts(program) == _layouts(other), rid


@pytest.mark.parametrize("n_samples", [354, 784, 880, 1024])
def test_patched_glue_equals_the_glue_linked_for_that_shape(linked, n_samples):
    """The sentinel-linked ``non-kernel code`` program, patched with a
    sample count, is bundle for bundle the program a link against that
    literal count builds."""
    template = linked[0][("non-kernel code",)].program
    linker = ProgramLinker(paper_core(), name="non-kernel code", seed=0)
    vb = linker.vliw()
    vb.op(Opcode.ADD, 0, n_samples, dst=PhysReg(40))
    vb.op(Opcode.ADD, 0, 2, dst=PhysReg(41))
    literal = linker.link()
    patched = patch_constants(template, {N_SAMPLES_SENTINEL: n_samples})
    assert patched.bundles == literal.bundles
    assert patched.kernels == literal.kernels


@pytest.mark.parametrize("tier", ["compiled", "reference"])
def test_mixed_shapes_share_programs_and_match_per_shape_runtimes(tier, monkeypatch):
    """A runtime serving three shapes links 18 region records and holds
    one lane set, as wide as its widest chunk, shared by every region;
    its packets are bit-identical to those of fresh runtimes that each
    served one shape.  The compiled runtime is first warmed on every
    shape at widths 1 and 4, then runs four packets of four shapes as
    one lockstep call per region."""
    per_shape = 2 if tier == "compiled" else 1
    packets = [make_packet(50 + k, cfo_hz=20e3 + 5e3 * k, snr_db=30.0,
                           extra_pad=PADS[k % len(PADS)]).rx
               for k in range(per_shape * len(PADS))]
    runtime = ModemRuntime(interpreter=tier, batch=4)
    if tier == "compiled":
        for width in (1, 4):
            for pad in PADS:
                runtime.run_batch([make_packet(1, extra_pad=pad).rx] * width)
        widths = []
        run = BatchProgramRunner.run

        def counting_run(self, cores):
            widths.append(len(cores))
            return run(self, cores)

        monkeypatch.setattr(BatchProgramRunner, "run", counting_run)
        runtime.run_batch([make_packet(2, extra_pad=pad).rx for pad in (0, 16, 32, 64)])
        monkeypatch.undo()
        assert widths == [4] * 18
    mixed = runtime.run_batch(packets)
    assert runtime.compiled_programs == 18
    assert len(runtime.receiver.regions) == 18
    # As wide as the widest chunk: ``batch`` (4) on the compiled tier,
    # the 3 mixed packets on the reference tier.
    assert len(runtime._cores) == min(runtime.batch, len(packets))
    assert runtime.fallbacks == 0
    for pad_index in range(len(PADS)):
        indices = list(range(pad_index, len(packets), len(PADS)))
        solo = ModemRuntime(interpreter=tier, batch=4).run_batch([packets[i] for i in indices])
        for i, out in zip(indices, solo):
            _assert_outputs_identical(mixed[i], out)
