"""Byte-identity pin of the generated simulator sources.

The reference packet (:func:`repro.eval.run_reference_modem`) needs 82
generated sources on an empty cache: 17 CGA kernels, one per loop body,
and 65 VLIW segments.  This test generates all of them on isolated
caches and compares one SHA-256 per source with
``codegen_sources.json``, keyed so that a failure names the source:
``cga/<kernel>@<trip>`` for a CGA kernel (the first kernel of its
signature to be generated) and ``vliw/pc<start>#<k>`` for the *k*-th
VLIW segment generated at that start pc.

A refactor of :mod:`repro.sim.codegen` that must not change the
simulated code passes unmodified.  A change that means to alter the
generated code regenerates the file with
``PYTHONPATH=src python tests/sim/test_codegen_identity.py --write``
and says why.
"""

import builtins
import hashlib
import json
import os
import sys

import repro.cache
from repro.eval import run_reference_modem
from repro.sim import codegen

_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "codegen_sources.json")


def generated_digests(patch) -> dict:
    """``{source key: sha256}`` of every source generated while the
    reference packet runs; *patch* is ``setattr``-like and must undo
    itself."""
    current = [None]
    digests: dict = {}
    counts: dict = {}

    def compile_hook(source, filename, mode):
        assert current[0] not in digests, current[0]
        digests[current[0]] = hashlib.sha256(source.encode()).hexdigest()
        return builtins.compile(source, filename, mode)

    cga_runner, vliw_runner = codegen.cga_batch_runner, codegen.vliw_batch_runner

    def cga(kernel, arch, fault, cdrf_ports, cprf_ports, trip, signature=None):
        current[0] = "cga/%s@%d" % (kernel.name, trip)
        return cga_runner(kernel, arch, fault, cdrf_ports, cprf_ports, trip, signature)

    def vliw(bundles, start_pc, *args, **kwargs):
        k = counts[start_pc] = counts.get(start_pc, -1) + 1
        current[0] = "vliw/pc%d#%d" % (start_pc, k)
        return vliw_runner(bundles, start_pc, *args, **kwargs)

    patch(codegen, "compile", compile_hook)
    patch(codegen, "cga_batch_runner", cga)
    patch(codegen, "vliw_batch_runner", vliw)
    run = run_reference_modem()
    assert run.ber == 0.0
    return digests


class _Patches:
    """A tiny ``monkeypatch`` for the ``--write`` entry point."""

    def __init__(self):
        self.undo = []

    def __call__(self, obj, name, value):
        self.undo.append((obj, name, getattr(obj, name, None), hasattr(obj, name)))
        setattr(obj, name, value)

    def close(self):
        for obj, name, old, had in reversed(self.undo):
            if had:
                setattr(obj, name, old)
            else:
                delattr(obj, name)


def test_generated_sources_are_byte_identical(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULE_CACHE", raising=False)
    monkeypatch.setattr(repro.cache, "_directory", None)
    saved_code = dict(codegen._CODE.memory)
    saved_fn = dict(codegen._FN_CACHE)
    saved_stats = dict(codegen._CODE.stats)
    codegen.clear_codegen_cache()
    try:
        got = generated_digests(lambda obj, name, value:
                                monkeypatch.setattr(obj, name, value, raising=False))
    finally:
        codegen.clear_codegen_cache()
        codegen._CODE.memory.update(saved_code)
        codegen._FN_CACHE.update(saved_fn)
        codegen._CODE.stats.update(saved_stats)
    with open(_DIGESTS) as fh:
        want = json.load(fh)
    assert sum(k.startswith("cga/") for k in got) == 17
    assert sum(k.startswith("vliw/") for k in got) == 65
    changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not changed, "generated sources differ: %s" % ", ".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_codegen_identity.py --write")
    os.environ.pop("REPRO_SCHEDULE_CACHE", None)
    patches = _Patches()
    try:
        digests = generated_digests(patches)
    finally:
        patches.close()
    with open(_DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(digests), _DIGESTS))
