"""The host's speed while a run measures, from a fixed loop timed alongside.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes (see the README's *Measured noise*), which no amount of
averaging inside one run removes.  :class:`HostSpeed` measures that
drift while the run is going: a process of its own wakes every
:data:`PERIOD_S`, runs a fixed pure-Python loop (code of the benchmark,
never of the program under test) and records the loop's CPU time.  CPU
time, not wall time, so the samples measure how fast the host runs this
code, not how long the sampler waited for a CPU the run's own workers
held.  At about 2 ms per 100 ms it takes 2% of one CPU.

:meth:`HostSpeed.factor` is the mean loop time over a time window
divided by :data:`REFERENCE_S`: 1.0 on the reference host, 1.3 on a
host running 1.3x slower.  The mean, because a window's slowdown is its
time average; without the slowest and the fastest tenth of the samples,
which a context switch inside the sample decided more than the host
did.  The harness divides measured times by the factor and multiplies
measured capacity by it, so the end-to-end metrics read as on the
reference host; the values as measured go to the result file.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from typing import List, Tuple

#: Seconds between samples.
PERIOD_S = 0.1
#: Iterations of the loop per sample (about 2 ms).
LOOP_N = 6000
#: Share of the samples left out at each end of a window's mean.
TRIM = 0.1
#: The loop's CPU seconds on the reference host: a typical value on the
#: 2-CPU box the README baseline was measured on.
REFERENCE_S = 2.0e-3


def host_loop(n: int = LOOP_N) -> int:
    """A fixed mix of the interpreter work the simulator does: list
    indexing, integer arithmetic and masking."""
    regs = [0] * 16
    mem = list(range(256))
    acc = 0
    for i in range(n):
        a = regs[i & 15]
        b = mem[(i * 7) & 255]
        acc = (acc + a * b + i) & 0xFFFF
        regs[(i + 3) & 15] = acc
        mem[i & 255] = acc ^ b
    return acc


def _sample(path: str, stop) -> None:
    with open(path, "w") as fh:
        while not stop.wait(PERIOD_S):
            start = time.perf_counter()
            cpu = time.thread_time()
            host_loop()
            fh.write("%r %r\n" % (start, time.thread_time() - cpu))
            fh.flush()


class HostSpeed:
    """Samples the host's speed in a forked process until :meth:`stop`.

    Forked, not spawned: a spawned process starts ``multiprocessing``'s
    resource-tracker process, which would outlive the run.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.samples: List[Tuple[float, float]] = []
        ctx = multiprocessing.get_context("fork")
        self._stop = ctx.Event()
        self._proc = ctx.Process(target=_sample, args=(path, self._stop), daemon=True)

    def start(self) -> "HostSpeed":
        self._proc.start()
        return self

    def stop(self) -> None:
        """Stop and join the sampler; read and delete its samples."""
        self._stop.set()
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        try:
            with open(self.path) as fh:
                for line in fh:
                    start, cpu = line.split()
                    self.samples.append((float(start), float(cpu)))
            os.remove(self.path)
        except OSError:
            pass

    def loop_s(self, start: float, end: float) -> float:
        """Trimmed mean loop CPU seconds of the samples taken in
        [start, end] (of all samples when none fall inside)."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        values = sorted(inside or [cpu for _, cpu in self.samples])
        if not values:
            return REFERENCE_S
        cut = int(len(values) * TRIM)
        return statistics.mean(values[cut: len(values) - cut])

    def factor(self, start: float, end: float) -> float:
        """How many times slower than the reference host, over the window."""
        return self.loop_s(start, end) / REFERENCE_S
