"""Direct-mapped instruction cache with 128-bit lines.

The paper's I$ is 32 KB with a dedicated 128-bit-wide instruction memory
interface; after reset the first fetches all miss, filling the cache
(cold-start behaviour the simulator reproduces).

The cache is modelled at the timing level only: it maps a *bundle
address* to a line and answers hit (no extra cycles) or miss
(``miss_penalty`` stall cycles while the 128-bit line refills).  Bundle
contents live in the program object; one line holds ``bundles_per_line``
consecutive bundles (a 3-slot bundle is assumed to occupy one 128-bit
word, as the paper's instruction memory interface suggests).
"""

from __future__ import annotations

from typing import List, Optional

from repro.arch.resources import MemorySpec
from repro.sim.stats import ActivityStats
from repro.trace.tracer import NULL_TRACER, Tracer


class InstructionCache:
    """Timing model of the direct-mapped I$.

    Parameters
    ----------
    spec:
        The SRAM macro (words x 128-bit).
    miss_penalty:
        Refill cycles per missed line.
    bundles_per_line:
        How many VLIW bundles share one 128-bit line (default 1: one
        3-issue bundle per line).
    """

    def __init__(
        self,
        spec: MemorySpec,
        miss_penalty: int = 8,
        bundles_per_line: int = 1,
        stats: Optional[ActivityStats] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self.n_lines = spec.words
        self.miss_penalty = miss_penalty
        self.bundles_per_line = bundles_per_line
        self._tags: List[Optional[int]] = [None] * self.n_lines
        #: Lines ``0 .. _warm_lines-1`` are all that may hold a tag
        #: (see :meth:`warm`); any line may before the first warm-up.
        self._warm_lines = self.n_lines
        self.stats = stats if stats is not None else ActivityStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def fetch(self, bundle_pc: int, cycle: int = 0) -> int:
        """Fetch the bundle at *bundle_pc*; returns stall cycles (0 on hit).

        *cycle* timestamps the miss event in the trace; it does not
        affect the timing model.
        """
        line_addr = bundle_pc // self.bundles_per_line
        index = line_addr % self.n_lines
        tag = line_addr // self.n_lines
        if self._tags[index] == tag:
            self.stats.icache_hits += 1
            return 0
        self._tags[index] = tag
        self.stats.icache_misses += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "stall.icache_miss",
                cycle,
                cat="stall",
                args={"pc": bundle_pc, "cycles": self.miss_penalty},
            )
        return self.miss_penalty

    def flush(self) -> None:
        """Invalidate all lines (reset behaviour)."""
        self._tags = [None] * self.n_lines
        self._warm_lines = self.n_lines

    def warm(self, n_bundles: int) -> None:
        """Set the tags :meth:`flush` followed by :meth:`fetch` of
        bundles ``0 .. n_bundles-1`` in pc order leaves, without counting
        those fetches and without rebuilding every line.  Between two
        warm-ups a core fetches only the bundles of the program the
        first one warmed, so only that warm-up's lines may hold a tag
        and only those are invalidated.  The tag list is updated in
        place."""
        n, per = self.n_lines, self.bundles_per_line
        lines = -(-n_bundles // per)
        tags = self._tags
        if lines >= n:
            # Line index i last holds line address lines-1-((lines-1-i) % n).
            tags[:] = [(lines - 1 - i) // n for i in range(n)]
            self._warm_lines = n
            return
        stale = self._warm_lines
        if stale > lines:
            tags[lines:stale] = [None] * (stale - lines)
        tags[:lines] = [0] * lines
        self._warm_lines = lines

    @property
    def hit_rate(self) -> float:
        """Fraction of fetches that hit."""
        total = self.stats.icache_hits + self.stats.icache_misses
        if total == 0:
            return 0.0
        return self.stats.icache_hits / total
