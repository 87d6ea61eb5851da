"""CGA interconnect topologies (Fig 3).

The interconnect is a directed graph over FU indices: an edge ``u -> v``
means the (pipelined) output latch of unit *u* can be selected by an
input multiplexer of unit *v* in the next cycle.  Every unit always sees
its own output (accumulation feedback), so ``u -> u`` edges are implied
and not stored.

The paper describes the 16 units as "densely interconnected"; the ADRES
instances of that generation used a nearest-neighbour mesh augmented
with row/column buses and diagonals.  :func:`mesh_plus_topology` builds
that family and is the default for the paper core;
:func:`full_topology` (all-to-all) is available for experiments that
factor out routability, and :func:`mesh_topology` is the sparsest
variant used in ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple


@dataclass(frozen=True)
class Interconnect:
    """Directed connectivity between CGA functional units.

    ``edges`` holds pairs ``(src_fu, dst_fu)``; self-edges are implicit.
    """

    n_units: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self) -> None:
        for src, dst in self.edges:
            if not (0 <= src < self.n_units and 0 <= dst < self.n_units):
                raise ValueError("edge (%d, %d) out of range" % (src, dst))
        succs: List[Set[int]] = [{fu} for fu in range(self.n_units)]
        for src, dst in self.edges:
            succs[src].add(dst)
        # Not a field: equality, hashing and repr see only the edges.
        object.__setattr__(self, "_successors", tuple(tuple(sorted(s)) for s in succs))

    def predecessors(self, fu: int) -> List[int]:
        """Units whose outputs unit *fu* can read (including itself)."""
        preds = {src for src, dst in self.edges if dst == fu}
        preds.add(fu)
        return sorted(preds)

    def successors(self, fu: int) -> List[int]:
        """Units that can read unit *fu*'s output (including itself)."""
        return list(self._successors[fu])

    def connected(self, src: int, dst: int) -> bool:
        """True when *dst* can read *src*'s output directly."""
        return src == dst or (src, dst) in self.edges

    @property
    def wire_count(self) -> int:
        """Number of physical point-to-point wires (excludes self loops)."""
        return len(self.edges)

    def degree_histogram(self) -> Dict[int, int]:
        """Histogram of input-mux fan-in over units (self edge included)."""
        hist: Dict[int, int] = {}
        for fu in range(self.n_units):
            deg = len(self.predecessors(fu))
            hist[deg] = hist.get(deg, 0) + 1
        return hist


def _rc(index: int, cols: int) -> Tuple[int, int]:
    return divmod(index, cols)


def _idx(row: int, col: int, cols: int) -> int:
    return row * cols + col


def mesh_topology(rows: int, cols: int) -> Interconnect:
    """Plain nearest-neighbour mesh (bidirectional, non-torus)."""
    edges: Set[Tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            u = _idx(r, c, cols)
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.add((u, _idx(rr, cc, cols)))
    return Interconnect(rows * cols, frozenset(edges))


def mesh_plus_topology(rows: int, cols: int) -> Interconnect:
    """Mesh + diagonals + full row/column buses ("densely interconnected").

    Every unit reaches: its 4-neighbourhood, its 4 diagonal neighbours,
    and every other unit in the same row and in the same column.  For a
    4x4 array this gives a fan-in of 9-10 per unit, matching the dense
    interconnect (and its dominant power share) described in the paper.
    """
    edges: Set[Tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            u = _idx(r, c, cols)
            # 8-neighbourhood.
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        edges.add((u, _idx(rr, cc, cols)))
            # Row and column buses.
            for cc in range(cols):
                if cc != c:
                    edges.add((u, _idx(r, cc, cols)))
            for rr in range(rows):
                if rr != r:
                    edges.add((u, _idx(rr, c, cols)))
    return Interconnect(rows * cols, frozenset(edges))


def full_topology(n_units: int) -> Interconnect:
    """All-to-all interconnect (routing never fails; ablation baseline)."""
    edges = {(u, v) for u in range(n_units) for v in range(n_units) if u != v}
    return Interconnect(n_units, frozenset(edges))
