"""Loop-body data-flow graphs: the compiler's kernel IR.

A :class:`Dfg` describes one loop iteration as a graph of
:class:`Node` operations.  Edges are value references:

* :class:`NodeRef` — the value of another node, ``distance`` iterations
  ago (``distance=0`` for ordinary data flow, ``distance=1`` for
  loop-carried recurrences such as accumulators and inductions, with an
  ``init`` value consumed on the first iteration);
* :class:`Const` — a compile-time constant, materialised as a
  configuration immediate;
* :class:`LiveIn` — a named loop-invariant value supplied by the VLIW
  code around the loop (a base address, a scale factor).  The scheduler
  reads it from the central register file on a ported unit or preloads
  it into the executing unit's local register file.

Nodes may be marked live-out (their final-iteration value is written to
a named central register) and may carry a guard predicate reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.opcodes import Opcode, OpGroup, group_of, latency_of


class CompileError(Exception):
    """Raised for malformed kernels and unschedulable graphs."""


@dataclass(frozen=True)
class Const:
    """A compile-time constant operand."""

    value: int


@dataclass(frozen=True)
class LiveIn:
    """A named loop-invariant operand set up by the surrounding VLIW code."""

    name: str


@dataclass(frozen=True)
class NodeRef:
    """A reference to another node's value.

    ``distance`` is the dependence distance in iterations; ``init`` must
    be given when ``distance == 1`` and supplies the value read on the
    consumer's first iteration (only distance-1 recurrences are
    supported, which covers inductions and accumulators).
    """

    node_id: int
    distance: int = 0
    init: Optional[int] = None

    def __post_init__(self) -> None:
        if self.distance not in (0, 1):
            raise CompileError("only dependence distances 0 and 1 are supported")
        if self.distance == 1 and self.init is None:
            raise CompileError("distance-1 references need an init value")
        if self.distance == 0 and self.init is not None:
            raise CompileError("init is only meaningful on recurrence edges")


Operand = Union[NodeRef, Const, LiveIn]


@dataclass
class Node:
    """One operation of the loop body."""

    node_id: int
    opcode: Opcode
    srcs: Tuple[Operand, ...]
    live_out: Optional[str] = None  # name of the live-out value
    pred: Optional[Operand] = None
    pred_negate: bool = False
    #: Execution latency and Table 1 group of ``opcode``, looked up
    #: once: the scheduler reads both in its inner loops and the opcode
    #: is never reassigned.
    latency: int = field(init=False, repr=False, compare=False)
    group: OpGroup = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.latency = latency_of(self.opcode)
        self.group = group_of(self.opcode)

    @property
    def is_store(self) -> bool:
        return self.group is OpGroup.STMEM

    @property
    def is_load(self) -> bool:
        return self.group is OpGroup.LDMEM

    @property
    def has_side_effect(self) -> bool:
        return self.is_store or self.live_out is not None


class Dfg:
    """A loop-body data-flow graph with recurrence edges."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: Dict[int, Node] = {}
        self.live_ins: List[str] = []
        self.live_outs: List[str] = []
        self._next_id = 0
        #: node id -> its (consumer, reference) pairs; built on first
        #: :meth:`consumers` query, dropped by :meth:`add_node`.
        self._consumers: Optional[Dict[int, Tuple[Tuple[Node, NodeRef], ...]]] = None

    # ------------------------------------------------------------------

    def add_node(
        self,
        opcode: Opcode,
        srcs: Sequence[Operand],
        live_out: Optional[str] = None,
        pred: Optional[Operand] = None,
        pred_negate: bool = False,
    ) -> NodeRef:
        """Append an operation; returns a distance-0 reference to it."""
        node = Node(self._next_id, opcode, tuple(srcs), live_out, pred, pred_negate)
        for src in node.srcs:
            self._check_operand(src)
        if pred is not None:
            self._check_operand(pred)
        self.nodes[node.node_id] = node
        self._next_id += 1
        self._consumers = None
        if live_out is not None:
            if live_out in self.live_outs:
                raise CompileError("duplicate live-out %r" % live_out)
            self.live_outs.append(live_out)
        return NodeRef(node.node_id)

    def declare_live_in(self, name: str) -> LiveIn:
        """Register a named loop-invariant input."""
        if name not in self.live_ins:
            self.live_ins.append(name)
        return LiveIn(name)

    def _check_operand(self, operand: Operand) -> None:
        if isinstance(operand, NodeRef):
            if operand.node_id >= self._next_id and operand.distance == 0:
                raise CompileError(
                    "forward distance-0 reference to node %d" % operand.node_id
                )
        elif isinstance(operand, LiveIn):
            if operand.name not in self.live_ins:
                raise CompileError("undeclared live-in %r" % operand.name)
        elif not isinstance(operand, Const):
            raise CompileError("bad operand %r" % (operand,))

    # ------------------------------------------------------------------

    def consumers(self, node_id: int) -> Tuple[Tuple[Node, NodeRef], ...]:
        """All (consumer node, reference) pairs reading *node_id*.

        In node order, each consumer's sources before its guard.  The
        index behind this is built once; nodes rewired in place (the
        builders patch recurrence sources) must be rewired before the
        first query.
        """
        if self._consumers is None:
            index: Dict[int, List[Tuple[Node, NodeRef]]] = {}
            for node in self.nodes.values():
                refs = list(node.srcs)
                if node.pred is not None:
                    refs.append(node.pred)
                for ref in refs:
                    if isinstance(ref, NodeRef):
                        index.setdefault(ref.node_id, []).append((node, ref))
            self._consumers = {nid: tuple(pairs) for nid, pairs in index.items()}
        return self._consumers.get(node_id, ())

    def validate(self) -> None:
        """Check structural invariants; raises :class:`CompileError`."""
        for node in self.nodes.values():
            useful = node.has_side_effect or self.consumers(node.node_id)
            if not useful:
                raise CompileError(
                    "%s: node %d (%s) is dead code"
                    % (self.name, node.node_id, node.opcode.value)
                )
        # Forward-reference cycles without a recurrence edge are
        # impossible by construction (distance-0 refs must point
        # backwards), so reaching here means the graph is well-formed.

    # ------------------------------------------------------------------

    def op_count(self) -> int:
        """Number of operations per iteration."""
        return len(self.nodes)

    def mem_op_count(self) -> int:
        """Loads + stores per iteration."""
        return sum(1 for n in self.nodes.values() if n.is_load or n.is_store)

    def critical_path(self) -> int:
        """Longest latency chain through distance-0 edges."""
        memo: Dict[int, int] = {}

        def height(nid: int) -> int:
            if nid in memo:
                return memo[nid]
            node = self.nodes[nid]
            best = node.latency
            for consumer, ref in self.consumers(nid):
                if ref.distance == 0:
                    best = max(best, node.latency + height(consumer.node_id))
            memo[nid] = best
            return best

        if not self.nodes:
            return 0
        return max(height(nid) for nid in self.nodes)

    def asap_alap(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Static ASAP/ALAP times over distance-0 edges.

        ALAP anchors short side chains (address generation) near their
        consumers, which is how the scheduler knows to place them late.
        """
        asap: Dict[int, int] = {}

        def compute_asap(nid: int) -> int:
            if nid in asap:
                return asap[nid]
            node = self.nodes[nid]
            start = 0
            for ref in list(node.srcs) + ([node.pred] if node.pred else []):
                if isinstance(ref, NodeRef) and ref.distance == 0:
                    producer = self.nodes[ref.node_id]
                    start = max(start, compute_asap(ref.node_id) + producer.latency)
            asap[nid] = start
            return start

        for nid in self.nodes:
            compute_asap(nid)
        length = max(
            (asap[nid] + self.nodes[nid].latency for nid in self.nodes), default=0
        )
        alap: Dict[int, int] = {}

        def compute_alap(nid: int) -> int:
            if nid in alap:
                return alap[nid]
            node = self.nodes[nid]
            finish = length
            for consumer, ref in self.consumers(nid):
                if ref.distance == 0:
                    finish = min(finish, compute_alap(consumer.node_id))
            alap[nid] = finish - node.latency
            return alap[nid]

        for nid in self.nodes:
            compute_alap(nid)
        return asap, alap

    def recurrence_mii(self) -> int:
        """Minimum II from recurrence cycles (distance-1 self/loop chains).

        For every cycle C in the dependence graph, II >= ceil(sum of
        latencies / sum of distances).  With distances restricted to
        {0, 1}, cycles are found by DFS over the graph including back
        edges.
        """
        best = 1
        # Build adjacency: producer -> (consumer, latency, distance).
        adj: Dict[int, List[Tuple[int, int, int]]] = {nid: [] for nid in self.nodes}
        for node in self.nodes.values():
            refs = list(node.srcs) + ([node.pred] if node.pred is not None else [])
            for ref in refs:
                if isinstance(ref, NodeRef):
                    producer = self.nodes[ref.node_id]
                    adj[producer.node_id].append(
                        (node.node_id, producer.latency, ref.distance)
                    )
        # Simple cycle detection over small graphs: bounded DFS from each
        # node following edges, tracking (latency, distance) sums.
        n = len(self.nodes)

        def dfs(start: int, current: int, lat_sum: int, dist_sum: int, depth: int):
            nonlocal best
            if depth > n:
                return
            for nxt, lat, dist in adj[current]:
                nl, nd = lat_sum + lat, dist_sum + dist
                if nxt == start:
                    if nd > 0:
                        best = max(best, -(-nl // nd))
                elif nd <= 1:  # cycles need at least one back edge; prune
                    dfs(start, nxt, nl, nd, depth + 1)

        for nid in self.nodes:
            dfs(nid, nid, 0, 0, 0)
        return best
