"""The CGA emitter: one kernel's lane-batched steady-state function.

:class:`_CgaGen` walks the step list of its :class:`~.analysis.CgaSchedule`
and emits the kernel's ``II`` contexts unrolled into straight-line
code: the unrolled prologue and epilogue slots around a steady-state
loop, the drain, and the closed-form counter flush.  Every latch
commit, shift, routing move and lane swizzle is resolved here, at
generation time, against the liveness the analysis worked out.
"""

from __future__ import annotations

import itertools
import keyword
import re
from typing import Dict, List, Optional, Tuple

from repro.isa.bits import MASK64
from repro.isa.opcodes import Opcode, OpGroup
from repro.sim import memops
from repro.sim.codegen.analysis import CgaSchedule, _CgaChain
from repro.sim.codegen.templates import (
    _CRF_COUNTERS, _INT, _L1_COUNTERS, _LANES, _LRF_COUNTERS, _SCALAR_EXPR, CodegenUnsupported,
    _as_int, _base_namespace, _emit_clamp, _emit_flush, _emit_inline_read, _emit_inline_write,
    _emit_lane_batch, _emit_zero, _issue_counters, _lane_atoms, _lane_operand, _lane_template,
    _literal_lanes, _literal_value, _require_lane_words,
)
from repro.sim.program import DstKind, SrcKind

#: Names generated CGA code reads from its namespace or the builtins.
_GLOBAL_NAMES = frozenset(_base_namespace()) | {"_ME", "int"}

#: An atom: a local, a pool immediate or an integer literal (negative
#: ones parenthesised) -- an expression a value can be held as without
#: evaluating anything.
_ATOM = re.compile(r"[A-Za-z_]\w*|\d+|\(-\d+\)")
#: A name that is not an attribute, and a string literal.
_LOCAL = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
_STRING = re.compile(r"'[^']*'")


def _is_var(atom: str) -> bool:
    """Is *atom* a local that generated code assigns (not a literal, a
    pool immediate ``imm_<k>`` or an immediate's lane ``iv_<k>_<i>``)?"""
    var = _VARS.get(atom)
    if var is None:
        var = _VARS[atom] = ((atom[0].isalpha() or atom[0] == "_")
                             and not atom.startswith(("imm_", "iv_")))
    return var


_VARS: Dict[str, bool] = {}


def _emit_moves(lines: List[str], ind: str, moves: List[Tuple[str, str]]) -> None:
    """Emit the parallel copy of every ``(dst, src)`` atom pair (distinct
    *dst* locals) as sequential assignments: a pair goes once no other
    pending pair still reads its destination; a cycle is broken through
    a temporary."""
    pending = [(d, s) for d, s in moves if d != s]
    n_tmp = 0
    while pending:
        reads = {s for _d, s in pending}
        for k, (d, s) in enumerate(pending):
            if d not in reads:
                lines.append(ind + "%s = %s" % (d, s))
                del pending[k]
                break
        else:
            d = pending[0][0]
            tmp = "_t%d" % n_tmp
            n_tmp += 1
            lines.append(ind + "%s = %s" % (tmp, d))
            pending = [(dd, tmp if ss == d else ss) for dd, ss in pending]


class _Val:
    """A value as generated code holds it: an int expression ``i``, four
    lane expressions ``t`` (lane 0 first), or both (an int split into
    lanes for its first SIMD reader, or a local-RF entry the kernel only
    reads, split at entry).  The expressions of a value held by a
    location are atoms."""

    __slots__ = ("i", "t", "vars")

    def __init__(self, i: Optional[str] = None, t: Optional[Tuple[str, ...]] = None):
        self.i = i
        self.t = t
        #: The atoms generated code assigns (see :func:`_is_var`).
        if t is None:
            self.vars = (i,) if _is_var(i) else ()
        else:
            self.vars = tuple([a for a in self.atoms() if _is_var(a)])

    def atoms(self) -> Tuple[str, ...]:
        return ((self.i,) if self.i is not None else ()) + (self.t or ())

    def renamed(self, names: Dict[str, str]) -> "_Val":
        return _Val(None if self.i is None else names.get(self.i, self.i),
                    None if self.t is None else tuple(names.get(a, a) for a in self.t))


def _same(a: Optional[_Val], b: Optional[_Val]) -> bool:
    if a is None or b is None:
        return a is b
    return a.i == b.i and a.t == b.t


def _home(loc: str, like: _Val) -> _Val:
    """*loc*'s own locals, in *like*'s forms."""
    return _Val(None if like.i is None else loc, None if like.t is None else _lane_atoms(loc))


class _CgaGen(CgaSchedule):
    """Emits the specialized steady-state function of one kernel.

    Every location (see :mod:`.analysis`) refers to the locals holding
    its value (``loc``), so a latch commit, a shift, a routing move or a
    lane swizzle is resolved here, at generation time, and emits
    nothing; only computed values are assigned, each to a local no live
    location still refers to.  Which locations are live comes from the
    analysis' log of every location read and write.  The shift registers
    of predicated ops, which may hold ``_A`` at run time, are locals of
    their own, and a conditional write first moves the location's value
    into the location's own locals (:meth:`_materialize`).

    A value's form is static: a SIMD result or an 8-byte load is four
    lane locals, anything else one int.  Forms convert only where a
    consumer needs the other one: central-RF reads and writes, scalar,
    address and predicate operands (a predicate or a shift amount reads
    lane 0), stores of at most 4 bytes and the write-back at kernel
    exit; an immediate or a local-RF entry the kernel only reads is
    converted once at entry."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.cdrf_mask = (1 << self.arch.cdrf.width) - 1
        self.cprf_mask = 1  # PredicateFile is 1-bit regardless of arch.cprf
        #: The location -> value map and, per assigned local, the
        #: locations whose value uses it.
        self.loc: Dict[str, Optional[_Val]] = {}
        self.holders: Dict[str, set] = {}
        #: The index of the next location event and each location's
        #: last one.
        self.ev = 0
        self.last_ev: Dict[str, int] = {}
        #: Pool slots of the immediates read as lanes (see _lane_operand).
        self.lane_imms: set = set()
        #: Locals of the steady loop, in order of first use.
        self.loop_names: List[str] = []
        #: Ops whose values needed more than one local in a steady-loop
        #: emission, and how many.
        self.rotating: Dict[str, int] = {}
        #: ``(copy, unroll, rotating op keys)`` while emitting an
        #: unrolled loop body.
        self.copy: Optional[tuple] = None

    # -- locations -----------------------------------------------------
    #
    # The emission walks the analysis' steps and so makes the logged
    # location events in their order: ``ev`` is the index of the next
    # one.  It reuses every local only dead locations refer to.  Copies,
    # conversions and renames emitted on the way are not events.

    def _live(self, loc: str) -> bool:
        """Is the value *loc* holds now read before it is overwritten?"""
        return self.live_after[self.last_ev[loc]]

    def _hold(self, loc: str, val: Optional[_Val]) -> None:
        """Point *loc* at *val* (no event)."""
        holders = self.holders
        old = self.loc.get(loc)
        if old is not None:
            for a in old.vars:
                holders[a].discard(loc)
        self.loc[loc] = val
        if val is not None:
            for a in val.vars:
                held = holders.get(a)
                if held is None:
                    holders[a] = {loc}
                else:
                    held.add(loc)

    def _drop(self, loc: str) -> None:
        """Forget *loc*'s value (it is dead)."""
        old = self.loc.pop(loc, None)
        if old is not None:
            for a in old.vars:
                self.holders[a].discard(loc)

    def _get(self, loc: str, absent: bool = False) -> Optional[_Val]:
        """Read *loc* (an event); *absent* allows an empty register."""
        self.last_ev[loc] = self.ev
        self.ev += 1
        val = self.loc[loc]
        assert absent or val is not None, loc
        return val

    def _set(self, loc: str, val: Optional[_Val]) -> None:
        """Write *loc* (an event): it now holds *val*."""
        self.last_ev[loc] = self.ev
        self.ev += 1
        self._hold(loc, val)

    def _free(self, atom: str, avoid) -> bool:
        if atom in avoid:
            return False
        held = self.holders.get(atom)
        if held:
            live, last = self.live_after, self.last_ev
            for h in held:
                if live[last[h]]:
                    return False
        return True

    def _claim(self, atom: str) -> None:
        held = self.holders.get(atom)
        if held:
            for h in list(held):
                self._drop(h)

    def _alloc(self, key: str, n: int, ok=None, avoid=()) -> Tuple[str, ...]:
        """*n* locals (1: an int, 4: lanes) named after *key* that no
        live location refers to and that pass *ok*: ``key``, else
        ``key`` + ``v1``, ``v2``...  Copy *c* of a loop body unrolled
        *u* times tries ``v<c>``, ``v<c+u>``... first for the ops whose
        values rotate (see :meth:`_emit_steady`)."""
        free = self._free
        if n == 1 and ok is None and (self.copy is None or key not in self.copy[2]) \
                and free(key, avoid):
            return (key,)
        if ok is None:
            def ok(atoms):
                for a in atoms:
                    if not free(a, avoid):
                        return False
                return True
        versions = itertools.count()
        if self.copy is not None:
            c, u, rotating = self.copy
            if key in rotating:
                versions = itertools.chain(range(c, 8 * u, u), versions)
        for v in versions:
            base = key if v == 0 else "%sv%d" % (key, v)
            atoms = (base,) if n == 1 else _lane_atoms(base)
            if ok(atoms):
                if v and self.copy is not None and key[0] == "x":
                    self.rotating[key] = max(self.rotating.get(key, 1), v + 1)
                return atoms

    def _define(self, lines: List[str], ind: str, key: str, exprs, keep=(),
                avoid=()) -> _Val:
        """The value of *exprs*: one int expression, or four lane
        expressions each with the clamp it still needs.  An atom of
        *keep* (the operands' own locals) or a literal or immediate is
        held as it is; every other expression is assigned, in order, to
        a free local named after *key* that no later expression reads,
        and clamped in place."""
        n = len(exprs)
        if n == 1:
            expr = exprs[0]
            if expr[0] != "(" and _ATOM.fullmatch(expr) and (expr in keep or not _is_var(expr)):
                return _Val(i=expr)
            (atom,) = self._alloc(key, 1, avoid=avoid)
            self._claim(atom)
            lines.append(ind + "%s = %s" % (atom, expr))
            return _Val(i=atom)
        computed = [k for k, (e, _c) in enumerate(exprs)
                    if not (_ATOM.fullmatch(e) and (e in keep or not _is_var(e)))]
        held = [e for e, _c in exprs]
        if computed:
            kept = {held[k] for k in range(n) if k not in computed}
            # A local a later lane reads (a substring test: at worst it
            # refuses a local it could have taken) is not free.
            later = {k: " ".join(held[j] for j in computed if j > k) for k in computed}

            def ok(atoms):
                for k in computed:
                    a = atoms[k]
                    if a in kept or a in later[k] or not self._free(a, avoid):
                        return False
                return True

            atoms = self._alloc(key, n, ok)
            for k in computed:
                self._claim(atoms[k])
                lines.append(ind + "%s = %s" % (atoms[k], held[k]))
                _emit_clamp(lines, ind, atoms[k], exprs[k][1])
                held[k] = atoms[k]
        return _Val(i=held[0]) if n == 1 else _Val(t=tuple(held))

    def _int(self, val: _Val) -> str:
        """*val* as an int expression."""
        if val.i is not None:
            return val.i
        lanes = [_literal_value(a) for a in val.t]
        if None not in lanes:
            return str(sum((x & 65535) << (16 * k) for k, x in enumerate(lanes)))
        return _as_int(val.t, _LANES)

    def _lanes(self, lines: List[str], ind: str, val: _Val, key: str,
               avoid) -> Tuple[str, ...]:
        """*val* as four lane atoms, converted into locals named after
        *key* (none of *avoid*) when held as an int."""
        if val.t is not None:
            return val.t
        x = val.i
        if x.startswith("imm_"):
            return _lane_operand(x, _INT, self.lane_imms)
        lit = _literal_value(x)
        if lit is not None:
            return _literal_lanes(lit & MASK64)
        atoms = self._alloc(key, 4, avoid=avoid)
        for a in atoms:
            self._claim(a)
        lines.append(ind + "%s = _U4(_P8(%s))" % (", ".join(atoms), x))
        # The locations holding the int hold its lanes too: the value is
        # split once per definition, not once per SIMD read.
        for h in list(self.holders.get(x, ())):
            held = self.loc[h]
            if held.i == x and held.t is None:
                self._hold(h, _Val(x, atoms))
        return atoms

    def _materialize(self, lines: List[str], ind: str, loc: str) -> None:
        """Move *loc*'s value into its own locals (``loc``, or
        ``loc_0``..``loc_3`` for lanes) so a conditional write can assign
        them; another live location using one of them keeps its value
        in a new local."""
        val = self.loc[loc]
        if val.i is not None:
            val = _Val(i=val.i)  # a conditional write assigns one form
        home = _home(loc, val)
        for a in home.atoms():
            self._evacuate(lines, ind, a, loc)
        _emit_moves(lines, ind, list(zip(home.atoms(), val.atoms())))
        self._hold(loc, home)

    def _evacuate(self, lines: List[str], ind: str, atom: str, keep: str) -> None:
        """Copy *atom* into a new local for every live location but
        *keep* that uses it (dead ones forget their value)."""
        users = [h for h in self.holders.get(atom, ()) if h != keep]
        live = [h for h in users if self._live(h)]
        for h in users:
            if h not in live:
                self._drop(h)
        if live:
            (new,) = self._alloc("e", 1, avoid={atom})
            self._claim(new)
            lines.append(ind + "%s = %s" % (new, atom))
            for h in live:
                self._hold(h, self.loc[h].renamed({atom: new}))

    def _snapshot(self):
        return (dict(self.loc), {a: set(h) for a, h in self.holders.items() if h},
                dict(self.last_ev), self.ev, set(self.lane_imms))

    def _restore(self, snap) -> None:
        loc, holders, last_ev, ev, lane_imms = snap
        self.loc = dict(loc)
        self.holders = {a: set(h) for a, h in holders.items()}
        self.last_ev = dict(last_ev)
        self.ev = ev
        self.lane_imms = set(lane_imms)

    # -- operand emission ----------------------------------------------

    def _read_operand(self, lines: List[str], ind: str, site: tuple, it0: bool,
                      tally=None) -> _Val:
        """Emit the read of one operand *site* (see
        :meth:`~.analysis.CgaSchedule._site`); returns its value.
        Mirrors the reference tier's ``_read_src``.  With *tally*,
        unconditional access counts accumulate statically instead of
        emitting per-read increments.

        A phi read in the op's iteration 0 (*it0*) yields the initial
        immediate without touching the base location (and without its
        stats), exactly like the reference reader."""
        init, counter, loc, value = site
        if init is not None and it0:
            return _Val(i=init)
        if counter is not None:
            if tally is None:
                lines.append(ind + counter + " += 1")
            else:
                tally[counter] += 1
        return _Val(i=value) if loc is None else self._get(loc)

    def _pred_home(self, rec: _CgaChain, j: int) -> Tuple[str, ...]:
        """The locals of a predicated op's shift register *j*: lanes for
        a SIMD result or an 8-byte load, else an int; ``_A`` (in lane 0)
        while it holds nothing."""
        name = rec.regs[j]
        if rec.kind == "load":
            lanes = self._lane_load(rec.op.opcode)
        else:
            lanes = rec.simd and not rec.identity
        return _lane_atoms(name) if lanes else (name,)

    def _lane_load(self, opcode: Opcode) -> bool:
        """8-byte loads yield lanes unless a register file is wider than
        64 bits (its ints could not all convert; no SIMD runs there)."""
        return memops.mem_info(opcode).size == 8 and self.word_bits <= 64

    # -- commit emission -----------------------------------------------

    def _commit_writes(self, lines: List[str], ind: str, rec: _CgaChain,
                       val: _Val, last: bool, tally=None) -> None:
        """Latch write-back plus destination writes for one commit of
        *val*; *last* says statically whether the committing iteration is
        the last one, which decides the ``last_iteration_only`` writes."""
        self._set(rec.latch, val)
        for d, loc, counter, mask in rec.fires[last]:
            if tally is None:
                lines.append(ind + counter + " += 1")
            else:
                tally[counter] += 1
            if d.kind is not DstKind.LRF:
                lines.append(ind + self._central_write(d, loc, val))
                continue
            held = val
            if mask is not None:
                held = self._define(lines, ind, "m%d" % rec.oid,
                                    ("%s & %d" % (self._int(val), mask),),
                                    avoid=set(val.atoms()))
            self._set(loc, held)

    def _central_write(self, dst, target: str, val: _Val) -> str:
        if dst.kind is DstKind.CDRF:
            value = self._int(val)
            if val.i is not None or self.cdrf_mask < MASK64:  # lanes fit 64 bits
                value = "%s & %d" % (value, self.cdrf_mask)
            return "%s = %s" % (target, value)
        low = val.i if val.i is not None else val.t[0]
        return "%s = %s & %d" % (target, low, self.cprf_mask)

    def _commit_conditional(self, lines: List[str], ind: str, rec: _CgaChain,
                            j: int, last: bool, drain: Optional[int] = None) -> None:
        """Commit of a predicated op's shift register *j* when it holds a
        value at run time (and, in the drain, record *drain*)."""
        head = self._pred_home(rec, j)
        val = _Val(i=head[0]) if len(head) == 1 else _Val(t=head)
        fires = rec.fires[last]
        for loc in [rec.latch] + [loc for d, loc, _c, _m in fires if d.kind is DstKind.LRF]:
            self._materialize(lines, ind, loc)
        lines.append(ind + "if %s is not _A:" % head[0])
        body = ind + "    "
        if drain is not None:
            lines.append(body + "drain = %d" % drain)
        self._assign_home(lines, body, rec.latch, val)
        for d, loc, counter, mask in fires:
            lines.append(body + counter + " += 1")
            if d.kind is not DstKind.LRF:
                lines.append(body + self._central_write(d, loc, val))
            elif mask is None:
                self._assign_home(lines, body, loc, val)
            else:
                self._assign_home(lines, body, loc, _Val(i="%s & %d" % (self._int(val), mask)))

    def _assign_home(self, lines: List[str], ind: str, loc: str, val: _Val) -> None:
        """Conditionally write *val* into materialized *loc* (an event
        that keeps the old value live: a read)."""
        home = self._get(loc)
        if home.i is not None:
            lines.append(ind + "%s = %s" % (home.i, self._int(val)))
        elif val.t is not None:
            for h, x in zip(home.t, val.t):
                lines.append(ind + "%s = %s" % (h, x))
        else:
            lines.append(ind + "%s = _U4(_P8(%s))" % (", ".join(home.t), val.i))

    # -- issue emission ------------------------------------------------

    def _emit_execute(self, lines: List[str], ind: str, rec: _CgaChain, it0: bool,
                      tally=None, idle: bool = False) -> None:
        """Emit one op's operand reads and execution.  *idle* says the op
        is its context's first memory access (see :meth:`_emit_slot`)."""
        op = rec.op
        key = rec.key
        if rec.kind == "dataflow":
            reads = [self._read_operand(lines, ind, site, it0, tally=tally)
                     for site in rec.src_sites]
            if rec.simd:
                keep = {a for r in reads for a in r.atoms()}
                _require_lane_words(op.opcode, self.word_bits)
                if rec.identity:
                    val = reads[0]
                    if val.i is not None and not _ATOM.fullmatch(val.i):
                        val = self._define(lines, ind, key, (val.i,))  # a central register
                    self._issue_write(lines, ind, rec, val)
                    return
                a = self._lanes(lines, ind, reads[0], "y%d" % rec.oid, keep)
                b = None
                if rec.arity == 2:
                    if rec.shifts:
                        b = reads[1].i if reads[1].i is not None else reads[1].t[0]
                    else:
                        b = self._lanes(lines, ind, reads[1], "z%d" % rec.oid, keep | set(a))
                exprs = _lane_template(lines, ind, op.opcode, a, b, self.word_bits)
                lanes = set(a) | (set(b) if isinstance(b, tuple) else set())
                val = self._define(lines, ind, key, exprs, keep=lanes)
            else:
                arity = rec.arity
                use = [self._int(r) for r in reads[:arity]] + ["0"] * (2 - min(arity, 2))
                val = self._define(lines, ind, key, (_SCALAR_EXPR[op.opcode](use[0], use[1]),))
            self._issue_write(lines, ind, rec, val)
            return
        info = memops.mem_info(op.opcode)
        sites = rec.src_sites
        base = self._int(self._read_operand(lines, ind, sites[0], it0, tally=tally))
        off_sel = op.srcs[1]
        if off_sel.kind is SrcKind.IMM and off_sel.init is None:
            lines.append(
                "%saddr = (((%s) & 4294967295) + %s) & 4294967295" % (ind, base, sites[1][3])
            )
        else:
            off = self._int(self._read_operand(lines, ind, sites[1], it0, tally=tally))
            lines.append(
                "%saddr = (((%s) & 4294967295) + ((%s) & 4294967295)) & 4294967295"
                % (ind, base, off)
            )
        geom = (self.arch.l1.banks, self.arch.l1.bytes)
        if rec.kind == "load":
            lanes = self._lane_load(op.opcode)
            atoms = self._alloc(key, 4 if lanes else 1)
            for a in atoms:
                self._claim(a)
            if _emit_inline_read(lines, ind, "physical", info.size, *geom, tally=tally,
                                 idle=idle, dest=", ".join(atoms), lanes=lanes):
                lines.append(ind + "stall_offset += extra")
            if lanes:
                val = _Val(t=atoms)
            else:
                if info.signed:
                    hb = 1 << (info.size * 8 - 1)
                    lines.append(ind + "%s = ((%s ^ %d) - %d) & 4294967295"
                                 % (atoms[0], atoms[0], hb, hb))
                val = _Val(i=atoms[0])
            self._issue_write(lines, ind, rec, val)
        else:  # store: no latch, no commit chain
            sv = self._read_operand(lines, ind, sites[2], it0, tally=tally)
            lanes = None
            if info.size == 8 and sv.t is not None:
                lanes = ", ".join(sv.t)
            else:
                lines.append(ind + "v_st = (%s) & %d"
                             % (self._int(sv), (1 << (info.size * 8)) - 1))
            if _emit_inline_write(lines, ind, "physical", info.size, *geom,
                                  tally=tally, idle=idle, lanes=lanes):
                lines.append(ind + "stall_offset += extra")

    def _issue_write(self, lines: List[str], ind: str, rec: _CgaChain, val: _Val) -> None:
        """*val* enters the op's last shift register."""
        if rec.op.pred is None:
            self._set(rec.regs[-1], val)
            return
        home = self._pred_home(rec, rec.n - 1)
        if len(home) == 1:
            lines.append(ind + "%s = %s" % (home[0], self._int(val)))
            return
        lanes = self._lanes(lines, ind, val, "y%d" % rec.oid, set(val.atoms()))
        for h, x in zip(home, lanes):
            lines.append(ind + "%s = %s" % (h, x))

    def _emit_issue(self, lines: List[str], ind: str, rec: _CgaChain, it0: bool,
                    tally=None, idle: bool = False) -> None:
        op = rec.op
        body = ind
        body_tally = tally
        if op.pred is not None:
            # The predicate read itself is unconditional; the op body is
            # data-dependent, so its accounting stays inline.
            pv = self._read_operand(lines, ind, rec.pred_site, it0, tally=tally)
            pexpr = pv.i if pv.i is not None else pv.t[0]
            if op.pred_negate:
                lines.append(ind + "if (%s) & 1:" % pexpr)
            else:
                lines.append(ind + "if not ((%s) & 1):" % pexpr)
            lines.append(ind + "    squashed += 1")
            lines.append(ind + "else:")
            body = ind + "    "
            body_tally = None
            lines.append(body + "n_fu%d += %d" % (rec.fu, rec.weight))
            lines.append(body + "n_g_%s += %d" % (rec.group.name, rec.weight))
            lines.append(body + "pred_weight += %d" % rec.weight)
        self._emit_execute(lines, body, rec, it0, tally=body_tally, idle=idle)

    # -- whole-function assembly ---------------------------------------

    def generate_batch(self) -> str:
        """One function advancing any number of packets' steady-state
        windows back to back through structure-of-arrays arguments, with
        the scratchpad model inlined against per-lane byte views and
        bank clocks.  A lane that faults lands its exception in
        ``faults[lane]`` — its partial state is unusable (deferred
        counters are lost) and the caller must re-run that lane from
        scratch — while the remaining lanes complete normally.

        Precondition: every bank clock is at or below the lane's start
        cycle.  Every bank is then idle when each context starts: after
        a context at physical cycle ``P`` whose accesses add ``S`` stall
        cycles, each clock is at most ``P + 1 + S``, the next context's
        physical cycle.  So each context's first access is served at
        ``physical`` without arbitration.

        The emission walks the analysis' step list and uses the liveness
        of its location events."""
        lines = _emit_lane_batch(
            "def _cga_run_batch(trips, start_cycles, preload_cycles_s, imms_s,"
            " out_latch_s, CD_s, CP_s, local_rfs_s, mem_s, stats_s, ends, faults):",
            "trips", ("trip = trips[_b]", "start_cycle = start_cycles[_b]",
                      "preload_cycles = preload_cycles_s[_b]", "imms = imms_s[_b]",
                      "out_latch = out_latch_s[_b]", "CD = CD_s[_b]", "CP = CP_s[_b]",
                      "local_rfs = local_rfs_s[_b]", "stats = stats_s[_b]"),
            self.has_load, self.has_mem, len(self.pool), self._emit_lane, "_ME")
        if self.loop_names:
            # Locals take their slots in order of first use: the steady
            # loop's come first, so its loads and stores need no
            # EXTENDED_ARG prefix.
            lines.insert(1, "    %s = None" % " = ".join(self.loop_names))
        return "\n".join(lines) + "\n"

    # -- slot emission -------------------------------------------------
    #
    # Every statically-known access count is hoisted out of the steady
    # loop into one closed-form adjustment (``tally``).

    _TALLY_KEYS = (*_CRF_COUNTERS, *_LRF_COUNTERS, "n_l1r", "n_l1w")

    def _emit_commit(self, lines: List[str], ind: str, rec: _CgaChain,
                     present: bool, last: bool, tally) -> None:
        """Commit phase of one chain (see :meth:`~.analysis.CgaSchedule._slot`):
        presence, shift liveness and the last-iteration check are all
        compile-time; predicated chains keep the runtime ``_A`` test (a
        squash leaves the register empty)."""
        regs = rec.regs
        if rec.op.pred is not None:
            if present:
                self._commit_conditional(lines, ind, rec, 0, last)
            for j in range(rec.n - 1):
                for d, s in zip(self._pred_home(rec, j), self._pred_home(rec, j + 1)):
                    lines.append(ind + "%s = %s" % (d, s))
            lines.append(ind + "%s = _A" % self._pred_home(rec, rec.n - 1)[0])
            return
        if present:
            self._commit_writes(lines, ind, rec, self._get(regs[0]), last, tally)
        for j in range(rec.n - 1):
            self._set(regs[j], self._get(regs[j + 1], absent=True))
        self._set(regs[-1], None)

    def _emit_slot(self, lines: List[str], ind: str, steps, I: Optional[int],
                   tally, shift: int = 0) -> None:
        """Emit the *steps* of slot *I*, or of a steady slot (``I is
        None``) *shift* slots after ``iter_slot``."""
        ii = self.kernel.ii
        for p, commits, issues, memory in steps:
            for rec, present, last in commits:
                self._emit_commit(lines, ind, rec, present, last, tally)
            if memory and I is None:
                lines.append(ind + "physical = start_cycle + iter_slot * %d + %d"
                             " + stall_offset" % (ii, shift * ii + p))
            elif memory:
                lines.append(ind + "physical = start_cycle + %d + stall_offset" % (I * ii + p))
            for rec, it0, idle in issues:
                self._emit_issue(lines, ind, rec, it0, tally=tally, idle=idle)

    def _emit_body(self, lines: List[str], ind: str) -> Dict[str, int]:
        tally = dict.fromkeys(self._TALLY_KEYS, 0)
        for I, steps in self.prologue:
            lines.append(ind + "# slot %d" % I)
            self._emit_slot(lines, ind, steps, I, tally)
        if self.steady is not None:
            steady = self._emit_steady(lines, ind)
            _T, lo, hi = self.plan
            for key in tally:
                tally[key] += steady[key] * (hi - lo + 1)
        for I, steps in self.epilogue:
            lines.append(ind + "# slot %d" % I)
            self._emit_slot(lines, ind, steps, I, tally)
        return tally

    # -- the steady loop -----------------------------------------------
    #
    # The loop body is emitted once, so every location live into it must
    # hold the same locals at its end as at its start, or be copied back
    # at the back edge.  The body first enters in the locals the prologue
    # left.  A location whose copy would overwrite a local another
    # location still needs, or a literal, enters in its own locals (its
    # home) instead, copied once before the loop.
    #
    # A value still live when the next one of its op is computed (a
    # shift-register chain at a small II, a latch read after its op
    # issues again) needs a second local, and the locals rotate: one
    # body would copy each of them back every iteration.  The body is
    # then also emitted unrolled ``u`` times (modulo variable expansion,
    # ``u`` the most locals one op needed, at most :attr:`_MAX_UNROLL`),
    # copy ``c`` taking local ``v<c>`` of each such op, and re-emitted
    # entering in the locals its last emission left; the cheapest loop
    # per iteration wins, and the ``count % u`` iterations left over
    # follow the loop.  Otherwise the single body is tried once more
    # entering where it leaves off (an accumulator whose prologue value
    # sits in another local then updates its local in place).

    #: Largest unroll factor tried.
    _MAX_UNROLL = 4

    def _emit_steady(self, lines: List[str], ind: str) -> Dict[str, int]:
        """Emit the steady-state loop; returns one iteration's tally."""
        _T, lo, hi = self.plan
        count = hi - lo + 1
        live_in = self.body_live_in
        outside = {L: self.loc.get(L) for L in live_in}
        snap = self._snapshot()
        body_ind = ind + "    "
        self.rotating = {}
        best = self._loop_passes(1, snap, outside, body_ind, 1)
        if best is not None and best["cost"]:
            u = min(self._MAX_UNROLL, max([1] + list(self.rotating.values())))
            single = best
            if u > 1 and count >= 3 * u:
                # The first emission enters in homes, which no copy's own
                # locals collide with; the second where it leaves off.
                homes = {L: v if v is None else _home(L, v) for L, v in outside.items()}
                unrolled = self._loop_passes(u, snap, outside, body_ind, 2, set(self.rotating),
                                             entry={"entry": homes, "out": {}})
                if unrolled is not None and unrolled["cost"] < best["cost"] * u:
                    best = unrolled
            if best is single and not self.rotating:
                # Enter where the body leaves off, when that copies less.
                again = self._loop_passes(1, snap, outside, body_ind, 1, entry=best)
                if again is not None and again["cost"] < best["cost"]:
                    best = again
        if best is None:
            raise CodegenUnsupported("kernel %s: steady-loop locals do not settle"
                                     % self.kernel.name)
        u = best["unroll"]
        groups, rest = divmod(count, u)
        self._restore(best["state"])
        entry, out = best["entry"], best["out"]
        self._emit_transfer(lines, ind, outside, entry, live_in)
        back: List[str] = []
        moved = self._emit_transfer(back, body_ind, out, entry, live_in, keep_live=True)
        if best["body"] or back:  # a body of resolved moves and selects emits nothing
            if u == 1:
                lines.append(ind + "for iter_slot in range(%d, %d):" % (lo, hi + 1))
            else:
                lines.append(ind + "for iter_slot in range(%d, %d, %d):"
                             % (lo, lo + u * groups, u))
            lines.extend(best["body"])
            lines.extend(back)
        for L in live_in:
            self._hold(L, entry[L] if L in moved else out[L])
        self.loop_names = self._names(best["body"] + back)
        span_lo, span_hi = self.body_span
        for j in range(rest):
            # ``iter_slot`` still holds the last group's first iteration.
            lines.append(ind + "# iteration %d" % (lo + u * groups + j))
            self.ev = span_lo
            self._emit_slot(lines, ind, self.steady, None, dict.fromkeys(self._TALLY_KEYS, 0),
                            shift=u + j)
        self.ev = span_hi
        return best["steady"]

    def _loop_passes(self, u: int, snap, outside: Dict[str, Optional[_Val]], ind: str,
                     passes: int, rotating=frozenset(), entry=None):
        """The cheapest of up to *passes* emissions of the loop body
        unrolled *u* times (see above), entering in the locals *entry*
        (an earlier emission) leaves off or else in *outside*; or
        ``None``."""
        live_in = self.body_live_in
        span_lo = self.body_span[0]
        if entry is None:
            entry = dict(outside)
        else:
            entry = dict(entry["entry"], **entry["out"])
        best = None
        homing = 0
        while passes > 0 and homing <= len(live_in):
            self._restore(snap)
            for L in list(self.loc):
                self._drop(L)
            for L in live_in:
                self._hold(L, entry[L])
            body: List[str] = []
            steady = dict.fromkeys(self._TALLY_KEYS, 0)
            for c in range(u):
                self.ev = span_lo
                self.copy = (c, u, rotating)
                self._emit_slot(body, ind, self.steady, None,
                                steady if c == 0 else dict.fromkeys(self._TALLY_KEYS, 0), shift=c)
            self.copy = None
            out = {L: self.loc.get(L) for L in live_in}
            moving = [L for L in live_in if not _same(entry[L], out[L])]
            bad = (self._unmovable(entry, out, moving)
                   | self._unmovable(entry, outside,
                                     [L for L in live_in if not _same(entry[L], outside[L])]))
            if bad:
                homes = {L: _home(L, out[L]) for L in bad if out[L] is not None}
                if all(_same(entry[L], v) for L, v in homes.items()):
                    break
                entry.update(homes)
                homing += 1
                continue
            passes -= 1
            cost = sum(da != sa for L in moving for da, sa in self._pairs(entry[L], out[L]))
            if best is not None and cost >= best["cost"]:
                break
            best = {"cost": cost, "body": body, "steady": steady, "out": out,
                    "entry": dict(entry), "state": self._snapshot(), "unroll": u}
            # Enter where this emission leaves off.
            entry.update({L: out[L] for L in moving})
            if not cost:
                break
        return best

    @staticmethod
    def _pairs(dst: _Val, src: _Val) -> List[Tuple[str, object]]:
        """``(dst local, source)`` per local of *dst*: a source atom, or
        ``(lanes,)`` for the int of a lanes source and ``(int, k)`` for
        lane *k* of an int source, which are converted first."""
        pairs: List[Tuple[str, object]] = []
        if dst.i is not None:
            pairs.append((dst.i, src.i if src.i is not None else (src.t,)))
        if dst.t is not None:
            pairs += (zip(dst.t, src.t) if src.t is not None
                      else [(a, (src.i, k)) for k, a in enumerate(dst.t)])
        return pairs

    def _unmovable(self, dst: Dict[str, Optional[_Val]], src: Dict[str, Optional[_Val]],
                   moving: List[str]) -> set:
        """The locations of *moving* whose copy *src* -> *dst* cannot be
        emitted: into a literal (other than itself), from or to an empty
        register, into a local two sources share, or over a local a
        location that does not move still uses (that one is returned
        too)."""
        bad = set()
        keep: Dict[str, List[str]] = {}
        for L, val in dst.items():
            if L not in moving and val is not None:
                for a in val.atoms():
                    keep.setdefault(a, []).append(L)
        owner: Dict[str, object] = {}
        for L in moving:
            d, s = dst[L], src[L]
            if d is None or s is None:
                bad.add(L)
                continue
            for da, sa in self._pairs(d, s):
                if (da != sa and not _is_var(da)) or owner.setdefault(da, sa) != sa:
                    bad.add(L)
                if da in keep and da != sa:
                    bad.add(L)
                    bad.update(keep[da])
        return bad

    def _emit_transfer(self, lines: List[str], ind: str, src: Dict[str, Optional[_Val]],
                       dst: Dict[str, Optional[_Val]], live_in: List[str],
                       keep_live: bool = False) -> set:
        """Emit the copy that moves every location of *live_in* from its
        *src* locals into its *dst* ones; returns the locations moved.
        With *keep_live* (the back edge), a location live past the loop
        that does not move keeps its value: a local the copy overwrites
        is read from where the copy put it, or saved first."""
        moved = {L for L in live_in if not _same(src[L], dst[L])}
        convert: List[str] = []
        lanes_of: Dict[str, Tuple[str, ...]] = {}
        moves: Dict[str, str] = {}
        for L in sorted(moved):
            for da, sa in self._pairs(dst[L], src[L]):
                if da == sa:
                    continue
                if isinstance(sa, tuple) and len(sa) == 1:
                    sa = self._int(_Val(t=sa[0]))
                    if not _ATOM.fullmatch(sa):
                        tmp = "_c%d" % len(convert)
                        convert.append(ind + "%s = %s" % (tmp, sa))
                        sa = tmp
                elif isinstance(sa, tuple):
                    x, k = sa
                    if x not in lanes_of:
                        if x.startswith("imm_") or _literal_value(x) is not None:
                            lanes_of[x] = self._lanes([], "", _Val(i=x), "", ())
                        else:
                            lanes_of[x] = _lane_atoms("_c%d" % len(convert))
                            convert.append(ind + "%s = _U4(_P8(%s))"
                                           % (", ".join(lanes_of[x]), x))
                    sa = lanes_of[x][k]
                moves[da] = sa
        if keep_live:
            into = {}
            for da, sa in moves.items():
                into.setdefault(sa, da)
            saved: Dict[str, str] = {}
            live_in_set = set(live_in)
            for M in sorted(self.loc):
                val = self.loc[M]
                if M in live_in_set or val is None or not self._live(M):
                    continue
                for a in val.atoms():
                    if a in moves and a not in saved:
                        if a in into:
                            saved[a] = into[a]
                        else:
                            (new,) = self._alloc("e", 1, avoid=set(moves) | set(moves.values())
                                                 | set(saved.values()))
                            self._claim(new)
                            convert.append(ind + "%s = %s" % (new, a))
                            saved[a] = new
                if any(a in saved for a in val.atoms()):
                    self._hold(M, val.renamed(saved))
        lines.extend(convert)
        _emit_moves(lines, ind, list(moves.items()))
        return moved

    @staticmethod
    def _names(body: List[str]) -> List[str]:
        """The locals *body* uses, in order of first use."""
        names: List[str] = []
        seen = set(_GLOBAL_NAMES)
        for line in body:
            if "'" in line:
                line = _STRING.sub("", line)
            for name in _LOCAL.findall(line):
                if name not in seen:
                    seen.add(name)
                    if not keyword.iskeyword(name) and not name.startswith(("imm_", "iv_")):
                        names.append(name)
        return names

    # -- lane assembly --------------------------------------------------

    def _emit_lane(self, lines: List[str], ind: str) -> set:
        k = self.kernel
        k1 = k.stage_count - 1
        w = lines.append
        for fu in sorted(self.lrf_fus):
            w(ind + "L%d = local_rfs[%d]._regs" % (fu, fu))
        for fu, entry in sorted(self.lrf_entries):
            name = "r%d_%d" % (fu, entry)
            w(ind + "%s = L%d[%d]" % (name, fu, entry))
            val = _Val(i=name)
            if (fu, entry) in self.lrf_lanes:
                val.t = _lane_atoms(name)
                w(ind + "%s = _U4(_P8(%s))" % (", ".join(val.t), name))
            self._set(name, val)
        # Predicated ops tally issue counters per iteration: keep those
        # in one integer local per FU / op group and flush them with the
        # closed-form (unpredicated) totals in the epilogue.
        pred_fus, pred_groups = _issue_counters(
            (rec.fu, rec.group) for rec in self.ops if rec.op.pred is not None)
        _emit_zero(lines, ind, ["n_fu%d" % fu for fu in pred_fus])
        _emit_zero(lines, ind, ["n_g_%s" % g for g in pred_groups])
        # The runner passes matching trips; the baked value wins.
        w(ind + "trip = %d" % self.trip)
        for fu in sorted(self.latch_fus):
            self._set("l_%d" % fu, _Val(i="0"))
        for rec in self.ops:
            if rec.kind == "store":
                continue
            for j in range(rec.n):
                if rec.op.pred is None:
                    self._set(rec.regs[j], None)
                else:
                    w(ind + " = ".join(self._pred_home(rec, j)) + " = _A")
        w(ind + "stall_offset = 0")
        _emit_zero(lines, ind, [*_CRF_COUNTERS, *_LRF_COUNTERS])
        if self.has_mem:
            _emit_zero(lines, ind, _L1_COUNTERS)
        w(ind + "squashed = 0")
        w(ind + "pred_weight = 0")
        w(ind + "drain = 0")
        tally = self._emit_body(lines, ind)
        if self.drain:
            w(ind + "# drain: commits still in flight past the last context")
        for d, rec, j, last, present in self.drain:
            if rec.op.pred is not None:
                self._commit_conditional(lines, ind, rec, j, last, drain=d)
            elif present:
                w(ind + "drain = %d" % d)
                self._commit_writes(lines, ind, rec, self._get(rec.regs[j]), last, tally)
        for name in self._TALLY_KEYS:
            if tally[name]:
                w(ind + "%s += %d" % (name, tally[name]))
        # Batched accounting for unpredicated ops (closed form in trip),
        # then the per-run stats flush.
        easy_fu: Dict[int, int] = {}
        easy_g: Dict[OpGroup, int] = {}
        easy_total = 0
        hard = []
        for rec in self.ops:
            if rec.op.pred is not None:
                continue
            if rec.stage <= k1:
                easy_fu[rec.fu] = easy_fu.get(rec.fu, 0) + rec.weight
                easy_g[rec.group] = easy_g.get(rec.group, 0) + rec.weight
                easy_total += rec.weight
            else:
                hard.append(rec)
        w(ind + "unpred = %d * trip" % easy_total)
        if easy_fu or hard or pred_fus:
            w(ind + "fu_ops = stats.fu_ops")
            w(ind + "op_groups = stats.op_groups")
        for fu in pred_fus:
            w(ind + "fu_ops[%d] += n_fu%d" % (fu, fu))
        for g in pred_groups:
            w(ind + "op_groups[_G_%s] += n_g_%s" % (g, g))
        for fu in sorted(easy_fu):
            w(ind + "fu_ops[%d] += %d * trip" % (fu, easy_fu[fu]))
        for g in sorted(easy_g, key=lambda g: g.name):
            w(ind + "op_groups[_G_%s] += %d * trip" % (g.name, easy_g[g]))
        for rec in hard:
            w(ind + "ne = trip - %d" % (rec.stage - k1))
            w(ind + "if ne > 0:")
            w(ind + "    fu_ops[%d] += %d * ne" % (rec.fu, rec.weight))
            w(ind + "    op_groups[_G_%s] += %d * ne" % (rec.group.name, rec.weight))
            w(ind + "    unpred += %d * ne" % rec.weight)
        w(ind + "total_logical = (trip + %d) * %d" % (k1, k.ii))
        _emit_flush(lines, ind, {**_CRF_COUNTERS, **_LRF_COUNTERS})
        w(ind + "stats.cga_ops += pred_weight + unpred")
        w(ind + "stats.squashed_ops += squashed")
        w(ind + "stats.config_words += %d * total_logical" % k.context_words)
        w(ind + "stats.cga_cycles += preload_cycles + total_logical + drain + stall_offset")
        if self.has_mem:
            _emit_flush(lines, ind, _L1_COUNTERS)
        w(ind + "stats.add_stall(_BC, stall_offset)")
        for fu in sorted(self.latch_fus):
            w(ind + "out_latch[%d] = %s" % (fu, self._int(self._get("l_%d" % fu))))
        for fu, entry in sorted(self.lrf_written):
            name = "r%d_%d" % (fu, entry)
            w(ind + "L%d[%d] = %s" % (fu, entry, self._int(self._get(name))))
        w(ind + "ends[_b] = start_cycle + total_logical + stall_offset + drain")
        return self.lane_imms
