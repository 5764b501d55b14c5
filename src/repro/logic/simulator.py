"""Pattern-parallel, three-valued, zero-delay cycle simulator.

The simulator compiles a netlist once into level-ordered *groups* of gates
with identical (type, fan-in) so each group evaluates with a handful of
vectorised numpy operations over all patterns at once.  It supports:

* stuck-at fault injection (stem faults force a net, branch faults poison a
  single gate's view of one input pin);
* per-net toggle counting and per-register load-event counting, which feed
  the switched-capacitance power model;
* X (unknown) propagation -- flip-flops power up X, which is how the
  GENTEST-style "potentially detected" verdict arises.

The compile step (levelization + gate grouping + slot maps) lives in an
immutable :class:`CompiledNetlist` shared by every simulator built for the
same netlist: :func:`compile_netlist` memoizes one artifact per ``Netlist``
object, so fault-simulation campaigns that construct thousands of
simulators (one per fault, per batch) pay the compile cost exactly once.
Per-fault differences -- stem forces and branch poisons -- are resolved
against the shared compile at construction time and live entirely in the
simulator instance.

Typical use::

    sim = CycleSimulator(netlist, n_patterns=256, faults=[site])
    for cycle in range(n_cycles):
        sim.drive(net, bits)            # or drive_const / drive_words
        sim.settle()                    # evaluate combinational logic
        z, o = sim.planes(out_net)      # observe
        sim.latch()                     # clock edge
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..netlist.gates import GateType, is_sequential
from ..netlist.netlist import Netlist
from . import values as V
from .faults import FaultSite
from .levelize import levelize

_U64 = np.uint64


@dataclass
class _Group:
    gtype: GateType
    gate_idx: np.ndarray  # (n,)
    outputs: np.ndarray  # (n,)
    inputs: np.ndarray  # (n, arity)
    gid: int = -1  # unique id assigned at compile time
    dffe_rows: np.ndarray | None = None  # DFFE groups: row into load_events


#: per-type identity value used to pad mixed-arity groups: reading a virtual
#: constant net with this value leaves the gate's fold unchanged.
_PAD_IDENTITY = {
    GateType.AND: 1,
    GateType.NAND: 1,
    GateType.OR: 0,
    GateType.NOR: 0,
    GateType.XOR: 0,
    GateType.XNOR: 0,
}


def _make_groups(
    netlist: Netlist, gate_indices: list[int], v0: int, v1: int
) -> list[_Group]:
    """Bucket gates by type only; pad ragged fan-ins with identity nets.

    ``v0``/``v1`` are the simulator's virtual always-0 / always-1 net rows.
    Folding in an extra constant-1 input leaves AND/NAND unchanged, and a
    constant 0 leaves OR/NOR/XOR/XNOR unchanged, so one group per gate type
    per level suffices regardless of fan-in mix -- fewer, larger groups
    keep the per-cycle numpy call count down.
    """
    buckets: dict[GateType, list[int]] = {}
    for gi in gate_indices:
        buckets.setdefault(netlist.gates[gi].gtype, []).append(gi)
    groups = []
    for gtype, idxs in sorted(buckets.items(), key=lambda kv: kv[0].value):
        gates = [netlist.gates[i] for i in idxs]
        arity = max(len(g.inputs) for g in gates)
        pad = v1 if _PAD_IDENTITY.get(gtype, 0) else v0
        groups.append(
            _Group(
                gtype=gtype,
                gate_idx=np.array(idxs, dtype=np.int64),
                outputs=np.array([g.output for g in gates], dtype=np.int64),
                inputs=np.array(
                    [g.inputs + [pad] * (arity - len(g.inputs)) for g in gates],
                    dtype=np.int64,
                ),
            )
        )
    return groups


@dataclass
class CompiledNetlist:
    """Immutable compile artifact shared by all simulators of one netlist.

    Holds everything that depends only on the structure of the design:
    levelized evaluation groups, sequential groups, constant-net ids, the
    DFFE row index, the gate -> (group, row) slot map used to resolve
    branch-fault poisons, and the net -> producing-level map used to
    re-force stem faults only where they get overwritten.  Instances are
    produced (and memoized) by :func:`compile_netlist`; treat them as
    read-only.
    """

    num_nets: int
    const0: np.ndarray  # net ids tied to 0
    const1: np.ndarray  # net ids tied to 1 (includes the virtual pad nets)
    levels: list[list[_Group]]
    seq_groups: list[_Group]
    dffe_index: dict[int, int]  # DFFE gate index -> load_events row
    gate_to_slot: dict[int, tuple[int, int]]  # gate index -> (gid, row)
    net_level: dict[int, int]  # net id -> comb level writing it (-1 = latch)
    n_rows: int  # num_nets + 2 virtual constant rows for fan-in padding
    stamp: tuple[int, int]  # (num gates, num nets) at compile time

    @property
    def n_dffe(self) -> int:
        return len(self.dffe_index)

    def resolve_branch(self, gate_index: int, pin: int) -> tuple[int, int, int]:
        """Return (group id, row, pin) for a branch-fault injection site."""
        gid, row = self.gate_to_slot[gate_index]
        return gid, row, pin


def _compile(netlist: Netlist) -> CompiledNetlist:
    netlist.validate()
    # Rows [num_nets] and [num_nets + 1] of the simulator's planes are
    # virtual constant nets (always-0 / always-1) used to pad ragged fan-ins.
    v0, v1 = netlist.num_nets, netlist.num_nets + 1
    const0 = [g.output for g in netlist.gates if g.gtype is GateType.CONST0] + [v0]
    const1 = [g.output for g in netlist.gates if g.gtype is GateType.CONST1] + [v1]
    levels = [_make_groups(netlist, lvl, v0, v1) for lvl in levelize(netlist)]
    seq_idx = [g.index for g in netlist.gates if is_sequential(g.gtype)]
    seq_groups = _make_groups(netlist, seq_idx, v0, v1)
    dffe = [g for g in netlist.gates if g.gtype is GateType.DFFE]
    dffe_index = {g.index: row for row, g in enumerate(dffe)}

    gate_to_slot: dict[int, tuple[int, int]] = {}
    net_level: dict[int, int] = {}
    gid = 0
    for lvl, level in enumerate(levels):
        for group in level:
            group.gid = gid
            gid += 1
            for row, g in enumerate(group.gate_idx):
                gate_to_slot[int(g)] = (group.gid, row)
            for out in group.outputs:
                net_level[int(out)] = lvl
    for group in seq_groups:
        group.gid = gid
        gid += 1
        for row, g in enumerate(group.gate_idx):
            gate_to_slot[int(g)] = (group.gid, row)
        for out in group.outputs:
            net_level[int(out)] = -1
        if group.gtype is GateType.DFFE:
            group.dffe_rows = np.array(
                [dffe_index[int(g)] for g in group.gate_idx], dtype=np.int64
            )
    return CompiledNetlist(
        num_nets=netlist.num_nets,
        const0=np.array(const0, dtype=np.int64),
        const1=np.array(const1, dtype=np.int64),
        levels=levels,
        seq_groups=seq_groups,
        dffe_index=dffe_index,
        gate_to_slot=gate_to_slot,
        net_level=net_level,
        n_rows=netlist.num_nets + 2,
        stamp=(len(netlist.gates), netlist.num_nets),
    )


# One compile artifact per live Netlist object.  Keyed by id() (Netlist is
# an eq-comparing dataclass, hence unhashable); a weakref finalizer evicts
# the entry when the netlist is garbage-collected, so the cache never keeps
# a dead design alive and id() reuse cannot alias a stale compile.
_COMPILE_CACHE: dict[int, CompiledNetlist] = {}


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile ``netlist`` for simulation, memoizing per netlist object.

    The cached artifact is invalidated if the netlist has structurally
    changed (gates or nets added) since it was compiled.
    """
    key = id(netlist)
    cached = _COMPILE_CACHE.get(key)
    stamp = (len(netlist.gates), netlist.num_nets)
    if cached is not None and cached.stamp == stamp:
        return cached
    compiled = _compile(netlist)
    if key not in _COMPILE_CACHE:
        weakref.finalize(netlist, _COMPILE_CACHE.pop, key, None)
    _COMPILE_CACHE[key] = compiled
    return compiled


class CycleSimulator:
    """Compiled pattern-parallel simulator for one netlist.

    Args:
        netlist: design to simulate (validated).
        n_patterns: number of parallel patterns (independent runs).
        faults: stuck-at faults to inject (usually zero or one).
        count_toggles: accumulate per-net toggle counts at each settle.
        compiled: reuse a :func:`compile_netlist` artifact (looked up from
            the per-netlist cache when omitted).
        fault_blocks: optional per-fault ``(start_word, end_word)`` ranges
            restricting each injection to a block of the pattern axis.
            Bit positions are independent simulations, so N faults confined
            to N disjoint blocks run N faulty machines in a single pass
            (the fault-parallel engine of :mod:`repro.logic.faultsim`).
            ``None`` entries (or omitting the list) inject across all
            patterns, the classic single-fault behaviour.
        toggle_blocks: accumulate toggle/load counters per pattern block
            instead of globally.  With ``toggle_blocks=B`` (which must
            divide the word count evenly), ``toggles`` becomes
            ``(B, num_nets)`` and ``load_events`` ``(B, n_dffe)``: row
            ``b`` counts only words ``[b*wpb, (b+1)*wpb)`` of the pattern
            axis, exactly what a standalone simulator over that block
            would have counted.  This is the counter side of the
            fault-parallel Monte-Carlo power kernel (each fault block
            gets its own power estimate from one wide pass).
        mask: per-word valid-bit mask replacing ``V.tail_mask(n_patterns)``.
            Block-parallel engines pad every block to whole words and pass
            the block tail mask tiled across blocks; constants, drives,
            stem forces and branch poisons all go through it, so padding
            bits stay X in every plane and can never detect, toggle or
            load.
    """

    def __init__(
        self,
        netlist: Netlist,
        n_patterns: int,
        faults: list[FaultSite] | None = None,
        count_toggles: bool = False,
        compiled: CompiledNetlist | None = None,
        fault_blocks: list[tuple[int, int] | None] | None = None,
        toggle_blocks: int | None = None,
        mask: np.ndarray | None = None,
    ):
        self.netlist = netlist
        self.compiled = compiled if compiled is not None else compile_netlist(netlist)
        self.n_patterns = n_patterns
        self.words = V.num_words(n_patterns)
        self.mask = V.tail_mask(n_patterns) if mask is None else mask
        self.count_toggles = count_toggles

        c = self.compiled
        # One backing array for both planes: row axis has two virtual
        # constant rows past ``num_nets`` (fan-in padding; see _compile).
        # ``Z``/``O`` are views, so all public indexing works unchanged.
        self._ZO = np.zeros((2, c.n_rows, self.words), dtype=_U64)
        self.Z = self._ZO[0]
        self.O = self._ZO[1]
        self._prev_Z = np.zeros_like(self.Z)
        self._prev_O = np.zeros_like(self.O)
        self._have_prev = False
        self.toggle_blocks = toggle_blocks
        if toggle_blocks is not None:
            if toggle_blocks < 1 or self.words % toggle_blocks:
                raise ValueError(
                    f"toggle_blocks={toggle_blocks} must divide the "
                    f"{self.words}-word pattern axis evenly"
                )
            self._block_wpb = self.words // toggle_blocks
            self._toggles_rows = np.zeros((toggle_blocks, c.n_rows), dtype=np.int64)
            self.toggles = self._toggles_rows[:, : c.num_nets]
        else:
            self._toggles_rows = np.zeros(c.n_rows, dtype=np.int64)
            self.toggles = self._toggles_rows[: c.num_nets]
        self.cycles_run = 0

        self._const0 = c.const0
        self._const1 = c.const1
        self._levels = c.levels
        self._seq_groups = c.seq_groups
        self._dffe_index = c.dffe_index
        if toggle_blocks is not None:
            self.load_events = np.zeros((toggle_blocks, c.n_dffe), dtype=np.int64)
        else:
            self.load_events = np.zeros(c.n_dffe, dtype=np.int64)

        # Fault bookkeeping: branch faults keyed by group id and resolved to
        # (row, pin) positions against the shared compile; stem faults keyed
        # by net and re-forced exactly where the net gets written (drives,
        # the producing level, the latch step).  Each entry carries a word
        # slice: the whole pattern axis for ordinary faults, or the fault's
        # block for block-scoped injections.
        self.faults = list(faults or [])
        if fault_blocks is not None and len(fault_blocks) != len(self.faults):
            raise ValueError("fault_blocks must parallel faults")
        blocks = fault_blocks or [None] * len(self.faults)
        self._stem: dict[int, list[tuple[slice, int]]] = {}
        self._group_poison: dict[int, list[tuple[int, int, slice, int]]] = {}
        for f, blk in zip(self.faults, blocks):
            sl = slice(None) if blk is None else slice(*blk)
            if f.is_stem:
                self._stem.setdefault(f.net, []).append((sl, f.value))
            else:
                assert f.gate_index is not None
                gid, row, pin = c.resolve_branch(f.gate_index, f.pin)
                self._group_poison.setdefault(gid, []).append((row, pin, sl, f.value))
        self._stem_levels = {
            c.net_level[net] for net in self._stem if net in c.net_level
        }
        self._stem_in_latch = -1 in self._stem_levels

        self.reset_state()

    # ----------------------------------------------------------------- state
    def reset_state(self) -> None:
        """Set every net to X, pin constants, apply stem forces."""
        self.Z[:] = 0
        self.O[:] = 0
        if len(self._const0):
            self.Z[self._const0] = self.mask
        if len(self._const1):
            self.O[self._const1] = self.mask
        self._apply_stems()
        self._have_prev = False
        self.cycles_run = 0

    def _apply_stems(self) -> None:
        for net, entries in self._stem.items():
            for sl, val in entries:
                if val:
                    self.Z[net, sl] = 0
                    self.O[net, sl] = self.mask[sl]
                else:
                    self.Z[net, sl] = self.mask[sl]
                    self.O[net, sl] = 0

    def counter_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the accumulated ``(toggles, load_events)`` counters.

        ``toggles`` / ``load_events`` are live views into the simulator's
        accumulators (zeroed on reuse, mutated every cycle); callers that
        persist per-batch activity -- the fleet-calibration layer -- need
        a snapshot that survives the next batch.  Shapes follow the
        counter mode: ``(num_nets,)`` / ``(n_dffe,)`` globally, or
        ``(B, num_nets)`` / ``(B, n_dffe)`` with ``toggle_blocks=B``.
        """
        if not self.count_toggles:
            raise ValueError("simulator was not counting toggles")
        return self.toggles.copy(), self.load_events.copy()

    # ----------------------------------------------------------------- drive
    def drive_words(self, net: int, zero: np.ndarray, one: np.ndarray) -> None:
        """Set a primary input from raw bit-planes."""
        self.Z[net] = zero & self.mask
        self.O[net] = one & self.mask
        if net in self._stem:
            self._apply_stems()

    def drive(self, net: int, bits) -> None:
        """Set a primary input from a per-pattern 0/1 array."""
        one = V.pack_bits(np.asarray(bits, dtype=np.uint8))
        self.drive_words(net, ~one & self.mask, one & self.mask)

    def drive_const(self, net: int, value: int) -> None:
        """Set a primary input to the same known value in every pattern."""
        if value:
            self.drive_words(net, np.zeros(self.words, dtype=_U64), self.mask.copy())
        else:
            self.drive_words(net, self.mask.copy(), np.zeros(self.words, dtype=_U64))

    def drive_bus(self, nets: list[int], words) -> None:
        """Drive a bus (LSB first) from a per-pattern integer array.

        Values must fit in the bus: ``0 <= value < 2 ** len(nets)``.
        Out-of-range data would silently alias to its low bits, so it is
        rejected loudly instead.
        """
        vals = np.asarray(words, dtype=np.int64)
        if vals.size and (vals.min() < 0 or vals.max() >> len(nets)):
            raise ValueError(
                f"bus value out of range for {len(nets)}-bit bus: "
                f"min={vals.min()}, max={vals.max()}"
            )
        for i, net in enumerate(nets):
            self.drive(net, (vals >> i) & 1)

    # ------------------------------------------------------------ evaluation
    def _gather_all(self, group: _Group):
        """Fetch every input pin of a group in one fancy index.

        Returns (z, o) of shape ``(n_gates, arity, words)``.  Fancy indexing
        yields fresh copies, so branch-fault poisons mutate them in place.
        """
        zo = self._ZO[:, group.inputs]
        z, o = zo[0], zo[1]
        hits = self._group_poison.get(group.gid) if self._group_poison else None
        if hits:
            for row, pin, sl, val in hits:
                if val:
                    z[row, pin, sl] = 0
                    o[row, pin, sl] = self.mask[sl]
                else:
                    z[row, pin, sl] = self.mask[sl]
                    o[row, pin, sl] = 0
        return z, o

    def _eval_group(self, group: _Group):
        t = group.gtype
        zi, oi = self._gather_all(group)
        # Folds evaluate with one ufunc.reduce over the pin axis; mixed
        # fan-ins were padded to the group arity with identity constants.
        if t in (GateType.AND, GateType.NAND):
            z = np.bitwise_or.reduce(zi, axis=1)
            o = np.bitwise_and.reduce(oi, axis=1)
            return (o, z) if t is GateType.NAND else (z, o)
        if t in (GateType.OR, GateType.NOR):
            z = np.bitwise_and.reduce(zi, axis=1)
            o = np.bitwise_or.reduce(oi, axis=1)
            return (o, z) if t is GateType.NOR else (z, o)
        if t in (GateType.XOR, GateType.XNOR):
            known = np.bitwise_and.reduce(zi | oi, axis=1)
            o = np.bitwise_xor.reduce(oi, axis=1) & known
            z = known & ~o
            return (o, z) if t is GateType.XNOR else (z, o)
        if t is GateType.NOT:
            return oi[:, 0], zi[:, 0]
        if t is GateType.BUF:
            return zi[:, 0], oi[:, 0]
        if t is GateType.MUX2:
            return V.v_mux2(
                zi[:, 0], oi[:, 0], zi[:, 1], oi[:, 1], zi[:, 2], oi[:, 2]
            )
        raise AssertionError(f"unexpected comb gate type {t}")

    def settle(self) -> None:
        """Evaluate all combinational logic for the current cycle."""
        stem_levels = self._stem_levels
        for lvl, level in enumerate(self._levels):
            for group in level:
                z, o = self._eval_group(group)
                self.Z[group.outputs] = z
                self.O[group.outputs] = o
            if lvl in stem_levels:
                self._apply_stems()
        if self.count_toggles:
            if self._have_prev:
                flips = (self._prev_Z & self.O) | (self._prev_O & self.Z)
                self._toggles_rows += self._count_words(np.bitwise_count(flips))
            np.copyto(self._prev_Z, self.Z)
            np.copyto(self._prev_O, self.O)
            self._have_prev = True

    def _count_words(self, counts: np.ndarray) -> np.ndarray:
        """Reduce per-word popcounts ``(rows, words)`` to counter shape.

        Global counters sum the whole pattern axis; per-block counters
        (``toggle_blocks``) sum each block's word range separately and
        transpose to ``(blocks, rows)``, matching the counter layout.
        Both are exact integer sums, so a block row equals what the same
        simulation restricted to that block would have accumulated.
        """
        if self.toggle_blocks is None:
            return counts.sum(axis=1, dtype=np.int64)
        rows = counts.shape[0]
        return (
            counts.reshape(rows, self.toggle_blocks, self._block_wpb)
            .sum(axis=2, dtype=np.int64)
            .T
        )

    def latch(self) -> None:
        """Clock edge: update all flip-flop outputs from settled values."""
        self.latch_groups(self._seq_groups)

    def latch_groups(self, groups: list[_Group]) -> None:
        """Clock edge restricted to the given sequential groups.

        ``latch`` passes the full compiled set; the cone-restricted fault
        engine passes only the flip-flops inside a chunk's union cone
        (every other register is replayed from the golden trace).  The
        two-phase update (gather every D/enable first, then write every
        Q) and the post-latch stem re-force match the full clock edge
        exactly.
        """
        updates = []
        for group in groups:
            zi, oi = self._gather_all(group)
            if group.gtype is GateType.DFF:
                updates.append((group.outputs, zi[:, 0], oi[:, 0]))
            else:  # DFFE: pins (en, d)
                ze, oe = zi[:, 0], oi[:, 0]
                zq = self.Z[group.outputs]
                oq = self.O[group.outputs]
                z, o = V.v_mux2(ze, oe, zq, oq, zi[:, 1], oi[:, 1])
                updates.append((group.outputs, z, o))
                if self.count_toggles:
                    counts = self._count_words(np.bitwise_count(oe))
                    if self.toggle_blocks is None:
                        self.load_events[group.dffe_rows] += counts
                    else:
                        self.load_events[:, group.dffe_rows] += counts
        for outputs, z, o in updates:
            self.Z[outputs] = z
            self.O[outputs] = o
        if self._stem and self._stem_in_latch:
            self._apply_stems()
        self.cycles_run += 1

    # --------------------------------------------------------------- planes
    def snapshot_planes(self) -> np.ndarray:
        """Copy the full (2, n_rows, words) state -- both value planes.

        Row axis covers every net plus the two virtual constant rows, so
        a snapshot captures driven inputs, settled combinational values,
        current flip-flop outputs and the pinned constants alike.  The
        cone-restricted fault engine records one snapshot per golden
        cycle and replays it with :meth:`load_tiled_planes`.
        """
        return self._ZO.copy()

    def load_tiled_planes(self, planes: np.ndarray) -> None:
        """Overwrite the whole state from a narrower snapshot, tiled.

        ``planes`` must be a ``(2, n_rows, words / reps)`` snapshot whose
        word count divides this simulator's; it is broadcast across the
        ``reps`` pattern blocks without allocating (the preallocated
        backing array is written in place).  Stem forces are *not*
        reapplied -- callers that inject faults must follow up exactly as
        a drive would.
        """
        n_rows, words = self._ZO.shape[1:]
        src_words = planes.shape[2]
        if planes.shape[:2] != (2, n_rows) or words % src_words:
            raise ValueError(
                f"cannot tile a {planes.shape} snapshot into (2, {n_rows}, {words})"
            )
        reps = words // src_words
        self._ZO.reshape(2, n_rows, reps, src_words)[:] = planes[:, :, None, :]

    # ------------------------------------------------------------- observing
    def planes(self, net: int):
        """Return the (zero, one) planes of a net (views, do not mutate)."""
        return self.Z[net], self.O[net]

    def sample(self, net: int) -> np.ndarray:
        """Return per-pattern values as int8: 0, 1, or -1 for X."""
        z = V.unpack_bits(self.Z[net], self.n_patterns).astype(np.int8)
        o = V.unpack_bits(self.O[net], self.n_patterns).astype(np.int8)
        out = np.full(self.n_patterns, -1, dtype=np.int8)
        out[z == 1] = 0
        out[o == 1] = 1
        return out

    def sample_bus(self, nets: list[int]) -> np.ndarray:
        """Bus values per pattern as int64, or -1 where any bit is X."""
        vals = np.zeros(self.n_patterns, dtype=np.int64)
        bad = np.zeros(self.n_patterns, dtype=bool)
        for i, net in enumerate(nets):
            bit = self.sample(net)
            bad |= bit < 0
            vals |= (bit.astype(np.int64) & 1) << i
        vals[bad] = -1
        return vals
