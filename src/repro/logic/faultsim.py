"""Fault-parallel stuck-at fault simulation with GENTEST-style verdicts.

The paper's Section-5 pipeline starts with a fault simulation of the entire
controller-datapath system under pseudorandom stimulus.  This module
provides that step for an arbitrary netlist, fault list and stimulus.
Every per-fault simulator resolves its injection against one shared
:class:`~repro.logic.simulator.CompiledNetlist`, and the per-fault loop of
:func:`fault_simulate` can fan out across processes (``n_jobs``) with
bit-identical results.

Verdicts mirror what the paper reports about the GENTEST simulator [10]:

* ``DETECTED``  -- some observed output differs (both values known) in some
  pattern at some cycle;
* ``POTENTIAL`` -- never definitely detected, but at some point the faulty
  machine's output was X while the fault-free value was known (GENTEST's
  "potentially detected");
* ``UNDETECTED`` -- outputs matched everywhere.

A *stimulus* is any object with ``n_patterns``, ``n_cycles`` and an
``apply(sim, cycle)`` method that drives the primary inputs for the given
cycle.  Observation happens after ``settle()`` each cycle.

Campaigns run on one engine, the *cone-restricted differential* engine:
the fault-free run records its full per-cycle net planes once
(:class:`GoldenTrace`), each chunk of faults evaluates only the gates in
the union of its sequential fanout cones (:mod:`repro.logic.cones`) while
every other net is replayed from the golden trace, faults whose cone
misses the observed outputs are reported without simulating, and
*fault-effect death pruning* retires a fault the moment its divergence
frontier empties and its site can never be excited again.  Each fault
owns a block of ``num_words(n_patterns)`` words; the padding bits of an
unaligned pattern count stay X in every plane, so every pattern count
takes the same path.  :func:`simulate_one_fault` is the independent
serial reference: the differential audit re-derives a hash-selected
subset of verdicts through it (see docs/performance.md for the soundness
argument; ``tests/test_cones.py`` and the audit enforce bit-identity).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..core.checkpoint import CampaignJournal, fault_key
from ..core.integrity import (
    DEFAULT_AUDIT_RATE,
    DEFAULT_DEATH_AUDIT_CHECKS,
    DEFAULT_EVENTSIM_CHECKS,
    IntegrityGuard,
    IntegrityViolation,
    audit_fraction,
    select_audit,
)
from ..core.parallel import ParallelExecutor, RunReport, resolve_n_jobs
from ..netlist.netlist import Netlist
from ..store.cache import CampaignStore, StageProvenance, StageTimer, clean_campaign
from . import values as V
from .cones import chunk_by_cone, compute_cones
from .faults import FaultSite
from .simulator import CompiledNetlist, CycleSimulator, _Group, compile_netlist


#: width cap (in 64-bit words) of one cone-engine simulator; bounds chunk
#: auto-widening so a huge fault universe cannot blow up worker memory.
_CONE_MAX_WORDS = 8192


class Stimulus(Protocol):
    """Drives primary inputs of a simulator, one cycle at a time."""

    n_patterns: int
    n_cycles: int

    def apply(self, sim: CycleSimulator, cycle: int) -> None: ...


class Verdict(enum.Enum):
    DETECTED = "detected"
    POTENTIAL = "potentially_detected"
    UNDETECTED = "undetected"


@dataclass
class ConeStats:
    """Work-avoidance accounting of a cone-restricted campaign.

    ``cycles``/``gate_evals`` count what the cone engine actually
    simulated.  ``cycles_full``/``gate_evals_full`` are the full-netlist
    work per block for the same chunks: every gate for every fault block
    each cycle, stopping early only once every fault in a chunk is
    detected.  They are a yardstick, not a live engine.  Gate counts are
    block-weighted -- one unit is one gate evaluated for one fault's
    pattern block in one cycle -- so block retirement (a detected or dead
    fault's block compacted out of the wide simulator) shows up in the
    fraction alongside cone restriction.
    """

    faults: int = 0
    #: faults whose cone misses every observed net (no simulation at all)
    unobservable: int = 0
    #: faults retired early by fault-effect death pruning
    dead: int = 0
    cycles: int = 0
    cycles_full: int = 0
    gate_evals: int = 0
    gate_evals_full: int = 0

    def absorb(self, raw: dict) -> None:
        """Fold one chunk's raw stats dict into the campaign totals."""
        self.faults += raw.get("faults", 0)
        self.unobservable += raw.get("unobservable", 0)
        self.dead += len(raw.get("dead", ()))
        self.cycles += raw.get("cycles", 0)
        self.cycles_full += raw.get("cycles_full", 0)
        self.gate_evals += raw.get("gate_evals", 0)
        self.gate_evals_full += raw.get("gate_evals_full", 0)

    @property
    def evaluated_gate_fraction(self) -> float:
        """Gate evaluations performed / gate evaluations avoided-from."""
        return self.gate_evals / self.gate_evals_full if self.gate_evals_full else 1.0

    @property
    def early_death_rate(self) -> float:
        """Fraction of faults pruned structurally or by frontier death."""
        if not self.faults:
            return 0.0
        return (self.dead + self.unobservable) / self.faults

    def to_json_dict(self) -> dict:
        return {
            "faults": self.faults,
            "unobservable": self.unobservable,
            "dead": self.dead,
            "cycles": self.cycles,
            "cycles_full": self.cycles_full,
            "gate_evals": self.gate_evals,
            "gate_evals_full": self.gate_evals_full,
            "evaluated_gate_fraction": self.evaluated_gate_fraction,
            "early_death_rate": self.early_death_rate,
        }


@dataclass
class FaultSimResult:
    """Outcome of a serial fault simulation run."""

    verdicts: dict[FaultSite, Verdict]
    detect_cycle: dict[FaultSite, int] = field(default_factory=dict)
    #: resilience summary of the fan-out (None for fully resumed runs)
    campaign: RunReport | None = None
    #: cone-engine work accounting (None when no chunk ran -- store
    #: replays, fully resumed campaigns); never part of the published
    #: store payload or of any result report.
    cone: ConeStats | None = None

    def by_verdict(self, verdict: Verdict) -> list[FaultSite]:
        return [f for f, v in self.verdicts.items() if v is verdict]

    def coverage(self) -> float:
        """Fraction of faults definitely detected."""
        if not self.verdicts:
            return 0.0
        hits = sum(1 for v in self.verdicts.values() if v is Verdict.DETECTED)
        return hits / len(self.verdicts)


@dataclass
class GoldenTrace:
    """Fault-free reference trace with optional full per-cycle planes.

    ``observed`` holds the per-cycle ``(zero, one)`` planes over the
    observed nets; indexing and ``len`` delegate to it, so a
    ``GoldenTrace`` is a drop-in for the plain list :func:`run_golden`
    returns without ``full``.  ``planes`` holds one full
    ``(2, n_rows, words)`` state snapshot per cycle -- every net row,
    both value planes -- recorded once per campaign so the
    cone-restricted workers can replay all non-cone nets (including the
    driven primary inputs and the fault-free register states) instead of
    recomputing them.
    """

    observed: list[tuple[np.ndarray, np.ndarray]]
    planes: list[np.ndarray] | None = None

    def __getitem__(self, cycle: int) -> tuple[np.ndarray, np.ndarray]:
        return self.observed[cycle]

    def __len__(self) -> int:
        return len(self.observed)


def run_golden(
    netlist: Netlist, stimulus: Stimulus, observe: list[int], *, full: bool = False
):
    """Simulate fault-free; return per-cycle stacked (zero, one) planes.

    Each entry holds two arrays of shape ``(len(observe), words)``.  With
    ``full=True`` the result is a :class:`GoldenTrace` that additionally
    snapshots the complete net planes each cycle (the cone-restricted
    engine's shared reference); otherwise the plain observed list is
    returned, as before.
    """
    sim = CycleSimulator(netlist, stimulus.n_patterns)
    observed = []
    planes: list[np.ndarray] | None = [] if full else None
    for cycle in range(stimulus.n_cycles):
        stimulus.apply(sim, cycle)
        sim.settle()
        observed.append((sim.Z[observe].copy(), sim.O[observe].copy()))
        if planes is not None:
            planes.append(sim.snapshot_planes())
        sim.latch()
    if full:
        return GoldenTrace(observed, planes)
    return observed


def simulate_one_fault(
    netlist: Netlist,
    fault: FaultSite,
    stimulus: Stimulus,
    observe: list[int],
    golden: list[tuple[np.ndarray, np.ndarray]],
    valid_masks: list[np.ndarray] | None = None,
) -> tuple[Verdict, int]:
    """Simulate a single fault against a recorded golden trace.

    ``valid_masks`` optionally restricts comparison to certain patterns per
    cycle (the tester's sampling schedule -- e.g. only once the fault-free
    machine has reached HOLD).  Returns the verdict and the first cycle of
    definite detection (or -1).  Aborts once definitely detected.
    """
    sim = CycleSimulator(netlist, stimulus.n_patterns, faults=[fault])
    potential = False
    for cycle in range(stimulus.n_cycles):
        stimulus.apply(sim, cycle)
        sim.settle()
        gz, go = golden[cycle]
        fz = sim.Z[observe]
        fo = sim.O[observe]
        diff = (gz & fo) | (go & fz)
        maybe = (gz | go) & ~(fz | fo)
        if valid_masks is not None:
            diff = diff & valid_masks[cycle]
            maybe = maybe & valid_masks[cycle]
        if diff.any():
            return Verdict.DETECTED, cycle
        if not potential and maybe.any():
            potential = True
        sim.latch()
    return (Verdict.POTENTIAL if potential else Verdict.UNDETECTED), -1


class _ChunkOutcomes(list):
    """A chunk's (verdict, cycle) list plus out-of-band engine stats.

    Iteration and indexing behave exactly like the plain list the legacy
    worker returned (``tests/test_integrity.py`` wraps the worker and
    re-emits a plain list -- stats are optional everywhere).  ``stats``
    rides along as an instance attribute, which a list subclass pickles
    intact across the process pool.
    """

    def __init__(self, outcomes=(), stats: dict | None = None):
        super().__init__(outcomes)
        self.stats = stats


def _restrict_to_cone(compiled: CompiledNetlist, union_gates: set[int]):
    """Sub-schedule of the compiled groups covering only ``union_gates``.

    Returns ``(sub_levels, seq_subs, row_maps)``: per-level combinational
    sub-groups aligned 1:1 with ``compiled.levels`` (possibly empty
    lists, so stem re-force points keep their level indices), the
    restricted sequential groups, and per-``gid`` full-row -> sub-row
    maps used to translate branch-fault poison coordinates.  Sub-groups
    keep their parent's ``gid``: the simulator's poison lookup works
    unchanged once its rows are remapped.
    """
    row_maps: dict[int, dict[int, int]] = {}

    def select(group: _Group) -> _Group | None:
        sel = [i for i, g in enumerate(group.gate_idx) if int(g) in union_gates]
        if not sel:
            return None
        row_maps[group.gid] = {full: sub for sub, full in enumerate(sel)}
        idx = np.array(sel, dtype=np.int64)
        return _Group(
            gtype=group.gtype,
            gate_idx=group.gate_idx[idx],
            outputs=group.outputs[idx],
            inputs=group.inputs[idx],
            gid=group.gid,
            dffe_rows=None if group.dffe_rows is None else group.dffe_rows[idx],
        )

    sub_levels = [
        [s for s in (select(g) for g in level) if s is not None]
        for level in compiled.levels
    ]
    seq_subs = [s for s in (select(g) for g in compiled.seq_groups) if s is not None]
    return sub_levels, seq_subs, row_maps


def _excite_from(
    planes: list[np.ndarray], fault: FaultSite, mask: np.ndarray
) -> np.ndarray:
    """Per-cycle bool: can the golden machine excite ``fault`` at >= t?

    The fault forces value ``v`` at its site net; it is *excited* in a
    cycle when any pattern's fault-free site value is not known-``v``
    (an X counts -- it could differ on silicon; the padding bits outside
    ``mask`` are not patterns and never count).  ``out[t]`` is True when
    any cycle ``t' >= t`` is excited.  The death check runs after the
    clock edge of cycle ``t`` and indexes ``out[t + 1]``: the state
    comparison has already absorbed anything cycle ``t``'s forces did
    (including a poisoned flip-flop pin latched at that edge), so only
    excitation from the next cycle onward can re-create divergence.
    """
    n_cycles = len(planes)
    out = np.empty(n_cycles, dtype=bool)
    pending = False
    for t in range(n_cycles - 1, -1, -1):
        known = planes[t][1 if fault.value else 0, fault.net]
        pending = pending or bool((~known & mask).any())
        out[t] = pending
    return out


class _ConeSim:
    """One wide cone-restricted simulator over a set of live faults.

    Owns everything derived from the *current* fault set: the block-wise
    :class:`CycleSimulator`, the restricted evaluation schedule, the
    golden-boundary row set and the preallocated observation buffers.
    The chunk worker rebuilds a narrower instance whenever enough blocks
    retire (see :func:`_cone_chunk_worker`).
    """

    def __init__(
        self,
        netlist: Netlist,
        compiled: CompiledNetlist,
        faults: list[FaultSite],
        cones,
        observe: list[int],
        n_patterns: int,
        has_masks: bool,
        count_toggles: bool = False,
    ):
        self.n_blocks = n_b = len(faults)
        self.wpb = wpb = V.num_words(n_patterns)
        blocks = [(b * wpb, (b + 1) * wpb) for b in range(n_b)]
        # ``count_toggles`` arms the per-block counters for the Monte-Carlo
        # power kernel: the restricted schedule never calls ``settle()``
        # (the power kernel counts its union-net toggles itself), but
        # ``latch_groups`` accumulates per-block DFFE load events.
        # Every block is padded to whole words; the tiled per-block tail
        # mask keeps the padding bits X in every plane.
        self.sim = sim = CycleSimulator(
            netlist,
            n_b * wpb * V.WORD_BITS,
            faults=faults,
            fault_blocks=blocks,
            count_toggles=count_toggles,
            toggle_blocks=n_b if count_toggles else None,
            mask=np.tile(V.tail_mask(n_patterns), n_b),
        )
        union_gates = set().union(*(cones[f].gates for f in faults))
        union_nets = set().union(*(cones[f].nets for f in faults))
        self.union_nets = union_nets
        sub_levels, seq_subs, row_maps = _restrict_to_cone(compiled, union_gates)
        self.seq_subs = seq_subs
        for gid, hits in sim._group_poison.items():
            remap = row_maps[gid]
            sim._group_poison[gid] = [
                (remap[row], pin, sl, val) for row, pin, sl, val in hits
            ]
        # Collapse the levelized sub-schedule, keeping every stem re-force
        # point at its original position relative to the evaluations.
        self.schedule = schedule = []
        for lvl, subs in enumerate(sub_levels):
            reapply = lvl in sim._stem_levels
            if subs or reapply:
                schedule.append((subs, reapply))
        self.union_evals = sum(
            len(g.gate_idx) for subs, _ in schedule for g in subs
        ) + sum(len(g.gate_idx) for g in seq_subs)

        self.state_rows = state_rows = (
            np.concatenate([g.outputs for g in seq_subs])
            if seq_subs
            else np.empty(0, dtype=np.int64)
        )
        self.obs_sel = np.array(
            [i for i, net in enumerate(observe) if net in union_nets],
            dtype=np.int64,
        )
        self.obs_rows = np.array(
            [observe[int(i)] for i in self.obs_sel], dtype=np.int64
        )
        # Golden-boundary rows: everything the restricted cycle *reads*
        # (sub-group and latch fan-ins, the observed cone nets, every
        # stem site) that it neither computes itself, nor carries in the
        # faulty flip-flop state, nor pinned once as a constant.  Only
        # these rows need a per-cycle refresh from the golden plane; any
        # other row is either rewritten before it is read or never read.
        reads: set[int] = set(self.obs_rows.tolist())
        written: set[int] = set()
        for subs, _ in schedule:
            for g in subs:
                reads.update(g.inputs.ravel().tolist())
                written.update(g.outputs.tolist())
        for g in seq_subs:
            reads.update(g.inputs.ravel().tolist())
        for f in faults:
            if f.is_stem:
                reads.add(f.net)
            else:
                assert f.gate_index is not None
                reads.add(netlist.gates[f.gate_index].output)
        pinned = set(sim._const0.tolist()) | set(sim._const1.tolist())
        ext = reads - written - set(state_rows.tolist()) - pinned
        self.ext_rows = np.array(sorted(ext), dtype=np.int64)
        n_obs = len(self.obs_rows)
        # Preallocated broadcast targets (no per-cycle np.tile churn).
        self.ext_t = np.empty((2, len(self.ext_rows), n_b * wpb), dtype=np.uint64)
        self.gz_t = np.empty((n_obs, n_b * wpb), dtype=np.uint64)
        self.go_t = np.empty_like(self.gz_t)
        self.vm_t = np.empty(n_b * wpb, dtype=np.uint64) if has_masks else None

        # Vectorized stem application: the simulator's ``_apply_stems``
        # walks a python dict of per-block slices -- a few hundred tiny
        # assignments per call once a whole campaign shares one chunk.
        # Precompute flat (row, word-column) scatter indices per forced
        # value, plus the tail-mask words those columns force.
        stem_idx: dict[int, tuple[list[int], list[np.ndarray]]] = {
            0: ([], []),
            1: ([], []),
        }
        for net, entries in sim._stem.items():
            for sl, val in entries:
                start = 0 if sl.start is None else sl.start
                stop = sim.words if sl.stop is None else sl.stop
                rows, cols = stem_idx[val]
                rows.extend([net] * (stop - start))
                cols.append(np.arange(start, stop, dtype=np.int64))
        self._stem_scatter = {}
        for val, (rows, cols) in stem_idx.items():
            if rows:
                flat_cols = np.concatenate(cols)
                self._stem_scatter[val] = (
                    np.array(rows, dtype=np.int64),
                    flat_cols,
                    sim.mask[flat_cols],
                )
        # Route every later stem re-force (mid-settle reapply points and
        # the post-latch re-force inside ``latch_groups``) through the
        # scatter-based fast path; the semantics are identical.
        sim._apply_stems = self.apply_stems

    def apply_stems(self) -> None:
        """Equivalent of ``sim._apply_stems()`` in four scatter writes."""
        sim = self.sim
        hit = self._stem_scatter.get(1)
        if hit is not None:
            rows, cols, mask = hit
            sim.Z[rows, cols] = 0
            sim.O[rows, cols] = mask
        hit = self._stem_scatter.get(0)
        if hit is not None:
            rows, cols, mask = hit
            sim.Z[rows, cols] = mask
            sim.O[rows, cols] = 0

    def run_cycle(self, plane: np.ndarray, state: np.ndarray) -> None:
        """Refresh boundaries, restore faulty state, settle the cone."""
        sim, n_b, wpb = self.sim, self.n_blocks, self.wpb
        ext_rows = self.ext_rows
        self.ext_t.reshape(2, len(ext_rows), n_b, wpb)[:] = plane[:, ext_rows][
            :, :, None, :
        ]
        sim._ZO[:, ext_rows] = self.ext_t
        if len(self.state_rows):
            sim._ZO[:, self.state_rows] = state
        sim._apply_stems()
        for subs, reapply in self.schedule:
            for group in subs:
                z, o = sim._eval_group(group)
                sim.Z[group.outputs] = z
                sim.O[group.outputs] = o
            if reapply:
                sim._apply_stems()

    def observe_diff(self, golden: GoldenTrace, cycle: int, valid_masks):
        """Per-block (definite, maybe) divergence flags on observed nets."""
        n_b, wpb = self.n_blocks, self.wpb
        n_obs = len(self.obs_rows)
        gz, go = golden.observed[cycle]
        self.gz_t.reshape(n_obs, n_b, wpb)[:] = gz[self.obs_sel][:, None, :]
        self.go_t.reshape(n_obs, n_b, wpb)[:] = go[self.obs_sel][:, None, :]
        fz = self.sim.Z[self.obs_rows]
        fo = self.sim.O[self.obs_rows]
        diff = (self.gz_t & fo) | (self.go_t & fz)
        maybe = (self.gz_t | self.go_t) & ~(fz | fo)
        if valid_masks is not None:
            self.vm_t.reshape(n_b, wpb)[:] = valid_masks[cycle][None, :]
            diff &= self.vm_t
            maybe &= self.vm_t
        return (
            diff.reshape(n_obs, n_b, wpb).any(axis=(0, 2)),
            maybe.reshape(n_obs, n_b, wpb).any(axis=(0, 2)),
        )

    def dead_blocks(
        self, plane_next: np.ndarray, candidates: np.ndarray, state: np.ndarray
    ) -> np.ndarray:
        """Candidate blocks whose post-latch state equals the golden machine.

        Divergence persists across cycles only through the cone's
        flip-flops: every combinational net is recomputed each cycle
        from the flip-flop state, the golden-loaded boundary rows and
        the fault forces.  So a block whose just-latched cone state
        matches the fault-free machine (``plane_next`` carries the
        golden post-latch values -- flip-flop rows are untouched by the
        following cycle's settle) -- checked for the candidates' word
        columns only -- will, absent future excitation, track golden
        bit-for-bit forever.
        """
        wpb, rows = self.wpb, self.state_rows
        slab = state.reshape(2, len(rows), self.n_blocks, wpb)[:, :, candidates]
        equal = (slab == plane_next[:, rows][:, :, None, :]).all(axis=(0, 1, 3))
        return candidates[equal]

    def latch(self, state: np.ndarray) -> None:
        self.sim.latch_groups(self.seq_subs)
        if len(self.state_rows):
            state[:] = self.sim._ZO[:, self.state_rows]

    def compact_state(self, state: np.ndarray, old: "_ConeSim", keep: np.ndarray):
        """Re-slice ``old``'s state buffer for this (narrower) rebuild.

        ``keep`` holds the surviving block positions in ``old``'s block
        order.  The new union cone is a subset of the old one, so every
        new state row existed in the old buffer.
        """
        if not len(self.state_rows):
            return np.zeros((2, 0, self.n_blocks * self.wpb), dtype=np.uint64)
        pos = {int(r): i for i, r in enumerate(old.state_rows)}
        sel = np.array([pos[int(r)] for r in self.state_rows], dtype=np.int64)
        slab = state.reshape(2, len(old.state_rows), old.n_blocks, old.wpb)
        return (
            slab[:, sel][:, :, keep]
            .reshape(2, len(self.state_rows), self.n_blocks * self.wpb)
            .copy()
        )


#: retire finished blocks (rebuild a narrower simulator) once at least
#: this many -- and at least a quarter of the current width -- are done.
_CONE_RETIRE_MIN = 4


def _cone_chunk_worker(
    netlist: Netlist,
    stimulus: Stimulus,
    observe: list[int],
    golden: GoldenTrace,
    valid_masks,
    chunk: list[FaultSite],
    cones,
) -> _ChunkOutcomes:
    """Cone-restricted differential simulation of one fault chunk.

    Instead of driving the stimulus and evaluating the whole netlist for
    every cycle, each cycle refreshes only the chunk's golden-boundary
    rows from the recorded fault-free planes, overwrites the cone's
    flip-flop rows with the chunk's faulty state, re-applies the stem
    forces, and evaluates only the sub-schedule of gates inside the
    chunk's union cone.  Nets outside a fault's cone provably never
    diverge, so the restricted run is bit-identical to the full one.

    Three prunes ride on top: faults whose cone misses every observed
    net verdict UNDETECTED with zero simulated cycles; a fault whose
    divergence frontier (faulty vs golden over the cone, per block) goes
    empty while its site can never be excited again is dead and retires
    as its current verdict; and finished (detected or dead) blocks are
    *compacted away* -- once enough retire, the chunk rebuilds a
    narrower simulator over the survivors only, shrinking both the
    simulated width and (as survivor cones union smaller) the evaluated
    sub-schedule, until every fault is resolved or the stimulus ends.
    """
    n_cycles = stimulus.n_cycles
    compiled = compile_netlist(netlist)
    total_gates = sum(
        len(g.gate_idx) for level in compiled.levels for g in level
    ) + sum(len(g.gate_idx) for g in compiled.seq_groups)

    outcomes: list[tuple[Verdict, int] | None] = [None] * len(chunk)
    observe_set = set(observe)
    sim_idx = [
        i for i, f in enumerate(chunk) if not cones[f].nets.isdisjoint(observe_set)
    ]
    for i in range(len(chunk)):
        if outcomes[i] is None and i not in sim_idx:
            outcomes[i] = (Verdict.UNDETECTED, -1)
    stats = {
        "faults": len(chunk),
        "unobservable": len(chunk) - len(sim_idx),
        "dead": [],
        "cycles": 0,
        "cycles_full": 0,
        "gate_evals": 0,
        "gate_evals_full": 0,
    }
    if not sim_idx:
        # every fault is structurally unobservable; a full simulation
        # would still have run the full stimulus
        stats["cycles_full"] = n_cycles
        stats["gate_evals_full"] = n_cycles * total_gates * len(chunk)
        return _ChunkOutcomes(outcomes, stats)

    sim_faults = [chunk[i] for i in sim_idx]
    n_patterns = stimulus.n_patterns
    wpb = V.num_words(n_patterns)
    planes = golden.planes
    assert planes is not None
    n_total = len(sim_faults)
    tail = V.tail_mask(n_patterns)
    excite_from = np.stack([_excite_from(planes, f, tail) for f in sim_faults])

    detect_cycle = np.full(n_total, -1, dtype=np.int64)
    potential = np.zeros(n_total, dtype=bool)
    dead = np.zeros(n_total, dtype=bool)
    done = np.zeros(n_total, dtype=bool)

    active = np.arange(n_total)  # sim block -> index into sim_faults
    cs = _ConeSim(
        netlist,
        compiled,
        sim_faults,
        cones,
        observe,
        n_patterns,
        valid_masks is not None,
    )
    state = np.zeros((2, len(cs.state_rows), n_total * wpb), dtype=np.uint64)

    iters = 0
    gate_evals = 0
    for cycle in range(n_cycles):
        live_sim = ~done[active]
        n_live = int(live_sim.sum())
        if not n_live:
            break
        retired = len(active) - n_live
        if retired >= max(_CONE_RETIRE_MIN, len(active) // 4):
            keep = np.flatnonzero(live_sim)
            narrower = _ConeSim(
                netlist,
                compiled,
                [sim_faults[i] for i in active[keep]],
                cones,
                observe,
                n_patterns,
                valid_masks is not None,
            )
            state = narrower.compact_state(state, cs, keep)
            active, cs = active[keep], narrower
            live_sim = np.ones(len(active), dtype=bool)
        iters += 1
        gate_evals += cs.union_evals * len(active)
        plane = planes[cycle]
        cs.run_cycle(plane, state)
        hit_any, maybe_any = cs.observe_diff(golden, cycle, valid_masks)
        hit_sim = live_sim & hit_any
        if hit_sim.any():
            detect_cycle[active[hit_sim]] = cycle
            done[active[hit_sim]] = True
            live_sim &= ~hit_sim
            if not live_sim.any():
                break
        pot_sim = live_sim & maybe_any
        if pot_sim.any():
            potential[active[pot_sim]] = True
        cs.latch(state)
        # Fault-effect death: a live block whose just-latched cone state
        # matches the golden machine, and whose site can never be excited
        # from the next cycle on, will track the golden machine to the
        # end of time -- its verdict is final now.  (On the last cycle
        # there is no future left to prune.)
        if cycle + 1 < n_cycles:
            candidates = np.flatnonzero(live_sim & ~excite_from[active, cycle + 1])
            if len(candidates):
                newly = cs.dead_blocks(planes[cycle + 1], candidates, state)
                if len(newly):
                    dead[active[newly]] = True
                    done[active[newly]] = True

    for b, i in enumerate(sim_idx):
        if detect_cycle[b] >= 0:
            outcomes[i] = (Verdict.DETECTED, int(detect_cycle[b]))
        elif potential[b]:
            outcomes[i] = (Verdict.POTENTIAL, -1)
        else:
            outcomes[i] = (Verdict.UNDETECTED, -1)
    stats["dead"] = [sim_idx[b] for b in range(n_total) if dead[b]]
    # Full-netlist yardstick: a full simulation of the chunk early-exits
    # only when every fault is detected (at the same cycles), otherwise it
    # runs the full stimulus, every gate, every block.
    all_detected = all(v == Verdict.DETECTED for v, _ in outcomes)
    legacy_iters = iters if all_detected else n_cycles
    stats["cycles"] = iters
    stats["cycles_full"] = legacy_iters
    stats["gate_evals"] = gate_evals
    stats["gate_evals_full"] = legacy_iters * total_gates * len(chunk)
    return _ChunkOutcomes(outcomes, stats)


def _fault_chunk_worker(context, chunk: list[FaultSite]) -> _ChunkOutcomes:
    """Pool entry point: run one fault chunk on the cone engine (pickles)."""
    netlist, stimulus, observe, golden, valid_masks, cones = context
    return _cone_chunk_worker(
        netlist, stimulus, observe, golden, valid_masks, chunk, cones
    )


def fault_simulate(
    netlist: Netlist,
    faults: list[FaultSite],
    stimulus: Stimulus,
    observe: list[int] | None = None,
    valid_masks: list[np.ndarray] | None = None,
    n_jobs: int = 1,
    timeout: float | None = None,
    max_retries: int = 2,
    checkpoint: CampaignJournal | None = None,
    audit_rate: float = DEFAULT_AUDIT_RATE,
    strict: bool = False,
    chaos=None,
    eventsim_checks: int = DEFAULT_EVENTSIM_CHECKS,
    store: CampaignStore | None = None,
    store_key: str | None = None,
) -> FaultSimResult:
    """Fault simulation of ``faults`` under ``stimulus``.

    Faults are grouped into cone-overlap-aware chunks (one wide
    cone-restricted simulator per chunk -- see :func:`_cone_chunk_worker`),
    and the chunks fan out across ``n_jobs`` worker processes.  Verdicts
    are bit-identical for every job count -- and for any interruption
    point of a checkpointed campaign, because every per-fault verdict is
    deterministic and independent.

    A hash-selected ``audit_rate`` fraction of the final verdicts is then
    re-derived through the serial per-fault simulator (an independent
    code path from the cone engine), with the first few
    audited faults additionally cross-checked against the scalar
    event-driven engine.  A divergence is flagged as an
    :class:`~repro.core.integrity.IntegrityViolation` on the campaign
    report, and the fault's verdict falls back to the trusted serial
    reference (or, with ``strict=True``, the campaign aborts).

    Args:
        netlist: the design (controller-datapath system in the pipeline).
        faults: collapsed fault list to grade.
        stimulus: input driver (see :class:`Stimulus`).
        observe: nets to compare (defaults to the netlist's primary outputs).
        valid_masks: optional per-cycle pattern masks restricting when the
            tester samples the outputs.
        n_jobs: worker processes; 1 runs serially, negative uses every core.
        timeout: per-chunk seconds before a hung worker is killed and the
            chunk retried (see :class:`~repro.core.parallel.ParallelExecutor`).
        max_retries: extra attempts per failed/timed-out chunk.
        checkpoint: optional campaign journal; faults already journaled are
            skipped and replayed from disk, newly simulated faults are
            journaled as their chunk completes.
        audit_rate: fraction of faults re-simulated serially (0 disables
            the audit); selection is a pure hash of the fault key, so the
            audit set is identical for any job count or resume point.
        strict: abort on the first integrity violation instead of
            quarantining the fault and continuing.
        chaos: optional :class:`~repro.testing.chaos.ChaosEngine`
            injecting worker crashes/hangs and verdict bit-flips (test
            and CI use only).
        eventsim_checks: cap on audited faults also replayed through the
            event-driven reference engine (it is far slower per pattern).
        store: optional persistent campaign store; a complete cached
            stage result is replayed bit-identically (skipping simulation
            *and* audit -- the result was audited before publication),
            and a freshly computed clean campaign is published back.
        store_key: this campaign's canonical stage key (computed by the
            caller from the netlist/stimulus/config fingerprints -- see
            :mod:`repro.store.fingerprint`); required for ``store`` use.
    """
    if observe is None:
        observe = list(netlist.outputs)
    keys = {f: fault_key(f) for f in faults}

    # Persistent-store fast path: a complete cached verdict map replays
    # bit-identically without any simulation.  Partial/corrupt/foreign
    # payloads degrade to a miss (corruption is flagged by the store).
    if store is not None and store_key is not None:
        with StageTimer() as timer:
            cached = store.lookup("faultsim", store_key)
        if cached is not None and set(cached.get("verdicts", ())) == set(keys.values()):
            row = store.artifacts.row(store_key)
            store.record(
                StageProvenance(
                    stage="faultsim",
                    key=store_key,
                    hit=True,
                    wall_s=timer.wall_s,
                    saved_s=row.wall_s if row is not None else 0.0,
                )
            )
            result = FaultSimResult(
                verdicts={}, campaign=RunReport(n_items=len(faults))
            )
            for fault in faults:
                raw_verdict, cycle = cached["verdicts"][keys[fault]]
                verdict = Verdict(raw_verdict)
                result.verdicts[fault] = verdict
                if verdict is Verdict.DETECTED:
                    result.detect_cycle[fault] = int(cycle)
            return result

    stage_timer = StageTimer().__enter__()
    done: dict[FaultSite, tuple[Verdict, int]] = {}
    todo = list(faults)
    if checkpoint is not None:
        for fault in faults:
            entry = checkpoint.done.get(keys[fault])
            if entry is not None:
                done[fault] = (Verdict(entry[0]), int(entry[1]))
        todo = [f for f in faults if f not in done]
    outcomes_by_fault: dict[FaultSite, tuple[Verdict, int]] = dict(done)
    report = RunReport(n_items=len(faults), resumed=len(done))
    audit_keys = set(select_audit([keys[f] for f in faults], audit_rate))
    if chaos is not None:
        chaos.set_flip_targets(sorted(audit_keys))
    golden: list | GoldenTrace | None = None
    cone_stats = ConeStats()
    dead_faults: list[FaultSite] = []
    if todo:
        compile_netlist(netlist)  # warm the shared compile before fanning out
        golden = run_golden(netlist, stimulus, observe, full=True)
        cones = compute_cones(netlist, todo)
        context = (netlist, stimulus, observe, golden, valid_masks, cones)
        # Cone-overlap-aware chunking: faults whose cones share gates land
        # in the same chunk, shrinking each chunk's union cone.  One chunk
        # per worker keeps the jobs balanced (fixed numpy dispatch cost
        # amortizes across blocks); the width cap bounds worker memory.
        jobs = max(1, resolve_n_jobs(n_jobs))
        wpb = V.num_words(stimulus.n_patterns)
        capacity = max(1, min(-(-len(todo) // jobs), _CONE_MAX_WORDS // wpb))
        chunks = chunk_by_cone(todo, cones, capacity, netlist, key=lambda f: keys[f])

        def _journal_chunk(items, results) -> None:
            for chunk, chunk_out in zip(items, results):
                raw_stats = getattr(chunk_out, "stats", None)
                if raw_stats is not None:
                    cone_stats.absorb(raw_stats)
                    dead_faults.extend(chunk[i] for i in raw_stats.get("dead", ()))
                for fault, (verdict, cycle) in zip(chunk, chunk_out):
                    if chaos is not None:
                        verdict, cycle = chaos.tamper_verdict(
                            keys[fault], (verdict, cycle)
                        )
                    outcomes_by_fault[fault] = (verdict, cycle)
                    if checkpoint is not None:
                        checkpoint.record(keys[fault], [verdict.value, cycle])

        worker, run_context = _fault_chunk_worker, context
        if chaos is not None:
            worker, run_context = chaos.wrap(worker, run_context)
        executor = ParallelExecutor(
            n_jobs, chunk_size=1, timeout=timeout, max_retries=max_retries
        )
        executor.run(worker, chunks, run_context, on_chunk=_journal_chunk)
        assert executor.last_report is not None
        report = executor.last_report
        # the executor counted fault-chunks; report in faults
        report.n_items = len(faults)
        report.completed = len(todo)
        report.resumed = len(done)

    # Differential audit: re-derive the hash-selected subset through the
    # serial per-fault path and compare against the campaign's verdicts.
    guard = IntegrityGuard(strict=strict)
    audited = [f for f in faults if keys[f] in audit_keys]
    if audited:
        if golden is None:  # fully resumed run never built the reference
            compile_netlist(netlist)
            golden = run_golden(netlist, stimulus, observe)
        for fault in audited:
            reference = simulate_one_fault(
                netlist, fault, stimulus, observe, golden, valid_masks
            )
            got = outcomes_by_fault[fault]
            if got != reference:
                guard.flag(
                    IntegrityViolation(
                        check="faultsim-differential",
                        fault=keys[fault],
                        site=fault.describe(netlist),
                        detail=(
                            "campaign verdict diverges from the serial "
                            "reference simulation; quarantined to the "
                            "reference"
                        ),
                        cycle=max(got[1], reference[1]),
                        expected=f"{reference[0].value}@{reference[1]}",
                        actual=f"{got[0].value}@{got[1]}",
                    )
                )
                outcomes_by_fault[fault] = reference
        # Spot-check the compiled engine itself against the scalar
        # event-driven reference on a capped handful of audited faults.
        from .eventsim import crosscheck_compiled

        for fault in sorted(audited, key=lambda f: keys[f])[: max(0, eventsim_checks)]:
            divergent = crosscheck_compiled(netlist, stimulus, observe, fault)
            if divergent >= 0:
                guard.flag(
                    IntegrityViolation(
                        check="eventsim-crosscheck",
                        fault=keys[fault],
                        site=fault.describe(netlist),
                        detail=(
                            "compiled simulator diverges from the "
                            "event-driven reference on an observed net"
                        ),
                        cycle=divergent,
                    )
                )
    # Death-pruning spot check: a capped, hash-ranked handful of faults the
    # cone engine retired early is re-simulated through the full serial
    # reference, continuously validating the pruning proof at runtime.
    # Faults already covered by the ordinary differential audit (and hence
    # by chaos verdict tampering, whose targets are a subset of it) are
    # excluded, so ``report.audited`` and clean-run accounting are
    # untouched.
    death_checked = sorted(
        (f for f in dead_faults if keys[f] not in audit_keys),
        key=lambda f: audit_fraction(keys[f], "death-audit"),
    )[: max(0, DEFAULT_DEATH_AUDIT_CHECKS) if audit_rate > 0 else 0]
    for fault in death_checked:
        reference = simulate_one_fault(
            netlist, fault, stimulus, observe, golden, valid_masks
        )
        got = outcomes_by_fault[fault]
        if got != reference:
            guard.flag(
                IntegrityViolation(
                    check="cone-death-differential",
                    fault=keys[fault],
                    site=fault.describe(netlist),
                    detail=(
                        "death-pruned verdict diverges from the serial "
                        "reference simulation; quarantined to the "
                        "reference"
                    ),
                    cycle=max(got[1], reference[1]),
                    expected=f"{reference[0].value}@{reference[1]}",
                    actual=f"{got[0].value}@{got[1]}",
                )
            )
            outcomes_by_fault[fault] = reference
    guard.attach(report, audited=len(audited))
    stage_timer.__exit__()
    if store is not None and store_key is not None:
        # Publish only clean campaigns: quarantined/audit-corrected results
        # must never be served stale from a warm cache.  A fully journal-
        # resumed campaign publishes too (the checkpoint layer's results
        # graduate into the durable store on completion).
        published = False
        if clean_campaign(report):
            published = store.publish(
                "faultsim",
                store_key,
                {
                    "verdicts": {
                        keys[f]: [outcomes_by_fault[f][0].value, outcomes_by_fault[f][1]]
                        for f in faults
                    }
                },
                design=netlist.name,
                meta={"faults": len(faults), "patterns": stimulus.n_patterns},
                wall_s=stage_timer.wall_s,
            )
            if published and checkpoint is not None and chaos is None:
                checkpoint.retire()
        store.record(
            StageProvenance(
                stage="faultsim",
                key=store_key,
                hit=False,
                wall_s=stage_timer.wall_s,
                published=published,
            )
        )
    result = FaultSimResult(
        verdicts={}, campaign=report, cone=cone_stats if todo else None
    )
    for fault in faults:
        verdict, cycle = outcomes_by_fault[fault]
        result.verdicts[fault] = verdict
        if verdict is Verdict.DETECTED:
            result.detect_cycle[fault] = cycle
    return result
