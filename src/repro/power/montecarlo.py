"""Monte-Carlo power estimation for controller-datapath systems.

The paper grades SFR faults by "simulating the faulty circuit for random
data until the power converges" (Section 5).  ``monte_carlo_power`` runs
batches of random computations through the (optionally faulted) system and
stops when the running mean of the datapath power settles within a
relative tolerance, or a batch budget is exhausted.

``measure_power`` is the single-batch primitive; it also serves the
fixed-test-set experiments of Table 3 (where the data comes from a TPGR
with a chosen seed instead of a Monte-Carlo RNG).

A grading campaign runs the same random batches through the fault-free
machine and every faulted one.  ``precompute_batches`` materialises each
batch as a packed :class:`NormalModeStimulus` exactly once; passing the
list to ``monte_carlo_power`` (via ``batches=``) replays it without
regenerating or re-packing data, with results bit-identical to the
generate-per-call path for the same seed and batch size.
(``shared_batches`` memoizes that list per system object, so pool workers
regenerate it locally instead of receiving it pickled.)

``monte_carlo_power_block`` is the fault-parallel campaign kernel: each
fault of a chunk owns one pattern block of a single wide cone-restricted
simulator, per-fault convergence is tracked exactly as the serial loop
does, and converged faults are compacted out of the next batch's
simulator.  One fault-free reference run per batch supplies the toggle
counts of every net outside a fault's sequential fanout cone (those nets
provably never diverge -- see docs/performance.md), and only the chunk's
union cone is simulated.  Blocks are padded to whole words, so any batch
size takes this path.  The per-fault ``MonteCarloResult`` is
bit-identical to ``monte_carlo_power``, which stays as the serial
reference the grading audit recomputes against.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import IntegrityError
from ..hls.system import NormalModeStimulus, System
from ..logic.cones import compute_cones
from ..logic.faults import FaultSite
from ..logic.simulator import CycleSimulator, compile_netlist
from .estimator import PowerEstimator, PowerResult

DATAPATH_TAG = "dp"

#: shared Monte-Carlo campaign defaults -- one definition keeps
#: ``monte_carlo_power``, ``grade_sfr_faults`` and every cache/checkpoint
#: fingerprint derived from them in agreement.
MC_DEFAULT_SEED = 2000
MC_DEFAULT_BATCH_PATTERNS = 192
MC_DEFAULT_MAX_BATCHES = 12
MC_DEFAULT_ITERATIONS_WINDOW = 4


def mc_campaign_params(
    seed: int, batch_patterns: int, max_batches: int, iterations_window: int
) -> dict:
    """The result-relevant knobs of one Monte-Carlo grading campaign.

    Two campaigns with equal params (and equal design + fault universe)
    produce bit-identical powers, so this dict keys both the
    crash-recovery checkpoint fingerprint and the persistent store key.
    """
    return {
        "seed": seed,
        "batch_patterns": batch_patterns,
        "max_batches": max_batches,
        "iterations_window": iterations_window,
    }


def _run_batch(
    system: System, stim: NormalModeStimulus, fault: FaultSite | None
) -> CycleSimulator:
    """Simulate one batch stimulus and return the counting simulator."""
    sim = CycleSimulator(
        system.netlist,
        stim.n_patterns,
        faults=[fault] if fault else None,
        count_toggles=True,
    )
    for cycle in range(stim.n_cycles):
        stim.apply(sim, cycle)
        sim.settle()
        sim.latch()
    return sim


def measure_power(
    system: System,
    estimator: PowerEstimator,
    data: dict[str, np.ndarray] | NormalModeStimulus,
    fault: FaultSite | None = None,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
    tag_prefix: str | None = DATAPATH_TAG,
) -> PowerResult:
    """Average datapath power for one batch of input patterns.

    ``data`` is either a dict of per-input pattern arrays or an already
    packed :class:`NormalModeStimulus` (reused across faults to avoid
    re-packing identical bit-planes).
    """
    if isinstance(data, NormalModeStimulus):
        stim = data
    else:
        n_cycles = system.cycles_for(iterations_window, hold_cycles)
        stim = NormalModeStimulus(system, data, n_cycles)
    sim = _run_batch(system, stim, fault)
    return estimator.power(sim, tag_prefix=tag_prefix)


@dataclass
class ActivityTrace:
    """Per-batch integer activity counters of one Monte-Carlo run.

    ``toggles[b]`` / ``load_events[b]`` are the exact per-net toggle and
    per-DFFE load counters batch ``b`` accumulated -- the *integer*
    sufficient statistic behind every float in the power pipeline.
    Keeping the per-batch resolution (instead of a summed matrix) is
    what makes recovery bit-identical: replaying
    ``power_from_counts`` per batch and averaging visits the very same
    float operands in the very same order as the original campaign
    (see :func:`repro.fleet.activity.recovered_power_uw`).
    """

    toggles: np.ndarray  # (batches, num_nets) int64
    load_events: np.ndarray  # (batches, n_dffe) int64
    cycles: int  # settled cycles per batch
    patterns: int  # patterns per batch

    @property
    def batches(self) -> int:
        return int(self.toggles.shape[0])

    def mean_activity(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean transitions per cycle-pattern: per-net and per-DFFE rows.

        Integer sums divided once by the total ``batches * cycles *
        patterns`` denominator -- exact integers in, one float divide
        out.  These are the columns of the fleet activity matrix ``A``.
        """
        denom = float(self.batches * self.cycles * self.patterns)
        return (
            self.toggles.sum(axis=0, dtype=np.int64) / denom,
            self.load_events.sum(axis=0, dtype=np.int64) / denom,
        )

    def to_json_dict(self) -> dict:
        return {
            "toggles": self.toggles.tolist(),
            "load_events": self.load_events.tolist(),
            "cycles": self.cycles,
            "patterns": self.patterns,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ActivityTrace":
        def rows(key: str) -> np.ndarray:
            arr = np.asarray(data[key], dtype=np.int64)
            if arr.ndim == 1:  # no batches, or zero counters per batch
                arr = arr.reshape(len(data[key]), 0)
            return arr

        return cls(
            toggles=rows("toggles"),
            load_events=rows("load_events"),
            cycles=int(data["cycles"]),
            patterns=int(data["patterns"]),
        )


@dataclass
class MonteCarloResult:
    """Converged Monte-Carlo power estimate."""

    power_uw: float
    batches: int
    patterns: int
    history: list[float] = field(default_factory=list)
    converged: bool = True
    #: per-batch integer counters (only with ``capture_activity=True``);
    #: deliberately excluded from the JSON forms below so journals, the
    #: grading store artifact and checkpoints are unchanged -- activity
    #: persists through its own store artifact (:mod:`repro.fleet`).
    activity: "ActivityTrace | None" = field(
        default=None, compare=False, repr=False
    )

    def to_json_dict(self) -> dict:
        """JSON-safe form for campaign checkpoints.

        Floats round-trip exactly through JSON, so a result replayed from
        a journal is bit-identical to the freshly computed one.  A NaN or
        infinite power is a corrupted computation: serializing it would
        smuggle the corruption into checkpoints and reports, so it is
        rejected here (and by ``to_json``'s ``allow_nan=False``).
        """
        if not all(math.isfinite(v) for v in [self.power_uw, *self.history]):
            raise IntegrityError(
                f"refusing to serialize a non-finite Monte-Carlo power "
                f"(power_uw={self.power_uw!r}, history={self.history!r})"
            )
        return {
            "power_uw": self.power_uw,
            "batches": self.batches,
            "patterns": self.patterns,
            "history": list(self.history),
            "converged": self.converged,
        }

    def to_json(self) -> str:
        """Strict JSON encoding (``allow_nan=False``)."""
        return json.dumps(self.to_json_dict(), allow_nan=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonteCarloResult":
        return cls(
            power_uw=float(data["power_uw"]),
            batches=int(data["batches"]),
            patterns=int(data["patterns"]),
            history=[float(h) for h in data["history"]],
            converged=bool(data["converged"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "MonteCarloResult":
        return cls.from_json_dict(json.loads(text))


def random_data(system: System, rng: np.random.Generator, n_patterns: int) -> dict[str, np.ndarray]:
    """Uniform random input data for every primary data input.

    Values are masked to the datapath width at generation time, so drivers
    downstream (``drive_bus`` asserts this) never see out-of-range words.
    """
    hi = 1 << system.rtl.width
    return {
        name: rng.integers(0, hi, n_patterns) & (hi - 1)
        for name in system.rtl.dfg.inputs
    }


def precompute_batches(
    system: System,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
) -> list[NormalModeStimulus]:
    """Materialise every Monte-Carlo batch as a packed stimulus, once.

    Drawing all ``max_batches`` batches from one RNG stream reproduces the
    exact per-batch data of the generate-per-call path, so early-converging
    runs simply ignore the tail of the list.
    """
    rng = np.random.default_rng(seed)
    n_cycles = system.cycles_for(iterations_window, hold_cycles)
    return [
        NormalModeStimulus(system, random_data(system, rng, batch_patterns), n_cycles)
        for _ in range(max_batches)
    ]


# Precomputed batch lists, memoized per live System object (the compile-
# cache idiom: id()-keyed, evicted by a weakref finalizer).  Campaign
# workers regenerate their batches from the seed through this cache, so
# the parallel context pickled to each pool never carries the packed
# batch stimuli -- only the knobs.  Regeneration is bit-identical by
# construction (one RNG stream from one seed).
_BATCH_CACHE: dict[int, dict[tuple, list[NormalModeStimulus]]] = {}


def shared_batches(
    system: System,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
) -> list[NormalModeStimulus]:
    """:func:`precompute_batches`, memoized per system object and knobs."""
    key = id(system)
    per_system = _BATCH_CACHE.get(key)
    if per_system is None:
        per_system = _BATCH_CACHE[key] = {}
        weakref.finalize(system, _BATCH_CACHE.pop, key, None)
    params = (seed, batch_patterns, max_batches, iterations_window, hold_cycles)
    batches = per_system.get(params)
    if batches is None:
        batches = per_system[params] = precompute_batches(
            system,
            seed=seed,
            batch_patterns=batch_patterns,
            max_batches=max_batches,
            iterations_window=iterations_window,
            hold_cycles=hold_cycles,
        )
    return batches


def monte_carlo_power(
    system: System,
    estimator: PowerEstimator,
    fault: FaultSite | None = None,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    min_batches: int = 3,
    rel_tol: float = 0.004,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
    batches: list[NormalModeStimulus] | None = None,
    capture_activity: bool = False,
) -> MonteCarloResult:
    """Run random batches until the cumulative mean power converges.

    Convergence: the cumulative mean moved by less than ``rel_tol``
    (relative) over the last batch, after at least ``min_batches``.

    Pass ``batches`` (from :func:`precompute_batches`) to reuse packed
    batch stimuli across the fault-free baseline and every faulted run;
    ``seed``/``batch_patterns`` are then ignored in favour of the
    precomputed data.

    With ``capture_activity=True`` the result additionally carries an
    :class:`ActivityTrace` of the per-batch integer counters every float
    was derived from; powers, histories and convergence are bit-identical
    either way (the capture path runs the very same simulations and the
    very same float pipeline -- it only snapshots the counters).
    """
    if batch_patterns < 1 or max_batches < 1 or min_batches < 1:
        raise ValueError(
            "batch_patterns, max_batches and min_batches must all be >= 1 "
            f"(got {batch_patterns}, {max_batches}, {min_batches})"
        )
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if batches is None:
        rng = np.random.default_rng(seed)
        n_cycles = system.cycles_for(iterations_window, hold_cycles)

        def batch_stim(_batch: int) -> NormalModeStimulus:
            return NormalModeStimulus(
                system, random_data(system, rng, batch_patterns), n_cycles
            )

    else:
        max_batches = min(max_batches, len(batches))

        def batch_stim(batch: int) -> NormalModeStimulus:
            return batches[batch - 1]

    totals: list[float] = []
    history: list[float] = []
    act_toggles: list[np.ndarray] = []
    act_loads: list[np.ndarray] = []

    def _trace(result: PowerResult) -> "ActivityTrace | None":
        if not capture_activity:
            return None
        return ActivityTrace(
            toggles=np.stack(act_toggles),
            load_events=np.stack(act_loads),
            cycles=result.cycles,
            patterns=result.patterns,
        )

    for batch in range(1, max_batches + 1):
        if capture_activity:
            sim = _run_batch(system, batch_stim(batch), fault)
            toggles, loads = sim.counter_snapshot()
            act_toggles.append(toggles)
            act_loads.append(loads)
            result = estimator.power(sim, tag_prefix=DATAPATH_TAG)
        else:
            result = measure_power(
                system,
                estimator,
                batch_stim(batch),
                fault=fault,
                iterations_window=iterations_window,
                hold_cycles=hold_cycles,
            )
        # Accumulation boundary guard: one bad batch must be caught here,
        # where it enters, not after it has been averaged into the final
        # table (a NaN poisons every later mean silently).
        if not math.isfinite(result.total_uw) or result.total_uw < 0:
            raise IntegrityError(
                f"Monte-Carlo batch {batch} produced an unusable power "
                f"{result.total_uw!r} uW (fault={fault!r})"
            )
        totals.append(result.total_uw)
        mean = float(np.mean(totals))
        history.append(mean)
        if batch >= min_batches:
            prev = history[-2]
            if prev > 0 and abs(mean - prev) / prev < rel_tol:
                return MonteCarloResult(
                    power_uw=mean,
                    batches=batch,
                    patterns=batch * result.patterns,
                    history=history,
                    activity=_trace(result),
                )
    return MonteCarloResult(
        power_uw=float(np.mean(totals)),
        batches=max_batches,
        patterns=max_batches * (result.patterns if totals else 0),
        history=history,
        converged=False,
        activity=_trace(result) if totals else None,
    )


@dataclass
class _GoldenBatch:
    """Fault-free reference of one batch: per-cycle planes + counters."""

    planes: list[np.ndarray]  # (2, n_rows, words) snapshot per settled cycle
    toggles: np.ndarray  # (num_nets,) fault-free toggle counts
    load_events: np.ndarray  # (n_dffe,) fault-free DFFE load counts
    cycles: int


# Golden batch runs, memoized per live stimulus object (grading replays
# the same precomputed batches for every fault chunk, so each worker
# simulates each batch's fault-free reference exactly once).
_GOLDEN_CACHE: dict[int, _GoldenBatch] = {}


def _golden_batch(system: System, stim: NormalModeStimulus) -> _GoldenBatch:
    key = id(stim)
    golden = _GOLDEN_CACHE.get(key)
    if golden is not None:
        return golden
    sim = CycleSimulator(system.netlist, stim.n_patterns, count_toggles=True)
    planes = []
    for cycle in range(stim.n_cycles):
        stim.apply(sim, cycle)
        sim.settle()
        planes.append(sim.snapshot_planes())
        sim.latch()
    golden = _GoldenBatch(
        planes, sim.toggles.copy(), sim.load_events.copy(), sim.cycles_run
    )
    weakref.finalize(stim, _GOLDEN_CACHE.pop, key, None)
    _GOLDEN_CACHE[key] = golden
    return golden


class _ConeBlockKernel:
    """Per-chunk cone-restricted block-parallel power kernel.

    Only a fault's sequential fanout cone can ever diverge from the
    fault-free machine (the PR-5 cone theorem, docs/performance.md), so a
    fault's power differs from golden only through the toggle counts of
    its cone nets and the load counts of its cone DFFEs.  One golden run
    per batch (memoized across chunks) supplies every other counter; the
    chunk simulates just its union cone on the block-parallel
    :class:`~repro.logic.faultsim._ConeSim`, counting toggles per block
    over the union nets.  Counters are exact integers, so the resulting
    powers are bit-identical to a full simulation's.  One instance serves
    every batch of an unchanged live-fault set (state and counters reset
    between batches, matching the fresh-simulator-per-batch serial
    semantics); the driver rebuilds a narrower kernel when convergence
    compacts faults out.
    """

    def __init__(
        self,
        system: System,
        estimator: PowerEstimator,
        faults: list[FaultSite],
        cones,
        capture: bool = False,
    ):
        self.system = system
        self.estimator = estimator
        self.faults = list(faults)
        self.cones = cones
        self.capture = capture
        #: per-block counter snapshot of the last ``run`` (capture mode)
        self.last_counts: tuple[np.ndarray, np.ndarray] | None = None
        self.cs = None

    def _build(self, n_patterns: int) -> None:
        from ..logic.faultsim import _ConeSim

        netlist = self.system.netlist
        n_blocks = len(self.faults)
        self.cs = cs = _ConeSim(
            netlist,
            compile_netlist(netlist),
            self.faults,
            self.cones,
            [],
            n_patterns,
            False,
            count_toggles=True,
        )
        wpb = cs.wpb
        self.counted = np.array(sorted(cs.union_nets), dtype=np.int64)
        self.state = np.zeros(
            (2, len(cs.state_rows), n_blocks * wpb), dtype=np.uint64
        )
        self.prev = np.empty((2, len(self.counted), n_blocks * wpb), dtype=np.uint64)
        self.counts = np.zeros((n_blocks, len(self.counted)), dtype=np.int64)

    def run(self, stim: NormalModeStimulus, tag_prefix: str | None) -> list[PowerResult]:
        golden = _golden_batch(self.system, stim)
        n_blocks = len(self.faults)
        if self.cs is None:
            self._build(stim.n_patterns)
        else:
            self.cs.sim.reset_state()
            self.cs.sim.load_events[:] = 0
            self.state[:] = 0
            self.counts[:] = 0
        cs, counted, state, prev, counts = (
            self.cs, self.counted, self.state, self.prev, self.counts,
        )
        sim, wpb = cs.sim, cs.wpb
        have_prev = False
        for cycle in range(stim.n_cycles):
            cs.run_cycle(golden.planes[cycle], state)
            if have_prev:
                flips = (prev[0] & sim.O[counted]) | (prev[1] & sim.Z[counted])
                counts += (
                    np.bitwise_count(flips)
                    .reshape(len(counted), n_blocks, wpb)
                    .sum(axis=2, dtype=np.int64)
                    .T
                )
            prev[0] = sim.Z[counted]
            prev[1] = sim.O[counted]
            have_prev = True
            cs.latch(state)
        # Splice: golden counters everywhere, simulated counters on the
        # union cone.  For a block whose fault's own cone is a strict
        # subset of the union, the extra union rows carry fault-free
        # values in that block (they are outside the fault's cone), so
        # the spliced counts still equal the standalone faulted run's.
        estimator = self.estimator
        toggles = np.tile(golden.toggles, (n_blocks, 1))
        toggles[:, counted] = counts
        loads = np.tile(golden.load_events, (n_blocks, 1))
        for group in cs.seq_subs:
            if group.dffe_rows is not None:
                loads[:, group.dffe_rows] = sim.load_events[:, group.dffe_rows]
        if self.capture:
            # The spliced arrays above are freshly allocated each run, so
            # they are safe to hand out without another copy.
            self.last_counts = (toggles, loads)
        results = []
        for b in range(n_blocks):
            estimator._check_counters(
                toggles[b], loads[b], golden.cycles, stim.n_patterns
            )
            results.append(
                estimator.power_from_counts(
                    toggles[b], loads[b], golden.cycles, stim.n_patterns, tag_prefix
                )
            )
        return results


def monte_carlo_power_block(
    system: System,
    estimator: PowerEstimator,
    faults: list[FaultSite],
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    min_batches: int = 3,
    rel_tol: float = 0.004,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
    batches: list[NormalModeStimulus] | None = None,
    capture_activity: bool = False,
) -> list[MonteCarloResult]:
    """Monte-Carlo power of a whole fault chunk in block-parallel passes.

    Returns one :class:`MonteCarloResult` per fault, bit-identical to
    calling :func:`monte_carlo_power` per fault with the same knobs --
    same ``power_uw``, ``batches``, ``patterns`` and ``history``.  Each
    batch is one wide cone-restricted simulation over the
    still-unconverged faults (converged faults are compacted out, exactly
    mirroring the serial loop's early return).  With
    ``capture_activity=True`` each result also carries its
    :class:`ActivityTrace` of per-batch integer counters (the counters
    the kernel already accumulates -- capture only snapshots them).

    Every fault block is ``num_words(batch_patterns)`` words wide; the
    padding bits of an unaligned batch stay X, so they never toggle or
    load.  Callers are responsible for keeping chunks small enough for
    the wide simulator to fit in memory (the grading layer chunks
    accordingly).
    """
    faults = list(faults)
    if not faults:
        return []
    if batch_patterns < 1 or max_batches < 1 or min_batches < 1:
        raise ValueError(
            "batch_patterns, max_batches and min_batches must all be >= 1 "
            f"(got {batch_patterns}, {max_batches}, {min_batches})"
        )
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    patterns_per_batch = batches[0].n_patterns if batches else batch_patterns
    if batches is None:
        rng = np.random.default_rng(seed)
        n_cycles = system.cycles_for(iterations_window, hold_cycles)

        def batch_stim(_batch: int) -> NormalModeStimulus:
            return NormalModeStimulus(
                system, random_data(system, rng, batch_patterns), n_cycles
            )

    else:
        max_batches = min(max_batches, len(batches))

        def batch_stim(batch: int) -> NormalModeStimulus:
            return batches[batch - 1]

    cones = compute_cones(system.netlist, faults)
    n_faults = len(faults)
    totals: list[list[float]] = [[] for _ in range(n_faults)]
    history: list[list[float]] = [[] for _ in range(n_faults)]
    act_toggles: list[list[np.ndarray]] = [[] for _ in range(n_faults)]
    act_loads: list[list[np.ndarray]] = [[] for _ in range(n_faults)]
    act_shape: list[tuple[int, int]] = [(0, 0)] * n_faults  # (cycles, patterns)
    final: list[MonteCarloResult | None] = [None] * n_faults

    def _trace(i: int) -> "ActivityTrace | None":
        if not capture_activity:
            return None
        cycles, patterns = act_shape[i]
        return ActivityTrace(
            toggles=np.stack(act_toggles[i]),
            load_events=np.stack(act_loads[i]),
            cycles=cycles,
            patterns=patterns,
        )

    live = list(range(n_faults))
    kernel = None
    kernel_live: list[int] = []
    for batch in range(1, max_batches + 1):
        stim = batch_stim(batch)
        if kernel is None or kernel_live != live:
            # Convergence compaction: rebuild the kernel one block per
            # still-unconverged fault; an unchanged live set reuses the
            # previous batch's simulator (state reset, counters zeroed).
            live_faults = [faults[i] for i in live]
            kernel = _ConeBlockKernel(
                system, estimator, live_faults, cones, capture_activity
            )
            kernel_live = list(live)
        powers = kernel.run(stim, DATAPATH_TAG)
        survivors = []
        for pos, i in enumerate(live):
            result = powers[pos]
            # Accumulation boundary guard, as in the serial loop: one bad
            # batch is caught where it enters, not after averaging.
            if not math.isfinite(result.total_uw) or result.total_uw < 0:
                raise IntegrityError(
                    f"Monte-Carlo batch {batch} produced an unusable power "
                    f"{result.total_uw!r} uW (fault={faults[i]!r})"
                )
            if capture_activity:
                assert kernel.last_counts is not None
                act_toggles[i].append(kernel.last_counts[0][pos])
                act_loads[i].append(kernel.last_counts[1][pos])
                act_shape[i] = (result.cycles, result.patterns)
            totals[i].append(result.total_uw)
            mean = float(np.mean(totals[i]))
            history[i].append(mean)
            if batch >= min_batches:
                prev = history[i][-2]
                if prev > 0 and abs(mean - prev) / prev < rel_tol:
                    final[i] = MonteCarloResult(
                        power_uw=mean,
                        batches=batch,
                        patterns=batch * result.patterns,
                        history=history[i],
                        activity=_trace(i),
                    )
                    continue
            survivors.append(i)
        live = survivors
        if not live:
            break
    for i in live:
        final[i] = MonteCarloResult(
            power_uw=float(np.mean(totals[i])),
            batches=max_batches,
            patterns=max_batches * patterns_per_batch,
            history=history[i],
            converged=False,
            activity=_trace(i),
        )
    assert all(r is not None for r in final)
    return final  # type: ignore[return-value]
