"""Power grading of SFR faults and threshold-based detection.

Implements Section 5's final stage and the data behind Table 1, Table 3
and Figure 7: Monte-Carlo power of every SFR fault, percentage change
against the fault-free machine, and a +/- threshold band (the paper uses
5 %) deciding which SFR faults the power test catches.  Faults are grouped
exactly as Figure 7 plots them: faults affecting only multiplexer select
lines first, then faults affecting register load lines, each group sorted
by increasing power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..hls.system import System
from ..power.estimator import PowerEstimator
from ..logic import values as V
from ..power.montecarlo import (
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_SEED,
    MonteCarloResult,
    mc_campaign_params,
    measure_power,
    monte_carlo_power,
    monte_carlo_power_block,
    shared_batches,
)
from ..store.cache import CampaignStore, StageProvenance, StageTimer
from ..store.fingerprint import netlist_fingerprint, stage_key
from ..tpg.tpgr import TPGR
from .checkpoint import campaign_fingerprint, fault_key, open_journal
from .errors import CampaignError, IntegrityError, validate_netlist
from .integrity import (
    DEFAULT_AUDIT_RATE,
    IntegrityGuard,
    IntegrityViolation,
    adds_register_loads,
    check_finite_power,
    check_load_monotonicity,
    check_power_ceiling,
    format_value,
    select_audit,
)
from .parallel import ParallelExecutor, RunReport, resolve_n_jobs
from .pipeline import FaultRecord, PipelineResult

#: journal key of the fault-free Monte-Carlo baseline
_BASELINE_KEY = "__fault_free__"

#: width cap (in 64-bit words) of one block-kernel simulator; bounds
#: chunk size so a huge SFR universe cannot blow up worker memory (the
#: cone-engine cap of :mod:`repro.logic.faultsim`, applied to grading).
_GRADE_MAX_WORDS = 8192

#: target faults per block-kernel chunk (before job balancing and the
#: memory cap); the fixed per-cycle numpy dispatch cost amortizes across
#: this many pattern blocks.
_GRADE_CHUNK_FAULTS = 32


def power_detected(pct_change: float, threshold: float) -> bool:
    """Single source of truth for the power-screen detection predicate.

    ``pct_change`` is a percentage (Figure-7 units), ``threshold`` a
    fraction; a fault is flagged when the magnitude of its power shift
    exceeds the threshold.
    """
    return abs(pct_change) > 100.0 * threshold


@dataclass
class GradedFault:
    """One SFR fault with its Monte-Carlo power grade."""

    record: FaultRecord
    power_uw: float
    pct_change: float
    group: str  # 'select' (select lines only) or 'load' (affects loads)

    def effect_summary(self) -> list[str]:
        assert self.record.classification is not None
        return self.record.classification.effect_summary()


@dataclass
class GradingResult:
    """Figure-7-shaped result: fault-free power, band, ordered fault grades."""

    design: str
    fault_free_uw: float
    threshold: float
    graded: list[GradedFault] = field(default_factory=list)
    #: resilience summary of the Monte-Carlo fan-out
    campaign: RunReport | None = None

    def detected_flags(self) -> list[bool]:
        return [power_detected(g.pct_change, self.threshold) for g in self.graded]

    def group(self, name: str) -> list[GradedFault]:
        return [g for g in self.graded if g.group == name]

    def summary(self) -> dict:
        sel = self.group("select")
        load = self.group("load")
        return {
            "design": self.design,
            "fault_free_uw": self.fault_free_uw,
            "n_sfr": len(self.graded),
            "n_select_only": len(sel),
            "n_load": len(load),
            "select_detected": sum(
                1 for g in sel if power_detected(g.pct_change, self.threshold)
            ),
            "load_detected": sum(
                1 for g in load if power_detected(g.pct_change, self.threshold)
            ),
        }


def _grade_worker(context, fault):
    """Monte-Carlo one machine against shared precomputed batches (pickles).

    Grades the fault-free baseline (``fault=None``).  The context carries
    only the campaign knobs -- each worker process
    regenerates the packed batch stimuli locally through the
    :func:`~repro.power.montecarlo.shared_batches` memo (bit-identical by
    construction: one RNG stream from one seed), so the pool never pickles
    the batch list itself.
    """
    system, estimator, seed, batch_patterns, max_batches, iterations_window = context
    batches = shared_batches(
        system,
        seed=seed,
        batch_patterns=batch_patterns,
        max_batches=max_batches,
        iterations_window=iterations_window,
    )
    return monte_carlo_power(
        system,
        estimator,
        fault=fault,
        max_batches=max_batches,
        iterations_window=iterations_window,
        batches=batches,
    )


def _grade_chunk_worker(context, chunk):
    """Monte-Carlo a whole fault chunk through the block kernel (pickles).

    One wide simulation per Monte-Carlo batch for every still-unconverged
    fault of the chunk; per-fault results are bit-identical to
    :func:`~repro.power.montecarlo.monte_carlo_power` on the same knobs.
    The context is :func:`_grade_worker`'s plus a capture flag: the fleet
    layer's activity campaign sets it to keep each result's per-batch
    counters.
    """
    (
        system,
        estimator,
        seed,
        batch_patterns,
        max_batches,
        iterations_window,
        capture_activity,
    ) = context
    batches = shared_batches(
        system,
        seed=seed,
        batch_patterns=batch_patterns,
        max_batches=max_batches,
        iterations_window=iterations_window,
    )
    return monte_carlo_power_block(
        system,
        estimator,
        chunk,
        max_batches=max_batches,
        iterations_window=iterations_window,
        batches=batches,
        capture_activity=capture_activity,
    )


def _grade_chunks(sites: list, batch_patterns: int, n_jobs: int) -> list[list]:
    """Order-preserving fault chunks for :func:`_grade_chunk_worker`.

    Chunk width balances the job count, targets _GRADE_CHUNK_FAULTS blocks
    for numpy-dispatch amortization, and is capped so the worker's
    ``len(chunk) * num_words(batch_patterns)``-word simulator stays within
    _GRADE_MAX_WORDS.
    """
    jobs = max(1, resolve_n_jobs(n_jobs))
    wpb = V.num_words(batch_patterns)
    size = max(
        1, min(-(-len(sites) // jobs), _GRADE_CHUNK_FAULTS, _GRADE_MAX_WORDS // wpb)
    )
    return [sites[i : i + size] for i in range(0, len(sites), size)]


def grade_sfr_faults(
    system: System,
    pipeline_result: PipelineResult,
    estimator: PowerEstimator | None = None,
    threshold: float = 0.05,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    n_jobs: int = 1,
    timeout: float | None = None,
    max_retries: int = 2,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    audit_rate: float = DEFAULT_AUDIT_RATE,
    strict: bool = False,
    chaos=None,
    store: CampaignStore | None = None,
    seed_results: dict[str, "MonteCarloResult"] | None = None,
) -> GradingResult:
    """Monte-Carlo grade every SFR fault of a pipeline result.

    Each random batch is generated and packed once (``shared_batches``)
    and replayed for the fault-free baseline and every SFR fault.  Faults
    are graded in chunks on the block kernel
    (:func:`~repro.power.montecarlo.monte_carlo_power_block`): each fault
    of a chunk owns one pattern block of a single wide simulator
    restricted to the chunk's union fault cone (fault power = golden
    power + cone counter delta).  Powers and convergence histories are
    bit-identical to the per-fault
    :func:`~repro.power.montecarlo.monte_carlo_power`, which is the
    differential-audit reference.  The chunks fan out across ``n_jobs``
    processes with bit-identical powers regardless of job count.  With
    ``checkpoint_dir`` set, the baseline and every
    per-fault result are journaled as they complete, and a rerun with
    ``resume=True`` replays journaled powers bit-identically instead of
    recomputing them.

    Integrity layer (see :mod:`repro.core.integrity`): the fault-free
    baseline must be finite, positive and below the estimator's
    theoretical ceiling, or the whole grading aborts (a poisoned
    baseline poisons every percentage).  Every per-fault power is held
    to the same finite/ceiling invariants, register-load-adding faults
    to Section-5 monotonicity, and a hash-selected ``audit_rate``
    fraction is recomputed through the generate-per-call Monte-Carlo
    path (independent of the batch-replay path used by the campaign).
    A violating fault is excluded from ``graded`` and recorded on the
    campaign report -- or, with ``strict=True``, aborts the run.
    ``chaos`` optionally injects worker crashes/hangs and power-word
    bit-flips (test and CI use only).

    With ``store`` set (see :mod:`repro.store`), a previously published
    grading campaign with the same netlist content, fault universe and
    Monte-Carlo knobs replays baseline and per-fault powers from the
    persistent store (bit-identical grades, no simulation); a freshly
    computed campaign is published back only when its report is free of
    integrity violations, and the crash-recovery journal is then retired.

    ``seed_results`` optionally pre-loads per-fault Monte-Carlo results
    (keyed by campaign fault key, baseline included) computed elsewhere,
    e.g. replayed from a structurally-identical baseline campaign by the
    incremental planner (see :mod:`repro.incremental`).  Journal entries
    win over seeds; seeded faults are counted as ``resumed`` and skip
    simulation bit-identically to a journal replay.
    """
    validate_netlist(system.netlist)
    if not 0 < threshold < 1:
        raise CampaignError(f"threshold must be a fraction in (0, 1), got {threshold}")
    if batch_patterns < 1 or max_batches < 1:
        raise CampaignError(
            f"batch_patterns and max_batches must be >= 1 "
            f"(got {batch_patterns}, {max_batches})"
        )
    if timeout is not None and timeout <= 0:
        raise CampaignError(f"timeout must be positive seconds or None, got {timeout}")
    records = pipeline_result.sfr_records
    sfr_keys = [fault_key(r.system_site) for r in records]
    mc_params = mc_campaign_params(seed, batch_patterns, max_batches, iterations_window)
    estimator = estimator or PowerEstimator(system.netlist)
    ceiling_uw = estimator.theoretical_max_uw()
    guard = IntegrityGuard(strict=strict)

    # Persistent-store fast path: a cached grading campaign keyed by the
    # netlist content, SFR fault universe and Monte-Carlo knobs replays the
    # baseline and every per-fault power bit-identically (floats round-trip
    # exactly through canonical JSON) without simulating a single batch.
    grading_store_key: str | None = None
    store_hit = False
    journal = None
    stage_timer: StageTimer | None = None
    if store is not None:
        grading_store_key = stage_key(
            "grading",
            netlist_fingerprint(system.netlist),
            {"design": pipeline_result.design, "faults": sfr_keys, "mc": mc_params},
        )
        cached = store.lookup("grading", grading_store_key)
        if (
            cached is not None
            and "baseline" in cached
            and set(cached.get("faults", ())) == set(sfr_keys)
        ):
            row = store.artifacts.row(grading_store_key)
            store.record(
                StageProvenance(
                    stage="grading",
                    key=grading_store_key,
                    hit=True,
                    saved_s=row.wall_s if row is not None else 0.0,
                )
            )
            base = MonteCarloResult.from_json_dict(cached["baseline"])
            mc_by_key: dict[str, MonteCarloResult] = {
                k: MonteCarloResult.from_json_dict(v)
                for k, v in cached["faults"].items()
            }
            store_hit = True
            report = RunReport(n_items=len(records))
            audited: list[FaultRecord] = []
            quarantined_keys: set[str] = set()

    if not store_hit:
        stage_timer = StageTimer().__enter__()
        journal = open_journal(
            checkpoint_dir,
            "grading",
            campaign_fingerprint("grading", pipeline_result.design, sfr_keys, mc_params),
            resume=resume,
        )
        mc_by_key = {}
        if journal is not None:
            mc_by_key = {
                k: MonteCarloResult.from_json_dict(v) for k, v in journal.done.items()
            }
        if seed_results:
            valid = set(sfr_keys) | {_BASELINE_KEY}
            for k, v in seed_results.items():
                if k in valid:
                    mc_by_key.setdefault(k, v)
        todo = [r for r in records if fault_key(r.system_site) not in mc_by_key]
        report = RunReport(n_items=len(records), resumed=len(records) - len(todo))

        audit_keys = set(select_audit(sfr_keys, audit_rate))
        if chaos is not None:
            chaos.set_flip_targets(sorted(audit_keys))
        context = None
        if todo or _BASELINE_KEY not in mc_by_key:
            context = (
                system,
                estimator,
                seed,
                batch_patterns,
                max_batches,
                iterations_window,
            )
        if _BASELINE_KEY in mc_by_key:
            base = mc_by_key[_BASELINE_KEY]
        else:
            base = _grade_worker(context, None)
            if journal is not None:
                journal.record(_BASELINE_KEY, base.to_json_dict())
    # The baseline divides every percentage, so it cannot be quarantined:
    # a bad value here aborts unconditionally, strict or not -- replayed
    # store values included (defense against a tampered-but-valid blob).
    if not (math.isfinite(base.power_uw) and 0 < base.power_uw <= ceiling_uw):
        raise IntegrityError(
            f"fault-free Monte-Carlo power {base.power_uw!r} uW is unusable "
            f"(must be finite, positive and <= the theoretical ceiling "
            f"{ceiling_uw:.6g} uW); a poisoned baseline poisons every grade"
        )
    if not store_hit and todo:
        items = _grade_chunks([r.system_site for r in todo], batch_patterns, n_jobs)

        def _journal_chunk(chunk_items, chunk_results) -> None:
            for sites, mcs in zip(chunk_items, chunk_results):
                for site, mc in zip(sites, mcs):
                    key = fault_key(site)
                    if chaos is not None:
                        mc = chaos.tamper_power(key, mc)
                    mc_by_key[key] = mc
                    if journal is not None:
                        journal.record(key, mc.to_json_dict())

        worker, run_context = _grade_chunk_worker, (*context, False)
        if chaos is not None:
            worker, run_context = chaos.wrap(worker, run_context)
        executor = ParallelExecutor(
            n_jobs, chunk_size=1, timeout=timeout, max_retries=max_retries
        )
        executor.run(worker, items, run_context, on_chunk=_journal_chunk)
        assert executor.last_report is not None
        report = executor.last_report
        report.n_items = len(records)
        report.completed = len(todo)
        report.resumed = len(records) - len(todo)

    if not store_hit:
        # Differential audit: recompute the hash-selected subset through the
        # generate-per-call Monte-Carlo path (fresh data from the same seed
        # -- bit-identical to batch replay by construction) and require
        # exact agreement with the campaign's value.  Replayed store hits
        # skip this: only audited-clean campaigns are ever published.
        quarantined_keys = set()
        audited = [r for r in records if fault_key(r.system_site) in audit_keys]
        for record in audited:
            key = fault_key(record.system_site)
            reference = monte_carlo_power(
                system,
                estimator,
                fault=record.system_site,
                seed=seed,
                batch_patterns=batch_patterns,
                max_batches=max_batches,
                iterations_window=iterations_window,
            )
            got = mc_by_key[key]
            if got.power_uw != reference.power_uw or got.batches != reference.batches:
                guard.flag(
                    IntegrityViolation(
                        check="grading-differential",
                        fault=key,
                        site=record.site.describe(system.controller.netlist),
                        detail=(
                            "batch-replay Monte-Carlo power diverges from the "
                            "generate-per-call recomputation; fault excluded "
                            "from grading"
                        ),
                        expected=format_value(reference.power_uw),
                        actual=format_value(got.power_uw),
                    )
                )
                quarantined_keys.add(key)

    graded: list[GradedFault] = []
    for record in records:
        key = fault_key(record.system_site)
        if key in quarantined_keys:
            continue
        mc = mc_by_key[key]
        assert record.classification is not None
        site_desc = record.site.describe(system.controller.netlist)
        if not check_finite_power(guard, key, mc.power_uw, site_desc):
            continue
        if not check_power_ceiling(guard, key, mc.power_uw, ceiling_uw, site_desc):
            continue
        group = "load" if record.classification.affects_load_line else "select"
        pct = 100.0 * (mc.power_uw - base.power_uw) / base.power_uw
        if adds_register_loads(record.classification) and not check_load_monotonicity(
            guard, key, pct, site_desc
        ):
            continue
        graded.append(
            GradedFault(record=record, power_uw=mc.power_uw, pct_change=pct, group=group)
        )
    guard.attach(report, audited=len(audited))
    if store is not None and not store_hit:
        assert stage_timer is not None and grading_store_key is not None
        stage_timer.__exit__(None, None, None)
        published = False
        if not report.violations:
            published = store.publish(
                "grading",
                grading_store_key,
                {
                    "baseline": base.to_json_dict(),
                    "faults": {k: mc_by_key[k].to_json_dict() for k in sfr_keys},
                },
                design=pipeline_result.design,
                meta={"faults": len(sfr_keys), "audited": len(audited)},
                wall_s=stage_timer.wall_s,
            )
            if published and journal is not None and chaos is None:
                journal.retire()
        store.record(
            StageProvenance(
                stage="grading",
                key=grading_store_key,
                hit=False,
                wall_s=stage_timer.wall_s,
                published=published,
            )
        )
    # Figure 7 ordering: select-only faults first, then load-line faults,
    # each sorted by increasing power.
    graded.sort(key=lambda g: (g.group != "select", g.power_uw))
    return GradingResult(
        design=pipeline_result.design,
        fault_free_uw=base.power_uw,
        threshold=threshold,
        graded=graded,
        campaign=report,
    )


def power_under_test_set(
    system: System,
    estimator: PowerEstimator,
    fault,
    seed: int,
    n_patterns: int = 1200,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
) -> float:
    """Average datapath power for one fixed TPGR test set (Table 3)."""
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=seed)
    data = {k: np.asarray(v) for k, v in tpgr.generate(n_patterns).items()}
    result = measure_power(
        system, estimator, data, fault=fault, iterations_window=iterations_window
    )
    return result.total_uw


@dataclass
class Table3Row:
    """One Table-3 row: a fault's power under several fixed test sets."""

    label: str
    monte_carlo_uw: float
    per_set_uw: list[float]
    monte_carlo_pct: float | None = None
    per_set_pct: list[float] | None = None


def table3_rows(
    system: System,
    estimator: PowerEstimator,
    grading: GradingResult,
    picks: list[GradedFault],
    seeds: tuple[int, ...] = (0xACE1, 0xBEEF, 0x1),
    n_patterns: int = 1200,
) -> list[Table3Row]:
    """Power under several 1200-pattern test sets; seed 0x1 is the paper's
    deliberately less-pseudorandom "almost all 0s" third set."""
    base_sets = [
        power_under_test_set(system, estimator, None, seed, n_patterns) for seed in seeds
    ]
    rows = [Table3Row("fault-free", grading.fault_free_uw, base_sets)]
    for g in picks:
        per_set = [
            power_under_test_set(system, estimator, g.record.system_site, seed, n_patterns)
            for seed in seeds
        ]
        rows.append(
            Table3Row(
                label=g.record.site.describe(system.controller.netlist),
                monte_carlo_uw=g.power_uw,
                per_set_uw=per_set,
                monte_carlo_pct=g.pct_change,
                per_set_pct=[
                    100.0 * (p - b) / b for p, b in zip(per_set, base_sets)
                ],
            )
        )
    return rows


def pick_representative(grading: GradingResult, count: int = 5) -> list[GradedFault]:
    """Table-1 style picks spanning the full range of power effects."""
    if not grading.graded:
        return []
    by_pct = sorted(grading.graded, key=lambda g: g.pct_change)
    if len(by_pct) <= count:
        return by_pct
    idx = np.linspace(0, len(by_pct) - 1, count).round().astype(int)
    return [by_pct[i] for i in dict.fromkeys(idx)]
