"""The paper's Section-5 methodology, end to end.

Given an integrated controller-datapath system:

1. **Fault simulate** the entire system under TPGR pseudorandom data,
   sampling the data outputs whenever the fault-free machine is in HOLD.
   Faults definitely detected are SFI and leave consideration.
2. **Practical cleanup**: faults only *potentially* detected (the faulty
   machine drove X where a value was expected -- GENTEST's limitation with
   never-loaded registers) are, as the paper argues, detected on real
   silicon where the register holds some boot value; they are marked
   practically-SFI.
3. **CFR screen**: remaining faults are injected into the standalone
   controller and simulated through normal-mode scenarios; faults with no
   control line effect are controller-functionally redundant.
4. **SFR analysis**: the rest are classified by the symbolic RT-level
   oracle (with Section-3 taxonomy labels); equivalent faults are SFR,
   the rest are SFI that escaped the random test set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hls.system import NormalModeStimulus, System, hold_masks
from ..logic.faults import FaultSite, collapse_faults, enumerate_faults
from ..logic.faultsim import FaultSimResult, Verdict, fault_simulate
from ..store.cache import CampaignStore, StageProvenance, StageTimer, clean_campaign
from ..store.fingerprint import netlist_fingerprint, stage_key
from ..tpg.tpgr import TPGR
from .checkpoint import campaign_fingerprint, fault_key, open_journal
from .classify import Classifier, FaultClassification
from .errors import validate_config, validate_netlist, validate_stimulus
from .integrity import DEFAULT_AUDIT_RATE, IntegrityGuard, check_sfr_is_cfi
from .parallel import RunReport


@dataclass
class PipelineConfig:
    """Tunables for the Section-5 pipeline."""

    n_patterns: int = 256
    tpgr_seed: int = 0xACE1
    iterations_window: int = 4
    hold_cycles: int = 3
    iteration_counts: tuple[int, ...] = (1, 2, 3)
    #: worker processes for the per-fault simulation loop (1 = serial,
    #: negative = one per core); results are identical for any value.
    n_jobs: int = 1
    #: directory for crash-safe campaign journals (None disables
    #: checkpointing); see :mod:`repro.core.checkpoint`.
    checkpoint_dir: str | None = None
    #: resume a previously interrupted campaign from its journal instead
    #: of starting fresh -- results are bit-identical either way.
    resume: bool = False
    #: per-chunk seconds before a hung worker is killed and retried
    #: (None waits forever); only meaningful with ``n_jobs > 1``.
    timeout: float | None = None
    #: extra attempts granted to a failed/timed-out chunk of work.
    max_retries: int = 2
    #: fraction of faults re-simulated on an independent path after the
    #: campaign (see :mod:`repro.core.integrity`); 0 disables the audit.
    audit_rate: float = DEFAULT_AUDIT_RATE
    #: abort on the first integrity violation instead of quarantining the
    #: offending fault and continuing.
    strict: bool = False
    #: chaos-injection spec (test/CI only), e.g.
    #: ``"crash:0.15,hang:0.1,bitflip:1,seed:7"``; None disables it.
    chaos: str | None = None

    def fingerprint_params(self) -> dict:
        """The result-relevant knobs that key a campaign checkpoint.

        Audit, strict and chaos knobs are deliberately absent:
        none of them changes the results of a clean campaign, so toggling
        them must not orphan an existing journal (or miss a warm store
        entry).
        """
        return {
            "n_patterns": self.n_patterns,
            "tpgr_seed": self.tpgr_seed,
            "iterations_window": self.iterations_window,
            "hold_cycles": self.hold_cycles,
            "iteration_counts": list(self.iteration_counts),
        }


@dataclass
class FaultRecord:
    """Journey of one collapsed controller fault through the pipeline."""

    site: FaultSite
    system_site: FaultSite
    simulation: Verdict
    classification: FaultClassification | None = None
    #: set when an integrity check rejected this fault's result; a
    #: quarantined record is excluded from downstream grading.
    quarantined: bool = False

    @property
    def category(self) -> str:
        """Final bucket: 'SFI-detected', 'SFI-practical', 'CFR', 'SFR',
        or 'SFI-escaped'."""
        if self.simulation is Verdict.DETECTED:
            return "SFI-detected"
        if self.simulation is Verdict.POTENTIAL:
            return "SFI-practical"
        assert self.classification is not None
        if self.classification.category == "CFR":
            return "CFR"
        if self.classification.category == "SFR":
            return "SFR"
        return "SFI-escaped"


@dataclass
class PipelineResult:
    """Everything Table 2 (and the grading stage) needs."""

    design: str
    records: list[FaultRecord] = field(default_factory=list)
    #: resilience summary of the fault-simulation fan-out
    campaign: RunReport | None = None
    #: incremental-recompute plan summary when a ``baseline`` replayed
    #: part of the campaign (see :mod:`repro.incremental`); None for
    #: cold and plain warm-cache runs
    incremental: dict | None = None
    #: the live :class:`~repro.incremental.replay.IncrementalPlan` behind
    #: ``incremental`` -- the grading layer uses its alignment maps to
    #: transfer baseline powers across pure renames; never serialized
    incremental_plan: object | None = field(default=None, repr=False)

    def by_category(self, category: str) -> list[FaultRecord]:
        return [r for r in self.records if r.category == category]

    @property
    def total_faults(self) -> int:
        return len(self.records)

    @property
    def sfr_records(self) -> list[FaultRecord]:
        return [r for r in self.by_category("SFR") if not r.quarantined]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.category] = out.get(r.category, 0) + 1
        return out

    def table2_row(self) -> dict:
        """The paper's Table 2 row: total faults, SFR faults, % SFR."""
        sfr = len(self.sfr_records)
        total = self.total_faults
        return {
            "design": self.design,
            "total_faults": total,
            "sfr_faults": sfr,
            "pct_sfr": 100.0 * sfr / total if total else 0.0,
        }


def controller_fault_universe(system: System) -> list[FaultSite]:
    """Collapsed stuck-at faults within the controller (standalone ids)."""
    ctrl_netlist = system.controller.netlist
    sites = enumerate_faults(ctrl_netlist)
    reps, _ = collapse_faults(ctrl_netlist, sites)
    return reps


def run_pipeline(
    system: System,
    config: PipelineConfig | None = None,
    store: CampaignStore | None = None,
    baseline=None,
) -> PipelineResult:
    """Execute the full Section-5 flow on ``system``.

    With ``config.checkpoint_dir`` set, per-fault verdicts are journaled
    as they complete; a killed campaign rerun with ``config.resume`` skips
    the journaled faults and produces bit-identical results.

    With ``store`` set (see :mod:`repro.store`), the fault-simulation
    stage consults the persistent content-addressed store first: a cached
    campaign keyed by the netlist content, stimulus plan, config knobs
    and code schema replays bit-identically without simulating, and a
    freshly computed clean campaign is published back for future runs.

    ``baseline`` (with ``store``) additionally enables *fault-granular*
    reuse when the whole-stage key misses: a :class:`~repro.netlist.netlist.Netlist`,
    a published fingerprint, a netlist-payload path, or ``"auto"`` (see
    :func:`~repro.incremental.replay.resolve_baseline`) names an earlier
    design version; the planner diffs the two netlists, replays every
    fault the edit provably cannot affect from per-fault store entries,
    re-simulates only the dirty remainder and merges -- byte-identical
    to a cold run of the edited design (``result.incremental`` reports
    the partition).
    """
    config = config or PipelineConfig()
    validate_config(config)
    validate_netlist(system.netlist)
    universe = controller_fault_universe(system)

    # Step 1: integrated fault simulation under TPGR data.
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=config.tpgr_seed)
    data = {k: np.asarray(v) for k, v in tpgr.generate(config.n_patterns).items()}
    n_cycles = system.cycles_for(config.iterations_window, config.hold_cycles)
    stimulus = NormalModeStimulus(system, data, n_cycles)
    validate_stimulus(stimulus)
    masks = hold_masks(system, stimulus)
    observe = [net for bus in system.output_buses.values() for net in bus]
    system_sites = [system.to_system_fault(s) for s in universe]
    journal = open_journal(
        config.checkpoint_dir,
        "faultsim",
        campaign_fingerprint(
            "faultsim",
            system.rtl.name,
            [fault_key(s) for s in system_sites],
            config.fingerprint_params(),
        ),
        resume=config.resume,
    )
    chaos_engine = None
    if config.chaos:
        # Deferred: the chaos harness lives in the test-support package and
        # only loads when injection is actually requested.
        from ..testing.chaos import ChaosEngine

        chaos_engine = ChaosEngine.from_spec(config.chaos)
    faultsim_store_key = None
    if store is not None:
        faultsim_store_key = stage_key(
            "faultsim",
            netlist_fingerprint(system.netlist),
            {
                "design": system.rtl.name,
                "faults": [fault_key(s) for s in system_sites],
                "observe": observe,
                "stimulus": {
                    "kind": "tpgr-normal-mode",
                    "n_patterns": config.n_patterns,
                    "n_cycles": n_cycles,
                    "tpgr_seed": config.tpgr_seed,
                },
                "pipeline": config.fingerprint_params(),
            },
        )
    # Incremental planning: only worth attempting when the whole-stage
    # blob misses (a plain warm hit is strictly cheaper) and a baseline
    # resolves.  ``store.refresh`` naturally disables it -- the planner's
    # metadata lookup misses too, so refreshed runs stay honestly cold.
    plan = None
    if store is not None and baseline is not None:
        from ..incremental.replay import plan_recompute, resolve_baseline

        base_netlist = resolve_baseline(
            store,
            baseline,
            design=system.rtl.name,
            exclude_fp=netlist_fingerprint(system.netlist),
        )
        if (
            base_netlist is not None
            and store.lookup("faultsim", faultsim_store_key) is None
        ):
            plan = plan_recompute(
                store,
                base_netlist,
                system,
                config,
                universe,
                system_sites,
                stimulus,
                observe,
                masks,
            )
            if plan is not None and not plan.reusable:
                plan = None  # nothing replays; run the ordinary cold path

    if plan is not None:
        stage_timer = StageTimer().__enter__()
        dirty_result = fault_simulate(
            system.netlist,
            plan.dirty,
            stimulus,
            observe=observe,
            valid_masks=masks,
            n_jobs=config.n_jobs,
            timeout=config.timeout,
            max_retries=config.max_retries,
            checkpoint=journal,
            audit_rate=config.audit_rate,
            strict=config.strict,
            chaos=chaos_engine,
        )
        # Merge: replayed entries and freshly simulated verdicts, in
        # universe order, indistinguishable from a cold full campaign.
        report = dirty_result.campaign or RunReport()
        report.n_items = len(system_sites)
        report.replayed = len(plan.reusable)
        sim_result = FaultSimResult(
            verdicts={}, campaign=report, cone=dirty_result.cone
        )
        for site in system_sites:
            entry = plan.reusable.get(site)
            if entry is not None:
                sim_result.verdicts[site] = entry.verdict
                if entry.verdict is Verdict.DETECTED:
                    sim_result.detect_cycle[site] = entry.detect_cycle
            else:
                sim_result.verdicts[site] = dirty_result.verdicts[site]
                if site in dirty_result.detect_cycle:
                    sim_result.detect_cycle[site] = dirty_result.detect_cycle[site]
        stage_timer.__exit__(None, None, None)
        store.record(
            StageProvenance(
                stage="faultsim-incremental",
                key=faultsim_store_key,
                hit=True,
                wall_s=stage_timer.wall_s,
                saved_s=max(0.0, plan.baseline_wall_s - stage_timer.wall_s),
            )
        )
        # The merged campaign graduates into the ordinary stage blob, so
        # plain warm reruns of the edited design hit without a planner.
        if clean_campaign(report):
            published = store.publish(
                "faultsim",
                faultsim_store_key,
                {
                    "verdicts": {
                        fault_key(s): [
                            sim_result.verdicts[s].value,
                            sim_result.detect_cycle.get(s, -1),
                        ]
                        for s in system_sites
                    }
                },
                design=system.netlist.name,
                meta={
                    "faults": len(system_sites),
                    "patterns": stimulus.n_patterns,
                },
                wall_s=stage_timer.wall_s,
            )
            if published and journal is not None and chaos_engine is None:
                journal.retire()
    else:
        sim_result = fault_simulate(
            system.netlist,
            system_sites,
            stimulus,
            observe=observe,
            valid_masks=masks,
            n_jobs=config.n_jobs,
            timeout=config.timeout,
            max_retries=config.max_retries,
            checkpoint=journal,
            audit_rate=config.audit_rate,
            strict=config.strict,
            chaos=chaos_engine,
            store=store,
            store_key=faultsim_store_key,
        )
    if chaos_engine is not None and chaos_engine.spec.corrupt and journal is not None:
        chaos_engine.corrupt_journal(journal.path)

    # Steps 2-4.
    # The classifier picks its own (longer, adaptive) HOLD window -- it must
    # outlast any post-completion divergence of a faulty controller;
    # ``config.hold_cycles`` only shapes the fault-simulation stimulus.
    classifier = Classifier(
        system.rtl,
        system.controller,
        iteration_counts=config.iteration_counts,
    )
    result = PipelineResult(design=system.rtl.name, campaign=sim_result.campaign)
    guard = IntegrityGuard(strict=config.strict)
    ctx_digest = traces_digest = ctrl_fp = None
    if plan is not None:
        from ..incremental.faultkeys import (
            classifier_context_digest,
            golden_trace_digest,
        )

        ctx_digest = classifier_context_digest(
            system.rtl, config.iteration_counts, classifier.hold_cycles
        )
        traces_digest = golden_trace_digest(classifier)
        ctrl_fp = netlist_fingerprint(system.controller.netlist)
        result.incremental = plan.summary()
        result.incremental_plan = plan
    for site, sys_site in zip(universe, system_sites):
        verdict = sim_result.verdicts[sys_site]
        record = FaultRecord(site=site, system_site=sys_site, simulation=verdict)
        if verdict is Verdict.UNDETECTED:
            record.classification = None
            if plan is not None:
                entry = plan.reusable.get(sys_site)
                if entry is not None and plan.classification_ok(
                    entry, ctx_digest, traces_digest, ctrl_fp
                ):
                    from ..incremental.replay import classification_from_json

                    record.classification = classification_from_json(
                        entry.classification, site
                    )
            if record.classification is None:
                record.classification = classifier.classify(site)
            if record.classification.category == "SFR" and not check_sfr_is_cfi(
                guard, fault_key(sys_site), record
            ):
                record.quarantined = True
        result.records.append(record)
    guard.attach(result.campaign)

    # Publish per-fault entries for this design so it can serve as a
    # future baseline.  Skipped when the stage replayed from its own
    # whole-campaign blob (entries already exist from the original cold
    # run) and for dirty campaigns (quarantined results must never be
    # served warm, fault-granularly or otherwise).
    if store is not None:
        stage_was_hit = any(
            p.stage == "faultsim" and p.key == faultsim_store_key and p.hit
            for p in store.provenance
        )
        if not stage_was_hit and clean_campaign(result.campaign):
            from ..incremental.replay import publish_incremental

            computed_wall = next(
                (
                    p.wall_s
                    for p in store.provenance
                    if p.stage == "faultsim" and p.key == faultsim_store_key
                ),
                plan.baseline_wall_s if plan is not None else 0.0,
            )
            publish_incremental(
                store,
                system,
                config,
                stimulus,
                observe,
                masks,
                result,
                sim_result.detect_cycle,
                classifier,
                faultsim_wall_s=computed_wall,
            )
    return result
