"""Activity campaigns: the per-fault integer counters behind every grade.

The fleet kernel rests on one structural fact (see ``docs/theory.md``):
switching activity is *instance-independent*.  Which nets toggle, and how
often, is decided by the netlist and the stimulus -- never by the
manufacturing spread of one chip's capacitances.  So a single Monte-Carlo
campaign per fault yields an activity vector that prices power for every
instance of the fleet via :meth:`repro.power.estimator.PowerEstimator.
power_from_counts`'s linearity.

This module runs that campaign: the PR-6 block-parallel grading kernel
with ``capture_activity=True``, so each converged
:class:`~repro.power.montecarlo.MonteCarloResult` carries its per-batch
integer :class:`~repro.power.montecarlo.ActivityTrace`.  Campaigns are
persisted as their own content-addressed store artifact (stage
``"activity"``) keyed by the same netlist fingerprint / fault universe /
Monte-Carlo knobs as a grading campaign, so a warm calibration replays
every counter with zero re-simulation -- and, through
:func:`grading_seed_results`, seeds the scalar grading path
bit-identically (the scalar power is *recomputed from the counters*, not
stored alongside them, by :func:`recovered_power_uw`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.checkpoint import fault_key
from ..core.errors import CampaignError, IntegrityError, validate_netlist
from ..core.grading import _BASELINE_KEY, _grade_chunk_worker, _grade_chunks
from ..core.parallel import ParallelExecutor, RunReport
from ..core.pipeline import PipelineResult
from ..hls.system import System
from ..power.estimator import PowerEstimator
from ..power.montecarlo import (
    DATAPATH_TAG,
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_SEED,
    ActivityTrace,
    MonteCarloResult,
    mc_campaign_params,
    monte_carlo_power,
    monte_carlo_power_block,  # noqa: F401 -- perfbench/tracing.py patches it here
    shared_batches,
)
from ..store.cache import CampaignStore, StageProvenance, StageTimer
from ..store.fingerprint import netlist_fingerprint, stage_key


def recovered_power_uw(
    estimator: PowerEstimator,
    trace: ActivityTrace,
    tag_prefix: str | None = DATAPATH_TAG,
) -> float:
    """Scalar Monte-Carlo power recomputed from stored integer counters.

    Replays :meth:`~repro.power.estimator.PowerEstimator.power_from_counts`
    per batch and averages -- the very same float operands in the very
    same order as the original campaign, so the result is *bit-identical*
    to the ``power_uw`` the simulation reported (the per-batch integers
    are the sufficient statistic; every downstream float is a pure
    function of them).
    """
    totals = []
    for b in range(trace.batches):
        estimator._check_counters(
            trace.toggles[b], trace.load_events[b], trace.cycles, trace.patterns
        )
        totals.append(
            estimator.power_from_counts(
                trace.toggles[b],
                trace.load_events[b],
                trace.cycles,
                trace.patterns,
                tag_prefix,
            ).total_uw
        )
    return float(np.mean(totals))


@dataclass
class ActivityCampaign:
    """One design's converged per-fault activity matrices.

    ``baseline`` and every entry of ``by_key`` carry a non-``None``
    ``activity`` trace; ``by_key`` is keyed by campaign fault key in SFR
    record order.
    """

    design: str
    baseline: MonteCarloResult
    by_key: dict[str, MonteCarloResult]
    key: str | None = None
    campaign: RunReport | None = None
    store_hit: bool = False
    fault_keys: list[str] = field(default_factory=list)

    def grading_seed_results(self) -> dict[str, MonteCarloResult]:
        """Seed dict for ``grade_sfr_faults(seed_results=...)``.

        Grading then replays every power from this campaign (counted as
        ``resumed``) instead of re-simulating -- bit-identically, because
        the capture path ran the exact same simulations.
        """
        seeds = dict(self.by_key)
        seeds[_BASELINE_KEY] = self.baseline
        return seeds


def _result_payload(mc: MonteCarloResult) -> dict:
    assert mc.activity is not None
    return {"mc": mc.to_json_dict(), "activity": mc.activity.to_json_dict()}


def _result_from_payload(data: dict) -> MonteCarloResult:
    mc = MonteCarloResult.from_json_dict(data["mc"])
    mc.activity = ActivityTrace.from_json_dict(data["activity"])
    return mc


def _verify_result(
    estimator: PowerEstimator, key: str, mc: MonteCarloResult
) -> None:
    """One result's counters must reproduce its scalar power exactly.

    Runs on every freshly captured result (a disagreement means the
    capture path diverged from the float pipeline -- a bug) and on every
    store replay (a disagreement means a tampered-but-well-formed blob).
    """
    if mc.activity is None:
        raise IntegrityError(f"activity campaign result {key!r} carries no trace")
    trace = mc.activity
    n_nets = estimator.netlist.num_nets
    n_dffe = len(estimator.dffe_gates)
    if trace.toggles.shape != (mc.batches, n_nets) or trace.load_events.shape != (
        mc.batches,
        n_dffe,
    ):
        raise IntegrityError(
            f"activity trace of {key!r} has shape "
            f"{trace.toggles.shape}/{trace.load_events.shape}; expected "
            f"({mc.batches}, {n_nets}) / ({mc.batches}, {n_dffe})"
        )
    recovered = recovered_power_uw(estimator, trace)
    if recovered != mc.power_uw:
        raise IntegrityError(
            f"activity counters of {key!r} recover {recovered!r} uW but the "
            f"campaign recorded {mc.power_uw!r} uW; the integer trace and "
            f"the scalar grade must be the same measurement"
        )


def activity_store_key(system: System, pipeline_result: PipelineResult, mc_params: dict) -> str:
    """Content-addressed key of one design's activity campaign artifact."""
    sfr_keys = [fault_key(r.system_site) for r in pipeline_result.sfr_records]
    return stage_key(
        "activity",
        netlist_fingerprint(system.netlist),
        {"design": pipeline_result.design, "faults": sfr_keys, "mc": mc_params},
    )


def activity_campaign(
    system: System,
    pipeline_result: PipelineResult,
    estimator: PowerEstimator | None = None,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    n_jobs: int = 1,
    timeout: float | None = None,
    max_retries: int = 2,
    store: CampaignStore | None = None,
) -> ActivityCampaign:
    """Converged activity matrices for the fault-free machine + every SFR fault.

    With ``store`` set, a previously published campaign with the same
    netlist content, fault universe and Monte-Carlo knobs replays every
    integer counter from the store with zero simulation (the replay is
    verified: counters must recover the recorded scalar power exactly).
    A fresh campaign fans the fault chunks out across ``n_jobs``
    processes through the PR-6 block kernel and publishes on success.
    """
    validate_netlist(system.netlist)
    if batch_patterns < 1 or max_batches < 1:
        raise CampaignError(
            f"batch_patterns and max_batches must be >= 1 "
            f"(got {batch_patterns}, {max_batches})"
        )
    records = pipeline_result.sfr_records
    sfr_keys = [fault_key(r.system_site) for r in records]
    mc_params = mc_campaign_params(seed, batch_patterns, max_batches, iterations_window)
    estimator = estimator or PowerEstimator(system.netlist)

    key: str | None = None
    if store is not None:
        key = activity_store_key(system, pipeline_result, mc_params)
        cached = store.lookup("activity", key)
        if (
            cached is not None
            and "baseline" in cached
            and set(cached.get("faults", ())) == set(sfr_keys)
        ):
            base = _result_from_payload(cached["baseline"])
            by_key = {k: _result_from_payload(cached["faults"][k]) for k in sfr_keys}
            _verify_result(estimator, _BASELINE_KEY, base)
            for k, mc in by_key.items():
                _verify_result(estimator, k, mc)
            row = store.artifacts.row(key)
            store.record(
                StageProvenance(
                    stage="activity",
                    key=key,
                    hit=True,
                    saved_s=row.wall_s if row is not None else 0.0,
                )
            )
            return ActivityCampaign(
                design=pipeline_result.design,
                baseline=base,
                by_key=by_key,
                key=key,
                campaign=RunReport(n_items=len(records), resumed=len(records)),
                store_hit=True,
                fault_keys=sfr_keys,
            )

    stage_timer = StageTimer().__enter__()
    batches = shared_batches(
        system,
        seed=seed,
        batch_patterns=batch_patterns,
        max_batches=max_batches,
        iterations_window=iterations_window,
    )
    base = monte_carlo_power(
        system,
        estimator,
        fault=None,
        max_batches=max_batches,
        iterations_window=iterations_window,
        batches=batches,
        capture_activity=True,
    )
    _verify_result(estimator, _BASELINE_KEY, base)

    by_key = {}
    sites = [r.system_site for r in records]
    report = RunReport(n_items=len(records))
    if sites:
        # The grading campaign's chunks and worker, with capture on.
        items = _grade_chunks(sites, batch_patterns, n_jobs)
        context = (
            system,
            estimator,
            seed,
            batch_patterns,
            max_batches,
            iterations_window,
            True,
        )

        def _collect(chunk_items, chunk_results) -> None:
            for chunk, mcs in zip(chunk_items, chunk_results):
                for site, mc in zip(chunk, mcs):
                    k = fault_key(site)
                    _verify_result(estimator, k, mc)
                    by_key[k] = mc

        executor = ParallelExecutor(
            n_jobs, chunk_size=1, timeout=timeout, max_retries=max_retries
        )
        executor.run(_grade_chunk_worker, items, context, on_chunk=_collect)
        assert executor.last_report is not None
        report = executor.last_report
        report.n_items = len(records)
        report.completed = len(records)
    by_key = {k: by_key[k] for k in sfr_keys}

    if store is not None and key is not None:
        stage_timer.__exit__(None, None, None)
        published = store.publish(
            "activity",
            key,
            {
                "baseline": _result_payload(base),
                "faults": {k: _result_payload(by_key[k]) for k in sfr_keys},
            },
            design=pipeline_result.design,
            meta={"faults": len(sfr_keys)},
            wall_s=stage_timer.wall_s,
        )
        store.record(
            StageProvenance(
                stage="activity",
                key=key,
                hit=False,
                wall_s=stage_timer.wall_s,
                published=published,
            )
        )

    return ActivityCampaign(
        design=pipeline_result.design,
        baseline=base,
        by_key=by_key,
        key=key,
        campaign=report,
        store_hit=False,
        fault_keys=sfr_keys,
    )
