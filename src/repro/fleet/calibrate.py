"""End-to-end fleet calibration: activity -> grading -> population ROC.

One call ties the three layers together and enforces the identity the
whole construction rests on: the scalar powers the grading path reports
must be *bit-identical* to the powers recovered from the activity
campaign's integer counters (they are the same simulations -- grading is
seeded from the campaign and replays, never re-simulates).  The
population matmul then prices the fleet off those same counters, so at
zero sigma its verdicts reproduce the scalar grading verdicts.

Fleet results are store artifacts of their own (stage ``"fleet"``),
keyed by the activity campaign's identity plus the fleet configuration:
a warm ``repro-faults calibrate`` run -- even at a million instances --
touches no simulator at all, and a warm *repeat* of the same
configuration skips even the matmul.
"""

from __future__ import annotations

from ..core.checkpoint import fault_key
from ..core.errors import IntegrityError
from ..core.grading import GradingResult, grade_sfr_faults
from ..core.integrity import DEFAULT_AUDIT_RATE
from ..core.pipeline import PipelineResult
from ..core.report import RESULT_SCHEMA_VERSION
from ..hls.system import System
from ..power.estimator import PowerEstimator
from ..power.montecarlo import (
    DATAPATH_TAG,
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_SEED,
    mc_campaign_params,
)
from ..store.cache import CampaignStore, StageProvenance, StageTimer
from ..store.fingerprint import netlist_fingerprint, stage_key
from .activity import ActivityCampaign, activity_campaign, recovered_power_uw
from .population import FleetConfig, FleetResult, activity_matrix, run_population


def fleet_store_key(
    system: System,
    pipeline_result: PipelineResult,
    mc_params: dict,
    config: FleetConfig,
) -> str:
    """Content-addressed key of one fleet ROC artifact."""
    sfr_keys = [fault_key(r.system_site) for r in pipeline_result.sfr_records]
    return stage_key(
        "fleet",
        netlist_fingerprint(system.netlist),
        {
            "design": pipeline_result.design,
            "faults": sfr_keys,
            "mc": mc_params,
            "fleet": config.params_dict(),
        },
    )


def _check_bit_identity(
    estimator: PowerEstimator,
    campaign: ActivityCampaign,
    grading: GradingResult,
) -> None:
    """Grading powers and activity-recovered powers must agree exactly.

    This is the sigma=0 anchor of the whole fleet model: the integer
    counters are the measurement, the scalar grade is a pure function of
    them.  Any divergence -- a tampered artifact, a seeding bug, a
    drifted float pipeline -- invalidates every ROC point, so it aborts.
    """
    assert campaign.baseline.activity is not None
    recovered = recovered_power_uw(estimator, campaign.baseline.activity)
    if recovered != grading.fault_free_uw:
        raise IntegrityError(
            f"activity baseline recovers {recovered!r} uW but grading "
            f"reports {grading.fault_free_uw!r} uW; the campaigns diverged"
        )
    for g in grading.graded:
        key = fault_key(g.record.system_site)
        mc = campaign.by_key.get(key)
        if mc is None:
            raise IntegrityError(
                f"graded fault {key!r} is missing from the activity campaign"
            )
        assert mc.activity is not None
        recovered = recovered_power_uw(estimator, mc.activity)
        if recovered != g.power_uw:
            raise IntegrityError(
                f"activity counters of {key!r} recover {recovered!r} uW but "
                f"grading reports {g.power_uw!r} uW; the campaigns diverged"
            )


def calibrate_fleet(
    system: System,
    pipeline_result: PipelineResult,
    config: FleetConfig,
    threshold: float = 0.05,
    estimator: PowerEstimator | None = None,
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
    store: CampaignStore | None = None,
) -> tuple[FleetResult, ActivityCampaign, GradingResult]:
    """Calibrate one design's fleet threshold; returns (fleet, activity, grading).

    Runs (or replays from ``store``) the activity campaign, feeds its
    results into the scalar grading path as seeds (zero re-simulation),
    cross-checks the two bit-identically, then runs (or replays) the
    population kernel.  ``threshold`` only parameterises the embedded
    scalar grading report; the fleet sweeps ``config.thresholds``.
    """
    config.validate()
    estimator = estimator or PowerEstimator(system.netlist)
    campaign = activity_campaign(
        system,
        pipeline_result,
        estimator=estimator,
        seed=seed,
        batch_patterns=batch_patterns,
        max_batches=max_batches,
        iterations_window=iterations_window,
        n_jobs=n_jobs,
        timeout=timeout,
        max_retries=max_retries,
        store=store,
    )
    grading = grade_sfr_faults(
        system,
        pipeline_result,
        estimator=estimator,
        threshold=threshold,
        seed=seed,
        batch_patterns=batch_patterns,
        max_batches=max_batches,
        iterations_window=iterations_window,
        n_jobs=n_jobs,
        timeout=timeout,
        max_retries=max_retries,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        audit_rate=audit_rate,
        strict=strict,
        store=store,
        seed_results=campaign.grading_seed_results(),
    )
    _check_bit_identity(estimator, campaign, grading)

    mc_params = mc_campaign_params(seed, batch_patterns, max_batches, iterations_window)
    key: str | None = None
    if store is not None:
        key = fleet_store_key(system, pipeline_result, mc_params, config)
        cached = store.lookup("fleet", key)
        if cached is not None and cached.get("params") == config.params_dict():
            row = store.artifacts.row(key)
            store.record(
                StageProvenance(
                    stage="fleet",
                    key=key,
                    hit=True,
                    saved_s=row.wall_s if row is not None else 0.0,
                )
            )
            return FleetResult.from_json_dict(cached), campaign, grading

    stage_timer = StageTimer().__enter__()
    decomp = estimator.cap_decomposition(tag_prefix=DATAPATH_TAG)
    A = activity_matrix(campaign, estimator)
    result = run_population(
        estimator,
        decomp,
        A,
        campaign.fault_keys,
        config,
        p_ref_uw=grading.fault_free_uw,
        design=pipeline_result.design,
    )
    if store is not None and key is not None:
        stage_timer.__exit__(None, None, None)
        published = store.publish(
            "fleet",
            key,
            result.to_json_dict(),
            design=pipeline_result.design,
            meta={"instances": config.instances, "faults": len(campaign.fault_keys)},
            wall_s=stage_timer.wall_s,
        )
        store.record(
            StageProvenance(
                stage="fleet",
                key=key,
                hit=False,
                wall_s=stage_timer.wall_s,
                published=published,
            )
        )
    return result, campaign, grading


def calibrate_report_dict(result: FleetResult) -> dict:
    """Deterministic JSON body of one calibrate run (no timings)."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "command": "calibrate",
        "design": result.design,
        "fleet": result.to_json_dict(),
        "roc": result.roc(),
    }
