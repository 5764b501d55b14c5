"""Serial-vs-parallel scaling of the fault-parallel engine.

Times the two fan-out stages of the pipeline -- fault simulation and
Monte-Carlo power grading -- at increasing ``n_jobs``, times the grading
block kernel against its serial reference (a loop of
``monte_carlo_power`` per fault, the grading audit's reference path),
verifies the results stay bit-identical, and records the wall-clock
table in ``benchmarks/results/parallel.txt``.  Rows with more jobs than
host cores are marked ``oversubscribed``: they only show process
overhead, and the bit-identity assertions are the point there.
"""

import os
import time

import numpy as np

from repro.core.checkpoint import fault_key
from repro.core.grading import grade_sfr_faults
from repro.core.pipeline import controller_fault_universe
from repro.hls.system import NormalModeStimulus, hold_masks
from repro.logic.faultsim import fault_simulate
from repro.power.estimator import PowerEstimator
from repro.power.montecarlo import monte_carlo_power
from repro.store.cache import CampaignStore
from repro.store.fingerprint import netlist_fingerprint, stage_key
from repro.tpg.tpgr import TPGR

from _config import MC_BATCH, MC_MAX_BATCHES, PATTERNS

JOB_COUNTS = (1, 2, 4)


def _fault_sim_once(system, n_jobs, store=None):
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=0xACE1)
    data = {k: np.asarray(v) for k, v in tpgr.generate(PATTERNS).items()}
    stim = NormalModeStimulus(system, data, system.cycles_for(4))
    masks = hold_masks(system, stim)
    observe = [n for bus in system.output_buses.values() for n in bus]
    faults = [system.to_system_fault(s) for s in controller_fault_universe(system)]
    store_key = None
    if store is not None:
        store_key = stage_key(
            "faultsim",
            netlist_fingerprint(system.netlist),
            {"bench": "parallel", "patterns": PATTERNS},
        )
    t0 = time.perf_counter()
    result = fault_simulate(
        system.netlist,
        faults,
        stim,
        observe=observe,
        valid_masks=masks,
        n_jobs=n_jobs,
        store=store,
        store_key=store_key,
    )
    return time.perf_counter() - t0, result


def _grades(grading):
    return [(g.power_uw, g.pct_change, g.group) for g in grading.graded]


def test_parallel_scaling(systems, pipelines, save_result, save_json, tmp_path):
    system = systems["diffeq"]
    host_cores = os.cpu_count()
    lines = [
        "parallel scaling (diffeq)",
        f"host cores: {host_cores}",
        "",
        f"{'stage':<16}{'n_jobs':>8}{'wall s':>10}{'speedup':>10}",
    ]

    metrics = {"bench": "parallel", "design": "diffeq", "host_cores": host_cores,
               "patterns": PATTERNS, "stages": []}

    def stage_row(stage, n_jobs, elapsed, base_time, n_faults):
        over = n_jobs > host_cores
        lines.append(
            f"{stage:<16}{n_jobs:>8}{elapsed:>10.2f}{base_time / elapsed:>10.2f}"
            + ("  (oversubscribed)" if over else "")
        )
        metrics["stages"].append(
            {
                "stage": stage,
                "n_jobs": n_jobs,
                "wall_s": elapsed,
                "faults_per_s": n_faults / elapsed,
                "oversubscribed": over,
            }
        )

    base_time, base_result = None, None
    for n_jobs in JOB_COUNTS:
        elapsed, result = _fault_sim_once(system, n_jobs)
        if base_result is None:
            base_time, base_result = elapsed, result
        assert result.verdicts == base_result.verdicts
        assert result.detect_cycle == base_result.detect_cycle
        stage_row("fault_sim", n_jobs, elapsed, base_time, len(result.verdicts))

    sfr_records = pipelines["diffeq"].sfr_records
    base_time, base_grading = None, None
    for n_jobs in JOB_COUNTS:
        t0 = time.perf_counter()
        grading = grade_sfr_faults(
            system,
            pipelines["diffeq"],
            batch_patterns=MC_BATCH,
            max_batches=MC_MAX_BATCHES,
            n_jobs=n_jobs,
        )
        elapsed = time.perf_counter() - t0
        if base_grading is None:
            base_time, base_grading = elapsed, grading
        assert grading.fault_free_uw == base_grading.fault_free_uw
        assert _grades(grading) == _grades(base_grading)
        stage_row("grading", n_jobs, elapsed, base_time, len(sfr_records))

    # Grading kernel vs its serial reference: the block campaign (audits
    # off) against a loop of monte_carlo_power per fault, bit-identical
    # by contract.
    n_sfr = len(sfr_records)
    mc_kwargs = dict(batch_patterns=MC_BATCH, max_batches=MC_MAX_BATCHES)
    t0 = time.perf_counter()
    block = grade_sfr_faults(system, pipelines["diffeq"], audit_rate=0.0, **mc_kwargs)
    block_s = time.perf_counter() - t0
    assert _grades(block) == _grades(base_grading)
    estimator = PowerEstimator(system.netlist)
    t0 = time.perf_counter()
    serial = {
        fault_key(r.system_site): monte_carlo_power(
            system, estimator, fault=r.system_site, **mc_kwargs
        ).power_uw
        for r in sfr_records
    }
    serial_s = time.perf_counter() - t0
    assert all(
        g.power_uw == serial[fault_key(g.record.system_site)] for g in block.graded
    )
    kernel_rows = {
        "serial": {"wall_s": serial_s, "faults_per_s": n_sfr / serial_s},
        "block": {"wall_s": block_s, "faults_per_s": n_sfr / block_s},
    }

    fault_sim_fps = next(
        s["faults_per_s"]
        for s in metrics["stages"]
        if s["stage"] == "fault_sim" and s["n_jobs"] == 1
    )
    ratio = fault_sim_fps / kernel_rows["block"]["faults_per_s"]
    metrics["grading_kernel"] = {
        **{f"{k}_{f}": v[f] for k, v in kernel_rows.items() for f in v},
        "speedup": serial_s / block_s,
        "fault_sim_faults_per_s": fault_sim_fps,
        "fault_sim_to_grading_ratio": ratio,
    }
    lines += [
        "",
        "grading kernel (audits off, bit-identical):",
    ] + [
        f"  {label:<14}{row['wall_s']:>8.2f}s{row['faults_per_s']:>10.1f} faults/s"
        for label, row in kernel_rows.items()
    ] + [
        f"  fault_sim/grading throughput ratio: {ratio:.1f}x",
    ]
    if ratio > 8.0:
        msg = (
            f"LOUD: grading is still {ratio:.1f}x slower than fault "
            f"simulation (target <= 8x) -- the power kernel has regressed"
        )
        print(msg)
        lines.append(f"  {msg}")

    # Store replay: publish once cold, then measure the warm hit path and
    # confirm it stays bit-identical to the simulated baseline.  This is
    # the fault-sim stage alone, not an end-to-end run.
    store_root = tmp_path / "store"
    cold_s, cold_result = _fault_sim_once(system, 1, store=CampaignStore(store_root))
    warm_store = CampaignStore(store_root)
    warm_s, warm_result = _fault_sim_once(system, 1, store=warm_store)
    assert warm_store.hit_ratio() == 1.0
    assert warm_result.verdicts == cold_result.verdicts == base_result.verdicts
    metrics["store"] = {
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "warm_hit_ratio": warm_store.hit_ratio(),
        "warm_faultsim_stage_speedup": cold_s / warm_s if warm_s else None,
        "faults": len(cold_result.verdicts),
    }
    lines += [
        "",
        f"fault-sim stage store replay: cold {cold_s:.2f}s -> warm {warm_s:.3f}s "
        f"(hit ratio {warm_store.hit_ratio():.0%}, bit-identical)",
    ]

    lines += ["", "all rows bit-identical to the n_jobs=1 baseline"]
    save_result("parallel", "\n".join(lines))
    save_json("parallel", metrics)


#: per-design dirty-fraction ceilings for a single-gate restructure; the
#: CI replay job asserts the diffeq one independently (see ci.yml)
DIRTY_CEILING = {"diffeq": 0.25, "ewf": 0.25, "biquad": 0.25}


def test_incremental_replay(save_result, save_json, tmp_path):
    """Cold vs incremental wall time after a one-gate edit, per design.

    For each design: publish a cold campaign, apply a scripted
    behavior-preserving restructure (AND -> NAND+NOT), rerun with the
    original netlist as ``--baseline`` and record the wall-clock ratio
    plus the dirty fraction the planner actually re-simulated.  Appends
    an ``incremental`` section to ``BENCH_parallel.json`` (the scaling
    test writes the rest of the file first).
    """
    import json as _json

    from repro.core.pipeline import PipelineConfig, run_pipeline
    from repro.designs.catalog import cached_system
    from repro.incremental import edit_system_controller, pick_editable_gate

    from conftest import RESULTS

    cfg = PipelineConfig(n_patterns=PATTERNS)
    rows = {}
    lines = ["incremental replay (one-gate restructure edit)", ""]
    for name in ("diffeq", "ewf", "biquad"):
        system = cached_system(name)
        store_root = tmp_path / f"store-{name}"
        t0 = time.perf_counter()
        run_pipeline(system, cfg, store=CampaignStore(store_root))
        cold_s = time.perf_counter() - t0
        edited = edit_system_controller(
            system, pick_editable_gate(system, "restructure"), "restructure"
        )
        t0 = time.perf_counter()
        inc = run_pipeline(
            edited,
            cfg,
            store=CampaignStore(store_root),
            baseline=system.netlist,
        )
        inc_s = time.perf_counter() - t0
        assert inc.incremental is not None, f"{name}: planner never engaged"
        fraction = inc.incremental["dirty_fraction"]
        assert fraction < DIRTY_CEILING[name], (
            f"{name}: dirty fraction {fraction:.3f} over the "
            f"{DIRTY_CEILING[name]:.2f} ceiling"
        )
        assert inc.campaign.replayed > 0
        rows[name] = {
            "cold_wall_s": cold_s,
            "incremental_wall_s": inc_s,
            "speedup": cold_s / inc_s if inc_s else None,
            "faults": inc.incremental["faults"],
            "dirty": inc.incremental["dirty"],
            "dirty_fraction": fraction,
            "region_equivalent": inc.incremental["region_equivalent"],
        }
        lines.append(
            f"  {name:<8} cold {cold_s:>7.2f}s -> incremental {inc_s:>6.2f}s "
            f"({cold_s / inc_s:>5.1f}x), dirty {rows[name]['dirty']}/"
            f"{rows[name]['faults']} ({fraction:.1%})"
        )

    path = RESULTS / "BENCH_parallel.json"
    metrics = _json.loads(path.read_text()) if path.exists() else {
        "bench": "parallel"
    }
    metrics["incremental"] = {"patterns": PATTERNS, "designs": rows}
    save_json("parallel", metrics)
    save_result("incremental_replay", "\n".join(lines))
