"""The benchmark's workloads: whole ``grade`` / ``calibrate`` runs in-process.

Each pass drives the public calls the CLI's ``grade`` and ``calibrate``
subcommands make -- ``cached_system`` -> ``run_pipeline`` ->
``grade_sfr_faults`` (seeded by ``grading_seed_results`` on a baseline
run) -> ``build_result_report``, or ``calibrate_fleet`` ->
``calibrate_report_dict`` -- and returns each design's canonical result
JSON, the bytes ``--result-json`` would write.  Functions are looked up
on their modules at call time, so a traced pass sees the wrappers of
:mod:`tracing`.

Every pass starts from fresh design objects, built before the timer
starts, so no compiled-netlist, cone or Monte-Carlo batch memo, all keyed
by object identity, is hit across passes, and the last pass's objects are
freed: memory does not grow with the pass count.
"""

from __future__ import annotations

import gc
import os
import shutil
from dataclasses import dataclass

import repro.core.grading as grading_mod
import repro.core.pipeline as pipeline_mod
import repro.core.report as report_mod
import repro.designs.catalog as catalog
import repro.fleet as fleet_mod
import repro.incremental.replay as replay_mod
import repro.power.montecarlo as montecarlo_mod
from repro.core.checkpoint import fault_key
from repro.incremental.netdiff import edit_system_controller, pick_editable_gate
from repro.power.montecarlo import (
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_SEED,
    mc_campaign_params,
)
from repro.store.cache import CampaignStore

FLEET_INSTANCES = 1_000_000
THRESHOLD = 0.05
_TPGR_DEFAULT = 0xACE1
_FLEET_SEED_DEFAULT = 7


@dataclass(frozen=True)
class Seeds:
    """Every seed of one benchmark run, derived from ``--seed``.

    ``--seed`` drives the TPGR fault-simulation patterns and the fleet's
    population sampling.  The Monte-Carlo seed stays at the CLI's fixed
    default: its convergence batch count is a step function of the seed
    (3 to 9 batches on diffeq), which would move a whole pass by up to
    20% between seeds and drown any regression in content variance.
    Seed 0 reproduces the CLI defaults, so its reports equal what
    ``repro-faults --result-json <file> grade <design>`` writes.
    """

    tpgr: int
    fleet: int
    mc: int = MC_DEFAULT_SEED

    @classmethod
    def from_seed(cls, seed: int) -> "Seeds":
        return cls(
            # the 24-bit TPGR LFSR needs a nonzero state
            tpgr=(_TPGR_DEFAULT - 1 + seed * 0x9E3779) % 0xFFFFFF + 1,
            fleet=(_FLEET_SEED_DEFAULT + seed) % 2**32,
        )


class DesignRunError(RuntimeError):
    """A design run that finished but recorded integrity trouble."""


def _check_clean(result, grading, store: CampaignStore | None) -> None:
    problems = []
    for name, campaign in (("faultsim", result.campaign), ("grading", grading.campaign)):
        if campaign is not None and campaign.violations:
            problems.append(f"{len(campaign.violations)} {name} violation(s)")
    quarantined = sum(r.quarantined for r in result.records)
    if quarantined:
        problems.append(f"{quarantined} quarantined fault(s)")
    if store is not None and store.violations:
        problems.append(f"{len(store.violations)} store violation(s)")
    if problems:
        raise DesignRunError(f"{result.design}: " + ", ".join(problems))


def fresh_designs(designs: tuple[str, ...]) -> None:
    """Drop the last pass's objects and build ``designs`` anew (untimed).

    The Monte-Carlo batch memo is cleared by hand: its values hold their
    system, so its weakref eviction never fires and every graded system
    would stay alive for the process.
    """
    catalog.clear_build_cache()
    montecarlo_mod._BATCH_CACHE.clear()
    gc.collect()
    for design in designs:
        catalog.cached_system(design)


def grade(design: str, seeds: Seeds, store: CampaignStore | None, edit: bool = False):
    """One ``grade`` of ``design``; returns (report JSON, collapsed faults).

    With ``edit``, grades the scripted one-gate ``restructure`` edit of
    the design with the unedited netlist as ``baseline``.
    """
    system = catalog.cached_system(design)
    baseline = None
    if edit:
        baseline = system.netlist
        system = edit_system_controller(
            system, pick_editable_gate(system, "restructure"), "restructure"
        )
    config = pipeline_mod.PipelineConfig(tpgr_seed=seeds.tpgr, n_jobs=1)
    result = pipeline_mod.run_pipeline(system, config, store=store, baseline=baseline)
    seed_results = None
    if store is not None and result.incremental_plan is not None:
        seed_results = replay_mod.grading_seed_results(
            store,
            result.incremental_plan,
            result.design,
            [r.system_site for r in result.sfr_records],
            seeds.mc,
            MC_DEFAULT_BATCH_PATTERNS,
            MC_DEFAULT_MAX_BATCHES,
            MC_DEFAULT_ITERATIONS_WINDOW,
        )
    grading = grading_mod.grade_sfr_faults(
        system,
        result,
        threshold=THRESHOLD,
        seed=seeds.mc,
        n_jobs=1,
        store=store,
        seed_results=seed_results,
    )
    _check_clean(result, grading, store)
    # the same params the CLI's result report carries
    params = {
        "command": "grade",
        "design": result.design,
        "pipeline": config.fingerprint_params(),
        "faults": [fault_key(r.system_site) for r in result.records],
        "threshold": grading.threshold,
        "mc": mc_campaign_params(
            seeds.mc,
            MC_DEFAULT_BATCH_PATTERNS,
            MC_DEFAULT_MAX_BATCHES,
            MC_DEFAULT_ITERATIONS_WINDOW,
        ),
    }
    report = report_mod.build_result_report(
        result, grading, system=system, params=params, command="grade"
    )
    return report_mod.canonical_report_json(report), len(result.records)


def calibrate(design: str, seeds: Seeds, store: CampaignStore):
    """One cold ``calibrate``; returns (fleet result JSON, collapsed faults)."""
    system = catalog.cached_system(design)
    config = pipeline_mod.PipelineConfig(tpgr_seed=seeds.tpgr, n_jobs=1)
    result = pipeline_mod.run_pipeline(system, config, store=store)
    fleet, _campaign, grading = fleet_mod.calibrate_fleet(
        system,
        result,
        fleet_mod.FleetConfig(instances=FLEET_INSTANCES, seed=seeds.fleet),
        threshold=THRESHOLD,
        seed=seeds.mc,
        n_jobs=1,
        store=store,
    )
    _check_clean(result, grading, store)
    report = fleet_mod.calibrate_report_dict(fleet)
    return report_mod.canonical_report_json(report), len(result.records)


# ---------------------------------------------------------------- workloads
class Workload:
    """Set-up, per-pass preparation and the timed pass of one workload.

    ``setup`` builds the designs and fills the starting store;
    ``references`` computes, once, the reports the output check compares
    against; ``prepare`` readies the next pass's designs and store,
    untimed (by default a fresh empty store); ``run_design`` is the timed
    work of one design in a pass.
    """

    name = ""

    def __init__(self, seeds: Seeds, work: str, spec: dict):
        """``spec``: this workload's entry in ``spec.json``."""
        self.seeds = seeds
        self.work = work
        self.designs: tuple[str, ...] = tuple(spec["designs"])
        #: fewest timed passes in a run; a run goes on until ``--seconds``
        self.passes: int = spec["passes"]
        #: set-ups per run, whose median is reported
        self.setup_repeats: int = spec["setup_repeats"]
        #: design -> reference report JSON, when set-up computes one
        self.expected: dict[str, str] = {}
        self._n = 0

    def _new_dir(self, tag: str, clear: bool = False) -> str:
        if clear:
            shutil.rmtree(self.work, ignore_errors=True)
        self._n += 1
        path = os.path.join(self.work, f"{tag}-{self._n}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        fresh_designs(self.designs)

    def references(self) -> None:
        pass

    def prepare(self) -> str:
        fresh_designs(self.designs)
        return self._new_dir("pass", clear=True)

    def run_design(self, design: str, store_dir: str):
        return grade(design, self.seeds, CampaignStore(store_dir))


class GradeCold(Workload):
    name = "grade-cold"


class GradeWarm(Workload):
    name = "grade-warm"

    def setup(self) -> None:
        super().setup()
        self.store_dir = self._new_dir("warm", clear=True)
        for design in self.designs:
            store = CampaignStore(self.store_dir)
            self.expected[design], _ = grade(design, self.seeds, store)

    def prepare(self) -> str:
        fresh_designs(self.designs)
        return self.store_dir


class CalibrateFleet(Workload):
    name = "calibrate-fleet"

    def run_design(self, design, store_dir):
        return calibrate(design, self.seeds, CampaignStore(store_dir))


class EditReplay(Workload):
    name = "edit-replay"

    def setup(self) -> None:
        super().setup()
        self.filled = self._new_dir("baseline", clear=True)
        for design in self.designs:
            grade(design, self.seeds, CampaignStore(self.filled))

    def references(self) -> None:
        for design in self.designs:
            self.expected[design], _ = grade(design, self.seeds, None, edit=True)

    def prepare(self) -> str:
        # a run publishes, which would turn the next one into a plain
        # warm hit: every pass starts from a copy of the filled store
        fresh_designs(self.designs)
        for entry in os.listdir(self.work):
            if entry.startswith("pass-"):
                shutil.rmtree(os.path.join(self.work, entry))
        self._n += 1
        path = os.path.join(self.work, f"pass-{self._n}")
        shutil.copytree(self.filled, path)
        return path

    def run_design(self, design, store_dir):
        return grade(design, self.seeds, CampaignStore(store_dir), edit=True)


WORKLOADS = {w.name: w for w in (GradeCold, GradeWarm, CalibrateFleet, EditReplay)}
