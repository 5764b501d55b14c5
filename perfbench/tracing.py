"""Span tracing around the layers' public functions, from outside ``src/``.

A traced pass installs wrappers on the functions each layer exposes, at
the names the callers look them up by (a function imported with
``from x import f`` is patched in the importing module).  Every wrapper
records a span: its inclusive time, and its self time (inclusive minus
the time of spans opened while it ran).  Count-only wrappers record no
span, so hot functions such as ``CycleSimulator.sample`` add only a call
counter.  ``Tracer.uninstall`` restores every original.

Self times of all spans plus the pass time outside any span add up to
the traced wall time by construction; ``stage_table`` prints that split.
Designs are built before the timer starts, so the build layer is traced
by a second tracer around that untimed preparation (``note_build``).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (module, attribute path, span name or None for count-only, hook name)
WRAPPED = [
    ("repro.hls.system", "build_system", "build", "count_build"),
    ("repro.designs.catalog", "build_rtl", "build", None),
    ("repro.core.pipeline", "fault_simulate", "faultsim", "count_faultsim"),
    ("repro.logic.faultsim", "simulate_one_fault", "faultsim.audit", "count_calls"),
    ("repro.core.pipeline", "Classifier.__init__", "classify.init", None),
    ("repro.core.pipeline", "Classifier.classify", "classify", "count_calls"),
    ("repro.core.classify", "label_effects", "classify.label", None),
    ("repro.core.classify", "faulty_control_trace", "effects.trace", "count_calls"),
    ("repro.core.classify", "diff_traces", "effects.diff", None),
    ("repro.core.classify", "replay", "symbolic.replay", "count_calls"),
    ("repro.core.classify", "compare_replays", "symbolic.compare", None),
    ("repro.logic.simulator", "CycleSimulator.__init__", None, "count_calls"),
    ("repro.logic.simulator", "CycleSimulator.sample", None, "count_calls"),
    ("repro.core.grading", "grade_sfr_faults", "grading", "count_grading"),
    ("repro.fleet.calibrate", "grade_sfr_faults", "grading", "count_grading"),
    ("repro.core.grading", "monte_carlo_power", "grading.audit", None),
    ("repro.core.grading", "monte_carlo_power_block", "montecarlo.block", "count_block"),
    ("repro.fleet.activity", "monte_carlo_power_block", "montecarlo.block", "count_block"),
    ("repro.fleet", "calibrate_fleet", "fleet", None),
    ("repro.fleet.calibrate", "activity_campaign", "fleet.activity", None),
    ("repro.fleet.calibrate", "activity_matrix", "fleet.matrix", None),
    ("repro.fleet.calibrate", "run_population", "fleet.population", "count_population"),
    ("repro.incremental.replay", "plan_recompute", "incremental.plan", "count_plan"),
    ("repro.incremental.replay", "diff_netlists", "incremental.diff", None),
    ("repro.incremental.replay", "certify_delta", "incremental.certify", None),
    ("repro.incremental.replay", "publish_incremental", "incremental.publish", None),
    ("repro.store.cache", "CampaignStore.lookup", "store.lookup", "count_lookup"),
    ("repro.store.cache", "CampaignStore.publish", "store.publish", "count_calls"),
    ("repro.store.artifacts", "ArtifactStore.put_many", "store.put_many", None),
    ("repro.core.report", "build_result_report", "report", None),
    ("repro.fleet", "calibrate_report_dict", "report", None),
]

#: layers whose self time is classification work (the uncached stage)
CLASSIFICATION_LAYERS = ("classify", "effects", "symbolic")


def classification_self_s(self_time: dict) -> float:
    return sum(
        v for k, v in self_time.items() if k.split(".")[0] in CLASSIFICATION_LAYERS
    )


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span aggregates and counters of one traced pass."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._saved: list[tuple] = []
        self.build_s = 0.0
        self.build_calls = 0.0

    def note_build(self, prep: "Tracer") -> None:
        """Take the build time and count of ``prep``, the pass's preparation."""
        self.build_s = prep.total["build"]
        self.build_calls = prep.counts["build.calls"]

    # ----------------------------------------------------------- recording
    def _run(self, name, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            self.total[name] += dur
            self.self_time[name] += dur - frame[0]

    def _wrap(self, fn, name, hook):
        counter = getattr(self, hook) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                out = self._run(name, fn, args, kwargs)
            if counter is not None:
                counter(fn, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for module_name, path, name, hook in WRAPPED:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ counters
    def count_calls(self, fn, args, kwargs, out) -> None:
        self.counts[fn.__qualname__] += 1

    def count_build(self, fn, args, kwargs, out) -> None:
        self.counts["build.calls"] += 1

    def count_faultsim(self, fn, args, kwargs, out) -> None:
        self.counts["faultsim.faults"] += out.campaign.completed if out.campaign else 0
        if out.cone is not None:
            self.counts["cone.gate_evals"] += out.cone.gate_evals
            self.counts["cone.gate_evals_full"] += out.cone.gate_evals_full
            self.counts["cone.pruned"] += out.cone.dead + out.cone.unobservable
            self.counts["cone.faults"] += out.cone.faults

    def count_grading(self, fn, args, kwargs, out) -> None:
        self.counts["grading.faults"] += len(args[1].sfr_records)
        self.counts["grading.seeded"] += out.campaign.resumed if out.campaign else 0

    def count_block(self, fn, args, kwargs, out) -> None:
        self.counts["montecarlo.block_calls"] += 1
        self.counts["montecarlo.batches"] += max((r.batches for r in out), default=0)

    def count_population(self, fn, args, kwargs, out) -> None:
        self.counts["fleet.matmul_s"] += out.matmul_s
        self.counts["fleet.instance_faults"] += out.instances * len(out.fault_keys)

    def count_plan(self, fn, args, kwargs, out) -> None:
        if out is not None:
            self.counts["incremental.dirty"] += len(out.dirty)
            self.counts["incremental.faults"] += out.n_faults

    def count_lookup(self, fn, args, kwargs, out) -> None:
        self.counts["store.lookups"] += 1
        self.counts["store.hits"] += out is not None

    # ------------------------------------------------------------- results
    def metrics(self, wall_s: float, store_bytes: int) -> dict[str, float]:
        """This pass's per-layer metrics (``wall_s``: its traced wall)."""
        t, s, c = self.total, self.self_time, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        classify_self = classification_self_s(s)
        return {
            "classify.s": t["classify.init"] + t["classify"],
            "classify.self_s": s["classify.init"] + s["classify"] + s["classify.label"],
            "classify.faults": c["Classifier.classify"],
            "classify.init_s": t["classify.init"],
            "classify.label_s": t["classify.label"],
            "classify.stage_share": ratio(classify_self, wall_s),
            "effects.trace_s": t["effects.trace"],
            "effects.traces": c["faulty_control_trace"],
            "effects.diff_s": t["effects.diff"],
            "symbolic.replay_s": t["symbolic.replay"],
            "symbolic.replays": c["replay"],
            "symbolic.compare_s": t["symbolic.compare"],
            "simulator.instances": c["CycleSimulator.__init__"],
            "simulator.sample_calls": c["CycleSimulator.sample"],
            "faultsim.s": t["faultsim"],
            "faultsim.faults": c["faultsim.faults"],
            "faultsim.audit_s": t["faultsim.audit"],
            "faultsim.audit_faults": c["simulate_one_fault"],
            "faultsim.evaluated_gate_fraction": ratio(
                c["cone.gate_evals"], c["cone.gate_evals_full"]
            ),
            "faultsim.early_death_rate": ratio(c["cone.pruned"], c["cone.faults"]),
            "grading.s": t["grading"],
            "grading.faults": c["grading.faults"],
            "grading.seeded": c["grading.seeded"],
            "grading.audit_s": t["grading.audit"],
            "montecarlo.block_s": t["montecarlo.block"],
            "montecarlo.block_calls": c["montecarlo.block_calls"],
            "montecarlo.batches": c["montecarlo.batches"],
            "fleet.s": t["fleet"],
            "fleet.activity_s": t["fleet.activity"],
            "fleet.matrix_s": t["fleet.matrix"],
            "fleet.population_s": t["fleet.population"],
            "fleet.matmul_s": c["fleet.matmul_s"],
            "fleet.instance_faults_per_s": ratio(
                c["fleet.instance_faults"], c["fleet.matmul_s"]
            ),
            "incremental.plan_s": t["incremental.plan"],
            "incremental.diff_s": t["incremental.diff"],
            "incremental.certify_s": t["incremental.certify"],
            "incremental.publish_s": t["incremental.publish"],
            "incremental.dirty_fraction": ratio(
                c["incremental.dirty"], c["incremental.faults"]
            ),
            "store.lookup_s": t["store.lookup"],
            "store.lookups": c["store.lookups"],
            "store.hit_ratio": ratio(c["store.hits"], c["store.lookups"]),
            "store.publish_s": t["store.publish"],
            "store.publishes": c["CampaignStore.publish"],
            "store.put_many_s": t["store.put_many"],
            "store.bytes": float(store_bytes),
            "build.s": self.build_s,
            "build.calls": self.build_calls,
            "report.s": t["report"],
        }


def stage_table(workload: str, wall_s: float, self_time: dict, hit_ratio: float) -> str:
    """Self time and share of the traced wall per span, plus the rest."""
    rows = sorted(((k, v) for k, v in self_time.items() if v), key=lambda kv: -kv[1])
    attributed = sum(v for _, v in rows)
    lines = [
        f"stage shares -- {workload}: traced wall {wall_s:.3f} s",
        f"  {'span':<22}{'self_s':>10}{'share':>9}",
    ]
    for name, secs in rows:
        lines.append(f"  {name:<22}{secs:>10.3f}{secs / wall_s:>9.1%}")
    rest = wall_s - attributed
    lines.append(f"  {'(unattributed)':<22}{rest:>10.3f}{rest / wall_s:>9.1%}")
    lines.append(f"  {'total':<22}{wall_s:>10.3f}{1:>9.1%}")
    classification = classification_self_s(self_time)
    lines.append(
        f"  uncached stages (classify+effects+symbolic): {classification / wall_s:.1%} "
        f"of wall; store.hit_ratio {hit_ratio:.2f}"
    )
    return "\n".join(lines)
