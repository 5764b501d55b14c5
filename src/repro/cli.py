"""Command-line interface: ``repro-faults``.

Subcommands::

    repro-faults classify diffeq            # Section-5 pipeline, Table-2 row
    repro-faults grade diffeq               # + Monte-Carlo power, Figure 7
    repro-faults calibrate diffeq           # fleet-scale threshold ROC
    repro-faults table2                     # the paper's three designs
    repro-faults strategies diffeq          # separate/integrated/power compare
    repro-faults worstcase diffeq           # Section-4 max corruption
    repro-faults datapath diffeq            # integrated datapath-fault test
    repro-faults compile behavior.txt       # behavioural text -> pipeline
    repro-faults dump-vcd diffeq run.vcd    # waveform of one computation
    repro-faults export diffeq out.v        # write the system netlist
    repro-faults stats diffeq               # netlist statistics

Store-backed workflows (``--store-dir`` -- see docs/store.md)::

    repro-faults --store-dir .cache grade diffeq    # publishes + replays
    repro-faults --store-dir .cache query --verdict SFR
    repro-faults --store-dir .cache serve --port 8357
    repro-faults --store-dir .cache store stats|gc|verify
"""

from __future__ import annotations

import argparse
import json
import sys

from .core.grading import grade_sfr_faults, pick_representative
from .core.integrity import DEFAULT_AUDIT_RATE
from .core.pipeline import PipelineConfig, run_pipeline
from .core.report import (
    build_json_report,
    build_result_report,
    canonical_report_json,
    render_campaign_summary,
    render_figure7,
    render_integrity_violations,
    render_store_summary,
    render_table1,
    render_table2,
)
from .designs.catalog import build_rtl, cached_system, design_names
from .hls.system import build_system
from .netlist.bench import write_bench
from .netlist.stats import analyze
from .netlist.verilog import write_verilog
from .store.cache import CampaignStore, StageProvenance, clean_campaign
from .store.fingerprint import netlist_fingerprint, stage_key
from .store.query import QUERY_VERDICTS


def _positive_int(text: str) -> int:
    """argparse type: an int >= 1, rejected with a readable error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _jobs_arg(text: str) -> int:
    """argparse type for --jobs: a positive worker count or -1 (all cores)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value != -1 and value < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs takes a worker count >= 1 or -1 for all cores, got {value}"
        )
    return value


def _port_arg(text: str) -> int:
    """argparse type for --port: a TCP port, 0 (ephemeral) to 65535."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be in [0, 65535] (0 = ephemeral), got {value}"
        )
    return value


def _queue_depth_arg(text: str) -> int:
    """argparse type for --queue-depth: admitted-job bound, 1..4096."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= value <= 4096:
        raise argparse.ArgumentTypeError(
            f"queue depth must be in [1, 4096], got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _fraction_arg(text: str) -> float:
    value = _positive_float(text)
    if value >= 1:
        raise argparse.ArgumentTypeError(f"must be a fraction in (0, 1), got {value}")
    return value


def _audit_rate_arg(text: str) -> float:
    """argparse type for --audit-rate: a fraction in [0, 1); 0 disables."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in [0, 1) (0 disables auditing), got {value}"
        )
    return value


def _sigma_arg(text: str) -> float:
    """argparse type for fleet sigmas/budgets: a fraction in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in [0, 1), got {value}"
        )
    return value


def _shards_arg(text: str) -> int:
    """argparse type for --shards: fabric shard count, 2..256."""
    from .store.shards import MAX_SHARDS

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 2 <= value <= MAX_SHARDS:
        raise argparse.ArgumentTypeError(
            f"shard count must be in [2, {MAX_SHARDS}], got {value}"
        )
    return value


def _replicas_arg(text: str) -> int:
    """argparse type for --replicas: copies per key (incl. primary), 1..256."""
    from .store.shards import MAX_SHARDS

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= value <= MAX_SHARDS:
        raise argparse.ArgumentTypeError(
            f"replication factor must be in [1, {MAX_SHARDS}], got {value}"
        )
    return value


def _chaos_arg(text: str) -> str:
    """argparse type for --chaos: validate the spec at the CLI boundary."""
    from .core.errors import CampaignError
    from .testing.chaos import ChaosSpec

    try:
        ChaosSpec.parse(text)
    except CampaignError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _print_campaign(campaign, title: str) -> None:
    """Surface retries/crashes/resumes whenever anything non-trivial ran."""
    if campaign is not None and (
        campaign.resumed or campaign.audited or campaign.has_incidents()
    ):
        print(render_campaign_summary(campaign, title=title))
    if campaign is not None and campaign.violations:
        print(render_integrity_violations(campaign, title=f"{title} integrity"))


def _write_report_json(args, campaigns: dict, store: CampaignStore | None = None) -> None:
    """Write the machine-readable campaign/integrity report if requested."""
    if not getattr(args, "report_json", None):
        return
    with open(args.report_json, "w", encoding="utf-8") as f:
        json.dump(build_json_report(campaigns, store=store), f, indent=2, allow_nan=False)
    print(f"wrote {args.report_json}")


def _write_result_json(args, report: dict) -> None:
    """Write the deterministic result report (canonical JSON) if requested."""
    if not getattr(args, "result_json", None):
        return
    with open(args.result_json, "w", encoding="utf-8") as f:
        f.write(canonical_report_json(report))
    print(f"wrote {args.result_json}")


def _store(args) -> CampaignStore | None:
    """The persistent campaign store of this invocation, if enabled."""
    if not getattr(args, "store_dir", None):
        return None
    return CampaignStore(
        args.store_dir,
        refresh=getattr(args, "store_refresh", False),
        shards=getattr(args, "shards", None),
        replicas=getattr(args, "replicas", None),
    )


def _print_store(store: CampaignStore | None) -> None:
    if store is not None and (store.provenance or store.violations):
        print(render_store_summary(store))


def _result_report(
    store: CampaignStore | None,
    system,
    config: PipelineConfig,
    result,
    grading=None,
    command: str = "classify",
) -> dict:
    """Build (or replay) the deterministic result report of one run.

    With a store, the report is its own cached stage: a warm run replays
    the published report dict verbatim; a cold clean run publishes it so
    ``query``/``serve`` can answer without simulating.  Campaigns that
    recorded integrity violations are never published.
    """
    from .power.montecarlo import (
        MC_DEFAULT_BATCH_PATTERNS,
        MC_DEFAULT_ITERATIONS_WINDOW,
        MC_DEFAULT_MAX_BATCHES,
        MC_DEFAULT_SEED,
        mc_campaign_params,
    )

    from .core.checkpoint import fault_key

    # The fault list pins the campaign identity: fingerprints are
    # permutation-invariant (v2), but report payloads carry index-based
    # fault keys, so two permuted-but-identical netlists must not alias
    # each other's cached reports.
    params: dict = {
        "command": command,
        "design": result.design,
        "pipeline": config.fingerprint_params(),
        "faults": [fault_key(r.system_site) for r in result.records],
    }
    if grading is not None:
        params["threshold"] = grading.threshold
        params["mc"] = mc_campaign_params(
            MC_DEFAULT_SEED,
            MC_DEFAULT_BATCH_PATTERNS,
            MC_DEFAULT_MAX_BATCHES,
            MC_DEFAULT_ITERATIONS_WINDOW,
        )
    if store is None:
        return build_result_report(
            result, grading, system=system, params=params, command=command
        )
    key = stage_key("report", netlist_fingerprint(system.netlist), params)
    cached = store.lookup("report", key)
    if cached is not None:
        row = store.artifacts.row(key)
        store.record(
            StageProvenance(
                stage="report", key=key, hit=True, saved_s=row.wall_s if row else 0.0
            )
        )
        return cached
    report = build_result_report(
        result, grading, system=system, params=params, command=command
    )
    published = False
    if clean_campaign(result.campaign) and (
        grading is None or clean_campaign(grading.campaign)
    ):
        published = store.publish(
            "report", key, report, design=result.design, meta={"command": command}
        )
    store.record(StageProvenance(stage="report", key=key, hit=False, published=published))
    return report


def _build(args):
    return cached_system(
        args.design,
        width=args.width,
        encoding_kind=args.encoding,
        output_style=args.output_style,
    )


def _baseline_spec(args, system):
    """Turn ``--baseline`` into what :func:`run_pipeline` accepts.

    A design name from the catalog resolves to that design's netlist
    (built with this invocation's width/encoding/output-style knobs);
    fingerprints, payload paths and ``auto`` pass through to
    :func:`~repro.incremental.replay.resolve_baseline`.
    """
    spec = getattr(args, "baseline", None)
    if not spec:
        return None
    if spec != system.rtl.name and spec in design_names():
        other = cached_system(
            spec,
            width=args.width,
            encoding_kind=args.encoding,
            output_style=args.output_style,
        )
        return other.netlist
    return spec


def _print_incremental(result) -> None:
    inc = getattr(result, "incremental", None)
    if inc:
        print(
            f"incremental: {inc['reusable']}/{inc['faults']} faults replayed "
            f"from baseline {inc['baseline']} "
            f"(dirty fraction {inc['dirty_fraction']:.1%}, "
            f"region: {inc['region_reason']})"
        )


def _config(args) -> PipelineConfig:
    return PipelineConfig(
        n_patterns=args.patterns,
        n_jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        timeout=args.timeout,
        max_retries=args.max_retries,
        audit_rate=args.audit_rate,
        strict=args.strict,
        chaos=args.chaos,
    )


def _cmd_classify(args) -> int:
    system = _build(args)
    store = _store(args)
    config = _config(args)
    result = run_pipeline(
        system, config, store=store, baseline=_baseline_spec(args, system)
    )
    _print_campaign(result.campaign, "fault-sim campaign")
    _print_incremental(result)
    report = _result_report(store, system, config, result, command="classify")
    _print_store(store)
    _write_result_json(args, report)
    _write_report_json(args, {"faultsim": result.campaign}, store=store)
    print(system.rtl.summary())
    print("fault buckets:", result.counts())
    row = result.table2_row()
    print(
        f"Table 2 row: total={row['total_faults']} SFR={row['sfr_faults']} "
        f"({row['pct_sfr']:.1f}%)"
    )
    for record in result.sfr_records:
        effects = "; ".join(record.classification.effect_summary())
        print(f"  SFR {record.site.describe(system.controller.netlist)}: {effects}")
    return 0


def _cmd_grade(args) -> int:
    system = _build(args)
    store = _store(args)
    config = _config(args)
    result = run_pipeline(
        system, config, store=store, baseline=_baseline_spec(args, system)
    )
    _print_campaign(result.campaign, "fault-sim campaign")
    _print_incremental(result)
    chaos_engine = None
    if args.chaos:
        from .testing.chaos import ChaosEngine

        chaos_engine = ChaosEngine.from_spec(args.chaos)
    seeds = None
    if store is not None and result.incremental_plan is not None:
        from .incremental.replay import grading_seed_results
        from .power.montecarlo import (
            MC_DEFAULT_BATCH_PATTERNS,
            MC_DEFAULT_ITERATIONS_WINDOW,
            MC_DEFAULT_MAX_BATCHES,
            MC_DEFAULT_SEED,
        )

        seeds = grading_seed_results(
            store,
            result.incremental_plan,
            result.design,
            [r.system_site for r in result.sfr_records],
            MC_DEFAULT_SEED,
            MC_DEFAULT_BATCH_PATTERNS,
            MC_DEFAULT_MAX_BATCHES,
            MC_DEFAULT_ITERATIONS_WINDOW,
        )
    grading = grade_sfr_faults(
        system,
        result,
        threshold=args.threshold,
        n_jobs=args.jobs,
        timeout=args.timeout,
        max_retries=args.max_retries,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        audit_rate=args.audit_rate,
        strict=args.strict,
        chaos=chaos_engine,
        store=store,
        seed_results=seeds,
    )
    _print_campaign(grading.campaign, "grading campaign")
    report = _result_report(store, system, config, result, grading, command="grade")
    _print_store(store)
    _write_result_json(args, report)
    _write_report_json(
        args, {"faultsim": result.campaign, "grading": grading.campaign}, store=store
    )
    print(render_table1(grading, pick_representative(grading)))
    print()
    print(render_figure7(grading))
    s = grading.summary()
    print(
        f"\ndetected by power test: {s['select_detected']}/{s['n_select_only']} "
        f"select-only, {s['load_detected']}/{s['n_load']} load-line"
    )
    return 0


def _fleet_config(args):
    from .fleet import FleetConfig

    return FleetConfig(
        instances=args.instances,
        sigma_cap=args.sigma_cap,
        sigma_leak=args.sigma_leak,
        sigma_meas=args.sigma_meas,
        yield_budget=args.yield_budget,
        seed=args.fleet_seed,
        engine=args.fleet_engine,
    )


def _cmd_calibrate(args) -> int:
    from .core.report import render_table
    from .fleet import calibrate_fleet, calibrate_report_dict

    system = _build(args)
    store = _store(args)
    config = _config(args)
    result = run_pipeline(
        system, config, store=store, baseline=_baseline_spec(args, system)
    )
    _print_campaign(result.campaign, "fault-sim campaign")
    _print_incremental(result)
    fleet, campaign, grading = calibrate_fleet(
        system,
        result,
        _fleet_config(args),
        threshold=args.threshold,
        n_jobs=args.jobs,
        timeout=args.timeout,
        max_retries=args.max_retries,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        audit_rate=args.audit_rate,
        strict=args.strict,
        store=store,
    )
    _print_campaign(campaign.campaign, "activity campaign")
    _print_campaign(grading.campaign, "grading campaign")
    _print_store(store)
    _write_result_json(args, calibrate_report_dict(fleet))
    _write_report_json(
        args,
        {
            "faultsim": result.campaign,
            "activity": campaign.campaign,
            "grading": grading.campaign,
        },
        store=store,
    )
    print(
        render_table(
            ["Threshold", "Yield loss", "Escape rate", "Escapes"],
            [
                [
                    f"{r['threshold']:.3f}",
                    f"{100 * r['yield_loss']:.3f}%",
                    f"{100 * r['escape_rate']:.3f}%",
                    str(r["escapes"]),
                ]
                for r in fleet.roc()
            ],
            title=(
                f"Fleet ROC -- {fleet.design} ({fleet.instances} instances, "
                f"{len(fleet.fault_keys)} faults)"
            ),
        )
    )
    chosen = fleet.chosen
    print(
        f"\nchosen threshold: +/-{100 * chosen['threshold']:.1f}% "
        f"(yield loss {100 * chosen['yield_loss']:.3f}%, escape rate "
        f"{100 * chosen['escape_rate']:.3f}%, budget "
        f"{'met' if chosen['met_budget'] else 'NOT met'})"
    )
    if fleet.matmul_s > 0:
        print(
            f"population kernel: {fleet.throughput:.3e} instances*faults/s "
            f"({fleet.matmul_s:.3f}s in matmuls)"
        )
    else:
        print("population kernel: replayed from store (no matmul run)")
    return 0


def _cmd_diff(args) -> int:
    """Structural delta + projected dirty fraction, without simulating."""
    from .core.pipeline import controller_fault_universe
    from .incremental.replay import project_dirty, resolve_baseline
    from .store.fingerprint import netlist_payload

    system = _build(args)
    store = _store(args)
    fp = netlist_fingerprint(system.netlist)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as f:
            json.dump(netlist_payload(system.netlist), f)
        print(f"wrote netlist payload to {args.dump}")
    if not args.baseline:
        print(f"design {args.design}: fingerprint {fp}")
        print("no --baseline given; nothing to diff")
        return 0
    base = resolve_baseline(
        store, _baseline_spec(args, system), design=system.rtl.name, exclude_fp=fp
    )
    if base is None:
        print("error: could not resolve --baseline", file=sys.stderr)
        return 2
    universe = controller_fault_universe(system)
    sites = [system.to_system_fault(s) for s in universe]
    _delta, _region, summary = project_dirty(base, system, sites)
    print(json.dumps(summary, indent=2, allow_nan=False))
    return 0


def _cmd_table2(args) -> int:
    from .designs.catalog import PAPER_DESIGNS

    store = _store(args)
    results = []
    for name in PAPER_DESIGNS:
        system = cached_system(name, width=args.width)
        results.append(run_pipeline(system, _config(args), store=store))
    _print_store(store)
    print(render_table2(results))
    return 0


def _compute_campaign(args, store: CampaignStore, design: str, threshold: float) -> dict:
    """Full cache-aware grade flow for one design (the serve miss path)."""
    system = cached_system(
        design,
        width=args.width,
        encoding_kind=args.encoding,
        output_style=args.output_style,
    )
    config = _config(args)
    # "auto" replays from the most recent published version of this
    # design, so a near-duplicate upload hits warm per-fault entries.
    result = run_pipeline(system, config, store=store, baseline="auto")
    grading = grade_sfr_faults(
        system,
        result,
        threshold=threshold,
        n_jobs=args.jobs,
        timeout=args.timeout,
        max_retries=args.max_retries,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        audit_rate=args.audit_rate,
        strict=args.strict,
        store=store,
    )
    return _result_report(store, system, config, result, grading, command="grade")


def _compute_calibrate(args, store: CampaignStore, design: str, params: dict) -> dict:
    """Cache-aware fleet calibration for one design (the serve hook).

    ``params`` holds validated :class:`~repro.fleet.FleetConfig` field
    overrides straight from the endpoint's query string; everything the
    hook computes (activity counters, grading, fleet ROC) is store-backed,
    so a warm repeat is a pure replay.
    """
    from .fleet import FleetConfig, calibrate_fleet, calibrate_report_dict

    system = cached_system(
        design,
        width=args.width,
        encoding_kind=args.encoding,
        output_style=args.output_style,
    )
    config = _config(args)
    result = run_pipeline(system, config, store=store, baseline="auto")
    fleet, _campaign, _grading = calibrate_fleet(
        system,
        result,
        FleetConfig(**params),
        n_jobs=args.jobs,
        timeout=args.timeout,
        max_retries=args.max_retries,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        audit_rate=args.audit_rate,
        strict=args.strict,
        store=store,
    )
    return calibrate_report_dict(fleet)


def _cmd_store(args) -> int:
    if not getattr(args, "store_dir", None):
        print("error: the store command needs --store-dir", file=sys.stderr)
        return 2
    if args.store_op == "rebalance":
        return _store_rebalance(args)
    store = _store(args)
    artifacts = store.artifacts
    if args.store_op == "stats":
        print(json.dumps(artifacts.stats(), indent=2))
    elif args.store_op == "gc":
        print(json.dumps(artifacts.gc(), indent=2))
    elif args.store_op == "scrub":
        from .store.fabric import FabricStore

        if not isinstance(artifacts, FabricStore):
            print(
                "error: store scrub needs a shard fabric; convert this store "
                "first with 'store rebalance --shards N --replicas R'",
                file=sys.stderr,
            )
            return 2
        report = artifacts.scrub()
        print(json.dumps(report, indent=2))
        if not report["full_replication"]:
            return 1
    else:  # verify
        defects = artifacts.verify()
        print(json.dumps({"ok": not defects, "defects": defects}, indent=2))
        if defects:
            return 1
    return 0


def _store_rebalance(args) -> int:
    """Migrate a store's fabric geometry (or convert a legacy store)."""
    from .store.fabric import FabricStore
    from .store.shards import load_geometry

    if args.shards is None:
        print(
            "error: store rebalance needs a target geometry: "
            "--shards N [--replicas R]",
            file=sys.stderr,
        )
        return 2
    n_shards = args.shards
    n_replicas = args.replicas if args.replicas is not None else 2
    persisted = load_geometry(args.store_dir)
    if persisted is None:
        fabric, info = FabricStore.convert(args.store_dir, n_shards, n_replicas)
        print(json.dumps({"converted": True, **info}, indent=2))
        return 0
    fabric = FabricStore(args.store_dir)  # open at the *current* geometry
    info = fabric.rebalance(n_shards, n_replicas)
    print(json.dumps({"converted": False, **info}, indent=2))
    return 0


def _cmd_query(args) -> int:
    from .store.query import query_campaigns, query_json, render_query

    store = _store(args)
    if store is None:
        print("error: query needs --store-dir", file=sys.stderr)
        return 2
    matches = query_campaigns(
        store, design=args.design, threshold=args.threshold, verdict=args.verdict
    )
    if args.json:
        print(json.dumps(query_json(matches), indent=2, allow_nan=False))
    else:
        print(render_query(matches, verdict=args.verdict))
    return 0


def _cmd_serve(args) -> int:
    import os

    from .store.server import make_server, serve_forever

    store = _store(args)
    if store is None:
        print("error: serve needs --store-dir", file=sys.stderr)
        return 2
    compute = None
    compute_calibrate = None
    if not args.no_compute:
        # Journal compute jobs under the store by default so a job-level
        # retry after a mid-request worker crash *resumes* the campaign
        # from its checkpoint instead of restarting it.
        if args.checkpoint_dir is None:
            args.checkpoint_dir = os.path.join(args.store_dir, "serve-ckpt")
            args.resume = True

        def compute(design: str, threshold: float) -> dict:
            return _compute_campaign(args, store, design, threshold)

        def compute_calibrate(design: str, params: dict) -> dict:
            return _compute_calibrate(args, store, design, params)

    server = make_server(
        args.host,
        args.port,
        store,
        compute=compute,
        compute_calibrate=compute_calibrate,
        designs=tuple(design_names()),
        queue_depth=args.queue_depth,
        workers=args.serve_workers,
        request_timeout=args.request_timeout,
    )
    host, port = server.server_address[:2]
    print(f"serving store {args.store_dir} on http://{host}:{port} (Ctrl-C stops)")
    serve_forever(server, drain_grace=args.drain_grace)
    return 0


def _cmd_export(args) -> int:
    system = _build(args)
    text = write_bench(system.netlist) if args.out.endswith(".bench") else write_verilog(
        system.netlist
    )
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out}")
    return 0


def _cmd_stats(args) -> int:
    system = _build(args)
    stats = analyze(system.netlist)
    print(stats)
    for key, count in stats.by_type.items():
        print(f"  {key:8} {count}")
    return 0


def _cmd_strategies(args) -> int:
    from .core.grading import grade_sfr_faults
    from .core.report import render_table
    from .core.teststrategies import compare_strategies

    system = _build(args)
    result = run_pipeline(system, _config(args))
    grading = grade_sfr_faults(system, result, max_batches=4, n_jobs=args.jobs)
    rows = compare_strategies(system, result, grading, n_patterns=args.patterns)
    print(
        render_table(
            ["Strategy", "Faults", "Detected", "Coverage", "Needs DFT"],
            [
                [
                    r.strategy,
                    r.fault_universe,
                    f"{r.detected}/{r.total}",
                    f"{100 * r.coverage:.1f}%",
                    "yes" if r.requires_dft else "no",
                ]
                for r in rows
            ],
            title=f"Test strategy comparison -- {args.design}",
        )
    )
    return 0


def _cmd_worstcase(args) -> int:
    from .core.worstcase import find_worst_case
    from .power.estimator import PowerEstimator
    from .power.montecarlo import monte_carlo_power

    system = _build(args)
    wc = find_worst_case(system.rtl, system.controller)
    corrupted = wc.build()
    base = monte_carlo_power(system, PowerEstimator(system.netlist))
    worst = monte_carlo_power(corrupted, PowerEstimator(corrupted.netlist))
    pct = 100.0 * (worst.power_uw - base.power_uw) / base.power_uw
    print(f"accepted {len(wc.flips)}/{wc.candidates} non-disruptive corruptions")
    print(f"fault-free {base.power_uw:.1f} uW -> worst case {worst.power_uw:.1f} uW ({pct:+.1f}%)")
    return 0


def _cmd_datapath(args) -> int:
    from .core.datapath_faults import integrated_datapath_test

    system = _build(args)
    result = integrated_datapath_test(system, n_patterns=args.patterns)
    print(
        f"integrated datapath test: {result.detected()}/{result.total} "
        f"= {100 * result.coverage():.1f}% coverage"
    )
    print("hardest components:")
    for tag, rate in result.hardest_components():
        print(f"  {tag:16} {100 * rate:5.1f}%")
    return 0


def _cmd_compile(args) -> int:
    from .hls.bind import bind_design
    from .hls.frontend import parse_behavior
    from .hls.schedule import list_schedule

    with open(args.source) as f:
        dfg = parse_behavior(f.read())
    schedule = list_schedule(dfg, resources={})
    rtl = bind_design(dfg, schedule)
    print(rtl.summary())
    system = build_system(
        rtl, encoding_kind=args.encoding, output_style=args.output_style
    )
    result = run_pipeline(system, _config(args))
    print("fault buckets:", result.counts())
    return 0


def _cmd_dump_vcd(args) -> int:
    import numpy as np

    from .logic.vcd import dump_system_run

    system = _build(args)
    rng = np.random.default_rng(args.seed)
    data = {
        k: rng.integers(0, 1 << args.width, 1) for k in system.rtl.dfg.inputs
    }
    dump_system_run(system, data, system.cycles_for(4), args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="SFR controller-fault analysis via power (DATE 2000 reproduction)",
    )
    parser.add_argument(
        "--width", type=_positive_int, default=4, help="datapath bit width"
    )
    parser.add_argument(
        "--patterns", type=_positive_int, default=256, help="fault-sim patterns"
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="worker processes for per-fault loops (-1 = all cores, capped at "
        "the machine's core count; results are identical for any value -- "
        "see docs/performance.md)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="journal per-fault results to DIR so a killed campaign can be "
        "resumed (see docs/robustness.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from its --checkpoint-dir "
        "journal, skipping already-completed faults bit-identically",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-chunk timeout: a hung worker is killed and its chunk "
        "retried (default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=2,
        help="extra attempts granted to a failed or timed-out chunk "
        "(default: 2)",
    )
    parser.add_argument(
        "--audit-rate",
        type=_audit_rate_arg,
        default=DEFAULT_AUDIT_RATE,
        metavar="FRACTION",
        help="fraction of faults re-simulated on an independent path to "
        "catch silent result corruption (0 disables; default: "
        f"{DEFAULT_AUDIT_RATE} -- see docs/integrity.md)",
    )
    parser.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="abort on the first integrity violation instead of "
        "quarantining the offending fault and continuing (default: "
        "--no-strict)",
    )
    parser.add_argument(
        "--chaos",
        type=_chaos_arg,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for testing the recovery and "
        "integrity layers, e.g. 'crash:0.15,hang:0.1,bitflip:1,seed:7' "
        "(see docs/integrity.md)",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="FILE",
        help="write a machine-readable campaign/integrity report to FILE",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result store: completed stages are published "
        "to DIR and replayed bit-identically by later runs, query and serve "
        "(see docs/store.md)",
    )
    parser.add_argument(
        "--store-refresh",
        action="store_true",
        help="treat every store lookup as a miss: recompute and republish "
        "(cache busting without deleting the store)",
    )
    parser.add_argument(
        "--shards",
        type=_shards_arg,
        default=None,
        metavar="N",
        help="open --store-dir as a replicated shard fabric of N SQLite "
        "shards (persisted in fabric.json; a later mismatch needs 'store "
        "rebalance' -- see docs/store.md)",
    )
    parser.add_argument(
        "--replicas",
        type=_replicas_arg,
        default=None,
        metavar="R",
        help="copies of every artifact across the fabric, primary included "
        "(default 2 for a new fabric; capped at the shard count)",
    )
    parser.add_argument(
        "--result-json",
        default=None,
        metavar="FILE",
        help="write the deterministic result report (canonical JSON, "
        "byte-identical across cold, resumed and store-replayed runs) to FILE",
    )
    parser.add_argument("--encoding", default="binary", choices=["binary", "gray", "onehot"])
    parser.add_argument(
        "--output-style", default="pla", choices=["pla", "decoded", "minimized"]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    baseline_help = (
        "replay unaffected faults from an earlier design version: a "
        "published netlist fingerprint, a netlist-payload JSON path "
        "(see 'diff --dump'), a catalog design name, or 'auto' for the "
        "most recently published version of this design (needs --store-dir)"
    )

    p = sub.add_parser("classify", help="run the Section-5 classification pipeline")
    p.add_argument("design", choices=design_names())
    p.add_argument("--baseline", default=None, help=baseline_help)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("grade", help="classify + Monte-Carlo power grading")
    p.add_argument("design", choices=design_names())
    p.add_argument("--threshold", type=_fraction_arg, default=0.05)
    p.add_argument("--baseline", default=None, help=baseline_help)
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser(
        "calibrate",
        help="fleet-scale threshold ROC: one activity campaign + the "
        "population matmul kernel (see docs/performance.md)",
    )
    p.add_argument("design", choices=design_names())
    p.add_argument(
        "--instances",
        type=_positive_int,
        default=100_000,
        help="manufactured instances to sample (default: 100000; the "
        "kernel is a matmul, so millions are fine)",
    )
    p.add_argument(
        "--sigma-cap",
        type=_sigma_arg,
        default=0.05,
        help="per-gate-type log-normal capacitance spread (default: 0.05)",
    )
    p.add_argument(
        "--sigma-leak",
        type=_sigma_arg,
        default=0.30,
        help="per-gate-type log-normal leakage spread (default: 0.30)",
    )
    p.add_argument(
        "--sigma-meas",
        type=_sigma_arg,
        default=0.02,
        help="multiplicative tester measurement noise (default: 0.02)",
    )
    p.add_argument(
        "--yield-budget",
        type=_sigma_arg,
        default=0.01,
        help="tolerated fault-free yield loss for the threshold chooser "
        "(default: 0.01)",
    )
    p.add_argument(
        "--fleet-seed",
        type=_nonnegative_int,
        default=7,
        help="population sampling seed (default: 7; results are "
        "byte-identical for a fixed configuration)",
    )
    p.add_argument(
        "--fleet-engine",
        choices=["rowwise", "factored"],
        default="rowwise",
        help="'rowwise' materialises C[instances x rows] (the full "
        "decomposition matmul); 'factored' precontracts the weight/"
        "activity product (default: rowwise)",
    )
    p.add_argument(
        "--threshold",
        type=_fraction_arg,
        default=0.05,
        help="threshold of the embedded scalar grading report (the fleet "
        "sweeps its own grid; default: 0.05)",
    )
    p.add_argument("--baseline", default=None, help=baseline_help)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser(
        "diff",
        help="diff a design against a baseline and project the dirty fraction",
    )
    p.add_argument("design", choices=design_names())
    p.add_argument("--baseline", default=None, help=baseline_help)
    p.add_argument(
        "--dump",
        default=None,
        metavar="PATH",
        help="also write this design's netlist payload JSON (a portable "
        "--baseline input) to PATH",
    )
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("table2", help="Table 2 for all designs")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("store", help="inspect or maintain the --store-dir store")
    p.add_argument(
        "store_op",
        choices=["stats", "gc", "verify", "scrub", "rebalance"],
        help="stats/gc/verify work on any store; scrub runs the fabric's "
        "anti-entropy repair pass; rebalance migrates to the --shards/"
        "--replicas geometry (converting a legacy store in place)",
    )
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser("query", help="filter cached campaigns without simulating")
    p.add_argument("--design", choices=design_names(), default=None)
    p.add_argument("--threshold", type=_fraction_arg, default=None)
    p.add_argument("--verdict", choices=list(QUERY_VERDICTS), default=None)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("serve", help="HTTP endpoint over cached campaign results")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port_arg, default=8357)
    p.add_argument(
        "--no-compute",
        action="store_true",
        help="serve cached results only; a miss returns 404 instead of "
        "running the pipeline",
    )
    p.add_argument(
        "--queue-depth",
        type=_queue_depth_arg,
        default=8,
        help="max compute jobs admitted (queued + running); excess "
        "requests get 503 + Retry-After instead of piling up (default: 8)",
    )
    p.add_argument(
        "--request-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline: a compute that outlives it returns 504, "
        "is quarantined, and its worker slot is reclaimed (default: none)",
    )
    p.add_argument(
        "--serve-workers",
        type=_positive_int,
        default=2,
        help="compute worker threads draining the job queue (default: 2)",
    )
    p.add_argument(
        "--drain-grace",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help="SIGTERM drain budget: finish in-flight jobs for up to this "
        "long while refusing new work (default: 30)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("export", help="write the system netlist (.v or .bench)")
    p.add_argument("design", choices=design_names())
    p.add_argument("out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("stats", help="netlist statistics")
    p.add_argument("design", choices=design_names())
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("strategies", help="separate vs integrated vs power test")
    p.add_argument("design", choices=design_names())
    p.set_defaults(func=_cmd_strategies)

    p = sub.add_parser("worstcase", help="Section-4 maximal non-disruptive corruption")
    p.add_argument("design", choices=design_names())
    p.set_defaults(func=_cmd_worstcase)

    p = sub.add_parser("datapath", help="integrated datapath fault test")
    p.add_argument("design", choices=design_names())
    p.set_defaults(func=_cmd_datapath)

    p = sub.add_parser("compile", help="behavioural text file -> full pipeline")
    p.add_argument("source")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("dump-vcd", help="waveform of one normal-mode run")
    p.add_argument("design", choices=design_names())
    p.add_argument("out")
    p.add_argument("--seed", type=_nonnegative_int, default=1)
    p.set_defaults(func=_cmd_dump_vcd)

    args = parser.parse_args(argv)
    if getattr(args, "chaos", None) and getattr(args, "timeout", None) is None:
        from .testing.chaos import ChaosSpec

        if ChaosSpec.parse(args.chaos).hang:
            parser.error(
                "--chaos hang injection needs --timeout "
                "(a hung worker would otherwise stall the campaign forever)"
            )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
