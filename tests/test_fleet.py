"""Tests for the fleet calibration layer (:mod:`repro.fleet`).

Covers the three layers and their contracts: the activity artifact (the
per-fault integer counters and their store round trip), the population
kernel (sigma=0 reproduces the scalar grading verdicts; ROC monotone;
deterministic JSON; engine equivalence), and the integration surface
(calibrate end-to-end with warm-store zero-simulation replay, the serve
endpoint's validation boundary, and the CLI subcommand).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core.checkpoint import fault_key
from repro.core.errors import CampaignError
from repro.core.grading import grade_sfr_faults, power_detected
from repro.fleet import (
    FleetConfig,
    FleetResult,
    activity_campaign,
    activity_matrix,
    calibrate_fleet,
    calibrate_report_dict,
    choose_threshold,
    recovered_power_uw,
    run_population,
)
from repro.power.estimator import PowerEstimator
from repro.power.montecarlo import DATAPATH_TAG, ActivityTrace
from repro.store.cache import CampaignStore
from repro.store.server import make_server

#: small-but-real Monte-Carlo knobs shared by every campaign in this file
MC = {"seed": 11, "batch_patterns": 64, "max_batches": 3}


@pytest.fixture(scope="module")
def facet_estimator(facet_system):
    return PowerEstimator(facet_system.netlist)


@pytest.fixture(scope="module")
def facet_activity(facet_system, facet_pipeline, facet_estimator):
    return activity_campaign(
        facet_system, facet_pipeline, estimator=facet_estimator, **MC
    )


@pytest.fixture(scope="module")
def facet_seeded_grading(facet_system, facet_pipeline, facet_estimator, facet_activity):
    return grade_sfr_faults(
        facet_system,
        facet_pipeline,
        estimator=facet_estimator,
        threshold=0.05,
        seed_results=facet_activity.grading_seed_results(),
        **MC,
    )


# ------------------------------------------------------------- activity
class TestActivityTrace:
    def test_json_round_trip(self):
        trace = ActivityTrace(
            toggles=np.arange(6, dtype=np.int64).reshape(2, 3),
            load_events=np.array([[7], [9]], dtype=np.int64),
            cycles=4,
            patterns=8,
        )
        back = ActivityTrace.from_json_dict(trace.to_json_dict())
        np.testing.assert_array_equal(back.toggles, trace.toggles)
        np.testing.assert_array_equal(back.load_events, trace.load_events)
        assert back.toggles.dtype == np.int64
        assert (back.cycles, back.patterns) == (4, 8)

    def test_round_trip_with_zero_counter_rows(self):
        # A design without DFFEs serializes (batches, 0) arrays, which JSON
        # flattens to empty lists -- the reshape guard must restore them.
        trace = ActivityTrace(
            toggles=np.ones((2, 3), dtype=np.int64),
            load_events=np.empty((2, 0), dtype=np.int64),
            cycles=4,
            patterns=8,
        )
        back = ActivityTrace.from_json_dict(trace.to_json_dict())
        assert back.load_events.shape == (2, 0)

    def test_mean_activity_normalizes_once(self):
        trace = ActivityTrace(
            toggles=np.array([[8, 0], [8, 16]], dtype=np.int64),
            load_events=np.array([[4], [12]], dtype=np.int64),
            cycles=2,
            patterns=4,
        )
        toggles, loads = trace.mean_activity()
        np.testing.assert_allclose(toggles, [1.0, 1.0])
        np.testing.assert_allclose(loads, [1.0])


class TestActivityCampaign:
    def test_campaign_covers_every_sfr_fault(self, facet_activity, facet_pipeline):
        keys = [fault_key(r.system_site) for r in facet_pipeline.sfr_records]
        assert facet_activity.fault_keys == keys
        assert not facet_activity.store_hit
        assert facet_activity.campaign.completed == len(keys)
        assert facet_activity.baseline.activity is not None
        for key in keys:
            assert facet_activity.by_key[key].activity is not None

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_parallel_campaign_bit_identical(
        self, facet_system, facet_pipeline, facet_estimator, facet_activity, n_jobs
    ):
        parallel = activity_campaign(
            facet_system,
            facet_pipeline,
            estimator=facet_estimator,
            n_jobs=n_jobs,
            **MC,
        )
        assert parallel.baseline.power_uw == facet_activity.baseline.power_uw
        for key in facet_activity.fault_keys:
            a, b = facet_activity.by_key[key], parallel.by_key[key]
            assert a.power_uw == b.power_uw
            np.testing.assert_array_equal(a.activity.toggles, b.activity.toggles)
            np.testing.assert_array_equal(
                a.activity.load_events, b.activity.load_events
            )

    def test_unaligned_batch_passes_counter_check(
        self, facet_system, facet_pipeline, facet_estimator
    ):
        """96-pattern batches run on padded blocks; every result's counters
        still recover its scalar power exactly (the campaign's own
        counter->power check, repeated here explicitly)."""
        campaign = activity_campaign(
            facet_system,
            facet_pipeline,
            estimator=facet_estimator,
            **{**MC, "batch_patterns": 96},
        )
        assert campaign.campaign.completed == len(campaign.fault_keys) > 0
        for key in campaign.fault_keys:
            mc = campaign.by_key[key]
            assert mc.activity.patterns == 96
            assert recovered_power_uw(facet_estimator, mc.activity) == mc.power_uw

    def test_store_round_trip_replays_without_simulation(
        self, facet_system, facet_pipeline, facet_estimator, tmp_path
    ):
        store = CampaignStore(tmp_path / "store")
        cold = activity_campaign(
            facet_system, facet_pipeline, estimator=facet_estimator, store=store, **MC
        )
        assert not cold.store_hit and cold.campaign.completed > 0
        warm = activity_campaign(
            facet_system, facet_pipeline, estimator=facet_estimator, store=store, **MC
        )
        assert warm.store_hit
        assert warm.campaign.completed == 0
        assert warm.campaign.resumed == len(cold.fault_keys)
        for key in cold.fault_keys:
            assert warm.by_key[key].power_uw == cold.by_key[key].power_uw
            np.testing.assert_array_equal(
                warm.by_key[key].activity.toggles, cold.by_key[key].activity.toggles
            )

    def test_seeded_grading_is_bit_identical_to_plain(
        self, facet_system, facet_pipeline, facet_estimator, facet_seeded_grading
    ):
        plain = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            estimator=facet_estimator,
            threshold=0.05,
            **MC,
        )
        seeded = facet_seeded_grading
        assert seeded.campaign.resumed == len(plain.graded)
        assert seeded.campaign.completed == 0
        assert seeded.fault_free_uw == plain.fault_free_uw
        assert [g.power_uw for g in seeded.graded] == [
            g.power_uw for g in plain.graded
        ]
        assert [g.pct_change for g in seeded.graded] == [
            g.pct_change for g in plain.graded
        ]


# ------------------------------------------------------------ population
class TestFleetConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"instances": 0},
            {"sigma_cap": -0.1},
            {"sigma_meas": 1.0},
            {"yield_budget": 1.5},
            {"thresholds": (0.1, 0.05)},
            {"thresholds": (0.05, 0.05)},
            {"thresholds": (0.0, 0.05)},
            {"thresholds": ()},
            {"engine": "gpu"},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(CampaignError):
            FleetConfig(**kwargs).validate()

    def test_default_config_is_valid(self):
        FleetConfig().validate()


def test_choose_threshold_walks_from_tight_end():
    thresholds = [0.01, 0.05, 0.10]
    chosen = choose_threshold(
        thresholds, [50, 10, 0], [[0], [3], [9]], instances=100, yield_budget=0.10
    )
    assert chosen == {
        "threshold": 0.05,
        "yield_loss": 0.10,
        "escape_rate": 0.03,
        "met_budget": True,
    }
    # Budget unreachable: loosest threshold, flagged.
    chosen = choose_threshold(
        thresholds, [50, 40, 30], [[0], [3], [9]], instances=100, yield_budget=0.01
    )
    assert chosen["threshold"] == 0.10
    assert not chosen["met_budget"]


class TestPopulationKernel:
    @pytest.fixture(scope="class")
    def matrices(self, facet_estimator, facet_activity):
        decomp = facet_estimator.cap_decomposition(tag_prefix=DATAPATH_TAG)
        A = activity_matrix(facet_activity, facet_estimator)
        return decomp, A

    def _run(self, facet_estimator, facet_activity, matrices, grading, **overrides):
        decomp, A = matrices
        config = FleetConfig(instances=overrides.pop("instances", 4000), **overrides)
        return run_population(
            facet_estimator,
            decomp,
            A,
            facet_activity.fault_keys,
            config,
            p_ref_uw=grading.fault_free_uw,
            design="facet",
        )

    def test_sigma_zero_reproduces_scalar_grading(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading
    ):
        grading = facet_seeded_grading
        result = self._run(
            facet_estimator,
            facet_activity,
            matrices,
            grading,
            instances=100,
            sigma_cap=0.0,
            sigma_leak=0.0,
            sigma_meas=0.0,
        )
        # Column 0 is the fault-free machine, then campaign fault-key
        # order (grading.graded is pct-sorted); the matmul agrees with
        # the scalar Monte-Carlo mean to float-summation-order precision.
        by_key = {fault_key(g.record.system_site): g for g in grading.graded}
        expected = [grading.fault_free_uw] + [
            by_key[k].power_uw for k in facet_activity.fault_keys
        ]
        np.testing.assert_allclose(result.nominal_uw, expected, rtol=1e-9)
        # Every instance is the nominal chip: zero yield loss everywhere,
        # and per-threshold escapes match the scalar detection verdicts.
        assert result.yield_fail == [0] * len(result.thresholds)
        for i, t in enumerate(result.thresholds):
            undetected = sum(
                1 for g in grading.graded if not power_detected(g.pct_change, t)
            )
            assert sum(result.escapes[i]) == 100 * undetected

    def test_roc_is_monotone_and_chooser_consistent(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading
    ):
        result = self._run(
            facet_estimator, facet_activity, matrices, facet_seeded_grading
        )
        roc = result.roc()
        losses = [r["yield_loss"] for r in roc]
        escapes = [r["escape_rate"] for r in roc]
        assert losses == sorted(losses, reverse=True)
        assert escapes == sorted(escapes)
        chosen = result.chosen
        assert chosen["threshold"] in result.thresholds
        if chosen["met_budget"]:
            assert chosen["yield_loss"] <= result.params["yield_budget"]

    def test_engines_agree_on_counts(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading
    ):
        rowwise = self._run(
            facet_estimator, facet_activity, matrices, facet_seeded_grading
        )
        factored = self._run(
            facet_estimator,
            facet_activity,
            matrices,
            facet_seeded_grading,
            engine="factored",
        )
        assert factored.yield_fail == rowwise.yield_fail
        assert factored.escapes == rowwise.escapes
        assert factored.chosen == rowwise.chosen

    def test_json_is_deterministic_and_round_trips(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading
    ):
        a = self._run(facet_estimator, facet_activity, matrices, facet_seeded_grading)
        b = self._run(facet_estimator, facet_activity, matrices, facet_seeded_grading)
        dump = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)  # noqa: E731
        assert dump(a) == dump(b)
        back = FleetResult.from_json_dict(a.to_json_dict())
        assert back.to_json_dict() == a.to_json_dict()
        assert back == FleetResult.from_json_dict(b.to_json_dict())


# ------------------------------------------------------------ integration
def test_calibrate_end_to_end_with_warm_store(
    facet_system, facet_pipeline, facet_estimator, tmp_path
):
    store = CampaignStore(tmp_path / "store")
    config = FleetConfig(instances=2000)
    cold_fleet, cold_campaign, cold_grading = calibrate_fleet(
        facet_system,
        facet_pipeline,
        config,
        estimator=facet_estimator,
        store=store,
        **MC,
    )
    assert not cold_campaign.store_hit
    assert cold_fleet.instances == 2000

    warm_fleet, warm_campaign, warm_grading = calibrate_fleet(
        facet_system,
        facet_pipeline,
        config,
        estimator=facet_estimator,
        store=store,
        **MC,
    )
    # Warm replay: zero simulation anywhere, and the fleet ROC comes back
    # byte-identical from the store (the matmul is skipped entirely).
    assert warm_campaign.store_hit
    assert warm_campaign.campaign.completed == 0
    assert warm_grading.campaign.completed == 0
    assert warm_fleet.to_json_dict() == cold_fleet.to_json_dict()
    assert warm_fleet.matmul_s == 0.0

    report = calibrate_report_dict(warm_fleet)
    assert report["command"] == "calibrate"
    assert report["design"] == "facet"
    assert len(report["roc"]) == len(config.thresholds)


def test_cli_calibrate_cold_then_warm(tmp_path, capsys):
    args = [
        "--patterns",
        "64",
        "--store-dir",
        str(tmp_path / "store"),
        "--result-json",
        str(tmp_path / "result.json"),
        "calibrate",
        "facet",
        "--instances",
        "2000",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Fleet ROC" in out
    assert "chosen threshold" in out
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["command"] == "calibrate"
    assert result["fleet"]["params"]["instances"] == 2000

    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 faults computed" in out
    warm = json.loads((tmp_path / "result.json").read_text())
    assert warm == result


# -------------------------------------------------------- serve endpoint
def _fetch(url: str):
    req = urllib.request.Request(url)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def fleet_server(tmp_path):
    started = []

    def start(compute_calibrate=None, **knobs):
        store = CampaignStore(tmp_path / "store")
        server = make_server(
            "127.0.0.1",
            0,
            store,
            compute_calibrate=compute_calibrate,
            designs=("facet", "diffeq", "poly"),
            **knobs,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}", server.service

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestCalibrateEndpoint:
    def test_params_parsed_and_forwarded(self, fleet_server):
        seen = []

        def compute_calibrate(design, params):
            seen.append((design, params))
            return {"command": "calibrate", "design": design, "params": params}

        base, _svc = fleet_server(compute_calibrate=compute_calibrate)
        status, body = _fetch(
            f"{base}/campaigns/facet/calibrate"
            "?instances=5000&sigma_cap=0.1&engine=factored"
        )
        assert status == 200
        assert body["design"] == "facet"
        assert seen == [
            ("facet", {"instances": 5000, "sigma_cap": 0.1, "engine": "factored"})
        ]

    def test_identical_requests_coalesce_to_one_compute(self, fleet_server):
        calls = []

        def compute_calibrate(design, params):
            calls.append(design)
            return {"design": design, "params": params}

        base, _svc = fleet_server(compute_calibrate=compute_calibrate)
        for _ in range(2):
            status, _ = _fetch(f"{base}/campaigns/facet/calibrate?instances=5000")
            assert status == 200
        # Second hit rides the per-configuration job key: admitted jobs
        # are keyed by (design, params), so the finished holder is reused
        # only while in flight -- two sequential hits both compute.
        assert calls == ["facet", "facet"]

    @pytest.mark.parametrize(
        "query",
        [
            "instances=zero",
            "instances=0",
            "sigma_cap=1.5",
            "sigma_cap=lots",
            "seed=-1",
            "engine=gpu",
            "threshold=0.05",  # campaign knob, not a fleet knob
            "bogus=1",
        ],
    )
    def test_bad_params_rejected_at_http_boundary(self, fleet_server, query):
        computed = []

        def compute_calibrate(design, params):
            computed.append(design)
            return {}

        base, _svc = fleet_server(compute_calibrate=compute_calibrate)
        status, body = _fetch(f"{base}/campaigns/facet/calibrate?{query}")
        assert status == 400
        assert body["error"] == "InputValidationError"
        assert computed == []

    def test_missing_hook_yields_404(self, fleet_server):
        base, _svc = fleet_server(compute_calibrate=None)
        status, body = _fetch(f"{base}/campaigns/facet/calibrate")
        assert status == 404
        assert body["error"] == "NotCached"
