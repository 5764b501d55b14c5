"""Tests for Monte-Carlo power grading of SFR faults."""

import numpy as np
import pytest

import repro.core.parallel as parallel_mod
from repro.cli import main
from repro.core.checkpoint import campaign_fingerprint, fault_key, open_journal
from repro.core.grading import (
    grade_sfr_faults,
    pick_representative,
    table3_rows,
    power_under_test_set,
)
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.power.estimator import PowerEstimator
from repro.power.montecarlo import (
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_SEED,
    mc_campaign_params,
    monte_carlo_power,
    monte_carlo_power_block,
    shared_batches,
)
from repro.store.cache import CampaignStore


@pytest.fixture(scope="module")
def facet_grading(facet_system, facet_pipeline):
    return grade_sfr_faults(
        facet_system, facet_pipeline, batch_patterns=96, max_batches=4
    )


class TestGrading:
    def test_every_sfr_fault_graded(self, facet_grading, facet_pipeline):
        assert len(facet_grading.graded) == len(facet_pipeline.sfr_records)

    def test_figure7_ordering(self, facet_grading):
        groups = [g.group for g in facet_grading.graded]
        # select-only faults first, then load faults
        if "select" in groups and "load" in groups:
            assert groups.index("load") > groups.index("select")
            first_load = groups.index("load")
            assert all(g == "load" for g in groups[first_load:])
        for name in ("select", "load"):
            powers = [g.power_uw for g in facet_grading.graded if g.group == name]
            assert powers == sorted(powers)

    def test_load_faults_increase_power(self, facet_grading):
        """The paper's guarantee: extra-load SFR faults only increase power
        (gated clocks).  Allow tiny negative noise for zero-effect faults."""
        for g in facet_grading.group("load"):
            assert g.pct_change > -0.5

    def test_group_assignment_matches_classification(self, facet_grading):
        for g in facet_grading.graded:
            expected = "load" if g.record.classification.affects_load_line else "select"
            assert g.group == expected

    def test_detected_flags_respect_threshold(self, facet_grading):
        flags = facet_grading.detected_flags()
        for flag, g in zip(flags, facet_grading.graded):
            assert flag == (abs(g.pct_change) > 100 * facet_grading.threshold)

    def test_summary_counts(self, facet_grading):
        s = facet_grading.summary()
        assert s["n_sfr"] == len(facet_grading.graded)
        assert s["n_select_only"] + s["n_load"] == s["n_sfr"]
        assert s["select_detected"] <= s["n_select_only"]
        assert s["load_detected"] <= s["n_load"]

    def test_some_load_fault_beyond_band(self, facet_grading):
        """Facet's shared load lines produce large increases (paper 7b)."""
        assert facet_grading.summary()["load_detected"] >= 1


class TestRepresentativePicks:
    def test_picks_span_range(self, facet_grading):
        picks = pick_representative(facet_grading, count=5)
        assert len(picks) >= 2
        pcts = [p.pct_change for p in picks]
        assert pcts == sorted(pcts)
        assert picks[0].pct_change == min(g.pct_change for g in facet_grading.graded)
        assert picks[-1].pct_change == max(g.pct_change for g in facet_grading.graded)

    def test_small_set_returns_all(self, facet_grading):
        picks = pick_representative(facet_grading, count=10**6)
        assert len(picks) == len(facet_grading.graded)


class TestTestSets:
    def test_fault_free_power_under_test_set_positive(self, facet_system):
        est = PowerEstimator(facet_system.netlist)
        p = power_under_test_set(facet_system, est, None, seed=0xACE1, n_patterns=64)
        assert p > 0

    def test_different_seeds_different_power(self, facet_system):
        est = PowerEstimator(facet_system.netlist)
        p1 = power_under_test_set(facet_system, est, None, seed=0xACE1, n_patterns=64)
        p2 = power_under_test_set(facet_system, est, None, seed=1, n_patterns=64)
        assert p1 != p2

    def test_table3_rows_structure(self, facet_system, facet_grading):
        est = PowerEstimator(facet_system.netlist)
        picks = pick_representative(facet_grading, count=2)
        rows = table3_rows(
            facet_system, est, facet_grading, picks, seeds=(0xACE1, 1), n_patterns=64
        )
        assert rows[0].label == "fault-free"
        assert len(rows) == 1 + len(picks)
        for row in rows[1:]:
            assert len(row.per_set_uw) == 2
            assert row.per_set_pct is not None

    def test_pct_consistency_across_test_sets(self, facet_system, facet_grading):
        """Paper Table 3: the percentage increase is reasonably consistent
        from test set to test set.  Check the biggest-effect fault agrees
        within a few points between two seeds."""
        est = PowerEstimator(facet_system.netlist)
        picks = [facet_grading.graded[-1]]  # largest power effect
        rows = table3_rows(
            facet_system, est, facet_grading, picks, seeds=(0xACE1, 0xBEEF), n_patterns=256
        )
        pcts = rows[1].per_set_pct
        assert abs(pcts[0] - pcts[1]) < 6.0


# --------------------------------------------- batched-kernel bit identity
def _assert_mc_equal(a, b):
    """Bit-identical MonteCarloResult: exact floats, not approx."""
    assert a.power_uw == b.power_uw
    assert a.batches == b.batches
    assert a.patterns == b.patterns
    assert a.history == b.history
    assert a.converged == b.converged


def _assert_activity_equal(a, b):
    """Bit-identical per-batch integer counters (or both absent)."""
    if a.activity is None or b.activity is None:
        assert a.activity is None and b.activity is None
        return
    assert np.array_equal(a.activity.toggles, b.activity.toggles)
    assert np.array_equal(a.activity.load_events, b.activity.load_events)
    assert (a.activity.cycles, a.activity.patterns) == (
        b.activity.cycles,
        b.activity.patterns,
    )


def _assert_grading_equal(a, b):
    assert a.fault_free_uw == b.fault_free_uw
    assert len(a.graded) == len(b.graded)
    for ga, gb in zip(a.graded, b.graded):
        assert fault_key(ga.record.system_site) == fault_key(gb.record.system_site)
        assert ga.power_uw == gb.power_uw
        assert ga.pct_change == gb.pct_change
        assert ga.group == gb.group


def _assert_grading_matches(reference, grading):
    """Every grade equals the serial per-fault reference power."""
    assert grading.fault_free_uw == reference[None].power_uw
    assert len(grading.graded) == len(reference) - 1
    for g in grading.graded:
        assert g.power_uw == reference[fault_key(g.record.system_site)].power_uw


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the machine has 4 cores so n_jobs > 1 builds a real pool."""
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)


@pytest.fixture(scope="module")
def poly_pipeline(poly_system):
    return run_pipeline(poly_system, PipelineConfig(n_patterns=128))


class TestBlockKernelBitIdentity:
    """monte_carlo_power_block vs the serial per-fault reference."""

    @pytest.mark.parametrize("design", ["facet", "diffeq", "poly"])
    @pytest.mark.parametrize("capture_activity", [False, True])
    def test_matches_serial_per_fault(self, design, capture_activity, request):
        """Powers -- and, when captured, every per-batch counter -- equal
        the serial reference's."""
        system = request.getfixturevalue(f"{design}_system")
        pipeline = request.getfixturevalue(f"{design}_pipeline")
        faults = [r.system_site for r in pipeline.sfr_records][:6]
        assert faults, f"{design} has no SFR faults to grade"
        est = PowerEstimator(system.netlist)
        kwargs = dict(batch_patterns=64, max_batches=4)
        batches = shared_batches(system, **kwargs)
        block = monte_carlo_power_block(
            system,
            est,
            faults,
            batches=batches,
            capture_activity=capture_activity,
            **kwargs,
        )
        for fault, got in zip(faults, block):
            ref = monte_carlo_power(
                system,
                est,
                fault=fault,
                batches=batches,
                capture_activity=capture_activity,
                **kwargs,
            )
            _assert_mc_equal(got, ref)
            _assert_activity_equal(got, ref)

    @pytest.mark.parametrize("rel_tol", [0.5, 1e-12])
    def test_early_and_late_convergence(self, facet_system, facet_pipeline, rel_tol):
        """rel_tol=0.5 converges at min_batches; 1e-12 exhausts the budget
        (converged=False) -- compaction and the non-converged tail must
        both reproduce the serial loop exactly."""
        faults = [r.system_site for r in facet_pipeline.sfr_records][:4]
        est = PowerEstimator(facet_system.netlist)
        kwargs = dict(batch_patterns=64, max_batches=5, rel_tol=rel_tol)
        block = monte_carlo_power_block(facet_system, est, faults, **kwargs)
        for fault, got in zip(faults, block):
            ref = monte_carlo_power(facet_system, est, fault=fault, **kwargs)
            _assert_mc_equal(got, ref)
        if rel_tol == 0.5:
            assert all(r.converged and r.batches == 3 for r in block)
        else:
            assert not any(r.converged for r in block)

    @pytest.mark.parametrize("batch_patterns", [32, 96])
    def test_unaligned_batch_matches_serial(
        self, facet_system, facet_pipeline, batch_patterns
    ):
        """batch_patterns not a multiple of 64 runs on padded blocks: the
        padding bits never toggle or load, so every counter and power
        equals the serial reference's.  Every SFR fault runs: the
        stuck-at-1 load-enable faults are the ones that would load
        padding bits if a force escaped the tail mask."""
        faults = [r.system_site for r in facet_pipeline.sfr_records]
        est = PowerEstimator(facet_system.netlist)
        kwargs = dict(
            batch_patterns=batch_patterns, max_batches=3, capture_activity=True
        )
        block = monte_carlo_power_block(facet_system, est, faults, **kwargs)
        for fault, got in zip(faults, block):
            ref = monte_carlo_power(facet_system, est, fault=fault, **kwargs)
            _assert_mc_equal(got, ref)
            _assert_activity_equal(got, ref)


class TestBatchedGradingBitIdentity:
    """grade_sfr_faults vs the serial per-fault monte_carlo_power."""

    KWARGS = dict(batch_patterns=64, max_batches=3)

    @pytest.fixture(scope="class")
    def serial_reference(self, facet_system, facet_pipeline):
        """Reference power of the baseline (key None) and every SFR fault."""
        est = PowerEstimator(facet_system.netlist)
        reference = {None: monte_carlo_power(facet_system, est, **self.KWARGS)}
        for record in facet_pipeline.sfr_records:
            reference[fault_key(record.system_site)] = monte_carlo_power(
                facet_system, est, fault=record.system_site, **self.KWARGS
            )
        return reference

    @pytest.mark.parametrize("audited", [False, True])
    def test_batched_matches_serial(
        self, facet_system, facet_pipeline, serial_reference, audited
    ):
        """Grades match the serial reference with the differential audit
        off (the block kernel alone) and with every fault audited."""
        grading = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            audit_rate=1.0 if audited else 0.0,
            strict=True,
            **self.KWARGS,
        )
        _assert_grading_matches(serial_reference, grading)
        n_faults = len(serial_reference) - 1
        assert grading.campaign.audited == (n_faults if audited else 0)
        assert grading.campaign.violations == []

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_bit_identical_across_jobs(
        self, facet_system, facet_pipeline, serial_reference, multicore, n_jobs
    ):
        batched = grade_sfr_faults(
            facet_system, facet_pipeline, n_jobs=n_jobs, **self.KWARGS
        )
        _assert_grading_matches(serial_reference, batched)

    def test_resume_serial_journal_into_batched(
        self, facet_system, facet_pipeline, serial_reference, tmp_path
    ):
        """A checkpoint journal holding serial-reference results resumes
        into the block campaign bit-identically: the journal format
        carries no kernel fingerprint, only result-relevant knobs."""
        sfr_keys = [fault_key(r.system_site) for r in facet_pipeline.sfr_records]
        mc_params = mc_campaign_params(
            MC_DEFAULT_SEED,
            self.KWARGS["batch_patterns"],
            self.KWARGS["max_batches"],
            MC_DEFAULT_ITERATIONS_WINDOW,
        )
        journal = open_journal(
            str(tmp_path),
            "grading",
            campaign_fingerprint("grading", facet_pipeline.design, sfr_keys, mc_params),
        )
        # Baseline + the first two faults, as a killed serial campaign
        # would have left them; the resume recomputes the rest.
        journal.record("__fault_free__", serial_reference[None].to_json_dict())
        for key in sfr_keys[:2]:
            journal.record(key, serial_reference[key].to_json_dict())
        resumed = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            checkpoint_dir=str(tmp_path),
            resume=True,
            **self.KWARGS,
        )
        assert resumed.campaign.resumed == 2
        _assert_grading_matches(serial_reference, resumed)

    def test_warm_store_replay(
        self, facet_system, facet_pipeline, serial_reference, tmp_path
    ):
        """A cold campaign publishes to the store; a warm rerun replays it
        bit-identically without simulating."""
        store = CampaignStore(tmp_path / "store")
        cold = grade_sfr_faults(
            facet_system, facet_pipeline, store=store, **self.KWARGS
        )
        assert not any(p.hit for p in store.provenance)
        warm = grade_sfr_faults(
            facet_system, facet_pipeline, store=store, **self.KWARGS
        )
        assert any(p.hit for p in store.provenance)
        _assert_grading_matches(serial_reference, cold)
        _assert_grading_equal(cold, warm)

    def test_cli_result_json_byte_identical(self, tmp_path):
        """The deterministic --result-json report must not change a byte
        when the strict audit re-derives nearly every verdict and power
        through the serial references."""
        plain = tmp_path / "plain.json"
        audited = tmp_path / "audited.json"
        argv = ["--patterns", "64"]
        tail = ["grade", "facet"]
        assert main([*argv, "--result-json", str(plain), *tail]) == 0
        assert (
            main(
                [
                    *argv,
                    "--audit-rate",
                    "0.99",
                    "--strict",
                    "--result-json",
                    str(audited),
                    *tail,
                ]
            )
            == 0
        )
        assert plain.read_bytes() == audited.read_bytes()
