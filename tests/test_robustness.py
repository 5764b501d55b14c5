"""Crash, timeout, checkpoint/resume and fail-fast validation tests.

The contract under test: the resilience layer is invisible in the
results.  A campaign that loses workers, times out hung chunks, or is
killed and resumed from its checkpoint journal produces bit-identical
verdicts and Monte-Carlo powers to a clean uninterrupted run -- and bad
inputs are rejected loudly *before* any fan-out burns compute.

The crash/timeout tests fake a 4-core machine (``os.cpu_count`` is
monkeypatched) so the multi-process paths are exercised even on 1-core
CI runners; the worker processes are real either way.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.parallel as parallel_mod
from repro.core.checkpoint import (
    CampaignJournal,
    campaign_fingerprint,
    fault_key,
    open_journal,
)
from repro.core.errors import (
    CampaignError,
    CheckpointMismatch,
    ChunkTimeout,
    validate_config,
    validate_netlist,
    validate_stimulus,
)
from repro.core.grading import grade_sfr_faults
from repro.core.parallel import ParallelExecutor
from repro.core.pipeline import PipelineConfig, controller_fault_universe, run_pipeline
from repro.hls.system import NormalModeStimulus, hold_masks
from repro.logic.faultsim import fault_simulate
from repro.netlist.netlist import Netlist
from repro.tpg.tpgr import TPGR


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the machine has 4 cores so n_jobs > 1 builds a real pool."""
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)


# ------------------------------------------------------------ test workers
def _double(context, item):
    return item * 2


def _crash_once(context, item):
    """Die hard (no exception, no cleanup) on the first attempt only."""
    flag = Path(context) / "crashed"
    if not flag.exists():
        flag.write_text("x")
        os._exit(13)
    return item * 2


def _hang_once(context, item):
    """Hang far past any test timeout on the first attempt per item."""
    flag = Path(context) / f"hung-{item}"
    if not flag.exists():
        flag.write_text("x")
        time.sleep(300)
    return item * 2


def _always_hang(context, item):
    time.sleep(300)


def _raise_on_three(context, item):
    if item == 3:
        raise ValueError("boom on 3")
    return item


class TestExecutorCrashRecovery:
    def test_worker_crash_rebuilds_pool_and_recovers(self, multicore, tmp_path):
        ex = ParallelExecutor(n_jobs=2, chunk_size=4, max_retries=2, backoff=0.01)
        out = ex.run(_crash_once, [1, 2, 3, 4], str(tmp_path))
        assert out == [2, 4, 6, 8]
        report = ex.last_report
        assert report.crashes >= 1
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert report.completed == 4
        assert all(c.status in ("ok", "serial") for c in report.chunks)

    def test_persistent_crash_degrades_to_serial(self, multicore, tmp_path):
        """A chunk that always kills its worker still completes -- in-process."""
        calls = tmp_path / "log"

        ex = ParallelExecutor(n_jobs=2, chunk_size=2, max_retries=1, backoff=0.01)
        out = ex.run(_crash_in_pool_only, [1, 2], str(calls))
        assert out == [2, 4]
        assert ex.last_report.serial_fallbacks == 1
        assert ex.last_report.crashes >= 1

    def test_worker_exception_is_retried_then_reraised(self, multicore):
        ex = ParallelExecutor(n_jobs=2, chunk_size=2, max_retries=1, backoff=0.01)
        with pytest.raises(ValueError, match="boom on 3"):
            ex.run(_raise_on_three, [1, 2, 3, 4], None)
        report = ex.last_report
        assert report.retries >= 1
        assert report.serial_fallbacks == 1  # the in-process replay that raised


def _crash_in_pool_only(context, item):
    """Crash only when running inside a worker process (pool attempts),
    succeed when replayed in-process by the serial fallback."""
    import repro.core.parallel as P

    if P._WORKER_STATE is not None:
        os._exit(13)
    return item * 2


class TestExecutorTimeouts:
    def test_hung_worker_killed_and_retried(self, multicore, tmp_path):
        ex = ParallelExecutor(
            n_jobs=2, chunk_size=2, timeout=2.0, max_retries=3, backoff=0.01
        )
        out = ex.run(_hang_once, [5, 6], str(tmp_path))
        assert out == [10, 12]
        report = ex.last_report
        assert report.timeouts >= 1
        assert report.pool_rebuilds >= 1
        assert report.completed == 2

    def test_timeout_budget_exhausted_raises_chunk_timeout(self, multicore):
        ex = ParallelExecutor(
            n_jobs=2, chunk_size=2, timeout=0.4, max_retries=1, backoff=0.01
        )
        start = time.monotonic()
        with pytest.raises(ChunkTimeout):
            ex.run(_always_hang, [1, 2], None)
        # two attempts at 0.4 s each, not the worker's 300 s sleep
        assert time.monotonic() - start < 30
        assert ex.last_report.timeouts >= 2
        assert isinstance(ChunkTimeout("x"), TimeoutError)


class TestExecutorEdgeCases:
    def test_empty_items_never_builds_a_pool(self, multicore, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise AssertionError("pool must not be constructed")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _no_pool)
        ex = ParallelExecutor(n_jobs=4)
        assert ex.run(_double, [], None) == []
        assert ex.last_report.n_chunks == 0

    def test_single_item_never_builds_a_pool(self, multicore, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise AssertionError("pool must not be constructed")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _no_pool)
        assert ParallelExecutor(n_jobs=4).run(_double, [7], None) == [14]

    def test_none_context_ships_to_workers(self, multicore):
        out = ParallelExecutor(n_jobs=2, chunk_size=2).run(_double, [1, 2, 3], None)
        assert out == [2, 4, 6]

    def test_on_chunk_fires_for_every_item(self, multicore):
        seen: list[tuple[int, int]] = []

        def observer(items, results):
            seen.extend(zip(items, results))

        out = ParallelExecutor(n_jobs=2, chunk_size=2).run(
            _double, [1, 2, 3, 4, 5], None, on_chunk=observer
        )
        assert out == [2, 4, 6, 8, 10]
        assert sorted(seen) == [(1, 2), (2, 4), (3, 6), (4, 8), (5, 10)]


# ---------------------------------------------------------------- journals
class TestCampaignJournal:
    def test_fingerprint_is_deterministic_and_sensitive(self):
        base = campaign_fingerprint("faultsim", "diffeq", ["1:2:3:0"], {"seed": 1})
        assert base == campaign_fingerprint("faultsim", "diffeq", ["1:2:3:0"], {"seed": 1})
        assert base != campaign_fingerprint("grading", "diffeq", ["1:2:3:0"], {"seed": 1})
        assert base != campaign_fingerprint("faultsim", "facet", ["1:2:3:0"], {"seed": 1})
        assert base != campaign_fingerprint("faultsim", "diffeq", ["1:2:3:1"], {"seed": 1})
        assert base != campaign_fingerprint("faultsim", "diffeq", ["1:2:3:0"], {"seed": 2})

    def test_record_and_resume_roundtrip(self, tmp_path):
        j = open_journal(tmp_path, "faultsim", "f" * 20)
        j.record("a", ["detected", 4])
        j.record("b", ["undetected", -1])
        j2 = open_journal(tmp_path, "faultsim", "f" * 20, resume=True)
        assert j2.done == {"a": ["detected", 4], "b": ["undetected", -1]}
        assert j2.n_resumed == 2

    def test_fresh_open_discards_previous_run(self, tmp_path):
        j = open_journal(tmp_path, "faultsim", "f" * 20)
        j.record("a", [1])
        j2 = open_journal(tmp_path, "faultsim", "f" * 20, resume=False)
        assert j2.done == {} and j2.n_resumed == 0

    def test_foreign_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "faultsim-xyz.jsonl"
        CampaignJournal(path, "a" * 20, "faultsim").record("k", [1])
        with pytest.raises(CheckpointMismatch, match="refusing to resume"):
            CampaignJournal(path, "b" * 20, "faultsim", resume=True)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "faultsim-xyz.jsonl"
        path.write_text("this is not a checkpoint\n")
        with pytest.raises(CheckpointMismatch):
            CampaignJournal(path, "a" * 20, "faultsim", resume=True)

    def test_torn_tail_from_a_kill_is_dropped(self, tmp_path):
        path = tmp_path / "faultsim-xyz.jsonl"
        j = CampaignJournal(path, "a" * 20, "faultsim")
        j.record("done", [1])
        with open(path, "a") as f:
            f.write('{"key": "torn", "val')  # no newline: a SIGKILL signature
        j2 = CampaignJournal(path, "a" * 20, "faultsim", resume=True)
        assert j2.done == {"done": [1]}

    def test_interior_corruption_rejected(self, tmp_path):
        path = tmp_path / "faultsim-xyz.jsonl"
        j = CampaignJournal(path, "a" * 20, "faultsim")
        j.record("a", [1])
        lines = path.read_text().splitlines()
        lines[1] = "garbage {{{"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointMismatch, match="corrupt"):
            CampaignJournal(path, "a" * 20, "faultsim", resume=True)

    def test_bit_flip_inside_a_record_fails_its_crc(self, tmp_path):
        """A flipped digit still parses as JSON; only the CRC notices."""
        path = tmp_path / "faultsim-xyz.jsonl"
        j = CampaignJournal(path, "a" * 20, "faultsim")
        j.record("fault0", ["detected", 41])
        j.record("fault1", ["undetected", -1])
        lines = path.read_text().splitlines()
        assert '"value": ["detected", 41]' in lines[1]
        lines[1] = lines[1].replace('["detected", 41]', '["detected", 43]')
        path.write_text("\n".join(lines) + "\n")
        json.loads(lines[1])  # the tampered line is still valid JSON
        with pytest.raises(CheckpointMismatch, match="CRC"):
            CampaignJournal(path, "a" * 20, "faultsim", resume=True)

    def test_torn_tail_without_crc_is_still_forgiven(self, tmp_path):
        """A SIGKILL can tear the line before the CRC field is written."""
        path = tmp_path / "faultsim-xyz.jsonl"
        j = CampaignJournal(path, "a" * 20, "faultsim")
        j.record("done", [1])
        with open(path, "a") as f:
            f.write('{"key": "torn", "value": [2], "crc": "dead')  # no newline
        j2 = CampaignJournal(path, "a" * 20, "faultsim", resume=True)
        assert j2.done == {"done": [1]}

    def test_non_finite_values_rejected_at_write_time(self, tmp_path):
        j = CampaignJournal(tmp_path / "g.jsonl", "a" * 20, "grading")
        with pytest.raises(ValueError):
            j.record("bad", {"power_uw": float("nan")})
        assert "bad" not in j.done  # the in-memory state stayed consistent
        j.record("good", {"power_uw": 1.5})  # journal still usable


# ------------------------------------------------- campaign resume (faults)
@pytest.fixture(scope="module")
def facet_campaign(facet_system):
    system = facet_system
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=0xACE1)
    data = {k: np.asarray(v) for k, v in tpgr.generate(64).items()}
    stim = NormalModeStimulus(system, data, system.cycles_for(3))
    masks = hold_masks(system, stim)
    observe = [n for bus in system.output_buses.values() for n in bus]
    faults = [system.to_system_fault(s) for s in controller_fault_universe(system)]
    return system, stim, masks, observe, faults


class TestFaultSimResume:
    def test_interrupted_campaign_resumes_bit_identical(self, facet_campaign, tmp_path):
        system, stim, masks, observe, faults = facet_campaign
        clean = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks
        )
        # "Kill" the campaign after an arbitrary prefix of the fault list...
        fp = "c" * 20
        half = len(faults) // 2
        j = open_journal(tmp_path, "faultsim", fp)
        partial = fault_simulate(
            system.netlist, faults[:half], stim, observe=observe, valid_masks=masks,
            checkpoint=j,
        )
        assert partial.campaign.completed == half
        # ...then resume the full fault list against the journal.
        j2 = open_journal(tmp_path, "faultsim", fp, resume=True)
        resumed = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            checkpoint=j2,
        )
        assert resumed.campaign.resumed == half
        assert resumed.campaign.completed == len(faults) - half
        assert resumed.verdicts == clean.verdicts
        assert resumed.detect_cycle == clean.detect_cycle

    def test_fully_journaled_campaign_skips_all_simulation(self, facet_campaign, tmp_path):
        system, stim, masks, observe, faults = facet_campaign
        fp = "d" * 20
        j = open_journal(tmp_path, "faultsim", fp)
        clean = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            checkpoint=j,
        )
        j2 = open_journal(tmp_path, "faultsim", fp, resume=True)
        replayed = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            checkpoint=j2,
        )
        assert replayed.campaign.resumed == len(faults)
        assert replayed.campaign.completed == 0
        assert replayed.verdicts == clean.verdicts
        assert replayed.detect_cycle == clean.detect_cycle


class TestPipelineResume:
    def test_pipeline_checkpoint_roundtrip(self, facet_system, tmp_path):
        config = PipelineConfig(n_patterns=64, checkpoint_dir=str(tmp_path))
        first = run_pipeline(facet_system, config)
        resumed = run_pipeline(
            facet_system,
            PipelineConfig(n_patterns=64, checkpoint_dir=str(tmp_path), resume=True),
        )
        assert resumed.campaign.resumed == first.total_faults
        assert [r.category for r in resumed.records] == [
            r.category for r in first.records
        ]
        assert resumed.counts() == first.counts()


class TestGradingResume:
    def test_grading_checkpoint_roundtrip(self, facet_system, facet_pipeline, tmp_path):
        kwargs = dict(batch_patterns=64, max_batches=2)
        clean = grade_sfr_faults(facet_system, facet_pipeline, **kwargs)
        first = grade_sfr_faults(
            facet_system, facet_pipeline, checkpoint_dir=str(tmp_path), **kwargs
        )
        resumed = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            checkpoint_dir=str(tmp_path),
            resume=True,
            **kwargs,
        )
        assert resumed.campaign.resumed == len(clean.graded)
        for a, b in zip(clean.graded, resumed.graded):
            assert a.power_uw == b.power_uw  # bit-identical, not approx
            assert a.pct_change == b.pct_change
            assert a.group == b.group
        assert resumed.fault_free_uw == clean.fault_free_uw

    def test_tampered_grading_checkpoint_rejected(
        self, facet_system, facet_pipeline, tmp_path
    ):
        kwargs = dict(batch_patterns=64, max_batches=2)
        grade_sfr_faults(
            facet_system, facet_pipeline, checkpoint_dir=str(tmp_path), **kwargs
        )
        (journal_path,) = tmp_path.glob("grading-*.jsonl")
        lines = journal_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * 20  # somebody else's campaign
        lines[0] = json.dumps(header)
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointMismatch):
            grade_sfr_faults(
                facet_system,
                facet_pipeline,
                checkpoint_dir=str(tmp_path),
                resume=True,
                **kwargs,
            )


# ---------------------------------------------------- fail-fast validation
class TestFailFastValidation:
    def test_bad_configs_rejected(self):
        for bad in [
            PipelineConfig(n_patterns=0),
            PipelineConfig(iterations_window=0),
            PipelineConfig(hold_cycles=0),
            PipelineConfig(iteration_counts=()),
            PipelineConfig(iteration_counts=(0,)),
            PipelineConfig(tpgr_seed=-1),
            PipelineConfig(timeout=-2.0),
            PipelineConfig(max_retries=-1),
        ]:
            with pytest.raises(CampaignError):
                validate_config(bad)
        validate_config(PipelineConfig())  # the defaults are valid

    def test_pipeline_rejects_bad_config_before_simulating(self, facet_system):
        with pytest.raises(CampaignError, match="n_patterns"):
            run_pipeline(facet_system, PipelineConfig(n_patterns=0))

    def test_grading_rejects_bad_knobs(self, facet_system, facet_pipeline):
        with pytest.raises(CampaignError, match="threshold"):
            grade_sfr_faults(facet_system, facet_pipeline, threshold=1.5)
        with pytest.raises(CampaignError, match="max_batches"):
            grade_sfr_faults(facet_system, facet_pipeline, max_batches=0)
        with pytest.raises(CampaignError, match="timeout"):
            grade_sfr_faults(facet_system, facet_pipeline, timeout=0)

    def test_empty_netlist_rejected(self):
        with pytest.raises(CampaignError, match="no gates"):
            validate_netlist(Netlist(name="empty"))

    def test_degenerate_stimulus_rejected(self):
        with pytest.raises(CampaignError, match="patterns"):
            validate_stimulus(SimpleNamespace(n_patterns=0, n_cycles=5, apply=lambda s, c: None))
        with pytest.raises(CampaignError, match="cycles"):
            validate_stimulus(SimpleNamespace(n_patterns=8, n_cycles=0, apply=lambda s, c: None))
        with pytest.raises(CampaignError, match="apply"):
            validate_stimulus(SimpleNamespace(n_patterns=8, n_cycles=5, apply=None))

    def test_valid_system_passes(self, facet_system):
        validate_netlist(facet_system.netlist)  # must not raise


class TestFaultKey:
    def test_fault_keys_unique_per_universe(self, facet_campaign):
        _, _, _, _, faults = facet_campaign
        keys = [fault_key(f) for f in faults]
        assert len(set(keys)) == len(keys)
