"""Tests for the parallel execution layer and compile-once engine.

The contract under test: every knob of the compile-once, fault-parallel
engine -- ``n_jobs``, the per-netlist compile cache -- is a pure
performance lever.  Results must be bit-identical to the
serial, per-fault, freshly-compiled baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grading import grade_sfr_faults
from repro.core.parallel import ParallelExecutor, resolve_n_jobs
from repro.hls.system import NormalModeStimulus
from repro.logic.faultsim import fault_simulate
from repro.logic.simulator import CycleSimulator, compile_netlist


def _square(context, item):
    return context * item * item


class TestParallelExecutor:
    def test_serial_matches_parallel(self):
        items = list(range(23))
        serial = ParallelExecutor(n_jobs=1).run(_square, items, 3)
        parallel = ParallelExecutor(n_jobs=2).run(_square, items, 3)
        assert serial == parallel == [3 * i * i for i in items]

    def test_order_preserved_with_chunking(self):
        items = list(range(50))
        out = ParallelExecutor(n_jobs=2, chunk_size=7).run(_square, items, 1)
        assert out == [i * i for i in items]

    def test_empty_items(self):
        assert ParallelExecutor(n_jobs=4).run(_square, [], 1) == []

    def test_resolve_n_jobs(self, monkeypatch):
        import repro.core.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(2) == 2
        assert resolve_n_jobs(5) == 4  # capped at the core count
        assert resolve_n_jobs(-1) == 4


class TestFaultSimParallel:
    def test_n_jobs_bit_identical(self, facet_faultsim_setup):
        system, stim, masks, observe, faults = facet_faultsim_setup
        serial = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks, n_jobs=1
        )
        parallel = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks, n_jobs=4
        )
        assert serial.verdicts == parallel.verdicts
        assert serial.detect_cycle == parallel.detect_cycle


class TestCompiledNetlistCache:
    def test_cache_returns_same_object(self, facet_system):
        netlist = facet_system.netlist
        assert compile_netlist(netlist) is compile_netlist(netlist)

    def test_cached_compile_matches_fresh(self, facet_system):
        """A simulator on the cached compile behaves exactly like one on a
        fresh compile of an identical netlist."""
        from repro.logic.simulator import _compile

        netlist = facet_system.netlist
        cached = compile_netlist(netlist)
        fresh = _compile(netlist)
        rng = np.random.default_rng(7)
        sims = [
            CycleSimulator(netlist, 64, compiled=c, count_toggles=True)
            for c in (cached, fresh)
        ]
        inputs = sorted(netlist.inputs)
        for cycle in range(8):
            bits = {net: rng.integers(0, 2, 64) for net in inputs}
            for sim in sims:
                for net, b in bits.items():
                    sim.drive(net, b)
                sim.settle()
                sim.latch()
        a, b = sims
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.O, b.O)
        assert np.array_equal(a.toggles, b.toggles)

    def test_shared_compile_isolated_state(self, facet_system):
        """Two simulators sharing one CompiledNetlist never alias state."""
        netlist = facet_system.netlist
        compiled = compile_netlist(netlist)
        s1 = CycleSimulator(netlist, 64, compiled=compiled)
        s2 = CycleSimulator(netlist, 64, compiled=compiled)
        for net in netlist.inputs:
            s1.drive_const(net, 1)
            s2.drive_const(net, 0)
        s1.settle()
        s2.settle()
        assert not np.array_equal(s1.O, s2.O)


class TestGradingParallel:
    def test_grading_bit_identical_across_jobs(self, facet_system, facet_pipeline):
        kwargs = dict(batch_patterns=96, max_batches=3)
        serial = grade_sfr_faults(facet_system, facet_pipeline, n_jobs=1, **kwargs)
        parallel = grade_sfr_faults(facet_system, facet_pipeline, n_jobs=2, **kwargs)
        assert serial.fault_free_uw == parallel.fault_free_uw
        assert len(serial.graded) == len(parallel.graded)
        for a, b in zip(serial.graded, parallel.graded):
            assert a.record is b.record or a.record.site == b.record.site
            assert a.power_uw == b.power_uw
            assert a.pct_change == b.pct_change
            assert a.group == b.group


class TestDriveBusWidth:
    def test_drive_bus_rejects_out_of_range(self, facet_system):
        sim = CycleSimulator(facet_system.netlist, 64)
        bus = next(iter(facet_system.input_buses.values()))
        too_wide = np.full(64, 1 << len(bus), dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            sim.drive_bus(list(bus), too_wide)

    def test_stimulus_rejects_overwide_data(self, facet_system):
        system = facet_system
        width = system.rtl.width
        data = {
            k: np.full(64, 1 << width, dtype=np.int64)
            for k in system.rtl.dfg.inputs
        }
        with pytest.raises(ValueError, match="exceeds"):
            NormalModeStimulus(system, data, system.cycles_for(2))
