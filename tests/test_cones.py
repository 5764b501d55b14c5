"""Cone closure correctness and cone-engine bit-identity.

Two layers of evidence that the cone-restricted differential engine is a
pure performance lever:

* the structural layer -- the sequential-transitive-fanout closure equals
  brute-force multi-cycle reachability on randomized netlists, and every
  net that actually diverges in a faulted simulation lies inside the
  computed cone;
* the behavioural layer -- cone-engine campaigns produce verdicts and
  detect cycles bit-identical to the serial reference simulator across
  designs, job counts and word-aligned as well as padded (unaligned)
  pattern counts.
"""

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, controller_fault_universe
from repro.hls.system import NormalModeStimulus, hold_masks
from repro.logic.cones import FaultCone, chunk_by_cone, compute_cones
from repro.logic.faults import enumerate_faults
from repro.logic.faultsim import (
    ConeStats,
    GoldenTrace,
    fault_simulate,
    run_golden,
    simulate_one_fault,
)
from repro.logic.simulator import CycleSimulator
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.tpg.tpgr import TPGR


def _random_netlist(rng: np.random.Generator) -> Netlist:
    """A random small sequential netlist (always valid: inputs feed first)."""
    nl = Netlist(name="rand")
    nets = [nl.add_net(f"pi{i}") for i in range(4)]
    for n in nets:
        nl.mark_input(n)
    comb = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND, GateType.NOT]
    for i in range(int(rng.integers(8, 20))):
        out = nl.add_net(f"n{i}")
        gtype = comb[int(rng.integers(len(comb)))] if rng.random() < 0.7 else GateType.DFF
        if gtype is GateType.NOT or gtype is GateType.DFF:
            ins = [nets[int(rng.integers(len(nets)))]]
        else:
            ins = [nets[int(rng.integers(len(nets)))] for _ in range(2)]
        if gtype is GateType.DFF:
            # a flip-flop may read any net, including later ones, without
            # forming a combinational loop -- but only earlier nets exist
            # in this incremental construction, which is fine: the BFS
            # closure is what is under test, not loop topologies.
            nl.add_gate(gtype, out, ins)
        else:
            nl.add_gate(gtype, out, ins)
        nets.append(out)
    nl.mark_output(nets[-1])
    nl.validate()
    return nl


def _brute_force_reach(nl: Netlist, seed: int) -> tuple[set[int], set[int]]:
    """Multi-cycle reachability by repeated single-step propagation.

    One step: a gate reading a disturbed net produces a disturbed output.
    Iterate until the disturbed set stops growing -- the number of rounds
    bounds any number of clock cycles, so this is sequential reachability
    computed the slow, obviously-correct way.
    """
    disturbed = {seed}
    gates: set[int] = set()
    while True:
        grew = False
        for g in nl.gates:
            if any(n in disturbed for n in g.inputs):
                if g.index not in gates:
                    gates.add(g.index)
                    grew = True
                if g.output not in disturbed:
                    disturbed.add(g.output)
                    grew = True
        if not grew:
            return gates, disturbed


class TestConeClosure:
    def test_matches_brute_force_on_random_netlists(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            nl = _random_netlist(rng)
            faults = [
                f for f in enumerate_faults(nl) if f.is_stem and f.value == 1
            ][:10]
            cones = compute_cones(nl, faults)
            for fault in faults:
                gates, nets = _brute_force_reach(nl, fault.net)
                assert cones[fault].gates == gates
                assert cones[fault].nets == nets | {fault.net}

    def test_branch_cone_is_gate_plus_output_closure(self):
        rng = np.random.default_rng(11)
        nl = _random_netlist(rng)
        branch = next(f for f in enumerate_faults(nl) if not f.is_stem)
        cone = compute_cones(nl, [branch])[branch]
        out = nl.gates[branch.gate_index].output
        gates, nets = _brute_force_reach(nl, out)
        assert cone.gates == gates | {branch.gate_index}
        assert cone.nets == nets | {out}

    def test_observable_is_net_intersection(self):
        cone = FaultCone(gates=frozenset({1}), nets=frozenset({3, 4}))
        assert cone.observable([4, 9])
        assert not cone.observable([9])

    def test_divergence_stays_inside_cone(self, facet_faultsim_setup):
        """Empirical containment: every net that differs between a faulted
        and the fault-free simulation lies inside the computed cone."""
        system, stim, _masks, _observe, faults = facet_faultsim_setup
        nl = system.netlist
        picks = faults[:: max(1, len(faults) // 8)]
        cones = compute_cones(nl, picks)
        for fault in picks:
            good = CycleSimulator(nl, stim.n_patterns)
            bad = CycleSimulator(nl, stim.n_patterns, faults=[fault])
            for cycle in range(stim.n_cycles):
                stim.apply(good, cycle)
                stim.apply(bad, cycle)
                good.settle()
                bad.settle()
                differs = (
                    (good.Z[: nl.num_nets] != bad.Z[: nl.num_nets])
                    | (good.O[: nl.num_nets] != bad.O[: nl.num_nets])
                ).any(axis=1)
                diverged = set(np.flatnonzero(differs).tolist())
                assert diverged <= cones[fault].nets, (
                    f"{fault} diverged outside its cone at cycle {cycle}"
                )
                good.latch()
                bad.latch()


class TestChunkByCone:
    def test_partition_preserves_faults(self, facet_faultsim_setup):
        system, _stim, _masks, _observe, faults = facet_faultsim_setup
        cones = compute_cones(system.netlist, faults)
        chunks = chunk_by_cone(faults, cones, 7, system.netlist, key=str)
        flat = [f for c in chunks for f in c]
        assert sorted(flat, key=str) == sorted(faults, key=str)
        assert all(len(c) <= 7 for c in chunks)

    def test_ordering_is_independent_of_input_order(self, facet_faultsim_setup):
        """The fault-key tiebreak pins the chunking for any input order.

        Faults sharing a cone size/signature/depth would otherwise be
        ordered by Python's stable sort -- i.e. by arrival -- and the
        chunk layout (hence worker scheduling) would silently depend on
        enumeration order.  Regression for the deterministic tiebreak.
        """
        system, _stim, _masks, _observe, faults = facet_faultsim_setup
        cones = compute_cones(system.netlist, faults)
        reference = chunk_by_cone(faults, cones, 7, system.netlist, key=str)
        for seed in (3, 17):
            shuffled = list(faults)
            np.random.default_rng(seed).shuffle(shuffled)
            assert (
                chunk_by_cone(shuffled, cones, 7, system.netlist, key=str)
                == reference
            )


def _facet_setup(system, n_patterns: int):
    """The ``facet_faultsim_setup`` campaign at any pattern count."""
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=0xACE1)
    data = {k: np.asarray(v) for k, v in tpgr.generate(n_patterns).items()}
    stim = NormalModeStimulus(system, data, system.cycles_for(3))
    masks = hold_masks(system, stim)
    observe = [n for bus in system.output_buses.values() for n in bus]
    faults = [system.to_system_fault(s) for s in controller_fault_universe(system)]
    return system, stim, masks, observe, faults


def _assert_matches_serial(setup, result):
    """Every verdict and detect cycle equals the serial reference's."""
    system, stim, masks, observe, faults = setup
    golden = run_golden(system.netlist, stim, observe)
    for fault in faults:
        verdict, cycle = simulate_one_fault(
            system.netlist, fault, stim, observe, golden, masks
        )
        assert result.verdicts[fault] is verdict
        assert result.detect_cycle.get(fault, -1) == cycle


class TestConeEngineBitIdentity:
    @pytest.mark.parametrize("stride,n_jobs", [(1, 1), (7, 1), (32, 2), (1, 2)])
    def test_matches_cone_off_and_serial(self, facet_faultsim_setup, stride, n_jobs):
        """The cone engine matches the serial reference -- which simulates
        the whole netlist, i.e. with cone restriction off -- on the full
        fault universe and on sparse every-``stride``-th subsets, whose
        smaller chunks pack faults of less overlapping cones."""
        system, stim, masks, observe, faults = facet_faultsim_setup
        faults = faults[::stride]
        result = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            n_jobs=n_jobs, audit_rate=0.0,
        )
        assert result.cone is not None
        assert result.cone.faults == len(faults)
        setup = (system, stim, masks, observe, faults)
        _assert_matches_serial(setup, result)

    @pytest.mark.parametrize("fixture", ["diffeq_system", "poly_system"])
    def test_other_designs_match(self, fixture, request):
        """The strict near-total audit re-derives almost every verdict
        through the serial reference and aborts on any divergence."""
        from repro.core.pipeline import run_pipeline

        system = request.getfixturevalue(fixture)
        result = run_pipeline(
            system, PipelineConfig(n_patterns=64, audit_rate=0.99, strict=True)
        )
        assert result.campaign.audited > 0
        assert result.campaign.violations == []

    def test_cone_stats_populated(self, facet_faultsim_setup):
        system, stim, masks, observe, faults = facet_faultsim_setup
        res = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
        )
        stats = res.cone
        assert isinstance(stats, ConeStats)
        assert stats.faults == len(faults)
        assert 0 < stats.gate_evals <= stats.gate_evals_full
        assert stats.evaluated_gate_fraction < 1.0
        assert 0.0 <= stats.early_death_rate <= 1.0
        payload = stats.to_json_dict()
        assert payload["gate_evals_full"] == stats.gate_evals_full

    @pytest.mark.parametrize("n_patterns", [48, 100])
    def test_odd_pattern_count_runs_cone_engine(self, facet_system, n_patterns):
        """A pattern count that is not a multiple of 64 runs the cone
        engine on padded blocks and matches the serial reference.
        Death pruning still engages: padding bits never count as a
        possible excitation."""
        setup = _facet_setup(facet_system, n_patterns)
        system, stim, masks, observe, faults = setup
        result = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            audit_rate=0.0,
        )
        assert result.cone is not None
        assert result.cone.faults == len(faults)
        assert result.cone.dead > 0
        _assert_matches_serial(setup, result)


class TestKnobNeutrality:
    def test_golden_trace_is_drop_in_for_list(self):
        z = np.zeros((1, 1), dtype=np.uint64)
        trace = GoldenTrace(observed=[(z, z), (z, z)])
        assert len(trace) == 2
        assert trace[1] == (z, z)
        assert trace.planes is None
