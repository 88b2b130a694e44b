"""Part-level gate fusion and compiled execution plan tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.gates import make_gate
from repro.partition import get_partitioner
from repro.sv.fusion import (
    CompiledPartPlan,
    FusedGate,
    PlanCache,
    compile_part,
    compile_partition,
    plan_fusion_groups,
)
from repro.sv.hier import ExecutionTrace, HierarchicalExecutor
from repro.sv.kernels import apply_matrix
from repro.sv.simulator import StateVectorSimulator, zero_state

from conftest import SUITE_SMALL, random_circuit


def flat_state(qc):
    sim = StateVectorSimulator(qc.num_qubits)
    sim.run(qc)
    return sim.state


class TestGroupPlanner:
    def test_respects_qubit_limit(self):
        qc = generators.build("qft", 8)
        groups = plan_fusion_groups(list(qc), 3, 3)
        assert all(len(g.qubits) <= 3 for g in groups)

    def test_covers_every_gate_exactly_once(self):
        qc = generators.build("qaoa", 8)
        groups = plan_fusion_groups(list(qc), 4)
        seen = sorted(m for g in groups for m in g.members)
        assert seen == list(range(len(qc)))

    def test_dependency_order_only_swaps_disjoint_gates(self):
        # Any pair whose relative order changed must act on disjoint qubits.
        qc = random_circuit(7, 40, seed=3)
        gates = list(qc)
        groups = plan_fusion_groups(gates, 4)
        emitted = [m for g in groups for m in g.members]
        for pos_a, a in enumerate(emitted):
            for b in emitted[pos_a + 1 :]:
                if b < a:  # b originally preceded a but now runs after
                    assert not (set(gates[a].qubits) & set(gates[b].qubits))

    def test_diagonal_groups_marked_and_wider(self):
        # Pure-diagonal chain: rzz ladder + rz sprinkle over 5 qubits.
        gates = [make_gate("rzz", [q, q + 1], [0.3 * (q + 1)]) for q in range(4)]
        gates += [make_gate("rz", [q], [0.1 * (q + 1)]) for q in range(5)]
        groups = plan_fusion_groups(gates, 2, 4)
        assert all(g.diagonal for g in groups)
        # The diagonal limit (4) admits wider groups than the dense cap (2).
        assert max(len(g.qubits) for g in groups) > 2
        assert all(len(g.qubits) <= 4 for g in groups)
        # A dense gate breaks the diagonal run and obeys the dense cap.
        mixed = gates[:4] + [make_gate("h", [0])]
        mgroups = plan_fusion_groups(mixed, 2, 4)
        dense = [g for g in mgroups if not g.diagonal]
        assert dense and all(len(g.qubits) <= 2 for g in dense)

    def test_single_qubit_chain_fuses_to_one_group(self):
        gates = [make_gate("h", [0]), make_gate("t", [0]), make_gate("h", [0])]
        groups = plan_fusion_groups(gates, 2)
        assert len(groups) == 1
        assert groups[0].members == (0, 1, 2)

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            plan_fusion_groups([], 0)
        with pytest.raises(ValueError):
            plan_fusion_groups([], 3, 2)


class TestFusedGate:
    def test_matrix_is_shared_read_only(self):
        plan = compile_part(
            generators.build("qft", 5), range(5), range(5), fuse=True
        )
        op = plan.ops[0]
        with pytest.raises(ValueError):
            op.matrix()[0, 0] = 0.0

    def test_remap_shares_matrix(self):
        g = FusedGate((2, 5), np.eye(4, dtype=np.complex128), False, (0,))
        r = g.remap({2: 0, 5: 1})
        assert r.qubits == (0, 1)
        assert r.matrix() is g.matrix()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FusedGate((0, 1), np.eye(2, dtype=np.complex128), False)


class TestCompiledPlanEquivalence:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_whole_circuit_plan_matches_flat(self, name, n):
        qc = generators.build(name, n)
        plan = compile_part(qc, range(len(qc)), range(n), fuse=True,
                            max_fused_qubits=5)
        state = zero_state(n)
        for op in plan.local_ops():
            apply_matrix(state, op.matrix(), op.qubits, n,
                         diagonal=op.is_diagonal)
        assert np.allclose(state, flat_state(qc), atol=1e-10)

    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    @pytest.mark.parametrize("strategy", ["Nat", "dagP"])
    def test_fused_hierarchical_matches_flat(self, name, n, strategy):
        qc = generators.build(name, n)
        p = get_partitioner(strategy).partition(qc, max(3, n - 3))
        state = zero_state(n)
        HierarchicalExecutor(fuse=True).run(qc, p, state)
        assert np.allclose(state, flat_state(qc), atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 9999), cap=st.integers(1, 6))
    def test_property_random_circuits_any_cap(self, seed, cap):
        qc = random_circuit(7, 30, seed=seed)
        p = get_partitioner("dagP").partition(qc, 5)
        state = zero_state(7)
        HierarchicalExecutor(fuse=True, max_fused_qubits=cap).run(qc, p, state)
        assert np.allclose(state, flat_state(qc), atol=1e-10)

    def test_unfused_plan_one_op_per_gate(self):
        qc = generators.build("qft", 6)
        plan = compile_part(qc, range(len(qc)), range(6), fuse=False)
        assert plan.num_ops == len(qc)
        assert plan.sweeps_saved == 0

    def test_fusion_reduces_sweeps_at_least_2x_on_qft(self):
        # Small-scale version of the bench_fusion acceptance criterion.
        qc = generators.build("qft", 12)
        p = get_partitioner("dagP").partition(qc, 9)
        plans = compile_partition(qc, p, fuse=True, max_fused_qubits=5)
        for plan in plans:
            assert plan.num_ops * 2 <= plan.num_source_gates, (
                plan.num_ops,
                plan.num_source_gates,
            )


class TestPlanCache:
    def test_hits_on_repeated_execution(self):
        qc = generators.build("ising", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        ex = HierarchicalExecutor(fuse=True)
        ex.run(qc, p, zero_state(8))
        assert ex.plan_cache.misses == p.num_parts
        assert ex.plan_cache.hits == 0
        ex.run(qc, p, zero_state(8))
        assert ex.plan_cache.misses == p.num_parts
        assert ex.plan_cache.hits == p.num_parts

    def test_shared_cache_across_executors(self):
        qc = generators.build("bv", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        cache = PlanCache()
        HierarchicalExecutor(fuse=True, plan_cache=cache).run(
            qc, p, zero_state(8)
        )
        misses = cache.misses
        HierarchicalExecutor(
            mode="literal", fuse=True, plan_cache=cache
        ).run(qc, p, zero_state(8))
        assert cache.misses == misses  # second executor fully reused plans

    def test_distinct_options_distinct_entries(self):
        qc = generators.build("bv", 6)
        cache = PlanCache()
        a = cache.get_or_compile(qc, range(len(qc)), range(6), fuse=True)
        b = cache.get_or_compile(qc, range(len(qc)), range(6), fuse=False)
        assert a is not b
        assert cache.misses == 2

    def test_eviction_bound(self):
        qc = generators.build("bv", 6)
        cache = PlanCache(max_entries=2)
        for k in (2, 3, 4):
            cache.get_or_compile(
                qc, range(len(qc)), range(6), max_fused_qubits=k
            )
        assert len(cache) == 2

    def test_gather_offsets_cached_per_plan(self):
        # The factored table is memoised; the composed O(2^n) table is
        # rebuilt on request rather than pinned in the plan cache.
        qc = generators.build("bv", 6)
        plan = compile_part(qc, range(len(qc)), (0, 2, 4), fuse=True)
        outer, inner = plan.structure.offsets(6)
        again = plan.structure.offsets(6)
        assert again[0] is outer and again[1] is inner
        assert plan.gather_table(6).shape == (1 << 3, 1 << 3)
        np.testing.assert_array_equal(
            plan.gather_table(6), outer[:, None] + inner[None, :]
        )


class TestDistributedFusion:
    def test_hisvsim_fused_matches_flat(self):
        from repro.dist import HiSVSimEngine

        qc = generators.build("qft", 9)
        p = get_partitioner("dagP").partition(qc, 7)
        state, report = HiSVSimEngine(4, fuse=True).run(qc, p)
        assert np.allclose(state.to_full(), flat_state(qc), atol=1e-10)
        # Fewer shard sweeps than gates were charged.
        assert report.compute.gates < len(qc)

    def test_hisvsim_fused_dry_matches_real(self):
        from repro.dist import HiSVSimEngine

        qc = generators.build("ising", 9)
        p = get_partitioner("dagP").partition(qc, 7)
        _, real = HiSVSimEngine(4, fuse=True).run(qc, p)
        _, dry = HiSVSimEngine(4, fuse=True, dry_run=True).run(qc, p)
        assert real.comp_seconds == pytest.approx(dry.comp_seconds)
        assert real.comm.total_bytes == dry.comm.total_bytes

    def test_shared_plan_cache_between_engines(self):
        from repro.dist import HiSVSimEngine

        qc = generators.build("bv", 9)
        p = get_partitioner("dagP").partition(qc, 7)
        cache = PlanCache()
        HiSVSimEngine(4, fuse=True, plan_cache=cache).run(qc, p)
        assert cache.misses > 0
        misses = cache.misses
        HiSVSimEngine(8, fuse=True, plan_cache=cache).run(qc, p)
        assert cache.misses == misses  # same parts, plans reused
