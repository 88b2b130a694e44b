"""Part-level gate fusion and compiled execution plan tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_DEFS, make_gate
from repro.partition import get_partitioner
from repro.sv.fusion import (
    CompiledPartPlan,
    FusedGate,
    FusionGroup,
    PartPlanStructure,
    PlanCache,
    _affine_action,
    build_part_structure,
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


#: Permutation, diagonal and dense gates for the structural-diagonal tests.
STRUCTURAL_VOCAB = (
    "x", "y", "cx", "cy", "cz", "swap", "ccx", "u1", "rz", "rzz", "h", "rx",
)


def _with_params(names_qubits, rng):
    """Gates of a fixed structure with freshly drawn parameters."""
    return [
        make_gate(
            name,
            qubits,
            tuple(rng.uniform(-np.pi, np.pi, GATE_DEFS[name].num_params)),
        )
        for name, qubits in names_qubits
    ]


@st.composite
def _structures(draw):
    """A random gate structure (names + operands) over up to 7 qubits and
    a fusion cap.  Some gates come as sandwiches ``P · (1-3 gates) · P``
    of a gate ``P`` (the middle often all diagonal), so that permutation
    ladders composing to the identity, and near misses, are common."""
    n = draw(st.integers(1, 7))
    names = [v for v in STRUCTURAL_VOCAB if GATE_DEFS[v].num_qubits <= n]

    diagonal = [v for v in names if GATE_DEFS[v].diagonal]

    def gate(pool):
        name = draw(st.sampled_from(pool))
        k = GATE_DEFS[name].num_qubits
        return name, tuple(draw(st.permutations(range(n)))[:k])

    structure = []
    for _ in range(draw(st.integers(1, 12))):
        outer = gate(names)
        if draw(st.booleans()):
            structure.append(outer)
            continue
        pool = draw(st.sampled_from((names, diagonal)))
        inner = [gate(pool) for _ in range(draw(st.integers(1, 3)))]
        structure += [outer] + inner + [outer]
    return n, structure, draw(st.integers(1, 5))


def _off_diagonal_nonzeros(matrix):
    return int(np.count_nonzero(matrix - np.diag(np.diag(matrix))))


class TestStructuralDiagonal:
    @settings(max_examples=120, deadline=None)
    @given(case=_structures(), seed=st.integers(0, 2**32 - 1))
    def test_flagged_groups_are_diagonal_for_any_parameters(self, case, seed):
        n, structure, cap = case
        rng = np.random.default_rng(seed)
        draws = [_with_params(structure, rng) for _ in range(2)]
        circuits = [QuantumCircuit(n), QuantumCircuit(n)]
        for qc, gates in zip(circuits, draws):
            for g in gates:
                qc.append(g)
        s, again = (
            build_part_structure(
                qc, range(len(qc)), range(n), max_fused_qubits=cap
            )
            for qc in circuits
        )
        # Flags come from names and operands only.
        assert again.groups == s.groups
        for gates in draws:
            plan = s.bind(gates)
            # Every bind carries the structure's flags.
            assert [op.is_diagonal for op in plan.ops] == [
                g.diagonal for g in s.groups
            ]
            for op in plan.ops:
                if op.is_diagonal:
                    assert _off_diagonal_nonzeros(op.matrix()) == 0
        for grp in s.groups:
            # The member-diagonal groups of the old rule stay flagged.
            if all(draws[0][m].is_diagonal for m in grp.members):
                assert grp.diagonal

    @pytest.mark.parametrize(
        "gates,diagonal",
        [
            ([("cx", (0, 1)), ("u1", (1,)), ("cx", (0, 1))], True),
            ([("cx", (0, 1)), ("rz", (1,)), ("cx", (0, 1))], True),
            ([("x", (0,)), ("x", (0,))], True),
            ([("swap", (0, 1)), ("swap", (1, 0))], True),
            ([("h", (0,)), ("u1", (0,)), ("h", (0,))], False),
            ([("rx", (0,)), ("rz", (0,))], False),
            ([("cx", (0, 1)), ("u1", (1,)), ("cx", (1, 0))], False),
            # ccx is a nonlinear permutation: conservatively not tracked.
            ([("ccx", (0, 1, 2)), ("ccx", (0, 1, 2))], False),
        ],
        ids=[
            "cx-u1-cx", "cx-rz-cx", "x-x", "swap-swap",
            "h-u1-h", "rx-rz", "cx-u1-reversed-cx", "ccx-ccx",
        ],
    )
    def test_named_groups(self, gates, diagonal):
        bound = _with_params(gates, np.random.default_rng(0))
        (group,) = plan_fusion_groups(bound, 3)
        assert group.diagonal is diagonal
        k = len(group.qubits)
        assert group.qubits == tuple(range(k))
        qc = QuantumCircuit(k)
        for g in bound:
            qc.append(g)
        (op,) = compile_part(qc, range(len(qc)), range(k)).ops
        assert op.is_diagonal is diagonal
        product = _dense_product(bound, k)
        assert np.allclose(op.matrix(), product, atol=1e-12)
        if diagonal:
            assert _off_diagonal_nonzeros(product) == 0

    def test_qft_ladders_flagged_beyond_all_diagonal_members(self):
        qc = generators.build("qft", 8)
        groups = plan_fusion_groups(list(qc), 5)
        assert sum(g.diagonal for g in groups) > sum(
            all(qc[m].is_diagonal for m in g.members) for g in groups
        )

    def test_bind_rejects_a_wrong_diagonal_flag(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).u1(0.4, 1)
        wrong = PartPlanStructure(
            (0, 1), (FusionGroup((0, 1, 2), (0, 1), True),), 3, True, 5
        )
        with pytest.raises(ValueError, match="marked diagonal"):
            wrong.bind(qc.gates)
        single = PartPlanStructure(
            (0,), (FusionGroup((0,), (0,), True),), 1, True, 5
        )
        with pytest.raises(ValueError, match="marked diagonal"):
            single.bind(QuantumCircuit(1).h(0).gates)

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_non_finite_parameter_in_a_ladder_binds(self, theta):
        # The GEMM steps spread nan off the diagonal; the flag stays and
        # the bind guard does not blame it.
        qc = QuantumCircuit(2).cx(0, 1).u1(theta, 1).cx(0, 1)
        (op,) = compile_part(qc, range(3), range(2)).ops
        assert op.is_diagonal
        assert not np.isfinite(op.matrix()).all()

    @pytest.mark.parametrize("name", sorted(GATE_DEFS))
    def test_affine_action_matches_the_matrix(self, name):
        action = _affine_action(name)
        if not action:  # not a permutation, or diagonal (nothing moves)
            return
        matrix = GATE_DEFS[name].factory()
        for j in range(len(matrix)):
            image = 0
            for i, (const, sources) in enumerate(action):
                bit = const
                for b in sources:
                    bit ^= j >> b & 1
                image |= bit << i
            assert np.count_nonzero(matrix[:, j]) == 1
            assert matrix[image, j] != 0, (name, j, image)


def _dense_product(gates, n):
    """Dense product of ``gates`` on ``n`` qubits via the flat kernels."""
    cols = np.eye(1 << n, dtype=np.complex128)
    for col in cols:
        for g in gates:
            apply_matrix(col, g.matrix(), g.qubits, n)
    return cols.T


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
