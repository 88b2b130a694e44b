"""Gate-kernel tests: every engine against an independent dense reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gates import gate_matrix, make_gate
from repro.sv.fusion import FusedGate, layout_steps
from repro.sv.kernels import (
    apply_circuit,
    apply_gate,
    apply_gate_batched,
    apply_gate_reference,
    apply_layout_steps,
    apply_matrix,
    apply_matrix_batched,
    bytes_touched_for_gate,
    flops_for_gate,
    layout_program,
)
from repro.sv.simulator import random_state, zero_state

from conftest import full_unitary, random_circuit


class TestAgainstDenseReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_match_kron_unitary(self, seed):
        n = 5
        qc = random_circuit(n, 12, seed=seed)
        u = full_unitary(qc)
        state = random_state(n, seed=seed)
        expected = u @ state
        got = apply_circuit(state.copy(), list(qc), n)
        assert np.allclose(got, expected, atol=1e-9)

    def test_single_gates_all_positions(self):
        n = 4
        for name, k in [("h", 1), ("x", 1), ("rz", 1), ("cx", 2), ("swap", 2), ("ccx", 3)]:
            params = (0.7,) if name == "rz" else ()
            from itertools import permutations

            for qs in permutations(range(n), k):
                g = make_gate(name, qs, params)
                qc_like = [g]
                import repro.circuits.circuit as cc

                qc = cc.QuantumCircuit(n)
                qc.append(g)
                u = full_unitary(qc)
                state = random_state(n, seed=1)
                assert np.allclose(
                    apply_gate(state.copy(), g, n), u @ state, atol=1e-9
                ), (name, qs)


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_reference_kernel_matches_fast_kernel(self, seed):
        n = 6
        qc = random_circuit(n, 20, seed=seed)
        a = random_state(n, seed=seed)
        b = a.copy()
        for g in qc:
            apply_gate(a, g, n)
            apply_gate_reference(b, g, n)
        assert np.allclose(a, b, atol=1e-9)

    def test_batched_matches_loop(self):
        n_local, batch = 4, 8
        rng = np.random.default_rng(5)
        states = rng.standard_normal((batch, 16)) + 1j * rng.standard_normal((batch, 16))
        g = make_gate("cx", [1, 3])
        expected = np.stack([apply_gate(s.copy(), g, n_local) for s in states])
        got = apply_gate_batched(states.copy().astype(np.complex128), g, n_local)
        assert np.allclose(got, expected, atol=1e-9)

    def test_batched_diagonal_matches_loop(self):
        n_local, batch = 5, 6
        rng = np.random.default_rng(6)
        states = (
            rng.standard_normal((batch, 32)) + 1j * rng.standard_normal((batch, 32))
        ).astype(np.complex128)
        g = make_gate("cu1", [4, 0], [0.9])
        expected = np.stack([apply_gate(s.copy(), g, n_local) for s in states])
        got = apply_gate_batched(states.copy(), g, n_local)
        assert np.allclose(got, expected, atol=1e-9)

    def test_diagonal_path_matches_dense_path(self):
        n = 5
        state = random_state(n, seed=7)
        m = gate_matrix("rzz", (1.3,))
        dense = apply_matrix(state.copy(), m, (1, 3), n, diagonal=False)
        diag = apply_matrix(state.copy(), m, (1, 3), n, diagonal=True)
        assert np.allclose(dense, diag, atol=1e-10)

    def test_matrix_batched_arbitrary_unitary(self):
        # A random 2-qubit unitary (via QR) applied batched vs per-row.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(a)
        states = (
            rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        ).astype(np.complex128)
        got = apply_matrix_batched(states.copy(), q, (0, 2), 4)
        expected = np.stack(
            [apply_matrix(s.copy(), q, (0, 2), 4) for s in states]
        )
        assert np.allclose(got, expected, atol=1e-9)


class TestInPlaceSemantics:
    def test_apply_gate_returns_same_array(self):
        state = zero_state(3)
        out = apply_gate(state, make_gate("h", [0]), 3)
        assert out is state

    def test_norm_preserved(self):
        state = random_state(6, seed=9)
        qc = random_circuit(6, 30, seed=9)
        apply_circuit(state, list(qc), 6)
        assert np.isclose(np.linalg.norm(state), 1.0)


class TestValidation:
    def test_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_matrix(zero_state(3), np.eye(4), (0,), 3)

    def test_batched_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_matrix_batched(np.zeros((2, 7), dtype=complex), np.eye(2), (0,), 3)

    def test_state_size_mismatch_clear_error(self):
        with pytest.raises(ValueError, match="amplitudes"):
            apply_matrix(zero_state(4), np.eye(2), (0,), 3)

    def test_batched_array_rejected_by_flat_kernel(self):
        # Regression: a (B, 2^n) batch has a matching last axis and used to
        # slip past the guard, dying inside reshape with an opaque error.
        batch = np.zeros((4, 8), dtype=np.complex128)
        with pytest.raises(ValueError, match="apply_matrix_batched"):
            apply_matrix(batch, np.eye(2), (0,), 3)


class TestCostModels:
    def test_flops_single_qubit_matches_paper(self):
        # Paper Sec III-A: 2^(n-1) matvecs of 28 flop each.
        n = 10
        assert flops_for_gate(1, n) == (1 << (n - 1)) * 28

    def test_flops_diagonal_cheaper(self):
        assert flops_for_gate(1, 10, diagonal=True) < flops_for_gate(1, 10)

    def test_flops_monotone_in_arity(self):
        assert flops_for_gate(2, 10) > flops_for_gate(1, 10)
        assert flops_for_gate(3, 10) > flops_for_gate(2, 10)

    def test_bytes_touched(self):
        assert bytes_touched_for_gate(10) == 2 * 16 * 1024


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 6),
)
def test_property_random_circuit_unitary_preserves_norm(seed, n):
    qc = random_circuit(n, 15, seed=seed)
    state = random_state(n, seed=seed)
    apply_circuit(state, list(qc), n)
    assert np.isclose(np.linalg.norm(state), 1.0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_fast_and_reference_kernels_agree(seed):
    n = 5
    qc = random_circuit(n, 10, seed=seed)
    a = random_state(n, seed=seed)
    b = a.copy()
    for g in qc:
        apply_gate(a, g, n)
        apply_gate_reference(b, g, n)
    assert np.allclose(a, b, atol=1e-9)


@st.composite
def _layout_cases(draw):
    """A block width, a 1-8 row count (a power of two, as the sweep's
    blocks are) and 1-8 random ops of 1-5 qubits (dense or diagonal,
    arbitrary qubit sets and operand order)."""
    w = draw(st.integers(1, 8))
    rows = draw(st.sampled_from((1, 2, 4, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, min(5, w)))
        qubits = tuple(draw(st.permutations(range(w)))[:k])
        entries = rng.standard_normal((2, 1 << k, 1 << k))
        matrix = entries[0] + 1j * entries[1]
        diagonal = draw(st.booleans())
        if diagonal:
            matrix = np.diag(np.diag(matrix))
        ops.append(FusedGate(qubits, matrix, diagonal))
    block = rng.standard_normal((rows, 1 << w)) + 1j * rng.standard_normal(
        (rows, 1 << w)
    )
    return w, ops, block


@settings(max_examples=60, deadline=None)
@given(case=_layout_cases())
def test_property_layout_steps_match_sequential_batched(case):
    """The layout-tracking step list is bit-identical to applying each op
    in place on the canonical block: GEMM results do not depend on the
    column order, only the write-back is skipped."""
    w, ops, block = case
    rows = block.shape[0]
    expected = block.copy()
    for op in ops:
        apply_matrix_batched(
            expected, op.matrix(), op.qubits, w, diagonal=op.is_diagonal
        )
    start, steps, final = layout_steps(ops, range(w))
    tensor = block.reshape((rows,) + (2,) * w)  # labels (w, w-1, ..., 0)
    got = apply_layout_steps(
        np.ascontiguousarray(tensor.transpose([w - a for a in start])),
        layout_program(ops, (start, steps, final), w),
    )
    canonical = got.transpose(np.argsort([w - a for a in final]))
    assert np.array_equal(canonical.reshape(rows, 1 << w), expected)


@pytest.mark.parametrize("w", range(1, 18))
def test_diagonal_step_bitwise_equals_broadcast_multiply(w):
    """A layout program's diagonal step (its factor pre-broadcast over the
    trailing axes after the row axis) gives the same bits as
    ``apply_matrix_batched(..., diagonal=True)``, with the row axis at
    every position of the block and 1-row (``literal``) or multi-row
    blocks; at w=8 the 256-row block is the sweep's own."""
    rng = np.random.default_rng(w)
    k = min(w, 7)
    qubits = tuple(int(q) for q in rng.permutation(w)[:k])
    diag = np.exp(1j * rng.uniform(-np.pi, np.pi, 1 << k))
    op = FusedGate(qubits, np.diag(diag), True)
    for rows in (1, 1 << max(1, 16 - w)):
        block = rng.standard_normal((rows, 1 << w)) + 1j * rng.standard_normal(
            (rows, 1 << w)
        )
        expected = apply_matrix_batched(
            block.copy(), op.matrix(), qubits, w, diagonal=True
        )
        tensor = block.reshape((rows,) + (2,) * w)  # labels (w, w-1, ..., 0)
        for row in range(w + 1):
            qubit_order = [int(q) for q in rng.permutation(w)]
            lay = tuple(qubit_order[:row] + [w] + qubit_order[row:])
            step = tuple(lay.index(q) for q in qubits[::-1])
            program = layout_program([op], (lay, (step,), lay), w)
            assert program[0][1].nbytes <= 128 * 1024
            laid = tensor.transpose([w - a for a in lay]).copy()  # C order
            got = apply_layout_steps(laid, program)
            canonical = got.transpose(np.argsort([w - a for a in lay]))
            assert np.array_equal(
                canonical.reshape(rows, 1 << w), expected
            ), (w, rows, row)
