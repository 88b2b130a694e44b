"""Pauli observable tests against dense operator construction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.sv.pauli import energy, expectations, pauli_expectation
from repro.sv.simulator import StateVectorSimulator, random_state, zero_state

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(term) -> np.ndarray:
    """Kron expansion; term[q] acts on qubit q (qubit 0 = LSB)."""
    if isinstance(term, tuple):  # (num_qubits, {qubit: op})
        n, ops = term
        term = "".join(ops.get(q, "I") for q in range(n))
    op = np.eye(1, dtype=complex)
    for c in reversed(term.upper()):  # highest qubit leftmost in kron
        op = np.kron(op, PAULIS[c])
    return op


class TestAgainstDense:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        term=st.text(alphabet="IXYZ", min_size=4, max_size=4),
    )
    def test_matches_dense(self, seed, term):
        state = random_state(4, seed=seed)
        got = pauli_expectation(state, term, 4)
        want = float(np.real(np.conj(state) @ dense_pauli(term) @ state))
        assert got == pytest.approx(want, abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_dict_terms_match_dense(self, data):
        """Any width 1..7 and any qubit subset (non-adjacent, top, bottom)."""
        n = data.draw(st.integers(1, 7), label="n")
        ops = data.draw(
            st.dictionaries(st.integers(0, n - 1), st.sampled_from("IXYZxyz")),
            label="ops",
        )
        state = random_state(n, seed=data.draw(st.integers(0, 9999)))
        dense = dense_pauli((n, {q: c.upper() for q, c in ops.items()}))
        want = np.conj(state) @ dense @ state
        got = pauli_expectation(state, ops, n)
        assert got == pytest.approx(float(want.real), abs=1e-12)

    @pytest.mark.parametrize(
        "ops",
        [{0: "Y"}, {6: "Y"}, {0: "Y", 6: "Y"}, {0: "X", 3: "Y", 6: "Z"},
         {1: "Y", 2: "Y", 4: "Y"}, {0: "Y", 1: "Y", 5: "Y", 6: "Y"},
         {q: "Z" for q in range(7)}, {q: "Y" for q in range(7)}],
    )
    def test_edge_qubits_and_y_parities(self, ops):
        state = random_state(7, seed=3)
        want = np.conj(state) @ dense_pauli((7, ops)) @ state
        assert pauli_expectation(state, ops, 7) == pytest.approx(
            float(want.real), abs=1e-12
        )

    def test_z_on_zero_state(self):
        assert pauli_expectation(zero_state(3), "ZII", 3) == pytest.approx(1.0)
        assert pauli_expectation(zero_state(3), "ZZZ", 3) == pytest.approx(1.0)

    def test_x_on_plus_state(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        sim = StateVectorSimulator(2)
        sim.run(qc)
        assert pauli_expectation(sim.state, "XI", 2) == pytest.approx(1.0)
        assert pauli_expectation(sim.state, "IX", 2) == pytest.approx(0.0)

    def test_y_eigenstate(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.s(0)  # S H |0> = |+i>
        sim = StateVectorSimulator(1)
        sim.run(qc)
        assert pauli_expectation(sim.state, "Y", 1) == pytest.approx(1.0)

    def test_dict_form(self):
        state = zero_state(4)
        assert pauli_expectation(state, {1: "Z", 3: "Z"}, 4) == pytest.approx(1.0)

    def test_ghz_correlations(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cx(1, 2)
        sim = StateVectorSimulator(3)
        sim.run(qc)
        assert pauli_expectation(sim.state, "ZZI", 3) == pytest.approx(1.0)
        assert pauli_expectation(sim.state, "ZII", 3) == pytest.approx(0.0)
        assert pauli_expectation(sim.state, "XXX", 3) == pytest.approx(1.0)


def index_mask_expectation(state, ops):
    """The arange/XOR-mask formula the fold kernel replaced."""
    idx = np.arange(state.size, dtype=np.int64)
    xmask = 0
    phase = np.ones(state.size, dtype=np.complex128)
    for q, c in ops.items():
        bit = (idx >> q) & 1
        if c == "Z":
            phase *= 1.0 - 2.0 * bit
        elif c == "X":
            xmask |= 1 << q
        else:
            xmask |= 1 << q
            phase *= -1j * (1.0 - 2.0 * bit)
    if xmask == 0:
        return float(np.real(np.sum(phase * np.abs(state) ** 2)))
    return float(np.real(np.sum(np.conj(state) * phase * state[idx ^ xmask])))


TERMS_9 = [
    "ZIIIIIIIZ", {0: "X"}, {8: "Y"}, {2: "Z", 5: "Z"}, {1: "X", 4: "Z"},
    {0: "Y", 3: "X", 8: "Z"}, {2: "Z", 5: "Z"}, {0: "X"}, "YYYIIIIII",
    {7: "Z"}, "IIIIIIIII", {1: "X", 4: "Y"}, {1: "X", 4: "X"},
]


class TestBatched:
    def test_entries_bitwise_equal_standalone(self):
        """A term's value never depends on the other terms in the list."""
        state = random_state(9, seed=5)
        alone = [pauli_expectation(state, t, 9) for t in TERMS_9]
        assert expectations(state, TERMS_9, 9) == alone
        rng = np.random.default_rng(0)
        for _ in range(10):
            pick = rng.choice(len(TERMS_9), size=5).tolist()
            got = expectations(state, [TERMS_9[k] for k in pick], 9)
            assert np.array(got).tobytes() == np.array(
                [alone[k] for k in pick]
            ).tobytes()

    def test_energy_is_weighted_sum(self):
        state = random_state(9, seed=6)
        ham = [(0.5 + k, t) for k, t in enumerate(TERMS_9)]
        want = sum(c * pauli_expectation(state, t, 9) for c, t in ham)
        assert energy(state, iter(ham), 9) == want
        assert energy(state, [], 9) == 0

    def test_one_weight_vector_alive_at_a_time(self):
        # 16 qubits, so numpy's fixed 8192-element ufunc buffer is small
        # next to the 1 MiB state.
        state = random_state(16, seed=8)
        terms = [{0: "X"}, {15: "X", 2: "Z"}, {5: "Z"}, {3: "Y", 9: "Z"},
                 {4: "X"}, {1: "Y"}]
        tracemalloc.start()
        try:
            expectations(state, terms, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * state.nbytes

    def test_empty_term_list(self):
        assert expectations(random_state(3), [], 3) == []

    def test_20_qubits_match_index_mask_formula(self):
        n = 20
        state = random_state(n, seed=7)
        terms = [
            {3: "Z", 15: "Z"}, {7: "X"}, {0: "Y"}, {n - 1: "X"},
            {2: "Y", 9: "Z", 17: "X"}, {1: "Y", 5: "Y", 11: "Y"},
            {q: "Z" for q in range(n)},
        ]
        got = expectations(state, terms, n)
        for term, value in zip(terms, got):
            assert value == pytest.approx(
                index_mask_expectation(state, term), abs=1e-12
            )


class TestEnergy:
    def test_ising_energy(self):
        # H = -Z0 Z1 - Z1 Z2 on |000>: energy -2.
        ham = [(-1.0, "ZZI"), (-1.0, "IZZ")]
        assert energy(zero_state(3), ham, 3) == pytest.approx(-2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pauli_expectation(zero_state(2), "Z", 2)  # wrong length
        with pytest.raises(ValueError):
            pauli_expectation(zero_state(2), "QZ", 2)  # bad letter
        with pytest.raises(ValueError):
            pauli_expectation(zero_state(2), {5: "Z"}, 2)  # out of range
        with pytest.raises(ValueError):
            pauli_expectation(np.zeros(3, dtype=complex), "ZZ", 2)

    def test_float_qubit_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            pauli_expectation(zero_state(3), {2.7: "Z"}, 3)

    def test_bool_qubit_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            pauli_expectation(zero_state(3), {True: "Z"}, 3)

    def test_non_string_letter_rejected(self):
        with pytest.raises(ValueError, match="not a string"):
            pauli_expectation(zero_state(3), {0: 1}, 3)

    def test_numpy_integer_qubit_accepted(self):
        assert pauli_expectation(
            zero_state(3), {np.int64(2): "Z"}, 3
        ) == pytest.approx(1.0)
