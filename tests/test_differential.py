"""Randomized differential harness over the whole execution matrix.

Every combination of {partitioner} x {fuse on/off} x {serial, threaded,
array, array-device backend} x {batched, literal mode} must produce the
same final state as the literal per-gate reference kernels, on seeded
random circuits drawn from the full gate vocabulary.  This is the repo's
broadest property test: any regression in partitioning, fusion,
backends, gather tables or kernels lands somewhere in this grid.

Case economy: circuits/reference states are cached per seed and
partitions per (seed, strategy), so the sweep's cost is dominated by the
executions themselves.  The full grid of 48 combinations is covered and
the total case count stays above 200 (see ``test_case_count_floor``).
The ``array`` slot sweeps the NumPy host module, which is required to
be bit-identical to the serial backend (checked against a serial rerun
per case, not just the 1e-10 reference tolerance).  The
``array-device`` slot forces the same NumPy namespace down the device
lane (``host=False``: explicit uploads, out-of-place sweeps over a
cached device plan), so that code answers to the reference oracle even
without a GPU in the image.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.partition import get_partitioner
from repro.partition.metrics import evaluate_partition
from repro.serve.runner import default_limit
from repro.sv import (
    ArrayBackend,
    ArrayModule,
    ExecutionTrace,
    HierarchicalExecutor,
    SerialBackend,
    StateVectorSimulator,
    ThreadedBackend,
    apply_gate_reference,
)
from repro.sv.simulator import zero_state

from conftest import random_circuit

NUM_QUBITS = 6
NUM_GATES = 16
STRATEGIES = ("Nat", "DFS", "dagP")
MODES = ("batched", "literal")
FUSE = (True, False)

# Seeds per backend.
SEEDS = {
    "serial": tuple(range(8)),
    "threaded": tuple(range(8)),
    "array": tuple(range(6)),
    "array-device": tuple(range(6)),
}

# 2 strategies-independent axes first: cases = sum over backends of
# len(SEEDS[b]) * len(STRATEGIES) * len(FUSE) * len(MODES).
CASE_COUNT = sum(
    len(seeds) * len(STRATEGIES) * len(FUSE) * len(MODES)
    for seeds in SEEDS.values()
)


def _case_params():
    for backend, seeds in SEEDS.items():
        for seed in seeds:
            for strategy in STRATEGIES:
                for fuse in FUSE:
                    for mode in MODES:
                        yield pytest.param(
                            backend, seed, strategy, fuse, mode,
                            id=f"{backend}-s{seed}-{strategy}-"
                               f"{'fused' if fuse else 'raw'}-{mode}",
                        )


_circuits: dict = {}
_references: dict = {}
_partitions: dict = {}


def _circuit(seed: int) -> QuantumCircuit:
    qc = _circuits.get(seed)
    if qc is None:
        qc = random_circuit(NUM_QUBITS, NUM_GATES, seed=seed)
        _circuits[seed] = qc
    return qc


def _reference(seed: int) -> np.ndarray:
    ref = _references.get(seed)
    if ref is None:
        qc = _circuit(seed)
        state = np.zeros(1 << NUM_QUBITS, dtype=np.complex128)
        state[0] = 1.0
        for gate in qc:
            apply_gate_reference(state, gate, NUM_QUBITS)
        ref = state
        _references[seed] = ref
    return ref


def _partition(seed: int, strategy: str):
    key = (seed, strategy)
    part = _partitions.get(key)
    if part is None:
        part = get_partitioner(strategy).partition(
            _circuit(seed), max(3, NUM_QUBITS - 2)
        )
        _partitions[key] = part
    return part


@pytest.fixture(scope="module")
def backends():
    """One live instance per backend kind, shared across the sweep.

    ``min_parallel_elements=0`` forces the parallel dispatch path even at
    test widths — without it the fallback would quietly turn the whole
    grid into serial runs.
    """
    made = {
        "serial": SerialBackend(),
        "threaded": ThreadedBackend(3, min_parallel_elements=0),
        "array": ArrayBackend(),
        "array-device": ArrayBackend(
            module=ArrayModule("numpy", np, host=False)
        ),
    }
    yield made
    for backend in made.values():
        backend.close()


@pytest.mark.parametrize("backend,seed,strategy,fuse,mode", _case_params())
def test_differential(backends, backend, seed, strategy, fuse, mode):
    qc = _circuit(seed)
    partition = _partition(seed, strategy)
    trace = ExecutionTrace()
    state = np.zeros(1 << NUM_QUBITS, dtype=np.complex128)
    state[0] = 1.0
    HierarchicalExecutor(
        mode=mode, fuse=fuse, backend=backends[backend]
    ).run(qc, partition, state, trace=trace)

    err = float(np.max(np.abs(state - _reference(seed))))
    assert err < 1e-10, (
        f"{backend}/{strategy}/fuse={fuse}/{mode} seed={seed}: "
        f"max deviation {err:.3e} from reference kernels"
    )
    # Source-gate accounting must be exact regardless of fusion/backend.
    assert trace.total_gates == len(qc)
    assert trace.num_parts == partition.num_parts
    assert sum(trace.backend_parts.values()) == trace.num_parts
    if backend == "array":
        # The array backend's NumPy module routes through the same
        # serial kernels, so it owes bit-identity, not mere closeness.
        serial_state = np.zeros(1 << NUM_QUBITS, dtype=np.complex128)
        serial_state[0] = 1.0
        HierarchicalExecutor(
            mode=mode, fuse=fuse, backend=backends["serial"]
        ).run(qc, partition, serial_state)
        assert np.array_equal(state, serial_state), (
            f"array[numpy] diverged bitwise from serial: "
            f"{strategy}/fuse={fuse}/{mode} seed={seed}"
        )


def test_case_count_floor():
    """The harness must keep sweeping at least 200 generated cases."""
    assert CASE_COUNT >= 200, CASE_COUNT


def test_grid_is_complete():
    """All 48 backend/strategy/fuse/mode combinations are exercised."""
    combos = {
        (b, s, f, m)
        for b in SEEDS
        for s in STRATEGIES
        for f in FUSE
        for m in MODES
    }
    assert len(combos) == 48
    swept = {
        (p.values[0], p.values[2], p.values[3], p.values[4])
        for p in _case_params()
    }
    assert swept == combos


# Fused ops per circuit (dagP at ``default_limit``) and qft's modelled
# fused flops under the rule that only flagged a group diagonal when
# every member was; structural diagonality must not change the grouping.
LADDER_OPS = {
    ("qft", 14): 25, ("qft", 17): 37, ("qft", 20): 45,
    ("qpe", 14): 24, ("qpe", 17): 39, ("qpe", 20): 51,
}
MEMBER_RULE_FLOPS = {
    ("qft", 14): 86212608, ("qft", 17): 1013710848,
    ("qft", 20): 11347689472,
}


@pytest.mark.parametrize("name,n", sorted(LADDER_OPS))
def test_phase_ladders_on_every_lane(backends, name, n):
    """qft/qpe run their cx·u1·cx ladders as diagonal ops on the serial,
    ``threaded[2]`` and array-device lanes, in both modes: each state is
    within 1e-10 of the flat simulator (on the undecomposed circuit, whose
    cu1 gates it runs as diagonals), serial and threaded agree bitwise,
    and the grouping is unchanged."""
    qc = generators.build(name, n)
    partition = get_partitioner("dagP").partition(qc, default_limit(n))
    sim = StateVectorSimulator(n)
    sim.run(generators.build(name, n, decompose=False))
    lanes = {
        "serial": backends["serial"],
        "threaded": ThreadedBackend(2),
        "array-device": backends["array-device"],
    }
    with lanes["threaded"]:
        for mode in MODES:
            states = {}
            for lane, backend in lanes.items():
                trace = ExecutionTrace()
                state = HierarchicalExecutor(mode=mode, backend=backend).run(
                    qc, partition, zero_state(n), trace=trace
                )
                err = float(np.max(np.abs(state - sim.state)))
                assert err < 1e-10, (lane, mode, err)
                assert sum(trace.part_ops) == LADDER_OPS[name, n]
                assert trace.sweeps_saved == len(qc) - LADDER_OPS[name, n]
                states[lane] = state
            assert np.array_equal(states["serial"], states["threaded"]), mode
    metrics = evaluate_partition(qc, partition)
    assert metrics.sweeps_fused == LADDER_OPS[name, n]
    if name == "qft":
        assert metrics.flops_fused < MEMBER_RULE_FLOPS[name, n]
