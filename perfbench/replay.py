"""The traced replay: the library's pipeline, one public call at a time.

:class:`Replay` performs what ``HierarchicalExecutor.run`` and
``BatchRunner.run`` do, in the same order and with the same
configuration, but calls each layer's public function itself so a span
can be recorded around it:

* ``circuits``   -- ``generators.build`` / ``load_manifest``
* ``runner``     -- ``structural_fingerprint``, ``circuit_fingerprint``,
  ``order_jobs`` (the batch runner's own work)
* ``partition``  -- ``get_partitioner(strategy).partition``
* ``fusion.compile`` / ``fusion.bind`` -- ``PlanCache.get_or_compile`` /
  ``get_or_bind``, split by whether the call built a plan structure
* ``backend``    -- ``DenseSVEngine.apply_part`` (``run_plan`` and the
  kernels) with the backend's ``begin_run`` / ``end_run``
* ``engine``     -- ``StabilizerEngine.apply_part`` and tableau-to-dense
  conversion
* ``outputs.sample`` / ``outputs.expect`` -- ``sample_counts`` /
  ``expectations``

With the serial backend the replay's states are bitwise equal to the
program's, which the workloads check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.partition import get_partitioner
from repro.serve import SimJob, circuit_fingerprint, structural_fingerprint
from repro.serve.runner import default_limit
from repro.serve.scheduler import order_jobs
from repro.sv.backend import SerialBackend
from repro.sv.engine import DenseSVEngine, StabilizerEngine, StabilizerPartPlan
from repro.sv.fusion import DEFAULT_MAX_FUSED_QUBITS, CacheCounters, PlanCache
from repro.sv.pauli import expectations
from repro.sv.simulator import sample_counts, zero_state
from repro.sv.stabilizer import StabilizerState, is_clifford_circuit

from spans import Recorder

COUNTERS = (
    "partition_calls",
    "partition_parts",
    "structures_compiled",
    "structure_hits",
    "ops",
    "sweeps_saved",
    "gathered_parts",
    "strided_parts",
    "stabilizer_parts",
    "conversions",
    "bytes_computed",
    "jobs",
)


class Replay:
    """One replay context with its own partition and plan caches, in the
    configuration every workload uses: dagP at the default limit,
    ``grouped`` schedule, serial backend, fuse width 5 and the ``auto``
    method (all-Clifford circuits start as a tableau, the rest dense).
    """

    STRATEGY = "dagP"
    SCHEDULE = "grouped"

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.plan_cache = PlanCache()
        self.backend = SerialBackend()
        self.dense = DenseSVEngine(self.backend)
        self.stabilizer = StabilizerEngine()
        self.partitions: Dict[tuple, object] = {}
        self.counts = {name: 0 for name in COUNTERS}
        # Per executed circuit: (width, dense op widths, gathered parts),
        # the inputs of the floor model.
        self.job_work: List[list] = []

    # -- layers ------------------------------------------------------------

    def partition(self, circuit, key=None):
        """Partition through this replay's cache (keyed like the runner's)."""
        limit = default_limit(circuit.num_qubits)
        cache_key = (key, limit)
        if key is not None and cache_key in self.partitions:
            return self.partitions[cache_key], True
        with self.rec.span("partition"):
            part = get_partitioner(self.STRATEGY).partition(circuit, limit)
        self.counts["partition_calls"] += 1
        self.counts["partition_parts"] += part.num_parts
        if key is not None:
            self.partitions[cache_key] = part
        return part, False

    def _plan(self, circuit, part, structural_key):
        counters = CacheCounters()
        with self.rec.span("fusion.bind") as span:
            if structural_key is None:
                plan = self.plan_cache.get_or_compile(
                    circuit, part.gate_indices, part.qubits,
                    max_fused_qubits=DEFAULT_MAX_FUSED_QUBITS,
                    counters=counters,
                )
                compiled = counters.misses
            else:
                plan = self.plan_cache.get_or_bind(
                    circuit, part.gate_indices, part.qubits,
                    structural_key=structural_key,
                    max_fused_qubits=DEFAULT_MAX_FUSED_QUBITS,
                    counters=counters,
                )
                compiled = counters.structure_misses
            if compiled:
                span.name = "fusion.compile"
        self.counts["structures_compiled"] += compiled
        self.counts["structure_hits"] += counters.structure_hits
        return plan

    def compile(self, circuit, partition, structural_key=None) -> None:
        """Plan every part ahead of execution (``compile_partition``)."""
        for part in partition.parts:
            self._plan(circuit, part, structural_key)

    def _dense_part(self, circuit, part, state, n, structural_key, work):
        plan = self._plan(circuit, part, structural_key)
        with self.rec.span("backend"):
            path = self.dense.apply_part(state, plan, n, "batched")
        self.counts["ops"] += plan.num_ops
        self.counts["sweeps_saved"] += plan.sweeps_saved
        sweeps = 2 * plan.num_ops  # each op reads and writes the state
        if path == "strided":
            self.counts["strided_parts"] += 1
        else:
            self.counts["gathered_parts"] += 1
            work[2] += 1
            sweeps += 4  # so do the part's gather and its scatter
        self.counts["bytes_computed"] += sweeps * (16 << n)
        work[1].extend(op.num_qubits for op in plan.ops)

    def execute(self, circuit, partition, structural_key=None):
        """``HierarchicalExecutor.run`` on a fresh ``|0...0>``."""
        n = circuit.num_qubits
        work = [n, [], 0]
        self.job_work.append(work)
        self.counts["jobs"] += 1
        clifford = is_clifford_circuit(circuit.gates)
        state = StabilizerState(n) if clifford else zero_state(n)
        dense = not clifford
        if dense:
            with self.rec.span("backend"):
                self.backend.begin_run(state)
        for part in partition.parts:
            if not dense:
                gates = [circuit[g] for g in part.gate_indices]
                if is_clifford_circuit(gates):
                    with self.rec.span("engine"):
                        plan = StabilizerPartPlan.from_gates(part.qubits, gates)
                        self.stabilizer.apply_part(state, plan, n, "batched")
                    self.counts["stabilizer_parts"] += 1
                    continue
                state = self.to_dense(state)
                dense = True
                with self.rec.span("backend"):
                    self.backend.begin_run(state)
            self._dense_part(circuit, part, state, n, structural_key, work)
        if dense:
            with self.rec.span("backend"):
                self.backend.end_run(state)
        return state

    def to_dense(self, state):
        if not isinstance(state, StabilizerState):
            return state
        with self.rec.span("engine"):
            dense = state.to_dense()
        self.counts["conversions"] += 1
        return dense

    def outputs(self, state, shots: int, seed: Optional[int], observables, n):
        counts = values = None
        if shots:
            with self.rec.span("outputs.sample"):
                counts = sample_counts(state, shots, 0 if seed is None else seed)
        if observables:
            with self.rec.span("outputs.expect"):
                values = expectations(state, observables, n)
        return counts, values

    # -- the batch runner's job loop -----------------------------------------

    def run_jobs(self, jobs: Sequence[SimJob]) -> List[Tuple[object, object, object]]:
        """``BatchRunner.run`` (one worker): ``[(state, counts, values)]``
        in submission order."""
        with self.rec.span("runner"):
            for job in jobs:
                circuit_fingerprint(job.circuit)
            structurals = [structural_fingerprint(j.circuit) for j in jobs]
            order = order_jobs(self.SCHEDULE, structurals)
        out: List[Optional[tuple]] = [None] * len(jobs)
        for i in order:
            job = jobs[i]
            partition, _ = self.partition(job.circuit, structurals[i])
            state = self.execute(job.circuit, partition, structurals[i])
            if job.shots or job.observables:
                state = self.to_dense(state)
            counts, values = self.outputs(
                state, job.shots, job.seed, job.observables,
                job.circuit.num_qubits,
            )
            out[i] = (state, counts, values)
        return out  # type: ignore[return-value]
