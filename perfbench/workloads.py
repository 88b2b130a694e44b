"""The in-process workloads: ``qft20`` (simulate path) and
``qaoa20-sweep`` (batch path), plus helpers shared with the serve
workload.

Each workload has two entry points:

* ``*_e2e(seed, seconds)`` -- the end-to-end run, tracing off: set-up
  three times (median reported), then operations until ``seconds`` of
  operation time have elapsed.
* ``*_layers(seed, seconds)`` -- the traced run: a fixed number of
  operations (derived from ``seconds``) run once through the program
  with tracing off and once through :class:`replay.Replay` with spans
  on, from the same cold start; the two final states must be bitwise
  equal.

Both return a :class:`Outcome`.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.circuits import generators
from repro.partition import get_partitioner
from repro.serve import BatchRunner, SimJob
from repro.serve.runner import default_limit
from repro.sv.fusion import PlanCache, compile_partition
from repro.sv.hier import HierarchicalExecutor
from repro.sv.pauli import expectations
from repro.sv.simulator import StateVectorSimulator, sample_counts

from floor import measure_floor, model_ms
from replay import Replay
from spans import Recorder

TOL = 1e-10
SETUP_REPEATS = 3


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    recorder: Optional[Recorder] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation) of ``values``."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def latency_metrics(out: Outcome, setups, latencies, jobs, phase_s, rss):
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "jobs_per_s": jobs / phase_s,
        "peak_rss_mib": rss,
    })
    q = statistics.quantiles(latencies, n=4) if len(latencies) > 1 else latencies * 3
    out.notes.append(
        f"{len(latencies)} timed operations, {jobs} jobs; op ms min "
        f"{1e3 * min(latencies):.1f} quartiles "
        f"{' '.join(f'{1e3 * v:.1f}' for v in q)} max {1e3 * max(latencies):.1f}; "
        f"set-up runs {' '.join(f'{s:.3f}' for s in setups)} s"
    )


def layer_metrics(rec: Recorder, rp: Replay, floors, untraced_s, traced_s):
    """Per-layer metrics of one traced run (see README.md for units)."""
    self_ms = {k: v * 1e3 for k, v in rec.self_seconds().items()}
    ms = lambda name: self_ms.get(name, 0.0)  # noqa: E731
    c = rp.counts
    jobs = max(c["jobs"], 1)
    model = sum(
        model_ms(floors[n], widths, gathered)
        for n, widths, gathered in rp.job_work
    ) / jobs
    widest = floors[max(floors)]
    part_ms = ms("backend") / jobs
    metrics = {
        "circuits.build_ms": ms("circuits"),
        "runner.fingerprint_ms": ms("runner"),
        "partition.ms": ms("partition"),
        "partition.calls": c["partition_calls"],
        "partition.parts": c["partition_parts"],
        "fusion.compile_ms": ms("fusion.compile"),
        "fusion.structures_compiled": c["structures_compiled"],
        "fusion.bind_ms": ms("fusion.bind"),
        "fusion.structure_hits": c["structure_hits"],
        "fusion.ops": c["ops"],
        "fusion.sweeps_saved": c["sweeps_saved"],
        "backend.ms": ms("backend"),
        "backend.part_ms": part_ms,
        "backend.ms_per_op": ms("backend") / max(c["ops"], 1),
        "backend.gathered_parts": c["gathered_parts"],
        "backend.strided_parts": c["strided_parts"],
        "backend.bytes_computed": c["bytes_computed"],
        "floor.model_ms": model,
        "backend.floor_ratio": part_ms / model if model else 0.0,
        "engine.stabilizer_ms": ms("engine"),
        "engine.stabilizer_parts": c["stabilizer_parts"],
        "engine.boundary_conversions": c["conversions"],
        "outputs.sample_ms": ms("outputs.sample"),
        "outputs.expect_ms": ms("outputs.expect"),
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.unattributed_ms": ms("replay"),
        "trace.jobs": c["jobs"],
        # Runner and daemon metrics; workloads that run them overwrite these.
        "runner.partition_hit_ratio": 0.0,
        "runner.structure_hit_ratio": 0.0,
        "serve.admit_ms_p50": 0.0,
        "serve.service_ms_p50": 0.0,
        "serve.wait_ms_p50": 0.0,
        "serve.wait_ms_p90": 0.0,
        "serve.rejected": 0,
    }
    for key, value in widest.items():
        metrics[f"floor.{key}"] = value
    return metrics


# ---------------------------------------------------------------------------
# qft20: HierarchicalExecutor.run, warm plan cache, serial backend
# ---------------------------------------------------------------------------

QFT_QUBITS = 20


def _qft_setup():
    qc = generators.build("qft", QFT_QUBITS)
    partition = get_partitioner("dagP").partition(
        qc, default_limit(QFT_QUBITS)
    )
    cache = PlanCache()
    compile_partition(qc, partition, cache=cache)
    executor = HierarchicalExecutor(backend="serial", plan_cache=cache)
    return qc, partition, executor


def _qft_op(qc, partition, executor):
    return executor.run(qc, partition, executor.initial_state(qc))


def _check_qft_reference(out: Outcome, qc, state) -> None:
    sim = StateVectorSimulator(QFT_QUBITS)
    sim.run(qc)
    err = float(np.max(np.abs(state - sim.state)))
    out.notes.append(f"qft20 final state vs flat simulator: max |diff| {err:.2e}")
    if not err <= TOL:
        out.fail(f"qft20 state differs from the flat simulator by {err:.3e}")


def qft20_e2e(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        qc, partition, executor = _qft_setup()
        _qft_op(qc, partition, executor)
        setups.append(time.perf_counter() - t0)
    latencies: List[float] = []
    state = None
    while sum(latencies) < seconds:
        state = None  # free the previous state before the next op
        t0 = time.perf_counter()
        state = _qft_op(qc, partition, executor)
        latencies.append(time.perf_counter() - t0)
        out.attempted += 1
        norm = float(np.vdot(state, state).real)
        if not abs(norm - 1.0) <= TOL:
            out.fail(f"qft20 op {len(latencies)}: norm {norm!r}")
    rss = peak_rss_mib()
    latency_metrics(out, setups, latencies, len(latencies), sum(latencies), rss)
    _check_qft_reference(out, qc, state)
    return out


def _qft_observables(seed: int):
    rng = np.random.default_rng(seed)
    a, b = sorted(rng.choice(QFT_QUBITS, size=2, replace=False).tolist())
    return ({a: "Z", b: "Z"}, {int(rng.integers(QFT_QUBITS)): "X"})


def qft20_layers(seed: int, seconds: float) -> Outcome:
    """Same cold start, ``K = seconds // 4`` ops, each followed by
    sampling 1024 shots and two Pauli expectations (seeded)."""
    out = Outcome()
    ops = max(1, int(seconds // 4))
    observables = _qft_observables(seed)
    n = QFT_QUBITS
    floors = {n: measure_floor(n)}  # first, in a clean process
    # An untimed op first, so neither pass pays the process's first
    # large allocations (the allocator's mmap threshold adapts after them).
    _qft_op(*_qft_setup())

    gc.collect()
    t0 = time.perf_counter()
    qc, partition, executor = _qft_setup()
    program, op_s = [], []
    for k in range(ops):
        t1 = time.perf_counter()
        state = _qft_op(qc, partition, executor)
        op_s.append(time.perf_counter() - t1)
        program.append((
            sample_counts(state, 1024, seed + k),
            expectations(state, observables, n),
        ))
    untraced_s = time.perf_counter() - t0
    final_program = state
    del state, qc, partition, executor

    gc.collect()
    rec = Recorder()
    t0 = time.perf_counter()
    with rec.span("replay"):
        with rec.span("circuits"):
            qc = generators.build("qft", n)
        rp = Replay(rec)
        partition, _ = rp.partition(qc)
        rp.compile(qc, partition)
        replayed, traced_op_s = [], 0.0
        for k in range(ops):
            t1 = time.perf_counter()
            state = rp.execute(qc, partition)
            traced_op_s += time.perf_counter() - t1
            replayed.append(rp.outputs(state, 1024, seed + k, observables, n))
    traced_s = time.perf_counter() - t0
    for k in range(ops):
        out.attempted += 1
        if replayed[k] != program[k]:
            out.fail(f"qft20 op {k}: replay outputs differ from the program")
    if not same_bits(state, final_program):
        out.fail("qft20: replay final state is not bitwise equal to the program's")
    out.recorder = rec
    out.metrics.update(layer_metrics(rec, rp, floors, untraced_s, traced_s))
    m = out.metrics
    op_ms = 1e3 * statistics.median(op_s)
    out.notes.append(
        f"qft20: {op_ms:.0f} ms/op = {op_ms / m['floor.model_ms']:.1f}x floor "
        f"(backend {100 * m['backend.ms'] / (1e3 * traced_op_s):.1f}% of op)"
    )
    _check_qft_reference(out, qc, state)
    return out


# ---------------------------------------------------------------------------
# qaoa20-sweep: BatchRunner over structurally identical QAOA p=2 jobs
# ---------------------------------------------------------------------------

QAOA_QUBITS = 20
QAOA_P = 2
BATCH = 6
SHOTS = 4096


class QaoaSweep:
    """Seeded job specs: angles, sampling seed and two observables per
    job; the graph (and so the structure) is the generator's default."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def specs(self, count: int):
        n = QAOA_QUBITS
        out = []
        for _ in range(count):
            angles = self.rng.uniform(0.0, np.pi, size=2 * QAOA_P).tolist()
            a, b, c = self.rng.choice(n, size=3, replace=False).tolist()
            out.append({
                "gammas": angles[:QAOA_P],
                "betas": angles[QAOA_P:],
                "seed": int(self.rng.integers(2**31)),
                "observables": ({a: "Z", b: "Z"}, {c: "X"}),
            })
        return out


def qaoa_jobs(specs, prefix: str, want_state: bool = False) -> List[SimJob]:
    return [
        SimJob(
            f"{prefix}{i}",
            generators.build(
                "qaoa", QAOA_QUBITS, p=QAOA_P,
                gammas=s["gammas"], betas=s["betas"],
            ),
            want_state=want_state,
            shots=SHOTS,
            seed=s["seed"],
            observables=s["observables"],
        )
        for i, s in enumerate(specs)
    ]


def _qaoa_runner() -> BatchRunner:
    return BatchRunner(
        strategy="dagP", schedule="grouped", workers=1, backend="serial"
    )


def _qaoa_problems(results) -> List[str]:
    """Per-job output checks: no error, counts sum to the shots and
    expectations lie in [-1, 1]."""
    problems = []
    for r in results:
        if r.error is not None:
            problems.append(f"{r.job_id}: {r.error}")
        elif sum(r.counts.values()) != SHOTS:
            problems.append(f"{r.job_id}: counts sum to {sum(r.counts.values())}")
        elif not all(abs(v) <= 1.0 + TOL for v in r.expectations):
            problems.append(f"{r.job_id}: expectation out of range")
    return problems


def _check_qaoa_reference(out: Outcome, job: SimJob, result) -> None:
    sim = StateVectorSimulator(QAOA_QUBITS)
    sim.run(job.circuit)
    ref = expectations(sim.state, job.observables, QAOA_QUBITS)
    err = max(abs(a - b) for a, b in zip(ref, result.expectations))
    counts_ok = sample_counts(sim.state, job.shots, job.seed) == result.counts
    out.notes.append(
        f"qaoa20 {job.job_id} vs flat simulator: expectation |diff| "
        f"{err:.2e}, seeded counts {'equal' if counts_ok else 'DIFFER'}"
    )
    if not err <= TOL:
        out.fail(f"qaoa20 expectations differ from the flat simulator by {err:.3e}")
    if not counts_ok:
        out.fail("qaoa20 seeded counts differ from the flat simulator's")


def qaoa_e2e(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    sweep = QaoaSweep(seed)
    setups = []
    for k in range(SETUP_REPEATS):
        gc.collect()
        warm = sweep.specs(1)
        t0 = time.perf_counter()
        runner = _qaoa_runner()
        report = runner.run(qaoa_jobs(warm, f"warm{k}-"))
        setups.append(time.perf_counter() - t0)
        for problem in _qaoa_problems(report.results):
            out.fail(f"qaoa20 warm-up {problem}")
    latencies: List[float] = []
    first = None
    while sum(latencies) < seconds:
        jobs = qaoa_jobs(sweep.specs(BATCH), f"b{len(latencies)}-")
        t0 = time.perf_counter()
        report = runner.run(jobs)
        latencies.append(time.perf_counter() - t0)
        out.attempted += 1
        problems = _qaoa_problems(report.results)
        if problems:
            out.fail(f"qaoa20 batch {len(latencies)}: {problems[0]}")
        if first is None:
            first = (jobs[0], report.results[0])
        del jobs, report
    rss = peak_rss_mib()
    latency_metrics(
        out, setups, latencies, BATCH * len(latencies), sum(latencies), rss
    )
    _check_qaoa_reference(out, *first)
    return out


def qaoa_layers(seed: int, seconds: float) -> Outcome:
    """Same cold start, ``seconds // 10`` batches of 6 jobs."""
    out = Outcome()
    batches = max(1, int(seconds // 10))
    sweep = QaoaSweep(seed)
    specs = [sweep.specs(BATCH) for _ in range(batches)]
    floors = {QAOA_QUBITS: measure_floor(QAOA_QUBITS)}  # as for qft20
    _qaoa_runner().run(qaoa_jobs(sweep.specs(1), "warm"))  # as for qft20

    gc.collect()
    t0 = time.perf_counter()
    runner = _qaoa_runner()
    program = []
    partition_hits = partitions = structure_hits = structures = 0
    for b, batch in enumerate(specs):
        report = runner.run(qaoa_jobs(batch, f"b{b}-", want_state=True))
        program.append(report.results)
        s = report.stats
        partition_hits += s.partition_hits
        partitions += s.partitions_computed
        structure_hits += s.structure_hits
        structures += s.structures_compiled
    untraced_s = time.perf_counter() - t0
    del runner, report

    gc.collect()
    rec = Recorder()
    t0 = time.perf_counter()
    replayed = []
    with rec.span("replay"):
        rp = Replay(rec)
        for b, batch in enumerate(specs):
            with rec.span("circuits"):
                jobs = qaoa_jobs(batch, f"b{b}-")
            replayed.append(rp.run_jobs(jobs))
    traced_s = time.perf_counter() - t0
    for results, outputs in zip(program, replayed):
        for result, (state, counts, values) in zip(results, outputs):
            out.attempted += 1
            if not (same_bits(state, result.state)
                    and counts == result.counts
                    and values == result.expectations):
                out.fail(f"qaoa20 {result.job_id}: replay is not bitwise "
                         f"equal to the program")
    out.recorder = rec
    for results in program:
        for problem in _qaoa_problems(results):
            out.fail(f"qaoa20 {problem}")
    out.metrics.update(layer_metrics(rec, rp, floors, untraced_s, traced_s))
    out.metrics["runner.partition_hit_ratio"] = partition_hits / (
        partition_hits + partitions)
    out.metrics["runner.structure_hit_ratio"] = structure_hits / (
        structure_hits + structures)
    _check_qaoa_reference(out, jobs[0], program[-1][0])
    return out
