"""The ``mixed14-serve`` workload: a ``repro serve`` daemon under two
closed-loop clients.

The daemon runs in its own process (``--workers 1``, serial backend,
``auto`` method), so the clients' JSON work does not share its
interpreter lock.  Each client POSTs a one-job manifest and polls the
batch until it is done, then sends the next request; with two clients
and one worker, one request is always waiting.

Requests come from :class:`RequestStream`: eleven generator families
at 12-14 qubits with 1024 shots.  Each request either repeats an
earlier structure with fresh parameters (a cache hit in the daemon) or
draws fresh structural arguments (usually an unseen structure: cold
partition and plan compile); about half of the requests arrive with an
unseen structure.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.serve import BatchRunner, load_manifest

from floor import measure_floor
from replay import Replay
from spans import Recorder
from workloads import (
    SETUP_REPEATS,
    Outcome,
    latency_metrics,
    layer_metrics,
    peak_rss_mib,
    percentile,
    same_bits,
)

FAMILIES = (
    "adder", "bv", "cat_state", "cc", "grover", "ising",
    "qaoa", "qft", "qnn", "qpe", "syndrome",
)
WIDTHS = (12, 13, 14)
SHOTS = 1024
POLL_S = 0.005
# Requests in each block of ten that repeat an earlier structure; with
# collisions among fresh draws of small families, about half of the
# requests then have a structure the daemon has already seen.
REPEATS_PER_10 = 1
CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0


def _bits(rng: random.Random, k: int) -> List[int]:
    return [rng.randrange(2) for _ in range(k)]


def structural_args(family: str, n: int, rng: random.Random) -> dict:
    """Generator arguments that change a circuit's gate structure."""
    if family == "adder":
        top = 1 << ((n - 2) // 2)
        return {"a_value": rng.randrange(top), "b_value": rng.randrange(top)}
    if family == "bv":
        return {"secret": _bits(rng, n - 1)}
    if family == "cat_state":
        return {"mirror": rng.random() < 0.5}
    if family == "cc":
        coins = n - 1
        queried = sorted(rng.sample(range(coins), rng.randint(2, coins)))
        return {"fake": rng.choice(queried), "queried": queried}
    if family == "grover":
        return {"marked": _bits(rng, (n + 1) // 2)}
    if family == "ising":
        return {"steps": rng.randint(1, 3), "periodic": rng.random() < 0.5}
    if family == "qaoa":
        return {"seed": rng.randrange(10**6), "p": rng.randint(1, 2)}
    if family == "qft":
        return {"do_swaps": rng.random() < 0.5, "inverse": rng.random() < 0.5}
    if family == "qnn":
        return {"seed": rng.randrange(10**6), "layers": rng.randint(1, 2)}
    if family == "syndrome":
        return {"rounds": rng.randint(1, 3)}
    return {}  # qpe: the width alone fixes the structure


def parameter_args(family: str, args: dict, rng: random.Random) -> dict:
    """Arguments that change gate parameters but not the structure."""
    if family == "qaoa":
        p = args["p"]
        return {"gammas": [rng.uniform(0, 3.1) for _ in range(p)],
                "betas": [rng.uniform(0, 3.1) for _ in range(p)]}
    if family == "ising":
        return {"j_coupling": rng.uniform(0.5, 1.5),
                "h_field": rng.uniform(0.5, 2.5),
                "dt": rng.uniform(0.05, 0.2)}
    if family == "qpe":
        return {"phase": rng.random()}
    return {}


class RequestStream:
    """The seeded request sequence, handed out in order to the clients.

    The mix is stratified so that every seed sends the same composition
    and only the concrete inputs differ: each block of ten requests has
    ``REPEATS_PER_10`` repeats at seeded positions, and fresh draws take
    the 33 (family, width) pairs in seeded shuffled rounds.
    """

    def __init__(self, seed: int, count: int) -> None:
        rng = random.Random(seed)
        seen: List[Tuple[str, int, dict]] = []
        pairs: List[Tuple[str, int]] = []
        repeats: set = set()
        self.requests: List[dict] = []
        for i in range(count):
            if i % 10 == 0:
                repeats = set(rng.sample(range(10), REPEATS_PER_10))
            if seen and i % 10 in repeats:
                family, n, args = rng.choice(seen)
            else:
                if not pairs:
                    pairs = [(f, w) for f in FAMILIES for w in WIDTHS]
                    rng.shuffle(pairs)
                family, n = pairs.pop()
                args = structural_args(family, n, rng)
                seen.append((family, n, args))
            args = dict(args, **parameter_args(family, args, rng))
            self.requests.append({
                "id": f"r{i}",
                "circuit": {"generator": family, "qubits": n, "args": args},
                "shots": SHOTS,
                "seed": rng.randrange(2**31),
            })
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> Optional[Tuple[int, dict]]:
        with self._lock:
            if self._next >= len(self.requests):
                return None
            i = self._next
            self._next += 1
        return i, self.requests[i]


# ---------------------------------------------------------------------------
# daemon process and HTTP client
# ---------------------------------------------------------------------------


def _http(port: int, method: str, path: str, body: Optional[bytes] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


def _submit_and_wait(port: int, request: dict):
    """POST one request and poll its batch: ``(status, admit_s,
    latency_s, batch_payload)``; the payload is the 202/429 body when
    the request was not admitted."""
    body = json.dumps(request).encode("utf-8")
    t0 = time.perf_counter()
    status, payload = _http(port, "POST", "/jobs", body)
    admit = time.perf_counter() - t0
    if status != 202:
        return status, admit, None, payload
    url = payload["status_url"]
    deadline = t0 + REQUEST_TIMEOUT_S
    while True:
        time.sleep(POLL_S)
        status, payload = _http(port, "GET", url)
        if status != 200 or payload["status"] == "done":
            break
        if time.perf_counter() > deadline:
            raise TimeoutError(f"request {request['id']} did not finish")
    return status, admit, time.perf_counter() - t0, payload


class Daemon:
    """A ``repro serve`` child process; ``start_s`` runs from spawn until
    a warm-up request has completed."""

    WARMUP = {"id": "warmup", "circuit": {"generator": "qft", "qubits": 8},
              "shots": 64}

    def __init__(self, root: str) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--backend", "serial", "--method", "auto",
             "--strategy", "dagP"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(match.group(1))
            status, _, _, payload = _submit_and_wait(self.port, self.WARMUP)
            if status != 200 or payload.get("errors"):
                raise RuntimeError(f"warm-up request failed: {payload!r}")
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0

    def metrics(self) -> dict:
        return _http(self.port, "GET", "/metrics")[1]

    def stop(self) -> None:
        """SIGTERM (drain), then wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, err = self.proc.communicate()
        if self.proc.returncode not in (0, -signal.SIGTERM) and err:
            sys.stderr.write(err)


def _start_daemons(root: str) -> Tuple[Daemon, List[float]]:
    """Start the daemon ``SETUP_REPEATS`` times; keep the last one."""
    starts = []
    for k in range(SETUP_REPEATS):
        daemon = Daemon(root)
        starts.append(daemon.start_s)
        if k < SETUP_REPEATS - 1:
            daemon.stop()
    return daemon, starts


def drive(port: int, stream: RequestStream, seconds: float, out: Outcome):
    """Closed loop: ``CLIENTS`` threads until ``seconds`` have passed.
    Returns the per-request records and the phase wall time."""
    records: Dict[int, dict] = {}
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while time.perf_counter() < deadline:
                item = stream.take()
                if item is None:
                    return
                i, request = item
                status, admit, latency, payload = _submit_and_wait(port, request)
                with lock:
                    records[i] = {"status": status, "admit": admit,
                                  "latency": latency, "payload": payload}
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    for i in sorted(records):
        rec = records[i]
        out.attempted += 1
        if rec["status"] == 429:
            out.fail(f"request r{i}: refused (429)")
            continue
        payload = rec["payload"]
        if rec["status"] != 200 or payload.get("errors"):
            out.fail(f"request r{i}: {rec['status']} {payload}")
            continue
        result = payload["results"]["jobs"][0]
        if "error" in result or sum(result["counts"].values()) != SHOTS:
            out.fail(f"request r{i}: bad result {result.get('error')!r}")
            continue
        rec["service"] = result["seconds"]
        rec["counts"] = {int(k): v for k, v in result["counts"].items()}
    return records, wall


def _stream(seed: int, seconds: float) -> RequestStream:
    # Far more requests than two clients can finish in ``seconds``.
    return RequestStream(seed, int(200 * seconds) + 100)


def serve_e2e(root: str, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    stream = _stream(seed, seconds)
    daemon, starts = _start_daemons(root)
    try:
        records, wall = drive(daemon.port, stream, seconds, out)
    finally:
        daemon.stop()
    done = [r for r in records.values() if "service" in r]
    latency_metrics(
        out, starts, [r["latency"] for r in done], len(done), wall,
        peak_rss_mib(resource.RUSAGE_CHILDREN),
    )
    return out


def serve_layers(root: str, seed: int, seconds: float) -> Outcome:
    """Half of ``seconds`` of HTTP load (the daemon-side split), then the
    first ``10 * seconds`` requests in-process through the program and
    through the traced replay, each from cold caches."""
    out = Outcome()
    floors = {n: measure_floor(n) for n in WIDTHS}  # first, in a clean process
    stream = _stream(seed, seconds)
    daemon = Daemon(root)
    try:
        records, _ = drive(daemon.port, stream, seconds / 2, out)
        runner = daemon.metrics()["runner"]
    finally:
        daemon.stop()
    done = [r for r in records.values() if "service" in r]
    waits = [r["latency"] - r["service"] for r in done]
    serve = {
        "serve.admit_ms_p50": 1e3 * statistics.median(r["admit"] for r in done),
        "serve.service_ms_p50": 1e3 * statistics.median(r["service"] for r in done),
        "serve.wait_ms_p50": 1e3 * percentile(waits, 50),
        "serve.wait_ms_p90": 1e3 * percentile(waits, 90),
        "serve.rejected": sum(1 for r in records.values() if r["status"] == 429),
        "runner.partition_hit_ratio": runner["partition_hits"] / (
            runner["partition_hits"] + runner["partitions_computed"]),
        "runner.structure_hit_ratio": runner["structure_hits"] / (
            runner["structure_hits"] + runner["structures_compiled"]),
    }

    requests = stream.requests[: int(10 * seconds)]
    gc.collect()
    t0 = time.perf_counter()
    program = BatchRunner(strategy="dagP", schedule="grouped", workers=1,
                          backend="serial", method="auto")
    results = []
    for request in requests:
        jobs, _ = load_manifest({"jobs": [request]})
        results.append(program.run([replace(jobs[0], want_state=True)]).results[0])
    untraced_s = time.perf_counter() - t0
    del program

    gc.collect()
    rec = Recorder()
    t0 = time.perf_counter()
    replayed = []
    with rec.span("replay"):
        rp = Replay(rec)
        for request in requests:
            with rec.span("circuits"):
                jobs, _ = load_manifest({"jobs": [request]})
            replayed.append(rp.run_jobs(jobs)[0])
    traced_s = time.perf_counter() - t0
    out.recorder = rec

    for i, (result, (state, counts, _)) in enumerate(zip(results, replayed)):
        out.attempted += 1
        if result.error is not None:
            out.fail(f"request r{i} in-process: {result.error}")
        elif not (same_bits(state, result.state) and counts == result.counts):
            out.fail(f"request r{i}: replay is not bitwise equal to the program")
        elif i in records and records[i].get("counts") not in (None, counts):
            out.fail(f"request r{i}: daemon counts differ from in-process counts")
    out.metrics.update(layer_metrics(rec, rp, floors, untraced_s, traced_s))
    out.metrics.update(serve)
    out.notes.append(
        f"{len(done)} HTTP requests; replayed {len(requests)} in-process"
    )
    return out
