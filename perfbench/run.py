"""End-to-end and per-layer benchmark of the hierarchical simulator.

Run from the repository root::

    python3 perfbench/run.py --workload qft20 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced replay and reports the per-layer metrics.
The metric names and units are read from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one measures.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 1 when a correctness gate failed and 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, seed: int, seconds: float, trace: bool):
    import serve_load
    import workloads

    table = {
        "qft20": (workloads.qft20_e2e, workloads.qft20_layers),
        "qaoa20-sweep": (workloads.qaoa_e2e, workloads.qaoa_layers),
        "mixed14-serve": (
            lambda s, t: serve_load.serve_e2e(ROOT, s, t),
            lambda s, t: serve_load.serve_layers(ROOT, s, t),
        ),
    }
    return table[workload][1 if trace else 0](seed, seconds)


def main(argv=None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: package sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from floor import environment

    width = {"qft20": 20, "qaoa20-sweep": 20, "mixed14-serve": 14}
    env = environment(args.seed, width[args.workload])
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))

    outcome = _run(args.workload, args.seed, args.seconds, bool(args.trace))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    metrics = {
        m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    if outcome.recorder is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"
        )
        outcome.recorder.dump(path, {"workload": args.workload,
                                     "seed": args.seed, "environment": env})
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    for note in outcome.notes:
        print(f"# {note}")
    for error in outcome.errors:
        print(f"# FAILED: {error}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
