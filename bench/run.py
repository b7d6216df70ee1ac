"""ehrwt benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ehrwt is imported from ``src`` as is,
with nothing to build. Every timed run is a fresh worker process
(worker.py) acting as one closed-loop client, and only one worker runs
at a time. The request list depends only on the workload, the seed and
``--seconds`` (inputs.py).

The list is sized so that the worker's pass takes about half of
``--seconds`` in reference-host time at the commit that introduced the
benchmark; it stays the same when the library gets faster, so ``wall_s``
compares like with like.

--trace 0: one fresh worker runs the list once and checks every result
    outside its timed region (verify.py). ``wall_s``, the job
    percentiles and ``peak_rss_mb`` come from that pass. The host's speed
    drifts, so the worker runs a speed probe along the timed loop and
    gives each request's latency in reference-host seconds (speed.py);
    ``wall_s`` is their sum, and the percentiles are taken over them.
--trace 1: the same untraced, checked worker, then a traced worker on
    the same list. The traced worker replays the library's pipeline
    with a span per layer (client.py) and gives the per-layer metrics;
    its outputs must equal the untraced ones request by request.
    ``trace.overhead_s`` is its wall time less the untraced one. The
    spans go to ``bench/out/trace-<workload>-<seed>.json``.

Fourteen extra processes only import ehrwt, so ``setup_s`` is a median
of fifteen imports, each in reference-host seconds from probes run right
after it. Metric names and units come from BENCHMARK.json.
Human-readable lines go first; the last stdout line is the JSON result.
The exit code is 1, with no result, when a worker cannot run, for
example because ``src/ehrwt`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 14
DEADLINE_S = 170  # a run must end within 180 s


class WorkerError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode, spec=None, deadline=None) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), mode]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv, input=json.dumps(spec) if spec else "", text=True,
                              capture_output=True, cwd=ROOT, env=_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 \
        else values[0]


def measure(workload, seed, seconds, trace) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spec = make_spec(workload, seed, seconds)
    run_worker("setup", deadline=deadline)  # untimed: writes the bytecode cache
    setups = [run_worker("setup", deadline=deadline) for _ in range(SETUP_SAMPLES)]
    plain = run_worker("plain", spec, deadline=deadline)
    setups.append(plain)
    notes = [f"set-up wall time median {statistics.median(w['setup_wall_s'] for w in setups):.4f} s"]

    failed = len({tuple(key) for key, _ in plain["failures"]})
    notes += [f"request {key}: {msg}" for key, msg in plain["failures"]]
    attempted = plain["attempted"]
    if trace:
        traced = run_worker("traced", spec, deadline=deadline)
        bad = sum(a != b for a, b in zip(plain["digests"], traced["digests"]))
        failed += bad + len(traced["failures"])
        attempted += traced["attempted"]
        if bad or plain["fingerprint"] != traced["fingerprint"]:
            notes.append(f"traced worker: {bad} request outputs differ; fingerprint "
                         f"{traced['fingerprint']} != {plain['fingerprint']}")
        notes += [f"traced request {key}: {msg}" for key, msg in traced["failures"]]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["traced_wall_s"] - plain["wall_s"]
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload}-{seed}.json"
        path.write_text(json.dumps(traced["spans"]))
        notes.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        latencies = plain["latencies"]
        probe = plain["probe_s"]
        notes.append(f"wall time {plain['wall_s']:.3f} s, median probe "
                     + (f"{probe * 1e3:.4f} ms" if probe else "none"))
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in setups),
            "wall_s": sum(latencies),
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": _p90(latencies),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
    info = {
        "attempted": attempted,
        "failed": failed,
        "fingerprint": plain["fingerprint"],
        "properties": spec["properties"],
        "run_s": time.monotonic() - start,
        "verify_s": plain["verify_s"],
        "notes": notes,
    }
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    try:
        metrics, info = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    if args.trace:  # the traced counts repeat exactly for a seed, like the untraced ones
        info["fingerprint"].update((name, metrics[name]) for name, unit in units.items()
                                   if unit in ("count", "bytes"))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  run {info['run_s']:.1f} s  "
          f"verify {info['verify_s']:.1f} s")
    print("inputs " + json.dumps(info["properties"]))
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_ratio':48s} {info['failed'] / info['attempted']:>14.6g} ratio "
          f"({info['failed']} of {info['attempted']} requests)")
    print("fingerprint " + json.dumps(info["fingerprint"], sort_keys=True))
    for note in info["notes"]:
        print("note: " + note)
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
