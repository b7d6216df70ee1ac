"""Run one workload over several seeds; print each metric's median and spread.

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Seeds are a range ``a-b`` or a comma list. Every run's determinism
fingerprint is kept in ``bench/out/fingerprints.json``; a run of a
workload, seed and length seen before, in this call or an earlier one,
must reproduce it exactly. The spread of a metric
is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json. Runs go one after another, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    store = ROOT / "bench" / "out" / "fingerprints.json"
    prints = json.loads(store.read_text()) if store.exists() else {}
    ok = True
    for seed in parse_seeds(args.seeds):
        argv = [*declared["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable if argv[0] == "python3" else argv[0], *argv[1:]],
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        fingerprint = next(l for l in lines if l.startswith("fingerprint "))[12:]
        key = f"{args.workload}:{seed}:{args.seconds}:{args.trace}"
        if prints.setdefault(key, fingerprint) != fingerprint:
            print(f"seed {seed}: fingerprint changed: {prints[key]} -> {fingerprint}")
            ok = False
        store.parent.mkdir(exist_ok=True)
        store.write_text(json.dumps(prints, indent=1, sort_keys=True))
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {fingerprint} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    print(f"{'metric':48s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) > 1 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / median:8.4f}"
        else:
            spread = f"{'-':>8s}"
        bound = bounds.get(name)
        print(f"{name:48s} {median:12.6g} {spread} {bound if bound is not None else '':>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
