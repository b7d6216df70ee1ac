"""One benchmark worker: a fresh process acting as one closed-loop client.

    python3 bench/worker.py setup|plain|traced < spec.json

The worker times ``import ehrwt, ehrwt.cli`` first, before importing
anything else that ehrwt imports, so the stdlib modules it pulls in are
charged to set-up, and gives that time in reference-host seconds
(speed.py) as well. ``setup`` stops there. The other modes read an input
spec (see inputs.py) from stdin and issue its requests one after
another; ``traced`` records spans (see client.py). ``plain`` checks its
results after the timed loop (verify.py); a ``traced`` run is checked
by comparing its outputs with a ``plain`` run's. ``plain`` runs the
host speed probe (speed.py) through the timed loop: its latencies are
in reference-host seconds, and its ``wall_s`` is the loop's wall time
less the probes. The last stdout line is one JSON object.

ehrwt must come from the ``src`` directory next to this benchmark, never
from an installed copy; anything else is an error.
"""

import os
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    start = time.perf_counter()
    import ehrwt
    import ehrwt.cli
    setup_wall_s = time.perf_counter() - start

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(ehrwt.__file__), src]) != src:
        print(f"ehrwt was imported from {ehrwt.__file__}, not from {src}", file=sys.stderr)
        return 1
    from speed import host_scale  # after the import, so it is not charged to set-up
    setup_s = setup_wall_s * host_scale()
    if mode == "setup":
        print('{"setup_s": %r, "setup_wall_s": %r}' % (setup_s, setup_wall_s))
        return 0

    # imported only now so that set-up is charged for what ehrwt imports
    import contextlib
    import hashlib
    import json
    import resource
    import statistics
    import traceback

    from client import Client, hilbert_images
    from spans import REQUEST, Tracer, dump, layer_metrics, traced_wall
    from speed import Probe
    from verify import verify

    spec = json.load(sys.stdin)
    tracer = Tracer() if mode == "traced" else None
    probe = None if tracer is not None else Probe()
    client = Client(tracer)
    polytopes = [None] * len(spec["groups"])
    results = [[None] * len(g["requests"]) for g in spec["groups"]]
    intervals = []
    errors = []

    with probe or contextlib.nullcontext():
        loop_start = time.perf_counter()
        for g, group in enumerate(spec["groups"]):
            for r, ops in enumerate(group["requests"]):
                if tracer is not None:
                    tracer.request = f"{g}.{r}"
                t0 = time.perf_counter()
                try:
                    with client.span(REQUEST):
                        if polytopes[g] is None:
                            polytopes[g] = ehrwt.LatticePolytope(group["vertices"])
                        results[g][r] = [client.run(polytopes[g], op) for op in ops]
                except Exception:  # every failure is counted, and the loop goes on
                    errors.append(((g, r), traceback.format_exc(limit=3)))
                intervals.append((t0, time.perf_counter()))
        loop_end = time.perf_counter()
    if probe is None:
        wall_s = loop_end - loop_start
        latencies = [b - a for a, b in intervals]
    else:
        wall_s = loop_end - loop_start - probe.overhead(loop_start, loop_end)
        latencies = [probe.reference_time(a, b) for a, b in intervals]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [(key, msg.strip().splitlines()[-1]) for key, msg in errors]
    verify_start = time.perf_counter()
    if mode == "plain":
        failures += verify(spec, polytopes, results)
    verify_s = time.perf_counter() - verify_start

    digests = []
    rows = images = bytes_out = 0
    for group_results in results:
        for ops in group_results:
            text = repr([sorted((k, v) for k, v in res.items() if k != "w")
                         for res in ops or ()])
            digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
            for res in ops or ():
                rows += len(res.get("inequalities", ()))
                if "series" in res and "poly" not in res:
                    images += hilbert_images(res["series"])
                bytes_out += len(res.get("out", "").encode())
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "verify_s": verify_s,
        "attempted": len(latencies),
        "failures": [[list(key), msg] for key, msg in failures],
        "fingerprint": {
            "requests": len(latencies),
            "rows": rows,
            "images": images,
            "bytes_out": bytes_out,
            "outputs": hashlib.sha256("".join(digests).encode()).hexdigest()[:16],
        },
        "digests": digests,
    }
    if probe is not None:
        out["probe_s"] = statistics.median(probe.durations) if probe.durations else None
    if tracer is not None:
        out["traced_wall_s"] = traced_wall(tracer.spans)
        out["layers"] = layer_metrics(tracer.spans)
        out["spans"] = dump(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
