"""Layer-share report: where a traced pass spends its time, against the forecast.

Usage, from the root of a source checkout::

    python3 bench/report.py [--workloads mia-cli,stiff-chain]

For each workload this runs ``bench/run.py --trace 1`` with seed 1 for the
``run_seconds`` that BENCHMARK.json fixes, in a fresh process,
reads the spans it writes, and prints each layer's and each function's
self-time share of the traced passes next to the shares forecast in
``PREDICTED``. Time no span covers is the benchmark's own loop. A workload
whose dominant function, or the layer of that function, is not the
forecast one is flagged, and the command then exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1
sys.path.insert(0, str(BENCH))
from tracing import self_times  # noqa: E402

# Forecast self-time shares of a pass, and the function expected to dominate.
# None means "most of the pass" without a figure.
PREDICTED = {
    "mia-cli": ("transient.simulate", {"transient.simulate": 0.53, "ranking (incl. children)": 0.05}),
    "and-or-scaling": ("semantics.compose", {"semantics.compose": 0.95, "transient.transient_probability": 0.03}),
    "stiff-chain": ("transient.transient_probability",
                    {"transient.transient_probability": 1.0, "semantics.compose": 0.0}),
    "rank-many-cm": ("semantics.compose", {"compose under ranking": None}),
}


def shares(trace: dict) -> dict[str, float]:
    """Self-time share of the traced passes per function, plus derived rows."""
    passes = len(trace["pass_seconds"])
    total = sum(trace["pass_seconds"])
    spans = trace["spans"]
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span[5] >= passes:  # the tracemalloc pass: its times are not representative
            continue
        out[span[0]] += own / total
        above = {spans[a][0] for a in _ancestors(spans, span)}
        if "ranking.rank_countermeasures" in above:
            if span[0] == "semantics.compose":
                out["compose under ranking"] += own / total
        elif span[0] == "ranking.rank_countermeasures":
            out["ranking (incl. children)"] += (span[2] - span[1]) / total
    return out


def _ancestors(spans, span):
    i = span[3]
    while i is not None:
        yield i
        i = spans[i][3]


def report(workload: str, trace: dict) -> bool:
    """Print one workload's shares; True when the forecast dominant holds."""
    measured = shares(trace)
    functions = {k: v for k, v in measured.items() if "." in k and " " not in k}
    layers: dict[str, float] = defaultdict(float)
    for fn, share in functions.items():
        layers[fn.split(".")[0]] += share
    layers["(benchmark loop)"] = 1.0 - sum(functions.values())
    dominant, forecast = PREDICTED[workload]
    top_fn = max(functions, key=functions.get)
    top_layer = max((k for k in layers if not k.startswith("(")), key=layers.get)
    ok = top_fn == dominant and top_layer == dominant.split(".")[0]

    passes = trace["pass_seconds"]
    print(f"\n{workload}: {len(passes)} traced passes, {sum(passes) / len(passes):.3f} s per pass")
    print(f"  {'layer':<34} {'self share':>10}")
    for layer, share in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<34} {share:>10.3f}")
    print(f"  {'function or group':<34} {'self share':>10} {'forecast':>9}")
    rows = sorted(functions.items(), key=lambda kv: -kv[1])[:6]
    rows += [(k, measured.get(k, 0.0)) for k in forecast if k not in functions]
    for name, share in rows:
        pred = forecast.get(name, "")
        pred = "most" if name in forecast and pred is None else (f"{pred:.2f}" if pred != "" else "")
        print(f"  {name:<34} {share:>10.3f} {pred:>9}")
    verdict = "as forecast" if ok else "FLAG: not the forecast dominant"
    print(f"  dominant: {top_fn} in layer {top_layer} (forecast {dominant}) -> {verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    ok = True
    names = args.workloads.split(",") if args.workloads else list(PREDICTED)
    for workload in names:
        spans = ROOT / ".bench_out" / "spans" / f"{workload}-seed{SEED}.json"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", "1"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        ok &= report(workload, json.loads(spans.read_text(encoding="utf-8")))
        overhead = result["metrics"]["trace.overhead_ratio"]["value"]
        print(f"  trace.overhead_ratio {overhead:+.3f}; failed {result['failed']}/{result['attempted']}")
        ok &= result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
