"""Steadiness check: two sets of benchmark runs of the same code.

Usage, from the root of a source checkout::

    python3 bench/steady.py [--runs 10] [--workloads mia-cli,stiff-chain] [--json out.json]

Each set runs every workload ``--runs`` times with seeds 1, 2, ..., one fresh
``bench/run.py`` process per run, untraced, for the ``run_seconds`` that
BENCHMARK.json fixes. For every end-to-end metric and workload it prints each
set's median and quartiles, the spread (third minus first quartile, over the
median) and whether the second set's median is within the metric's bound of
the first's.

It then fits the Python share that ``speed.py`` weights its two kernels by.
For each share from 0 to 1 in steps of 0.1 it prints the spread of every
workload's ``pass_s`` and ``setup_s`` over the runs of both sets together,
next to the spread of the raw wall times, and names the share with the
smallest mean spread.

Exits 0 when every spread stays within its bound and every pair of medians
agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
FIRST_SEED = 1
SHARES = [i / 10 for i in range(11)]

sys.path.insert(0, str(BENCH))
from speed import PYTHON_SHARE, slowness  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["machine"] = next(json.loads(line.split(" | machine ", 1)[1]) for line in lines if " | machine " in line)
    result["raw"] = next(json.loads(line[len("raw | "):]) for line in lines if line.startswith("raw | "))
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def pass_times(runs: list[dict], share: float | None) -> list[float]:
    """Median pass of each run, raw (share None) or at the reference speed."""
    return [r["pass_wall_s"] / (1.0 if share is None else slowness(r["pass_kernels"], share)) for r in runs]


def setup_times(runs: list[dict], share: float | None) -> list[float]:
    return [statistics.median(raw / (1.0 if share is None else slowness(kernels, share))
                              for raw, *kernels in r["setups"]) for r in runs]


def fit_share(runs: dict[str, list[dict]]) -> dict:
    """Spread of every time at every share, over the pooled runs of each workload.

    ``runs`` maps each workload to the ``raw |`` figures of its runs, as
    run.py prints them and the ``raw`` lists of the summary hold them.
    """
    columns = [None, *SHARES]
    rows = {}
    for w, pooled in runs.items():
        rows[f"{w} pass_s"] = [spread(pass_times(pooled, share)) for share in columns]
        rows[f"{w} setup_s"] = [spread(setup_times(pooled, share)) for share in columns]
    mean = [statistics.mean(col) for col in zip(*rows.values())]
    best = SHARES[min(range(len(SHARES)), key=lambda i: mean[i + 1])]
    print(f"\nspread of both sets' runs by Python share (in use: {PYTHON_SHARE})")
    print(f"{'':<26} {'raw':>5} " + " ".join(f"{share:>5.1f}" for share in SHARES))
    for name, row in [*rows.items(), ("mean", mean)]:
        print(f"{name:<26} " + " ".join(f"{x:>5.3f}" for x in row))
    print(f"smallest mean spread at share {best}")
    return {"shares": columns, "spreads": {**rows, "mean": mean}, "best": best, "in_use": PYTHON_SHARE}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", help="comma-separated subset (default: all in BENCHMARK.json)")
    parser.add_argument("--json", help="also write the summary and every run's raw figures here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    runs: dict[str, list[list[dict]]] = {w: [] for w in names}
    for s in range(SETS):
        for w in names:
            runs[w].append([])
        for i in range(args.runs):
            for w in names:
                result = run_once(w, FIRST_SEED + i, seconds)
                runs[w][s].append(result)
                print(f"set {s + 1} {w} seed {FIRST_SEED + i}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics)
                    + f", pass wall {result['raw']['pass_wall_s']:.4g}"
                    + f", failed {result['failed']}/{result['attempted']}, wall {result['wall_s']:.1f} s",
                    flush=True)

    ok = True
    summary = {"run_seconds": seconds, "runs_per_set": args.runs, "sets": SETS,
               "seeds": [FIRST_SEED, FIRST_SEED + args.runs - 1],
               "machine": runs[names[0]][0][0]["machine"], "workloads": {}}
    print(f"\n{'workload':<15} {'metric':<12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in names:
        entry = summary["workloads"][w] = {
            "attempted": sum(r["attempted"] for set_runs in runs[w] for r in set_runs),
            "failed": sum(r["failed"] for set_runs in runs[w] for r in set_runs),
            "max_wall_s": max(r["wall_s"] for set_runs in runs[w] for r in set_runs),
        }
        ok &= entry["failed"] == 0
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize([r["metrics"][name]["value"] for r in set_runs]) for set_runs in runs[w]]
            entry[name] = {"unit": m["unit"], "bound": bound, "sets": sets}
            for s, st in enumerate(sets):
                steady = st["spread"] <= bound
                ok &= steady
                verdicts = ["spread ok" if steady else "SPREAD TOO WIDE"]
                if s > 0:
                    drift = worse_by(sets[0]["median"], st["median"], m["better"])
                    agree = drift <= bound
                    ok &= agree
                    verdicts.append(f"{'agrees' if agree else 'DISAGREES'} ({drift:+.3f} vs set 1)")
                print(f"{w:<15} {name:<12} {s + 1:>3} {st['median']:>10.4f} {st['q1']:>10.4f} "
                      f"{st['q3']:>10.4f} {st['spread']:>7.3f} {bound:>6.2f}  {', '.join(verdicts)}")
        print(f"{w:<15} fail_ratio   {entry['failed']}/{entry['attempted']}, "
              f"longest run {entry['max_wall_s']:.1f} s")
        entry["raw"] = [[{"seed": FIRST_SEED + i, **r["raw"]} for i, r in enumerate(set_runs)]
                        for set_runs in runs[w]]

    summary["python_share_fit"] = fit_share(
        {w: [r["raw"] for set_runs in runs[w] for r in set_runs] for w in names})
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
