"""Run one actkit benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload and-or-scaling --seed 1 --seconds 10 --trace 0

The process imports the library from ``src/`` of the checkout it sits in.
It measures set-up in fresh processes, then repeats passes over the
workload's fixed batch of analyses for ``--seconds``, checks every result
against an independent reference, and prints one JSON object as its last
line of output:

- ``--trace 0``: ``setup_s``, ``pass_s`` and ``peak_rss_mb``, the two times
  scaled to the reference speed that ``speed.py`` defines. The line starting
  ``raw |`` gives the wall times and kernel slownesses they come from;
- ``--trace 1``: per-layer self seconds per pass, counts, peak traced
  memory of the solver layers, and ``trace.overhead_ratio``.

``attempted`` and ``failed`` count analyses; a failure is an exception or an
output that misses its accuracy check. ``--smoke`` shrinks every workload to
a size that runs in about a second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Fresh processes that time set-up, on top of the workload process itself.
SETUP_PROBES = 2

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (needs the line above; imports no numpy or actkit)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(wl) -> float:
    """Seconds to import actkit and actkit.cli and to load the models."""
    t0 = time.perf_counter()
    import actkit  # noqa: F401
    import actkit.cli  # noqa: F401

    wl.load()
    return time.perf_counter() - t0


def setup_sample(wl) -> tuple[float, float, float]:
    """Set-up seconds, and the two kernels' slowness measured right after."""
    from speed import SpeedProbe

    seconds = timed_setup(wl)
    speed = SpeedProbe()
    speed.sample(3)
    return (seconds, *speed.kernels())


def probe_setup(args, out_dir: Path) -> tuple[float, float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup", str(out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(done.stdout.splitlines()[-1]))


class Runner:
    """Repeats passes over a workload's batch and checks every output."""

    def __init__(self, wl):
        self.wl = wl
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_written: list[int] = []

    def run_pass(self) -> float:
        batch = self.wl.analyses()
        if self.tracer:
            self.tracer.start_pass()
        results = []
        t0 = time.perf_counter()
        for analysis_id, thunk in batch:
            if self.tracer:
                self.tracer.analysis = analysis_id
            try:
                results.append((analysis_id, thunk(), None))
            except Exception as exc:  # a failed analysis is counted, and the run goes on
                results.append((analysis_id, None, f"{type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - t0
        for analysis_id, output, error in results:
            self.attempted += 1
            reason = error or self.wl.check(analysis_id, output)
            if reason:
                self.failures.append(f"{analysis_id}: {reason}")
        if hasattr(self.wl, "bytes_written"):
            stdout = sum(len(out[1].encode()) for _, out, err in results if err is None)
            self.bytes_written.append(self.wl.bytes_written() + stdout)
        return elapsed

    def repeat(self, seconds: float, speed=None) -> list[float]:
        """Passes until ``seconds`` have gone by; at least one.

        A SpeedProbe, if given, samples the machine's slowness around every pass.
        """
        times: list[float] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            if speed:
                speed.sample(3)
            times.append(self.run_pass())
        if speed:
            speed.sample(3)
        return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine() -> dict:
    import numpy
    import scipy

    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"), "process_threads": threads,
            "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS") if k in os.environ}}


def end_to_end(runner: Runner, setups: list[tuple[float, float, float]], seconds: float) -> dict:
    """Times at the reference speed: wall seconds over the slowness measured alongside."""
    from speed import PYTHON_SHARE, SpeedProbe, slowness

    speed = SpeedProbe()
    passes = runner.repeat(seconds, speed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernels = speed.kernels()
    setup_s = statistics.median(raw / slowness(slow) for raw, *slow in setups)
    pass_s = statistics.median(passes) / slowness(kernels)
    s1, s2, s3 = quartiles([raw for raw, *_ in setups])
    p1, p2, p3 = quartiles(passes)
    print(f"setup wall   {s2:.4f} s   median of {len(setups)} fresh processes, quartiles {s1:.4f} {s3:.4f}")
    print(f"pass wall    {p2:.4f} s   median of {len(passes)} passes, quartiles {p1:.4f} {p3:.4f}")
    print(f"slowness     python kernel {kernels[0]:.3f} x, numpy kernel {kernels[1]:.3f} x reference "
          f"around passes, weighted {PYTHON_SHARE} : {1 - PYTHON_SHARE:.1f}")
    print("raw | " + json.dumps({"setups": setups, "pass_wall_s": p2, "passes": len(passes),
                                 "pass_kernels": kernels}))
    print(f"setup_s      {setup_s:.4f} s   at reference speed")
    print(f"pass_s       {pass_s:.4f} s   at reference speed")
    print(f"peak_rss_mb  {peak_mb:.1f} MB  ru_maxrss of the workload process")
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}


def per_layer(runner: Runner, tracer, seconds: float, spans_path: Path) -> dict:
    """Untraced passes, traced passes, then one pass with tracemalloc on."""
    from tracing import COUNTERS, PEAK_TARGETS, TARGETS

    untraced = runner.repeat(seconds / 2)
    tracer.install()
    runner.tracer = tracer
    try:
        traced = runner.repeat(seconds / 2)
        tracer.measure_peaks = True
        runner.run_pass()
    finally:
        tracer.uninstall()
    timing_passes = range(len(traced))
    self_s = tracer.per_pass_self()
    metrics = {}
    for layer, fname in TARGETS:
        key = f"{layer}.{fname}"
        metrics[f"{key}_s"] = {"value": statistics.median(self_s[i][key] for i in timing_passes), "unit": "s"}
    for key in COUNTERS:
        metrics[key] = {"value": statistics.median(tracer.counts[i][key] for i in timing_passes), "unit": "count"}
    for key in PEAK_TARGETS.values():
        metrics[key] = {"value": tracer.peaks[-1][key], "unit": "MB"}
    metrics["cli.bytes_written"] = {"value": statistics.median(runner.bytes_written or [0]), "unit": "B"}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path, traced)
    print(f"pass_s untraced {statistics.median(untraced):.4f} s over {len(untraced)} passes, "
          f"traced {statistics.median(traced):.4f} s over {len(traced)} passes")
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "actkit" / "__init__.py").is_file():
        print(f"error: no actkit sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.probe_setup:
        wl = workloads.make(args.workload, args.seed, args.smoke, ROOT, Path(args.probe_setup))
        print(json.dumps(setup_sample(wl)))
        return 0

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, args.smoke, ROOT, out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if hasattr(wl, "write_inputs"):
            wl.write_inputs()
        if args.trace == 0:
            setups = [setup_sample(wl)]
            setups += [probe_setup(args, out_dir) for _ in range(1 if args.smoke else SETUP_PROBES)]
        else:
            timed_setup(wl)
        wl.prepare()
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
              f"{' smoke' if args.smoke else ''} | machine {json.dumps(machine())}")
        if args.trace == 0:
            runner = Runner(wl)
            metrics = end_to_end(runner, setups, args.seconds)
        else:
            from tracing import Tracer

            tracer = Tracer()
            runner = Runner(wl)
            spans = ROOT / ".bench_out" / "spans" / f"{args.workload}-seed{args.seed}.json"
            metrics = per_layer(runner, tracer, args.seconds, spans)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(f"fail_ratio   {failed}/{runner.attempted} = {failed / runner.attempted:.4g}  failed over attempted analyses")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
