"""Tests of the benchmark itself, on the tiny ``--smoke`` sizes.

Run from the root of a source checkout::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
        raw = next(json.loads(line[6:]) for line in done.stdout.splitlines() if line.startswith("raw | "))
        assert len(raw["setups"]) == 2 and raw["pass_wall_s"] > 0
    else:
        spans = ROOT / ".bench_out" / "spans" / f"{workload}-seed3.json"
        shares = report.shares(json.loads(spans.read_text(encoding="utf-8")))
        assert 0 < sum(v for k, v in shares.items() if " " not in k) <= 1 + 1e-9
    assert "fail_ratio" in done.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "stiff-chain", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _loaded(name, out_dir):
    wl = workloads.make(name, 5, True, ROOT, out_dir)
    if hasattr(wl, "write_inputs"):
        wl.write_inputs()
    wl.load()
    wl.prepare()
    return wl


@pytest.mark.parametrize("name", ["and-or-scaling", "stiff-chain"])
def test_curve_gate_rejects_a_shifted_curve(name, tmp_path):
    wl = _loaded(name, tmp_path)
    (analysis_id, thunk), = wl.analyses()
    ys = thunk()
    assert wl.check(analysis_id, ys) is None
    shifted = list(ys)
    shifted[len(ys) // 2] += 10 * workloads.EPSILON
    assert wl.check(analysis_id, shifted) is not None


def test_rank_gate_rejects_a_wrong_delta(tmp_path):
    wl = _loaded("rank-many-cm", tmp_path)
    (analysis_id, thunk), = wl.analyses()
    ranking = thunk()
    assert wl.check(analysis_id, ranking) is None
    name, p_with, p_without, delta = ranking[0]
    wrong = [(name, p_with, p_without + 1e-6, delta + 1e-6)] + ranking[1:]
    assert wl.check(analysis_id, wrong) is not None


def test_mia_gates_catch_a_moved_curve_and_changed_bytes(tmp_path):
    wl = _loaded("mia-cli", tmp_path)
    results = {aid: thunk() for aid, thunk in wl.analyses()}
    assert all(wl.check(aid, out) is None for aid, out in results.items())

    path = sorted((tmp_path / "dynamic-json").iterdir())[0]
    curve = json.loads(path.read_text())
    curve["ys"][-1] -= 0.05
    path.write_text(json.dumps(curve))
    assert "simulator" in wl.check("dynamic-json", results["dynamic-json"])

    results = {aid: thunk() for aid, thunk in wl.analyses()}
    (tmp_path / "export-ctmc" / "ctmc_full.txt").write_text("#states 0\n")
    assert "first pass" in wl.check("export-ctmc", results["export-ctmc"])


class _Flaky:
    def analyses(self):
        return [("fine", lambda: 1), ("wrong", lambda: 2), ("raises", lambda: 1 / 0)]

    def check(self, analysis_id, output):
        return None if output == 1 else "wrong answer"


def test_runner_counts_exceptions_and_misses_as_failures():
    runner = run.Runner(_Flaky())
    runner.run_pass()
    assert runner.attempted == 3
    assert [f.split(":")[0] for f in runner.failures] == ["wrong", "raises"]


def test_tracer_wraps_direct_imports_and_restores_them():
    import actkit.cli
    import actkit.ranking
    import actkit.semantics

    original = actkit.semantics.compose
    tracer = Tracer()
    tracer.install()
    try:
        assert actkit.ranking.compose is not original
        assert actkit.cli.compose is actkit.ranking.compose is actkit.semantics.compose
    finally:
        tracer.uninstall()
    assert actkit.ranking.compose is original and actkit.cli.compose is original


def test_fit_finds_the_share_that_explains_the_drift():
    slowness = [(1.0, 0.8), (1.3, 1.0), (0.9, 1.2), (1.1, 0.9), (1.2, 1.1)]
    runs = [{"pass_wall_s": 2.0 * (0.3 * py + 0.7 * npy), "pass_kernels": [py, npy],
             "setups": [[1.5 * (0.3 * py + 0.7 * npy), py, npy]]} for py, npy in slowness]
    fit = steady.fit_share({"stiff-chain": runs})
    assert fit["best"] == 0.3
    raw, *by_share = fit["spreads"]["mean"]
    assert raw > 0.1 and by_share[3] < 1e-12 and min(by_share) == by_share[3]
