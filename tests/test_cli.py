import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import actkit
from actkit import load_bundled, parse_act
from actkit.cli import main
from actkit.dsl import serialize_act
from actkit.model import Scenario, with_attack_probability
from actkit.semantics import compose, export_ctmc_text, parse_ctmc_text
from actkit.transient import goal_curve, goal_curves, simulate_curves

from oracles import and_of_ors, branch_curves, guarded_or, or_chain_text, or_wide_text

MINIMAL = (
    'act "Mini" {\n'
    '  root top;\n'
    '  top = AND(a, cm);\n'
    '  a = ATTACK(p=0.8);\n'
    '  cm = CM(d, m);\n'
    '  d = DETECT(p=0.6);\n'
    '  m = MITIGATE(p=0.5);\n'
    '}\n'
)


@pytest.fixture
def mia_path(tmp_path):
    path = tmp_path / "mia.act"
    path.write_text(serialize_act(load_bundled("mia")), encoding="utf-8")
    return str(path)


@pytest.fixture
def mini_path(tmp_path):
    path = tmp_path / "mini.act"
    path.write_text(MINIMAL, encoding="utf-8")
    return str(path)


def test_validate_ok(mini_path, capsys):
    assert main(["validate", "--model", mini_path]) == 0
    out = capsys.readouterr().out
    assert "Mini" in out and "ok" in out


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--model", str(tmp_path / "nope.act")]) == 1


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.act"
    path.write_text('act "B" { root a; a = ATTACK(p=); }', encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert "expected" in capsys.readouterr().err


def test_validate_structural_error(tmp_path, capsys):
    path = tmp_path / "invalid.act"
    for text, code in (('act "B" { root g; g = OR(c, a); a = ATTACK(p=0.5); '
                        'c = CM(d, m); d = DETECT(p=0.5); m = MITIGATE(p=0.5); }', "CmPlacement"),
                       ('act "x" { root d; d = DETECT(p=0.5, t=1.0); }', "LeafPlacement"),
                       ('act "x" { root m; m = MITIGATE(p=0.5, t=1.0); }', "LeafPlacement")):
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--model", str(path)]) == 2
        assert code in capsys.readouterr().err


def test_numeric_limit_exit_code(tmp_path, capsys):
    # a certain detection has no finite rate; certain attacks are caught too
    path = tmp_path / "sure.act"
    path.write_text('act "S" { root g; g = AND(a, c); a = ATTACK(p=0.5); '
                    'c = CM(d, m); d = DETECT(p=1.0); m = MITIGATE(p=0.5); }',
                    encoding="utf-8")
    assert main(["dynamic", "--model", str(path), "--out", str(tmp_path)]) == 3
    leaf = tmp_path / "leaf.act"
    leaf.write_text('act "L" { root a; a = ATTACK(p=1.0); }', encoding="utf-8")
    assert main(["export-ctmc", "--model", str(leaf)]) == 3


def test_rank_near_the_largest_double_writes_only_the_error(tmp_path):
    # rates that sum past the largest double: exit 3, one stderr line, no warning or traceback
    path = tmp_path / "fast.act"
    path.write_text('act "fast" { root g; g = AND(o, cm); o = OR(a, b); a = ATTACK(p=0.5, lambda=1e308); '
                    'b = ATTACK(p=0.5, lambda=1e308); cm = CM(d, m); d = DETECT(p=0.5, lambda=1.0); '
                    'm = MITIGATE(p=0.5, lambda=1.0); }', encoding="utf-8")
    src = str(Path(actkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-W", "default", "-m", "actkit.cli", "rank", "--model", str(path),
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "error: the completion rates sum past the largest double\n"
    assert not out.exists()


def test_rank_and_dynamic_reach_far_past_a_fast_race(tmp_path):
    # phases over by t = 1e-197, read out to t = 1e120: the quadrature's widening toward it must not overflow
    path = tmp_path / "fast.act"
    path.write_text('act "fast guard" { root g; g = AND(a, cm); a = ATTACK(p=0.5, lambda=1e300); cm = CM(d, m); '
                    'd = DETECT(p=0.5, lambda=1e200); m = MITIGATE(p=0.5, lambda=1e200); }', encoding="utf-8")
    assert main(["rank", "--model", str(path), "--t-star", "1e120", "--out", str(tmp_path / "rank")]) == 0
    payload = json.loads((tmp_path / "rank" / "rank.json").read_text())
    assert [row["name"] for row in payload["ranking"]] == ["cm"]
    assert main(["dynamic", "--model", str(path), "--grid", "0:1e120:2", "--out", str(tmp_path / "dynamic")]) == 0


def test_timed_failure_writes_no_curve(mia_path, tmp_path):
    # the second pleaf fails after the first is read or solved, and no curve is written
    for argv in (["dynamic", "--pleaf", "0.1", "--pleaf", "1.0"],
                 ["simulate", "--runs", "100", "--pleaf", "0.1", "--pleaf", "1.0"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--model", mia_path, "--out", str(out)]) == 3
        assert not list(out.glob("dynamic_*"))


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["simulate", "--runs", "0"],
    # a grid no address space holds: the allocation is refused before any memory is touched
    ["dynamic", "--grid", "0:10:1000000000000000000"],
    # grids whose span STOP - START overflows, which numpy would spread with overflow warnings
    *([command, f"--grid={grid}"] for command in ("dynamic", "simulate", "static-sweep")
      for grid in ("0:inf:3", "-1e308:1e308:3")),
    ["export-ctmc", "--state-cap", "0"],
    ["export-ctmc", "--state-cap", "-3"],
    # an attack-leaf probability outside [0, 1] is refused before any model is built
    ["dynamic", "--pleaf", "2"],
    ["simulate", "--pleaf", "2"],
    # a sweep grid past [0, 1] leaves no output directory behind
    ["static-sweep", "--grid", "0:2:3"],
])
def test_bad_simulation_arguments_and_refused_allocations_exit_3(argv, mia_path, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print ahead of the error line
        assert main([*argv, "--model", mia_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_state_cap_exit_code(mia_path, tmp_path):
    assert main(["export-ctmc", "--model", mia_path, "--state-cap", "3",
                 "--out", str(tmp_path)]) == 3


def test_dynamic_and_rank_reject_state_cap(mia_path, tmp_path):
    # neither builds a chain, so only export-ctmc has a state cap
    for command in ("dynamic", "rank"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", mia_path, "--state-cap", "4", "--out", str(tmp_path)])
        assert exc.value.code == 2


def test_dynamic_guarded_and_of_two_hundred_leaves(tmp_path):
    # the root's chain would have more than 2^100 states
    path = tmp_path / "and-or.act"
    path.write_text(serialize_act(and_of_ors(100)), encoding="utf-8")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["dynamic", "--model", str(path), "--format", "json", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    for pleaf in (0.05, 0.1, 0.25):
        curves = {s: np.asarray(json.loads((out / f"dynamic_{s.value}_p{pleaf:g}.json").read_text())["ys"])
                  for s in Scenario}
        xs = np.asarray(json.loads((out / f"dynamic_no-cm_p{pleaf:g}.json").read_text())["xs"])
        # without the countermeasure the root is the AND of 100 ORs of two leaves
        rate = -np.log1p(-pleaf)
        assert np.allclose(curves[Scenario.NO_CM], (-np.expm1(-2 * rate * xs)) ** 100, rtol=0, atol=1e-12)
        assert np.all(curves[Scenario.DETECT_ONLY] <= curves[Scenario.FULL] + 2e-6)
        assert np.all(curves[Scenario.FULL] <= curves[Scenario.NO_CM] + 2e-6)


def test_bad_grid_exit_code(mia_path, tmp_path):
    assert main(["dynamic", "--model", mia_path, "--grid", "5:1:10",
                 "--out", str(tmp_path)]) == 3
    assert main(["dynamic", "--model", mia_path, "--grid", "oops",
                 "--out", str(tmp_path)]) == 3


def test_static_sweep_files(mia_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["static-sweep", "--model", mia_path, "--grid", "0:1:11",
                 "--out", str(out)]) == 0
    for scenario in ("no-cm", "detect-only", "full"):
        table = np.loadtxt(out / f"static_{scenario}.dat")
        assert table.shape == (11, 2)
        assert table[0, 0] == 0.0 and table[0, 1] == 0.0
    nocm = np.loadtxt(out / "static_no-cm.dat")
    assert nocm[-1, 1] == 1.0


def test_dynamic_files_and_dominance(mia_path, tmp_path):
    out = tmp_path / "dyn"
    assert main(["dynamic", "--model", mia_path, "--grid", "0:6:13",
                 "--pleaf", "0.25", "--out", str(out)]) == 0
    tables = {sc: np.loadtxt(out / f"dynamic_{sc}_p0.25.dat")
              for sc in ("no-cm", "detect-only", "full")}
    for table in tables.values():
        assert table.shape == (13, 2)
        assert table[0, 1] == 0.0
        # printed at 6 significant digits with solver tolerance 1e-6
        assert np.all(np.diff(table[:, 1]) >= -3e-6)
    eps = 1e-6
    assert np.all(tables["detect-only"][:, 1] <= tables["full"][:, 1] + eps)
    assert np.all(tables["full"][:, 1] <= tables["no-cm"][:, 1] + eps)


def test_dynamic_default_pleaf_set(mia_path, tmp_path):
    out = tmp_path / "dyn"
    assert main(["dynamic", "--model", mia_path, "--grid", "0:2:3",
                 "--scenario", "full", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["dynamic_full_p0.05.dat", "dynamic_full_p0.1.dat",
                     "dynamic_full_p0.25.dat"]


def test_dat_files_have_only_comment_headers(mia_path, tmp_path):
    out = tmp_path / "fmt"
    main(["dynamic", "--model", mia_path, "--grid", "0:2:3", "--pleaf", "0.1",
          "--scenario", "full", "--out", str(out)])
    lines = (out / "dynamic_full_p0.1.dat").read_text().splitlines()
    assert lines[0].startswith("#")
    for line in lines[1:]:
        a, b = line.split()
        float(a), float(b)


def test_csv_and_json_formats(mia_path, tmp_path):
    out = tmp_path / "forms"
    assert main(["dynamic", "--model", mia_path, "--grid", "0:2:5", "--pleaf", "0.1",
                 "--scenario", "full", "--format", "csv", "--out", str(out)]) == 0
    csv_lines = (out / "dynamic_full_p0.1.csv").read_text().splitlines()
    assert csv_lines[0] == "Time,Pgoal"
    assert len(csv_lines) == 6

    assert main(["dynamic", "--model", mia_path, "--grid", "0:2:5", "--pleaf", "0.1",
                 "--scenario", "full", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads((out / "dynamic_full_p0.1.json").read_text())
    assert payload["scenario"] == "full"
    assert len(payload["xs"]) == 5 and len(payload["ys"]) == 5
    assert payload["meta"]["pleaf"] == 0.1

    assert main(["static-sweep", "--model", mia_path, "--grid", "0:1:11", "--format", "json",
                 "--out", str(out)]) == 0
    assert main(["static-sweep", "--model", mia_path, "--grid", "0:1:11", "--out", str(out)]) == 0
    for scenario in Scenario:
        payload = json.loads((out / f"static_{scenario.value}.json").read_text())
        table = np.loadtxt(out / f"static_{scenario.value}.dat")
        assert payload["scenario"] == scenario.value and payload["model"] == "Malicious Insider Attack"
        assert payload["grid"] == pytest.approx(table[:, 0], rel=1e-5)
        assert payload["pgoal"] == pytest.approx(table[:, 1], rel=1e-5, abs=1e-12)


def test_curve_json_keeps_the_standard_layout(mia_path, tmp_path):
    # a curve's file holds the curve the library computes for its (scenario, pleaf) pair
    grid = np.linspace(0.0, 5.0, 11)
    mia = load_bundled("mia")
    ((solved, _),) = goal_curves(mia, grid, 1e-6, [(Scenario.FULL, 0.1)])
    (simulated,) = simulate_curves(mia, grid, 500, 7, [(Scenario.DETECT_ONLY, 0.1)])
    for argv, curve in ((["dynamic", "--scenario", "full"], solved),
                        (["simulate", "--scenario", "detect-only", "--runs", "500", "--seed", "7"], simulated)):
        out = tmp_path / "one" / argv[0]
        assert main([*argv, "--model", mia_path, "--pleaf", "0.1", "--grid", "0:5:11", "--format", "json",
                     "--out", str(out)]) == 0
        (path,) = out.iterdir()
        halfwidths = list(curve.halfwidths) if curve.halfwidths else None
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "scenario": curve.scenario.value, "xs": list(curve.xs), "ys": list(curve.ys),
            "halfwidths": halfwidths, "meta": {**curve.meta, "pleaf": 0.1}}
    # every JSON file the CLI writes
    for argv in (["dynamic", "--grid", "0:5:11"], ["simulate", "--grid", "0:5:11", "--runs", "500"],
                 ["static-sweep", "--grid", "0:1:11"]):
        assert main([*argv, "--model", mia_path, "--format", "json", "--out", str(tmp_path / argv[0])]) == 0
    assert main(["rank", "--model", mia_path, "--out", str(tmp_path / "rank")]) == 0
    files = sorted(tmp_path.glob("*/*.json"))
    assert len(files) == 9 + 9 + 3 + 1
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


_RANK_JSON = """{
  "ranking": [
    {
      "delta": %r,
      "name": "cm",
      "pgoal_with": %r,
      "pgoal_without": %r
    }
  ],
  "t_star": 2.0
}
"""


def test_json_files_have_the_written_down_layout(mini_path, tmp_path):
    out = tmp_path / "out"
    assert main(["static-sweep", "--model", mini_path, "--grid", "0:1:3", "--scenario", "full",
                 "--format", "json", "--out", str(out)]) == 0
    assert (out / "static_full.json").read_text(encoding="utf-8") == (
        '{\n  "grid": [\n    0.0,\n    0.5,\n    1.0\n  ],\n  "model": "Mini",\n'
        '  "pgoal": [\n    0.0,\n    0.35,\n    0.7\n  ],\n  "scenario": "full"\n}\n')
    assert main(["rank", "--model", mini_path, "--out", str(out)]) == 0
    text = (out / "rank.json").read_text(encoding="utf-8")
    # the solver's values may differ in their last bits between platforms; the layout may not
    (effect,) = json.loads(text)["ranking"]
    assert [effect["delta"], effect["pgoal_with"], effect["pgoal_without"]] == pytest.approx(
        [0.08524215816862923, 0.8747578418313707, 0.96], rel=1e-12)
    assert text == _RANK_JSON % (effect["delta"], effect["pgoal_with"], effect["pgoal_without"])


def test_dynamic_deterministic_bytes(mia_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["dynamic", "--model", mia_path, "--grid", "0:4:9",
                     "--pleaf", "0.1", "--scenario", "full", "--out", str(out)]) == 0
        outs.append((out / "dynamic_full_p0.1.dat").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_command_deterministic(mia_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--model", mia_path, "--grid", "0:2:5",
                     "--pleaf", "0.1", "--scenario", "full", "--runs", "20000",
                     "--seed", "11", "--out", str(out)]) == 0
        outs.append((out / "dynamic_full_p0.1.dat").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_pleafs_write_the_bytes_of_single_pleaf_runs(mia_path, tmp_path):
    # the curves of one scenario share their draws, each still equal to its own run
    common = ["simulate", "--model", mia_path, "--grid", "0:4:9", "--runs", "20000", "--seed", "5"]
    assert main(common + ["--pleaf", "0", "--pleaf", "0.1", "--pleaf", "0.25",
                          "--out", str(tmp_path / "all")]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "all").iterdir()}
    alone = {}
    for pleaf in ("0", "0.1", "0.25"):
        out = tmp_path / f"p{pleaf}"
        assert main(common + ["--pleaf", pleaf, "--out", str(out)]) == 0
        alone.update((p.name, p.read_bytes()) for p in out.iterdir())
    assert len(written) == 9 and written == alone


@pytest.mark.parametrize("fmt", ["dat", "json"])
def test_dynamic_pleafs_write_the_bytes_of_single_pleaf_runs(mia_path, tmp_path, fmt):
    # one call solves every curve off one gate table, each still equal to its own run
    common = ["dynamic", "--model", mia_path, "--grid", "0:4:9", "--format", fmt]
    assert main(common + ["--pleaf", "0", "--pleaf", "0.1", "--pleaf", "0.25",
                          "--out", str(tmp_path / "all")]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "all").iterdir()}
    alone = {}
    for scenario in ("full", "no-cm", "detect-only"):
        for pleaf in ("0", "0.1", "0.25"):
            out = tmp_path / f"{scenario}_p{pleaf}"
            assert main(common + ["--scenario", scenario, "--pleaf", pleaf, "--out", str(out)]) == 0
            alone.update((p.name, p.read_bytes()) for p in out.iterdir())
    assert len(written) == 9 and written == alone


MIXED = (
    'act "mixed horizons" {\n'
    '  root goal;\n'
    '  goal = OR(both, guarded);\n'
    '  both = AND(a, b);\n'
    '  guarded = AND(c, d, cm);\n'
    '  a = ATTACK(p=0.2, t=0.5);\n'
    '  b = ATTACK(p=0.3, t=2.5);\n'
    '  c = ATTACK(p=0.1, t=1.0);\n'
    '  d = ATTACK(p=0.4, lambda=0.7);\n'
    '  cm = CM(det, mit);\n'
    '  det = DETECT(p=0.5, t=2.0);\n'
    '  mit = MITIGATE(p=0.4, t=1.5);\n'
    '}\n'
)


@pytest.mark.parametrize("command", ["dynamic", "simulate"])
def test_mixed_horizon_pleafs_write_the_bytes_of_single_pleaf_runs(command, tmp_path):
    # under a positive --pleaf, c and d (its rate dropped, so read over 1 h) share one rate while a and b do
    # not; each curve is still the one its own --pleaf run writes
    path = tmp_path / "mixed.act"
    path.write_text(MIXED, encoding="utf-8")
    common = [command, "--model", str(path), "--grid", "0:4:9", "--format", "json"]
    common += ["--runs", "3000", "--seed", "5"] if command == "simulate" else ["--epsilon", "1e-9"]
    pleafs = ("0", "0.1", "0.6")
    assert main(common + [arg for p in pleafs for arg in ("--pleaf", p)] + ["--out", str(tmp_path / "all")]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "all").iterdir()}
    alone = {}
    for pleaf in pleafs:
        out = tmp_path / f"p{pleaf}"
        assert main(common + ["--pleaf", pleaf, "--out", str(out)]) == 0
        alone.update((p.name, p.read_bytes()) for p in out.iterdir())
    assert len(written) == 9 and written == alone
    if command == "dynamic":
        act = parse_act(MIXED)
        for scenario in Scenario:
            for pleaf in pleafs:
                curve = goal_curve(with_attack_probability(act, float(pleaf)), scenario, np.linspace(0.0, 4.0, 9), 1e-9)
                payload = json.loads(written[f"dynamic_{scenario.value}_p{pleaf}.json"])
                assert (payload["xs"], payload["ys"]) == (list(curve.xs), list(curve.ys))
                assert payload["meta"] == {**curve.meta, "pleaf": float(pleaf)}


@pytest.mark.parametrize("command", ["dynamic", "simulate"])
def test_repeated_requests_are_answered_once(command, mia_path, tmp_path, capsys):
    # a repeated --scenario, or a --pleaf equal to an earlier one, asks nothing new: each curve is written and
    # printed once, under the spelling first given, with the bytes of a run that names each request once
    common = [command, "--model", mia_path, "--grid", "0:2:5"] + (["--runs", "500"] if command == "simulate" else [])
    scenarios = ["--scenario", "full", "--scenario", "no-cm", "--scenario", "full"]
    pleafs = ["--pleaf", "0.1", "--pleaf", "-0.0", "--pleaf", "0.10", "--pleaf", "0.0"]
    assert main(common + scenarios + pleafs + ["--out", str(tmp_path / "repeated")]) == 0
    printed = [Path(line).name for line in capsys.readouterr().out.split()]
    assert printed == [f"dynamic_{scenario}_p{pleaf}.dat" for scenario in ("full", "no-cm") for pleaf in ("0.1", "0")]
    assert main(common + scenarios[:4] + pleafs[:4] + ["--out", str(tmp_path / "once")]) == 0
    for name in printed:
        assert (tmp_path / "repeated" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()
    # -0.0 and 0.0 are one pleaf, named p0 in either order
    capsys.readouterr()
    assert main(common + scenarios[:2] + ["--pleaf", "0", "--pleaf", "-0", "--out", str(tmp_path / "zero")]) == 0
    assert [Path(line).name for line in capsys.readouterr().out.split()] == ["dynamic_full_p0.dat"]
    text = (tmp_path / "zero" / "dynamic_full_p0.dat").read_bytes()
    assert text == (tmp_path / "repeated" / "dynamic_full_p0.dat").read_bytes() and b"| pleaf=0 |" in text


@pytest.mark.parametrize("command", ["dynamic", "simulate"])
def test_pleafs_that_name_one_file_are_refused(command, mia_path, tmp_path, capsys):
    # 0.1 and 0.1000000001 both print as 0.1, so their curves would share one file name
    argv = [command, "--model", mia_path, "--scenario", "full", "--pleaf", "0.1", "--pleaf", "0.1000000001",
            "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0.1 and 0.1000000001" in captured.err
    assert not (tmp_path / "out").exists()
    # nan, once or twice, is refused as a probability outside [0, 1], not as a file name
    for nans in (["--pleaf", "nan"], ["--pleaf", "nan", "--pleaf", "nan"]):
        assert main([command, "--model", mia_path, "--scenario", "full", *nans, "--out", str(tmp_path / "out")]) == 3
        assert "[0, 1]" in capsys.readouterr().err


def test_repeated_scenarios_are_swept_and_exported_once(mia_path, tmp_path, capsys):
    assert main(["static-sweep", "--model", mia_path, "--grid", "0:1:3", "--scenario", "full", "--scenario", "full",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [str(tmp_path / "static_full.dat")]
    # one distinct scenario needs no --out
    assert main(["export-ctmc", "--model", mia_path, "--scenario", "full"]) == 0
    once = capsys.readouterr()
    assert main(["export-ctmc", "--model", mia_path, "--scenario", "full", "--scenario", "full"]) == 0
    assert capsys.readouterr() == once


def test_each_command_reads_the_gate_table_once(mia_path, tmp_path, monkeypatch):
    from actkit import semantics

    read, tables = semantics.read_gates, []

    def counted(act):
        tables.append(act)
        return read(act)

    for name, module in list(sys.modules.items()):
        if (name == "actkit" or name.startswith("actkit.")) and getattr(module, "read_gates", None) is read:
            monkeypatch.setattr(module, "read_gates", counted)
    for argv in (["static-sweep"], ["dynamic"], ["simulate", "--runs", "1000"], ["rank"], ["export-ctmc"]):
        tables.clear()
        assert main([*argv, "--model", mia_path, "--out", str(tmp_path / argv[0])]) == 0
        assert len(tables) == 1, argv[0]


def test_simulate_deep_or_chain_exits_zero(tmp_path):
    path = tmp_path / "deep.act"
    path.write_text(or_chain_text(5000, 1e-3), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--model", str(path), "--grid", "0:2:5", "--pleaf", "0.1",
                 "--scenario", "full", "--runs", "500", "--out", str(out)]) == 0
    assert (out / "dynamic_full_p0.1.dat").exists()


def test_dynamic_deep_or_chain_exits_zero(tmp_path):
    path = tmp_path / "deep.act"
    path.write_text(or_chain_text(5000, 1e-3), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["dynamic", "--model", str(path), "--grid", "0:2:5", "--pleaf", "1e-6",
                 "--scenario", "full", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads((out / "dynamic_full_p1e-06.json").read_text())
    rate = -np.log1p(-1e-6) * 5000
    assert np.allclose(payload["ys"], -np.expm1(-rate * np.array(payload["xs"])), rtol=0, atol=1e-12)


def test_dynamic_twelve_guarded_branches(tmp_path, chain_calls):
    m = 12
    path = tmp_path / "wide.act"
    path.write_text(serialize_act(guarded_or(m)), encoding="utf-8")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["dynamic", "--model", str(path), "--format", "json", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 5.0
    for scenario in Scenario:
        for pleaf in (0.05, 0.1, 0.25):
            payload = json.loads((out / f"dynamic_{scenario.value}_p{pleaf:g}.json").read_text())
            curves = branch_curves(
                m, lambda b: compose(with_attack_probability(b, pleaf), scenario), payload["xs"])
            want = 1.0 - np.prod(1.0 - curves, axis=0)
            assert np.all(np.abs(np.asarray(payload["ys"]) - want) <= 1e-6 + 1e-12)
            assert payload["meta"]["guards"] == (0 if scenario is Scenario.NO_CM else m)
    # no chain is built or solved and no scenario rewrites the model
    assert chain_calls == []


def test_simulate_rejects_solver_flags(mia_path):
    # and dynamic rejects the simulator's flags: each command has one method
    for command, flag in (("simulate", ["--epsilon", "1e-6"]), ("simulate", ["--state-cap", "10"]),
                          ("dynamic", ["--runs", "10"]), ("dynamic", ["--seed", "3"]),
                          ("dynamic", ["--backend", "monte-carlo"])):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", mia_path, *flag])
        assert exc.value.code == 2


def test_rank_output(mia_path, tmp_path, capsys):
    out = tmp_path / "rank"
    assert main(["rank", "--model", mia_path, "--t-star", "2",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Virus CM" in stdout and "CM to Steal Password" in stdout
    payload = json.loads((out / "rank.json").read_text())
    assert payload["t_star"] == 2.0
    assert [row["name"] for row in payload["ranking"]] == [
        "CM to Steal Password", "Virus CM"]
    assert all(row["delta"] >= 0 for row in payload["ranking"])


def test_rank_without_cms(tmp_path, capsys):
    path = tmp_path / "p.act"
    path.write_text('act "P" { root g; g = OR(a, b); a = ATTACK(p=0.3); '
                    'b = ATTACK(p=0.4); }', encoding="utf-8")
    assert main(["rank", "--model", str(path)]) == 0
    assert "no countermeasures" in capsys.readouterr().out
    # bad flags fail as they do on a model with countermeasures
    assert main(["rank", "--model", str(path), "--epsilon", "5"]) == 3
    capsys.readouterr()
    assert main(["rank", "--model", str(path), "--t-star", "-1"]) == 3
    assert capsys.readouterr().err == "error: t_star must be a number in [0, inf), got -1.0\n"


def test_export_ctmc_stdout(mini_path, capsys):
    assert main(["export-ctmc", "--model", mini_path, "--scenario", "full"]) == 0
    captured = capsys.readouterr()
    ctmc = parse_ctmc_text(captured.out)
    assert ctmc.n == 4
    assert "reachable states" in captured.err


def test_dynamic_and_rank_deep_and_wide_or(tmp_path, capsys):
    for n, text in ((5000, or_chain_text(5000, 1e-3)), (10_000, or_wide_text(10_000, 1e-3))):
        path = tmp_path / "big.act"
        path.write_text(text, encoding="utf-8")
        assert main(["rank", "--model", str(path)]) == 0
        assert "no countermeasures" in capsys.readouterr().out
        out = tmp_path / f"out{n}"
        assert main(["dynamic", "--model", str(path), "--grid", "0:2:5", "--pleaf", "1e-6",
                     "--scenario", "full", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads((out / "dynamic_full_p1e-06.json").read_text())
        rate = -np.log1p(-1e-6) * n
        assert np.allclose(payload["ys"], -np.expm1(-rate * np.array(payload["xs"])), rtol=0, atol=1e-12)
        # an OR of n leaves at p fails only if every leaf fails
        assert main(["static-sweep", "--model", str(path), "--grid", "0:1:3", "--out", str(out)]) == 0
        for scenario in Scenario:
            rows = (out / f"static_{scenario.value}.dat").read_text().splitlines()[1:]
            assert [tuple(map(float, row.split())) for row in rows] == [(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)]
    # path now holds the wide gate
    assert main(["simulate", "--model", str(path), "--runs", "100", "--grid", "0:2:5", "--pleaf", "1e-6",
                 "--scenario", "full", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads((out / "dynamic_full_p1e-06.json").read_text())
    assert payload["meta"]["runs"] == 100 and payload["ys"][0] == 0.0


def test_export_ctmc_deep_and_wide_or(tmp_path, capsys):
    # both collapse to one state racing the goal at the summed leaf rate
    for n, text in ((5000, or_chain_text(5000, 1e-3)), (10_000, or_wide_text(10_000, 1e-3))):
        path = tmp_path / "big.act"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--model", str(path)]) == 0
        assert f"{n} attack leaves" in capsys.readouterr().out
        assert main(["fmt", "--model", str(path)]) == 0
        assert parse_act(capsys.readouterr().out) == parse_act(text)
        assert main(["export-ctmc", "--model", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["#states 2", "#init 0", "#goal 1"]
        src, dst, rate = lines[-1].split()
        assert (src, dst) == ("0", "1")
        assert float(rate) == pytest.approx(n * 1e-3, rel=1e-12)


def test_export_ctmc_file(mia_path, tmp_path):
    out = tmp_path / "exp"
    assert main(["export-ctmc", "--model", mia_path, "--scenario", "detect-only",
                 "--out", str(out)]) == 0
    ctmc = parse_ctmc_text((out / "ctmc_detect-only.txt").read_text())
    assert ctmc.n == 13


def test_export_ctmc_several_scenarios(mia_path, tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["export-ctmc", "--model", mia_path, "--scenario", "no-cm",
                 "--scenario", "full", "--out", str(out)]) == 0
    act = load_bundled("mia")
    assert sorted(p.name for p in out.iterdir()) == ["ctmc_full.txt", "ctmc_no-cm.txt"]
    for name in ("no-cm", "full"):
        assert (out / f"ctmc_{name}.txt").read_text() == export_ctmc_text(compose(act, Scenario(name)))
    # without --scenario only the full model is exported
    default = tmp_path / "default"
    assert main(["export-ctmc", "--model", mia_path, "--out", str(default)]) == 0
    assert [p.name for p in default.iterdir()] == ["ctmc_full.txt"]
    # several chains cannot share stdout
    with pytest.raises(SystemExit) as exc:
        main(["export-ctmc", "--model", mia_path, "--scenario", "no-cm", "--scenario", "full"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_fmt_round_trip(mia_path, capsys):
    assert main(["fmt", "--model", mia_path]) == 0
    first = capsys.readouterr().out
    assert main(["fmt", "--model", mia_path]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith('act "Malicious Insider Attack" {')


# scipy modules that `Ctmc.rates`, the solver and `parse_ctmc_text` never load: each adds megabytes to a process
_HEAVY_SCIPY = {"scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg", "scipy.integrate"}

_ONLY_CHAINS_LOAD_SCIPY = """
import sys

import actkit, actkit.cli
from actkit.cli import main

model, out, reader, *heavy = sys.argv[1:]


def scipy_loaded():
    return [name for name in sys.modules if name.startswith("scipy")]


assert not scipy_loaded()
for argv in (["validate"], ["static-sweep", "--out", out], ["dynamic", "--out", out],
             ["simulate", "--runs", "200", "--out", out], ["rank"], ["export-ctmc", "--out", out]):
    assert main([*argv, "--model", model]) == 0
    assert not scipy_loaded(), (argv[0], scipy_loaded())
ctmc = actkit.compose(actkit.load_act(model))
actkit.export_ctmc_text(ctmc)
assert not scipy_loaded(), scipy_loaded()
if reader == "rates":
    ctmc.rates
else:
    actkit.transient_probability(ctmc, [1.0])
assert "scipy.sparse" in sys.modules
assert not set(heavy) & set(sys.modules), set(heavy) & set(sys.modules)
"""


def test_only_chain_code_loads_scipy(mia_path, tmp_path):
    # scipy costs about half of a fresh process's start-up, and only the scipy matrix and the solver need it
    src = str(Path(actkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for reader in ("rates", "solver"):
        subprocess.run([sys.executable, "-c", _ONLY_CHAINS_LOAD_SCIPY, mia_path, str(tmp_path), reader, *_HEAVY_SCIPY],
                       check=True, capture_output=True, env=env)
    parse = ("import sys, actkit; actkit.parse_ctmc_text('#states 1\\n#init 0\\n'); "
             f"assert 'scipy.sparse' in sys.modules and not {_HEAVY_SCIPY!r} & set(sys.modules)")
    subprocess.run([sys.executable, "-c", parse], check=True, env=env)


def test_non_utf8_model_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.act"
    path.write_bytes(b'act "x" { root a; a = ATTACK(p=0.5); }\n\xff\n')
    for argv in (["validate"], ["fmt"], ["dynamic", "--out", str(tmp_path / "out")]):
        assert main([*argv, "--model", str(path)]) == 2
        assert capsys.readouterr().err == "error: 2:1: byte 0xff is not UTF-8 (invalid start byte)\n"
    assert not (tmp_path / "out").exists()


def test_main_builds_only_the_subparser_of_its_command(mini_path, monkeypatch, capsys):
    from actkit import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser()
    assert len(built) == 1 + len(cli._COMMANDS)
    built.clear()
    assert main(["validate", "--model", mini_path]) == 0
    assert built == ["actkit", "actkit validate"]
    assert capsys.readouterr().out.startswith("ok: 'Mini'")


def _parsed(parser, argv, capsys):
    """What ``parser`` makes of ``argv``: its namespace, or its exit code, stdout and stderr."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "m.act"], ["validate", "-h"], ["validate"], ["validate", "--model", "m", "extra"],
    ["static-sweep", "--model", "m", "--grid", "0:1:5", "--format", "csv", "--scenario", "full"],
    ["static-sweep", "--help"], ["static-sweep", "--model", "m", "--format", "xml"],
    ["dynamic", "--model", "m", "--pleaf", "0.1", "--pleaf", "0.2", "--epsilon", "1e-3"], ["dynamic", "-h"],
    ["dynamic", "--model", "m", "--pleaf", "x"], ["dynamic", "--model", "m", "--runs", "5"],
    ["simulate", "--model", "m", "--runs", "10", "--seed", "3"], ["simulate", "-h"],
    ["simulate", "--model", "m", "--runs", "1.5"], ["simulate", "--model", "m", "--scen", "full"],
    ["rank", "--model", "m", "--t-star", "3"], ["rank", "-h"], ["rank", "--model", "m", "--bogus"],
    ["export-ctmc", "--model", "m", "--state-cap", "9"], ["export-ctmc", "-h"], ["export-ctmc", "--state-cap", "9"],
    ["fmt", "--model", "m"], ["fmt", "--model", "m", "-h"], ["fmt", "--model"],
])
def test_a_commands_own_subparser_parses_as_the_full_parser_does(argv, monkeypatch, capsys):
    from actkit import cli

    monkeypatch.setenv("COLUMNS", "70")
    assert _parsed(cli._parser(argv[0]), argv, capsys) == _parsed(cli._parser(), argv, capsys)


def _mia_cli_argvs(model: str, out: str) -> list[list[str]]:
    """The six commands of the `mia-cli` benchmark workload, with each output under ``out``."""
    pleaf = ["--pleaf", "0.05", "--pleaf", "0.1", "--pleaf", "0.25"]
    return [["static-sweep", "--model", model, "--out", f"{out}/static"],
            ["dynamic", "--model", model, *pleaf, "--out", f"{out}/dat"],
            ["dynamic", "--model", model, *pleaf, "--format", "json", "--out", f"{out}/json"],
            ["simulate", "--model", model, *pleaf, "--format", "json", "--runs", "2000", "--seed", "7",
             "--out", f"{out}/sim"],
            ["rank", "--model", model, "--t-star", "2", "--out", f"{out}/rank"],
            ["export-ctmc", "--model", model, "--out", f"{out}/ctmc"]]


def _outputs(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_commands_leave_no_state_behind(mia_path, tmp_path, capsys):
    # the same commands, twice in one process and each in a process of its own, write the same bytes
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        stdouts = []
        for argv in _mia_cli_argvs(mia_path, str(out)):
            assert main(argv) == 0
            stdouts.append(capsys.readouterr().out)
        runs.append((stdouts, _outputs(out)))
    src = str(Path(actkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    shutil.rmtree(out)
    stdouts = [subprocess.run([sys.executable, "-m", "actkit.cli", *argv], check=True, capture_output=True,
                              text=True, env=env).stdout
               for argv in _mia_cli_argvs(mia_path, str(out))]
    runs.append((stdouts, _outputs(out)))
    assert len(runs[0][1]) == 3 + 9 + 9 + 9 + 1 + 1
    assert runs[0] == runs[1] == runs[2]
