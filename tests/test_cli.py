import json
import time

import numpy as np
import pytest

from actkit import load_bundled, parse_act
from actkit.cli import main
from actkit.dsl import serialize_act
from actkit.model import Scenario, with_attack_probability
from actkit.semantics import compose, export_ctmc_text, parse_ctmc_text

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


def test_timed_failure_writes_no_curve(mia_path, tmp_path):
    # the second pleaf fails after the first is read or solved, and no curve is written
    for argv in (["dynamic", "--pleaf", "0.1", "--pleaf", "1.5"],
                 ["simulate", "--runs", "100", "--pleaf", "0.1", "--pleaf", "1.0"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--model", mia_path, "--out", str(out)]) == 3
        assert not list(out.glob("dynamic_*"))


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
    assert main(["rank", "--model", str(path), "--t-star", "-1"]) == 3


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
