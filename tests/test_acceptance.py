"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v``; the summary block at the end of
the session prints ``criterion N PASS/FAIL`` per criterion. Tolerances and
runtime budgets are pinned in the asserts.
"""

import math
import random
import time

import numpy as np
import pytest

from actkit import load_bundled
from actkit.cli import main as cli_main
from actkit.dsl import serialize_act
from actkit.model import (
    Scenario,
    and_gate,
    attack,
    build_act,
    cm_gate,
    detect,
    mitigate,
    or_gate,
    remove_cm_gates,
    with_attack_probability,
)
from actkit.ranking import rank_countermeasures
from actkit.semantics import compose
from actkit.statics import static_failure, static_probability, sweep_pleaf
from actkit.timing import rate_from_probability, success_cdf
from actkit.transient import simulate, transient_probability

from imc_product import compose_product
from oracles import enumerate_static, race_probability, random_act, reverse_children

SEED = 20260814


@pytest.mark.acceptance(num=1, desc="probability/rate round trip at 1e-12")
def test_criterion_1_round_trip():
    start = time.perf_counter()
    rng = random.Random(SEED)
    for _ in range(1000):
        p = rng.uniform(0.0, 1.0 - 1e-9)
        t = rng.uniform(1e-3, 1e3)
        assert abs(success_cdf(rate_from_probability(p, t), t) - p) <= 1e-12
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(num=2, desc="static analysis equals Bernoulli enumeration")
def test_criterion_2_static_enumeration():
    start = time.perf_counter()
    rng = random.Random(SEED)
    saw_cm = saw_plain = False
    for i in range(50):
        act = random_act(rng, max_leaves=12, allow_cm=(i % 2 == 0))
        has_cm = any(True for _ in act.cm_gates())
        saw_cm |= has_cm
        saw_plain |= not has_cm
        for scenario in Scenario:
            got = static_probability(act, scenario)
            want = enumerate_static(act, scenario)
            assert abs(got - want) <= 1e-12
    assert saw_cm and saw_plain
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(num=3, desc="static sweep ordering on the bundled model")
def test_criterion_3_sweep_ordering():
    start = time.perf_counter()
    act = load_bundled("mia")
    grid = np.linspace(0.0, 1.0, 101)
    by_scenario = {r.scenario: r.pgoal for r in sweep_pleaf(act, grid)}
    det = by_scenario[Scenario.DETECT_ONLY]
    full = by_scenario[Scenario.FULL]
    nocm = by_scenario[Scenario.NO_CM]
    for i in range(1, 100):
        # strict ordering holds for the exact values; past pleaf ~0.93 the
        # complements drop below one ulp of 1.0 and every scenario's Pgoal
        # rounds to the same double, so the strict comparison runs on the
        # full-precision complement (an equivalent statement)
        staged = with_attack_probability(act, grid[i])
        f_det = static_failure(staged, Scenario.DETECT_ONLY)
        f_full = static_failure(staged, Scenario.FULL)
        f_nocm = static_failure(staged, Scenario.NO_CM)
        assert f_det > f_full > f_nocm > 0.0
        assert det[i] <= full[i] <= nocm[i]
    assert det[0] == 0.0 and full[0] == 0.0 and nocm[0] == 0.0
    assert nocm[100] == 1.0
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(num=4, desc="analytic transients for one leaf, AND, OR")
def test_criterion_4_analytic_transients():
    p1 = 1.0 - math.exp(-1.0)  # unit rate over one hour
    ts = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])

    bas = build_act("bas", attack("a", p=p1))
    ys = transient_probability(compose(bas), ts, epsilon=1e-9).ys
    assert abs(ys[2] - (1.0 - math.exp(-1.0))) <= 1e-6
    assert np.all(np.abs(np.asarray(ys) - (1.0 - np.exp(-ts))) <= 1e-6)

    l2 = math.log(2)
    and2 = build_act("and2", and_gate("g", attack("a", p=p1), attack("b", p=0.5)))
    ys = transient_probability(compose(and2), ts, epsilon=1e-9).ys
    want = (1.0 - np.exp(-ts)) * (1.0 - np.exp(-l2 * ts))
    assert np.all(np.abs(np.asarray(ys) - want) <= 1e-6)

    or2 = build_act("or2", or_gate("g", attack("a", p=p1), attack("b", p=0.5)))
    ys = transient_probability(compose(or2), ts, epsilon=1e-9).ys
    want = 1.0 - np.exp(-(1.0 + l2) * ts)
    assert np.all(np.abs(np.asarray(ys) - want) <= 1e-6)


@pytest.mark.acceptance(num=5, desc="countermeasure race closed form")
def test_criterion_5_race_closed_form():
    start = time.perf_counter()
    rng = random.Random(SEED)
    for _ in range(20):
        la, ld, lm = (rng.uniform(0.1, 5.0) for _ in range(3))
        act = build_act("race", and_gate(
            "top",
            attack("a", lam=la),
            cm_gate("cm", detect("d", p=0.5, lam=ld), mitigate("m", p=0.5, lam=lm)),
        ))
        horizon = 50.0 / min(la, ld, lm)
        got = transient_probability(compose(act), [horizon], epsilon=1e-9).ys[0]
        assert abs(got - race_probability(la, ld, lm)) <= 1e-5
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(num=6, desc="uniformization versus 1e6-run simulation")
def test_criterion_6_solver_vs_simulator():
    start = time.perf_counter()
    base = load_bundled("mia")
    ts = np.linspace(0.0, 10.0, 21)
    runs = 1_000_000
    for pleaf in (0.05, 0.1, 0.25):
        act = with_attack_probability(base, pleaf)
        for scenario in Scenario:
            exact = np.asarray(
                transient_probability(compose(act, scenario), ts, epsilon=1e-9).ys)
            mc = np.asarray(simulate(act, scenario, ts, runs=runs, seed=SEED).ys)
            # sigma of the empirical frequency under the solver's value; the
            # sample estimate degenerates to zero once every run succeeds
            sigma = np.sqrt(exact * (1.0 - exact) / runs)
            assert np.all(np.abs(mc - exact) <= 3.0 * sigma)
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance(num=7, desc="long-horizon saturation of the bundled model")
def test_criterion_7_long_horizon():
    act = with_attack_probability(load_bundled("mia"), 0.25)
    pgoal = transient_probability(compose(act, Scenario.FULL), [200.0], epsilon=1e-9).ys[0]
    assert pgoal >= 0.999


@pytest.mark.acceptance(num=8, desc="direct and product constructions agree")
def test_criterion_8_construction_equivalence():
    rng = random.Random(SEED)
    ts = np.linspace(0.05, 12.0, 20)
    for _ in range(20):
        act = random_act(rng, max_leaves=5)
        direct = np.asarray(
            transient_probability(compose(act), ts, 1e-12).ys)
        product = np.asarray(
            transient_probability(compose_product(act), ts, 1e-12).ys)
        assert np.all(np.abs(direct - product) <= 1e-9)
        flipped = reverse_children(act)
        for build in (compose, compose_product):
            again = np.asarray(
                transient_probability(build(flipped), ts, 1e-12).ys)
            assert np.all(np.abs(again - direct) <= 1e-9)


@pytest.mark.acceptance(num=9, desc="byte-identical CLI outputs across reruns")
def test_criterion_9_cli_determinism(tmp_path):
    model = tmp_path / "mia.act"
    model.write_text(serialize_act(load_bundled("mia")), encoding="utf-8")
    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli_main(["static-sweep", "--model", str(model), "--grid", "0:1:21",
                         "--out", str(out)]) == 0
        assert cli_main(["dynamic", "--model", str(model), "--grid", "0:10:21",
                         "--pleaf", "0.1", "--out", str(out)]) == 0
        assert cli_main(["simulate", "--model", str(model), "--grid", "0:10:11",
                         "--pleaf", "0.25", "--scenario", "full", "--runs", "50000",
                         "--seed", "7", "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outs[0]) == sorted(outs[1])
    assert all(name.endswith(".dat") for name in outs[0])
    for name, blob in outs[0].items():
        assert outs[1][name] == blob


@pytest.mark.acceptance(num=10, desc="ranking deltas positive and simulator-consistent")
def test_criterion_10_ranking():
    act = load_bundled("mia")
    t_star = 2.0
    effects = rank_countermeasures(act, t_star, epsilon=1e-9)
    assert len(effects) == 2
    assert all(e.delta >= 0.0 for e in effects)

    runs = 1_000_000
    base_sim = simulate(act, Scenario.FULL, [t_star], runs=runs, seed=SEED)
    for effect in effects:
        reduced = remove_cm_gates(act, {effect.node})
        without_sim = simulate(reduced, Scenario.FULL, [t_star], runs=runs, seed=SEED + 1)
        delta_sim = without_sim.ys[0] - base_sim.ys[0]
        sigma = math.sqrt((base_sim.halfwidths[0] / 3.0) ** 2
                          + (without_sim.halfwidths[0] / 3.0) ** 2)
        assert abs(effect.delta - delta_sim) <= 3.0 * sigma
