import random

import numpy as np
import pytest

from actkit import load_bundled
from actkit.errors import DomainError, MissingParameter
from actkit.model import (
    Scenario,
    and_gate,
    attack,
    build_act,
    cm_gate,
    detect,
    mitigate,
    or_gate,
    with_attack_probability,
)
from actkit.statics import static_failure, static_probability, sweep_pleaf

from oracles import enumerate_static, random_act, sample_static

TEXTBOOK = build_act("textbook", and_gate(
    "top",
    attack("a", p=0.8),
    cm_gate("cm", detect("d", p=0.6), mitigate("m", p=0.5)),
))


def test_and_with_cm_full():
    # 0.8 * (1 - 0.6 * 0.5)
    assert static_probability(TEXTBOOK, Scenario.FULL) == pytest.approx(0.56, abs=1e-15)


def test_and_with_cm_detect_only():
    # mitigation instant: 0.8 * (1 - 0.6)
    assert static_probability(TEXTBOOK, Scenario.DETECT_ONLY) == pytest.approx(0.32, abs=1e-15)


def test_and_with_cm_no_cm():
    assert static_probability(TEXTBOOK, Scenario.NO_CM) == pytest.approx(0.8, abs=1e-15)


def test_or_gate_complement_product():
    act = build_act("or3", or_gate("g", attack("a", p=0.1), attack("b", p=0.2), attack("c", p=0.3)))
    expected = 1 - 0.9 * 0.8 * 0.7
    assert static_probability(act) == pytest.approx(expected, abs=1e-15)


def test_matches_bernoulli_enumeration_on_random_trees():
    rng = random.Random(20260814)
    for _ in range(25):
        act = random_act(rng, max_leaves=8)
        for scenario in Scenario:
            assert static_probability(act, scenario) == pytest.approx(
                enumerate_static(act, scenario), abs=1e-12)


def test_textbook_matches_monte_carlo():
    for scenario in Scenario:
        phat, hw = sample_static(TEXTBOOK, scenario, runs=1_000_000, seed=11)
        assert abs(static_probability(TEXTBOOK, scenario) - phat) <= hw


def test_bundled_model_scenarios():
    act = load_bundled("mia")
    # exact enumeration over all 21 Bernoulli leaves
    for scenario in Scenario:
        assert static_probability(act, scenario) == pytest.approx(
            enumerate_static(act, scenario), abs=1e-12)
    lo = static_probability(act, Scenario.DETECT_ONLY)
    mid = static_probability(act, Scenario.FULL)
    hi = static_probability(act, Scenario.NO_CM)
    assert lo < mid < hi


def test_sweep_shape_and_endpoints():
    act = load_bundled("mia")
    grid = np.linspace(0, 1, 11)
    results = sweep_pleaf(act, grid)
    assert [r.scenario for r in results] == list(Scenario)
    for r in results:
        assert r.grid == tuple(grid)
        assert r.pgoal[0] == 0.0
        assert all(0.0 <= y <= 1.0 for y in r.pgoal)
        assert all(a <= b for a, b in zip(r.pgoal, r.pgoal[1:]))
    by_scenario = {r.scenario: r.pgoal for r in results}
    assert by_scenario[Scenario.NO_CM][-1] == 1.0


def test_sweep_equals_rebuilt_models_bit_for_bit():
    # the sweep reads each grid value as the leaf probability instead of building the model
    rng = random.Random(31)
    grid = np.linspace(0, 1, 101)
    for act in [load_bundled("mia")] + [random_act(rng, max_leaves=10, max_cms=3) for _ in range(20)]:
        for r in sweep_pleaf(act, grid):
            assert r.pgoal == tuple(static_probability(with_attack_probability(act, x), r.scenario) for x in grid)


def test_failure_complements_probability():
    assert static_failure(TEXTBOOK, Scenario.FULL) == pytest.approx(0.44, abs=1e-15)
    rng = random.Random(7)
    for _ in range(10):
        act = random_act(rng, max_leaves=6)
        for scenario in Scenario:
            p = static_probability(act, scenario)
            q = static_failure(act, scenario)
            assert p + q == pytest.approx(1.0, abs=1e-12)


def test_failure_resolves_saturated_scenarios():
    # at pleaf 0.99 every scenario's success probability rounds to 1.0
    act = with_attack_probability(load_bundled("mia"), 0.99)
    ps = {sc: static_probability(act, sc) for sc in Scenario}
    assert set(ps.values()) == {1.0}
    qs = {sc: static_failure(act, sc) for sc in Scenario}
    assert qs[Scenario.DETECT_ONLY] > qs[Scenario.FULL] > qs[Scenario.NO_CM] > 0.0


def test_static_analyses_name_a_leaf_without_a_probability():
    # as the timed analyses name a leaf whose rate they cannot read
    rate_only_attack = build_act("x", or_gate("o", attack("a", lam=1.0), attack("b", p=0.1)))
    rate_only_detect = build_act("y", and_gate("top", attack("a", p=0.5),
                                               cm_gate("cm", detect("d", p=None, lam=1.0), mitigate("m", p=0.5))))
    sweep = lambda act, scenario: sweep_pleaf(act, [0.1, 0.5], [scenario])
    for analysis in (static_probability, static_failure):
        with pytest.raises(MissingParameter, match="^leaf 'a': leaf has no success probability$"):
            analysis(rate_only_attack, Scenario.FULL)
    for scenario in (Scenario.FULL, Scenario.DETECT_ONLY):
        for analysis in (static_probability, static_failure, sweep):
            with pytest.raises(MissingParameter, match="^leaf 'd': leaf has no success probability$"):
                analysis(rate_only_detect, scenario)
    assert static_probability(rate_only_detect, Scenario.NO_CM) == 0.5  # no-cm reads no countermeasure leaf


def test_sweep_rejects_bad_grids():
    act = load_bundled("mia")
    with pytest.raises(DomainError):
        sweep_pleaf(act, [])
    with pytest.raises(DomainError):
        sweep_pleaf(act, [0.2, 0.2, 0.3])
    with pytest.raises(DomainError):
        sweep_pleaf(act, [0.5, 1.5])
    with pytest.raises(DomainError):
        sweep_pleaf(act, [-0.1, 0.5])
    for bad in ([float("nan")], [float("nan"), 0.5], [0.5, float("nan")]):  # NaN passes both < and >
        with pytest.raises(DomainError):
            sweep_pleaf(act, bad)
    with pytest.raises(DomainError):  # a grid that is not one-dimensional
        sweep_pleaf(act, [[0.1, 0.2]])
    for bad in ([b"0.5"], ["0.5"], [0.0, True], [True], np.array([False, True])):  # float() would read them
        with pytest.raises(DomainError):
            sweep_pleaf(act, bad)
