import math
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actkit import load_bundled, parse_act
from actkit.cli import main
from actkit.errors import DomainError, RateUndefined
from actkit.model import (
    Act,
    AndGate,
    OrGate,
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
from actkit.semantics import collect_rates, compose, export_ctmc_text, parse_ctmc_text
from actkit.ranking import rank_countermeasures
from actkit.transient import goal_curve, simulate, simulate_curves, transient_probability

from oracles import expm_transient, or_chain_text, random_act, reverse_children

E1 = 1.0 - math.exp(-1.0)  # unit-rate success probability at one hour


def single_leaf():
    return build_act("one", attack("a", p=E1))


def stiff_race():
    """A fast attack racing a slow detect+mitigate pair: absorbed in a few jumps."""
    return build_act("stiff", and_gate(
        "top", attack("a", lam=50.0),
        cm_gate("cm", detect("d", p=0.5, lam=0.5), mitigate("m", p=0.5, lam=0.25)),
    ))


LONG_GRID = np.linspace(0.0, 1000.0, 101)


def test_single_leaf_matches_cdf():
    ctmc = compose(single_leaf())
    ts = np.linspace(0.0, 5.0, 26)
    ys = transient_probability(ctmc, ts, epsilon=1e-9).ys
    want = 1.0 - np.exp(-ts)
    assert np.allclose(ys, want, atol=1e-9)


def test_two_leaf_and_matches_product_of_cdfs():
    act = build_act("and2", and_gate("g", attack("a", p=E1), attack("b", p=0.5)))
    ts = np.linspace(0.0, 6.0, 13)
    ys = transient_probability(compose(act), ts, epsilon=1e-9).ys
    want = (1.0 - np.exp(-1.0 * ts)) * (1.0 - np.exp(-math.log(2) * ts))
    assert np.allclose(ys, want, atol=1e-9)


def test_two_leaf_or_matches_min_of_exponentials():
    act = build_act("or2", or_gate("g", attack("a", p=E1), attack("b", p=0.5)))
    ts = np.linspace(0.0, 6.0, 13)
    ys = transient_probability(compose(act), ts, epsilon=1e-9).ys
    want = 1.0 - np.exp(-(1.0 + math.log(2)) * ts)
    assert np.allclose(ys, want, atol=1e-9)


def test_tolerance_contract():
    ctmc = compose(load_bundled("mia"), Scenario.FULL)
    ts = [0.5, 1.0, 3.0]
    exact = expm_transient(ctmc, ts)
    for eps in (1e-3, 1e-6, 1e-9):
        ys = transient_probability(ctmc, ts, epsilon=eps).ys
        assert np.all(np.abs(np.asarray(ys) - exact) <= eps)


def test_stiff_race_stops_early_within_tolerance():
    ctmc = compose(stiff_race(), Scenario.FULL)
    # an imported chain has no blocked labels; absorption is read from its rates
    imported = parse_ctmc_text(export_ctmc_text(ctmc).replace("#blocked", "#"))
    exact = expm_transient(ctmc, LONG_GRID)
    for eps in (1e-3, 1e-6, 1e-9):
        for chain in (ctmc, imported):
            curve = transient_probability(chain, LONG_GRID, epsilon=eps)
            assert np.all(np.abs(np.asarray(curve.ys) - exact) <= eps)
            assert curve.meta["poisson_terms"] < 10 < curve.meta["right_point"]
            assert curve.meta["tail_mass"] <= eps / 2
            assert curve.meta["error_bound"] <= eps


def test_slow_absorption_runs_to_right_point_in_bounded_memory():
    act = build_act("slow", and_gate("top", attack("a", lam=0.01), attack("b", lam=50.0)))
    ctmc = compose(act)
    tracemalloc.start()
    try:
        curve = transient_probability(ctmc, LONG_GRID, epsilon=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = (1.0 - np.exp(-0.01 * LONG_GRID)) * (1.0 - np.exp(-50.0 * LONG_GRID))
    assert np.all(np.abs(np.asarray(curve.ys) - want) <= 1e-9)
    assert curve.meta["poisson_terms"] == curve.meta["right_point"] > 50_000
    assert curve.meta["tail_mass"] > 1e-9
    assert curve.meta["error_bound"] <= 1e-9
    assert peak < 20e6


@pytest.mark.parametrize("case", ["mia", "stiff"])
def test_halving_epsilon_moves_outputs_by_less_than_epsilon(case):
    if case == "mia":
        ctmc, ts = compose(load_bundled("mia"), Scenario.FULL), np.linspace(0.0, 10.0, 41)
    else:
        ctmc, ts = compose(stiff_race(), Scenario.FULL), LONG_GRID
    eps = 1e-3
    prev = np.asarray(transient_probability(ctmc, ts, epsilon=eps).ys)
    while eps > 1e-12:
        cur = np.asarray(transient_probability(ctmc, ts, epsilon=eps / 2).ys)
        assert np.all(np.abs(cur - prev) <= eps)
        prev, eps = cur, eps / 2


def test_curve_is_monotone_and_bounded():
    ctmc = compose(load_bundled("mia"), Scenario.FULL)
    ys = transient_probability(ctmc, np.linspace(0, 20, 81), epsilon=1e-9).ys
    arr = np.asarray(ys)
    assert np.all((0.0 <= arr) & (arr <= 1.0))
    assert np.all(np.diff(arr) >= -1e-12)
    assert ys[0] == 0.0


def test_meta_records_solver_settings():
    ctmc = compose(load_bundled("mia"), Scenario.FULL)
    curve = transient_probability(ctmc, [1.0], epsilon=1e-7)
    assert curve.meta["method"] == "uniformization"
    assert curve.meta["epsilon"] == 1e-7
    assert curve.meta["states"] == ctmc.n
    assert 0 < curve.meta["poisson_terms"] <= curve.meta["right_point"]
    assert 0.0 <= curve.meta["tail_mass"] <= 1.0
    assert curve.meta["error_bound"] <= 1e-7
    assert curve.halfwidths is None
    assert curve.scenario is Scenario.FULL


def test_grid_validation():
    ctmc = compose(single_leaf())
    for bad in ([], [1.0, 1.0], [2.0, 1.0], [-1.0, 2.0], [0.0, float("inf")]):
        with pytest.raises(DomainError):
            transient_probability(ctmc, bad)
    with pytest.raises(DomainError):
        transient_probability(ctmc, [0.0, 1.0], epsilon=0.0)
    with pytest.raises(DomainError):
        transient_probability(ctmc, [0.0, 1.0], epsilon=0.5)


def test_simulate_single_leaf():
    curve = simulate(single_leaf(), Scenario.FULL, [1.0], runs=1_000_000, seed=5)
    assert abs(curve.ys[0] - E1) <= curve.halfwidths[0]
    assert curve.halfwidths[0] == pytest.approx(3.0 * math.sqrt(E1 * (1 - E1) / 1e6), rel=0.05)


def test_simulate_race():
    act = build_act("race", and_gate(
        "top", attack("a", p=E1),
        or_gate("side", attack("b", p=0.5), attack("c", p=0.5)),
    ))
    ts = [0.5, 1.0, 2.0, 5.0]
    curve = simulate(act, Scenario.FULL, ts, runs=200_000, seed=9)
    exact = transient_probability(compose(act), ts, 1e-10).ys
    for y, e, hw in zip(curve.ys, exact, curve.halfwidths):
        assert abs(y - e) <= max(hw, 1e-4)


def test_simulate_deterministic():
    act = load_bundled("mia")
    ts = [0.5, 1.5, 3.0]
    a = simulate(act, Scenario.FULL, ts, runs=50_000, seed=42)
    b = simulate(act, Scenario.FULL, ts, runs=50_000, seed=42)
    c = simulate(act, Scenario.FULL, ts, runs=50_000, seed=43)
    assert a.ys == b.ys and a.halfwidths == b.halfwidths
    assert a.ys != c.ys
    assert a.meta["seed"] == 42 and a.meta["runs"] == 50_000
    assert a.meta["method"] == "monte-carlo"


def test_simulate_agrees_with_solver_on_bundled_model():
    act = with_attack_probability(load_bundled("mia"), 0.1)
    ts = np.arange(0.0, 10.5, 1.0)
    runs = 200_000
    for scenario in Scenario:
        exact = np.asarray(transient_probability(compose(act, scenario), ts, 1e-9).ys)
        mc = simulate(act, scenario, ts, runs=runs, seed=20260814)
        # standardise by the solver value; the empirical sigma vanishes at
        # saturated points while the true deviation stays of order 1/runs
        sigma = np.sqrt(exact * (1.0 - exact) / runs)
        assert np.all(np.abs(np.asarray(mc.ys) - exact) <= 3.0 * sigma + 1e-9)


def test_simulated_scenario_dominance():
    act = with_attack_probability(load_bundled("mia"), 0.25)
    ts = [1.0, 2.0, 4.0]
    curves = {sc: simulate(act, sc, ts, runs=100_000, seed=3) for sc in Scenario}
    for i in range(len(ts)):
        tol = 3.0 * math.sqrt(sum(c.halfwidths[i] ** 2 for c in curves.values())) / 3.0
        assert curves[Scenario.DETECT_ONLY].ys[i] <= curves[Scenario.FULL].ys[i] + tol
        assert curves[Scenario.FULL].ys[i] <= curves[Scenario.NO_CM].ys[i] + tol


def test_simulate_keeps_its_draws_on_the_bundled_model():
    # mia samples 21 arrays, few enough that runs are drawn in chunks of 2^17
    act = load_bundled("mia")
    ts = [0.5, 1.0, 2.0, 5.0]
    assert simulate(act, Scenario.FULL, ts, runs=300_000, seed=7).ys == (
        0.31872666666666666, 0.5329266666666667, 0.7744233333333334, 0.9706966666666667)
    assert simulate(act, Scenario.NO_CM, ts, runs=300_000, seed=7).ys == (
        0.31933333333333336, 0.53586, 0.7864433333333334, 0.9796733333333333)


def test_simulate_wide_model_in_bounded_memory():
    act = build_act("wide", or_gate("top", *(attack(f"a{i}", lam=0.005) for i in range(200))))
    leaf_rates, _ = collect_rates(act)
    scales = (1.0, 2.0, 3.0)  # three curves folded from one draw
    tracemalloc.start()
    try:
        curve = simulate(act, Scenario.FULL, [0.5, 1.0], runs=1 << 17, seed=3)
        curves = simulate_curves(act, Scenario.FULL, [0.5, 1.0], 1 << 17, 3,
                                 [{nid: k * rate for nid, rate in leaf_rates.items()} for k in scales])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curves[0].ys == curve.ys
    for k, c in zip(scales, curves):
        for t, y, hw in zip(c.xs, c.ys, c.halfwidths):
            assert abs(y - (1.0 - math.exp(-k * t))) <= hw
    assert peak < 128 * 2**20


def one_draw_per_curve(act, scenario, ts, runs, seed):
    """``simulate``'s goal frequencies in one chunk, drawn afresh for this model alone."""
    leaf_rates, cm_rates = collect_rates(act, scenario)
    rng = np.random.Generator(np.random.Philox(seed))

    def draw(rate):
        return rng.exponential(1.0 / rate, runs) if rate > 0.0 else np.full(runs, np.inf)

    times = {nid: draw(rate) for nid, rate in leaf_rates.items()}
    deadlines = {nid: draw(r.detect) + (0.0 if r.mitigate is None else draw(r.mitigate))
                 for nid, r in cm_rates.items()}
    for nid in act.postorder():
        kind = act.nodes[nid].kind
        if isinstance(kind, OrGate):
            times[nid] = np.min([times[c] for c in kind.children], axis=0)
        elif isinstance(kind, AndGate):
            cm = act.guard(nid)
            done = np.max([times[c] for c in kind.children if c != cm], axis=0)
            times[nid] = np.where(done < deadlines[cm], done, np.inf) if cm in deadlines else done
    return tuple(np.count_nonzero(times[act.root] <= t) / runs for t in ts)


@pytest.mark.parametrize("pleafs", [(0.05, 0.1, 0.25), (0.0, 0.1, 0.1, 0.3)])
def test_simulate_curves_equal_separate_draws(pleafs):
    # one draw folded per pleaf gives each pleaf's own simulate() bits, below
    # one chunk on random models and over three chunks on mia (21 arrays)
    ts = [0.5, 1.0, 2.0, 5.0]
    rng = random.Random(31)
    cases = [(random_act(rng, max_leaves=8), 2000) for _ in range(15)] + [(load_bundled("mia"), 300_000)]
    for model, runs in cases:
        acts = [with_attack_probability(model, p) for p in pleafs]
        for scenario in Scenario:
            curves = simulate_curves(acts[0], scenario, ts, runs, 11,
                                     [collect_rates(a, scenario)[0] for a in acts])
            assert len(curves) == len(pleafs)
            for act, curve in zip(acts, curves):
                alone = simulate(act, scenario, ts, runs, 11)
                assert (curve.ys, curve.halfwidths, curve.meta) == (alone.ys, alone.halfwidths, alone.meta)
                if runs <= 2000:
                    assert curve.ys == one_draw_per_curve(act, scenario, ts, runs, 11)


@pytest.mark.parametrize("depth", [500, 5000])
def test_simulate_deep_or_chain(depth):
    act = parse_act(or_chain_text(depth, 1.0 / depth))
    ts = [0.5, 1.0, 2.0]
    curve = simulate(act, Scenario.FULL, ts, runs=2000, seed=1)
    for t, y, hw in zip(ts, curve.ys, curve.halfwidths):
        assert abs(y - (1.0 - math.exp(-t))) <= hw


def test_cli_import_leaves_out_scipy_stats():
    code = "import actkit.cli, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_goal_curve_matches_whole_chain():
    ts = np.linspace(0.0, 6.0, 13)
    rng = random.Random(404)
    cases = [(stiff_race(), LONG_GRID), (load_bundled("mia"), np.linspace(0.0, 10.0, 21))]
    for _ in range(40):
        act = random_act(rng, max_leaves=8)
        cases += [(act, ts), (reverse_children(act), ts)]
    for model, grid in cases:
        for scenario in Scenario:
            want = np.asarray(transient_probability(compose(model, scenario), grid, 1e-14).ys)
            for eps in (1e-6, 1e-9, 1e-12):
                curve = goal_curve(model, scenario, grid, eps)
                assert np.all(np.abs(np.asarray(curve.ys) - want) <= eps)
                assert curve.meta["guards"] <= sum(1 for _ in model.cm_gates())
                assert curve.meta["error_bound"] <= eps


@pytest.mark.parametrize("scenario, guards", [
    (Scenario.FULL, 2), (Scenario.DETECT_ONLY, 2), (Scenario.NO_CM, 0)])
def test_goal_curve_meta_counts_guards(scenario, guards):
    act = load_bundled("mia")
    meta = goal_curve(act, scenario, np.linspace(0.0, 10.0, 21), epsilon=1e-6).meta
    assert meta["method"] == "quadrature"
    assert meta["epsilon"] == 1e-6 and meta["model"] == act.title
    assert meta["guards"] == guards
    # at least the 20 grid intervals per guard, 17 nodes on each
    assert meta["panels"] >= 20 * guards
    assert meta["nodes"] == 17 * meta["panels"]
    assert 0.0 <= meta["error_bound"] <= 1e-6
    assert not {"chains", "states", "poisson_terms"} & set(meta)


def test_goal_curve_of_guarded_root_is_the_whole_chain():
    act = stiff_race()
    curve = goal_curve(act, Scenario.FULL, LONG_GRID, 1e-9)
    whole = transient_probability(compose(act), LONG_GRID, 1e-12)
    assert np.all(np.abs(np.asarray(curve.ys) - whole.ys) <= 1e-9)
    assert curve.meta["guards"] == 1
    # the fast attack's density needs panels far finer than the grid near 0
    assert curve.meta["panels"] > 100


@pytest.mark.parametrize("case", ["mia", "stiff"])
def test_goal_curve_halving_epsilon_moves_outputs_by_less_than_epsilon(case):
    if case == "mia":
        act, ts = load_bundled("mia"), np.linspace(0.0, 10.0, 41)
    else:
        act, ts = stiff_race(), LONG_GRID
    eps = 1e-3
    prev = np.asarray(goal_curve(act, Scenario.FULL, ts, eps).ys)
    while eps > 1e-12:
        cur = np.asarray(goal_curve(act, Scenario.FULL, ts, eps / 2).ys)
        assert np.all(np.abs(cur - prev) <= eps)
        prev, eps = cur, eps / 2


def _race_model(lam_a: float, detect_rate: float, mitigate_rate: float):
    return build_act("race", and_gate(
        "top", or_gate("o", attack("a", lam=lam_a), attack("b", lam=0.3)),
        cm_gate("cm", detect("d", p=0.5, lam=detect_rate), mitigate("m", p=0.5, lam=mitigate_rate)),
    ))


@pytest.mark.parametrize("rates", [
    (0.0, 1.0, 2.0),  # a leaf that never completes
    (1.0, 0.0, 2.0),  # detection never happens: the countermeasure never wins
    (1.0, 1.0, 0.0),  # mitigation never completes
    (1.0, 0.7, 0.7),  # equal phase rates: Erlang-2 survival
    (1.0, 0.7, 0.7 * (1.0 + 1e-10)),
    (1.0, 0.7 * (1.0 + 1e-10), 0.7),
])
def test_goal_curve_degenerate_countermeasure_rates(rates):
    act = _race_model(*rates)
    ts = np.linspace(0.0, 8.0, 17)
    for scenario in (Scenario.FULL, Scenario.DETECT_ONLY):
        want = np.asarray(transient_probability(compose(act, scenario), ts, 1e-14).ys)
        for eps in (1e-6, 1e-12):
            assert np.all(np.abs(np.asarray(goal_curve(act, scenario, ts, eps).ys) - want) <= eps)


def _fast_pair():
    return and_gate("ab", attack("a", lam=500.0), attack("b", lam=500.0))


@pytest.mark.parametrize("attack_side, detect_rate, mitigate_rate", [
    # density zero at 0 and gone long before the first panel's second node
    (_fast_pair, 0.5, 0.25),
    # the same mass beside a slow sibling that keeps every sample smooth
    (lambda: or_gate("o", _fast_pair(), attack("c", lam=0.01)), 0.5, 0.25),
    # a countermeasure that wins or loses long before that node
    (lambda: and_gate("ab", attack("a", lam=1.0), attack("b", lam=1.0)), 1000.0, 1000.0),
], ids=["fast-and", "fast-and-beside-slow-or", "fast-countermeasure"])
def test_goal_curve_resolves_mass_between_quadrature_nodes(attack_side, detect_rate, mitigate_rate):
    act = build_act("between nodes", and_gate(
        "top", attack_side(),
        cm_gate("cm", detect("d", p=0.5, lam=detect_rate), mitigate("m", p=0.5, lam=mitigate_rate)),
    ))
    for scenario in (Scenario.FULL, Scenario.DETECT_ONLY):
        want = np.asarray(transient_probability(compose(act, scenario), LONG_GRID, 1e-14).ys)
        for eps in (1e-6, 1e-9, 1e-12):
            curve = goal_curve(act, scenario, LONG_GRID, eps)
            assert np.all(np.abs(np.asarray(curve.ys) - want) <= eps)
            assert curve.meta["error_bound"] <= eps


def test_goal_curve_refinement_stops_at_rounding_level():
    # no tolerance is too small: panels stop splitting once the estimate is rounding noise
    act = stiff_race()
    want = expm_transient(compose(act), LONG_GRID)
    for eps in (1e-300, 5e-324):
        curve = goal_curve(act, Scenario.FULL, LONG_GRID, eps)
        assert np.all(np.abs(np.asarray(curve.ys) - want) <= 1e-12)
        assert curve.meta["error_bound"] < 1e-13


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_goal_curve_scenario_order(seed):
    # a stronger defender never raises the goal probability
    act = random_act(random.Random(seed), max_leaves=8, max_cms=3)
    ts = np.linspace(0.0, 5.0, 11)
    eps = 1e-9
    lo, mid, hi = (np.asarray(goal_curve(act, s, ts, eps).ys)
                   for s in (Scenario.DETECT_ONLY, Scenario.FULL, Scenario.NO_CM))
    assert np.all(lo <= mid + 2 * eps) and np.all(mid <= hi + 2 * eps)


def test_transient_probability_keeps_its_values():
    # pinned curves: a new way of building the jump matrix must reproduce them bit for bit
    mia = transient_probability(compose(load_bundled("mia")), [0.5, 1.0, 2.0, 5.0], 1e-9)
    assert mia.ys == (0.3188876032184079, 0.533688610738206, 0.7757167053224105, 0.9704541676384153)
    stiff = transient_probability(compose(stiff_race()), [0.01, 0.05, 1.0, 1000.0], 1e-9)
    assert stiff.ys == (0.39346862221568046, 0.9178923729012712, 0.999950741336874, 0.999950741336874)


def test_goal_curve_and_ranking_build_no_model(monkeypatch):
    # scenarios are read per countermeasure, and races walk the subtree in place
    act = load_bundled("mia")
    built = []
    init = Act.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Act, "__init__", spy)
    for scenario in Scenario:
        goal_curve(act, scenario, [0.0, 1.0, 2.0])
    rank_countermeasures(act, 2.0)
    assert built == []


@pytest.mark.filterwarnings("error")
def test_rates_near_the_largest_double(tmp_path):
    # AND(OR(a, b), CM): each call answers within [0, 1] or raises DomainError
    def model(lam):
        return (f'act "fast" {{ root g; g = AND(o, cm); o = OR(a, b); a = ATTACK(p=0.5, lambda={lam!r}); '
                f'b = ATTACK(p=0.5, lambda={lam!r}); cm = CM(d, m); d = DETECT(p=0.5, lambda=1.0); '
                f'm = MITIGATE(p=0.5, lambda=1.0); }}')

    path = tmp_path / "fast.act"
    for lam in (1e200, 8e307, 1e308):
        act = parse_act(model(lam))
        path.write_text(model(lam), encoding="utf-8")
        with pytest.raises(DomainError):  # far too many uniformization jumps, or rates that sum to inf
            transient_probability(compose(act), [0.0, 1.0, 10.0])
        if lam == 1e308:
            for scenario in Scenario:
                with pytest.raises(DomainError):
                    goal_curve(act, scenario, [0.0, 1.0, 10.0])
            assert main(["rank", "--model", str(path)]) == 3
            continue
        for scenario in Scenario:
            ys = goal_curve(act, scenario, [0.0, 1.0, 10.0]).ys
            assert ys[0] == 0.0 and all(0.99 < y <= 1.0 for y in ys[1:])
        (effect,) = rank_countermeasures(act, 2.0)
        assert 0.99 < effect.pgoal_with <= effect.pgoal_without <= 1.0
        assert main(["rank", "--model", str(path)]) == 0


def test_goal_curve_checks_leaves_and_tolerance_outside_chains():
    act = build_act("sure", or_gate("g", attack("a", p=1.0), attack("b", p=0.5)))
    with pytest.raises(RateUndefined, match="'a'"):
        goal_curve(act, Scenario.FULL, [1.0])
    plain = build_act("plain", or_gate("g", attack("a", p=0.5), attack("b", p=0.5)))
    for eps in (0.0, 1e-2):
        with pytest.raises(DomainError):
            goal_curve(plain, Scenario.FULL, [1.0], epsilon=eps)
    with pytest.raises(DomainError):
        goal_curve(plain, Scenario.FULL, [2.0, 1.0])
