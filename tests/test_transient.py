import itertools
import math
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from actkit import load_bundled, parse_act
from actkit.cli import main
from actkit.errors import ActValidationError, DomainError, RateUndefined
from actkit.model import (
    Act,
    AndGate,
    AttackLeaf,
    LeafTiming,
    MitigateLeaf,
    Node,
    OrGate,
    Scenario,
    and_gate,
    attack,
    build_act,
    cm_gate,
    detect,
    mitigate,
    or_gate,
    validate_act,
    with_attack_probability,
)
from actkit.semantics import Ctmc, collect_rates, compose, export_ctmc_text, parse_ctmc_text, read_gates
from actkit.ranking import rank_countermeasures
from actkit import transient
from actkit.transient import goal_curve, goal_curves, simulate, simulate_curves, transient_probability

from oracles import (
    acyclic_transient,
    and_of_ors,
    and_race_curve,
    dot_loop_transient,
    expm_transient,
    jump_matrix_lil,
    mpmath_transient,
    or_chain_text,
    or_wide_text,
    race_probability,
    random_act,
    reverse_children,
    with_random_rates,
)

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
    act = single_leaf()
    ctmc = compose(act)
    for bad in ([], [1.0, 1.0], [2.0, 1.0], [-1.0, 2.0], [0.0, float("inf")], [[1.0, 2.0]], ["a"], [1.0, None], 5.0,
                # text and truth values that float() and numpy would read as hours
                ["1", "2"], ["1"], [b"1.0"], [0.5, True], [True], np.array([True])):
        for solve in (lambda: transient_probability(ctmc, bad), lambda: goal_curve(act, Scenario.FULL, bad),
                      lambda: simulate(act, Scenario.FULL, bad, 10, 1)):
            with pytest.raises(DomainError):
                solve()
    for eps in (0.0, 0.5, "1e-9", None, 1e-9 + 0j):
        for solve in (lambda: transient_probability(ctmc, [0.0, 1.0], eps),
                      lambda: goal_curve(act, Scenario.FULL, [0.0, 1.0], eps)):
            with pytest.raises(DomainError):
                solve()


def test_chains_without_moves_stay_where_they_start():
    # every attack leaf at p = 0: the goal is unreachable, so the chain is the one blocked state
    act = build_act("never", and_gate("top", or_gate("o", attack("a", p=0.0), attack("b", p=0.0)),
                                      cm_gate("cm", detect("d", p=0.5), mitigate("m", p=0.5))))
    ts = [0.0, 1.0, 10.0]
    ctmc = compose(act)
    assert (ctmc.n, ctmc.goal, ctmc.blocked) == (1, frozenset(), frozenset({0}))
    assert transient_probability(ctmc, ts).ys == goal_curve(act, Scenario.FULL, ts).ys == (0.0, 0.0, 0.0)
    # a chain that starts in the goal stays there
    assert transient_probability(parse_ctmc_text("#states 1\n#goal 0\n"), ts).ys == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("runs, seed", [(0, 1), (-5, 1), (2.5, 1), (True, 1), (np.True_, 1), (10, -1), (10, 1.5),
                                        (10, None), (10, np.True_)])
def test_simulate_rejects_bad_runs_and_seeds(runs, seed):
    with pytest.raises(DomainError):
        simulate(single_leaf(), Scenario.FULL, [1.0], runs, seed)


@pytest.mark.parametrize("pleaf", [True, False, np.True_, np.False_, "0.5", 0.5j, 1.5])
def test_curve_requests_refuse_a_pleaf_that_is_no_probability(pleaf):
    # the rule with_attack_probability applies: a truth value is no probability, though it compares as 0 or 1
    for solve in (lambda: goal_curves(single_leaf(), [1.0], 1e-9, [(Scenario.FULL, pleaf)]),
                  lambda: simulate_curves(single_leaf(), [1.0], 10, 1, [(Scenario.FULL, pleaf)])):
        with pytest.raises(DomainError, match="attack-leaf probability must be a number in"):
            solve()


def test_a_rate_of_minus_zero_reads_as_zero():
    # lambda=-0.0, p=-0.0 and a pleaf of -0.0 are a rate of 0, and every evaluator answers +0.0, not -0.0
    ts = [0.0, 1.0]
    never = [build_act("never", or_gate("top", leaf)) for leaf in (attack("a", p=0.5, lam=-0.0), attack("a", p=-0.0))]
    for act in never:
        for ys in (goal_curve(act, Scenario.FULL, ts).ys, transient_probability(compose(act), ts).ys,
                   simulate(act, Scenario.FULL, ts, 10, 1).ys):
            assert [math.copysign(1.0, y) for y in ys] == [1.0, 1.0]
    for ys in (goal_curves(single_leaf(), ts, 1e-9, [(Scenario.FULL, -0.0)])[0][0].ys,
               simulate_curves(single_leaf(), ts, 10, 1, [(Scenario.FULL, -0.0)])[0].ys):
        assert [math.copysign(1.0, y) for y in ys] == [1.0, 1.0]


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
    assert a.meta["rng"] == "pcg64 per event, keyed by identifier; an OR pool of attack leaves is one event"
    # 17 attack leaves and 4 countermeasure phases: distribution's 9 leaves and steal_password's 2 are one event each
    assert a.meta["events"] == 12


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
    # pinned at the keyed per-event PCG64 streams; mia draws 12 events, each OR pool of attack leaves one,
    # in chunks of 2^13 runs
    act = load_bundled("mia")
    ts = [0.5, 1.0, 2.0, 5.0]
    runs = 300_000
    pinned = {
        Scenario.FULL: (0.31950666666666666, 0.5335533333333333, 0.7750833333333333, 0.9701466666666667),
        Scenario.NO_CM: (0.3203566666666667, 0.5374333333333333, 0.7866733333333333, 0.9795666666666667),
    }
    for scenario, ys in pinned.items():
        assert simulate(act, scenario, ts, runs=runs, seed=7).ys == ys
        exact = np.asarray(transient_probability(compose(act, scenario), ts, 1e-9).ys)
        assert np.all(np.abs(np.asarray(ys) - exact) <= 3.0 * np.sqrt(exact * (1.0 - exact) / runs))


def test_simulate_wide_model_in_bounded_memory():
    act = build_act("wide", or_gate("top", *(attack(f"a{i}", lam=0.005) for i in range(200))))
    # three curves folded from one draw: the leaves' own rate, then a probability per hour at k times it
    scales = (1.0, 2.0, 3.0)
    tracemalloc.start()
    try:
        curve = simulate(act, Scenario.FULL, [0.5, 1.0], runs=1 << 17, seed=3)
        curves = simulate_curves(act, [0.5, 1.0], 1 << 17, 3,
                                 [(Scenario.FULL, None if k == 1.0 else -math.expm1(-k * 0.005)) for k in scales])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curves[0].ys == curve.ys
    for k, c in zip(scales, curves):
        for t, y, hw in zip(c.xs, c.ys, c.halfwidths):
            assert abs(y - (1.0 - math.exp(-k * t))) <= hw
    assert peak < 128 * 2**20


def _pleaf_curves(pleafs):
    """The (scenario, pleaf) list the CLI's simulate asks for, scenario-major."""
    return [(scenario, p) for scenario in Scenario for p in pleafs]


def one_draw_per_curve(act, scenario, ts, runs, seed, pool=True):
    """``simulate``'s goal frequencies in one chunk: each event's whole stream at once, keyed by its identifier.

    An event is a countermeasure phase or an OR pool: a maximal subtree of
    OR gates and attack leaves, read off ``act.nodes``, which completes at
    one exponential time at the sum of its leaves' rates in node order. With
    ``pool`` False every attack leaf is an event of its own and each OR takes
    its earliest child: the per-leaf fold, the same law from other draws.
    """
    leaf_rates, cm_rates = collect_rates(act, scenario)

    def draw(nid, rate):
        key = int.from_bytes(b"\x01" + act.nodes[nid].ident.encode(), "big")
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
        return rng.exponential(1.0 / rate, runs) if rate > 0.0 else np.full(runs, np.inf)

    deadlines = {}
    for nid, r in cm_rates.items():
        kind = act.nodes[nid].kind
        deadlines[nid] = draw(kind.detect, r.detect)
        if r.mitigate is not None:
            deadlines[nid] = deadlines[nid] + draw(kind.mitigate, r.mitigate)
    order = act.postorder()
    pools = {}  # each node whose subtree holds only OR gates and attack leaves: those leaves
    for nid in order:
        kind = act.nodes[nid].kind
        if isinstance(kind, AttackLeaf):
            pools[nid] = [nid]
        elif pool and isinstance(kind, OrGate) and all(c in pools for c in kind.children):
            pools[nid] = [leaf for c in kind.children for leaf in pools[c]]
    inner = {c for nid in pools if isinstance(act.nodes[nid].kind, OrGate) for c in act.nodes[nid].kind.children}
    times = {}
    for nid in order:
        kind = act.nodes[nid].kind
        if nid in pools:
            if nid not in inner:
                times[nid] = draw(nid, sum(leaf_rates[leaf] for leaf in sorted(pools[nid])))
        elif isinstance(kind, OrGate):
            times[nid] = np.min([times.pop(c) for c in kind.children], axis=0)
        elif isinstance(kind, AndGate):
            cm = act.guard(nid)
            done = np.max([times.pop(c) for c in kind.children if c != cm], axis=0)
            times[nid] = np.where(done < deadlines[cm], done, np.inf) if cm in deadlines else done
    return tuple(np.count_nonzero(times[act.root] <= t) / runs for t in ts)


@pytest.mark.parametrize("pleafs", [(0.05, 0.1, 0.25), (0.0, 0.1, 0.1, 0.3)])
def test_simulate_curves_equal_separate_draws(pleafs):
    # one all-scenario call gives each (scenario, pleaf) the bits of its own
    # one-scenario simulate(), below one chunk on random models and over 37 chunks on mia
    ts = [0.5, 1.0, 2.0, 5.0]
    rng = random.Random(31)
    cases = [(random_act(rng, max_leaves=8), 2000) for _ in range(15)] + [(load_bundled("mia"), 300_000)]
    for model, runs in cases:
        curves = simulate_curves(model, ts, runs, 11, _pleaf_curves(pleafs))
        assert len(curves) == 3 * len(pleafs)
        pairs = [(scenario, p) for scenario in Scenario for p in pleafs]
        for (scenario, p), curve in zip(pairs, curves):
            act = with_attack_probability(model, p)
            alone = simulate(act, scenario, ts, runs, 11)
            assert curve.scenario is scenario
            assert (curve.ys, curve.halfwidths, curve.meta) == (alone.ys, alone.halfwidths, alone.meta)
            if runs <= 2000:
                assert curve.ys == one_draw_per_curve(act, scenario, ts, runs, 11)


@pytest.mark.parametrize("chunk, values, runs", [
    (1, transient._CHUNK_VALUES, 1500),
    (transient._CHUNK, 1, 1500),
    (7919, transient._CHUNK_VALUES, 20_000),
    (transient._CHUNK, 7919, 20_000),
])
def test_simulate_curves_do_not_depend_on_the_chunk(monkeypatch, chunk, values, runs):
    act = load_bundled("mia")
    ts = np.linspace(0.0, 6.0, 13)
    want = simulate_curves(act, ts, runs, 5, _pleaf_curves((0.05, 0.25)))
    monkeypatch.setattr(transient, "_CHUNK", chunk)
    monkeypatch.setattr(transient, "_CHUNK_VALUES", values)
    got = simulate_curves(act, ts, runs, 5, _pleaf_curves((0.05, 0.25)))
    assert [c.ys for c in got] == [c.ys for c in want]


def test_simulate_leaf_draws_ignore_silent_or_removed_siblings():
    # mia's acquire_password branch, with every other attack leaf silent
    # (rate 0) or deleted from the text, which renumbers the nodes
    act = load_bundled("mia")
    kept = {"sniff_network", "root_telnet"}
    silent = Act(act.title, act.root, tuple(
        replace(node, kind=AttackLeaf(LeafTiming(p=node.kind.timing.p, lam=0.0)))
        if isinstance(node.kind, AttackLeaf) and node.ident not in kept else node for node in act.nodes))
    alone = parse_act("""act "branch" {
      root goal;
      goal = OR(elevation);
      elevation = OR(acquire_admin);
      acquire_admin = OR(acquire_password);
      acquire_password = AND(steal_password, password_cm);
      steal_password = OR(sniff_network, root_telnet);
      sniff_network = ATTACK(p=0.05, t=1.0);
      root_telnet = ATTACK(p=0.05, t=1.0);
      password_cm = CM(track_password_tries, request_admin_pin);
      track_password_tries = DETECT(p=0.5, t=1.0);
      request_admin_pin = MITIGATE(p=0.5, t=1.0);
    }""")
    ids = {node.ident: nid for nid, node in enumerate(act.nodes)}
    assert all(ids[alone.nodes[nid].ident] != nid for nid in alone.attack_leaves())
    ts = np.linspace(0.0, 6.0, 13)
    for scenario in Scenario:
        want = simulate(alone, scenario, ts, 20_000, 4)
        got = simulate_curves(silent, ts, 20_000, 4, [(scenario, None)])[0]
        assert (got.ys, got.halfwidths) == (want.ys, want.halfwidths)
        assert want.ys != simulate(act, scenario, ts, 20_000, 4).ys


@pytest.mark.parametrize("seed", range(21))
def test_simulated_scenarios_dominate_run_by_run(seed):
    # shared draws: detect-only's deadline is full's minus the mitigation time,
    # and no-cm has none, so the order holds exactly at every point
    act = load_bundled("mia") if seed == 0 else random_act(random.Random(seed), max_leaves=8, max_cms=3)
    ts = np.linspace(0.0, 6.0, 25)
    pleafs = (0.05, 0.1, 0.25)
    curves = simulate_curves(act, ts, 20_000, seed, _pleaf_curves(pleafs))
    by = {(c.scenario, p): np.asarray(c.ys) for c, p in zip(curves, pleafs * 3)}
    for p in pleafs:
        assert np.all(by[Scenario.DETECT_ONLY, p] <= by[Scenario.FULL, p])
        assert np.all(by[Scenario.FULL, p] <= by[Scenario.NO_CM, p])


def test_simulate_bundled_model_in_small_memory():
    act = load_bundled("mia")
    curves = _pleaf_curves((0.05, 0.1, 0.25))
    ts = np.linspace(0.0, 10.0, 101)
    tracemalloc.start()
    try:
        simulate_curves(act, ts, 100_000, 1, curves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_simulate_saturated_points_keep_a_half_width():
    # near t = 8 h about one run in 20 000 fails, and p^ may read 0 or 1
    act = _race_model(1.0, 0.0, 2.0)
    ts = np.linspace(0.0, 8.0, 17)
    curve = simulate(act, Scenario.FULL, ts, 20_000, 1)
    exact = transient_probability(compose(act), ts, 1e-14).ys
    assert exact[-2:] == pytest.approx((0.99994, 0.99997), abs=5e-6)
    for i in (-2, -1):
        assert curve.halfwidths[i] > 0.0
        assert abs(curve.ys[i] - exact[i]) <= curve.halfwidths[i]
    assert curve.ys[0] == 0.0 and curve.halfwidths[0] > 0.0


@pytest.mark.parametrize("depth", [500, 5000])
def test_simulate_deep_or_chain(depth):
    act = parse_act(or_chain_text(depth, 1.0 / depth))
    ts = [0.5, 1.0, 2.0]
    curve = simulate(act, Scenario.FULL, ts, runs=2000, seed=1)
    for t, y, hw in zip(ts, curve.ys, curve.halfwidths):
        assert abs(y - (1.0 - math.exp(-t))) <= hw


def test_pooled_and_per_leaf_draws_both_sit_within_their_half_widths():
    # an OR pool draws one exponential at its leaves' summed rate, where the per-leaf fold draws one per leaf and
    # takes the earliest: two draws of one law, each within its three-sigma half-widths of the quadrature
    rng = random.Random(37)
    models = [(with_attack_probability(load_bundled("mia"), 0.1), 20_000),
              (parse_act(or_wide_text(200, 0.005)), 20_000),
              (parse_act(or_chain_text(5000, 1.0 / 5000)), 1000),
              *((random_act(rng, max_leaves=10, max_cms=3), 20_000) for _ in range(4))]
    ts = [0.25, 0.5, 1.0, 2.0, 5.0]
    for i, (act, runs) in enumerate(models):
        for scenario in Scenario if any(act.cm_gates()) else [Scenario.FULL]:
            exact = goal_curve(act, scenario, ts).ys
            pooled = simulate(act, scenario, ts, runs, 5)
            per_leaf = one_draw_per_curve(act, scenario, ts, runs, 5, pool=False)
            if i in (1, 2):  # the wide OR and the deep chain are one pool each: one stream, not 200 or 5000
                assert pooled.meta["events"] == 1
            for ys, hws in ((pooled.ys, pooled.halfwidths),
                            (per_leaf, transient._wilson_halfwidths(np.asarray(per_leaf) * runs, runs))):
                for y, e, hw in zip(ys, exact, hws):
                    assert abs(y - e) <= hw


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


def test_goal_curve_within_epsilon_on_stiff_random_models():
    # rates spanning five decades against dense matrix exponentials of the whole chain
    rng = random.Random(1762)
    checked = 0
    for _ in range(200):
        act = with_random_rates(random_act(rng, max_leaves=6, max_cms=3), rng, 1e-2, 3e3)
        ts = np.sort([1e-3 * 3e4 ** rng.random() for _ in range(8)])
        for scenario in Scenario:
            ctmc = compose(act, scenario)
            if ctmc.n > 150:
                continue
            want = expm_transient(ctmc, ts)
            for eps in (1e-6, 1e-12):
                curve = goal_curve(act, scenario, ts, eps)
                assert np.all(np.abs(np.asarray(curve.ys) - want) <= eps)
                assert curve.meta["error_bound"] <= eps
            checked += 1
    assert checked >= 500


def test_goal_curve_within_epsilon_on_very_stiff_random_models():
    # rates spanning eleven decades, where double-precision expm fails, against
    # the closed form of every chain, to about a thousand states
    rng = random.Random(1762)
    checked = []
    for _ in range(40):
        act = with_random_rates(random_act(rng, max_leaves=8, max_cms=3), rng, 1e-2, 1e9)
        ts = np.sort([1e-3 * 3e4 ** rng.random() for _ in range(4)])
        for scenario in Scenario:
            ctmc = compose(act, scenario)
            want = acyclic_transient(ctmc, ts)
            for eps in (1e-6, 1e-12):
                curve = goal_curve(act, scenario, ts, eps)
                assert np.all(np.abs(np.asarray(curve.ys) - want) <= eps)
                assert curve.meta["error_bound"] <= eps
            checked.append(ctmc.n)
    assert len(checked) >= 30 and sum(n > 50 for n in checked) >= 10


def test_acyclic_oracle_matches_the_matrix_exponential():
    # mpmath.expm costs about a second per exponential at 20 states: every chain to that size
    rng = random.Random(1762)
    checked = []
    # unit rates all around: detection hands over to mitigation at the same exit rate, which raises a power of t
    even = build_act("even", and_gate("top", attack("a", p=E1), attack("b", p=E1),
                                      cm_gate("cm", detect("d", p=E1), mitigate("m", p=E1))))
    # at t = 0 the goal holds the initial state's mass
    assert acyclic_transient(parse_ctmc_text("#goal 0\n"), [0.0, 1.0]).tolist() == [1.0, 1.0]
    for scenario in Scenario:
        ctmc = compose(even, scenario)
        ts = [0.0, 0.5, 2.0, 8.0]
        np.testing.assert_allclose(acyclic_transient(ctmc, ts), mpmath_transient(ctmc, ts), rtol=1e-15, atol=0)
    for _ in range(12):
        act = with_random_rates(random_act(rng, max_leaves=4, max_cms=2), rng, 1e-2, 1e9)
        ts = np.sort([1e-3 * 3e4 ** rng.random() for _ in range(4)])
        for scenario in Scenario:
            ctmc = compose(act, scenario)
            if ctmc.n <= 20:
                np.testing.assert_allclose(acyclic_transient(ctmc, ts), mpmath_transient(ctmc, ts), rtol=1e-15, atol=0)
                checked.append(ctmc.n)
    assert len(checked) >= 30 and max(checked) > 10


def test_acyclic_oracle_fails_loudly():
    with pytest.raises(AssertionError, match="cycle"):
        acyclic_transient(parse_ctmc_text("#goal 2\n0 1 1.0\n1 0 1.0\n1 2 1.0\n"), [1.0])
    # exit rates 1 and 1 + 1e-6 cancel about 12 of the digits; 60 keep enough, 20 do not
    text = "#goal 3\n0 1 1.0\n1 2 1.000001\n2 3 1.0\n"
    assert acyclic_transient(parse_ctmc_text(text), [1.0])[0] == pytest.approx(1.0 - 2.5 * math.exp(-1.0), rel=1e-5)
    with pytest.raises(AssertionError, match="from 20 to 60 digits"):
        acyclic_transient(parse_ctmc_text(text), [1.0], dps=20)


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
    assert guards <= meta["rounds"] <= 2 * guards
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
        if rates[1] == 0.0:  # the simulator never draws a phase of rate 0
            # three sigma of the solver value: the sampled half-width is 0 where every run succeeded
            runs = 20_000
            sampled = np.asarray(simulate(act, scenario, ts, runs, 1).ys)
            assert np.all(np.abs(sampled - want) <= 3.0 * np.sqrt(want * (1.0 - want) / runs) + 1e-9)


def test_goal_curve_accepts_a_resolved_race_in_one_round():
    # a rank-many-cm branch at one time point: the first panel's Chebyshev tail is already within epsilon
    act = build_act("branch", and_gate(
        "g", or_gate("o", attack("a", lam=0.2), attack("b", lam=0.2)),
        cm_gate("cm", detect("d", p=0.5, lam=1.0), mitigate("m", p=0.5, lam=2.0)),
    ))
    curve = goal_curve(act, Scenario.FULL, [2.0], 1e-9)
    assert (curve.meta["rounds"], curve.meta["panels"]) == (1, 1)
    want = transient_probability(compose(act), [2.0], 1e-14).ys[0]
    assert abs(curve.ys[0] - want) <= curve.meta["error_bound"] <= 1e-9


def test_goal_curve_grades_the_first_panel_for_fast_leaves():
    # bisection alone halves [0, 1] about 660 times toward the 1e-200 h scale, one pass per halving
    act = _race_model(1e200, 1.0, 1.0)
    curve = goal_curve(act, Scenario.FULL, [0.0, 1.0, 2.0, 5.0], 1e-9)
    assert curve.meta["panels"] <= 100 and curve.meta["rounds"] <= 2
    assert curve.ys[0] == 0.0 and all(0.99 < y <= 1.0 for y in curve.ys[1:])


@pytest.mark.parametrize("slow", [1e100, 1e150, 1e3])
def test_goal_curve_grades_toward_every_fast_time_scale(slow):
    # a second fast phase used to sit in one 2^16-wide panel, halved one pass at a time (9-17 passes)
    act = build_act("two scales", and_gate(
        "top", and_gate("ab", attack("a", lam=1e200), attack("b", lam=slow)),
        cm_gate("cm", detect("d", p=0.5, lam=1.0), mitigate("m", p=0.5, lam=2.0)),
    ))
    ts = [0.0, 1.0, 2.0, 5.0]
    curve = goal_curve(act, Scenario.FULL, ts, 1e-9)
    assert curve.meta["rounds"] <= 3
    # dense expm reads NaN at these rates, so the reference is the closed form
    assert np.all(np.abs(np.asarray(curve.ys) - and_race_curve([1e200, slow], 1.0, 2.0, ts)) <= 1e-9)


def _guarded_leaf(lam_a: float, lam_d: float, lam_m: float) -> Act:
    return parse_act(f'act "fast guard" {{ root g; g = AND(a, cm); a = ATTACK(p=0.5, lambda={lam_a!r}); '
                     f'cm = CM(d, m); d = DETECT(p=0.5, lambda={lam_d!r}); m = MITIGATE(p=0.5, lambda={lam_m!r}); }}')


@pytest.mark.parametrize("grid", [[0.0, 1e120], [1e-300, 1e300], [0.5, 1e300], [1e-6, 1e300]])
@pytest.mark.parametrize("rates", [(1e300, 1e200, 1e200), (1.0, 1.0, 2.0), (1e3, 1.0, 2.0)])
def test_goal_curve_grades_a_grid_that_jumps_far_past_a_race(rates, grid):
    # the widening toward 1e120 counts its steps on a ratio past the largest double, and a grid interval
    # (a, b] far wider than a phase still running at a needs grading: ungraded, its rounding floor
    # h max|f| overflows to inf, or bisection takes about one pass per halving, a thousand to 1e300
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        curve = goal_curve(_guarded_leaf(*rates), Scenario.FULL, grid)
    assert time.perf_counter() - start < 1.0 and curve.meta["rounds"] <= 3
    ys = np.asarray(curve.ys)
    assert np.all(np.isfinite(ys) & (ys >= 0.0) & (ys <= 1.0))
    assert abs(ys[-1] - race_probability(*rates)) <= 1e-9


@pytest.mark.parametrize("scenario", [Scenario.FULL, Scenario.DETECT_ONLY])
def test_goal_curve_leaves_slow_races_ungraded(scenario):
    # every mia race has rate sum times its first grid point below 8: one panel per grid interval and guard
    ts = np.linspace(0.0, 10.0, 101)
    assert goal_curve(load_bundled("mia"), scenario, ts, 1e-6).meta["panels"] == 200


def test_goal_curve_of_a_wide_guarded_and_in_bounded_memory():
    # each gate folds its children as they finish, so no k-row stack of panel arrays
    act = build_act("wide", and_gate(
        "top", *(attack(f"a{i}", p=0.5) for i in range(10_000)),
        cm_gate("cm", detect("d", p=0.5), mitigate("m", p=0.5)),
    ))
    tracemalloc.start()
    try:
        curve = goal_curve(act, Scenario.FULL, np.linspace(0.0, 10.0, 101))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # F_A = (1 - e^{-rs})^n with r = ln 2, against an Erlang-2 countermeasure of the same rate
    r, n = math.log(2.0), 10_000

    def density(s):
        return n * r * math.exp(-r * s) * (-math.expm1(-r * s)) ** (n - 1) * math.exp(-r * s) * (1.0 + r * s)

    for i in (60, 80, 100):
        want, _ = scipy.integrate.quad(density, 0.0, curve.xs[i], epsabs=1e-15, epsrel=1e-12, limit=200)
        assert abs(curve.ys[i] - want) <= 1e-9
    assert curve.ys[100] == pytest.approx(want, rel=1e-9)  # about 4.8e-7


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", ["1e-310", "5e-324"])
def test_a_subnormal_exit_rate_gives_a_finite_curve(lam):
    # below about 5.6e-309, 1/rate overflows to inf, so the jump chain must divide by the rate
    act = parse_act(f'act "x" {{ root a; a = ATTACK(p=0.5, lambda={lam}); }}')
    ts = [0.0, 1.0, 1e300]
    curve = transient_probability(compose(act), ts)
    assert all(math.isfinite(y) for y in curve.ys)
    assert np.all(np.abs(np.asarray(curve.ys) - goal_curve(act, Scenario.FULL, ts).ys) <= 1e-9)


@pytest.mark.parametrize("lam, ts", [
    ("1e20", [0.0, 1e-20, 1.0]),
    ("1e300", [0.0, 1e-300, 1.0]),
    ("1e300", [0.0, 0.5, 1.0, 1e6]),  # reaches edges near 1e-300 through the grading toward 0
])
def test_a_race_over_tiny_or_values_stops_bisecting(lam, ts):
    # an OR's 1 - prod(1 - F_c) rounds in ulps of 1, so below 1e-16 its error exceeds 64 ulps of F:
    # a noise floor in ulps of F would split every panel near 0 on every round until memory ran out
    act = parse_act(f'act "m" {{ root g; g = AND(o1, o2, cm); o1 = OR(a, b); a = ATTACK(p=0.5, lambda={lam}); '
                    'b = ATTACK(p=0.5, lambda=0.3); o2 = OR(c, z); c = ATTACK(p=0.5, lambda=0.35); '
                    'z = ATTACK(p=0.5, lambda=0.0); cm = CM(d, m); d = DETECT(p=0.5, lambda=0.5); '
                    'm = MITIGATE(p=0.5, lambda=1.0); }')
    eps = 1e-9
    start = time.perf_counter()
    curve = goal_curve(act, Scenario.FULL, ts, eps)
    assert time.perf_counter() - start < 1.0
    assert curve.ys[0] == 0.0
    want = acyclic_transient(compose(act), ts)
    assert np.all(np.abs(np.asarray(curve.ys) - want) <= eps)


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


def _wide_gate(kind: str, width: int, guarded: bool, seed: int) -> Act:
    """One AND or OR over ``width`` random leaves, under a countermeasure if ``guarded``."""
    rng = random.Random(seed)
    leaves = [attack(f"a{i}", p=rng.uniform(0.02, 0.95), t=rng.choice([0.5, 1.0, 2.0])) for i in range(width)]
    gate = (and_gate if kind == "and" else or_gate)("wide", *leaves)
    if guarded:  # a countermeasure guards only an AND, so an OR goes under one
        cm = cm_gate("cm", detect("d", p=rng.uniform(0.1, 0.9)), mitigate("m", p=rng.uniform(0.1, 0.9)))
        gate = and_gate("wide", *leaves, cm) if kind == "and" else and_gate("top", gate, cm)
    return build_act(f"wide {kind}", gate)


_SEEDS = st.integers(0, 2**32 - 1)
_MODELS = st.one_of(
    st.builds(lambda seed: random_act(random.Random(seed), max_leaves=8, max_cms=3), _SEEDS),
    st.builds(lambda depth, lam: parse_act(or_chain_text(depth, lam)), st.integers(2, 400), st.floats(1e-3, 1.0)),
    # an AND's chain has 2^width states, an OR's a handful
    st.builds(_wide_gate, st.just("and"), st.integers(2, 8), st.booleans(), _SEEDS),
    st.builds(_wide_gate, st.just("or"), st.integers(2, 300), st.booleans(), _SEEDS),
)


_PLEAFS = st.sampled_from([0.0, 0.05, 0.3, 0.9])


@st.composite
def _models_and_curves(draw):
    """A model and the (scenario, pleaf) pairs of one ``simulate_curves`` call.

    The models hold a guard anywhere, a guard at the root, or none at all,
    and their attack leaves mix horizons of 0.5, 1 and 2 hours; some have
    about a third of their attack leaves at rate 0. A pleaf is None (the
    model's own rates), a common attack-leaf probability, 0 included, or an
    earlier one again. Under a probability, a subtree whose leaves share
    one horizon reads one rate, and one that mixes horizons reads several.
    """
    seed = draw(_SEEDS)
    act = draw(st.sampled_from([
        lambda: random_act(random.Random(seed), max_leaves=8, max_cms=3),
        lambda: _wide_gate(draw(st.sampled_from(["and", "or"])), draw(st.integers(1, 5)), True, seed),
        lambda: random_act(random.Random(seed), max_leaves=8, allow_cm=False),
    ]))()
    if draw(st.booleans()):
        act = _retimed(act, random.Random(seed))
    curves = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["own", "pleaf", "again"]))
        if kind == "pleaf":
            pleaf = draw(_PLEAFS)
        elif kind == "again" and curves:
            pleaf = draw(st.sampled_from([p for _, p in curves]))
        else:
            pleaf = None
        curves.append((draw(st.sampled_from(list(Scenario))), pleaf))
    return act, curves


@settings(deadline=None, max_examples=150)
@given(_models_and_curves(), _SEEDS, st.sampled_from([1, 700]))
def test_simulate_curves_match_whole_tree_folds(model_and_curves, seed, runs):
    # each curve of one call against the independent whole-tree fold of the model its pleaf stands for
    act, curves = model_and_curves
    ts = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0]
    got = simulate_curves(act, ts, runs, seed, curves)
    for (scenario, pleaf), curve in zip(curves, got):
        model = act if pleaf is None else with_attack_probability(act, pleaf)
        assert curve.scenario is scenario
        assert curve.ys == one_draw_per_curve(model, scenario, ts, runs, seed)


def _fold_shape(shape, horizons):
    """A model whose simulator fold has the shape ``shape``, its attack leaves' horizons cycling through
    ``horizons``, and the scenarios to ask for: under no-cm alone nothing races."""
    hours = itertools.cycle(horizons)

    def leaf(name, p):
        return attack(name, p=p, t=next(hours))

    def cm(i):
        return cm_gate(f"cm{i}", detect(f"d{i}", p=0.4 + 0.2 * i), mitigate(f"m{i}", p=0.5))

    if shape == "one leaf":
        root = leaf("a", 0.3)
    elif shape == "nothing races":
        root = and_gate("goal", or_gate("o", leaf("a", 0.2), leaf("b", 0.3)), leaf("c", 0.1), cm(0))
    elif shape == "racing children and a group":
        root = or_gate("goal", and_gate("both", leaf("a", 0.2), leaf("b", 0.3)),
                       and_gate("g", leaf("c", 0.1), or_gate("o", leaf("d", 0.4), leaf("e", 0.2)), cm(0)))
    elif shape == "only a group":
        root = and_gate("goal", leaf("a", 0.2), or_gate("o", leaf("b", 0.3), leaf("c", 0.1)), cm(0))
    elif shape == "only racing children":
        root = or_gate("goal", and_gate("g0", leaf("a", 0.2), leaf("b", 0.3), cm(0)),
                       and_gate("g1", or_gate("o", leaf("c", 0.1), leaf("d", 0.4)), cm(1)))
    elif shape == "nested racing ors":  # o1 and o2 fold into goal's step, their leaves into its group
        root = or_gate("goal", leaf("a", 0.2), or_gate("o1", leaf("b", 0.3), or_gate(
            "o2", leaf("c", 0.1), and_gate("g", leaf("d", 0.4), leaf("e", 0.2), cm(0)))))
    elif shape == "racing and under a guarded and":  # inner folds into goal's step
        root = and_gate("goal", leaf("a", 0.2), and_gate(
            "inner", leaf("b", 0.3), or_gate("o", leaf("c", 0.1), and_gate("g", leaf("d", 0.4), cm(1)))), cm(0))
    else:  # a guarded and under an and: g keeps its own step, and its deadline
        root = and_gate("goal", leaf("a", 0.2), and_gate("g", leaf("b", 0.3), or_gate("o", leaf("c", 0.1),
                                                                                       leaf("d", 0.4)), cm(0)))
    return build_act(shape, root), [Scenario.NO_CM] if shape == "nothing races" else list(Scenario)


_FOLD_SHAPES = {  # each shape: its racing steps when every countermeasure is guarded
    "one leaf": [], "nothing races": ["goal"], "racing children and a group": ["g", "goal"],
    "only a group": ["goal"], "only racing children": ["g1", "g0", "goal"], "nested racing ors": ["g", "goal"],
    "racing and under a guarded and": ["g", "o", "goal"], "guarded and under an and": ["g", "goal"],
}


@pytest.mark.parametrize("horizons", [(1.0,), (0.5, 1.0, 2.0)])
@pytest.mark.parametrize("shape", list(_FOLD_SHAPES))
def test_every_fold_shape_matches_the_whole_tree_fold(shape, horizons):
    # the shapes the property above draws only by chance, on one horizon and on mixed ones, so that a pleaf
    # reads a group's pools at one rate or at several
    act, scenarios = _fold_shape(shape, horizons)
    _, plan, _ = transient._fold_plan(act.root, read_gates(act), set(act.cm_gates()))
    assert [act.nodes[step.node].ident for step in plan] == _FOLD_SHAPES[shape]
    ts = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0]
    curves = [(scenario, pleaf) for scenario in scenarios for pleaf in (None, 0.1, 0.4)]
    for runs in (1, 3000):
        for (scenario, pleaf), curve in zip(curves, simulate_curves(act, ts, runs, 17, curves)):
            model = act if pleaf is None else with_attack_probability(act, pleaf)
            assert curve.ys == one_draw_per_curve(model, scenario, ts, runs, 17)


def test_mia_folds_three_racing_steps_over_three_groups():
    # alteration, elevation and acquire_admin are unguarded ORs under the OR goal, so they fold into its step
    act = load_bundled("mia")
    _, plan, groups = transient._fold_plan(act.root, read_gates(act), set(act.cm_gates()))
    assert [act.nodes[step.node].ident for step in plan] == ["acquire_password", "virus_manipulation", "goal"]
    assert sorted(~top for top in groups) == sorted(step.node for step in plan)


def test_mia_pools_its_ors_of_attack_leaves():
    # distribution's nine leaves and steal_password's two each draw as one event; every other leaf alone. The
    # seven pooled gates fold in no step or group, and only the two pool tops are read, as leaves
    act = load_bundled("mia")
    pools, plan, groups = transient._fold_plan(act.root, read_gates(act), set(act.cm_gates()))
    ident = {nid: node.ident for nid, node in enumerate(act.nodes)}
    pooled = {"copy_to_media", "distribution", "drop_box", "email", "file_sharing", "internet", "steal_password"}
    steps = plan + [step for group in groups.values() for step in group]
    assert pooled.isdisjoint(ident.get(step.node) for step in steps)
    assert pooled.intersection(ident.get(c) for step in steps for c in step.side) == {"distribution",
                                                                                       "steal_password"}
    assert {ident[top]: [ident[nid] for nid in leaves] for top, leaves in pools.items() if len(leaves) > 1} == {
        "distribution": ["local_account", "web_account", "post_newsgroup", "post_website", "ftp_server",
                         "floppy_disk", "cd_rom", "usb_drive", "online_chat"],
        "steal_password": ["sniff_network", "root_telnet"]}
    assert len(pools) == 8 and all(leaves == sorted(leaves) for leaves in pools.values())


def test_a_pool_sums_its_leaf_rates_in_node_order():
    # 1 + 1e-16 + 1e-16 is 1.0 in node order and 1.0000000000000002 reversed: the pool's one draw, u, then
    # completes at u, not at u / 1.0000000000000002, so the first grid point reads 0
    act = build_act("order", or_gate("o", attack("a", lam=1.0), attack("b", lam=1e-16), attack("c", lam=1e-16)))
    u = transient._event_stream(3, "o").standard_exponential(1)[0]
    [curve] = simulate_curves(act, [u * (1.0 / 1.0000000000000002), u], 1, 3, [(Scenario.FULL, None)])
    assert curve.ys == (0.0, 1.0)


@pytest.mark.parametrize("plan", ["one child", "guarded under a deadline", "empty"])
def test_a_fold_never_writes_what_it_is_handed(plan):
    # the fold reads its children and deadlines from arrays it may not write, which lets every curve of a
    # pleaf fold over the same group times; each plan matches a plain reduction
    a, b, c, deadline = np.random.default_rng(5).exponential(1.0, (4, 64))
    for array in (a, b, c, deadline):
        array.flags.writeable = False
    formed = {1: a, 2: b, 3: c}
    if plan == "one child":  # AND(OR(a), b, c)
        steps = [transient._Gate(4, True, (1,), None), transient._Gate(0, False, (4, 2, 3), None)]
        expected = np.maximum.reduce([a, b, c])
    elif plan == "guarded under a deadline":  # OR(a, AND(b) guarded by 9, c)
        steps = [transient._Gate(4, False, (2,), 9), transient._Gate(0, True, (1, 4, 3), None)]
        expected = np.minimum.reduce([a, np.where(b >= deadline, np.inf, b), c])
    else:
        steps, expected = [], a
        formed[0] = a
    assert np.array_equal(transient._fold(steps, formed, 0, {9: deadline}), expected)


@pytest.mark.parametrize("idents", [("a", "a"), ("a", "\x00a")], ids=["repeated", "leading NUL"])
def test_two_events_never_share_a_stream(idents):
    # a hand-built table: one identifier twice is refused; identifiers whose bytes differ only by leading
    # NULs draw two streams, so the AND of two unit-rate leaves reads (1 - exp(-t))^2, not 1 - exp(-t)
    leaf = AttackLeaf(LeafTiming(lam=1.0, t=None))
    act = Act("two", 0, (Node("g", "g", AndGate((1, 2))), Node(idents[0], "a", leaf), Node(idents[1], "b", leaf)))
    ts = [0.5, 1.0]
    if idents[0] == idents[1]:
        assert [(d.code, d.node) for d in validate_act(act)] == [("DuplicateIdentifier", "b")]
        with pytest.raises(ActValidationError) as exc:
            simulate(act, Scenario.FULL, ts, 100_000, 1)
        assert [(d.code, d.node) for d in exc.value.diagnostics] == [("DuplicateIdentifier", "b")]
        return
    assert validate_act(act) == []
    curve = simulate(act, Scenario.FULL, ts, 100_000, 1)
    exact = goal_curve(act, Scenario.FULL, ts).ys
    assert exact == pytest.approx([(1.0 - math.exp(-t)) ** 2 for t in ts], abs=1e-9)
    for y, e, hw in zip(curve.ys, exact, curve.halfwidths):
        assert abs(y - e) <= hw


_BOUNDARY_TABLES = [  # rates at the smallest subnormal and at 1e300, attacks at p = 0 and mitigations at p = 1
    """act "fast or" { root g; g = AND(o, cm); o = OR(a, b); a = ATTACK(p=0.5, lambda=5e-324);
      b = ATTACK(p=0.5, lambda=1e300); cm = CM(d, m); d = DETECT(p=0.5, t=1.0); m = MITIGATE(p=1.0, t=1.0); }""",
    """act "instant guard" { root g; g = OR(x, y); x = AND(a, cm); a = ATTACK(p=0.5, lambda=1.0); cm = CM(d, m);
      d = DETECT(p=0.5, lambda=1e300); m = MITIGATE(p=1.0, t=1.0); y = AND(z, w); z = ATTACK(p=0.0, t=1.0);
      w = ATTACK(p=0.5, lambda=5e-324); }""",
    """act "silent guard" { root g; g = AND(o, cm); o = OR(a, z); a = ATTACK(p=0.5, lambda=2.0);
      z = ATTACK(p=0.0, t=2.0); cm = CM(d, m); d = DETECT(p=0.5, lambda=5e-324); m = MITIGATE(p=0.5, lambda=1e300); }""",
    # detection and mitigation both at 1e300: under full the attack wins with probability 3/4
    """act "fast race" { root g; g = AND(a, cm); a = ATTACK(p=0.5, lambda=1e300); cm = CM(d, m);
      d = DETECT(p=0.5, lambda=1e300); m = MITIGATE(p=0.5, lambda=1e300); }""",
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", _BOUNDARY_TABLES, ids=["fast or", "instant guard", "silent guard", "fast race"])
def test_simulator_and_quadrature_agree_on_boundary_values(text):
    act = parse_act(text)
    ts = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0]
    for scenario in Scenario:
        exact = goal_curve(act, scenario, ts).ys
        curve = simulate(act, scenario, ts, 20_000, 3)
        for y, e, hw in zip(curve.ys, exact, curve.halfwidths):
            assert abs(y - e) <= hw
    # every race is over long before 100 h, and a horizon of 1e9 h keeps the value
    _, settled, late = goal_curve(act, Scenario.FULL, [0.0, 100.0, 1e9]).ys
    assert late == pytest.approx(settled, abs=1e-9)


def _retimed(act, rng, instant=0.5):
    """``act`` with about a third of its attack leaves at rate 0 and a share ``instant`` of its mitigations at p = 1."""
    nodes = []
    for node in act.nodes:
        if isinstance(node.kind, AttackLeaf) and rng.random() < 0.3:
            node = replace(node, kind=AttackLeaf(LeafTiming(p=node.kind.timing.p, lam=0.0)))
        elif isinstance(node.kind, MitigateLeaf) and rng.random() < instant:
            node = replace(node, kind=MitigateLeaf(LeafTiming(p=1.0, t=node.kind.timing.t)))
        nodes.append(node)
    return Act(act.title, act.root, tuple(nodes))


@st.composite
def _solver_calls(draw):
    """A model and the (scenario, pleaf) pairs of one ``goal_curves`` call, every scenario among them.

    The model's horizons mix 0.5, 1 and 2 hours; some attack leaves have
    rate 0 and some mitigations p = 1. A pair reads the model's own rates
    (None) or a common attack-leaf probability, 0 included.
    """
    rng = random.Random(draw(_SEEDS))
    act = _retimed(random_act(rng, max_leaves=8, max_cms=3), rng)
    picked = draw(st.lists(st.sampled_from([None, 0.0, 0.05, 0.3]), min_size=1, max_size=3))
    return act, [(scenario, pleaf) for scenario in draw(st.permutations(list(Scenario))) for pleaf in picked]


@settings(deadline=None, max_examples=120)
@given(_solver_calls(), st.sampled_from([[0.0, 0.25, 1.0, 3.0], [0.5, 2.0, 10.0]]), st.sampled_from([1e-6, 1e-9]))
def test_goal_curves_equal_goal_curve_per_curve(call, ts, eps):
    # one call reads one gate table for every curve; no bit of any curve moves
    act, curves = call
    for (scenario, pleaf), (got, removals) in zip(curves, goal_curves(act, ts, eps, curves)):
        want = goal_curve(act if pleaf is None else with_attack_probability(act, pleaf), scenario, ts, eps)
        assert got.scenario is scenario and removals == []
        assert np.asarray(got.ys).tobytes() == np.asarray(want.ys).tobytes()
        assert got.xs == want.xs and repr(got.meta) == repr(want.meta)


@settings(deadline=None, max_examples=200)
@given(_MODELS, _SEEDS)
def test_chain_quadrature_and_simulation_agree(act, seed):
    ts = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]
    eps, runs, alpha = 1e-9, 4000, 1e-6
    # three sigma widened to Bonferroni's share of alpha per grid point, in Bernstein's form
    # P[|p^ - p| >= x] <= 2 exp(-n x^2 / (2 p (1 - p) + 2 x / 3)), which also holds where p^ is 0 or 1
    a = math.log(2.0 * len(ts) / alpha)
    # one simulation folds every scenario's curve from the same draws
    sampled = simulate_curves(act, ts, runs, seed, [(s, None) for s in Scenario])
    for scenario, curve in zip(Scenario, sampled):
        assert curve.scenario is scenario
        solved = transient_probability(compose(act, scenario), ts, eps)
        integrated = goal_curve(act, scenario, ts, eps)
        assert solved.meta["error_bound"] <= eps and integrated.meta["error_bound"] <= eps
        exact = np.clip(np.asarray(solved.ys), 0.0, 1.0)
        assert np.all(np.abs(np.asarray(integrated.ys) - exact) <= 2.0 * eps)
        width = (a / 3.0 + np.sqrt(a * a / 9.0 + 2.0 * a * runs * exact * (1.0 - exact))) / runs
        assert np.all(np.abs(np.asarray(curve.ys) - exact) <= width + eps)


def test_curve_points_are_floats():
    # xs hold Python floats, as ys do and CurveResult declares, on every path that makes a curve
    mia = load_bundled("mia")
    idle = build_act("idle", attack("a", lam=0.0))  # a chain that never moves
    ts = np.linspace(0.0, 2.0, 5)
    curves = [transient_probability(compose(mia), ts), transient_probability(compose(idle), ts),
              goal_curves(mia, ts, 1e-6, [(Scenario.FULL, 0.1)])[0][0],
              simulate_curves(mia, ts, 100, 1, [(Scenario.FULL, 0.1)])[0]]
    for curve in curves:
        assert curve.xs == tuple(ts.tolist())
        assert all(type(x) is float for x in curve.xs + curve.ys)


def test_transient_probability_keeps_its_values():
    # pinned curves: a new way of building the jump matrix must reproduce them bit for bit
    mia = transient_probability(compose(load_bundled("mia")), [0.5, 1.0, 2.0, 5.0], 1e-9)
    assert mia.ys == (0.3188876032184079, 0.533688610738206, 0.7757167053224105, 0.9704541676384153)
    stiff = transient_probability(compose(stiff_race()), [0.01, 0.05, 1.0, 1000.0], 1e-9)
    assert stiff.ys == (0.39346862221568046, 0.9178923729012712, 0.999950741336874, 0.999950741336874)


def _entries(indptr, indices, data):
    """A CSR matrix's (row, column, value) entries, sorted: the same matrix whatever order each row holds."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return sorted(zip(rows.tolist(), indices.tolist(), data.tolist()))


def test_jump_matrix_matches_the_lil_construction(monkeypatch):
    chains = _jump_chains()
    # imported goals with exits, which the solver masks off: one with a repeated edge
    # and a rate of 0, one that starts in a state other than 0
    chains.append(parse_ctmc_text("#states 5\n#init 0\n#goal 3\n0 1 2.0\n0 2 0.0\n1 3 1.0\n2 3 0.5\n"
                                  "0 1 1.0\n3 4 0.7\n3 1 0.2\n"))
    chains.append(parse_ctmc_text("#states 6\n#init 2\n#goal 4 5\n2 0 1.5\n2 4 0.5\n0 4 3.0\n4 1 2.0\n"
                                  "1 5 1.0\n5 0 0.25\n0 3 0.1\n"))
    for ctmc in chains:
        rate, got = transient._jump_chain(ctmc)
        want_rate, want = jump_matrix_lil(ctmc)
        assert rate == want_rate and (got is None) == (want is None)
        if got is not None:
            assert [a.dtype for a in got] == [a.dtype for a in want]
            assert np.array_equal(got[0], want[0]) and _entries(*got) == _entries(*want)
    ts = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    curves = [transient_probability(ctmc, ts) for ctmc in chains]
    monkeypatch.setattr(transient, "_jump_chain", jump_matrix_lil)
    for ctmc, curve in zip(chains, curves):
        assert curve == transient_probability(ctmc, ts)


@pytest.mark.parametrize("indptr, indices, data", [
    ([0, 2, 2], [0, 1], [1.0, 1.0]),  # the loop's state sets the uniformization rate: no other diagonal entry
    ([0, 2, 2, 3], [0, 1, 1], [1.0, 1.0, 5.0]),  # a faster state sets it: the loop adds to a diagonal entry
])
def test_a_self_loop_moves_no_mass(indptr, indices, data):
    # a chain built directly may hold one; beside a -> b at rate 1 it leaves P[b by t] = 1 - e^-t
    n = len(indptr) - 1
    ctmc = Ctmc(n, 0, np.array(indptr, np.int32), np.array(indices, np.int32), np.array(data),
                frozenset({1}), frozenset(), tuple("abc"[:n]))
    ts = [0.5, 1.0, 3.0]
    curve = transient_probability(ctmc, ts)
    for t, y in zip(ts, curve.ys):
        assert abs(y + math.expm1(-t)) <= curve.meta["error_bound"]


def _jump_chains():
    """Chains whose goal states have no exits, for the jump-matrix and kernel-loop tests."""
    rng = random.Random(913)
    chains = [compose(load_bundled("mia"), s) for s in Scenario]
    chains += [compose(and_of_ors(k)) for k in range(1, 8)]
    chains += [compose(random_act(rng, max_leaves=8), s) for _ in range(100) for s in Scenario]
    # an imported chain may repeat an edge or give a rate of 0
    chains.append(parse_ctmc_text("#states 4\n#init 0\n#goal 3\n0 1 2.0\n0 2 0.0\n1 3 1.0\n"
                                  "2 3 0.5\n0 1 1.0\n"))
    return chains


def test_kernel_loop_matches_the_dot_loop():
    # one kernel call per jump, reading goal and absorbed mass from two more columns, is the old loop bit for bit
    ts = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    for ctmc in _jump_chains():
        for eps in (1e-6, 1e-9):
            curve = transient_probability(ctmc, ts, eps)
            ys, meta = dot_loop_transient(ctmc, ts, eps)
            assert curve.ys == ys and curve.meta == meta
    # an imported chain with 10 goal and 11 absorbing states: numpy's pairwise
    # sum and the kernel add them in another order
    lines = ["#states 13", "#init 0", "#goal" + "".join(f" {i}" for i in range(2, 12)), "0 1 1.0", "0 12 0.3"]
    lines += [f"1 {i} {0.1 * i!r}" for i in range(2, 12)]
    imported = parse_ctmc_text("\n".join(lines) + "\n")
    curve = transient_probability(imported, ts)
    ys, meta = dot_loop_transient(imported, ts)
    assert np.all(np.abs(np.asarray(curve.ys) - ys) <= 1e-15)
    assert curve.meta["poisson_terms"] == meta["poisson_terms"] > 8
    assert abs(curve.meta["tail_mass"] - meta["tail_mass"]) <= 1e-15


def test_fast_leaf_at_a_long_horizon_takes_the_jumps_it_needs():
    # the chain absorbs after one jump, though the right point of t = 1000 at rate 1e9 is about 1e12
    act = build_act("fast", and_gate("top", attack("a", lam=1e9), cm_gate(
        "cm", detect("d", p=0.5, lam=0.5), mitigate("m", p=0.5, lam=0.25))))
    ts = [0.0, 1.0, 1000.0]
    tracemalloc.start()
    try:
        curve = transient_probability(compose(act), ts, epsilon=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(np.asarray(curve.ys) - and_race_curve([1e9], 0.5, 0.25, ts)) <= 1e-6)
    assert curve.meta["poisson_terms"] == 1 and curve.meta["right_point"] > 1e12
    assert peak < 1e6


def test_an_imported_goal_with_exits_counts_as_reached():
    # reaching the goal is what counts, not staying in it: 1 - e^-t, not t e^-t
    ctmc = parse_ctmc_text("#states 3\n#init 0\n#goal 1\n0 1 1.0\n1 2 1.0\n")
    ts = np.linspace(0.0, 10.0, 41)
    ys = np.asarray(transient_probability(ctmc, ts).ys)
    assert np.all(np.abs(ys - (1.0 - np.exp(-ts))) <= 1e-9)
    assert np.all(np.diff(ys) >= 0.0)
    # a goal that starts the chain is reached at 0
    assert transient_probability(parse_ctmc_text("#goal 0\n0 1 1.0\n"), [0.0, 1.0]).ys == (1.0, 1.0)


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
