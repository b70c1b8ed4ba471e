import random
import time

import numpy as np
import pytest

from actkit import load_bundled
from actkit.errors import DomainError
from actkit.model import (
    Act,
    Scenario,
    and_gate,
    attack,
    build_act,
    cm_gate,
    detect,
    mitigate,
    or_gate,
    remove_cm_gates,
)
from actkit.ranking import rank_countermeasures
from actkit.semantics import compose
from actkit.transient import goal_curve, transient_probability

from oracles import branch_curves, expm_transient, guarded_or, random_act


def test_no_countermeasures_gives_empty_ranking():
    act = build_act("plain", or_gate("g", attack("a", p=0.3), attack("b", p=0.4)))
    assert rank_countermeasures(act, 2.0) == []
    with pytest.raises(DomainError):
        rank_countermeasures(act, -1.0)


@pytest.mark.parametrize("t_star, epsilon", [("2", 1e-9), (True, 1e-9), (b"2", 1e-9),
                                             (2.0, "1e-9"), (2.0, 1e-9 + 0j), (2.0, None)],
                         ids=["str", "bool", "bytes", "str-epsilon", "complex-epsilon", "none-epsilon"])
def test_ranking_rejects_horizons_and_tolerances_that_are_not_numbers(t_star, epsilon):
    with pytest.raises(DomainError):
        rank_countermeasures(load_bundled("mia"), t_star, epsilon)


def test_ranking_names_its_horizon_and_a_grid_its_open_end():
    # rank takes no grid, so a negative horizon is refused by name; a grid's upper end inf is open
    act = load_bundled("mia")
    with pytest.raises(DomainError, match=r"^t_star must be a number in \[0, inf\), got -1\.0$"):
        rank_countermeasures(act, -1.0)
    with pytest.raises(DomainError, match=r"^time grid must hold finite numbers in \[0, inf\)$"):
        goal_curve(act, Scenario.FULL, [-1.0])


def test_single_cm_delta_matches_gap():
    act = build_act("one-cm", and_gate(
        "top", attack("a", p=0.6),
        cm_gate("cm", detect("d", p=0.5), mitigate("m", p=0.5)),
    ))
    (effect,) = rank_countermeasures(act, 2.0)
    assert effect.name == "cm"
    full = expm_transient(compose(act, Scenario.FULL), [2.0])[0]
    bare = expm_transient(compose(remove_cm_gates(act, set(act.cm_gates())),
                                  Scenario.FULL), [2.0])[0]
    assert effect.pgoal_with == pytest.approx(full, abs=1e-9)
    assert effect.pgoal_without == pytest.approx(bare, abs=1e-9)
    assert effect.delta == pytest.approx(bare - full, abs=1e-9)
    assert effect.delta > 0


def test_ranking_on_a_subtree_view():
    # the view keeps mia's whole node table; ranking reads only the guards of the tree under its root
    mia = load_bundled("mia")
    branch = next(nid for nid, node in enumerate(mia.nodes) if node.ident == "acquire_password")
    view = Act(mia.title, branch, mia.nodes)
    (effect,) = rank_countermeasures(view, 2.0)
    assert mia.nodes[effect.node].ident == "password_cm"
    assert effect.pgoal_with == goal_curve(view, Scenario.FULL, [2.0]).ys[0]
    bare = goal_curve(remove_cm_gates(view, {effect.node}), Scenario.FULL, [2.0]).ys[0]
    assert effect.pgoal_without == pytest.approx(bare, abs=1e-12)
    assert effect.delta > 0


def test_bundled_model_ranking():
    act = load_bundled("mia")
    effects = rank_countermeasures(act, 2.0)
    assert [e.name for e in effects] == ["CM to Steal Password", "Virus CM"]
    assert all(e.delta >= 0 for e in effects)
    assert effects[0].delta >= effects[1].delta
    assert effects[0].pgoal_with == effects[1].pgoal_with
    # removing one gate can only help the attacker
    for e in effects:
        assert e.pgoal_without >= e.pgoal_with


def test_ranking_ties_break_by_name():
    # two structurally identical countermeasures produce equal deltas
    act = build_act("twin", or_gate(
        "top",
        and_gate("left", attack("a1", p=0.4),
                 cm_gate("zeta", detect("d1", p=0.5), mitigate("m1", p=0.5))),
        and_gate("right", attack("a2", p=0.4),
                 cm_gate("alpha", detect("d2", p=0.5), mitigate("m2", p=0.5))),
    ))
    effects = rank_countermeasures(act, 1.5)
    assert [e.name for e in effects] == ["alpha", "zeta"]
    assert effects[0].delta == pytest.approx(effects[1].delta, abs=1e-12)


def test_delta_shrinks_with_weak_detection():
    strong = build_act("s", and_gate(
        "top", attack("a", p=0.6),
        cm_gate("cm", detect("d", p=0.9), mitigate("m", p=0.9)),
    ))
    weak = build_act("w", and_gate(
        "top", attack("a", p=0.6),
        cm_gate("cm", detect("d", p=0.05), mitigate("m", p=0.05)),
    ))
    (ds,) = rank_countermeasures(strong, 2.0)
    (dw,) = rank_countermeasures(weak, 2.0)
    assert ds.delta > dw.delta


def _nested_guards(act) -> list[int]:
    """Countermeasure gates whose AND gate lies below another guarded AND gate."""
    nested = set()
    for nid in range(len(act.nodes)):
        if act.guard(nid) is None:
            continue
        stack = list(act.children(nid))
        while stack:
            c = stack.pop()
            if act.guard(c) is not None:
                nested.add(act.guard(c))
            stack.extend(act.children(c))
    return sorted(nested)


def _nested(act) -> bool:
    """Whether some guarded AND gate has a guarded gate below it."""
    return bool(_nested_guards(act))


def test_ranking_matches_whole_chain_ranking():
    eps, t_star = 1e-9, 1.5
    rng = random.Random(77)
    models = []
    while len(models) < 8:
        act = random_act(rng, max_leaves=8, max_cms=3)
        if sum(1 for _ in act.cm_gates()) >= 2:
            models.append(act)
    assert sum(_nested(act) for act in models) >= 3

    def whole(model):
        return transient_probability(compose(model, Scenario.FULL), [t_star], eps).ys[0]

    for act in models:
        effects = rank_countermeasures(act, t_star, epsilon=eps)
        with_all = whole(act)
        want = {nid: whole(remove_cm_gates(act, {nid})) - with_all for nid in act.cm_gates()}
        assert sorted(e.node for e in effects) == sorted(want)
        for e in effects:
            # one evaluator: ranking's full model is goal_curve's, bit for bit
            assert e.pgoal_with == goal_curve(act, Scenario.FULL, [t_star], eps).ys[0]
            assert e.pgoal_with == pytest.approx(with_all, abs=2 * eps)
            assert e.pgoal_without == pytest.approx(want[e.node] + with_all, abs=2 * eps)
        # same order as the whole-chain deltas, up to ties within the tolerance
        deltas = [want[e.node] for e in effects]
        assert all(b <= a + 4 * eps for a, b in zip(deltas, deltas[1:]))


def test_ranking_twelve_guarded_branches(chain_calls):
    m, t_star = 12, 2.0
    act = guarded_or(m)
    start = time.perf_counter()
    effects = rank_countermeasures(act, t_star)
    assert time.perf_counter() - start < 5.0
    assert chain_calls == []  # no chain is built or solved, no model rebuilt

    guarded = branch_curves(m, compose, [t_star])[:, 0]
    bare = branch_curves(m, lambda b: compose(b, Scenario.NO_CM), [t_star])[:, 0]
    with_all = 1.0 - np.prod(1.0 - guarded)
    assert len(effects) == m
    for e in effects:
        i = int(e.name.removeprefix("cm"))
        without = 1.0 - np.prod(1.0 - np.where(np.arange(m) == i, bare, guarded))
        assert e.pgoal_with == pytest.approx(with_all, abs=1e-9 + 1e-12)
        assert e.pgoal_without == pytest.approx(without, abs=1e-9 + 1e-12)


def test_ranking_rebuilds_only_chains_that_hold_the_removed_gate(monkeypatch, chain_calls):
    import actkit.transient

    races = []

    def spy(gates, gate, ts, leaf_rates, laws, *args):
        races.append((gate, frozenset(laws)))
        return race(gates, gate, ts, leaf_rates, laws, *args)

    race = actkit.transient._race
    monkeypatch.setattr(actkit.transient, "_race", spy)
    act = guarded_or(12)
    rank_countermeasures(act, 2.0)
    # one race per branch, each read with every law; a removed branch is combined in closed form
    guarded = frozenset(g for g in range(len(act.nodes)) if act.guard(g) is not None)
    assert sorted(gate for gate, _ in races) == sorted(guarded)
    assert all(laws == guarded for _, laws in races)
    # a removed gate nested in another guard's race re-solves that one race, with a law table that lacks
    # exactly the removed gate
    rng = random.Random(78)
    seen = 0
    for _ in range(30):
        act = random_act(rng, max_leaves=8, max_cms=3)
        races.clear()
        rank_countermeasures(act, 1.5)
        guarded = frozenset(g for g in range(len(act.nodes)) if act.guard(g) is not None)
        again = [(gate, guarded - laws) for gate, laws in races if laws != guarded]
        assert all(laws < guarded for _, laws in races if laws != guarded)
        assert [removed for _, removed in again] == [{g for g in guarded if act.guard(g) == cm}
                                                     for cm in _nested_guards(act)]
        # the race re-solved is a guarded gate above the removed one
        assert all(gate in guarded and removed < set(Act(act.title, gate, act.nodes).postorder())
                   for gate, removed in again)
        seen += len(again)
    assert seen >= 3
    assert chain_calls == []


def test_ranking_many_branches_recomputes_only_their_paths():
    # every removal rewalks one branch and the root, not the whole tree
    act = guarded_or(800)
    start = time.perf_counter()
    goal_curve(act, Scenario.FULL, [2.0])
    one_curve = time.perf_counter() - start
    start = time.perf_counter()
    effects = rank_countermeasures(act, 2.0)
    ranking = time.perf_counter() - start
    assert len(effects) == 800
    assert ranking < 1.0 and ranking < 3.0 * one_curve
