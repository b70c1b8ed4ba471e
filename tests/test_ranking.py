import pytest

from actkit import load_bundled
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
)
from actkit.ranking import rank_countermeasures
from actkit.semantics import compose

from oracles import expm_transient


def test_no_countermeasures_gives_empty_ranking():
    act = build_act("plain", or_gate("g", attack("a", p=0.3), attack("b", p=0.4)))
    assert rank_countermeasures(act, 2.0) == []


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
