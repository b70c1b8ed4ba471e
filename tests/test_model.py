import numpy as np
import pytest

from actkit import load_bundled
from actkit.errors import ActValidationError, DomainError, MissingParameter
from actkit.model import (
    Act,
    AndGate,
    AttackLeaf,
    CmGate,
    DetectLeaf,
    LeafTiming,
    MitigateLeaf,
    Node,
    OrGate,
    Scenario,
    _assemble,
    and_gate,
    apply_scenario,
    attack,
    build_act,
    cm_gate,
    detect,
    mitigate,
    or_gate,
    remove_cm_gates,
    validate_act,
    with_attack_probability,
)
from actkit.statics import static_probability

from oracles import malformed_specs


def small_act():
    return build_act("demo", and_gate(
        "top",
        attack("break in", p=0.8),
        cm_gate("alarm", detect("sensor", p=0.6), mitigate("guard", p=0.5)),
    ))


def codes(act):
    return sorted(d.code for d in validate_act(act))


def test_builder_assigns_preorder_ids():
    act = small_act()
    assert act.root == 0
    assert isinstance(act.nodes[0].kind, AndGate)
    assert [type(n.kind).__name__ for n in act.nodes] == [
        "AndGate", "AttackLeaf", "CmGate", "DetectLeaf", "MitigateLeaf"]
    assert act.nodes[1].ident == "break_in"
    assert act.nodes[1].name == "break in"
    assert validate_act(act) == []


def test_builder_dedupes_idents():
    act = build_act("demo", or_gate("top", attack("x", p=0.1), attack("x", p=0.2)))
    assert [act.nodes[i].ident for i in (1, 2)] == ["x", "x_2"]


def test_children_helpers():
    act = small_act()
    assert act.children(0) == (1, 2)
    assert act.children(2) == (3, 4)
    assert act.children(1) == ()
    assert list(act.attack_leaves()) == [1]
    assert list(act.cm_gates()) == [2]


def _leaf(i):
    return Node(f"a{i}", f"a{i}", AttackLeaf(LeafTiming(p=0.1)))


def test_postorder_is_iterative_and_children_first():
    n = 10_000  # far past the interpreter's recursion limit
    deep = Act("deep", 0, tuple(Node(f"g{i}", f"g{i}", OrGate((i + 1,))) for i in range(n)) + (_leaf(n),))
    # the last leaf is an orphan: postorder lists only what the root reaches
    wide = Act("wide", 0, (Node("top", "top", OrGate(tuple(range(1, n + 1)))),)
               + tuple(_leaf(i) for i in range(n + 1)))
    for act in (deep, wide):
        order = act.postorder()
        assert sorted(order) == list(range(n + 1))
        pos = {nid: i for i, nid in enumerate(order)}
        assert all(pos[c] < pos[nid] for nid in order for c in act.children(nid))


def test_guard():
    act = small_act()
    assert act.guard(0) == 2
    assert [act.guard(nid) for nid in (1, 2, 3, 4)] == [None] * 4
    plain = build_act("plain", or_gate(
        "top", and_gate("both", attack("a", p=0.1), attack("b", p=0.2)), attack("c", p=0.3)))
    assert [plain.guard(nid) for nid in range(len(plain.nodes))] == [None] * 5


def test_build_act_deep_chain():
    n, p = 5000, 1e-3
    spec = attack("a", p=p)
    for i in range(n - 1):
        spec = or_gate(f"g{i}", attack(f"a{i}", p=p), spec)
    act = build_act("deep", spec)
    assert len(act.nodes) == 2 * n - 1
    assert static_probability(act) == pytest.approx(1.0 - (1.0 - p) ** n, rel=1e-12)


def test_leaf_timing_accessors():
    tm = LeafTiming(p=0.5, t=2.0)
    assert tm.probability() == 0.5
    assert tm.rate() == pytest.approx(0.34657359027997264)
    assert LeafTiming(lam=3.0).rate() == 3.0
    with pytest.raises(MissingParameter):
        LeafTiming(lam=3.0).probability()
    with pytest.raises(MissingParameter):
        LeafTiming().rate()


def test_validate_root_missing():
    act = Act("bad", 5, (Node("a", "a", AttackLeaf(LeafTiming(p=0.5, t=1.0))),))
    assert codes(act) == ["RootMissing"]


def test_validate_dangling_reference():
    act = Act("bad", 0, (Node("g", "g", OrGate((1, 7))),
                         Node("a", "a", AttackLeaf(LeafTiming(p=0.5, t=1.0)))))
    assert codes(act) == ["DanglingReference"]


def test_validate_orphan_and_shared():
    leaf = Node("a", "a", AttackLeaf(LeafTiming(p=0.5, t=1.0)))
    orphan = Node("b", "b", AttackLeaf(LeafTiming(p=0.5, t=1.0)))
    act = Act("bad", 0, (Node("g", "g", OrGate((1, 1))), leaf, orphan))
    got = codes(act)
    assert "SharedSubtree" in got and "OrphanNode" in got


def test_validate_repeated_identifiers():
    # each node whose identifier an earlier node carries, orphans included
    leaf = AttackLeaf(LeafTiming(p=0.5, t=1.0))
    act = Act("bad", 0, (Node("g", "g", OrGate((1, 2))), Node("a", "x", leaf), Node("a", "y", leaf),
                         Node("a", "z", leaf)))
    found = [(d.code, d.node) for d in validate_act(act)]
    assert found == [("DuplicateIdentifier", "y"), ("DuplicateIdentifier", "z"), ("OrphanNode", "z")]


def test_validate_cycle():
    act = Act("bad", 0, (Node("g", "g", OrGate((1,))),
                         Node("h", "h", OrGate((0,)))))
    assert "CycleDetected" in codes(act)


def test_validate_gate_arity():
    act = Act("bad", 0, (Node("g", "g", AndGate(())),))
    assert codes(act) == ["GateArity"]


# builder specs that break a structural rule
CM_UNDER_OR = or_gate(
    "top",
    attack("a", p=0.5),
    cm_gate("cm", detect("d", p=0.5), mitigate("m", p=0.5)),
)
CM_WITHOUT_ATTACK_SIBLING = and_gate(
    "top",
    cm_gate("cm", detect("d", p=0.5), mitigate("m", p=0.5)),
)
TWO_CMS_UNDER_ONE_AND = and_gate(
    "top",
    attack("a", p=0.5),
    cm_gate("cm1", detect("d1", p=0.5), mitigate("m1", p=0.5)),
    cm_gate("cm2", detect("d2", p=0.5), mitigate("m2", p=0.5)),
)
LEAF_PARAMS_OUT_OF_RANGE = or_gate(
    "top",
    attack("a", p=1.5),
    attack("b", p=0.5, t=-1.0),
    attack("c"),  # neither a probability nor a rate
    attack("e", lam=-1.0),
    attack("f", lam=float("inf")),
)


def test_validate_cm_under_or():
    act = _assemble("bad", CM_UNDER_OR)
    assert "CmPlacement" in codes(act)
    # nor as the root
    root = Act("cm root", 0, (Node("cm", "cm", CmGate(1, 2)), Node("d", "d", DetectLeaf(LeafTiming(p=0.5, t=1.0))),
                              Node("m", "m", MitigateLeaf(LeafTiming(p=0.5, t=1.0)))))
    assert codes(root) == ["CmPlacement"]


def test_validate_cm_needs_attack_sibling():
    act = _assemble("bad", CM_WITHOUT_ATTACK_SIBLING)
    assert "CmPlacement" in codes(act)


def test_validate_two_cms_under_one_and():
    act = _assemble("bad", TWO_CMS_UNDER_ONE_AND)
    assert "CmPlacement" in codes(act)


def test_validate_cm_children_swapped():
    # detect/mitigate in the wrong order inside the countermeasure
    act = Act("bad", 0, (
        Node("top", "top", AndGate((1, 2))),
        Node("a", "a", AttackLeaf(LeafTiming(p=0.5, t=1.0))),
        Node("cm", "cm", CmGate(4, 3)),
        Node("d", "d", DetectLeaf(LeafTiming(p=0.5, t=1.0))),
        Node("m", "m", MitigateLeaf(LeafTiming(p=0.5, t=1.0))),
    ))
    assert codes(act).count("CmChildren") == 2
    # an attack event in the detection slot is flagged by the gate and by the leaf
    act = Act("bad", 0, (
        Node("top", "top", AndGate((1, 2))),
        Node("a", "a", AttackLeaf(LeafTiming(p=0.5, t=1.0))),
        Node("cm", "cm", CmGate(3, 4)),
        Node("x", "x", AttackLeaf(LeafTiming(p=0.5, t=1.0))),
        Node("m", "m", MitigateLeaf(LeafTiming(p=0.5, t=1.0))),
    ))
    assert [(d.code, d.node) for d in validate_act(act)] == [("CmChildren", "cm"), ("CmChildren", "x")]


def test_validate_detect_outside_cm():
    act = Act("bad", 0, (
        Node("top", "top", OrGate((1, 2))),
        Node("a", "a", AttackLeaf(LeafTiming(p=0.5, t=1.0))),
        Node("d", "d", DetectLeaf(LeafTiming(p=0.5, t=1.0))),
    ))
    assert "LeafPlacement" in codes(act)
    # nor as the root, where there is no parent to check
    for kind in (DetectLeaf, MitigateLeaf):
        assert codes(Act("root leaf", 0, (Node("e", "e", kind(LeafTiming(p=0.5, t=1.0))),))) == ["LeafPlacement"]


def test_validate_leaf_params():
    act = _assemble("bad", LEAF_PARAMS_OUT_OF_RANGE)
    assert [(d.code, d.node) for d in validate_act(act)] == [("LeafParam", n) for n in "abcef"]


def test_build_act_raises_on_invalid():
    specs = [
        (or_gate("top", attack("a", p=2.0)), ("LeafParam", "a")),
        (CM_UNDER_OR, ("CmPlacement", "cm")),
        (CM_WITHOUT_ATTACK_SIBLING, ("CmPlacement", "top")),
        (TWO_CMS_UNDER_ONE_AND, ("CmPlacement", "top")),
        (LEAF_PARAMS_OUT_OF_RANGE, ("LeafParam", "a")),
        *malformed_specs(),
    ]
    for spec, want in specs:
        with pytest.raises(ActValidationError) as err:
            build_act("bad", spec)
        assert err.value.diagnostics == validate_act(_assemble("bad", spec))
        assert want in [(d.code, d.node) for d in err.value.diagnostics]


def test_scenario_no_cm_removes_gates():
    act = apply_scenario(small_act(), Scenario.NO_CM)
    assert validate_act(act) == []
    assert list(act.cm_gates()) == []
    assert sum(1 for _ in act.attack_leaves()) == 1
    assert len(act.nodes) == 2


def test_scenario_detect_only_makes_mitigation_instant():
    act = apply_scenario(small_act(), Scenario.DETECT_ONLY)
    (mid,) = [nid for nid, n in enumerate(act.nodes) if isinstance(n.kind, MitigateLeaf)]
    assert act.nodes[mid].kind.timing.p == 1.0
    (did,) = [nid for nid, n in enumerate(act.nodes) if isinstance(n.kind, DetectLeaf)]
    assert act.nodes[did].kind.timing.p == 0.6


def test_scenario_full_is_identity():
    act = small_act()
    assert apply_scenario(act, Scenario.FULL) is act


def test_remove_single_cm():
    act = build_act("demo", or_gate(
        "top",
        and_gate("left", attack("a", p=0.3),
                 cm_gate("cm1", detect("d1", p=0.5), mitigate("m1", p=0.5))),
        and_gate("right", attack("b", p=0.4),
                 cm_gate("cm2", detect("d2", p=0.5), mitigate("m2", p=0.5))),
    ))
    (first, _) = sorted(act.cm_gates())
    reduced = remove_cm_gates(act, {first})
    assert validate_act(reduced) == []
    assert sum(1 for _ in reduced.cm_gates()) == 1
    assert sum(1 for _ in reduced.attack_leaves()) == 2


def test_remove_cm_rejects_other_nodes():
    act = small_act()
    with pytest.raises(ValueError):
        remove_cm_gates(act, {0})


def test_with_attack_probability():
    # a model validate_act would reject is never built; a truth value is no probability, though it compares as one
    for bad in (2.0, -0.5, float("nan"), "0.5", None, True, False, np.True_, np.False_):
        with pytest.raises(DomainError):
            with_attack_probability(small_act(), bad)
    act = with_attack_probability(small_act(), 0.25)
    (aid,) = act.attack_leaves()
    assert act.nodes[aid].kind.timing.p == 0.25
    assert act.nodes[aid].kind.timing.t == 1.0
    # detection keeps its modelled value
    did = [nid for nid, n in enumerate(act.nodes) if isinstance(n.kind, DetectLeaf)][0]
    assert act.nodes[did].kind.timing.p == 0.6
