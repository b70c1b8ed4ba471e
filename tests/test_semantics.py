import dataclasses
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from actkit import load_bundled, semantics
from actkit.cli import main
from actkit.dsl import parse_act, serialize_act
from actkit.errors import ActParseError, ActValidationError, DomainError, RateUndefined, StateSpaceLimit
from actkit.model import (
    Act,
    AttackLeaf,
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
)
from actkit.ranking import rank_countermeasures
from actkit.semantics import collect_rates, compose, export_ctmc_text, parse_ctmc_text, read_gates
from actkit.statics import static_failure, static_probability, sweep_pleaf
from actkit.transient import goal_curve, goal_curves, simulate, simulate_curves, transient_probability

from imc_product import bas_imc, cm_imc, compose_product, compose_whole_tree, gate_imc
from oracles import (
    and_of_ors, coo_export_text, expm_transient, guarded_branch, guarded_or, malformed_act, malformed_specs,
    race_probability, random_act, reverse_children,
)


def race_act(p_a=0.6321205588285577, p_d=0.6321205588285577, p_m=0.6321205588285577):
    # p = 1 - 1/e at t = 1 gives unit rates all around
    return build_act("race", and_gate(
        "top",
        attack("a", p=p_a),
        cm_gate("cm", detect("d", p=p_d), mitigate("m", p=p_m)),
    ))


def test_bas_imc_shape():
    imc = bas_imc(7, 2.5)
    assert imc.n_states == 4
    assert imc.init == 0
    assert imc.markovian == ((1, 2.5, 2),)
    assert imc.interactive == ((0, ("act", 7, "?"), 1), (2, ("succ", 7, "!"), 3))
    assert imc.accepting == frozenset({3})


def test_or_imc_shape():
    imc = gate_imc("or", 0, (1, 2))
    assert imc.n_states == 7  # activation chain, wait, two received states, done
    assert imc.markovian == ()
    emitted = [a for _, a, _ in imc.interactive if a == ("succ", 0, "!")]
    assert len(emitted) == 2


def test_and_imc_shape():
    imc = gate_imc("and", 0, (1, 2))
    # chain of 3, subset lattice of 4, explicit success-emission state
    assert imc.n_states == 8
    emitted = [a for _, a, _ in imc.interactive if a == ("succ", 0, "!")]
    assert len(emitted) == 1


def test_gate_imc_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gate_imc("xor", 0, (1, 2))


def test_cm_imc_shapes():
    assert cm_imc(3, 1.0, 2.0).n_states == 5
    assert len(cm_imc(3, 1.0, 2.0).markovian) == 2
    instant = cm_imc(3, 1.0, None)
    assert instant.n_states == 4
    assert len(instant.markovian) == 1


def test_collect_rates():
    act = race_act()
    leaf_rates, cm_rates = collect_rates(act)
    (aid,) = act.attack_leaves()
    assert leaf_rates[aid] == pytest.approx(1.0, abs=1e-12)
    (cid,) = act.cm_gates()
    assert cm_rates[cid].detect == pytest.approx(1.0, abs=1e-12)
    assert cm_rates[cid].mitigate == pytest.approx(1.0, abs=1e-12)


def test_collect_rates_instant_mitigation():
    act = build_act("i", and_gate(
        "top", attack("a", p=0.5),
        cm_gate("cm", detect("d", p=0.5), mitigate("m", p=1.0)),
    ))
    _, cm_rates = collect_rates(act)
    (cid,) = act.cm_gates()
    assert cm_rates[cid].mitigate is None


def test_collect_rates_probability_one_attack():
    act = build_act("bad", or_gate("top", attack("a", p=1.0), attack("b", p=0.5)))
    with pytest.raises(RateUndefined) as err:
        collect_rates(act)
    assert "'a'" in str(err.value)


def test_single_leaf_chain():
    act = build_act("one", attack("only", p=0.5, t=2.0))
    ctmc = compose(act)
    assert ctmc.n == 2
    assert ctmc.goal == frozenset({1})
    assert ctmc.blocked == frozenset()
    assert ctmc.rates[0, 1] == pytest.approx(math.log(2) / 2.0)


def test_race_chain_structure():
    ctmc = compose(race_act())
    # pending, goal, mitigating, blocked
    assert ctmc.n == 4
    assert len(ctmc.goal) == 1 and len(ctmc.blocked) == 1
    (g,) = ctmc.goal
    (b,) = ctmc.blocked
    assert ctmc.rates[g].count_nonzero() == 0  # absorbing
    assert ctmc.rates[b].count_nonzero() == 0


def test_race_eventual_probability():
    for build in (compose, compose_product):
        ctmc = build(race_act())
        p = transient_probability(ctmc, [200.0], epsilon=1e-9).ys[0]
        assert p == pytest.approx(race_probability(1.0, 1.0, 1.0), abs=1e-6)


def test_methods_agree_on_bundled_model():
    act = load_bundled("mia")
    ts = [0.5, 1.0, 2.0, 5.0]
    for scenario in Scenario:
        direct = transient_probability(compose(act, scenario), ts, 1e-10)
        product = transient_probability(compose_product(act, scenario), ts, 1e-10)
        assert np.allclose(direct.ys, product.ys, atol=1e-9)


def test_matches_matrix_exponential():
    act = race_act(0.3, 0.55, 0.7)
    ts = [0.25, 1.0, 3.0, 10.0]
    for build in (compose, compose_product):
        ctmc = build(act)
        got = transient_probability(ctmc, ts, epsilon=1e-12).ys
        assert np.allclose(got, expm_transient(ctmc, ts), atol=1e-9)


def test_no_cm_scenario_equals_deleted_gates():
    act = load_bundled("mia")
    stripped = remove_cm_gates(act, set(act.cm_gates()))
    ts = [1.0, 4.0]
    a = transient_probability(compose(act, Scenario.NO_CM), ts, 1e-10).ys
    b = transient_probability(compose(stripped, Scenario.FULL), ts, 1e-10).ys
    assert np.allclose(a, b, atol=1e-12)


def test_zero_detection_rate_behaves_like_no_cm():
    act = race_act(p_d=0.0)
    ts = [0.5, 2.0, 8.0]
    with_cm = transient_probability(compose(act), ts, 1e-10).ys
    no_cm = transient_probability(compose(act, Scenario.NO_CM), ts, 1e-10).ys
    assert np.allclose(with_cm, no_cm, atol=1e-12)


def test_child_order_is_irrelevant():
    rng = random.Random(99)
    for _ in range(5):
        act = random_act(rng, max_leaves=4)
        ts = [0.5, 1.5, 4.0]
        for build in (compose, compose_product):
            a = transient_probability(build(act), ts, 1e-10).ys
            b = transient_probability(build(reverse_children(act)), ts, 1e-10).ys
            assert np.allclose(a, b, atol=1e-9)


def test_scenario_ordering_on_bundled_model():
    act = load_bundled("mia")
    ts = [0.5, 1.0, 2.0, 4.0, 8.0]
    curves = {
        sc: transient_probability(compose(act, sc), ts, 1e-10).ys for sc in Scenario
    }
    for lo, mid, hi in zip(curves[Scenario.DETECT_ONLY], curves[Scenario.FULL],
                           curves[Scenario.NO_CM]):
        assert lo <= mid <= hi


def test_absorbing_states_have_no_exits():
    act = load_bundled("mia")
    for scenario in Scenario:
        ctmc = compose(act, scenario)
        for s in ctmc.goal | ctmc.blocked:
            assert ctmc.rates[s].count_nonzero() == 0
        assert len(ctmc.labels) == ctmc.n
        assert ctmc.init == 0


def test_state_cap():
    act = load_bundled("mia")
    with pytest.raises(StateSpaceLimit):
        compose(act, Scenario.FULL, state_cap=5)
    for cap in (0, -3):  # no chain fits, and the error names the cap rather than counting states past it
        with pytest.raises(DomainError, match=f"state cap must be at least 1, got {cap}"):
            compose(act, Scenario.FULL, state_cap=cap)
    # a cap that is not an integer: a string, NaN (which would never fire), a bool, numpy's bool, a fraction
    for cap in ("5", float("nan"), True, np.True_, 5.5, None):
        with pytest.raises(DomainError, match="state cap must be an integer"):
            compose(act, Scenario.FULL, state_cap=cap)
    assert compose(act, Scenario.FULL, state_cap=np.int64(1000)).n == compose(act).n


def test_state_cap_fires_at_the_reference_caps():
    # every cap from 1 up to the first one the whole chain fits in
    fits = []
    for act in (and_of_ors(3), load_bundled("mia")):
        for scenario in Scenario:
            cap, raised = 0, ["capped"]
            while raised[0] is not None:
                cap += 1
                raised = []
                for build in (compose, compose_whole_tree):
                    try:
                        build(act, scenario, state_cap=cap)
                        raised.append(None)
                    except StateSpaceLimit as exc:
                        raised.append(str(exc))
                assert raised[0] == raised[1]
            fits.append(cap)
    assert min(fits) > 1 and max(fits) > 20


def test_export_parse_round_trip():
    never = build_act("never", or_gate("top", attack("a", p=0.0), attack("b", p=0.0)))
    for act in (race_act(), load_bundled("mia"), and_of_ors(3), never):
        for scenario in Scenario:
            ctmc = compose(act, scenario)
            text = export_ctmc_text(ctmc)
            again = parse_ctmc_text(text)
            assert again.n == ctmc.n
            assert again.init == ctmc.init
            assert again.goal == ctmc.goal
            assert again.blocked == ctmc.blocked
            assert again.labels == ctmc.labels
            assert np.allclose(again.rates.toarray(), ctmc.rates.toarray(), atol=0)
            assert export_ctmc_text(again) == text


def test_parse_infers_the_state_count():
    # without #states, n is one more than the highest state a transition names
    ctmc = parse_ctmc_text("# a comment\n#goal 2\n0 2 1.5\n0 1 0.5\n#label 1 two  words\n")
    assert ctmc.n == 3 and ctmc.init == 0 and ctmc.goal == frozenset({2})
    assert ctmc.labels == ("s0", "two  words", "s2")
    assert ctmc.rates.toarray().tolist() == [[0.0, 0.5, 1.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]


def test_chain_arrays_match_the_scipy_matrix_and_the_coo_export():
    # the CSR arrays are what scipy builds from the same lists, and the export keeps the sorted-triple bytes
    rng = random.Random(2026)
    chains = [compose(random_act(rng, max_leaves=8), s) for _ in range(60) for s in Scenario]
    chains += [compose(load_bundled("mia"), s) for s in Scenario]
    chains += [compose(and_of_ors(k)) for k in range(1, 9)]
    for ctmc in chains:
        want = sparse.csr_matrix((ctmc.data.tolist(), ctmc.indices.tolist(), ctmc.indptr.tolist()),
                                 shape=(ctmc.n, ctmc.n))
        assert export_ctmc_text(ctmc) == coo_export_text(ctmc)
        got = ctmc.rates
        assert got is ctmc.rates  # built once, on first read
        assert got.shape == want.shape
        assert got.indices.dtype == got.indptr.dtype == want.indices.dtype == want.indptr.dtype == np.int32
        for field in ("indptr", "indices", "data"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert getattr(got, field).tobytes() == getattr(ctmc, field).tobytes()


def test_chains_compare_and_hash_by_identity():
    mia = load_bundled("mia")
    first, second = compose(mia, Scenario.FULL), compose(mia, Scenario.FULL)
    assert first == first and not first != first
    assert first != second and not first == second
    assert hash(first) == hash(first) != hash(second)
    assert {first, second, first} == {first, second} and len({first, second}) == 2


def test_parse_sums_repeated_transitions_and_keeps_zero_rates():
    # scipy's COO-to-CSR conversion sums a repeated (source, target) pair and keeps an explicit 0.0
    text = "#states 4\n#init 0\n#goal 3\n0 1 2.0\n0 2 0.0\n1 3 1.0\n2 3 0.5\n0 1 1.0\n3 0 4.0\n"
    ctmc = parse_ctmc_text(text)
    assert ctmc.indptr.tolist() == [0, 2, 3, 4, 5]
    assert ctmc.indices.tolist() == [1, 2, 3, 3, 0]
    assert ctmc.data.tolist() == [3.0, 0.0, 1.0, 0.5, 4.0]
    assert ctmc.rates.nnz == 5 and ctmc.rates.has_canonical_format
    exported = export_ctmc_text(ctmc)
    assert exported.endswith("0 1 3.0\n0 2 0.0\n1 3 1.0\n2 3 0.5\n3 0 4.0\n")
    assert exported == coo_export_text(ctmc)
    assert export_ctmc_text(parse_ctmc_text(exported)) == exported
    # the zero rate, the goal's exit and the split rate leave the curve's bits as the plain chain gives them
    plain = parse_ctmc_text("#states 4\n#init 0\n#goal 3\n0 1 3.0\n1 3 1.0\n2 3 0.5\n")
    ts = [0.0, 0.5, 1.0, 2.0, 5.0]
    assert transient_probability(ctmc, ts).ys == transient_probability(plain, ts).ys


class _Unreadable(tuple):
    """Labels that fail the test when they are read."""

    def __getitem__(self, i):
        raise AssertionError("labels read")

    def __iter__(self):
        raise AssertionError("labels read")


def _chain(**changes):
    """A valid two-state chain a -> b at rate 1, whose labels must not be read, with ``changes`` to its fields."""
    fields = dict(n=2, init=0, indptr=np.array([0, 1, 1], np.int32), indices=np.array([1], np.int32),
                  data=np.array([1.0]), goal=frozenset({1}), blocked=frozenset(), labels=_Unreadable(("a", "b")))
    return semantics.Ctmc(**{**fields, **changes})


@pytest.mark.parametrize("changes, rule", [
    (dict(n=0), "state count must be at least 1"),
    (dict(n=2.0), "state count must be an integer"),
    (dict(init=-1), "initial state must be at least 0"),
    (dict(init=2), r"initial state must lie in \[0, 2\)"),
    (dict(goal=frozenset({2})), r"goal state must lie in \[0, 2\)"),
    (dict(goal=frozenset({True})), "goal state must be an integer"),
    (dict(blocked=frozenset({-1})), "blocked state must be at least 0"),
    (dict(blocked=frozenset({5})), r"blocked state must lie in \[0, 2\)"),
    (dict(indptr=np.array([0, 1], np.int32)), "indptr must hold 3 non-decreasing integer offsets"),
    (dict(indptr=np.array([1, 1, 1], np.int32)), "indptr must hold 3 non-decreasing integer offsets"),
    (dict(indptr=np.array([0, 1, 0], np.int32)), "indptr must hold 3 non-decreasing integer offsets"),
    (dict(indptr=np.array([0, 1, 2], np.int32)), "indptr must hold 3 non-decreasing integer offsets"),
    (dict(data=np.array([1.0, 2.0])), "indptr must hold 3 non-decreasing integer offsets"),
    (dict(indptr=np.array([0.0, 1.0, 1.0])), "indptr must hold 3 non-decreasing integer offsets"),
    (dict(indices=np.array([2], np.int32)), r"targets must be integers in \[0, 2\)"),
    (dict(indices=np.array([-1], np.int32)), r"targets must be integers in \[0, 2\)"),
    (dict(indices=np.array([1.0])), r"targets must be integers in \[0, 2\)"),
    (dict(data=np.array([-1.0])), "rates must be finite and non-negative"),
    (dict(data=np.array([math.nan])), "rates must be finite and non-negative"),
    (dict(data=np.array([math.inf])), "rates must be finite and non-negative"),
])
def test_a_chain_outside_its_documented_shape_is_refused(changes, rule):
    # unchecked, such a chain answers (0.0, 0.0) or fails in the solver far from its cause
    with pytest.raises(DomainError, match=rule):
        _chain(**changes)
    _chain()  # in shape, and the check reads no labels


@pytest.mark.parametrize("text, line", [
    ("0 1\n", 1),  # too few fields
    ("#states 2\n0 1 1.0 2\n", 2),  # too many fields
    ("#states\n", 1),
    ("#states 0\n", 1),
    ("#states two\n", 1),
    ("#init\n", 1),
    ("#label\n", 1),
    ("#states 2\n0 5 1.0\n", 2),  # a transition out of range
    ("0 1.5 1.0\n", 1),  # a state that is not an integer
    ("#init -1\n0 1 1.0\n", 1),
    ("#states 2\n#init 7\n", 2),
    ("#states 2\n0 1 1.0\n#goal 1 9\n", 3),
    ("#states 2\n#blocked 2\n", 2),
    ("#states 2\n#label 4 x\n", 2),
    ("0 1 2.0\n#goal 2\n", 2),  # out of range of the inferred count
    ("#states 2\n0 1 -1.0\n", 2),
    ("#states 2\n\n0 1 nan\n", 3),
    ("#states 2\n0 1 inf\n", 2),
    ("#states 2\n0 1 fast\n", 2),
    ("#states 2\n#goal 1\n0 0 3.0\n0 1 1.0\n", 3),  # a self-loop
])
def test_parse_rejects_malformed_chains(text, line):
    with pytest.raises(ActParseError) as exc:
        parse_ctmc_text(text)
    assert (exc.value.code, exc.value.line, exc.value.column) == ("syntax", line, 1)


def test_export_contains_headers():
    text = export_ctmc_text(compose(race_act()))
    lines = text.splitlines()
    assert lines[0] == "#states 4"
    assert lines[1] == "#init 0"
    assert any(line.startswith("#goal ") for line in lines)
    assert any(line.startswith("#label 0 ") for line in lines)


def _assert_same_chain(act):
    for scenario in Scenario:
        assert export_ctmc_text(compose(act, scenario)) == export_ctmc_text(compose_whole_tree(act, scenario))


def _guarded(i):
    return and_gate(f"g{i}", attack(f"x{i}", p=0.4), cm_gate(f"cm{i}", detect(f"d{i}", p=0.5), mitigate(f"m{i}", p=0.6)))


def _nested_guards(depth, name="n"):
    """Spec of ``AND(OR(next, a), CM)`` per level, with zero-rate attack and detection events and p = 1 mitigations."""
    spec = attack(f"{name}core", p=0.4)
    for i in range(depth):
        side = or_gate(f"{name}o{i}", spec, attack(f"{name}a{i}", p=0.0 if i == 1 else 0.1 * (i + 1)))
        cm = cm_gate(f"{name}cm{i}", detect(f"{name}d{i}", p=0.0 if i == 2 else 0.5),
                     mitigate(f"{name}m{i}", p=1.0 if i % 2 else 0.6))
        spec = and_gate(f"{name}{i}", side, cm)
    return spec


def test_chain_matches_whole_tree_reference():
    # once both guards win, "o" is decided and so is "c", which closes "z"
    nested = build_act("nested", or_gate(
        "top", and_gate("c", or_gate("o", _guarded(1), _guarded(2)), attack("z", p=0.3)), attack("w", p=0.2)))
    deep = build_act("deep", _nested_guards(5))
    wide = build_act("wide", or_gate("top", _nested_guards(3, "x"), _nested_guards(4, "y"), attack("z", p=0.2)))
    rng = random.Random(31)
    # below two levels, a won guard leaves only a zero-rate leaf under the root: the state is stranded
    stranded = build_act("stranded", _nested_guards(2))
    models = [load_bundled("mia"), nested, deep, reverse_children(deep), wide, stranded, guarded_or(6)]
    models += [and_of_ors(k) for k in range(1, 8)]  # k = 7 has 256 states
    for _ in range(200):
        act = random_act(rng, max_leaves=6)
        models += [act, reverse_children(act)]
    for act in models:
        _assert_same_chain(act)


def test_shared_tops_keep_their_bytes():
    # a and the inner OR's leaves climb to one top: to the goal at the root, or
    # to the outer OR under a second AND child; rates are added in leaf order
    def guard():
        return cm_gate("cm", detect("d", p=0.3), mitigate("m", p=0.6))

    def nested():
        return or_gate("o", attack("a", p=0.2), or_gate("i", attack("b", p=0.45), attack("c", p=0.7)))

    for act in (build_act("at the root", and_gate("top", nested(), guard())),
                build_act("below the root", and_gate("top", nested(), attack("x", p=0.35), guard()))):
        leaf_rates, cm_rates = collect_rates(act)
        assert len(set(leaf_rates.values())) == len(leaf_rates) and cm_rates
        _assert_same_chain(act)


def test_each_climb_keeps_its_bytes():
    # a climb reads no count up to its precomputed top; past that, one count per parent it passes

    # x1 passes its one-child guarded AND without a count and stops at the top AND
    one_child = build_act("one-child guard", and_gate(
        "top", _guarded(1), or_gate("o", attack("a", p=0.3), attack("b", p=0.5))))
    # g1 turning D passes two ANDs and stops at the OR, unless g2 already has: then it blocks the root
    ands_to_or = build_act("ands to an OR", or_gate(
        "top", and_gate("a1", and_gate("a2", _guarded(1), attack("y", p=0.3)), attack("z", p=0.2)), _guarded(2)))
    # x or y, the last of c, passes the count-dependent AND c, then both ORs, and stops at the top AND unless w is done
    last_child = build_act("last child", and_gate(
        "top", or_gate("o2", or_gate("o1", and_gate("c", attack("x", p=0.3), attack("y", p=0.4)),
                                     attack("u", p=0.2)), attack("v", p=0.25)), attack("w", p=0.35),
        cm_gate("cm", detect("d", p=0.45), mitigate("m", p=0.65))))
    # leaves declared out of tree order, so events interleave the subtrees: once y1 and y2 are done, x1, x2
    # and x3 all reach the goal, x1 and x3 from the top o1, and their rates add up in event order
    interleaved = parse_act(
        'act "interleaved" { root top; top = OR(a1, a2); a1 = AND(o1, y1, cm); x1 = ATTACK(p=0.15); '
        'x2 = ATTACK(p=0.45); x3 = ATTACK(p=0.6); y1 = ATTACK(p=0.5); y2 = ATTACK(p=0.3); o1 = OR(x1, x3); '
        'a2 = AND(x2, y2); cm = CM(d, m); d = DETECT(p=0.35); m = MITIGATE(p=0.7); }')
    for act in (one_child, ands_to_or, last_child, interleaved):
        _assert_same_chain(act)
        _assert_same_chain(reverse_children(act))


def test_a_deep_chain_of_one_child_guards_keeps_its_bytes():
    # 300 one-child guarded ANDs: the leaf's climb and every guard's reach the root without reading a count
    spec = attack("core", p=0.4)
    for i in range(300):
        spec = and_gate(f"g{i}", spec, cm_gate(f"cm{i}", detect(f"d{i}", p=0.5),
                                               mitigate(f"m{i}", p=0.6 if i % 100 == 0 else 1.0)))
    act = build_act("deep guards", spec)
    assert compose(act).n == 2 ** 3 + 2  # the three guards with a mitigation phase, the goal and blocked
    _assert_same_chain(act)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
def test_chain_matches_whole_tree_reference_property(seed, max_leaves, data):
    act = random_act(random.Random(seed), max_leaves=max_leaves, max_cms=3)
    nodes = list(act.nodes)
    events = [nid for nid, node in enumerate(nodes) if isinstance(node.kind, (AttackLeaf, DetectLeaf, MitigateLeaf))]
    # an event with probability 0 has rate 0 and stays pending for good
    for nid in data.draw(st.lists(st.sampled_from(events), max_size=2)):
        kind = nodes[nid].kind
        nodes[nid] = dataclasses.replace(nodes[nid], kind=type(kind)(dataclasses.replace(kind.timing, p=0.0)))
    _assert_same_chain(dataclasses.replace(act, nodes=tuple(nodes)))


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
def test_lumped_chain_keeps_the_product_chains_curve(seed, max_leaves, data):
    # decided subtrees in canonical form: never more states than the product of automata, and the same curve
    act = random_act(random.Random(seed), max_leaves=max_leaves, max_cms=3)
    nodes = list(act.nodes)
    events = [nid for nid, node in enumerate(nodes) if isinstance(node.kind, (AttackLeaf, DetectLeaf, MitigateLeaf))]
    mitigations = [nid for nid in events if isinstance(nodes[nid].kind, MitigateLeaf)]
    # probability 0 is a zero rate; a mitigation with probability 1 is instantaneous
    for p, pool in ((0.0, events), (1.0, mitigations)):
        for nid in data.draw(st.lists(st.sampled_from(pool), max_size=2)) if pool else ():
            kind = nodes[nid].kind
            nodes[nid] = dataclasses.replace(nodes[nid], kind=type(kind)(dataclasses.replace(kind.timing, p=p)))
    act = dataclasses.replace(act, nodes=tuple(nodes))
    ts, eps = [0.0, 0.25, 1.0, 3.0, 10.0], 1e-10
    for scenario in Scenario:
        lumped, product = compose(act, scenario), compose_product(act, scenario)
        assert lumped.n <= product.n
        got = np.asarray(transient_probability(lumped, ts, eps).ys)
        want = np.asarray(transient_probability(product, ts, eps).ys)
        assert np.all(np.abs(got - want) <= 2.0 * eps)


def test_labels_read_as_the_tuple_they_replace():
    # compose formats its labels when they are first read; the reference holds a plain tuple
    cases = [(load_bundled("mia"), scenario) for scenario in Scenario]
    cases.append((build_act("stranded", _nested_guards(2)), Scenario.FULL))  # a zero-rate leaf strands a state
    for act, scenario in cases:
        labels, want = compose(act, scenario).labels, compose_whole_tree(act, scenario).labels
        assert isinstance(want, tuple)
        assert pickle.loads(pickle.dumps(labels)) == want  # before and after the first read
        assert len(labels) == len(want)
        assert labels[0] == want[0] and labels[-1] == want[-1]
        assert labels[1:3] == want[1:3] and labels[::-1] == want[::-1]
        assert list(labels) == list(want)
        assert labels == want and want == labels and not labels != want and not want != labels
        assert labels != want[:-1] and want[:-1] != labels
        assert pickle.loads(pickle.dumps(labels)) == want
    assert labels[-1] == "blocked" and labels.count("blocked") == 1


def test_and_of_ors_chain_has_two_to_the_k_plus_one_states():
    # each OR pending or succeeded, the countermeasure detecting or mitigating; all ORs succeeded is the goal, plus blocked
    for k in range(1, 13):
        assert compose(and_of_ors(k)).n == 2 ** (k + 1)


def test_view_composes_the_branch_under_its_root():
    def nested(i):
        return and_gate(f"n{i}", or_gate(f"o{i}", _guarded(i), attack(f"y{i}", p=0.3)),
                        cm_gate(f"ncm{i}", detect(f"nd{i}", p=0.2), mitigate(f"nm{i}", p=0.7)))

    branches = [guarded_branch(0), nested(1), guarded_branch(2), nested(3)]
    act = build_act("wide", or_gate("top", *branches, attack("z", p=0.1)))
    # each view keeps the whole node table; compose reads only the tree under its root
    for gate, spec in zip(act.children(act.root), branches):
        alone = build_act("alone", spec)
        for scenario in Scenario:
            view = compose(Act(act.title, gate, act.nodes), scenario)
            assert export_ctmc_text(view) == export_ctmc_text(compose(alone, scenario))


def test_scenario_laws_match_the_rewritten_model():
    # every analysis reads a scenario per countermeasure; apply_scenario's
    # rewrite is the reference, and the two must agree bit for bit
    rng = random.Random(20)
    acts = [load_bundled("mia")]
    for _ in range(40):
        act = random_act(rng, max_leaves=8, max_cms=3)
        acts += [act, reverse_children(act)]
    ts = [0.0, 0.5, 1.0, 3.0]
    analyses = (
        lambda act, s: static_probability(act, s),
        lambda act, s: static_failure(act, s),
        lambda act, s: goal_curve(act, s, ts).ys,
        lambda act, s: simulate(act, s, ts, 500, 7).ys,
        lambda act, s: export_ctmc_text(compose(act, s)),
    )
    for act in acts:
        for scenario in Scenario:
            rewritten = apply_scenario(act, scenario)
            for f in analyses:
                assert f(act, scenario) == f(rewritten, Scenario.FULL)


def _entry_points(act, scenario):
    """Every analysis of ``act`` under ``scenario``, as calls; ranking always reads full."""
    ts = [0.0, 1.0]
    # a simulation of several scenarios raises its first curve's scenario's error
    curves = [(scenario, 0.5)] + [(s, 0.5) for s in Scenario if s is not scenario]
    return [lambda: compose(act, scenario), lambda: goal_curve(act, scenario, ts),
            lambda: goal_curves(act, ts, 1e-9, [(scenario, None)], list(act.cm_gates())),
            lambda: simulate(act, scenario, ts, 10, 1), lambda: simulate_curves(act, ts, 10, 1, curves),
            lambda: static_probability(act, scenario), lambda: static_failure(act, scenario),
            lambda: sweep_pleaf(act, [0.1, 0.5], [scenario]),
            *([lambda: rank_countermeasures(act, 1.0)] if scenario is Scenario.FULL else [])]


def _rejections(act, scenario):
    """The single diagnostic each entry point raises, as a set of (code, node)."""
    raised = set()
    for solve in _entry_points(act, scenario):
        with pytest.raises(ActValidationError) as exc:
            solve()
        (diagnostic,) = exc.value.diagnostics
        raised.add((diagnostic.code, diagnostic.node))
    return raised


def test_compose_rejects_a_gate_without_an_attack_side_child():
    (only_cm, _), *acts = [(_assemble("bad", spec), want) for spec, want in malformed_specs()]
    assert [d.code for d in validate_act(only_cm)] == ["CmPlacement"]
    # the gate table holds no scenario, so no-cm reads the lone countermeasure as misplaced too
    for scenario in Scenario:
        assert _rejections(only_cm, scenario) == {("CmPlacement", "g")}
    # every other shape no evaluator can read fails the same way under every scenario
    leaf = Node("a", "a", AttackLeaf(LeafTiming(p=0.5)))
    acts += [  # a leaf shared by two ORs, the cycle root -> b -> root, and ids outside the node table
        (Act("shared", 0, (Node("top", "top", OrGate((1, 2))), Node("o1", "o1", OrGate((3,))),
                           Node("o2", "o2", OrGate((3,))), leaf)), ("SharedSubtree", "a")),
        (Act("cycle", 0, (Node("root", "root", OrGate((1,))), Node("b", "b", OrGate((0,))))),
         ("CycleDetected", "b")),
        (Act("dangling", 0, (Node("top", "top", OrGate((1, -1))), leaf)), ("DanglingReference", "top")),
        (Act("dangling", 0, (Node("top", "top", OrGate((1, 7))), leaf)), ("DanglingReference", "top")),
        (Act("no root", 3, (leaf,)), ("RootMissing", "3")),
        (Act("no root", -1, (leaf,)), ("RootMissing", "-1")),
        # ids that are not integers, although 1.0 and 0.0 would name a node
        (Act("float id", 0, (Node("top", "top", OrGate((1.0,))), leaf)), ("DanglingReference", "top")),
        (Act("text id", 0, (Node("top", "top", OrGate(("1",))), leaf)), ("DanglingReference", "top")),
        (Act("float root", 0.0, (leaf,)), ("RootMissing", "0.0")),
    ]
    for act, want in acts:
        assert want in [(d.code, d.node) for d in validate_act(act)]
        for scenario in Scenario:
            assert _rejections(act, scenario) == {want}


def test_every_entry_point_refuses_a_repeated_identifier():
    # the simulator keys each event's stream on its identifier, so two leaves with one identifier would draw one
    # stream; the later node in the table is named, whichever the walk reaches first
    leaf = AttackLeaf(LeafTiming(p=0.5, t=1.0))
    for order in ((1, 2), (2, 1)):
        act = Act("repeated", 0, (Node("top", "top", OrGate(order)), Node("a", "a", leaf), Node("a", "b", leaf)))
        assert [(d.code, d.node) for d in validate_act(act)] == [("DuplicateIdentifier", "b")]
        for scenario in Scenario:
            assert _rejections(act, scenario) == {("DuplicateIdentifier", "b")}


def test_a_leaf_with_a_horizon_and_a_rate_is_refused():
    # text keeps such a leaf's rate alone, so a round trip would lose the horizon that --pleaf reads
    both = LeafTiming(p=0.5, t=2.0, lam=1.0)
    guarded = build_act("guarded", and_gate("top", attack("a", p=0.5),
                                            cm_gate("cm", detect("d", p=0.5), mitigate("m", p=0.5))))
    acts = [(Act("both", 0, (Node("a", "a", AttackLeaf(both)),)), "a"),
            (dataclasses.replace(guarded, nodes=(*guarded.nodes[:4], Node("m", "m", MitigateLeaf(both)))), "m")]
    for act, name in acts:
        assert [(d.code, d.node, d.message) for d in validate_act(act)] == [
            ("LeafParam", name, "leaf carries both a horizon and a rate")]
        for scenario in Scenario:
            assert _rejections(act, scenario) == {("LeafParam", name)}


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_the_gate_table_reads_exactly_what_validate_act_accepts(seed, malformed):
    rng = random.Random(seed)
    act = malformed_act(rng) if malformed else random_act(rng, max_leaves=8, max_cms=2)
    found = [(d.code, d.node) for d in validate_act(act)]
    assert "OrphanNode" not in [code for code, _ in found]  # every node is reachable from the root
    try:
        read_gates(act)
    except ActValidationError as exc:
        (diagnostic,) = exc.diagnostics
        want = (diagnostic.code, diagnostic.node)
        assert want in found
        for scenario in Scenario:
            assert _rejections(act, scenario) == {want}
    else:
        assert found == []


def test_every_entry_point_rejects_a_scenario_name():
    mia = load_bundled("mia")
    for name in ("full", "no-cm"):
        # apply_scenario is the reference every analysis is held to
        for solve in [*_entry_points(mia, name), lambda: apply_scenario(mia, name)]:
            with pytest.raises(DomainError, match="must be a Scenario"):
                solve()


def test_each_analysis_walks_the_tree_once_per_scenario(monkeypatch, tmp_path):
    # every evaluator reads the gate table, which is one walk of the tree, once per call
    walks = []
    postorder = Act.postorder

    def counted(act):
        walks.append(act)
        return postorder(act)

    mia = load_bundled("mia")
    curves = [(s, p) for s in Scenario for p in (0.05, 0.1, 0.25)]
    path = tmp_path / "mia.act"
    path.write_text(serialize_act(mia), encoding="utf-8")
    monkeypatch.setattr(Act, "postorder", counted)
    for analysis, read in ((lambda: sweep_pleaf(mia, np.linspace(0.0, 1.0, 101)), [mia]),
                           (lambda: goal_curve(mia, Scenario.FULL, np.linspace(0.0, 10.0, 101)), [mia]),
                           (lambda: rank_countermeasures(mia, 2.0), [mia]),
                           (lambda: compose(mia), [mia]),
                           (lambda: simulate(mia, Scenario.FULL, [0.5, 1.0, 2.0], 1000, 1), [mia]),
                           (lambda: simulate_curves(mia, [0.5, 1.0, 2.0], 1000, 1, curves), [mia]),
                           # one table for every scenario and --pleaf value
                           (lambda: main(["simulate", "--model", str(path), "--runs", "1000",
                                          "--out", str(tmp_path / "out")]), [mia]),
                           (lambda: main(["dynamic", "--model", str(path), "--out", str(tmp_path / "out")]),
                            [mia])):
        walks.clear()
        analysis()
        assert walks == read


def test_compose_reads_the_gate_table_once_and_evaluates_no_gate_per_state(monkeypatch):
    # the per-node tables are laid down from the gate table; evaluating a gate in a state would read its children
    tables, reads = [], Counter()

    class Side(tuple):
        """A gate's attack-side children, counting every read of them."""

        def __new__(cls, gate, children):
            side = super().__new__(cls, children)
            side.gate = gate
            return side

        def __iter__(self):
            reads[self.gate] += 1
            return tuple.__iter__(self)

        def __getitem__(self, i):
            reads[self.gate] += 1
            return tuple.__getitem__(self, i)

        def __contains__(self, nid):
            reads[self.gate] += 1
            return tuple.__contains__(self, nid)

    read = semantics.read_gates

    def counted(act):
        tables.append(act)
        return [gate._replace(side=Side(gate.node, gate.side)) for gate in read(act)]

    monkeypatch.setattr(semantics, "read_gates", counted)
    per_gate = []
    for k in (1, 10):
        tables.clear()
        reads.clear()
        act = and_of_ors(k)
        states = compose(act).n
        assert tables == [act]
        assert len(reads) == k + 1  # every gate is read
        per_gate.append((states, sorted(set(reads.values()))))
    (few, small), (many, large) = per_gate
    assert few < 10 and many > 1000
    assert small == large  # as many reads of each gate for a handful of states as for a thousand
