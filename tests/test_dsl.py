import pytest

from actkit.dsl import load_act, parse_act, serialize_act
from actkit.errors import ActParseError, ActValidationError, MissingParameter
from actkit.model import (
    AndGate,
    AttackLeaf,
    LeafTiming,
    Node,
    Act,
    attack,
    build_act,
    or_gate,
    validate_act,
)

MINIMAL = """
act "Demo" {
  root top;
  top = AND(break_in, alarm);
  break_in "break in" = ATTACK(p=0.8);
  alarm = CM(sensor, guard);
  sensor = DETECT(p=0.6);
  guard = MITIGATE(p=0.5);
}
"""


def test_parse_minimal():
    act = parse_act(MINIMAL)
    assert act.title == "Demo"
    assert validate_act(act) == []
    assert isinstance(act.kind(act.root), AndGate)
    names = {n.ident: n.name for n in act.nodes}
    assert names["break_in"] == "break in"
    assert names["sensor"] == "sensor"
    timing = act.nodes[[n.ident for n in act.nodes].index("break_in")].kind.timing
    assert timing.p == 0.8
    assert timing.t == 1.0  # horizon defaults to one hour
    assert timing.lam is None


def test_parse_explicit_t_and_lambda():
    act = parse_act("""
    act "T" {
      root top;
      top = OR(a, b);
      a = ATTACK(p=0.5, t=2.5);
      b = ATTACK(p=0.5, lambda=0.25);
    }
    """)
    by_ident = {n.ident: n for n in act.nodes}
    assert by_ident["a"].kind.timing.t == 2.5
    b = by_ident["b"].kind.timing
    assert b.lam == 0.25 and b.t is None
    assert b.rate() == 0.25


def test_parse_forward_and_backward_references():
    act = parse_act("""
    act "F" {
      root g;
      a = ATTACK(p=0.1);
      g = OR(a, b);
      b = ATTACK(p=0.2);
    }
    """)
    assert validate_act(act) == []
    assert {act.nodes[c].ident for c in act.children(act.root)} == {"a", "b"}


def test_parse_comments_and_whitespace():
    act = parse_act(
        'act "C" { # title\n'
        '  root g; # the goal\n'
        '# full-line comment\n'
        '  g=OR(a,b);a=ATTACK(p=0.1);b=ATTACK(p=0.2);\n'
        '}\n'
    )
    assert len(act.nodes) == 3


def test_duplicate_definition():
    with pytest.raises(ActParseError) as err:
        parse_act('act "D" { root a; a = ATTACK(p=0.1); a = ATTACK(p=0.2); }')
    assert err.value.code == "duplicate-definition"


def test_undefined_reference():
    with pytest.raises(ActParseError) as err:
        parse_act('act "U" { root g; g = OR(a, ghost); a = ATTACK(p=0.1); }')
    assert err.value.code == "undefined-reference"
    assert "ghost" in err.value.message


def test_undefined_root():
    with pytest.raises(ActParseError) as err:
        parse_act('act "U" { root ghost; a = ATTACK(p=0.1); }')
    assert err.value.code == "undefined-reference"


def test_syntax_error_position():
    with pytest.raises(ActParseError) as err:
        parse_act('act "S" {\n  root g\n  g = ATTACK(p=0.1);\n}')
    assert err.value.code == "syntax"
    assert err.value.line == 3  # the missing ';' is noticed at the next token
    assert "expected" in err.value.message


def test_unterminated_string():
    with pytest.raises(ActParseError):
        parse_act('act "oops { root a; a = ATTACK(p=0.1); }')


def test_bad_probability_is_validation_not_parse():
    with pytest.raises(ActValidationError):
        parse_act('act "V" { root a; a = ATTACK(p=3.0); }')


def test_cm_arity_is_fixed():
    with pytest.raises(ActParseError):
        parse_act('act "A" { root g; g = AND(a, c); a = ATTACK(p=0.1); '
                  'c = CM(d, m, x); d = DETECT(p=0.5); m = MITIGATE(p=0.5); '
                  'x = MITIGATE(p=0.5); }')


def test_round_trip_is_canonical():
    act = parse_act(MINIMAL)
    text = serialize_act(act)
    again = parse_act(text)
    assert serialize_act(again) == text
    assert again.title == act.title
    assert [n.ident for n in again.nodes] == [n.ident for n in act.nodes]


def test_round_trip_preserves_odd_names():
    act = build_act("Weird \"quoted\" \\ title", or_gate(
        "gate with spaces & symbols!",
        attack("a\"b\\c", p=0.125),
        attack("plain", p=0.5, t=3.0),
    ))
    again = parse_act(serialize_act(act))
    assert again.title == act.title
    assert [n.name for n in again.nodes] == [n.name for n in act.nodes]
    assert serialize_act(again) == serialize_act(act)


def test_serialize_name_only_when_distinct():
    act = parse_act(MINIMAL)
    text = serialize_act(act)
    assert 'break_in "break in" = ATTACK' in text
    assert 'sensor = DETECT' in text


def test_serialize_rejects_rate_only_leaves():
    act = Act("R", 0, (Node("a", "a", AttackLeaf(LeafTiming(lam=2.0))),))
    with pytest.raises(MissingParameter):
        serialize_act(act)


def test_load_act(tmp_path):
    path = tmp_path / "m.act"
    path.write_text(MINIMAL, encoding="utf-8")
    act = load_act(path)
    assert act.title == "Demo"


def test_structural_errors_surface_as_validation():
    with pytest.raises(ActValidationError) as err:
        parse_act('act "B" { root g; g = OR(c); c = CM(d, m); '
                  'd = DETECT(p=0.5); m = MITIGATE(p=0.5); }')
    assert any(d.code == "CmPlacement" for d in err.value.diagnostics)
