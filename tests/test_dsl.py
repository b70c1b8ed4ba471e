import random

import pytest
from hypothesis import given, settings, strategies as st

from actkit.dsl import _line_column, _tokenize, load_act, parse_act, serialize_act
from actkit.errors import ActParseError, ActValidationError, MissingParameter
from actkit.model import (
    AndGate,
    AttackLeaf,
    DetectLeaf,
    LeafTiming,
    MitigateLeaf,
    Node,
    Act,
    and_gate,
    attack,
    build_act,
    cm_gate,
    detect,
    mitigate,
    or_gate,
    validate_act,
)

from oracles import random_act, reference_tokenize

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
    assert isinstance(act.nodes[act.root].kind, AndGate)
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
    cases = [
        # the missing ';' is noticed at the next token
        ('act "S" {\n  root g\n  g = ATTACK(p=0.1);\n}', 3, 3, "expected ';', found 'g'"),
        ('act "two\nline\ntitle" {\n  root g\n  g = ATTACK(p=0.1);\n}', 5, 3, "expected ';', found 'g'"),
        ('act "a\nb" x', 2, 4, "expected '{', found 'x'"),
        ('act "N" { root a; a = ATTACK(p=1.2.3); }', 1, 32, "bad number '1.2.3'"),
        ('act "S" { root a; a = ATTACK(p=0.1) @ }', 1, 37, "unexpected character '@'"),
        ('act "K" { root a;\n  a = ATTACK(p=0.1, rate=2); }', 2, 21, "expected 't' or 'lambda', found 'rate'"),
        ('act "K" { root a; a = XOR(b, c); }', 1, 23,
         "expected one of AND, OR, CM, ATTACK, DETECT, MITIGATE, found 'XOR'"),
        # a model without definitions is reported at its root name
        ('act "E" {\n  root a;\n}', 2, 8, "a model needs at least one definition"),
    ]
    for text, line, column, message in cases:
        with pytest.raises(ActParseError) as err:
            parse_act(text)
        assert err.value.code == "syntax"
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_unterminated_string():
    cases = [
        ('act "oops { root a; a = ATTACK(p=0.1); }', 1, 5),
        # an escaped quote does not close the string
        ('act "T" {\n  root a;\n  a "name\\" = ATTACK(p=0.1); }', 3, 5),
        ('act "T" { root a; # "\n  a = ATTACK(p=0.1); } "', 2, 24),
    ]
    for text, line, column in cases:
        with pytest.raises(ActParseError) as err:
            parse_act(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, "unterminated string")


# pieces of model text, well formed or not: CRLF and tab layout, comments, strings over several lines
# with both escapes, a quote that opens a string nothing closes, good and bad numbers, and characters
# no token starts with, ASCII or not
_PIECES = ["act", "root", "ATTACK", "p", "x_1", " ", "\t", "\n", "\r\n", "\r", "{", "}", "(", ")", ";", ",",
           "=", "0.5", "-1.5e-3", "+.5", "1.2.3", "1e", "..", '"', '"name"', '"two\nlines"', '"q \\" \\\\ \\x"',
           '"end\\\\"', "# note\n", "#", "é", "→", "\U0001d6cc", "@", "\\"]
_EDGES = [
    'act "CRLF" {\r\n  root a;\r\n  a = ATTACK(p=0.5)\r\n}\r\n',
    'act\t"tabs"\t{\troot a;\n\ta =\tATTACK(p=1.2.3); }',
    'act "over\nthree \\"quoted\\"\nlines \\\\" {\n  root a; @',
    'act "é" {\n  root a;\n  a "naïve → done" = ATTACK(p=0.5); é }',
    'act "T" {\r\n  root a;\r\n  a "cut \\" off = ATTACK(p=0.1); }',
    "act \"x\" { # comment with \"\n  root a;\t1.2.3",
]


def _scan(tokenize, text):
    """``tokenize``'s tokens of ``text`` as (kind, value, line, column), or its error's line, column and message."""
    try:
        return tokenize(text)
    except ActParseError as exc:
        return ("error", exc.line, exc.column, exc.message)


def _one_scan(text):
    return [(kind, value, *_line_column(text, offset)) for kind, value, offset in _tokenize(text)]


@settings(deadline=None, max_examples=500)
@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join), st.text(max_size=40),
                 st.sampled_from(_EDGES)))
def test_one_scan_finds_the_tokens_and_errors_of_the_reference(text):
    assert _scan(_one_scan, text) == _scan(reference_tokenize, text)


@pytest.mark.parametrize("text", _EDGES)
def test_parse_errors_sit_where_the_reference_scan_puts_them(text):
    # every edge case fails to parse, at a token's or a gap's position
    with pytest.raises(ActParseError) as err:
        parse_act(text)
    tokens = _scan(reference_tokenize, text)
    if tokens[0] == "error":
        assert (err.value.line, err.value.column, err.value.message) == tokens[1:]
    else:
        assert (err.value.line, err.value.column) in {(line, column) for _, _, line, column in tokens}


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


# titles and display names with quotes, backslashes, comments, line breaks
# and non-ASCII text, which the printer must escape and the lexer undo
_ODD_TEXT = st.text(alphabet='"\\#\n\r\t ;{}=(),aZ_09.-é中\U0001F600', max_size=12) | st.text(max_size=12)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), _ODD_TEXT, st.data())
def test_parse_inverts_serialize(seed, title, data):
    act = random_act(random.Random(seed), max_leaves=8)
    nodes = []
    for node in act.nodes:
        kind = node.kind
        if isinstance(kind, (AttackLeaf, DetectLeaf, MitigateLeaf)) and data.draw(st.booleans()):
            lam = data.draw(st.floats(0.0, 1e6))
            kind = type(kind)(LeafTiming(p=kind.timing.p, lam=lam))
        nodes.append(Node(node.ident, data.draw(_ODD_TEXT | st.just(node.ident)), kind))
    act = Act(title, act.root, tuple(nodes))
    assert parse_act(serialize_act(act)) == act


def test_builder_rate_leaves_round_trip():
    # a leaf built with both p and lam carries no horizon, as in the text
    act = build_act("L", and_gate(
        "g",
        or_gate("o", attack("x", p=0.5, lam=2.0), attack("y", p=0.1)),
        cm_gate("cm", detect("d", p=0.5, lam=0.5), mitigate("m", p=0.5, t=2.0, lam=0.25)),
    ))
    assert all(n.kind.timing.t is None for n in act.nodes if n.ident in ("x", "d", "m"))
    assert parse_act(serialize_act(act)) == act


def test_serialize_name_only_when_distinct():
    act = parse_act(MINIMAL)
    text = serialize_act(act)
    assert 'break_in "break in" = ATTACK' in text
    assert 'sensor = DETECT' in text


def test_serialize_rejects_rate_only_leaves():
    act = Act("R", 0, (Node("a", "a", AttackLeaf(LeafTiming(lam=2.0))),))
    with pytest.raises(MissingParameter):
        serialize_act(act)


def test_serialize_rejects_leaves_without_a_horizon_or_a_rate():
    # text would read such a leaf with a 1-hour horizon, which gives it a rate it does not have
    act = build_act("H", or_gate("top", attack("leaf a", p=0.5, t=None), attack("b", p=0.5)))
    with pytest.raises(MissingParameter, match="leaf 'leaf a'"):
        serialize_act(act)


def test_load_act(tmp_path):
    path = tmp_path / "m.act"
    path.write_text(MINIMAL, encoding="utf-8")
    act = load_act(path)
    assert act.title == "Demo"


def test_load_act_reads_newlines_as_text_mode_does(tmp_path):
    # a title may span lines: CRLF and a lone CR both read as one newline
    path = tmp_path / "m.act"
    path.write_bytes(b'act "two\r\nlines\rthree" {\r\n  root a;\r  a = ATTACK(p=0.5); }\r\n')
    assert load_act(path) == parse_act('act "two\nlines\nthree" {\n  root a;\n  a = ATTACK(p=0.5); }\n')


@pytest.mark.parametrize("data, line, column", [
    (b'act "x" { root a; a = ATTACK(p=0.5); }\n\xff\n', 2, 1),
    # columns count characters, not bytes, and a cut-off sequence is caught at its first byte
    (b'act "x" {\r\n root a; a = ATTACK(p=0.5); } # \xc3\xa9 \xe2\x82', 2, 35),
    (b'\x80', 1, 1),
])
def test_load_act_rejects_bytes_that_are_not_utf8(tmp_path, data, line, column):
    path = tmp_path / "bad.act"
    path.write_bytes(data)
    with pytest.raises(ActParseError) as err:
        load_act(path)
    assert (err.value.code, err.value.line, err.value.column) == ("syntax", line, column)
    assert "not UTF-8" in err.value.message


def test_structural_errors_surface_as_validation():
    with pytest.raises(ActValidationError) as err:
        parse_act('act "B" { root g; g = OR(c); c = CM(d, m); '
                  'd = DETECT(p=0.5); m = MITIGATE(p=0.5); }')
    assert any(d.code == "CmPlacement" for d in err.value.diagnostics)
