"""Text format for act models.

Grammar::

    file   := 'act' STRING '{' 'root' IDENT ';' (def)+ '}'
    def    := IDENT STRING? '=' expr ';'
    expr   := 'AND' '(' idlist ')' | 'OR' '(' idlist ')'
            | 'CM' '(' IDENT ',' IDENT ')'
            | 'ATTACK' params | 'DETECT' params | 'MITIGATE' params
    params := '(' 'p' '=' NUMBER (',' 't' '=' NUMBER | ',' 'lambda' '=' NUMBER)? ')'
    idlist := IDENT (',' IDENT)*

Lexical rules: identifiers are ASCII, ``[A-Za-z_][A-Za-z0-9_]*``. A STRING
is double-quoted, may span lines, and its only escapes are ``\\"`` and
``\\\\``; any other backslash is kept as written. A NUMBER is a Python float
with an optional sign and exponent, such as ``-1.5e-3``. ``#`` starts a
comment running to the end of the line, and spaces, tabs, carriage returns
and newlines separate tokens. The optional quoted string after an
identifier is the node's display name (default: the identifier itself).
Definitions may reference identifiers defined later in the file.
"""

from __future__ import annotations

import os
import re

from .errors import ActParseError, MissingParameter
from .model import (_LEAVES, Act, AndGate, AttackLeaf, CmGate, DetectLeaf, LeafTiming, MitigateLeaf, OrGate, _checked,
                    _node, _timing)

# one keyword per node kind, shared by the parser and serialize_act
_KINDS = {"AND": AndGate, "OR": OrGate, "CM": CmGate,
          "ATTACK": AttackLeaf, "DETECT": DetectLeaf, "MITIGATE": MitigateLeaf}
_KEYWORDS = {cls: word for word, cls in _KINDS.items()}
# a leaf's optional second parameter: its name in the text, and its keyword of _timing
_PARAMS = {"t": "t", "lambda": "lam"}

# One match per token: the blanks before it, then one group per token kind.
# A comment is a 'skip' token, 'eof' matches at the end of the text and 'bad'
# takes the character where no token starts, so every match ends where the
# next one starts. Inside a string a backslash always takes the next
# character with it, so an escaped quote never closes the string and a string
# cut off by the end of the text does not match. A sign needs a digit or '.'
# after it and an exponent needs digits; float() then rejects words like 1.2.3.
_TOKEN = re.compile(r"""
    [ \t\r\n]*
    (?: (?P<skip>\#[^\n]*)
      | (?P<punct>[{}();,=])
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>[+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?)
      | (?P<eof>\Z)
      | (?P<bad>.))
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r'\\(["\\])')
_WHAT = {"ident": "an identifier", "string": "a quoted string", "number": "a number",
         "eof": "end of input"}


# A token is a plain (kind, value, offset) tuple, which is cheaper to make than
# a named one: kind is 'ident', 'string', 'number', 'punct' or 'eof', and
# offset is where it starts in the text, which ``_line_column`` turns into a
# position for an error.
_Token = tuple[str, str, int]


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``text[offset]``; a tab or a carriage return is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text`` in one scan, ending with 'eof'; text no token matches raises ActParseError."""
    tokens: list[_Token] = []
    match = _TOKEN.scanner(text).match  # each call matches where the last match ended
    while True:
        m = match()
        kind = m.lastgroup
        if kind == "skip":
            continue
        word, start = m[kind], m.start(kind)
        if kind == "string":
            word = _ESCAPE.sub(r"\1", word[1:-1])
        elif kind == "number":
            try:
                float(word)
            except ValueError:
                raise ActParseError(f"bad number {word!r}", *_line_column(text, start)) from None
        elif kind == "bad":
            what = "unterminated string" if word == '"' else f"unexpected character {word!r}"
            raise ActParseError(what, *_line_column(text, start))
        tokens.append((kind, word, start))
        if kind == "eof":
            return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def accept(self, kind: str, value: str | None = None) -> _Token | None:
        """Consume and return the next token if it has ``kind`` (and ``value``)."""
        tok = self.tokens[self.pos]
        if tok[0] != kind or (value is not None and tok[1] != value):
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> _Token:
        """Consume and return the next token, which must have ``kind`` (and ``value``)."""
        tok = self.tokens[self.pos]
        if tok[0] != kind or (value is not None and tok[1] != value):
            expected = _WHAT[kind] if value is None else f"'{value}'"
            found = "end of input" if tok[0] == "eof" else repr(tok[1])
            raise self.error(f"expected {expected}, found {found}", tok)
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token, code: str = "syntax") -> ActParseError:
        return ActParseError(message, *_line_column(self.text, tok[2]), code=code)


def _parse_params(p: _Parser) -> LeafTiming:
    p.expect("punct", "(")
    p.expect("ident", "p")
    p.expect("punct", "=")
    prob = float(p.expect("number")[1])
    extra = {}
    if p.accept("punct", ","):
        key = p.expect("ident")
        if key[1] not in _PARAMS:
            raise p.error(f"expected 't' or 'lambda', found {key[1]!r}", key)
        p.expect("punct", "=")
        extra[_PARAMS[key[1]]] = float(p.expect("number")[1])
    p.expect("punct", ")")
    return _timing(prob, **extra)


def _parse_children(p: _Parser, cls: type) -> list[_Token]:
    """``(a, b, ...)`` for AND and OR, exactly ``(detect, mitigate)`` for CM."""
    p.expect("punct", "(")
    items = [p.expect("ident")]
    if cls is CmGate:
        p.expect("punct", ",")
        items.append(p.expect("ident"))
    else:
        while p.accept("punct", ","):
            items.append(p.expect("ident"))
    p.expect("punct", ")")
    return items


def parse_act(text: str) -> Act:
    """Parse model text into a validated Act.

    Raises ActParseError on malformed text, undefined references or duplicate
    definitions, and ActValidationError when the tree breaks a structural rule.
    """
    p = _Parser(text)
    p.expect("ident", "act")
    title = p.expect("string")[1]
    p.expect("punct", "{")
    p.expect("ident", "root")
    root_tok = p.expect("ident")
    p.expect("punct", ";")

    # (ident token, display name, node class, leaf timing or child tokens)
    defs: list[tuple[_Token, str, type, object]] = []
    by_ident: dict[str, int] = {}
    while not p.accept("punct", "}"):
        ident = p.expect("ident")
        label = p.accept("string")
        p.expect("punct", "=")
        head = p.expect("ident")
        cls = _KINDS.get(head[1])
        if cls is None:
            raise p.error(f"expected one of {', '.join(_KINDS)}, found {head[1]!r}", head)
        payload = _parse_params(p) if cls in _LEAVES else _parse_children(p, cls)
        p.expect("punct", ";")
        if ident[1] in by_ident:
            raise p.error(f"duplicate definition of {ident[1]!r}", ident, code="duplicate-definition")
        by_ident[ident[1]] = len(defs)
        defs.append((ident, (label or ident)[1], cls, payload))
    p.expect("eof")
    if not defs:
        raise p.error("a model needs at least one definition", root_tok)

    def resolve(tok: _Token) -> int:
        if tok[1] not in by_ident:
            raise p.error(f"reference to undefined node {tok[1]!r}", tok, code="undefined-reference")
        return by_ident[tok[1]]

    nodes = tuple(_node(ident[1], name, cls, payload if cls in _LEAVES else map(resolve, payload))
                  for ident, name, cls, payload in defs)
    return _checked(Act(title, resolve(root_tok), nodes))


def _escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def serialize_act(act: Act) -> str:
    """Render an Act back to canonical model text (inverse of parse_act)."""
    lines = [f'act "{_escape(act.title)}" {{']
    lines.append(f"  root {act.nodes[act.root].ident};")
    for nid, node in enumerate(act.nodes):
        kind = node.kind
        if isinstance(kind, _LEAVES):
            tm = kind.timing
            if tm.p is None or (tm.lam is None and tm.t is None):
                raise MissingParameter(f"text needs leaf '{node.name}' to have a probability and a horizon or a rate")
            args = [f"p={float(tm.p)!r}", f"lambda={float(tm.lam)!r}" if tm.lam is not None else f"t={float(tm.t)!r}"]
        else:
            args = [act.nodes[c].ident for c in act.children(nid)]
        label = "" if node.name == node.ident else f' "{_escape(node.name)}"'
        lines.append(f"  {node.ident}{label} = {_KEYWORDS[type(kind)]}({', '.join(args)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _universal_newlines(text: str) -> str:
    """``text`` with each ``\\r\\n`` and lone ``\\r`` turned into ``\\n``, as a file opened in text mode reads it."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_act(path: str | os.PathLike) -> Act:
    """Parse a model file, read as UTF-8 with universal newlines.

    Raises ActParseError (code ``syntax``) at the line and column of the
    first byte that is not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[:exc.start].decode("utf-8"))
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ActParseError(message, *_line_column(before, len(before))) from None
    return parse_act(_universal_newlines(text))
