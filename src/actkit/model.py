"""Attack countermeasure tree model: node kinds, validation, scenario transforms.

An act is a rooted tree. Internal nodes are AND/OR gates; a countermeasure
gate may appear as the child of an AND gate and couples one detection and one
mitigation event. Leaves are attack, detection or mitigation events carrying
probability/timing parameters.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Union

from .errors import ActValidationError, DomainError, MissingParameter, _number, _real
from .timing import rate_from_probability


@dataclass(frozen=True)
class LeafTiming:
    """Success probability and completion-time parameters of a basic event.

    ``p`` with horizon ``t`` (hours) or an explicit rate ``lam`` drives the
    timed behaviour, never both: ``validate_act`` refuses a leaf that carries
    a horizon and a rate. Without a rate it is derived as ``-ln(1 - p) / t``.
    Static analysis always reads ``p``, which may be absent on rate-only
    leaves built programmatically.
    """

    p: float | None = None
    t: float | None = None
    lam: float | None = None

    def probability(self) -> float:
        if self.p is None:
            raise MissingParameter("leaf has no success probability")
        return self.p

    def rate(self) -> float:
        """Completion rate per hour. Raises RateUndefined when p == 1."""
        if self.lam is not None:
            return self.lam
        if self.p is None or self.t is None:
            raise MissingParameter("leaf has neither a rate nor (p, t)")
        return rate_from_probability(self.p, self.t)


@dataclass(frozen=True)
class AttackLeaf:
    timing: LeafTiming


@dataclass(frozen=True)
class DetectLeaf:
    timing: LeafTiming


@dataclass(frozen=True)
class MitigateLeaf:
    timing: LeafTiming


@dataclass(frozen=True)
class AndGate:
    children: tuple[int, ...]


@dataclass(frozen=True)
class OrGate:
    children: tuple[int, ...]


@dataclass(frozen=True)
class CmGate:
    """Countermeasure gate: one detection event followed by one mitigation."""

    detect: int
    mitigate: int

    @property
    def children(self) -> tuple[int, int]:
        return (self.detect, self.mitigate)


NodeKind = Union[AttackLeaf, DetectLeaf, MitigateLeaf, AndGate, OrGate, CmGate]
_LEAVES = (AttackLeaf, DetectLeaf, MitigateLeaf)


@dataclass(frozen=True)
class Node:
    ident: str
    name: str
    kind: NodeKind


@dataclass(frozen=True)
class Act:
    """A named attack countermeasure tree with a dense node table."""

    title: str
    root: int
    nodes: tuple[Node, ...]

    def children(self, nid: int) -> tuple[int, ...]:
        kind = self.nodes[nid].kind
        if isinstance(kind, (AndGate, OrGate, CmGate)):
            return kind.children
        return ()

    def postorder(self) -> list[int]:
        """Nodes reachable from the root, every child before its parent and the last child first.

        The walk stops at the first node it reaches twice, or at an id that is
        not an integer in the node table, and raises ActValidationError:
        CycleDetected at the node that reached it when it is that node's
        ancestor (or the node itself), SharedSubtree at it otherwise;
        RootMissing for such a root id, and DanglingReference at the parent of
        such a child id.
        """
        reached: dict[int, int] = {}  # each node reached, in pre-order, and the node it was reached from
        stack = [(self.root, -1)]
        while stack:  # a pre-order visiting children in child order, reversed on return
            nid, up = stack.pop()
            if not _in_table(nid, len(self.nodes)):
                code, at = ("RootMissing", str(nid)) if up < 0 else ("DanglingReference", self.nodes[up].name)
                raise ActValidationError([Diagnostic(code, at, f"id {nid} is not in the node table")])
            if nid in reached:
                v = up
                while v not in (nid, -1):
                    v = reached[v]
                at, code = (up, "CycleDetected") if v == nid else (nid, "SharedSubtree")
                raise ActValidationError([Diagnostic(code, self.nodes[at].name, f"'{self.nodes[nid].name}' is reached twice")])
            reached[nid] = up
            stack.extend((c, nid) for c in reversed(self.children(nid)))
        return list(reached)[::-1]

    def guard(self, nid: int) -> int | None:
        """The countermeasure child of an AND gate, or None."""
        kind = self.nodes[nid].kind
        if isinstance(kind, AndGate):
            for c in kind.children:
                if isinstance(self.nodes[c].kind, CmGate):
                    return c
        return None

    def attack_leaves(self) -> Iterator[int]:
        for nid, node in enumerate(self.nodes):
            if isinstance(node.kind, AttackLeaf):
                yield nid

    def cm_gates(self) -> Iterator[int]:
        for nid, node in enumerate(self.nodes):
            if isinstance(node.kind, CmGate):
                yield nid


def _in_table(nid: object, n: int) -> bool:
    """Whether ``nid`` is an integer id of a table of ``n`` nodes."""
    # the plain int test first: the ABC test alone makes postorder, which every analysis runs, measurably slower
    return (type(nid) is int or isinstance(nid, numbers.Integral)) and 0 <= nid < n


class Scenario(Enum):
    """Defender configuration applied before an analysis."""

    NO_CM = "no-cm"
    DETECT_ONLY = "detect-only"
    FULL = "full"


def _check_scenario(scenario: Scenario) -> None:
    if not isinstance(scenario, Scenario):
        raise DomainError(f"scenario must be a Scenario, got {scenario!r}")


@dataclass(frozen=True)
class Diagnostic:
    """One validation violation with a machine-readable rule id."""

    code: str
    node: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at '{self.node}': {self.message}"


def _repeated(act: Act, nid: int) -> Diagnostic:
    """The diagnostic of node ``nid``, whose identifier a node with a smaller id also carries. Package-internal."""
    node = act.nodes[nid]
    return Diagnostic("DuplicateIdentifier", node.name, f"identifier {node.ident!r} also names an earlier node")


def _faults(act: Act, nid: int) -> list[Diagnostic]:
    """The rules of a well-formed tree that read only node ``nid``, its own children and whether it is the root.

    ``validate_act`` applies them to every node and ``read_gates`` to each node under the root, once every child
    id is known to lie in the node table. Package-internal.
    """
    nodes, kind = act.nodes, act.nodes[nid].kind
    out: list[Diagnostic] = []
    bad = lambda code, at, msg: out.append(Diagnostic(code, nodes[at].name, msg))
    placed = [nid] if nid == act.root else []  # the root and attack-side children this node answers for
    if isinstance(kind, (AndGate, OrGate)):
        cms = [c for c in kind.children if isinstance(nodes[c].kind, CmGate)] if isinstance(kind, AndGate) else []
        if not kind.children:
            bad("GateArity", nid, "gate has no children")
        elif len(cms) > 1 or len(cms) == len(kind.children):
            bad("CmPlacement", nid, "an AND gate holds at most one countermeasure and at least one other child")
        placed += [c for c in kind.children if c not in cms]
    elif isinstance(kind, CmGate):
        if not isinstance(nodes[kind.detect].kind, DetectLeaf):
            bad("CmChildren", nid, "first countermeasure child must be a detection event")
        if not isinstance(nodes[kind.mitigate].kind, MitigateLeaf):
            bad("CmChildren", nid, "second countermeasure child must be a mitigation event")
        for c in kind.children:
            if isinstance(nodes[c].kind, AttackLeaf):
                bad("CmChildren", c, "attack events cannot be countermeasure children")
    else:
        tm = kind.timing
        if tm.p is None and tm.lam is None:
            bad("LeafParam", nid, "leaf carries neither a probability nor a rate")
        if tm.t is not None and tm.lam is not None:
            bad("LeafParam", nid, "leaf carries both a horizon and a rate")
        if tm.p is not None and not _real(tm.p, 0.0, 1.0):
            bad("LeafParam", nid, f"probability {tm.p!r} is not a number in [0, 1]")
        if tm.t is not None and not _real(tm.t, 0.0, math.inf, lo_open=True, hi_open=True):
            bad("LeafParam", nid, f"horizon {tm.t!r} is not a positive number of hours")
        if tm.lam is not None and not _real(tm.lam, 0.0, math.inf, hi_open=True):
            bad("LeafParam", nid, f"rate {tm.lam!r} is not finite and non-negative")
    for c in placed:
        if isinstance(nodes[c].kind, CmGate):
            bad("CmPlacement", c, "countermeasure gates may only be children of AND gates")
        elif not isinstance(nodes[c].kind, (AndGate, OrGate, AttackLeaf)):
            bad("LeafPlacement", c, "detection and mitigation events may only appear under a countermeasure gate")
    return out


def validate_act(act: Act) -> list[Diagnostic]:
    """Check every structural rule; returns one diagnostic per violation.

    An empty list means the act is a well-formed tree: acyclic, single-rooted,
    no shared subtrees, no identifier on two nodes, gates non-empty,
    countermeasure gates placed under AND gates with exactly one detection
    and one mitigation child, and all leaf parameters in range. It checks the
    rules that read the whole table first, then ``_faults`` of every node. A
    node whose identifier an earlier node of the table carries is a
    DuplicateIdentifier: the simulator keys each event's random stream on it.
    """
    out: list[Diagnostic] = []
    n = len(act.nodes)
    if not _in_table(act.root, n):
        out.append(Diagnostic("RootMissing", str(act.root), "root id is not in the node table"))
        return out

    parents: list[list[int]] = [[] for _ in range(n)]
    for nid, node in enumerate(act.nodes):
        for c in act.children(nid):
            if _in_table(c, n):
                parents[c].append(nid)
            else:
                out.append(Diagnostic("DanglingReference", node.name, f"child id {c} is not in the node table"))
    if out:
        return out

    first: dict[str, int] = {}  # each identifier: the first node carrying it
    for nid, node in enumerate(act.nodes):
        if first.setdefault(node.ident, nid) != nid:
            out.append(_repeated(act, nid))
        if nid == act.root:
            if parents[nid]:
                out.append(Diagnostic("RootHasParent", node.name, "the root must not appear as a child"))
        elif len(parents[nid]) == 0:
            out.append(Diagnostic("OrphanNode", node.name, "node is defined but never referenced"))
        elif len(parents[nid]) > 1:
            out.append(Diagnostic("SharedSubtree", node.name, f"node has {len(parents[nid])} parents; subtrees must not be shared"))

    # cycle check: iterative DFS colouring over the whole table
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            v, i = stack[-1]
            kids = act.children(v)
            if i < len(kids):
                stack[-1] = (v, i + 1)
                c = kids[i]
                if color[c] == 1:
                    out.append(Diagnostic("CycleDetected", act.nodes[v].name, f"edge to '{act.nodes[c].name}' closes a cycle"))
                elif color[c] == 0:
                    color[c] = 1
                    stack.append((c, 0))
            else:
                color[v] = 2
                stack.pop()

    for nid in range(n):
        out += _faults(act, nid)
    return out


def remove_cm_gates(act: Act, cm_ids: set[int]) -> Act:
    """Delete the given countermeasure gates and their leaves; the rest keep their order, renumbered."""
    removed: set[int] = set()
    for nid in cm_ids:
        kind = act.nodes[nid].kind
        if not isinstance(kind, CmGate):
            raise ValueError(f"node {nid} is not a countermeasure gate")
        removed.update((nid, kind.detect, kind.mitigate))
    if not removed:
        return act
    keep = [nid for nid in range(len(act.nodes)) if nid not in removed]
    remap = {nid: i for i, nid in enumerate(keep)}
    rebuilt: list[Node] = []
    for nid in keep:
        node = act.nodes[nid]
        kind = node.kind
        if isinstance(kind, (AndGate, OrGate)):
            kind = type(kind)(tuple(remap[c] for c in kind.children if c in remap))
        elif isinstance(kind, CmGate):
            kind = CmGate(remap[kind.detect], remap[kind.mitigate])
        rebuilt.append(Node(node.ident, node.name, kind))
    return Act(act.title, remap[act.root], tuple(rebuilt))


INSTANT_MITIGATION = LeafTiming(p=1.0, t=1.0)


def apply_scenario(act: Act, scenario: Scenario) -> Act:
    """Rewrite the model for a defender configuration.

    no-cm deletes every countermeasure gate (an AND left with one child acts
    as a pass-through). detect-only makes every mitigation instantaneous,
    which statically reads as probability 1. full is the identity. Raises
    DomainError for a ``scenario`` that is not a Scenario.
    """
    _check_scenario(scenario)
    if scenario is Scenario.FULL:
        return act
    if scenario is Scenario.NO_CM:
        return remove_cm_gates(act, set(act.cm_gates()))
    nodes = []
    for node in act.nodes:
        if isinstance(node.kind, MitigateLeaf):
            node = replace(node, kind=MitigateLeaf(INSTANT_MITIGATION))
        nodes.append(node)
    return Act(act.title, act.root, tuple(nodes))


def _attack_horizon(timing: LeafTiming) -> float:
    """The horizon a common attack-leaf probability is read over: the leaf's own, or 1 hour when it has none."""
    return timing.t if timing.t is not None else 1.0


def with_attack_probability(act: Act, p: float) -> Act:
    """Set every attack leaf's success probability to ``p``.

    Detection and mitigation events keep their modelled values. The leaf's
    horizon is kept (default 1 hour) and any explicit rate is dropped so the
    timed rate re-derives from the new probability. Raises DomainError
    unless ``p`` is a number in [0, 1]; a truth value is not one.
    """
    _number(p, "attack-leaf probability", 0.0, 1.0)
    nodes = []
    for node in act.nodes:
        if isinstance(node.kind, AttackLeaf):
            node = replace(node, kind=AttackLeaf(LeafTiming(p=p, t=_attack_horizon(node.kind.timing))))
        nodes.append(node)
    return Act(act.title, act.root, tuple(nodes))


# -- assembly: parse_act and build_act end in these three steps ---------------

def _timing(p: float | None, t: float | None = 1.0, lam: float | None = None) -> LeafTiming:
    """A leaf's timing: a rate, or else a horizon of ``t`` hours, one by default. Package-internal."""
    return LeafTiming(p, None if lam is not None else t, lam)


def _node(ident: str, name: str, cls: type, payload) -> Node:
    """A node of kind ``cls``; ``payload`` is a leaf's LeafTiming or a gate's child ids. Package-internal."""
    kind = CmGate(*payload) if cls is CmGate else cls(payload if cls in _LEAVES else tuple(payload))
    return Node(ident, name, kind)


def _checked(act: Act) -> Act:
    """``act``, or ActValidationError with what ``validate_act`` lists against it. Package-internal."""
    diagnostics = validate_act(act)
    if diagnostics:
        raise ActValidationError(diagnostics)
    return act


@dataclass
class _Spec:
    cls: type
    name: str
    timing: LeafTiming | None = None
    children: tuple["_Spec", ...] = ()


def attack(name: str, p: float | None = None, t: float | None = 1.0, lam: float | None = None) -> _Spec:
    return _Spec(AttackLeaf, name, _timing(p, t, lam))


def detect(name: str, p: float, t: float = 1.0, lam: float | None = None) -> _Spec:
    return _Spec(DetectLeaf, name, _timing(p, t, lam))


def mitigate(name: str, p: float, t: float = 1.0, lam: float | None = None) -> _Spec:
    return _Spec(MitigateLeaf, name, _timing(p, t, lam))


def and_gate(name: str, *children: _Spec) -> _Spec:
    return _Spec(AndGate, name, children=children)


def or_gate(name: str, *children: _Spec) -> _Spec:
    return _Spec(OrGate, name, children=children)


def cm_gate(name: str, detect_spec: _Spec, mitigate_spec: _Spec) -> _Spec:
    return _Spec(CmGate, name, children=(detect_spec, mitigate_spec))


def _slug(name: str, used: set[str]) -> str:
    base = re.sub(r"[^a-z0-9_]+", "_", name.lower()).strip("_") or "n"
    if base[0].isdigit():
        base = "n" + base
    slug, k = base, 1
    while slug in used:
        k += 1
        slug = f"{base}_{k}"
    used.add(slug)
    return slug


def _assemble(title: str, root: _Spec) -> Act:
    """The Act of nested specs, ids assigned in preorder, unvalidated. Package-internal."""
    # (spec, ident, child ids) per node, in the preorder a recursive walk
    # would visit them, so ids and deduplicated idents come out the same
    entries: list[tuple[_Spec, str, list[int]]] = []
    used: set[str] = set()
    stack: list[tuple[_Spec, int | None]] = [(root, None)]
    while stack:
        spec, parent = stack.pop()
        if parent is not None:
            entries[parent][2].append(len(entries))
        stack.extend((c, len(entries)) for c in reversed(spec.children))
        entries.append((spec, _slug(spec.name, used), []))
    return Act(title, 0, tuple(_node(ident, spec.name, spec.cls, spec.timing if spec.cls in _LEAVES else children)
                               for spec, ident, children in entries))


def build_act(title: str, root: _Spec) -> Act:
    """Assemble an Act from nested specs, assigning ids in preorder; raises ActValidationError if it breaks a rule."""
    return _checked(_assemble(title, root))
