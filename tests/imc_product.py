"""Two independent constructions of the absorbing chain, kept as oracles.

The paper's product of per-node interactive Markov automata (IMCs) is the
oracle acceptance criterion 8 holds the library's direct chain to. The
whole-tree builder is the direct construction before it became incremental:
it re-evaluates every node and re-runs a relevance pass for every successor,
then tells states apart by its own canonical form of each decided subtree,
and the library must export byte-identical chains. Both number their
states and merge the blocked ones in ``_chain`` here, and share only rate
collection with the library; the whole-tree builder also reads its status
codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from actkit.errors import ActError, StateSpaceLimit
from actkit.model import (
    Act, AndGate, AttackLeaf, CmGate, DetectLeaf, MitigateLeaf, OrGate, Scenario, apply_scenario,
)
from actkit.semantics import (
    _CLOSED, _CM_CANCELLED, _CM_DETECT, _CM_MITIGATE, _D, _DONE, _P, _PENDING, _S, DEFAULT_STATE_CAP,
    Ctmc, _CmRates, collect_rates,
)

_CM_WON = 2  # a countermeasure that finished first; the canonical form cancels it

_GOAL = "goal"
_BLOCKED = "blocked"


def compose_product(act: Act, scenario: Scenario = Scenario.FULL, state_cap: int = DEFAULT_STATE_CAP) -> Ctmc:
    """The absorbing chain of ``act`` built as a product of per-node automata."""
    resolved = apply_scenario(act, scenario)
    leaf_rates, cm_rates = collect_rates(resolved)
    return _chain(_ProductBuilder(resolved, leaf_rates, cm_rates), state_cap, act.title, scenario)


def compose_whole_tree(act: Act, scenario: Scenario = Scenario.FULL,
                       state_cap: int = DEFAULT_STATE_CAP) -> Ctmc:
    """The absorbing chain of ``act`` with the whole tree re-evaluated per successor."""
    resolved = apply_scenario(act, scenario)
    leaf_rates, cm_rates = collect_rates(resolved)
    return _chain(_WholeTreeBuilder(resolved, leaf_rates, cm_rates), state_cap, act.title, scenario)


# -- reachable chain -----------------------------------------------------------

def _chain(builder, state_cap: int, title: str | None, scenario: Scenario | None) -> Ctmc:
    """The absorbing chain of a builder's ``initial``/``transitions``/``label``.

    States are numbered breadth first from the initial state, and every state
    that cannot reach the goal merges into one absorbing blocked state, placed
    last. A state that reaches the goal is first reached from one that does,
    so the merge keeps the numbering deterministic. When the initial state
    cannot reach the goal the chain is that one blocked state. Raises
    StateSpaceLimit when more than ``state_cap`` states are reachable.
    """
    from scipy import sparse

    init = builder.initial()
    index: dict[object, int] = {init: 0}
    states = [init]
    labels = [init if isinstance(init, str) else builder.label(init)]
    edges: list[dict[int, float]] = []
    for state in states:
        # a state past the cap is always still to expand, so this check sees it
        if len(states) > state_cap:
            raise StateSpaceLimit(f"more than {state_cap} reachable states")
        succs: dict[int, float] = {}
        if state not in (_GOAL, _BLOCKED):
            for succ, rate in builder.transitions(state).items():  # summed per successor already
                j = index.get(succ)
                if j is None:
                    j = index[succ] = len(states)
                    states.append(succ)
                    labels.append(succ if isinstance(succ, str) else builder.label(succ))
                succs[j] = rate
        edges.append(succs)
    goal = index.get(_GOAL)
    del index, states  # the merge below needs only the edges: free the states before it
    m = len(edges)
    reaches = [False] * m
    if goal is not None:
        rev: list[list[int]] = [[] for _ in range(m)]
        for u, succs in enumerate(edges):
            for v in succs:
                rev[v].append(u)
        reaches[goal] = True
        stack = [goal]
        while stack:
            for u in rev[stack.pop()]:
                if not reaches[u]:
                    reaches[u] = True
                    stack.append(u)

    # every state is reached from the initial one, so the initial state is
    # kept whenever a goal exists (without one, all states merge into the
    # blocked one), and a kept state has a positive rate into every merge
    kept = [u for u in range(m) if reaches[u]]
    renumber = {u: i for i, u in enumerate(kept)}
    blocked = len(kept)
    n = blocked + (blocked < m)
    indices: list[int] = []
    data: list[float] = []
    indptr = [0]
    for u in kept:
        merged = 0.0
        for v, rate in sorted(edges[u].items()):
            if reaches[v]:
                indices.append(renumber[v])
                data.append(rate)
            else:
                merged += rate
        if merged > 0.0:
            indices.append(blocked)
            data.append(merged)
        indptr.append(len(indices))
    indptr += [len(indices)] * (n - blocked)
    rates = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    return Ctmc(n=n, init=0, indptr=rates.indptr, indices=rates.indices, data=rates.data,
                goal=frozenset({renumber[goal]} if kept else ()), blocked=frozenset(range(blocked, n)),
                labels=tuple(labels[u] for u in kept) + ("blocked",) * (n - blocked),
                title=title, scenario=scenario)


# -- interactive Markov automata ----------------------------------------------

@dataclass(frozen=True)
class Imc:
    """A small interactive Markov automaton for one tree node.

    ``interactive`` transitions are immediate and labelled ``(kind, node,
    direction)`` with direction '!' for emitted signals and '?' for consumed
    ones; matching '!'/'?' pairs synchronise in the product. ``markovian``
    transitions carry exponential rates. Zero-rate edges are kept for
    structure but never fire.
    """

    n_states: int
    init: int
    interactive: tuple[tuple[int, tuple[str, int, str], int], ...]
    markovian: tuple[tuple[int, float, int], ...]
    accepting: frozenset[int]


def bas_imc(node: int, rate: float) -> Imc:
    """Basic attack step: wait for activation, delay, emit success."""
    return Imc(
        n_states=4,
        init=0,
        interactive=((0, ("act", node, "?"), 1), (2, ("succ", node, "!"), 3)),
        markovian=((1, float(rate), 2),),
        accepting=frozenset({3}),
    )


def gate_imc(kind: str, node: int, children: tuple[int, ...]) -> Imc:
    """AND/OR gate automaton generalised to any number of children.

    On activation the gate emits activation signals to its children in order.
    An AND gate collects success signals from all children in any
    interleaving before emitting its own; an OR gate emits after the first.
    """
    if kind == "and":
        return _and_imc(node, children, cm_child=None)
    if kind == "or":
        return _or_imc(node, children)
    raise ValueError(f"unknown gate kind {kind!r}")


def _activation_chain(node: int, children: tuple[int, ...]):
    # state 0 --act?--> 1 --act c0!--> 2 --...--> 1+len(children)
    edges = [(0, ("act", node, "?"), 1)]
    for i, c in enumerate(children):
        edges.append((1 + i, ("act", c, "!"), 2 + i))
    return edges, 1 + len(children)


def _or_imc(node: int, children: tuple[int, ...]) -> Imc:
    edges, wait = _activation_chain(node, children)
    nxt = wait + 1
    acc = wait + 1 + len(children)
    for i, c in enumerate(children):
        got = nxt + i
        edges.append((wait, ("succ", c, "?"), got))
        edges.append((got, ("succ", node, "!"), acc))
    return Imc(acc + 1, 0, tuple(edges), (), frozenset({acc}))


def _and_imc(node: int, children: tuple[int, ...], cm_child: int | None) -> Imc:
    """AND gate; with ``cm_child`` set, the countermeasure's completion signal
    moves any still-collecting state into a dead sink."""
    edges, wait = _activation_chain(node, children)
    collect = tuple(c for c in children if c != cm_child)
    subsets: dict[frozenset, int] = {}

    def subset_state(s: frozenset) -> int:
        if s not in subsets:
            subsets[s] = wait + len(subsets)
        return subsets[s]

    full = frozenset(collect)
    assert subset_state(frozenset()) == wait
    # breadth-first over the subset lattice keeps state numbering stable
    frontier = [frozenset()]
    seen = {frozenset()}
    while frontier:
        nxt = []
        for s in frontier:
            for c in collect:
                if c in s:
                    continue
                s2 = s | {c}
                edges.append((subset_state(s), ("succ", c, "?"), subset_state(s2)))
                if s2 not in seen:
                    seen.add(s2)
                    nxt.append(s2)
        frontier = nxt
    acc = wait + len(subsets)
    edges.append((subset_state(full), ("succ", node, "!"), acc))
    n = acc + 1
    if cm_child is not None:
        dead = n
        n += 1
        for s, idx in subsets.items():
            if s != full:
                edges.append((idx, ("done", cm_child, "?"), dead))
    return Imc(n, 0, tuple(edges), (), frozenset({acc}))


def cm_imc(node: int, detect_rate: float, mitigate_rate: float | None) -> Imc:
    """Countermeasure: activation, detection delay, mitigation delay, done.

    ``mitigate_rate=None`` models instantaneous mitigation (single phase).
    """
    if mitigate_rate is None:
        return Imc(
            n_states=4,
            init=0,
            interactive=((0, ("act", node, "?"), 1), (2, ("done", node, "!"), 3)),
            markovian=((1, float(detect_rate), 2),),
            accepting=frozenset({3}),
        )
    return Imc(
        n_states=5,
        init=0,
        interactive=((0, ("act", node, "?"), 1), (3, ("done", node, "!"), 4)),
        markovian=((1, float(detect_rate), 2), (2, float(mitigate_rate), 3)),
        accepting=frozenset({4}),
    )


# -- product of automata -------------------------------------------------------

_ENV = -1  # pseudo node id for the activation environment


class _ProductBuilder:
    """Synchronous product of per-node automata under maximal progress."""

    def __init__(self, act: Act, leaf_rates: dict[int, float], cm_rates: dict[int, _CmRates]):
        self.act = act
        self.automata: list[Imc] = []
        self.owners: list[int] = []  # node id per automaton, _ENV for the environment
        root = act.root
        env = Imc(
            n_states=3,
            init=0,
            interactive=((0, ("act", root, "!"), 1), (1, ("succ", root, "?"), 2)),
            markovian=(),
            accepting=frozenset({2}),
        )
        self.automata.append(env)
        self.owners.append(_ENV)
        for nid, node in enumerate(act.nodes):
            kind = node.kind
            if isinstance(kind, AttackLeaf):
                imc = bas_imc(nid, leaf_rates[nid])
            elif isinstance(kind, AndGate):
                cm = next((c for c in kind.children if isinstance(act.nodes[c].kind, CmGate)), None)
                imc = _and_imc(nid, kind.children, cm)
            elif isinstance(kind, OrGate):
                imc = _or_imc(nid, kind.children)
            elif isinstance(kind, CmGate):
                imc = cm_imc(nid, cm_rates[nid].detect, cm_rates[nid].mitigate)
            else:
                continue  # detect/mitigate phases live inside cm_imc
            self.automata.append(imc)
            self.owners.append(nid)
        self.env_pos = 0
        # per automaton: action -> {local state: next local state}
        self.moves: list[dict[tuple[str, int, str], dict[int, int]]] = []
        for imc in self.automata:
            table: dict[tuple[str, int, str], dict[int, int]] = {}
            for s, action, d in imc.interactive:
                table.setdefault(action, {})[s] = d
            self.moves.append(table)
        # sync pairs: action key -> [(automaton, direction table), ...]
        self.sync: dict[tuple[str, int], list[tuple[int, str]]] = {}
        for ai, imc in enumerate(self.automata):
            for _, (kind, nid, direction), _ in imc.interactive:
                entry = (ai, direction)
                participants = self.sync.setdefault((kind, nid), [])
                if entry not in participants:
                    participants.append(entry)
        self.markov_from: list[dict[int, list[tuple[float, int]]]] = []
        for imc in self.automata:
            table: dict[int, list[tuple[float, int]]] = {}
            for s, rate, d in imc.markovian:
                if rate > 0.0:
                    table.setdefault(s, []).append((rate, d))
            self.markov_from.append(table)

    def _closure(self, locals_: tuple[int, ...]):
        """Fire enabled immediate actions until none remain (maximal progress)."""
        state = list(locals_)
        seen = {tuple(state)}
        while True:
            if state[self.env_pos] in self.automata[self.env_pos].accepting:
                return _GOAL
            fired = None
            for key in sorted(self.sync):
                participants = self.sync[key]
                nxts = []
                ok = True
                for ai, direction in participants:
                    nxt = self.moves[ai].get((key[0], key[1], direction), {}).get(state[ai])
                    if nxt is None:
                        ok = False
                        break
                    nxts.append((ai, nxt))
                if ok and participants:
                    fired = nxts
                    break
            if fired is None:
                return tuple(state)
            for ai, nxt in fired:
                state[ai] = nxt
            key = tuple(state)
            if key in seen:
                raise ActError("immediate-transition cycle in automata product")
            seen.add(key)

    def initial(self):
        return self._closure(tuple(imc.init for imc in self.automata))

    def transitions(self, state):
        out: dict[object, float] = {}
        for ai, table in enumerate(self.markov_from):
            for rate, dst in table.get(state[ai], ()):
                succ_locals = list(state)
                succ_locals[ai] = dst
                succ = self._closure(tuple(succ_locals))
                out[succ] = out.get(succ, 0.0) + rate
        return out

    def label(self, state) -> str:
        return "imc=" + ",".join(str(s) for s in state)


# -- whole-tree direct construction ---------------------------------------------

class _Lumped(tuple):
    """A state's canonical (leaf status, countermeasure phase) pair; ``full`` holds the vectors first seen for it.

    Equality and hashing are the pair's alone, so every state with the same
    canonical form is one chain state, expanded from the first one found.
    """

    full: tuple[tuple[int, ...], tuple[int, ...]]


class _WholeTreeBuilder:
    """Reachability over (leaf status, countermeasure phase) vectors.

    After every transition the state is normalised: decided races are
    recorded in the countermeasure phase, pending events that can no longer
    influence the root are closed, and fully decided roots map to the goal or
    blocked sentinels. States are then told apart by their canonical form:
    every decided subtree under a pending gate is rewritten with its leaves
    CLOSED and its countermeasures CANCELLED and, when it succeeded, its
    lowest leaf DONE. The future depends only on which subtrees are decided
    and how, so states with one canonical form have the same successors
    (an ordinary lumping); each is expanded from the vectors it was first
    reached with.
    """

    def __init__(self, act: Act, leaf_rates: dict[int, float], cm_rates: dict[int, _CmRates]):
        self.act = act
        self.leaves = sorted(leaf_rates)
        self.leaf_idx = {nid: i for i, nid in enumerate(self.leaves)}
        self.leaf_rate = [leaf_rates[nid] for nid in self.leaves]
        self.cms = sorted(cm_rates)
        self.cm_idx = {nid: i for i, nid in enumerate(self.cms)}
        self.cm_rate = [cm_rates[nid] for nid in self.cms]
        self.guards = [act.guard(nid) for nid in range(len(act.nodes))]
        # cm node id -> enclosing AND node id
        self.cm_owner = {cm: nid for nid, cm in enumerate(self.guards) if cm is not None}
        self.order = act.postorder()

    def _values(self, leafstat, cmstat) -> list[int]:
        act = self.act
        vals = [_P] * len(act.nodes)
        for nid in self.order:
            kind = act.nodes[nid].kind
            if isinstance(kind, AttackLeaf):
                vals[nid] = _S if leafstat[self.leaf_idx[nid]] == _DONE else _P
            elif isinstance(kind, (DetectLeaf, MitigateLeaf, CmGate)):
                continue
            elif isinstance(kind, AndGate):
                cm = self.guards[nid]
                if cm is not None and cmstat[self.cm_idx[cm]] == _CM_WON:
                    vals[nid] = _D
                    continue
                attack_side = [vals[c] for c in kind.children if c != cm]
                if any(v == _D for v in attack_side):
                    vals[nid] = _D
                elif all(v == _S for v in attack_side):
                    vals[nid] = _S
            elif isinstance(kind, OrGate):
                child_vals = [vals[c] for c in kind.children]
                if any(v == _S for v in child_vals):
                    vals[nid] = _S
                elif all(v == _D for v in child_vals):
                    vals[nid] = _D
        return vals

    def normalize(self, leafstat: list[int], cmstat: list[int]):
        vals = self._values(leafstat, cmstat)
        if vals[self.act.root] == _S:
            return _GOAL
        if vals[self.act.root] == _D:
            return _BLOCKED

        # nodes still able to change the root's outcome
        relevant = [False] * len(self.act.nodes)
        stack = [self.act.root]
        while stack:
            nid = stack.pop()
            relevant[nid] = True
            kind = self.act.nodes[nid].kind
            if isinstance(kind, (AndGate, OrGate)):
                cm = self.guards[nid]
                for c in kind.children:
                    if c != cm and vals[c] == _P:
                        stack.append(c)

        for i, nid in enumerate(self.leaves):
            if leafstat[i] == _PENDING and not relevant[nid]:
                leafstat[i] = _CLOSED
        for i, nid in enumerate(self.cms):
            if cmstat[i] in (_CM_DETECT, _CM_MITIGATE) and not relevant[self.cm_owner[nid]]:
                cmstat[i] = _CM_CANCELLED
        full = (tuple(leafstat), tuple(cmstat))

        # the decided attack-side children of the relevant gates
        for nid in range(len(self.act.nodes)):
            kind = self.act.nodes[nid].kind
            if relevant[nid] and isinstance(kind, (AndGate, OrGate)):
                for c in kind.children:
                    if c != self.guards[nid] and vals[c] != _P:
                        below = self._subtree(c)
                        leaves = sorted(self.leaf_idx[b] for b in below if b in self.leaf_idx)
                        for i in leaves:
                            leafstat[i] = _CLOSED
                        if vals[c] == _S:
                            leafstat[leaves[0]] = _DONE
                        for b in below:
                            if b in self.cm_idx:
                                cmstat[self.cm_idx[b]] = _CM_CANCELLED
        state = _Lumped((tuple(leafstat), tuple(cmstat)))
        state.full = full
        return state

    def _subtree(self, nid: int) -> list[int]:
        """Every node under ``nid``, ``nid`` included."""
        out, stack = [], [nid]
        while stack:
            out.append(stack.pop())
            kind = self.act.nodes[out[-1]].kind
            if isinstance(kind, (AndGate, OrGate)):
                stack.extend(kind.children)
        return out

    def initial(self):
        return self.normalize([_PENDING] * len(self.leaves), [_CM_DETECT] * len(self.cms))

    def transitions(self, state):
        leafstat, cmstat = state.full
        out: dict[object, float] = {}
        for i, rate in enumerate(self.leaf_rate):
            if leafstat[i] == _PENDING and rate > 0.0:
                succ = self.normalize(list(leafstat[:i]) + [_DONE] + list(leafstat[i + 1:]), list(cmstat))
                out[succ] = out.get(succ, 0.0) + rate
        for i, rates in enumerate(self.cm_rate):
            phase = cmstat[i]
            if phase == _CM_DETECT and rates.detect > 0.0:
                nxt = _CM_WON if rates.mitigate is None else _CM_MITIGATE
            elif phase == _CM_MITIGATE and rates.mitigate is not None and rates.mitigate > 0.0:
                nxt = _CM_WON
            else:
                continue
            succ = self.normalize(list(leafstat), list(cmstat[:i]) + [nxt] + list(cmstat[i + 1:]))
            out[succ] = out.get(succ, 0.0) + (rates.detect if phase == _CM_DETECT else rates.mitigate)
        return out

    def label(self, state) -> str:
        leafstat, cmstat = state
        text = "leaves=" + "".join(str(s) for s in leafstat)
        if cmstat:
            text += " cms=" + "".join(str(s) for s in cmstat)
        return text
