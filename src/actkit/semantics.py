"""Stochastic semantics: the absorbing CTMC of a tree, and the gate table.

``read_gates`` is the one reading of a tree's shape: every evaluator (the
chain built here, the static sweep, quadrature and simulation) walks its
table of gates, read once per call, instead of the tree.

Every leaf runs an exponential clock that starts at time zero (activation
signals cascade through the gates instantaneously). An AND gate with a
countermeasure child succeeds only if all its attack-side children complete
strictly before the countermeasure finishes detection plus mitigation; a
countermeasure finishing first permanently disables that AND gate.

The chain is built directly over leaf and countermeasure completion
statuses. It is the same process as the paper's product of per-node
interactive Markov automata under maximal progress, with fewer states; the
tests keep that product as an independent second construction to compare
against. Successful states collapse into a single absorbing goal state and
states from which the goal is unreachable into a single absorbing blocked
state.

Exploration evaluates the tree once per reachable state. Each successor
changes one node, so only the path from that node towards the root is
re-evaluated, up to the first ancestor whose value stays pending; the
events below the highest changed node are the ones that stop mattering,
and they are closed. Building the chain therefore costs about one tree
walk per state plus one short path per transition, not one tree walk per
transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import ActParseError, ActValidationError, DomainError, MissingParameter, RateUndefined, StateSpaceLimit
from .model import Act, AndGate, AttackLeaf, CmGate, OrGate, Scenario, _check_scenario, _faults

if TYPE_CHECKING:
    from scipy import sparse

DEFAULT_STATE_CAP = 1_000_000

# completion status codes used by the direct construction
_PENDING, _DONE, _CLOSED = 0, 1, 2
# countermeasure phase codes: detecting, mitigating, finished first, stood down
_CM_DETECT, _CM_MITIGATE, _CM_WON, _CM_CANCELLED = 0, 1, 2, 3
# three-valued node evaluation
_P, _S, _D = 0, 1, 2


# -- rate collection -----------------------------------------------------------

@dataclass(frozen=True)
class _CmRates:
    detect: float
    mitigate: float | None  # None means instantaneous mitigation


def _leaf_rate(act: Act, nid: int) -> float:
    try:
        return act.nodes[nid].kind.timing.rate()
    except (RateUndefined, MissingParameter) as exc:
        raise type(exc)(f"leaf '{act.nodes[nid].name}': {exc}") from None


# one AND or OR gate as every evaluator reads it: its attack-side children in child order, and its countermeasure child
_Gate = NamedTuple("_Gate", [("node", int), ("is_or", bool), ("side", tuple[int, ...]), ("guard", int | None)])


def read_gates(act: Act) -> list[_Gate]:
    """Every AND and OR gate under ``act.root`` in ``act.postorder()`` order: the one reading of a tree's shape.

    The one check every evaluator passes: it raises what ``act.postorder``
    raises, then the first of ``model._faults`` of the nodes it returns, as
    a one-diagnostic ActValidationError. So it rejects under the root every
    per-node rule ``validate_act`` reports, and each evaluator finds only
    AND and OR gates and attack events on the attack side. No scenario
    changes the table. Package-internal.
    """
    gates = []
    for nid in act.postorder():
        faults = _faults(act, nid)
        if faults:
            raise ActValidationError(faults[:1])
        kind = act.nodes[nid].kind
        if isinstance(kind, (AndGate, OrGate)):
            guard = act.guard(nid)
            gates.append(_Gate(nid, isinstance(kind, OrGate), tuple(c for c in kind.children if c != guard), guard))
    return gates


def collect_rates(act: Act, scenario: Scenario = Scenario.FULL) -> tuple[dict[int, float], dict[int, _CmRates]]:
    """Completion rates of the attack leaves under ``act.root``, and the law of each countermeasure.

    The one place a scenario takes effect: full keeps both phases, detect-only
    makes mitigation instantaneous and no-cm keeps no law, so that gate reads
    as a plain AND. Under full, a mitigation leaf with probability 1 and no
    explicit rate is instantaneous; probability 1 anywhere else has no finite
    rate and raises RateUndefined. Raises what ``read_gates`` raises, then
    DomainError for a ``scenario`` that is not a Scenario and when the rates
    sum past the largest double.
    """
    return _rates(act, read_gates(act), scenario)


def _rates(act: Act, gates: list[_Gate], scenario: Scenario) -> tuple[dict[int, float], dict[int, _CmRates]]:
    """``collect_rates`` of ``act`` read off its gate table ``gates``: every event the table names, in node order."""
    _check_scenario(scenario)
    leaf_rates: dict[int, float] = {}
    cm_rates: dict[int, _CmRates] = {}
    for nid in sorted([act.root, *(c for g in gates for c in g.side), *(g.guard for g in gates if g.guard is not None)]):
        kind = act.nodes[nid].kind
        if isinstance(kind, AttackLeaf):
            leaf_rates[nid] = _leaf_rate(act, nid)
        elif isinstance(kind, CmGate) and scenario is not Scenario.NO_CM:
            det = _leaf_rate(act, kind.detect)
            mit_tm = act.nodes[kind.mitigate].kind.timing
            if scenario is Scenario.DETECT_ONLY or (mit_tm.lam is None and mit_tm.p == 1.0):
                mit: float | None = None
            else:
                mit = _leaf_rate(act, kind.mitigate)
            cm_rates[nid] = _CmRates(det, mit)
    total = sum(leaf_rates.values()) + sum(r.detect + (r.mitigate or 0.0) for r in cm_rates.values())
    if not math.isfinite(total):
        raise DomainError("the completion rates sum past the largest double")
    return leaf_rates, cm_rates


# -- composed chain ------------------------------------------------------------

@dataclass(frozen=True)
class Ctmc:
    """Absorbing continuous-time Markov chain over a model's completions."""

    n: int
    init: int
    rates: sparse.csr_matrix  # off-diagonal transition rates, shape (n, n)
    goal: frozenset[int]
    blocked: frozenset[int]
    labels: tuple[str, ...]
    title: str | None = None
    scenario: Scenario | None = None


def compose(
    act: Act,
    scenario: Scenario = Scenario.FULL,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Ctmc:
    """Build the absorbing chain for a model under a defender scenario.

    The tree under ``act.root`` must be well-formed; nodes outside it are
    ignored, so the view ``Act(title, g, act.nodes)`` composes the chain of
    ``g``'s subtree alone. Raises what ``collect_rates`` raises, DomainError
    for a ``state_cap`` below 1, and StateSpaceLimit when more are reachable.
    """
    if state_cap < 1:
        raise DomainError(f"the state cap must be at least 1, got {state_cap}")
    gates = read_gates(act)
    return _chain(_DirectBuilder(act, gates, *_rates(act, gates, scenario)), state_cap, act.title, scenario)


_GOAL = "goal"
_BLOCKED = "blocked"


class _DirectBuilder:
    """Reachability over (leaf status, countermeasure phase) vectors.

    Every state is normalised: decided races are recorded in the
    countermeasure phase, pending events that can no longer influence the
    root are closed, and fully decided roots map to the goal or blocked
    sentinels. So in every state each PENDING leaf, and the owner of each
    detecting or mitigating countermeasure, has only P ancestors. The
    initial state is all pending because every gate has an attack-side child
    (``read_gates`` checks it), so nothing is decided before the first event.

    ``transitions`` evaluates the tree once per state, over the gate table
    in post-order. Each successor turns one P node decided: a leaf turns S,
    or a countermeasure's owner turns D when the countermeasure wins. The new value climbs to the parent when the parent
    is an OR and the value is S, an AND and the value is D, or every other
    attack-side child already holds it; the climb stops at the first parent
    that stays P. Climbs are memoised per state and value, so successors
    that share a path walk it once. Let ``top`` be the highest node that
    changed. A node matters while it and all its ancestors are P, and no
    node outside ``top``'s subtree changed, so exactly the nodes under
    ``top`` stop mattering. By the invariant every PENDING leaf and active
    countermeasure there mattered until now, so closing and cancelling all
    of them does what a whole-tree relevance pass would.
    """

    def __init__(self, act: Act, gates: list[_Gate], leaf_rates: dict[int, float], cm_rates: dict[int, _CmRates]):
        # per-node tables are indexed by node id; leaf and cm indices follow node ids too
        self.n = n = len(act.nodes)
        self.root = act.root
        self.leaves, cm_ids = sorted(leaf_rates), sorted(cm_rates)
        self.leaf_rate = [leaf_rates[nid] for nid in self.leaves]
        self.cm_rate = [cm_rates[nid] for nid in cm_ids]
        leaf_idx = {nid: i for i, nid in enumerate(self.leaves)}
        cm_idx = {nid: i for i, nid in enumerate(cm_ids)}
        # per node: attack-side parent (-1 at the root), attack-side arity and,
        # for gates, the value that needs every attack-side child (OR: D, AND: S)
        self.parent = [-1] * n
        self.arity = [0] * n
        self.unanimous = [_P] * n
        self.owner = [0] * len(cm_ids)  # cm index -> owning AND gate
        # gates in post-order: (node, value any child forces, unanimous value,
        # attack-side children, guard's cm index or -1)
        self.gates: list[tuple[int, int, int, tuple[int, ...], int]] = []
        # leaf and cm indices laid down gate by gate in post-order, so every subtree's are one run;
        # span[gate] = (leaf run start, end, cm run start, end); a leaf's is empty
        self.leaf_post: list[int] = []
        self.cm_post: list[int] = []
        self.span = [(0, 0, 0, 0)] * n
        for nid, is_or, side, guard in gates:
            leaf_lo, cm_lo = len(self.leaf_post), len(self.cm_post)
            for c in side:
                self.parent[c] = nid
                if c in leaf_idx:
                    self.leaf_post.append(leaf_idx[c])
                else:  # a gate, whose run is already laid down
                    leaf_lo, cm_lo = min(leaf_lo, self.span[c][0]), min(cm_lo, self.span[c][2])
            cm = cm_idx.get(guard, -1)
            if cm >= 0:
                self.cm_post.append(cm)
                self.owner[cm] = nid
            forced, unanimous = (_S, _D) if is_or else (_D, _S)
            self.arity[nid] = len(side)
            self.unanimous[nid] = unanimous
            self.gates.append((nid, forced, unanimous, side, cm))
            self.span[nid] = (leaf_lo, len(self.leaf_post), cm_lo, len(self.cm_post))

    def _evaluate(self, leafstat, cmstat) -> list[int]:
        """Per gate, how many attack-side children hold its unanimous value."""
        vals = [_P] * self.n
        for nid, status in zip(self.leaves, leafstat):
            if status == _DONE:
                vals[nid] = _S
        agree = [0] * self.n
        for nid, forced, unanimous, kids, guard in self.gates:
            if guard >= 0 and cmstat[guard] == _CM_WON:
                vals[nid] = _D
                continue
            child_vals = [vals[c] for c in kids]
            if forced in child_vals:
                vals[nid] = forced
                continue
            agree[nid] = child_vals.count(unanimous)
            if agree[nid] == len(kids):
                vals[nid] = unanimous
        return agree

    def _top(self, nid: int, value: int, agree: list[int], climbs: dict[int, int]) -> int:
        """Highest node that turns ``value`` when the P node ``nid`` does.

        ``climbs`` memoises the answer per starting node for this state and
        ``value``.
        """
        path = []
        while nid not in climbs:
            path.append(nid)
            up = self.parent[nid]
            if up < 0 or (value == self.unanimous[up] and agree[up] + 1 < self.arity[up]):
                top = nid
                break
            nid = up
        else:
            top = climbs[nid]
        for node in path:
            climbs[node] = top
        return top

    def _closed(self, top: int, leafstat, cmstat) -> tuple[list[int], list[int]]:
        """Copies of the vectors with ``top``'s subtree closed and cancelled."""
        leafstat, cmstat = list(leafstat), list(cmstat)
        leaf_lo, leaf_hi, cm_lo, cm_hi = self.span[top]
        for i in self.leaf_post[leaf_lo:leaf_hi]:
            if leafstat[i] == _PENDING:
                leafstat[i] = _CLOSED
        for i in self.cm_post[cm_lo:cm_hi]:
            if cmstat[i] in (_CM_DETECT, _CM_MITIGATE):
                cmstat[i] = _CM_CANCELLED
        return leafstat, cmstat

    def initial(self):
        return (_PENDING,) * len(self.leaves), (_CM_DETECT,) * len(self.cm_rate)

    def transitions(self, state):
        leafstat, cmstat = state
        agree = self._evaluate(leafstat, cmstat)
        climbs: dict[int, dict[int, int]] = {_S: {}, _D: {}}
        out: dict[object, float] = {}
        for i, rate in enumerate(self.leaf_rate):
            if leafstat[i] == _PENDING and rate > 0.0:
                top = self._top(self.leaves[i], _S, agree, climbs[_S])
                if top == self.root:
                    succ = _GOAL
                else:
                    ls, cs = self._closed(top, leafstat, cmstat)
                    ls[i] = _DONE
                    succ = (tuple(ls), tuple(cs))
                out[succ] = out.get(succ, 0.0) + rate
        for i, rates in enumerate(self.cm_rate):
            phase = cmstat[i]
            if phase == _CM_DETECT and rates.detect > 0.0:
                rate, nxt = rates.detect, (_CM_WON if rates.mitigate is None else _CM_MITIGATE)
            elif phase == _CM_MITIGATE and rates.mitigate is not None and rates.mitigate > 0.0:
                rate, nxt = rates.mitigate, _CM_WON
            else:
                continue
            if nxt == _CM_MITIGATE:  # detection alone decides nothing
                succ = (leafstat, cmstat[:i] + (nxt,) + cmstat[i + 1:])
            else:
                top = self._top(self.owner[i], _D, agree, climbs[_D])
                if top == self.root:
                    succ = _BLOCKED
                else:
                    ls, cs = self._closed(top, leafstat, cmstat)
                    cs[i] = nxt
                    succ = (tuple(ls), tuple(cs))
            out[succ] = out.get(succ, 0.0) + rate
        return out

    def label(self, state) -> str:
        leafstat, cmstat = state
        text = "leaves=" + "".join(map(str, leafstat))
        if cmstat:
            text += " cms=" + "".join(map(str, cmstat))
        return text


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
    from scipy import sparse  # loaded by chain code only: the CLI's other commands start without it

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
    return Ctmc(n=n, init=0, rates=sparse.csr_matrix((data, indices, indptr), shape=(n, n)),
                goal=frozenset({renumber[goal]} if kept else ()), blocked=frozenset(range(blocked, n)),
                labels=tuple(labels[u] for u in kept) + ("blocked",) * (n - blocked),
                title=title, scenario=scenario)


# -- plain-text export ----------------------------------------------------------

def export_ctmc_text(ctmc: Ctmc) -> str:
    """Transition list with init/goal/blocked header lines, one edge per line."""
    lines = [f"#states {ctmc.n}", f"#init {ctmc.init}"]
    lines.append("#goal" + "".join(f" {i}" for i in sorted(ctmc.goal)))
    lines.append("#blocked" + "".join(f" {i}" for i in sorted(ctmc.blocked)))
    for i, label in enumerate(ctmc.labels):
        lines.append(f"#label {i} {label}")
    coo = ctmc.rates.tocoo()
    triples = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    for src, dst, rate in triples:
        lines.append(f"{src} {dst} {rate!r}")
    return "\n".join(lines) + "\n"


def parse_ctmc_text(text: str) -> Ctmc:
    """Read a transition list produced by export_ctmc_text.

    Without a ``#states`` line, n is one more than the highest state a
    transition names. Raises ActParseError (code ``syntax``, column 1) at the
    first line with a wrong field count, a state that is not an integer in
    [0, n) or a rate that is negative or not finite.
    """
    n = None
    init = 0
    marked: dict[str, set[int]] = {"goal": set(), "blocked": set()}
    labels: dict[int, str] = {}
    triples: list[tuple[int, int, float]] = []
    named: list[tuple[int, int]] = []  # (state, line) of every state read, checked once n is known

    def state(word: str) -> int:
        if not word.isdecimal():
            raise ActParseError(f"expected a state index, found {word!r}", lineno, 1)
        named.append((int(word), lineno))
        return int(word)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            key, *rest = line[1:].split() or [""]
            if key in ("states", "init") and len(rest) != 1 or key == "label" and not rest:
                raise ActParseError(f"malformed #{key} line: {line!r}", lineno, 1)
            if key == "states":
                if not rest[0].isdecimal() or int(rest[0]) < 1:
                    raise ActParseError(f"expected a positive state count, found {rest[0]!r}", lineno, 1)
                n = int(rest[0])
            elif key == "init":
                init = state(rest[0])
            elif key in marked:
                marked[key].update(map(state, rest))
            elif key == "label":
                labels[state(rest[0])] = line[1:].split(None, 2)[2] if len(rest) > 1 else ""
        elif line:
            fields = line.split()
            if len(fields) != 3:
                raise ActParseError(f"expected 'source target rate', found {line!r}", lineno, 1)
            try:
                rate = float(fields[2])
            except ValueError:
                rate = math.nan
            if not 0.0 <= rate < math.inf:
                raise ActParseError(f"expected a finite non-negative rate, found {fields[2]!r}", lineno, 1)
            triples.append((state(fields[0]), state(fields[1]), rate))
    if n is None:
        n = 1 + max((max(s, d) for s, d, _ in triples), default=0)
    for i, at in named:
        if i >= n:
            raise ActParseError(f"state {i} is outside a chain of {n} states", at, 1)
    from scipy import sparse

    rows, cols, data = map(list, zip(*triples)) if triples else ([], [], [])
    return Ctmc(n=n, init=init, rates=sparse.csr_matrix((data, (rows, cols)), shape=(n, n)),
                goal=frozenset(marked["goal"]), blocked=frozenset(marked["blocked"]),
                labels=tuple(labels.get(i, f"s{i}") for i in range(n)))
