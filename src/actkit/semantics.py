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
interactive Markov automata under maximal progress, lumped: a subtree that
is decided is written in one canonical form, so states that differ only in
how a subtree was decided are one state, and every goal probability is
kept. An AND of k two-leaf ORs has 2^(k+1) states, not the about 3^k it has
when states record which leaf decided each OR. The tests keep that product
as an independent second construction to compare against. Successful
states collapse into a single absorbing goal state and states from which
the goal is unreachable into a single absorbing blocked state. Only a
zero-rate attack leaf can strand a pending state, so without one the
blocked state is the only state that merges and no reverse reachability
pass runs. A state's label is formatted only when ``Ctmc.labels`` is read.

Exploration reads the gate table once and evaluates no gate per state. A
state is one integer with a 4-bit status field per event, and each state
still to expand carries its per-gate count of children that hold the gate's
unanimous value. A new value climbs from the node that changed towards the
root. Whether it passes a parent depends on a count only where the parent's
unanimous value is the climbing one and its attack side has more than one
child; everywhere else the tree alone decides. So, once per ``compose``, a
table per value gives each node the top of its climb that reads no count,
and a climb starts there: it reads one count at each count-dependent parent
and, when it passes, jumps to that parent's top. The subtree below the
highest changed node is the one that turns decided, and masks precomputed
per node write its canonical form in a few integer operations. Leaves whose
climbs start at one top lead to one successor, so it is formed once per
state and the others only add their rate. Building the chain therefore
costs a few count reads per transition, not one tree walk per state.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import (ActParseError, ActValidationError, DomainError, MissingParameter, RateUndefined, StateSpaceLimit,
                     _count, _number)
from .model import (Act, AndGate, AttackLeaf, CmGate, OrGate, Scenario, _attack_horizon, _check_scenario, _faults,
                    _repeated)
from .timing import rate_from_probability

if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse

DEFAULT_STATE_CAP = 1_000_000

# completion status codes used by the direct construction
_PENDING, _DONE, _CLOSED = 0, 1, 2
# countermeasure phase codes: detecting, mitigating, stood down; 2, finished
# first, is never kept, because it decides its owner's subtree
_CM_DETECT, _CM_MITIGATE, _CM_CANCELLED = 0, 1, 3
# three-valued node evaluation
_P, _S, _D = 0, 1, 2


# -- rate collection -----------------------------------------------------------

@dataclass(frozen=True)
class _CmRates:
    detect: float
    mitigate: float | None  # None means instantaneous mitigation


def _leaf_rate(act: Act, nid: int, pleaf: float | None = None) -> float:
    """Leaf ``nid``'s rate, or at probability ``pleaf`` over ``_attack_horizon``; its errors name the leaf.

    Every evaluator reads its rates here: a double whatever numeric type the
    leaf holds, and 0.0 for -0.0 (``lambda=-0.0`` or ``p=-0.0``).
    """
    timing = act.nodes[nid].kind.timing
    try:
        rate = timing.rate() if pleaf is None else rate_from_probability(pleaf, _attack_horizon(timing))
    except (RateUndefined, MissingParameter) as exc:
        raise type(exc)(f"leaf '{act.nodes[nid].name}': {exc}") from None
    return float(rate) + 0.0


# one AND or OR gate as every evaluator reads it: its attack-side children in child order, and its countermeasure child
_Gate = NamedTuple("_Gate", [("node", int), ("is_or", bool), ("side", tuple[int, ...]), ("guard", int | None)])


def read_gates(act: Act) -> list[_Gate]:
    """Every AND and OR gate under ``act.root`` in ``act.postorder()`` order: the one reading of a tree's shape.

    The one check every evaluator passes: it raises what ``act.postorder``
    raises, then the first of ``model._faults`` of the nodes it returns, or
    the DuplicateIdentifier of the later in the table of two of them that
    carry one identifier, whichever it reaches first, as a one-diagnostic
    ActValidationError. So it rejects under the root every per-node rule and
    every repeated identifier ``validate_act`` reports, each evaluator finds
    only AND and OR gates and attack events on the attack side, and each
    event's identifier names it alone. No scenario changes the table.
    Package-internal.
    """
    gates = []
    named: dict[str, int] = {}  # each identifier reached: the node carrying it
    for nid in act.postorder():
        faults = _faults(act, nid)
        if faults:
            raise ActValidationError(faults[:1])
        other = named.setdefault(act.nodes[nid].ident, nid)
        if other != nid:
            raise ActValidationError([_repeated(act, max(nid, other))])
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


def _rates(act: Act, gates: list[_Gate], scenario: Scenario,
           pleaf: float | None = None) -> tuple[dict[int, float], dict[int, _CmRates]]:
    """``collect_rates`` of ``act`` read off its gate table ``gates``: every event the table names, in node order.

    A ``pleaf`` reads every attack leaf at that probability, as
    ``with_attack_probability`` sets it, and raises DomainError, after the
    scenario's check, unless it is a number in [0, 1].
    """
    _check_scenario(scenario)
    if pleaf is not None:
        _number(pleaf, "attack-leaf probability", 0.0, 1.0)
    leaf_rates: dict[int, float] = {}
    cm_rates: dict[int, _CmRates] = {}
    for nid in sorted([act.root, *(c for g in gates for c in g.side), *(g.guard for g in gates if g.guard is not None)]):
        kind = act.nodes[nid].kind
        if isinstance(kind, AttackLeaf):
            leaf_rates[nid] = _leaf_rate(act, nid, pleaf)
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

@dataclass(frozen=True, eq=False)
class Ctmc:
    """Absorbing continuous-time Markov chain over a model's completions.

    The off-diagonal transition rates are the three arrays of a CSR matrix
    of shape (n, n): the targets of state u are
    ``indices[indptr[u]:indptr[u + 1]]``, increasing and each named once,
    and ``data`` holds their rates. ``indptr`` and ``indices`` are int32 and
    ``data`` float64, the dtypes scipy gives such a matrix. No chain from
    ``compose`` or ``parse_ctmc_text`` has a self-loop, and the solver reads
    one as the no-op it is. These arrays are the only stored form of
    the rates: ``rates`` wraps them in a scipy ``csr_matrix`` when first
    read, sharing their memory, and keeps it. Chains compare and hash by
    identity, since arrays have no single truth value.

    ``labels`` names each state, by index: a tuple, or in a chain from
    ``compose`` a sequence that formats its labels when first read and
    reads, slices and compares (``==`` either way) as the tuple of them.

    Construction raises DomainError naming the first of these rules that a
    chain breaks: n is an integer of at least 1; the initial, goal
    and blocked states are integers in [0, n); ``indptr`` holds n + 1
    non-decreasing signed-integer offsets from 0 to ``len(indices) ==
    len(data)``; every target is a signed integer in [0, n); every rate is
    finite and non-negative.
    """

    n: int
    init: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    goal: frozenset[int]
    blocked: frozenset[int]
    labels: Sequence[str]
    title: str | None = None
    scenario: Scenario | None = None

    def __post_init__(self) -> None:
        # labels are not read: a chain from ``compose`` formats them only when they are
        import numpy as np

        n = self.n
        _count(n, "a chain's state count", 1)
        for what, states in (("initial state", (self.init,)), ("goal state", self.goal),
                             ("blocked state", self.blocked)):
            for s in states:
                _count(s, f"a chain's {what}", 0)
                if s >= n:
                    raise DomainError(f"a chain's {what} must lie in [0, {n}), got {s!r}")
        indptr, indices, data = np.asarray(self.indptr), np.asarray(self.indices), np.asarray(self.data)
        if not (indptr.dtype.kind == "i" and indptr.shape == (n + 1,) and indptr[0] == 0
                and np.all(indptr[1:] >= indptr[:-1]) and indptr[-1] == indices.size == data.size):
            raise DomainError(f"a chain's indptr must hold {n + 1} non-decreasing integer offsets from 0 to "
                              f"len(indices) == len(data)")
        if not (indices.dtype.kind == "i" and np.all((0 <= indices) & (indices < n))):
            raise DomainError(f"a chain's transition targets must be integers in [0, {n})")
        if not np.all((0.0 <= data) & (data < math.inf)):
            raise DomainError("a chain's transition rates must be finite and non-negative")

    @cached_property
    def rates(self) -> sparse.csr_matrix:
        """The off-diagonal transition rates as a scipy ``csr_matrix``; loads scipy on first read."""
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))


class _Labels(Sequence):
    """The state labels of a chain from ``compose``, formatted when first read: reads and compares as their tuple.

    Label i names state ``states[kept[i]]`` by its status digits, leaves then
    countermeasures, and ``blocked`` labels after those name the merged state.
    """

    def __init__(self, states: list[int], kept: list[int], leaves: int, cms: int, blocked: int):
        self._read = (states, kept, leaves, cms, blocked)

    @cached_property
    def _tuple(self) -> tuple[str, ...]:
        states, kept, leaves, cms, blocked = self._read
        del self._read  # frees the states
        width = leaves + cms
        labels = []
        for u in kept:
            s = states[u]
            if s == _GOAL:
                labels.append("goal")
            else:
                digits = format(s, f"0{width}x")[::-1]  # in hex, the lowest field comes last
                labels.append("leaves=" + digits[:leaves] + (" cms=" + digits[leaves:] if cms else ""))
        return tuple(labels) + ("blocked",) * blocked

    def __getitem__(self, i):
        return self._tuple[i]

    def __len__(self) -> int:
        return len(self._tuple)

    def __iter__(self):
        return iter(self._tuple)

    def __eq__(self, other) -> bool:
        return self._tuple == (other._tuple if isinstance(other, _Labels) else other)

    def __hash__(self) -> int:
        return hash(self._tuple)

    def __repr__(self) -> str:
        return repr(self._tuple)


def compose(
    act: Act,
    scenario: Scenario = Scenario.FULL,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Ctmc:
    """Build the absorbing chain for a model under a defender scenario.

    The tree under ``act.root`` must be well-formed; nodes outside it are
    ignored, so the view ``Act(title, g, act.nodes)`` composes the chain of
    ``g``'s subtree alone. Raises what ``collect_rates`` raises, DomainError
    unless ``state_cap`` is an integer of at least 1 (numpy integers count,
    truth values do not), and StateSpaceLimit when more states than that
    are reachable.

    States are numbered breadth first from the initial one, successors in
    event order, and every state that cannot reach the goal merges into one
    absorbing blocked state, placed last. A state that reaches the goal is
    first reached from one that does, so the merge keeps the numbering
    deterministic. When the initial state cannot reach the goal the chain is
    that one blocked state.
    """
    _count(state_cap, "the state cap", 1)
    gates = read_gates(act)
    leaf_rates, cm_rates = _rates(act, gates, scenario)
    states, edges = _explore(act, gates, leaf_rates, cm_rates, state_cap)
    return _absorbing(states, edges, len(leaf_rates), len(cm_rates), 0.0 in leaf_rates.values(), act.title, scenario)


# a state is one int with a 4-bit status field per event: the attack leaves
# by index, then the countermeasures; these two stand for the absorbing states
_GOAL, _BLOCKED = -1, -2


def _explore(act: Act, gates: list[_Gate], leaf_rates: dict[int, float], cm_rates: dict[int, _CmRates],
             state_cap: int) -> tuple[list[int], list[dict[int, float]]]:
    """Every reachable state breadth first, and per state its successors' indices with summed rates.

    Every state is normalised: each decided subtree under a P gate is
    written in one canonical form (leaves CLOSED, countermeasures CANCELLED
    and, when it turned S, its lowest leaf DONE), and fully decided roots
    map to the goal or blocked state. So in every state each PENDING leaf,
    and the owner of each detecting or mitigating countermeasure, has only P
    ancestors, and a P subtree keeps a PENDING leaf, so it never looks
    decided. The initial state is all pending because every gate has an
    attack-side child (``read_gates`` checks it), so nothing is decided
    before the first event.

    Each successor turns one P node decided: a leaf turns S, or a
    countermeasure's owner turns D when the countermeasure wins. The new
    value climbs to the parent when the parent is an OR and the value is S,
    an AND and the value is D, or every other attack-side child already
    holds it; the climb stops at the first parent that stays P. Let ``top``
    be the highest node that changed: its subtree holds the event that
    fired, and it is the only subtree that turns decided, so rewriting it in
    canonical form normalises the successor.

    The first two rules, and the third at a parent with one attack-side
    child, read the tree alone, so ``tops[value]`` gives each node, once,
    the top of its climb under them. A climb starts at that top and reads a
    count only at a parent that could stop it, one whose unanimous value is
    the climbing one and which has other attack-side children; when it
    passes, it jumps to that parent's top. Each leaf's event carries its
    S-top and each countermeasure its owner's D-top. Where a climb ends
    depends only on the state, the value and the top it starts from, so per
    state ``seen`` maps each leaf's starting top to the successor index its
    climb led to: the leaves that start at one top (every pending leaf of a
    pending OR) form and look up that successor once, and the later ones
    only add their rate. So the key loses nothing: each event's successor
    is the one its own climb would reach, events are visited in index order,
    a successor is numbered when first reached and each sum adds its rates
    in event order.

    The canonical form is a lumping: the future of a state depends only on
    which subtrees are decided and how, not on which events decided them,
    and the form records exactly that. Under a P parent an all-closed child
    can only be a D child of an OR, and a child whose lowest leaf is DONE an
    S child of an AND. Merged states therefore have the same successors at
    the same rates, and every goal probability stays what it was.

    No state evaluates the tree. A state still to expand carries, per gate,
    how many attack-side children hold the gate's unanimous value (OR: D,
    AND: S): its parent's counts, plus one at the gate above ``top``, the
    only P gate whose children changed. The form fixes these counts, so a
    merged state's are the same whichever way it was reached. Raises
    StateSpaceLimit when more than ``state_cap`` states are reachable.
    """
    n = len(act.nodes)
    low = {nid: 1 << 4 * i for i, nid in enumerate([*sorted(leaf_rates), *sorted(cm_rates)])}
    # per node: attack-side parent (-1 at the root), attack-side arity and,
    # for gates, the value that needs every attack-side child; the low bits
    # of the leaves and of the countermeasures in its subtree
    parent = [-1] * n
    arity = [0] * n
    unanimous = [_P] * n
    leaf_mask = [0] * n
    cm_mask = [0] * n
    # per node: every field of its subtree, and the canonical form a decided
    # subtree is written in, by value: leaves CLOSED, countermeasures
    # CANCELLED and, when it turned S, its lowest leaf DONE (a leaf: DONE)
    span = [0] * n
    canonical = {_S: [0] * n, _D: [0] * n}
    for nid in leaf_rates:
        leaf_mask[nid] = canonical[_S][nid] = low[nid]
        span[nid] = low[nid] * 15
    # per countermeasure: (shift, low bit, owning gate, detection rate, mitigation rate); by
    # index, each with its owner's D-top in place of the owner once the tops are known
    wins = []
    for nid, is_or, side, guard in gates:
        arity[nid] = len(side)
        unanimous[nid] = _D if is_or else _S
        leaves = cms = 0
        for c in side:
            parent[c] = nid
            leaves |= leaf_mask[c]
            cms |= cm_mask[c]
        if guard in cm_rates:
            bit = low[guard]
            cms |= bit
            wins.append((bit.bit_length() - 1, bit, nid, cm_rates[guard].detect, cm_rates[guard].mitigate))
        leaf_mask[nid], cm_mask[nid], span[nid] = leaves, cms, (leaves | cms) * 15
        canonical[_D][nid] = dead = leaves * _CLOSED + cms * _CM_CANCELLED
        canonical[_S][nid] = dead - (leaves & -leaves)
    # per value and node: the top of its climb that reads no count, which
    # passes a parent whose unanimous value is another or whose attack side
    # is one child; parents come before their children in reversed post-order
    tops = {_S: list(range(n)), _D: list(range(n))}
    for nid, _, side, _ in reversed(gates):
        passed = [top for value, top in tops.items() if value != unanimous[nid] or len(side) == 1]
        for c in side:
            for top in passed:
                top[c] = top[nid]
    wins = [(shift, bit, tops[_D][owner], *laws) for shift, bit, owner, *laws in sorted(wins)]
    fires = [(low[nid] * 15, tops[_S][nid], rate) for nid, rate in sorted(leaf_rates.items()) if rate > 0.0]

    states = [0]  # every field 0: leaves PENDING, countermeasures DETECT
    index = {0: 0}
    counts = {0: [0] * n}  # the agree counts of each state still to expand
    edges: list[dict[int, float]] = []

    def reach(s: int, top: int, value: int, agree: list[int]) -> int:
        """Index of the successor of ``s`` in which the P node ``top`` turns ``value``, numbered if new.

        ``top`` is a top of ``tops[value]``, so its parent, if any, passes
        the value only when every other attack-side child holds it: there
        the climb reads a count and jumps to the parent's top. The event
        that fired lies under the last ``top``, so the subtree's canonical
        form overwrites its field too.
        """
        climb = tops[value]
        up = parent[top]
        while up >= 0 and agree[up] + 1 >= arity[up]:
            top = climb[up]
            up = parent[top]
        if up < 0:
            succ = _GOAL if value == _S else _BLOCKED
        else:
            succ = s & ~span[top] | canonical[value][top]
        j = index.get(succ)
        if j is None:
            j = index[succ] = len(states)
            states.append(succ)
            if succ >= 0:
                counts[j] = bumped = agree.copy()
                bumped[up] += 1
        return j

    for k, s in enumerate(states):
        # a state past the cap is always still to expand, so this check sees it
        if len(states) > state_cap:
            raise StateSpaceLimit(f"more than {state_cap} reachable states")
        out: dict[int, float] = {}
        edges.append(out)
        if s < 0:
            continue
        agree = counts.pop(k)
        # the successor that the climb from each leaf's top has led to in this state
        seen: dict[int, int] = {}
        for field, top, rate in fires:
            if not s & field:  # PENDING -> DONE
                j = seen.get(top)
                if j is None:
                    j = seen[top] = reach(s, top, _S, agree)
                out[j] = out.get(j, 0.0) + rate
        for shift, bit, top, detect, mitigate in wins:
            phase = s >> shift & 15
            if phase == _CM_DETECT and detect > 0.0:
                if mitigate is None:
                    j = reach(s, top, _D, agree)
                    out[j] = out.get(j, 0.0) + detect
                    continue
                succ = s | bit  # DETECT -> MITIGATE decides nothing
                j = index.get(succ)
                if j is None:
                    j = index[succ] = len(states)
                    states.append(succ)
                    counts[j] = agree
                out[j] = out.get(j, 0.0) + detect
            elif phase == _CM_MITIGATE and mitigate > 0.0:
                j = reach(s, top, _D, agree)
                out[j] = out.get(j, 0.0) + mitigate
    return states, edges


def _absorbing(states: list[int], edges: list[dict[int, float]], leaves: int, cms: int, strands: bool,
               title: str | None, scenario: Scenario) -> Ctmc:
    """The chain of ``_explore``'s states with every state that cannot reach the goal merged into one.

    Unless ``strands`` (some attack leaf has rate 0), that is ``_BLOCKED``
    alone, and no reverse pass looks for others. Every state but the goal
    and blocked ones has a pending root, and under a pending node an AND's attack-side children
    are pending or succeeded and an OR has a pending child; so firing
    pending leaves below the root, each at a positive rate, turns it
    succeeded, and with positive probability this path finishes before any
    countermeasure does: the state reaches the goal.

    Its rates go to numpy as CSR arrays of the dtypes scipy would pick, and
    no scipy is loaded: exporting a chain needs none. Labels are formatted
    when first read.
    """
    import numpy as np

    m = len(edges)
    goal = states.index(_GOAL) if _GOAL in states else None
    if not strands:
        reaches = [s != _BLOCKED for s in states]
    else:
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
    return Ctmc(n=n, init=0, indptr=np.array(indptr, dtype=np.int32), indices=np.array(indices, dtype=np.int32),
                data=np.array(data, dtype=np.float64), goal=frozenset({renumber[goal]} if kept else ()),
                blocked=frozenset(range(blocked, n)), labels=_Labels(states, kept, leaves, cms, n - blocked),
                title=title, scenario=scenario)


# -- plain-text export ----------------------------------------------------------

def export_ctmc_text(ctmc: Ctmc) -> str:
    """Transition list with init/goal/blocked header lines, one edge per line.

    Edges are listed in the order of ``ctmc``'s CSR arrays, by source and
    then target, and every rate prints as its ``repr``. Loads no scipy.
    """
    import numpy as np

    lines = [f"#states {ctmc.n}", f"#init {ctmc.init}"]
    lines.append("#goal" + "".join(f" {i}" for i in sorted(ctmc.goal)))
    lines.append("#blocked" + "".join(f" {i}" for i in sorted(ctmc.blocked)))
    for i, label in enumerate(ctmc.labels):
        lines.append(f"#label {i} {label}")
    sources = np.repeat(np.arange(ctmc.n), np.diff(ctmc.indptr)).tolist()
    lines += [f"{src} {dst} {rate!r}" for src, dst, rate in zip(sources, ctmc.indices.tolist(), ctmc.data.tolist())]
    return "\n".join(lines) + "\n"


def parse_ctmc_text(text: str) -> Ctmc:
    """Read a transition list produced by export_ctmc_text.

    Without a ``#states`` line, n is one more than the highest state a
    transition names. Lines that repeat a (source, target) pair are one
    transition whose rate is their sum, and a rate of 0 is kept as a
    transition: its exit rate and its goal probability are those of the
    chain without that line, but it is exported again. Raises ActParseError
    (code ``syntax``, column 1) at the first line with a wrong field count, a
    state that is not an integer in [0, n), a rate that is negative or not
    finite, or a transition from a state to itself: ``Ctmc`` holds
    off-diagonal rates only. Loads scipy, whose COO-to-CSR conversion puts
    the transitions into that form.
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
            src, dst = state(fields[0]), state(fields[1])
            if src == dst:
                raise ActParseError(f"expected a transition between two states, found a loop on {src}", lineno, 1)
            triples.append((src, dst, rate))
    if n is None:
        n = 1 + max((max(s, d) for s, d, _ in triples), default=0)
    for i, at in named:
        if i >= n:
            raise ActParseError(f"state {i} is outside a chain of {n} states", at, 1)
    from scipy import sparse

    rows, cols, data = map(list, zip(*triples)) if triples else ([], [], [])
    rates = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    return Ctmc(n=n, init=init, indptr=rates.indptr, indices=rates.indices, data=rates.data,
                goal=frozenset(marked["goal"]), blocked=frozenset(marked["blocked"]),
                labels=tuple(labels.get(i, f"s{i}") for i in range(n)))
