"""Stochastic semantics: the absorbing CTMC of a tree.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import sparse

from .errors import MissingParameter, RateUndefined, StateSpaceLimit
from .model import (
    Act,
    AndGate,
    AttackLeaf,
    CmGate,
    DetectLeaf,
    MitigateLeaf,
    OrGate,
    Scenario,
    apply_scenario,
)

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


def collect_rates(act: Act) -> tuple[dict[int, float], dict[int, _CmRates]]:
    """Completion rates for attack leaves and countermeasure phases.

    A mitigation leaf with probability 1 and no explicit rate means the
    mitigation is instantaneous; probability 1 anywhere else has no finite
    rate and raises RateUndefined.
    """
    leaf_rates: dict[int, float] = {}
    cm_rates: dict[int, _CmRates] = {}
    for nid, node in enumerate(act.nodes):
        if isinstance(node.kind, AttackLeaf):
            leaf_rates[nid] = _leaf_rate(act, nid)
        elif isinstance(node.kind, CmGate):
            det = _leaf_rate(act, node.kind.detect)
            mit_tm = act.nodes[node.kind.mitigate].kind.timing
            if mit_tm.lam is None and mit_tm.p == 1.0:
                mit: float | None = None
            else:
                mit = _leaf_rate(act, node.kind.mitigate)
            cm_rates[nid] = _CmRates(det, mit)
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

    Raises StateSpaceLimit when more than ``state_cap`` states are reachable
    and RateUndefined when a required leaf has probability 1.
    """
    resolved = apply_scenario(act, scenario)
    leaf_rates, cm_rates = collect_rates(resolved)
    raw = _explore(_DirectBuilder(resolved, leaf_rates, cm_rates), state_cap)
    return _collapse(*raw, title=act.title, scenario=scenario)


_GOAL = "goal"
_BLOCKED = "blocked"


class _DirectBuilder:
    """Reachability over (leaf status, countermeasure phase) vectors.

    After every transition the state is normalised: decided races are
    recorded in the countermeasure phase, pending events that can no longer
    influence the root are closed, and fully decided roots map to the goal or
    blocked sentinels.
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
        return (tuple(leafstat), tuple(cmstat))

    def initial(self):
        return self.normalize([_PENDING] * len(self.leaves), [_CM_DETECT] * len(self.cms))

    def transitions(self, state):
        leafstat, cmstat = state
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


def _explore(builder, state_cap: int):
    """Breadth-first reachability over a builder's ``initial``/``transitions``."""
    init = builder.initial()
    index: dict[object, int] = {}
    labels: list[str] = []
    edges: list[dict[int, float]] = []
    order: list[object] = []

    def intern(state) -> int:
        if state not in index:
            if len(index) >= state_cap:
                raise StateSpaceLimit(f"more than {state_cap} reachable states")
            index[state] = len(order)
            order.append(state)
            labels.append(state if isinstance(state, str) else builder.label(state))
            edges.append({})
        return index[state]

    intern(init)
    cursor = 0
    while cursor < len(order):
        state = order[cursor]
        if state not in (_GOAL, _BLOCKED):
            for succ, rate in builder.transitions(state).items():
                j = intern(succ)
                edges[cursor][j] = edges[cursor].get(j, 0.0) + rate
        cursor += 1
    goal_idx = index.get(_GOAL)
    return index[init], edges, labels, goal_idx


# -- collapse and packaging ----------------------------------------------------

def _collapse(init, edges, labels, goal_idx, title, scenario) -> Ctmc:
    """Merge goal-unreachable states into one absorbing blocked state."""
    m = len(edges)
    co_reach = [False] * m
    if goal_idx is not None:
        rev: list[list[int]] = [[] for _ in range(m)]
        for u, succs in enumerate(edges):
            for v in succs:
                rev[v].append(u)
        stack = [goal_idx]
        co_reach[goal_idx] = True
        while stack:
            v = stack.pop()
            for u in rev[v]:
                if not co_reach[u]:
                    co_reach[u] = True
                    stack.append(u)

    if not co_reach[init]:
        return Ctmc(
            n=1, init=0, rates=sparse.csr_matrix((1, 1)),
            goal=frozenset(), blocked=frozenset({0}), labels=("blocked",),
            title=title, scenario=scenario,
        )

    # keep _explore's breadth-first order: a state that reaches the goal is
    # first reached from one that does, so the numbering stays deterministic
    order = [u for u in range(m) if co_reach[u]]
    new_index = {u: i for i, u in enumerate(order)}
    blocked_new = len(order)
    needs_blocked = False

    rows, cols, data = [], [], []
    for nu, u in enumerate(order):
        merged = 0.0
        for v, rate in sorted(edges[u].items()):
            if co_reach[v]:
                rows.append(nu)
                cols.append(new_index[v])
                data.append(rate)
            else:
                needs_blocked = True
                merged += rate
        if merged > 0.0:
            rows.append(nu)
            cols.append(blocked_new)
            data.append(merged)

    out_labels = [labels[u] for u in order] + (["blocked"] if needs_blocked else [])
    n = len(out_labels)
    goal = frozenset({new_index[goal_idx]})
    blocked = frozenset({blocked_new}) if needs_blocked else frozenset()
    rates = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    return Ctmc(n=n, init=0, rates=rates, goal=goal, blocked=blocked,
                labels=tuple(out_labels), title=title, scenario=scenario)


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
    """Read a transition list produced by export_ctmc_text."""
    n = None
    init = 0
    goal: set[int] = set()
    blocked: set[int] = set()
    labels: dict[int, str] = {}
    triples: list[tuple[int, int, float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if not parts:
                continue
            key, rest = parts[0], parts[1:]
            if key == "states":
                n = int(rest[0])
            elif key == "init":
                init = int(rest[0])
            elif key == "goal":
                goal.update(int(x) for x in rest)
            elif key == "blocked":
                blocked.update(int(x) for x in rest)
            elif key == "label":
                labels[int(rest[0])] = line.split(None, 2)[2] if len(parts) > 2 else ""
            continue
        src, dst, rate = line.split()
        triples.append((int(src), int(dst), float(rate)))
    if n is None:
        n = 1 + max((max(s, d) for s, d, _ in triples), default=0)
    rows = [t[0] for t in triples]
    cols = [t[1] for t in triples]
    data = [t[2] for t in triples]
    rates = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    label_tuple = tuple(labels.get(i, f"s{i}") for i in range(n))
    return Ctmc(n=n, init=init, rates=rates, goal=frozenset(goal),
                blocked=frozenset(blocked), labels=label_tuple)
