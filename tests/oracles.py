"""Independent reference computations the tests freeze expected values from.

Everything here deliberately avoids the library's own algebra: static
probabilities come from exact Bernoulli enumeration over leaf outcomes,
transients from dense matrix exponentials (in doubles, or at 40 digits in
mpmath for stiff chains) or, on acyclic chains, from each state's closed
form, and the race probability from its closed form.
Random model generation is deterministic in the passed Random.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import replace
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg
import scipy.sparse

from actkit.errors import ActParseError
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
    apply_scenario,
    attack,
    and_gate,
    build_act,
    cm_gate,
    detect,
    mitigate,
    or_gate,
)


def enumerate_static(act: Act, scenario: Scenario = Scenario.FULL) -> float:
    """Exact goal probability by summing over all 2^n leaf outcome vectors.

    Works on the Bernoulli sample space directly: an AND holding a
    countermeasure succeeds only when its attack-side children all succeed
    and not both the detection and mitigation events occur.
    """
    resolved = apply_scenario(act, scenario)
    leaf_ids = [nid for nid, node in enumerate(resolved.nodes)
                if isinstance(node.kind, (AttackLeaf, DetectLeaf, MitigateLeaf))]
    n = len(leaf_ids)
    if n > 22:
        raise ValueError(f"{n} leaves is too many to enumerate")
    probs = np.array([resolved.nodes[nid].kind.timing.probability() for nid in leaf_ids])
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # (2^n, n)
    weights = np.where(bits == 1, probs, 1.0 - probs).prod(axis=1)
    col = {nid: i for i, nid in enumerate(leaf_ids)}

    def succeeds(nid: int) -> np.ndarray:
        kind = resolved.nodes[nid].kind
        if isinstance(kind, (AttackLeaf, DetectLeaf, MitigateLeaf)):
            return bits[:, col[nid]] == 1
        if isinstance(kind, CmGate):
            return succeeds(kind.detect) & succeeds(kind.mitigate)
        if isinstance(kind, OrGate):
            out = np.zeros(1 << n, dtype=bool)
            for c in kind.children:
                out |= succeeds(c)
            return out
        out = np.ones(1 << n, dtype=bool)
        for c in kind.children:
            child_kind = resolved.nodes[c].kind
            if isinstance(child_kind, CmGate):
                out &= ~succeeds(c)
            else:
                out &= succeeds(c)
        return out

    return float(weights[succeeds(resolved.root)].sum())


def sample_static(act: Act, scenario: Scenario, runs: int, seed: int) -> tuple[float, float]:
    """Bernoulli Monte Carlo estimate of the static goal probability.

    Returns (estimate, three-sigma half-width).
    """
    resolved = apply_scenario(act, scenario)
    rng = np.random.default_rng(seed)
    draws: dict[int, np.ndarray] = {}
    for nid, node in enumerate(resolved.nodes):
        if isinstance(node.kind, (AttackLeaf, DetectLeaf, MitigateLeaf)):
            draws[nid] = rng.random(runs) < node.kind.timing.probability()

    def succeeds(nid: int) -> np.ndarray:
        kind = resolved.nodes[nid].kind
        if nid in draws:
            return draws[nid]
        if isinstance(kind, CmGate):
            return succeeds(kind.detect) & succeeds(kind.mitigate)
        if isinstance(kind, OrGate):
            out = np.zeros(runs, dtype=bool)
            for c in kind.children:
                out |= succeeds(c)
            return out
        out = np.ones(runs, dtype=bool)
        for c in kind.children:
            if isinstance(resolved.nodes[c].kind, CmGate):
                out &= ~succeeds(c)
            else:
                out &= succeeds(c)
        return out

    phat = float(succeeds(resolved.root).mean())
    return phat, 3.0 * float(np.sqrt(phat * (1.0 - phat) / runs))


def race_probability(lam_a: float, lam_d: float, lam_m: float) -> float:
    """Eventual success of AND(attack, CM): the attack must beat detect+mitigate."""
    return 1.0 - (lam_d / (lam_d + lam_a)) * (lam_m / (lam_m + lam_a))


def expm_transient(ctmc, times) -> np.ndarray:
    """Goal probability via dense matrix exponentials (small chains only)."""
    Q = ctmc.rates.toarray()
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    goal = sorted(ctmc.goal)
    out = []
    for t in times:
        P = scipy.linalg.expm(Q * float(t))
        out.append(P[ctmc.init, goal].sum())
    return np.array(out)


def mpmath_transient(ctmc, times, dps: int = 40) -> np.ndarray:
    """Goal probability via ``mpmath.expm`` at ``dps`` digits; the generator's diagonal is summed exactly.

    Unlike ``expm_transient`` it stays exact on stiff chains (rates to 1e9),
    but it costs about a second per exponential at 20 states.
    """
    Q = ctmc.rates.toarray()
    goal = sorted(ctmc.goal)
    out = []
    with mpmath.workdps(dps):
        M = mpmath.matrix(ctmc.n, ctmc.n)
        for i, j in zip(*np.nonzero(Q)):
            if i != j:
                M[i, j] = mpmath.mpf(float(Q[i, j]))
        for i in range(ctmc.n):
            M[i, i] = -mpmath.fsum(M[i, j] for j in range(ctmc.n) if j != i)
        for t in times:
            P = mpmath.expm(M * mpmath.mpf(float(t)))
            out.append(float(mpmath.fsum(P[ctmc.init, g] for g in goal)))
    return np.array(out)


def acyclic_transient(ctmc, times, dps: int = 60) -> np.ndarray:
    """Goal probability of an acyclic chain in closed form, checked at ``dps`` and ``dps + 40`` digits.

    In topological order each state's probability is an exponential
    polynomial, a sum of c t^k e^(-a t): state j with exit rate q gets
    the integral over [0, t] of e^(-q (t - s)) times the rate-weighted sum of
    its predecessors', term by term in closed form (a term at rate q raises
    its power of t). No matrix exponential is taken, so rates to 1e9 cost no
    more than rates near 1. Exit rates are summed and compared exactly, and
    the rest runs in decimal arithmetic at the given digits. Near-equal rates
    cancel digits, so the values at the two precisions must agree to 1e-30.
    Raises AssertionError on a cycle and when they do not.
    """
    low, high = _acyclic_goal(ctmc, times, dps), _acyclic_goal(ctmc, times, dps + 40)
    gap = max((abs(a - b) for a, b in zip(low, high)), default=0)
    assert gap <= Decimal("1e-30"), f"the goal probability moved by {gap:.3g} from {dps} to {dps + 40} digits"
    return np.array([float(v) for v in high])


def _acyclic_goal(ctmc, times, dps: int) -> list[Decimal]:
    """The goal probability of ``acyclic_transient`` at each time, at ``dps`` digits."""
    rates = ctmc.rates.tocsr()
    succs = [[(int(v), float(r)) for v, r in zip(rates.indices[rates.indptr[u]:rates.indptr[u + 1]],
                                                  rates.data[rates.indptr[u]:rates.indptr[u + 1]]) if r > 0.0]
             for u in range(ctmc.n)]
    into = [0] * ctmc.n
    for succ in succs:
        for v, _ in succ:
            into[v] += 1
    order = [u for u in range(ctmc.n) if into[u] == 0]
    for u in order:  # Kahn's algorithm: a state enters once every predecessor has
        for v, _ in succs[u]:
            into[v] -= 1
            if into[v] == 0:
                order.append(v)
    assert len(order) == ctmc.n, "the chain has a cycle"
    # every distinct exit rate, summed exactly; a term names its rate by index
    exits = [sum(map(Fraction, (r for _, r in succ)), Fraction(0)) for succ in succs]
    distinct = list(dict.fromkeys(exits))
    index = {q: i for i, q in enumerate(distinct)}
    with localcontext(prec=dps, Emin=MIN_EMIN, Emax=MAX_EMAX):
        decimal = [Decimal(q.numerator) / q.denominator for q in distinct]
        gaps: dict[tuple[int, int], Decimal] = {}  # rate a minus rate q, from the exact sums
        ts = [Decimal(float(t)) for t in times]
        goal = [Decimal(0)] * len(ts)
        # per state still to solve: (rate, power) -> coefficient of its predecessors' rate-weighted sum
        inflow: list[dict | None] = [{} for _ in range(ctmc.n)]
        for u in order:
            q = index[exits[u]]
            terms: dict[tuple[int, int], Decimal] = {(q, 0): Decimal(1)} if u == ctmc.init else {}
            for (a, k), c in inflow[u].items():
                if a == q:
                    terms[(q, k + 1)] = terms.get((q, k + 1), 0) + c / (k + 1)
                    continue
                b = gaps.get((a, q))
                if b is None:
                    diff = distinct[a] - distinct[q]
                    b = gaps[(a, q)] = Decimal(diff.numerator) / diff.denominator
                # the integral of s^k e^(-b s) over [0, t] is k!/b^(k+1) (1 - e^(-b t) sum_m (b t)^m/m!)
                w = c * math.factorial(k) / b ** (k + 1)
                terms[(q, 0)] = terms.get((q, 0), 0) + w
                for m in range(k + 1):
                    terms[(a, m)] = terms.get((a, m), 0) - w * b ** m / math.factorial(m)
            inflow[u] = None
            for v, r in succs[u]:
                sums, r = inflow[v], Decimal(r)
                for key, c in terms.items():
                    sums[key] = sums.get(key, 0) + r * c
            if u in ctmc.goal:
                for i, t in enumerate(ts):
                    goal[i] += sum(c * t ** k * (-decimal[a] * t).exp() for (a, k), c in terms.items())
    return goal


def random_act(rng: random.Random, max_leaves: int = 12, allow_cm: bool = True,
               max_cms: int = 2, title: str = "random model") -> Act:
    """A deterministic random well-formed model with at most max_leaves attack leaves."""
    counter = [0]
    cms_left = [max_cms if allow_cm else 0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def leaf():
        return attack(fresh("a"), p=rng.uniform(0.02, 0.95), t=rng.choice([0.5, 1.0, 2.0]))

    def subtree(budget: int):
        if budget <= 1:
            return leaf()
        kids_n = rng.randint(2, min(3, budget))
        cuts = sorted(rng.sample(range(1, budget), kids_n - 1))
        shares = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        children = [subtree(s) for s in shares]
        if rng.random() < 0.5:
            return or_gate(fresh("or"), *children)
        gate_children = list(children)
        if cms_left[0] > 0 and rng.random() < 0.6:
            cms_left[0] -= 1
            gate_children.append(cm_gate(
                fresh("cm"),
                detect(fresh("d"), p=rng.uniform(0.1, 0.9), t=rng.choice([0.5, 1.0])),
                mitigate(fresh("m"), p=rng.uniform(0.1, 0.9), t=rng.choice([0.5, 1.0])),
            ))
        return and_gate(fresh("and"), *gate_children)

    budget = rng.randint(1, max_leaves)
    return build_act(title, subtree(budget))


def with_random_rates(act: Act, rng: random.Random, lo: float, hi: float) -> Act:
    """Same model with every leaf's rate drawn log-uniform in [lo, hi]; each leaf keeps its probability."""
    nodes = []
    for node in act.nodes:
        kind = node.kind
        if isinstance(kind, (AttackLeaf, DetectLeaf, MitigateLeaf)):
            rate = lo * (hi / lo) ** rng.random()
            kind = type(kind)(LeafTiming(p=kind.timing.p, lam=rate))
        nodes.append(Node(node.ident, node.name, kind))
    return Act(act.title, act.root, tuple(nodes))


# values of the numeric types' neighbours: text, bytes, complex and truth values, numpy's included
NO_NUMBERS = ("0.5", b"0.5", 0.5j, True, np.True_)


def malformed_specs() -> list[tuple[object, tuple[str, str]]]:
    """Builder specs that break a structural rule, each with the (code, node) of a diagnostic ``validate_act`` lists.

    The first is the one shape that the gate table, which holds no scenario,
    also rejects under no-cm: an AND whose only child is a countermeasure.
    """
    def cm(i=""):
        return cm_gate(f"cm{i}", detect(f"d{i}", p=0.5), mitigate(f"m{i}", p=0.5))

    a, b = attack("a", p=0.5), attack("b", p=0.5)
    return [
        (or_gate("top", a, and_gate("g", cm())), ("CmPlacement", "g")),
        (cm(), ("CmPlacement", "cm")),
        (detect("d", p=0.5), ("LeafPlacement", "d")),
        (or_gate("top", a, detect("d", p=0.5)), ("LeafPlacement", "d")),
        (and_gate("top", a, mitigate("m", p=0.5)), ("LeafPlacement", "m")),
        (and_gate("top", or_gate("o", a, detect("d", p=0.5)), cm(2)), ("LeafPlacement", "d")),
        (or_gate("top", a, cm()), ("CmPlacement", "cm")),
        (and_gate("top", a, cm(1), cm(2)), ("CmPlacement", "top")),
        # a countermeasure's slots hold one detection and then one mitigation event
        (and_gate("top", a, cm_gate("cm", mitigate("m", p=0.5), detect("d", p=0.5))), ("CmChildren", "cm")),
        (and_gate("top", a, cm_gate("cm", and_gate("g", attack("e", p=0.5)), mitigate("m", p=0.5))),
         ("CmChildren", "cm")),
        (and_gate("top", a, cm_gate("cm", attack("e", p=0.5), mitigate("m", p=0.5))), ("CmChildren", "cm")),
        # leaf parameters outside their ranges
        (or_gate("top", attack("a", p=2.0), b), ("LeafParam", "a")),
        (or_gate("top", attack("a", p=float("nan")), b), ("LeafParam", "a")),
        (or_gate("top", attack("a", p=0.5, t=-1.0), b), ("LeafParam", "a")),
        (or_gate("top", attack("a", lam=-1.0), b), ("LeafParam", "a")),
        (or_gate("top", attack("a", p=0.5, t=10**400), b), ("LeafParam", "a")),  # an integer past the doubles
        (and_gate("top", a, cm_gate("cm", detect("d", p=0.5, t=0.0), mitigate("m", p=0.5))), ("LeafParam", "d")),
        # leaf parameters that are no numbers, though float() reads some and all but text compare as numbers
        *((or_gate("top", leaf, b), ("LeafParam", "a")) for x in NO_NUMBERS
          for leaf in (attack("a", p=x), attack("a", p=0.5, t=x), attack("a", lam=x))),
    ]


def malformed_act(rng: random.Random) -> Act:
    """A ``random_act`` with one defect that ``validate_act`` reports; every node stays reachable from the root.

    One attack leaf becomes a detection event, a mitigation event or a
    countermeasure gate (only where a countermeasure is misplaced: at the
    root, under an OR, or beside a guard). Or one gate gains an extra child:
    an attack leaf that already has a parent, the gate itself or one of its
    ancestors, which closes a cycle, an id outside the node table, or a
    float id that names a node in it. Or an AND gate gains countermeasures
    until it holds two. Or a countermeasure swaps its slots, or one of its
    events becomes an attack event or a gate over a new attack leaf. Or one
    event gets a probability outside [0, 1] or NaN, a horizon that is not
    positive, a negative rate, or both a horizon and a rate. Or one event's
    ``p``, ``t`` or ``lam`` becomes one of ``NO_NUMBERS``.
    """
    act = random_act(rng, max_leaves=8, max_cms=2)
    nodes = list(act.nodes)
    parent = {c: nid for nid in range(len(nodes)) for c in act.children(nid)}
    leaves = list(act.attack_leaves())
    events = [nid for nid, node in enumerate(nodes) if isinstance(node.kind, (AttackLeaf, DetectLeaf, MitigateLeaf))]
    gates = [nid for nid, node in enumerate(nodes) if isinstance(node.kind, (AndGate, OrGate))]
    ands = [nid for nid in gates if isinstance(nodes[nid].kind, AndGate)]
    cms = list(act.cm_gates())
    misplaced_cm = [nid for nid in leaves if nid not in parent or isinstance(nodes[parent[nid]].kind, OrGate)
                    or act.guard(parent[nid]) is not None]
    shape = rng.choice(["detect", "mitigate", "p", "t", "lam", "both", "no number"] + ["cm"] * bool(misplaced_cm)
                       + ["shared", "cycle", "dangling"] * bool(gates) + ["two cms"] * bool(ands)
                       + ["swapped", "slot"] * bool(cms))

    def new_cm(ident: str, name: str) -> CmGate:
        """A countermeasure over two new events, appended to the table."""
        nodes.extend([Node(f"{ident}_d", f"{name} detection", DetectLeaf(LeafTiming(p=0.5, t=1.0))),
                      Node(f"{ident}_m", f"{name} mitigation", MitigateLeaf(LeafTiming(p=0.5, t=1.0)))])
        return CmGate(len(nodes) - 2, len(nodes) - 1)

    def set_kind(nid: int, kind) -> Act:
        nodes[nid] = Node(nodes[nid].ident, nodes[nid].name, kind)
        return Act(act.title, act.root, tuple(nodes))

    if shape in ("shared", "cycle", "dangling", "two cms"):
        gate = rng.choice(ands if shape == "two cms" else gates)
        if shape == "shared":
            extra = (rng.choice(leaves),)
        elif shape == "cycle":
            above = [gate]
            while above[-1] in parent:
                above.append(parent[above[-1]])
            extra = (rng.choice(above),)
        elif shape == "dangling":
            extra = (rng.choice([-1, len(nodes), len(nodes) + 3, float(rng.randrange(len(nodes)))]),)
        else:
            extra = ()
            for k in range(1 + (act.guard(gate) is None)):
                kind = new_cm(f"extra_cm{k}", f"extra cm{k}")
                nodes.append(Node(f"extra_cm{k}", f"extra cm{k}", kind))
                extra += (len(nodes) - 1,)
        return set_kind(gate, type(nodes[gate].kind)(nodes[gate].kind.children + extra))
    if shape in ("swapped", "slot"):
        cm = rng.choice(cms)
        detect_id, mitigate_id = nodes[cm].kind.children
        if shape == "swapped":
            return set_kind(cm, CmGate(mitigate_id, detect_id))
        slot = rng.choice([detect_id, mitigate_id])
        if rng.random() < 0.5:
            return set_kind(slot, AttackLeaf(nodes[slot].kind.timing))
        nodes.append(Node(f"{nodes[slot].ident}_a", f"{nodes[slot].name} attack", AttackLeaf(LeafTiming(p=0.5, t=1.0))))
        return set_kind(slot, AndGate((len(nodes) - 1,)))
    if shape in ("p", "t", "lam", "both", "no number"):
        nid = rng.choice(events)
        kind, timing = nodes[nid].kind, nodes[nid].kind.timing
        if shape == "no number":  # the field the leaf times by, or its probability
            field = rng.choice(["p", "lam" if timing.lam is not None else "t"])
            timing = replace(timing, **{field: rng.choice(NO_NUMBERS)})
        elif shape == "p":
            timing = LeafTiming(p=rng.choice([-0.5, 1.5, float("nan")]), t=timing.t)
        elif shape == "t":
            timing = LeafTiming(p=timing.p, t=rng.choice([0.0, -1.0]))
        elif shape == "lam":
            timing = LeafTiming(p=timing.p, lam=-rng.uniform(0.1, 2.0))
        else:
            timing = LeafTiming(p=timing.p, t=rng.choice([0.5, 2.0]), lam=rng.uniform(0.1, 2.0))
        return set_kind(nid, type(kind)(timing))
    nid = rng.choice(misplaced_cm if shape == "cm" else leaves)
    if shape == "cm":
        return set_kind(nid, new_cm(nodes[nid].ident, nodes[nid].name))
    return set_kind(nid, (DetectLeaf if shape == "detect" else MitigateLeaf)(nodes[nid].kind.timing))


def reverse_children(act: Act) -> Act:
    """Same model with every AND/OR child tuple reversed in place."""
    nodes = []
    for node in act.nodes:
        kind = node.kind
        if isinstance(kind, AndGate):
            kind = AndGate(tuple(reversed(kind.children)))
        elif isinstance(kind, OrGate):
            kind = OrGate(tuple(reversed(kind.children)))
        nodes.append(Node(node.ident, node.name, kind))
    return Act(act.title, act.root, tuple(nodes))


def or_chain_text(depth: int, lam: float) -> str:
    """An OR chain ``depth`` gates deep; its root time is Exp(depth * lam)."""
    lines = ['act "deep" {', "  root g0;"]
    for i in range(depth - 1):
        lines.append(f"  g{i} = OR(a{i}, g{i + 1});")
        lines.append(f"  a{i} = ATTACK(p=0.5, lambda={lam!r});")
    lines.append(f"  g{depth - 1} = ATTACK(p=0.5, lambda={lam!r});")
    return "\n".join(lines + ["}"]) + "\n"


def or_wide_text(width: int, lam: float) -> str:
    """One OR gate over ``width`` leaves; its root time is Exp(width * lam)."""
    lines = ['act "wide" {', "  root top;", "  top = OR(" + ", ".join(f"a{i}" for i in range(width)) + ");"]
    lines += [f"  a{i} = ATTACK(p=0.5, lambda={lam!r});" for i in range(width)]
    return "\n".join(lines + ["}"]) + "\n"


def and_of_ors(k: int) -> Act:
    """AND of ``k`` two-leaf ORs under one countermeasure; its chain grows exponentially in k.

    Leaf probabilities repeat every 13 ORs, so every k gives a valid model.
    """
    return build_act(f"and-or k={k}", and_gate(
        "top",
        *(or_gate(f"o{i}", attack(f"a{i}", p=0.3 + 0.05 * (i % 13)), attack(f"b{i}", p=0.4)) for i in range(k)),
        cm_gate("cm", detect("d", p=0.5), mitigate("m", p=0.7)),
    ))


def guarded_branch(i: int):
    """Spec of ``AND(OR(a, b), CM)`` whose leaf parameters vary with ``i``, repeating every 20."""
    j = i % 20
    return and_gate(
        f"g{i}",
        or_gate(f"o{i}", attack(f"a{i}", p=0.1 + 0.01 * j), attack(f"b{i}", p=0.2)),
        cm_gate(f"cm{i}", detect(f"d{i}", p=0.3 + 0.03 * j), mitigate(f"m{i}", p=0.6 - 0.02 * j)),
    )


def guarded_or(m: int) -> Act:
    """OR of ``m`` guarded branches; its whole chain grows exponentially in m."""
    return build_act(f"guarded or m={m}", or_gate("top", *(guarded_branch(i) for i in range(m))))


def branch_curves(m: int, chain_of_branch, times) -> np.ndarray:
    """Goal curve of each of the first ``m`` branches alone, by dense expm.

    ``chain_of_branch(act)`` turns a one-branch model into its Ctmc. The
    branches of ``guarded_or(m)`` are independent, so its curve is
    1 - prod(1 - P_i) without ever building the whole model's chain.
    """
    return np.array([expm_transient(chain_of_branch(build_act(f"branch {i}", guarded_branch(i))), times)
                     for i in range(m)])


def coo_export_text(ctmc) -> str:
    """``export_ctmc_text`` as it was written over scipy: the ``rates.tocoo()`` triples, sorted."""
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


def jump_matrix_lil(ctmc):
    """``transient._jump_chain`` built through scipy's LIL format: the rate, and the jump matrix's CSR arrays.

    The goal rows are cleared, the exit rates are scipy's row sums
    of what is left, and the rates are divided by the largest of them; then
    ``setdiag`` writes 1 - exit rate/rate, and a 1 goes in column n of each
    goal row and in column n + 1 of each absorbing row. The arrays are None
    at rate 0 or without a goal.
    """
    n, goal = ctmc.n, sorted(ctmc.goal)
    R = ctmc.rates.tolil()
    for g in goal:
        R.rows[g], R.data[g] = [], []
    R = R.tocsr()
    exit_rates = np.asarray(R.sum(axis=1)).ravel()
    rate = float(exit_rates.max(initial=0.0))
    if rate == 0.0 or not goal:
        return rate, None
    P = (R / rate).tolil()
    P.setdiag(1.0 - exit_rates / rate)
    P.resize((n, n + 2))
    P[goal, n] = 1.0
    P[np.flatnonzero(exit_rates == 0.0).tolist(), n + 1] = 1.0
    P = P.tocsr()
    return rate, (P.indptr, P.indices, P.data)


def dot_loop_transient(ctmc, times, epsilon: float = 1e-9) -> tuple[tuple[float, ...], dict]:
    """``transient_probability``'s ys and meta from the jump loop it used to run, one ``PT.dot`` per jump.

    Around the library's Poisson weights, this builds the transposed jump
    matrix PT through scipy's LIL format and keeps the loop the kernel call
    replaced: a fresh vector per jump, the goal and absorbed mass summed by
    numpy over fancy-indexed states, and the goal masses in an array sized
    to the right truncation point. It reads the goal as absorbing only where
    the chain does, so it is the reference for chains whose goal states
    have no exits.
    """
    from actkit.transient import _poisson_mix, _poisson_windows

    ts = np.asarray(times, dtype=float)
    goal = np.array(sorted(ctmc.goal), dtype=np.intp)
    meta = {"method": "uniformization", "epsilon": epsilon, "states": ctmc.n, "model": ctmc.title}
    exit_rates = np.asarray(ctmc.rates.sum(axis=1)).ravel()
    rate = float(exit_rates.max(initial=0.0))
    if rate == 0.0 or not goal.size:
        return tuple(float(ctmc.init in ctmc.goal) for _ in ts), meta
    P = (ctmc.rates / rate).tolil()
    P.setdiag(1.0 - exit_rates / rate)
    PT = P.tocsr().T.tocsr()
    mus = rate * ts
    lo, hi = _poisson_windows(mus, epsilon / 4.0)
    right = int(hi[-1])
    absorbing = np.flatnonzero(exit_rates == 0.0)
    v = np.zeros(ctmc.n)
    v[ctmc.init] = 1.0
    g = np.empty(right + 1)
    steps = 0
    while True:
        g[steps] = v[goal].sum()
        tail = 1.0 - v[absorbing].sum()
        if tail <= epsilon / 2.0 or steps == right:
            break
        v = PT.dot(v)
        steps += 1
    ys = np.clip(_poisson_mix(g[:steps + 1], mus, lo, np.minimum(hi, steps)), 0.0, 1.0)
    meta.update(uniformization_rate=rate, poisson_terms=steps, right_point=right, tail_mass=max(float(tail), 0.0))
    meta["error_bound"] = epsilon / 2.0 + (meta["tail_mass"] if tail <= epsilon / 2.0 else 0.0)
    return tuple(float(y) for y in ys), meta


def and_race_curve(attack_rates, detect_rate: float, mitigate_rate: float, times) -> np.ndarray:
    """Goal curve of AND(leaves, CM) in closed form, for distinct detect and mitigate rates.

    The AND's density is sum over nonempty leaf subsets S of (-1)^(|S|+1) L_S e^(-L_S s),
    L_S the subset's rate sum, and the countermeasure's survival is
    (m e^(-ds) - d e^(-ms)) / (m - d); each term integrates to exponentials.
    Exact where a rate is too fast for a matrix exponential.
    """
    d, m = detect_rate, mitigate_rate
    ts = np.asarray(times, dtype=float)
    out = np.zeros_like(ts)
    n = len(attack_rates)
    for mask in range(1, 1 << n):
        lam = sum(rate for i, rate in enumerate(attack_rates) if mask >> i & 1)
        sign = 1.0 if bin(mask).count("1") % 2 else -1.0
        out += sign * lam / (m - d) * (m * -np.expm1(-(lam + d) * ts) / (lam + d)
                                       - d * -np.expm1(-(lam + m) * ts) / (lam + m))
    return out


# One group per token kind, and one for a run of blanks or a comment, each
# matched on its own
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|\#[^\n]*)
  | (?P<punct>[{}();,=])
  | "(?P<string>(?:[^"\\]|\\.)*)"
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?)
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r'\\(["\\])')


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Every token of ``text`` as (kind, value, line, column), ending with 'eof', or the ActParseError it raises.

    One anchored ``_TOKEN.match`` per token and per gap between tokens,
    counting lines as it goes, so it shares no code with
    ``actkit.dsl._tokenize``, which matches each token together with the
    blanks before it and works out a position only for an error.
    """
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            if text[pos] == '"':
                raise ActParseError("unterminated string", line, col)
            raise ActParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, word = m.lastgroup, m.group(m.lastgroup)
        if kind == "number":
            try:
                float(word)
            except ValueError:
                raise ActParseError(f"bad number {word!r}", line, col) from None
        elif kind == "string":
            word = _ESCAPE.sub(r"\1", word)
        if kind != "skip":
            tokens.append((kind, word, line, col))
        pos = m.end()
        newlines = text.count("\n", m.start(), pos)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", m.start(), pos) + 1
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens
