"""Time-dependent goal probability: uniformization solver and Monte Carlo check.

The solver computes P[in goal at t] for the absorbing chain by
uniformization: the chain is embedded into a discrete-time jump chain at a
uniform rate Λ and the transient distribution becomes a Poisson-weighted sum
of its powers, y(t) = sum_k Pois(k; Λt) g_k, where g_k is the goal mass
after k jumps. The sum is truncated three ways, and the tolerance ``epsilon``
is split between them:

- the jump chain is iterated only until the mass left in non-absorbing
  states (exit rate > 0) is at most ``epsilon/2``, or until the right
  point R of the largest horizon. Every later g_k lies within that leftover
  mass of the last one, so each time point's Poisson tail beyond the stop
  is put on the last g value;
- each time point only weighs the terms in its own window [L_t, R_t].
  Chernoff bounds on the Poisson tails put at most ``epsilon/4`` below L_t
  and at most ``epsilon/4`` above R_t.

The three parts add up to at most ``epsilon``; ``meta["error_bound"]``
records the sum. The cost is one sparse matrix-vector product per jump,
until absorption or R, and memory O(n + K + |grid|·window), where K is the
number of jumps taken and the window width is O(sqrt(Λt)).

``goal_curve`` answers the same question for a model without building
the whole tree's chain. Sibling subtrees share no node, so their completion
times are independent and their curves combine in closed form; only an AND
gate guarded by a countermeasure races, and each outermost such gate is
solved as its own small chain. ``goal_curves`` holds that evaluation for
``goal_curve`` and for countermeasure ranking: it checks the tolerance and
the grid, splits ``epsilon`` between the chains and solves each distinct
chain once across all the curves it is asked for.

The simulator replays the same race semantics with sampled
exponential completion times and reports binomial half-widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model import (
    Act,
    AndGate,
    AttackLeaf,
    OrGate,
    Scenario,
    apply_scenario,
    remove_cm_gates,
)
from .semantics import DEFAULT_STATE_CAP, Ctmc, _leaf_rate, collect_rates, compose

_RNG_NAME = "philox4x64"
_CHUNK = 1 << 17
_CHUNK_VALUES = 1 << 22  # sampled doubles per chunk across all arrays: 32 MB


@dataclass(frozen=True)
class CurveResult:
    """Goal probability sampled on a time grid.

    ``halfwidths`` holds three-sigma binomial half-widths for simulated
    curves and is None for solver output. ``meta`` records where the numbers
    came from (model, scenario, tolerance or run count and seed).
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    scenario: Scenario | None
    meta: dict
    halfwidths: tuple[float, ...] | None = None


def _check_grid(times: Sequence[float]) -> np.ndarray:
    ts = np.asarray(list(times), dtype=float)
    if ts.size == 0:
        raise DomainError("time grid is empty")
    if not np.all(np.isfinite(ts)) or ts[0] < 0.0:
        raise DomainError("time grid must be finite and non-negative")
    if np.any(np.diff(ts) <= 0.0):
        raise DomainError("time grid must be strictly increasing")
    return ts


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 1e-3:
        raise DomainError(f"epsilon must lie in (0, 1e-3], got {epsilon!r}")


def transient_probability(ctmc: Ctmc, times: Sequence[float], epsilon: float = 1e-9) -> CurveResult:
    """P[goal reached by t] for each grid point, within ``epsilon``.

    Parameters
    ----------
    ctmc : Ctmc
        Absorbing chain from ``compose``.
    times : sequence of float
        Strictly increasing grid of hours, each >= 0.
    epsilon : float
        Truncation tolerance in (0, 1e-3]. Halving it never moves any output
        by more than the previous value.
    """
    _check_epsilon(epsilon)
    ts = _check_grid(times)

    goal = np.array(sorted(ctmc.goal), dtype=np.intp)
    meta = {
        "method": "uniformization",
        "epsilon": epsilon,
        "states": ctmc.n,
        "model": ctmc.title,
    }
    n = ctmc.n
    exit_rates = np.asarray(ctmc.rates.sum(axis=1)).ravel()
    rate = float(exit_rates.max(initial=0.0))
    init_in_goal = 1.0 if ctmc.init in ctmc.goal else 0.0
    if rate == 0.0 or not goal.size:
        ys = tuple(init_in_goal if goal.size else 0.0 for _ in ts)
        return CurveResult(tuple(ts), ys, ctmc.scenario, meta)

    # uniformized jump chain
    P = (ctmc.rates / rate).tolil()
    P.setdiag(1.0 - exit_rates / rate)
    PT = P.tocsr().T.tocsr()

    mus = rate * ts
    lo, hi = _poisson_windows(mus, epsilon / 4.0)
    right = int(hi[-1])
    stop_mass = epsilon / 2.0
    # absorbing states are usually few, so the leftover transient mass is
    # cheapest to read as one minus their mass
    absorbing = np.flatnonzero(exit_rates == 0.0)

    v = np.zeros(n)
    v[ctmc.init] = 1.0
    g = np.empty(right + 1)
    steps = 0
    while True:
        g[steps] = v[goal].sum()
        tail = 1.0 - v[absorbing].sum()
        if tail <= stop_mass or steps == right:
            break
        v = PT.dot(v)
        steps += 1
    g = g[:steps + 1]

    ys = np.clip(_poisson_mix(g, mus, lo, np.minimum(hi, steps)), 0.0, 1.0)
    meta["uniformization_rate"] = rate
    meta["poisson_terms"] = steps
    meta["right_point"] = right
    meta["tail_mass"] = max(float(tail), 0.0)
    # a chain still running at the right point puts its leftover mass only on
    # terms past R, whose weight the right-window share already bounds
    meta["error_bound"] = epsilon / 2.0 + (meta["tail_mass"] if tail <= stop_mass else 0.0)
    return CurveResult(tuple(ts), tuple(float(y) for y in ys), ctmc.scenario, meta)


def _poisson_windows(mus: np.ndarray, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mean index windows [L, R] with at most ``tail`` Poisson mass on each side.

    Chernoff bounds: P[N <= mu - x] <= exp(-x^2 / (2 mu)) and
    P[N >= mu + x] <= exp(-x^2 / (2 (mu + x/3))), solved for x at ``tail``.
    """
    a = -math.log(tail)
    lo = np.maximum(np.ceil(mus - np.sqrt(2.0 * a * mus)), 0.0)
    hi = np.floor(mus + a / 3.0 + np.sqrt(a * a / 9.0 + 2.0 * a * mus))
    hi[mus == 0.0] = 0.0  # all mass on k = 0; _poisson_mix relies on it
    return lo.astype(np.intp), hi.astype(np.intp)


def _poisson_mix(g: np.ndarray, mus: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """sum_k Pois(k; mu) g_min(k, S) for each mu, over the windows [lo, hi].

    S is the last index of ``g``. Written as g_S - sum_k w_k (g_S - g_k), so
    only windows that start at or below S need weights, and the weight
    outside a window stays on g_S. The weights come from one log-factorial table
    per call.
    """
    counts = np.maximum(hi - lo + 1, 0)
    last = g[-1]
    row = np.repeat(np.arange(mus.size), counts)
    ks = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    log_fact = np.fromiter(map(math.lgamma, range(1, int(hi.max()) + 2)), float)
    log_mus = np.log(np.where(mus > 0.0, mus, 1.0))
    weights = np.exp(ks * log_mus[row] - mus[row] - log_fact[ks])
    return last - np.bincount(row, weights * (last - g[ks]), minlength=mus.size)


def goal_curve(
    act: Act,
    scenario: Scenario,
    times: Sequence[float],
    epsilon: float = 1e-9,
    state_cap: int = DEFAULT_STATE_CAP,
) -> CurveResult:
    """P[goal reached by t] for each grid point, within ``epsilon``, chain by chain.

    Each outermost guarded AND gate is solved with ``compose`` and
    ``transient_probability`` at ``epsilon`` divided by the number of
    countermeasures, so ``state_cap`` bounds each of those chains, not the
    whole tree's. Everything else combines in closed form. Products of
    values in [0, 1] move by at most the sum of their factors' errors, so
    the curve is within the sum of the chains' bounds, at most ``epsilon``.
    A model whose root is guarded is solved as one chain.
    """
    ts, [(ys, chains)] = goal_curves(apply_scenario(act, scenario), [frozenset()], times, epsilon, state_cap)
    meta = {
        "method": "compositional",
        "epsilon": epsilon,
        "model": act.title,
        "chains": len(chains),
        "states": sum(m["states"] for m in chains),
        # a chain that never leaves its initial state is solved exactly
        "poisson_terms": sum(m.get("poisson_terms", 0) for m in chains),
        "error_bound": sum((m.get("error_bound", 0.0) for m in chains), 0.0),
    }
    return CurveResult(tuple(ts), tuple(float(y) for y in ys), scenario, meta)


def goal_curves(
    act: Act,
    removed: Sequence[frozenset[int]],
    times: Sequence[float],
    epsilon: float,
    state_cap: int,
) -> tuple[np.ndarray, list[tuple[np.ndarray, list[dict]]]]:
    """Goal curves of one validated model on one grid, one per set of countermeasures read as removed.

    Bottom-up over ``postorder()``, an attack leaf gives 1 - exp(-rate t), an
    OR 1 - prod(1 - F_c) and an AND prod(F_c) over its attack-side children.
    An AND gate that keeps its countermeasure is one chain: ``compose`` of
    the view ``Act(title, gate, nodes)`` less the removed gates inside it,
    solved at ``epsilon`` divided by the model's countermeasure count. Curves
    that share a (gate, removed gates inside) chain solve it once. Returns
    the grid and, per set, its curve and each chain's ``meta`` in post-order.
    Package-internal: ``actkit`` does not export it.
    """
    _check_epsilon(epsilon)
    ts = _check_grid(times)
    share = epsilon / max(sum(1 for _ in act.cm_gates()), 1)
    order = act.postorder()
    guards = {nid: cm for nid in order if (cm := act.guard(nid)) is not None}
    solved: dict[tuple[int, frozenset[int]], CurveResult] = {}
    results = []
    for gone in removed:
        live = {nid for nid, cm in guards.items() if cm not in gone}
        # the chain gate above each node below one; reverse post-order visits parents first
        inside: dict[int, int] = {}
        for nid in reversed(order):
            gate = inside.get(nid, nid if nid in live else None)
            if gate is not None:
                for c in act.children(nid):
                    inside[c] = gate
        curves: dict[int, np.ndarray] = {}
        chains: list[dict] = []
        for nid in order:
            kind = act.nodes[nid].kind
            if nid in inside:
                continue
            if nid in live:
                under = frozenset(cm for cm in gone if inside.get(cm) == nid)
                chain = solved.get((nid, under))
                if chain is None:
                    view = Act(act.title, nid, act.nodes)
                    view = remove_cm_gates(view, under) if under else view
                    chain = solved[nid, under] = transient_probability(compose(view, Scenario.FULL, state_cap), ts, share)
                chains.append(chain.meta)
                curves[nid] = np.asarray(chain.ys)
            elif isinstance(kind, AttackLeaf):
                curves[nid] = -np.expm1(-_leaf_rate(act, nid) * ts)
            elif isinstance(kind, OrGate):
                curves[nid] = 1.0 - np.prod([1.0 - curves.pop(c) for c in kind.children], axis=0)
            elif isinstance(kind, AndGate):
                curves[nid] = np.prod([curves.pop(c) for c in kind.children if c != guards.get(nid)], axis=0)
        if act.root not in curves:
            raise DomainError(f"cannot evaluate node kind {type(act.nodes[act.root].kind).__name__}")
        results.append((curves[act.root], chains))
    return ts, results


def _sample_exponential(rng, rate: float, size: int) -> np.ndarray:
    if rate <= 0.0:
        return np.full(size, np.inf)
    return rng.exponential(1.0 / rate, size)


def simulate(
    act: Act,
    scenario: Scenario,
    times: Sequence[float],
    runs: int,
    seed: int,
) -> CurveResult:
    """Monte Carlo estimate of the timed goal probability.

    Each run draws one exponential completion time per attack leaf and per
    countermeasure phase, then evaluates the tree bottom-up: OR takes the
    earliest child, AND the latest attack-side child unless that time is
    beaten by the countermeasure's detection plus mitigation total, in which
    case the gate never succeeds. Deterministic for fixed (seed, runs, grid).
    Runs are drawn in chunks of at most 2^17, and of at most 2^22 sampled
    values in all, so memory stays bounded however many leaves the model has.
    """
    if runs <= 0:
        raise DomainError("runs must be positive")
    ts = _check_grid(times)
    resolved = apply_scenario(act, scenario)
    leaf_rates, cm_rates = collect_rates(resolved)

    sampled = len(leaf_rates) + sum(1 if r.mitigate is None else 2 for r in cm_rates.values())
    chunk = min(_CHUNK, max(1, _CHUNK_VALUES // sampled))
    rng = np.random.Generator(np.random.Philox(seed))
    counts = np.zeros(ts.size, dtype=np.int64)
    remaining = runs
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        samples = {nid: _sample_exponential(rng, rate, size) for nid, rate in leaf_rates.items()}
        deadlines = {}
        for nid, rates in cm_rates.items():
            deadline = _sample_exponential(rng, rates.detect, size)
            if rates.mitigate is not None:
                deadline = deadline + _sample_exponential(rng, rates.mitigate, size)
            deadlines[nid] = deadline
        root_time = _completion_times(resolved, samples, deadlines)
        counts += np.searchsorted(np.sort(root_time), ts, side="right")

    phat = counts / runs
    sigma = np.sqrt(phat * (1.0 - phat) / runs)
    meta = {
        "method": "monte-carlo",
        "rng": _RNG_NAME,
        "seed": seed,
        "runs": runs,
        "model": act.title,
    }
    return CurveResult(tuple(ts), tuple(float(p) for p in phat), scenario, meta,
                       halfwidths=tuple(float(3.0 * s) for s in sigma))


def _completion_times(act: Act, samples, deadlines) -> np.ndarray:
    """Root completion times, folded bottom-up in post-order without recursion."""
    times = {}
    for nid in act.postorder():
        kind = act.nodes[nid].kind
        if isinstance(kind, AttackLeaf):
            times[nid] = samples[nid]
        elif isinstance(kind, OrGate):
            times[nid] = np.minimum.reduce([times.pop(c) for c in kind.children])
        elif isinstance(kind, AndGate):
            cm = act.guard(nid)
            done = np.maximum.reduce([times.pop(c) for c in kind.children if c != cm])
            times[nid] = done if cm is None else np.where(done < deadlines[cm], done, np.inf)
    if act.root not in times:
        raise DomainError(f"cannot simulate node kind {type(act.nodes[act.root].kind).__name__}")
    return times[act.root]
