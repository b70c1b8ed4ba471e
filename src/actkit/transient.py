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

``goal_curve`` answers the same question for a model without building any
chain. Sibling subtrees share no node, so their completion times are
independent and their curves combine in closed form; only an AND gate
guarded by a countermeasure races, and its curve is the integral of its
attack side's density times the countermeasure's survival. That integral
is taken by cumulative Chebyshev quadrature on panels of the grid, bisected
until each race's estimated error is within its share of ``epsilon``.
``goal_curves`` holds that evaluation for ``goal_curve`` and for
countermeasure ranking, which recomputes only the path from each removed
countermeasure to the root.

The simulator replays the same race semantics with sampled
exponential completion times and reports binomial half-widths.
``simulate_curves`` folds one draw into the curves of several sets of
attack-leaf rates, as the CLI's ``--pleaf`` values give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .errors import DomainError
from .model import Act, AndGate, AttackLeaf, OrGate, Scenario
from .semantics import Ctmc, _CmRates, attack_side, collect_rates

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

    if not ts[-1] < 2.0**53 / rate:  # past this, doubles no longer count the jumps
        raise DomainError(f"uniformization at rate {rate:g} to t = {ts[-1]:g} takes too many jumps")
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
) -> CurveResult:
    """P[goal reached by t] for each grid point, within ``epsilon``, without a chain.

    Gates without a countermeasure combine in closed form. Each countermeasure
    race is integrated by cumulative quadrature to within ``epsilon``
    divided by the number of countermeasures; products of values in [0, 1]
    move by at most the sum of their factors' errors, so the curve is within
    the sum of the races' estimated errors, at most ``epsilon``. ``meta``
    counts the ``guards`` integrated, the ``panels`` and quadrature ``nodes``
    they took, and sums their ``error_bound``.
    """
    ts, [ys], stats = goal_curves(act, scenario, times, epsilon)
    meta = {"method": "quadrature", "epsilon": epsilon, "model": act.title, **stats}
    return CurveResult(tuple(ts), tuple(float(y) for y in ys), scenario, meta)


def goal_curves(
    act: Act,
    scenario: Scenario,
    times: Sequence[float],
    epsilon: float,
    removed: Sequence[int] = (),
) -> tuple[np.ndarray, list[np.ndarray], dict]:
    """Goal curve of one validated model under ``scenario``, then one per countermeasure gate in ``removed`` read as removed.

    Bottom-up, an attack leaf gives 1 - exp(-rate t), an OR 1 - prod(1 - F_c)
    and an AND prod(F_c) over its attack-side children; an AND gate whose
    countermeasure has a law under ``scenario`` and is not removed is a
    ``_race`` at ``epsilon`` divided by the number of such laws. Every
    node's curve is kept, so a removal recomputes only the path from its
    gate, or from the outermost race holding it, to the root. Returns the
    grid, the curves and the summed ``_race`` statistics of the first one.
    Raises what ``collect_rates`` raises.
    Package-internal: ``actkit`` does not export it.
    """
    _check_epsilon(epsilon)
    ts = _check_grid(times)
    leaf_rates, cm_rates = collect_rates(act, scenario)
    share = epsilon / max(len(cm_rates), 1)
    order = act.postorder()
    guards = {nid: cm for nid in order if (cm := act.guard(nid)) in cm_rates}
    owner = {cm: nid for nid, cm in guards.items()}
    sides = {nid: attack_side(act, nid, scenario) for nid in order
             if isinstance(act.nodes[nid].kind, (AndGate, OrGate))}
    parent = {c: nid for nid, kids in sides.items() for c in kids}
    curves: dict[int, np.ndarray] = {}  # each node's curve with nothing removed
    stats = {"guards": 0, "panels": 0, "nodes": 0, "error_bound": 0.0}

    def race(gate: int, gone: frozenset[int]) -> np.ndarray:
        ys, solved = _race(act, gate, gone, ts, leaf_rates, cm_rates, share)
        for key, value in solved.items():
            stats[key] += value
        return ys

    def evaluate(top: int) -> np.ndarray:
        """Fill ``curves`` for every node under ``top`` that no race below ``top`` holds."""
        stack = [(top, False)]
        while stack:
            nid, expanded = stack.pop()
            if nid in curves:
                continue
            kind = act.nodes[nid].kind
            if nid in guards:
                curves[nid] = race(nid, frozenset())
            elif isinstance(kind, AttackLeaf):
                curves[nid] = -np.expm1(-leaf_rates[nid] * ts)
            elif expanded:
                curves[nid] = _combine(kind, np.array([curves[c] for c in sides[nid]]))
            elif nid in sides:
                stack.append((nid, True))
                stack.extend((c, False) for c in sides[nid])
            else:
                raise DomainError(f"cannot evaluate node kind {type(kind).__name__}")
        return curves[top]

    def without(cm: int) -> np.ndarray:
        gate = v = owner[cm]
        top = None
        while v in parent:
            v = parent[v]
            top = v if v in guards else top
        if top is None:
            v, ys = gate, _combine(act.nodes[gate].kind, np.array([evaluate(c) for c in sides[gate]]))
        else:
            v, ys = top, race(top, frozenset({cm}))
        while v in parent:
            up = parent[v]
            v, ys = up, _combine(act.nodes[up].kind, np.array([ys if c == v else curves[c] for c in sides[up]]))
        return ys

    # a fast leaf's rate * t may overflow to inf, which every closed form
    # reads as certain completion
    with np.errstate(over="ignore"):
        result = [evaluate(act.root)]
        first = dict(stats)
        result += [without(cm) for cm in removed]
    return ts, result, first


def _combine(kind, ys: np.ndarray) -> np.ndarray:
    """An OR's or an AND's completion probability from its children's, stacked on axis 0."""
    if isinstance(kind, OrGate):
        return 1.0 - (1.0 - ys).prod(axis=0)
    return ys.prod(axis=0)


def _others(xs: np.ndarray) -> np.ndarray:
    """Row i: the product of every row of ``xs`` but row i, by prefix and suffix products."""
    if len(xs) == 2:
        return xs[::-1]
    out = np.empty_like(xs)
    out[0] = 1.0
    xs[:-1].cumprod(axis=0, out=out[1:])
    out[:-1] *= xs[:0:-1].cumprod(axis=0)[::-1]
    return out


def _survival(rates: _CmRates, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P[detection plus mitigation takes longer than s], and its density.

    Hypoexponential, written around the smaller rate a and the gap d to
    the larger one b, so it neither cancels when d is small nor overflows:
    e^{-as}(1 + a(1 - e^{-ds})/d), with density ab e^{-as}(1 - e^{-ds})/d,
    which is Erlang-2 at d = 0 and 1 when a rate is 0. Instant mitigation
    leaves the detection time alone.
    """
    if rates.mitigate is None:
        survival = np.exp(-rates.detect * s)
        return survival, rates.detect * survival
    a, b = sorted((rates.detect, rates.mitigate))
    ramp = s if b == a else -np.expm1(-(b - a) * s) / (b - a)
    decay = np.exp(-a * s)
    return decay * (1.0 + a * ramp), a * b * decay * ramp


def _cumulative_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Chebyshev-Lobatto nodes on [-1, 1], ascending, and the matrix taking
    values at them to their interpolant's integral from -1 to each node."""
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    coef = np.linalg.inv(chebyshev.chebvander(x, n - 1))
    q = chebyshev.chebvander(x, n) @ chebyshev.chebint(coef, lbnd=-1, axis=0)
    q[0] = 0.0
    return x, q


_NODES, _CUMULATIVE = _cumulative_rule(17)
# the rule's integrals at every other node minus those of the nested 9-node
# rule on the same nodes: an estimate of the error of the coarser rule
_ESTIMATE = _CUMULATIVE[::2].copy()
_ESTIMATE[:, ::2] -= _cumulative_rule(9)[1]
_WEIGHTS = _CUMULATIVE[-1]  # the rule's integral over the whole panel
_ROUNDING = 64.0 * np.finfo(float).eps
# weights of a panel's left and right ends at each node
_LEFT, _RIGHT = (1.0 - _NODES) / 2.0, (1.0 + _NODES) / 2.0


def _race(act: Act, gate: int, gone: frozenset[int], ts: np.ndarray,
          leaf_rates: dict[int, float], cm_rates: dict[int, _CmRates], share: float) -> tuple[np.ndarray, dict]:
    """Completion probability at ``ts`` of a guarded gate, by cumulative quadrature.

    The attack side and the countermeasure are independent, so the gate's
    density is g = f_A S_D (attack-side density times countermeasure
    survival) and F_G(t) = int_0^t g. The panels, [0, ts[0]] and the grid
    intervals, get 17 Chebyshev-Lobatto nodes each. One post-order pass over
    the subtree carries every node's (F, f) there: closed forms at leaves,
    the product rule at gates, and the running integral of g at each guard
    with a law in ``cm_rates`` and not in ``gone``. A guard's error on a
    panel is estimated as the largest gap to the nested 9-node rule. That
    estimate reads only samples, so the rule must also reproduce each
    panel's exact integrals of f_A (F_A's rise) and of the countermeasure's
    density (S_D's fall, weighted by F_A's rise). A panel is bisected while
    its guard's summed gaps and misses exceed ``share`` and its own gap or
    miss exceeds the panel's part of ``share``, unless that is rounding
    noise. Returns the curve and the last pass's ``guards``, ``panels``,
    ``nodes`` and summed ``error_bound`` (the gaps).
    """
    order = act.postorder(gate)
    edges = ts if ts[0] == 0.0 else np.concatenate(([0.0], ts))
    while True:
        h = edges[1:] - edges[:-1]
        half = (h / 2.0)[:, None]
        s = edges[:-1, None] * _LEFT + edges[1:, None] * _RIGHT
        values: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        estimates = []
        for nid in order:
            kind = act.nodes[nid].kind
            if isinstance(kind, AttackLeaf):
                rate = leaf_rates[nid]
                values[nid] = (-np.expm1(-rate * s), rate * np.exp(-rate * s))
                continue
            if not isinstance(kind, (AndGate, OrGate)):
                continue
            cm = act.guard(nid)
            kids = [values.pop(c) for c in kind.children if c != cm]
            if len(kids) == 1:
                (F, f), = kids
            else:
                Fs, fs = np.array([k[0] for k in kids]), np.array([k[1] for k in kids])
                F = _combine(kind, Fs)
                f = (fs * _others(1.0 - Fs if isinstance(kind, OrGate) else Fs)).sum(axis=0)
            if cm in cm_rates and cm not in gone:
                survival, density = _survival(cm_rates[cm], s)
                # both factors' exact integrals over each panel, which the rule
                # must reproduce: a density that peaks between two nodes shows
                # here even when every sample of g misses it
                rise = F[:, -1] - F[:, 0]
                miss = (np.abs(half[:, 0] * (f @ _WEIGHTS) - rise)
                        + np.abs(half[:, 0] * (density @ _WEIGHTS) - survival[:, 0] + survival[:, -1]) * rise)
                noise = _ROUNDING * h * np.abs(f).max(axis=1) + _ROUNDING * F[:, -1]  # h * f may overflow
                f = f * survival
                cumulative = half * (f @ _CUMULATIVE.T)
                offsets = np.zeros((h.size, 1))
                cumulative[:-1, -1:].cumsum(axis=0, out=offsets[1:])
                F = offsets + cumulative
                estimates.append((half[:, 0] * np.abs(f @ _ESTIMATE.T).max(axis=1), miss, noise))
            values[nid] = (F, f)
        mids = (edges[:-1] + edges[1:]) / 2.0
        split = (edges[:-1] < mids) & (mids < edges[1:])
        wide = np.zeros_like(split)
        for gap, miss, noise in estimates:
            if gap.sum() + miss.sum() > share:
                wide |= np.maximum(gap, miss) > np.maximum(share * h / edges[-1], noise)
        if not (split & wide).any():
            break
        edges = np.sort(np.concatenate((edges, mids[split & wide])))
    F = values[gate][0]
    ys = np.concatenate(([0.0], F[:, -1]))[np.searchsorted(edges, ts)]  # nothing completes at 0
    return ys, {"guards": len(estimates), "panels": h.size, "nodes": F.size,
                "error_bound": float(sum(gap.sum() for gap, _, _ in estimates))}


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
    A leaf's time is a unit exponential times 1/rate, so calls with the same
    seed whose models differ only in positive attack-leaf rates read the
    same draws, and their curves are positively correlated (common random
    numbers). The CLI's ``--pleaf`` curves of one scenario are such a set,
    folded from one draw by ``simulate_curves``; this is its one-model case.
    """
    leaf_rates, _ = collect_rates(act, scenario)
    return simulate_curves(act, scenario, times, runs, seed, [leaf_rates])[0]


def simulate_curves(
    act: Act,
    scenario: Scenario,
    times: Sequence[float],
    runs: int,
    seed: int,
    leaf_rates: Sequence[dict[int, float]],
) -> list[CurveResult]:
    """``simulate``'s curve of one validated model under ``scenario`` for each dict of attack-leaf rates.

    Each curve is bit for bit the one ``simulate`` gives for the model with
    those leaf rates. A leaf of rate 0 draws nothing, so the dicts are
    grouped by the leaves that draw, and each group replays ``seed`` once:
    per chunk, one unit exponential array per drawing leaf in the dict's
    order, then the countermeasure phases, which no leaf rate changes. Each
    dict folds those draws, scaling a leaf's units by 1/rate where its parent
    reads them, the product ``Generator.exponential`` forms. The curves of
    one group share their draws (common random numbers), so they are
    positively correlated. Package-internal: ``actkit`` does not export it.
    """
    if runs <= 0:
        raise DomainError("runs must be positive")
    ts = _check_grid(times)
    _, cm_rates = collect_rates(act, scenario)
    order = act.postorder()
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, rates in enumerate(leaf_rates):
        groups.setdefault(tuple(nid for nid, rate in rates.items() if rate > 0.0), []).append(i)
    counts = np.zeros((len(leaf_rates), ts.size), dtype=np.int64)
    for drawn, members in groups.items():
        sampled = len(leaf_rates[members[0]]) + sum(1 if r.mitigate is None else 2 for r in cm_rates.values())
        chunk = min(_CHUNK, max(1, _CHUNK_VALUES // sampled))
        rng = np.random.Generator(np.random.Philox(seed))
        remaining = runs
        while remaining > 0:
            size = min(chunk, remaining)
            remaining -= size
            units = {nid: rng.standard_exponential(size) for nid in drawn}
            deadlines = {}
            for nid, rates in cm_rates.items():
                deadline = _sample_exponential(rng, rates.detect, size)
                if rates.mitigate is not None:
                    deadline = deadline + _sample_exponential(rng, rates.mitigate, size)
                deadlines[nid] = deadline
            for i in members:
                scales = {nid: 1.0 / leaf_rates[i][nid] for nid in drawn}
                root_time = _fold_chunk(act, order, size, units, scales, deadlines)
                counts[i] += np.searchsorted(np.sort(root_time), ts, side="right")

    meta = {
        "method": "monte-carlo",
        "rng": _RNG_NAME,
        "seed": seed,
        "runs": runs,
        "model": act.title,
    }
    curves = []
    for row in counts:
        phat = row / runs
        sigma = np.sqrt(phat * (1.0 - phat) / runs)
        curves.append(CurveResult(tuple(ts), tuple(float(p) for p in phat), scenario, dict(meta),
                                  halfwidths=tuple(float(3.0 * s) for s in sigma)))
    return curves


def _fold_chunk(act: Act, order: list[int], size: int, units: dict[int, np.ndarray],
                scales: dict[int, float], deadlines: dict[int, np.ndarray]) -> np.ndarray:
    """Root completion times of one chunk, folded bottom-up in post-order without recursion.

    A leaf's times are its ``units`` times its scale, formed when its parent
    reads them; a leaf without units never completes. Each gate folds its
    attack-side children into the first one's fresh array in place.
    """
    times: dict[int, np.ndarray] = {}

    def read(nid: int) -> np.ndarray:
        if nid in times:
            return times.pop(nid)
        if nid in units:
            return units[nid] * scales[nid]
        return np.full(size, np.inf)

    for nid in order:
        kind = act.nodes[nid].kind
        if isinstance(kind, (AndGate, OrGate)):
            cm = act.guard(nid)
            first, *rest = (c for c in kind.children if c != cm)
            done = read(first)
            fold = np.minimum if isinstance(kind, OrGate) else np.maximum
            for c in rest:
                fold(done, read(c), out=done)
            if cm in deadlines:
                done[done >= deadlines[cm]] = np.inf
            times[nid] = done
    if not isinstance(act.nodes[act.root].kind, (AttackLeaf, AndGate, OrGate)):
        raise DomainError(f"cannot simulate node kind {type(act.nodes[act.root].kind).__name__}")
    return read(act.root)
