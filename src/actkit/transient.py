"""Time-dependent goal probability: uniformization solver and Monte Carlo check.

The solver computes P[goal reached by t] for the absorbing chain by
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
records the sum. The jump matrix is assembled once, by rows, with two
reader columns that sum the goal and the absorbing states, so the cost is
one call of scipy's CSC mat-vec kernel per jump, which moves the
distribution on and reads its goal and absorbed mass, until absorption or
R, and memory O(n + K + |grid|·window), where K is the number of jumps
taken and the window width is O(sqrt(Λt)).

``goal_curve`` answers the same question for a model without building any
chain. Sibling subtrees share no node, so their completion times are
independent and their curves combine in closed form; only an AND gate
guarded by a countermeasure races, and its curve is the integral of its
attack side's density times the countermeasure's survival. That integral
is taken by cumulative Chebyshev quadrature on panels of the grid, graded
toward 0 when a rate is fast, and bisected until each race's error,
estimated from the tail of each panel's Chebyshev coefficients, is within
its share of ``epsilon`` or to the curve's rounding level, whichever is
reached first. Inside a race, gates fold their children by the
product rule as each child is done, so its memory does not grow with a
gate's width.
``goal_curves`` holds that evaluation for ``goal_curve``, for the CLI's
curves and for countermeasure ranking, which recomputes only the path from
each removed countermeasure to the root. One call reads the gate table
once for all its curves, and each curve is a scenario and an attack-leaf
probability (None for the model's own rates), as the CLI's ``--scenario``
and ``--pleaf`` give.

The simulator replays the same race semantics with sampled
exponential completion times and reports Wilson half-widths. Its events
are the countermeasure phases and the OR pools: a maximal subtree of OR
gates over attack leaves completes when its first leaf does, at one
exponential time whose rate is the sum of its leaves' rates, so it draws
once; an attack leaf under no such OR is a pool of its own. Each event
draws from its own PCG64 stream, seeded by numpy's ``SeedSequence`` from
the seed and a key that the identifier of the event's node (a pool's
top) alone determines, so ``simulate_curves`` folds one draw per event
into the curves of every (scenario, attack-leaf probability) pair. Only
the gates above a countermeasure differ between scenarios, so the fold
is planned once per call, and one function, ``_fold``, folds each part
of the plan per chunk of runs: each guard-free group of pools once per
attack-leaf probability, from the pools' own times; per curve, the
gates above a countermeasure, with their deadlines, where an unguarded
gate that shares its parent's operator is part of the parent's step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .errors import DomainError, _count, _grid, _number
from .model import Act, Scenario
from .semantics import Ctmc, _CmRates, _Gate, _rates, read_gates

_RNG_NAME = "pcg64 per event, keyed by identifier; an OR pool of attack leaves is one event"
_CHUNK = 1 << 13  # runs per chunk: mia's draws stay in cache
_CHUNK_VALUES = 1 << 22  # drawn doubles per chunk across all events: 32 MB


@dataclass(frozen=True)
class CurveResult:
    """Goal probability sampled on a time grid.

    ``halfwidths`` holds three-sigma Wilson half-widths for simulated
    curves and is None for solver output. ``meta`` records where the numbers
    came from (model, scenario, tolerance or run count and seed).
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    scenario: Scenario | None
    meta: dict
    halfwidths: tuple[float, ...] | None = None


def transient_probability(ctmc: Ctmc, times: Sequence[float], epsilon: float = 1e-9) -> CurveResult:
    """P[goal reached by t] for each grid point, within ``epsilon``.

    The solver reads the chain's CSR arrays and builds no scipy matrix:
    ``Ctmc.rates`` is not read, and the one scipy name it loads is the
    mat-vec kernel. Every goal state is read as absorbing: an imported chain
    may give one exits, which are masked off its edge list, and mass that
    reached the goal stays counted. ``_jump_chain`` assembles the jump
    matrix P once, by rows, with two more columns: column n holds a 1 in
    each goal row and column n + 1 in each absorbing row. Handed P's row
    arrays, scipy's CSC mat-vec kernel forms πP, so each jump is one call
    that moves the distribution on and reads, in entries n and n + 1, the
    goal and absorbed mass of the one it moved. The call writes into one of
    two preallocated vectors, which swap roles, and the goal masses fill a
    buffer that grows with the jumps taken, so memory stays O(n + jumps)
    whatever the horizon.

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
    from scipy.sparse._sparsetools import csc_matvec  # the kernel ``csc_matrix.dot`` calls after its dispatch

    epsilon = _number(epsilon, "epsilon", 0.0, 1e-3, lo_open=True)
    ts = _grid(times, "time grid", math.inf)

    meta = {
        "method": "uniformization",
        "epsilon": epsilon,
        "states": ctmc.n,
        "model": ctmc.title,
    }
    n = ctmc.n
    rate, jump = _jump_chain(ctmc)
    if jump is None:
        ys = tuple(1.0 if ctmc.init in ctmc.goal else 0.0 for _ in ts)
        return CurveResult(tuple(ts.tolist()), ys, ctmc.scenario, meta)
    if not ts[-1] < 2.0**53 / rate:  # past this, doubles no longer count the jumps
        raise DomainError(f"uniformization at rate {rate:g} to t = {ts[-1]:g} takes too many jumps")
    mus = rate * ts
    lo, hi = _poisson_windows(mus, epsilon / 4.0)
    right = int(hi[-1])
    stop_mass = epsilon / 2.0

    v = np.zeros(n + 2)
    v[ctmc.init] = 1.0
    w = np.empty(n + 2)
    g = np.empty(min(right + 1, 1024))
    steps = 0
    while True:
        w.fill(0.0)  # the kernel adds into its output
        csc_matvec(n + 2, n, *jump, v, w)
        if steps == g.size:
            g = np.concatenate((g, np.empty(g.size)))
        g[steps] = w[n]
        tail = 1.0 - w[n + 1]  # the leftover transient mass is one minus the absorbed mass
        if tail <= stop_mass or steps == right:
            break
        v, w = w, v
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
    return CurveResult(tuple(ts.tolist()), tuple(ys.tolist()), ctmc.scenario, meta)


def _jump_chain(ctmc: Ctmc) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """The uniformization rate of ``ctmc`` with its goal states absorbing, and its jump matrix's CSR arrays.

    The rate is the largest exit rate, each a row sum of ``data`` as scipy's
    ``sum(axis=1)`` forms it, with a goal row's exits masked off. The
    arrays are None when that rate is 0 or there is no goal. Otherwise
    they hold n rows and n + 2 columns, by rows: each row's edges in stored
    order, every rate times 1/rate (the product scipy forms for a division
    by a scalar, or the division itself where 1/rate overflows), then its
    diagonal 1 - exit rate/rate, left out where that is zero, then a 1 in
    column n for a goal row and in column n + 1 for an absorbing one. Each
    entry of πP then adds its terms by increasing source state, as a
    row-by-row product with the sorted transpose does. A self-loop, which
    no chain from ``compose`` or ``parse_ctmc_text`` holds, stays as an
    entry before the diagonal, which the kernel adds to it: its rate counts
    in the exit rate and comes back there, so it moves no mass. The index
    arrays keep the chain's index dtype.
    """
    n, indptr, targets, data = ctmc.n, ctmc.indptr, ctmc.indices, ctmc.data
    itype = targets.dtype
    goal = np.array(sorted(ctmc.goal), dtype=itype)
    busy = np.flatnonzero(np.diff(indptr))
    exit_rates = np.zeros(n)
    exit_rates[busy] = np.add.reduceat(data, indptr[busy])
    sources = np.repeat(np.arange(n, dtype=itype), np.diff(indptr))
    if exit_rates[goal].any():  # only an imported chain leaves its goal
        stay = ~np.isin(sources, goal)
        sources, targets, data = sources[stay], targets[stay], data[stay]
        exit_rates[goal] = 0.0
    rate = float(exit_rates.max(initial=0.0))
    if rate == 0.0 or not goal.size:
        return rate, None
    diagonal = 1.0 - exit_rates / rate
    kept = np.flatnonzero(diagonal).astype(itype)  # int64 would widen every index array below
    absorbing = np.flatnonzero(exit_rates == 0.0).astype(itype)
    scale = 1.0 / rate
    rows = np.concatenate((sources, kept, goal, absorbing))
    order = np.argsort(rows, kind="stable")  # each row's edges, then its diagonal, then its reader columns
    cols = np.concatenate((targets, kept, np.full(goal.size, n, itype), np.full(absorbing.size, n + 1, itype)))
    data = np.concatenate((data * scale if scale < math.inf else data / rate, diagonal[kept],
                           np.ones(goal.size + absorbing.size)))
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return rate, (indptr, cols[order], data[order])


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
    race is integrated by cumulative Chebyshev quadrature on the grid's
    panels, graded toward 0 when a rate is fast against the first grid
    point, to within ``epsilon`` divided by the number of countermeasures;
    products of values in [0, 1] move by at most the sum of their factors'
    errors, so the curve is within the sum of the races' estimated errors,
    at most ``epsilon``. Inside a race each gate folds its children by the
    product rule as they finish, so a gate of any width holds one pair of
    panel arrays. ``meta`` counts the ``guards`` integrated, the ``panels``
    and quadrature ``nodes`` they took, and the bisection ``rounds``, passes
    over a race's subtree summed over the races (a race accepted on its
    first panels counts 1). It sums the races' ``error_bound``: per panel,
    the largest of the integrand's last three Chebyshev coefficients times
    the panel's half-width. Refinement also stops where a panel's estimate
    sinks to the curve's rounding level, 64 ulps of its scale, so an
    ``epsilon`` below that buys no more panels, and ``meta["error_bound"]``
    reports the error reached, which may then exceed ``epsilon``. This is
    ``goal_curves``' one-curve case.
    """
    [(curve, _)] = goal_curves(act, times, epsilon, [(scenario, None)])
    return curve


def goal_curves(
    act: Act,
    times: Sequence[float],
    epsilon: float,
    curves: Sequence[tuple[Scenario, float | None]],
    removed: Sequence[int] = (),
) -> list[tuple[CurveResult, list[np.ndarray | None]]]:
    """``goal_curve``'s curve for each (scenario, pleaf) pair, and per gate in ``removed`` one more with it removed.

    A ``pleaf`` of None reads ``act``'s own attack-leaf rates; a number
    reads every attack leaf at that probability, as
    ``with_attack_probability`` sets it. Every curve reads ``act``'s
    countermeasure laws under its scenario, and all are read off ``act``'s
    gate table, which is read once per call. Each curve is bit for bit the
    one ``goal_curve`` gives for ``act``, or for
    ``with_attack_probability(act, pleaf)``, under its scenario, and the
    call raises what the first curve that fails alone would raise.

    Bottom-up, an attack leaf gives 1 - exp(-rate t), an OR 1 - prod(1 - F_c)
    and an AND prod(F_c) over its attack-side children; an AND gate whose
    countermeasure has a law under the curve's scenario and is not removed
    is a ``_race`` at ``epsilon`` divided by the number of such laws, or
    at its rounding level, as ``goal_curve`` says. Every
    node's curve is kept, so a removal recomputes only the path from its
    gate, or from the outermost race holding it, to the root; that race is
    solved again on the law table less the removed gate's law. Returns, per
    curve, its CurveResult, whose ``meta`` sums the ``_race`` statistics
    with nothing removed, and the curve with each gate in ``removed`` read
    as removed: None for one that guards no race (one outside
    ``act.root``'s tree, or any under no-cm). Package-internal: ``actkit``
    does not export it.
    """
    epsilon = _number(epsilon, "epsilon", 0.0, 1e-3, lo_open=True)
    ts = _grid(times, "time grid", math.inf)
    table = read_gates(act)
    gates = {g.node: g for g in table}
    parent = {c: g.node for g in table for c in g.side}
    read = [_rates(act, table, scenario, pleaf) for scenario, pleaf in curves]  # every curve's, before any is solved
    out = []
    # a fast leaf's rate * t may overflow to inf, which every closed form
    # reads as certain completion; so may _race's 1024/t at a subnormal t,
    # which reads as no phase settled by t
    with np.errstate(over="ignore"):
        for (scenario, _), (leaf_rates, cm_rates) in zip(curves, read):
            ys, without, stats = _solve(gates, parent, act.root, ts, leaf_rates, cm_rates,
                                        epsilon / max(len(cm_rates), 1), removed)
            meta = {"method": "quadrature", "epsilon": epsilon, "model": act.title, **stats}
            out.append((CurveResult(tuple(ts.tolist()), tuple(ys.tolist()), scenario, meta), without))
    return out


def _solve(gates: dict[int, _Gate], parent: dict[int, int], root: int, ts: np.ndarray, leaf_rates: dict[int, float],
           cm_rates: dict[int, _CmRates], share: float,
           removed: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray | None], dict]:
    """One curve of ``goal_curves``: the root's, each removal's, and the first one's summed race statistics."""
    laws = {g.node: cm_rates[g.guard] for g in gates.values() if g.guard in cm_rates}  # per racing gate, its law
    owner = {gates[nid].guard: nid for nid in laws}
    curves: dict[int, np.ndarray] = {}  # each node's curve with nothing removed
    stacks: dict[int, np.ndarray] = {}  # a gate's children's curves, stacked once for every removal below it
    stats = {"guards": 0, "panels": 0, "nodes": 0, "rounds": 0, "error_bound": 0.0}

    def evaluate(top: int) -> np.ndarray:
        """Fill ``curves`` for every node under ``top`` that no race below ``top`` holds."""
        for nid in _postorder(gates, top, laws):
            if nid in laws:
                curves[nid], solved = _race(gates, nid, ts, leaf_rates, laws, share)
                for key, value in solved.items():
                    stats[key] += value
            elif nid in gates:
                curves[nid] = _combine(gates[nid].is_or, np.array([curves[c] for c in gates[nid].side]))
            else:
                curves[nid] = -np.expm1(-leaf_rates[nid] * ts)
        return curves[top]

    def without(cm: int) -> np.ndarray:
        gate = v = owner[cm]
        top = None
        while v in parent:
            v = parent[v]
            top = v if v in laws else top
        if top is None:
            v, ys = gate, _combine(gates[gate].is_or, np.array([evaluate(c) for c in gates[gate].side]))
        else:
            v, ys = top, _race(gates, top, ts, leaf_rates, {nid: law for nid, law in laws.items() if nid != gate},
                               share)[0]
        while v in parent:
            up = parent[v]
            side = gates[up].side
            if up not in stacks:
                stacks[up] = np.array([curves[c] for c in side])
            rows = stacks[up].copy()
            rows[side.index(v)] = ys
            v, ys = up, _combine(gates[up].is_or, rows)
        return ys

    ys = evaluate(root)
    first = dict(stats)
    return ys, [without(cm) if cm in owner else None for cm in removed], first


def _postorder(gates: dict[int, _Gate], top: int, closed=()) -> list[int]:
    """``top`` and the attack side under it, not entering a gate in ``closed``, in ``Act.postorder``'s order."""
    order, stack = [], [top]
    while stack:  # a pre-order visiting children in child order, reversed on return
        nid = stack.pop()
        order.append(nid)
        if nid in gates and nid not in closed:
            stack.extend(reversed(gates[nid].side))
    return order[::-1]


def _combine(is_or: bool, ys: np.ndarray) -> np.ndarray:
    """An OR's or an AND's completion probability from its children's, stacked on axis 0."""
    return 1.0 - (1.0 - ys).prod(axis=0) if is_or else ys.prod(axis=0)


def _survival(rates: _CmRates, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P[detection plus mitigation takes longer than s], and its density.

    Hypoexponential, written around the smaller rate a and the gap d to
    the larger one b, so it neither cancels when d is small nor overflows:
    e^{-as}(1 + a(1 - e^{-ds})/d), with density ab e^{-as}(1 - e^{-ds})/d,
    which is Erlang-2 at d = 0 and 1 when a rate is 0. Instant mitigation
    leaves the detection time alone. Past as = 1000, where e^{-as} is 0,
    s is read as 1000/a, so a·ramp stays finite; where ab overflows, the
    density is (a e^{-as})(b·ramp), whose factors stay finite.
    """
    if rates.mitigate is None:
        survival = np.exp(-rates.detect * s)
        return survival, rates.detect * survival
    a, b = sorted((rates.detect, rates.mitigate))
    if a > 0.0:
        s = np.minimum(s, 1e3 / a)
    ramp = s if b == a else -np.expm1(-(b - a) * s) / (b - a)
    decay = np.exp(-a * s)
    return decay * (1.0 + a * ramp), a * b * decay * ramp if a * b < math.inf else a * decay * (b * ramp)


def _lobatto_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n Chebyshev-Lobatto nodes on [-1, 1], ascending, the matrix taking
    values at them to their interpolant's integral from -1 to each node, and
    the matrix taking them to the interpolant's Chebyshev coefficients."""
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    coef = np.linalg.inv(chebyshev.chebvander(x, n - 1))
    q = chebyshev.chebvander(x, n) @ chebyshev.chebint(coef, lbnd=-1, axis=0)
    q[0] = 0.0
    return x, q, coef


_NODES, _CUMULATIVE, _COEFFICIENTS = _lobatto_rule(17)
_TAIL = _COEFFICIENTS[-3:].T.copy()  # values to the last three coefficients
_WEIGHTS = _CUMULATIVE[-1]  # the rule's integral over the whole panel
_ROUNDING = 64.0 * np.finfo(float).eps
# weights of a panel's left and right ends at each node
_LEFT, _RIGHT = (1.0 - _NODES) / 2.0, (1.0 + _NODES) / 2.0
# past 1024/rate an exponential phase has no mass left to resolve, so panels
# beyond it may widen fast
_SETTLED, _WIDENING = 1024.0, 2.0**16


def _graded(a: float, b: float, rates: Sequence[float] | np.ndarray) -> np.ndarray:
    """Panel edges in (a, b), graded toward a, for race phases of rates ``rates`` that start by a.

    The edges lie at offsets from a, with t0 = b - a. Empty while the
    rates' sum, which bounds the rate of any first completion among them,
    times t0 is at most 8: one panel, or one bisection of it, resolves
    that. Otherwise offsets double from 1/sum(rates) to 1024/max(rates),
    past which the fastest phase is over, and then widen by 2^16 up to t0;
    a rate of 1e200 costs about 50 panels in one pass, where bisection
    would take one pass per halving. Each slower rate r with r t0 > 8 adds
    its own doubling window, from 1/(the sum of the rates up to r) to
    1024/r, which the widening joins; windows that meet merge, so a rate
    that the widening would put in one 2^16-wide panel costs about ten
    panels, not a pass per halving. The widening counts its steps on a
    ratio capped at 2^1023, so a ratio that overflows still gives a count:
    64 steps, 2^1008 past the fastest phase's end.
    """
    t0 = b - a
    total = sum(rates)
    if total * t0 <= 8.0:
        return np.empty(0)
    ascending = np.sort(rates)
    below = np.cumsum(ascending)  # below[i]: the sum of the i + 1 slowest rates
    windows = [[1.0 / total, min(_SETTLED / ascending[-1], t0)]]
    # the last index of each distinct rate, fast and below the largest, fastest first
    for i in np.flatnonzero((ascending[:-1] < ascending[1:]) & (ascending[:-1] * t0 > 8.0))[::-1]:
        lo, hi = 1.0 / below[i], min(_SETTLED / ascending[i], t0)
        if lo <= windows[-1][1]:
            windows[-1][1] = hi
        else:
            windows.append([lo, hi])
    parts = []
    for (lo, hi), upto in zip(windows, [lo for lo, _ in windows[1:]] + [t0]):
        parts.append(lo * 2.0 ** np.arange(math.ceil(math.log2(hi / lo))))
        parts.append(hi * _WIDENING ** np.arange(math.ceil(math.log(min(upto / hi, 2.0**1023), _WIDENING))))
    edges = a + np.unique(np.concatenate(parts))
    return edges[(a < edges) & (edges < b)]  # a rounded logarithm may reach hi or t0, a rounded sum a or b


def _race(gates: dict[int, _Gate], gate: int, ts: np.ndarray, leaf_rates: dict[int, float],
          laws: dict[int, _CmRates], share: float) -> tuple[np.ndarray, dict]:
    """Completion probability at ``ts`` of a guarded gate, by cumulative quadrature.

    The attack side and the countermeasure are independent, so the gate's
    density is g = f_A S_D (attack-side density times countermeasure
    survival) and F_G(t) = int_0^t g. The panels, [0, ts[0]] and the grid
    intervals, get 17 Chebyshev-Lobatto nodes each. When the phases' summed
    rate is fast against the first grid point, the first panel starts
    ``_graded`` toward 0; a later interval (a, b] is ``_graded`` toward a
    for the phases still running at a (rate times a below 1024) that end
    well inside it (rate times b - a above 1024), so no panel is wide
    enough for its rounding floor, h max|f|, to overflow. One post-order
    pass over the subtree, read from the gate table ``gates`` (the one
    reading of the tree's shape), carries every node's (F, f): closed forms
    at leaves, the running integral of g at each gate with a law in
    ``laws``, which is the whole law table the race reads, and the product
    rule, folded into the open parent as soon as a child is done (AND:
    F <- F F_c and f <- f F_c + F f_c; OR: the same on 1 - F), so a gate
    holds one (F, f) pair however wide it is. A guard's error on a panel is
    estimated from the tail of g's interpolant there: the largest of its
    last three Chebyshev coefficients (so an odd or even g still shows one)
    times the panel's half-width. Below 64 ulps of the panel's scale the
    tail is a rounding plateau, which Chebfun's ``standardChop`` likewise
    reads as converged (Aurentz and Trefethen, ACM TOMS 2017). That scale
    is the attack side's F, or 1 when the attack side folds an OR of two or
    more children: its 1 - prod(1 - F_c) rounds in ulps of 1 however small
    F is, so a smaller scale would split panels near 0 forever. The estimate
    reads only samples, so the rule must also reproduce each panel's exact
    integrals of f_A (F_A's rise) and of the countermeasure's density (S_D's
    fall, weighted by F_A's rise). A panel is bisected while its guard's
    summed estimates and misses exceed ``share`` and its own estimate or
    miss exceeds the panel's part of ``share``, unless that is rounding
    noise. Returns the curve and the last pass's ``guards``, ``panels``,
    ``nodes`` and summed ``error_bound`` (the estimates), with the number
    of passes as ``rounds``.
    """
    steps = []  # (node, its rate if an attack leaf, whether an OR gate, its law if it races)
    parent: dict[int, tuple[int, bool]] = {}  # attack-side child: its gate, and whether that is an OR
    rates = []  # in post-order, which ``_graded``'s sum depends on
    ors = set()  # gates whose attack side folds an OR of two or more children
    for nid in _postorder(gates, gate):
        if nid in gates:
            _, is_or, side, _ = gates[nid]
            if is_or and len(side) > 1 or ors.intersection(side):
                ors.add(nid)
            law = laws.get(nid)
            if law is not None:
                rates += [law.detect, law.mitigate or 0.0]
            parent.update((c, (nid, is_or)) for c in side)
            steps.append((nid, None, is_or, law))
        else:
            rates.append(leaf_rates[nid])
            steps.append((nid, leaf_rates[nid], False, None))
    edges = ts if ts[0] == 0.0 else np.concatenate(([0.0], ts))
    if edges.size > 1:  # every phase starts at 0, so the first panel is graded for them all
        edges = np.concatenate(([0.0], _graded(0.0, edges[1], rates), edges[1:]))
    # a later grid interval (a, b] is graded toward a for the phases still running at a, r a < 1024, that
    # end well inside it, r (b - a) > 1024; none does unless one ends well before the last grid point
    if float(ts[-1]) * max(rates) > _SETTLED:
        later = ts[ts > 0.0]
        a, b, ascending = later[:-1], later[1:], np.sort(rates)
        ending = np.searchsorted(ascending, _SETTLED / (b - a), side="right")  # per interval: its slowest such phase
        running = np.searchsorted(ascending, _SETTLED / a)  # and past its fastest
        parts = [_graded(a[i], b[i], ascending[ending[i]:running[i]]) for i in np.flatnonzero(ending < running)]
        edges = np.unique(np.concatenate([edges, *parts]))
    rounds = 0
    while True:
        rounds += 1
        h = edges[1:] - edges[:-1]
        half = (h / 2.0)[:, None]
        s = edges[:-1, None] * _LEFT + edges[1:, None] * _RIGHT
        # per open gate: its first child's (F, f), or once folded the product X and its derivative
        open_gates: dict[int, tuple[np.ndarray, np.ndarray, bool]] = {}
        estimates = []
        for nid, rate, is_or, law in steps:
            if rate is not None:
                x = -rate * s
                F, f = -np.expm1(x), rate * np.exp(x)
            else:
                F, f, folded = open_gates.pop(nid)
                if folded and is_or:
                    F = 1.0 - F
            if law is not None:
                survival, density = _survival(law, s)
                # both factors' exact integrals over each panel, which the rule
                # must reproduce: a density that peaks between two nodes shows
                # here even when every sample of g misses it
                rise = F[:, -1] - F[:, 0]
                scaled = half * f  # scaled first: a fast density's node sums may overflow
                miss = (np.abs(scaled @ _WEIGHTS - rise)
                        + np.abs(half[:, 0] * (density @ _WEIGHTS) - survival[:, 0] + survival[:, -1]) * rise)
                # h * f may overflow
                noise = _ROUNDING * h * np.abs(f).max(axis=1) + _ROUNDING * (1.0 if nid in ors else F[:, -1])
                f = f * survival
                scaled *= survival
                cumulative = scaled @ _CUMULATIVE.T
                offsets = np.zeros((h.size, 1))
                cumulative[:-1, -1:].cumsum(axis=0, out=offsets[1:])
                F = offsets + cumulative
                estimates.append((np.abs(scaled @ _TAIL).max(axis=1), miss, noise))
            if nid == gate:
                break
            up, up_is_or = parent[nid]
            if up not in open_gates:
                open_gates[up] = (F, f, False)
                continue
            # a gate folds its children as they finish: on F for an AND, on 1 - F for an OR
            X, dX, folded = open_gates[up]
            if up_is_or:
                F = 1.0 - F
                X = X if folded else 1.0 - X
            open_gates[up] = (X * F, dX * F + X * f, True)
        wide = [np.maximum(tail, miss) > np.maximum(share * h / edges[-1], noise)
                for tail, miss, noise in estimates if tail.sum() + miss.sum() > share]
        if not wide:
            break
        mids = (edges[:-1] + edges[1:]) / 2.0
        split = np.logical_or.reduce(wide) & (edges[:-1] < mids) & (mids < edges[1:])
        if not split.any():
            break
        edges = np.sort(np.concatenate((edges, mids[split])))
    ys = np.concatenate(([0.0], F[:, -1]))[np.searchsorted(edges, ts)]  # nothing completes at 0
    return ys, {"guards": len(estimates), "panels": h.size, "nodes": F.size, "rounds": rounds,
                "error_bound": float(sum(tail.sum() for tail, _, _ in estimates))}


def _event_stream(seed: int, ident: str) -> np.random.Generator:
    """An event's own PCG64 generator, keyed by its identifier, which stays put when a sibling is removed.

    The key reads the identifier's UTF-8 bytes behind a leading 1 byte, so
    two identifiers give two keys even where one is the other with leading
    NUL characters.
    """
    key = int.from_bytes(b"\x01" + ident.encode(), "big")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def simulate(
    act: Act,
    scenario: Scenario,
    times: Sequence[float],
    runs: int,
    seed: int,
) -> CurveResult:
    """Monte Carlo estimate of the timed goal probability.

    Each run draws one exponential completion time per OR pool and per
    countermeasure phase, then evaluates the tree bottom-up: OR takes the
    earliest child, AND the latest attack-side child unless that time is
    beaten by the countermeasure's detection plus mitigation total, in which
    case the gate never succeeds. An OR pool is a maximal subtree of OR
    gates over attack leaves, whose earliest leaf time is one exponential
    at the sum of the leaves' rates; an attack leaf under no such OR is a
    pool of its own. Deterministic for fixed (seed, runs, grid). Each
    event draws from its own PCG64 stream keyed by the seed and its node's
    identifier, a pool's by its top node's, so a time is a unit exponential
    times 1/rate that depends only on the seed, that identifier and the run
    index: not on the scenario, on the chunk size, or on which other events
    draw. Calls with the same seed therefore share the draws of every event
    they have in common, and their curves are positively correlated (common
    random numbers). ``meta["events"]`` counts the events the curve reads
    at a positive rate, the streams it draws: 12 for ``mia`` under
    ``full``. This is ``simulate_curves``' one-curve case.
    """
    return simulate_curves(act, times, runs, seed, [(scenario, None)])[0]


def simulate_curves(
    act: Act,
    times: Sequence[float],
    runs: int,
    seed: int,
    curves: Sequence[tuple[Scenario, float | None]],
) -> list[CurveResult]:
    """``simulate``'s curve for each (scenario, pleaf) pair, read as in ``goal_curves``.

    A ``pleaf`` of None reads ``act``'s own attack-leaf rates, a number
    every attack leaf at that probability, and every curve reads ``act``'s
    countermeasure laws. Each curve is bit for bit the one ``simulate``
    gives for ``act``, or for ``with_attack_probability(act, pleaf)``,
    under its scenario, and the call raises what the first curve that
    fails alone would raise. ``_fold_plan`` finds the OR pools once, from
    the gate table alone, so no requested curve changes another's events;
    per distinct pleaf, a pool's rate is the sum of its leaves' rates in
    node order. Each countermeasure's phases under each scenario are read
    once, into one table of (event, rate) pairs: detection at δ, plus
    mitigation at μ under ``full`` unless it is instant. Per chunk of runs,
    every event that some curve reads at a positive rate, a pool or a phase
    in that table, draws its unit exponentials once, and every curve folds
    from them: a pool's units scaled by 1/rate, and a countermeasure's
    deadline, the sum of its phases' units/rate. So ``detect-only`` and
    ``full`` share their detection draws, and in each run the goal falls no
    earlier under detect-only than under full, nor under full than under
    no-cm.

    Only the gates above a countermeasure differ between scenarios. A gate
    *races* when some requested scenario gives a law to a guard in its
    subtree. ``_fold_plan`` reads each pool as a leaf, folds an unguarded
    racing gate into its racing parent's step when the two share an
    operator, and the guard-free attack-side children gathered by each step
    (the whole tree, if none races) form one group; ``_fold`` folds each
    part and writes no array it is handed. Per chunk and distinct pleaf,
    the pools' own times are formed once and each group is folded from
    them; per curve, the racing steps are folded over the group times, which
    all of the pleaf's curves share, with their deadlines. Curves are taken
    one pleaf at a time, and a pleaf's times are dropped before the next
    one's are formed, so only one pleaf's are held. Chunks hold at most
    2^13 runs and 2^22 drawn values, which bounds memory and changes no
    draw. Raises DomainError unless ``runs`` is a positive integer, ``seed``
    a non-negative one and each ``pleaf`` None or a number in [0, 1]: numpy
    scalars count, truth values do not. Package-internal: ``actkit`` does
    not export it.
    """
    _count(runs, "runs", 1)
    _count(seed, "seed", 0)
    ts = _grid(times, "time grid", math.inf)
    table = read_gates(act)
    read = [_rates(act, table, scenario, pleaf) for scenario, pleaf in curves]
    # per scenario, per countermeasure with a law: its (event, rate) phases, an instant mitigation left out
    phases = {scenario: {cm: [(nid, rate) for nid, rate in zip(act.nodes[cm].kind.children, (law.detect, law.mitigate))
                              if rate is not None] for cm, law in cm_rates.items()}
              for (scenario, _), (_, cm_rates) in zip(curves, read)}
    pools, racing, groups = _fold_plan(act.root, table, {cm for by_cm in phases.values() for cm in by_cm})
    sets: dict[float | None, tuple[dict[int, float], list[int]]] = {}  # per distinct pleaf: pool rates, curves
    read_events = []  # per curve: the events it reads at a positive rate, which its own call draws
    for i, (scenario, pleaf) in enumerate(curves):
        if pleaf not in sets:
            leaf_rates = read[i][0]
            sets[pleaf] = ({top: sum(leaf_rates[nid] for nid in leaves) for top, leaves in pools.items()}, [])
        rates, members = sets[pleaf]
        members.append(i)
        read_events.append(sum(rate > 0.0 for rate in rates.values())
                           + sum(rate > 0.0 for phase in phases[scenario].values() for _, rate in phase))
    drawn = {top for rates, _ in sets.values() for top, rate in rates.items() if rate > 0.0}
    drawn.update(nid for by_cm in phases.values() for events in by_cm.values() for nid, rate in events if rate > 0.0)
    streams = {nid: _event_stream(seed, act.nodes[nid].ident) for nid in drawn}

    chunk = min(_CHUNK, max(1, _CHUNK_VALUES // max(1, len(streams))))
    counts = np.zeros((len(curves), ts.size), dtype=np.int64)
    done = 0
    while done < runs:
        size = min(chunk, runs - done)
        done += size
        units = {nid: stream.standard_exponential(size) for nid, stream in streams.items()}
        deadlines = {scenario: {cm: sum(_times(units, nid, rate, size) for nid, rate in events)
                                for cm, events in by_cm.items()} for scenario, by_cm in phases.items()}
        units = {nid: units[nid] for nid in pools if nid in units}  # the folds' arrays reuse the phases' memory
        for rates, members in sets.values():
            own = {top: _times(units, top, rate, size) for top, rate in rates.items()}
            group_times = {top: _fold(steps, own, top) for top, steps in groups.items()}
            del own  # the group times keep what they share with it
            for i in members:  # sorted into a new array: the fold may return one that group_times holds
                root_time = np.sort(_fold(racing, group_times, act.root, deadlines[curves[i][0]]))
                counts[i] += np.searchsorted(root_time, ts, side="right")
            del group_times, root_time  # so the next set's arrays are formed with none of this set's held

    return [CurveResult(tuple(ts.tolist()), tuple((row / runs).tolist()), scenario,
                        {"method": "monte-carlo", "rng": _RNG_NAME, "events": read_events[i], "seed": seed,
                         "runs": runs, "model": act.title},
                        halfwidths=tuple(_wilson_halfwidths(row, runs).tolist()))
            for i, ((scenario, _), row) in enumerate(zip(curves, counts))]


def _wilson_halfwidths(successes: np.ndarray, runs: int) -> np.ndarray:
    """The larger distance from p̂ to the ends of the three-sigma Wilson interval: nonzero even at p̂ = 0 or 1."""
    z = 3.0
    phat = successes / runs
    shrink = 1.0 / (1.0 + z * z / runs)
    center = (phat + z * z / (2.0 * runs)) * shrink
    half = z * shrink * np.sqrt(phat * (1.0 - phat) / runs + z * z / (4.0 * runs * runs))
    return np.maximum(center + half - phat, phat - (center - half))


def _times(units: dict[int, np.ndarray], nid: int, rate: float, size: int) -> np.ndarray:
    """Event ``nid``'s completion times at ``rate`` in a new array: its units times 1/rate, or never at rate 0."""
    return units[nid] * (1.0 / rate) if rate > 0.0 else np.full(size, np.inf)


def _fold_plan(root: int, table: list[_Gate],
               guarded: set[int]) -> tuple[dict[int, list[int]], list[_Gate], dict[int, list[_Gate]]]:
    """The OR pools of the gate table ``table``, its racing steps, and the guard-free groups they fold.

    An OR pool is a maximal subtree of OR gates and attack leaves. It
    completes when its first leaf does, at one exponential time whose rate
    is the sum of its leaves' rates, so the simulator draws it as one event
    and the plan reads its top as a leaf; an attack leaf under no such OR
    gate is a pool of its own. No scenario changes the pools: no
    countermeasure guards an OR gate. A gate races when a countermeasure in
    ``guarded`` guards it or a gate in its subtree. A racing gate that no
    countermeasure in ``guarded`` guards and whose racing parent has its
    operator folds into the parent's step: its racing children become the
    parent's and its guard-free children join the parent's group, which
    keeps every bit, as min and max are exact and associative. One pass up
    the table marks the pooled and the racing gates, and one pass down it
    gives each node its pool's top and the top of its step or group, with
    no recursion. Returns, per pool, keyed by its top node, its leaves in
    node order; the steps in post-order, so the root comes last, each with
    its racing attack-side children and then its group, keyed ~gate, which
    no node id takes; and per group, keyed by its top, the gates outside
    pools that fold it in post-order. A step's group is the guard-free
    attack-side children it gathers, joined by a last step ~gate that folds
    them as the gate does; with nothing racing, the whole tree is one group,
    keyed by the root.
    """
    gates = {gate.node: gate for gate in table}
    pooled, racing = set(), set()
    for nid, is_or, side, guard in table:  # every gate after the gates under it
        if is_or and all(c in pooled or c not in gates for c in side):
            pooled.add(nid)
        elif guard in guarded or any(c in racing for c in side):
            racing.add(nid)
    pool = {root: root}  # each attack-side node: the top of its pool, or itself outside every pool
    top = {root: root}  # each racing gate: the gate whose step folds it; any other node: the top of its group
    for nid, is_or, side, _ in reversed(table):  # every gate before the gates under it
        for c in side:
            pool[c] = pool[nid] if nid in pooled else c
            if c not in racing:
                top[c] = ~top[nid] if nid in racing else top[nid]
            else:
                top[c] = top[nid] if gates[c].is_or == is_or and gates[c].guard not in guarded else c
    pools: dict[int, list[int]] = {}
    for nid in sorted(pool):
        if nid not in gates:
            pools.setdefault(pool[nid], []).append(nid)
    steps: dict[int, list[_Gate]] = {} if racing else {root: []}
    gathered: dict[int, tuple[list[int], list[int]]] = {}  # per step: its racing children and its group's so far
    plan = []
    for gate in table:
        nid, is_or, side, guard = gate
        if nid in pooled:
            continue
        if nid not in racing:
            steps.setdefault(top[nid], []).append(gate)
            continue
        kids, free = gathered.setdefault(top[nid], ([], []))
        kids += [c for c in side if c in racing and top[c] == c]
        free += [c for c in side if c not in racing]
        if top[nid] != nid:
            continue
        if free:
            steps.setdefault(~nid, []).append(_Gate(~nid, is_or, tuple(free), None))
        plan.append(_Gate(nid, is_or, tuple(kids) + ((~nid,) if free else ()), guard))
    return pools, plan, steps


def _fold(steps: list[_Gate], formed: dict[int, np.ndarray], top: int,
          deadlines: dict[int, np.ndarray] = {}) -> np.ndarray:
    """Times of ``top`` in one chunk, folded over the gates ``steps`` in post-order without recursion.

    Each step folds its attack-side children, OR by the earliest time and
    AND by the latest, and then, if its guard has a deadline in
    ``deadlines``, never completes in the runs that the deadline beats. A
    child that no earlier step formed is read from ``formed``. The fold
    writes no array it is handed: a step's first fold makes its new array,
    and a deadline makes another. With no steps this is ``formed[top]``.
    """
    times: dict[int, np.ndarray] = {}
    for nid, is_or, side, guard in steps:
        fold = np.minimum if is_or else np.maximum
        first, *rest = [times.pop(c) if c in times else formed[c] for c in side]
        done = fold(first, rest[0]) if rest else first
        for c in rest[1:]:
            fold(done, c, out=done)
        if guard in deadlines:
            done = np.where(done >= deadlines[guard], np.inf, done)
        times[nid] = done
    return times[top] if top in times else formed[top]
