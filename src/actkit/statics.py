"""Static (untimed) goal probability and probability sweeps.

Leaf successes are independent Bernoulli events. Gates combine bottom-up:
AND multiplies child probabilities, OR complements the product of failure
probabilities, and a countermeasure contributes the attacker-facing factor
``1 - p_detect * p_mitigate`` to its enclosing AND gate (detect-only:
``1 - p_detect``; no-cm: 1). Each call reads the tree once, as the gate
table of ``read_gates``, which a sweep then walks once per scenario, on
the array of its grid's points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MissingParameter, _grid
from .model import Act, AttackLeaf, CmGate, Scenario, _check_scenario
from .semantics import read_gates


def static_probability(act: Act, scenario: Scenario = Scenario.FULL) -> float:
    """Probability that the attack at the root succeeds, ignoring time.

    The returned double is derived from whichever of the success/failure
    accumulations is the small one, so it is correctly rounded on both ends
    of [0, 1] and ordered consistently across scenarios.
    """
    return float(_smaller_side(*_evaluate(act, read_gates(act), scenario)))


def _smaller_side(succ, fail) -> np.ndarray:
    """The success probability, read from whichever accumulation is the small one, elementwise."""
    return np.where(succ <= fail, succ, 1.0 - fail)


def static_failure(act: Act, scenario: Scenario = Scenario.FULL) -> float:
    """Complement of static_probability at full relative precision.

    Near-certain goals have complements far below one ulp of 1.0, where
    ``1 - static_probability`` rounds to zero; this route keeps them exact
    enough to compare scenarios whose probabilities all round to 1.0.
    """
    succ, fail = _evaluate(act, read_gates(act), scenario)
    return fail if fail <= succ else 1.0 - succ


def _probability(act: Act, nid: int) -> float:
    """Leaf ``nid``'s success probability as a double; a leaf without one raises MissingParameter naming it."""
    try:
        return float(act.nodes[nid].kind.timing.probability())
    except MissingParameter as exc:
        raise MissingParameter(f"leaf '{act.nodes[nid].name}': {exc}") from None


def _evaluate(act: Act, gates: list, scenario: Scenario, pleaf: np.ndarray | None = None):
    """Root (success, failure) probabilities over ``gates = read_gates(act)``, each accumulated on its own.

    Success and failure are carried side by side: products keep relative
    precision, and each complement telescopes into a sum of non-negative
    terms instead of a catastrophic ``1 - product``. Only the events the
    scenario keeps are read. A given ``pleaf`` array is read as every
    attack leaf's probability, as ``with_attack_probability`` would set it,
    and gives arrays of the same shape: IEEE ``+``, ``-`` and ``*`` act
    elementwise, so each entry has the bits of a float evaluation at that
    probability. Raises DomainError for a ``scenario`` that is not a
    Scenario.
    """
    _check_scenario(scenario)
    succ: dict[int, float] = {}
    fail: dict[int, float] = {}
    nodes = act.nodes
    for nid in (act.root, *(c for g in gates for c in g.side), *(g.guard for g in gates if g.guard is not None)):
        kind = nodes[nid].kind
        if isinstance(kind, AttackLeaf):
            p = _probability(act, nid) if pleaf is None else pleaf
            succ[nid], fail[nid] = p, 1.0 - p
        elif isinstance(kind, CmGate):
            q = 0.0 if scenario is Scenario.NO_CM else _probability(act, kind.detect)
            if scenario is Scenario.FULL:
                q *= _probability(act, kind.mitigate)
            succ[nid], fail[nid] = 1.0 - q, q
    for nid, is_or, side, _ in gates:
        # AND: 1 - p1..pk = (1-p1) + p1(1-p2) + p1 p2 (1-p3) + ..., over every child, the guard's
        # factor in its place; an OR is the same over its attack side with success and failure swapped
        prod, other = (fail, succ) if is_or else (succ, fail)
        x, y = 1.0, 0.0
        for c in side if is_or else act.children(nid):
            y = y + x * other[c]
            x = x * prod[c]
        prod[nid], other[nid] = x, y
    return succ[act.root], fail[act.root]


@dataclass(frozen=True)
class SweepResult:
    """Goal probability as a function of a common attack-leaf probability."""

    scenario: Scenario
    grid: tuple[float, ...]
    pgoal: tuple[float, ...]


def sweep_pleaf(act: Act, grid: Sequence[float], scenarios: Sequence[Scenario] = tuple(Scenario)) -> list[SweepResult]:
    """Evaluate static_probability with every attack leaf set to each grid value.

    The grid must be a non-empty, strictly increasing sequence of numbers
    in [0, 1], numpy scalars included and no truth values or text, else
    DomainError is raised. Detection and mitigation probabilities keep
    their modelled values. Each scenario is evaluated once, on the array of
    all the grid's points, and each point equals
    ``static_probability(with_attack_probability(act, x), scenario)`` bit
    for bit, without building that model.
    """
    pleaf = _grid(grid, "sweep grid", 1.0)
    gates, grid = read_gates(act), tuple(pleaf.tolist())
    return [SweepResult(scenario, grid, tuple(_smaller_side(*_evaluate(act, gates, scenario, pleaf)).tolist()))
            for scenario in scenarios]
