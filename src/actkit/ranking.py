"""Countermeasure ranking by impact on the timed goal probability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Act, Scenario, remove_cm_gates
from .semantics import DEFAULT_STATE_CAP, compose
from .transient import _check_epsilon, _check_grid, _tree_curve, transient_probability


@dataclass(frozen=True)
class CmEffect:
    """How much one countermeasure suppresses the goal probability at ``t_star``."""

    node: int
    name: str
    pgoal_with: float
    pgoal_without: float
    delta: float


def rank_countermeasures(
    act: Act,
    t_star: float,
    epsilon: float = 1e-9,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[CmEffect]:
    """Rank countermeasures by the goal-probability increase their removal causes.

    For each countermeasure gate the fully defended model is compared against
    the model with just that gate removed, both evaluated at horizon
    ``t_star``. Results are sorted by decreasing effect, ties broken by name.

    Every model is evaluated like ``goal_curve``, with each chain at
    ``epsilon`` divided by the number of countermeasures. A guarded subtree
    that removing a gate leaves unchanged is the same Act in both models, so
    its chain is solved once; ``state_cap`` bounds each chain.
    """
    cms = sorted(act.cm_gates())
    if not cms:
        return []
    _check_epsilon(epsilon)
    ts = _check_grid([t_star])
    share = epsilon / len(cms)
    solved: dict[Act, np.ndarray] = {}

    def solve(sub: Act) -> np.ndarray:
        if sub not in solved:
            ctmc = compose(sub, Scenario.FULL, state_cap=state_cap)
            solved[sub] = np.asarray(transient_probability(ctmc, ts, share).ys)
        return solved[sub]

    def pgoal(model: Act) -> float:
        return float(_tree_curve(model, ts, solve)[0])

    with_all = pgoal(act)
    effects = []
    for nid in cms:
        without = pgoal(remove_cm_gates(act, {nid}))
        effects.append(CmEffect(node=nid, name=act.nodes[nid].name, pgoal_with=with_all,
                                pgoal_without=without, delta=without - with_all))
    effects.sort(key=lambda e: (-e.delta, e.name))
    return effects
