"""Countermeasure ranking by impact on the timed goal probability."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Act, Scenario, remove_cm_gates
from .semantics import DEFAULT_STATE_CAP, compose
from .transient import transient_probability


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
    """
    cms = sorted(act.cm_gates())
    if not cms:
        return []

    def pgoal(model: Act) -> float:
        ctmc = compose(model, Scenario.FULL, state_cap=state_cap)
        return transient_probability(ctmc, [t_star], epsilon).ys[0]

    with_all = pgoal(act)
    effects = []
    for nid in cms:
        without = pgoal(remove_cm_gates(act, {nid}))
        effects.append(CmEffect(node=nid, name=act.nodes[nid].name, pgoal_with=with_all,
                                pgoal_without=without, delta=without - with_all))
    effects.sort(key=lambda e: (-e.delta, e.name))
    return effects
