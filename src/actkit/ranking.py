"""Countermeasure ranking by impact on the timed goal probability.

The model is evaluated by ``goal_curve``'s evaluator, so ranking shares
its tolerance split, input checks and quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _number
from .model import Act, Scenario
# ``compose`` is unused here, but bench/tests/test_bench.py checks that the
# tracer rewraps ``actkit.ranking.compose``; drop it when that test moves.
from .semantics import compose  # noqa: F401
from .transient import goal_curves


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
) -> list[CmEffect]:
    """Rank countermeasures by the goal-probability increase their removal causes.

    For each countermeasure gate in the tree under ``act.root`` the fully
    defended model is compared against the model with just that gate
    removed, both evaluated at horizon ``t_star``; a view
    ``Act(title, g, act.nodes)`` ranks the guards of ``g``'s subtree alone.
    Results are sorted by decreasing effect, ties broken by name.

    The one model is evaluated like ``goal_curve`` under the full scenario,
    with each countermeasure race integrated to ``epsilon`` divided by the
    number of countermeasures. Each removal then recomputes only the path
    from its gate, or from the outermost race holding that gate, to the
    root; no model is rebuilt and no chain is built. ``t_star``, a number
    in [0, inf), and then ``epsilon`` are checked even when the model has
    no countermeasures.
    """
    t_star = _number(t_star, "t_star", 0.0, math.inf, hi_open=True)
    cms = sorted(act.cm_gates())
    [(curve, removals)] = goal_curves(act, [t_star], epsilon, [(Scenario.FULL, None)], cms)
    with_all = curve.ys[0]
    without = [None if ys is None else float(ys[0]) for ys in removals]  # None: outside the root's tree
    effects = [CmEffect(node=nid, name=act.nodes[nid].name, pgoal_with=with_all,
                        pgoal_without=p, delta=p - with_all) for nid, p in zip(cms, without) if p is not None]
    effects.sort(key=lambda e: (-e.delta, e.name))
    return effects
