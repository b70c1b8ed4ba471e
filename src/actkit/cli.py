"""Command line interface.

Commands mirror the library: ``validate``, ``static-sweep``, ``dynamic``
(``goal_curve``), ``simulate`` (Monte Carlo), ``rank``, ``export-ctmc`` and
``fmt``. Each timed command binds its method when the parser is built and
takes only that method's options: ``dynamic`` the solver's ``--epsilon``,
``simulate`` ``--runs`` and ``--seed``. Only ``export-ctmc`` builds a chain,
so only it takes ``--state-cap``. Data files use two whitespace-separated
columns with ``#`` comment lines, numbers are printed with six significant
digits, and repeated runs with identical flags produce byte-identical
outputs. ``simulate`` folds one draw per scenario into every ``--pleaf``
curve, so a scenario's curves are positively correlated (common random
numbers); each file still matches a single-``--pleaf`` run with the same
``--seed`` byte for byte.

Exit codes: 0 success, 1 I/O error, 2 parse/validation error, 3 numeric or
state-space limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dsl import load_act, serialize_act
from .errors import (
    ActParseError,
    ActValidationError,
    DomainError,
    MissingParameter,
    RateUndefined,
    StateSpaceLimit,
)
from .model import Scenario, with_attack_probability
from .ranking import rank_countermeasures
from .semantics import DEFAULT_STATE_CAP, collect_rates, compose, export_ctmc_text
from .statics import sweep_pleaf
from .transient import CurveResult, goal_curve, simulate_curves

_SCENARIOS = [s.value for s in Scenario]
_DEFAULT_PLEAF = (0.05, 0.1, 0.25)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start_s, stop_s, steps_s = spec.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise DomainError(f"grid must be START:STOP:STEPS, got {spec!r}") from None
    if steps < 2 or not stop > start:
        raise DomainError("grid needs STOP > START and at least 2 steps")
    return np.linspace(start, stop, steps)


def _scenarios(args, default=_SCENARIOS) -> list[Scenario]:
    names = args.scenario or default
    return [Scenario(n) for n in names]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(path)


def _table_text(comment: str, col_names: tuple[str, str], xs, ys, fmt: str) -> str:
    if fmt == "dat":
        lines = [f"# {comment}"]
        lines += [f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys)]
    else:
        lines = [",".join(col_names)]
        lines += [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys)]
    return "\n".join(lines) + "\n"


def _curve_json(curve: CurveResult) -> str:
    payload = {
        "scenario": curve.scenario.value if curve.scenario else None,
        "xs": list(curve.xs),
        "ys": list(curve.ys),
        "halfwidths": list(curve.halfwidths) if curve.halfwidths else None,
        "meta": curve.meta,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_validate(args) -> int:
    try:
        act = load_act(args.model)
    except ActValidationError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 2
    leaves = sum(1 for _ in act.attack_leaves())
    cms = sum(1 for _ in act.cm_gates())
    print(f"ok: {act.title!r}, {len(act.nodes)} nodes, {leaves} attack leaves, {cms} countermeasures")
    return 0


def cmd_static_sweep(args) -> int:
    act = load_act(args.model)
    grid = _parse_grid(args.grid)
    out = _out_dir(args)
    for result in sweep_pleaf(act, grid, _scenarios(args)):
        name = f"static_{result.scenario.value}.{args.format}"
        if args.format == "json":
            payload = {
                "scenario": result.scenario.value,
                "grid": list(result.grid),
                "pgoal": list(result.pgoal),
                "model": act.title,
            }
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        else:
            text = _table_text(
                f"{act.title} | scenario={result.scenario.value} | static sweep",
                ("Pleaf", "Pgoal"), result.grid, result.pgoal, args.format,
            )
        _write(out / name, text)
    return 0


def cmd_timed(args) -> int:
    act = load_act(args.model)
    grid = _parse_grid(args.grid)
    pleafs = args.pleaf or _DEFAULT_PLEAF
    acts = [with_attack_probability(act, pleaf) for pleaf in pleafs]
    # every curve is computed before the first file is written, so a failing
    # (scenario, pleaf) pair leaves no partial output behind
    curves = []
    for scenario in _scenarios(args):
        for pleaf, curve in zip(pleafs, args.curves(args, acts, scenario, grid)):
            curve.meta["pleaf"] = pleaf
            curves.append((scenario, pleaf, curve))
    out = _out_dir(args)
    for scenario, pleaf, curve in curves:
        name = f"dynamic_{scenario.value}_p{pleaf:g}.{args.format}"
        if args.format == "json":
            text = _curve_json(curve)
        else:
            text = _table_text(
                f"{act.title} | scenario={scenario.value} | pleaf={pleaf:g} | {curve.meta['method']}",
                ("Time", "Pgoal"), curve.xs, curve.ys, args.format,
            )
        _write(out / name, text)
    return 0


def cmd_rank(args) -> int:
    act = load_act(args.model)
    effects = rank_countermeasures(act, args.t_star, args.epsilon)
    if not effects:
        print("model has no countermeasures")
        return 0
    width = max(len(e.name) for e in effects)
    print(f"{'countermeasure':<{width}}  {'Pgoal(with)':>12}  {'Pgoal(without)':>14}  {'delta':>12}")
    for e in effects:
        print(f"{e.name:<{width}}  {_fmt(e.pgoal_with):>12}  {_fmt(e.pgoal_without):>14}  {_fmt(e.delta):>12}")
    if args.out:
        out = _out_dir(args)
        payload = [
            {"name": e.name, "pgoal_with": e.pgoal_with, "pgoal_without": e.pgoal_without, "delta": e.delta}
            for e in effects
        ]
        _write(out / "rank.json", json.dumps({"t_star": args.t_star, "ranking": payload},
                                             sort_keys=True, indent=2) + "\n")
    return 0


def cmd_export_ctmc(args) -> int:
    act = load_act(args.model)
    for scenario in _scenarios(args, default=(Scenario.FULL.value,)):
        ctmc = compose(act, scenario, state_cap=args.state_cap)
        text = export_ctmc_text(ctmc)
        print(f"# {ctmc.n} reachable states", file=sys.stderr)
        if args.out:
            _write(_out_dir(args) / f"ctmc_{scenario.value}.txt", text)
        else:
            sys.stdout.write(text)
    return 0


def cmd_fmt(args) -> int:
    act = load_act(args.model)
    sys.stdout.write(serialize_act(act))
    return 0


def _add_common(p: argparse.ArgumentParser, *, scenario: str | None = "all") -> None:
    """Add --model and, unless ``scenario`` is None, --scenario with that default."""
    p.add_argument("--model", required=True, help="path to a model file")
    if scenario:
        p.add_argument("--scenario", action="append", choices=_SCENARIOS,
                       help=f"defender scenario, repeatable (default: {scenario})")


def _add_timed(sub, name: str, helptext: str, curves) -> argparse.ArgumentParser:
    """Add a timed command that writes ``curves(args, acts, scenario, grid)``, one curve per pleaf's model, per scenario."""
    p = sub.add_parser(name, help=helptext)
    _add_common(p)
    p.add_argument("--pleaf", action="append", type=float,
                   help="attack-leaf probability, repeatable (default 0.05 0.1 0.25)")
    p.add_argument("--grid", default="0:10:101", help="time grid START:STOP:STEPS in hours (default 0:10:101)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("dat", "csv", "json"), default="dat")
    p.set_defaults(func=cmd_timed, curves=curves)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="actkit",
                                     description="attack countermeasure tree analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file for structural errors")
    _add_common(p, scenario=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("static-sweep", help="goal probability versus a common attack-leaf probability")
    _add_common(p)
    p.add_argument("--grid", default="0:1:101", help="Pleaf grid START:STOP:STEPS (default 0:1:101)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("dat", "csv", "json"), default="dat")
    p.set_defaults(func=cmd_static_sweep)

    p = _add_timed(sub, "dynamic", "timed goal-probability curves",
                   lambda args, acts, scenario, grid: [goal_curve(a, scenario, grid, args.epsilon) for a in acts])
    p.add_argument("--epsilon", type=float, default=1e-6, help="solver tolerance")

    p = _add_timed(sub, "simulate", "timed curves via Monte Carlo simulation",
                   lambda args, acts, scenario, grid: simulate_curves(
                       acts[0], scenario, grid, args.runs, args.seed,
                       [collect_rates(a, scenario)[0] for a in acts]))
    p.add_argument("--runs", type=int, default=100_000, help="simulation runs")
    p.add_argument("--seed", type=int, default=1, help="simulation seed")

    p = sub.add_parser("rank", help="rank countermeasures by removal impact")
    _add_common(p, scenario=None)
    p.add_argument("--t-star", type=float, default=2.0, help="evaluation horizon in hours")
    p.add_argument("--epsilon", type=float, default=1e-9, help="solver tolerance")
    p.add_argument("--out", default=None, help="also write rank.json here")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("export-ctmc", help="dump the composed chain as a transition list")
    _add_common(p, scenario="full")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--out", default=None, help="write ctmc_<scenario>.txt here instead of stdout")
    p.set_defaults(func=cmd_export_ctmc)

    p = sub.add_parser("fmt", help="reprint a model in canonical form")
    _add_common(p, scenario=None)
    p.set_defaults(func=cmd_fmt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "export-ctmc" and not args.out and len(args.scenario or ()) > 1:
        parser.error("export-ctmc writes several scenarios only with --out")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ActParseError, ActValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, RateUndefined, MissingParameter, StateSpaceLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
