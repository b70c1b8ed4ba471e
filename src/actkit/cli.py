"""Command line interface.

Commands mirror the library: ``validate``, ``static-sweep``, ``dynamic``
(``goal_curve``), ``simulate`` (Monte Carlo), ``rank``, ``export-ctmc`` and
``fmt``. Each timed command runs one method and takes only that method's
options: ``dynamic`` the solver's ``--epsilon``, ``simulate`` ``--runs``
and ``--seed``. Only ``export-ctmc`` builds a chain, so only it takes
``--state-cap``. Data files use two whitespace-separated columns with
``#`` comment lines, CSV files a header row, and JSON files
``json.dumps(..., sort_keys=True, indent=2)``; numbers in tables are
printed with six significant digits, and repeated runs with identical
flags produce byte-identical outputs. A timed command asks for every
(scenario, ``--pleaf``) curve in one call, which reads the model's gate
table once: ``dynamic`` solves every curve in that call, and ``simulate``
draws each event once per call and folds every curve from those draws, so
all its curves are positively correlated (common random numbers). An
event is a countermeasure phase, an attack leaf under an AND gate, or an
OR region, the attack leaves under a maximal set of OR gates that are
each other's children, which draw once at the sum of their rates;
``meta["events"]`` in ``--format json`` counts a curve's. Each
file still matches a single-``--scenario``, single-``--pleaf`` run (with
the same ``--seed``) byte for byte.

``main`` builds the subparser of the command its argv names and no other
(help, and a missing or unknown command, get them all), and the model is
parsed in one regular-expression scan, so the fixed cost of a command is
the same whether it is the only one a process runs or one of many; nothing
is kept from one call to the next.

Exit codes: 0 success, 1 I/O error, 2 usage, parse or validation error,
3 numeric, state-space or memory limit.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .model import Scenario
from .ranking import rank_countermeasures
from .semantics import DEFAULT_STATE_CAP, compose, export_ctmc_text
from .statics import sweep_pleaf
from .transient import goal_curves, simulate_curves

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
    if steps < 2 or not stop > start or not math.isfinite(stop - start):
        raise DomainError("grid needs STOP > START, a finite STOP - START and at least 2 steps")
    return np.linspace(start, stop, steps)


def _scenarios(args, default=_SCENARIOS) -> list[Scenario]:
    return [Scenario(n) for n in dict.fromkeys(args.scenario or default)]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(path)


def _result_text(fmt: str, payload: dict, comment: str, columns: tuple[str, str], xs, ys) -> str:
    """The ``fmt`` text of one result: ``payload`` as JSON, or ``xs`` against ``ys`` as a table.

    A ``dat`` table opens with ``comment`` as a ``#`` line, a ``csv`` table
    with ``columns`` as its header row.
    """
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sep, header = (" ", f"# {comment}") if fmt == "dat" else (",", ",".join(columns))
    return "\n".join([header, *(f"{_fmt(x)}{sep}{_fmt(y)}" for x, y in zip(xs, ys))]) + "\n"


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
    results = sweep_pleaf(act, _parse_grid(args.grid), _scenarios(args))
    out = _out_dir(args)  # after the sweep, so a refused grid leaves no directory behind
    for result in results:
        scenario = result.scenario.value
        payload = {"scenario": scenario, "grid": result.grid, "pgoal": result.pgoal, "model": act.title}
        text = _result_text(args.format, payload, f"{act.title} | scenario={scenario} | static sweep",
                            ("Pleaf", "Pgoal"), result.grid, result.pgoal)
        _write(out / f"static_{scenario}.{args.format}", text)
    return 0


def cmd_timed(args) -> int:
    act = load_act(args.model)
    grid = _parse_grid(args.grid)
    # every curve is computed before the first file is written, so a failing
    # (scenario, pleaf) pair leaves no partial output behind; one call over
    # every distinct pair reads the gate table once (+ 0.0 makes -0.0 the pleaf 0, p0)
    pleafs = dict.fromkeys(pleaf + 0.0 for pleaf in args.pleaf or _DEFAULT_PLEAF)
    pairs = [(scenario, pleaf) for scenario in _scenarios(args) for pleaf in pleafs]
    if args.command == "dynamic":
        curves = [curve for curve, _ in goal_curves(act, grid, args.epsilon, pairs)]
    else:
        curves = simulate_curves(act, grid, args.runs, args.seed, pairs)
    out = _out_dir(args)
    for (scenario, pleaf), curve in zip(pairs, curves):
        curve.meta["pleaf"] = pleaf
        payload = {"scenario": scenario.value, "xs": curve.xs, "ys": curve.ys,
                   "halfwidths": curve.halfwidths, "meta": curve.meta}
        text = _result_text(args.format, payload,
                            f"{act.title} | scenario={scenario.value} | pleaf={pleaf:g} | {curve.meta['method']}",
                            ("Time", "Pgoal"), curve.xs, curve.ys)
        _write(out / f"dynamic_{scenario.value}_p{pleaf:g}.{args.format}", text)
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
        text = json.dumps({"t_star": args.t_star, "ranking": payload}, sort_keys=True, indent=2) + "\n"
        _write(out / "rank.json", text)
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


def _timed_options(p: argparse.ArgumentParser) -> None:
    """Add the options that ``dynamic`` and ``simulate`` share; ``cmd_timed`` writes one curve per (scenario, pleaf) pair."""
    _add_common(p)
    p.add_argument("--pleaf", action="append", type=float,
                   help="attack-leaf probability, repeatable (default 0.05 0.1 0.25)")
    p.add_argument("--grid", default="0:10:101", help="time grid START:STOP:STEPS in hours (default 0:10:101)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("dat", "csv", "json"), default="dat")
    p.set_defaults(func=cmd_timed)


def _validate_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, scenario=None)
    p.set_defaults(func=cmd_validate)


def _static_sweep_options(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--grid", default="0:1:101", help="Pleaf grid START:STOP:STEPS (default 0:1:101)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("dat", "csv", "json"), default="dat")
    p.set_defaults(func=cmd_static_sweep)


def _dynamic_options(p: argparse.ArgumentParser) -> None:
    _timed_options(p)
    p.add_argument("--epsilon", type=float, default=1e-6,
                   help="solver tolerance; refinement stops at the curve's rounding level, and the "
                        "--format json meta's error_bound reports what was reached")


def _simulate_options(p: argparse.ArgumentParser) -> None:
    _timed_options(p)
    p.add_argument("--runs", type=int, default=100_000, help="simulation runs")
    p.add_argument("--seed", type=int, default=1, help="simulation seed")


def _rank_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, scenario=None)
    p.add_argument("--t-star", type=float, default=2.0, help="evaluation horizon in hours")
    p.add_argument("--epsilon", type=float, default=1e-9,
                   help="solver tolerance; refinement stops at the curve's rounding level")
    p.add_argument("--out", default=None, help="also write rank.json here")
    p.set_defaults(func=cmd_rank)


def _export_ctmc_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, scenario="full")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--out", default=None, help="write ctmc_<scenario>.txt here instead of stdout")
    p.set_defaults(func=cmd_export_ctmc)


def _fmt_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, scenario=None)
    p.set_defaults(func=cmd_fmt)


# each command's help line and the function that adds its options to its subparser
_COMMANDS = {
    "validate": ("check a model file for structural errors", _validate_options),
    "static-sweep": ("goal probability versus a common attack-leaf probability", _static_sweep_options),
    "dynamic": ("timed goal-probability curves", _dynamic_options),
    "simulate": ("timed curves via Monte Carlo simulation", _simulate_options),
    "rank": ("rank countermeasures by removal impact", _rank_options),
    "export-ctmc": ("dump the composed chain as a transition list", _export_ctmc_options),
    "fmt": ("reprint a model in canonical form", _fmt_options),
}


def _parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command's subparser, or with only the subparser of ``only``.

    A parser built for ``only`` parses only an argv that names ``only``
    first. Its usage still lists every command, as the full parser's does.
    """
    parser = argparse.ArgumentParser(prog="actkit",
                                     description="attack countermeasure tree analysis")
    # Without a metavar, usage lists the subparsers built. Errors about the
    # command itself name it by its metavar, but a parser built for ``only``
    # never raises them: its argv names a command.
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if only is None else (only,):
        helptext, add_options = _COMMANDS[name]
        add_options(sub.add_parser(name, help=helptext))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command named first is parsed by its own subparser alone, so only
    # that one is built; anything else (help, a missing or unknown command)
    # gets every subparser.
    parser = _parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command == "export-ctmc" and not args.out and len(set(args.scenario or ())) > 1:
        parser.error("export-ctmc writes several scenarios only with --out")
    named: dict[str, float] = {}  # each distinct --pleaf by the name its files carry
    for pleaf in getattr(args, "pleaf", None) or ():
        first = named.setdefault(f"{pleaf:g}", pleaf)
        if first != pleaf and not math.isnan(pleaf):  # nan is no probability, and the analysis says so
            parser.error(f"--pleaf {first!r} and {pleaf!r} would write the same files (p{pleaf:g})")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ActParseError, ActValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, RateUndefined, MissingParameter, StateSpaceLimit, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
