"""The benchmark's workloads: seeded inputs, one pass of analyses, and checks.

Each workload draws its leaf parameters from narrow fixed ranges with
``random.Random(seed)``, so the work per pass barely changes from seed to
seed while the numbers the analyses produce do. Nothing here imports numpy,
scipy or actkit at module level: ``load`` is the first code that touches the
library, so set-up time measures the library's own imports.

A workload exposes:

- ``load()``: parse the models (timed as set-up);
- ``prepare()``: compute the independent references (not timed);
- ``analyses()``: the ``(analysis_id, thunk)`` pairs that make up one pass,
  built before the pass is timed;
- ``check(analysis_id, output)``: ``None`` when the output passes its
  accuracy gate, otherwise a one-line reason.

The references never call the library's algebra. The three synthetic
families have closed-form race integrals, evaluated with
``scipy.integrate.quad``: an AND gate guarded by a countermeasure succeeds by
``t`` with probability ``int_0^t f_A(s) S_D(s) ds``, where ``f_A`` is the
density of the attack side's completion time and ``S_D`` the survival of the
hypoexponential detect+mitigate time.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import statistics
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

# Solver tolerance used by the synthetic workloads and by `dynamic` on mia.
EPSILON = 1e-6
# Slack added to every solver-versus-quadrature comparison: quad's own error.
QUAD_SLACK = 1e-9
# Family-wise false-alarm rate of the solver-versus-simulator check on mia.
SIM_ALPHA = 1e-4


def _time_grid(stop: float, steps: int = 101) -> list[float]:
    return [stop * i / (steps - 1) for i in range(steps)]


def _survival_hypoexp(d: float, m: float):
    """Survival function of Exp(d) + Exp(m) for d != m."""
    import numpy as np

    def surv(s):
        return (m * np.exp(-d * s) - d * np.exp(-m * s)) / (m - d)

    return surv


def _race_curve(density, survival, grid) -> list[float]:
    """``int_0^t density * survival`` at each grid point, piecewise by quad."""
    from scipy.integrate import quad

    out, acc = [0.0], 0.0
    for a, b in zip(grid, grid[1:]):
        part, _ = quad(lambda s: density(s) * survival(s), a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
        acc += part
        out.append(acc)
    return out


def _max_abs_diff(xs, ys) -> float:
    return max(abs(float(x) - float(y)) for x, y in zip(xs, ys))


class AndOrScaling:
    """AND of k two-leaf ORs with one countermeasure, composed and solved.

    State exploration grows exponentially in k and does nearly all the work,
    so a change to the CTMC construction, or one that replaces it, shows
    here. k >= 9 is left out: it takes 10 s or more per model.
    """

    name = "and-or-scaling"

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.ks = [2] if smoke else [4, 5, 6, 7, 8]
        self.grid = _time_grid(10.0)
        self.params = {}
        for k in self.ks:
            pairs = [(rng.uniform(0.45, 0.55), rng.uniform(0.45, 0.55)) for _ in range(k)]
            self.params[k] = (pairs, rng.uniform(0.9, 1.1), rng.uniform(1.8, 2.2))

    def texts(self) -> dict[int, str]:
        out = {}
        for k, (pairs, d, m) in self.params.items():
            ors = ", ".join(f"o{i}" for i in range(k))
            lines = [f'act "and-or k={k}" {{', "  root top;", f"  top = AND({ors}, cm);"]
            for i, (a, b) in enumerate(pairs):
                lines.append(f"  o{i} = OR(a{i}, b{i});")
                lines.append(f"  a{i} = ATTACK(p=0.5, lambda={a!r});")
                lines.append(f"  b{i} = ATTACK(p=0.5, lambda={b!r});")
            lines += ["  cm = CM(d, m);", f"  d = DETECT(p=0.5, lambda={d!r});",
                      f"  m = MITIGATE(p=0.5, lambda={m!r});", "}"]
            out[k] = "\n".join(lines) + "\n"
        return out

    def load(self) -> None:
        import actkit

        self.acts = {k: actkit.parse_act(text) for k, text in self.texts().items()}

    def prepare(self) -> None:
        import numpy as np

        self.refs = {}
        for k, (pairs, d, m) in self.params.items():
            lams = np.array([a + b for a, b in pairs])

            def density(s, lams=lams):
                e = np.exp(-lams * s)
                one_minus = 1.0 - e
                return sum(lams[i] * e[i] * np.prod(np.delete(one_minus, i)) for i in range(lams.size))

            self.refs[f"k={k}"] = _race_curve(density, _survival_hypoexp(d, m), self.grid)

    def analyses(self):
        import actkit

        def run(k):
            ctmc = actkit.compose(self.acts[k], actkit.Scenario.FULL)
            return actkit.transient_probability(ctmc, self.grid, EPSILON).ys
        return [(f"k={k}", lambda k=k: run(k)) for k in self.ks]

    def check(self, analysis_id, ys):
        err = _max_abs_diff(ys, self.refs[analysis_id])
        if err > EPSILON + QUAD_SLACK:
            return f"max |solver - quad| = {err:.3g} > {EPSILON + QUAD_SLACK:.3g}"
        return None


class StiffChain:
    """One fast leaf (about 50/h) racing a slow detect+mitigate pair.

    The chain has 4 states, but the grid reaches t=1000, so uniformization
    needs about 51 k Poisson terms: few states and a huge K, the opposite of
    and-or-scaling.
    """

    name = "stiff-chain"

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.lam = rng.uniform(1.98, 2.02) if smoke else rng.uniform(49.5, 50.5)
        self.d = rng.uniform(0.45, 0.55)
        self.m = rng.uniform(0.22, 0.28)
        self.grid = _time_grid(1000.0)

    def texts(self) -> dict[str, str]:
        return {"stiff": (
            'act "stiff chain" {\n  root top;\n  top = AND(a, cm);\n'
            f"  a = ATTACK(p=0.5, lambda={self.lam!r});\n  cm = CM(d, m);\n"
            f"  d = DETECT(p=0.5, lambda={self.d!r});\n  m = MITIGATE(p=0.5, lambda={self.m!r});\n}}\n"
        )}

    def load(self) -> None:
        import actkit

        self.act = actkit.parse_act(self.texts()["stiff"])

    def prepare(self) -> None:
        import numpy as np

        lam = self.lam
        self.ref = _race_curve(lambda s: lam * np.exp(-lam * s), _survival_hypoexp(self.d, self.m), self.grid)

    def analyses(self):
        import actkit

        def run():
            ctmc = actkit.compose(self.act, actkit.Scenario.FULL)
            return actkit.transient_probability(ctmc, self.grid, EPSILON).ys
        return [("stiff", run)]

    def check(self, analysis_id, ys):
        err = _max_abs_diff(ys, self.ref)
        if err > EPSILON + QUAD_SLACK:
            return f"max |solver - quad| = {err:.3g} > {EPSILON + QUAD_SLACK:.3g}"
        return None


class RankManyCm:
    """rank_countermeasures at t*=2 on an OR of m guarded branches.

    Each branch is AND(OR(a, b), CM). Ranking rebuilds m+1 chains for one
    time point, so an incremental or cached ranking shows here only.
    """

    name = "rank-many-cm"
    T_STAR = 2.0
    RANK_EPSILON = 1e-9  # the library's default for rank_countermeasures

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.ms = [2] if smoke else [4, 5, 6]
        self.params = {}
        for m in self.ms:
            self.params[m] = [
                (rng.uniform(0.18, 0.22), rng.uniform(0.18, 0.22), rng.uniform(0.9, 1.1), rng.uniform(1.8, 2.2))
                for _ in range(m)
            ]

    def texts(self) -> dict[int, str]:
        out = {}
        for m, branches in self.params.items():
            gs = ", ".join(f"g{i}" for i in range(m))
            lines = [f'act "rank m={m}" {{', "  root top;", f"  top = OR({gs});"]
            for i, (a, b, d, mit) in enumerate(branches):
                lines += [
                    f"  g{i} = AND(o{i}, cm{i});", f"  o{i} = OR(a{i}, b{i});",
                    f"  a{i} = ATTACK(p=0.5, lambda={a!r});", f"  b{i} = ATTACK(p=0.5, lambda={b!r});",
                    f"  cm{i} = CM(d{i}, m{i});", f"  d{i} = DETECT(p=0.5, lambda={d!r});",
                    f"  m{i} = MITIGATE(p=0.5, lambda={mit!r});",
                ]
            lines.append("}")
            out[m] = "\n".join(lines) + "\n"
        return out

    def load(self) -> None:
        import actkit

        self.acts = {m: actkit.parse_act(text) for m, text in self.texts().items()}

    def prepare(self) -> None:
        """Closed-form ranking: branches are independent, so P = 1 - prod(1 - P_i)."""
        import numpy as np

        t = self.T_STAR
        self.refs = {}
        for m, branches in self.params.items():
            guarded, bare = [], []
            for a, b, d, mit in branches:
                lam = a + b
                guarded.append(_race_curve(lambda s, lam=lam: lam * np.exp(-lam * s),
                                           _survival_hypoexp(d, mit), [0.0, t])[-1])
                bare.append(-math.expm1(-lam * t))
            with_all = 1.0 - math.prod(1.0 - p for p in guarded)
            effects = {}
            for i in range(m):
                rest = math.prod(1.0 - p for j, p in enumerate(guarded) if j != i)
                effects[f"cm{i}"] = (1.0 - rest * (1.0 - bare[i])) - with_all
            self.refs[f"m={m}"] = (with_all, effects)

    def analyses(self):
        import actkit

        def run(m):
            return [(e.name, e.pgoal_with, e.pgoal_without, e.delta)
                    for e in actkit.rank_countermeasures(self.acts[m], self.T_STAR)]
        return [(f"m={m}", lambda m=m: run(m)) for m in self.ms]

    def check(self, analysis_id, ranking):
        with_all, effects = self.refs[analysis_id]
        tol = self.RANK_EPSILON + QUAD_SLACK
        if sorted(name for name, *_ in ranking) != sorted(effects):
            return "ranking does not list every countermeasure once"
        for name, p_with, p_without, delta in ranking:
            if abs(p_with - with_all) > tol or abs(delta - effects[name]) > 2 * tol:
                return f"{name}: with={p_with!r} delta={delta!r}, reference {with_all!r} {effects[name]!r}"
            if p_without - p_with != delta:
                return f"{name}: delta is not without - with"
        deltas = [effects[name] for name, *_ in ranking]
        if any(b > a + 4 * tol for a, b in zip(deltas, deltas[1:])):
            return "ranking is not ordered by decreasing reference delta"
        return None


class MiaCli:
    """The CLI paths a user runs, in-process, on the bundled mia model.

    Every layer is light here, so the simulator, CLI overhead and output
    formatting show. The model's leaf probabilities are redrawn near their
    bundled values from the seed; the simulator seed is the benchmark seed.
    """

    name = "mia-cli"
    COMMANDS = ("static-sweep", "dynamic-dat", "dynamic-json", "simulate", "rank", "export-ctmc")

    def __init__(self, seed: int, smoke: bool, root: Path, out_dir: Path):
        rng = random.Random(seed)
        self.seed = seed
        self.runs = 1000 if smoke else 100_000  # the CLI default, written out
        self.pleaf = [round(rng.uniform(0.95, 1.05) * p, 6) for p in (0.05, 0.1, 0.25)]
        bundled = (root / "src" / "actkit" / "data" / "mia.act").read_text(encoding="utf-8")
        ranges = {"ATTACK": (0.045, 0.055), "DETECT": (0.45, 0.55), "MITIGATE": (0.45, 0.55)}
        self.text = re.sub(
            r"\b(ATTACK|DETECT|MITIGATE)\(p=[0-9.]+",
            lambda mt: f"{mt.group(1)}(p={round(rng.uniform(*ranges[mt.group(1)]), 6)!r}",
            bundled,
        )
        self.out = out_dir
        self.model_path = out_dir / "model.act"
        self.reference_bytes: dict[str, dict] = {}

    def write_inputs(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.model_path.write_text(self.text, encoding="utf-8")

    def load(self) -> None:
        import actkit
        import actkit.cli  # noqa: F401  (the CLI's import cost is part of set-up)

        self.act = actkit.load_act(self.model_path)

    def prepare(self) -> None:
        pass

    def argv(self, command: str) -> list[str]:
        model, out = str(self.model_path), str(self.out / command)
        pleaf = [arg for p in self.pleaf for arg in ("--pleaf", repr(p))]
        return {
            "static-sweep": ["static-sweep", "--model", model, "--out", out],
            "dynamic-dat": ["dynamic", "--model", model, *pleaf, "--out", out],
            "dynamic-json": ["dynamic", "--model", model, *pleaf, "--format", "json", "--out", out],
            "simulate": ["simulate", "--model", model, *pleaf, "--format", "json",
                         "--runs", str(self.runs), "--seed", str(self.seed), "--out", out],
            "rank": ["rank", "--model", model, "--t-star", "2", "--out", out],
            "export-ctmc": ["export-ctmc", "--model", model, "--out", out],
        }[command]

    def analyses(self):
        import actkit.cli

        for command in self.COMMANDS:
            shutil.rmtree(self.out / command, ignore_errors=True)

        def run(command):
            buf = StringIO()
            with redirect_stdout(buf):
                rc = actkit.cli.main(self.argv(command))
            return rc, buf.getvalue()
        return [(command, lambda command=command: run(command)) for command in self.COMMANDS]

    def outputs(self, command: str) -> dict[str, bytes]:
        folder = self.out / command
        return {p.name: p.read_bytes() for p in sorted(folder.iterdir())} if folder.is_dir() else {}

    def bytes_written(self) -> int:
        return sum(len(b) for c in self.COMMANDS for b in self.outputs(c).values())

    def check(self, command, result):
        rc, stdout = result
        if rc != 0:
            return f"exit code {rc}"
        files = self.outputs(command)
        snapshot = {"stdout": stdout.encode(), **files}
        reason = getattr(self, "_check_" + command.replace("-", "_"))(files, stdout)
        if reason is None and command in self.reference_bytes:
            if snapshot != self.reference_bytes[command]:
                reason = "output differs from the first pass"
        self.reference_bytes.setdefault(command, snapshot)
        return reason

    def _curves(self, command: str) -> dict[str, dict]:
        return {name: json.loads(b) for name, b in self.outputs(command).items()}

    def _check_static_sweep(self, files, stdout):
        if len(files) != 3:
            return f"expected 3 files, got {len(files)}"
        table = {}
        for name, raw in files.items():
            rows = [line.split() for line in raw.decode().splitlines() if not line.startswith("#")]
            table[name] = [float(y) for _, y in rows]
            if len(rows) != 101 or any(b < a for a, b in zip(table[name], table[name][1:])):
                return f"{name}: not 101 rows nondecreasing in pleaf"
        # a stronger defender never raises the goal probability
        lo, mid, hi = (table[f"static_{s}.dat"] for s in ("detect-only", "full", "no-cm"))
        if any(not a <= b <= c for a, b, c in zip(lo, mid, hi)):
            return "scenario order detect-only <= full <= no-cm is violated"
        return None

    def _check_dynamic_dat(self, files, stdout):
        if len(files) != 9:
            return f"expected 9 files, got {len(files)}"
        curves = self._curves("dynamic-json")
        for name, raw in files.items():
            ys = [line.split()[1] for line in raw.decode().splitlines() if not line.startswith("#")]
            twin = curves.get(name.replace(".dat", ".json"))
            if twin is None or ys != [format(y, ".6g") for y in twin["ys"]]:
                return f"{name}: differs from the json output of the same run"
        return None

    def _check_dynamic_json(self, files, stdout):
        """The solver must sit inside the simulator's widened half-widths."""
        if len(files) != 9:
            return f"expected 9 files, got {len(files)}"
        sims = self._curves("simulate")
        n_points = sum(len(c["ys"]) for c in sims.values())
        z = statistics.NormalDist().inv_cdf(1.0 - SIM_ALPHA / (2 * max(n_points, 1)))
        for name, raw in files.items():
            solver, sim = json.loads(raw), sims.get(name)
            if sim is None or len(sim["ys"]) != len(solver["ys"]):
                return f"{name}: no matching simulation"
            runs = sim["meta"]["runs"]
            for p, q, hw in zip(solver["ys"], sim["ys"], sim["halfwidths"]):
                if not 0.0 <= p <= 1.0:
                    return f"{name}: solver value {p!r} is not a probability"
                sigma = max(hw / 3.0, math.sqrt(p * (1.0 - p) / runs))
                if abs(p - q) > z * sigma + EPSILON:
                    return f"{name}: solver {p:.6g} vs simulator {q:.6g} beyond {z:.2f} sigma"
        return None

    def _check_simulate(self, files, stdout):
        if len(files) != 9:
            return f"expected 9 files, got {len(files)}"
        for name, curve in self._curves("simulate").items():
            if curve["meta"].get("runs") != self.runs or curve["halfwidths"] is None:
                return f"{name}: wrong run count or missing half-widths"
        return None

    def _check_rank(self, files, stdout):
        ranking = json.loads(files.get("rank.json", b"{}")).get("ranking", [])
        if len(ranking) != 2:
            return f"expected 2 countermeasures, got {len(ranking)}"
        # removing a countermeasure can only help the attacker
        if any(e["delta"] < -1e-9 for e in ranking):
            return "a countermeasure with negative effect"
        return None

    def _check_export_ctmc(self, files, stdout):
        text = files.get("ctmc_full.txt", b"").decode()
        return None if text.startswith("#states ") else "missing or malformed ctmc_full.txt"


CLASSES = {cls.name: cls for cls in (MiaCli, AndOrScaling, StiffChain, RankManyCm)}
NAMES = tuple(CLASSES)


def make(name: str, seed: int, smoke: bool, root: Path, out_dir: Path):
    if name == "mia-cli":
        return MiaCli(seed, smoke, root, out_dir)
    return CLASSES[name](seed, smoke)
