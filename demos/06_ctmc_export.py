"""
Inspecting the underlying Markov chain
=======================================

Timed analysis works on a continuous-time Markov chain compiled from the
tree. Its states track which attack leaves have completed and how far each
countermeasure has got. A subtree that is already decided only records
whether it succeeded, in one canonical form, so states that differ in how
it was decided are one state; states that can no longer reach the goal
merge into one absorbing blocked state.
"""

from actkit import (
    Scenario,
    compose,
    export_ctmc_text,
    load_bundled,
    parse_ctmc_text,
)

act = load_bundled("mia")

# State counts per scenario. Dropping countermeasures shrinks the chain.
print("scenario      states  transitions")
for scenario in Scenario:
    ctmc = compose(act, scenario)
    print(f"{scenario.value:12s} {ctmc.n:7d} {ctmc.data.size:12d}")

# The chain serializes to a plain transition list, handy for diffing or
# for feeding an external model checker.
ctmc = compose(act, Scenario.FULL)
text = export_ctmc_text(ctmc)
print(f"\nexport of the full-scenario chain ({ctmc.n} states), first lines:")
for line in text.splitlines()[:8]:
    print(f"  {line}")

# Parsing the export reproduces the chain exactly.
again = parse_ctmc_text(text)
assert export_ctmc_text(again) == text
print("\nround-trip through text is exact")
