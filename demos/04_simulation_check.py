"""
Cross-checking the solver with Monte Carlo simulation
======================================================

The simulator replays the same race the Markov chain encodes: one
exponential draw per countermeasure phase and per OR region (the attack
steps under a maximal set of OR gates that are each other's children,
which complete at the first step's time, one exponential at the sum of
their rates), and an AND gate fails permanently
when its countermeasure finishes first. Agreement within the reported
three-sigma half-widths is a strong end-to-end check because the two
implementations share no code beyond the model itself.
"""

import numpy as np

from actkit import Scenario, compose, load_bundled, simulate, transient_probability, with_attack_probability

act = with_attack_probability(load_bundled("mia"), 0.1)
times = np.linspace(0.0, 10.0, 21)
runs = 200_000

print(f"{'t':>5} {'solver':>10} {'simulated':>10} {'half-width':>11}")
for scenario in (Scenario.FULL,):
    exact = transient_probability(compose(act, scenario), times, epsilon=1e-9)
    mc = simulate(act, scenario, times, runs=runs, seed=1)
    worst = 0.0
    for t, y_exact, y_mc, hw in zip(times, exact.ys, mc.ys, mc.halfwidths):
        worst = max(worst, abs(y_exact - y_mc))
        if t in (0.0, 1.0, 2.0, 5.0, 10.0):
            print(f"{t:5.1f} {y_exact:10.6f} {y_mc:10.6f} {hw:11.6f}")
    print(f"\nlargest |solver - simulated| over the grid: {worst:.2e}")
    print(f"typical three-sigma half-width:             {max(mc.halfwidths):.2e}")
