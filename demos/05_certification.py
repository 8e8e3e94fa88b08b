"""Independent certification of a computed equilibrium.

The limit point is checked against the strong stationarity system of the
complementarity-constrained formulation with explicitly constructed
multipliers. The same multipliers are a dual-feasible point of every
leader's epigraph reformulation, so weak duality turns them into an upper
bound on each leader's regret against its global best response.

``solve`` returns the point that ``mlfg solve`` reports and certifies: on
both bundled games, the exact equilibrium that the endgame finds after
the first stage of the continuation.
"""
import numpy as np

from mlfg import load_bundled, solve

for number in (1, 2):
    sol = solve(load_bundled(number))
    cert = sol.certificate

    print(f"dataset {number}: x* = {np.round(sol.x, 6)} (exact endgame after stage {sol.endgame})")
    for nu, gap in enumerate(cert.nash_gaps, start=1):
        print(f"  leader {nu} upper bound on regret against its global best response: {gap:.2e}")
    print(f"  limit branch indicators: {cert.xi_bar}")
    print(f"  branch multipliers: {np.round(cert.Gamma1, 6)} / {np.round(cert.Gamma2, 6)}")
    worst = max(cert.s_stat_residuals.values())
    print(f"  worst stationarity residual: {worst:.2e}")
    print(f"  certified: {cert.certified}\n")
