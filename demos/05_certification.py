"""Independent certification of a computed equilibrium.

The limit point is checked against the strong stationarity system of the
complementarity-constrained formulation with explicitly constructed
multipliers. The same multipliers are a dual-feasible point of every
leader's epigraph reformulation, so weak duality turns them into an upper
bound on each leader's regret against its global best response.
"""
import numpy as np

from mlfg import certify, homotopy_solve, load_bundled

for number in (1, 2):
    game = load_bundled(number)
    trace = homotopy_solve(game)
    cert = certify(game, trace.final.x, trace.final.lam, trace.final_eps)

    print(f"dataset {number}: x* = {np.round(trace.final.x, 6)}")
    for nu, gap in enumerate(cert.nash_gaps, start=1):
        print(f"  leader {nu} upper bound on regret against its global best response: {gap:.2e}")
    print(f"  limit branch indicators: {cert.xi_bar}")
    print(f"  branch multipliers: {np.round(cert.Gamma1, 6)} / {np.round(cert.Gamma2, 6)}")
    worst = max(cert.s_stat_residuals.values())
    print(f"  worst stationarity residual: {worst:.2e}")
    print(f"  certified: {cert.certified}\n")
