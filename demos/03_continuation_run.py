"""Full continuation run on the first bundled game.

Each stage solves the smoothed equilibrium system by semismooth Newton and
warm-starts the next one through a first-order predictor. The distance to
the final point decays roughly quadratically in the smoothing level.
"""
import numpy as np

from mlfg import homotopy_solve, load_bundled

game = load_bundled(1)
trace = homotopy_solve(game)

errs = trace.errors_to_final()
print("stage   eps          iters  warm-start merit  |x - x_final|")
for s, err in zip(trace.stages, errs):
    print(f"{s.index:4d}   {s.eps:.3e}  {s.result.iterations:4d}   "
          f"{s.warm_start_merit:.3e}       {err:.3e}")

eps = trace.eps_values()
window = slice(-7, -1)
slope = np.polyfit(np.log(eps[window]), np.log(errs[window]), 1)[0]
print(f"\nlog-log decay slope over the last six stages: {slope:.3f}")
print(f"equilibrium: x* = {np.round(trace.final.x, 8)}")
print(f"multipliers: lambda* = {trace.final.lam}")
