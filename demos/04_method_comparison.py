"""Semismooth Newton versus subgradient descent at fixed smoothing levels.

Both minimize the same merit from the same cold start to the same
tolerance; the first-order method pays a large iteration premium, and its
premium grows as the smoothing level shrinks.
"""
from mlfg import load_bundled, newton_solve, subgradient_solve

game = load_bundled(1)
tol = 1e-10

print("eps    newton iters   subgradient iters   ratio")
for eps in (1.6, 0.8, 0.4, 0.2, 0.1):
    rn = newton_solve(game, eps=eps, tol=tol)
    rs = subgradient_solve(game, eps=eps, tol=tol)
    assert rn.converged and rs.converged
    print(f"{eps:<5}  {rn.iterations:12d}   {rs.iterations:17d}   {rs.iterations / rn.iterations:5.0f}x")

print("\nmerit trace of the subgradient run at eps=0.4 (every 40th iterate):")
rs = subgradient_solve(game, eps=0.4, tol=tol)
for k in range(0, len(rs.merit_history), 40):
    print(f"  iter {k:4d}: merit {rs.merit_history[k]:.3e}")
