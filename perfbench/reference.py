"""Reference equilibria of the bundled games, computed without ``mlfg``.

Writes ``perfbench/data/reference.json``, which the benchmark pins; rerun
only when the bundled data change:

    python3 perfbench/reference.py

Both references use numpy on the game JSON alone:

* ``newton`` (``mlfg solve`` defaults, smoothing down to 1e-6): the exact
  equilibrium of the nonsmooth game. Every combination of follower branch
  and active leader constraint set gives a linear KKT system; the one
  whose solution is consistent in branch signs, feasibility and multiplier
  signs is the equilibrium (the potential is strictly convex, so it is
  unique). Tolerance 1e-6: the continuation ends within about 2e-7.
* ``subgradient`` (``--method subgradient --eps-min 0.05``): the
  equilibrium of the game smoothed at 0.05, by Newton's method on the
  gradient of the smoothed potential (both bundled equilibria have every
  leader constraint inactive). The subgradient solver stops at
  merit <= 1e-10, a residual norm r <= sqrt(2e-10), with multipliers of
  the same size; strong monotonicity then bounds the distance to the
  smoothed equilibrium by r * sqrt(1 + |G|^2) / mu, with G the constraint
  gradient block and mu the smallest eigenvalue of the leader Hessian
  stack. That bound is the tolerance.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "data" / "reference.json"
SUBGRADIENT_EPS = 0.05
MERIT_TOL = 1e-10
NEWTON_X_TOL = 1e-6


def _blocks(doc: dict):
    leaders, fol = doc["leaders"], doc["follower"]
    n = sum(len(ld["c"]) for ld in leaders)
    m_bar = sum(len(ld["b"]) for ld in leaders)
    Q, G = np.zeros((n, n)), np.zeros((n, m_bar))
    c, b = np.zeros(n), np.zeros(m_bar)
    i = k = 0
    for ld in leaders:
        A = np.array(ld["A"], dtype=float)
        nv, nc = A.shape
        Q[i : i + nv, i : i + nv] = ld["Q"]
        G[i : i + nv, k : k + nc] = A
        c[i : i + nv] = ld["c"]
        b[k : k + nc] = ld["b"]
        i, k = i + nv, k + nc
    drive = np.array(fol["B"]) / np.array(fol["Qy_diag"])[None, :]
    return Q, G, c, b, drive, np.array(fol["L"], dtype=float), np.array(fol["a"], dtype=float)


def exact_equilibrium(doc: dict) -> np.ndarray:
    Q, G, c, b, drive, L, a = _blocks(doc)
    n, m_bar = G.shape
    found = []
    for branch in itertools.product((False, True), repeat=a.size):
        grad_y = np.where(np.array(branch), L, drive) @ a
        for mask in itertools.product((False, True), repeat=m_bar):
            act = np.flatnonzero(mask)
            k = act.size
            K = np.zeros((n + k, n + k))
            K[:n, :n] = Q
            K[:n, n:] = G[:, act]
            K[n:, :n] = G[:, act].T
            try:
                sol = np.linalg.solve(K, np.concatenate([-c - grad_y, -b[act]]))
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:n], sol[n:]
            t = (L - drive).T @ x
            if np.any(lam < 0.0) or np.any(G.T @ x + b > 1e-12):
                continue
            if np.any((t > 0.0) != np.array(branch)):
                continue
            found.append(x)
    if len(found) != 1:
        raise RuntimeError(f"expected one consistent piece, found {len(found)}")
    return found[0]


def smoothed_equilibrium(doc: dict, eps: float) -> tuple[np.ndarray, float]:
    """Equilibrium at smoothing level ``eps`` and the distance tolerance."""
    Q, G, c, b, drive, L, a = _blocks(doc)
    S, D = (L + drive).T, (L - drive).T
    x = np.zeros(Q.shape[0])
    for _ in range(100):
        t = D @ x
        r = np.sqrt(t * t + 4.0 * eps * eps)
        grad = Q @ x + c + 0.5 * S.T @ a + 0.5 * D.T @ (a * t / r)
        if np.linalg.norm(grad) < 1e-14:
            break
        hess = Q + 0.5 * (D.T * (a * 4.0 * eps * eps / r**3)) @ D
        x = x - np.linalg.solve(hess, grad)
    else:
        raise RuntimeError("Newton's method on the smoothed potential did not converge")
    if np.any(G.T @ x + b >= 0.0):
        raise RuntimeError("a leader constraint is active at the smoothed equilibrium")
    mu = float(np.linalg.eigvalsh(Q)[0])
    tol = np.sqrt(2.0 * MERIT_TOL) * np.sqrt(1.0 + np.linalg.norm(G, 2) ** 2) / mu
    return x, float(tol)


def main() -> int:
    refs = {}
    for number in (1, 2):
        doc = json.loads((ROOT / "src" / "mlfg" / "data" / f"dataset{number}.json").read_text())
        x_sub, tol_sub = smoothed_equilibrium(doc, SUBGRADIENT_EPS)
        refs[f"dataset{number}"] = {
            "newton": {"x": exact_equilibrium(doc).tolist(), "tol": NEWTON_X_TOL},
            "subgradient": {"x": x_sub.tolist(), "tol": tol_sub, "eps": SUBGRADIENT_EPS},
        }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(refs, indent=1) + "\n")
    print(OUT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
