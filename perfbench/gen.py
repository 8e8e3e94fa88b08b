"""Seeded generator of valid quadratic multi-leader-follower games.

Each game is built backwards from a chosen equilibrium ``x_star``: the
leader Hessians, follower data and constraint matrices are drawn at random,
then the constraint offsets ``b`` and the linear terms ``c`` are solved for
so that ``x_star`` satisfies the exact (nonsmooth) equilibrium conditions

    Q_nu x_nu + c_nu + sum_j a_j grad_nu y_j(x) + A_nu lam_nu = 0,
    A_nu' x_nu + b_nu <= 0,  lam_nu >= 0,  complementarity,

where ``y_j = max(drive_j' x, bound_j' x)`` picks the branch given by the
sign of ``t = (L' - B'/Qy) x``. The game is a potential game with a strictly
convex potential, so ``x_star`` is its unique equilibrium and serves as the
reference solution.

Knobs:

* the size ladder: (leaders, variables per leader, constraints per leader,
  follower dimension m) for each game;
* ``active_share``: the share of leader constraints that are active at
  ``x_star`` with a strictly positive multiplier;
* ``kink_share`` and ``kink_range``: the share of follower components whose
  branch argument ``t_j`` sits at ``|t_j|`` in ``kink_range`` (close to the
  kink of the max) instead of well inside one branch.

The same seed gives byte-identical files. Usage:

    python3 perfbench/gen.py --seed 7 --out DIR
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# (leaders, variables per leader, constraints per leader, follower dimension m).
# m stays at 1-2 so that the certificate's 2**(2m + constraints) active-set
# enumeration per leader stays a minority of the solve; the Newton system
# n + m_bar grows from 8 to 64 unknowns.
LADDER = (
    (2, 2, 2, 1),
    (2, 3, 3, 1),
    (3, 3, 2, 2),
    (3, 4, 2, 1),
    (4, 3, 3, 1),
    (4, 4, 2, 1),
    (5, 4, 2, 2),
    (5, 5, 2, 1),
    (6, 4, 3, 1),
    (6, 5, 2, 1),
    (7, 5, 2, 1),
    (7, 5, 3, 1),
    (8, 5, 2, 2),
    (8, 6, 2, 1),
)
# games drawn per rung; more games per ladder average out how much a single
# draw costs to solve
PER_RUNG = 3
ACTIVE_SHARE = 0.3
KINK_SHARE = 0.25
KINK_RANGE = (1e-4, 1e-2)
# |t_j| of components placed well inside one branch
BRANCH_RANGE = (0.3, 2.0)


def _spd(rng: np.random.Generator, k: int) -> np.ndarray:
    M = rng.uniform(-1.0, 1.0, (k, k))
    Q = M @ M.T / k + np.diag(rng.uniform(0.8, 2.0, k))
    return 0.5 * (Q + Q.T)  # exactly symmetric


def _choose(rng: np.random.Generator, pool: list, share: float) -> set:
    """A set of round(share * len(pool)) items drawn from ``pool``."""
    count = int(np.floor(share * len(pool) + 0.5))
    picks = rng.choice(len(pool), size=count, replace=False)
    return {pool[i] for i in picks}


def generate_game(
    rng: np.random.Generator,
    leaders: int,
    n_vars: int,
    n_cons: int,
    m: int,
    kink: set[int],
    active_share: float = ACTIVE_SHARE,
    kink_range: tuple[float, float] = KINK_RANGE,
) -> tuple[dict, list[float]]:
    """One game document (the program's JSON format) and its equilibrium.

    ``kink`` holds the follower components placed near the kink.
    """
    n = leaders * n_vars
    Qs = [_spd(rng, n_vars) for _ in range(leaders)]
    As = [rng.standard_normal((n_vars, n_cons)) for _ in range(leaders)]
    Qy = rng.uniform(0.5, 4.0, m)
    B = rng.uniform(0.5, 3.0, (n, m))
    L = rng.uniform(0.5, 3.0, (n, m))
    a = rng.uniform(0.5, 3.0, m)
    x_star = rng.uniform(-2.0, 2.0, n)

    # place each branch argument t_j = (L' x - B' x / Qy)_j at its target by
    # moving the bound column L[:, j] along x_star
    drive = B / Qy[None, :]
    t0 = (L - drive).T @ x_star
    sign = rng.choice((-1.0, 1.0), m)
    lo, hi = np.log10(kink_range[0]), np.log10(kink_range[1])
    t = np.array(
        [
            s * (10.0 ** rng.uniform(lo, hi) if j in kink else rng.uniform(*BRANCH_RANGE))
            for j, s in enumerate(sign)
        ]
    )
    L = L + np.outer(x_star, (t - t0) / float(x_star @ x_star))
    grad_y = np.where(t > 0.0, L, drive) @ a  # gradient of a' y(x) at x_star

    # at most n_vars - 1 active constraints per leader keeps the active
    # gradients linearly independent with room to move
    pool = [(nu, i) for nu in range(leaders) for i in range(n_cons)]
    active = set()
    for item in sorted(_choose(rng, pool, active_share)):
        if sum(1 for nu, _ in active if nu == item[0]) < n_vars - 1:
            active.add(item)

    docs = []
    for nu in range(leaders):
        s = slice(nu * n_vars, (nu + 1) * n_vars)
        x_nu = x_star[s]
        lam = np.array([rng.uniform(0.5, 2.0) if (nu, i) in active else 0.0 for i in range(n_cons)])
        slack = np.array([0.0 if (nu, i) in active else rng.uniform(0.5, 2.0) for i in range(n_cons)])
        b = -(As[nu].T @ x_nu) - slack
        c = -(Qs[nu] @ x_nu + grad_y[s] + As[nu] @ lam)
        docs.append({"Q": Qs[nu].tolist(), "c": c.tolist(), "A": As[nu].tolist(), "b": b.tolist()})
    doc = {
        "leaders": docs,
        "follower": {"Qy_diag": Qy.tolist(), "B": B.tolist(), "L": L.tolist(), "a": a.tolist()},
    }
    return doc, x_star.tolist()


def generate_ladder(
    seed: int,
    ladder=LADDER,
    per_rung: int = PER_RUNG,
    active_share: float = ACTIVE_SHARE,
    kink_share: float = KINK_SHARE,
    kink_range: tuple[float, float] = KINK_RANGE,
) -> list[tuple[str, dict, list[float]]]:
    """(name, game document, equilibrium) for ``per_rung`` games per rung.

    The near-kink components are drawn over the whole ladder, so their
    number is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    rungs = [rung for rung in ladder for _ in range(per_rung)]
    components = [(g, j) for g, rung in enumerate(rungs) for j in range(rung[3])]
    kink = _choose(rng, components, kink_share)
    games = []
    for g, (leaders, n_vars, n_cons, m) in enumerate(rungs):
        doc, x_star = generate_game(
            rng, leaders, n_vars, n_cons, m,
            kink={j for gg, j in kink if gg == g},
            active_share=active_share, kink_range=kink_range,
        )
        games.append((f"g{g:02d}_N{leaders}_v{n_vars}_c{n_cons}_m{m}", doc, x_star))
    return games


def write_ladder(seed: int, out_dir: Path, **knobs) -> list[tuple[Path, list[float]]]:
    """Write ``<name>.json`` per game into ``out_dir``; return (path, x_star) pairs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc, x_star in generate_ladder(seed, **knobs):
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        written.append((path, x_star))
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--active-share", type=float, default=ACTIVE_SHARE)
    parser.add_argument("--kink-share", type=float, default=KINK_SHARE)
    args = parser.parse_args(argv)
    for path, _ in write_ladder(
        args.seed, args.out, active_share=args.active_share, kink_share=args.kink_share
    ):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
