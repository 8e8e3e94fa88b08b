"""The game generator: valid, reproducible games built around a known equilibrium.

    python3 -m pytest perfbench/tests
"""
import json

import numpy as np
import pytest

from gen import ACTIVE_SHARE, KINK_RANGE, KINK_SHARE, LADDER, generate_ladder, main, write_ladder
from mlfg import load_game, validate_game
from reference import exact_equilibrium

SMALL = ((2, 2, 2, 1), (2, 3, 2, 2))


def _t_and_g(doc, x):
    fol = doc["follower"]
    drive = np.array(fol["B"]) / np.array(fol["Qy_diag"])[None, :]
    t = (np.array(fol["L"]) - drive).T @ x
    g, i = [], 0
    for ld in doc["leaders"]:
        A = np.array(ld["A"])
        g.extend(A.T @ x[i : i + A.shape[0]] + np.array(ld["b"]))
        i += A.shape[0]
    return t, np.array(g)


def test_every_game_loads_and_validates(tmp_path):
    written = write_ladder(3, tmp_path, per_rung=1)
    assert len(written) == len(LADDER)
    for path, x_star in written:
        game = load_game(path)
        assert validate_game(game) == []
        assert game.n == len(x_star)


def test_same_seed_gives_byte_identical_files(tmp_path):
    first = write_ladder(11, tmp_path / "a")
    second = write_ladder(11, tmp_path / "b")
    other = write_ladder(12, tmp_path / "c")
    assert [p.name for p, _ in first] == [p.name for p, _ in second]
    for (p, x), (q, y) in zip(first, second):
        assert p.read_bytes() == q.read_bytes()
        assert x == y
    assert any(p.read_bytes() != q.read_bytes() for (p, _), (q, _) in zip(first, other))


def test_cli_writes_the_same_files(tmp_path, capsys):
    assert main(["--seed", "5", "--out", str(tmp_path / "cli")]) == 0
    direct = write_ladder(5, tmp_path / "direct")
    for path, _ in direct:
        assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_built_equilibrium_is_the_exact_equilibrium(seed):
    # the reference solver enumerates every branch and active set on its own
    for _, doc, x_star in generate_ladder(seed, ladder=SMALL, per_rung=2):
        assert np.max(np.abs(exact_equilibrium(doc) - np.array(x_star))) < 1e-9


def test_active_constraints_and_kink_components():
    games = generate_ladder(4)
    active = total = kink = components = 0
    for _, doc, x_star in games:
        t, g = _t_and_g(doc, np.array(x_star))
        assert np.all(g < 1e-12)
        active += int(np.sum(np.abs(g) < 1e-9))
        total += g.size
        kink += int(np.sum((np.abs(t) >= 0.99 * KINK_RANGE[0]) & (np.abs(t) <= 1.01 * KINK_RANGE[1])))
        components += t.size
    assert kink == round(KINK_SHARE * components)
    # the per-leader cap may drop a few of the drawn active constraints
    assert 0.8 * ACTIVE_SHARE * total <= active <= ACTIVE_SHARE * total + len(games)


def test_knobs_change_the_games():
    _, plain, _ = generate_ladder(6, ladder=SMALL[:1], per_rung=1)[0]
    _, none_active, x_star = generate_ladder(6, ladder=SMALL[:1], per_rung=1, active_share=0.0)[0]
    assert json.dumps(plain) != json.dumps(none_active)
    _, g = _t_and_g(none_active, np.array(x_star))
    assert np.all(g <= -0.5 + 1e-12)
