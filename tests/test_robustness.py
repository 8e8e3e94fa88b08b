"""Transformations of the bundled games that leave the equilibrium where it
is: ``solve`` must return the same point, exact after stage 0 and with
exact Nash gaps within the gate. Reordering the leaders permutes the
point; scaling a leader's objective and the response weights together, or
a leader's constraint rows, changes no best response; both bundled
equilibria have every constraint inactive, so dropping one leader's
constraints changes nothing either."""
import numpy as np
import pytest

from mlfg import FollowerSpec, GameSpec, LeaderSpec, solve
from mlfg.verify import NASH_TOL, verify_nash

DATASETS = ["1", "2"]


def rebuild(game: GameSpec, leaders=None, **follower) -> GameSpec:
    """``game`` with other leaders and with some follower fields replaced."""
    f = game.follower
    fields = {"Qy_diag": f.Qy_diag, "B": f.B, "L": f.L, "a": f.a, **follower}
    return GameSpec(leaders=tuple(leaders or game.leaders), follower=FollowerSpec(**fields))


def certified_x(game: GameSpec) -> np.ndarray:
    sol = solve(game)
    assert sol.endgame == 0
    assert sol.certificate.certified
    assert np.max(verify_nash(game, sol.x)) <= NASH_TOL
    return sol.x


@pytest.mark.parametrize("name", DATASETS)
def test_reversed_leaders_permute_the_point(request, name):
    game = request.getfixturevalue(f"ds{name}")
    order = range(game.num_leaders, 0, -1)
    perm = np.concatenate([np.arange(game.n)[game.x_slice(nu)] for nu in order])
    f = game.follower
    reversed_game = rebuild(game, game.leaders[::-1], B=f.B[perm], L=f.L[perm])
    np.testing.assert_array_equal(certified_x(reversed_game), certified_x(game)[perm])


@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_scaled_objectives_keep_the_point(request, name, scale):
    game = request.getfixturevalue(f"ds{name}")
    leaders = [LeaderSpec(Q=scale * ld.Q, c=scale * ld.c, A=ld.A, b=ld.b) for ld in game.leaders]
    scaled = rebuild(game, leaders, a=scale * game.follower.a)
    np.testing.assert_allclose(certified_x(scaled), certified_x(game), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", DATASETS)
def test_scaled_constraints_keep_the_point(request, name):
    game = request.getfixturevalue(f"ds{name}")
    leaders = [LeaderSpec(Q=ld.Q, c=ld.c, A=7.0 * ld.A, b=7.0 * ld.b) for ld in game.leaders]
    np.testing.assert_array_equal(certified_x(rebuild(game, leaders)), certified_x(game))


@pytest.mark.parametrize("name", DATASETS)
def test_leader_without_constraints_keeps_the_point(request, name):
    game = request.getfixturevalue(f"ds{name}")
    x = certified_x(game)
    for nu, ld in enumerate(game.leaders):
        leaders = list(game.leaders)
        leaders[nu] = LeaderSpec(Q=ld.Q, c=ld.c, A=np.zeros((ld.n_vars, 0)), b=np.zeros(0))
        np.testing.assert_array_equal(certified_x(rebuild(game, leaders)), x)
