import numpy as np
import pytest

from mlfg import (
    FollowerSpec,
    GameSpec,
    HomotopyConfig,
    LeaderSpec,
    homotopy_solve,
    load_bundled,
)


@pytest.fixture(scope="session")
def ds1():
    return load_bundled(1)


@pytest.fixture(scope="session")
def ds2():
    return load_bundled(2)


@pytest.fixture(scope="session")
def trace1(ds1):
    return homotopy_solve(ds1)


@pytest.fixture(scope="session")
def trace2(ds2):
    return homotopy_solve(ds2)


@pytest.fixture(scope="session")
def trace1_no_predictor(ds1):
    return homotopy_solve(ds1, cfg=HomotopyConfig(taylor=False))


@pytest.fixture(scope="session")
def active_game(ds1, trace1):
    """Dataset 1 with each leader's first constraint moved a distance 0.3
    past the old equilibrium, so that it is active (``lam > 0``) at the new
    one. Both bundled equilibria have ``lam = 0``."""
    leaders = []
    for nu, ld in enumerate(ds1.leaders, start=1):
        row = ld.A[:, 0]
        b = ld.b.copy()
        b[0] = -row @ trace1.final.x[ds1.x_slice(nu)] + 0.3 * np.linalg.norm(row)
        leaders.append(LeaderSpec(Q=ld.Q, c=ld.c, A=ld.A, b=b))
    return GameSpec(leaders=tuple(leaders), follower=ds1.follower)


@pytest.fixture(scope="session")
def active_trace(active_game):
    return homotopy_solve(active_game)


@pytest.fixture(scope="session")
def m0_game(ds1):
    """Dataset 1's leaders with a follower of no variables (``m = 0``). The
    leaders' data alone set the equilibrium; at ``x = 0`` a constraint is
    violated by 2.6."""
    none = FollowerSpec(Qy_diag=np.zeros(0), B=np.zeros((4, 0)), L=np.zeros((4, 0)), a=np.zeros(0))
    return GameSpec(leaders=ds1.leaders, follower=none)


def make_game(Q_list, c_list, A_list, b_list, Qy, B, L, a) -> GameSpec:
    leaders = tuple(
        LeaderSpec(Q=Q, c=c, A=A, b=b) for Q, c, A, b in zip(Q_list, c_list, A_list, b_list)
    )
    return GameSpec(leaders=leaders, follower=FollowerSpec(Qy_diag=Qy, B=B, L=L, a=a))


@pytest.fixture
def quadratic_game():
    """Two leaders, zero response weights, constraints inactive everywhere
    relevant: the equilibrium is the unconstrained quadratic optimum."""
    Q1 = np.array([[2.0, 0.5], [0.5, 1.5]])
    Q2 = np.array([[3.0, 0.0], [0.0, 1.0]])
    c1 = np.array([1.0, -2.0])
    c2 = np.array([0.5, 0.5])
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([-50.0, -50.0])
    B = np.ones((4, 2))
    L = np.zeros((4, 2))
    return make_game(
        [Q1, Q2], [c1, c2], [A, A], [b, b], np.array([1.0, 2.0]), B, L, np.zeros(2)
    )


@pytest.fixture(scope="session")
def kink_game():
    """Two leaders whose equilibrium ``x_star`` lies on every follower kink
    (``A_diff @ x_star = 0``), so it sits inside the smoothing band at every
    level.

    Since the kernel's slope vanishes at ``t = 0``, the stationarity block at
    ``x_star`` with ``lam = 0`` reduces to ``Q x_star + c + 0.5 S.T a``; the
    linear terms ``c`` are chosen to zero it, so ``x_star`` is the
    equilibrium at every smoothing level. Constraints are loose (``b = -50``).
    """
    x_star = np.array([1.0, -0.5, 0.5, 1.0])
    # rows orthogonal to x_star; L = B / Qy + A_diff.T makes this the difference map
    A_diff = 0.5 * np.array(
        [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, -1.0], [1.0, 0.0, 0.0, -1.0]]
    )
    Q1 = np.array([[2.0, 0.5], [0.5, 1.5]])
    Q2 = np.array([[3.0, 0.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.4], [0.6, 0.2, 1.0], [0.4, 0.8, 0.5]])
    Qy = np.array([1.0, 2.0, 1.5])
    a = np.array([1.0, 1.5, 0.75])
    L = B / Qy + A_diff.T
    S = (L + B / Qy).T
    c = -(np.concatenate([Q1 @ x_star[:2], Q2 @ x_star[2:]]) + 0.5 * S.T @ a)
    A = np.eye(2)
    b = np.array([-50.0, -50.0])
    return make_game([Q1, Q2], [c[:2], c[2:]], [A, A], [b, b], Qy, B, L, a)
