import json
import os
import stat

import numpy as np
import pytest

from mlfg import (
    GameFormatError,
    GameSpec,
    GameValidationError,
    LeaderSpec,
    load_bundled,
    load_game,
    save_game,
    validate_game,
)
from mlfg.model import _overwrite, bundled_dataset_path

from conftest import make_game
from helpers import slice_rows


def test_dataset1_dimensions(ds1):
    assert ds1.num_leaders == 2
    assert ds1.n == 4
    assert ds1.m == 3
    assert ds1.m_bar == 6
    np.testing.assert_array_equal(ds1.follower.a, [1.4, 2.6, 2.1])


def test_dataset2_dimensions(ds2):
    assert ds2.num_leaders == 3
    assert ds2.n == 6
    assert ds2.m == 3
    assert ds2.m_bar == 9
    np.testing.assert_array_equal(ds2.follower.Qy_diag, [3.7, 2.6, 0.7])


def test_bundled_datasets_are_valid(ds1, ds2):
    assert validate_game(ds1) == []
    assert validate_game(ds2) == []


def test_zero_hessian_entry_rejected(tmp_path, ds1):
    doc = json.loads(bundled_dataset_path(1).read_text())
    doc["follower"]["Qy_diag"][1] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(GameValidationError, match="Qy_diag"):
        load_game(bad)


def test_negative_weight_finding(ds1):
    # the one finding, and the game is never built
    with pytest.raises(GameValidationError, match="^follower: a must be nonnegative$"):
        make_game(
            [ld.Q for ld in ds1.leaders],
            [ld.c for ld in ds1.leaders],
            [ld.A for ld in ds1.leaders],
            [ld.b for ld in ds1.leaders],
            ds1.follower.Qy_diag,
            ds1.follower.B,
            ds1.follower.L,
            np.array([1.4, -1.0, 2.1]),
        )


def test_indefinite_hessian_finding(ds1):
    # eigenvalues of [[1, 2], [2, 1]] are 3 and -1
    with pytest.raises(GameValidationError, match="not positive definite"):
        make_game(
            [np.array([[1.0, 2.0], [2.0, 1.0]]), ds1.leaders[1].Q],
            [ld.c for ld in ds1.leaders],
            [ld.A for ld in ds1.leaders],
            [ld.b for ld in ds1.leaders],
            ds1.follower.Qy_diag,
            ds1.follower.B,
            ds1.follower.L,
            ds1.follower.a,
        )


def test_concave_leader_game_cannot_be_built():
    # two one-variable leaders on the box |x| <= 1 with zero response
    # weights; leader 1 maximizes x**2, so x = (0, 0) is stationary, but
    # leader 1 gains 0.5 by moving to a corner. Outside the paper's class
    # a certificate of that point would be false, so the game is refused.
    box, bounds = np.array([[1.0, -1.0]]), -np.ones(2)
    with pytest.raises(GameValidationError, match="^leader 1: Q not positive definite$"):
        make_game(
            [np.array([[-1.0]]), np.array([[1.0]])],
            [np.zeros(1), np.zeros(1)],
            [box, box],
            [bounds, bounds],
            np.ones(1),
            np.zeros((2, 1)),
            np.zeros((2, 1)),
            np.zeros(1),
        )


def test_definiteness_check_matches_eigenvalues(ds1):
    # building the game fails exactly when an eigenvalue oracle says so, on
    # random symmetric matrices of either definiteness class, away from the
    # threshold
    rng = np.random.default_rng(21)
    base = ds1.leaders[1]
    for _ in range(200):
        M = rng.standard_normal((2, 2))
        S = 0.5 * (M + M.T) + rng.uniform(-1.0, 2.0) * np.eye(2)
        eigs = np.linalg.eigvalsh(S)
        if abs(eigs[0]) < 1e-6:
            continue
        try:
            make_game(
                [S, base.Q],
                [np.zeros(2), base.c],
                [ds1.leaders[0].A, base.A],
                [ds1.leaders[0].b, base.b],
                ds1.follower.Qy_diag,
                ds1.follower.B,
                ds1.follower.L,
                ds1.follower.a,
            )
            flagged = False
        except GameValidationError as exc:
            assert "positive definite" in str(exc)
            flagged = True
        assert flagged == (eigs[0] <= 0.0)


def test_asymmetric_hessian_finding(ds1):
    with pytest.raises(GameValidationError, match="not symmetric"):
        make_game(
            [np.array([[2.0, 1.0], [0.0, 2.0]]), ds1.leaders[1].Q],
            [ld.c for ld in ds1.leaders],
            [ld.A for ld in ds1.leaders],
            [ld.b for ld in ds1.leaders],
            ds1.follower.Qy_diag,
            ds1.follower.B,
            ds1.follower.L,
            ds1.follower.a,
        )


# one wrong shape per field of dataset 1, on leader 1 or the follower;
# Qy_diag fixes m, so a wrong Qy_diag shows as a wrong B, L and a instead
MISSHAPEN = {
    "Q": lambda M: [row + [0.0] for row in M],  # (2, 3): still two variables
    "c": lambda v: v + [0.0],
    "A": lambda M: M + M[:1],  # a row for a third variable
    "b": lambda v: v[:-1],
    "B": lambda M: M[:3],  # a row dropped
    "L": lambda M: [row[:-1] for row in M],
    "a": lambda v: v[:-1],
}


@pytest.mark.parametrize("name", MISSHAPEN)
def test_dimension_mismatch_names_field(tmp_path, name):
    doc = json.loads(bundled_dataset_path(1).read_text())
    leader = doc["leaders"][0]
    part, spec = ("leader 1", leader) if name in leader else ("follower", doc["follower"])
    spec[name] = MISSHAPEN[name](spec[name])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    # exactly one finding, and it names the field
    shape = r"\([\d, ]+\)"
    finding = rf"^{part}: {name} has shape {shape}, expected {shape}$"
    with pytest.raises(GameFormatError, match=finding):
        load_game(bad)


def test_game_without_leaders_refused(tmp_path):
    doc = json.loads(bundled_dataset_path(1).read_text())
    doc["leaders"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(GameFormatError, match="^game must have at least one leader$"):
        load_game(bad)


def test_leader_without_variables_refused(ds1, m0_game):
    # validate_game's checks of Q need at least one entry, so this leader
    # is refused before them, with a typed error
    empty = LeaderSpec(Q=np.zeros((0, 0)), c=np.zeros(0), A=np.zeros((0, 1)), b=[-1.0])
    with pytest.raises(GameFormatError, match="^leader 1: must have at least one variable$"):
        GameSpec(leaders=(empty,) + ds1.leaders, follower=ds1.follower)
    # a follower without variables is still a game of the class
    assert m0_game.m == 0


@pytest.mark.parametrize(
    "part, name, ndim",
    [("leader", "Q", 2), ("leader", "c", 1), ("leader", "A", 2), ("leader", "b", 1)]
    + [("follower", "Qy_diag", 1), ("follower", "B", 2), ("follower", "L", 2)]
    + [("follower", "a", 1)],
)
def test_every_field_is_read_and_checked(tmp_path, part, name, ndim):
    doc = json.loads(bundled_dataset_path(1).read_text())
    spec = doc["leaders"][0] if part == "leader" else doc["follower"]
    value = spec.pop(name)
    bad = tmp_path / "bad.json"
    for entry, message in (
        (None, f"missing field '{name}' in game document"),
        ([value], f"{name} must be {ndim}-dimensional, got shape"),
        (np.full(np.shape(value), np.inf).tolist(), f"{name} contains non-finite entries"),
    ):
        if entry is not None:
            spec[name] = entry
        bad.write_text(json.dumps(doc))
        with pytest.raises(GameFormatError, match=message):
            load_game(bad)


def test_parse_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(GameFormatError, match="JSON"):
        load_game(bad)


def test_missing_file(tmp_path):
    with pytest.raises(GameFormatError):
        load_game(tmp_path / "nope.json")


def test_slice_rows(ds1):
    B = ds1.follower.B
    np.testing.assert_array_equal(slice_rows(ds1, B, 1), B[:2])
    np.testing.assert_array_equal(slice_rows(ds1, B, 2), B[2:4])
    with pytest.raises(IndexError):
        slice_rows(ds1, B, ds1.num_leaders + 1)
    with pytest.raises(IndexError):
        slice_rows(ds1, B, 0)


def test_slice_rows_reconstructs(ds1, ds2):
    for game in (ds1, ds2):
        for M in (game.follower.B, game.follower.L):
            parts = [slice_rows(game, M, nu) for nu in range(1, game.num_leaders + 1)]
            np.testing.assert_array_equal(np.vstack(parts), M)


def test_round_trip_bit_exact(tmp_path, ds1, ds2):
    for num, game in ((1, ds1), (2, ds2)):
        out = tmp_path / f"copy{num}.json"
        save_game(game, out)
        again = load_game(out)
        for ld, ld2 in zip(game.leaders, again.leaders):
            np.testing.assert_array_equal(ld.Q, ld2.Q)
            np.testing.assert_array_equal(ld.c, ld2.c)
            np.testing.assert_array_equal(ld.A, ld2.A)
            np.testing.assert_array_equal(ld.b, ld2.b)
        np.testing.assert_array_equal(game.follower.B, again.follower.B)
        np.testing.assert_array_equal(game.follower.L, again.follower.L)
        np.testing.assert_array_equal(game.follower.Qy_diag, again.follower.Qy_diag)
        np.testing.assert_array_equal(game.follower.a, again.follower.a)


def test_overwrite_in_place(tmp_path):
    # written through a symlink over a longer file: the inode, its other
    # name and its mode stay, and exactly the new bytes remain
    path, hard, soft = tmp_path / "f", tmp_path / "hard", tmp_path / "soft"
    path.write_bytes(b"0123456789")
    path.chmod(0o640)
    os.link(path, hard)
    soft.symlink_to(path)
    _overwrite(soft, b"abc")
    assert path.read_bytes() == hard.read_bytes() == b"abc"
    assert path.stat().st_size == 3
    assert soft.is_symlink()
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_overwrite_new_file(tmp_path):
    new, reference = tmp_path / "new", tmp_path / "reference"
    _overwrite(new, b"abc")
    reference.write_bytes(b"abc")
    assert new.read_bytes() == b"abc"
    assert new.stat().st_mode == reference.stat().st_mode
    with pytest.raises(FileNotFoundError):
        _overwrite(tmp_path / "missing" / "f", b"abc")


def test_save_game_over_a_longer_game(tmp_path, ds1, ds2):
    out, fresh = tmp_path / "g.json", tmp_path / "fresh.json"
    save_game(ds2, out)
    longer = out.stat().st_size
    save_game(ds1, out)
    save_game(ds1, fresh)
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_size < longer


def test_constraint_values_stacking(ds1):
    x = np.ones(4)
    g = ds1.constraint_values(x)
    np.testing.assert_allclose(g, [5.8, 4.2, 3.4, 4.7, 4.3, 6.7], atol=1e-12)


def test_game_arrays_read_only(ds1):
    with pytest.raises(ValueError):
        ds1.follower.B[0, 0] = 99.0


def test_spec_copies_its_arrays(ds1):
    # a write through the caller's array, after the game was checked, would
    # make leader 1's Q indefinite; the game keeps its own copy
    base = ds1.leaders[0].Q.copy()
    leader = LeaderSpec(Q=base[:], c=ds1.leaders[0].c, A=ds1.leaders[0].A, b=ds1.leaders[0].b)
    game = GameSpec(leaders=(leader, ds1.leaders[1]), follower=ds1.follower)
    base[0, 0] = -99.0
    np.testing.assert_array_equal(game.leaders[0].Q, ds1.leaders[0].Q)
    assert validate_game(game) == []


def test_follower_maps_read_only_and_cached(ds1):
    # every later solve of the game shares these arrays
    for name in ("drive", "S", "A_diff", "Q_block"):
        arr = getattr(ds1, name)
        assert arr is getattr(ds1, name)
        with pytest.raises(ValueError):
            arr[0, 0] = 99.0


def test_follower_maps_reconstruction(ds1, ds2):
    for game in (ds1, ds2):
        fol = game.follower
        bound2 = game.S + game.A_diff
        drive2 = game.S - game.A_diff
        np.testing.assert_allclose(bound2, 2.0 * fol.L.T, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(
            drive2, 2.0 * fol.B.T / fol.Qy_diag[:, None], rtol=1e-14, atol=1e-14
        )


@pytest.mark.parametrize("name", ["ds1", "ds2", "active_game", "kink_game"])
def test_kkt_map_and_constants_read_only_and_blockwise(request, name):
    # the residual's linear map of z = (x, lambda) and its constants are
    # derived once per game and shared by every solve
    game = request.getfixturevalue(name)
    m, n, m_bar = game.m, game.n, game.m_bar
    G, a = game.constraint_gradient_block, game.follower.a
    M = game.kkt_map
    assert M.shape == (m + n + m_bar, n + m_bar)
    np.testing.assert_array_equal(M[:m, :n], game.A_diff)
    np.testing.assert_array_equal(M[:m, n:], np.zeros((m, m_bar)))
    np.testing.assert_array_equal(M[m : m + n, :n], game.Q_block)
    np.testing.assert_array_equal(M[m : m + n, n:], G)
    np.testing.assert_array_equal(M[m + n :, :n], G.T)
    np.testing.assert_array_equal(M[m + n :, n:], np.zeros((m_bar, m_bar)))
    np.testing.assert_array_equal(game.stationarity_constant, game.c_stack + 0.5 * game.S.T @ a)
    np.testing.assert_array_equal(game.half_A_diffT_a, 0.5 * game.A_diff.T @ np.diag(a))
    for attr in ("kkt_map", "stationarity_constant", "half_A_diffT_a"):
        arr = getattr(game, attr)
        assert arr is getattr(game, attr)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 99.0


@pytest.mark.parametrize("name", ["ds1", "ds2", "active_game", "kink_game"])
def test_constraint_values_stack_rows_equal_single_points(request, name):
    game = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((24, game.n)) * 10.0 ** rng.uniform(-6, 2, (24, 1))
    g = game.constraint_values(X)
    assert g.shape == (24, game.m_bar)
    for x, row in zip(X, g):
        assert np.array_equal(row, game.constraint_values(x))


def test_specs_compare_and_hash_by_identity(ds1):
    other = load_bundled(1)
    assert ds1 == ds1
    assert ds1 != other
    assert ds1.leaders[0] != other.leaders[0] and ds1.follower != other.follower
    assert {ds1: 1}[ds1] == 1
    assert len({ds1, other, ds1.leaders[0], ds1.follower}) == 4
