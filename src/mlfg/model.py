"""Game data model: leader/follower problem data, validation, and file I/O.

A game consists of N leaders, each minimizing a strictly convex quadratic
objective over a polyhedron ``A.T @ x_nu + b <= 0``, coupled through a
single follower whose quadratic program has a diagonal positive definite
Hessian and lower bounds driven linearly by the joint leader strategy.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, wraps
from itertools import accumulate
from pathlib import Path

import numpy as np

__all__ = [
    "GameFormatError",
    "GameValidationError",
    "LeaderSpec",
    "FollowerSpec",
    "GameSpec",
    "load_game",
    "save_game",
    "validate_game",
]

# Relative threshold on the smallest eigenvalue in the positive definiteness check.
SPD_PIVOT_RTOL = 1e-12
SYMMETRY_RTOL = 1e-12


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M @ x`` for one point or for each row of a stack of points: one
    matrix-vector product per row, so each row equals its point's bit for bit."""
    return (M @ x[..., None])[..., 0]


def vector_norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a 1-D float array, bit for bit (the
    same dot product, and a correctly rounded square root), without its dispatch."""
    return math.sqrt(v @ v)


def finite_vector(v, name: str, size: int) -> np.ndarray:
    """``v`` as a new float array; ValueError unless of shape ``(size,)`` and finite."""
    v = np.array(v, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({size},)")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


class GameFormatError(ValueError):
    """Malformed game document: parse failure or inconsistent dimensions."""


class GameValidationError(ValueError):
    """Structurally well-formed game that violates a model assumption."""


def _dims(*axes: str):
    """A spec field: an array whose shape is the sizes of the named ``axes``.

    A leader's axes are ``vars`` and ``cons``, its variables and constraints;
    the follower's are ``n``, all leader variables, and ``m``, its own
    variables. :class:`_ArraySpec` checks the rank, and
    :func:`_dimension_findings` the sizes.
    """
    return field(metadata={"dims": axes})


@cache
def _axes(cls) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Each field of a spec class with its declared axes, read once per class."""
    return tuple((f.name, f.metadata["dims"]) for f in fields(cls))


class _ArraySpec:
    """Base of the spec dataclasses: building one makes every field a new
    read-only float array of its declared rank, with finite entries."""

    def __post_init__(self):
        for name, dims in _axes(type(self)):
            arr = np.array(getattr(self, name), dtype=float)
            ndim = len(dims)
            if arr.ndim != ndim:
                raise GameFormatError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise GameFormatError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _cached_array(method):
    """``cached_property`` of a read-only array, shared by every solve of the game."""

    def compute(self):
        arr = method(self)
        arr.setflags(write=False)
        return arr

    return cached_property(wraps(method)(compute))


@dataclass(frozen=True, eq=False)
class LeaderSpec(_ArraySpec):
    """One leader's quadratic program data.

    The constraint convention is ``A.T @ x + b <= 0`` with ``A`` of shape
    (n_vars, n_constraints).
    """

    Q: np.ndarray = _dims("vars", "vars")
    c: np.ndarray = _dims("vars")
    A: np.ndarray = _dims("vars", "cons")
    b: np.ndarray = _dims("cons")

    @property
    def n_vars(self) -> int:
        return self.Q.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class FollowerSpec(_ArraySpec):
    """Follower QP data: diagonal Hessian, linear drive and bound maps."""

    Qy_diag: np.ndarray = _dims("m")
    B: np.ndarray = _dims("n", "m")
    L: np.ndarray = _dims("n", "m")
    a: np.ndarray = _dims("m")

    @property
    def m(self) -> int:
        """Number of follower variables."""
        return self.Qy_diag.shape[0]


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Multi-leader-follower game of the paper's class. Immutable, and
    compared and hashed by identity, as are its leader and follower specs,
    so a game can be a dict key. Building one raises
    :class:`GameFormatError` for inconsistent dimensions and then
    :class:`GameValidationError` for any finding of :func:`validate_game`.

    Derived arrays (the Hessian stack, the follower maps ``drive``, ``S`` and
    ``A_diff``, the stacked constants and the KKT residual's linear map
    ``kkt_map``) are computed on first use, cached and read-only, so every
    solve of the game shares them.
    """

    leaders: tuple[LeaderSpec, ...]
    follower: FollowerSpec

    def __post_init__(self):
        object.__setattr__(self, "leaders", tuple(self.leaders))
        problems = _dimension_findings(self)
        if problems:
            raise GameFormatError("; ".join(problems))
        findings = validate_game(self)
        if findings:
            raise GameValidationError("; ".join(findings))

    @property
    def num_leaders(self) -> int:
        return len(self.leaders)

    @cached_property
    def n(self) -> int:
        """Total leader variables."""
        return self.x_offsets[-1]

    @property
    def m(self) -> int:
        """Follower variables."""
        return self.follower.m

    @cached_property
    def m_bar(self) -> int:
        """Total leader constraints."""
        return self.lambda_offsets[-1]

    @cached_property
    def x_offsets(self) -> tuple[int, ...]:
        return tuple(accumulate((ld.n_vars for ld in self.leaders), initial=0))

    @cached_property
    def lambda_offsets(self) -> tuple[int, ...]:
        return tuple(accumulate((ld.n_constraints for ld in self.leaders), initial=0))

    def x_slice(self, nu: int) -> slice:
        """Index slice of leader ``nu`` (1-based) in the stacked strategy."""
        self._check_leader(nu)
        return slice(self.x_offsets[nu - 1], self.x_offsets[nu])

    def lambda_slice(self, nu: int) -> slice:
        self._check_leader(nu)
        return slice(self.lambda_offsets[nu - 1], self.lambda_offsets[nu])

    def _check_leader(self, nu: int) -> None:
        if not 1 <= nu <= self.num_leaders:
            raise IndexError(f"leader index {nu} out of range 1..{self.num_leaders}")

    @_cached_array
    def Q_block(self) -> np.ndarray:
        """Block-diagonal stack of the leader Hessians, shape (n, n)."""
        Q = np.zeros((self.n, self.n))
        for nu, ld in enumerate(self.leaders, start=1):
            s = self.x_slice(nu)
            Q[s, s] = ld.Q
        return Q

    @_cached_array
    def drive(self) -> np.ndarray:
        """Scaled drive map ``B'/Qy`` of the follower, shape (m, n)."""
        fol = self.follower
        return fol.B.T / fol.Qy_diag[:, None]

    @_cached_array
    def S(self) -> np.ndarray:
        """Sum map ``L' + B'/Qy`` of the two response branches, shape (m, n)."""
        return self.follower.L.T + self.drive

    @_cached_array
    def A_diff(self) -> np.ndarray:
        """Difference map ``L' - B'/Qy``, shape (m, n).

        The sign of each component of ``A_diff x`` selects the active branch
        of the exact response; ``S + A_diff`` and ``S - A_diff`` are twice
        the bound map and twice the scaled drive.
        """
        return self.follower.L.T - self.drive

    @_cached_array
    def c_stack(self) -> np.ndarray:
        return np.concatenate([ld.c for ld in self.leaders])

    @_cached_array
    def b_stack(self) -> np.ndarray:
        return np.concatenate([ld.b for ld in self.leaders])

    @_cached_array
    def stationarity_constant(self) -> np.ndarray:
        """The constant ``c + 0.5 * S' a`` of the stacked smoothed gradients,
        shape (n,)."""
        return self.c_stack + 0.5 * (self.S.T @ self.follower.a)

    @_cached_array
    def half_A_diffT_a(self) -> np.ndarray:
        """``0.5 * A_diff' diag(a)``, shape (n, m): takes the kernel slopes
        ``phi_tilde'(A_diff x)`` to the smoothing term of the stacked gradients."""
        return 0.5 * self.A_diff.T * self.follower.a

    @_cached_array
    def constraint_gradient_block(self) -> np.ndarray:
        """Block-diagonal stack of the constraint gradients, shape (n, m_bar)."""
        G = np.zeros((self.n, self.m_bar))
        for nu, ld in enumerate(self.leaders, start=1):
            G[self.x_slice(nu), self.lambda_slice(nu)] = ld.A
        return G

    @_cached_array
    def kkt_map(self) -> np.ndarray:
        """Linear part of the KKT residual in ``z = (x, lambda)``, shape
        (m + n + m_bar, n + m_bar).

        Its row blocks are ``[A_diff 0]``, ``[Q_block G]`` and ``[G' 0]``, with
        ``G`` the constraint gradient block: one product gives the kernel
        arguments ``A_diff x``, the linear stationarity terms
        ``Q_block x + G lambda`` and the constraint values less ``b``.
        """
        m, n, G = self.m, self.n, self.constraint_gradient_block
        M = np.zeros((m + n + self.m_bar, n + self.m_bar))
        M[:m, :n] = self.A_diff
        M[m : m + n, :n] = self.Q_block
        M[m : m + n, n:] = G
        M[m + n :, :n] = G.T
        return M

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        """Stacked values ``A_nu' x_nu + b_nu`` over all leaders (feasible iff
        <= 0), shape (m_bar,); a stack of points, shape (k, n), gives (k, m_bar)."""
        return matvec(self.constraint_gradient_block.T, x) + self.b_stack


def _dimension_findings(game: GameSpec) -> list[str]:
    """Shape bookkeeping of a game under construction; empty when consistent.

    A leader's ``Q`` fixes its ``vars`` and its ``A`` its ``cons``; ``n`` sums
    the leaders' ``vars``, and the follower's ``Qy_diag`` fixes ``m``. Each
    field whose shape is not the sizes of its declared axes gives one finding.
    """
    if game.num_leaders < 1:
        return ["game must have at least one leader"]
    leaders = [(f"leader {nu}", ld) for nu, ld in enumerate(game.leaders, start=1)]
    findings = [f"{part}: must have at least one variable" for part, ld in leaders if not ld.n_vars]
    parts = [(part, ld, {"vars": ld.n_vars, "cons": ld.n_constraints}) for part, ld in leaders]
    parts.append(("follower", game.follower, {"n": game.n, "m": game.m}))
    for part, spec, sizes in parts:
        for name, dims in _axes(type(spec)):
            shape, expected = getattr(spec, name).shape, tuple(map(sizes.get, dims))
            if shape != expected:
                findings.append(f"{part}: {name} has shape {shape}, expected {expected}")
    return findings


def validate_game(game: GameSpec) -> list[str]:
    """Check every model assumption that is decidable from the data.

    Returns a list of human-readable findings, empty for a valid game.
    Building a :class:`GameSpec` checks the dimensions, then runs this and
    raises on any finding, so it returns ``[]`` for every game that was built.
    """
    findings: list[str] = []
    for nu, ld in enumerate(game.leaders, start=1):
        scale = np.abs(ld.Q).max() or 1.0
        if np.abs(ld.Q - ld.Q.T).max() > SYMMETRY_RTOL * scale:
            findings.append(f"leader {nu}: Q not symmetric")
        elif np.linalg.eigvalsh(ld.Q)[0] <= SPD_PIVOT_RTOL * scale:
            findings.append(f"leader {nu}: Q not positive definite")
    fol = game.follower
    if (fol.Qy_diag <= 0.0).any():
        findings.append("follower: Qy_diag must be strictly positive")
    if (fol.a < 0.0).any():
        findings.append("follower: a must be nonnegative")
    return findings


def _spec_from_dict(cls, doc: dict):
    return cls(**{f.name: doc[f.name] for f in fields(cls)})


def _spec_to_dict(spec) -> dict:
    return {f.name: getattr(spec, f.name).tolist() for f in fields(spec)}


def _game_from_dict(doc: dict) -> GameSpec:
    try:
        leaders = tuple(_spec_from_dict(LeaderSpec, ld) for ld in doc["leaders"])
        follower = _spec_from_dict(FollowerSpec, doc["follower"])
    except KeyError as exc:
        raise GameFormatError(f"missing field {exc} in game document") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, GameFormatError):
            raise
        raise GameFormatError(f"malformed game document: {exc}") from exc
    return GameSpec(leaders=leaders, follower=follower)


def _game_to_dict(game: GameSpec) -> dict:
    return {
        "leaders": [_spec_to_dict(ld) for ld in game.leaders],
        "follower": _spec_to_dict(game.follower),
    }


def load_game(path: str | Path) -> GameSpec:
    """Load and validate a game from its JSON file format.

    Raises :class:`GameFormatError` for parse and dimension problems and
    :class:`GameValidationError` when the data violates a model assumption.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GameFormatError(f"{path} is not valid JSON: {exc}") from exc
    return _game_from_dict(doc)


def _overwrite(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` over the file's old bytes, then cut off what
    is left of them. The file is never truncated to zero first: on ext4 that
    makes ``close`` start writeback of a rewritten file. Symlinks and hard
    links are written through, and an existing file keeps its mode."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        # a pipe or a device such as /dev/null cannot be truncated; its size reads 0
        if os.fstat(fh.fileno()).st_size > len(data):
            fh.truncate()


def save_game(game: GameSpec, path: str | Path) -> None:
    """Write a game back to the JSON file format (round-trips bit-exactly)."""
    _overwrite(path, (json.dumps(_game_to_dict(game), indent=1) + "\n").encode())


def bundled_dataset_path(number: int) -> Path:
    """Path of a packaged example dataset (1 or 2)."""
    p = Path(__file__).parent / "data" / f"dataset{number}.json"
    if not p.exists():
        raise GameFormatError(f"no bundled dataset {number}")
    return p


def load_bundled(number: int) -> GameSpec:
    return load_game(bundled_dataset_path(number))
