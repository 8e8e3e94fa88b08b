"""Equilibrium solver for quadratic multi-leader-follower games.

The follower's quadratic program has a closed-form, piecewise-linear best
response; substituting a smoothed version of it into the leader objectives
gives a family of smooth Nash equilibrium problems indexed by a smoothing
parameter. The library solves that family along a geometric continuation
with a first-order warm-start predictor, and certifies the limit point
independently (a strong stationarity system with constructed multipliers,
and per-leader Nash-gap upper bounds by weak duality at those multipliers).
"""

__version__ = "0.1.0"

from .homotopy import (
    HomotopyConfig,
    HomotopyTrace,
    Solution,
    StageRecord,
    homotopy_solve,
    solve,
)
from .kkt import generalized_jacobian
from .model import (
    FollowerSpec,
    GameFormatError,
    GameSpec,
    GameValidationError,
    LeaderSpec,
    load_bundled,
    load_game,
    save_game,
    validate_game,
)
from .smoothing import (
    best_response_exact,
    best_response_smoothed,
    phi_tilde,
    phi_tilde_d1,
    phi_tilde_d2,
    phi_tilde_deps,
)
from .solvers import (
    InnerResult,
    lu_solve,
    newton_solve,
    subgradient_solve,
)
from .verify import Certificate, certify

__all__ = [
    "__version__",
    "Certificate",
    "FollowerSpec",
    "GameFormatError",
    "GameSpec",
    "GameValidationError",
    "HomotopyConfig",
    "HomotopyTrace",
    "InnerResult",
    "LeaderSpec",
    "Solution",
    "StageRecord",
    "best_response_exact",
    "best_response_smoothed",
    "certify",
    "generalized_jacobian",
    "homotopy_solve",
    "load_bundled",
    "load_game",
    "lu_solve",
    "newton_solve",
    "phi_tilde",
    "phi_tilde_d1",
    "phi_tilde_d2",
    "phi_tilde_deps",
    "save_game",
    "solve",
    "subgradient_solve",
    "validate_game",
]
