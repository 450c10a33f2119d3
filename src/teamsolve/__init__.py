"""Certified approximate Nash equilibrium solver for adversarial team games.

The team side runs projected gradient descent against a best-responding
adversary; approximate stationary points are completed to full equilibrium
profiles through a small dual linear program, and every reported profile
carries a brute-force deviation certificate.
"""

from .games import (
    DimensionMismatchError,
    GameError,
    LocalBlock,
    MixedProfile,
    SchemaError,
    SmoothnessBounds,
    TeamGame,
    analytic_bounds,
    dirichlet_profile,
    game_from_dict,
    game_to_dict,
    profile_from_dict,
    profile_to_dict,
    uniform_profile,
)
from .linprog import LinearProgram, LpFault, LpSolution, solve_lp
from .extension import (
    DualityError,
    ExtensionAudit,
    NeCertificate,
    extend_ne,
    ne_gap,
)
from .dynamics import (
    GdConfig,
    RunTrace,
    gradient_descent_max,
    project_simplex,
)
from .moreau import ProximalResult, proximal_point
from .two_team import (
    MinmaxResult,
    TwoTeamGame,
    TwoTeamProfile,
    extend_ne_multi,
    gd_mm,
    minmax_oracle,
    ne_gap_two_team,
    two_team_from_dict,
)
from .generators import (
    CapacityError,
    CongestionSpec,
    congestion_to_team_game,
    potential_game_embed,
    random_game,
)

__version__ = "0.1.0"
