"""The public names of ``teamsolve``, pinned so that any change to them
shows up as a diff here.  Submodules are left out: importing one adds
it to the package namespace."""

import importlib
import inspect
import pkgutil
import types

import teamsolve

PUBLIC_NAMES = [
    "CapacityError",
    "CongestionSpec",
    "DimensionMismatchError",
    "DualityError",
    "ExtensionAudit",
    "GameError",
    "GdConfig",
    "LinearProgram",
    "LocalBlock",
    "LpFault",
    "LpSolution",
    "MinmaxResult",
    "MixedProfile",
    "NeCertificate",
    "ProximalResult",
    "RunTrace",
    "SchemaError",
    "SmoothnessBounds",
    "TeamGame",
    "TwoTeamGame",
    "TwoTeamProfile",
    "analytic_bounds",
    "congestion_to_team_game",
    "dirichlet_profile",
    "extend_ne",
    "extend_ne_multi",
    "game_from_dict",
    "game_to_dict",
    "gd_mm",
    "gradient_descent_max",
    "minmax_oracle",
    "ne_gap",
    "ne_gap_two_team",
    "potential_game_embed",
    "profile_from_dict",
    "profile_to_dict",
    "project_simplex",
    "proximal_point",
    "random_game",
    "solve_lp",
    "two_team_from_dict",
    "uniform_profile",
]


def test_public_names_are_pinned():
    public = sorted(name for name, obj in vars(teamsolve).items()
                    if not name.startswith("_")
                    and not isinstance(obj, types.ModuleType))
    assert public == PUBLIC_NAMES


# Every defaulted parameter of a function, method or dataclass __init__
# defined in teamsolve is a value a caller may set; a new option shows here.
SETTABLE_VALUES = 54


def _settable_values():
    count = 0
    for info in pkgutil.iter_modules(teamsolve.__path__):
        module = importlib.import_module(f"teamsolve.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = (vars(obj).values() if inspect.isclass(obj)
                       else [obj])
            for member in members:
                fn = inspect.unwrap(getattr(member, "__func__", member))
                if inspect.isfunction(fn):
                    count += sum(p.default is not p.empty for p in
                                 inspect.signature(fn).parameters.values())
    return count


def test_settable_value_count_is_pinned():
    assert _settable_values() == SETTABLE_VALUES
