import json
from fractions import Fraction

import numpy as np
import pytest

from teamsolve import (
    CongestionSpec,
    GdConfig,
    cli,
    congestion_to_team_game,
    game_from_dict,
    gradient_descent_max,
    profile_to_dict,
    random_game,
    two_team_from_dict,
)
from teamsolve.dynamics import TRACE_COLUMNS
from teamsolve.games import GameError
from teamsolve.generators import (
    potential_game_embed,
    potential_spec_to_two_team,
)

from conftest import poly_two_team_doc

# Matching pennies: the minimizer picks a row, the maximizer a column.
PENNIES = [[[0, 0], 1, 1], [[0, 1], -1, 1], [[1, 0], -1, 1], [[1, 1], 1, 1]]

GAMES = {
    "team": {"n": 1, "actions": [2], "adversary_actions": 2,
             "payoff": {"kind": "dense", "entries": PENNIES}},
    "two_team": {"teams": {"minimizers": 1, "maximizers": 1},
                 "actions": [2], "adversary_actions": [2],
                 "payoff": {"kind": "dense", "entries": PENNIES}},
}

# (row strategy, column strategy, exit code at epsilon 0.1)
CASES = {
    "valid": ([0.5, 0.5], [0.5, 0.5], cli.EXIT_OK),
    "negative_probability": ([1.5, -0.5], [0.5, 0.5], cli.EXIT_INPUT),
    "wrong_length": ([0.5, 0.25, 0.25], [0.5, 0.5], cli.EXIT_INPUT),
    "gap_above_epsilon": ([1.0, 0.0], [1.0, 0.0], cli.EXIT_NOT_VERIFIED),
}


def _profile_doc(schema, row, column):
    if schema == "team":
        return {"team": [row], "adversary": column}
    return {"minimizers": [row], "maximizers": [column]}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("schema", sorted(GAMES))
def test_verify_exit_codes(tmp_path, capsys, schema, case):
    row, column, expected = CASES[case]
    game = tmp_path / "game.json"
    game.write_text(json.dumps(GAMES[schema]))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(_profile_doc(schema, row, column)))
    code = cli.main(["verify", "--game", str(game), "--profile",
                     str(profile), "--epsilon", "0.1"])
    assert code == expected
    out, err = capsys.readouterr()
    if expected == cli.EXIT_INPUT:
        assert err.startswith("error: ") and not out
    else:
        cert = json.loads(out)
        assert (cert["gap"] <= 0.1) == (expected == cli.EXIT_OK)


@pytest.mark.parametrize("row, expected", [
    ([0.5, 0.5], cli.EXIT_OK),
    ([1.0, 0.0], cli.EXIT_OK),
    ([1.5, -0.5], cli.EXIT_INPUT),
    ([0.5, 0.4], cli.EXIT_INPUT),
    ([0.5, 0.25, 0.25], cli.EXIT_INPUT),
])
def test_prox_center_exit_codes(tmp_path, capsys, row, expected):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(GAMES["team"]))
    center = tmp_path / "center.json"
    center.write_text(json.dumps({"team": [row]}))
    code = cli.main(["prox", "--game", str(game), "--center", str(center),
                     "--ell", "4.0", "--tol", "1e-6"])
    assert code == expected
    out, err = capsys.readouterr()
    if expected == cli.EXIT_INPUT:
        assert err.startswith("error: ") and not out
    else:
        assert json.loads(out)["reached"]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_prox_with_a_subnormal_tolerance_exits_ok(tmp_path, capsys):
    code = cli.main(["prox", "--game", _write(tmp_path, "game.json",
                                              GAMES["team"]),
                     "--center", _write(tmp_path, "center.json",
                                        {"team": [[0.5, 0.5]]}),
                     "--ell", "4", "--tol", "1e-320"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK and not err
    assert sorted(json.loads(out)) == [
        "center", "iterations", "objective_value", "prox_distance",
        "prox_point", "reached", "tolerance"]


@pytest.mark.parametrize("tol", ["1e-6", "1e-320"])
def test_prox_reports_reached_only_within_the_tolerance(tmp_path, capsys,
                                                        tol):
    code = cli.main(["prox", "--game", _write(tmp_path, "game.json",
                                              GAMES["team"]),
                     "--center", _write(tmp_path, "center.json",
                                        {"team": [[0.5, 0.5]]}),
                     "--ell", "4", "--tol", tol])
    result = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert result["reached"] == (result["tolerance"] <= float(tol))
    assert result["reached"] == (tol == "1e-6")


def test_solve_with_a_tiny_epsilon_and_a_budget_exits_ok(tmp_path, capsys):
    # epsilon ** 4 / 64 is about 6e-322, the run's prox tolerance.
    out = tmp_path / "out.json"
    code = cli.main(["solve", "--game", _write(tmp_path, "game.json",
                                               GAMES["team"]),
                     "--epsilon", "1e-80", "--max-iters", "5",
                     "--out", str(out)])
    assert code == cli.EXIT_OK and not capsys.readouterr().err
    assert json.loads(out.read_text())["certificate"]["gap"] <= 1e-80


def _gdmm(game, out, *extra):
    return cli.main(["gdmm", "--game", game, "--epsilon", "0.1", "--out",
                     str(out), *extra])


def test_gdmm_exits_ok_when_converged(tmp_path):
    out = tmp_path / "out.json"
    assert _gdmm(_write(tmp_path, "game.json", GAMES["two_team"]),
                 out) == cli.EXIT_OK
    result = json.loads(out.read_text())
    assert result["summary"]["outcome"] == "converged"
    assert result["certificate"]["gap"] <= 0.1


def test_gdmm_exits_budget_and_writes_the_best_profile(tmp_path):
    # The minmax strategy (1/3, 2/3) lies off the 1/50 grid, so no
    # iteration reaches epsilon 1e-9.
    doc = dict(GAMES["two_team"], payoff={"kind": "dense", "entries": [
        [[0, 0], 3, 1], [[0, 1], -1, 1], [[1, 0], -1, 1], [[1, 1], 1, 1]]})
    out = tmp_path / "out.json"
    code = cli.main(["gdmm", "--game", _write(tmp_path, "game.json", doc),
                     "--epsilon", "1e-9", "--max-iters", "3", "--out",
                     str(out)])
    assert code == cli.EXIT_BUDGET
    result = json.loads(out.read_text())
    assert result["summary"]["outcome"] == "budget_exhausted"
    assert result["summary"]["iterations"] == 3
    assert len(result["profile"]["maximizers"]) == 1


@pytest.mark.parametrize("command, schema", [("gdmm", "team"),
                                             ("solve", "two_team")])
def test_commands_refuse_the_other_schema(tmp_path, capsys, command,
                                          schema):
    out = tmp_path / "out.json"
    code = cli.main([command, "--game",
                     _write(tmp_path, "game.json", GAMES[schema]),
                     "--epsilon", "0.1", "--out", str(out)])
    assert code == cli.EXIT_INPUT
    printed, err = capsys.readouterr()
    assert err.startswith("error: ") and not printed
    assert not out.exists()


def test_gdmm_and_verify_on_a_polytensor_two_team_file(tmp_path, capsys):
    game = _write(tmp_path, "game.json",
                  poly_two_team_doc(np.random.default_rng(3)))
    out = tmp_path / "out.json"
    assert _gdmm(game, out) == cli.EXIT_OK
    result = json.loads(out.read_text())
    profile = _write(tmp_path, "profile.json", result["profile"])
    code = cli.main(["verify", "--game", game, "--profile", profile,
                     "--epsilon", "0.1"])
    assert code == cli.EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["gap"] == pytest.approx(result["certificate"]["gap"],
                                        abs=1e-12)


def test_gdmm_reports_kept_and_dropped_warm_starts(tmp_path):
    game = _write(tmp_path, "game.json",
                  poly_two_team_doc(np.random.default_rng(3)))
    out = tmp_path / "out.json"
    assert _gdmm(game, out, "--epsilon", "1e-9", "--max-iters", "5") \
        == cli.EXIT_BUDGET
    summary = json.loads(out.read_text())["summary"]
    # Every LP but the first oracle LP and the first re-extension is
    # offered the previous iteration's basis.
    assert (summary["lp_warm_kept"] + summary["lp_warm_repaired"]
            + summary["lp_warm_dropped"] + 2 == summary["extend_calls"] == 10)


@pytest.mark.parametrize("command, extra", [
    ("gdmm", ["--grid-step", "0"]),
    ("gdmm", ["--grid-step", "nan"]),
    ("gdmm", ["--grid-step", "-1"]),
    ("gdmm", ["--grid-step", "5e-324"]),
    ("gdmm", ["--grid-step", "1e-9"]),
    ("gdmm", ["--eta", "-1"]),
    ("solve", ["--eta", "-1"]),
    ("solve", ["--eta", "inf"]),
    ("gdmm", ["--max-iters", "0"]),
    ("solve", ["--max-iters", "0"]),
    ("solve", ["--eta", "nan"]),
    ("gdmm", ["--epsilon", "inf"]),
    ("solve", ["--epsilon", "1e300"]),
    ("prox", ["--ell", "inf"]),
    ("prox", ["--tol", "nan"]),
    ("solve", ["--epsilon", "1e-100"]),
    ("solve", ["--epsilon", "1e-80"]),
    ("solve", ["--epsilon", "1e-100", "--max-iters", "5"]),
    ("gdmm", ["--epsilon", "1e-100"]),
    ("solve", ["--jobs", "0"]),
])
def test_bad_numeric_arguments_exit_input(tmp_path, capsys, command, extra):
    schema = "two_team" if command == "gdmm" else "team"
    argv = [command, "--game", _write(tmp_path, "game.json", GAMES[schema])]
    if command == "prox":
        argv += ["--center", _write(tmp_path, "center.json",
                                    {"team": [[0.5, 0.5]]}),
                 "--ell", "4.0", "--tol", "1e-6"]
    else:
        argv += ["--epsilon", "0.1", "--out", str(tmp_path / "out.json")]
    # A repeated option takes its last value.
    assert cli.main(argv + extra) == cli.EXIT_INPUT
    printed, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    assert not printed and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["solve", "gdmm"])
@pytest.mark.parametrize("schema", sorted(GAMES))
@pytest.mark.parametrize("where", ["entry", "v_max"])
def test_rational_out_of_float_range_exits_input(tmp_path, capsys, command,
                                                 schema, where):
    doc = json.loads(json.dumps(GAMES[schema]))
    if where == "entry":
        doc["payoff"]["entries"][1] = [[0, 1], -10**400, 3]
        path = "payoff.entries[1]"
    else:
        doc["v_max"] = [10**400, 1]
        path = "v_max"
    out = tmp_path / "out.json"
    code = cli.main([command, "--game", _write(tmp_path, "game.json", doc),
                     "--epsilon", "0.1", "--out", str(out)])
    assert code == cli.EXIT_INPUT
    printed, err = capsys.readouterr()
    assert err.startswith("error: ") and not printed
    assert f"{path}: rational out of float range" in err
    assert not out.exists()


# -- solve and gen runs --------------------------------------------------

# Two small draws that GD certifies at epsilon 0.1 in 41 and 47 steps.
SOLVE_DRAWS = {"pair": (2, [2, 2], 2, 4), "single": (1, [2], 3, 0)}


def _game_file(tmp_path, name):
    return _write(tmp_path, f"{name}.json",
                  random_game(*SOLVE_DRAWS[name]).document)


def _solve(game_files, out, *extra):
    argv = ["solve", "--epsilon", "0.1", "--out", str(out), *extra]
    for game in game_files:
        argv += ["--game", game]
    return cli.main(argv)


def _expected_result(name, **config):
    """The API run that ``solve`` reports, with its JSON payload."""
    profile, cert, trace = gradient_descent_max(
        random_game(*SOLVE_DRAWS[name]), GdConfig(epsilon=0.1, **config))
    payload = {"profile": profile_to_dict(profile),
               "certificate": cert.to_dict(), "summary": trace.summary()}
    return payload, trace


def _dump(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _drop_phase_times(payload):
    del payload["summary"]["phase_s"]
    return payload


def test_solve_writes_json_with_the_embedded_trace(tmp_path):
    out = tmp_path / "out.json"
    assert _solve([_game_file(tmp_path, "pair")], out) == cli.EXIT_OK
    result = json.loads(out.read_text())
    expected, trace = _expected_result("pair")
    assert len(result["trace"]) == len(trace.iterations) == 41
    for row, record in zip(result["trace"], trace.iterations):
        assert row == {c: getattr(record, c) for c in TRACE_COLUMNS}
    del result["trace"]
    assert _drop_phase_times(result) == _drop_phase_times(expected)
    assert result["summary"]["outcome"] == "converged"
    assert result["certificate"]["gap"] <= 0.1


def test_solve_csv_sidecar_is_the_trace_csv(tmp_path):
    out = tmp_path / "out.json"
    assert _solve([_game_file(tmp_path, "single")], out,
                  "--format", "csv") == cli.EXIT_OK
    _, trace = _expected_result("single")
    sidecar = tmp_path / "out.json.trace.csv"
    assert sidecar.read_text() == trace.to_csv()
    assert "trace" not in json.loads(out.read_text())


def test_solve_batch_writes_one_result_per_game(tmp_path):
    games = [_game_file(tmp_path, name) for name in sorted(SOLVE_DRAWS)]
    out_dir = tmp_path / "results"
    assert _solve(games, out_dir, "--jobs", "1",
                  "--format", "csv") == cli.EXIT_OK
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "pair.result.json", "pair.result.json.trace.csv",
        "single.result.json", "single.result.json.trace.csv"]
    for name in SOLVE_DRAWS:
        expected, trace = _expected_result(name)
        written = json.loads((out_dir / f"{name}.result.json").read_text())
        assert _drop_phase_times(written) == _drop_phase_times(expected)
        assert ((out_dir / f"{name}.result.json.trace.csv").read_text()
                == trace.to_csv())


def test_parallel_solve_batch_writes_the_serial_results(tmp_path):
    games = [_game_file(tmp_path, name) for name in sorted(SOLVE_DRAWS)]
    codes, results = [], []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"jobs{jobs}"
        codes.append(_solve(games, out_dir, "--jobs", jobs))
        results.append({p.name: _drop_phase_times(json.loads(p.read_text()))
                        for p in sorted(out_dir.iterdir())})
    assert codes == [cli.EXIT_OK, cli.EXIT_OK]
    assert sorted(results[1]) == ["pair.result.json", "single.result.json"]
    assert results[1] == results[0]


def test_one_game_solve_parses_its_file_once(tmp_path, monkeypatch):
    # The game the pre-run check loaded is the one solved.
    parsed = []
    real = cli.game_from_dict
    monkeypatch.setattr(cli, "game_from_dict",
                        lambda doc: parsed.append(doc) or real(doc))
    out = tmp_path / "out.json"
    assert _solve([_game_file(tmp_path, "single")], out) == cli.EXIT_OK
    assert len(parsed) == 1


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the solver ran before the output path was checked")


@pytest.mark.parametrize("command", ["solve", "solve_batch", "prox", "gen",
                                     "gdmm", "solve_dir", "gdmm_dir",
                                     "solve_batch_dir", "solve_sidecar_dir",
                                     "gdmm_sidecar_dir"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, monkeypatch,
                                             command):
    monkeypatch.setattr(cli, "gradient_descent_max", _refuse_to_run)
    monkeypatch.setattr(cli, "gd_mm", _refuse_to_run)
    missing = str(tmp_path / "missing" / "out.json")
    team = _write(tmp_path, "team.json", GAMES["team"])
    two_team = _write(tmp_path, "two_team.json", GAMES["two_team"])
    other = _write(tmp_path, "other.json", GAMES["team"])
    # The output path names an existing directory.
    outdir = tmp_path / "outdir"
    (outdir / "team.result.json").mkdir(parents=True)
    # The CSV sidecar of the output path names an existing directory.
    side = tmp_path / "side.json"
    (tmp_path / "side.json.trace.csv").mkdir()
    argv = {
        "solve": ["solve", "--game", team, "--epsilon", "0.1",
                  "--out", missing],
        # The batch output directory names an existing file.
        "solve_batch": ["solve", "--game", team, "--game", other,
                        "--epsilon", "0.1", "--out", team],
        "prox": ["prox", "--game", team, "--ell", "4", "--tol", "1e-6",
                 "--center", _write(tmp_path, "center.json",
                                    {"team": [[0.5, 0.5]]}),
                 "--out", missing],
        "gen": ["gen", "random", "--out", missing, "--spec",
                _write(tmp_path, "spec.json",
                       {"n": 1, "actions": [2], "adversary_actions": 2})],
        "gdmm": ["gdmm", "--game", two_team, "--epsilon", "0.1",
                 "--out", missing],
        "solve_dir": ["solve", "--game", team, "--epsilon", "0.1",
                      "--format", "csv", "--out", str(outdir)],
        "gdmm_dir": ["gdmm", "--game", two_team, "--epsilon", "0.1",
                     "--format", "csv", "--out", str(outdir)],
        "solve_batch_dir": ["solve", "--game", team, "--game", other,
                            "--epsilon", "0.1", "--format", "csv",
                            "--out", str(outdir)],
        "solve_sidecar_dir": ["solve", "--game", team, "--epsilon", "0.1",
                              "--format", "csv", "--out", str(side)],
        "gdmm_sidecar_dir": ["gdmm", "--game", two_team, "--epsilon", "0.1",
                             "--format", "csv", "--out", str(side)],
    }[command]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith("error: ") and "Traceback" not in err
    assert not [p for p in tmp_path.rglob("*.csv") if p.is_file()]


def test_batch_refuses_games_that_share_a_file_name(tmp_path, capsys):
    games = []
    for sub in ("d1", "d2"):
        (tmp_path / sub).mkdir()
        games.append(_write(tmp_path, f"{sub}/g.json", GAMES["team"]))
    out_dir = tmp_path / "outb"
    assert _solve(games, out_dir) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert games[0] in err and games[1] in err
    assert not out_dir.exists()


def test_batch_checks_every_game_before_the_first_solve(tmp_path, capsys,
                                                       monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a game was solved before every game loaded")

    monkeypatch.setattr(cli, "gradient_descent_max", refuse)
    games = [_write(tmp_path, "a.json", GAMES["team"]),
             _write(tmp_path, "bad.json", {"n": 1})]
    out_dir = tmp_path / "outb"
    assert _solve(games, out_dir) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and games[1] in err
    assert not out_dir.exists()


def _strict_json(text):
    """``json.loads`` refusing NaN and the infinities, as RFC 8259 does."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gdmm_writes_strict_json(tmp_path, fmt):
    out = tmp_path / "out.json"
    assert _gdmm(_write(tmp_path, "game.json", GAMES["two_team"]), out,
                 "--format", fmt) == cli.EXIT_OK
    assert _strict_json(out.read_text())["summary"]["prox_tol"] is None


def test_verify_refuses_an_infinite_epsilon(tmp_path, capsys):
    code = cli.main([
        "verify", "--game", _write(tmp_path, "game.json", GAMES["team"]),
        "--profile", _write(tmp_path, "profile.json",
                            _profile_doc("team", [0.5, 0.5], [0.5, 0.5])),
        "--epsilon", "inf"])
    assert code == cli.EXIT_INPUT
    printed, err = capsys.readouterr()
    assert err.startswith("error: ") and not printed


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--check-every", "1"), ("solve", "--seed", "0"),
    ("gdmm", "--seed", "0")])
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flag,
                                        value):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--game", "game.json", "--epsilon", "0.1",
                  "--out", str(tmp_path / "out.json"), flag, value])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


def test_solve_exits_budget_with_the_best_profile(tmp_path):
    out = tmp_path / "out.json"
    code = cli.main(["solve", "--game", _game_file(tmp_path, "pair"),
                     "--epsilon", "1e-9", "--max-iters", "3",
                     "--out", str(out)])
    assert code == cli.EXIT_BUDGET
    result = json.loads(out.read_text())
    assert result["summary"]["outcome"] == "budget_exhausted"
    assert len(result["trace"]) == result["summary"]["iterations"] == 3
    best = min(row["ne_gap"] for row in result["trace"])
    assert result["certificate"]["gap"] == best


def _gen(tmp_path, family, spec, seed=0):
    out = tmp_path / f"{family}.json"
    code = cli.main(["gen", family, "--spec",
                     _write(tmp_path, f"{family}.spec.json", spec),
                     "--seed", str(seed), "--out", str(out)])
    return code, out


def test_gen_random_writes_the_seeded_document(tmp_path):
    code, out = _gen(tmp_path, "random", {
        "n": 2, "actions": [2, 3], "adversary_actions": 2,
        "value_range": [[-1, 2], 1]}, seed=5)
    assert code == cli.EXIT_OK
    expected = random_game(2, [2, 3], 2, 5, value_range=(Fraction(-1, 2), 1))
    assert out.read_text() == _dump(expected.document)
    game = game_from_dict(json.loads(out.read_text()))
    assert (game.payoff_tensor().tobytes()
            == expected.payoff_tensor().tobytes())


def test_gen_congestion_writes_a_loadable_document(tmp_path):
    spec = {"n_players": 2,
            "edges": [{"menu": [[[1, 2], 1, 2], [0, [3, 4], 5]]},
                      {"menu": [[1, 1, 1]]}],
            "strategies": [[[0], [1]], [[0, 1]]]}
    code, out = _gen(tmp_path, "congestion", spec)
    assert code == cli.EXIT_OK
    expected = congestion_to_team_game(CongestionSpec.from_dict(spec))
    assert out.read_text() == _dump(expected.document)
    game = game_from_dict(json.loads(out.read_text()))
    assert game.action_sets == (2, 1) and game.adversary_actions == 2
    # Loads (1, 2) on menus (1, 0): edge 0 adds 0 + 3/4, edge 1 adds 1 + 1 + 1.
    assert game.payoff((1, 0), 1) == 3 / 4 + 3


def test_gen_potential_writes_a_loadable_two_team_document(tmp_path):
    spec = {"minimizers": 2, "maximizers": 2, "actions": [2, 3],
            "adversary_actions": [2, 2]}
    code, out = _gen(tmp_path, "potential", spec, seed=4)
    assert code == cli.EXIT_OK
    expected = potential_spec_to_two_team(spec, seed=4)
    assert out.read_text() == _dump(expected.document)
    game = two_team_from_dict(json.loads(out.read_text()))
    assert (game.n, game.m) == (2, 2)
    assert game.maximizer_actions == (2, 2)
    assert game.tensor.tobytes() == expected.tensor.tobytes()
    result = tmp_path / "result.json"
    code = _gdmm(str(out), result, "--max-iters", "2")
    assert code in (cli.EXIT_OK, cli.EXIT_BUDGET)


def test_potential_game_embed_names_the_first_violating_profile():
    # Each table is the potential plus an offset that ignores its owner's
    # axis (length 1 there, broadcast), so every identity holds.
    rng = np.random.default_rng(1)
    potential = rng.uniform(-1, 1, size=(2, 3, 2))
    costs = [potential + rng.uniform(-1, 1, size=(1, 3, 2)),
             potential + rng.uniform(-1, 1, size=(2, 1, 2))]
    utils = [potential + rng.uniform(-1, 1, size=(2, 3, 1))]
    assert potential_game_embed(costs, utils, potential).tensor.shape \
        == (2, 3, 2)
    # Moving one entry of player 1's cost breaks its identity along axis 1
    # at exactly one slice of the other axes: (a_0, b) = (1, 0).
    bad_cost = costs[1].copy()
    bad_cost[1, 2, 0] += 0.5
    with pytest.raises(GameError, match=r"cost\[1\]: difference identity "
                       r"violated by 0\.5 at profile slice \(1, 0\) along "
                       r"axis 1"):
        potential_game_embed([costs[0], bad_cost], utils, potential)
    # Two broken slices of the maximizer's table: the first in C order is
    # named.
    bad_util = utils[0].copy()
    bad_util[1, 1, 0] -= 0.25
    bad_util[0, 2, 1] += 0.25
    with pytest.raises(GameError, match=r"util\[0\]: difference identity "
                       r"violated by 0\.25 at profile slice \(0, 2\) along "
                       r"axis 2"):
        potential_game_embed(costs, [bad_util], potential)


@pytest.mark.parametrize("family, spec, field", [
    ("random", {"n": 1, "actions": [2], "adversary_actions": 2,
                "value_range": [["a", 1], 1]}, "value_range[0]"),
    ("random", {"n": 1, "actions": [2], "adversary_actions": 2,
                "value_range": [[1.5, 2], 1]}, "value_range[0]"),
    ("random", {"n": "1", "actions": [2], "adversary_actions": 2}, "n"),
    ("random", {"n": 1, "actions": [2.0], "adversary_actions": 2},
     "actions"),
    ("random", [1, [2], 2], "spec must be an object"),
    ("potential", {"minimizers": 1, "maximizers": "x", "actions": [2],
                   "adversary_actions": [2]}, "maximizers"),
    ("potential", {"minimizers": 1, "maximizers": 1, "actions": [2],
                   "adversary_actions": [2], "value_range": 3},
     "value_range"),
    ("congestion", {"n_players": 1, "edges": [{"menu": [[0, [1, 0]]]}],
                    "strategies": [[[0]]]}, "edges[0].menu[0][1]"),
    ("potential", {"minimizers": 3, "maximizers": 1, "actions": [2],
                   "adversary_actions": [2]}, ": actions:"),
    ("potential", {"minimizers": 1, "maximizers": 2, "actions": [2],
                   "adversary_actions": [2]}, ": adversary_actions:"),
    ("potential", {"minimizers": 1, "maximizers": 1, "actions": [-1],
                   "adversary_actions": [2]}, ": actions:"),
    ("potential", {"minimizers": 1, "maximizers": 1, "actions": [0],
                   "adversary_actions": [2]}, ": actions:"),
    ("potential", {"minimizers": 0, "maximizers": 1, "actions": [],
                   "adversary_actions": [2]}, ": minimizers:"),
    ("potential", {"minimizers": 1, "maximizers": 0, "actions": [2],
                   "adversary_actions": []}, ": maximizers:"),
])
def test_gen_rejects_a_malformed_spec(tmp_path, capsys, family, spec,
                                      field):
    code, out = _gen(tmp_path, family, spec)
    assert code == cli.EXIT_INPUT
    printed, err = capsys.readouterr()
    assert err.startswith("error: ") and field in err and not printed
    assert not out.exists()
