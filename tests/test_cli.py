import json

import numpy as np
import pytest

from teamsolve import cli

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
