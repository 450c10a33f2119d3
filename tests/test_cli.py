import json

import pytest

from teamsolve import cli

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
