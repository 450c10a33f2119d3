"""The guarantee program's per-shape template against ``_convert``, bitwise.

``extension._guarantee_program`` writes each program's standard form from
a template that the generic ``linprog._convert`` built once for the
program's block sizes, ``|B|`` and right-hand-side pattern.  That form
must be the bytes ``_convert`` gives for the same program, signed zeros
included, and the solve must not move.  The programs are every guarantee
program among the ``test_lp_pins`` cases (the ``feasible_*`` ones are not
guarantee programs), the warm-start sequences, the Kelley LPs of one GD
run, and extension LPs of games whose payoffs have exact zeros, where a
co-maximizer's negated block holds ``-0.0``.
"""

import dataclasses

import numpy as np
import pytest

import teamsolve.extension as extension
import teamsolve.linprog as linprog
import teamsolve.moreau as moreau
from teamsolve import (
    GdConfig,
    TeamGame,
    TwoTeamGame,
    extend_ne,
    extend_ne_multi,
    gradient_descent_max,
    random_game,
    solve_lp,
)

from test_lp_pins import CASES as PIN_CASES
from test_lp_reference import _outcome
from test_lp_warm import SEQUENCES, _extension_lps


def _kelley_lps():
    """The Kelley LPs of a short GD run.  With Newton's method turned off,
    as in ``test_dynamics.TestProxLpPivots``, every prox step that does
    not certify at once goes through Kelley rounds."""
    seen = []
    real = moreau.solve_lp

    def capture(lp):
        seen.append(lp)
        return real(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moreau._DualCertifier, "_newton",
                   lambda self, *args, **kwargs: False)
        mp.setattr(moreau, "solve_lp", capture)
        gradient_descent_max(random_game(1, [3], 3, 2),
                             GdConfig(epsilon=0.05, max_iters=40))
    return seen


def _zero_payoff_lps():
    """Extension LPs of a dense team game and a 2v2 two-team game whose
    payoffs are in {-1, 0, 1}, at pure, uniform and random strategies."""
    rng = np.random.default_rng(5)
    game = TeamGame.dense(rng.integers(-1, 2, size=(2, 3, 4)).astype(float))
    two = TwoTeamGame(rng.integers(-1, 2, size=(2, 2, 2, 2)).astype(float),
                      n=2, m=2)
    points = [np.eye(k)[0] for k in (2, 3, 2)]
    teams = [tuple(points[:2]), (np.full(2, 0.5), np.full(3, 1 / 3))]
    teams += [(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3)))
              for _ in range(3)]
    lps = _extension_lps(extend_ne, game, [(team,) for team in teams])
    two_points = [((np.eye(2)[0], np.eye(2)[1]), (np.eye(2)[0],)),
                  ((np.full(2, 0.5),) * 2, (np.full(2, 0.5),))]
    two_points += [((rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))),
                    (rng.dirichlet(np.ones(2)),)) for _ in range(3)]
    return lps + _extension_lps(extend_ne_multi, two, two_points)


def _programs():
    lps = [make() for make in PIN_CASES.values()]
    lps += [lp for make in SEQUENCES.values() for lp in make()]
    return [lp for lp in lps if lp._form is not None]


SOURCES = {
    "pins_and_sequences": _programs,
    "kelley": _kelley_lps,
    "zero_payoffs": _zero_payoff_lps,
}


def _assert_same_form(written, converted):
    assert len(written) == len(converted)
    for a, b in zip(written, converted):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_template_form_is_the_converted_form(source):
    lps = SOURCES[source]()
    assert lps and all(lp._form is not None for lp in lps)
    negative_zeros = 0
    for lp in lps:
        plain = dataclasses.replace(lp)  # the same program, no form
        assert plain._form is None
        for perturb in (False, True):
            _assert_same_form(linprog._standard_form(lp, perturb),
                              linprog._convert(plain, perturb))
        assert _outcome(solve_lp, lp) == _outcome(solve_lp, plain)
        negative_zeros += int(np.signbit(lp.A[lp.A == 0.0]).sum())
    if source == "zero_payoffs":
        assert negative_zeros > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_template_checks_the_new_coefficients_and_rhs(bad):
    blocks = [np.ones((2, 3)), np.zeros((1, 3))]
    starts, lp = extension._guarantee_program(blocks, 3, np.zeros(3), None)
    assert starts == (0, 2, 3) and lp._form is not None
    blocks[1][0, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        extension._guarantee_program(blocks, 3, np.zeros(3), None)
    with pytest.raises(ValueError, match="finite"):
        extension._guarantee_program(blocks[:1], 3, np.array([0.0, bad]),
                                     None)


def test_template_arrays_shared_across_programs_are_read_only():
    _, lp = extension._guarantee_program([np.ones((2, 3))], 3, np.zeros(2),
                                         None)
    A_std, b_std = lp._form[:2]
    assert A_std.flags.writeable and b_std.flags.writeable
    for shared in (lp.objective, lp.E, lp.f, lp._form[2], lp._form[5]):
        assert not shared.flags.writeable
