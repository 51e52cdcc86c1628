"""Monte Carlo on a block evaluator never builds the whole digit matrix.

A zoo evaluator or a table's evaluator is a ``core.BlockEvaluator``:
``mc_clue`` takes the state of each outer row's inside coordinates once and
the state of the outside digits of its inner rows, adds the two and
finishes.  The plain route, for other callables, places every chunk's
digits in an (n, rows * m_inner) uint8 matrix and calls the evaluator on
it.  These tests make sure a block evaluator never falls back to it: the
evaluator is never called on a digit matrix, and no chunk holds as many
bytes at once as that matrix would take.
"""
import tracemalloc

import numpy as np
import pytest

from cluekit import cli
from cluekit.core import BlockEvaluator, FunctionTable, uniform_space
from cluekit.montecarlo import CHUNK, generator_for, mc_clue, mc_expected_clue_bernoulli
from cluekit.zoo import evaluator_from_spec
from conftest import save_table


@pytest.fixture
def no_digit_matrix(monkeypatch):
    """Refuse every call of a block evaluator on a digit matrix, and give a
    ``measure(call)`` that returns call's result and the most bytes it held
    at once beyond what it started with."""

    def refuse(self, digits):
        raise AssertionError(f"a block evaluator got a {digits.shape} digit matrix")

    monkeypatch.setattr(BlockEvaluator, "__call__", refuse)
    generator_for(0, 0)  # numpy imports np.random on first use: not the estimator's bytes

    def measure(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure


def test_mc_clue_on_a_zoo_spec(no_digit_matrix, capsys):
    # 101 coordinates, 90 inside: the digit matrix of a 256-row chunk with
    # 50 inner rows takes 101 * 12800 bytes, the outside draws 11 * 12800
    subset = ",".join(map(str, range(90)))
    code, peak = no_digit_matrix(lambda: cli.main(["mc-clue", "--fn", "maj:101", "--subset", subset,
                                                   "--outer", "300", "--seed", "1"]))
    assert code == 0 and '"estimate"' in capsys.readouterr().out
    assert peak < 101 * CHUNK * 50


def test_mc_clue_on_a_boolean_table_file(no_digit_matrix, capsys, tmp_path, monkeypatch):
    # 18 coordinates, 16 inside: the outside state is a uint32 index per row
    space = uniform_space(18)
    table = FunctionTable(space, np.random.default_rng(0).integers(0, 2, space.size) * 2.0 - 1.0)
    path = tmp_path / "spins18.json"
    save_table(table, path)
    peaks = []

    def measured(*args):
        est, peak = no_digit_matrix(lambda: mc_clue(*args))
        peaks.append(peak)
        return est

    # measure the estimator alone, not the parsing of the table file
    monkeypatch.setattr(cli, "mc_clue", measured)
    assert cli.main(["mc-clue", "--fn", str(path), "--subset", ",".join(map(str, range(16))),
                     "--outer", "300", "--seed", "2"]) == 0
    assert '"estimate"' in capsys.readouterr().out
    assert peaks and peaks[0] < 18 * CHUNK * 50


def test_expected_clue_on_a_zoo_evaluator(no_digit_matrix):
    n, ev = evaluator_from_spec("maj:101")
    est, peak = no_digit_matrix(
        lambda: mc_expected_clue_bernoulli(ev, uniform_space(n), 0.9, 3, 300, 50, seed=3))
    assert 0.0 <= est.estimate <= 1.0
    assert peak < n * CHUNK * 50
