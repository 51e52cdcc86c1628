"""Tables of a count law: the level route against the dense one.

A table built by ``FunctionTable.from_count_law`` keeps its n+1 law values,
and its spectrum comes from n+1 level coefficients a_k = A_k / 2^n gathered
by popcount, its Boolean levels and level masses from the law.  Every
quantity must be bitwise that of the same values in a plain table, which
runs the product-basis transform and counts its cells.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluekit import spectral
from cluekit.core import TABLE_BLOCK, FunctionTable, uniform_space
from cluekit.errors import DegenerateError, GuardError
from cluekit.zoo import FAMILIES, from_spec

SIZES = (1, 2, 3, 15, 16, 17, 19, 21)
SPECS = [f"parity:{n}" for n in SIZES] + [f"sum:{n}" for n in SIZES] \
    + [f"maj:{n}" for n in SIZES if n % 2] \
    + [f"amaj:{n},{a}" for a in (0.5, -0.3) for n in SIZES]

ROUTES = {
    "walsh_hadamard": spectral.walsh_hadamard,
    "efron_stein": spectral.efron_stein,
    "spectral_distribution": spectral.spectral_distribution,
    "stability_profile": lambda f: spectral.stability_profile(f).level_weights,
    "projected_variances": spectral.projected_variances,
}


def _answer(route, f):
    try:
        return route(f).tobytes()  # bytes: +0.0 and -0.0 differ
    except DegenerateError as exc:
        return type(exc)


@pytest.mark.parametrize("spec", SPECS)
def test_the_level_route_is_bitwise_the_transform(spec):
    f = from_spec(spec).table
    dense = FunctionTable(f.space, f.values.copy())
    assert f.count_law() is not None and dense.count_law() is None
    for name, route in ROUTES.items():
        assert _answer(route, f) == _answer(route, dense), name
    assert f._boolean_levels() == dense._boolean_levels()
    assert f._level_masses() == dense._level_masses()


def _level_oracle(n: int) -> list[list[int]]:
    """M[k][w] = sum_j C(k, j) (-1)^(k-j) C(n-k, w-j): the coefficient of
    z^w in (z - 1)^k (1 + z)^(n - k), in Python integers."""
    return [[sum(math.comb(k, j) * (-1) ** (k - j) * math.comb(n - k, w - j)
                 for j in range(max(0, w - n + k), min(k, w) + 1))
             for w in range(n + 1)] for k in range(n + 1)]


def test_the_level_matrix_is_exact_up_to_the_budget():
    """Up to n = 26, the most bits a table below the byte budget has, M is
    the integer oracle, each row sums to at most 2^n in absolute value, and
    every zoo law's A_k is an integer below 2^53 that M @ law gives exactly."""
    for n in range(1, 27):
        oracle = _level_oracle(n)
        m = spectral._level_matrix(n)
        assert not m.flags.writeable
        assert m.tolist() == oracle
        assert max(sum(abs(x) for x in row) for row in oracle) <= 1 << n
        laws = [FAMILIES[head].by_count(n) for head in ("parity", "sum")]
        laws += [FAMILIES["amaj"].by_count(n, a) for a in (0.5, -0.3)]
        laws += [FAMILIES["maj"].by_count(n)] if n % 2 else []
        for law in laws:
            exact = [sum(int(v) * x for v, x in zip(law, row)) for row in oracle]
            assert max(map(abs, exact)) < 2**53
            assert (m @ law).tolist() == exact
    with pytest.raises(GuardError):
        FunctionTable.from_count_law(np.ones(28))


@pytest.mark.parametrize("law", [
    [0.0, 0.5, 1.0],
    [0.0, np.nan, 1.0],
    [0.0, np.inf, 1.0],
    [0.0, 2.0**51, 1.0],  # n = 2: the bound is 2^51
    [[0.0, 1.0]],
    [1.0],
])
def test_a_law_off_the_exact_integers_is_refused(law):
    with pytest.raises(ValueError):
        FunctionTable.from_count_law(law)


def test_the_law_is_kept_read_only():
    law = np.array([1.0, -1.0, 1.0])
    f = FunctionTable.from_count_law(law)
    law[0] = 5.0  # the table keeps its own copy
    assert f.count_law().tolist() == [1.0, -1.0, 1.0]
    assert not f.count_law().flags.writeable
    assert f.values.tolist() == [1.0, -1.0, -1.0, 1.0]
    assert f.space == uniform_space(2)


def _two_count_levels(values: np.ndarray):
    """The rule the block-first check must agree with: both levels' counts
    over the whole table."""
    lo, hi = float(values.min()), float(values.max())
    for levels in ((0.0, 1.0), (-1.0, 1.0)):
        if lo in levels and hi in levels and (
            lo == hi or np.count_nonzero(values == lo) + np.count_nonzero(values == hi) == values.size
        ):
            return levels
    return None


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 16, 17]),
    levels=st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]),
    where=st.sampled_from([None, "first", "block", "rest", "last"]),
    off=st.sampled_from([0.5, 0.0, -1.0, 2.0, 1.0, -0.25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_block_first_levels_agree_with_two_counts(n, levels, where, off, seed):
    """Random two-level tables, one cell set to ``off`` at the first cell,
    inside the first block, past it, or at the last cell."""
    rng = np.random.default_rng(seed)
    values = np.array(levels)[rng.integers(0, 2, 1 << n)]
    size = values.size
    at = {"first": 0, "block": int(rng.integers(0, min(size, TABLE_BLOCK))),
          "rest": int(rng.integers(min(size - 1, TABLE_BLOCK), size)), "last": size - 1}.get(where)
    if at is not None:
        values[at] = off
    f = FunctionTable(uniform_space(n), values.copy())
    assert f._boolean_levels() == _two_count_levels(values)


@pytest.mark.parametrize("levels,off", [((0.0, 1.0), 0.5), ((-1.0, 1.0), 0.0)])
def test_an_off_level_last_cell_is_seen(levels, off):
    values = np.tile(np.array(levels), 1 << 16)
    values[-1] = off
    f = FunctionTable(uniform_space(17), values)
    assert f._boolean_levels() is None and not f.is_boolean()
