"""The count route against exact oracles.

A table on two levels on uniform bits is split by counts
(``clue._CountSplit``): every per-mask metric is read off the numbers k_r of
upper-level cells in the fibers of the mask and of its complement.  The
oracles count the same cells through an independent route, the row sums of
``core.fibers`` of the table's 0/1 flags, and form every metric from its
definition on the conditional law P(f = hi | X_U = r) = k_r / m:

* L2 clue, TV, witness and influence as ``fractions.Fraction`` values.  The
  route must return the correctly rounded float of each; sig and the
  influence are 1 minus a correctly rounded clue and witness, as their
  routes state.
* I, sig_i and KL to 50 digits with ``decimal``, in the style of
  ``tests/test_level_masses.py``.  By counts each is a sum of nonnegative
  divergences, and the routes' docstrings bound each ratio's absolute
  error by a few ulps.

The cases are every Boolean zoo family at n <= 13, seeded random tables
whose upper or lower level holds at most 3 cells, and one table whose
counts need uint32 (n = 18, |U| = 1, so m = 2^17); each on seeded masks, the
empty and the full mask included.  At n <= 13 the float split
(``clue._Split``) forms every sum of the exact ratios without rounding, so
it too returns the correctly rounded values: the two routes agree bit for
bit there.
"""
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from cluekit import cli
from cluekit.clue import (
    _CountSplit,
    _Split,
    _split_of,
    clue,
    influence_set,
    sig,
    tv_clue,
    witness,
)
from cluekit.core import FunctionTable, ProductSpace, fiber_counts, fibers, uniform_space
from cluekit.zoo import from_spec

EPS = np.finfo(float).eps
ALL_METRICS = ["l2", "sig", "inf", "wit", "tv", "i", "kl"]
ZOO = ["dictator:7,3", "parity:9", "maj:9", "maj:13", "amaj:11,0.5", "tribes:3,4", "tribes:2,3",
       "composite:7,6,0.5", "composite:5,4,0.5"]


def _sparse_table(n: int, seed: int) -> FunctionTable:
    """At most 3 cells at one level; {0, 1} or {-1, 1} values by seed."""
    rng = np.random.default_rng(seed)
    upper = np.zeros(1 << n, dtype=bool)
    upper[rng.choice(1 << n, min(int(rng.integers(1, 4)), (1 << n) - 1), replace=False)] = True
    if seed % 3 == 1:
        upper = ~upper
    values = upper.astype(float)
    return FunctionTable(uniform_space(n), 2.0 * values - 1.0 if seed % 2 else values)


def _masks(n: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted({0, (1 << n) - 1, *rng.integers(0, 1 << n, size=4).tolist()})


CASES = [(spec, lambda spec=spec: from_spec(spec).table) for spec in ZOO] + [
    (f"sparse-{n}-{seed}", lambda n=n, seed=seed: _sparse_table(n, seed))
    for n, seed in [(1, 0), (2, 1), (5, 2), (8, 3), (11, 4), (13, 5), (13, 6)]
]


def _oracle_counts(f: FunctionTable, mask: int) -> tuple[int, int, list[int]]:
    """(N, m, k_r) from the rows of the fibers matrix."""
    upper = (f.values == f.value_range()[1]).astype(np.int64)
    counts = fibers(upper, f.space, mask).sum(axis=1)
    return 1 << f.n, (1 << f.n) // counts.size, counts.tolist()


def _exact(f: FunctionTable, mask: int) -> dict:
    """The L2 clue, TV and witness of mask, as Fractions from their
    definitions on the conditional law."""
    n_cells, m, counts = _oracle_counts(f, mask)
    lo, hi = (Fraction(x) for x in f.value_range())
    weight = Fraction(1, len(counts))
    cond = Counter(lo + (hi - lo) * Fraction(k, m) for k in counts)  # E[f | X_U = r]
    mean = lo + (hi - lo) * Fraction(sum(counts), n_cells)
    var = (hi - mean) * (mean - lo)  # of a two-level f
    mad = 2 * (hi - mean) * (mean - lo) / (hi - lo)  # E|f - E f|
    return {
        "clue": sum(weight * c * (v - mean) ** 2 for v, c in cond.items()) / var,
        "tv": sum(weight * c * abs(v - mean) for v, c in cond.items()) / mad,
        "witness": weight * sum(1 for k in counts if k in (0, m)),
    }


def _decimal(f: FunctionTable, mask: int) -> dict:
    """I(Z : X_U) / H(Z) and the KL clue of the {0, 1} indicator, to 50
    digits: H(Z) - H(Z | X_U), and Ent(E[g | X_U]) / Ent(g) with
    Ent(v) = E[v ln v] - E v ln E v."""
    n_cells, m, counts = _oracle_counts(f, mask)
    with localcontext() as ctx:
        ctx.prec = 50

        def xlogx(x):
            return x * x.ln() if x > 0 else Decimal(0)

        def h(p):
            return -xlogx(p) - xlogx(1 - p)

        p = Decimal(sum(counts)) / n_cells
        weight = Decimal(1) / len(counts)
        shares = Counter(Decimal(k) / m for k in counts)
        h_given = sum(weight * c * h(s) for s, c in shares.items())
        ent_marginal = sum(weight * c * xlogx(s) for s, c in shares.items()) - xlogx(p)
        return {"i_clue": (h(p) - h_given) / h(p), "kl_clue": ent_marginal / -xlogx(p)}


def _check(f: FunctionTable, mask: int):
    full = (1 << f.n) - 1
    split = _split_of(f, mask)
    assert isinstance(split, _CountSplit)
    out = cli._metric_values(f, mask, ALL_METRICS)
    exact, dual = _exact(f, mask), _exact(f, full ^ mask)
    assert out["l2_clue"] == float(exact["clue"])
    assert out["sig"] == 1.0 - float(dual["clue"])
    assert out["tv_clue"] == float(exact["tv"])
    assert out["witness"] == float(exact["witness"])
    assert out["influence_set"] == 1.0 - float(dual["witness"])
    close, close_dual = _decimal(f, mask), _decimal(f, full ^ mask)
    assert abs(Decimal(out["i_clue"]) - close["i_clue"]) <= 4 * EPS
    assert abs(Decimal(out["sig_i"]) - (1 - close_dual["i_clue"])) <= 4 * EPS
    assert abs(Decimal(out["kl_clue"]) - close["kl_clue"]) <= 4 * EPS
    return out


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_the_count_route_matches_exact_oracles(name, make):
    """Correctly rounded L2, sig, TV, witness and influence, and I, sig_i
    and KL within a few ulps, on seeded masks with the empty and full mask;
    the float split returns the same L2, sig, TV, witness and influence
    bit for bit."""
    f = make()
    for mask in _masks(f.n, len(name)):
        out = _check(f, mask)
        split = _Split(f, mask)
        assert (clue(f, split), sig(f, split), tv_clue(f, split), witness(f, split),
                influence_set(f, split)) == (out["l2_clue"], out["sig"], out["tv_clue"],
                                             out["witness"], out["influence_set"])


def test_counts_widen_past_uint16():
    """n = 18 on a one-coordinate mask: fibers of m = 2^17 cells, whose
    counts need uint32."""
    f = _sparse_table(18, 7)
    split = _split_of(f, 1 << 5)
    assert split.counts().dtype == np.uint32
    for mask in (1 << 5, ((1 << 18) - 1) ^ (1 << 5)):
        _check(f, mask)


def test_fiber_counts_are_the_row_sums_of_the_fibers_matrix():
    rng = np.random.default_rng(3)
    for n in (1, 4, 9, 12):
        flags = rng.random(1 << n) < 0.3
        space = uniform_space(n)
        for mask in {0, (1 << n) - 1, *rng.integers(0, 1 << n, size=6).tolist()}:
            counts = fiber_counts(flags, space, mask)
            assert counts.dtype.kind == "u"
            np.testing.assert_array_equal(counts, fibers(flags.astype(np.int64), space, mask).sum(axis=1))


def test_only_two_level_tables_on_uniform_bits_are_split_by_counts():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, 1 << 4).astype(float)
    biased = ProductSpace(4, 2, np.tile([0.3, 0.7], (4, 1)))
    assert isinstance(_split_of(FunctionTable(uniform_space(4), bits), 3), _CountSplit)
    assert isinstance(_split_of(FunctionTable(uniform_space(4), 2.0 * bits - 1.0), 3), _CountSplit)
    assert isinstance(_split_of(FunctionTable(uniform_space(4), bits + 1.0), 3), _Split)  # levels 1, 2
    assert isinstance(_split_of(FunctionTable(uniform_space(4), 3.0 * bits), 3), _Split)  # not Boolean
    assert isinstance(_split_of(FunctionTable(biased, bits), 3), _Split)
    assert isinstance(_split_of(FunctionTable(uniform_space(2, 3), bits[:9]), 3), _Split)
