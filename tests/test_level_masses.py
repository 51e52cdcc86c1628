"""Ent(f) and E|f - E f| of a two-level table from its level masses, against
a 50-digit ``decimal`` oracle on the measure its float rows define.

The oracle forms each configuration's weight as the exact product of its
atoms, read as the decimals the float rows hold, and sums the quantity as
its route states it: Ent(f) = sum_c w_c gap(f_c, E f), with
gap(v, m) = v ln(v / m) - v + m and E f = sum_c w_c f_c, and
E|f - m| = sum_c w_c |f_c - m| with m = E f / sum_c w_c.  Each case family
also keeps the sweep over every configuration, which the level masses
replaced, as the reference the level route must not fall behind.
"""
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cluekit.clue import _mean_absolute_deviation, _weighted_deviation
from cluekit.core import FunctionTable, ProductSpace, _contract, expectation
from cluekit.infotheory import _entropy_gaps, _measured, ent_functional

EPS = np.finfo(float).eps
SEEDS = range(12)


def _space(kind: str, rng) -> ProductSpace:
    """n <= 5, q in {2, 3}.  ``small:<p>`` gives atom 1 of coordinate 0 the
    weight p; ``dirichlet-0.2`` draws sparse rows; ``zero-atom`` zeroes an
    atom of coordinate 0; ``tight`` scales every row to 1 - 9e-13."""
    n, q = int(rng.integers(2, 6)), int(rng.choice([2, 3]))
    pi = rng.dirichlet(np.full(q, 0.2 if kind == "dirichlet-0.2" else 1.0), size=n)
    if kind.startswith("small:"):
        p = float(kind.split(":")[1])
        pi[0] = np.r_[1.0 - p, p, np.zeros(q - 2)]
    elif kind == "zero-atom":
        pi[0] = np.r_[0.0, rng.dirichlet(np.ones(q - 1))]
    elif kind == "tight":
        pi *= 1.0 - 9e-13
    return ProductSpace(n, q, pi)


def _bits(space: ProductSpace, kind: str, rng) -> np.ndarray:
    """0/1 values.  On a ``small:<p>`` space the upper level sits on cells
    with coordinate 0 at its small atom, so its mass is about p (or 1 - p
    when ``flip`` ends the kind)."""
    if not kind.startswith("small:"):
        return rng.integers(0, 2, space.size).astype(float)
    rare = space.digits()[:, 0] == 1
    upper = rare & (rng.random(space.size) < 0.7)
    upper[np.flatnonzero(rare)[0]] = True
    return (~upper if kind.endswith(":flip") else upper).astype(float)


def _oracle(f: FunctionTable) -> dict:
    """The level masses, Ent(f) (for f >= 0) and E|f - m|, to 50 digits."""
    space = f.space
    with localcontext() as ctx:
        ctx.prec = 50
        pi = [[Decimal(float(x)) for x in row] for row in space.pi]
        digits = space.digits()
        weights = []
        for c in range(space.size):
            w = Decimal(1)
            for v in range(space.n):
                w *= pi[v][int(digits[c, v])]
            weights.append(w)
        values = [Decimal(float(x)) for x in f.values]
        lo = min(values)
        total = sum(weights)
        mean = sum(w * x for w, x in zip(weights, values))
        out = {
            "masses": (sum(w for w, x in zip(weights, values) if x == lo),
                       sum(w for w, x in zip(weights, values) if x != lo)),
            "mad": sum(w * abs(x - mean / total) for w, x in zip(weights, values)),
        }
        if lo >= 0:
            out["ent"] = sum(w * ((x * (x / mean).ln() if x > 0 else 0) - x + mean)
                             for w, x in zip(weights, values))
        return out


def _error(value: float, exact: Decimal) -> float:
    return float(abs(Decimal(value) - exact) / exact)


def _sweep_ent(f: FunctionTable) -> float:
    return float(_contract(_entropy_gaps(f.values, expectation(f)), f.space.config_weights(),
                           f.space.q))


def _sweep_mad(f: FunctionTable) -> float:
    return float(np.abs(_weighted_deviation(f)).sum())


KINDS = ["small:1e-3", "small:1e-3:flip", "small:1e-9", "small:1e-9:flip", "dirichlet-0.2",
         "zero-atom", "tight"]


@pytest.mark.parametrize("kind", KINDS)
def test_two_level_forms_match_a_decimal_oracle(kind):
    """Per table, the level route is within a few ulps over its masses' own
    error, as its docstring states.  Over the family, its worst error is no
    larger than the sweep's, up to 2 ulps: both sum the same rounded
    weights, so at these sizes they differ by the rounding of their last
    few operations."""
    worst = {"ent": [0.0, 0.0], "mad": [0.0, 0.0]}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        space = _space(kind, rng)
        bits = _bits(space, kind, rng)
        support = space.config_weights() > 0.0
        if bits[support].min() == bits[support].max():
            continue
        for values in (bits, 2.0 * bits - 1.0):
            f = FunctionTable(space, values)
            exact = _oracle(f)
            masses = f._level_masses()
            assert masses is not None
            mass_error = max(_error(m, e) for m, e in zip(masses, exact["masses"]))
            routes = {"mad": (_mean_absolute_deviation(f), _sweep_mad(f))}
            if "ent" in exact:
                routes["ent"] = (ent_functional(f), _sweep_ent(f))
            for name, (level, sweep) in routes.items():
                level_error, sweep_error = _error(level, exact[name]), _error(sweep, exact[name])
                assert level_error <= 4 * EPS + 2 * mass_error, (name, seed)
                worst[name][0] = max(worst[name][0], level_error)
                worst[name][1] = max(worst[name][1], sweep_error)
    for name, (level, sweep) in worst.items():
        assert level <= sweep + 2 * EPS, name


def test_a_spin_table_lends_its_indicator_its_level_masses():
    """The {0, 1} indicator of a {-1, 1} table has the same level flags and
    so the same masses, and the Ent that the KL clue reads off the spin
    table's masses is the indicator's, within a few ulps of the oracle."""
    rng = np.random.default_rng(7)
    space = _space("small:1e-9", rng)
    f = FunctionTable(space, 2.0 * _bits(space, "small:1e-9", rng) - 1.0)
    g = FunctionTable(space, (f.values + 1.0) / 2.0)
    assert g._level_masses() == f._level_masses()
    assert _measured(f)[1] == ent_functional(g)
    assert _error(ent_functional(g), _oracle(g)["ent"]) <= 4 * EPS
