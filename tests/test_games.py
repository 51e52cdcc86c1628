from math import comb

import numpy as np
import pytest

from cluekit import infotheory
from cluekit.core import FunctionTable, ProductSpace, fibers, popcounts, uniform_space
from cluekit.games import (
    GAME_TOL,
    CooperativeGame,
    build_clue_game,
    build_iclue_game,
    is_supermodular,
    shapley,
    shapley_in_core,
    transitive_game_bound,
)
from cluekit.spectral import spectral_distribution
from cluekit.suites import _subgame_shapley_gain, _variance
from cluekit.symmetry import is_invariant
from cluekit.transforms import dividend_shares, subset_zeta
from cluekit.zoo import from_spec


def sqrt_game(n=3):
    return CooperativeGame(n, np.sqrt(popcounts(n).astype(float)))


def loop_shapley(game):
    """Oracle: each player's marginal contributions weighted by
    1 / (n C(n-1, |S|)), one player at a time."""
    n, v = game.n, game.v
    pc = popcounts(n)
    inv_choose = np.array([1.0 / comb(n - 1, s) for s in range(n)])
    masks = np.arange(1 << n)
    phi = np.empty(n)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        gains = v[without | (1 << i)] - v[without]
        phi[i] = float(np.sum(gains * inv_choose[pc[without]])) / n
    return phi


def pair_gap(v, s, t):
    """v(S|T) + v(S&T) - v(S) - v(T): negative on a violating pair."""
    return v[s | t] + v[s & t] - v[s] - v[t]


def pair_supermodular(game):
    """Oracle: the pair definition on all 4^n pairs of coalitions."""
    v = game.v
    masks = np.arange(1 << game.n)
    return all(np.all(pair_gap(v, s, masks) >= -GAME_TOL) for s in range(1 << game.n))


def oracle_games():
    """Clue and information games of random Boolean and q = 3 spaces, and
    random games near the supermodular boundary (nonnegative dividends plus
    noise), n 2 to 8, with one clue game at n = 10."""
    rng = np.random.default_rng(2101)
    for _ in range(40):
        n, q = int(rng.integers(2, 9)), int(rng.choice([2, 3]))
        sp = ProductSpace(n, q, rng.dirichlet(np.ones(q), size=n))
        yield build_clue_game(FunctionTable(sp, rng.standard_normal(sp.size)))
        yield build_iclue_game(FunctionTable(sp, rng.integers(0, q, sp.size).astype(float)))
        dividends = rng.random(1 << n) * (rng.random(1 << n) < 0.5)
        dividends[0] = 0.0
        v = subset_zeta(dividends) + rng.choice([0.0, 1e-3, 1e-1]) * rng.standard_normal(1 << n)
        v[0] = 0.0
        yield CooperativeGame(n, v)
    yield build_clue_game(FunctionTable(uniform_space(10), rng.standard_normal(1 << 10)))


def test_game_requires_zero_at_empty():
    with pytest.raises(ValueError):
        CooperativeGame(2, np.array([0.1, 0.2, 0.3, 0.4]))


def test_build_clue_game_examples():
    g = build_clue_game(from_spec("sum:4").table)
    np.testing.assert_allclose(g.v, popcounts(4).astype(float), atol=1e-10)
    d = build_clue_game(from_spec("dictator:3,0").table)
    np.testing.assert_allclose(d.v, [(m & 1) * 1.0 for m in range(8)], atol=1e-12)
    maj = build_clue_game(from_spec("maj:3").table)
    assert maj.v[0b001] == pytest.approx(0.25, abs=1e-12)
    assert maj.v[0b011] == pytest.approx(0.5, abs=1e-12)
    assert maj.v[0b111] == pytest.approx(1.0, abs=1e-12)


def test_shapley_examples():
    np.testing.assert_allclose(shapley(build_clue_game(from_spec("sum:4").table)), 1.0, atol=1e-10)
    np.testing.assert_allclose(
        shapley(build_clue_game(from_spec("dictator:3,0").table)), [1.0, 0.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        shapley(build_clue_game(from_spec("maj:3").table)), 1 / 3, atol=1e-12
    )


def test_shapley_efficiency():
    rng = np.random.default_rng(0)
    for _ in range(10):
        game = CooperativeGame(5, np.concatenate([[0.0], rng.standard_normal(31)]))
        assert shapley(game).sum() == pytest.approx(game.grand_value, abs=1e-10)


def test_shapley_matches_spectral_marginal():
    rng = np.random.default_rng(1)
    sp = ProductSpace(6, 3, rng.dirichlet(np.ones(3), size=6))
    f = FunctionTable(sp, rng.standard_normal(sp.size))
    phi = shapley(build_clue_game(f))
    marg = dividend_shares(spectral_distribution(f))
    np.testing.assert_allclose(phi / _variance(f), marg, rtol=1e-12, atol=0)


def test_dividends_and_squares_match_the_oracles():
    verdicts = set()
    for game in oracle_games():
        np.testing.assert_allclose(shapley(game), loop_shapley(game), rtol=0, atol=1e-12)
        ok, witness_pair = is_supermodular(game)
        assert ok == pair_supermodular(game)
        verdicts.add(ok)
        if not ok:
            s, t = witness_pair
            assert (s & ~t).bit_count() == 1 and (t & ~s).bit_count() == 1
            assert pair_gap(game.v, s, t) < -GAME_TOL
    assert verdicts == {True, False}


def test_non_supermodular_game_past_the_pair_oracle():
    """n = 12: the square check runs where the pair check was gated, and its
    witness violates the pair definition."""
    rng = np.random.default_rng(12)
    dividends = rng.random(1 << 12)
    dividends[0] = 0.0
    v = subset_zeta(dividends)
    assert is_supermodular(CooperativeGame(12, v)) == (True, None)
    v[0b101101011011] -= 1e3
    ok, (s, t) = is_supermodular(CooperativeGame(12, v))
    assert not ok
    assert pair_gap(v, s, t) < -GAME_TOL


def test_supermodularity_examples():
    assert is_supermodular(build_clue_game(from_spec("maj:3").table))[0]
    additive = CooperativeGame(4, popcounts(4).astype(float))
    assert is_supermodular(additive)[0]
    ok, witness_pair = is_supermodular(sqrt_game())
    assert not ok
    s, t = witness_pair
    v = sqrt_game().v
    assert v[s] + v[t] > v[s | t] + v[s & t] + 1e-10


def test_clue_games_supermodular_on_random_measures():
    rng = np.random.default_rng(2)
    for _ in range(8):
        q = int(rng.choice([2, 3]))
        sp = ProductSpace(5, q, rng.dirichlet(np.ones(q), size=5))
        f = FunctionTable(sp, rng.standard_normal(sp.size))
        assert is_supermodular(build_clue_game(f))[0]
        fb = FunctionTable(sp, (rng.random(sp.size) < 0.5).astype(float))
        assert is_supermodular(build_iclue_game(fb))[0]


def test_information_game_never_calls_the_per_mask_route(monkeypatch):
    """The game reads every coalition off the lattice; the per-mask route,
    evaluated before it is patched out, is the reference."""
    rng = np.random.default_rng(12)
    sp = ProductSpace(6, 3, rng.dirichlet(np.ones(3) * 3.0, size=6))
    f = FunctionTable(sp, rng.integers(0, 3, sp.size).astype(float))
    expected = np.array([infotheory.mutual_information(f, mask) for mask in range(1 << 6)])
    expected[0] = 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("per-mask route called")

    monkeypatch.setattr(infotheory, "mutual_information", refuse)
    monkeypatch.setattr(infotheory, "joint_with_subset", refuse)
    np.testing.assert_allclose(build_iclue_game(f).v, expected, rtol=0, atol=1e-13)


def test_shapley_in_core_examples():
    assert shapley_in_core(build_clue_game(from_spec("sum:4").table))
    assert shapley_in_core(build_clue_game(from_spec("maj:3").table))
    assert not shapley_in_core(sqrt_game())


def test_shapley_in_core_random_supermodular_games():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        f = FunctionTable(uniform_space(n), rng.standard_normal(1 << n))
        game = build_clue_game(f)
        assert is_supermodular(game)[0]
        assert shapley_in_core(game)


def test_subgame_shapley_monotone_examples():
    additive = CooperativeGame(4, popcounts(4).astype(float))
    assert _subgame_shapley_gain(additive, 0b0011, 0b1111) >= -GAME_TOL
    maj_game = build_clue_game(from_spec("maj:3").table)
    assert _subgame_shapley_gain(maj_game, 0b011, 0b111) >= -GAME_TOL
    sub = CooperativeGame(2, fibers(maj_game.v, uniform_space(3), 0b011)[:, 0])
    np.testing.assert_allclose(shapley(sub), [0.25, 0.25], atol=1e-12)
    with pytest.raises(ValueError):
        _subgame_shapley_gain(sqrt_game(), 0b001, 0b111)
    with pytest.raises(ValueError):
        _subgame_shapley_gain(additive, 0b1000, 0b0111)


def test_subgame_monotonicity_random_supermodular():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 6))
        f = FunctionTable(uniform_space(n), rng.standard_normal(1 << n))
        game = build_clue_game(f)
        small = int(rng.integers(1, 1 << n))
        large = small | int(rng.integers(0, 1 << n))
        assert _subgame_shapley_gain(game, small, large) >= -GAME_TOL


def test_transitive_game_bound_examples():
    s = from_spec("sum:6")
    report = transitive_game_bound(build_clue_game(s.table), s.action)
    assert report.bound_holds
    assert report.max_violation == pytest.approx(0.0, abs=1e-10)  # tight

    p = from_spec("parity:5")
    game = build_clue_game(p.table)
    assert np.max(game.v[:-1]) == pytest.approx(0.0, abs=1e-12)
    assert transitive_game_bound(game, p.action).bound_holds

    m = from_spec("maj:3")
    assert transitive_game_bound(build_clue_game(m.table), m.action).bound_holds

    t = from_spec("tribes:2,3")
    assert transitive_game_bound(build_clue_game(t.table), t.action).bound_holds


def test_transitive_game_bound_rejects_bad_hypotheses():
    d = from_spec("dictator:3,0")
    game = build_clue_game(d.table)
    from cluekit.symmetry import cyclic_group

    with pytest.raises(ValueError):
        transitive_game_bound(game, cyclic_group(3))


def test_transitive_game_bound_refuses_a_symmetric_game_that_is_not_supermodular():
    # Shapley gives each player 1/3, in the core, and every v(S) <= |S|/3:
    # a Shapley-in-core hypothesis would accept it, and the report could
    # never read False; its first square is .3 - .2 - .2 + 0 < 0
    from cluekit.symmetry import cyclic_group

    game = CooperativeGame(3, [0, 0.2, 0.2, 0.3, 0.2, 0.3, 0.3, 1.0])
    assert is_invariant(FunctionTable(uniform_space(3), game.v), cyclic_group(3))
    assert shapley_in_core(game)
    assert is_supermodular(game) == (False, (1, 2))
    with pytest.raises(ValueError, match="supermodular"):
        transitive_game_bound(game, cyclic_group(3))


def test_game_invariance_check():
    m = from_spec("maj:3")
    game = build_clue_game(m.table)
    assert is_invariant(FunctionTable(uniform_space(3), game.v), m.action)
