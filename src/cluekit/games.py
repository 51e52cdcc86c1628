"""Cooperative-game view of subset information: characteristic functions
from projected variance or mutual information, exact Shapley values,
supermodularity and core checks, and the transitive upper bound they imply.

Games are dense 2^n vectors indexed by coalition bitmask, and every check runs
at the size of the game.  Shapley values are the Harsanyi dividends (the
subset Moebius transform of v) split equally among each coalition's members
(Harsanyi 1963), the same share route the spectral marginals take.
Supermodularity is read off the squares of the Boolean lattice, the second
differences v(S+i+j) - v(S+i) - v(S+j) + v(S) (Topkis 1978), not off all
4^n pairs of coalitions.  Both are computed once per game.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FunctionTable, per_object, uniform_space
from .infotheory import mutual_information_all_subsets
from .spectral import projected_variances
from .symmetry import is_invariant, is_transitive
from .transforms import dividend_shares, popcounts, subset_mobius, subset_zeta

GAME_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CooperativeGame:
    """Dense characteristic function over all coalitions of [n]; v(empty)=0."""

    n: int
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.v, dtype=float)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"need 2^{self.n} coalition values")
        if vals[0] != 0.0:
            raise ValueError("v(empty set) must be exactly 0")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "v", vals)
        object.__setattr__(self, "_cache", {})

    @property
    def grand_value(self) -> float:
        return float(self.v[-1])


def build_clue_game(f: FunctionTable) -> CooperativeGame:
    """v(S) = Var(E[f | S]) (see :func:`~cluekit.spectral.projected_variances`)."""
    return CooperativeGame(f.n, projected_variances(f))


def build_iclue_game(f: FunctionTable) -> CooperativeGame:
    """v(S) = I(Z : X_S) with Z the grouped value of f, every coalition at
    once from the keep-or-sum-out lattice (see
    :func:`~cluekit.infotheory.mutual_information_all_subsets`)."""
    return CooperativeGame(f.n, mutual_information_all_subsets(f))


@per_object
def shapley(game: CooperativeGame) -> np.ndarray:
    """Exact average-marginal-contribution allocation, one entry per player:
    the Harsanyi dividends split equally among each coalition's members,
    O(n 2^n)."""
    return dividend_shares(subset_mobius(game.v))


@per_object
def is_supermodular(game: CooperativeGame) -> tuple[bool, tuple[int, int] | None]:
    """Check v(S)+v(T) <= v(S|T)+v(S&T) on the squares of the lattice: every
    v(S+i+j) - v(S+i) - v(S+j) + v(S) must be at least -GAME_TOL,
    n(n-1)/2 second differences of the game, O(n^2 2^n).  Returns the first
    failing square as the witness pair (S+i, S+j), whose pair gap is that
    square.

    With tolerance 0 the square and pair checks agree: the gap of a pair
    (S, T) is the sum of |S-T| |T-S| squares.  With GAME_TOL they differ
    only on a game whose squares all lie in (-GAME_TOL, 0) while some pair
    gap, a sum of several of them, falls below -GAME_TOL: this check passes
    it."""
    n = game.n
    # axis n-1-i of the C-order tensor is player i
    t = game.v.reshape((2,) * n)
    for i in range(n):
        gain = np.diff(t, axis=n - 1 - i)
        for j in range(i + 1, n):
            square = np.diff(gain, axis=n - 1 - j)
            if square.min() < -GAME_TOL:
                digits = np.unravel_index(np.argmax(square < -GAME_TOL), square.shape)
                s = sum(int(d) << (n - 1 - axis) for axis, d in enumerate(digits))
                return False, (s | 1 << i, s | 1 << j)
    return True, None


def shapley_in_core(game: CooperativeGame) -> bool:
    """Every coalition receives at least its characteristic value under the
    Shapley allocation (efficiency holds by construction)."""
    singletons = np.zeros(1 << game.n)
    singletons[1 << np.arange(game.n)] = shapley(game)
    return bool(np.all(subset_zeta(singletons) >= game.v - GAME_TOL))


@dataclass(frozen=True)
class TransitiveBoundReport:
    bound_holds: bool
    max_violation: float


def transitive_game_bound(game: CooperativeGame, action) -> TransitiveBoundReport:
    """Check v(S) <= (|S|/n) v(V) for a supermodular game invariant under a
    transitive action.  The chain: a supermodular game has its Shapley value
    in the core (Shapley 1971), an invariant game under a transitive action
    gives every player the same Shapley value v(V)/n, so the core inequality
    v(S) <= sum_{i in S} phi_i is the bound.  Invariance reads the game as a
    table over n uniform bits, coalition S at configuration S."""
    table = FunctionTable(uniform_space(game.n), game.v)
    if not (is_invariant(table, action) and is_transitive(action) and is_supermodular(game)[0]):
        raise ValueError("hypotheses not met: need a supermodular game invariant under a transitive action")
    pc = popcounts(game.n)
    bound = pc / game.n * game.grand_value
    gaps = game.v - bound
    return TransitiveBoundReport(
        bound_holds=bool(np.all(gaps <= GAME_TOL)),
        max_violation=float(gaps.max()),
    )
