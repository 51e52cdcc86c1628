"""Cooperative-game view of subset information: characteristic functions
from projected variance or mutual information, exact Shapley values,
supermodularity and core checks, and the transitive upper bound they imply.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .core import FunctionTable, fibers, uniform_space
from .errors import GuardError
from .infotheory import mutual_information_all_subsets
from .spectral import projected_variances
from .symmetry import is_invariant, is_transitive
from .transforms import popcounts, subset_zeta

SUPERMODULAR_GATE = 10
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
    v = mutual_information_all_subsets(f)
    v[0] = 0.0
    return CooperativeGame(f.n, v)


def shapley(game: CooperativeGame) -> np.ndarray:
    """Exact average-marginal-contribution allocation, one entry per player,
    O(n 2^n)."""
    n = game.n
    v = game.v
    pc = popcounts(n)
    inv_choose = np.array([1.0 / comb(n - 1, s) for s in range(n)])
    masks = np.arange(1 << n)
    phi = np.empty(n)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        gains = v[without | (1 << i)] - v[without]
        phi[i] = float(np.sum(gains * inv_choose[pc[without]])) / n
    return phi


def is_supermodular(game: CooperativeGame) -> tuple[bool, tuple[int, int] | None]:
    """Exhaustive pair check of v(S)+v(T) <= v(S|T)+v(S&T); returns the first
    violating pair as a witness."""
    if game.n > SUPERMODULAR_GATE:
        raise GuardError("supermodularity check gated at n <= 10")
    v = game.v
    masks = np.arange(1 << game.n)
    for s in range(1 << game.n):
        gap = v[s | masks] + v[s & masks] - v[s] - v[masks]
        bad = np.nonzero(gap < -GAME_TOL)[0]
        if bad.size:
            return False, (s, int(bad[0]))
    return True, None


def shapley_in_core(game: CooperativeGame) -> bool:
    """Every coalition receives at least its characteristic value under the
    Shapley allocation (efficiency holds by construction)."""
    singletons = np.zeros(1 << game.n)
    singletons[1 << np.arange(game.n)] = shapley(game)
    return bool(np.all(subset_zeta(singletons) >= game.v - GAME_TOL))


def restrict_game(game: CooperativeGame, mask: int) -> CooperativeGame:
    """Subgame on the players in ``mask`` (domain restricted to its subsets,
    players re-indexed in increasing coordinate order)."""
    return CooperativeGame(mask.bit_count(), fibers(game.v, uniform_space(game.n), mask)[:, 0])


@dataclass(frozen=True)
class TransitiveBoundReport:
    bound_holds: bool
    max_violation: float


def transitive_game_bound(game: CooperativeGame, action) -> TransitiveBoundReport:
    """Check v(S) <= (|S|/n) v(V) for a game invariant under a transitive
    action whose Shapley vector sits in the core.  Invariance reads the game
    as a table over n uniform bits, coalition S at configuration S."""
    table = FunctionTable(uniform_space(game.n), game.v)
    if not (is_invariant(table, action) and is_transitive(action) and shapley_in_core(game)):
        raise ValueError("hypotheses not met: need an invariant transitive game with Shapley in core")
    pc = popcounts(game.n)
    bound = pc / game.n * game.grand_value
    gaps = game.v - bound
    return TransitiveBoundReport(
        bound_holds=bool(np.all(gaps <= GAME_TOL)),
        max_violation=float(gaps.max()),
    )
