"""Named verification suites: each one checks a family of identities or
inequalities at its stated tolerance and returns its details and violations;
:func:`run_suite` times it into a serializable report.

The CLI ``verify`` command runs these one at a time; the acceptance test
module runs all of them.  Random inputs are drawn from fixed, documented
seed streams so every run checks the same instances.  The checks and
oracles that only the suites need (moments of pairs, Shearer-type cover
deficits, pivotal sets, the composite family's calibration) are private
helpers here, and no module but the CLI imports this one, so none of them
becomes a route.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from . import games, infotheory, perco, spectral, symmetry, zoo
from .clue import (
    _split_of,
    clue,
    clue_all_subsets_table,
    clue_spectral,
    expected_clue,
    influence_set,
    p_min,
    tv_clue,
    tv_clue_all_subsets,
    witness,
)
from .core import (
    FunctionTable,
    ProductSpace,
    _contract,
    conditional_expectation,
    conditional_marginal,
    expectation,
    fibers,
    full_mask,
    mask_indices,
    uniform_space,
    validate_mask,
    variance_and_spread,
)
from .montecarlo import generator_for, mc_clue
from .transforms import containing_sums, dividend_shares, popcounts, subset_mobius

SUITE_SEED = 20240917  # fixed stream root: suites check pinned instances
# Suites that read every subset off the keep-or-sum-out lattice compare it
# with the per-mask routes on ORACLE_MASKS seeded masks per function, drawn
# from stream ORACLE_STREAM + suite number so the suites' own draws stay put.
ORACLE_STREAM = 100
ORACLE_MASKS = 8
LATTICE_TOL = 1e-12
# Checks that joined a suite after its draws were pinned take streams of their
# own, PAIR_STREAM or CHAIN_STREAM + suite number, for the same reason.
PAIR_STREAM = 200
CHAIN_STREAM = 300
PROJECTION_TOL = 1e-9  # rounding allowance of the projection transfer bounds


@dataclass
class SuiteReport:
    suite: str
    details: dict
    violations: list
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "pass": self.passed,
            "details": self.details,
            "violations": self.violations,
            "seconds": round(self.seconds, 3),
        }


def _random_boolean(sp: ProductSpace, rng, min_p: float = 0.0) -> FunctionTable:
    while True:
        vals = (rng.random(sp.size) < rng.uniform(0.15, 0.85)).astype(float)
        mean = vals.mean()
        if min(mean, 1.0 - mean) >= max(min_p, 1.0 / sp.size):
            return FunctionTable(sp, vals)


def _random_space(n: int, rng) -> ProductSpace:
    q = int(rng.choice([2, 3]))
    pi = rng.dirichlet(np.ones(q) * 3.0, size=n)
    return ProductSpace(n, q, pi)


def _oracle_masks(rng, n: int) -> list[int]:
    return rng.choice(1 << n, size=ORACLE_MASKS, replace=False).tolist()


def _variance(f: FunctionTable) -> float:
    return variance_and_spread(f)[0]


def _covariance(f: FunctionTable, g: FunctionTable) -> float:
    if f.space is not g.space and f.space != g.space:
        raise ValueError("tables live on different spaces")
    product = (f.values - expectation(f)) * (g.values - expectation(g))
    return float(_contract(product, f.space.config_weights(), f.space.q))


def _correlation(f: FunctionTable, g: FunctionTable) -> float:
    vf, vg = _variance(f), _variance(g)
    if vf <= 0.0 or vg <= 0.0:
        raise ValueError("correlation undefined for a constant table")
    return _covariance(f, g) / np.sqrt(vf * vg)


def _l2_norm_sq(f: FunctionTable) -> float:
    return float(_contract(f.values**2, f.space.config_weights(), f.space.q))


def _direct_clue_all(f: FunctionTable) -> np.ndarray:
    """clue by raw fiber variance for every subset (no spectral shortcut)."""
    var = _variance(f)
    out = np.empty(1 << f.n)
    for mask in range(1 << f.n):
        vals, w = conditional_marginal(f, mask)
        dev = vals - float(w @ vals)
        out[mask] = float(w @ (dev * dev)) / var
    return out


# ---------------------------------------------------------------------------
# 1. transitive clue bound
# ---------------------------------------------------------------------------
def transitive_bound_suite() -> tuple[dict, list]:
    entries = [
        zoo.from_spec("sum:12"),
        zoo.from_spec("parity:12"),
        zoo.from_spec("maj:11"),
        zoo.from_spec("tribes:2,4"),
        zoo.from_spec("tribes:3,4"),
    ]
    violations = []
    worst_slack = -np.inf
    for entry in entries:
        f = entry.table
        if not symmetry.is_transitive(entry.action):
            violations.append({"fn": entry.name, "problem": "action not transitive"})
        if not symmetry.is_invariant(f, entry.action):
            violations.append({"fn": entry.name, "problem": "not invariant"})
        cl = clue_all_subsets_table(f)
        slack = cl - popcounts(f.n) / f.n
        worst_slack = max(worst_slack, float(slack.max()))
        if slack.max() > 1e-10:
            mask = int(np.argmax(slack))
            violations.append({"fn": entry.name, "mask": mask, "excess": float(slack.max())})
    sharp = clue_all_subsets_table(zoo.from_spec("sum:12").table)
    sharp_err = float(np.max(np.abs(sharp - popcounts(12) / 12)))
    if sharp_err > 1e-10:
        violations.append({"fn": "sum:12", "problem": "sharpness", "err": sharp_err})
    return {"functions": [e.name for e in entries], "worst_slack": worst_slack,
            "sum_sharpness_err": sharp_err}, violations


# ---------------------------------------------------------------------------
# 2. spectral identity: clue == clue_spectral
# ---------------------------------------------------------------------------
def spectral_identity_suite() -> tuple[dict, list]:
    n_uniform, n_general = 100, 20
    rng = generator_for(SUITE_SEED, 2)
    violations = []
    worst = 0.0
    sp8 = uniform_space(8)
    for trial in range(n_uniform):
        f = FunctionTable(sp8, rng.standard_normal(sp8.size))
        direct = _direct_clue_all(f)
        via_weights = clue_all_subsets_table(f)
        err = float(np.max(np.abs(direct - via_weights)))
        worst = max(worst, err)
        if err > 1e-10:
            violations.append({"trial": trial, "route": "walsh", "err": err})
    for trial in range(n_general):
        sp = _random_space(6, rng)
        f = FunctionTable(sp, rng.standard_normal(sp.size))
        direct = _direct_clue_all(f)
        dist = spectral.spectral_distribution(f)
        per_mask = np.array([clue_spectral(dist, mask) for mask in range(1 << 6)])
        err = float(np.max(np.abs(direct - per_mask)))
        worst = max(worst, err)
        if err > 1e-10:
            violations.append({"trial": trial, "route": "efron-stein", "err": err})
    return {"uniform_trials": n_uniform, "general_trials": n_general, "worst_err": worst}, violations


# ---------------------------------------------------------------------------
# 3. orthogonal decomposition
# ---------------------------------------------------------------------------
def efron_stein_suite() -> tuple[dict, list]:
    rng = generator_for(SUITE_SEED, 3)
    violations = []
    stats = {"min_mass": np.inf, "worst_sum_err": 0.0, "worst_orth": 0.0, "worst_walsh_err": 0.0,
             "worst_fiber_err": 0.0}
    for trial in range(20):
        sp = _random_space(6, rng)
        f = FunctionTable(sp, rng.standard_normal(sp.size))
        norms = spectral.efron_stein(f)
        tables = spectral.efron_stein_components(f)
        # independent oracle: Moebius inversion of the fiber projected variances
        fiber = subset_mobius(_direct_clue_all(f) * _variance(f))
        fiber_err = float(np.max(np.abs(norms[1:] - fiber[1:])))
        stats["worst_fiber_err"] = max(stats["worst_fiber_err"], fiber_err)
        if fiber_err > 1e-10:
            violations.append({"trial": trial, "fiber_err": fiber_err})
        stats["min_mass"] = min(stats["min_mass"], float(norms.min()))
        sum_err = abs(float(norms.sum()) - _l2_norm_sq(f))
        stats["worst_sum_err"] = max(stats["worst_sum_err"], sum_err)
        if norms.min() < -1e-12 or sum_err > 1e-9:
            violations.append({"trial": trial, "min_mass": float(norms.min()), "sum_err": sum_err})
        w = sp.config_weights()
        gram = (tables * w) @ tables.T
        np.fill_diagonal(gram, 0.0)
        orth = float(np.max(np.abs(gram)))
        stats["worst_orth"] = max(stats["worst_orth"], orth)
        if orth > 1e-9:
            violations.append({"trial": trial, "orthogonality": orth})
        recon = float(np.max(np.abs(tables.sum(axis=0) - f.values)))
        if recon > 1e-10:
            violations.append({"trial": trial, "reconstruction": recon})
    sp8 = uniform_space(8)
    # independent oracle: characters[x, S] = prod_{v in S} spin_v(x), digit 0 as spin -1
    in_mask = (np.arange(sp8.size)[:, None] >> np.arange(8)) & 1 == 1
    spins = sp8.digits().astype(np.int8) * 2 - 1
    characters = np.where(in_mask, spins[:, None, :], 1).prod(axis=2)
    for trial in range(5):
        f = FunctionTable(sp8, rng.standard_normal(sp8.size))
        coeffs = spectral.walsh_hadamard(f)
        err = float(np.max(np.abs(coeffs - f.values @ characters / sp8.size)))
        stats["worst_walsh_err"] = max(stats["worst_walsh_err"], err)
        if err > 1e-10:
            violations.append({"trial": trial, "walsh_err": err})
    return stats, violations


# ---------------------------------------------------------------------------
# 4. games
# ---------------------------------------------------------------------------
def _subgame_shapley_gain(game: games.CooperativeGame, small: int, large: int) -> float:
    """Least rise of a player's Shapley value when the player pool grows from
    ``small`` to ``large``.  Supermodularity makes it nonnegative, so a game
    that is not supermodular is refused."""
    if small & ~large:
        raise ValueError("first mask must be a subset of the second")
    ok, witness_pair = games.is_supermodular(game)
    if not ok:
        raise ValueError(f"game is not supermodular (witness pair {witness_pair})")
    # the subgame on a mask's players is the game on its subsets: column 0 of its fibers
    space = uniform_space(game.n)
    phi_small = games.shapley(games.CooperativeGame(small.bit_count(), fibers(game.v, space, small)[:, 0]))
    phi_large = games.shapley(games.CooperativeGame(large.bit_count(), fibers(game.v, space, large)[:, 0]))
    pos_in_large = {p: i for i, p in enumerate(mask_indices(large))}
    gains = [phi_large[pos_in_large[p]] - phi_small[i] for i, p in enumerate(mask_indices(small))]
    return float(min(gains, default=np.inf))


def games_suite() -> tuple[dict, list]:
    """Shapley values against spectral marginals, supermodularity of the
    variance and information games, and the transitive bound on zoo games.
    ``min_subgame_shapley_gain`` is the least rise of a player's Shapley
    value from a seeded coalition to a seeded strict superset, over the
    variance games; supermodularity makes it nonnegative.  ``large_games``
    checks a variance game at n = 16 and information games at n = 12 and 16:
    supermodularity, the efficiency gap, and the Shapley shares phi / v(N)
    against the spectral marginals, equal for any variance game and, on a
    transitive function, for its information game too (both are 1/n)."""
    rng = generator_for(SUITE_SEED, 4)
    pair_rng = generator_for(SUITE_SEED, PAIR_STREAM + 4)
    violations = []
    min_gain = np.inf
    sp8 = uniform_space(8)
    worst_marg = 0.0
    for trial in range(10):
        f = FunctionTable(sp8, rng.standard_normal(sp8.size))
        phi = games.shapley(games.build_clue_game(f))
        marg = dividend_shares(spectral.spectral_distribution(f))
        err = float(np.max(np.abs(phi / _variance(f) - marg)))
        worst_marg = max(worst_marg, err)
        if err > 1e-9:
            violations.append({"trial": trial, "shapley_vs_marginal": err})
    for trial in range(20):
        vals = rng.standard_normal(3**5) if trial % 2 else rng.standard_normal(2**5)
        for rep in range(5):
            q = 3 if trial % 2 else 2
            sp = ProductSpace(5, q, rng.dirichlet(np.ones(q) * 3.0, size=5))
            f = FunctionTable(sp, vals)
            game = games.build_clue_game(f)
            large = int(pair_rng.integers(1, 1 << 5))
            dropped = 1 << int(pair_rng.choice(mask_indices(large)))
            small = large & ~dropped & int(pair_rng.integers(0, 1 << 5))
            ok, pair = games.is_supermodular(game)
            if not ok:
                violations.append({"trial": trial, "rep": rep, "game": "variance", "pair": pair})
            else:
                gain = _subgame_shapley_gain(game, small, large)
                min_gain = min(min_gain, gain)
                if gain < -games.GAME_TOL:
                    violations.append({"trial": trial, "rep": rep, "small": small, "large": large,
                                       "subgame_shapley_gain": gain})
            fb = FunctionTable(sp, (vals > np.median(vals)).astype(float))
            ok, pair = games.is_supermodular(games.build_iclue_game(fb))
            if not ok:
                violations.append({"trial": trial, "rep": rep, "game": "information", "pair": pair})
    zoo_entries = [zoo.from_spec(spec) for spec in ("sum:8", "parity:8", "maj:7", "tribes:2,4")]
    for entry in zoo_entries:
        game = games.build_clue_game(entry.table)
        if not games.shapley_in_core(game):
            violations.append({"fn": entry.name, "problem": "shapley not in core"})
        report = games.transitive_game_bound(game, entry.action)
        if not report.bound_holds:
            violations.append({"fn": entry.name, "problem": "transitive bound", "excess": report.max_violation})
        eff = abs(games.shapley(game).sum() - game.grand_value)
        if eff > 1e-10:
            violations.append({"fn": entry.name, "efficiency_err": eff})
    large = []
    for spec, kind, build in (("tribes:4,4", "variance", games.build_clue_game),
                              ("tribes:3,4", "information", games.build_iclue_game),
                              ("tribes:4,4", "information", games.build_iclue_game)):
        entry = zoo.from_spec(spec)
        game = build(entry.table)
        phi = games.shapley(game)
        marg = dividend_shares(spectral.spectral_distribution(entry.table))
        row = {"fn": entry.name, "kind": kind,
               "supermodular": games.is_supermodular(game)[0],
               "efficiency_gap": abs(float(phi.sum()) - game.grand_value),
               "shares_vs_marginal": float(np.max(np.abs(phi / game.grand_value - marg)))}
        large.append(row)
        if not row["supermodular"] or max(row["efficiency_gap"], row["shares_vs_marginal"]) > 1e-12:
            violations.append({"large_game": row})
    return {"worst_shapley_vs_marginal": worst_marg, "zoo": [e.name for e in zoo_entries],
            "min_subgame_shapley_gain": min_gain, "large_games": large}, violations


# ---------------------------------------------------------------------------
# 5. information bounds
# ---------------------------------------------------------------------------
def _check_cover(n: int, cover: list[int], k: int):
    for mask in cover:
        validate_mask(mask, n)
    for j in range(n):
        mult = sum(1 for mask in cover if (mask >> j) & 1)
        if mult > k:
            raise ValueError(
                f"coordinate {j} appears in {mult} cover sets, more than k={k}"
            )


def _shearer_deficit(f: FunctionTable, cover: list[int], k: int) -> float:
    """k H(Z) - sum_j I(Z : X_{S_j}) for a cover where every coordinate lies
    in at most k sets; nonnegative on product measures."""
    _check_cover(f.n, cover, k)
    h_z = infotheory.value_entropy(f)
    return k * h_z - float(sum(infotheory.mutual_information(f, mask) for mask in cover))


def _kl_cover_deficit(f: FunctionTable, cover: list[int], k: int) -> float:
    """k Ent(f) - sum_j Ent(E[f | S_j]) for f >= 0; the marginal relative
    entropies of the f-biased measure cannot exceed k times the total."""
    infotheory._require_nonnegative(f, "kl_cover_deficit")
    _check_cover(f.n, cover, k)
    total = infotheory.ent_functional(f)
    return k * total - float(sum(infotheory._ent_of_marginal(_split_of(f, mask)) for mask in cover))


def shearer_suite() -> tuple[dict, list]:
    rng = generator_for(SUITE_SEED, 5)
    violations = []
    entries = [
        zoo.from_spec("sum:10"),
        zoo.from_spec("parity:10"),
        zoo.from_spec("maj:9"),
        zoo.from_spec("tribes:2,5"),
        zoo.from_spec("tribes:3,3"),
    ]
    worst_i = -np.inf
    worst_kl = -np.inf
    lattice_err = 0.0
    oracle_rng = generator_for(SUITE_SEED, ORACLE_STREAM + 5)
    for entry in entries:
        f = entry.table
        n = f.n
        pc = popcounts(n)
        h_z = infotheory.value_entropy(f)
        fnn = f if f.values.min() >= 0 else FunctionTable(f.space, f.values - f.values.min())
        mi = infotheory.mutual_information_all_subsets(f)
        kl = infotheory.kl_clue_all_subsets(fnn)
        for mask in _oracle_masks(oracle_rng, n):
            lattice_err = max(lattice_err, abs(mi[mask] - infotheory.mutual_information(f, mask)),
                              abs(kl[mask] - infotheory.kl_clue(fnn, mask)))
        i_slack = mi / h_z - pc / n
        kl_slack = kl - pc / n
        worst_i = max(worst_i, i_slack.max())
        worst_kl = max(worst_kl, kl_slack.max())
        for mask in np.nonzero((i_slack > 1e-10) | (kl_slack > 1e-10))[0].tolist():
            violations.append({"fn": entry.name, "mask": mask, "i": i_slack[mask], "kl": kl_slack[mask]})
    if lattice_err > LATTICE_TOL:
        violations.append({"lattice_max_err": lattice_err})
    sp6 = uniform_space(6)
    worst_deficit = np.inf
    worst_kl_deficit = np.inf
    for trial in range(50):
        f = _random_boolean(sp6, rng)
        cover = [int(rng.integers(1, 64)) for _ in range(int(rng.integers(2, 7)))]
        k = max(
            sum(1 for mask in cover if (mask >> j) & 1) for j in range(6)
        )
        k = max(k, 1)
        deficit = _shearer_deficit(f, cover, k)
        kl_deficit = _kl_cover_deficit(f, cover, k)
        worst_deficit = min(worst_deficit, deficit)
        worst_kl_deficit = min(worst_kl_deficit, kl_deficit)
        if deficit < -1e-10 or kl_deficit < -1e-10:
            violations.append({"trial": trial, "cover": cover, "k": k, "deficit": deficit, "kl": kl_deficit})
    return {
        "worst_i_slack": float(worst_i),
        "worst_kl_slack": float(worst_kl),
        "worst_cover_deficit": float(worst_deficit),
        "worst_kl_cover_deficit": float(worst_kl_deficit),
        "lattice_max_err": float(lattice_err),
    }, violations


# ---------------------------------------------------------------------------
# 6. sandwiches
# ---------------------------------------------------------------------------
def _transfer_floor(c: float, eps: float) -> float:
    """Provable lower bound on the partner's clue when Corr >= 1 - eps and
    one clue is >= c.  Standardize both functions: the distance between them
    is sqrt(2 eps), and by the triangle inequality the residual of g is at
    most (sqrt(2 eps) + sqrt(1 - c))^2.  The cross term cannot be dropped,
    so the floor is c - 2 eps - 2 sqrt(2 eps (1 - c)), not c - 2 eps.
    """
    eps = max(eps, 0.0)
    return c - 2.0 * eps - 2.0 * np.sqrt(2.0 * eps * max(1.0 - c, 0.0))


def _projection_bounds(f: FunctionTable, g: FunctionTable, mask: int) -> dict:
    """Slacks of the two projection bounds on one pair.

    With eps = 1 - Corr(f, g) and c the smaller clue of the pair on
    ``mask``: ``floor_slack`` is the smaller margin of either clue over the
    other's :func:`_transfer_floor`, and ``corr_slack`` the margin of
    Corr(Pf, Pg) over 1 - eps/c (None when c is at most ``PROJECTION_TOL``).
    ``naive_gap`` is the smaller margin over the simpler floor c - 2 eps,
    which drops the cross term and fails on some pairs.  Clue and
    correlation are affine invariant, so nothing is normalized.
    """
    cf, cg = clue(f, mask), clue(g, mask)
    eps = float(1.0 - _correlation(f, g))
    c = min(cf, cg)
    corr_slack = None
    if c > PROJECTION_TOL:
        pf, pg = conditional_expectation(f, mask), conditional_expectation(g, mask)
        corr_slack = float(_correlation(pf, pg) - (1.0 - eps / c))
    return {
        "eps": eps,
        "clue_f": cf,
        "clue_g": cg,
        "floor_slack": float(min(cg - _transfer_floor(cf, eps), cf - _transfer_floor(cg, eps))),
        "corr_slack": corr_slack,
        "naive_gap": float(min(cg - (cf - 2 * eps), cf - (cg - 2 * eps))),
    }


def sandwiches_suite() -> tuple[dict, list]:
    """Two-sided comparisons of the TV and entropy clue against the variance
    clue, on random Boolean functions with p_min >= 0.05, and the two other
    bounds whose provable form differs from a commonly quoted one.

    Four bounds are asserted: the entropy sandwich, the TV lower bound
    tv >= p_min/2 * clue, and the TV upper bound

        tv <= sqrt(clue) / (2 sqrt(p_min (1 - p_min))).

    With p = P[f=1] and g = E[f|U] - p, a Boolean f has E|f - p| = 2p(1-p)
    and Var f = p(1-p), so by Cauchy-Schwarz E|g| <= sqrt(E g^2) =
    sqrt(clue p(1-p)); dividing by 2p(1-p) gives the bound.  Equality holds
    whenever |E[f|U] - p| is constant, e.g. for every single coordinate of
    uniform bits, so ``tv_upper_max_ratio`` (largest tv / bound) reads 1.

    The linear form tv <= 2/p_min * clue is false for weakly informative
    subsets, where tv scales like sqrt(clue).  Its worst slack is reported
    as ``tv_upper_linear_gap`` with its first counterexamples, unasserted.

    Every subset's TV and I-clue come off the keep-or-sum-out lattice; the
    per-mask routes check it on seeded masks (``lattice_max_err``).

    Projection transfer, on pairs g = f + noise (n = 2..6, a seeded mask):
    each clue is at least the other's triangle-inequality floor
    c - 2 eps - 2 sqrt(2 eps (1 - c)) (``projection_floor_margin``), and
    Corr(Pf, Pg) >= 1 - eps/c (``projection_corr_margin``, which a mask
    holding every coordinate attains), both within ``PROJECTION_TOL``.  The
    naive floor c - 2 eps is false (a pair whose clues differ by more than
    2 eps breaks it); its worst margin is reported as
    ``naive_transfer_gap``, unasserted.

    Order chain, on balanced Boolean tables of 6 uniform bits and every
    mask: witness <= clue <= sig <= influence_set within 1e-12, one margin
    per link (``chain_witness_clue``, ``chain_clue_sig``,
    ``chain_sig_influence``).  The empty mask meets every link with
    equality, so each margin reads 0.  Unbalanced tables break the chain:
    with f the AND of 8 bits, 7 coordinates witness f with probability
    127/128 while their clue is 0.498.
    """
    rng = generator_for(SUITE_SEED, 6)
    sp8 = uniform_space(8)
    margins = {"tv_lower": np.inf, "tv_upper": np.inf, "i_lower": np.inf, "i_upper": np.inf}
    max_ratio = 0.0
    linear_gap = np.inf
    linear_counterexamples = []
    violations = []
    lattice_err = 0.0
    oracle_rng = generator_for(SUITE_SEED, ORACLE_STREAM + 6)
    masks = np.arange(1 << 8)
    for trial in range(100):
        f = _random_boolean(sp8, rng, min_p=0.05)
        mean = f.values.mean()
        pm = p_min(f)
        sqrt_var = np.sqrt(pm * (1.0 - pm))
        c = clue_all_subsets_table(f)
        tv = tv_clue_all_subsets(f)
        h_z = infotheory.value_entropy(f)
        icl = np.minimum(infotheory.mutual_information_all_subsets(f) / h_z, 1.0)
        for mask in _oracle_masks(oracle_rng, 8):
            lattice_err = max(lattice_err, abs(tv[mask] - tv_clue(f, mask)),
                              abs(icl[mask] - infotheory.i_clue(f, mask)))
        tv_bound = np.sqrt(np.maximum(c, 0.0)) / (2.0 * sqrt_var)
        checks = {
            "tv_lower": tv - pm / 2.0 * c,
            "tv_upper": tv_bound - tv,
            "i_lower": c - mean**2 * (1 - mean) ** 2 * icl,
            "i_upper": icl / pm - c,
        }
        for key, slack in checks.items():
            margins[key] = min(margins[key], slack.min())
        for mask in np.nonzero(np.min(list(checks.values()), axis=0) < -1e-10)[0].tolist():
            for key, slack in checks.items():
                if slack[mask] < -1e-10 and len(violations) < 8:
                    violations.append(
                        {"bound": key, "trial": trial, "mask": mask, "slack": float(slack[mask]),
                         "clue": float(c[mask]), "tv": float(tv[mask]), "i_clue": float(icl[mask]),
                         "p_min": float(pm)}
                    )
        attained = (masks > 0) & (c > 0.0)
        if attained.any():
            max_ratio = max(max_ratio, (tv[attained] / tv_bound[attained]).max())
        linear_slack = 2.0 / pm * c - tv
        linear_gap = min(linear_gap, linear_slack.min())
        for mask in np.nonzero(linear_slack < -1e-10)[0][: 4 - len(linear_counterexamples)].tolist():
            linear_counterexamples.append(
                {"trial": trial, "mask": mask, "slack": float(linear_slack[mask]),
                 "clue": float(c[mask]), "tv": float(tv[mask]), "p_min": float(pm)}
            )
    if lattice_err > LATTICE_TOL:
        violations.append({"lattice_max_err": lattice_err})
    projection = {"floor_slack": np.inf, "corr_slack": np.inf, "naive_gap": np.inf}
    pair_rng = generator_for(SUITE_SEED, PAIR_STREAM + 6)
    for trial in range(100):
        n = int(pair_rng.integers(2, 7))
        sp = uniform_space(n)
        f = FunctionTable(sp, pair_rng.standard_normal(sp.size))
        g = FunctionTable(sp, f.values + pair_rng.uniform(0, 2) * pair_rng.standard_normal(sp.size))
        mask = int(pair_rng.integers(0, 1 << n))
        bounds = _projection_bounds(f, g, mask)
        for key in projection:
            if bounds[key] is not None:
                projection[key] = min(projection[key], bounds[key])
        if min(bounds["floor_slack"], bounds["corr_slack"] or 0.0) < -PROJECTION_TOL:
            violations.append({"bound": "projection", "trial": trial, "mask": mask, **bounds})
    chain = {"witness_clue": np.inf, "clue_sig": np.inf, "sig_influence": np.inf}
    chain_rng = generator_for(SUITE_SEED, CHAIN_STREAM + 6)
    sp6 = uniform_space(6)
    for trial in range(20):
        vals = np.zeros(sp6.size)
        vals[chain_rng.permutation(sp6.size)[: sp6.size // 2]] = 1.0
        f = FunctionTable(sp6, vals)
        c = clue_all_subsets_table(f)
        sig = 1.0 - c[::-1]  # the complement of mask m is 63 - m
        links = {
            "witness_clue": c - np.array([witness(f, mask) for mask in range(sp6.size)]),
            "clue_sig": sig - c,
            "sig_influence": np.array([influence_set(f, mask) for mask in range(sp6.size)]) - sig,
        }
        for key, slack in links.items():
            chain[key] = min(chain[key], float(slack.min()))
            if slack.min() < -1e-12:
                violations.append({"bound": f"chain_{key}", "trial": trial,
                                   "mask": int(slack.argmin()), "slack": float(slack.min())})
    details = {k: float(v) for k, v in margins.items()}
    details["lattice_max_err"] = float(lattice_err)
    details["tv_upper_max_ratio"] = float(max_ratio)
    details["tv_upper_linear_gap"] = float(linear_gap)
    details["tv_upper_linear_counterexamples"] = linear_counterexamples
    details["projection_floor_margin"] = projection["floor_slack"]
    details["projection_corr_margin"] = projection["corr_slack"]
    details["naive_transfer_gap"] = projection["naive_gap"]
    details.update({f"chain_{key}": margin for key, margin in chain.items()})
    details["note"] = (
        "tv_upper is the slack of tv <= sqrt(clue) / (2 sqrt(p_min (1 - p_min))), "
        "which Cauchy-Schwarz proves and single coordinates attain; the linear "
        "form 2/p_min * clue is false for weak subsets (tv ~ sqrt(clue)) and is "
        "reported as tv_upper_linear_gap, not asserted"
    )
    return details, violations


# ---------------------------------------------------------------------------
# 7. revealment
# ---------------------------------------------------------------------------
# A law of a random subset U is a 2^n vector: law[mask] = P[U = mask].
def _bernoulli_sets(n: int, p: float) -> np.ndarray:
    """Each coordinate included independently with probability p: the
    product measure on inclusion bits."""
    return ProductSpace(n, 2, np.tile([1.0 - p, p], (n, 1))).marginal_weights(full_mask(n))


def _translate_sets(mask: int, perms: list[list[int]], n: int) -> np.ndarray:
    """Uniform law over the images of ``mask`` under the given coordinate
    permutations."""
    images = [sum(1 << perm[v] for v in mask_indices(mask)) for perm in perms]
    return np.bincount(images, minlength=1 << n) / len(perms)


def _revealment(law: np.ndarray) -> float:
    """max_j P[j in U]: the largest single-coordinate inclusion probability."""
    return float(containing_sums(law).max(initial=0.0))


def revealment_suite() -> tuple[dict, list]:
    """Expected clue against revealment on Bernoulli and cyclic-translate
    laws.  ``worst_fiber_err`` checks each expected clue (on Bernoulli sets,
    the level route) against the law dotted with every subset's fiber clue;
    the identity error checks the 2^n Bernoulli law dotted with every
    subset's clue against stability(p) / Var f."""
    rng = generator_for(SUITE_SEED, 7)
    violations = []
    worst_gap = -np.inf
    worst_identity = 0.0
    worst_fiber = 0.0
    tables = [zoo.from_spec("maj:7").table, zoo.from_spec("tribes:2,4").table]
    for trial in range(6):
        sp = uniform_space(int(rng.integers(5, 9)))
        tables.append(FunctionTable(sp, rng.standard_normal(sp.size)))
    p_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for f in tables:
        n = f.n
        prof = spectral.stability_profile(f)
        var = prof.variance  # Var f as the sum of the level weights W_k, k >= 1
        every = clue_all_subsets_table(f)
        fiber = _direct_clue_all(f)
        for p in p_grid:
            law = _bernoulli_sets(n, p)
            ec = expected_clue(f, p ** np.arange(n + 1))
            gap = ec - _revealment(law)
            identity_err = abs(float(law @ every) - spectral.stability(prof, p) / var)
            fiber_err = abs(ec - float(law @ fiber))
            worst_gap = max(worst_gap, gap)
            worst_identity = max(worst_identity, identity_err)
            worst_fiber = max(worst_fiber, fiber_err)
            if gap > 1e-10 or identity_err > 1e-10 or fiber_err > 1e-10:
                violations.append({"n": n, "p": p, "gap": gap, "identity_err": identity_err,
                                   "fiber_err": fiber_err})
        rotations = [[(v + k) % n for v in range(n)] for k in range(n)]
        for _ in range(4):
            mask = int(rng.integers(1, 1 << n))
            law = _translate_sets(mask, rotations, n)
            ec = float(law @ every)
            gap = ec - _revealment(law)
            fiber_err = abs(ec - float(law @ fiber))
            worst_gap = max(worst_gap, gap)
            worst_fiber = max(worst_fiber, fiber_err)
            if gap > 1e-10 or fiber_err > 1e-10:
                violations.append({"n": n, "translate_mask": mask, "gap": gap, "fiber_err": fiber_err})
    return {"worst_gap": float(worst_gap), "worst_bernoulli_identity_err": float(worst_identity),
            "worst_fiber_err": float(worst_fiber)}, violations


# ---------------------------------------------------------------------------
# 8. covariance identity
# ---------------------------------------------------------------------------
def _require_pm_one(f: FunctionTable):
    if f.space.q != 2:
        raise ValueError("pivotal sets need a binary space")
    # Boolean levels are (0, 1) or (-1, 1), so a Boolean table without a 0 is ±1
    if not (f.is_boolean() and f.value_range()[0] != 0.0):
        raise ValueError("pivotal sets need a {-1,+1}-valued table")


def _pivotal_masks(f: FunctionTable) -> np.ndarray:
    """For every configuration, the bitmask of coordinates whose flip changes
    the value."""
    _require_pm_one(f)
    n = f.space.n
    idx = np.arange(1 << n)
    piv = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        flipped = f.values[idx ^ (1 << v)]
        piv |= (f.values != flipped).astype(np.int64) << v
    return piv


def _is_monotone(f: FunctionTable) -> bool:
    """True when raising any spin never lowers the value."""
    _require_pm_one(f)
    n = f.space.n
    idx = np.arange(1 << n)
    for v in range(n):
        hi = (idx >> v) & 1 == 1
        if np.any(f.values[idx[hi]] < f.values[idx[hi] ^ (1 << v)]):
            return False
    return True


def _covariance_lemma_check(f: FunctionTable, g: FunctionTable) -> tuple[float, float]:
    """Exact evaluation of both sides of the pivotal-overlap identity.

    lhs: integral over p in [0,1] of E|Piv_f(w) ∩ Piv_g(w')| for the
    p-correlated pair (w, w').  The noise operator is diagonal in the Walsh
    basis, T_p chi_S = p^|S| chi_S, so with a_j and b_j the indicators that j
    is pivotal for f and for g, E[a_j(w) b_j(w')] = sum_S â_j(S) b̂_j(S) p^|S|
    and the integral is sum_j sum_S â_j(S) b̂_j(S) / (|S|+1).  It runs one
    coordinate at a time, holding a few table-size vectors.  rhs: Cov(f, g).

    For the conventions above the two sides agree with constant 1; the
    dictator pair pins this (both sides equal 1).
    """
    space = f.space
    if space != g.space or not space.is_uniform_binary:
        raise ValueError("both tables must live on the same uniform binary space")
    if not (_is_monotone(f) and _is_monotone(g)):
        raise ValueError("covariance identity requires monotone inputs")
    piv_f = _pivotal_masks(f)
    piv_g = _pivotal_masks(g)
    integral = 1.0 / (popcounts(space.n) + 1)  # of p^|S| over [0, 1]
    lhs = 0.0
    for j in range(space.n):
        a = spectral._transform(space, (piv_f >> j) & 1)
        b = spectral._transform(space, (piv_g >> j) & 1)
        lhs += float(_contract(a * b, integral, 2))
    return lhs, _covariance(f, g)


def _random_monotone(sp: ProductSpace, rng) -> FunctionTable:
    vals = np.where(rng.random(sp.size) < rng.uniform(0.25, 0.75), 1.0, -1.0)
    idx = np.arange(sp.size)
    for v in range(sp.n):
        hi = (idx >> v) & 1 == 1
        vals[idx[hi]] = np.maximum(vals[idx[hi]], vals[idx[hi] ^ (1 << v)])
    return FunctionTable(sp, vals)


def _random_threshold(sp: ProductSpace, rng) -> FunctionTable:
    """sign(spins @ w - theta) for positive weights w and theta a random
    quantile of spins @ w; monotone because every weight is positive."""
    sums = (sp.digits().astype(np.int8) * 2 - 1) @ rng.uniform(0.1, 1.0, sp.n)
    return FunctionTable(sp, np.where(sums > np.quantile(sums, rng.uniform(0.25, 0.75)), 1.0, -1.0))


def _varies(f: FunctionTable) -> bool:
    return bool(f.values.min() < f.values.max())


def covariance_lemma_suite() -> tuple[dict, list]:
    rng = generator_for(SUITE_SEED, 8)
    violations = []
    d = zoo.from_spec("dictator:3,0").table
    lhs, rhs = _covariance_lemma_check(d, d)
    dictator_pins = abs(lhs - 1.0) < 1e-9 and abs(rhs - 1.0) < 1e-9
    if not dictator_pins:
        violations.append({"case": "dictator", "lhs": lhs, "rhs": rhs})
    pairs = []
    for trial in range(50):
        sp = uniform_space(int(rng.integers(2, 7)))
        pairs.append((trial, _random_monotone(sp, rng), _random_monotone(sp, rng)))
    # the closure of random signs is mostly constant; threshold pairs vary
    pair_rng = generator_for(SUITE_SEED, PAIR_STREAM + 8)
    thresholds = [(f"threshold-{n}", _random_threshold(uniform_space(n), pair_rng),
                   _random_threshold(uniform_space(n), pair_rng)) for n in range(9, 17)]
    worst = 0.0
    for trial, f, g in pairs + thresholds:
        lhs, rhs = _covariance_lemma_check(f, g)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        if err > 1e-9:
            violations.append({"trial": trial, "n": f.n, "lhs": lhs, "rhs": rhs})
    return {
        "identity_constant": 1.0,
        "dictator_pins_constant": dictator_pins,
        "worst_abs_err": float(worst),
        "nondegenerate_trials": sum(_varies(f) and _varies(g) for _, f, g in pairs),
        "threshold_pairs_vary": all(_varies(f) and _varies(g) for _, f, g in thresholds),
        "max_n": max(f.n for _, f, _ in pairs + thresholds),
        "note": (
            "integral of the expected pivotal overlap equals Cov(f,g) with "
            "constant 1; the variant normalization carrying an extra 1/4 "
            "fails the dictator case and is rejected by this oracle"
        ),
    }, violations


# ---------------------------------------------------------------------------
# 9. percolation
# ---------------------------------------------------------------------------
def _scalar_crossing(rect: perco.RectangleSpec, open_row, dual: bool = False) -> bool:
    """Breadth-first search over one configuration: the left-right crossing
    of the open edges or, with ``dual``, the bottom-top crossing of the dual
    by closed edges (dual nodes are the inner faces plus "bottom" and
    "top").  Pure Python, built from ``horizontal_edge``/``vertical_edge``
    alone: the oracle for perco's vectorized kernel, sharing none of its
    code."""
    w, h = rect.w, rect.h
    adj = defaultdict(list)

    def link(p, q, edge: int) -> None:
        if bool(open_row[edge]) != dual:
            adj[p].append(q)
            adj[q].append(p)

    if dual:
        def face(x: int, y: int):
            return "bottom" if y < 0 else "top" if y == h - 1 else (x, y)

        for y in range(h):
            for x in range(w - 1):
                link(face(x, y - 1), face(x, y), rect.horizontal_edge(x, y))
        for y in range(h - 1):
            for x in range(1, w - 1):
                link((x - 1, y), (x, y), rect.vertical_edge(x, y))
        start, goals = ["bottom"], {"top"}
    else:
        for y in range(h):
            for x in range(w - 1):
                link((x, y), (x + 1, y), rect.horizontal_edge(x, y))
        for y in range(h - 1):
            for x in range(w):
                link((x, y), (x, y + 1), rect.vertical_edge(x, y))
        start, goals = [(0, y) for y in range(h)], {(w - 1, y) for y in range(h)}
    seen, queue = set(start), deque(start)
    while queue:
        node = queue.popleft()
        if node in goals:
            return True
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def perco_suite() -> tuple[dict, list]:
    rng = generator_for(SUITE_SEED, 9)
    violations = []
    r32, r43 = perco.RectangleSpec(3, 2), perco.RectangleSpec(4, 3)
    p_exact = perco.crossing_probability_exact(r32)
    if p_exact != 0.5:
        violations.append({"case": "self-dual probability", "value": str(p_exact)})
    for rect in (r32, r43):
        configs = perco._all_configs(rect.edge_count)
        xor = perco.crossing_batch(rect, configs) ^ perco.dual_crossing_batch(rect, configs)
        if not bool(np.all(xor)):
            violations.append({"case": "duality xor", "shape": f"{rect.w}x{rect.h}",
                               "bad_configs": int(np.sum(~xor))})
    torus = perco.TorusSpec(3)
    averaged = perco.averaged_lr_table(torus)
    if not symmetry.is_invariant(averaged, torus.translation_group()):
        violations.append({"case": "averaged table not translation invariant"})
    torus_clue = clue_all_subsets_table(averaged)
    n_edges = torus.edge_count
    worst_slack = -np.inf
    masks = [1 << e for e in range(n_edges)]
    masks += [(1 << a) | (1 << b) for a in range(n_edges) for b in range(a + 1, n_edges)]
    masks += [int(rng.integers(1, 1 << n_edges)) for _ in range(500)]
    for mask in masks:
        slack = float(torus_clue[mask]) - 2.0 * mask.bit_count() / 9.0
        worst_slack = max(worst_slack, slack)
        if slack > 1e-9:
            violations.append({"case": "two-orbit bound", "mask": mask, "excess": slack})
    kernel_mismatches = 0  # rows drawn after the masks, so the masks stay pinned
    for rect in (perco.RectangleSpec(9, 8), perco.RectangleSpec(21, 20)):
        rows = rng.random((200, rect.edge_count)) < 0.5
        for dual, batch in ((False, perco.crossing_batch), (True, perco.dual_crossing_batch)):
            oracle = [_scalar_crossing(rect, row, dual) for row in rows]
            bad = int(np.sum(batch(rect, rows) != oracle))
            kernel_mismatches += bad
            if bad:
                violations.append({"case": "kernel vs oracle", "shape": f"{rect.w}x{rect.h}",
                                   "dual": dual, "bad_rows": bad})
    exact43 = float(perco.crossing_probability_exact(r43))
    estimate, stderr = perco.crossing_probability_mc(r43, 200_000, seed=SUITE_SEED)
    if abs(estimate - exact43) > 3.0 * stderr:
        violations.append({"case": "mc crossing", "exact": exact43, "estimate": estimate, "stderr": stderr})
    return {
        "self_dual_probability": str(p_exact),
        "bound_worst_slack": float(worst_slack),
        "masks_checked": len(masks),
        "mc_estimate": estimate,
        "mc_stderr": stderr,
        "exact_4x3": exact43,
        "kernel_mismatches": kernel_mismatches,
    }, violations


# ---------------------------------------------------------------------------
# 10. Monte Carlo calibration
# ---------------------------------------------------------------------------
def montecarlo_suite() -> tuple[dict, list]:
    n_reps = 200
    violations = []
    sp3 = uniform_space(3)
    sp16 = uniform_space(16)
    cases = [
        ("maj3", zoo.majority_evaluator(3), sp3, 0b001, 0.25),
        ("sum16", zoo.sum_evaluator(16), sp16, 0b1111, 0.25),
    ]
    details = {}
    for name, ev, sp, mask, exact in cases:
        corrected = np.empty(n_reps)
        uncorrected = np.empty(n_reps)
        for rep in range(n_reps):
            est = mc_clue(ev, sp, mask, 2000, 50, seed=SUITE_SEED + 1000 + rep)
            corrected[rep] = est.estimate
            uncorrected[rep] = est.uncorrected
        sem = corrected.std(ddof=1) / np.sqrt(n_reps)
        bias = uncorrected.mean() - exact
        bias_sem = uncorrected.std(ddof=1) / np.sqrt(n_reps)
        details[name] = {
            "mean": float(corrected.mean()),
            "sem": float(sem),
            "uncorrected_mean": float(uncorrected.mean()),
            "nesting_bias": float(bias),
            "expected_bias": (1 - exact) / 50,
        }
        if abs(corrected.mean() - exact) > 3 * sem:
            violations.append({"case": name, "problem": "corrected mean off", **details[name]})
        if bias < 3 * bias_sem:
            violations.append({"case": name, "problem": "nesting bias not detected", **details[name]})
    runs = [mc_clue(zoo.sum_evaluator(16), sp16, 0b1111, 1500, 20, seed=SUITE_SEED) for _ in range(2)]
    deterministic = all(
        r.estimate == runs[0].estimate and r.stderr == runs[0].stderr for r in runs
    )
    details["seed_determinism"] = deterministic
    if not deterministic:
        violations.append({"case": "determinism", "estimates": [r.estimate for r in runs]})
    return details, violations


# ---------------------------------------------------------------------------
# 11. finite-size surrogate of the steered-majority mechanism
# ---------------------------------------------------------------------------
def composite_trend_suite() -> tuple[dict, list]:
    """clue of the steering block must grow along the coupled size sequence,
    with Monte Carlo gaps significant at 3 sigma and each estimate consistent
    with the exact two-point formula."""
    violations = []
    points = []
    for t in (40, 80, 160):
        m = _coupled_majority_size(t)
        shift = _find_a(m, m ** (-2.0 / 3.0))
        exact = composite_t_part_clue(m, t, shift)
        ev = zoo.composite_evaluator(m, t, shift)
        sp = uniform_space(m + t)
        t_mask = ((1 << t) - 1) << m
        est = mc_clue(ev, sp, t_mask, 3000, 24, seed=SUITE_SEED + t)
        points.append({"t": t, "m": m, "shift": shift, "exact": exact,
                       "estimate": est.estimate, "stderr": est.stderr})
        if abs(est.estimate - exact) > 3 * max(est.stderr, 1e-9):
            violations.append({"case": f"t={t}", "problem": "estimate vs exact", **points[-1]})
    for lo, hi in zip(points, points[1:]):
        gap = hi["estimate"] - lo["estimate"]
        noise = np.hypot(hi["stderr"], lo["stderr"])
        if gap < 3 * noise:
            violations.append({"case": "trend", "from": lo["t"], "to": hi["t"], "gap": gap, "noise": noise})
    return {"points": points}, violations


def _coupled_majority_size(t: int) -> int:
    """Majority-block size paired with a tribes block of size t so the two
    blocks' per-coordinate influences match: m = (t / ln t)^(3/2)."""
    if t < 2:
        raise ValueError("need t >= 2")
    return max(1, round((t / math.log(t)) ** 1.5))


def _asym_majority_influence(n: int, shift: float) -> float:
    """Exact per-coordinate influence of the shifted majority.

    A flip matters exactly when the other n-1 spins sum into the unit window
    around the threshold, which pins a single attainable sum value.
    """
    threshold = shift * math.sqrt(n)
    lo = math.floor(threshold - 1.0) + 1  # integers s with threshold-1 < s <= threshold+1
    candidates = [s for s in (lo, lo + 1) if s <= threshold + 1.0]
    total = 0.0
    for s in candidates:
        if abs(s) > n - 1 or (s - (n - 1)) % 2:
            continue
        total += math.comb(n - 1, (n - 1 + s) // 2) / 2 ** (n - 1)
    return total


def _find_a(n: int, target_influence: float) -> float:
    """Shift making the asymmetric majority's coordinate influence as close
    as possible to the target, by bisection over the (stepwise decreasing)
    influence curve."""
    lo, hi = 0.0, math.sqrt(n) + 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _asym_majority_influence(n, mid) > target_influence:
            lo = mid
        else:
            hi = mid
    if abs(_asym_majority_influence(n, lo) - target_influence) <= abs(
        _asym_majority_influence(n, hi) - target_influence
    ):
        return lo
    return hi


def composite_t_part_clue(m: int, t: int, shift: float) -> float:
    """Exact clue of the steering block: the conditional mean given that
    block takes only two values, so everything reduces to binomial tails."""
    l = zoo.balanced_tribe_size(t)
    q = 1.0 - (1.0 - 0.5**l) ** (t // l)
    theta = shift * math.sqrt(m)

    def upper_tail(threshold: float) -> float:
        # P[sum of m fair spins > threshold]
        total = 0.0
        for k in range(m + 1):
            if 2 * k - m > threshold:
                total += math.comb(m, k)
        return total / 2.0**m

    mu_plus = 2.0 * upper_tail(theta) - 1.0
    mu_minus = 2.0 * upper_tail(-theta) - 1.0
    mean = q * mu_plus + (1 - q) * mu_minus
    var_cond = q * (1 - q) * (mu_plus - mu_minus) ** 2
    var_total = 1.0 - mean**2
    return var_cond / var_total


SUITES = {
    "transitive-bound": transitive_bound_suite,
    "spectral-identity": spectral_identity_suite,
    "efron-stein": efron_stein_suite,
    "sandwiches": sandwiches_suite,
    "games": games_suite,
    "shearer": shearer_suite,
    "revealment": revealment_suite,
    "covariance-lemma": covariance_lemma_suite,
    "perco": perco_suite,
    "montecarlo": montecarlo_suite,
    "composite-trend": composite_trend_suite,
}


def run_suite(name: str) -> SuiteReport:
    """Run the suite registered under ``name`` and time it; each suite returns
    its details and violations, and passes when it has no violations."""
    if name not in SUITES:
        raise KeyError(name)
    t0 = time.time()
    details, violations = SUITES[name]()
    return SuiteReport(name, details, violations, time.time() - t0)
