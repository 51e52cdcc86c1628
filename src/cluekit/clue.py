"""Variance-based measures of how much a coordinate subset tells about a
function: clue, significance, set influence, witness, the total-variation
variant, and the expected clue of random subsets from the level weights.

clue(f | U) = Var(E[f | U]) / Var(f) is the master quantity; everything else
is either a dual (sig), a combinatorial relative (influence / witness), or a
renormalization (TV).  A degenerate (constant) function raises
:class:`~cluekit.errors.DegenerateError` rather than returning 0.
"""
from __future__ import annotations

import numpy as np

from .core import (
    FunctionTable,
    _contract,
    complement_mask,
    conditional_marginal,
    expectation,
    fibers,
    per_object,
    require_varying,
    validate_mask,
    variance_and_spread,
    weighted_variance,
)
from .errors import DegenerateError
from .spectral import projected_variances, stability_profile
from .transforms import lattice_sums

_VAR_FLOOR = 1e-14


def _checked_variance(f: FunctionTable) -> float:
    """Var f, refusing a function that is constant up to rounding.  The floor
    scales with max |f - E f|^2, so adding a constant to f never changes the
    verdict."""
    require_varying(f)
    var, spread = variance_and_spread(f)
    if var <= _VAR_FLOOR * spread**2:
        raise DegenerateError("constant function: clue-type ratios are undefined")
    return var


# ---------------------------------------------------------------------------
# the L^2 clue, by fibers and by spectral weights
# ---------------------------------------------------------------------------
def clue(f: FunctionTable, mask: int) -> float:
    """Fraction of the variance of f explained by the coordinates in mask.

    Equals the squared correlation between f and E[f | mask].  The ratio is
    conditioned by Var f: its absolute error is a few ulps of
    max |f - E f|^2 over Var f, large only for a nearly constant f.
    """
    validate_mask(mask, f.n)
    var = _checked_variance(f)
    return weighted_variance(*conditional_marginal(f, mask), f.space.q) / var


def clue_spectral(sample: np.ndarray, mask: int) -> float:
    """P[sample subseteq mask | sample nonempty], from the spectral sample
    (the 2^n vector of :func:`~cluekit.spectral.spectral_distribution`).
    Agrees with :func:`clue` on product measures."""
    validate_mask(mask, sample.size.bit_length() - 1)
    masks = np.arange(sample.size)
    return float(sample[(masks | mask) == mask].sum())


def clue_all_subsets_table(f: FunctionTable) -> np.ndarray:
    """clue(f | mask) for every mask, via subset weights (any product measure).
    Conditioned by Var f as :func:`clue` is: a few ulps of max |f - E f|^2
    over Var f."""
    var = _checked_variance(f)
    values = projected_variances(f)
    values /= var
    return values


# ---------------------------------------------------------------------------
# significance: the dual of clue
# ---------------------------------------------------------------------------
def sig(f: FunctionTable, mask: int) -> float:
    """Normalized residual variance left after seeing the complement:
    1 - clue(f | mask^c)."""
    return 1.0 - clue(f, complement_mask(mask, f.n))


# ---------------------------------------------------------------------------
# determinacy: set influence and witness
# ---------------------------------------------------------------------------
def _fiber_constancy_probability(f: FunctionTable, fixed: int) -> float:
    """Probability (over the fixed coordinates' marginal) that f is constant
    on the fiber, constancy judged exactly over positive-probability
    completions."""
    space = f.space
    support = space.marginal_weights(complement_mask(fixed, space.n)) > 0.0
    if not np.any(support):
        return 1.0
    cols = fibers(f.values, space, fixed)[:, support]
    constant = cols.max(axis=1) == cols.min(axis=1)
    return float(_contract(constant.astype(float), space.marginal_weights(fixed), space.q))


def _require_boolean(f: FunctionTable):
    if not f.is_boolean():
        raise ValueError("this metric is defined for Boolean tables only")


def influence_set(f: FunctionTable, mask: int) -> float:
    """P[f is not determined by the coordinates outside mask]."""
    _require_boolean(f)
    validate_mask(mask, f.n)
    return 1.0 - _fiber_constancy_probability(f, complement_mask(mask, f.n))


def witness(f: FunctionTable, mask: int) -> float:
    """P[the coordinates in mask alone determine f]."""
    _require_boolean(f)
    validate_mask(mask, f.n)
    return _fiber_constancy_probability(f, mask)


# ---------------------------------------------------------------------------
# total-variation clue
# ---------------------------------------------------------------------------
def tv_clue(f: FunctionTable, mask: int) -> float:
    """E|E[f|mask] - E[f]| / E|f - E[f]| (symmetric and asymmetric variants
    of the underlying distance coincide in this ratio).  The ratio is
    conditioned by E|f - E f|: its absolute error is a few ulps of
    max |f - E f| over E|f - E f|."""
    require_varying(f)
    validate_mask(mask, f.n)
    fiber_sums = fibers(_weighted_deviation(f), f.space, mask).sum(axis=1)
    return float(np.abs(fiber_sums).sum()) / _mean_absolute_deviation(f)


def _weighted_deviation(f: FunctionTable) -> np.ndarray:
    """w (f - m), m the mean under w / sum w: centred before any fiber sums
    it, so that a sum carries rounding of the size of E|f - E f|, not of
    E f.  One refinement step takes the rounding of E f out of m, so the
    deviations sum to 0 up to rounding of their own size."""
    w = f.space.config_weights()
    total = w.sum()
    dev = f.values - expectation(f) / total
    dev -= float(_contract(dev, w, f.space.q)) / total
    dev *= w
    return dev


@per_object
def _mean_absolute_deviation(f: FunctionTable) -> float:
    return float(np.abs(_weighted_deviation(f)).sum())


def tv_clue_all_subsets(f: FunctionTable) -> np.ndarray:
    """tv_clue(f, U) for every mask U.  With S the lattice of w (f - E f),
    E|E[f|U] - E f| is the sum of |S| over the kept slots of U.  Conditioned
    by E|f - E f| as :func:`tv_clue` is: a few ulps of max |f - E f| over
    E|f - E f|.

    O(n (q+1)^n) time, in the slabs of :func:`~cluekit.transforms.lattice_sums`.
    """
    require_varying(f)
    denom = _mean_absolute_deviation(f)
    return lattice_sums(_weighted_deviation(f), f.space.q, np.abs) / denom


def p_min(f: FunctionTable) -> float:
    """min(P[f=1], P[f=0]) of the {0,1} normalization of a Boolean table,
    never below 0, read off the table's mean: P[f=1] is E f on {0,1} levels
    and (1 + E f)/2 on {-1,1} levels."""
    if not f.is_boolean():
        raise ValueError("table is not Boolean")
    mean = expectation(f)
    p = (1.0 + mean) / 2.0 if f.value_range()[0] < 0.0 else mean
    return max(min(p, 1.0 - p), 0.0)


# ---------------------------------------------------------------------------
# random subsets
# ---------------------------------------------------------------------------
def expected_clue(f: FunctionTable, inclusion: np.ndarray) -> float:
    """Average clue over a random subset U, drawn independently of the input
    from a law that depends on |U| alone: ``inclusion[k]`` = P(S subseteq U)
    for |S| = k = 0..n.  ||f_S||^2 counts in Var(E[f | U]) exactly when
    S subseteq U, so this is sum_{k>=1} W_k inclusion[k] / Var f over the
    level weights W_k (O'Donnell, *Analysis of Boolean Functions*, ch. 2)."""
    if np.shape(inclusion) != (f.n + 1,):
        raise ValueError("need one containment probability per subset size 0..n")
    weights = stability_profile(f).level_weights  # first: its temporaries go before Var f's
    return float(weights[1:] @ inclusion[1:]) / _checked_variance(f)
