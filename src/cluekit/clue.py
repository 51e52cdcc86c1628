"""Variance-based measures of how much a coordinate subset tells about a
function: clue, significance, set influence, witness, coordinate influence,
the total-variation variant, and expected clue of random subsets.

clue(f | U) = Var(E[f | U]) / Var(f) is the master quantity; everything else
is either a dual (sig), a combinatorial relative (influence / witness), or a
renormalization (TV).  A degenerate (constant) function raises
:class:`~cluekit.errors.DegenerateError` rather than returning 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FunctionTable,
    RandomSetDistribution,
    complement_mask,
    conditional_expectation,
    conditional_marginal,
    correlation,
    expectation,
    fibers,
    require_lattices,
    validate_mask,
    variance,
    weighted_variance,
)
from .errors import DegenerateError
from .spectral import SpectralDistribution, projected_variances
from .transforms import keep_or_sum, kept_sums

_VAR_FLOOR = 1e-14
DISTORTION_TOL = 1e-9


def _checked_variance(f: FunctionTable) -> float:
    """Var f, refusing a function that is constant up to rounding.  The floor
    scales with max |f - E f|^2, so adding a constant to f never changes the
    verdict."""
    var = variance(f)
    dev = f.values - expectation(f)
    spread = float(max(dev.max(), -dev.min()))
    if var <= _VAR_FLOOR * spread**2:
        raise DegenerateError("constant function: clue-type ratios are undefined")
    return var


# ---------------------------------------------------------------------------
# the L^2 clue, by fibers and by spectral weights
# ---------------------------------------------------------------------------
def clue(f: FunctionTable, mask: int) -> float:
    """Fraction of the variance of f explained by the coordinates in mask.

    Equals the squared correlation between f and E[f | mask].
    """
    validate_mask(mask, f.n)
    var = _checked_variance(f)
    return weighted_variance(*conditional_marginal(f, mask)) / var


def clue_spectral(dist: SpectralDistribution, mask: int) -> float:
    """P[sample subseteq mask | sample nonempty], from the spectral
    distribution.  Agrees with :func:`clue` on product measures."""
    validate_mask(mask, dist.space.n)
    masks = np.arange(dist.mass.size)
    return float(dist.mass[(masks | mask) == mask].sum())


def clue_all_subsets_table(f: FunctionTable) -> np.ndarray:
    """clue(f | mask) for every mask, via subset weights (any product measure)."""
    var = _checked_variance(f)
    return projected_variances(f) / var


# ---------------------------------------------------------------------------
# significance: the dual of clue
# ---------------------------------------------------------------------------
def sig(f: FunctionTable, mask: int) -> float:
    """Normalized residual variance left after seeing the complement:
    1 - clue(f | mask^c)."""
    return 1.0 - clue(f, complement_mask(mask, f.n))


def sig_spectral(dist: SpectralDistribution, mask: int) -> float:
    """P[sample meets mask], the spectral form of significance."""
    n = dist.space.n
    return 1.0 - clue_spectral(dist, complement_mask(mask, n))


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
    return float(space.marginal_weights(fixed) @ constant.astype(float))


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


def influence_coordinate(f: FunctionTable, coord: int) -> float:
    """Flip-disagreement probability of a single coordinate (binary spaces)."""
    _require_boolean(f)
    space = f.space
    if space.q != 2:
        raise ValueError("coordinate influence needs a binary space")
    idx = np.arange(space.size)
    flipped = f.values[idx ^ (1 << coord)]
    return float(space.config_weights() @ (f.values != flipped).astype(float))


# ---------------------------------------------------------------------------
# total-variation clue
# ---------------------------------------------------------------------------
def tv_clue(f: FunctionTable, mask: int) -> float:
    """E|E[f|mask] - E[f]| / E|f - E[f]| (symmetric and asymmetric variants
    of the underlying distance coincide in this ratio)."""
    validate_mask(mask, f.n)
    w = f.space.config_weights()
    mean = expectation(f)
    denom = float(w @ np.abs(f.values - mean))
    if denom <= 0.0:
        raise DegenerateError("constant function: TV clue undefined")
    values, weights = conditional_marginal(f, mask)
    num = float(weights @ np.abs(values - mean))
    return num / denom


def tv_clue_all_subsets(f: FunctionTable) -> np.ndarray:
    """tv_clue(f, U) for every mask U.  With S the lattice of w (f - E f),
    E|E[f|U] - E f| is the sum of |S| over the kept slots of U.

    O(n (q+1)^n) time; holds two lattice-sized arrays at once (S and the
    copy that :func:`~cluekit.transforms.kept_sums` folds).
    """
    space = f.space
    w = space.config_weights()
    mean = expectation(f)
    denom = float(w @ np.abs(f.values - mean))
    if denom <= 0.0:
        raise DegenerateError("constant function: TV clue undefined")
    require_lattices(space, 2, "the TV clue of every subset")
    s = keep_or_sum(w * (f.values - mean), space.q)
    np.abs(s, out=s)
    return kept_sums(s, space.q) / denom


def p_min(f: FunctionTable) -> float:
    """min(P[f=1], P[f=0]) of the {0,1} normalization of a Boolean table."""
    ind = f.as_indicator()
    p = expectation(ind)
    return min(p, 1.0 - p)


# ---------------------------------------------------------------------------
# random subsets
# ---------------------------------------------------------------------------
def expected_clue(f: FunctionTable, dist: RandomSetDistribution) -> float:
    """Average clue over a random subset drawn independently of the input:
    the law's probabilities against every subset's clue."""
    if dist.probs.size != 1 << f.n:
        raise ValueError("distribution and table disagree on n")
    return float(dist.probs @ clue_all_subsets_table(f))


# ---------------------------------------------------------------------------
# projection distortion
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProjectionDistortionReport:
    eps: float
    clue_f: float
    clue_g: float
    corr_fg: float
    corr_projected: float | None
    min_clue_bound_ok: bool
    transfer_bound_ok: bool
    naive_transfer_gap: float


def _transfer_floor(c: float, eps: float) -> float:
    """Provable lower bound on the partner's clue when Corr >= 1 - eps and
    one clue is >= c.  Standardize both functions: the distance between them
    is sqrt(2 eps), and by the triangle inequality the residual of g is at
    most (sqrt(2 eps) + sqrt(1 - c))^2.  The cross term cannot be dropped,
    so the floor is c - 2 eps - 2 sqrt(2 eps (1 - c)), not c - 2 eps.
    """
    eps = max(eps, 0.0)
    return c - 2.0 * eps - 2.0 * np.sqrt(2.0 * eps * max(1.0 - c, 0.0))


def projection_distortion_check(
    f: FunctionTable, g: FunctionTable, mask: int
) -> ProjectionDistortionReport:
    """Check the two projection bounds on a concrete pair.

    With eps = 1 - Corr(f, g) and c = min clue of the pair on ``mask``:
    the projected pair keeps Corr(Pf, Pg) >= 1 - eps/c whenever c > 0, and
    each function's clue is at least the other's transfer floor
    (see :func:`_transfer_floor`).  Both clue and correlation are affine
    invariant, so the check normalizes nothing.  ``naive_transfer_gap``
    records min(clue_g - (clue_f - 2 eps), symmetric counterpart): it is
    reported because the simpler floor c - 2 eps is sometimes quoted, but
    it can go slightly negative and is not asserted.  Every comparison
    allows ``DISTORTION_TOL`` of rounding.
    """
    cf = clue(f, mask)
    cg = clue(g, mask)
    eps = 1.0 - correlation(f, g)
    pf = conditional_expectation(f, mask)
    pg = conditional_expectation(g, mask)
    c = min(cf, cg)
    corr_projected = None
    min_clue_bound_ok = True
    if c > DISTORTION_TOL:
        corr_projected = correlation(pf, pg)
        min_clue_bound_ok = corr_projected >= 1.0 - eps / c - DISTORTION_TOL
    transfer_bound_ok = (cg >= _transfer_floor(cf, eps) - DISTORTION_TOL) and (
        cf >= _transfer_floor(cg, eps) - DISTORTION_TOL
    )
    return ProjectionDistortionReport(
        eps=eps,
        clue_f=cf,
        clue_g=cg,
        corr_fg=1.0 - eps,
        corr_projected=corr_projected,
        min_clue_bound_ok=bool(min_clue_bound_ok),
        transfer_bound_ok=bool(transfer_bound_ok),
        naive_transfer_gap=float(min(cg - (cf - 2 * eps), cf - (cg - 2 * eps))),
    )

