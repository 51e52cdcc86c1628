"""Variance-based measures of how much a coordinate subset tells about a
function: clue, significance, set influence, witness, the total-variation
variant, and the expected clue of random subsets from the level weights.

clue(f | U) = Var(E[f | U]) / Var(f) is the master quantity; everything else
is either a dual (sig), a combinatorial relative (influence / witness), or a
renormalization (TV).  A degenerate (constant) function raises
:class:`~cluekit.errors.DegenerateError` rather than returning 0.

Every per-mask metric, here and in :mod:`cluekit.infotheory`, reads one split
of the table (:class:`_Split`): f - E f as the fibers matrix of the mask,
permuted once.  Its rows contracted with the complement's weights give
E[f - E f | X_U], its columns contracted with the mask's weights
E[f - E f | X_{U^c}], and its row and column max/min give the witness and
influence constancy.  Any metric takes the split of a mask in place of the
mask, so that the metrics of one mask share one permutation of the table.
The split orders the sums; each ratio is still conditioned by its
denominator, as its route's docstring states.
"""
from __future__ import annotations

import numpy as np

from .core import (
    FunctionTable,
    _contract,
    _deviation_pass,
    complement_mask,
    expectation,
    fibers,
    per_object,
    require_varying,
    validate_mask,
    variance_and_spread,
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
# one split of a table per mask
# ---------------------------------------------------------------------------
class _Split:
    """A table seen through one mask U, for every metric of U.

    The matrix is :func:`~cluekit.core.fibers` of f - E f for whichever of
    U and U^c leaves out coordinate n - 1: a row is a configuration of that
    mask, a column one of the other.  The rows of U are the matrix's rows or
    its columns, so a metric of U reads the same sums whether it was asked
    of U or of the complement of U^c, and sig(f, U) is 1 - clue(f, U^c) bit
    for bit.  The matrix is built on first use, and so is each piece read
    off it.  The splits of U, of U^c and of the indicator keep the matrix
    and the pieces in one shared dict, and none holds another, so no split
    is part of a reference cycle.

    Centring before the sums keeps their rounding of the size of f - E f,
    not of E f.  ``scale`` is 1, or 1/2 for the indicator (f + 1) / 2 of a
    {-1, 1} table: a power of 2, so the scaled sums are exact."""

    def __init__(self, f: FunctionTable, mask: int, shared: dict | None = None,
                 scale: float = 1.0):
        validate_mask(mask, f.n)
        self.f, self.mask, self._scale = f, mask, scale
        self._side = mask >> (f.n - 1)  # 1 when U's rows are the matrix's columns
        self._shared = {"table": f} if shared is None else shared
        self.weights = f.space.marginal_weights(mask)
        self.rest = f.space.marginal_weights(complement_mask(mask, f.n))

    @property
    def complement(self) -> "_Split":
        return _Split(self.f, complement_mask(self.mask, self.f.n), self._shared, self._scale)

    def indicator(self) -> "_Split":
        """The split of ``f.as_indicator()`` on the same mask."""
        g = self.f.as_indicator()
        return _Split(g, self.mask, self._shared, 1.0 if g is self.f else 0.5)

    def _matrix(self) -> np.ndarray:
        matrix = self._shared.get("matrix")
        if matrix is None:
            f = self._shared["table"]
            rows = complement_mask(self.mask, f.n) if self._side else self.mask
            matrix = fibers(f.values, f.space, rows)
            mean = expectation(f)
            if np.may_share_memory(matrix, f.values):  # fibers in table order
                matrix = matrix - mean
            else:
                matrix -= mean
            self._shared["matrix"] = matrix
        return matrix.T if self._side else matrix

    def _piece(self, name: str, build):
        key = (name, self._side)
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    @property
    def centre(self) -> float:
        """The mean the sums are centred at, in the units of f."""
        centre = expectation(self._shared["table"])
        return (centre + 1.0) * self._scale if self._scale != 1.0 else centre

    def marginal(self) -> np.ndarray:
        """Fiber sums of f less the centre over the complement's weights,
        sum_c w_{U^c}(c) (f(r, c) - centre): (E[f | X_U] - centre) times
        the complement's total weight, which is 1 up to rounding."""
        g = self._piece("marginal", lambda: _contract(self._matrix(), self.rest, self.f.space.q))
        return g * self._scale if self._scale != 1.0 else g

    def l2(self) -> float:
        """Var(E[f | X_U]).  On the full mask the marginal is f - E f
        itself, bitwise, and this is Var f as
        :func:`~cluekit.core.variance_and_spread` forms it."""
        return _deviation_pass(self.marginal(), self.weights, 0.0, self.f.space.q)[0]

    def constancy(self) -> float:
        """P[f is constant on the fiber of X_U], constancy judged exactly
        over the positive-weight configurations of U^c.  It is read off
        f - E f, which on two levels is constant exactly where f is."""

        def build():
            matrix, support = self._matrix(), self.rest > 0.0
            if support.all():
                top, bottom = matrix.max(axis=1), matrix.min(axis=1)
            else:
                top = np.max(matrix, axis=1, where=support, initial=-np.inf)
                bottom = np.min(matrix, axis=1, where=support, initial=np.inf)
            return float(_contract((top == bottom).astype(float), self.weights, self.f.space.q))

        return self._piece("constancy", build)


def _split_of(f: FunctionTable, mask) -> _Split:
    """The split a metric reads: ``mask`` itself when it is a split of f."""
    if isinstance(mask, _Split):
        if mask.f is not f:
            raise ValueError("the split belongs to another table")
        return mask
    return _Split(f, mask)


# ---------------------------------------------------------------------------
# the L^2 clue, by fibers and by spectral weights
# ---------------------------------------------------------------------------
def clue(f: FunctionTable, mask: int | _Split) -> float:
    """Fraction of the variance of f explained by the coordinates in mask.

    Equals the squared correlation between f and E[f | mask].  The ratio is
    conditioned by Var f: its absolute error is a few ulps of
    max |f - E f|^2 over Var f, large only for a nearly constant f.
    """
    split = _split_of(f, mask)
    var = _checked_variance(f)
    return split.l2() / var


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
def sig(f: FunctionTable, mask: int | _Split) -> float:
    """Normalized residual variance left after seeing the complement:
    1 - clue(f | mask^c)."""
    return 1.0 - clue(f, _split_of(f, mask).complement)


# ---------------------------------------------------------------------------
# determinacy: set influence and witness
# ---------------------------------------------------------------------------
def _require_boolean(f: FunctionTable):
    if not f.is_boolean():
        raise ValueError("this metric is defined for Boolean tables only")


def influence_set(f: FunctionTable, mask: int | _Split) -> float:
    """P[f is not determined by the coordinates outside mask]."""
    _require_boolean(f)
    return 1.0 - _split_of(f, mask).complement.constancy()


def witness(f: FunctionTable, mask: int | _Split) -> float:
    """P[the coordinates in mask alone determine f]."""
    _require_boolean(f)
    return _split_of(f, mask).constancy()


# ---------------------------------------------------------------------------
# total-variation clue
# ---------------------------------------------------------------------------
def tv_clue(f: FunctionTable, mask: int | _Split) -> float:
    """E|E[f|mask] - E[f]| / E|f - E[f]| (symmetric and asymmetric variants
    of the underlying distance coincide in this ratio).  The ratio is
    conditioned by E|f - E f|: its absolute error is a few ulps of
    max |f - E f| over E|f - E f|."""
    require_varying(f)
    split = _split_of(f, mask)
    sums = split.marginal()
    # their weighted mean is E f less the centre, up to rounding of its size
    sums = np.abs(sums - float(_contract(sums, split.weights, f.space.q)))
    return float(_contract(sums, split.weights, f.space.q)) / _mean_absolute_deviation(f)


def _weighted_deviation(f: FunctionTable) -> np.ndarray:
    """w (f - m), m the mean under w / sum w: centred before the lattice sums
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
