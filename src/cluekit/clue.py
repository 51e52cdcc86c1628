"""Variance-based measures of how much a coordinate subset tells about a
function: clue, significance, set influence, witness, the total-variation
variant, and the expected clue of random subsets from the level weights.

clue(f | U) = Var(E[f | U]) / Var(f) is the master quantity; everything else
is either a dual (sig), a combinatorial relative (influence / witness), or a
renormalization (TV).  A degenerate (constant) function raises
:class:`~cluekit.errors.DegenerateError` rather than returning 0.

Every per-mask metric, here and in :mod:`cluekit.infotheory`, reads one split
of the table, which :func:`_split_of` chooses.  Any metric takes the split
of a mask in place of the mask, so that the metrics of one mask share it.

* A table on two levels on uniform bits is split by counts
  (:class:`_CountSplit`): the numbers k_r of upper-level cells in each fiber
  of the mask and of its complement, summed out of the table's byte flags
  f != lo one coordinate at a time (:func:`~cluekit.core.fiber_counts`),
  with no permutation and no float array of the table's size.  The L2
  clue, sig, TV, witness and influence are ratios of integers, correctly
  rounded; the information and KL-clue sum nonnegative entropy gaps, one
  log per fiber.
* Any other table is split by fibers (:class:`_Split`): f - E f as the
  fibers matrix of the mask, permuted once.  Its rows contracted with the
  complement's weights give E[f - E f | X_U] and its columns contracted
  with the mask's weights E[f - E f | X_{U^c}].  The split orders the sums;
  each ratio is still conditioned by its denominator, as its route's
  docstring states.

On every space the witness and influence constancy of a Boolean table
counts its byte flags f != lo per fiber with
:func:`~cluekit.core.fiber_counts`, exact integers with no float array of
the table's size, and its E|f - E f| comes from its two level masses, not
from a pass over its values.
"""
from __future__ import annotations

import numpy as np

from .core import (
    FunctionTable,
    _contract,
    _deviation_pass,
    complement_mask,
    expectation,
    extend,
    fiber_counts,
    fibers,
    full_mask,
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
def _level_flags(f: FunctionTable, shared: dict) -> np.ndarray:
    """The byte flags f != lo of a Boolean table's cells, in table order:
    its upper level.  Built once for the splits that share ``shared``."""
    if "upper" not in shared:
        shared["upper"] = f.values != f.value_range()[0]
    return shared["upper"]


class _Split:
    """A table seen through one mask U, for every metric of U.

    The matrix is :func:`~cluekit.core.fibers` of f - E f for whichever of
    U and U^c leaves out coordinate n - 1: a row is a configuration of that
    mask, a column one of the other.  The rows of U are the matrix's rows or
    its columns, so a metric of U reads the same sums whether it was asked
    of U or of the complement of U^c, and sig(f, U) is 1 - clue(f, U^c) bit
    for bit.  The matrix is built on first use, and so is each piece read
    off it.  The splits of U and of U^c keep the matrix, the level flags and
    the pieces in one shared dict, and neither holds the other, so no split
    is part of a reference cycle.

    Centring before the sums keeps their rounding of the size of f - E f,
    not of E f."""

    def __init__(self, f: FunctionTable, mask: int, shared: dict | None = None):
        validate_mask(mask, f.n)
        self.f, self.mask = f, mask
        self._side = mask >> (f.n - 1)  # 1 when U's rows are the matrix's columns
        self._shared = {} if shared is None else shared
        self.weights = f.space.marginal_weights(mask)
        self.rest = f.space.marginal_weights(complement_mask(mask, f.n))

    @property
    def complement(self) -> "_Split":
        return _Split(self.f, complement_mask(self.mask, self.f.n), self._shared)

    def _matrix(self) -> np.ndarray:
        matrix = self._shared.get("matrix")
        if matrix is None:
            f = self.f
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

    def marginal(self) -> np.ndarray:
        """Fiber sums of f - E f over the complement's weights,
        sum_c w_{U^c}(c) (f(r, c) - E f): (E[f | X_U] - E f) times the
        complement's total weight, which is 1 up to rounding."""
        return self._piece("marginal", lambda: _contract(self._matrix(), self.rest, self.f.space.q))

    def l2(self) -> float:
        """Var(E[f | X_U]).  On the full mask the marginal is f - E f
        itself, bitwise, and this is Var f as
        :func:`~cluekit.core.variance_and_spread` forms it."""
        return _deviation_pass(self.marginal(), self.weights, 0.0, self.f.space.q)[0]

    def constancy(self) -> float:
        """P[f is constant on the fiber of X_U], for a table on two levels,
        constancy judged over the positive-weight configurations of U^c: a
        fiber is constant when the count of those cells at the upper level
        is 0 or all of them.  The counts are
        :func:`~cluekit.core.fiber_counts` of the table's level flags,
        cleared on the configurations of U^c of weight 0 (zero atoms, or
        positive atoms whose product underflows): exact integers, as on the
        count route."""

        def build():
            f, support = self.f, self.rest > 0.0
            flags, kept = _level_flags(f, self._shared), np.count_nonzero(support)
            if kept < support.size:
                flags = flags & extend(support, f.space, complement_mask(self.mask, f.n))
            counts = fiber_counts(flags, f.space, self.mask)
            constant = (counts == 0) | (counts == kept)
            return float(_contract(constant.astype(float), self.weights, f.space.q))

        return self._piece("constancy", build)


class _CountSplit:
    """A table on two levels on uniform bits seen through one mask U, for
    every metric of U, from integer counts.  N = 2^n cells, K of them at the
    upper level; fiber r of U holds m = 2^(n - |U|) cells, k_r of them at
    the upper level (:func:`~cluekit.core.fiber_counts` of the table's
    level flags).  Every metric of U is a function of N, m and the k_r,
    since P(f = hi | X_U = r) = k_r / m and P(f = hi) = K / N, whatever the
    two levels.  The splits of U and of U^c keep the flags and the counts of
    each mask in one shared dict, built on first use."""

    def __init__(self, f: FunctionTable, mask: int, shared: dict | None = None):
        validate_mask(mask, f.n)
        self.f, self.mask = f, mask
        self._shared = {} if shared is None else shared

    @property
    def complement(self) -> "_CountSplit":
        return _CountSplit(self.f, complement_mask(self.mask, self.f.n), self._shared)

    def counts(self) -> np.ndarray:
        """k_r for every configuration r of U, in the order of the rows of
        :func:`~cluekit.core.fibers`."""
        counts = self._shared.get(self.mask)
        if counts is None:
            flags = _level_flags(self.f, self._shared)
            counts = self._shared[self.mask] = fiber_counts(flags, self.f.space, self.mask)
        return counts

    def _sizes(self) -> tuple[int, int, int]:
        """(N, m, K) as Python ints; the level mass K / N is exact."""
        n_cells = 1 << self.f.n
        total = round(self.f._level_masses()[1] * n_cells)
        return n_cells, n_cells >> self.mask.bit_count(), total

    def clue(self) -> float:
        """clue(f | U) = (N sum k_r^2 - m K^2) / (m K (N - K)), a ratio of
        integers, which Python's int division rounds correctly.  Two levels
        on uniform bits put 0 < K < N, so the ratio is always defined."""
        n_cells, m, total = self._sizes()
        k = self.counts().astype(np.int64)  # sum k_r^2 <= N m <= 2^52
        return (n_cells * int(k @ k) - m * total**2) / (m * total * (n_cells - total))

    def tv(self) -> float:
        """tv_clue(f, U) = sum_r |N k_r - m K| / (2 K (N - K)), a ratio of
        integers, correctly rounded as :meth:`clue` is."""
        n_cells, m, total = self._sizes()
        deviation = np.abs(self.counts().astype(np.int64) * n_cells - m * total)
        return int(deviation.sum()) / (2 * total * (n_cells - total))

    def constancy(self) -> float:
        """P[f is constant on the fiber of X_U]: the share of counts in
        {0, m}, exact."""
        k, m = self.counts(), self._sizes()[1]
        return np.count_nonzero((k == 0) | (k == m)) / k.size

    def shares(self) -> tuple[float, np.ndarray]:
        """(K / N, the k_r / m): P(f = hi) and P(f = hi | X_U), exact."""
        n_cells, m, total = self._sizes()
        return total / n_cells, self.counts() / m


def _split_of(f: FunctionTable, mask) -> _Split | _CountSplit:
    """The split a metric reads: ``mask`` itself when it is a split of f.
    This is where the route is chosen: a table on two levels on uniform
    bits is split by counts, any other by fibers."""
    if isinstance(mask, (_Split, _CountSplit)):
        if mask.f is not f:
            raise ValueError("the split belongs to another table")
        return mask
    if f.space.is_uniform_binary and f._level_masses() is not None:
        return _CountSplit(f, mask)
    return _Split(f, mask)


# ---------------------------------------------------------------------------
# the L^2 clue, by fibers and by spectral weights
# ---------------------------------------------------------------------------
def clue(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """Fraction of the variance of f explained by the coordinates in mask.

    Equals the squared correlation between f and E[f | mask].  The ratio is
    conditioned by Var f: its absolute error is a few ulps of
    max |f - E f|^2 over Var f, large only for a nearly constant f.  By
    counts it is correctly rounded.
    """
    split = _split_of(f, mask)
    if isinstance(split, _CountSplit):
        return split.clue()
    var = _checked_variance(f)
    return split.l2() / var


def clue_spectral(sample: np.ndarray, mask: int) -> float:
    """P[sample subseteq mask | sample nonempty], from the spectral sample
    (the 2^n vector of :func:`~cluekit.spectral.spectral_distribution`).
    Agrees with :func:`clue` on product measures."""
    n = sample.size.bit_length() - 1
    validate_mask(mask, n)
    # the entries S subseteq mask in increasing order of S: axis n-1-v of the
    # (2,)*n view is coordinate v, held at 0 outside the mask
    kept = tuple(slice(None) if mask >> v & 1 else 0 for v in reversed(range(n)))
    return float(sample.reshape((2,) * n)[kept].reshape(-1).sum())


def clue_all_subsets_table(f: FunctionTable) -> np.ndarray:
    """clue(f | mask) for every mask, via subset weights (any product measure).
    Conditioned by Var f as :func:`clue` is: a few ulps of max |f - E f|^2
    over Var f, plus the weights' own rounding: rows that sum to 1 only
    within d move each entry by about d.  The full mask reads 1 exactly, as
    :func:`clue` does: E[f | all coordinates] is f."""
    var = _checked_variance(f)
    values = projected_variances(f)
    values /= var
    values[-1] = 1.0
    return values


# ---------------------------------------------------------------------------
# significance: the dual of clue
# ---------------------------------------------------------------------------
def sig(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """Normalized residual variance left after seeing the complement:
    1 - clue(f | mask^c)."""
    return 1.0 - clue(f, _split_of(f, mask).complement)


# ---------------------------------------------------------------------------
# determinacy: set influence and witness
# ---------------------------------------------------------------------------
def _require_boolean(f: FunctionTable):
    if not f.is_boolean():
        raise ValueError("this metric is defined for Boolean tables only")


def influence_set(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """P[f is not determined by the coordinates outside mask].  Outside the
    empty mask lie all coordinates, which determine f: 0 exactly, however
    far from 1 the weights' sum is rounded."""
    _require_boolean(f)
    split = _split_of(f, mask)
    if split.mask == 0:
        return 0.0
    return 1.0 - split.complement.constancy()


def witness(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """P[the coordinates in mask alone determine f]."""
    _require_boolean(f)
    return _split_of(f, mask).constancy()


# ---------------------------------------------------------------------------
# total-variation clue
# ---------------------------------------------------------------------------
def tv_clue(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """E|E[f|mask] - E[f]| / E|f - E[f]| (symmetric and asymmetric variants
    of the underlying distance coincide in this ratio).  The ratio is
    conditioned by E|f - E f|: its absolute error is a few ulps of
    max |f - E f| over E|f - E f|.  By counts it is correctly rounded.
    E[f | X_all] = f, so on the full mask the numerator is the denominator
    and the ratio reads 1 exactly."""
    require_varying(f)
    split = _split_of(f, mask)
    if isinstance(split, _CountSplit):
        return split.tv()
    denom = _mean_absolute_deviation(f)
    if split.mask == full_mask(f.n):
        return denom / denom
    sums = split.marginal()
    # their weighted mean is E f less the computed E f, up to rounding of its size
    sums = np.abs(sums - float(_contract(sums, split.weights, f.space.q)))
    return float(_contract(sums, split.weights, f.space.q)) / denom


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
    """E|f - m|, m the mean under w / sum w.  A Boolean table on levels
    lo < hi has it from its level masses P_lo and P_hi, with T = P_lo + P_hi:
    E|f - m| = P_lo (m - lo) + P_hi (hi - m) = 2 (hi - lo) P_lo P_hi / T, a
    product of positive terms, so its relative error is a few ulps over the
    masses' own, however small one of them is.  Other tables sum
    |w (f - m)| over every configuration, each term with rounding of the
    size of max |f - E f|."""
    masses = f._level_masses()
    if masses is None:
        return float(np.abs(_weighted_deviation(f)).sum())
    (lo, hi), (p_lo, p_hi) = f.value_range(), masses
    return 2.0 * (hi - lo) * p_lo * p_hi / (p_lo + p_hi)


def tv_clue_all_subsets(f: FunctionTable) -> np.ndarray:
    """tv_clue(f, U) for every mask U.  With S the lattice of w (f - E f),
    E|E[f|U] - E f| is the sum of |S| over the kept slots of U.  Conditioned
    by E|f - E f| as :func:`tv_clue` is: a few ulps of max |f - E f| over
    E|f - E f|.  E[f | X_empty] = E f and E[f | X_all] = f, so the empty
    mask reads 0 and the full mask 1 exactly, as per mask.

    O(n (q+1)^n) time, in the slabs of :func:`~cluekit.transforms.lattice_sums`.
    """
    require_varying(f)
    denom = _mean_absolute_deviation(f)
    tv = lattice_sums(_weighted_deviation(f), f.space.q, np.abs) / denom
    tv[0], tv[-1] = 0.0, 1.0
    return tv


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
