"""Entropy-based measures: exact mutual information between a function's
value and a coordinate marginal, and the I-clue and KL-clue ratios.

All entropies are in nats.  Function values are grouped into a discrete
variable with absolute tolerance 1e-12, and every quantity is computed from
the exact joint table (no estimation).  The per-mask routes read the split
of one subset U that the clue metrics read (:func:`cluekit.clue._split_of`).
Split by fibers (:class:`cluekit.clue._Split`), the KL-clue sums entropy
gaps of the centred marginal E[f | X_U] - E f, and the joint law of
(Z, X_U) of a Boolean table on levels lo < hi is w_U P(f = z | X_U), with
P(f = hi | X_U) = (E[f | X_U] - lo) / (hi - lo) read off the same marginal
(I(Z : X_U) = sum_z Ent(E[1_z | X_U]) depends on U only through it).  Split
by counts (:class:`cluekit.clue._CountSplit`, a table on two levels on
uniform bits), P(f = hi | X_U = r) = k_r / m is exact, and I(Z : X_U) and
Ent(E[f | X_U]) are sums of nonnegative entropy gaps over it, one log per
fiber.  The KL clue of a table on two levels is that of the {0, 1}
indicator of its upper level, read off the table's own split and level
masses: no second table is built.  A Boolean table's value law is its two
level masses, and a functional of the value alone is a sum over them:
sum_c w_c phi(f_c) = sum_z P(z) phi(z), so H(Z) and Ent(f) take no pass
over the table's values.  Other tables group their values by one sort and
count the joint law with ``np.bincount``.  The ``*_all_subsets`` routes
read every subset at once off the keep-or-sum-out lattice of
:mod:`cluekit.transforms`.  The routes' docstrings state what each ratio is
conditioned by; the split changes the order of the sums, not that.
"""
from __future__ import annotations

import numpy as np

from .core import (
    BIT_LEVELS,
    FunctionTable,
    _contract,
    expectation,
    extend,
    full_mask,
    per_object,
    require_bytes,
    require_varying,
)
from .clue import _CountSplit, _Split, _split_of
from .errors import DegenerateError
from .transforms import lattice_sums

VALUE_GROUP_TOL = 1e-12


def entropy(probs: np.ndarray) -> float:
    """-sum p ln p with 0 ln 0 = 0, in nats."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def group_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group near-equal reals (ties within ``VALUE_GROUP_TOL`` merge).

    Returns (codes, representatives): codes[i] indexes the group of values[i].
    The sorted values are the same under any sorting permutation, and equal
    values share a group, so an unstable sort gives the same codes.
    """
    order = np.argsort(values)
    sorted_vals = values[order]
    new_group = np.empty(len(values), dtype=bool)
    new_group[0] = True
    new_group[1:] = np.diff(sorted_vals) > VALUE_GROUP_TOL
    group_of_sorted = np.cumsum(new_group) - 1
    codes = np.empty(len(values), dtype=np.int64)
    codes[order] = group_of_sorted
    reps = sorted_vals[new_group]
    return codes, reps


@per_object
def _value_groups(f: FunctionTable) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_values` of the table's values.  A Boolean table needs no
    sort: its groups are its two levels, or one for a constant table, and a
    value's code is whether it is the higher one."""
    if not f.is_boolean():
        return group_values(f.values)
    lo, hi = f.value_range()
    return f.values != lo, np.array([lo, hi][: 1 + (lo < hi)])


@per_object
def _value_probs(f: FunctionTable) -> np.ndarray:
    """The weight of each value group; a Boolean table on two levels has
    its level masses, so a level off the support weighs exactly 0."""
    masses = f._level_masses()
    if masses is not None:
        return np.array(masses)
    codes, reps = _value_groups(f)
    return np.bincount(codes, weights=f.space.config_weights(), minlength=len(reps))


@per_object
def value_entropy(f: FunctionTable) -> float:
    """Entropy of the grouped value distribution of f."""
    return entropy(_value_probs(f))


def joint_with_subset(f: FunctionTable, mask: int | _Split | _CountSplit) -> np.ndarray:
    """Exact joint law of (value group of f, configuration of the ``mask``
    coordinates), shape (value groups, q^|mask|).  A Boolean table that
    takes both levels has the law w_U P(f = z | X_U), from the marginal of
    its split or, by counts, from its fiber counts."""
    space = f.space
    split = _split_of(f, mask)
    mask = split.mask
    codes, reps = _value_groups(f)
    n_u, n_z = space.q ** mask.bit_count(), len(reps)
    require_bytes(8 * n_z * n_u, f"a joint law of {n_z} values by {n_u} configurations")
    if isinstance(split, _CountSplit):  # w_U = 2^-|U|: every entry is exact
        upper = split.shares()[1]
        return np.stack([1.0 - upper, upper]) / n_u
    if f.is_boolean() and n_z == 2:
        # level hi's weight on each fiber, sum_c w_{U^c}(c) [f(r, c) = hi]
        lo, hi = reps
        total = split.rest.sum()
        upper = (split.marginal() + (expectation(f) - lo) * total) / (hi - lo)
        joint = np.stack([total - upper, upper])
        np.maximum(joint, 0.0, out=joint)
        joint *= split.weights
        return joint
    u_codes = extend(np.arange(n_u), space, mask)
    flat = np.bincount(
        codes * n_u + u_codes, weights=space.config_weights(), minlength=n_z * n_u
    )
    return flat.reshape(n_z, n_u)


def mutual_information(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """I(Z : X_mask) where Z groups the values of f, never below 0.  Z is a
    function of all coordinates, so on the full mask this is H(Z) itself,
    and X_empty is constant, so on the empty mask it is 0 exactly.

    By counts, with p = P(f = hi) and p_r = P(f = hi | X_U = r), it is
    sum_r w_r D(p_r || p), the Bernoulli divergences summed as the entropy
    gaps of p_r and of 1 - p_r: every term is nonnegative, so its absolute
    error is a few ulps of H(Z), however small H(Z) is."""
    split = _split_of(f, mask)
    if split.mask == 0:
        return 0.0
    if split.mask == full_mask(f.n):
        return value_entropy(f)
    if isinstance(split, _CountSplit):
        p, upper = split.shares()
        gaps = _entropy_gaps(upper, p) + _entropy_gaps(1.0 - upper, 1.0 - p)
        return max(float(gaps.mean()), 0.0)
    joint = joint_with_subset(f, split)
    h_z = entropy(joint.sum(axis=1))
    h_u = entropy(joint.sum(axis=0))
    h_joint = entropy(joint.reshape(-1))
    return max(h_z + h_u - h_joint, 0.0)


def _x_log_x(lattice: np.ndarray) -> np.ndarray:
    """x ln x of every entry, in place, with 0 ln 0 = 0."""
    log = np.maximum(lattice, 1e-300)
    np.log(log, out=log)
    lattice *= log
    return lattice


def mutual_information_all_subsets(f: FunctionTable) -> np.ndarray:
    """I(Z : X_U) for every mask U, each never below 0 and 0 on the empty
    mask, as H(Z) + H(X_U) - H(Z, X_U) with every entropy read off the
    lattice of the (value group x configuration) joint law, one value group
    at a time.

    A group on a single positive-weight configuration c has P(z, x_U) = w(c)
    at x_U = c_U for every U: it adds the same -w(c) ln w(c) to every
    H(Z, X_U), H(Z) included, so it cancels and needs no lattice.
    O(n (q+1)^n) time per group of two or more positive-weight
    configurations, plus one lattice for H(X_U), each in the slabs of
    :func:`~cluekit.transforms.lattice_sums`.

    Each entry's absolute error is a few ulps of H(Z, X_U) <= H(Z) + |U| ln q,
    so an I-clue formed by dividing by H(Z) is conditioned by H(Z) as
    :func:`i_clue` is.
    """
    space = f.space
    codes, reps = _value_groups(f)
    w = space.config_weights()
    h_u = -lattice_sums(w, space.q, _x_log_x)
    support = np.bincount(codes, weights=w > 0.0, minlength=len(reps))
    h_joint = np.zeros(1 << space.n)
    for z in np.flatnonzero(support > 1):
        h_joint -= lattice_sums(np.where(codes == z, w, 0.0), space.q, _x_log_x)
    # the empty mask sums every coordinate out: H(Z, X_empty) = H(Z), and
    # X_empty is constant, so I(Z : X_empty) is 0 exactly, as per mask
    mi = np.maximum(h_joint[0] + h_u - h_joint, 0.0)
    mi[0] = 0.0
    return mi


def i_clue(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """I(Z : X_mask) / H(Z), in [0, 1]; needs two value groups of positive
    weight.  The ratio is conditioned by H(Z): I is a difference of
    entropies as large as H(Z, X_mask) <= H(Z) + |mask| ln q, so its absolute
    error is a few ulps of that over H(Z), large when Z is nearly
    deterministic.  By counts, I is a sum of divergences and the ratio's
    absolute error is a few ulps."""
    if np.count_nonzero(_value_probs(f)) < 2:
        raise DegenerateError("constant function: I-clue undefined")
    return min(mutual_information(f, mask) / value_entropy(f), 1.0)


def sig_i(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """Entropy dual: 1 - I(Z : X_{mask^c}) / H(Z)."""
    return 1.0 - i_clue(f, _split_of(f, mask).complement)


# ---------------------------------------------------------------------------
# the multiplicative entropy functional and the KL-clue
# ---------------------------------------------------------------------------
def _entropy_gaps(vals: np.ndarray, mean: float, gap: np.ndarray | None = None) -> np.ndarray:
    """v ln(v / mean) - v + mean for each v >= 0 (0 ln 0 = 0), mean > 0;
    ``gap``, when given, is v - mean formed without rounding to mean's size.

    Every term is nonnegative, and under weights w with w @ vals = mean and
    unit total they sum to E[v ln v] - mean ln mean without that difference's
    cancellation: the ratio's log is log1p((v - mean) / mean), so a term near
    v = mean carries rounding of the size of |v - mean|, not of v ln v.
    """
    if gap is None:
        gap = vals - mean
    log = np.log1p(np.maximum(gap / mean, np.nextafter(-1.0, 0.0)))
    return vals * log - gap


@per_object
def ent_functional(f: FunctionTable) -> float:
    """E[f ln f] - E[f] ln E[f] for f >= 0, with 0 ln 0 = 0, as
    sum_c w_c gap(f_c, E f) with the entropy gaps of :func:`_entropy_gaps`.

    Nonnegative by convexity; equals the relative entropy of the f-biased
    measure against the base measure, scaled by E[f].  Every term is
    nonnegative, so nothing cancels.  A {0, 1} table is the indicator of
    its upper level and sums over its two levels (:func:`_measured`).  Other
    tables sum the gap of every configuration, each within a few ulps of
    its own size.
    """
    _require_nonnegative(f, "ent_functional")
    mean = expectation(f)
    if mean <= 0.0:
        raise DegenerateError("ent_functional needs E[f] > 0")
    if f._level_masses() is not None:
        return _measured(f)[1]
    return float(_contract(_entropy_gaps(f.values, mean), f.space.config_weights(), f.space.q))


def _require_nonnegative(f: FunctionTable, what: str):
    if f.value_range()[0] < 0.0:
        raise ValueError(f"{what} needs f >= 0")


def _measured(f: FunctionTable) -> tuple[float, float]:
    """(mean, Ent) of what the KL clue measures.  A table on two levels
    lo < hi is measured as the {0, 1} indicator of its upper level, whatever
    the levels: its mean is P_hi and its Ent sums P(z) gap(z, P_hi) over
    z = 0, 1 with its level masses, so its relative error is a few ulps over
    that of the masses, however small one mass is.  Any other table is
    measured as itself: E f and :func:`ent_functional`, for f >= 0."""
    masses = f._level_masses()
    if masses is None:
        return expectation(f), ent_functional(f)
    gap_lo, gap_hi = _entropy_gaps(np.array(BIT_LEVELS), masses[1])
    return masses[1], float(masses[0] * gap_lo + masses[1] * gap_hi)


def _ent_of_marginal(split: _Split | _CountSplit) -> float:
    """Ent(E[g | X_U]) of what the KL clue measures, g = f or the indicator
    (f - lo) / (hi - lo) of a table on two levels (:func:`_measured`),
    summed over the fiber sums v = sum_c w_{U^c}(c) g(r, c) as
    :func:`ent_functional` sums the table, so that weights which add up to
    1 only up to rounding enter both alike.  v - E g is formed from the
    split's centred sums of f, divided by hi - lo (1 or 2, so exactly).  By
    counts, the sum is over the exact p_r = E[g | X_U = r] with p = E g.
    E[g | X_all] = g, so the full mask gives Ent(g) itself, and
    E[g | X_empty] = E g, so the empty mask gives 0."""
    f = split.f
    if split.mask == 0:
        return 0.0
    mean, ent = _measured(f)
    if split.mask == full_mask(f.n):
        return ent
    if isinstance(split, _CountSplit):
        p, upper = split.shares()
        return float(_entropy_gaps(upper, p).mean())
    total, centre, sums = split.rest.sum(), expectation(f), split.marginal()
    if f._level_masses() is not None:
        lo, hi = f.value_range()
        centre, sums = (centre - lo) / (hi - lo), sums / (hi - lo)
    gap = sums + (centre * (total - 1.0) + (centre - mean))
    return float(_contract(_entropy_gaps(mean + gap, mean, gap), split.weights, f.space.q))


def _kl_denominator(f: FunctionTable) -> float:
    """Ent of what the KL clue measures (:func:`_measured`), refused when
    the table is constant on the support or the Ent is not positive."""
    require_varying(f)
    denom = _measured(f)[1]
    if denom <= 0.0:
        raise DegenerateError("constant function: KL clue undefined")
    return denom


def kl_clue(f: FunctionTable, mask: int | _Split | _CountSplit) -> float:
    """Ent(E[g | mask]) / Ent(g), in [0, 1], for g = f >= 0, or for g the
    {0, 1} indicator of the upper level of a table on two levels (a {-1, 1}
    table's KL clue is that of (f + 1) / 2).  The ratio is conditioned by
    Ent(g): its absolute error is a few ulps of max g (times the log of
    max g / E g) over Ent(g), large when g is nearly constant.  By counts,
    every entropy gap is nonnegative and the ratio's absolute error is a few
    ulps.  On the full mask the numerator is Ent(g) and the ratio reads 1
    exactly, on the empty mask 0 exactly."""
    denom = _kl_denominator(f)
    return min(max(_ent_of_marginal(_split_of(f, mask)), 0.0) / denom, 1.0)


def kl_clue_all_subsets(f: FunctionTable) -> np.ndarray:
    """kl_clue(f, U) for every mask U.  With A the lattice of w g (g = f, or
    the indicator f != lo of a table on two levels) and W =
    :func:`~cluekit.transforms.kept_weights`, Ent(E[g | U]) sums W times the
    entropy gap of A / W over the kept slots of U, the terms that
    :func:`kl_clue` sums for one U.  Conditioned by Ent(g) as :func:`kl_clue`
    is: a few ulps of max g (times the log of max g / E g) over Ent(g).
    E[g | X_empty] = E g and E[g | X_all] = g, so the empty mask reads 0
    and the full mask 1 exactly, as per mask.

    O(n (q+1)^n) time, in the slabs of :func:`~cluekit.transforms.lattice_sums`.
    """
    denom = _kl_denominator(f)
    mean = _measured(f)[0]
    g = f.values if f._level_masses() is None else f.values != f.value_range()[0]

    def gaps(a, weights):
        # E[g | kept slots]; A is 0 where W is 0
        np.divide(a, weights, out=a, where=weights > 0.0)
        return weights * _entropy_gaps(a, mean)

    ent = lattice_sums(f.space.config_weights() * g, f.space.q, gaps, f.space.pi)
    kl = np.minimum(np.maximum(ent, 0.0) / denom, 1.0)
    kl[0], kl[-1] = 0.0, 1.0
    return kl
