"""Configuration spaces, product measures, dense function tables and subset
masks.

Conventions used everywhere in the package:

* A configuration over ``n`` coordinates with alphabet size ``q`` is encoded
  as a mixed-radix integer with coordinate 0 as the least significant digit:
  ``index = sum_v digit[v] * q**v``.
* For binary spaces the digit/spin dictionary is ``digit 0 -> spin -1`` and
  ``digit 1 -> spin +1``.
* Coordinate subsets are plain Python ints used as bitmasks (bit v set means
  coordinate v belongs to the subset).

Dense tables hold one float per configuration, so the exact engine is gated
at ``q**n <= 2**26`` (:data:`EXACT_GUARD`); anything larger must go through
the Monte Carlo module.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GuardError

EXACT_GUARD = 1 << 26
PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# subset masks
# ---------------------------------------------------------------------------
def mask_from_indices(indices: Sequence[int], n: int) -> int:
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"coordinate {i} out of range for n={n}")
        mask |= 1 << i
    return mask


def mask_indices(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def full_mask(n: int) -> int:
    return (1 << n) - 1


def complement_mask(mask: int, n: int) -> int:
    return full_mask(n) & ~mask


def validate_mask(mask: int, n: int) -> int:
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} sets bits >= n={n}")
    return mask


# ---------------------------------------------------------------------------
# product space
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ProductSpace:
    """Finite product configuration space with a per-coordinate measure.

    ``pi`` has shape (n, q): row v is the probability vector of coordinate v.
    Zero-probability atoms are allowed; rows must sum to 1 within 1e-12.
    Instances are immutable and safe to share between threads.
    """

    n: int
    q: int
    pi: np.ndarray = field(repr=False)

    def __eq__(self, other):
        return (
            isinstance(other, ProductSpace)
            and self.n == other.n
            and self.q == other.q
            and np.array_equal(self.pi, other.pi)
        )

    def __hash__(self):
        return hash((self.n, self.q, self.pi.tobytes()))

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.q < 2:
            raise ValueError("need q >= 2")
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (self.n, self.q):
            raise ValueError(f"pi must have shape ({self.n}, {self.q})")
        if np.any(pi < -PROB_TOL) or np.any(pi > 1 + PROB_TOL):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.abs(pi.sum(axis=1) - 1.0) > PROB_TOL):
            raise ValueError("each coordinate's probabilities must sum to 1")
        object.__setattr__(self, "pi", np.clip(pi, 0.0, 1.0))
        object.__setattr__(self, "_cache", {})

    # -- size and guards ----------------------------------------------------
    @property
    def size(self) -> int:
        return self.q**self.n

    def check_exact_guard(self):
        if self.size > EXACT_GUARD:
            raise GuardError(
                f"q^n = {self.q}^{self.n} exceeds the exact-engine guard 2^26; "
                "use the montecarlo module"
            )

    @property
    def is_uniform_binary(self) -> bool:
        return self.q == 2 and bool(np.all(self.pi == 0.5))

    @property
    def has_zero_atoms(self) -> bool:
        return bool(np.any(self.pi == 0.0))

    # -- cached per-space arrays ---------------------------------------------
    def marginal_weights(self, mask: int) -> np.ndarray:
        """Product-measure weight of every configuration of the coordinates in
        ``mask`` (re-indexed in increasing order, least significant first),
        length q^|mask|."""
        validate_mask(mask, self.n)
        w = np.array([1.0])
        for v in reversed(mask_indices(mask)):
            w = np.kron(w, self.pi[v])
        return w

    def config_weights(self) -> np.ndarray:
        """Product-measure weight of every configuration, length q^n."""
        cached = self._cache.get("weights")
        if cached is None:
            cached = self._cache["weights"] = self.marginal_weights(full_mask(self.n))
        return cached

    def digits(self) -> np.ndarray:
        """(q^n, n) uint8 matrix: digits()[c, v] is coordinate v of config c."""
        cached = self._cache.get("digits")
        if cached is None:
            idx = np.arange(self.size)
            cols = [(idx // self.q**v) % self.q for v in range(self.n)]
            cached = self._cache["digits"] = np.stack(cols, axis=1).astype(np.uint8)
        return cached

    def tensor_shape(self) -> tuple[int, ...]:
        return (self.q,) * self.n

    def axis_of(self, coord: int) -> int:
        """Tensor axis of a coordinate after reshape to (q,)*n (C order)."""
        return self.n - 1 - coord

    # -- index codec ----------------------------------------------------------
    def encode(self, digits: Sequence[int]) -> int:
        index = 0
        for v in reversed(range(self.n)):
            d = int(digits[v])
            if not 0 <= d < self.q:
                raise ValueError(f"digit {d} out of range for q={self.q}")
            index = index * self.q + d
        return index

    def decode(self, index: int) -> list[int]:
        if not 0 <= index < self.size:
            raise ValueError("configuration index out of range")
        digits = []
        for _ in range(self.n):
            digits.append(index % self.q)
            index //= self.q
        return digits

    def spins(self) -> np.ndarray:
        """(q^n, n) matrix of +-1 spins; binary spaces only."""
        if self.q != 2:
            raise GuardError("spins are defined for q = 2 only")
        return self.digits().astype(np.int8) * 2 - 1


def uniform_space(n: int, q: int = 2) -> ProductSpace:
    return ProductSpace(n, q, np.full((n, q), 1.0 / q))


def biased_bits(n: int, p_plus: float | Sequence[float]) -> ProductSpace:
    """Binary space where coordinate v takes spin +1 with probability
    ``p_plus`` (scalar or one entry per coordinate)."""
    p = np.broadcast_to(np.asarray(p_plus, dtype=float), (n,))
    pi = np.stack([1.0 - p, p], axis=1)
    return ProductSpace(n, 2, pi)


# ---------------------------------------------------------------------------
# function tables
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Dense real-valued function over all configurations of a space."""

    space: ProductSpace
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.space.size,):
            raise ValueError(
                f"values must have length q^n = {self.space.size}, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.space.n

    def is_boolean(self) -> bool:
        """True for {0,1}- or {-1,+1}-valued tables (exact comparison)."""
        u = np.unique(self.values)
        return (
            u.size <= 2
            and (set(u.tolist()) <= {0.0, 1.0} or set(u.tolist()) <= {-1.0, 1.0})
        )

    def as_indicator(self) -> "FunctionTable":
        """Map a Boolean table to its {0,1} normalization."""
        if not self.is_boolean():
            raise ValueError("table is not Boolean")
        vals = self.values
        if set(np.unique(vals).tolist()) <= {-1.0, 1.0}:
            vals = (vals + 1.0) / 2.0
        return FunctionTable(self.space, vals)

    def evaluator(self):
        """Batch evaluator digits->(values), for the Monte Carlo engine."""
        space, values = self.space, self.values

        def evaluate(digits: np.ndarray) -> np.ndarray:
            idx = np.zeros(len(digits), dtype=np.int64)
            for v in reversed(range(space.n)):
                idx = idx * space.q + digits[:, v].astype(np.int64)
            return values[idx]

        return evaluate


def table_from_digits(space: ProductSpace, fn) -> FunctionTable:
    """Build a table by evaluating ``fn`` on the (q^n, n) digit matrix."""
    space.check_exact_guard()
    return FunctionTable(space, np.asarray(fn(space.digits()), dtype=float))


# ---------------------------------------------------------------------------
# moments and conditional expectation
# ---------------------------------------------------------------------------
def expectation(f: FunctionTable) -> float:
    return float(f.space.config_weights() @ f.values)


def weighted_variance(values: np.ndarray, weights: np.ndarray) -> float:
    """Corrected two-pass variance: centered before squaring, so a large
    offset does not cancel it away, minus the squared mean of the deviations,
    which removes the rounding error of the mean (zero for constant values)."""
    dev = values - float(weights @ values)
    return max(float(weights @ (dev * dev)) - float(weights @ dev) ** 2, 0.0)


def variance(f: FunctionTable) -> float:
    return weighted_variance(f.values, f.space.config_weights())


def covariance(f: FunctionTable, g: FunctionTable) -> float:
    if f.space is not g.space and f.space != g.space:
        raise ValueError("tables live on different spaces")
    w = f.space.config_weights()
    return float(w @ ((f.values - expectation(f)) * (g.values - expectation(g))))


def correlation(f: FunctionTable, g: FunctionTable) -> float:
    vf, vg = variance(f), variance(g)
    if vf <= 0.0 or vg <= 0.0:
        raise ValueError("correlation undefined for a constant table")
    return covariance(f, g) / np.sqrt(vf * vg)


def l2_norm_sq(f: FunctionTable) -> float:
    return float(f.space.config_weights() @ (f.values**2))


def conditional_marginal(f: FunctionTable, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """Average out the coordinates not in ``mask``.

    Returns ``(values, weights)``: the conditional expectation as a table over
    the kept coordinates (length q^|mask|, kept coordinates re-indexed in
    increasing order with the same least-significant-first convention) and the
    marginal weight of each kept configuration.  Entries sitting on
    zero-probability marginals are set to 0.
    """
    space = f.space
    validate_mask(mask, space.n)
    t = f.values.reshape(space.tensor_shape())
    dropped = [v for v in range(space.n) if not (mask >> v) & 1]
    for v in dropped:  # ascending v = descending axis, so axes stay valid
        t = np.tensordot(t, space.pi[v], axes=([space.axis_of(v)], [0]))
    w = space.marginal_weights(mask)
    values = t.reshape(-1).copy()
    values[w == 0.0] = 0.0
    return values, w


def conditional_expectation(f: FunctionTable, mask: int) -> FunctionTable:
    """E[f | coordinates in mask], returned as a full table constant on each
    fiber of the conditioning set.  On zero-probability fibers the value is
    defined as 0 (the space's ``has_zero_atoms`` flag tells reports to care).
    """
    space = f.space
    validate_mask(mask, space.n)
    marg, _ = conditional_marginal(f, mask)
    kept = [v for v in range(space.n) if (mask >> v) & 1]
    shape = [1] * space.n
    for v in kept:
        shape[space.axis_of(v)] = space.q
    t = marg.reshape(shape)
    full = np.broadcast_to(t, space.tensor_shape())
    return FunctionTable(space, full.reshape(-1))


# ---------------------------------------------------------------------------
# random coordinate subsets
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RandomSetDistribution:
    """Distribution over coordinate subsets, as explicit (mask, prob) atoms."""

    n: int
    atoms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        total = 0.0
        for mask, p in self.atoms:
            validate_mask(mask, self.n)
            if p < -PROB_TOL:
                raise ValueError("atom probabilities must be nonnegative")
            total += p
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total}, not 1")


def revealment(dist: RandomSetDistribution) -> float:
    """max_j P[j in U]: the largest single-coordinate inclusion probability."""
    best = 0.0
    for j in range(dist.n):
        pj = sum(p for mask, p in dist.atoms if (mask >> j) & 1)
        best = max(best, pj)
    return best


def singleton_sets(n: int) -> RandomSetDistribution:
    return RandomSetDistribution(n, tuple((1 << j, 1.0 / n) for j in range(n)))


def bernoulli_sets(n: int, p: float) -> RandomSetDistribution:
    """Each coordinate included independently with probability p (2^n atoms)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n > 20:
        raise GuardError("explicit Bernoulli set distribution gated at n <= 20")
    masks = np.arange(1 << n)
    probs = np.ones(1 << n)
    for v in range(n):
        bit = (masks >> v) & 1
        probs *= np.where(bit == 1, p, 1.0 - p)
    return RandomSetDistribution(n, tuple(zip(masks.tolist(), probs.tolist())))


def translate_sets(mask: int, perms: Sequence[Sequence[int]], n: int) -> RandomSetDistribution:
    """Uniform distribution over the images of ``mask`` under the given
    coordinate permutations."""
    validate_mask(mask, n)
    atoms: dict[int, float] = {}
    for perm in perms:
        img = 0
        for v in mask_indices(mask):
            img |= 1 << perm[v]
        atoms[img] = atoms.get(img, 0.0) + 1.0 / len(perms)
    return RandomSetDistribution(n, tuple(atoms.items()))
