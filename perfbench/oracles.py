"""Reference values the benchmark checks job outputs against.

Two kinds, both independent of the code paths they check:

* closed forms for the zoo families the Monte Carlo jobs sample (clue of
  sum, dictator, parity, majority, tribes and composite under a coordinate
  subset; noise stability; expected clue of a Bernoulli subset);
* brute-force fiber computations on small dense tables given as
  ``(pi, values)``: the full weight tensor is formed explicitly and the
  dropped axes are summed out, a different route from the package's
  per-coordinate contractions and spectral transforms.

Tables index configurations mixed-radix with coordinate 0 least
significant, so after ``reshape((q,) * n)`` coordinate v sits on axis
``n - 1 - v``.
"""
from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# closed forms on uniform bits
# ---------------------------------------------------------------------------
def _spin_sum_pmf(k: int) -> dict[int, float]:
    """Law of the sum of k fair +-1 spins."""
    return {2 * j - k: math.comb(k, j) / 2.0**k for j in range(k + 1)}


def _upper_tail(k: int, x: float) -> float:
    """P[sum of k fair spins > x]."""
    return sum(p for s, p in _spin_sum_pmf(k).items() if s > x)


def majority_clue(n: int, k: int) -> float:
    """clue(maj_n | U) for |U| = k, n odd (Var(maj) = 1, mean 0)."""
    rest = n - k
    return sum(p * (2.0 * _upper_tail(rest, -s) - 1.0) ** 2
               for s, p in _spin_sum_pmf(k).items())


def _tribe_alive_law(l: int, a: int) -> tuple[float, float]:
    """(P[alive], value of 1 - X when alive) for a tribe of size l with a
    revealed coordinates: alive means every revealed bit is 1, and then the
    tribe is all ones with probability 2^-(l-a)."""
    return 0.5**a, 1.0 - 0.5 ** (l - a)


def _product_law(l: int, counts: list[int]) -> dict[float, float]:
    """Law of prod_i (1 - X_i) over tribes with the given revealed counts."""
    law = {1.0: 1.0}
    for a in counts:
        p_alive, factor = _tribe_alive_law(l, a)
        nxt: dict[float, float] = {}
        for value, p in law.items():
            for v2, p2 in ((value * factor, p * p_alive), (value, p * (1.0 - p_alive))):
                if p2 > 0.0:
                    nxt[v2] = nxt.get(v2, 0.0) + p2
        law = nxt
    return law


def tribes_revealed(l: int, k: int, mask: int, offset: int = 0) -> list[int]:
    return [bin((mask >> (offset + i * l)) & ((1 << l) - 1)).count("1") for i in range(k)]


def tribes_clue(l: int, k: int, mask: int) -> float:
    """clue(tribes_{l,k} | U); tribes = OR over k blocks of the AND of l bits."""
    mean = 1.0 - (1.0 - 0.5**l) ** k
    law = _product_law(l, tribes_revealed(l, k, mask))
    second = sum(p * (1.0 - v) ** 2 for v, p in law.items())
    return (second - mean**2) / (mean * (1.0 - mean))


def balanced_tribe_size(t: int) -> int:
    best_l, best_gap = 1, float("inf")
    for l in range(1, t + 1):
        if t % l == 0:
            gap = abs(1.0 - (1.0 - 0.5**l) ** (t // l) - 0.5)
            if gap < best_gap:
                best_l, best_gap = l, gap
    return best_l


def composite_clue(m: int, t: int, shift: float, mask: int) -> float:
    """clue of the composite (shifted majority on m bits steered by tribes
    on t bits) given U: E[f | U] depends only on the revealed spin sum of
    the majority block and the steering probability of the revealed tribes."""
    l = balanced_tribe_size(t)
    up = shift * math.sqrt(m)
    k_maj = bin(mask & ((1 << m) - 1)).count("1")
    steer_law = _product_law(l, tribes_revealed(l, t // l, mask, offset=m))
    rest = m - k_maj
    tails = {}

    def h(s: int, pi_one: float) -> float:
        for x in (up - s, -up - s):
            if x not in tails:
                tails[x] = _upper_tail(rest, x)
        return 2.0 * (pi_one * tails[up - s] + (1.0 - pi_one) * tails[-up - s]) - 1.0

    first = second = 0.0
    for s, ps in _spin_sum_pmf(k_maj).items():
        for v, pv in steer_law.items():
            value = h(s, 1.0 - v)
            first += ps * pv * value
            second += ps * pv * value * value
    steer_mean = 1.0 - (1.0 - 0.5**l) ** (t // l)
    f_mean = 2.0 * (steer_mean * _upper_tail(m, up) + (1 - steer_mean) * _upper_tail(m, -up)) - 1.0
    return (second - first**2) / (1.0 - f_mean**2)


def zoo_clue(spec: str, mask: int) -> float:
    """Exact clue of a zoo spec on uniform bits, from the closed forms."""
    head, _, tail = spec.partition(":")
    args = tail.split(",")
    if head == "sum":
        return bin(mask).count("1") / int(args[0])
    if head == "dictator":
        return float((mask >> int(args[1])) & 1)
    if head == "parity":
        return 1.0 if mask == (1 << int(args[0])) - 1 else 0.0
    if head == "maj":
        return majority_clue(int(args[0]), bin(mask).count("1"))
    if head == "tribes":
        return tribes_clue(int(args[0]), int(args[1]), mask)
    if head == "composite":
        return composite_clue(int(args[0]), int(args[1]), float(args[2]), mask)
    raise ValueError(f"no closed form for '{spec}'")


def expected_zoo_clue(spec: str, p: float) -> tuple[float, float]:
    """(mean, variance) of clue(f | U) for U ~ Bernoulli(p), for the
    permutation-symmetric families sum and maj."""
    head, _, tail = spec.partition(":")
    if head not in ("sum", "maj"):
        raise ValueError(f"no closed form for '{spec}'")
    n = int(tail)
    values = [zoo_clue(spec, (1 << k) - 1) for k in range(n + 1)]
    weights = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    mean = sum(w * v for w, v in zip(weights, values))
    return mean, sum(w * (v - mean) ** 2 for w, v in zip(weights, values))


def zoo_stability(spec: str, p: float) -> float:
    """Normalized noise stability Cov(f(w), f(w')) / Var(f) for a
    p-correlated pair."""
    head, _, tail = spec.partition(":")
    n = int(tail.split(",")[0])
    if head in ("sum", "dictator"):
        return p
    if head == "parity":
        return p**n
    if head == "maj":
        # k shared coordinates (each kept w.p. p); given their sum a, the two
        # values are independent with mean E[sign(a + B)], B over n-k spins.
        total = 0.0
        for k in range(n + 1):
            pk = math.comb(n, k) * p**k * (1 - p) ** (n - k)
            rest = n - k
            inner = sum(pa * (2.0 * _upper_tail(rest, -a) - 1.0) ** 2
                        for a, pa in _spin_sum_pmf(k).items())
            total += pk * inner
        return total
    raise ValueError(f"no closed form for '{spec}'")


# ---------------------------------------------------------------------------
# brute force on dense tables
# ---------------------------------------------------------------------------
class DenseTable:
    """A function on a small product space, with fiber statistics computed
    from the explicit weight tensor."""

    def __init__(self, pi, values):
        self.pi = np.asarray(pi, dtype=float)
        self.n, self.q = self.pi.shape
        self.values = np.asarray(values, dtype=float)
        shape = (self.q,) * self.n
        w = np.ones(shape)
        for v in range(self.n):
            axis_shape = [1] * self.n
            axis_shape[self.n - 1 - v] = self.q
            w = w * self.pi[v].reshape(axis_shape)
        self.weights = w
        self.tensor = self.values.reshape(shape)
        self.mean = float(np.sum(w * self.tensor))
        self.var = float(np.sum(w * (self.tensor - self.mean) ** 2))

    def _dropped_axes(self, mask: int) -> tuple[int, ...]:
        return tuple(self.n - 1 - v for v in range(self.n) if not (mask >> v) & 1)

    def fibers(self, mask: int, tensor=None) -> tuple[np.ndarray, np.ndarray]:
        """(E[g | U] per kept configuration, marginal weight), zero on
        zero-probability fibers; g defaults to the table itself."""
        t = self.tensor if tensor is None else tensor
        axes = self._dropped_axes(mask)
        marg = np.sum(self.weights, axis=axes)
        num = np.sum(self.weights * t, axis=axes)
        cond = np.divide(num, marg, out=np.zeros_like(num), where=marg > 0)
        return cond, marg

    def clue(self, mask: int) -> float:
        cond, marg = self.fibers(mask)
        return float(np.sum(marg * (cond - self.mean) ** 2)) / self.var

    def tv_clue(self, mask: int) -> float:
        cond, marg = self.fibers(mask)
        denom = float(np.sum(self.weights * np.abs(self.tensor - self.mean)))
        return float(np.sum(marg * np.abs(cond - self.mean))) / denom

    def _constancy(self, fixed: int) -> float:
        """P over the fixed coordinates that f is constant on the fiber,
        judged over positive-probability completions."""
        support = self.weights > 0
        big = np.where(support, self.tensor, -np.inf)
        small = np.where(support, self.tensor, np.inf)
        axes = self._dropped_axes(fixed)
        spread = np.max(big, axis=axes) - np.min(small, axis=axes)
        marg = np.sum(self.weights, axis=axes)
        const = (spread <= 0.0) | ~np.isfinite(spread)
        return float(np.sum(marg * const))

    def influence_set(self, mask: int) -> float:
        return 1.0 - self._constancy(((1 << self.n) - 1) & ~mask)

    def witness(self, mask: int) -> float:
        return self._constancy(mask)

    def _entropy(self, p) -> float:
        p = np.asarray(p, dtype=float).ravel()
        p = p[p > 0]
        return float(-np.sum(p * np.log(p)))

    def i_clue(self, mask: int) -> float:
        levels = np.unique(self.values)
        axes = self._dropped_axes(mask)
        joint = np.stack([np.sum(self.weights * (self.tensor == z), axis=axes) for z in levels])
        h_z = self._entropy(joint.sum(axis=tuple(range(1, joint.ndim))))
        h_u = self._entropy(joint.sum(axis=0))
        mi = max(h_z + h_u - self._entropy(joint), 0.0)
        return min(mi / h_z, 1.0)

    def kl_clue(self, mask: int) -> float:
        t = self.tensor
        if set(np.unique(self.values).tolist()) <= {-1.0, 1.0}:
            t = (t + 1.0) / 2.0

        def ent(vals, w):
            mean = float(np.sum(w * vals))
            xlogx = np.where(vals > 0, vals * np.log(np.maximum(vals, 1e-300)), 0.0)
            return float(np.sum(w * xlogx)) - mean * math.log(mean)

        cond, marg = self.fibers(mask, t)
        return min(max(ent(cond, marg), 0.0) / ent(t, self.weights), 1.0)

    def is_boolean(self) -> bool:
        u = set(np.unique(self.values).tolist())
        return u <= {0.0, 1.0} or u <= {-1.0, 1.0}

    def p_min(self) -> float:
        ind = self.tensor if set(np.unique(self.values).tolist()) <= {0.0, 1.0} else (self.tensor + 1) / 2
        p = float(np.sum(self.weights * ind))
        return min(p, 1.0 - p)

    def metrics(self, mask: int, names: list[str]) -> dict[str, float]:
        """The analyze command's metric fields, computed by brute force."""
        full = (1 << self.n) - 1
        out = {}
        for name in names:
            if name in ("l2", "spectral"):
                out[f"{name}_clue"] = self.clue(mask)
            elif name == "sig":
                out["sig"] = 1.0 - self.clue(full & ~mask)
                out["sig_i"] = 1.0 - self.i_clue(full & ~mask)
            elif name == "inf":
                out["influence_set"] = self.influence_set(mask)
            elif name == "wit":
                out["witness"] = self.witness(mask)
            elif name == "tv":
                out["tv_clue"] = self.tv_clue(mask)
            elif name == "i":
                out["i_clue"] = self.i_clue(mask)
            elif name == "kl":
                out["kl_clue"] = self.kl_clue(mask)
        return out

    def game(self, kind: str) -> np.ndarray:
        """Characteristic function v(S) = Var(E[f|S]) or I(Z : X_S)."""
        size = 1 << self.n
        if kind == "variance":
            v = np.array([self.clue(s) * self.var for s in range(size)])
        else:
            h_z = self._entropy([np.sum(self.weights * (self.tensor == z))
                                 for z in np.unique(self.values)])
            v = np.array([self.i_clue(s) * h_z for s in range(size)])
        v[0] = 0.0
        return v


def shapley(v: np.ndarray, n: int) -> np.ndarray:
    """Shapley value by the permutation-weight formula, one subset at a time."""
    phi = np.zeros(n)
    for s in range(1 << n):
        size = bin(s).count("1")
        weight = math.factorial(size) * math.factorial(n - size - 1) / math.factorial(n) if size < n else 0.0
        for i in range(n):
            if not (s >> i) & 1:
                phi[i] += weight * (v[s | (1 << i)] - v[s])
    return phi


def supermodular_gap(v: np.ndarray, s: int, t: int) -> float:
    """v(S|T) + v(S&T) - v(S) - v(T); negative means a violation."""
    return float(v[s | t] + v[s & t] - v[s] - v[t])


def min_supermodular_gap(v: np.ndarray, n: int) -> float:
    masks = np.arange(1 << n)
    return float(min(np.min(v[s | masks] + v[s & masks] - v[s] - v[masks]) for s in range(1 << n)))
