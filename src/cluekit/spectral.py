"""Orthogonal decompositions of functions on product spaces and the
distributions they induce on coordinate subsets.

One transform serves every product measure.  Coordinate v gets a basis of
R^q that is orthonormal under pi_v: row 0 is the constant function, the
others come from weighted Gram-Schmidt over e_{q-1}, ..., e_0, skipping
zero-probability atoms.  Contracting axis v of a table with
B_v diag(pi_v), for every v, gives the coefficients of the function in the
product basis; contracting with B_v^T inverts it (on the support).  A
coefficient whose non-constant basis indices sit on the coordinates S
belongs to the Efron-Stein component f_S, so ||f_S||^2 is the sum of those
coefficients squared.  On uniform bits the basis is the Walsh basis and the
coefficients are the character coefficients, and the squares come from the
fixed Walsh matrix [[1, 1], [-1, 1]], built once per n: Gram-Schmidt gives
exactly that on (1/2, 1/2).  A table's coefficients are computed once and
kept; the weights ||f_S||^2 are squared from them on each call, since on
bits they are as long as the table.

A table of a count law (parity, sum, maj and amaj, built by
:meth:`~cluekit.core.FunctionTable.from_count_law`) runs no transform.  Its
character coefficient at S depends on k = |S| alone: a_k = A_k / 2^n with
A_k = sum_w law[w] M[k, w], where row k of M holds the coefficients of
(z - 1)^k (1 + z)^(n - k), binomials times Krawtchouk values (MacWilliams
and Sloane, *The Theory of Error-Correcting Codes*, 1977, ch. 5).  M holds
integers whose rows sum to at most 2^n in absolute value, and the law
integers below 2^(53 - n), so every partial sum of A_k is an exact integer:
a_k is bitwise the coefficient the transform gives, whose own sums are
exact on such a table.  The 2^n coefficients are a popcount gather of the
n+1 numbers a_k, built and kept only when :func:`walsh_hadamard` asks; the
weights ||f_S||^2 are a gather of a_k^2, so the table keeps no coefficient
vector for them.

The contractions go in blocks of consecutive coordinates: one matrix
product per block with the Kronecker square of its coordinates' matrices,
at most BLOCK_ROWS rows (four coordinates on bits, two for q = 3 or 4, one
above), as in blocked Walsh-Hadamard transforms (Johnson and Pueschel,
ICASSP 2000).  A block of k coordinates costs q^k multiplications per
entry where k single coordinates cost k q, but takes one product instead
of k; on bits, where a single coordinate is a 2x2 product, the call count
is what costs.  On uniform bits an integer-valued table, every zoo table
among them, transforms exactly in either order; elsewhere the blocked sums
differ from the per-coordinate ones by a few ulps of the largest
coefficient.

Each block's product is one stacked ``np.matmul`` whose items hold at most
PIECE_SPAN = 1024 table rows (the first block) or columns (the later ones),
so OpenBLAS runs every item in the calling thread (see :mod:`cluekit.core`).
The spin probe found a (3840, 16) @ K product serial but (2048, 16) @ K.T
and (16, 16) @ (16, 8192) handed to the pool; 1024 x 16 x 16 multiply-adds
ran serially in every operand order.

Squared weights with the empty set's dropped, normalized to a probability
measure, form the spectral sample: a law of a random subset, held like every
other subset quantity as a plain 2^n vector indexed by mask.  A uniformly
random element of it drives the transitive upper bounds that the
``transitive-bound`` suite checks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FunctionTable,
    ProductSpace,
    _gather_by_popcount,
    _low_popcounts,
    _piece,
    extend,
    per_object,
    require_bytes,
    require_varying,
)
from .errors import DegenerateError, GuardError
from .transforms import subset_zeta


# ---------------------------------------------------------------------------
# the product-basis transform
# ---------------------------------------------------------------------------
@per_object
def _bases(space: ProductSpace) -> np.ndarray:
    """(n, q, q) array: row k of entry v is basis function k of coordinate v.
    Rows past the number of positive atoms stay zero.  Coordinates with the
    same ``pi`` row share one Gram-Schmidt run."""
    bases = np.empty((space.n, space.q, space.q))
    by_row = {}
    for v, pi in enumerate(space.pi):
        key = pi.tobytes()
        if key not in by_row:
            by_row[key] = _gram_schmidt(pi)
        bases[v] = by_row[key]
    return bases


def _gram_schmidt(pi: np.ndarray) -> np.ndarray:
    basis = np.zeros((len(pi), len(pi)))
    rows = [np.ones(len(pi))]
    # the smallest positive atom is spanned by the others
    for j in np.flatnonzero(pi)[:0:-1]:
        u = np.eye(len(pi))[j]
        for r in rows:
            u = u - float(pi @ (u * r)) * r
        rows.append(u / np.sqrt(float(pi @ (u * u))))
    basis[: len(rows)] = rows
    return basis


# rows of the largest Kronecker square: 4 bits, 2 coordinates for q = 3 or 4
BLOCK_ROWS = 16
# the most table rows (first block) or columns (later blocks) one product
# item holds (module docstring)
PIECE_SPAN = 1024


def _kron_squares(mats: np.ndarray) -> tuple:
    """Kronecker squares of runs of consecutive matrices of an (n, q, q)
    stack, the most coordinates a BLOCK_ROWS-row square holds per run (one
    for q > 4); the higher coordinate is the more significant index."""
    n, q = mats.shape[:2]
    per = 1
    while q ** (per + 1) <= BLOCK_ROWS:
        per += 1
    squares = []
    for v in range(0, n, per):
        square = mats[v]
        for m in mats[v + 1 : v + per]:
            k = len(square)
            square = (m[:, None, :, None] * square[None, :, None, :]).reshape(q * k, q * k)
        squares.append(square)
    return tuple(squares)


@functools.cache
def _walsh_squares(n: int) -> tuple[tuple, tuple]:
    """(forward, inverse) squares of n uniform bits, built once per n from
    the Walsh matrix [[1, 1], [-1, 1]], which Gram-Schmidt gives exactly on
    (1/2, 1/2): forward entries +-2^-k, inverse ones +-1.  Read-only."""
    walsh = np.repeat(np.array([[[1.0, 1.0], [-1.0, 1.0]]]), n, axis=0)
    squares = _kron_squares(walsh * 0.5), _kron_squares(walsh.transpose(0, 2, 1))
    for square in squares[0] + squares[1]:
        square.setflags(write=False)
    return squares


@per_object
def _forward_squares(space: ProductSpace) -> tuple:
    if space.is_uniform_binary:
        return _walsh_squares(space.n)[0]
    return _kron_squares(_bases(space) * space.pi[:, None, :])


@per_object
def _inverse_squares(space: ProductSpace) -> tuple:
    if space.is_uniform_binary:
        return _walsh_squares(space.n)[1]
    return _kron_squares(_bases(space).transpose(0, 2, 1))


def _transform(space: ProductSpace, values: np.ndarray, inverse: bool = False,
               overwrite: bool = False) -> np.ndarray:
    """Product-basis coefficients of a table, indexed like configurations
    with basis index k in place of digit k; ``inverse`` maps coefficients
    back.  The last axis of ``values`` is transformed, leading axes ride
    along.

    Coordinates go in blocks of consecutive ones, each contracted at once
    with the Kronecker square of their matrices (at most BLOCK_ROWS rows):
    four coordinates per product on bits.  The first product reads
    ``values`` in place; the others alternate between two buffers, and
    ``overwrite`` lets a C-contiguous float ``values`` be the second.  On
    uniform bits the squares hold +-2^-k (forward) or +-1 (inverse), so an
    integer-valued table transforms exactly; elsewhere the blocks sum in
    another order than one coordinate at a time, which moves results by a
    few ulps of the largest coefficient.  A table of a count law takes its
    coefficients from n+1 level sums instead, exact for the same reason
    (module docstring)."""
    squares = _inverse_squares(space) if inverse else _forward_squares(space)
    src = np.asarray(values, dtype=float)
    dst = np.empty(src.shape)
    lead, width = src.shape[:-1], len(squares[0])
    # the fastest block: (q^(n-k), q^k) @ (q^k, q^k), in items of PIECE_SPAN rows
    rows = _piece(space.size // width, space.q, PIECE_SPAN)
    shape = lead + (-1, rows, width)
    np.matmul(src.reshape(shape), squares[0].T, out=dst.reshape(shape))
    if len(squares) > 1 and not (overwrite and src.flags.c_contiguous):
        src = np.empty_like(dst)
    for square in squares[1:]:
        src, dst = dst, src
        # items of PIECE_SPAN columns of the (block, lower coordinates) matrix
        cols = _piece(width, space.q, PIECE_SPAN)
        shape = lead + (-1, len(square), width // cols, cols)
        np.matmul(square, src.reshape(shape).swapaxes(-2, -3),
                  out=dst.reshape(shape).swapaxes(-2, -3))
        width *= len(square)
    return dst


# ---------------------------------------------------------------------------
# tables of a count law: coefficients by level
# ---------------------------------------------------------------------------
@functools.cache
def _level_matrix(n: int) -> np.ndarray:
    """(n+1, n+1) integers, read-only: row k holds the coefficients of
    z^0..z^n in (z - 1)^k (1 + z)^(n - k), so entry (k, w) is the sum of the
    character of a k-set over the configurations with w ones (a coordinate
    of the set contributes spin -1 at digit 0, z at digit 1; one outside it
    1 + z).  Row k's absolute values sum to at most 2^n."""
    rows = np.empty((n + 1, n + 1))
    for k in range(n + 1):
        rows[k] = np.convolve([(-1) ** (k - j) * math.comb(k, j) for j in range(k + 1)],
                              [math.comb(n - k, i) for i in range(n - k + 1)])
    rows.setflags(write=False)
    return rows


@per_object
def _level_coefficients(f: FunctionTable) -> np.ndarray:
    """a_k = A_k / 2^n, k = 0..n, the character coefficient of every k-set
    of a table of a count law, with A_k = sum_w law[w] M[k, w].  The law
    holds integers below 2^(53 - n) and row k of M sums to at most 2^n in
    absolute value, so every partial sum of A_k is an integer below 2^53:
    exact in any order, as the transform's own sums are, and a_k is
    bitwise the transform's coefficient."""
    return (_level_matrix(f.n) @ f.count_law()) / 2.0**f.n


@per_object
def _coefficients(f: FunctionTable) -> np.ndarray:
    """The table's product-basis coefficients, transformed once per table;
    a table of a count law gathers its n+1 level coefficients by popcount
    instead."""
    if f.count_law() is not None:
        return _gather_by_popcount(f.n, _level_coefficients(f))
    return _transform(f.space, f.values)


def walsh_hadamard(f: FunctionTable) -> np.ndarray:
    """Character coefficients of a table on a uniform binary space, one per
    subset mask; entry 0 is the mean.

    The character of mask S at a configuration is the product of the spins in
    S (digit 0 = spin -1).
    """
    if not f.space.is_uniform_binary:
        raise GuardError(
            "walsh_hadamard requires q=2 with the uniform measure; "
            "use efron_stein for general product measures"
        )
    return _coefficients(f)


def efron_stein(f: FunctionTable) -> np.ndarray:
    """||f_S||^2 for every mask S, a new array on each call, from the kept
    product-basis coefficients.  Basis slots 1..q-1 of each coordinate fold
    into one "v in S" slot.  A table of a count law gathers its squared
    level coefficients, so it keeps no 2^n coefficient vector for them."""
    if f.count_law() is not None:
        return _gather_by_popcount(f.n, _level_coefficients(f) ** 2)
    space = f.space
    norms = _coefficients(f) ** 2
    if space.q > 2:
        for v in range(space.n):
            t = norms.reshape(-1, space.q, 1 << v)
            norms = np.stack([t[:, 0], t[:, 1:].sum(axis=1)], axis=1).reshape(-1)
    return norms


def efron_stein_components(f: FunctionTable) -> np.ndarray:
    """The (2^n, q^n) stack of component functions: row S is f_S, the inverse
    transform of the coefficients whose support is S.  Its values on
    zero-probability configurations carry no meaning."""
    space = f.space
    require_bytes(8 * 2**space.n * space.size, "a (2^n, q^n) component stack")
    # the mask of each configuration's nonzero digits, without a digit matrix
    support = sum(extend(np.minimum(np.arange(space.q), 1) << v, space, 1 << v) for v in range(space.n))
    split = np.zeros((1 << space.n, space.size))
    split[support, np.arange(space.size)] = _coefficients(f)
    return _transform(space, split, inverse=True, overwrite=True)


def projected_variances(f: FunctionTable) -> np.ndarray:
    """Var(E[f | S]) for every mask S: the subset-zeta of the squared weights
    ||f_S||^2 with the constant component left out, summed in place."""
    weights = efron_stein(f)
    weights[0] = 0.0
    return subset_zeta(weights, out=weights)


# ---------------------------------------------------------------------------
# spectral distribution over subset masks
# ---------------------------------------------------------------------------
def spectral_distribution(f: FunctionTable) -> np.ndarray:
    """The spectral sample of f conditioned on being nonempty: the squared
    weights ||f_S||^2 normalized to sum to 1, entry 0 set to 0."""
    require_varying(f)
    weights = efron_stein(f)
    weights[0] = 0.0
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateError("constant function: conditioned spectral sample undefined")
    weights /= total
    return weights


# ---------------------------------------------------------------------------
# level weights and noise stability
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class StabilityProfile:
    """W_k = total squared weight at subset size k, for k = 0..n."""

    level_weights: np.ndarray

    @property
    def variance(self) -> float:
        return float(self.level_weights[1:].sum())


def stability_profile(f: FunctionTable) -> StabilityProfile:
    """Level weights W_k of the subset weights ||f_S||^2.  Blocks of
    TABLE_BLOCK masks bin through the low bits' popcounts, shifted by the
    block's high-bit count, so no 2^n popcount vector exists; ``np.add.at``
    adds in mask order, as ``np.bincount`` would."""
    n = f.n
    low = _low_popcounts(n)
    weights = np.zeros(n + 1)
    for b, block in enumerate(efron_stein(f).reshape(-1, len(low))):
        np.add.at(weights[b.bit_count():], low, block)
    return StabilityProfile(weights)


def stability(profile: StabilityProfile, p: float) -> float:
    """sum_{k>=1} W_k p^k: covariance of the function with its p-correlated
    refresh, equivalently Var(f) times the expected clue of a Bernoulli(p)
    coordinate set."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise level p must lie in [0, 1]")
    w = profile.level_weights
    return float(w[1:] @ p ** np.arange(1, len(w)))
