"""Configuration spaces, product measures, dense function tables and subset
masks.

Conventions used everywhere in the package:

* A configuration over ``n`` coordinates with alphabet size ``q`` is encoded
  as a mixed-radix integer with coordinate 0 as the least significant digit:
  ``index = sum_v digit[v] * q**v``.
* For binary spaces the digit/spin dictionary is ``digit 0 -> spin -1`` and
  ``digit 1 -> spin +1``.
* Coordinate subsets are plain Python ints used as bitmasks (bit v set means
  coordinate v belongs to the subset); a quantity over every subset, such as
  a law of a random subset, is a plain 2^n vector indexed by mask.

Other modules reach this layout only through :func:`fibers`, :func:`extend`,
:func:`permute`, :func:`fiber_counts` and the digit matrices that one private
helper builds for :meth:`ProductSpace.digits` and :func:`table_from_digits`;
the exceptions are the product-basis transform in :mod:`cluekit.spectral` and
bit flips on binary indices.  The helper builds a digit matrix without
division, and coordinate-major: each coordinate's digits are one contiguous
row of runs of 0..q-1, and the (q^n, n) matrix is that row stack's transpose.
Exact percolation enumerates its configurations from it, and the crossing
kernel packs its contiguous rows directly.  :func:`table_from_digits`
evaluates blocks of q^k <= ``TABLE_BLOCK`` rows held the same way: the k low
digit columns are the same in every block and are built once, and each block
only refills its n-k high columns, which are constant on it.

Memory has one rule: :func:`require_bytes` refuses (GuardError) any array of
at least :data:`BYTE_BUDGET` bytes before it is allocated.  Every
:class:`FunctionTable` (8 q^n bytes) is checked, and engines check each larger
array they build.  The budget is the only gate: groups are handled through
their generators and never list their elements.

Exact routes run in the calling thread, as Monte Carlo chunks do: no BLAS
call they make is large enough for OpenBLAS to hand it to its thread pool,
whose worker spins about 0.12 s of CPU time after each such call before it
sleeps.  Every weighted sum and matrix-vector product goes through
:func:`_contract`, which cuts it into stacked pieces of at most
``BLAS_PIECE`` = 2^13 entries, and the product-basis transform cuts its
products the same way (``spectral.PIECE_SPAN``).  The bounds come from a
probe, not from OpenBLAS's source: the process CPU time during a 0.2 s sleep
right after one call, about 120 ms when a worker ran it.  On OpenBLAS 0.3.31
(Haswell kernels) a dot product ran serially up to 10000 entries and a
matrix-vector product of 64 x 4096, while 1024 x 1024 and 1 x 262144 went to
the pool.

Per-object facts have one rule too: tables, spaces and games are frozen, so
what depends on one alone (a table's moments, value law and product-basis
coefficients, a space's weights and bases, a game's Shapley values and
supermodularity) is computed on first use, kept read-only in the object's
private cache through :func:`per_object`, and touched by no other module.
A table built by :meth:`FunctionTable.from_count_law` keeps its law there
too, from its construction.  A cached entry never holds its object: that
would be a reference cycle, and the object would wait for the cyclic
garbage collector instead of going when its last user does.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateError, GuardError

BYTE_BUDGET = 1 << 30
TABLE_BLOCK = 1 << 16
PROB_TOL = 1e-12
# the most entries one dot or matrix-vector product reads (module docstring)
BLAS_PIECE = 1 << 13


def fits_budget(nbytes: int) -> bool:
    return nbytes < BYTE_BUDGET


def require_bytes(nbytes: int, what: str, instead: str | None = None):
    """Refuse an array of ``nbytes`` bytes, described by ``what``, before it
    is allocated.  ``instead`` names a sampling route that serves the same
    request, where one does; the refusal names no route otherwise."""
    if not fits_budget(nbytes):
        raise GuardError(
            f"{what} needs {nbytes / 2**30:.2f} GiB; the byte budget admits arrays "
            f"below {BYTE_BUDGET >> 30} GiB" + (f", {instead}" if instead else "")
        )


def per_object(fn):
    """Cache ``fn(obj)`` in the frozen object's own cache: ``fn`` runs on the
    first call and later calls return its result, whose arrays (or a tuple's)
    are made read-only.  A call that raises stores nothing.  The result must
    not hold ``obj`` (see the module docstring)."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(obj):
        if key not in obj._cache:
            result = fn(obj)
            for part in result if isinstance(result, tuple) else (result,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            obj._cache[key] = result
        return obj._cache[key]

    return cached


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


def popcounts(n: int) -> np.ndarray:
    """Popcount of every mask in [0, 2^n), as an int array."""
    pc = np.zeros(1 << n, dtype=np.int64)
    # masks with top bit v are the masks below 2^v plus that bit
    for v in range(n):
        pc[1 << v : 2 << v] = pc[: 1 << v] + 1
    return pc


@functools.cache
def _popcount_block() -> np.ndarray:
    """popcounts of the masks below TABLE_BLOCK, built once, read-only."""
    pc = popcounts(TABLE_BLOCK.bit_length() - 1)
    pc.setflags(write=False)
    return pc


def _low_popcounts(n: int) -> np.ndarray:
    """The popcounts of the first min(2^n, TABLE_BLOCK) masks: in block b of
    that many masks of a 2^n vector, entry i has popcount
    ``b.bit_count() + _low_popcounts(n)[i]``."""
    return _popcount_block()[: 1 << min(n, TABLE_BLOCK.bit_length() - 1)]


def _gather_by_popcount(n: int, by_count: np.ndarray) -> np.ndarray:
    """The 2^n vector ``by_count[popcount(i)]`` of n+1 numbers, in blocks of
    TABLE_BLOCK entries that share their high bits: a block gathers from
    ``by_count`` shifted by its high bits' count, through the low bits'
    popcounts, so no index array of the vector's size exists."""
    low = _low_popcounts(n)
    values = np.empty(1 << n)
    for b, block in enumerate(values.reshape(-1, len(low))):
        # the indices are in range: "clip" only spares np.take a buffered copy
        np.take(by_count[b.bit_count():], low, out=block, mode="clip")
    return values


# ---------------------------------------------------------------------------
# product space
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ProductSpace:
    """Finite product configuration space with a per-coordinate measure.

    ``pi`` has shape (n, q): row v is the probability vector of coordinate v.
    Entries must be finite; zero-probability atoms are allowed; rows must
    sum to 1 within 1e-12.  Instances are immutable and safe to share between
    threads.
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
        # asks that pi lie inside the range, not outside it: NaN fails every comparison
        if not np.all((pi >= -PROB_TOL) & (pi <= 1 + PROB_TOL)):
            raise ValueError("probabilities must be finite and lie in [0, 1]")
        if np.any(np.abs(pi.sum(axis=1) - 1.0) > PROB_TOL):
            raise ValueError("each coordinate's probabilities must sum to 1")
        object.__setattr__(self, "pi", np.clip(pi, 0.0, 1.0))
        object.__setattr__(self, "_cache", {})

    # -- size and guards ----------------------------------------------------
    @property
    def size(self) -> int:
        return self.q**self.n

    def check_exact_guard(self):
        require_bytes(8 * self.size, f"a dense table over q^n = {self.q}^{self.n} configurations",
                      "estimate clue with mc-clue")

    @property
    @per_object
    def is_uniform_binary(self) -> bool:
        return self.q == 2 and bool(np.all(self.pi == 0.5))

    @per_object
    def _equal_atoms(self) -> bool:
        return bool(np.all(self.pi == self.pi[0, 0]))

    @property
    def has_zero_atoms(self) -> bool:
        return bool(np.any(self.pi == 0.0))

    # -- cached per-space arrays ---------------------------------------------
    def marginal_weights(self, mask: int) -> np.ndarray:
        """Product-measure weight of every configuration of the coordinates in
        ``mask`` (re-indexed in increasing order, least significant first),
        length q^|mask|.

        When all entries of ``pi`` are equal, every entry is 1.0 times
        ``pi[0, 0]`` |mask| times in sequence, the product the outer products
        would form, so the vector is filled with it: bitwise the same."""
        validate_mask(mask, self.n)
        if self._equal_atoms():
            c = 1.0
            for _ in range(mask.bit_count()):
                c *= self.pi[0, 0]
            return np.full(self.q ** mask.bit_count(), c)
        w = np.array([1.0])
        for v in reversed(mask_indices(mask)):
            w = np.multiply.outer(w, self.pi[v]).reshape(-1)
        return w

    @per_object
    def config_weights(self) -> np.ndarray:
        """Product-measure weight of every configuration, length q^n."""
        return self.marginal_weights(full_mask(self.n))

    @per_object
    def _positive_weights(self) -> bool:
        """Whether every configuration has positive weight (a product of
        positive atoms can still underflow to 0)."""
        return bool(self.config_weights().min() > 0.0)

    def digits(self, instead: str | None = None) -> np.ndarray:
        """(q^n, n) uint8 matrix: digits()[c, v] is coordinate v of config c
        (built on demand, not cached).  It is coordinate-major, each
        coordinate's digits contiguous: its transpose is C-contiguous.
        ``instead`` is the sampling route a refusal names (require_bytes).
        An alphabet above 256 letters is refused (ValueError)."""
        return _block_digits(self.q, self.n, instead)

    def tensor_shape(self) -> tuple[int, ...]:
        return (self.q,) * self.n


def uniform_space(n: int, q: int = 2) -> ProductSpace:
    return ProductSpace(n, q, np.full((n, q), 1.0 / q))


# ---------------------------------------------------------------------------
# block evaluators
# ---------------------------------------------------------------------------
SPIN_LEVELS = (-1.0, 1.0)
BIT_LEVELS = (0.0, 1.0)


class BlockEvaluator:
    """Batch evaluator digits -> values through a state that adds over
    disjoint coordinate sets.

    ``state_of(coords)``, for increasing coordinates, gives ``state(digits)``:
    the state of a (len(coords), rows) digit matrix of those coordinates, a
    fresh array whose last axis holds the rows.  The states of disjoint
    coordinate sets add up to the state of their union, and ``finish(state)``
    gives the values.  A two-valued evaluator declares ``levels``
    (SPIN_LEVELS or BIT_LEVELS) and ``upper(state)``, 0/1 or bool flags of
    the rows at level 1; its finish, unless given, maps the flags to the
    levels.
    ``join_of(coords)`` gives ``join(state, inner)``, which puts ``inner``,
    the state of ``coords`` on some rows, into ``state``, the state of the
    other coordinates on m rows per row of ``inner``, viewed as
    (..., rows, m), in place.  By default it adds; an evaluator whose states
    do not add (a plain callable's digits, in :mod:`cluekit.montecarlo`)
    gives its own.
    Called on an (N, n) digit matrix, as every batch evaluator is, it gives
    ``finish`` of the state of all n coordinates."""

    def __init__(self, n: int, state_of, finish=None, *, upper=None, levels=None, join_of=None):
        if finish is None:
            if levels == SPIN_LEVELS:
                finish = lambda state: upper(state) * 2.0 - 1.0  # noqa: E731
            else:
                finish = lambda state: upper(state).astype(float)  # noqa: E731
        self.state_of, self.finish, self.upper, self.levels = state_of, finish, upper, levels
        self.join_of = join_of or _adding_join
        self._whole = state_of(range(n))

    def __call__(self, digits: np.ndarray) -> np.ndarray:
        return self.finish(self._whole(digits.T))


def _adding_join(coords):
    def join(state: np.ndarray, inner: np.ndarray):
        state += inner[..., None]

    return join


# ---------------------------------------------------------------------------
# function tables
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Dense real-valued function over all configurations of a space.

    The constructor takes ownership of a contiguous float64 vector: it is
    frozen in place, not copied, so the caller must not write to it
    afterwards.  Facts of the values alone are cached per table (see
    :func:`per_object`)."""

    space: ProductSpace
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.space.check_exact_guard()
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != (self.space.size,):
            raise ValueError(
                f"values must have length q^n = {self.space.size}, got {vals.shape}"
            )
        lo, hi = float(vals.min()), float(vals.max())  # NaN and +-inf propagate
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_cache", {"range": (lo, hi)})

    @classmethod
    def from_count_law(cls, law) -> FunctionTable:
        """The table on n uniform bits whose value at a configuration with w
        digits equal to 1 is ``law[w]``, w = 0..n: a function of the count
        alone, such as parity, sum or majority.  The table keeps its law,
        from which it and :mod:`cluekit.spectral` read table-wide facts
        exactly, so the law must hold integers below 2^53 / 2^n in
        magnitude (ValueError otherwise): then every sum of law values
        times a count of configurations is an exact float."""
        law = np.array(law, dtype=float)
        if law.ndim != 1 or law.size < 2:
            raise ValueError("a count law holds one value per count w = 0..n, n >= 1")
        space = uniform_space(law.size - 1)
        space.check_exact_guard()
        # NaN and +-inf fail the bound
        if not np.all((law == np.trunc(law)) & (np.abs(law) < 2.0 ** (53 - space.n))):
            raise ValueError(f"a count law must hold integers below 2^{53 - space.n} in magnitude")
        table = cls(space, _gather_by_popcount(space.n, law))
        law.setflags(write=False)
        table._cache["law"] = law
        return table

    @property
    def n(self) -> int:
        return self.space.n

    def value_range(self) -> tuple[float, float]:
        """(min, max) of the values, taken when the table was built."""
        return self._cache["range"]

    def count_law(self) -> np.ndarray | None:
        """The law[w] of a table built by :meth:`from_count_law`, else None."""
        return self._cache.get("law")

    @per_object
    def _boolean_levels(self) -> tuple[float, float] | None:
        """(0, 1) or (-1, 1) when every value is one of the pair, by exact
        comparison ((0, 1) for a table of ones), else None.  A table of a
        count law takes every value of its law, so the law's n+1 values
        decide.  Otherwise the first TABLE_BLOCK values are counted before
        the rest, so a table off the pair is mostly refused on one block."""
        lo, hi = self.value_range()
        values = self.count_law()
        if values is None:
            values = self.values
        for levels in ((0.0, 1.0), (-1.0, 1.0)):
            if lo in levels and hi in levels and (lo == hi or all(
                np.count_nonzero(part == lo) + np.count_nonzero(part == hi) == part.size
                for part in (values[:TABLE_BLOCK], values[TABLE_BLOCK:])
            )):
                return levels
        return None

    @per_object
    def _level_masses(self) -> tuple[float, float] | None:
        """(P(f = lo), P(f = hi)) of a Boolean table on two levels lo < hi,
        each the weight sum of its level's configurations through
        :func:`_contract`, so a level off the support weighs exactly 0;
        None for a table that is not Boolean or is constant.  On uniform
        bits the upper level holds K of the N = 2^n cells, and the masses
        are (N - K) / N and K / N: the exact values that sum would give.
        A table of a count law has K = sum of C(n, w) over the counts w at
        the upper level, an exact integer."""
        levels = self._boolean_levels()
        lo, hi = self.value_range()
        if levels is None or lo == hi:
            return None
        law = self.count_law()
        if law is not None:
            size = 1 << self.n
            count = sum(math.comb(self.n, int(w)) for w in np.flatnonzero(law == hi))
            return (size - count) / size, count / size
        upper = self.values != lo
        if self.space.is_uniform_binary:
            size, count = upper.size, int(np.count_nonzero(upper))
            return (size - count) / size, count / size
        w, q = self.space.config_weights(), self.space.q
        return tuple(float(_contract(level.astype(float), w, q)) for level in (~upper, upper))

    def is_boolean(self) -> bool:
        """True for {0,1}- or {-1,+1}-valued tables (exact comparison)."""
        return self._boolean_levels() is not None

    def evaluator(self) -> BlockEvaluator:
        """Batch evaluator digits->(values), for the Monte Carlo engine.  Its
        state is the partial configuration index sum(digit[v] q^v) over the
        coordinates at hand, built by Horner's rule in uint32, which holds
        every index of a table below the byte budget; the finish looks the
        index up.  A Boolean table declares its levels, and its upper flags
        are looked up in a flag table kept beside the evaluator."""
        values, q = self.values, self.space.q

        def state_of(coords):
            coords = list(coords)

            def state(digits: np.ndarray) -> np.ndarray:
                if not coords:
                    return np.zeros(digits.shape[1], dtype=np.uint32)
                index = digits[-1].astype(np.uint32)
                for j in range(len(coords) - 2, -1, -1):
                    index *= q ** (coords[j + 1] - coords[j])
                    index += digits[j]
                if coords[0]:
                    index *= q ** coords[0]
                return index

            return state

        levels = self._boolean_levels()
        if levels is None:
            return BlockEvaluator(self.n, state_of, values.take)
        flags = values == 1.0
        return BlockEvaluator(self.n, state_of, values.take, upper=flags.take, levels=levels)


def _block_digits(q: int, n: int, instead: str | None = None) -> np.ndarray:
    """(q^n, n) uint8 digits of every configuration of n coordinates, held
    coordinate-major: the transpose of a C-contiguous (n, q^n) matrix whose
    row v, coordinate v's digits, is 0..q-1 in runs of q^v.  It is built
    without division by doubling blocks: the first q^(v+1) configurations
    are q copies of the first q^v, with digit v constant on each copy.  An
    alphabet above 256 letters is refused: its digits do not fit a byte."""
    if q > 256:
        raise ValueError(f"digits of q = {q} letters do not fit in a byte (q <= 256)")
    require_bytes(8 * n * q**n, f"a {q}^{n}-row digit matrix", instead)
    out = np.empty((n, q**n), dtype=np.uint8)
    for v in range(n):
        grown = out[:v + 1, :q ** (v + 1)].reshape(v + 1, q, q**v)
        grown[:v, 1:] = grown[:v, :1]
        grown[v] = np.arange(q, dtype=np.uint8)[:, None]
    return out.T


def table_from_digits(space: ProductSpace, fn) -> FunctionTable:
    """Build a table by evaluating ``fn`` on blocks of the (q^n, n) digit
    matrix, which never exists whole.  ``fn`` must be row-wise: output row i
    depends on input row i only, and it must not keep its input.

    A block holds the q^k <= ``TABLE_BLOCK`` configurations that share their
    n-k high digits, so its k low digit columns are the same in every block:
    they are built once, and one reused buffer takes each block's constant
    high digits, with no division per row.  The buffer is (n, q^k), one
    coordinate's digits per contiguous row, like the helper's own rows, which
    fill its low rows; ``fn`` gets its transpose: a column-major (q^k, n)
    matrix."""
    space.check_exact_guard()
    q, n = space.q, space.n
    k = 0
    while k < n and q ** (k + 1) <= TABLE_BLOCK:
        k += 1
    rows = q**k
    columns = np.empty((n, rows), dtype=np.uint8)
    columns[:k] = _block_digits(q, k).T
    values = np.empty(space.size)
    for b, high in enumerate(_block_digits(q, n - k)):
        columns[k:] = high[:, None]
        values[b * rows:(b + 1) * rows] = fn(columns.T)
    return FunctionTable(space, values)


# ---------------------------------------------------------------------------
# the table layout: fibers of a subset, and coordinate permutations
# ---------------------------------------------------------------------------
def fibers(values: np.ndarray, space: ProductSpace, mask: int) -> np.ndarray:
    """A table as a (q^|mask|, q^(n-|mask|)) array: row r is configuration r
    of the ``mask`` coordinates and column c configuration c of the others,
    each indexed like a configuration of its own coordinates in order."""
    validate_mask(mask, space.n)
    # axis n-1-v of the C-order tensor is coordinate v: kept axes first
    order = mask_indices(complement_mask(mask, space.n)) + mask_indices(mask)
    t = values.reshape(space.tensor_shape()).transpose([space.n - 1 - v for v in reversed(order)])
    return t.reshape(space.q ** mask.bit_count(), -1)


def extend(values: np.ndarray, space: ProductSpace, mask: int) -> np.ndarray:
    """The q^n table of a function of the ``mask`` coordinates, given as a
    q^|mask| vector indexed like the rows of :func:`fibers`."""
    validate_mask(mask, space.n)
    shape = [space.q if (mask >> v) & 1 else 1 for v in reversed(range(space.n))]
    return np.broadcast_to(np.reshape(values, shape), space.tensor_shape()).reshape(-1)


def fiber_counts(flags: np.ndarray, space: ProductSpace, mask: int) -> np.ndarray:
    """The row sums of the fibers matrix of 0/1 ``flags``, one byte per
    configuration of ``space``: entry r counts the flags set in fiber r,
    indexed like the rows of :func:`fibers`.

    Each coordinate v outside ``mask`` is summed out in turn, high
    coordinates first, so that every coordinate below v is still in place
    and v is the middle axis of the (-1, q, q^v) view: its q slices add.
    The counts start as the flags' bytes and widen (uint16, uint32) before
    a sum could pass the largest value of their type."""
    validate_mask(mask, space.n)
    q = space.q
    counts, most = flags.view(np.uint8), 1
    for v in reversed(mask_indices(complement_mask(mask, space.n))):
        most *= q
        parts = counts.reshape(-1, q, q**v)
        dtype = np.uint8 if most < 1 << 8 else np.uint16 if most < 1 << 16 else np.uint32
        counts = np.add(parts[:, 0], parts[:, 1], dtype=dtype)
        for d in range(2, q):
            counts += parts[:, d]
    return counts.reshape(-1)


def permute(values: np.ndarray, space: ProductSpace, perm: Sequence[int]) -> np.ndarray:
    """Relocate coordinates: the table g with g(w) = f(w'), where w'_v reads
    coordinate perm[v] of w, i.e. g = f(gamma^{-1}.w) for the relocation
    (gamma.w)_{perm[v]} = w_v."""
    axes = (space.n - 1 - np.argsort(perm))[::-1]
    return values.reshape(space.tensor_shape()).transpose(axes).reshape(-1)


# ---------------------------------------------------------------------------
# weighted sums below the BLAS threading bound
# ---------------------------------------------------------------------------
def _piece(size: int, q: int, cap: int) -> int:
    """The largest power of q at most ``min(size, cap)``: it divides
    ``size`` when ``size`` is a power of q."""
    piece = 1
    while piece * q <= min(size, cap):
        piece *= q
    return piece


def _contract(a: np.ndarray, w: np.ndarray, q: int):
    """``a @ w`` for an (m,) or (r, m) array ``a`` of any strides and an (m,)
    vector ``w``, r and m powers of q, with no BLAS call reading more than
    ``BLAS_PIECE`` entries of ``a``.

    A larger product is one stacked ``np.matmul`` over tiles of b rows by c
    columns, b c <= BLAS_PIECE, which numpy loops in C; the tiles' partial
    sums along each row are then added.  A tile takes up to
    isqrt(BLAS_PIECE) rows, then the columns that fit, then more rows if
    the columns ran out: near square, so a column-major view such as
    :func:`fibers` gives for low kept coordinates reads whole cache lines
    too.  The sums are those of ``a @ w`` in another order; over one column
    the product is a scale, bitwise the same."""
    if a.shape[-1] == 1:
        return a[..., 0] * w[0]
    if a.size <= BLAS_PIECE:
        return a @ w
    rows = a.reshape(-1, a.shape[-1])
    r, m = rows.shape
    c = _piece(m, q, BLAS_PIECE // _piece(r, q, math.isqrt(BLAS_PIECE)))
    b = _piece(r, q, BLAS_PIECE // c)
    tiles = rows.reshape(r // b, b, m // c, c).swapaxes(1, 2)
    sums = np.matmul(tiles, w.reshape(m // c, c, 1))
    return (sums.sum(axis=1) if m > c else sums).reshape(a.shape[:-1])


# ---------------------------------------------------------------------------
# moments and conditional expectation
# ---------------------------------------------------------------------------
@per_object
def expectation(f: FunctionTable) -> float:
    """E f.  A table on two levels lo < hi on uniform bits has it from its
    level masses, lo P_lo + hi P_hi: every term and partial sum of the
    weighted sum is a multiple of 2^-n no larger than max |f|, so both are
    exact and give the same float."""
    masses = f._level_masses() if f.space.is_uniform_binary else None
    if masses is not None:
        lo, hi = f.value_range()
        return lo * masses[0] + hi * masses[1]
    return float(_contract(f.values, f.space.config_weights(), f.space.q))


def _deviation_pass(values: np.ndarray, weights: np.ndarray, mean: float,
                    q: int) -> tuple[float, float]:
    """(variance, max |value - mean|) of ``values`` under ``weights``, both of
    a power-of-q length, with ``mean`` = weights @ values or a centre of
    which the values are already deviations (0.0).

    Corrected two-pass variance: centered before squaring, so a large offset
    does not cancel it away, minus the squared mean of the deviations, which
    removes the rounding error of the mean (zero for constant values)."""
    dev = values - mean
    spread = float(max(dev.max(), -dev.min()))
    mean_dev = float(_contract(dev, weights, q))
    np.square(dev, out=dev)
    return max(float(_contract(dev, weights, q)) - mean_dev**2, 0.0), spread


@per_object
def variance_and_spread(f: FunctionTable) -> tuple[float, float]:
    """(Var f, max |f - E f|) from one deviation pass."""
    return _deviation_pass(f.values, f.space.config_weights(), expectation(f), f.space.q)


@per_object
def require_varying(f: FunctionTable):
    """Refuse a table that is constant on the configurations of positive
    weight, by exact comparison: weights that sum to 1 only up to rounding
    give it denominators that need not read 0."""
    if f.space._positive_weights():
        lo, hi = f.value_range()
    else:
        support = f.space.config_weights() > 0.0
        lo = np.min(f.values, where=support, initial=np.inf)
        hi = np.max(f.values, where=support, initial=-np.inf)
    if not lo < hi:
        raise DegenerateError("constant function: clue-type ratios are undefined")


def conditional_marginal(f: FunctionTable, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """Average out the coordinates not in ``mask``.

    Returns ``(values, weights)``: the conditional expectation as a table over
    the kept coordinates (length q^|mask|, kept coordinates re-indexed in
    increasing order with the same least-significant-first convention) and the
    marginal weight of each kept configuration.  Entries sitting on
    zero-probability marginals are set to 0.
    """
    space = f.space
    rest = space.marginal_weights(complement_mask(mask, space.n))
    values = _contract(fibers(f.values, space, mask), rest, space.q)
    w = space.marginal_weights(mask)
    values[w == 0.0] = 0.0
    return values, w


def conditional_expectation(f: FunctionTable, mask: int) -> FunctionTable:
    """E[f | coordinates in mask], returned as a full table constant on each
    fiber of the conditioning set.  On zero-probability fibers the value is
    defined as 0 (the space's ``has_zero_atoms`` flag tells reports to care).
    """
    marg, _ = conditional_marginal(f, mask)
    return FunctionTable(f.space, extend(marg, f.space, mask))

