"""Subset and partial-assignment transforms used by the spectral, clue, game
and information modules.

The subset zeta / Moebius pair runs along axis 0, which must have
power-of-two length 2^n and be indexed by subset bitmask; trailing axes ride
along.  Cost is O(n 2^n) rows via the standard per-bit butterfly sweep.
:func:`containing_sums` totals such a vector over the masks that contain
each coordinate; :func:`dividend_shares` does so after splitting each mask's
entry equally among its members (Shapley values, spectral marginals).

The keep-or-sum-out lattice runs along the last axis, a table over q^n
configurations (coordinate 0 least significant); leading axes ride along.
:func:`keep_or_sum` gives every coordinate one extra slot, q, holding the sum
over that coordinate, so entry (d_0, ..., d_{n-1}) with d_v in [0, q] is the
sum of the table over the coordinates whose slot is q, with the others held
at d_v.  :func:`kept_sums` then adds the entries of a (q+1)^n lattice by
kept-coordinate pattern into a vector indexed by subset bitmask.  This is
Yates' algorithm (Yates 1937) on the lattice of partial assignments, the
q-ary relative of the subset zeta (Bjorklund, Husfeldt, Kaski and Koivisto,
"Fourier meets Moebius", STOC 2007); each runs one axis at a time in
O(n (q+1)^n).  :func:`lattice_sums`, the one route that builds lattices, runs
the pair in slabs, with a per-entry map between them.
"""
from __future__ import annotations

import numpy as np

from .core import require_bytes


# a row narrower than this runs as that many strided 1-D passes
NARROW_ROW = 16
# the most lattice entries one slab of lattice_sums holds
SLAB = 1 << 20


def subset_zeta(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Return g with g[T] = sum_{S subseteq T} values[S] (along axis 0).

    ``out``, a C-contiguous float array of the same shape (``values`` itself
    sums in place), takes g instead of a new array."""
    if out is None:
        out = np.array(values, dtype=float, order="C")
    elif out.dtype != float or out.shape != np.shape(values) or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float array shaped like values")
    elif out is not values:
        out[...] = values
    return _butterfly(out, np.add)


def subset_mobius(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`subset_zeta`: f[S] = sum_{T subseteq S} (-1)^{|S\\T|} g[T]."""
    return _butterfly(np.array(values, dtype=float, order="C"), np.subtract)


def _butterfly(out: np.ndarray, op) -> np.ndarray:
    """For every bit v of axis 0, in place: row T with bit v set becomes
    op(row T, row T without bit v).  Bit v pairs runs of w = 2^v rows times
    the trailing size; while w is below NARROW_ROW the pairs go as w strided
    1-D passes over the flat array rather than (size / 2w) runs w wide."""
    n = _bits(out.shape[0])
    tail = out[0].size if out.ndim > 1 else 1
    flat = out.reshape(-1)
    for v in range(n):
        w = (1 << v) * tail
        if w < NARROW_ROW:
            for j in range(w):
                upper = flat[w + j :: 2 * w]
                op(upper, flat[j :: 2 * w], out=upper)
        else:
            view = out.reshape(-1, 2, w)
            op(view[:, 1], view[:, 0], out=view[:, 1])
    return out


def keep_or_sum(values: np.ndarray, q: int) -> np.ndarray:
    """Map a (..., q^n) table to its (..., (q+1)^n) keep-or-sum-out lattice.

    Allocates the output alone (one lattice-sized array) and fills slot q of
    each coordinate in place, from the slots that hold every coordinate
    above it at a real digit.
    """
    values = np.asarray(values, dtype=float)
    lead = values.shape[:-1]
    n = _digits(values.shape[-1], q)
    out = np.empty(lead + ((q + 1) ** n,))
    # axis len(lead) + n - 1 - v of the tensor view is coordinate v
    t = out.reshape(lead + (q + 1,) * n)
    t[(...,) + (slice(q),) * n] = values.reshape(lead + (q,) * n)
    for v in range(n):
        # coordinates above v are not summed yet: only their real digits count
        head = (...,) + (slice(q),) * (n - 1 - v)
        tail = (slice(None),) * v
        slot = t[head + (q,) + tail]
        np.add(t[head + (0,) + tail], t[head + (1,) + tail], out=slot)
        for d in range(2, q):
            slot += t[head + (d,) + tail]
    return out


def kept_weights(pi: np.ndarray) -> np.ndarray:
    """The (q+1)^n lattice of a product measure with rows ``pi`` (shape
    (n, q)) that weighs only the kept digits: slot q of a coordinate weighs
    1, not the row sum that :func:`keep_or_sum` gives it, which is 1 only up
    to rounding."""
    n, q = pi.shape
    out = np.ones((q + 1) ** n)
    t = out.reshape((q + 1,) * n)
    for v in range(n):
        # axis n-1-v of the tensor view is coordinate v
        t *= np.append(pi[v], 1.0).reshape((q + 1,) + (1,) * v)
    return out


def kept_sums(lattice: np.ndarray, q: int) -> np.ndarray:
    """Map a (..., (q+1)^n) lattice to (..., 2^n): entry [mask] sums the
    lattice entries whose coordinates in ``mask`` sit at a real digit and
    whose other coordinates sit at the sum slot q.

    Folds one copy of the lattice in place (so it holds one more
    lattice-sized array), the most significant coordinate first: slot 0
    gathers the real digits, then a view keeps slots (q, 0) = (summed out,
    kept) of that coordinate.
    """
    lattice = np.asarray(lattice, dtype=float)
    lead = lattice.shape[:-1]
    n = _digits(lattice.shape[-1], q + 1)
    t = lattice.reshape(lead + (q + 1,) * n).copy()
    for axis in range(len(lead), t.ndim):
        at = (slice(None),) * axis
        kept = t[at + (0, ...)]  # a view even on the last axis
        for d in range(1, q):
            kept += t[at + (d,)]
        t = t[at + (slice(q, None, -q),)]
    return t.reshape(lead + (1 << n,))


def lattice_sums(values: np.ndarray, q: int, entry, pi: np.ndarray | None = None) -> np.ndarray:
    """``kept_sums(entry(keep_or_sum(values, q)), q)`` of a q^n table, in slabs.
    ``entry`` maps lattice entries one by one; given ``pi`` (the measure's rows)
    it also takes their :func:`kept_weights`.  The top rows keep or sum out the
    fewest top coordinates that leave the lattice of one row, a slab, within
    ``SLAB`` entries.  A lone slab runs the unsplit route, bit for bit."""
    n = _digits(np.size(values), q)
    low = next(m for m in range(n, -1, -1) if (q + 1) ** m <= SLAB)
    require_bytes(8 * ((q + 1) ** (n - low) * q**low + (1 << n)), f"lattice top rows over {q}^{n}")
    top = keep_or_sum(np.reshape(values, (-1, q**low)).T, q)
    if pi is not None:
        low_weights, top_weights = kept_weights(pi[:low]), kept_weights(pi[low:])
    out = np.full(1 << n, -0.0)  # -0.0 + x is x: a lone slab keeps kept_sums' bits
    blocks = out.reshape(-1, 1 << low)
    for row, slots in enumerate(np.ndindex((q + 1,) * (n - low))):
        weights = () if pi is None else (low_weights * top_weights[row],)
        kept = sum(1 << j for j, d in enumerate(reversed(slots)) if d < q)
        blocks[kept] += kept_sums(entry(keep_or_sum(top[:, row], q), *weights), q)
    return out


def containing_sums(values: np.ndarray) -> np.ndarray:
    """Map a 2^n vector indexed by subset bitmask to the n totals over the
    masks that contain each coordinate."""
    n = _bits(len(values))
    # masks containing coordinate j are the upper half of each 2^(j+1) block
    return np.array([values.reshape(-1, 2, 1 << j)[:, 1].sum() for j in range(n)])


def dividend_shares(values: np.ndarray) -> np.ndarray:
    """Map a 2^n vector indexed by subset bitmask to the n totals
    sum_{S containing j} values[S] / |S|: each mask's entry split equally
    among its members (the empty mask's entry is dropped)."""
    pc = popcounts(_bits(len(values)))
    return containing_sums(np.divide(values, pc, out=np.zeros_like(values), where=pc > 0))


def popcounts(n: int) -> np.ndarray:
    """Popcount of every mask in [0, 2^n), as an int array."""
    pc = np.zeros(1 << n, dtype=np.int64)
    # masks with top bit v are the masks below 2^v plus that bit
    for v in range(n):
        pc[1 << v : 2 << v] = pc[: 1 << v] + 1
    return pc


def _bits(size: int) -> int:
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("axis 0 length must be a power of two")
    return n


def _digits(size: int, base: int) -> int:
    n, rest = 0, size
    while rest > 1 and rest % base == 0:
        n, rest = n + 1, rest // base
    if rest != 1:
        raise ValueError(f"last axis length {size} is not a power of {base}")
    return n
