"""Named function families, each bundled with its natural symmetry group and
a batch evaluator usable far beyond the dense-table guard.

Sign conventions: dictator / parity / majority / asymmetric majority take
values in {-1,+1}; the coordinate sum is integer valued; tribes is {0,1}.
Thresholded families use strict inequality, so a sum landing exactly on the
threshold maps to -1.

Every evaluator is a :class:`~cluekit.core.BlockEvaluator`: its state is
the count of digits equal to 1 in each block of consecutive coordinates (one
block of all n for parity, sum, maj and amaj, the one coordinate for
dictator, one per tribe, and 1 + t/l for composite: the majority block and
its steering tribes), which adds over disjoint coordinate sets, and a finish
maps the counts to values.  So Monte Carlo can count an outer row's inside
coordinates once for all its inner rows.  Every family but sum declares two
levels and finishes through its upper-level flags.

The symmetric families (parity, sum, maj, amaj) depend on a configuration
only through its count w, so each also has a count law, its finish on the
counts w = 0..n, and its dense table is that law gathered by popcount; the
other families tabulate their evaluator.

Evaluators only ever see 0/1 uint8 digits (every zoo space is uniform
bits), so they count ones in the narrowest unsigned type that holds n,
without widening the digit matrix, and map a flag to +-1 as ``flag * 2.0 -
1.0`` (np.where on two scalars costs several times as much).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    BIT_LEVELS,
    SPIN_LEVELS,
    TABLE_BLOCK,
    BlockEvaluator,
    FunctionTable,
    table_from_digits,
    uniform_space,
)
from .errors import ParseError
from .symmetry import (
    GroupAction,
    stabilizer_of,
    symmetric_group_action,
    tribes_group,
)
from .transforms import popcounts


@dataclass(frozen=True)
class ZooEntry:
    name: str
    n: int
    table: FunctionTable
    action: GroupAction | None


def _count_dtype(n: int):
    """The narrowest unsigned type that holds every count of n digits, n
    itself included: uint8 below 256 coordinates, then uint16, then uint32."""
    return np.uint8 if n < 1 << 8 else np.uint16 if n < 1 << 16 else np.uint32


def _count_states(n: int, blocks: list[range]):
    """``state_of`` for per-block counts of ones: the state of a set of
    coordinates is a (len(blocks), rows) matrix of the counts of its digits
    equal to 1 in each block (0 for a block it misses), in _count_dtype(n).
    Every block is a run of consecutive coordinates, so its digits are one
    run of rows of the coordinate-major matrix, summed as contiguous vectors
    without widening."""
    dtype = _count_dtype(n)

    def state_of(coords):
        coords = list(coords)
        runs = [slice(bisect_left(coords, block.start), bisect_left(coords, block.stop)) for block in blocks]
        whole = len(blocks) == 1 and runs[0] == slice(0, len(coords))

        def state(digits: np.ndarray) -> np.ndarray:
            if whole:
                return np.add.reduce(digits, axis=0, dtype=dtype, keepdims=True)
            counts = np.empty((len(blocks), digits.shape[1]), dtype=dtype)
            for b, run in enumerate(runs):
                np.add.reduce(digits[run], axis=0, dtype=dtype, out=counts[b])  # 0 on an empty run
            return counts

        return state

    return state_of


def _tribe_blocks(start: int, tribe_size: int, tribe_count: int) -> list[range]:
    return [range(start + i * tribe_size, start + (i + 1) * tribe_size) for i in range(tribe_count)]


def _some_tribe(counts: np.ndarray, tribe_size: int) -> np.ndarray:
    """Row flags: some tribe's count of ones is its size."""
    return (counts == tribe_size).any(axis=0)


# ---------------------------------------------------------------------------
# evaluators: block evaluators (core.BlockEvaluator) over per-block counts of
# ones, one block for dictator, parity, sum, maj and amaj, one per tribe, and
# 1 + t/l for composite.  Called on an (N, n) digit matrix, whatever its
# memory layout, they reduce over coordinates; the engines hand them
# column-major ones, each coordinate's digits contiguous, where that adds
# contiguous vectors
# ---------------------------------------------------------------------------
def dictator_evaluator(n: int, coord: int):
    if not 0 <= coord < n:
        raise ValueError(f"dictator coordinate {coord} outside 0..{n - 1}")
    return BlockEvaluator(n, _count_states(n, [range(coord, coord + 1)]),
                          upper=lambda counts: counts[0], levels=SPIN_LEVELS)


def parity_evaluator(n: int):
    # the product of the spins is +1 when the number of 0 digits, n - count, is even
    return BlockEvaluator(n, _count_states(n, [range(n)]),
                          upper=lambda counts: (counts[0] & 1) == n % 2, levels=SPIN_LEVELS)


def sum_evaluator(n: int):
    # the spin sum 2 count - n, exact below 2^53 coordinates
    return BlockEvaluator(n, _count_states(n, [range(n)]), lambda counts: 2.0 * counts[0] - n)


def majority_evaluator(n: int):
    if n % 2 == 0:
        raise ValueError("majority needs an odd number of coordinates")
    # n odd: the spin sum 2 count - n is positive exactly when count > n // 2
    return BlockEvaluator(n, _count_states(n, [range(n)]),
                          upper=lambda counts: counts[0] > n // 2, levels=SPIN_LEVELS)


def asym_majority_evaluator(n: int, shift: float):
    threshold = shift * math.sqrt(n)
    return BlockEvaluator(n, _count_states(n, [range(n)]),
                          upper=lambda counts: 2.0 * counts[0] - n > threshold, levels=SPIN_LEVELS)


def tribes_evaluator(tribe_size: int, tribe_count: int):
    n = tribe_size * tribe_count
    return BlockEvaluator(n, _count_states(n, _tribe_blocks(0, tribe_size, tribe_count)),
                          upper=lambda counts: _some_tribe(counts, tribe_size), levels=BIT_LEVELS)


def composite_evaluator(m: int, t: int, shift: float):
    """Asymmetric majority on the first m coordinates, with the sign of the
    shift steered by a tribes function on the remaining t coordinates."""
    l = balanced_tribe_size(t)
    up = shift * math.sqrt(m)

    def upper(counts):
        steer = _some_tribe(counts[1:], l) * 2.0 - 1.0
        return 2.0 * counts[0] - m > steer * up

    blocks = [range(m)] + _tribe_blocks(m, l, t // l)
    return BlockEvaluator(m + t, _count_states(m + t, blocks), upper=upper, levels=SPIN_LEVELS)


def _count_law(evaluator_factory):
    """The count law of a symmetric family whose first argument is n: its
    evaluator's finish on the one-block counts w = 0..n, so every value is
    the evaluator's own."""

    def by_count(n: int, *rest) -> np.ndarray:
        return evaluator_factory(n, *rest).finish(np.arange(n + 1, dtype=_count_dtype(n))[None])

    return by_count


# ---------------------------------------------------------------------------
# dense tables with tagged symmetry groups, built from a parsed spec
# ---------------------------------------------------------------------------
def _entry(head: str, args: tuple, evaluator=None) -> ZooEntry:
    family = FAMILIES[head]
    n = family.n(*args)
    space = uniform_space(n)
    if family.by_count is None:
        table = table_from_digits(space, evaluator or family.evaluator(*args))
    else:
        space.check_exact_guard()
        table = FunctionTable(space, _gather_by_popcount(n, family.by_count(*args)))
    return ZooEntry(f"{head}:{','.join(map(str, args))}", n, table, family.action(*args))


def _gather_by_popcount(n: int, by_count: np.ndarray) -> np.ndarray:
    """The 2^n table ``by_count[popcount(i)]`` of a count law, in blocks of
    TABLE_BLOCK rows that share their high bits: a block gathers from the
    law shifted by its high bits' count, through the low bits' popcounts, so
    no table-sized index array exists."""
    low = popcounts(min(n, TABLE_BLOCK.bit_length() - 1))
    values = np.empty(1 << n)
    for b, block in enumerate(values.reshape(-1, len(low))):
        # the indices are in range: "clip" only spares np.take a buffered copy
        np.take(by_count[b.bit_count():], low, out=block, mode="clip")
    return values


# ---------------------------------------------------------------------------
# the steering tribes of the composite family
# ---------------------------------------------------------------------------
def balanced_tribe_size(t: int) -> int:
    """Divisor of t whose tribes function is closest to balanced.

    The asymptotically balanced size is log2(t) - log2(log2(t)); at desk
    scale a direct scan over divisors does better.
    """
    best_l, best_gap = 1, float("inf")
    for l in range(1, t + 1):
        if t % l:
            continue
        mean = 1.0 - (1.0 - 0.5**l) ** (t // l)
        gap = abs(mean - 0.5)
        if gap < best_gap:
            best_l, best_gap = l, gap
    return best_l


# ---------------------------------------------------------------------------
# spec-string front end
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Family:
    """One zoo family: spec form, argument types (trailing ones may take
    ``defaults``), and n, evaluator, symmetry action and, for the symmetric
    families, count law as functions of the parsed arguments."""

    form: str
    types: tuple
    n: Callable[..., int]
    evaluator: Callable
    action: Callable[..., GroupAction | None]
    defaults: tuple = ()
    by_count: Callable[..., np.ndarray] | None = None


FAMILIES = {
    "dictator": Family("dictator:n[,j]", (int, int), lambda n, j: n, dictator_evaluator,
                       lambda n, j: stabilizer_of(j, n), defaults=(0,)),
    "parity": Family("parity:n", (int,), lambda n: n, parity_evaluator, symmetric_group_action,
                     by_count=_count_law(parity_evaluator)),
    "sum": Family("sum:n", (int,), lambda n: n, sum_evaluator, symmetric_group_action,
                  by_count=_count_law(sum_evaluator)),
    "maj": Family("maj:n", (int,), lambda n: n, majority_evaluator, symmetric_group_action,
                  by_count=_count_law(majority_evaluator)),
    "amaj": Family("amaj:n,a", (int, float), lambda n, a: n, asym_majority_evaluator,
                   lambda n, a: symmetric_group_action(n), by_count=_count_law(asym_majority_evaluator)),
    "tribes": Family("tribes:l,k", (int, int), lambda l, k: l * k, tribes_evaluator, tribes_group),
    "composite": Family("composite:m,t,a", (int, int, float), lambda m, t, a: m + t,
                        composite_evaluator, lambda m, t, a: None),
}
SPEC_FORMS = {head: family.form for head, family in FAMILIES.items()}


def _parse(spec: str) -> tuple[str, tuple, object]:
    """(family head, typed arguments with defaults filled in, evaluator)."""
    head, _, tail = spec.partition(":")
    head = head.strip().lower()
    if head not in FAMILIES:
        raise ParseError(f"unknown zoo family '{head}' (known: {', '.join(FAMILIES)})")
    family = FAMILIES[head]
    raw = tail.split(",") if tail else []
    required = len(family.types) - len(family.defaults)
    try:
        if not required <= len(raw) <= len(family.types):
            raise ValueError(f"{len(raw)} arguments")
        args = tuple(t(a) for t, a in zip(family.types, raw)) + family.defaults[len(raw) - required:]
        return head, args, family.evaluator(*args)
    except ValueError as exc:
        raise ParseError(f"bad arguments for '{spec}': expected {family.form}") from exc


def evaluator_from_spec(spec: str):
    """(n, batch evaluator) for a zoo spec, without building the dense table."""
    head, args, evaluator = _parse(spec)
    return FAMILIES[head].n(*args), evaluator


def from_spec(spec: str) -> ZooEntry:
    """The zoo entry of a spec: its evaluator tabulated, plus name and action."""
    return _entry(*_parse(spec))
