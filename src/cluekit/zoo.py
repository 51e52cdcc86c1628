"""Named function families, each bundled with its natural symmetry group and
a batch evaluator usable far beyond the dense-table guard.

Sign conventions: dictator / parity / majority / asymmetric majority take
values in {-1,+1}; the coordinate sum is integer valued; tribes is {0,1}.
Thresholded families use strict inequality, so a sum landing exactly on the
threshold maps to -1.

The symmetric families (parity, sum, maj, amaj) depend on a configuration
only through its count w of digits equal to 1, so each also has a count law,
the n+1 values it takes at w = 0..n, and its dense table is that law
gathered by popcount; the other families tabulate their evaluator.

Evaluators only ever see 0/1 uint8 digits (every zoo space is uniform
bits), so they count ones without widening the digit matrix, take tribes as
bitwise and/or reductions, and map a flag to +-1 as ``flag * 2.0 - 1.0``
(np.where on two scalars costs several times as much).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import TABLE_BLOCK, FunctionTable, table_from_digits, uniform_space
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


def _digit_count(digits: np.ndarray) -> np.ndarray:
    """Row counts of the ones of a 0/1 uint8 digit matrix, summed in the
    narrowest unsigned type that holds the column count n: uint8 below 256
    columns, then uint16, then uint32.  n itself fits that type, so ``n -
    count`` cannot wrap; ``2 * count`` can."""
    n = digits.shape[1]
    dtype = np.uint8 if n < 1 << 8 else np.uint16 if n < 1 << 16 else np.uint32
    return digits.sum(axis=1, dtype=dtype)


def _spin_sum(digits: np.ndarray) -> np.ndarray:
    """Row sums of the +-1 spins of a 0/1 digit matrix, as floats:
    2 (digit count) - (column count), exact below 2^53 columns."""
    return 2.0 * _digit_count(digits) - digits.shape[1]


def _tribes(digits: np.ndarray, tribe_size: int, tribe_count: int) -> np.ndarray:
    """uint8 row flags: some tribe of consecutive columns is all ones."""
    grouped = digits.reshape(len(digits), tribe_count, tribe_size)
    return np.bitwise_or.reduce(np.bitwise_and.reduce(grouped, axis=2), axis=1)


# ---------------------------------------------------------------------------
# evaluators: each works on any (N, n) digit matrix, whatever its memory
# layout; the engines hand them column-major ones, each coordinate's digits
# contiguous, where reducing over coordinates adds contiguous vectors
# ---------------------------------------------------------------------------
def dictator_evaluator(n: int, coord: int):
    if not 0 <= coord < n:
        raise ValueError(f"dictator coordinate {coord} outside 0..{n - 1}")

    def evaluate(digits):
        return digits[:, coord] * 2.0 - 1.0

    return evaluate


def parity_evaluator(n: int):
    def evaluate(digits):
        # the product of the spins is -1 to the number of 0 digits
        return 1.0 - 2.0 * ((n - _digit_count(digits)) & 1)

    return evaluate


def sum_evaluator(n: int):
    def evaluate(digits):
        return _spin_sum(digits)

    return evaluate


def majority_evaluator(n: int):
    if n % 2 == 0:
        raise ValueError("majority needs an odd number of coordinates")

    def evaluate(digits):
        # n odd: the spin sum 2w - n is positive exactly when w > n // 2
        return (_digit_count(digits) > n // 2) * 2.0 - 1.0

    return evaluate


def asym_majority_evaluator(n: int, shift: float):
    threshold = shift * math.sqrt(n)

    def evaluate(digits):
        return (_spin_sum(digits) > threshold) * 2.0 - 1.0

    return evaluate


def tribes_evaluator(tribe_size: int, tribe_count: int):
    def evaluate(digits):
        return _tribes(digits, tribe_size, tribe_count).astype(float)

    return evaluate


def composite_evaluator(m: int, t: int, shift: float):
    """Asymmetric majority on the first m coordinates, with the sign of the
    shift steered by a tribes function on the remaining t coordinates."""
    l = balanced_tribe_size(t)
    up = shift * math.sqrt(m)

    def evaluate(digits):
        steer = _tribes(digits[:, m:], l, t // l) * 2.0 - 1.0
        return (_spin_sum(digits[:, :m]) > steer * up) * 2.0 - 1.0

    return evaluate


def _count_law(evaluator_factory):
    """The count law of a symmetric family whose first argument is n: its
    evaluator on the n+1 digit rows w = 0..n, row w with w digits equal to 1,
    so every value is the evaluator's own."""

    def by_count(n: int, *rest) -> np.ndarray:
        return evaluator_factory(n, *rest)(np.tri(n + 1, n, -1, dtype=np.uint8))

    return by_count


# ---------------------------------------------------------------------------
# dense-table constructors with tagged symmetry groups
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


def dictator(n: int, coord: int = 0) -> ZooEntry:
    return _entry("dictator", (n, coord))


def parity(n: int) -> ZooEntry:
    return _entry("parity", (n,))


def sum_function(n: int) -> ZooEntry:
    return _entry("sum", (n,))


def majority(n: int) -> ZooEntry:
    return _entry("maj", (n,))


def tribes(tribe_size: int, tribe_count: int) -> ZooEntry:
    return _entry("tribes", (tribe_size, tribe_count))


# ---------------------------------------------------------------------------
# calibration helpers
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


def coupled_majority_size(t: int) -> int:
    """Majority-block size paired with a tribes block of size t so the two
    blocks' per-coordinate influences match: m = (t / ln t)^(3/2)."""
    if t < 2:
        raise ValueError("need t >= 2")
    return max(1, round((t / math.log(t)) ** 1.5))


def asym_majority_influence(n: int, shift: float) -> float:
    """Exact per-coordinate influence of the shifted majority.

    A flip matters exactly when the other n-1 spins sum into the unit window
    around the threshold, which pins a single attainable sum value.
    """
    threshold = shift * math.sqrt(n)
    lo = math.floor(threshold - 1.0) + 1  # integers s with threshold-1 < s <= threshold+1
    candidates = [s for s in (lo, lo + 1) if s <= threshold + 1.0]
    total = 0.0
    for s in candidates:
        if abs(s) > n - 1 or (s - (n - 1)) % 2:
            continue
        total += math.comb(n - 1, (n - 1 + s) // 2) / 2 ** (n - 1)
    return total


def find_a(n: int, target_influence: float) -> float:
    """Shift making the asymmetric majority's coordinate influence as close
    as possible to the target, by bisection over the (stepwise decreasing)
    influence curve."""
    lo, hi = 0.0, math.sqrt(n) + 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if asym_majority_influence(n, mid) > target_influence:
            lo = mid
        else:
            hi = mid
    if abs(asym_majority_influence(n, lo) - target_influence) <= abs(
        asym_majority_influence(n, hi) - target_influence
    ):
        return lo
    return hi


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
