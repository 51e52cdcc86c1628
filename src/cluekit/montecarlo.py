"""Seed-deterministic Monte Carlo estimators for clue, noise stability, and
expected clue of Bernoulli coordinate sets.

Estimation scheme for clue: sample outer marginals on the conditioning set,
complete each one several times independently, and split the sample variance
into between-fiber and within-fiber parts.  The naive between-fiber variance
overshoots the projected variance by (within variance) / m_inner; the
corrected estimator subtracts that term.

One runner, :func:`run_chunks`, draws every sample here and in the
percolation estimators.  Work is cut into fixed-size chunks; chunk c draws
from the generator addressed by (master seed, c) through a SplitMix64 mix
feeding a Philox generator, and its statistics vector is added into batch
c % BATCHES.  Chunks run in order in the calling thread and per-chunk
results are reduced in a fixed pairwise order, so results depend on the seed
alone and are bitwise reproducible.  A seed outside [0, 2^64) is refused
rather than reduced, so two seeds never alias one stream.  Child seeds of
the Bernoulli estimator come from the same mix.

One sampler, :func:`sample_digits`, turns a chunk's raw 64-bit Philox words
into digits.  An estimator builds its draw once per call, with whatever
depends on the space and coordinates alone, and each chunk only draws.  Two
rules:

* fair spaces (q = 2, every coordinate (1/2, 1/2)): every bit of a
  counter-based generator's output word is an independent fair bit, so each
  coordinate draws ceil(rows / 64) words and takes bits 0 .. rows-1 of them,
  least significant first;
* every other space: one word per digit, which counts the coordinate's cut
  points ceil(c * 2^53) of its interior cdf breakpoints c at or below
  word >> 11.  numpy's double from a word is exactly (word >> 11) * 2^-53, so
  this is the digit that comparing ``rng.random()`` with the breakpoints
  gives, bit for bit.

GENERATOR_ID names this stream; every estimate reports it.  Block states
and integer fiber statistics (below) changed how a chunk's draws are
evaluated, not the draws, so the id stayed.

Digits are drawn as contiguous (coordinates, rows) matrices.  Every zoo
evaluator and every table's evaluator is a :class:`~cluekit.core.BlockEvaluator`,
a finish of a state that adds over disjoint coordinate sets: per-block
counts of ones for the zoo, the partial Horner index in uint32 for a table.
A :func:`mc_clue` chunk takes the inside state of its outer rows once and
the outside state of its rows * m_inner inner rows, adds each outer row's
inside state to its m_inner inner rows and finishes, so no (n, rows *
m_inner) digit matrix is built.  A plain callable is the degenerate case
whose state is its digits on their coordinates' rows, and whose join
places the inside digits instead of adding them: the joined state is that
digit matrix, handed to the evaluator as its column-major transpose, a
(rows, n) uint8 matrix of 0/1 digits (q-ary digits off q = 2).

Evaluators that declare two levels, (-1, 1) or (0, 1) (every zoo family
but sum, and Boolean tables), take their fiber statistics from the integer
count k of rows at level 1 in each fiber: the fiber sum s is 2k - m or k,
so the fiber means s / m are the float means bit for bit, and the within
sum of squares is sum(m - s^2 / m) or sum(k - k^2 / m).  That one sum
differs from the sum of squared deviations in its last bits (at most about
1e-14 relative in the estimates), a second sanctioned exception to
seed-bitwise reproducibility beside the 64-bits-per-word one.  Other
evaluators keep the deviations from the fiber means of their float values.
:func:`mc_stability` calls its evaluator on whole digit matrices.

Error bars come from batch means (:func:`batch_stderr`) over the batches
holding at least 2 rows.  Below 2 such batches (for instance n_outer <= 256
with the default chunk of 256 rows) there is no error bar: stderr is None,
and every estimate reports how many batches it used.  But when every batch's
corrected numerator clamps at 0, :func:`mc_clue` reports stderr 0.0 with
``clamped`` set (``mc-clue --fn parity:33 --subset 0,...,16 --outer 512
--inner 8 --seed 5``; ROADMAP item 4).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import sqrt

import numpy as np

from .core import SPIN_LEVELS, BlockEvaluator, ProductSpace, mask_indices, uniform_space, validate_mask
from .errors import DegenerateError

GENERATOR_ID = "philox4x64/splitmix64/bits64"
CHUNK = 256
BATCHES = 16
MASK64 = (1 << 64) - 1
WORD_BITS = 64
CUT_SCALE = 2.0**53  # numpy's double from a raw word w is (w >> 11) / CUT_SCALE
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _stream_key(seed: int, stream: int) -> int:
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    return splitmix64(seed ^ splitmix64(stream & MASK64))


@cache
def _placeholder_seed() -> np.random.SeedSequence:
    """Seed sequence for Philox's constructor, which derives a key from it;
    generator_for overwrites the key at once, so a fixed sequence spares an
    OS entropy read.  Built on first use, since numpy imports np.random
    lazily."""
    return np.random.SeedSequence(0)


def generator_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream), reproducible by contract:
    Philox4x64 at counter 0 with key [_stream_key(seed, stream), 0], the
    stream of ``np.random.Philox(key=_stream_key(seed, stream))``.  Raises
    ValueError for a seed outside [0, 2^64)."""
    bit_generator = np.random.Philox(_placeholder_seed())
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": np.array([_stream_key(seed, stream), 0], dtype=np.uint64)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float | None
    n_outer: int
    m_inner: int
    seed: int
    generator: str = GENERATOR_ID
    clamped: bool = False
    uncorrected: float | None = None
    batches: int = 0


def _cut_points(breakpoints) -> np.ndarray:
    """ceil(c * 2^53) for each breakpoint c, at most 2^53, as uint64: a raw
    word w gives a double at or above c exactly when w >> 11 reaches it, and
    no word reaches a breakpoint at or above 1."""
    return np.minimum(np.ceil(np.asarray(breakpoints, dtype=float) * CUT_SCALE), CUT_SCALE).astype(np.uint64)


def _cut_digits(rng, cuts: np.ndarray, rows: int) -> np.ndarray:
    """(len(cuts), rows) uint8 digits from one raw word each, drawn in
    (rows, len(cuts)) order: digit j of a row counts the cut points
    ``cuts[j]`` at or below its word >> 11.

    The words are compared where they were drawn, read through their
    transpose, so each comparison writes one coordinate's digits
    contiguously and no word is shifted: w >> 11 reaches a cut c < 2^53
    exactly when w reaches c << 11.  With more than one cut point per
    coordinate the words are first copied into coordinate order, so that
    the later comparisons do not read them strided again.  A cut of 2^53 is
    reached by no word, but its shifted limit wraps to 0, which every word
    reaches, so those counts are taken back at the end."""
    words = rng.bit_generator.random_raw(rows * len(cuts)).reshape(rows, len(cuts)).T
    if cuts.shape[1] > 1:
        words = np.ascontiguousarray(words)
    limits = cuts << 11
    digits = np.greater_equal(words, limits[:, :1], order="C").view(np.uint8)
    for b in range(1, cuts.shape[1]):
        digits += np.greater_equal(words, limits[:, b, None], order="C").view(np.uint8)
    if cuts.max() >> 53:
        digits -= (cuts >> 53).sum(axis=1, dtype=np.uint8)[:, None]
    return digits


def _coins(p: float, coords: int):
    """``coins(rng, rows)``: (coords, rows) bool, each True with probability
    p: digit 0 of the cut rule on a (p, 1 - p) marginal, the draw
    ``rng.random() < p``.  The cut points are built once, not per draw."""
    cuts = _cut_points(np.full((coords, 1), p))
    return lambda rng, rows: _cut_digits(rng, cuts, rows) == 0


def sample_digits(space: ProductSpace, coords: list[int]):
    """``draw(rng, rows)``: a contiguous (len(coords), rows) uint8 matrix of
    ``rows`` draws from the product marginals, row j the digits of
    coordinate coords[j].  What depends on the space and the coordinates
    alone, the cut points, is built here, not per draw.

    On a fair space coordinate j reads bits 0 .. rows-1, least significant
    first, of its own ceil(rows / 64) raw words.  On any other space every
    digit takes one raw word and counts its coordinate's cut points, which
    gives the digits ``rng.random((rows, len(coords)))`` compared with the
    interior cdf breakpoints would.  No coordinates draw nothing.  An
    alphabet above 256 letters is refused: its digits do not fit a byte."""
    if space.q > 256:
        raise ValueError(f"digits of q = {space.q} letters do not fit in a byte (q <= 256)")
    if not coords:
        return lambda rng, rows: np.empty((0, rows), dtype=np.uint8)
    if not space.is_uniform_binary:
        cuts = _cut_points(np.cumsum(space.pi[coords], axis=1)[:, :-1])
        return lambda rng, rows: _cut_digits(rng, cuts, rows)

    def draw(rng, rows: int) -> np.ndarray:
        words = -(-rows // WORD_BITS)
        raw = rng.bit_generator.random_raw(len(coords) * words).astype("<u8", copy=False)
        octets = raw.view(np.uint8).reshape(len(coords), words * 8)
        return np.unpackbits(octets, axis=1, count=rows, bitorder="little")

    return draw


def _pairwise_sum(chunks: list[np.ndarray]) -> np.ndarray:
    """Reduce in a fixed pairwise tree so float results are order-stable."""
    items = list(chunks)
    while len(items) > 1:
        items = [
            items[i] + items[i + 1] if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def run_chunks(sample, total: int, seed: int, chunk: int = CHUNK) -> np.ndarray:
    """(BATCHES, k) statistics of ``total`` rows drawn in chunks of ``chunk``.

    Chunk c, run in order in the calling thread, calls
    ``sample(generator_for(seed, c), rows)``, which returns that chunk's
    length-k statistics vector; it is added into batch c % BATCHES.
    """
    if total < 1:
        raise ValueError("need at least one sample")
    n_chunks = (total + chunk - 1) // chunk

    def work(c: int) -> np.ndarray:
        rows = min(chunk, total - c * chunk)
        stats = np.asarray(sample(generator_for(seed, c), rows), dtype=float)
        out = np.zeros((BATCHES, stats.size))
        out[c % BATCHES] = stats
        return out

    return _pairwise_sum([work(c) for c in range(n_chunks)])


def _standard_error(values: list[float]) -> tuple[float | None, int]:
    """(standard error of the mean, number of values); None below 2 values."""
    if len(values) < 2:
        return None, len(values)
    arr = np.array(values)
    return float(arr.std(ddof=1) / sqrt(len(arr))), len(arr)


def batch_stderr(stats: np.ndarray, estimate) -> tuple[float | None, int]:
    """(stderr, batches) by batch means: ``estimate`` maps one batch's row of
    statistics (row count first) to that batch's estimate.  Batches of fewer
    than 2 rows are skipped; below 2 batches there is no error bar."""
    return _standard_error([estimate(row) for row in stats if row[0] >= 2])


def _digit_states(evaluator, n: int) -> BlockEvaluator:
    """A plain evaluator as a block evaluator whose state is its digits: the
    state of a coordinate set is an (n, rows) uint8 matrix holding its
    digits on their coordinates' rows, the other rows unset.  The join places
    the inside digits on their rows, once per inner row, so a joined state
    is the whole digit matrix, and the finish hands its transpose,
    column-major, to the evaluator."""

    def state_of(coords):
        coords = list(coords)

        def state(digits: np.ndarray) -> np.ndarray:
            placed = np.empty((n, digits.shape[1]), dtype=np.uint8)
            placed[coords] = digits
            return placed

        return state

    def join_of(coords):
        coords = list(coords)

        def join(state: np.ndarray, inner: np.ndarray):
            state[coords] = inner[coords, :, None]

        return join

    return BlockEvaluator(n, state_of, lambda placed: evaluator(placed.T), join_of=join_of)


def _fiber_stats(blocks: BlockEvaluator, state: np.ndarray, rows: int, m: int) -> list[float]:
    """[rows, sum of fiber means, sum of their squares, within-fiber sum of
    squares] of one chunk's state, ``m`` inner rows per outer row.

    A two-valued evaluator counts the k rows at level 1 in each fiber: the
    fiber sum s is 2k - m on (-1, 1) and k on (0, 1), exact, so the fiber
    means s / m are the float means bit for bit, and the within sum of
    squares is sum(m - s^2 / m) or sum(k - k^2 / m).  Other evaluators take
    the deviations from the fiber means of their float values."""
    if blocks.levels is None:
        values = np.asarray(blocks.finish(state), dtype=float).reshape(rows, m)
        fiber_means = values.mean(axis=1)
        deviations = values - fiber_means[:, None]
        within_ss = float(np.sum(np.multiply(deviations, deviations, out=deviations)))
    else:
        k = np.add.reduce(blocks.upper(state).reshape(rows, m), axis=1, dtype=np.intp)
        s, squares = (2 * k - m, m) if blocks.levels == SPIN_LEVELS else (k, k)
        fiber_means = s / m
        within_ss = float((squares - s * s / m).sum())
    return [rows, fiber_means.sum(), float(fiber_means @ fiber_means), within_ss]


def mc_clue(
    evaluator,
    space: ProductSpace,
    mask: int,
    n_outer: int,
    m_inner: int,
    seed: int,
    threads: int | None = None,
) -> McEstimate:
    """Nested estimate of Var(E[f | mask]) / Var(f).

    Per outer draw: one marginal on the conditioning coordinates, ``m_inner``
    fresh completions of the rest.  Between-fiber variance minus
    (within variance / m_inner) estimates the numerator without nesting bias;
    adding back the within variance estimates the denominator.  stderr comes
    from batch means.  A corrected numerator that lands at or below 0 is
    clamped and flagged.  ``threads`` is accepted and ignored: chunks run in
    the calling thread.
    """
    validate_mask(mask, space.n)
    if n_outer < 2 or m_inner < 2:
        raise ValueError("need n_outer >= 2 and m_inner >= 2")
    inside = mask_indices(mask)
    outside = [v for v in range(space.n) if v not in inside]
    draw_inside, draw_outside = sample_digits(space, inside), sample_digits(space, outside)
    blocks = evaluator if isinstance(evaluator, BlockEvaluator) else _digit_states(evaluator, space.n)
    state_inside, state_outside = blocks.state_of(inside), blocks.state_of(outside)
    join = blocks.join_of(inside)

    def sample(rng, rows: int) -> list[float]:
        inner = state_inside(draw_inside(rng, rows))
        state = state_outside(draw_outside(rng, rows * m_inner))
        joined = state.reshape(*state.shape[:-1], rows, m_inner)
        join(joined, inner)  # each outer row's inside state, once per inner row
        return _fiber_stats(blocks, joined.reshape(state.shape), rows, m_inner)

    stats = run_chunks(sample, n_outer, seed)

    def ratio(rows_sums: np.ndarray) -> tuple[float, float, bool]:
        count, s1, s2, within_ss = rows_sums
        mean = s1 / count
        between = (s2 - count * mean**2) / (count - 1)
        within = within_ss / (count * (m_inner - 1))
        numerator = between - within / m_inner
        total = numerator + within
        clamped = False
        if numerator <= 0.0:
            numerator = 0.0
            clamped = True
        if total <= 0.0:
            raise DegenerateError("total variance estimate vanished")
        return numerator / total, between / total, clamped

    overall, uncorrected, clamped = ratio(stats.sum(axis=0))
    stderr, batches = batch_stderr(stats, lambda row: ratio(row)[0])
    return McEstimate(
        estimate=float(overall),
        stderr=stderr,
        n_outer=n_outer,
        m_inner=m_inner,
        seed=seed,
        clamped=clamped,
        uncorrected=float(uncorrected),
        batches=batches,
    )


def mc_stability(
    evaluator,
    n: int,
    p: float,
    samples: int,
    seed: int,
    threads: int | None = None,
) -> McEstimate:
    """Normalized noise stability Cov(f(w), f(w')) / Var(f), where w' keeps
    each fair bit with probability p and refreshes it otherwise.  ``threads``
    is accepted and ignored."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 <= p <= 1.0:
        raise ValueError("noise level p must lie in [0, 1]")

    draw, coins = sample_digits(uniform_space(n), list(range(n))), _coins(p, n)

    def sample(rng, rows: int) -> list[float]:
        base = draw(rng, rows)
        keep = coins(rng, rows)
        fresh = draw(rng, rows)
        noisy = fresh ^ ((base ^ fresh) & keep.view(np.uint8))  # keep ? base : fresh on 0/1 bytes
        x = np.asarray(evaluator(base.T), dtype=float)
        y = np.asarray(evaluator(noisy.T), dtype=float)
        return [rows, x.sum(), y.sum(), float(x @ y), float(x @ x), float(y @ y)]

    stats = run_chunks(sample, samples, seed)

    def ratio(row: np.ndarray) -> float:
        count, sx, sy, sxy, sxx, _ = row
        cov = (sxy - sx * sy / count) / (count - 1)
        var = (sxx - sx**2 / count) / (count - 1)
        if var <= 0.0:
            raise DegenerateError("variance estimate vanished")
        return cov / var

    overall = ratio(stats.sum(axis=0))
    stderr, batches = batch_stderr(stats, ratio)
    return McEstimate(
        estimate=float(overall),
        stderr=stderr,
        n_outer=samples,
        m_inner=1,
        seed=seed,
        batches=batches,
    )


def mc_expected_clue_bernoulli(
    evaluator,
    space: ProductSpace,
    p: float,
    n_sets: int,
    n_outer: int,
    m_inner: int,
    seed: int,
    threads: int | None = None,
) -> McEstimate:
    """Average of mc_clue over coordinate sets drawn Bernoulli(p) per
    coordinate; estimates the expected clue of a random density-p subset.
    ``threads`` is accepted and ignored."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n_sets < 1:
        raise ValueError("need n_sets >= 1")
    mask_rng, coins = generator_for(seed, 1 << 32), _coins(p, space.n)
    estimates = []
    clamped = False
    for k in range(n_sets):
        bits = coins(mask_rng, 1)[:, 0]
        mask = int(sum(1 << v for v in range(space.n) if bits[v]))
        child_seed = _stream_key(seed, (1 << 33) + k)  # streams apart from the mask stream
        est = mc_clue(evaluator, space, mask, n_outer, m_inner, child_seed)
        estimates.append(est.estimate)
        clamped = clamped or est.clamped
    stderr, batches = _standard_error(estimates)
    return McEstimate(
        estimate=float(np.mean(estimates)),
        stderr=stderr,
        n_outer=n_outer,
        m_inner=m_inner,
        seed=seed,
        clamped=clamped,
        batches=batches,
    )
