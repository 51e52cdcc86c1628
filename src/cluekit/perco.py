"""Critical bond percolation on rectangles and tori: left-right crossings,
dual crossings, exact crossing probabilities by enumeration, the torus
embedding of the crossing function, and the two-orbit clue bound for its
translation average.

Enumerations take their configurations from the digit matrix of the uniform
binary space (:meth:`cluekit.core.ProductSpace.digits`), viewed as bool.  It
is coordinate-major, so its transpose is the contiguous (edges, rows) array
that the kernel packs, with no copy.

Rectangle convention: ``w`` columns and ``h`` rows of vertices, horizontal
edge (x,y)-(x+1,y) for x < w-1, vertical edge (x,y)-(x,y+1) for y < h-1.
A crossing joins any leftmost vertex to any rightmost vertex (both boundary
columns fully wired).  The shape is self-dual exactly when w = h + 1, which
forces crossing probability 1/2 at p = 1/2.

One grid kernel decides every crossing, primal and dual.  It packs the
configurations 64 to a uint64 word, one word array per edge, and spreads
"joined to the left column" over the vertex grid with whole-grid bitwise
operations, so a batch of up to 64 configurations costs one word's work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clue import clue
from .core import FunctionTable, extend, fits_budget, mask_from_indices, uniform_space
from .montecarlo import mc_clue, run_chunks, sample_digits
from .symmetry import average, from_generators

EXACT_BOUND_TOL = 1e-9  # rounding allowance of the exact two-orbit verdict
WILSON_Z = 1.96  # normal quantile of a 95% interval


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RectangleSpec:
    w: int
    h: int

    def __post_init__(self):
        if self.w < 2 or self.h < 1:
            raise ValueError("need at least 2 columns and 1 row of vertices")

    @property
    def n_horizontal(self) -> int:
        return (self.w - 1) * self.h

    @property
    def n_vertical(self) -> int:
        return self.w * (self.h - 1)

    @property
    def edge_count(self) -> int:
        return self.n_horizontal + self.n_vertical

    @property
    def self_dual(self) -> bool:
        return self.w == self.h + 1

    def horizontal_edge(self, x: int, y: int) -> int:
        if not (0 <= x < self.w - 1 and 0 <= y < self.h):
            raise ValueError("horizontal edge out of range")
        return y * (self.w - 1) + x

    def vertical_edge(self, x: int, y: int) -> int:
        if not (0 <= x < self.w and 0 <= y < self.h - 1):
            raise ValueError("vertical edge out of range")
        return self.n_horizontal + y * self.w + x


# ---------------------------------------------------------------------------
# crossing kernel
# ---------------------------------------------------------------------------
def _pack(open_matrix: np.ndarray) -> np.ndarray:
    """(edges, words) uint64: row e holds column e of the (N, edges) bool
    matrix, eight configurations to a byte by ``np.packbits`` and eight
    bytes to a word; the padding bits of the last word are zero."""
    packed = np.packbits(np.ascontiguousarray(open_matrix.T), axis=1, bitorder="little")
    words = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view(np.uint64)


def _spans(links: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(s, S_s) for s = 1, 2, 4, ... below the number of vertices along
    axis 0, where ``S_s[k]`` is the AND of links k .. k+s-1: vertex k and
    vertex k+s are joined by open links all the way."""
    spans = [(1, np.ascontiguousarray(links))]
    while 2 * spans[-1][0] <= len(links):
        s, span = spans[-1]
        spans.append((2 * s, span[:-s] & span[s:]))
    return spans


def _scan(reached: np.ndarray, spans) -> None:
    """Carry ``reached`` along axis 0 over open links, forward then
    backward, by Hillis-Steele doubling: after the step of span s every
    vertex holds what reached any vertex up to 2s-1 places behind it."""
    for s, span in spans:
        reached[s:] |= reached[:-s] & span
    for s, span in spans:
        reached[:-s] |= reached[s:] & span


def _sweep(x_links: np.ndarray, y_links: np.ndarray, n_rows: int) -> np.ndarray:
    """Left-right crossing of a grid of ``cols`` x ``rows`` vertices, one
    bool for each of the first ``n_rows`` configurations packed into the
    link words: x-links (cols-1, rows, words) join (x, y)-(x+1, y), y-links
    (rows-1, cols, words) join (x, y)-(x, y+1).

    ``reached`` holds, bit for bit, the vertices joined to the left column
    so far.  A round scans the x axis, then the y axis, forward and
    backward, each direction log2(side) whole-grid operations on span
    arrays built once per batch; rounds repeat until ``reached`` stops
    changing.  A bit only ever travels over open links, so every set bit is
    a true connection, and at the fixed point both ends of every open link
    agree, so ``reached`` is the left column's component."""
    cols, rows, words = x_links.shape[0] + 1, x_links.shape[1], x_links.shape[2]
    reached = np.zeros((cols, rows, words), dtype=np.uint64)
    reached[0] = ~np.uint64(0)
    x_spans, y_spans = _spans(x_links), _spans(y_links)
    before = np.empty_like(reached)
    while True:
        before[...] = reached
        _scan(reached, x_spans)
        _scan(reached.swapaxes(0, 1), y_spans)
        if np.array_equal(before, reached):
            break
    right = np.bitwise_or.reduce(reached[-1], axis=0)
    return np.unpackbits(right.view(np.uint8), count=n_rows, bitorder="little").astype(bool)


def crossing_batch(rect: RectangleSpec, open_matrix: np.ndarray) -> np.ndarray:
    """Left-right crossing indicator for each row of a (N, edge_count) bool
    matrix of open edges: the kernel on the w x h vertex grid itself."""
    words = _pack(open_matrix)
    n_h, w, h, n_words = rect.n_horizontal, rect.w, rect.h, words.shape[1]
    x_links = words[:n_h].reshape(h, w - 1, n_words).swapaxes(0, 1)
    y_links = words[n_h:].reshape(h - 1, w, n_words)
    return _sweep(x_links, y_links, len(open_matrix))


def dual_crossing_batch(rect: RectangleSpec, open_matrix: np.ndarray) -> np.ndarray:
    """Top-bottom crossing of the dual by closed edges, per row.

    The dual is the same left-right question on a grid of h+1 columns and
    w-1 rows: column 0 is the bottom side, column h the top side, and
    column y+1 the inner faces of height y.  Its x-links are the closed
    horizontal edges, its y-links in columns 1..h-1 the closed interior
    vertical edges; the vertical edges of the two boundary columns border
    the outer side faces and carry no dual link, and the wired bottom and
    top columns need none."""
    closed = ~_pack(open_matrix)
    n_h, w, h, n_words = rect.n_horizontal, rect.w, rect.h, closed.shape[1]
    x_links = closed[:n_h].reshape(h, w - 1, n_words)
    y_links = np.zeros((w - 2, h + 1, n_words), dtype=np.uint64)
    y_links[:, 1:-1] = closed[n_h:].reshape(h - 1, w, n_words)[:, 1:-1].swapaxes(0, 1)
    return _sweep(x_links, y_links, len(open_matrix))


def _all_configs(n_edges: int) -> np.ndarray:
    """(2^n_edges, n_edges) bool matrix of every configuration, row c open on
    the set bits of c: the uniform space's digit matrix, whose guard refuses
    it from 23 edges on."""
    return uniform_space(n_edges).digits("estimate the crossing probability with perco --mc").view(bool)


def crossing_probability_exact(rect: RectangleSpec) -> Fraction:
    """Exact crossing probability at p = 1/2 by full enumeration: one kernel
    batch over the rows of the digit matrix of every configuration."""
    e = rect.edge_count
    hits = int(crossing_batch(rect, _all_configs(e)).sum())
    return Fraction(hits, 1 << e)


def _fair_edges(edge_count: int):
    """Draw of (rows, edge_count) bool matrices of open edges at p = 1/2: the
    transpose of the sampler's contiguous (edges, rows) digits, which is the
    layout the kernel packs."""
    draw = sample_digits(uniform_space(edge_count), list(range(edge_count)))
    return lambda rng, rows: draw(rng, rows).T.view(bool)


def crossing_probability_mc(rect: RectangleSpec, samples: int, seed: int) -> tuple[float, float]:
    """(estimate, stderr) of the crossing probability from iid configurations;
    the stderr is binomial, exact for iid Bernoulli samples."""
    draw = _fair_edges(rect.edge_count)

    def sample(rng, rows: int) -> list[int]:
        return [rows, crossing_batch(rect, draw(rng, rows)).sum()]

    total, hits = run_chunks(sample, samples, seed, chunk=1 << 14).sum(axis=0)
    p_hat = float(hits / total)
    return p_hat, math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / total)


# ---------------------------------------------------------------------------
# torus embedding
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TorusSpec:
    """Side-n torus with 2 n^2 edges: h(x,y) joins (x,y)-(x+1 mod n, y) at
    index y*n + x; v(x,y) joins (x,y)-(x,y+1 mod n) at index n^2 + y*n + x.

    The embedded rectangle has w = n+1 columns and h = n rows of vertices
    (self-dual); its rightmost column wraps onto column 0 of the torus, and
    the boundary-column vertical edges, which never matter for a crossing
    between wired boundaries, fold onto the v(0, y) edges.
    """

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("torus side must be at least 2")

    @property
    def edge_count(self) -> int:
        return 2 * self.n * self.n

    def h_edge(self, x: int, y: int) -> int:
        return (y % self.n) * self.n + (x % self.n)

    def v_edge(self, x: int, y: int) -> int:
        return self.n * self.n + (y % self.n) * self.n + (x % self.n)

    def rectangle(self) -> RectangleSpec:
        return RectangleSpec(self.n + 1, self.n)

    def rect_edge_sources(self) -> np.ndarray:
        """For each rectangle edge, the torus edge whose state it reads."""
        rect = self.rectangle()
        src = np.empty(rect.edge_count, dtype=np.int64)
        for y in range(rect.h):
            for x in range(rect.w - 1):
                src[rect.horizontal_edge(x, y)] = self.h_edge(x, y)
        for y in range(rect.h - 1):
            for x in range(rect.w):
                src[rect.vertical_edge(x, y)] = self.v_edge(x, y)
        return src

    def support_edges(self) -> list[int]:
        """Torus edges the crossing function actually depends on: every
        horizontal edge plus the interior-column verticals."""
        edges = [self.h_edge(x, y) for y in range(self.n) for x in range(self.n)]
        edges += [
            self.v_edge(x, y) for y in range(self.n - 1) for x in range(1, self.n)
        ]
        return sorted(edges)

    def translation_permutation(self, dx: int, dy: int) -> tuple[int, ...]:
        """Edge permutation of the translation by (dx, dy)."""
        perm = [0] * self.edge_count
        for y in range(self.n):
            for x in range(self.n):
                perm[self.h_edge(x, y)] = self.h_edge(x + dx, y + dy)
                perm[self.v_edge(x, y)] = self.v_edge(x + dx, y + dy)
        return tuple(perm)

    def translations(self) -> list[tuple[int, ...]]:
        """Edge permutations of all n^2 translations, dx-major."""
        steps = range(self.n)
        return [self.translation_permutation(dx, dy) for dx in steps for dy in steps]

    def translation_group(self):
        gens = [self.translation_permutation(1, 0), self.translation_permutation(0, 1)]
        return from_generators(gens, self.edge_count)


def _moved_sources(torus: TorusSpec, perms) -> np.ndarray:
    """(len(perms), rectangle edges) matrix: entry (k, e) is the torus edge
    that rectangle edge e reads once the edges are moved by ``perms[k]``."""
    return np.asarray(perms)[:, torus.rect_edge_sources()]


def _moved_lr_values(torus: TorusSpec, open_matrix: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """(len(sources), N) +-1 crossing values of the rows of a (N, 2n^2)
    bool matrix moved by each edge permutation, given as its
    :func:`_moved_sources` row.  The moved copies enter the kernel as one
    batch."""
    stacked = open_matrix.T[sources.T].reshape(sources.shape[1], -1).T
    return (crossing_batch(torus.rectangle(), stacked) * 2.0 - 1.0).reshape(len(sources), -1)


def torus_lr_values(torus: TorusSpec, open_matrix: np.ndarray) -> np.ndarray:
    """+-1 crossing values for (N, 2n^2) bool matrices of torus edge states."""
    return _moved_lr_values(torus, open_matrix, torus.rect_edge_sources()[None])[0]


def torus_lr_evaluator(torus: TorusSpec):
    """Batch evaluator over torus edge digit matrices (digit 1 = open): the
    mean of the +-1 crossing value over the n^2 translated copies.  Sums of
    +-1 are exact, so their order cannot move the mean."""
    sources = _moved_sources(torus, torus.translations())

    def evaluate(digits):
        return _moved_lr_values(torus, digits.astype(bool), sources).sum(axis=0) / len(sources)

    return evaluate


def torus_lr_table(torus: TorusSpec) -> FunctionTable:
    """Dense +-1 table over all 2^(2n^2) torus-edge configurations.

    Built by enumerating only the support edges and broadcasting: flipping a
    non-support edge never changes the value.  The enumeration is held
    edge-major, one contiguous row per torus edge, as the kernel reads it.
    """
    m = torus.edge_count
    space = uniform_space(m)
    space.check_exact_guard()  # before the support enumeration: 2^25 rows at side 4
    support = torus.support_edges()
    open_support = np.zeros((m, 1 << len(support)), dtype=bool)
    open_support[support] = _all_configs(len(support)).T
    values = extend(torus_lr_values(torus, open_support.T), space, mask_from_indices(support, m))
    return FunctionTable(space, values)


def averaged_lr_table(torus: TorusSpec) -> FunctionTable:
    """Mean of the crossing function over all n^2 torus translations."""
    return average(torus_lr_table(torus), torus.translations())


@dataclass(frozen=True)
class AveragedClueReport:
    clue: float
    bound: float
    stderr: float | None
    holds: bool


def averaged_crossing_clue_bound(
    torus: TorusSpec,
    mask: int,
    mc_outer: int = 4000,
    mc_inner: int = 32,
    seed: int | None = None,
) -> AveragedClueReport:
    """clue of the translation-averaged crossing function against the
    two-orbit bound 2|U| / n^2 (exact while the dense table fits the byte
    budget, nested Monte Carlo with a 3-sigma allowance beyond that)."""
    bound = 2.0 * mask.bit_count() / torus.n**2
    if fits_budget(8 << torus.edge_count):
        if mask == 0:
            return AveragedClueReport(0.0, bound, None, True)
        value = clue(averaged_lr_table(torus), mask)
        return AveragedClueReport(value, bound, None, value <= bound + EXACT_BOUND_TOL)
    if seed is None:
        raise ValueError("Monte Carlo regime needs a seed")
    averaged = torus_lr_evaluator(torus)
    est = mc_clue(averaged, uniform_space(torus.edge_count), mask, mc_outer, mc_inner, seed)
    if est.stderr is None:
        raise ValueError(f"mc_outer={mc_outer} leaves {est.batches} batch: no error bar "
                         "for the 3-sigma verdict")
    return AveragedClueReport(
        est.estimate, bound, est.stderr, est.estimate <= bound + 3.0 * est.stderr
    )


# ---------------------------------------------------------------------------
# translation disagreement
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DisagreementEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    samples: int


def translate_disagreement(
    n: int, displacement: tuple[int, int], samples: int, seed: int
) -> DisagreementEstimate:
    """Monte Carlo estimate of P[crossing differs from its translate], with a
    95% Wilson score interval (z = WILSON_Z).  Reported, never asserted: the
    true size of this probability is an asymptotic statement."""
    torus = TorusSpec(n)
    inv = np.argsort(np.asarray(torus.translation_permutation(*displacement)))
    sources = _moved_sources(torus, [np.arange(torus.edge_count), inv])
    draw = _fair_edges(torus.edge_count)

    def sample(rng, rows: int) -> list[int]:
        values, moved = _moved_lr_values(torus, draw(rng, rows), sources)
        return [np.sum(values != moved)]

    disagreements = run_chunks(sample, samples, seed, chunk=1 << 13).sum()
    p_hat = float(disagreements / samples)
    z = WILSON_Z
    denom = 1.0 + z**2 / samples
    center = (p_hat + z**2 / (2 * samples)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / samples + z**2 / (4 * samples**2)) / denom
    return DisagreementEstimate(p_hat, max(center - half, 0.0), min(center + half, 1.0), samples)
