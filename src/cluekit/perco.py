"""Critical bond percolation on rectangles and tori: left-right crossings,
dual crossings, exact crossing probabilities by enumeration, the torus
embedding of the crossing function, and the two-orbit clue bound for its
translation average.

Rectangle convention: ``w`` columns and ``h`` rows of vertices, horizontal
edge (x,y)-(x+1,y) for x < w-1, vertical edge (x,y)-(x,y+1) for y < h-1.
A crossing joins any leftmost vertex to any rightmost vertex (both boundary
columns fully wired).  The shape is self-dual exactly when w = h + 1, which
forces crossing probability 1/2 at p = 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .clue import clue
from .core import FunctionTable, extend, fits_budget, mask_from_indices, require_bytes, uniform_space
from .montecarlo import mc_clue, run_chunks
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

    def vertex(self, x: int, y: int) -> int:
        return y * self.w + x

    def edge_endpoints(self) -> list[tuple[int, int]]:
        # order must match edge indices
        ordered = [None] * self.edge_count
        for y in range(self.h):
            for x in range(self.w - 1):
                ordered[self.horizontal_edge(x, y)] = (self.vertex(x, y), self.vertex(x + 1, y))
        for y in range(self.h - 1):
            for x in range(self.w):
                ordered[self.vertical_edge(x, y)] = (self.vertex(x, y), self.vertex(x, y + 1))
        return ordered


_ROW_BLOCK = 1 << 13  # rows per kernel pass: bounds the per-edge temporaries


@dataclass(frozen=True)
class _Graph:
    """A connectivity question compiled once per shape: the switchable
    edges' endpoints ``a``, ``b`` and open-matrix columns ``col`` (int64),
    and the initial labels ``lab0`` with the always-open wiring merged."""

    a: np.ndarray
    b: np.ndarray
    col: np.ndarray
    lab0: np.ndarray
    src: int
    dst: int


def _compile(n_nodes: int, edges, src: int, dst: int) -> _Graph:
    """Compile an edge list of (a, b, col), where col indexes open-matrix
    columns, or (a, b, None) for always-open wiring.  ``lab0`` gives each
    node the smallest node of its wired component."""
    wired = np.array([(a, b) for a, b, col in edges if col is None], dtype=np.int64).reshape(-1, 2)
    switched = np.array([e for e in edges if e[2] is not None], dtype=np.int64).reshape(-1, 3)
    lab0 = _hook_and_compress(np.arange(n_nodes, dtype=np.int64), wired[:, 0], wired[:, 1])
    arrays = (switched[:, 0], switched[:, 1], switched[:, 2], lab0)
    for arr in arrays:
        arr.flags.writeable = False  # shared by every caller of the cache
    return _Graph(*arrays, src, dst)


def _hook_and_compress(lab: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Merge the components of the edges (u, v) into the labels ``lab``, a
    forest of depth one (``lab[lab] == lab``, ``lab[x] <= x``); returns the
    new labels, again of depth one.  Each round hooks both roots of every
    edge whose roots differ onto the smaller of the two with
    ``np.minimum.at``, then jumps pointers (``lab = lab[lab]``) until every
    node points at a root.
    A label only ever moves to a smaller node, so no cycle can form, and
    each round removes at least one root, so the loop ends."""
    while True:
        lu, lv = lab[u], lab[v]
        live = lu != lv
        if not live.any():
            return lab
        u, v, lu, lv = u[live], v[live], lu[live], lv[live]
        m = np.minimum(lu, lv)
        np.minimum.at(lab, lu, m)
        np.minimum.at(lab, lv, m)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped


def _connected_batch(graph: _Graph, open_matrix: np.ndarray) -> np.ndarray:
    """Is ``graph.src`` connected to ``graph.dst``?  One bool per row of
    open_matrix.

    Connected components by hook-and-compress (Shiloach & Vishkin,
    J. Algorithms 3, 1982) over a block of at most ``_ROW_BLOCK`` rows at a
    time: the block's rows are disjoint copies of the graph, node x of row
    r being ``r * n_nodes + x``, and every open edge of the block enters one
    vectorized ``_hook_and_compress`` pass.  The block bounds the per-edge
    temporaries (a few int64 arrays per open edge), so memory does not grow
    with the batch.
    """
    n_nodes = len(graph.lab0)
    out = np.empty(len(open_matrix), dtype=bool)
    for start in range(0, len(open_matrix), _ROW_BLOCK):
        rows, idx = np.nonzero(open_matrix[start:start + _ROW_BLOCK][:, graph.col])
        n_rows = min(_ROW_BLOCK, len(open_matrix) - start)
        offsets = np.arange(n_rows, dtype=np.int64)[:, None] * n_nodes
        lab = _hook_and_compress(
            (offsets + graph.lab0).ravel(),
            rows * n_nodes + graph.a[idx],
            rows * n_nodes + graph.b[idx],
        ).reshape(n_rows, n_nodes)
        out[start:start + n_rows] = lab[:, graph.src] == lab[:, graph.dst]
    return out


def _rect_crossing_edges(rect: RectangleSpec):
    n_vertices = rect.w * rect.h
    left, right = n_vertices, n_vertices + 1
    edges = [(left, rect.vertex(0, y), None) for y in range(rect.h)]
    edges += [(right, rect.vertex(rect.w - 1, y), None) for y in range(rect.h)]
    for idx, (a, b) in enumerate(rect.edge_endpoints()):
        edges.append((a, b, idx))
    return n_vertices + 2, edges, left, right


@lru_cache(maxsize=64)
def _rect_graph(rect: RectangleSpec) -> _Graph:
    return _compile(*_rect_crossing_edges(rect))


def crossing_batch(rect: RectangleSpec, open_matrix: np.ndarray) -> np.ndarray:
    """Left-right crossing indicator for each row of a (N, edge_count) bool
    matrix of open edges."""
    return _connected_batch(_rect_graph(rect), open_matrix)


def _dual_crossing_edges(rect: RectangleSpec):
    """Top-bottom dual connectivity: dual vertices are the inner faces plus
    virtual top/bottom nodes; the dual edge of a primal edge is open when the
    primal edge is closed.  Vertical primal edges in the boundary columns
    border the outer side face and carry no dual edge."""
    faces_w, faces_h = rect.w - 1, rect.h - 1

    def face(x: int, y: int) -> int:
        return y * faces_w + x

    n_faces = faces_w * faces_h
    bottom, top = n_faces, n_faces + 1
    edges = []
    for y in range(rect.h):
        for x in range(rect.w - 1):
            below = bottom if y == 0 else face(x, y - 1)
            above = top if y == rect.h - 1 else face(x, y)
            edges.append((below, above, rect.horizontal_edge(x, y)))
    for y in range(rect.h - 1):
        for x in range(1, rect.w - 1):
            edges.append((face(x - 1, y), face(x, y), rect.vertical_edge(x, y)))
    return n_faces + 2, edges, bottom, top


@lru_cache(maxsize=64)
def _dual_graph(rect: RectangleSpec) -> _Graph:
    return _compile(*_dual_crossing_edges(rect))


def dual_crossing_batch(rect: RectangleSpec, open_matrix: np.ndarray) -> np.ndarray:
    """Top-bottom crossing of the dual by closed edges, per row."""
    return _connected_batch(_dual_graph(rect), ~open_matrix)


def _all_configs(n_edges: int) -> np.ndarray:
    idx = np.arange(1 << n_edges, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n_edges)[None, :]) & 1).astype(bool)


def crossing_probability_exact(rect: RectangleSpec) -> Fraction:
    """Exact crossing probability at p = 1/2 by full enumeration."""
    e = rect.edge_count
    require_bytes(8 * e << e, f"the (2^{e}, {e}) int64 bit matrix of every configuration")
    hits = int(crossing_batch(rect, _all_configs(e)).sum())
    return Fraction(hits, 1 << e)


def crossing_probability_mc(rect: RectangleSpec, samples: int, seed: int) -> tuple[float, float]:
    """(estimate, stderr) of the crossing probability from iid configurations;
    the stderr is binomial, exact for iid Bernoulli samples."""

    def sample(rng, rows: int) -> list[int]:
        return [rows, crossing_batch(rect, rng.random((rows, rect.edge_count)) < 0.5).sum()]

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


def torus_lr_values(torus: TorusSpec, open_matrix: np.ndarray) -> np.ndarray:
    """+-1 crossing values for (N, 2n^2) bool matrices of torus edge states."""
    rect = torus.rectangle()
    rect_open = open_matrix[:, torus.rect_edge_sources()]
    return np.where(crossing_batch(rect, rect_open), 1.0, -1.0)


def torus_lr_evaluator(torus: TorusSpec):
    """Batch evaluator over torus edge digit matrices (digit 1 = open)."""

    def evaluate(digits):
        return torus_lr_values(torus, digits.astype(bool))

    return evaluate


def torus_lr_table(torus: TorusSpec) -> FunctionTable:
    """Dense +-1 table over all 2^(2n^2) torus-edge configurations.

    Built by enumerating only the support edges and broadcasting: flipping a
    non-support edge never changes the value.
    """
    m = torus.edge_count
    space = uniform_space(m)
    space.check_exact_guard()  # before the support enumeration: 2^25 rows at side 4
    support = torus.support_edges()
    open_support = np.zeros((1 << len(support), m), dtype=bool)
    open_support[:, support] = _all_configs(len(support))
    values = extend(torus_lr_values(torus, open_support), space, mask_from_indices(support, m))
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
    base = torus_lr_evaluator(torus)
    perms = [np.asarray(p) for p in torus.translations()]

    def averaged(digits):
        acc = np.zeros(len(digits))
        for perm in perms:
            acc += base(digits[:, perm])
        return acc / len(perms)

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

    def sample(rng, rows: int) -> list[int]:
        open_matrix = rng.random((rows, torus.edge_count)) < 0.5
        moved = torus_lr_values(torus, open_matrix[:, inv])
        return [np.sum(torus_lr_values(torus, open_matrix) != moved)]

    disagreements = run_chunks(sample, samples, seed, chunk=1 << 13).sum()
    p_hat = float(disagreements / samples)
    z = WILSON_Z
    denom = 1.0 + z**2 / samples
    center = (p_hat + z**2 / (2 * samples)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / samples + z**2 / (4 * samples**2)) / denom
    return DisagreementEstimate(p_hat, max(center - half, 0.0), min(center + half, 1.0), samples)
