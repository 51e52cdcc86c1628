"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps every public function of the traced modules and
installs the wrapper in every module namespace that holds the original,
because the package imports with ``from .x import y``.  Each call is a
span on a per-thread stack:

* a layer's self time is the sum over its spans of the span's duration
  minus the durations of its direct child spans in the same thread;
* a function's inclusive time counts only outermost calls (a span with an
  ancestor of the same name, or of the same group, is not counted again);
* spans opened in Monte Carlo worker threads have no parent there, so they
  count as busy time of their own layer and are never subtracted from the
  caller's self time.

A metric whose wrap target no longer exists is reported as absent; the
tracer never raises for a missing target.
"""
from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

# name, unit, better, source, required targets.  Sources:
#   ("self", layer)          self time of the layer, ms
#   ("incl", (quals...))     outermost inclusive time over the group, ms
#   ("calls", qual)          number of calls
#   ("count", counter)       counter filled by a hook
#   ("rate", counter, group) counter per second of the group's inclusive time
LAYER_METRICS = (
    ("cli.self_ms", "ms", "lower", ("self", "cli"), ("cli.main",)),
    ("fnio.load_function.ms", "ms", "lower", ("incl", ("fnio.load_function",)), ()),
    ("zoo.from_spec.ms", "ms", "lower", ("incl", ("zoo.from_spec",)), ()),
    ("core.table_from_digits.ms", "ms", "lower", ("incl", ("core.table_from_digits",)), ()),
    ("core.table_bytes", "bytes", "lower", ("count", "core.table_bytes"), ("core.table_from_digits",)),
    ("core.conditional_marginal.calls", "count", "lower", ("calls", "core.conditional_marginal"), ()),
    ("core.conditional_marginal.ms", "ms", "lower", ("incl", ("core.conditional_marginal",)), ()),
    ("core.conditional_expectation.ms", "ms", "lower", ("incl", ("core.conditional_expectation",)), ()),
    ("spectral.efron_stein.ms", "ms", "lower", ("incl", ("spectral.efron_stein",)), ()),
    ("spectral.projection_norms.ms", "ms", "lower", ("incl", ("spectral.projection_norms",)), ()),
    ("spectral.walsh_hadamard.ms", "ms", "lower", ("incl", ("spectral.walsh_hadamard",)), ()),
    ("spectral.self_ms", "ms", "lower", ("self", "spectral"), ()),
    ("transforms.subset_zeta.ms", "ms", "lower", ("incl", ("transforms.subset_zeta",)), ()),
    ("transforms.subset_mobius.ms", "ms", "lower", ("incl", ("transforms.subset_mobius",)), ()),
    ("clue.self_ms", "ms", "lower", ("self", "clue"), ()),
    ("clue.clue.calls", "count", "lower", ("calls", "clue.clue"), ()),
    ("clue.expected_clue.ms", "ms", "lower", ("incl", ("clue.expected_clue",)), ()),
    ("infotheory.self_ms", "ms", "lower", ("self", "infotheory"), ()),
    ("infotheory.mutual_information.calls", "count", "lower", ("calls", "infotheory.mutual_information"), ()),
    ("games.self_ms", "ms", "lower", ("self", "games"), ()),
    ("symmetry.self_ms", "ms", "lower", ("self", "symmetry"), ()),
    ("symmetry.average.ms", "ms", "lower", ("incl", ("symmetry.average",)), ()),
    ("montecarlo.self_ms", "ms", "lower", ("self", "montecarlo"), ()),
    ("montecarlo.chunks", "count", "lower", ("calls", "montecarlo.generator_for"), ()),
    ("montecarlo.evals", "count", "lower", ("count", "montecarlo.evals"), ("montecarlo.mc_clue",)),
    ("montecarlo.evals_per_s", "1/s", "higher",
     ("rate", "montecarlo.evals", ("montecarlo.mc_clue", "montecarlo.mc_stability",
                                   "montecarlo.mc_expected_clue_bernoulli")), ("montecarlo.mc_clue",)),
    ("zoo.evaluator.ms", "ms", "lower", ("incl", ("zoo.evaluator",)), ("zoo.evaluator_from_spec",)),
    ("zoo.evaluator.rows", "count", "lower", ("count", "zoo.evaluator.rows"), ("zoo.evaluator_from_spec",)),
    ("perco.crossing_batch.ms", "ms", "lower",
     ("incl", ("perco.crossing_batch", "perco.dual_crossing_batch")), ()),
    ("perco.rows", "count", "lower", ("count", "perco.rows"), ("perco.crossing_batch",)),
    ("perco.rows_per_s", "1/s", "higher",
     ("rate", "perco.rows", ("perco.crossing_batch", "perco.dual_crossing_batch")), ("perco.crossing_batch",)),
    ("perco.self_ms", "ms", "lower", ("self", "perco"), ()),
)
OVERHEAD_METRIC = ("trace.overhead_pct", "%", "lower")
ESTIMATORS = ("mc_clue", "mc_stability", "mc_expected_clue_bernoulli")
HOOK_MISMATCH = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _targets(source) -> tuple[str, ...]:
    kind = source[0]
    if kind == "incl":
        return source[1][:1]
    if kind == "calls":
        return (source[1],)
    if kind == "rate":
        return source[2][:1]
    return ()


class Tracer:
    """Install with :meth:`install`, run, read :meth:`metrics`, then
    :meth:`uninstall`.  ``modules`` maps layer names to module objects;
    every module in it is also patched as a namespace."""

    def __init__(self, modules: dict):
        self.modules = dict(modules)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.available: set[str] = set()
        groups = {src[1] for _, _, _, src, _ in LAYER_METRICS if src[0] == "incl"}
        groups |= {src[2] for _, _, _, src, _ in LAYER_METRICS if src[0] == "rate"}
        self._groups = [frozenset(g) for g in groups]
        self.reset()

    # -- span bookkeeping -------------------------------------------------------
    def reset(self):
        with self._lock:
            self.self_ms: dict[str, float] = defaultdict(float)
            self.incl_ms: dict[frozenset, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, qual: str, layer: str) -> list:
        frame = [qual, layer, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        qual, layer, start, child = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        ancestors = {f[0] for f in stack}
        with self._lock:
            self.self_ms[layer] += (duration - child) * 1e3
            self.calls[qual] += 1
            for group in self._groups:
                if qual in group and not (ancestors & group):
                    self.incl_ms[group] += duration * 1e3

    def count(self, counter: str, amount: float):
        with self._lock:
            self.counters[counter] += amount

    def span(self, qual: str, layer: str, fn, pre=None, post=None):
        """Wrap ``fn`` in a span; ``pre`` may rewrite (args, kwargs), ``post``
        sees (args, result) and may return a replacement result.  A hook that
        no longer fits the function's signature is skipped, so a reshaped
        function loses its counter but its job still runs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                try:
                    args, kwargs = pre(args, kwargs)
                except HOOK_MISMATCH:
                    pass
            frame = self.enter(qual, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if post is not None:
                try:
                    result = post(args, result)
                except HOOK_MISMATCH:
                    pass
            return result

        return wrapper

    # -- hooks that count work ---------------------------------------------------
    def _hooks(self) -> dict:
        def counted_evaluator(args, kwargs):
            evaluator = args[0] if args else kwargs["evaluator"]
            if getattr(evaluator, "__counted__", False):
                return args, kwargs

            def counting(digits):
                self.count("montecarlo.evals", len(digits))
                return evaluator(digits)

            counting.__counted__ = True
            if args:
                return (counting,) + tuple(args[1:]), kwargs
            return args, {**kwargs, "evaluator": counting}

        def evaluator_rows(args, kwargs):
            self.count("zoo.evaluator.rows", len(args[0]))
            return args, kwargs

        def zoo_evaluator(args, result):
            n, evaluator = result
            return n, self.span("zoo.evaluator", "zoo", evaluator, pre=evaluator_rows)

        def perco_rows(args, kwargs):
            matrix = args[1] if len(args) > 1 else kwargs["open_matrix"]
            self.count("perco.rows", len(matrix))
            return args, kwargs

        def table_bytes(args, result):
            self.count("core.table_bytes", result.values.nbytes)
            return result

        hooks = {f"montecarlo.{name}": (counted_evaluator, None) for name in ESTIMATORS}
        hooks["zoo.evaluator_from_spec"] = (None, zoo_evaluator)
        hooks["perco.crossing_batch"] = (perco_rows, None)
        hooks["perco.dual_crossing_batch"] = (perco_rows, None)
        hooks["core.table_from_digits"] = (None, table_bytes)
        return hooks

    # -- patching -----------------------------------------------------------------
    def install(self):
        """Wrap every public function of each traced module, in every
        namespace that holds it; ``available`` lists the wrapped names."""
        hooks = self._hooks()
        namespaces = list(self.modules.values())
        self.available = set()
        for layer, module in self.modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                qual = f"{layer}.{name}"
                pre, post = hooks.get(qual, (None, None))
                wrapper = self.span(qual, layer, fn, pre, post)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
                self.available.add(qual)
        if "zoo.evaluator_from_spec" in self.available:
            self.available.add("zoo.evaluator")

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    # -- derived metrics ------------------------------------------------------------
    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """(value per layer metric, names of absent metrics).  An absent
        metric's wrap target or layer module is missing; it reads 0."""
        out, absent = {}, []
        for name, _, _, source, required in LAYER_METRICS:
            kind = source[0]
            needed = set(required) | set(_targets(source))
            layer_missing = kind == "self" and source[1] not in self.modules
            if layer_missing or not needed <= self.available:
                out[name] = 0.0
                absent.append(name)
                continue
            if kind == "self":
                value = self.self_ms.get(source[1], 0.0)
            elif kind == "incl":
                value = self.incl_ms.get(frozenset(source[1]), 0.0)
            elif kind == "calls":
                value = float(self.calls.get(source[1], 0))
            elif kind == "count":
                value = float(self.counters.get(source[1], 0.0))
            else:
                group_ms = self.incl_ms.get(frozenset(source[2]), 0.0)
                value = self.counters.get(source[1], 0.0) / (group_ms / 1e3) if group_ms > 0 else 0.0
            out[name] = value
        return out, absent
