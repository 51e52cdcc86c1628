"""Every metric of one mask reads one split of the table.

``cli._metric_values`` builds one split per mask and hands it to every
requested metric.  A table on two levels on uniform bits is split by
counts: with all eight metrics it takes no permutation of the table (no
call to ``core.fibers``), counts no joint law with ``np.bincount`` and
stacks none with ``np.stack``.  Any other table permutes once, and a Boolean
one's information comes from the split's conditional marginal, so nothing
is counted with ``np.bincount``.  A Boolean table's Ent(f) and E|f - E f|
come from its two level masses, so no entropy gap is taken over its q^n
values and no weighted deviation is formed, and the witness and influence
constancy count cells, so no max or min runs over the split matrix.  No
metric builds a second table: the KL clue of a {-1, 1} table is read off
the table's own split as that of its upper-level indicator.  An edit that
permutes the table again for some metric, permutes or stacks on the count
route, counts a Boolean joint law, builds a table, or brings back one of
those sweeps fails here.
"""
import importlib
import pkgutil
import sys

import numpy as np
import pytest

import cluekit
from cluekit import cli, clue, core, infotheory
from cluekit.core import FunctionTable, ProductSpace, uniform_space
from cluekit.zoo import from_spec

ALL_METRICS = ["l2", "spectral", "sig", "inf", "wit", "tv", "i", "kl"]


class _Watched(np.ndarray):
    """An array that records in ``seen`` every max or min reduction over a
    2-D array of ``entries`` entries or more; arrays computed from it are
    watched too."""

    seen: list = []
    entries = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if method == "reduce" and ufunc in (np.maximum, np.minimum, np.fmax, np.fmin):
            if inputs[0].ndim == 2 and inputs[0].size >= _Watched.entries:
                _Watched.seen.append((ufunc.__name__, inputs[0].shape))
        plain = [x.view(np.ndarray) if isinstance(x, _Watched) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Watched) else x for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Watched) if isinstance(result, np.ndarray) and result.ndim else result

    def argmax(self, *args, **kwargs):
        _Watched.seen.append(("argmax", self.shape))
        return self.view(np.ndarray).argmax(*args, **kwargs)

    def argmin(self, *args, **kwargs):
        _Watched.seen.append(("argmin", self.shape))
        return self.view(np.ndarray).argmin(*args, **kwargs)


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``core.fibers`` and ``np.bincount`` calls, wherever a module
    of the package holds them, of ``np.stack`` calls and of tables built.
    The fibers matrices are handed out watched (:class:`_Watched`)."""
    for info in pkgutil.iter_modules(cluekit.__path__):
        importlib.import_module(f"cluekit.{info.name}")
    counts = {"fibers": 0, "bincount": 0, "stack": 0, "tables": 0}
    fibers, bincount, stack = core.fibers, np.bincount, np.stack
    post_init = FunctionTable.__post_init__
    _Watched.seen = []

    def counted_post_init(self):
        counts["tables"] += 1
        post_init(self)

    def counted_fibers(values, space, mask):
        counts["fibers"] += 1
        _Watched.entries = space.size
        return fibers(values, space, mask).view(_Watched)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for name, module in list(sys.modules.items()):
        if name.startswith("cluekit") and getattr(module, "fibers", None) is fibers:
            monkeypatch.setattr(module, "fibers", counted_fibers)
    monkeypatch.setattr(np, "bincount", counted("bincount", bincount))
    monkeypatch.setattr(np, "stack", counted("stack", stack))
    monkeypatch.setattr(FunctionTable, "__post_init__", counted_post_init)
    return counts


@pytest.fixture
def sweeps(calls, monkeypatch):
    """The lengths of the value vectors handed to ``infotheory._entropy_gaps``,
    the calls of ``clue._weighted_deviation``, and the max and min
    reductions over a watched fibers matrix."""
    seen = {"gap_lengths": [], "deviations": 0, "extrema": _Watched.seen}
    gaps, deviation = infotheory._entropy_gaps, clue._weighted_deviation

    def counted_gaps(vals, *args, **kwargs):
        seen["gap_lengths"].append(np.size(vals))
        return gaps(vals, *args, **kwargs)

    def counted_deviation(f):
        seen["deviations"] += 1
        return deviation(f)

    monkeypatch.setattr(infotheory, "_entropy_gaps", counted_gaps)
    monkeypatch.setattr(clue, "_weighted_deviation", counted_deviation)
    return seen


def _bits_table() -> FunctionTable:
    """A {0, 1} table on a q = 3 space with a zero-probability atom."""
    space = ProductSpace(4, 3, np.array([[0.0, 0.4, 0.6], [0.2, 0.3, 0.5], [0.5, 0.25, 0.25],
                                         [0.1, 0.1, 0.8]]))
    return FunctionTable(space, np.random.default_rng(5).integers(0, 2, space.size).astype(float))


# each table, and the permutations one mask takes: none by counts
BOOLEAN = {"maj:9": (lambda: from_spec("maj:9").table, 0),
           "tribes:2,3": (lambda: from_spec("tribes:2,3").table, 0),
           "bits-q3-zero-atom": (_bits_table, 1)}


@pytest.mark.parametrize("name", BOOLEAN)
@pytest.mark.parametrize("which", ["low", "high", "empty", "full"])
def test_every_metric_of_a_mask_shares_one_permutation(calls, sweeps, name, which):
    make, permutations = BOOLEAN[name]
    f = make()
    n = f.n
    mask = {"low": 0b101, "high": (1 << (n - 1)) | 0b10, "empty": 0, "full": (1 << n) - 1}[which]
    calls["tables"] = 0
    out = cli._metric_values(f, mask, ALL_METRICS)
    assert len(out) == 9  # sig brings sig_i
    assert calls["tables"] == 0  # no second table, for the KL clue or any other
    assert calls["fibers"] == permutations and calls["bincount"] == 0
    if not permutations:  # by counts: no joint law is formed at all
        assert calls["stack"] == 0
    # Ent(f) from the level masses, Ent(E[f | X_U]) from the q^|U| fiber sums
    assert sweeps["gap_lengths"] and max(sweeps["gap_lengths"]) < f.space.size
    assert sweeps["deviations"] == 0  # E|f - E f| from the level masses
    assert sweeps["extrema"] == []  # constancy from level counts


def test_a_real_table_permutes_once_and_counts_its_joint_laws(calls):
    f = FunctionTable(uniform_space(6), np.random.default_rng(2).integers(0, 3, 64).astype(float))
    cli._metric_values(f, 0b010110, ["l2", "spectral", "sig", "tv", "i", "kl"])
    assert calls["fibers"] == 1
    assert calls["bincount"] > 0  # value groups of a table that is not Boolean
