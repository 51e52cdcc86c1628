"""Every metric of one mask reads one split of the table.

``cli._metric_values`` builds one split per mask and hands it to every
requested metric.  With all eight metrics it permutes the table once (one
call to ``core.fibers``), and a Boolean table's information comes from the
split's conditional marginal, so nothing is counted with ``np.bincount``.
An edit that permutes the table again for some metric, or counts a Boolean
joint law, fails here.
"""
import importlib
import pkgutil
import sys

import numpy as np
import pytest

import cluekit
from cluekit import cli, core
from cluekit.core import FunctionTable, ProductSpace, uniform_space
from cluekit.zoo import majority, tribes

ALL_METRICS = ["l2", "spectral", "sig", "inf", "wit", "tv", "i", "kl"]


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``core.fibers`` and ``np.bincount`` calls, wherever a module
    of the package holds them."""
    for info in pkgutil.iter_modules(cluekit.__path__):
        importlib.import_module(f"cluekit.{info.name}")
    counts = {"fibers": 0, "bincount": 0}
    fibers, bincount = core.fibers, np.bincount

    def counted_fibers(*args, **kwargs):
        counts["fibers"] += 1
        return fibers(*args, **kwargs)

    def counted_bincount(*args, **kwargs):
        counts["bincount"] += 1
        return bincount(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cluekit") and getattr(module, "fibers", None) is fibers:
            monkeypatch.setattr(module, "fibers", counted_fibers)
    monkeypatch.setattr(np, "bincount", counted_bincount)
    return counts


def _bits_table() -> FunctionTable:
    """A {0, 1} table on a q = 3 space with a zero-probability atom."""
    space = ProductSpace(4, 3, np.array([[0.0, 0.4, 0.6], [0.2, 0.3, 0.5], [0.5, 0.25, 0.25],
                                         [0.1, 0.1, 0.8]]))
    return FunctionTable(space, np.random.default_rng(5).integers(0, 2, space.size).astype(float))


BOOLEAN = {"maj:9": lambda: majority(9).table, "tribes:2,3": lambda: tribes(2, 3).table,
           "bits-q3-zero-atom": _bits_table}


@pytest.mark.parametrize("name", BOOLEAN)
@pytest.mark.parametrize("which", ["low", "high", "empty", "full"])
def test_every_metric_of_a_mask_shares_one_permutation(calls, name, which):
    f = BOOLEAN[name]()
    n = f.n
    mask = {"low": 0b101, "high": (1 << (n - 1)) | 0b10, "empty": 0, "full": (1 << n) - 1}[which]
    out = cli._metric_values(f, mask, ALL_METRICS)
    assert len(out) == 9  # sig brings sig_i
    assert calls == {"fibers": 1, "bincount": 0}


def test_a_real_table_permutes_once_and_counts_its_joint_laws(calls):
    f = FunctionTable(uniform_space(6), np.random.default_rng(2).integers(0, 3, 64).astype(float))
    cli._metric_values(f, 0b010110, ["l2", "spectral", "sig", "tv", "i", "kl"])
    assert calls["fibers"] == 1
    assert calls["bincount"] > 0  # value groups of a table that is not Boolean
