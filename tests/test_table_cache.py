"""Per-table invariants are computed once and kept in the table's own cache.

The cached values must equal a first computation on a copied table and the
plain formulas they replace; a full-metric ``analyze`` groups the values once
and never sorts for a Boolean check; and a table's cache never keeps the
table alive.
"""
import gc
import io
import weakref
from contextlib import redirect_stdout

import numpy as np
import pytest

from cluekit import cli, clue, core, infotheory
from cluekit.core import FunctionTable, ProductSpace, uniform_space
from cluekit.errors import DegenerateError
from cluekit.zoo import from_spec
from conftest import save_table

ALL_METRICS = ",".join(cli.METRIC_NAMES)


def _random_q3_with_zero_atom() -> FunctionTable:
    pi = np.array([[0.2, 0.0, 0.8], [0.5, 0.25, 0.25], [0.1, 0.6, 0.3], [0.2, 0.0, 0.8]])
    values = np.random.default_rng(3).integers(0, 4, size=3**4).astype(float)
    return FunctionTable(ProductSpace(4, 3, pi), values)


def _pm_one() -> FunctionTable:
    return FunctionTable(uniform_space(5), np.where(np.arange(32) % 3 == 0, 1.0, -1.0))


def _zero_one() -> FunctionTable:
    return FunctionTable(uniform_space(5), (np.arange(32) % 3 == 0).astype(float))


TABLES = {
    "maj:7": lambda: from_spec("maj:7").table,
    "parity:5": lambda: from_spec("parity:5").table,
    "tribes:2,3": lambda: from_spec("tribes:2,3").table,
    "amaj:7,0.3": lambda: from_spec("amaj:7,0.3").table,
    "sum:6": lambda: from_spec("sum:6").table,
    "pm-one": _pm_one,
    "zero-one": _zero_one,
    "q3-zero-atom": _random_q3_with_zero_atom,
}


def _invariants(f: FunctionTable) -> dict:
    """Every cached per-table fact, or the type of error it raises."""
    facts = {
        "range": f.value_range,
        "boolean": f.is_boolean,
        "indicator": lambda: f.as_indicator().values.tolist(),
        "mean": lambda: core.expectation(f),
        "variance": lambda: core.variance(f),
        "variance_and_spread": lambda: core.variance_and_spread(f),
        "varying": lambda: core.require_varying(f),
        "checked_variance": lambda: clue._checked_variance(f),
        "mad": lambda: clue._mean_absolute_deviation(f),
        "groups": lambda: tuple(a.tolist() for a in infotheory._value_groups(f)),
        "value_probs": lambda: infotheory._value_probs(f).tolist(),
        "value_entropy": lambda: infotheory.value_entropy(f),
        "ent": lambda: infotheory.ent_functional(f),
    }
    out = {}
    for name, fact in facts.items():
        try:
            out[name] = fact()
        except (ValueError, DegenerateError) as exc:
            out[name] = type(exc).__name__
    return out


@pytest.mark.parametrize("name", TABLES)
def test_cached_invariants_equal_a_fresh_computation_on_a_copy(name):
    f = TABLES[name]()
    mask = 0b101
    for metric in cli.METRIC_NAMES:  # warm every cache entry the metrics use
        try:
            cli._metric_values(f, mask, [metric])
        except (ValueError, DegenerateError):
            pass  # a metric the table is outside the domain of
    warm = _invariants(f)
    assert _invariants(f) == warm
    copy = FunctionTable(f.space, f.values.copy())
    assert _invariants(copy) == warm


@pytest.mark.parametrize("name", TABLES)
def test_cached_invariants_equal_the_plain_formulas(name):
    f = TABLES[name]()
    v, w = f.values.copy(), f.space.config_weights()
    u = set(np.unique(v).tolist())
    boolean = len(u) <= 2 and (u <= {0.0, 1.0} or u <= {-1.0, 1.0})
    assert f.is_boolean() == boolean
    if boolean:
        expected = (v + 1.0) / 2.0 if u <= {-1.0, 1.0} else v
        assert np.array_equal(f.as_indicator().values, expected)
    assert f.value_range() == (v.min(), v.max())
    mean = float(w @ v)
    dev = v - mean
    spread = float(max(dev.max(), -dev.min()))
    var = max(float(w @ dev**2) - float(w @ dev) ** 2, 0.0)
    assert core.expectation(f) == mean
    assert core.variance_and_spread(f) == (var, spread)
    codes, reps = infotheory.group_values(v)
    cached_codes, cached_reps = infotheory._value_groups(f)
    assert np.array_equal(cached_codes, codes) and np.array_equal(cached_reps, reps)
    probs = np.bincount(codes, weights=w, minlength=len(reps))
    assert np.array_equal(infotheory._value_probs(f), probs)
    assert infotheory.value_entropy(f) == infotheory.entropy(probs)


def test_cached_arrays_are_read_only():
    f = from_spec("maj:5").table
    codes, reps = infotheory._value_groups(f)
    for array in (codes, reps, infotheory._value_probs(f), f.as_indicator().values):
        assert not array.flags.writeable


def test_a_zero_one_table_is_its_own_indicator():
    f = _zero_one()
    assert f.as_indicator() is f
    g = _pm_one()
    assert g.as_indicator() is g.as_indicator()


def test_full_metric_analyze_groups_values_once_and_never_sorts_for_booleans(monkeypatch):
    calls = {"group_values": 0, "unique": 0}
    group_values, unique = infotheory.group_values, np.unique

    def counted_group_values(values):
        calls["group_values"] += 1
        return group_values(values)

    def counted_unique(*args, **kwargs):
        calls["unique"] += 1
        return unique(*args, **kwargs)

    monkeypatch.setattr(infotheory, "group_values", counted_group_values)
    monkeypatch.setattr(np, "unique", counted_unique)
    argv = ["analyze", "--fn", "maj:15", "--subset", "0,1,2,3,4,5,6", "--metrics", ALL_METRICS]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls == {"group_values": 1, "unique": 0}


@pytest.mark.parametrize("spec, metrics, tables", [
    ("maj:9", ALL_METRICS, 2),  # the table and its {0,1} normalization
    ("sum:8", "l2,spectral,sig,tv,i", 1),
    ("zero-one.json", ALL_METRICS, 1),  # its own normalization
])
def test_tables_of_a_job_are_freed_without_the_cycle_collector(spec, metrics, tables, tmp_path, monkeypatch):
    if spec.endswith(".json"):
        spec = str(tmp_path / spec)
        save_table(_zero_one(), spec)
    refs = []
    post_init = FunctionTable.__post_init__

    def tracked(self):
        post_init(self)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(FunctionTable, "__post_init__", tracked)
    argv = ["analyze", "--fn", spec, "--subset", "0,1,2", "--metrics", metrics]
    gc.collect()
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(refs) == tables
        assert [r() for r in refs] == [None] * tables
    finally:
        gc.enable()
