"""Per-object facts are computed once and kept in the object's own cache.

The cached values must equal a first computation on a copied table and the
plain formulas they replace; cached arrays are read-only and a second call
returns the same object, for tables, spaces and games; a full-metric
``analyze`` groups the values once and never sorts for a Boolean check;
``game`` computes the Shapley values and the second differences once; and an
object's cache never keeps the object alive.
"""
import gc
import io
import weakref
from contextlib import redirect_stdout

import numpy as np
import pytest

from cluekit import cli, clue, core, games, infotheory, spectral, suites
from cluekit.core import FunctionTable, ProductSpace, uniform_space
from cluekit.errors import DegenerateError
from cluekit.symmetry import GroupAction
from cluekit.zoo import from_spec
from conftest import biased_bits, save_table

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
        "mean": lambda: core.expectation(f),
        "variance": lambda: suites._variance(f),
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
    for array in (codes, reps, infotheory._value_probs(f)):
        assert not array.flags.writeable


def _memoized_facts():
    """A zero-argument call for every array or tuple kept through
    per_object on a space, a table or a game, with its name as the test id."""
    space = ProductSpace(3, 3, np.array([[0.2, 0.0, 0.8], [0.5, 0.25, 0.25], [0.1, 0.6, 0.3]]))
    f = from_spec("maj:7").table
    g = FunctionTable(space, np.arange(27.0))
    game = games.build_clue_game(f)
    facts = {
        "uniform-config-weights": f.space.config_weights,
        "product-config-weights": space.config_weights,
        "bases": lambda: spectral._bases(space),
        "forward-squares": lambda: spectral._forward_squares(space),
        "inverse-squares": lambda: spectral._inverse_squares(space),
        "walsh-forward-squares": lambda: spectral._forward_squares(f.space),
        "walsh-inverse-squares": lambda: spectral._inverse_squares(f.space),
        "count-law": f.count_law,
        "level-matrix": lambda: spectral._level_matrix(f.n),
        "level-coefficients": lambda: spectral._level_coefficients(f),
        "walsh-hadamard": lambda: spectral.walsh_hadamard(f),
        "q3-coefficients": lambda: spectral._coefficients(g),
        "shapley": lambda: games.shapley(game),
        "is-supermodular": lambda: games.is_supermodular(game),
    }
    return [pytest.param(fact, id=name) for name, fact in facts.items()]


@pytest.mark.parametrize("fact", _memoized_facts())
def test_memoized_facts_are_kept_and_read_only(fact):
    first = fact()
    assert fact() is first
    for part in first if isinstance(first, tuple) else (first,):
        if isinstance(part, np.ndarray):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0.0


def test_efron_stein_weights_are_fresh_squares_of_the_kept_coefficients():
    f = FunctionTable(biased_bits(6, 0.3), np.random.default_rng(1).standard_normal(64))
    weights = spectral.efron_stein(f)
    again = spectral.efron_stein(f)
    assert weights is not again and weights.flags.writeable
    assert np.array_equal(weights, again)
    assert np.array_equal(weights, spectral._coefficients(f) ** 2)


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_game_computes_shapley_values_and_second_differences_once(monkeypatch):
    """With every check on, the Shapley values are one Moebius transform and
    the supermodularity test one pass over the squares, however many checks
    (the bound's hypothesis among them) read them."""
    mobius = _count_calls(monkeypatch, games, "subset_mobius")
    diffs = _count_calls(monkeypatch, np, "diff")
    argv = ["game", "--fn", "maj:9", "--checks", "shapley,supermod,core,bound"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(mobius) == 1
    job_diffs = len(diffs)
    diffs.clear()
    games.is_supermodular.__wrapped__(games.build_clue_game(from_spec("maj:9").table))
    assert job_diffs == len(diffs) > 0


def test_subgame_gain_reuses_the_supermodularity_test(monkeypatch):
    game = games.build_clue_game(from_spec("maj:5").table)
    assert games.is_supermodular(game)[0]
    diffs = _count_calls(monkeypatch, np, "diff")
    suites._subgame_shapley_gain(game, 0b00011, 0b01111)
    assert diffs == []


def test_covariance_lemma_never_sorts_for_the_value_check(monkeypatch):
    f, g = from_spec("maj:7").table, from_spec("dictator:7,0").table
    unique = _count_calls(monkeypatch, np, "unique")
    lhs, rhs = suites._covariance_lemma_check(f, g)
    assert unique == []
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("values, accepted", [
    pytest.param(np.ones(8), True, id="all-plus-one"),
    pytest.param(-np.ones(8), True, id="all-minus-one"),
    pytest.param(np.where(np.arange(8) % 3 == 0, 1.0, -1.0), True, id="plus-minus-one"),
    pytest.param(np.zeros(8), False, id="all-zero"),
    pytest.param((np.arange(8) % 2).astype(float), False, id="zero-one"),
    pytest.param(np.where(np.arange(8) % 3 == 0, 1.0, 0.5), False, id="not-boolean"),
])
def test_pivotal_sets_accept_exactly_the_plus_minus_one_tables(values, accepted):
    f = FunctionTable(uniform_space(3), values)
    if accepted:
        suites._pivotal_masks(f)
    else:
        with pytest.raises(ValueError, match="-1"):
            suites._pivotal_masks(f)


def test_full_metric_analyze_groups_values_once_and_never_sorts_for_booleans(monkeypatch):
    calls = {"group_values": 0, "unique": 0}
    group_values, unique = infotheory.group_values, np.unique

    def counted_group_values(values):
        calls["group_values"] += 1
        return group_values(values)

    def counted_unique(*args, **kwargs):
        calls["unique"] += 1
        return unique(*args, **kwargs)

    """A Boolean table's value groups are its levels, read off its value
    range, so a full-metric analyze sorts nothing; a real-valued table is
    grouped by sorting, once for every metric that needs its groups."""
    monkeypatch.setattr(infotheory, "group_values", counted_group_values)
    monkeypatch.setattr(np, "unique", counted_unique)
    argv = ["analyze", "--fn", "maj:15", "--subset", "0,1,2,3,4,5,6", "--metrics", ALL_METRICS]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls == {"group_values": 0, "unique": 0}
    argv = ["analyze", "--fn", "sum:12", "--subset", "0,1,2,3,4,5", "--metrics", "l2,spectral,sig,tv,i"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls == {"group_values": 1, "unique": 0}


def _analyze(spec, metrics):
    return ["analyze", "--fn", spec, "--subset", "0,1,2", "--metrics", metrics]


@pytest.mark.parametrize("argv, tables, others", [
    # the table alone, KL-clue included; the zoo entry's group
    pytest.param(_analyze("maj:9", ALL_METRICS), 1, 1, id=f"maj:9-{ALL_METRICS}-1"),
    pytest.param(_analyze("sum:8", "l2,spectral,sig,tv,i"), 1, 1, id="sum:8-l2,spectral,sig,tv,i-1"),
    pytest.param(_analyze("zero-one.json", ALL_METRICS), 1, 0, id=f"zero-one.json-{ALL_METRICS}-1"),
    pytest.param(["spectrum", "--fn", "maj:9"], 1, 1, id="spectrum-maj:9"),
    # the table and the game read as a table for the invariance test; the
    # game and the group
    pytest.param(["game", "--fn", "maj:9", "--checks", "shapley,supermod,core,bound"], 2, 2,
                 id="game-maj:9-bound"),
])
def test_tables_of_a_job_are_freed_without_the_cycle_collector(argv, tables, others, tmp_path, monkeypatch):
    """Tables and games keep caches, and a group is made alongside them; none
    of them may wait for the cyclic garbage collector."""
    if argv[2].endswith(".json"):
        argv = argv[:2] + [str(tmp_path / argv[2])] + argv[3:]
        save_table(_zero_one(), argv[2])
    refs = {FunctionTable: [], games.CooperativeGame: [], GroupAction: []}
    for cls, made in refs.items():
        post_init = cls.__post_init__

        def tracked(self, post_init=post_init, made=made):
            post_init(self)
            made.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__post_init__", tracked)
    gc.collect()
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        made = [refs[FunctionTable], refs[games.CooperativeGame] + refs[GroupAction]]
        assert [len(m) for m in made] == [tables, others]
        assert [r() for m in made for r in m] == [None] * (tables + others)
    finally:
        gc.enable()
