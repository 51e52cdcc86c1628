import numpy as np
import pytest

from cluekit.core import FunctionTable, expectation, permute, uniform_space, variance
from cluekit.infotheory import mutual_information
from cluekit.perco import TorusSpec
from cluekit.symmetry import (
    average,
    cyclic_group,
    from_elements,
    from_generators,
    is_invariant,
    is_transitive,
    orbits,
    symmetric_group_action,
    tribes_group,
)
from cluekit.zoo import dictator, majority, sum_function, tribes
from conftest import subset_orbit_union


def trivial_group(n: int):
    return from_elements([tuple(range(n))], n)


def test_invariance_examples():
    assert is_invariant(majority(3).table, cyclic_group(3))
    assert not is_invariant(dictator(3, 0).table, cyclic_group(3))
    assert is_invariant(tribes(2, 2).table, tribes_group(2, 2))


def test_invariance_under_full_group_elements():
    grp = tribes_group(2, 2)
    f = tribes(2, 2).table
    for perm in grp.elements():
        moved = permute(f.values, f.space, perm)
        np.testing.assert_array_equal(moved, f.values)


def test_transitivity_examples():
    assert is_transitive(cyclic_group(6))
    assert not is_transitive(trivial_group(4))
    assert len(orbits(trivial_group(4))) == 4
    torus = TorusSpec(3)
    parts = orbits(torus.translation_group())
    assert len(parts) == 2
    assert sorted(len(p) for p in parts) == [9, 9]


def test_tribes_group_is_transitive():
    assert is_transitive(tribes_group(3, 4))
    assert len(tribes_group(2, 2).elements()) == 8  # (2!)^2 * 2!


def test_average_fixes_invariant_function():
    f = majority(3).table
    avg = average(f, cyclic_group(3).elements())
    np.testing.assert_allclose(avg.values, f.values, atol=1e-14)


def test_average_symmetrizes_dictator():
    n = 4
    avg = average(dictator(n, 0).table, symmetric_group_action(n).elements())
    expected = sum_function(n).table.values / n
    np.testing.assert_allclose(avg.values, expected, atol=1e-12)


def test_average_idempotent_and_contracts_variance():
    rng = np.random.default_rng(0)
    f = FunctionTable(uniform_space(5), rng.standard_normal(32))
    grp = cyclic_group(5)
    once = average(f, grp.elements())
    twice = average(once, grp.elements())
    np.testing.assert_allclose(once.values, twice.values, atol=1e-12)
    assert variance(once) <= variance(f) + 1e-12
    assert expectation(once) == pytest.approx(expectation(f), abs=1e-12)
    assert is_invariant(once, grp)


def test_subset_orbit_union_examples():
    assert subset_orbit_union(0b1, cyclic_group(4), 4) == 0b1111
    assert subset_orbit_union(0b0110, trivial_group(4), 4) == 0b0110
    torus = TorusSpec(3)
    grp = torus.translation_group()
    union = subset_orbit_union(1 << torus.h_edge(0, 0), grp, torus.edge_count)
    assert union.bit_count() == 9


def test_from_elements_requires_closure():
    shift = (1, 2, 0)
    with pytest.raises(ValueError):
        from_elements([(0, 1, 2), shift], 3)  # missing shift^2
    grp = from_elements([(0, 1, 2), (1, 2, 0), (2, 0, 1)], 3)
    assert len(grp.elements()) == 3


def test_from_elements_requires_identity():
    with pytest.raises(ValueError):
        from_elements([(1, 2, 0), (2, 0, 1)], 3)


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        from_generators([(0, 0, 1)], 3)


def test_mutual_information_invariant_under_action():
    for entry in (majority(5), tribes(2, 3)):
        f = entry.table
        for perm in entry.action.generators:
            for mask in (0b1, 0b1010, 0b11011):
                mask = mask & ((1 << f.n) - 1)
                image = 0
                for v in range(f.n):
                    if (mask >> v) & 1:
                        image |= 1 << perm[v]
                assert mutual_information(f, mask) == pytest.approx(
                    mutual_information(f, image), abs=1e-12
                )


def test_group_from_spec():
    import json

    from cluekit.errors import ParseError
    from cluekit.symmetry import group_from_spec

    assert is_transitive(group_from_spec("cyclic:5"))
    assert is_transitive(group_from_spec("symmetric:4"))
    assert is_transitive(group_from_spec("tribes:2,3"))
    assert len(orbits(group_from_spec("torus:3"))) == 2
    import pytest as _pytest

    with _pytest.raises(ParseError):
        group_from_spec("noidea:3")


def test_group_from_spec_explicit_file(tmp_path):
    import json

    from cluekit.symmetry import group_from_spec

    perms = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    path = tmp_path / "perms.json"
    path.write_text(json.dumps(perms))
    grp = group_from_spec(f"@{path}")
    assert len(grp.elements()) == 3
    assert is_transitive(grp)


def test_translate_table_orientation_composes():
    rng = np.random.default_rng(1)
    f = FunctionTable(uniform_space(4), rng.standard_normal(16))
    grp = symmetric_group_action(4)
    a, b = grp.generators
    composed = tuple(b[a[v]] for v in range(4))  # apply a, then b
    via_two = permute(permute(f.values, f.space, a), f.space, b)
    via_one = permute(f.values, f.space, composed)
    np.testing.assert_allclose(via_two, via_one, atol=0)
