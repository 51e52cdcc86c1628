import numpy as np
import pytest

from cluekit.core import FunctionTable, expectation, permute, uniform_space
from cluekit.infotheory import mutual_information
from cluekit.perco import TorusSpec
from cluekit.symmetry import (
    average,
    cyclic_group,
    from_generators,
    is_invariant,
    is_transitive,
    orbits,
    stabilizer_of,
    symmetric_group_action,
    tribes_group,
)
from cluekit.suites import _variance
from cluekit.zoo import from_spec
from conftest import group_elements, subset_orbit_union


def trivial_group(n: int):
    return from_generators([], n)


def test_invariance_examples():
    assert is_invariant(from_spec("maj:3").table, cyclic_group(3))
    assert not is_invariant(from_spec("dictator:3,0").table, cyclic_group(3))
    assert is_invariant(from_spec("tribes:2,2").table, tribes_group(2, 2))


def test_invariance_under_full_group_elements():
    grp = tribes_group(2, 2)
    f = from_spec("tribes:2,2").table
    for perm in group_elements(grp):
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


@pytest.mark.parametrize("group, order", [
    pytest.param(tribes_group(2, 2), 8, id="tribes-2,2"),  # (2!)^2 * 2!
    pytest.param(tribes_group(1, 3), 6, id="tribes-1,3"),
    pytest.param(tribes_group(3, 1), 6, id="tribes-3,1"),
    pytest.param(stabilizer_of(0, 4), 6, id="stabilizer-0,4"),
    pytest.param(stabilizer_of(2, 4), 6, id="stabilizer-2,4"),
    pytest.param(symmetric_group_action(4), 24, id="symmetric-4"),
    pytest.param(symmetric_group_action(2), 2, id="symmetric-2"),
    pytest.param(cyclic_group(5), 5, id="cyclic-5"),
])
def test_stock_groups_generate_their_order(group, order):
    assert len(group_elements(group)) == order


@pytest.mark.parametrize("group", [
    pytest.param(symmetric_group_action(1), id="symmetric-1"),
    pytest.param(stabilizer_of(0, 1), id="stabilizer-0,1"),
    pytest.param(stabilizer_of(1, 2), id="stabilizer-1,2"),
    pytest.param(tribes_group(1, 1), id="tribes-1,1"),
])
def test_groups_moving_fewer_than_two_coordinates_have_no_generators(group):
    assert group.generators == ()
    assert group_elements(group) == [tuple(range(group.n))]


def test_symmetric_generators_are_swap_then_cycle():
    assert symmetric_group_action(4).generators == ((1, 0, 2, 3), (1, 2, 3, 0))
    assert stabilizer_of(1, 4).generators == ((2, 1, 0, 3), (2, 1, 3, 0))


def test_average_fixes_invariant_function():
    f = from_spec("maj:3").table
    avg = average(f, group_elements(cyclic_group(3)))
    np.testing.assert_allclose(avg.values, f.values, atol=1e-14)


def test_average_symmetrizes_dictator():
    n = 4
    avg = average(from_spec(f"dictator:{n},0").table, group_elements(symmetric_group_action(n)))
    expected = from_spec(f"sum:{n}").table.values / n
    np.testing.assert_allclose(avg.values, expected, atol=1e-12)


def test_average_idempotent_and_contracts_variance():
    rng = np.random.default_rng(0)
    f = FunctionTable(uniform_space(5), rng.standard_normal(32))
    grp = cyclic_group(5)
    once = average(f, group_elements(grp))
    twice = average(once, group_elements(grp))
    np.testing.assert_allclose(once.values, twice.values, atol=1e-12)
    assert _variance(once) <= _variance(f) + 1e-12
    assert expectation(once) == pytest.approx(expectation(f), abs=1e-12)
    assert is_invariant(once, grp)


def test_subset_orbit_union_examples():
    assert subset_orbit_union(0b1, cyclic_group(4), 4) == 0b1111
    assert subset_orbit_union(0b0110, trivial_group(4), 4) == 0b0110
    torus = TorusSpec(3)
    grp = torus.translation_group()
    union = subset_orbit_union(1 << torus.h_edge(0, 0), grp, torus.edge_count)
    assert union.bit_count() == 9


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        from_generators([(0, 0, 1)], 3)


def test_mutual_information_invariant_under_action():
    for entry in (from_spec("maj:5"), from_spec("tribes:2,3")):
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

    for perms in ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [[1, 2, 0]]):
        path = tmp_path / "perms.json"
        path.write_text(json.dumps(perms))
        grp = group_from_spec(f"@{path}")
        assert grp.generators == tuple(tuple(p) for p in perms)
        assert group_elements(grp) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert is_transitive(grp)


@pytest.mark.parametrize("perms", [
    pytest.param([[0, 0, 1]], id="not-a-permutation"),
    pytest.param([[1.0, 2.0, 0.0]], id="floats"),
    pytest.param([[0, 1, 2], [1, 2]], id="two-lengths"),
    pytest.param([], id="empty"),
    pytest.param({"0": [0, 1]}, id="object"),
    pytest.param(3, id="number"),
])
def test_group_from_spec_refuses_a_bad_permutation_list(tmp_path, perms):
    import json

    from cluekit.errors import ParseError
    from cluekit.symmetry import group_from_spec

    path = tmp_path / "perms.json"
    path.write_text(json.dumps(perms))
    with pytest.raises(ParseError):
        group_from_spec(f"@{path}")


def test_translate_table_orientation_composes():
    rng = np.random.default_rng(1)
    f = FunctionTable(uniform_space(4), rng.standard_normal(16))
    grp = symmetric_group_action(4)
    a, b = grp.generators
    composed = tuple(b[a[v]] for v in range(4))  # apply a, then b
    via_two = permute(permute(f.values, f.space, a), f.space, b)
    via_one = permute(f.values, f.space, composed)
    np.testing.assert_allclose(via_two, via_one, atol=0)
