import math

import numpy as np
import pytest

from cluekit.clue import clue, influence_set
from cluekit.core import (
    FunctionTable,
    expectation,
    mask_from_indices,
    table_from_digits,
    uniform_space,
)
from cluekit.errors import ParseError
from cluekit.perco import TorusSpec, torus_lr_evaluator
from cluekit.symmetry import is_invariant, is_transitive
from cluekit.suites import _asym_majority_influence, _coupled_majority_size, _find_a
from cluekit.zoo import (
    balanced_tribe_size,
    composite_evaluator,
    FAMILIES,
    evaluator_from_spec,
    from_spec,
)
from conftest import ZERO_ATOM_Q3, biased_bits


def spins_to_index(spins):
    return sum(1 << v for v, s in enumerate(spins) if s > 0)


def asym_majority_table(n, a):
    return from_spec(f"amaj:{n},{a}").table


def composite_table(m, t, a):
    return table_from_digits(uniform_space(m + t), composite_evaluator(m, t, a))


def test_majority_values():
    f = from_spec("maj:3").table
    assert f.values[spins_to_index([+1, +1, -1])] == 1.0
    assert f.values[spins_to_index([-1, +1, -1])] == -1.0


def test_parity_values():
    f = from_spec("parity:3").table
    assert f.values[spins_to_index([+1, -1, -1])] == 1.0
    assert f.values[spins_to_index([+1, +1, -1])] == -1.0


def test_sum_values():
    f = from_spec("sum:3").table
    assert f.values[spins_to_index([+1, +1, +1])] == 3.0
    assert f.values[spins_to_index([-1, +1, -1])] == -1.0


def test_majority_needs_odd():
    with pytest.raises(ParseError):
        from_spec("maj:4")


def test_asym_majority_reduces_to_majority():
    np.testing.assert_array_equal(
        asym_majority_table(5, 0.0).values, from_spec("maj:5").table.values
    )


def test_asym_majority_large_shift_constant():
    f = asym_majority_table(4, 2.5)  # threshold 5 > 4
    assert np.all(f.values == -1.0)


def test_asym_majority_expectation_example():
    # n=4, a=1/2: +1 iff sum > 1, i.e. sum >= 2, with P = 5/16
    f = asym_majority_table(4, 0.5)
    assert expectation(f) == pytest.approx(-6 / 16, abs=1e-14)


def test_asym_majority_tie_maps_to_minus_one():
    f = asym_majority_table(4, 0.0)
    assert f.values[spins_to_index([+1, +1, -1, -1])] == -1.0  # sum == threshold


def test_tribes_or():
    f = from_spec("tribes:1,3").table
    assert expectation(f) == pytest.approx(7 / 8)
    assert f.values[0] == 0.0


def test_tribes_expectation_and_all_ones():
    f = from_spec("tribes:2,2").table
    assert expectation(f) == pytest.approx(7 / 16, abs=1e-14)
    assert f.values[-1] == 1.0


def test_tribes_action():
    entry = from_spec("tribes:2,3")
    assert is_invariant(entry.table, entry.action)
    assert is_transitive(entry.action)


def test_zoo_actions_invariant_and_transitive():
    for entry in (from_spec("sum:5"), from_spec("parity:5"), from_spec("maj:5"), from_spec("tribes:3,2")):
        assert is_invariant(entry.table, entry.action)
        assert is_transitive(entry.action)
    d = from_spec("dictator:4,1")
    assert is_invariant(d.table, d.action)
    assert not is_transitive(d.action)


def test_composite_all_ones_tribes_block():
    m, t, a = 3, 2, 0.5
    table = composite_table(m, t, a)
    up = asym_majority_table(m, a).values
    # tribes part all ones: top t digits = 1
    for idx in range(1 << m):
        full = idx | (((1 << t) - 1) << m)
        assert table.values[full] == up[idx]


def test_composite_zero_shift_is_plain_majority():
    table = composite_table(3, 2, 0.0)
    maj = from_spec("maj:3").table.values
    for idx in range(1 << 5):
        assert table.values[idx] == maj[idx & 0b111]


def test_composite_block_clues_exact():
    # Exact enumeration over 2^8 configurations.  With a small shift the
    # majority block explains more variance than the steering block; the
    # steering block only dominates once the shift separates the two
    # majorities, e.g. at a = 3/2.
    t_mask = mask_from_indices(range(4, 8), 8)
    m_mask = mask_from_indices(range(0, 4), 8)
    weak = composite_table(4, 4, 0.5)
    assert clue(weak, t_mask) == pytest.approx(567 / 4087, abs=1e-12)
    assert clue(weak, t_mask) < clue(weak, m_mask)
    strong = composite_table(4, 4, 1.5)
    assert clue(strong, t_mask) > clue(strong, m_mask)
    assert clue(strong, t_mask) > 0.7


def test_balanced_tribe_size():
    assert balanced_tribe_size(4) == 2
    assert balanced_tribe_size(40) == 4
    assert balanced_tribe_size(80) == 5


def test_coupled_majority_size():
    assert _coupled_majority_size(40) == round((40 / math.log(40)) ** 1.5)


def test_asym_majority_influence_matches_flip_count():
    for n, a in ((5, 0.0), (6, 0.5), (7, 1.0)):
        f = asym_majority_table(n, a)
        assert _asym_majority_influence(n, a) == pytest.approx(influence_set(f, 1 << 0), abs=1e-12)


def test_find_a_hits_reachable_targets():
    n = 36
    target = n ** (-2 / 3)
    a = _find_a(n, target)
    achieved = _asym_majority_influence(n, a)
    # step function: the match is the nearest attainable level
    assert achieved == pytest.approx(target, rel=0.5)
    assert _find_a(n, 1.0) == pytest.approx(0.0, abs=1e-6)


def _spins(digits):
    return digits.astype(np.int64) * 2 - 1


def reference_evaluator(spec):
    """The evaluator of a zoo spec, computed on the digits widened to int64
    +-1 spins."""
    head, _, tail = spec.partition(":")
    args = [float(a) if "." in a else int(a) for a in tail.split(",")]

    def tribes_of(digits, size, count):
        return np.any(np.all(digits.reshape(len(digits), count, size) == 1, axis=2), axis=1)

    if head == "dictator":
        return lambda d: _spins(d[:, args[1]]).astype(float)
    if head == "parity":
        return lambda d: np.prod(_spins(d), axis=1).astype(float)
    if head == "sum":
        return lambda d: _spins(d).sum(axis=1).astype(float)
    if head == "maj":
        return lambda d: np.sign(_spins(d).sum(axis=1)).astype(float)
    if head == "amaj":
        threshold = args[1] * math.sqrt(args[0])
        return lambda d: np.where(_spins(d).sum(axis=1) > threshold, 1.0, -1.0)
    if head == "tribes":
        return lambda d: tribes_of(d, *args).astype(float)
    m, t, a = args
    size = balanced_tribe_size(t)
    up = a * math.sqrt(m)

    def composite(d):
        threshold = np.where(tribes_of(d[:, m:], size, t // size), up, -up)
        return np.where(_spins(d[:, :m]).sum(axis=1) > threshold, 1.0, -1.0)

    return composite


def reference_specs(n):
    specs = [f"dictator:{n},0", f"dictator:{n},{n - 1}", f"parity:{n}", f"sum:{n}",
             f"amaj:{n},0.5", f"amaj:{n},0.0"]
    if n % 2:
        specs.append(f"maj:{n}")
    if n > 1:
        specs.append(f"composite:{n - n // 2},{n // 2},0.5")
    size = next(l for l in (4, 3, 2, 1) if n % l == 0)
    return specs + [f"tribes:{size},{n // size}"]


def reference_digits(n):
    rng = np.random.default_rng(n)
    # near-balanced rows put spin sums on the majority and shift thresholds;
    # all-ones rows count n ones, which wraps a uint8 count at n = 256
    return np.concatenate([rng.integers(0, 2, (300, n), dtype=np.uint8),
                           np.tile(np.arange(n, dtype=np.uint8) % 2, (5, 1)),
                           np.ones((2, n), dtype=np.uint8), np.zeros((2, n), dtype=np.uint8)])


# 255, 256 and 257 put the digit count on either side of its uint8 limit
@pytest.mark.parametrize("n", [1, 2, 20, 33, 76, 255, 256, 257])
def test_evaluators_match_the_spin_reference(n):
    digits = reference_digits(n)
    for spec in reference_specs(n):
        got = evaluator_from_spec(spec)[1](digits)
        assert got.dtype == np.float64, spec
        np.testing.assert_array_equal(got, reference_evaluator(spec)(digits), err_msg=spec)


def layouts(digits):
    """The same (N, n) digit rows as a C-order matrix, its Fortran-order copy,
    and the transpose of an (n, N) buffer, as the engines hand them over."""
    return [np.ascontiguousarray(digits), np.asfortranarray(digits),
            np.ascontiguousarray(digits.T).T]


def assert_layout_free(evaluator, digits, what):
    c_order, *others = (evaluator(d) for d in layouts(digits))
    for got in others:
        assert got.dtype == c_order.dtype and got.shape == c_order.shape, what
        assert got.tobytes() == c_order.tobytes(), what


@pytest.mark.parametrize("n", [1, 2, 20, 33, 76, 256])
def test_evaluators_do_not_depend_on_layout(n):
    digits = reference_digits(n)
    for spec in reference_specs(n):
        assert_layout_free(evaluator_from_spec(spec)[1], digits, spec)


def split_masks(n):
    """Empty, full and random coordinate sets, and coordinates 0 and n - 1
    (dictator's coordinates) each alone and each left out."""
    full = (1 << n) - 1
    rng = np.random.default_rng(n + 1)
    random_masks = [int(sum(1 << int(v) for v in np.flatnonzero(rng.random(n) < p))) for p in (0.3, 0.7)]
    return [0, full, *random_masks, 1, full ^ 1, 1 << (n - 1), full ^ (1 << (n - 1))]


def split_values(evaluator, digits, mask):
    """The values from the state of the coordinates in ``mask`` plus the
    state of the rest, finished; both states are taken from the
    coordinate-major digit rows of their own coordinates."""
    n = digits.shape[1]
    inside = [v for v in range(n) if mask >> v & 1]
    outside = [v for v in range(n) if not mask >> v & 1]
    rows = np.ascontiguousarray(digits.T)
    state = evaluator.state_of(inside)(rows[inside]) + evaluator.state_of(outside)(rows[outside])
    return evaluator.finish(state), state


def assert_split_is_plain(evaluator, digits, what):
    plain = evaluator(np.asfortranarray(digits))
    for mask in split_masks(digits.shape[1]):
        values, state = split_values(evaluator, digits, mask)
        assert values.dtype == plain.dtype and values.tobytes() == plain.tobytes(), (what, mask)
        if evaluator.levels is not None:
            upper = evaluator.upper(state)
            np.testing.assert_array_equal(np.where(upper, evaluator.levels[1], evaluator.levels[0]), plain)


# 255, 256 and 300 put the counts on either side of their uint8 limit
@pytest.mark.parametrize("n", [1, 2, 20, 33, 76, 255, 256, 300])
def test_split_states_give_the_plain_values(n):
    digits = reference_digits(n)
    for spec in reference_specs(n):
        assert_split_is_plain(evaluator_from_spec(spec)[1], digits, spec)


def test_two_valued_families_declare_their_levels():
    levels = {spec.partition(":")[0]: evaluator_from_spec(spec)[1].levels
              for spec in ("dictator:3", "parity:3", "sum:3", "maj:3", "amaj:3,0.5", "tribes:2,2",
                           "composite:3,2,0.5")}
    assert levels == {"dictator": (-1.0, 1.0), "parity": (-1.0, 1.0), "sum": None, "maj": (-1.0, 1.0),
                      "amaj": (-1.0, 1.0), "tribes": (0.0, 1.0), "composite": (-1.0, 1.0)}


@pytest.mark.parametrize("values", ["normal", "spins", "bits"])
@pytest.mark.parametrize("space", [ZERO_ATOM_Q3, biased_bits(12, 0.3), uniform_space(1)], ids=["q=3", "q=2", "n=1"])
def test_table_split_states_give_the_plain_values(space, values):
    """The partial Horner index of each part adds to the whole index; a
    Boolean table declares its levels and flags its upper level."""
    rng = np.random.default_rng(space.size)
    table = FunctionTable(space, {"normal": rng.normal(size=space.size),
                                  "spins": rng.integers(0, 2, space.size) * 2.0 - 1.0,
                                  "bits": rng.integers(0, 2, space.size) * 1.0}[values])
    digits = np.concatenate([rng.integers(0, space.q, (500, space.n), dtype=np.uint8),
                             np.full((1, space.n), space.q - 1, dtype=np.uint8)])
    evaluator = table.evaluator()
    assert evaluator.levels == {"normal": None, "spins": (-1.0, 1.0), "bits": (0.0, 1.0)}[values]
    assert_split_is_plain(evaluator, digits, space)


@pytest.mark.parametrize("space", [uniform_space(1), biased_bits(2, 0.3), biased_bits(20, 0.6),
                                   uniform_space(5, 3)], ids=["n=1", "n=2", "n=20", "q=3"])
def test_table_evaluator_does_not_depend_on_layout(space):
    rng = np.random.default_rng(space.size)
    table = FunctionTable(space, rng.normal(size=space.size))
    digits = rng.integers(0, space.q, (500, space.n), dtype=np.uint8)
    assert_layout_free(table.evaluator(), digits, space)


@pytest.mark.parametrize("space", [biased_bits(12, 0.3), uniform_space(17), uniform_space(7, 3),
                                   uniform_space(6, 4), uniform_space(1)],
                         ids=["q=2", "17 bits", "q=3", "q=4", "n=1"])
def test_table_evaluator_matches_the_place_value_index(space):
    """Against the index as int64 digits dotted with the place values q^v;
    the last rows take the highest index q^n - 1 and index 0."""
    rng = np.random.default_rng(space.size)
    table = FunctionTable(space, rng.normal(size=space.size))
    digits = np.concatenate([rng.integers(0, space.q, (2000, space.n), dtype=np.uint8),
                             np.full((1, space.n), space.q - 1, dtype=np.uint8),
                             np.zeros((1, space.n), dtype=np.uint8)])
    expected = table.values[digits.astype(np.int64) @ space.q ** np.arange(space.n)]
    np.testing.assert_array_equal(table.evaluator()(np.asfortranarray(digits)), expected)


@pytest.mark.parametrize("side", [2, 3, 4])
def test_torus_evaluator_does_not_depend_on_layout(side):
    torus = TorusSpec(side)
    digits = np.random.default_rng(side).integers(0, 2, (500, torus.edge_count), dtype=np.uint8)
    assert_layout_free(torus_lr_evaluator(torus), digits, side)


def test_evaluator_matches_table():
    for spec in ("maj:5", "parity:4", "sum:4", "tribes:2,2", "amaj:4,0.5", "composite:3,2,0.5",
                 "maj:17"):
        entry = from_spec(spec)
        n, ev = evaluator_from_spec(spec)
        assert n == entry.n
        digits = uniform_space(n).digits()
        np.testing.assert_array_equal(ev(digits), entry.table.values)


# (well-formed spec, malformed spec) for every zoo family
SPEC_CASES = [
    ("dictator:6,2", "dictator:6,9"), ("parity:5", "parity:5,1"), ("sum:4", "sum:x"),
    ("maj:7", "maj:6"), ("amaj:9,0.5", "amaj:9"), ("tribes:2,3", "tribes:2"),
    ("composite:5,4,0.5", "composite:5,4"),
]


def test_spec_cases_cover_every_family():
    assert {spec.partition(":")[0] for spec, _ in SPEC_CASES} == set(FAMILIES)


@pytest.mark.parametrize("spec, malformed", SPEC_CASES)
def test_every_family_tabulates_its_evaluator(spec, malformed):
    n, evaluator = evaluator_from_spec(spec)
    expected = table_from_digits(uniform_space(n), evaluator)
    np.testing.assert_array_equal(from_spec(spec).table.values, expected.values)
    with pytest.raises(ParseError):
        from_spec(malformed)
    with pytest.raises(ParseError):
        evaluator_from_spec(malformed)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 19])
def test_count_law_tables_equal_the_evaluator_tables(n):
    """Symmetric tables gathered from the count law are bitwise the tables
    of their evaluators, below, at and past the 2^16-row block edge."""
    specs = [f"parity:{n}", f"sum:{n}", f"amaj:{n},0.5", f"amaj:{n},-0.3"]
    specs += [f"maj:{n}"] if n % 2 else []
    for spec in specs:
        _, evaluator = evaluator_from_spec(spec)
        expected = table_from_digits(uniform_space(n), evaluator).values
        assert from_spec(spec).table.values.tobytes() == expected.tobytes(), spec


def test_count_laws_of_the_symmetric_families():
    by_count = {head: family.by_count for head, family in FAMILIES.items()}
    assert {head for head, law in by_count.items() if law is None} == {"dictator", "tribes", "composite"}
    np.testing.assert_array_equal(by_count["parity"](4), [1.0, -1.0, 1.0, -1.0, 1.0])
    np.testing.assert_array_equal(by_count["parity"](3), [-1.0, 1.0, -1.0, 1.0])
    np.testing.assert_array_equal(by_count["sum"](3), [-3.0, -1.0, 1.0, 3.0])
    np.testing.assert_array_equal(by_count["maj"](3), [-1.0, -1.0, 1.0, 1.0])
    # threshold 0.5 sqrt(16) = 2 is the spin sum at w = 9: strict > gives -1
    law = by_count["amaj"](16, 0.5)
    assert law.shape == (17,) and law[9] == -1.0 and law[10] == 1.0
    np.testing.assert_array_equal(law, np.where(np.arange(17) >= 10, 1.0, -1.0))
    with pytest.raises(ValueError):
        by_count["maj"](4)


def test_from_spec_errors():
    with pytest.raises(ParseError):
        from_spec("nosuch:3")
    with pytest.raises(ParseError):
        from_spec("maj:notanumber")
    with pytest.raises(ParseError):
        from_spec("tribes:2")


@pytest.mark.parametrize("spec", ["maj:,5", "maj:5,", "dictator:6,,2"])
def test_empty_spec_argument_is_refused(spec):
    with pytest.raises(ParseError):
        from_spec(spec)


def test_majority_21_builds_in_bounded_memory(run_python):
    """The table is built block by block: the (2^21, 21) digit matrix, 44 MB
    as uint8 and 350 MB once widened to spins, never exists.  The child reads
    its own peak, VmHWM: on Linux its ru_maxrss starts at the spawning test
    process's high-water mark."""
    out = run_python("from cluekit.zoo import from_spec; from_spec('maj:21')\n"
                     "print(next(line.split()[1] for line in open('/proc/self/status') "
                     "if line.startswith('VmHWM:')))")
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 300 * 1024  # VmHWM is in kB
