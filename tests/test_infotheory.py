import math

import numpy as np
import pytest

from cluekit.clue import _CountSplit, _Split
from cluekit.core import (
    FunctionTable,
    ProductSpace,
    conditional_expectation,
    mask_indices,
    uniform_space,
)
from cluekit.errors import DegenerateError
from cluekit.infotheory import (
    ent_functional,
    entropy,
    group_values,
    i_clue,
    joint_with_subset,
    kl_clue,
    kl_clue_all_subsets,
    mutual_information,
    sig_i,
    value_entropy,
)
from cluekit.suites import _kl_cover_deficit, _shearer_deficit
from cluekit.zoo import from_spec
from conftest import upper_indicator

LN2 = math.log(2.0)
H_QUARTER = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))


def test_entropy_examples():
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(LN2)
    assert entropy(np.array([1.0, 0.0])) == pytest.approx(0.0)
    assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4.0))


def test_group_values_merges_ties():
    codes, reps = group_values(np.array([1.0, 1.0 + 1e-14, 2.0, 1.0]))
    assert len(reps) == 2
    assert codes[0] == codes[1] == codes[3]


def test_mutual_information_examples():
    d = from_spec("dictator:3,1").table
    assert mutual_information(d, 0b010) == pytest.approx(LN2, abs=1e-12)
    p = from_spec("parity:4").table
    for mask in (0b1, 0b111, 0b1011):
        assert mutual_information(p, mask) == pytest.approx(0.0, abs=1e-12)
    maj = from_spec("maj:3").table
    assert mutual_information(maj, 0b001) == pytest.approx(LN2 - H_QUARTER, abs=1e-10)


def test_joint_with_subset_normalizes():
    joint = joint_with_subset(from_spec("maj:3").table, 0b011)
    assert joint.sum() == pytest.approx(1.0)
    assert joint.shape == (2, 4)


def test_i_clue_examples():
    maj = from_spec("maj:3").table
    assert i_clue(maj, 0b111) == pytest.approx(1.0, abs=1e-12)
    assert i_clue(from_spec("parity:3").table, 0b011) == pytest.approx(0.0, abs=1e-12)
    assert i_clue(maj, 0b001) == pytest.approx((LN2 - H_QUARTER) / LN2, abs=1e-6)
    assert i_clue(maj, 0b001) == pytest.approx(0.1887, abs=5e-4)


def test_i_clue_constant_raises():
    f = FunctionTable(uniform_space(3), np.zeros(8))
    with pytest.raises(DegenerateError):
        i_clue(f, 0b1)


def test_information_of_every_coordinate_is_the_value_entropy():
    # Z is a function of X_all, so I(Z : X_all) = H(Z) with no rounding
    rng = np.random.default_rng(9)
    space = ProductSpace(5, 3, rng.dirichlet(np.ones(3), size=5))
    for f in (from_spec("maj:5").table, FunctionTable(space, rng.standard_normal(space.size)),
              FunctionTable(space, rng.integers(0, 2, space.size).astype(float))):
        full = (1 << f.n) - 1
        assert mutual_information(f, full) == value_entropy(f)
        assert i_clue(f, full) == 1.0
        assert sig_i(f, 0) == 0.0


def test_sig_i_dual():
    maj = from_spec("maj:3").table
    assert sig_i(maj, 0b001) == pytest.approx(1.0 - i_clue(maj, 0b110), abs=1e-12)


def test_ent_functional_examples():
    const = FunctionTable(uniform_space(2), np.full(4, 3.0))
    assert ent_functional(const) == pytest.approx(0.0, abs=1e-12)
    ind = upper_indicator(from_spec("maj:3").table)
    assert ent_functional(ind) == pytest.approx(0.5 * LN2, abs=1e-12)
    cond = conditional_expectation(ind, 0b001)
    expected = 0.5 * (0.75 * math.log(0.75) + 0.25 * math.log(0.25)) + 0.5 * LN2
    assert ent_functional(cond) == pytest.approx(expected, abs=1e-12)
    assert ent_functional(cond) == pytest.approx(0.0654, abs=5e-5)


def test_ent_functional_rejects_negative():
    f = FunctionTable(uniform_space(2), np.array([-1.0, 0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        ent_functional(f)


def test_kl_clue_examples():
    ind = upper_indicator(from_spec("maj:3").table)
    assert kl_clue(ind, 0b111) == pytest.approx(1.0, abs=1e-12)
    assert kl_clue(ind, 0) == pytest.approx(0.0, abs=1e-12)
    assert kl_clue(ind, 0b001) == pytest.approx(0.1887, abs=5e-4)


def _spin_tables():
    """{-1, 1} tables on uniform bits: zoo tables and seeded random ones,
    one with a single cell at the lower level."""
    for spec in ("maj:7", "parity:5", "amaj:7,0.3", "dictator:6,2", "tribes:2,3"):
        yield from_spec(spec).table
    rng = np.random.default_rng(36)
    for n in (1, 2, 4, 6):
        values = np.where(rng.random(1 << n) < 0.4, 1.0, -1.0)
        values[:2] = (-1.0, 1.0)
        yield FunctionTable(uniform_space(n), values)
    yield FunctionTable(uniform_space(5), np.where(np.arange(32) == 9, -1.0, 1.0))


def test_the_kl_clue_of_a_spin_table_is_that_of_its_indicator():
    """On uniform bits the KL clue of a {-1, 1} table, by mask, by the
    fiber split, by the count split and on the lattice, is that of the
    hand-built (f + 1) / 2 table bit for bit; Ent(f) itself still needs
    f >= 0."""
    for f in _spin_tables():
        if f.value_range()[0] == 0.0:  # tribes is on {0, 1}: make it {-1, 1}
            f = FunctionTable(f.space, 2.0 * f.values - 1.0)
        g = upper_indicator(f)
        assert np.array_equal(kl_clue_all_subsets(f), kl_clue_all_subsets(g))
        for mask in range(1 << f.n):
            assert kl_clue(f, mask) == kl_clue(g, mask)
            assert kl_clue(f, _Split(f, mask)) == kl_clue(g, _Split(g, mask))
            assert kl_clue(f, _CountSplit(f, mask)) == kl_clue(g, _CountSplit(g, mask))
        with pytest.raises(ValueError, match="f >= 0"):
            ent_functional(f)


@pytest.mark.parametrize("q", [2, 3])
def test_the_kl_clue_of_a_spin_table_off_uniform_bits(q):
    """Off uniform bits the lattice still matches the hand-built indicator
    bit for bit.  Per mask, the fiber split halves the table's own centred
    sums, while the hand-built table is centred at its own mean: the two
    round differently, within a few ulps."""
    rng = np.random.default_rng(q)
    for seed in range(20):
        pi = rng.dirichlet(np.ones(q), size=4)
        if seed % 2:
            pi[0] = np.r_[0.0, rng.dirichlet(np.ones(q - 1))]
        space = ProductSpace(4, q, pi)
        f = FunctionTable(space, np.where(rng.random(space.size) < 0.5, 1.0, -1.0))
        g = upper_indicator(f)
        assert np.array_equal(kl_clue_all_subsets(f), kl_clue_all_subsets(g))
        for mask in range(16):
            assert kl_clue(f, mask) == pytest.approx(kl_clue(g, mask), abs=1e-13)


def test_value_entropy_groups_reals():
    s = from_spec("sum:3").table
    # sums -3,-1,1,3 with probabilities 1/8,3/8,3/8,1/8
    expected = entropy(np.array([1 / 8, 3 / 8, 3 / 8, 1 / 8]))
    assert value_entropy(s) == pytest.approx(expected, abs=1e-12)


def test_shearer_examples():
    maj = from_spec("maj:3").table
    h = value_entropy(maj)
    full = 0b111
    assert _shearer_deficit(maj, [full, full], 2) == pytest.approx(0.0, abs=1e-10)
    par = from_spec("parity:4").table
    assert _shearer_deficit(par, [0b1, 0b10, 0b100, 0b1000], 1) == pytest.approx(
        value_entropy(par), abs=1e-10
    )
    pairs = [0b011, 0b101, 0b110]
    deficit = _shearer_deficit(maj, pairs, 2)
    assert deficit == pytest.approx(2 * LN2 - 3 * (LN2 / 2), abs=1e-10)
    assert deficit >= -1e-10


def test_shearer_rejects_overfull_cover():
    maj = from_spec("maj:3").table
    with pytest.raises(ValueError):
        _shearer_deficit(maj, [0b001, 0b001, 0b011], 2)


def test_kl_cover_deficit_nonnegative():
    rng = np.random.default_rng(0)
    sp = uniform_space(5)
    for _ in range(20):
        f = FunctionTable(sp, rng.uniform(0.0, 2.0, size=32))
        cover = [int(rng.integers(1, 32)) for _ in range(4)]
        k = max(sum((m >> j) & 1 for m in cover) for j in range(5))
        assert _kl_cover_deficit(f, cover, max(k, 1)) >= -1e-10


def test_i_clue_monotone_under_inclusion():
    rng = np.random.default_rng(1)
    sp = uniform_space(6)
    for _ in range(10):
        f = FunctionTable(sp, (rng.random(64) < 0.5).astype(float))
        if f.values.std() == 0:
            continue
        mask = int(rng.integers(0, 64))
        extra = int(rng.integers(0, 64))
        assert (
            mutual_information(f, mask)
            <= mutual_information(f, mask | extra) + 1e-12
        )


def test_joint_with_subset_matches_digit_bincount():
    rng = np.random.default_rng(3)
    pi = rng.dirichlet(np.ones(3), size=4)
    pi[2] = [0.5, 0.0, 0.5]
    space = ProductSpace(4, 3, pi)
    f = FunctionTable(space, rng.integers(0, 3, space.size).astype(float))
    codes, reps = group_values(f.values)
    digits = space.digits().astype(np.int64)
    for mask in (0, 0b0110, 0b1011, 0b1111):
        kept = mask_indices(mask)
        u_codes = sum(digits[:, v] * 3**i for i, v in enumerate(kept))
        n_u = 3 ** len(kept)
        expected = np.bincount(
            codes * n_u + u_codes, weights=space.config_weights(), minlength=len(reps) * n_u
        ).reshape(len(reps), n_u)
        np.testing.assert_allclose(joint_with_subset(f, mask), expected, rtol=0, atol=1e-15)
