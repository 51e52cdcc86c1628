import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluekit.core import (
    FunctionTable,
    ProductSpace,
    TABLE_BLOCK,
    BLAS_PIECE,
    _block_digits,
    _contract,
    complement_mask,
    conditional_expectation,
    expectation,
    extend,
    fibers,
    full_mask,
    mask_from_indices,
    mask_indices,
    permute,
    table_from_digits,
    uniform_space,
)
from cluekit.errors import GuardError
from cluekit.suites import _bernoulli_sets, _revealment, _variance
from cluekit.zoo import from_spec
from conftest import biased_bits, save_table


def encode(space: ProductSpace, digits) -> int:
    """Configuration index of a digit list, coordinate 0 least significant:
    the digit-loop oracle of the table layout."""
    index = 0
    for v in reversed(range(space.n)):
        d = int(digits[v])
        if not 0 <= d < space.q:
            raise ValueError(f"digit {d} out of range for q={space.q}")
        index = index * space.q + d
    return index


def decode(space: ProductSpace, index: int) -> list[int]:
    if not 0 <= index < space.size:
        raise ValueError("configuration index out of range")
    digits = []
    for _ in range(space.n):
        digits.append(index % space.q)
        index //= space.q
    return digits


def test_parity_expectation_zero():
    assert expectation(from_spec("parity:3").table) == pytest.approx(0.0, abs=1e-15)


def test_majority_variance_one():
    f = from_spec("maj:3").table
    assert expectation(f) == pytest.approx(0.0, abs=1e-15)
    assert _variance(f) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_sum_variance_is_n(n):
    assert _variance(from_spec(f"sum:{n}").table) == pytest.approx(n, abs=1e-12)


def test_conditional_expectation_maj3_single_coordinate():
    f = from_spec("maj:3").table
    ce = conditional_expectation(f, 0b001)
    digits = f.space.digits()
    expected = np.where(digits[:, 0] == 1, 0.5, -0.5)
    np.testing.assert_allclose(ce.values, expected, atol=1e-14)


def test_conditional_expectation_extremes():
    f = from_spec("maj:3").table
    empty = conditional_expectation(f, 0)
    np.testing.assert_allclose(empty.values, expectation(f), atol=1e-14)
    full = conditional_expectation(f, 0b111)
    np.testing.assert_allclose(full.values, f.values, atol=1e-14)


def test_conditional_expectation_preserves_mean_and_contracts_variance():
    rng = np.random.default_rng(5)
    space = ProductSpace(4, 3, rng.dirichlet(np.ones(3), size=4))
    f = FunctionTable(space, rng.standard_normal(space.size))
    for mask in range(16):
        ce = conditional_expectation(f, mask)
        assert expectation(ce) == pytest.approx(expectation(f), abs=1e-12)
        assert _variance(ce) <= _variance(f) + 1e-12


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2)])
def test_tower_identity_exhaustive_pairs(n, q):
    rng = np.random.default_rng(11)
    space = ProductSpace(n, q, rng.dirichlet(np.ones(q), size=n))
    f = FunctionTable(space, rng.standard_normal(space.size))
    conds = [conditional_expectation(f, mask) for mask in range(1 << n)]
    for l in range(1 << n):
        for k in range(1 << n):
            nested = conditional_expectation(conds[l], k)
            np.testing.assert_allclose(nested.values, conds[k & l].values, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=6),
    q=st.integers(min_value=2, max_value=3),
)
def test_tower_identity(data, n, q):
    # iterated conditioning collapses to conditioning on the intersection
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    space = ProductSpace(n, q, rng.dirichlet(np.ones(q) * 2.0, size=n))
    f = FunctionTable(space, rng.standard_normal(space.size))
    k = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    l = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    nested = conditional_expectation(conditional_expectation(f, l), k)
    direct = conditional_expectation(f, k & l)
    np.testing.assert_allclose(nested.values, direct.values, atol=1e-12)


@pytest.mark.parametrize("n,q", [(4, 2), (6, 2), (4, 3), (6, 3)])
def test_config_codec_round_trip(n, q):
    space = uniform_space(n, q)
    for index in range(space.size):
        assert encode(space, decode(space, index)) == index
    digits = space.digits()
    for index in (0, 1, space.size // 2, space.size - 1):
        assert list(digits[index]) == decode(space, index)


# n below, at and above the block exponent k, the largest with q^k <= TABLE_BLOCK
@pytest.mark.parametrize("q,n", [(2, 3), (2, 16), (2, 17), (2, 19), (3, 10), (3, 11), (4, 8), (4, 9), (5, 8)])
def test_table_from_digits_blocks_follow_the_digit_matrix(q, n):
    """Each block reaches ``fn`` as an F-contiguous (q^k, n) uint8 matrix, so
    every coordinate's digits are contiguous."""
    space = uniform_space(n, q)
    weights = np.random.default_rng(10 * n + q).normal(size=n)
    seen = []

    def fn(digits):
        assert digits.dtype == np.uint8 and digits.flags.f_contiguous
        seen.append(digits.copy())
        return digits @ weights

    oracle = space.digits()
    np.testing.assert_array_equal(table_from_digits(space, fn).values, oracle @ weights)
    np.testing.assert_array_equal(np.concatenate(seen), oracle)
    k = max(k for k in range(n + 1) if q**k <= TABLE_BLOCK)
    assert [len(block) for block in seen] == [q**k] * q ** (n - k)


@pytest.mark.parametrize("q,n", [(q, n) for q in range(2, 6) for n in range(10)] + [(2, 16)])
def test_block_digits_match_integer_division(q, n):
    idx = np.arange(q**n, dtype=np.int64)
    digits = _block_digits(q, n)
    assert digits.dtype == np.uint8
    assert digits.shape == (q**n, n)  # (1, 0) for n = 0
    # idx[:, None] // q**arange(n) % q, a column at a time: whole, it is 280 MB at 5^9
    for v in range(n):
        np.testing.assert_array_equal(digits[:, v], idx // q**v % q)


@pytest.mark.parametrize("n,q", [(5, 2), (4, 3), (3, 4)])
def test_fibers_extend_permute_follow_the_index_layout(n, q):
    rng = np.random.default_rng(10 * n + q)
    space = uniform_space(n, q)
    values = rng.normal(size=space.size)
    configs = [decode(space, c) for c in range(space.size)]

    def code(digits, coords):
        return sum(digits[v] * q**i for i, v in enumerate(coords))

    for mask in (0, full_mask(n), 0b101):
        kept, rest = mask_indices(mask), mask_indices(complement_mask(mask, n))
        expected = np.empty((q ** len(kept), q ** len(rest)))
        for c, digits in enumerate(configs):
            expected[code(digits, kept), code(digits, rest)] = values[c]
        np.testing.assert_array_equal(fibers(values, space, mask), expected)
        marginal = rng.normal(size=q ** len(kept))
        expected = [marginal[code(digits, kept)] for digits in configs]
        np.testing.assert_array_equal(extend(marginal, space, mask), expected)
    # reference: the gather through the digit-loop index map
    digits = space.digits().astype(np.int64)
    perms = [tuple(rng.permutation(n)) for _ in range(4)] + [tuple(range(1, n)) + (0,)]
    for perm in perms:
        index_map = sum(digits[:, perm[v]] * q**v for v in range(n))
        np.testing.assert_array_equal(permute(values, space, perm), values[index_map])


@pytest.mark.parametrize("q,n", [(2, 15), (3, 10), (4, 7), (5, 7), (3, 6)])
@pytest.mark.parametrize("kept", ["low", "high", "interleaved", "none", "all"])
def test_contraction_equals_the_product_within_ulps(q, n, kept):
    """The cut weighted sum against one ``@``: fibers views of every layout
    (column-major for low kept coordinates, row-major slices for high ones,
    a copy for interleaved ones), sizes that BLAS_PIECE does not divide, and
    the 1-D weighted sum of the whole table.  Both sums round: against an
    exact sum ``@`` was seen off by up to 8 ulps of the sum of the terms'
    sizes on these shapes and the cut sum by up to 3.5, so they may differ
    by 16.  Below BLAS_PIECE entries the contraction is ``@`` itself."""
    rng = np.random.default_rng(q * 100 + n)
    space = ProductSpace(n, q, rng.dirichlet(np.ones(q), size=n))
    values = rng.normal(size=space.size) + 3.0
    mask = {"low": full_mask(n // 2), "high": full_mask(n) & ~full_mask(n // 2),
            "interleaved": int("01" * n, 2) & full_mask(n), "none": 0, "all": full_mask(n)}[kept]
    a = fibers(values, space, mask)
    w = space.marginal_weights(complement_mask(mask, n))
    cases = [(a, w)]
    if kept == "none":
        cases.append((values, space.config_weights()))
    for x, y in cases:
        expected = x @ y
        got = _contract(x, y, q)
        assert np.shape(got) == np.shape(expected)
        if x.size <= BLAS_PIECE:
            assert np.array_equal(got, expected)
        else:
            scale = np.abs(x) @ np.abs(y)
            assert np.all(np.abs(got - expected) <= 16 * np.finfo(float).eps * scale)


def test_exact_guard_blocks_large_tables():
    with pytest.raises(GuardError):
        uniform_space(27).check_exact_guard()
    uniform_space(26).check_exact_guard()


@pytest.mark.parametrize("code", [
    # sig_i asks for the joint law of 2^14 distinct values by the 2^13
    # configurations of the complement of coordinate 0
    "main(['clue', '--fn', PATH, '--subset', '0'])",
    "efron_stein_components(FunctionTable(uniform_space(10, 4), rng.standard_normal(4**10)))",
    "uniform_space(23).digits()",
    # the lattice's top rows for every coalition's information: 3^10 rows of
    # 2^12 entries, 1.8 GiB, the first n on bits whose top rows pass the budget
    "main(['game', '--fn', 'parity:22', '--iclue'])",
    # a 2 GiB zoo table, refused before its block buffer exists
    "zoo.from_spec('sum:28')",
    # a 1 GiB table of a count law, refused through the command line
    "main(['analyze', '--fn', 'maj:27', '--subset', '0'])",
], ids=["clue-cli-joint-law", "materialized-components", "digit-matrix", "iclue-game-lattice",
        "zoo-table", "zoo-table-cli"])
def test_over_budget_arrays_are_refused_before_allocation(code, tmp_path, run_python):
    """Each request needs 1 GiB or more at once (one array, or the lattice
    top rows of the information game beside its sums), all but the 1 GiB
    table of maj:27 1.4 GiB or more, which a 2 GiB address-space cap cannot
    hold beside the interpreter: it must be refused (GuardError, exit 3)
    before allocation, never die of MemoryError."""
    path = tmp_path / "normal14.json"
    save_table(FunctionTable(uniform_space(14), np.random.default_rng(0).standard_normal(1 << 14)), path)
    prelude = (
        "import sys\nimport numpy as np\n"
        "from cluekit import zoo\nfrom cluekit.cli import main\n"
        "from cluekit.core import FunctionTable, uniform_space\n"
        "from cluekit.errors import GuardError\n"
        "from cluekit.spectral import efron_stein_components\n"
        f"PATH = {str(path)!r}\nrng = np.random.default_rng(0)\n"
    )
    out = run_python(f"{prelude}try:\n    sys.exit({code})\nexcept GuardError:\n    sys.exit(3)\n",
                     address_space=2 << 30)
    assert out.returncode == 3, out.stderr[-2000:]


def test_zero_probability_fibers_give_zero_and_flag():
    space = ProductSpace(2, 2, np.array([[0.0, 1.0], [0.5, 0.5]]))
    assert space.has_zero_atoms
    f = FunctionTable(space, np.array([3.0, 4.0, 5.0, 6.0]))
    ce = conditional_expectation(f, 0b01)
    # conditioning on coordinate 0 = digit 0 has probability zero
    assert ce.values[0] == 0.0 and ce.values[2] == 0.0


def test_function_table_takes_its_values_without_a_copy():
    values = np.arange(8, dtype=float)
    f = FunctionTable(uniform_space(3), values)
    assert np.shares_memory(f.values, values)
    assert not values.flags.writeable


def test_function_table_validation():
    space = uniform_space(2)
    with pytest.raises(ValueError):
        FunctionTable(space, np.ones(3))
    with pytest.raises(ValueError):
        FunctionTable(space, np.array([1.0, np.inf, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "plus-inf", "minus-inf"])
def test_function_table_refuses_every_non_finite_value(bad):
    for at in (0, 5, 7):
        values = np.arange(8, dtype=float)
        values[at] = bad
        with pytest.raises(ValueError, match="^values must be finite$"):
            FunctionTable(uniform_space(3), values)


def test_product_space_validation():
    with pytest.raises(ValueError):
        ProductSpace(2, 2, np.array([[0.6, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        ProductSpace(0, 2, np.zeros((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "plus-inf", "minus-inf"])
def test_product_space_refuses_every_non_finite_probability(bad):
    for row in ([bad, bad], [bad, 0.5], [0.5, bad]):
        with pytest.raises(ValueError, match="^probabilities must be finite and lie in"):
            ProductSpace(2, 2, np.array([[0.5, 0.5], row]))


def test_mask_helpers():
    assert mask_from_indices([0, 2], 3) == 0b101
    assert mask_indices(0b101) == [0, 2]
    assert complement_mask(0b101, 3) == 0b010
    assert full_mask(3) == 0b111
    with pytest.raises(ValueError):
        mask_from_indices([3], 3)


# the revealment suite's subset laws: plain 2^n vectors, law[mask] = P[U = mask]
def test_revealment_singletons():
    law = np.zeros(1 << 5)
    law[1 << np.arange(5)] = 1 / 5
    assert _revealment(law) == pytest.approx(1 / 5)


def test_revealment_point_mass_full():
    law = np.zeros(1 << 4)
    law[full_mask(4)] = 1.0
    assert _revealment(law) == pytest.approx(1.0)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
def test_revealment_bernoulli(p):
    assert _revealment(_bernoulli_sets(5, p)) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
def test_bernoulli_sets_normalizes_within_the_byte_budget(p):
    law = _bernoulli_sets(20, p)
    assert law.shape == (1 << 20,)
    assert math.fsum(law.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert law[full_mask(20)] == pytest.approx(p**20, rel=1e-12)


def test_biased_bits_weights():
    space = biased_bits(2, [0.75, 0.25])
    w = space.config_weights()
    # index 0 = both spins -1: (1-0.75)*(1-0.25)
    assert w[0] == pytest.approx(0.25 * 0.75)
    assert w[3] == pytest.approx(0.75 * 0.25)
    assert w.sum() == pytest.approx(1.0)


def _product_chain(space: ProductSpace, mask: int) -> np.ndarray:
    chain = np.array([1.0])
    for v in reversed(mask_indices(mask)):
        chain = np.multiply.outer(chain, space.pi[v]).reshape(-1)
    return chain


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_uniform_config_weights_equal_the_product_chain_bitwise(q):
    for n in range(1, 8):
        space = uniform_space(n, q)
        assert np.array_equal(space.config_weights(), _product_chain(space, full_mask(n)))
        if n <= 5:
            for mask in range(1 << n):
                assert np.array_equal(space.marginal_weights(mask), _product_chain(space, mask))


def _moved_row(n: int) -> ProductSpace:
    pi = np.full((n, 2), 0.5)
    pi[1] += [1e-13, -1e-13]
    return ProductSpace(n, 2, pi)


@pytest.mark.parametrize("space", [biased_bits(5, 0.3), biased_bits(5, [0.5] * 4 + [0.6]), _moved_row(5)],
                         ids=["biased", "one-biased-coordinate", "row-moved-1e-13"])
def test_nonuniform_config_weights_take_the_product_chain(space, monkeypatch):
    masks = []
    product_chain = ProductSpace.marginal_weights

    def spy(self, mask):
        masks.append(mask)
        return product_chain(self, mask)

    monkeypatch.setattr(ProductSpace, "marginal_weights", spy)
    w = space.config_weights()
    assert masks == [full_mask(5)]
    assert len(np.unique(w)) > 1


def test_marginal_weights_are_the_marginals_of_config_weights():
    space = ProductSpace(3, 3, np.array([[0.2, 0.3, 0.5], [0.0, 0.4, 0.6], [0.1, 0.1, 0.8]]))
    full = space.config_weights().reshape(space.tensor_shape())
    # keep coordinates 0 and 2: sum out coordinate 1 (tensor axis 1)
    np.testing.assert_allclose(space.marginal_weights(0b101), full.sum(axis=1).reshape(-1), atol=1e-15)
    assert space.marginal_weights(0).tolist() == [1.0]
    with pytest.raises(ValueError):
        space.marginal_weights(0b1000)
