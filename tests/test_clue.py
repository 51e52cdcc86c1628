from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cluekit.clue import (
    _Split,
    clue,
    clue_all_subsets_table,
    clue_spectral,
    expected_clue,
    influence_set,
    p_min,
    sig,
    tv_clue,
    tv_clue_all_subsets,
    witness,
)
from cluekit.core import (
    BLAS_PIECE,
    FunctionTable,
    ProductSpace,
    _contract,
    complement_mask,
    conditional_marginal,
    expectation,
    fiber_counts,
    fibers,
    uniform_space,
)
from cluekit.errors import DegenerateError
from cluekit.infotheory import (
    i_clue,
    kl_clue,
    kl_clue_all_subsets,
    mutual_information_all_subsets,
    sig_i,
    value_entropy,
)
from cluekit.spectral import spectral_distribution, stability, stability_profile
from cluekit.suites import (
    PROJECTION_TOL,
    _bernoulli_sets,
    _projection_bounds,
    _revealment,
    _translate_sets,
)
from cluekit.symmetry import cyclic_group
from cluekit.transforms import popcounts
from cluekit.zoo import from_spec
from conftest import biased_bits, group_elements, upper_indicator


def test_clue_sum_is_exactly_proportional():
    f = from_spec("sum:6").table
    for mask in range(64):
        assert clue(f, mask) == pytest.approx(mask.bit_count() / 6, abs=1e-12)


def test_clue_parity_proper_subsets_zero():
    f = from_spec("parity:4").table
    for mask in range(15):
        assert clue(f, mask) == pytest.approx(0.0, abs=1e-12)


def test_clue_maj3():
    f = from_spec("maj:3").table
    assert clue(f, 0b001) == pytest.approx(0.25, abs=1e-12)
    assert clue(f, 0b011) == pytest.approx(0.5, abs=1e-12)
    assert clue(f, 0b111) == pytest.approx(1.0, abs=1e-12)


def test_clue_degenerate_function_raises():
    f = FunctionTable(uniform_space(3), np.full(8, 1.5))
    with pytest.raises(DegenerateError):
        clue(f, 0b1)


@pytest.mark.parametrize("n", range(1, 17))
def test_clue_spectral_reads_the_entries_of_the_mask_in_order(n):
    """The (2,)*n view sums the entries S subseteq U in increasing order of
    S, bitwise as the comparison over every mask does."""
    rng = np.random.default_rng(n)
    sample = rng.dirichlet(np.ones(1 << n))
    masks = np.arange(1 << n)
    full = (1 << n) - 1
    for mask in {0, full, 1, 1 << (n - 1), full ^ 1, *rng.integers(0, 1 << n, size=12).tolist()}:
        assert clue_spectral(sample, mask) == float(sample[(masks | mask) == mask].sum())


def test_clue_spectral_matches_direct():
    rng = np.random.default_rng(0)
    f = FunctionTable(uniform_space(6), rng.standard_normal(64))
    dist = spectral_distribution(f)
    for mask in range(64):
        assert clue_spectral(dist, mask) == pytest.approx(clue(f, mask), abs=1e-10)
    bulk = clue_all_subsets_table(f)
    for mask in range(64):
        assert bulk[mask] == pytest.approx(clue(f, mask), abs=1e-10)


@pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
def test_clue_survives_large_offset_on_both_routes(offset):
    rng = np.random.default_rng(25)
    values = rng.standard_normal(1 << 10)
    mask = 0b111
    inclusion = 0.3 ** np.arange(11)
    base = FunctionTable(uniform_space(10), values)
    shifted = FunctionTable(uniform_space(10), values + offset)
    assert clue(shifted, mask) == pytest.approx(clue(base, mask), rel=1e-5)
    assert clue_all_subsets_table(shifted)[mask] == pytest.approx(clue(base, mask), rel=1e-5)
    assert expected_clue(shifted, inclusion) == pytest.approx(expected_clue(base, inclusion), rel=1e-5)


def exact_clue(f: FunctionTable, mask: int) -> float:
    """clue(f | mask) in rational arithmetic, on the measure the float rows
    define, each row divided by its exact sum."""
    space = f.space
    pi = [[Fraction(float(x)) for x in row] for row in space.pi]
    pi = [[x / sum(row) for x in row] for row in pi]
    digits = space.digits()
    fiber_sums, mean, second = {}, Fraction(0), Fraction(0)
    for c in range(space.size):
        p = Fraction(1)
        for v in range(space.n):
            p *= pi[v][digits[c, v]]
        x = Fraction(float(f.values[c]))
        mean += p * x
        second += p * x * x
        sums = fiber_sums.setdefault(tuple(digits[c, v] for v in range(space.n) if mask >> v & 1), [0, 0])
        sums[0] += p * x
        sums[1] += p
    explained = sum(s ** 2 / w for s, w in fiber_sums.values() if w) - mean**2
    return float(explained / (second - mean**2))


def test_clue_under_a_large_offset_matches_an_exact_oracle():
    # the fibers are summed after E f is taken out, so an offset of 1e6
    # does not enter the rounding (summing f itself erred by 5.6e-11 here)
    rng = np.random.default_rng(31)
    for space in (biased_bits(6, np.linspace(0.2, 0.8, 6)),
                  ProductSpace(4, 3, rng.dirichlet(np.ones(3), size=4))):
        f = FunctionTable(space, rng.standard_normal(space.size) + 1e6)
        full = (1 << space.n) - 1
        for mask in range(full + 1):
            exact = exact_clue(f, mask)
            assert clue(f, mask) == pytest.approx(exact, abs=1e-12)
            assert sig(f, full ^ mask) == pytest.approx(1.0 - exact, abs=1e-12)


def test_clue_all_subsets_biased_n16_matches_fibers():
    space = biased_bits(16, np.linspace(0.2, 0.8, 16))
    f = FunctionTable(space, np.random.default_rng(26).standard_normal(space.size))
    bulk = clue_all_subsets_table(f)
    for mask in (0b1, 0b111, 0xF0F0, 0x8001, 0xFFFF):
        assert bulk[mask] == pytest.approx(clue(f, mask), abs=1e-12)


def test_sig_examples():
    f = from_spec("parity:4").table
    for mask in (0b1, 0b1010, 0b1111):
        assert sig(f, mask) == pytest.approx(1.0, abs=1e-12)
    d = from_spec("dictator:3,0").table
    assert sig(d, 0b110) == pytest.approx(0.0, abs=1e-12)
    assert sig(from_spec("maj:3").table, 0b001) == pytest.approx(0.5, abs=1e-12)


def test_full_mask_marginal_is_the_table_bitwise_above_a_blas_piece():
    """Conditioning on every coordinate contracts each fiber over one column
    of weight 1.0: the marginal is the table itself, bitwise, so clue reads
    exactly 1.0 and sig on the empty mask exactly 0.0."""
    rng = np.random.default_rng(7)
    biased = FunctionTable(biased_bits(14, np.linspace(0.2, 0.8, 14)), rng.standard_normal(1 << 14))
    for f in (from_spec("maj:15").table, biased):
        assert f.values.size > BLAS_PIECE
        full = (1 << f.n) - 1
        values, weights = conditional_marginal(f, full)
        assert np.array_equal(values, f.values)
        assert np.array_equal(weights, f.space.config_weights())
        assert clue(f, full) == 1.0
        assert sig(f, 0) == 0.0


def test_sig_duality_and_spectral_form():
    rng = np.random.default_rng(1)
    f = FunctionTable(uniform_space(6), rng.standard_normal(64))
    dist = spectral_distribution(f)
    for mask in rng.integers(0, 64, size=20):
        mask = int(mask)
        assert sig(f, mask) == 1.0 - clue(f, complement_mask(mask, 6))
        # P[sample meets mask], the spectral form of significance
        assert 1.0 - clue_spectral(dist, complement_mask(mask, 6)) == pytest.approx(sig(f, mask), abs=1e-10)


def test_influence_set_examples():
    assert influence_set(from_spec("parity:4").table, 0b0010) == pytest.approx(1.0)
    assert influence_set(from_spec("dictator:3,0").table, 0b001) == pytest.approx(1.0)
    assert influence_set(from_spec("maj:3").table, 0b001) == pytest.approx(0.5)


def test_witness_examples():
    assert witness(from_spec("dictator:3,0").table, 0b001) == pytest.approx(1.0)
    assert witness(from_spec("parity:4").table, 0b0111) == pytest.approx(0.0)
    assert witness(from_spec("maj:3").table, 0b011) == pytest.approx(0.5)


def test_witness_influence_need_boolean():
    f = FunctionTable(uniform_space(2), np.array([0.0, 0.5, 1.0, 2.0]))
    with pytest.raises(ValueError):
        witness(f, 0b01)
    with pytest.raises(ValueError):
        influence_set(f, 0b01)


def test_influence_coordinate_examples():
    assert influence_set(from_spec("dictator:4,2").table, 1 << 2) == pytest.approx(1.0)
    assert influence_set(from_spec("parity:4").table, 1 << 1) == pytest.approx(1.0)
    for j in range(3):
        assert influence_set(from_spec("maj:3").table, 1 << j) == pytest.approx(0.5)


def test_tv_clue_examples():
    f = upper_indicator(from_spec("maj:3").table)
    assert tv_clue(f, 0) == pytest.approx(0.0, abs=1e-14)
    assert tv_clue(f, 0b111) == pytest.approx(1.0, abs=1e-14)
    assert tv_clue(f, 0b001) == pytest.approx(0.5, abs=1e-14)


def test_expected_clue_examples():
    f = from_spec("maj:3").table
    singles = np.array([1.0, 1 / 3, 0.0, 0.0])
    assert expected_clue(f, singles) == pytest.approx(0.25, abs=1e-12)
    assert expected_clue(f, singles) == pytest.approx(np.mean([clue(f, 1 << v) for v in range(3)]))

    half = 0.5 ** np.arange(4)
    assert expected_clue(f, half) == pytest.approx(13 / 32, abs=1e-10)
    assert expected_clue(f, half) == pytest.approx(stability(stability_profile(f), 0.5), abs=1e-10)
    # the revealment suite's oracle: the 2^n law dotted with every subset's clue
    oracle = _bernoulli_sets(3, 0.5) @ clue_all_subsets_table(f)
    assert expected_clue(f, half) == pytest.approx(oracle, rel=1e-12)

    d = from_spec("dictator:4,0").table
    assert expected_clue(d, np.array([1.0, 0.25, 0.0, 0.0, 0.0])) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="per subset size"):
        expected_clue(d, half)


def test_expected_clue_translate_bound():
    rng = np.random.default_rng(2)
    n = 7
    f = FunctionTable(uniform_space(n), rng.standard_normal(1 << n))
    every = clue_all_subsets_table(f)
    cyc = group_elements(cyclic_group(n))
    for _ in range(10):
        mask = int(rng.integers(1, 1 << n))
        law = _translate_sets(mask, cyc, n)
        assert law @ every <= _revealment(law) + 1e-10
    for p in (0.1, 0.5, 0.9):
        level = expected_clue(f, p ** np.arange(n + 1))
        assert level <= p + 1e-10
        assert level == pytest.approx(_bernoulli_sets(n, p) @ every, rel=1e-12)


def test_order_chain_on_balanced_functions():
    # witness <= clue and sig <= influence need balanced tables; unbalanced
    # Boolean functions break both (rare fibers can carry most variance).
    rng = np.random.default_rng(3)
    n = 6
    sp = uniform_space(n)
    for _ in range(15):
        vals = np.zeros(1 << n)
        vals[rng.permutation(1 << n)[: 1 << (n - 1)]] = 1.0
        f = FunctionTable(sp, vals)
        for mask in range(0, 1 << n, 3):
            c = clue(f, mask)
            assert witness(f, mask) <= c + 1e-12
            s = sig(f, mask)
            assert c <= s + 1e-12
            assert s <= influence_set(f, mask) + 1e-12


def test_transitive_bound_zoo():
    for entry in (from_spec("sum:8"), from_spec("parity:8"), from_spec("maj:7"), from_spec("tribes:2,4")):
        f = entry.table
        bulk = clue_all_subsets_table(f)
        assert np.max(bulk - popcounts(f.n) / f.n) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    a=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    b=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_clue_affine_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    f = FunctionTable(uniform_space(4), rng.standard_normal(16))
    g = FunctionTable(f.space, a * f.values + b)
    mask = int(rng.integers(0, 16))
    assert clue(g, mask) == pytest.approx(clue(f, mask), abs=1e-12)


def test_p_min():
    assert p_min(from_spec("maj:3").table) == pytest.approx(0.5)
    assert p_min(from_spec("tribes:2,2").table) == pytest.approx(7 / 16)


def test_p_min_reads_the_mean_without_the_indicator_table():
    """P[f=1] comes from E f: the mean of the {0,1} normalization, built
    here by hand, is the reference."""
    rng = np.random.default_rng(21)
    sp = ProductSpace(6, 2, rng.dirichlet(np.ones(2), size=6))
    tables = [from_spec("maj:7").table, from_spec("tribes:3,3").table,
              upper_indicator(from_spec("maj:7").table),
              FunctionTable(sp, np.where(rng.random(sp.size) < 0.3, 1.0, -1.0)),
              FunctionTable(sp, (rng.random(sp.size) < 0.8).astype(float))]
    for f in tables:
        p = expectation(upper_indicator(f))
        assert abs(p_min(FunctionTable(f.space, f.values.copy())) - min(p, 1.0 - p)) <= 1e-15
    with pytest.raises(ValueError):
        p_min(FunctionTable(uniform_space(2), np.array([0.0, 1.0, 2.0, 1.0])))


def test_clue_equals_squared_correlation_with_projection():
    from cluekit.core import conditional_expectation
    from cluekit.suites import _correlation

    rng = np.random.default_rng(6)
    f = FunctionTable(uniform_space(5), rng.standard_normal(32))
    for mask in (0b1, 0b1010, 0b11011):
        proj = conditional_expectation(f, mask)
        assert clue(f, mask) == pytest.approx(_correlation(f, proj) ** 2, abs=1e-12)


def _projection_bounds_hold(bounds: dict) -> bool:
    corr_ok = bounds["corr_slack"] is None or bounds["corr_slack"] >= -PROJECTION_TOL
    return corr_ok and bounds["floor_slack"] >= -PROJECTION_TOL


def test_projection_distortion_identical_functions():
    f = from_spec("maj:3").table
    report = _projection_bounds(f, f, 0b011)
    assert report["eps"] == pytest.approx(0.0, abs=1e-12)
    assert _projection_bounds_hold(report)


def test_projection_distortion_affine_pair():
    f = from_spec("maj:3").table
    g = FunctionTable(f.space, 2.0 * f.values + 3.0)
    report = _projection_bounds(f, g, 0b001)
    assert report["eps"] == pytest.approx(0.0, abs=1e-12)
    assert report["clue_f"] == pytest.approx(report["clue_g"], abs=1e-12)
    assert _projection_bounds_hold(report)


def test_projection_distortion_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        sp = uniform_space(n)
        f = FunctionTable(sp, rng.standard_normal(1 << n))
        g = FunctionTable(sp, f.values + rng.uniform(0, 2) * rng.standard_normal(1 << n))
        mask = int(rng.integers(0, 1 << n))
        assert _projection_bounds_hold(_projection_bounds(f, g, mask))


# ---------------------------------------------------------------------------
# non-uniform measures, whose weights sum to 1 only up to rounding
# ---------------------------------------------------------------------------
def random_product_space(n: int, q: int, kind: str, seed: int) -> ProductSpace:
    """Dirichlet rows; ``zero-atom`` zeroes one atom of coordinate 0, and
    ``tight`` scales every row to within 1e-12 of 1."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(q), size=n)
    if kind == "zero-atom":
        pi[0] = np.r_[0.0, rng.dirichlet(np.ones(q - 1))]
    elif kind == "tight":
        pi *= 1.0 - 9e-13
    return ProductSpace(n, q, pi)


MEASURES = dict(
    n=st.integers(2, 4),
    q=st.sampled_from([2, 3]),
    kind=st.sampled_from(["dirichlet", "zero-atom", "tight"]),
    seed=st.integers(0, 2**32 - 1),
)

RATIO_ROUTES = {
    "clue": clue,
    "sig": sig,
    "clue_all_subsets": lambda f, m: clue_all_subsets_table(f),
    "expected_clue": lambda f, m: expected_clue(f, 0.5 ** np.arange(f.n + 1)),
    "spectral": lambda f, m: spectral_distribution(f),
    "tv": tv_clue,
    "tv_all_subsets": lambda f, m: tv_clue_all_subsets(f),
    "i": i_clue,
    "sig_i": sig_i,
    "kl": kl_clue,
    "kl_all_subsets": lambda f, m: kl_clue_all_subsets(f),
}


@settings(max_examples=60, deadline=None)
@given(offset=st.sampled_from([0.0, 1.0, 0.3, 12345.678]), **MEASURES)
def test_constant_tables_are_refused_on_every_ratio_route(offset, n, q, kind, seed):
    space = random_product_space(n, q, kind, seed)
    values = np.full(space.size, offset)
    values[space.config_weights() == 0.0] = offset + 1.0  # off the support: any value
    f = FunctionTable(space, values)
    mask = seed % (1 << n)
    for name, route in RATIO_ROUTES.items():
        with pytest.raises(DegenerateError):
            route(f, mask)
            pytest.fail(f"{name} answered on a constant table")


def random_table(space: ProductSpace, levels: str, rng) -> FunctionTable:
    """Values drawn from {0, 1, 2}, or a Boolean table on {0, 1} or {-1, 1}."""
    values = rng.integers(0, 3 if levels == "0,1,2" else 2, space.size).astype(float)
    return FunctionTable(space, 2.0 * values - 1.0 if levels == "-1,1" else values)


LEVELS = st.sampled_from(["0,1,2", "0,1", "-1,1"])


@settings(max_examples=90, deadline=None)
@given(levels=LEVELS, **MEASURES)
@example(levels="0,1,2", n=2, q=2, kind="dirichlet", seed=421387121)  # an atom of weight 5e-5: Ent(f) ~ 3e-5
def test_per_mask_routes_match_the_all_subsets_routes(levels, n, q, kind, seed):
    """Every per-mask metric, asked with a mask or with the split the command
    line shares between metrics, against the lattice routes.  A Boolean
    table's information comes from its conditional marginal, and the
    KL-clue of a {-1, 1} table, that of its upper-level indicator, from the
    table's own split."""
    space = random_product_space(n, q, kind, seed)
    rng = np.random.default_rng(seed)
    f = random_table(space, levels, rng)
    support = space.config_weights() > 0.0
    assume(f.values[support].min() < f.values[support].max())
    tv = tv_clue_all_subsets(f)
    icl = np.minimum(mutual_information_all_subsets(f) / value_entropy(f), 1.0)
    kl = kl_clue_all_subsets(f)
    full = (1 << n) - 1
    for mask in {0, full, *rng.integers(0, 1 << n, size=4).tolist()}:
        split = _Split(f, mask)
        assert clue(f, split) == clue(f, mask)
        assert sig(f, split) == 1.0 - clue(f, full ^ mask)
        for at in (mask, split):
            assert tv_clue(f, at) == pytest.approx(tv[mask], abs=1e-12)
            assert i_clue(f, at) == pytest.approx(icl[mask], abs=1e-12)
            assert sig_i(f, at) == pytest.approx(1.0 - icl[full ^ mask], abs=1e-12)
            assert kl_clue(f, at) == pytest.approx(kl[mask], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(levels=LEVELS, **MEASURES)
def test_the_full_mask_reads_one_on_every_ratio(levels, n, q, kind, seed):
    """E[f | X_all] = f: on the full mask every ratio's numerator is its
    denominator, so TV and KL read 1 exactly, as the L2 and I-clue do."""
    space = random_product_space(n, q, kind, seed)
    f = random_table(space, levels, np.random.default_rng(seed))
    support = space.config_weights() > 0.0
    assume(f.values[support].min() < f.values[support].max())
    full = (1 << n) - 1
    for at in (full, _Split(f, full)):
        assert clue(f, at) == 1.0
        assert tv_clue(f, at) == 1.0
        assert i_clue(f, at) == 1.0
        assert kl_clue(f, at) == 1.0


def _assert_the_empty_mask_reads_zero(f: FunctionTable):
    for at in (0, _Split(f, 0)):
        assert clue(f, at) == 0.0
        assert tv_clue(f, at) == 0.0
        assert i_clue(f, at) == 0.0
        assert kl_clue(f, at) == 0.0
    assert tv_clue_all_subsets(f)[0] == 0.0
    assert mutual_information_all_subsets(f)[0] == 0.0
    assert kl_clue_all_subsets(f)[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(levels=LEVELS, **MEASURES)
def test_the_empty_mask_reads_zero_on_every_ratio(levels, n, q, kind, seed):
    """E[f | X_empty] = E f: on the empty mask every ratio's numerator is 0,
    so every ratio reads 0 exactly, however small its denominator, by mask,
    by split and on the lattice routes."""
    space = random_product_space(n, q, kind, seed)
    f = random_table(space, levels, np.random.default_rng(seed))
    support = space.config_weights() > 0.0
    assume(f.values[support].min() < f.values[support].max())
    _assert_the_empty_mask_reads_zero(f)


def test_the_empty_mask_reads_zero_beside_a_tiny_atom():
    """An atom of weight 1e-5 leaves H(Z) and Ent(f) near 1e-4: an entropy
    difference rounded at the size of H(Z, X_U) read 8.5e-13 as the I-clue."""
    space = ProductSpace(1, 2, np.array([[1.0427006318523482e-05, 0.9999895729936814]]))
    _assert_the_empty_mask_reads_zero(FunctionTable(space, np.array([0.0, 2.0])))


def fiber_constancy(f: FunctionTable, fixed: int) -> float:
    """P[f is constant on the fiber of the ``fixed`` coordinates], by a loop
    over configurations: a fiber weighs the product of its fixed digits'
    probabilities, and it is constant when f takes one value on its
    configurations of positive weight."""
    space = f.space
    digits, w = space.digits(), space.config_weights()
    inside = [v for v in range(space.n) if fixed >> v & 1]
    seen = {}
    for c in range(space.size):
        key = tuple(int(digits[c, v]) for v in inside)
        seen.setdefault(key, set())
        if w[c] > 0.0:
            seen[key].add(float(f.values[c]))
    total = 0.0
    for key, values in seen.items():
        if len(values) <= 1:
            total += float(np.prod([space.pi[v, d] for v, d in zip(inside, key)]))
    return total


@settings(max_examples=60, deadline=None)
@given(levels=st.sampled_from(["0,1", "-1,1"]), **MEASURES)
def test_witness_and_influence_match_a_fiber_loop(levels, n, q, kind, seed):
    space = random_product_space(n, q, kind, seed)
    rng = np.random.default_rng(seed)
    f = random_table(space, levels, rng)
    full = (1 << n) - 1
    for mask in range(1 << n):
        split = _Split(f, mask)
        for at in (mask, split):
            assert witness(f, at) == pytest.approx(fiber_constancy(f, mask), abs=1e-12)
            # the coordinates outside the empty mask determine f: 0 on any rows
            influence = 1.0 - fiber_constancy(f, full ^ mask) if mask else 0.0
            assert influence_set(f, at) == pytest.approx(influence, abs=1e-12)


@pytest.mark.parametrize("kind", ["dirichlet-0.2", "tight"])
def test_the_empty_mask_has_no_influence(kind):
    """All coordinates lie outside the empty mask, and they determine f: its
    influence is 0 exactly, also where the weights add up to 1 only up to
    rounding (Dirichlet(0.2) rows, or rows scaled to 1 - 9e-13)."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, q = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        pi = rng.dirichlet(np.full(q, 0.2 if kind == "dirichlet-0.2" else 1.0), size=n)
        space = ProductSpace(n, q, pi * (1.0 - 9e-13) if kind == "tight" else pi)
        values = rng.integers(0, 2, space.size).astype(float)
        for f in (FunctionTable(space, values), FunctionTable(space, 2.0 * values - 1.0)):
            assert influence_set(f, 0) == 0.0
            assert influence_set(f, _Split(f, 0)) == 0.0


@settings(max_examples=60, deadline=None)
@given(levels=st.sampled_from(["0,1", "-1,1"]), **MEASURES)
def test_witness_and_influence_match_the_extrema_of_the_fibers(levels, n, q, kind, seed):
    """The level counts find the constant fibers that max == min over the
    positive-weight cells finds, so the constancy is the same sum, bit for
    bit."""
    space = random_product_space(n, q, kind, seed)
    f = random_table(space, levels, np.random.default_rng(seed))
    full = (1 << n) - 1
    for mask in range(1 << n):
        extrema = extrema_constancy(f, mask)
        assert witness(f, mask) == extrema
        assert influence_set(f, full ^ mask) == (1.0 - extrema if mask != full else 0.0)


def extrema_constancy(f: FunctionTable, mask: int) -> float:
    """P[f is constant on the fiber of X_mask]: a fiber is constant when
    max == min over its positive-weight cells, and the constant fibers'
    weights are summed as the split sums them."""
    space = f.space
    matrix = fibers(f.values, space, mask)
    support = space.marginal_weights(complement_mask(mask, space.n)) > 0.0
    top = np.max(matrix, axis=1, where=support, initial=-np.inf)
    bottom = np.min(matrix, axis=1, where=support, initial=np.inf)
    return float(_contract((top == bottom).astype(float), space.marginal_weights(mask), space.q))


@pytest.mark.parametrize("n", [6, 7])
def test_q_ary_fiber_counts_widen_past_a_byte(n):
    """q = 3 fibers of 3^(n - |U|) cells, |U| <= 1, hold more than 255
    upper-level cells: the counts widen, equal the row sums of the fibers
    matrix, and give the witness and influence of the extrema, also beside
    a zero atom (coordinate 0 never takes digit 2) whose cells are cleared."""
    rng = np.random.default_rng(n)
    pi = rng.dirichlet(np.ones(3), size=n)
    pi[0] = [0.4, 0.6, 0.0]
    space = ProductSpace(n, 3, pi)
    full = (1 << n) - 1
    for values in (rng.random(space.size) < 0.7, rng.random(space.size) < 0.999):
        for f in (FunctionTable(space, values.astype(float)), FunctionTable(space, 2.0 * values - 1.0)):
            for mask in (0, *(1 << v for v in range(n))):
                counts = fiber_counts(values, space, mask)
                np.testing.assert_array_equal(counts, fibers(values.astype(np.int64), space, mask).sum(axis=1))
                if mask == 0:
                    assert counts.dtype == np.uint16 and counts.max() > 255
                extrema = extrema_constancy(f, mask)
                assert witness(f, mask) == extrema
                assert influence_set(f, full ^ mask) == 1.0 - extrema
