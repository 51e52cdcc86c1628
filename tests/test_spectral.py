import numpy as np
import pytest

from cluekit.core import (
    FunctionTable,
    ProductSpace,
    conditional_expectation,
    expectation,
    uniform_space,
)
from cluekit.errors import DegenerateError, GuardError
from cluekit.spectral import (
    efron_stein,
    efron_stein_components,
    projected_variances,
    spectral_distribution,
    stability,
    stability_profile,
    walsh_hadamard,
)
from cluekit import spectral, suites
from cluekit.montecarlo import generator_for
from cluekit.transforms import dividend_shares, popcounts, subset_mobius
from cluekit.suites import (
    _covariance,
    _covariance_lemma_check,
    _is_monotone,
    _l2_norm_sq,
    _pivotal_masks,
    _variance,
)
from cluekit.zoo import from_spec
from conftest import biased_bits, spins


def sample_spectral(law: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF sampling over masks in ascending index order."""
    picks = np.searchsorted(np.cumsum(law), rng.random(size), side="right")
    return np.minimum(picks, law.size - 1)


def test_walsh_dictator():
    coeffs = walsh_hadamard(from_spec("dictator:3,1").table)
    expected = np.zeros(8)
    expected[0b010] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-14)


def test_walsh_parity():
    coeffs = walsh_hadamard(from_spec("parity:4").table)
    expected = np.zeros(16)
    expected[0b1111] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-14)


def test_walsh_maj3():
    coeffs = walsh_hadamard(from_spec("maj:3").table)
    expected = np.zeros(8)
    expected[[0b001, 0b010, 0b100]] = 0.5
    expected[0b111] = -0.5
    np.testing.assert_allclose(coeffs, expected, atol=1e-14)


def test_walsh_inverse_round_trip():
    rng = np.random.default_rng(0)
    f = FunctionTable(uniform_space(7), rng.standard_normal(128))
    back = efron_stein_components(f).sum(axis=0)
    np.testing.assert_allclose(back, f.values, atol=1e-12)


def test_walsh_requires_uniform_binary():
    f = FunctionTable(biased_bits(3, 0.6), np.arange(8, dtype=float))
    with pytest.raises(GuardError):
        walsh_hadamard(f)


def test_parseval_and_projected_variance():
    from cluekit.core import expectation

    rng = np.random.default_rng(1)
    f = FunctionTable(uniform_space(8), rng.standard_normal(256))
    coeffs = walsh_hadamard(f)
    assert np.sum(coeffs**2) == pytest.approx(_l2_norm_sq(f), abs=1e-10)
    assert coeffs[0] == pytest.approx(expectation(f), abs=1e-12)
    from cluekit.core import conditional_expectation

    for mask in rng.integers(0, 256, size=12):
        direct = _variance(conditional_expectation(f, int(mask)))
        via = projected_variances(f)[int(mask)]
        assert direct == pytest.approx(via, abs=1e-10)


def test_efron_stein_matches_walsh_on_uniform():
    rng = np.random.default_rng(2)
    f = FunctionTable(uniform_space(6), rng.standard_normal(64))
    np.testing.assert_allclose(
        efron_stein(f), walsh_hadamard(f) ** 2, atol=1e-10
    )


def test_efron_stein_constant_function():
    f = FunctionTable(uniform_space(4), np.full(16, 2.5))
    norms = efron_stein(f)
    assert norms[0] == pytest.approx(2.5**2)
    np.testing.assert_allclose(norms[1:], 0.0, atol=1e-12)


def test_efron_stein_biased_bit():
    space = biased_bits(1, 0.75)
    f = FunctionTable(space, np.array([0.0, 1.0]))
    norms = efron_stein(f)
    assert norms[0] == pytest.approx(0.75**2, abs=1e-14)
    assert norms[1] == pytest.approx(3 / 16, abs=1e-14)


def test_efron_stein_nonnegative_on_random_measures():
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = int(rng.choice([2, 3]))
        space = ProductSpace(6, q, rng.dirichlet(np.ones(q), size=6))
        f = FunctionTable(space, rng.standard_normal(space.size))
        norms = efron_stein(f)
        assert norms.min() >= 0.0
        assert norms.sum() == pytest.approx(_l2_norm_sq(f), abs=1e-9)


def test_efron_stein_nonnegative_at_gate_boundary():
    rng = np.random.default_rng(13)
    space = ProductSpace(8, 3, rng.dirichlet(np.ones(3), size=8))
    f = FunctionTable(space, rng.standard_normal(space.size))
    norms = efron_stein(f)
    assert norms.min() >= 0.0
    assert norms.sum() == pytest.approx(_l2_norm_sq(f), abs=1e-9)


def test_efron_stein_components_reconstruct_and_orthogonal():
    rng = np.random.default_rng(4)
    space = ProductSpace(4, 3, rng.dirichlet(np.ones(3), size=4))
    f = FunctionTable(space, rng.standard_normal(space.size))
    tables = efron_stein_components(f)
    np.testing.assert_allclose(tables.sum(axis=0), f.values, atol=1e-10)
    w = space.config_weights()
    gram = (tables * w) @ tables.T
    np.fill_diagonal(gram, 0.0)
    assert np.max(np.abs(gram)) < 1e-9


def test_efron_stein_components_take_any_alphabet():
    """q = 257 > 256: the components' supports come from no digit matrix,
    so digit 256 lands in the right component."""
    rng = np.random.default_rng(5)
    space = ProductSpace(2, 257, rng.dirichlet(np.ones(257), size=2))
    f = FunctionTable(space, rng.standard_normal(space.size))
    tables = efron_stein_components(f)
    np.testing.assert_allclose(tables.sum(axis=0), f.values, atol=1e-10)
    np.testing.assert_allclose((tables**2) @ space.config_weights(), efron_stein(f), rtol=1e-9, atol=1e-15)


def _space_with_zero_atom(n, q, seed):
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(q) * 2.0, size=n)
    pi[1] = np.r_[0.0, rng.dirichlet(np.ones(q - 1))]
    return ProductSpace(n, q, pi)


@pytest.mark.parametrize(
    "space",
    [
        _space_with_zero_atom(6, 3, 21),
        _space_with_zero_atom(5, 4, 22),
        biased_bits(8, [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]),
    ],
    ids=["6x3-zero-atom", "5x4-zero-atom", "8x2-biased"],
)
def test_component_norms_match_fiber_oracle(space):
    rng = np.random.default_rng(23)
    f = FunctionTable(space, rng.standard_normal(space.size))
    projected = [_variance(conditional_expectation(f, mask)) for mask in range(1 << space.n)]
    oracle = subset_mobius(np.array(projected))
    norms = efron_stein(f)
    np.testing.assert_allclose(norms[1:], oracle[1:], rtol=0, atol=1e-12)
    assert norms[0] == pytest.approx(expectation(f) ** 2, abs=1e-12)


def test_walsh_matches_character_sums():
    rng = np.random.default_rng(24)
    n = 8
    f = FunctionTable(uniform_space(n), rng.standard_normal(1 << n))
    signs = spins(f.space).astype(float)
    chars = np.array(
        [np.prod(signs[:, [v for v in range(n) if (mask >> v) & 1]], axis=1) for mask in range(1 << n)]
    )
    np.testing.assert_allclose(walsh_hadamard(f), chars @ f.values / (1 << n), rtol=0, atol=1e-14)


def test_spectral_distribution_maj3():
    dist = spectral_distribution(from_spec("maj:3").table)
    assert dist.shape == (8,)
    assert dist[0] == 0.0
    assert dist.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(dist[[0b001, 0b010, 0b100, 0b111]], 0.25, atol=1e-12)


def test_spectral_distribution_parity_point_mass():
    dist = spectral_distribution(from_spec("parity:4").table)
    assert dist[0b1111] == pytest.approx(1.0)


def test_spectral_distribution_sum_uniform_on_singletons():
    dist = spectral_distribution(from_spec("sum:5").table)
    for j in range(5):
        assert dist[1 << j] == pytest.approx(1 / 5, abs=1e-12)


def test_spectral_distribution_degenerate():
    f = FunctionTable(uniform_space(3), np.ones(8))
    with pytest.raises(DegenerateError):
        spectral_distribution(f)


def test_spectral_marginal_examples():
    maj = spectral_distribution(from_spec("maj:3").table)
    for j in range(3):
        assert dividend_shares(maj)[j] == pytest.approx(1 / 3, abs=1e-12)
    s = spectral_distribution(from_spec("sum:6").table)
    assert dividend_shares(s)[2] == pytest.approx(1 / 6, abs=1e-12)
    d = spectral_distribution(from_spec("dictator:4,1").table)
    assert dividend_shares(d)[1] == pytest.approx(1.0)


def test_sample_spectral_point_masses():
    rng = generator_for(1, 0)
    d = spectral_distribution(from_spec("dictator:3,1").table)
    assert all(sample_spectral(d, rng, size=20) == 0b010)
    p = spectral_distribution(from_spec("parity:3").table)
    assert all(sample_spectral(p, rng, size=20) == 0b111)


def test_sample_spectral_maj3_frequencies():
    dist = spectral_distribution(from_spec("maj:3").table)
    draws = sample_spectral(dist, generator_for(2, 0), size=100_000)
    sigma = np.sqrt(0.25 * 0.75 / 100_000)
    for mask in (0b001, 0b010, 0b100, 0b111):
        freq = np.mean(draws == mask)
        assert abs(freq - 0.25) <= 3 * sigma


def test_sample_spectral_deterministic_per_seed():
    dist = spectral_distribution(from_spec("maj:3").table)
    a = sample_spectral(dist, generator_for(9, 3), size=50)
    b = sample_spectral(dist, generator_for(9, 3), size=50)
    np.testing.assert_array_equal(a, b)


def test_spectral_marginal_matches_empirical_uniform_pick():
    f = FunctionTable(uniform_space(4), np.random.default_rng(7).standard_normal(16))
    dist = spectral_distribution(f)
    marg = dividend_shares(dist)
    rng = generator_for(3, 0)
    draws = sample_spectral(dist, rng, size=100_000)
    counts = np.zeros(4)
    pick = generator_for(4, 0)
    for mask in draws:
        coords = [v for v in range(4) if (mask >> v) & 1]
        counts[coords[pick.integers(len(coords))]] += 1
    freq = counts / len(draws)
    sigma = np.sqrt(np.maximum(marg * (1 - marg), 1e-9) / len(draws))
    assert np.all(np.abs(freq - marg) <= 3 * sigma)


def test_stability_examples():
    assert stability(stability_profile(from_spec("dictator:4,0").table), 0.3) == pytest.approx(0.3)
    assert stability(stability_profile(from_spec("parity:5").table), 0.5) == pytest.approx(0.5**5)
    prof = stability_profile(from_spec("maj:3").table)
    assert stability(prof, 0.5) == pytest.approx(13 / 32, abs=1e-12)
    with pytest.raises(ValueError):
        stability(prof, 1.5)


def test_level_weights_sum_to_variance():
    rng = np.random.default_rng(8)
    f = FunctionTable(uniform_space(6), rng.standard_normal(64))
    prof = stability_profile(f)
    assert prof.level_weights[1:].sum() == pytest.approx(_variance(f), abs=1e-10)
    assert np.all(prof.level_weights >= 0)


def test_pivotal_examples():
    assert _pivotal_masks(from_spec("dictator:3,0").table)[0b101] == 0b001
    assert _pivotal_masks(from_spec("parity:3").table)[0b010] == 0b111
    # spins (+,+,-) = digits (1,1,0) = index 0b011
    assert _pivotal_masks(from_spec("maj:3").table)[0b011] == 0b011


def test_pivotal_rejects_non_boolean():
    f = FunctionTable(uniform_space(2), np.array([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        _pivotal_masks(f)


def test_covariance_identity_examples():
    d = from_spec("dictator:3,0").table
    assert _covariance_lemma_check(d, d) == pytest.approx((1.0, 1.0), abs=1e-12)
    maj = from_spec("maj:3").table
    lhs, rhs = _covariance_lemma_check(maj, maj)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    lhs, rhs = _covariance_lemma_check(maj, d)
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs == pytest.approx(0.5, abs=1e-12)


def test_covariance_identity_refuses_non_monotone():
    with pytest.raises(ValueError):
        _covariance_lemma_check(from_spec("parity:3").table, from_spec("parity:3").table)
    assert not _is_monotone(from_spec("parity:3").table)
    assert _is_monotone(from_spec("maj:3").table)


def _noise_pair_weights(n: int, p: float) -> np.ndarray:
    """Joint law of (w, w') on n uniform bits where w' keeps each spin with
    probability p and refreshes it otherwise; shape (2^n, 2^n)."""
    idx = np.arange(1 << n)
    agree = n - popcounts(n)[idx[:, None] ^ idx[None, :]]
    return ((1.0 + p) / 4.0) ** agree * ((1.0 - p) / 4.0) ** (n - agree)


def _enumerated_overlap_integral(f, g) -> float:
    """Oracle for the covariance lemma's left side, n <= 8: the integral over
    p in [0,1] of E|Piv_f(w) ∩ Piv_g(w')| by joint enumeration of the pair law
    at Gauss-Legendre nodes (the integrand is a polynomial of degree < n, so
    ceil(n/2)+1 nodes integrate it exactly)."""
    n = f.n
    overlap = popcounts(n)[_pivotal_masks(f)[:, None] & _pivotal_masks(g)[None, :]].astype(float)
    nodes, weights = np.polynomial.legendre.leggauss((n + 1) // 2 + 1)
    return sum(0.5 * w * float(np.sum(_noise_pair_weights(n, 0.5 * (x + 1.0)) * overlap))
               for x, w in zip(nodes, weights))


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_noise_pair_character_identity(p):
    n = 5
    idx = np.arange(1 << n)
    weights = _noise_pair_weights(n, p)
    chi = np.ones((1 << n, 1 << n))
    for mask in range(1 << n):
        for v in range(n):
            if (mask >> v) & 1:
                chi[mask] *= np.where((idx >> v) & 1 == 1, 1.0, -1.0)
    cross = chi @ weights @ chi.T
    expected = np.diag([p ** int(k) for k in popcounts(n)])
    np.testing.assert_allclose(cross, expected, atol=1e-12)


def test_covariance_lemma_matches_enumeration_on_the_suite_draws():
    rng = generator_for(suites.SUITE_SEED, 8)
    for _ in range(50):
        sp = uniform_space(int(rng.integers(2, 7)))
        f, g = suites._random_monotone(sp, rng), suites._random_monotone(sp, rng)
        lhs, _ = _covariance_lemma_check(f, g)
        assert abs(lhs - _enumerated_overlap_integral(f, g)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_covariance_lemma_matches_enumeration_on_threshold_pairs(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        f = suites._random_threshold(uniform_space(n), rng)
        g = suites._random_threshold(uniform_space(n), rng)
        lhs, rhs = _covariance_lemma_check(f, g)
        assert abs(lhs - _enumerated_overlap_integral(f, g)) <= 1e-12
        assert abs(lhs - rhs) <= 1e-12


def test_covariance_lemma_past_the_enumeration_range():
    rng = np.random.default_rng(16)
    f = suites._random_threshold(uniform_space(16), rng)
    g = suites._random_threshold(uniform_space(16), rng)
    assert f.values.min() < f.values.max() and g.values.min() < g.values.max()
    lhs, rhs = _covariance_lemma_check(f, g)
    assert rhs == _covariance(f, g)
    assert abs(lhs - rhs) <= 1e-12
    maj = from_spec("maj:15").table
    lhs, rhs = _covariance_lemma_check(maj, maj)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("n", range(13))
def test_popcounts_counts_the_bits_of_every_mask(n):
    pc = popcounts(n)
    assert pc.dtype == np.int64
    assert pc.tolist() == [bin(m).count("1") for m in range(1 << n)]


@pytest.mark.parametrize("n", [15, 16, 17, 20])
def test_level_weights_equal_the_popcount_bincount_bitwise(n):
    """The level weights bin in blocks of TABLE_BLOCK masks through the low
    bits' popcounts; np.add.at adds in mask order, as a bincount over every
    mask's popcount does, so the two agree bit for bit on one block and on
    many."""
    f = FunctionTable(uniform_space(n), np.random.default_rng(n).standard_normal(1 << n))
    expected = np.bincount(popcounts(n), weights=efron_stein(f), minlength=n + 1)
    assert stability_profile(f).level_weights.tobytes() == expected.tobytes()


def _per_coordinate_bases(space: ProductSpace) -> np.ndarray:
    """One weighted Gram-Schmidt run per coordinate, e_{q-1} down to e_0 over
    the positive atoms: the loop the shared bases must equal bitwise."""
    out = np.zeros((space.n, space.q, space.q))
    for v, pi in enumerate(space.pi):
        rows = [np.ones(space.q)]
        for j in np.flatnonzero(pi)[:0:-1]:
            u = np.eye(space.q)[j]
            for r in rows:
                u = u - float(pi @ (u * r)) * r
            rows.append(u / np.sqrt(float(pi @ (u * u))))
        out[v, : len(rows)] = rows
    return out


@pytest.mark.parametrize("pi", [
    [[0.2, 0.0, 0.8], [1 / 3, 1 / 3, 1 / 3], [0.2, 0.0, 0.8], [0.5, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3]],
    [[0.5, 0.5]] * 6,
    [[0.3, 0.7], [0.3, 0.7], [0.0, 1.0], [0.6, 0.4]],
], ids=["q3-zero-atom-repeated-rows", "uniform-bits", "biased-with-point-mass"])
def test_bases_shared_between_equal_rows_equal_the_per_coordinate_loop(pi):
    space = ProductSpace(len(pi), len(pi[0]), np.array(pi))
    assert np.array_equal(spectral._bases(space), _per_coordinate_bases(space))


def _copying_transform(space: ProductSpace, values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The transform with its input copied into one of its two buffers first."""
    bases = _per_coordinate_bases(space)
    mats = bases.transpose(0, 2, 1) if inverse else bases * space.pi[:, None, :]
    src = np.array(values, dtype=float)
    dst = np.empty_like(src)
    lead, q = src.shape[:-1], space.q
    np.matmul(src.reshape(lead + (-1, q)), mats[0].T, out=dst.reshape(lead + (-1, q)))
    for v in range(1, space.n):
        src, dst = dst, src
        shape = lead + (-1, q, q**v)
        np.matmul(mats[v], src.reshape(shape), out=dst.reshape(shape))
    return dst


def _space_with_weights(q, n, zero_atom):
    pi = np.random.default_rng(q * 10 + n).uniform(0.2, 1.0, size=(n, q))
    if zero_atom:
        pi[::2, 1] = 0.0
    return ProductSpace(n, q, pi / pi.sum(axis=1, keepdims=True))


TRANSFORM_SPACES = [
    pytest.param(uniform_space(1), id="n1"),
    pytest.param(uniform_space(9), id="uniform"),
    pytest.param(biased_bits(7, 0.3), id="biased"),
    pytest.param(ProductSpace(4, 3, np.array([[0.2, 0.0, 0.8]] * 4)), id="q3-zero-atom"),
    *[pytest.param(uniform_space(n), id=f"uniform-n{n}") for n in (3, 4, 5, 8, 13, 16)],
    *[pytest.param(_space_with_weights(q, n, zero), id=f"q{q}-n{n}" + ("-zero-atom" if zero else ""))
      for q in (2, 3, 4, 5) for n in (1, 3, 4, 5, 8, 9) for zero in (False, True)
      if q**n <= 5**8],  # q = 5 takes one coordinate per block, as at n = 8
]


@pytest.mark.parametrize("space", TRANSFORM_SPACES)
def test_transform_reads_its_input_in_place_with_the_same_bits(space):
    """The transform against the per-coordinate sweep, forward and inverse,
    on one table and on a stack of leading rows; the input is read in place
    and left as it was.  On uniform bits every entry of a Kronecker square is
    +-2^-k or +-1, so an integer-valued table gives the sweep's bits in any
    summation order.  Elsewhere the blocks sum in another order than one
    coordinate at a time: the coefficients may move by at most 8 eps of the
    largest one."""
    rng = np.random.default_rng(5)
    values = rng.normal(size=space.size)
    values.setflags(write=False)
    kept = values.copy()
    ints = rng.integers(-40, 40, size=(2, space.size))
    for x in (values, rng.normal(size=(3, space.size)), ints):
        for inverse in (False, True):
            expected = _copying_transform(space, x, inverse)
            got = spectral._transform(space, x, inverse)
            assert got.shape == expected.shape
            if x is ints and space.is_uniform_binary:
                assert np.array_equal(got, expected)
            else:
                assert np.abs(got - expected).max() <= 8 * np.finfo(float).eps * np.abs(expected).max()
    assert np.array_equal(values, kept)


def test_transform_makes_one_product_per_block_of_coordinates(monkeypatch):
    """maj:15 on bits goes in blocks of 4, 4, 4 and 3 coordinates: four
    products where one coordinate at a time would make fifteen."""
    f = from_spec("maj:15").table
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    spectral._transform(f.space, f.values)
    assert len(calls) == 4


def test_component_stack_is_transformed_in_its_own_buffer(run_python):
    """efron_stein_components hands its fresh coefficient stack to the
    inverse transform as the second buffer, so the call peaks at two
    (2^n, q^n) arrays, not three.  At n = 11 a stack is 32 MB; the child
    reads its own VmHWM before and after the call."""
    out = run_python(
        "import numpy as np\n"
        "from cluekit.core import FunctionTable, uniform_space\n"
        "from cluekit.spectral import _coefficients, efron_stein_components\n"
        "def peak():\n"
        "    return next(int(line.split()[1]) for line in open('/proc/self/status')\n"
        "                if line.startswith('VmHWM:'))\n"
        "f = FunctionTable(uniform_space(11), np.random.default_rng(0).standard_normal(1 << 11))\n"
        "_coefficients(f)\n"
        "before = peak()\n"
        "efron_stein_components(f)\n"
        "print(peak() - before)")
    assert out.returncode == 0, out.stderr
    stack_kb = 8 * 4**11 // 1024
    assert int(out.stdout) < 2.5 * stack_kb  # VmHWM is in kB
