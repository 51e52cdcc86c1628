from fractions import Fraction
from math import ceil
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from cluekit.core import FunctionTable, ProductSpace, mask_indices, uniform_space
from cluekit.errors import DegenerateError
from cluekit.montecarlo import (
    CHUNK,
    _coins,
    _stream_key,
    generator_for,
    mc_clue,
    mc_expected_clue_bernoulli,
    mc_stability,
    run_chunks,
    sample_digits,
    splitmix64,
)
from cluekit.perco import RectangleSpec, crossing_probability_mc
from cluekit.zoo import dictator_evaluator, evaluator_from_spec, majority_evaluator, sum_evaluator
from conftest import ZERO_ATOM_Q3, biased_bits


def test_splitmix64_reference_vector():
    # first output of the reference sequence seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_generator_streams_differ():
    a = generator_for(1, 0).random(4)
    b = generator_for(1, 1).random(4)
    c = generator_for(1, 0).random(4)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, c)


@pytest.mark.parametrize("seed, stream", [(0, 0), (1, 5), (3, 1000), (7919, 1 << 32),
                                          ((1 << 64) - 1, (1 << 33) + 3)])
def test_generator_for_is_the_philox_key_stream(seed, stream):
    key = _stream_key(seed, stream)
    expected = np.random.Philox(key=key).random_raw(1000)
    np.testing.assert_array_equal(generator_for(seed, stream).bit_generator.random_raw(1000), expected)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
def test_generator_for_refuses_seeds_off_64_bits(seed):
    # seed and seed mod 2^64 once shared a stream
    with pytest.raises(ValueError):
        generator_for(seed, 0)
    with pytest.raises(ValueError):
        mc_clue(majority_evaluator(3), uniform_space(3), 0b001, 300, 4, seed=seed)


def test_mc_clue_dictator_exact():
    est = mc_clue(dictator_evaluator(3, 0), uniform_space(3), 0b001, 400, 8, seed=1)
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_mc_clue_maj3_within_three_stderr():
    est = mc_clue(majority_evaluator(3), uniform_space(3), 0b001, 2000, 50, seed=2)
    assert abs(est.estimate - 0.25) <= 3 * est.stderr


def test_mc_clue_sum16_within_three_stderr():
    est = mc_clue(sum_evaluator(16), uniform_space(16), 0b1111, 2000, 50, seed=3)
    assert abs(est.estimate - 0.25) <= 3 * est.stderr


def test_mc_clue_empty_subset_clamps_to_zero():
    est = mc_clue(majority_evaluator(3), uniform_space(3), 0, 2000, 10, seed=4)
    assert est.estimate <= 3 * max(est.stderr, 1e-3)
    assert est.uncorrected > 0.0


def test_mc_clue_thread_determinism():
    for space in (uniform_space(12), biased_bits(12, 0.3)):  # fair bits and the cut rule
        runs = [
            mc_clue(sum_evaluator(12), space, 0b111, 1200, 16, seed=5, threads=k)
            for k in (1, 2, 3, 8)
        ]
        assert len({(run.estimate, run.stderr, run.uncorrected) for run in runs}) == 1


def test_mc_clue_rejects_tiny_samples():
    with pytest.raises(ValueError):
        mc_clue(majority_evaluator(3), uniform_space(3), 0b1, 1, 5, seed=1)
    with pytest.raises(ValueError):
        mc_clue(majority_evaluator(3), uniform_space(3), 0b1, 10, 1, seed=1)


@pytest.mark.parametrize("mask", [-1, 1 << 4])
def test_mc_clue_rejects_masks_off_the_space(mask):
    with pytest.raises(ValueError):
        mc_clue(sum_evaluator(4), uniform_space(4), mask, 100, 4, seed=1)


def test_mc_clue_degenerate_function():
    const = lambda digits: np.zeros(len(digits))
    with pytest.raises(DegenerateError):
        mc_clue(const, uniform_space(3), 0b1, 100, 4, seed=1)


def test_mc_stability_endpoints():
    ev = majority_evaluator(3)
    top = mc_stability(ev, 3, 1.0, 4000, seed=6)
    assert top.estimate == pytest.approx(1.0, abs=1e-12)
    assert top.stderr == 0.0
    bottom = mc_stability(ev, 3, 0.0, 20_000, seed=7)
    assert abs(bottom.estimate) <= 3 * bottom.stderr


def test_mc_stability_maj3_half():
    est = mc_stability(majority_evaluator(3), 3, 0.5, 60_000, seed=8)
    assert abs(est.estimate - 13 / 32) <= 3 * est.stderr


def test_mc_expected_clue_bernoulli_endpoints():
    ev = majority_evaluator(3)
    sp = uniform_space(3)
    top = mc_expected_clue_bernoulli(ev, sp, 1.0, 6, 400, 10, seed=9)
    assert top.estimate == pytest.approx(1.0, abs=1e-12)
    bottom = mc_expected_clue_bernoulli(ev, sp, 0.0, 6, 400, 10, seed=10)
    assert bottom.estimate <= 0.02


@pytest.mark.parametrize("p", [-0.5, 1.5])
def test_mc_expected_clue_bernoulli_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(ValueError):
        mc_expected_clue_bernoulli(majority_evaluator(5), uniform_space(5), p, 4, 300, 4, seed=1)


def test_mc_expected_clue_bernoulli_matches_stability():
    ev = majority_evaluator(3)
    sp = uniform_space(3)
    est = mc_expected_clue_bernoulli(ev, sp, 0.5, 40, 1200, 30, seed=11)
    assert abs(est.estimate - 13 / 32) <= 4 * max(est.stderr, 1e-3)


def test_mc_expected_clue_respects_revealment_bound():
    # estimated expected clue of a density-p random set stays below p
    ev = sum_evaluator(10)
    sp = uniform_space(10)
    for p in (0.2, 0.5, 0.8):
        est = mc_expected_clue_bernoulli(ev, sp, p, 20, 600, 16, seed=12)
        assert est.estimate <= p + 3 * max(est.stderr, 1e-3)


def test_mc_expected_clue_child_seeds_do_not_collide(monkeypatch):
    # master seed 0 / set 1 and master seed 7919 / set 0 once shared a child seed
    import cluekit.montecarlo as mc

    seen = []
    real = mc.mc_clue

    def record(evaluator, space, mask, n_outer, m_inner, seed, threads=None):
        seen.append(seed)
        return real(evaluator, space, mask, n_outer, m_inner, seed, threads)

    monkeypatch.setattr(mc, "mc_clue", record)
    ev, sp = sum_evaluator(4), uniform_space(4)
    mc_expected_clue_bernoulli(ev, sp, 0.5, 2, 8, 2, seed=0)
    mc_expected_clue_bernoulli(ev, sp, 0.5, 1, 8, 2, seed=7919)
    assert len(seen) == 3
    assert seen[1] != seen[2]
    assert len(set(seen)) == 3


@pytest.mark.parametrize("n_sets", [0, -1])
def test_mc_expected_clue_bernoulli_needs_a_set(n_sets):
    with pytest.raises(ValueError):
        mc_expected_clue_bernoulli(majority_evaluator(3), uniform_space(3), 0.5, n_sets, 300, 4, seed=1)


def test_estimators_run_in_the_calling_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("estimator started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    ev, sp = sum_evaluator(6), uniform_space(6)
    assert mc_clue(ev, sp, 0b111, 600, 4, seed=1, threads=2).batches == 3
    assert mc_stability(ev, 6, 0.5, 1000, seed=1, threads=2).batches == 4
    assert mc_expected_clue_bernoulli(ev, sp, 0.5, 2, 300, 4, seed=1, threads=2).batches == 2
    estimate, _ = crossing_probability_mc(RectangleSpec(4, 3), 40_000, seed=1)
    assert 0.0 < estimate < 1.0


# (spec, p, samples, seed) -> (estimate, stderr) as hex, recorded while the
# noisy copy was an np.where
STABILITY_PINS = [
    ("sum:40", 0.3, 20_000, 17, ("0x1.2e43a1bfdef3dp-2", "0x1.bbd637ee15aacp-8")),
    ("maj:31", 0.7, 20_000, 23, ("0x1.03fc125d5983bp-1", "0x1.710995976c6f5p-8")),
    # recorded while the zoo evaluators summed digits in int32
    ("parity:12", 0.8, 20_000, 41, ("0x1.159be3356d28bp-4", "0x1.aa4d20248441dp-8")),
]


@pytest.mark.parametrize("spec, p, samples, seed, pins", STABILITY_PINS, ids=["sum40", "maj31", "parity12"])
def test_mc_stability_is_pinned(spec, p, samples, seed, pins):
    n, ev = evaluator_from_spec(spec)
    est = mc_stability(ev, n, p, samples, seed)
    assert (est.estimate.hex(), est.stderr.hex()) == pins
    assert est.batches == 16


def test_mc_clue_without_two_batches_has_no_error_bar():
    # 200 outer rows fill one 256-row chunk, hence one batch: no error bar
    ev, sp = majority_evaluator(3), uniform_space(3)
    one = mc_clue(ev, sp, 0b001, 200, 8, seed=3)
    assert one.stderr is None
    assert one.batches == 1
    two = mc_clue(ev, sp, 0b001, 300, 8, seed=3)
    assert two.batches == 2
    assert two.stderr > 0.0


def test_mc_stability_and_expected_clue_report_batches():
    ev = majority_evaluator(3)
    assert mc_stability(ev, 3, 0.5, 200, seed=1).stderr is None
    est = mc_stability(ev, 3, 0.5, 4000, seed=1)
    assert est.batches == 16 and est.stderr > 0.0
    single = mc_expected_clue_bernoulli(ev, uniform_space(3), 0.5, 1, 400, 10, seed=2)
    assert single.stderr is None and single.batches == 1


def breakpoint_digits(u, cdf):
    """(rows, coords) digits of the uniform draws ``u``: each counts the
    interior breakpoints of its coordinate's cdf at or below its draw."""
    return (u[:, :, None] >= cdf[:, :-1]).sum(axis=2, dtype=np.uint8)


SAMPLING_SPACES = {
    "uniform q=2": uniform_space(5),
    "biased q=2": biased_bits(5, [0.1, 0.3, 0.5, 0.7, 0.9]),
    "zero atom q=3": ZERO_ATOM_Q3,
    "q=4": ProductSpace(5, 4, np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25],
                                        [0.0, 0.5, 0.0, 0.5], [0.7, 0.1, 0.1, 0.1],
                                        [0.4, 0.3, 0.3, 0.0]])),
    # rows summing to 1 within tolerance put breakpoints just above 1
    "cdf above 1 q=3": ProductSpace(5, 3, np.array([[0.6, 0.4 + 1e-13, 0.0], [0.5, 0.5, 0.0],
                                                    [0.3, 0.7 + 5e-13, 0.0], [0.2, 0.3, 0.5],
                                                    [1.0 + 1e-13, 0.0, 0.0]])),
}


def _raw_words(words):
    """Stand-in generator whose raw words are ``words``, in order."""
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda size: words[:size]))


def _words_around_the_cuts(cdf):
    """Raw words on both sides of every cut point ceil(c * 2^53), zero
    atoms (c = 0 and c = 1) included: the lowest word whose double reaches
    c and, below it, the highest word whose double does not."""
    words = {0, (1 << 64) - 1}
    for c in cdf[:, :-1].ravel():
        cut = ceil(Fraction(float(c)) * (1 << 53))
        if cut < 1 << 53:
            words.add(cut << 11)
        if cut > 0:
            words.add((min(cut - 1, (1 << 53) - 1) << 11) | 0x7FF)
    return np.array(sorted(words), dtype=np.uint64)


def word_bits(words: np.ndarray, rows: int) -> np.ndarray:
    """(len(words), rows) bits of a (coords, words) uint64 matrix, row by
    row, least significant bit of the first word first."""
    bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(len(words), -1)[:, :rows].astype(np.uint8)


def oracle_digits(space, coords, rows, rng):
    """(len(coords), rows) digits by the sampling contract, computed apart
    from the sampler: on a fair space the bits of each coordinate's own
    ceil(rows / 64) raw words, elsewhere the breakpoint count of float
    draws."""
    if np.all(space.pi == 0.5):
        words = -(-rows // 64)
        return word_bits(rng.bit_generator.random_raw(len(coords) * words).reshape(len(coords), words), rows)
    return breakpoint_digits(rng.random((rows, len(coords))), np.cumsum(space.pi[coords], axis=1)).T


@pytest.mark.parametrize("name", SAMPLING_SPACES)
@pytest.mark.parametrize("coords", [[0, 1, 2, 3, 4], [1, 4], [3]])
def test_sample_digits_match_the_breakpoint_oracle(name, coords):
    space = SAMPLING_SPACES[name]
    for rows in (1, 7, 63, 64, 65, 1000):
        got = sample_digits(space, coords)(generator_for(3, rows), rows)
        assert got.dtype == np.uint8 and got.shape == (len(coords), rows) and got.flags.c_contiguous
        np.testing.assert_array_equal(got, oracle_digits(space, coords, rows, generator_for(3, rows)))
        for j, v in enumerate(coords):
            assert not np.isin(got[j], np.flatnonzero(space.pi[v] == 0.0)).any()
    if name == "uniform q=2":
        return
    # words on either side of each cut point land on either side of its breakpoint
    cdf = np.cumsum(space.pi[coords], axis=1)
    words = np.repeat(_words_around_the_cuts(cdf), len(coords))
    got = sample_digits(space, coords)(_raw_words(words), len(words) // len(coords))
    u = (words >> np.uint64(11)).astype(float).reshape(-1, len(coords)) / 2.0**53
    np.testing.assert_array_equal(got, breakpoint_digits(u, cdf).T)


@pytest.mark.parametrize("p", [0.0, 0.3, 1 / 3, 0.5, 1.0])
def test_coins_are_the_float_draws_below_p(p):
    got = _coins(p, 7)(generator_for(4, 0), 300)
    np.testing.assert_array_equal(got, (generator_for(4, 0).random((300, 7)) < p).T)


def test_fair_digits_are_fair():
    # share of ones per coordinate within 6 sigma of 1/2 over 2^20 draws
    rows = 1 << 20
    shares = sample_digits(uniform_space(8), list(range(8)))(generator_for(17, 0), rows).mean(axis=1)
    assert np.all(np.abs(shares - 0.5) <= 6 * 0.5 / np.sqrt(rows))


# q=3 with zero atoms and biased bits, both drawn by the cut rule, as the
# biased 12-bit table jobs of the monte_carlo benchmark are.  Hex floats
# recorded before the digit matrices became column-major.
OFF_Q2_PINS = [
    (ZERO_ATOM_Q3, 13, 0b00101, 600, 8, 5,
     ("0x1.7bbbcdc398a00p-6", "0x1.bce90943ef4f8p-9", "0x1.29888a8164b18p-3")),
    (biased_bits(8, [0.1, 0.3, 0.5, 0.7, 0.9, 0.25, 0.6, 0.85]), 11, 0b10110010, 700, 6, 6,
     ("0x1.c46daafb755c3p-6", "0x1.b1cd3a607ae60p-7", "0x1.84761724dc39ap-3")),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", range(len(OFF_Q2_PINS)))
def test_mc_clue_off_q2_is_pinned(case, threads):
    space, modulus, mask, outer, inner, seed, pins = OFF_Q2_PINS[case]
    table = FunctionTable(space, (np.arange(space.size) * 7919 % modulus).astype(float))
    est = mc_clue(table.evaluator(), space, mask, outer, inner, seed, threads=threads)
    assert (est.estimate.hex(), est.stderr.hex(), est.uncorrected.hex()) == pins
    assert est.batches == 3 and not est.clamped


# (spec, mask, outer, inner, seed) -> (estimate, stderr, uncorrected) as hex,
# recorded while the zoo evaluators summed digits in int32 and tribes
# compared them with 1
ZOO_MC_CLUE_PINS = [
    ("tribes:4,5", 0b10101010101010101010, 600, 8, 31,
     ("0x1.8440c9c7ec128p-3", "0x1.f52470e2ddb79p-7", "0x1.29dc584777481p-2")),
    ("composite:20,16,0.5", (1 << 18) - 1, 600, 8, 32,
     ("0x1.e1f047ad430bap-2", "0x1.f81cf5856d6c6p-6", "0x1.12d91f5bcd552p-1")),
    ("amaj:21,0.5", 0b101010101010101010101, 600, 8, 33,
     ("0x1.7959f5f66d07dp-2", "0x1.843129f9570dcp-7", "0x1.ca2eb7379f66dp-2")),
    ("sum:76", int("1011" * 19, 2), 600, 8, 34,
     ("0x1.8b50c03467ea9p-1", "0x1.1be9473763baap-7", "0x1.99e6a82ddaed3p-1")),
]


@pytest.mark.parametrize("spec, mask, outer, inner, seed, pins", ZOO_MC_CLUE_PINS,
                         ids=["tribes4x5", "composite20+16", "amaj21", "sum76"])
def test_mc_clue_on_zoo_evaluators_is_pinned(spec, mask, outer, inner, seed, pins):
    n, ev = evaluator_from_spec(spec)
    est = mc_clue(ev, uniform_space(n), mask, outer, inner, seed)
    assert (est.estimate.hex(), est.stderr.hex(), est.uncorrected.hex()) == pins
    assert est.batches == 3 and not est.clamped


@pytest.mark.parametrize("space", [uniform_space(6), ZERO_ATOM_Q3], ids=["q=2", "q=3"])
def test_mc_clue_hands_evaluators_column_major_digits(space):
    """Every chunk reaches the evaluator as an F-contiguous (rows * m_inner, n)
    uint8 matrix, so every coordinate's digits are contiguous."""
    seen = []

    def record(digits):
        seen.append((digits.shape, digits.dtype, digits.flags.f_contiguous))
        return digits[:, 0] * 2.0 - 1.0

    n, inner = space.n, 4
    for mask in (0, 0b101, (1 << n) - 1):  # no inside, both, no outside coordinates
        seen.clear()
        mc_clue(record, space, mask, CHUNK + 44, inner, seed=1)
        assert seen == [((CHUNK * inner, n), np.uint8, True), ((44 * inner, n), np.uint8, True)]


def deviation_oracle(evaluator, space, mask, n_outer, m_inner, seed):
    """(estimate, stderr, uncorrected) of mc_clue on the same draws, with
    the float statistics it took before integer fiber counts: the whole
    (n, rows * m_inner) digit matrix through the plain evaluator, and the
    within sum of squares from the deviations about the fiber means."""
    inside = mask_indices(mask)
    outside = [v for v in range(space.n) if v not in inside]
    draw_inside, draw_outside = sample_digits(space, inside), sample_digits(space, outside)

    def sample(rng, rows):
        columns = np.empty((space.n, rows * m_inner), dtype=np.uint8)
        if inside:
            columns[inside] = np.repeat(draw_inside(rng, rows), m_inner, axis=1)
        if outside:
            columns[outside] = draw_outside(rng, rows * m_inner)
        values = np.asarray(evaluator(columns.T), dtype=float).reshape(rows, m_inner)
        fiber_means = values.mean(axis=1)
        deviations = values - fiber_means[:, None]
        return [rows, fiber_means.sum(), fiber_means @ fiber_means, (deviations * deviations).sum()]

    def ratio(row):
        count, s1, s2, within_ss = row
        between = (s2 - count * (s1 / count) ** 2) / (count - 1)
        within = within_ss / (count * (m_inner - 1))
        numerator = between - within / m_inner
        total = numerator + within
        return max(numerator, 0.0) / total, between / total

    stats = run_chunks(sample, n_outer, seed)
    estimate, uncorrected = ratio(stats.sum(axis=0))
    per_batch = [ratio(row)[0] for row in stats if row[0] >= 2]
    stderr = float(np.std(per_batch, ddof=1) / np.sqrt(len(per_batch))) if len(per_batch) > 1 else None
    return estimate, stderr, uncorrected


def assert_close_to_oracle(got, oracle, rel=1e-12):
    for name, a, b in zip(("estimate", "stderr", "uncorrected"), (got.estimate, got.stderr, got.uncorrected), oracle):
        assert abs(a - b) <= rel * max(abs(a), abs(b)), (name, a, b)


def _zoo(spec):
    n, ev = evaluator_from_spec(spec)
    return uniform_space(n), ev


def _boolean_table(space, levels, seed):
    values = np.asarray(levels)[np.random.default_rng(seed).integers(0, 2, space.size)]
    return space, FunctionTable(space, values).evaluator()


# name -> (space, two-valued evaluator)
TWO_VALUED = {
    **{spec: (lambda spec=spec: _zoo(spec)) for spec in
       ("maj:21", "parity:20", "amaj:21,0.5", "tribes:4,5", "composite:20,16,0.5", "dictator:30,7")},
    "bits table": lambda: _boolean_table(biased_bits(12, np.linspace(0.25, 0.75, 12)), (0.0, 1.0), 1),
    "spins table": lambda: _boolean_table(uniform_space(10), (-1.0, 1.0), 2),
}


@pytest.mark.parametrize("m_inner", [2, 256])
@pytest.mark.parametrize("name", TWO_VALUED)
def test_integer_fiber_statistics_match_the_deviation_oracle(name, m_inner):
    """Two-valued evaluators take their fiber statistics from integer
    counts; estimate, stderr and uncorrected stay within 1e-12 relative of
    the float statistics, across seeds and subsets."""
    space, ev = TWO_VALUED[name]()
    assert ev.levels is not None
    rng = np.random.default_rng(space.n + m_inner)
    for seed in (1, 2, 3):
        mask = int(sum(1 << int(v) for v in rng.choice(space.n, space.n // 2, replace=False)))
        est = mc_clue(ev, space, mask, 600, m_inner, seed)
        assert_close_to_oracle(est, deviation_oracle(ev, space, mask, 600, m_inner, seed))


def test_the_all_clamped_parity_case_matches_the_deviation_oracle():
    ev, space, mask = evaluator_from_spec("parity:33")[1], uniform_space(33), (1 << 17) - 1
    est = mc_clue(ev, space, mask, 512, 8, 5)
    assert est.clamped and est.estimate == 0.0 and est.stderr == 0.0
    assert_close_to_oracle(est, deviation_oracle(ev, space, mask, 512, 8, 5))
