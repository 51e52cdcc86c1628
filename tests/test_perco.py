from fractions import Fraction

import numpy as np
import pytest

from cluekit.clue import clue
from cluekit.core import expectation
from cluekit.errors import GuardError
from cluekit.montecarlo import generator_for
from cluekit.perco import (
    RectangleSpec,
    TorusSpec,
    averaged_crossing_clue_bound,
    averaged_lr_table,
    crossing_batch,
    crossing_probability_exact,
    crossing_probability_mc,
    dual_crossing_batch,
    torus_lr_evaluator,
    torus_lr_table,
    torus_lr_values,
    translate_disagreement,
    _all_configs,
)
from cluekit.suites import _scalar_crossing
from cluekit.symmetry import is_invariant
from conftest import subset_orbit_union


def test_rectangle_edge_count():
    rect = RectangleSpec(3, 2)
    assert rect.edge_count == (3 - 1) * 2 + 3 * (2 - 1) == 7
    assert rect.self_dual
    assert not RectangleSpec(3, 3).self_dual


def test_all_open_crosses_all_closed_does_not():
    rect = RectangleSpec(4, 3)
    assert crossing_batch(rect, np.ones((1, rect.edge_count), dtype=bool))[0]
    assert not crossing_batch(rect, np.zeros((1, rect.edge_count), dtype=bool))[0]


def test_single_open_row_crosses():
    rect = RectangleSpec(4, 3)
    row = np.zeros((1, rect.edge_count), dtype=bool)
    for x in range(3):
        row[0, rect.horizontal_edge(x, 1)] = True
    assert crossing_batch(rect, row)[0]


def test_dual_examples():
    rect = RectangleSpec(3, 2)
    assert not dual_crossing_batch(rect, np.ones((1, 7), dtype=bool))[0]
    assert dual_crossing_batch(rect, np.zeros((1, 7), dtype=bool))[0]


def _shift_and_mask_configs(n_edges: int) -> np.ndarray:
    """Row c open on the set bits of c, from an int64 arange shifted and
    masked: the enumerator the digit matrix replaced, kept as its oracle."""
    idx = np.arange(1 << n_edges, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n_edges)[None, :]) & 1).astype(bool)


def test_enumeration_matches_shift_and_mask():
    for e in range(1, 19):
        configs = _all_configs(e)
        assert configs.dtype == bool and configs.shape == (1 << e, e)
        np.testing.assert_array_equal(configs, _shift_and_mask_configs(e))
        # edge-major: the (edges, rows) array that _pack packs needs no copy
        assert configs.T.flags.c_contiguous


def test_duality_xor_exhaustive():
    rect = RectangleSpec(3, 2)
    configs = _all_configs(rect.edge_count)
    xor = crossing_batch(rect, configs) ^ dual_crossing_batch(rect, configs)
    assert bool(np.all(xor))


def test_crossing_probability_examples():
    assert crossing_probability_exact(RectangleSpec(2, 1)) == Fraction(1, 2)
    assert crossing_probability_exact(RectangleSpec(2, 2)) == Fraction(3, 4)
    assert crossing_probability_exact(RectangleSpec(3, 2)) == Fraction(1, 2)


def test_crossing_probability_guard():
    with pytest.raises(GuardError):
        crossing_probability_exact(RectangleSpec(6, 5))


def test_exact_enumeration_refuses_23_edges():
    # the digit matrix of every configuration is declared at 8 bytes a digit:
    # 8 * 23 * 2^23 bytes, 1.44 GiB, as the int64 enumerator it replaced took
    with pytest.raises(GuardError, match="digit matrix"):
        crossing_probability_exact(RectangleSpec(24, 1))


def test_exact_enumeration_of_22_edges_is_pinned():
    assert crossing_probability_exact(RectangleSpec(5, 3)) == Fraction(48449, 131072)


def test_exact_5x3_enumerates_in_bounded_memory(run_python):
    """``perco --rect 5x3`` enumerates 2^22 configurations: 88 MiB of digits,
    viewed as bool and packed without a copy.  The int64 shift-and-mask
    matrix alone took 704 MiB, and the command peaked at 856 MiB.  The child
    reads its own peak, VmHWM (in kB), after the JSON line."""
    out = run_python("from cluekit.cli import main; main(['perco', '--rect', '5x3'])\n"
                     "print(next(line.split()[1] for line in open('/proc/self/status') "
                     "if line.startswith('VmHWM:')))")
    assert out.returncode == 0, out.stderr
    payload, peak_kb = out.stdout.splitlines()
    assert '"probability_exact": "48449/131072"' in payload
    assert int(peak_kb) < 400 * 1024


def test_crossing_probability_mc_agrees():
    rect = RectangleSpec(4, 3)
    exact = float(crossing_probability_exact(rect))
    estimate, stderr = crossing_probability_mc(rect, 40_000, seed=1)
    assert abs(estimate - exact) <= 3 * stderr


def test_torus_table_ignores_wrap_verticals():
    torus = TorusSpec(3)
    table = torus_lr_table(torus)
    idx = np.arange(table.values.size)
    for x in range(3):
        edge = torus.v_edge(x, 2)
        np.testing.assert_array_equal(table.values, table.values[idx ^ (1 << edge)])


def test_torus_marginal_matches_rectangle():
    torus = TorusSpec(3)
    table = torus_lr_table(torus)
    p_cross = (expectation(table) + 1.0) / 2.0
    assert p_cross == pytest.approx(float(crossing_probability_exact(torus.rectangle())), abs=1e-12)


def test_torus_all_open_crosses():
    torus = TorusSpec(3)
    open_matrix = np.ones((1, torus.edge_count), dtype=bool)
    assert torus_lr_values(torus, open_matrix)[0] == 1.0


def test_torus_guard():
    with pytest.raises(GuardError):
        torus_lr_table(TorusSpec(4))


def test_averaged_table_translation_invariant():
    torus = TorusSpec(3)
    averaged = averaged_lr_table(torus)
    assert is_invariant(averaged, torus.translation_group())


def test_averaged_clue_bound_examples():
    torus = TorusSpec(3)
    empty = averaged_crossing_clue_bound(torus, 0)
    assert empty.clue == 0.0 and empty.bound == 0.0 and empty.holds

    single = averaged_crossing_clue_bound(torus, 1 << torus.h_edge(1, 1))
    assert single.bound == pytest.approx(2 / 9)
    assert single.holds

    orbit = subset_orbit_union(1 << torus.h_edge(0, 0), torus.translation_group(), 18)
    report = averaged_crossing_clue_bound(torus, orbit)
    assert report.bound == pytest.approx(2.0)  # vacuous but reported
    assert report.clue <= 1.0
    assert report.holds


def test_averaged_clue_matches_direct_computation():
    torus = TorusSpec(3)
    averaged = averaged_lr_table(torus)
    mask = (1 << torus.h_edge(0, 0)) | (1 << torus.v_edge(1, 0))
    report = averaged_crossing_clue_bound(torus, mask)
    assert report.clue == pytest.approx(clue(averaged, mask), abs=1e-12)


def test_translate_disagreement_zero_displacements():
    est0 = translate_disagreement(3, (0, 0), 2000, seed=4)
    assert est0.estimate == 0.0
    full = translate_disagreement(3, (3, 0), 2000, seed=4)
    assert full.estimate == 0.0


def test_translate_disagreement_reports_interval():
    est = translate_disagreement(3, (1, 0), 5000, seed=4)
    assert 0.0 <= est.ci_low <= est.estimate <= est.ci_high <= 1.0
    assert est.estimate > 0.0


def test_one_chunk_crossing_mc_is_the_seed_stream():
    # chunk 0 gives edge e the bits of raw words e*w .. e*w+w-1 of the seed's
    # stream 0, w = ceil(samples / 64), least significant bit first
    rect, samples, seed = RectangleSpec(4, 3), 3000, 8
    words = -(-samples // 64)
    raw = generator_for(seed, 0).bit_generator.random_raw(rect.edge_count * words)
    bits = (raw.reshape(rect.edge_count, words, 1) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    open_matrix = bits.reshape(rect.edge_count, -1)[:, :samples].T == 1
    estimate, _ = crossing_probability_mc(rect, samples, seed)
    assert estimate == float(np.mean(crossing_batch(rect, open_matrix)))


def test_averaged_clue_bound_refuses_without_error_bar():
    with pytest.raises(ValueError, match="error bar"):
        averaged_crossing_clue_bound(TorusSpec(4), 0b11, mc_outer=200, mc_inner=4, seed=1)


def _oracle(rect, rows, dual=False):
    return np.array([_scalar_crossing(rect, row, dual) for row in rows], dtype=bool)


def _assert_kernels_match_oracle(rect, rows):
    for dual, batch in ((False, crossing_batch), (True, dual_crossing_batch)):
        got = batch(rect, rows)
        assert got.dtype == bool and got.shape == (len(rows),)
        np.testing.assert_array_equal(got, _oracle(rect, rows, dual))


# the last four have one row of vertices (no vertical edges, no faces) or two
# columns (no interior dual links)
@pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 5), (2, 1), (3, 1), (5, 1), (2, 4)])
def test_kernel_matches_oracle_on_every_configuration(shape):
    rect = RectangleSpec(*shape)
    _assert_kernels_match_oracle(rect, _all_configs(rect.edge_count))


@pytest.mark.parametrize("shape", [(22, 21), (34, 33)])
def test_kernel_matches_oracle_on_large_rectangles(shape):
    rect = RectangleSpec(*shape)
    _assert_kernels_match_oracle(rect, generator_for(11, rect.w).random((60, rect.edge_count)) < 0.5)


@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 128, (1 << 13) + 17])
def test_kernel_across_word_seams(n_rows):
    # 64 rows share a machine word: counts on either side of a word boundary
    rect = RectangleSpec(4, 3)
    _assert_kernels_match_oracle(rect, generator_for(13, 0).random((n_rows, rect.edge_count)) < 0.5)


def test_torus_evaluator_matches_oracle():
    torus = TorusSpec(4)
    digits = generator_for(12, 0).integers(0, 2, (300, torus.edge_count))
    rect_rows = digits.astype(bool)[:, torus.rect_edge_sources()]
    expected = np.where(_oracle(torus.rectangle(), rect_rows), 1.0, -1.0)
    got = torus_lr_values(torus, digits.astype(bool))
    assert got.dtype == np.float64 and set(np.unique(got)) == {-1.0, 1.0}
    np.testing.assert_array_equal(got, expected)
    # the evaluator averages the crossing over the moved copies, row k of a
    # copy reading open_matrix[:, perm]
    rows = digits[:40].astype(bool)
    copies = [np.where(_oracle(torus.rectangle(), rows[:, list(perm)][:, torus.rect_edge_sources()]), 1.0, -1.0)
              for perm in torus.translations()]
    np.testing.assert_array_equal(torus_lr_evaluator(torus)(digits[:40]), np.mean(copies, axis=0))


def test_kernel_does_not_depend_on_layout():
    rect = RectangleSpec(7, 6)
    wide = generator_for(14, 0).random((200, 3 * rect.edge_count)) < 0.5
    every_third = np.arange(0, 3 * rect.edge_count, 3)
    layouts = (np.ascontiguousarray(wide[:, every_third]), np.asfortranarray(wide[:, every_third]),
               wide[:, ::3], wide[:, every_third])
    for batch in (crossing_batch, dual_crossing_batch):
        c_order, *others = (batch(rect, rows) for rows in layouts)
        for got in others:
            assert got.tobytes() == c_order.tobytes()

    torus = TorusSpec(4)
    evaluate = torus_lr_evaluator(torus)
    gathered = wide[:, every_third[:torus.edge_count]].astype(np.uint8)
    c_order = evaluate(np.ascontiguousarray(gathered))
    for digits in (np.asfortranarray(gathered), gathered):
        assert evaluate(digits).tobytes() == c_order.tobytes()


def test_percolation_estimates_are_pinned():
    # values recorded on the stream of 64 fair bits per Philox word: for the
    # same draws the crossings, hence the estimates, must not move
    assert crossing_probability_mc(RectangleSpec(4, 3), 40_000, seed=1) == (0.500775, 0.002499996996873196)
    est = translate_disagreement(3, (1, 0), 20_000, seed=5)
    assert (est.estimate, est.ci_low, est.ci_high) == (0.1041, 0.09994326081979597, 0.10840879891656989)
    report = averaged_crossing_clue_bound(TorusSpec(4), 0b1011, mc_outer=300, mc_inner=8, seed=7)
    assert (report.clue, report.stderr, report.holds) == (0.10130712845955483, 0.03041926010210985, True)
