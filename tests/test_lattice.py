"""The keep-or-sum-out lattice and the all-subsets routes built on it,
checked on every mask against brute force and the per-mask routes."""
import json

import numpy as np
import pytest

from cluekit import transforms
from cluekit.clue import tv_clue, tv_clue_all_subsets
from cluekit.core import FunctionTable, ProductSpace, uniform_space
from cluekit.errors import DegenerateError
from cluekit.infotheory import (
    kl_clue,
    kl_clue_all_subsets,
    mutual_information,
    mutual_information_all_subsets,
)
from cluekit.transforms import keep_or_sum, kept_sums, subset_mobius, subset_zeta
from conftest import biased_bits


def _space(n, q, seed, zero_atom=False):
    pi = np.random.default_rng(seed).uniform(0.2, 1.0, size=(n, q))
    if zero_atom:
        pi[n // 2, q - 1] = 0.0
    return ProductSpace(n, q, pi / pi.sum(axis=1, keepdims=True))


def _cases():
    rng = np.random.default_rng(81)
    yield "biased-q2-n8", FunctionTable(biased_bits(8, np.linspace(0.2, 0.7, 8)),
                                        (rng.random(256) < 0.4).astype(float))
    yield "q3-n6-zero-atom", FunctionTable(_space(6, 3, 1, zero_atom=True),
                                           rng.integers(0, 2, 3**6).astype(float))
    yield "q4-n5", FunctionTable(_space(5, 4, 2), rng.integers(0, 3, 4**5).astype(float))
    yield "real-4-groups", FunctionTable(_space(7, 2, 3), rng.choice([-1.5, 0.25, 2.0, 7.0], 2**7))
    # every value distinct: single-configuration groups, some of zero weight
    yield "distinct-q3-zero-atom", FunctionTable(_space(5, 3, 4, zero_atom=True),
                                                 rng.standard_normal(3**5))
    # one coordinate: kept_sums folds the lattice's only axis
    yield "dictator-n1", FunctionTable(uniform_space(1), np.array([-1.0, 1.0]))
    yield "q3-n1", FunctionTable(_space(1, 3, 5), np.array([0.0, 2.0, 0.5]))


CASES = dict(_cases())


def _digits(index, base, n):
    return [index // base**v % base for v in range(n)]


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (2, 4), (3, 3), (4, 2)])
def test_lattice_matches_brute_force(q, n):
    values = np.random.default_rng(q * 10 + n).standard_normal((2, q**n))
    configs = [_digits(c, q, n) for c in range(q**n)]
    slots = [_digits(s, q + 1, n) for s in range((q + 1) ** n)]
    for table in (values, values[0]):  # with a leading axis and without
        lattice = keep_or_sum(table, q)
        assert lattice.shape == table.shape[:-1] + ((q + 1) ** n,)
        for s, slot in enumerate(slots):
            members = [c for c, cd in enumerate(configs)
                       if all(d == q or d == x for d, x in zip(slot, cd))]
            np.testing.assert_allclose(lattice[..., s], table[..., members].sum(axis=-1), atol=1e-13)
        by_mask = kept_sums(lattice, q)
        assert by_mask.shape == table.shape[:-1] + (1 << n,)
        for mask in range(1 << n):
            members = [s for s, slot in enumerate(slots)
                       if all((slot[v] < q) == bool(mask >> v & 1) for v in range(n))]
            np.testing.assert_allclose(by_mask[..., mask], lattice[..., members].sum(axis=-1),
                                       atol=1e-13)


def test_lattice_rejects_wrong_lengths():
    with pytest.raises(ValueError):
        keep_or_sum(np.ones(6), 4)
    with pytest.raises(ValueError):
        kept_sums(np.ones(8), 2)


def test_subset_zeta_into_out_matches_a_new_array():
    values = np.random.default_rng(5).standard_normal((16, 3))
    expected = subset_zeta(values)
    np.testing.assert_allclose(expected[0b1010], values[[0, 0b10, 0b1000, 0b1010]].sum(axis=0))
    buffer = np.empty_like(values)
    assert subset_zeta(values, out=buffer) is buffer
    assert buffer.tobytes() == expected.tobytes()
    assert subset_zeta(values, out=values) is values
    assert values.tobytes() == expected.tobytes()
    for bad in (np.empty((16, 6))[:, ::2], np.empty((16, 3), dtype=np.float32), np.empty((8, 3))):
        with pytest.raises(ValueError):
            subset_zeta(expected, out=bad)


def _per_axis_sweep(values: np.ndarray, sign: float) -> np.ndarray:
    """Subset zeta (sign 1) or Moebius (sign -1) one bit at a time over
    rows 2^v times the trailing size wide, however narrow."""
    out = np.array(values, dtype=float)
    for v in range(out.shape[0].bit_length() - 1):
        view = out.reshape(-1, 2, (1 << v) * (out[0].size if out.ndim > 1 else 1))
        view[:, 1, :] += sign * view[:, 0, :]
    return out


@pytest.mark.parametrize("shape", [(1,), (2,), (1 << 9,), (1 << 6, 3), (1 << 5, 2, 2), (8, 16)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_subset_sweeps_give_the_per_axis_bits(shape):
    """Rows narrower than NARROW_ROW go as strided 1-D passes: the same
    additions, so the same bits, in place and with trailing axes."""
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    zeta = _per_axis_sweep(values, 1.0)
    assert subset_zeta(values).tobytes() == zeta.tobytes()
    assert subset_mobius(values).tobytes() == _per_axis_sweep(values, -1.0).tobytes()
    buffer = np.empty(shape)
    assert subset_zeta(values, out=buffer) is buffer and buffer.tobytes() == zeta.tobytes()
    assert subset_zeta(np.asfortranarray(values)).tobytes() == zeta.tobytes()
    assert subset_mobius(np.asfortranarray(values)).tobytes() == _per_axis_sweep(values, -1.0).tobytes()


@pytest.mark.parametrize("name", list(CASES))
def test_mutual_information_lattice_matches_every_mask(name):
    f = CASES[name]
    bulk = mutual_information_all_subsets(f)
    ref = [mutual_information(f, mask) for mask in range(1 << f.n)]
    np.testing.assert_allclose(bulk, ref, rtol=0, atol=1e-13)
    assert np.all(bulk >= 0.0)


@pytest.mark.parametrize("name", list(CASES))
def test_tv_lattice_matches_every_mask(name):
    f = CASES[name]
    bulk = tv_clue_all_subsets(f)
    ref = [tv_clue(f, mask) for mask in range(1 << f.n)]
    np.testing.assert_allclose(bulk, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", list(CASES))
def test_kl_lattice_matches_every_mask_on_nonnegative_tables(name):
    f = CASES[name]
    f = FunctionTable(f.space, f.values - f.values.min())
    bulk = kl_clue_all_subsets(f)
    ref = [kl_clue(f, mask) for mask in range(1 << f.n)]
    np.testing.assert_allclose(bulk, ref, rtol=0, atol=1e-13)


def _lattice_routes(f):
    g = FunctionTable(f.space, f.values - f.values.min())
    return [mutual_information_all_subsets(f), tv_clue_all_subsets(f), kl_clue_all_subsets(g)]


@pytest.mark.parametrize("name", list(CASES))
def test_slab_splits_agree_with_one_slab(name, monkeypatch):
    """Small slabs fix more top coordinates first and regroup the sums; a
    slab of 1 entry keeps or sums out every coordinate in the top rows."""
    f = CASES[name]
    whole = _lattice_routes(f)
    for slab in (1, 3, 9, 27, 64):
        monkeypatch.setattr(transforms, "SLAB", slab)
        for got, expected in zip(_lattice_routes(f), whole):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_information_game_of_16_bits_runs_in_bounded_memory(run_python):
    """Slabs of at most 2^20 lattice entries: the game's top rows (3^4
    rows of 2^12 entries) and 2^16 sums, not two whole lattices of 3^16
    entries (the unsplit route peaked at 694 MB).  The child reads its own
    peak, VmHWM (in kB), after the JSON line."""
    out = run_python("from cluekit.cli import main; main(['game', '--fn', 'tribes:4,4', '--iclue'])\n"
                     "print(next(line.split()[1] for line in open('/proc/self/status') "
                     "if line.startswith('VmHWM:')))")
    assert out.returncode == 0, out.stderr
    payload, peak_kb = out.stdout.splitlines()
    assert len(json.loads(payload)["shapley"]) == 16
    assert int(peak_kb) < 150 * 1024


def test_kl_lattice_refuses_negative_and_constant_tables():
    with pytest.raises(ValueError):
        kl_clue_all_subsets(FunctionTable(uniform_space(2), np.array([-1.0, 0.0, 1.0, 2.0])))
    with pytest.raises(DegenerateError):
        kl_clue_all_subsets(FunctionTable(uniform_space(2), np.full(4, 3.0)))
    with pytest.raises(DegenerateError):
        tv_clue_all_subsets(FunctionTable(uniform_space(2), np.full(4, 3.0)))


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_tv_lattice_survives_large_offset(offset):
    rng = np.random.default_rng(25)
    values = rng.standard_normal(1 << 10)
    base = FunctionTable(uniform_space(10), values)
    shifted = tv_clue_all_subsets(FunctionTable(uniform_space(10), values + offset))
    for mask in (0b111, 0b1010110, (1 << 10) - 1):
        assert shifted[mask] == pytest.approx(tv_clue(base, mask), rel=1e-5)


def test_constant_group_has_zero_information():
    f = FunctionTable(uniform_space(3), np.full(8, 2.0))
    np.testing.assert_array_equal(mutual_information_all_subsets(f), np.zeros(8))

