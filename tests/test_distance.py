"""Blocked distance kernels against the per-pair reference formulas."""

import numpy as np
import pytest

import dvlae.distance as dist_mod
from dvlae import UserInputError, euclidean_cdist, hamming_cdist, hamming_distance
from dvlae.fingerprint import packed_rows, pack_bits


def n_blocks(n_a, n_b, row_bytes):
    return len(list(dist_mod._pair_blocks(n_a, n_b, row_bytes)))


@pytest.mark.parametrize("n_bits, n_a, n_b, budget", [
    (37, 40, 30, 256),          # 5-byte rows: blocks split both A and B
    (5803, 20, 200, None),      # 726-byte rows at the real budget: 7 rows per block
    (1, 9, 4, 1),               # one pair per block
])
def test_hamming_cdist_equals_hamming_distance(rng, monkeypatch, n_bits, n_a, n_b, budget):
    if budget is not None:
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", budget)
    fa = [pack_bits(rng.integers(0, 2, n_bits), f"a{i}", None, "r", "c") for i in range(n_a)]
    fb = [pack_bits(rng.integers(0, 2, n_bits), f"b{i}", None, "r", "c") for i in range(n_b)]
    assert n_blocks(n_a, n_b, (n_bits + 7) // 8) >= 2
    got = hamming_cdist(packed_rows(fa), packed_rows(fb))
    want = np.array([[hamming_distance(a, b) for b in fb] for a in fa])
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def old_row_formula(a, b):
    """The per-row loop the kernel replaced: out[i] = sqrt(sum((b - a[i])**2))."""
    return np.vstack([np.sqrt(((b - a[i]) ** 2).sum(axis=1)) for i in range(len(a))])


@pytest.mark.parametrize("dims", [1, 2, 3, 7, 8, 9, 33, 130, 1100])
def test_euclidean_cdist_bit_identical_to_row_formula(rng, dims):
    a = rng.normal(0, rng.uniform(0.1, 50), (70, dims))
    b = np.vstack([rng.normal(0, 3, (60, dims)), a[:5]])
    assert np.array_equal(euclidean_cdist(a, b), old_row_formula(a, b))
    assert np.array_equal(euclidean_cdist(a, a), old_row_formula(a, a))


def test_euclidean_cdist_multi_block_bit_identical(rng, monkeypatch):
    monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 500)
    a, b = rng.normal(0, 1, (23, 12)), rng.normal(0, 1, (17, 12))
    assert n_blocks(23, 17, 96) >= 4
    assert np.array_equal(euclidean_cdist(a, b), old_row_formula(a, b))


def test_empty_operands_give_empty_matrices():
    assert hamming_cdist(np.zeros((0, 3), np.uint8), np.zeros((4, 3), np.uint8)).shape == (0, 4)
    assert euclidean_cdist(np.zeros((2, 5)), np.zeros((0, 5))).shape == (2, 0)
    assert np.array_equal(euclidean_cdist(np.zeros((2, 0)), np.zeros((3, 0))), np.zeros((2, 3)))


def test_width_mismatch_rejected():
    with pytest.raises(UserInputError, match="widths"):
        hamming_cdist(np.zeros((2, 3), np.uint8), np.zeros((2, 4), np.uint8))
    with pytest.raises(UserInputError, match="2-D"):
        euclidean_cdist(np.zeros(3), np.zeros((2, 3)))
