"""Blocked distance kernels against the per-pair reference formulas."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dvlae.distance as dist_mod
import dvlae.embedding as emb_mod
import dvlae.fingerprint as fp_mod
from dvlae import UserInputError, euclidean_cdist, hamming_cdist, hamming_pdist

from conftest import fingerprint_set, naive_hamming, varied_bit_rows

SRC = Path(__file__).resolve().parents[1] / "src"


def n_blocks(n_a, n_b, row_bytes):
    return len(list(dist_mod._pair_blocks(n_a, n_b, row_bytes)))


def word_row_bytes(n_bits):
    """Bytes per row the Hamming kernel works on: whole 64-bit words."""
    return 8 * -(-n_bits // 64)


@pytest.mark.parametrize("n_bits, n_a, n_b, budget", [
    (37, 40, 30, 256),          # 5-byte rows padded to one word: one row of A per block
    (37, 40, 70, 256),          # ... and B split in blocks of 32 rows
    (5803, 20, 200, None),      # 726-byte rows, 91 words, at the real budget: 7 rows per block
    (1, 9, 4, 1),               # one pair per block
    (512, 11, 13, 128),         # 64-byte rows: whole words, no padding
    (5760, 20, 30, 30_000),     # 720-byte rows: whole words, no padding
])
def test_hamming_cdist_equals_naive_hamming(rng, monkeypatch, n_bits, n_a, n_b, budget):
    if budget is not None:
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", budget)
    fa = fingerprint_set(rng.integers(0, 2, (n_a, n_bits))).fingerprints
    fb = fingerprint_set(rng.integers(0, 2, (n_b, n_bits))).fingerprints
    assert n_blocks(n_a, n_b, word_row_bytes(n_bits)) >= 2
    got = hamming_cdist(fa, fb)
    want = np.array([[naive_hamming(a, b) for b in fb] for a in fa])
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_bits", [4, 37, 64, 300, 1000, 5800])    # 1, 1, 1, 5, 16, 91 words
def test_popcount_bounds_never_exceed_naive_hamming(rng, monkeypatch, n_bits):
    monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 256)     # block_popcounts walks row chunks
    rows = fingerprint_set(varied_bit_rows(rng, 40, n_bits)).fingerprints
    words = dist_mod.hamming_words(rows)
    totals, blocks = dist_mod.block_popcounts(words)
    assert blocks.shape == (40, min(16, words.shape[1]))
    zero = np.zeros_like(rows[0])
    assert np.array_equal(totals, [naive_hamming(r, zero) for r in rows])
    assert np.array_equal(blocks.sum(axis=1), totals)      # every word counted once
    for i in range(len(rows)):
        # The differences as dedup_hamming takes them: whole arrays against one row.
        total_bound = np.abs(totals - totals[i])
        block_bound = np.abs(blocks - blocks[i]).sum(axis=1)
        dist = np.array([naive_hamming(rows[i], r) for r in rows])
        assert np.all(total_bound <= block_bound)
        assert np.all(block_bound <= dist)


@pytest.mark.parametrize("budget", [None, 16])      # 16: one 8-byte row per chunk
def test_first_within_returns_the_first_candidate_in_radius(rng, monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", budget)
    rows = fingerprint_set(varied_bit_rows(rng, 30, 37)).fingerprints
    words = dist_mod.hamming_words(rows)
    for radius in (1, 5, 12, 37):
        for row in range(len(rows)):
            candidates = rng.permutation(len(rows))[:20]
            want = next((int(c) for c in candidates
                         if naive_hamming(rows[row], rows[c]) <= radius), -1)
            assert dist_mod.first_within(words, row, candidates, radius) == want
    assert dist_mod.first_within(words, 0, np.array([], dtype=np.intp), 37) == -1


def bit_count_oracle(a, b):
    """Differing bits from the unpacked 0/1 rows."""
    ua, ub = np.unpackbits(a, axis=1), np.unpackbits(b, axis=1)
    return np.array([[np.count_nonzero(x != y) for y in ub] for x in ua])


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 23])
def test_hamming_cdist_non_contiguous_rows(rng, monkeypatch, width):
    monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 64)
    base = rng.integers(0, 256, (30, 2 * width), dtype=np.uint8)
    cases = [
        (base[::3, :width], base[1::2, width:]),                # strided rows, offset columns
        (base[:, ::2], np.asfortranarray(base[:9, 1::2])),      # strided bytes, Fortran order
        (base[::-1, :width], base[:7, :width][:, ::-1]),        # reversed rows and bytes
    ]
    for a, b in cases:
        assert np.array_equal(hamming_cdist(a, b), bit_count_oracle(a, b))


def test_hamming_cdist_zero_width_rows():
    got = hamming_cdist(np.zeros((3, 0), np.uint8), np.zeros((4, 0), np.uint8))
    assert got.dtype == np.int64 and np.array_equal(got, np.zeros((3, 4)))


@pytest.mark.parametrize("dims", [1, 3, 17, 300, 1100])
def test_kernels_exactly_symmetric(rng, dims):
    # pairwise_distances relies on this: it does not symmetrize the matrix
    x = rng.normal(0, rng.uniform(0.1, 50), (60, dims))
    d = euclidean_cdist(x, x)
    assert np.array_equal(d, d.T)
    rows = np.packbits(rng.random((60, dims)) < 0.3, axis=1)
    h = hamming_cdist(rows, rows)
    assert np.array_equal(h, h.T)


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


# ---------------------------------------------------------------------------
# One set's all-pairs matrix: the product form s_i + s_j - 2 U U^T
# ---------------------------------------------------------------------------

def unpacked_oracle(rows):
    """All-pairs differing bits of packed rows, from np.unpackbits and
    integer comparisons alone."""
    u = np.unpackbits(rows, axis=1)
    return (u[:, None, :] != u[None, :, :]).sum(axis=2, dtype=np.int64)


def no_xor(monkeypatch):
    """Make the XOR kernel's word view fail, so a passing call took the product."""
    def fail(rows):
        raise AssertionError("one set went through the XOR kernel")
    monkeypatch.setattr(dist_mod, "hamming_words", fail)


@pytest.mark.parametrize("n_rows, n_bits, gram_bytes, budget", [
    (0, 37, None, None),        # no rows
    (1, 37, None, None),        # one row
    (2, 100, None, None),       # two rows, 13 bytes
    (2, 0, None, None),         # zero-width rows
    (40, 5800, None, None),     # 725-byte rows at the real block sizes: six column blocks
    # 9-byte rows in 5 column blocks (the last of one byte); XOR in 1 x 4 pair blocks
    (25, 70, 2, 64),
    (33, 1043, 16, 512),        # 131-byte rows: 9 column blocks; XOR in 1 x 3 pair blocks
    (17, 8, 1, 68),             # one byte: one column block; XOR in 1 x 8 pair blocks
])
def test_one_set_equals_unpacked_oracle(rng, monkeypatch, n_rows, n_bits, gram_bytes, budget):
    if gram_bytes is not None:
        monkeypatch.setattr(dist_mod, "_GRAM_BLOCK_BYTES", gram_bytes)
    if budget is not None:
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", budget)
    rows = np.packbits(varied_bit_rows(rng, n_rows, n_bits) if n_rows * n_bits
                       else np.zeros((n_rows, n_bits), np.uint8), axis=1)
    want = unpacked_oracle(rows)
    assert np.array_equal(hamming_cdist(rows, rows), want)     # XOR
    no_xor(monkeypatch)
    got = hamming_pdist(rows)
    assert got.dtype == np.int64 and got.shape == (n_rows, n_rows)
    assert np.array_equal(got, want)


def test_one_set_exact_at_the_fingerprint_bit_cap(monkeypatch):
    # Rows of the most bits a fingerprint may have: all ones against all ones
    # sums 2^23 products, and s_i + s_j - 2 G reaches -2^24 on the way to 0.
    n_bits = fp_mod._MAX_BITS
    assert n_bits == 1 << 23 and n_bits <= dist_mod._PRODUCT_MAX_BITS
    width = n_bits // 8
    rows = np.stack([np.full(width, 0xFF, np.uint8), np.full(width, 0xFF, np.uint8),
                     np.zeros(width, np.uint8), np.full(width, 0x55, np.uint8)])
    no_xor(monkeypatch)
    half = n_bits // 2
    assert np.array_equal(hamming_pdist(rows), [[0, 0, n_bits, half],
                                                [0, 0, n_bits, half],
                                                [n_bits, n_bits, 0, half],
                                                [half, half, half, 0]])


def test_one_set_holds_no_extra_square_matrix(rng, monkeypatch):
    # Its peak is the float32 Gram matrix and the int64 result (12 n^2 bytes)
    # plus one unpacked column block (a byte and a float32 per bit): one more
    # n x n float32 temporary (1.44 MB) would break the bound.
    monkeypatch.setattr(dist_mod, "_GRAM_BLOCK_BYTES", 16)
    n = 600
    rows = rng.integers(0, 256, (n, 32), dtype=np.uint8)     # two column blocks
    tracemalloc.start()
    try:
        got = hamming_pdist(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n * n + n * 8 * 16 * (1 + 4)
    assert np.array_equal(got, hamming_cdist(rows, rows))


def test_one_set_checks_its_rows():
    with pytest.raises(UserInputError, match="2-D"):
        hamming_pdist(np.zeros(3, np.uint8))


def test_rows_wider_than_the_exact_bound_take_xor(rng, monkeypatch):
    monkeypatch.setattr(dist_mod, "_PRODUCT_MAX_BITS", 64)
    calls = []
    words = dist_mod.hamming_words
    monkeypatch.setattr(dist_mod, "hamming_words", lambda rows: calls.append(1) or words(rows))
    rows = fingerprint_set(varied_bit_rows(rng, 12, 72)).fingerprints
    assert np.array_equal(hamming_pdist(rows), unpacked_oracle(rows))
    assert calls == [1, 1]


# Runs in a subprocess: the BLAS thread count is read at start-up.  At 1,000
# rows OpenBLAS splits each block's product over 2 threads (it ran 1.5x
# faster on a 2-core host).
THREADS_SCRIPT = """
import hashlib
import numpy as np
from dvlae.embedding import _hamming_gram, pairwise_distances
rows = np.random.default_rng(11).integers(0, 256, (1000, 725), dtype=np.uint8)
for out in (pairwise_distances(rows, "packed-hamming"), _hamming_gram(rows)):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_one_set_bytes_do_not_depend_on_blas_threads(monkeypatch):
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    # ... and they are the XOR kernel's, here with every set taking XOR
    monkeypatch.setattr(dist_mod, "_PRODUCT_MAX_BITS", -1)
    rows = np.random.default_rng(11).integers(0, 256, (1000, 725), dtype=np.uint8)
    xor = "".join(hashlib.sha256(out.tobytes()).hexdigest() + "\n"
                  for out in (emb_mod.pairwise_distances(rows, "packed-hamming"),
                              emb_mod._hamming_gram(rows)))
    assert digests == {xor}
