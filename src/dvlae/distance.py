"""Blocked all-pairs distance kernels, one per metric, and a radius search.

``hamming_cdist`` counts differing bits between rows of bit-packed uint8
fingerprints of two sets: it XORs them and counts bits over 64-bit words.
``hamming_pdist``, the all-pairs matrix of one set (PCA's Gram; t-SNE
takes ``hamming_cdist`` one row block at a time, so that no n x n matrix
exists), takes the product form D = s_i + s_j - 2 (U U^T), with s the row
popcounts and U the bits unpacked to float32, summed over column blocks of
``_GRAM_BLOCK_BYTES`` packed bytes; numpy hands ``u @ u.T`` to BLAS syrk.
The product is exact: every entry and every partial sum is an integer of
magnitude at most 2 * ``_PRODUCT_MAX_BITS`` = 2^24, which float32 holds
exactly, so the result is the XOR kernel's whatever the BLAS summation order
or thread count.  Fingerprints stop at ``fingerprint._MAX_BITS`` = 2^23
bits; wider rows take the XOR kernel.  A query against a store
(``rank_ood``) keeps XOR, which reads 1/32 of the bytes the unpacked floats
would.

``euclidean_cdist`` evaluates sqrt(sum((a - b) ** 2)) per pair in exactly
that order, so its values are bit-identical to the per-pair formula.  The
XOR and Euclidean kernels walk (rows of A) x (rows of B) blocks sized so the
per-block temporary stays within ``_BLOCK_BYTES``; memory is the output plus
that fixed budget, whatever the input sizes.  The budget is a constant: on a
2-core x86-64 host, blocks of 4-16 MB were no faster than 1 MB (16 MB was
slower) and only cost memory.  The product form adds each column block's
product into a float32 n x n Gram matrix, turns that into the distances in
place and casts them to int64 once: 12 n^2 bytes at its peak.

For a search of the first row within a Hamming radius, ``block_popcounts``
gives lower bounds of the distance from popcounts alone, and
``first_within`` compares the candidates left exactly, in chunks within
the same budget.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import UserInputError

_BLOCK_BYTES = 1 << 20

# Contiguous runs of words per row that ``block_popcounts`` counts apart
# (one per word for narrower rows).
_POPCOUNT_BLOCKS = 16

# The product form unpacks this many packed bytes (1,024 bits) of every row
# at a time: 1 KiB of unpacked bytes and 4 KiB of float32 per row.  Each
# block costs passes over the n x n product besides its syrk, so its width
# must not shrink as n grows: from a fixed 1 MB of unpacked floats, n = 4,000
# random 725-byte rows took 6.5 s against 1.2 s at 128 bytes and 7.7 s by
# XOR (one BLAS thread, 2-core x86-64).  On the 1,000 x 725-byte map input,
# 64-256 bytes ran within 10 % of each other.
_GRAM_BLOCK_BYTES = 128
# Widest rows, in bits, the product form is exact for (see above).
_PRODUCT_MAX_BITS = 1 << 23


def _pair_blocks(n_a: int, n_b: int, row_bytes: int) -> Iterator[tuple[slice, slice]]:
    """(rows of A, rows of B) slices whose pairwise temporary, at
    ``row_bytes`` per pair, fits the block budget (one pair at least)."""
    row_bytes = max(row_bytes, 1)
    cols = max(1, min(n_b, _BLOCK_BYTES // row_bytes))
    rows = max(1, _BLOCK_BYTES // (cols * row_bytes))
    for i in range(0, n_a, rows):
        for j in range(0, n_b, cols):
            yield slice(i, i + rows), slice(j, j + cols)


def row_blocks(n_rows: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices of ``n_rows`` rows whose temporary, at ``row_bytes``
    per row, fits the block budget (one row at least)."""
    for rows, _ in _pair_blocks(n_rows, 1, row_bytes):
        yield rows


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise UserInputError("distance kernels take 2-D arrays (one row per point)")
    if a.shape[1] != b.shape[1]:
        raise UserInputError(f"row widths differ: {a.shape[1]} vs {b.shape[1]}")


def hamming_words(rows: np.ndarray) -> np.ndarray:
    """Packed uint8 rows as uint64 words, zero bytes padding each row to a
    whole word (padding adds no differing bits)."""
    width = -(-rows.shape[1] // 8) * 8
    if width == rows.shape[1]:
        return np.ascontiguousarray(rows).view(np.uint64)
    out = np.zeros((len(rows), width), dtype=np.uint8)
    out[:, : rows.shape[1]] = rows
    return out.view(np.uint64)


def hamming_cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Differing bits between every row of ``a`` and every row of ``b``.

    Rows are packed uint8 bit strings of one width whose padding bits are
    zero (as ``np.packbits`` leaves them).  Returns (len(a), len(b)) int64.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    _check_pair(a, b)
    a, b = hamming_words(a), hamming_words(b)
    out = np.empty((len(a), len(b)), dtype=np.int64)
    for ra, rb in _pair_blocks(len(a), len(b), a.shape[1] * a.itemsize):
        diff = np.bitwise_xor(a[ra, None, :], b[None, rb, :])
        out[ra, rb] = np.bitwise_count(diff).sum(axis=2)
    return out


def hamming_pdist(x: np.ndarray) -> np.ndarray:
    """``hamming_cdist(x, x)``, the square (n, n) int64 matrix of one set, as
    s_i + s_j - 2 (U U^T), exactly; rows wider than ``_PRODUCT_MAX_BITS``
    take the XOR kernel.  PCA's Hamming Gram is its one caller."""
    x = np.asarray(x, dtype=np.uint8)
    _check_pair(x, x)
    n, width = x.shape
    if 8 * width > _PRODUCT_MAX_BITS:
        return hamming_cdist(x, x)
    gram = np.zeros((n, n), dtype=np.float32)     # U U^T
    for j in range(0, width, _GRAM_BLOCK_BYTES):
        u = np.unpackbits(x[:, j : j + _GRAM_BLOCK_BYTES], axis=1).astype(np.float32)
        gram += u @ u.T
    s = gram.diagonal().copy()      # each row's popcount
    gram *= np.float32(-2.0)
    gram += s[:, None]
    gram += s
    return gram.astype(np.int64)


def block_popcounts(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(totals, blocks) of ``hamming_words`` rows: each row's popcount
    (int64) and its popcounts over ``_POPCOUNT_BLOCKS`` contiguous runs of
    words, (n, runs) int32.

    |popcount(a) - popcount(b)| <= popcount(a ^ b) on every run, so
    |totals[i] - totals[j]| and sum(|blocks[i] - blocks[j]|), the tighter,
    are lower bounds of the Hamming distance between rows i and j.  Both are
    signed: differences of unsigned popcounts would wrap.
    """
    n, width = words.shape
    runs = min(_POPCOUNT_BLOCKS, width)
    # Distinct run starts: reduceat sums nothing for a repeated start but
    # returns the element there.
    starts = np.arange(runs) * width // runs
    blocks = np.empty((n, runs), dtype=np.int32)
    for rows in row_blocks(n, width):     # one byte of popcount per word
        blocks[rows] = np.add.reduceat(np.bitwise_count(words[rows]), starts, axis=1,
                                       dtype=np.int32)
    return blocks.sum(axis=1), blocks


def first_within(words: np.ndarray, row: int, candidates: np.ndarray, radius: int) -> int:
    """The first of ``candidates`` (row indices of ``hamming_words`` rows)
    within Hamming distance ``radius`` of row ``row``, or -1 if none is.

    Candidates are compared in their order, in chunks whose gathered rows
    fit the block budget, and no chunk after the first hit is read.
    """
    for _, chunk in _pair_blocks(1, len(candidates), words.shape[1] * words.itemsize):
        idx = candidates[chunk]
        diff = words[idx]
        np.bitwise_xor(diff, words[row], out=diff)
        near = np.flatnonzero(np.bitwise_count(diff).sum(axis=1) <= radius)
        if near.size:
            return int(idx[near[0]])
    return -1


def euclidean_cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between every row of ``a`` and every row of
    ``b``: (len(a), len(b)) float64."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_pair(a, b)
    out = np.empty((len(a), len(b)))
    for ra, rb in _pair_blocks(len(a), len(b), a.shape[1] * a.itemsize):
        diff = np.subtract(a[ra, None, :], b[None, rb, :])
        out[ra, rb] = np.sqrt(np.square(diff, out=diff).sum(axis=2))
    return out
