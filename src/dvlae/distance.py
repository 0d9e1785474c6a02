"""Blocked all-pairs distance kernels, one per metric.

``hamming_cdist`` counts differing bits between rows of bit-packed uint8
fingerprints (XOR, then popcount, over 64-bit words); ``euclidean_cdist``
evaluates sqrt(sum((a - b) ** 2)) per pair in exactly that order, so its
values are bit-identical to the per-pair formula.  Both walk (rows of A) x
(rows of B) blocks sized so the per-block temporary stays within
``_BLOCK_BYTES``; memory is the output plus that fixed budget, whatever the
input sizes.  The budget is a constant: on a 2-core x86-64 host, blocks of
4-16 MB were no faster than 1 MB (16 MB was slower) and only cost memory.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import UserInputError

_BLOCK_BYTES = 1 << 20


def _pair_blocks(n_a: int, n_b: int, row_bytes: int) -> Iterator[tuple[slice, slice]]:
    """(rows of A, rows of B) slices whose pairwise temporary, at
    ``row_bytes`` per pair, fits the block budget (one pair at least)."""
    row_bytes = max(row_bytes, 1)
    cols = max(1, min(n_b, _BLOCK_BYTES // row_bytes))
    rows = max(1, _BLOCK_BYTES // (cols * row_bytes))
    for i in range(0, n_a, rows):
        for j in range(0, n_b, cols):
            yield slice(i, i + rows), slice(j, j + cols)


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise UserInputError("distance kernels take 2-D arrays (one row per point)")
    if a.shape[1] != b.shape[1]:
        raise UserInputError(f"row widths differ: {a.shape[1]} vs {b.shape[1]}")


def _words(rows: np.ndarray) -> np.ndarray:
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
    a, b = _words(a), _words(b)
    out = np.empty((len(a), len(b)), dtype=np.int64)
    for ra, rb in _pair_blocks(len(a), len(b), a.shape[1] * a.itemsize):
        diff = np.bitwise_xor(a[ra, None, :], b[None, rb, :])
        out[ra, rb] = np.bitwise_count(diff).sum(axis=2)
    return out


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
