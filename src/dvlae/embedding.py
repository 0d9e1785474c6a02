"""2-D diagnostic embeddings: exact t-SNE and PCA.

Both run over either real descriptor vectors (Euclidean) or fingerprint bits
(Hamming).  The t-SNE here is the exact O(n^2) algorithm: Gaussian input
affinities calibrated per point to a target perplexity by binary search,
Student-t output affinities, gradient descent on the KL divergence with
momentum and early exaggeration.  Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .distance import euclidean_cdist, hamming_cdist
from .errors import FormatError, UserInputError
from .ioutil import atomic_write_text, read_input_text

EMBEDDING_METHODS = ("tsne", "pca")

_PERPLEXITY_TOL = 1e-5
_MAX_BISECTIONS = 100
_PROB_FLOOR = 1e-12
# Exact t-SNE keeps about 6 n x n float64 arrays live at once (peak RSS of
# `embed` grew by 5.2-5.4 x 8n^2 bytes at n = 500-1500 on x86-64 with numpy
# 2.4, thread pool included), plus an 8-byte KL entry per iteration.  With 7
# arrays counted, a 4 GiB budget allows about 8,700 points at 1000 iterations.
_TSNE_BYTES_PER_PAIR = 7 * 8
_TSNE_MEMORY_BUDGET = 4 << 30
# The t-SNE loop hands its elementwise passes to one thread per CPU, at most
# _TSNE_MAX_WORKERS (only 2 CPUs were measured), in blocks of this many rows:
# at n = 1000 on 2 cores, 32-128 rows ran equally fast and 16 slower.
_TSNE_BLOCK_ROWS = 64
_TSNE_MAX_WORKERS = 8


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    exaggeration: float = 12.0
    switch_iteration: int = 250     # exaggeration ends / momentum switches here
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.perplexity) and np.isfinite(self.learning_rate)):
            raise UserInputError("perplexity and learning rate must be finite")
        if self.perplexity <= 0 or self.iterations < 1 or self.learning_rate <= 0:
            raise UserInputError("perplexity, iterations and learning rate must be positive")

    def validate_for(self, n_points: int) -> None:
        """Reject a run on ``n_points`` points before any n x n array exists."""
        limit = (n_points - 1) / 3
        if not self.perplexity < limit:
            raise UserInputError(
                f"perplexity must be < (n-1)/3 = {limit:.3f} for {n_points} points, "
                f"got {self.perplexity}"
            )
        need = _TSNE_BYTES_PER_PAIR * n_points**2 + 8 * self.iterations
        if need > _TSNE_MEMORY_BUDGET:
            raise UserInputError(
                f"exact t-SNE of {n_points} points over {self.iterations} iterations needs "
                f"about {need / 2**30:.1f} GiB, over the {_TSNE_MEMORY_BUDGET >> 30} GiB "
                "budget; use --method pca, fewer points or fewer iterations"
            )


@dataclass(frozen=True)
class Embedding:
    """2-D coordinates per structure, with tags carried through for coloring."""

    ids: tuple[str, ...]
    tags: tuple[str | None, ...]
    coords: np.ndarray      # (n, 2)

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=float).reshape(-1, 2)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not (len(self.ids) == len(self.tags) == len(coords)):
            raise UserInputError("ids, tags and coordinates must have equal length")
        if coords.size and not np.all(np.isfinite(coords)):
            raise UserInputError("embedding coordinates must be finite")


def pairwise_distances(vectors: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Symmetric zero-diagonal distance matrix.

    ``euclidean`` expects real row vectors; ``hamming`` expects 0/1 rows and
    counts differing positions; ``packed-hamming`` expects those rows already
    bit-packed, uint8 with zero padding bits (``fingerprint.packed_rows``),
    and gives the same distances from an eighth of the input.
    """
    x = np.asarray(vectors)
    if x.ndim != 2:
        raise UserInputError("vectors must form a 2-D array (one row per point)")
    if metric == "euclidean":
        out = euclidean_cdist(x, x)
    elif metric in ("hamming", "packed-hamming"):
        if metric == "hamming":
            if not np.isin(x, (0, 1)).all():
                raise UserInputError("hamming metric requires 0/1 bit vectors")
            x = np.packbits(x.astype(bool), axis=1)
        elif x.dtype != np.uint8:
            raise UserInputError(f"packed-hamming metric requires uint8 rows, got {x.dtype}")
        out = hamming_cdist(x, x).astype(float)
    else:
        raise UserInputError(f"unknown metric {metric!r}")
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def pca_project(vectors: np.ndarray, dims: int = 2) -> np.ndarray:
    """Project mean-centered data onto the top principal axes.

    Axes are covariance eigenvectors in descending-eigenvalue order; each
    axis's sign is fixed by making its largest-magnitude loading positive.
    ``vectors`` is not modified: one float copy is centered in place.
    """
    x = np.array(vectors, dtype=float)
    if x.ndim != 2:
        raise UserInputError("vectors must form a 2-D array")
    if len(x) < dims:
        raise UserInputError(f"need at least {dims} points for a {dims}-D projection, got {len(x)}")
    x -= x.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    axes = vt[:dims]
    if axes.shape[0] < dims:   # fewer features than dims: pad with zero axes
        axes = np.vstack([axes, np.zeros((dims - axes.shape[0], x.shape[1]))])
    for row in range(dims):
        lead = np.argmax(np.abs(axes[row]))
        if axes[row, lead] < 0:
            axes[row] = -axes[row]
    return x @ axes.T


# ---------------------------------------------------------------------------
# t-SNE
# ---------------------------------------------------------------------------

def perplexity_calibration(distances: np.ndarray, perplexity: float) -> np.ndarray:
    """Conditional probabilities P(j|i) with per-row Gaussian bandwidths tuned
    so each row's Shannon-entropy perplexity matches the target.

    Rows sum to 1 and P(i|i) = 0.  A row whose distances are all zero cannot
    reach any target and becomes uniform, with a warning.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise UserInputError("distance matrix must be square")
    n = len(d)
    if n < 2:
        raise UserInputError("need at least 2 points")
    p = np.zeros((n, n))
    d2 = d ** 2
    for i in range(n):
        row = np.delete(d2[i], i)
        if row.max() <= 0.0:
            warnings.warn(f"row {i}: all distances zero; using a uniform row", stacklevel=2)
            p[i] = 1.0 / (n - 1)
            p[i, i] = 0.0
            continue
        p_row = _calibrate_row(row, perplexity)
        p[i, :i] = p_row[:i]
        p[i, i + 1 :] = p_row[i:]
    return p


def _row_probabilities(sq: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Gaussian row probabilities at precision beta, and their perplexity."""
    w = np.exp(-sq * beta)
    total = w.sum()
    if total <= 0.0:
        return np.zeros_like(sq), 1.0
    prob = w / total
    nz = prob[prob > 0]
    entropy = float(-(nz * np.log(nz)).sum())
    return prob, float(np.exp(entropy))


def _calibrate_row(sq: np.ndarray, target: float) -> np.ndarray:
    beta = 1.0
    beta_lo, beta_hi = -np.inf, np.inf
    prob, perp = _row_probabilities(sq, beta)
    steps = 0
    while abs(perp - target) > _PERPLEXITY_TOL and steps < _MAX_BISECTIONS:
        if perp > target:       # too spread out: sharpen
            beta_lo = beta
            beta = beta * 2.0 if np.isinf(beta_hi) else (beta + beta_hi) / 2.0
        else:
            beta_hi = beta
            beta = beta / 2.0 if np.isinf(beta_lo) else (beta + beta_lo) / 2.0
        prob, perp = _row_probabilities(sq, beta)
        steps += 1
    return prob


def joint_probabilities(distances: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint affinities P = (P(j|i) + P(i|j)) / 2n."""
    cond = perplexity_calibration(distances, perplexity)
    joint = (cond + cond.T) / (2.0 * len(cond))
    return np.maximum(joint, _PROB_FLOOR)


def tsne_embed(
    distances: np.ndarray, cfg: TsneConfig = TsneConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Exact t-SNE on a precomputed distance matrix.

    Returns (coordinates (n, 2), KL divergence per iteration).  The KL trace
    is computed against the unexaggerated affinities, so it is comparable
    across the whole run.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise UserInputError("distance matrix must be square")
    n = len(d)
    cfg.validate_for(n)
    p = joint_probabilities(d, cfg.perplexity)

    rng = np.random.default_rng(cfg.seed)
    y = rng.normal(0.0, 1e-2, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)     # per-coordinate adaptive rates, reference-style
    kl_trace = np.empty(cfg.iterations)

    # Three n x n buffers, reused every iteration and filled in place.  Each
    # step is the textbook formula with the same operations in the same order,
    # so every value is bit-identical to evaluating it with fresh arrays:
    #   inv = 1 / (1 + |y_i - y_j|^2), zero diagonal
    #   q   = max(inv / sum(inv), floor)
    #   KL  = sum(p * log(p / q))                      (scratch: w)
    #   w   = (exaggeration * p - q) * inv             (p alone once switched)
    #   grad = 4 * (diag(rowsum(w)) - w) @ y = -4 * (w with diagonal
    #          -(rowsum(w) - w_ii)) @ y                (negating and x4 are exact)
    # The elementwise steps run on row blocks spread over a thread pool (numpy
    # releases the GIL).  Each row is computed and summed whole by one thread,
    # and the two whole-matrix sums and the product with y run on the full
    # buffers, so the result does not depend on the worker count.
    # Imported here: concurrent.futures adds about 7 ms and 0.4 MB to the
    # start-up of every command, and only this loop uses it.
    from concurrent.futures import ThreadPoolExecutor

    inv = np.empty((n, n))
    q = np.empty((n, n))
    w = np.empty((n, n))
    blocks = [slice(i, min(i + _TSNE_BLOCK_ROWS, n)) for i in range(0, n, _TSNE_BLOCK_ROWS)]
    workers = max(1, min(_cpu_count(), _TSNE_MAX_WORKERS, len(blocks)))
    with ThreadPoolExecutor(max_workers=workers) as pool:

        def each_block(step, *args):
            """Run ``step(rows, *args)`` on every row block, worker k taking
            blocks k, k + workers, ...; returns once all are done."""
            def work(k):
                for rows in blocks[k::workers]:
                    step(rows, *args)
            for _ in pool.map(work, range(workers)):
                pass

        for it in range(cfg.iterations):
            each_block(_inverse_rows, np.ascontiguousarray(y.T), inv, q)
            each_block(_kl_rows, p, inv, q, w, inv.sum())
            kl = float(w.sum())
            kl_trace[it] = kl
            if not np.isfinite(kl):
                raise UserInputError("KL divergence became non-finite during optimization")
            exaggeration = cfg.exaggeration if it < cfg.switch_iteration else 1.0
            each_block(_weight_rows, p, q, inv, w, exaggeration)
            grad = (w @ y) * -4.0

            same_sign = (grad > 0) == (velocity > 0)
            gains = np.where(same_sign, gains * 0.8, gains + 0.2)
            np.clip(gains, 0.01, None, out=gains)
            momentum = cfg.momentum_early if it < cfg.switch_iteration else cfg.momentum_late
            velocity = momentum * velocity - cfg.learning_rate * gains * grad
            y = y + velocity
            y = y - y.mean(axis=0)

    return y, kl_trace


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _inverse_rows(rows: slice, cols: np.ndarray, inv: np.ndarray, scratch: np.ndarray) -> None:
    """inv[rows] = 1 / (1 + |y_i - y_j|^2) with a zero diagonal; ``cols`` is y
    transposed, ``scratch[rows]`` is overwritten."""
    a, b = inv[rows], scratch[rows]
    np.subtract(cols[0, rows, None], cols[0], out=a)
    np.multiply(a, a, out=a)
    np.subtract(cols[1, rows, None], cols[1], out=b)
    np.multiply(b, b, out=b)
    np.add(a, b, out=a)
    np.add(a, 1.0, out=a)
    np.divide(1.0, a, out=a)
    np.fill_diagonal(a[:, rows], 0.0)


def _kl_rows(
    rows: slice, p: np.ndarray, inv: np.ndarray, q: np.ndarray, kl: np.ndarray, total: float
) -> None:
    """q[rows] = max(inv / total, floor) and kl[rows] = p * log(p / q)."""
    qb, kb, pb = q[rows], kl[rows], p[rows]
    np.divide(inv[rows], total, out=qb)
    np.maximum(qb, _PROB_FLOOR, out=qb)
    np.divide(pb, qb, out=kb)
    np.log(kb, out=kb)
    np.multiply(pb, kb, out=kb)


def _weight_rows(
    rows: slice, p: np.ndarray, q: np.ndarray, inv: np.ndarray, w: np.ndarray,
    exaggeration: float,
) -> None:
    """w[rows] = (exaggeration * p - q) * inv off the diagonal, and
    -(rowsum - w_ii) on it."""
    wb = w[rows]
    if exaggeration == 1.0:     # p * 1.0 == p: skip the pass
        np.subtract(p[rows], q[rows], out=wb)
    else:
        np.multiply(p[rows], exaggeration, out=wb)
        np.subtract(wb, q[rows], out=wb)
    np.multiply(wb, inv[rows], out=wb)
    square = wb[:, rows]
    np.fill_diagonal(square, -(wb.sum(axis=1) - square.diagonal()))


def embed_vectors(
    ids: Sequence[str],
    tags: Sequence[str | None],
    vectors: np.ndarray,
    method: str = "tsne",
    metric: str = "euclidean",
    cfg: TsneConfig = TsneConfig(),
) -> Embedding:
    """End-to-end: distance matrix (if needed), reduction, Embedding."""
    if method == "pca":
        coords = pca_project(vectors, dims=2)
    elif method == "tsne":
        cfg.validate_for(len(vectors))
        coords, _ = tsne_embed(pairwise_distances(vectors, metric=metric), cfg)
    else:
        raise UserInputError(f"unknown embedding method {method!r}")
    return Embedding(ids=tuple(ids), tags=tuple(tags), coords=coords)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def embedding_to_csv(emb: Embedding) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "tag", "x", "y"])
    for ident, tag, (x, y) in zip(emb.ids, emb.tags, emb.coords):
        writer.writerow([ident, tag or "", repr(float(x)), repr(float(y))])
    return buf.getvalue()


def write_embedding(emb: Embedding, path: str | Path) -> None:
    atomic_write_text(path, embedding_to_csv(emb))


def read_embedding(path: str | Path) -> Embedding:
    rows = list(csv.reader(io.StringIO(read_input_text(path, "embedding file"))))
    if not rows or rows[0] != ["id", "tag", "x", "y"]:
        raise FormatError(f"{path}: expected header id,tag,x,y")
    ids, tags, coords = [], [], []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise FormatError(f"{path}, line {ln}: expected 4 fields")
        ids.append(row[0])
        tags.append(row[1] or None)
        try:
            coords.append((float(row[2]), float(row[3])))
        except ValueError:
            raise FormatError(f"{path}, line {ln}: unparsable coordinate") from None
    return Embedding(
        ids=tuple(ids), tags=tuple(tags), coords=np.array(coords, dtype=float).reshape(-1, 2)
    )
