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
import mmap
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import parallel
from .distance import _BLOCK_BYTES, euclidean_cdist, hamming_pdist, row_blocks
from .errors import FormatError, UserInputError
from .ioutil import atomic_write_text, read_input_text

EMBEDDING_METHODS = ("tsne", "pca")

_PERPLEXITY_TOL = 1e-5
_MAX_BISECTIONS = 100
_PROB_FLOOR = 1e-12
# Exact t-SNE holds 3 n x n float64 arrays live at its peak: while P is
# built, the distances, the calibration's shared map and ``cond + cond.T``;
# in the loop, P and its buffers ``inv`` and ``w`` (the distances are freed
# before it).  Peak RSS of `embed` on fingerprints at n = 500, 1000 and 1500
# (x86-64, numpy 2.4, one BLAS thread) has an n^2 term of 3.06 x 8 bytes
# (3.11 x 8 for a process that stops once P is built); plus an 8-byte KL
# entry per iteration.  With 6 arrays counted, a 4 GiB budget allows about
# 9,450 points at 1000 iterations.
_TSNE_BYTES_PER_PAIR = 6 * 8
# PCA's peak is its m x m eigenproblem, m = min(n, d): the Gram or covariance
# matrix, and eigh's copy of it, workspace and eigenvectors.  Peak RSS grew by
# 5.3-5.5 x 8 bytes per added m^2 from m = 500 to 1000 to 1500 for packed
# rows, and by 5.2-5.9 x 8m^2 at m = 500-3000 for packed and float rows
# through both branches (x86-64, numpy 2.4); with 6 arrays counted, 4 GiB
# allows m of about 9,450.
_PCA_BYTES_PER_ELEMENT = 6 * 8
# One budget bounds both methods.
_MEMORY_BUDGET = 4 << 30
# The t-SNE loop hands its elementwise passes to ``parallel.max_workers``
# threads in blocks of this many rows: at n = 1000 on 2 cores, 32-128 rows ran
# equally fast and 16 slower.
_TSNE_BLOCK_ROWS = 64
# Perplexity calibration spreads its rows over the forked workers of
# ``parallel.fork_map`` from this many points on.  Measured in-process,
# start-up included (2 cores, one BLAS thread, median of 15, two runs, four
# Gaussian clusters at perplexity 30): 50 points took 15-16 ms serial and
# 18-20 ms on workers; 75-150 points were either side by up to 9 ms; 200
# points took 54-81 and 49-57 ms, 300 points 107-134 and 79-89 ms, 1000
# points 756 and 344 ms.
_CALIBRATION_POOL_MIN_POINTS = 200
# The t-SNE loop evaluates the KL divergence only on every _KL_EVERY-th
# iteration and on the last: ``embed_vectors`` keeps none of the trace.
_KL_EVERY = 50
# The standard schedule (van der Maaten & Hinton, JMLR 2008): affinities
# exaggerated and momentum low until the switch iteration.
_EXAGGERATION = 12.0
_MOMENTUM_EARLY = 0.5
_MOMENTUM_LATE = 0.8
_SWITCH_ITERATION = 250


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.perplexity) and np.isfinite(self.learning_rate)):
            raise UserInputError("perplexity and learning rate must be finite")
        if self.perplexity <= 0 or self.iterations < 1 or self.learning_rate <= 0:
            raise UserInputError("perplexity, iterations and learning rate must be positive")
        if self.seed < 0:
            raise UserInputError(f"seed must be >= 0, got {self.seed}")

    def validate_for(self, n_points: int) -> None:
        """Reject a run on ``n_points`` points before any n x n array exists."""
        limit = (n_points - 1) / 3
        if not self.perplexity < limit:
            raise UserInputError(
                f"perplexity must be < (n-1)/3 = {limit:.3f} for {n_points} points, "
                f"got {self.perplexity}"
            )
        need = _TSNE_BYTES_PER_PAIR * n_points**2 + 8 * self.iterations
        if need > _MEMORY_BUDGET:
            raise UserInputError(
                f"exact t-SNE of {n_points} points over {self.iterations} iterations needs "
                f"about {need / 2**30:.1f} GiB, over the {_MEMORY_BUDGET >> 30} GiB "
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

    ``euclidean`` expects real row vectors; ``packed-hamming`` expects
    bit-packed 0/1 rows, uint8 with zero padding bits
    (``FingerprintSet.fingerprints``), and counts the differing bits.
    """
    x = _metric_rows(vectors, metric)
    out = euclidean_cdist(x, x) if metric == "euclidean" else hamming_pdist(x).astype(float)
    np.fill_diagonal(out, 0.0)
    return out


def _metric_rows(vectors: np.ndarray, metric: str) -> np.ndarray:
    """``vectors`` as the rows ``metric`` reads: float for ``euclidean``,
    packed uint8 for ``packed-hamming``."""
    x = np.asarray(vectors)
    if x.ndim != 2:
        raise UserInputError("vectors must form a 2-D array (one row per point)")
    if metric == "euclidean":
        return x.astype(float, copy=False)
    if metric != "packed-hamming":
        raise UserInputError(f"unknown metric {metric!r}")
    if x.dtype != np.uint8:
        raise UserInputError(f"packed-hamming metric requires uint8 rows, got {x.dtype}")
    return x


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def pca_project(vectors: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Project mean-centered rows onto their top two principal axes.

    ``metric`` names the rows as ``pairwise_distances`` does: ``euclidean``
    takes real vectors, ``packed-hamming`` bit-packed 0/1 rows, which are
    projected as their unpacked bits without ever being unpacked whole.
    With n rows of d features (8 per packed byte; zero padding bits add
    nothing), PCA solves the smaller eigenproblem: for n <= d the n x n Gram
    matrix X_c X_c^T, whose eigenpairs (lambda, v) give the coordinates
    sqrt(lambda) v; for packed rows that matrix is -1/2 J D J over their
    Hamming matrix D, since squared Euclidean distance between 0/1 rows is
    Hamming distance (classical MDS).  For d < n it is the d x d covariance
    X_c^T X_c, and the coordinates are X_c times its eigenvectors.

    Axes come in descending-eigenvalue order; each axis's sign makes its
    largest-magnitude loading positive.  An axis whose eigenvalue is at most
    max(n, d) * eps * lambda_1 (numpy's ``matrix_rank`` tolerance) holds only
    roundoff and gets zero coordinates, as does an axis beyond the d-th.
    ``vectors`` is not modified.
    """
    x = _metric_rows(vectors, metric)
    packed = metric == "packed-hamming"
    n, d = x.shape[0], x.shape[1] * (8 if packed else 1)
    if n < 2:
        raise UserInputError(f"need at least 2 points for a 2-D projection, got {n}")
    check_pca_memory(n, d)
    if n <= d:
        lam, vec = _top_eigenpairs(_hamming_gram(x) if packed else _gram(x))
        coords = vec * np.sqrt(np.maximum(lam, 0.0))
        lead = _lead_loadings(x, packed, vec)
    else:
        mean = sum(block.sum(axis=0) for _, block in _row_blocks(x, packed, 0.0)) / n
        cov = np.zeros((d, d))
        for _, block in _row_blocks(x, packed, mean):
            cov += block.T @ block
        lam, axes = _top_eigenpairs(cov)
        del cov
        coords = np.empty((n, 2))
        for rows, block in _row_blocks(x, packed, mean):
            coords[rows] = block @ axes
        lead = axes[np.abs(axes).argmax(axis=0), np.arange(2)]
    coords[:, lam <= max(n, d) * np.finfo(float).eps * max(lam[0], 0.0)] = 0.0
    coords[:, lead < 0] *= -1.0
    return coords


def check_pca_memory(n_points: int, n_features: int) -> None:
    """Reject a PCA of ``n_points`` rows of ``n_features`` before its n x n or
    d x d eigenproblem exists."""
    size = min(n_points, n_features)
    need = _PCA_BYTES_PER_ELEMENT * size**2 + 2 * _BLOCK_BYTES
    if need > _MEMORY_BUDGET:
        raise UserInputError(
            f"PCA of {n_points} points with {n_features} features needs about "
            f"{need / 2**30:.1f} GiB for its {size} x {size} eigenproblem, over the "
            f"{_MEMORY_BUDGET >> 30} GiB budget; use fewer points or features"
        )


def _gram(x: np.ndarray) -> np.ndarray:
    """X_c X_c^T of real rows, summed over column blocks."""
    gram = np.zeros((len(x), len(x)))
    for block in _column_blocks(x, packed=False):
        gram += block @ block.T
    return gram


def _hamming_gram(x: np.ndarray) -> np.ndarray:
    """-1/2 J D J over the Hamming matrix D of packed rows: the Gram matrix of
    their centered bits.  With row sums s, 2 n^2 times it is
    -(n^2 D - n s_i - n s_j + sum(s)), exact in int64 (|.| <= 2 n^2 d), so
    the result is exactly symmetric and rounded once."""
    n = len(x)
    g = hamming_pdist(x)
    s = g.sum(axis=1)
    g *= n * n
    g -= n * s[:, None]
    g -= n * s[None, :]
    g += s.sum()
    return g / (-2.0 * n * n)


def _top_eigenpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two largest eigenvalues of a symmetric matrix, descending, and
    their eigenvectors as columns; zero pairs pad a 1 x 1 matrix."""
    lam, vec = np.linalg.eigh(matrix)
    lam, vec = lam[::-1][:2], vec[:, ::-1][:, :2]
    pad = 2 - len(lam)
    return np.pad(lam, (0, pad)), np.pad(vec, ((0, 0), (0, pad)))


def _lead_loadings(x: np.ndarray, packed: bool, vec: np.ndarray) -> np.ndarray:
    """Per column of ``vec``, the largest-magnitude entry (the first of equals)
    of the loadings X_c^T vec, which are found one column block at a time."""
    lead = np.zeros(vec.shape[1])
    for block in _column_blocks(x, packed):
        loadings = block.T @ vec
        best = loadings[np.abs(loadings).argmax(axis=0), np.arange(vec.shape[1])]
        np.copyto(lead, best, where=np.abs(best) > np.abs(lead))
    return lead


def _column_blocks(x: np.ndarray, packed: bool) -> Iterator[np.ndarray]:
    """Mean-centered float column blocks of ``x`` (packed bytes unpacked to
    0/1), each within the distance kernels' block budget."""
    for cols in row_blocks(x.shape[1], 8 * len(x) * (8 if packed else 1)):
        block = (np.unpackbits(x[:, cols], axis=1) if packed else x[:, cols]).astype(float)
        block -= block.mean(axis=0)
        yield block


def _row_blocks(x: np.ndarray, packed: bool, mean) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, those rows as floats minus ``mean``) over row blocks of ``x``
    (packed bytes unpacked to 0/1), each within the block budget."""
    for rows in row_blocks(len(x), 8 * x.shape[1] * (8 if packed else 1)):
        block = np.unpackbits(x[rows], axis=1) if packed else x[rows]
        yield rows, block - mean


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
    # In memory shared with forked workers, which write their rows into it
    # directly, so that no row is pickled; each row has one writer.
    p = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=float).reshape(n, n)
    # All-zero rows first, in this process, so that their warnings keep their
    # order whether the other rows run here or on workers.  Each row is
    # squared where it is used, so no n x n array of squares exists; the
    # check is on the squares, which are 0 for distances below about 1e-154.
    rows = []
    for i in range(n):
        if (np.delete(d[i], i) ** 2).max() <= 0.0:
            warnings.warn(f"row {i}: all distances zero; using a uniform row", stacklevel=2)
            p[i] = 1.0 / (n - 1)
            p[i, i] = 0.0
        else:
            rows.append(i)

    def calibrate(k):
        i = rows[k]
        # _calibrate_row is looked up at call time, so a patch made before
        # the fork applies in the workers too.
        p_row = _calibrate_row(np.delete(d[i], i) ** 2, perplexity)
        p[i, :i] = p_row[:i]
        p[i, i + 1 :] = p_row[i:]

    parallel.fork_map(calibrate, range(len(rows)), n >= _CALIBRATION_POOL_MIN_POINTS)
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
    joint = cond + cond.T
    joint /= 2.0 * len(cond)
    return np.maximum(joint, _PROB_FLOOR, out=joint)


def tsne_embed(
    distances: np.ndarray, cfg: TsneConfig = TsneConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Exact t-SNE on a precomputed distance matrix.

    Returns (coordinates (n, 2), KL divergence per iteration).  The KL trace
    is computed against the unexaggerated affinities, so it is comparable
    across the whole run.  It is evaluated on every ``_KL_EVERY``-th
    iteration (0, _KL_EVERY, ...) and on the last, and is NaN on the others;
    the coordinates do not depend on ``_KL_EVERY``.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise UserInputError("distance matrix must be square")
    n = len(d)
    cfg.validate_for(n)
    p = joint_probabilities(d, cfg.perplexity)
    # Only P is read from here on.  Dropping these references frees a
    # temporary distance matrix, as ``embed_vectors`` passes, before the loop.
    del d, distances

    rng = np.random.default_rng(cfg.seed)
    y = rng.normal(0.0, 1e-2, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)     # per-coordinate adaptive rates, reference-style
    kl_trace = np.full(cfg.iterations, np.nan)

    # Two n x n buffers, reused every iteration and filled in place, and a
    # row block of scratch per worker.  Each step is the textbook formula with
    # the same operations in the same order, so every value is bit-identical
    # to evaluating it with fresh arrays:
    #   inv = 1 / (1 + |y_i - y_j|^2), zero diagonal
    #   q   = max(inv / sum(inv), floor)               (per row block: scratch)
    #   KL  = sum(p * log(p / q))  (_KL_EVERY-th only) (scratch: w)
    #   w   = (exaggeration * p - q) * inv             (p alone once switched)
    #   grad = 4 * (diag(rowsum(w)) - w) @ y = -4 * (w with diagonal
    #          -(rowsum(w) - w_ii)) @ y                (negating and x4 are exact)
    # The elementwise steps run on row blocks spread over a thread pool (numpy
    # releases the GIL).  Each row is computed and summed whole by one thread,
    # and the two whole-matrix sums and the product with y run on the full
    # buffers, so the result does not depend on the worker count.  q is
    # recomputed in the block that uses it, never stored whole.
    # Imported here: concurrent.futures adds about 7 ms and 0.4 MB to the
    # start-up of every command, and only this loop uses it.
    from concurrent.futures import ThreadPoolExecutor

    inv = np.empty((n, n))
    w = np.empty((n, n))
    blocks = [slice(i, min(i + _TSNE_BLOCK_ROWS, n)) for i in range(0, n, _TSNE_BLOCK_ROWS)]
    workers = parallel.max_workers(len(blocks))
    scratch = np.empty((workers, min(_TSNE_BLOCK_ROWS, n), n))
    # A huge learning rate overflows y to inf and nan; the finiteness check
    # reports that, so numpy's warnings would only print ahead of its error.
    # numpy keeps the error state per thread, so each worker sets it too.
    quiet = dict(over="ignore", invalid="ignore", divide="ignore")
    with ThreadPoolExecutor(max_workers=workers) as pool, np.errstate(**quiet):

        def each_block(step, *args):
            """Run ``step(rows, *args, scratch)`` on every row block, worker k
            taking blocks k, k + workers, ... with its own scratch rows;
            returns once all are done."""
            def work(k):
                with np.errstate(**quiet):
                    for rows in blocks[k::workers]:
                        step(rows, *args, scratch[k, : rows.stop - rows.start])
            for _ in pool.map(work, range(workers)):
                pass

        for it in range(cfg.iterations):
            each_block(_inverse_rows, np.ascontiguousarray(y.T), inv)
            total = inv.sum()
            if it % _KL_EVERY == 0 or it == cfg.iterations - 1:
                each_block(_kl_rows, p, inv, w, total)
                kl_trace[it] = float(w.sum())
                finite = np.isfinite(kl_trace[it])
            else:
                # p is finite, or iteration 0 would have raised.  inv lies in
                # [0, 1], or is NaN where y is not finite, so the KL divergence
                # is finite exactly when total is finite and > 0 (total == 0
                # makes every q 0/0).
                finite = np.isfinite(total) and total > 0.0
            if not finite:
                raise UserInputError("KL divergence became non-finite during optimization")
            early = it < _SWITCH_ITERATION
            each_block(_weight_rows, p, inv, w, total, _EXAGGERATION if early else 1.0)
            grad = (w @ y) * -4.0

            same_sign = (grad > 0) == (velocity > 0)
            gains = np.where(same_sign, gains * 0.8, gains + 0.2)
            np.clip(gains, 0.01, None, out=gains)
            momentum = _MOMENTUM_EARLY if early else _MOMENTUM_LATE
            velocity = momentum * velocity - cfg.learning_rate * gains * grad
            y = y + velocity
            y = y - y.mean(axis=0)

    return y, kl_trace


def _inverse_rows(rows: slice, cols: np.ndarray, inv: np.ndarray, scratch: np.ndarray) -> None:
    """inv[rows] = 1 / (1 + |y_i - y_j|^2) with a zero diagonal; ``cols`` is y
    transposed, the row block ``scratch`` is overwritten."""
    a, b = inv[rows], scratch
    np.subtract(cols[0, rows, None], cols[0], out=a)
    np.multiply(a, a, out=a)
    np.subtract(cols[1, rows, None], cols[1], out=b)
    np.multiply(b, b, out=b)
    np.add(a, b, out=a)
    np.add(a, 1.0, out=a)
    np.divide(1.0, a, out=a)
    np.fill_diagonal(a[:, rows], 0.0)


def _q_rows(rows: slice, inv: np.ndarray, total: float, q: np.ndarray) -> None:
    """The row block q = max(inv[rows] / total, floor)."""
    np.divide(inv[rows], total, out=q)
    np.maximum(q, _PROB_FLOOR, out=q)


def _kl_rows(
    rows: slice, p: np.ndarray, inv: np.ndarray, kl: np.ndarray, total: float, q: np.ndarray
) -> None:
    """kl[rows] = p * log(p / q), with the row block q = max(inv / total, floor)."""
    _q_rows(rows, inv, total, q)
    kb, pb = kl[rows], p[rows]
    np.divide(pb, q, out=kb)
    np.log(kb, out=kb)
    np.multiply(pb, kb, out=kb)


def _weight_rows(
    rows: slice, p: np.ndarray, inv: np.ndarray, w: np.ndarray, total: float,
    exaggeration: float, q: np.ndarray,
) -> None:
    """w[rows] = (exaggeration * p - q) * inv off the diagonal, and
    -(rowsum - w_ii) on it, with the row block q = max(inv / total, floor)."""
    _q_rows(rows, inv, total, q)
    wb = w[rows]
    if exaggeration == 1.0:     # p * 1.0 == p: skip the pass
        np.subtract(p[rows], q, out=wb)
    else:
        np.multiply(p[rows], exaggeration, out=wb)
        np.subtract(wb, q, out=wb)
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
        coords = pca_project(vectors, metric=metric)
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


def read_vectors(path: str | Path, text: str, names: Sequence[str] | None):
    """(ids, tags, an (n, width) float array) of the ``id,tag,...`` CSV
    ``text`` read from ``path``, whose value columns are ``names``, or any
    one or more for None (``id,tag,v0,...``).  Every value must be finite."""
    rows = list(csv.reader(io.StringIO(text)))
    head = rows[0] if rows else []
    if head[:2] != ["id", "tag"] or len(head) < 3 or names is not None and head[2:] != list(names):
        raise FormatError(f"{path}: expected header id,tag,{','.join(names or ('v0', '...'))}")
    width = len(head) - 2
    ids, tags, values = [], [], []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width + 2:
            raise FormatError(f"{path}, line {ln}: expected {width + 2} fields")
        ids.append(row[0])
        tags.append(row[1] or None)
        try:
            values.append([float(v) for v in row[2:]])
        except ValueError:
            raise FormatError(f"{path}, line {ln}: unparsable vector entry") from None
        if not np.all(np.isfinite(values[-1])):
            raise FormatError(f"{path}, line {ln}: non-finite vector entry")
    return ids, tags, np.array(values, dtype=float).reshape(-1, width)


def read_embedding(path: str | Path) -> Embedding:
    """The ``id,tag,x,y`` embedding file at ``path``."""
    ids, tags, coords = read_vectors(path, read_input_text(path, "embedding file"), ("x", "y"))
    return Embedding(ids=tuple(ids), tags=tuple(tags), coords=coords)
