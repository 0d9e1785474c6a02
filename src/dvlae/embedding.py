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
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .distance import euclidean_cdist, hamming_cdist
from .errors import FormatError, UserInputError
from .ioutil import atomic_write_text

EMBEDDING_METHODS = ("tsne", "pca")

_PERPLEXITY_TOL = 1e-5
_MAX_BISECTIONS = 100
_PROB_FLOOR = 1e-12


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
        if self.perplexity <= 0 or self.iterations < 1 or self.learning_rate <= 0:
            raise UserInputError("perplexity, iterations and learning rate must be positive")

    def validate_for(self, n_points: int) -> None:
        limit = (n_points - 1) / 3
        if not self.perplexity < limit:
            raise UserInputError(
                f"perplexity must be < (n-1)/3 = {limit:.3f} for {n_points} points, "
                f"got {self.perplexity}"
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
    counts differing positions.
    """
    x = np.asarray(vectors)
    if x.ndim != 2:
        raise UserInputError("vectors must form a 2-D array (one row per point)")
    if metric == "euclidean":
        out = euclidean_cdist(x, x)
    elif metric == "hamming":
        if not np.isin(x, (0, 1)).all():
            raise UserInputError("hamming metric requires 0/1 bit vectors")
        packed = np.packbits(x.astype(bool), axis=1)
        out = hamming_cdist(packed, packed).astype(float)
    else:
        raise UserInputError(f"unknown metric {metric!r}")
    out = (out + out.T) / 2.0
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def pca_project(vectors: np.ndarray, dims: int = 2) -> np.ndarray:
    """Project mean-centered data onto the top principal axes.

    Axes are covariance eigenvectors in descending-eigenvalue order; each
    axis's sign is fixed by making its largest-magnitude loading positive.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2:
        raise UserInputError("vectors must form a 2-D array")
    if len(x) < dims:
        raise UserInputError(f"need at least {dims} points for a {dims}-D projection, got {len(x)}")
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:dims]
    if axes.shape[0] < dims:   # fewer features than dims: pad with zero axes
        axes = np.vstack([axes, np.zeros((dims - axes.shape[0], x.shape[1]))])
    for row in range(dims):
        lead = np.argmax(np.abs(axes[row]))
        if axes[row, lead] < 0:
            axes[row] = -axes[row]
    return centered @ axes.T


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

    for it in range(cfg.iterations):
        diff = y[:, None, :] - y[None, :, :]
        inv_dist = 1.0 / (1.0 + np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(inv_dist, 0.0)
        q = np.maximum(inv_dist / inv_dist.sum(), _PROB_FLOOR)

        kl = float((p * np.log(p / q)).sum())
        kl_trace[it] = kl
        if not np.isfinite(kl):
            raise UserInputError("KL divergence became non-finite during optimization")

        p_eff = p * cfg.exaggeration if it < cfg.switch_iteration else p
        weight = (p_eff - q) * inv_dist
        grad = 4.0 * (np.diag(weight.sum(axis=1)) - weight) @ y

        same_sign = (grad > 0) == (velocity > 0)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        momentum = cfg.momentum_early if it < cfg.switch_iteration else cfg.momentum_late
        velocity = momentum * velocity - cfg.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

    return y, kl_trace


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
        coords = pca_project(np.asarray(vectors, dtype=float), dims=2)
    elif method == "tsne":
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
    text = Path(path).read_text()
    rows = list(csv.reader(io.StringIO(text)))
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
