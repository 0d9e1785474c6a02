"""Dataset reduction and novelty scoring over structure fingerprints.

Deduplication keeps the first occurrence (dataset order) of each fingerprint
pattern, optionally merging near-duplicates within a Hamming radius via
greedy leader clustering.  A record is compared bit by bit only with the
leaders that two popcount lower bounds of the distance (whole rows, then
16 runs of words; ``distance.block_popcounts``) leave within the radius,
so the result is that of comparing it with every leader.  Novelty screening compares per-structure real
descriptor vectors against a training pool by minimum Euclidean distance.
Out-of-distribution scoring ranks fingerprints by their minimum Hamming
distance to a training store.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .distance import (
    block_popcounts, euclidean_cdist, first_within, hamming_cdist, hamming_words, row_blocks,
)
from .errors import UserInputError
from .fingerprint import FingerprintSet
from .ioutil import atomic_write_text

SCREENING_MODES = ("exact", "hamming", "novelty")
NOVELTY_AGGREGATES = ("min", "mean")


@dataclass(frozen=True)
class ScreeningReport:
    """Outcome of a reduction pass: which ids to keep, and why each removal."""

    kept: tuple[str, ...]
    removed: dict[str, str]     # removed id -> retained representative id
    input_count: int
    mode: str

    @property
    def output_count(self) -> int:
        return len(self.kept)

    @property
    def reduction_ratio(self) -> float:
        return len(self.removed) / self.input_count if self.input_count else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "input_count": self.input_count,
                "output_count": self.output_count,
                "reduction_ratio": self.reduction_ratio,
                "kept": list(self.kept),
                "removed": self.removed,
            },
            indent=2,
        ) + "\n"


def dedup_exact(fpset: FingerprintSet) -> ScreeningReport:
    """Remove structures whose fingerprint bit pattern was seen earlier."""
    kept: list[str] = []
    removed: dict[str, str] = {}
    first_by_key: dict[bytes, str] = {}
    for ident, row in zip(fpset.ids, fpset.fingerprints):
        key = row.tobytes()
        if key in first_by_key:
            removed[ident] = first_by_key[key]
        else:
            first_by_key[key] = ident
            kept.append(ident)
    return ScreeningReport(kept=tuple(kept), removed=removed, input_count=len(fpset), mode="exact")


def dedup_hamming(fpset: FingerprintSet, radius: int) -> ScreeningReport:
    """Greedy leader clustering in dataset order.

    A structure is removed iff its Hamming distance to some already-kept
    leader is <= radius (the first such leader becomes its representative).
    Radius 0 reproduces dedup_exact.
    """
    if radius < 0:
        raise UserInputError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        report = dedup_exact(fpset)
        return ScreeningReport(
            kept=report.kept, removed=report.removed, input_count=report.input_count,
            mode="hamming:0",
        )
    words = hamming_words(fpset.fingerprints)
    totals, blocks = block_popcounts(words)
    leaders = np.empty(len(fpset), dtype=np.intp)     # record indices of kept[0], kept[1], ...
    kept: list[str] = []
    removed: dict[str, str] = {}
    for i, ident in enumerate(fpset.ids):
        # Drop the leaders whose popcount bounds put them beyond the radius;
        # only the rest are compared bit by bit, still in leader order.
        near = leaders[: len(kept)]
        near = near[np.abs(totals[near] - totals[i]) <= radius]
        near = near[np.abs(blocks[near] - blocks[i]).sum(axis=1) <= radius]
        hit = first_within(words, i, near, radius)
        if hit < 0:
            leaders[len(kept)] = i
            kept.append(ident)
        else:
            removed[ident] = fpset.ids[hit]
    return ScreeningReport(
        kept=tuple(kept), removed=removed, input_count=len(fpset), mode=f"hamming:{radius}"
    )


# ---------------------------------------------------------------------------
# Distance-threshold novelty screening over real descriptor vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoveltyConfig:
    """Accept a candidate when its aggregated distance to the training pool
    exceeds ``threshold``.  ``aggregate`` picks min or mean over the
    candidate's per-training-vector distances."""

    threshold: float = 0.1
    aggregate: str = "min"

    def __post_init__(self):
        if not np.isfinite(self.threshold) or self.threshold < 0:
            raise UserInputError(f"threshold must be finite and >= 0, got {self.threshold}")
        if self.aggregate not in NOVELTY_AGGREGATES:
            raise UserInputError(
                f"aggregate must be one of {NOVELTY_AGGREGATES}, got {self.aggregate!r}"
            )


def novelty_screen(
    candidate_ids: Sequence[str],
    candidates: np.ndarray,
    training: np.ndarray,
    cfg: NoveltyConfig,
    training_ids: Sequence[str],
) -> ScreeningReport:
    """Per candidate: Euclidean distances to every training vector, then the
    configured aggregate (min or mean); a candidate is kept iff it exceeds the
    threshold, and a rejected one maps to its nearest training id.

    The semantics are the brute-force double loop; with an empty training set
    every candidate is (vacuously) kept, with a warning.  The distances are
    reduced a slice of candidates at a time, so memory does not grow with
    the product of the two set sizes.
    """
    candidates = np.asarray(candidates, dtype=float)
    training = np.asarray(training, dtype=float)
    if candidates.ndim != 2:
        raise UserInputError("candidates must be a 2-D array (one row per structure)")
    if len(candidate_ids) != len(candidates):
        raise UserInputError(f"{len(candidate_ids)} ids for {len(candidates)} candidate vectors")
    if training.size == 0:
        warnings.warn("empty training set: accepting every candidate", stacklevel=2)
        return ScreeningReport(kept=tuple(candidate_ids), removed={},
                               input_count=len(candidate_ids), mode="novelty")
    if training.ndim != 2 or training.shape[1] != candidates.shape[1]:
        raise UserInputError(
            f"dimension mismatch: candidates have {candidates.shape[1]} features, "
            f"training has {training.shape[1] if training.ndim == 2 else '?'}"
        )
    if len(training_ids) != len(training):
        raise UserInputError(f"{len(training_ids)} ids for {len(training)} training vectors")
    value = np.empty(len(candidates))
    nearest = np.empty(len(candidates), dtype=np.intp)
    for rows in row_blocks(len(candidates), 8 * len(training)):   # a float64 per training row
        d = euclidean_cdist(candidates[rows], training)
        nearest[rows] = d.argmin(axis=1)
        value[rows] = d.min(axis=1) if cfg.aggregate == "min" else d.mean(axis=1)
    accepted = value > cfg.threshold
    return ScreeningReport(
        kept=tuple(cid for cid, ok in zip(candidate_ids, accepted) if ok),
        removed={cid: training_ids[j]
                 for cid, ok, j in zip(candidate_ids, accepted, nearest) if not ok},
        input_count=len(candidate_ids),
        mode="novelty",
    )


# ---------------------------------------------------------------------------
# Out-of-distribution scoring over fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OodScore:
    structure_id: str
    min_hamming: int
    normalized: float       # min_hamming / total bit count, in [0, 1]


def rank_ood(predictions: FingerprintSet, training: FingerprintSet) -> list[OodScore]:
    """Per prediction, the minimum Hamming distance to the training store,
    normalized by the fingerprint bit length; most novel first (ties keep
    input order).  Predictions are scored a slice at a time, so memory does
    not grow with the product of the two set sizes."""
    if training.spec.checksum != predictions.spec.checksum:
        raise UserInputError(
            "training and prediction fingerprints use different histogram specs "
            f"({training.spec.checksum} vs {predictions.spec.checksum})"
        )
    if not len(training):
        raise UserInputError("training fingerprint file holds no records")
    # Padded to whole words once, so no slice's kernel call copies the store.
    pred = hamming_words(predictions.fingerprints).view(np.uint8)
    store = hamming_words(training.fingerprints).view(np.uint8)
    best = np.empty(len(pred), dtype=np.int64)
    for rows in row_blocks(len(pred), 8 * len(store)):     # an int64 per training row
        best[rows] = hamming_cdist(pred[rows], store).min(axis=1)
    n_bits = predictions.spec.n_bits
    scores = [OodScore(ident, int(b), int(b) / n_bits) for ident, b in zip(predictions.ids, best)]
    return sorted(scores, key=lambda s: -s.min_hamming)


def write_report(report: ScreeningReport, path: str | Path) -> None:
    atomic_write_text(path, report.to_json())


def write_kept_manifest(report: ScreeningReport, path: str | Path) -> None:
    """Plain-text id list of the kept subset, consumable as a dataset filter."""
    atomic_write_text(path, "".join(f"{i}\n" for i in report.kept))
