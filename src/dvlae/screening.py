"""Dataset reduction and novelty scoring over structure fingerprints.

Deduplication keeps the first occurrence (dataset order) of each fingerprint
pattern, optionally merging near-duplicates within a Hamming radius via
greedy leader clustering.  Novelty screening compares per-structure real
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

from .distance import euclidean_cdist, hamming_cdist
from .errors import FormatError, UserInputError
from .fingerprint import DifferenceVector, packed_rows
from .ioutil import atomic_write_text

SCREENING_MODES = ("exact", "hamming", "novelty")
NOVELTY_AGGREGATES = ("min", "mean")


@dataclass(frozen=True)
class ScreeningReport:
    """Outcome of a reduction pass: which ids to keep, and why each removal."""

    kept: tuple[str, ...]
    removed: dict[str, str]     # removed id -> retained representative id
    input_count: int
    mode: str = "exact"

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

    @staticmethod
    def from_json(text: str) -> "ScreeningReport":
        try:
            data = json.loads(text)
            report = ScreeningReport(
                kept=tuple(data["kept"]),
                removed=dict(data["removed"]),
                input_count=int(data["input_count"]),
                mode=data.get("mode", "exact"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"bad screening report JSON: {exc}") from None
        return report


def dedup_exact(fps: Sequence[DifferenceVector]) -> ScreeningReport:
    """Remove structures whose fingerprint bit pattern was seen earlier."""
    kept: list[str] = []
    removed: dict[str, str] = {}
    first_by_key: dict[bytes, str] = {}
    for fp, row in zip(fps, packed_rows(fps)):
        key = row.tobytes()
        if key in first_by_key:
            removed[fp.structure_id] = first_by_key[key]
        else:
            first_by_key[key] = fp.structure_id
            kept.append(fp.structure_id)
    return ScreeningReport(kept=tuple(kept), removed=removed, input_count=len(fps), mode="exact")


def dedup_hamming(fps: Sequence[DifferenceVector], radius: int) -> ScreeningReport:
    """Greedy leader clustering in dataset order.

    A structure is removed iff its Hamming distance to some already-kept
    leader is <= radius (the first such leader becomes its representative).
    Radius 0 reproduces dedup_exact.
    """
    if radius < 0:
        raise UserInputError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        report = dedup_exact(fps)
        return ScreeningReport(
            kept=report.kept, removed=report.removed, input_count=report.input_count,
            mode="hamming:0",
        )
    packed = packed_rows(fps)
    leaders = np.empty_like(packed)     # packed rows of kept[0], kept[1], ...
    kept: list[str] = []
    removed: dict[str, str] = {}
    for i, fp in enumerate(fps):
        near = np.flatnonzero(hamming_cdist(packed[i : i + 1], leaders[: len(kept)])[0] <= radius)
        if near.size:
            removed[fp.structure_id] = kept[near[0]]
        else:
            leaders[len(kept)] = packed[i]
            kept.append(fp.structure_id)
    return ScreeningReport(
        kept=tuple(kept), removed=removed, input_count=len(fps), mode=f"hamming:{radius}"
    )


# ---------------------------------------------------------------------------
# Distance-threshold novelty screening over real descriptor vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoveltyConfig:
    """Accept a candidate when its aggregated distance to the training pool
    exceeds ``threshold``.  ``aggregate`` picks min or mean over the
    candidate's per-training-vector distances."""

    threshold: float
    aggregate: str = "min"

    def __post_init__(self):
        if self.threshold < 0:
            raise UserInputError(f"threshold must be >= 0, got {self.threshold}")
        if self.aggregate not in NOVELTY_AGGREGATES:
            raise UserInputError(
                f"aggregate must be one of {NOVELTY_AGGREGATES}, got {self.aggregate!r}"
            )


@dataclass(frozen=True)
class NoveltyRecord:
    structure_id: str
    min_distance: float
    mean_distance: float
    nearest_id: str | None
    accepted: bool


@dataclass(frozen=True)
class NoveltyResult:
    records: tuple[NoveltyRecord, ...]

    @property
    def accepted_ids(self) -> tuple[str, ...]:
        return tuple(r.structure_id for r in self.records if r.accepted)


def novelty_screen(
    candidate_ids: Sequence[str],
    candidates: np.ndarray,
    training: np.ndarray,
    cfg: NoveltyConfig,
    training_ids: Sequence[str] | None = None,
) -> NoveltyResult:
    """Per candidate: Euclidean distances to every training vector, then the
    min and mean; accepted iff the configured aggregate exceeds the threshold.

    The semantics are the brute-force double loop; with an empty training set
    every candidate is (vacuously) accepted, with a warning.
    """
    candidates = np.asarray(candidates, dtype=float)
    training = np.asarray(training, dtype=float)
    if candidates.ndim != 2:
        raise UserInputError("candidates must be a 2-D array (one row per structure)")
    if len(candidate_ids) != len(candidates):
        raise UserInputError(f"{len(candidate_ids)} ids for {len(candidates)} candidate vectors")
    if training.size == 0:
        warnings.warn("empty training set: accepting every candidate", stacklevel=2)
        records = tuple(
            NoveltyRecord(cid, float("inf"), float("inf"), None, True) for cid in candidate_ids
        )
        return NoveltyResult(records)
    if training.ndim != 2 or training.shape[1] != candidates.shape[1]:
        raise UserInputError(
            f"dimension mismatch: candidates have {candidates.shape[1]} features, "
            f"training has {training.shape[1] if training.ndim == 2 else '?'}"
        )
    d = euclidean_cdist(candidates, training)
    nearest = d.argmin(axis=1)
    dmin = d.min(axis=1)
    dmean = d.mean(axis=1)
    value = dmin if cfg.aggregate == "min" else dmean
    return NoveltyResult(tuple(
        NoveltyRecord(
            structure_id=cid,
            min_distance=float(dmin[i]),
            mean_distance=float(dmean[i]),
            nearest_id=training_ids[nearest[i]] if training_ids is not None else None,
            accepted=bool(value[i] > cfg.threshold),
        )
        for i, cid in enumerate(candidate_ids)
    ))


def novelty_report(result: NoveltyResult) -> ScreeningReport:
    """Recast a novelty screen as a ScreeningReport: accepted candidates are
    kept, rejected ones map to their nearest training structure."""
    kept = result.accepted_ids
    removed = {
        r.structure_id: (r.nearest_id or "") for r in result.records if not r.accepted
    }
    return ScreeningReport(
        kept=kept, removed=removed, input_count=len(result.records), mode="novelty"
    )


# ---------------------------------------------------------------------------
# Out-of-distribution scoring over fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OodScore:
    structure_id: str
    min_hamming: int
    normalized: float       # min_hamming / total bit count, in [0, 1]


def _ood_scores(
    predictions: Sequence[DifferenceVector], training: Sequence[DifferenceVector]
) -> list[OodScore]:
    """Per prediction, in input order: the minimum Hamming distance to the
    training store, normalized by the fingerprint bit length."""
    if not training:
        raise UserInputError("training fingerprint store is empty")
    packed = packed_rows([*predictions, *training])
    n = len(predictions)
    best = hamming_cdist(packed[:n], packed[n:]).min(axis=1)
    return [
        OodScore(structure_id=fp.structure_id, min_hamming=int(b), normalized=int(b) / fp.n_bits)
        for fp, b in zip(predictions, best)
    ]


def ood_score(fp: DifferenceVector, training: Sequence[DifferenceVector]) -> OodScore:
    """Minimum Hamming distance from ``fp`` to the training store, normalized
    by the fingerprint bit length."""
    return _ood_scores([fp], training)[0]


def rank_ood(
    predictions: Sequence[DifferenceVector], training: Sequence[DifferenceVector]
) -> list[OodScore]:
    """Scores for every prediction fingerprint, most novel first (ties keep
    input order)."""
    scores = _ood_scores(predictions, training)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i].min_hamming, i))
    return [scores[i] for i in order]


def write_report(report: ScreeningReport, path: str | Path) -> None:
    atomic_write_text(path, report.to_json())


def write_kept_manifest(report: ScreeningReport, path: str | Path) -> None:
    """Plain-text id list of the kept subset, consumable as a dataset filter."""
    atomic_write_text(path, "".join(f"{i}\n" for i in report.kept))
