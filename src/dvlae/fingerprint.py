"""Binary structure fingerprints from histogram-occupancy differences.

Each descriptor column is histogrammed over a structure's atoms; the
occupancy bit pattern (which bins hold at least one value) is XOR-ed against
a reference structure's pattern, and the per-column difference rows are
concatenated into one bit-packed fingerprint.  Bin edges are global over the
run's inputs and serialized so later queries reuse identical binning.

Also provides the naive zero-padded global descriptor (concatenated per-atom
rows padded to the dataset-wide maximum length), kept for comparison because
it separates a primitive cell from its supercells, which the fingerprint
does not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .descriptors import DescriptorMatrix, SymmetryFunctionSet, compute_dataset_descriptors
from .errors import FormatError, UserInputError
from .ioutil import atomic_write_text
from .structures import Dataset, Structure

XOR_MODES = ("occupancy", "count-equality")

_EDGE_PAD_REL = 1e-6
_EDGE_PAD_MIN = 1e-9
_DEGENERATE_HALF_WIDTH = 1e-6


@dataclass(frozen=True)
class HistogramSpec:
    """Shared binning: k uniform bins per (element, descriptor) column.

    ``columns`` fixes the column order of every fingerprint produced under
    this spec; ``edges[c]`` is the (lo, hi) range of column ``c``.  The
    checksum ties fingerprints to the exact spec that produced them.
    """

    bins: int
    columns: tuple[tuple[str, str], ...]
    edges: np.ndarray                      # (n_columns, 2)

    def __post_init__(self):
        edges = np.ascontiguousarray(self.edges, dtype=float).reshape(-1, 2)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "columns", tuple((e, l) for e, l in self.columns))
        if not isinstance(self.bins, (int, np.integer)) or isinstance(self.bins, bool):
            raise UserInputError(f"bin count must be an integer, got {self.bins!r}")
        if self.bins < 1:
            raise UserInputError(f"bin count must be >= 1, got {self.bins}")
        if len(self.columns) != len(edges):
            raise UserInputError("one (lo, hi) pair per column required")
        if not np.all(np.isfinite(edges)) or np.any(edges[:, 0] >= edges[:, 1]):
            raise UserInputError("every column needs finite lo < hi")
        payload = json.dumps(
            [self.bins, list(self.columns), [[lo.hex(), hi.hex()] for lo, hi in edges.tolist()]],
            separators=(",", ":"),
        )
        object.__setattr__(self, "_checksum", hashlib.sha256(payload.encode()).hexdigest()[:16])

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def n_bits(self) -> int:
        return self.bins * self.n_columns

    @property
    def checksum(self) -> str:
        """Digest of (bins, columns, exact edges), computed once per spec."""
        return self._checksum

    def bin_of(self, values: np.ndarray, column) -> np.ndarray:
        """Bin indices of ``values`` in ``column`` (an int), or of the columns
        of a (rows, columns) block in ``column`` (an index array)."""
        lo, hi = self.edges[column].T
        idx = np.floor(self.bins * (np.asarray(values, float) - lo) / (hi - lo)).astype(int)
        return np.clip(idx, 0, self.bins - 1)

    def elements(self) -> tuple[str, ...]:
        seen: list[str] = []
        for e, _ in self.columns:
            if e not in seen:
                seen.append(e)
        return tuple(seen)


def determine_bin_edges(matrices: Sequence[DescriptorMatrix], k: int) -> HistogramSpec:
    """Global per-column ranges over all given matrices, padded so extremes
    fall strictly inside; columns with a single value get a tiny symmetric
    window around it."""
    if k < 1:
        raise UserInputError(f"bin count must be >= 1, got {k}")
    matrices = list(matrices)
    if not matrices:
        raise UserInputError("no descriptor matrices given")
    layout = matrices[0].column_layout()
    for m in matrices[1:]:
        if m.column_layout() != layout:
            raise UserInputError(
                f"descriptor layout of {m.structure_id!r} differs from {matrices[0].structure_id!r}"
            )

    lo, hi = [], []
    for element in matrices[0].blocks:
        blocks = [m.blocks[element] for m in matrices if m.blocks[element].shape[0]]
        if not blocks:
            raise UserInputError(f"no atoms of element {element} anywhere in the inputs")
        lo.append(np.min([b.min(axis=0) for b in blocks], axis=0))
        hi.append(np.max([b.max(axis=0) for b in blocks], axis=0))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    pad = np.where(hi == lo, _DEGENERATE_HALF_WIDTH,
                   np.maximum(_EDGE_PAD_MIN, _EDGE_PAD_REL * (hi - lo)))
    return HistogramSpec(bins=k, columns=layout, edges=np.stack([lo - pad, hi + pad], axis=1))


@dataclass(frozen=True)
class StructureHistogram:
    """Per-column bin counts and occupancy bits for one structure."""

    structure_id: str
    tag: str | None
    spec_checksum: str
    counts: np.ndarray      # (n_columns, bins) int64
    occupancy: np.ndarray   # (n_columns, bins) bool


def build_histograms(d: DescriptorMatrix, spec: HistogramSpec) -> StructureHistogram:
    """Histogram every descriptor column of one structure under ``spec``."""
    if d.column_layout() != spec.columns:
        raise UserInputError(f"descriptor layout of {d.structure_id!r} does not match the histogram spec")
    # Each value's flat (column, bin) index, counted in one pass.
    flat, start = [], 0
    for element, block in d.blocks.items():
        cols = np.arange(start, start + len(d.columns[element]))
        flat.append((spec.bin_of(block, cols) + spec.bins * cols).ravel())
        start += len(cols)
    counts = np.bincount(np.concatenate(flat), minlength=spec.n_bits)
    counts = counts.reshape(spec.n_columns, spec.bins)
    return StructureHistogram(
        structure_id=d.structure_id,
        tag=d.tag,
        spec_checksum=spec.checksum,
        counts=counts,
        occupancy=counts > 0,
    )


@dataclass(frozen=True)
class DifferenceVector:
    """Bit-packed fingerprint: one bit per (column, bin), 1 where the
    structure's histogram differs from the reference's."""

    structure_id: str
    tag: str | None
    reference_id: str
    spec_checksum: str
    n_bits: int
    packed: np.ndarray      # uint8, ceil(n_bits / 8) bytes

    def __post_init__(self):
        packed = np.ascontiguousarray(self.packed, dtype=np.uint8)
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)
        if len(packed) != (self.n_bits + 7) // 8:
            raise UserInputError(f"{len(packed)} packed bytes for {self.n_bits} bits")
        # Zero padding makes every byte-level comparison (dedup keys, packed
        # Hamming distances) agree with the n_bits-long bit string.
        spare = 8 * len(packed) - self.n_bits
        if spare and packed[-1] & ((1 << spare) - 1):
            raise UserInputError(f"nonzero padding bits after bit {self.n_bits}")

    def bits(self) -> np.ndarray:
        """Unpacked bit array of length n_bits (column-major, bin-minor)."""
        return np.unpackbits(self.packed)[: self.n_bits].astype(bool)

    def key(self) -> bytes:
        return self.packed.tobytes()


def pack_bits(bits: np.ndarray, structure_id: str, tag: str | None,
              reference_id: str, spec_checksum: str) -> DifferenceVector:
    bits = np.asarray(bits).astype(np.uint8).ravel()
    return DifferenceVector(
        structure_id=structure_id,
        tag=tag,
        reference_id=reference_id,
        spec_checksum=spec_checksum,
        n_bits=len(bits),
        packed=np.packbits(bits),
    )


def difference_vector(
    cur: StructureHistogram,
    ref: StructureHistogram,
    spec: HistogramSpec,
    mode: str = "occupancy",
) -> DifferenceVector:
    """XOR the two histograms into a fingerprint.

    ``occupancy`` compares which bins are populated at all; ``count-equality``
    flags any bin where the raw counts differ.
    """
    if mode not in XOR_MODES:
        raise UserInputError(f"mode must be one of {XOR_MODES}, got {mode!r}")
    if cur.spec_checksum != spec.checksum or ref.spec_checksum != spec.checksum:
        raise UserInputError("histograms were built under a different histogram spec")
    if mode == "occupancy":
        diff = np.logical_xor(cur.occupancy, ref.occupancy)
    else:
        diff = cur.counts != ref.counts
    return pack_bits(
        diff.ravel(), cur.structure_id, cur.tag, ref.structure_id, spec.checksum
    )


def packed_rows(fps: Sequence[DifferenceVector]) -> np.ndarray:
    """Stack fingerprints of one spec into an (n, n_bytes) uint8 array, the
    input of ``distance.hamming_cdist``.  Mixed specs or bit lengths are
    rejected."""
    checksums = {fp.spec_checksum for fp in fps}
    if len(checksums) > 1:
        raise UserInputError(f"fingerprints mix histogram specs: {sorted(checksums)}")
    lengths = {fp.n_bits for fp in fps}
    if len(lengths) > 1:
        raise UserInputError(f"bit lengths differ: {sorted(lengths)}")
    if not fps:
        return np.zeros((0, 0), dtype=np.uint8)
    return np.vstack([fp.packed for fp in fps])


def hamming_distance(a: DifferenceVector, b: DifferenceVector) -> int:
    """Number of differing bits between two fingerprints of the same spec."""
    rows = packed_rows((a, b))
    return int(np.bitwise_count(np.bitwise_xor(rows[0], rows[1])).sum())


# ---------------------------------------------------------------------------
# Whole-dataset pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FingerprintSet:
    """A batch of fingerprints plus the spec and reference that define them."""

    spec: HistogramSpec
    reference_id: str
    xor_mode: str
    fingerprints: tuple[DifferenceVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "fingerprints", tuple(self.fingerprints))

    def __len__(self) -> int:
        return len(self.fingerprints)

    def ids(self) -> tuple[str, ...]:
        return tuple(fp.structure_id for fp in self.fingerprints)


def select_reference(ds: Dataset) -> Structure:
    """Default reference: the first structure containing every dataset element."""
    want = set(ds.elements)
    for s in ds:
        if want <= set(s.species):
            return s
    raise UserInputError(
        f"no structure contains all elements {sorted(want)}; supply a reference explicitly"
    )


def batch_fingerprints(
    ds: Dataset,
    ref: Structure,
    sfset: SymmetryFunctionSet,
    k: int,
    xor_mode: str = "occupancy",
    spec: HistogramSpec | None = None,
) -> FingerprintSet:
    """Fingerprint every structure of ``ds`` against ``ref``.

    Bin edges are determined over the dataset plus the reference unless a
    previously serialized ``spec`` is supplied (its column layout must match).
    """
    missing = sorted(set(ds.elements) - set(ref.species))
    if missing:
        raise UserInputError(f"reference {ref.id!r} lacks element {missing[0]} present in the dataset")
    matrices = compute_dataset_descriptors(ds.structures, sfset)
    ref_matrix = next(
        (m for m, s in zip(matrices, ds.structures) if s is ref or s.id == ref.id), None
    )
    if ref_matrix is None:
        ref_matrix = compute_dataset_descriptors([ref], sfset)[0]
        pool = matrices + [ref_matrix]
    else:
        pool = matrices
    if spec is None:
        spec = determine_bin_edges(pool, k)
    elif spec.columns != sfset.column_layout():
        raise UserInputError("supplied histogram spec does not match the symmetry-function set")
    ref_hist = build_histograms(ref_matrix, spec)
    fps = [
        difference_vector(build_histograms(m, spec), ref_hist, spec, mode=xor_mode)
        for m in matrices
    ]
    return FingerprintSet(spec=spec, reference_id=ref.id, xor_mode=xor_mode, fingerprints=fps)


# ---------------------------------------------------------------------------
# Flat real-vector representations (baseline and screening plug-in)
# ---------------------------------------------------------------------------

def baseline_padded_descriptor(matrices: Sequence[DescriptorMatrix]) -> np.ndarray:
    """Zero-padded global descriptors: per-atom rows concatenated (element
    order, then atom order) and right-padded with zeros to the longest
    structure.  Returns one row per input matrix."""
    flats = []
    for m in matrices:
        parts = [m.blocks[e].ravel() for e in m.blocks]
        flats.append(np.concatenate(parts) if parts else np.zeros(0))
    width = max((len(f) for f in flats), default=0)
    out = np.zeros((len(flats), width))
    for i, f in enumerate(flats):
        out[i, : len(f)] = f
    return out


def mean_descriptor_vectors(matrices: Sequence[DescriptorMatrix]) -> np.ndarray:
    """Fixed-length per-structure vectors: per-element column means,
    concatenated in element order.  Elements absent from a structure
    contribute zeros."""
    rows = []
    for m in matrices:
        parts = []
        for e in m.blocks:
            block = m.blocks[e]
            parts.append(block.mean(axis=0) if block.shape[0] else np.zeros(block.shape[1]))
        rows.append(np.concatenate(parts) if parts else np.zeros(0))
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = "#dvlae-fingerprints 1"


def _spec_header(spec: HistogramSpec) -> dict:
    return {
        "format": 1,
        "bins": spec.bins,
        "columns": [list(c) for c in spec.columns],
        "edges": spec.edges.tolist(),
        "checksum": spec.checksum,
    }


def spec_to_json(spec: HistogramSpec) -> str:
    return json.dumps(_spec_header(spec), indent=2) + "\n"


def _spec_from_header(head, where: str) -> HistogramSpec:
    """The one parser of a serialized spec (a spec JSON file or a fingerprint
    file header).  A checksum, when present, must match the contents."""
    if not isinstance(head, dict):
        raise FormatError(f"{where}: histogram spec must be a JSON object")
    try:
        spec = HistogramSpec(
            bins=head["bins"],
            columns=tuple((e, l) for e, l in head["columns"]),
            edges=np.array(head["edges"], dtype=float),
        )
    except (KeyError, ValueError, TypeError, UserInputError) as exc:
        raise FormatError(f"{where}: bad histogram spec: {type(exc).__name__}: {exc}") from None
    if head.get("checksum", spec.checksum) != spec.checksum:
        raise FormatError(f"{where}: histogram-spec checksum does not match its contents")
    return spec


def spec_from_json(text: str) -> HistogramSpec:
    try:
        head = json.loads(text)
    except ValueError as exc:
        raise FormatError(f"bad histogram-spec JSON: {exc}") from None
    return _spec_from_header(head, "histogram-spec JSON")


def _check_record_text(value: str, what: str) -> str:
    if "\t" in value or "\n" in value:
        raise UserInputError(f"{what} may not contain tabs or newlines: {value!r}")
    return value


def write_fingerprints(fpset: FingerprintSet, path: str | Path) -> None:
    """Write the fingerprint file: magic line, JSON header, one tab-separated
    record (id, tag, hex bit string) per structure."""
    head = _spec_header(fpset.spec)
    head["reference_id"] = fpset.reference_id
    head["xor_mode"] = fpset.xor_mode
    lines = [_MAGIC, json.dumps(head, separators=(",", ":"))]
    for fp in fpset.fingerprints:
        ident = _check_record_text(fp.structure_id, "structure id")
        tag = _check_record_text(fp.tag or "", "tag")
        lines.append(f"{ident}\t{tag}\t{fp.packed.tobytes().hex()}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def sniff_fingerprint_file(path: str | Path) -> bool:
    try:
        with open(path, "r") as fh:
            return fh.readline().rstrip("\n") == _MAGIC
    except OSError:
        return False


def read_fingerprints(path: str | Path) -> FingerprintSet:
    """Read a fingerprint file back, bit-exactly."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise FormatError(f"{path}: not a fingerprint file (missing magic line)")
    if len(lines) < 2:
        raise FormatError(f"{path}: missing header line")
    try:
        head = json.loads(lines[1])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad header JSON: {exc}") from None
    spec = _spec_from_header(head, f"{path}, line 2")
    if "checksum" not in head:
        raise FormatError(f"{path}, line 2: header has no checksum")
    xor_mode = head.get("xor_mode", "occupancy")
    if xor_mode not in XOR_MODES:
        raise FormatError(f"{path}, line 2: xor_mode must be one of {XOR_MODES}, got {xor_mode!r}")
    reference_id = head.get("reference_id", "")
    if not isinstance(reference_id, str):
        raise FormatError(f"{path}, line 2: reference_id must be a string, got {reference_id!r}")
    n_bits = spec.n_bits
    checksum = spec.checksum
    fps = []
    for ln, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}, line {ln}: expected 3 tab-separated fields")
        ident, tag, hexbits = parts
        try:
            packed = np.frombuffer(bytes.fromhex(hexbits), dtype=np.uint8)
        except ValueError:
            raise FormatError(f"{path}, line {ln}: bad hex bit string") from None
        try:
            fps.append(
                DifferenceVector(
                    structure_id=ident,
                    tag=tag or None,
                    reference_id=reference_id,
                    spec_checksum=checksum,
                    n_bits=n_bits,
                    packed=packed,
                )
            )
        except UserInputError as exc:
            raise FormatError(f"{path}, line {ln}: {exc}") from None
    return FingerprintSet(
        spec=spec, reference_id=reference_id, xor_mode=xor_mode, fingerprints=tuple(fps)
    )
