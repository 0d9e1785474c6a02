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

from .descriptors import (
    DescriptorMatrix,
    SymmetryFunctionSet,
    compute_dataset_descriptors,
    compute_structure_descriptors,
)
from .errors import FormatError, UserInputError
from .ioutil import atomic_write_text, is_one_line, read_input_text
from .structures import Dataset, Structure, check_unique_ids

XOR_MODES = ("occupancy", "count-equality")

_EDGE_PAD_REL = 1e-6
_EDGE_PAD_MIN = 1e-9
_DEGENERATE_HALF_WIDTH = 1e-6
# build_histograms counts each structure into one int64 row of n_bits entries;
# a 64 MiB budget for that row caps a fingerprint at 8,388,608 bits (bins x
# columns), about 1,400x the default grid's 5,800 bits for two elements.
_MAX_BITS = (64 << 20) // 8


def check_bin_count(bins, n_columns: int) -> None:
    """The one rule for a histogram size: an integer ``bins`` >= 1 whose
    ``bins`` x ``n_columns`` fingerprint bits stay within ``_MAX_BITS``."""
    if not isinstance(bins, (int, np.integer)) or isinstance(bins, bool):
        raise UserInputError(f"bins must be an integer, got {bins!r}")
    if bins < 1:
        raise UserInputError(f"bins must be >= 1, got {bins}")
    if bins * n_columns > _MAX_BITS:
        raise UserInputError(
            f"{bins} bins x {n_columns} columns exceeds the cap of {_MAX_BITS} fingerprint bits"
        )


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
        check_bin_count(self.bins, len(self.columns))
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


def determine_bin_edges(matrices: Sequence[DescriptorMatrix], k: int) -> HistogramSpec:
    """Global per-column ranges over all given matrices, padded so extremes
    fall strictly inside; columns with a single value get a tiny symmetric
    window around it."""
    matrices = list(matrices)
    if not matrices:
        raise UserInputError("no descriptor matrices given")
    layout = matrices[0].layout
    for m in matrices[1:]:
        if m.layout != layout:
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


def build_histograms(d: DescriptorMatrix, spec: HistogramSpec) -> np.ndarray:
    """Bin counts of every descriptor column of one structure under
    ``spec``: an (n_columns, bins) int64 array."""
    if d.layout != spec.columns:
        raise UserInputError(f"descriptor layout of {d.structure_id!r} does not match the histogram spec")
    # Each value's flat (column, bin) index, counted in one pass.
    flat, start = [], 0
    for block in d.blocks.values():
        cols = np.arange(start, start + block.shape[1])
        flat.append((spec.bin_of(block, cols) + spec.bins * cols).ravel())
        start += len(cols)
    counts = np.bincount(np.concatenate(flat), minlength=spec.n_bits)
    return counts.reshape(spec.n_columns, spec.bins)


def difference_vector(cur: np.ndarray, ref: np.ndarray, mode: str = "occupancy") -> np.ndarray:
    """XOR two structures' bin counts into fingerprint bits: one bool per
    (column, bin), column-major, bin-minor.

    ``occupancy`` compares which bins are populated at all; ``count-equality``
    flags any bin where the raw counts differ.
    """
    if mode not in XOR_MODES:
        raise UserInputError(f"mode must be one of {XOR_MODES}, got {mode!r}")
    if mode == "occupancy":
        diff = np.logical_xor(cur > 0, ref > 0)
    else:
        diff = cur != ref
    return diff.ravel()


# ---------------------------------------------------------------------------
# Whole-dataset pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FingerprintSet:
    """A batch of fingerprints plus the spec and reference that define them.

    ``fingerprints`` holds one read-only packed uint8 row of
    ceil(n_bits / 8) bytes per structure, the input of
    ``distance.hamming_cdist``.  Zero padding bits make every byte-level
    comparison (dedup keys, packed Hamming distances) agree with the
    n_bits-long bit strings.
    """

    spec: HistogramSpec
    reference_id: str
    xor_mode: str
    ids: tuple[str, ...]
    tags: tuple[str | None, ...]
    fingerprints: np.ndarray    # (n, ceil(n_bits / 8)) uint8

    def __post_init__(self):
        rows = np.ascontiguousarray(self.fingerprints, dtype=np.uint8)
        rows.setflags(write=False)
        object.__setattr__(self, "fingerprints", rows)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "tags", tuple(self.tags))
        n_bits = self.spec.n_bits
        if rows.ndim != 2 or rows.shape[1] != (n_bits + 7) // 8:
            raise UserInputError(f"fingerprint rows of shape {rows.shape} for {n_bits} bits")
        if not len(self.ids) == len(self.tags) == len(rows):
            raise UserInputError(
                f"{len(self.ids)} ids and {len(self.tags)} tags for {len(rows)} fingerprints"
            )
        check_unique_ids(self.ids, "fingerprint set")
        spare = 8 * rows.shape[1] - n_bits
        if spare and (rows[:, -1] & ((1 << spare) - 1)).any():
            raise UserInputError(f"nonzero padding bits after bit {n_bits}")

    def __len__(self) -> int:
        return len(self.ids)


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
    if spec is None:
        check_bin_count(k, len(sfset.layout))
    matrices = compute_dataset_descriptors(ds.structures, sfset)
    ref_matrix = next(
        (m for m, s in zip(matrices, ds.structures) if s is ref or s.id == ref.id), None
    )
    if ref_matrix is None:
        ref_matrix = compute_structure_descriptors(ref, sfset)
        pool = matrices + [ref_matrix]
    else:
        pool = matrices
    if spec is None:
        spec = determine_bin_edges(pool, k)
    elif spec.columns != sfset.layout:
        raise UserInputError("supplied histogram spec does not match the symmetry-function set")
    ref_counts = build_histograms(ref_matrix, spec)
    rows = np.empty((len(matrices), (spec.n_bits + 7) // 8), dtype=np.uint8)
    for row, m in zip(rows, matrices):
        row[:] = np.packbits(difference_vector(build_histograms(m, spec), ref_counts, xor_mode))
    return FingerprintSet(
        spec=spec, reference_id=ref.id, xor_mode=xor_mode,
        ids=tuple(m.structure_id for m in matrices), tags=tuple(m.tag for m in matrices),
        fingerprints=rows,
    )


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
    if "\t" in value or not is_one_line(value):
        raise UserInputError(f"{what} may not contain tabs or line breaks: {value!r}")
    return value


def write_fingerprints(fpset: FingerprintSet, path: str | Path) -> None:
    """Write the fingerprint file: magic line, JSON header, one tab-separated
    record (id, tag, hex bit string) per structure."""
    head = _spec_header(fpset.spec)
    head["reference_id"] = fpset.reference_id
    head["xor_mode"] = fpset.xor_mode
    lines = [_MAGIC, json.dumps(head, separators=(",", ":"))]
    for ident, tag, row in zip(fpset.ids, fpset.tags, fpset.fingerprints):
        ident = _check_record_text(ident, "structure id")
        tag = _check_record_text(tag or "", "tag")
        lines.append(f"{ident}\t{tag}\t{row.tobytes().hex()}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def is_fingerprint_text(text: str) -> bool:
    """Whether ``text`` opens with the fingerprint-file magic line."""
    return text.partition("\n")[0] == _MAGIC


def read_fingerprints(path: str | Path, text: str | None = None) -> FingerprintSet:
    """Read a fingerprint file back, bit-exactly; ``text`` is its contents
    when the caller has already read them."""
    if text is None:
        text = read_input_text(path, "fingerprint file")
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
    n_bytes = (n_bits + 7) // 8
    padding = (1 << (8 * n_bytes - n_bits)) - 1
    ids, tags, rows = [], [], []
    for ln, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}, line {ln}: expected 3 tab-separated fields")
        ident, tag, hexbits = parts
        try:
            row = bytes.fromhex(hexbits)
        except ValueError:
            raise FormatError(f"{path}, line {ln}: bad hex bit string") from None
        if len(row) != n_bytes:
            raise FormatError(f"{path}, line {ln}: {len(row)} packed bytes for {n_bits} bits")
        if row and row[-1] & padding:
            raise FormatError(f"{path}, line {ln}: nonzero padding bits after bit {n_bits}")
        ids.append(ident)
        tags.append(tag or None)
        rows.append(row)
    matrix = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), n_bytes)
    try:
        return FingerprintSet(spec=spec, reference_id=reference_id, xor_mode=xor_mode,
                              ids=ids, tags=tags, fingerprints=matrix)
    except UserInputError as exc:   # a repeated id; the lines above check all else
        raise FormatError(f"{path}: {exc}") from None
