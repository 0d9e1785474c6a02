"""Deterministic input generators and file helpers for the benchmark.

Everything here depends only on numpy and the documented file formats
(extended XYZ, the fingerprint file), never on dvlae's Python API, so the
inputs a seed produces stay the same while the library is rewritten.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FINGERPRINT_MAGIC = "#dvlae-fingerprints 1"


@dataclass(frozen=True)
class Frame:
    """One periodic cell: rows of ``cell`` are lattice vectors (Å)."""

    cell: np.ndarray
    species: tuple[str, ...]
    positions: np.ndarray
    tag: str | None = None


def to_extxyz(frames) -> str:
    """Extended XYZ text, formatted exactly as ``dvlae.to_extxyz`` writes it."""
    chunks = []
    for f in frames:
        lattice = " ".join(repr(float(v)) for v in np.asarray(f.cell, float).ravel())
        keys = [f'Lattice="{lattice}"', "Properties=species:S:1:pos:R:3"]
        if f.tag is not None:
            keys.append(f'tag="{f.tag}"')
        body = "\n".join(
            f"{sym} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}"
            for sym, p in zip(f.species, np.asarray(f.positions, float))
        )
        chunks.append(f"{len(f.species)}\n{' '.join(keys)}\n{body}")
    return "\n".join(chunks) + "\n"


def demo_frame(rng, tag: str, scale: float) -> Frame:
    """A random Fe/H cell of 3-6 atoms; the same draws as scripts/make_demo_dataset.py,
    so seed 0 with 300 frames per phase and 50 duplicates is the ROADMAP baseline corpus."""
    n = int(rng.integers(3, 7))
    cell = np.diag(rng.uniform(2.8, 4.2, 3)) * scale
    cell[1, 0] = rng.uniform(-0.4, 0.4)
    cell[2, 1] = rng.uniform(-0.4, 0.4)
    frac = rng.uniform(0, 1, (n, 3))
    species = tuple(("Fe", "H")[i] for i in rng.integers(0, 2, n))
    if "Fe" not in species or "H" not in species:
        species = ("Fe", "H") + species[2:]
    return Frame(cell=cell, species=species, positions=frac @ cell, tag=tag)


def demo_corpus(rng, frames_per_phase: int, duplicates: int):
    """Solid frames, then expanded-gas frames, then exact duplicates.

    Returns (frames, dup_of) where ``dup_of[i]`` is the index of the frame
    that duplicate ``i`` copies (possibly itself a duplicate).
    """
    frames = [demo_frame(rng, "solid", 1.0) for _ in range(frames_per_phase)]
    frames += [demo_frame(rng, "gas", 2.2) for _ in range(frames_per_phase)]
    dup_of = {}
    for _ in range(duplicates):
        src = int(rng.integers(0, len(frames)))
        dup_of[len(frames)] = src
        frames.append(frames[src])
    return frames, dup_of


def supercell(f: Frame, reps) -> Frame:
    """Replicate a cell, in the atom order ``dvlae.build_supercell`` uses."""
    na, nb, nc = reps
    blocks = [
        f.positions + (ia * f.cell[0] + ib * f.cell[1] + ic * f.cell[2])
        for ia, ib, ic in itertools.product(range(na), range(nb), range(nc))
    ]
    return Frame(
        cell=f.cell * np.array([[na], [nb], [nc]], dtype=float),
        species=f.species * (na * nb * nc),
        positions=np.vstack(blocks),
        tag=f.tag,
    )


def dense_primitive(rng, tag: str, lattice: float, species, frac) -> Frame:
    """A dense cell near ``lattice`` Å with small seeded strain and jitter.

    Strain stays within 0.2 % and jitter within 0.02 of a lattice vector, so
    the neighbour count per atom (and so the work) barely moves with the seed.
    """
    cell = lattice * (np.eye(3) + rng.uniform(-0.002, 0.002, (3, 3)))
    frac = np.asarray(frac, float) + rng.uniform(-0.02, 0.02, (len(species), 3))
    return Frame(cell=cell, species=tuple(species), positions=frac @ cell, tag=tag)


# ---------------------------------------------------------------------------
# Fingerprint files (documented format: magic line, JSON header, id\ttag\thex)
# ---------------------------------------------------------------------------

@dataclass
class FingerprintFile:
    header_line: str
    n_bits: int
    ids: list[str]
    packed: np.ndarray      # (records, bytes) uint8


def read_fingerprint_file(path: Path) -> FingerprintFile:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != FINGERPRINT_MAGIC or len(lines) < 2:
        raise ValueError(f"{path}: not a fingerprint file")
    head = json.loads(lines[1])
    n_bits = int(head["bins"]) * len(head["columns"])
    ids, rows = [], []
    for line in lines[2:]:
        if not line:
            continue
        ident, _tag, hexbits = line.split("\t")
        ids.append(ident)
        rows.append(bytes.fromhex(hexbits))
    n_bytes = (n_bits + 7) // 8
    packed = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), n_bytes)
    return FingerprintFile(lines[1], n_bits, ids, packed)


def write_fingerprint_file(path: Path, header_line: str, ids, tags, packed: np.ndarray) -> None:
    lines = [FINGERPRINT_MAGIC, header_line]
    lines += [f"{i}\t{t}\t{row.tobytes().hex()}" for i, t, row in zip(ids, tags, packed)]
    Path(path).write_text("\n".join(lines) + "\n")


def flip_bits(row: np.ndarray, positions) -> np.ndarray:
    """Copy of a packed row with the given bit positions (MSB-first, as
    ``np.packbits``) flipped; positions repeat-cancel."""
    out = row.copy()
    for pos in positions:
        out[pos >> 3] ^= np.uint8(0x80 >> (pos & 7))
    return out


def hamming_rows(packed: np.ndarray, row: np.ndarray) -> np.ndarray:
    return np.bitwise_count(np.bitwise_xor(packed, row)).sum(axis=1, dtype=np.int64)


def count_neighbor_pairs(frames, cutoff: float) -> int:
    """Ordered (centre, neighbour image) pairs with 0 < r < cutoff, summed over
    frames; an independent count recorded beside the results."""
    total = 0
    for f in frames:
        cell = np.asarray(f.cell, float)
        inv = np.linalg.inv(cell)
        reach = np.ceil(cutoff * np.linalg.norm(inv, axis=0)).astype(int) + 1
        grids = [np.arange(-r, r + 1) for r in reach]
        shifts = np.array(list(itertools.product(*grids)), dtype=float) @ cell
        pos = np.asarray(f.positions, float)
        frac = pos @ inv
        wrapped = (frac - np.floor(frac)) @ cell
        base = wrapped[None, :, :] - wrapped[:, None, :]
        chunk = max(1, 2**20 // (len(pos) ** 2))     # bounds the temporary array
        for lo in range(0, len(shifts), chunk):
            diff = base[:, :, None, :] + shifts[None, None, lo:lo + chunk, :]
            d2 = np.einsum("ijsk,ijsk->ijs", diff, diff)
            total += int(np.count_nonzero((d2 > 0.0) & (d2 < cutoff * cutoff)))
    return total
