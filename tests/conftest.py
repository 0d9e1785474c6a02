"""Shared corpus builders for the test suite.

``dyadic_structure`` produces cells and positions whose coordinates are small
dyadic rationals, so supercell replication and neighbor arithmetic are exact
in float64 and physically equivalent structures yield bit-identical
descriptor values.

``fingerprint_set`` builds a ``FingerprintSet`` straight from 0/1 rows, and
``fingerprint_bits`` unpacks one back to them.  ``varied_bit_rows`` draws
0/1 rows that the popcount bounds of the Hamming radius search find hard.  ``naive_hamming``,
``neighbor_entries`` and ``write_vector_csv`` are the oracles and writers the
tests need that the program itself does not.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from dvlae import FingerprintSet, HistogramSpec, Structure


def fingerprint_set(bit_rows, ids=None, spec=None):
    """FingerprintSet of 0/1 rows (one per structure, all of one length),
    under ``spec`` or else a one-column spec with one bin per bit; ids
    default to s0, s1, ..."""
    bits = np.asarray(bit_rows, dtype=np.uint8)
    if spec is None:
        spec = HistogramSpec(bins=bits.shape[1], columns=(("X", "c0"),), edges=[[0.0, 1.0]])
    ids = tuple(ids) if ids is not None else tuple(f"s{i}" for i in range(len(bits)))
    return FingerprintSet(spec=spec, reference_id="ref", xor_mode="occupancy", ids=ids,
                          tags=(None,) * len(ids), fingerprints=np.packbits(bits, axis=1))


def fingerprint_bits(fpset):
    """The (n, n_bits) bool rows of a ``FingerprintSet``."""
    return np.unpackbits(fpset.fingerprints, axis=1, count=fpset.spec.n_bits).view(bool)


def varied_bit_rows(rng, count, n_bits):
    """``count`` 0/1 rows of ``n_bits``: the all-zero row first, then rows of
    every density from none to all bits set, four in ten of them redrawn
    with n_bits // 3 bits set, so that many rows share one popcount."""
    density = rng.choice([0.0, 0.02, 0.1, 0.5, 0.9, 1.0], count)
    rows = (rng.random((count, n_bits)) < density[:, None]).astype(np.uint8)
    for i in np.flatnonzero(rng.random(count) < 0.4):
        rows[i] = 0
        rows[i, rng.choice(n_bits, n_bits // 3, replace=False)] = 1
    rows[0] = 0
    return rows


def naive_hamming(a, b):
    """Differing bits of two packed fingerprint rows, counted unpacked."""
    return int(np.count_nonzero(np.unpackbits(a) != np.unpackbits(b)))


def neighbor_entries(nl, i):
    """(j, shift, distance) triples of center ``i`` of a ``NeighborList``,
    in its order, as plain Python values."""
    return [(int(j), tuple(int(c) for c in s), float(d))
            for j, s, d in zip(nl.indices[i], nl.shifts[i], nl.distances[i])]


def write_vector_csv(ids, tags, vectors, path):
    """The ``id,tag,v0,...`` vector CSV that ``embed --input`` reads."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "tag"] + [f"v{i}" for i in range(vectors.shape[1])])
    for ident, tag, row in zip(ids, tags, vectors):
        writer.writerow([ident, tag or ""] + [repr(float(v)) for v in row])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def random_cell(rng, lo=2.5, hi=4.5, skew=0.4):
    """Random non-degenerate triclinic cell (rows are lattice vectors)."""
    while True:
        cell = np.diag(rng.uniform(lo, hi, 3))
        cell[1, 0] = rng.uniform(-skew, skew)
        cell[2, 0] = rng.uniform(-skew, skew)
        cell[2, 1] = rng.uniform(-skew, skew)
        cell += rng.uniform(-0.05, 0.05, (3, 3))
        if abs(np.linalg.det(cell)) > 1.0:
            return cell


def random_structure(rng, ident, elements=("Fe", "H"), n_atoms=None, unwrapped=False):
    """Generic random periodic structure; positions may lie outside the cell."""
    n = int(n_atoms if n_atoms is not None else rng.integers(2, 7))
    cell = random_cell(rng)
    lo, hi = (-0.5, 1.5) if unwrapped else (0.0, 1.0)
    frac = rng.uniform(lo, hi, (n, 3))
    species = tuple(elements[i] for i in rng.integers(0, len(elements), n))
    return Structure(
        cell=cell, species=species, positions=frac @ cell,
        periodic=(True, True, True), id=ident,
    )


def dyadic_structure(rng, ident, elements=("Fe", "H"), n_atoms=None, grid=8):
    """Random structure on a 1/grid fractional lattice with dyadic cell entries,
    so all geometry arithmetic is exact in float64."""
    n = int(n_atoms if n_atoms is not None else rng.integers(2, 6))
    diag = rng.integers(5, 9, 3) * 0.5          # 2.5 .. 4.0 in steps of 0.5
    cell = np.diag(diag)
    cell[1, 0] = rng.integers(-2, 3) * 0.25
    cell[2, 0] = rng.integers(-2, 3) * 0.25
    cell[2, 1] = rng.integers(-2, 3) * 0.25
    taken = set()
    frac = []
    while len(frac) < n:
        cand = tuple(int(v) for v in rng.integers(0, grid, 3))
        if cand not in taken:
            taken.add(cand)
            frac.append(cand)
    frac = np.array(frac, dtype=float) / grid
    species = tuple(elements[i] for i in rng.integers(0, len(elements), n))
    return Structure(
        cell=cell, species=species, positions=frac @ cell,
        periodic=(True, True, True), id=ident,
    )


def random_rotation(rng):
    """Uniform proper rotation matrix (det +1)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rigid_transform(s: Structure, rotation, translation) -> Structure:
    return Structure(
        cell=s.cell @ rotation.T,
        species=s.species,
        positions=s.positions @ rotation.T + translation,
        periodic=s.periodic,
        id=s.id,
        tag=s.tag,
    )


def permute_atoms(s: Structure, perm) -> Structure:
    perm = np.asarray(perm)
    return Structure(
        cell=s.cell,
        species=tuple(s.species[i] for i in perm),
        positions=s.positions[perm],
        periodic=s.periodic,
        id=s.id,
        tag=s.tag,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
