"""Atomic structures: extended-XYZ ingestion, supercells, periodic neighbor lists.

Structures are immutable after construction.  Positions are kept exactly as
read from the source file; wrapping into the cell happens only inside the
neighbor search, so datasets round-trip verbatim.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ParseError, UserInputError


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Structure:
    """One atomic configuration: cell rows (Å), species, Cartesian positions (Å)."""

    cell: np.ndarray                    # (3, 3), rows are lattice vectors
    species: tuple[str, ...]
    positions: np.ndarray               # (n_atoms, 3)
    periodic: tuple[bool, bool, bool] = (False, False, False)
    id: str = ""
    tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "cell", _frozen_array(self.cell).reshape(3, 3))
        object.__setattr__(self, "species", tuple(self.species))
        pos = _frozen_array(self.positions).reshape(-1, 3)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "periodic", tuple(bool(p) for p in self.periodic))
        if len(self.species) != len(pos):
            raise UserInputError(
                f"structure {self.id!r}: {len(self.species)} species for {len(pos)} positions"
            )
        if not (np.all(np.isfinite(self.cell)) and np.all(np.isfinite(pos))):
            raise UserInputError(f"structure {self.id!r}: non-finite cell or position")
        if any(self.periodic) and abs(np.linalg.det(self.cell)) < 1e-12:
            raise UserInputError(f"structure {self.id!r}: degenerate cell with periodic directions")

    @property
    def n_atoms(self) -> int:
        return len(self.species)

    def element_indices(self, element: str) -> np.ndarray:
        return np.array([i for i, s in enumerate(self.species) if s == element], dtype=int)


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of structures plus the ordered set of elements they use."""

    structures: tuple[Structure, ...]
    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "structures", tuple(self.structures))
        seen: set[str] = set()
        for s in self.structures:
            if s.id in seen:
                raise UserInputError(f"duplicate structure id {s.id!r} in dataset")
            seen.add(s.id)
        present = _species_union(self.structures)
        declared = tuple(self.elements)
        if set(declared) != present:
            raise UserInputError(
                f"declared elements {sorted(declared)} do not match dataset species {sorted(present)}"
            )
        object.__setattr__(self, "elements", declared)

    def __len__(self) -> int:
        return len(self.structures)

    def __iter__(self) -> Iterator[Structure]:
        return iter(self.structures)

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.structures)

    def subset(self, keep_ids: Iterable[str]) -> "Dataset":
        """Restrict to the given ids, keeping dataset order and element order."""
        wanted = set(keep_ids)
        missing = wanted - set(self.ids())
        if missing:
            raise UserInputError(f"ids not in dataset: {sorted(missing)}")
        kept = tuple(s for s in self.structures if s.id in wanted)
        elements = tuple(e for e in self.elements if e in _species_union(kept))
        return Dataset(kept, elements)


def _species_union(structures: Sequence[Structure]) -> set[str]:
    out: set[str] = set()
    for s in structures:
        out.update(s.species)
    return out


def make_dataset(structures: Sequence[Structure], elements: Sequence[str] | None = None) -> Dataset:
    """Build a Dataset; element order defaults to first appearance."""
    if elements is None:
        ordered: list[str] = []
        for s in structures:
            for sym in s.species:
                if sym not in ordered:
                    ordered.append(sym)
        elements = ordered
    return Dataset(tuple(structures), tuple(elements))


# ---------------------------------------------------------------------------
# Extended-XYZ parsing
# ---------------------------------------------------------------------------

_KEY_VALUE_RE = re.compile(r'(\S+?)=(?:"([^"]*)"|(\S+))')


def _parse_comment_keys(line: str) -> dict[str, str]:
    out = {}
    for m in _KEY_VALUE_RE.finditer(line):
        out[m.group(1)] = m.group(2) if m.group(2) is not None else m.group(3)
    return out


def _parse_properties(spec: str, frame: int, lineno: int) -> tuple[int, int, int]:
    """Return (species column, first position column, total columns)."""
    fields = spec.split(":")
    if len(fields) % 3 != 0:
        raise ParseError(f"frame {frame}, line {lineno}: bad Properties spec {spec!r}")
    col = 0
    species_col = pos_col = -1
    for name, _kind, width in zip(fields[0::3], fields[1::3], fields[2::3]):
        try:
            width = int(width)
        except ValueError:
            raise ParseError(f"frame {frame}, line {lineno}: bad Properties width in {spec!r}") from None
        if name == "species":
            species_col = col
        elif name == "pos":
            pos_col = col
        col += width
    if species_col < 0 or pos_col < 0:
        raise ParseError(f"frame {frame}, line {lineno}: Properties must include species and pos")
    return species_col, pos_col, col


def parse_extxyz(text: str | TextIO, source: str = "<stream>") -> Dataset:
    """Parse concatenated extended-XYZ frames into a Dataset.

    Frames follow the usual layout: an atom-count line, a comment line with
    ``Lattice="ax ay az bx by bz cx cy cz"`` and ``Properties=...`` key-value
    pairs, then one line per atom.  A missing ``Lattice`` key yields a
    non-periodic structure; with one, every direction is periodic unless a
    ``pbc="T T F"`` key (three T/F flags) says otherwise.  An optional
    ``tag=...`` key is kept as the structure's label; all other comment keys
    are ignored.  Structure ids are ``<source>#<frame_index>``.
    """
    if not isinstance(text, str):
        text = text.read()
    lines = text.splitlines()
    structures: list[Structure] = []
    i = 0
    frame = 0
    while i < len(lines):
        if lines[i].strip() == "" and all(l.strip() == "" for l in lines[i:]):
            break  # trailing blank lines
        try:
            n_atoms = int(lines[i].strip())
        except ValueError:
            raise ParseError(f"frame {frame}, line {i + 1}: malformed atom count {lines[i]!r}") from None
        if n_atoms < 0:
            raise ParseError(f"frame {frame}, line {i + 1}: negative atom count")
        if i + 1 >= len(lines):
            raise ParseError(f"frame {frame}, line {i + 2}: missing comment line")
        keys = _parse_comment_keys(lines[i + 1])

        cell = np.zeros((3, 3))
        periodic = (False, False, False)
        lattice = keys.get("Lattice", keys.get("lattice"))
        if lattice is not None:
            values = lattice.split()
            if len(values) != 9:
                raise ParseError(f"frame {frame}, line {i + 2}: Lattice needs 9 numbers, got {len(values)}")
            try:
                cell = np.array([float(v) for v in values]).reshape(3, 3)
            except ValueError:
                raise ParseError(f"frame {frame}, line {i + 2}: unparsable Lattice value") from None
            periodic = (True, True, True)
        pbc = keys.get("pbc")
        if pbc is not None:
            flags = pbc.split()
            if len(flags) != 3 or not set(flags) <= {"T", "F"} or ("T" in flags and lattice is None):
                raise ParseError(f"frame {frame}, line {i + 2}: pbc must be three T/F flags, "
                                 f"T only with a Lattice; got {pbc!r}")
            periodic = tuple(f == "T" for f in flags)

        props = keys.get("Properties", keys.get("properties", "species:S:1:pos:R:3"))
        species_col, pos_col, n_cols = _parse_properties(props, frame, i + 2)

        body = lines[i + 2 : i + 2 + n_atoms]
        if len(body) < n_atoms or any(b.strip() == "" for b in body):
            raise ParseError(
                f"frame {frame}: expected {n_atoms} atom lines starting at line {i + 3}, "
                f"got {sum(1 for b in body if b.strip())}"
            )
        species = []
        positions = np.empty((n_atoms, 3))
        for row, line in enumerate(body):
            parts = line.split()
            if len(parts) < n_cols:
                raise ParseError(
                    f"frame {frame}, line {i + 3 + row}: expected {n_cols} columns, got {len(parts)}"
                )
            species.append(parts[species_col])
            try:
                positions[row] = [float(parts[pos_col + c]) for c in range(3)]
            except ValueError:
                raise ParseError(f"frame {frame}, line {i + 3 + row}: unparsable coordinate") from None

        structures.append(
            Structure(
                cell=cell,
                species=tuple(species),
                positions=positions,
                periodic=periodic,
                id=f"{source}#{frame}",
                tag=keys.get("tag"),
            )
        )
        i += 2 + n_atoms
        frame += 1
    return make_dataset(structures)


def to_extxyz(structures: Iterable[Structure]) -> str:
    """Serialize structures back to extended-XYZ text (inverse of parse_extxyz)."""
    chunks = []
    for s in structures:
        key_parts = []
        if any(s.periodic):
            lattice = " ".join(repr(float(v)) for v in s.cell.ravel())
            key_parts.append(f'Lattice="{lattice}"')
            if not all(s.periodic):
                key_parts.append('pbc="' + " ".join("T" if p else "F" for p in s.periodic) + '"')
        key_parts.append("Properties=species:S:1:pos:R:3")
        if s.tag is not None:
            key_parts.append(f'tag="{s.tag}"')
        body = "\n".join(
            f"{sym} {repr(float(p[0]))} {repr(float(p[1]))} {repr(float(p[2]))}"
            for sym, p in zip(s.species, s.positions)
        )
        chunks.append(f"{s.n_atoms}\n{' '.join(key_parts)}\n{body}" if s.n_atoms else f"0\n{' '.join(key_parts)}")
    return "\n".join(chunks) + "\n"


def read_manifest(path: str | Path) -> list[Path]:
    """Read a dataset manifest: one structure-file path per line, '#' comments.

    Relative paths are resolved against the manifest's own directory.
    """
    path = Path(path)
    base = path.parent
    files: list[Path] = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        p = Path(line)
        files.append(p if p.is_absolute() else base / p)
    return files


def load_dataset(files: Iterable[str | Path], elements: Sequence[str] | None = None) -> Dataset:
    """Parse several extended-XYZ files into one Dataset (ids keep source paths)."""
    structures: list[Structure] = []
    for f in files:
        f = Path(f)
        if not f.exists():
            raise ParseError(f"structure file not found: {f}")
        ds = parse_extxyz(f.read_text(), source=str(f))
        structures.extend(ds.structures)
    return make_dataset(structures, elements)


# ---------------------------------------------------------------------------
# Supercells
# ---------------------------------------------------------------------------

def build_supercell(s: Structure, reps: tuple[int, int, int]) -> Structure:
    """Replicate a periodic cell ``reps`` times along each lattice vector.

    Atom order in the result is cell-index lexicographic (first index slowest),
    then original atom order within each image cell.
    """
    na, nb, nc = (int(r) for r in reps)
    if min(na, nb, nc) < 1:
        raise UserInputError(f"supercell repetitions must be >= 1, got {reps}")
    for rep, per, axis in zip((na, nb, nc), s.periodic, "abc"):
        if rep > 1 and not per:
            raise UserInputError(f"cannot replicate along non-periodic direction {axis}")
    new_cell = s.cell * np.array([[na], [nb], [nc]], dtype=float)
    blocks = []
    for ia, ib, ic in itertools.product(range(na), range(nb), range(nc)):
        shift = ia * s.cell[0] + ib * s.cell[1] + ic * s.cell[2]
        blocks.append(s.positions + shift)
    return Structure(
        cell=new_cell,
        species=s.species * (na * nb * nc),
        positions=np.vstack(blocks),
        periodic=s.periodic,
        id=f"{s.id}@{na}x{nb}x{nc}",
        tag=s.tag,
    )


# ---------------------------------------------------------------------------
# Neighbor lists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeighborList:
    """Per-center periodic neighbors within a cutoff.

    For center ``i``, ``indices[i]`` / ``shifts[i]`` / ``distances[i]`` /
    ``displacements[i]`` are parallel arrays; entry ``m`` is a neighbor atom
    ``j = indices[i][m]`` seen through integer image shift ``shifts[i][m]``
    (displacement = positions[j] + shift @ cell - positions[i]).  Entries are
    sorted by (distance, j, shift), the canonical order used for
    deterministic descriptor summation.
    """

    cutoff: float
    indices: tuple[np.ndarray, ...]
    shifts: tuple[np.ndarray, ...]
    distances: tuple[np.ndarray, ...]
    displacements: tuple[np.ndarray, ...]

    def n_neighbors(self, i: int) -> int:
        return len(self.indices[i])

    def entries(self, i: int) -> list[tuple[int, tuple[int, int, int], float]]:
        """(j, shift, distance) triples for center i — convenience for tests."""
        return [
            (int(j), tuple(int(c) for c in s), float(d))
            for j, s, d in zip(self.indices[i], self.shifts[i], self.distances[i])
        ]


# Margin absorbing float disagreement between the wrapped candidate search and
# the unwrapped distance that is finally reported and filtered.
_SEARCH_MARGIN = 1e-9

# Size of the (n, n, shifts, 3) candidate displacements built per block of
# image shifts; a block holds at least one shift.
_BLOCK_BYTES = 1 << 22

# Most image shifts one neighbor search may enumerate, about 30 times what a
# 2 Å cell needs at a 12 Å cutoff.  A cell far smaller than the cutoff needs
# millions (a 0.05 Å cell at 6 Å: about 14M), so such a structure is
# rejected before any shift array is allocated.
_MAX_IMAGE_SHIFTS = 100_000


def neighbor_list(s: Structure, r_c: float) -> NeighborList:
    """Enumerate all neighbors (including periodic images) with 0 < R < r_c.

    The image search range is derived from the cell geometry, so cutoffs much
    larger than the cell stay correct.  Reported displacements are computed
    from the original (unwrapped) positions.
    """
    if r_c <= 0:
        raise UserInputError(f"cutoff must be positive, got {r_c}")
    n = s.n_atoms
    pos = s.positions
    per = s.periodic

    if not any(per):
        half = np.zeros(3)
        frac_wrap = np.zeros((n, 3), dtype=int)
        wrapped = pos
        cell = np.eye(3)
    else:
        cell = s.cell
        inv = np.linalg.inv(cell)
        frac = pos @ inv
        frac_wrap = np.where(per, np.floor(frac), 0.0).astype(int)
        wrapped = (frac - frac_wrap) @ cell
        # |frac component of any displacement shorter than r| <= r * ||inv[:, k]||
        reach = np.ceil((r_c + _SEARCH_MARGIN) * np.linalg.norm(inv, axis=0))
        half = np.where(per, reach + 1, 0.0)
    # Counted in floats, before any integer cast can overflow.
    n_shifts = math.prod(2 * half + 1)
    if n_shifts > _MAX_IMAGE_SHIFTS:
        raise UserInputError(
            f"structure {s.id!r}: a {r_c} Å cutoff needs {n_shifts:.0f} periodic images of its "
            f"cell, more than the limit of {_MAX_IMAGE_SHIFTS}; the cell is too small"
        )
    half = half.astype(int)
    shifts = np.indices(2 * half + 1).reshape(3, -1).T - half

    # Candidates: wrapped positions within the cutoff plus margin, found over
    # blocks of shifts so the (n, n, shifts, 3) temporary stays bounded.
    limit2 = (r_c + _SEARCH_MARGIN) ** 2
    per_block = max(1, _BLOCK_BYTES // max(1, 24 * n * n))
    found = []
    for start in range(0, len(shifts), per_block):
        block = shifts[start:start + per_block]
        diff = wrapped[None, :, None, :] + (block @ cell)[None, None] - wrapped[:, None, None, :]
        ii, jj, kk = np.nonzero(np.vecdot(diff, diff) < limit2)
        found.append((ii, jj, block[kk]))
    ii, jj, raw = (np.concatenate(parts) for parts in zip(*found))

    true_shift = raw - frac_wrap[jj] + frac_wrap[ii]
    disp = pos[jj] + true_shift.astype(float) @ s.cell - pos[ii] if any(per) else pos[jj] - pos[ii]
    # vecdot, unlike einsum, matches np.linalg.norm of each row bit for bit.
    dist = np.sqrt(np.vecdot(disp, disp))
    keep = (dist > 0.0) & (dist < r_c)
    ii, jj, true_shift, disp, dist = ii[keep], jj[keep], true_shift[keep], disp[keep], dist[keep]
    order = np.lexsort((true_shift[:, 2], true_shift[:, 1], true_shift[:, 0], jj, dist, ii))
    bounds = np.searchsorted(ii[order], np.arange(1, n))

    def per_center(values: np.ndarray) -> tuple[np.ndarray, ...]:
        values = values[order]
        values.setflags(write=False)
        return tuple(np.split(values, bounds)) if n else ()

    return NeighborList(
        cutoff=float(r_c),
        indices=per_center(jj),
        shifts=per_center(true_shift),
        distances=per_center(dist),
        displacements=per_center(disp),
    )
