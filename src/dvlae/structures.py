"""Atomic structures: extended-XYZ ingestion, supercells, periodic neighbor lists.

Structures are immutable after construction.  Positions are kept exactly as
read from the source file; wrapping into the cell happens only inside the
neighbor search, so datasets round-trip verbatim.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, UserInputError
from .ioutil import is_one_line, read_input_text


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


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of structures plus the ordered set of elements they use."""

    structures: tuple[Structure, ...]
    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "structures", tuple(self.structures))
        check_unique_ids((s.id for s in self.structures), "dataset")
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


def check_unique_ids(ids: Iterable[str], where: str) -> None:
    """The one rule for structure ids: none appears twice in ``where``."""
    seen: set[str] = set()
    for ident in ids:
        if ident in seen:
            raise UserInputError(f"duplicate structure id {ident!r} in {where}")
        seen.add(ident)


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


def _parse_comment_keys(line: str, frame: int = 0, lineno: int = 2) -> dict[str, str]:
    """The key=value pairs of a comment line; a quoted value must end at
    whitespace or the end of the line."""
    out = {}
    for m in _KEY_VALUE_RE.finditer(line):
        after = line[m.end():m.end() + 1]
        if m.group(2) is not None and after and not after.isspace():
            raise ParseError(f"frame {frame}, line {lineno}: text after the closing quote "
                             f"of {m.group(1)}")
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


def parse_extxyz(text: str, source: str = "<stream>") -> Dataset:
    """Parse concatenated extended-XYZ frames into a Dataset.

    Frames follow the usual layout: an atom-count line, a comment line with
    ``Lattice="ax ay az bx by bz cx cy cz"`` and ``Properties=...`` key-value
    pairs, then one line per atom.  A missing ``Lattice`` key yields a
    non-periodic structure; with one, every direction is periodic unless a
    ``pbc="T T F"`` key (three T/F flags) says otherwise.  An optional
    ``tag=...`` key is kept as the structure's label; all other comment keys
    are ignored.  Structure ids are ``<source>#<frame_index>``.
    """
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
        keys = _parse_comment_keys(lines[i + 1], frame, i + 2)

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
            # Bare when the tag holds a '"', which a quoted value cannot.
            key = f"tag={s.tag}" if '"' in s.tag else f'tag="{s.tag}"'
            try:
                ok = is_one_line(s.tag) and _parse_comment_keys(key).get("tag") == s.tag
            except ParseError:
                ok = False
            if not ok:
                raise UserInputError(f"tag {s.tag!r} cannot be written to extended XYZ and read back")
            key_parts.append(key)
        for sym in dict.fromkeys(s.species):
            # The reader splits atom lines at whitespace.
            if sym.split() != [sym]:
                raise UserInputError(f"species {sym!r} of structure {s.id!r} cannot be written "
                                     "to extended XYZ and read back")
        body = "\n".join(
            f"{sym} {repr(float(p[0]))} {repr(float(p[1]))} {repr(float(p[2]))}"
            for sym, p in zip(s.species, s.positions)
        )
        chunks.append(f"{s.n_atoms}\n{' '.join(key_parts)}\n{body}" if s.n_atoms else f"0\n{' '.join(key_parts)}")
    return "\n".join(chunks) + "\n"


def read_manifest(path: str | Path, what: str = "manifest") -> list[Path]:
    """Read a dataset manifest: one structure-file path per line, '#' comments.

    Relative paths are resolved against the manifest's own directory.
    """
    path = Path(path)
    base = path.parent
    files: list[Path] = []
    for raw in read_input_text(path, what).splitlines():
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
        ds = parse_extxyz(read_input_text(f, "structure file"), source=str(f))
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
    return Structure(cell=new_cell, species=s.species * (na * nb * nc), positions=np.vstack(blocks),
                     periodic=s.periodic, id=f"{s.id}@{na}x{nb}x{nc}", tag=s.tag)


# ---------------------------------------------------------------------------
# Neighbor lists
# ---------------------------------------------------------------------------

def _per_center(name: str) -> functools.cached_property:
    """Per-center views of the flat array ``name``, built on first access."""
    return functools.cached_property(lambda nl: tuple(
        getattr(nl, name)[a:b] for a, b in itertools.pairwise(nl.offsets.tolist())))


@dataclass(frozen=True)
class NeighborList:
    """Periodic neighbors within a cutoff in read-only flat arrays, center
    ``i``'s at ``offsets[i]:offsets[i + 1]``, and per-center views of them.

    Entry ``m`` of center ``i`` is neighbor atom ``j = indices[i][m]`` seen
    through integer image shift ``shifts[i][m]`` (displacement =
    positions[j] + shift @ cell - positions[i]).  A center's entries are
    sorted by (distance, j, shift), the canonical order used for
    deterministic descriptor summation."""

    cutoff: float
    offsets: np.ndarray                 # (n_atoms + 1,)
    flat_indices: np.ndarray
    flat_shifts: np.ndarray             # (pairs, 3)
    flat_distances: np.ndarray
    flat_displacements: np.ndarray      # (pairs, 3)

    indices = _per_center("flat_indices")
    shifts = _per_center("flat_shifts")
    distances = _per_center("flat_distances")
    displacements = _per_center("flat_displacements")


# Margin absorbing float disagreement between the wrapped candidate search and
# the unwrapped distance that is finally reported and filtered.
_SEARCH_MARGIN = 1e-9

# Size of the (n, n, shifts, 3) candidate displacements built per block of
# image shifts; a block holds at least one shift.
_BLOCK_BYTES = 1 << 22

# Most image shifts one neighbor search may enumerate, about 30 times the
# 15^3 = 3,375 a 2 Å cubic cell needs at a 12 Å cutoff.  A cell far smaller
# than the cutoff needs millions (a 0.05 Å cell at 6 Å: 243^3, about 14.3M),
# so such a structure is rejected before any shift array is allocated.
_MAX_IMAGE_SHIFTS = 100_000


def neighbor_list(s: Structure, r_c: float) -> NeighborList:
    """Enumerate all neighbors (including periodic images) with 0 < R < r_c.

    The image search range is derived from the cell geometry, so cutoffs much
    larger than the cell stay correct.  Reported displacements are computed
    from the original (unwrapped) positions.
    """
    if not 0 < r_c < math.inf:
        raise UserInputError(f"cutoff must be positive and finite, got {r_c}")
    n, pos, per = s.n_atoms, s.positions, s.periodic
    if not any(per):
        half, frac_wrap, wrapped, cell = np.zeros(3), np.zeros((n, 3), dtype=int), pos, np.eye(3)
    else:
        cell = s.cell
        inv = np.linalg.inv(cell)
        frac = pos @ inv
        frac_wrap = np.where(per, np.floor(frac), 0.0).astype(int)
        wrapped = (frac - frac_wrap) @ cell
        # Component k of a candidate displacement shorter than r = r_c + margin
        # is at most reach = r * ||inv[:, k]|| in fractional units, and wrapped
        # fractional differences lie in [-1, 1], so its image shift has
        # |shift| <= reach + 1, that is |shift| <= floor(reach) + 1.
        reach = (r_c + _SEARCH_MARGIN) * np.linalg.norm(inv, axis=0)
        half = np.where(per, np.floor(reach) + 1, 0.0)
    # Counted in floats, before any integer cast can overflow.
    n_shifts = math.prod(2 * half + 1)
    if n_shifts > _MAX_IMAGE_SHIFTS:
        raise UserInputError(f"structure {s.id!r}: a {r_c} Å cutoff needs {n_shifts:.0f} periodic "
                             f"images of its cell, more than the limit of {_MAX_IMAGE_SHIFTS}; "
                             "the cell is too small")
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
    offsets = _frozen_array(np.searchsorted(ii[order], np.arange(n + 1)), np.intp)
    return NeighborList(float(r_c), offsets, *(_frozen_array(values[order], values.dtype)
                                               for values in (jj, true_shift, dist, disp)))
