"""Behler-Parrinello symmetry functions over periodic neighbor lists.

Three families are implemented: radial G2 Gaussians, and angular G4/G5
three-body terms over unordered neighbor pairs.  All values are invariant
under rigid motions and atom permutations; summation orders are canonical so
repeated evaluation is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import parallel
from .errors import UserInputError
from .structures import Structure, neighbor_list


def check_parameter(name: str, value) -> None:
    """The one range rule of each symmetry-function parameter: ``eta``,
    ``r_s`` and ``zeta`` finite and >= 0, ``lam`` +1 or -1, ``kind`` G4 or G5."""
    if name == "lam":
        if value not in (+1, -1):
            raise UserInputError(f"lam must be +1 or -1, got {value}")
    elif name == "kind":
        if value not in ("G4", "G5"):
            raise UserInputError(f"kind must be G4 or G5, got {value!r}")
    elif not np.isfinite(value) or value < 0:
        raise UserInputError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class CutoffParams:
    """Taper radii: flat 1 inside ``inner``, smooth decay to 0 at ``outer``."""

    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 <= self.inner < self.outer < np.inf):
            raise UserInputError(
                f"need 0 <= inner < outer < inf, got inner={self.inner}, outer={self.outer}"
            )


@dataclass(frozen=True)
class RadialParams:
    """G2 parameters: Gaussian width eta (1/Å²), center r_s (Å), neighbor element."""

    eta: float
    r_s: float
    neighbor_element: str

    def __post_init__(self):
        check_parameter("eta", self.eta)
        check_parameter("r_s", self.r_s)


@dataclass(frozen=True)
class AngularParams:
    """G4/G5 parameters: eta (1/Å²), angular sharpness zeta, lam = +1 or -1."""

    eta: float
    zeta: float
    lam: int
    kind: str                       # "G4" or "G5"
    element_pair: tuple[str, str]   # unordered; stored sorted

    def __post_init__(self):
        check_parameter("lam", self.lam)
        check_parameter("zeta", self.zeta)
        check_parameter("eta", self.eta)
        check_parameter("kind", self.kind)
        object.__setattr__(self, "element_pair", tuple(sorted(self.element_pair)))


@dataclass(frozen=True)
class DescriptorDef:
    params: RadialParams | AngularParams
    cutoff: CutoffParams

    @property
    def label(self) -> str:
        """Unique column label; feeds histogram-spec checksums, so exact reprs."""
        c = f"rin={self.cutoff.inner!r};rout={self.cutoff.outer!r}"
        p = self.params
        if isinstance(p, RadialParams):
            return f"G2[{p.neighbor_element};eta={p.eta!r};rs={p.r_s!r};{c}]"
        pair = ",".join(p.element_pair)
        return f"{p.kind}[{pair};eta={p.eta!r};zeta={p.zeta!r};lambda={p.lam:+d};{c}]"


@dataclass(frozen=True)
class SymmetryFunctionSet:
    """Ordered descriptor definitions per center element.

    The order is fixed and defines the column order of every downstream
    matrix, histogram, and fingerprint.
    """

    elements: tuple[str, ...]
    descriptors: Mapping[str, tuple[DescriptorDef, ...]]
    # Per center element, its columns grouped for the kernel, and its column
    # labels; (element, label) per column in canonical order; the largest
    # outer cutoff of any column (all derived).
    groups: Mapping[str, tuple] = field(init=False, repr=False, compare=False)
    labels: Mapping[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    layout: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    max_cutoff: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(
            self, "descriptors", {e: tuple(self.descriptors[e]) for e in self.elements}
        )
        for e in self.elements:
            if not self.descriptors[e]:
                raise UserInputError(f"element {e} has no descriptors")
        object.__setattr__(
            self, "groups", {e: _group_columns(self.descriptors[e]) for e in self.elements}
        )
        object.__setattr__(
            self, "labels", {e: tuple(d.label for d in self.descriptors[e]) for e in self.elements}
        )
        object.__setattr__(
            self, "layout", tuple((e, lbl) for e in self.elements for lbl in self.labels[e])
        )
        object.__setattr__(
            self, "max_cutoff",
            max(d.cutoff.outer for defs in self.descriptors.values() for d in defs),
        )

    def column_layout(self) -> tuple[tuple[str, str], ...]:
        """(element, label) per column, in canonical order."""
        return self.layout


# ---------------------------------------------------------------------------
# Elementary evaluations
# ---------------------------------------------------------------------------

def cutoff_value(r: np.ndarray, cut: CutoffParams) -> np.ndarray:
    """Smooth taper: 1 below ``inner``, 0 at and beyond ``outer``.

    Between the radii it follows the quintic smoothstep complement
    f(x) = ((15 - 6x)x - 10)x^3 + 1 with x = (r - inner)/(outer - inner),
    which has f(0)=1, f(1)=0 and zero slope at both ends.
    """
    arr = np.asarray(r, dtype=float)
    x = (arr - cut.inner) / (cut.outer - cut.inner)
    f = ((15.0 - 6.0 * x) * x - 10.0) * x * x * x + 1.0
    return np.where(arr < cut.inner, 1.0, np.where(arr >= cut.outer, 0.0, f))


def _distinct(keys: Sequence) -> tuple[list, np.ndarray]:
    """The distinct ``keys`` in first-seen order, and each key's index into them."""
    values = list(dict.fromkeys(keys))
    return values, np.array([values.index(k) for k in keys])


class _Group:
    """The columns of one center element that share a cutoff and a neighbor
    element (G2) or an element pair (G4 and G5 together), evaluated at once.

    Radial parameters are (columns, 1) arrays broadcast against the (terms,)
    geometry.  An angular column's terms are the product of three factor
    rows: the angle ``(1 + lam cos)^zeta``, the Gaussian of ``(eta, kind)``
    and the taper of ``kind``.  Each distinct factor row is evaluated once,
    and the column rows are gathered from them (the default grid's 16
    columns per group need 4, 4 and 2 rows)."""

    def __init__(self, cut: CutoffParams, neighbors, members):
        cols, params = zip(*members)
        self.cut, self.neighbors, self.cols = cut, neighbors, np.array(cols)
        self.is_radial = isinstance(params[0], RadialParams)
        if self.is_radial:
            self.eta = np.array([[p.eta] for p in params], dtype=float)
            self.r_s = np.array([[p.r_s] for p in params], dtype=float)
            return
        lams = list(dict.fromkeys(p.lam for p in params))
        self.lam = np.array([[lam] for lam in lams], dtype=float)
        # The distinct (lam, zeta) rows, those of one zeta adjacent, so each
        # zeta is one np.power call on the ``base`` rows of its lams.
        used = {(p.lam, p.zeta) for p in params}
        zetas = list(dict.fromkeys(p.zeta for p in params))
        angles = [(lam, z) for z in zetas for lam in lams if (lam, z) in used]
        self.powers = [(z, np.array([k for k, lam in enumerate(lams) if (lam, z) in used]))
                       for z in zetas]
        self.ang_row = np.array([angles.index((p.lam, p.zeta)) for p in params])
        gaussians, self.gauss_row = _distinct([(p.eta, p.kind) for p in params])
        self.eta = np.array([[eta] for eta, _ in gaussians], dtype=float)
        self.gauss_g4 = np.array([[kind == "G4"] for _, kind in gaussians])
        kinds, self.taper_row = _distinct([p.kind for p in params])
        self.taper_g4 = np.array([[kind == "G4"] for kind in kinds])
        self.scale = np.array([2.0 ** (1.0 - p.zeta) for p in params])

    def evaluate(self, dist, disp, species, fc, structure_id: str) -> np.ndarray:
        """Every column of the group for one center's canonical neighbors
        inside the group's cutoff, with their tapers ``fc``."""
        if self.is_radial:
            mine = species == self.neighbors
            return self.radial(dist[mine], fc[mine])
        return self.angular(*_pair_geometry(dist, disp, species, fc, self.neighbors,
                                            structure_id))

    def radial(self, d: np.ndarray, fc: np.ndarray) -> np.ndarray:
        """G2 over neighbor distances ``d`` in canonical order, with their
        tapers ``fc``.  Each row is contiguous, so ``sum(axis=1)`` adds it
        exactly as ``np.sum`` would."""
        return (np.exp(-self.eta * (d - self.r_s) ** 2) * fc).sum(axis=1)

    def angular(self, r_ij, r_ik, r_jk, cos_theta, fc) -> np.ndarray:
        """G4 rows with the ``r_jk`` factors, G5 rows without them; ``fc`` is
        fc(r_ij) * fc(r_ik) per pair."""
        base = 1.0 + self.lam * cos_theta
        # One scalar exponent per call: numpy evaluates some scalar powers
        # (2, 0.5) as squares and roots, which array exponents do not match.
        # 0^0 -> 1 (numpy's convention), so zeta = 0 keeps degenerate angles.
        ang = np.concatenate([np.power(base[rows], z) for z, rows in self.powers])
        r2 = r_ij ** 2 + r_ik ** 2
        gauss = np.exp(-self.eta * np.where(self.gauss_g4, r2 + r_jk ** 2, r2))
        taper = np.where(self.taper_g4, fc * cutoff_value(r_jk, self.cut), fc)
        terms = ang[self.ang_row] * gauss[self.gauss_row]
        terms *= taper[self.taper_row]
        # Value-sorted summation: the term multiset is identical for physically
        # equivalent environments (supercell images, permuted atoms), so sorting
        # makes the sum bit-identical across them.
        terms.sort(axis=1)
        return terms.sum(axis=1) * self.scale


# Most unordered neighbor pairs one center may form for one angular group.
# With the default 16-column G4+G5 group a pair costs about 0.4 KB of
# temporaries (measured: a one-atom 1.0 Å cell at 6 Å, 399,171 pairs, peak RSS
# 165 MB above its level before the call), so the cap keeps one center within
# about 0.5 GB.
_MAX_CENTER_PAIRS = 1_000_000


def _pair_geometry(dist, disp, species, fc, pair, structure_id: str):
    """(r_ij, r_ik, r_jk, cos_theta, fc_ij * fc_ik) over the unordered neighbor
    pairs of one center whose elements match ``pair``."""
    e1, e2 = pair
    ia, ib = np.flatnonzero(species == e1), np.flatnonzero(species == e2)
    n_pairs = len(ia) * (len(ia) - 1) // 2 if e1 == e2 else len(ia) * len(ib)
    if n_pairs > _MAX_CENTER_PAIRS:
        raise UserInputError(
            f"structure {structure_id!r}: one atom has {n_pairs} {e1}-{e2} neighbor pairs, "
            f"more than {_MAX_CENTER_PAIRS}; the cell is too dense for the cutoff"
        )
    a, b = _pair_indices(ia, ib, e1 == e2)
    r_ij = dist[a]
    r_ik = dist[b]
    da, db = disp[a], disp[b]
    r_jk = np.linalg.norm(db - da, axis=1)
    with np.errstate(invalid="ignore"):
        cos = np.einsum("ij,ij->i", da, db) / (r_ij * r_ik)
    return r_ij, r_ik, r_jk, np.clip(cos, -1.0, 1.0), fc[a] * fc[b]


def _pair_indices(ia: np.ndarray, ib: np.ndarray, same: bool):
    """Neighbor indices (a, b) of the pairs of ``ia`` x ``ib`` in row-major
    order; for one element (``ia`` is ``ib``) only those with a < b, as
    np.triu_indices orders them."""
    if same:
        k = np.arange(len(ia))
        a, b = np.nonzero(k[:, None] < k)
        return ia[a], ia[b]
    return np.repeat(ia, len(ib)), np.tile(ib, len(ia))


def _group_columns(defs: Sequence[DescriptorDef]) -> tuple[_Group, ...]:
    """Group one center element's columns by (cutoff, neighbor element) for
    G2 and by (cutoff, element pair) for G4 and G5."""
    members: dict[tuple, list] = {}
    for col, dd in enumerate(defs):
        p = dd.params
        key = (dd.cutoff, p.neighbor_element if isinstance(p, RadialParams) else p.element_pair)
        members.setdefault(key, []).append((col, p))
    return tuple(_Group(*key, m) for key, m in members.items())


# ---------------------------------------------------------------------------
# Whole-structure evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescriptorMatrix:
    """Per-atom descriptor values for one structure, grouped by center element.

    ``blocks[e]`` has one row per element-e atom (structure atom order) and one
    column per descriptor in the symmetry-function set's order for ``e``.
    """

    structure_id: str
    tag: str | None
    blocks: Mapping[str, np.ndarray]
    columns: Mapping[str, tuple[str, ...]]
    # (element, label) per column, built from ``blocks`` and ``columns``
    # unless given: the pipeline passes its symmetry-function set's, so a
    # run's matrices share one.
    layout: tuple[tuple[str, str], ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.layout is None:
            object.__setattr__(
                self, "layout", tuple((e, lbl) for e in self.blocks for lbl in self.columns[e])
            )

    def column_layout(self) -> tuple[tuple[str, str], ...]:
        return self.layout


def compute_structure_descriptors(s: Structure, sfset: SymmetryFunctionSet) -> DescriptorMatrix:
    """Evaluate every descriptor for every atom of ``s``."""
    missing = sorted(set(s.species) - set(sfset.elements))
    if missing:
        raise UserInputError(f"element {missing[0]} of structure {s.id!r} not in symmetry-function set")
    nlist = neighbor_list(s, sfset.max_cutoff)

    species = np.array(s.species, dtype=str)
    blocks = {}
    for e in sfset.elements:
        centers = s.element_indices(e)
        block = np.empty((len(centers), len(sfset.descriptors[e])))
        cuts = tuple(dict.fromkeys(g.cut for g in sfset.groups[e]))
        # Huge parameters overflow to inf or nan; the check below reports
        # them, so numpy's warnings would only print ahead of that error.
        with np.errstate(over="ignore", invalid="ignore"):
            for row, i in zip(block, centers):
                dist, disp = nlist.distances[i], nlist.displacements[i]
                neighbors = species[nlist.indices[i]]
                # Neighbors come sorted by distance, so those inside a cutoff
                # are a prefix; each is tapered once per cutoff.
                inside = {}
                for cut in cuts:
                    k = np.searchsorted(dist, cut.outer)
                    inside[cut] = (dist[:k], disp[:k], neighbors[:k], cutoff_value(dist[:k], cut))
                for group in sfset.groups[e]:
                    row[group.cols] = group.evaluate(*inside[group.cut], s.id)
        if not np.all(np.isfinite(block)):
            raise UserInputError(f"non-finite descriptor value in structure {s.id!r}, element {e}")
        block.setflags(write=False)
        blocks[e] = block
    return DescriptorMatrix(
        structure_id=s.id,
        tag=s.tag,
        blocks=blocks,
        columns=sfset.labels,
        layout=sfset.layout,
    )


# Structures are described by forked worker processes (``parallel.fork_map``)
# once they hold _POOL_MIN_ATOMS atoms in all.  Below that, starting the
# workers costs more than they save.  Measured in-process, start-up included
# (2 cores, median of 7, two runs): bulk's smallest 3 and 4 cells (21, 45
# atoms) took 54-56 and 96-110 ms serial, 61-66 and 64-73 ms on workers;
# curate's first 4, 6 and 8 structures (20, 32, 39 atoms) took 33-41, 50-53
# and 60-69 ms serial, 36-43, 45-47 and 46-50 ms on workers.  The break-even
# lies between 21 and 32 atoms; 40 leaves a margin for a host where a fork
# costs more.
_POOL_MIN_ATOMS = 40


def compute_dataset_descriptors(
    structures: Sequence[Structure],
    sfset: SymmetryFunctionSet,
) -> list[DescriptorMatrix]:
    """Descriptor matrices for many structures, in input order.

    Each structure is described whole by one process, so every block is
    bit-identical for any worker count.  An error is the one a serial loop
    raises: that of the first failing structure in input order."""
    workers = parallel.pool_workers(len(structures),
                                    sum(s.n_atoms for s in structures) >= _POOL_MIN_ATOMS)
    if not workers:
        return [compute_structure_descriptors(s, sfset) for s in structures]
    # Largest first, so that a few big cells do not finish last on one worker.
    order = sorted(range(len(structures)), key=lambda i: -structures[i].n_atoms)
    # compute_structure_descriptors is looked up at call time, so a patch made
    # before the fork applies in the workers too.
    all_blocks = parallel.fork_map(
        lambda i: compute_structure_descriptors(structures[i], sfset).blocks, order, workers)
    for blocks in all_blocks:
        for block in blocks.values():
            block.setflags(write=False)     # unpickled arrays come back writeable
    return [DescriptorMatrix(structure_id=s.id, tag=s.tag, blocks=blocks, columns=sfset.labels,
                             layout=sfset.layout)
            for s, blocks in zip(structures, all_blocks)]
