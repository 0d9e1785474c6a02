"""Behler-Parrinello symmetry functions over periodic neighbor lists.

Three families are implemented: radial G2 Gaussians, and angular G4/G5
three-body terms over unordered neighbor pairs.  All values are invariant
under rigid motions and atom permutations; summation orders are canonical so
repeated evaluation is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
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
            raise UserInputError(f"need 0 <= inner < outer < inf, "
                                 f"got inner={self.inner}, outer={self.outer}")


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
        elements = tuple(self.elements)
        defs = {e: tuple(self.descriptors[e]) for e in elements}
        for e in elements:
            if not defs[e]:
                raise UserInputError(f"element {e} has no descriptors")
        labels = {e: tuple(d.label for d in defs[e]) for e in elements}
        for name, value in (
                ("elements", elements), ("descriptors", defs), ("labels", labels),
                ("groups", {e: _group_columns(defs[e]) for e in elements}),
                ("layout", tuple((e, lbl) for e in elements for lbl in labels[e])),
                ("max_cutoff", max(d.cutoff.outer for e in elements for d in defs[e]))):
            object.__setattr__(self, name, value)

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

    The geometry arguments hold one center's terms on the last axis, after any
    leading axis of centers.  Parameters are (columns, 1) arrays, reshaped to
    broadcast against that geometry, so each result has one row per column
    and one entry per center.  An angular column's terms are the product of
    three factor rows: the angle ``(1 + lam cos)^zeta``, the Gaussian of
    ``(eta, kind)`` and the taper of ``kind``.  Each distinct factor row is
    evaluated once, and the column rows are gathered from them (the default
    grid's 16 columns per group need 4, 4 and 2 rows)."""

    def __init__(self, cut: CutoffParams, neighbors, members):
        cols, params = zip(*members)
        self.cut, self.neighbors, self.cols = cut, neighbors, np.array(cols)
        self.is_radial = isinstance(params[0], RadialParams)
        # Every parameter but the neighbor element(s), the last field: groups
        # of one center element with equal keys are evaluated as one pool.
        self.key = (cut,) + tuple(astuple(p)[:-1] for p in params)
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

    def reduce(self, terms: np.ndarray) -> np.ndarray:
        """The values from ``terms``, each center's a row on the last axis,
        which numpy sums as ``np.sum`` sums that row alone."""
        if self.is_radial:
            return terms.sum(axis=-1)
        # Value-sorted summation: the term multiset is identical for physically
        # equivalent environments (supercell images, permuted atoms), so sorting
        # makes the sum bit-identical across them.
        terms.sort(axis=-1)
        return terms.sum(axis=-1) * self.scale.reshape((-1,) + (1,) * (terms.ndim - 2))

    def terms(self, *geometry) -> np.ndarray:
        """One row of terms per column: G2 of neighbors' (distances, tapers)
        in canonical order; G4 (with the ``r_jk`` factors) and G5 of pairs'
        (r_ij, r_ik, r_jk, cos_theta, fc(r_ij) * fc(r_ik))."""
        shape = (-1,) + (1,) * geometry[0].ndim
        if self.is_radial:
            d, fc = geometry
            return np.exp(-self.eta.reshape(shape) * (d - self.r_s.reshape(shape)) ** 2) * fc
        r_ij, r_ik, r_jk, cos_theta, fc = geometry
        base = 1.0 + self.lam.reshape(shape) * cos_theta
        # One scalar exponent per call: numpy evaluates some scalar powers
        # (2, 0.5) as squares and roots, which array exponents do not match.
        # 0^0 -> 1 (numpy's convention), so zeta = 0 keeps degenerate angles.
        ang = np.concatenate([np.power(base[rows], z) for z, rows in self.powers])
        r2 = r_ij ** 2 + r_ik ** 2
        gauss = np.exp(-self.eta.reshape(shape)
                       * np.where(self.gauss_g4.reshape(shape), r2 + r_jk ** 2, r2))
        taper = np.where(self.taper_g4.reshape(shape), fc * cutoff_value(r_jk, self.cut), fc)
        terms = ang[self.ang_row]
        terms *= gauss[self.gauss_row]
        return np.multiply(terms, taper[self.taper_row], out=terms)


# Most unordered neighbor pairs one center may form for one angular group,
# checked from the pair counts before any pair array exists.  With the
# default 16-column G4+G5 group a pair costs about 0.45 KB of temporaries
# (measured: a one-atom 1.0 Å cell at 6 Å, 399,171 pairs in one chunk, peak
# RSS 174 MB above its level before the call), so the cap keeps one center
# within about 0.5 GB.
_MAX_CENTER_PAIRS = 1_000_000

# Most terms (columns x neighbors or pairs) one evaluation of a pool holds,
# one (group, center) row at least.  Benchmark wall_s and peak RSS, medians
# of 3 runs (2 cores), by budget in pairs of the default 16 columns:
#                  2,048 (2^15 terms)  4,096 (2^16)  8,192 (2^17)
#   curate         0.794 s, 42.3 MB    0.810, 42.2   0.804, 42.7
#   bulk           0.867 s, 42.5 MB    0.841, 42.5   0.818, 43.5
# 4,096 pairs keeps bulk faster than 2,048 without the memory of 8,192.
_CHUNK_TERMS = 1 << 16


def _pair_geometry(dist, disp, fc, a, b):
    """(r_ij, r_ik, r_jk, cos_theta, fc_ij * fc_ik) of the neighbor pairs
    (``a``, ``b``), indices into the neighbors' ``dist``, ``disp`` and
    tapers ``fc``."""
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
            layout = tuple((e, lbl) for e in self.blocks for lbl in self.columns[e])
            object.__setattr__(self, "layout", layout)

    def column_layout(self) -> tuple[tuple[str, str], ...]:
        return self.layout


def compute_structure_descriptors(s: Structure, sfset: SymmetryFunctionSet) -> DescriptorMatrix:
    """Evaluate every descriptor for every atom of ``s``: a dataset of one."""
    return compute_dataset_descriptors([s], sfset)[0]


def _neighbors(s: Structure, sfset: SymmetryFunctionSet):
    """The neighbors of every atom of ``s`` inside the set's largest cutoff,
    flat in neighbor-list order (by atom, then distance): each atom's element
    and neighbor count, then each neighbor's distance, displacement and
    element, elements as indices into ``sfset.elements``.  An element the set
    lacks is an error before any neighbor search."""
    missing = sorted(set(s.species) - set(sfset.elements))
    if missing:
        raise UserInputError(f"element {missing[0]} of structure {s.id!r} not in symmetry-function set")
    nlist = neighbor_list(s, sfset.max_cutoff)
    species = np.array([sfset.elements.index(x) for x in s.species], dtype=np.intp)
    return (species, np.diff(nlist.offsets), nlist.flat_distances, nlist.flat_displacements,
            species[nlist.flat_indices])


class _CouldPassTheCap(Exception):
    """A structure of a batch of several has a center whose neighbors could
    form more pairs than the cap: the batch is described one structure at a
    time instead, which checks each element's pairs in the serial order."""


class _Run:
    """The neighbors of a run of structures, flat in their order (structure,
    atom, then distance); and per atom, its element, its neighbor count and
    its row in that element's block (structure order, then atom order)."""

    def __init__(self, found, n_elements: int):
        self.species, self.counts, self.dist, self.disp, self.nb = (
            parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in zip(*found))
        bounds = np.cumsum([0] + [len(f[0]) for f in found])
        self.rank = np.empty(len(self.species), dtype=np.intp)
        self.row_bounds = []        # element k, structure t: rows row_bounds[k][t:t + 2]
        for k in range(n_elements):
            mine = self.species == k
            self.rank[mine] = np.arange(np.count_nonzero(mine))
            self.row_bounds.append(np.concatenate(([0], np.cumsum(mine)))[bounds])

    def select(self, inside: np.ndarray, k: int, n_elements: int):
        """The neighbors inside a cutoff around the centers of element
        ``k``: their indices, by row of ``k``'s block, then element, then
        index; and per row and element, how many there are and where they
        start among those indices, as (rows, elements) arrays."""
        positions = np.flatnonzero(inside & np.repeat(self.species == k, self.counts))
        key = np.repeat(self.rank, self.counts)[positions] * n_elements + self.nb[positions]
        counts = np.bincount(key, minlength=self.row_bounds[k][-1] * n_elements)
        starts = np.cumsum(counts) - counts
        return (positions[np.argsort(key, kind="stable")], counts.reshape(-1, n_elements),
                starts.reshape(-1, n_elements))

    def structure(self, k: int, row: int) -> int:
        """The index of the structure whose center is ``row`` of ``k``'s block."""
        return int(np.searchsorted(self.row_bounds[k], row, side="right")) - 1


def _describe(batch: Sequence[Structure], sfset: SymmetryFunctionSet) -> list[dict]:
    """The blocks of every structure of ``batch``, in order.

    A batch of several structures is described together (``_describe_run``).
    If that raises, or meets a structure whose centers could pass the pair
    cap, the batch is described again one structure at a time, in order: so
    an error is the one a serial loop over the structures raises, that of the
    first failing structure."""
    if len(batch) > 1:
        try:
            return _describe_run(batch, sfset)
        except Exception:   # noqa: BLE001 - the loop below raises the serial error
            pass
    return [blocks for s in batch for blocks in _describe_run([s], sfset)]


def _describe_run(batch: Sequence[Structure], sfset: SymmetryFunctionSet) -> list[dict]:
    """The blocks of every structure of ``batch``, in order.

    The groups of one element are evaluated in pools (``_evaluate``) over
    the centers of all the structures, each value bit-identical to its
    center's alone, so to any split of the structures into batches.

    A structure alone meets its errors in the serial order: an element the
    set lacks, the neighbor search, then per element a center over the pair
    cap and a non-finite value.  Several structures stop with
    ``_CouldPassTheCap`` right after the neighbor search of one whose centers
    could form more pairs than the cap, so that no further neighbor list is
    held."""
    found = []
    for s in batch:
        found.append(_neighbors(s, sfset))
        most = int(found[-1][1].max(initial=0))
        if len(batch) > 1 and most * (most - 1) // 2 > _MAX_CENTER_PAIRS:
            raise _CouldPassTheCap
    run = _Run(found, len(sfset.elements))
    cuts = tuple(dict.fromkeys(g.cut for e in sfset.elements for g in sfset.groups[e]))
    inside = {cut: run.dist < cut.outer for cut in cuts}
    blocks = []
    # Huge parameters overflow to inf or nan; the check below reports them,
    # so numpy's warnings would only print ahead of that error.
    with np.errstate(over="ignore", invalid="ignore"):
        fc = {cut: cutoff_value(run.dist, cut) for cut in cuts}
        for k, e in enumerate(sfset.elements):
            near = {cut: run.select(inside[cut], k, len(sfset.elements))
                    for cut in dict.fromkeys(g.cut for g in sfset.groups[e])}
            # The pair caps from the counts alone, before any pair of the
            # element exists: the first center over the cap, in its first
            # group over it.
            pools: dict[tuple, list] = {}
            over = []
            for g in sfset.groups[e]:
                counts = near[g.cut][1]
                if g.is_radial:
                    j = sfset.elements.index(g.neighbors)
                    pools.setdefault(g.key, []).append((g, (j, None, counts[:, j])))
                    continue
                e1, e2 = (sfset.elements.index(x) for x in g.neighbors)
                pairs = counts[:, e1] * (counts[:, e2] - (e1 == e2)) // (1 + (e1 == e2))  # n(n-1)/2 or n1 n2
                pools.setdefault(g.key, []).append((g, (e1, e2, pairs)))
                rows = np.flatnonzero(pairs > _MAX_CENTER_PAIRS)
                if len(rows):
                    over.append((rows[0], pairs[rows[0]], g.neighbors))
            if over:
                row, n, pair = min(over, key=lambda x: x[0])
                raise UserInputError(
                    f"structure {batch[run.structure(k, row)].id!r}: one atom has {n} "
                    f"{'-'.join(pair)} neighbor pairs, more than {_MAX_CENTER_PAIRS}; "
                    "the cell is too dense for the cutoff")
            block = np.empty((run.row_bounds[k][-1], len(sfset.descriptors[e])))
            for pool in pools.values():
                _evaluate(pool, run, fc, near, block)
            block.setflags(write=False)
            blocks.append(block)
            bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
            if len(bad):
                raise UserInputError(f"non-finite descriptor value in structure "
                                     f"{batch[run.structure(k, bad[0])].id!r}, element {e}")
    return [{e: block[bounds[t]:bounds[t + 1]]
             for e, bounds, block in zip(sfset.elements, run.row_bounds, blocks)}
            for t in range(len(batch))]


def _evaluate(pool, run: _Run, fc: dict, near: dict, block) -> None:
    """Fill ``block`` in the columns of the groups of ``pool``, which differ
    in their neighbor elements alone; each comes with (its neighbor element
    and None, or its pair elements, and each row's neighbor or pair count).
    ``fc`` and ``near`` hold the tapers and the ``_Run.select`` of each
    cutoff.  A (group, row) takes its m1 x m2 grid of neighbors (m2 = 1 for
    G2) in ``_pair_indices``' order.  The rows are evaluated by ascending
    count, in chunks of at most ``_CHUNK_TERMS`` terms (one row at least),
    each chunk's terms at once; the rows of one count are a (columns, rows,
    count) view of them."""
    g = pool[0][0]
    fc, (positions, counts, starts) = fc[g.cut], near[g.cut]
    fields = []
    for _, (e1, e2, n) in pool:
        m1, s1 = counts[:, e1], starts[:, e1]
        m2, s2 = (np.ones_like(m1), s1) if e2 is None else (counts[:, e2], starts[:, e2])
        fields.append((m1, m2, s1, s2, np.full(len(m1), e1 == e2), n))
    m1, m2, s1, s2, same, n = (np.concatenate(x) for x in zip(*fields))
    kind = (m1 * (m2.max(initial=0) + 1) + m2) * 2 + same
    order = np.argsort(n, kind="stable")
    n, ends = n[order], np.cumsum(n[order])
    values = np.empty((len(g.cols), len(order)))
    start, pattern = 0, (-1, None)
    while start < len(order):
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - n[start] + _CHUNK_TERMS // len(g.cols), side="right")))
        rows = order[start:stop]
        r = rows[0]
        if (kind[rows] == kind[r]).all():
            # One (m1, m2, same): one center's pairs, at each row's neighbors.
            if pattern[0] != kind[r]:
                pattern = kind[r], _pair_indices(np.arange(m1[r]), np.arange(m2[r]), same[r])
            a, b = (positions[(s[rows][:, None] + x).ravel()] for s, x in zip((s1, s2), pattern[1]))
        else:
            grid = m1[rows] * m2[rows]
            cells = np.cumsum(grid)
            i, j = np.divmod(np.arange(cells[-1]) - np.repeat(cells - grid, grid),
                             np.repeat(m2[rows], grid))
            keep = ~np.repeat(same[rows], grid) | (i < j)
            a, b = (positions[(np.repeat(s[rows], grid) + x)[keep]] for s, x in ((s1, i), (s2, j)))
        chunk = g.terms(*((run.dist[a], fc[a]) if g.is_radial
                          else _pair_geometry(run.dist, run.disp, fc, a, b)))
        edges, at = [start, *(start + 1 + np.flatnonzero(np.diff(n[start:stop]))), stop], 0
        for lo, hi in zip(edges, edges[1:]):
            size = (hi - lo) * n[lo]
            values[:, lo:hi] = g.reduce(chunk[:, at:at + size].reshape(len(g.cols), hi - lo, n[lo]))
            at += size
        start = stop
    cols, height = np.array([member.cols for member, _ in pool]), max(len(counts), 1)
    block[(order % height)[:, None], cols[order // height]] = values.T


# Structures of fewer than _ALONE_ATOMS atoms are described together, in
# contiguous batches of at most _BATCH_ATOMS atoms and at most an equal
# share of their estimated work (``_work``), ceil(atoms / _BATCH_ATOMS)
# shares in all: so a batch of dense cells takes a worker about as long as
# one of sparse cells, and none holds more atoms than the budget.  A larger
# structure has centers enough to fill its own chunks, and describing it
# alone keeps the worker load balanced.
_ALONE_ATOMS = 64
_BATCH_ATOMS = 256


def _work(s: Structure, cutoff: float) -> float:
    """About the neighbor pairs of ``s``: its atoms times the square of the
    neighbors one atom has inside ``cutoff``, estimated from the density of
    its cell when any direction is periodic, else as every other atom."""
    if any(s.periodic):
        k = s.n_atoms / abs(np.linalg.det(s.cell)) * 4.0 / 3.0 * np.pi * cutoff ** 3
    else:
        k = s.n_atoms - 1
    return s.n_atoms * (1.0 + k * k)


def _batches(structures: Sequence[Structure], work: Sequence[float]) -> list[range]:
    """Contiguous index ranges of ``structures``, each one batch, given each
    structure's ``_work``."""
    small = [s.n_atoms < _ALONE_ATOMS for s in structures]
    total = sum(s.n_atoms for s, x in zip(structures, small) if x)
    share = sum(w for w, x in zip(work, small) if x) / max(1, -(-total // max(1, _BATCH_ATOMS)))
    out, atoms, done = [], 0, 0.0
    for i, (s, w) in enumerate(zip(structures, work)):
        if (small[i] and out and small[out[-1].start]
                and atoms + s.n_atoms <= _BATCH_ATOMS and done + w <= share):
            out[-1] = range(out[-1].start, i + 1)
        else:
            out.append(range(i, i + 1))
            atoms, done = 0, 0.0
        atoms += s.n_atoms
        done += w
    return out


# Batches are described by forked worker processes (``parallel.fork_map``)
# once the structures hold _POOL_MIN_ATOMS atoms in all; below that,
# starting the workers costs more than they save.  Two batches need 65 atoms
# at least.  Measured in-process, start-up included (2 cores, medians of 15,
# three rounds): bulk's 2-atom FeH cell with a 64-atom supercell took 67 ms
# serial and 72 ms on workers; its 3-, 24- and 81-atom Fe2H cells (108
# atoms) 86 and 72 ms; curate's first 59 structures (270 atoms) 118 and 68
# ms.  The break-even lies between 66 and 108 atoms; 128 leaves a margin
# for a host where a fork costs more.
_POOL_MIN_ATOMS = 128


def compute_dataset_descriptors(structures: Sequence[Structure],
                                sfset: SymmetryFunctionSet) -> list[DescriptorMatrix]:
    """Descriptor matrices for many structures, in input order.

    Each batch (``_batches``) is described whole by one process, and every
    block is bit-identical for any batch split, so also for any worker
    count.  An error is the one a serial loop raises: that of the first
    failing structure in input order."""
    work = [_work(s, sfset.max_cutoff) for s in structures]
    batches = _batches(structures, work)
    # Most work first, so that a few big batches do not finish last on one
    # worker.  _describe is looked up at call time, so a patch made before
    # the fork applies in the workers too.
    order = sorted(range(len(batches)), key=lambda k: -sum(work[i] for i in batches[k]))
    per_batch = parallel.fork_map(
        lambda k: _describe(structures[batches[k].start:batches[k].stop], sfset), order,
        sum(s.n_atoms for s in structures) >= _POOL_MIN_ATOMS)
    matrices = []
    for s, blocks in zip(structures, (blocks for batch in per_batch for blocks in batch)):
        for block in blocks.values():
            block.setflags(write=False)     # unpickled arrays come back writeable
        matrices.append(DescriptorMatrix(structure_id=s.id, tag=s.tag, blocks=blocks,
                                         columns=sfset.labels, layout=sfset.layout))
    return matrices
