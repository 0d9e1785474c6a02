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
    # labels (both derived).
    groups: Mapping[str, tuple] = field(init=False, repr=False, compare=False)
    labels: Mapping[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

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

    @property
    def max_cutoff(self) -> float:
        return max(d.cutoff.outer for defs in self.descriptors.values() for d in defs)

    def column_layout(self) -> tuple[tuple[str, str], ...]:
        """(element, label) per column, in canonical order."""
        return tuple((e, lbl) for e in self.elements for lbl in self.labels[e])


# ---------------------------------------------------------------------------
# Elementary evaluations
# ---------------------------------------------------------------------------

def cutoff_value(r, cut: CutoffParams):
    """Smooth taper: 1 below ``inner``, 0 at and beyond ``outer``.

    Between the radii it follows the quintic smoothstep complement
    f(x) = ((15 - 6x)x - 10)x^3 + 1 with x = (r - inner)/(outer - inner),
    which has f(0)=1, f(1)=0 and zero slope at both ends.
    """
    arr = np.asarray(r, dtype=float)
    x = (arr - cut.inner) / (cut.outer - cut.inner)
    f = ((15.0 - 6.0 * x) * x - 10.0) * x * x * x + 1.0
    out = np.where(arr < cut.inner, 1.0, np.where(arr >= cut.outer, 0.0, f))
    if np.ndim(r) == 0:
        return float(out)
    return out


def radial_g2(distances: np.ndarray, p: RadialParams, cut: CutoffParams) -> float:
    """Sum of exp(-eta (R - r_s)^2) fc(R) over the given neighbor distances.

    ``distances`` must already be filtered to the target neighbor element and
    given in canonical neighbor order.
    """
    group = _Group(cut, p.neighbor_element, [(0, p)])
    return float(group.radial(np.asarray(distances, dtype=float))[0])


def angular_g4(
    r_ij: np.ndarray, r_ik: np.ndarray, r_jk: np.ndarray, cos_theta: np.ndarray,
    p: AngularParams, cut: CutoffParams,
) -> float:
    """G4 sum over unordered neighbor pairs (each pair counted once)."""
    group = _Group(cut, p.element_pair, [(0, p)])
    return float(group.angular(*(np.asarray(v, float) for v in (r_ij, r_ik, r_jk, cos_theta)))[0])


def angular_g5(
    r_ij: np.ndarray, r_ik: np.ndarray, cos_theta: np.ndarray,
    p: AngularParams, cut: CutoffParams,
) -> float:
    """G5 sum: like G4 but without the j-k distance factors."""
    group = _Group(cut, p.element_pair, [(0, p)])
    r_jk = np.zeros(np.shape(r_ij))     # G5 rows take no r_jk factors
    return float(group.angular(*(np.asarray(v, float) for v in (r_ij, r_ik, r_jk, cos_theta)))[0])


class _Group:
    """The columns of one center element that share a cutoff and a neighbor
    element (G2) or an element pair (G4 and G5 together), evaluated at once:
    parameters are (columns, 1) arrays broadcast against the (terms,)
    geometry."""

    def __init__(self, cut: CutoffParams, neighbors, members):
        cols, params = zip(*members)
        self.cut, self.neighbors, self.cols = cut, neighbors, np.array(cols)
        self.is_radial = isinstance(params[0], RadialParams)
        self.eta = np.array([[p.eta] for p in params], dtype=float)
        if self.is_radial:
            self.r_s = np.array([[p.r_s] for p in params], dtype=float)
            return
        self.g4 = np.array([[p.kind == "G4"] for p in params])
        self.lam = np.array([[p.lam] for p in params], dtype=float)
        zetas = [p.zeta for p in params]
        self.zeta_rows = [(z, [k for k, x in enumerate(zetas) if x == z])
                          for z in dict.fromkeys(zetas)]
        self.scale = np.array([2.0 ** (1.0 - z) for z in zetas])

    def evaluate(self, dist, disp, species, structure_id: str) -> np.ndarray:
        """Every column of the group for one center's canonical neighbors."""
        within = dist < self.cut.outer
        if self.is_radial:
            return self.radial(dist[within & (species == self.neighbors)])
        return self.angular(*_pair_geometry(dist[within], disp[within], species[within],
                                            self.neighbors, structure_id))

    def radial(self, d: np.ndarray) -> np.ndarray:
        """G2 over neighbor distances ``d`` in canonical order.  Each row is
        contiguous, so ``sum(axis=1)`` adds it exactly as ``np.sum`` would."""
        return (np.exp(-self.eta * (d - self.r_s) ** 2) * cutoff_value(d, self.cut)).sum(axis=1)

    def angular(self, r_ij, r_ik, r_jk, cos_theta) -> np.ndarray:
        """G4 rows with the ``r_jk`` factors, G5 rows without them."""
        base = 1.0 + self.lam * cos_theta
        # One scalar exponent per call: numpy evaluates some scalar powers
        # (2, 0.5) as squares and roots, which array exponents do not match.
        # 0^0 -> 1 (numpy's convention), so zeta = 0 keeps degenerate angles.
        ang = np.empty_like(base)
        for z, rows in self.zeta_rows:
            ang[rows] = np.power(base[rows], z)
        r2 = r_ij ** 2 + r_ik ** 2
        fc = cutoff_value(r_ij, self.cut) * cutoff_value(r_ik, self.cut)
        gauss = np.exp(-self.eta * np.where(self.g4, r2 + r_jk ** 2, r2))
        taper = np.where(self.g4, fc * cutoff_value(r_jk, self.cut), fc)
        terms = ang * gauss * taper
        # Value-sorted summation: the term multiset is identical for physically
        # equivalent environments (supercell images, permuted atoms), so sorting
        # makes the sum bit-identical across them.
        return np.sort(terms, axis=1).sum(axis=1) * self.scale


# Most unordered neighbor pairs one center may form for one angular group.
# With the default 16-column G4+G5 group a pair costs about 0.8 KB of
# temporaries (measured: a one-atom 1.0 Å cell at 6 Å, 399,171 pairs, 330 MB),
# so the cap keeps one center within a 1 GB budget.
_MAX_CENTER_PAIRS = 1_000_000


def _pair_geometry(dist, disp, species, pair, structure_id: str):
    """(r_ij, r_ik, r_jk, cos_theta) over the unordered neighbor pairs of one
    center whose elements match ``pair``."""
    e1, e2 = pair
    ia, ib = np.flatnonzero(species == e1), np.flatnonzero(species == e2)
    n_pairs = len(ia) * (len(ia) - 1) // 2 if e1 == e2 else len(ia) * len(ib)
    if n_pairs > _MAX_CENTER_PAIRS:
        raise UserInputError(
            f"structure {structure_id!r}: one atom has {n_pairs} {e1}-{e2} neighbor pairs, "
            f"more than {_MAX_CENTER_PAIRS}; the cell is too dense for the cutoff"
        )
    if e1 == e2:
        a, b = np.triu_indices(len(ia), k=1)
        a, b = ia[a], ia[b]
    else:
        a = np.repeat(ia, len(ib))
        b = np.tile(ib, len(ia))
    r_ij = dist[a]
    r_ik = dist[b]
    da, db = disp[a], disp[b]
    r_jk = np.linalg.norm(db - da, axis=1)
    with np.errstate(invalid="ignore"):
        cos = np.einsum("ij,ij->i", da, db) / (r_ij * r_ik)
    return r_ij, r_ik, r_jk, np.clip(cos, -1.0, 1.0)


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

    def column_layout(self) -> tuple[tuple[str, str], ...]:
        return tuple((e, lbl) for e in self.blocks for lbl in self.columns[e])


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
        # Huge parameters overflow to inf or nan; the check below reports
        # them, so numpy's warnings would only print ahead of that error.
        with np.errstate(over="ignore", invalid="ignore"):
            for row, i in zip(block, centers):
                dist, disp = nlist.distances[i], nlist.displacements[i]
                neighbors = species[nlist.indices[i]]
                for group in sfset.groups[e]:
                    row[group.cols] = group.evaluate(dist, disp, neighbors, s.id)
        if not np.all(np.isfinite(block)):
            raise UserInputError(f"non-finite descriptor value in structure {s.id!r}, element {e}")
        block.setflags(write=False)
        blocks[e] = block
    return DescriptorMatrix(
        structure_id=s.id,
        tag=s.tag,
        blocks=blocks,
        columns=sfset.labels,
    )


def compute_dataset_descriptors(
    structures: Sequence[Structure],
    sfset: SymmetryFunctionSet,
) -> list[DescriptorMatrix]:
    """Descriptor matrices for many structures, in input order."""
    return [compute_structure_descriptors(s, sfset) for s in structures]
