"""Symmetry-function values: hand-computed cases and invariance properties."""

import dataclasses
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvlae import (
    AngularParams,
    CutoffParams,
    DescriptorDef,
    RadialParams,
    Structure,
    SymmetryFunctionSet,
    UserInputError,
    build_supercell,
    compute_dataset_descriptors,
    compute_structure_descriptors,
    cutoff_value,
    neighbor_list,
    parallel,
)
import dvlae.descriptors as desc
from dvlae.config import GridConfig, build_symmetry_functions
from dvlae.descriptors import _Group, _pair_indices

from conftest import dyadic_structure, permute_atoms, random_rotation, random_structure, rigid_transform

WIDE = CutoffParams(inner=2.0, outer=3.0)
HAS_PROC = Path("/proc/self/task").is_dir()


def isolated(species, positions, ident="mol"):
    return Structure(cell=np.zeros((3, 3)), species=species, positions=positions,
                     periodic=(False,) * 3, id=ident)


class TestCutoff:
    def test_zero_at_outer_radius(self):
        assert cutoff_value(3.0, WIDE) == 0.0
        assert cutoff_value(4.5, WIDE) == 0.0

    def test_one_inside_inner_radius(self):
        assert cutoff_value(1.0, WIDE) == 1.0
        assert cutoff_value(0.0, WIDE) == 1.0

    def test_midpoint_value(self):
        assert cutoff_value(2.5, WIDE) == pytest.approx(0.5, abs=1e-15)

    def test_continuity_at_both_radii(self):
        cut = CutoffParams(inner=1.7, outer=4.3)
        eps = 1e-4 * (cut.outer - cut.inner)
        assert abs(cutoff_value(cut.outer - eps, cut)) <= 1e-6
        assert abs(cutoff_value(cut.inner + eps, cut) - 1.0) <= 1e-6

    def test_flat_slope_at_radii(self):
        cut = CutoffParams(inner=1.7, outer=4.3)
        h = 1e-5
        for r in (cut.inner, cut.outer):
            slope = (cutoff_value(r + h, cut) - cutoff_value(r - h, cut)) / (2 * h)
            assert abs(slope) <= 1e-3

    def test_monotone_non_increasing(self):
        cut = CutoffParams(inner=0.5, outer=5.0)
        r = np.linspace(0.0, 6.0, 2000)
        f = cutoff_value(r, cut)
        assert np.all(np.diff(f) <= 1e-15)

    def test_bad_radii_rejected(self):
        with pytest.raises(UserInputError):
            CutoffParams(inner=3.0, outer=3.0)
        with pytest.raises(UserInputError):
            CutoffParams(inner=-0.1, outer=3.0)
        for inner, outer in [(float("nan"), 3.0), (0.0, float("nan")), (1.0, float("inf"))]:
            with pytest.raises(UserInputError, match="need 0 <= inner < outer < inf"):
                CutoffParams(inner=inner, outer=outer)


class TestRadial:
    def test_dimer_flat_gaussian(self):
        p = RadialParams(eta=0.0, r_s=0.0, neighbor_element="A")
        assert ReferenceGroup(WIDE, [p]).radial(np.array([1.0]))[0] == 1.0

    def test_dimer_centered_gaussian(self):
        p = RadialParams(eta=4.0, r_s=1.0, neighbor_element="A")
        assert ReferenceGroup(WIDE, [p]).radial(np.array([1.0]))[0] == 1.0

    def test_simple_cubic_coordination(self):
        s = Structure(cell=np.eye(3), species=("A",), positions=[[0, 0, 0]],
                      periodic=(True,) * 3, id="sc")
        cut = CutoffParams(inner=1.2, outer=1.3)
        sf = SymmetryFunctionSet(elements=("A",), descriptors={
            "A": (DescriptorDef(RadialParams(0.0, 0.0, "A"), cut),)})
        m = compute_structure_descriptors(s, sf)
        assert m.blocks["A"][0, 0] == 6.0

    def test_empty_neighborhood(self):
        p = RadialParams(eta=1.0, r_s=0.0, neighbor_element="A")
        assert ReferenceGroup(WIDE, [p]).radial(np.array([]))[0] == 0.0

    @pytest.mark.parametrize("r_s", [float("nan"), float("inf"), -1.0])
    def test_bad_center_rejected(self, r_s):
        with pytest.raises(UserInputError, match="r_s must be finite and >= 0"):
            RadialParams(eta=1.0, r_s=r_s, neighbor_element="A")


class TestAngular:
    @pytest.mark.parametrize("zeta", [float("nan"), float("inf"), -1.0])
    def test_bad_zeta_rejected(self, zeta):
        with pytest.raises(UserInputError, match="zeta must be finite and >= 0"):
            AngularParams(0.0, zeta, 1, "G4", ("A", "A"))

    def test_dimer_has_no_pairs(self):
        s = isolated(("A", "A"), [[0, 0, 0], [1, 0, 0]])
        sf = SymmetryFunctionSet(elements=("A",), descriptors={"A": (
            DescriptorDef(AngularParams(0.0, 1.0, 1, "G4", ("A", "A")), WIDE),
            DescriptorDef(AngularParams(0.0, 1.0, 1, "G5", ("A", "A")), WIDE),
        )})
        m = compute_structure_descriptors(s, sf)
        assert np.array_equal(m.blocks["A"], np.zeros((2, 2)))

    @pytest.mark.parametrize("lam,expected", [(1, 1.5), (-1, 0.5)])
    def test_equilateral_triangle_g4(self, lam, expected):
        # one unordered pair per vertex, cos(60deg) = 1/2; ordered-pair
        # counting would give twice these values
        side = 1.0
        tri = isolated(("A",) * 3,
                       [[0, 0, 0], [side, 0, 0], [side / 2, side * np.sqrt(3) / 2, 0]])
        sf = SymmetryFunctionSet(elements=("A",), descriptors={"A": (
            DescriptorDef(AngularParams(0.0, 1.0, lam, "G4", ("A", "A")), WIDE),)})
        m = compute_structure_descriptors(tri, sf)
        assert m.blocks["A"][:, 0] == pytest.approx([expected] * 3, abs=1e-12)

    @pytest.mark.parametrize("lam,expected", [(-1, 2.0), (1, 0.0)])
    def test_collinear_g5(self, lam, expected):
        lin = isolated(("A", "B", "A"), [[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
        cut = CutoffParams(inner=1.5, outer=2.0)
        sf = SymmetryFunctionSet(elements=("A", "B"), descriptors={
            "A": (DescriptorDef(RadialParams(0.0, 0.0, "B"), cut),),
            "B": (DescriptorDef(AngularParams(0.0, 1.0, lam, "G5", ("A", "A")), cut),),
        })
        m = compute_structure_descriptors(lin, sf)
        assert m.blocks["B"][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_zeta_zero_uses_zero_power_zero_is_one(self):
        # collinear geometry, lam=+1 makes the angular base exactly 0
        lin = isolated(("A", "B", "A"), [[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
        cut = CutoffParams(inner=1.5, outer=2.0)
        sf = SymmetryFunctionSet(elements=("A", "B"), descriptors={
            "A": (DescriptorDef(RadialParams(0.0, 0.0, "B"), cut),),
            "B": (DescriptorDef(AngularParams(0.0, 0.0, 1, "G5", ("A", "A")), cut),),
        })
        m = compute_structure_descriptors(lin, sf)
        assert m.blocks["B"][0, 0] == pytest.approx(2.0, abs=1e-12)  # 2^(1-0) * 0^0

    def test_g4_includes_jk_distance_taper(self):
        # arms inside cutoff, far vertex separation outside: G4 term dies, G5 lives
        d = 1.9
        mol = isolated(("B", "A", "A"), [[0, 0, 0], [d, 0, 0], [-d, 0, 0]])
        cut = CutoffParams(inner=1.95, outer=2.0)
        g4 = AngularParams(0.0, 1.0, -1, "G4", ("A", "A"))
        g5 = AngularParams(0.0, 1.0, -1, "G5", ("A", "A"))
        sf = SymmetryFunctionSet(elements=("A", "B"), descriptors={
            "A": (DescriptorDef(RadialParams(0.0, 0.0, "B"), cut),),
            "B": (DescriptorDef(g4, cut), DescriptorDef(g5, cut)),
        })
        m = compute_structure_descriptors(mol, sf)
        assert m.blocks["B"][0, 0] == 0.0            # f_c(R_jk = 3.8) = 0
        assert m.blocks["B"][0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_elementary_functions_match_structure_path(self):
        tri = isolated(("A",) * 3,
                       [[0, 0, 0], [1.0, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
        p = AngularParams(0.7, 2.0, 1, "G4", ("A", "A"))
        sf = SymmetryFunctionSet(elements=("A",), descriptors={
            "A": (DescriptorDef(p, WIDE),)})
        via_structure = compute_structure_descriptors(tri, sf).blocks["A"][0, 0]
        direct = ReferenceGroup(WIDE, [p]).angular(np.array([1.0]), np.array([1.0]),
                                                   np.array([1.0]), np.array([0.5]))[0]
        assert via_structure == pytest.approx(direct, abs=1e-12)


class TestStructureMatrices:
    def test_shape_contract(self):
        s = isolated(("H", "H"), [[0, 0, 0], [0.9, 0, 0]])
        cut = CutoffParams(inner=2.0, outer=3.0)
        sf = SymmetryFunctionSet(elements=("H",), descriptors={"H": tuple(
            DescriptorDef(RadialParams(eta, 0.0, "H"), cut) for eta in (0.0, 0.5, 1.0)
        )})
        m = compute_structure_descriptors(s, sf)
        assert m.blocks["H"].shape == (2, 3)

    def test_absent_element_block_empty(self, rng):
        s = dyadic_structure(rng, "fe", elements=("Fe",), n_atoms=3)
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=4.0))
        m = compute_structure_descriptors(s, sf)
        assert m.blocks["H"].shape[0] == 0
        assert m.blocks["Fe"].shape[0] == 3

    def test_missing_species_raises(self, rng):
        s = random_structure(rng, "s", elements=("Fe", "H"))
        sf = build_symmetry_functions(("Fe",), GridConfig(cutoff=4.0))
        with pytest.raises(UserInputError, match="H"):
            compute_structure_descriptors(s, sf)

    def test_rigid_motion_invariance(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(
            cutoff=4.0, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,)))
        worst = 0.0
        for i in range(10):
            s = random_structure(rng, f"s{i}")
            moved = rigid_transform(s, random_rotation(rng), rng.uniform(-5, 5, 3))
            a = compute_structure_descriptors(s, sf)
            b = compute_structure_descriptors(moved, sf)
            for e in ("Fe", "H"):
                if a.blocks[e].size:
                    worst = max(worst, float(np.max(np.abs(a.blocks[e] - b.blocks[e]))))
        assert worst <= 1e-9

    def test_permutation_invariance_exact(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(
            cutoff=4.0, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,)))
        for i in range(10):
            s = random_structure(rng, f"s{i}", n_atoms=6)
            perm = rng.permutation(6)
            a = compute_structure_descriptors(s, sf)
            b = compute_structure_descriptors(permute_atoms(s, perm), sf)
            for e in ("Fe", "H"):
                rows_a = sorted(map(tuple, a.blocks[e]))
                rows_b = sorted(map(tuple, b.blocks[e]))
                assert rows_a == rows_b   # multiset equality, exact

    def test_supercell_per_atom_invariance(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(
            cutoff=4.0, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,)))
        s = random_structure(rng, "p", n_atoms=3)
        sup = build_supercell(s, (2, 1, 2))
        a = compute_structure_descriptors(s, sf)
        b = compute_structure_descriptors(sup, sf)
        for e in ("Fe", "H"):
            if a.blocks[e].size:
                tiled = np.tile(a.blocks[e], (4, 1))
                assert np.max(np.abs(b.blocks[e] - tiled)) <= 1e-9

    def test_supercell_bitwise_for_dyadic_structures(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=5.0))
        for i in range(5):
            s = dyadic_structure(rng, f"d{i}")
            sup = build_supercell(s, (2, 1, 1))
            a = compute_structure_descriptors(s, sf)
            b = compute_structure_descriptors(sup, sf)
            for e in ("Fe", "H"):
                assert np.array_equal(b.blocks[e], np.tile(a.blocks[e], (2, 1)))

    def test_monotone_envelope_radial(self):
        # eta = 0, r_s = 0: moving the only neighbor outward never increases G2
        p = RadialParams(0.0, 0.0, "A")
        cut = CutoffParams(inner=1.0, outer=4.0)
        values = [ReferenceGroup(cut, [p]).radial(np.array([r]))[0]
                  for r in np.linspace(0.5, 4.5, 50)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def per_column_reference(s, sf):
    """Descriptor blocks column by column, each through a one-column
    ``ReferenceGroup``, with each center's pairs enumerated one by one."""
    nl = neighbor_list(s, sf.max_cutoff)
    blocks = {}
    for e in sf.elements:
        rows = []
        for i in [j for j, x in enumerate(s.species) if x == e]:
            row = []
            for dd in sf.descriptors[e]:
                p, cut = dd.params, dd.cutoff
                idx = np.flatnonzero(nl.distances[i] < cut.outer)
                dist, disp = nl.distances[i][idx], nl.displacements[i][idx]
                sp = [s.species[j] for j in nl.indices[i][idx]]
                if isinstance(p, RadialParams):
                    d = np.array([r for r, x in zip(dist, sp) if x == p.neighbor_element])
                    row.append(ReferenceGroup(cut, [p]).radial(d)[0])
                    continue
                e1, e2 = p.element_pair
                n = len(idx)
                if e1 == e2:
                    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                             if sp[a] == sp[b] == e1]
                else:
                    pairs = [(a, b) for a in range(n) if sp[a] == e1
                             for b in range(n) if sp[b] == e2]
                a = np.array([pr[0] for pr in pairs], dtype=int)
                b = np.array([pr[1] for pr in pairs], dtype=int)
                r_ij, r_ik = dist[a], dist[b]
                r_jk = np.linalg.norm(disp[b] - disp[a], axis=1)
                cos = np.clip(np.einsum("ij,ij->i", disp[a], disp[b]) / (r_ij * r_ik), -1.0, 1.0)
                row.append(ReferenceGroup(cut, [p]).angular(r_ij, r_ik, r_jk, cos)[0])
            rows.append(row)
        blocks[e] = np.array(rows, dtype=float).reshape(len(rows), len(sf.descriptors[e]))
    return blocks


class TestGroupedKernel:
    def symmetry_functions(self):
        grid = GridConfig(
            cutoff=4.5, inner_cutoff=1.0, radial_eta=(0.0, 0.7, 3.0), radial_rs=(0.0, 1.5),
            angular_eta=(0.0, 0.3), zeta=(0.0, 0.5, 1.0, 2.0, 4.0), lam=(-1, 1),
            overrides={("radial_eta", "H-Fe"): (0.5,), ("zeta", "Fe-H-H"): (2.0, 16.0),
                       ("angular_eta", "H-Fe-H"): (0.1, 0.2, 0.4)})
        base = build_symmetry_functions(("Fe", "H"), grid)
        short = CutoffParams(inner=0.5, outer=2.5)
        extra = (
            DescriptorDef(RadialParams(1.0, 0.5, "Fe"), short),
            DescriptorDef(AngularParams(0.2, 2.0, 1, "G4", ("Fe", "H")), short),
            DescriptorDef(AngularParams(0.2, 0.5, -1, "G5", ("H", "H")), short),
            DescriptorDef(RadialParams(0.0, 0.0, "H"), short),
        )
        return SymmetryFunctionSet(elements=("Fe", "H"), descriptors={
            e: base.descriptors[e] + extra for e in ("Fe", "H")})

    def test_groups_of_different_sizes(self):
        sf = self.symmetry_functions()
        for e in sf.elements:
            assert len({len(g.cols) for g in sf.groups[e]}) > 1
            cols = np.concatenate([g.cols for g in sf.groups[e]])
            assert sorted(cols.tolist()) == list(range(len(sf.descriptors[e])))

    def test_one_angular_group_per_cutoff_and_element_pair(self):
        sf = self.symmetry_functions()
        for e in sf.elements:
            want = {}
            for col, d in enumerate(sf.descriptors[e]):
                if isinstance(d.params, AngularParams):
                    want.setdefault((d.cutoff, d.params.element_pair), []).append(col)
            groups = [g for g in sf.groups[e] if not g.is_radial]
            assert len(groups) == len(want) == 5
            mixed = 0
            for g in groups:
                assert g.cols.tolist() == want[(g.cut, g.neighbors)]
                kinds = [sf.descriptors[e][c].params.kind for c in g.cols]
                is_g4 = [k == "G4" for k in kinds]
                assert g.gauss_g4[g.gauss_row].ravel().tolist() == is_g4
                assert g.taper_g4[g.taper_row].ravel().tolist() == is_g4
                mixed += set(kinds) == {"G4", "G5"}
            assert mixed == 3       # every pair at the long cutoff has both families

    def test_pair_cap_raises_before_building_pairs(self, monkeypatch):
        import dvlae.descriptors as desc

        sf = build_symmetry_functions(("Fe",), GridConfig(cutoff=2.0))
        s = isolated(("Fe",) * 5, [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
        assert max(n * (n - 1) // 2 for n in map(len, neighbor_list(s, 2.0).indices)) == 6
        monkeypatch.setattr(desc, "_MAX_CENTER_PAIRS", 6)
        compute_structure_descriptors(s, sf)
        monkeypatch.setattr(desc, "_MAX_CENTER_PAIRS", 5)
        monkeypatch.setattr(desc, "_pair_indices", None)       # never reached
        monkeypatch.setattr(desc, "_pair_geometry", None)      # nor any pair's geometry
        with pytest.raises(UserInputError, match="'mol': one atom has 6 Fe-Fe neighbor pairs"):
            compute_structure_descriptors(s, sf)

    def test_rows_follow_documented_evaluation_order(self, rng):
        # Each term is (ang * gauss) * taper, with G4's r_jk factors added last:
        # (r_ij^2 + r_ik^2) + r_jk^2 and (fc_ij * fc_ik) * fc_jk.
        cut = CutoffParams(inner=1.0, outer=4.0)
        r_ij, r_ik, r_jk = rng.uniform(1.0, 4.0, (3, 200))
        cos = rng.uniform(-1.0, 1.0, 200)
        fc_ij, fc_ik, fc_jk = (cutoff_value(r, cut) for r in (r_ij, r_ik, r_jk))
        for eta, zeta, lam in ((0.0, 1.0, 1), (0.3, 0.5, -1), (1.7, 4.0, 1), (0.2, 0.0, -1)):
            ang = np.power(1.0 + float(lam) * cos, zeta)
            g4 = ang * np.exp(-eta * ((r_ij ** 2 + r_ik ** 2) + r_jk ** 2)) * ((fc_ij * fc_ik) * fc_jk)
            g5 = ang * np.exp(-eta * (r_ij ** 2 + r_ik ** 2)) * (fc_ij * fc_ik)
            scale = 2.0 ** (1.0 - zeta)
            for kind, terms in (("G4", g4), ("G5", g5)):
                p = AngularParams(eta, zeta, lam, kind, ("Fe", "H"))
                group = _Group(cut, p.element_pair, [(0, p)])
                got = group.reduce(group.terms(r_ij, r_ik, r_jk, cos, fc_ij * fc_ik))
                assert got[0] == np.sort(terms).sum() * scale
                for k in range(len(cos)):   # one term at a time: no sum hides a last bit
                    one = slice(k, k + 1)
                    got = group.reduce(group.terms(r_ij[one], r_ik[one], r_jk[one], cos[one],
                                                   fc_ij[one] * fc_ik[one]))
                    assert got[0] == terms[k] * scale

    def test_equals_per_column_reference_functions(self, rng):
        sf = self.symmetry_functions()
        cluster = isolated(("Fe", "H", "H", "Fe", "H", "Fe", "Fe", "Fe"),
                           [[0, 0, 0], [0.9, 0, 0], [0, 1.1, 0.3], [3.5, 0, 0],
                            [-1.0, -0.8, 0.5], [0, 0, -9.0], [0, 0, -11.0], [20.0, 0, 0]])
        nl = neighbor_list(cluster, sf.max_cutoff)
        assert [cluster.species[j] for j in nl.indices[5]] == ["Fe"]     # no H neighbor
        assert len(nl.indices[7]) == 0
        structures = [cluster] + [random_structure(rng, f"s{k}", n_atoms=int(rng.integers(2, 7)),
                                                   unwrapped=True) for k in range(12)]
        for s in structures:
            m = compute_structure_descriptors(s, sf)
            want = per_column_reference(s, sf)
            for e in sf.elements:
                assert np.array_equal(m.blocks[e], want[e]), (s.id, e)


class ReferenceGroup:
    """The grouped kernel as first written, kept literally as an oracle: one
    broadcast row of every factor per column, parameters as (columns, 1)
    arrays, pair geometry and tapers built inside the call."""

    def __init__(self, cut, params):
        self.cut = cut
        self.eta = np.array([[p.eta] for p in params], dtype=float)
        if isinstance(params[0], RadialParams):
            self.r_s = np.array([[p.r_s] for p in params], dtype=float)
            return
        self.g4 = np.array([[p.kind == "G4"] for p in params])
        self.lam = np.array([[p.lam] for p in params], dtype=float)
        zetas = [p.zeta for p in params]
        self.zeta_rows = [(z, [k for k, x in enumerate(zetas) if x == z])
                          for z in dict.fromkeys(zetas)]
        self.scale = np.array([2.0 ** (1.0 - z) for z in zetas])

    def radial(self, d):
        return (np.exp(-self.eta * (d - self.r_s) ** 2) * cutoff_value(d, self.cut)).sum(axis=1)

    def angular(self, r_ij, r_ik, r_jk, cos_theta):
        base = 1.0 + self.lam * cos_theta
        ang = np.empty_like(base)
        for z, rows in self.zeta_rows:
            ang[rows] = np.power(base[rows], z)
        r2 = r_ij ** 2 + r_ik ** 2
        fc = cutoff_value(r_ij, self.cut) * cutoff_value(r_ik, self.cut)
        gauss = np.exp(-self.eta * np.where(self.g4, r2 + r_jk ** 2, r2))
        taper = np.where(self.g4, fc * cutoff_value(r_jk, self.cut), fc)
        terms = ang * gauss * taper
        return np.sort(terms, axis=1).sum(axis=1) * self.scale


def reference_pair_geometry(dist, disp, species, pair):
    e1, e2 = pair
    ia, ib = np.flatnonzero(species == e1), np.flatnonzero(species == e2)
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


def reference_blocks(s, sf):
    """Descriptor blocks through ``ReferenceGroup``, grouped by (cutoff,
    neighbor element or element pair) and masked by cutoff per group."""
    nl = neighbor_list(s, sf.max_cutoff)
    species = np.array(s.species, dtype=str)
    blocks = {}
    for e in sf.elements:
        groups = {}
        for col, dd in enumerate(sf.descriptors[e]):
            p = dd.params
            key = (dd.cutoff, p.neighbor_element if isinstance(p, RadialParams) else p.element_pair)
            groups.setdefault(key, []).append((col, p))
        centers = [i for i, x in enumerate(s.species) if x == e]
        block = np.empty((len(centers), len(sf.descriptors[e])))
        for row, i in zip(block, centers):
            dist, disp = nl.distances[i], nl.displacements[i]
            neighbors = species[nl.indices[i]]
            for (cut, nb), members in groups.items():
                cols, params = (list(x) for x in zip(*members))
                ref = ReferenceGroup(cut, params)
                within = dist < cut.outer
                if isinstance(params[0], RadialParams):
                    row[cols] = ref.radial(dist[within & (neighbors == nb)])
                else:
                    row[cols] = ref.angular(*reference_pair_geometry(
                        dist[within], disp[within], neighbors[within], nb))
        blocks[e] = block
    return blocks


ORACLE_ZETAS = (0.0, 0.5, 1.0, 2.0, 4.0, 16.0)


def angular_members(pair, etas=(0.0, 0.3), zetas=ORACLE_ZETAS, lams=(-1, 1), kinds=("G4", "G5")):
    return [AngularParams(eta, z, lam, kind, pair)
            for kind in kinds for eta in etas for z in zetas for lam in lams]


class TestKernelMatchesReference:
    """The shared-factor kernel against ``ReferenceGroup``, byte for byte."""

    CUT = CutoffParams(inner=1.0, outer=4.0)
    PARAMETER_SETS = {
        "full grid": angular_members(("Fe", "H")),
        "duplicate columns": (angular_members(("Fe", "H"), etas=(0.3,), zetas=(2.0, 0.5))
                              + angular_members(("Fe", "H"), etas=(0.3, 0.0), zetas=(0.5,))
                              + angular_members(("Fe", "H"), etas=(0.3,), zetas=(2.0,))),
        "G4 only": angular_members(("H", "H"), kinds=("G4",)),
        "G5 only": angular_members(("H", "H"), kinds=("G5",)),
        "one column": [AngularParams(0.7, 16.0, -1, "G5", ("H", "H"))],
        "zeta order": [AngularParams(0.1, z, lam, kind, ("Fe", "H"))
                       for z, lam, kind in ((4.0, 1, "G5"), (0.0, -1, "G4"), (4.0, -1, "G4"),
                                            (0.5, 1, "G4"), (0.0, 1, "G5"), (4.0, 1, "G5"))],
    }

    @pytest.mark.parametrize("name", sorted(PARAMETER_SETS))
    def test_random_geometries(self, name, rng):
        params = self.PARAMETER_SETS[name]
        group = _Group(self.CUT, params[0].element_pair, list(enumerate(params)))
        ref = ReferenceGroup(self.CUT, params)
        for n in (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 1000):
            r_ij, r_ik, r_jk = rng.uniform(0.5, 4.5, (3, n))
            cos = rng.uniform(-1.0, 1.0, n)
            cos[rng.random(n) < 0.2] = rng.choice([-1.0, 0.0, 1.0])   # degenerate angles
            fc = cutoff_value(r_ij, self.CUT) * cutoff_value(r_ik, self.CUT)
            got = group.reduce(group.terms(r_ij, r_ik, r_jk, cos, fc))
            assert got.tobytes() == ref.angular(r_ij, r_ik, r_jk, cos).tobytes(), (name, n)

    def test_random_radial_distances(self, rng):
        params = [RadialParams(eta, r_s, "H") for eta in (0.0, 0.5, 4.0, 0.5)
                  for r_s in (0.0, 1.5)]
        group = _Group(self.CUT, "H", list(enumerate(params)))
        ref = ReferenceGroup(self.CUT, params)
        for n in (0, 1, 5, 8, 17, 200):
            d = np.sort(rng.uniform(0.5, 4.5, n))
            got = group.reduce(group.terms(d, cutoff_value(d, self.CUT)))
            assert got.tobytes() == ref.radial(d).tobytes()

    def test_pair_indices_follow_triu_order(self, rng):
        for n in range(12):
            ia = np.sort(rng.choice(40, n, replace=False))
            a, b = np.triu_indices(n, k=1)
            got = _pair_indices(ia, ia, True)
            assert [x.tolist() for x in got] == [ia[a].tolist(), ia[b].tolist()]

    def symmetry_functions(self):
        # Per-pair overrides, two cutoffs, duplicate columns, and G4-only and
        # G5-only groups at the short cutoff.
        grid = GridConfig(
            cutoff=4.5, inner_cutoff=1.0, radial_eta=(0.0, 0.7), radial_rs=(0.0, 1.5),
            angular_eta=(0.0, 0.3), zeta=ORACLE_ZETAS, lam=(-1, 1),
            overrides={("radial_eta", "H-Fe"): (0.5, 0.5), ("zeta", "Fe-H-H"): (2.0, 16.0),
                       ("angular_eta", "H-Fe-H"): (0.1, 0.2, 0.1)})
        base = build_symmetry_functions(("Fe", "H"), grid)
        short = CutoffParams(inner=0.5, outer=2.5)
        extra = tuple(DescriptorDef(p, short) for p in (
            RadialParams(1.0, 0.5, "Fe"),
            AngularParams(0.2, 2.0, 1, "G4", ("Fe", "H")),
            AngularParams(0.2, 0.5, -1, "G5", ("H", "H")),
            AngularParams(0.2, 2.0, 1, "G4", ("Fe", "H")),
            AngularParams(0.0, 0.0, 1, "G4", ("Fe", "Fe")),
        ))
        return SymmetryFunctionSet(elements=("Fe", "H"), descriptors={
            e: base.descriptors[e] + extra for e in ("Fe", "H")})

    def test_random_structures(self, rng):
        sf = self.symmetry_functions()
        kinds = {e: {(g.cut, g.neighbors): {sf.descriptors[e][c].params.kind for c in g.cols}
                     for g in sf.groups[e] if not g.is_radial} for e in sf.elements}
        assert {"G4"} in kinds["Fe"].values() and {"G5"} in kinds["Fe"].values()
        structures = [random_structure(rng, f"s{k}", n_atoms=int(rng.integers(1, 7)),
                                       unwrapped=True) for k in range(150)]
        structures += [isolated(("Fe", "H", "H", "Fe"),
                                [[0, 0, 0], [0.9, 0, 0], [0, 1.1, 0.3], [0, 0, 9.0]])]
        for s in structures:
            m = compute_structure_descriptors(s, sf)
            want = reference_blocks(s, sf)
            for e in sf.elements:
                assert m.blocks[e].tobytes() == want[e].tobytes(), (s.id, e)


def batch_corpus(rng):
    """Random periodic cells, wrapped and unwrapped, then in shuffled places:
    molecules with a center that has no neighbor and with collinear and
    right angles, a cell lacking H, and supercells, one of them large enough
    to be a batch of its own."""
    structures = [random_structure(rng, f"r{k}", n_atoms=int(rng.integers(1, 7)),
                                   unwrapped=bool(k % 2)) for k in range(60)]
    structures += [
        isolated(("Fe", "H", "H", "Fe"), [[0, 0, 0], [0.9, 0, 0], [0, 1.1, 0.3], [0, 0, 9.0]],
                 "lone"),
        isolated(("H", "Fe", "H", "Fe", "H"),
                 [[-1, 0, 0], [0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], "angles"),
        random_structure(rng, "fe-only", elements=("Fe",), n_atoms=3),
        build_supercell(random_structure(rng, "small", n_atoms=2), (2, 1, 2)),
        build_supercell(random_structure(rng, "big", n_atoms=1), (4, 4, 4)),
    ]
    return [structures[i] for i in rng.permutation(len(structures))]


class TestBatches:
    """Blocks described in batches, of any split and on any worker count,
    against ``reference_blocks`` byte for byte, on the two-cutoff set of
    ``TestKernelMatchesReference`` (zeta = 0 included)."""

    @pytest.fixture(scope="class")
    def corpus(self):
        sf = TestKernelMatchesReference().symmetry_functions()
        structures = batch_corpus(np.random.default_rng(23))
        assert max(s.n_atoms for s in structures) >= desc._ALONE_ATOMS
        return sf, structures, [reference_blocks(s, sf) for s in structures]

    @staticmethod
    def assert_reference(corpus, got):
        sf, structures, want = corpus
        assert len(got) == len(structures)
        for s, blocks, ref in zip(structures, got, want):
            assert list(blocks) == list(sf.elements)
            for e in sf.elements:
                assert blocks[e].shape == ref[e].shape, (s.id, e)
                assert blocks[e].tobytes() == ref[e].tobytes(), (s.id, e)
                assert not blocks[e].flags.writeable

    def test_one_structure_per_batch(self, corpus):
        sf, structures, _ = corpus
        self.assert_reference(corpus, [desc._describe([s], sf)[0] for s in structures])

    @pytest.mark.parametrize("chunk_terms", [1, "one pair", None, 1 << 24])
    def test_all_structures_in_one_batch(self, monkeypatch, corpus, chunk_terms):
        # Budgets of one term (every row with a term is a chunk of its own),
        # of one pair of the widest pool, the default, and whole pools.
        sf, structures, _ = corpus
        if chunk_terms == "one pair":
            chunk_terms = max(len(g.cols) for e in sf.elements for g in sf.groups[e])
        if chunk_terms is not None:
            monkeypatch.setattr(desc, "_CHUNK_TERMS", chunk_terms)
        self.assert_reference(corpus, desc._describe(structures, sf))

    @staticmethod
    def chunk_log(monkeypatch):
        """Record each evaluation of a pool's chunk as (the group it is
        evaluated as, [(rows, count) of each run of equal counts])."""
        chunks = []
        terms, reduce = desc._Group.terms, desc._Group.reduce

        def chunk(g, *geometry):
            chunks.append((g, []))
            return terms(g, *geometry)

        def run(g, values):
            chunks[-1][1].append(values.shape[1:])
            return reduce(g, values)

        monkeypatch.setattr(desc._Group, "terms", chunk)
        monkeypatch.setattr(desc._Group, "reduce", run)
        return chunks

    def test_chunks_split_runs_and_take_a_row_over_the_budget_alone(self, monkeypatch, corpus):
        sf, structures, _ = corpus
        width = max(len(g.cols) for e in sf.elements for g in sf.groups[e])
        monkeypatch.setattr(desc, "_CHUNK_TERMS", 12 * width)
        chunks = self.chunk_log(monkeypatch)
        self.assert_reference(corpus, desc._describe(structures, sf))
        split = alone = 0
        for (g, runs), (h, after) in zip(chunks, chunks[1:] + [(None, [])]):
            counts = [n for _, n in runs]
            assert counts == sorted(set(counts))        # one run per count, ascending
            pairs = sum(rows * n for rows, n in runs)
            if pairs > desc._CHUNK_TERMS // len(g.cols):
                assert runs == [(1, pairs)]
                alone += 1
            if h is g:                                  # the pool's next chunk
                assert after[0][1] >= runs[-1][1]
                split += after[0][1] == runs[-1][1]
        assert split and alone

    def test_pools_differ_in_neighbor_elements_alone(self, corpus):
        # Per-triplet overrides keep some angular groups out of their
        # element's pool; the rest pool, as the radial groups do.
        sf, _, _ = corpus
        sizes = {True: [], False: []}
        for e in sf.elements:
            pools = {}
            for g in sf.groups[e]:
                pools.setdefault(g.key, []).append(g)
            for pool in pools.values():
                # Each group's columns with the neighbor element(s) blanked.
                name, blank = (("neighbor_element", "-") if pool[0].is_radial
                               else ("element_pair", ("-", "-")))
                columns = {tuple(dataclasses.replace(sf.descriptors[e][c].params, **{name: blank})
                                 for c in g.cols) for g in pool}
                assert len(columns) == 1 and len({g.cut for g in pool}) == 1
                assert len({g.neighbors for g in pool}) == len(pool)
                sizes[pool[0].is_radial].append(len(pool))
        assert max(sizes[True]) > 1 and max(sizes[False]) > 1 and min(sizes[False]) == 1

    def test_memory_of_the_largest_bulk_cell(self):
        # The benchmark's 250-atom FeH cell at 6 Å, whose centers each form
        # 1,540 to 3,136 pairs per group.  The bounds are the tracemalloc
        # peaks of the per-group bucket kernel this one replaced: 7,761,866
        # bytes for the whole call (the neighbor search sets it) and
        # 2,483,732 above the neighbor arrays (measured here: 7,645,041 and
        # 2,332,624, numpy 2.4).
        rng = np.random.default_rng(0)
        cell = 2.65 * (np.eye(3) + rng.uniform(-0.002, 0.002, (3, 3)))
        frac = np.array([[0, 0, 0], [0.5, 0.5, 0.5]]) + rng.uniform(-0.02, 0.02, (2, 3))
        big = build_supercell(Structure(cell=cell, species=("Fe", "H"), positions=frac @ cell,
                                        periodic=(True,) * 3, id="FeH"), (5, 5, 5))
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=6.0))
        want = compute_structure_descriptors(big, sf)
        found = desc._neighbors(big, sf)
        tracemalloc.start()
        try:
            compute_structure_descriptors(big, sf)
            whole = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(desc, "_neighbors", lambda s, sfset: found)
                got = desc._describe_run([big], sf)[0]
            kernel = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert all(got[e].tobytes() == want.blocks[e].tobytes() for e in sf.elements)
        assert whole <= 7_761_866
        assert kernel <= 2_483_732

    @pytest.mark.parametrize("seed", range(4))
    def test_random_splits(self, corpus, seed):
        sf, structures, _ = corpus
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.choice(np.arange(1, len(structures)), int(rng.integers(1, 12)),
                                  replace=False))
        parts = np.split(np.arange(len(structures)), cuts)
        got = [blocks for part in parts
               for blocks in desc._describe([structures[i] for i in part], sf)]
        self.assert_reference(corpus, got)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("batch_atoms", [0, 40, None])
    def test_any_worker_count(self, monkeypatch, corpus, workers, batch_atoms):
        sf, structures, _ = corpus
        runs = _pool_runs(monkeypatch, workers)
        if batch_atoms is not None:
            monkeypatch.setattr(desc, "_BATCH_ATOMS", batch_atoms)
        got = compute_dataset_descriptors(structures, sf)
        assert runs == ([] if workers == 1 else [workers])
        assert [m.structure_id for m in got] == [s.id for s in structures]
        self.assert_reference(corpus, [m.blocks for m in got])

    @staticmethod
    def describe_runs(monkeypatch):
        """Record the number of structures of each ``_describe_run`` call."""
        runs = []
        describe_run = desc._describe_run

        def spy(batch, sfset):
            runs.append(len(batch))
            return describe_run(batch, sfset)

        monkeypatch.setattr(desc, "_describe_run", spy)
        return runs

    def test_a_batch_that_meets_no_error_is_described_once(self, monkeypatch, corpus):
        sf, structures, _ = corpus
        runs = self.describe_runs(monkeypatch)
        self.assert_reference(corpus, desc._describe(structures, sf))
        assert runs == [len(structures)]

    def test_a_batch_holding_a_center_that_could_pass_the_cap_is_described_one_at_a_time(
            self, monkeypatch, corpus):
        # At a cap equal to the most pairs any group of the corpus has, no
        # structure fails, but one with a center whose neighbors could form
        # more pairs than that stops the batch, which is described again one
        # structure at a time.
        sf, structures, _ = corpus
        most = 0
        for s in structures:
            nl = neighbor_list(s, sf.max_cutoff)
            species = np.array(s.species)
            for i, e in enumerate(s.species):
                for g in sf.groups[e]:
                    if not g.is_radial:
                        near = species[nl.indices[i][nl.distances[i] < g.cut.outer]]
                        e1, e2 = g.neighbors
                        n1, n2 = np.count_nonzero(near == e1), np.count_nonzero(near == e2)
                        most = max(most, n1 * (n1 - 1) // 2 if e1 == e2 else n1 * n2)
        monkeypatch.setattr(desc, "_MAX_CENTER_PAIRS", most)
        runs = self.describe_runs(monkeypatch)
        self.assert_reference(corpus, desc._describe(structures, sf))
        assert runs == [len(structures)] + [1] * len(structures)

    @pytest.mark.parametrize("seed", range(6))
    def test_batches_are_runs_under_the_atom_and_work_budgets(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, desc._ALONE_ATOMS, 400)
        sizes[rng.random(400) < 0.02] = desc._ALONE_ATOMS + rng.integers(0, 200)
        edges = np.where(rng.random(400) < 0.5, 3.0, 8.0)    # dense and sparse cells
        structures = [types.SimpleNamespace(n_atoms=int(n), periodic=(True,) * 3,
                                            cell=np.eye(3) * edge)
                      for n, edge in zip(sizes, edges)]
        work = np.array([desc._work(s, 5.0) for s in structures])
        batches = desc._batches(structures, list(work))
        assert [i for b in batches for i in b] == list(range(len(sizes)))
        alone = sizes >= desc._ALONE_ATOMS
        share = work[~alone].sum() / -(-sizes[~alone].sum() // desc._BATCH_ATOMS)
        for b, after in zip(batches, batches[1:] + [None]):
            atoms, done = sizes[b.start:b.stop].sum(), work[b.start:b.stop].sum()
            if len(b) > 1:
                assert not alone[b.start:b.stop].any()
                assert atoms <= desc._BATCH_ATOMS and done <= share
            # A batch of small structures ends only where the next one is
            # large or would take it over a budget.
            if after is not None and not alone[b.start] and not alone[after.start]:
                nxt = after.start
                assert (atoms + sizes[nxt] > desc._BATCH_ATOMS
                        or done + work[nxt] > share), (b, after)

    def test_work_estimate(self):
        cell = types.SimpleNamespace(n_atoms=2, periodic=(True, True, False), cell=np.eye(3) * 2.0)
        molecule = types.SimpleNamespace(n_atoms=5, periodic=(False,) * 3, cell=np.zeros((3, 3)))
        k = 2 / 8.0 * 4.0 / 3.0 * np.pi * 3.0 ** 3
        assert desc._work(cell, 3.0) == pytest.approx(2 * (1 + k * k))
        assert desc._work(molecule, 3.0) == 5 * (1 + 4 * 4)


ERROR_CUT = CutoffParams(inner=2.0, outer=3.0)


def error_set(elements=("Fe", "H")):
    """Fe centers with an H-H column whose zeta of 1e308 is non-finite at any
    acute angle (inf times a scale of 0), H centers with an Fe-Fe column."""
    cols = {
        "Fe": (DescriptorDef(RadialParams(0.5, 0.0, "H"), ERROR_CUT),
               DescriptorDef(AngularParams(0.0, 1e308, 1, "G5", ("H", "H")), ERROR_CUT)),
        "H": (DescriptorDef(RadialParams(0.5, 0.0, "Fe"), ERROR_CUT),
              DescriptorDef(AngularParams(0.0, 1.0, 1, "G5", ("Fe", "Fe")), ERROR_CUT)),
    }
    return SymmetryFunctionSet(elements=elements, descriptors={e: cols[e] for e in elements})


def error_structures():
    """With a pair cap of 2: "fine" is described, "nan" has a non-finite
    Fe value, "tiny" fails its neighbor search, "capped" has an H center
    with 6 Fe-Fe pairs, and "both" has both a non-finite Fe value and that
    H center."""
    cross = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    return {
        "fine": isolated(("Fe", "H"), [[0, 0, 0], [1, 0, 0]], "fine"),
        "nan": isolated(("Fe", "H", "H"), [[0, 0, 0], [1, 0, 0], [0.8, 0.6, 0]], "nan"),
        "tiny": Structure(cell=np.eye(3) * 0.05, species=("Fe",), positions=np.zeros((1, 3)),
                          periodic=(True,) * 3, id="tiny"),
        "capped": isolated(("H",) + ("Fe",) * 4, [[0, 0, 0]] + cross, "capped"),
        "both": isolated(("Fe", "H", "H", "Fe", "Fe", "Fe"),
                         [[0, 0, 0], [1, 0, 0], [0.8, 0.6, 0], [2, 0, 0], [1, 1, 0], [1, -1, 0]],
                         "both"),
    }


NAN = "non-finite descriptor value in structure '{}', element Fe"
CAPPED = "structure '{}': one atom has 6 Fe-Fe neighbor pairs, more than 2; the cell is too dense"
TINY = "structure 'tiny': a 3.0 Å cutoff needs 1860867 periodic images of its cell"


class TestBatchErrors:
    """Inside a batch, as across batches, the error is the serial loop's:
    that of the first failing structure, and within it the first one its
    evaluation meets (the element check, the neighbor search, then per
    element in order a center over the pair cap and a non-finite value)."""

    CASES = [
        (("Fe", "H"), ("nan", "tiny"), NAN.format("nan")),
        (("Fe", "H"), ("tiny", "nan"), TINY),
        (("Fe", "H"), ("capped", "nan"), CAPPED.format("capped")),
        (("Fe", "H"), ("nan", "capped"), NAN.format("nan")),
        (("Fe", "H"), ("both", "capped"), NAN.format("both")),
        (("H", "Fe"), ("both", "nan"), CAPPED.format("both")),
        (("H", "Fe"), ("nan", "both"), NAN.format("nan")),
    ]

    def cases(self, monkeypatch):
        monkeypatch.setattr(desc, "_MAX_CENTER_PAIRS", 2)
        found = error_structures()
        fine = [dataclasses.replace(found["fine"], id=f"fine{k}") for k in range(6)]
        for elements, names, message in self.CASES:
            yield (error_set(elements), fine[:3] + [found[n] for n in names] + fine[3:], message)

    def test_in_one_batch_and_one_per_batch(self, monkeypatch):
        for sf, structures, message in self.cases(monkeypatch):
            with pytest.raises(UserInputError, match=re.escape(message)):
                desc._describe(structures, sf)
            with pytest.raises(UserInputError, match=re.escape(message)):
                for s in structures:        # the loop over single structures
                    compute_structure_descriptors(s, sf)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("batch_atoms", [0, 3, None])
    def test_any_split_and_worker_count(self, monkeypatch, workers, batch_atoms):
        _pool_runs(monkeypatch, workers)
        if batch_atoms is not None:
            monkeypatch.setattr(desc, "_BATCH_ATOMS", batch_atoms)
        for sf, structures, message in self.cases(monkeypatch):
            with pytest.raises(UserInputError, match=re.escape(message)):
                compute_dataset_descriptors(structures, sf)
        assert multiprocessing.active_children() == []

    def test_the_first_center_and_group_over_the_cap_is_named(self, monkeypatch):
        # The first Fe center has 3 Fe and 3 H neighbors, over the cap in
        # every angular group; the second has 4 Fe neighbors (6 pairs).
        monkeypatch.setattr(desc, "_MAX_CENTER_PAIRS", 2)
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=2.0))
        assert [g.neighbors for g in sf.groups["Fe"] if not g.is_radial] == [
            ("Fe", "Fe"), ("Fe", "H"), ("H", "H")]
        s = isolated(("H", "Fe", "Fe", "Fe", "Fe", "H", "H", "Fe"),
                     [[-1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0],
                      [0, 0, -1], [2.5, 0, 0]], "dense")
        fine = error_structures()["fine"]
        with pytest.raises(UserInputError, match="'dense': one atom has 3 Fe-Fe neighbor pairs"):
            desc._describe([fine, s, fine], sf)

    def test_no_neighbor_list_after_a_structure_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(desc, "_MAX_CENTER_PAIRS", 2)
        found = error_structures()
        searched = []
        neighbors = desc._neighbors

        def counting(s, sfset):
            searched.append(s.id)
            return neighbors(s, sfset)

        monkeypatch.setattr(desc, "_neighbors", counting)
        after = [dataclasses.replace(found["fine"], id=f"after{k}") for k in range(5)]
        with pytest.raises(UserInputError, match=re.escape(CAPPED.format("capped"))):
            desc._describe([found["fine"], found["capped"]] + after, error_set())
        # The batch stops after "capped", and is described again one
        # structure at a time up to it.
        assert searched == ["fine", "capped"] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("names, error, message", [
        (("boom",), RuntimeError, "boom failed"),
        (("nan", "boom"), UserInputError, re.escape(NAN.format("nan"))),
        (("boom", "nan"), RuntimeError, "boom failed"),
    ])
    def test_any_exception_of_a_batch_is_the_serial_one(self, monkeypatch, workers, names,
                                                        error, message):
        # The batch meets "boom"'s failed neighbor search before any value of
        # "nan" exists; described again one structure at a time, it raises
        # the first failing structure's error.  A 64-atom molecule is a
        # second batch, so that two workers fork.
        runs = _pool_runs(monkeypatch, workers)
        found = error_structures()
        found["boom"] = dataclasses.replace(found["fine"], id="boom")
        neighbors = desc._neighbors

        def failing(s, sfset):
            if s.id == "boom":
                raise RuntimeError("boom failed")
            return neighbors(s, sfset)

        monkeypatch.setattr(desc, "_neighbors", failing)
        fine = [dataclasses.replace(found["fine"], id=f"fine{k}") for k in range(4)]
        far = isolated(("Fe",) * desc._ALONE_ATOMS,
                       [[10.0 * i, 0, 0] for i in range(desc._ALONE_ATOMS)], "far")
        structures = fine[:3] + [found[n] for n in names] + fine[3:] + [far]
        sf = error_set()
        assert len(desc._batches(structures, [desc._work(s, sf.max_cutoff) for s in structures])) == 2
        with pytest.raises(error, match=message):
            compute_dataset_descriptors(structures, sf)
        assert runs == ([] if workers == 1 else [2])
        assert multiprocessing.active_children() == []

    def test_the_pair_cap_is_checked_before_any_pair_of_the_batch(self, monkeypatch):
        # A center over the cap in the first structure: the batch stops there,
        # so no pair of any of its structures is built.
        monkeypatch.setattr(desc, "_MAX_CENTER_PAIRS", 2)
        found = error_structures()
        monkeypatch.setattr(desc, "_pair_indices", None)       # never reached
        monkeypatch.setattr(desc, "_pair_geometry", None)      # nor any pair's geometry
        with pytest.raises(UserInputError, match=re.escape(CAPPED.format("capped"))):
            desc._describe([found["capped"], found["nan"], found["both"]], error_set(("H", "Fe")))


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=2.5, max_value=8.0),
)
def test_cutoff_range_property(r, inner, outer):
    value = cutoff_value(r, CutoffParams(inner=inner, outer=outer))
    assert 0.0 <= value <= 1.0


def test_angular_params_validation():
    with pytest.raises(UserInputError):
        AngularParams(0.0, 1.0, 2, "G4", ("A", "A"))
    with pytest.raises(UserInputError):
        AngularParams(0.0, -1.0, 1, "G4", ("A", "A"))
    with pytest.raises(UserInputError):
        AngularParams(0.0, 1.0, 1, "G6", ("A", "A"))


def test_max_cutoff_is_the_largest_outer_radius_set_once():
    sf = SymmetryFunctionSet(elements=("A", "B"), descriptors={
        "A": (DescriptorDef(RadialParams(0.0, 0.0, "B"), CutoffParams(1.0, 2.5)),),
        "B": (DescriptorDef(RadialParams(0.0, 0.0, "A"), CutoffParams(0.5, 4.0)),
              DescriptorDef(RadialParams(1.0, 0.0, "A"), CutoffParams(0.5, 3.0))),
    })
    assert sf.max_cutoff == 4.0
    assert vars(sf)["max_cutoff"] == 4.0        # a stored value, not recomputed per structure


# ---------------------------------------------------------------------------
# The process pool of compute_dataset_descriptors
# ---------------------------------------------------------------------------

def _pool_runs(monkeypatch, workers, min_atoms=0):
    """Pretend the process may run on ``workers`` CPUs, pool from
    ``min_atoms`` atoms on, and record the worker count of every forked pool."""
    monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
    monkeypatch.setattr(desc, "_POOL_MIN_ATOMS", min_atoms)
    runs = []
    forked_workers = parallel._forked_workers

    def spy(n):
        runs.append(n)
        return forked_workers(n)

    monkeypatch.setattr(parallel, "_forked_workers", spy)
    return runs


def _planted(monkeypatch, plan, log=None):
    """Make describing a structure named in ``plan`` (id -> (seconds,
    exception or None)) sleep that long, then raise that exception or go on;
    with ``log``, append every described id to that file first.  Every
    structure is a batch of its own, so each is one task of the pool."""
    monkeypatch.setattr(desc, "_BATCH_ATOMS", 0)
    compute = desc._neighbors

    def planted(s, sfset):
        if log is not None:
            with open(log, "a") as f:
                f.write(s.id + "\n")
        seconds, exc = plan.get(s.id, (0.0, None))
        time.sleep(seconds)
        if exc is not None:
            raise exc
        return compute(s, sfset)

    monkeypatch.setattr(desc, "_neighbors", planted)


# Ten structures on two workers: one worker takes a minute over c0 (and
# writes its pid to BUSY first), the other, its chunks done, waits on its pipe.
SLOW_RUN = """
import os
import time

import numpy as np

import dvlae.descriptors as desc
from dvlae import parallel
from dvlae.config import GridConfig, build_symmetry_functions
from conftest import dyadic_structure

parallel.cpu_count = lambda: 2
desc._POOL_MIN_ATOMS = 0
desc._BATCH_ATOMS = 0
compute = desc._neighbors

def slow(s, sfset):
    if s.id == "c0":
        with open(BUSY, "w") as f:
            f.write(str(os.getpid()))
        time.sleep(60)
    return compute(s, sfset)

desc._neighbors = slow
rng = np.random.default_rng(1)
structures = [dyadic_structure(rng, f"c{k}", n_atoms=5) for k in range(10)]
desc.compute_dataset_descriptors(structures, build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=4.0)))
"""


def _live(pid):
    """Whether process ``pid`` runs (a zombie has ended)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _slow_run(tmp_path):
    """Start SLOW_RUN in a session of its own; once the busy worker sleeps
    and the other had time to finish: (process, its workers, the busy one)."""
    tests = Path(__file__).resolve().parent
    busy = tmp_path / "busy"
    script = tmp_path / "run.py"
    script.write_text(f"BUSY = {str(busy)!r}\n" + SLOW_RUN)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.Popen([sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    deadline = time.monotonic() + 60
    while not (busy.exists() and busy.read_text()) and proc.poll() is None \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    if not (busy.exists() and busy.read_text()):
        os.killpg(proc.pid, signal.SIGKILL)
        pytest.fail(f"no worker took the slow structure: {proc.communicate()[1]}")
    workers = Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text().split()
    time.sleep(0.5)     # the other nine structures take milliseconds
    return proc, [int(w) for w in workers], int(busy.read_text())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool needs the fork start method")
class TestPool:
    """Structures spread over forked workers give the serial result."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(17)
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=4.0))
        small = [dyadic_structure(rng, f"c{k}", n_atoms=int(rng.integers(3, 8)))
                 for k in range(20)]
        big = build_supercell(random_structure(rng, "big", n_atoms=4), (3, 3, 3))
        assert big.n_atoms >= 100
        many = [random_structure(rng, f"r{k}", n_atoms=int(rng.integers(1, 7)), unwrapped=True)
                for k in range(150)]
        structures = small + [big] + many
        return sf, structures, [compute_structure_descriptors(s, sf) for s in structures]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_equal_serial_for_any_worker_count(self, monkeypatch, corpus, workers):
        sf, structures, serial = corpus
        runs = _pool_runs(monkeypatch, workers)
        got = compute_dataset_descriptors(structures, sf)
        assert runs == ([] if workers == 1 else [workers])
        assert [m.structure_id for m in got] == [s.id for s in structures]
        for m, want in zip(got, serial):
            assert m.tag == want.tag
            assert m.columns is sf.labels
            # one layout per set, shared by all of its matrices
            assert m.column_layout() is want.column_layout() is sf.column_layout()
            assert list(m.blocks) == list(want.blocks)
            for e, block in m.blocks.items():
                assert block.tobytes() == want.blocks[e].tobytes(), (m.structure_id, e)
                assert block.shape == want.blocks[e].shape
                assert not block.flags.writeable
        assert multiprocessing.active_children() == []

    def test_serial_below_the_atom_threshold_or_without_fork(self, monkeypatch, corpus):
        sf, structures, _ = corpus
        few = structures[:3]
        runs = _pool_runs(monkeypatch, 2, min_atoms=sum(s.n_atoms for s in few) + 1)
        compute_dataset_descriptors(few, sf)
        assert runs == []
        monkeypatch.setattr(desc, "_POOL_MIN_ATOMS", 0)
        compute_dataset_descriptors(few[:1], sf)     # one structure: one worker
        assert runs == []
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        compute_dataset_descriptors(few, sf)
        assert runs == []

    @pytest.mark.parametrize("early, late", [
        (UserInputError("early structure is bad"), RuntimeError("late bug")),
        (RuntimeError("early bug"), UserInputError("late structure is bad")),
    ])
    def test_first_failure_in_input_order_wins(self, monkeypatch, corpus, early, late):
        sf, structures, _ = corpus
        batch = structures[:21]
        # The early one is slow to fail, the late one fails at once.
        _planted(monkeypatch, {batch[1].id: (0.5, early), batch[-2].id: (0.0, late)})
        runs = _pool_runs(monkeypatch, 2)
        with pytest.raises(type(early), match=str(early)):
            compute_dataset_descriptors(batch, sf)
        assert runs == [2]
        assert multiprocessing.active_children() == []

    def test_stops_once_the_first_failure_is_known(self, monkeypatch, corpus, tmp_path):
        sf, structures, _ = corpus
        big, small = structures[20], structures[:20] + structures[21:41]
        # The first structure is the largest, so it is handed out first, and
        # fails at once; every other one takes 0.1 s.
        log = tmp_path / "described.txt"
        plan = {s.id: (0.1, None) for s in small}
        plan[big.id] = (0.0, UserInputError("first is bad"))
        _planted(monkeypatch, plan, log)
        _pool_runs(monkeypatch, 2)
        with pytest.raises(UserInputError, match="first is bad"):
            compute_dataset_descriptors([big] + small, sf)
        # Not the 41 a pool that ran to the end would describe.
        assert len(log.read_text().split()) < 10

    def test_exception_that_cannot_be_pickled_is_raised(self, monkeypatch, corpus):
        class Local(Exception):     # a local class cannot be pickled by reference
            pass

        sf, structures, _ = corpus
        _planted(monkeypatch, {structures[2].id: (0.0, Local("not picklable"))})
        runs = _pool_runs(monkeypatch, 2)
        with pytest.raises(Local, match="not picklable"):
            compute_dataset_descriptors(structures[:10], sf)
        assert runs == [2]

    def test_a_killed_worker_is_an_error_not_a_hang(self, monkeypatch, corpus):
        sf, structures, _ = corpus
        compute = desc._neighbors

        def killed(s, sfset):
            if s.id == structures[3].id:     # as the kernel's out-of-memory killer would
                os.kill(os.getpid(), signal.SIGKILL)
            return compute(s, sfset)

        monkeypatch.setattr(desc, "_BATCH_ATOMS", 0)
        monkeypatch.setattr(desc, "_neighbors", killed)
        _pool_runs(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=f"exited with code {-signal.SIGKILL}"):
            compute_dataset_descriptors(structures[:10], sf)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not HAS_PROC, reason="lists the workers through /proc")
    def test_sigterm_to_the_process_group_while_a_worker_waits(self, tmp_path):
        # The waiting worker dies too, which must not keep the clean-up from
        # ending every process.
        proc, workers, _ = _slow_run(tmp_path)
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            _, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert len(workers) == 2
        assert proc.returncode in (128 + signal.SIGTERM, -signal.SIGTERM)
        assert "Traceback" not in err, err
        assert [w for w in workers if _live(w)] == []

    @pytest.mark.skipif(not HAS_PROC, reason="lists the workers through /proc")
    def test_a_waiting_worker_ends_with_a_killed_parent(self, tmp_path):
        proc, workers, busy = _slow_run(tmp_path)
        try:
            proc.kill()
            proc.wait()
            waiting = [w for w in workers if w != busy]
            deadline = time.monotonic() + 10
            while any(map(_live, waiting)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(waiting) == 1 and not _live(waiting[0])
        finally:
            for w in workers:
                if _live(w):
                    os.kill(w, signal.SIGKILL)
            proc.stdout.close()
            proc.stderr.close()
