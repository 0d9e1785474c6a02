"""Symmetry-function values: hand-computed cases and invariance properties."""

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
    angular_g4,
    angular_g5,
    build_supercell,
    compute_structure_descriptors,
    cutoff_value,
    neighbor_list,
    radial_g2,
)
from dvlae.config import GridConfig, build_symmetry_functions
from dvlae.descriptors import _Group, _pair_indices

from conftest import dyadic_structure, permute_atoms, random_rotation, random_structure, rigid_transform

WIDE = CutoffParams(inner=2.0, outer=3.0)


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
        assert radial_g2(np.array([1.0]), p, WIDE) == 1.0

    def test_dimer_centered_gaussian(self):
        p = RadialParams(eta=4.0, r_s=1.0, neighbor_element="A")
        assert radial_g2(np.array([1.0]), p, WIDE) == 1.0

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
        assert radial_g2(np.array([]), p, WIDE) == 0.0

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
        direct = angular_g4(np.array([1.0]), np.array([1.0]), np.array([1.0]),
                            np.array([0.5]), p, WIDE)
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
        values = [radial_g2(np.array([r]), p, cut) for r in np.linspace(0.5, 4.5, 50)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def per_column_reference(s, sf):
    """Descriptor blocks column by column through the scalar reference
    functions, with each center's pairs enumerated one by one."""
    nl = neighbor_list(s, sf.max_cutoff)
    blocks = {}
    for e in sf.elements:
        rows = []
        for i in s.element_indices(e):
            row = []
            for dd in sf.descriptors[e]:
                p, cut = dd.params, dd.cutoff
                idx = np.flatnonzero(nl.distances[i] < cut.outer)
                dist, disp = nl.distances[i][idx], nl.displacements[i][idx]
                sp = [s.species[j] for j in nl.indices[i][idx]]
                if isinstance(p, RadialParams):
                    d = np.array([r for r, x in zip(dist, sp) if x == p.neighbor_element])
                    row.append(radial_g2(d, p, cut))
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
                if p.kind == "G4":
                    row.append(angular_g4(r_ij, r_ik, r_jk, cos, p, cut))
                else:
                    row.append(angular_g5(r_ij, r_ik, cos, p, cut))
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
            p4, p5 = (AngularParams(eta, zeta, lam, k, ("Fe", "H")) for k in ("G4", "G5"))
            assert angular_g4(r_ij, r_ik, r_jk, cos, p4, cut) == np.sort(g4).sum() * scale
            assert angular_g5(r_ij, r_ik, cos, p5, cut) == np.sort(g5).sum() * scale
            for k in range(len(cos)):       # one term at a time: no sum hides a last bit
                one = slice(k, k + 1)
                assert angular_g4(r_ij[one], r_ik[one], r_jk[one], cos[one], p4, cut) == g4[k] * scale
                assert angular_g5(r_ij[one], r_ik[one], cos[one], p5, cut) == g5[k] * scale

    def test_equals_per_column_reference_functions(self, rng):
        sf = self.symmetry_functions()
        cluster = isolated(("Fe", "H", "H", "Fe", "H", "Fe", "Fe", "Fe"),
                           [[0, 0, 0], [0.9, 0, 0], [0, 1.1, 0.3], [3.5, 0, 0],
                            [-1.0, -0.8, 0.5], [0, 0, -9.0], [0, 0, -11.0], [20.0, 0, 0]])
        nl = neighbor_list(cluster, sf.max_cutoff)
        assert [cluster.species[j] for j in nl.indices[5]] == ["Fe"]     # no H neighbor
        assert nl.n_neighbors(7) == 0
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
        centers = s.element_indices(e)
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
            got = group.angular(r_ij, r_ik, r_jk, cos, fc)
            assert got.tobytes() == ref.angular(r_ij, r_ik, r_jk, cos).tobytes(), (name, n)

    def test_random_radial_distances(self, rng):
        params = [RadialParams(eta, r_s, "H") for eta in (0.0, 0.5, 4.0, 0.5)
                  for r_s in (0.0, 1.5)]
        group = _Group(self.CUT, "H", list(enumerate(params)))
        ref = ReferenceGroup(self.CUT, params)
        for n in (0, 1, 5, 8, 17, 200):
            d = np.sort(rng.uniform(0.5, 4.5, n))
            got = group.radial(d, cutoff_value(d, self.CUT))
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
