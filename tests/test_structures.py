"""Parsing, supercells, and neighbor lists against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvlae import (
    ParseError,
    Structure,
    UserInputError,
    build_supercell,
    make_dataset,
    neighbor_list,
    parse_extxyz,
    read_manifest,
    to_extxyz,
)

from conftest import random_structure

TWO_H_FRAME = """2
Lattice="5 0 0 0 5 0 0 0 5" Properties=species:S:1:pos:R:3
H 0.0 0.0 0.0
H 0.0 0.0 0.74
"""


class TestParseExtxyz:
    def test_single_frame(self):
        ds = parse_extxyz(TWO_H_FRAME, source="h2.xyz")
        assert len(ds) == 1
        s = ds.structures[0]
        assert s.n_atoms == 2
        assert s.species == ("H", "H")
        assert np.array_equal(s.cell, np.diag([5.0, 5.0, 5.0]))
        assert s.periodic == (True, True, True)
        assert s.id == "h2.xyz#0"

    def test_empty_stream(self):
        ds = parse_extxyz("")
        assert len(ds) == 0

    def test_atom_count_mismatch_cites_frame(self):
        bad = '3\nLattice="5 0 0 0 5 0 0 0 5"\nH 0 0 0\nH 0 0 1\n'
        with pytest.raises(ParseError, match="frame 0"):
            parse_extxyz(bad)

    def test_malformed_atom_count(self):
        with pytest.raises(ParseError, match="atom count"):
            parse_extxyz("two\ncomment\n")

    def test_unparsable_coordinate_cites_line(self):
        bad = "1\ncomment\nH 0.0 oops 0.0\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_extxyz(bad)

    def test_missing_lattice_gives_nonperiodic(self):
        ds = parse_extxyz("1\nProperties=species:S:1:pos:R:3\nH 0 0 0\n")
        assert ds.structures[0].periodic == (False, False, False)

    def test_extra_property_columns_ignored(self):
        text = (
            "1\n"
            'Lattice="4 0 0 0 4 0 0 0 4" Properties=species:S:1:pos:R:3:forces:R:3 energy=-1.5\n'
            "H 1.0 2.0 3.0 0.1 0.2 0.3\n"
        )
        s = parse_extxyz(text).structures[0]
        assert np.allclose(s.positions[0], [1.0, 2.0, 3.0])

    def test_tag_key_is_kept(self):
        text = '1\nLattice="4 0 0 0 4 0 0 0 4" tag="alpha phase"\nH 0 0 0\n'
        assert parse_extxyz(text).structures[0].tag == "alpha phase"

    def test_multi_frame_ids_and_order(self):
        ds = parse_extxyz(TWO_H_FRAME + TWO_H_FRAME, source="d.xyz")
        assert ds.ids() == ("d.xyz#0", "d.xyz#1")

    def test_roundtrip(self, rng):
        structures = [random_structure(rng, f"s{i}", unwrapped=True) for i in range(5)]
        ds = parse_extxyz(to_extxyz(structures), source="rt")
        assert len(ds) == 5
        for orig, back in zip(structures, ds.structures):
            assert back.species == orig.species
            assert np.array_equal(back.positions, orig.positions)
            assert np.array_equal(back.cell, orig.cell)

    def test_pbc_flags_set_periodic_directions(self):
        text = '1\nLattice="4 0 0 0 4 0 0 0 20" pbc="T T F"\nH 0 0 0\n'
        s = parse_extxyz(text).structures[0]
        assert s.periodic == (True, True, False)
        assert 'pbc="T T F"' in to_extxyz([s])
        assert parse_extxyz(to_extxyz([s])).structures[0].periodic == (True, True, False)

    def test_fully_periodic_roundtrip_writes_no_pbc(self):
        s = parse_extxyz(TWO_H_FRAME).structures[0]
        assert "pbc" not in to_extxyz([s])
        assert to_extxyz(parse_extxyz(to_extxyz([s])).structures) == to_extxyz([s])

    @pytest.mark.parametrize("pbc", ['pbc="T T"', 'pbc="T T X"', 'pbc="True True False"',
                                     'pbc="T"'])
    def test_bad_pbc_cites_line(self, pbc):
        text = f'1\nLattice="4 0 0 0 4 0 0 0 4" {pbc}\nH 0 0 0\n'
        with pytest.raises(ParseError, match="line 2"):
            parse_extxyz(text)

    def test_periodic_pbc_without_lattice_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_extxyz('1\npbc="T T T"\nH 0 0 0\n')

    def test_non_finite_lattice_rejected(self):
        with pytest.raises(UserInputError, match="non-finite"):
            parse_extxyz('1\nLattice="nan 0 0 0 4 0 0 0 4"\nH 0 0 0\n')

    def test_duplicate_ids_rejected(self):
        s = parse_extxyz(TWO_H_FRAME, source="a").structures[0]
        with pytest.raises(UserInputError, match="duplicate"):
            make_dataset([s, s])


def test_read_manifest(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "m.txt").write_text("# comment\na.xyz\n\n/abs/b.xyz  # trailing\n")
    files = read_manifest(tmp_path / "sub" / "m.txt")
    assert files == [tmp_path / "sub" / "a.xyz", __import__("pathlib").Path("/abs/b.xyz")]


class TestSupercell:
    def test_identity(self, rng):
        s = random_structure(rng, "s")
        out = build_supercell(s, (1, 1, 1))
        assert np.array_equal(out.cell, s.cell)
        assert np.array_equal(out.positions, s.positions)
        assert out.species == s.species

    def test_2x1x1(self):
        s = Structure(
            cell=np.diag([3.0, 4.0, 5.0]), species=("Fe", "H"),
            positions=[[0, 0, 0], [1.5, 2.0, 2.5]], periodic=(True,) * 3, id="p",
        )
        out = build_supercell(s, (2, 1, 1))
        assert out.n_atoms == 4
        assert np.array_equal(out.cell, np.diag([6.0, 4.0, 5.0]))
        # cell-index lexicographic, then original atom order
        assert out.species == ("Fe", "H", "Fe", "H")
        assert np.array_equal(out.positions[2], [3.0, 0.0, 0.0])

    def test_volume_scaling(self, rng):
        for i in range(20):
            s = random_structure(rng, f"s{i}")
            reps = tuple(int(r) for r in rng.integers(1, 4, 3))
            out = build_supercell(s, reps)
            v0 = abs(np.linalg.det(s.cell))
            v1 = abs(np.linalg.det(out.cell))
            assert abs(v1 - np.prod(reps) * v0) <= 1e-12 * v1

    def test_zero_rep_rejected(self, rng):
        with pytest.raises(UserInputError):
            build_supercell(random_structure(rng, "s"), (0, 1, 1))

    def test_nonperiodic_direction_rejected(self):
        s = Structure(cell=np.eye(3), species=("H",), positions=[[0, 0, 0]],
                      periodic=(True, True, False), id="slab")
        with pytest.raises(UserInputError):
            build_supercell(s, (1, 1, 2))


# ---------------------------------------------------------------------------
# Neighbor lists
# ---------------------------------------------------------------------------

def oracle_neighbors(s: Structure, r_c: float):
    """Brute force: for each pair, enumerate every image shift that could
    possibly fall inside r_c (bound from the cell geometry), keep 0 < d < r_c.

    Returns per-center sets of (j, shift, distance).
    """
    n = s.n_atoms
    out = [set() for _ in range(n)]
    periodic = any(s.periodic)
    if periodic:
        inv = np.linalg.inv(s.cell)
        frac = s.positions @ inv
        reach = r_c * np.linalg.norm(inv, axis=0)
    for i in range(n):
        for j in range(n):
            if periodic:
                delta = frac[j] - frac[i]
                ranges = []
                for k in range(3):
                    if s.periodic[k]:
                        lo = math.floor(-delta[k] - reach[k]) - 1
                        hi = math.ceil(-delta[k] + reach[k]) + 1
                        ranges.append(range(lo, hi + 1))
                    else:
                        ranges.append(range(0, 1))
            else:
                ranges = [range(0, 1)] * 3
            for sa in ranges[0]:
                for sb in ranges[1]:
                    for sc in ranges[2]:
                        shift = (sa, sb, sc)
                        if i == j and shift == (0, 0, 0):
                            continue
                        disp = s.positions[j] + np.asarray(shift, float) @ s.cell - s.positions[i]
                        d = float(np.linalg.norm(disp))
                        if 0.0 < d < r_c:
                            out[i].add((j, shift, d))
    return out


class TestNeighborList:
    def test_simple_cubic_first_shell(self):
        s = Structure(cell=np.eye(3), species=("X",), positions=[[0, 0, 0]],
                      periodic=(True,) * 3, id="sc")
        nl = neighbor_list(s, 1.1)
        assert nl.n_neighbors(0) == 6
        assert np.allclose(nl.distances[0], 1.0)

    def test_simple_cubic_two_shells(self):
        s = Structure(cell=np.eye(3), species=("X",), positions=[[0, 0, 0]],
                      periodic=(True,) * 3, id="sc")
        nl = neighbor_list(s, 1.5)
        assert nl.n_neighbors(0) == 18
        d = nl.distances[0]
        assert (np.isclose(d, 1.0).sum(), np.isclose(d, np.sqrt(2)).sum()) == (6, 12)

    def test_entries_sorted_canonically(self, rng):
        s = random_structure(rng, "s", n_atoms=4)
        nl = neighbor_list(s, 4.0)
        for i in range(s.n_atoms):
            entries = nl.entries(i)
            assert entries == sorted(entries, key=lambda e: (e[2], e[0], e[1]))

    def test_against_oracle_random_triclinic(self, rng):
        for trial in range(30):
            s = random_structure(rng, f"t{trial}", n_atoms=int(rng.integers(1, 9)),
                                 unwrapped=True)
            r_c = float(rng.uniform(1.0, 4.0))
            nl = neighbor_list(s, r_c)
            want = oracle_neighbors(s, r_c)
            for i in range(s.n_atoms):
                got = {(j, shift, d) for j, shift, d in nl.entries(i)}
                got_keys = {(j, shift) for j, shift, _ in got}
                want_keys = {(j, shift) for j, shift, _ in want[i]}
                assert got_keys == want_keys, f"structure {trial} center {i}"
                want_d = {(j, shift): d for j, shift, d in want[i]}
                for j, shift, d in got:
                    assert d == pytest.approx(want_d[(j, shift)], abs=1e-12)

    def test_neighbor_symmetry(self, rng):
        for trial in range(10):
            s = random_structure(rng, f"t{trial}", n_atoms=5)
            nl = neighbor_list(s, 3.5)
            pairs = set()
            for i in range(s.n_atoms):
                for j, shift, d in nl.entries(i):
                    pairs.add((i, j, shift, round(d, 9)))
            for i, j, shift, d in pairs:
                mirror = (j, i, tuple(-c for c in shift), d)
                assert mirror in pairs

    def test_supercell_distance_multisets(self, rng):
        s = random_structure(rng, "p", n_atoms=3)
        sup = build_supercell(s, (2, 2, 1))
        r_c = 3.0
        nl_p = neighbor_list(s, r_c)
        nl_s = neighbor_list(sup, r_c)
        for i in range(s.n_atoms):
            ref = np.sort(nl_p.distances[i])
            for image in range(4):
                got = np.sort(nl_s.distances[image * s.n_atoms + i])
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-9

    def test_translation_invariance(self, rng):
        s = random_structure(rng, "p", n_atoms=4)
        shifted = Structure(cell=s.cell, species=s.species,
                            positions=s.positions + np.array([1.3, -2.7, 0.9]),
                            periodic=s.periodic, id="p2")
        a = neighbor_list(s, 3.0)
        b = neighbor_list(shifted, 3.0)
        for i in range(s.n_atoms):
            da, db = np.sort(a.distances[i]), np.sort(b.distances[i])
            assert da.shape == db.shape
            assert np.max(np.abs(da - db), initial=0.0) <= 1e-9

    def test_cutoff_larger_than_cell(self):
        s = Structure(cell=np.eye(3), species=("X",), positions=[[0, 0, 0]],
                      periodic=(True,) * 3, id="sc")
        nl = neighbor_list(s, 2.05)
        want = oracle_neighbors(s, 2.05)
        assert nl.n_neighbors(0) == len(want[0])

    def test_nonperiodic(self):
        s = Structure(cell=np.zeros((3, 3)), species=("A", "B"),
                      positions=[[0, 0, 0], [0, 0, 2.0]], periodic=(False,) * 3, id="dim")
        nl = neighbor_list(s, 3.0)
        assert nl.entries(0) == [(1, (0, 0, 0), 2.0)]

    def test_slab_has_no_neighbors_across_nonperiodic_axis(self):
        text = '2\nLattice="3 0 0 0 3 0 0 0 3" pbc="T T F"\nH 0 0 0.5\nH 1.5 1.5 2.5\n'
        slab = parse_extxyz(text).structures[0]
        bulk = Structure(cell=slab.cell, species=slab.species, positions=slab.positions,
                         periodic=(True,) * 3, id="bulk")
        assert any(np.any(sh[:, 2] != 0) for sh in neighbor_list(bulk, 4.0).shifts)
        nl = neighbor_list(slab, 4.0)
        assert all(np.all(sh[:, 2] == 0) for sh in nl.shifts)
        assert {(j, sh) for j, sh, _ in nl.entries(0)} == \
            {(j, sh) for j, sh, _ in oracle_neighbors(slab, 4.0)[0]}

    def test_image_shift_count_capped(self):
        tiny = Structure(cell=0.05 * np.eye(3), species=("H",), positions=[[0, 0, 0]],
                         periodic=(True,) * 3, id="tiny")
        with pytest.raises(UserInputError, match="periodic images"):
            neighbor_list(tiny, 6.0)
        chain = Structure(cell=0.05 * np.eye(3), species=("H",), positions=[[0, 0, 0]],
                          periodic=(True, False, False), id="chain")
        assert neighbor_list(chain, 6.0).n_neighbors(0) == 2 * 119

    @pytest.mark.parametrize("periodic", [False, True])
    def test_zero_and_one_atom_structures(self, periodic):
        empty = Structure(cell=np.eye(3), species=(), positions=np.zeros((0, 3)),
                          periodic=(periodic,) * 3, id="empty")
        nl = neighbor_list(empty, 2.0)
        for per_center in (nl.indices, nl.shifts, nl.distances, nl.displacements):
            assert len(per_center) == 0
        one = Structure(cell=np.eye(3), species=("H",), positions=[[0.2, 0.3, 0.4]],
                        periodic=(periodic,) * 3, id="one")
        nl = neighbor_list(one, 1.1)
        for per_center in (nl.indices, nl.shifts, nl.distances, nl.displacements):
            assert len(per_center) == 1
        assert nl.n_neighbors(0) == (6 if periodic else 0)
        assert nl.shifts[0].shape == (nl.n_neighbors(0), 3)
        assert nl.displacements[0].shape == (nl.n_neighbors(0), 3)

    def test_bad_cutoff(self, rng):
        with pytest.raises(UserInputError):
            neighbor_list(random_structure(rng, "s"), 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.floats(min_value=1.0, max_value=3.0))
def test_neighbor_oracle_property(seed, r_c):
    rng = np.random.default_rng(seed)
    s = random_structure(rng, "h", n_atoms=int(rng.integers(1, 6)), unwrapped=True)
    nl = neighbor_list(s, r_c)
    want = oracle_neighbors(s, r_c)
    for i in range(s.n_atoms):
        assert {(j, sh) for j, sh, _ in nl.entries(i)} == {(j, sh) for j, sh, _ in want[i]}
