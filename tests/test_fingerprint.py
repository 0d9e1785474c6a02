"""Histogram binning, XOR fingerprints, and their serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvlae.fingerprint as fp_mod
from dvlae import (
    CutoffParams,
    DescriptorDef,
    DescriptorMatrix,
    FormatError,
    HistogramSpec,
    RadialParams,
    SymmetryFunctionSet,
    UserInputError,
    baseline_padded_descriptor,
    batch_fingerprints,
    build_histograms,
    build_supercell,
    compute_structure_descriptors,
    determine_bin_edges,
    difference_vector,
    hamming_distance,
    make_dataset,
    mean_descriptor_vectors,
    read_fingerprints,
    select_reference,
    write_fingerprints,
)
from dvlae.config import GridConfig, build_symmetry_functions
from dvlae.fingerprint import pack_bits, spec_from_json, spec_to_json

from conftest import dyadic_structure, permute_atoms


def matrix_of(values_by_column, element="X", ident="m", tag=None):
    """DescriptorMatrix with one element block from per-column value lists."""
    block = np.column_stack([np.asarray(v, float) for v in values_by_column])
    labels = tuple(f"col{i}" for i in range(len(values_by_column)))
    return DescriptorMatrix(structure_id=ident, tag=tag,
                            blocks={element: block}, columns={element: labels})


class TestBinEdges:
    def test_degenerate_column_lands_in_one_bin(self):
        m = matrix_of([[3.0, 3.0, 3.0]])
        spec = determine_bin_edges([m], k=4)
        h = build_histograms(m, spec)
        assert h.occupancy.sum() == 1
        assert h.counts.sum() == 3

    def test_extremes_fall_strictly_inside(self):
        m = matrix_of([[0.0, 0.25, 0.5, 1.0]])
        spec = determine_bin_edges([m], k=4)
        assert spec.bin_of(np.array([1.0]), 0)[0] == 3
        assert spec.bin_of(np.array([0.0]), 0)[0] == 0

    def test_affine_rescale_keeps_assignments(self, rng):
        values = rng.uniform(-2.0, 5.0, 60)
        m = matrix_of([values])
        spec = determine_bin_edges([m], k=16)
        baseline = spec.bin_of(values, 0)
        for a, b in ((2.0, 0.0), (0.5, 3.0), (10.0, -7.0)):
            m2 = matrix_of([a * values + b])
            spec2 = determine_bin_edges([m2], k=16)
            assert np.array_equal(spec2.bin_of(a * values + b, 0), baseline)

    def test_zero_bins_rejected(self):
        with pytest.raises(UserInputError):
            determine_bin_edges([matrix_of([[1.0]])], k=0)

    def test_empty_input_rejected(self):
        with pytest.raises(UserInputError):
            determine_bin_edges([], k=4)

    def test_element_with_no_atoms_anywhere_rejected(self):
        m = DescriptorMatrix(structure_id="s", tag=None,
                             blocks={"X": np.zeros((0, 1))}, columns={"X": ("col0",)})
        with pytest.raises(UserInputError, match="X"):
            determine_bin_edges([m], k=4)

    def test_checksum_tracks_contents(self):
        m = matrix_of([[0.0, 1.0]])
        a = determine_bin_edges([m], k=4)
        b = determine_bin_edges([m], k=8)
        assert a.checksum != b.checksum
        assert a.checksum == determine_bin_edges([m], k=4).checksum


class TestHistograms:
    def test_counts_and_occupancy(self):
        m = matrix_of([[0.1, 0.1, 0.9]])
        spec = HistogramSpec(bins=2, columns=(("X", "col0"),), edges=np.array([[0.0, 1.0]]))
        h = build_histograms(m, spec)
        assert h.counts.tolist() == [[2, 1]]
        assert h.occupancy.tolist() == [[True, True]]

    def test_absent_element_all_zero(self, rng):
        s = dyadic_structure(rng, "fe", elements=("Fe",), n_atoms=3)
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=4.0))
        m = compute_structure_descriptors(s, sf)
        ref = compute_structure_descriptors(
            dyadic_structure(rng, "feh", elements=("Fe", "H"), n_atoms=4), sf
        )
        spec = determine_bin_edges([m, ref], k=8)
        h = build_histograms(m, spec)
        n_fe = len(sf.descriptors["Fe"])
        assert not h.occupancy[n_fe:].any()

    def test_counts_sum_to_atom_counts(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(
            cutoff=4.0, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,)))
        mats = [
            compute_structure_descriptors(dyadic_structure(rng, f"s{i}"), sf)
            for i in range(20)
        ]
        spec = determine_bin_edges(mats, k=10)
        n_fe = len(sf.descriptors["Fe"])
        for m in mats:
            h = build_histograms(m, spec)
            fe_atoms = m.blocks["Fe"].shape[0]
            h_atoms = m.blocks["H"].shape[0]
            assert (h.counts[:n_fe].sum(axis=1) == fe_atoms).all()
            assert (h.counts[n_fe:].sum(axis=1) == h_atoms).all()

    def test_layout_mismatch_rejected(self):
        m = matrix_of([[0.5]])
        spec = HistogramSpec(bins=2, columns=(("Y", "col0"),), edges=np.array([[0.0, 1.0]]))
        with pytest.raises(UserInputError):
            build_histograms(m, spec)


def naive_edges(matrices):
    """Per-column (lo, hi) with the padding rule, one column at a time."""
    edges = []
    for e in matrices[0].blocks:
        for c in range(len(matrices[0].columns[e])):
            values = [float(v) for m in matrices for v in m.blocks[e][:, c]]
            lo, hi = min(values), max(values)
            pad = 1e-6 if hi == lo else max(1e-9, 1e-6 * (hi - lo))
            edges.append((lo - pad, hi + pad))
    return np.array(edges)


def naive_counts(m, spec):
    """Per-column bincount of the scalar bin formula, clipped to the range."""
    counts, flat = [], 0
    for e in m.blocks:
        for c in range(len(m.columns[e])):
            lo, hi = (float(x) for x in spec.edges[flat])
            idx = [min(max(int(np.floor(spec.bins * (float(v) - lo) / (hi - lo))), 0), spec.bins - 1)
                   for v in m.blocks[e][:, c]]
            counts.append(np.bincount(np.array(idx, dtype=int), minlength=spec.bins))
            flat += 1
    return np.array(counts)


def narrow_spec(matrices, bins):
    """A spec whose edges cut every column inside its data, so values fall
    below and above the range and get clipped."""
    edges = naive_edges(matrices)
    width = edges[:, 1] - edges[:, 0]
    edges += np.column_stack([0.3 * width, -0.3 * width])
    edges[width < 1e-5] += 1.0      # a degenerate column: every value below the range
    return HistogramSpec(bins=bins, columns=matrices[0].column_layout(), edges=edges)


class TestBlockPaths:
    """The per-element block code of ``determine_bin_edges`` and
    ``build_histograms`` against one-column-at-a-time oracles."""

    def matrices(self, rng):
        labels = {"Fe": ("a", "b", "flat"), "H": ("c", "d", "narrow")}
        out = []
        for k in range(7):
            n_fe, n_h = int(rng.integers(1, 5)), (0 if k % 3 == 0 else int(rng.integers(1, 4)))
            fe = np.column_stack([rng.normal(0, 2, n_fe), rng.integers(-4, 9, n_fe) / 4,
                                  np.full(n_fe, 0.25)])
            # "narrow" spreads over 2^-45, far below the relative pad's reach.
            h = np.column_stack([rng.normal(3, 1, (n_h, 2)), 1.0 + rng.integers(0, 2, n_h) * 2.0 ** -45])
            out.append(DescriptorMatrix(f"m{k}", None, {"Fe": fe, "H": h}, labels))
        return out

    def test_edges_equal_per_column_oracle(self, rng):
        mats = self.matrices(rng)
        spec = determine_bin_edges(mats, k=9)
        assert np.array_equal(spec.edges, naive_edges(mats))
        assert spec.edges[2].tolist() == [0.25 - 1e-6, 0.25 + 1e-6]

    @pytest.mark.parametrize("supplied", [False, True])
    def test_counts_equal_per_column_bincount(self, rng, supplied):
        mats = self.matrices(rng)
        spec = narrow_spec(mats, 6) if supplied else determine_bin_edges(mats, k=6)
        for m in mats:
            h = build_histograms(m, spec)
            want = naive_counts(m, spec)
            assert h.counts.dtype == np.int64
            assert np.array_equal(h.counts, want)
            assert np.array_equal(h.occupancy, want > 0)
        if supplied:
            lo, hi = spec.edges.T
            cols = {"Fe": slice(0, 3), "H": slice(3, 6)}
            assert any((m.blocks[e] < lo[c]).any() for m in mats for e, c in cols.items())
            assert any((m.blocks[e] > hi[c]).any() for m in mats for e, c in cols.items())

    @pytest.mark.parametrize("mode", fp_mod.XOR_MODES)
    @pytest.mark.parametrize("supplied", [False, True])
    def test_batch_fingerprints_equal_oracle(self, rng, mode, supplied):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(
            cutoff=4.0, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,)))
        structures = [both_elements(rng, f"s{i}", n_atoms=5) if i % 2
                      else dyadic_structure(rng, f"s{i}", elements=("Fe",), n_atoms=3)
                      for i in range(8)]
        ds = make_dataset(structures)
        mats = [compute_structure_descriptors(s, sf) for s in structures]
        spec = narrow_spec(mats, 12) if supplied else None
        fpset = batch_fingerprints(ds, structures[1], sf, k=12, xor_mode=mode, spec=spec)
        if not supplied:
            assert np.array_equal(fpset.spec.edges, naive_edges(mats))
        ref = naive_counts(mats[1], fpset.spec)
        for fp, m in zip(fpset.fingerprints, mats):
            cur = naive_counts(m, fpset.spec)
            diff = (cur > 0) ^ (ref > 0) if mode == "occupancy" else cur != ref
            assert np.array_equal(fp.bits(), diff.ravel())


class TestDifferenceVector:
    def _pair(self, cur_vals, ref_vals, k=3, mode="occupancy"):
        cur = matrix_of([cur_vals], ident="cur")
        ref = matrix_of([ref_vals], ident="ref")
        spec = determine_bin_edges([cur, ref], k=k)
        return (
            difference_vector(build_histograms(cur, spec), build_histograms(ref, spec),
                              spec, mode=mode),
            spec,
        )

    def test_identical_histograms_give_zero(self):
        d, _ = self._pair([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        assert not d.bits().any()

    def test_bitwise_definition(self):
        spec = HistogramSpec(bins=3, columns=(("X", "col0"),), edges=np.array([[0.0, 1.0]]))
        cur = fp_mod.StructureHistogram("c", None, spec.checksum,
                                        counts=np.array([[1, 0, 1]]),
                                        occupancy=np.array([[True, False, True]]))
        ref = fp_mod.StructureHistogram("r", None, spec.checksum,
                                        counts=np.array([[2, 1, 0]]),
                                        occupancy=np.array([[True, True, False]]))
        d = difference_vector(cur, ref, spec)
        assert d.bits().tolist() == [False, True, True]

    def test_swap_is_symmetric(self):
        a, spec = self._pair([0.1, 0.9], [0.4, 0.6])
        cur = matrix_of([[0.4, 0.6]], ident="x")
        ref = matrix_of([[0.1, 0.9]], ident="y")
        b = difference_vector(build_histograms(cur, spec), build_histograms(ref, spec), spec)
        assert np.array_equal(a.bits(), b.bits())

    def test_count_equality_mode_sees_count_changes(self):
        # same occupied bins, different counts
        d_occ, _ = self._pair([0.1, 0.1, 0.9], [0.1, 0.9, 0.9], k=2)
        assert not d_occ.bits().any()
        d_cnt, _ = self._pair([0.1, 0.1, 0.9], [0.1, 0.9, 0.9], k=2, mode="count-equality")
        assert d_cnt.bits().tolist() == [True, True]

    def test_checksum_mismatch_rejected(self):
        _, spec_a = self._pair([0.1], [0.2])
        cur = matrix_of([[0.3]])
        spec_b = determine_bin_edges([cur], k=5)
        h = build_histograms(cur, spec_b)
        with pytest.raises(UserInputError):
            difference_vector(h, h, spec_a)

    def test_binary_system_bit_count(self, rng):
        # 5 columns for H, 3 for Fe, 20 bins -> 160 bits
        cut = CutoffParams(inner=3.0, outer=4.0)
        sf = SymmetryFunctionSet(elements=("H", "Fe"), descriptors={
            "H": tuple(DescriptorDef(RadialParams(e, 0.0, "H"), cut)
                       for e in (0.0, 0.5, 1.0, 2.0, 4.0)),
            "Fe": tuple(DescriptorDef(RadialParams(e, 0.0, "Fe"), cut)
                        for e in (0.0, 1.0, 2.0)),
        })
        structures = [dyadic_structure(rng, f"s{i}", n_atoms=4) for i in range(4)]
        ds = make_dataset(structures)
        fpset = batch_fingerprints(ds, select_reference(ds), sf, k=20)
        assert fpset.spec.n_bits == 160
        assert all(fp.n_bits == 160 for fp in fpset.fingerprints)


def both_elements(rng, ident, n_atoms=6):
    """Dyadic structure guaranteed to contain both Fe and H."""
    while True:
        s = dyadic_structure(rng, ident, elements=("Fe", "H"), n_atoms=n_atoms)
        if {"Fe", "H"} <= set(s.species):
            return s


class TestBatch:
    def _sfset(self):
        return build_symmetry_functions(("Fe", "H"), GridConfig(
            cutoff=4.5, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,)))

    def test_reference_fingerprint_is_zero(self, rng):
        s = both_elements(rng, "only")
        ds = make_dataset([s])
        fpset = batch_fingerprints(ds, s, self._sfset(), k=16)
        assert len(fpset) == 1
        assert not fpset.fingerprints[0].bits().any()

    def test_supercell_and_duplicates_share_fingerprint(self, rng):
        prim = both_elements(rng, "prim", n_atoms=3)
        sup = build_supercell(prim, (2, 2, 2))
        other = both_elements(rng, "other", n_atoms=4)
        ds = make_dataset([prim, sup, other])
        fpset = batch_fingerprints(ds, prim, self._sfset(), k=32)
        a, b, c = fpset.fingerprints
        assert hamming_distance(a, b) == 0
        assert hamming_distance(a, c) > 0

    def test_permutation_leaves_fingerprint_unchanged(self, rng):
        sf = self._sfset()
        for i in range(5):
            s = both_elements(rng, "s", n_atoms=5)
            shuffled = permute_atoms(s, rng.permutation(5))
            f1 = batch_fingerprints(make_dataset([s]), s, sf, k=16)
            f2 = batch_fingerprints(make_dataset([shuffled]), shuffled, sf, k=16)
            assert np.array_equal(f1.fingerprints[0].packed, f2.fingerprints[0].packed)

    def test_missing_reference_element_rejected(self, rng):
        full = both_elements(rng, "full")
        fe_only = dyadic_structure(rng, "fe", elements=("Fe",), n_atoms=3)
        ds = make_dataset([full, fe_only])
        with pytest.raises(UserInputError, match="H"):
            batch_fingerprints(ds, fe_only, self._sfset(), k=8)

    def test_presence_semantics_counts_scale_occupancy_fixed(self, rng):
        prim = both_elements(rng, "p", n_atoms=3)
        sup = build_supercell(prim, (2, 1, 1))
        sf = self._sfset()
        mats = [compute_structure_descriptors(s, sf) for s in (prim, sup)]
        spec = determine_bin_edges(mats, k=16)
        h_prim, h_sup = (build_histograms(m, spec) for m in mats)
        assert np.array_equal(h_sup.counts, 2 * h_prim.counts)
        assert np.array_equal(h_sup.occupancy, h_prim.occupancy)

    def test_coarsening_monotonicity(self, rng):
        # if occupancies differ at k/2 (same edges), they differ at k too
        sf = self._sfset()
        mats = [
            compute_structure_descriptors(dyadic_structure(rng, f"s{i}"), sf)
            for i in range(12)
        ]
        k = 16
        spec_fine = determine_bin_edges(mats, k=k)
        spec_coarse = HistogramSpec(bins=k // 2, columns=spec_fine.columns,
                                    edges=spec_fine.edges)
        ref_f = build_histograms(mats[0], spec_fine)
        ref_c = build_histograms(mats[0], spec_coarse)
        for m in mats[1:]:
            occ_f = np.logical_xor(build_histograms(m, spec_fine).occupancy, ref_f.occupancy)
            occ_c = np.logical_xor(build_histograms(m, spec_coarse).occupancy, ref_c.occupancy)
            for col in range(spec_fine.n_columns):
                if occ_c[col].any():
                    assert occ_f[col].any()


class TestHamming:
    def _fp(self, bits, ident="a"):
        return pack_bits(np.array(bits, dtype=np.uint8), ident, None, "ref", "spec")

    def test_identical_is_zero(self):
        a = self._fp([1, 0, 1, 1, 0])
        assert hamming_distance(a, a) == 0

    def test_three_bit_difference(self):
        a = self._fp([1, 0, 1, 1, 0, 0, 0, 0, 1])
        b = self._fp([0, 0, 1, 0, 0, 0, 0, 0, 0], "b")
        assert hamming_distance(a, b) == 3

    def test_metric_properties_over_random_triples(self, rng):
        n_bits = 48
        for _ in range(1000):
            a, b, c = (self._fp(rng.integers(0, 2, n_bits), ident) for ident in "abc")
            ab = hamming_distance(a, b)
            assert ab == hamming_distance(b, a)
            assert ab <= hamming_distance(a, c) + hamming_distance(c, b)
            assert ab >= 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(UserInputError):
            hamming_distance(self._fp([1, 0]), self._fp([1, 0, 1], "b"))

    def test_checksum_mismatch_rejected(self):
        a = self._fp([1, 0])
        b = pack_bits(np.array([1, 0], dtype=np.uint8), "b", None, "ref", "other")
        with pytest.raises(UserInputError):
            hamming_distance(a, b)

    def test_matrix_matches_pairwise(self, rng):
        from dvlae import hamming_cdist, pairwise_distances
        from dvlae.fingerprint import packed_rows

        fps = [self._fp(rng.integers(0, 2, 37), f"s{i}") for i in range(15)]
        packed = packed_rows(fps)
        fast = hamming_cdist(packed, packed)
        bits = np.vstack([fp.bits() for fp in fps])
        assert np.array_equal(fast, pairwise_distances(bits, metric="hamming"))
        assert np.array_equal(fast, [[hamming_distance(a, b) for b in fps] for a in fps])
        naive = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
        assert np.array_equal(pairwise_distances(bits, metric="hamming"), naive)

    def test_nonzero_padding_bits_rejected(self):
        # 13 bits in 2 bytes: the low 3 bits of the last byte are padding
        for tail in (0b001, 0b100):
            with pytest.raises(UserInputError, match="padding"):
                fp_mod.DifferenceVector("s", None, "r", "spec", 13,
                                        np.array([0xFF, 0xF8 | tail], dtype=np.uint8))
        ok = fp_mod.DifferenceVector("s", None, "r", "spec", 13,
                                     np.array([0xFF, 0xF8], dtype=np.uint8))
        assert ok.bits().sum() == 13


class TestFlatVectors:
    def test_single_structure_unpadded(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=4.0))
        m = compute_structure_descriptors(dyadic_structure(rng, "s", n_atoms=3), sf)
        vecs = baseline_padded_descriptor([m])
        total = sum(b.size for b in m.blocks.values())
        assert vecs.shape == (1, total)

    def test_supercell_separates_in_baseline(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(
            cutoff=4.0, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,)))
        prim = dyadic_structure(rng, "p", n_atoms=2)
        sup = build_supercell(prim, (2, 2, 2))
        mats = [compute_structure_descriptors(s, sf) for s in (prim, sup)]
        vecs = baseline_padded_descriptor(mats)
        assert np.linalg.norm(vecs[0] - vecs[1]) > 0.0

    def test_exact_duplicates_coincide(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=4.0))
        s = both_elements(rng, "s", n_atoms=3)
        twin = permute_atoms(s, np.arange(s.n_atoms))   # identical copy
        mats = [compute_structure_descriptors(x, sf) for x in (s, twin)]
        vecs = baseline_padded_descriptor(mats)
        assert np.array_equal(vecs[0], vecs[1])

    def test_mean_vectors_fixed_length(self, rng):
        sf = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=4.0))
        mats = [
            compute_structure_descriptors(dyadic_structure(rng, f"s{i}", n_atoms=int(n)), sf)
            for i, n in enumerate((2, 5, 3))
        ]
        vecs = mean_descriptor_vectors(mats)
        assert vecs.shape[0] == 3
        assert len(set([v.shape for v in vecs])) == 1


class TestSerialization:
    def _fpset(self, rng):
        import dataclasses

        sf = build_symmetry_functions(("Fe", "H"), GridConfig(
            cutoff=4.0, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,)))
        structures = [both_elements(rng, f"s{i}") for i in range(6)]
        structures[2] = dataclasses.replace(structures[2], tag="alpha")
        ds = make_dataset(structures)
        return batch_fingerprints(ds, select_reference(ds), sf, k=12)

    def test_fingerprint_file_roundtrip_bit_exact(self, rng, tmp_path):
        fpset = self._fpset(rng)
        path = tmp_path / "fps.txt"
        write_fingerprints(fpset, path)
        back = read_fingerprints(path)
        assert back.spec.checksum == fpset.spec.checksum
        assert np.array_equal(back.spec.edges, fpset.spec.edges)
        assert back.reference_id == fpset.reference_id
        assert back.ids() == fpset.ids()
        for a, b in zip(fpset.fingerprints, back.fingerprints):
            assert np.array_equal(a.packed, b.packed)
            assert a.tag == b.tag

    def test_rewrite_is_byte_identical(self, rng, tmp_path):
        fpset = self._fpset(rng)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_fingerprints(fpset, p1)
        write_fingerprints(read_fingerprints(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_spec_json_roundtrip(self, rng):
        fpset = self._fpset(rng)
        spec = spec_from_json(spec_to_json(fpset.spec))
        assert spec.checksum == fpset.spec.checksum
        assert np.array_equal(spec.edges, fpset.spec.edges)

    def test_padding_bits_in_file_rejected_with_line(self, rng, tmp_path):
        spec = HistogramSpec(bins=13, columns=(("X", "c0"),), edges=[[0.0, 1.0]])
        fps = [pack_bits(rng.integers(0, 2, 13), f"s{i}", None, "r", spec.checksum)
               for i in range(3)]
        path = tmp_path / "fps.txt"
        write_fingerprints(fp_mod.FingerprintSet(spec, "r", "occupancy", fps), path)
        lines = path.read_text().splitlines()
        ident, tag, hexbits = lines[3].split("\t")
        last = int(hexbits[-2:], 16) | 1
        lines[3] = f"{ident}\t{tag}\t{hexbits[:-2]}{last:02x}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 4: nonzero padding"):
            read_fingerprints(path)

    @pytest.mark.parametrize("breakage", [
        lambda h: h.pop("bins"),
        lambda h: h.update(bins="16"),
        lambda h: h.update(bins=0),
        lambda h: h.update(columns=[["Fe"]]),
        lambda h: h.update(edges=h["edges"][:-1]),
        lambda h: h.update(edges=[[1.0, 0.0]] * len(h["edges"])),
        lambda h: h.update(edges=[[float("nan"), 1.0]] * len(h["edges"])),
        lambda h: h.pop("checksum"),
        lambda h: h.update(checksum="0" * 16),
    ])
    def test_bad_header_is_a_format_error(self, rng, tmp_path, breakage):
        import json

        fpset = self._fpset(rng)
        path = tmp_path / "fps.txt"
        write_fingerprints(fpset, path)
        lines = path.read_text().splitlines()
        head = json.loads(lines[1])
        breakage(head)
        lines[1] = json.dumps(head)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 2"):
            read_fingerprints(path)
        if "checksum" in head:      # a spec JSON file may omit its checksum
            with pytest.raises(FormatError):
                spec_from_json(json.dumps(head))

    def test_checksum_computed_once_per_spec(self, rng, tmp_path, monkeypatch):
        import hashlib

        fpset = self._fpset(rng)
        path = tmp_path / "fps.txt"
        write_fingerprints(fpset, path)
        calls = []
        real = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(1) or real(*a))
        back = read_fingerprints(path)
        for _ in range(3):
            assert back.spec.checksum == fpset.spec.checksum
        assert len(back) == 6 and len(calls) == 1

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n{}\n")
        with pytest.raises(UserInputError):
            read_fingerprints(path)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200))
def test_pack_roundtrip_property(bits):
    fp = pack_bits(np.array(bits, dtype=np.uint8), "s", None, "r", "c")
    assert fp.bits().astype(int).tolist() == bits
