"""Acceptance suite: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v -s  to see per-criterion lines.
"""

import dataclasses
import time

import numpy as np
import pytest

from dvlae import (
    Structure,
    batch_fingerprints,
    baseline_padded_descriptor,
    build_supercell,
    compute_structure_descriptors,
    dedup_exact,
    dedup_hamming,
    euclidean_cdist,
    make_dataset,
    neighbor_list,
    novelty_screen,
    perplexity_calibration,
    read_embedding,
    read_fingerprints,
    to_extxyz,
    tsne_embed,
    write_embedding,
)
from dvlae import NoveltyConfig, TsneConfig
from dvlae.cli import main
from dvlae.config import GridConfig, build_symmetry_functions

from conftest import (
    dyadic_structure,
    fingerprint_set,
    naive_hamming,
    neighbor_entries,
    permute_atoms,
    random_rotation,
    random_structure,
    rigid_transform,
)
from test_screening import novelty_oracle
from test_structures import oracle_neighbors

COMPACT_GRID = GridConfig(cutoff=4.0, radial_eta=(0.0, 1.0), angular_eta=(0.0,), zeta=(1.0,))


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s exceeds {self.limit}s"
        return False


def report(n, timer, text):
    print(f"\nACCEPTANCE {n} PASS ({timer.elapsed:.1f}s): {text}")


def both_elements(rng, ident, n_atoms=5, dyadic=True):
    maker = dyadic_structure if dyadic else random_structure
    while True:
        s = maker(rng, ident, elements=("Fe", "H"), n_atoms=n_atoms)
        if {"Fe", "H"} <= set(s.species):
            return s


def test_criterion_1_supercell_contrast():
    """Fingerprints coincide across supercells; padded baseline separates them."""
    with _Timer(10) as t:
        prim = Structure(
            cell=np.array([[3.0, 0.0, 0.0], [1.5, 3.0, 0.0], [0.5, 0.25, 3.0]]),
            species=("Fe", "H"), positions=[[0.0, 0.0, 0.0], [0.75, 0.5, 1.25]],
            periodic=(True,) * 3, id="prim",
        )
        sups = [build_supercell(prim, reps) for reps in ((2, 1, 1), (2, 2, 1), (2, 2, 2))]
        sfset = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=6.0))
        ds = make_dataset([prim] + sups)
        fpset = batch_fingerprints(ds, prim, sfset, k=50)
        for fp in fpset.fingerprints[1:]:
            assert naive_hamming(fpset.fingerprints[0], fp) == 0
        matrices = [compute_structure_descriptors(s, sfset) for s in ds]
        baseline = baseline_padded_descriptor(matrices)
        for i in range(1, 4):
            assert np.linalg.norm(baseline[0] - baseline[i]) > 0.0
    report(1, t, "supercells overlap in fingerprint space, separate in padded baseline")


def test_criterion_2_rigid_motion_invariance():
    """Rotation + translation: descriptors within 1e-9, fingerprints identical."""
    with _Timer(30) as t:
        rng = np.random.default_rng(2001)
        sfset = build_symmetry_functions(("Fe", "H"), COMPACT_GRID)
        originals = [both_elements(rng, f"s{i}", dyadic=False) for i in range(50)]
        moved = [
            dataclasses.replace(
                rigid_transform(s, random_rotation(rng), rng.uniform(-8.0, 8.0, 3)), id=s.id
            )
            for s in originals
        ]
        worst = 0.0
        for a, b in zip(originals, moved):
            ma = compute_structure_descriptors(a, sfset)
            mb = compute_structure_descriptors(b, sfset)
            for e in ma.blocks:
                if ma.blocks[e].size:
                    worst = max(worst, float(np.max(np.abs(ma.blocks[e] - mb.blocks[e]))))
        assert worst <= 1e-9, f"descriptor deviation {worst}"
        ds_a = make_dataset(originals)
        ds_b = make_dataset(moved)
        fa = batch_fingerprints(ds_a, originals[0], sfset, k=50)
        fb = batch_fingerprints(ds_b, moved[0], sfset, k=50)
        assert np.array_equal(fa.fingerprints, fb.fingerprints)
    report(2, t, f"max descriptor deviation {worst:.2e}; all 50 fingerprints bit-identical")


def test_criterion_3_permutation_invariance():
    """Atom-order shuffles leave the fingerprint bit-identical."""
    with _Timer(10) as t:
        rng = np.random.default_rng(3001)
        sfset = build_symmetry_functions(("Fe", "H"), COMPACT_GRID)
        for i in range(50):
            s = both_elements(rng, f"s{i}", dyadic=False)
            shuffled = permute_atoms(s, rng.permutation(s.n_atoms))
            fa = batch_fingerprints(make_dataset([s]), s, sfset, k=40)
            fb = batch_fingerprints(make_dataset([shuffled]), shuffled, sfset, k=40)
            assert np.array_equal(fa.fingerprints, fb.fingerprints)
    report(3, t, "50 shuffled structures keep bit-identical fingerprints")


def test_criterion_4_neighbor_list_oracle():
    """Exact agreement with brute-force image replication on triclinic cells."""
    with _Timer(60) as t:
        rng = np.random.default_rng(4001)
        for trial in range(100):
            s = random_structure(rng, f"t{trial}", n_atoms=int(rng.integers(1, 9)),
                                 unwrapped=True)
            r_c = float(rng.uniform(1.0, 4.0))
            nl = neighbor_list(s, r_c)
            want = oracle_neighbors(s, r_c)
            for i in range(s.n_atoms):
                got = neighbor_entries(nl, i)
                assert {(j, sh) for j, sh, _ in got} == {(j, sh) for j, sh, _ in want[i]}
                want_d = {(j, sh): d for j, sh, d in want[i]}
                for j, sh, d in got:
                    assert abs(d - want_d[(j, sh)]) <= 1e-12
    report(4, t, "100 triclinic cells match the brute-force oracle exactly")


def test_criterion_5_hand_computed_values():
    """Equilateral-triangle G4 and collinear G5 pin the pair-counting rule."""
    from dvlae import AngularParams, CutoffParams, DescriptorDef, RadialParams, SymmetryFunctionSet

    with _Timer(1) as t:
        iso = lambda spc, pos: Structure(cell=np.zeros((3, 3)), species=spc,
                                         positions=pos, periodic=(False,) * 3, id="x")
        wide = CutoffParams(inner=2.0, outer=3.0)
        tri = iso(("A",) * 3, [[0, 0, 0], [1.0, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
        for lam, expected in ((1, 1.5), (-1, 0.5)):
            sf = SymmetryFunctionSet(elements=("A",), descriptors={"A": (
                DescriptorDef(AngularParams(0.0, 1.0, lam, "G4", ("A", "A")), wide),)})
            values = compute_structure_descriptors(tri, sf).blocks["A"][:, 0]
            assert np.max(np.abs(values - expected)) <= 1e-12
        lin = iso(("A", "B", "A"), [[-1.0, 0, 0], [0, 0, 0], [1.0, 0, 0]])
        cut = CutoffParams(inner=1.5, outer=2.0)
        sf = SymmetryFunctionSet(elements=("A", "B"), descriptors={
            "A": (DescriptorDef(RadialParams(0.0, 0.0, "B"), cut),),
            "B": (DescriptorDef(AngularParams(0.0, 1.0, -1, "G5", ("A", "A")), cut),),
        })
        value = compute_structure_descriptors(lin, sf).blocks["B"][0, 0]
        assert abs(value - 2.0) <= 1e-12
    report(5, t, "G4 triangle = 1.5 / 0.5, G5 collinear = 2.0, all within 1e-12")


def test_criterion_6_dedup_correctness():
    """20 unique structures x 5 copies + supercells reduce to exactly 20."""
    with _Timer(30) as t:
        rng = np.random.default_rng(6001)
        sfset = build_symmetry_functions(("Fe", "H"), COMPACT_GRID)
        uniques = [both_elements(rng, f"u{i}") for i in range(20)]
        corpus = []
        for i, u in enumerate(uniques):
            for c in range(5):
                corpus.append(dataclasses.replace(u, id=f"u{i}c{c}"))
            corpus.append(dataclasses.replace(
                build_supercell(u, (2, 1, 1)), id=f"u{i}sup"))
        ds = make_dataset(corpus)
        fpset = batch_fingerprints(ds, corpus[0], sfset, k=50)
        assert len({row.tobytes() for row in fpset.fingerprints}) == 20
        rep = dedup_exact(fpset)
        assert rep.output_count == 20
        keep = [i for i, ident in enumerate(fpset.ids) if ident in set(rep.kept)]
        again = dedup_exact(dataclasses.replace(
            fpset, ids=[fpset.ids[i] for i in keep], tags=[fpset.tags[i] for i in keep],
            fingerprints=fpset.fingerprints[keep]))
        assert again.removed == {}

        fps = fingerprint_set(rng.integers(0, 2, (200, 64)), ids=[f"r{i}" for i in range(200)])
        exact = dedup_exact(fps)
        radius0 = dedup_hamming(fps, 0)
        assert radius0.kept == exact.kept and radius0.removed == exact.removed
    report(6, t, "120-structure corpus kept exactly 20; dedup idempotent; radius 0 = exact")


def test_criterion_7_novelty_oracle():
    """Accepted sets match the naive double loop for all thresholds/aggregates."""
    with _Timer(10) as t:
        rng = np.random.default_rng(7001)
        cand = rng.normal(0, 1, (50, 8))
        train = rng.normal(0, 1, (50, 8))
        ids = [f"c{i}" for i in range(50)]
        for threshold in (0.0, 0.1, 1.0):
            for aggregate in ("min", "mean"):
                got = novelty_screen(ids, cand, train,
                                     NoveltyConfig(threshold=threshold, aggregate=aggregate),
                                     [f"t{j}" for j in range(50)])
                want = novelty_oracle(cand, train, threshold, aggregate)
                assert list(got.kept) == want
                assert list(got.removed) == [i for i in ids if i not in want]
    report(7, t, "novelty screening equals the double-loop oracle for 6 configurations")


def test_criterion_8_tsne_quality_and_determinism(tmp_path):
    """Calibration accuracy, KL descent, cluster fidelity, seed determinism."""
    with _Timer(120) as t:
        worst = 0.0
        for trial in range(50):
            rng = np.random.default_rng(8000 + trial)
            n = int(rng.integers(10, 40))
            x = rng.normal(0, rng.uniform(0.5, 10), (n, 5))
            target = float(rng.uniform(2.0, (n - 1) / 3))
            p = perplexity_calibration(x, "euclidean", target)
            for row in p:
                nz = row[row > 0]
                worst = max(worst, abs(float(np.exp(-(nz * np.log(nz)).sum())) - target))
        assert worst <= 1e-3, f"calibration error {worst}"

        rng = np.random.default_rng(8800)
        centers = np.array([[0, 0, 0, 0, 0], [40, 0, 0, 0, 0], [0, 40, 0, 0, 0]], float)
        points = np.vstack([c + rng.normal(0, 1, (20, 5)) for c in centers])
        labels = np.repeat(np.arange(3), 20)
        coords, kl = tsne_embed(points, cfg=TsneConfig(perplexity=12, iterations=1000, seed=17))
        assert kl[-1] < kl[0]
        e = euclidean_cdist(coords, coords)
        np.fill_diagonal(e, np.inf)
        agreement = float((labels[e.argmin(axis=1)] == labels).mean())
        assert agreement >= 0.95

        from dvlae import Embedding
        emb = Embedding(ids=tuple(f"p{i}" for i in range(60)),
                        tags=tuple(str(l) for l in labels), coords=coords)
        write_embedding(emb, tmp_path / "a.csv")
        coords2, _ = tsne_embed(points, cfg=TsneConfig(perplexity=12, iterations=1000, seed=17))
        emb2 = Embedding(ids=emb.ids, tags=emb.tags, coords=coords2)
        write_embedding(emb2, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    report(8, t, f"calibration err {worst:.1e}; KL {kl[0]:.3f}->{kl[-1]:.3f}; "
                 f"1-NN {agreement:.0%}; CSV bytes identical")


OOD_CONFIG = """\
[run]
format = 1
seed = 5
output = {out}

[data]
manifests = {manifest}
elements = Fe H

[descriptors]
cutoff = 4.0
radial_eta = 0.0 1.0
angular_eta = 0.0
zeta = 1
lambda = -1 1

[fingerprint]
bins = 24
reference = path:{ref}

[embedding]
method = pca
"""


def test_criterion_9_ood_ranking(tmp_path):
    """A bin-occupancy outlier ranks first; top-20 render as SVG diamonds."""
    with _Timer(30) as t:
        rng = np.random.default_rng(9001)
        training = [both_elements(rng, f"t{i}") for i in range(24)]
        # outlier: same species set, wildly larger cell -> distances (and
        # descriptor values) fall into bins no training structure occupies
        outlier = dataclasses.replace(
            training[0],
            cell=training[0].cell * 2.5,
            positions=training[0].positions * 2.5,
            id="outlier",
        )
        predictions = [dataclasses.replace(s, id=f"p{i}") for i, s in enumerate(training[:20])]
        predictions.append(outlier)

        (tmp_path / "train.xyz").write_text(to_extxyz(training))
        (tmp_path / "train.txt").write_text("train.xyz\n")
        (tmp_path / "pred.xyz").write_text(to_extxyz(predictions))
        (tmp_path / "pred.txt").write_text("pred.xyz\n")
        (tmp_path / "ref.xyz").write_text(to_extxyz([training[0]]))

        cfg_train = tmp_path / "train.ini"
        cfg_train.write_text(OOD_CONFIG.format(out="out_train", manifest="train.txt",
                                               ref=tmp_path / "ref.xyz"))
        cfg_pred = tmp_path / "pred.ini"
        cfg_pred.write_text(OOD_CONFIG.format(out="out_pred", manifest="pred.txt",
                                              ref=tmp_path / "ref.xyz"))

        assert main(["fingerprint", "--config", str(cfg_train)]) == 0
        assert main(["fingerprint", "--config", str(cfg_pred),
                     "--spec", str(tmp_path / "out_train" / "histogram_spec.json")]) == 0
        train_fp = tmp_path / "out_train" / "fingerprints.txt"
        pred_fp = tmp_path / "out_pred" / "fingerprints.txt"
        assert main(["ood", "--config", str(cfg_pred), "--training", str(train_fp),
                     "--predictions", str(pred_fp), "--top-n", "20"]) == 0

        rows = (tmp_path / "out_pred" / "ood_scores.csv").read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert first[0].endswith("#20")     # the outlier is frame 20 of pred.xyz
        assert int(first[1]) > 0
        for row in rows[1:]:
            assert row.split(",")[1] == "0"

        assert main(["embed", "--config", str(cfg_pred), "--input", str(pred_fp),
                     "--method", "pca"]) == 0
        assert main(["plot", "--embedding", str(tmp_path / "out_pred" / "embedding.csv"),
                     "--out", str(tmp_path / "ood.svg"),
                     "--highlight", str(tmp_path / "out_pred" / "ood_top20.txt")]) == 0
        svg = (tmp_path / "ood.svg").read_text()
        assert svg.count("<polygon") == 20
    report(9, t, "outlier ranks first (training scores 0); 20 highlight diamonds in SVG")


def test_criterion_10_format_roundtrips(tmp_path):
    """Files parse back exactly; fixed-seed reruns are byte-identical."""
    with _Timer(30) as t:
        rng = np.random.default_rng(10001)
        structures = [both_elements(rng, f"s{i}") for i in range(14)]
        structures += [dataclasses.replace(structures[0], id="dup0"),
                       dataclasses.replace(structures[1], id="dup1")]
        (tmp_path / "data.xyz").write_text(to_extxyz(structures))
        (tmp_path / "m.txt").write_text("data.xyz\n")
        (tmp_path / "ref.xyz").write_text(to_extxyz([structures[0]]))
        cfg = tmp_path / "run.ini"
        cfg.write_text(OOD_CONFIG.format(out="out1", manifest="m.txt",
                                         ref=tmp_path / "ref.xyz")
                       + "perplexity = 4\niterations = 300\n")

        def run_all(out):
            assert main(["fingerprint", "--config", str(cfg), "--out", out]) == 0
            assert main(["screen", "--config", str(cfg), "--out", out,
                         "--fingerprints", f"{out}/fingerprints.txt"]) == 0
            assert main(["embed", "--config", str(cfg), "--out", out, "--method", "tsne",
                         "--input", f"{out}/fingerprints.txt"]) == 0
            assert main(["ood", "--config", str(cfg), "--out", out,
                         "--training", f"{out}/fingerprints.txt",
                         "--predictions", f"{out}/fingerprints.txt", "--top-n", "5"]) == 0
            assert main(["plot", "--embedding", f"{out}/embedding.csv",
                         "--out", f"{out}/plot.svg",
                         "--highlight", f"{out}/ood_top5.txt"]) == 0

        out1, out2 = str(tmp_path / "out1"), str(tmp_path / "out2")
        run_all(out1)
        run_all(out2)
        names = ["fingerprints.txt", "histogram_spec.json", "screening_report.json",
                 "kept_ids.txt", "embedding.csv", "ood_scores.csv", "ood_top5.txt",
                 "plot.svg"]
        for name in names:
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

        fpset = read_fingerprints(tmp_path / "out1" / "fingerprints.txt")
        from dvlae.fingerprint import write_fingerprints
        write_fingerprints(fpset, tmp_path / "rt.txt")
        assert (tmp_path / "rt.txt").read_bytes() == (tmp_path / "out1" / "fingerprints.txt").read_bytes()
        emb = read_embedding(tmp_path / "out1" / "embedding.csv")
        write_embedding(emb, tmp_path / "rt.csv")
        assert (tmp_path / "rt.csv").read_bytes() == (tmp_path / "out1" / "embedding.csv").read_bytes()
    report(10, t, "all 8 artifacts byte-identical across reruns; files round-trip exactly")
