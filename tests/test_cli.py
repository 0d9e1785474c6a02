"""End-to-end CLI pipelines over small synthetic extended-XYZ corpora."""

import time

import numpy as np
import pytest

from dvlae import Embedding, Structure, read_embedding, read_fingerprints, to_extxyz
from dvlae.cli import main
from dvlae.screening import ScreeningReport
from dvlae.svgplot import PlotSpec

from conftest import dyadic_structure, permute_atoms

CONFIG_TEMPLATE = """\
[run]
format = 1
seed = 7
output = {out}

[data]
manifests = manifest.txt
elements = Fe H

[descriptors]
cutoff = 4.0
radial_eta = 0.0 1.0
angular_eta = 0.0
zeta = 1
lambda = -1 1

[fingerprint]
bins = 16
reference = {reference}

[screening]
mode = exact

[embedding]
method = tsne
perplexity = 4
iterations = 250
"""


def make_corpus(rng, tmp_path, n=10, tag_cycle=("solid", "gas"), duplicate_groups=0):
    """Write an extxyz corpus + manifest + config; returns the config path."""
    structures = []
    while len(structures) < n:
        s = dyadic_structure(rng, f"s{len(structures)}", n_atoms=4)
        if {"Fe", "H"} <= set(s.species):
            structures.append(s)
    if duplicate_groups:
        # append exact copies of the first few structures
        for g in range(duplicate_groups):
            for c in range(3):
                structures.append(permute_atoms(structures[g], np.arange(4)))
    import dataclasses
    structures = [
        dataclasses.replace(s, tag=tag_cycle[i % len(tag_cycle)])
        for i, s in enumerate(structures)
    ]
    (tmp_path / "data.xyz").write_text(to_extxyz(structures))
    (tmp_path / "manifest.txt").write_text("data.xyz\n")
    ref = structures[0]
    (tmp_path / "ref.xyz").write_text(to_extxyz([ref]))
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEMPLATE.format(out="out", reference="path:ref.xyz"))
    return cfg


class TestFingerprintCommand:
    def test_writes_records_and_summary(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "10 structures" in captured.out
        fpset = read_fingerprints(tmp_path / "out" / "fingerprints.txt")
        assert len(fpset) == 10
        lines = (tmp_path / "out" / "fingerprints.txt").read_text().splitlines()
        hexes = [l.split("\t")[2] for l in lines[2:]]
        assert len({len(h) for h in hexes}) == 1
        assert (tmp_path / "out" / "histogram_spec.json").exists()

    def test_rerun_is_byte_identical(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "fingerprints.txt").read_bytes()
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "fingerprints.txt").read_bytes() == first

    def test_missing_data_file_exits_one_without_outputs(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path)
        (tmp_path / "manifest.txt").write_text("missing.xyz\n")
        assert main(["fingerprint", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fingerprints.txt").exists()

    @pytest.mark.parametrize("edge, code", [(0.3, 1), (1.2, 0)])
    def test_angular_pair_cap(self, tmp_path, capsys, edge, code):
        # One atom in a cubic cell at a 6 Å cutoff: 33,382 neighbors (557M
        # pairs) at a 0.3 Å edge, 496 neighbors (122,760 pairs) at 1.2 Å.
        s = Structure(cell=np.eye(3) * edge, species=("Fe",), positions=np.zeros((1, 3)),
                      periodic=(True,) * 3)
        (tmp_path / "data.xyz").write_text(to_extxyz([s]))
        (tmp_path / "manifest.txt").write_text("data.xyz\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEMPLATE.format(out="out", reference="auto")
                       .replace("cutoff = 4.0", "cutoff = 6.0")
                       .replace("elements = Fe H", "elements = Fe"))
        start = time.perf_counter()
        assert main(["fingerprint", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        if code:
            assert "data.xyz#0': one atom has 557162271 Fe-Fe neighbor pairs" in err
            assert time.perf_counter() - start < 5.0
        assert (tmp_path / "out" / "fingerprints.txt").exists() == (code == 0)

    def test_spec_reuse_gives_comparable_bits(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        spec_file = tmp_path / "out" / "histogram_spec.json"
        assert main(["fingerprint", "--config", str(cfg), "--out", str(tmp_path / "out2"),
                     "--spec", str(spec_file)]) == 0
        a = read_fingerprints(tmp_path / "out" / "fingerprints.txt")
        b = read_fingerprints(tmp_path / "out2" / "fingerprints.txt")
        assert a.spec.checksum == b.spec.checksum
        for x, y in zip(a.fingerprints, b.fingerprints):
            assert np.array_equal(x.packed, y.packed)


class TestScreenCommand:
    def test_duplicate_groups_reduce(self, rng, tmp_path):
        # 10 unique + 5 groups x 3 copies = 25 inputs, 10 kept
        cfg = make_corpus(rng, tmp_path, n=10, duplicate_groups=5)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps)]) == 0
        report = ScreeningReport.from_json((tmp_path / "out" / "screening_report.json").read_text())
        assert report.input_count == 25
        assert report.output_count == 10
        assert report.reduction_ratio == pytest.approx(0.6)
        kept = (tmp_path / "out" / "kept_ids.txt").read_text().split()
        assert kept == list(report.kept)

    def test_no_duplicates_ratio_zero(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=8)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps)]) == 0
        report = ScreeningReport.from_json((tmp_path / "out" / "screening_report.json").read_text())
        if report.reduction_ratio == 0.0:
            assert report.removed == {}

    def test_reapplying_report_is_idempotent(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=10, duplicate_groups=4)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps_path = tmp_path / "out" / "fingerprints.txt"
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps_path)]) == 0
        report = ScreeningReport.from_json((tmp_path / "out" / "screening_report.json").read_text())
        fpset = read_fingerprints(fps_path)
        kept_set = set(report.kept)
        from dvlae import dedup_exact
        again = dedup_exact([fp for fp in fpset.fingerprints if fp.structure_id in kept_set])
        assert again.kept == report.kept

    def test_bins_mismatch_exits_one(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=6)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        other = tmp_path / "other.ini"
        other.write_text(cfg.read_text().replace("bins = 16", "bins = 8"))
        code = main(["screen", "--config", str(other),
                     "--fingerprints", str(tmp_path / "out" / "fingerprints.txt")])
        assert code == 1
        assert "bins" in capsys.readouterr().err

    def test_novelty_mode(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=6)
        # training manifest = the same corpus: nothing is novel at threshold 0.1
        assert main(["screen", "--config", str(cfg), "--mode", "novelty",
                     "--training-manifest", str(tmp_path / "manifest.txt")]) == 0
        report = ScreeningReport.from_json((tmp_path / "out" / "screening_report.json").read_text())
        assert report.mode == "novelty"
        assert report.output_count == 0
        assert len(report.removed) == 6

    @pytest.mark.parametrize("old, new", [
        ('"bins":16,', ''),                         # header without bins
        ('"bins":16,', '"bins":"16",'),
        ('"edges":[[', '"edges":[["x",'),
        ('"xor_mode":"occupancy"', '"xor_mode":["bogus"]'),
        ('"reference_id":', '"reference_id":{"a":1},"was":'),
    ])
    def test_bad_header_exits_one(self, rng, tmp_path, capsys, old, new):
        cfg = make_corpus(rng, tmp_path, n=4)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        text = fps.read_text()
        assert old in text
        fps.write_text(text.replace(old, new, 1))
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "internal-error" not in err

    def test_padding_bits_exit_one(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=4)
        cfg.write_text(cfg.read_text().replace("lambda = -1 1", "lambda = 1")
                       .replace("bins = 16", "bins = 13"))
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        lines = fps.read_text().splitlines()
        assert read_fingerprints(fps).spec.n_bits % 8
        lines[2] = lines[2][:-1] + format(int(lines[2][-1], 16) | 1, "x")
        fps.write_text("\n".join(lines) + "\n")
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps)]) == 1
        assert "line 3: nonzero padding bits" in capsys.readouterr().err


class TestEmbedCommand:
    @pytest.mark.parametrize("method", ["tsne", "pca"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_vector_entry_exits_one(self, rng, tmp_path, capsys, method, bad):
        cfg = make_corpus(rng, tmp_path, n=4)
        rows = ["id,tag,v0,v1"] + [f"p{i},,{i},{2 * i}" for i in range(12)]
        rows[5] = f"p4,,{bad},8"
        vec = tmp_path / "vec.csv"
        vec.write_text("\n".join(rows) + "\n")
        assert main(["embed", "--config", str(cfg), "--input", str(vec),
                     "--method", method]) == 1
        assert "line 6: non-finite vector entry" in capsys.readouterr().err
        assert not (tmp_path / "out" / "embedding.csv").exists()

    def test_fingerprint_input_row_count(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=14)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        assert main(["embed", "--config", str(cfg),
                     "--input", str(tmp_path / "out" / "fingerprints.txt")]) == 0
        emb = read_embedding(tmp_path / "out" / "embedding.csv")
        assert len(emb.ids) == 14

    def test_same_seed_identical_bytes(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=14)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = str(tmp_path / "out" / "fingerprints.txt")
        assert main(["embed", "--config", str(cfg), "--input", fps]) == 0
        first = (tmp_path / "out" / "embedding.csv").read_bytes()
        assert main(["embed", "--config", str(cfg), "--input", fps,
                     "--out", str(tmp_path / "out2")]) == 0
        assert (tmp_path / "out2" / "embedding.csv").read_bytes() == first

    def test_pca_on_rank_one_vectors(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=6)
        vec = tmp_path / "line.csv"
        rows = ["id,tag,v0,v1,v2"]
        for i, t in enumerate(np.linspace(-2, 2, 9)):
            rows.append(f"p{i},,{t},{2 * t},{-t}")
        vec.write_text("\n".join(rows) + "\n")
        assert main(["embed", "--config", str(cfg), "--input", str(vec),
                     "--method", "pca"]) == 0
        emb = read_embedding(tmp_path / "out" / "embedding.csv")
        assert np.abs(emb.coords[:, 1]).max() <= 1e-9

    def test_perplexity_too_large_exits_one(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=6)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        code = main(["embed", "--config", str(cfg),
                     "--input", str(tmp_path / "out" / "fingerprints.txt"),
                     "--perplexity", "30"])
        assert code == 1
        assert "perplexity" in capsys.readouterr().err

    def test_compare_baseline_separates_supercells(self, rng, tmp_path):
        # primitive + its supercells: fingerprints coincide, baseline does not
        from dvlae import Structure, build_supercell

        prim = Structure(
            cell=np.array([[3.0, 0, 0], [1.5, 3.0, 0], [0.5, 0.25, 3.0]]),
            species=("Fe", "H"), positions=[[0, 0, 0], [0.75, 0.5, 1.25]],
            periodic=(True,) * 3, id="p", tag="bulk",
        )
        sups = [build_supercell(prim, r) for r in ((2, 1, 1), (2, 2, 1), (2, 2, 2))]
        (tmp_path / "data.xyz").write_text(to_extxyz([prim] + sups))
        (tmp_path / "manifest.txt").write_text("data.xyz\n")
        (tmp_path / "ref.xyz").write_text(to_extxyz([prim]))
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEMPLATE.format(out="out", reference="path:ref.xyz"))
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        assert main(["embed", "--config", str(cfg), "--method", "pca",
                     "--input", str(tmp_path / "out" / "fingerprints.txt"),
                     "--compare-baseline"]) == 0
        dv = read_embedding(tmp_path / "out" / "embedding.csv")
        base = read_embedding(tmp_path / "out" / "embedding_baseline.csv")
        # all four fingerprints identical -> PCA projects them onto one point
        assert np.abs(dv.coords - dv.coords[0]).max() <= 1e-9
        gaps = np.linalg.norm(base.coords[1:] - base.coords[0], axis=1)
        assert (gaps > 1.0).all()

    @pytest.mark.parametrize("source", ["baseline", "mean"])
    def test_compare_baseline_computes_descriptors_once(self, rng, tmp_path, monkeypatch, source):
        import dvlae.descriptors as desc

        described = []
        compute = desc.compute_structure_descriptors

        def counting(s, *args, **kwargs):
            described.append(s.id)
            return compute(s, *args, **kwargs)

        monkeypatch.setattr(desc, "compute_structure_descriptors", counting)
        cfg = make_corpus(rng, tmp_path, n=7)
        assert main(["embed", "--config", str(cfg), "--source", source, "--method", "pca",
                     "--compare-baseline"]) == 0
        assert len(described) == 7
        baseline = (tmp_path / "out" / "embedding_baseline.csv").read_bytes()
        if source == "baseline":
            assert baseline == (tmp_path / "out" / "embedding.csv").read_bytes()

    def test_source_mean_vectors(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=9)
        assert main(["embed", "--config", str(cfg), "--source", "mean",
                     "--method", "pca"]) == 0
        emb = read_embedding(tmp_path / "out" / "embedding.csv")
        assert len(emb.ids) == 9


class TestOodCommand:
    def _two_fingerprint_files(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=8)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        # predictions: same corpus refingerprinted under the shared spec
        assert main(["fingerprint", "--config", str(cfg), "--out", str(tmp_path / "pred"),
                     "--spec", str(tmp_path / "out" / "histogram_spec.json")]) == 0
        return cfg, tmp_path / "out" / "fingerprints.txt", tmp_path / "pred" / "fingerprints.txt"

    def test_training_subset_scores_zero(self, rng, tmp_path):
        cfg, train, pred = self._two_fingerprint_files(rng, tmp_path)
        assert main(["ood", "--config", str(cfg), "--training", str(train),
                     "--predictions", str(pred), "--top-n", "3"]) == 0
        rows = (tmp_path / "out" / "ood_scores.csv").read_text().splitlines()
        assert rows[0] == "id,min_hamming,normalized"
        assert all(r.split(",")[1] == "0" for r in rows[1:])
        top = (tmp_path / "out" / "ood_top3.txt").read_text().split()
        assert len(top) == 3

    def test_checksum_mismatch_exits_one(self, rng, tmp_path, capsys):
        cfg, train, _ = self._two_fingerprint_files(rng, tmp_path)
        other = tmp_path / "other.ini"
        other.write_text(cfg.read_text().replace("bins = 16", "bins = 8"))
        assert main(["fingerprint", "--config", str(other), "--out", str(tmp_path / "o8")]) == 0
        code = main(["ood", "--config", str(cfg), "--training", str(train),
                     "--predictions", str(tmp_path / "o8" / "fingerprints.txt")])
        assert code == 1
        assert "spec" in capsys.readouterr().err


class TestPlotCommand:
    def _embedding_csv(self, rng, tmp_path, tags=("a", "b", "c"), n=12):
        ids = tuple(f"s{i}" for i in range(n))
        emb = Embedding(ids=ids, tags=tuple(tags[i % len(tags)] for i in range(n)),
                        coords=rng.normal(0, 2, (n, 2)))
        from dvlae import write_embedding
        path = tmp_path / "emb.csv"
        write_embedding(emb, path)
        return path

    def test_legend_entries_match_tag_count(self, rng, tmp_path):
        path = self._embedding_csv(rng, tmp_path)
        out = tmp_path / "plot.svg"
        assert main(["plot", "--embedding", str(path), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("legend-entry") == 3
        assert "<polygon" not in svg

    def test_highlights_become_diamonds(self, rng, tmp_path):
        path = self._embedding_csv(rng, tmp_path)
        hl = tmp_path / "top.txt"
        hl.write_text("s1\ns4\n")
        out = tmp_path / "plot.svg"
        assert main(["plot", "--embedding", str(path), "--out", str(out),
                     "--highlight", str(hl)]) == 0
        assert out.read_text().count("<polygon") == 2

    def test_deterministic_bytes(self, rng, tmp_path):
        path = self._embedding_csv(rng, tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", "--embedding", str(path), "--out", str(a)]) == 0
        assert main(["plot", "--embedding", str(path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_highlight_id_exits_one(self, rng, tmp_path, capsys):
        path = self._embedding_csv(rng, tmp_path)
        hl = tmp_path / "top.txt"
        hl.write_text("ghost\n")
        code = main(["plot", "--embedding", str(path), "--out", str(tmp_path / "p.svg"),
                     "--highlight", str(hl)])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_render_rejects_small_canvas(self, rng, tmp_path):
        from dvlae.errors import UserInputError
        with pytest.raises(UserInputError):
            PlotSpec(width=10, height=10)


class TestMoreCliPaths:
    def test_count_equality_mode_reaches_header(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=6)
        cfg.write_text(cfg.read_text().replace(
            "reference = path:ref.xyz", "reference = path:ref.xyz\nxor_mode = count-equality"))
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fpset = read_fingerprints(tmp_path / "out" / "fingerprints.txt")
        assert fpset.xor_mode == "count-equality"

    def test_hamming_mode_with_radius(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=10, duplicate_groups=3)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        assert main(["screen", "--config", str(cfg),
                     "--fingerprints", str(tmp_path / "out" / "fingerprints.txt"),
                     "--mode", "hamming", "--radius", "0"]) == 0
        report = ScreeningReport.from_json(
            (tmp_path / "out" / "screening_report.json").read_text())
        assert report.output_count == 10

    def test_source_baseline(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=7)
        assert main(["embed", "--config", str(cfg), "--source", "baseline",
                     "--method", "pca"]) == 0
        emb = read_embedding(tmp_path / "out" / "embedding.csv")
        assert len(emb.ids) == 7

    def test_kept_ids_filter_feeds_back(self, rng, tmp_path):
        # fingerprint -> screen -> refingerprint only the kept subset
        cfg = make_corpus(rng, tmp_path, n=8, duplicate_groups=4)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        assert main(["screen", "--config", str(cfg),
                     "--fingerprints", str(tmp_path / "out" / "fingerprints.txt")]) == 0
        filtered = tmp_path / "filtered.ini"
        filtered.write_text(cfg.read_text().replace(
            "manifests = manifest.txt",
            "manifests = manifest.txt\nkeep_ids = out/kept_ids.txt"))
        assert main(["fingerprint", "--config", str(filtered),
                     "--out", str(tmp_path / "kept")]) == 0
        fpset = read_fingerprints(tmp_path / "kept" / "fingerprints.txt")
        assert len(fpset) == 8

    def test_usage_error_exits_one(self, capsys):
        assert main(["fingerprint"]) == 1          # missing --config
        assert main(["unknown-command"]) == 1
        capsys.readouterr()

    def test_input_and_source_conflict(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=6)
        code = main(["embed", "--config", str(cfg), "--input", "x", "--source", "mean"])
        assert code == 1
        capsys.readouterr()

    def test_vector_csv_roundtrip(self, rng, tmp_path):
        from dvlae.cli import _read_vector_csv, write_vector_csv

        ids = [f"v{i}" for i in range(5)]
        tags = ["a", None, "b", None, "a"]
        vectors = rng.normal(0, 2, (5, 4))
        path = tmp_path / "vec.csv"
        write_vector_csv(ids, tags, vectors, path)
        back_ids, back_tags, back_vecs = _read_vector_csv(path)
        assert back_ids == ids
        assert back_tags == tags
        assert np.array_equal(back_vecs, vectors)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestConfig:
    def test_per_pair_override_changes_layout(self, rng, tmp_path):
        cfg_path = make_corpus(rng, tmp_path, n=4)
        text = cfg_path.read_text().replace(
            "radial_eta = 0.0 1.0", "radial_eta = 0.0 1.0\nradial_eta.Fe-H = 0.0 1.0 2.0 4.0"
        )
        cfg_path.write_text(text)
        from dvlae.config import build_symmetry_functions, load_config
        cfg = load_config(cfg_path)
        sfset = build_symmetry_functions(("Fe", "H"), cfg.grid)
        fe_radial = [d for d in sfset.descriptors["Fe"]
                     if d.label.startswith("G2[H")]
        assert len(fe_radial) == 4
        h_radial = [d for d in sfset.descriptors["H"]
                    if d.label.startswith("G2[H")]
        assert len(h_radial) == 2

    def test_unknown_descriptor_key_rejected(self, rng, tmp_path):
        cfg_path = make_corpus(rng, tmp_path, n=4)
        cfg_path.write_text(cfg_path.read_text().replace("cutoff = 4.0", "cutofff = 4.0"))
        from dvlae.config import load_config
        from dvlae.errors import ConfigError
        with pytest.raises(ConfigError, match="cutofff"):
            load_config(cfg_path)

    @pytest.mark.parametrize("old, new, message", [
        ("[fingerprint]\n", "[fingerprint]\nxor_mode = parity\n",
         "xor_mode must be occupancy or count-equality, got 'parity'"),
        ("mode = exact", "mode = fuzzy",
         "screening mode must be exact, hamming, or novelty, got 'fuzzy'"),
        ("[screening]\n", "[screening]\naggregate = max\n",
         "aggregate must be min or mean, got 'max'"),
        ("method = tsne", "method = umap", "embedding method must be tsne or pca, got 'umap'"),
    ])
    def test_bad_choice_exits_one(self, rng, tmp_path, capsys, old, new, message):
        cfg_path = make_corpus(rng, tmp_path, n=4)
        cfg_path.write_text(cfg_path.read_text().replace(old, new, 1))
        assert main(["fingerprint", "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err

    def test_unsupported_format_rejected(self, rng, tmp_path):
        cfg_path = make_corpus(rng, tmp_path, n=4)
        cfg_path.write_text(cfg_path.read_text().replace("format = 1", "format = 2"))
        from dvlae.config import load_config
        from dvlae.errors import ConfigError
        with pytest.raises(ConfigError, match="format"):
            load_config(cfg_path)
