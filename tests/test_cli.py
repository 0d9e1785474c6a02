"""End-to-end CLI pipelines over small synthetic extended-XYZ corpora."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dvlae import (Embedding, Structure, UserInputError, build_supercell, read_embedding,
                   read_fingerprints, to_extxyz)
from dvlae.cli import main
from dvlae.svgplot import PlotSpec

from conftest import dyadic_structure, fingerprint_bits, permute_atoms, write_vector_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def read_report(tmp_path):
    """The screening report a command wrote to ``tmp_path / "out"``."""
    return json.loads((tmp_path / "out" / "screening_report.json").read_text())


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


def _count_dataset_ids(monkeypatch, workers):
    """Pretend the process may run on ``workers`` CPUs, pool descriptors at any
    size with every structure a batch of its own, and record, per call of
    ``compute_dataset_descriptors`` by the CLI, the file name and frame of
    each structure it is given."""
    import dvlae.cli as cli_mod
    import dvlae.descriptors as desc
    from dvlae import parallel

    monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
    monkeypatch.setattr(desc, "_POOL_MIN_ATOMS", 0)
    monkeypatch.setattr(desc, "_BATCH_ATOMS", 0)
    given = []
    compute = cli_mod.compute_dataset_descriptors

    def counting(structures, *args, **kwargs):
        given.append([Path(s.id).name for s in structures])
        return compute(structures, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "compute_dataset_descriptors", counting)
    return given


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

    @pytest.mark.parametrize("late", ["neighbor search", "internal error"])
    @pytest.mark.parametrize("batch_atoms", [None, 0])
    def test_earlier_non_finite_structure_wins_inside_a_batch(
            self, tmp_path, monkeypatch, capsys, late, batch_atoms):
        # A zeta of 1e308 is non-finite at any angle but a right one: the
        # dimers have no angle, the triangle (#3) has, and the 0.05 Å cell
        # (#4) fails its neighbor search, or an internal error is planted
        # there.  All in one batch, or each a batch of its own on 2 workers.
        import dvlae.descriptors as desc
        from dvlae import parallel

        dimer = Structure(cell=np.zeros((3, 3)), species=("Fe", "H"),
                          positions=[[0, 0, 0], [1.0, 0, 0]])
        triangle = Structure(cell=np.zeros((3, 3)), species=("Fe", "H", "H"),
                             positions=[[0, 0, 0], [1.0, 0, 0], [0.8, 0.6, 0]])
        tiny = Structure(cell=np.eye(3) * 0.05, species=("Fe",), positions=np.zeros((1, 3)),
                         periodic=(True,) * 3)
        structures = [dimer] * 3 + [triangle, tiny] + [dimer] * 3
        assert sum(s.n_atoms for s in structures) <= desc._BATCH_ATOMS
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(desc, "_POOL_MIN_ATOMS", 0)
        if batch_atoms is not None:
            monkeypatch.setattr(desc, "_BATCH_ATOMS", batch_atoms)
        (tmp_path / "data.xyz").write_text(to_extxyz(structures))
        (tmp_path / "manifest.txt").write_text("data.xyz\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_TEMPLATE.format(out="out", reference="auto")
                       .replace("zeta = 1", "zeta = 1e308"))
        if late == "internal error":
            compute = desc._neighbors

            def planted(s, sfset):
                if s.id.endswith("data.xyz#4"):
                    raise RuntimeError("late bug")
                return compute(s, sfset)

            monkeypatch.setattr(desc, "_neighbors", planted)
        assert main(["fingerprint", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite descriptor value in structure "), err
        assert "data.xyz#3', element Fe" in err
        assert not (tmp_path / "out" / "fingerprints.txt").exists()

    def test_overflowing_parameters_print_only_the_error(self, rng, tmp_path):
        # eta and zeta of 1e308 overflow the descriptor terms to inf and nan:
        # the finiteness check reports it, with no numpy warning ahead of it
        cfg = make_corpus(rng, tmp_path, n=6)
        cfg.write_text(cfg.read_text().replace("radial_eta = 0.0 1.0", "radial_eta = 1e308")
                       .replace("zeta = 1", "zeta = 1e308"))
        proc = subprocess.run([sys.executable, "-m", "dvlae.cli", "fingerprint", "--config",
                               str(cfg)], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: non-finite descriptor value"), proc.stderr

    def test_spec_reuse_gives_comparable_bits(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        spec_file = tmp_path / "out" / "histogram_spec.json"
        assert main(["fingerprint", "--config", str(cfg), "--out", str(tmp_path / "out2"),
                     "--spec", str(spec_file)]) == 0
        a = read_fingerprints(tmp_path / "out" / "fingerprints.txt")
        b = read_fingerprints(tmp_path / "out2" / "fingerprints.txt")
        assert a.spec.checksum == b.spec.checksum
        assert np.array_equal(a.fingerprints, b.fingerprints)


def _children(pid):
    try:
        return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        return []


def _pool_possible():
    import multiprocessing

    from dvlae import parallel

    return (Path("/proc/self/task").is_dir() and parallel.cpu_count() >= 2
            and "fork" in multiprocessing.get_all_start_methods())


# ``embed`` with each calibration row slowed to 50 ms, so that its pool of
# workers lives for seconds.
SLOW_EMBED = """
import sys
import time

import dvlae.embedding as emb
from dvlae.cli import main

calibrate = emb._calibrate_row

def slow(sq, target):
    time.sleep(0.05)
    return calibrate(sq, target)

emb._calibrate_row = slow
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not _pool_possible(),
                    reason="needs /proc, fork and two CPUs for a process pool")
class TestSignalsDuringThePool:
    """A signal while the descriptor or the calibration pool lives stops
    every worker, quietly."""

    @staticmethod
    def slow_corpus(rng, tmp_path):
        # Eight 128-atom FeH cells at 6 Å: seconds of descriptor work.
        prim = Structure(cell=np.eye(3) * 2.65, species=("Fe", "H"),
                         positions=[[0, 0, 0], [1.325, 1.325, 1.325]], periodic=(True,) * 3)
        big = build_supercell(prim, (4, 4, 4))
        cells = [dataclasses.replace(big, positions=big.positions
                                     + rng.normal(0, 0.05, big.positions.shape))
                 for _ in range(8)]
        cfg = make_corpus(rng, tmp_path, n=2)
        (tmp_path / "data.xyz").write_text(to_extxyz(cells))
        cfg.write_text(cfg.read_text().replace("cutoff = 4.0", "cutoff = 6.0"))
        return cfg

    @staticmethod
    def slow_embed(rng, tmp_path):
        # 250 points, over the calibration pool's threshold: about 6 s of rows
        # on two workers.
        cfg = make_corpus(rng, tmp_path, n=2)
        write_vector_csv([f"p{i}" for i in range(250)], [None] * 250,
                         rng.normal(0, 1, (250, 4)), tmp_path / "vec.csv")
        script = tmp_path / "slow_embed.py"
        script.write_text(SLOW_EMBED)
        return [str(script), "embed", "--config", str(cfg), "--input",
                str(tmp_path / "vec.csv")]

    @pytest.mark.parametrize("command", ["fingerprint", "embed"])
    @pytest.mark.parametrize("sig, group", [("SIGTERM", False), ("SIGTERM", True),
                                            ("SIGINT", True)])
    def test_no_worker_survives(self, rng, tmp_path, command, sig, group):
        import signal

        if command == "fingerprint":
            args = ["-m", "dvlae.cli", "fingerprint", "--config",
                    str(self.slow_corpus(rng, tmp_path))]
        else:
            args = self.slow_embed(rng, tmp_path)
        proc = subprocess.Popen([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not (workers := _children(proc.pid)) and proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert workers, f"the {command} pool never started"
            time.sleep(0.3)
            ignored = [int(Path(f"/proc/{w}/status").read_text().split("SigIgn:")[1].split()[0], 16)
                       for w in workers]
            assert all(mask >> (signal.SIGINT - 1) & 1 for mask in ignored)
            if group:   # as a terminal's Ctrl-C, or `timeout`, signals the process group
                os.killpg(proc.pid, getattr(signal, sig))
            else:
                proc.send_signal(getattr(signal, sig))
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert [w for w in workers if Path(f"/proc/{w}").exists()] == []
        assert "Traceback" not in err, err
        if sig == "SIGTERM":
            # Exit 143 from this process's own handler; killed by the signal
            # if the workers' deaths were seen first.
            assert proc.returncode in (128 + signal.SIGTERM, -signal.SIGTERM)
        else:
            assert proc.returncode == 128 + signal.SIGINT
            # Only this process reports the interrupt, as it does without a pool.
            assert err == "error: interrupted\n", err


class TestScreenCommand:
    def test_duplicate_groups_reduce(self, rng, tmp_path):
        # 10 unique + 5 groups x 3 copies = 25 inputs, 10 kept
        cfg = make_corpus(rng, tmp_path, n=10, duplicate_groups=5)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps)]) == 0
        report = read_report(tmp_path)
        assert report["input_count"] == 25
        assert report["output_count"] == 10
        assert report["reduction_ratio"] == pytest.approx(0.6)
        kept = (tmp_path / "out" / "kept_ids.txt").read_text().split()
        assert kept == report["kept"]

    def test_no_duplicates_ratio_zero(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=8)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps)]) == 0
        report = read_report(tmp_path)
        if report["reduction_ratio"] == 0.0:
            assert report["removed"] == {}

    def test_reapplying_report_is_idempotent(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=10, duplicate_groups=4)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps_path = tmp_path / "out" / "fingerprints.txt"
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps_path)]) == 0
        report = read_report(tmp_path)
        fpset = read_fingerprints(fps_path)
        keep = [i for i, ident in enumerate(fpset.ids) if ident in set(report["kept"])]
        from dvlae import dedup_exact
        again = dedup_exact(dataclasses.replace(
            fpset, ids=[fpset.ids[i] for i in keep], tags=[fpset.tags[i] for i in keep],
            fingerprints=fpset.fingerprints[keep]))
        assert again.kept == tuple(report["kept"])

    def test_repeated_id_exits_one(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=4)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        lines = fps.read_text().splitlines()
        first = lines[2].split("\t")[0]
        lines[4] = first + lines[4][lines[4].index("\t"):]
        fps.write_text("\n".join(lines) + "\n")
        assert main(["screen", "--config", str(cfg), "--fingerprints", str(fps)]) == 1
        assert f"{fps}: duplicate structure id {first!r}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "screening_report.json").exists()

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
        report = read_report(tmp_path)
        assert report["mode"] == "novelty"
        assert report["output_count"] == 0
        assert len(report["removed"]) == 6

    @staticmethod
    def _training_set(rng, tmp_path, n=5):
        structures = []
        while len(structures) < n:
            s = dyadic_structure(rng, f"t{len(structures)}", n_atoms=5)
            if {"Fe", "H"} <= set(s.species):
                structures.append(s)
        (tmp_path / "train.xyz").write_text(to_extxyz(structures))
        (tmp_path / "train_manifest.txt").write_text("train.xyz\n")
        return tmp_path / "train_manifest.txt"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_novelty_describes_both_sets_in_one_call(self, rng, tmp_path, monkeypatch, workers):
        cfg = make_corpus(rng, tmp_path, n=6)
        training = self._training_set(rng, tmp_path)
        assert main(["screen", "--config", str(cfg), "--mode", "novelty",
                     "--training-manifest", str(training), "--threshold", "0"]) == 0
        want = read_report(tmp_path)
        given = _count_dataset_ids(monkeypatch, workers)
        assert main(["screen", "--config", str(cfg), "--mode", "novelty",
                     "--training-manifest", str(training), "--threshold", "0"]) == 0
        assert given == [[f"data.xyz#{k}" for k in range(6)] + [f"train.xyz#{k}" for k in range(5)]]
        assert read_report(tmp_path) == want

    def test_novelty_with_an_empty_training_set_accepts_every_candidate(self, rng, tmp_path,
                                                                       capsys):
        cfg = make_corpus(rng, tmp_path, n=6)
        (tmp_path / "empty.xyz").write_text("")
        (tmp_path / "empty_manifest.txt").write_text("empty.xyz\n")
        assert main(["screen", "--config", str(cfg), "--mode", "novelty",
                     "--training-manifest", str(tmp_path / "empty_manifest.txt")]) == 0
        assert capsys.readouterr().err == (
            "warning: empty training set: accepting every candidate\n")
        assert read_report(tmp_path)["output_count"] == 6

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("candidate, trained, code, message", [
        (UserInputError("candidate is bad"), RuntimeError("training bug"),
         1, "error: candidate is bad"),
        (RuntimeError("candidate bug"), UserInputError("training is bad"),
         2, "internal-error: RuntimeError: candidate bug"),
    ])
    def test_novelty_raises_the_candidate_error_first(self, rng, tmp_path, monkeypatch, capsys,
                                                      workers, candidate, trained, code, message):
        import dvlae.descriptors as desc

        cfg = make_corpus(rng, tmp_path, n=6)
        training = self._training_set(rng, tmp_path)
        _count_dataset_ids(monkeypatch, workers)
        compute = desc._neighbors

        def planted(s, sfset):
            if s.id.endswith("data.xyz#4"):     # the candidate fails slowly
                time.sleep(0.3)
                raise candidate
            if s.id.endswith("train.xyz#0"):    # the training structure at once
                raise trained
            return compute(s, sfset)

        monkeypatch.setattr(desc, "_neighbors", planted)
        assert main(["screen", "--config", str(cfg), "--mode", "novelty",
                     "--training-manifest", str(training)]) == code
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_one(self, rng, tmp_path, capsys, threshold):
        cfg = make_corpus(rng, tmp_path, n=4)
        cfg.write_text(cfg.read_text().replace(
            "mode = exact", f"mode = novelty\ntraining_manifest = manifest.txt\nthreshold = {threshold}"))
        assert main(["screen", "--config", str(cfg)]) == 1
        assert "threshold must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "screening_report.json").exists()

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

    def test_diverging_tsne_prints_only_the_error(self, rng, tmp_path):
        # A learning rate of 1e300 overflows the coordinates to inf and nan:
        # the KL check reports it, with no numpy warning ahead of it
        cfg = make_corpus(rng, tmp_path, n=4)
        cfg.write_text(cfg.read_text().replace("iterations = 250",
                                               "iterations = 250\nlearning_rate = 1e300"))
        vec = tmp_path / "vec.csv"
        write_vector_csv([f"p{i}" for i in range(30)], [None] * 30, rng.normal(size=(30, 3)), vec)
        proc = subprocess.run([sys.executable, "-m", "dvlae.cli", "embed", "--config", str(cfg),
                               "--input", str(vec)], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "error: KL divergence became non-finite during optimization\n"

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

    def test_tsne_over_memory_budget_exits_one(self, rng, tmp_path, capsys, monkeypatch):
        import dvlae.embedding as emb_mod

        def fail(*args, **kwargs):
            raise AssertionError("distance matrix built before the t-SNE memory check")
        monkeypatch.setattr(emb_mod, "pairwise_distances", fail)
        cfg = make_corpus(rng, tmp_path, n=6)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace("perplexity = 4", "perplexity = 1")
                       .replace("iterations = 250", "iterations = 1000000000000"))
        code = main(["embed", "--config", str(cfg),
                     "--input", str(tmp_path / "out" / "fingerprints.txt")])
        assert code == 1
        assert "--method pca" in capsys.readouterr().err

    @pytest.mark.skipif(not _pool_possible(),
                        reason="needs /proc, fork and two CPUs for a process pool")
    def test_killed_calibration_worker_exits_two(self, rng, tmp_path, capsys, monkeypatch):
        import multiprocessing
        import signal

        import dvlae.embedding as emb_mod
        from dvlae import parallel

        parent = os.getpid()
        calibrate = emb_mod._calibrate_row

        def killed(sq, target):
            if os.getpid() != parent:   # as the kernel's out-of-memory killer would
                os.kill(os.getpid(), signal.SIGKILL)
            return calibrate(sq, target)

        monkeypatch.setattr(emb_mod, "_calibrate_row", killed)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(emb_mod, "_CALIBRATION_POOL_MIN_POINTS", 0)
        cfg = make_corpus(rng, tmp_path, n=2)
        vec = tmp_path / "vec.csv"
        write_vector_csv([f"p{i}" for i in range(30)], [None] * 30, rng.normal(0, 1, (30, 3)),
                         vec)
        assert main(["embed", "--config", str(cfg), "--input", str(vec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal-error: RuntimeError: worker process "), err
        assert f"exited with code {-signal.SIGKILL}" in err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "embedding.csv").exists()

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

        # One worker: every structure is described in this process, where
        # the wrapper below can count it.
        given = _count_dataset_ids(monkeypatch, workers=1)
        described = []
        compute = desc._neighbors

        def counting(s, *args, **kwargs):
            described.append(s.id)
            return compute(s, *args, **kwargs)

        monkeypatch.setattr(desc, "_neighbors", counting)
        cfg = make_corpus(rng, tmp_path, n=7)
        assert main(["embed", "--config", str(cfg), "--source", source, "--method", "pca",
                     "--compare-baseline"]) == 0
        assert len(described) == 7
        assert sorted(sum(given, [])) == sorted(Path(i).name for i in described)
        baseline = (tmp_path / "out" / "embedding_baseline.csv").read_bytes()
        if source == "baseline":
            assert baseline == (tmp_path / "out" / "embedding.csv").read_bytes()

    @pytest.mark.parametrize("source", ["baseline", "mean"])
    def test_compare_baseline_on_the_pool_describes_each_structure_once(
            self, rng, tmp_path, monkeypatch, source):
        given = _count_dataset_ids(monkeypatch, workers=2)
        cfg = make_corpus(rng, tmp_path, n=7)
        assert main(["embed", "--config", str(cfg), "--source", source, "--method", "pca",
                     "--compare-baseline"]) == 0
        ids = sum(given, [])
        assert len(ids) == len(set(ids)) == 7

    def test_source_mean_vectors(self, rng, tmp_path):
        cfg = make_corpus(rng, tmp_path, n=9)
        assert main(["embed", "--config", str(cfg), "--source", "mean",
                     "--method", "pca"]) == 0
        emb = read_embedding(tmp_path / "out" / "embedding.csv")
        assert len(emb.ids) == 9


    @pytest.mark.parametrize("method", ["tsne", "pca"])
    def test_fingerprint_input_read_once_and_kept_packed(self, rng, tmp_path, monkeypatch,
                                                         method):
        import dvlae.cli as cli_mod
        import dvlae.distance as dist_mod
        import dvlae.embedding as emb_mod
        import dvlae.fingerprint as fp_mod
        from dvlae.config import load_config

        cfg = make_corpus(rng, tmp_path, n=14)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        fpset = read_fingerprints(fps)
        bits = fingerprint_bits(fpset)

        reads, distance_inputs, unpacked = [], [], []
        real_read, real_distances = cli_mod.read_input_text, emb_mod.pairwise_distances
        real_unpack = np.unpackbits

        def counting_read(path, what):
            reads.append(str(path))
            return real_read(path, what)

        def recording_distances(vectors, metric="euclidean"):
            distance_inputs.append((vectors.dtype, vectors.shape, metric))
            return real_distances(vectors, metric)

        def recording_unpack(packed, *args, **kwargs):
            out = real_unpack(packed, *args, **kwargs)
            unpacked.append(out.shape)
            return out

        monkeypatch.setattr(cli_mod, "read_input_text", counting_read)
        monkeypatch.setattr(fp_mod, "read_input_text", counting_read)
        monkeypatch.setattr(emb_mod, "pairwise_distances", recording_distances)
        # The all-pairs distances unpack the bits only in column blocks of
        # 2 packed bytes, and PCA's loadings only in float blocks within a
        # 4 kB budget: never the whole (n, n_bits) matrix.
        assert 8 * 14 * fpset.spec.n_bits > 4096
        monkeypatch.setattr(dist_mod, "_GRAM_BLOCK_BYTES", 2)
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 4096)
        monkeypatch.setattr(np, "unpackbits", recording_unpack)
        assert main(["embed", "--config", str(cfg), "--input", str(fps),
                     "--method", method]) == 0
        assert reads == [str(fps)]
        got = read_embedding(tmp_path / "out" / "embedding.csv").coords
        if method == "tsne":
            assert distance_inputs == [(np.uint8, (14, (fpset.spec.n_bits + 7) // 8),
                                        "packed-hamming")]
            assert unpacked and all(shape[0] == 14 and shape[1] <= 16 for shape in unpacked)
            naive = (bits[:, None, :] != bits[None, :, :]).sum(axis=2).astype(float)
            want, _ = emb_mod.tsne_embed(naive, load_config(cfg).tsne)
        else:
            assert distance_inputs == []
            assert unpacked and all(8 * rows * cols <= 4096 for rows, cols in unpacked)
            want = emb_mod.pca_project(fpset.fingerprints, metric="packed-hamming")
        assert np.array_equal(got, want)

    def test_empty_fingerprint_file_exits_one(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=4)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        fps = tmp_path / "out" / "fingerprints.txt"
        fps.write_text("".join(fps.read_text().splitlines(keepends=True)[:2]))
        for method in ("tsne", "pca"):
            assert main(["embed", "--config", str(cfg), "--input", str(fps),
                         "--method", method]) == 1
            assert capsys.readouterr().err.startswith("error: ")


def _forbid_work(monkeypatch):
    """Make every descriptor, distance, t-SNE and PCA computation an error."""
    import dvlae.descriptors as desc_mod
    import dvlae.embedding as emb_mod

    def fail(*args, **kwargs):
        raise AssertionError("work started before the settings and outputs were checked")
    monkeypatch.setattr(desc_mod, "_neighbors", fail)
    monkeypatch.setattr(emb_mod, "pairwise_distances", fail)
    monkeypatch.setattr(emb_mod, "tsne_embed", fail)
    monkeypatch.setattr(emb_mod, "pca_project", fail)


class TestFailFast:
    """Unwritable outputs and over-cap settings exit 1 before any work."""

    @pytest.mark.parametrize("argv", [
        ["fingerprint"],
        ["embed", "--input", "out/fingerprints.txt"],
        ["embed", "--source", "mean"],
        ["screen", "--mode", "novelty", "--training-manifest", "manifest.txt"],
    ])
    def test_output_below_a_file(self, rng, tmp_path, capsys, monkeypatch, argv):
        cfg = make_corpus(rng, tmp_path, n=6)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        monkeypatch.chdir(tmp_path)
        _forbid_work(monkeypatch)
        cfg.write_text(cfg.read_text().replace("output = out", "output = run.ini/sub"))
        assert main([argv[0], "--config", str(cfg)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create directory {tmp_path / 'run.ini' / 'sub'}")
        assert main([argv[0], "--config", str(cfg), "--out", "out/fingerprints.txt/sub"]
                    + argv[1:]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'out' / 'fingerprints.txt' / 'sub'}: Not a directory" in err

    def test_output_is_a_file(self, rng, tmp_path, capsys, monkeypatch):
        cfg = make_corpus(rng, tmp_path, n=6)
        _forbid_work(monkeypatch)
        assert main(["fingerprint", "--config", str(cfg), "--out", str(cfg)]) == 1
        assert f"{cfg} is not a directory" in capsys.readouterr().err

    def test_bins_cap_before_descriptors(self, rng, tmp_path, capsys, monkeypatch):
        cfg = make_corpus(rng, tmp_path, n=6)
        _forbid_work(monkeypatch)
        cfg.write_text(cfg.read_text().replace("bins = 16", f"bins = {10**11}"))
        assert main(["fingerprint", "--config", str(cfg)]) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("threshold = nan", "threshold must be finite and >= 0, got nan"),
        ("threshold = -1", "threshold must be finite and >= 0, got -1.0"),
        ("radius = -1", "radius must be >= 0, got -1"),
    ])
    @pytest.mark.parametrize("argv", [
        ["fingerprint"],
        ["screen", "--fingerprints", "out/fingerprints.txt"],
        ["screen", "--mode", "novelty", "--training-manifest", "manifest.txt"],
        ["embed", "--input", "out/fingerprints.txt"],
        ["embed", "--source", "mean"],
    ])
    def test_screening_settings_at_load(self, rng, tmp_path, capsys, monkeypatch, argv,
                                        setting, message):
        cfg = make_corpus(rng, tmp_path, n=6)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        monkeypatch.chdir(tmp_path)
        _forbid_work(monkeypatch)
        cfg.write_text(cfg.read_text().replace("mode = exact", f"mode = exact\n{setting}"))
        assert main([argv[0], "--config", str(cfg), "--out", "o2"] + argv[1:]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("zeta = 1", "zeta = -1", "zeta must be finite and >= 0, got -1.0"),
        ("radial_eta = 0.0 1.0", "radial_eta = -1", "eta must be finite and >= 0, got -1.0"),
        ("lambda = -1 1", "lambda = 2", "lam must be +1 or -1, got 2"),
        ("zeta = 1", "zeta = 1\nzeta.Fe-H-H = -1", "zeta must be finite and >= 0, got -1.0"),
    ])
    @pytest.mark.parametrize("argv", [
        ["fingerprint"],
        ["screen", "--fingerprints", "out/fingerprints.txt"],
        ["screen", "--mode", "novelty", "--training-manifest", "manifest.txt"],
        ["embed", "--input", "out/fingerprints.txt"],
        ["embed", "--input", "out/fingerprints.txt", "--method", "pca"],
        ["embed", "--source", "mean"],
        ["ood", "--training", "out/fingerprints.txt", "--predictions", "out/fingerprints.txt"],
    ])
    def test_descriptor_parameters_at_load(self, rng, tmp_path, capsys, monkeypatch, argv,
                                           old, new, message):
        # the grid is checked without an element list, so commands that
        # build no descriptors reject it too
        cfg = make_corpus(rng, tmp_path, n=6)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        monkeypatch.chdir(tmp_path)
        _forbid_work(monkeypatch)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main([argv[0], "--config", str(cfg), "--out", "o2"] + argv[1:]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()

    def test_novelty_threshold_before_descriptors(self, rng, tmp_path, capsys, monkeypatch):
        cfg = make_corpus(rng, tmp_path, n=6)
        _forbid_work(monkeypatch)
        assert main(["screen", "--config", str(cfg), "--mode", "novelty", "--threshold", "nan",
                     "--training-manifest", str(tmp_path / "manifest.txt")]) == 1
        assert "threshold must be finite" in capsys.readouterr().err


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

    def _refingerprinted(self, tmp_path, cfg, name, old, new):
        """Fingerprints of the corpus under the shared spec, with ``old``
        replaced by ``new`` in the config."""
        assert old in cfg.read_text()
        other = tmp_path / f"{name}.ini"
        other.write_text(cfg.read_text().replace(old, new))
        assert main(["fingerprint", "--config", str(other), "--out", str(tmp_path / name),
                     "--spec", str(tmp_path / "out" / "histogram_spec.json")]) == 0
        return tmp_path / name / "fingerprints.txt"

    def test_xor_mode_mismatch_exits_one(self, rng, tmp_path, capsys):
        cfg, train, _ = self._two_fingerprint_files(rng, tmp_path)
        pred = self._refingerprinted(tmp_path, cfg, "counts", "bins = 16\n",
                                     "bins = 16\nxor_mode = count-equality\n")
        capsys.readouterr()
        assert main(["ood", "--config", str(cfg), "--training", str(train),
                     "--predictions", str(pred)]) == 1
        assert capsys.readouterr().err == (
            "error: training and prediction fingerprints use different XOR modes "
            "(occupancy vs count-equality)\n")

    def test_reference_mismatch_warns_in_one_line(self, rng, tmp_path, capsys):
        cfg, train, pred = self._two_fingerprint_files(rng, tmp_path)
        capsys.readouterr()
        assert main(["ood", "--config", str(cfg), "--training", str(train),
                     "--predictions", str(pred)]) == 0
        assert capsys.readouterr().err == ""
        other = self._refingerprinted(tmp_path, cfg, "by-id", "reference = path:ref.xyz",
                                      "reference = auto")
        capsys.readouterr()
        assert main(["ood", "--config", str(cfg), "--training", str(train),
                     "--predictions", str(other)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: training and prediction fingerprints name "
                              "different references (")
        assert err.count("\n") == 1


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
        report = read_report(tmp_path)
        assert report["output_count"] == 10

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
        from dvlae.embedding import read_vectors

        ids = [f"v{i}" for i in range(5)]
        tags = ["a", None, "b", None, "a"]
        vectors = rng.normal(0, 2, (5, 4))
        path = tmp_path / "vec.csv"
        write_vector_csv(ids, tags, vectors, path)
        back_ids, back_tags, back_vecs = read_vectors(path, path.read_text(), None)
        assert back_ids == ids
        assert back_tags == tags
        assert np.array_equal(back_vecs, vectors)

    def test_interrupt_prints_one_line_and_exits_130(self, rng, tmp_path, monkeypatch, capsys):
        import dvlae.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_fingerprint", interrupted)
        cfg = make_corpus(rng, tmp_path, n=2)
        assert main(["fingerprint", "--config", str(cfg)]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"

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

    @pytest.mark.parametrize("section, line, named", [
        ("run", "sed = 3", "sed"),
        ("data", "element = Fe H", "element"),
        ("descriptors", "Cutoff = 4.0", "Cutoff"),
        ("descriptors", "grid = default", "grid"),     # once a key that did nothing
        ("fingerprint", "bin = 8", "bin"),
        ("screening", "raduis = 3", "raduis"),     # once silently a radius-0 report
        ("embedding", "perplexity.Fe = 2", "perplexity"),
    ])
    def test_unknown_key_in_each_section_exits_one(self, rng, tmp_path, capsys,
                                                   section, line, named):
        cfg = make_corpus(rng, tmp_path, n=6, duplicate_groups=1)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert main(["screen", "--config", str(cfg), "--mode", "hamming",
                     "--fingerprints", str(tmp_path / "out" / "fingerprints.txt")]) == 1
        assert f"[{section}] key {named!r}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "screening_report.json").exists()

    @pytest.mark.parametrize("old, new", [
        ("[embedding]", "[embeding]"),
        ("[run]", "[Run]"),
        ("[run]", "[DEFAULT]\nseed = 3\n\n[run]"),
    ])
    def test_unknown_section_exits_one(self, rng, tmp_path, capsys, old, new):
        cfg = make_corpus(rng, tmp_path, n=4)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["embed", "--config", str(cfg), "--source", "mean", "--method", "pca"]) == 1
        section = new.split("]")[0] + "]"
        assert f"error: unknown config section {section}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_flag_is_a_schema_key(self):
        import argparse

        from dvlae.cli import build_parser
        from dvlae.config import SCHEMA

        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for p in commands.choices.values() for a in p._actions if "." in a.dest}
        assert {"run.output", "fingerprint.bins", "screening.radius"} <= dests
        for dest in dests:
            section, _, key = dest.partition(".")
            assert key in SCHEMA.get(section, {}), dest

    def test_readme_example_loads(self, tmp_path):
        import configparser
        from pathlib import Path

        from dvlae.config import SCHEMA, load_config
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (tmp_path / "run.ini").write_text(readme.split("```ini\n")[1].split("```")[0])
        # the example lists every section and key, per-pair overrides aside
        example = configparser.ConfigParser(interpolation=None, default_section="")
        example.optionxform = str
        example.read(tmp_path / "run.ini")
        listed = {(name, key) for name in example.sections() for key in example[name]
                  if "." not in key}
        assert listed == {(name, key) for name in SCHEMA for key in SCHEMA[name]}
        cfg = load_config(tmp_path / "run.ini")
        assert cfg.manifests == (tmp_path / "manifest.txt",)
        assert cfg.elements == ("Fe", "H")
        assert cfg.keep_ids == tmp_path / "out" / "kept_ids.txt"
        assert cfg.grid.overrides == {("radial_eta", "Fe-H"): (0.0, 2.0),
                                      ("zeta", "Fe-Fe-H"): (1.0,)}
        assert (cfg.reference, cfg.xor_mode, cfg.screening_mode, cfg.method) == \
            ("auto", "occupancy", "exact", "tsne")
        assert cfg.training_manifest == tmp_path / "train.txt"

    def test_unsupported_format_rejected(self, rng, tmp_path):
        cfg_path = make_corpus(rng, tmp_path, n=4)
        cfg_path.write_text(cfg_path.read_text().replace("format = 1", "format = 2"))
        from dvlae.config import load_config
        from dvlae.errors import ConfigError
        with pytest.raises(ConfigError, match="format"):
            load_config(cfg_path)

    @pytest.mark.parametrize("command, flags, message", [
        ("screen", ["--mode", "fuzzy"],
         "screening mode must be exact, hamming, or novelty, got 'fuzzy'"),
        ("screen", ["--aggregate", "max"], "aggregate must be min or mean, got 'max'"),
        ("screen", ["--radius", "two"], "radius must be a int, got 'two'"),
        ("screen", ["--threshold", "low"], "threshold must be a float, got 'low'"),
        ("embed", ["--method", "umap"], "embedding method must be tsne or pca, got 'umap'"),
        ("embed", ["--perplexity", "high"], "perplexity must be a float, got 'high'"),
        ("fingerprint", ["--bins", "0"], "bins must be >= 1, got 0"),
        ("fingerprint", ["--seed", "x"], "seed must be a int, got 'x'"),
        ("embed", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_flag_validated_as_its_config_key(self, rng, tmp_path, capsys,
                                              command, flags, message):
        cfg_path = make_corpus(rng, tmp_path, n=4)
        assert main([command, "--config", str(cfg_path), *flags]) == 1
        assert message in capsys.readouterr().err

    def test_overrides_set_config_keys(self, rng, tmp_path):
        from dvlae.config import load_config
        cfg_path = make_corpus(rng, tmp_path, n=4)
        cfg = load_config(cfg_path, [("run.seed", "11"), ("fingerprint.bins", 9),
                                     ("embedding.perplexity", "2.5"), ("screening.radius", "3")])
        assert (cfg.tsne.seed, cfg.bins, cfg.tsne.perplexity, cfg.radius) == (11, 9, 2.5, 3)
        assert load_config(cfg_path).tsne.seed == 7

    def test_path_flags_relative_to_working_directory(self, rng, tmp_path, monkeypatch):
        project, work = tmp_path / "project", tmp_path / "work"
        project.mkdir()
        work.mkdir()
        cfg = make_corpus(rng, project, n=6)
        (work / "train.txt").write_text(f"{project / 'data.xyz'}\n")
        monkeypatch.chdir(work)
        assert main(["screen", "--config", str(cfg), "--mode", "novelty",
                     "--training-manifest", "train.txt", "--out", "res"]) == 0
        assert (work / "res" / "screening_report.json").exists()
        assert not (project / "res").exists()

    def test_path_key_checked_only_when_read(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=6)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace(
            "mode = exact", "mode = exact\ntraining_manifest = gone.txt"))
        assert main(["embed", "--config", str(cfg), "--method", "pca",
                     "--input", str(tmp_path / "out" / "fingerprints.txt")]) == 0
        assert main(["screen", "--config", str(cfg), "--mode", "novelty"]) == 1
        assert f"training manifest not found: {tmp_path / 'gone.txt'}" in capsys.readouterr().err

    def test_bins_cap_exits_one(self, rng, tmp_path, capsys):
        cfg = make_corpus(rng, tmp_path, n=4)
        assert main(["fingerprint", "--config", str(cfg)]) == 0
        spec = json.loads((tmp_path / "out" / "histogram_spec.json").read_text())
        spec["bins"] = 10**11
        (tmp_path / "huge_spec.json").write_text(json.dumps(spec))
        assert main(["fingerprint", "--config", str(cfg), "--out", str(tmp_path / "o1"),
                     "--spec", str(tmp_path / "huge_spec.json")]) == 1
        assert "exceeds the cap" in capsys.readouterr().err
        cfg.write_text(cfg.read_text().replace("bins = 16", f"bins = {10**11}"))
        assert main(["fingerprint", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 1
        assert "exceeds the cap" in capsys.readouterr().err
        assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()
