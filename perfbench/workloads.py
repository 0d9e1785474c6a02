"""The four workloads: inputs from a seed, the dvlae command sequence, and the
output checks (oracles and invariants computed from the inputs).

Why these four (the paper's three uses of the fingerprint, split so each
stresses different layers):

- curate: the demo corpus (650 small Fe/H cells) -> fingerprint, exact and
  Hamming dedup.  The per-centre / per-column Python loops in descriptors
  and fingerprint dominate; search and embedding do almost nothing.
- bulk: supercell ladders of dense 2-3-atom cells (~100 neighbours per atom
  at 6 Å, up to ~250 atoms).  Per-atom angular-pair work and the neighbour
  search dominate; per-structure overhead and search are negligible.
- store: an active-learning round against a store of several thousand
  records.  Fingerprint-file reading and Hamming search dominate; the batch
  is fingerprinted through the serialized-spec path (no bin-edge step).
- map: ~1000 cluster-tagged records -> exact t-SNE (past the 250-iteration
  exaggeration switch), PCA, SVG plot.  The O(n^2) distance matrix,
  perplexity calibration and t-SNE gradient dominate; kept apart so that
  embedding cost does not swamp the search layers of ``store``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs as gen

FE_H_CONFIG = """\
[run]
format = 1
seed = 0
output = out

[data]
manifests = {manifest}
elements = Fe H

[descriptors]
cutoff = {cutoff}

[fingerprint]
bins = 50
reference = {reference}

[screening]
mode = exact

[embedding]
method = tsne
perplexity = {perplexity}
iterations = {iterations}
"""


def write_config(path: Path, manifest: str, cutoff: float = 5.0, reference: str = "path:ref.xyz",
                 perplexity: float = 30.0, iterations: int = 1000) -> None:
    path.write_text(FE_H_CONFIG.format(manifest=manifest, cutoff=cutoff, reference=reference,
                                       perplexity=perplexity, iterations=iterations))


@dataclass(frozen=True)
class Command:
    kind: str               # fingerprint | screen | ood | embed | plot
    argv: tuple[str, ...]   # arguments of the dvlae CLI
    outputs: tuple[str, ...]


@dataclass
class Inputs:
    """What setup wrote, plus the facts the checks need."""

    sizes: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


class Checks:
    """Collects named pass/fail results."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


@dataclass(frozen=True)
class Workload:
    setup: Callable             # (dir, seed, smoke, run_cli) -> Inputs
    commands: Callable          # (Inputs, out) -> list[Command]
    check: Callable             # (dir, Inputs, out, Checks) -> None


# ---------------------------------------------------------------------------
# Shared oracles
# ---------------------------------------------------------------------------

def exact_oracle(ids, packed):
    """First occurrence of each bit pattern is kept; the rest map to it."""
    first: dict[bytes, str] = {}
    kept, removed = [], {}
    for ident, row in zip(ids, packed):
        key = row.tobytes()
        if key in first:
            removed[ident] = first[key]
        else:
            first[key] = ident
            kept.append(ident)
    return kept, removed


def greedy_leader_oracle(ids, packed, radius: int):
    """Greedy leader clustering in dataset order with numpy XOR + popcount."""
    leaders = np.empty_like(packed)
    leader_ids: list[str] = []
    removed = {}
    for ident, row in zip(ids, packed):
        if leader_ids:
            hits = np.flatnonzero(gen.hamming_rows(leaders[: len(leader_ids)], row) <= radius)
            if hits.size:
                removed[ident] = leader_ids[int(hits[0])]
                continue
        leaders[len(leader_ids)] = row
        leader_ids.append(ident)
    return leader_ids, removed


def read_report(path: Path):
    data = json.loads(Path(path).read_text())
    return list(data["kept"]), dict(data["removed"]), data


def check_report(checks: Checks, label: str, path: Path, kept, removed, n_input: int) -> None:
    got_kept, got_removed, data = read_report(path)
    checks.add(f"{label}: kept ids match the oracle", got_kept == kept,
               f"{len(got_kept)} kept vs oracle {len(kept)}")
    checks.add(f"{label}: removal map matches the oracle", got_removed == removed,
               f"{len(got_removed)} removed vs oracle {len(removed)}")
    checks.add(f"{label}: counts consistent",
               data["input_count"] == n_input and data["output_count"] == len(got_kept),
               f"input_count {data['input_count']} vs {n_input}")
    kept_txt = (path.parent / "kept_ids.txt").read_text().split()
    checks.add(f"{label}: kept_ids.txt lists the kept ids", kept_txt == got_kept)


def check_fingerprints(checks: Checks, path: Path, ids) -> gen.FingerprintFile:
    fps = gen.read_fingerprint_file(path)
    checks.add("fingerprint: one record per structure, in input order", fps.ids == list(ids),
               f"{len(fps.ids)} records for {len(ids)} structures")
    return fps


def xyz_ids(source: str, n: int) -> list[str]:
    return [f"{source}#{i}" for i in range(n)]


# ---------------------------------------------------------------------------
# curate
# ---------------------------------------------------------------------------

CURATE_RADIUS = 8


def curate_setup(d: Path, seed: int, smoke: bool, run_cli) -> Inputs:
    frames_per_phase, dups = (8, 3) if smoke else (300, 50)
    frames, dup_of = gen.demo_corpus(np.random.default_rng(seed), frames_per_phase, dups)
    (d / "data.xyz").write_text(gen.to_extxyz(frames))
    (d / "manifest.txt").write_text("data.xyz\n")
    (d / "ref.xyz").write_text(gen.to_extxyz(frames[:1]))
    write_config(d / "run.ini", "manifest.txt", perplexity=8, iterations=800)
    return Inputs(
        sizes={"structures": len(frames), "atoms": sum(len(f.species) for f in frames),
               "cutoff": 5.0, "bits": 5800, "hamming_radius": CURATE_RADIUS},
        facts={"frames": frames, "dup_of": dup_of},
    )


def curate_commands(inp: Inputs, out: str) -> list[Command]:
    fp = f"{out}/fp/fingerprints.txt"
    return [
        Command("fingerprint", ("fingerprint", "--config", "run.ini", "--out", f"{out}/fp"),
                (fp, f"{out}/fp/histogram_spec.json")),
        Command("screen", ("screen", "--config", "run.ini", "--fingerprints", fp,
                           "--mode", "exact", "--out", f"{out}/exact"),
                (f"{out}/exact/screening_report.json", f"{out}/exact/kept_ids.txt")),
        Command("screen", ("screen", "--config", "run.ini", "--fingerprints", fp, "--mode",
                           "hamming", "--radius", str(CURATE_RADIUS), "--out", f"{out}/hamming"),
                (f"{out}/hamming/screening_report.json", f"{out}/hamming/kept_ids.txt")),
    ]


def curate_check(d: Path, inp: Inputs, out: str, checks: Checks) -> None:
    ids = xyz_ids("data.xyz", len(inp.facts["frames"]))
    fps = check_fingerprints(checks, d / out / "fp/fingerprints.txt", ids)
    kept, removed = exact_oracle(fps.ids, fps.packed)
    check_report(checks, "exact", d / out / "exact/screening_report.json", kept, removed, len(ids))

    _, got_removed, _ = read_report(d / out / "exact/screening_report.json")
    # A kept id represents itself; a duplicate's source may itself be removed.
    bad = [dup for dup, src in inp.facts["dup_of"].items()
           if got_removed.get(ids[dup]) != got_removed.get(ids[src], ids[src])]
    checks.add("exact: every injected duplicate is removed onto the frame it copies",
               not bad, f"{len(bad)} duplicates not mapped, e.g. {bad[:3]}")

    h_kept, h_removed = greedy_leader_oracle(fps.ids, fps.packed, CURATE_RADIUS)
    check_report(checks, "hamming", d / out / "hamming/screening_report.json",
                 h_kept, h_removed, len(ids))
    got_h_kept, _, _ = read_report(d / out / "hamming/screening_report.json")
    checks.add("hamming: kept set is a subset of the exact kept set",
               set(got_h_kept) <= set(kept))


# ---------------------------------------------------------------------------
# bulk
# ---------------------------------------------------------------------------

# (tag, lattice Å, species, fractional positions, supercell ladder); about 100
# neighbours per atom inside 6 Å, ladders reach 250 and 192 atoms.
BULK_FAMILIES = (
    ("FeH", 2.65, ("Fe", "H"), ((0, 0, 0), (0.5, 0.5, 0.5)),
     ((1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5))),
    ("Fe2H", 3.03, ("Fe", "Fe", "H"), ((0, 0, 0), (0.5, 0.5, 0), (0.25, 0.25, 0.5)),
     ((1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4))),
)
BULK_PERTURBED_COPIES = 1       # of each family's largest cell
BULK_SMOKE_LADDER = ((1, 1, 1), (2, 1, 1), (2, 2, 1))


def bulk_setup(d: Path, seed: int, smoke: bool, run_cli) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    frames, families = [], []
    for tag, lattice, species, frac, ladder in BULK_FAMILIES:
        prim = gen.dense_primitive(rng, tag, lattice, species, frac)
        members = []
        for reps in (BULK_SMOKE_LADDER if smoke else ladder):
            members.append(len(frames))
            frames.append(gen.supercell(prim, reps))
        families.append(members)
    for members in families:
        big = frames[members[-1]]
        for _ in range(BULK_PERTURBED_COPIES):
            frames.append(gen.Frame(big.cell, big.species,
                                    big.positions + rng.normal(0, 0.05, big.positions.shape),
                                    f"{big.tag}-perturbed"))
    (d / "bulk.xyz").write_text(gen.to_extxyz(frames))
    (d / "manifest.txt").write_text("bulk.xyz\n")
    write_config(d / "run.ini", "manifest.txt", cutoff=6.0, reference="auto")
    return Inputs(
        sizes={"structures": len(frames), "atoms": sum(len(f.species) for f in frames),
               "max_atoms": max(len(f.species) for f in frames), "cutoff": 6.0, "bits": 5800},
        facts={"frames": frames, "families": families},
    )


def bulk_commands(inp: Inputs, out: str) -> list[Command]:
    fp = f"{out}/fp/fingerprints.txt"
    return [
        Command("fingerprint", ("fingerprint", "--config", "run.ini", "--out", f"{out}/fp"),
                (fp, f"{out}/fp/histogram_spec.json")),
        Command("screen", ("screen", "--config", "run.ini", "--fingerprints", fp,
                           "--mode", "exact", "--out", f"{out}/exact"),
                (f"{out}/exact/screening_report.json", f"{out}/exact/kept_ids.txt")),
    ]


def bulk_check(d: Path, inp: Inputs, out: str, checks: Checks) -> None:
    ids = xyz_ids("bulk.xyz", len(inp.facts["frames"]))
    fps = check_fingerprints(checks, d / out / "fp/fingerprints.txt", ids)
    for members in inp.facts["families"]:
        rows = {fps.packed[i].tobytes() for i in members}
        checks.add(f"bulk: supercells of {ids[members[0]]} share its bits", len(rows) == 1,
                   f"{len(rows)} distinct patterns in the ladder")
    kept, removed = exact_oracle(fps.ids, fps.packed)
    report = d / out / "exact/screening_report.json"
    check_report(checks, "exact", report, kept, removed, len(ids))
    got_kept, got_removed, _ = read_report(report)
    for members in inp.facts["families"]:
        reps = {got_removed.get(ids[i], ids[i]) for i in members}
        checks.add(f"bulk: family of {ids[members[0]]} collapses to one kept id",
                   len(reps) == 1 and reps <= set(got_kept), f"representatives {sorted(reps)}")


# ---------------------------------------------------------------------------
# store and map: records derived from real fingerprints of a seed corpus
# ---------------------------------------------------------------------------

def fingerprint_seed_corpus(d: Path, frames, run_cli) -> gen.FingerprintFile:
    """Fingerprint ``frames`` with the real CLI; writes spec.json beside them."""
    (d / "seed.xyz").write_text(gen.to_extxyz(frames))
    (d / "seed_manifest.txt").write_text("seed.xyz\n")
    (d / "ref.xyz").write_text(gen.to_extxyz(frames[:1]))
    write_config(d / "seed.ini", "seed_manifest.txt")
    run_cli(["fingerprint", "--config", "seed.ini", "--out", "seedfp"], d)
    (d / "spec.json").write_text((d / "seedfp/histogram_spec.json").read_text())
    return gen.read_fingerprint_file(d / "seedfp/fingerprints.txt")


STORE_RADIUS = 12
STORE_TOP_N = 10


def store_setup(d: Path, seed: int, smoke: bool, run_cli) -> Inputs:
    n_solid, n_gas, n_store, n_batch, n_exact, n_out = (
        (6, 2, 200, 12, 3, 2) if smoke else (40, 20, 4000, 100, 20, 5))
    rng = np.random.default_rng([seed, 3])
    corpus = [gen.demo_frame(rng, "solid", 1.0) for _ in range(n_solid)]
    corpus += [gen.demo_frame(rng, "gas", 2.2) for _ in range(n_gas)]
    seed_fps = fingerprint_seed_corpus(d, corpus, run_cli)

    # The store: every seed fingerprint verbatim, then copies whose flip
    # counts cycle through 1..r+4, so a fixed share lands outside the radius
    # of its centre and the leader count barely moves with the seed.
    k = len(corpus)
    centres = np.concatenate([np.arange(k), rng.integers(0, k, n_store - k)])
    packed = np.empty((n_store, seed_fps.packed.shape[1]), dtype=np.uint8)
    packed[:k] = seed_fps.packed
    for i in range(k, n_store):
        flips = rng.integers(0, seed_fps.n_bits, 1 + i % (STORE_RADIUS + 4))
        packed[i] = gen.flip_bits(seed_fps.packed[centres[i]], flips)
    store_ids = [f"store#{i}" for i in range(n_store)]
    gen.write_fingerprint_file(d / "store.txt", seed_fps.header_line, store_ids,
                               [f"c{c}" for c in centres], packed)

    # The batch: exact and lightly perturbed copies, each seed cell copied
    # once before any is copied twice, then a few strays.
    batch, exact = [], []
    sources = np.tile(rng.permutation(k), n_batch // k + 1)
    for i, j in enumerate(sources[: n_batch - n_out]):
        src = corpus[j]
        if i < n_exact:
            exact.append((len(batch), int(j)))
            batch.append(src)
        else:
            batch.append(gen.Frame(src.cell, src.species,
                                   src.positions + rng.normal(0, 0.003, src.positions.shape),
                                   "perturbed"))
    batch += [gen.demo_frame(rng, "stray", 1.6) for _ in range(n_out)]
    (d / "batch.xyz").write_text(gen.to_extxyz(batch))
    (d / "batch_manifest.txt").write_text("batch.xyz\n")
    write_config(d / "run.ini", "batch_manifest.txt")
    return Inputs(
        sizes={"batch_structures": len(batch), "batch_atoms": sum(len(f.species) for f in batch),
               "seed_structures": k, "store_records": n_store, "bits": seed_fps.n_bits,
               "cutoff": 5.0, "hamming_radius": STORE_RADIUS},
        facts={"batch": batch, "exact": exact, "seed_packed": seed_fps.packed,
               "store_ids": store_ids, "store_packed": packed, "n_bits": seed_fps.n_bits},
    )


def store_commands(inp: Inputs, out: str) -> list[Command]:
    fp = f"{out}/fp/fingerprints.txt"
    return [
        Command("fingerprint", ("fingerprint", "--config", "run.ini", "--spec", "spec.json",
                                "--out", f"{out}/fp"),
                (fp, f"{out}/fp/histogram_spec.json")),
        Command("screen", ("screen", "--config", "run.ini", "--fingerprints", "store.txt",
                           "--mode", "hamming", "--radius", str(STORE_RADIUS),
                           "--out", f"{out}/hamming"),
                (f"{out}/hamming/screening_report.json", f"{out}/hamming/kept_ids.txt")),
        Command("ood", ("ood", "--config", "run.ini", "--training", "store.txt",
                        "--predictions", fp, "--top-n", str(STORE_TOP_N), "--out", f"{out}/ood"),
                (f"{out}/ood/ood_scores.csv", f"{out}/ood/ood_top{STORE_TOP_N}.txt")),
    ]


def store_check(d: Path, inp: Inputs, out: str, checks: Checks) -> None:
    f = inp.facts
    ids = xyz_ids("batch.xyz", len(f["batch"]))
    fps = check_fingerprints(checks, d / out / "fp/fingerprints.txt", ids)
    same = all(fps.packed[b].tobytes() == f["seed_packed"][s].tobytes() for b, s in f["exact"])
    checks.add("fingerprint --spec: exact copies reproduce their seed bits", same)

    kept, removed = greedy_leader_oracle(f["store_ids"], f["store_packed"], STORE_RADIUS)
    check_report(checks, "hamming", d / out / "hamming/screening_report.json",
                 kept, removed, len(f["store_ids"]))

    oracle = np.array([int(gen.hamming_rows(f["store_packed"], row).min()) for row in fps.packed])
    with open(d / out / "ood/ood_scores.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    checks.add("ood: header", rows[:1] == [["id", "min_hamming", "normalized"]])
    body = rows[1:]
    pos = {ident: i for i, ident in enumerate(ids)}
    got = [(pos.get(r[0], -1), int(r[1]), float(r[2])) for r in body]
    checks.add("ood: one row per prediction", sorted(g[0] for g in got) == list(range(len(ids))),
               f"{len(body)} rows for {len(ids)} predictions")
    checks.add("ood: every min_hamming equals the packed-XOR row-min oracle",
               all(g[0] >= 0 and g[1] == oracle[g[0]] and g[2] == g[1] / f["n_bits"] for g in got))
    order = sorted(range(len(ids)), key=lambda i: (-oracle[i], i))
    checks.add("ood: ordered by (-score, input order)", [g[0] for g in got] == order)
    checks.add("ood: exact copies score 0", all(oracle[b] == 0 for b, _ in f["exact"]))
    top = (d / out / f"ood/ood_top{STORE_TOP_N}.txt").read_text().split()
    checks.add("ood: top-n file lists the first rows", top == [r[0] for r in body[:STORE_TOP_N]])


MAP_ITERATIONS = 300            # past the 250-iteration exaggeration switch
MAP_NN_FLOOR = 0.95             # t-SNE 1-NN cluster-tag agreement (acceptance 8)
MAP_HIGHLIGHTS = 10


def map_setup(d: Path, seed: int, smoke: bool, run_cli) -> Inputs:
    n_seed, n_clusters, n_points, perplexity, iterations, max_flips = (
        (8, 3, 60, 5.0, 1000, 8) if smoke else (24, 10, 1000, 30.0, MAP_ITERATIONS, 24))
    rng = np.random.default_rng([seed, 4])
    corpus = [gen.demo_frame(rng, "solid", 1.0) for _ in range(n_seed)]
    seed_fps = fingerprint_seed_corpus(d, corpus, run_cli)

    # Cluster centres: seed fingerprints far apart (> 4x the flip count).
    centres: list[int] = []
    for i in range(len(corpus)):
        if len(centres) < n_clusters and all(
                int(gen.hamming_rows(seed_fps.packed[[c]], seed_fps.packed[i])[0]) > 4 * max_flips
                for c in centres):
            centres.append(i)
    if len(centres) < n_clusters:
        raise RuntimeError(f"only {len(centres)} well-separated seed fingerprints")
    cluster = rng.permutation(np.arange(n_points) % n_clusters)
    packed = np.stack([
        gen.flip_bits(seed_fps.packed[centres[c]],
                      rng.integers(0, seed_fps.n_bits, rng.integers(0, max_flips + 1)))
        for c in cluster])
    ids = [f"pt{i}" for i in range(n_points)]
    tags = [f"c{c}" for c in cluster]
    gen.write_fingerprint_file(d / "points.txt", seed_fps.header_line, ids, tags, packed)
    highlight = sorted(rng.choice(n_points, MAP_HIGHLIGHTS, replace=False).tolist())
    (d / "highlight.txt").write_text("".join(f"{ids[i]}\n" for i in highlight))
    (d / "empty_manifest.txt").write_text("")
    write_config(d / "run.ini", "empty_manifest.txt", perplexity=perplexity, iterations=iterations)
    return Inputs(
        sizes={"points": n_points, "clusters": n_clusters, "bits": seed_fps.n_bits,
               "seed_structures": n_seed, "tsne_iterations": iterations, "perplexity": perplexity},
        facts={"ids": ids, "tags": tags, "highlight": [ids[i] for i in highlight]},
    )


def map_commands(inp: Inputs, out: str) -> list[Command]:
    return [
        Command("embed", ("embed", "--config", "run.ini", "--input", "points.txt",
                          "--out", f"{out}/tsne"), (f"{out}/tsne/embedding.csv",)),
        Command("embed", ("embed", "--config", "run.ini", "--input", "points.txt",
                          "--method", "pca", "--out", f"{out}/pca"), (f"{out}/pca/embedding.csv",)),
        Command("plot", ("plot", "--embedding", f"{out}/tsne/embedding.csv",
                         "--highlight", "highlight.txt", "--out", f"{out}/map.svg"),
                (f"{out}/map.svg",)),
    ]


def _read_embedding_csv(checks: Checks, label: str, path: Path, ids, tags) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    checks.add(f"{label}: header", rows[:1] == [["id", "tag", "x", "y"]])
    body = rows[1:]
    checks.add(f"{label}: one row per id, in input order", [r[0] for r in body] == list(ids)
               and [r[1] for r in body] == list(tags), f"{len(body)} rows for {len(ids)} ids")
    coords = np.array([[float(r[2]), float(r[3])] for r in body]).reshape(-1, 2)
    checks.add(f"{label}: coordinates finite", bool(np.all(np.isfinite(coords))))
    return coords


def map_check(d: Path, inp: Inputs, out: str, checks: Checks) -> None:
    ids, tags = inp.facts["ids"], inp.facts["tags"]
    y = _read_embedding_csv(checks, "t-SNE", d / out / "tsne/embedding.csv", ids, tags)
    if len(y) == len(ids):
        d2 = ((y[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        nn = d2.argmin(axis=1)
        agree = float(np.mean([tags[i] == tags[j] for i, j in enumerate(nn)]))
        checks.add(f"t-SNE: 1-NN cluster-tag agreement >= {MAP_NN_FLOOR}",
                   agree >= MAP_NN_FLOOR, f"agreement {agree:.4f}")
    _read_embedding_csv(checks, "PCA", d / out / "pca/embedding.csv", ids, tags)
    svg = (d / out / "map.svg").read_text()
    n_hl = len(inp.facts["highlight"])
    circles, diamonds = svg.count("<circle "), svg.count('class="highlight"')
    checks.add("plot: one mark per point, highlights as diamonds",
               circles == len(ids) - n_hl and diamonds == n_hl,
               f"{circles} circles, {diamonds} diamonds")


WORKLOADS = {
    "curate": Workload(curate_setup, curate_commands, curate_check),
    "bulk": Workload(bulk_setup, bulk_commands, bulk_check),
    "store": Workload(store_setup, store_commands, store_check),
    "map": Workload(map_setup, map_commands, map_check),
}
