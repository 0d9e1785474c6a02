"""Command-line pipeline: fingerprint, screen, embed, ood, plot.

Exit codes: 0 success, 1 user/config error, 2 internal invariant violation.
Every command is deterministic given (config, inputs, seed).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path

import numpy as np

from . import embedding as emb_mod
from . import fingerprint as fp_mod
from . import screening as scr_mod
from .config import RunConfig, build_symmetry_functions, load_config
from .descriptors import compute_dataset_descriptors
from .embedding import read_embedding, write_embedding
from .errors import ConfigError, FormatError, UserInputError
from .ioutil import atomic_write_text
from .structures import Dataset, Structure, load_dataset, parse_extxyz, read_manifest
from .svgplot import PlotSpec, write_scatter_svg


def _load_run_dataset(cfg: RunConfig) -> Dataset:
    files: list[Path] = []
    for manifest in cfg.manifests:
        files.extend(read_manifest(manifest))
    if not files:
        raise ConfigError("manifests name no structure files")
    ds = load_dataset(files, elements=cfg.elements)
    if cfg.keep_ids is not None:
        wanted = [line.strip() for line in cfg.keep_ids.read_text().splitlines()
                  if line.strip() and not line.lstrip().startswith("#")]
        ds = ds.subset(wanted)
    return ds


def _resolve_reference(cfg: RunConfig, ds: Dataset) -> Structure:
    if cfg.reference == "auto":
        return fp_mod.select_reference(ds)
    if cfg.reference.startswith("id:"):
        wanted = cfg.reference[3:]
        for s in ds:
            if s.id == wanted:
                return s
        raise ConfigError(f"reference id {wanted!r} not found in the dataset")
    ref_path = Path(cfg.reference[5:])
    ref_ds = parse_extxyz(ref_path.read_text(), source=str(ref_path))
    if len(ref_ds) == 0:
        raise ConfigError(f"reference file {ref_path} holds no structures")
    return ref_ds.structures[0]   # first frame by convention


def _sfset_for(cfg: RunConfig, ds: Dataset):
    elements = cfg.elements if cfg.elements is not None else ds.elements
    return build_symmetry_functions(elements, cfg.grid)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fingerprint(args) -> int:
    cfg = _apply_common_overrides(load_config(args.config), args)
    if args.bins is not None:
        if args.bins < 1:
            raise ConfigError(f"--bins must be >= 1, got {args.bins}")
        cfg = _replace(cfg, bins=args.bins)
    ds = _load_run_dataset(cfg)
    ref = _resolve_reference(cfg, ds)
    sfset = _sfset_for(cfg, ds)
    spec = None
    if args.spec is not None:
        spec = fp_mod.spec_from_json(Path(args.spec).read_text())
    fpset = fp_mod.batch_fingerprints(
        ds, ref, sfset, cfg.bins, xor_mode=cfg.xor_mode, spec=spec
    )
    out = cfg.out_dir
    fp_mod.write_fingerprints(fpset, out / "fingerprints.txt")
    atomic_write_text(out / "histogram_spec.json", fp_mod.spec_to_json(fpset.spec))
    print(f"fingerprinted {len(fpset)} structures, {fpset.spec.n_bits} bits each")
    return 0


def _validate_against_config(fpset: fp_mod.FingerprintSet, cfg: RunConfig) -> None:
    if fpset.spec.bins != cfg.bins:
        raise ConfigError(
            f"fingerprint file uses {fpset.spec.bins} bins but the config says {cfg.bins}"
        )
    if cfg.elements is not None:
        layout = build_symmetry_functions(cfg.elements, cfg.grid).column_layout()
        if fpset.spec.columns != layout:
            raise ConfigError(
                "fingerprint file column layout does not match the config's descriptor grid"
            )


def cmd_screen(args) -> int:
    cfg = _apply_common_overrides(load_config(args.config), args)
    mode = args.mode or cfg.screening_mode
    out = cfg.out_dir

    if mode == "novelty":
        training_manifest = Path(args.training_manifest) if args.training_manifest else cfg.training_manifest
        if training_manifest is None:
            raise ConfigError("novelty screening needs a training manifest "
                              "(config [screening] training_manifest or --training-manifest)")
        candidates = _load_run_dataset(cfg)
        training = load_dataset(read_manifest(training_manifest))
        elements = cfg.elements if cfg.elements is not None else tuple(
            dict.fromkeys(candidates.elements + training.elements)
        )
        sfset = build_symmetry_functions(elements, cfg.grid)
        cand_vecs = fp_mod.mean_descriptor_vectors(
            compute_dataset_descriptors(candidates.structures, sfset)
        )
        train_vecs = fp_mod.mean_descriptor_vectors(
            compute_dataset_descriptors(training.structures, sfset)
        )
        threshold = cfg.threshold if args.threshold is None else args.threshold
        aggregate = args.aggregate or cfg.aggregate
        result = scr_mod.novelty_screen(
            candidates.ids(), cand_vecs, train_vecs,
            scr_mod.NoveltyConfig(threshold=threshold, aggregate=aggregate),
            training_ids=training.ids(),
        )
        report = scr_mod.novelty_report(result)
    else:
        if args.fingerprints is None:
            raise ConfigError("dedup screening needs --fingerprints")
        fpset = fp_mod.read_fingerprints(args.fingerprints)
        _validate_against_config(fpset, cfg)
        radius = cfg.radius if args.radius is None else args.radius
        if mode == "exact":
            report = scr_mod.dedup_exact(fpset.fingerprints)
        else:
            report = scr_mod.dedup_hamming(fpset.fingerprints, radius)

    scr_mod.write_report(report, out / "screening_report.json")
    scr_mod.write_kept_manifest(report, out / "kept_ids.txt")
    print(
        f"screened {report.input_count} -> kept {report.output_count} "
        f"(reduction {report.reduction_ratio:.4f})"
    )
    return 0


def _read_vector_csv(path: Path):
    rows = list(csv.reader(io.StringIO(path.read_text())))
    if not rows or len(rows[0]) < 3 or rows[0][:2] != ["id", "tag"]:
        raise FormatError(f"{path}: expected header id,tag,v0,...")
    width = len(rows[0]) - 2
    ids, tags, vecs = [], [], []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width + 2:
            raise FormatError(f"{path}, line {ln}: expected {width + 2} fields")
        ids.append(row[0])
        tags.append(row[1] or None)
        try:
            vecs.append([float(v) for v in row[2:]])
        except ValueError:
            raise FormatError(f"{path}, line {ln}: unparsable vector entry") from None
        if not np.all(np.isfinite(vecs[-1])):
            raise FormatError(f"{path}, line {ln}: non-finite vector entry")
    return ids, tags, np.array(vecs, dtype=float)


def write_vector_csv(ids, tags, vectors: np.ndarray, path: str | Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "tag"] + [f"v{i}" for i in range(vectors.shape[1])])
    for ident, tag, row in zip(ids, tags, vectors):
        writer.writerow([ident, tag or ""] + [repr(float(v)) for v in row])
    atomic_write_text(path, buf.getvalue())


def _dataset_descriptors(cfg: RunConfig, restrict_ids=None):
    """The configured dataset, restricted to ``restrict_ids`` if given, and
    its descriptor matrices."""
    ds = _load_run_dataset(cfg)
    if restrict_ids is not None:
        ds = ds.subset(restrict_ids)
    return ds, compute_dataset_descriptors(ds.structures, _sfset_for(cfg, ds))


def cmd_embed(args) -> int:
    cfg = _apply_common_overrides(load_config(args.config), args)
    method = args.method or cfg.method
    tsne_cfg = _replace(cfg.tsne, seed=cfg.seed) if args.perplexity is None else _replace(
        cfg.tsne, seed=cfg.seed, perplexity=args.perplexity
    )
    out = cfg.out_dir
    source = args.source
    if args.input is not None and source is not None:
        raise ConfigError("give either --input or --source, not both")

    ids = tags = matrices = None
    if args.input is not None:
        in_path = Path(args.input)
        if not in_path.exists():
            raise ConfigError(f"embedding input not found: {in_path}")
        if fp_mod.sniff_fingerprint_file(in_path):
            fpset = fp_mod.read_fingerprints(in_path)
            ids = fpset.ids()
            tags = tuple(fp.tag for fp in fpset.fingerprints)
            bits = np.vstack([fp.bits() for fp in fpset.fingerprints])
            embedding = emb_mod.embed_vectors(ids, tags, bits, method=method,
                                              metric="hamming", cfg=tsne_cfg)
        else:
            ids, tags, vectors = _read_vector_csv(in_path)
            embedding = emb_mod.embed_vectors(ids, tags, vectors, method=method,
                                              metric="euclidean", cfg=tsne_cfg)
    elif source in ("baseline", "mean"):
        ds, matrices = _dataset_descriptors(cfg)
        vectors = (
            fp_mod.baseline_padded_descriptor(matrices)
            if source == "baseline"
            else fp_mod.mean_descriptor_vectors(matrices)
        )
        ids = ds.ids()
        tags = tuple(s.tag for s in ds)
        embedding = emb_mod.embed_vectors(ids, tags, vectors, method=method,
                                          metric="euclidean", cfg=tsne_cfg)
    else:
        raise ConfigError("embed needs --input <fingerprint-or-vector file> "
                          "or --source baseline|mean")

    write_embedding(embedding, out / "embedding.csv")
    n_out = 1
    if args.compare_baseline:
        if matrices is None:
            ds, matrices = _dataset_descriptors(cfg, restrict_ids=ids)
        order = {s: i for i, s in enumerate(ds.ids())}
        vectors = fp_mod.baseline_padded_descriptor(matrices)[[order[i] for i in ids]]
        baseline = emb_mod.embed_vectors(ids, tags, vectors, method=method,
                                         metric="euclidean", cfg=tsne_cfg)
        write_embedding(baseline, out / "embedding_baseline.csv")
        n_out = 2
    print(f"embedded {len(embedding.ids)} points ({method}), wrote {n_out} file(s)")
    return 0


def cmd_ood(args) -> int:
    cfg = _apply_common_overrides(load_config(args.config), args)
    if args.top_n < 0:
        raise ConfigError(f"--top-n must be >= 0, got {args.top_n}")
    training = fp_mod.read_fingerprints(args.training)
    predictions = fp_mod.read_fingerprints(args.predictions)
    if training.spec.checksum != predictions.spec.checksum:
        raise ConfigError(
            "training and prediction fingerprints use different histogram specs "
            f"({training.spec.checksum} vs {predictions.spec.checksum})"
        )
    if not training.fingerprints:
        raise ConfigError("training fingerprint file holds no records")
    scores = scr_mod.rank_ood(predictions.fingerprints, training.fingerprints)
    out = cfg.out_dir

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "min_hamming", "normalized"])
    for s in scores:
        writer.writerow([s.structure_id, s.min_hamming, repr(s.normalized)])
    atomic_write_text(out / "ood_scores.csv", buf.getvalue())

    top = scores[: args.top_n]
    atomic_write_text(
        out / f"ood_top{args.top_n}.txt", "".join(f"{s.structure_id}\n" for s in top)
    )
    print(f"scored {len(scores)} predictions; top score {scores[0].normalized:.6f}"
          if scores else "scored 0 predictions")
    return 0


def cmd_plot(args) -> int:
    embedding = read_embedding(args.embedding)
    highlight: tuple[str, ...] = ()
    if args.highlight is not None:
        highlight = tuple(
            line.strip() for line in Path(args.highlight).read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        )
    spec = PlotSpec(width=args.width, height=args.height, highlight=highlight)
    write_scatter_svg(embedding, spec, args.out)
    print(f"wrote {args.out} ({len(embedding.ids)} points, {len(highlight)} highlighted)")
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _replace(obj, **kw):
    return dataclasses.replace(obj, **kw)


def _apply_common_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "out", None) is not None:
        cfg = _replace(cfg, out_dir=Path(args.out))
    if getattr(args, "seed", None) is not None:
        cfg = _replace(cfg, seed=args.seed, tsne=_replace(cfg.tsne, seed=args.seed))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvlae",
        description="Histogram-occupancy difference-vector fingerprints for "
                    "atomic-structure datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")

    p = sub.add_parser("fingerprint", help="compute fingerprints for the configured datasets")
    common(p)
    p.add_argument("--bins", type=int, help="histogram bins per column (overrides config)")
    p.add_argument("--spec", help="reuse a serialized histogram spec (JSON) instead of "
                                  "determining bin edges from the data")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("screen", help="reduce redundancy or screen novelty")
    common(p)
    p.add_argument("--fingerprints", help="fingerprint file (dedup modes)")
    p.add_argument("--mode", choices=scr_mod.SCREENING_MODES,
                   help="screening mode (overrides config)")
    p.add_argument("--radius", type=int, help="Hamming radius (mode=hamming)")
    p.add_argument("--threshold", type=float, help="novelty distance threshold")
    p.add_argument("--aggregate", choices=scr_mod.NOVELTY_AGGREGATES, help="novelty aggregate")
    p.add_argument("--training-manifest", help="training dataset manifest (mode=novelty)")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("embed", help="2-D embedding of fingerprints or vectors")
    common(p)
    p.add_argument("--input", help="fingerprint file or vector CSV")
    p.add_argument("--source", choices=["baseline", "mean"],
                   help="compute vectors from the configured dataset instead of --input")
    p.add_argument("--method", choices=emb_mod.EMBEDDING_METHODS, help="overrides config")
    p.add_argument("--perplexity", type=float, help="t-SNE perplexity (overrides config)")
    p.add_argument("--compare-baseline", action="store_true",
                   help="also embed the zero-padded baseline vectors of the same structures")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("ood", help="rank prediction fingerprints by distance to a training store")
    common(p)
    p.add_argument("--training", required=True, help="training fingerprint file")
    p.add_argument("--predictions", required=True, help="prediction fingerprint file")
    p.add_argument("--top-n", type=int, default=20, help="highlight-list size (default 20)")
    p.set_defaults(func=cmd_ood)

    p = sub.add_parser("plot", help="render an embedding CSV as an SVG scatter plot")
    p.add_argument("--embedding", required=True, help="embedding CSV (id,tag,x,y)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--highlight", help="file of ids to draw as diamonds, one per line")
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=600)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on usage errors; those are user errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # noqa: BLE001 - boundary: anything else is a bug
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
