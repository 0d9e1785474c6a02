"""Command-line pipeline: fingerprint, screen, embed, ood, plot.

Exit codes: 0 success, 1 user/config error, 2 internal invariant violation,
130 interrupted (SIGINT).  Warnings print as one ``warning: `` line each.
Every command is deterministic given (config, inputs, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
import warnings
from pathlib import Path

from . import embedding as emb_mod
from . import fingerprint as fp_mod
from . import screening as scr_mod
from .config import RunConfig, build_symmetry_functions, load_config
from .descriptors import compute_dataset_descriptors
from .embedding import read_embedding, write_embedding
from .errors import ConfigError, UserInputError
from .ioutil import atomic_write_text, check_output_dir, read_id_list, read_input_text
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
        ds = ds.subset(read_id_list(cfg.keep_ids, "keep_ids file"))
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
    ref_ds = parse_extxyz(read_input_text(ref_path, "reference file"), source=str(ref_path))
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
    cfg = _load_config(args)
    ds = _load_run_dataset(cfg)
    ref = _resolve_reference(cfg, ds)
    sfset = _sfset_for(cfg, ds)
    spec = None
    if args.spec is not None:
        spec = fp_mod.spec_from_json(read_input_text(args.spec, "histogram spec"))
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
    cfg = _load_config(args)
    out = cfg.out_dir

    if cfg.screening_mode == "novelty":
        if cfg.training_manifest is None:
            raise ConfigError("novelty screening needs a training manifest "
                              "(config [screening] training_manifest or --training-manifest)")
        candidates = _load_run_dataset(cfg)
        training = load_dataset(read_manifest(cfg.training_manifest, "training manifest"))
        elements = cfg.elements if cfg.elements is not None else tuple(
            dict.fromkeys(candidates.elements + training.elements)
        )
        sfset = build_symmetry_functions(elements, cfg.grid)
        # One call, so one pool, over both sets; candidates first, as their
        # errors came first when each set was described on its own.
        vecs = fp_mod.mean_descriptor_vectors(
            compute_dataset_descriptors(candidates.structures + training.structures, sfset)
        )
        cand_vecs, train_vecs = vecs[: len(candidates)], vecs[len(candidates):]
        report = scr_mod.novelty_screen(
            candidates.ids(), cand_vecs, train_vecs, cfg.novelty, training.ids(),
        )
    else:
        if args.fingerprints is None:
            raise ConfigError("dedup screening needs --fingerprints")
        fpset = fp_mod.read_fingerprints(args.fingerprints)
        _validate_against_config(fpset, cfg)
        if cfg.screening_mode == "exact":
            report = scr_mod.dedup_exact(fpset)
        else:
            report = scr_mod.dedup_hamming(fpset, cfg.radius)

    scr_mod.write_report(report, out / "screening_report.json")
    scr_mod.write_kept_manifest(report, out / "kept_ids.txt")
    print(
        f"screened {report.input_count} -> kept {report.output_count} "
        f"(reduction {report.reduction_ratio:.4f})"
    )
    return 0


def _read_embedding_input(path: str | Path):
    """(ids, tags, vectors, metric) of an ``embed --input`` file, read once.
    A fingerprint file gives its packed rows, which t-SNE and PCA both take
    as they are; a vector CSV gives its rows."""
    text = read_input_text(path, "embedding input")
    if not fp_mod.is_fingerprint_text(text):
        return (*emb_mod.read_vectors(path, text, None), "euclidean")
    fpset = fp_mod.read_fingerprints(path, text)
    return fpset.ids, fpset.tags, fpset.fingerprints, "packed-hamming"


def _dataset_descriptors(cfg: RunConfig, restrict_ids=None):
    """The configured dataset, restricted to ``restrict_ids`` if given, and
    its descriptor matrices."""
    ds = _load_run_dataset(cfg)
    if restrict_ids is not None:
        ds = ds.subset(restrict_ids)
    return ds, compute_dataset_descriptors(ds.structures, _sfset_for(cfg, ds))


def cmd_embed(args) -> int:
    cfg = _load_config(args)
    method, tsne_cfg, out = cfg.method, cfg.tsne, cfg.out_dir
    source = args.source
    if args.input is not None and source is not None:
        raise ConfigError("give either --input or --source, not both")

    ids = tags = matrices = None
    if args.input is not None:
        ids, tags, vectors, metric = _read_embedding_input(args.input)
        embedding = emb_mod.embed_vectors(ids, tags, vectors, method=method,
                                          metric=metric, cfg=tsne_cfg)
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
    cfg = _load_config(args)
    if args.top_n < 0:
        raise ConfigError(f"--top-n must be >= 0, got {args.top_n}")
    training = fp_mod.read_fingerprints(args.training)
    predictions = fp_mod.read_fingerprints(args.predictions)
    scores = scr_mod.rank_ood(predictions, training)
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
    check_output_dir(Path(args.out).parent)
    embedding = read_embedding(args.embedding)
    highlight: tuple[str, ...] = ()
    if args.highlight is not None:
        highlight = tuple(read_id_list(args.highlight, "highlight file"))
    spec = PlotSpec(width=args.width, height=args.height, highlight=highlight)
    write_scatter_svg(embedding, spec, args.out)
    print(f"wrote {args.out} ({len(embedding.ids)} points, {len(highlight)} highlighted)")
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    """The --config file with every given "section.key" flag set into it,
    once its output directory is known to be creatable."""
    cfg = load_config(args.config, [(dest, value) for dest, value in vars(args).items()
                                    if "." in dest and value is not None])
    check_output_dir(cfg.out_dir)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvlae",
        description="Histogram-occupancy difference-vector fingerprints for "
                    "atomic-structure datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.description = "A flag that takes a SECTION.KEY value overrides that config key."
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", dest="run.output", type=os.path.abspath, help="output directory")
        p.add_argument("--seed", dest="run.seed", help="random seed")

    p = sub.add_parser("fingerprint", help="compute fingerprints for the configured datasets")
    common(p)
    p.add_argument("--bins", dest="fingerprint.bins", help="histogram bins per column")
    p.add_argument("--spec", help="reuse a serialized histogram spec (JSON) instead of "
                                  "determining bin edges from the data")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("screen", help="reduce redundancy or screen novelty")
    common(p)
    p.add_argument("--fingerprints", help="fingerprint file (dedup modes)")
    p.add_argument("--mode", dest="screening.mode", help="screening mode")
    p.add_argument("--radius", dest="screening.radius", help="Hamming radius (mode=hamming)")
    p.add_argument("--threshold", dest="screening.threshold", help="novelty distance threshold")
    p.add_argument("--aggregate", dest="screening.aggregate", help="novelty aggregate")
    p.add_argument("--training-manifest", dest="screening.training_manifest",
                   type=os.path.abspath, help="training dataset manifest (mode=novelty)")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("embed", help="2-D embedding of fingerprints or vectors")
    common(p)
    p.add_argument("--input", help="fingerprint file or vector CSV")
    p.add_argument("--source", choices=["baseline", "mean"],
                   help="compute vectors from the configured dataset instead of --input")
    p.add_argument("--method", dest="embedding.method", help="tsne or pca")
    p.add_argument("--perplexity", dest="embedding.perplexity", help="t-SNE perplexity")
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
        with warning_lines():
            return args.func(args)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:   # noqa: BLE001 - boundary: anything else is a bug
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


@contextlib.contextmanager
def warning_lines():
    """Inside the block, print each warning as one ``warning: <message>`` line
    on stderr, with no file, line number or source line."""
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        yield


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
