#!/usr/bin/env python3
"""Out-of-distribution demo: rank prediction structures against a training set.

The prediction set mimics simulation snapshots: small perturbations of
training frames (well covered, low scores) mixed with a few frames drawn
from a different distribution (the strays).  Both sets are fingerprinted
under a shared binning spec, predictions are ranked by minimum Hamming
distance to the training store, and a t-SNE map is rendered with the
top-ranked structures highlighted as diamonds.
"""

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from dvlae import (
    Structure,
    TsneConfig,
    batch_fingerprints,
    embed_vectors,
    make_dataset,
    rank_ood,
)
from dvlae.config import GridConfig, build_symmetry_functions
from dvlae.svgplot import PlotSpec, write_scatter_svg


def frame(rng, ident, tag, scale=1.0):
    n = int(rng.integers(3, 7))
    cell = np.diag(rng.uniform(2.8, 4.2, 3)) * scale
    frac = rng.uniform(0, 1, (n, 3))
    species = ("Fe", "H") + tuple(("Fe", "H")[i] for i in rng.integers(0, 2, n - 2))
    return Structure(cell=cell, species=species, positions=frac @ cell,
                     periodic=(True,) * 3, id=ident, tag=tag)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--training", type=int, default=60)
    ap.add_argument("--predictions", type=int, default=25)
    ap.add_argument("--outliers", type=int, default=5)
    ap.add_argument("--top-n", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    training = [frame(rng, f"train{i}", "train") for i in range(args.training)]
    predictions = []
    for i in range(args.predictions):
        src = training[int(rng.integers(0, args.training))]
        predictions.append(dataclasses.replace(
            src,
            positions=src.positions + rng.normal(0, 0.003, src.positions.shape),
            id=f"pred{i}", tag="prediction",
        ))
    predictions += [frame(rng, f"stray{i}", "prediction", scale=1.0)
                    for i in range(args.outliers)]

    sfset = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=5.0))
    ref = training[0]
    train_fps = batch_fingerprints(make_dataset(training), ref, sfset, k=50)
    pred_fps = batch_fingerprints(make_dataset(predictions), ref, sfset, k=50,
                                  spec=train_fps.spec)

    scores = rank_ood(pred_fps, train_fps)
    print(f"{'structure':12s} {'min_hamming':>11s} {'normalized':>10s}")
    for s in scores[: args.top_n]:
        print(f"{s.structure_id:12s} {s.min_hamming:11d} {s.normalized:10.4f}")
    top_ids = [s.structure_id for s in scores[: args.top_n]]

    rows = np.vstack([train_fps.fingerprints, pred_fps.fingerprints])
    # t-SNE needs perplexity < (n - 1) / 3; small runs get a smaller one.
    perplexity = min(15.0, 0.9 * (len(rows) - 1) / 3)
    emb = embed_vectors(train_fps.ids + pred_fps.ids, train_fps.tags + pred_fps.tags, rows,
                        metric="packed-hamming",
                        cfg=TsneConfig(perplexity=perplexity, iterations=800,
                                       learning_rate=50.0, seed=args.seed))
    out = args.outdir / "ood_map.svg"
    write_scatter_svg(emb, PlotSpec(highlight=tuple(top_ids)), out)
    print(f"wrote {out} with the top {args.top_n} structures highlighted")


if __name__ == "__main__":
    main()
