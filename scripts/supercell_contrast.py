#!/usr/bin/env python3
"""Supercell contrast experiment: fingerprints vs zero-padded global descriptors.

Builds a primitive cell plus supercell replicas, embeds both representations
with PCA and t-SNE, and writes four scatter SVGs.  The padded representation
scatters the physically identical structures; the occupancy-difference
fingerprints map them onto a single point.
"""

import argparse
from pathlib import Path

import numpy as np

from dvlae import (
    Structure,
    TsneConfig,
    baseline_padded_descriptor,
    batch_fingerprints,
    build_supercell,
    compute_dataset_descriptors,
    embed_vectors,
    hamming_cdist,
    make_dataset,
)
from dvlae.cli import warning_lines
from dvlae.config import GridConfig, build_symmetry_functions
from dvlae.svgplot import PlotSpec, write_scatter_svg

REPS = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1),
        (2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 1), (3, 2, 1)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--bins", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    prim = Structure(
        cell=np.array([[3.0, 0.0, 0.0], [1.5, 3.0, 0.0], [0.5, 0.25, 3.0]]),
        species=("Fe", "H"),
        positions=[[0.0, 0.0, 0.0], [0.75, 0.5, 1.25]],
        periodic=(True,) * 3,
        id="primitive",
        tag="primitive",
    )
    family = [prim] + [
        Structure(
            cell=s.cell, species=s.species, positions=s.positions,
            periodic=s.periodic, id=f"super-{i}", tag="supercell",
        )
        for i, s in enumerate(build_supercell(prim, reps) for reps in REPS[1:])
    ]
    ds = make_dataset(family)
    sfset = build_symmetry_functions(("Fe", "H"), GridConfig(cutoff=6.0))

    fpset = batch_fingerprints(ds, prim, sfset, k=args.bins)
    print("pairwise Hamming distances to the primitive fingerprint:")
    for ident, d in zip(fpset.ids, hamming_cdist(fpset.fingerprints[:1], fpset.fingerprints)[0]):
        print(f"  {ident:12s} {d}")

    matrices = compute_dataset_descriptors(ds.structures, sfset)
    padded = baseline_padded_descriptor(matrices)
    print("padded-baseline Euclidean distances to the primitive:")
    for s, vec in zip(ds, padded):
        print(f"  {s.id:12s} {np.linalg.norm(padded[0] - vec):.3f}")

    ids, tags = ds.ids(), tuple(s.tag for s in ds)
    cfg = TsneConfig(perplexity=2.5, iterations=600, learning_rate=20.0, seed=args.seed)
    for name, vectors, metric in (
        ("fingerprint", fpset.fingerprints, "packed-hamming"),
        ("baseline", padded, "euclidean"),
    ):
        for method in ("pca", "tsne"):
            emb = embed_vectors(ids, tags, vectors, method=method, metric=metric, cfg=cfg)
            write_scatter_svg(emb, PlotSpec(), args.outdir / f"{method}_{name}.svg")
    print(f"wrote pca_*.svg and tsne_*.svg under {args.outdir}")


if __name__ == "__main__":
    with warning_lines():
        main()
