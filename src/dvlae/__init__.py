"""Structure fingerprints from histogram-occupancy difference vectors.

Pipeline: parse extended-XYZ datasets, evaluate Behler-Parrinello symmetry
functions per atom, histogram each descriptor column, XOR the occupancy
pattern against a reference structure into a bit-packed fingerprint, then
use those fingerprints to deduplicate datasets, score out-of-distribution
novelty, and draw 2-D t-SNE / PCA diagnostics.
"""

from .config import GridConfig, RunConfig, build_symmetry_functions, load_config
from .descriptors import (
    AngularParams,
    CutoffParams,
    DescriptorDef,
    DescriptorMatrix,
    RadialParams,
    SymmetryFunctionSet,
    angular_g4,
    angular_g5,
    compute_dataset_descriptors,
    compute_structure_descriptors,
    cutoff_value,
    radial_g2,
)
from .distance import euclidean_cdist, hamming_cdist
from .embedding import (
    Embedding,
    TsneConfig,
    embed_vectors,
    pairwise_distances,
    pca_project,
    perplexity_calibration,
    read_embedding,
    tsne_embed,
    write_embedding,
)
from .errors import ConfigError, DvlaeError, FormatError, ParseError, UserInputError
from .fingerprint import (
    DifferenceVector,
    FingerprintSet,
    HistogramSpec,
    StructureHistogram,
    baseline_padded_descriptor,
    batch_fingerprints,
    build_histograms,
    determine_bin_edges,
    difference_vector,
    hamming_distance,
    mean_descriptor_vectors,
    read_fingerprints,
    select_reference,
    write_fingerprints,
)
from .screening import (
    NoveltyConfig,
    NoveltyResult,
    OodScore,
    ScreeningReport,
    dedup_exact,
    dedup_hamming,
    novelty_screen,
    ood_score,
    rank_ood,
)
from .structures import (
    Dataset,
    NeighborList,
    Structure,
    build_supercell,
    load_dataset,
    make_dataset,
    neighbor_list,
    parse_extxyz,
    read_manifest,
    to_extxyz,
)

__version__ = "0.1.0"
