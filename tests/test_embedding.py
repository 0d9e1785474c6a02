"""Distance matrices, PCA, perplexity calibration, and exact t-SNE."""

import concurrent.futures
import multiprocessing
import os
import re
import signal
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from dvlae import (
    Embedding,
    FormatError,
    TsneConfig,
    UserInputError,
    embed_vectors,
    pairwise_distances,
    pca_project,
    perplexity_calibration,
    read_embedding,
    tsne_embed,
    write_embedding,
)
import dvlae.embedding as emb_mod
from dvlae import parallel
from dvlae.embedding import embedding_to_csv, joint_probabilities


def achieved_perplexities(p):
    out = []
    for row in p:
        nz = row[row > 0]
        out.append(float(np.exp(-(nz * np.log(nz)).sum())))
    return out


class TestPairwiseDistances:
    def test_identical_points_have_zero_distance(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        d = pairwise_distances(x)
        assert d[0, 1] == 0.0 and d[1, 0] == 0.0

    def test_pythagorean_triangle(self):
        x = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        d = pairwise_distances(x)
        assert sorted([d[0, 1], d[0, 2], d[1, 2]]) == [3.0, 4.0, 5.0]

    def test_against_double_loop_oracle(self, rng):
        x = rng.normal(0, 1, (100, 7))
        d = pairwise_distances(x)
        for _ in range(200):
            i, j = rng.integers(0, 100, 2)
            want = float(np.sqrt(((x[i] - x[j]) ** 2).sum()))
            assert abs(d[i, j] - want) <= 1e-12

    def test_symmetric_zero_diagonal(self, rng):
        x = rng.normal(0, 1, (30, 4))
        d = pairwise_distances(x)
        assert np.array_equal(d, d.T)
        assert not d.diagonal().any()

    def test_packed_hamming_counts_differing_bits(self, rng):
        bits = rng.integers(0, 2, (20, 33))
        d = pairwise_distances(np.packbits(bits.astype(bool), axis=1), metric="packed-hamming")
        i, j = 3, 11
        assert d[i, j] == np.count_nonzero(bits[i] != bits[j])

    def test_unpacked_hamming_metric_is_gone(self):
        # 0/1 rows are packed first; only packed-hamming counts bits
        with pytest.raises(UserInputError, match="unknown metric 'hamming'"):
            pairwise_distances(np.array([[0, 1], [1, 1]]), metric="hamming")

    def test_packed_hamming_equals_bit_counts(self, rng):
        bits = rng.integers(0, 2, (20, 37))     # 37 bits: three padding bits per row
        packed = np.packbits(bits.astype(bool), axis=1)
        naive = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
        assert np.array_equal(pairwise_distances(packed, metric="packed-hamming"), naive)

    def test_packed_hamming_rejects_unpacked_rows(self):
        with pytest.raises(UserInputError, match="uint8"):
            pairwise_distances(np.zeros((2, 8)), metric="packed-hamming")

    def test_unknown_metric_rejected(self):
        with pytest.raises(UserInputError):
            pairwise_distances(np.zeros((2, 2)), metric="cosine")


def reference_pca(x, dims=2):
    """PCA by a thin SVD of the centered float matrix, each axis's largest
    loading made positive: the oracle for ``pca_project``'s eigenproblems."""
    x = np.array(x, dtype=float)
    x -= x.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    axes = np.zeros((dims, x.shape[1]))
    axes[: len(vt)] = vt[:dims]
    for axis in axes:
        if axis[np.argmax(np.abs(axis))] < 0:
            axis *= -1.0
    return x @ axes.T


def pca_input(rng, kind, n, d, rank):
    """(rows for ``pca_project``, metric, the same rows as floats): ``n``
    random rows of ``d`` features, or rank-1 ones.  Rank-1 bits are two
    distinct rows, one a subset of the other, so every largest loading has
    one sign and the sign rule has one answer."""
    if kind == "float":
        if rank == 1:
            x = np.outer(rng.normal(0, 2, n), rng.normal(0, 1, d)) + rng.normal(0, 5, d)
        else:
            x = rng.normal(0, 1, (n, d)) * rng.uniform(0.1, 5.0, d) + rng.normal(0, 5, d)
        return x, "euclidean", x
    if rank == 1:
        a = rng.random(d) < 0.5
        b = a & (rng.random(d) < 0.5)
        bits = np.where((np.arange(n) % 3 == 0)[:, None], a, b)
    else:
        bits = rng.random((n, d)) < 0.3
    return np.packbits(bits, axis=1), "packed-hamming", bits.astype(float)


class TestPcaMatchesSvd:
    """The Gram (n <= d) and covariance (d < n) forms agree with the SVD."""

    @pytest.mark.parametrize("kind", ["float", "packed"])
    @pytest.mark.parametrize("d", [37, 64])         # padded and whole-word bit widths
    @pytest.mark.parametrize("n", [20, 100])        # n <= d, and d < n
    @pytest.mark.parametrize("rank", [1, None])
    def test_against_svd(self, rng, kind, n, d, rank):
        rows, metric, x = pca_input(rng, kind, n, d, rank)
        y = pca_project(rows, metric=metric)
        want = reference_pca(x)
        assert y.shape == (n, 2)
        assert np.abs(y - want).max() <= 1e-9 * np.abs(want).max()
        if rank == 1:
            assert np.abs(y[:, 0]).max() > 0 and not y[:, 1].any()
        if kind == "float":
            assert np.array_equal(pca_project(-x), -y)
        assert np.array_equal(pca_project(rows, metric=metric), y)

    def test_fewer_features_than_dims(self, rng):
        x = rng.normal(0, 1, (10, 1))
        y = pca_project(x)
        assert np.abs(y - reference_pca(x)).max() <= 1e-12 * np.abs(x).max()
        assert not y[:, 1].any()

    def test_packed_rows_must_be_uint8(self):
        with pytest.raises(UserInputError, match="uint8"):
            pca_project(np.zeros((3, 8)), metric="packed-hamming")

    def test_memory_guard_allocates_nothing(self):
        # a million points of a million features: a 10^6 x 10^6 eigenproblem
        with pytest.raises(UserInputError, match=r"needs about 44703\.5 GiB .* over the 4 GiB"):
            emb_mod.check_pca_memory(10**6, 10**6)
        emb_mod.check_pca_memory(1000, 5800)        # the map workload's size fits

    def test_guard_runs_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the PCA memory check")
        monkeypatch.setattr(emb_mod, "hamming_pdist", fail)
        monkeypatch.setattr(emb_mod, "_row_blocks", fail)
        monkeypatch.setattr(emb_mod, "_column_blocks", fail)
        monkeypatch.setattr(emb_mod, "_MEMORY_BUDGET", 1000)
        for rows, metric, features in ((np.zeros((40, 3)), "euclidean", 3),
                                       (np.zeros((40, 30), dtype=np.uint8), "packed-hamming", 240)):
            with pytest.raises(UserInputError, match=f"PCA of 40 points with {features} features"):
                pca_project(rows, metric=metric)


class TestPca:
    def test_line_in_10d_has_flat_second_component(self, rng):
        direction = rng.normal(0, 1, 10)
        x = np.outer(np.linspace(-3, 3, 25), direction)
        y = pca_project(x)
        assert np.abs(y[:, 1]).max() <= 1e-9

    def test_identical_points_project_to_origin(self):
        x = np.tile([1.0, 2.0, 3.0], (5, 1))
        y = pca_project(x)
        assert np.abs(y).max() == 0.0

    def test_component_variances_descend(self, rng):
        for _ in range(10):
            x = rng.normal(0, 1, (40, 6)) * rng.uniform(0.1, 5.0, 6)
            y = pca_project(x)
            assert y[:, 0].var() >= y[:, 1].var()

    def test_sign_convention_largest_loading_positive(self, rng):
        for _ in range(10):
            x = rng.normal(0, 1, (30, 5)) * rng.uniform(0.5, 3.0, 5)
            y = pca_project(x)
            # The projection is the centred input times the axes; recover them.
            axes, *_ = np.linalg.lstsq(x - x.mean(axis=0), y, rcond=None)
            for axis in axes.T:
                assert axis[np.argmax(np.abs(axis))] > 0
            # Negated data has the same axes, so its projection is negated.
            assert np.allclose(pca_project(-x), -y, rtol=0, atol=1e-10)
            # deterministic: repeated runs give identical output
            assert np.array_equal(y, pca_project(x))

    def test_distance_preservation_for_planar_data(self, rng):
        basis, _ = np.linalg.qr(rng.normal(0, 1, (8, 2)))
        coords = rng.normal(0, 2, (20, 2))
        x = coords @ basis.T
        y = pca_project(x)
        d_in = pairwise_distances(x)
        d_out = pairwise_distances(y)
        assert np.abs(d_in - d_out).max() <= 1e-9

    def test_too_few_points_rejected(self):
        with pytest.raises(UserInputError):
            pca_project(np.zeros((1, 3)))

    @pytest.mark.parametrize("dtype", [float, np.uint8])
    def test_input_not_modified(self, rng, dtype):
        # the projection centers its own float copy in place, never the caller's array
        x = rng.integers(0, 2, (30, 9)).astype(dtype)
        before = x.copy()
        y = pca_project(x)
        assert np.array_equal(x, before) and x.dtype == dtype
        assert np.array_equal(y, pca_project(before.astype(float)))
        emb = embed_vectors([str(i) for i in range(30)], [None] * 30, x, method="pca")
        assert np.array_equal(x, before)
        assert np.array_equal(emb.coords, y)


class TestPerplexityCalibration:
    def test_rows_sum_to_one(self, rng):
        d = pairwise_distances(rng.normal(0, 1, (25, 4)))
        p = perplexity_calibration(d, 7.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9
        assert not p.diagonal().any()

    def test_achieves_target_on_random_matrices(self):
        worst = 0.0
        for t in range(50):
            rng = np.random.default_rng(500 + t)
            n = int(rng.integers(10, 40))
            d = pairwise_distances(rng.normal(0, rng.uniform(0.5, 20), (n, 5)))
            target = float(rng.uniform(2.0, (n - 1) / 3))
            p = perplexity_calibration(d, target)
            worst = max(worst, max(abs(v - target) for v in achieved_perplexities(p)))
        assert worst <= 1e-3

    def test_three_equidistant_points(self):
        d = np.ones((3, 3)) - np.eye(3)
        p = perplexity_calibration(d, 2.0)
        off = p[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-12)

    def test_all_zero_row_becomes_uniform_with_warning(self):
        d = np.zeros((4, 4))
        with pytest.warns(UserWarning, match="uniform"):
            p = perplexity_calibration(d, 2.0)
        assert np.allclose(p[0], [0, 1 / 3, 1 / 3, 1 / 3])

    def test_joint_probabilities_symmetric_unit_mass(self, rng):
        d = pairwise_distances(rng.normal(0, 1, (20, 3)))
        p = joint_probabilities(d, 5.0)
        assert np.allclose(p, p.T)
        assert p.sum() == pytest.approx(1.0, abs=1e-6)
        assert (p >= 0).all()


@pytest.fixture
def every_kl(monkeypatch):
    """Have tsne_embed evaluate the KL divergence on every iteration."""
    monkeypatch.setattr(emb_mod, "_KL_EVERY", 1)


def three_clusters(rng, per_cluster=20, sep=30.0):
    centers = np.array([[0, 0, 0, 0, 0], [sep, 0, 0, 0, 0], [0, sep, 0, 0, 0]], float)
    points = np.vstack([c + rng.normal(0, 1.0, (per_cluster, 5)) for c in centers])
    labels = np.repeat(np.arange(3), per_cluster)
    return points, labels


class TestTsne:
    def test_kl_divergence_decreases(self, rng, every_kl):
        points, _ = three_clusters(rng)
        d = pairwise_distances(points)
        _, kl = tsne_embed(d, TsneConfig(perplexity=12, iterations=400, seed=1))
        assert np.isfinite(kl).all()
        assert kl[-1] < kl[0]

    def test_cluster_structure_preserved(self, rng):
        points, labels = three_clusters(rng)
        d = pairwise_distances(points)
        y, _ = tsne_embed(d, TsneConfig(perplexity=12, iterations=600, seed=2))
        e = pairwise_distances(y)
        np.fill_diagonal(e, np.inf)
        agreement = (labels[e.argmin(axis=1)] == labels).mean()
        assert agreement >= 0.95

    def test_duplicates_land_together(self, rng):
        # groups of exact copies at low perplexity collapse onto each other
        base = rng.normal(0, 30, (20, 6))
        points = np.vstack([np.tile(b, (5, 1)) for b in base])
        d = pairwise_distances(points)
        y, kl = tsne_embed(d, TsneConfig(perplexity=2, iterations=1000,
                                         learning_rate=20, seed=4))
        assert kl[-1] < kl[0]
        for g in range(20):
            block = y[g * 5 : (g + 1) * 5]
            assert pairwise_distances(block).max() <= 1e-3

    def test_fixed_seed_is_bit_identical(self, rng, every_kl):
        points, _ = three_clusters(rng, per_cluster=10)
        d = pairwise_distances(points)
        cfg = TsneConfig(perplexity=5, iterations=300, seed=9)
        y1, kl1 = tsne_embed(d, cfg)
        y2, kl2 = tsne_embed(d, cfg)
        assert np.array_equal(y1, y2)
        assert np.array_equal(kl1, kl2)

    def test_perplexity_constraint_enforced(self, rng):
        d = pairwise_distances(rng.normal(0, 1, (10, 3)))
        with pytest.raises(UserInputError, match="perplexity"):
            tsne_embed(d, TsneConfig(perplexity=3.0, iterations=10))

    @pytest.mark.parametrize("field", ["perplexity", "learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(UserInputError, match="finite"):
            TsneConfig(**{field: value})

    def test_negative_seed_rejected(self):
        # numpy's default_rng raises ValueError on it, which would exit 2
        with pytest.raises(UserInputError, match="seed must be >= 0, got -1"):
            TsneConfig(seed=-1)

    def test_coordinates_finite(self, rng, every_kl):
        points, _ = three_clusters(rng, per_cluster=8)
        d = pairwise_distances(points)
        y, kl = tsne_embed(d, TsneConfig(perplexity=4, iterations=500, seed=0))
        assert np.isfinite(y).all()
        assert np.isfinite(kl).all()

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="CPython 3.10 holds a call's arguments until it returns")
    def test_embed_vectors_frees_the_distance_matrix_before_the_loop(self, rng, monkeypatch):
        # Only P is read in the loop: the n x n distances are dead by then.
        made, live_at_loop = [], []
        distances, inverse_rows = emb_mod.pairwise_distances, emb_mod._inverse_rows

        def made_distances(vectors, metric="euclidean"):
            out = distances(vectors, metric)
            made.append(weakref.ref(out))
            return out

        def first_inverse_rows(*args):
            if not live_at_loop:
                live_at_loop.append(made[0]() is not None)
            inverse_rows(*args)

        monkeypatch.setattr(emb_mod, "pairwise_distances", made_distances)
        monkeypatch.setattr(emb_mod, "_inverse_rows", first_inverse_rows)
        points, _ = three_clusters(rng, per_cluster=8)
        embed_vectors([str(i) for i in range(24)], [None] * 24, points,
                      cfg=TsneConfig(perplexity=4, iterations=5))
        assert live_at_loop == [False]


def reference_tsne(distances, cfg, switch=250, reached=None):
    """The exact t-SNE loop as first written, one fresh array per term, with
    the standard schedule (exaggeration 12 and momentum 0.5 until iteration
    ``switch``, then 0.8); the buffer-reusing ``tsne_embed`` must reproduce
    it bit for bit.  Each iteration begun is appended to ``reached``."""
    d = np.asarray(distances, dtype=float)
    n = len(d)
    cfg.validate_for(n)
    p = joint_probabilities(d, cfg.perplexity)

    rng = np.random.default_rng(cfg.seed)
    y = rng.normal(0.0, 1e-2, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_trace = np.empty(cfg.iterations)

    for it in range(cfg.iterations):
        if reached is not None:
            reached.append(it)
        diff = y[:, None, :] - y[None, :, :]
        inv_dist = 1.0 / (1.0 + np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(inv_dist, 0.0)
        q = np.maximum(inv_dist / inv_dist.sum(), emb_mod._PROB_FLOOR)

        kl = float((p * np.log(p / q)).sum())
        kl_trace[it] = kl
        if not np.isfinite(kl):
            raise UserInputError("KL divergence became non-finite during optimization")

        p_eff = p * 12.0 if it < switch else p
        weight = (p_eff - q) * inv_dist
        grad = 4.0 * (np.diag(weight.sum(axis=1)) - weight) @ y

        same_sign = (grad > 0) == (velocity > 0)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        momentum = 0.5 if it < switch else 0.8
        velocity = momentum * velocity - cfg.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

    return y, kl_trace


@pytest.mark.usefixtures("every_kl")
class TestTsneMatchesReference:
    """``tsne_embed`` is bit-identical to ``reference_tsne``: coordinates and
    the whole KL trace, on either metric, before and after the switch."""

    @staticmethod
    def _distances(rng, n, metric):
        if metric == "euclidean":
            return pairwise_distances(rng.normal(0, rng.uniform(0.5, 20), (n, 5)))
        centres = rng.integers(0, 2, (4, 120))
        bits = centres[rng.integers(0, 4, n)]
        bits[rng.random(bits.shape) < 0.05] ^= 1
        return pairwise_distances(np.packbits(bits.astype(bool), axis=1), metric="packed-hamming")

    @staticmethod
    def _assert_same(d, cfg, monkeypatch=None, switch=250):
        if monkeypatch is not None:
            monkeypatch.setattr(emb_mod, "_SWITCH_ITERATION", switch)
        y, kl = tsne_embed(d, cfg)
        y_ref, kl_ref = reference_tsne(d, cfg, switch)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(kl, kl_ref)

    @pytest.mark.parametrize("metric", ["euclidean", "packed-hamming"])
    @pytest.mark.parametrize("n, perplexity", [(12, 3.0), (37, 10.0), (257, 30.0)])
    @pytest.mark.parametrize("iterations, switch", [(40, 250), (90, 30)])
    def test_bit_identical(self, rng, monkeypatch, metric, n, perplexity, iterations, switch):
        cfg = TsneConfig(perplexity=perplexity, iterations=iterations, seed=n)
        self._assert_same(self._distances(rng, n, metric), cfg, monkeypatch, switch)

    def test_standard_schedule_unpatched(self, rng):
        # the module's own switch iteration, crossed
        self._assert_same(self._distances(rng, 20, "euclidean"),
                          TsneConfig(perplexity=5.0, iterations=260, seed=3))

    def test_duplicate_rows(self, rng, monkeypatch):
        # exact copies: zero off-diagonal distances and coinciding points
        points = np.repeat(rng.normal(0, 3, (8, 4)), 5, axis=0)
        self._assert_same(pairwise_distances(points),
                          TsneConfig(perplexity=4, iterations=60), monkeypatch, 20)

    @pytest.mark.parametrize("metric", ["euclidean", "packed-hamming"])
    def test_all_rows_identical(self, monkeypatch, metric):
        # every distance zero: each row takes the uniform calibration branch
        rows = np.ones((12, 9), dtype=np.uint8)
        d = pairwise_distances(rows if metric == "euclidean" else np.packbits(rows, axis=1),
                               metric=metric)
        with pytest.warns(UserWarning, match="uniform row"):
            self._assert_same(d, TsneConfig(perplexity=3, iterations=40), monkeypatch, 15)

    @staticmethod
    def _pool_sizes(monkeypatch, cpus, block):
        """Pretend the process may run on ``cpus`` CPUs, use ``block``-row
        blocks, and record the size of every thread pool tsne_embed opens."""
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        monkeypatch.setattr(emb_mod, "_TSNE_BLOCK_ROWS", block)
        sizes = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        return sizes

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("metric", ["euclidean", "packed-hamming"])
    @pytest.mark.parametrize("n, block", [
        (12, 1),        # one row per block
        (35, 7),        # 5 blocks of 7 rows
        (37, 7),        # n not divisible by the block height: 5 blocks of 7, one of 2
        (37, 37),       # one block of n rows: a single worker
        (37, 64),       # block taller than n
    ])
    def test_any_block_height_and_worker_count(self, rng, monkeypatch, cpus, metric, n, block):
        sizes = self._pool_sizes(monkeypatch, cpus, block)
        cfg = TsneConfig(perplexity=3.0, iterations=50, seed=n + cpus)
        self._assert_same(self._distances(rng, n, metric), cfg, monkeypatch, 20)
        assert sizes == [min(cpus, -(-n // block))]

    @pytest.mark.parametrize("block, workers", [(1, 6), (4, 2)])
    def test_fewer_blocks_than_cpus(self, rng, monkeypatch, block, workers):
        # 6 rows on 64 CPUs: one worker per block, no idle threads
        sizes = self._pool_sizes(monkeypatch, 64, block)
        self._assert_same(self._distances(rng, 6, "euclidean"),
                          TsneConfig(perplexity=1.5, iterations=40), monkeypatch, 15)
        assert sizes == [workers]

    def test_more_workers_than_cores_with_fast_thread_switching(self, rng, monkeypatch):
        # 64 CPUs capped at 8 threads, one row per block, the interpreter
        # switching threads every microsecond: a block skipped or written
        # twice would change bits
        sizes = self._pool_sizes(monkeypatch, 64, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._assert_same(self._distances(rng, 45, "packed-hamming"),
                              TsneConfig(perplexity=5, iterations=60), monkeypatch, 25)
        finally:
            sys.setswitchinterval(interval)
        assert sizes == [parallel._MAX_WORKERS]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_worker_thread_outlives_the_call(self, rng, monkeypatch):
        self._pool_sizes(monkeypatch, 3, 4)
        live = []
        kl_rows = emb_mod._kl_rows

        def counting_kl_rows(*args):
            live.append(threading.active_count())
            kl_rows(*args)

        monkeypatch.setattr(emb_mod, "_kl_rows", counting_kl_rows)
        d = self._distances(rng, 30, "euclidean")
        before = threading.active_count()
        tsne_embed(d, TsneConfig(perplexity=3, iterations=20))
        assert max(live) > before                   # worker threads ran ...
        assert threading.active_count() == before   # ... and are gone on return
        live.clear()
        with pytest.raises(UserInputError, match="non-finite"):
            tsne_embed(d, TsneConfig(perplexity=3, iterations=20, learning_rate=1e308))
        assert max(live) > before
        assert threading.active_count() == before


class TestKlEvery:
    """``_KL_EVERY`` thins the KL trace: coordinates and the evaluated entries
    are those of the full trace, and a non-finite state is an error at the
    same iteration."""

    @pytest.mark.parametrize("metric", ["euclidean", "packed-hamming"])
    @pytest.mark.parametrize("iterations", [1, 50, 51, 149, 260])
    def test_coordinates_and_evaluated_entries_equal_the_full_run(
            self, rng, monkeypatch, metric, iterations):
        d = TestTsneMatchesReference._distances(rng, 30, metric)
        cfg = TsneConfig(perplexity=5.0, iterations=iterations, seed=iterations)
        assert emb_mod._KL_EVERY == 50
        y, kl = tsne_embed(d, cfg)
        monkeypatch.setattr(emb_mod, "_KL_EVERY", 1)
        y_full, kl_full = tsne_embed(d, cfg)
        assert np.array_equal(y, y_full)
        it = np.arange(iterations)
        evaluated = (it % 50 == 0) | (it == iterations - 1)
        assert np.array_equal(kl[evaluated], kl_full[evaluated])
        assert np.isnan(kl[~evaluated]).all()
        assert np.isfinite(kl_full).all()

    def test_embed_vectors_evaluates_every_fiftieth(self, rng, monkeypatch):
        traces = []
        tsne = emb_mod.tsne_embed

        def spy(d, cfg):
            y, kl = tsne(d, cfg)
            traces.append(kl)
            return y, kl

        monkeypatch.setattr(emb_mod, "tsne_embed", spy)
        points = rng.normal(0, 1, (20, 3))
        cfg = TsneConfig(perplexity=4, iterations=60, seed=5)
        emb = embed_vectors([str(i) for i in range(20)], [None] * 20, points, cfg=cfg)
        assert [np.flatnonzero(~np.isnan(kl)).tolist() for kl in traces] == [[0, 50, 59]]
        assert np.array_equal(emb.coords, tsne(pairwise_distances(points), cfg)[0])

    @staticmethod
    def _iterations_begun(monkeypatch):
        """Record, per iteration tsne_embed begins, the ``inv`` buffer."""
        begun = []
        inverse_rows = emb_mod._inverse_rows

        def spy(rows, cols, inv, scratch):
            if rows.start == 0:
                begun.append(inv)
            inverse_rows(rows, cols, inv, scratch)

        monkeypatch.setattr(emb_mod, "_inverse_rows", spy)
        return begun

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [12, 30])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_finite_at_the_reference_iteration(self, monkeypatch, n, seed):
        begun = self._iterations_begun(monkeypatch)
        d = pairwise_distances(np.random.default_rng(seed).normal(0, 5, (n, 4)))
        outcomes = []
        for lr in np.logspace(100, 308, 10):
            cfg = TsneConfig(perplexity=3.0, iterations=60, learning_rate=lr, seed=seed)
            reached = []
            try:
                y_ref, _ = reference_tsne(d, cfg, reached=reached)
            except UserInputError:
                y_ref = None
            for kl_every in (1, 50):
                monkeypatch.setattr(emb_mod, "_KL_EVERY", kl_every)
                begun.clear()
                if y_ref is None:
                    with pytest.raises(UserInputError, match="non-finite"):
                        tsne_embed(d, cfg)
                    assert len(begun) == len(reached), (lr, kl_every)
                    # every pair overflowed: 1 / (1 + inf) is 0 throughout
                    assert begun[-1].sum() == 0.0
                else:
                    assert np.array_equal(tsne_embed(d, cfg)[0], y_ref)
            outcomes.append(y_ref is None)
        assert any(outcomes) and not all(outcomes)

    def test_non_finite_affinities_fail_at_the_first_iteration(self, rng, monkeypatch):
        # A NaN distance makes its row of P NaN: the KL divergence is NaN at
        # iteration 0, which every _KL_EVERY evaluates.
        begun = self._iterations_begun(monkeypatch)
        d = pairwise_distances(rng.normal(0, 1, (12, 3)))
        d[3, 5] = np.nan
        cfg = TsneConfig(perplexity=3.0, iterations=60)
        reached = []
        with pytest.raises(UserInputError, match="non-finite"):
            reference_tsne(d, cfg, reached=reached)
        assert reached == [0]
        for kl_every in (1, 50):
            monkeypatch.setattr(emb_mod, "_KL_EVERY", kl_every)
            begun.clear()
            with pytest.raises(UserInputError, match="non-finite"):
                tsne_embed(d, cfg)
            assert len(begun) == 1


def serial_calibration(distances, perplexity):
    """Perplexity calibration as one loop over the rows, in row order."""
    d2 = np.asarray(distances, dtype=float) ** 2
    n = len(d2)
    p = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        if row.max() <= 0.0:
            p[i] = 1.0 / (n - 1)
            p[i, i] = 0.0
            continue
        p_row = emb_mod._calibrate_row(row, perplexity)
        p[i, :i] = p_row[:i]
        p[i, i + 1 :] = p_row[i:]
    return p


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool needs the fork start method")
class TestCalibrationPool:
    """Calibration rows spread over forked workers give the serial result."""

    @staticmethod
    def _pool_runs(monkeypatch, cpus, min_points=0):
        """Pretend the process may run on ``cpus`` CPUs, pool from
        ``min_points`` points on, and record the worker count of every
        forked pool."""
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        monkeypatch.setattr(emb_mod, "_CALIBRATION_POOL_MIN_POINTS", min_points)
        runs = []
        forked_workers = parallel._forked_workers

        def spy(n):
            runs.append(n)
            return forked_workers(n)

        monkeypatch.setattr(parallel, "_forked_workers", spy)
        return runs

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("metric", ["euclidean", "packed-hamming"])
    def test_equals_the_serial_loop(self, rng, monkeypatch, cpus, metric):
        d = TestTsneMatchesReference._distances(rng, 61, metric)
        runs = self._pool_runs(monkeypatch, cpus)
        got = perplexity_calibration(d, 7.0)
        assert runs == ([] if cpus == 1 else [cpus])
        assert np.array_equal(got, serial_calibration(d, 7.0))
        assert parallel._job is None        # d^2 is not kept alive by the pool
        assert multiprocessing.active_children() == []

    def test_serial_below_the_point_threshold(self, rng, monkeypatch):
        d = pairwise_distances(rng.normal(0, 1, (30, 3)))
        runs = self._pool_runs(monkeypatch, 2, min_points=31)
        assert np.array_equal(perplexity_calibration(d, 5.0), serial_calibration(d, 5.0))
        assert runs == []
        self._pool_runs(monkeypatch, 2, min_points=30)
        perplexity_calibration(d, 5.0)
        assert runs == [2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_zero_rows_warn_in_row_order(self, rng, monkeypatch, cpus):
        d = pairwise_distances(rng.normal(0, 3, (30, 4)))
        zero = [0, 7, 8, 19, 29]
        d[zero] = 0.0
        runs = self._pool_runs(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = perplexity_calibration(d, 5.0)
        assert [str(w.message) for w in caught] == [
            f"row {i}: all distances zero; using a uniform row" for i in zero]
        assert runs == ([] if cpus == 1 else [cpus])
        assert np.array_equal(got, serial_calibration(d, 5.0))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("metric", ["euclidean", "packed-hamming"])
    def test_joint_probabilities_equal_the_unfused_formula(self, rng, monkeypatch, cpus, metric):
        d = TestTsneMatchesReference._distances(rng, 61, metric)
        d[[0, 17, 60]] = 0.0        # all-zero rows
        runs = self._pool_runs(monkeypatch, cpus)
        with pytest.warns(UserWarning, match="uniform"):
            got = joint_probabilities(d, 7.0)
        cond = serial_calibration(d, 7.0)
        want = np.maximum((cond + cond.T) / (2.0 * len(cond)), emb_mod._PROB_FLOOR)
        assert runs == ([] if cpus == 1 else [cpus])
        assert got.tobytes() == want.tobytes()

    def test_a_killed_worker_is_an_error_not_a_hang(self, rng, monkeypatch):
        parent = os.getpid()
        calibrate = emb_mod._calibrate_row

        def killed(sq, target):
            if os.getpid() != parent:   # as the kernel's out-of-memory killer would
                os.kill(os.getpid(), signal.SIGKILL)
            return calibrate(sq, target)

        monkeypatch.setattr(emb_mod, "_calibrate_row", killed)
        self._pool_runs(monkeypatch, 2)
        d = pairwise_distances(rng.normal(0, 1, (40, 3)))
        with pytest.raises(RuntimeError, match=f"exited with code {-signal.SIGKILL}"):
            perplexity_calibration(d, 5.0)
        assert parallel._job is None
        assert multiprocessing.active_children() == []


class TestTsneGuard:
    """``embed_vectors`` checks a t-SNE run before any n x n array exists."""

    @pytest.fixture(autouse=True)
    def no_distances(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("pairwise_distances called before the t-SNE checks")
        monkeypatch.setattr(emb_mod, "pairwise_distances", fail)

    @pytest.mark.parametrize("n, cfg", [
        (20_000, TsneConfig()),                             # ~18 GiB of n x n arrays counted
        (50, TsneConfig(perplexity=5, iterations=10**12)),  # 8 TB of KL trace
    ])
    def test_over_memory_budget_rejected(self, n, cfg):
        vectors = np.zeros((n, 2))
        with pytest.raises(UserInputError, match="--method pca"):
            embed_vectors([str(i) for i in range(n)], [None] * n, vectors, cfg=cfg)

    def test_perplexity_checked_first(self, rng):
        with pytest.raises(UserInputError, match="perplexity"):
            embed_vectors(list("abcdefghij"), [None] * 10, rng.normal(0, 1, (10, 3)),
                          cfg=TsneConfig(perplexity=3.0, iterations=10))

    def test_map_size_within_budget(self):
        TsneConfig().validate_for(1000)
        TsneConfig(iterations=300).validate_for(1000)

    def test_budget_boundary(self):
        # 6 * 8 * n^2 bytes plus 8 per iteration against 4 GiB
        TsneConfig().validate_for(9459)
        with pytest.raises(UserInputError, match="--method pca"):
            TsneConfig().validate_for(9460)

    def test_pca_needs_no_distances(self, rng):
        emb = embed_vectors(list("abcd"), [None] * 4, rng.normal(0, 1, (4, 3)), method="pca")
        assert emb.coords.shape == (4, 2)


class TestEmbeddingCsv:
    def _embedding(self, rng, n=12):
        ids = tuple(f"s{i}" for i in range(n))
        tags = tuple(["solid", "gas", None][i % 3] for i in range(n))
        return Embedding(ids=ids, tags=tags, coords=rng.normal(0, 3, (n, 2)))

    def test_roundtrip_exact(self, rng, tmp_path):
        emb = self._embedding(rng)
        path = tmp_path / "emb.csv"
        write_embedding(emb, path)
        back = read_embedding(path)
        assert back.ids == emb.ids
        assert back.tags == emb.tags
        assert np.array_equal(back.coords, emb.coords)

    def test_rewrite_byte_identical(self, rng, tmp_path):
        emb = self._embedding(rng)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_embedding(emb, a)
        write_embedding(read_embedding(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_present(self, rng):
        text = embedding_to_csv(self._embedding(rng))
        assert text.splitlines()[0] == "id,tag,x,y"

    def test_header_only_reads_as_no_points_of_width_two(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,tag,x,y\n")
        assert read_embedding(path).coords.shape == (0, 2)

    @pytest.mark.parametrize("text, message", [
        ("", "expected header id,tag,x,y"),
        ("id,tag,x\na,,1\n", "expected header id,tag,x,y"),
        ("id,tag,x,z\na,,1,2\n", "expected header id,tag,x,y"),
        ("id,tag,x,y\na,,1\n", "line 2: expected 4 fields"),
        ("id,tag,x,y\na,,1,2\nb,,one,2\n", "line 3: unparsable vector entry"),
        ("id,tag,x,y\na,,1,nan\n", "line 2: non-finite vector entry"),
    ])
    def test_malformed_files_exit_one(self, tmp_path, capsys, text, message):
        from dvlae.cli import main

        path = tmp_path / "emb.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            read_embedding(path)
        assert main(["plot", "--embedding", str(path), "--out", str(tmp_path / "p.svg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and err.endswith(f"{message}\n")

    @pytest.mark.parametrize("text, message", [
        ("id,tag\na,\n", "expected header id,tag,v0,..."),
        ("id,name,v0\na,,1\n", "expected header id,tag,v0,..."),
        ("id,tag,v0,v1,v2\na,,1,2\n", "line 2: expected 5 fields"),
        ("id,tag,v0\na,,x\n", "line 2: unparsable vector entry"),
    ])
    def test_malformed_vector_files(self, tmp_path, text, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            emb_mod.read_vectors(tmp_path / "v.csv", text, None)

    def test_vectors_of_any_width(self):
        ids, tags, vectors = emb_mod.read_vectors("v.csv", "id,tag,a,b,c\np,t,1,2,3\nq,,4,5,6\n", None)
        assert (ids, tags) == (["p", "q"], ["t", None])
        assert vectors.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert emb_mod.read_vectors("v.csv", "id,tag,v0,v1,v2\n", None)[2].shape == (0, 3)

    def test_embed_vectors_pca_and_tsne(self, rng):
        points, labels = three_clusters(rng, per_cluster=6)
        ids = [f"p{i}" for i in range(len(points))]
        tags = [str(l) for l in labels]
        emb = embed_vectors(ids, tags, points, method="pca")
        assert emb.coords.shape == (18, 2)
        emb2 = embed_vectors(ids, tags, points, method="tsne",
                             cfg=TsneConfig(perplexity=4, iterations=200, seed=0))
        assert emb2.coords.shape == (18, 2)
