"""Dedup, novelty screening, and OOD scoring against naive oracles."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from dvlae import (
    HistogramSpec,
    NoveltyConfig,
    UserInputError,
    dedup_exact,
    dedup_hamming,
    novelty_screen,
    rank_ood,
)
import dvlae.distance as dist_mod
import dvlae.screening as scr_mod
from dvlae.screening import NOVELTY_AGGREGATES

from conftest import fingerprint_set, naive_hamming, varied_bit_rows


def random_bits(rng, count, n_bits=64, n_patterns=None):
    if n_patterns is None:
        return rng.integers(0, 2, (count, n_bits))
    patterns = rng.integers(0, 2, (n_patterns, n_bits))
    return patterns[rng.integers(0, n_patterns, count)]


def random_fps(rng, count, n_bits=64, n_patterns=None):
    return fingerprint_set(random_bits(rng, count, n_bits, n_patterns))


def rows_by_id(fps):
    return dict(zip(fps.ids, fps.fingerprints))


def greedy_leaders(fps, radius):
    """(kept, removed) of greedy leader clustering, by ``naive_hamming``."""
    kept, leaders, removed = [], [], {}
    for ident, row in zip(fps.ids, fps.fingerprints):
        rep = next((k for k, ld in zip(kept, leaders) if naive_hamming(row, ld) <= radius), None)
        if rep is None:
            kept.append(ident)
            leaders.append(row)
        else:
            removed[ident] = rep
    return tuple(kept), removed


class TestDedupExact:
    def test_all_distinct_keeps_everything(self, rng):
        fps = fingerprint_set(np.eye(8, dtype=np.uint8))
        report = dedup_exact(fps)
        assert report.kept == tuple(f"s{i}" for i in range(8))
        assert report.reduction_ratio == 0.0
        assert report.removed == {}

    def test_duplicates_map_to_first_occurrence(self):
        fps = fingerprint_set([[1, 0], [1, 0], [0, 1], [1, 0]], ids="abcd")
        report = dedup_exact(fps)
        assert report.kept == ("a", "c")
        assert report.removed == {"b": "a", "d": "a"}
        assert report.input_count == 4
        assert report.reduction_ratio == 0.5

    def test_reordering_changes_representatives_not_count(self, rng):
        bits = random_bits(rng, 60, n_patterns=15)
        base = dedup_exact(fingerprint_set(bits))
        order = rng.permutation(60)
        shuffled = dedup_exact(fingerprint_set(bits[order], ids=[f"s{i}" for i in order]))
        assert shuffled.output_count == base.output_count

    def test_idempotent_on_kept_set(self, rng):
        bits = random_bits(rng, 80, n_patterns=12)
        report = dedup_exact(fingerprint_set(bits))
        keep = [i for i in range(80) if f"s{i}" in set(report.kept)]
        again = dedup_exact(fingerprint_set(bits[keep], ids=[f"s{i}" for i in keep]))
        assert again.removed == {}
        assert again.kept == report.kept

    def test_partition_property(self, rng):
        fps = random_fps(rng, 50, n_patterns=9)
        report = dedup_exact(fps)
        assert set(report.kept) | set(report.removed) == set(fps.ids)
        assert not (set(report.kept) & set(report.removed))
        by_id = rows_by_id(fps)
        for removed, rep in report.removed.items():
            assert naive_hamming(by_id[removed], by_id[rep]) == 0


class TestDedupHamming:
    def test_radius_zero_matches_exact(self, rng):
        fps = random_fps(rng, 200, n_bits=32, n_patterns=40)
        exact = dedup_exact(fps)
        ham = dedup_hamming(fps, 0)
        assert ham.kept == exact.kept
        assert ham.removed == exact.removed

    def test_distance_one_merges_at_radius_one(self):
        fps = fingerprint_set([[1, 0, 0, 0], [1, 1, 0, 0]], ids="ab")
        report = dedup_hamming(fps, 1)
        assert report.kept == ("a",)
        assert report.removed == {"b": "a"}

    def test_huge_radius_keeps_one(self, rng):
        fps = random_fps(rng, 30, n_bits=16)
        report = dedup_hamming(fps, 16)
        assert report.output_count == 1
        assert report.kept == (fps.ids[0],)

    def test_removed_within_radius_of_representative(self, rng):
        fps = random_fps(rng, 60, n_bits=24, n_patterns=25)
        radius = 5
        report = dedup_hamming(fps, radius)
        by_id = rows_by_id(fps)
        for removed, rep in report.removed.items():
            assert naive_hamming(by_id[removed], by_id[rep]) <= radius

    @pytest.mark.parametrize("n_bits", [37, 64])   # 5 bytes, padded to a word; one whole word
    @pytest.mark.parametrize("radius", [3, 9, 14])
    def test_greedy_leader_oracle_across_blocks(self, rng, monkeypatch, radius, n_bits):
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 40)     # 5 leaders of one 8-byte word per block
        centers = rng.integers(0, 2, (30, n_bits))
        bits = centers[rng.integers(0, 30, 150)]
        for row in bits:
            row[rng.integers(0, n_bits, rng.integers(0, 6))] ^= 1
        fps = fingerprint_set(bits)
        kept, leaders, removed = [], [], {}
        for ident, row in zip(fps.ids, fps.fingerprints):
            near = [i for i, ld in enumerate(leaders) if naive_hamming(row, ld) <= radius]
            if near:
                removed[ident] = kept[near[0]]
            else:
                leaders.append(row)
                kept.append(ident)
        assert len(leaders) > 16
        report = dedup_hamming(fps, radius)
        assert report.kept == tuple(kept)
        assert report.removed == removed

    @pytest.mark.parametrize("n_bits", [4, 37, 64, 300, 1000, 5800])
    def test_greedy_leader_oracle_through_the_popcount_filter(self, rng, monkeypatch, n_bits):
        # Two candidate rows per chunk, so the exact comparison walks chunks.
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 2 * 8 * -(-n_bits // 64))
        compared = []

        def spy(words, row, candidates, radius):
            compared.append(len(candidates))
            return dist_mod.first_within(words, row, candidates, radius)

        monkeypatch.setattr(scr_mod, "first_within", spy)
        centers = varied_bit_rows(rng, 24, n_bits)
        bits = centers[rng.integers(0, 24, 80)]
        jitter = max(1, n_bits // 100)
        for row in bits:
            row[rng.integers(0, n_bits, rng.integers(0, jitter + 1))] ^= 1
        fps = fingerprint_set(bits)
        radii = {1, 2, jitter, 2 * jitter + 1, int(rng.integers(1, n_bits + 1)), n_bits, n_bits + 7}
        for radius in sorted(radii):
            kept, removed = greedy_leaders(fps, radius)
            report = dedup_hamming(fps, radius)
            assert (report.kept, report.removed) == (kept, removed)
            # The leaders lie more than the radius apart: on them alone every
            # record is kept, each compared with every leader its bounds allow.
            pos = [fps.ids.index(k) for k in kept]
            alone = fingerprint_set(bits[pos], ids=kept)
            assert dedup_hamming(alone, radius).kept == kept == greedy_leaders(alone, radius)[0]
        assert max(compared) > 2

    @pytest.mark.parametrize("radius", [40, 5760])
    def test_memory_does_not_grow_with_the_row_width(self, rng, monkeypatch, radius):
        # Every 64-bit word holds 4 set bits, so every leader has the
        # record's popcount on every run and passes both bounds; the rows
        # lie far more than 40 bits apart, so at radius 40 all 600 are kept
        # and each is compared with every leader.  Beyond a few copies of the
        # per-record arrays (the popcounts and the leader indices, 80 bytes a
        # record), nothing may grow with the 720-byte rows: the exact step
        # walks its candidates within _BLOCK_BYTES.
        budget = 8192
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", budget)
        n, n_bits = 600, 5760       # 90 whole words: no padded copy of the rows
        words = n * n_bits // 64
        bits = np.zeros((words, 64), dtype=np.uint8)
        bits[np.arange(words)[:, None], rng.random((words, 64)).argsort(axis=1)[:, :4]] = 1
        fps = fingerprint_set(bits.reshape(n, n_bits))
        tracemalloc.start()
        try:
            report = dedup_hamming(fps, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.output_count == (n if radius < n_bits else 1)
        per_record = 8 + 16 * 4 + 8
        assert peak <= budget + 4 * n * per_record < n * n_bits // 8

    def test_negative_radius_rejected(self, rng):
        with pytest.raises(UserInputError):
            dedup_hamming(random_fps(rng, 3), -1)


def novelty_oracle(cand, train, threshold, aggregate):
    accepted = []
    for i in range(len(cand)):
        dists = [float(np.linalg.norm(cand[i] - train[j])) for j in range(len(train))]
        value = min(dists) if aggregate == "min" else sum(dists) / len(dists)
        if value > threshold:
            accepted.append(f"c{i}")
    return accepted


def training_ids(train):
    return [f"t{j}" for j in range(len(train))]


class TestNoveltyScreen:
    def test_identical_candidate_rejected(self, rng):
        train = rng.normal(0, 1, (10, 4))
        cand = np.vstack([train[3], rng.normal(10, 1, 4)])
        report = novelty_screen(["dup", "far"], cand, train,
                                NoveltyConfig(threshold=0.5, aggregate="min"),
                                training_ids(train))
        assert report.kept == ("far",)
        assert report.removed == {"dup": "t3"}

    def test_threshold_zero_min_accepts_exactly_non_duplicates(self, rng):
        train = rng.normal(0, 1, (8, 3))
        cand = np.vstack([train[0], train[5], rng.normal(0, 1, 3)])
        report = novelty_screen(["a", "b", "c"], cand, train,
                                NoveltyConfig(threshold=0.0, aggregate="min"),
                                training_ids(train))
        assert report.kept == ("c",)
        assert report.removed == {"a": "t0", "b": "t5"}

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("aggregate", ["min", "mean"])
    def test_against_double_loop_oracle(self, rng, threshold, aggregate):
        cand = rng.normal(0, 1, (50, 6))
        train = rng.normal(0, 1, (50, 6))
        ids = [f"c{i}" for i in range(50)]
        report = novelty_screen(ids, cand, train,
                                NoveltyConfig(threshold=threshold, aggregate=aggregate),
                                training_ids(train))
        want = novelty_oracle(cand, train, threshold, aggregate)
        assert list(report.kept) == want
        nearest = [int(np.argmin([np.linalg.norm(c - t) for t in train])) for c in cand]
        assert report.removed == {i: f"t{j}" for i, j in zip(ids, nearest) if i not in want}
        assert report.input_count == 50 and report.mode == "novelty"

    def test_empty_training_accepts_all_with_warning(self, rng):
        cand = rng.normal(0, 1, (4, 3))
        with pytest.warns(UserWarning, match="empty training"):
            report = novelty_screen(list("abcd"), cand, np.zeros((0, 3)),
                                    NoveltyConfig(threshold=0.1), [])
        assert report.kept == ("a", "b", "c", "d")
        assert report.removed == {}

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(UserInputError, match="dimension"):
            novelty_screen(["a"], rng.normal(0, 1, (1, 3)), rng.normal(0, 1, (5, 4)),
                           NoveltyConfig(threshold=0.1), list("vwxyz"))

    def test_training_id_count_checked(self, rng):
        with pytest.raises(UserInputError, match="2 ids for 5 training vectors"):
            novelty_screen(["a"], rng.normal(0, 1, (1, 3)), rng.normal(0, 1, (5, 3)),
                           NoveltyConfig(threshold=0.1), ["t0", "t1"])

    def test_nearest_ids_reported(self, rng):
        train = np.array([[0.0, 0.0], [10.0, 0.0]])
        cand = np.array([[0.1, 0.0], [9.8, 0.0]])
        report = novelty_screen(["x", "y"], cand, train,
                                NoveltyConfig(threshold=100.0), ["t0", "t1"])
        assert report.kept == ()
        assert report.removed == {"x": "t0", "y": "t1"}
        assert report.mode == "novelty"

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(UserInputError, match="threshold must be finite and >= 0"):
            NoveltyConfig(threshold=threshold)


def peak_traced_bytes(call):
    """(call(), the largest number of bytes it held at once)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestQueryByTrainingMemory:
    """Novelty screening and OOD ranking reduce the query x training
    distances a slice of query rows at a time: with a 16 KB block budget,
    400 x 3000 distances (9.6 MB as one matrix) stay within a few hundred
    KB, the inputs, the results and a few blocks."""

    n_query, n_train = 400, 3000

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 16384)

    def test_novelty_screen(self, rng):
        train = rng.normal(0, 1, (self.n_train, 4))
        cand = np.vstack([train[:50], rng.normal(0, 1, (self.n_query - 50, 4))])
        ids, tids = [f"c{i}" for i in range(len(cand))], training_ids(train)
        for aggregate in NOVELTY_AGGREGATES:
            cfg = NoveltyConfig(threshold=0.05, aggregate=aggregate)
            report, peak = peak_traced_bytes(lambda: novelty_screen(ids, cand, train, cfg, tids))
            d = dist_mod.euclidean_cdist(cand, train)
            value = d.min(axis=1) if aggregate == "min" else d.mean(axis=1)
            assert report.kept == tuple(i for i, v in zip(ids, value) if v > 0.05)
            assert report.removed == {i: tids[j] for i, j, v in zip(ids, d.argmin(axis=1), value)
                                      if not v > 0.05}
            assert peak < 8 * self.n_query * self.n_train / 20

    def test_rank_ood(self, rng):
        store = fingerprint_set(random_bits(rng, self.n_train, n_bits=61))
        preds = fingerprint_set(random_bits(rng, self.n_query, n_bits=61))
        ranked, peak = peak_traced_bytes(lambda: rank_ood(preds, store))
        best = dist_mod.hamming_cdist(preds.fingerprints, store.fingerprints).min(axis=1)
        assert {s.structure_id: s.min_hamming for s in ranked} == dict(zip(preds.ids, best))
        assert peak < 8 * self.n_query * self.n_train / 20


def ood_one(probe_bits, store):
    """The OOD score of one probe, ranked as a one-row prediction set."""
    (score,) = rank_ood(fingerprint_set([probe_bits], ids=["p"]), store)
    return score


class TestOod:
    def test_in_store_scores_zero(self, rng):
        bits = random_bits(rng, 10, n_bits=40)
        score = ood_one(bits[3], fingerprint_set(bits))
        assert score.min_hamming == 0
        assert score.normalized == 0.0

    def test_extreme_case_normalizes_to_one(self):
        score = ood_one([1] * 160, fingerprint_set([[0] * 160]))
        assert score.min_hamming == 160
        assert score.normalized == 1.0

    def test_growing_store_never_increases_score(self, rng):
        probe = rng.integers(0, 2, 48)
        store = random_bits(rng, 1, n_bits=48)
        last = ood_one(probe, fingerprint_set(store)).min_hamming
        for i in range(100):
            store = np.vstack([store, rng.integers(0, 2, 48)])
            now = ood_one(probe, fingerprint_set(store)).min_hamming
            assert now <= last
            last = now

    def test_score_is_lower_bound(self, rng):
        store = random_fps(rng, 20, n_bits=32)
        probe = fingerprint_set([rng.integers(0, 2, 32)], ids=["p"])
        (score,) = rank_ood(probe, store)
        for t in store.fingerprints:
            assert score.normalized <= naive_hamming(probe.fingerprints[0], t) / 32

    def test_xor_modes_must_match(self, rng):
        bits = random_bits(rng, 4, n_bits=40)
        store = dataclasses.replace(fingerprint_set(bits), xor_mode="count-equality")
        with pytest.raises(UserInputError, match="different XOR modes "
                                                 r"\(count-equality vs occupancy\)"):
            rank_ood(fingerprint_set(bits), store)

    def test_different_references_warn_once(self, rng):
        bits = random_bits(rng, 4, n_bits=40)
        store = dataclasses.replace(fingerprint_set(bits), reference_id="other.xyz#0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scores = rank_ood(fingerprint_set(bits), store)
        assert [str(w.message) for w in caught] == [
            "training and prediction fingerprints name different references "
            "('other.xyz#0' vs 'ref')"]
        assert [s.min_hamming for s in scores] == [0] * 4

    @pytest.mark.parametrize("training, predictions", [("ref", "ref"), ("", "ref"), ("ref", "")])
    def test_equal_or_unnamed_references_do_not_warn(self, rng, training, predictions):
        bits = random_bits(rng, 4, n_bits=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank_ood(dataclasses.replace(fingerprint_set(bits), reference_id=predictions),
                     dataclasses.replace(fingerprint_set(bits), reference_id=training))

    def test_empty_store_rejected(self, rng):
        with pytest.raises(UserInputError, match="holds no records"):
            ood_one([1, 0], fingerprint_set(np.zeros((0, 2))))

    def test_row_min_oracle_across_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 64)
        store = random_bits(rng, 70, n_bits=37)
        pred_bits = np.vstack([random_bits(rng, 25, n_bits=37, n_patterns=6), store[5:9]])
        store, preds = fingerprint_set(store), fingerprint_set(pred_bits)
        want = [min(naive_hamming(p, t) for t in store.fingerprints)
                for p in preds.fingerprints]
        order = sorted(range(len(preds)), key=lambda i: (-want[i], i))
        ranked = rank_ood(preds, store)
        assert [s.structure_id for s in ranked] == [preds.ids[i] for i in order]
        assert [s.min_hamming for s in ranked] == [want[i] for i in order]
        assert [s.normalized for s in ranked] == [want[i] / 37 for i in order]
        assert all(type(s.min_hamming) is int for s in ranked)
        assert [ood_one(p, store).min_hamming for p in pred_bits] == want

    def test_prediction_spec_mismatch_rejected(self, rng):
        store = random_fps(rng, 4, n_bits=16)
        other = HistogramSpec(bins=16, columns=(("X", "c0"),), edges=[[0.0, 2.0]])
        with pytest.raises(UserInputError, match="different histogram specs"):
            rank_ood(fingerprint_set([[1] * 16], spec=other), store)
        with pytest.raises(UserInputError, match="different histogram specs"):
            ood_one([1] * 24, store)

    def test_ranking_descending_with_stable_ties(self, rng):
        preds = fingerprint_set([[1] * k + [0] * (16 - k) for k in (2, 5, 2, 9)],
                                ids=["p2a", "p5", "p2b", "p9"])
        ranked = rank_ood(preds, fingerprint_set([[0] * 16]))
        assert [s.structure_id for s in ranked] == ["p9", "p5", "p2a", "p2b"]
        assert [s.min_hamming for s in ranked] == [9, 5, 2, 2]


def test_report_json_roundtrip(rng):
    fps = random_fps(rng, 30, n_patterns=7)
    report = dedup_exact(fps)
    back = json.loads(report.to_json())
    assert back == {"mode": "exact", "input_count": report.input_count,
                    "output_count": report.output_count,
                    "reduction_ratio": report.reduction_ratio,
                    "kept": list(report.kept), "removed": report.removed}
