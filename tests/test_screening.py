"""Dedup, novelty screening, and OOD scoring against naive oracles."""

import numpy as np
import pytest

from dvlae import (
    NoveltyConfig,
    ScreeningReport,
    UserInputError,
    dedup_exact,
    dedup_hamming,
    novelty_screen,
    ood_score,
    rank_ood,
)
import dvlae.distance as dist_mod
from dvlae import hamming_distance
from dvlae.fingerprint import pack_bits
from dvlae.screening import novelty_report


def fp_of(bits, ident, checksum="spec"):
    return pack_bits(np.asarray(bits, dtype=np.uint8), ident, None, "ref", checksum)


def random_fps(rng, count, n_bits=64, n_patterns=None):
    if n_patterns is None:
        return [fp_of(rng.integers(0, 2, n_bits), f"s{i}") for i in range(count)]
    patterns = rng.integers(0, 2, (n_patterns, n_bits))
    picks = rng.integers(0, n_patterns, count)
    return [fp_of(patterns[p], f"s{i}") for i, p in enumerate(picks)]


class TestDedupExact:
    def test_all_distinct_keeps_everything(self, rng):
        fps = [fp_of(np.eye(8, dtype=np.uint8)[i], f"s{i}") for i in range(8)]
        report = dedup_exact(fps)
        assert report.kept == tuple(f"s{i}" for i in range(8))
        assert report.reduction_ratio == 0.0
        assert report.removed == {}

    def test_duplicates_map_to_first_occurrence(self):
        fps = [fp_of([1, 0], "a"), fp_of([1, 0], "b"), fp_of([0, 1], "c"), fp_of([1, 0], "d")]
        report = dedup_exact(fps)
        assert report.kept == ("a", "c")
        assert report.removed == {"b": "a", "d": "a"}
        assert report.input_count == 4
        assert report.reduction_ratio == 0.5

    def test_reordering_changes_representatives_not_count(self, rng):
        fps = random_fps(rng, 60, n_patterns=15)
        base = dedup_exact(fps)
        order = rng.permutation(60)
        shuffled = dedup_exact([fps[i] for i in order])
        assert shuffled.output_count == base.output_count

    def test_idempotent_on_kept_set(self, rng):
        fps = random_fps(rng, 80, n_patterns=12)
        report = dedup_exact(fps)
        kept_fps = [fp for fp in fps if fp.structure_id in set(report.kept)]
        again = dedup_exact(kept_fps)
        assert again.removed == {}
        assert again.kept == report.kept

    def test_partition_property(self, rng):
        fps = random_fps(rng, 50, n_patterns=9)
        report = dedup_exact(fps)
        assert set(report.kept) | set(report.removed) == {fp.structure_id for fp in fps}
        assert not (set(report.kept) & set(report.removed))
        by_id = {fp.structure_id: fp for fp in fps}
        from dvlae import hamming_distance
        for removed, rep in report.removed.items():
            assert hamming_distance(by_id[removed], by_id[rep]) == 0

    def test_mixed_specs_rejected(self):
        with pytest.raises(UserInputError):
            dedup_exact([fp_of([1, 0], "a", "x"), fp_of([1, 0], "b", "y")])


class TestDedupHamming:
    def test_radius_zero_matches_exact(self, rng):
        fps = random_fps(rng, 200, n_bits=32, n_patterns=40)
        exact = dedup_exact(fps)
        ham = dedup_hamming(fps, 0)
        assert ham.kept == exact.kept
        assert ham.removed == exact.removed

    def test_distance_one_merges_at_radius_one(self):
        fps = [fp_of([1, 0, 0, 0], "a"), fp_of([1, 1, 0, 0], "b")]
        report = dedup_hamming(fps, 1)
        assert report.kept == ("a",)
        assert report.removed == {"b": "a"}

    def test_huge_radius_keeps_one(self, rng):
        fps = random_fps(rng, 30, n_bits=16)
        report = dedup_hamming(fps, 16)
        assert report.output_count == 1
        assert report.kept == (fps[0].structure_id,)

    def test_removed_within_radius_of_representative(self, rng):
        from dvlae import hamming_distance
        fps = random_fps(rng, 60, n_bits=24, n_patterns=25)
        radius = 5
        report = dedup_hamming(fps, radius)
        by_id = {fp.structure_id: fp for fp in fps}
        for removed, rep in report.removed.items():
            assert hamming_distance(by_id[removed], by_id[rep]) <= radius

    @pytest.mark.parametrize("radius", [3, 9, 14])
    def test_greedy_leader_oracle_across_blocks(self, rng, monkeypatch, radius):
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 40)     # 8 leaders of 5 bytes per block
        centers = rng.integers(0, 2, (30, 37))
        fps = []
        for i in range(150):
            bits = centers[rng.integers(0, 30)].copy()
            flip = rng.integers(0, 37, rng.integers(0, 6))
            bits[flip] ^= 1
            fps.append(fp_of(bits, f"s{i}"))
        kept, leaders, removed = [], [], {}
        for fp in fps:
            near = [ld for ld in leaders if hamming_distance(fp, ld) <= radius]
            if near:
                removed[fp.structure_id] = near[0].structure_id
            else:
                leaders.append(fp)
                kept.append(fp.structure_id)
        assert len(leaders) > 16
        report = dedup_hamming(fps, radius)
        assert report.kept == tuple(kept)
        assert report.removed == removed

    def test_mixed_specs_rejected(self):
        with pytest.raises(UserInputError):
            dedup_hamming([fp_of([1, 0], "a", "x"), fp_of([1, 0], "b", "y")], 1)

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


class TestNoveltyScreen:
    def test_identical_candidate_rejected(self, rng):
        train = rng.normal(0, 1, (10, 4))
        cand = np.vstack([train[3], rng.normal(10, 1, 4)])
        result = novelty_screen(["dup", "far"], cand, train,
                                NoveltyConfig(threshold=0.5, aggregate="min"))
        assert result.accepted_ids == ("far",)
        assert result.records[0].min_distance == 0.0

    def test_threshold_zero_min_accepts_exactly_non_duplicates(self, rng):
        train = rng.normal(0, 1, (8, 3))
        cand = np.vstack([train[0], train[5], rng.normal(0, 1, 3)])
        result = novelty_screen(["a", "b", "c"], cand, train,
                                NoveltyConfig(threshold=0.0, aggregate="min"))
        assert result.accepted_ids == ("c",)

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("aggregate", ["min", "mean"])
    def test_against_double_loop_oracle(self, rng, threshold, aggregate):
        cand = rng.normal(0, 1, (50, 6))
        train = rng.normal(0, 1, (50, 6))
        ids = [f"c{i}" for i in range(50)]
        result = novelty_screen(ids, cand, train,
                                NoveltyConfig(threshold=threshold, aggregate=aggregate))
        assert list(result.accepted_ids) == novelty_oracle(cand, train, threshold, aggregate)

    def test_empty_training_accepts_all_with_warning(self, rng):
        cand = rng.normal(0, 1, (4, 3))
        with pytest.warns(UserWarning, match="empty training"):
            result = novelty_screen(list("abcd"), cand, np.zeros((0, 3)),
                                    NoveltyConfig(threshold=0.1))
        assert result.accepted_ids == ("a", "b", "c", "d")

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(UserInputError, match="dimension"):
            novelty_screen(["a"], rng.normal(0, 1, (1, 3)), rng.normal(0, 1, (5, 4)),
                           NoveltyConfig(threshold=0.1))

    def test_nearest_ids_reported(self, rng):
        train = np.array([[0.0, 0.0], [10.0, 0.0]])
        cand = np.array([[0.1, 0.0], [9.8, 0.0]])
        result = novelty_screen(["x", "y"], cand, train,
                                NoveltyConfig(threshold=100.0), training_ids=["t0", "t1"])
        assert [r.nearest_id for r in result.records] == ["t0", "t1"]
        report = novelty_report(result)
        assert report.removed == {"x": "t0", "y": "t1"}
        assert report.mode == "novelty"


class TestOod:
    def test_in_store_scores_zero(self, rng):
        fps = random_fps(rng, 10, n_bits=40)
        score = ood_score(fps[3], fps)
        assert score.min_hamming == 0
        assert score.normalized == 0.0

    def test_extreme_case_normalizes_to_one(self):
        store = [fp_of([0] * 160, "zeros")]
        probe = fp_of([1] * 160, "ones")
        score = ood_score(probe, store)
        assert score.min_hamming == 160
        assert score.normalized == 1.0

    def test_growing_store_never_increases_score(self, rng):
        probe = fp_of(rng.integers(0, 2, 48), "probe")
        store = random_fps(rng, 1, n_bits=48)
        last = ood_score(probe, store).min_hamming
        for i in range(100):
            store.append(fp_of(rng.integers(0, 2, 48), f"extra{i}"))
            now = ood_score(probe, store).min_hamming
            assert now <= last
            last = now

    def test_score_is_lower_bound(self, rng):
        from dvlae import hamming_distance
        store = random_fps(rng, 20, n_bits=32)
        probe = fp_of(rng.integers(0, 2, 32), "p")
        score = ood_score(probe, store)
        for t in store:
            assert score.normalized <= hamming_distance(probe, t) / probe.n_bits

    def test_empty_store_rejected(self, rng):
        with pytest.raises(UserInputError):
            ood_score(fp_of([1, 0], "p"), [])

    def test_row_min_oracle_across_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(dist_mod, "_BLOCK_BYTES", 64)
        store = random_fps(rng, 70, n_bits=37)
        preds = random_fps(rng, 25, n_bits=37, n_patterns=6) + store[5:9]
        want = [min(hamming_distance(p, t) for t in store) for p in preds]
        order = sorted(range(len(preds)), key=lambda i: (-want[i], i))
        ranked = rank_ood(preds, store)
        assert [s.structure_id for s in ranked] == [preds[i].structure_id for i in order]
        assert [s.min_hamming for s in ranked] == [want[i] for i in order]
        assert [s.normalized for s in ranked] == [want[i] / 37 for i in order]
        assert all(type(s.min_hamming) is int for s in ranked)
        assert [ood_score(p, store).min_hamming for p in preds] == want

    def test_prediction_spec_mismatch_rejected(self, rng):
        store = random_fps(rng, 4, n_bits=16)
        with pytest.raises(UserInputError):
            rank_ood([fp_of([1] * 16, "p", "other")], store)
        with pytest.raises(UserInputError):
            ood_score(fp_of([1] * 24, "p"), store)

    def test_ranking_descending_with_stable_ties(self, rng):
        store = [fp_of([0] * 16, "t")]
        preds = [fp_of([1] * k + [0] * (16 - k), f"p{k}") for k in (2, 5, 2, 9)]
        ranked = rank_ood(preds, store)
        assert [s.structure_id for s in ranked] == ["p9", "p5", "p2", "p2"]
        assert [s.min_hamming for s in ranked] == [9, 5, 2, 2]


def test_report_json_roundtrip(rng):
    fps = random_fps(rng, 30, n_patterns=7)
    report = dedup_exact(fps)
    back = ScreeningReport.from_json(report.to_json())
    assert back.kept == report.kept
    assert back.removed == report.removed
    assert back.input_count == report.input_count
    assert back.reduction_ratio == report.reduction_ratio
