import gc
import hashlib
import json
import logging
import re

import numpy as np
import pytest
from helpers import (build_random_index, hierarchical_cluster, random_index_inputs,
                     trie_node_scores)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import items_under_walk, kmeans_inertia, node_scores_loop

from higen import decoder as dec
from higen import docid as di
from higen.errors import CheckpointError, ConfigError, DataError, IndexBuildError


class TestKmeans:
    def test_well_separated_1d(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels, centroids = di.kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]
        got = sorted(float(c[0]) for c in centroids)
        np.testing.assert_allclose(got, [0.05, 10.05], atol=1e-9)

    def test_k_equals_one(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 3))
        labels, centroids = di.kmeans(pts, 1, seed=0)
        assert set(labels) == {0}
        np.testing.assert_allclose(centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_beats_random_assignments(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 4))
        labels, _ = di.kmeans(pts, 3, seed=1)
        ours = kmeans_inertia(pts, labels)
        for trial in range(100):
            rand_labels = np.random.default_rng(trial).integers(3, size=50)
            assert ours <= kmeans_inertia(pts, rand_labels) + 1e-9

    def test_k_exceeding_points_gives_singletons(self):
        pts = np.array([[0.0], [5.0], [9.0]])
        labels, _ = di.kmeans(pts, 7, seed=0)
        assert list(labels) == [0, 1, 2]

    def test_relabel_by_descending_size(self):
        # 6 points near zero, 2 near ten: the big cluster must be index 0
        pts = np.array([[0.0], [0.1], [0.2], [0.05], [0.15], [0.12], [10.0], [10.1]])
        labels, _ = di.kmeans(pts, 2, seed=3)
        assert list(labels[:6]) == [0] * 6
        assert list(labels[6:]) == [1, 1]

    def test_identical_points_collapse_to_one_cluster(self):
        pts = np.zeros((9, 2))
        labels, _ = di.kmeans(pts, 3, seed=0)
        assert set(labels) == {0}

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 3))
        a = di.kmeans(pts, 4, seed=11)
        b = di.kmeans(pts, 4, seed=11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_or_bad_k(self):
        with pytest.raises(ConfigError):
            di.kmeans(np.zeros((0, 2)), 2)
        with pytest.raises(ConfigError):
            di.kmeans(np.zeros((3, 2)), 0)


class TestHierarchicalCluster:
    def test_small_node_is_ordinal_only(self):
        pts = np.arange(5.0)[:, None]
        tokens = hierarchical_cluster(pts, 4, 100, 3)
        assert tokens == [(0,), (1,), (2,), (3,), (4,)]

    def test_large_node_splits(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(250, 4))
        tokens = hierarchical_cluster(pts, 10, 100, 4, seed=1)
        assert all(len(t) >= 2 for t in tokens)
        # after the first split every cluster fits in CS here
        cluster_sizes: dict[int, int] = {}
        for t in tokens:
            cluster_sizes[t[0]] = cluster_sizes.get(t[0], 0) + 1
        assert all(size <= 100 for size in cluster_sizes.values())

    def test_identical_points_fall_back_to_ordinals(self, caplog):
        pts = np.zeros((30, 2))
        with caplog.at_level(logging.WARNING):
            tokens = hierarchical_cluster(pts, 4, 8, 5)
        assert sorted(tokens) == [(i,) for i in range(30)]
        assert any("ordinal" in rec.message for rec in caplog.records)

    def test_depth_exhaustion_warns(self, caplog):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 2))
        with caplog.at_level(logging.WARNING):
            tokens = hierarchical_cluster(pts, 2, 3, 1, seed=0)
        assert any("depth budget" in rec.message for rec in caplog.records)
        assert all(len(t) >= 1 for t in tokens)

    def test_ordinals_order_by_score_then_id(self):
        pts = np.arange(4.0)[:, None]
        tokens = hierarchical_cluster(pts, 2, 100, 1, scores=[0.1, 0.9, 0.9, 0.2],
                                      ids=["d", "b", "a", "c"])
        # ranks: a (0.9) first by id tie-break, then b, then c (0.2), then d
        assert tokens == [(3,), (1,), (0,), (2,)]


class TestBuildDocids:
    def test_two_level_path_shape(self):
        rng = np.random.default_rng(0)
        fusion = {f"i{j}": rng.normal(size=4) for j in range(12)}
        scores = {k: 0.5 for k in fusion}
        paths = {k: (2, 202) for k in fusion}
        docids = di.build_docids(fusion, scores, paths, max_len=6, k=3, cs=4, seed=0)
        for d in docids.values():
            assert d.tokens[:2] == (2, 202)
            assert d.semantic_len == 2
            assert len(d.tokens) >= 4  # path + cluster + ordinal
            assert 0 <= d.tokens[2] < max(3, 4)

    def test_singleton_category(self):
        docids = di.build_docids({"only": np.zeros(3)}, {"only": 0.7}, {"only": (5,)},
                                 max_len=4, k=4, cs=8)
        assert docids["only"].tokens == (5, 0, 0)

    def test_node_score_is_member_mean(self):
        fusion = {"a": np.zeros(2), "b": np.zeros(2) + 0.01}
        scores = {"a": 0.2, "b": 0.4}
        paths = {"a": (7,), "b": (7,)}
        trie = di.build_trie(di.build_docids(fusion, scores, paths, max_len=4, k=1, cs=8),
                             scores)
        assert trie.scores[trie.node_at((7, 0)).id] == pytest.approx(0.3, abs=1e-15)

    def test_missing_inputs_listed(self):
        fusion = {"a": np.zeros(2), "b": np.zeros(2)}
        with pytest.raises(DataError, match="'b'"):
            di.build_docids(fusion, {"a": 0.1}, {"a": (1,), "b": (1,)})

    def test_uniqueness_and_prefix_invariants(self):
        for seed in range(5):
            docids, _scores, _ = build_random_index(seed, n_items=120, n_cats=5)
            texts = {d.text() for d in docids.values()}
            assert len(texts) == len(docids)
            by_path: dict[tuple, list[di.DocId]] = {}
            for d in docids.values():
                by_path.setdefault(d.tokens[:d.semantic_len], []).append(d)
            for path, ds in by_path.items():
                for d in ds:
                    assert d.tokens[:d.semantic_len] == path

    def test_node_scores_match_bruteforce(self):
        docids, scores, trie = build_random_index(3, n_items=80, n_cats=4)
        for prefix, e in trie_node_scores(trie).items():
            want = np.mean([scores[i] for i, d in docids.items()
                            if d.tokens[:len(prefix)] == prefix])
            assert e == pytest.approx(want, abs=1e-12)

    def test_rebuild_is_bit_identical(self):
        fusion, scores, paths = random_index_inputs(9, n_items=100, n_cats=4)
        a = di.build_docids(fusion, scores, paths, max_len=8, k=4, cs=8, seed=5)
        b = di.build_docids(fusion, scores, paths, max_len=8, k=4, cs=8, seed=5)
        assert a == b

    def test_no_category_variant_has_empty_semantic_prefix(self):
        fusion, scores, paths = random_index_inputs(2, n_items=60, n_cats=4)
        docids = di.build_docids(fusion, scores, paths, max_len=8, k=4, cs=8,
                                 use_categories=False)
        assert all(d.semantic_len == 0 for d in docids.values())
        assert len({d.tokens for d in docids.values()}) == len(docids)


    @pytest.mark.parametrize("k", [4, 5])
    def test_nested_category_paths_are_refused(self, k):
        # (1,)'s docIDs 1-3-... clashed with (1, 3)'s: a duplicate docID here,
        # or, written to the index, a docID below a leaf when the trie was built
        rng = np.random.default_rng(0)
        fusion = {f"{p}{j:02d}": rng.normal(size=4) for p in "ab" for j in range(40)}
        scores = {item: float(rng.uniform()) for item in fusion}
        paths = {item: (1,) if item[0] == "a" else (1, 3) for item in fusion}
        with pytest.raises(DataError, match=re.escape(
                "category path (1,) is a prefix of category path (1, 3)")):
            di.build_docids(fusion, scores, paths, max_len=8, k=k, cs=8)
        docids = di.build_docids(fusion, scores, paths, max_len=8, k=k, cs=8,
                                 use_categories=False)
        assert di.build_trie(docids, scores).n_items == len(fusion)

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(paths=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
                          min_size=1, max_size=6, unique=True), seed=st.integers(0, 100))
    def test_refused_exactly_when_one_path_extends_another(self, paths, seed):
        rng = np.random.default_rng(seed)
        items = {f"i{j:02d}": paths[j % len(paths)] for j in range(4 * len(paths))}
        fusion = {item: rng.normal(size=3) for item in items}
        scores = {item: float(rng.uniform()) for item in items}
        nested = any(a != b and b[:len(a)] == a for a in paths for b in paths)
        if nested:
            with pytest.raises(DataError, match="is a prefix of category path"):
                di.build_docids(fusion, scores, items, max_len=8, k=2, cs=2, seed=seed)
            return
        docids = di.build_docids(fusion, scores, items, max_len=8, k=2, cs=2, seed=seed)
        trie = di.build_trie(docids, scores)   # unique and prefix-free, or it raises
        assert trie.n_items == len(items)
        assert all(d.tokens[:d.semantic_len] == items[i] for i, d in docids.items())

class TestTrie:
    def test_single_docid_is_a_chain(self):
        d = di.DocId((1, 2, 3), 1)
        trie = di.build_trie({"x": d}, {"x": 0.5})
        node = trie.root
        for tok in (1, 2, 3):
            assert list(node.children) == [tok]
            node = node.children[tok]
        assert node.item_id == "x"

    def test_shared_prefix_branches_after_semantic_layer(self):
        a = di.DocId((2, 202, 0, 0), 2)
        b = di.DocId((2, 202, 1, 0), 2)
        trie = di.build_trie({"a": a, "b": b}, {"a": 0.1, "b": 0.2})
        node = trie.node_at((2, 202))
        assert sorted(node.children) == [0, 1]

    def test_roundtrip_enumeration(self):
        docids, _scores, trie = build_random_index(4, n_items=200, n_cats=6)
        root = trie.root
        assert trie.leaves[root.lo:root.hi] == items_under_walk(trie, ())
        got = {(tokens, item) for tokens, item, _score in trie.leaves[root.lo:root.hi]}
        want = {(d.tokens, item) for item, d in docids.items()}
        assert got == want
        for item, d in docids.items():
            assert trie.lookup(d.tokens) == item

    def test_lookup_takes_whole_docids_only(self):
        docids, _ns, trie = build_random_index(5, n_items=80, n_cats=4)
        for d in docids.values():
            for t in range(len(d.tokens)):
                assert trie.lookup(d.tokens[:t]) is None       # a prefix names no item
        assert trie.lookup((999, 999)) is None
        assert trie.lookup(next(iter(docids.values())).tokens + (0,)) is None

    def test_duplicate_docid_raises(self):
        d = di.DocId((1, 0, 0), 1)
        trie = di.DocIdTrie()
        trie.insert(d, "a", 0.5)
        with pytest.raises(IndexBuildError, match="duplicate"):
            trie.insert(d, "b", 0.5)

    def test_prefix_conflict_raises(self):
        trie = di.DocIdTrie()
        trie.insert(di.DocId((1, 0), 1), "a", 0.5)
        with pytest.raises(IndexBuildError):
            trie.insert(di.DocId((1, 0, 2), 1), "b", 0.5)

    def test_score_lookup(self):
        docids, scores, trie = build_random_index(8, n_items=50, n_cats=3)
        probe, want = next(iter(node_scores_loop(docids, scores).items()))
        assert trie.scores[trie.node_at(probe).id] == want
        assert trie.node_at((999, 999)) is None

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), n_items=st.integers(1, 200),
           n_cats=st.integers(1, 8), path_len=st.sampled_from([1, 2, "mixed", "unequal", None]))
    def test_node_scores_equal_the_loop_bit_for_bit(self, seed, n_items, n_cats, path_len):
        # None: the clustering ablation, one group with an empty semantic prefix
        docids, scores, trie = build_random_index(seed, n_items=n_items, n_cats=n_cats,
                                                  path_len=path_len or 1,
                                                  use_categories=path_len is not None)
        assert trie_node_scores(trie) == node_scores_loop(docids, scores)   # keys and bits


class TestTrieLayout:
    """build_trie fixes child order, head columns and leaf order once; every
    reader relies on them."""

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), n_items=st.integers(1, 150),
           categories=st.sampled_from([1, 2, None]))
    def test_layout_matches_the_docids(self, seed, n_items, categories):
        docids, _scores, trie = build_random_index(
            seed, n_items=n_items, path_len=categories or 1, use_categories=bool(categories))
        vocab = dec.PositionVocab(trie)
        assert vocab.values == [sorted({d.tokens[t] for d in docids.values() if len(d.tokens) > t})
                                for t in range(trie.max_depth)]
        assert [leaf[:2] for leaf in trie.leaves] == \
            sorted((d.tokens, item) for item, d in docids.items())
        depth = {id(trie.root): 0}
        stack = [((), trie.root)]
        while stack:
            prefix, node = stack.pop()
            assert list(node.children) == sorted(node.children)
            assert trie.leaves[node.lo:node.hi] == items_under_walk(trie, prefix)
            kid_los = [c.lo for c in node.children.values()]
            assert np.all(np.diff(kid_los) > 0)     # first leaves order children as tokens do
            for tok, child in node.children.items():
                assert child.head == vocab.values[len(prefix)].index(tok)
                depth[id(child)] = len(prefix) + 1
                stack.append((prefix + (tok,), child))
        # breadth-first ids: each node's children are one run of ids in token order
        assert trie.nodes[0] is trie.root and len(trie.nodes) == len(depth)
        for i, node in enumerate(trie.nodes):
            first, count = trie.first[i], trie.counts[i]
            assert trie.nodes[first:first + count] == list(node.children.values())
            assert trie.heads[i] == node.head and trie.los[i] == node.lo
            assert (count == 0) == (node.item_id is not None)
        depths = [depth[id(node)] for node in trie.nodes]
        assert depths == sorted(depths)
        assert trie.node_at((999,)) is None and items_under_walk(trie, (999,)) == []

    def test_docid_map_is_the_sha256_of_the_item_map(self):
        # decoder checkpoints record this hash, so it must not move
        docids, _scores, trie = build_random_index(3, n_items=80)
        item_map = [[item, list(docids[item].tokens)] for item in sorted(docids)]
        want = hashlib.sha256(json.dumps(item_map).encode()).hexdigest()
        assert dec.PositionVocab(trie).docid_map == want


class TestIndexIO:
    def test_save_load_identical(self, tmp_path):
        docids, scores, trie = build_random_index(6, n_items=90, n_cats=4)
        path = tmp_path / "index.json"
        di.serialize_index(docids, scores, path)
        docids2, scores2, trie2 = di.load_index(path)
        assert docids2 == docids
        assert scores2 == scores    # bit-exact float64 roundtrip
        assert trie2.leaves == trie.leaves == items_under_walk(trie2, ())
        np.testing.assert_array_equal(trie2.scores, trie.scores)

    def test_truncated_file_errors_without_partial_index(self, tmp_path):
        docids, scores, _ = build_random_index(6, n_items=30, n_cats=3)
        path = tmp_path / "index.json"
        di.serialize_index(docids, scores, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 3])
        with pytest.raises(CheckpointError, match="offset"):
            di.load_index(path)

    def test_newer_version_refused(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"version": 3, "docids": {}}')
        with pytest.raises(CheckpointError, match="newer"):
            di.load_index(path)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_builds_with_the_collector_paused_and_restores_it(self, tmp_path, monkeypatch,
                                                              enabled):
        docids, scores, _ = build_random_index(6, n_items=30, n_cats=3)
        path = tmp_path / "index.json"
        di.serialize_index(docids, scores, path)
        (tmp_path / "bad.json").write_text('{"version": 2}')
        seen = []
        build_trie = di.build_trie
        monkeypatch.setattr(di, "build_trie", lambda *a: seen.append(gc.isenabled()) or
                            build_trie(*a))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            di.load_index(path)
            assert seen == [False] and gc.isenabled() == enabled
            with pytest.raises(CheckpointError, match="docids"):
                di.load_index(tmp_path / "bad.json")
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
