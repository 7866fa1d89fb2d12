import hashlib
import json
import logging

import numpy as np
import pytest
from helpers import build_random_index, hierarchical_cluster, random_index_inputs
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import items_under_walk, kmeans_inertia

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
        docids, _ = di.build_docids(fusion, scores, paths, max_len=6, k=3, cs=4, seed=0)
        for d in docids.values():
            assert d.tokens[:2] == (2, 202)
            assert d.semantic_len == 2
            assert len(d.tokens) >= 4  # path + cluster + ordinal
            assert 0 <= d.tokens[2] < max(3, 4)

    def test_singleton_category(self):
        docids, _ = di.build_docids({"only": np.zeros(3)}, {"only": 0.7}, {"only": (5,)},
                                    max_len=4, k=4, cs=8)
        assert docids["only"].tokens == (5, 0, 0)

    def test_node_score_is_member_mean(self):
        fusion = {"a": np.zeros(2), "b": np.zeros(2) + 0.01}
        scores = {"a": 0.2, "b": 0.4}
        paths = {"a": (7,), "b": (7,)}
        docids, node_scores = di.build_docids(fusion, scores, paths, max_len=4, k=1, cs=8)
        assert node_scores[(7, 0)] == pytest.approx(0.3, abs=1e-15)

    def test_missing_inputs_listed(self):
        fusion = {"a": np.zeros(2), "b": np.zeros(2)}
        with pytest.raises(DataError, match="'b'"):
            di.build_docids(fusion, {"a": 0.1}, {"a": (1,), "b": (1,)})

    def test_uniqueness_and_prefix_invariants(self):
        for seed in range(5):
            docids, node_scores, _ = build_random_index(seed, n_items=120, n_cats=5)
            texts = {d.text() for d in docids.values()}
            assert len(texts) == len(docids)
            by_path: dict[tuple, list[di.DocId]] = {}
            for d in docids.values():
                by_path.setdefault(d.tokens[:d.semantic_len], []).append(d)
            for path, ds in by_path.items():
                for d in ds:
                    assert d.tokens[:d.semantic_len] == path

    def test_node_scores_match_bruteforce(self):
        docids, node_scores, _ = build_random_index(3, n_items=80, n_cats=4)
        _, scores, _ = random_index_inputs(3, n_items=80, n_cats=4)
        for prefix, e in node_scores.items():
            want = np.mean([scores[i] for i, d in docids.items()
                            if d.tokens[:len(prefix)] == prefix])
            assert e == pytest.approx(want, abs=1e-12)

    def test_rebuild_is_bit_identical(self):
        fusion, scores, paths = random_index_inputs(9, n_items=100, n_cats=4)
        a = di.build_docids(fusion, scores, paths, max_len=8, k=4, cs=8, seed=5)
        b = di.build_docids(fusion, scores, paths, max_len=8, k=4, cs=8, seed=5)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_no_category_variant_has_empty_semantic_prefix(self):
        fusion, scores, paths = random_index_inputs(2, n_items=60, n_cats=4)
        docids, _ = di.build_docids(fusion, scores, paths, max_len=8, k=4, cs=8,
                                    use_categories=False)
        assert all(d.semantic_len == 0 for d in docids.values())
        assert len({d.tokens for d in docids.values()}) == len(docids)


class TestTrie:
    def test_single_docid_is_a_chain(self):
        d = di.DocId((1, 2, 3), 1)
        trie = di.build_trie({"x": d}, {(1, 2): 0.5, (1, 2, 3): 0.5})
        node = trie.root
        for tok in (1, 2, 3):
            assert list(node.children) == [tok]
            node = node.children[tok]
        assert node.item_id == "x"

    def test_shared_prefix_branches_after_semantic_layer(self):
        a = di.DocId((2, 202, 0, 0), 2)
        b = di.DocId((2, 202, 1, 0), 2)
        trie = di.build_trie({"a": a, "b": b}, {})
        node = trie.node_at((2, 202))
        assert sorted(node.children) == [0, 1]

    def test_roundtrip_enumeration(self):
        docids, node_scores, trie = build_random_index(4, n_items=200, n_cats=6)
        got = {(tokens, item) for tokens, item, _score in trie.items_under(())}
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
        trie.insert(d, "a")
        with pytest.raises(IndexBuildError, match="duplicate"):
            trie.insert(d, "b")

    def test_prefix_conflict_raises(self):
        trie = di.DocIdTrie()
        trie.insert(di.DocId((1, 0), 1), "a")
        with pytest.raises(IndexBuildError):
            trie.insert(di.DocId((1, 0, 2), 1), "b")

    def test_score_lookup(self):
        docids, node_scores, trie = build_random_index(8, n_items=50, n_cats=3)
        probe = next(iter(node_scores))
        assert trie.node_at(probe).score == node_scores[probe]
        assert trie.node_at((999, 999)) is None


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
        stack = [((), trie.root)]
        while stack:
            prefix, node = stack.pop()
            assert list(node.children) == sorted(node.children)
            assert trie.items_under(prefix) == items_under_walk(trie, prefix)
            kids = node.child_arrays()
            assert node.child_arrays() is kids
            assert kids.tokens.tolist() == list(node.children)
            assert list(kids.nodes) == list(node.children.values())
            assert kids.heads.tolist() == [c.head for c in node.children.values()]
            assert kids.los.tolist() == [c.lo for c in node.children.values()]
            assert kids.leaf.tolist() == [c.item_id is not None for c in node.children.values()]
            assert np.all(np.diff(kids.los) > 0)    # first leaves order children as tokens do
            for tok, child in node.children.items():
                assert child.head == vocab.values[len(prefix)].index(tok)
                stack.append((prefix + (tok,), child))
        assert trie.items_under((999,)) == []

    def test_docid_map_is_the_sha256_of_the_item_map(self):
        # decoder checkpoints record this hash, so it must not move
        docids, _scores, trie = build_random_index(3, n_items=80)
        item_map = [[item, list(docids[item].tokens)] for item in sorted(docids)]
        want = hashlib.sha256(json.dumps(item_map).encode()).hexdigest()
        assert dec.PositionVocab(trie).docid_map == want


class TestIndexIO:
    def test_save_load_identical(self, tmp_path):
        docids, node_scores, trie = build_random_index(6, n_items=90, n_cats=4)
        path = tmp_path / "index.json"
        di.serialize_index(docids, node_scores, path)
        docids2, node_scores2, trie2 = di.load_index(path)
        assert docids2 == docids
        assert [leaf[:2] for leaf in trie2.items_under(())] == \
            [leaf[:2] for leaf in trie.items_under(())]
        for prefix, score in node_scores.items():
            assert node_scores2[prefix] == score  # bit-exact float64 roundtrip

    def test_truncated_file_errors_without_partial_index(self, tmp_path):
        docids, node_scores, _ = build_random_index(6, n_items=30, n_cats=3)
        path = tmp_path / "index.json"
        di.serialize_index(docids, node_scores, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 3])
        with pytest.raises(CheckpointError, match="offset"):
            di.load_index(path)

    def test_missing_node_score_refused(self, tmp_path):
        docids, node_scores, _ = build_random_index(6, n_items=30, n_cats=3)
        path = tmp_path / "index.json"
        di.serialize_index(docids, node_scores, path)
        doc = json.loads(path.read_text())
        missing = max(doc["node_scores"], key=len)
        del doc["node_scores"][missing]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"index.json: no node score for docID "
                                                  f"prefix {missing}$"):
            di.load_index(path)

    def test_newer_version_refused(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"version": 2, "docids": {}, "node_scores": {}}')
        with pytest.raises(CheckpointError, match="newer"):
            di.load_index(path)
