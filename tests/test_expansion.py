import tracemalloc

import numpy as np
import pytest
from helpers import build_random_index
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expand_variant_direct_first, merge_recall_sorting, swing_scores_loop

from higen import data as dt
from higen import docid as di
from higen import expansion as ex
from higen import pipeline as pl
from higen.errors import ConfigError


def small_trie():
    docids = {
        "a": di.DocId((2, 202, 0, 0), 2),
        "b": di.DocId((2, 202, 0, 1), 2),
        "c": di.DocId((2, 202, 1, 0), 2),
        "d": di.DocId((2, 203, 0, 0), 2),
    }
    scores = {"a": 0.9, "b": 0.5, "c": 0.7, "d": 0.2}
    node_scores = {}
    for item, d in docids.items():
        for t in range(d.semantic_len, len(d.tokens)):
            node_scores.setdefault(d.tokens[:t + 1], []).append(scores[item])
    node_scores = {p: float(np.mean(v)) for p, v in node_scores.items()}
    return docids, di.build_trie(docids, node_scores)


class TestClusterExpand:
    def test_full_length_prefix_returns_decoded_only(self):
        docids, trie = small_trie()
        out = ex.cluster_expand([(docids["a"], -0.1)], trie, 4)
        assert out.item_ids() == ["a"]

    def test_shared_prefix_items_included(self):
        docids, trie = small_trie()
        out = ex.cluster_expand([(docids["a"], -0.1)], trie, 2)
        assert set(out.item_ids()) == {"a", "b", "c"}
        # expansion items ordered by leaf efficiency score descending
        assert out.item_ids() == ["a", "c", "b"]
        assert {e.source for e in out.entries[1:]} == {"cluster"}

    def test_prefix_beyond_short_docid_matches_only_itself(self):
        docids = {"x": di.DocId((1, 0), 1), "y": di.DocId((1, 1, 0), 1)}
        trie = di.build_trie(docids, {(1, 0): 0.5, (1, 1): 0.5, (1, 1, 0): 0.5})
        out = ex.cluster_expand([(docids["x"], -0.2)], trie, 3)
        assert out.item_ids() == ["x"]

    def test_nesting_over_random_indices(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            docids, node_scores, trie = build_random_index(seed + 40, n_items=80, n_cats=4)
            ids = sorted(docids)
            picks = rng.choice(len(ids), size=4, replace=False)
            decoded = [(docids[ids[i]], -float(j)) for j, i in enumerate(picks)]
            prev = None
            for k in range(trie.max_depth, 0, -1):
                got = set(ex.cluster_expand(decoded, trie, k).item_ids())
                if prev is not None:
                    assert got >= prev
                prev = got

    def test_prefix_bound_validation(self):
        docids, trie = small_trie()
        with pytest.raises(ConfigError):
            ex.cluster_expand([], trie, 0)
        with pytest.raises(ConfigError):
            ex.cluster_expand([], trie, 9)


class TestExpandVariant:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1 << 16), n_items=st.integers(5, 60), n_cats=st.integers(1, 5),
           path_len=st.sampled_from([1, 2]), data=st.data())
    def test_matches_the_direct_first_cluster_tier(self, seed, n_items, n_cats, path_len,
                                                   data):
        # the cluster tier holds every item under the prefixes and merge_recall
        # sets priority: each merged set equals the one built with the direct
        # hits at the head of the cluster tier
        docids, _ns, trie = build_random_index(seed, n_items=n_items, n_cats=n_cats,
                                               path_len=path_len)
        ids = sorted(docids)
        picks = data.draw(st.lists(st.sampled_from(ids), max_size=8))
        decoded = [(docids[i], data.draw(st.floats(-5.0, 0.0))) for i in picks]
        clicks = data.draw(st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2", "u3"]),
                                              st.sampled_from(ids)), max_size=40))
        table = ex.swing_scores(clicks)
        k = data.draw(st.integers(1, trie.max_depth + 1))
        cap = data.draw(st.integers(0, n_items + 2))
        per_seed_n = data.draw(st.integers(0, 4))
        for cluster_k, use_i2i in ((None, False), (k, False), (None, True), (k, True)):
            args = (decoded, trie, table, cluster_k, use_i2i, cap, per_seed_n)
            assert pl.expand_variant(*args).entries == expand_variant_direct_first(*args).entries


class TestI2IVariant:
    def test_i2i_grows_the_recall_set_on_revisits(self):
        # more train queries than items: users revisit items, so item pairs
        # share clicking users and the Swing table is not empty
        corpus = dt.generate_synthetic(n_items=60, n_categories=6, n_train_queries=300,
                                       n_test_queries=10, n_users=5, seed=0)
        clicked = [r for r in corpus.train_rows if r.click == 1]
        table = ex.swing_scores([(r.user_id, r.target_item_id) for r in clicked])
        rng = np.random.default_rng(0)
        docids, node_scores = di.build_docids(
            {it.item_id: rng.normal(size=4) for it in corpus.catalog},
            {it.item_id: it.efficient_score for it in corpus.catalog},
            {it.item_id: it.category_path for it in corpus.catalog}, max_len=8, k=4, cs=8)
        trie = di.build_trie(docids, node_scores)
        grown = set()
        for row in clicked[:20]:
            decoded = [(docids[row.target_item_id], -0.1)]
            cluster = pl.expand_variant(decoded, trie, table, 2, False, 5000, 10)
            both = pl.expand_variant(decoded, trie, table, 2, True, 5000, 10)
            grown |= {e.item_id for e in both.entries if e.source == "i2i"} - \
                set(cluster.item_ids())
        assert grown


class TestSwing:
    def test_two_common_users_closed_form(self):
        # users u1, u2 both click i and j and nothing else:
        # one user pair, overlap {i, j} of size 2 -> 1 / (1 + 2)
        inter = [("u1", "i"), ("u1", "j"), ("u2", "i"), ("u2", "j")]
        table = ex.swing_scores(inter, alpha=1.0)
        assert dict(table.neighbors["i"])["j"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_single_common_user_omitted(self):
        inter = [("u1", "i"), ("u1", "j"), ("u2", "i")]
        table = ex.swing_scores(inter)
        assert "j" not in dict(table.neighbors.get("i", []))

    def test_duplicates_deduplicated(self):
        inter = [("u1", "i"), ("u1", "i"), ("u1", "j"), ("u2", "i"), ("u2", "j"),
                 ("u2", "j")]
        a = ex.swing_scores(inter)
        b = ex.swing_scores(list(set(inter)))
        assert a.neighbors == b.neighbors

    def test_symmetry_before_truncation(self):
        rng = np.random.default_rng(1)
        inter = [(f"u{rng.integers(6)}", f"i{rng.integers(8)}") for _ in range(60)]
        table = ex.swing_scores(inter, top_n=100)
        for i, neigh in table.neighbors.items():
            for j, s in neigh:
                assert dict(table.neighbors[j])[i] == s

    def test_matches_bruteforce_pairs(self):
        rng = np.random.default_rng(3)
        inter = sorted({(f"u{rng.integers(5)}", f"i{rng.integers(6)}") for _ in range(25)})
        user_items = {}
        for u, i in inter:
            user_items.setdefault(u, set()).add(i)
        table = ex.swing_scores(inter, alpha=1.0, top_n=100)
        items = sorted({i for _, i in inter})
        for a_i in items:
            for b_i in items:
                if a_i >= b_i:
                    continue
                users = sorted(u for u, its in user_items.items()
                               if a_i in its and b_i in its)
                want = 0.0
                for x in range(len(users)):
                    for y in range(x + 1, len(users)):
                        want += 1.0 / (1.0 + len(user_items[users[x]] & user_items[users[y]]))
                got = dict(table.neighbors.get(a_i, [])).get(b_i, 0.0)
                if len(users) < 2:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(want, abs=1e-12)

    @staticmethod
    def hexed(table):
        return {item: [(n, s.hex()) for n, s in neighbors]
                for item, neighbors in table.neighbors.items()}

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 15), st.integers(2, 12), st.integers(0, 3),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_equals_the_loop_bit_for_bit(self, n_users, n_items, per_user, n_disjoint,
                                         popular, seed):
        # ids like u10 < u2, so id order is not number order; items drawn with
        # replacement repeat rows, the first n_disjoint users share no item, and
        # a popular item every user clicks joins every user pair's overlap
        rng = np.random.default_rng(seed)
        rows = [(f"u{u}", f"u{u}-i{i}" if u < n_disjoint else f"i{i}")
                for u in range(n_users) for i in rng.integers(n_items, size=per_user)]
        rows += [(f"u{u}", "hot") for u in range(n_users) if popular]
        for alpha in (0.5, 1.0, 2.5):
            for top_n in (0, 1, 3, 50):
                assert self.hexed(ex.swing_scores(rows, alpha, top_n)) == \
                    self.hexed(swing_scores_loop(rows, alpha, top_n))

    @staticmethod
    def clicks(shape):
        if shape == "revisit":      # gen-synthetic --items 500 --train-queries 1000 --users 10
            corpus = dt.generate_synthetic(n_items=500, n_train_queries=1000, n_users=10, seed=0)
            return [(r.user_id, r.target_item_id) for r in corpus.train_rows if r.click == 1]
        if shape == "pair":         # 1000 users on one item pair: 499,500 terms in one sum
            return [(f"u{u}", i) for u in range(1000) for i in ("hot", "hot2", f"own{u}")]
        # 3000 users click one popular item and five items of their own, or two of 500
        rng = np.random.default_rng(0)
        own = [[f"own{u}-{k}" for k in range(5)] if shape == "popular"
               else [f"i{i}" for i in rng.integers(500, size=2)] for u in range(3000)]
        return [(f"u{u}", i) for u in range(3000) for i in ["hot", *own[u]]]

    # peaks of the loop in tests/oracles.py: about 11.9, 18, 2.2 and 0.8 MB.
    # Pairing the users of each item would hold 4.5 million user pairs on either
    # popular shape, and holding every term at once about 50 MB on "pair". The
    # first call in a process also pays for whatever numpy imports lazily.
    @pytest.mark.parametrize("shape,limit", [("revisit", 4_000_000), ("popular", 4_000_000),
                                             ("popular+2", 8_000_000), ("pair", 8_000_000)])
    def test_builds_in_little_memory(self, shape, limit):
        clicks = self.clicks(shape)
        tracemalloc.start()
        try:
            table = ex.swing_scores(clicks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.hexed(table) == self.hexed(swing_scores_loop(clicks))
        assert bool(table.neighbors) == (shape != "popular")
        assert peak < limit

    def test_slices_hold_the_same_pairs(self):
        # each slice weighs at most 2**16 beyond its first entry, whose pairs stay whole
        rng = np.random.default_rng(5)
        keys = np.sort(rng.integers(40, size=600))
        weight = rng.integers(1, 400, size=600)
        (whole,) = ex._pairs_within_runs(keys)
        sliced = [ab for ab in ex._pairs_within_runs(keys, weight) if len(ab[0])]
        assert len(sliced) > 5
        for k in (0, 1):
            assert np.array_equal(np.concatenate([ab[k] for ab in sliced]), whole[k])
        for (a, _b), (c, _d) in zip(sliced, sliced[1:]):
            assert a[-1] < c[0]
        for a, _b in sliced:
            assert weight[a[a != a[0]]].sum() <= 1 << 16

    def test_roundtrip(self, tmp_path):
        inter = [("u1", "i"), ("u1", "j"), ("u2", "i"), ("u2", "j")]
        table = ex.swing_scores(inter)
        path = tmp_path / "i2i.jsonl"
        table.save(path)
        assert ex.I2ITable.load(path).neighbors == table.neighbors


class TestI2IExpand:
    def table(self):
        return ex.I2ITable({
            "a": [("x", 0.9), ("y", 0.5), ("z", 0.1)],
            "b": [("y", 0.8), ("w", 0.3)],
        })

    def test_zero_per_seed_is_empty(self):
        assert ex.i2i_expand(["a", "b"], self.table(), 0).recall_num == 0

    def test_top_n_per_seed(self):
        out = ex.i2i_expand(["a"], self.table(), 2)
        assert out.item_ids() == ["x", "y"]

    def test_shared_neighbor_keeps_max_score(self):
        out = ex.i2i_expand(["a", "b"], self.table(), 2)
        got = {e.item_id: e.score for e in out.entries}
        assert got["y"] == 0.8
        assert out.item_ids() == ["x", "y", "w"]

    def test_absent_seed_contributes_nothing(self):
        out = ex.i2i_expand(["missing"], self.table(), 3)
        assert out.recall_num == 0


class TestMergeRecall:
    def sets(self):
        direct = ex.RecallSet([ex.RecallEntry("a", "direct", -0.1),
                               ex.RecallEntry("b", "direct", -0.5)])
        cluster = ex.RecallSet([ex.RecallEntry("a", "direct", -0.1),
                                ex.RecallEntry("c", "cluster", 0.9),
                                ex.RecallEntry("d", "cluster", 0.4)])
        i2i = ex.RecallSet([ex.RecallEntry("b", "i2i", 0.7),
                            ex.RecallEntry("e", "i2i", 0.2)])
        return direct, cluster, i2i

    def test_zero_cap_is_empty(self):
        assert ex.merge_recall(*self.sets(), cap=0).recall_num == 0

    def test_duplicate_keeps_direct_tag(self):
        out = ex.merge_recall(*self.sets(), cap=10)
        by_id = {e.item_id: e for e in out.entries}
        assert by_id["a"].source == "direct"
        assert by_id["b"].source == "direct"
        assert out.item_ids() == ["a", "b", "c", "d", "e"]

    def test_no_truncation_below_cap(self):
        out = ex.merge_recall(*self.sets(), cap=100)
        assert out.recall_num == 5

    def test_truncation_at_cap(self):
        out = ex.merge_recall(*self.sets(), cap=3)
        assert out.item_ids() == ["a", "b", "c"]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1 << 16), n_items=st.integers(5, 60), n_cats=st.integers(1, 5),
           data=st.data())
    def test_matches_the_merge_that_sorts_every_tier(self, seed, n_items, n_cats, data):
        # the cluster and I2I builders return (-score, item_id) order, so
        # sorting their tiers again changes nothing; the direct tier comes in
        # decoded order, ties included
        docids, _ns, trie = build_random_index(seed, n_items=n_items, n_cats=n_cats)
        ids = sorted(docids)
        picks = data.draw(st.lists(st.sampled_from(ids), max_size=8))
        logprobs = st.sampled_from([0.0, -0.5, -1.0]) | st.floats(-5.0, 0.0)
        decoded = [(docids[i], data.draw(logprobs)) for i in picks]
        clicks = data.draw(st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2", "u3"]),
                                              st.sampled_from(ids)), max_size=40))
        direct = ex.direct_hits(decoded, trie)
        cluster = ex.cluster_expand(decoded, trie, data.draw(st.integers(1, trie.max_depth)))
        i2i = ex.i2i_expand(direct.item_ids(), ex.swing_scores(clicks),
                            data.draw(st.integers(0, 4)))
        cap = data.draw(st.integers(0, n_items + 2))
        assert ex.merge_recall(direct, cluster, i2i, cap).entries == \
            merge_recall_sorting(direct, cluster, i2i, cap).entries

    def test_direct_always_present_when_cap_allows(self):
        direct, cluster, i2i = self.sets()
        out = ex.merge_recall(direct, cluster, i2i, cap=2)
        assert out.item_ids() == ["a", "b"]
