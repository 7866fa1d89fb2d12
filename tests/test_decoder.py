import copy

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import build_random_index, decoder_world, random_index_inputs
from oracles import (beam_search_loop, finite_diff_gradcheck, hierarchical_weights,
                     position_aware_loss_loop, position_weight)

from higen import decoder as dec
from higen import docid as di
from higen import expansion as ex
from higen import nn
from higen.data import DatasetRow, Item, write_jsonl
from higen.errors import ConfigError, DataError, DimensionError, IndexBuildError


def mp_weight(t, last):
    mpmath.mp.dps = 50
    denom = sum(mpmath.e ** i for i in range(last + 1))
    return float(mpmath.e ** (last - t) / denom)


class TestHierarchicalWeight:
    def test_single_position(self):
        assert dec.hierarchical_weight(0, 0) == pytest.approx(1.0, abs=1e-15)

    def test_three_positions_match_high_precision(self):
        got = [dec.hierarchical_weight(t, 2) for t in range(3)]
        np.testing.assert_allclose(got, [0.665241, 0.244728, 0.090031], atol=1e-6)
        np.testing.assert_allclose(got, [mp_weight(t, 2) for t in range(3)], atol=1e-14)

    def test_sum_decrease_positivity_up_to_16(self):
        for last in range(1, 17):
            w = hierarchical_weights(last)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(np.diff(w) < 0)
            assert np.all(w > 0)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            dec.hierarchical_weight(3, 2)
        with pytest.raises(DimensionError):
            dec.hierarchical_weight(-1, 2)


class TestRelevanceOracle:
    def test_self_similarity_is_one(self):
        oracle = dec.RelevanceOracle([(1, 2, 0.7)])
        assert oracle.similarity(1, 1) == 1.0
        assert oracle.similarity(9, 9) == 1.0

    def test_symmetric(self):
        oracle = dec.RelevanceOracle([(1, 2, 0.7)])
        assert oracle.similarity(1, 2) == oracle.similarity(2, 1) == 0.7

    def test_default_for_unknown_pairs(self):
        oracle = dec.RelevanceOracle([])
        assert oracle.similarity(1, 2) == 0.0

    def test_range_validation(self):
        with pytest.raises(DataError):
            dec.RelevanceOracle([(1, 2, 1.5)])


class TestPositionWeight:
    def test_correct_prediction_at_semantic_layer(self):
        oracle = dec.RelevanceOracle([])
        w = position_weight(0, 2, 1, 5, 5, lambda tok: 0.0, oracle)
        assert w == pytest.approx(0.8 * dec.hierarchical_weight(0, 2), abs=1e-12)

    def test_equal_efficiency_beyond_semantic_layer(self):
        oracle = dec.RelevanceOracle([])
        w = position_weight(2, 2, 1, 5, 7, lambda tok: 0.42, oracle)
        assert w == pytest.approx(0.8 * dec.hierarchical_weight(2, 2), abs=1e-12)

    def test_irrelevant_prediction_closed_form(self):
        oracle = dec.RelevanceOracle([])  # unknown pair -> similarity 0
        w = position_weight(0, 2, 1, 5, 6, lambda tok: 0.0, oracle)
        assert w == pytest.approx(0.632193, abs=1e-6)

    def test_efficiency_divergence_is_absolute(self):
        oracle = dec.RelevanceOracle([])
        e = {3: 0.2, 4: 0.9}
        w_ab = position_weight(2, 3, 1, 3, 4, e.__getitem__, oracle)
        w_ba = position_weight(2, 3, 1, 4, 3, e.__getitem__, oracle)
        assert w_ab == pytest.approx(0.8 * dec.hierarchical_weight(2, 3) + 0.1 * 0.7, abs=1e-12)
        assert w_ab == w_ba

    def test_missing_efficiency_raises(self):
        oracle = dec.RelevanceOracle([])
        with pytest.raises(KeyError):
            position_weight(2, 2, 1, 3, 4, {}.__getitem__, oracle)


def handset_world(docid_map, scores, semantic_len=1):
    """World with zeroed encoder/step nets so logits equal the head biases;
    semantic_len is one length for every docID or a dict of them by item."""
    if isinstance(semantic_len, int):
        semantic_len = dict.fromkeys(docid_map, semantic_len)
    docids = {item: di.DocId(tok, semantic_len[item]) for item, tok in docid_map.items()}
    trie = di.build_trie(docids, scores)
    catalog = [Item(i, tuple(d.tokens[:d.semantic_len]) or (0,), (i,), (0.5,), scores[i])
               for i, d in docids.items()]
    rows = [DatasetRow("u0", f"q {i}", (), i, 1, 1, 0.0) for i in sorted(docids)]
    model = dec.DecoderModel(dec.Vocab.build(rows, catalog), dec.PositionVocab(trie),
                             dec.DecoderConfig(emb=3, d_model=4, hidden=(), seed=0))
    for w in model.head_w:
        w.data[:] = 0.0
    return docids, trie, catalog, rows, model


class TestGreedyArgmaxToken:
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), n_items=st.integers(1, 60), levels=st.integers(1, 4),
           path_len=st.sampled_from([2, "unequal"]))
    def test_first_maximum_over_the_children(self, seed, n_items, levels, path_len):
        # few distinct logits make ties, which go to the smallest token; rows
        # share nodes, as a batch's rows share their prefixes
        _docids, _scores, trie = build_random_index(seed, n_items=n_items, n_cats=3,
                                                    path_len=path_len)
        rng = np.random.default_rng(seed)
        inner: dict[int, list] = {}
        stack = [(trie.root, 0)]
        while stack:
            node, t = stack.pop()
            if node.children:
                inner.setdefault(t, []).append(node)
            stack.extend((child, t + 1) for child in node.children.values())
        for t, nodes in sorted(inner.items()):
            nodes = [nodes[i] for i in rng.integers(len(nodes), size=2 * len(nodes))]
            logits = rng.integers(levels, size=(len(nodes), len(trie.values[t]))).astype(float)
            got = dec.greedy_argmax_token(trie, np.array([node.id for node in nodes]), logits)
            assert got.shape == (len(nodes),)
            for node, row, child_id in zip(nodes, logits, got):
                best = max(row[child.head] for child in node.children.values())
                want = min(tok for tok, child in node.children.items() if row[child.head] == best)
                assert trie.nodes[child_id] is node.children[want]

    def test_a_short_child_run_reads_only_its_own_children(self):
        # (2,) has one child and (1,) two: the id after (2, 7) is (1, 5, 9),
        # whose head (9 after clusters 0-2 at position 2) is past the 3 columns
        # of position 1
        paths = {"a": (1, 5, 9, 0), "b": (1, 6, 9, 0), "c": (2, 7, 0), "d": (2, 7, 1),
                 "e": (2, 7, 2)}
        trie = di.build_trie({i: di.DocId(tok, len(tok) - 1) for i, tok in paths.items()},
                             dict.fromkeys(paths, 0.5))
        assert trie.values[1] == [5, 6, 7] and trie.heads[trie.node_at((1, 5, 9)).id] == 3
        ids = np.array([trie.node_at((1,)).id, trie.node_at((2,)).id])
        got = dec.greedy_argmax_token(trie, ids, np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 0.0]]))
        assert [trie.nodes[i] for i in got] == [trie.node_at((1, 6)), trie.node_at((2, 7))]


class TestPositionAwareLoss:
    def test_confident_correct_model_has_near_zero_loss(self):
        docids, trie, catalog, rows, model = handset_world(
            {"a": (5, 0), "b": (5, 1), "c": (6, 0)}, {"a": 0.3, "b": 0.5, "c": 0.7})
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        # bias logits: make the target token overwhelmingly likely per sample
        # all three rows share position-0 target distribution only when the
        # docids agree, so use a single-item world for full confidence
        docids, trie, catalog, rows, model = handset_world({"a": (5, 0)}, {"a": 0.3})
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        batch = model.prepare_rows(rows, docids)
        loss, acc = dec.position_aware_loss(batch, model, weights)
        assert float(loss.data) < 1e-9
        assert acc == {0: 1.0, 1: 1.0}

    def test_handset_logits_match_scalar_computation(self):
        # two-token docIDs: semantic rule at both positions (S=1)
        scores = {"a": 0.3, "b": 0.5, "c": 0.7}
        docids, trie, catalog, rows, model = handset_world(
            {"a": (5, 0), "b": (5, 1), "c": (6, 0)}, scores)
        model.head_b[0].data[:] = np.array([0.4, -0.2])          # vocab [5, 6]
        model.head_b[1].data[:] = np.array([-0.1, 0.3])          # vocab [0, 1]
        oracle = dec.RelevanceOracle([(5, 6, 0.1)])
        weights = dec.PositionWeightConfig(oracle, trie)
        batch = model.prepare_rows(rows, docids)
        loss, _ = dec.position_aware_loss(batch, model, weights)

        def softmax(v):
            e = np.exp(v - np.max(v))
            return e / e.sum()

        p0 = softmax([0.4, -0.2])
        p1 = softmax([-0.1, 0.3])
        vocab0, vocab1 = [5, 6], [0, 1]
        want = 0.0
        for item in sorted(docids):
            tokens = docids[item].tokens
            last = len(tokens) - 1
            # t = 0: children of root are {5, 6}; greedy pick is 5 (higher bias)
            y_hat0 = vocab0[int(np.argmax([0.4, -0.2]))]
            ce0 = -np.log(p0[vocab0.index(tokens[0])])
            w0 = 0.8 * dec.hierarchical_weight(0, last)
            if oracle.similarity(tokens[0], y_hat0) < 0.5:
                w0 += 0.1
            # t = 1: children of (tokens[0],) under the trie
            children = sorted(trie.node_at(tokens[:1]).children)
            best = children[int(np.argmax([[-0.1, 0.3][vocab1.index(v)] for v in children]))]
            ce1 = -np.log(p1[vocab1.index(tokens[1])])
            w1 = 0.8 * dec.hierarchical_weight(1, last)
            if oracle.similarity(tokens[1], best) < 0.5:
                w1 += 0.1
            want += w0 * ce0 + w1 * ce1
        want /= len(docids)
        assert float(loss.data) == pytest.approx(want, abs=1e-10)

    def test_efficiency_weight_on_third_position(self):
        scores = {"a": 0.2, "b": 0.9}
        docids, trie, catalog, rows, model = handset_world(
            {"a": (5, 0, 0), "b": (5, 0, 1)}, scores)
        model.head_b[2].data[:] = np.array([0.0, 1.0])  # prefer token 1 at t=2
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        batch = model.prepare_rows([rows[0]], docids)   # item a, target (5,0,0)
        loss, _ = dec.position_aware_loss(batch, model, weights)

        p = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
        last = 2
        # t=0 and t=1: correct greedy predictions, so only decay terms
        w0 = 0.8 * dec.hierarchical_weight(0, last)
        w1 = 0.8 * dec.hierarchical_weight(1, last)
        ce0 = -np.log(1.0)  # single-token vocabularies at t=0 and t=1
        ce1 = -np.log(1.0)
        # t=2: target 0, greedy 1, |E(0) - E(1)| = |0.2 - 0.9|
        w2 = 0.8 * dec.hierarchical_weight(2, last) + 0.1 * 0.7
        ce2 = -np.log(p[0])
        want = w0 * ce0 + w1 * ce1 + w2 * ce2
        assert float(loss.data) == pytest.approx(want, abs=1e-10)

    def test_rows_with_different_semantic_len(self):
        # a's category path is 1 token long, b's 2: at t=2 a takes the
        # efficiency divergence and b the semantic penalty
        scores = {"a": 0.2, "b": 0.4, "c": 0.9, "d": 0.6}
        docids, trie, catalog, rows, model = handset_world(
            {"a": (5, 0, 0), "b": (6, 9, 0, 0), "c": (5, 0, 1), "d": (6, 9, 1, 0)}, scores,
            semantic_len={"a": 1, "c": 1, "b": 2, "d": 2})
        b0, b1, b2 = [0.4, -0.2], [0.3, -0.1], [0.0, 1.0]     # vocab [5, 6], [0, 9], [0, 1]
        for t, bias in enumerate((b0, b1, b2)):
            model.head_b[t].data[:] = np.array(bias)
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        loss, _ = dec.position_aware_loss(model.prepare_rows(rows[:2], docids), model, weights)

        def ce(logits, i):
            return -np.log(np.exp(logits[i]) / np.exp(logits).sum())

        h = dec.hierarchical_weight
        # a = (5, 0, 0): greedy 5, 0, then 1 (wrong, t=2 > 1: efficiency |0.2 - 0.9|)
        want_a = (0.8 * h(0, 2) * ce(b0, 0) + 0.8 * h(1, 2) * ce(b1, 0)
                  + (0.8 * h(2, 2) + 0.1 * abs(0.2 - 0.9)) * ce(b2, 0))
        # b = (6, 9, 0, 0): greedy 5 (wrong, semantic), 9, then 1 (wrong, t=2 <= 2:
        # semantic); t=3 has a one-token vocabulary, so its CE is 0
        want_b = ((0.8 * h(0, 3) + 0.1) * ce(b0, 1) + 0.8 * h(1, 3) * ce(b1, 1)
                  + (0.8 * h(2, 3) + 0.1) * ce(b2, 0))
        assert float(loss.data) == pytest.approx((want_a + want_b) / 2, abs=1e-10)

    def test_plain_ce_mode_sums_unweighted(self):
        scores = {"a": 0.3, "b": 0.5, "c": 0.7}
        docids, trie, catalog, rows, model = handset_world(
            {"a": (5, 0), "b": (5, 1), "c": (6, 0)}, scores)
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie, position_aware=False)
        batch = model.prepare_rows(rows, docids)
        loss, _ = dec.position_aware_loss(batch, model, weights)
        want = 0.0
        for item in sorted(docids):
            b, _ = model.prepare_rows([rows[0]], docids), None
            tokens = docids[item].tokens
            for t in range(2):
                logits = model.head_b[t].data
                p = np.exp(logits - logits.max())
                p /= p.sum()
                want += -np.log(p[model.pos_vocab.values[t].index(tokens[t])])
        assert float(loss.data) == pytest.approx(want / 3.0, abs=1e-12)

    def test_uniform_ce_reduces_to_scaled_plain_ce(self):
        # when every position's CE is equal, the decay weights (which sum to
        # one) give exactly plain CE divided by the position count
        docids, trie, catalog, rows, model = handset_world({"a": (5, 0)}, {"a": 0.3})
        batch = model.prepare_rows(rows, docids)
        aware = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie,
                                         lambda_h=1.0, lambda_s=0.0, lambda_e=0.0)
        plain = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie, position_aware=False)
        l_aware, _ = dec.position_aware_loss(batch, model, aware)
        l_plain, _ = dec.position_aware_loss(batch, model, plain)
        # single-token vocabularies here: every CE is 0 -> both are zero
        assert float(l_plain.data) == pytest.approx(float(l_aware.data) * 1.0, abs=1e-12)
        # non-degenerate check with equal CE at each of the two positions
        docids2, trie2, _, rows2, model2 = handset_world(
            {"a": (5, 0), "b": (5, 1), "c": (6, 0), "d": (6, 1)},
            {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4})
        batch2 = model2.prepare_rows([rows2[0]], docids2)
        aware2 = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie2,
                                          lambda_h=1.0, lambda_s=0.0, lambda_e=0.0)
        plain2 = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie2, position_aware=False)
        la, _ = dec.position_aware_loss(batch2, model2, aware2)
        lp, _ = dec.position_aware_loss(batch2, model2, plain2)
        assert float(lp.data) == pytest.approx(2.0 * float(la.data), abs=1e-12)

    def test_target_outside_position_vocab_raises(self):
        docids, trie, catalog, rows, model = handset_world({"a": (5, 0)}, {"a": 0.3})
        batch = dec.DecoderBatch(np.zeros(1, dtype=np.intp),
                                 np.zeros((1, 4), dtype=np.intp),
                                 np.zeros((1, 4), dtype=np.intp), [di.DocId((7, 0), 1)])
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        with pytest.raises(DataError, match="vocabulary"):
            dec.position_aware_loss(batch, model, weights)

    def test_gradcheck(self):
        docids, _scores, trie, catalog, rows, model = decoder_world(
            1, n_items=8, n_cats=2, emb=2, d_model=3, hidden=(3,))
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        batch = model.prepare_rows(rows[:2], docids)

        def loss():
            return dec.position_aware_loss(batch, model, weights)[0]

        assert finite_diff_gradcheck(loss, model.params(), eps=1e-5) < 1e-4

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), n_items=st.integers(8, 60),
           path_len=st.sampled_from([1, 2, "mixed", "unequal"]), position_aware=st.booleans(),
           data=st.data())
    def test_equals_the_loop_loss_bit_for_bit(self, seed, n_items, path_len, position_aware,
                                              data):
        # random head biases make greedy picks go wrong, so every weight rule fires
        docids, _scores, trie, _catalog, rows, model = decoder_world(
            seed, n_items=n_items, n_cats=4, path_len=path_len)
        rng = np.random.default_rng(seed)
        scale = data.draw(st.sampled_from([0.5, 3.0]), label="bias scale")
        for b in model.head_b:
            b.data[:] = rng.normal(scale=scale, size=b.data.shape)
        tokens = st.sampled_from(sorted({tok for d in docids.values() for tok in d.tokens}))
        pairs = data.draw(st.lists(st.tuples(tokens, tokens, st.sampled_from([0.2, 0.6])),
                                   max_size=12), label="oracle pairs")
        weights = dec.PositionWeightConfig(dec.RelevanceOracle(pairs), trie,
                                           position_aware=position_aware)
        sel = rng.integers(len(rows), size=data.draw(st.integers(1, 32), label="rows"))
        batch = model.prepare_rows([rows[i] for i in sel], docids)
        params = model.params()

        def run(loss_fn):
            for p in params.values():
                p.grad = None
            loss, accuracy = loss_fn(batch, model, weights)
            loss.backward()
            grads = {name: None if p.grad is None else p.grad.tobytes()
                     for name, p in params.items()}
            return loss.data.tobytes(), accuracy, grads

        got, want = run(dec.position_aware_loss), run(position_aware_loss_loop)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]


class TestLossGraphSize:
    """The loss is one node: a call and its backward build the encoder's five table
    lookups, two lookups per depth and the loss node, whatever the batch size. The
    per-op graph built about twelve nodes per depth."""

    BASE, PER_DEPTH = 6, 2

    def test_tensor_count_is_independent_of_batch_size_and_bounded_per_depth(self,
                                                                              monkeypatch):
        docids, _scores, trie, _catalog, rows, model = decoder_world(
            4, n_items=60, n_cats=4, path_len="unequal")
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        by_depth: dict[int, list] = {}
        for row in rows:
            by_depth.setdefault(len(docids[row.target_item_id].tokens), []).append(row)
        built = [0]
        init = nn.Tensor.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(nn.Tensor, "__init__", counting)

        def tensors(batch_rows):
            built[0] = 0
            loss, _accuracy = dec.position_aware_loss(model.prepare_rows(batch_rows, docids),
                                                      model, weights)
            loss.backward()
            return built[0]

        assert len(by_depth) >= 2 and max(map(len, by_depth.values())) >= 8
        for depth, depth_rows in sorted(by_depth.items()):
            counts = {tensors(depth_rows[:n]) for n in (1, 2, len(depth_rows))}
            assert len(counts) == 1, f"depth {depth}: {counts}"
            assert counts.pop() <= self.BASE + self.PER_DEPTH * depth


class TestBeamSearch:
    def test_single_docid_always_returned(self):
        docids, _scores, trie, catalog, rows, model = decoder_world(3, n_items=25)
        single = {"only": di.DocId((3, 0), 1)}
        strie = di.build_trie(single, {"only": 0.5})
        # model vocab does not know token 3 at position 0 -> rebuild over it
        model2 = dec.DecoderModel(model.vocab, dec.PositionVocab(strie), model.config)
        got = dec.constrained_beam_search(rows[0], model2, strie, 4, 1)
        assert len(got) == 1
        assert got[0][0].tokens == (3, 0) and got[0][2] == "only"

    def test_supply_exhausted_returns_fewer(self):
        two = {"a": di.DocId((1, 0), 1), "b": di.DocId((2, 0), 1)}
        ttrie = di.build_trie(two, {"a": 0.1, "b": 0.2})
        rows = [DatasetRow("u0", "q", (), "a", 1, 1, 0.0)]
        cat = [Item("a", (1,), ("s",), (0.1,), 0.1), Item("b", (2,), ("s",), (0.1,), 0.1)]
        model = dec.DecoderModel(dec.Vocab.build(rows, cat), dec.PositionVocab(ttrie),
                                 dec.DecoderConfig(emb=2, d_model=3, hidden=()))
        got = dec.constrained_beam_search(rows[0], model, ttrie, 3, 3)
        assert len(got) == 2

    def test_wide_beam_matches_brute_force_exactly(self):
        for seed in range(6):
            docids, _scores, trie, catalog, rows, model = decoder_world(
                seed + 10, n_items=40, n_cats=3)
            want = dec.brute_force_scores(model, trie, rows[0])
            got = dec.constrained_beam_search(rows[0], model, trie,
                                              beam_width=len(docids), k=len(docids))
            assert [(g[0].tokens, g[2]) for g in got] == [(w[0], w[2]) for w in want]
            np.testing.assert_array_equal([g[1] for g in got], [w[1] for w in want])

    def test_output_always_within_trie(self):
        docids, _scores, trie, catalog, rows, model = decoder_world(21, n_items=60)
        valid = {d.tokens for d in docids.values()}
        for row in rows[:5]:
            for d, lp, item in dec.constrained_beam_search(row, model, trie, 4, 4):
                assert d.tokens in valid
                assert lp <= 0.0

    def test_parameter_validation(self):
        docids, _scores, trie, catalog, rows, model = decoder_world(2, n_items=10)
        with pytest.raises(ConfigError):
            dec.constrained_beam_search(rows[0], model, trie, 2, 3)
        with pytest.raises(IndexBuildError):
            dec.constrained_beam_search(rows[0], model, di.DocIdTrie(), 3, 1)

    @staticmethod
    def assert_equals_loop_beam(model, trie, rows, data):
        beam_width = data.draw(st.integers(1, trie.n_items), label="beam_width")
        k = data.draw(st.integers(1, beam_width), label="k")
        for row in rows[:3]:
            assert dec.constrained_beam_search(row, model, trie, beam_width, k) == \
                beam_search_loop(row, model, trie, beam_width, k)

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), n_items=st.integers(1, 80), data=st.data())
    def test_equals_the_loop_beam(self, seed, n_items, data):
        _docids, _scores, trie, _catalog, rows, model = decoder_world(seed, n_items=n_items)
        self.assert_equals_loop_beam(model, trie, rows, data)

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), n_items=st.integers(1, 80), data=st.data())
    def test_equals_the_loop_beam_when_every_child_ties(self, seed, n_items, data):
        # zero heads give every child at a depth the same logprob, so only the
        # lexicographic tie-break orders the beam
        _docids, _scores, trie, _catalog, rows, model = decoder_world(seed, n_items=n_items)
        for w, b in zip(model.head_w, model.head_b):
            w.data[:] = 0.0
            b.data[:] = 0.0
        self.assert_equals_loop_beam(model, trie, rows, data)

    @pytest.mark.parametrize("path_len", ["mixed", "unequal"])
    @pytest.mark.parametrize("beam_width,k", [(8, 3), (4, 4), (16, 1)])
    def test_the_bound_drops_rows_and_keeps_the_answer(self, monkeypatch, path_len, beam_width,
                                                       k):
        # docIDs of several lengths finish leaves before the last depth, so the
        # k-th finished leaf bounds the live hypotheses; the loop beam has no bound
        rows_used = []
        step_logits = dec.DecoderModel.step_logits

        def counting(self, ctx, heads, t):
            rows_used.append(len(heads))
            return step_logits(self, ctx, heads, t)

        monkeypatch.setattr(dec.DecoderModel, "step_logits", counting)
        fewer = 0
        for seed in range(2):
            _docids, _scores, trie, _catalog, rows, model = decoder_world(
                seed, n_items=60, n_cats=4, path_len=path_len)
            assert len({len(tokens) for tokens, _item, _score in trie.leaves}) > 1
            for row in rows[:6]:
                rows_used.clear()
                got = dec.constrained_beam_search(row, model, trie, beam_width, k)
                bounded = sum(rows_used)
                rows_used.clear()
                assert got == beam_search_loop(row, model, trie, beam_width, k)
                assert bounded <= sum(rows_used)
                fewer += bounded < sum(rows_used)
        assert fewer > 0

    def test_the_bound_keeps_ties(self):
        # zero heads: each depth-1 child scores -2 log 2, and the one-token
        # position 2 adds exactly 0, so (1, 0, 0) ties the leaf (2, 0) that
        # finished first and wins on token order
        docids = {"a": di.DocId((2, 0), 1), "b": di.DocId((1, 0, 0), 1),
                  "c": di.DocId((1, 1, 0), 1)}
        trie = di.build_trie(docids, dict.fromkeys(docids, 0.5))
        rows = [DatasetRow("u0", "q", (), "a", 1, 1, 0.0)]
        cat = [Item(i, (d.tokens[0],), ("s",), (0.1,), 0.1) for i, d in docids.items()]
        model = dec.DecoderModel(dec.Vocab.build(rows, cat), dec.PositionVocab(trie),
                                 dec.DecoderConfig(emb=2, d_model=3, hidden=()))
        for w, b in zip(model.head_w, model.head_b):
            w.data[:] = 0.0
            b.data[:] = 0.0
        got = dec.constrained_beam_search(rows[0], model, trie, 3, 1)
        assert got == beam_search_loop(rows[0], model, trie, 3, 1)
        assert got[0][2] == "b"

    def test_builds_no_graph_node(self, monkeypatch):
        _docids, _scores, trie, _catalog, rows, model = decoder_world(5, n_items=30)

        def refuse(*_args):
            raise AssertionError("a graph node was built")

        monkeypatch.setattr(nn, "_node", refuse)
        with pytest.raises(AssertionError, match="graph node"):
            model.encode(model.prepare_rows(rows[:1]))
        assert len(dec.constrained_beam_search(rows[0], model, trie, 4, 3)) == 3

    def test_decoding_and_training_leave_the_trie_unchanged(self):
        # stages may share one loaded index only if reading it (expansion too) writes nothing
        docids, _scores, trie, _catalog, rows, model = decoder_world(7, n_items=40)

        def snapshot():
            return ([a.tolist() for a in (trie.heads, trie.los, trie.first, trie.counts)],
                    trie.scores.tobytes(),
                    [[copy.copy(getattr(node, slot)) for slot in type(node).__slots__]
                     for node in trie.nodes],
                    list(trie.nodes), list(trie.leaves), [list(v) for v in trie.values],
                    dict(trie.item_of), list(trie.rank), list(trie.cluster_entries),
                    trie.n_items, trie.max_depth)

        before = snapshot()
        for row in rows:
            decoded = dec.constrained_beam_search(row, model, trie, 4, 3)
            assert ex.cluster_expand(decoded, trie, 2).recall_num >= len(decoded) > 0
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        dec.position_aware_loss(model.prepare_rows(rows[:16], docids), model, weights)
        assert snapshot() == before


class TestStepLogits:
    """The batched plain-numpy kernel against the autograd path run one row at
    a time: beam search scores a whole depth in one step_logits call, and c04
    compares it with brute_force_scores, which runs position_logits per row."""

    @staticmethod
    def prefixes_by_depth(trie):
        """The heads of every internal node's prefix, grouped by depth."""
        out: dict[int, list[tuple[int, ...]]] = {}
        stack = [(trie.root, ())]
        while stack:
            node, heads = stack.pop()
            if node.children:
                out.setdefault(len(heads), []).append(heads)
            stack.extend((child, heads + (child.head,)) for child in node.children.values())
        return out

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), hidden=st.sampled_from([(), (4,), (5, 3)]),
           b=st.integers(1, 48))
    def test_each_row_equals_autograd_on_that_row_alone(self, seed, hidden, b):
        _docids, _scores, trie, _catalog, _rows, model = decoder_world(
            seed, n_items=40, n_cats=3, hidden=hidden)
        rng = np.random.default_rng(seed)
        ctx = rng.normal(size=(b, model.config.d_model))
        for t, prefixes in sorted(self.prefixes_by_depth(trie).items()):
            heads = np.array([prefixes[i] for i in rng.integers(len(prefixes), size=b)],
                             dtype=np.intp).reshape(b, t)
            got = model.step_logits(ctx, heads, t)
            for i in range(b):
                want = model.position_logits(nn.Tensor(ctx[i:i + 1]), [tuple(heads[i])], t)
                assert np.array_equal(got[i], want.data[0]), (t, i)
        for net in (model.enc_net, model.step_net):
            x = rng.normal(size=(b, net[0][0].data.shape[0]))
            got = nn.infer(x, net, rowwise=True)
            for i in range(b):
                assert np.array_equal(got[i], nn.dense(x[i:i + 1], net).data[0])


class TestEncodeInfer:
    """The plain-numpy encode that beam search runs, against the autograd
    encode that training and brute_force_scores run, one row at a time."""

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), hidden=st.sampled_from([(), (4,), (5, 3)]),
           b=st.integers(1, 16))
    def test_each_row_equals_autograd_on_that_row_alone(self, seed, hidden, b):
        _docids, _scores, _trie, _catalog, _rows, model = decoder_world(
            seed, n_items=40, n_cats=3, hidden=hidden)
        rng = np.random.default_rng(seed)
        c = model.config
        idx = [rng.integers(table.data.shape[0], size=shape) for table, shape in (
            (model.user_table, b), (model.query_table, (b, c.query_len)),
            (model.context_table, (b, c.context_len)))]
        got = model.encode_infer(dec.DecoderBatch(*idx, []))
        assert got.shape == (b, c.d_model)
        for i in range(b):
            one = dec.DecoderBatch(*(a[i:i + 1] for a in idx), [])
            assert np.array_equal(got[i], model.encode(one).data[0]), i


class TestStackInputWidth:
    """Every dense stack checks its input where it runs, in `nn.infer`: the graph
    (`nn.dense`, `position_logits`) and the serving kernels alike."""

    def test_wrong_width_is_dimension_error(self):
        _docids, _scores, _trie, _catalog, _rows, model = decoder_world(3)
        c = model.config
        width = 2 * c.d_model      # the step network's input: context and prefix
        for x in (np.zeros((2, width + 1)), np.zeros(width), np.zeros((1, 2, width))):
            for rowwise in (False, True):
                with pytest.raises(DimensionError, match="incompatible"):
                    nn.infer(x, model.step_net, rowwise=rowwise)
            with pytest.raises(DimensionError, match="incompatible"):
                nn.dense(x, model.step_net)
        no_prefix = np.zeros((2, 0), dtype=np.intp)
        with pytest.raises(DimensionError, match="incompatible"):
            model.step_logits(np.zeros((2, c.d_model + 1)), no_prefix, 0)
        with pytest.raises(DimensionError, match="incompatible"):
            model.position_logits(nn.Tensor(np.zeros((2, c.d_model + 1))), list(no_prefix), 0)
        # a user table one column wider: the encoder's pooled input no longer fits enc_net
        model.user_table = nn.Table(np.random.default_rng(0), model.user_table.data.shape[0],
                                    c.emb + 1)
        batch = dec.DecoderBatch(np.zeros(2, np.intp), np.zeros((2, c.query_len), np.intp),
                                 np.zeros((2, c.context_len), np.intp), [])
        with pytest.raises(DimensionError, match="incompatible"):
            model.encode_infer(batch)


class TestTrainDecoder:
    def test_history_file_is_the_same_under_the_per_op_loss(self, tmp_path, monkeypatch):
        docids, _scores, trie, catalog, rows, _model = decoder_world(
            6, n_items=40, n_cats=4, path_len="unequal")
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([(101, 102, 0.6)]), trie)
        config = dec.DecoderConfig(emb=4, d_model=6, hidden=(8,), epochs=2, batch_size=8)

        def history_bytes(name):
            _model, history = dec.train_decoder(rows, catalog, docids, weights, config)
            write_jsonl(tmp_path / name, history)
            return (tmp_path / name).read_bytes()

        fused = history_bytes("fused.jsonl")
        monkeypatch.setattr(dec, "position_aware_loss", position_aware_loss_loop)
        assert history_bytes("per_op.jsonl") == fused
        assert len(fused.splitlines()) == 2

    def test_memorizes_twenty_pairs(self):
        docids, _scores, trie, catalog, rows, model = decoder_world(
            7, n_items=20, n_cats=4)
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        cfg = dec.DecoderConfig(emb=8, d_model=24, hidden=(32,), lr=0.02, batch_size=20,
                                epochs=150, seed=0)
        trained, history = dec.train_decoder(rows, catalog, docids, weights, cfg)
        hits = 0
        for row in rows:
            got = dec.constrained_beam_search(row, trained, trie, 3, 1)
            hits += got[0][2] == row.target_item_id
        assert hits == len(rows)
        assert "position_accuracy" in history[-1]

    def test_three_level_category_paths(self):
        # the semantic prefix is 3 tokens long, so node scores start at depth 4
        fusion, scores, paths = random_index_inputs(5, n_items=40, n_cats=4, path_len=1)
        paths = {item: (1, 3, path[0]) for item, path in paths.items()}
        docids = di.build_docids(fusion, scores, paths, max_len=8, k=3, cs=4)
        trie = di.build_trie(docids, scores)
        assert {d.semantic_len for d in docids.values()} == {3}
        catalog = [Item(i, paths[i], (f"s{i}",), (0.5,), scores[i]) for i in sorted(docids)]
        rows = [DatasetRow(f"u{j % 3}", f"q{i}", (), i, 1, 1, 600.0 * j)
                for j, i in enumerate(sorted(docids))]
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        cfg = dec.DecoderConfig(emb=3, d_model=4, hidden=(4,), lr=0.01, batch_size=8,
                                epochs=2, seed=0)
        _model, history = dec.train_decoder(rows, catalog, docids, weights, cfg)
        assert len(history) == 2 and np.isfinite(history[-1]["loss"])

    def test_seed_reproducibility(self):
        docids, _scores, trie, catalog, rows, model = decoder_world(4, n_items=12)
        weights = dec.PositionWeightConfig(dec.RelevanceOracle([]), trie)
        cfg = dec.DecoderConfig(emb=3, d_model=4, hidden=(4,), lr=0.01, batch_size=6,
                                epochs=3, seed=5)
        a, _ = dec.train_decoder(rows, catalog, docids, weights, cfg)
        b, _ = dec.train_decoder(rows, catalog, docids, weights, cfg)
        for ta, tb in zip(a.params().values(), b.params().values()):
            assert np.array_equal(ta.data, tb.data)

    def test_checkpoint_roundtrip(self, tmp_path):
        docids, _scores, trie, catalog, rows, model = decoder_world(4, n_items=12)
        path = tmp_path / "decoder.json"
        model.save(path)
        loaded = dec.DecoderModel.load(path)
        for (ka, ta), (kb, tb) in zip(model.params().items(), loaded.params().items()):
            assert ka == kb and np.array_equal(ta.data, tb.data)
        got = dec.constrained_beam_search(rows[0], loaded, trie, 3, 2)
        want = dec.constrained_beam_search(rows[0], model, trie, 3, 2)
        assert [(g[0].tokens, g[1]) for g in got] == [(w[0].tokens, w[1]) for w in want]
