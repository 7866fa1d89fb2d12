import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (auc_score, export_atomic_graph, finite_diff_gradcheck, ref_attention,
                     ref_cosine, ref_dense, sum_all)

from higen import nn
from higen import representation as rep
from higen.data import DatasetRow, Item
from higen.errors import DataError, NormalizationError, NumericError


def make_catalog(n=6, n_cats=2, eff_fn=None):
    items = []
    for i in range(n):
        cid = 101 + (i % n_cats)
        eff = eff_fn(i) if eff_fn else (0.1 * i, 1.0 - 0.05 * i)
        items.append(Item(f"it{i:02d}", (cid,), (f"c{cid}", f"w{i}"), eff, 0.1 + 0.8 * i / n))
    return items


def make_rows(items, n=8):
    rows = []
    for i in range(n):
        it = items[i % len(items)]
        rows.append(DatasetRow(f"u{i % 2}", f"c{it.category_path[-1]} w{i % len(items)}",
                               ((items[(i + 1) % len(items)].item_id, "click"),),
                               it.item_id, 1, i % 2, 60.0 * i))
    return rows


def tiny_config(**kw):
    base = dict(d_k=3, d_u=2, d_e=4, d_atomic=3, user_hidden=(), head_hidden=(),
                query_len=2, context_len=1, sem_len=2, epochs=1, batch_size=4,
                lr=0.01, seed=0)
    base.update(kw)
    return rep.TwoTowerConfig(**base)


def identity_net(net):
    for w, b, _act in net:
        w.data = np.eye(*w.data.shape)
        b.data = np.zeros_like(b.data)


class TestUserTower:
    def test_single_context_element_passes_through_attention(self):
        rng = np.random.default_rng(0)
        x_c = nn.Tensor(rng.normal(size=(3, 1, 4)))
        out = nn.attention_batched(x_c, x_c, x_c, 4)
        np.testing.assert_allclose(out.data, x_c.data)

    def test_zero_inputs_identity_mlp_gives_zero(self):
        cfg = tiny_config(d_u=2, d_k=3, d_e=8, query_len=1, context_len=1)
        items = make_catalog()
        model = rep.TwoTowerModel(rep.Vocab.build(make_rows(items), items), cfg)
        model.user_net = nn.dense_stack([8, 8], ["identity"], np.random.default_rng(0))
        identity_net(model.user_net)
        b = 2
        u = rep.user_tower(nn.Tensor(np.zeros((b, 2))), nn.Tensor(np.zeros((b, 1, 3))),
                           nn.Tensor(np.zeros((b, 1, 3))), model)
        np.testing.assert_allclose(u.data, np.zeros((b, 8)))

    def test_matches_scalar_loop_composition(self):
        cfg = tiny_config(query_len=2, context_len=3)
        items = make_catalog()
        rows = make_rows(items)
        model = rep.TwoTowerModel(rep.Vocab.build(rows, items), cfg)
        rng = np.random.default_rng(5)
        b = 3
        x_u = rng.normal(size=(b, cfg.d_u))
        x_q = rng.normal(size=(b, cfg.query_len, cfg.d_k))
        x_c = rng.normal(size=(b, cfg.context_len, cfg.d_k))
        got = rep.user_tower(nn.Tensor(x_u), nn.Tensor(x_q), nn.Tensor(x_c), model).data
        ws = [w.data for w, _bb, _act in model.user_net]
        bs = [bb.data for _w, bb, _act in model.user_net]
        for i in range(b):
            z_self = ref_attention(x_c[i], x_c[i], x_c[i], cfg.d_k).reshape(-1)
            z_query = ref_attention(x_q[i], x_c[i], x_c[i], cfg.d_k).reshape(-1)
            feats = np.concatenate([x_u[i], z_self, z_query])[None, :]
            want = ref_dense(feats, ws, bs, [act for *_wb, act in model.user_net])[0]
            np.testing.assert_allclose(got[i], want, atol=1e-10)


class TestItemHeads:
    def _identity_model(self):
        cfg = tiny_config(d_atomic=2, d_e=4)
        items = make_catalog()
        model = rep.TwoTowerModel(rep.Vocab.build(make_rows(items), items), cfg)
        rng = np.random.default_rng(0)
        model.rel_head = nn.dense_stack([4, 4], ["identity"], rng)
        model.click_head = nn.dense_stack([4, 4], ["identity"], rng)
        identity_net(model.rel_head)
        identity_net(model.click_head)
        return model

    def test_collinear_gives_sigmoid_inv_tau(self):
        model = self._identity_model()
        vec = np.array([[1.0, 2.0, 0.5, -1.0]])
        atomic = (nn.Tensor(vec[:, :2]), nn.Tensor(vec[:, 2:]), nn.Tensor(vec[:, :2]))
        y_r, _ = rep.item_heads(atomic, nn.Tensor(3.0 * vec), model)
        want = 1.0 / (1.0 + np.exp(-1.0 / model.config.tau))
        assert y_r.data[0] == pytest.approx(want, abs=1e-12)

    def test_orthogonal_gives_half(self):
        model = self._identity_model()
        atomic = (nn.Tensor([[1.0, 0.0]]), nn.Tensor([[0.0, 0.0]]), nn.Tensor([[1.0, 0.0]]))
        u = nn.Tensor([[0.0, 0.0, 1.0, 0.0]])
        y_r, y_c = rep.item_heads(atomic, u, model)
        assert y_r.data[0] == pytest.approx(0.5, abs=1e-12)
        assert y_c.data[0] == pytest.approx(0.5, abs=1e-12)

    def test_random_batch_matches_scalar_oracle(self):
        cfg = tiny_config()
        items = make_catalog()
        model = rep.TwoTowerModel(rep.Vocab.build(make_rows(items), items), cfg)
        rng = np.random.default_rng(9)
        b = 4
        x_is, x_ic, x_ie = (rng.normal(size=(b, cfg.d_atomic)) for _ in range(3))
        u = rng.normal(size=(b, cfg.d_e))
        y_r, y_c = rep.item_heads((nn.Tensor(x_is), nn.Tensor(x_ic), nn.Tensor(x_ie)),
                                  nn.Tensor(u), model)
        for i in range(b):
            rv = ref_dense(np.concatenate([x_is[i], x_ic[i]])[None, :],
                           [w.data for w, _bb, _act in model.rel_head],
                           [bb.data for _w, bb, _act in model.rel_head],
                           [act for *_wb, act in model.rel_head])[0]
            cos = ref_cosine(u[i], rv)
            assert -1.0 <= cos <= 1.0
            want = 1.0 / (1.0 + np.exp(-cos / cfg.tau))
            assert y_r.data[i] == pytest.approx(want, abs=1e-10)
        assert np.all((y_c.data > 0) & (y_c.data < 1))

    def test_zero_norm_names_tower(self):
        model = self._identity_model()
        atomic = (nn.Tensor([[1.0, 0.0]]), nn.Tensor([[0.0, 1.0]]), nn.Tensor([[1.0, 0.0]]))
        with pytest.raises(NormalizationError, match="user tower"):
            rep.item_heads(atomic, nn.Tensor([[0.0, 0.0, 0.0, 0.0]]), model)

    def test_normalized_rows_have_unit_norm(self):
        rng = np.random.default_rng(3)
        x = nn.Tensor(rng.normal(size=(5, 4)))
        norms = np.linalg.norm(nn.l2_normalize_rows(x).data, axis=1)
        np.testing.assert_allclose(norms, np.ones(5), atol=1e-9)


class TestEmbedLoss:
    def test_perfect_predictions_vanish(self):
        ones = nn.Tensor(np.ones(3))
        labels = np.ones(3)
        loss = rep.embed_loss(ones, ones, labels, labels, 1.0)
        assert loss.data < 1e-6

    def test_half_predictions_closed_form(self):
        half = nn.Tensor(np.full(4, 0.5))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        loss = rep.embed_loss(half, half, y, y, 1.0)
        assert float(loss.data) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_zero_click_weight_reduces_to_relevance(self):
        rng = np.random.default_rng(1)
        p_r = nn.Tensor(rng.uniform(0.1, 0.9, size=5))
        p_c = nn.Tensor(rng.uniform(0.1, 0.9, size=5))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        loss = rep.embed_loss(p_r, p_c, y, y, 0.0)
        only_rel = nn.bce_mean(nn.Tensor(p_r.data), y)
        assert float(loss.data) == pytest.approx(float(only_rel.data), abs=1e-15)

    def test_batch_permutation_invariance(self):
        cfg = tiny_config()
        items = make_catalog()
        rows = make_rows(items)
        model = rep.TwoTowerModel(rep.Vocab.build(rows, items), cfg)
        by_id = {it.item_id: it for it in items}
        batch = rep.encode_rows(rows, by_id, model.vocab, cfg)
        perm = np.random.default_rng(0).permutation(batch.size)
        for b in (batch, batch.take(perm)):
            y_r, y_c = model.forward(b)
            loss = rep.embed_loss(y_r, y_c, b.y_r, b.y_c, 1.0)
            if "first" not in dir():
                first = float(loss.data)
        assert float(loss.data) == pytest.approx(first, abs=1e-12)


class TestGradients:
    def test_full_loss_gradcheck(self):
        cfg = tiny_config()
        items = make_catalog(4)
        rows = make_rows(items, 4)
        model = rep.TwoTowerModel(rep.Vocab.build(rows, items), cfg)
        by_id = {it.item_id: it for it in items}
        batch = rep.encode_rows(rows, by_id, model.vocab, cfg)

        def loss():
            y_r, y_c = model.forward(batch)
            return rep.embed_loss(y_r, y_c, batch.y_r, batch.y_c, cfg.w_c)

        assert finite_diff_gradcheck(loss, model.params(), eps=1e-5) < 1e-4

    def test_common_embedding_feeds_both_heads(self):
        cfg = tiny_config()
        items = make_catalog(4)
        rows = make_rows(items, 4)
        model = rep.TwoTowerModel(rep.Vocab.build(rows, items), cfg)
        by_id = {it.item_id: it for it in items}
        batch = rep.encode_rows(rows, by_id, model.vocab, cfg)
        for head in (0, 1):
            for p in model.params().values():
                p.grad = None
            out = model.forward(batch)[head]
            sum_all(out).backward()
            assert np.any(model.item_table.grad != 0.0), f"head {head} ignores x_ic"


class TestTraining:
    def test_one_sample_memorization(self):
        items = make_catalog(3)
        rows = [DatasetRow("u0", "c101 w0", (), items[0].item_id, 1, 1, 0.0)]
        cfg = tiny_config(d_atomic=4, d_e=4, tau=0.1, lr=0.05, epochs=250, batch_size=1)
        model = rep.train_embedding(rows, items, cfg)
        by_id = {it.item_id: it for it in items}
        batch = rep.encode_rows(rows, by_id, model.vocab, cfg)
        y_r, y_c = model.forward(batch)
        loss = rep.embed_loss(y_r, y_c, batch.y_r, batch.y_c, cfg.w_c)
        assert float(loss.data) < 0.01

    def test_linear_click_rule_auc(self):
        # clicks follow the sign of one efficiency feature: learnable via x_ie
        items = make_catalog(30, eff_fn=lambda i: (1.0 if i < 15 else -1.0, 0.5))
        rows = []
        for i, it in enumerate(items):
            rows.append(DatasetRow("u0", f"w{i}", (), it.item_id, 1, 1 if i < 15 else 0,
                                   600.0 * i))
        cfg = tiny_config(d_atomic=4, d_e=4, lr=0.03, epochs=120, batch_size=10, seed=1)
        model = rep.train_embedding(rows, items, cfg)
        by_id = {it.item_id: it for it in items}
        batch = rep.encode_rows(rows, by_id, model.vocab, cfg)
        _, y_c = model.forward(batch)
        assert auc_score(batch.y_c.tolist(), y_c.data.tolist()) > 0.95

    def test_seed_reproducibility(self):
        items = make_catalog()
        rows = make_rows(items)
        cfg = tiny_config(epochs=3, lr=0.02)
        a = rep.train_embedding(rows, items, cfg)
        b = rep.train_embedding(rows, items, cfg)
        for (ka, ta), (kb, tb) in zip(a.params().items(), b.params().items()):
            assert ka == kb and np.array_equal(ta.data, tb.data)

    def test_rows_no_batch_reaches_keep_their_initial_bits(self):
        # Adam skips table rows no gradient has reached; that must equal the dense update
        items = make_catalog(10)
        rows = make_rows(items, 4)           # targets it00..it03 only
        cfg = tiny_config(epochs=3, lr=0.02)
        model = rep.train_embedding(rows, items, cfg)
        fresh = rep.TwoTowerModel(model.vocab, cfg)
        targets = {r.target_item_id for r in rows}
        for item_id, i in model.vocab.items.items():
            same = model.item_table.data[i].tobytes() == fresh.item_table.data[i].tobytes()
            assert same == (item_id not in targets), item_id

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts(self):
        items = make_catalog(4, eff_fn=lambda i: (float("inf") if i == 0 else 1.0, 0.0))
        rows = make_rows(items, 4)
        with pytest.raises(NumericError, match="last good"):
            rep.train_embedding(rows, items, tiny_config(epochs=2))


class TestExport:
    def test_export_is_deterministic_and_complete(self):
        items = make_catalog(5)
        rows = make_rows(items)
        model = rep.train_embedding(rows, items, tiny_config(epochs=1))
        t1 = rep.export_atomic_embeddings(model, items)
        t2 = rep.export_atomic_embeddings(model, items)
        assert len(t1) == len(items)
        for item_id in t1:
            assert np.array_equal(t1[item_id].semantic, t2[item_id].semantic)
            assert np.array_equal(t1[item_id].common, t2[item_id].common)
            assert np.array_equal(t1[item_id].efficient, t2[item_id].efficient)

    def test_export_matches_in_model_forward(self):
        items = make_catalog(5, eff_fn=lambda i: (3.0 + 2.0 * i, -1.0 + 0.5 * i * i))
        rows = make_rows(items)
        cfg = tiny_config(epochs=1)
        model = rep.train_embedding(rows, items, cfg)
        assert np.all(np.abs(model.eff_mean) > 0.5) and np.all(np.abs(model.eff_std - 1) > 0.5)
        table = rep.export_atomic_embeddings(model, items)
        by_id = {it.item_id: it for it in items}
        probe = rows[2]
        batch = rep.encode_rows([probe], by_id, model.vocab, cfg)
        x_is, x_ic, x_ie = model.atomic(batch.sem_idx, batch.sem_mask, batch.item_idx, batch.eff)
        np.testing.assert_array_equal(table[probe.target_item_id].common, x_ic.data[0])
        np.testing.assert_array_equal(table[probe.target_item_id].semantic, x_is.data[0])
        # the efficient vector sees the features standardized by the model's statistics
        np.testing.assert_array_equal(table[probe.target_item_id].efficient, x_ie.data[0])
        z = (np.array(by_id[probe.target_item_id].efficiency) - model.eff_mean) / model.eff_std
        want = z @ model.eff_net[0][0].data + model.eff_net[0][1].data
        np.testing.assert_allclose(x_ie.data[0], want, rtol=0, atol=1e-12)

    def test_unknown_item_raises(self):
        items = make_catalog(4)
        model = rep.train_embedding(make_rows(items), items, tiny_config(epochs=1))
        ghost = Item("ghost", (101,), ("c101",), (0.0, 0.0), 0.5)
        with pytest.raises(DataError, match="ghost"):
            rep.export_atomic_embeddings(model, items + [ghost])

    def test_jsonl_roundtrip(self, tmp_path):
        items = make_catalog(4)
        model = rep.train_embedding(make_rows(items), items, tiny_config(epochs=1))
        table = rep.export_atomic_embeddings(model, items)
        path = tmp_path / "atomic.jsonl"
        rep.write_atomic_jsonl(path, table)
        loaded = rep.read_atomic_jsonl(path)
        assert set(loaded) == set(table)
        for k in table:
            assert np.array_equal(loaded[k].efficient, table[k].efficient)


def export_world(n, seed):
    """(model, items): a default-width model over n items of 0 to 6 semantic tokens,
    some of them ("x") unknown to the vocabulary, and efficiency statistics that
    move every feature."""
    rng = np.random.default_rng(seed)
    items = [Item(f"it{i:05d}", (101 + i % 3,),
                  tuple(f"{'x' if t % 5 == 0 else 'w'}{t}"
                        for t in rng.integers(0, 60, rng.integers(0, 7))),
                  tuple(rng.normal(size=2)), 0.5) for i in range(n)]
    known = [dataclasses.replace(it, semantic_tokens=tuple(
        t for t in it.semantic_tokens if t[0] == "w")) for it in items]
    rows = [DatasetRow("u0", "q", (), items[0].item_id, 1, 1, 0.0)]
    model = rep.TwoTowerModel(rep.Vocab.build(rows, known), rep.TwoTowerConfig(seed=seed))
    model.eff_mean = rng.normal(size=2)
    model.eff_std = rng.uniform(0.5, 2.0, size=2)
    return model, items


def bits(vectors):
    return [(v.dtype.str, v.shape, v.tobytes()) for v in vectors]


class TestGraphFreeExport:
    """export_atomic_embeddings gives the graph's bits (tests/oracles.py), on both
    sides of every block edge."""

    @pytest.mark.parametrize("n", [1, rep.EXPORT_BLOCK - 1, rep.EXPORT_BLOCK,
                                   rep.EXPORT_BLOCK + 1, 3 * rep.EXPORT_BLOCK + 7])
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_equals_the_graph_export_bit_for_bit(self, n, seed):
        model, items = export_world(n, seed)
        got = rep.export_atomic_embeddings(model, items)
        want = export_atomic_graph(model, items)
        assert list(got) == list(want)
        for item_id, a in want.items():
            b = got[item_id]
            assert bits([b.semantic, b.common, b.efficient]) == \
                bits([a.semantic, a.common, a.efficient])

    def test_no_items_export_to_nothing(self):
        model, _items = export_world(3, 0)
        assert rep.export_atomic_embeddings(model, []) == {}

    def test_works_in_less_than_one_gathered_token_array(self):
        # The graph holds the (n, sem_len, d_atomic) gathered token vectors, their
        # weighted copy and every other node until it returns; the export holds
        # EXPORT_BLOCK rows of each. The table it returns (kept - start, about
        # 1.2 KB an item) outweighs one such array by itself, so the bound is on
        # the working memory above it.
        model, items = export_world(3000, 1)
        cfg = model.config
        assert (cfg.sem_len, cfg.d_atomic) == (4, 32)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = rep.export_atomic_embeddings(model, items)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 3000 and kept > start
        assert peak - kept < 3000 * cfg.sem_len * cfg.d_atomic * 8


class TestCheckpoint:
    def test_model_save_load_roundtrip(self, tmp_path):
        items = make_catalog(4)
        model = rep.train_embedding(make_rows(items), items, tiny_config(epochs=2))
        path = tmp_path / "embed.ckpt.json"
        model.save(path)
        loaded = rep.TwoTowerModel.load(path)
        for (ka, ta), (kb, tb) in zip(model.params().items(), loaded.params().items()):
            assert ka == kb and np.array_equal(ta.data, tb.data)
        assert loaded.vocab.items == model.vocab.items
