import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (class_distance_gap, finite_diff_gradcheck, fuse, fuse_table_graph, ref_dense,
                     triplet_loss)

from higen import fusion, nn
from higen.data import PageView
from higen.errors import ConfigError
from higen.representation import EXPORT_BLOCK, AtomicEmbeddings


def atomic(vec3):
    s, c, e = vec3
    return AtomicEmbeddings(np.asarray(s, dtype=float), np.asarray(c, dtype=float),
                            np.asarray(e, dtype=float))


def pv(pv_id, labels):
    return PageView(pv_id, tuple((f"{pv_id}-i{j}", y) for j, y in enumerate(labels)))


class TestFuse:
    def test_identity_layer_returns_concat(self):
        cfg = fusion.MetricConfig(d_out=6, hidden=())
        model = fusion.FusionModel(2, cfg)
        model.net[0][0].data = np.eye(6)
        model.net[0][1].data = np.zeros(6)
        a = atomic(([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]))
        # fusion input order is (common, efficient, semantic)
        np.testing.assert_allclose(fuse(a, model), [3.0, 4.0, 5.0, 6.0, 1.0, 2.0])

    def test_identical_atomics_identical_fusion(self):
        model = fusion.FusionModel(2, fusion.MetricConfig(d_out=4, hidden=(5,)))
        a = atomic(([0.1, 0.2], [0.3, 0.4], [0.5, 0.6]))
        b = atomic(([0.1, 0.2], [0.3, 0.4], [0.5, 0.6]))
        np.testing.assert_array_equal(fuse(a, model), fuse(b, model))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        model = fusion.FusionModel(3, fusion.MetricConfig(d_out=4, hidden=(5,), seed=3))
        a = atomic((rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)))
        want = ref_dense(fusion.atomic_concat(a)[None, :],
                         [w.data for w, _b, _act in model.net],
                         [b.data for _w, b, _act in model.net],
                         [act for *_wb, act in model.net])[0]
        np.testing.assert_allclose(fuse(a, model), want, atol=1e-10)


class TestFuseTable:
    """fuse_table gives the graph's bits (tests/oracles.py) at the export's block sizes."""

    @pytest.mark.parametrize("n", [1, EXPORT_BLOCK - 1, EXPORT_BLOCK, EXPORT_BLOCK + 1,
                                   3 * EXPORT_BLOCK + 7])
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_equals_the_graph_fuse_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(seed)
        table = {f"it{i:05d}": atomic(rng.normal(size=(3, 32))) for i in rng.permutation(n)}
        model = fusion.FusionModel(32, fusion.MetricConfig(seed=seed))
        got = fusion.fuse_table(table, model)
        want = fuse_table_graph(table, model)
        assert list(got) == list(want)
        assert [(v.dtype.str, v.shape, v.tobytes()) for v in got.values()] == \
            [(v.dtype.str, v.shape, v.tobytes()) for v in want.values()]

    def test_empty_table_fuses_to_nothing(self):
        assert fusion.fuse_table({}, fusion.FusionModel(2, fusion.MetricConfig())) == {}


class TestMineTriplets:
    def test_single_label_class_yields_nothing(self):
        assert fusion.mine_triplets([pv("a", [1, 1, 1])]) == []

    def test_two_items_opposite_labels_yield_nothing(self):
        # anchors need a distinct positive, so a [1, 0] PV is sterile
        assert fusion.mine_triplets([pv("a", [1, 0])]) == []

    def test_two_pos_one_neg_yields_two(self):
        got = fusion.mine_triplets([pv("a", [1, 1, 0])])
        assert len(got) == 2
        anchors = {t.anchor for t in got}
        assert anchors == {"a-i0", "a-i1"}
        for t in got:
            assert t.negative == "a-i2" and t.positive != t.anchor

    def test_cap_limits_per_pv(self):
        got = fusion.mine_triplets([pv("a", [1, 1, 1, 0, 0, 0])], cap_per_pv=5, seed=1)
        assert len(got) == 5

    def test_cap_sampling_is_seeded(self):
        a = fusion.mine_triplets([pv("a", [1, 1, 1, 0, 0, 0])], cap_per_pv=4, seed=9)
        b = fusion.mine_triplets([pv("a", [1, 1, 1, 0, 0, 0])], cap_per_pv=4, seed=9)
        assert a == b

    @given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=6), min_size=1, max_size=5),
           st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_label_constraints_always_hold(self, label_lists, seed):
        pvs = [pv(f"p{i}", labels) for i, labels in enumerate(label_lists)]
        label_of = {item: y for view in pvs for item, y in view.entries}
        pv_of = {item: view.pv_id for view in pvs for item, _ in view.entries}
        for t in fusion.mine_triplets(pvs, cap_per_pv=10, seed=seed):
            assert label_of[t.anchor] == label_of[t.positive] != label_of[t.negative]
            assert pv_of[t.anchor] == pv_of[t.positive] == pv_of[t.negative] == t.pv_id
            assert t.anchor != t.positive


class TestTripletLoss:
    def test_margin_satisfied_is_zero(self):
        a, p, n = [0.0, 0.0], [0.2, 0.0], [0.5, 0.0]
        assert triplet_loss(a, p, n, 0.1) == 0.0

    def test_margin_violated_closed_form(self):
        a, p, n = [0.0, 0.0], [0.5, 0.0], [0.2, 0.0]
        assert triplet_loss(a, p, n, 0.1) == pytest.approx(0.4, abs=1e-12)

    def test_degenerate_anchor_equals_positive(self):
        a = [1.0, 1.0]
        n = [1.0, 0.7]
        assert triplet_loss(a, a, n, 0.1) == pytest.approx(max(0.0, 0.1 - 0.3), abs=1e-12)
        n_far = [9.0, 9.0]
        assert triplet_loss(a, a, n_far, 0.1) == 0.0

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=4),
           st.lists(st.floats(-2, 2), min_size=2, max_size=4),
           st.lists(st.floats(-2, 2), min_size=2, max_size=4),
           st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_zero_beyond_margin(self, a, p, n, m):
        k = min(len(a), len(p), len(n))
        a, p, n = a[:k], p[:k], n[:k]
        loss = triplet_loss(a, p, n, m)
        assert loss >= 0.0
        d_ap = np.linalg.norm(np.subtract(a, p))
        d_an = np.linalg.norm(np.subtract(a, n))
        if d_an >= d_ap + m:
            assert loss == 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        a, p, n = (rng.normal(size=(5, 3)) for _ in range(3))
        got = fusion.triplet_loss_batch(nn.Tensor(a), nn.Tensor(p), nn.Tensor(n), 0.3)
        want = np.mean([triplet_loss(a[i], p[i], n[i], 0.3) for i in range(5)])
        assert float(got.data) == pytest.approx(want, abs=1e-9)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        model = fusion.FusionModel(2, fusion.MetricConfig(d_out=3, hidden=(4,), seed=5))
        xa, xp, xn = (rng.normal(size=(3, 6)) for _ in range(3))

        def loss():
            return fusion.triplet_loss_batch(nn.dense(xa, model.net), nn.dense(xp, model.net),
                                             nn.dense(xn, model.net), 0.5)

        assert finite_diff_gradcheck(loss, model.params(), eps=1e-5) < 1e-4


from helpers import clustered_world  # noqa: E402  (shared latent-cluster builder)


class TestTrainMetric:
    def test_no_triplets_is_config_error(self):
        table, _, _ = clustered_world()
        with pytest.raises(ConfigError, match="triplet"):
            fusion.train_metric(table, [pv("a", [1, 1])], fusion.MetricConfig(epochs=1))

    def test_training_separates_latent_clusters(self):
        table, labels, pvs = clustered_world()
        cfg = fusion.MetricConfig(d_out=8, hidden=(16,), lr=5e-3, epochs=12,
                                  margin=0.5, seed=2)
        before = class_distance_gap(
            fusion.fuse_table(table, fusion.FusionModel(4, cfg)), labels)
        model = fusion.train_metric(table, pvs, cfg)
        after = class_distance_gap(fusion.fuse_table(table, model), labels)
        assert after < before
        assert after < 0.0  # intra-class closer than inter-class

    def test_zero_margin_loss_reaches_zero(self):
        table, _, pvs = clustered_world()
        cfg = fusion.MetricConfig(d_out=8, hidden=(16,), lr=5e-3, epochs=15, margin=1e-9,
                                  seed=2)
        model = fusion.train_metric(table, pvs, cfg)
        triplets = fusion.mine_triplets(pvs, cfg.cap_per_pv, cfg.seed)
        fused = fusion.fuse_table(table, model)
        losses = [triplet_loss(fused[t.anchor], fused[t.positive], fused[t.negative],
                                      cfg.margin) for t in triplets]
        assert min(losses) == 0.0

    def test_seed_reproducibility(self):
        table, _, pvs = clustered_world()
        cfg = fusion.MetricConfig(d_out=4, hidden=(8,), lr=1e-3, epochs=2, seed=7)
        a = fusion.train_metric(table, pvs, cfg)
        b = fusion.train_metric(table, pvs, cfg)
        for ta, tb in zip(a.params().values(), b.params().values()):
            assert np.array_equal(ta.data, tb.data)

    def test_export_roundtrip(self, tmp_path):
        table, _, pvs = clustered_world()
        model = fusion.train_metric(table, pvs, fusion.MetricConfig(d_out=4, epochs=1))
        fused = fusion.fuse_table(table, model)
        path = tmp_path / "fusion.jsonl"
        fusion.write_fusion_jsonl(path, fused)
        loaded = fusion.read_fusion_jsonl(path)
        assert set(loaded) == set(fused)
        for k in fused:
            assert np.array_equal(loaded[k], fused[k])
