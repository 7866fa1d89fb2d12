import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_attention, ref_dense

from higen import nn
from higen.errors import CheckpointError, DimensionError, NumericError


class TestAttention:
    def test_single_key_passthrough(self):
        out = nn.attention([[1.0, 0.0]], [[1.0, 0.0]], [[3.0, 7.0]], 2)
        np.testing.assert_allclose(out, [[3.0, 7.0]])

    def test_equal_logits_average(self):
        out = nn.attention([[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]],
                           [[2.0, 0.0], [0.0, 2.0]], 2)
        np.testing.assert_allclose(out, [[1.0, 1.0]])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        q, k = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 5))
        np.testing.assert_allclose(nn.attention(q, k, v, 4), ref_attention(q, k, v, 4),
                                   atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nn.attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)), 4)
        with pytest.raises(DimensionError):
            nn.attention(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((3, 4)), 4)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_softmax_weights_sum_to_one(self, n_q, n_k, seed):
        rng = np.random.default_rng(seed)
        q, k = rng.normal(size=(n_q, 3)), rng.normal(size=(n_k, 3))
        weights = nn.softmax_rows(q @ k.T / np.sqrt(3.0))
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(n_q), atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        q, k, v = rng.normal(size=(2, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        a = nn.attention(q, k, v, 3)
        b = nn.attention(q, k, v, 3)
        assert np.array_equal(a, b)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 2, 3))
        k = rng.normal(size=(4, 5, 3))
        v = rng.normal(size=(4, 5, 2))
        out = nn.attention_batched(nn.Tensor(q), nn.Tensor(k), nn.Tensor(v), 3).data
        for b in range(4):
            np.testing.assert_allclose(out[b], nn.attention(q[b], k[b], v[b], 3), atol=1e-12)


class TestDenseNet:
    def test_identity_layer_is_identity(self):
        rng = np.random.default_rng(0)
        net = nn.DenseNet([3, 3], ["identity"], rng)
        net.weights[0].data = np.eye(3)
        net.biases[0].data = np.zeros(3)
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(net.forward(x).data, x)

    def test_relu_clamps(self):
        rng = np.random.default_rng(0)
        net = nn.DenseNet([1, 1], ["relu"], rng)
        net.weights[0].data = np.array([[-1.0]])
        net.biases[0].data = np.array([0.0])
        np.testing.assert_allclose(net.forward([[2.0]]).data, [[0.0]])

    def test_two_layer_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        net = nn.DenseNet([4, 5, 2], ["relu", "identity"], rng)
        x = rng.normal(size=(3, 4))
        want = ref_dense(x, [w.data for w in net.weights], [b.data for b in net.biases],
                         net.activations)
        np.testing.assert_allclose(net.forward(x).data, want, atol=1e-10)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        net = nn.DenseNet([4, 2], ["identity"], rng)
        with pytest.raises(DimensionError):
            net.forward(np.zeros((1, 3)))

    def test_deterministic_forward(self):
        rng = np.random.default_rng(0)
        net = nn.DenseNet([4, 4, 2], ["tanh", "identity"], rng)
        x = np.random.default_rng(5).normal(size=(2, 4))
        assert np.array_equal(net.forward(x).data, net.forward(x).data)


class TestBinaryCrossEntropy:
    def test_half_prediction(self):
        assert nn.binary_cross_entropy(0.5, 1) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        assert nn.binary_cross_entropy(1.0 - 1e-9, 1) < 1e-6

    def test_confident_wrong_high_precision(self):
        import mpmath
        want = float(-mpmath.log(mpmath.mpf(1) / 10))
        assert nn.binary_cross_entropy(0.9, 0) == pytest.approx(want, abs=1e-12)

    def test_clamp_keeps_finite(self):
        assert np.isfinite(nn.binary_cross_entropy(0.0, 1))
        assert np.isfinite(nn.binary_cross_entropy(1.0, 0))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = nn.Tensor([1.0, -2.0], requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.1)
        opt.step({"p": np.zeros(2)})
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2 at t=1, so the step is lr * g / (|g| + eps)
        p = nn.Tensor([0.0], requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.1)
        opt.step({"p": np.array([1.0])})
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_symmetry(self):
        p = nn.Tensor([3.0, 3.0], requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.05)
        for _ in range(7):
            opt.step({"p": np.array([0.7, 0.7])})
        assert p.data[0] == p.data[1]

    def test_nonfinite_gradient_names_parameter(self):
        p = nn.Tensor([0.0], requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.1)
        with pytest.raises(NumericError, match="'p'"):
            opt.step({"p": np.array([np.nan])})


class TestFit:
    @staticmethod
    def _toy(nan_at_call=None):
        """Mean squared distance of one row vector to a batch of targets."""
        p = nn.Tensor([[1.0, -2.0, 0.5]], requires_grad=True)
        targets = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.0], [1.0, 1.0, 1.0],
                            [-2.0, 0.0, 4.0]])
        calls = []

        def batch_loss(sel):
            calls.append(len(sel))
            diff = nn.sub(nn.gather(p, np.zeros(len(sel), dtype=np.intp)), targets[sel])
            loss = nn.mean_all(nn.mul(diff, diff))
            if len(calls) == nan_at_call:
                loss = nn.scale(loss, float("nan"))
            return loss, {"size": {"rows": float(len(sel))}}

        return {"p": p}, batch_loss

    def test_history_holds_epoch_means(self):
        params, batch_loss = self._toy()
        history = nn.fit(params, 4, batch_loss, lr=0.1, epochs=3, batch_size=3, seed=0,
                         stage="toy")
        assert [r["epoch"] for r in history] == [0, 1, 2]
        assert all(r["size"] == {"rows": 2.0} for r in history)  # batches of 3 and 1
        assert all(np.isfinite(r["loss"]) for r in history)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_restores_last_finished_epoch(self):
        # two batches per epoch; the 6th call is the second batch of epoch 2,
        # so one step of that epoch has already moved the parameters
        want, batch_loss = self._toy()
        nn.fit(want, 4, batch_loss, lr=0.1, epochs=2, batch_size=2, seed=0, stage="toy")
        params, batch_loss = self._toy(nan_at_call=6)
        with pytest.raises(NumericError, match="non-finite toy loss at epoch 2"):
            nn.fit(params, 4, batch_loss, lr=0.1, epochs=5, batch_size=2, seed=0, stage="toy")
        assert np.array_equal(params["p"].data, want["p"].data)

    def test_loss_trend_warns_only_on_rise(self, caplog):
        with caplog.at_level(logging.WARNING, logger="higen.nn"):
            assert nn.check_loss_trend([1.0 - 0.1 * i for i in range(10)], 5, "falling")
        assert not caplog.records
        with caplog.at_level(logging.WARNING, logger="higen.nn"):
            assert not nn.check_loss_trend([0.1 * i for i in range(10)], 5, "rising")
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "rising" in caplog.records[0].getMessage()


class TestGradcheck:
    def test_quadratic(self):
        theta = nn.Tensor([3.0], requires_grad=True)

        def loss():
            return nn.scale(nn.sum_all(nn.mul(theta, theta)), 0.5)

        err = nn.finite_diff_gradcheck(loss, {"theta": theta}, eps=1e-5)
        assert err < 1e-9

    def test_dense_attention_composite(self):
        rng = np.random.default_rng(2)
        net = nn.DenseNet([6, 4, 1], ["tanh", "identity"], rng)
        q = nn.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        k = nn.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        v = nn.Tensor(rng.normal(size=(3, 6)), requires_grad=True)

        def loss():
            z = nn.attention(q, k, v, 3)
            return nn.mean_all(net.forward(z))

        params = {"q": q, "k": k, "v": v, **net.params()}
        assert nn.finite_diff_gradcheck(loss, params, eps=1e-5) < 1e-6

    def test_gather_and_normalize(self):
        rng = np.random.default_rng(4)
        table = nn.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])

        c = rng.normal(size=(4, 3))

        def loss():
            x = nn.gather(table, idx)
            y = nn.l2_normalize_rows(x)
            return nn.mean_all(nn.mul(nn.mul_const(y, c), nn.mul_const(y, c)))

        assert nn.finite_diff_gradcheck(loss, {"table": table}, eps=1e-5) < 1e-6

    def test_bce_and_sigmoid(self):
        rng = np.random.default_rng(9)
        w = nn.Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        x = rng.normal(size=(4, 3))
        y = np.array([1.0, 0.0, 1.0, 0.0])

        def loss():
            p = nn.sigmoid(nn.reshape(nn.matmul(nn.Tensor(x), w), (4,)))
            return nn.bce_mean(p, y)

        assert nn.finite_diff_gradcheck(loss, {"w": w}, eps=1e-5) < 1e-6

    def test_softmax_ce_and_dist(self):
        rng = np.random.default_rng(12)
        w = nn.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        a = nn.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = nn.Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def loss():
            ce = nn.softmax_cross_entropy(nn.matmul(a, w), np.array([1, 0, 3]))
            d = nn.l2_dist_rows(a, b)
            return nn.add(nn.mean_all(ce), nn.mean_all(d))

        assert nn.finite_diff_gradcheck(loss, {"w": w, "a": a, "b": b}, eps=1e-5) < 1e-6


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        params = {"a": nn.Tensor(rng.normal(size=(3, 2))), "b": nn.Tensor(rng.normal(size=(4,)))}
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, params, extra={"note": 1})
        loaded, extra = nn.load_checkpoint(path)
        assert extra == {"note": 1}
        for k, t in params.items():
            assert np.array_equal(loaded[k], t.data)

    def test_refuses_newer_version(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99, "params": {}}))
        with pytest.raises(CheckpointError, match="newer"):
            nn.load_checkpoint(path)

    def test_corrupt_file_reports_offset(self, tmp_path):
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, {"a": nn.Tensor([1.0])})
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="offset"):
            nn.load_checkpoint(path)
