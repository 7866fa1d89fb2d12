import json
import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import bad_f8_texts
from oracles import (AdamLoop, binary_cross_entropy, dense_by_ops, finite_diff_gradcheck,
                     gather_dense, matmul, mul, ref_attention, ref_dense, save_checkpoint_one_shot,
                     softmax_cross_entropy, sum_all)

from higen import nn
from higen.data import f8_text
from higen.errors import CheckpointError, DimensionError, NumericError

HALF = "AAAAAAAA4D8="     # base64 of the little-endian float64 0.5
VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))


@st.composite
def adam_runs(draw):
    """({name: (is_table, data)}, one {name: gradient or None} per step, poison):
    a table row's gradient holds +-0 until a drawn first step, maybe never;
    poison (step, names, value) puts a non-finite value into those gradients."""
    n_steps = draw(st.integers(1, 5))
    params, steps = {}, [{} for _ in range(n_steps)]
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["table", "matrix", "bias"]))
        shape = (draw(st.integers(1, 5)),) + ((draw(st.integers(1, 3)),) if kind != "bias" else ())
        name = f"{kind}{i}"
        params[name] = (kind == "table", draw(arrays(np.float64, shape, elements=VALUES)))
        first = draw(arrays(np.intp, shape[0], elements=st.integers(0, n_steps)))
        for step, grads in enumerate(steps):
            g = None if draw(st.integers(0, 4)) == 0 else draw(
                arrays(np.float64, shape, elements=VALUES))
            if g is not None and kind == "table":
                g[first > step] *= 0.0      # keeps each entry's sign
            grads[name] = g
    poison = (draw(st.integers(0, n_steps)), draw(st.sets(st.sampled_from(sorted(params)))),
              draw(st.sampled_from([np.nan, np.inf, -np.inf])), draw(st.integers(0, 14)))
    return params, steps, poison


def attention(q, k, v, d_k):
    """Attention over one sequence: attention_batched with a batch of one."""
    return nn.attention_batched(*(np.asarray(x, dtype=float)[None] for x in (q, k, v)),
                                d_k).data[0]


class TestAttention:
    def test_single_key_passthrough(self):
        out = attention([[1.0, 0.0]], [[1.0, 0.0]], [[3.0, 7.0]], 2)
        np.testing.assert_allclose(out, [[3.0, 7.0]])

    def test_equal_logits_average(self):
        out = attention([[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]],
                        [[2.0, 0.0], [0.0, 2.0]], 2)
        np.testing.assert_allclose(out, [[1.0, 1.0]])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        q, k = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 5))
        np.testing.assert_allclose(attention(q, k, v, 4), ref_attention(q, k, v, 4),
                                   atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)), 4)
        with pytest.raises(DimensionError):
            attention(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((3, 4)), 4)

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
        a = attention(q, k, v, 3)
        b = attention(q, k, v, 3)
        assert np.array_equal(a, b)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 2, 3))
        k = rng.normal(size=(4, 5, 3))
        v = rng.normal(size=(4, 5, 2))
        out = nn.attention_batched(nn.Tensor(q), nn.Tensor(k), nn.Tensor(v), 3).data
        for b in range(4):
            np.testing.assert_allclose(out[b], ref_attention(q[b], k[b], v[b], 3), atol=1e-12)


class TestDenseNet:
    def test_identity_layer_is_identity(self):
        rng = np.random.default_rng(0)
        net = nn.dense_stack([3, 3], ["identity"], rng)
        net[0][0].data = np.eye(3)
        net[0][1].data = np.zeros(3)
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(nn.dense(x, net).data, x)

    def test_relu_clamps(self):
        rng = np.random.default_rng(0)
        net = nn.dense_stack([1, 1], ["relu"], rng)
        net[0][0].data = np.array([[-1.0]])
        net[0][1].data = np.array([0.0])
        np.testing.assert_allclose(nn.dense([[2.0]], net).data, [[0.0]])

    def test_two_layer_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        net = nn.dense_stack([4, 5, 2], ["relu", "identity"], rng)
        x = rng.normal(size=(3, 4))
        want = ref_dense(x, [w.data for w, _b, _act in net], [b.data for _w, b, _act in net],
                         [act for *_wb, act in net])
        np.testing.assert_allclose(nn.dense(x, net).data, want, atol=1e-10)
        got = nn.infer(x, net, rowwise=True)
        for i in range(3):
            assert np.array_equal(got[i], nn.dense(x[i:i + 1], net).data[0])

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        net = nn.dense_stack([4, 2], ["identity"], rng)
        with pytest.raises(DimensionError):
            nn.dense(np.zeros((1, 3)), net)

    def test_deterministic_forward(self):
        rng = np.random.default_rng(0)
        net = nn.dense_stack([4, 4, 2], ["tanh", "identity"], rng)
        x = np.random.default_rng(5).normal(size=(2, 4))
        assert np.array_equal(nn.dense(x, net).data, nn.dense(x, net).data)


class TestDenseNode:
    """The fused `nn.dense` node against the per-op graph it replaces
    (`oracles.dense_by_ops`): the same forward and every gradient, bit for bit."""

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10_000), b=st.integers(1, 40), uses=st.integers(2, 3),
           acts=st.lists(st.sampled_from(["relu", "tanh", "identity"]), min_size=1, max_size=4),
           input_grad=st.booleans(), shared_input=st.booleans(), head=st.booleans())
    def test_equals_the_per_op_graph_bit_for_bit(self, seed, b, uses, acts, input_grad,
                                                 shared_input, head):
        # the same layers run 2-3 times in one loss, as fusion's anchor, positive and
        # negative do, or the decoder's step network once per depth, each with its head
        rng = np.random.default_rng(seed)
        sizes = [int(n) for n in rng.integers(1, 9, size=len(acts) + 1)]
        net = nn.dense_stack(sizes, acts, rng)
        for _w, bias, _act in net:
            bias.data = rng.normal(size=bias.data.shape)
        heads = [(nn.Tensor(rng.normal(size=(sizes[-1], 3)), requires_grad=True),
                  nn.Tensor(rng.normal(size=3), requires_grad=True), "identity")
                 for _ in range(uses)]
        stacks = [net + [heads[u]] if head else net for u in range(uses)]
        xs = [nn.Tensor(rng.normal(size=(b, sizes[0])), requires_grad=input_grad)
              for _ in range(1 if shared_input else uses)]
        inputs = [xs[0 if shared_input else u] for u in range(uses)]
        coefs = [rng.normal(size=(b, 3 if head else sizes[-1])) for _ in range(uses)]
        params = [p for w, bias, _act in stacks[-1] for p in (w, bias)]
        params += [p for w, bias, _act in heads for p in (w, bias)] if head else []

        def run(build):
            for t in params + xs:
                t.grad = None
            outs = [build(x, layers) for x, layers in zip(inputs, stacks)]
            loss = None
            for out, c in zip(outs, coefs):
                term = sum_all(nn.mul_const(out, c))
                loss = term if loss is None else nn.add(loss, term)
            loss.backward()
            return [o.data.tobytes() for o in outs] + [
                None if t.grad is None else t.grad.tobytes() for t in params + xs]

        assert run(nn.dense) == run(dense_by_ops)

    def test_dense_stack_is_one_node(self):
        rng = np.random.default_rng(0)
        net = nn.dense_stack([4, 5, 3, 2], ["relu", "tanh", "identity"], rng)
        x = nn.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = nn.dense(x, net)
        nodes, stack = set(), [out]
        while stack:
            node = stack.pop()
            if node._parents and id(node) not in nodes:
                nodes.add(id(node))
                stack.extend(node._parents)
        assert nodes == {id(out)}
        assert out._parents[0] is x and set(map(id, out._parents[1:])) == set(
            map(id, nn.stack_params("net", net).values()))


class TestBinaryCrossEntropy:
    def test_half_prediction(self):
        assert binary_cross_entropy(0.5, 1) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        assert binary_cross_entropy(1.0 - 1e-9, 1) < 1e-6

    def test_confident_wrong_high_precision(self):
        import mpmath
        want = float(-mpmath.log(mpmath.mpf(1) / 10))
        assert binary_cross_entropy(0.9, 0) == pytest.approx(want, abs=1e-12)

    def test_clamp_keeps_finite(self):
        assert np.isfinite(binary_cross_entropy(0.0, 1))
        assert np.isfinite(binary_cross_entropy(1.0, 0))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = nn.Tensor([1.0, -2.0], requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2 at t=1, so the step is lr * g / (|g| + eps)
        p = nn.Tensor([0.0], requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_symmetry(self):
        p = nn.Tensor([3.0, 3.0], requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.05)
        for _ in range(7):
            p.grad = np.array([0.7, 0.7])
            opt.step()
        assert p.data[0] == p.data[1]

    def test_nonfinite_gradient_names_parameter(self):
        p = nn.Tensor([0.0], requires_grad=True)
        opt = nn.Adam({"p": p}, lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="'p'"):
            opt.step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_in_an_unreached_table_row_is_caught(self, bad):
        table = nn.Table(np.random.default_rng(0), 3, 2)
        opt = nn.Adam({"w": nn.Tensor([1.0], requires_grad=True), "t": table}, lr=0.1)
        table.grad = np.zeros((3, 2))
        table.grad[0, 0] = 1.0
        opt.step()
        before = table.data.copy()
        table.grad = np.zeros((3, 2))
        table.grad[2, 1] = bad
        with pytest.raises(NumericError, match="'t'"):
            opt.step()
        assert table.data.tobytes() == before.tobytes()


class TestAdamMatchesLoop:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(run=adam_runs())
    def test_every_parameter_bit_for_bit(self, run):
        params, steps, (poison_step, poisoned, bad, at) = run

        def build():
            out = {}
            for name, (is_table, data) in params.items():
                out[name] = nn.Table(np.random.default_rng(0), *data.shape) if is_table \
                    else nn.Tensor(0.0, requires_grad=True)
                out[name].data = data.copy()
            return out

        ours, ref = build(), build()
        opt, loop = nn.Adam(ours, lr=0.05), AdamLoop(ref, lr=0.05)
        for step, grads in enumerate(steps):
            for name, g in grads.items():
                if step == poison_step and name in poisoned:
                    g = np.zeros_like(params[name][1]) if g is None else g.copy()
                    g.flat[at % g.size] = bad
                for ps in (ours, ref):
                    ps[name].grad = None if g is None else g.copy()
            try:
                loop.step()
            except NumericError as exc:
                with pytest.raises(NumericError) as raised:
                    opt.step()
                assert str(raised.value) == str(exc)
                return
            opt.step()
            for name in params:
                assert ours[name].data.tobytes() == ref[name].data.tobytes(), (step, name)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_repeated_gathers_sum_as_the_dense_accumulation(self, data):
        # tok_table is gathered once per position; each lookup keeps its own temporary
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        init = data.draw(arrays(np.float64, (rows, cols), elements=VALUES))
        lookups = []
        for _ in range(data.draw(st.integers(1, 4))):
            shape = data.draw(st.sampled_from([(3,), (2, 0), (2, 3), (4, 2)]))
            idx = data.draw(arrays(np.intp, shape, elements=st.integers(0, rows - 1)))
            lookups.append((idx, data.draw(arrays(np.float64, shape + (cols,), elements=VALUES))))

        def grad(gather):
            table = nn.Table(np.random.default_rng(0), rows, cols)
            table.data = init.copy()
            loss = None
            for idx, w in lookups:
                term = sum_all(nn.mul_const(gather(table, idx), w))
                loss = term if loss is None else nn.add(loss, term)
            loss.backward()
            return table.grad

        assert grad(nn.gather).tobytes() == grad(gather_dense).tobytes()


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
            loss = nn.mean_all(mul(diff, diff))
            if len(calls) == nan_at_call:
                loss = nn.mul_const(loss, float("nan"))
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
        caplog.clear()
        # a bump on the way down raises the smoothed loss once but is net progress
        bumpy = [1.0, 0.9, 0.8, 0.7, 0.6, 1.2, 0.5, 0.4, 0.3, 0.2]
        with caplog.at_level(logging.WARNING, logger="higen.nn"):
            assert nn.check_loss_trend(bumpy, 5, "bumpy")
        assert not caplog.records
        # falls, then climbs back above where it started
        rebound = [1.0, 0.8, 0.6, 0.4, 0.2, 0.3, 0.6, 0.9, 1.2, 1.5]
        with caplog.at_level(logging.WARNING, logger="higen.nn"):
            assert not nn.check_loss_trend(rebound, 5, "rebound")
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "rebound" in caplog.records[0].getMessage()


class TestGradcheck:
    def test_quadratic(self):
        theta = nn.Tensor([3.0], requires_grad=True)

        def loss():
            return nn.mul_const(sum_all(mul(theta, theta)), 0.5)

        err = finite_diff_gradcheck(loss, {"theta": theta}, eps=1e-5)
        assert err < 1e-9

    def test_dense_attention_composite(self):
        rng = np.random.default_rng(2)
        net = nn.dense_stack([6, 4, 1], ["tanh", "identity"], rng)
        q = nn.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        k = nn.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        v = nn.Tensor(rng.normal(size=(3, 6)), requires_grad=True)

        def loss():
            z = nn.reshape(nn.attention_batched(nn.reshape(q, (1, 2, 3)), nn.reshape(k, (1, 3, 3)),
                                                nn.reshape(v, (1, 3, 6)), 3), (2, 6))
            return nn.mean_all(nn.dense(z, net))

        params = {"q": q, "k": k, "v": v, **nn.stack_params("net", net)}
        assert finite_diff_gradcheck(loss, params, eps=1e-5) < 1e-6

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    def test_dense_node_each_activation(self, act):
        rng = np.random.default_rng(7)
        net = nn.dense_stack([3, 4, 2], [act, act], rng)
        for _w, bias, _act in net:
            bias.data = rng.normal(size=bias.data.shape)
        x = nn.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        c = rng.normal(size=(5, 2))

        def loss():
            return sum_all(nn.mul_const(nn.dense(x, net), c))

        assert finite_diff_gradcheck(loss, {"x": x, **nn.stack_params("net", net)},
                                     eps=1e-5) < 1e-6

    def test_gather_and_normalize(self):
        rng = np.random.default_rng(4)
        table = nn.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])

        c = rng.normal(size=(4, 3))

        def loss():
            x = nn.gather(table, idx)
            y = nn.l2_normalize_rows(x)
            return nn.mean_all(mul(nn.mul_const(y, c), nn.mul_const(y, c)))

        assert finite_diff_gradcheck(loss, {"table": table}, eps=1e-5) < 1e-6

    def test_bce_and_sigmoid(self):
        rng = np.random.default_rng(9)
        w = nn.Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        x = rng.normal(size=(4, 3))
        y = np.array([1.0, 0.0, 1.0, 0.0])

        def loss():
            p = nn.sigmoid(nn.reshape(matmul(nn.Tensor(x), w), (4,)))
            return nn.bce_mean(p, y)

        assert finite_diff_gradcheck(loss, {"w": w}, eps=1e-5) < 1e-6

    def test_softmax_ce_and_dist(self):
        rng = np.random.default_rng(12)
        w = nn.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        a = nn.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = nn.Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def loss():
            ce = softmax_cross_entropy(matmul(a, w), np.array([1, 0, 3]))
            d = nn.l2_dist_rows(a, b)
            return nn.add(nn.mean_all(ce), nn.mean_all(d))

        assert finite_diff_gradcheck(loss, {"w": w, "a": a, "b": b}, eps=1e-5) < 1e-6


def restore_into(params):
    """A load_checkpoint build function: zero tensors shaped like params,
    recording the extra record it was given."""
    def build(extra):
        build.extra = extra
        fresh = {k: nn.Tensor(np.zeros_like(t.data)) for k, t in params.items()}
        return SimpleNamespace(params=lambda: fresh)

    return build


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        params = {"a": nn.Tensor(rng.normal(size=(3, 2))), "b": nn.Tensor(rng.normal(size=(4,)))}
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, params, extra={"note": 1})
        build = restore_into(params)
        loaded = nn.load_checkpoint(path, build).params()
        assert build.extra == {"note": 1}
        for k, t in params.items():
            assert np.array_equal(loaded[k].data, t.data)

    def test_refuses_newer_version(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99, "params": {}}))
        with pytest.raises(CheckpointError, match="newer"):
            nn.load_checkpoint(path, restore_into({}))

    def test_corrupt_file_reports_offset(self, tmp_path):
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, {"a": nn.Tensor([1.0])})
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="offset"):
            nn.load_checkpoint(path, restore_into({"a": nn.Tensor([1.0])}))

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p.pop("b"), r"\['b'\] are missing"),
        (lambda p: p.update(b={"shape": [1], "f8": HALF}),
         r"'b' has shape \[1\], expected \[4\]"),
        (lambda p: p.update(b={"shape": [4], "f8": HALF}), "'b': ValueError\\('cannot reshape"),
        (lambda p: p.update(c={"shape": [1], "f8": HALF}), r"\['c'\] unexpected"),
        (lambda p: p.update(b={"shape": [1], "f8": "AAAA"}), "'b': ValueError"),  # 3 bytes
    ])
    def test_restore_checks_names_and_shapes(self, tmp_path, edit, message):
        params = {"a": nn.Tensor(np.ones((3, 2))), "b": nn.Tensor(np.ones(4))}
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, params)
        payload = json.loads(path.read_text())
        edit(payload["params"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"{path}: .*{message}"):
            nn.load_checkpoint(path, restore_into(params))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bad=bad_f8_texts())
    def test_bad_payload_is_checkpoint_error(self, tmp_path_factory, bad):
        params = {"a": nn.Tensor(np.ones((3, 2))), "b": nn.Tensor(np.ones(4))}
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        nn.save_checkpoint(path, params)
        payload = json.loads(path.read_text())
        payload["params"]["b"]["f8"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"{path}: parameter 'b'"):
            nn.load_checkpoint(path, restore_into(params))

    def test_decimal_version_1_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 1, "params": {"a": {"shape": [1], "data": [0.5]}},
                                    "extra": {}}))
        with pytest.raises(CheckpointError, match=f"{path}: version 1 is too old; re-run"):
            nn.load_checkpoint(path, restore_into({"a": nn.Tensor([0.5])}))

    @settings(max_examples=21, deadline=None, derandomize=True)
    @given(params=st.dictionaries(st.text(max_size=5), arrays(
        np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
        elements=st.floats(allow_nan=False, allow_infinity=False)), max_size=4),
           extra=st.none() | st.dictionaries(st.text(max_size=4), st.recursive(
               st.none() | st.booleans() | st.integers() | st.text(max_size=4)
               | st.floats(allow_nan=False, allow_infinity=False),
               lambda inner: st.lists(inner, max_size=3)
               | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6),
               max_size=3))
    @example(params={}, extra=None)
    @example(params={"a": np.zeros((0, 3)), "b": np.zeros(0), "c": np.ones(2)}, extra=None)
    @example(params={"\u00e9t\u00e9 \u540d\u2713": np.array([0.5, -0.0])}, extra=None)
    @example(params={"a": np.ones((2, 2))},
             extra={"vocab": {"items": {"i\u00e9": 1}}, "eff_mean": [0.5, -1e-300], "n": 2})
    def test_bytes_equal_the_one_shot_writer(self, tmp_path_factory, params, extra):
        params = {name: nn.Tensor(values) for name, values in params.items()}
        folder = tmp_path_factory.mktemp("ckpt")
        nn.save_checkpoint(folder / "streamed.json", params, extra)
        save_checkpoint_one_shot(folder / "one_shot.json", params, extra)
        assert (folder / "streamed.json").read_bytes() == (folder / "one_shot.json").read_bytes()

    def test_holds_one_parameter_text_at_a_time(self, tmp_path):
        # The one-shot writer holds every parameter's text, here three times the
        # table's, in its chunk list and again joined. Encoding the table alone
        # holds about two copies of its text at once: of its base64 bytes and
        # text, its JSON string and the file's bytes.
        rng = np.random.default_rng(0)
        table = rng.normal(size=(20000, 32))
        params = {"table": nn.Tensor(table)} | {
            f"w{i}": nn.Tensor(rng.normal(size=(5000, 32))) for i in range(8)}
        text = len(f8_text(table))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            nn.save_checkpoint(tmp_path / "ckpt.json", params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 3 * text

    def test_non_finite_parameter_refused_on_save(self, tmp_path):
        path = tmp_path / "ckpt.json"
        with pytest.raises(NumericError, match=str(path)):
            nn.save_checkpoint(path, {"a": nn.Tensor([np.nan])})
        assert not path.exists() and not list(tmp_path.iterdir())

    def test_non_finite_parameter_after_written_ones_leaves_no_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        with pytest.raises(NumericError, match=str(path)):
            nn.save_checkpoint(path, {"a": nn.Tensor(np.ones(5000)), "b": nn.Tensor([np.inf])})
        assert not list(tmp_path.iterdir())
