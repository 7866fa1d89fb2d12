"""Minimal neural substrate: float64 tensors with reverse-mode gradients,
dense layers, embedding tables, scaled dot-product attention, losses, Adam
(by live row for tables), the one training loop all three models use (`fit`),
and the checkpoint format (named parameters plus a JSON `extra` record).

Every op is hand-differentiated against a fixed vocabulary; there is no
general autodiff beyond what the models in this package need.
"""

from __future__ import annotations

import logging

import numpy as np

from .data import f8_array, read_json, write_json
from .errors import CheckpointError, DimensionError, NormalizationError, NumericError

log = logging.getLogger(__name__)

BCE_EPS = 1e-7
DIST_EPS_SQ = 1e-24
LOSS_WINDOW = 5   # epochs averaged by the loss-trend check


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """Node in a reverse-mode graph over float64 numpy arrays.

    Calling backward() on a scalar result accumulates gradients into the
    .grad of every upstream tensor that requires them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _f64(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _accum(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add g into t.grad; a first g is copied as g + 0.0 (zeros + g), or kept if `own`."""
    if not (t.requires_grad or t._parents):
        return
    if t.grad is not None:
        t.grad += g
    else:
        t.grad = g if own else np.add(g, 0.0, out=np.empty_like(t.data))


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    out._parents = parents
    out._backward = backward
    return out


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementary ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a 1-D bias broadcast against a's last axis."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape == b.data.shape:
        def bw(g):
            _accum(a, g)
            _accum(b, g)
    elif b.data.ndim == 1 and a.data.shape[-1] == b.data.shape[0]:
        def bw(g):
            _accum(a, g)
            _accum(b, g.reshape(-1, g.shape[-1]).sum(axis=0))
    else:
        raise DimensionError(f"cannot add shapes {a.data.shape} and {b.data.shape}")
    return _node(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"cannot subtract shapes {a.data.shape} and {b.data.shape}")

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _node(a.data - b.data, (a, b), bw)


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or array (no gradient through c)."""
    a = _wrap(a)
    c = _f64(c)

    def bw(g):
        _accum(a, g * c)

    return _node(a.data * c, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"cannot matmul shapes {a.data.shape} and {b.data.shape}")

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bw)


def concat(parts, axis: int = -1) -> Tensor:
    parts = [_wrap(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(p, g[tuple(idx)])

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    orig = a.data.shape

    def bw(g):
        _accum(a, g.reshape(orig))

    return _node(a.data.reshape(shape), (a,), bw)


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0

    def bw(g):
        _accum(a, g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), bw)


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    y = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - y * y))

    return _node(y, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    y = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-a.data)),
                 np.exp(a.data) / (1.0 + np.exp(a.data)))

    def bw(g):
        _accum(a, g * y * (1.0 - y))

    return _node(y, (a,), bw)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, np.expand_dims(g, axis) * np.ones_like(a.data))

    return _node(a.data.sum(axis=axis), (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _node(np.asarray(a.data.sum()), (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    a = _wrap(a)
    n = a.data.size

    def bw(g):
        _accum(a, np.broadcast_to(g / n, a.data.shape).copy())

    return _node(np.asarray(a.data.mean()), (a,), bw)


def gather(table: Tensor, idx) -> Tensor:
    """Embedding lookup: out[...] = table[idx[...], :] for an int index array."""
    table = _wrap(table)
    idx = np.asarray(idx, dtype=np.intp)
    if np.any(idx < 0) or np.any(idx >= table.data.shape[0]):
        raise DimensionError("gather index out of range")

    def bw(g):
        # each element sums its lookups from +0.0 in order, as np.add.at into
        # zeros would (so never -0.0); bincount of nothing would be int64
        rows, cols = table.data.shape
        acc = np.zeros_like(table.data) if idx.size == 0 else np.bincount(
            (idx[..., None] * cols + np.arange(cols)).ravel(), weights=g.ravel(),
            minlength=rows * cols).reshape(rows, cols)
        _accum(table, acc, own=True)

    return _node(table.data[idx], (table,), bw)


def rowwise_dot(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape or a.data.ndim != 2:
        raise DimensionError("rowwise_dot expects two equal-shape 2-D tensors")

    def bw(g):
        _accum(a, g[:, None] * b.data)
        _accum(b, g[:, None] * a.data)

    return _node((a.data * b.data).sum(axis=1), (a, b), bw)


def l2_normalize_rows(a: Tensor, name: str = "vector") -> Tensor:
    a = _wrap(a)
    norms = np.linalg.norm(a.data, axis=1)
    if np.any(norms == 0.0):
        raise NormalizationError(f"zero-norm row in {name}")
    y = a.data / norms[:, None]

    def bw(g):
        dot = (y * g).sum(axis=1, keepdims=True)
        _accum(a, (g - y * dot) / norms[:, None])

    return _node(y, (a,), bw)


def l2_dist_rows(a: Tensor, b: Tensor) -> Tensor:
    """Rowwise Euclidean distance with a tiny floor so the gradient is
    defined at coincident points."""
    a, b = _wrap(a), _wrap(b)
    diff = a.data - b.data
    d = np.sqrt((diff * diff).sum(axis=1) + DIST_EPS_SQ)

    def bw(g):
        gd = (g / d)[:, None] * diff
        _accum(a, gd)
        _accum(b, -gd)

    return _node(d, (a, b), bw)


# ---------------------------------------------------------------------------
# softmax, attention, losses


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (plain numpy)."""
    x = _f64(x)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    x = _f64(x)
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def attention_infer(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    d_k: int) -> tuple[np.ndarray, np.ndarray]:
    """(output, weights) of attention over a batch of sequences in plain numpy:
    (B, n_q, d_k) x (B, n_k, d_k) x (B, n_k, d_v) -> (B, n_q, d_v), (B, n_q, n_k)."""
    if q.shape[-1] != d_k or k.shape[-1] != d_k:
        raise DimensionError("batched attention d_k mismatch")
    if k.shape[1] != v.shape[1] or q.shape[0] != k.shape[0]:
        raise DimensionError("batched attention key/value rows or batch mismatch")
    scores = np.einsum("bqd,bkd->bqk", q, k) * (1.0 / np.sqrt(float(d_k)))
    attn = softmax_rows(scores)
    return np.einsum("bqk,bkd->bqd", attn, v), attn


def attention_batched(q: Tensor, k: Tensor, v: Tensor, d_k: int) -> Tensor:
    """attention_infer as a graph op."""
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    out_data, attn = attention_infer(q.data, k.data, v.data, d_k)
    inv = 1.0 / np.sqrt(float(d_k))

    def bw(g):
        dv = np.einsum("bqk,bqd->bkd", attn, g)
        da = np.einsum("bqd,bkd->bqk", g, v.data)
        ds = attn * (da - (da * attn).sum(axis=-1, keepdims=True))
        _accum(q, np.einsum("bqk,bkd->bqd", ds, k.data) * inv)
        _accum(k, np.einsum("bqk,bqd->bkd", ds, q.data) * inv)
        _accum(v, dv)

    return _node(out_data, (q, k, v), bw)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-row cross-entropy of integer targets under softmax(logits)."""
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise DimensionError("softmax_cross_entropy expects (B,V) logits and (B,) targets")
    lsm = log_softmax_rows(logits.data)
    rows = np.arange(targets.shape[0])
    probs = np.exp(lsm)

    def bw(g):
        d = probs.copy()
        d[rows, targets] -= 1.0
        _accum(logits, d * g[:, None])

    return _node(-lsm[rows, targets], (logits,), bw)


def bce_mean(p: Tensor, labels) -> Tensor:
    """Mean BCE -(y log p + (1-y) log(1-p)) over a batch of probabilities
    clamped to [BCE_EPS, 1 - BCE_EPS]."""
    p = _wrap(p)
    y = _f64(labels)
    if p.data.shape != y.shape:
        raise DimensionError("bce_mean shape mismatch")
    pc = np.clip(p.data, BCE_EPS, 1.0 - BCE_EPS)
    inside = (p.data > BCE_EPS) & (p.data < 1.0 - BCE_EPS)
    n = y.size
    loss = -(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)).mean()

    def bw(g):
        dp = (-(y / pc) + (1.0 - y) / (1.0 - pc)) / n
        _accum(p, g * dp * inside)

    return _node(np.asarray(loss), (p,), bw)


# ---------------------------------------------------------------------------
# dense networks

# each activation as a graph op (DenseNet.forward) and in plain numpy (DenseNet.infer)
_ACTIVATIONS = {"relu": (relu, lambda x: np.where(x > 0, x, 0.0)), "tanh": (tanh, np.tanh),
                "identity": (_wrap, lambda x: x)}


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A (fan_in, fan_out) array, uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Table(Tensor):
    """A (max(rows, 1), cols) glorot-initialised embedding table, read only by `gather`."""

    def __init__(self, rng: np.random.Generator, rows: int, cols: int):
        super().__init__(glorot_uniform(rng, max(rows, 1), cols), requires_grad=True)


class DenseNet:
    """Stack of affine layers with per-layer activations."""

    def __init__(self, sizes, activations, rng: np.random.Generator, name: str = "net"):
        sizes = [int(s) for s in sizes]
        activations = list(activations)
        if len(sizes) < 2:
            raise DimensionError("DenseNet needs at least input and output sizes")
        if len(activations) != len(sizes) - 1:
            raise DimensionError("one activation per layer required")
        for act in activations:
            if act not in _ACTIVATIONS:
                raise DimensionError(f"unknown activation '{act}'")
        self.name = name
        self.sizes = sizes
        self.activations = activations
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for m, n in zip(sizes, sizes[1:]):
            self.weights.append(Tensor(glorot_uniform(rng, m, n), requires_grad=True))
            self.biases.append(Tensor(np.zeros(n), requires_grad=True))

    def forward(self, x: Tensor) -> Tensor:
        x = _wrap(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.sizes[0]:
            raise DimensionError(
                f"{self.name}: input shape {x.data.shape} incompatible with size {self.sizes[0]}")
        for w, b, act in zip(self.weights, self.biases, self.activations):
            x = _ACTIVATIONS[act][0](add(matmul(x, w), b))
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """forward(x).data without graph nodes. Each row is multiplied as its own (1, m)
        matrix, as in a one-row forward, since a (B, m) product may change its bits."""
        for w, b, act in zip(self.weights, self.biases, self.activations):
            x = _ACTIVATIONS[act][1]((x[:, None, :] @ w.data)[:, 0] + b.data)
        return x

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{self.name}.W{i}"] = w
            out[f"{self.name}.b{i}"] = b
        return out


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction (Kingma & Ba, arXiv 1412.6980), bit for bit.

    A `Table` keeps m and v only for its live rows, those a non-zero gradient has
    reached, and a step updates only them: a row with +-0 gradients since step 1
    has m = v = +0, so the dense update would subtract lr * 0 / (sqrt(0) + eps) =
    +0 and keep every bit, -0.0 too. Live rows keep moving; NaN and inf are != 0,
    so their row joins. The rest, and tables once mostly live, share a flat buffer."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params, self.lr, self.t = dict(params), float(lr), 0
        # per table: its live rows, and their m and v as one (2, rows, cols) array
        self.rows = {k: [np.zeros(0, np.intp), np.zeros((2, 0, p.data.shape[1]))]
                     for k, p in self.params.items() if isinstance(p, Table)}
        self.dense, self.mv = [], np.zeros((2, 0))
        dense = [p for k, p in self.params.items() if k not in self.rows]
        self._pack(dense, np.zeros((2, sum(p.data.size for p in dense))))

    def _pack(self, new: list[Tensor], mv: np.ndarray) -> None:
        """Append new parameters, with their (2, size) m and v, to the flat buffer."""
        self.dense += new
        self.flat = np.concatenate([p.data.ravel() for p in self.dense] + [np.zeros(0)])
        bounds = np.cumsum([0] + [p.data.size for p in self.dense])
        for p, lo, hi in zip(self.dense, bounds, bounds[1:]):
            p.data = self.flat[lo:hi].reshape(p.data.shape)
        self.mv = np.concatenate([self.mv, mv], axis=1)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """Apply one Adam update from each parameter's .grad; None (a position
        head that no row of the batch reached) counts as zeros. A non-finite
        gradient raises NumericError naming the first such parameter."""
        updates = []      # (gradient, m and v, array, index of the updated part)
        for name, (rows, mv) in list(self.rows.items()):
            p = self.params[name]
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            fresh = np.setdiff1d(np.flatnonzero(g.any(axis=1)), rows, assume_unique=True)
            if len(fresh):
                rows = np.concatenate([rows, fresh])
                mv = np.concatenate([mv, np.zeros((2, len(fresh), mv.shape[2]))], axis=1)
                self.rows[name] = [rows, mv]
                if 2 * rows.size > len(p.data):      # most rows live: join the flat buffer
                    del self.rows[name]
                    self._pack([p], np.zeros((2, p.data.size)))
                    self.mv[:, -p.data.size:].reshape((2,) + p.data.shape)[:, rows] = mv
                    continue
            updates.append((g[rows], mv, p.data, rows))
        flat_g = [np.zeros(p.data.size) if p.grad is None else p.grad.ravel() for p in self.dense]
        updates.append((np.concatenate(flat_g + [np.zeros(0)]), self.mv, self.flat, ...))
        if not all(np.isfinite(g).all() for g, *_rest in updates):
            name = next(k for k, p in self.params.items()
                        if p.grad is not None and not np.isfinite(p.grad).all())
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        self.t += 1
        b1t, b2t = 1.0 - self.BETA1 ** self.t, 1.0 - self.BETA2 ** self.t
        for g, (m, v), data, at in updates:     # in place: g is a copy, reused for the step
            m *= self.BETA1
            m += (s := np.multiply(g, 1.0 - self.BETA1))
            v *= self.BETA2
            v += np.multiply(np.multiply(g, 1.0 - self.BETA2, out=s), g, out=s)
            np.add(np.sqrt(np.divide(v, b2t, out=s), out=s), self.EPS, out=s)
            np.multiply(np.divide(m, b1t, out=g), self.lr, out=g)   # lr * (m / b1t)
            data[at] -= np.divide(g, s, out=g)


# ---------------------------------------------------------------------------
# training loop


def check_loss_trend(losses, window: int, stage: str) -> bool:
    """Warn when training made no net progress: the mean loss of the last
    `window` epochs is not below that of the first. Bumps on the way down
    are normal and stay silent. Returns True if clean."""
    if len(losses) < 2 * window:
        return True
    if np.mean(losses[-window:]) >= np.mean(losses[:window]):
        log.warning("%s: mean training loss of the last %d epochs is not below that of "
                    "the first %d", stage, window, window)
        return False
    return True


def fit(params: dict[str, Tensor], n: int, batch_loss, *, lr: float, epochs: int,
        batch_size: int, seed: int, stage: str) -> list[dict]:
    """Adam on params over n examples, one permutation per epoch from a
    generator seeded with seed + 1. batch_loss(indices) returns (scalar loss
    tensor, {name: {key: value}} batch stats). A non-finite loss puts back the
    parameters of the last finished epoch and raises NumericError. Returns one
    {"epoch", "loss", name: {key: value}} record per epoch of batch means."""
    opt = Adam(params, lr=lr)
    rng = np.random.default_rng(seed + 1)
    history: list[dict] = []
    for epoch in range(epochs):
        snapshot = {k: t.data.copy() for k, t in params.items()}
        order = rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        stat_sums: dict[str, dict] = {}
        for start in range(0, n, batch_size):
            loss, stats = batch_loss(order[start:start + batch_size])
            if not np.isfinite(loss.data):
                for k, t in params.items():
                    t.data[...] = snapshot[k]     # in place: Adam's flat buffer views it
                raise NumericError(f"non-finite {stage} loss at epoch {epoch}; "
                                   "last good parameters retained")
            opt.zero_grad()
            loss.backward()
            opt.step()
            epoch_loss += float(loss.data)
            n_batches += 1
            for name, values in stats.items():
                sums = stat_sums.setdefault(name, {})
                sums.update({key: sums.get(key, 0.0) + value for key, value in values.items()})
        record = {"epoch": epoch, "loss": epoch_loss / n_batches}
        for name, sums in stat_sums.items():
            record[name] = {key: sums[key] / n_batches for key in sorted(sums)}
        history.append(record)
        log.info("%s: %s", stage, record)
    check_loss_trend([r["loss"] for r in history], LOSS_WINDOW, stage)
    return history


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 2


def save_checkpoint(path, params: dict[str, Tensor], extra: dict | None = None) -> None:
    """Write named parameters and the JSON record extra to a versioned JSON
    container. Each parameter is its shape and the `data.f8_text` of its values,
    which load back bit for bit; a non-finite value raises NumericError."""
    write_json(path, {"version": CHECKPOINT_VERSION, "params": {
        name: {"shape": list(t.data.shape), "f8": t.data} for name, t in params.items()},
        "extra": extra or {}})


def _stored_array(path, name: str, rec) -> np.ndarray:
    try:
        return f8_array(rec["f8"]).reshape(rec["shape"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: parameter '{name}': {exc!r}") from None


def load_checkpoint(path, build):
    """build(extra) on the checkpoint's extra record, with the parameters of the
    model it returns restored in place by name and shape; an older version or a
    parameter missing, unexpected, malformed or of another shape raises CheckpointError."""

    def restore(doc):
        if doc["version"] < CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: version {doc['version']} is too old; re-run its stage")
        # the base64 texts are decoded and freed before build allocates the model
        arrays = {name: _stored_array(path, name, rec) for name, rec in doc.pop("params").items()}
        model = build(doc["extra"])
        params = model.params()
        if set(arrays) != set(params):
            raise CheckpointError(f"{path}: parameters {sorted(set(params) - set(arrays))} are "
                                  f"missing and {sorted(set(arrays) - set(params))} unexpected")
        for name, tensor in params.items():
            arr = arrays[name]
            if arr.shape != tensor.data.shape:
                raise CheckpointError(f"{path}: parameter '{name}' has shape {list(arr.shape)}, "
                                      f"expected {list(tensor.data.shape)}")
            tensor.data = arr
        return model

    return read_json(path, {"params": dict, "extra": dict}, CHECKPOINT_VERSION, restore)
