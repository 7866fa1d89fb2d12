"""Scalar-loop reference implementations shared by the test suite, and the
scalar forms and helpers that only tests use.

The references are deliberately written with explicit Python loops and no
calls into the package, so they stay independent of the code paths they
check. `fuse` and `hierarchical_weights` call into the package.
"""

import numpy as np

from higen import decoder as dec
from higen import fusion
from higen import nn
from higen.errors import DimensionError


def ref_attention(q, k, v, d_k):
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        logits = []
        for j in range(k.shape[0]):
            s = 0.0
            for d in range(d_k):
                s += q[i, d] * k[j, d]
            logits.append(s / np.sqrt(d_k))
        m = max(logits)
        exps = [np.exp(x - m) for x in logits]
        z = sum(exps)
        for j in range(k.shape[0]):
            w = exps[j] / z
            for d in range(v.shape[1]):
                out[i, d] += w * v[j, d]
    return out


def ref_dense(x, weights, biases, activations):
    h = np.asarray(x, dtype=float)
    for w, b, act in zip(weights, biases, activations):
        nxt = np.zeros((h.shape[0], w.shape[1]))
        for i in range(h.shape[0]):
            for j in range(w.shape[1]):
                s = b[j]
                for m in range(w.shape[0]):
                    s += h[i, m] * w[m, j]
                if act == "relu":
                    s = max(s, 0.0)
                elif act == "tanh":
                    s = np.tanh(s)
                nxt[i, j] = s
        h = nxt
    return h


def ref_cosine(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na = np.sqrt(sum(x * x for x in a))
    nb = np.sqrt(sum(x * x for x in b))
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def auc_score(labels, scores):
    """Mann-Whitney AUC: probability a positive outranks a negative."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def binary_cross_entropy(prediction: float, label: int) -> float:
    """Scalar BCE -(y log p + (1-y) log(1-p)) with predictions clamped to
    [1e-7, 1 - 1e-7]."""
    p = min(max(float(prediction), 1e-7), 1.0 - 1e-7)
    y = float(label)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def triplet_loss(anchor, positive, negative, margin: float) -> float:
    """Hinge max{0, margin + d(a,p) - d(a,n)} with L2 distance."""
    a = np.asarray(anchor, dtype=float)
    d_ap = np.linalg.norm(a - np.asarray(positive, dtype=float))
    d_an = np.linalg.norm(a - np.asarray(negative, dtype=float))
    return max(0.0, margin + d_ap - d_an)


def class_distance_gap(vectors: dict, labels: dict) -> float:
    """Mean intra-class distance minus mean inter-class distance."""
    ids = sorted(vectors)
    intra, inter = [], []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = float(np.linalg.norm(vectors[a] - vectors[b]))
            (intra if labels[a] == labels[b] else inter).append(d)
    return float(np.mean(intra) - np.mean(inter))


def kmeans_inertia(points, labels) -> float:
    points = np.asarray(points, dtype=float)
    total = 0.0
    for c in np.unique(labels):
        members = points[labels == c]
        total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def fuse(atomic, model) -> np.ndarray:
    """The fused vector of one item's atomic embeddings."""
    x = fusion.atomic_concat(atomic)
    if x.shape[0] != 3 * model.d_atomic:
        raise DimensionError(f"atomic width {x.shape[0]} does not match fusion input "
                             f"{3 * model.d_atomic}")
    return model.fuse_batch(nn.Tensor(x[None, :])).data[0]


def hierarchical_weights(last: int) -> np.ndarray:
    return np.array([dec.hierarchical_weight(t, last) for t in range(last + 1)])
