"""Scalar-loop reference implementations shared by the test suite, and the
scalar forms and helpers that only tests use.

The references are deliberately written with explicit Python loops and no
calls into the package, so they stay independent of the code paths they
check. `fuse`, `hierarchical_weights`, `position_weight`,
`position_aware_loss_loop`, `expand_variant_direct_first`, `cluster_expand_loop`,
`beam_search_loop`, `gather_dense`, `swing_scores_loop`, the graph passes
`export_atomic_graph` and `fuse_table_graph`, the one-shot checkpoint writer
`save_checkpoint_one_shot`, the per-op graph ops `matmul`, `tanh`, `sum_all` and
`softmax_cross_entropy`, the dense stack built from them (`dense_by_ops`), and the
autograd test helpers
`mul` and `finite_diff_gradcheck` call into the package.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from higen import data
from higen import decoder as dec
from higen import expansion as ex
from higen import fusion
from higen import nn
from higen import representation as rep
from higen.errors import ConfigError, DataError, DimensionError, NumericError
from higen.nn import Tensor, _accum, _node, _wrap, log_softmax_rows


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
    return dense_by_ops(nn.Tensor(x[None, :]), model.net).data[0]


def export_atomic_graph(model, items) -> dict:
    """export_atomic_embeddings as the graph computes it: `model.atomic` over all
    items at once, with eff_net's layers as per-op nodes (`dense_by_ops`), each row
    copied out."""
    items = list(items)
    sem_idx, sem_mask, item_idx, eff = rep.item_arrays(items, model.vocab, model.config)
    x_is, x_ic, _x_ie = model.atomic(sem_idx, sem_mask, item_idx, eff)
    x_ie = dense_by_ops(nn.Tensor((eff - model.eff_mean) / model.eff_std), model.eff_net)
    return {it.item_id: rep.AtomicEmbeddings(x_is.data[i].copy(), x_ic.data[i].copy(),
                                             x_ie.data[i].copy())
            for i, it in enumerate(items)}


def fuse_table_graph(atomic_table, model) -> dict:
    """fuse_table as the graph computes it: the fusion net's layers as per-op nodes
    (`dense_by_ops`) over all items."""
    ids = sorted(atomic_table)
    if not ids:
        return {}
    x = np.stack([fusion.atomic_concat(atomic_table[i]) for i in ids])
    out = dense_by_ops(nn.Tensor(x), model.net).data
    return {item_id: out[i].copy() for i, item_id in enumerate(ids)}


def save_checkpoint_one_shot(path, params, extra=None) -> None:
    """nn.save_checkpoint as one document encoded at once by data.write_json."""
    data.write_json(path, {"version": nn.CHECKPOINT_VERSION, "params": {
        name: {"shape": list(t.data.shape), "f8": t.data} for name, t in params.items()},
        "extra": extra or {}})


def hierarchical_weights(last: int) -> np.ndarray:
    return np.array([dec.hierarchical_weight(t, last) for t in range(last + 1)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"cannot multiply shapes {a.data.shape} and {b.data.shape}")

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), bw)


def sum_all(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bw(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _node(np.asarray(a.data.sum()), (a,), bw)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"cannot matmul shapes {a.data.shape} and {b.data.shape}")

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bw)


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    y = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - y * y))

    return _node(y, (a,), bw)


def dense_by_ops(x, layers) -> Tensor:
    """A stack of (W, b, activation) layers as one `matmul`, one bias `nn.add` and one
    activation node per layer; the per-op reference for the fused `nn.dense` node."""
    ops = {"relu": nn.relu, "tanh": tanh, "identity": _wrap}
    x = _wrap(x)
    for w, b, act in layers:
        x = ops[act](nn.add(matmul(x, w), b))
    return x


def gather_dense(table: Tensor, idx) -> Tensor:
    """`nn.gather` adding each lookup's own temporary into a gradient that
    starts as zeros; the reference for the gather that hands its temporary over."""
    idx = np.asarray(idx, dtype=np.intp)

    def bw(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx, g)
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad += acc

    return _node(table.data[idx], (table,), bw)


class AdamLoop:
    """Adam as one update per parameter over its whole array; the reference for
    `nn.Adam`, which updates tables by live row and the rest in one buffer."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = float(lr)
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.EPS)


def finite_diff_gradcheck(loss_fn, params: dict[str, Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn must rebuild its graph from the current parameter data on every
    call and be deterministic.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for k, p in params.items()}
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ref = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(loss_fn().data)
            flat[i] = orig - eps
            fm = float(loss_fn().data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            rel = abs(ref[i] - numeric) / max(1e-8, abs(ref[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst


def expand_variant_direct_first(decoded, trie, i2i_table, cluster_k, use_i2i, cap,
                                per_seed_n) -> ex.RecallSet:
    """`pipeline.expand_variant` with the cluster tier built the earlier way:
    the direct hits first, then only the items the prefixes add, and a
    decoded docID shorter than the prefix matching only itself."""
    direct = ex.direct_hits(decoded, trie)
    cluster = ex.RecallSet([])
    if cluster_k is not None:
        k = min(cluster_k, trie.max_depth)
        seen = set(direct.item_ids())
        expanded = {}
        for d, _logprob in decoded:
            if len(d.tokens) < k:
                continue
            for _tokens, item_id, leaf_score in items_under_walk(trie, d.tokens[:k]):
                if item_id in seen:
                    continue
                score = leaf_score if leaf_score is not None else 0.0
                if item_id not in expanded or score > expanded[item_id]:
                    expanded[item_id] = score
        tail = [ex.RecallEntry(i, "cluster", s)
                for i, s in sorted(expanded.items(), key=lambda kv: (-kv[1], kv[0]))]
        cluster = ex.RecallSet(direct.entries + tail)
    i2i = ex.i2i_expand(direct.item_ids(), i2i_table, per_seed_n) if use_i2i \
        else ex.RecallSet([])
    return ex.merge_recall(direct, cluster, i2i, cap)


def cluster_expand_loop(decoded, trie, prefix_len_k: int) -> ex.RecallSet:
    """`expansion.cluster_expand` as a dict of the best score per item under
    each decoded prefix, found by `items_under_walk`, sorted once at the end;
    the reference for the leaf ranges read in the trie's leaf rank."""
    if prefix_len_k < 1 or prefix_len_k > trie.max_depth:
        raise ConfigError(f"prefix length {prefix_len_k} outside [1, {trie.max_depth}]")
    expanded: dict[str, float] = {}
    for hit in decoded:
        for _tokens, item_id, score in items_under_walk(trie, hit[0].tokens[:prefix_len_k]):
            if item_id not in expanded or score > expanded[item_id]:
                expanded[item_id] = float(score)
    return ex.RecallSet([ex.RecallEntry(i, "cluster", s)
                         for i, s in sorted(expanded.items(), key=lambda kv: (-kv[1], kv[0]))])


def merge_recall_sorting(direct, cluster, i2i, cap: int) -> ex.RecallSet:
    """The tier merge with every tier sorted by (-score, item_id) before the
    first-occurrence pass; the reference for `expansion.merge_recall`, which
    sorts only the direct tier."""
    out: list[ex.RecallEntry] = []
    seen: set[str] = set()
    for tier in (direct, cluster, i2i):
        for e in sorted(tier.entries, key=lambda e: (-e.score, e.item_id)):
            if len(out) >= cap:
                return ex.RecallSet(out)
            if e.item_id in seen:
                continue
            seen.add(e.item_id)
            out.append(e)
    return ex.RecallSet(out)


def swing_scores_loop(interactions, alpha: float = 1.0, top_n: int = 50) -> ex.I2ITable:
    """Swing similarity s(i,j) = sum over unordered user pairs u<v in
    U_i * U_j of 1 / (alpha + |I_u * I_v|); item pairs with fewer than two
    common users are omitted. Duplicate (user, item) rows collapse first.
    The reference for `expansion.swing_scores`, which sums the same terms
    from co-occurrence arrays."""
    if alpha <= 0:
        raise ConfigError("swing alpha must be positive")
    user_items: dict[str, set[str]] = {}
    for user, item in set(interactions):
        user_items.setdefault(user, set()).add(item)
    pair_users: dict[tuple[str, str], set[str]] = {}
    for user, items in user_items.items():
        for i, j in combinations(sorted(items), 2):
            pair_users.setdefault((i, j), set()).add(user)
    scores: dict[tuple[str, str], float] = {}
    for (i, j), users in pair_users.items():
        if len(users) < 2:
            continue
        s = 0.0
        for u, v in combinations(sorted(users), 2):
            s += 1.0 / (alpha + len(user_items[u] & user_items[v]))
        scores[(i, j)] = s
    neighbors: dict[str, list[tuple[str, float]]] = {}
    for (i, j), s in scores.items():
        neighbors.setdefault(i, []).append((j, s))
        neighbors.setdefault(j, []).append((i, s))
    for item_id in neighbors:
        neighbors[item_id].sort(key=lambda ns: (-ns[1], ns[0]))
        neighbors[item_id] = neighbors[item_id][:top_n]
    return ex.I2ITable(neighbors)


def items_under_walk(trie, prefix) -> list[tuple[tuple[int, ...], str, float]]:
    """(tokens, item_id, leaf node score) for every leaf below the prefix, found by
    a recursive walk over the sorted children; the reference for the leaf
    slices the trie lays out once."""
    node = trie.node_at(prefix)
    if node is None:
        return []
    out = []

    def walk(n, cur):
        if n.item_id is not None:
            out.append((cur, n.item_id, trie.scores[n.id]))
        for tok in sorted(n.children):
            walk(n.children[tok], cur + (tok,))

    walk(node, tuple(prefix))
    return out


def node_scores_loop(docids, scores) -> dict[tuple[int, ...], float]:
    """Each docID prefix past the semantic prefix of a docID below it -> the
    mean score of those docIDs' items, summed in the order of `docids`, in
    which `build_docids` adds the items below each such prefix by item id;
    the reference for the node scores `docid.build_trie` derives."""
    sums: dict[tuple[int, ...], float] = {}
    counts: dict[tuple[int, ...], int] = {}
    for item_id, d in docids.items():
        for t in range(d.semantic_len, len(d.tokens)):
            prefix = d.tokens[:t + 1]
            sums[prefix] = sums.get(prefix, 0.0) + scores[item_id]
            counts[prefix] = counts.get(prefix, 0) + 1
    node_scores = {prefix: sums[prefix] / counts[prefix] for prefix in sums}
    return node_scores


@dataclass(frozen=True)
class BeamHypothesis:
    tokens: tuple[int, ...]
    heads: tuple[int, ...]      # the heads of the nodes along the tokens
    logprob: float
    node: object     # the trie node the tokens lead to


def beam_search_loop(row, model, trie, beam_width: int, k: int):
    """`decoder.constrained_beam_search` as one Python loop over hypotheses and
    their children, on the autograd encode; the narrow-beam reference for the
    array beam."""
    dec.check_beam(beam_width, k)
    ctx_np = model.encode(model.prepare_rows([row])).data[:1]

    active = [BeamHypothesis((), (), 0.0, trie.root)]
    done = []
    for depth in range(trie.max_depth):
        if not active:
            break
        extensions = []
        heads = np.array([hyp.heads for hyp in active], dtype=np.intp)
        logits = model.step_logits(np.repeat(ctx_np, len(active), 0), heads, depth)
        logprobs = nn.log_softmax_rows(logits)
        for r, hyp in enumerate(active):
            for value, child in hyp.node.children.items():
                lp = hyp.logprob + float(logprobs[r, child.head])
                if child.item_id is not None:
                    done.append((hyp.tokens + (value,), lp, child))
                else:
                    extensions.append(BeamHypothesis(hyp.tokens + (value,),
                                                     hyp.heads + (child.head,), lp, child))
        extensions.sort(key=lambda h: (-h.logprob, h.tokens))
        active = extensions[:beam_width]
    done.sort(key=lambda d: (-d[1], d[0]))
    return [(leaf.docid, lp, leaf.item_id) for _tokens, lp, leaf in done[:k]]


def position_weight(t: int, last: int, semantic_len: int, y_t: int, y_hat_t: int,
                    e_lookup, oracle, lambda_h: float = 0.8,
                    lambda_s: float = 0.1, lambda_e: float = 0.1) -> float:
    """Weighted mix of hierarchical decay, semantic-relevance penalty
    (positions t <= semantic_len, the category path and the first cluster
    token), and efficiency divergence (positions past it)."""
    w = lambda_h * dec.hierarchical_weight(t, last)
    if t <= semantic_len:
        if oracle.similarity(y_t, y_hat_t) < 0.5:
            w += lambda_s
    else:
        w += lambda_e * abs(e_lookup(y_t) - e_lookup(y_hat_t))
    return w


def greedy_argmax_token_loop(node, logits_row: np.ndarray) -> int:
    """Highest-logit token among the children of the trie node of the
    teacher-forced prefix (ties go to the smallest token value)."""
    if len(node.children) == len(logits_row):
        # children take distinct columns in token order, so child i has column i;
        # one argmax spares the root a Python loop over every first token
        return list(node.children)[int(np.argmax(logits_row))]
    return max(node.children, key=lambda tok: logits_row[node.children[tok].head])


def position_aware_loss_loop(batch, model, weights):
    """`decoder.position_aware_loss` as a walk of `TrieNode`s, one row at a time,
    with one scalar `position_weight` and one greedy pick per row and depth;
    the reference for the id-path loss, which must match it bit for bit."""
    ctx = model.encode(batch)
    b = batch.size
    targets = [d.tokens for d in batch.targets]
    max_len = max(len(tok) for tok in targets)
    nodes = [weights.trie.root] * b     # each row's trie node at its prefix
    heads: list[tuple[int, ...]] = [()] * b     # and that prefix as its nodes' heads
    total = None
    hits: dict[int, int] = {}
    counts: dict[int, int] = {}
    for t in range(max_len):
        active = [i for i in range(b) if len(targets[i]) > t]
        logits = model.position_logits(nn.gather(ctx, active), [heads[i] for i in active], t)
        w = np.ones(len(active))
        for pos, i in enumerate(active):
            tokens, node = targets[i], nodes[i]
            y_t = tokens[t]
            if y_t not in node.children:
                raise DataError(f"token {y_t} not in the position-{t} vocabulary of {tokens[:t]}")
            y_hat = greedy_argmax_token_loop(node, logits.data[pos])
            hits[t] = hits.get(t, 0) + (1 if y_hat == y_t else 0)
            counts[t] = counts.get(t, 0) + 1
            if weights.position_aware:
                w[pos] = position_weight(t, len(tokens) - 1, batch.targets[i].semantic_len,
                                         y_t, y_hat,
                                         lambda tok: weights.trie.scores[node.children[tok].id],
                                         weights.oracle, weights.lambda_h, weights.lambda_s,
                                         weights.lambda_e)
            nodes[i] = node.children[y_t]
            heads[i] += (nodes[i].head,)
        ce = softmax_cross_entropy(logits, [nodes[i].head for i in active])
        contrib = sum_all(nn.mul_const(ce, w))
        total = contrib if total is None else nn.add(total, contrib)
    accuracy = {t: hits[t] / counts[t] for t in counts}
    return nn.mul_const(total, 1.0 / b), accuracy
