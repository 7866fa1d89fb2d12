"""Compact autoregressive docID generator.

A feature encoder pools (user, query, context) into one vector; each docID
position gets its own output head over the tokens that actually occur
there. Training uses teacher forcing with a per-position weighted
cross-entropy; decoding walks the docID trie with beam search.

The docID trie owns child order, head columns and leaf order. Beam search
and the loss work on its node ids, reading each node's children as one run.

A training batch's loss is one graph node: `position_aware_loss` runs the encoder,
every depth's step and the weighted cross-entropy in plain numpy, and its backward
adds into each parameter in the order the per-op graph (`encode`, `position_logits`
and one node per op) did, so every gradient keeps its bits. `encode` and
`position_logits` stay as that per-op graph, for `brute_force_scores`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import from_json, to_json
from .docid import DocId, DocIdTrie, load_index
from .errors import CheckpointError, ConfigError, DataError, DimensionError, IndexBuildError
from .representation import Vocab, row_indices


# ---------------------------------------------------------------------------
# position weights


@functools.cache
def hierarchical_weight(t: int, last: int) -> float:
    """Decay weight e^(L-t) / sum_{i=0..L} e^i for position t of a docID
    whose final position index is L."""
    if not 0 <= t <= last:
        raise DimensionError(f"position {t} outside [0, {last}]")
    return float(np.exp(last - t) / np.exp(np.arange(last + 1)).sum())


class RelevanceOracle:
    """Symmetric category-similarity table; self-similarity is 1 and unknown
    pairs have similarity 0."""

    def __init__(self, pairs=()):
        self.table: dict[tuple[int, int], float] = {}
        for a, b, sim in pairs:
            if not 0.0 <= sim <= 1.0:
                raise DataError(f"similarity {sim} for ({a}, {b}) outside [0, 1]")
            self.table[(a, b)] = float(sim)
            self.table[(b, a)] = float(sim)
        self._relevant: dict[tuple[int, ...], np.ndarray] = {}

    def similarity(self, a: int, b: int) -> float:
        if a == b:
            return 1.0
        return self.table.get((a, b), 0.0)

    def relevant_codes(self, values) -> np.ndarray:
        """The codes i * n + j (n = len(values)) of the pairs of distinct tokens
        (values[i], values[j]) with similarity at least 0.5, ascending, then n * n,
        which no pair has; memoised per values."""
        key = tuple(values)
        if key not in self._relevant:
            col, n = {v: i for i, v in enumerate(key)}, len(key)
            codes = sorted(col[a] * n + col[b] for (a, b), sim in self.table.items()
                           if sim >= 0.5 and a != b and a in col and b in col)
            self._relevant[key] = np.array(codes + [n * n], dtype=np.intp)
        return self._relevant[key]


@dataclass
class PositionWeightConfig:
    """Everything position_aware_loss needs besides the model and batch. The
    boundary between the semantic and the efficiency rule is not set here:
    each target docID carries its own `semantic_len`."""

    oracle: RelevanceOracle
    trie: DocIdTrie
    lambda_h: float = 0.8
    lambda_s: float = 0.1
    lambda_e: float = 0.1
    position_aware: bool = True


# ---------------------------------------------------------------------------
# model


@dataclass
class DecoderConfig:
    emb: int = 24
    d_model: int = 48
    hidden: tuple[int, ...] = (64,)
    query_len: int = 4
    context_len: int = 4
    lr: float = 5e-5
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0


class PositionVocab:
    """The trie's per-position token values (the head columns), their offsets
    in the token table, and the SHA-256 of its sorted (item_id, tokens) map."""

    def __init__(self, trie: DocIdTrie):
        if trie.n_items == 0:
            raise DataError("cannot build a position vocabulary from no docIDs")
        pairs = sorted((item_id, list(tokens)) for tokens, item_id, _score in trie.leaves)
        self.docid_map = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
        self._set_values(trie.values)

    def _set_values(self, values: list[list[int]]) -> None:
        self.values = values
        self.offsets = np.concatenate([[0], np.cumsum([len(v) for v in values])])

    def to_json(self) -> dict:
        return {"values": [list(v) for v in self.values], "docid_map": self.docid_map}

    @classmethod
    def from_json(cls, d: dict) -> "PositionVocab":
        obj = cls.__new__(cls)
        obj._set_values([list(map(int, v)) for v in d["values"]])
        obj.docid_map = d["docid_map"]
        return obj


@dataclass
class DecoderBatch:
    user_idx: np.ndarray
    query_idx: np.ndarray
    context_idx: np.ndarray
    targets: list[DocId]

    @property
    def size(self) -> int:
        return self.user_idx.shape[0]

    def take(self, sel) -> "DecoderBatch":
        return DecoderBatch(self.user_idx[sel], self.query_idx[sel], self.context_idx[sel],
                            [self.targets[i] for i in sel])


class DecoderModel:
    """Feature encoder plus per-position token heads over the docID vocabulary.
    `enc_net` and `step_net` are (W, b, activation) stacks, and `step_layers[t]`
    is `step_net` with head t as its last layer."""

    def __init__(self, vocab: Vocab, pos_vocab: PositionVocab, config: DecoderConfig):
        self.vocab = vocab
        self.pos_vocab = pos_vocab
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config
        self.user_table = nn.Table(rng, len(vocab.users) + 1, c.emb)
        self.query_table = nn.Table(rng, len(vocab.query_tokens) + 1, c.emb)
        self.context_table = nn.Table(rng, len(vocab.items) + 1, c.emb)
        self.pool_query = nn.Table(rng, 1, c.emb)
        self.pool_context = nn.Table(rng, 1, c.emb)
        # tanh hidden layers: relu risks exact zero logits with zero biases
        acts = ["tanh"] * len(c.hidden) + ["identity"]
        self.enc_net = nn.dense_stack([3 * c.emb, *c.hidden, c.d_model], acts, rng)
        self.tok_table = nn.Table(rng, int(pos_vocab.offsets[-1]), c.d_model)
        self.pos_table = nn.Table(rng, len(pos_vocab.values), c.d_model)
        self.step_net = nn.dense_stack([2 * c.d_model, *c.hidden, c.d_model], acts, rng)
        self.head_w = [nn.Tensor(nn.glorot_uniform(rng, c.d_model, len(values)), requires_grad=True)
                       for values in pos_vocab.values]
        self.head_b = [nn.Tensor(np.zeros(len(values)), requires_grad=True)
                       for values in pos_vocab.values]
        self.step_layers = [self.step_net + [(w, b, "identity")]
                            for w, b in zip(self.head_w, self.head_b)]

    def params(self) -> dict[str, nn.Tensor]:
        out = {"user_table": self.user_table, "query_table": self.query_table,
               "context_table": self.context_table, "pool_query": self.pool_query,
               "pool_context": self.pool_context, "tok_table": self.tok_table,
               "pos_table": self.pos_table}
        out.update(nn.stack_params("enc_net", self.enc_net))
        out.update(nn.stack_params("step_net", self.step_net))
        for t, (w, b) in enumerate(zip(self.head_w, self.head_b)):
            out[f"head{t}.W"] = w
            out[f"head{t}.b"] = b
        return out

    # -- feature encoding ----------------------------------------------------

    def prepare_rows(self, rows, docids: dict[str, DocId] | None = None) -> DecoderBatch:
        """Index arrays of rows, with the target items' docIDs when docids
        is given."""
        targets: list[DocId] = []
        if docids is not None:
            missing = sorted({r.target_item_id for r in rows} - set(docids))
            if missing:
                raise DataError(f"rows target items without docIDs: {missing[:10]}")
            targets = [docids[r.target_item_id] for r in rows]
        return DecoderBatch(*row_indices(rows, self.vocab, self.config.query_len,
                                         self.config.context_len), targets)

    def encode(self, batch: DecoderBatch) -> nn.Tensor:
        b = batch.size
        zeros = np.zeros(b, dtype=np.intp)
        x_u = nn.gather(self.user_table, batch.user_idx)
        x_q = nn.gather(self.query_table, batch.query_idx)
        x_c = nn.gather(self.context_table, batch.context_idx)
        pq = nn.reshape(nn.gather(self.pool_query, zeros), (b, 1, self.config.emb))
        pc = nn.reshape(nn.gather(self.pool_context, zeros), (b, 1, self.config.emb))
        pooled_q = nn.reshape(nn.attention_batched(pq, x_q, x_q, self.config.emb),
                              (b, self.config.emb))
        pooled_c = nn.reshape(nn.attention_batched(pc, x_c, x_c, self.config.emb),
                              (b, self.config.emb))
        return nn.dense(nn.concat([x_u, pooled_q, pooled_c], axis=1), self.enc_net)

    def encode_infer(self, batch: DecoderBatch) -> np.ndarray:
        """encode(batch).data in plain numpy: the same gathers and attention, then
        `enc_net` through `nn.infer` row by row, so a row's bits do not depend on the
        batch size; `nn.infer` checks the pooled input's width."""
        b, emb = batch.size, self.config.emb
        zeros = np.zeros(b, dtype=np.intp)
        x_q = self.query_table.data[batch.query_idx]
        x_c = self.context_table.data[batch.context_idx]
        pq = self.pool_query.data[zeros].reshape(b, 1, emb)
        pc = self.pool_context.data[zeros].reshape(b, 1, emb)
        pooled_q = nn.attention_infer(pq, x_q, x_q, emb)[0].reshape(b, emb)
        pooled_c = nn.attention_infer(pc, x_c, x_c, emb)[0].reshape(b, emb)
        return nn.infer(np.concatenate([self.user_table.data[batch.user_idx], pooled_q,
                                        pooled_c], axis=1), self.enc_net, rowwise=True)

    # -- stepwise logits -----------------------------------------------------

    def position_logits(self, ctx: nn.Tensor, prefixes: list[tuple[int, ...]],
                        t: int) -> nn.Tensor:
        """Logits over the position-t vocabulary given prefixes as their trie
        nodes' heads, the columns the trie owns: the sum of the prefix's token-plus-
        position embeddings goes with ctx through `step_layers[t]`, head t last."""
        if t >= len(self.pos_vocab.values):
            raise DataError(f"position {t} beyond vocabulary depth {len(self.pos_vocab.values)}")
        idx = np.asarray(prefixes, dtype=np.intp) + self.pos_vocab.offsets[:t]
        tok_sum = nn.sum_axis(nn.gather(self.tok_table, idx), 1)    # zeros when t == 0
        pos_sum = nn.sum_axis(nn.gather(self.pos_table, np.arange(t, dtype=np.intp)), 0)
        prefix_vec = nn.add(tok_sum, pos_sum)
        return nn.dense(nn.concat([ctx, prefix_vec], axis=1), self.step_layers[t])

    def step_logits(self, ctx: np.ndarray, heads: np.ndarray, t: int) -> np.ndarray:
        """position_logits(ctx, heads, t).data in plain numpy for (B, t) heads: the same
        `step_layers[t]`, head t last, run row by row, so a row's bits do not depend on B."""
        tok_sum = self.tok_table.data[heads + self.pos_vocab.offsets[:t]].sum(axis=1)
        prefix_vec = tok_sum + self.pos_table.data[:t].sum(axis=0)
        return nn.infer(np.concatenate([ctx, prefix_vec], axis=1), self.step_layers[t],
                        rowwise=True)

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.params(),
                           {"vocab": to_json(self.vocab), "pos_vocab": self.pos_vocab.to_json(),
                            "config": to_json(self.config)})

    @classmethod
    def load(cls, path) -> "DecoderModel":
        return nn.load_checkpoint(path, lambda extra: cls(
            from_json(Vocab, extra["vocab"]), PositionVocab.from_json(extra["pos_vocab"]),
            from_json(DecoderConfig, extra["config"])))


def load_for_index(index_path, checkpoint_path) -> tuple[DecoderModel, DocIdTrie]:
    """The decoder checkpoint and the trie of the index; a checkpoint trained
    on the docIDs of another index raises CheckpointError."""
    _docids, _scores, trie = load_index(index_path)
    model = DecoderModel.load(checkpoint_path)
    if model.pos_vocab.docid_map != PositionVocab(trie).docid_map:
        raise CheckpointError(f"{checkpoint_path} has no record of training on the docIDs of "
                              f"{index_path}; re-run train-decoder")
    return model, trie


# ---------------------------------------------------------------------------
# loss


def greedy_argmax_token(trie: DocIdTrie, ids: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """For each row, the id of the highest-logit child of trie node ids[row]
    under logits[row] (ties go to the first child, the smallest token)."""
    first, counts = trie.first[ids], trie.counts[ids]
    # each row's child run, padded by repeating its last child: argmax takes the
    # first maximum, so it never picks a pad over the child it copies
    child = np.minimum(first[:, None] + np.arange(counts.max()), (first + counts - 1)[:, None])
    return first + logits[np.arange(len(ids))[:, None], trie.heads[child]].argmax(axis=1)


def _encode_fused(model: DecoderModel, batch: DecoderBatch):
    """model.encode(batch).data in plain numpy, and the function that adds the
    encoder's parameter gradients under a gradient of it into their .grad, with the
    products and order of encode's graph. Rows are read through `nn.gather`, whose
    nodes are dropped: the backward scatters into the tables with `nn.row_sums`."""
    b, emb = batch.size, model.config.emb
    zeros = np.zeros(b, dtype=np.intp)
    lookups = ((model.user_table, batch.user_idx), (model.query_table, batch.query_idx),
               (model.context_table, batch.context_idx), (model.pool_query, zeros),
               (model.pool_context, zeros))
    x_u, x_q, x_c, pq, pc = (nn.gather(table, idx).data for table, idx in lookups)
    pq, pc = pq.reshape(b, 1, emb), pc.reshape(b, 1, emb)
    pooled_q, attn_q = nn.attention_infer(pq, x_q, x_q, emb)
    pooled_c, attn_c = nn.attention_infer(pc, x_c, x_c, emb)
    hs = nn.dense_forward(np.concatenate([x_u, pooled_q.reshape(b, emb),
                                          pooled_c.reshape(b, emb)], axis=1), model.enc_net)

    def backward(g):
        g_in = nn.dense_backward(g, hs, model.enc_net)
        # contiguous, as the graph's copies are: einsum's summation may follow the layout
        dq, dk, dv = nn.attention_backward(g_in[:, emb:2 * emb].reshape(b, 1, emb).copy(),
                                           pq, x_q, x_q, attn_q, emb)
        dqc, dkc, dvc = nn.attention_backward(g_in[:, 2 * emb:].reshape(b, 1, emb).copy(),
                                              pc, x_c, x_c, attn_c, emb)
        grads = (g_in[:, :emb], dk + dv, dkc + dvc, dq.reshape(b, emb), dqc.reshape(b, emb))
        for (table, idx), grad in zip(lookups, grads):
            nn._accum(table, nn.row_sums(idx, grad, table.data.shape), own=True)

    return hs[-1], backward


def position_aware_loss(batch: DecoderBatch, model: DecoderModel,
                        weights: PositionWeightConfig):
    """Mean over the batch of sum_t w_t * CE(y_t | prefix), w_t a constant:
    lambda_h times the hierarchical decay, plus lambda_s up to the row's
    `semantic_len` where the greedy pick y^_t is not relevant to y_t, or lambda_e
    |E(y_t) - E(y^_t)| past it. Each target is walked once, to its trie node
    ids. Returns (loss tensor, per-position accuracy dict).

    The loss is one graph node over every parameter. Its forward runs in plain numpy
    the ops `encode`, `position_logits` and a softmax cross-entropy node would, in
    their order. Its backward visits the depths in ascending order, then the encoder,
    and adds into each parameter that several depths share (`step_net`, `tok_table`,
    `pos_table`, and the gradient of the encoding) in that order, the order the per-op
    graph's reversed depth-first walk took, so every gradient keeps its bits. The
    per-op graph's intermediate `+ 0.0` copies are left out: they change only the
    sign of a zero, which no non-zero sum or product sees, and a parameter's first
    `_accum` and `nn.row_sums` both turn -0.0 into +0.0."""
    trie, d_model = weights.trie, model.config.d_model
    path = trie.paths([d.tokens for d in batch.targets])
    ctx, encode_backward = _encode_fused(model, batch)
    last = (path >= 0).sum(axis=1) - 1
    semantic_len = np.array([d.semantic_len for d in batch.targets])
    total = None
    accuracy: dict[int, float] = {}
    # per depth: the active rows, their prefix's token rows, the step layers' arrays,
    # the log-softmax, its target columns and the weights
    steps = []
    for t in range(path.shape[1]):
        active = np.flatnonzero(path[:, t] >= 0)
        y = path[active, t]
        idx = trie.heads[path[active, :t]] + model.pos_vocab.offsets[:t]
        prefix_vec = (nn.gather(model.tok_table, idx).data.sum(axis=1)   # zeros when t == 0
                      + nn.gather(model.pos_table, np.arange(t, dtype=np.intp)).data.sum(axis=0))
        hs = nn.dense_forward(np.concatenate([ctx[active], prefix_vec], axis=1),
                              model.step_layers[t])
        y_hat = greedy_argmax_token(trie, path[active, t - 1] if t else np.zeros_like(y),
                                    hs[-1])
        accuracy[t] = int((y_hat == y).sum()) / len(active)
        w = np.ones(len(active))
        if weights.position_aware:
            decay = np.array([hierarchical_weight(t, n) if n >= t else 0.0
                              for n in range(path.shape[1])])
            w = weights.lambda_h * decay[last[active]]
            past = t > semantic_len[active]
            # a miss up to the boundary whose pair of head columns the oracle calls
            # relevant escapes lambda_s; similarity(y, y) is 1
            miss = np.flatnonzero(~past & (y_hat != y))
            codes = trie.heads[y[miss]] * len(trie.values[t]) + trie.heads[y_hat[miss]]
            relevant = weights.oracle.relevant_codes(trie.values[t])
            w[miss[relevant[np.searchsorted(relevant, codes)] != codes]] += weights.lambda_s
            w[past] += weights.lambda_e * np.abs(trie.scores[y[past]] - trie.scores[y_hat[past]])
        lsm = nn.log_softmax_rows(hs[-1])
        target = trie.heads[y]
        contrib = (-lsm[np.arange(len(active)), target] * w).sum()
        total = contrib if total is None else total + contrib
        steps.append((active, idx, hs, lsm, target, w))

    def backward(g):
        g = g * (1.0 / batch.size)
        g_ctx = np.zeros_like(ctx)
        for t, (active, idx, hs, lsm, target, w) in enumerate(steps):
            d_logits = np.exp(lsm)
            d_logits[np.arange(len(active)), target] -= 1.0
            g_x = nn.dense_backward(d_logits * (g * w)[:, None], hs, model.step_layers[t])
            g_ctx[active] += g_x[:, :d_model]     # active rows are distinct
            g_prefix = g_x[:, d_model:]
            nn._accum(model.tok_table, nn.row_sums(idx, np.broadcast_to(
                g_prefix[:, None], idx.shape + (d_model,)), model.tok_table.data.shape), own=True)
            nn._accum(model.pos_table, nn.row_sums(np.arange(t), np.broadcast_to(
                g_prefix.sum(axis=0), (t, d_model)), model.pos_table.data.shape), own=True)
        encode_backward(g_ctx)

    loss = np.asarray(total * (1.0 / batch.size))
    return nn._node(loss, tuple(model.params().values()), backward), accuracy


# ---------------------------------------------------------------------------
# decoding


def check_beam(beam_width: int, k: int) -> None:
    if k < 1 or beam_width < k:
        raise ConfigError(f"need beam_width >= k >= 1, got beam_width={beam_width} k={k}")


def constrained_beam_search(row, model: DecoderModel, trie: DocIdTrie, beam_width: int,
                            k: int):
    """Top-k docIDs by cumulative log-probability, extending hypotheses only
    along trie children. Ties break lexicographically on token values, which is
    the order of the nodes' first leaf indices. Returns [(DocId, logprob, item_id)].

    At a depth where leaves finish beside live hypotheses, a live one below the k-th
    best leaf finished so far is dropped, ties kept. This is exact: a log-softmax value
    is <= 0 (its normaliser's sum includes exp(0) = 1) and adding one never raises a
    float sum, so no leaf below it could reach the top k; every score keeps its bits."""
    check_beam(beam_width, k)
    if trie.n_items == 0:
        raise IndexBuildError("cannot decode against an empty trie")
    ctx = model.encode_infer(model.prepare_rows([row]))

    # the live hypotheses: their node ids, the heads along their tokens, their logprobs
    ids = np.zeros(1, dtype=np.intp)
    heads = np.zeros((1, 0), dtype=np.intp)
    lps = np.zeros(1)
    done: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []    # (logprobs, los, leaf ids)
    best = np.full(k, -np.inf)      # the k best finished logprobs, descending
    for depth in range(trie.max_depth):
        # one call per depth: step_logits and log_softmax_rows's z - norm, taken only at the
        # children, are row-independent, so scores keep brute_force_scores' one-row bits
        z = model.step_logits(np.repeat(ctx, len(ids), 0), heads, depth)
        z -= z.max(axis=1, keepdims=True)
        norm = np.log(np.exp(z).sum(axis=1))
        # every live node's children, each node's as one run of ids in token order
        counts = trie.counts[ids]
        ends = np.cumsum(counts)
        parent = np.repeat(np.arange(len(ids)), counts)
        child = np.repeat(trie.first[ids] - ends + counts, counts) + np.arange(ends[-1])
        child_heads = trie.heads[child]
        child_lps = lps[parent] + (z[parent, child_heads] - norm[parent])
        child_los = trie.los[child]
        leaf = trie.counts[child] == 0
        live = ~leaf
        if leaf.any():
            done.append((child_lps[leaf], child_los[leaf], child[leaf]))
            if live.any():
                best = -np.sort(-np.concatenate([best, child_lps[leaf]]))[:k]
                live &= child_lps >= best[-1]       # ties stay
        if not live.any():
            break
        keep = np.flatnonzero(live)[np.lexsort((child_los[live], -child_lps[live]))[:beam_width]]
        ids, lps = child[keep], child_lps[keep]
        heads = np.concatenate([heads[parent[keep]], child_heads[keep, None]], axis=1)
    if not done:
        return []
    lps, los, leaf_ids = (np.concatenate(part) for part in zip(*done))
    top = [(trie.nodes[leaf_ids[i]], float(lps[i])) for i in np.lexsort((los, -lps))[:k]]
    return [(leaf.docid, lp, leaf.item_id) for leaf, lp in top]


def brute_force_scores(model: DecoderModel, trie: DocIdTrie, row):
    """Score every docID in the trie by stepwise log-probability; the
    independent oracle for beam-search equivalence."""
    ctx_np = model.encode(model.prepare_rows([row])).data[:1]
    scored = []
    for tokens, item_id, _score in trie.leaves:
        lp, node, heads = 0.0, trie.root, ()
        for t in range(len(tokens)):
            logits = model.position_logits(nn.Tensor(ctx_np), [heads], t).data
            node = node.children[tokens[t]]
            lp = lp + float(nn.log_softmax_rows(logits)[0, node.head])
            heads += (node.head,)
        scored.append((tokens, lp, item_id))
    scored.sort(key=lambda d: (-d[1], d[0]))
    return scored


# ---------------------------------------------------------------------------
# training


def train_decoder(rows, catalog, docids: dict[str, DocId], weights: PositionWeightConfig,
                  config: DecoderConfig):
    """Train with nn.fit on clicked rows whose targets have docIDs; reports
    per-position teacher-forced accuracy per epoch. Returns (model, history)."""
    clicked = [r for r in rows if r.click == 1]
    if not clicked:
        raise DataError("no clicked rows to train the decoder on")
    vocab = Vocab.build(rows, catalog)
    model = DecoderModel(vocab, PositionVocab(weights.trie), config)
    data = model.prepare_rows(clicked, docids)

    def batch_loss(sel):
        loss, accuracy = position_aware_loss(data.take(sel), model, weights)
        return loss, {"position_accuracy": accuracy}

    return model, nn.fit(model.params(), data.size, batch_loss, lr=config.lr,
                         epochs=config.epochs, batch_size=config.batch_size,
                         seed=config.seed, stage="decoder")
