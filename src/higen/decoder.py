"""Compact autoregressive docID generator.

A feature encoder pools (user, query, context) into one vector; each docID
position gets its own output head over the tokens that actually occur
there. Training uses teacher forcing with a per-position weighted
cross-entropy; decoding walks the docID trie with beam search.

The docID trie owns child order, head columns and leaf order: decoding reads
each node's `head`, its token's column in its position's head.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import from_json, to_json
from .docid import DocId, DocIdTrie, TrieNode, load_index
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

    def similarity(self, a: int, b: int) -> float:
        if a == b:
            return 1.0
        return self.table.get((a, b), 0.0)


def position_weight(t: int, last: int, semantic_len: int, y_t: int, y_hat_t: int,
                    e_lookup, oracle: RelevanceOracle, lambda_h: float = 0.8,
                    lambda_s: float = 0.1, lambda_e: float = 0.1) -> float:
    """Weighted mix of hierarchical decay, semantic-relevance penalty
    (positions t <= semantic_len, the category path and the first cluster
    token), and efficiency divergence (positions past it)."""
    w = lambda_h * hierarchical_weight(t, last)
    if t <= semantic_len:
        if oracle.similarity(y_t, y_hat_t) < 0.5:
            w += lambda_s
    else:
        w += lambda_e * abs(e_lookup(y_t) - e_lookup(y_hat_t))
    return w


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
        obj.docid_map = d.get("docid_map")    # None in checkpoints from before the record
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
    """Feature encoder plus per-position token heads over the docID
    vocabulary."""

    def __init__(self, vocab: Vocab, pos_vocab: PositionVocab, config: DecoderConfig):
        self.vocab = vocab
        self.pos_vocab = pos_vocab
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config

        def table(rows, cols):
            return nn.Tensor(nn.glorot_uniform(rng, max(rows, 1), cols), requires_grad=True)

        self.user_table = table(len(vocab.users) + 1, c.emb)
        self.query_table = table(len(vocab.query_tokens) + 1, c.emb)
        self.context_table = table(len(vocab.items) + 1, c.emb)
        self.pool_query = table(1, c.emb)
        self.pool_context = table(1, c.emb)
        # tanh hidden layers: relu risks exact zero logits with zero biases
        acts = ["tanh"] * len(c.hidden) + ["identity"]
        self.enc_net = nn.DenseNet([3 * c.emb, *c.hidden, c.d_model], acts, rng, "enc_net")
        self.tok_table = table(int(pos_vocab.offsets[-1]), c.d_model)
        self.pos_table = table(len(pos_vocab.values), c.d_model)
        self.step_net = nn.DenseNet([2 * c.d_model, *c.hidden, c.d_model], acts, rng, "step_net")
        self.head_w = [table(c.d_model, len(values)) for values in pos_vocab.values]
        self.head_b = [nn.Tensor(np.zeros(len(values)), requires_grad=True)
                       for values in pos_vocab.values]

    def params(self) -> dict[str, nn.Tensor]:
        out = {"user_table": self.user_table, "query_table": self.query_table,
               "context_table": self.context_table, "pool_query": self.pool_query,
               "pool_context": self.pool_context, "tok_table": self.tok_table,
               "pos_table": self.pos_table}
        out.update(self.enc_net.params())
        out.update(self.step_net.params())
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
        return self.enc_net.forward(nn.concat([x_u, pooled_q, pooled_c], axis=1))

    def encode_infer(self, batch: DecoderBatch) -> np.ndarray:
        """encode(batch).data in plain numpy: the same gathers and attention, then
        enc_net.infer, so a row's bits do not depend on the batch size."""
        b, emb = batch.size, self.config.emb
        zeros = np.zeros(b, dtype=np.intp)
        x_q = self.query_table.data[batch.query_idx]
        x_c = self.context_table.data[batch.context_idx]
        pq = self.pool_query.data[zeros].reshape(b, 1, emb)
        pc = self.pool_context.data[zeros].reshape(b, 1, emb)
        pooled_q = nn.attention_infer(pq, x_q, x_q, emb)[0].reshape(b, emb)
        pooled_c = nn.attention_infer(pc, x_c, x_c, emb)[0].reshape(b, emb)
        return self.enc_net.infer(np.concatenate(
            [self.user_table.data[batch.user_idx], pooled_q, pooled_c], axis=1))

    # -- stepwise logits -----------------------------------------------------

    def position_logits(self, ctx: nn.Tensor, prefixes: list[tuple[int, ...]],
                        t: int) -> nn.Tensor:
        """Logits over the position-t vocabulary given prefixes as their trie
        nodes' heads, the columns the trie owns; the prefix summary is the sum
        of token-plus-position embeddings pushed through the step network."""
        if t >= len(self.pos_vocab.values):
            raise DataError(f"position {t} beyond vocabulary depth {len(self.pos_vocab.values)}")
        idx = np.asarray(prefixes, dtype=np.intp) + self.pos_vocab.offsets[:t]
        tok_sum = nn.sum_axis(nn.gather(self.tok_table, idx), 1)    # zeros when t == 0
        pos_sum = nn.sum_axis(nn.gather(self.pos_table, np.arange(t, dtype=np.intp)), 0)
        prefix_vec = nn.add(tok_sum, pos_sum)
        state = self.step_net.forward(nn.concat([ctx, prefix_vec], axis=1))
        return nn.add(nn.matmul(state, self.head_w[t]), self.head_b[t])

    def step_logits(self, ctx: np.ndarray, heads: np.ndarray, t: int) -> np.ndarray:
        """position_logits(ctx, heads, t).data in plain numpy for (B, t) heads. Products
        are stacked per row as in DenseNet.infer, so a row's bits do not depend on B."""
        tok_sum = self.tok_table.data[heads + self.pos_vocab.offsets[:t]].sum(axis=1)
        prefix_vec = tok_sum + self.pos_table.data[:t].sum(axis=0)
        state = self.step_net.infer(np.concatenate([ctx, prefix_vec], axis=1))
        return (state[:, None, :] @ self.head_w[t].data)[:, 0] + self.head_b[t].data

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
    """The decoder checkpoint and the trie of the index; a checkpoint that
    records no docID map, or that of another index, raises CheckpointError."""
    _docids, _node_scores, trie = load_index(index_path)
    model = DecoderModel.load(checkpoint_path)
    if model.pos_vocab.docid_map != PositionVocab(trie).docid_map:
        raise CheckpointError(f"{checkpoint_path} has no record of training on the docIDs of "
                              f"{index_path}; re-run train-decoder")
    return model, trie


# ---------------------------------------------------------------------------
# loss


def greedy_argmax_token(node: TrieNode, logits_row: np.ndarray) -> int:
    """Highest-logit token among the children of the trie node of the
    teacher-forced prefix (ties go to the smallest token value)."""
    kids = node.child_arrays()
    return int(kids.tokens[np.argmax(logits_row[kids.heads])])


def position_aware_loss(batch: DecoderBatch, model: DecoderModel,
                        weights: PositionWeightConfig):
    """Mean over the batch of sum_t w_t * CE(y_t | prefix); the weights are
    constants (no gradient flows through the greedy prediction). Each row's
    target DocId sets its own boundary: positions up to its `semantic_len`
    take the semantic-relevance penalty, later ones the efficiency
    divergence. Returns (loss tensor, per-position accuracy dict)."""
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
            y_hat = greedy_argmax_token(node, logits.data[pos])
            hits[t] = hits.get(t, 0) + (1 if y_hat == y_t else 0)
            counts[t] = counts.get(t, 0) + 1
            if weights.position_aware:
                w[pos] = position_weight(t, len(tokens) - 1, batch.targets[i].semantic_len,
                                         y_t, y_hat, lambda tok: node.children[tok].score,
                                         weights.oracle, weights.lambda_h, weights.lambda_s,
                                         weights.lambda_e)
            nodes[i] = node.children[y_t]
            heads[i] += (nodes[i].head,)
        ce = nn.softmax_cross_entropy(logits, [nodes[i].head for i in active])
        contrib = nn.sum_all(nn.mul_const(ce, w))
        total = contrib if total is None else nn.add(total, contrib)
    accuracy = {t: hits[t] / counts[t] for t in counts}
    return nn.mul_const(total, 1.0 / b), accuracy


# ---------------------------------------------------------------------------
# decoding


def check_beam(beam_width: int, k: int) -> None:
    if k < 1 or beam_width < k:
        raise ConfigError(f"need beam_width >= k >= 1, got beam_width={beam_width} k={k}")


def constrained_beam_search(row, model: DecoderModel, trie: DocIdTrie, beam_width: int,
                            k: int):
    """Top-k docIDs by cumulative log-probability, extending hypotheses only
    along trie children. Ties break lexicographically on token values, which is
    the order of the nodes' first leaf indices. Returns [(DocId, logprob, item_id)]."""
    check_beam(beam_width, k)
    if trie.n_items == 0:
        raise IndexBuildError("cannot decode against an empty trie")
    ctx = model.encode_infer(model.prepare_rows([row]))

    # the live hypotheses: their trie nodes, the heads along their tokens, their logprobs
    nodes = np.array([trie.root], dtype=object)
    heads = np.zeros((1, 0), dtype=np.intp)
    lps = np.zeros(1)
    done: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []    # (logprobs, los, leaves)
    for depth in range(trie.max_depth):
        # one call per depth: step_logits and log_softmax_rows are row-independent,
        # so every score keeps the bits of the one-row brute_force_scores oracle
        logprobs = nn.log_softmax_rows(
            model.step_logits(np.repeat(ctx, len(nodes), 0), heads, depth))
        kids = [node.child_arrays() for node in nodes]
        parent = np.repeat(np.arange(len(kids)), [len(c.heads) for c in kids])
        child_heads = np.concatenate([c.heads for c in kids])
        child_lps = lps[parent] + logprobs[parent, child_heads]
        child_los = np.concatenate([c.los for c in kids])
        child_nodes = np.concatenate([c.nodes for c in kids])
        leaf = np.concatenate([c.leaf for c in kids])
        if leaf.any():
            done.append((child_lps[leaf], child_los[leaf], child_nodes[leaf]))
        live = np.flatnonzero(~leaf)
        if not len(live):
            break
        keep = live[np.lexsort((child_los[live], -child_lps[live]))[:beam_width]]
        nodes, lps = child_nodes[keep], child_lps[keep]
        heads = np.concatenate([heads[parent[keep]], child_heads[keep, None]], axis=1)
    if not done:
        return []
    lps, los, leaves = (np.concatenate(part) for part in zip(*done))
    return [(leaves[i].docid, float(lps[i]), leaves[i].item_id)
            for i in np.lexsort((los, -lps))[:k]]


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
