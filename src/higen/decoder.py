"""Compact autoregressive docID generator.

A feature encoder pools (user, query, context) into one vector; each docID
position gets its own output head over the tokens that actually occur
there. Training uses teacher forcing with a per-position weighted
cross-entropy; decoding walks the docID trie with beam search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .docid import DocId, DocIdTrie
from .errors import ConfigError, DataError, DimensionError, IndexBuildError
from .representation import Vocab


# ---------------------------------------------------------------------------
# position weights


def hierarchical_weight(t: int, last: int) -> float:
    """Decay weight e^(L-t) / sum_{i=0..L} e^i for position t of a docID
    whose final position index is L."""
    if not 0 <= t <= last:
        raise DimensionError(f"position {t} outside [0, {last}]")
    return float(np.exp(last - t) / np.exp(np.arange(last + 1)).sum())


def hierarchical_weights(last: int) -> np.ndarray:
    return np.array([hierarchical_weight(t, last) for t in range(last + 1)])


class RelevanceOracle:
    """Symmetric category-similarity table; self-similarity is 1 and unknown
    pairs fall back to a default of 0."""

    def __init__(self, pairs=(), default: float = 0.0):
        self.default = float(default)
        self.table: dict[tuple[int, int], float] = {}
        for a, b, sim in pairs:
            if not 0.0 <= sim <= 1.0:
                raise DataError(f"similarity {sim} for ({a}, {b}) outside [0, 1]")
            self.table[(a, b)] = float(sim)
            self.table[(b, a)] = float(sim)

    def similarity(self, a: int, b: int) -> float:
        if a == b:
            return 1.0
        return self.table.get((a, b), self.default)

    def is_relevant(self, a: int, b: int) -> bool:
        return self.similarity(a, b) >= 0.5


def position_weight(t: int, last: int, semantic_len: int, y_t: int, y_hat_t: int,
                    e_lookup, oracle: RelevanceOracle, lambda_h: float = 0.8,
                    lambda_s: float = 0.1, lambda_e: float = 0.1) -> float:
    """Weighted mix of hierarchical decay, semantic-relevance penalty
    (positions up to the semantic length), and efficiency divergence
    (positions past it)."""
    w = lambda_h * hierarchical_weight(t, last)
    if t <= semantic_len:
        if oracle.similarity(y_t, y_hat_t) < 0.5:
            w += lambda_s
    else:
        w += lambda_e * abs(e_lookup(y_t) - e_lookup(y_hat_t))
    return w


@dataclass
class PositionWeightConfig:
    """Everything position_aware_loss needs besides the model and batch."""

    oracle: RelevanceOracle
    trie: DocIdTrie
    lambda_h: float = 0.8
    lambda_s: float = 0.1
    lambda_e: float = 0.1
    semantic_len: int = 1
    position_aware: bool = True


# ---------------------------------------------------------------------------
# model


@dataclass
class DecoderConfig:
    emb: int = 24
    d_model: int = 48
    hidden: tuple[int, ...] = (64,)
    activation: str = "tanh"   # relu risks exact zero logits with zero biases
    query_len: int = 4
    context_len: int = 4
    lr: float = 5e-5
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0


class PositionVocab:
    """Per-position token values with a packed global embedding index."""

    def __init__(self, docids: dict[str, DocId]):
        if not docids:
            raise DataError("cannot build a position vocabulary from no docIDs")
        n_positions = max(len(d.tokens) for d in docids.values())
        seen: list[set[int]] = [set() for _ in range(n_positions)]
        for d in docids.values():
            for t, tok in enumerate(d.tokens):
                seen[t].add(tok)
        self.values = [sorted(s) for s in seen]
        self.index = [{v: i for i, v in enumerate(vals)} for vals in self.values]
        self.offsets = np.concatenate([[0], np.cumsum([len(v) for v in self.values])])
        self.total = int(self.offsets[-1])
        self.n_positions = n_positions

    def size(self, t: int) -> int:
        return len(self.values[t])

    def local(self, t: int, value: int) -> int:
        try:
            return self.index[t][value]
        except (IndexError, KeyError):
            raise DataError(f"token {value} not in the position-{t} vocabulary") from None

    def global_index(self, t: int, value: int) -> int:
        return int(self.offsets[t]) + self.local(t, value)

    def to_json(self) -> dict:
        return {"values": [list(v) for v in self.values]}

    @classmethod
    def from_json(cls, d: dict) -> "PositionVocab":
        obj = cls.__new__(cls)
        obj.values = [list(map(int, v)) for v in d["values"]]
        obj.index = [{v: i for i, v in enumerate(vals)} for vals in obj.values]
        obj.offsets = np.concatenate([[0], np.cumsum([len(v) for v in obj.values])])
        obj.total = int(obj.offsets[-1])
        obj.n_positions = len(obj.values)
        return obj


@dataclass
class DecoderBatch:
    user_idx: np.ndarray
    query_idx: np.ndarray
    context_idx: np.ndarray
    targets: list[tuple[int, ...]]

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
        acts = [c.activation] * len(c.hidden) + ["identity"]
        self.enc_net = nn.DenseNet([3 * c.emb, *c.hidden, c.d_model], acts, rng, "enc_net")
        self.tok_table = table(pos_vocab.total, c.d_model)
        self.pos_table = table(pos_vocab.n_positions, c.d_model)
        self.step_net = nn.DenseNet([2 * c.d_model, *c.hidden, c.d_model], acts, rng, "step_net")
        self.head_w: list[nn.Tensor] = []
        self.head_b: list[nn.Tensor] = []
        for t in range(pos_vocab.n_positions):
            self.head_w.append(nn.Tensor(nn.glorot_uniform(rng, c.d_model, pos_vocab.size(t)),
                                         requires_grad=True))
            self.head_b.append(nn.Tensor(np.zeros(pos_vocab.size(t)), requires_grad=True))

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
        c = self.config

        def pad(tokens, length):
            return (tokens + [0] * length)[:length]

        user_idx = np.array([self.vocab.users.get(r.user_id, 0) for r in rows], dtype=np.intp)
        query_idx = np.array([pad([self.vocab.query_tokens.get(t, 0) for t in r.query.split()],
                                  c.query_len) for r in rows], dtype=np.intp)
        context_idx = np.array([pad([self.vocab.items.get(i, 0) for i, _tag in r.context],
                                    c.context_len) for r in rows], dtype=np.intp)
        targets: list[tuple[int, ...]] = []
        if docids is not None:
            missing = sorted({r.target_item_id for r in rows} - set(docids))
            if missing:
                raise DataError(f"rows target items without docIDs: {missing[:10]}")
            targets = [docids[r.target_item_id].tokens for r in rows]
        return DecoderBatch(user_idx, query_idx, context_idx, targets)

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

    # -- stepwise logits -----------------------------------------------------

    def prefix_global_indices(self, prefixes: list[tuple[int, ...]], t: int) -> np.ndarray:
        return np.array([[self.pos_vocab.global_index(j, p[j]) for j in range(t)]
                         for p in prefixes], dtype=np.intp)

    def position_logits(self, ctx: nn.Tensor, prefixes: list[tuple[int, ...]],
                        t: int) -> nn.Tensor:
        """Logits over the position-t vocabulary given teacher-forced
        prefixes; the prefix summary is the sum of token-plus-position
        embeddings pushed through the step network."""
        if t >= self.pos_vocab.n_positions:
            raise DataError(f"position {t} beyond vocabulary depth {self.pos_vocab.n_positions}")
        b = ctx.data.shape[0]
        if t == 0:
            prefix_vec = nn.Tensor(np.zeros((b, self.config.d_model)))
        else:
            idx = self.prefix_global_indices(prefixes, t)
            tok_sum = nn.sum_axis(nn.gather(self.tok_table, idx), 1)
            pos_sum = nn.sum_axis(nn.gather(self.pos_table, np.arange(t, dtype=np.intp)), 0)
            prefix_vec = nn.add(tok_sum, pos_sum)
        state = self.step_net.forward(nn.concat([ctx, prefix_vec], axis=1))
        return nn.add(nn.matmul(state, self.head_w[t]), self.head_b[t])

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        cfg = self.config.__dict__ | {"hidden": list(self.config.hidden)}
        nn.save_checkpoint(path, self.params(),
                           {"vocab": self.vocab.to_json(),
                            "pos_vocab": self.pos_vocab.to_json(), "config": cfg})

    @classmethod
    def load(cls, path) -> "DecoderModel":
        arrays, extra = nn.load_checkpoint(path)
        cfg_d = dict(extra["config"])
        cfg_d.pop("loss_window", None)   # retired field, still in older checkpoints
        cfg_d["hidden"] = tuple(cfg_d["hidden"])
        model = cls(Vocab.from_json(extra["vocab"]), PositionVocab.from_json(extra["pos_vocab"]),
                    DecoderConfig(**cfg_d))
        for name, tensor in model.params().items():
            tensor.data = arrays[name]
        return model


# ---------------------------------------------------------------------------
# loss


def greedy_argmax_token(model: DecoderModel, trie: DocIdTrie, logits_row: np.ndarray,
                        prefix: tuple[int, ...], t: int) -> int:
    """Highest-logit token among the trie children of the teacher-forced
    prefix (ties go to the smallest token value)."""
    node = trie.node_at(prefix)
    if node is None or not node.children:
        raise DataError(f"teacher-forced prefix {prefix} has no trie children")
    children = sorted(node.children)
    locals_ = [model.pos_vocab.local(t, v) for v in children]
    return children[int(np.argmax(logits_row[locals_]))]


def position_aware_loss(batch: DecoderBatch, model: DecoderModel,
                        weights: PositionWeightConfig, ctx: nn.Tensor | None = None):
    """Mean over the batch of sum_t w_t * CE(y_t | prefix); the weights are
    constants (no gradient flows through the greedy prediction). Returns
    (loss tensor, per-position accuracy dict)."""
    if ctx is None:
        ctx = model.encode(batch)
    b = batch.size
    max_len = max(len(tok) for tok in batch.targets)
    total = None
    hits: dict[int, int] = {}
    counts: dict[int, int] = {}
    for t in range(max_len):
        active = [i for i in range(b) if len(batch.targets[i]) > t]
        prefixes = [batch.targets[i][:t] for i in active]
        logits = model.position_logits(nn.take_rows(ctx, active), prefixes, t)
        local_targets = np.array([model.pos_vocab.local(t, batch.targets[i][t])
                                  for i in active], dtype=np.intp)
        ce = nn.softmax_cross_entropy(logits, local_targets)
        w = np.ones(len(active))
        for pos, i in enumerate(active):
            tokens = batch.targets[i]
            y_t = tokens[t]
            y_hat = greedy_argmax_token(model, weights.trie, logits.data[pos], tokens[:t], t)
            hits[t] = hits.get(t, 0) + (1 if y_hat == y_t else 0)
            counts[t] = counts.get(t, 0) + 1
            if weights.position_aware:
                def e_lookup(tok, _prefix=tokens[:t]):
                    return weights.trie.score_at(_prefix + (tok,))

                w[pos] = position_weight(t, len(tokens) - 1, weights.semantic_len, y_t, y_hat,
                                         e_lookup, weights.oracle, weights.lambda_h,
                                         weights.lambda_s, weights.lambda_e)
        contrib = nn.sum_all(nn.mul_const(ce, w))
        total = contrib if total is None else nn.add(total, contrib)
    accuracy = {t: hits[t] / counts[t] for t in counts}
    return nn.scale(total, 1.0 / b), accuracy


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class BeamHypothesis:
    tokens: tuple[int, ...]
    logprob: float


def constrained_beam_search(row, model: DecoderModel, trie: DocIdTrie, beam_width: int,
                            k: int):
    """Top-k docIDs by cumulative log-probability, extending hypotheses only
    along trie children. Ties break lexicographically on token values.
    Returns [(DocId, logprob, item_id)]."""
    if k < 1 or beam_width < k:
        raise ConfigError(f"need beam_width >= k >= 1, got beam_width={beam_width} k={k}")
    if trie.n_items == 0:
        raise IndexBuildError("cannot decode against an empty trie")
    batch = row if isinstance(row, DecoderBatch) else model.prepare_rows([row])
    ctx_np = model.encode(batch).data[:1]

    active: list[BeamHypothesis] = [BeamHypothesis((), 0.0)]
    done: list[tuple[tuple[int, ...], float, str]] = []
    for depth in range(trie.max_depth):
        if not active:
            break
        extensions: list[BeamHypothesis] = []
        for hyp in active:
            # one hypothesis per forward pass keeps scores bit-identical to
            # the exhaustive oracle regardless of batch shape
            logits = model.position_logits(nn.Tensor(ctx_np), [hyp.tokens], depth).data
            logprobs = nn.log_softmax_rows(logits)
            node = trie.node_at(hyp.tokens)
            for value in sorted(node.children):
                child = node.children[value]
                lp = hyp.logprob + float(logprobs[0, model.pos_vocab.local(depth, value)])
                if child.item_id is not None:
                    done.append((hyp.tokens + (value,), lp, child.item_id))
                else:
                    extensions.append(BeamHypothesis(hyp.tokens + (value,), lp))
        extensions.sort(key=lambda h: (-h.logprob, h.tokens))
        active = extensions[:beam_width]
    done.sort(key=lambda d: (-d[1], d[0]))
    out = []
    for tokens, lp, item_id in done[:k]:
        leaf = trie.node_at(tokens)
        out.append((leaf.docid, lp, item_id))
    return out


def brute_force_scores(model: DecoderModel, trie: DocIdTrie, row):
    """Score every docID in the trie by stepwise log-probability; the
    independent oracle for beam-search equivalence."""
    batch = row if isinstance(row, DecoderBatch) else model.prepare_rows([row])
    ctx_np = model.encode(batch).data[:1]
    entries = trie.enumerate_docids()
    scored = []
    for tokens, item_id in entries:
        lp = 0.0
        for t in range(len(tokens)):
            ctx = nn.Tensor(ctx_np)
            logits = model.position_logits(ctx, [tokens[:t]], t).data
            lp = lp + float(nn.log_softmax_rows(logits)[0, model.pos_vocab.local(t, tokens[t])])
        scored.append((tokens, lp, item_id))
    scored.sort(key=lambda d: (-d[1], d[0]))
    return scored


# ---------------------------------------------------------------------------
# training


def train_decoder(rows, catalog, docids: dict[str, DocId], trie: DocIdTrie,
                  weights: PositionWeightConfig, config: DecoderConfig):
    """Train with nn.fit on clicked rows whose targets have docIDs; reports
    per-position teacher-forced accuracy per epoch. Returns (model, history)."""
    clicked = [r for r in rows if r.click == 1]
    if not clicked:
        raise DataError("no clicked rows to train the decoder on")
    vocab = Vocab.build(rows, catalog)
    model = DecoderModel(vocab, PositionVocab(docids), config)
    data = model.prepare_rows(clicked, docids)

    def batch_loss(sel):
        loss, accuracy = position_aware_loss(data.take(sel), model, weights)
        return loss, {"position_accuracy": accuracy}

    return model, nn.fit(model.params(), data.size, batch_loss, lr=config.lr,
                         epochs=config.epochs, batch_size=config.batch_size,
                         seed=config.seed, stage="decoder")
