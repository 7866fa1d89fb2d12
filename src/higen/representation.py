"""Two-tower atomic embedding model.

Learns three per-item vectors (semantic, common, efficient) by jointly
predicting relevance and click labels against a user tower that pools the
context and query sequences with scaled dot-product attention.

Batches carry raw efficiency features. The model standardizes them itself:
`TwoTowerModel.atomic` applies the `eff_mean`/`eff_std` that training
measured and the checkpoint stores, for training, export and any caller.

Export runs `atomic` over the whole catalog in plain numpy, without graph
nodes, and gives the graph's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import from_json, to_json
from .data import f8_array, read_jsonl, write_jsonl
from .errors import DataError

PAD = 0  # shared index for padding / unknown / "no-history"
EXPORT_BLOCK = 512  # items pooled at a time by export_atomic_embeddings


@dataclass(frozen=True)
class AtomicEmbeddings:
    """The three per-item vectors produced by the embedding model."""

    semantic: np.ndarray
    common: np.ndarray
    efficient: np.ndarray


@dataclass
class TwoTowerConfig:
    d_k: int = 16           # per-token embedding width in attention
    d_u: int = 16           # user embedding width
    d_e: int = 32           # tower output width
    d_atomic: int = 32      # width of each atomic embedding
    user_hidden: tuple[int, ...] = (64,)
    head_hidden: tuple[int, ...] = (64,)
    tau: float = 0.2        # sigmoid temperature on the cosine
    w_c: float = 1.0        # click-task weight
    lr: float = 1e-4
    batch_size: int = 512
    epochs: int = 10
    seed: int = 0
    query_len: int = 4
    context_len: int = 4
    sem_len: int = 4


@dataclass
class Vocab:
    """Index maps shared by training, export, and checkpoints. Index 0 is
    reserved for padding / unknown in every table."""

    users: dict[str, int]
    query_tokens: dict[str, int]
    items: dict[str, int]
    sem_tokens: dict[str, int]
    n_eff: int

    @classmethod
    def build(cls, rows, catalog) -> "Vocab":
        users = {u: i + 1 for i, u in enumerate(sorted({r.user_id for r in rows}))}
        qtoks = sorted({t for r in rows for t in r.query.split()})
        query_tokens = {t: i + 1 for i, t in enumerate(qtoks)}
        items = {it.item_id: i + 1 for i, it in
                 enumerate(sorted(catalog, key=lambda it: it.item_id))}
        stoks = sorted({t for it in catalog for t in it.semantic_tokens})
        sem_tokens = {t: i + 1 for i, t in enumerate(stoks)}
        n_eff = len(catalog[0].efficiency) if catalog else 1
        return cls(users, query_tokens, items, sem_tokens, n_eff)


@dataclass
class FeatureBatch:
    """Index/label arrays for one batch; every array shares the batch axis."""

    user_idx: np.ndarray      # (B,)
    query_idx: np.ndarray     # (B, query_len)
    context_idx: np.ndarray   # (B, context_len)
    sem_idx: np.ndarray       # (B, sem_len)
    sem_mask: np.ndarray      # (B, sem_len) floats, 1 where a token is present
    item_idx: np.ndarray      # (B,)
    eff: np.ndarray           # (B, n_eff) raw, standardized by the model
    y_r: np.ndarray           # (B,)
    y_c: np.ndarray           # (B,)

    def take(self, sel) -> "FeatureBatch":
        return FeatureBatch(self.user_idx[sel], self.query_idx[sel], self.context_idx[sel],
                            self.sem_idx[sel], self.sem_mask[sel], self.item_idx[sel],
                            self.eff[sel], self.y_r[sel], self.y_c[sel])

    @property
    def size(self) -> int:
        return self.user_idx.shape[0]


def _pad(tokens: list[int], length: int) -> list[int]:
    out = tokens[:length]
    return out + [PAD] * (length - len(out))


def row_indices(rows, vocab: Vocab, query_len: int, context_len: int):
    """(user, query, context) index arrays of dataset rows, padded to the
    given lengths; unseen ids and tokens map to PAD."""
    user_idx = np.array([vocab.users.get(r.user_id, PAD) for r in rows], dtype=np.intp)
    query_idx = np.array([_pad([vocab.query_tokens.get(t, PAD) for t in r.query.split()],
                               query_len) for r in rows], dtype=np.intp)
    context_idx = np.array([_pad([vocab.items.get(cid, PAD) for cid, _tag in r.context],
                                 context_len) for r in rows], dtype=np.intp)
    return user_idx, query_idx, context_idx


def encode_rows(rows, catalog_by_id, vocab: Vocab, cfg: TwoTowerConfig) -> FeatureBatch:
    """Turn dataset rows into index arrays; unseen tokens map to PAD."""
    missing = sorted({r.target_item_id for r in rows} - set(catalog_by_id))
    if missing:
        raise DataError(f"rows reference unknown items: {missing[:10]}")
    user_idx, query_idx, context_idx = row_indices(rows, vocab, cfg.query_len, cfg.context_len)
    sem_idx, sem_mask, item_idx, eff = item_arrays(
        [catalog_by_id[r.target_item_id] for r in rows], vocab, cfg)
    return FeatureBatch(user_idx, query_idx, context_idx, sem_idx, sem_mask, item_idx, eff,
                        np.array([float(r.relevance) for r in rows]),
                        np.array([float(r.click) for r in rows]))


def item_arrays(items, vocab: Vocab, cfg: TwoTowerConfig):
    sem_idx = np.array([_pad([vocab.sem_tokens.get(t, PAD) for t in it.semantic_tokens],
                             cfg.sem_len) for it in items], dtype=np.intp)
    sem_mask = (sem_idx != PAD).astype(float)
    # an item with no known semantic token still needs one attended slot
    empty = sem_mask.sum(axis=1) == 0
    sem_mask[empty, 0] = 1.0
    item_idx = np.array([vocab.items.get(it.item_id, PAD) for it in items], dtype=np.intp)
    eff = np.array([list(it.efficiency) for it in items], dtype=float)
    return sem_idx, sem_mask, item_idx, eff


class TwoTowerModel:
    """Embedding tables plus the user tower and the two item heads."""

    def __init__(self, vocab: Vocab, config: TwoTowerConfig):
        self.vocab = vocab
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config
        self.user_table = nn.Table(rng, len(vocab.users) + 1, c.d_u)
        self.query_table = nn.Table(rng, len(vocab.query_tokens) + 1, c.d_k)
        self.context_table = nn.Table(rng, len(vocab.items) + 1, c.d_k)
        self.sem_table = nn.Table(rng, len(vocab.sem_tokens) + 1, c.d_atomic)
        self.item_table = nn.Table(rng, len(vocab.items) + 1, c.d_atomic)
        self.eff_net = nn.dense_stack([vocab.n_eff, c.d_atomic], ["identity"], rng)
        in_user = c.d_u + (c.context_len + c.query_len) * c.d_k
        acts = ["relu"] * len(c.user_hidden) + ["identity"]
        self.user_net = nn.dense_stack([in_user, *c.user_hidden, c.d_e], acts, rng)
        acts = ["relu"] * len(c.head_hidden) + ["identity"]
        self.rel_head = nn.dense_stack([2 * c.d_atomic, *c.head_hidden, c.d_e], acts, rng)
        self.click_head = nn.dense_stack([2 * c.d_atomic, *c.head_hidden, c.d_e], acts, rng)
        self.eff_mean = np.zeros(vocab.n_eff)
        self.eff_std = np.ones(vocab.n_eff)

    def params(self) -> dict[str, nn.Tensor]:
        out = {"user_table": self.user_table, "query_table": self.query_table,
               "context_table": self.context_table, "sem_table": self.sem_table,
               "item_table": self.item_table}
        for name in ("eff_net", "user_net", "rel_head", "click_head"):
            out.update(nn.stack_params(name, getattr(self, name)))
        return out

    # -- forward pieces ----------------------------------------------------

    def embed_inputs(self, batch: FeatureBatch):
        x_u = nn.gather(self.user_table, batch.user_idx)
        x_q = nn.gather(self.query_table, batch.query_idx)
        x_c = nn.gather(self.context_table, batch.context_idx)
        return x_u, x_q, x_c

    def atomic(self, sem_idx, sem_mask, item_idx, eff):
        """The three atomic embeddings of items given as `item_arrays`, the
        efficiency features raw."""
        sem = nn.gather(self.sem_table, sem_idx)            # (B, L, d)
        weights = sem_mask / sem_mask.sum(axis=1, keepdims=True)
        x_is = nn.sum_axis(nn.mul_const(sem, weights[:, :, None]), 1)
        x_ic = nn.gather(self.item_table, item_idx)
        x_ie = nn.dense((eff - self.eff_mean) / self.eff_std, self.eff_net)
        return x_is, x_ic, x_ie

    def forward(self, batch: FeatureBatch):
        x_u, x_q, x_c = self.embed_inputs(batch)
        u = user_tower(x_u, x_q, x_c, self)
        atomic = self.atomic(batch.sem_idx, batch.sem_mask, batch.item_idx, batch.eff)
        return item_heads(atomic, u, self)

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.params(), {
            "vocab": to_json(self.vocab), "config": to_json(self.config),
            "eff_mean": self.eff_mean.tolist(), "eff_std": self.eff_std.tolist()})

    @classmethod
    def load(cls, path) -> "TwoTowerModel":
        def build(extra):
            model = cls(from_json(Vocab, extra["vocab"]),
                        from_json(TwoTowerConfig, extra["config"]))
            model.eff_mean = np.asarray(extra["eff_mean"], dtype=float).reshape(model.vocab.n_eff)
            model.eff_std = np.asarray(extra["eff_std"], dtype=float).reshape(model.vocab.n_eff)
            return model

        return nn.load_checkpoint(path, build)


def user_tower(x_u, x_q, x_c, model: TwoTowerModel) -> nn.Tensor:
    """Pool the context with self-attention and the query against the
    context, then project the concatenation: the user-side embedding."""
    d_k = model.config.d_k
    z_self = nn.attention_batched(x_c, x_c, x_c, d_k)
    z_query = nn.attention_batched(x_q, x_c, x_c, d_k)
    b = x_u.data.shape[0]
    flat_self = nn.reshape(z_self, (b, -1))
    flat_query = nn.reshape(z_query, (b, -1))
    return nn.dense(nn.concat([x_u, flat_self, flat_query], axis=1), model.user_net)


def item_heads(atomic, u, model: TwoTowerModel):
    """Cosine of the normalized user vector against each item head, squashed
    to a probability by a temperature sigmoid. The common embedding feeds
    both heads."""
    x_is, x_ic, x_ie = atomic
    rel_vec = nn.dense(nn.concat([x_is, x_ic], axis=1), model.rel_head)
    click_vec = nn.dense(nn.concat([x_ie, x_ic], axis=1), model.click_head)
    u_n = nn.l2_normalize_rows(u, "user tower")
    inv_tau = 1.0 / model.config.tau
    y_r = nn.sigmoid(nn.mul_const(
        nn.rowwise_dot(u_n, nn.l2_normalize_rows(rel_vec, "relevance head")), inv_tau))
    y_c = nn.sigmoid(nn.mul_const(
        nn.rowwise_dot(u_n, nn.l2_normalize_rows(click_vec, "click head")), inv_tau))
    return y_r, y_c


def embed_loss(y_r_hat, y_c_hat, y_r, y_c, w_c: float) -> nn.Tensor:
    """Relevance BCE plus w_c times click BCE, each averaged over the batch."""
    return nn.add(nn.bce_mean(y_r_hat, y_r), nn.mul_const(nn.bce_mean(y_c_hat, y_c), w_c))


def train_embedding(rows, catalog, config: TwoTowerConfig) -> TwoTowerModel:
    """Train the two-tower model with nn.fit; a NaN loss aborts keeping the
    last good epoch's parameters."""
    if not rows:
        raise DataError("empty dataset")
    vocab = Vocab.build(rows, catalog)
    model = TwoTowerModel(vocab, config)
    catalog_by_id = {it.item_id: it for it in catalog}
    data = encode_rows(rows, catalog_by_id, vocab, config)
    model.eff_mean = data.eff.mean(axis=0)
    std = data.eff.std(axis=0)
    model.eff_std = np.where(std > 0, std, 1.0)

    def batch_loss(sel):
        batch = data.take(sel)
        y_r_hat, y_c_hat = model.forward(batch)
        return embed_loss(y_r_hat, y_c_hat, batch.y_r, batch.y_c, config.w_c), {}

    nn.fit(model.params(), data.size, batch_loss, lr=config.lr, epochs=config.epochs,
           batch_size=config.batch_size, seed=config.seed, stage="embedding")
    return model


def export_atomic_embeddings(model: TwoTowerModel, items) -> dict[str, AtomicEmbeddings]:
    """One (semantic, common, efficient) record per catalog item: `model.atomic`'s
    bits, computed in plain numpy. The semantic pooling runs EXPORT_BLOCK rows at a
    time; each of its steps is per row, so the block size changes no bit."""
    unknown = sorted({it.item_id for it in items} - set(model.vocab.items))
    if unknown:
        raise DataError(f"unknown item ids at export: {unknown[:10]}")
    items = list(items)
    if not items:
        return {}
    sem_idx, sem_mask, item_idx, eff = item_arrays(items, model.vocab, model.config)
    weights = sem_mask / sem_mask.sum(axis=1, keepdims=True)
    x_is = np.empty((len(items), model.config.d_atomic))
    for lo in range(0, len(items), EXPORT_BLOCK):
        rows = slice(lo, lo + EXPORT_BLOCK)
        x_is[rows] = (model.sem_table.data[sem_idx[rows]] * weights[rows, :, None]).sum(axis=1)
    x_ic = model.item_table.data[item_idx]
    x_ie = nn.infer((eff - model.eff_mean) / model.eff_std, model.eff_net)
    return {it.item_id: AtomicEmbeddings(*vecs) for it, *vecs in zip(items, x_is, x_ic, x_ie)}


def write_atomic_jsonl(path, table: dict[str, AtomicEmbeddings]) -> None:
    write_jsonl(path, ({"item_id": item_id, "semantic": a.semantic, "common": a.common,
                        "efficient": a.efficient} for item_id, a in sorted(table.items())))


def read_atomic_jsonl(path) -> dict[str, AtomicEmbeddings]:
    return dict(read_jsonl(path, lambda rec: (rec["item_id"], AtomicEmbeddings(
        *(f8_array(rec[k]) for k in ("semantic", "common", "efficient"))))))
