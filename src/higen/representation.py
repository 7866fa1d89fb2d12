"""Two-tower atomic embedding model.

Learns three per-item vectors (semantic, common, efficient) by jointly
predicting relevance and click labels against a user tower that pools the
context and query sequences with scaled dot-product attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .errors import DataError

PAD = 0  # shared index for padding / unknown / "no-history"


@dataclass(frozen=True)
class AtomicEmbeddings:
    """The three per-item vectors produced by the embedding model."""

    semantic: np.ndarray
    common: np.ndarray
    efficient: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.semantic, self.common, self.efficient])


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

    def to_json(self) -> dict:
        return {"users": self.users, "query_tokens": self.query_tokens,
                "items": self.items, "sem_tokens": self.sem_tokens, "n_eff": self.n_eff}

    @classmethod
    def from_json(cls, d: dict) -> "Vocab":
        return cls(d["users"], d["query_tokens"], d["items"], d["sem_tokens"], d["n_eff"])


@dataclass
class FeatureBatch:
    """Index/label arrays for one batch; every array shares the batch axis."""

    user_idx: np.ndarray      # (B,)
    query_idx: np.ndarray     # (B, query_len)
    context_idx: np.ndarray   # (B, context_len)
    sem_idx: np.ndarray       # (B, sem_len)
    sem_mask: np.ndarray      # (B, sem_len) floats, 1 where a token is present
    item_idx: np.ndarray      # (B,)
    eff: np.ndarray           # (B, n_eff)
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


def encode_rows(rows, catalog_by_id, vocab: Vocab, cfg: TwoTowerConfig,
                eff_mean: np.ndarray | None = None,
                eff_std: np.ndarray | None = None) -> FeatureBatch:
    """Turn dataset rows into index arrays; unseen tokens map to PAD."""
    missing = sorted({r.target_item_id for r in rows} - set(catalog_by_id))
    if missing:
        raise DataError(f"rows reference unknown items: {missing[:10]}")
    user_idx = np.array([vocab.users.get(r.user_id, PAD) for r in rows], dtype=np.intp)
    query_idx = np.array([_pad([vocab.query_tokens.get(t, PAD) for t in r.query.split()],
                               cfg.query_len) for r in rows], dtype=np.intp)
    context_idx = np.array([_pad([vocab.items.get(cid, PAD) for cid, _tag in r.context],
                                 cfg.context_len) for r in rows], dtype=np.intp)
    sem_idx, sem_mask, item_idx, eff = item_arrays(
        [catalog_by_id[r.target_item_id] for r in rows], vocab, cfg)
    if eff_mean is not None:
        eff = (eff - eff_mean) / eff_std
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

        def table(rows, cols):
            return nn.Tensor(nn.glorot_uniform(rng, rows, cols), requires_grad=True)

        self.user_table = table(len(vocab.users) + 1, c.d_u)
        self.query_table = table(len(vocab.query_tokens) + 1, c.d_k)
        self.context_table = table(len(vocab.items) + 1, c.d_k)
        self.sem_table = table(len(vocab.sem_tokens) + 1, c.d_atomic)
        self.item_table = table(len(vocab.items) + 1, c.d_atomic)
        self.eff_net = nn.DenseNet([vocab.n_eff, c.d_atomic], ["identity"], rng, "eff_net")
        in_user = c.d_u + (c.context_len + c.query_len) * c.d_k
        acts = ["relu"] * len(c.user_hidden) + ["identity"]
        self.user_net = nn.DenseNet([in_user, *c.user_hidden, c.d_e], acts, rng, "user_net")
        acts = ["relu"] * len(c.head_hidden) + ["identity"]
        self.rel_head = nn.DenseNet([2 * c.d_atomic, *c.head_hidden, c.d_e], acts, rng, "rel_head")
        self.click_head = nn.DenseNet([2 * c.d_atomic, *c.head_hidden, c.d_e], acts, rng,
                                      "click_head")
        self.eff_mean = np.zeros(vocab.n_eff)
        self.eff_std = np.ones(vocab.n_eff)

    def params(self) -> dict[str, nn.Tensor]:
        out = {"user_table": self.user_table, "query_table": self.query_table,
               "context_table": self.context_table, "sem_table": self.sem_table,
               "item_table": self.item_table}
        for net in (self.eff_net, self.user_net, self.rel_head, self.click_head):
            out.update(net.params())
        return out

    # -- forward pieces ----------------------------------------------------

    def embed_inputs(self, batch: FeatureBatch):
        x_u = nn.gather(self.user_table, batch.user_idx)
        x_q = nn.gather(self.query_table, batch.query_idx)
        x_c = nn.gather(self.context_table, batch.context_idx)
        return x_u, x_q, x_c

    def atomic(self, batch: FeatureBatch):
        sem = nn.gather(self.sem_table, batch.sem_idx)            # (B, L, d)
        weights = batch.sem_mask / batch.sem_mask.sum(axis=1, keepdims=True)
        x_is = nn.sum_axis(nn.mul_const(sem, weights[:, :, None]), 1)
        x_ic = nn.gather(self.item_table, batch.item_idx)
        x_ie = self.eff_net.forward(nn.Tensor(batch.eff))
        return x_is, x_ic, x_ie

    def forward(self, batch: FeatureBatch):
        x_u, x_q, x_c = self.embed_inputs(batch)
        u = user_tower(x_u, x_q, x_c, self)
        x_is, x_ic, x_ie = self.atomic(batch)
        return item_heads((x_is, x_ic, x_ie), u, self)

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        extra = {"vocab": self.vocab.to_json(),
                 "config": self.config.__dict__ | {
                     "user_hidden": list(self.config.user_hidden),
                     "head_hidden": list(self.config.head_hidden)},
                 "eff_mean": self.eff_mean.tolist(), "eff_std": self.eff_std.tolist()}
        nn.save_checkpoint(path, self.params(), extra)

    @classmethod
    def load(cls, path) -> "TwoTowerModel":
        arrays, extra = nn.load_checkpoint(path)
        cfg_d = dict(extra["config"])
        cfg_d.pop("loss_window", None)   # retired field, still in older checkpoints
        cfg_d["user_hidden"] = tuple(cfg_d["user_hidden"])
        cfg_d["head_hidden"] = tuple(cfg_d["head_hidden"])
        model = cls(Vocab.from_json(extra["vocab"]), TwoTowerConfig(**cfg_d))
        for name, tensor in model.params().items():
            tensor.data = arrays[name]
        model.eff_mean = np.asarray(extra["eff_mean"], dtype=float)
        model.eff_std = np.asarray(extra["eff_std"], dtype=float)
        return model


def user_tower(x_u, x_q, x_c, model: TwoTowerModel) -> nn.Tensor:
    """Pool the context with self-attention and the query against the
    context, then project the concatenation: the user-side embedding."""
    d_k = model.config.d_k
    z_self = nn.attention_batched(x_c, x_c, x_c, d_k)
    z_query = nn.attention_batched(x_q, x_c, x_c, d_k)
    b = x_u.data.shape[0]
    flat_self = nn.reshape(z_self, (b, -1))
    flat_query = nn.reshape(z_query, (b, -1))
    return model.user_net.forward(nn.concat([x_u, flat_self, flat_query], axis=1))


def item_heads(atomic, u, model: TwoTowerModel):
    """Cosine of the normalized user vector against each item head, squashed
    to a probability by a temperature sigmoid. The common embedding feeds
    both heads."""
    x_is, x_ic, x_ie = atomic
    rel_vec = model.rel_head.forward(nn.concat([x_is, x_ic], axis=1))
    click_vec = model.click_head.forward(nn.concat([x_ie, x_ic], axis=1))
    u_n = nn.l2_normalize_rows(u, "user tower")
    inv_tau = 1.0 / model.config.tau
    y_r = nn.sigmoid(nn.scale(nn.rowwise_dot(u_n, nn.l2_normalize_rows(rel_vec, "relevance head")),
                              inv_tau))
    y_c = nn.sigmoid(nn.scale(nn.rowwise_dot(u_n, nn.l2_normalize_rows(click_vec, "click head")),
                              inv_tau))
    return y_r, y_c


def embed_loss(y_r_hat, y_c_hat, y_r, y_c, w_c: float) -> nn.Tensor:
    """Relevance BCE plus w_c times click BCE, each averaged over the batch."""
    return nn.add(nn.bce_mean(y_r_hat, y_r), nn.scale(nn.bce_mean(y_c_hat, y_c), w_c))


def train_embedding(rows, catalog, config: TwoTowerConfig) -> TwoTowerModel:
    """Train the two-tower model with nn.fit; a NaN loss aborts keeping the
    last good epoch's parameters."""
    if not rows:
        raise DataError("empty dataset")
    vocab = Vocab.build(rows, catalog)
    model = TwoTowerModel(vocab, config)
    catalog_by_id = {it.item_id: it for it in catalog}
    raw = encode_rows(rows, catalog_by_id, vocab, config)
    model.eff_mean = raw.eff.mean(axis=0)
    std = raw.eff.std(axis=0)
    model.eff_std = np.where(std > 0, std, 1.0)
    data = replace(raw, eff=(raw.eff - model.eff_mean) / model.eff_std)

    def batch_loss(sel):
        batch = data.take(sel)
        y_r_hat, y_c_hat = model.forward(batch)
        return embed_loss(y_r_hat, y_c_hat, batch.y_r, batch.y_c, config.w_c), {}

    nn.fit(model.params(), data.size, batch_loss, lr=config.lr, epochs=config.epochs,
           batch_size=config.batch_size, seed=config.seed, stage="embedding")
    return model


def export_atomic_embeddings(model: TwoTowerModel, items) -> dict[str, AtomicEmbeddings]:
    """One (semantic, common, efficient) record per catalog item."""
    unknown = sorted({it.item_id for it in items} - set(model.vocab.items))
    if unknown:
        raise DataError(f"unknown item ids at export: {unknown[:10]}")
    items = list(items)
    sem_idx, sem_mask, item_idx, eff = item_arrays(items, model.vocab, model.config)
    eff = (eff - model.eff_mean) / model.eff_std
    batch = FeatureBatch(np.zeros(len(items), dtype=np.intp),
                         np.zeros((len(items), model.config.query_len), dtype=np.intp),
                         np.zeros((len(items), model.config.context_len), dtype=np.intp),
                         sem_idx, sem_mask, item_idx, eff,
                         np.zeros(len(items)), np.zeros(len(items)))
    x_is, x_ic, x_ie = model.atomic(batch)
    return {it.item_id: AtomicEmbeddings(x_is.data[i].copy(), x_ic.data[i].copy(),
                                         x_ie.data[i].copy())
            for i, it in enumerate(items)}


def write_atomic_jsonl(path, table: dict[str, AtomicEmbeddings]) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        for item_id in sorted(table):
            a = table[item_id]
            fh.write(json.dumps({"item_id": item_id, "semantic": a.semantic.tolist(),
                                 "common": a.common.tolist(),
                                 "efficient": a.efficient.tolist()}) + "\n")


def read_atomic_jsonl(path) -> dict[str, AtomicEmbeddings]:
    import json
    out: dict[str, AtomicEmbeddings] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[rec["item_id"]] = AtomicEmbeddings(np.asarray(rec["semantic"], dtype=float),
                                                   np.asarray(rec["common"], dtype=float),
                                                   np.asarray(rec["efficient"], dtype=float))
    return out
