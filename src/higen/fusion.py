"""Metric-learning fusion: collapse the three atomic embeddings into one
discriminative vector and refine it with page-view triplets."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import PageView
from .errors import ConfigError, DataError, DimensionError
from .representation import AtomicEmbeddings

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Triplet:
    """Anchor/positive share a click label inside one PV; negative differs."""

    pv_id: str
    anchor: str
    positive: str
    negative: str


@dataclass
class MetricConfig:
    d_out: int = 64
    hidden: tuple[int, ...] = (64,)
    margin: float = 0.1
    lr: float = 1e-5
    batch_size: int = 10
    epochs: int = 5
    cap_per_pv: int = 20
    seed: int = 0
    normalize: bool = False   # L2-normalize fused vectors before distances


class FusionModel:
    """MLP from the concatenated atomic embeddings to the fused vector."""

    def __init__(self, d_atomic: int, config: MetricConfig):
        self.d_atomic = d_atomic
        self.config = config
        rng = np.random.default_rng(config.seed)
        acts = ["relu"] * len(config.hidden) + ["identity"]
        self.net = nn.DenseNet([3 * d_atomic, *config.hidden, config.d_out], acts, rng,
                               "fusion_net")

    def params(self) -> dict[str, nn.Tensor]:
        return self.net.params()

    def fuse_batch(self, x: nn.Tensor) -> nn.Tensor:
        out = self.net.forward(x)
        if self.config.normalize:
            out = nn.l2_normalize_rows(out, "fusion output")
        return out

    def save(self, path) -> None:
        cfg = self.config.__dict__ | {"hidden": list(self.config.hidden)}
        nn.save_checkpoint(path, self.params(), {"d_atomic": self.d_atomic, "config": cfg})

    @classmethod
    def load(cls, path) -> "FusionModel":
        arrays, extra = nn.load_checkpoint(path)
        cfg_d = dict(extra["config"])
        cfg_d.pop("loss_window", None)   # retired field, still in older checkpoints
        cfg_d["hidden"] = tuple(cfg_d["hidden"])
        model = cls(extra["d_atomic"], MetricConfig(**cfg_d))
        for name, tensor in model.params().items():
            tensor.data = arrays[name]
        return model


def atomic_concat(atomic: AtomicEmbeddings) -> np.ndarray:
    """Fusion input order: common, efficient, semantic."""
    return np.concatenate([atomic.common, atomic.efficient, atomic.semantic])


def fuse(atomic: AtomicEmbeddings, model: FusionModel) -> np.ndarray:
    x = atomic_concat(atomic)
    if x.shape[0] != 3 * model.d_atomic:
        raise DimensionError(f"atomic width {x.shape[0]} does not match fusion input "
                             f"{3 * model.d_atomic}")
    return model.fuse_batch(nn.Tensor(x[None, :])).data[0]


def fuse_table(atomic_table: dict[str, AtomicEmbeddings],
               model: FusionModel) -> dict[str, np.ndarray]:
    ids = sorted(atomic_table)
    if not ids:
        return {}
    x = np.stack([atomic_concat(atomic_table[i]) for i in ids])
    out = model.fuse_batch(nn.Tensor(x)).data
    return {item_id: out[i].copy() for i, item_id in enumerate(ids)}


def mine_triplets(pvs: list[PageView], cap_per_pv: int = 20, seed: int = 0) -> list[Triplet]:
    """All (anchor, positive, negative) combinations inside each PV, with the
    anchor required to have a distinct same-label positive; capped per PV by
    seeded sampling without replacement."""
    if cap_per_pv < 1:
        raise ConfigError("cap_per_pv must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[Triplet] = []
    for pv in pvs:
        by_label: dict[int, list[str]] = {0: [], 1: []}
        for item_id, label in pv.entries:
            by_label[label].append(item_id)
        candidates: list[Triplet] = []
        for label in (0, 1):
            same, other = by_label[label], by_label[1 - label]
            if len(same) < 2 or not other:
                continue
            for a in same:
                for p in same:
                    if p == a:
                        continue
                    for n in other:
                        candidates.append(Triplet(pv.pv_id, a, p, n))
        if len(candidates) > cap_per_pv:
            picks = rng.choice(len(candidates), size=cap_per_pv, replace=False)
            candidates = [candidates[i] for i in sorted(picks)]
        out.extend(candidates)
    return out


def triplet_loss(anchor, positive, negative, margin: float) -> float:
    """Hinge max{0, margin + d(a,p) - d(a,n)} with L2 distance."""
    a = np.asarray(anchor, dtype=float)
    d_ap = np.linalg.norm(a - np.asarray(positive, dtype=float))
    d_an = np.linalg.norm(a - np.asarray(negative, dtype=float))
    return max(0.0, margin + d_ap - d_an)


def triplet_loss_batch(a: nn.Tensor, p: nn.Tensor, n: nn.Tensor, margin: float) -> nn.Tensor:
    """Mean hinge loss over a batch of (anchor, positive, negative) rows."""
    d_ap = nn.l2_dist_rows(a, p)
    d_an = nn.l2_dist_rows(a, n)
    hinge = nn.relu(nn.add(nn.sub(d_ap, d_an), nn.Tensor(np.full(d_ap.shape, margin))))
    return nn.mean_all(hinge)


def class_distance_gap(vectors: dict[str, np.ndarray], labels: dict[str, int]) -> float:
    """Mean intra-class distance minus mean inter-class distance."""
    ids = sorted(vectors)
    intra, inter = [], []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = float(np.linalg.norm(vectors[a] - vectors[b]))
            (intra if labels[a] == labels[b] else inter).append(d)
    return float(np.mean(intra) - np.mean(inter))


def train_metric(atomic_table: dict[str, AtomicEmbeddings], pvs: list[PageView],
                 config: MetricConfig) -> FusionModel:
    """Train the fusion MLP on mined triplets with nn.fit; atomic embeddings stay frozen."""
    triplets = mine_triplets(pvs, config.cap_per_pv, config.seed)
    triplets = [t for t in triplets
                if t.anchor in atomic_table and t.positive in atomic_table
                and t.negative in atomic_table]
    if not triplets:
        raise ConfigError("no mineable triplets: every PV has a single label class")
    d_atomic = atomic_table[triplets[0].anchor].common.shape[0]
    model = FusionModel(d_atomic, config)
    inputs = {item_id: atomic_concat(a) for item_id, a in atomic_table.items()}

    def batch_loss(sel):
        batch = [triplets[i] for i in sel]
        a = nn.Tensor(np.stack([inputs[t.anchor] for t in batch]))
        p = nn.Tensor(np.stack([inputs[t.positive] for t in batch]))
        n = nn.Tensor(np.stack([inputs[t.negative] for t in batch]))
        return triplet_loss_batch(model.fuse_batch(a), model.fuse_batch(p),
                                  model.fuse_batch(n), config.margin), {}

    nn.fit(model.params(), len(triplets), batch_loss, lr=config.lr, epochs=config.epochs,
           batch_size=config.batch_size, seed=config.seed, stage="metric")
    return model


def write_fusion_jsonl(path, table: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item_id in sorted(table):
            fh.write(json.dumps({"item_id": item_id, "fusion": table[item_id].tolist()}) + "\n")


def read_fusion_jsonl(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[rec["item_id"]] = np.asarray(rec["fusion"], dtype=float)
    if not out:
        raise DataError(f"empty fusion table at {path}")
    return out
