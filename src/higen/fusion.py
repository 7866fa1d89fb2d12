"""Metric-learning fusion: collapse the three atomic embeddings into one
discriminative vector and refine it with page-view triplets.

Training runs the fusion stack `FusionModel.net` as a graph (`nn.dense`);
`fuse_table` runs it over the whole catalog in plain numpy (`nn.infer`), with
the graph's bits."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import from_json, to_json
from .data import PageView, f8_array, read_jsonl, write_jsonl
from .errors import ConfigError, DataError
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


class FusionModel:
    """MLP from the concatenated atomic embeddings to the fused vector."""

    def __init__(self, d_atomic: int, config: MetricConfig):
        self.d_atomic = d_atomic
        self.config = config
        rng = np.random.default_rng(config.seed)
        acts = ["relu"] * len(config.hidden) + ["identity"]
        self.net = nn.dense_stack([3 * d_atomic, *config.hidden, config.d_out], acts, rng)

    def params(self) -> dict[str, nn.Tensor]:
        return nn.stack_params("fusion_net", self.net)

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.params(),
                           {"d_atomic": self.d_atomic, "config": to_json(self.config)})

    @classmethod
    def load(cls, path) -> "FusionModel":
        return nn.load_checkpoint(path, lambda extra: cls(
            extra["d_atomic"], from_json(MetricConfig, extra["config"])))


def atomic_concat(atomic: AtomicEmbeddings) -> np.ndarray:
    """Fusion input order: common, efficient, semantic."""
    return np.concatenate([atomic.common, atomic.efficient, atomic.semantic])


def fuse_table(atomic_table: dict[str, AtomicEmbeddings],
               model: FusionModel) -> dict[str, np.ndarray]:
    """The fused vector of every item, each a row view of one (items, d_out) array."""
    ids = sorted(atomic_table)
    if not ids:
        return {}
    x = np.empty((len(ids), len(atomic_concat(atomic_table[ids[0]]))))
    for row, item_id in zip(x, ids):
        row[:] = atomic_concat(atomic_table[item_id])
    return dict(zip(ids, nn.infer(x, model.net)))


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


def triplet_loss_batch(a: nn.Tensor, p: nn.Tensor, n: nn.Tensor, margin: float) -> nn.Tensor:
    """Mean hinge loss over a batch of (anchor, positive, negative) rows."""
    d_ap = nn.l2_dist_rows(a, p)
    d_an = nn.l2_dist_rows(a, n)
    hinge = nn.relu(nn.add(nn.sub(d_ap, d_an), nn.Tensor(np.full(d_ap.shape, margin))))
    return nn.mean_all(hinge)


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
        a = nn.dense(np.stack([inputs[t.anchor] for t in batch]), model.net)
        p = nn.dense(np.stack([inputs[t.positive] for t in batch]), model.net)
        n = nn.dense(np.stack([inputs[t.negative] for t in batch]), model.net)
        return triplet_loss_batch(a, p, n, config.margin), {}

    nn.fit(model.params(), len(triplets), batch_loss, lr=config.lr, epochs=config.epochs,
           batch_size=config.batch_size, seed=config.seed, stage="metric")
    return model


def write_fusion_jsonl(path, table: dict[str, np.ndarray]) -> None:
    write_jsonl(path, ({"item_id": item_id, "fusion": v}
                       for item_id, v in sorted(table.items())))


def read_fusion_jsonl(path) -> dict[str, np.ndarray]:
    out = dict(read_jsonl(path, lambda rec: (rec["item_id"], f8_array(rec["fusion"]))))
    if not out:
        raise DataError(f"empty fusion table at {path}")
    return out
