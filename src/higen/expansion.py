"""Serving-side recall expansion: grow the decoder's top-k into a large
recall set by shared docID prefixes (cluster variant) and by Swing
item-to-item similarity (I2I variant).

The three tiers are built independently. The cluster tier holds every item
under the decoded prefixes, decoded items included, read from the prefix
nodes' leaf ranges in a leaf order the trie precomputes; the I2I tier the
top Swing neighbours of the direct hits. `merge_recall` alone sets priority:
direct, then cluster, then I2I, each item kept at its first occurrence.
`swing_scores` builds the I2I table from integer co-occurrence arrays, with
the sums of a loop over sorted user pairs bit for bit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import read_jsonl, write_jsonl
from .docid import DocIdTrie, RecallEntry
from .errors import ConfigError


@dataclass
class RecallSet:
    entries: list[RecallEntry]

    @property
    def recall_num(self) -> int:
        return len(self.entries)

    def item_ids(self) -> list[str]:
        return [e.item_id for e in self.entries]


def direct_hits(decoded, trie: DocIdTrie) -> RecallSet:
    """Decoded (DocId, logprob) pairs as "direct" entries: each item once, in
    decoded order, scored by its first logprob. (DocId, logprob, item_id)
    triples, as the beam returns them, name their item without a trie walk."""
    entries: list[RecallEntry] = []
    seen: set[str] = set()
    for hit in decoded:
        item_id = hit[2] if len(hit) > 2 else trie.lookup(hit[0].tokens)
        if item_id is not None and item_id not in seen:
            seen.add(item_id)
            entries.append(RecallEntry(item_id, "direct", float(hit[1])))
    return RecallSet(entries)


def cluster_expand(decoded, trie: DocIdTrie, prefix_len_k: int) -> RecallSet:
    """Every item sharing the first prefix_len_k docID tokens with any decoded
    (DocId, logprob) pair, the decoded items included, scored by leaf
    efficiency score and ordered by it descending, then by item id. A decoded
    docID shorter than the prefix is its own prefix."""
    if prefix_len_k < 1 or prefix_len_k > trie.max_depth:
        raise ConfigError(f"prefix length {prefix_len_k} outside [1, {trie.max_depth}]")
    nodes = {trie.node_at(prefix) for prefix in {hit[0].tokens[:prefix_len_k] for hit in decoded}}
    ranks = sorted({r for node in nodes if node is not None for r in trie.rank[node.lo:node.hi]})
    return RecallSet([trie.cluster_entries[r] for r in ranks])


class I2ITable:
    """Per-item neighbor lists, scores descending."""

    def __init__(self, neighbors: dict[str, list[tuple[str, float]]]):
        self.neighbors = neighbors

    def top(self, item_id: str, n: int) -> list[tuple[str, float]]:
        return self.neighbors.get(item_id, [])[:n]

    def save(self, path) -> None:
        write_jsonl(path, ({"item_id": item_id, "neighbors": [[n, s] for n, s in neighbors]}
                           for item_id, neighbors in sorted(self.neighbors.items())))

    @classmethod
    def load(cls, path) -> "I2ITable":
        return cls(dict(read_jsonl(path, lambda rec: (
            rec["item_id"], [(str(n), float(s)) for n, s in rec["neighbors"]]))))


def _pairs_within_runs(keys: np.ndarray, weight: np.ndarray | None = None):
    """Positions (a, b), a < b, of every two entries of a sorted key array that
    share a key, ordered by a then b: in one slice, or in slices of about 2**16
    in weight, a pair weighing weight[a] (one entry's pairs are never split)."""
    n = len(keys)
    cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    later = np.repeat(np.append(cuts, n), np.diff(cuts, prepend=0, append=n)) - np.arange(n) - 1
    splits = []
    if weight is not None and n:
        ends = np.cumsum(later * weight)
        splits = np.searchsorted(ends, np.arange(1 << 16, ends[-1], 1 << 16))
    for pos in np.split(np.arange(n), splits):
        a, n_a = np.repeat(pos, later[pos]), later[pos]
        yield a, a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(n_a) - n_a, n_a)


def swing_scores(interactions, alpha: float = 1.0, top_n: int = 50) -> I2ITable:
    """Swing similarity s(i,j) = sum over unordered user pairs u<v in
    U_i * U_j of 1 / (alpha + |I_u * I_v|); item pairs with fewer than two
    common users are omitted. Duplicate (user, item) rows collapse first.

    Items with one user drop out: no user pair shares them. Each user's item
    pairs, grouped by item pair with users ascending, give every pair's user
    pairs in (u, v) order, in slices that bound memory. Each slice counts
    |I_u * I_v| once per distinct user pair by probing the smaller user's
    items among the other's, and `np.add.at` adds the terms in that order
    from +0.0, as tests/oracles.py::swing_scores_loop does: every bit is kept."""
    if alpha <= 0:
        raise ConfigError("swing alpha must be positive")
    rows = set(interactions)
    n_users = len(user_ids := {u: k for k, u in enumerate(sorted({u for u, _i in rows}))})
    items = sorted({i for _u, i in rows})
    item_ids = {i: k for k, i in enumerate(items)}
    user, item = np.array([(user_ids[u], item_ids[i]) for u, i in rows], np.int64).reshape(-1, 2).T
    keep = np.bincount(item)[item] >= 2
    o = np.lexsort((item[keep], user[keep]))
    user, item = user[keep][o], item[keep][o]
    held = user * len(items) + item                 # ascending
    count = np.bincount(user, minlength=n_users)
    start = np.cumsum(count) - count
    a, b = next(_pairs_within_runs(user))
    ij = item[a] * len(items) + item[b]
    o = np.argsort(ij, kind="stable")               # users still ascend within an item pair
    ij, who = ij[o], user[a][o]
    keys, slot, holders = np.unique(ij, return_inverse=True, return_counts=True)
    score = np.zeros(len(keys))
    # a term probes at most its first user's items: about 2**16 probes a slice
    for c, d in _pairs_within_runs(ij, count[who]):
        pairs, at = np.unique(who[c] * n_users + who[d], return_inverse=True)
        u, v = np.divmod(pairs, n_users)
        s = np.where(count[u] <= count[v], u, v)
        m = count[s]
        probe = np.repeat(u + v - s, m) * len(items) + item[
            np.repeat(start[s] - np.cumsum(m) + m, m) + np.arange(m.sum())]
        found = held[np.searchsorted(held, probe).clip(max=len(held) - 1)] == probe
        shared = np.bincount(np.repeat(np.arange(len(m)), m), found, len(m))
        np.add.at(score, slot[c], 1.0 / (alpha + shared[at]))
    keys, score = keys[holders >= 2], score[holders >= 2]
    i, j = np.divmod(keys, len(items))
    first, other, score = np.r_[i, j], np.r_[j, i], np.r_[score, score]
    order = np.lexsort((other, -score, first))
    first, names = first[order], [items[k] for k in other[order].tolist()]
    scores = score[order].tolist()
    bounds = np.flatnonzero(np.diff(first, prepend=-1, append=-1)).tolist()
    return I2ITable({items[first[lo]]: list(zip(names[lo:hi], scores[lo:hi]))[:top_n]
                     for lo, hi in zip(bounds, bounds[1:])})


def i2i_expand(seeds, table: I2ITable, per_seed_n: int) -> RecallSet:
    """Union of each seed's top-n neighbors, scored by the max swing score
    over seeds; absent seeds contribute nothing."""
    if per_seed_n < 0:
        raise ConfigError("per_seed_n must be >= 0")
    best: dict[str, float] = {}
    for seed in seeds:
        for neighbor, score in table.top(seed, per_seed_n):
            if neighbor not in best or score > best[neighbor]:
                best[neighbor] = score
    entries = [RecallEntry(i, "i2i", s)
               for i, s in sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))]
    return RecallSet(entries)


def merge_recall(direct: RecallSet, cluster: RecallSet, i2i: RecallSet,
                 cap: int) -> RecallSet:
    """Tier priority direct > cluster > i2i, (-score, item_id) order inside each
    tier, first occurrence wins, truncated to cap. Each builder returns an item
    at most once, and the cluster and I2I builders return that order; the direct
    tier comes in beam order and is sorted here."""
    if cap < 0:
        raise ConfigError("cap must be >= 0")
    out = sorted(direct.entries, key=lambda e: (-e.score, e.item_id))
    for tier in (cluster.entries, i2i.entries):
        if len(out) >= cap:
            break
        seen = {e.item_id for e in out}
        out += [e for e in tier if e.item_id not in seen]
    return RecallSet(out[:cap])
