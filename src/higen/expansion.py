"""Serving-side recall expansion: grow the decoder's top-k into a large
recall set by shared docID prefixes (cluster variant) and by Swing
item-to-item similarity (I2I variant).

The three tiers are built independently. The cluster tier holds every item
under the decoded prefixes, decoded items included; the I2I tier the top
Swing neighbours of the direct hits. `merge_recall` alone sets priority:
direct, then cluster, then I2I, each item kept at its first occurrence."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .data import read_jsonl, write_jsonl
from .docid import DocIdTrie
from .errors import ConfigError


class RecallEntry(NamedTuple):
    item_id: str
    source: str   # direct | cluster | i2i
    score: float


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
    decoded order, scored by its first logprob."""
    entries: list[RecallEntry] = []
    seen: set[str] = set()
    for d, logprob in decoded:
        item_id = trie.lookup(d.tokens)
        if item_id is not None and item_id not in seen:
            seen.add(item_id)
            entries.append(RecallEntry(item_id, "direct", float(logprob)))
    return RecallSet(entries)


def cluster_expand(decoded, trie: DocIdTrie, prefix_len_k: int) -> RecallSet:
    """Every item sharing the first prefix_len_k docID tokens with any decoded
    (DocId, logprob) pair, the decoded items included, scored by leaf
    efficiency score and ordered by it descending. A decoded docID shorter
    than the prefix is its own prefix."""
    if prefix_len_k < 1 or prefix_len_k > trie.max_depth:
        raise ConfigError(f"prefix length {prefix_len_k} outside [1, {trie.max_depth}]")
    expanded: dict[str, float] = {}
    for d, _logprob in decoded:
        for _tokens, item_id, leaf_score in trie.items_under(d.tokens[:prefix_len_k]):
            score = leaf_score if leaf_score is not None else 0.0
            if item_id not in expanded or score > expanded[item_id]:
                expanded[item_id] = score
    return RecallSet([RecallEntry(i, "cluster", s)
                      for i, s in sorted(expanded.items(), key=lambda kv: (-kv[1], kv[0]))])


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


def swing_scores(interactions, alpha: float = 1.0, top_n: int = 50) -> I2ITable:
    """Swing similarity s(i,j) = sum over unordered user pairs u<v in
    U_i * U_j of 1 / (alpha + |I_u * I_v|); item pairs with fewer than two
    common users are omitted. Duplicate (user, item) rows collapse first."""
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
    return I2ITable(neighbors)


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
    """Tier priority direct > cluster > i2i, score order inside each tier,
    first occurrence wins, truncated to cap."""
    if cap < 0:
        raise ConfigError("cap must be >= 0")
    out: list[RecallEntry] = []
    seen: set[str] = set()
    for tier in (direct, cluster, i2i):
        ranked = sorted(tier.entries, key=lambda e: (-e.score, e.item_id))
        for e in ranked:
            if len(out) >= cap:
                return RecallSet(out)
            if e.item_id in seen:
                continue
            seen.add(e.item_id)
            out.append(e)
    return RecallSet(out)
