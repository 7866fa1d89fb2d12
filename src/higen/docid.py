"""Structured docID construction: per-category hierarchical k-means over the
fused item embeddings, and the prefix trie used to constrain decoding.

`index.json` is {"version": 2, "docids": {item_id: {"tokens": [...],
"semantic_len": s, "score": efficient score}}}, the first s tokens being the
category path. It stores no node score: `build_trie` derives them all from the
item scores. It inserts the docIDs in token order, then numbers the nodes
breadth first, so that each node's children are one run of ids (`DocIdTrie`)."""

from __future__ import annotations

import gc
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import read_json, write_json
from .errors import CheckpointError, ConfigError, DataError, IndexBuildError

log = logging.getLogger(__name__)

KMEANS_MAX_ITER = 100
KMEANS_REL_TOL = 1e-4
INDEX_VERSION = 2


@dataclass(frozen=True)
class DocId:
    """Category-path tokens followed by cluster tokens and a final ordinal."""

    tokens: tuple[int, ...]
    semantic_len: int

    def text(self) -> str:
        return "-".join(str(t) for t in self.tokens)


def child_seed(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt + 1) % (2 ** 31)


# ---------------------------------------------------------------------------
# k-means


def kmeans(points, k: int, seed: int = 0):
    """Seeded k-means++ plus Lloyd iterations.

    Empty clusters are repaired by moving the farthest point out of the
    largest cluster (skipped when geometry is degenerate). Cluster indices
    are relabeled by descending size, ties by original index, so the result
    is deterministic. k > n yields one singleton cluster per point.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ConfigError("kmeans needs a non-empty 2-D point array")
    if k < 1:
        raise ConfigError("kmeans needs k >= 1")
    n = len(points)
    if k >= n:
        return np.arange(n, dtype=np.intp), points.copy()
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[pick]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))

    prev_inertia = None
    labels = np.zeros(n, dtype=np.intp)
    for _ in range(KMEANS_MAX_ITER):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        sizes = np.bincount(labels, minlength=k)
        for empty in np.flatnonzero(sizes == 0):
            donor = int(sizes.argmax())
            if sizes[donor] < 2:
                continue
            members = np.flatnonzero(labels == donor)
            far = members[int(dists[members, donor].argmax())]
            if dists[far, donor] <= 0.0:
                continue    # all duplicates: leave the cluster empty
            labels[far] = empty
            sizes[donor] -= 1
            sizes[empty] += 1
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
        inertia = float(((points - centroids[labels]) ** 2).sum())
        if prev_inertia is not None and \
                abs(prev_inertia - inertia) <= KMEANS_REL_TOL * max(prev_inertia, 1e-12):
            break
        prev_inertia = inertia

    sizes = np.bincount(labels, minlength=k)
    order = sorted(range(k), key=lambda c: (-sizes[c], c))
    remap = np.empty(k, dtype=np.intp)
    for new, old in enumerate(order):
        remap[old] = new
    return remap[labels], centroids[order]


# ---------------------------------------------------------------------------
# hierarchical clustering


def _ordinal_tokens(ids, scores) -> list[tuple[int, ...]]:
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    ranks = {pos: rank for rank, pos in enumerate(order)}
    return [(ranks[i],) for i in range(len(ids))]


def _hier(points, scores, ids, k: int, cs: int, levels: int, seed: int) -> list[tuple[int, ...]]:
    """Per-point sub-docID token tuples: recursive k-means, at most `levels`
    deep, down to nodes of at most cs members, which are enumerated ordinally
    by descending efficient score then id."""
    n = len(ids)
    if n <= cs:
        return _ordinal_tokens(ids, scores)
    if levels <= 0:
        log.warning("depth budget exhausted on %d items (> CS=%d); falling back to "
                    "ordinal enumeration", n, cs)
        return _ordinal_tokens(ids, scores)
    labels, _ = kmeans(points, k, seed)
    nonempty = sorted(set(int(c) for c in labels))
    if len(nonempty) == 1:
        log.warning("clustering made no progress on %d items (degenerate geometry); "
                    "falling back to ordinal enumeration", n)
        return _ordinal_tokens(ids, scores)
    out: list[tuple[int, ...] | None] = [None] * n
    for c in nonempty:
        member_pos = [i for i in range(n) if labels[i] == c]
        sub = _hier(points[member_pos], [scores[i] for i in member_pos],
                    [ids[i] for i in member_pos], k, cs, levels - 1, child_seed(seed, c))
        for local, pos in enumerate(member_pos):
            out[pos] = (c,) + sub[local]
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# docID assembly


def build_docids(fusion: dict[str, np.ndarray], scores: dict[str, float],
                 paths: dict[str, tuple[int, ...]], max_len: int = 8, k: int = 10,
                 cs: int = 100, seed: int = 0, use_categories: bool = True):
    """Cluster each leaf category's items and assemble their docIDs (item ->
    DocId); efficient scores order the ordinal tokens.

    With use_categories=False all items form one group with an empty
    semantic prefix (the clustering-ablation variant).
    """
    ids = sorted(fusion)
    if not ids:
        raise DataError("empty fusion table")
    missing = sorted((set(fusion) | set(scores) | set(paths)) -
                     (set(fusion) & set(scores) & set(paths)))
    if missing:
        raise DataError(f"items missing fusion/score/path inputs: {missing[:10]}")

    groups: dict[tuple[int, ...], list[str]] = {}
    for item_id in ids:
        key = tuple(paths[item_id]) if use_categories else ()
        groups.setdefault(key, []).append(item_id)
    ordered = sorted(groups)
    # a path sorts just before the paths it is a prefix of
    for path, nxt in zip(ordered, ordered[1:]):
        if nxt[:len(path)] == path:
            raise DataError(f"category path {path} is a prefix of category path {nxt}: "
                            f"their docIDs would share a prefix")

    docids: dict[str, DocId] = {}
    for gi, path in enumerate(ordered):
        member_ids = groups[path]
        if max_len < len(path) + 2:
            raise ConfigError(f"max docID length {max_len} cannot hold category path "
                              f"{path} plus cluster and ordinal tokens")
        pts = np.stack([fusion[i] for i in member_ids])
        member_scores = [scores[i] for i in member_ids]
        labels, _ = kmeans(pts, k, child_seed(seed, gi))
        for c in sorted(set(int(x) for x in labels)):
            pos = [i for i in range(len(member_ids)) if labels[i] == c]
            cluster_ids = [member_ids[i] for i in pos]
            rest = _hier(pts[pos], [member_scores[i] for i in pos], cluster_ids, k, cs,
                         max_len - len(path) - 2, child_seed(seed, 7919 * gi + c))
            for local, item_id in enumerate(cluster_ids):
                docids[item_id] = DocId(path + (c,) + rest[local], semantic_len=len(path))
    return docids


# ---------------------------------------------------------------------------
# trie


class TrieNode:
    __slots__ = ("children", "item_id", "docid", "id", "head", "lo", "hi")

    def __init__(self, lo: int = 0):
        self.children: dict[int, TrieNode] = {}
        self.item_id: str | None = None
        self.docid: DocId | None = None
        self.id = 0             # breadth-first number, DocIdTrie.nodes[id]
        self.head = -1          # column of this node's token in its position's head
        # the leaves below this node, DocIdTrie.leaves[lo:hi]; a new node has
        # just the one being inserted
        self.lo, self.hi = lo, lo + 1


class RecallEntry(NamedTuple):
    item_id: str
    source: str   # direct | cluster | i2i
    score: float


class DocIdTrie:
    """Prefix tree over the docID set; leaves carry item ids. `values[t]` holds
    the tokens at depth t in ascending order, `leaves` every leaf (tokens,
    item_id, item score) in lexicographic order, `item_of` each docID's item.
    `nodes` lists the nodes breadth first (root = id 0): node i's children are
    the ids first[i]: first[i] + counts[i] in token order, counts == 0 marks
    leaves, and `heads` and `los` give each node's head column and first leaf
    index. `rank[leaf]` orders the leaves by (-item score, item_id), and
    `cluster_entries[rank]` is that leaf's cluster-tier RecallEntry. `build_trie`
    sets `scores`, each node's efficiency score (NaN for none)."""

    def __init__(self):
        self.root = TrieNode()
        self.n_items = 0
        self.max_depth = 0
        self.values: list[list[int]] = []
        self.leaves: list[tuple[tuple[int, ...], str, float]] = []
        self.nodes: list[TrieNode] = [self.root]

    def insert(self, docid: DocId, item_id: str, score: float) -> None:
        """Add one docID and its item's score. Leaf ranges and `leaves` hold
        only if docIDs are inserted in token order."""
        tokens, node, lo = docid.tokens, self.root, len(self.leaves)
        for tok in tokens:
            child = node.children.get(tok)
            if child is None:
                if node.item_id is not None:
                    raise IndexBuildError(f"docID {docid.text()} extends below leaf item "
                                          f"{node.item_id}")
                child = node.children[tok] = TrieNode(lo)
            node = child
        if node.item_id is not None:
            raise IndexBuildError(f"duplicate docID {docid.text()}")
        if node.children:
            raise IndexBuildError(f"docID {docid.text()} is a prefix of an existing docID")
        node.item_id = item_id
        node.docid = docid
        self.leaves.append((tokens, item_id, score))
        self.n_items += 1
        self.max_depth = max(self.max_depth, len(tokens))

    def node_at(self, prefix) -> TrieNode | None:
        node = self.root
        for tok in prefix:
            node = node.children.get(tok)
            if node is None:
                return None
        return node

    def lookup(self, tokens) -> str | None:
        return self.item_of.get(tuple(tokens))

    def paths(self, docids) -> np.ndarray:
        """(rows, L) node ids along each token tuple, L the longest, -1 past each
        tuple's end; a token that is no child of its prefix raises DataError."""
        out = np.full((len(docids), max(map(len, docids), default=0)), -1, dtype=np.intp)
        for row, tokens in enumerate(docids):
            node = self.root
            for t, tok in enumerate(tokens):
                node = node.children.get(tok)
                if node is None:
                    raise DataError(f"token {tok} not in the position-{t} vocabulary of "
                                    f"{tokens[:t]}")
                out[row, t] = node.id
        return out

    def lay_out(self) -> None:
        """Number the nodes breadth first, one depth at a time, and fill
        `values`, each node's id, head and leaf range, the id arrays and leaf rank."""
        level = [self.root]
        while children := [child for node in level for child in node.children.values()]:
            tokens = [tok for node in level for tok in node.children]
            self.values.append(sorted(set(tokens)))
            column = {tok: head for head, tok in enumerate(self.values[-1])}
            for i, (tok, child) in enumerate(zip(tokens, children), len(self.nodes)):
                child.id, child.head = i, column[tok]
            self.nodes.extend(children)
            level = children
        for node in reversed(self.nodes):   # children before their parents
            if node.children:
                node.hi = next(reversed(node.children.values())).hi
        self.counts = np.array([len(node.children) for node in self.nodes], dtype=np.intp)
        self.first = np.cumsum(self.counts) - self.counts + 1
        self.heads = np.array([node.head for node in self.nodes], dtype=np.intp)
        self.los = np.array([node.lo for node in self.nodes], dtype=np.intp)
        ranked = sorted(range(self.n_items), key=lambda i: (-self.leaves[i][2], self.leaves[i][1]))
        self.rank = np.argsort(ranked).tolist()
        self.item_of = {tokens: item_id for tokens, item_id, _score in self.leaves}
        self.cluster_entries = [RecallEntry(self.leaves[i][1], "cluster", self.leaves[i][2])
                                for i in ranked]


def build_trie(docids: dict[str, DocId], scores: dict[str, float]) -> DocIdTrie:
    """The trie of the docIDs. Each node past the semantic prefix of some
    docID below it scores the mean score of those docIDs' items, summed in
    item-id order; every other node scores NaN."""
    trie = DocIdTrie()
    for item_id, d in sorted(docids.items(), key=lambda kv: kv[1].tokens):
        trie.insert(d, item_id, scores[item_id])
    trie.lay_out()
    items = sorted(docids)
    ids = trie.paths([docids[i].tokens for i in items])
    starts = np.array([docids[i].semantic_len for i in items])
    past = (ids >= 0) & (np.arange(ids.shape[1]) >= starts[:, None])
    item_scores = np.array([scores[i] for i in items], dtype=float)
    # bincount adds up each node's scores in row order, as a loop over the items would
    sums = np.bincount(ids[past], item_scores[past.nonzero()[0]], len(trie.nodes))
    counts = np.bincount(ids[past], minlength=len(trie.nodes))
    trie.scores = sums / np.where(counts > 0, counts, np.nan)
    return trie


# ---------------------------------------------------------------------------
# persistence


def serialize_index(docids: dict[str, DocId], scores: dict[str, float], path) -> None:
    write_json(path, {
        "version": INDEX_VERSION,
        "docids": {item_id: {"tokens": list(d.tokens), "semantic_len": d.semantic_len,
                             "score": scores[item_id]}
                   for item_id, d in sorted(docids.items())},
    })


def load_index(path):
    """(docids, item scores, trie); a bad index, an empty or older one, or one
    with a docID record that is no JSON object, whose tokens are no ints, whose
    semantic_len is no int in [0, len(tokens)) or whose score is no number
    included, raises CheckpointError.

    The cyclic collector is paused meanwhile (and its state then restored): the
    load makes many objects and no cycles, so each collection it set off would
    scan them and free nothing."""

    def decode(doc):
        if doc["version"] < INDEX_VERSION:
            raise CheckpointError(f"{path}: version {doc['version']} is too old; "
                                  f"re-run build-docids")
        if not doc["docids"]:
            raise CheckpointError(f"{path}: no docIDs")
        docids, scores = {}, {}
        for item_id, rec in doc["docids"].items():
            fields = rec if isinstance(rec, dict) else {}
            tokens, semantic_len, score = map(fields.get, ("tokens", "semantic_len", "score"))
            # type(...) is int: a bool is no token or length
            if not (isinstance(tokens, list) and {*map(type, tokens)} == {int}
                    and type(semantic_len) is int and 0 <= semantic_len < len(tokens)
                    and type(score) in (int, float)):
                raise CheckpointError(f"{path}: item {item_id!r} needs int tokens, a semantic_len "
                                      f"in [0, len(tokens)) and a number score, not {rec}")
            docids[item_id] = DocId(tuple(tokens), semantic_len)
            scores[item_id] = float(score)
        return docids, scores, build_trie(docids, scores)

    enabled = gc.isenabled()
    gc.disable()
    try:
        return read_json(path, {"docids": dict}, INDEX_VERSION, decode)
    finally:
        if enabled:
            gc.enable()
