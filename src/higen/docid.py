"""Structured docID construction: per-category hierarchical k-means over the
fused item embeddings, per-node efficiency scores, and the prefix trie used
to constrain decoding.

The trie owns child order, head columns and leaf order; `build_trie` fixes
them once per index (see `DocIdTrie.lay_out`)."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import read_json, write_json
from .errors import CheckpointError, ConfigError, DataError, IndexBuildError

log = logging.getLogger(__name__)

KMEANS_MAX_ITER = 100
KMEANS_REL_TOL = 1e-4
INDEX_VERSION = 1


@dataclass(frozen=True)
class DocId:
    """Category-path tokens followed by cluster tokens and a final ordinal."""

    tokens: tuple[int, ...]
    semantic_len: int

    def text(self) -> str:
        return "-".join(str(t) for t in self.tokens)


def parse_docid_text(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split("-"))
    except ValueError as exc:
        raise DataError(f"malformed docID text {text!r}") from exc


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
    """Cluster each leaf category's items and assemble docIDs; returns
    (item -> DocId, token-prefix -> mean member efficient score).

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

    docids: dict[str, DocId] = {}
    for gi, path in enumerate(sorted(groups)):
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

    by_tokens: dict[tuple[int, ...], str] = {}
    for item_id, d in docids.items():
        if d.tokens in by_tokens:
            raise IndexBuildError(f"duplicate docID {d.text()} for items "
                                  f"{by_tokens[d.tokens]} and {item_id}")
        by_tokens[d.tokens] = item_id

    sums: dict[tuple[int, ...], float] = {}
    counts: dict[tuple[int, ...], int] = {}
    for item_id, d in docids.items():
        for t in range(d.semantic_len, len(d.tokens)):
            prefix = d.tokens[:t + 1]
            sums[prefix] = sums.get(prefix, 0.0) + scores[item_id]
            counts[prefix] = counts.get(prefix, 0) + 1
    node_scores = {prefix: sums[prefix] / counts[prefix] for prefix in sums}
    return docids, node_scores


# ---------------------------------------------------------------------------
# trie


class ChildArrays(NamedTuple):
    """A node's children as arrays, in the trie's child order (ascending token)."""

    heads: np.ndarray   # each child's head column
    tokens: np.ndarray
    los: np.ndarray     # each child's first leaf index, which orders them as their tokens do
    nodes: np.ndarray   # the child TrieNodes, an object array
    leaf: np.ndarray    # True where the child is a leaf


class TrieNode:
    __slots__ = ("children", "item_id", "score", "docid", "head", "lo", "hi", "_child_arrays")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.item_id: str | None = None
        self.score: float | None = None
        self.docid: DocId | None = None
        self.head = -1          # column of this node's token in its position's head
        self.lo = self.hi = 0   # the leaves below this node: DocIdTrie.leaves[lo:hi]
        self._child_arrays: ChildArrays | None = None

    def child_arrays(self) -> ChildArrays:
        """The children as arrays, built on this node's first expansion: an eager
        build for every node would slow `load_index`. Valid once the trie is laid out."""
        if self._child_arrays is None:
            nodes = np.empty(len(self.children), dtype=object)
            nodes[:] = list(self.children.values())
            self._child_arrays = ChildArrays(
                np.array([c.head for c in nodes], dtype=np.intp),
                np.array(list(self.children), dtype=np.intp),
                np.array([c.lo for c in nodes], dtype=np.intp), nodes,
                np.array([c.item_id is not None for c in nodes], dtype=bool))
        return self._child_arrays


class DocIdTrie:
    """Prefix tree over the docID set; leaves carry item ids, sub-semantic
    nodes carry the mean member efficient score. `values[t]` holds the tokens
    at depth t in ascending order, `leaves` every leaf in lexicographic order."""

    def __init__(self):
        self.root = TrieNode()
        self.n_items = 0
        self.max_depth = 0
        self.values: list[list[int]] = []
        self.leaves: list[tuple[tuple[int, ...], str, float | None]] = []

    def insert(self, docid: DocId, item_id: str) -> None:
        node = self.root
        for tok in docid.tokens:
            if node.item_id is not None:
                raise IndexBuildError(f"docID {docid.text()} extends below leaf item "
                                      f"{node.item_id}")
            node = node.children.get(tok) or node.children.setdefault(tok, TrieNode())
        if node.item_id is not None:
            raise IndexBuildError(f"duplicate docID {docid.text()}")
        if node.children:
            raise IndexBuildError(f"docID {docid.text()} is a prefix of an existing docID")
        node.item_id = item_id
        node.docid = docid
        self.n_items += 1
        self.max_depth = max(self.max_depth, len(docid.tokens))

    def node_at(self, prefix) -> TrieNode | None:
        node = self.root
        for tok in prefix:
            node = node.children.get(tok)
            if node is None:
                return None
        return node

    def lookup(self, tokens) -> str | None:
        node = self.node_at(tokens)
        return node.item_id if node is not None else None

    def items_under(self, prefix) -> list[tuple[tuple[int, ...], str, float | None]]:
        """(tokens, item_id, leaf score) for every leaf below the prefix, in
        lexicographic token order."""
        node = self.node_at(prefix)
        return [] if node is None else self.leaves[node.lo:node.hi]

    def lay_out(self) -> None:
        """Fill `values`, `leaves`, and each node's head and leaf range. Children
        inserted in token order make a preorder visit meet leaves in order."""
        at_depth: list[list[tuple[int, TrieNode]]] = [[] for _ in range(self.max_depth)]
        stack: list[tuple[TrieNode, int | None]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth is None:       # back from the node's subtree
                node.hi = len(self.leaves)
                continue
            node.lo = len(self.leaves)
            if node.item_id is not None:
                self.leaves.append((node.docid.tokens, node.item_id, node.score))
            stack.append((node, None))
            for tok, child in reversed(node.children.items()):
                at_depth[depth].append((tok, child))
                stack.append((child, depth + 1))
        for nodes in at_depth:
            self.values.append(sorted({tok for tok, _node in nodes}))
            column = {tok: head for head, tok in enumerate(self.values[-1])}
            for tok, node in nodes:
                node.head = column[tok]


def build_trie(docids: dict[str, DocId], node_scores: dict[tuple[int, ...], float]) -> DocIdTrie:
    trie = DocIdTrie()
    for item_id, d in sorted(docids.items(), key=lambda kv: kv[1].tokens):
        trie.insert(d, item_id)
    for prefix, score in node_scores.items():
        node = trie.node_at(prefix)
        if node is None:
            raise IndexBuildError(f"score refers to missing trie node {prefix}")
        node.score = float(score)
    trie.lay_out()
    return trie


# ---------------------------------------------------------------------------
# persistence


def serialize_index(docids: dict[str, DocId], node_scores: dict[tuple[int, ...], float],
                    path) -> None:
    write_json(path, {
        "version": INDEX_VERSION,
        "docids": {item_id: {"tokens": list(d.tokens), "semantic_len": d.semantic_len}
                   for item_id, d in sorted(docids.items())},
        "node_scores": {"-".join(str(t) for t in prefix): score
                        for prefix, score in sorted(node_scores.items())},
    })


def load_index(path):
    """(docids, node_scores, trie); a bad index, one whose docID prefixes past
    the semantic prefix lack a node score included, raises CheckpointError."""

    def decode(doc):
        docids = {item_id: DocId(tuple(rec["tokens"]), rec["semantic_len"])
                  for item_id, rec in doc["docids"].items()}
        node_scores = {parse_docid_text(key): float(score)
                       for key, score in doc["node_scores"].items()}
        for d in docids.values():
            for t in range(d.semantic_len + 1, len(d.tokens) + 1):
                if d.tokens[:t] not in node_scores:
                    raise CheckpointError(f"{path}: no node score for docID prefix "
                                          f"{'-'.join(map(str, d.tokens[:t]))}")
        return docids, node_scores, build_trie(docids, node_scores)

    return read_json(path, {"docids": dict, "node_scores": dict}, INDEX_VERSION, decode)
