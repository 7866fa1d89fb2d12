"""Structured docID construction: per-category hierarchical k-means over the
fused item embeddings, per-node efficiency scores, and the prefix trie used
to constrain decoding."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

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

    def __len__(self) -> int:
        return len(self.tokens)


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


def kmeans_inertia(points, labels) -> float:
    points = np.asarray(points, dtype=float)
    total = 0.0
    for c in np.unique(labels):
        members = points[labels == c]
        total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


# ---------------------------------------------------------------------------
# hierarchical clustering


def _ordinal_tokens(ids, scores) -> list[tuple[int, ...]]:
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    ranks = {pos: rank for rank, pos in enumerate(order)}
    return [(ranks[i],) for i in range(len(ids))]


def _hier(points, scores, ids, k: int, cs: int, levels: int, seed: int) -> list[tuple[int, ...]]:
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


def hierarchical_cluster(points, k: int, cs: int, depth_budget: int,
                         scores=None, ids=None, seed: int = 0) -> list[tuple[int, ...]]:
    """Per-point sub-docID token tuples: recursive k-means down to nodes of
    at most cs members, which are enumerated ordinally by descending
    efficient score then id."""
    points = np.asarray(points, dtype=float)
    if depth_budget < 1:
        raise ConfigError("depth_budget must be >= 1")
    n = len(points)
    if scores is None:
        scores = [0.0] * n
    if ids is None:
        ids = list(range(n))
    return _hier(points, list(scores), list(ids), k, cs, depth_budget, seed)


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
            cluster_scores = [member_scores[i] for i in pos]
            if len(cluster_ids) > cs:
                rest = _hier(pts[pos], cluster_scores, cluster_ids, k, cs,
                             max_len - len(path) - 2, child_seed(seed, 7919 * gi + c))
            else:
                rest = _ordinal_tokens(cluster_ids, cluster_scores)
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


class TrieNode:
    __slots__ = ("children", "item_id", "score", "docid")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.item_id: str | None = None
        self.score: float | None = None
        self.docid: DocId | None = None


class DocIdTrie:
    """Prefix tree over the docID set; leaves carry item ids, sub-semantic
    nodes carry the mean member efficient score."""

    def __init__(self):
        self.root = TrieNode()
        self.n_items = 0
        self.max_depth = 0

    def insert(self, docid: DocId, item_id: str) -> None:
        node = self.root
        for tok in docid.tokens:
            if node.item_id is not None:
                raise IndexBuildError(f"docID {docid.text()} extends below leaf item "
                                      f"{node.item_id}")
            node = node.children.setdefault(tok, TrieNode())
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

    def score_at(self, prefix) -> float:
        node = self.node_at(prefix)
        if node is None or node.score is None:
            raise KeyError(f"no efficiency score at prefix {tuple(prefix)}")
        return node.score

    def enumerate_docids(self) -> list[tuple[tuple[int, ...], str]]:
        """All (tokens, item_id) pairs in lexicographic token order."""
        out: list[tuple[tuple[int, ...], str]] = []

        def walk(node: TrieNode, prefix: tuple[int, ...]):
            if node.item_id is not None:
                out.append((prefix, node.item_id))
            for tok in sorted(node.children):
                walk(node.children[tok], prefix + (tok,))

        walk(self.root, ())
        return out

    def items_under(self, prefix) -> list[tuple[tuple[int, ...], str, float | None]]:
        """(tokens, item_id, leaf score) for every leaf below the prefix."""
        node = self.node_at(prefix)
        if node is None:
            return []
        out: list[tuple[tuple[int, ...], str, float | None]] = []

        def walk(n: TrieNode, cur: tuple[int, ...]):
            if n.item_id is not None:
                out.append((cur, n.item_id, n.score))
            for tok in sorted(n.children):
                walk(n.children[tok], cur + (tok,))

        walk(node, tuple(prefix))
        return out


def build_trie(docids: dict[str, DocId], node_scores: dict[tuple[int, ...], float]) -> DocIdTrie:
    trie = DocIdTrie()
    for item_id in sorted(docids):
        trie.insert(docids[item_id], item_id)
    if trie.n_items != len(docids):
        raise IndexBuildError("leaf/item bijection violated")
    for prefix, score in node_scores.items():
        node = trie.node_at(prefix)
        if node is None:
            raise IndexBuildError(f"score refers to missing trie node {prefix}")
        node.score = float(score)
    return trie


# ---------------------------------------------------------------------------
# persistence


def serialize_index(docids: dict[str, DocId], node_scores: dict[tuple[int, ...], float],
                    path) -> None:
    payload = {
        "version": INDEX_VERSION,
        "docids": {item_id: {"tokens": list(d.tokens), "semantic_len": d.semantic_len}
                   for item_id, d in sorted(docids.items())},
        "node_scores": {"-".join(str(t) for t in prefix): score
                        for prefix, score in sorted(node_scores.items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, allow_nan=False)


def load_index(path):
    """Returns (docids, node_scores, trie); refuses newer versions and
    reports the byte offset of any corruption."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read index {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt index {path}: {exc.msg} at offset {exc.pos}") from exc
    version = payload.get("version")
    if not isinstance(version, int) or version > INDEX_VERSION:
        raise CheckpointError(f"index version {version!r} is newer than supported "
                              f"{INDEX_VERSION}")
    docids = {item_id: DocId(tuple(rec["tokens"]), rec["semantic_len"])
              for item_id, rec in payload["docids"].items()}
    node_scores = {parse_docid_text(key): float(score)
                   for key, score in payload["node_scores"].items()}
    return docids, node_scores, build_trie(docids, node_scores)
